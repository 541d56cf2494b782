"""Partitions and signed partitions.

A partition is stored as a weakly decreasing tuple of positive integers,
the empty tuple being the unique partition of 0.  A signed partition of n
is a pair (neg, pos) with neg weakly *increasing*, pos weakly decreasing
and |neg| + |pos| = n.  Signed partitions label the conjugacy classes of
the hyperoctahedral group: neg lists the lengths of the negative cycles,
pos the lengths of the positive ones.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from itertools import groupby

__all__ = [
    "SignedPartition",
    "partitions",
    "signed_partitions",
    "parse_partition",
    "format_partition",
]

Partition = tuple[int, ...]


def _is_decreasing(parts) -> bool:
    return all(a >= b for a, b in zip(parts, parts[1:]))


class SignedPartition(namedtuple("SignedPartition", "neg pos")):
    """Class label (neg ascending, pos descending) with |neg|+|pos| = n."""

    __slots__ = ()

    def __new__(cls, neg: tuple[int, ...], pos: tuple[int, ...]):
        if any(p <= 0 for p in neg) or any(p <= 0 for p in pos):
            raise ValueError("parts must be positive")
        if not _is_decreasing(tuple(reversed(neg))):
            raise ValueError(f"negative parts must be ascending: {neg}")
        if not _is_decreasing(pos):
            raise ValueError(f"positive parts must be descending: {pos}")
        return super().__new__(cls, neg, pos)

    @property
    def n(self) -> int:
        return sum(self.neg) + sum(self.pos)

    @property
    @lru_cache(maxsize=None)
    def families(self) -> tuple[tuple[int, int], ...]:
        """(key, count) per family of equal signed cycles, the negative
        families first, in label order: key -L for negative L-cycles and L
        for positive ones.  Cached: induction reads it several times per
        class.

        >>> SignedPartition((1, 1, 2), (3, 1, 1)).families
        ((-1, 2), (-2, 1), (3, 1), (1, 2))
        """
        keys = [-p for p in self.neg] + list(self.pos)
        return tuple((key, len(list(run))) for key, run in groupby(keys))

    def __str__(self) -> str:
        return format_signed_partition(self)


@lru_cache(maxsize=None)
def partitions(m: int) -> tuple[Partition, ...]:
    """All partitions of m, in ascending lexicographic order.

    >>> partitions(4)
    ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return ((),)
    result = []

    def extend(remaining, maxpart, prefix):
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(1, min(maxpart, remaining) + 1):
            extend(remaining - part, part, prefix + [part])

    extend(m, m, [])
    return tuple(result)


@lru_cache(maxsize=None)
def signed_partitions(n: int) -> tuple[SignedPartition, ...]:
    """All signed partitions of n, ordered by (|neg|, neg, pos).

    The identity label ((), (1,...,1)) comes first; the label of the
    central element -1, ((1,...,1), ()), comes last among |neg| = n.
    """
    result = []
    for k in range(n + 1):
        for neg in partitions(k):
            asc = tuple(reversed(neg))
            for pos in partitions(n - k):
                result.append(SignedPartition(asc, pos))
    result.sort(key=lambda mu: (sum(mu.neg), mu.neg, mu.pos))
    return tuple(result)


# -- text syntax ------------------------------------------------------------
#
# Partitions print as "3+1"; signed partitions as "-1-2+3+1" with negative
# parts first (ascending) and positive parts after (descending).  The empty
# partition prints as "" and parses from "" or "()".

_PARTITION = re.compile(r"\+?\d+(\+\d+)*")


def parse_partition(text: str) -> Partition:
    """Parse "3+1" (or "+3+1") into (3, 1)."""
    text = text.strip()
    if text in ("", "()"):
        return ()
    if not _PARTITION.fullmatch(text):
        raise ValueError(f"bad partition syntax: {text!r}")
    parts = tuple(map(int, text.removeprefix("+").split("+")))
    if 0 in parts:
        raise ValueError(f"zero part in {text!r}")
    if not _is_decreasing(parts):
        raise ValueError(f"parts not descending in {text!r}")
    return parts


def format_partition(parts: Partition) -> str:
    return "+".join(str(p) for p in parts)


def format_signed_partition(mu: SignedPartition) -> str:
    out = "".join(f"-{p}" for p in mu.neg)
    if mu.pos:
        tail = "+".join(str(p) for p in mu.pos)
        out += f"+{tail}" if out else tail
    return out

