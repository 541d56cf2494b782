"""Centralizers of class representatives in hyperoctahedral groups.

The representative w_mu of the class labelled by a signed partition mu is
a product of disjoint signed cycles on consecutive blocks: negative cycles
c_1..c_a on the first |mu.neg| coordinates, then positive cycles d_1..d_b.
Its centralizer splits one cycle length at a time,

    C(w_mu)  =  prod_i (Z_2i)^a_i : S_a_i  x  prod_j (Z_j)^b_j : W_b_j,

with a_i negative and b_j positive cycles of length i and j: an element
permutes equal blocks, twists each block by a power of its cycle, and may
negate positive blocks outright.  Induction needs only weighted class
tallies of the wreath-product factors, computed per block cycle without
enumerating or decomposing elements.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .partitions import SignedPartition, partitions
from .signedperm import SignedPermutation

__all__ = [
    "w_mu",
    "centralizer_order",
    "symmetric_centralizer_order",
    "centralizer_tallies",
    "convolve_tallies",
]


# -- block layout ------------------------------------------------------------


def _runs(parts):
    """Group a monotone tuple into (value, count) runs."""
    runs = []
    for p in parts:
        if runs and runs[-1][0] == p:
            runs[-1][1] += 1
        else:
            runs.append([p, 1])
    return [(v, c) for v, c in runs]


@lru_cache(maxsize=None)
def _layout(mu: SignedPartition):
    """Per-length families of block offsets: (neg, pos) tuples of
    (length, offsets)."""
    neg, pos = [], []
    u = 0
    for length, count in _runs(mu.neg):
        offsets = tuple(u + k * length for k in range(count))
        neg.append((length, offsets))
        u += count * length
    for length, count in _runs(mu.pos):
        offsets = tuple(u + k * length for k in range(count))
        pos.append((length, offsets))
        u += count * length
    return tuple(neg), tuple(pos)


def _neg_orbit(offset, length):
    """Images of offset+1 under powers of the negative cycle on its block."""
    ups = list(range(offset + 1, offset + length + 1))
    return ups + [-v for v in ups]


# -- class tallies ------------------------------------------------------------
#
# A family is the set of m blocks of one cycle length and one sign.  Its
# part of C(w_mu) is a wreath product K wr S_m with block group
# K = Z_2length (negative blocks) or Z_length x Z_2 (positive blocks, with
# block negations; Z_length without), and it acts on its own coordinates.
# A tally maps a key
#
#     (cycles, summary, negatives mod 2, side)
#
# to the number of family elements with that key: the signed cycle lengths
# the family contributes (negative lengths for negative cycles, sorted),
# the per-length data a linear character sees (the summaries that
# LinearCharacterSpec.evaluate_summaries reads), the parity of negative
# entries, and the D split-side parity of the cycles
# (groups.cycle_side_parity, additive over cycles).


def convolve_tallies(a: dict, b: dict, combine) -> dict:
    """Tally of pairs: keys combined by combine, weights multiplied."""
    out: dict = {}
    for key_a, weight_a in a.items():
        for key_b, weight_b in b.items():
            key = combine(key_a, key_b)
            out[key] = out.get(key, 0) + weight_a * weight_b
    return out


def _block_products(length, negative, flips):
    """The block group as (twist, flip) pairs."""
    if negative:
        return [(k, 0) for k in range(2 * length)]
    return [(k, e) for k in range(length) for e in ((0, 1) if flips else (0,))]


@lru_cache(maxsize=None)
def _cycle_tally(length, c, negative, flips):
    """Tally of one c-cycle of the block permutation, as
    (cycles, twist, flip, negatives, side) -> weight.

    Conjugating by the block group inside these c blocks reaches every
    choice of twists (and flips) with the same product around the cycle,
    and keeps the signed cycles, twist sum, flip sum and negative parity.
    So each product stands for |K|^(c-1) elements, represented by the one
    that puts the whole product on the last block.  The D split side moves
    by the parity of the conjugator.  When K has odd elements and c is
    even, the conjugators that fix a tuple (the diagonal ones) are even,
    so the tuples split evenly between the sides; when c is odd, an odd
    diagonal element centralizes, the class does not split and the side is
    moot.  Otherwise every conjugator is even and the representative's
    side holds throughout.
    """
    from .groups import cycle_side_parity  # groups imports this module

    products = _block_products(length, negative, flips)
    weight = len(products) ** (c - 1)
    has_odd = negative or (flips and length % 2)
    n = c * length
    out: dict = {}
    for twist, flip in products:
        images = list(range(length + 1, n + 1))
        if negative:
            orbit = _neg_orbit(0, length)
            images += [orbit[(twist + q) % (2 * length)] for q in range(length)]
        else:
            sgn = -1 if flip else 1
            images += [sgn * (1 + (twist + q) % length) for q in range(length)]
        w = SignedPermutation(tuple(images))
        cycles = w.signed_cycles()
        signed = tuple(sorted(sign * len(support) for support, sign in cycles))
        negatives = w.neg_count() % 2
        if has_odd and c % 2 == 0:
            sides = ((0, weight // 2), (1, weight // 2))
        else:
            side = sum(cycle_side_parity(w, support[0]) for support, _ in cycles)
            sides = ((side % 2, weight),)
        for side, count in sides:
            out[(signed, twist, flip, negatives, side)] = count
    return out


def _z(lam):
    """Order of the centralizer in S_m of a permutation of cycle type lam."""
    z = 1
    for part, count in _runs(lam):
        z *= part**count * factorial(count)
    return z


@lru_cache(maxsize=None)
def _family_tally(length, m, negative, flips):
    """Tally of the family K wr S_m.

    Conjugating by a block permutation changes no key, so one block
    permutation per cycle type lam of S_m stands for its m!/z_lam
    conjugates; its cycles move disjoint blocks, so its tally is the
    convolution of their _cycle_tally.
    """
    modulus = 2 * length if negative else length

    def combine(a, b):
        return (
            tuple(sorted(a[0] + b[0])),
            (a[1] + b[1]) % modulus,
            a[2] ^ b[2],
            a[3] ^ b[3],
            a[4] ^ b[4],
        )

    out: dict = {}
    for lam in partitions(m):
        tally = {((), 0, 0, 0, 0): 1}
        for c in lam:
            cycle = _cycle_tally(length, c, negative, flips)
            tally = convolve_tallies(tally, cycle, combine)
        conjugates = factorial(m) // _z(lam)
        sign = -1 if (m - len(lam)) % 2 else 1
        for (cycles, twist, flip, negatives, side), weight in tally.items():
            if negative:
                summary = (length, twist, sign)
            else:
                summary = (length, twist, sign, flip)
            key = (cycles, summary, negatives, side)
            out[key] = out.get(key, 0) + conjugates * weight
    return out


def centralizer_tallies(mu: SignedPartition, *, flips=True):
    """Per family of C(w_mu): (negative, tally), negative families first.

    With flips=False the positive blocks are never negated (the
    centralizer inside S_n).
    """
    neg_fams, pos_fams = _layout(mu)
    return [
        (True, _family_tally(length, len(offsets), True, flips))
        for length, offsets in neg_fams
    ] + [
        (False, _family_tally(length, len(offsets), False, flips))
        for length, offsets in pos_fams
    ]


# -- class representatives ----------------------------------------------------


def _fill_neg_cycle(images, offset, length):
    for v in range(offset + 1, offset + length):
        images[v - 1] = v + 1
    images[offset + length - 1] = -(offset + 1)


def _fill_pos_cycle(images, offset, length):
    for v in range(offset + 1, offset + length):
        images[v - 1] = v + 1
    images[offset + length - 1] = offset + 1


def w_mu(n: int, mu: SignedPartition) -> SignedPermutation:
    """The class representative c_1...c_a d_1...d_b for mu."""
    if mu.n != n:
        raise ValueError(f"{mu} is not a signed partition of {n}")
    images = list(range(1, n + 1))
    u = 0
    for length in mu.neg:
        _fill_neg_cycle(images, u, length)
        u += length
    for length in mu.pos:
        _fill_pos_cycle(images, u, length)
        u += length
    return SignedPermutation(tuple(images))


def centralizer_order(mu: SignedPartition) -> int:
    """|C_{W_n}(w_mu)| = prod (2i)^a_i a_i!  prod (2j)^b_j b_j!."""
    order = 1
    for length, count in _runs(mu.neg):
        order *= (2 * length) ** count * factorial(count)
    for length, count in _runs(mu.pos):
        order *= (2 * length) ** count * factorial(count)
    return order


def symmetric_centralizer_order(mu: SignedPartition) -> int:
    """|C_{S_n}(w_mu)| for an all-positive mu."""
    if mu.neg:
        raise ValueError("symmetric centralizer needs an all-positive label")
    order = 1
    for length, count in _runs(mu.pos):
        order *= length**count * factorial(count)
    return order
