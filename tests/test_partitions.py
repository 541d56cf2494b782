import doctest
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

import coxchar.centralizers
import coxchar.partitions
from coxchar.centralizers import cycle_code
from coxchar.groups import (
    GroupDescriptor,
    centralizer_order,
    conjugacy_classes,
)
from coxchar.partitions import (
    SignedPartition,
    format_partition,
    format_signed_partition,
    parse_partition,
    partitions,
    signed_partitions,
)
from oracles import mu_bar, parse_signed_partition


def test_partitions_of_zero():
    assert partitions(0) == ((),)


def test_partition_counts():
    counts = [len(partitions(m)) for m in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_partitions_canonical():
    for lam in partitions(6):
        assert all(a >= b for a, b in zip(lam, lam[1:]))
    assert len(set(partitions(6))) == 11


@pytest.mark.parametrize(
    "n,count", [(0, 1), (1, 2), (2, 5), (3, 10), (4, 20), (5, 36), (6, 65), (7, 110), (8, 185)]
)
def test_signed_partition_counts(n, count):
    # sum over k of p(k) p(n-k)
    assert len(signed_partitions(n)) == count


def test_signed_partition_validation():
    with pytest.raises(ValueError):
        SignedPartition((2, 1), ())  # neg must ascend
    with pytest.raises(ValueError):
        SignedPartition((), (1, 2))  # pos must descend
    SignedPartition((1, 2), (3, 1))


def test_mu_bar():
    mu = SignedPartition((1, 2), (3, 1))
    assert mu_bar(mu) == SignedPartition((3,), (3, 1))
    unchanged = SignedPartition((), (2, 2))
    assert mu_bar(unchanged) == unchanged
    assert mu_bar(SignedPartition((1, 1, 1), ())) == SignedPartition((3,), ())


def test_parse_and_format():
    assert parse_partition("3+1") == (3, 1)
    assert parse_partition("") == ()
    assert parse_partition("()") == ()
    mu = parse_signed_partition("-1-2+3+1")
    assert mu == SignedPartition((1, 2), (3, 1))
    assert format_signed_partition(mu) == "-1-2+3+1"
    assert format_partition((3, 1)) == "3+1"
    assert str(SignedPartition((1, 2), ())) == "-1-2"
    assert str(SignedPartition((), (2, 1))) == "2+1"


PARSED_PARTITIONS = {
    "": (),
    "()": (),
    "4": (4,),
    "3+1": (3, 1),
    " 3+1 ": (3, 1),
    "+3+1": (3, 1),
    "03+1": (3, 1),
    "10+3": (10, 3),
    "2+2+1+1": (2, 2, 1, 1),
}


@pytest.mark.parametrize("text", list(PARSED_PARTITIONS))
def test_parse_partition_corpus(text):
    assert parse_partition(text) == PARSED_PARTITIONS[text]


@pytest.mark.parametrize("text,message", [
    ("x", "bad partition syntax"),
    ("3++1", "bad partition syntax"),
    ("3 + 1", "bad partition syntax"),
    ("+", "bad partition syntax"),
    ("3+", "bad partition syntax"),
    ("()3", "bad partition syntax"),
    ("-1", "bad partition syntax"),
    ("3-1", "bad partition syntax"),
    ("0", "zero part"),
    ("3+0", "zero part"),
    ("1+2", "parts not descending"),
])
def test_parse_partition_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        parse_partition(text)


@pytest.mark.parametrize("bad", ["3-1", "1+2", "-2-1+1", "3++1", "+", "0", "3+0"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_signed_partition(bad)


@given(st.integers(min_value=0, max_value=7))
def test_roundtrip_all_signed_partitions(n):
    for mu in signed_partitions(n):
        assert parse_signed_partition(format_signed_partition(mu)) == mu


def test_identity_label_first():
    mus = signed_partitions(4)
    assert mus[0] == SignedPartition((), (1, 1, 1, 1))


def test_partitions_ascend_and_order_the_type_a_classes():
    for n in range(25):
        assert list(partitions(n)) == sorted(partitions(n))
    for rank in range(1, 10):
        classes = conjugacy_classes(GroupDescriptor("A", rank))
        assert [cls.label.pos for cls in classes] == list(partitions(rank + 1))


def test_module_doctests():
    result = doctest.testmod(coxchar.partitions)
    assert result.failed == 0 and result.attempted >= 2
    result = doctest.testmod(coxchar.centralizers)
    assert result.failed == 0 and result.attempted >= 1


FAMILY_GROUPS = (
    [GroupDescriptor("A", r) for r in range(1, 13)]
    + [GroupDescriptor("B", r) for r in range(1, 11)]
    + [GroupDescriptor("D", r) for r in range(4, 11)]
)


def _wreath_order(parts, scale):
    """prod over the distinct parts L, m times each, of (scale L)^m m!."""
    return prod(
        (scale * L) ** parts.count(L) * factorial(parts.count(L)) for L in set(parts)
    )


def _place(n, signed_length):
    """The code of one cycle of this signed length in W_n, written out: the
    product of the bases n // j + 1 of the digits below its own, which are
    the positive lengths j < L, or every positive length and the negative
    j < L."""
    below = list(range(1, signed_length)) if signed_length > 0 else [
        *range(1, n + 1), *range(1, -signed_length)
    ]
    return prod(n // j + 1 for j in below)


@pytest.mark.parametrize("G", FAMILY_GROUPS, ids=str)
def test_families_split_every_label(G):
    """families lists each signed length once, negatives first, with a
    positive count, and expands back to the label; the centralizer orders
    and the cycle-type code, written out over neg and pos in its mixed
    radix, agree."""
    n = G.degree
    for mu in {cls.label for cls in conjugacy_classes(G)}:
        keys = [key for key, _ in mu.families]
        assert len(set(keys)) == len(keys)
        assert keys == [k for k in keys if k < 0] + [k for k in keys if k > 0]
        assert all(count > 0 for _, count in mu.families)
        expanded = [key for key, count in mu.families for _ in range(count)]
        assert tuple(-key for key in expanded if key < 0) == mu.neg
        assert tuple(key for key in expanded if key > 0) == mu.pos
        order = _wreath_order(mu.neg, 2) * _wreath_order(mu.pos, 2)
        assert centralizer_order(mu) == order
        assert cycle_code(mu) == sum(_place(n, -L) for L in mu.neg) + sum(
            _place(n, L) for L in mu.pos
        )
    if G.family == "A":
        for cls in conjugacy_classes(G):
            assert cls.centralizer_order == _wreath_order(cls.label.pos, 1)
