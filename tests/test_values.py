"""The value types are namedtuples: validated on construction, immutable,
hashed and ordered by their field tuples, and ClassFunction arithmetic is
pointwise, never the tuple's concatenation or repetition."""

import pytest

from coxchar.classfunctions import ClassFunction, trivial_character
from coxchar.groups import GroupDescriptor, conjugacy_classes
from coxchar.lattice import Hyperplane
from coxchar.partitions import SignedPartition
from coxchar.shapes import Shape, shapes
from signedperm import SignedPermutation

B2 = GroupDescriptor("B", 2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: SignedPermutation((1, 1)),
        lambda: SignedPermutation((1, 3)),
        lambda: SignedPartition((2, 1), ()),
        lambda: SignedPartition((), (1, 2)),
        lambda: SignedPartition((0,), ()),
        lambda: GroupDescriptor("E", 6),
        lambda: GroupDescriptor("B", 0),
        lambda: GroupDescriptor("D", 3),
        lambda: ClassFunction(B2, (1, 2)),
    ],
    ids=["perm-repeat", "perm-range", "neg-order", "pos-order", "zero-part",
         "family", "rank", "small-d", "class-count"],
)
def test_invalid_values_raise_value_error(make):
    with pytest.raises(ValueError):
        make()


def test_values_are_immutable():
    cf = trivial_character(B2)
    values = [
        (SignedPermutation.identity(2), "images"),
        (SignedPartition((), (2,)), "pos"),
        (B2, "rank"),
        (Shape((2,)), "tag"),
        (cf, "values"),
        (conjugacy_classes(B2)[0], "size"),
        (Hyperplane(1, 2, 1), "rel"),
    ]
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = None


def test_hash_repr_and_fields():
    shape = Shape((2, 1))
    assert shape.tag is None
    assert repr(shape) == "Shape(lam=(2, 1), tag=None)"
    assert hash(shape) == hash(((2, 1), None))
    assert repr(B2) == "GroupDescriptor(family='B', rank=2)"
    assert str(B2) == "B2"


@pytest.mark.parametrize("G", [GroupDescriptor("B", 5), GroupDescriptor("D", 6)],
                         ids=str)
def test_order_is_the_field_order(G):
    """Shapes and class labels sort as their field tuples, as they did as
    ordered dataclasses."""
    listed = shapes(G)
    assert sorted(listed) == sorted(listed, key=lambda s: (s.lam, s.tag))
    labels = [cls.label for cls in conjugacy_classes(G)]
    assert sorted(labels) == sorted(labels, key=lambda mu: (mu.neg, mu.pos))


def test_b5_shapes_sorted():
    assert [str(s) for s in sorted(shapes(GroupDescriptor("B", 5)))] == [
        "()", "1", "1+1", "1+1+1", "1+1+1+1", "1+1+1+1+1", "2", "2+1",
        "2+1+1", "2+1+1+1", "2+2", "2+2+1", "3", "3+1", "3+1+1", "3+2", "4",
        "4+1", "5",
    ]


def test_class_function_arithmetic_is_pointwise():
    n = len(conjugacy_classes(B2))
    f = ClassFunction(B2, tuple(range(n)))
    g = ClassFunction(B2, (2,) * n)
    assert (f + g).values == tuple(k + 2 for k in range(n))
    assert (f - g).values == tuple(k - 2 for k in range(n))
    assert [f[k] for k in range(n)] == list(range(n))
    assert sum([f, g], ClassFunction(B2, (0,) * n)) == f + g
    with pytest.raises(ValueError):
        f + ClassFunction(GroupDescriptor("A", 4), (0,) * 7)
