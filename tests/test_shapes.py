import ast
from pathlib import Path

import pytest

from conftest import mulclose
from coxchar import shapes as shapes_module
from coxchar.groups import GroupDescriptor, conjugacy_classes, reflection_length
from coxchar.lattice import _weighted_structures
from coxchar.partitions import SignedPartition, signed_partitions
from coxchar.shapes import (
    Shape,
    class_shape,
    cuspidal_labels,
    parse_shape,
    shape_rank,
    shapes,
)
from oracles import (
    class_rep,
    coxeter_generators,
    group_elements,
    is_cuspidal,
    parabolic_generators,
    shape_fix_space,
    signed_cycle_type,
    w_mu,
)
from signedperm import SignedPermutation


@pytest.mark.parametrize(
    "family,rank,count",
    [("B", 4, 12), ("B", 5, 19), ("A", 3, 5), ("D", 4, 11), ("D", 5, 14), ("D", 6, 26)],
)
def test_shape_counts(family, rank, count):
    assert len(shapes(GroupDescriptor(family, rank))) == count


def test_d4_split_shapes_present():
    names = {str(s) for s in shapes(GroupDescriptor("D", 4))}
    assert {"2+2^+", "2+2^-", "4^+", "4^-"} <= names


def test_parse_shape():
    assert parse_shape("2+2^-") == Shape((2, 2), "-")
    assert parse_shape("3+1") == Shape((3, 1))
    assert parse_shape("") == Shape(())


def test_parabolic_generators_orders():
    # W_{n-m} x S_lam has order 2^(n-m) (n-m)! prod lam_i!
    G = GroupDescriptor("B", 3)
    assert len(mulclose(list(parabolic_generators(G, Shape((1,)))))) == 8
    assert len(mulclose(list(parabolic_generators(G, Shape((2, 1)))))) == 2
    assert len(mulclose(list(parabolic_generators(G, Shape(()))))) == 48
    D = GroupDescriptor("D", 4)
    assert len(mulclose(list(parabolic_generators(D, Shape(()))))) == 192
    assert len(mulclose(list(parabolic_generators(D, Shape((2,)))))) == 8
    plus = mulclose(list(parabolic_generators(D, Shape((2, 2), "+"))))
    minus = mulclose(list(parabolic_generators(D, Shape((2, 2), "-"))))
    assert len(plus) == len(minus) == 4
    assert plus != minus


def test_shape_rank_and_fix_space():
    G = GroupDescriptor("B", 4)
    for shape in shapes(G):
        space = shape_fix_space(G, shape)
        assert space.dim == len(shape.lam)
        assert shape_rank(G, shape) == 4 - space.dim
        for g in parabolic_generators(G, shape):
            for row in space.basis:
                image = [0] * 4
                for i, x in enumerate(row, start=1):
                    v = g(i)
                    image[abs(v) - 1] = x if v > 0 else -x
                assert space.contains(image)


def test_cuspidal_labels_b3():
    G = GroupDescriptor("B", 3)
    labels = cuspidal_labels(G, Shape((1,)))
    assert set(labels) == {
        (SignedPartition((2,), (1,)), None),
        (SignedPartition((1, 1), (1,)), None),
    }
    assert cuspidal_labels(G, Shape((2, 1))) == (
        (SignedPartition((), (2, 1)), None),
    )


def test_cuspidal_labels_d4_empty_shape():
    G = GroupDescriptor("D", 4)
    labels = cuspidal_labels(G, Shape(()))
    assert {mu.neg for mu, _ in labels} == {(1, 3), (2, 2), (1, 1, 1, 1)}


@pytest.mark.parametrize(
    "family,rank",
    [("A", 3), ("A", 5), ("B", 3), ("B", 5), ("B", 6), ("D", 4), ("D", 5), ("D", 6)],
)
def test_cuspidal_labels_partition_the_classes(family, rank):
    """Every class is cuspidal in exactly one shape."""
    from coxchar.groups import conjugacy_classes

    G = GroupDescriptor(family, rank)
    seen = []
    for shape in shapes(G):
        seen.extend(cuspidal_labels(G, shape))
    assert len(seen) == len(set(seen))
    assert set(seen) == {cls.key for cls in conjugacy_classes(G)}


def test_class_rep_examples():
    G = GroupDescriptor("B", 3)
    assert class_rep(G, SignedPartition((1, 2), ())).images == (-1, 3, -2)
    assert class_rep(G, SignedPartition((), (3,))).images == (2, 3, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_class_rep_type_roundtrip(n):
    G = GroupDescriptor("B", n)
    for mu in signed_partitions(n):
        assert signed_cycle_type(class_rep(G, mu)) == mu


@pytest.mark.parametrize("n", range(1, 7))
def test_w_mu_in_d_iff_even_negatives(n):
    for mu in signed_partitions(n):
        assert w_mu(n, mu).is_even_signed() == (len(mu.neg) % 2 == 0)


def test_class_rep_validation():
    D = GroupDescriptor("D", 4)
    with pytest.raises(ValueError):
        class_rep(D, SignedPartition((1,), (3,)))  # odd negative count
    with pytest.raises(ValueError):
        class_rep(D, SignedPartition((), (4,)))  # split label needs a tag
    with pytest.raises(ValueError):
        class_rep(D, SignedPartition((), (3, 1)), "+")  # tag without split
    A = GroupDescriptor("A", 2)
    with pytest.raises(ValueError):
        class_rep(A, SignedPartition((1,), (2,)))


def test_is_cuspidal_basics():
    G = GroupDescriptor("A", 3)
    shape = Shape((4,))
    assert is_cuspidal(G, class_rep(G, SignedPartition((), (4,))), shape)
    assert not is_cuspidal(G, SignedPermutation.identity(4), shape)
    with pytest.raises(ValueError):
        # transposition outside the Young subgroup of (2,1,1)
        is_cuspidal(G, SignedPermutation((1, 3, 2, 4)), Shape((2, 1, 1)))


@pytest.mark.parametrize(
    "family,ranks",
    [("A", range(1, 7)), ("B", range(1, 7)), ("D", range(4, 7))],
)
def test_cuspidal_labels_are_cuspidal(family, ranks):
    for rank in ranks:
        G = GroupDescriptor(family, rank)
        for shape in shapes(G):
            for label, tag in cuspidal_labels(G, shape):
                w = class_rep(G, label, tag)
                assert is_cuspidal(G, w, shape)


def _parabolic_conjugacy_classes(G):
    """Brute force: closures of all subsets of the Coxeter generators,
    grouped by exhaustive conjugacy search."""
    gens = coxeter_generators(G)
    elements = list(group_elements(G))
    subgroups = []
    for mask in range(1 << len(gens)):
        subset = [g for k, g in enumerate(gens) if mask >> k & 1]
        if subset:
            sub = mulclose(subset)
        else:
            sub = {SignedPermutation.identity(G.degree)}
        subgroups.append((subset, frozenset(h.images for h in sub)))

    def conjugate(subset, target_set, x):
        xinv = x.inverse()
        return all(
            x.compose(s).compose(xinv).images in target_set for s in subset
        )

    classes: list[list[int]] = []
    for k, (subset, elems) in enumerate(subgroups):
        placed = False
        for cls in classes:
            subset0, elems0 = subgroups[cls[0]]
            if len(elems0) != len(elems):
                continue
            if any(conjugate(subset, elems0, x) for x in elements):
                cls.append(k)
                placed = True
                break
        if not placed:
            classes.append([k])
    return classes, subgroups, elements


SHAPE_LIST_GROUPS = (
    [GroupDescriptor("A", r) for r in range(1, 13)]
    + [GroupDescriptor("B", r) for r in range(1, 11)]
    + [GroupDescriptor("D", r) for r in range(4, 11)]
)


@pytest.mark.parametrize("G", SHAPE_LIST_GROUPS, ids=str)
def test_shape_list_is_the_shapes_of_the_flats(G):
    """Every flat is stable under the identity, so the keys of its table
    of Moebius sums by shape, zero sums kept, are the shapes of all flats,
    counted from the flat structures and not from the shape rule; the
    shape list is exactly that set, each shape once."""
    identity = SignedPartition((), (1,) * G.degree)
    listed = shapes(G)
    assert len(set(listed)) == len(listed)
    assert set(_weighted_structures(G, identity, None)) == set(listed)


@pytest.mark.parametrize("G", SHAPE_LIST_GROUPS, ids=str)
def test_class_shape_is_listed_with_the_class_reflection_length(G):
    """Each class's shape is listed, and its rank is the class's
    reflection length: the positive cycles span the fixed space, so the
    degree buckets of the graded check are unions of shape buckets."""
    listed = set(shapes(G))
    for cls in conjugacy_classes(G):
        shape = class_shape(cls)
        assert shape in listed, cls
        assert shape_rank(G, shape) == reflection_length(G, cls.label), cls


@pytest.mark.parametrize("G", SHAPE_LIST_GROUPS, ids=str)
def test_every_degree_and_every_shape_has_a_class(G):
    """Each degree 0..rank is the reflection length of a class, which
    verify_graded's per-degree lookup of the classes of each length relies
    on, and each shape has a cuspidal class, so no shape check compares its
    summand with an empty sum."""
    lengths = {reflection_length(G, cls.label) for cls in conjugacy_classes(G)}
    assert lengths == set(range(G.rank + 1))
    for shape in shapes(G):
        assert cuspidal_labels(G, shape), shape


PARSED_SHAPES = {
    "": Shape(()),
    "()": Shape(()),
    " 3+1 ": Shape((3, 1)),
    "+3+1": Shape((3, 1)),
    "3+1^+": Shape((3, 1), "+"),
    "2+2^-": Shape((2, 2), "-"),
    "+2+2^-": Shape((2, 2), "-"),
    "2+2 ^-": Shape((2, 2), "-"),
    "()^-": Shape((), "-"),
}


@pytest.mark.parametrize("text", list(PARSED_SHAPES))
def test_parse_shape_corpus(text):
    assert parse_shape(text) == PARSED_SHAPES[text]


@pytest.mark.parametrize("text", ["x", "3+0", "1+2", "3++1", "3 + 1", "-1", "3-1",
                                  "2+2^", "2+2^*", "3+1^+^-"])
def test_parse_shape_rejects(text):
    with pytest.raises(ValueError):
        parse_shape(text)


def test_shapes_module_reads_no_family():
    """Which labels are classes of A, B and D is decided in `groups` alone:
    `shapes` reads every shape off the class list, never a family letter."""
    tree = ast.parse(Path(shapes_module.__file__).read_text())
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Attribute) and node.attr == "family")


@pytest.mark.parametrize("rank", [4, 5])
def test_d_shapes_against_brute_force(rank):
    """The type-D shape list matches exhaustive parabolic conjugacy."""
    G = GroupDescriptor("D", rank)
    classes, subgroups, elements = _parabolic_conjugacy_classes(G)
    assert len(classes) == len(shapes(G))
    # each shape's standard parabolic lands in a distinct brute-force class
    hit = set()
    for shape in shapes(G):
        gens = list(parabolic_generators(G, shape))
        if gens:
            target = frozenset(h.images for h in mulclose(gens))
        else:
            target = frozenset({SignedPermutation.identity(G.degree).images})
        found = None
        for idx, cls in enumerate(classes):
            subset0, elems0 = subgroups[cls[0]]
            if len(elems0) != len(target):
                continue
            if any(
                all(x.compose(s).compose(x.inverse()).images in target for s in subset0)
                for x in elements
            ):
                found = idx
                break
        assert found is not None, f"no brute-force class for shape {shape}"
        assert found not in hit, f"shape {shape} duplicates another shape"
        hit.add(found)
