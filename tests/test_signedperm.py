import pytest
from hypothesis import given, strategies as st

from signedperm import SignedPermutation
from oracles import all_signed_permutations, matrix_rows


def random_signed_perm(draw, n):
    perm = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return SignedPermutation(tuple(s * v for s, v in zip(signs, perm)))


signed_perms = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.builds(
        lambda perm, signs: SignedPermutation(
            tuple(s * v for s, v in zip(signs, perm))
        ),
        st.permutations(list(range(1, n + 1))),
        st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n),
    )
)


def test_validation():
    with pytest.raises(ValueError):
        SignedPermutation((1, 1))
    with pytest.raises(ValueError):
        SignedPermutation((1, 3))


def test_compose_identity():
    w = SignedPermutation((2, -1, 3))
    e = SignedPermutation.identity(3)
    assert e.compose(w) == w
    assert w.compose(e) == w


def test_flip_involution():
    t = SignedPermutation.flip(2)
    assert t.compose(t) == SignedPermutation.identity(2)


def test_compose_convention():
    # compose(p, q) applies q first: t then s1 maps 1 -> 2, 2 -> -1
    s1 = SignedPermutation.transposition(2, 1)
    t = SignedPermutation.flip(2)
    assert t.compose(s1).images == (2, -1)
    assert s1.compose(t).images == (-2, 1)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        SignedPermutation.identity(2).compose(SignedPermutation.identity(3))


def test_neg_transposition():
    u = SignedPermutation.neg_transposition(4)
    assert u.images == (-2, -1, 3, 4)
    assert u.compose(u) == SignedPermutation.identity(4)
    assert u.is_even_signed()


def test_signed_cycles():
    w = SignedPermutation((-1, 3, -2))  # 1 -> -1; 2 -> 3 -> -2
    cycles = dict((c, s) for c, s in w.signed_cycles())
    assert cycles == {(1,): -1, (2, 3): -1}
    identity = SignedPermutation.identity(3)
    assert all(s == 1 for _, s in identity.signed_cycles())


@given(signed_perms)
def test_inverse(w):
    e = SignedPermutation.identity(w.n)
    assert w.compose(w.inverse()) == e
    assert w.inverse().compose(w) == e


@given(st.data())
def test_compose_associative(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    def draw_perm():
        perm = data.draw(st.permutations(list(range(1, n + 1))))
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        return SignedPermutation(tuple(s * v for s, v in zip(signs, perm)))
    p, q, r = draw_perm(), draw_perm(), draw_perm()
    assert p.compose(q).compose(r) == p.compose(q.compose(r))


def test_enumeration_count():
    assert sum(1 for _ in all_signed_permutations(3)) == 48


def test_matrix_rows():
    w = SignedPermutation((2, -1))
    # e1 -> e2, e2 -> -e1
    assert matrix_rows(w) == [[0, -1], [1, 0]]
