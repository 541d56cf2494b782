"""Linear characters of centralizers.

A character is stored by its values on the distinguished generators of
C(w_mu), one value per distinct cycle length: roots of unity on the cycles
c/d, signs on the block swaps x/y and the block negations r.  Subject to
the order conditions (a 2i-th root on a negative i-cycle, an i-th root on
a positive i-cycle, signs elsewhere) such an assignment extends uniquely
to a linear character.  Induction never evaluates it at an element: it
reads the character off per-length summaries of the wreath-product
factors (evaluate_summaries).

The stock characters:

* phi_A: zeta_j on positive j-cycles, 1 on swaps (symmetric groups);
* phi_B: zeta_{2k} on negative (2^l k)-cycles (k odd), zeta_j on positive
  j-cycles, -1 on negative swaps, +1 on positive swaps, (-1)^(j-1) on
  block negations;
* psi: zeta_{2i} on negative i-cycles, zeta_j on positive j-cycles, -1 on
  negative swaps, +1 on positive swaps, -1 on all block negations;
* phi_D: psi restricted to the even-signed centralizer (labels with an
  even number of negative parts; split classes carry a +/- tag and the
  '-' side is transported by conjugation with the first sign flip);
* alpha: determinant on the fixed space of the centralized element;
* epsilon: restriction of the sign character.
"""

from __future__ import annotations

from .cyclotomic import MINUS_ONE, ONE, Root, root, root_mul, root_pow
from .groups import GroupDescriptor
from .partitions import SignedPartition

__all__ = [
    "LinearCharacterSpec",
    "phi_A",
    "phi_B",
    "psi_mu",
    "phi_D",
    "alpha_char",
    "epsilon_char",
    "chi_char",
    "phi_for_class",
    "spec_product",
]


def _distinct(parts):
    return tuple(dict.fromkeys(parts))


class LinearCharacterSpec:
    """Generator values of a linear character of C(w), based at a class."""

    def __init__(self, group, label, tag, cval, xval, yval, dval, rval, name=""):
        self.group = group
        self.label = label
        self.tag = tag
        self.cval = dict(cval)
        self.dval = dict(dval)
        self.xval = dict(xval)
        self.yval = dict(yval)
        self.rval = dict(rval)
        self.name = name
        self._validate()

    def _validate(self):
        if self.group.family == "A" and self.label.neg:
            raise ValueError("type A base labels have no negative parts")
        if self.group.family == "D" and len(self.label.neg) % 2:
            raise ValueError("psi/phi_D need an even number of negative parts")
        for i in _distinct(self.label.neg):
            if root_pow(self.cval[i], 2 * i) != ONE:
                raise ValueError(f"value at a negative {i}-cycle must be a {2*i}-th root")
            if self.xval.get(i, ONE) not in (ONE, MINUS_ONE):
                raise ValueError("swap values must be signs")
        for j in _distinct(self.label.pos):
            if root_pow(self.dval[j], j) != ONE:
                raise ValueError(f"value at a positive {j}-cycle must be a {j}-th root")
            if self.yval.get(j, ONE) not in (ONE, MINUS_ONE):
                raise ValueError("swap values must be signs")
            if self.rval.get(j, ONE) not in (ONE, MINUS_ONE):
                raise ValueError("negation values must be signs")

    def evaluate_summaries(self, neg_summary, pos_summary) -> Root:
        """Character value from per-length (twist, sign[, flips]) data."""
        value = ONE
        for length, twist, sign in neg_summary:
            value = root_mul(value, root_pow(self.cval[length], twist))
            if sign < 0:
                value = root_mul(value, self.xval[length])
        for length, twist, sign, flips in pos_summary:
            value = root_mul(value, root_pow(self.dval[length], twist))
            if sign < 0:
                value = root_mul(value, self.yval[length])
            if flips:
                value = root_mul(value, self.rval[length])
        return value

    def __str__(self) -> str:
        tag = f"^{self.tag}" if self.tag else ""
        return f"{self.name}[{self.label}{tag}]"


# -- stock characters ----------------------------------------------------------


def _odd_part(i: int) -> int:
    while i % 2 == 0:
        i //= 2
    return i


def phi_A(lam: tuple[int, ...]) -> LinearCharacterSpec:
    """zeta_j on positive j-cycles, +1 on swaps, for the symmetric group."""
    mu = SignedPartition((), tuple(lam))
    G = GroupDescriptor("A", mu.n - 1)
    parts = _distinct(mu.pos)
    return LinearCharacterSpec(
        G,
        mu,
        None,
        cval={},
        xval={},
        dval={j: root(1, j) for j in parts},
        yval={j: ONE for j in parts},
        rval={j: ONE for j in parts},
        name="phiA",
    )


def phi_B(mu: SignedPartition) -> LinearCharacterSpec:
    G = GroupDescriptor("B", mu.n)
    negs = _distinct(mu.neg)
    poss = _distinct(mu.pos)
    return LinearCharacterSpec(
        G,
        mu,
        None,
        cval={i: root(1, 2 * _odd_part(i)) for i in negs},
        xval={i: MINUS_ONE for i in negs},
        dval={j: root(1, j) for j in poss},
        yval={j: ONE for j in poss},
        rval={j: MINUS_ONE if j % 2 == 0 else ONE for j in poss},
        name="phiB",
    )


def psi_mu(mu: SignedPartition) -> LinearCharacterSpec:
    """The character behind phi_D, on the full hyperoctahedral centralizer."""
    if len(mu.neg) % 2:
        raise ValueError("psi needs an even number of negative parts")
    G = GroupDescriptor("B", mu.n)
    negs = _distinct(mu.neg)
    poss = _distinct(mu.pos)
    return LinearCharacterSpec(
        G,
        mu,
        None,
        cval={i: root(1, 2 * i) for i in negs},
        xval={i: MINUS_ONE for i in negs},
        dval={j: root(1, j) for j in poss},
        yval={j: ONE for j in poss},
        rval={j: MINUS_ONE for j in poss},
        name="psi",
    )


def phi_D(mu: SignedPartition, tag: str | None = None) -> LinearCharacterSpec:
    base = psi_mu(mu)
    G = GroupDescriptor("D", mu.n)
    return LinearCharacterSpec(
        G, mu, tag, base.cval, base.xval, base.yval, base.dval, base.rval, name="phiD"
    )


def alpha_char(G, label, tag=None) -> LinearCharacterSpec:
    """Determinant on Fix(w): -1 on positive-block swaps and negations."""
    negs = _distinct(label.neg)
    poss = _distinct(label.pos)
    return LinearCharacterSpec(
        G,
        label,
        tag,
        cval={i: ONE for i in negs},
        xval={i: ONE for i in negs},
        dval={j: ONE for j in poss},
        yval={j: MINUS_ONE for j in poss},
        rval={j: MINUS_ONE for j in poss},
        name="alpha",
    )


def epsilon_char(G, label, tag=None) -> LinearCharacterSpec:
    """The sign character of the group, restricted to the centralizer."""
    negs = _distinct(label.neg)
    poss = _distinct(label.pos)
    sign = lambda k: MINUS_ONE if k % 2 else ONE
    return LinearCharacterSpec(
        G,
        label,
        tag,
        cval={i: sign(i) for i in negs},
        xval={i: sign(i) for i in negs},
        dval={j: sign(j - 1) for j in poss},
        yval={j: sign(j) for j in poss},
        rval={j: sign(j) for j in poss},
        name="epsilon",
    )


def spec_product(*specs: LinearCharacterSpec) -> LinearCharacterSpec:
    first = specs[0]
    for s in specs[1:]:
        if (s.group, s.label, s.tag) != (first.group, first.label, first.tag):
            raise ValueError("character product needs a common base class")

    def merge(maps):
        out = {}
        for m in maps:
            for k, v in m.items():
                out[k] = root_mul(out.get(k, ONE), v)
        return out

    return LinearCharacterSpec(
        first.group,
        first.label,
        first.tag,
        cval=merge([s.cval for s in specs]),
        xval=merge([s.xval for s in specs]),
        yval=merge([s.yval for s in specs]),
        dval=merge([s.dval for s in specs]),
        rval=merge([s.rval for s in specs]),
        name="*".join(s.name for s in specs),
    )


def phi_for_class(G: GroupDescriptor, label, tag=None) -> LinearCharacterSpec:
    """The character phi_w attached to a class in the headline identities."""
    if G.family == "A":
        return phi_A(label.pos)
    if G.family == "B":
        return phi_B(label)
    return phi_D(label, tag)


def chi_char(G: GroupDescriptor, label, tag=None) -> LinearCharacterSpec:
    """chi_w = alpha_w . epsilon . phi_w."""
    return spec_product(
        alpha_char(G, label, tag),
        epsilon_char(G, label, tag),
        phi_for_class(G, label, tag),
    )
