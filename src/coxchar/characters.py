"""Linear characters of centralizers.

C(w_mu) is a direct product of wreath products, one per family of equal
signed cycles (centralizers), so a linear character of it is fixed by
three numbers per family.  A spec stores them as values[key] = (a, s, r),
keyed as SignedPartition.families keys the families: L for the family of
positive L-cycles and -L for the negative ones:

* zeta_2L^a on the family's cycle generator: a negative L-cycle has order
  2L, a positive one order L, so a is even on a positive family;
* (-1)^s on the swaps of two blocks;
* (-1)^r on the negation of a block, which only positive blocks have: r
  is 0 on a negative family.

Every such assignment extends uniquely to a linear character, and
products of characters add exponents: a mod 2L, s and r mod 2.
Induction never evaluates a character at an element: it values the class
tallies cycle by cycle of the block permutation (centralizers), where a
c-cycle of blocks with twist t and flip f takes zeta_2L^(a t)
(-1)^(s (c-1)) (-1)^(r f).

The stock characters, each one rule per family:

* phi_w, one rule per family letter (_PHI): zeta_j on positive j-cycles
  and +1 on their swaps throughout; in type B, zeta_{2k} on negative
  (2^l k)-cycles (k odd), -1 on their swaps and (-1)^(j-1) on the
  negation of a positive j-block; in type D (psi, read on the
  even-signed centralizer, a '-' class transported by conjugation with
  the first sign flip), zeta_{2i} on negative i-cycles, -1 on their
  swaps and -1 on every block negation;
* alpha: determinant on the fixed space of the centralized element;
* epsilon: restriction of the sign character.
"""

from __future__ import annotations

from .groups import GroupDescriptor, class_index

__all__ = [
    "LinearCharacterSpec",
    "alpha_char",
    "epsilon_char",
    "chi_char",
    "phi_for_class",
    "spec_product",
]


class LinearCharacterSpec:
    """Per-family exponents (a, s, r) of a linear character of C(w), based
    at a class."""

    def __init__(self, group, label, tag, values, name=""):
        if (label, tag) not in class_index(group):
            raise ValueError(f"{label} with tag {tag!r} is not a class of {group}")
        families = {key for key, _ in label.families}
        if set(values) != families:
            raise ValueError(
                f"need one (a, s, r) per family {sorted(families)}, "
                f"got {sorted(values)}"
            )
        self.values = {}
        for key, (a, s, r) in values.items():
            if s not in (0, 1) or r not in (0, 1):
                raise ValueError("swap and negation exponents must be 0 or 1")
            if key > 0 and a % 2:
                raise ValueError(f"value at a positive {key}-cycle must be a {key}-th root")
            if key < 0 and r:
                raise ValueError("negative blocks have no negation")
            self.values[key] = (a % (2 * abs(key)), s, r)
        self.group = group
        self.label = label
        self.tag = tag
        self.name = name

    def __str__(self) -> str:
        tag = f"^{self.tag}" if self.tag else ""
        return f"{self.name}[{self.label}{tag}]"


# -- stock characters ----------------------------------------------------------


def _spec(G, label, tag, name, rule) -> LinearCharacterSpec:
    """The character with the triple rule(L, negative) on each family."""
    values = {key: rule(abs(key), key < 0) for key, _ in label.families}
    return LinearCharacterSpec(G, label, tag, values, name)


# (a, s, r) of phi_w on a family of L-cycles; on a negative type-B family
# zeta_2k = zeta_2L^(2^l) for L = 2^l k, and 2^l = L & -L
_PHI = {
    "A": lambda L, negative: (2, 0, 0),
    "B": lambda L, negative: (L & -L, 1, 0) if negative else (2, 0, 1 - L % 2),
    "D": lambda L, negative: (1, 1, 0) if negative else (2, 0, 1),
}


def alpha_char(G, label, tag=None) -> LinearCharacterSpec:
    """Determinant on Fix(w): -1 on positive-block swaps and negations."""
    return _spec(
        G, label, tag, "alpha",
        lambda L, negative: (0, 0, 0) if negative else (0, 1, 1),
    )


def _sign_rule(L, negative):
    """The sign of a negative L-cycle, and of a swap or a negation of
    L-blocks, is (-1)^L; that of a positive L-cycle is (-1)^(L-1)."""
    odd = L % 2
    return (L * odd, odd, 0) if negative else (L * (1 - odd), odd, odd)


def epsilon_char(G, label, tag=None) -> LinearCharacterSpec:
    """The sign character of the group, restricted to the centralizer."""
    return _spec(G, label, tag, "epsilon", _sign_rule)


def spec_product(*specs: LinearCharacterSpec) -> LinearCharacterSpec:
    first = specs[0]
    for s in specs[1:]:
        if (s.group, s.label, s.tag) != (first.group, first.label, first.tag):
            raise ValueError("character product needs a common base class")
    values = {}
    for key in first.values:
        a, s, r = (sum(column) for column in zip(*(spec.values[key] for spec in specs)))
        values[key] = (a, s % 2, r % 2)
    return LinearCharacterSpec(
        first.group, first.label, first.tag, values,
        name="*".join(s.name for s in specs),
    )


def phi_for_class(G: GroupDescriptor, label, tag=None) -> LinearCharacterSpec:
    """The character phi_w attached to a class in the headline identities."""
    return _spec(G, label, tag, "phi" + G.family, _PHI[G.family])


def chi_char(G: GroupDescriptor, label, tag=None) -> LinearCharacterSpec:
    """chi_w = alpha_w . epsilon . phi_w."""
    return spec_product(
        alpha_char(G, label, tag),
        epsilon_char(G, label, tag),
        phi_for_class(G, label, tag),
    )
