"""Centralizers of class representatives in hyperoctahedral groups.

The class labelled by a signed partition mu stands for w_mu, a product of
disjoint signed cycles on consecutive blocks: negative cycles c_1..c_a on
the first |mu.neg| coordinates, then positive cycles d_1..d_b.  Every
datum here is read off mu: w_mu itself is never built.  Its centralizer
splits one cycle length at a time,

    C(w_mu)  =  prod_i (Z_2i)^a_i : S_a_i  x  prod_j (Z_j)^b_j : W_b_j,

with a_i negative and b_j positive cycles of length i and j: an element
permutes equal blocks, twists each block by a power of its cycle, and may
negate positive blocks outright.  Induction needs only the class tallies
of the wreath-product factors, valued by a linear character cycle by
cycle of the block permutation, each cycle in closed form, with no
element built: the twists of a block cycle that give one cycle type are
a union of Galois orbits, and each orbit's values sum to a Ramanujan sum.
This is the one module that reads a cycle-type code: the tallies are
convolved into the sum of the character over each class of the group
(class_sums), which is all that induction takes from them; the largest
family's products go straight to their classes, so no tally of the whole
centralizer is built.

Tallies are keyed by the cycle-type code alone, and hold the sum of the
character over the elements of each code, a rational integer, beside
their number.  The cycle type of an element of W_n is its cycle-type
code (cycle_code), in mixed radix: one digit per signed cycle length
counts the cycles of that length and sign, positive lengths 1..n first,
then negative 1..n, and the digit of length +-L has base n // L + 1,
since W_n has no element with more than n // L cycles of length L.  So
the code determines the type, and the code of a product of elements on
disjoint coordinates is the sum of their codes: no digit overflows.  The
places depend on n alone (_places).  An element lies in D_n exactly when
it has an even number of negative cycles, so the code also decides D
membership.  In type D one more digit above these, at side_unit(n),
adds up the D split sides of the cycles, and its parity is the element's
side; code_index keys every side count an element can reach, so no code
is reduced before its class is looked up.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, gcd

from .cyclotomic import ramanujan, totient_moebius
from .groups import GroupDescriptor, conjugacy_classes
from .partitions import SignedPartition

__all__ = [
    "cycle_code",
    "side_unit",
    "code_index",
    "centralizer_tallies",
    "class_sums",
]


@lru_cache(maxsize=None)
def _places(n):
    """The place of each signed length's digit in a code of W_n, and the
    side place above them: positive lengths 1..n, then negative 1..n, the
    digit of length +-L in base n // L + 1."""
    places = {}
    place = 1
    for signed_length in (*range(1, n + 1), *range(-1, -n - 1, -1)):
        places[signed_length] = place
        place *= n // abs(signed_length) + 1
    return places, place


def _unit(n, signed_length):
    """The code of one cycle of W_n of this signed length (< 0: negative)."""
    return _places(n)[0][signed_length]


def cycle_code(mu: SignedPartition) -> int:
    """The cycle-type code of the class mu of W_n, n = |mu|."""
    return sum(count * _unit(mu.n, key) for key, count in mu.families)


def side_unit(n):
    """The place of the D split-side digit, above the 2n cycle digits."""
    return _places(n)[1]


# -- class tallies ------------------------------------------------------------
#
# A family is the set of m blocks of one signed cycle length, keyed -L for
# negative L-cycles and L for positive ones (SignedPartition.families).
# Its part of C(w_mu) is a wreath product K wr S_m with block group
# K = Z_2L (negative blocks) or Z_L x Z_2 (positive blocks, with block
# negations; Z_L without), and it acts on its own coordinates.  Under a
# character's triple (a, s, r) on it (characters), its valued tally maps
# a code to the sum of the character's values over the family elements of
# that code and their number.  The twists of one block cycle fall into
# Galois orbits whose elements share a code, and the values over an orbit
# sum to a Ramanujan sum (cyclotomic.ramanujan), so every value is a
# rational integer and no root of unity is formed.  In type D the code's
# side digit counts the cycles' D split sides (the parity of the negative
# values met walking each cycle from its smallest entry, additive over
# cycles), so sides add with codes.


@lru_cache(maxsize=None)
def _cycle_tally(length, c, negative, flips):
    """One c-cycle of the block permutation, as rows
    (signed cycle length, cycles, q, flip, side, weight), one per Galois
    orbit of its twists and flip.

    Conjugating by the block group inside these c blocks reaches every
    choice of twists (and flips) with the same product b around the cycle,
    and keeps the signed cycles, twist sum and flip sum.  So each product
    stands for |K|^(c-1) elements, the weight, represented by the one that
    puts all of b on the last block; its c-th power is b on every block, so
    each signed l-cycle of b makes one signed (c*l)-cycle.

    The twist k of b lies in Z_M, M = 2L on a negative block and L on a
    positive one, and the cycles of b depend on its flip and g = gcd(k, M)
    alone.  The twists of one g are k = g u for the phi(q) units u mod
    q = M / g: one Galois orbit, and one row.  On a negative block, b turns
    the 2L signed points by k: its g orbits are g negative (L/g)-cycles
    when g divides L (x and -x share an orbit), else g/2 positive cycles of
    odd length 2L/g.  On a positive block b = +-d^k has g cycles of length
    l = L/g, negative when b is negated and l is odd.

    The D split side matters only for positive cycles of even length, and
    moves by the parity of the conjugator.  When K has odd elements and c
    is even, the conjugators that fix a tuple (the diagonal ones) are even,
    so the tuples split evenly between the sides.  Otherwise such cycles
    come from an all-even K, and the representative's side holds: walking
    a (c*l)-cycle, the sign flips at each pass through a negated b, so c*l/2
    of its values are negative, c*L/2 over its L/l cycles.
    """
    modulus = 2 * length if negative else length
    flip_range = (0, 1) if flips and not negative else (0,)
    weight = (modulus * len(flip_range)) ** (c - 1)
    has_odd = negative or (flips and length % 2)
    rows = []
    for g in range(1, modulus + 1):
        if modulus % g:
            continue
        for flip in flip_range:
            if not negative:
                cycle, count = c * length // g, g
                if flip and (length // g) % 2:
                    cycle = -cycle
            elif length % g == 0:
                cycle, count = -c * length // g, g
            else:
                cycle, count = 2 * c * length // g, g // 2
            if cycle < 0 or cycle % 2:
                sides = ((0, weight),)
            elif has_odd and c % 2 == 0:
                sides = ((0, weight // 2), (1, weight // 2))
            else:
                sides = ((flip * c * length // 2 % 2, weight),)
            for side, share in sides:
                rows.append((cycle, count, modulus // g, flip, side, share))
    return tuple(rows)


@lru_cache(maxsize=None)
def _family_tally(n, signed_length, m, family, a, s, r):
    """Valued tally of the family of m blocks of this signed length (< 0:
    negative) in the group of this family letter on n coordinates, under
    the triple (a, s, r): code -> (sum of the character's values, number
    of elements).  A character is a product over the cycles of the block
    permutation, so recur on the one through the first block: its length
    c, its other blocks picked in (m-1)!/(m-c)! ways, and its _cycle_tally
    rows summed per code.  A row stands for weight elements at each twist
    k of its orbit, valued zeta_2L^(a k) (-1)^(s (c-1)) (-1)^(r flip).  On
    a negative block zeta_2L^(a k) is zeta_q^(a u) for k = g u, and on a
    positive one zeta_q^(a/2 u) (a is even there), so the orbit's phi(q)
    twists sum to the Ramanujan sum c_q(a), or c_q(a/2), a rational
    integer by Hoelder's formula (cyclotomic.ramanujan).  Two positive
    1-blocks of B2 under alpha's triple: fixed (code 2), one negated
    (value -1 each), both negated, swapped with neither or both negated
    (code 3, a positive 2-cycle, value -1 each) or with one (a negative
    2-cycle, value 1 each); and the two positive 2-blocks of D4, where 8
    of the 32 elements have two positive 2-cycles (cycle code 2 * 5 = 10),
    with side digit (at 5 * 3 * 2 * 2 * 5 * 3 * 2 * 2 = 3600) 0, 1 or 2,
    so 2 of them lie on the '-' split side:

    >>> sorted(_family_tally(2, 1, 2, "B", 0, 1, 1).items())
    [(2, (1, 1)), (3, (-2, 2)), (7, (-2, 2)), (12, (1, 1)), (18, (2, 2))]
    >>> tally = _family_tally(4, 2, 2, "D", 0, 0, 0)
    >>> [tally[10 + side * 3600] for side in (0, 1, 2)]
    [(5, 5), (2, 2), (1, 1)]
    >>> sum(count for _, count in tally.values())
    32
    """
    if m == 0:
        return {0: (1, 1)}
    negative = signed_length < 0
    power = a if negative else a // 2
    side_place = side_unit(n) if family == "D" else 0
    out: dict = {}
    for c in range(m, 0, -1):  # the rest grows, so each call finds it cached
        rest = _family_tally(n, signed_length, m - c, family, a, s, r)
        ways = factorial(m - 1) // factorial(m - c)
        cycles: dict = {}
        for cycle, count, q, flip, side, weight in _cycle_tally(
            abs(signed_length), c, negative, family != "A"
        ):
            code = count * _unit(n, cycle) + side * side_place
            share = ways * weight * (-1) ** (s * (c - 1) + r * flip)
            value, number = cycles.get(code, (0, 0))
            cycles[code] = (
                value + share * ramanujan(q, power),
                number + ways * weight * totient_moebius(q)[0],
            )
        _convolve(rest, cycles, out)
    return out


def _convolve(left, right, out):
    """Add to out the valued tally of the products of left's and right's
    elements, on disjoint coordinates: codes add, values and counts
    multiply.  Returns out."""
    for code_b, (value_b, count_b) in right.items():
        for code_a, (value_a, count_a) in left.items():
            code = code_a + code_b
            value, count = out.get(code, (0, 0))
            out[code] = (value + value_a * value_b, count + count_a * count_b)
    return out


def centralizer_tallies(mu: SignedPartition, family: str, values):
    """The tally of each family of C(w_mu) in the group of type family,
    valued by its triple values[key], negative families first.  In type A
    the positive blocks are never negated (the centralizer inside S_n)."""
    return [
        _family_tally(mu.n, key, count, family, *values[key])
        for key, count in mu.families
    ]


@lru_cache(maxsize=None)
def code_index(G: GroupDescriptor) -> dict:
    """code + side * side_unit(n) -> class index, for the cycle-type code of
    each class and every side count an element of G can carry: 0 in types
    A and B, and in type D 0..n // 2 + 1 (one per positive even cycle, and
    one for a '-' base), of the parity of the class's tag ('+' even, '-'
    odd) where it splits.  No code with an odd number of negative cycles
    names a class of D_n."""
    out = {}
    unit = side_unit(G.degree)
    sides = range(G.degree // 2 + 2) if G.family == "D" else (0,)
    for k, cls in enumerate(conjugacy_classes(G)):
        code = cycle_code(cls.label)
        for side in sides:
            if cls.tag is None or side % 2 == (cls.tag == "-"):
                out[code + side * unit] = k
    return out


def class_sums(G: GroupDescriptor, label: SignedPartition, tag, values):
    """Fuse the centralizer H of the class (label, tag) of G into the
    classes of G, under the linear character of H with these triples:
    (sums, tallied), sums mapping a class index to the sum of the
    character over the elements of H in that class, and tallied the
    number of elements summed, |H| when every element is counted once.

    The families' valued tallies but the largest are convolved, and the
    largest is convolved straight into the classes: each product's code,
    its D side digit included, leads to a class (code_index), which gains
    its value, and tallied its count.  Codes add in any order, so taking
    the largest family last keeps the convolved tally small.  The '-'
    base class of a split pair is t w_mu t, and the tally of its
    centralizer is that of w_mu conjugated by the odd t: starting one
    side unit up swaps the sides.  In type D the code of an odd element
    (an odd number of negative cycles) names no class, and the element
    is dropped.  Under phi on D4, the bases 2+2^+ and 2+2^- give the same
    sums with the split pairs swapped:

    >>> from coxchar.characters import phi_for_class
    >>> G = GroupDescriptor("D", 4)
    >>> names = [str(cls) for cls in conjugacy_classes(G)]
    >>> for tag in "+-":
    ...     chi = phi_for_class(G, SignedPartition((), (2, 2)), tag)
    ...     sums, tallied = class_sums(G, chi.label, tag, chi.values)
    ...     print(tallied, sorted((names[k], v) for k, v in sums.items()
    ...                           if "^" in names[k]))
    32 [('2+2^+', 6), ('2+2^-', -2), ('4^+', 0)]
    32 [('2+2^+', -2), ('2+2^-', 6), ('4^-', 0)]
    """
    *families, last = sorted(centralizer_tallies(label, G.family, values), key=len)
    tally = {side_unit(G.degree) if tag == "-" else 0: (1, 1)}
    for family in families:
        tally = _convolve(tally, family, {})
    index = code_index(G).get
    sums: dict = {}
    tallied = 0
    for code_b, (value_b, count_b) in last.items():
        hits = 0
        for code_a, (value_a, count_a) in tally.items():
            k = index(code_a + code_b)
            if k is not None:  # else an odd element of a type-D tally
                hits += count_a
                sums[k] = sums.get(k, 0) + value_a * value_b
        tallied += hits * count_b
    return sums, tallied
