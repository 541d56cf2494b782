"""Signed permutations, the elements of the groups.

The library works on class labels alone; the tests build elements to check
it against the definitions.  An element w of the hyperoctahedral group on
n letters is stored by its image tuple: images[i-1] = w(i) in
{±1, ..., ±n}, and w(-i) = -w(i) is implicit.  Elements of the symmetric
group are the all-positive signed permutations; type-D elements are those
with an even number of negative entries.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = ["SignedPermutation"]


class SignedPermutation(namedtuple("SignedPermutation", "images")):
    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]):
        n = len(images)
        if sorted(abs(v) for v in images) != list(range(1, n + 1)):
            raise ValueError(f"not a signed permutation: {images}")
        return super().__new__(cls, images)

    # -- construction ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "SignedPermutation":
        return SignedPermutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, i: int) -> "SignedPermutation":
        """The Coxeter generator s_i swapping i and i+1, 1 <= i <= n-1."""
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return SignedPermutation(tuple(images))

    @staticmethod
    def flip(n: int, i: int = 1) -> "SignedPermutation":
        """Sign change of coordinate i; flip(n, 1) is the generator t."""
        images = list(range(1, n + 1))
        images[i - 1] = -i
        return SignedPermutation(tuple(images))

    @staticmethod
    def neg_transposition(n: int) -> "SignedPermutation":
        """The type-D generator t' = t s_1 t: 1 -> -2, 2 -> -1."""
        images = list(range(1, n + 1))
        images[0], images[1] = -2, -1
        return SignedPermutation(tuple(images))

    @staticmethod
    def minus_identity(n: int) -> "SignedPermutation":
        return SignedPermutation(tuple(-i for i in range(1, n + 1)))

    # -- basic structure -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        """Image of the signed value v."""
        if v > 0:
            return self.images[v - 1]
        return -self.images[-v - 1]

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        return self.compose(other)

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """(p.compose(q))(i) = p(q(i)); q acts first."""
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} != {other.n}")
        return SignedPermutation(tuple(self(v) for v in other.images))

    def inverse(self) -> "SignedPermutation":
        images = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            if v > 0:
                images[v - 1] = i
            else:
                images[-v - 1] = -i
        return SignedPermutation(tuple(images))

    def conjugate(self, x: "SignedPermutation") -> "SignedPermutation":
        """x w x^{-1}."""
        return x.compose(self).compose(x.inverse())

    def neg_count(self) -> int:
        return sum(1 for v in self.images if v < 0)

    def is_positive(self) -> bool:
        return all(v > 0 for v in self.images)

    def is_even_signed(self) -> bool:
        return self.neg_count() % 2 == 0

    def order(self) -> int:
        w = self
        k = 1
        e = SignedPermutation.identity(self.n)
        while w != e:
            w = w.compose(self)
            k += 1
        return k

    # -- cycle structure -----------------------------------------------------

    def signed_cycles(self) -> list[tuple[tuple[int, ...], int]]:
        """Cycles of |w| with their signs.

        Returns a list of (support, sign) pairs where support is the cycle
        of absolute values starting from its smallest element and sign is
        the product of the signs of w encountered along the cycle.  A cycle
        is negative (sign -1) when traversing it flips sign an odd number
        of times; a negative cycle of length l has order 2l.
        """
        seen = [False] * self.n
        cycles = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            support = []
            sign = 1
            v = start
            while not seen[v - 1]:
                seen[v - 1] = True
                support.append(v)
                image = self.images[v - 1]
                if image < 0:
                    sign = -sign
                v = abs(image)
            cycles.append((tuple(support), sign))
        return cycles

    def __str__(self) -> str:
        return "[" + " ".join(str(v) for v in self.images) + "]"
