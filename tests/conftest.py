"""Shared brute-force helpers for the test suite."""

import os

from signedperm import SignedPermutation


def mulclose(generators, limit=None):
    """Closure of a generator set under composition."""
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].n
    seen = {SignedPermutation.identity(n).images}
    frontier = list(seen)
    while frontier:
        new = []
        for images in frontier:
            g = SignedPermutation(images)
            for h in generators:
                product = h.compose(g).images
                if product not in seen:
                    seen.add(product)
                    new.append(product)
                    if limit is not None and len(seen) > limit:
                        raise AssertionError(f"closure exceeded {limit}")
        frontier = new
    return {SignedPermutation(images) for images in seen}


def conjugacy_orbit(group_elements, g):
    """Orbit of g under conjugation by a full element list."""
    orbit = {g.images}
    for x in group_elements:
        orbit.add(g.conjugate(x).images)
    return orbit


def stretch_enabled() -> bool:
    return os.environ.get("COXCHAR_STRETCH") == "1"
