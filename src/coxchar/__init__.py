"""Exact character identities for reflection arrangements of classical
Coxeter groups: conjugacy data, centralizer characters, induction, the
intersection lattice with its equivariant Moebius functions, and the
verification suite tying them together.

The package imports none of its modules: a `coxchar` run loads what the
CLI uses, and callers import the modules they need."""

__version__ = "0.1.0"
