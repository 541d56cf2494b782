"""Spans around the public functions of each coxchar module, installed from
outside the library.

`install()` runs in the CLI process (see shim.py).  It replaces each traced
function with a wrapper on every name a caller looks it up by: the class
attribute for methods, and for plain functions every `coxchar.*` module
attribute bound to it, since `verify`, `lattice` and `cli` import their
callees with `from ... import`.  Spans are kept in memory as
(name, start, end, parent) and dumped when the CLI returns.

`layer_numbers()` runs in the benchmark process and turns one process's dump
into per-layer self times, call counts and exact work counters.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Traced function -> the layer its self time is charged to.
LAYER = {
    "groups.conjugacy_classes": "groups.classes_s",
    "characters.phi_for_class": "characters.specs_s",
    "characters.alpha_char": "characters.specs_s",
    "characters.epsilon_char": "characters.specs_s",
    "characters.chi_char": "characters.specs_s",
    "characters.spec_product": "characters.specs_s",
    "classfunctions.induce_from_centralizer": "classfunctions.induce_s",
    "linalg.Subspace.meet_hyperplane": "linalg.meet_hyperplane_s",
    "lattice.build_lattice": "lattice.build_s",
    "lattice.Lattice.fixed_subposet": "lattice.fixed_subposet_s",
    "lattice.Lattice.moebius": "lattice.moebius_s",
    "lattice.graded_os_character": "lattice.graded_os_s",
    "lattice.shape_os_character": "lattice.shape_os_s",
    "lattice.Lattice.poincare_polynomial": "lattice.poincare_s",
    "classfunctions.ClassFunction.discrepancies": "verify.compare_s",
    "classfunctions.inner_product": "verify.compare_s",
}

# Layers whose calls are counted: one per entry into the layer from outside it.
CALLS = {
    "characters.specs_s": "characters.specs_calls",
    "classfunctions.induce_s": "classfunctions.induce_calls",
    "linalg.meet_hyperplane_s": "linalg.meet_hyperplane_calls",
    "lattice.moebius_s": "lattice.moebius_calls",
}

class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, name, fn, hook=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if hook is not None:
                hook(counters, args, result, end - start)
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counters": dict(self.counters),
        }


def install() -> Recorder:
    from coxchar import characters, classfunctions, groups, lattice, linalg

    # Taken before wrapping, so that the counter hooks record no spans.
    conjugacy_classes = groups.conjugacy_classes
    class_index = groups.class_index

    def induced(counters, args, result, seconds):
        # Elements streamed = |C_G(w)| for every non-central base class:
        # a count fixed by the class, not by how induction visits it.
        G, chi = args[0], args[1]
        base = conjugacy_classes(G, None)[class_index(G)[(chi.label, chi.tag)]]
        if base.centralizer_order != G.order:
            counters["centralizers.elements_streamed"] += base.centralizer_order
            counters["noncentral_induce_s"] += seconds

    def built(counters, args, result, seconds):
        counters["lattice.flats"] += len(result.flats)
        counters["lattice.hyperplanes"] += len(result.hyperplanes)

    def fixed(counters, args, result, seconds):
        counters["lattice.stable_flats"] += len(result)

    def moebius(counters, args, result, seconds):
        size = len(args[1])
        counters["lattice.moebius_pairs"] += size * (size - 1) // 2

    targets = [
        (groups, "conjugacy_classes", None),
        (characters, "phi_for_class", None),
        (characters, "alpha_char", None),
        (characters, "epsilon_char", None),
        (characters, "chi_char", None),
        (characters, "spec_product", None),
        (classfunctions, "induce_from_centralizer", induced),
        (linalg.Subspace, "meet_hyperplane", None),
        (lattice, "build_lattice", built),
        (lattice.Lattice, "fixed_subposet", fixed),
        (lattice.Lattice, "moebius", moebius),
        (lattice, "graded_os_character", None),
        (lattice, "shape_os_character", None),
        (lattice.Lattice, "poincare_polynomial", None),
        (classfunctions.ClassFunction, "discrepancies", None),
        (classfunctions, "inner_product", None),
    ]
    modules = [
        m for name, m in sys.modules.items()
        if name == "coxchar" or name.startswith("coxchar.")
    ]
    recorder = Recorder()
    for owner, attr, hook in targets:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            name = f"{owner.__module__.split('.', 1)[1]}.{owner.__name__}.{attr}"
            setattr(owner, attr, recorder.wrap(name, original, hook))
            continue
        name = f"{owner.__name__.split('.', 1)[1]}.{attr}"
        wrapper = recorder.wrap(name, original, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return recorder


def layer_numbers(dump: dict) -> dict[str, float]:
    """Self time per layer, entry counts and counters of one process."""
    names, spans = dump["names"], dump["spans"]
    layer_of = [LAYER[name] for name in names]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for k, (name_id, start, end, parent) in enumerate(spans):
        layer = layer_of[name_id]
        out[layer] += end - start - covered[k]
        if layer in CALLS and (parent < 0 or layer_of[spans[parent][0]] != layer):
            out[CALLS[layer]] += 1
    out.update(dump["counters"])
    return out
