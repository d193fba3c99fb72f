"""Span tracing around the public calls of each maslov module.

The tracer wraps the functions listed in TARGETS from outside the
program: it replaces each one, in every maslov module that holds it,
with a wrapper that records a span (function, item id, start, end,
parent span, raised or not).  Spans of the current item are kept in
memory as typed columns and folded into per-function totals when the
item ends.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute); "Class.method" patches the class, which
# covers every module that imported the class.  __init__ spans time the
# construction of an instance.
TARGETS = (
    ("linalg.Matrix", "linalg", "Matrix.__init__"),
    ("linalg.mul", "linalg", "Matrix.__mul__"),
    ("linalg.det", "linalg", "Matrix.det"),
    ("linalg.inverse", "linalg", "Matrix.inverse"),
    ("linalg.rref", "linalg", "Matrix.rref"),
    ("fields.factorize", "fields", "factorize"),
    ("fields.squarefree_part", "fields", "squarefree_part"),
    ("fields.legendre", "fields", "legendre"),
    ("fields.norm_subgroup_class", "fields", "norm_subgroup_class"),
    ("forms.FormMatrix", "forms", "FormMatrix.__init__"),
    ("forms.diagonalize", "forms", "diagonalize"),
    ("forms.isometry_key", "forms", "isometry_key"),
    ("forms.hasse_invariant", "forms", "hasse_invariant"),
    ("witt.witt_class", "witt", "witt_class"),
    ("witt.is_zero", "witt", "WittClass.is_zero"),
    ("witt.add", "witt", "WittClass.__add__"),
    ("witt.hilbert_symbol", "witt", "hilbert_symbol"),
    ("witt.relevant_places", "witt", "relevant_places"),
    ("witt.trace_transfer", "witt", "trace_transfer"),
    ("lagrange.Lagrangian", "lagrange", "Lagrangian.__init__"),
    ("lagrange.UnitaryElement", "lagrange", "UnitaryElement.__init__"),
    ("lagrange.standardize_pair", "lagrange", "standardize_pair"),
    ("lagrange.kappa", "lagrange", "kappa"),
    ("lagrange.is_opposite", "lagrange", "is_opposite"),
    ("lagrange.enumerate_lagrangians", "lagrange", "enumerate_lagrangians"),
    ("sampling.random_opposite_quadruple", "sampling",
     "random_opposite_quadruple"),
    ("sampling.random_unitary", "sampling", "random_unitary"),
    ("sampling.random_hermitian_invertible", "sampling",
     "random_hermitian_invertible"),
    ("sampling.random_hermitian", "sampling", "random_hermitian"),
    ("cocycle.boundary_defect", "cocycle", "boundary_defect"),
    ("cocycle.maslov", "cocycle", "maslov"),
    ("cocycle.orbit_census", "cocycle", "orbit_census"),
    ("symbols.steinberg_relations_report", "symbols",
     "steinberg_relations_report"),
    ("symbols.compare_stbg_maslov", "symbols", "compare_stbg_maslov"),
    ("symbols.R_map", "symbols", "R_map"),
    ("cli.run", "cli", "run"),
)

# the per-layer metrics the benchmark reports, by name and unit
PER_LAYER = (
    [(f"linalg.{f}.{m}", u) for f in ("mul", "det", "inverse", "rref",
                                      "Matrix")
     for m, u in (("calls", "calls/item"), ("self_s", "s/item"))]
    + [("fields.factorize.calls", "calls/item"),
       ("fields.factorize.self_s", "s/item"),
       ("fields.factorize.max_bits", "bits"),
       ("fields.factorize.repeat_share", "ratio"),
       ("fields.squarefree_part.calls", "calls/item"),
       ("fields.legendre.calls", "calls/item"),
       ("fields.norm_subgroup_class.self_s", "s/item")]
    + [(f"forms.{f}.{m}", u) for f in ("FormMatrix", "diagonalize",
                                       "isometry_key")
       for m, u in (("calls", "calls/item"), ("self_s", "s/item"))]
    + [("forms.hasse_invariant.calls", "calls/item")]
    + [(f"witt.{f}.{m}", u) for f in ("witt_class", "is_zero", "add",
                                      "hilbert_symbol", "relevant_places")
       for m, u in (("calls", "calls/item"), ("self_s", "s/item"))]
    + [("witt.trace_transfer.calls", "calls/item")]
    + [(f"lagrange.{f}.{m}", u) for f in ("Lagrangian", "UnitaryElement",
                                          "standardize_pair", "kappa",
                                          "enumerate_lagrangians")
       for m, u in (("calls", "calls/item"), ("self_s", "s/item"))]
    + [("lagrange.is_opposite.calls", "calls/item")]
    + [(f"sampling.{f}.{m}", u) for f in ("random_opposite_quadruple",
                                          "random_unitary")
       for m, u in (("calls", "calls/item"), ("self_s", "s/item"))]
    + [("sampling.hermitian_accept_ratio", "ratio"),
       ("sampling.quadruple_accept_ratio", "ratio")]
    + [(f"cocycle.{f}.{m}", u) for f in ("boundary_defect", "orbit_census")
       for m, u in (("calls", "calls/item"), ("self_s", "s/item"))]
    + [("cocycle.maslov.calls", "calls/item")]
    + [(f"symbols.{f}.{m}", u) for f in ("steinberg_relations_report",
                                         "compare_stbg_maslov")
       for m, u in (("calls", "calls/item"), ("self_s", "s/item"))]
    + [("symbols.R_map.calls", "calls/item"),
       ("symbols.generic_accept_ratio", "ratio"),
       ("cli.run.self_s", "s/item")]
)


class Tracer:
    """Records spans while an item is open and keeps per-function totals."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.fid = {name: i for i, name in enumerate(self.names)}
        # span columns of the open item
        self.fn = array("i")
        self.item = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack = []
        self.current = -1          # item id, or -1 outside items
        self.patched = []          # (owner, attribute, original)
        # totals over all folded items
        self.calls = Counter()
        self.self_s = Counter()
        self.errors = Counter()
        self.edges = Counter()     # (function, parent function) -> calls
        # factorize: |n| -> id of the item (-1: outside items) that first
        # asked for it, the largest argument in bits, and the calls inside
        # items that asked again, in the same item or after an earlier one
        self.factored = {}
        self.factorize_bits = 0
        self.factorize_again = Counter()
        self.spans_per_item = []
        self.traced_wall = 0.0

    # -- patching -------------------------------------------------------

    def _wrap(self, fid, orig):
        clock = time.perf_counter
        fn, item, parent = self.fn, self.item, self.parent
        start, end, raised, stack = (self.start, self.end, self.raised,
                                     self.stack)
        probe = (self._see_factorize
                 if self.names[fid] == "fields.factorize" else None)
        tracer = self

        def traced(*args, **kwargs):
            if probe is not None:
                probe(*args)
            if tracer.current < 0:
                return orig(*args, **kwargs)
            i = len(fn)
            fn.append(fid)
            item.append(tracer.current)
            parent.append(stack[-1] if stack else -1)
            raised.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return orig(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()

        return functools.wraps(orig)(traced)

    def _see_factorize(self, n):
        """Note one factorize argument.  Every call is noted, inside items
        or not, so ``factored`` holds what the program's factorization
        cache would have seen since ``install``."""
        n = abs(n)
        first = self.factored.get(n)
        if first is None:
            self.factored[n] = self.current
        if self.current < 0:
            return
        self.factorize_bits = max(self.factorize_bits, n.bit_length())
        if first is not None:
            self.factorize_again[
                "same item" if first == self.current else "earlier"] += 1

    def install(self, mods):
        """Wrap every target in ``mods`` (a namespace of maslov modules)
        and in every other loaded maslov module that re-imported it."""
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "maslov" or name.startswith("maslov.")]
        for fid, (_, modname, attr) in enumerate(TARGETS):
            module = getattr(mods, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[meth]
                self.patched.append((owner, meth, orig))
                setattr(owner, meth, self._wrap(fid, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(fid, orig)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self.patched.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)
        self.patched.clear()

    # -- items -----------------------------------------------------------

    def begin_item(self, item_id):
        self.current = item_id

    def end_item(self, wall_s):
        """Close the open item: fold its spans into the totals."""
        self.current = -1
        self.traced_wall += wall_s
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        count = len(fn)
        child = [0.0] * count
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        for i in range(count):
            f = fn[i]
            self.calls[f] += 1
            self.self_s[f] += end[i] - start[i] - child[i]
            self.errors[f] += self.raised[i]
            p = parent[i]
            self.edges[(f, fn[p] if p >= 0 else -1)] += 1
        self.spans_per_item.append(count)
        for col in (fn, self.item, parent, start, end, self.raised):
            del col[:]
        self.stack.clear()

    # -- results ---------------------------------------------------------

    def totals(self):
        """Per-function totals: {name: (calls, self seconds, raised)}."""
        return {name: (self.calls[i], self.self_s[i], self.errors[i])
                for i, name in enumerate(self.names)}

    def _ratio(self, useful, attempts):
        return useful / attempts if attempts else 0.0

    def metrics(self, items):
        """The PER_LAYER metrics, counts and self times per item."""
        f = self.fid
        out = {}
        for name, unit in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                value = self.calls[f[base]] / items
            elif kind == "self_s":
                value = self.self_s[f[base]] / items
            else:
                continue
            out[name] = {"value": value, "unit": unit}
        inv = f["sampling.random_hermitian_invertible"]
        quad = f["sampling.random_opposite_quadruple"]
        cmp_ = f["symbols.compare_stbg_maslov"]
        fz = f["fields.factorize"]
        ratios = {
            # factorize calls whose argument was factored before, in this
            # item or earlier: the share a process-wide cache can serve
            "fields.factorize.repeat_share": self._ratio(
                sum(self.factorize_again.values()), self.calls[fz]),
            # invertible forms over forms drawn inside the invertible sampler
            "sampling.hermitian_accept_ratio": self._ratio(
                self.calls[inv], self.edges[(f["sampling.random_hermitian"],
                                             inv)]),
            # quadruples over (t, t') pairs drawn for them
            "sampling.quadruple_accept_ratio": self._ratio(
                self.calls[quad], self.edges[(inv, quad)] / 2),
            # comparisons that ran over those tried (NonGeneric ones raise)
            "symbols.generic_accept_ratio": self._ratio(
                self.calls[cmp_] - self.errors[cmp_], self.calls[cmp_]),
        }
        out["fields.factorize.max_bits"] = {"value": self.factorize_bits,
                                            "unit": "bits"}
        for name, value in ratios.items():
            out[name] = {"value": value, "unit": "ratio"}
        return {name: out[name] for name, _ in PER_LAYER}
