"""Span recorder and work counters for the traced benchmark run.

The recorder wraps chosen public functions of the ``linfty`` modules.
Every module namespace that holds a reference to a wrapped function gets
the wrapper, so calls between modules are caught as well as calls from
the benchmark.  Each call records one span (name, parent, start, end);
spans stay in memory and are written out when the run ends.  Counters
read the program's state (cache sizes, argument sizes) and never change
it.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from math import prod

# layer (module name) -> public functions whose calls become spans
TRACED = {
    "forms": ("wedge", "exterior_d", "pullback", "reduce_barycentric"),
    "dupont": ("dupont_s", "poincare_h", "whitney_P", "integrate_chain",
               "elementary_form"),
    "algebra": ("bracket", "tensor_bracket", "tensor_curvature",
                "twisted_bracket", "check_jacobi", "twist"),
    "linalg": ("rref",),
    "mc_gamma": ("solve_gauge_fixed", "solve_mc", "fill_horn_gamma",
                 "fill_horn_mc", "dold_kan_compare"),
    "bch_groupoid": ("generalized_ch", "compose", "alpha1",
                     "tree_exponential", "oracle_bch"),
    "fixtures": ("get_fixture", "free_nilpotent_class3"),
}
# traced methods: span name -> (module, class, method)
TRACED_METHODS = {"algebra.lower_central": ("algebra", "LInftyAlgebra",
                                            "lower_central")}
# dupont operator -> (counter prefix, cache attribute)
OPERATOR_CACHES = {"dupont.dupont_s": ("dupont.s", "_S_CACHE"),
                   "dupont.poincare_h": ("dupont.h", "_H_CACHE"),
                   "dupont.whitney_P": ("dupont.P", "_P_CACHE")}
SOLVES = ("mc_gamma.solve_gauge_fixed", "mc_gamma.solve_mc")


def unit_of(name):
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("per_solve"):
        return "brackets/solve"
    return "count"


def span_names(criteria=()):
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    names.extend(TRACED_METHODS)
    names.extend(f"acceptance.{c}" for c in criteria)
    return names


class SpanLog:
    """Spans in parallel arrays; parent -1 marks a root span."""

    def __init__(self, names):
        self.names = list(names)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")

    def __len__(self):
        return len(self.name_id)

    def add(self, name_id, parent, start, end):
        """Append a finished span (used by tests and by the recorder)."""
        self.name_id.append(name_id)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.name_id) - 1

    def self_times(self):
        """Each span's duration minus the part of it that its children
        cover (the union of the child intervals, clipped to the span)."""
        children = [[] for _ in range(len(self))]
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(i)
        out = array("d", bytes(8 * len(self)))
        for i in range(len(self)):
            lo, hi = self.start[i], self.end[i]
            covered = 0.0
            cur_lo = cur_hi = None
            for a, b in sorted((max(self.start[c], lo), min(self.end[c], hi))
                               for c in children[i]):
                if b <= a:
                    continue
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[i] = (hi - lo) - covered
        return out

    def summary(self):
        """Per span name: calls, total_s (outermost calls only, so that
        recursion is not counted twice) and self_s."""
        selfs = self.self_times()
        stats = {n: [0, 0.0, 0.0] for n in self.names}
        for i in range(len(self)):
            name = self.names[self.name_id[i]]
            entry = stats[name]
            entry[0] += 1
            entry[2] += selfs[i]
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != self.name_id[i]:
                p = self.parent[p]
            if p < 0:
                entry[1] += self.end[i] - self.start[i]
        return stats

    def write(self, path):
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self)):
                out.write(f"{i}\t{self.parent[i]}\t"
                          f"{self.names[self.name_id[i]]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


class Recorder:
    """Installs span wrappers and counters; ``uninstall`` restores the
    original functions."""

    def __init__(self, criteria=()):
        self.log = SpanLog(span_names(criteria))
        self.stack = [-1]
        self.counters = {"forms.wedge.terms_out": 0,
                         "algebra.lower_central.builds": 0,
                         "algebra.tensor_bracket.atom_tuples": 0,
                         "mc_gamma.tensor_brackets_in_solves": 0}
        for prefix, _ in OPERATOR_CACHES.values():
            self.counters[f"{prefix}.lookups"] = 0
        self._solve_depth = 0
        self._patches = []
        self._cache_start = {}

    # -- recording -----------------------------------------------------

    def _wrap(self, name, fn):
        name_id = self.log.names.index(name)
        log, stack, clock = self.log, self.stack, time.perf_counter
        before, after = self._hooks(name)

        def traced(*args, **kwargs):
            if before:
                before(args, kwargs)
            idx = log.add(name_id, stack[-1], clock(), 0.0)
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[idx] = clock()
                stack.pop()
                if after:
                    after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _hooks(self, name):
        """(before(args, kwargs), after(result)) counter hooks for a span
        name; either may be None.  ``after`` gets None if the call
        raised."""
        counters = self.counters
        if name in OPERATOR_CACHES:
            key = f"{OPERATOR_CACHES[name][0]}.lookups"

            def before(args, kwargs):
                counters[key] += len(args[-1].terms)
            return before, None
        if name == "forms.wedge":
            def after(result):
                if result is not None:
                    counters["forms.wedge.terms_out"] += len(result.terms)
            return None, after
        if name == "algebra.lower_central":
            def before(args, kwargs):
                cap = args[1] if len(args) > 1 else kwargs.get("cap", 64)
                cached = args[0]._filtration
                if cached is None or cached.cap < cap:
                    counters["algebra.lower_central.builds"] += 1
            return before, None
        if name == "algebra.tensor_bracket":
            def before(args, kwargs):
                algebra, elements = args[0], args[1]
                if 2 <= len(elements) <= algebra.max_arity:
                    counters["algebra.tensor_bracket.atom_tuples"] += prod(
                        len(e.atoms()) for e in elements)
                if self._solve_depth:
                    counters["mc_gamma.tensor_brackets_in_solves"] += 1
            return before, None
        if name in SOLVES:
            def before(args, kwargs):
                self._solve_depth += 1

            def after(result):
                self._solve_depth -= 1
            return before, after
        return None, None

    # -- installation --------------------------------------------------

    def install(self, criteria=None):
        """Wrap every traced function in every loaded ``linfty`` module
        that refers to it, the traced methods, and the given acceptance
        criteria mapping (name -> function) in place."""
        import linfty.dupont as dupont

        originals = {}
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"linfty.{mod}")
            for fn in fns:
                originals[id(getattr(module, fn))] = f"{mod}.{fn}"
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if not (modname == "linfty" or modname.startswith("linfty.")):
                continue
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                self._patch(module, attr, value, wrappers[name])
        for name, (mod, cls, meth) in TRACED_METHODS.items():
            klass = getattr(importlib.import_module(f"linfty.{mod}"), cls)
            original = vars(klass)[meth]
            self._patch(klass, meth, original, self._wrap(name, original))
        if criteria is not None:
            for key, fn in list(criteria.items()):
                criteria[key] = self._wrap(f"acceptance.{key}", fn)
                self._patches.append((criteria, key, fn, True))
        for name, (prefix, cache) in OPERATOR_CACHES.items():
            self._cache_start[prefix] = len(getattr(dupont, cache))

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, False))

    def uninstall(self):
        """Restore every patched function and freeze the cache growth."""
        import linfty.dupont as dupont

        for owner, attr, original, is_mapping in reversed(self._patches):
            if is_mapping:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        for name, (prefix, cache) in OPERATOR_CACHES.items():
            grown = len(getattr(dupont, cache)) - self._cache_start[prefix]
            self.counters[f"{prefix}.misses"] = grown

    # -- reporting -----------------------------------------------------

    def metrics(self):
        """Per-layer metrics: calls/total_s/self_s per span name, a
        self_s rollup per module, and the counters with their ratios."""
        out = {}
        rollup = {}
        for name, (calls, total, self_s) in self.log.summary().items():
            module = name.split(".", 1)[0]
            out[f"{name}.total_s"] = total
            if module != "acceptance":  # criteria report total_s only
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self_s
            rollup[module] = rollup.get(module, 0.0) + self_s
        for module, value in rollup.items():
            out[f"{module}.self_s"] = value
        c = self.counters
        out["forms.wedge.terms_out"] = c["forms.wedge.terms_out"]
        for prefix, _ in OPERATOR_CACHES.values():
            lookups = c[f"{prefix}.lookups"]
            hits = lookups - c.get(f"{prefix}.misses", 0)
            out[f"{prefix}.lookups"] = lookups
            out[f"{prefix}.hit_ratio"] = hits / lookups if lookups else 0.0
        out["algebra.lower_central.builds"] = c["algebra.lower_central.builds"]
        out["algebra.tensor_bracket.atom_tuples"] = c[
            "algebra.tensor_bracket.atom_tuples"]
        solves = sum(out[f"{s}.calls"] for s in SOLVES)
        out["mc_gamma.tensor_brackets_per_solve"] = (
            c["mc_gamma.tensor_brackets_in_solves"] / solves if solves else 0.0)
        return out
