"""Per-layer tracing of singulact from outside the program.

`Tracer.install()` replaces every public function of the layer modules by a
wrapper, in every module namespace that binds it: `newton` binds `nullspace`,
`rank`, `solve_square`, `det` and `dot` by `from .linalg import ...`, and
`cli` binds the `parsing` printers the same way, so a wrapper placed only on
the defining module would miss those calls.  Calls made through a module
attribute (`newton.multiplicity`, `simplex.solve`) see the patched attribute.

Each wrapped call is a span (name, start, end, parent).  A span's self time
is its duration minus the durations of its direct child spans, so the self
times of all spans add up to the time of the root spans (`cli.run`).  `dot`
is only counted: a span would cost more than the call.  Spans are folded
into per-function totals as they close; the raw spans of the first few
requests are kept for the trace file.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "parsing", "poly", "ideals", "invariants", "newton", "simplex", "linalg")
COUNT_ONLY = {("linalg", "dot")}
SERIALIZERS = {"report_to_dict", "outcome_to_dict", "emit_json"}

# name, unit, better: the per-layer metrics of a traced run, per request.
METRICS = (
    ("cli.self_ms", "ms", "lower"),
    ("cli.serialize_ms", "ms", "lower"),
    ("parsing.self_ms", "ms", "lower"),
    ("parsing.calls", "count", "lower"),
    ("poly.self_ms", "ms", "lower"),
    ("poly.weights_calls", "count", "lower"),
    ("ideals.self_ms", "ms", "lower"),
    ("ideals.product_gens", "count", "lower"),
    ("invariants.self_ms", "ms", "lower"),
    ("newton.facets_ms", "ms", "lower"),
    ("newton.facet_candidates", "count", "lower"),
    ("newton.facet_yield", "ratio", "higher"),
    ("newton.covolume_self_ms", "ms", "lower"),
    ("newton.covolume_calls", "count", "lower"),
    ("newton.threshold_calls", "count", "lower"),
    ("simplex.solve_ms", "ms", "lower"),
    ("simplex.solve_calls", "count", "lower"),
    ("simplex.lp_cells", "count", "lower"),
    ("linalg.self_ms", "ms", "lower"),
    ("linalg.nullspace_calls", "count", "lower"),
    ("linalg.rank_calls", "count", "lower"),
    ("linalg.solve_square_calls", "count", "lower"),
    ("linalg.solve_square_hit", "ratio", "higher"),
    ("linalg.det_calls", "count", "lower"),
    ("linalg.dot_calls", "count", "lower"),
)


KEEP_REQUESTS = 20  # raw spans are kept for this many requests


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [span id, child seconds]
        self.in_facets = 0  # open newton.facets calls
        self.self_s = defaultdict(float)  # (layer, function) -> seconds
        self.calls = Counter()  # (layer, function) -> calls
        self.counts = Counter()  # derived counters
        self.request = 0
        self.spans = []  # (request, id, parent, "layer.function", start, end)
        self.next_id = 0

    def install(self):
        """Wrap every public function of the layer modules, everywhere it is
        bound inside the package."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"singulact.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self._wrap(layer, name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname == "singulact" or modname.startswith("singulact."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, name, wrappers[obj])

    def _wrap(self, layer, name, fn):
        key = (layer, name)
        if key in COUNT_ONLY:
            calls = self.calls

            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        stack, self_s, calls = self.stack, self.self_s, self.calls
        label = f"{layer}.{name}"
        before, after = _HOOKS.get(key, (None, None))
        tracer = self

        def span(*args, **kwargs):
            token = before(tracer, args) if before is not None else None
            tracer.next_id += 1
            frame = [tracer.next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            result, ok = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[key] += duration - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += duration
                if tracer.request < KEEP_REQUESTS:
                    tracer.spans.append(
                        (tracer.request, frame[0], parent, label, start, end))
                if after is not None:
                    after(tracer, token, result, ok)
            return result
        return span

    def metrics(self, requests):
        """Per-layer metrics per request, and the self time of each layer."""
        per = 1.0 / requests
        ms = 1000.0 * per
        s, c, k = self.self_s, self.calls, self.counts

        def layer_self(layer, skip=()):
            return sum(v for (lay, name), v in s.items() if lay == layer and name not in skip)

        def layer_calls(layer):
            return sum(v for (lay, _), v in c.items() if lay == layer)

        candidates = k["facet_candidates"]
        squares = c[("linalg", "solve_square")]
        values = {
            "cli.self_ms": layer_self("cli", SERIALIZERS) * ms,
            "cli.serialize_ms": sum(s[("cli", f)] for f in SERIALIZERS) * ms,
            "parsing.self_ms": layer_self("parsing") * ms,
            "parsing.calls": layer_calls("parsing") * per,
            "poly.self_ms": layer_self("poly") * ms,
            "poly.weights_calls": c[("poly", "quasi_homogeneous_weights")] * per,
            "ideals.self_ms": layer_self("ideals") * ms,
            "ideals.product_gens": k["product_gens"] * per,
            "invariants.self_ms": layer_self("invariants") * ms,
            "newton.facets_ms": s[("newton", "facets")] * ms,
            "newton.facet_candidates": candidates * per,
            "newton.facet_yield": k["facets_returned"] / candidates if candidates else 0.0,
            "newton.covolume_self_ms": s[("newton", "covolume")] * ms,
            "newton.covolume_calls": c[("newton", "covolume")] * per,
            "newton.threshold_calls": c[("newton", "diagonal_threshold")] * per,
            "simplex.solve_ms": s[("simplex", "solve")] * ms,
            "simplex.solve_calls": c[("simplex", "solve")] * per,
            "simplex.lp_cells": k["lp_cells"] * per,
            "linalg.self_ms": layer_self("linalg") * ms,
            "linalg.nullspace_calls": c[("linalg", "nullspace")] * per,
            "linalg.rank_calls": c[("linalg", "rank")] * per,
            "linalg.solve_square_calls": squares * per,
            "linalg.solve_square_hit": k["solve_square_hit"] / squares if squares else 0.0,
            "linalg.det_calls": c[("linalg", "det")] * per,
            "linalg.dot_calls": c[("linalg", "dot")] * per,
        }
        layers = {layer: layer_self(layer) * ms for layer in LAYERS}
        return values, layers


# Hooks that derive counters from a call's arguments or result: before(tracer,
# args) returns a token that after(tracer, token, result, ok) receives.


def _solve_before(tracer, args):
    lp = args[0]
    tracer.counts["lp_cells"] += len(lp.rows) * len(lp.objective)


def _facets_before(tracer, args):
    tracer.in_facets += 1
    return tracer.counts["facet_candidates"]


def _facets_after(tracer, candidates_before, result, ok):
    tracer.in_facets -= 1
    # A call served from the polyhedron's cache tries no candidate.
    if ok and tracer.counts["facet_candidates"] > candidates_before:
        tracer.counts["facets_returned"] += len(result)


def _nullspace_before(tracer, args):
    if tracer.in_facets:
        tracer.counts["facet_candidates"] += 1


def _product_after(tracer, token, result, ok):
    if ok:
        tracer.counts["product_gens"] += len(result.gens)


def _solve_square_after(tracer, token, result, ok):
    if ok and result is not None:
        tracer.counts["solve_square_hit"] += 1


_HOOKS = {
    ("simplex", "solve"): (_solve_before, None),
    ("newton", "facets"): (_facets_before, _facets_after),
    ("linalg", "nullspace"): (_nullspace_before, None),
    ("ideals", "ideal_product"): (None, _product_after),
    ("linalg", "solve_square"): (None, _solve_square_after),
}
