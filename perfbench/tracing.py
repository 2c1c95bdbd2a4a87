"""Span tracing for the traced run, from outside the library.

``Tracer.installed()`` replaces the module attributes listed in ``SPANS`` with
wrappers that record a span per call (name, start, end, parent span, op id,
whether it raised) plus the span's size counters, and restores the originals
on exit.  The library resolves these names through module globals at call
time, so its internal calls go through the wrappers too.  A call nested in a
span of the same name is folded into the outer span.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter


def _n_masks(lists) -> int:
    return sum(len(x) for x in lists)


def _faces(result) -> int:
    c = result[0] if isinstance(result, tuple) else result  # separated_deleted_join
    return c.total_faces()


# span name -> [(module, attribute, counters(args, result) -> {counter: value} or None)]
SPANS = {
    "graphs.sample": [("flagtwin.graphs", a, None)
                      for a in ("sample_gnp", "sample_two_param", "sample_h", "sample_h_q")],
    "kernels.enumerate": [("flagtwin.kernels", a, lambda args, r: {"masks": _n_masks(r)})
                          for a in ("clique_masks", "odd_face_masks", "sdj_pair_masks")],
    "kernels.sweep": [("flagtwin.kernels", "exhaustive_equivalence",
                       lambda args, r: {"graphs": 1 << (args[0] * (args[0] - 1) // 2)})],
    "complexes.build": [("flagtwin.complexes", a, lambda args, r: {"faces": _faces(r)})
                        for a in ("two_clique_complex", "flag_complex", "separated_deleted_join")],
    "homology.boundary": [("flagtwin.homology", "boundary_matrix",
                           lambda args, r: {"nnz": r.nnz})],
    "homology.rank": [("flagtwin.homology", "exact_rank",
                       lambda args, r: {"columns": len(args[0])})],
    "homology.snf": [("flagtwin.homology", "smith_invariant_factors",
                      lambda args, r: {"columns": len(args[0])})],
    "collapse.greedy": [("flagtwin.collapse", "collapse_greedy",
                         lambda args, r: {"steps": len(r[1].steps),
                                          "faces_in": args[0].total_faces()})],
    "spectral.garland": [("flagtwin.spectral", "garland_check",
                          lambda args, r: {"links": len(r.link_reports)})],
    "spectral.eig": [("flagtwin.spectral", "spectral_report",
                      lambda args, r: {"order": len(r.eigenvalues)})],
    "radon.pairs": [("flagtwin.radon", "radon_witness", None)],
    "radon.hull": [("flagtwin.radon", "hulls_intersect",
                    lambda args, r: {"hits": int(r is not None)})],
    "experiments.trial": [("flagtwin.experiments", "run_trial", None)],
    "experiments.record": [("flagtwin.experiments.TrialRecord", "measured_signature", None)],
}


def _resolve(path: str):
    """A module, or a class inside one (``pkg.mod.Class``)."""
    try:
        return importlib.import_module(path)
    except ImportError:
        mod, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(mod), cls)


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "error", "counts")

    def __init__(self, name: str, op: int, parent: int):
        self.name, self.op, self.parent = name, op, parent
        self.start = self.end = 0.0
        self.error = False
        self.counts: dict = {}

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "op": self.op, "parent": self.parent,
                           "start": self.start, "end": self.end, "error": self.error,
                           **self.counts})


class Tracer:
    """Spans of one traced run, kept in memory; ``op`` is the current op id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._open: set[str] = set()

    def _wrap(self, name: str, fn, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            span = Span(name, self.op, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._open.add(name)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
                self._open.discard(name)
            if counters is not None:
                span.counts = counters(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, targets in SPANS.items():
                for path, attr, counters in targets:
                    owner = _resolve(path)
                    fn = owner.__dict__[attr]
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(name, fn, counters))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(span.to_json() + "\n")

    def summary(self) -> dict:
        """Per span name: calls, errors, busy (summed duration), self (busy
        minus child spans) and summed counters; plus ``layer_s``, the time
        inside layer spans: the children of ``experiments.trial`` and the
        other top-level spans, so that run_trial's own time is not
        counted."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: dict = {}
        layer = 0.0
        for i, span in enumerate(self.spans):
            dur = span.end - span.start
            s = out.setdefault(span.name, {"calls": 0, "errors": 0, "busy": 0.0, "self": 0.0})
            s["calls"] += 1
            s["errors"] += span.error
            s["busy"] += dur
            s["self"] += dur - child[i]
            for key, value in span.counts.items():
                s[key] = s.get(key, 0) + value
            parent = self.spans[span.parent].name if span.parent >= 0 else None
            top_layer = parent is None and span.name != "experiments.trial"
            if top_layer or parent == "experiments.trial":
                layer += dur
        return {"spans": out, "layer_s": layer}


# per-layer metric -> (span, summary key, unit); values are per op except ratios
_BUSY = ("radon.hull", "homology.snf", "homology.rank", "homology.boundary", "kernels.enumerate",
         "kernels.sweep", "collapse.greedy", "spectral.eig", "graphs.sample", "experiments.record")
_SELF = ("radon.pairs", "complexes.build", "spectral.garland", "experiments.trial")
_COUNTS = (("radon.hull", "calls"), ("homology.snf", "columns"), ("homology.rank", "columns"),
           ("homology.boundary", "nnz"), ("complexes.build", "faces"),
           ("kernels.enumerate", "masks"), ("kernels.sweep", "graphs"),
           ("collapse.greedy", "steps"), ("collapse.greedy", "faces_in"),
           ("spectral.garland", "links"), ("spectral.eig", "order"), ("graphs.sample", "calls"))
PER_LAYER = {
    **{f"{s}.busy_s": (s, "busy", "s/op") for s in _BUSY},
    **{f"{s}.self_s": (s, "self", "s/op") for s in _SELF},
    **{f"{s}.{k}": (s, k, "count/op") for s, k in _COUNTS},
    "radon.hull.hit_ratio": ("radon.hull", "hit_ratio", "ratio"),
    **{f"{s}.errors": (s, "errors", "count/op") for s in SPANS},
}


def per_layer_metrics(summary: dict, ops: int) -> dict:
    """PER_LAYER values from a summary of `ops` traced ops."""
    spans = summary["spans"]
    out = {}
    for name, (span, key, unit) in PER_LAYER.items():
        s = spans.get(span, {})
        if key == "hit_ratio":
            value = s.get("hits", 0) / s["calls"] if s.get("calls") else 0.0
        else:
            value = s.get(key, 0) / ops
        out[name] = {"value": value, "unit": unit}
    return out
