"""In-memory spans around the public modkit functions the CLI calls.

The package is left untouched: ``installed`` rebinds the module attributes
through which ``modkit.cli`` and ``modkit.rounding`` reach each layer, and
restores them on exit. It also times every ``numpy.linalg.eigh`` call (the
solver's per-iteration kernel) into an ``eigh_s`` count of the innermost
open span, without a span per call. Spans are kept in a list and turned
into metrics after the run.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import modkit.cli
import modkit.rounding


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _solve_counts(args, kwargs, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _round_counts(args, kwargs, result):
    return {"trials": kwargs["trials"]}


def _exact_counts(args, kwargs, result):
    return {"enumerated": result.enumerated}


# (module, attribute, span name, counts taken from the call and its result)
_TARGETS = (
    (modkit.cli, "parse_edge_list", "graph.parse", None),
    (modkit.cli, "build_q", "modularity.build_q", None),
    (modkit.cli, "solve_full_sdp", "sdp.solve_full", _solve_counts),
    (modkit.cli, "solve_cut_sdp", "sdp.solve_cut", _solve_counts),
    (modkit.rounding, "gram_vectors", "sdp.embed", None),
    (modkit.cli, "round_full", "rounding.round", _round_counts),
    (modkit.cli, "round_cut", "rounding.round", _round_counts),
    (modkit.cli, "exact_full", "exact.exact", _exact_counts),
    (modkit.cli, "exact_cut", "exact.exact", _exact_counts),
    (modkit.cli, "dumps_report", "cli.report", None),
)


class Tracer:
    """Records nested spans of one thread, in start order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, parent, time.perf_counter())
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if counts is not None:
                    rec.counts.update(counts(args, kwargs, result))
            return result

        return traced

    def timed_eigh(self, eigh):
        @functools.wraps(eigh)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            result = eigh(*args, **kwargs)
            if self._stack:
                counts = self.spans[self._stack[-1]].counts
                counts["eigh_s"] = counts.get("eigh_s", 0.0) + time.perf_counter() - t0
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children of one thread never overlap)."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


@contextmanager
def installed(tracer: Tracer):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in _TARGETS]
    saved.append((np.linalg, "eigh", np.linalg.eigh))
    try:
        for (mod, attr, name, counts), (_, _, fn) in zip(_TARGETS, saved):
            setattr(mod, attr, tracer.wrap(name, fn, counts))
        np.linalg.eigh = tracer.timed_eigh(saved[-1][2])
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
