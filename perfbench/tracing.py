"""Per-layer spans recorded from outside the library.

:class:`Tracer` replaces public names of the ``schottky`` modules with
wrappers that record one span per call: name, start, end, parent span
and request id.  The names one module imports from another are replaced
too (``schottky.forms.enumerate_group``, ``schottky.correlators.heisenberg_partition``),
since the importing module calls through its own binding.  Spans stay in
memory; :meth:`Tracer.dump` writes them out and :meth:`Tracer.metrics`
derives per-layer calls, self time and counters from them.  A layer's
self time is its spans' durations minus the time covered by their child
spans.  Leaving the ``with`` block puts the original names back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator

import schottky
import schottky.correlators as correlators
import schottky.forms as forms
import schottky.group as group
import schottky.modes as modes

ORBIT_METHODS = ("bidifferential", "projective_connection", "third_kind_form", "recursion_kernel")
CORRELATOR_FUNCTIONS = (
    "heisenberg_npoint", "virasoro_one_point", "virasoro_two_point", "lattice_partition",
)

# Per-layer metrics: name -> (unit, better).  Every traced run emits all of them.
LAYER_METRICS = {
    "group.enumerate_group.calls": ("count", "lower"),
    "group.enumerate_group.self_ms": ("ms", "lower"),
    "group.words": ("count", "lower"),
    "forms.SurfaceForms.calls": ("count", "lower"),
    "forms.SurfaceForms.self_ms": ("ms", "lower"),
    "forms.orbit.calls": ("count", "lower"),
    "forms.orbit.self_ms": ("ms", "lower"),
    "forms.orbit.word_evals": ("count", "lower"),
    "forms.orbit.tail_rel_max": ("1", "lower"),
    "forms.period_matrix.calls": ("count", "lower"),
    "forms.period_matrix.self_ms": ("ms", "lower"),
    "forms.period_matrix.tail_max": ("1", "lower"),
    "modes.heisenberg_partition.calls": ("count", "lower"),
    "modes.heisenberg_partition.self_ms": ("ms", "lower"),
    "modes.mode_coupling_matrix.calls": ("count", "lower"),
    "modes.mode_coupling_matrix.self_ms": ("ms", "lower"),
    "modes.kernel_via_modes.calls": ("count", "lower"),
    "modes.kernel_via_modes.self_ms": ("ms", "lower"),
    "modes.kernel_via_modes.tail_rel_max": ("1", "lower"),
    "modes.system_dim_max": ("count", "lower"),
    "modes.spectral_radius_max": ("1", "lower"),
    "correlators.calls": ("count", "lower"),
    "correlators.self_ms": ("ms", "lower"),
    "correlators.pairings": ("count", "lower"),
    "correlators.tail_rel_max": ("1", "lower"),
    "correlators.siegel_theta.calls": ("count", "lower"),
    "correlators.siegel_theta.self_ms": ("ms", "lower"),
    "correlators.siegel_theta.tail_max": ("1", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# Span names whose calls and self time become metrics.
LAYERS = (
    "group.enumerate_group", "forms.SurfaceForms", "forms.orbit", "forms.period_matrix",
    "modes.heisenberg_partition", "modes.mode_coupling_matrix", "modes.kernel_via_modes",
    "correlators", "correlators.siegel_theta",
)


def _rel_tail(result) -> float:
    return float(result.tail) / max(abs(result.value), 1e-300)


class Tracer:
    """Records spans and counters while installed (use as a context manager)."""

    def __init__(self) -> None:
        # Each span: [id, parent id, request id, name, start, end].
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.request: str | int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span, a child of the innermost open one."""
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, self.request, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _keep_max(self, key: str, value: float) -> None:
        """Track a maximum over workload requests; set-up and anchors
        (genus 1, other tails and sizes) would mask the workload's own."""
        if isinstance(self.request, int):
            self.maxima[key] = max(self.maxima[key], value)

    # -- installation ----------------------------------------------------

    def _patch(self, owners: tuple, attr: str, replacement: object) -> None:
        for owner in owners:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        def words(args, result):
            self.counters["group.words"] += len(result)

        def orbit(args, result):
            self.counters["forms.orbit.word_evals"] += len(args[0].words)
            self._keep_max("forms.orbit.tail_rel_max", _rel_tail(result))

        def period(args, result):
            self._keep_max("forms.period_matrix.tail_max", float(result.tail))

        def partition(args, result):
            self._keep_max("modes.spectral_radius_max", float(result.spectral_radius))

        def coupling(args, result):
            self._keep_max("modes.system_dim_max", float(result.shape[0]))

        def kernel(args, result):
            self._keep_max("modes.kernel_via_modes.tail_rel_max", _rel_tail(result))

        def correlator(args, result):
            self._keep_max("correlators.tail_rel_max", _rel_tail(result))

        def theta(args, result):
            self._keep_max("correlators.siegel_theta.tail_max", float(result.tail))

        enumerate_group = self._wrap("group.enumerate_group", group.enumerate_group, words)
        self._patch((group, forms, schottky), "enumerate_group", enumerate_group)
        self._patch((forms.SurfaceForms,), "__init__",
                    self._wrap("forms.SurfaceForms", forms.SurfaceForms.__init__))
        for method in ORBIT_METHODS:
            original = getattr(forms.SurfaceForms, method)
            self._patch((forms.SurfaceForms,), method, self._wrap("forms.orbit", original, orbit))
        self._patch((forms.SurfaceForms,), "period_matrix",
                    self._wrap("forms.period_matrix", forms.SurfaceForms.period_matrix, period))
        self._patch((modes, correlators), "heisenberg_partition",
                    self._wrap("modes.heisenberg_partition", modes.heisenberg_partition, partition))
        self._patch((modes,), "mode_coupling_matrix",
                    self._wrap("modes.mode_coupling_matrix", modes.mode_coupling_matrix, coupling))
        self._patch((modes,), "kernel_via_modes",
                    self._wrap("modes.kernel_via_modes", modes.kernel_via_modes, kernel))
        for fn in CORRELATOR_FUNCTIONS:
            self._patch((correlators,), fn,
                        self._wrap("correlators", getattr(correlators, fn), correlator))
        self._patch((correlators,), "siegel_theta",
                    self._wrap("correlators.siegel_theta", correlators.siegel_theta, theta))
        self._patch((correlators,), "pairings", self._counted_pairings(correlators.pairings))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _counted_pairings(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def pairings(n: int) -> Iterator:
            for pairing in original(n):
                self.counters["correlators.pairings"] += 1
                yield pairing

        return pairings

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds, indexed like ``spans``."""
        own = [rec[5] - rec[4] for rec in self.spans]
        for rec in self.spans:
            if rec[1] is not None:
                own[rec[1]] -= rec[5] - rec[4]
        return own

    def metrics(self, overhead_pct: float) -> dict[str, dict]:
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        for rec, own in zip(self.spans, self.self_times()):
            calls[rec[3]] += 1
            self_ms[rec[3]] += own * 1e3
        values = dict(self.counters)
        values.update(self.maxima)
        for layer in LAYERS:
            values[f"{layer}.calls"] = calls[layer]
            values[f"{layer}.self_ms"] = self_ms[layer]
        values["trace.overhead_pct"] = overhead_pct
        return {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, (unit, _) in LAYER_METRICS.items()
        }

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        with path.open("w") as fh:
            for rec, self_s in zip(self.spans, own):
                sid, parent, request, name, start, end = rec
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "request": request, "name": name,
                    "start": start, "end": end, "self_s": self_s,
                }) + "\n")

