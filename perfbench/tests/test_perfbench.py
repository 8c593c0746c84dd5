"""Tests of the benchmark itself, at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402

run.pin_blas_threads()

import schottky.correlators as correlators  # noqa: E402
import schottky.forms as forms  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Answer, TINY, classify  # noqa: E402

END_TO_END = {"req_per_s", "latency_p50_ms", "latency_p90_ms", "fail_rate",
              "setup_s", "peak_rss_mb",
              "req_per_s_raw", "latency_p50_ms_raw", "setup_s_raw", "host_slowness"}
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Tiny surfaces carry tails far above the benchmark's targets, so the
# tests loosen each target until correct answers pass.  Looser still,
# the weight-2 kernel at M=4 claims 10% and misses by more.
LOOSE = {"g3-correlators": 1e-2, "g3-sweep": 1e-2, "g3-lattice": 0.1}


def tiny(name: str, target: float | None = None):
    workload = workloads.WORKLOADS[name](3, TINY)
    return dataclasses.replace(workload, target=target or LOOSE[name])


@pytest.fixture(autouse=True)
def spans_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_at_tiny_size(name):
    report, result = run.measure(tiny(name), seed=3, seconds=0.05, trace=False)
    assert result["attempted"] >= 1
    assert set(report["metrics"]) == END_TO_END
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["checked"] >= 1
    assert all(v is None for v in report["anchors"].values())
    assert result["correct"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_layer_metric(name, tmp_path):
    report, result = run.measure(tiny(name), seed=3, seconds=0.05, trace=True)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == set(tracing.LAYER_METRICS)
    spans = [json.loads(line) for line in (tmp_path / Path(report["spans"]).name).open()]
    assert {"anchor", 0} <= {s["request"] for s in spans}
    # The genus-1 anchors reach every layer on every workload.
    for layer in tracing.LAYERS:
        assert result["metrics"][f"{layer}.calls"]["value"] >= 1, layer


def test_timings_are_scaled_by_the_calibration(monkeypatch):
    """A host twice as slow as the reference halves every scaled time."""
    monkeypatch.setattr(run.Calibration, "__call__", lambda self: 2 * run.CAL_REFERENCE_S)
    report, _ = run.measure(tiny("g3-sweep"), seed=3, seconds=0.05, trace=False)
    m = {name: v["value"] for name, v in report["metrics"].items()}
    assert m["host_slowness"] == 2.0
    assert m["latency_p50_ms"] == pytest.approx(m["latency_p50_ms_raw"] / 2)
    assert m["setup_s"] == pytest.approx(m["setup_s_raw"] / 2)
    assert m["req_per_s"] == pytest.approx(2 * m["req_per_s_raw"], rel=0.05)


def test_tracer_restores_names_and_computes_self_time():
    originals = (correlators.heisenberg_npoint, forms.SurfaceForms.__init__,
                 forms.enumerate_group)
    tracer = tracing.Tracer()
    with tracer:
        assert correlators.heisenberg_npoint is not originals[0]
        surface = forms.SurfaceForms(workloads.torus())
        correlators.heisenberg_npoint(surface, (3.0 + 1.0j, -2.0 + 2.0j))
    assert (correlators.heisenberg_npoint, forms.SurfaceForms.__init__,
            forms.enumerate_group) == originals
    # Each child's time is taken from its parent once, so self times add
    # up to the root spans' durations.
    own = tracer.self_times()
    roots = sum(rec[5] - rec[4] for rec in tracer.spans if rec[1] is None)
    assert sum(own) == pytest.approx(roots)
    assert min(own) >= -1e-9
    assert tracer.counters["correlators.pairings"] == 1


def test_check_catches_injected_wrong_value(monkeypatch):
    """A third-kind form off by 1e-6 relative, with an honest-looking tail."""
    original = forms.SurfaceForms.third_kind_form

    def wrong(self, x, y):
        fv = original(self, x, y)
        return dataclasses.replace(fv, value=fv.value * (1 + 1e-6))

    monkeypatch.setattr(forms.SurfaceForms, "third_kind_form", wrong)
    _, result = run.measure(tiny("g3-correlators"), seed=3,
                            seconds=0.05, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_check_catches_wrong_value_against_finer_policy(monkeypatch):
    """Only the workload policy is wrong; the finer-policy check sees it."""
    original = correlators.heisenberg_npoint

    def wrong(surface, points, modes=None):
        cv = original(surface, points, modes)
        if surface.policy.max_word_length == TINY.word_length:
            return dataclasses.replace(cv, value=cv.value * (1 + 1e-3))
        return cv

    monkeypatch.setattr(correlators, "heisenberg_npoint", wrong)
    report, result = run.measure(tiny("g3-sweep"), seed=3,
                                 seconds=0.05, trace=False)
    assert not result["correct"]
    assert report["failures"] == {"misses finer-policy reference": report["checked"]}


def test_check_catches_tail_above_target():
    report, result = run.measure(tiny("g3-sweep", target=1e-300), seed=3,
                                 seconds=0.05, trace=False)
    assert result["correct"]
    assert result["failed"] == result["attempted"]
    assert set(report["failures"]) == {"tail above target"}


def test_classify_rules():
    exact = Answer(1.0 + 1.0j, 1e-12)
    assert classify(exact, 1e-9).ok
    assert classify(Answer(1.0, 1e-3), 1e-9).reason == "tail above target"
    wrong = classify(Answer(1.0, 1e-12), 1e-9, fine=Answer(1.0 + 1e-6, 1e-12))
    assert not wrong.ok and wrong.silent
    honest = classify(Answer(1.0, 1e-3), 1e-9, fine=Answer(1.0 + 1e-2, 1e-12))
    assert not honest.ok and not honest.silent
    routes = classify(Answer(1.0, 0.0, route_value=1.0 + 1e-15, route_tail=0.0), 1e-9)
    assert routes.ok, "the rounding floor covers last-digit differences"
    assert not classify(Answer(1.0, 0.0, route_value=1.1, route_tail=0.0), 1e-9).ok


def test_inputs_are_seeded_and_admissible():
    a = workloads.g3_sweep(5, TINY)
    b = workloads.g3_sweep(5, TINY)
    c = workloads.g3_sweep(6, TINY)
    assert [r.inputs for rs in a.rounds for r in rs] == [r.inputs for rs in b.rounds for r in rs]
    assert [r.inputs for rs in a.rounds for r in rs] != [r.inputs for rs in c.rounds for r in rs]
    for requests in a.rounds:
        for request in requests:
            sp, points = request.inputs
            assert workloads.validate(sp).ok
            assert workloads.in_fundamental_domain(sp, 0.0)
            for z in points:
                assert min(abs(z - sp.center(k)) for k in sp.signed_indices) \
                    >= workloads.POINT_CLEARANCE


def test_rotation_keeps_the_period_matrix():
    sp = workloads.perturbed_surface(random.Random(1))
    policy = workloads.TruncationPolicy(3, 8, 1e-9)
    omega = forms.SurfaceForms(sp, policy).period_matrix()
    turned = forms.SurfaceForms(workloads.rotated(sp, 1.0), policy).period_matrix()
    assert abs(omega.omega - turned.omega).max() <= omega.tail + turned.tail
