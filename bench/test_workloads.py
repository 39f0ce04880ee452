"""Tests of the benchmark's generators, reference data, checks and tracing.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import cci
import run
import tracing
import workloads
from cci import BezierCurve, SolverConfig, brute_force_intersections, eval_curve
from cci.geometry import derivative_curve


@pytest.mark.parametrize("generate", [workloads.spatial_crossings, workloads.tangential_contacts])
def test_same_seed_same_curves(generate):
    first, again, other = generate(7), generate(7), generate(8)
    for a, b in zip(first, again):
        assert np.array_equal(a.curve1, b.curve1) and np.array_equal(a.curve2, b.curve2)
        assert a.expected == b.expected
    assert any(not np.array_equal(a.curve1, c.curve1) for a, c in zip(first, other))


@pytest.mark.parametrize("seed", [1, 2])
def test_oracle_finds_exactly_the_forced_crossings(seed):
    for case in workloads.spatial_crossings(seed):
        found = brute_force_intersections(BezierCurve(case.curve1), BezierCurve(case.curve2))
        assert workloads.check(case, found, truncated=False) is None, case.name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_designed_contacts_touch_with_parallel_tangents(seed):
    for case in workloads.tangential_contacts(seed):
        c1, c2 = BezierCurve(case.curve1), BezierCurve(case.curve2)
        (u, v), = case.expected
        gap = np.abs(eval_curve(c1, u) - eval_curve(c2, v)).max()
        assert gap <= 1e-15, case.name
        if case.name.endswith("planar"):
            assert gap == 0.0 and not case.curve1[:, 2].any(), case.name
        t1 = eval_curve(derivative_curve(c1), u)
        t2 = eval_curve(derivative_curve(c2), v)
        assert np.linalg.norm(np.cross(t1, t2)) <= 1e-12 * np.linalg.norm(t1) * np.linalg.norm(t2)


def test_reference_roots_agree_with_oracle():
    oracle = {}
    for case in workloads.paper_suite(cci.load_problem):
        problem = case.name.split("/")[0]
        if problem not in oracle:
            oracle[problem] = brute_force_intersections(BezierCurve(case.curve1), BezierCurve(case.curve2))
        assert workloads.check(dataclasses.replace(case, tol=1e-6), oracle[problem], False) is None, case.name
    reference = json.loads(workloads.REFERENCE.read_text())
    squares = [row[label]["squares_examined"] for row in reference.values() for label in ("eps=0.05", "fixed")]
    assert squares[::2] == [21, 41, 33, 37, 41, 121, 161, 17]
    assert squares[1::2] == [21, 41, 37, 41, 45, 121, 161, 17]


def test_check_rules():
    exact = workloads.Case("x", np.zeros((2, 3)), np.zeros((2, 3)), {}, ((0.25, 0.5),), 1e-6)
    assert workloads.check(exact, [(0.25, 0.5 + 1e-7)], False) is None
    assert workloads.check(exact, [], False) is not None
    assert workloads.check(exact, [(0.25, 0.5)], True) == "run truncated"
    assert workloads.check(exact, [(0.25, 0.5), (0.7, 0.1)], False).startswith("spurious")
    contact = workloads.Case("c", exact.curve1, exact.curve2, {}, ((0.5, 0.5),), 1e-6, True)
    assert workloads.check(contact, [(0.5, 0.5), (0.5 + 1e-9, 0.5)], False) is None
    assert workloads.check(contact, [], True) is None
    assert workloads.check(contact, [], False) == workloads.MISSED_CONTACT


def test_tracer_self_times_cover_the_solve_and_originals_come_back():
    originals = {attr: getattr(cci.engine, attr) for _, attr, _ in tracing.TARGETS[:7]}
    omega = cci.kantorovich.PairSystem.omega
    case = workloads.spatial_crossings(3)[0]
    tracer = tracing.Tracer()
    with tracer.installed(cci):
        report = tracer.solve(cci.solve, BezierCurve(case.curve1), BezierCurve(case.curve2), SolverConfig())
    assert all(getattr(cci.engine, attr) is fn for attr, fn in originals.items())
    assert cci.kantorovich.PairSystem.omega is omega and cci.kantorovich.eval_net is cci.geometry.eval_net
    self_s, calls = tracing.self_times(tracer.spans)
    (root,) = [s for s in tracer.spans if s[3] == -1]
    assert sum(self_s.values()) == pytest.approx(root[2] - root[1], rel=1e-9)
    assert calls["geometry.reparametrize.square"] + calls["engine.prune"] >= report.squares_examined
    assert tracer.reports == [report]
    assert report.intersections and tracer.counts["newton.accepted"] == len(report.intersections)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    cases = workloads.tangential_contacts(1)[:2]
    inputs = [(BezierCurve(c.curve1), BezierCurve(c.curve2), SolverConfig()) for c in cases]
    metrics = run.Run(cci, inputs, cases).traced(0.0, 0.01, tmp_path / "spans.csv", {"seed": 1})
    assert list(metrics) == list(run.PER_LAYER)
    assert all(m["unit"] == run.PER_LAYER[name][0] for name, m in metrics.items())
    assert metrics["trace.self_time_share"]["value"] == pytest.approx(1.0, abs=0.05)
    assert metrics["engine.max_depth_reached"]["value"] == 40
    assert (tmp_path / "spans.csv").read_text().startswith("# seed: 1\n")


def test_untraced_run_reports_every_end_to_end_metric():
    cases = workloads.spatial_crossings(1)[:2]
    inputs = [(BezierCurve(c.curve1), BezierCurve(c.curve2), SolverConfig()) for c in cases]
    bench = run.Run(cci, inputs, cases)
    metrics = bench.untraced(0.0, 0.5)
    assert list(metrics) == list(run.END_TO_END)
    assert bench.attempted == run.MIN_REPEATS * len(cases) and bench.failed == 0
    values = {name: m["value"] for name, m in metrics.items()}
    assert values["solves_per_s"] == pytest.approx(
        len(cases) * values["squares_per_s"] / values["squares_examined"]
    )
    assert values["solve_ms_p50"] <= values["solve_ms_p90"] and values["setup_s"] == 0.5


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((workloads.REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in run.END_TO_END.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in run.PER_LAYER.items()
    ]


def test_harrell_davis():
    assert run.harrell_davis(list(range(1, 102)), 0.5) == pytest.approx(51.0, abs=1e-6)
    assert run.harrell_davis(list(range(1, 1002)), 0.9) == pytest.approx(901.0, abs=0.5)
    assert run.harrell_davis([5.0], 0.5) == pytest.approx(5.0)
    # Two clusters with the median in the gap: the estimate stays inside it
    # and moves by a fraction of the gap when one value changes sides.
    clusters = [1.0] * 10 + [3.0] * 10
    moved = [1.0] * 9 + [3.0] * 11
    assert 1.0 < run.harrell_davis(clusters, 0.5) < run.harrell_davis(moved, 0.5) < 2.5
