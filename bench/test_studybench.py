"""Tests of the benchmark itself: short studies of each workload, and one
case per check that feeds it a perturbed output and expects it to fail.

    python3 -m pytest bench/test_studybench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
hb = run.load_hbplate()

# Budgets small enough for a unit test; targets that these budgets reach.
# The smooth workload runs whole: with fewer levels the h-slope check would
# see the pre-asymptotic rate.
SHORT = {
    "point_load_p3_adaptive": dict(max_dofs=250, accuracy_target=2e-3),
    "smooth_p5_uniform": dict(),
    "singular_p4_graded": dict(max_dofs=300, accuracy_target=2e-4),
}


def short(name, **extra):
    return replace(W.WORKLOADS[name], **dict(SHORT[name], **extra))


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(SHORT))
def test_short_traced_run(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = short(name)
    tally = run.Tally()
    metrics, detail = run.traced(hb, wl, 7, W.check_points(7), tally)
    assert tally.failed == 0, tally.lines
    assert any("traced_records_identical" in line for line in tally.lines)
    want = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert {m: u for m, (_, u) in metrics.items()} == want
    assert metrics["adaptivity.loop_self_s"][0] >= 0.0
    assert metrics["estimators.level_sweeps"][0] >= metrics["adaptivity.iterations"][0]
    if wl.mode == "uniform":
        assert metrics["adaptivity.marked"][0] == 0
        assert metrics["adaptivity.closure_added"][0] == 0
    rows = (tmp_path / ("trace-%s-seed7.jsonl" % name)).read_text().splitlines()
    assert len(rows) == metrics["adaptivity.iterations"][0]
    assert sum(json.loads(r)["dofs"] for r in rows) == metrics["assembly.dofs"][0]


def test_untraced_metrics_match_benchmark_json(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    tally = run.Tally()
    metrics, detail = run.untraced(hb, short("point_load_p3_adaptive"), 0.0,
                                   W.check_points(1), tally, [0.5, 0.7, 0.6])
    want = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert {m: u for m, (_, u) in metrics.items()} == want
    assert metrics["setup_s"][0] == 0.6
    assert 0.0 < metrics["time_to_accuracy_s"][0] <= metrics["study_s"][0]
    assert tally.failed == 0 and len(detail["study_s"]) == 1


def test_solver_error_counts_as_failed_operation(monkeypatch):
    solve = hb.adaptivity.solve
    calls = []

    def failing(system):
        calls.append(1)
        if len(calls) == 2:
            raise hb.SolverError("injected")
        return solve(system)

    monkeypatch.setattr(hb.adaptivity, "solve", failing)
    wl = short("point_load_p3_adaptive")
    tally = run.Tally()
    study = run.Study(hb, wl, wl.make_spec(hb), tally)
    assert study.records is None
    assert tally.iterations == [2, 1] and tally.checks == [0, 0]


def test_unreached_accuracy_target_fails():
    wl = short("point_load_p3_adaptive", accuracy_target=0.0)
    tally = run.Tally()
    study = run.Study(hb, wl, wl.make_spec(hb), tally)
    study.check(hb, wl, None, tally)
    assert tally.checks == [2, 2], tally.lines


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "smooth_p5_uniform",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "{" not in out.stdout


# ---------------------------------------------------------------------------
# reference values against independent computations


def test_levy_series_matches_double_series():
    ref = hb.benchmarks.center_deflection_reference()
    assert abs(W.levy_centre_deflection() / ref - 1.0) < 1e-8


@pytest.mark.parametrize("name", ["smooth", "singular"])
def test_closed_form_h2_norms_match_quadrature(name):
    x, w = np.polynomial.legendre.leggauss(200)
    x, w = (x + 1.0) / 2.0, w / 2.0
    xx, yy = np.meshgrid(x, x, indexing="ij")
    hxx, hxy, hyy = getattr(hb.benchmarks, "benchmark_" + name)().exact_hessian(xx, yy)
    norm = math.sqrt(np.einsum("i,j,ij->", w, w, hxx**2 + 2.0 * hxy**2 + hyy**2))
    assert norm == pytest.approx(W.h2_norm(name), rel=1e-8)


# ---------------------------------------------------------------------------
# every check fails on a perturbed output


def test_centre_deflection_check():
    w = W.levy_centre_deflection()
    assert W.check_centre_deflection(w * (1.0 + 5e-7), 1e-6)[1]
    assert not W.check_centre_deflection(w * (1.0 + 2e-6), 1e-6)[1]


def test_dofs_per_level_check():
    dofs = [(6 * 2**k + 5) ** 2 for k in range(5)]
    assert W.check_dofs_per_level(dofs, 6, 5, 5)[1]
    assert not W.check_dofs_per_level(dofs[:-1] + [dofs[-1] + 1], 6, 5, 5)[1]
    assert not W.check_dofs_per_level(dofs[:-1], 6, 5, 5)[1]


def test_error_monotone_check():
    errors = [1e-2, 1e-3, 1e-4]
    assert W.check_error_monotone(errors)[1]
    assert not W.check_error_monotone([1e-2, 1e-4, 1e-3])[1]


def test_h_slope_check():
    h = [1 / 12, 1 / 24, 1 / 48, 1 / 96]
    assert W.check_h_slope(h, [x**4 for x in h], 5)[1]
    assert not W.check_h_slope(h, [x**3.8 for x in h], 5)[1]


def test_relative_h2_check():
    norm = W.h2_norm("singular")
    assert W.check_relative_h2(0.9e-5 * norm, "singular", 1e-5)[1]
    assert not W.check_relative_h2(1.1e-5 * norm, "singular", 1e-5)[1]
    assert not W.check_relative_h2(math.nan, "singular", 1e-5)[1]


def test_pointwise_check():
    pts = W.check_points(3)
    exact = W.exact_solution("smooth", pts[:, 0], pts[:, 1])
    assert W.check_pointwise(exact, pts, "smooth", 1e-6)[1]
    exact[5] += 1e-5
    assert not W.check_pointwise(exact, pts, "smooth", 1e-6)[1]


def test_theta_check():
    assert W.check_theta([1.8, 2.2])[1]
    assert not W.check_theta([1.8, 0.9])[1]
    assert not W.check_theta([1.8, math.nan])[1]


def test_records_identical_check():
    rec = hb.IterationRecord(0, 49, 16, 0.25, 1e-3, 2e-3, 2.0, math.nan)
    same = W.record_bytes([rec])
    assert W.check_records_identical(same, W.record_bytes([replace(rec)]))[1]
    bumped = replace(rec, eta_total=np.nextafter(rec.eta_total, 1.0))
    assert not W.check_records_identical(same, W.record_bytes([bumped]))[1]


def test_check_points_depend_on_seed_only():
    assert np.array_equal(W.check_points(4), W.check_points(4))
    assert not np.array_equal(W.check_points(4), W.check_points(5))


def test_tracer_restores_wrapped_names():
    before = {(m, n): getattr(getattr(hb, m), n) for m, n, _ in tracer.TIMED + tracer.COUNTED}
    with pytest.raises(RuntimeError):
        with tracer.installed(hb):
            raise RuntimeError
    after = {(m, n): getattr(getattr(hb, m), n) for m, n, _ in tracer.TIMED + tracer.COUNTED}
    assert before == after
