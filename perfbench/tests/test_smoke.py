"""Smoke test of the benchmark itself at toy sizes.

Checks that each workload emits every metric BENCHMARK.json names, that the
traced run captures spans from pool workers, and that a corrupted fit or a
dual outside the lambda box is counted as a failed job.
"""
import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import tvdn.tvsolve  # noqa: E402
from perfbench import run, workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def toy_run(monkeypatch, workload, trace):
    monkeypatch.setenv("TVDN_THREADS", "2")
    monkeypatch.setattr(run, "import_probe", lambda: 0.5)
    summary, result = run.run(workload, 3, 0.0, trace, import_s=0.5,
                              scale=workloads.TOY)
    json.dumps(summary)
    json.dumps(result, default=float)
    return summary, result


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_named_metric_is_emitted(monkeypatch, workload, trace):
    summary, result = toy_run(monkeypatch, workload, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(summary["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        value = summary["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert np.isfinite(value["value"])
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == result["jobs"] >= 1
    assert result["fail_frac"] == 0.0
    if trace and workload == "mc_1d":
        # component counting runs only inside pool workers here
        assert summary["metrics"]["pool.tasks"]["value"] > 0
        assert summary["metrics"]["risk.ncc.calls"]["value"] > 0
    if not trace:
        assert summary["metrics"]["setup_s"]["value"] > 0.5


def _corrupt(monkeypatch, damage):
    # the final solve of image_sure; risk_curve's solves use their own binding
    original = tvdn.tvsolve.tv_denoise

    def tv_denoise(*args, **kwargs):
        sol = original(*args, **kwargs)
        damage(sol)
        return sol

    monkeypatch.setattr(tvdn.tvsolve, "tv_denoise", tv_denoise)


def _dual_outside_box(sol):
    sol.dual = sol.dual.copy()
    sol.dual[0] = 1.5 * sol.lam


def _fit_off_certificate(sol):
    sol.estimate.values = sol.estimate.values + 1e-3


@pytest.mark.parametrize("damage, message", [
    (_dual_outside_box, "dual outside the lambda box"),
    (_fit_off_certificate, "fit is not y - B^T w"),
])
def test_corrupted_output_counts_in_fail_frac(monkeypatch, damage, message):
    _corrupt(monkeypatch, damage)
    summary, result = toy_run(monkeypatch, "image_sure", 0)
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"] == result["jobs"]
    assert result["fail_frac"] == 1.0
    assert summary["metrics"]["ok_frac"]["value"] == 0.0
    for job in result["job_records"]:
        assert any(message in f for f in job["failures"])


def test_objective_above_reference_fails():
    ref = {"lam": 1.0, "objective": 10.0, "gap": 0.0, "tv": 3.0}
    assert workloads.objective_bound(10.0, 0.0, 1.0, ref) == []
    assert workloads.objective_bound(10.1, 0.0, 1.0, ref)
    # a smaller lambda lowers the attainable objective by the slope TV_ref
    assert workloads.objective_bound(9.8, 0.0, 0.9, ref)


def test_predictions_name_declared_metrics_and_workloads():
    with open(os.path.join(ROOT, "perfbench", "predictions.json")) as fh:
        pred = json.load(fh)
    layer = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(run.WORKLOAD_NAMES) == set(pred["workloads"])
    assert isinstance(pred["held_out_seed"], int)
    covered = set()
    for row in pred["predictions"]:
        covered |= set(row["layer_metrics"])
        assert set(row["layer_metrics"]) <= layer, row
        assert set(row["moves"]) <= e2e, row
        assert set(row["on"]) | set(row["not_on"]) <= names, row
    assert covered == layer
