"""Tiny-size self-test of the benchmark harness.

Run from the root of the repository:

    python -m pytest -q bench/test_harness.py

Each workload runs a handful of its jobs for one untraced and one traced
pass, in process, with the workload's generator and the number of set-up
samples patched; the test checks the output contract against
BENCHMARK.json, that count metrics repeat exactly, that a job that
raises fails alone, that the tracer wraps every binding site, and that
the oracles reject wrong answers.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["unit"] in ("count", "bytes") and m["name"].endswith(
              (".calls", ".evals", ".doublings", ".path_steps", "report_bytes"))]


@pytest.fixture
def bench(monkeypatch, capsys):
    """``bench(workload, trace, jobs=3, extra=())`` runs ``run.main`` on an
    evenly spaced subset of the workload's jobs plus ``extra`` and returns
    its standard output and its parsed result line."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    generators = dict(workloads.WORKLOADS)

    def go(workload, trace, jobs=3, extra=()):
        generate = generators[workload]

        def few(seed):
            every = generate(seed)
            step = len(every) / jobs
            return [every[int(i * step)] for i in range(jobs)] + list(extra)

        monkeypatch.setitem(workloads.WORKLOADS, workload, few)
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        return out, json.loads(out.strip().splitlines()[-1])

    return go


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(bench, workload):
    _, res = bench(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_runs_print_per_layer_metrics_and_repeat_counts(bench):
    _, first = bench("model-sweep", 1, jobs=4)
    _, second = bench("model-sweep", 1, jobs=4)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    assert first["metrics"]["expr.calls"]["value"] > 0
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


def test_a_job_that_raises_fails_alone_in_a_traced_run(bench):
    broken = workloads.Job("broken-000", "broken", call={"fn": "missing"})
    out, res = bench("model-sweep", 1, extra=[broken])
    assert not res["correct"] and res["failed"] == 1 and res["attempted"] == 4
    assert "# FAILED broken-000: exception AttributeError" in out
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "model-sweep",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_wraps_every_binding_site_and_restores_them():
    import wparab.cli  # noqa: F401  (loads every module)
    from wparab import criteria, model, montecarlo, radial

    before = (radial.integrate, model.integrate, criteria.integrate,
              montecarlo.classify_parabolic, model.WeightedModel.capacity_potential)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert model.integrate is radial.integrate is criteria.integrate
        assert radial.integrate.__wrapped__ is before[0]
        assert montecarlo.classify_parabolic is criteria.classify_parabolic
        assert montecarlo.classify_parabolic.__wrapped__ is before[3]
        m = model.WeightedModel(3, radial.warping_euclidean(),
                                radial.RadialProfile.from_expression("-t^2/2"))
        with tracer.job("probe"):
            m.capacity_potential(1.0, 2.0)
    finally:
        tracer.uninstall()
    after = (radial.integrate, model.integrate, criteria.integrate,
             montecarlo.classify_parabolic, model.WeightedModel.capacity_potential)
    assert after == before
    assert tracer.counts["model.capacity_potential"] == 1
    assert tracer.counts["radial.integrate"] > 0
    assert tracer.counts["expr.evaluate"] > 0
    names = sorted(tracer.names, key=tracer.names.get)
    rows = list(zip(tracer.span_name, tracer.span_parent, tracer.span_start,
                    tracer.span_end))
    recomputed = tracing.self_times_from_spans(names, rows)
    for layer, value in tracer.self_time.items():
        assert recomputed[layer] == pytest.approx(value, rel=1e-9, abs=1e-12)


def test_oracles_reject_wrong_answers():
    job = next(j for j in workloads.mc_hitting(3)
               if j.kind == "hit" and j.expect["d"] == 3)
    p = job.scenario["params"]
    nominal, lo, hi = oracles.hit_interval(job.expect["d"], oracles._radius(p["start"]),
                                           p["rho"], p["R"], oracles._default_dtau(p))
    entry = {"hit_estimate": {"p_hat": nominal, "n_inner": 0, "n_outer": p["paths"],
                              "n_unresolved": 0, "ci_low": 0.0, "ci_high": 1.0}}
    assert oracles.check_mc(job, entry, None) == []
    entry["hit_estimate"]["p_hat"] = 1.0 - nominal     # a sign error
    assert oracles.check_mc(job, entry, None)
    index_job = next(j for j in workloads.geometry_checks(3) if j.kind == "index-form")
    want = oracles.index_form_closed_form(index_job.call["a"], index_job.call["delta"])
    assert oracles.check_index_form(index_job, want, None) == []
    assert oracles.check_index_form(index_job, -want, None)
