import csv
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from wparab import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def small_model(weight="zero", m=2):
    return {"m": m, "warping": {"name": "euclidean"}, "weight": {"name": weight}}


def test_demo_config_runs_clean(tmp_path):
    config = cli.load_config(CONFIG_DIR / "demo.json")
    report = cli.run_config(config, tmp_path / "out")
    assert all(sc["status"] == "ok" for sc in report["scenarios"])
    assert (tmp_path / "out" / "report.json").exists()


def test_report_shape_and_csv_arity(tmp_path):
    config = {
        "scenarios": [
            {"id": "curves", "task": "curves", "model": small_model("gaussian", 3),
             "params": {"range": [0.2, 4.0], "samples": 40, "n": 2,
                        "rho": 1.0, "R": 4.0}},
        ]
    }
    report = cli.run_config(config, tmp_path)
    sc = report["scenarios"][0]
    assert sc["status"] == "ok"
    assert set(sc) >= {"id", "task", "status", "inputs", "csv", "columns"}
    with (tmp_path / "curves.csv").open() as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header == ["t", "area", "volume", "H", "Hh_n", "phi"]
    assert all(len(row) == len(header) for row in body)
    # weighted sphere curvature changes sign between adjacent samples at sqrt 2
    hh = [float(r[4]) for r in body]
    ts = [float(r[0]) for r in body]
    crossings = [(a, b) for (a, va), (b, vb) in zip(zip(ts, hh), zip(ts[1:], hh[1:]))
                 if va > 0 >= vb]
    assert len(crossings) == 1
    lo, hi = crossings[0]
    assert lo < math.sqrt(2.0) <= hi
    phi = [float(r[5]) for r in body]
    assert all(a >= b - 1e-12 for a, b in zip(phi, phi[1:]))
    assert all(0.0 <= v <= 1.0 for v in phi)


def test_curves_volume_column_absent_for_pole_singular_weight(tmp_path):
    config = {
        "scenarios": [
            {"id": "sing", "task": "curves",
             "model": {"m": 3, "warping": {"name": "euclidean"},
                       "weight": {"name": "logpow", "k": -2}},
             "params": {"range": [0.5, 3.0], "samples": 10}},
        ]
    }
    report = cli.run_config(config, tmp_path)
    assert report["scenarios"][0]["columns"] == ["t", "area", "H"]


def test_curves_range_below_domain_errors_with_t_min(tmp_path):
    config = {
        "scenarios": [
            {"id": "bad", "task": "curves",
             "model": {"m": 3, "warping": {"name": "euclidean"},
                       "weight": {"name": "logpow", "k": -2}},
             "params": {"range": [0.0, 3.0], "samples": 10}},
        ]
    }
    report = cli.run_config(config, tmp_path)
    sc = report["scenarios"][0]
    assert sc["status"] == "error"
    assert "1e-08" in sc["error"]


def test_scenario_isolation(tmp_path):
    good = {"id": "good", "task": "capacity", "model": small_model(),
            "params": {"rho": 1.0, "R": math.e}}
    bad = {"id": "bad", "task": "classify",
           "model": {"m": 2, "warping": {"name": "nope"}, "weight": {"name": "zero"}},
           "params": {}}
    solo = cli.run_config({"scenarios": [good]}, tmp_path / "solo")
    both = cli.run_config({"scenarios": [bad, good]}, tmp_path / "both")
    assert both["scenarios"][0]["status"] == "error"
    assert both["scenarios"][1]["status"] == "ok"
    assert both["scenarios"][1]["capacity_report"] == \
        solo["scenarios"][0]["capacity_report"]
    assert cli._exit_code(both) == 1
    assert cli._exit_code(solo) == 0


def test_classify_scenario_reports_verdict(tmp_path):
    config = {
        "scenarios": [
            {"id": "gauss", "task": "classify", "model": small_model("gaussian", 3),
             "params": {"criterion": "radial_weight", "n": 2,
                        "direction": "parabolic"}},
        ]
    }
    report = cli.run_config(config, tmp_path)
    verdict = report["scenarios"][0]["verdict"]
    assert verdict["outcome"] == "parabolic"
    assert verdict["integral_evidence"]["status"] == "divergent"
    assert all("status" in c for c in verdict["checks"])


def test_mc_scenario_and_comparison(tmp_path):
    config = {
        "scenarios": [
            {"id": "mc", "task": "mc-verify", "model": small_model(),
             "submanifold": {"name": "radial_scenario"},
             "params": {"start": [1.6487212707001282, 0.0], "rho": 1.0,
                        "R": math.e, "paths": 1500, "dtau": 1e-3, "seed": 3}},
            {"id": "cmp", "task": "mc-verify",
             "model": {"m": 3, "warping": {"name": "euclidean"},
                       "weight": {"name": "gaussian"}},
             "submanifold": {"name": "plane", "axes": [0, 1]},
             "params": {"start": [2.0, 0.0], "rho": 1.0, "R": 4.0,
                        "paths": 1500, "seed": 5,
                        "comparison": {"alpha": "-t", "n": 2,
                                       "t0": 1.4142135623730951,
                                       "direction": "parabolic"}}},
        ]
    }
    report = cli.run_config(config, tmp_path)
    mc_sc, cmp_sc = report["scenarios"]
    assert mc_sc["status"] == "ok"
    assert 0.3 <= mc_sc["hit_estimate"]["p_hat"] <= 0.7
    assert cmp_sc["status"] == "ok"
    assert cmp_sc["comparison"]["passed"] is True


def test_malformed_json_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"scenarios": [')
    proc = subprocess.run(
        [sys.executable, "-m", "wparab.cli", "run", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "line" in proc.stderr and "column" in proc.stderr
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("payload,message", [
    ({"scenarios": [{"task": "classify"}]}, "missing 'id'"),
    ({"scenarios": [{"id": "x", "task": "dance"}]}, "unknown task"),
    ({"scenarios": [{"id": "x", "task": "classify"},
                    {"id": "x", "task": "classify"}]}, "duplicate"),
    ({"other": []}, "scenarios"),
])
def test_config_validation(tmp_path, payload, message):
    path = write_config(tmp_path, payload)
    with pytest.raises(cli.ScenarioError, match=message):
        cli.load_config(path)


def test_task_filtered_subcommands(tmp_path):
    config_path = write_config(tmp_path, {
        "scenarios": [
            {"id": "cap", "task": "capacity", "model": small_model(),
             "params": {"rho": 1.0, "R": 2.0}},
            {"id": "curve", "task": "curves", "model": small_model(),
             "params": {"range": [0.5, 2.0], "samples": 5}},
        ]})
    rc = cli.main(["curves", str(config_path), "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert [sc["id"] for sc in report["scenarios"]] == ["curve"]


def test_workers_do_not_change_the_report(tmp_path):
    config = {
        "scenarios": [
            {"id": f"cap{i}", "task": "capacity", "model": small_model(),
             "params": {"rho": 1.0, "R": 2.0 + i}}
            for i in range(4)
        ]
    }
    serial = cli.run_config(config, tmp_path / "s", workers=1)
    threaded = cli.run_config(config, tmp_path / "t", workers=3)
    assert serial["scenarios"] == threaded["scenarios"]
    assert (tmp_path / "s" / "report.json").read_bytes() == \
        (tmp_path / "t" / "report.json").read_bytes()


def test_seed_override_flag(tmp_path):
    config_path = write_config(tmp_path, {
        "scenarios": [
            {"id": "mc", "task": "mc-verify", "model": small_model(),
             "submanifold": {"name": "radial_scenario"},
             "params": {"start": [1.6, 0.0], "rho": 1.0, "R": math.e,
                        "paths": 400, "dtau": 2e-3, "seed": 1}},
        ]})
    rc = cli.main(["run", str(config_path), "--out", str(tmp_path / "o1"),
                   "--seed", "99"])
    assert rc == 0
    report = json.loads((tmp_path / "o1" / "report.json").read_text())
    assert report["scenarios"][0]["hit_estimate"]["seed"] == 99


def _strict_report(outdir):
    def reject(token):
        raise ValueError(f"non-finite token {token} in report.json")
    return json.loads((outdir / "report.json").read_text(), parse_constant=reject)


def test_non_object_params_become_a_scenario_error(tmp_path):
    config = {"scenarios": [
        {"id": "bad", "task": "capacity", "model": small_model(), "params": []},
        {"id": "good", "task": "capacity", "model": small_model(),
         "params": {"rho": 1.0, "R": 2.0}}]}
    cli.run_config(config, tmp_path)
    bad, good = _strict_report(tmp_path)["scenarios"]
    assert bad["status"] == "error" and good["status"] == "ok"


def test_area_overflow_becomes_a_scenario_error(tmp_path):
    config = {"scenarios": [
        {"id": "cap", "task": "capacity", "model": small_model("gaussian", 3),
         "params": {"rho": 1.0, "R": 45.0}},
        {"id": "curves", "task": "curves", "model": small_model("antigaussian", 3),
         "params": {"range": [1.0, 60.0], "samples": 30}}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cli.run_config(config, tmp_path)
    cap, curves = _strict_report(tmp_path)["scenarios"]
    assert cap["status"] == "error" and cap["error"].startswith("QuadratureError")
    assert curves["status"] == "error"


def test_zero_paths_become_a_scenario_error(tmp_path):
    config = {"scenarios": [
        {"id": "mc", "task": "mc-verify", "model": small_model(),
         "params": {"rho": 0.5, "R": 2.0, "start": [1.0, 0.0], "paths": 0}}]}
    cli.run_config(config, tmp_path)
    (mc,) = _strict_report(tmp_path)["scenarios"]
    assert mc["status"] == "error" and "DomainError" in mc["error"]
