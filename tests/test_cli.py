import ast
import csv
import dataclasses
import functools
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wparab import catalogs, cli
from wparab import criteria as cr
from wparab import montecarlo as mc
from wparab import radial as rd

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
    ({"scenarios": [{"id": "x", "task": "classify", "model": {"m": 2}},
                    {"id": "x", "task": "classify", "model": {"m": 2}}]}, "duplicate"),
    ({"other": []}, "scenarios"),
    ({"scenarios": [{"id": "x", "task": "curves", "model": {"m": 2.5}}]},
     r"scenarios\[0\]\.model\.m must be a positive integer, got 2\.5"),
    ({"scenarios": [{"id": "x", "task": "classify",
                     "model": {"m": 2, "w": {"name": "euclidean"}}}]},
     r"scenarios\[0\]\.model\.w is not a field of model"),
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
    # only the tasks that declare a seed take one
    rc = cli.main(["run", str(CONFIG_DIR / "demo.json"), "--out", str(tmp_path / "o2"),
                   "--seed", "5"])
    assert rc == 0
    entries = json.loads((tmp_path / "o2" / "report.json").read_text())["scenarios"]
    seeded = {entry["task"] for entry in entries if "seed" in entry["inputs"]["params"]}
    assert seeded == {"mc-verify", "check-identities"}


def _strict_report(outdir):
    def reject(token):
        raise ValueError(f"non-finite token {token} in report.json")
    return json.loads((outdir / "report.json").read_text(), parse_constant=reject)


def test_non_object_params_become_a_scenario_error(tmp_path):
    model = {"m": 3, "warping": {"name": "euclidean"}, "weight": {"name": "zero"}}
    ids = {"id": "ids", "task": "check-identities", "model": model,
           "submanifold": {"name": "sphere", "a": 1.5}}
    mc = {"id": "mc", "task": "mc-verify", "model": model,
          "submanifold": {"name": "plane", "axes": [0, 1]},
          "params": {"rho": 1.0, "R": 4.0, "start": [2.0, 0.0], "paths": 10}}
    cases = [
        ({"id": "bad", "task": "capacity", "model": small_model(), "params": []},
         "params must be an object, got []"),
        ({**ids, "submanifold": "sphere"},
         "submanifold must be an object, got 'sphere'"),
        ({**ids, "model": {**model, "weight": 3}}, "model.weight must be an object, got 3"),
        ({**ids, "model": [3]}, "model must be an object, got [3]"),
        ({"id": "cls", "task": "classify", "model": {**model, "warping": "euclidean"}},
         "model.warping must be an object, got 'euclidean'"),
        ({**mc, "params": {**mc["params"], "comparison": "parabolic"}},
         "params.comparison must be an object, got 'parabolic'"),
    ]
    config = {"scenarios": [{**sc, "id": f"case{i}"} for i, (sc, _) in enumerate(cases)] + [
        {"id": "good", "task": "capacity", "model": small_model(),
         "params": {"rho": 1.0, "R": 2.0}}]}
    cli.run_config(config, tmp_path)
    *bad, good = _strict_report(tmp_path)["scenarios"]
    assert [entry.get("error") for entry in bad] == ["ScenarioError: " + msg for _, msg in cases]
    assert good["status"] == "ok"


def test_area_overflow_becomes_a_scenario_error(tmp_path):
    config = {"scenarios": [
        {"id": "cap", "task": "capacity", "model": small_model("gaussian", 3),
         "params": {"rho": 1.0, "R": 45.0}},
        {"id": "curves", "task": "curves", "model": small_model("antigaussian", 3),
         "params": {"range": [1.0, 60.0], "samples": 30}},
        # t_min > 0 drops the volume column, so the area itself overflows
        {"id": "area", "task": "curves",
         "model": {"m": 3, "warping": {"name": "euclidean"},
                   "weight": {"name": "custom", "expr": "t^2/2", "t_min": 0.5}},
         "params": {"range": [1.0, 60.0], "samples": 30}},
        # the GK15 nodes themselves overflow
        {"id": "huge", "task": "capacity", "model": small_model(m=3),
         "params": {"rho": 1.0, "R": 1e308}}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cli.run_config(config, tmp_path)
    cap, curves, area, huge = _strict_report(tmp_path)["scenarios"]
    assert cap["status"] == "error" and cap["error"].startswith("QuadratureError")
    assert huge["status"] == "error"
    assert huge["error"].startswith("QuadratureError: non-finite integrand")
    assert curves["status"] == "error"
    assert curves["error"].startswith("QuadratureError: non-finite integrand")
    assert area["status"] == "error"
    assert area["error"].startswith("DomainError: sphere area overflows at t=39.6")


# --- curves tables against a row-by-row reference ---------------------------

CATALOG_WARPINGS = [{"name": "euclidean"}, {"name": "hyperbolic", "kappa": -0.5},
                    {"name": "paraboloid"}, {"name": "custom", "expr": "t + t^3"}]
CATALOG_WEIGHTS = [{"name": "zero"}, {"name": "gaussian"}, {"name": "antigaussian"},
                   {"name": "power", "a": 0.5, "k": 2}, {"name": "logpow", "k": 1.5},
                   {"name": "custom", "expr": "0.1*t^2 + cos(t)"}]


def _row_by_row_table(model_spec, params):
    """(header, rows) of a curves table built one row at a time from scalar
    calls, or the error string of its first failing row."""
    model = catalogs.resolve_model(model_spec)
    n = params.get("n")
    header = ["t", "area"] + (["volume"] if model.f.t_min == 0.0 else []) + ["H"]
    header += ["Hh_n"] if n is not None else []
    rows = []
    try:
        for t in np.linspace(*params["range"], params["samples"]).tolist():
            row = [t, model.sphere_area(t)]
            if "volume" in header:
                row.append(model.ball_volume(t))
            row.append(model.mean_curvature(t))
            if n is not None:
                row.append(model.weighted_mean_curvature(n, t))
            rows.append([repr(float(x)) for x in row])
    except Exception as err:
        return f"{type(err).__name__}: {err}"
    return header, rows


@pytest.mark.parametrize("weight", CATALOG_WEIGHTS, ids=lambda w: w["name"])
@pytest.mark.parametrize("warping", CATALOG_WARPINGS, ids=lambda w: w["name"])
def test_curves_columns_match_the_row_by_row_table(warping, weight, tmp_path):
    model = {"m": 3, "warping": warping, "weight": weight}
    params = {"range": [0.3, 6.0], "samples": 12, "n": 2}
    cli.run_config({"scenarios": [{"id": "c", "task": "curves", "model": model,
                                   "params": params}]}, tmp_path)
    with (tmp_path / "c.csv").open() as fh:
        header, *rows = list(csv.reader(fh))
    want_header, want_rows = _row_by_row_table(model, params)
    assert header == want_header and len(rows) == len(want_rows)
    for row, want in zip(rows, want_rows):
        for name, got, ref in zip(header, row, want):
            if name in ("t", "volume"):
                assert got == ref, (name, got, ref)
            else:
                assert float(got) == pytest.approx(float(ref), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("model, params", [
    # the area column raises first, at t=39.66; the volume of an earlier
    # row, at t=37.62, is the first failing row
    (small_model("antigaussian", 3), {"range": [1.0, 60.0], "samples": 30}),
    # a warping that decays keeps the volume finite: the area is the first
    # failure in the column and in the row order, at t=37.7
    ({"m": 2, "warping": {"name": "custom", "expr": "t*exp(-t)"},
      "weight": {"name": "custom", "expr": "t^2/2"}},
     {"range": [37.0, 38.0], "samples": 11, "n": 1}),
], ids=["an-earlier-volume-row", "area-first"])
def test_curves_errors_name_the_first_failing_row(model, params, tmp_path):
    cli.run_config({"scenarios": [{"id": "c", "task": "curves", "model": model,
                                   "params": params}]}, tmp_path)
    (entry,) = _strict_report(tmp_path)["scenarios"]
    want = _row_by_row_table(model, params)
    assert entry["status"] == "error" and entry["error"] == want


def test_potential_values_equal_the_per_radius_potential_to_the_bit(tmp_path):
    model = {"m": 3, "warping": {"name": "hyperbolic"}, "weight": {"name": "gaussian"}}
    rho, R = 0.5, 3.0
    node = np.linspace(rho, R, 512)[100].item()    # a node of the potential grid
    eval_at = [0.5, 1, 1.2345, node, 2.0 + 1e-13, 2.5, 3.0]
    cli.run_config({"scenarios": [{"id": "cap", "task": "capacity", "model": model,
                                   "params": {"rho": rho, "R": R,
                                              "eval_at": eval_at}}]}, tmp_path)
    (entry,) = _strict_report(tmp_path)["scenarios"]
    got = entry["capacity_report"]["potential_values"]
    report = catalogs.resolve_model(model).capacity_potential(rho, R)
    want = {str(s): report.potential(float(s)) for s in eval_at}
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


def test_zero_paths_become_a_scenario_error(tmp_path):
    config = {"scenarios": [
        {"id": "mc", "task": "mc-verify", "model": small_model(),
         "params": {"rho": 0.5, "R": 2.0, "start": [1.0, 0.0], "paths": 0}}]}
    cli.run_config(config, tmp_path)
    (mc,) = _strict_report(tmp_path)["scenarios"]
    assert mc["error"] == "ScenarioError: params.paths must be a positive integer, got 0"


def test_start_of_the_wrong_length_becomes_a_scenario_error(tmp_path):
    scenario = {"id": "mc", "task": "mc-verify", "model": small_model(),
                "params": {"rho": 0.5, "R": 2.0, "start": [1.0, 0.0, 0.0],
                           "paths": 10}}
    entry = cli.run_scenario(scenario, tmp_path)
    assert entry["status"] == "error"
    assert entry["error"] == ("DomainError: start has 3 coordinates but the "
                              "chart has dimension 2")


@pytest.mark.parametrize("scenario,missing", [
    ({"id": "x"}, "task"),
    ({"task": "curves"}, "id"),
    ({}, "task"),
])
def test_a_scenario_without_id_or_task_gets_an_error_entry(scenario, missing,
                                                           tmp_path):
    # a library caller's scenario need not have passed load_config; its
    # entry names the id and task it has
    entry = cli.run_scenario(scenario, tmp_path)
    error = entry.pop("error")
    assert entry == {**scenario, "status": "error", "inputs": scenario}
    assert error == f"ScenarioError: scenario is missing {missing!r}"


def test_a_non_object_scenario_gets_an_error_entry(tmp_path):
    entry = cli.run_scenario(["x"], tmp_path)
    assert entry == {"status": "error", "inputs": ["x"],
                     "error": "ScenarioError: scenario must be an object, got ['x']"}


def test_non_integer_dimension_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"scenarios": [
        {"id": "ok", "task": "curves", "model": small_model(m=3),
         "params": {"range": [0.5, 1.0], "samples": 2}},
        {"id": "bad", "task": "curves", "model": small_model(m="3"),
         "params": {"range": [0.5, 1.0], "samples": 2}}]})
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "scenarios[1].model.m" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("task", ["classify", "capacity", "curves"])
def test_missing_model_exits_2(tmp_path, capsys, task):
    path = write_config(tmp_path, {"scenarios": [
        {"id": "ok", "task": "capacity", "model": small_model(),
         "params": {"rho": 1.0, "R": 2.0}},
        {"id": "bad", "task": task, "params": {}}]})
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "scenarios[1] is missing 'model'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_the_library_runs_without_scipy(tmp_path):
    script = (
        "import sys\n"
        "import wparab.cli\n"
        f"config = wparab.cli.load_config({str(CONFIG_DIR / 'demo.json')!r})\n"
        f"wparab.cli.run_config(config, {str(tmp_path)!r})\n"
        "assert 'scipy' not in sys.modules, "
        "sorted(m for m in sys.modules if m.startswith('scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").exists()


def test_the_library_leaves_the_warning_filters_alone():
    """No module under src/wparab calls the warnings filter API.

    The filters are process-global, and ``wparab run --workers`` runs
    scenarios on threads: a filter set inside one scenario reaches the
    others and outlives the run.
    """
    banned = {"catch_warnings", "simplefilter", "filterwarnings", "resetwarnings"}
    modules = sorted(Path(cli.__file__).parent.rglob("*.py"))
    calls = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            func = getattr(node, "func", None)
            name = getattr(func, "attr", getattr(func, "id", None))
            if isinstance(node, ast.Call) and name in banned:
                calls.append(f"{path.name}:{node.lineno}: {name}")
    assert len(modules) >= 10
    assert calls == []


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
def test_non_json_numbers_in_a_config_exit_2(tmp_path, capsys, token):
    path = tmp_path / "config.json"
    path.write_text('{"scenarios": [{"id": "cap", "task": "capacity", '
                    '"model": {"m": 2}, "params": {"rho": 1.0, "R": %s}}]}' % token)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"non-JSON number {token}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_missing_catalog_parameter_names_the_field(tmp_path):
    power = {"m": 3, "warping": {"name": "euclidean"},
             "weight": {"name": "power", "k": 3.0}}
    config = {"scenarios": [
        {"id": "curves", "task": "curves", "model": power,
         "params": {"range": [0.5, 1.0], "samples": 2}},
        {"id": "split", "task": "check-identities",
         "model": {"m": 3, "weight": {"name": "split", "eta": {"name": "gaussian"}}},
         "submanifold": {"name": "sphere", "a": 1.0}},
        {"id": "cylinder", "task": "check-identities", "model": small_model(m=3),
         "submanifold": {"name": "cylinder", "a": 1.0}}]}
    mc = {"task": "mc-verify", "model": small_model(),
          "params": {"rho": 1.0, "R": 4.0, "start": [2.0, 0.0], "paths": 10}}
    classify = {"task": "classify", "model": small_model("gaussian", 3)}
    gauss = small_model("gaussian", 3)
    missing = [
        ({"task": "capacity", "model": gauss, "params": {"R": 2.0}},
         "params is missing 'rho'"),
        ({"task": "curves", "model": gauss, "params": {"samples": 5}},
         "params is missing 'range'"),
        ({"task": "curves", "model": gauss,
          "params": {"range": [0.5, 2.0], "samples": 5, "rho": 1.0}},
         "params.rho is read only with R"),
        ({"task": "curves", "model": gauss,
          "params": {"range": [0.5, 2.0], "samples": 5, "R": 1.5}},
         "params.R is read only with rho"),
        ({**mc, "params": {"rho": 1.0, "R": 4.0}},
         "params is missing 'start'"),
        ({**classify, "params": {"criterion": "warping_power", "n": 2}},
         "params is missing 'k'"),
        ({**classify, "params": {"criterion": "bounded_drift", "n": 2}},
         "params is missing 'beta'"),
        ({**classify, "params": {"criterion": "radial_weight"}},
         "params is missing 'n'"),
        ({**mc, "params": {**mc["params"], "comparison": {"alpha": "-t", "t0": 1.5}}},
         "params.comparison is missing 'n'"),
        ({**mc, "params": {**mc["params"], "comparison": {"n": 2}}},
         "params.comparison is missing 'alpha'"),
    ]
    config["scenarios"] += [{**sc, "id": f"missing{i}"} for i, (sc, _) in enumerate(missing)]
    cli.run_config(config, tmp_path)
    errors = [sc["error"] for sc in _strict_report(tmp_path)["scenarios"]]
    assert errors == [
        "ScenarioError: model.weight is missing 'a'",
        "ScenarioError: model.weight is missing 'mu'",
        "ScenarioError: submanifold is missing 'k'",
    ] + ["ScenarioError: " + msg for _, msg in missing]
    # both radii given: the curves table has its phi column
    both = cli.run_scenario(curves_scenario(rho=1.0, R=1.5), tmp_path)
    assert both["columns"][-1] == "phi"
    # a logpow mu takes the model's warping; the graph's heights stay above
    # 0.9, where log is defined
    logpow = {"name": "logpow", "k": 1}
    graph = {"name": "graph", "expr": "1+0.3*x1^2-0.2*x1*x2", "window": [[0.3, 1.5], [0.3, 1.5]]}
    for weight in ({"name": "height", "mu": logpow},
                   {"name": "split", "eta": {"name": "gaussian"}, "mu": logpow}):
        entry = cli.run_scenario(
            {"id": weight["name"], "task": "check-identities",
             "model": {"m": 3, "warping": {"name": "euclidean"}, "weight": weight},
             "submanifold": graph, "params": {"points": 6}},
            tmp_path)
        assert entry["status"] == "ok", entry.get("error")
        assert entry["radial_identity_max_residual"] <= 1e-12


def test_a_height_weight_checks_the_domain_of_its_mu(tmp_path):
    # log x3 and x3^0.5 have no value on the plane x3 = -0.5; a mu defined
    # for every height (t_min 0) reads it, as translators do
    plane = {"name": "plane", "normal": [0, 0, 1], "offset": -0.5}
    logpow, root = {"name": "logpow", "k": 1}, {"name": "power", "a": 1.0, "k": 0.5}
    weights = [{"name": "height", "mu": logpow},
               {"name": "split", "eta": {"name": "gaussian"}, "mu": logpow},
               {"name": "height", "mu": root},
               {"name": "translator"},
               {"name": "split", "eta": {"name": "gaussian"}, "mu": {"name": "gaussian"}}]
    entries = [cli.run_scenario(
        {"id": f"w{i}", "task": "check-identities",
         "model": {"m": 3, "warping": {"name": "euclidean"}, "weight": weight},
         "submanifold": plane, "params": {"points": 3}}, tmp_path)
        for i, weight in enumerate(weights)]
    assert [entry.get("error") for entry in entries[:3]] == [
        "DomainError: profile logpow(k=1, w=euclidean) undefined at t=-0.5 "
        "(domain is t > 1e-08)"] * 2 + [
        "DomainError: profile power(a=1.0, k=0.5) undefined at t=-0.5 (domain is t > 1e-08)"]
    assert [entry["status"] for entry in entries[3:]] == ["ok", "ok"]


def test_a_power_mu_of_fractional_degree_refuses_negative_heights(tmp_path):
    # mu = 0.5 t^1.5 has t_min 0 but no real value below the origin; the
    # sphere of radius 1.3 and the paths on the plane read negative heights,
    # which once gave NaN residuals and drifts under status ok
    root = {"name": "power", "a": 0.5, "k": 1.5}
    euclidean = {"m": 3, "warping": {"name": "euclidean"}}
    sphere = {"name": "sphere", "a": 1.3}
    plane = {"name": "plane", "normal": [0.0, 0.6, 0.8], "offset": 0.3}
    config = {"scenarios": [
        {"id": "height", "task": "check-identities",
         "model": {**euclidean, "weight": {"name": "height", "mu": root}},
         "submanifold": sphere, "params": {"psi": "t^2/2", "points": 6, "seed": 2}},
        {"id": "split", "task": "check-identities",
         "model": {**euclidean, "weight": {"name": "split", "eta": {"name": "gaussian"},
                                           "mu": root}},
         "submanifold": sphere, "params": {"psi": "t^2/2", "points": 6, "seed": 2}},
        {"id": "mc", "task": "mc-verify",
         "model": {**euclidean, "weight": {"name": "height", "mu": root}},
         "submanifold": plane,
         "params": {"rho": 1.0, "R": 4.0, "start": [2.0, 0.0], "paths": 200, "seed": 5}}]}
    cli.run_config(config, tmp_path)
    entries = _strict_report(tmp_path)["scenarios"]
    assert [(entry["status"], entry.get("error")) for entry in entries] == [
        ("error", "ExprDomainError: negative base with non-integer exponent in `t^1.5`")] * 3


def test_mc_verify_rejects_inputs_it_would_convert(tmp_path):
    cases = [
        ({"start": [True, 0.5]},
         "start must be a list of finite numbers, got [True, 0.5]"),
        ({"start": ["2", 0.5]},
         "start must be a list of finite numbers, got ['2', 0.5]"),
        ({"start": [[1.0], [2.0, 3.0]]},
         "start must be a list of finite numbers, got [[1.0], [2.0, 3.0]]"),
        # the batch size only splits the paths: no scenario sets it
        ({"batch_size": 20_000},
         "batch_size is not a field of mc-verify params"),
    ]
    base = {"rho": 0.5, "R": 2.0, "start": [1.0, 0.0], "paths": 10}
    config = {"scenarios": [
        {"id": f"mc{i}", "task": "mc-verify", "model": small_model(),
         "params": {**base, **patch}} for i, (patch, _) in enumerate(cases)]
        + [{"id": "ok", "task": "mc-verify", "model": small_model(),
            "params": base}]}
    cli.run_config(config, tmp_path)
    *bad, ok = _strict_report(tmp_path)["scenarios"]
    assert [entry.get("error") for entry in bad] == [
        "ScenarioError: params." + msg for _, msg in cases]
    assert ok["status"] == "ok" and ok["hit_estimate"]["n_paths"] == 10


def gaussian_plane_scenario(**params):
    return {"id": "mc", "task": "mc-verify", "model": small_model("gaussian", 3),
            "submanifold": {"name": "plane", "axes": [0, 1]},
            "params": {"rho": 1.0, "R": 4.0, "start": [2.0, 0.0], "paths": 10,
                       **params}}


def test_mc_verify_checks_dtau_paths_and_seed(tmp_path):
    cases = [
        ({"dtau": 0}, "dtau must be a positive finite number, got 0"),
        ({"dtau": math.inf}, "dtau must be a positive finite number, got inf"),
        ({"dtau": -1e-3}, "dtau must be a positive finite number, got -0.001"),
        ({"dtau": "0.01"}, "dtau must be a positive finite number, got '0.01'"),
        ({"dtau": True}, "dtau must be a positive finite number, got True"),
        ({"paths": 12.9}, "paths must be a positive integer, got 12.9"),
        ({"paths": "10"}, "paths must be a positive integer, got '10'"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"seed": 2.5}, "seed must be a non-negative integer, got 2.5"),
        ({"seed": True}, "seed must be a non-negative integer, got True"),
    ]
    for patch, message in cases:
        entry = cli.run_scenario(gaussian_plane_scenario(**patch), tmp_path)
        assert (entry["status"], entry["error"]) == ("error",
                                                     "ScenarioError: params." + message)
    entry = cli.run_scenario(gaussian_plane_scenario(paths=12.0, seed=3.0),
                             tmp_path)
    estimate = entry["hit_estimate"]
    assert (estimate["n_paths"], estimate["seed"]) == (12, 3)
    assert estimate["dtau"] == pytest.approx(9e-3, rel=1e-15)
    assert estimate["estimator"] == "ou-bridge"


def test_a_probe_without_dtau_leaves_the_step_to_each_estimate(tmp_path):
    # the scenario's R is 16, but the probe's R = 2 estimate steps at 1e-3
    scenario = gaussian_plane_scenario(R=16.0, start=[1.5, 0.0], paths=200,
                                       R_schedule=[2.0, 4.0, 16.0])
    entry = cli.run_scenario(scenario, tmp_path)
    _, P = catalogs.resolve_immersion(cli.SCENARIO.check(scenario, ""))
    probe = mc.recurrence_probe(mc.DiffusionSpec(P, None, seed=0), [1.5, 0.0], 1.0,
                                [2.0, 4.0, 16.0], 200)
    assert [e.dtau for e in probe.estimates] == [mc.default_step(1.0, R)
                                                 for R in (2.0, 4.0, 16.0)]
    assert entry["recurrence_probe"] == probe.to_dict()


def test_an_empty_schedule_is_refused_before_any_estimate(tmp_path, monkeypatch):
    monkeypatch.setattr(mc, "hit_probability",
                        lambda *args: pytest.fail("an estimate ran"))
    entry = cli.run_scenario(gaussian_plane_scenario(R_schedule=[]), tmp_path)
    assert (entry["status"], entry["error"]) == (
        "error", "DomainError: R_schedule is empty: a recurrence probe needs "
                 "at least one outer radius")


def test_a_zero_plane_normal_is_named_without_a_warning(tmp_path):
    scenario = {**gaussian_plane_scenario(),
                "submanifold": {"name": "plane", "normal": [0, 0, 0]}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entry = cli.run_scenario(scenario, tmp_path)
    assert caught == []
    assert entry["status"] == "error"
    assert entry["error"].startswith(
        "DomainError: hyperplane normal must be finite and nonzero")
    assert entry["error"].endswith("got [0.0, 0.0, 0.0]")


def test_estimate_without_an_exited_path_is_a_scenario_error(tmp_path,
                                                             monkeypatch):
    # two steps cannot carry a path from r = 2 to either boundary; the
    # entry names max_steps instead of reporting p_hat = NaN
    monkeypatch.setattr(cli.mc, "DiffusionSpec",
                        functools.partial(cli.mc.DiffusionSpec, max_steps=2))
    config = {"scenarios": [
        gaussian_plane_scenario(),
        {**gaussian_plane_scenario(start=[1.0, 0.0]), "id": "boundary"}]}
    cli.run_config(config, tmp_path)
    stuck, boundary = _strict_report(tmp_path)["scenarios"]
    assert stuck["status"] == "error" and "max_steps = 2" in stuck["error"]
    assert boundary["status"] == "ok"
    assert boundary["hit_estimate"]["p_hat"] == 1.0


def identities_scenario(**params):
    return {"id": "ids", "task": "check-identities",
            "model": small_model("gaussian", 3),
            "submanifold": {"name": "sphere", "a": 1.5},
            "params": {"points": 6, "seed": 2, **params}}


def test_identity_check_makes_a_fixed_number_of_chart_calls(tmp_path,
                                                            monkeypatch):
    # one chart jet for the geometry, n(n+1)/2 nested-dual calls and one
    # plain call; the direct side is chain-ruled from its sample
    calls = []
    resolve = catalogs.resolve_immersion

    def counting(scenario):
        warping, P = resolve(scenario)

        def chart(u):
            calls.append(1)
            return P.chart(u)

        return warping, dataclasses.replace(P, chart=chart)

    monkeypatch.setattr(catalogs, "resolve_immersion", counting)
    for points in (6, 40):
        calls.clear()
        entry = cli.run_scenario(identities_scenario(points=points), tmp_path)
        assert entry["status"] == "ok" and entry["points"] == points
        assert entry["radial_identity_max_residual"] <= 1e-12
        assert len(calls) == 4, (points, len(calls))


def test_scenario_counts_and_radii_are_checked(tmp_path):
    no_submanifold = identities_scenario()
    del no_submanifold["submanifold"]
    cases = [
        (identities_scenario(points=0),
         "ScenarioError: params.points must be a positive integer, got 0"),
        (identities_scenario(points=2.7),
         "ScenarioError: params.points must be a positive integer, got 2.7"),
        (identities_scenario(points="many"),
         "ScenarioError: params.points must be a positive integer, got 'many'"),
        (identities_scenario(seed=True),
         "ScenarioError: params.seed must be a non-negative integer, got True"),
        (identities_scenario(seed=-3),
         "ScenarioError: params.seed must be a non-negative integer, got -3"),
        (no_submanifold,
         "ScenarioError: scenario is missing 'submanifold'"),
        (gaussian_plane_scenario(rho=True),
         "ScenarioError: params.rho must be a finite number, got True"),
        (gaussian_plane_scenario(R="4"),
         "ScenarioError: params.R must be a finite number, got '4'"),
        ({"id": "cap", "task": "capacity", "model": small_model(),
          "params": {"rho": "1", "R": 2.0}},
         "ScenarioError: params.rho must be a finite number, got '1'"),
        ({"id": "cap", "task": "capacity", "model": small_model(),
          "params": {"rho": 1.0, "R": True}},
         'ScenarioError: params.R must be "inf" or a finite number, got True'),
        ({"id": "curves", "task": "curves", "model": small_model("gaussian", 3),
          "params": {"range": [0.5, 2.0], "samples": 3, "rho": True, "R": 4.0}},
         "ScenarioError: params.rho must be a finite number, got True"),
    ]
    for samples in (0, "many", 2.5):
        cases.append((
            {"id": "curves", "task": "curves", "model": small_model("gaussian", 3),
             "params": {"range": [0.5, 2.0], "samples": samples}},
            f"ScenarioError: params.samples must be a positive integer, got {samples!r}"))
    scenarios = [{**sc, "id": f"case{i}"} for i, (sc, _) in enumerate(cases)]
    ok = [{**identities_scenario(points=4.0, seed=0), "id": "ok"}]
    cli.run_config({"scenarios": scenarios + ok}, tmp_path)
    *bad, good = _strict_report(tmp_path)["scenarios"]
    assert [entry.get("error") for entry in bad] == [msg for _, msg in cases]
    assert good["status"] == "ok" and good["points"] == 4
    # a report cannot echo non-finite inputs as JSON, so these run directly
    for patch, shown in (({"R": math.inf}, "R must be a finite number, got inf"),
                         ({"rho": math.nan}, "rho must be a finite number, got nan")):
        entry = cli.run_scenario(gaussian_plane_scenario(**patch), tmp_path)
        assert entry["error"] == "ScenarioError: params." + shown


def _with_submanifold(**sub):
    return {**identities_scenario(), "submanifold": sub}


def _with_model(warping=None, **weight):
    model = {"m": 3, "warping": warping or {"name": "euclidean"}, "weight": weight}
    return {"id": "cls", "task": "classify", "model": model,
            "params": {"criterion": "ahlfors_direct"}}


@pytest.mark.parametrize("scenario, refusal, error", [
    (_with_submanifold(name="sphere", a=True),
     "submanifold 'sphere' parameter 'a' must be a finite number, got True",
     "submanifold.a must be a finite number, got True"),
    (_with_submanifold(name="sphere", a="1.3"),
     "submanifold 'sphere' parameter 'a' must be a finite number, got '1.3'",
     "submanifold.a must be a finite number, got '1.3'"),
    (_with_submanifold(name="cylinder", a=1.2, k=2.9),
     "submanifold 'cylinder' parameter 'k' must be a positive integer, got 2.9",
     "submanifold.k must be a positive integer, got 2.9"),
    (_with_submanifold(name="plane", normal=[0, 0, 1], offset="0.5"),
     "submanifold 'plane' parameter 'offset' must be a finite number, got '0.5'",
     "submanifold.offset must be a finite number, got '0.5'"),
    (_with_submanifold(name="plane", normal=[0, True, 0]),
     "submanifold 'plane' parameter 'normal' must be a finite number, got True",
     "submanifold.normal must be a list of m finite numbers, got [0, True, 0]"),
    (_with_submanifold(name="plane", normal=[0, 0, "1"]),
     "submanifold 'plane' parameter 'normal' must be a finite number, got '1'",
     "submanifold.normal must be a list of m finite numbers, got [0, 0, '1']"),
    (_with_submanifold(name="plane", normal=[0, 1]),
     "submanifold 'plane' parameter 'normal' must be a list of 3 numbers, got [0, 1]",
     "submanifold.normal must be a list of m finite numbers, got [0, 1]"),
    (_with_submanifold(name="helicoid", pitch="0.8"),
     "submanifold 'helicoid' parameter 'pitch' must be a finite number, got '0.8'",
     "submanifold.pitch must be a finite number, got '0.8'"),
    (gaussian_plane_scenario(R_schedule=[True, "4", 8]),
     "R_schedule must be a finite number, got True",
     "params.R_schedule must be a list of finite numbers, got [True, '4', 8]"),
    (_with_model({"name": "hyperbolic", "kappa": "-1"}, name="zero"),
     "warping 'hyperbolic' parameter 'kappa' must be a finite number, got '-1'",
     "model.warping.kappa must be a finite number, got '-1'"),
    (_with_model(name="power", a=True, k="2"),
     "weight 'power' parameter 'a' must be a finite number, got True",
     "model.weight.a must be a finite number, got True"),
    (_with_model(name="power", a=-1, k="2"),
     "weight 'power' parameter 'k' must be a finite number, got '2'",
     "model.weight.k must be a finite number, got '2'"),
    (_with_model(name="logpow", k=None),
     "weight 'logpow' parameter 'k' must be a finite number, got None",
     "model.weight.k must be a finite number, got None"),
    (_with_model(name="custom", expr="-t^2/2", t_min="0.5"),
     "weight 'custom' parameter 't_min' must be a finite number, got '0.5'",
     "model.weight.t_min must be a finite number, got '0.5'"),
    (_with_submanifold(name="graph", expr="x1*x2", window=[[0.3, True], [0.3, 1.5]]),
     "submanifold 'graph' parameter 'window' must be a finite number, got True",
     "submanifold.window must be a list of m-1 [lo, hi] pairs of finite numbers, "
     "got [[0.3, True], [0.3, 1.5]]"),
    (_with_submanifold(name="graph", expr="x1*x2", window=[[0.3, "1.5"], [0.3, 1.5]]),
     "submanifold 'graph' parameter 'window' must be a finite number, got '1.5'",
     "submanifold.window must be a list of m-1 [lo, hi] pairs of finite numbers, "
     "got [[0.3, '1.5'], [0.3, 1.5]]"),
    (_with_submanifold(name="plane", axes=[0, 5]),
     "submanifold 'plane' parameter 'axes' must be distinct axes in [0, 3), got [0, 5]",
     "submanifold.axes must be a non-empty list of distinct integers in [0, m), got [0, 5]"),
    (_with_submanifold(name="plane", axes=[0, 0.5]),
     "submanifold 'plane' parameter 'axes' must be a non-negative integer, got 0.5",
     "submanifold.axes must be a non-empty list of distinct integers in [0, m), got [0, 0.5]"),
    ({**_with_model(name="gaussian"), "model": {"m": 3.7, "weight": {"name": "gaussian"}}},
     "model parameter 'm' must be a positive integer, got 3.7",
     "model.m must be a positive integer, got 3.7"),
    ({**identities_scenario(), "model": {"m": True, "weight": {"name": "zero"}}},
     "model parameter 'm' must be a positive integer, got True",
     "model.m must be a positive integer, got True"),
])
def test_catalog_numbers_are_checked_not_coerced(scenario, refusal, error, tmp_path):
    # ``refusal`` names the case in words; ``error`` is the entry's message,
    # which names the field by its path
    entry = cli.run_scenario(scenario, tmp_path)
    assert entry["error"] == "ScenarioError: " + error


def classify_scenario(criterion="radial_weight", **params):
    return {"id": "cls", "task": "classify", "model": small_model("gaussian", 3),
            "params": {"criterion": criterion, "n": 2, **params}}


@pytest.mark.parametrize("criterion, params, outcome, classify", [
    ("bounded_drift", {"beta": "-t", "c": 0.5}, "parabolic",
     lambda w: cr.classify_bounded_drift(w, 2, rd.RadialProfile.from_expression("-t"), 0.5)),
    ("warping_power", {"k": -3, "t0": 1.5}, "parabolic",
     lambda w: cr.classify_warping_power(w, 2, -3, 1.5)),
    ("translator_halfspace", {"alpha": "t", "t0": 2.0}, "hyperbolic",
     lambda w: cr.classify_translator_halfspace(2, rd.RadialProfile.from_expression("t"),
                                                2.0)),
])
def test_shortcut_criterion_scenarios_report_the_library_verdict(
        criterion, params, outcome, classify, tmp_path):
    scenario = classify_scenario(criterion, **params)
    entry = cli.run_scenario(scenario, tmp_path)
    verdict = entry["verdict"]
    assert (verdict["criterion"], verdict["outcome"]) == (criterion, outcome)
    assert verdict == classify(catalogs.resolve_model(scenario["model"]).w).to_dict()


@pytest.mark.parametrize("criterion, params", [("warping_power", {"k": -3}),
                                               ("translator_halfspace", {"alpha": "t"})])
def test_an_anchor_at_zero_is_refused_before_any_sample(criterion, params, tmp_path):
    # the alpha_floor samples divide by w(t) or t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entry = cli.run_scenario(classify_scenario(criterion, t0=0, **params), tmp_path)
    assert (entry["status"], entry["error"]) == (
        "error", "DomainError: anchor radius t0 must be positive")


def test_criterion_numbers_are_checked(tmp_path):
    comparison = {"alpha": "-t", "n": 2, "t0": 1.5}
    cases = [
        (classify_scenario(n=2.7), "n must be a positive integer, got 2.7"),
        (classify_scenario("parabolic_comparison", n=0, alpha="-t"),
         "n must be a positive integer, got 0"),
        (classify_scenario(c=True), "c must be a finite number, got True"),
        (classify_scenario("bounded_drift", beta="0*t", c="0"),
         "c must be a finite number, got '0'"),
        (classify_scenario("ahlfors_direct", t0="2"), "t0 must be a finite number, got '2'"),
        (classify_scenario("translator_halfspace", alpha="-t", t0=[1.0]),
         "t0 must be a finite number, got [1.0]"),
        (classify_scenario("warping_power", k=False), "k must be a finite number, got False"),
        (gaussian_plane_scenario(comparison={**comparison, "n": 2.5}),
         "comparison.n must be a positive integer, got 2.5"),
        (gaussian_plane_scenario(comparison={**comparison, "t0": True}),
         "comparison.t0 must be a finite number, got True"),
        (classify_scenario(use_exp_integral="false", direction="hyperbolic"),
         "use_exp_integral must be true or false, got 'false'"),
        (classify_scenario(use_exp_integral=1),
         "use_exp_integral must be true or false, got 1"),
        (classify_scenario(hint={"tag": "power_order", "param": 2.0}),
         "hint is not a field of criterion 'radial_weight'"),
        (classify_scenario("parabolic_comparison", alpha="-t", hint={"tag": "none"}),
         "hint is not a field of criterion 'parabolic_comparison'"),
        (classify_scenario(hint="none"), "hint is not a field of criterion 'radial_weight'"),
        (classify_scenario(direction="up"),
         "direction must be one of parabolic, hyperbolic, got 'up'"),
    ]
    scenarios = [{**sc, "id": f"case{i}"} for i, (sc, _) in enumerate(cases)]
    ok = [{**classify_scenario(n=n, c=c), "id": f"ok{i}"}
          for i, (n, c) in enumerate(((2, 0.0), (2.0, 0)))]
    cli.run_config({"scenarios": scenarios + ok}, tmp_path)
    *bad, first, second = _strict_report(tmp_path)["scenarios"]
    assert [entry.get("error") for entry in bad] == [
        "ScenarioError: params." + msg for _, msg in cases]
    assert first["status"] == second["status"] == "ok"
    assert first["verdict"] == second["verdict"]


def test_expression_sources_must_be_strings(tmp_path):
    custom_warping = {"m": 3, "warping": {"name": "custom", "expr": 0}}
    cases = [
        (classify_scenario("parabolic_comparison", alpha=5), "params.alpha", 5),
        (classify_scenario("bounded_drift", beta=0.5), "params.beta", 0.5),
        (identities_scenario(psi=3), "params.psi", 3),
        (_with_submanifold(name="graph", expr=2), "submanifold.expr", 2),
        ({**_with_model(), "model": custom_warping}, "model.warping.expr", 0),
        (gaussian_plane_scenario(comparison={"alpha": ["-t"], "n": 2}),
         "params.comparison.alpha", ["-t"]),
    ]
    for scenario, path, value in cases:
        entry = cli.run_scenario(scenario, tmp_path)
        assert entry["error"] == (f"ScenarioError: {path} must be an expression string, "
                                  f"got {value!r}")


def curves_scenario(**params):
    return {"id": "cur", "task": "curves", "model": small_model("gaussian", 3),
            "params": {"range": [0.5, 2.0], "samples": 5, **params}}


def capacity_scenario(**params):
    return {"id": "cap", "task": "capacity", "model": small_model("gaussian", 3),
            "params": {"rho": 1.0, "R": 2.0, **params}}


def test_curve_and_capacity_numbers_are_checked(tmp_path):
    cases = [
        (curves_scenario(n=2.7), "n must be a positive integer, got 2.7"),
        (curves_scenario(n=True), "n must be a positive integer, got True"),
        (curves_scenario(range=[True, "2"]),
         "range must be a list of 2 finite numbers, got [True, '2']"),
        (curves_scenario(range=[0.5, "2"]),
         "range must be a list of 2 finite numbers, got [0.5, '2']"),
        (capacity_scenario(eval_at=[True, "1.5"]),
         "eval_at must be a list of finite numbers, got [True, '1.5']"),
        (capacity_scenario(eval_at=[1.5, "1.5"]),
         "eval_at must be a list of finite numbers, got [1.5, '1.5']"),
    ]
    scenarios = [{**sc, "id": f"case{i}"} for i, (sc, _) in enumerate(cases)]
    ok = [{**curves_scenario(n=n), "id": f"ok{i}"} for i, n in enumerate((2, 2.0))]
    ok.append({**capacity_scenario(eval_at=[1.5, 2]), "id": "ok-cap"})
    cli.run_config({"scenarios": scenarios + ok}, tmp_path)
    *bad, first, second, cap = _strict_report(tmp_path)["scenarios"]
    assert [entry.get("error") for entry in bad] == [
        "ScenarioError: params." + msg for _, msg in cases]
    assert first["status"] == second["status"] == "ok"
    assert "Hh_n" in first["columns"]
    assert (tmp_path / "ok0.csv").read_bytes() == (tmp_path / "ok1.csv").read_bytes()
    # the keys echo the entries as given
    assert list(cap["capacity_report"]["potential_values"]) == ["1.5", "2"]


def test_fields_no_branch_reads_are_refused(tmp_path):
    # ahlfors_direct reads no alpha and an infinite R no eval_at: a field
    # that no branch reads is refused, valid or not
    ahlfors = {**classify_scenario("ahlfors_direct"), "params": {"criterion": "ahlfors_direct"}}
    cases = [
        (capacity_scenario(R="inf", eval_at=[1.5]), "params.eval_at is read only with a finite R"),
        ({**ahlfors, "params": {"criterion": "ahlfors_direct", "alpha": 5}},
         "params.alpha is not a field of criterion 'ahlfors_direct'"),
        ({**ahlfors, "params": {"criterion": "ahlfors_direct", "alpha": "-t"}},
         "params.alpha is not a field of criterion 'ahlfors_direct'"),
        (classify_scenario("ahlfors_direct"),
         "params.n is not a field of criterion 'ahlfors_direct'"),
        (classify_scenario("radial_weight", alpha="-t +"),
         "params.alpha is not a field of criterion 'radial_weight'"),
        (gaussian_plane_scenario(R_schedule=[4.0, 8.0], comparison={"alpha": "-t", "n": 2}),
         "params.comparison is read only without R_schedule"),
        (_with_submanifold(name="plane", axes=[0, 1], normal=[0, 0, 1]),
         "submanifold.normal is read only without axes"),
        ({**curves_scenario(), "submanifold": {"name": "sphere", "a": 1.0}},
         "submanifold is not a field of task 'curves'"),
    ]
    scenarios = [{**sc, "id": f"case{i}"} for i, (sc, _) in enumerate(cases)]
    ok = [{**capacity_scenario(), "id": "cap"},
          {**capacity_scenario(R="inf"), "id": "cap-inf"},
          {**ahlfors, "id": "cls"}]
    cli.run_config({"scenarios": scenarios + ok}, tmp_path)
    *bad, cap, cap_inf, cls = _strict_report(tmp_path)["scenarios"]
    assert [entry.get("error") for entry in bad] == [
        "ScenarioError: " + msg for _, msg in cases]
    assert cap["status"] == cap_inf["status"] == cls["status"] == "ok"


def test_a_hint_is_not_a_field(tmp_path, capsys):
    # no integral test reads a tail hint, so none may turn a balance that
    # holds only on its sampled window into holds
    comparison = {"id": "cmp", "task": "classify", "model": {"m": 3},
                  "params": {"criterion": "parabolic_comparison", "n": 2, "t0": 5,
                             "alpha": "-t-3*sin(t)"}}
    hint = {"tag": "power_order", "param": 2.0}
    hinted = [
        ({**comparison, "params": {**comparison["params"], "hint": hint}},
         "criterion 'parabolic_comparison'"),
        (capacity_scenario(R="inf", hint=hint), "capacity params"),
        (capacity_scenario(hint=hint), "capacity params"),
    ]
    for i, (scenario, owner) in enumerate(hinted):
        config = tmp_path / f"hinted{i}.json"
        config.write_text(json.dumps({"scenarios": [comparison, scenario]}))
        out = tmp_path / f"hinted{i}-out"
        assert cli.main(["run", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: scenarios[1].params.hint is not a field of {owner}\n")
        assert not (out / "report.json").exists()
    # the unhinted comparison stays inconclusive: its balance holds on the
    # sampled window only
    config = tmp_path / "unhinted.json"
    config.write_text(json.dumps({"scenarios": [comparison]}))
    assert cli.main(["run", str(config), "--out", str(tmp_path / "unhinted-out")]) == 0
    verdict = _strict_report(tmp_path / "unhinted-out")["scenarios"][0]["verdict"]
    assert verdict["outcome"] == "inconclusive"
    assert {ch["name"]: ch["status"] for ch in verdict["checks"]}["sphere_balance"] == "window_only"
    assert "used_hint" not in verdict["integral_evidence"]


def test_range_and_eval_at_shapes_are_checked(tmp_path):
    cases = [
        (curves_scenario(range=[0.5, 1.0, 2.0]),
         "range must be a list of 2 finite numbers, got [0.5, 1.0, 2.0]"),
        (curves_scenario(range=[0.5]), "range must be a list of 2 finite numbers, got [0.5]"),
        (curves_scenario(range=0.5), "range must be a list of 2 finite numbers, got 0.5"),
        (curves_scenario(range="0.5, 2"),
         "range must be a list of 2 finite numbers, got '0.5, 2'"),
        (capacity_scenario(eval_at=1.5), "eval_at must be a list of finite numbers, got 1.5"),
        (capacity_scenario(eval_at={"r": 1.5}),
         "eval_at must be a list of finite numbers, got {'r': 1.5}"),
    ]
    scenarios = [{**sc, "id": f"case{i}"} for i, (sc, _) in enumerate(cases)]
    ok = [{**capacity_scenario(eval_at=[]), "id": "ok-empty"}]
    cli.run_config({"scenarios": scenarios + ok}, tmp_path)
    *bad, empty = _strict_report(tmp_path)["scenarios"]
    assert [entry.get("error") for entry in bad] == [
        "ScenarioError: params." + msg for _, msg in cases]
    assert empty["status"] == "ok"
    assert empty["capacity_report"]["potential_values"] == {}


OVERFLOWING_CHART = {
    "id": "overflow", "task": "check-identities", "model": small_model("zero", 3),
    "submanifold": {"name": "graph", "expr": "exp(800*x1)",
                    "window": [[0.5, 1.5], [0.5, 1.5]]},
    "params": {"psi": "t^2/2", "points": 6, "seed": 0}}


def test_an_overflowing_chart_names_its_first_point(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entry = cli.run_scenario(OVERFLOWING_CHART, tmp_path)
    assert caught == []
    json.dumps(entry, allow_nan=False)
    assert entry["status"] == "error"
    prefix = "DegenerateMetricError: induced metric not finite at u=["
    assert entry["error"].startswith(prefix), entry["error"]
    # exp(800 x1) and its derivatives overflow from x1 = 709.8/800 on
    x1 = float(entry["error"][len(prefix):].split()[0])
    assert x1 > 709.78 / 800.0


def test_an_overflowing_chart_fails_alike_under_an_error_filter(tmp_path):
    # the overflow is flagged row by row, not by numpy's warnings, so a
    # caller's error filter does not turn it into a RuntimeWarning
    plain = cli.run_scenario(OVERFLOWING_CHART, tmp_path / "plain")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = cli.run_scenario(OVERFLOWING_CHART, tmp_path / "strict")
    assert strict == plain
    assert strict["error"].startswith("DegenerateMetricError: induced metric not finite")
    assert "nan" not in json.dumps(strict, allow_nan=False).lower()
