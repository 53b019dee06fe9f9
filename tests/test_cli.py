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
    ({"scenarios": [{"id": "x", "task": "curves", "model": {"m": 2.5}}]},
     r"scenarios\[0\]\.model\.m must be an integer, got 2\.5"),
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
    assert mc["status"] == "error" and "DomainError" in mc["error"]


def test_start_of_the_wrong_length_becomes_a_scenario_error(tmp_path):
    scenario = {"id": "mc", "task": "mc-verify", "model": small_model(),
                "params": {"rho": 0.5, "R": 2.0, "start": [1.0, 0.0, 0.0],
                           "paths": 10}}
    entry = cli.run_scenario(scenario, tmp_path)
    assert entry["status"] == "error"
    assert entry["error"] == ("DomainError: start has 3 coordinates but the "
                              "chart has dimension 2")


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
    assert "scenarios[1].model is missing" in capsys.readouterr().err
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
    cli.run_config(config, tmp_path)
    errors = [sc["error"] for sc in _strict_report(tmp_path)["scenarios"]]
    assert errors == [
        "CatalogError: weight 'power' is missing parameter 'a'",
        "CatalogError: weight 'split' is missing parameter 'mu'",
        "CatalogError: submanifold 'cylinder' is missing parameter 'k'",
    ]


def test_mc_verify_rejects_inputs_it_would_convert(tmp_path):
    cases = [
        ({"start": [True, 0.5]},
         "DomainError: start must be a list of numbers, got [True, 0.5]"),
        ({"start": ["2", 0.5]},
         "DomainError: start must be a list of numbers, got ['2', 0.5]"),
        ({"start": [[1.0], [2.0, 3.0]]},
         "DomainError: start must be a list of numbers, got [[1.0], [2.0, 3.0]]"),
        ({"batch_size": 0},
         "DomainError: batch_size must be a positive integer, got 0"),
        ({"batch_size": -5},
         "DomainError: batch_size must be a positive integer, got -5"),
        ({"batch_size": 2.5},
         "DomainError: batch_size must be a positive integer, got 2.5"),
        ({"batch_size": True},
         "DomainError: batch_size must be a positive integer, got True"),
    ]
    base = {"rho": 0.5, "R": 2.0, "start": [1.0, 0.0], "paths": 10}
    config = {"scenarios": [
        {"id": f"mc{i}", "task": "mc-verify", "model": small_model(),
         "params": {**base, **patch}} for i, (patch, _) in enumerate(cases)]
        + [{"id": "ok", "task": "mc-verify", "model": small_model(),
            "params": {**base, "batch_size": 4.0}}]}
    cli.run_config(config, tmp_path)
    *bad, ok = _strict_report(tmp_path)["scenarios"]
    assert [entry.get("error") for entry in bad] == [msg for _, msg in cases]
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
                                                     "DomainError: " + message)
    entry = cli.run_scenario(gaussian_plane_scenario(paths=12.0, seed=3.0),
                             tmp_path)
    estimate = entry["hit_estimate"]
    assert (estimate["n_paths"], estimate["seed"]) == (12, 3)
    assert estimate["dtau"] == pytest.approx(9e-3, rel=1e-15)
    assert estimate["estimator"] == "shrinking-heun"


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
    # one jet for the geometry, whose sample the direct side reads too, and
    # one field call each for the gradient and Hessian stencils of every point
    calls = []
    resolve = catalogs.resolve_immersion

    def counting(scenario, default=None):
        warping, P = resolve(scenario, default)

        def chart(u):
            calls.append(1)
            return P.chart(u)

        return warping, dataclasses.replace(P, chart=chart)

    monkeypatch.setattr(catalogs, "resolve_immersion", counting)
    for points in (6, 40):
        calls.clear()
        entry = cli.run_scenario(identities_scenario(points=points), tmp_path)
        assert entry["status"] == "ok" and entry["points"] == points
        assert entry["radial_identity_max_residual"] <= 1e-6
        assert len(calls) <= 6, (points, len(calls))


def test_scenario_counts_and_radii_are_checked(tmp_path):
    no_submanifold = identities_scenario()
    del no_submanifold["submanifold"]
    cases = [
        (identities_scenario(points=0),
         "DomainError: points must be a positive integer, got 0"),
        (identities_scenario(points=2.7),
         "DomainError: points must be a positive integer, got 2.7"),
        (identities_scenario(points="many"),
         "DomainError: points must be a positive integer, got 'many'"),
        (identities_scenario(seed=True),
         "DomainError: seed must be a non-negative integer, got True"),
        (identities_scenario(seed=-3),
         "DomainError: seed must be a non-negative integer, got -3"),
        (no_submanifold,
         "CatalogError: scenario is missing parameter 'submanifold'"),
        (gaussian_plane_scenario(rho=True),
         "DomainError: rho must be a finite number, got True"),
        (gaussian_plane_scenario(R="4"),
         "DomainError: R must be a finite number, got '4'"),
        ({"id": "cap", "task": "capacity", "model": small_model(),
          "params": {"rho": "1", "R": 2.0}},
         "DomainError: rho must be a finite number, got '1'"),
        ({"id": "cap", "task": "capacity", "model": small_model(),
          "params": {"rho": 1.0, "R": True}},
         "DomainError: R must be a finite number, got True"),
        ({"id": "curves", "task": "curves", "model": small_model("gaussian", 3),
          "params": {"range": [0.5, 2.0], "samples": 3, "rho": True, "R": 4.0}},
         "DomainError: rho must be a finite number, got True"),
    ]
    for samples in (0, "many", 2.5):
        cases.append((
            {"id": "curves", "task": "curves", "model": small_model("gaussian", 3),
             "params": {"range": [0.5, 2.0], "samples": samples}},
            f"DomainError: samples must be a positive integer, got {samples!r}"))
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
        assert entry["error"] == "DomainError: " + shown


def classify_scenario(criterion="radial_weight", **params):
    return {"id": "cls", "task": "classify", "model": small_model("gaussian", 3),
            "params": {"criterion": criterion, "n": 2, **params}}


def test_criterion_numbers_are_checked(tmp_path):
    comparison = {"alpha": "-t", "n": 2, "t0": 1.5}
    cases = [
        (classify_scenario(n=2.7),
         "DomainError: n must be a positive integer, got 2.7"),
        (classify_scenario("parabolic_comparison", n=0, alpha="-t"),
         "DomainError: n must be a positive integer, got 0"),
        (classify_scenario(c=True),
         "DomainError: c must be a finite number, got True"),
        (classify_scenario("bounded_drift", beta="0*t", c="0"),
         "DomainError: c must be a finite number, got '0'"),
        (classify_scenario("ahlfors_direct", t0="2"),
         "DomainError: t0 must be a finite number, got '2'"),
        (classify_scenario("translator_halfspace", alpha="-t", t0=[1.0]),
         "DomainError: t0 must be a finite number, got [1.0]"),
        (classify_scenario("warping_power", k=False),
         "DomainError: k must be a finite number, got False"),
        (gaussian_plane_scenario(comparison={**comparison, "n": 2.5}),
         "DomainError: comparison.n must be a positive integer, got 2.5"),
        (gaussian_plane_scenario(comparison={**comparison, "t0": True}),
         "DomainError: comparison.t0 must be a finite number, got True"),
    ]
    scenarios = [{**sc, "id": f"case{i}"} for i, (sc, _) in enumerate(cases)]
    ok = [{**classify_scenario(n=n, c=c), "id": f"ok{i}"}
          for i, (n, c) in enumerate(((2, 0.0), (2.0, 0)))]
    cli.run_config({"scenarios": scenarios + ok}, tmp_path)
    *bad, first, second = _strict_report(tmp_path)["scenarios"]
    assert [entry.get("error") for entry in bad] == [msg for _, msg in cases]
    assert first["status"] == second["status"] == "ok"
    assert first["verdict"] == second["verdict"]
