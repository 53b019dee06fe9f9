"""Configuration-driven front end.

``wparab run config.json`` executes a list of scenarios (classification,
capacity, curve tables, Monte Carlo verification, identity checks) and
writes a machine-readable report plus plot-ready CSV files.  Every
tolerance, seed and window is serialized into the report so each number is
reproducible from the report alone.  Exit codes: 0 success, 1 scenario
error(s), 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import catalogs, criteria, geometry as ge, montecarlo as mc, radial as rd
from .errors import ScenarioError
from .fields import (BOOL, COUNT, EXPRESSION, FINITE, INF_OR_FINITE, NUMBERS, OPTIONAL, PAIR,
                     POSITIVE, REQUIRED, SEED, TEXT, Catalog, Entry, Field, Spec, is_number,
                     one_of)

REPORT_VERSION = "8"


def _profile(source):
    return rd.RadialProfile.from_expression(source)


# ---------------------------------------------------------------------------
# Task runners: each reads a scenario checked against its table (SCENARIO)


def _run_classify(scenario, outdir):
    params = scenario["params"]
    model = catalogs.resolve_model(scenario["model"])
    return {"verdict": CRITERIA.build(params, model).to_dict()}


def _run_capacity(scenario, outdir):
    params = scenario["params"]
    model = catalogs.resolve_model(scenario["model"])
    rho, R = params["rho"], params["R"]
    if R == "inf":
        cap, evidence = model.capacity_to_infinity(rho)
        return {"capacity": cap, "rho": rho, "R": None,
                "integral_evidence": evidence.to_dict()}
    report = model.capacity_potential(rho, R)
    out = report.to_dict()
    if "eval_at" in params:
        values = report.potential(np.array(params["eval_at"], dtype=float)).tolist()
        out["potential_values"] = dict(zip(map(str, params["eval_at"]), values))
    return {"capacity_report": out}


def _run_curves(scenario, outdir):
    params = scenario["params"]
    model = catalogs.resolve_model(scenario["model"])
    lo, hi = params["range"]
    if lo <= model.f.t_min:
        raise ScenarioError(
            f"curve range starts at {lo} but the weight is defined only for "
            f"t > {model.f.t_min}")
    ts = np.linspace(lo, hi, params["samples"])

    # (name, column on an array of radii), in header order
    table = [("t", lambda t: t), ("area", model.sphere_area)]
    if model.f.t_min == 0.0:
        table.append(("volume", model.ball_volume))
    table.append(("H", model.mean_curvature))
    if "n" in params:
        table.append(("Hh_n", lambda t: model.weighted_mean_curvature(params["n"], t)))
    if "rho" in params:
        # the phi column, read with both radii
        rho, R = params["rho"], params["R"]
        potential = model.capacity_potential(rho, R).potential
        table.append(("phi", lambda t: potential(np.clip(t, rho, R))))
    header = [name for name, _ in table]

    def columns(t):
        return [column(t) for _, column in table]

    try:
        cols = columns(ts)
    except Exception:
        # the error of a row-by-row table: its first failing row, with the
        # columns in header order
        for i in range(len(ts)):
            columns(ts[i:i + 1])
        raise
    rows = [[repr(x) for x in row]
            for row in zip(*(np.broadcast_to(c, ts.shape).tolist() for c in cols))]

    path = Path(outdir) / f"{scenario['id']}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return {"csv": path.name, "columns": header, "rows": len(rows)}


def _run_mc_verify(scenario, outdir):
    params = scenario["params"]
    warping, P = catalogs.resolve_immersion(scenario)
    rho, R, start, N = params["rho"], params["R"], params["start"], params["paths"]
    spec = mc.DiffusionSpec(P, params.get("dtau"), params["seed"])
    if "R_schedule" in params:
        probe = mc.recurrence_probe(spec, start, rho, params["R_schedule"], N)
        return {"recurrence_probe": probe.to_dict()}
    if "comparison" in params:
        comp = params["comparison"]
        setup = criteria.ComparisonSetup(warping, comp["n"], comp["t0"],
                                         _profile(comp["alpha"]))
        rep = mc.comparison_check(spec, setup, start, rho, R, N,
                                  direction=comp["direction"])
        return {"comparison": rep.to_dict()}
    est = mc.hit_probability(spec, start, rho, R, N)
    return {"hit_estimate": est.to_dict()}


def _run_check_identities(scenario, outdir):
    params = scenario["params"]
    _, P = catalogs.resolve_immersion(scenario)
    psi = _profile(params["psi"])
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(params["seed"], 0x1D))))
    U = np.array([[lo + (hi - lo) * rng.random() for lo, hi in P.window]
                  for _ in range(params["points"])])
    s = ge.geometry_at_batch(P, U)
    residuals = ge.radial_identity_residual(P, s, psi)
    return {
        "radial_identity_max_residual": float(residuals.max()),
        "weighted_mc_norm_max": float(ge._norm(s.wmc_vec).max()),
        "points": params["points"],
        "psi": params["psi"],
    }


# ---------------------------------------------------------------------------
# The declared fields of each task and criterion (docs/scenario-format.md)

N = Field(COUNT)
T0 = Field(FINITE, 1.0)
C = Field(FINITE, 0.0)
ALPHA = Field(EXPRESSION)
DIRECTION = Field(one_of("parabolic", "hyperbolic"), "parabolic")
SETUP = {"n": N, "t0": T0, "alpha": ALPHA}


def _comparison(classify):
    return lambda p, model: classify(criteria.ComparisonSetup(
        model.w, p["n"], p["t0"], _profile(p["alpha"])))


# builders take the checked params and the model
CRITERIA = Catalog("criterion", "ahlfors_direct", {
    "ahlfors_direct": Entry(
        {"t0": T0}, lambda p, model: model.ahlfors_classify(p["t0"])),
    "parabolic_comparison": Entry(SETUP, _comparison(criteria.classify_parabolic)),
    "hyperbolic_comparison": Entry(SETUP, _comparison(criteria.classify_hyperbolic)),
    "bounded_drift": Entry(
        {"n": N, "beta": Field(EXPRESSION), "c": C, "direction": DIRECTION},
        lambda p, model: criteria.classify_bounded_drift(
            model.w, p["n"], _profile(p["beta"]), p["c"], p["direction"])),
    "radial_weight": Entry(
        {"n": N, "c": C, "direction": DIRECTION, "use_exp_integral": Field(BOOL, False)},
        lambda p, model: criteria.classify_radial_weight(
            model.w, p["n"], model.f, p["c"], p["direction"],
            use_exp_integral=p["use_exp_integral"])),
    "warping_power": Entry(
        {"n": N, "k": Field(FINITE), "t0": T0},
        lambda p, model: criteria.classify_warping_power(
            model.w, p["n"], p["k"], p["t0"])),
    "translator_halfspace": Entry(
        SETUP, lambda p, model: criteria.classify_translator_halfspace(
            p["n"], _profile(p["alpha"]), p["t0"])),
}, key="criterion")

# the keys of potential_values echo the radii as written
EVAL_AT = Field(NUMBERS._replace(convert=None), OPTIONAL,
                only=("with a finite R", lambda p: is_number(p.get("R"))))
CAPACITY = Spec("capacity params", {
    "rho": Field(FINITE), "R": Field(INF_OR_FINITE, "inf"), "eval_at": EVAL_AT})
CURVES = Spec("curves params", {
    "range": Field(PAIR), "samples": Field(COUNT, 100), "n": Field(COUNT, OPTIONAL),
    "rho": Field(FINITE, OPTIONAL, only=("with R", lambda p: "R" in p)),
    "R": Field(FINITE, OPTIONAL, only=("with rho", lambda p: "rho" in p))})
COMPARISON = Spec("comparison", {"alpha": ALPHA, "n": N, "t0": T0, "direction": DIRECTION})
MC_VERIFY = Spec("mc-verify params", {
    "start": Field(NUMBERS), "rho": Field(FINITE), "R": Field(FINITE),
    "paths": Field(COUNT, 10_000), "seed": Field(SEED, 0),
    "dtau": Field(POSITIVE, OPTIONAL),
    "R_schedule": Field(NUMBERS, OPTIONAL),
    "comparison": Field(COMPARISON, OPTIONAL,
                        only=("without R_schedule", lambda p: "R_schedule" not in p))})
CHECK_IDENTITIES = Spec("check-identities params", {
    "psi": Field(EXPRESSION, "t^2/2"), "points": Field(COUNT, 5), "seed": Field(SEED, 0)})

MODEL = Field(catalogs.MODEL)
IMMERSION = Field(catalogs.IMMERSION_MODEL)

# builders take the checked scenario and the output directory
SCENARIO = Catalog("task", REQUIRED, {
    "classify": Entry({"model": MODEL, "params": Field(CRITERIA, {})}, _run_classify),
    "capacity": Entry({"model": MODEL, "params": Field(CAPACITY, {})}, _run_capacity),
    "curves": Entry({"model": MODEL, "params": Field(CURVES, {})}, _run_curves),
    "mc-verify": Entry(
        {"model": IMMERSION,
         "submanifold": Field(catalogs.SUBMANIFOLDS, {"name": "radial_scenario"}),
         "params": Field(MC_VERIFY, {})}, _run_mc_verify),
    "check-identities": Entry(
        {"model": IMMERSION, "submanifold": Field(catalogs.SUBMANIFOLDS),
         "params": Field(CHECK_IDENTITIES, {})}, _run_check_identities),
}, key="task", common={"id": Field(TEXT)})


# ---------------------------------------------------------------------------
# Config handling and report assembly


def _non_json_number(token):
    raise ScenarioError(f"config holds the non-JSON number {token}")


def load_config(path):
    text = Path(path).read_text()
    try:
        config = json.loads(text, parse_constant=_non_json_number)
    except json.JSONDecodeError as err:
        raise ScenarioError(
            f"config parse error at line {err.lineno}, column {err.colno}: "
            f"{err.msg}") from err
    if not (isinstance(config, dict) and list(config) == ["scenarios"]
            and isinstance(config["scenarios"], list)):
        raise ScenarioError("config must be an object whose one field is a "
                            "'scenarios' array")
    seen = set()
    for i, sc in enumerate(config["scenarios"]):
        sc = SCENARIO.check(sc, f"scenarios[{i}]")
        if sc["id"] in seen:
            raise ScenarioError(f"scenarios[{i}].id duplicates {sc['id']!r}")
        seen.add(sc["id"])
    return config


def run_scenario(scenario, outdir):
    """The report entry of one scenario; it names the ``id`` and ``task``
    that the scenario has, so a scenario without them still gets one."""
    names = scenario if isinstance(scenario, dict) else {}
    entry = {key: names[key] for key in ("id", "task") if key in names}
    try:
        result = SCENARIO.build(SCENARIO.check(scenario, ""), outdir)
        return {**entry, "status": "ok", "inputs": scenario, **result}
    except Exception as err:  # any failure stays inside its own report entry
        return {**entry, "status": "error", "inputs": scenario,
                "error": f"{type(err).__name__}: {err}"}


def run_config(config, outdir, workers=1, task_filter=None):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    scenarios = [sc for sc in config["scenarios"]
                 if task_filter is None or sc["task"] in task_filter]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda sc: run_scenario(sc, outdir),
                                    scenarios))
    else:
        results = [run_scenario(sc, outdir) for sc in scenarios]
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()
    report = {
        "version": REPORT_VERSION,
        "config_digest": digest,
        "scenarios": results,
    }
    report_path = outdir / "report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return report


def _exit_code(report):
    if any(sc["status"] == "error" for sc in report["scenarios"]):
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wparab",
        description="Weighted-manifold capacity, parabolicity and curvature "
                    "toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, tasks, blurb in (
            ("run", None, "run every scenario in a config file"),
            ("curves", ("curves",), "run only the curve-table scenarios"),
            ("mc-verify", ("mc-verify",), "run only the Monte Carlo scenarios")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("config", help="JSON scenario file")
        p.add_argument("--out", default="wparab-out", help="output directory")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed of every scenario that takes one")
        p.set_defaults(tasks=tasks)

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
    except (ScenarioError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    if args.seed is not None:
        for sc in config["scenarios"]:     # the tasks that declare a seed
            if "seed" in SCENARIO.check(sc, "")["params"]:
                sc.setdefault("params", {})["seed"] = args.seed
    report = run_config(config, args.out, workers=args.workers,
                        task_filter=args.tasks)
    for sc in report["scenarios"]:
        line = f"{sc['id']}: {sc['status']}"
        if sc["status"] == "error":
            line += f" ({sc['error']})"
        elif "verdict" in sc:
            line += f" -> {sc['verdict']['outcome']}"
        print(line)
    return _exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
