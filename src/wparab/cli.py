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
from .radial import AsymptoticHint, NO_HINT

REPORT_VERSION = "1"

_TASKS = ("classify", "capacity", "curves", "mc-verify", "check-identities")


def _hint_from(params):
    spec = params.get("hint")
    if not spec:
        return NO_HINT
    return AsymptoticHint(spec["tag"], spec.get("param"))


def _alpha_from(params):
    if "alpha" in params:
        return rd.RadialProfile.from_expression(params["alpha"])
    return None


# ---------------------------------------------------------------------------
# Task runners


def _run_classify(scenario, outdir):
    params = scenario.get("params", {})
    criterion = params.get("criterion", "ahlfors_direct")
    hint = _hint_from(params)
    model_spec = scenario["model"]
    model = catalogs.resolve_model(model_spec)

    if criterion == "ahlfors_direct":
        verdict = model.ahlfors_classify(params.get("t0", 1.0), hint)
    elif criterion in ("parabolic_comparison", "hyperbolic_comparison"):
        alpha = _alpha_from(params)
        if alpha is None:
            raise ScenarioError("comparison criteria need an 'alpha' expression")
        setup = criteria.ComparisonSetup(model.w, int(params["n"]),
                                         float(params.get("t0", 1.0)), alpha,
                                         hint=hint)
        fn = (criteria.classify_parabolic if criterion == "parabolic_comparison"
              else criteria.classify_hyperbolic)
        verdict = fn(setup)
    elif criterion == "bounded_drift":
        beta = rd.RadialProfile.from_expression(params["beta"])
        verdict = criteria.classify_bounded_drift(
            model.w, int(params["n"]), beta, float(params.get("c", 0.0)),
            params.get("direction", "parabolic"), hint)
    elif criterion == "radial_weight":
        verdict = criteria.classify_radial_weight(
            model.w, int(params["n"]), model.f, float(params.get("c", 0.0)),
            params.get("direction", "parabolic"), hint,
            use_exp_integral=bool(params.get("use_exp_integral", False)))
    elif criterion == "warping_power":
        verdict = criteria.classify_warping_power(
            model.w, int(params["n"]), float(params["k"]),
            float(params.get("t0", 1.0)), hint)
    elif criterion == "translator_halfspace":
        alpha = _alpha_from(params)
        if alpha is None:
            raise ScenarioError("translator criterion needs an 'alpha' expression")
        verdict = criteria.classify_translator_halfspace(
            int(params["n"]), alpha, float(params.get("t0", 1.0)), hint)
    else:
        raise ScenarioError(f"unknown criterion {criterion!r}")
    return {"verdict": verdict.to_dict()}


def _run_capacity(scenario, outdir):
    params = scenario.get("params", {})
    model = catalogs.resolve_model(scenario["model"])
    rho = float(params["rho"])
    R = params.get("R", "inf")
    if R in ("inf", None):
        cap, evidence = model.capacity_to_infinity(rho, _hint_from(params))
        return {"capacity": cap, "rho": rho, "R": None,
                "integral_evidence": evidence.to_dict()}
    report = model.capacity_potential(rho, float(R))
    out = report.to_dict()
    if "eval_at" in params:
        out["potential_values"] = {
            str(s): report.potential(float(s)) for s in params["eval_at"]}
    return {"capacity_report": out}


def _run_curves(scenario, outdir):
    params = scenario.get("params", {})
    model = catalogs.resolve_model(scenario["model"])
    lo, hi = (float(x) for x in params["range"])
    if lo <= model.f.t_min:
        raise ScenarioError(
            f"curve range starts at {lo} but the weight is defined only for "
            f"t > {model.f.t_min}")
    samples = int(params.get("samples", 100))
    n = params.get("n")
    rho, R = params.get("rho"), params.get("R")
    ts = np.linspace(lo, hi, samples)

    include_volume = model.f.t_min == 0.0
    potential = None
    if rho is not None and R is not None:
        potential = model.capacity_potential(float(rho), float(R)).potential

    header = ["t", "area"]
    if include_volume:
        header.append("volume")
    header.append("H")
    if n is not None:
        header.append("Hh_n")
    if potential is not None:
        header.append("phi")

    rows = []
    for t in ts:
        t = float(t)
        row = [repr(t), repr(float(model.sphere_area(t)))]
        if include_volume:
            row.append(repr(float(model.ball_volume(t))))
        row.append(repr(float(model.mean_curvature(t))))
        if n is not None:
            row.append(repr(float(model.weighted_mean_curvature(int(n), t))))
        if potential is not None:
            s = min(max(t, float(rho)), float(R))
            row.append(repr(float(potential(s))))
        rows.append(row)

    path = Path(outdir) / f"{scenario['id']}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return {"csv": path.name, "columns": header, "rows": len(rows)}


def _run_mc_verify(scenario, outdir):
    params = scenario.get("params", {})
    model_spec = scenario["model"]
    m = int(model_spec["m"])
    warping = catalogs.resolve_warping(model_spec.get("warping", {}))
    weight_spec = model_spec.get("weight", {"name": "zero"})
    ambient_weight = catalogs.resolve_ambient_weight(weight_spec, m, warping)

    sub_spec = scenario.get("submanifold", {"name": "radial_scenario"})
    P = catalogs.resolve_submanifold(sub_spec, m, ambient_weight)
    if P.linear is None:
        raise ScenarioError("mc-verify needs an affine chart (plane or "
                            "radial_scenario)")

    rho = float(params["rho"])
    R = float(params["R"])
    N = int(params.get("paths", 10_000))
    seed = int(params.get("seed", 0))
    dtau = float(params.get("dtau", mc.default_step(rho, R)))
    start = np.asarray(params["start"], dtype=float)
    spec = mc.DiffusionSpec(P, dtau, seed,
                            batch_size=int(params.get("batch_size", 20_000)))

    if "R_schedule" in params:
        probe = mc.recurrence_probe(spec, start, rho,
                                    [float(x) for x in params["R_schedule"]], N)
        return {"recurrence_probe": probe.to_dict()}
    if "comparison" in params:
        comp = params["comparison"]
        alpha = rd.RadialProfile.from_expression(comp["alpha"])
        setup = criteria.ComparisonSetup(warping, int(comp["n"]),
                                         float(comp.get("t0", 1.0)), alpha)
        rep = mc.comparison_check(spec, setup, start, rho, R, N,
                                  direction=comp.get("direction", "parabolic"))
        return {"comparison": rep.to_dict()}
    est = mc.hit_probability(spec, start, rho, R, N)
    return {"hit_estimate": est.to_dict()}


def _run_check_identities(scenario, outdir):
    params = scenario.get("params", {})
    model_spec = scenario["model"]
    m = int(model_spec["m"])
    warping = catalogs.resolve_warping(model_spec.get("warping", {}))
    ambient_weight = catalogs.resolve_ambient_weight(
        model_spec.get("weight", {"name": "zero"}), m, warping)
    P = catalogs.resolve_submanifold(scenario["submanifold"], m, ambient_weight)

    psi = rd.RadialProfile.from_expression(params.get("psi", "t^2/2"))
    count = int(params.get("points", 5))
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(int(params.get("seed", 0)), 0x1D))))
    residuals = []
    wmc_norms = []
    for _ in range(count):
        u = np.array([lo + (hi - lo) * rng.random() for lo, hi in P.window])
        residuals.append(ge.radial_identity_residual(P, u, psi))
        s = ge.geometry_at(P, u)
        wmc_norms.append(float(np.linalg.norm(s.wmc_vec)))
    return {
        "radial_identity_max_residual": max(residuals),
        "weighted_mc_norm_max": max(wmc_norms),
        "points": count,
        "psi": params.get("psi", "t^2/2"),
    }


_RUNNERS = {
    "classify": _run_classify,
    "capacity": _run_capacity,
    "curves": _run_curves,
    "mc-verify": _run_mc_verify,
    "check-identities": _run_check_identities,
}


# ---------------------------------------------------------------------------
# Config handling and report assembly


def load_config(path):
    text = Path(path).read_text()
    try:
        config = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(
            f"config parse error at line {err.lineno}, column {err.colno}: "
            f"{err.msg}") from err
    if not isinstance(config, dict) or "scenarios" not in config:
        raise ScenarioError("config must be an object with a 'scenarios' array")
    scenarios = config["scenarios"]
    if not isinstance(scenarios, list):
        raise ScenarioError("'scenarios' must be an array")
    seen = set()
    for i, sc in enumerate(scenarios):
        if not isinstance(sc, dict):
            raise ScenarioError(f"scenario #{i} is not an object")
        if "id" not in sc:
            raise ScenarioError(f"scenario #{i} is missing 'id'")
        if sc["id"] in seen:
            raise ScenarioError(f"duplicate scenario id {sc['id']!r}")
        seen.add(sc["id"])
        if sc.get("task") not in _TASKS:
            raise ScenarioError(
                f"scenario {sc['id']!r}: unknown task {sc.get('task')!r} "
                f"(expected one of {_TASKS})")
    return config


def run_scenario(scenario, outdir):
    try:
        result = _RUNNERS[scenario["task"]](scenario, outdir)
        return {"id": scenario["id"], "task": scenario["task"],
                "status": "ok", "inputs": scenario, **result}
    except Exception as err:  # any failure stays inside its own report entry
        return {"id": scenario["id"], "task": scenario["task"],
                "status": "error", "inputs": scenario,
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
                       help="override the seed of every scenario")
        p.set_defaults(tasks=tasks)

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
    except (ScenarioError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    if args.seed is not None:
        for sc in config["scenarios"]:
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
