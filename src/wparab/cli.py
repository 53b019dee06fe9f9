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

REPORT_VERSION = "3"

_TASKS = ("classify", "capacity", "curves", "mc-verify", "check-identities")
_MODEL_TASKS = ("classify", "capacity", "curves")


def _hint_from(params):
    spec = params.get("hint")
    if not spec:
        return NO_HINT
    return AsymptoticHint(spec["tag"], spec.get("param"))


def _alpha_from(params):
    if "alpha" in params:
        return rd.RadialProfile.from_expression(params["alpha"])
    return None


def _n(params, prefix=""):
    return mc.whole_number(prefix + "n", params["n"])


def _t0(params, prefix=""):
    return mc.finite_number(prefix + "t0", params.get("t0", 1.0))


# ---------------------------------------------------------------------------
# Task runners


def _run_classify(scenario, outdir):
    params = scenario.get("params", {})
    criterion = params.get("criterion", "ahlfors_direct")
    hint = _hint_from(params)
    model_spec = scenario["model"]
    model = catalogs.resolve_model(model_spec)

    if criterion == "ahlfors_direct":
        verdict = model.ahlfors_classify(_t0(params), hint)
    elif criterion in ("parabolic_comparison", "hyperbolic_comparison"):
        alpha = _alpha_from(params)
        if alpha is None:
            raise ScenarioError("comparison criteria need an 'alpha' expression")
        setup = criteria.ComparisonSetup(model.w, _n(params), _t0(params),
                                         alpha, hint=hint)
        fn = (criteria.classify_parabolic if criterion == "parabolic_comparison"
              else criteria.classify_hyperbolic)
        verdict = fn(setup)
    elif criterion == "bounded_drift":
        beta = rd.RadialProfile.from_expression(params["beta"])
        verdict = criteria.classify_bounded_drift(
            model.w, _n(params), beta, mc.finite_number("c", params.get("c", 0.0)),
            params.get("direction", "parabolic"), hint)
    elif criterion == "radial_weight":
        verdict = criteria.classify_radial_weight(
            model.w, _n(params), model.f, mc.finite_number("c", params.get("c", 0.0)),
            params.get("direction", "parabolic"), hint,
            use_exp_integral=bool(params.get("use_exp_integral", False)))
    elif criterion == "warping_power":
        verdict = criteria.classify_warping_power(
            model.w, _n(params), mc.finite_number("k", params["k"]),
            _t0(params), hint)
    elif criterion == "translator_halfspace":
        alpha = _alpha_from(params)
        if alpha is None:
            raise ScenarioError("translator criterion needs an 'alpha' expression")
        verdict = criteria.classify_translator_halfspace(
            _n(params), alpha, _t0(params), hint)
    else:
        raise ScenarioError(f"unknown criterion {criterion!r}")
    return {"verdict": verdict.to_dict()}


def _run_capacity(scenario, outdir):
    params = scenario.get("params", {})
    model = catalogs.resolve_model(scenario["model"])
    rho = mc.finite_number("rho", params["rho"])
    R = params.get("R", "inf")
    if R in ("inf", None):
        cap, evidence = model.capacity_to_infinity(rho, _hint_from(params))
        return {"capacity": cap, "rho": rho, "R": None,
                "integral_evidence": evidence.to_dict()}
    report = model.capacity_potential(rho, mc.finite_number("R", R))
    out = report.to_dict()
    if "eval_at" in params:
        radii = [float(s) for s in params["eval_at"]]
        values = report.potential(np.array(radii)).tolist()
        out["potential_values"] = {
            str(s): phi for s, phi in zip(params["eval_at"], values)}
    return {"capacity_report": out}


def _run_curves(scenario, outdir):
    params = scenario.get("params", {})
    model = catalogs.resolve_model(scenario["model"])
    lo, hi = (float(x) for x in params["range"])
    if lo <= model.f.t_min:
        raise ScenarioError(
            f"curve range starts at {lo} but the weight is defined only for "
            f"t > {model.f.t_min}")
    samples = mc.whole_number("samples", params.get("samples", 100))
    n = params.get("n")
    rho, R = params.get("rho"), params.get("R")
    ts = np.linspace(lo, hi, samples)

    include_volume = model.f.t_min == 0.0
    phi = None
    if rho is not None and R is not None:
        rho, R = mc.finite_number("rho", rho), mc.finite_number("R", R)
        phi = model.capacity_potential(rho, R).potential(np.clip(ts, rho, R))

    header = ["t", "area"]
    if include_volume:
        header.append("volume")
    header.append("H")
    if n is not None:
        header.append("Hh_n")
    if phi is not None:
        header.append("phi")

    def columns(t):
        cols = [t, model.sphere_area(t)]
        if include_volume:
            cols.append(model.ball_volume(t))
        cols.append(model.mean_curvature(t))
        if n is not None:
            cols.append(model.weighted_mean_curvature(int(n), t))
        return cols

    try:
        cols = columns(ts)
    except Exception:
        # the error of a row-by-row table: its first failing row, with the
        # columns in header order
        for i in range(len(ts)):
            columns(ts[i:i + 1])
        raise
    if phi is not None:
        cols.append(phi)
    rows = [[repr(x) for x in row]
            for row in zip(*(np.broadcast_to(c, ts.shape).tolist() for c in cols))]

    path = Path(outdir) / f"{scenario['id']}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return {"csv": path.name, "columns": header, "rows": len(rows)}


def _run_mc_verify(scenario, outdir):
    params = scenario.get("params", {})
    warping, P = catalogs.resolve_immersion(scenario,
                                            {"name": "radial_scenario"})
    if P.linear is None:
        raise ScenarioError("mc-verify needs an affine chart (plane or "
                            "radial_scenario)")

    rho = mc.finite_number("rho", params["rho"])
    R = mc.finite_number("R", params["R"])
    N = mc.whole_number("paths", params.get("paths", 10_000))
    start = params["start"]
    spec = mc.DiffusionSpec(P, params.get("dtau", mc.default_step(rho, R)),
                            params.get("seed", 0),
                            batch_size=params.get("batch_size", 20_000))

    if "R_schedule" in params:
        probe = mc.recurrence_probe(spec, start, rho,
                                    [float(x) for x in params["R_schedule"]], N)
        return {"recurrence_probe": probe.to_dict()}
    if "comparison" in params:
        comp = params["comparison"]
        alpha = rd.RadialProfile.from_expression(comp["alpha"])
        setup = criteria.ComparisonSetup(warping, _n(comp, "comparison."),
                                         _t0(comp, "comparison."), alpha)
        rep = mc.comparison_check(spec, setup, start, rho, R, N,
                                  direction=comp.get("direction", "parabolic"))
        return {"comparison": rep.to_dict()}
    est = mc.hit_probability(spec, start, rho, R, N)
    return {"hit_estimate": est.to_dict()}


def _run_check_identities(scenario, outdir):
    params = scenario.get("params", {})
    _, P = catalogs.resolve_immersion(scenario)
    psi = rd.RadialProfile.from_expression(params.get("psi", "t^2/2"))
    count = mc.whole_number("points", params.get("points", 5))
    seed = mc.whole_number("seed", params.get("seed", 0), positive=False)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(seed, 0x1D))))
    U = np.array([[lo + (hi - lo) * rng.random() for lo, hi in P.window]
                  for _ in range(count)])
    s = ge.geometry_at_batch(P, U)
    residuals = ge.radial_identity_residual(P, U, psi, sample=s)
    return {
        "radial_identity_max_residual": float(residuals.max()),
        "weighted_mc_norm_max": float(ge._norm(s.wmc_vec).max()),
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
        model = sc.get("model")
        m = model.get("m") if isinstance(model, dict) else None
        if m is not None and not (
                (isinstance(m, int) and not isinstance(m, bool))
                or (isinstance(m, float) and m.is_integer())):
            raise ScenarioError(
                f"scenarios[{i}].model.m must be an integer, got {m!r}")
        if sc.get("task") not in _TASKS:
            raise ScenarioError(
                f"scenario {sc['id']!r}: unknown task {sc.get('task')!r} "
                f"(expected one of {_TASKS})")
    for i, sc in enumerate(scenarios):
        if sc["task"] in _MODEL_TASKS and not isinstance(sc.get("model"), dict):
            raise ScenarioError(
                f"scenarios[{i}].model is missing or not an object "
                f"(task {sc['task']!r} needs a model)")
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
