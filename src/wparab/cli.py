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
from .catalogs import _param
from .errors import (DomainError, ScenarioError, finite_number, json_object, number_list,
                     whole_number)
from .radial import HINT_TAGS, NO_HINT, AsymptoticHint

REPORT_VERSION = "4"

_TASKS = ("classify", "capacity", "curves", "mc-verify", "check-identities")
_MODEL_TASKS = ("classify", "capacity", "curves")


def _params(scenario):
    return json_object("params", scenario.get("params", {}))


def _hint_from(params):
    spec = params.get("hint")
    if spec is None:
        return NO_HINT
    tag = json_object("hint", spec).get("tag")
    if tag not in HINT_TAGS:
        raise DomainError(f"hint.tag must be one of {HINT_TAGS}, got {tag!r}")
    param = spec.get("param")
    return AsymptoticHint(tag, None if param is None else finite_number("hint.param", param))


def _alpha_from(params):
    if "alpha" in params:
        return rd.RadialProfile.from_expression(params["alpha"])
    return None


def _n(params, part, prefix=""):
    return whole_number(prefix + "n", _param(params, "n", part))


def _t0(params, prefix=""):
    return finite_number(prefix + "t0", params.get("t0", 1.0))


# ---------------------------------------------------------------------------
# Task runners


def _run_classify(scenario, outdir):
    params = _params(scenario)
    criterion = params.get("criterion", "ahlfors_direct")
    part = f"criterion {criterion!r}"
    hint = _hint_from(params)
    alpha = _alpha_from(params)
    model = catalogs.resolve_model(scenario.get("model"))

    if criterion == "ahlfors_direct":
        verdict = model.ahlfors_classify(_t0(params), hint)
    elif criterion in ("parabolic_comparison", "hyperbolic_comparison"):
        if alpha is None:
            raise ScenarioError("comparison criteria need an 'alpha' expression")
        setup = criteria.ComparisonSetup(model.w, _n(params, part), _t0(params),
                                         alpha, hint=hint)
        fn = (criteria.classify_parabolic if criterion == "parabolic_comparison"
              else criteria.classify_hyperbolic)
        verdict = fn(setup)
    elif criterion == "bounded_drift":
        beta = rd.RadialProfile.from_expression(_param(params, "beta", part))
        verdict = criteria.classify_bounded_drift(
            model.w, _n(params, part), beta, finite_number("c", params.get("c", 0.0)),
            params.get("direction", "parabolic"), hint)
    elif criterion == "radial_weight":
        use_exp = params.get("use_exp_integral", False)
        if not isinstance(use_exp, bool):
            raise DomainError(f"use_exp_integral must be true or false, got {use_exp!r}")
        verdict = criteria.classify_radial_weight(
            model.w, _n(params, part), model.f, finite_number("c", params.get("c", 0.0)),
            params.get("direction", "parabolic"), hint, use_exp_integral=use_exp)
    elif criterion == "warping_power":
        verdict = criteria.classify_warping_power(
            model.w, _n(params, part), finite_number("k", _param(params, "k", part)),
            _t0(params), hint)
    elif criterion == "translator_halfspace":
        if alpha is None:
            raise ScenarioError("translator criterion needs an 'alpha' expression")
        verdict = criteria.classify_translator_halfspace(
            _n(params, part), alpha, _t0(params), hint)
    else:
        raise ScenarioError(f"unknown criterion {criterion!r}")
    return {"verdict": verdict.to_dict()}


def _run_capacity(scenario, outdir):
    params = _params(scenario)
    model = catalogs.resolve_model(scenario.get("model"))
    rho = finite_number("rho", _param(params, "rho", "task 'capacity'"))
    hint = _hint_from(params)
    R = params.get("R", "inf")
    if R in ("inf", None):
        cap, evidence = model.capacity_to_infinity(rho, hint)
        return {"capacity": cap, "rho": rho, "R": None,
                "integral_evidence": evidence.to_dict()}
    report = model.capacity_potential(rho, finite_number("R", R))
    out = report.to_dict()
    if "eval_at" in params:
        radii = number_list("eval_at", params["eval_at"])
        values = report.potential(np.array(radii)).tolist()
        out["potential_values"] = dict(zip(map(str, params["eval_at"]), values))
    return {"capacity_report": out}


def _run_curves(scenario, outdir):
    params, part = _params(scenario), "task 'curves'"
    model = catalogs.resolve_model(scenario.get("model"))
    lo, hi = number_list("range", _param(params, "range", part), 2)
    if lo <= model.f.t_min:
        raise ScenarioError(
            f"curve range starts at {lo} but the weight is defined only for "
            f"t > {model.f.t_min}")
    samples = whole_number("samples", params.get("samples", 100))
    n = _n(params, part) if params.get("n") is not None else None
    ts = np.linspace(lo, hi, samples)

    # (name, column on an array of radii), in header order
    table = [("t", lambda t: t), ("area", model.sphere_area)]
    if model.f.t_min == 0.0:
        table.append(("volume", model.ball_volume))
    table.append(("H", model.mean_curvature))
    if n is not None:
        table.append(("Hh_n", lambda t: model.weighted_mean_curvature(n, t)))
    if params.get("rho") is not None or params.get("R") is not None:
        # the phi column needs both radii
        rho = finite_number("rho", _param(params, "rho", part))
        R = finite_number("R", _param(params, "R", part))
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
    params, part = _params(scenario), "task 'mc-verify'"
    warping, P = catalogs.resolve_immersion(scenario,
                                            {"name": "radial_scenario"})
    if P.linear is None:
        raise ScenarioError("mc-verify needs an affine chart (plane or "
                            "radial_scenario)")

    rho = finite_number("rho", _param(params, "rho", part))
    R = finite_number("R", _param(params, "R", part))
    N = whole_number("paths", params.get("paths", 10_000))
    start = _param(params, "start", part)
    spec = mc.DiffusionSpec(P, params.get("dtau", mc.default_step(rho, R)),
                            params.get("seed", 0),
                            batch_size=params.get("batch_size", 20_000))

    if "R_schedule" in params:
        probe = mc.recurrence_probe(spec, start, rho,
                                    number_list("R_schedule", params["R_schedule"]), N)
        return {"recurrence_probe": probe.to_dict()}
    if "comparison" in params:
        comp = json_object("comparison", params["comparison"])
        alpha = rd.RadialProfile.from_expression(_param(comp, "alpha", "comparison"))
        setup = criteria.ComparisonSetup(warping, _n(comp, "comparison", "comparison."),
                                         _t0(comp, "comparison."), alpha)
        rep = mc.comparison_check(spec, setup, start, rho, R, N,
                                  direction=comp.get("direction", "parabolic"))
        return {"comparison": rep.to_dict()}
    est = mc.hit_probability(spec, start, rho, R, N)
    return {"hit_estimate": est.to_dict()}


def _run_check_identities(scenario, outdir):
    params = _params(scenario)
    _, P = catalogs.resolve_immersion(scenario)
    psi = rd.RadialProfile.from_expression(params.get("psi", "t^2/2"))
    count = whole_number("points", params.get("points", 5))
    seed = whole_number("seed", params.get("seed", 0), positive=False)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(seed, 0x1D))))
    U = np.array([[lo + (hi - lo) * rng.random() for lo, hi in P.window]
                  for _ in range(count)])
    s = ge.geometry_at_batch(P, U)
    residuals = ge.radial_identity_residual(P, s, psi)
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
