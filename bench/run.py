"""wparab benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload model-sweep --seed 1 --seconds 20 --trace 0

The workload's jobs are generated from the seed and run in one process,
single-threaded, through ``wparab.cli.load_config``/``run_config``/
``run_scenario`` and, for jobs the scenario format cannot express, the
public library functions.  The job list is run in passes until
``--seconds`` have elapsed (at least two passes), and every output is
checked against an oracle (``oracles.py``) and against the same job's
output in the other passes, byte for byte.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: counts and
self times from the traced passes, the tracing overhead from their
difference.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# single-threaded numerics: fixed before numpy is imported anywhere
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
MIN_PASSES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root):
    """HEAD of a git checkout, read from its files; the benchmark may run
    in a plain copy of the tree, where there is none."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable"


def _source_digest(src):
    h = hashlib.sha256()
    for path in sorted((src / "wparab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root, src, seed):
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(src),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Set-up


def measure_setup(src, config_path):
    """Median over fresh interpreters of import + load_config, each
    sample scaled by the speed kernel run in the same interpreter."""
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(src),
             str(config_path)],
            capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"] * speed.KERNEL_REF_S / probe["kernel_s"])
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# Jobs


class Runner:
    """Runs one job through the program's public entry points."""

    def __init__(self, outdir):
        import wparab.cli as cli
        from wparab import criteria, geometry, radial
        from wparab.model import WeightedModel

        self.cli, self.cr, self.ge, self.rd = cli, criteria, geometry, radial
        self.WeightedModel = WeightedModel
        self.outdir = outdir

    def run(self, job, scenario):
        """(seconds, output, output bytes, job directory) of one run."""
        if scenario is not None:
            jobdir = self.outdir / "jobs" / job.id
            jobdir.mkdir(parents=True, exist_ok=True)
            t0 = perf_counter()
            report = self.cli.run_config({"scenarios": [scenario]}, jobdir)
            elapsed = perf_counter() - t0
            blobs = [(jobdir / "report.json").read_bytes()]
            entry = report["scenarios"][0]
            if entry.get("csv"):
                blobs.append((jobdir / entry["csv"]).read_bytes())
            return elapsed, entry, blobs, jobdir
        build = getattr(self, "_" + job.call["fn"])
        t0 = perf_counter()
        value = build(job.call)
        elapsed = perf_counter() - t0
        blob = json.dumps(value, sort_keys=True).encode()
        return elapsed, value, [blob], None

    def _critical_sphere_radius(self, call):
        rd = self.rd
        weight = (rd.weight_gaussian() if call["weight"] == "gaussian"
                  else rd.RadialProfile.from_expression(f"-{call['c']}*t^2"))
        model = self.WeightedModel(call["m"], rd.warping_euclidean(), weight)
        return model.critical_sphere_radius(call["n"], call["lambda0"],
                                            mode=call["mode"])

    def _index_form(self, call):
        ge, rd = self.ge, self.rd
        P = ge.euclidean_sphere(call["a"], 3, ge.RadialWeight(rd.weight_gaussian()))
        d = call["delta"]
        return ge.index_form(P, lambda u: 1.0,
                             box=((d, math.pi - d), (0.0, 2.0 * math.pi)),
                             panels=call["panels"])

    def _classify_parabolic(self, call):
        ge, rd, cr = self.ge, self.rd, self.cr
        sub = call["submanifold"]
        weight = ge.RadialWeight(rd.weight_gaussian())
        if sub["name"] == "coordinate_plane":
            P = ge.coordinate_plane(sub["m"], tuple(sub["axes"]), weight)
        else:
            P = ge.hyperplane(3, sub["normal"], sub["offset"], weight)
        setup = cr.ComparisonSetup(rd.warping_euclidean(), call["n"], call["t0"],
                                   rd.RadialProfile.from_expression(call["alpha"]))
        window = tuple(tuple(w) for w in call["window"])
        return cr.classify_parabolic(setup, P, window,
                                     assume_drift_bound=True).to_dict()


def check_output(job, output, jobdir):
    if job.scenario is not None and output.get("status") != "ok":
        return [f"status {output.get('status')}: {output.get('error')}"]
    return oracles.CHECKS[job.kind](job, output, jobdir)


class Record:
    """Timings, output digest and problems of one job across passes."""

    def __init__(self):
        self.runs = {}              # pass index -> (start, elapsed)
        self.scaled = {}            # pass index -> speed-scaled seconds
        self.digest = None
        self.problems = []
        self.report_bytes = 0


def run_pass(index, jobs, scenarios, runner, records, probe, tracer):
    for job in jobs:
        rec = records[job.id]
        probe.maybe_sample()
        start = perf_counter()
        try:
            with tracer.job(job.id) if tracer is not None else nullcontext():
                elapsed, output, blobs, jobdir = runner.run(job, scenarios.get(job.id))
        except Exception as err:  # the harness keeps going: one defect, one job
            rec.problems.append(f"exception {type(err).__name__}: {err}")
            continue
        rec.runs[index] = (start, elapsed)
        digest = hashlib.sha256(b"".join(blobs)).hexdigest()
        if rec.digest is None:
            rec.digest = digest
            rec.report_bytes = len(blobs[0]) if job.scenario is not None else 0
            try:
                rec.problems += check_output(job, output, jobdir)
            except Exception as err:
                rec.problems.append(f"oracle raised {type(err).__name__}: {err}")
        elif digest != rec.digest:
            rec.problems.append("output bytes differ between two runs of one seed")
    probe.sample()


# ---------------------------------------------------------------------------
# Metrics


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of
    all order statistics.  Unlike the interpolation of two neighbouring
    order statistics it does not jump when jobs near the quantile trade
    places from one run to the next."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ xs)


def metric(value, unit):
    return {"value": value, "unit": unit}


def pass_walls(records, jobs, indices):
    return [math.fsum(records[j.id].scaled[i] for j in jobs
                      if i in records[j.id].scaled) for i in indices]


def end_to_end(records, jobs, untraced, setup_s, paths):
    per_job = [statistics.median(records[j.id].scaled[i] for i in untraced
                                 if i in records[j.id].scaled)
               for j in jobs if records[j.id].scaled]
    wall = math.fsum(per_job)
    p90 = quantile(per_job, 0.9)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall, "s"),
        "job_p50_ms": metric(1e3 * quantile(per_job, 0.5), "ms"),
        "job_p90_ms": metric(1e3 * p90, "ms"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
    }
    extra = {"jobs_timed": len(per_job),
             "beyond_p90": sum(1 for x in per_job if x > p90),
             "paths_per_s": paths / wall if wall else 0.0}
    return metrics, extra


def _scaled_sum(records, index, table, key):
    """Sum over the jobs of one traced pass of a per-job time, scaled by
    each job's speed factor.  A job that raised in that pass has no
    timing there and is left out."""
    total = 0.0
    for job_id, parts in table.items():
        if index not in records[job_id].runs:
            continue
        elapsed = records[job_id].runs[index][1]
        total += parts.get(key, 0.0) * records[job_id].scaled[index] / elapsed
    return total


def per_layer(tracers, records, jobs, untraced, traced):
    first = tracers[0]
    c = first.counts
    mc = first.mc

    def med_self(layer):
        return statistics.median(_scaled_sum(records, i, t.job_self, layer)
                                 for t, i in zip(tracers, traced))

    def med_incl(name):
        return statistics.median(_scaled_sum(records, i, t.job_inclusive, name)
                                 for t, i in zip(tracers, traced))

    def per_call(name, scale):
        return scale * med_incl(name) / c[name] if c[name] else 0.0

    def layer_calls(layer):
        return sum(v for k, v in c.items()
                   if k.startswith(layer + ".") and k.count(".") == 1)

    untraced_wall = statistics.median(pass_walls(records, jobs, untraced))
    traced_wall = statistics.median(pass_walls(records, jobs, traced))
    paths = mc["paths"]
    steps = round(mc["path_steps"])
    out = {
        "expr.calls": metric(layer_calls("expr"), "count"),
        "expr.self_s": metric(med_self("expr"), "s"),
        "radial.integrate.calls": metric(c["radial.integrate"], "count"),
        "radial.integrate.evals": metric(c["radial.integrate.evals"], "count"),
        "radial.classify_improper.calls": metric(c["radial.classify_improper"], "count"),
        "radial.classify_improper.doublings": metric(
            c["radial.classify_improper.doublings"], "count"),
        "radial.find_root.calls": metric(c["radial.find_root"], "count"),
        "radial.self_s": metric(med_self("radial"), "s"),
        "model.capacity_potential.calls": metric(c["model.capacity_potential"], "count"),
        "model.capacity_potential.ms_per_call": metric(
            per_call("model.capacity_potential", 1e3), "ms"),
        "model.self_s": metric(med_self("model"), "s"),
        "geometry.geometry_at.calls": metric(c["geometry.geometry_at"], "count"),
        "geometry.geometry_at.us_per_call": metric(
            per_call("geometry.geometry_at", 1e6), "us"),
        "geometry.weighted_laplacian.calls": metric(
            c["geometry.weighted_laplacian"], "count"),
        "geometry.index_form.calls": metric(c["geometry.index_form"], "count"),
        "geometry.self_s": metric(med_self("geometry"), "s"),
        "criteria.calls": metric(layer_calls("criteria"), "count"),
        "criteria.self_s": metric(med_self("criteria"), "s"),
        "montecarlo.path_steps": metric(steps, "count"),
        "montecarlo.steps_per_path": metric(steps / paths if paths else 0.0, "count"),
        "montecarlo.ns_per_path_step": metric(
            1e9 * med_incl("montecarlo.hit_probability") / steps if steps else 0.0,
            "ns"),
        "montecarlo.unresolved_frac": metric(
            mc["unresolved"] / paths if paths else 0.0, "fraction"),
        "montecarlo.paths_per_s": metric(paths / untraced_wall, "1/s"),
        "montecarlo.self_s": metric(med_self("montecarlo"), "s"),
        "cli.run_scenario.calls": metric(c["cli.run_scenario"], "count"),
        "cli.self_s": metric(med_self("cli"), "s"),
        "cli.report_bytes": metric(sum(records[j.id].report_bytes for j in jobs),
                                   "bytes"),
        "trace.overhead_s": metric(traced_wall - untraced_wall, "s"),
    }
    selfs = {layer: med_self(layer) for layer in tracing.LAYERS + (tracing.JOB,)}
    total = sum(selfs.values())
    shares = {layer: 100.0 * v / total if total else 0.0
              for layer, v in selfs.items()}
    counts_repeat = all(t.counts == first.counts and t.mc == first.mc
                        for t in tracers[1:])
    return out, shares, counts_repeat


def input_shares(jobs, tracer=None):
    kinds = Counter(j.kind for j in jobs)
    profiles = Counter(j.profile for j in jobs)
    out = {"jobs": len(jobs), "kinds": dict(sorted(kinds.items())),
           "profiles_pct": {k: round(100.0 * v / len(jobs), 1)
                            for k, v in sorted(profiles.items())}}
    if tracer is not None and tracer.mc["path_steps"]:
        steps = tracer.mc["path_steps"]
        out["path_steps_pct"] = {
            "driftless": round(100.0 * tracer.mc["driftless_path_steps"] / steps, 1),
            "drifted": round(100.0 * tracer.mc["drifted_path_steps"] / steps, 1)}
    return out


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "wparab" / "__init__.py").is_file():
        print(f"error: no wparab sources under {src}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    outdir = root / ".bench_runs" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    config_path = outdir / "config.json"
    config_path.write_text(json.dumps(
        {"scenarios": [j.scenario for j in jobs if j.scenario is not None]},
        indent=1))

    # set-up is an end-to-end metric, measured in untraced runs only
    setup_s, setup_samples = (measure_setup(src, config_path)
                              if not args.trace else (None, []))

    import wparab
    from wparab import cli

    if Path(wparab.__file__).resolve().parent != (src / "wparab").resolve():
        print(f"error: imported wparab from {wparab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    config = cli.load_config(config_path)
    scenarios = {sc["id"]: sc for sc in config["scenarios"]}
    env = environment(root, src, args.seed)
    print("# env " + json.dumps(env, sort_keys=True))

    runner = Runner(outdir)
    probe = speed.SpeedProbe()
    records = {j.id: Record() for j in jobs}
    tracers, untraced, traced = [], [], []
    start = perf_counter()
    index = 0
    while True:
        tracer = tracing.Tracer() if args.trace and index % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        try:
            run_pass(index, jobs, scenarios, runner, records, probe, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracers.append(tracer)
        (traced if tracer is not None else untraced).append(index)
        index += 1
        if index >= MIN_PASSES and perf_counter() - start >= args.seconds:
            break
    for rec in records.values():
        rec.scaled = {i: elapsed * probe.factor(t0, t0 + elapsed)
                      for i, (t0, elapsed) in rec.runs.items()}

    failed = [j for j in jobs
              if records[j.id].problems or not records[j.id].scaled]
    shares = input_shares(jobs, tracers[0] if tracers else None)
    print(f"# workload {args.workload}  seed {args.seed}  passes {index}  "
          f"jobs {len(jobs)}  setup samples "
          + " ".join(f"{x:.3f}" for x in setup_samples))
    print("# inputs " + json.dumps(shares, sort_keys=True))
    kernel = sorted(probe.durations)
    print(f"# speed kernel {len(kernel)} samples, quartiles "
          + " ".join(f"{1e3 * quantile(kernel, q):.2f}" for q in (0.25, 0.5, 0.75))
          + f" ms (reference {1e3 * speed.KERNEL_REF_S:.2f} ms); pass walls raw "
          + " ".join(f"{sum(r.runs[i][1] for r in records.values() if i in r.runs):.3f}"
                     for i in range(index))
          + ", scaled " + " ".join(f"{w:.3f}" for w in pass_walls(records, jobs,
                                                                 range(index))))
    for job in failed:
        print(f"# FAILED {job.id}: " + "; ".join(records[job.id].problems or
                                               ["no run completed"]))

    if args.trace:
        metrics, layer_shares, repeat = per_layer(tracers, records, jobs,
                                                  untraced, traced)
        print("# layer self-time share (traced passes): " + "  ".join(
            f"{k} {v:.1f}%" for k, v in layer_shares.items()))
        print(f"# counts repeat across traced passes: {repeat}")
        trace_path = outdir / "trace.jsonl"
        tracers[0].write(trace_path)
        print(f"# trace spans {len(tracers[0].span_start)} written to "
              f"{trace_path.relative_to(root)}")
    else:
        paths = sum(j.scenario["params"]["paths"] *
                    len(j.scenario["params"].get("R_schedule", [0]))
                    for j in jobs if j.scenario and j.scenario["task"] == "mc-verify")
        metrics, extra = end_to_end(records, jobs, untraced, setup_s, paths)
        extra["failed_frac"] = len(failed) / len(jobs)
        print("# " + "  ".join(f"{k} {v}" for k, v in extra.items()))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(jobs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
