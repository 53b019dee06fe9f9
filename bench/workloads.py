"""Seeded job generators for the three benchmark workloads.

Every workload is stratified: the job kinds, catalog entries and counts
are fixed, and only continuous parameters (radii, coefficients, start
points, Monte Carlo seeds) come from the seed.  Two seeds therefore give
the same amount of work of the same kinds, which keeps the timings of
different seeds comparable.

A job is plain data.  CLI jobs carry a scenario for ``wparab.cli``;
library jobs carry the arguments of one public library call, built by
``run.py``.  ``expect`` holds what the oracle in ``oracles.py`` needs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

WARPINGS = ("euclidean", "hyperbolic", "paraboloid", "custom")
WEIGHTS = ("zero", "gaussian", "antigaussian", "power", "logpow", "custom")

# profiles evaluated by plain Python (no numpy, no expression): the
# paraboloid warping needs a root solve per value, logpow wraps w
SCALAR_ONLY = {"paraboloid", "logpow"}
EXPRESSION = {"custom"}


@dataclass
class Job:
    id: str
    kind: str
    scenario: dict | None = None      # CLI job
    call: dict | None = None          # library job
    expect: dict = field(default_factory=dict)
    profile: str = "numpy-safe"       # numpy-safe | expression | scalar-only


def _r(x):
    return round(float(x), 6)


def profile_class(*names):
    """Share label of a job from the catalog names it evaluates."""
    if any(n in SCALAR_ONLY for n in names):
        return "scalar-only"
    if any(n in EXPRESSION for n in names):
        return "expression"
    return "numpy-safe"


def _adder(jobs):
    """``add(kind, ...)`` appending a Job with a sequential id."""

    def add(kind, scenario=None, call=None, expect=None, profile="numpy-safe"):
        jid = f"{kind}-{len(jobs):03d}"
        if scenario is not None:
            scenario = {"id": jid, **scenario}
        jobs.append(Job(jid, kind, scenario, call, expect or {}, profile))

    return add


# ---------------------------------------------------------------------------
# model-sweep


def _warping_spec(name, rng):
    if name == "hyperbolic":
        return {"name": "hyperbolic", "kappa": _r(-rng.uniform(0.8, 1.2))}
    if name == "custom":
        return {"name": "custom", "expr": f"t+{_r(rng.uniform(0.1, 0.2))}*t^3"}
    return {"name": name}


def _power_exponent_target(rng, parabolic):
    # tail exponent of the area integrand, kept away from the band (1, 1.8)
    # where the doubling test needs more than its 40 doublings
    return rng.uniform(-0.2, 0.2) if parabolic else rng.uniform(2.8, 3.2)


def _weight_spec(name, warping, m, parabolic, rng):
    """Weight spec plus the Ahlfors verdict it implies for this model.

    ``parabolic`` picks the sign of the weights that can go either way.
    """
    verdict = "parabolic" if parabolic else "hyperbolic"
    if name == "zero":
        return {"name": "zero"}, None
    if name == "gaussian":
        return {"name": "gaussian"}, "parabolic"
    if name == "antigaussian":
        return {"name": "antigaussian"}, "hyperbolic"
    sign = -1.0 if parabolic else 1.0
    if name == "power":
        return ({"name": "power", "a": _r(sign * rng.uniform(0.2, 0.4)),
                 "k": 2.0 if m % 2 else 3.0}, verdict)
    if name == "logpow":
        if warping["name"] == "hyperbolic":
            q = rng.uniform(-0.8, -0.4) if parabolic else rng.uniform(0.8, 1.2)
        else:
            target = _power_exponent_target(rng, parabolic)
            # integrand w^-q with w ~ t (euclidean), ~sqrt(2t) (paraboloid),
            # ~c t^3 (custom)
            scale = {"euclidean": 1.0, "paraboloid": 2.0, "custom": 1.0 / 3.0}
            q = target * scale[warping["name"]]
        return {"name": "logpow", "k": _r(q - (m - 1))}, verdict
    c, d = rng.uniform(0.4, 0.6), rng.uniform(0.1, 0.3)
    return ({"name": "custom",
             "expr": f"{_r(sign * c)}*t^2+{_r(d)}*log(1+t^2)"}, verdict)


def _m_for(warping, weight, slot):
    """Dimension by position, so that every seed has the same mix."""
    if warping == "paraboloid" and weight == "zero":
        # tail exponent (m-1)/2 must avoid the band (1, 1.8)
        return (2, 5)[slot % 2]
    return (2, 3, 4, 5)[slot % 4]


def _zero_weight_verdict(warping, m):
    exponent = {"euclidean": m - 1.0, "hyperbolic": math.inf,
                "paraboloid": (m - 1) / 2.0, "custom": 3.0 * (m - 1)}[warping]
    return "hyperbolic" if exponent > 1.0 else "parabolic"


def _model(rng, warping, weight, slot, parabolic):
    m = _m_for(warping, weight, slot)
    w = _warping_spec(warping, rng)
    f, verdict = _weight_spec(weight, w, m, parabolic, rng)
    if verdict is None:
        verdict = _zero_weight_verdict(warping, m)
    return {"m": m, "warping": w, "weight": f}, verdict


def model_sweep(seed):
    rng = random.Random(f"model-sweep:{seed}")
    jobs = []
    add = _adder(jobs)

    for i, warping in enumerate(WARPINGS):
        for j, weight in enumerate(WEIGHTS):
            cls = profile_class(warping, weight)
            model, verdict = _model(rng, warping, weight, i + j, i % 2 == 0)
            rho = rng.uniform(0.8, 1.2)
            R = rho + rng.uniform(1.8, 2.2)
            eval_at = sorted(_r(rng.uniform(rho, R)) for _ in range(2))
            add("capacity", {"task": "capacity", "model": model,
                             "params": {"rho": _r(rho), "R": _r(R),
                                        "eval_at": eval_at}},
                profile=cls)
            model, verdict = _model(rng, warping, weight, i + j + 1,
                                    i % 2 == 1)
            add("capacity-inf", {"task": "capacity", "model": model,
                                 "params": {"rho": _r(rng.uniform(0.9, 1.1)),
                                            "R": "inf"}},
                expect={"verdict": verdict}, profile=cls)
            model, verdict = _model(rng, warping, weight, i + j + 2,
                                    i % 2 == 0)
            add("ahlfors", {"task": "classify", "model": model,
                            "params": {"criterion": "ahlfors_direct",
                                       "t0": _r(rng.uniform(0.9, 1.1))}},
                expect={"verdict": verdict}, profile=cls)

    # capacities with expression weights are where quadrature of an
    # expression profile costs most; a second set on the closed-form
    # warpings gives that cost its own cluster of jobs
    for i, warping in enumerate(("euclidean", "hyperbolic")):
        for parabolic in (True, False):
            model, _ = _model(rng, warping, "custom", i + 1, parabolic)
            rho = rng.uniform(0.8, 1.2)
            add("capacity", {"task": "capacity", "model": model,
                             "params": {"rho": _r(rho),
                                        "R": _r(rho + rng.uniform(1.8, 2.2))}},
                profile="expression")

    for i, warping in enumerate(WARPINGS):
        for j in range(2):
            weight = WEIGHTS[(2 * i + j) % len(WEIGHTS)]
            model, _ = _model(rng, warping, weight, i + j, j == 0)
            params = {"range": [0.1, _r(rng.uniform(4.5, 5.5))],
                      "samples": 40, "n": model["m"] - 1}
            if j == 0:
                rho = rng.uniform(0.8, 1.2)
                params.update(rho=_r(rho), R=_r(rho + rng.uniform(1.8, 2.2)))
            add("curves", {"task": "curves", "model": model, "params": params},
                profile=profile_class(warping, weight))

    _criteria_jobs(rng, add)

    for m in (2, 3, 4, 5):
        for weight in ("gaussian", "custom"):
            for mode in ("last_above", "first_below"):
                c = 0.5 if weight == "gaussian" else _r(rng.uniform(0.3, 1.0))
                add("critical-radius", call={
                    "fn": "critical_sphere_radius", "m": m, "n": m - 1,
                    "weight": weight, "c": c, "mode": mode,
                    "lambda0": _r(rng.uniform(0.0, 2.5))},
                    profile=profile_class(weight))
    return jobs


def _criteria_jobs(rng, add):
    euclid = {"name": "euclidean"}
    hyperbolic = {"name": "hyperbolic"}
    dims = itertools.cycle((2, 3))
    for warping in (euclid, hyperbolic):
        for weight in ({"name": "gaussian"},
                       {"name": "custom",
                        "expr": f"-{_r(rng.uniform(0.3, 0.8))}*t^2"}):
            n = next(dims)
            add("radial-weight", {
                "task": "classify",
                "model": {"m": n + 1, "warping": warping, "weight": weight},
                "params": {"criterion": "radial_weight", "n": n,
                           "c": _r(rng.uniform(0.0, 1.0)),
                           "direction": "parabolic"}},
                expect={"verdict": "parabolic"},
                profile=profile_class(weight["name"]))
    for weight in ({"name": "antigaussian"},
                   {"name": "custom", "expr": f"{_r(rng.uniform(0.3, 0.8))}*t^2"}):
        n = next(dims)
        add("radial-weight", {
            "task": "classify",
            "model": {"m": n + 1, "warping": euclid, "weight": weight},
            "params": {"criterion": "radial_weight", "n": n, "c": 0.0,
                       "direction": "hyperbolic", "use_exp_integral": True}},
            expect={"verdict": "hyperbolic"},
            profile=profile_class(weight["name"]))
    for warping in (euclid, hyperbolic):
        n = next(dims)
        # k <= -n: parabolic; the hyperbolic side needs a convergent
        # comparison integral, tail exponent n-1+k (euclidean) or rate
        # n-1+k (hyperbolic)
        k_par = -n - rng.uniform(0.0, 1.0)
        k_hyp = (2.0 - n + rng.uniform(1.0, 2.0) if warping is euclid
                 else 1.0 - n + rng.uniform(0.5, 1.5))
        for k, verdict in ((k_par, "parabolic"), (k_hyp, "hyperbolic")):
            add("warping-power", {
                "task": "classify",
                "model": {"m": n + 1, "warping": warping,
                          "weight": {"name": "zero"}},
                "params": {"criterion": "warping_power", "n": n, "k": _r(k),
                           "t0": _r(rng.uniform(0.8, 1.5))}},
                expect={"verdict": verdict})
    for _ in range(2):
        n = next(dims)
        add("bounded-drift", {
            "task": "classify",
            "model": {"m": n + 1, "warping": euclid, "weight": {"name": "zero"}},
            "params": {"criterion": "bounded_drift", "n": n,
                       "beta": f"-{_r(rng.uniform(0.5, 2.0))}*t",
                       "c": _r(rng.uniform(0.0, 1.0)),
                       "direction": "parabolic"}},
            expect={"verdict": "parabolic"}, profile="expression")
    for _ in range(2):
        n = next(dims)
        c = rng.uniform(0.5, 1.5)
        add("comparison", {
            "task": "classify",
            "model": {"m": n + 1, "warping": euclid, "weight": {"name": "zero"}},
            "params": {"criterion": "parabolic_comparison", "n": n,
                       "alpha": f"-{_r(c)}*t",
                       "t0": _r(math.sqrt(n / c) * rng.uniform(1.05, 1.5))}},
            expect={"verdict": "parabolic"}, profile="expression")
    for n, verdict in ((3, "hyperbolic"), (4, "hyperbolic"), (2, "inconclusive")):
        add("comparison", {
            "task": "classify",
            "model": {"m": n + 1, "warping": euclid, "weight": {"name": "zero"}},
            "params": {"criterion": "hyperbolic_comparison", "n": n,
                       "alpha": f"{_r(rng.uniform(0.0, 0.5)) if n > 2 else 0.0}*t",
                       "t0": _r(rng.uniform(0.8, 1.5))}},
            expect={"verdict": verdict}, profile="expression")


# ---------------------------------------------------------------------------
# geometry-checks

SUBMANIFOLDS = ("sphere", "plane", "cylinder", "graph", "paraboloid_graph",
                "helicoid")
AMBIENT_WEIGHTS = ("zero", "gaussian", "power", "height", "split",
                   "custom_coords")
PSIS = ("t^2/2", "log(1+t)", "exp(-t^2/2)")


def _unit(rng, d):
    v = [rng.gauss(0.0, 1.0) for _ in range(d)]
    norm = math.sqrt(sum(x * x for x in v))
    return [_r(x / norm) for x in v]


def _submanifold(name, rng):
    if name == "sphere":
        return {"name": "sphere", "a": _r(rng.uniform(0.8, 2.0))}
    if name == "plane":
        offset = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0)
        return {"name": "plane", "normal": _unit(rng, 3), "offset": _r(offset)}
    if name == "cylinder":
        return {"name": "cylinder", "a": _r(rng.uniform(0.8, 1.6)), "k": 2}
    if name == "graph":
        c = [_r(rng.uniform(-0.4, 0.4)) for _ in range(3)]
        # window kept off the origin, where r = |x| is not smooth
        return {"name": "graph",
                "expr": f"{c[0]}*x1^2+{c[1]}*x1*x2+{c[2]}*x2",
                "window": [[0.3, 1.5], [0.3, 1.5]]}
    if name == "helicoid":
        return {"name": "helicoid", "pitch": _r(rng.uniform(0.5, 1.5))}
    return {"name": name}


def _ambient_weight(name, rng):
    if name == "power":
        return {"name": "power", "a": _r(-rng.uniform(0.1, 0.5)),
                "k": 3.0}
    if name == "split":
        return {"name": "split", "eta": {"name": "gaussian"},
                "mu": {"name": "gaussian"}}
    if name == "custom_coords":
        return {"name": "custom_coords",
                "expr": f"-{_r(rng.uniform(0.2, 0.8))}*(x1^2+x2^2)"
                        f"+{_r(rng.uniform(0.0, 0.5))}*x3"}
    return {"name": name}


def geometry_checks(seed):
    rng = random.Random(f"geometry-checks:{seed}")
    jobs = []
    add = _adder(jobs)

    psis = itertools.cycle(PSIS)
    for _ in range(2):
        for sub in SUBMANIFOLDS:
            for weight in AMBIENT_WEIGHTS:
                # the height weight's default profile is the expression "t"
                expression = (sub == "graph"
                              or weight in ("custom_coords", "height"))
                add("identities", {
                    "task": "check-identities",
                    "model": {"m": 3, "warping": {"name": "euclidean"},
                              "weight": _ambient_weight(weight, rng)},
                    "submanifold": _submanifold(sub, rng),
                    "params": {"psi": next(psis), "points": 6,
                               "seed": rng.randrange(1 << 30)}},
                    profile="expression" if expression else "numpy-safe")
    for i in range(16):
        add("index-form", call={"fn": "index_form",
                                "a": _r(rng.uniform(0.8, 2.0)),
                                "panels": 2 if i % 4 == 0 else 1,
                                "delta": 1e-4})
    for i in range(12):
        lo = [_r(rng.uniform(0.3, 0.8)) for _ in range(2)]
        hi = [_r(rng.uniform(3.0, 4.0)) for _ in range(2)]
        window = [[lo[0], hi[0]], [lo[1], hi[1]]]
        t0 = _r(math.sqrt(2.0) * rng.uniform(1.01, 1.2))
        if i % 3 == 2:
            sub = {"name": "hyperplane", "normal": _unit(rng, 3),
                   "offset": _r(rng.uniform(0.3, 1.0))}
            verdict = "inconclusive"
        else:
            m = 3 + i % 2
            sub = {"name": "coordinate_plane", "m": m,
                   "axes": sorted(rng.sample(range(m), 2))}
            verdict = "parabolic"
        add("classify-submanifold", call={
            "fn": "classify_parabolic", "submanifold": sub, "alpha": "-t",
            "n": 2, "t0": t0, "window": window},
            expect={"verdict": verdict}, profile="expression")
    return jobs


# ---------------------------------------------------------------------------
# mc-hitting

DEMO_PATHS = 2000       # configs/demo.json
CLI_PATHS = 10_000      # default of the mc-verify task
HITS_PER_DIM = 6
DRIFTED_COMPARISONS = 3


def _start(rng, d, r0):
    return [_r(r0 * x) for x in _unit(rng, d)]


def _mc_radii(rng):
    rho = rng.uniform(0.95, 1.05)
    R = rho * rng.uniform(3.8, 4.2)
    r0 = rho * (R / rho) ** rng.uniform(0.45, 0.55)
    return _r(rho), _r(R), r0


def mc_hitting(seed):
    rng = random.Random(f"mc-hitting:{seed}")
    jobs = []
    add = _adder(jobs)
    euclid = {"name": "euclidean"}

    # path counts as the program is used: estimates and the probe at the
    # 2000 paths of configs/demo.json, comparisons at the CLI default of
    # 10,000.  Most jobs are plain estimates, so that the median latency
    # is taken over jobs of one kind; the three drifted comparisons give
    # the 90th percentile several similar jobs to average over.
    for d in (2, 3, 4):
        for _ in range(HITS_PER_DIM):
            rho, R, r0 = _mc_radii(rng)
            add("hit", {
                "task": "mc-verify",
                "model": {"m": d, "warping": euclid, "weight": {"name": "zero"}},
                "submanifold": {"name": "radial_scenario"},
                "params": {"start": _start(rng, d, r0), "rho": rho, "R": R,
                           "paths": DEMO_PATHS, "seed": rng.randrange(1 << 30)}},
                expect={"d": d})
    for _ in range(DRIFTED_COMPARISONS):
        rho, R, r0 = _mc_radii(rng)
        add("comparison-parabolic", {
            "task": "mc-verify",
            "model": {"m": 3, "warping": euclid, "weight": {"name": "gaussian"}},
            "submanifold": {"name": "plane", "axes": [0, 1]},
            "params": {"start": _start(rng, 2, r0), "rho": rho, "R": R,
                       "paths": CLI_PATHS, "seed": rng.randrange(1 << 30),
                       "comparison": {"alpha": "-t", "n": 2,
                                      "t0": math.sqrt(2.0),
                                      "direction": "parabolic"}}},
            expect={"d": 2, "gaussian": True})
    rho, R, r0 = _mc_radii(rng)
    add("comparison-hyperbolic", {
        "task": "mc-verify",
        "model": {"m": 4, "warping": euclid, "weight": {"name": "zero"}},
        "submanifold": {"name": "plane", "axes": [0, 1, 2]},
        "params": {"start": _start(rng, 3, r0), "rho": rho, "R": R,
                   "paths": CLI_PATHS, "seed": rng.randrange(1 << 30),
                   "comparison": {"alpha": "0*t", "n": 3, "t0": 1.0,
                                  "direction": "hyperbolic"}}},
        expect={"d": 3})
    rho = _r(rng.uniform(0.9, 1.1))
    schedule = [_r(rho * f) for f in (2.0, 4.0, 8.0)]
    add("recurrence-probe", {
        "task": "mc-verify",
        "model": {"m": 2, "warping": euclid, "weight": {"name": "zero"}},
        "submanifold": {"name": "radial_scenario"},
        "params": {"start": _start(rng, 2, 1.5 * rho), "rho": rho,
                   "R": schedule[0], "R_schedule": schedule, "paths": DEMO_PATHS,
                   "dtau": 2e-3, "seed": rng.randrange(1 << 30)}},
        expect={"d": 2})
    return jobs


WORKLOADS = {
    "model-sweep": model_sweep,
    "geometry-checks": geometry_checks,
    "mc-hitting": mc_hitting,
}
