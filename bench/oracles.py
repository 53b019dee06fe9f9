"""Correctness oracles, one per job kind.

Every reference value here is computed without ``wparab``: closed forms,
the radial profiles written out again from their definitions, scipy
quadrature and root finding, and a complex-step derivative for
expression profiles.  A check returns a list of problems; an empty list
means the job's output is correct.
"""

from __future__ import annotations

import cmath
import csv
import math
from functools import lru_cache

from scipy import integrate, optimize

# Broadie--Glasserman--Kou: discrete monitoring of a diffusion with
# per-step standard deviation s behaves like continuous monitoring of a
# boundary shifted outward by BGK_BETA * s
BGK_BETA = 0.5826
MC_Z = 4.0
# limit on the reported residual of phi'' + b phi' = 0, as in the
# acceptance suite
ODE_RESIDUAL = 1e-6

_FUNCS = {name: getattr(cmath, name)
          for name in ("sin", "cos", "sinh", "cosh", "tanh", "exp", "log",
                       "sqrt")}


def expr_fn(source, variables=("t",)):
    """Evaluate a scenario expression with Python arithmetic and cmath."""
    code = compile(source.replace("^", "**"), "<expr>", "eval")

    def fn(*args):
        env = dict(_FUNCS, abs=abs, **dict(zip(variables, args)))
        return eval(code, {"__builtins__": {}}, env)  # noqa: S307

    return fn


def complex_step(fn):
    """Derivative of a real-analytic function to machine precision."""
    h = 1e-30
    return lambda t: (fn(complex(t, h)).imag) / h


# ---------------------------------------------------------------------------
# Radial profiles, rebuilt from the scenario format's definitions


def _paraboloid_arc(rho):
    return 0.5 * (rho * math.sqrt(1.0 + rho * rho) + math.asinh(rho))


@lru_cache(maxsize=None)
def _paraboloid_radius(t):
    if t <= 0.0:
        return 0.0
    hi = max(1.0, math.sqrt(2.0 * t) + 1.0)
    while _paraboloid_arc(hi) < t:
        hi *= 2.0
    return optimize.brentq(lambda r: _paraboloid_arc(r) - t, 0.0, hi,
                           xtol=1e-15, rtol=1e-15)


class Warping:
    def __init__(self, spec):
        self.name = spec.get("name", "euclidean")
        if self.name == "hyperbolic":
            self.s = math.sqrt(-spec.get("kappa", -1.0))
        elif self.name == "custom":
            self.fn = expr_fn(spec["expr"])
            self.dfn = complex_step(self.fn)

    def log_w(self, t):
        if self.name == "euclidean":
            return math.log(t)
        if self.name == "hyperbolic":
            st = self.s * t
            return st + math.log1p(-math.exp(-2.0 * st)) - math.log(2.0 * self.s)
        return math.log(self.w(t))

    def w(self, t):
        if self.name == "euclidean":
            return t
        if self.name == "hyperbolic":
            return math.sinh(self.s * t) / self.s
        if self.name == "paraboloid":
            return _paraboloid_radius(t)
        return self.fn(t).real

    def dw(self, t):
        if self.name == "euclidean":
            return 1.0
        if self.name == "hyperbolic":
            return math.cosh(self.s * t)
        if self.name == "paraboloid":
            rho = _paraboloid_radius(t)
            return 1.0 / math.sqrt(1.0 + rho * rho)
        return self.dfn(t)


class Weight:
    def __init__(self, spec, warping):
        self.name = spec.get("name", "zero")
        self.spec = spec
        self.warping = warping
        if self.name == "custom":
            self.fn = expr_fn(spec["expr"])
            self.dfn = complex_step(self.fn)
        self.singular = (self.name == "logpow"
                         or (self.name == "power" and spec["k"] < 1))

    def f(self, t):
        n, s = self.name, self.spec
        if n == "zero":
            return 0.0
        if n == "gaussian":
            return -0.5 * t * t
        if n == "antigaussian":
            return 0.5 * t * t
        if n == "power":
            return s["a"] * t ** s["k"]
        if n == "logpow":
            return s["k"] * self.warping.log_w(t)
        return self.fn(t).real

    def df(self, t):
        n, s = self.name, self.spec
        if n == "zero":
            return 0.0
        if n == "gaussian":
            return -t
        if n == "antigaussian":
            return t
        if n == "power":
            return s["a"] * s["k"] * t ** (s["k"] - 1)
        if n == "logpow":
            return s["k"] * self.warping.dw(t) / self.warping.w(t)
        return self.dfn(t)


def sphere_constant(m):
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


class Model:
    def __init__(self, spec):
        self.m = int(spec["m"])
        self.warping = Warping(spec.get("warping", {}))
        self.weight = Weight(spec.get("weight", {}), self.warping)
        self.c_m = sphere_constant(self.m)

    def inv_area(self, t):
        return math.exp(-self.weight.f(t) - (self.m - 1) * self.warping.log_w(t)
                        ) / self.c_m

    def area(self, t):
        return self.c_m * self.warping.w(t) ** (self.m - 1) * math.exp(
            self.weight.f(t))

    def H(self, t):
        return self.warping.dw(t) / self.warping.w(t)

    def integral(self, a, b):
        value, _ = integrate.quad(self.inv_area, a, b, epsabs=0.0,
                                  epsrel=1e-13, limit=500)
        return value

    def volume(self, t):
        value, _ = integrate.quad(
            lambda s: self.warping.w(s) ** (self.m - 1) * math.exp(
                self.weight.f(s)), 0.0, t, epsabs=0.0, epsrel=1e-12, limit=500)
        return self.c_m * value


def _close(got, want, rel, abs_=0.0):
    return abs(got - want) <= max(abs_, rel * abs(want))


# ---------------------------------------------------------------------------
# model-sweep


def check_capacity(job, entry, outdir):
    params = job.scenario["params"]
    model = Model(job.scenario["model"])
    rho = params["rho"]
    if params["R"] == "inf":
        return _check_capacity_inf(job, entry, model, rho)
    R = params["R"]
    rep = entry["capacity_report"]
    problems = []
    total = model.integral(rho, R)
    if not _close(rep["capacity"], 1.0 / total, 1e-8):
        problems.append(f"capacity {rep['capacity']!r} vs {1.0 / total!r}")
    residual = rep["ode_residual"]
    if not residual <= ODE_RESIDUAL:
        # the share of the largest term |b phi'| tells a residual
        # estimator's error (tiny share) from a wrong potential
        scale = max(abs(((model.m - 1) * model.H(s) + model.weight.df(s))
                        * model.inv_area(s) / total)
                    for s in (rho + (R - rho) * k / 255 for k in range(256)))
        problems.append(f"ODE residual {residual:.3e} > {ODE_RESIDUAL:g} "
                        f"({residual / scale:.1e} of max|b phi'| = {scale:.3g})")
    for s, phi in rep.get("potential_values", {}).items():
        want = 1.0 - model.integral(rho, float(s)) / total
        if not abs(phi - want) <= 1e-6:
            problems.append(f"potential({s}) {phi!r} vs {want!r}")
    return problems


def _check_capacity_inf(job, entry, model, rho):
    verdict = job.expect["verdict"]
    status = entry["integral_evidence"]["status"]
    cap = entry["capacity"]
    if verdict == "parabolic":
        if status != "divergent" or cap != 0.0:
            return [f"expected zero capacity (divergent), got {cap!r} ({status})"]
        return []
    if status != "convergent":
        return [f"expected a convergent area integral, got {status}"]
    total = model.integral(rho, math.inf)
    bound = entry["integral_evidence"]["error_bound"]
    if not abs(1.0 / cap - total) <= 2.0 * bound + 1e-9 * total:
        return [f"1/capacity {1.0 / cap!r} vs {total!r} beyond twice the "
                f"claimed error bound {bound:.2e}"]
    return []


def check_verdict(job, entry, outdir):
    outcome = entry["verdict"]["outcome"]
    if outcome != job.expect["verdict"]:
        return [f"verdict {outcome} vs expected {job.expect['verdict']}"]
    return []


def check_curves(job, entry, outdir):
    params = job.scenario["params"]
    model = Model(job.scenario["model"])
    with open(outdir / entry["csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], [[float(x) for x in r] for r in rows[1:]]
    problems = []
    if len(rows) != params["samples"]:
        problems.append(f"{len(rows)} rows, expected {params['samples']}")
    if ("volume" in header) == model.weight.singular:
        problems.append(f"volume column presence wrong: {header}")
    rho, R = params.get("rho"), params.get("R")
    total = model.integral(rho, R) if rho is not None else None
    col = {name: i for i, name in enumerate(header)}
    n = params.get("n")
    for row in rows:
        t = row[col["t"]]
        want = {"area": (model.area(t), 1e-9, 0.0),
                "H": (model.H(t), 1e-9, 1e-12)}
        if n is not None:
            want["Hh_n"] = (n * model.H(t) + model.weight.df(t), 1e-9, 1e-9)
        if "volume" in col:
            want["volume"] = (model.volume(t), 1e-7, 0.0)
        if total is not None:
            s = min(max(t, rho), R)
            want["phi"] = (1.0 - model.integral(rho, s) / total, 0.0, 1e-6)
        for name, (value, rel, abs_) in want.items():
            if not _close(row[col[name]], value, rel, abs_):
                problems.append(f"{name}(t={t}) {row[col[name]]!r} vs {value!r}")
    return problems[:5]


def critical_radius(call):
    """Closed form of n/t - 2 c t = target (catalog Gaussian: c = 1/2)."""
    lam, n, c = call["lambda0"], call["n"], call["c"]
    b = lam if call["mode"] == "last_above" else -lam
    return (-b + math.sqrt(b * b + 8.0 * c * n)) / (4.0 * c)


def check_critical_radius(job, value, outdir):
    want = critical_radius(job.call)
    if not abs(value - want) <= 1e-10 * max(1.0, want):
        return [f"critical radius {value!r} vs {want!r}"]
    return []


# ---------------------------------------------------------------------------
# geometry-checks


def _radial_slope(spec, r):
    name = spec.get("name", "zero")
    if name == "zero":
        return 0.0
    if name == "gaussian":
        return -r
    if name == "power":
        return spec["a"] * spec["k"] * r ** (spec["k"] - 1)
    return None


def check_identities(job, entry, outdir):
    sub = job.scenario["submanifold"]
    weight = job.scenario["model"]["weight"]
    problems = []
    limit = 1e-7 if sub["name"] == "sphere" else 1e-5
    residual = entry["radial_identity_max_residual"]
    if not residual <= limit:
        problems.append(f"radial identity residual {residual:.3e} > {limit:g}")
    # closed-form weighted mean curvature where the ambient weight is radial
    want = None
    if sub["name"] == "sphere":
        slope = _radial_slope(weight, sub["a"])
        if slope is not None:
            want = abs(2.0 / sub["a"] + slope)
    elif sub["name"] == "plane" and weight.get("name") in ("zero", "gaussian"):
        want = abs(sub["offset"]) if weight["name"] == "gaussian" else 0.0
    got = entry["weighted_mc_norm_max"]
    if want is not None and not abs(got - want) <= 1e-7 * max(1.0, want):
        problems.append(f"|weighted mean curvature| {got!r} vs {want!r}")
    return problems


def index_form_closed_form(a, delta):
    """Q(1) on the Gaussian sphere of radius a in R^3, polar box trimmed by
    delta: -(Ric_h + |sigma|^2) e^h |S| = -2 pi (a^2 + 2) e^(-a^2/2) 2 cos(delta)."""
    return -4.0 * math.pi * (a * a + 2.0) * math.exp(-0.5 * a * a) * math.cos(delta)


def check_index_form(job, value, outdir):
    want = index_form_closed_form(job.call["a"], job.call["delta"])
    if not abs(value - want) <= 1e-8 * abs(want):
        return [f"index form {value!r} vs {want!r}"]
    return []


def check_classify_submanifold(job, verdict, outdir):
    problems = []
    if verdict["outcome"] != job.expect["verdict"]:
        problems.append(f"verdict {verdict['outcome']} vs {job.expect['verdict']}")
    drift = next(c for c in verdict["checks"] if c["name"] == "radial_drift_bound")
    if job.expect["verdict"] == "inconclusive":
        # an offset plane in Gaussian space has <grad h + wmc, grad r> =
        # -r + c^2/r, above the bound alpha(r) = -r: the witness must show it
        w = drift["witness"] or {}
        if drift["status"] != "fails" or not w.get("lhs", -math.inf) > w.get(
                "bound", math.inf):
            problems.append(f"drift bound should fail with a witness: {drift}")
    elif drift["status"] != "holds":
        problems.append(f"drift bound should hold: {drift}")
    return problems


# ---------------------------------------------------------------------------
# mc-hitting


def _hit_closed_form(d, r, rho, R, gaussian=False):
    if gaussian:
        # plane with Gaussian weight: generator u'' + (1/r - r) u'
        def g(s):
            return math.exp(0.5 * s * s) / s

        num, _ = integrate.quad(g, r, R, epsabs=0.0, epsrel=1e-12)
        den, _ = integrate.quad(g, rho, R, epsabs=0.0, epsrel=1e-12)
        return num / den
    if d == 2:
        return math.log(R / r) / math.log(R / rho)
    e = 2 - d
    return (r ** e - R ** e) / (rho ** e - R ** e)


def hit_interval(d, r, rho, R, dtau, gaussian=False):
    """Closed form at the nominal radii and with both boundaries moved out
    by the BGK shift of an Euler step with per-coordinate sd sqrt(2 dtau)."""
    shift = BGK_BETA * math.sqrt(2.0 * dtau)
    nominal = _hit_closed_form(d, r, rho, R, gaussian)
    shifted = _hit_closed_form(d, r, rho - shift, R + shift, gaussian)
    return nominal, min(nominal, shifted), max(nominal, shifted)


def _check_estimate(p_hat, resolved, lo, hi, nominal, label):
    se = math.sqrt(max(nominal * (1.0 - nominal), 1e-12) / max(resolved, 1))
    if not lo - MC_Z * se <= p_hat <= hi + MC_Z * se:
        return [f"{label}: p_hat {p_hat:.5f} outside [{lo:.5f}, {hi:.5f}] "
                f"+- {MC_Z:g} SE ({se:.4f})"]
    return []


def _radius(start):
    return math.sqrt(sum(x * x for x in start))


def _default_dtau(params):
    return params.get("dtau", 1e-4 * (params["R"] - params["rho"]) ** 2)


def check_mc(job, entry, outdir):
    params = job.scenario["params"]
    d = job.expect["d"]
    gaussian = job.expect.get("gaussian", False)
    r0 = _radius(params["start"])
    rho, R, N = params["rho"], params["R"], params["paths"]
    dtau = _default_dtau(params)
    if "recurrence_probe" in entry:
        probe = entry["recurrence_probe"]
        problems = []
        for Ri, p_hat in zip(params["R_schedule"], probe["p_hats"]):
            nominal, lo, hi = hit_interval(d, r0, rho, Ri, dtau)
            problems += _check_estimate(p_hat, N, lo, hi, nominal, f"R={Ri}")
        if len(probe["p_hats"]) != len(params["R_schedule"]):
            problems.append("probe returned the wrong number of estimates")
        return problems
    est = entry["comparison"]["estimate"] if "comparison" in entry else entry[
        "hit_estimate"]
    problems = []
    resolved = est["n_inner"] + est["n_outer"]
    if resolved + est["n_unresolved"] != N:
        problems.append("path counts do not add up to the requested paths")
    if not est["ci_low"] <= est["p_hat"] <= est["ci_high"]:
        problems.append("p_hat outside its own confidence interval")
    nominal, lo, hi = hit_interval(d, r0, rho, R, dtau, gaussian)
    problems += _check_estimate(est["p_hat"], resolved, lo, hi, nominal, "hit")
    if "comparison" in entry:
        comp = entry["comparison"]
        if not abs(comp["phi"] - nominal) <= 1e-6:
            problems.append(f"comparison potential {comp['phi']!r} vs {nominal!r}")
        sign = 1.0 if comp["direction"] == "parabolic" else -1.0
        margin = sign * (comp["phi"] - comp["p_hat"]) + 3.0 * comp["standard_error"]
        if not (abs(margin - comp["margin"]) <= 1e-12
                and comp["passed"] == (comp["margin"] >= 0.0)):
            problems.append("comparison margin or pass flag inconsistent")
    return problems


CHECKS = {
    "critical-radius": check_critical_radius,
    "index-form": check_index_form,
    "classify-submanifold": check_classify_submanifold,
    "capacity": check_capacity,
    "capacity-inf": check_capacity,
    "ahlfors": check_verdict,
    "radial-weight": check_verdict,
    "warping-power": check_verdict,
    "bounded-drift": check_verdict,
    "comparison": check_verdict,
    "curves": check_curves,
    "identities": check_identities,
    "hit": check_mc,
    "comparison-parabolic": check_mc,
    "comparison-hyperbolic": check_mc,
    "recurrence-probe": check_mc,
}
