"""Classification pipeline for submanifolds of weighted model spaces.

Builds the comparison weight from a radial drift bound alpha, samples the
balance condition between alpha and the sphere curvature of the ambient
model, classifies the comparison area integral, and emits verdicts with a
full evidence trail.  Critical radii of spheres, cylinders and hyperplanes
live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotAttainedError
from .geometry import (ImmersedSubmanifold, _complement_basis,
                       radial_hypothesis_profile)
from .model import WeightedModel, critical_radius
from .radial import (Primitive, RadialProfile, WarpingFunction, classify_improper,
                     first_crossing, integrate, warping_euclidean)
from .verdicts import (FAILS, HOLDS, WINDOW_ONLY, HypothesisCheck, Outcome,
                       one_sided)

_LADDER_SPAN = 40.0      # doublings covered by the cumulative grid
_LADDER_NODES = 512
_CURVATURE_T, _CURVATURE_CAP = 64.0, 1e3     # sup |w'/w| < cap on [T, 2T]
_SLOPE_SAMPLES = 20                          # f' at t_min 2^k, k < samples
_PROBE_SAMPLES, _PROBE_SCALE = 64, 2.0       # hyperplane constancy probe
_BALANCE_SAMPLES = 512                       # n H + alpha on [t0, 32 t0]


@dataclass
class ComparisonSetup:
    """Data defining the comparison model: ambient warping, n, t0 and alpha."""

    warping: WarpingFunction
    n: int
    t0: float
    alpha: RadialProfile
    name: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("comparison models need submanifold dimension n >= 2")
        if self.t0 <= 0:
            raise DomainError("anchor radius t0 must be positive")
        # f(t) = int_t0^t alpha on 512 geometric rungs t0 2^(j 40/511),
        # anchored away from the pole: comparison weights need no pole
        # regularity, and the primitive extends naturally below t0
        rungs = float(self.t0) * 2.0 ** (np.arange(_LADDER_NODES)
                                         * (_LADDER_SPAN / (_LADDER_NODES - 1)))
        F = Primitive(self.alpha.value, rungs, abs_tol=1e-12, rel_tol=1e-10)
        self.f = RadialProfile(F, self.alpha.value, t_min=max(self.alpha.t_min, 1e-12),
                               name=f"cumulative({self.alpha.name})")
        self.model = WeightedModel(self.n, self.warping, self.f)

    def capacity_bound(self, rho, R=None):
        """Model-side capacity ratio Cap(B_rho)/A(S_rho) of the comparison,
        A the weighted area of the (n-1)-sphere of the model."""
        if R is None:
            cap, verdict = self.model.capacity_to_infinity(rho)
            if cap is None:
                return None
            return cap / self.model.sphere_area(rho)
        return (self.model.capacity_potential(rho, R).capacity
                / self.model.sphere_area(rho))


def _balance_check(setup: ComparisonSetup, sign):
    """Sample n H(t) + alpha(t) (<= 0 for sign=-1, >= 0 for sign=+1)."""
    t0, samples = setup.t0, _BALANCE_SAMPLES
    ts = np.linspace(t0, 32.0 * t0, samples)
    vals = setup.n * setup.model.mean_curvature(ts) + setup.alpha.value(ts)
    # sign=-1: need vals <= 0, margin = -vals; sign=+1: need vals >= 0
    margins = -vals if sign < 0 else vals
    worst_idx = int(np.argmin(margins))
    worst = float(margins[worst_idx])
    if worst < -1e-9:
        return HypothesisCheck(
            name="sphere_balance", status=FAILS, margin=worst,
            witness={"t": float(ts[worst_idx]), "value": float(vals[worst_idx])},
            window=(float(t0), float(32.0 * t0)), samples=samples)
    tail = margins[-samples // 8:]
    scale = 1e-12 * (1.0 + float(np.abs(tail).max()))
    tail_monotone = bool(np.all(np.diff(tail) >= -scale))
    # a positive margin decaying convexly (e.g. n/t) stays positive under
    # the extrapolated trend even though it decreases
    convex_decay = bool(np.all(tail > -scale)
                        and np.all(np.diff(tail, 2) >= -scale))
    if tail_monotone:
        status, note = HOLDS, "tail margin non-decreasing on sampled window"
    elif convex_decay:
        status, note = HOLDS, "tail margin positive with convex decay on sampled window"
    else:
        status = WINDOW_ONLY
        note = "holds on window; tail behaviour undetermined"
    return HypothesisCheck(name="sphere_balance", status=status, margin=worst,
                           window=(float(t0), float(32.0 * t0)),
                           samples=samples, note=note)


def _drift_check(setup, P, window, sense, assume_bound):
    if P is None:
        return HypothesisCheck(name="radial_drift_bound", status=HOLDS,
                               note="asserted by caller (no immersion supplied)")
    check = radial_hypothesis_profile(P, window or P.window, setup.alpha,
                                      sense=sense, min_radius=setup.t0)
    if check.status == HOLDS and not (P.closed or assume_bound):
        check.status = WINDOW_ONLY
        check.note += "; non-compact immersion checked on a finite window only"
    return check


def comparison_outcome(direction):
    """The outcome a comparison toward "parabolic" or "hyperbolic" can reach."""
    if direction not in ("parabolic", "hyperbolic"):
        raise DomainError(f"unknown direction {direction!r}")
    return Outcome(direction)


def _comparison(outcome, setup, P=None, window=None, assume_drift_bound=False, *,
                criterion=None, side_checks=()):
    """The comparison verdict for ``outcome``: parabolic needs the upper
    drift bound, n H + alpha <= 0 and a divergent comparison integral;
    hyperbolic the lower bound, n H + alpha >= 0 and a convergent one.  A
    shortcut criterion reports it under its own ``criterion`` name, with
    its ``side_checks`` after those two."""
    parabolic = outcome is Outcome.PARABOLIC
    checks = [
        _drift_check(setup, P, window, "upper" if parabolic else "lower",
                     assume_drift_bound),
        _balance_check(setup, sign=-1 if parabolic else +1),
        *side_checks,
    ]
    integral = classify_improper(setup.model.inv_sphere_area, setup.t0)
    return one_sided(outcome, needs_divergent=parabolic, checks=checks,
                     integral=integral,
                     criterion=criterion or f"{outcome.value}_comparison",
                     capacity_bound=setup.capacity_bound, notes=setup.name)


def classify_parabolic(setup: ComparisonSetup, P: ImmersedSubmanifold | None = None,
                       window=None, assume_drift_bound=False):
    """Parabolicity via capacity comparison with the weighted model.

    Fires only when the drift bound holds, the balance n H + alpha <= 0
    holds beyond t0, and the comparison area integral diverges.
    """
    return _comparison(Outcome.PARABOLIC, setup, P, window, assume_drift_bound)


def classify_hyperbolic(setup: ComparisonSetup, P: ImmersedSubmanifold | None = None,
                        window=None, assume_drift_bound=False):
    """Hyperbolicity via the reversed comparison; needs a convergent integral."""
    return _comparison(Outcome.HYPERBOLIC, setup, P, window, assume_drift_bound)


# ---------------------------------------------------------------------------
# Side-condition probes shared by the shortcut criteria


def warping_integrability_check(w: WarpingFunction, want_infinite):
    verdict = classify_improper(w.value, 1.0)
    ok = verdict.is_divergent if want_infinite else verdict.is_convergent
    return HypothesisCheck(
        name="warping_not_integrable" if want_infinite else "warping_integrable",
        status=HOLDS if ok else FAILS, note=verdict.reason)


def curvature_bounded_check(w: WarpingFunction):
    T = _CURVATURE_T
    ts = np.linspace(T, 2.0 * T, 64)
    sup = float(np.max(np.abs(w.deriv(ts) / w.value(ts))))
    status = HOLDS if sup < _CURVATURE_CAP else FAILS
    return HypothesisCheck(name="sphere_curvature_bounded", status=status,
                           margin=float(_CURVATURE_CAP - sup), window=(T, 2.0 * T),
                           samples=64, note=f"sup |H| = {sup:.3g} on window")


def slope_limit_check(f: RadialProfile, direction):
    """Window evidence for f'(t) -> -inf (direction=-1) or +inf (+1)."""
    ts = max(f.t_min * 1.01, 1e-3) * 2.0 ** np.arange(_SLOPE_SAMPLES)
    vals = direction * f.deriv(ts)
    increasing = bool(np.all(vals[-5:] >= vals[-6:-1] - 1e-12))
    first, last = float(ts[0]), float(ts[-1])
    status = HOLDS if (increasing and vals[-1] > 1.0) else FAILS
    witness = None if status == HOLDS else {"t": last,
                                            "fprime": float(direction * vals[-1])}
    return HypothesisCheck(name="log_weight_slope_limit", status=status,
                           margin=float(vals[-1]), witness=witness,
                           window=(first, last), samples=_SLOPE_SAMPLES,
                           note=f"direction={'+inf' if direction > 0 else '-inf'}")


def _balance(warping, n, alpha):
    """g(t) = n H(t) + alpha(t), the sphere curvature against alpha."""
    return lambda t: n * warping.deriv(t) / warping.value(t) + alpha.value(t)


def _outward_balance_radius(warping, n, alpha, t0=1.0):
    """First t0 * 2^j (stopping past 1e6) with n H(t) + alpha(t) >= 0."""
    g = _balance(warping, n, alpha)
    while g(t0) < 0.0 and t0 < 1e6:
        t0 *= 2.0
    return t0


def _first_balance_radius(warping, n, alpha):
    """Smallest radius beyond which n H(t) + alpha(t) stays nonpositive."""
    try:
        return first_crossing(_balance(warping, n, alpha), 1e-3, 0.0, 1e-12)
    except NotAttainedError as err:
        # balance already holds at arbitrarily small radii
        return err.radius


def _alpha_floor(t0, margin, note):
    """``margin(t) >= 0`` on 256 samples of [t0, 32 t0], with the least
    sample as witness when it fails."""
    ts = np.linspace(t0, 32.0 * t0, 256)
    margins = margin(ts)
    worst = float(margins.min())
    holds = worst >= -1e-12
    return HypothesisCheck(
        name="alpha_floor", status=HOLDS if holds else FAILS,
        margin=worst, window=(float(t0), float(32.0 * t0)), samples=256,
        witness=None if holds else {"t": float(ts[int(margins.argmin())])},
        note=note)


# ---------------------------------------------------------------------------
# Shortcut criteria


def classify_bounded_drift(warping, n, beta: RadialProfile, c=0.0,
                           direction="parabolic"):
    """Bounded weighted mean curvature plus a radial drift bound beta.

    Parabolic case: beta -> -inf, warping not integrable, sphere curvature
    bounded at infinity; hyperbolic case mirrored with beta -> +inf and an
    integrable warping.
    """
    return _bounded_drift(warping, n, beta, c, comparison_outcome(direction),
                          "bounded_drift", [])


def _bounded_drift(warping, n, beta, c, outcome, criterion, extra_checks):
    """The bounded-drift comparison toward ``outcome``, reported under
    ``criterion`` with ``extra_checks`` after its own side checks."""
    parabolic = outcome is Outcome.PARABOLIC
    shift = c if parabolic else -c
    alpha = RadialProfile(lambda t: beta.value(t) + shift,
                          name=f"{beta.name}{'+' if parabolic else '-'}{c}")
    side = warping_integrability_check(warping, want_infinite=parabolic)
    curv = curvature_bounded_check(warping)
    if parabolic:
        t0 = _first_balance_radius(warping, n, alpha) * (1.0 + 1e-9)
    else:
        t0 = _outward_balance_radius(warping, n, alpha)
    setup = ComparisonSetup(warping, n, t0, alpha, name="bounded_drift")
    return _comparison(outcome, setup, criterion=criterion,
                       side_checks=[side, curv, *extra_checks])


def classify_radial_weight(warping, n, f: RadialProfile, c=0.0,
                           direction="parabolic", use_exp_integral=False):
    """Radial weight with bounded weighted mean curvature |wmc| <= c.

    Parabolic: f' -> -inf with non-integrable warping.  Hyperbolic: either
    f' -> +inf with integrable warping, or (``use_exp_integral``) a warping
    with a positive limit plus a convergent integral of e^(c t - f(t)).
    """
    outcome = comparison_outcome(direction)
    parabolic = outcome is Outcome.PARABOLIC
    if parabolic or not use_exp_integral:
        return _bounded_drift(warping, n, f_as_beta(f), c, outcome, "radial_weight",
                              [slope_limit_check(f, -1 if parabolic else +1)])
    alpha = RadialProfile(lambda t: f.deriv(t) - c, name=f"{f.name}'-{c}")

    def expint(t):
        return np.exp(c * t - f.value(t))

    head_lo = f.t_min * 1.001 + 1e-12 if f.t_min > 0 else 1e-12
    head = integrate(expint, head_lo, 1.0).value
    tail = classify_improper(expint, 1.0)
    exp_check = HypothesisCheck(
        name="exp_integral", status=HOLDS if tail.is_convergent else FAILS,
        margin=(head + tail.value) if tail.is_convergent else None,
        note=tail.reason)
    wlim = warping.value(64.0)
    limit_check = HypothesisCheck(
        name="warping_not_integrable", status=HOLDS if wlim > 1e-6 else FAILS,
        note=f"w(64) = {wlim:.3g} (positive limit expected)")
    t0 = _outward_balance_radius(warping, n, alpha,
                                 max(f.t_min * 1.001 + 1e-12, 1.0))
    setup = ComparisonSetup(warping, n, t0, alpha, name="radial_weight(exp_integral)")
    return _comparison(outcome, setup, criterion="radial_weight",
                       side_checks=[exp_check, limit_check,
                                    curvature_bounded_check(warping)])


def f_as_beta(f: RadialProfile):
    """The radial drift bound of a radial weight is its slope f'."""
    return RadialProfile(f.d1, t_min=f.t_min, name=f"{f.name}'")


def classify_warping_power(warping, n, k, t0=1.0):
    """Weight w(r)^k acting on a weighted-minimal submanifold.

    The drift bound is exactly k H(r); spheres must be convex beyond t0.
    k <= -n gives parabolicity, k > -n with an integrable comparison area
    gives hyperbolicity.
    """
    alpha = RadialProfile(lambda t: k * warping.deriv(t) / warping.value(t), name=f"{k}*H")
    setup = ComparisonSetup(warping, n, t0, alpha, name="warping_power")
    floor = _alpha_floor(t0, lambda t: warping.deriv(t) / warping.value(t),
                         "sphere curvature H(t) >= 0 (convexity at infinity)")
    outcome = Outcome.PARABOLIC if k <= -n else Outcome.HYPERBOLIC
    return _comparison(outcome, setup, criterion="warping_power", side_checks=[floor])


def classify_translator_halfspace(n, alpha: RadialProfile, t0):
    """Translator weight e^t with the immersion above t = r * alpha(r).

    Conditions: alpha(t) >= -n/t beyond t0 and a convergent comparison
    integral of t^(1-n) e^(-int alpha).
    """
    setup = ComparisonSetup(warping=warping_euclidean(), n=n, t0=t0,
                            alpha=alpha, name="translator_halfspace")
    floor = _alpha_floor(t0, lambda t: alpha.value(t) + n / t, "alpha(t) >= -n/t")
    return _comparison(Outcome.HYPERBOLIC, setup, criterion="translator_halfspace",
                       side_checks=[floor])


# ---------------------------------------------------------------------------
# Constant-curvature families: cylinders and hyperplanes


def cylinder_weighted_mc(k, xi: RadialProfile | None, t):
    """Weighted curvature (k-1)/t - t + xi'(t) of the cylinder of radius t,
    elementwise on an array of radii.

    Weight is the Gaussian perturbed by xi(|x|) on the R^k factor.
    """
    if np.min(t) <= 0:
        raise DomainError("cylinder radius must be positive")
    base = (k - 1) / t - t
    return base + (xi.deriv(t) if xi is not None else 0.0)


def critical_cylinder_radius(k, xi=None, lambda0=0.0, mode="last_above"):
    """Radius where the cylinder curvature crosses the level set by ``mode``
    (``first_below`` -lambda0 or ``last_above`` lambda0), with the tail scan
    of :func:`~wparab.model.critical_radius`."""
    return critical_radius(lambda t: cylinder_weighted_mc(k, xi, t), lambda0,
                           mode, 0.0, name=f"the cylinder curvature (k={k})")


def hyperplane_weighted_mc(weight, a, t, p=None):
    """Weighted curvature -<grad h, a> of the hyperplane <p, a> = t.

    Returns (value at p, spread) where spread is max - min over sampled
    points of the hyperplane (a constancy probe).
    """
    a = np.asarray(a, dtype=float)
    a = a / np.linalg.norm(a)
    m = len(a)
    if p is None:
        p = t * a
    else:
        p = np.asarray(p, dtype=float)
        if abs(float(p @ a) - t) > 1e-9:
            raise DomainError("point p does not lie on the hyperplane")
    value = -float(weight.grad(p[None])[0] @ a)

    B = _complement_basis(a)
    rng = np.random.Generator(np.random.Philox(20240601))
    coeffs = rng.standard_normal((_PROBE_SAMPLES, m - 1)) * _PROBE_SCALE
    vals = -(weight.grad(t * a + coeffs @ B) @ a)
    return value, float(vals.max() - vals.min())
