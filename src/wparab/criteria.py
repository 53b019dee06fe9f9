"""Classification pipeline for submanifolds of weighted model spaces.

Builds the comparison weight from a radial drift bound alpha, samples the
balance condition between alpha and the sphere curvature of the ambient
model, classifies the comparison area integral, and emits verdicts with a
full evidence trail.  Critical radii of spheres, cylinders and hyperplanes
live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import ImmersedSubmanifold, radial_hypothesis_profile
from .model import WeightedModel
from .radial import (AsymptoticHint, NO_HINT, RadialProfile, WarpingFunction,
                     classify_improper, expand_bracket, find_root, integrate)
from .verdicts import (FAILS, HOLDS, WINDOW_ONLY, HypothesisCheck, Outcome,
                       one_sided)

_LADDER_SPAN = 40.0      # doublings covered by the cumulative grid
_LADDER_NODES = 512


class CumulativeProfile(RadialProfile):
    """f(t) = integral of alpha from t0 to t, cached on a geometric ladder.

    Rung positions are fixed up front (t0 * 2^(j * 40/511)), so values are
    independent of the query order and runs are reproducible.  Numpy-safe
    whenever alpha is: an array of radii costs one batch of panels.
    """

    def __init__(self, alpha: RadialProfile, t0: float):
        step = _LADDER_SPAN / (_LADDER_NODES - 1)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "t0", float(t0))
        object.__setattr__(self, "_step", step)
        object.__setattr__(self, "_rungs",
                           float(t0) * 2.0 ** (np.arange(_LADDER_NODES) * step))
        object.__setattr__(self, "_rung_values", [0.0])
        # anchored away from the pole: comparison weights need no pole
        # regularity, and the primitive extends naturally below t0
        super().__init__(fn=self._value, d1=alpha.value, d2=alpha.deriv,
                         t_min=max(alpha.t_min, 1e-12),
                         name=f"cumulative({alpha.name})",
                         numpy_safe=alpha.numpy_safe)

    def _integral(self, a, b):
        return integrate(self.alpha.value, a, b, abs_tol=1e-12, rel_tol=1e-10,
                         vectorized=self.alpha.numpy_safe).value

    def _ladder(self, j):
        """Values at rungs 0..j (at least), extending the ladder in one batch."""
        known = self._rung_values
        if j >= len(known):
            ts = self._rungs[len(known) - 1:j + 1]
            # one panel per rung, summed in ladder order
            acc = np.cumsum([known[-1], *self._integral(ts[:-1], ts[1:])])
            known.extend(acc[1:].tolist())
        return np.asarray(known)

    def _value(self, t):
        flat = np.atleast_1d(np.asarray(t, dtype=float)).ravel()
        above = flat > self.t0
        j = np.zeros(flat.shape, dtype=int)
        j[above] = np.minimum(np.log2(flat[above] / self.t0) / self._step,
                              _LADDER_NODES - 1)
        base_t = np.where(above, self._rungs[j], self.t0)
        out = self._ladder(j.max())[j]
        lo, hi = np.minimum(base_t, flat), np.maximum(base_t, flat)
        tail = lo < hi
        if tail.any():
            part = self._integral(lo[tail], hi[tail])
            out[tail] += np.where(flat[tail] > base_t[tail], part, -part)
        return out.reshape(t.shape) if isinstance(t, np.ndarray) else float(out[0])


@dataclass
class ComparisonSetup:
    """Data defining the comparison model: ambient warping, n, t0 and alpha."""

    warping: WarpingFunction
    n: int
    t0: float
    alpha: RadialProfile
    hint: AsymptoticHint = NO_HINT
    name: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("comparison models need submanifold dimension n >= 2")
        if self.t0 <= 0:
            raise DomainError("anchor radius t0 must be positive")
        self.f = CumulativeProfile(self.alpha, self.t0)
        self.model = WeightedModel(self.n, self.warping, self.f)

    def comparison_area(self, t):
        """Weighted area of the (n-1)-sphere in the comparison model."""
        return self.model.sphere_area(t)

    def capacity_bound(self, rho, R=None):
        """Model-side capacity ratio Cap(B_rho)/A(S_rho) of the comparison."""
        if R is None:
            cap, verdict = self.model.capacity_to_infinity(rho, self.hint)
            if cap is None:
                return None
            return cap / self.comparison_area(rho)
        return (self.model.capacity_potential(rho, R).capacity
                / self.comparison_area(rho))


def _balance_check(setup: ComparisonSetup, sign, samples=512):
    """Sample n H(t) + alpha(t) (<= 0 for sign=-1, >= 0 for sign=+1)."""
    t0 = setup.t0
    ts = np.linspace(t0, 32.0 * t0, samples)
    vals = np.array([setup.n * setup.model.mean_curvature(t) + setup.alpha.value(t)
                     for t in ts])
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
    elif setup.hint.tag != "none":
        status, note = HOLDS, f"tail asserted via hint {setup.hint.tag}"
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


def classify_parabolic(setup: ComparisonSetup, P: ImmersedSubmanifold | None = None,
                       window=None, assume_drift_bound=False):
    """Parabolicity via capacity comparison with the weighted model.

    Fires only when the drift bound holds, the balance n H + alpha <= 0
    holds beyond t0, and the comparison area integral diverges.
    """
    checks = [
        _drift_check(setup, P, window, "upper", assume_drift_bound),
        _balance_check(setup, sign=-1),
    ]
    integral = classify_improper(setup.model.inv_sphere_area, setup.t0, setup.hint,
                                 vectorized=setup.model.numpy_safe)
    return one_sided(Outcome.PARABOLIC, needs_divergent=True, checks=checks,
                     integral=integral, criterion="parabolic_comparison",
                     capacity_bound=setup.capacity_bound,
                     notes=setup.name)


def classify_hyperbolic(setup: ComparisonSetup, P: ImmersedSubmanifold | None = None,
                        window=None, assume_drift_bound=False):
    """Hyperbolicity via the reversed comparison; needs a convergent integral."""
    checks = [
        _drift_check(setup, P, window, "lower", assume_drift_bound),
        _balance_check(setup, sign=+1),
    ]
    integral = classify_improper(setup.model.inv_sphere_area, setup.t0, setup.hint,
                                 vectorized=setup.model.numpy_safe)
    return one_sided(Outcome.HYPERBOLIC, needs_divergent=False, checks=checks,
                     integral=integral, criterion="hyperbolic_comparison",
                     capacity_bound=setup.capacity_bound,
                     notes=setup.name)


# ---------------------------------------------------------------------------
# Side-condition probes shared by the shortcut criteria


def warping_integrability_check(w: WarpingFunction, want_infinite):
    verdict = classify_improper(w.value, 1.0, vectorized=w.numpy_safe)
    if want_infinite:
        ok = verdict.is_divergent
        name = "warping_not_integrable"
    else:
        ok = verdict.is_convergent
        name = "warping_integrable"
    return HypothesisCheck(name=name, status=HOLDS if ok else FAILS,
                           margin=None, note=verdict.reason), verdict


def curvature_bounded_check(w: WarpingFunction, T=64.0, cap=1e3):
    ts = np.linspace(T, 2.0 * T, 64)
    sup = max(abs(w.deriv(t) / w.value(t)) for t in ts)
    status = HOLDS if sup < cap else FAILS
    return HypothesisCheck(name="sphere_curvature_bounded", status=status,
                           margin=float(cap - sup), window=(T, 2.0 * T),
                           samples=64, note=f"sup |H| = {sup:.3g} on window")


def slope_limit_check(f: RadialProfile, direction, samples=20):
    """Window evidence for f'(t) -> -inf (direction=-1) or +inf (+1)."""
    ts = [max(f.t_min * 1.01, 1e-3) * 2.0 ** j for j in range(samples)]
    vals = [direction * f.deriv(t) for t in ts]
    increasing = all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 6, len(vals) - 1))
    status = HOLDS if (increasing and vals[-1] > 1.0) else FAILS
    witness = None if status == HOLDS else {"t": ts[-1], "fprime": direction * vals[-1]}
    return HypothesisCheck(name="log_weight_slope_limit", status=status,
                           margin=float(vals[-1]), witness=witness,
                           window=(ts[0], ts[-1]), samples=samples,
                           note=f"direction={'+inf' if direction > 0 else '-inf'}")


def _first_balance_radius(warping, n, alpha, lo=1e-3, cap=1e6):
    """Smallest radius beyond which n H(t) + alpha(t) stays nonpositive."""

    def g(t):
        return n * warping.deriv(t) / warping.value(t) + alpha.value(t)

    t = lo
    while g(t) <= 0.0 and t > 1e-12:
        t /= 4.0
    if g(t) <= 0.0:
        # balance already holds at arbitrarily small radii
        return t
    a, b = expand_bracket(g, t, 2.0 * t, cap=cap)
    root = find_root(g, a, b, tol=1e-12)
    return root


# ---------------------------------------------------------------------------
# Shortcut criteria


def classify_bounded_drift(warping, n, beta: RadialProfile, c=0.0,
                           direction="parabolic", hint=NO_HINT,
                           P=None, window=None, assume_drift_bound=False):
    """Bounded weighted mean curvature plus a radial drift bound beta.

    Parabolic case: beta -> -inf, warping not integrable, sphere curvature
    bounded at infinity; hyperbolic case mirrored with beta -> +inf and an
    integrable warping.
    """
    if direction == "parabolic":
        alpha = RadialProfile(lambda t: beta.value(t) + c,
                              beta.d1, beta.d2, name=f"{beta.name}+{c}",
                              numpy_safe=beta.numpy_safe)
        side, verdict = warping_integrability_check(warping, want_infinite=True)
        curv = curvature_bounded_check(warping)
        t0 = _first_balance_radius(warping, n, alpha)
        setup = ComparisonSetup(warping, n, t0 * (1.0 + 1e-9), alpha, hint=hint,
                                name="bounded_drift")
        out = classify_parabolic(setup, P, window, assume_drift_bound)
    elif direction == "hyperbolic":
        alpha = RadialProfile(lambda t: beta.value(t) - c,
                              beta.d1, beta.d2, name=f"{beta.name}-{c}",
                              numpy_safe=beta.numpy_safe)
        side, verdict = warping_integrability_check(warping, want_infinite=False)
        curv = curvature_bounded_check(warping)

        def g(t):
            return n * warping.deriv(t) / warping.value(t) + alpha.value(t)

        t0 = 1.0
        while g(t0) < 0.0 and t0 < 1e6:
            t0 *= 2.0
        setup = ComparisonSetup(warping, n, t0, alpha, hint=hint,
                                name="bounded_drift")
        out = classify_hyperbolic(setup, P, window, assume_drift_bound)
    else:
        raise DomainError(f"unknown direction {direction!r}")
    out.checks.extend([side, curv])
    out.criterion = "bounded_drift"
    if not all(ch.holds for ch in out.checks):
        out.outcome = Outcome.INCONCLUSIVE
    return out


def classify_radial_weight(warping, n, f: RadialProfile, c=0.0,
                           direction="parabolic", hint=NO_HINT,
                           P=None, window=None, assume_drift_bound=False,
                           use_exp_integral=False):
    """Radial weight with bounded weighted mean curvature |wmc| <= c.

    Parabolic: f' -> -inf with non-integrable warping.  Hyperbolic: either
    f' -> +inf with integrable warping, or (``use_exp_integral``) a warping
    with a positive limit plus a convergent integral of e^(c t - f(t)).
    """
    fprime = f_as_beta(f)
    if direction == "parabolic":
        out = classify_bounded_drift(warping, n, fprime, c, "parabolic", hint,
                                     P, window, assume_drift_bound)
        out.checks.append(slope_limit_check(f, -1))
    elif direction == "hyperbolic" and use_exp_integral:
        alpha = RadialProfile(lambda t: f.deriv(t) - c, f.second,
                              name=f"{f.name}'-{c}", numpy_safe=f.numpy_safe)

        def expint(t):
            return math.exp(c * t - f.value(t))

        head_lo = f.t_min * 1.001 + 1e-12 if f.t_min > 0 else 1e-12
        head = integrate(expint, head_lo, 1.0).value
        tail = classify_improper(expint, 1.0, hint)
        exp_check = HypothesisCheck(
            name="exp_integral", status=HOLDS if tail.is_convergent else FAILS,
            margin=(head + tail.value) if tail.is_convergent else None,
            note=tail.reason)
        wlim = warping.value(64.0)
        limit_check = HypothesisCheck(
            name="warping_not_integrable", status=HOLDS if wlim > 1e-6 else FAILS,
            note=f"w(64) = {wlim:.3g} (positive limit expected)")

        def g(t):
            return n * warping.deriv(t) / warping.value(t) + alpha.value(t)

        t0 = max(f.t_min * 1.001 + 1e-12, 1.0)
        while g(t0) < 0.0 and t0 < 1e6:
            t0 *= 2.0
        setup = ComparisonSetup(warping, n, t0, alpha, hint=hint,
                                name="radial_weight(exp_integral)")
        out = classify_hyperbolic(setup, P, window, assume_drift_bound)
        out.checks.extend([exp_check, limit_check, curvature_bounded_check(warping)])
    elif direction == "hyperbolic":
        out = classify_bounded_drift(warping, n, fprime, c, "hyperbolic", hint,
                                     P, window, assume_drift_bound)
        out.checks.append(slope_limit_check(f, +1))
    else:
        raise DomainError(f"unknown direction {direction!r}")
    out.criterion = "radial_weight"
    if not all(ch.holds for ch in out.checks):
        out.outcome = Outcome.INCONCLUSIVE
    return out


def f_as_beta(f: RadialProfile):
    """The radial drift bound of a radial weight is its slope f'."""
    return RadialProfile(f.d1, f.second, None, t_min=f.t_min,
                         name=f"{f.name}'", numpy_safe=f.numpy_safe)


def classify_warping_power(warping, n, k, t0=1.0, hint=NO_HINT):
    """Weight w(r)^k acting on a weighted-minimal submanifold.

    The drift bound is exactly k H(r); spheres must be convex beyond t0.
    k <= -n gives parabolicity, k > -n with an integrable comparison area
    gives hyperbolicity.
    """
    ts = np.linspace(t0, 32.0 * t0, 256)
    hs = np.array([warping.deriv(t) / warping.value(t) for t in ts])
    worst = float(hs.min())
    floor = HypothesisCheck(
        name="alpha_floor", status=HOLDS if worst >= -1e-12 else FAILS,
        margin=worst, window=(float(t0), float(32.0 * t0)), samples=256,
        witness=None if worst >= -1e-12 else {"t": float(ts[int(hs.argmin())])},
        note="sphere curvature H(t) >= 0 (convexity at infinity)")
    alpha = RadialProfile(
        lambda t: k * warping.deriv(t) / warping.value(t),
        lambda t: k * (warping.second(t) * warping.value(t)
                       - warping.deriv(t) ** 2) / warping.value(t) ** 2,
        name=f"{k}*H", numpy_safe=warping.numpy_safe)
    setup = ComparisonSetup(warping, n, t0, alpha, hint=hint, name="warping_power")
    if k <= -n:
        out = classify_parabolic(setup)
    else:
        out = classify_hyperbolic(setup)
    out.checks.append(floor)
    out.criterion = "warping_power"
    if not all(ch.holds for ch in out.checks):
        out.outcome = Outcome.INCONCLUSIVE
    return out


def classify_translator_halfspace(n, alpha: RadialProfile, t0, hint=NO_HINT):
    """Translator weight e^t with the immersion above t = r * alpha(r).

    Conditions: alpha(t) >= -n/t beyond t0 and a convergent comparison
    integral of t^(1-n) e^(-int alpha).
    """
    ts = np.linspace(t0, 32.0 * t0, 256)
    margins = np.array([alpha.value(t) + n / t for t in ts])
    worst = float(margins.min())
    floor = HypothesisCheck(
        name="alpha_floor", status=HOLDS if worst >= -1e-12 else FAILS,
        margin=worst, window=(float(t0), float(32.0 * t0)), samples=256,
        witness=None if worst >= -1e-12 else {"t": float(ts[int(margins.argmin())])},
        note="alpha(t) >= -n/t")
    setup = ComparisonSetup(warping=_euclidean_warping(), n=n, t0=t0,
                            alpha=alpha, hint=hint, name="translator_halfspace")
    out = classify_hyperbolic(setup)
    out.checks.append(floor)
    out.criterion = "translator_halfspace"
    if not all(ch.holds for ch in out.checks):
        out.outcome = Outcome.INCONCLUSIVE
    return out


def _euclidean_warping():
    from .radial import warping_euclidean
    return warping_euclidean()


# ---------------------------------------------------------------------------
# Constant-curvature families: cylinders and hyperplanes


def cylinder_weighted_mc(k, xi: RadialProfile | None, t):
    """Weighted curvature (k-1)/t - t + xi'(t) of the cylinder of radius t.

    Weight is the Gaussian perturbed by xi(|x|) on the R^k factor.
    """
    if t <= 0:
        raise DomainError("cylinder radius must be positive")
    base = (k - 1) / t - t
    return base + (xi.deriv(t) if xi is not None else 0.0)


def cylinder_weighted_mc_n(n, xi: RadialProfile | None, t):
    """Same with k-1 replaced by the submanifold dimension n."""
    if t <= 0:
        raise DomainError("cylinder radius must be positive")
    return n / t - t + (xi.deriv(t) if xi is not None else 0.0)


def critical_cylinder_radius(k, xi=None, lambda0=0.0, mode="last_above",
                             use_dimension=None):
    """Radius where the cylinder curvature crosses the level set by ``mode``."""
    if lambda0 < 0:
        raise DomainError("lambda0 must be >= 0")
    target = -lambda0 if mode == "first_below" else lambda0

    if use_dimension is not None:
        def curv(t):
            return cylinder_weighted_mc_n(use_dimension, xi, t)
    else:
        def curv(t):
            return cylinder_weighted_mc(k, xi, t)

    def g(t):
        return curv(t) - target

    lo = 1e-4
    while g(lo) <= 0.0 and lo > 1e-12:
        lo /= 4.0
    a, b = expand_bracket(g, lo, 2.0 * lo, cap=1e6)
    return find_root(g, a, b, tol=1e-13)


def hyperplane_weighted_mc(weight, a, t, p=None, probe_samples=64, probe_scale=2.0):
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
    value = -float(weight.grad(p) @ a)

    from .geometry import _complement_basis
    B = _complement_basis(a)
    rng = np.random.Generator(np.random.Philox(20240601))
    coeffs = rng.standard_normal((probe_samples, m - 1)) * probe_scale
    vals = np.empty(probe_samples)
    for i in range(probe_samples):
        q = t * a + coeffs[i] @ B
        vals[i] = -float(weight.grad(q) @ a)
    return value, float(vals.max() - vals.min())
