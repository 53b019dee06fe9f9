"""One-dimensional numerical engine.

Radial profiles with derivatives, adaptive Gauss--Kronrod quadrature,
improper-integral convergence classification with evidence, and Brent's
bracketed root finder.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import BracketError, DomainError, IntegrandSignError, QuadratureError


class AccuracyWarning(UserWarning):
    pass


# ---------------------------------------------------------------------------
# Profiles

@dataclass(frozen=True)
class AsymptoticHint:
    """Advisory tail information for improper-integral classification.

    tag is one of ``eventually_monotone_integrand``, ``exponential_order``,
    ``power_order`` or ``none``; ``param`` carries the rate when applicable.
    """

    tag: str = "none"
    param: float | None = None

    def __post_init__(self):
        allowed = {"eventually_monotone_integrand", "exponential_order",
                   "power_order", "none"}
        if self.tag not in allowed:
            raise ValueError(f"unknown hint tag {self.tag!r}")


NO_HINT = AsymptoticHint("none")


@dataclass(frozen=True)
class RadialProfile:
    """Scalar function of t > t_min with its first and, when ``d2`` is given,
    second derivative.

    ``fn``, ``d1`` and ``d2`` work element by element on a float and on an
    ndarray of radii of any shape, and return the argument's shape.
    """

    fn: object
    d1: object
    d2: object = None
    t_min: float = 0.0
    hint: AsymptoticHint = NO_HINT
    name: str = ""

    def __post_init__(self):
        # hook so that subclasses (pole-validated warpings) get called by
        # the generated __init__
        pass

    def value(self, t):
        return self.fn(t)

    def deriv(self, t):
        return self.d1(t)

    def second(self, t):
        if self.d2 is None:
            raise DomainError(
                f"profile {self.name or '<anonymous>'} has no second "
                f"derivative (built without d2)")
        return self.d2(t)

    def check_domain(self, t):
        lowest = t.min() if isinstance(t, np.ndarray) else t
        if lowest <= self.t_min:
            raise DomainError(
                f"profile {self.name or '<anonymous>'} undefined at t={lowest} "
                f"(domain is t > {self.t_min})")

    @classmethod
    def from_expression(cls, source, *, t_min=0.0, name=""):
        ast = ex.parse(source, ["t"])

        def fn(t):
            return ex.evaluate(ast, {"t": t}) + 0.0 * t

        def d1(t):
            out = ex.evaluate(ast, {"t": ex.Dual(t, 1.0)})
            return ex.dual_parts(out)[1] + 0.0 * t

        def d2(t):
            return ex.derivatives_1d(ast, "t", t)[2]

        return cls(fn, d1, d2, t_min=t_min, name=name or source)

    @classmethod
    def constant(cls, c, name=""):
        return cls(lambda t: c + 0.0 * t, lambda t: 0.0 * t, lambda t: 0.0 * t,
                   name=name or f"const({c})")


class WarpingFunction(RadialProfile):
    """Radial profile with pole conditions w(0)=0, w'(0)=1.

    Verified numerically at t = 1e-6 and 1e-8: w(t)/t within 1e-3 of 1.
    """

    def __post_init__(self):
        for t in (1e-6, 1e-8):
            ratio = self.value(t) / t
            if not abs(ratio - 1.0) <= 1e-3:
                raise ValueError(
                    f"warping function {self.name!r} violates pole conditions: "
                    f"w({t})/{t} = {ratio}")
        for t in (0.5, 1.0, 5.0, 20.0):
            if not self.value(t) > 0.0:
                raise ValueError(f"warping function {self.name!r} not positive at t={t}")


# Built-in catalog -----------------------------------------------------------

def warping_euclidean():
    return WarpingFunction(lambda t: t, lambda t: 1.0 + 0.0 * t,
                           lambda t: 0.0 * t, name="euclidean")


def warping_hyperbolic(kappa=-1.0):
    if kappa >= 0:
        raise ValueError("hyperbolic warping needs kappa < 0")
    s = math.sqrt(-kappa)
    return WarpingFunction(
        lambda t: np.sinh(s * t) / s,
        lambda t: np.cosh(s * t),
        lambda t: s * np.sinh(s * t),
        name=f"hyperbolic(kappa={kappa})")


def _paraboloid_arc(rho, sqrt=np.sqrt, asinh=np.arcsinh):
    # arclength from the apex of the profile curve z = rho^2/2
    return 0.5 * (rho * sqrt(1.0 + rho * rho) + asinh(rho))


def _paraboloid_radius(t):
    """Profile radius at arclength t, elementwise on arrays: arc(r) = t by Newton.

    The start r0 = min(t, sqrt(2t)) lies right of the root because
    arc(r) >= max(r, r^2/2).  arc is convex and increasing, so the iterates
    fall monotonically; they stop once none falls any more, a few ulp from
    the root.
    """
    if isinstance(t, np.ndarray):
        t, sqrt, asinh, lower = np.maximum(t, 0.0), np.sqrt, np.arcsinh, np.minimum
    else:
        t, sqrt, asinh, lower = max(float(t), 0.0), math.sqrt, math.asinh, min
    r = lower(t, sqrt(2.0 * t))
    for _ in range(64):
        step = (_paraboloid_arc(r, sqrt, asinh) - t) / sqrt(1.0 + r * r)
        r_next = lower(r, r - step)
        if np.all(r_next == r):
            return r
        r = r_next
    raise DomainError("paraboloid radius: Newton iteration did not settle")


def warping_paraboloid():
    """Rotation surface z = |x|^2/2: warping is the profile radius at arclength t."""

    def d1(t):
        rho = _paraboloid_radius(t)
        return 1.0 / np.sqrt(1.0 + rho * rho)

    def d2(t):
        rho = _paraboloid_radius(t)
        return -rho / (1.0 + rho * rho) ** 2

    return WarpingFunction(_paraboloid_radius, d1, d2, name="paraboloid")


def weight_zero():
    return RadialProfile.constant(0.0, name="zero")


def weight_gaussian():
    return RadialProfile(lambda t: -0.5 * t * t, lambda t: -t,
                         lambda t: -1.0 + 0.0 * t, name="gaussian")


def weight_antigaussian():
    return RadialProfile(lambda t: 0.5 * t * t, lambda t: t + 0.0 * t,
                         lambda t: 1.0 + 0.0 * t, name="antigaussian")


def weight_power(a, k):
    return RadialProfile(
        lambda t: a * np.power(t, k),
        lambda t: a * k * np.power(t, k - 1),
        lambda t: a * k * (k - 1) * np.power(t, k - 2),
        name=f"power(a={a}, k={k})", t_min=0.0 if k >= 1 else 1e-8)


def weight_logpow(k, w: WarpingFunction):
    """log-weight k*log(w(t)); singular at the pole, anchored away from it."""
    return RadialProfile(
        lambda t: k * np.log(w.value(t)),
        lambda t: k * w.deriv(t) / w.value(t),
        lambda t: k * (w.second(t) * w.value(t) - w.deriv(t) ** 2) / w.value(t) ** 2,
        name=f"logpow(k={k}, w={w.name})", t_min=1e-8)


# ---------------------------------------------------------------------------
# Adaptive quadrature (Gauss 7 / Kronrod 15 pair)

_K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_G7_IDX = np.array([1, 3, 5, 7, 9, 11, 13])


@dataclass
class QuadResult:
    value: float
    error: float
    converged: bool
    subdivisions: int

    def __iter__(self):
        yield self.value
        yield self.error


def _gk15(f, a, b):
    """Kronrod value and |Kronrod - Gauss| on every panel [a[i], b[i]], from
    one call of ``f`` on all nodes, an array of shape (panels, 15)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        half = 0.5 * (b - a)
        x = (0.5 * (a + b))[:, None] + half[:, None] * _K15_NODES
        fx = np.asarray(f(x), dtype=float)
    bad = ~np.isfinite(fx)
    if bad.any():
        raise QuadratureError(
            f"non-finite integrand value at t={float(x[bad].min())}")
    # row sums rather than a matrix product: BLAS may sum a row in an order
    # that depends on the panel count, and a panel's value must not
    k = half * (fx * _K15_WEIGHTS).sum(axis=1)
    g = half * (fx[:, _G7_IDX] * _G7_WEIGHTS).sum(axis=1)
    return k, np.abs(k - g)


def _misses_tolerance(value, error, abs_tol, rel_tol):
    """Whether ``error`` misses the tolerance of :func:`integrate`,
    max(abs_tol, rel_tol |value|); elementwise on arrays."""
    if isinstance(value, np.ndarray):
        return error > np.maximum(abs_tol, rel_tol * np.abs(value))
    return error > max(abs_tol, rel_tol * abs(value))


def _bisect(f, a, b, val, err, abs_tol, rel_tol, max_subdivisions):
    """Adaptive bisection of [a, b] from its GK15 (val, err), worst panel first."""
    # heap of (-error, tiebreak, a, b, value, error)
    counter = 0
    heap = [(-err, counter, a, b, val, err)]
    total_val, total_err = val, err
    n_sub = 0
    while (_misses_tolerance(total_val, total_err, abs_tol, rel_tol)
           and n_sub < max_subdivisions):
        neg_err, _, ia, ib, ival, ierr = heapq.heappop(heap)
        im = 0.5 * (ia + ib)
        if im == ia or im == ib:
            # interval at machine resolution; keep as is
            heapq.heappush(heap, (0.0, counter + 1, ia, ib, ival, ierr))
            counter += 1
            n_sub += 1
            continue
        (lv, rv), (le, re) = (v.tolist() for v in _gk15(
            f, np.array([ia, im]), np.array([im, ib])))
        total_val += lv + rv - ival
        total_err += le + re - ierr
        counter += 1
        heapq.heappush(heap, (-le, counter, ia, im, lv, le))
        counter += 1
        heapq.heappush(heap, (-re, counter, im, ib, rv, re))
        n_sub += 1
    converged = not _misses_tolerance(total_val, total_err, abs_tol, rel_tol)
    return QuadResult(total_val, total_err, converged, n_sub)


def integrate(f, a, b, abs_tol=1e-10, rel_tol=1e-8, max_subdivisions=10_000):
    """Adaptive nested quadrature of ``f`` over [a, b].

    Returns a :class:`QuadResult`; iterating it yields (value, error).
    Endpoints are never evaluated, so integrable endpoint singularities
    are tolerated when the caller knows they exist.

    With arrays ``a`` and ``b``, each panel [a[i], b[i]] is integrated on
    its own: one GK15 sweep covers every panel, and only the panels whose
    Kronrod--Gauss error fails the tolerance test are bisected further.
    ``value`` and ``error`` are then per-panel arrays, ``converged`` holds
    for all panels and ``subdivisions`` is their total.

    ``f`` works element by element on an ndarray of any shape and returns
    the same shape.  Non-finite values raise :class:`QuadratureError`
    naming the lowest offending node.
    """
    panels = np.ndim(a) > 0 or np.ndim(b) > 0
    lo, hi = np.atleast_1d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not panels and lo[0] == hi[0]:
        return QuadResult(0.0, 0.0, True, 0)
    if not np.all(lo < hi):
        raise DomainError(f"integrate needs a < b, got ({a}, {b})")
    vals, errs = _gk15(f, lo, hi)
    failing = np.flatnonzero(_misses_tolerance(vals, errs, abs_tol, rel_tol))
    results = [_bisect(f, float(lo[i]), float(hi[i]), float(vals[i]),
                       float(errs[i]), abs_tol, rel_tol, max_subdivisions)
               for i in failing]
    for i, res in zip(failing, results):
        vals[i], errs[i] = res.value, res.error
    unresolved = sum(not res.converged for res in results)
    converged = unresolved == 0
    if not converged:
        where = f"{unresolved} of {len(lo)} panels" if panels else f"[{a}, {b}]"
        warnings.warn(
            f"quadrature tolerance not reached on {where}: "
            f"estimated error {float(errs.sum()):.3e}", AccuracyWarning, stacklevel=2)
    n_sub = sum(res.subdivisions for res in results)
    if not panels:
        return QuadResult(float(vals[0]), float(errs[0]), converged, n_sub)
    return QuadResult(vals, errs, converged, n_sub)


# ---------------------------------------------------------------------------
# Improper integral classification

# doubling segments swept ahead as the panels of one integrate call
SEGMENTS_PER_CALL = 4


@dataclass
class IntegralVerdict:
    """Outcome of the doubling-cutoff convergence test, with evidence.

    ``status`` is ``convergent``, ``divergent`` or ``inconclusive``;
    classification is a numerical verdict, never a proof.
    """

    status: str
    value: float | None = None
    error_bound: float | None = None
    cutoffs: list = field(default_factory=list)
    partials: list = field(default_factory=list)
    increments: list = field(default_factory=list)
    used_hint: str = "none"
    reason: str = ""

    @property
    def is_convergent(self):
        return self.status == "convergent"

    @property
    def is_divergent(self):
        return self.status == "divergent"

    @property
    def is_decisive(self):
        return self.status != "inconclusive"

    def to_dict(self):
        return {
            "status": self.status,
            "value": self.value,
            "error_bound": self.error_bound,
            "cutoffs": list(self.cutoffs),
            "partials": list(self.partials),
            "used_hint": self.used_hint,
            "reason": self.reason,
        }


def classify_improper(f, a, hint=None, *, tail_tol=1e-6,
                      divergence_threshold=1e12, max_doublings=40,
                      ratio_cap=0.8):
    """Classify the convergence of the integral of a positive ``f`` over [a, inf).

    Cutoffs double: T_j = a * 2^j.  Convergent when the tail increments
    decay geometrically and the extrapolated remainder drops below
    ``tail_tol``; divergent when partial sums exceed the threshold, the
    increments stop decaying over six consecutive doublings, or the
    integrand blows up pointwise across the last cutoffs.  ``f`` takes a
    float at the cutoffs and the (segments, 15) array of GK15 nodes of the
    segments it integrates.
    """
    if a <= 0:
        raise DomainError("classify_improper needs a > 0")
    hint = hint or NO_HINT

    def checked(x):
        v = f(x)
        if v < -1e-13 * (1.0 + abs(v)):
            raise IntegrandSignError(f"integrand negative at t={x}: {v}")
        return v

    seg_tol, seg_rel = tail_tol * 1e-3, 1e-8

    def sweep(edges):
        """GK15 (value, error) of each segment between consecutive edges."""
        return list(zip(*(v.tolist() for v in _gk15(f, edges[:-1], edges[1:]))))

    cutoffs, partials, increments, samples = [], [], [], [checked(a)]
    ahead, group_end = [], 0
    partial = 0.0
    quad_err = 0.0
    used_hint = hint.tag

    for j in range(1, max_doublings + 1):
        t_prev = a * 2.0 ** (j - 1)
        t_cur = a * 2.0 ** j
        v_cur = checked(t_cur)
        samples.append(v_cur)

        # pointwise blow-up short-circuit: strictly increasing samples whose
        # next increment alone would exceed the divergence threshold
        if (len(samples) >= 3 and samples[-1] > samples[-2] > samples[-3]
                and min(samples[-3], samples[-2]) * (t_cur - t_prev) > divergence_threshold):
            return IntegralVerdict(
                "divergent", cutoffs=cutoffs + [t_cur], partials=list(partials),
                increments=list(increments), used_hint=used_hint,
                reason=f"integrand increases pointwise beyond threshold near t={t_cur}")

        if j > group_end:
            group_end = min(j + SEGMENTS_PER_CALL - 1, max_doublings)
            try:
                # only the GK15 sweep of the group: a segment that fails the
                # tolerance is bisected once the loop reaches it, never
                # beyond the cutoff where the loop stops
                ahead = sweep(a * 2.0 ** np.arange(j - 1, group_end + 1))
            except Exception:
                # one segment at a time, so that an error of f surfaces at
                # the segment the sequential loop would reach
                ahead = []
        # a panel's GK15 row sums do not depend on the panel count, so each
        # segment gets what a one-segment integrate call returns, to the bit;
        # its accuracy is folded into the verdict's own evidence
        seg_value, seg_error = ahead.pop(0) if ahead else sweep(np.array([t_prev, t_cur]))[0]
        if _misses_tolerance(seg_value, seg_error, seg_tol, seg_rel):
            seg_value, seg_error = _bisect(f, t_prev, t_cur, seg_value, seg_error,
                                           seg_tol, seg_rel, 10_000)
        partial += seg_value
        quad_err += seg_error
        cutoffs.append(t_cur)
        partials.append(partial)
        increments.append(seg_value)

        if partial > divergence_threshold:
            return IntegralVerdict(
                "divergent", cutoffs=cutoffs, partials=partials,
                increments=increments, used_hint=used_hint,
                reason=f"partial integral exceeded {divergence_threshold:g}")

        if len(increments) >= 6:
            recent = increments[-6:]
            if all(recent[i + 1] >= recent[i] * (1.0 - 1e-9) for i in range(5)):
                return IntegralVerdict(
                    "divergent", cutoffs=cutoffs, partials=partials,
                    increments=increments, used_hint=used_hint,
                    reason="increments non-decreasing over 6 doublings")

        if len(increments) >= 4:
            last = increments[-1]
            if last <= 0.0 or last <= 1e-300:
                return IntegralVerdict(
                    "convergent", value=partial, error_bound=max(quad_err, tail_tol),
                    cutoffs=cutoffs, partials=partials, increments=increments,
                    used_hint=used_hint, reason="tail increment vanished")
            ratios = [increments[i] / increments[i - 1]
                      for i in range(len(increments) - 3, len(increments))
                      if increments[i - 1] > 0]
            if len(ratios) == 3 and max(ratios) <= ratio_cap:
                r = max(ratios)
                tail = last * r / (1.0 - r)
                if tail <= tail_tol:
                    return IntegralVerdict(
                        "convergent", value=partial + tail,
                        error_bound=tail + quad_err,
                        cutoffs=cutoffs, partials=partials, increments=increments,
                        used_hint=used_hint,
                        reason=f"geometric decay (ratio <= {r:.3f}), tail <= {tail:.2e}")

    return IntegralVerdict(
        "inconclusive", cutoffs=cutoffs, partials=partials, increments=increments,
        used_hint=used_hint,
        reason=f"no decision after {max_doublings} doublings")


# ---------------------------------------------------------------------------
# Root finding


def find_root(f, lo, hi, tol=1e-12, max_iter=200):
    """Brent's method on a sign-changing bracket [lo, hi].

    Returns t* within tol + 4 eps |t*| (half of it on each side) of a
    root of f.  The steps are those of ``scipy.optimize.brentq`` with
    ``xtol=tol`` (Brent 1973, ch. 4): inverse quadratic interpolation or
    a secant step when it is short enough, bisection otherwise.  A NaN
    value, no sign change and no convergence in ``max_iter`` steps raise
    :class:`BracketError`.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise BracketError(f"f is NaN at t={x}")
        return fx

    xpre, xcur = float(lo), float(hi)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={fpre:.3e}, {fcur:.3e}")
    rtol = 4.0 * math.ulp(1.0)    # 4 eps, as in brentq
    xblk = fblk = spre = scur = 0.0
    for _ in range(max_iter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise BracketError(f"root not found within {max_iter} steps on [{lo}, {hi}]")


def expand_bracket(f, lo, hi, *, factor=2.0, cap=1e6):
    """Grow ``hi`` geometrically until a sign change appears.

    Returns the bracket (lo', hi'); raises :class:`BracketError` once the
    cap is reached without a sign change.  A NaN value is no sign change.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo, lo
    a, b = lo, hi
    fb = f(b)
    while not flo * fb <= 0.0:
        if b >= cap:
            raise BracketError(
                f"no sign change found while expanding bracket up to {cap:g}")
        a, b = b, min(b * factor, cap)
        flo = fb
        fb = f(b)
    return a, b
