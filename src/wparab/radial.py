"""One-dimensional numerical engine.

Radial profiles with derivatives, adaptive Gauss--Kronrod quadrature,
improper-integral convergence classification with evidence, and a
Brent-style bracketed root finder.
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
    """Scalar function of t > t_min with first (and optional second) derivative."""

    fn: object
    d1: object
    d2: object = None
    t_min: float = 0.0
    hint: AsymptoticHint = NO_HINT
    name: str = ""
    numpy_safe: bool = False

    def __post_init__(self):
        # hook so that subclasses (pole-validated warpings) get called by
        # the generated __init__
        pass

    def value(self, t):
        return self.fn(t)

    def deriv(self, t):
        return self.d1(t)

    def second(self, t):
        if self.d2 is not None:
            return self.d2(t)
        h = 1e-5 * (1.0 + abs(t))
        return (self.d1(t + h) - self.d1(t - h)) / (2.0 * h)

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
            return (out.deriv if isinstance(out, ex.Dual) else 0.0) + 0.0 * t

        def d2(t):
            return ex.derivatives_1d(ast, "t", t)[2]

        return cls(fn, d1, d2, t_min=t_min, name=name or source, numpy_safe=True)

    @classmethod
    def constant(cls, c, name=""):
        return cls(lambda t: c + 0.0 * t, lambda t: 0.0 * t, lambda t: 0.0 * t,
                   name=name or f"const({c})", numpy_safe=True)


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
                           lambda t: 0.0 * t, name="euclidean", numpy_safe=True)


def warping_hyperbolic(kappa=-1.0):
    if kappa >= 0:
        raise ValueError("hyperbolic warping needs kappa < 0")
    s = math.sqrt(-kappa)
    return WarpingFunction(
        lambda t: np.sinh(s * t) / s,
        lambda t: np.cosh(s * t),
        lambda t: s * np.sinh(s * t),
        name=f"hyperbolic(kappa={kappa})", numpy_safe=True)


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

    return WarpingFunction(_paraboloid_radius, d1, d2, name="paraboloid",
                           numpy_safe=True)


def weight_zero():
    return RadialProfile.constant(0.0, name="zero")


def weight_gaussian():
    return RadialProfile(lambda t: -0.5 * t * t, lambda t: -t,
                         lambda t: -1.0 + 0.0 * t, name="gaussian", numpy_safe=True)


def weight_antigaussian():
    return RadialProfile(lambda t: 0.5 * t * t, lambda t: t + 0.0 * t,
                         lambda t: 1.0 + 0.0 * t, name="antigaussian", numpy_safe=True)


def weight_power(a, k):
    return RadialProfile(
        lambda t: a * np.power(t, k),
        lambda t: a * k * np.power(t, k - 1),
        lambda t: a * k * (k - 1) * np.power(t, k - 2),
        name=f"power(a={a}, k={k})", numpy_safe=True,
        t_min=0.0 if k >= 1 else 1e-8)


def weight_logpow(k, w: WarpingFunction):
    """log-weight k*log(w(t)); singular at the pole, anchored away from it."""
    return RadialProfile(
        lambda t: k * np.log(w.value(t)),
        lambda t: k * w.deriv(t) / w.value(t),
        lambda t: k * (w.second(t) * w.value(t) - w.deriv(t) ** 2) / w.value(t) ** 2,
        name=f"logpow(k={k}, w={w.name})", t_min=1e-8, numpy_safe=w.numpy_safe)


def weight_catalog_entry(name, w=None, **params):
    if name == "zero":
        return weight_zero()
    if name == "gaussian":
        return weight_gaussian()
    if name == "antigaussian":
        return weight_antigaussian()
    if name == "power":
        return weight_power(params["a"], params["k"])
    if name == "logpow":
        if w is None:
            raise ValueError("logpow weight needs the warping function")
        return weight_logpow(params["k"], w)
    if name == "custom":
        return RadialProfile.from_expression(params["expr"],
                                             t_min=params.get("t_min", 0.0))
    raise KeyError(f"unknown weight {name!r}")


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


def _gk15(f, a, b, vectorized):
    """Kronrod value and |Kronrod - Gauss| on every panel [a[i], b[i]].

    A vectorized integrand gets all nodes in one call, as an array of shape
    (panels, 15); any other is called node by node in ascending order.
    """
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _K15_NODES
    if vectorized:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fx = np.asarray(f(x), dtype=float)
        bad = ~np.isfinite(fx)
        if bad.any():
            raise QuadratureError(
                f"non-finite integrand value at t={float(x[bad].min())}")
    else:
        fx = np.empty(x.size)
        for i, xi in enumerate(x.ravel()):
            fx[i] = f(xi)
            if not math.isfinite(fx[i]):
                raise QuadratureError(f"non-finite integrand value at t={float(xi)}")
        fx = fx.reshape(x.shape)
    # row sums rather than a matrix product: BLAS may sum a row in an order
    # that depends on the panel count, and a panel's value must not
    k = half * (fx * _K15_WEIGHTS).sum(axis=1)
    g = half * (fx[:, _G7_IDX] * _G7_WEIGHTS).sum(axis=1)
    return k, np.abs(k - g)


def _bisect(f, a, b, val, err, abs_tol, rel_tol, max_subdivisions, vectorized):
    """Adaptive bisection of [a, b] from its GK15 (val, err), worst panel first."""
    # heap of (-error, tiebreak, a, b, value, error)
    counter = 0
    heap = [(-err, counter, a, b, val, err)]
    total_val, total_err = val, err
    n_sub = 0
    while total_err > max(abs_tol, rel_tol * abs(total_val)) and n_sub < max_subdivisions:
        neg_err, _, ia, ib, ival, ierr = heapq.heappop(heap)
        im = 0.5 * (ia + ib)
        if im == ia or im == ib:
            # interval at machine resolution; keep as is
            heapq.heappush(heap, (0.0, counter + 1, ia, ib, ival, ierr))
            counter += 1
            n_sub += 1
            continue
        (lv, rv), (le, re) = (v.tolist() for v in _gk15(
            f, np.array([ia, im]), np.array([im, ib]), vectorized))
        total_val += lv + rv - ival
        total_err += le + re - ierr
        counter += 1
        heapq.heappush(heap, (-le, counter, ia, im, lv, le))
        counter += 1
        heapq.heappush(heap, (-re, counter, im, ib, rv, re))
        n_sub += 1
    converged = total_err <= max(abs_tol, rel_tol * abs(total_val))
    return QuadResult(total_val, total_err, converged, n_sub)


def integrate(f, a, b, abs_tol=1e-10, rel_tol=1e-8, max_subdivisions=10_000,
              *, vectorized=False):
    """Adaptive nested quadrature of ``f`` over [a, b].

    Returns a :class:`QuadResult`; iterating it yields (value, error).
    Endpoints are never evaluated, so integrable endpoint singularities
    are tolerated when the caller knows they exist.

    With arrays ``a`` and ``b``, each panel [a[i], b[i]] is integrated on
    its own: one GK15 sweep covers every panel, and only the panels whose
    Kronrod--Gauss error fails the tolerance test are bisected further.
    ``value`` and ``error`` are then per-panel arrays, ``converged`` holds
    for all panels and ``subdivisions`` is their total.

    ``vectorized`` declares ``f`` numpy-safe: elementwise on an ndarray of
    any shape, returning the same shape.  Non-finite values raise
    :class:`QuadratureError` naming the lowest offending node.
    """
    panels = np.ndim(a) > 0 or np.ndim(b) > 0
    lo, hi = np.atleast_1d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not panels and lo[0] == hi[0]:
        return QuadResult(0.0, 0.0, True, 0)
    if not np.all(lo < hi):
        raise DomainError(f"integrate needs a < b, got ({a}, {b})")
    vals, errs = _gk15(f, lo, hi, vectorized)
    failing = np.flatnonzero(errs > np.maximum(abs_tol, rel_tol * np.abs(vals)))
    results = [_bisect(f, float(lo[i]), float(hi[i]), float(vals[i]),
                       float(errs[i]), abs_tol, rel_tol, max_subdivisions,
                       vectorized) for i in failing]
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
                      ratio_cap=0.8, vectorized=False):
    """Classify the convergence of the integral of a positive ``f`` over [a, inf).

    Cutoffs double: T_j = a * 2^j.  Convergent when the tail increments
    decay geometrically and the extrapolated remainder drops below
    ``tail_tol``; divergent when partial sums exceed the threshold, the
    increments stop decaying over six consecutive doublings, or the
    integrand blows up pointwise across the last cutoffs.  ``vectorized``
    is passed on to :func:`integrate` for the segments.
    """
    if a <= 0:
        raise DomainError("classify_improper needs a > 0")
    hint = hint or NO_HINT

    def checked(x):
        v = f(x)
        if v < -1e-13 * (1.0 + abs(v)):
            raise IntegrandSignError(f"integrand negative at t={x}: {v}")
        return v

    cutoffs, partials, increments, samples = [], [], [], [checked(a)]
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

        with warnings.catch_warnings():
            # segment accuracy is folded into the verdict's own evidence
            warnings.simplefilter("ignore", AccuracyWarning)
            seg = integrate(f, t_prev, t_cur, abs_tol=tail_tol * 1e-3, rel_tol=1e-8,
                            vectorized=vectorized)
        partial += seg.value
        quad_err += seg.error
        cutoffs.append(t_cur)
        partials.append(partial)
        increments.append(seg.value)

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
    """Brent's method: bisection combined with inverse interpolation.

    Requires a sign change on [lo, hi]; returns t* with |f(t*)| <= tol or
    bracket width <= tol (plus machine slack).  Deterministic.
    """
    a, b = float(lo), float(hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={fa:.3e}, {fb:.3e}")
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * math.ulp(abs(b)) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0 or abs(fb) <= tol:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += tol1 if xm > 0 else -tol1
        fb = f(b)
    return b


def expand_bracket(f, lo, hi, *, factor=2.0, cap=1e6):
    """Grow ``hi`` geometrically until a sign change appears.

    Returns the bracket (lo', hi'); raises :class:`BracketError` once the
    cap is reached without a sign change.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo, lo
    a, b = lo, hi
    fb = f(b)
    while flo * fb > 0.0:
        if b >= cap:
            raise BracketError(
                f"no sign change found while expanding bracket up to {cap:g}")
        a, b = b, min(b * factor, cap)
        flo = fb
        fb = f(b)
    return a, b
