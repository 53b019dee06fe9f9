"""One-dimensional numerical engine.

Radial profiles with derivatives, adaptive Gauss--Kronrod quadrature and
cumulative primitives on a fixed grid, improper-integral convergence
classification with evidence, and Brent's bracketed root finder.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import (BracketError, DomainError, IntegrandSignError, NotAttainedError,
                     QuadratureError)
from .verdicts import INTERNAL, Record


class AccuracyWarning(UserWarning):
    pass


# ---------------------------------------------------------------------------
# Profiles

@dataclass(frozen=True)
class RadialProfile:
    """Scalar function of t > t_min with, when ``d1`` and ``d2`` are given,
    its first and second derivatives.

    ``fn``, ``d1`` and ``d2`` work element by element on a float and on an
    ndarray of radii of any shape, and return the argument's shape.
    ``linear`` is the pair (a, b) of a profile whose derivative is affine,
    f'(t) = a + b t, as the built-in catalog declares it; None otherwise.
    """

    fn: object
    d1: object = None
    d2: object = None
    t_min: float = 0.0
    name: str = ""
    linear: tuple | None = None

    def value(self, t):
        return self.fn(t)

    def deriv(self, t):
        if self.d1 is None:
            raise self._missing("first", "d1")
        return self.d1(t)

    def second(self, t):
        if self.d2 is None:
            raise self._missing("second", "d2")
        return self.d2(t)

    def _missing(self, order, field):
        return DomainError(f"profile {self.name or '<anonymous>'} has no {order} "
                           f"derivative (built without {field})")

    def check_domain(self, t):
        lowest = t.min() if isinstance(t, np.ndarray) else t
        if not lowest > self.t_min:  # NaN included
            raise DomainError(
                f"profile {self.name or '<anonymous>'} undefined at t={lowest} "
                f"(domain is t > {self.t_min})")

    @classmethod
    def from_expression(cls, source, *, t_min=0.0, name=None, linear=None):
        """An expression in t, named by its source by default; d1 and d2 come
        from dual numbers.  An expression c + a t declares its constant
        derivative a; a given ``linear`` pair declares another."""
        ast = ex.parse(source, ["t"])

        def fn(t):
            return ex.evaluate(ast, {"t": t}) + 0.0 * t

        def d1(t):
            out = ex.evaluate(ast, {"t": ex.Dual(t, 1.0)})
            return ex.dual_parts(out)[1] + 0.0 * t

        def d2(t):
            return ex.derivatives_1d(ast, "t", t)[2]

        if linear is None:
            form = ex.affine_form(ast, "t")
            linear = None if form is None else (form[1], 0.0)
        return cls(fn, d1, d2, t_min=t_min, name=name or source, linear=linear)

    @classmethod
    def constant(cls, c, name=""):
        return cls.from_expression(repr(float(c)), name=name or f"const({c})")


@dataclass(frozen=True)
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

# Expression trees, but for the paraboloid's warping (a Newton inverse) and
# logpow (a chain rule through any warping, the paraboloid's included).

def warping_euclidean():
    return WarpingFunction.from_expression("t", name="euclidean")


def warping_hyperbolic(kappa=-1.0):
    if kappa >= 0:
        raise ValueError("hyperbolic warping needs kappa < 0")
    s = math.sqrt(-kappa)
    return WarpingFunction.from_expression(f"sinh({s!r}*t)/{s!r}",
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
    return RadialProfile.from_expression("-0.5*t*t", name="gaussian", linear=(0.0, -1.0))


def weight_antigaussian():
    return RadialProfile.from_expression("0.5*t*t", name="antigaussian", linear=(0.0, 1.0))


def weight_height():
    """mu(t) = t: the height weight e^t of translators."""
    return RadialProfile.from_expression("t", name="height")


def weight_power(a, k):
    # float() keeps a numpy scalar's repr, np.float64(0.5), out of the source
    return RadialProfile.from_expression(
        f"{float(a)!r}*t^{float(k)!r}", name=f"power(a={a}, k={k})",
        t_min=0.0 if k >= 1 else 1e-8)


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
        # row sums rather than a matrix product: BLAS may sum a row in an
        # order that depends on the panel count, and a panel's value must
        # not; an overflowing sum gives a NaN error, failing every tolerance
        k = half * (fx * _K15_WEIGHTS).sum(axis=1)
        g = half * (fx[:, _G7_IDX] * _G7_WEIGHTS).sum(axis=1)
        return k, np.abs(k - g)


MAX_SUBDIVISIONS = 10_000
_NOISE = 50.0 * 2.0 ** -52


def _refine(f, panels, abs_tol, rel_tol):
    """Refine GK15 panels (a, b, value, error) level by level: a QuadResult each.

    A panel is a list of pieces (a, b, value, error) in position order.  While
    its summed error misses max(abs_tol, rel_tol |sum|), each level bisects,
    in one :func:`_gk15` call for all panels, every piece whose error exceeds
    its width's share of that tolerance and _NOISE |value| (rounding: the
    15-digit weights alone differ by 3.5e-15 on a constant) and whose midpoint
    lies strictly inside it; at the level that reaches MAX_SUBDIVISIONS, only
    as many as the cap leaves, the largest errors first.
    """
    pieces = [[panel] for panel in panels]
    width = [b - a for [(a, b, _, _)] in pieces]
    results, n_sub = [None] * len(pieces), [0] * len(pieces)
    active = range(len(pieces))
    while active:
        splits = []
        for i in active:
            value, error = sum(p[2] for p in pieces[i]), sum(p[3] for p in pieces[i])
            tol = max(abs_tol, rel_tol * abs(value))
            share, left = tol / width[i], MAX_SUBDIVISIONS - n_sub[i]
            cut = [k for k, (a, b, v, e) in enumerate(pieces[i])
                   if e > max(share * (b - a), _NOISE * abs(v)) and a < 0.5 * (a + b) < b]
            if error <= tol or not cut or not left:
                results[i] = QuadResult(value, error, error <= tol, n_sub[i])
            else:
                splits.append((i, set(cut if len(cut) <= left else
                                      sorted(cut, key=lambda k: -pieces[i][k][3])[:left])))
        if not splits:
            break
        ends = np.array([(a, 0.5 * (a + b), b) for i, cut in splits
                         for k, (a, b, _, _) in enumerate(pieces[i]) if k in cut])
        lo, hi = ends[:, :2].ravel(), ends[:, 1:].ravel()
        halves = iter(zip(lo.tolist(), hi.tolist(), *(v.tolist() for v in _gk15(f, lo, hi))))
        for i, cut in splits:
            pieces[i] = [q for k, p in enumerate(pieces[i])
                         for q in ((next(halves), next(halves)) if k in cut else (p,))]
            n_sub[i] += len(cut)
        active = [i for i, _ in splits]
    return results


def integrate(f, a, b, abs_tol=1e-10, rel_tol=1e-8):
    """Adaptive nested quadrature of ``f`` over [a, b].

    Returns a :class:`QuadResult`; iterating it yields (value, error).
    Endpoints are never evaluated, so integrable endpoint singularities
    are tolerated when the caller knows they exist.

    With arrays ``a`` and ``b``, each panel [a[i], b[i]] is integrated on
    its own: one GK15 sweep covers every panel, and only the panels whose
    Kronrod--Gauss error fails the tolerance test are refined, together.
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
    failing = np.flatnonzero(~(errs <= np.maximum(abs_tol, rel_tol * np.abs(vals))))
    results = _refine(f, zip(*(v[failing].tolist() for v in (lo, hi, vals, errs))),
                      abs_tol, rel_tol) if failing.size else []
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


class Primitive:
    """F(t) = integral of ``f`` from nodes[0] to t.

    The panels between consecutive nodes are integrated only as far as a
    query reaches and summed in node order, so a value does not depend on
    the order of the queries.  F(t) adds to the sum at the last node at or
    below t (nodes[0] below the grid, the last node beyond it) the panel
    from that node to t.  A query makes one :func:`integrate` call for the
    ladder panels it adds and the panels to its points together; a panel's
    value does not depend on the other panels of the call, and the ladder
    sums are a sequential cumulative sum, so a batch of queries gives the
    bits of the same queries one at a time.  A float gives a float and an
    array an array of its shape.  ``error`` is the summed ladder panel error.
    """

    def __init__(self, f, nodes, abs_tol, rel_tol):
        self.f, self.nodes = f, np.asarray(nodes, dtype=float)
        self.tols = {"abs_tol": abs_tol, "rel_tol": rel_tol}
        self.sums, self.errors = np.zeros(1), np.zeros(0)

    @property
    def error(self):
        return float(self.errors.sum())

    def __call__(self, t):
        flat = np.asarray(t, dtype=float).ravel()
        if np.isnan(flat).any():
            raise DomainError("primitive queried at t=nan")
        # the last node at or below t, clamped to the grid
        k = np.searchsorted(self.nodes[1:], flat, side="right")
        known = len(self.sums)
        ends = self.nodes[known - 1:k.max() + 1] if flat.size else self.nodes[:0]
        added = max(len(ends) - 1, 0)
        base = self.nodes[k]
        lo, hi = np.minimum(base, flat), np.maximum(base, flat)
        tail = lo < hi
        if added or tail.any():
            res = integrate(self.f, np.concatenate((ends[:-1], lo[tail])),
                            np.concatenate((ends[1:], hi[tail])), **self.tols)
            self.sums = np.concatenate(
                (self.sums, np.cumsum(np.concatenate((self.sums[-1:], res.value[:added])))[1:]))
            self.errors = np.concatenate((self.errors, res.error[:added]))
        out = self.sums[k]
        if tail.any():
            part = res.value[added:]
            out[tail] += np.where(flat[tail] > base[tail], part, -part)
        return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))


# ---------------------------------------------------------------------------
# Improper integral classification

# doubling segments swept ahead as the panels of one integrate call
SEGMENTS_PER_CALL = 4
TAIL_TOL, MAX_DOUBLINGS, RATIO_CAP = 1e-6, 40, 0.8


@dataclass
class IntegralVerdict(Record):
    """Outcome of the doubling-cutoff convergence test, with evidence.

    ``status`` is ``convergent``, ``divergent`` or ``inconclusive``;
    classification is a numerical verdict, never a proof.
    """

    status: str
    value: float | None = None
    error_bound: float | None = None
    cutoffs: list = field(default_factory=list)
    partials: list = field(default_factory=list)
    increments: list = field(default_factory=list, metadata=INTERNAL)
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


def classify_improper(f, a, *, divergence_threshold=1e12):
    """Classify the convergence of the integral of a positive ``f`` over [a, inf).

    Cutoffs double: T_j = a * 2^j.  Convergent when the tail increments
    decay geometrically and the extrapolated remainder drops below
    ``TAIL_TOL``; divergent when partial sums exceed the threshold, the
    increments stop decaying over six consecutive doublings, or the
    integrand blows up pointwise across the last cutoffs.

    ``f`` takes a float at a and an array otherwise.  The segments of
    ``SEGMENTS_PER_CALL`` doublings are swept ahead in one call of ``f``,
    of shape (segments, 16): each row holds a segment's 15 GK15 nodes and
    its right cutoff, whose value is the cutoff sample.  A segment that
    fails its tolerance is refined, one call per bisection level, when the
    loop reaches it.  If the call raises, the group falls back to one
    cutoff and one segment at a time, so that an error of ``f`` surfaces
    at the cutoff the sequential loop would reach.
    """
    if a <= 0:
        raise DomainError("classify_improper needs a > 0")

    def checked(t, v):
        if v < -1e-13 * (1.0 + abs(v)):
            raise IntegrandSignError(f"integrand negative at t={t}: {v}")
        return v

    seg_tol, seg_rel = TAIL_TOL * 1e-3, 1e-8

    def sweep(edges, fn=f):
        """GK15 (value, error) of each segment between consecutive edges."""
        return list(zip(*(v.tolist() for v in _gk15(fn, edges[:-1], edges[1:]))))

    def sampled_sweep(edges):
        """(f at the right edge, (value, error)) of each segment, from one
        call of f on the GK15 nodes with the right edges as a last column."""
        right = []

        def nodes_and_edges(x):
            fx = np.asarray(f(np.concatenate((x, edges[1:, None]), axis=1)), dtype=float)
            right.extend(fx[:, -1].tolist())
            return fx[:, :-1]

        segments = sweep(edges, nodes_and_edges)
        return list(zip(right, segments))

    cutoffs, partials, increments, samples = [], [], [], [checked(a, f(a))]
    ahead, group_end = [], 0
    partial = quad_err = 0.0

    def verdict(status, reason, **found):
        return IntegralVerdict(status, reason=reason, cutoffs=cutoffs, partials=partials,
                               increments=increments, **found)

    for j in range(1, MAX_DOUBLINGS + 1):
        t_prev = a * 2.0 ** (j - 1)
        t_cur = a * 2.0 ** j
        if j > group_end:
            group_end = min(j + SEGMENTS_PER_CALL - 1, MAX_DOUBLINGS)
            try:
                # only the GK15 sweep of the group: a segment that fails the
                # tolerance is refined once the loop reaches it, never
                # beyond the cutoff where the loop stops
                ahead = sampled_sweep(a * 2.0 ** np.arange(j - 1, group_end + 1))
            except Exception:
                # one cutoff and one segment at a time, so that an error of
                # f surfaces where the sequential loop would reach it
                ahead = []
        v_cur, segment = ahead.pop(0) if ahead else (f(t_cur), None)
        samples.append(checked(t_cur, v_cur))

        # pointwise blow-up short-circuit: strictly increasing samples whose
        # next increment alone would exceed the divergence threshold
        if (len(samples) >= 3 and samples[-1] > samples[-2] > samples[-3]
                and min(samples[-3], samples[-2]) * (t_cur - t_prev) > divergence_threshold):
            cutoffs.append(t_cur)
            return verdict("divergent",
                           f"integrand increases pointwise beyond threshold near t={t_cur}")

        # a panel's GK15 row sums do not depend on the panel count, so each
        # segment gets what a one-segment integrate call returns, to the bit;
        # its accuracy is folded into the verdict's own evidence
        seg_value, seg_error = segment or sweep(np.array([t_prev, t_cur]))[0]
        if not seg_error <= max(seg_tol, seg_rel * abs(seg_value)):
            seg_value, seg_error = _refine(
                f, [(t_prev, t_cur, seg_value, seg_error)], seg_tol, seg_rel)[0]
        partial += seg_value
        quad_err += seg_error
        cutoffs.append(t_cur)
        partials.append(partial)
        increments.append(seg_value)

        if partial > divergence_threshold:
            return verdict("divergent", f"partial integral exceeded {divergence_threshold:g}")

        if len(increments) >= 6:
            recent = increments[-6:]
            if all(recent[i + 1] >= recent[i] * (1.0 - 1e-9) for i in range(5)):
                return verdict("divergent", "increments non-decreasing over 6 doublings")

        if len(increments) >= 4:
            last = increments[-1]
            if last <= 0.0 or last <= 1e-300:
                return verdict("convergent", "tail increment vanished", value=partial,
                               error_bound=max(quad_err, TAIL_TOL))
            ratios = [increments[i] / increments[i - 1]
                      for i in range(len(increments) - 3, len(increments))
                      if increments[i - 1] > 0]
            if len(ratios) == 3 and max(ratios) <= RATIO_CAP:
                r = max(ratios)
                tail = last * r / (1.0 - r)
                if tail <= TAIL_TOL:
                    return verdict(
                        "convergent", f"geometric decay (ratio <= {r:.3f}), tail <= {tail:.2e}",
                        value=partial + tail, error_bound=tail + quad_err)

    return verdict("inconclusive", f"no decision after {MAX_DOUBLINGS} doublings")


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


def expand_bracket(f, lo, hi, *, cap=1e6):
    """Double ``hi`` until a sign change appears.

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
        a, b = b, min(b * 2.0, cap)
        flo = fb
        fb = f(b)
    return a, b


def first_crossing(g, lo, t_min, tol):
    """Root of ``g`` at its first sign change outward from near ``t_min``:
    while g(lo) <= 0, lo walks toward t_min (a quarter of its distance to
    t_min, at least lo/4), then :func:`expand_bracket` and :func:`find_root`
    within ``tol``.  A walk that passes below 1e-12 raises
    :class:`NotAttainedError` with the radius it reached."""
    while g(lo) <= 0.0 and lo > t_min + 1e-12:
        lo = max(t_min + (lo - t_min) / 4.0, lo / 4.0)
        if lo < 1e-12:
            raise NotAttainedError(f"g(t) <= 0 down to t={lo}", radius=lo)
    a, b = expand_bracket(g, lo, 2.0 * lo)
    return find_root(g, a, b, tol=tol)
