"""Numerical differential geometry of parametric immersions.

Charts, declared normals and scalar fields are written against
dual-number-friendly arithmetic, so their first and second derivatives come
from one forward-mode routine (``jet``) to machine precision; there are no
finite differences.  They receive the columns of a stack of N parameter
points (N = 1 included) as arrays, or duals of them, never Python floats.
Ambients are either flat Euclidean space with an arbitrary weight, which
carries no metric (``G = None`` stands for the identity), or the polar
chart of a rotationally symmetric model with a radial weight (closed-form
warped-product Christoffel symbols).

Sign conventions: the scalar mean curvature of a two-sided hypersurface is
``(m-1) H_P = -div_P N``; metric spheres with inward normal ``N = -grad r``
have ``H_P = w'/w > 0``.  The mean curvature vector ``n*Hbar`` is the trace
of the second fundamental form and does not depend on the normal frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, DomainError, SupportError
from .expr import Dual, dual_parts, evaluate, fcos, flog, fsin, fsqrt, jet_parts, parse
from .model import WeightedModel
from .radial import RadialProfile, _K15_NODES, _K15_WEIGHTS, weight_height
from .verdicts import FAILS, HOLDS, HypothesisCheck

_COND_LIMIT = 1e12                     # induced metrics beyond it are degenerate
_MARGIN_TOL = 1e-8                     # a sampled hypothesis fails below -tol


# ---------------------------------------------------------------------------
# Stacks of points


def _columns(U):
    """The k array columns of a stack of points U of shape (N, k), so that
    one call evaluates every point."""
    return [U[:, k] for k in range(U.shape[1])]


def _stack(components, N):
    """(N, m) array from m components, each a scalar or an (N,) array."""
    out = np.empty((N, len(components)))
    for k, c in enumerate(components):
        out[:, k] = c
    return out


def _norm(x):
    """Euclidean norm over the last axis, as a row-by-row dot product: the
    rounding the reports were recorded with, which a sum of squares need
    not reproduce."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _inner(G, a, b):
    """<a, b>_G row by row, for stacks a and b (N, ..., m) and G (N, m, m).

    G None stands for the identity metric of a flat ambient: the row sums
    of a * b, which for m <= 7 equal the contraction with an identity stack
    to the bit."""
    if G is None:
        return (a * b).sum(axis=-1)
    G = G[(slice(None),) + (None,) * (max(a.ndim, b.ndim) - 2)]
    return np.einsum("...i,...ij,...j->...", a, G, b)


# ---------------------------------------------------------------------------
# Ambient weights (Euclidean)


class AmbientWeight:
    """Weight exp(h) on Euclidean coordinates: value, gradient, Hessian.

    Each weight defines ``value`` (N,), ``grad`` (N, m) and ``hess``
    (N, m, m) of a stack of points of shape (N, m); a single point is the
    one-row stack.  ``plane_drift`` declares the class of its drift on an
    affine plane.
    """

    name = "weight"

    def plane_drift(self, frame, foot):
        """The drift b = E^T grad h(c + E V) of the weight on the plane
        {c + E V} with orthonormal frame E (m, n) and foot c (E^T c = 0),
        in the frame coordinates V: the pair (lam, beta) when the drift is
        linear, b = lam V + beta, which is driftless when both vanish;
        otherwise a function b(V, r) of the frame points V (n, N) at
        ambient radii r (N,), here the projected gradient."""
        def drift(V, r):
            X = frame @ V
            X += foot[:, None]
            return frame.T @ self.grad(X.T).T

        return drift


class ZeroWeight(AmbientWeight):
    name = "zero"

    def plane_drift(self, frame, foot):
        return 0.0, np.zeros(frame.shape[1])

    def value(self, pts):
        return np.zeros(len(pts))

    def grad(self, pts):
        return np.zeros_like(pts)

    def hess(self, pts):
        N, m = pts.shape
        return np.zeros((N, m, m))


class RadialWeight(AmbientWeight):
    """h(p) = f(|p|) for a radial profile f with f'(0) = 0."""

    def __init__(self, profile: RadialProfile):
        self.profile = profile
        self.name = f"radial({profile.name})"

    def slope_over_r(self, r):
        """f'(r)/r at radii r, with the limit f''(0) at the pole; the
        gradient at a point p is slope_over_r(|p|) p."""
        pole = r < 1e-9
        if not pole.any():
            return self.profile.deriv(r) / r
        r = np.maximum(r, 1e-9)
        return np.where(pole, self.profile.second(r), self.profile.deriv(r) / r)

    def value(self, pts):
        return self.profile.value(_norm(pts))

    def grad(self, pts):
        return self.slope_over_r(_norm(pts))[:, None] * pts

    def plane_drift(self, frame, foot):
        # the gradient is (f'(r)/r) p, and E^T (c + E V) = V: a declared
        # f'(t) = lam t makes the drift lam V
        linear = self.profile.linear
        if linear is not None and linear[0] == 0.0:
            return linear[1], np.zeros(frame.shape[1])
        return lambda V, r: self.slope_over_r(r) * V

    def hess(self, pts):
        N, m = pts.shape
        r = _norm(pts)
        s = self.slope_over_r(r)
        pole = r < 1e-9
        u = np.where(pole[:, None], 0.0, pts / np.where(pole, 1.0, r)[:, None])
        second = self.profile.second(np.maximum(r, 1e-9))
        return ((second - s)[:, None, None] * u[:, :, None] * u[:, None, :]
                + s[:, None, None] * np.eye(m))


def _heights(mu: RadialProfile, t):
    """The heights t at which ``mu`` is read.  A mu without values at t <=
    t_min > 0 (logpow, a power below 1) refuses them; one with t_min 0
    reads every height, as translators below the origin need."""
    if mu.t_min > 0:
        mu.check_domain(t)
    return t


class HeightWeight(AmbientWeight):
    """h(p) = mu(<p, axis>) for a unit vector axis (default: last coordinate)."""

    def __init__(self, mu: RadialProfile, m, axis=None):
        self.mu = mu
        self.m = m
        if axis is None:
            axis = np.zeros(m)
            axis[-1] = 1.0
        self.axis = np.asarray(axis, dtype=float)
        self.name = f"height({mu.name})"

    def value(self, pts):
        return self.mu.value(_heights(self.mu, pts @ self.axis))

    def grad(self, pts):
        return self.mu.deriv(_heights(self.mu, pts @ self.axis))[:, None] * self.axis

    def plane_drift(self, frame, foot):
        # a declared constant mu' = a (the catalog height profile, an
        # expression c + a t, a constant) makes the gradient a * axis
        # wherever mu is defined; a mu not defined at every height keeps
        # the general drift, which checks the heights it reads
        linear = self.mu.linear
        if linear is not None and linear[1] == 0.0 and self.mu.t_min <= 0.0:
            return 0.0, linear[0] * (frame.T @ self.axis)
        return super().plane_drift(frame, foot)

    def hess(self, pts):
        return (self.mu.second(_heights(self.mu, pts @ self.axis))[:, None, None]
                * np.outer(self.axis, self.axis))


class SplitWeight(AmbientWeight):
    """h(x, t) = eta(x) + mu(t) on R^(m-1) x R."""

    def __init__(self, eta: AmbientWeight, mu: RadialProfile, m):
        self.eta = eta
        self.mu = mu
        self.m = m
        self.name = f"split({eta.name}+{mu.name})"

    def value(self, pts):
        return self.eta.value(pts[:, :-1]) + self.mu.value(_heights(self.mu, pts[:, -1]))

    def grad(self, pts):
        out = np.empty_like(pts)
        out[:, :-1] = self.eta.grad(pts[:, :-1])
        out[:, -1] = self.mu.deriv(_heights(self.mu, pts[:, -1]))
        return out

    def hess(self, pts):
        N, m = pts.shape
        out = np.zeros((N, m, m))
        out[:, :-1, :-1] = self.eta.hess(pts[:, :-1])
        out[:, -1, -1] = self.mu.second(_heights(self.mu, pts[:, -1]))
        return out


class ExprWeight(AmbientWeight):
    """Weight given by an expression in the coordinates x1..xm.

    Derivatives come from dual numbers seeded with whole coordinate
    columns: a stack of points costs one expression evaluation per
    direction for the gradient and per pair (``jet``) for the Hessian.
    """

    def __init__(self, source, m):
        self.m = m
        self.vars = [f"x{i + 1}" for i in range(m)]
        self.ast = parse(source, self.vars)
        self.name = f"expr({source})"

    def _at(self, cols):
        """The expression at coordinate columns (arrays or duals of them)."""
        return evaluate(self.ast, dict(zip(self.vars, cols)))

    def value(self, pts):
        return _stack([self._at(_columns(pts))], len(pts))[:, 0]

    def grad(self, pts):
        cols = _columns(pts)

        def along(i):
            return dual_parts(self._at(
                [Dual(c, float(k == i)) for k, c in enumerate(cols)]))[1]

        return _stack([along(i) for i in range(self.m)], len(pts))

    def hess(self, pts):
        return jet(lambda cols: [self._at(cols)], pts)[2][:, 0]


# ---------------------------------------------------------------------------
# Ambient spaces
#
# Methods of a point take one point of shape (m,) or a stack of shape (N, m).


class EuclideanAmbient:
    """Flat R^m with a weight; polar distance from the origin."""

    def __init__(self, m, weight: AmbientWeight | None = None):
        self.m = m
        self.weight = weight or ZeroWeight()

    flat = True       # identity metric, no Christoffel symbols

    def r(self, x):
        return _norm(np.asarray(x, dtype=float))

    def grad_r(self, x):
        """Unit radial direction, NaN at the pole where it is undefined."""
        r = self.r(x)
        return np.asarray(x, dtype=float) / np.where(r < 1e-300, np.nan, r)[..., None]

    def sphere_curvature(self, r):
        return 1.0 / r


class ModelChartAmbient:
    """Polar chart (t, theta_1..theta_{m-1}) of a weighted model space.

    Metric dt^2 + w(t)^2 * (round-sphere chart metric); Christoffel symbols
    use the closed warped-product expressions rather than differentiating
    the metric.  The weight f(t) is a height weight along t: its gradient is
    dh in the chart, its Hessian is not covariant (Hessian users refuse it).
    """

    flat = False

    def __init__(self, model: WeightedModel):
        self.model = model
        self.m = model.m
        self.weight = HeightWeight(model.f, self.m, axis=np.eye(self.m)[0])

    def _sphere_factors(self, ang):
        # s[..., a] = prod_{j<a} sin^2(theta_j), for the a-th angular coordinate
        sin2 = np.sin(ang) ** 2
        return np.concatenate([np.ones(ang.shape[:-1] + (1,)),
                               np.cumprod(sin2[..., :-1], axis=-1)], axis=-1)

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        w2 = self.model.w.value(x[..., 0]) ** 2
        g = np.zeros(x.shape[:-1] + (self.m, self.m))
        g[..., 0, 0] = 1.0
        a = np.arange(1, self.m)
        g[..., a, a] = w2[..., None] * self._sphere_factors(x[..., 1:])
        return g

    def christoffels(self, x):
        x = np.asarray(x, dtype=float)
        m = self.m
        q = m - 1
        w = self.model.w.value(x[..., 0])
        wp = self.model.w.deriv(x[..., 0])
        ratio = wp / w
        s = self._sphere_factors(x[..., 1:])
        gam = np.zeros(x.shape[:-1] + (m, m, m))
        a = np.arange(1, m)
        gam[..., 0, a, a] = (-w * wp)[..., None] * s
        gam[..., a, 0, a] = gam[..., a, a, 0] = ratio[..., None]
        for b in range(1, q + 1):        # coordinate theta_b
            cot = 1.0 / np.tan(x[..., b])
            for a in range(b + 1, q + 1):  # theta_a with a > b
                gam[..., a, b, a] = gam[..., a, a, b] = cot
                gam[..., b, a, a] = -(s[..., a - 1] / s[..., b - 1]) * cot
        return gam

    def r(self, x):
        return np.asarray(x, dtype=float)[..., 0]

    def grad_r(self, x):
        e = np.zeros(np.shape(x))
        e[..., 0] = 1.0
        return e

    def sphere_curvature(self, r):
        return self.model.mean_curvature(r)


# ---------------------------------------------------------------------------
# Charts and jets


def field_values(fld, V):
    """K values of a scalar field at a stack V (K, n) of parameter points.

    A field follows the chart contract: it takes a list of n columns and
    uses elementwise, dual-friendly arithmetic only, so ``jet`` can
    differentiate it; a scalar return value stands for a constant field."""
    return np.broadcast_to(np.asarray(fld(_columns(V)), dtype=float), (len(V),))


def jet(fn, U):
    """Values (N, m), Jacobians (N, m, n) and second derivatives
    (N, m, n, n) at a stack U (N, n) of a column callable returning m
    components: a chart, a declared normal, or ``lambda u: [fld(u)]`` for a
    scalar field.  One call per derivative pair: the nested dual seeded
    with e_j inside and e_i outside carries d_j in its value part and
    d_i d_j in its mixed part, so the diagonal calls (i = j) supply the
    Jacobian.
    """
    N, n = U.shape
    cols = _columns(U)
    x0 = _stack(fn(cols), N)
    m = x0.shape[1]
    J = np.empty((N, m, n))
    H = np.empty((N, m, n, n))
    for i in range(n):
        for j in range(i + 1):
            args = []
            for k in range(n):
                dj = 1.0 if k == j else 0.0
                di = 1.0 if k == i else 0.0
                args.append(Dual(Dual(cols[k], dj), Dual(di, 0.0)))
            _, first, mixed = zip(*(jet_parts(v) for v in fn(args)))
            H[:, :, i, j] = H[:, :, j, i] = _stack(mixed, N)
            if i == j:
                J[:, :, j] = _stack(first, N)
    return x0, J, H


@dataclass
class ImmersedSubmanifold:
    """Parametric immersion of an n-manifold into a weighted ambient.

    ``chart`` and the optional ``normal`` take a list of n parameter
    columns and return m components using elementwise arithmetic only, so
    the same call evaluates whole columns of parameter points or dual
    numbers of them.
    """

    ambient: object
    n: int
    chart: object                       # callable u -> m components (dual-friendly)
    window: tuple                       # default parameter box, ((lo, hi), ...)
    normal: object = None               # optional declared unit normal, u -> m components
    closed: bool = False                # chart covers a closed manifold
    linear: tuple | None = None         # (base_point, basis) for affine charts
    splitting: int | None = None        # horizontal factor size for cylinder ops
    name: str = ""

    @property
    def m(self):
        return self.ambient.m

    def point(self, U):
        """Ambient points (K, m) of a stack U (K, n) of parameter points."""
        U = np.asarray(U, dtype=float)
        return _stack(self.chart(_columns(U)), len(U))


@dataclass
class GeometrySample:
    """All first- and second-order geometric data at a stack of N parameter
    points: each field has a leading axis of points, the shapes below
    follow it.  ``ambient_metric`` is None in a flat ambient, and the
    radial data are NaN where ``grad_r`` is undefined.
    """

    u: np.ndarray
    point: np.ndarray
    jacobian: np.ndarray            # (m, n) columns d_i X
    metric: np.ndarray              # induced g_ij
    metric_inv: np.ndarray
    cond: np.ndarray                # condition number of g
    ambient_metric: np.ndarray | None   # (m, m) G; None: the identity
    tangent_frame: np.ndarray       # (n, m) orthonormal rows
    normals: np.ndarray             # (m-n, m) orthonormal rows
    second_fundamental: np.ndarray  # (m-n, n, n) scalar components
    chart_second: np.ndarray        # (m, n, n) coordinate d_i d_j X
    covariant_second: np.ndarray    # (n, n, m) ambient-covariant D_i d_j X
    trace: np.ndarray               # g^{ij} D_i d_j X (ambient coordinates)
    mc_vec: np.ndarray              # n * Hbar_P, the normal part of trace
    wmc_vec: np.ndarray             # weighted mean curvature vector
    grad_h: np.ndarray
    grad_r: np.ndarray
    radial_tangent_norm: np.ndarray     # |grad_P r|


def _project_out(v, G, frame):
    """Modified Gram-Schmidt step: remove from v (N, m) its G-components
    along the orthonormal rows frame[:, a] in order."""
    for a in range(frame.shape[1]):
        e = frame[:, a]
        v = v - _inner(G, v, e)[:, None] * e
    return v


def _gram_schmidt(J, G, tol=1e-13):
    """Orthonormal tangent frames (N, n, m) from the columns of J, and the
    rows where a column is numerically dependent on the previous ones."""
    N, m, n = J.shape
    frame = np.zeros((N, n, m))
    bad = np.zeros(N, dtype=bool)
    for i in range(n):
        v = _project_out(J[:, :, i], G, frame[:, :i])
        norm = np.sqrt(np.maximum(_inner(G, v, v), 0.0))
        small = norm <= tol
        bad |= small
        frame[:, i] = v / np.where(small, 1.0, norm)[:, None]
    return frame, bad


def _complete_normals(G, tangent, m, skip_tol=1e-8):
    """Normal frames (N, m-n, m) seeded with the ambient coordinate axes in
    index order, skipping per row the axes that lie (numerically) in the
    span so far; also the rows left incomplete."""
    N, n, _ = tangent.shape
    needed = m - n
    normals = np.zeros((N, needed, m))
    found = np.zeros(N, dtype=int)
    rows = np.arange(N)
    for axis in range(m):
        v = np.zeros((N, m))
        v[:, axis] = 1.0
        # slots not yet filled are zero rows, which the projection leaves alone
        v = _project_out(_project_out(v, G, tangent), G, normals)
        norm = np.sqrt(np.maximum(_inner(G, v, v), 0.0))
        take = (found < needed) & ~(norm <= skip_tol)
        normals[rows[take], found[take]] = v[take] / norm[take, None]
        found += take
    return normals, found < needed


def _raise_first(checks):
    """Raise the error of the first flagged row, as a loop over the rows
    would: the earliest check that flags that row wins."""
    if not any(mask.any() for mask, _ in checks):
        return
    i = min(np.flatnonzero(mask)[0] for mask, _ in checks if mask.any())
    for mask, error in checks:
        if mask[i]:
            raise error(i)


def geometry_at_batch(P: ImmersedSubmanifold, U):
    """Metric, frames, curvature vectors and radial data at a stack U of
    parameter points (N, n), as a GeometrySample with stacked fields.

    In a flat ambient whose chart Jacobian rows are bit-equal (coordinate
    planes, hyperplanes, the graph of a linear expression), the induced
    metric, its condition number and inverse, the tangent frame and the
    completed normals are computed on the first row and repeated: a LAPACK
    gufunc and the row-wise frame steps give one matrix the bits it gets in
    a stack, so every row holds what the row-by-row computation gives.  A
    declared normal and everything that depends on the point stay per row.

    The first row that is degenerate (or whose declared normal is invalid)
    raises, naming its parameter point.
    """
    U = np.asarray(U, dtype=float)
    N = len(U)
    # overflowing rows are flagged below and the first one raises; numpy's
    # warnings would only be noise (errors under a caller's error filter)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, J, Hx = jet(P.chart, U)
        flat = P.ambient.flat
        G = None if flat else P.ambient.metric(x)   # None: the identity, see _inner
        bits = J.reshape(N, -1).view(np.uint64)
        one_row = flat and N > 1 and (bits == bits[0]).all()
        Jr = J[:1] if one_row else J             # the rows the frames come from
        Jt = np.swapaxes(Jr, -1, -2)
        g = Jt @ Jr if flat else Jt @ G @ Jr
        # cond(g) = max |eigenvalue| / min |eigenvalue| of the symmetric g; rows
        # that are not finite are flagged before LAPACK sees them, and so are
        # rows of a cusp (finite g, non-finite point or second derivatives; a
        # non-finite J makes g non-finite)
        finite = np.isfinite(g).all(axis=(1, 2))
        eig = np.abs(np.linalg.eigvalsh(np.where(finite[:, None, None], g, np.eye(P.n))))
        cond = np.where(finite, eig.max(axis=1) / eig.min(axis=1), np.nan)
        g_inv = np.linalg.inv(np.where(~(cond < _COND_LIMIT)[:, None, None], np.eye(P.n), g))
        tangent, bad_frame = _gram_schmidt(Jr, G)
        intrinsic = [g, finite, cond, g_inv, tangent, bad_frame]
        if P.normal is None:
            intrinsic += _complete_normals(G, tangent, P.m)
        if one_row:
            intrinsic = [np.repeat(v, N, axis=0) for v in intrinsic]
        g, finite, cond, g_inv, tangent, bad_frame, *completed = intrinsic
        bad_jet = ~(np.isfinite(x).all(axis=1) & np.isfinite(Hx).all(axis=(1, 2, 3)))
        bad_cond = ~(cond < _COND_LIMIT)
        # ambient-covariant D_i d_j X, (N, n, n, m): no Christoffel term if flat
        second = np.transpose(Hx, (0, 2, 3, 1))
        if not flat:
            second = second + np.einsum("Nkab,Nai,Nbj->Nijk",
                                        P.ambient.christoffels(x), J, J)

        checks = [
            (~finite, lambda i: DegenerateMetricError(
                f"induced metric not finite at u={U[i]}")),
            (bad_jet, lambda i: DegenerateMetricError(
                f"chart jet not finite at u={U[i]}")),
            (bad_cond, lambda i: DegenerateMetricError(
                f"induced metric degenerate at u={U[i]} (cond={cond[i]:.2e})")),
            (bad_frame, lambda i: DegenerateMetricError(
                f"tangent frame numerically degenerate at u={U[i]}")),
        ]
        if P.normal is not None:
            declared = _stack(P.normal(_columns(U)), N)
            normals = declared[:, None, :]
            checks += [
                (np.abs(_inner(G, declared, declared) - 1.0) > 1e-10,
                 lambda i: ValueError(f"declared normal is not unit length at u={U[i]}")),
                ((np.abs(_inner(G, declared[:, None], tangent)) > 1e-10).any(axis=1),
                 lambda i: ValueError("declared normal is not orthogonal to the "
                                      f"tangent space at u={U[i]}")),
            ]
        else:
            normals, incomplete = completed
            checks.append((incomplete, lambda i: DegenerateMetricError(
                f"could not complete the normal frame at u={U[i]}")))
        _raise_first(checks)

    trace = np.einsum("Nij,Nijk->Nk", g_inv, second)
    sff = (np.einsum("Nijk,Nak->Naij", second, normals) if flat else
           np.einsum("Nijk,Nkl,Nal->Naij", second, G, normals))

    def normal_part(v):
        return np.einsum("Na,Nak->Nk", _inner(G, v[:, None], normals), normals)

    grad_h = P.ambient.weight.grad(x)
    mc = normal_part(trace)
    wmc = mc - normal_part(grad_h)

    grad_r = P.ambient.grad_r(x)
    tangential = (_inner(G, grad_r[:, None], tangent) ** 2).sum(axis=1)
    radial_norm = np.sqrt(np.minimum(np.maximum(tangential, 0.0), 1.0 + 1e-12))

    return GeometrySample(
        u=U, point=x, jacobian=J, metric=g, metric_inv=g_inv, cond=cond,
        ambient_metric=G, tangent_frame=tangent, normals=normals,
        second_fundamental=sff, chart_second=Hx, covariant_second=second,
        trace=trace, mc_vec=mc, wmc_vec=wmc, grad_h=grad_h, grad_r=grad_r,
        radial_tangent_norm=radial_norm)


def geometry_at(P: ImmersedSubmanifold, u):
    """The sample of one parameter point u (n,): the one-row stack."""
    return geometry_at_batch(P, np.asarray(u, dtype=float)[None])


# ---------------------------------------------------------------------------
# Intrinsic weighted Laplacian


def _drift(s):
    """Drift b (N, n) of the weighted Laplacian of a stacked sample:
    b = g^{-1} J^T (dh - G tr) with the sample's tr = g^{ij} D_i d_j X, which
    is g^{kl} d_l (h o X) - g^{ij} Gamma^k_ij for the intrinsic Christoffels
    Gamma^k_ij = g^{kl} <d_l X, D_i d_j X>_G."""
    G = s.ambient_metric
    dh = s.grad_h - (s.trace if G is None else (G @ s.trace[..., None])[..., 0])
    return (s.metric_inv @ (np.swapaxes(s.jacobian, -1, -2) @ dh[..., None]))[..., 0]


def _laplacian(s, df, d2f):
    """g^{ij} d_i d_j f + b^k d_k f at each row of a stacked sample, from
    the parameter gradients df (N, n) and Hessians d2f (N, n, n) of f, with
    the drift b of ``_drift``."""
    return (np.einsum("Nij,Nij->N", s.metric_inv, d2f)
            + np.einsum("Nk,Nk->N", _drift(s), df))


def _pullback(s, grad, hess=None):
    """Parameter gradients (N, n) and Hessians (N, n, n) of F o X by the
    chain rule through the sample's chart jet, from the coordinate gradient
    grad (N, m) and Hessian hess ((N, m, m) or (m, m); None for an affine F)
    of F at the sample's points."""
    J = s.jacobian
    d2 = np.einsum("Nc,Ncij->Nij", grad, s.chart_second)
    if hess is not None:
        d2 = d2 + np.swapaxes(J, -1, -2) @ hess @ J
    return (grad[:, None, :] @ J)[:, 0], d2


def weighted_laplacian(s, fld):
    """Drift Laplacian of a scalar field on the parameter domain at each
    point of a stacked sample s = ``geometry_at_batch(P, U)``, shape (N,).

    ``fld`` is a dual-friendly column callable (see ``field_values``); its
    derivatives come from ``jet``.
    """
    _, df, d2f = jet(lambda u: [fld(u)], s.u)
    return _laplacian(s, df[:, 0], d2f[:, 0])


# ---------------------------------------------------------------------------
# Identity cross-checks
#
# Each check takes a stacked sample s = geometry_at_batch(P, U) and returns
# one value per row.


def radial_identity_residual(P, s, psi: RadialProfile):
    """|direct drift Laplacian of psi(r) minus its radial closed form|, (N,).

    The closed form is (psi'' - H psi') |grad_P r|^2
    + (n H + <grad h, grad r> + <wmc, grad r>) psi', the module's central
    self-consistency check for radial functions on submanifolds.
    """
    _raise_first([(np.isnan(s.grad_r).all(axis=1), lambda i: DomainError(
        f"ambient radial distance unavailable at u={s.u[i]}"))])
    amb = P.ambient
    r = amb.r(s.point)
    H = amb.sphere_curvature(r)
    dpsi, d2psi = psi.deriv(r), psi.second(r)
    G = s.ambient_metric
    rhs = ((d2psi - H * dpsi) * s.radial_tangent_norm ** 2
           + (P.n * H + _inner(G, s.grad_h, s.grad_r)
              + _inner(G, s.wmc_vec, s.grad_r)) * dpsi)
    # direct side psi'' dr dr^T + psi' d2r with r o X pulled back: r = |x| has
    # the Hessian (I - e e^T) / r, e = grad_r; a model chart's r = t has none
    e = s.grad_r
    hess_r = ((np.eye(P.m) - e[:, :, None] * e[:, None, :]) / r[:, None, None]
              if G is None else None)
    dr, d2r = _pullback(s, e, hess_r)
    lhs = _laplacian(s, dpsi[:, None] * dr,
                     d2psi[:, None, None] * dr[:, :, None] * dr[:, None, :]
                     + dpsi[:, None, None] * d2r)
    return np.abs(lhs - rhs)


def _grid(*axes):
    """All combinations of the axis values, (N, len(axes)), last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _grid_points(window, per_dim):
    return _grid(*(np.linspace(lo, hi, per_dim) for lo, hi in window))


def radial_hypothesis_profile(P, window, alpha: RadialProfile, sense="upper",
                              max_points=4096, min_radius=None):
    """Sample <grad h, grad r> + <wmc, grad r> against alpha(r) on a window.

    ``upper``: the sampled quantity must stay <= alpha(r); ``lower``: >=.
    Points with ambient radius below ``min_radius`` (the anchor of the
    comparison) are skipped: the inequality is only required outside the
    corresponding extrinsic ball.  A failure carries a witness point.
    """
    n = len(window)
    per_dim = 32
    if per_dim ** n > max_points:
        per_dim = max(2, int(round(max_points ** (1.0 / n))))
    pts = _grid_points(window, per_dim)
    floor = min_radius if min_radius is not None else 1e-9
    s = geometry_at_batch(P, pts)
    r = P.ambient.r(s.point)
    # NaN-free grad_r rows with a radius above the floor, in grid order
    keep = np.flatnonzero(~(r < floor) & ~np.isnan(s.grad_r).all(axis=1))
    used = len(keep)
    G = s.ambient_metric
    lhs = (_inner(G, s.grad_h, s.grad_r) + _inner(G, s.wmc_vec, s.grad_r))[keep]
    bound = alpha.value(r[keep])
    margins = (bound - lhs) if sense == "upper" else (lhs - bound)
    # NaN margins never become the minimum; the first minimum is the witness
    margins = np.where(np.isnan(margins), math.inf, margins)
    worst = float(margins.min()) if used else math.inf
    witness = None
    if worst < -_MARGIN_TOL:
        k = int(np.argmin(margins))
        witness = {"u": [float(x) for x in pts[keep[k]]], "r": float(r[keep[k]]),
                   "lhs": float(lhs[k]), "bound": float(bound[k])}
    if used == 0:
        return HypothesisCheck(name="radial_drift_bound", status=FAILS,
                               witness={"reason": "no sample radius above floor"},
                               window=tuple(tuple(w) for w in window),
                               note=f"sense={sense}; floor={floor}")
    status = FAILS if worst < -_MARGIN_TOL else HOLDS
    return HypothesisCheck(name="radial_drift_bound", status=status,
                           margin=float(worst), witness=witness,
                           window=tuple(tuple(w) for w in window),
                           samples=used,
                           note=f"sense={sense}; radius floor {floor:g}")


@dataclass
class LaplacianComparison:
    formula: np.ndarray
    direct: np.ndarray

    @property
    def residual(self):
        return abs(self.formula - self.direct)


def height_laplacian(P, s, a):
    """Drift Laplacian of the height <p, a>: <wmc, a> + <grad h, a>.

    Returns the assembled values, the direct Laplacians of the pulled-back
    height, and their residuals.
    """
    if not P.ambient.flat:
        raise DomainError("height functions require a Euclidean ambient")
    a = np.asarray(a, dtype=float)
    formula = s.wmc_vec @ a + s.grad_h @ a
    direct = _laplacian(s, *_pullback(s, np.broadcast_to(a, s.point.shape)))
    return LaplacianComparison(formula, direct)


def cylinder_distance_laplacian(P, s, k=None):
    """Drift Laplacian of |x|^2/2 under the splitting R^k x R^(m-k).

    The identity side is sum |e_i^horizontal|^2 + <grad h, X> + <wmc, X>
    with X = (x, 0); both it and the direct Laplacian are returned.
    """
    if not P.ambient.flat:
        raise DomainError("cylinder distance requires a Euclidean ambient")
    k = k if k is not None else P.splitting
    if not (k and 1 <= k <= P.m):
        raise DomainError(f"splitting k={k} out of range for m={P.m}")
    x = s.point[:, :k]
    horiz = (s.tangent_frame[:, :, :k] ** 2).sum(axis=(1, 2))
    formula = horiz + (s.grad_h[:, :k] * x).sum(axis=1) + (s.wmc_vec[:, :k] * x).sum(axis=1)
    grad = np.zeros_like(s.point)
    grad[:, :k] = x
    hess = np.diag((np.arange(P.m) < k).astype(float))
    direct = _laplacian(s, *_pullback(s, grad, hess))
    return LaplacianComparison(formula, direct)


@dataclass
class AngleLaplacian:
    """Angle-function Laplacian of a horizontal graph, three ways.

    ``formula_cmc`` is the constant-curvature closed form
    {Hess eta(n,n) + mu''(theta^2-1) - |sigma|^2} theta; ``formula`` adds
    the advection term -<grad_P H, dt_tangential> needed when the weighted
    mean curvature is not constant along the graph.
    """

    formula_cmc: np.ndarray
    formula: np.ndarray
    direct: np.ndarray
    theta: np.ndarray
    sigma_sq: np.ndarray
    advection: np.ndarray

    @property
    def residual(self):
        return abs(self.formula - self.direct)

    @property
    def residual_cmc(self):
        return abs(self.formula_cmc - self.direct)


def _sigma_sq(s):
    """|sigma|^2 = g^{ik} g^{jl} sigma_ij sigma_kl of a hypersurface, (N,)."""
    sigma = s.second_fundamental[:, 0]
    return np.einsum("Nik,Njl,Nij,Nkl->N", s.metric_inv, s.metric_inv, sigma, sigma)


def _scalar_wmc_gradient(s, hess_h, N, dN, d2N):
    """Parameter gradients (rows, n) of H = <wmc, N> = -g^{ij} A_ij - <grad h, N>,
    A_ij = <d_j X, d_i N>, on a hypersurface of a flat ambient with a declared
    normal N.  The jet of N (dN, d2N), the chart's second derivatives and the
    weight's Hessian suffice: d_k g^{ij} = -g^{ia} d_k g_ab g^{bj} and
    d_k g_ab = <d_k d_a X, d_b X> + <d_a X, d_k d_b X>."""
    J, Hx, g_inv = s.jacobian, s.chart_second, s.metric_inv
    M = g_inv @ np.einsum("Ncj,Nci->Nij", J, dN) @ g_inv
    return (np.einsum("Ncka,Ncb,Nab->Nk", Hx, J, M + np.swapaxes(M, -1, -2))
            - np.einsum("Nij,Nckj,Nci->Nk", g_inv, Hx, dN)
            - np.einsum("Nij,Ncj,Ncik->Nk", g_inv, J, d2N)
            - np.einsum("Nck,Ncd,Nd->Nk", J, hess_h, N)
            - np.einsum("Nc,Nck->Nk", s.grad_h, dN))


def angle_function_laplacian(P, s):
    """Weighted Laplacian of theta = <N, dt> on a graph t = phi(x).

    Requires a Euclidean ambient with a split weight h = eta(x) + mu(t)
    and a declared graph normal (dt-component negative).
    """
    if not P.ambient.flat:
        raise DomainError("angle function requires a Euclidean ambient")
    weight = P.ambient.weight
    if not isinstance(weight, (SplitWeight, HeightWeight, ZeroWeight)):
        raise DomainError("angle formula needs a split weight eta(x) + mu(t)")
    if P.normal is None:
        raise DomainError("angle function requires a declared graph normal")
    normal = s.normals[:, 0]
    theta = normal[:, -1]
    n_h = normal[:, :-1]
    hess = weight.hess(s.point)
    sigma_sq = _sigma_sq(s)
    formula_cmc = (_inner(hess[:, :-1, :-1], n_h, n_h)
                   + hess[:, -1, -1] * (theta ** 2 - 1.0) - sigma_sq) * theta

    _, dN, d2N = jet(P.normal, s.u)
    # <grad_P H, dt^T> = g^{ij} d_i H <d_j X, dt>
    advection = _inner(s.metric_inv, _scalar_wmc_gradient(s, hess, normal, dN, d2N),
                       s.jacobian[:, -1])
    direct = _laplacian(s, dN[:, -1], d2N[:, -1])
    return AngleLaplacian(formula_cmc=formula_cmc,
                          formula=formula_cmc - advection,
                          direct=direct, theta=theta, sigma_sq=sigma_sq,
                          advection=advection)


# ---------------------------------------------------------------------------
# Stability index form


def _panel_nodes(lo, hi, panels):
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * _K15_NODES).ravel(), (half * _K15_WEIGHTS).ravel()


def index_form(P, test, box=None, panels=8):
    """Stability quadratic form of a two-sided hypersurface in R^m.

    Integrates |grad_P u|^2 - (Ric_h(N,N) + |sigma|^2) u^2 against the
    weighted area element over the parameter box, with
    Ric_h(N,N) = -Hess h(N,N).  ``test`` is a field (see ``field_values``)
    whose gradient comes from ``jet``; for non-closed charts it must vanish
    on the box boundary.
    """
    if not P.ambient.flat:
        raise DomainError("index form implemented for Euclidean ambients only")
    if P.n != P.m - 1:
        raise DomainError("index form requires a hypersurface")
    box = box or P.window
    if not P.closed:
        # the centre of each face: low then high edge, axis by axis
        mid = [0.5 * (a + b) for a, b in box]
        values = field_values(test, np.array([
            mid[:k] + [edge] + mid[k + 1:] for k, edges in enumerate(box)
            for edge in edges]))
        bad = np.flatnonzero(np.abs(values) > 1e-10)
        if bad.size:
            raise SupportError(
                f"test function does not vanish on the box boundary "
                f"(axis {bad[0] // 2}, value {values[bad[0]]:.2e})")
    if len(box) > 2:
        raise DomainError("index form quadrature supports parameter dimension <= 2")
    axes = [_panel_nodes(lo, hi, panels) for lo, hi in box]
    U = _grid(*(xs for xs, _ in axes))
    s = geometry_at_batch(P, U)
    tv, dt, _ = jet(lambda u: [test(u)], U)
    tv, grad_t = tv[:, 0], dt[:, 0]
    grad_sq = _inner(s.metric_inv, grad_t, grad_t)
    N = s.normals[:, 0]
    ric_h = -_inner(P.ambient.weight.hess(s.point), N, N)
    sigma_sq = _sigma_sq(s)
    dens = np.exp(P.ambient.weight.value(s.point)) * np.sqrt(
        np.maximum(np.linalg.det(s.metric), 0.0))
    values = (grad_sq - (ric_h + sigma_sq) * tv * tv) * dens

    # running sums keep the loop order: each row over the last axis, then
    # the rows in turn
    weights = [ws for _, ws in axes]
    values = values.reshape([len(ws) for ws in weights])
    for ws in reversed(weights):
        values = np.cumsum(ws * values, axis=-1)[..., -1]
    return float(values)


# ---------------------------------------------------------------------------
# Catalog of charts


def _hyperspherical(angles):
    """Unit vector of S^q from q angles (dual-friendly)."""
    q = len(angles)
    comps = []
    prefix = 1.0
    for i in range(q):
        comps.append(prefix * fcos(angles[i]))
        prefix = prefix * fsin(angles[i])
    comps.append(prefix)
    return comps


def _default_sphere_window(q):
    win = [(0.35, math.pi - 0.35)] * (q - 1) + [(0.2, 2.0 * math.pi - 0.2)]
    return tuple(win) if q > 0 else ()


def euclidean_sphere(radius, m, weight=None):
    """Metric sphere S_a in R^m with inward normal -grad r."""
    amb = EuclideanAmbient(m, weight)

    def chart(u):
        return [radius * c for c in _hyperspherical(u)]

    def normal(u):
        return [-c for c in _hyperspherical(u)]

    return ImmersedSubmanifold(amb, m - 1, chart, _default_sphere_window(m - 1),
                               normal=normal, closed=True,
                               name=f"sphere(a={radius}, m={m})")


def model_sphere(model, radius):
    """Geodesic sphere t = a inside the polar chart of a model space."""
    amb = ModelChartAmbient(model)
    q = model.m - 1

    def chart(u):
        return [radius] + list(u)

    def normal(u):
        e = np.zeros(model.m)
        e[0] = -1.0
        return e

    return ImmersedSubmanifold(amb, q, chart, _default_sphere_window(q),
                               normal=normal, closed=True,
                               name=f"model_sphere(a={radius})")


def radial_graph(model, base, amplitude):
    """Hypersurface t = base + amplitude*sin(theta_1) in a model chart."""
    amb = ModelChartAmbient(model)
    q = model.m - 1

    def chart(u):
        return [base + amplitude * fsin(u[0])] + list(u)

    return ImmersedSubmanifold(amb, q, chart, _default_sphere_window(q),
                               name=f"radial_graph(a={base}, eps={amplitude})")


def _complement_basis(a):
    m = len(a)
    basis = []
    frame = [np.asarray(a, dtype=float)]
    for axis in range(m):
        v = np.zeros(m)
        v[axis] = 1.0
        for e in frame:
            v -= np.dot(v, e) * e
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            v /= norm
            frame.append(v)
            basis.append(v)
    return np.array(basis)


def hyperplane(m, a, offset=0.0, weight=None):
    """Affine hyperplane <p, a> = offset with declared unit normal a."""
    a = np.asarray(a, dtype=float)
    if not 1e-150 < np.abs(a).max(initial=0.0) < 1e150:    # |a|^2 stays normal
        raise DomainError(f"hyperplane normal must be finite and nonzero, its largest "
                          f"entry between 1e-150 and 1e150 in size, got {a.tolist()}")
    a = a / np.linalg.norm(a)
    base = offset * a
    B = _complement_basis(a)     # (m-1, m) rows
    amb = EuclideanAmbient(m, weight)

    def chart(u):
        return [base[k] + sum(u[i] * B[i, k] for i in range(m - 1))
                for k in range(m)]

    def normal(u):
        return a

    span = 4.0
    window = tuple((-span, span) for _ in range(m - 1))
    return ImmersedSubmanifold(amb, m - 1, chart, window, normal=normal,
                               linear=(base, B.T),
                               name=f"hyperplane(offset={offset})")


def coordinate_plane(m, axes, weight=None):
    """Linear subspace spanned by the given coordinate axes."""
    axes = tuple(axes)
    amb = EuclideanAmbient(m, weight)
    B = np.zeros((m, len(axes)))
    for i, ax in enumerate(axes):
        B[ax, i] = 1.0

    def chart(u):
        out = [0.0] * m
        for i, ax in enumerate(axes):
            out[ax] = u[i]
        return out

    window = tuple((-4.0, 4.0) for _ in axes)
    return ImmersedSubmanifold(amb, len(axes), chart, window,
                               linear=(np.zeros(m), B),
                               name=f"plane(axes={axes}, m={m})")


def cylinder_hypersurface(radius, k, m, weight=None):
    """S_a^(k-1) x R^(m-k) in R^m = R^k x R^(m-k), inward normal."""
    if not 2 <= k <= m - 1:
        raise DomainError(f"need 2 <= k <= m-1, got k={k}, m={m}")
    amb = EuclideanAmbient(m, weight)
    q = k - 1

    def chart(u):
        sphere_part = [radius * c for c in _hyperspherical(u[:q])]
        return sphere_part + list(u[q:])

    def normal(u):
        return [-c for c in _hyperspherical(u[:q])] + [0.0] * (m - k)

    window = _default_sphere_window(q) + tuple((-3.0, 3.0) for _ in range(m - k))
    return ImmersedSubmanifold(amb, m - 1, chart, window, normal=normal,
                               splitting=k,
                               name=f"cylinder(a={radius}, k={k}, m={m})")


def graph_hypersurface(phi, m, weight=None, window=None, name="graph"):
    """Horizontal graph t = phi(x) with normal (grad phi, -1)/W."""
    amb = EuclideanAmbient(m, weight)
    n = m - 1

    def chart(u):
        return list(u) + [phi(u)]

    def normal(u):
        grad = []
        for j in range(n):
            res = phi([Dual(u[k], 1.0 if k == j else 0.0) for k in range(n)])
            grad.append(dual_parts(res)[1])
        W = fsqrt(1.0 + sum(d * d for d in grad))
        return [d / W for d in grad] + [-1.0 / W]

    window = window or tuple((-1.5, 1.5) for _ in range(n))
    return ImmersedSubmanifold(amb, n, chart, window, normal=normal, name=name)


def paraboloid_graph(m, weight=None):
    def phi(u):
        acc = 0.0
        for x in u:
            acc = acc + x * x
        return 0.25 * acc

    return graph_hypersurface(phi, m, weight,
                              window=tuple((0.3, 1.4) for _ in range(m - 1)),
                              name=f"paraboloid_graph(m={m})")


def grim_curve():
    """Translator curve t = -log cos x in the plane with weight e^t."""
    weight = HeightWeight(weight_height(), m=2)

    def phi(u):
        return -flog(fcos(u[0]))

    return graph_hypersurface(phi, 2, weight,
                              window=((-1.2, 1.2),), name="grim_curve")


def helicoid(pitch=1.0, weight=None):
    amb = EuclideanAmbient(3, weight)

    def chart(u):
        return [u[1] * fcos(u[0]), u[1] * fsin(u[0]), pitch * u[0]]

    def normal(u):
        v = [-pitch * fsin(u[0]), pitch * fcos(u[0]), -u[1]]
        W = fsqrt(sum(c * c for c in v))
        return [c / W for c in v]

    return ImmersedSubmanifold(amb, 2, chart, ((0.2, 2.8), (0.5, 2.5)),
                               normal=normal, name=f"helicoid(pitch={pitch})")


def identity_chart(m, weight=None):
    """The ambient itself as a full-dimensional chart (radial scenarios)."""
    amb = EuclideanAmbient(m, weight)

    def chart(u):
        return list(u)

    return ImmersedSubmanifold(amb, m, chart, ((-8.0, 8.0),) * m,
                               linear=(np.zeros(m), np.eye(m)),
                               name=f"radial_scenario(m={m})")
