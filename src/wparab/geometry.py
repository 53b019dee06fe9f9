"""Numerical differential geometry of parametric immersions.

Charts are written against dual-number-friendly arithmetic, so first and
second derivatives of immersions come from forward-mode differentiation to
machine precision.  Ambients are either flat Euclidean space with an
arbitrary weight or the polar chart of a rotationally symmetric model with
a radial weight (closed-form warped-product Christoffel symbols).

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
from .expr import Dual, fcos, flog, fsin
from .model import WeightedModel
from .radial import RadialProfile, _K15_NODES, _K15_WEIGHTS
from .verdicts import FAILS, HOLDS, HypothesisCheck

_EPS = np.finfo(float).eps
_STEP_GRAD = _EPS ** (1.0 / 3.0)       # central first differences
_STEP_HESS = _EPS ** 0.25              # central second differences


# ---------------------------------------------------------------------------
# Ambient weights (Euclidean)


class AmbientWeight:
    """Weight exp(h) on Euclidean coordinates: value, gradient, Hessian."""

    name = "weight"

    def value(self, p):
        raise NotImplementedError

    def grad(self, p):
        raise NotImplementedError

    def hess(self, p):
        raise NotImplementedError

    def grad_batch(self, pts):
        """Vectorized gradient over an (N, m) array, or None if unavailable."""
        return None


class ZeroWeight(AmbientWeight):
    name = "zero"

    def value(self, p):
        return 0.0

    def grad(self, p):
        return np.zeros(len(p))

    def hess(self, p):
        return np.zeros((len(p), len(p)))

    def grad_batch(self, pts):
        return np.zeros_like(pts)


class RadialWeight(AmbientWeight):
    """h(p) = f(|p|) for a radial profile f with f'(0) = 0."""

    def __init__(self, profile: RadialProfile):
        self.profile = profile
        self.name = f"radial({profile.name})"

    def _slope_over_r(self, r):
        # f'(r)/r, with the limit f''(0) at the pole
        if r < 1e-9:
            return self.profile.second(max(r, 1e-9))
        return self.profile.deriv(r) / r

    def value(self, p):
        return self.profile.value(float(np.linalg.norm(p)))

    def grad(self, p):
        p = np.asarray(p, dtype=float)
        r = float(np.linalg.norm(p))
        return self._slope_over_r(r) * p

    def hess(self, p):
        p = np.asarray(p, dtype=float)
        m = len(p)
        r = float(np.linalg.norm(p))
        s = self._slope_over_r(r)
        if r < 1e-9:
            return s * np.eye(m)
        u = p / r
        return (self.profile.second(r) - s) * np.outer(u, u) + s * np.eye(m)

    def grad_batch(self, pts):
        if not self.profile.numpy_safe:
            return None
        r = np.linalg.norm(pts, axis=1)
        r = np.maximum(r, 1e-300)
        fac = self.profile.deriv(r) / r
        return pts * fac[:, None]


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

    def value(self, p):
        return self.mu.value(float(np.dot(p, self.axis)))

    def grad(self, p):
        return self.mu.deriv(float(np.dot(p, self.axis))) * self.axis

    def hess(self, p):
        return self.mu.second(float(np.dot(p, self.axis))) * np.outer(self.axis, self.axis)

    def grad_batch(self, pts):
        if not self.mu.numpy_safe:
            return None
        t = pts @ self.axis
        return np.asarray(self.mu.deriv(t))[:, None] * self.axis[None, :]


class SplitWeight(AmbientWeight):
    """h(x, t) = eta(x) + mu(t) on R^(m-1) x R."""

    def __init__(self, eta: AmbientWeight, mu: RadialProfile, m):
        self.eta = eta
        self.mu = mu
        self.m = m
        self.name = f"split({eta.name}+{mu.name})"

    def value(self, p):
        return self.eta.value(p[:-1]) + self.mu.value(float(p[-1]))

    def grad(self, p):
        g = np.empty(self.m)
        g[:-1] = self.eta.grad(p[:-1])
        g[-1] = self.mu.deriv(float(p[-1]))
        return g

    def hess(self, p):
        h = np.zeros((self.m, self.m))
        h[:-1, :-1] = self.eta.hess(p[:-1])
        h[-1, -1] = self.mu.second(float(p[-1]))
        return h

    def grad_batch(self, pts):
        inner = self.eta.grad_batch(pts[:, :-1])
        if inner is None or not self.mu.numpy_safe:
            return None
        out = np.empty_like(pts)
        out[:, :-1] = inner
        out[:, -1] = self.mu.deriv(pts[:, -1])
        return out


class ExprWeight(AmbientWeight):
    """Weight given by an expression in the coordinates x1..xm."""

    def __init__(self, source, m):
        from . import expr as ex
        self.m = m
        self.vars = [f"x{i + 1}" for i in range(m)]
        self.ast = ex.parse(source, self.vars)
        self._ex = ex
        self.name = f"expr({source})"

    def _env(self, p):
        return {name: float(v) for name, v in zip(self.vars, p)}

    def value(self, p):
        return float(self._ex.evaluate(self.ast, self._env(p)))

    def grad(self, p):
        env = self._env(p)
        out = np.empty(self.m)
        for i, name in enumerate(self.vars):
            out[i] = self._ex.eval_dual(self.ast, env, {name: 1.0}).deriv
        return out

    def hess(self, p):
        ex = self._ex
        out = np.empty((self.m, self.m))
        for i in range(self.m):
            for j in range(i + 1):
                env = {}
                for k, name in enumerate(self.vars):
                    dj = 1.0 if k == j else 0.0
                    di = 1.0 if k == i else 0.0
                    env[name] = Dual(Dual(float(p[k]), dj), Dual(di, 0.0))
                res = ex.evaluate(self.ast, env)
                val = res.deriv.deriv if isinstance(res, Dual) and isinstance(res.deriv, Dual) else 0.0
                out[i, j] = out[j, i] = float(val)
        return out


# ---------------------------------------------------------------------------
# Ambient spaces


class EuclideanAmbient:
    """Flat R^m with a weight; polar distance from the origin."""

    def __init__(self, m, weight: AmbientWeight | None = None):
        self.m = m
        self.weight = weight or ZeroWeight()
        self._eye = np.eye(m)
        self._zero_gamma = np.zeros((m, m, m))

    flat = True

    def metric(self, p):
        return self._eye

    def christoffels(self, p):
        return self._zero_gamma

    def r(self, p):
        return float(np.linalg.norm(p))

    def grad_r(self, p):
        r = self.r(p)
        if r < 1e-300:
            raise DomainError("radial direction undefined at the pole")
        return np.asarray(p, dtype=float) / r

    def sphere_curvature(self, r):
        return 1.0 / r

    def weight_value(self, p):
        return self.weight.value(p)

    def weight_grad(self, p):
        return self.weight.grad(p)

    def weight_hess(self, p):
        return self.weight.hess(p)


class ModelChartAmbient:
    """Polar chart (t, theta_1..theta_{m-1}) of a weighted model space.

    Metric dt^2 + w(t)^2 * (round-sphere chart metric); Christoffel symbols
    use the closed warped-product expressions rather than differentiating
    the metric.
    """

    flat = False

    def __init__(self, model: WeightedModel):
        self.model = model
        self.m = model.m

    def _sphere_factors(self, ang):
        # s[a] = prod_{j<a} sin^2(theta_j), for the a-th angular coordinate
        q = len(ang)
        s = np.empty(q)
        acc = 1.0
        for a in range(q):
            s[a] = acc
            acc *= math.sin(ang[a]) ** 2
        return s

    def metric(self, p):
        t, ang = float(p[0]), np.asarray(p[1:], dtype=float)
        w2 = self.model.w.value(t) ** 2
        g = np.zeros((self.m, self.m))
        g[0, 0] = 1.0
        s = self._sphere_factors(ang)
        for a in range(len(ang)):
            g[a + 1, a + 1] = w2 * s[a]
        return g

    def christoffels(self, p):
        t, ang = float(p[0]), np.asarray(p[1:], dtype=float)
        m = self.m
        q = len(ang)
        w = self.model.w.value(t)
        wp = self.model.w.deriv(t)
        ratio = wp / w
        s = self._sphere_factors(ang)
        gam = np.zeros((m, m, m))
        for a in range(1, m):
            gam[0, a, a] = -w * wp * s[a - 1]
            gam[a, 0, a] = gam[a, a, 0] = ratio
        for b in range(1, q + 1):        # coordinate theta_b
            cot = 1.0 / math.tan(ang[b - 1])
            for a in range(b + 1, q + 1):  # theta_a with a > b
                gam[a, b, a] = gam[a, a, b] = cot
                gam[b, a, a] = -(s[a - 1] / s[b - 1]) * cot
        return gam

    def r(self, p):
        return float(p[0])

    def grad_r(self, p):
        e = np.zeros(self.m)
        e[0] = 1.0
        return e

    def sphere_curvature(self, r):
        return self.model.mean_curvature(r)

    def weight_value(self, p):
        return self.model.f.value(float(p[0]))

    def weight_grad(self, p):
        g = np.zeros(self.m)
        g[0] = self.model.f.deriv(float(p[0]))
        return g

    def weight_hess(self, p):
        raise DomainError("weight Hessian only available in Euclidean ambients")


# ---------------------------------------------------------------------------
# Charts and jets


def _jet2_derivs(res):
    """(d_inner, d_mixed) from a possibly nested dual."""
    if not isinstance(res, Dual):
        return 0.0, 0.0
    inner, douter = res.value, res.deriv
    dj = inner.deriv if isinstance(inner, Dual) else 0.0
    dij = douter.deriv if isinstance(douter, Dual) else 0.0
    return float(dj), float(dij)


def chart_point(P, u):
    vals = P.chart([float(x) for x in u])
    return np.array([float(v) for v in vals])


def chart_jet(P, u):
    """Point, Jacobian (m,n) and second derivatives (m,n,n) of the chart.

    The nested dual seeded with e_j inside and e_i outside carries d_j X in
    its value part and d_i d_j X in its mixed part, so the diagonal
    evaluations (i = j) supply the Jacobian.
    """
    x0 = chart_point(P, u)
    n = len(u)
    m = len(x0)
    J = np.empty((m, n))
    H = np.empty((m, n, n))
    for i in range(n):
        for j in range(i + 1):
            args = []
            for k in range(n):
                dj = 1.0 if k == j else 0.0
                di = 1.0 if k == i else 0.0
                args.append(Dual(Dual(float(u[k]), dj), Dual(di, 0.0)))
            vals = P.chart(args)
            for comp in range(m):
                d_j, dij = _jet2_derivs(vals[comp])
                H[comp, i, j] = H[comp, j, i] = dij
                if i == j:
                    J[comp, j] = d_j
    return x0, J, H


def _covariant_second(P, x, J, Hx):
    """Ambient-covariant second derivatives D_i d_j X, shape (n, n, m)."""
    Gam = P.ambient.christoffels(x)
    return np.transpose(Hx, (1, 2, 0)) + np.einsum("kab,ai,bj->ijk", Gam, J, J)


@dataclass
class ImmersedSubmanifold:
    """Parametric immersion of an n-manifold into a weighted ambient."""

    ambient: object
    n: int
    chart: object                       # callable u -> m components (dual-friendly)
    window: tuple                       # default parameter box, ((lo, hi), ...)
    normal: object = None               # optional declared unit normal, u -> vector
    closed: bool = False                # chart covers a closed manifold
    linear: tuple | None = None         # (base_point, basis) for affine charts
    splitting: int | None = None        # horizontal factor size for cylinder ops
    name: str = ""

    @property
    def m(self):
        return self.ambient.m

    def point(self, u):
        return chart_point(self, u)


@dataclass
class GeometrySample:
    """All first- and second-order geometric data at one parameter point."""

    u: np.ndarray
    point: np.ndarray
    jacobian: np.ndarray            # (m, n) columns d_i X
    metric: np.ndarray              # induced g_ij
    metric_inv: np.ndarray
    cond: float
    ambient_metric: np.ndarray
    tangent_frame: np.ndarray       # (n, m) orthonormal rows
    normals: np.ndarray             # (m-n, m) orthonormal rows
    second_fundamental: np.ndarray  # (m-n, n, n) scalar components
    mc_vec: np.ndarray              # n * Hbar_P (ambient coordinates)
    wmc_vec: np.ndarray             # weighted mean curvature vector
    grad_h: np.ndarray
    grad_r: np.ndarray | None
    radial_tangent_norm: float | None   # |grad_P r|

    def inner(self, a, b):
        return float(a @ self.ambient_metric @ b)


def _inner(G, a, b):
    return float(a @ G @ b)


def _gram_schmidt(vectors, G, tol=1e-13):
    basis = []
    for v in vectors:
        v = np.array(v, dtype=float)
        for e in basis:
            v -= _inner(G, v, e) * e
        norm = math.sqrt(max(_inner(G, v, v), 0.0))
        if norm <= tol:
            raise DegenerateMetricError("tangent frame numerically degenerate")
        basis.append(v / norm)
    return basis


def _normal_frame(G, tangent, declared, m, skip_tol=1e-8):
    if declared is not None:
        N = np.asarray(declared, dtype=float)
        if abs(_inner(G, N, N) - 1.0) > 1e-10:
            raise ValueError("declared normal is not unit length")
        for e in tangent:
            if abs(_inner(G, N, e)) > 1e-10:
                raise ValueError("declared normal is not orthogonal to the tangent space")
        return [N]
    frame = list(tangent)
    normals = []
    needed = m - len(tangent)
    # deterministic completion: seed with ambient coordinate axes in index order
    for axis in range(m):
        if len(normals) == needed:
            break
        v = np.zeros(m)
        v[axis] = 1.0
        for e in frame:
            v -= _inner(G, v, e) * e
        norm = math.sqrt(max(_inner(G, v, v), 0.0))
        if norm <= skip_tol:
            continue
        v /= norm
        frame.append(v)
        normals.append(v)
    if len(normals) != needed:
        raise DegenerateMetricError("could not complete the normal frame")
    return normals


def geometry_at(P: ImmersedSubmanifold, u, cond_limit=1e12):
    """Metric, frames, curvature vectors and radial data at a parameter point."""
    u = np.asarray(u, dtype=float)
    x, J, Hx = chart_jet(P, u)
    G = P.ambient.metric(x)
    g = J.T @ G @ J
    cond = float(np.linalg.cond(g))
    if not cond < cond_limit:
        raise DegenerateMetricError(f"induced metric degenerate at u={u} (cond={cond:.2e})")
    g_inv = np.linalg.inv(g)

    second = _covariant_second(P, x, J, Hx)

    tangent = _gram_schmidt([J[:, i] for i in range(P.n)], G)
    declared = np.asarray(P.normal(u), dtype=float) if P.normal is not None else None
    normals = _normal_frame(G, tangent, declared, P.m)

    trace = np.einsum("ij,ijk->k", g_inv, second)
    mc = np.zeros(P.m)
    sff = np.empty((len(normals), P.n, P.n))
    for a, N in enumerate(normals):
        for i in range(P.n):
            for j in range(P.n):
                sff[a, i, j] = _inner(G, second[i, j], N)
        mc += _inner(G, trace, N) * N

    grad_h = P.ambient.weight_grad(x)
    wmc = mc.copy()
    for N in normals:
        wmc -= _inner(G, grad_h, N) * N

    grad_r = None
    radial_norm = None
    try:
        grad_r = P.ambient.grad_r(x)
    except DomainError:
        pass
    if grad_r is not None:
        tangential = sum(_inner(G, grad_r, e) ** 2 for e in tangent)
        radial_norm = math.sqrt(min(max(tangential, 0.0), 1.0 + 1e-12))

    return GeometrySample(
        u=u, point=x, jacobian=J, metric=g, metric_inv=g_inv, cond=cond,
        ambient_metric=G,
        tangent_frame=np.array(tangent),
        normals=np.array(normals) if normals else np.zeros((0, P.m)),
        second_fundamental=sff, mc_vec=mc, wmc_vec=wmc,
        grad_h=np.asarray(grad_h, dtype=float), grad_r=grad_r,
        radial_tangent_norm=radial_norm)


# ---------------------------------------------------------------------------
# Intrinsic weighted Laplacian


def _fd_gradient(f, u, rel=_STEP_GRAD):
    u = np.asarray(u, dtype=float)
    out = np.empty(len(u))
    for i in range(len(u)):
        h = rel * (1.0 + abs(u[i]))
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        out[i] = (f(up) - f(um)) / (2.0 * h)
    return out


def _fd_hessian(f, u, rel=_STEP_HESS):
    u = np.asarray(u, dtype=float)
    n = len(u)
    out = np.empty((n, n))
    f0 = f(u)
    for i in range(n):
        hi = rel * (1.0 + abs(u[i]))
        up, um = u.copy(), u.copy()
        up[i] += hi
        um[i] -= hi
        out[i, i] = (f(up) - 2.0 * f0 + f(um)) / hi ** 2
        for j in range(i):
            hj = rel * (1.0 + abs(u[j]))
            upp, upm, ump, umm = u.copy(), u.copy(), u.copy(), u.copy()
            upp[[i, j]] += [hi, hj]
            upm[i] += hi
            upm[j] -= hj
            ump[i] -= hi
            ump[j] += hj
            umm[[i, j]] -= [hi, hj]
            out[i, j] = out[j, i] = (f(upp) - f(upm) - f(ump) + f(umm)) / (4.0 * hi * hj)
    return out


def intrinsic_data(P, u):
    """Induced metric, its inverse, intrinsic Christoffels and pulled-back
    weight gradient, all from the chart jet: Gamma^k_ij =
    g^{kl} <d_l X, D_i d_j X> and d_i (h o X) = <d_i X, dh>."""
    x, J, Hx = chart_jet(P, np.asarray(u, dtype=float))
    G = P.ambient.metric(x)
    g = J.T @ G @ J
    g_inv = np.linalg.inv(g)
    second = _covariant_second(P, x, J, Hx)
    gamma = np.einsum("kl,lb,ijb->kij", g_inv, J.T @ G, second)
    grad_h = J.T @ P.ambient.weight_grad(x)
    return g, g_inv, gamma, grad_h


def intrinsic_drift(P, u):
    """Drift vector of the weighted Laplacian in chart coordinates:
    b^k = -g^{ij} Gamma^k_ij + g^{kj} d_j (h o X)."""
    g, g_inv, gamma, grad_h = intrinsic_data(P, u)
    return (-np.einsum("ij,kij->k", g_inv, gamma) + g_inv @ grad_h), g_inv


def weighted_laplacian(P: ImmersedSubmanifold, u, fld):
    """Drift Laplacian of a scalar field on the parameter domain.

    Coordinate formula g^{ij} (d2_ij f - Gamma^k_ij d_k f) plus the drift
    g^{ij} d_i (h o X) d_j f.
    """
    u = np.asarray(u, dtype=float)
    g, g_inv, gamma, grad_h = intrinsic_data(P, u)
    grad_f = _fd_gradient(fld, u)
    hess_f = _fd_hessian(fld, u)
    lap = float(np.einsum("ij,ij->", g_inv, hess_f)
                - np.einsum("ij,kij,k->", g_inv, gamma, grad_f))
    drift = float(grad_h @ g_inv @ grad_f)
    return lap + drift


# ---------------------------------------------------------------------------
# Identity cross-checks


def radial_identity_residual(P, u, psi: RadialProfile):
    """|direct drift Laplacian of psi(r) minus its radial closed form|.

    The closed form is (psi'' - H psi') |grad_P r|^2
    + (n H + <grad h, grad r> + <wmc, grad r>) psi', the module's central
    self-consistency check for radial functions on submanifolds.
    """
    s = geometry_at(P, u)
    amb = P.ambient
    r = amb.r(s.point)
    if s.grad_r is None or s.radial_tangent_norm is None:
        raise DomainError("ambient radial distance unavailable at this point")
    H = amb.sphere_curvature(r)
    dpsi = psi.deriv(r)
    rhs = ((psi.second(r) - H * dpsi) * s.radial_tangent_norm ** 2
           + (P.n * H + s.inner(s.grad_h, s.grad_r)
              + s.inner(s.wmc_vec, s.grad_r)) * dpsi)

    def fld(v):
        return psi.value(amb.r(chart_point(P, v)))

    lhs = weighted_laplacian(P, u, fld)
    return abs(lhs - rhs)


def _grid_points(window, per_dim):
    axes = [np.linspace(lo, hi, per_dim) for lo, hi in window]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def radial_hypothesis_profile(P, window, alpha: RadialProfile, sense="upper",
                              max_points=4096, tol=1e-8, min_radius=None):
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
    worst = math.inf
    witness = None
    used = 0
    for u in pts:
        s = geometry_at(P, u)
        r = P.ambient.r(s.point)
        if r < floor or s.grad_r is None:
            continue
        used += 1
        lhs = s.inner(s.grad_h, s.grad_r) + s.inner(s.wmc_vec, s.grad_r)
        bound = alpha.value(r)
        margin = (bound - lhs) if sense == "upper" else (lhs - bound)
        if margin < worst:
            worst = margin
            if margin < -tol:
                witness = {"u": [float(x) for x in u], "r": r, "lhs": lhs,
                           "bound": bound}
    if used == 0:
        return HypothesisCheck(name="radial_drift_bound", status=FAILS,
                               witness={"reason": "no sample radius above floor"},
                               window=tuple(tuple(w) for w in window),
                               note=f"sense={sense}; floor={floor}")
    status = FAILS if worst < -tol else HOLDS
    return HypothesisCheck(name="radial_drift_bound", status=status,
                           margin=float(worst), witness=witness,
                           window=tuple(tuple(w) for w in window),
                           samples=used,
                           note=f"sense={sense}; radius floor {floor:g}")


@dataclass
class LaplacianComparison:
    formula: float
    direct: float

    @property
    def residual(self):
        return abs(self.formula - self.direct)


def height_laplacian(P, u, a):
    """Drift Laplacian of the height <p, a>: <wmc, a> + <grad h, a>.

    Returns the assembled value, the direct Laplacian of the pulled-back
    height, and their residual.
    """
    if not P.ambient.flat:
        raise DomainError("height functions require a Euclidean ambient")
    a = np.asarray(a, dtype=float)
    s = geometry_at(P, u)
    formula = float(s.wmc_vec @ a + s.grad_h @ a)

    def fld(v):
        return float(chart_point(P, v) @ a)

    direct = weighted_laplacian(P, u, fld)
    return LaplacianComparison(formula, direct)


def cylinder_distance_laplacian(P, u, k=None):
    """Drift Laplacian of |x|^2/2 under the splitting R^k x R^(m-k).

    The identity side is sum |e_i^horizontal|^2 + <grad h, X> + <wmc, X>
    with X = (x, 0); both it and the direct Laplacian are returned.
    """
    if not P.ambient.flat:
        raise DomainError("cylinder distance requires a Euclidean ambient")
    k = k if k is not None else P.splitting
    if not (k and 1 <= k <= P.m):
        raise DomainError(f"splitting k={k} out of range for m={P.m}")
    s = geometry_at(P, u)
    Xv = np.zeros(P.m)
    Xv[:k] = s.point[:k]
    horiz = sum(float(np.dot(e[:k], e[:k])) for e in s.tangent_frame)
    formula = horiz + float(s.grad_h @ Xv) + float(s.wmc_vec @ Xv)

    def fld(v):
        x = chart_point(P, v)
        return 0.5 * float(np.dot(x[:k], x[:k]))

    direct = weighted_laplacian(P, u, fld)
    return LaplacianComparison(formula, direct)


@dataclass
class AngleLaplacian:
    """Angle-function Laplacian of a horizontal graph, three ways.

    ``formula_cmc`` is the constant-curvature closed form
    {Hess eta(n,n) + mu''(theta^2-1) - |sigma|^2} theta; ``formula`` adds
    the advection term -<grad_P H, dt_tangential> needed when the weighted
    mean curvature is not constant along the graph.
    """

    formula_cmc: float
    formula: float
    direct: float
    theta: float
    sigma_sq: float
    advection: float

    @property
    def residual(self):
        return abs(self.formula - self.direct)

    @property
    def residual_cmc(self):
        return abs(self.formula_cmc - self.direct)


def angle_function_laplacian(P, u):
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
    s = geometry_at(P, u)
    N = s.normals[0]
    theta = float(N[-1])
    n_h = N[:-1]

    hess = P.ambient.weight_hess(s.point)
    hess_eta_nn = float(n_h @ hess[:-1, :-1] @ n_h)
    mu_second = float(hess[-1, -1])

    sigma = s.second_fundamental[0]
    sigma_sq = float(np.einsum("ik,jl,ij,kl->", s.metric_inv, s.metric_inv,
                               sigma, sigma))
    formula_cmc = (hess_eta_nn + mu_second * (theta ** 2 - 1.0) - sigma_sq) * theta

    def scalar_h_mc(v):
        sv = geometry_at(P, v)
        return float(sv.wmc_vec @ sv.normals[0])

    grad_H = _fd_gradient(scalar_h_mc, np.asarray(u, dtype=float))
    # <grad_P H, dt^T> = g^{ij} d_i H <d_j X, dt>
    dt_components = s.jacobian[-1, :]
    advection = float(grad_H @ s.metric_inv @ dt_components)

    def fld(v):
        return float(np.asarray(P.normal(v), dtype=float)[-1])

    direct = weighted_laplacian(P, u, fld)
    return AngleLaplacian(formula_cmc=formula_cmc,
                          formula=formula_cmc - advection,
                          direct=direct, theta=theta, sigma_sq=sigma_sq,
                          advection=advection)


# ---------------------------------------------------------------------------
# Stability index form


def _panel_nodes(lo, hi, panels):
    nodes, weights = [], []
    edges = np.linspace(lo, hi, panels + 1)
    for i in range(panels):
        half = 0.5 * (edges[i + 1] - edges[i])
        mid = 0.5 * (edges[i + 1] + edges[i])
        nodes.append(mid + half * _K15_NODES)
        weights.append(half * _K15_WEIGHTS)
    return np.concatenate(nodes), np.concatenate(weights)


def index_form(P, test, box=None, panels=8):
    """Stability quadratic form of a two-sided hypersurface in R^m.

    Integrates |grad_P u|^2 - (Ric_h(N,N) + |sigma|^2) u^2 against the
    weighted area element over the parameter box, with
    Ric_h(N,N) = -Hess h(N,N).  For non-closed charts the test function
    must vanish on the box boundary.
    """
    if not P.ambient.flat:
        raise DomainError("index form implemented for Euclidean ambients only")
    if P.n != P.m - 1:
        raise DomainError("index form requires a hypersurface")
    box = box or P.window
    if not P.closed:
        for axis, (lo, hi) in enumerate(box):
            for edge in (lo, hi):
                probe = [0.5 * (a + b) for a, b in box]
                probe[axis] = edge
                if abs(test(np.asarray(probe))) > 1e-10:
                    raise SupportError(
                        f"test function does not vanish on the box boundary "
                        f"(axis {axis}, value {test(np.asarray(probe)):.2e})")
    axes = [_panel_nodes(lo, hi, panels) for lo, hi in box]

    def integrand(u):
        s = geometry_at(P, u)
        tv = float(test(u))
        grad_t = _fd_gradient(test, u)
        grad_sq = float(grad_t @ s.metric_inv @ grad_t)
        N = s.normals[0]
        ric_h = -float(N @ P.ambient.weight_hess(s.point) @ N)
        sigma = s.second_fundamental[0]
        sigma_sq = float(np.einsum("ik,jl,ij,kl->", s.metric_inv, s.metric_inv,
                                   sigma, sigma))
        dens = math.exp(P.ambient.weight_value(s.point)) * math.sqrt(
            max(np.linalg.det(s.metric), 0.0))
        return (grad_sq - (ric_h + sigma_sq) * tv * tv) * dens

    if len(box) == 1:
        xs, ws = axes[0]
        return float(sum(w * integrand(np.array([x])) for x, w in zip(xs, ws)))
    if len(box) == 2:
        (xs1, ws1), (xs2, ws2) = axes
        total = 0.0
        for x1, w1 in zip(xs1, ws1):
            row = 0.0
            for x2, w2 in zip(xs2, ws2):
                row += w2 * integrand(np.array([x1, x2]))
            total += w1 * row
        return float(total)
    raise DomainError("index form quadrature supports parameter dimension <= 2")


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
        p = chart_point_raw(chart, u)
        return -p / radius

    return ImmersedSubmanifold(amb, m - 1, chart, _default_sphere_window(m - 1),
                               normal=normal, closed=True,
                               name=f"sphere(a={radius}, m={m})")


def chart_point_raw(chart, u):
    return np.array([float(v) for v in chart([float(x) for x in u])])


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
        p = chart_point_raw(chart, u)
        out = np.zeros(m)
        out[:k] = -p[:k] / radius
        return out

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
        grad = np.empty(n)
        for j in range(n):
            args = [Dual(float(u[k]), 1.0 if k == j else 0.0) for k in range(n)]
            res = phi(args)
            grad[j] = res.deriv if isinstance(res, Dual) else 0.0
        W = math.sqrt(1.0 + float(np.dot(grad, grad)))
        return np.append(grad, -1.0) / W

    window = window or tuple((-1.5, 1.5) for _ in range(n))
    return ImmersedSubmanifold(amb, n, chart, window, normal=normal, name=name)


def paraboloid_graph(m, weight=None, scale=0.25):
    def phi(u):
        acc = 0.0
        for x in u:
            acc = acc + x * x
        return scale * acc

    return graph_hypersurface(phi, m, weight,
                              window=tuple((0.3, 1.4) for _ in range(m - 1)),
                              name=f"paraboloid_graph(m={m})")


def grim_curve():
    """Translator curve t = -log cos x in the plane with weight e^t."""
    mu = RadialProfile(lambda t: t + 0.0 * t, lambda t: 1.0 + 0.0 * t,
                       lambda t: 0.0 * t, name="height", numpy_safe=True)
    weight = HeightWeight(mu, m=2)

    def phi(u):
        return -flog(fcos(u[0]))

    return graph_hypersurface(phi, 2, weight,
                              window=((-1.2, 1.2),), name="grim_curve")


def helicoid(pitch=1.0, weight=None):
    amb = EuclideanAmbient(3, weight)

    def chart(u):
        return [u[1] * fcos(u[0]), u[1] * fsin(u[0]), pitch * u[0]]

    def normal(u):
        s, c = math.sin(u[0]), math.cos(u[0])
        v = np.array([-pitch * s, pitch * c, -u[1]])
        return v / np.linalg.norm(v)

    return ImmersedSubmanifold(amb, 2, chart, ((0.2, 2.8), (0.5, 2.5)),
                               normal=normal, name=f"helicoid(pitch={pitch})")


def identity_chart(m, weight=None, span=8.0):
    """The ambient itself as a full-dimensional chart (radial scenarios)."""
    amb = EuclideanAmbient(m, weight)

    def chart(u):
        return list(u)

    window = tuple((-span, span) for _ in range(m))
    return ImmersedSubmanifold(amb, m, chart, window,
                               linear=(np.zeros(m), np.eye(m)),
                               name=f"radial_scenario(m={m})")
