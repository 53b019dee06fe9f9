import dataclasses
import math
import warnings

import numpy as np
import pytest

from wparab import catalogs
from wparab import geometry as ge
from wparab import radial as rd
from wparab.errors import DegenerateMetricError, DomainError, SupportError
from wparab.expr import Dual, fcos, fexp, fpow, fsin
from wparab.model import WeightedModel
from wparab.verdicts import FAILS, HOLDS


def gaussian_weight():
    return ge.RadialWeight(rd.weight_gaussian())


def gaussian_split(m):
    return ge.SplitWeight(ge.RadialWeight(rd.weight_gaussian()),
                          rd.weight_gaussian(), m)


def translator_weight(m):
    mu = rd.RadialProfile(lambda t: t + 0.0 * t, lambda t: 1.0 + 0.0 * t,
                          lambda t: 0.0 * t, name="height")
    return ge.HeightWeight(mu, m)


PSI_SQ = rd.RadialProfile(lambda t: 0.5 * t * t, lambda t: t + 0.0 * t,
                          lambda t: 1.0 + 0.0 * t, name="t^2/2")


# --- ambient spaces --------------------------------------------------------


@pytest.mark.parametrize("m,warping", [
    (2, rd.warping_euclidean()),
    (3, rd.warping_hyperbolic(-1.0)),
    (4, rd.warping_hyperbolic(-2.0)),
    (3, rd.warping_paraboloid()),
])
def test_model_chart_christoffels_match_metric_differences(m, warping):
    model = WeightedModel(m, warping, rd.weight_zero())
    amb = ge.ModelChartAmbient(model)
    x = np.array([1.3, 0.9, 2.1, 0.7][:m])
    h = 1e-6
    dg = np.empty((m, m, m))
    for k in range(m):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        dg[k] = (amb.metric(xp) - amb.metric(xm)) / (2 * h)
    ginv = np.linalg.inv(amb.metric(x))
    bracket = dg + dg.transpose(1, 2, 0) - dg.transpose(1, 0, 2)
    fd_gamma = 0.5 * np.einsum("kl,ilj->kij", ginv, bracket)
    assert np.abs(amb.christoffels(x) - fd_gamma).max() <= 1e-5


def test_ambient_metric_positive_definite():
    model = WeightedModel(3, rd.warping_hyperbolic(-1.0), rd.weight_zero())
    amb = ge.ModelChartAmbient(model)
    g = amb.metric(np.array([0.8, 1.1, 0.3]))
    assert np.all(np.linalg.eigvalsh(g) > 0)


# --- geometry_at -----------------------------------------------------------


def test_sphere_mean_curvature_vector_against_divergence_oracle():
    # oracle: n Hbar = -(div_P N) N for the inward normal N = -grad r,
    # divergence computed by finite differences along the tangent frame
    a, m = 2.0, 3
    P = ge.euclidean_sphere(a, m)
    u = np.array([0.9, 1.3])
    s = ge.geometry_at(P, u)
    assert s.u.shape == (1, P.n)
    J, frame, mc_vec, point = s.jacobian[0], s.tangent_frame[0], s.mc_vec[0], s.point[0]

    def normal_field(points):
        return -points[0] / np.linalg.norm(points[0])

    eps = 1e-6
    div = 0.0
    for i in range(P.n):
        # move along the chart in the parameter direction aligned with e_i
        coeffs = np.linalg.lstsq(J, frame[i], rcond=None)[0]
        up = u + eps * coeffs
        um = u - eps * coeffs
        dN = (normal_field(P.point([up])) - normal_field(P.point([um]))) / (2 * eps)
        div += float(dN @ frame[i])
    oracle = -div * s.normals[0, 0]
    assert np.abs(mc_vec - oracle).max() <= 1e-6
    assert np.linalg.norm(mc_vec) == pytest.approx(2.0 / a, rel=1e-10)
    grad_r = point / np.linalg.norm(point)
    assert np.abs(mc_vec + grad_r).max() <= 1e-10


def test_gaussian_minimal_sphere_has_zero_weighted_curvature():
    P = ge.euclidean_sphere(math.sqrt(2.0), 3, gaussian_weight())
    s = ge.geometry_at(P, [1.1, 0.7])
    assert np.linalg.norm(s.wmc_vec) <= 1e-8


def test_linear_hyperplanes_are_weighted_minimal_for_radial_weights():
    for weight in (gaussian_weight(), ge.RadialWeight(rd.weight_power(-0.5, 3.0))):
        P = ge.hyperplane(3, [0.0, 0.0, 1.0], 0.0, weight)
        s = ge.geometry_at(P, [0.5, -0.8])
        assert np.linalg.norm(s.wmc_vec) <= 1e-10


@pytest.mark.parametrize("normal", [[0.0, 0.0, 0.0], [math.inf, 0.0, 1.0],
                                    [math.nan, 1.0, 0.0], [1e-200, 0.0, 0.0],
                                    [1e200, 1e200, 0.0]])
def test_a_degenerate_hyperplane_normal_is_refused_before_it_divides(normal):
    # |a|^2 of the last two underflows to 0 and overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="hyperplane normal must be finite and nonzero"):
            ge.hyperplane(3, normal)


def test_frame_invariants_across_catalog():
    charts = [
        ge.euclidean_sphere(2.0, 4, gaussian_weight()),
        ge.cylinder_hypersurface(1.0, 2, 4),
        ge.helicoid(0.7),
        ge.paraboloid_graph(3, gaussian_weight()),
        ge.coordinate_plane(4, (0, 2)),
    ]
    rng = np.random.default_rng(42)
    for P in charts:
        for _ in range(4):
            u = np.array([lo + (hi - lo) * rng.random() for lo, hi in P.window])
            s = ge.geometry_at(P, u)
            assert s.ambient_metric is None        # flat: the identity metric
            normals, J, grad_r = s.normals[0], s.jacobian[0], s.grad_r[0]
            for i, Ni in enumerate(normals):
                for j, Nj in enumerate(normals):
                    assert abs(float(Ni @ Nj) - (1.0 if i == j else 0.0)) <= 1e-10
                for k in range(P.n):
                    assert abs(float(Ni @ J[:, k])) <= 1e-8
            # radial Pythagoras
            total = s.radial_tangent_norm[0] ** 2 + sum(
                float(grad_r @ Ni) ** 2 for Ni in normals)
            assert abs(total - 1.0) <= 1e-8


def test_mean_curvature_vector_is_frame_independent():
    # declared normal versus axis-seeded frame must give the same vector
    a, m = 2.0, 3
    with_normal = ge.euclidean_sphere(a, m)
    without = ge.ImmersedSubmanifold(with_normal.ambient, with_normal.n,
                                     with_normal.chart, with_normal.window,
                                     normal=None, closed=True)
    u = [0.9, 1.3]
    s1 = ge.geometry_at(with_normal, u)
    s2 = ge.geometry_at(without, u)
    assert np.abs(s1.mc_vec - s2.mc_vec).max() <= 1e-8


def test_degenerate_chart_raises():
    amb = ge.EuclideanAmbient(3)
    P = ge.ImmersedSubmanifold(
        amb, 2, lambda u: [u[0], u[0] * 1.0, 0.0 * u[1]],
        window=((0, 1), (0, 1)))
    with pytest.raises(DegenerateMetricError):
        ge.geometry_at(P, [0.5, 0.5])


def test_declared_normal_is_validated():
    P = ge.euclidean_sphere(2.0, 3)
    bad = ge.ImmersedSubmanifold(P.ambient, P.n, P.chart, P.window,
                                 normal=lambda u: np.array([1.0, 0.0, 0.0]),
                                 closed=True)
    with pytest.raises(ValueError, match="orthogonal"):
        ge.geometry_at(bad, [0.9, 1.3])


# --- batched evaluation ------------------------------------------------------


def expr_weight():
    return ge.ExprWeight("-0.5*x1^2 + 0.3*x2*x3 + sin(x3)", 3)


def catalog_charts():
    hyperbolic = WeightedModel(3, rd.warping_hyperbolic(-1.0), rd.weight_gaussian())
    paraboloid = WeightedModel(3, rd.warping_paraboloid(), rd.weight_antigaussian())
    return [
        ge.euclidean_sphere(1.7, 3, expr_weight()),
        ge.hyperplane(3, [0.3, -0.5, 0.8], 0.4, gaussian_weight()),
        ge.coordinate_plane(3, (0, 2), translator_weight(3)),
        ge.cylinder_hypersurface(1.2, 2, 3, gaussian_split(3)),
        ge.paraboloid_graph(3, gaussian_weight()),
        ge.grim_curve(),
        ge.helicoid(0.8, expr_weight()),
        catalogs.resolve_submanifold(
            {"name": "graph", "expr": "0.3*x1^2-0.2*x1*x2+sin(x2)"}, 3,
            ge.RadialWeight(rd.weight_power(-0.3, 3.0))),
        ge.model_sphere(hyperbolic, 1.3),
        ge.radial_graph(paraboloid, 1.5, 0.3),
        ge.identity_chart(2, gaussian_weight()),   # the grid meets the pole
    ]


def _assert_same_row(batch, i, single, label):
    """Row i of a stacked sample equals the one-row sample to the bit, NaN
    radial data at the pole included; a flat ambient has no metric in either."""
    assert single.u.shape == (1, batch.u.shape[1]), label
    for field in dataclasses.fields(single):
        a, b = getattr(batch, field.name), getattr(single, field.name)
        if a is None or b is None:
            assert a is None and b is None, (label, field.name)
            continue
        assert b.shape == (1,) + a.shape[1:], (label, field.name)
        assert np.array_equal(a[i], b[0], equal_nan=True), (label, field.name)


@pytest.mark.parametrize("P", catalog_charts(), ids=lambda P: P.name)
def test_batched_rows_match_single_points(P):
    U = ge._grid_points(P.window, 5)
    x, J, H = ge.jet(P.chart, U)
    batch = ge.geometry_at_batch(P, U)
    assert (batch.ambient_metric is None) == P.ambient.flat
    for i, u in enumerate(U):
        for stacked, single in zip((x, J, H), ge.jet(P.chart, u[None])):
            assert np.array_equal(stacked[i], single[0]), (P.name, u)
        _assert_same_row(batch, i, ge.geometry_at(P, u), (P.name, u))


def _array_columns(u):
    """The columns u, refused unless each is an array or a dual of one."""
    for c in u:
        while isinstance(c, Dual):
            c = c.value
        if not isinstance(c, np.ndarray):
            raise TypeError(f"a chart column must be an array, got {type(c).__name__}")
    return u


def test_a_chart_that_refuses_floats_serves_one_point_and_a_stack():
    # the chart contract: geometry passes array columns and duals of them
    def chart(u):
        x, y = _array_columns(u)
        return [x, y, 0.3 * x * y + fsin(y)]

    def fld(u):
        x, y = _array_columns(u)
        return fcos(x) * y

    P = ge.ImmersedSubmanifold(ge.EuclideanAmbient(3, expr_weight()), 2, chart,
                               window=((0.2, 1.2), (-0.5, 0.5)))
    U = _window_points(P, 4, 3)
    batch = ge.geometry_at_batch(P, U)
    laplacian = ge.weighted_laplacian(batch, fld)
    for i, u in enumerate(U):
        single = ge.geometry_at(P, u)
        _assert_same_row(batch, i, single, u)
        assert ge.weighted_laplacian(single, fld)[0] == laplacian[i]
        assert np.array_equal(P.point(U[i:i + 1])[0], batch.point[i])
        assert ge.field_values(fld, U[i:i + 1])[0] == ge.field_values(fld, U)[i]


def affine_charts():
    return [
        ge.coordinate_plane(3, (0, 2), gaussian_weight()),
        ge.coordinate_plane(4, (0, 1), translator_weight(4)),
        ge.hyperplane(3, [0.3, -0.5, 0.8], 0.4, gaussian_weight()),
        catalogs.resolve_submanifold({"name": "graph", "expr": "0.4*x1-0.3*x2+0.2"}, 3,
                                     expr_weight()),
    ]


def _rows_computed(monkeypatch):
    """The row counts the tangent frames are computed on, call by call."""
    rows, gram_schmidt = [], ge._gram_schmidt

    def recording(J, G):
        rows.append(len(J))
        return gram_schmidt(J, G)

    monkeypatch.setattr(ge, "_gram_schmidt", recording)
    return rows


@pytest.mark.parametrize("P", affine_charts(), ids=lambda P: P.name)
def test_affine_charts_compute_the_metric_and_frames_on_one_row(P, monkeypatch):
    U = ge._grid_points(P.window, 32)
    rows = _rows_computed(monkeypatch)
    batch = ge.geometry_at_batch(P, U)
    assert rows == [1]
    for i, u in enumerate(U):
        _assert_same_row(batch, i, ge.geometry_at(P, u), (P.name, u))
    assert rows == [1] + [1] * len(U)


def test_a_constant_dependent_basis_raises_for_the_first_point(monkeypatch):
    P = ge.ImmersedSubmanifold(
        ge.EuclideanAmbient(3),
        2, lambda u: [u[0] + 2.0 * u[1], 2.0 * u[0] + 4.0 * u[1], 1.0 + 0.0 * u[0]],
        window=((0.0, 1.0), (0.0, 1.0)))
    U = ge._grid_points(P.window, 32)
    rows = _rows_computed(monkeypatch)
    with pytest.raises(DegenerateMetricError) as batch:
        ge.geometry_at_batch(P, U)
    with pytest.raises(DegenerateMetricError) as single:
        ge.geometry_at(P, U[0])
    assert rows == [1, 1]
    assert str(batch.value) == str(single.value)
    assert str(batch.value).startswith(f"induced metric degenerate at u={U[0]} (cond=")


def test_a_sphere_computes_every_row(monkeypatch):
    P = ge.euclidean_sphere(1.7, 3, gaussian_weight())
    U = ge._grid_points(P.window, 32)
    rows = _rows_computed(monkeypatch)
    s = ge.geometry_at_batch(P, U)
    assert rows == [len(U)]
    # the stacked computation, row by row in one stack
    J = s.jacobian
    g = np.swapaxes(J, -1, -2) @ J
    eig = np.abs(np.linalg.eigvalsh(g))
    assert np.array_equal(s.metric, g)
    assert np.array_equal(s.cond, eig.max(axis=1) / eig.min(axis=1))
    assert np.array_equal(s.metric_inv, np.linalg.inv(g))
    assert np.array_equal(s.tangent_frame, ge._gram_schmidt(J, None)[0])


def _reference_profile(P, window, alpha, sense, min_radius, per_dim=32, tol=1e-8):
    # the point-by-point loop the batched profile replaces
    floor = min_radius if min_radius is not None else 1e-9
    worst, witness, used = math.inf, None, 0
    for u in ge._grid_points(window, per_dim):
        s = ge.geometry_at(P, u)
        r = float(P.ambient.r(s.point)[0])
        grad_r = s.grad_r[0]
        if r < floor or np.isnan(grad_r).all():
            continue
        used += 1
        G = np.eye(P.m) if s.ambient_metric is None else s.ambient_metric[0]
        lhs = float(s.grad_h[0] @ G @ grad_r) + float(s.wmc_vec[0] @ G @ grad_r)
        bound = alpha.value(r)
        margin = (bound - lhs) if sense == "upper" else (lhs - bound)
        if margin < worst:
            worst = margin
            if margin < -tol:
                witness = {"u": [float(v) for v in u], "r": r, "lhs": lhs,
                           "bound": bound}
    status = FAILS if worst < -tol else HOLDS
    return status, worst, witness, used


@pytest.mark.parametrize("case", [
    # margin -r/2, least at the far corner: a unique witness
    ("plane", "-1.5*t", "upper", None),
    ("plane", "-1.5*t", "upper", 2.0),          # skips the points inside r = 2
    ("plane", "-t", "lower", 2.5),
    ("sphere", "t - 3", "lower", None),
    ("radial_graph", "2*t", "upper", 1.45),
    # unweighted plane: every margin is exactly -1, the first point is the witness
    ("flat-plane", "-1", "upper", 1.0),
], ids=lambda c: f"{c[0]}-{c[2]}-floor{c[3]}")
def test_hypothesis_profile_matches_point_by_point_loop(case):
    name, alpha_src, sense, min_radius = case
    window = ((0.5, 3.0), (-1.0, 3.0))
    if name == "plane":
        P = ge.coordinate_plane(3, (0, 1), gaussian_weight())
    elif name == "flat-plane":
        P = ge.coordinate_plane(3, (0, 1))
    elif name == "sphere":
        P = ge.euclidean_sphere(1.6, 3, expr_weight())
        window = P.window
    else:
        P = ge.radial_graph(WeightedModel(3, rd.warping_hyperbolic(-1.0),
                                          rd.weight_gaussian()), 1.5, 0.2)
        window = P.window
    alpha = rd.RadialProfile.from_expression(alpha_src)
    status, margin, witness, used = _reference_profile(P, window, alpha, sense,
                                                       min_radius)
    check = ge.radial_hypothesis_profile(P, window, alpha, sense=sense,
                                         min_radius=min_radius)
    assert check.status == status and check.samples == used
    assert check.margin == pytest.approx(margin, rel=1e-12, abs=1e-14)
    if witness is None:
        assert check.witness is None
    else:
        assert check.witness["u"] == witness["u"]
        for key in ("r", "lhs", "bound"):
            assert check.witness[key] == pytest.approx(witness[key], rel=1e-12)


def test_hypothesis_profile_names_the_first_degenerate_point():
    # the chart folds along u1 = 1: the metric degenerates on that grid row
    P = ge.ImmersedSubmanifold(
        ge.EuclideanAmbient(3), 2,
        lambda u: [(u[0] - 1.0) * (u[0] - 1.0), u[1], 0.0 * u[0]],
        window=((0.0, 2.0), (0.0, 1.0)))
    alpha = rd.RadialProfile.constant(1.0)
    with pytest.raises(DegenerateMetricError, match=r"u=\[1\. +0\.\]"):
        ge.radial_hypothesis_profile(P, P.window, alpha, max_points=9)


def _counting_chart(P):
    calls = []

    def chart(u):
        calls.append(1)
        return P.chart(u)

    return dataclasses.replace(P, chart=chart), calls


def test_grids_call_the_chart_once_per_derivative_pair():
    # n(n+1)/2 nested-dual jets plus the point itself, whatever the grid size
    plane, calls = _counting_chart(ge.coordinate_plane(3, (0, 1), gaussian_weight()))
    alpha = rd.RadialProfile.from_expression("-t")
    check = ge.radial_hypothesis_profile(plane, ((0.5, 3.0), (0.5, 3.0)), alpha)
    n = 2
    assert check.samples == 32 * 32 and len(calls) <= n * (n + 1) // 2 + 1
    sphere, calls = _counting_chart(
        ge.euclidean_sphere(math.sqrt(2.0), 3, gaussian_weight()))
    ge.index_form(sphere, lambda u: 1.0, panels=2)   # 30 x 30 nodes
    assert len(calls) <= n * (n + 1) // 2 + 1


@pytest.mark.parametrize("weight", [
    expr_weight(),
    gaussian_split(3),
    ge.HeightWeight(rd.RadialProfile.from_expression("0.5*t^2 + sin(t)"), 3,
                    axis=[0.6, 0.0, 0.8]),
    gaussian_weight(),
    ge.ZeroWeight(),
    ge.ModelChartAmbient(WeightedModel(3, rd.warping_hyperbolic(-1.0),
                                       rd.weight_antigaussian())).weight,
], ids=lambda w: w.name)
def test_weight_batches_match_single_points(weight):
    # row i of a stack is the one-row stack [p_i], to the bit
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, size=(5, 3))
    for method in (weight.value, weight.grad, weight.hess):
        stacked = method(pts)
        for i, p in enumerate(pts):
            assert np.array_equal(stacked[i], method(p[None])[0]), (weight.name, p)


# --- weighted Laplacian -----------------------------------------------------


def _half_square_norm(P):
    """|X|^2/2 as a dual-friendly field on the parameter domain of P."""
    return lambda u: 0.5 * sum(c * c for c in P.chart(u))


def test_laplacian_of_constant_vanishes():
    P = ge.euclidean_sphere(2.0, 3, gaussian_weight())
    s = ge.geometry_at_batch(P, [[0.9, 1.3]])
    assert ge.weighted_laplacian(s, lambda u: 3.7)[0] == 0.0


def test_laplacian_of_radial_function_on_sphere_vanishes():
    P = ge.euclidean_sphere(2.0, 3)
    s = ge.geometry_at_batch(P, [[0.9, 1.3]])
    assert abs(ge.weighted_laplacian(s, _half_square_norm(P))[0]) <= 1e-14


def test_laplacian_on_gaussian_plane_flat_chart_oracle():
    # oracle: direct flat computation Delta v + <grad h, grad v> = 2 - r^2
    P = ge.coordinate_plane(3, (0, 1), gaussian_weight())
    u = np.array([math.cos(0.4), math.sin(0.4)])  # |p| = 1
    value = ge.weighted_laplacian(ge.geometry_at_batch(P, [u]), _half_square_norm(P))[0]
    assert value == pytest.approx(1.0, abs=1e-14)


def _metric_difference_oracle(P, u):
    """The drift's two terms -g^{ij} Gamma^k_ij and g^{kl} d_l (h o X), from
    central differences of the induced metric and of h o X with steps
    eps^(1/3) (1 + |u_k|)."""
    n = len(u)

    def metric(v):
        x, J, _ = (a[0] for a in ge.jet(P.chart, v[None]))
        return J.T @ J if P.ambient.flat else J.T @ P.ambient.metric(x) @ J

    def h_pull(v):
        return P.ambient.weight.value(P.point(v[None]))[0]

    dg = np.empty((n, n, n))  # dg[k, i, j] = d_k g_ij
    grad_h = np.empty(n)
    for k in range(n):
        step = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + abs(u[k]))
        up, um = u.copy(), u.copy()
        up[k] += step
        um[k] -= step
        dg[k] = (metric(up) - metric(um)) / (2.0 * step)
        grad_h[k] = (h_pull(up) - h_pull(um)) / (2.0 * step)
    bracket = dg + dg.transpose(1, 2, 0) - dg.transpose(1, 0, 2)
    g_inv = np.linalg.inv(metric(u))
    gamma = 0.5 * np.einsum("kl,ilj->kij", g_inv, bracket)
    return -np.einsum("ij,kij->k", g_inv, gamma), g_inv @ grad_h


def test_intrinsic_data_matches_metric_differences():
    charts = [
        ge.euclidean_sphere(2.0, 3, translator_weight(3)),
        ge.helicoid(0.7, ge.ExprWeight("-0.5*x1^2 + 0.3*x2*x3 + sin(x3)", 3)),
        ge.paraboloid_graph(3, gaussian_weight()),
        ge.cylinder_hypersurface(1.0, 2, 3, gaussian_weight()),
        ge.grim_curve(),
        ge.radial_graph(WeightedModel(3, rd.warping_hyperbolic(-1.0),
                                      rd.weight_gaussian()), 1.2, 0.2),
        ge.radial_graph(WeightedModel(3, rd.warping_paraboloid(),
                                      rd.weight_antigaussian()), 1.5, 0.3),
    ]
    rng = np.random.default_rng(17)
    for P in charts:
        for _ in range(4):
            u = np.array([rng.uniform(lo, hi) for lo, hi in P.window])
            sample = ge.geometry_at_batch(P, u[None])
            drift, g_inv = ge._drift(sample)[0], sample.metric_inv[0]
            # the drift reads the trace the mean curvature vector came from
            assert np.array_equal(sample.trace, np.einsum(
                "Nij,Nijk->Nk", g_inv[None], sample.covariant_second)), (P.name, u)
            assert np.array_equal(g_inv, np.linalg.inv(sample.metric[0])), (P.name, u)
            fd_trace, fd_grad_h = _metric_difference_oracle(P, u)
            # relative to the terms' scale, floored at 1 where they vanish
            scale = max(np.abs(fd_trace).max(), np.abs(fd_grad_h).max(), 1.0)
            assert np.abs(drift - (fd_trace + fd_grad_h)).max() <= 1e-7 * scale, (
                P.name, u)


def test_laplacian_reads_the_sample_and_refuses_a_degenerate_metric():
    P = ge.helicoid(0.7, gaussian_weight())
    U = _window_points(P, 4, 5)
    fld = lambda u: fsin(u[0]) * u[1]  # noqa: E731
    sample = ge.geometry_at_batch(P, U)
    # each value belongs to the row of the sample it was read from
    assert np.array_equal(ge.weighted_laplacian(sample, fld)[::-1],
                          ge.weighted_laplacian(ge.geometry_at_batch(P, U[::-1]), fld))
    # the chart folds along u1 = 1, where the induced metric degenerates
    fold = ge.ImmersedSubmanifold(
        ge.EuclideanAmbient(3), 2,
        lambda u: [(u[0] - 1.0) * (u[0] - 1.0), u[1], 0.0 * u[0]],
        window=((0.0, 2.0), (0.0, 1.0)))
    with pytest.raises(DegenerateMetricError, match="induced metric degenerate"):
        ge.weighted_laplacian(ge.geometry_at_batch(fold, [[1.0, 0.5]]), fld)


# --- jets of fields -----------------------------------------------------------


def stencil_charts():
    hyperbolic = WeightedModel(3, rd.warping_hyperbolic(-1.0), rd.weight_gaussian())
    return [
        ge.euclidean_sphere(1.7, 3, gaussian_weight()),
        ge.cylinder_hypersurface(1.2, 2, 3, gaussian_split(3)),
        catalogs.resolve_submanifold(
            {"name": "graph", "expr": "0.3*x1^2-0.2*x1*x2+sin(x2)"}, 3,
            ge.RadialWeight(rd.weight_power(-0.3, 3.0))),
        ge.paraboloid_graph(3, gaussian_weight()),
        ge.helicoid(0.8, expr_weight()),
        ge.hyperplane(3, [0.3, -0.5, 0.8], 0.4, gaussian_weight()),
        ge.radial_graph(hyperbolic, 1.5, 0.3),
    ]


def _window_points(P, count, seed):
    rng = np.random.default_rng(seed)
    return np.array([[rng.uniform(lo, hi) for lo, hi in P.window]
                     for _ in range(count)])


def _quartic(u):
    x, y = u
    return 0.7 * x * x * x - 1.3 * x * x * y + 0.4 * y * y * y * y + 2.0 * x * y - 0.5


def _quartic_derivatives(u):
    x, y = u
    grad = [2.1 * x * x - 2.6 * x * y + 2.0 * y, -1.3 * x * x + 1.6 * y ** 3 + 2.0 * x]
    cross = -2.6 * x + 2.0
    return np.array(grad), np.array([[4.2 * x - 2.6 * y, cross], [cross, 4.8 * y * y]])


@pytest.mark.parametrize("P", stencil_charts(), ids=lambda P: P.name)
def test_jet_of_a_polynomial_field_matches_its_analytic_derivatives(P):
    U = _window_points(P, 6, 41)
    value, grad, hess = ge.jet(lambda u: [_quartic(u)], U)
    assert value.shape == (6, 1) and grad.shape == (6, 1, 2) and hess.shape == (6, 1, 2, 2)
    s = ge.geometry_at_batch(P, U)
    laplacian, drift = ge.weighted_laplacian(s, _quartic), ge._drift(s)
    for k, u in enumerate(U):
        want_grad, want_hess = _quartic_derivatives(u)
        scale = max(1.0, np.abs(want_grad).max(), np.abs(want_hess).max())
        assert value[k, 0] == _quartic(u), (P.name, u)
        assert np.abs(grad[k, 0] - want_grad).max() <= 1e-14 * scale, (P.name, u)
        assert np.abs(hess[k, 0] - want_hess).max() <= 1e-14 * scale, (P.name, u)
        # the drift Laplacian is g^{ij} d_i d_j f + b^k d_k f of those derivatives
        want = (s.metric_inv[k] * want_hess).sum() + drift[k] @ want_grad
        assert abs(laplacian[k] - want) <= 1e-14 * max(1.0, abs(want)), (P.name, u)


def _comparison_checks(P):
    """The height, cylinder-distance and angle checks that apply to P."""
    if not P.ambient.flat:
        return []
    checks = [lambda s: ge.height_laplacian(P, s, [0.3, -0.5, 0.8]),
              lambda s: ge.cylinder_distance_laplacian(P, s, k=2)]
    if P.normal is not None and isinstance(P.ambient.weight, ge.SplitWeight):
        checks.append(lambda s: ge.angle_function_laplacian(P, s))
    return checks


@pytest.mark.parametrize("P", stencil_charts() + [
    ge.model_sphere(WeightedModel(3, rd.warping_hyperbolic(-1.0),
                                  rd.weight_gaussian()), 1.5),
    dataclasses.replace(ge.paraboloid_graph(3, gaussian_split(3)),
                        name="paraboloid_graph(m=3, split weight)")],
    ids=lambda P: P.name)
def test_stacked_identity_residual_matches_the_point_loop(P):
    U = _window_points(P, 5, 43)
    sample = ge.geometry_at_batch(P, U)
    rows = [ge.geometry_at_batch(P, [u]) for u in U]
    for psi in (PSI_SQ, rd.RadialProfile.from_expression("exp(-t^2/2)")):
        stacked = ge.radial_identity_residual(P, sample, psi)
        assert stacked.shape == (5,)
        for k, u in enumerate(U):
            single = ge.radial_identity_residual(P, rows[k], psi)[0]
            assert abs(stacked[k] - single) <= 1e-13, (P.name, u)
    # N rows agree with N one-row samples: the direct side to the bit
    for check in _comparison_checks(P):
        stacked = check(sample)
        assert stacked.direct.shape == stacked.formula.shape == (5,)
        for k, u in enumerate(U):
            single = check(rows[k])
            assert stacked.direct[k] == single.direct[0], (P.name, u)
            scale = max(abs(single.formula[0]), 1.0)
            assert abs(stacked.formula[k] - single.formula[0]) <= 1e-15 * scale, (
                P.name, u)


def test_radial_identity_names_the_first_row_at_the_pole():
    P = ge.coordinate_plane(3, (0, 1), gaussian_weight())
    s = ge.geometry_at_batch(P, [[0.5, 0.2], [0.0, 0.0], [0.3, -0.1]])
    with pytest.raises(DomainError, match=r"unavailable at u=\[0\. 0\.\]"):
        ge.radial_identity_residual(P, s, PSI_SQ)


# --- radial identity ---------------------------------------------------------


@pytest.mark.parametrize("P", [
    ge.model_sphere(WeightedModel(3, rd.warping_hyperbolic(-1.0), rd.weight_gaussian()),
                    1.3),
    ge.radial_graph(WeightedModel(3, rd.warping_hyperbolic(-1.0), rd.weight_gaussian()),
                    1.5, 0.3),
    ge.radial_graph(WeightedModel(4, rd.warping_hyperbolic(-2.0),
                                  rd.weight_antigaussian()), 1.2, 0.2),
], ids=lambda P: P.name)
def test_radial_direct_side_in_a_model_chart_matches_the_closed_form(P):
    # in a model chart r = t is the first chart component, so psi(t(u)) is a
    # dual-friendly field whose jet gives a second, independent direct side
    s = ge.geometry_at_batch(P, _window_points(P, 6, 11))
    r = s.point[:, 0]
    for psi, of_t in ((PSI_SQ, lambda t: 0.5 * t * t),
                      (rd.RadialProfile.from_expression("exp(-t^2/2)"),
                       lambda t: fexp(-0.5 * t * t))):
        H, dpsi = P.ambient.sphere_curvature(r), psi.deriv(r)
        G = s.ambient_metric
        drift_r = np.einsum("Ni,Nij,Nj->N", s.grad_h + s.wmc_vec, G, s.grad_r)
        closed = ((psi.second(r) - H * dpsi) * s.radial_tangent_norm ** 2
                  + (P.n * H + drift_r) * dpsi)
        direct = ge.weighted_laplacian(s, lambda u: of_t(P.chart(u)[0]))
        scale = np.maximum(1.0, np.abs(closed))
        assert np.all(np.abs(direct - closed) <= 1e-12 * scale), P.name
        assert np.all(ge.radial_identity_residual(P, s, psi) <= 1e-12 * scale), P.name


def test_radial_identity_sphere_cancellation():
    P = ge.euclidean_sphere(2.0, 3, gaussian_weight())
    assert ge.radial_identity_residual(P, ge.geometry_at_batch(P, [[0.9, 1.3]]),
                                       PSI_SQ)[0] <= 1e-12


def test_radial_identity_gaussian_plane():
    P = ge.coordinate_plane(3, (0, 1), gaussian_weight())
    u = np.array([math.cos(0.3), math.sin(0.3)])
    assert ge.radial_identity_residual(P, ge.geometry_at_batch(P, [u]), PSI_SQ)[0] <= 1e-12


def test_radial_identity_cylinder():
    P = ge.cylinder_hypersurface(1.0, 2, 3)
    psi = rd.RadialProfile(lambda t: t + 0.0 * t, lambda t: 1.0 + 0.0 * t,
                           lambda t: 0.0 * t, name="t")
    assert ge.radial_identity_residual(P, ge.geometry_at_batch(P, [[0.8, 0.5]]),
                                       psi)[0] <= 1e-12


# --- hypothesis profiling -----------------------------------------------------


def test_hypothesis_profile_on_minimal_sphere():
    P = ge.euclidean_sphere(math.sqrt(2.0), 3, gaussian_weight())
    alpha = rd.RadialProfile(lambda t: -t, lambda t: -1.0 + 0 * t, name="-t")
    check = ge.radial_hypothesis_profile(P, P.window, alpha, sense="upper")
    assert check.status == HOLDS
    assert abs(check.margin) <= 1e-8


def test_hypothesis_profile_on_gaussian_plane():
    P = ge.coordinate_plane(3, (0, 1), gaussian_weight())
    alpha = rd.RadialProfile(lambda t: -t, lambda t: -1.0 + 0 * t, name="-t")
    check = ge.radial_hypothesis_profile(P, ((0.5, 3.0), (0.5, 3.0)), alpha,
                                         sense="upper")
    assert check.status == HOLDS and abs(check.margin) <= 1e-8


def test_hypothesis_profile_vacuous_bound():
    P = ge.helicoid(0.5, gaussian_weight())
    alpha = rd.RadialProfile.constant(1e30)
    assert ge.radial_hypothesis_profile(P, P.window, alpha).status == HOLDS


def test_hypothesis_profile_failure_carries_witness():
    P = ge.coordinate_plane(3, (0, 1), gaussian_weight())
    alpha = rd.RadialProfile(lambda t: -t - 1.0, lambda t: -1.0 + 0 * t,
                             name="-t-1")
    check = ge.radial_hypothesis_profile(P, ((0.5, 3.0), (0.5, 3.0)), alpha,
                                         sense="upper")
    assert check.status == FAILS
    assert check.witness is not None and "r" in check.witness


# --- height and cylinder-distance Laplacians ---------------------------------


def test_height_laplacian_gaussian_offset_hyperplane():
    t0 = 0.7
    P = ge.hyperplane(3, [0.0, 0.0, 1.0], t0, gaussian_weight())
    res = ge.height_laplacian(P, ge.geometry_at_batch(P, [[0.4, -0.9]]),
                              np.array([0.0, 0.0, 1.0]))
    # weighted curvature t0 cancels the weight slope -t0
    assert abs(res.formula) <= 1e-12
    assert res.residual <= 1e-12


def test_height_laplacian_vertical_plane_translator():
    P = ge.hyperplane(3, [1.0, 0.0, 0.0], 0.5, translator_weight(3))
    res = ge.height_laplacian(P, ge.geometry_at_batch(P, [[0.3, 1.2]]),
                              np.array([0.0, 0.0, 1.0]))
    assert res.formula == pytest.approx(1.0, abs=1e-12)
    assert res.residual <= 1e-12


def test_height_laplacian_unweighted_plane():
    P = ge.hyperplane(3, [0.0, 0.0, 1.0], 0.0)
    res = ge.height_laplacian(P, ge.geometry_at_batch(P, [[1.0, 2.0]]),
                              np.array([0.0, 1.0, 0.0]))
    assert abs(res.formula) <= 1e-14 and res.residual <= 1e-12


def test_cylinder_distance_laplacian_on_minimal_cylinder():
    P = ge.cylinder_hypersurface(math.sqrt(3.0), 4, 5, gaussian_weight())
    res = ge.cylinder_distance_laplacian(P, ge.geometry_at_batch(P, [[1.0, 0.9, 2.0, 0.7]]))
    assert abs(res.formula) <= 1e-12
    assert abs(res.direct) <= 1e-12


def test_cylinder_distance_laplacian_vertical_plane():
    # {x0} x R^{m-k}: horizontal tangent projections vanish
    amb_w = translator_weight(4)
    P = ge.ImmersedSubmanifold(
        ge.EuclideanAmbient(4, amb_w), 2,
        lambda u: [1.0 + 0.0 * u[0], 0.5 + 0.0 * u[0], u[0], u[1]],
        window=((-2, 2), (-2, 2)))
    res = ge.cylinder_distance_laplacian(P, ge.geometry_at_batch(P, [[0.4, -1.1]]), k=2)
    assert abs(res.formula) <= 1e-12 and abs(res.direct) <= 1e-12


def test_cylinder_distance_laplacian_identity_on_unweighted_cylinder():
    P = ge.cylinder_hypersurface(1.0, 2, 3)
    res = ge.cylinder_distance_laplacian(P, ge.geometry_at_batch(P, [[0.8, 0.5]]))
    assert res.residual <= 1e-12


def test_cylinder_distance_requires_valid_splitting():
    P = ge.coordinate_plane(3, (0, 1))
    with pytest.raises(DomainError):
        ge.cylinder_distance_laplacian(P, ge.geometry_at_batch(P, [[0.1, 0.2]]), k=7)


@pytest.mark.parametrize("check", [
    lambda P, s: ge.index_form(P, lambda V: 1.0),
    ge.angle_function_laplacian,
    lambda P, s: ge.height_laplacian(P, s, [1.0, 0.0, 0.0]),
    lambda P, s: ge.cylinder_distance_laplacian(P, s, k=2),
], ids=["index_form", "angle_function", "height", "cylinder_distance"])
def test_hessian_and_height_checks_refuse_a_model_chart(check):
    # a model chart's weight has no covariant Hessian, and its coordinates
    # are no heights: each of these checks is for Euclidean ambients only
    P = ge.radial_graph(WeightedModel(3, rd.warping_hyperbolic(-1.0),
                                      rd.weight_gaussian()), 1.2, 0.2)
    with pytest.raises(DomainError):
        check(P, ge.geometry_at_batch(P, [[1.0, 2.0]]))


# --- angle function -----------------------------------------------------------


def _scalar_wmc_difference_oracle(P, u):
    """Central differences of <wmc, N> at u, steps eps^(1/3) (1 + |u_k|)."""
    grad = np.empty(len(u))
    for k in range(len(u)):
        step = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + abs(u[k]))
        up, um = u.copy(), u.copy()
        up[k] += step
        um[k] -= step
        s = ge.geometry_at_batch(P, [up, um])
        H = (s.wmc_vec * s.normals[:, 0]).sum(axis=1)
        grad[k] = (H[0] - H[1]) / (2.0 * step)
    return grad


@pytest.mark.parametrize("P", [
    ge.paraboloid_graph(3, gaussian_split(3)),
    ge.grim_curve(),
    # a weight Hessian that is no multiple of the identity
    catalogs.resolve_submanifold(
        {"name": "graph", "expr": "0.3*x1^2-0.2*x1*x2+sin(x2)"}, 3,
        ge.SplitWeight(ge.RadialWeight(rd.weight_power(-0.3, 3.0)),
                       rd.RadialProfile.from_expression("0.5*t^2 + sin(t)"), 3)),
], ids=lambda P: P.name)
def test_advection_matches_differences_of_the_weighted_mean_curvature(P):
    U = _window_points(P, 5, 29)
    s = ge.geometry_at_batch(P, U)
    res = ge.angle_function_laplacian(P, s)
    for k, u in enumerate(U):
        # <grad_P H, dt^T> = g^{ij} d_i H <d_j X, dt>
        oracle = _scalar_wmc_difference_oracle(P, u) @ s.metric_inv[k] @ s.jacobian[k, -1]
        assert abs(res.advection[k] - oracle) <= 1e-9 * max(1.0, abs(oracle)), (P.name, u)
        assert res.residual[k] <= 1e-12 * max(1.0, abs(res.formula[k])), (P.name, u)


def test_angle_laplacian_horizontal_graph_vanishes():
    P = ge.graph_hypersurface(lambda u: 0.3 + 0.0 * u[0], 3, gaussian_split(3))
    res = ge.angle_function_laplacian(P, ge.geometry_at_batch(P, [[0.2, -0.4]]))
    assert abs(res.formula) <= 1e-12 and abs(res.direct) <= 1e-12


def test_angle_laplacian_tilted_hyperplane_gaussian():
    P = ge.graph_hypersurface(lambda u: 0.5 * u[0] + 0.2 + 0.0 * u[1], 3,
                              gaussian_split(3))
    res = ge.angle_function_laplacian(P, ge.geometry_at_batch(P, [[0.3, 0.7]]))
    # constant curvature: both forms agree, and sigma = 0 makes theta harmonic
    assert res.residual_cmc <= 1e-12
    assert abs(res.advection) <= 1e-12


def test_angle_laplacian_paraboloid_needs_advection_term():
    P = ge.paraboloid_graph(3, gaussian_split(3))
    res = ge.angle_function_laplacian(P, ge.geometry_at_batch(P, [[0.7, 0.9]]))
    assert res.residual <= 1e-12          # generalized identity
    assert res.residual_cmc > 1e-2        # constant-curvature form alone fails
    assert abs(res.advection - (res.formula_cmc - res.direct)) <= 1e-12


# --- index form ----------------------------------------------------------------


def test_index_form_zero_test_function():
    P = ge.euclidean_sphere(math.sqrt(2.0), 3, gaussian_weight())
    assert ge.index_form(P, lambda u: 0.0, panels=2) == 0.0


def test_index_form_support_error():
    P = ge.coordinate_plane(3, (0, 1), gaussian_weight())
    with pytest.raises(SupportError):
        ge.index_form(P, lambda u: 1.0, box=((-1, 1), (-1, 1)), panels=2)


def test_index_form_plane_bump_sign():
    # oracle: denser quadrature of the same integrand
    P = ge.coordinate_plane(3, (0, 1), gaussian_weight())

    def bump(u):
        a, b = (1.0 - x * x for x in u)
        return a * a * b * b

    box = ((-1.0, 1.0), (-1.0, 1.0))
    coarse = ge.index_form(P, bump, box=box, panels=6)
    fine = ge.index_form(P, bump, box=box, panels=12)
    assert coarse == pytest.approx(fine, rel=2e-3, abs=1e-8)


def test_index_form_matches_point_by_point_quadrature():
    # the node-by-node loop the batched index form replaces, same sum order
    P = ge.paraboloid_graph(3, gaussian_weight())

    c = math.pi / 1.1

    def test(u):
        return fsin(c * (u[0] - 0.3)) * fsin(c * (u[1] - 0.3))

    (xs1, ws1), (xs2, ws2) = (ge._panel_nodes(lo, hi, 1) for lo, hi in P.window)
    total = 0.0
    for x1, w1 in zip(xs1, ws1):
        row = 0.0
        for x2, w2 in zip(xs2, ws2):
            u = np.array([x1, x2])
            s = ge.geometry_at(P, u)
            sx, sy = np.sin(c * (u - 0.3))
            cx, cy = np.cos(c * (u - 0.3))
            grad_t = np.array([c * cx * sy, c * sx * cy])
            N, sigma, g_inv = s.normals[0, 0], s.second_fundamental[0, 0], s.metric_inv[0]
            ric_h = -N @ P.ambient.weight.hess(s.point)[0] @ N
            sigma_sq = np.einsum("ik,jl,ij,kl->", g_inv, g_inv, sigma, sigma)
            dens = math.exp(P.ambient.weight.value(s.point)[0]) * math.sqrt(
                np.linalg.det(s.metric[0]))
            row += w2 * (grad_t @ g_inv @ grad_t
                         - (ric_h + sigma_sq) * test(u) ** 2) * dens
        total += w1 * row
    assert ge.index_form(P, test, panels=1) == pytest.approx(total, rel=1e-12)


def test_index_form_gaussian_sphere_value():
    P = ge.euclidean_sphere(math.sqrt(2.0), 3, gaussian_weight())
    q = ge.index_form(P, lambda u: 1.0, box=((1e-4, math.pi - 1e-4),
                                             (0.0, 2 * math.pi)), panels=8)
    assert q == pytest.approx(-16 * math.pi / math.e, rel=1e-4)


# --- contractions in a flat ambient --------------------------------------------


def _ambient_weights(m):
    return [ge.ZeroWeight(), gaussian_weight(), translator_weight(m), gaussian_split(m),
            ge.ExprWeight(f"-0.5*x1^2 + 0.3*x1*x{m} + sin(x{m})", m)]


def _flat_chart(kind, m, weight):
    n = m - 1
    if kind == "sphere":
        return ge.euclidean_sphere(1.7, m, weight)
    if kind == "cylinder":
        return ge.cylinder_hypersurface(1.2, 2, m, weight)
    if kind == "graph":
        return catalogs.resolve_submanifold(
            {"name": "graph", "expr": f"0.3*x1^2-0.2*x1*x{n}+sin(x{n})"}, m, weight)
    if kind == "paraboloid_graph":
        return ge.paraboloid_graph(m, weight)
    if kind == "helicoid":
        return ge.helicoid(0.8, weight)
    if kind == "hyperplane":
        return ge.hyperplane(m, np.linspace(0.3, -0.8, m), 0.4, weight)
    return ge.coordinate_plane(m, tuple(range(0, m, 2)), weight)


FLAT_CASES = [(kind, m) for m in (2, 3, 4, 5)
              for kind in ("sphere", "cylinder", "graph", "paraboloid_graph",
                           "helicoid", "hyperplane", "coordinate_plane")
              if (kind != "cylinder" or m >= 3) and (kind != "helicoid" or m == 3)]


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _old_inner(G, a, b):
    return np.einsum("...i,...ij,...j->...", a, G, b)


def _three_operand_fields(s, G):
    """The metric-dependent fields of a stacked sample from the three-operand
    contractions with the ambient metric stack G."""
    J, normals = s.jacobian, s.normals
    Jt = np.swapaxes(J, -1, -2)
    trace = np.einsum("Nij,Nijk->Nk", s.metric_inv, s.covariant_second)

    def normal_part(v):
        return np.einsum("Na,Nak->Nk", _old_inner(G[:, None], v[:, None], normals),
                         normals)

    mc = normal_part(trace)
    tangential = (_old_inner(G[:, None], s.grad_r[:, None], s.tangent_frame) ** 2).sum(1)
    dh = s.grad_h - (G @ trace[..., None])[..., 0]
    return {
        "metric": Jt @ G @ J,
        "second_fundamental": np.einsum("Nijk,Nkl,Nal->Naij", s.covariant_second,
                                        G, normals),
        "mc_vec": mc,
        "wmc_vec": mc - normal_part(s.grad_h),
        "radial_tangent_norm": np.sqrt(np.minimum(np.maximum(tangential, 0.0),
                                                  1.0 + 1e-12)),
        "drift": (s.metric_inv @ (Jt @ dh[..., None]))[..., 0],
    }


def _assert_three_operand_bits(P, s, G):
    sample = {**{f.name: getattr(s, f.name) for f in dataclasses.fields(s)},
              "drift": ge._drift(s)}
    for name, value in _three_operand_fields(s, G).items():
        assert _same_bits(sample[name], value), (P.name, name)


@pytest.mark.parametrize("kind,m", FLAT_CASES, ids=lambda v: str(v))
def test_flat_contractions_equal_the_identity_metric_bitwise(kind, m):
    for weight in _ambient_weights(m):
        P = _flat_chart(kind, m, weight)
        s = ge.geometry_at_batch(P, _window_points(P, 6, 7 + m))
        assert s.ambient_metric is None
        G = np.broadcast_to(np.eye(m), (6, m, m))     # the identity it stands for
        _assert_three_operand_bits(P, s, G)
        # the G-inner products of the frames, normal checks and radial data
        frame, _ = ge._gram_schmidt(s.jacobian, G)
        assert _same_bits(ge._gram_schmidt(s.jacobian, None)[0], frame), P.name
        if P.normal is None:
            assert _same_bits(ge._complete_normals(None, frame, m)[0],
                              ge._complete_normals(G, frame, m)[0]), P.name
        for a, b in ((s.grad_h, s.grad_r), (s.wmc_vec, s.grad_r),
                     (s.normals, s.normals), (s.normals[:, :1], s.tangent_frame),
                     (s.grad_r[:, None], s.tangent_frame)):
            Gb = G[(slice(None),) + (None,) * (b.ndim - 2)]
            assert _same_bits(ge._inner(None, a, b), _old_inner(Gb, a, b)), P.name


@pytest.mark.parametrize("P", [
    ge.model_sphere(WeightedModel(3, rd.warping_hyperbolic(-1.0), rd.weight_gaussian()),
                    1.3),
    ge.radial_graph(WeightedModel(3, rd.warping_hyperbolic(-1.0), rd.weight_gaussian()),
                    1.5, 0.3),
    ge.radial_graph(WeightedModel(4, rd.warping_hyperbolic(-2.0),
                                  rd.weight_antigaussian()), 1.2, 0.2),
], ids=lambda P: P.name)
def test_model_chart_contractions_are_unchanged(P):
    s = ge.geometry_at_batch(P, _window_points(P, 6, 5))
    assert _same_bits(s.ambient_metric, P.ambient.metric(s.point))
    assert _same_bits(ge.geometry_at(P, s.u[0]).ambient_metric, s.ambient_metric[:1])
    _assert_three_operand_bits(P, s, s.ambient_metric)
    assert _same_bits(ge._gram_schmidt(s.jacobian, s.ambient_metric)[0],
                      s.tangent_frame)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_row_sums_equal_the_identity_contraction_bitwise(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((200, m)) * 10.0 ** rng.integers(-6, 6, (200, m))
    b = rng.standard_normal((200, 3, m))
    eye = np.broadcast_to(np.eye(m), (200, m, m))
    assert _same_bits(ge._inner(None, a, b[:, 0]), _old_inner(eye, a, b[:, 0]))
    stacked = _old_inner(eye[:, None], a[:, None], b)
    assert _same_bits(ge._inner(None, a[:, None], b), stacked)
    assert _same_bits(ge._inner(eye, a[:, None], b), stacked)


@pytest.mark.parametrize("P", [
    ge.euclidean_sphere(1.7, 4, gaussian_weight()),
    ge.helicoid(0.8, expr_weight()),
    ge.paraboloid_graph(3, gaussian_weight()),
    ge.coordinate_plane(5, (0, 2, 4)),
    ge.radial_graph(WeightedModel(3, rd.warping_hyperbolic(-1.0), rd.weight_gaussian()),
                    1.5, 0.3),
], ids=lambda P: P.name)
def test_condition_number_is_the_singular_value_ratio(P):
    s = ge.geometry_at_batch(P, _window_points(P, 20, 3))
    sv = np.linalg.svd(s.metric, compute_uv=False)
    assert np.all(s.cond < 1e6)
    np.testing.assert_allclose(s.cond, sv[:, 0] / sv[:, -1], rtol=1e-10, atol=0.0)


def test_first_degenerate_or_non_finite_metric_raises():
    # folds along u2 = 1 (rank one there) and overflows for u1 > 709/800
    P = ge.ImmersedSubmanifold(
        ge.EuclideanAmbient(3), 2,
        lambda u: [u[0], (u[1] - 1.0) * (u[1] - 1.0), fexp(800.0 * u[0])],
        window=((0.0, 1.0), (0.0, 2.0)))
    fold, overflow = [0.1, 1.0], [1.0, 0.5]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateMetricError, match=(
                r"^induced metric degenerate at u=\[0\.1 1\. \] \(cond=inf\)$")):
            ge.geometry_at_batch(P, [fold, overflow])
        with pytest.raises(DegenerateMetricError,
                           match=r"^induced metric not finite at u=\[1\.  0\.5\]$"):
            ge.geometry_at_batch(P, [overflow, fold])
        # rank one: the smaller eigenvalue of g rounds to -3.6e-15
        a, c = (0.07, 2.7, -2.14), 1.79
        line = ge.ImmersedSubmanifold(ge.EuclideanAmbient(3), 2,
                                      lambda u: [ak * (u[0] + c * u[1]) for ak in a],
                                      window=((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(DegenerateMetricError, match=(
                r"^induced metric degenerate at u=\[0\.5 0\.5\] \(cond=")):
            ge.geometry_at_batch(line, [[0.5, 0.5]])
        # a near-singular but finite metric is flagged by its condition number
        thin = ge.ImmersedSubmanifold(ge.EuclideanAmbient(3), 2,
                                      lambda u: [u[0], u[0] + 1e-7 * u[1], 0.0 * u[0]],
                                      window=((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(DegenerateMetricError, match=r"cond=[0-9.]+e\+1[2-9]\)$"):
            ge.geometry_at_batch(thin, [[0.5, 0.5]])


def test_a_cusp_of_the_chart_raises_without_numpy_warnings():
    # u1^1.5 has a finite Jacobian at u1 = 0 but an infinite second
    # derivative, so the metric is finite while the curvature would be NaN
    P = ge.ImmersedSubmanifold(ge.EuclideanAmbient(3), 2,
                               lambda u: [u[0], u[1], fpow(u[0], 1.5)],
                               window=((0.0, 1.0), (0.0, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(ge.geometry_at_batch(P, [[0.5, 0.5]]).mc_vec))
        with pytest.raises(DegenerateMetricError,
                           match=r"^chart jet not finite at u=\[0\.  0\.5\]$"):
            ge.geometry_at_batch(P, [[0.5, 0.5], [0.0, 0.5]])
