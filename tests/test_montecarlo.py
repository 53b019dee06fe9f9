import dataclasses
import math

import numpy as np
import pytest

from wparab import catalogs
from wparab import criteria as cr
from wparab import geometry as ge
from wparab import model as md
from wparab import montecarlo as mc
from wparab import radial as rd
from wparab.errors import ComparisonRefusal, DomainError


def radial_plane(m=2):
    return ge.identity_chart(m, None)


def weighted_plane(profile=rd.weight_gaussian):
    """The (x1, x2)-plane of R^3 with the radial ambient weight ``profile``."""
    return ge.coordinate_plane(3, (0, 1), ge.RadialWeight(profile()))


def power_gaussian():
    """The Gaussian weight -t^2/2 as the power profile a t^k: the same drift
    to the bit, but no declared linear class, so heun-exit-jumps runs it."""
    return rd.weight_power(-0.5, 2.0)


def power_antigaussian():
    return rd.weight_power(0.5, 2.0)


def gradient_drift(spec, V):
    """The drift E^T grad h(c + E V) at frame points V, from the weight's own
    gradient."""
    X = spec.frame @ V + spec.foot[:, None]
    return spec.frame.T @ spec.P.ambient.weight.grad(X.T).T


def skewed_hyperplane(weight):
    """The hyperplane <p, (1, 2, -1, 1)> = 0.3 of R^4 in skewed affine
    coordinates X(u) = base + basis M u: its metric M^T M is not the
    identity (``ge.hyperplane`` takes an orthonormal basis)."""
    base, basis = ge.hyperplane(4, [1.0, 2.0, -1.0, 1.0], offset=0.3).linear
    basis = basis @ np.array([[1.0, 0.6, 0.0], [0.0, 1.3, -0.4],
                              [0.2, 0.0, 0.8]])

    def chart(u):
        return [base[k] + sum(u[i] * basis[k, i] for i in range(3))
                for k in range(4)]

    return ge.ImmersedSubmanifold(ge.EuclideanAmbient(4, weight), 3, chart,
                                  ((-4.0, 4.0),) * 3, linear=(base, basis))


def model_potential(profile, rho, R, s):
    """Exact hitting probability on a plane through the origin: the
    potential of the 2-dimensional model with the same radial weight."""
    model = md.WeightedModel(2, rd.warping_euclidean(), profile())
    return model.capacity_potential(rho, R).potential(s)


def euler_maruyama(spec, start, rho, R, N):
    """Fixed-step Euler--Maruyama paths of the drift diffusion, a reference
    for the library's estimators: boundary crossings are located by linear
    interpolation of the radius between consecutive steps, and a step whose
    radial increment exceeds (R - rho)/10 counts as coarse.  Returns the
    estimate and the fraction of coarse steps.  ``start`` must lie strictly
    inside the annulus.  Paths move in the spec's frame coordinates."""
    start = spec.lift(np.asarray(start, dtype=float)[:, None])
    r0 = float(spec.radius(start)[0])
    dtau = spec.dtau
    sqrt2dt = math.sqrt(2.0 * dtau)
    coarse_limit = (R - rho) / 10.0

    n_inner = n_outer = 0
    exit_time_sums = []
    n_steps_total = 0
    n_coarse = 0

    for nb, rng in spec.batches(N):
        U = np.repeat(start, nb, axis=1)
        r_old = np.full(nb, r0)
        alive = np.ones(nb, dtype=bool)
        n_alive = nb
        exits = 0.0
        for step in range(spec.max_steps):
            if n_alive == 0:
                break
            cur = len(r_old)
            U += gradient_drift(spec, U) * dtau + sqrt2dt * mc._normals(rng, U)
            r_new = spec.radius(U)
            n_steps_total += n_alive
            n_coarse += int(np.count_nonzero(
                (np.abs(r_new - r_old) > coarse_limit) & alive))

            hit_in = (r_new <= rho) & alive
            hit_out = (r_new >= R) & alive
            n_in = int(np.count_nonzero(hit_in))
            n_out = int(np.count_nonzero(hit_out))
            if n_in or n_out:
                exited = hit_in | hit_out
                denom = r_new[exited] - r_old[exited]
                target = np.where(hit_in[exited], rho, R)
                with np.errstate(divide="ignore", invalid="ignore"):
                    lam = (target - r_old[exited]) / denom
                lam = np.clip(np.nan_to_num(lam, nan=1.0), 0.0, 1.0)
                exits += float(np.sum((step + lam) * dtau))
                n_inner += n_in
                n_outer += n_out
                alive &= ~exited
                n_alive -= n_in + n_out
            r_old = r_new
            # periodic compaction keeps the working set tight without
            # per-step fancy-index copies
            if n_alive < 0.9 * cur and n_alive > 0:
                live = np.flatnonzero(alive)
                U, r_old = U.take(live, 1), r_old.take(live)
                alive = np.ones(n_alive, dtype=bool)
        exit_time_sums.append(exits)

    coarse_frac = n_coarse / n_steps_total if n_steps_total else 0.0
    warns = []
    if coarse_frac > 0.01:
        warns.append(
            f"step size too coarse: radial increment exceeded (R-rho)/10 on "
            f"{100 * coarse_frac:.2f}% of steps")
    est = mc._estimate(spec, rho, R, N, n_inner, n_outer,
                       math.fsum(exit_time_sums), n_steps_total, 0,
                       "euler-maruyama", None)
    return dataclasses.replace(est, warnings=warns + est.warnings), coarse_frac


def test_boundary_starts_are_immediate():
    spec = mc.DiffusionSpec(radial_plane(), dtau=1e-3, seed=0)
    assert mc.hit_probability(spec, [1.0, 0.0], 1.0, math.e, 50).p_hat == 1.0
    assert mc.hit_probability(spec, [math.e, 0.0], 1.0, math.e, 50).p_hat == 0.0


def test_seed_determinism_is_bitwise():
    args = ([1.6, 0.4], 1.0, math.e, 3000)
    a = mc.hit_probability(mc.DiffusionSpec(radial_plane(), 5e-4, seed=3), *args)
    b = mc.hit_probability(mc.DiffusionSpec(radial_plane(), 5e-4, seed=3), *args)
    assert a.p_hat == b.p_hat
    assert a.mean_exit_time == b.mean_exit_time
    c = mc.hit_probability(mc.DiffusionSpec(radial_plane(), 5e-4, seed=4), *args)
    assert c.p_hat != a.p_hat


def test_euler_maruyama_seed_determinism_is_bitwise():
    args = (np.array([1.6, 0.4]), 1.0, math.e, 3000)
    a, a_coarse = euler_maruyama(mc.DiffusionSpec(radial_plane(), 5e-4, seed=3),
                                 *args)
    b, b_coarse = euler_maruyama(mc.DiffusionSpec(radial_plane(), 5e-4, seed=3),
                                 *args)
    assert a.to_dict() == b.to_dict() and a_coarse == b_coarse
    assert a.estimator == "euler-maruyama" and a.shell is None
    c, _ = euler_maruyama(mc.DiffusionSpec(radial_plane(), 5e-4, seed=4), *args)
    assert c.p_hat != a.p_hat


def test_walk_on_spheres_determinism_is_bitwise():
    # several batches, each drawing from its own (seed, batch) stream
    def run(seed):
        spec = mc.DiffusionSpec(radial_plane(3), 1e-3, seed=seed, batch_size=700)
        return mc.hit_probability(spec, [1.2, 0.9, -0.3], 1.0, 4.0, 2000)
    a, b = run(3), run(3)
    assert a.estimator == "walk-on-spheres"
    assert a.to_dict() == b.to_dict()
    c = run(4)
    assert (c.p_hat, c.mean_exit_time) != (a.p_hat, a.mean_exit_time)


def _annulus_potential(d, s, rho, R):
    if d == 2:
        return math.log(R / s) / math.log(R / rho)
    e = 2 - d
    return (s ** e - R ** e) / (rho ** e - R ** e)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_walk_on_spheres_matches_closed_form(d):
    spec = mc.DiffusionSpec(radial_plane(d), 1e-3, seed=20 + d)
    start = [1.2, 1.6] + [0.0] * (d - 2)
    est = mc.hit_probability(spec, start, 1.0, 4.0, 20_000)
    assert est.n_unresolved == 0
    assert abs(est.p_hat - _annulus_potential(d, 2.0, 1.0, 4.0)) \
        <= 4.0 * est.standard_error


def test_walk_on_spheres_on_offset_hyperplane():
    # the plane x3 = c meets the annulus 1 < r < 3 in the planar annulus
    # sqrt(1 - c^2) < s < sqrt(9 - c^2); the jump radius min(r - rho, R - r)
    # is only a lower bound on the in-plane distance to its boundary
    c = 0.6
    plane = ge.hyperplane(3, [0.0, 0.0, 1.0], offset=c)
    spec = mc.DiffusionSpec(plane, 1e-3, seed=31)
    est = mc.hit_probability(spec, [1.6, 0.0], 1.0, 3.0, 20_000)
    exact = _annulus_potential(2, 1.6, math.sqrt(1.0 - c * c),
                               math.sqrt(9.0 - c * c))
    assert est.estimator == "walk-on-spheres"
    assert abs(est.p_hat - exact) <= 4.0 * est.standard_error


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_sphere_cosines_follow_the_law_of_a_uniform_direction(n):
    # c = <e, theta> for theta uniform on S^{n-1}: E[c] = 0, E[c^2] = 1/n
    # and E[c^4] = 3/(n(n+2)), each within 5 SE at 2e5 draws (exactly for
    # the signs of a line)
    N = 200_000
    c = mc._sphere_cosines(np.random.default_rng(n), n, N)
    assert c.shape == (N,) and np.all(np.abs(c) <= 1.0)
    for k, exact in ((1, 0.0), (2, 1.0 / n), (4, 3.0 / (n * (n + 2)))):
        moment = c ** k
        se = moment.std(ddof=1) / math.sqrt(N)
        assert abs(moment.mean() - exact) <= 5.0 * se, (k, moment.mean())


@pytest.mark.parametrize("offset", [0.0, 0.6])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_radial_jump_lands_at_the_radius_of_a_cartesian_jump(n, offset):
    # one jump of the radial move against |V + d xi/|xi|| from the same
    # start, on an n-plane through the origin of R^n and on the offset
    # hyperplane x_{n+1} = 0.6 of R^{n+1}: two-sample KS at 2e4 draws each
    from scipy import stats
    P = (ge.identity_chart(n, None) if offset == 0.0 else
         ge.hyperplane(n + 1, [0.0] * n + [1.0], offset=offset))
    spec = mc.DiffusionSpec(P, 1e-3, seed=0)
    N, d = 20_000, 0.7
    V = np.repeat(spec.lift(np.linspace(0.3, 0.9, n)[:, None]), N, axis=1)
    q = mc._radii(V)[None]
    q1, r1, b1, dt, jumps = mc._radial_jump(spec)(
        np.random.default_rng(n), q, None, np.full(N, d))
    assert q1.shape == (1, N) and b1 is None and jumps == N
    np.testing.assert_array_equal(dt, d * d / (2 * n))
    np.testing.assert_allclose(r1, np.sqrt(q1[0] ** 2 + offset ** 2),
                               rtol=1e-15)
    cartesian = V + mc._sphere_steps(
        mc._normals(np.random.default_rng(100 + n), V), np.full(N, d))
    assert stats.ks_2samp(q1[0], mc._radii(cartesian)).pvalue > 1e-3
    assert stats.ks_2samp(r1, spec.radius(cartesian)).pvalue > 1e-3


def test_walk_on_spheres_agrees_with_euler_maruyama():
    # EM overshoots the boundaries by about 0.5826 sqrt(2 dtau) per exit
    # (Broadie-Glasserman-Kou); walk-on-spheres carries no such bias
    dtau, rho, R = 1e-3, 1.0, math.e
    start = np.array([math.sqrt(math.e), 0.0])
    wos = mc.hit_probability(mc.DiffusionSpec(radial_plane(), dtau, seed=41),
                             start, rho, R, 20_000)
    em, _ = euler_maruyama(mc.DiffusionSpec(radial_plane(), dtau, seed=42),
                           start, rho, R, 4000)
    shift = 0.5826 * math.sqrt(2.0 * dtau)
    s0 = math.sqrt(math.e)
    bias = abs(_annulus_potential(2, s0, rho - shift, R + shift)
               - _annulus_potential(2, s0, rho, R))
    se = math.hypot(wos.standard_error, em.standard_error)
    assert (wos.estimator, em.estimator) == ("walk-on-spheres", "euler-maruyama")
    assert abs(wos.p_hat - em.p_hat) <= 3.0 * se + bias


@pytest.mark.parametrize("d", [2, 4])
def test_walk_on_spheres_mean_exit_time(d):
    # oracle: u'' + (d-1)/r u' = -1, u(1) = u(4) = 0 gives u(2) = 9/8 for
    # d = 2 and d = 4; the per-path sum of d^2/(2n) has a measured standard
    # deviation below 1.2 (1.09 for d = 2, 0.77 for d = 4)
    N = 20_000
    spec = mc.DiffusionSpec(radial_plane(d), 1e-3, seed=50 + d)
    est = mc.hit_probability(spec, [2.0] + [0.0] * (d - 1), 1.0, 4.0, N)
    assert abs(est.mean_exit_time - 1.125) <= 4.0 * 1.2 / math.sqrt(N)


def test_walk_on_spheres_needs_few_jumps():
    # the setup of acceptance 09; Euler-Maruyama takes ~3,700 steps a path
    spec = mc.DiffusionSpec(radial_plane(), dtau=1e-4, seed=4)
    est = mc.hit_probability(spec, [math.sqrt(math.e), 0.0], 1.0, math.e,
                             20_000)
    assert est.estimator == "walk-on-spheres"
    assert est.shell == pytest.approx(1e-4 * (math.e - 1.0), rel=1e-15)
    assert 0 < est.path_steps == est.exit_jumps < 100 * est.n_paths


def test_max_steps_caps_jumps():
    spec = mc.DiffusionSpec(radial_plane(), 1e-3, seed=2, max_steps=3)
    est = mc.hit_probability(spec, [1.6, 0.0], 1.0, math.e, 500)
    assert est.n_unresolved > 0
    assert est.n_inner + est.n_outer + est.n_unresolved == 500
    assert est.path_steps == est.exit_jumps <= 3 * 500
    assert any("within 3 jumps" in w for w in est.warnings)


def test_heun_exit_jumps_determinism_is_bitwise():
    # several batches, each drawing from its own (seed, batch) stream
    def run(seed):
        spec = mc.DiffusionSpec(weighted_plane(power_gaussian),
                                mc.default_step(1.0, 4.0), seed=seed,
                                batch_size=700)
        return mc.hit_probability(spec, [1.4, 0.9], 1.0, 4.0, 2000)
    a, b = run(3), run(3)
    assert a.estimator == "heun-exit-jumps"
    assert a.to_dict() == b.to_dict()
    c = run(4)
    assert (c.p_hat, c.mean_exit_time) != (a.p_hat, a.mean_exit_time)


def test_heun_exit_jumps_match_the_antigaussian_model():
    rho, R, s = 1.0, 3.0, 1.5
    spec = mc.DiffusionSpec(weighted_plane(power_antigaussian),
                            mc.default_step(rho, R), seed=61)
    est = mc.hit_probability(spec, [s, 0.0], rho, R, 20_000)
    exact = model_potential(rd.weight_antigaussian, rho, R, s)
    assert est.estimator == "heun-exit-jumps" and est.n_unresolved == 0
    assert abs(est.p_hat - exact) <= 4.0 * est.standard_error


def test_heun_exit_jumps_on_the_gaussian_plane():
    # the setup of acceptance 10; fixed-step Euler-Maruyama at dtau = 1e-4
    # takes ~6,900 steps a path there
    N = 100_000
    spec = mc.DiffusionSpec(weighted_plane(power_gaussian),
                            mc.default_step(1.0, 4.0), seed=12, batch_size=N)
    est = mc.hit_probability(spec, [2.0, 0.0], 1.0, 4.0, N)
    exact = model_potential(rd.weight_gaussian, 1.0, 4.0, 2.0)
    assert est.shell == pytest.approx(3e-4, rel=1e-12)
    assert est.estimator == "heun-exit-jumps" and est.n_unresolved == 0
    assert abs(est.p_hat - exact) <= 3.0 * est.standard_error
    assert 0 < est.exit_jumps < est.path_steps < 100 * N


@pytest.mark.parametrize("profile,R,s", [
    (rd.weight_gaussian, 4.0, 1.3),
    (rd.weight_gaussian, 4.0, 3.0),
    (rd.weight_antigaussian, 3.0, 1.2),
    (rd.weight_antigaussian, 3.0, 2.5),
])
def test_drifted_estimates_match_the_model_potentials(profile, R, s):
    # with the offset Gaussian plane below: starts near either boundary and
    # in the middle, under a confining and a repelling drift; the catalog
    # declares both drifts linear, lam V with lam = -1 and +1
    spec = mc.DiffusionSpec(weighted_plane(profile), mc.default_step(1.0, R),
                            seed=83)
    est = mc.hit_probability(spec, [s, 0.0], 1.0, R, 20_000)
    assert est.estimator == "ou-bridge" and est.n_unresolved == 0
    assert est.exit_jumps == 0 < est.path_steps
    assert abs(est.p_hat - model_potential(profile, 1.0, R, s)) \
        <= 4.0 * est.standard_error


def _speed(b):
    return np.sqrt((b * b).sum(axis=0))


def test_heun_step_is_the_predictor_corrector():
    # on the Gaussian plane b(V) = -V, so one step with noise n is
    # V (1 - dt + dt^2 / 2) + n (1 - dt / 2); a plain Euler drift would
    # give V (1 - dt) + n
    spec = mc.DiffusionSpec(weighted_plane(power_gaussian), 1e-2, seed=0)
    V = np.array([[2.0, 0.0], [0.3, -1.5]]).T
    d = np.array([1.0, 0.3])
    _, b = spec.radius_and_drift(V)
    xi = np.random.default_rng(7).standard_normal(V.shape)
    V1, dt = mc._heun(spec, V, b, d, mc.KAPPA * d * d, _speed(b), xi.copy())
    want_dt = np.array([1e-2, 0.05 * 0.3 ** 2])
    noise = xi * np.sqrt(2.0 * want_dt)
    h = want_dt
    np.testing.assert_allclose(dt, want_dt, rtol=1e-15)
    np.testing.assert_allclose(V1, V * (1 - h + h * h / 2) + noise * (1 - h / 2),
                               rtol=0, atol=1e-14)
    r1, b1 = spec.radius_and_drift(V1)
    np.testing.assert_allclose(b1, -V1, rtol=0, atol=1e-14)
    np.testing.assert_allclose(r1, np.hypot(V1[0], V1[1]), rtol=1e-15)


@pytest.mark.parametrize("plane,u,d", [
    (ge.identity_chart(2, ge.HeightWeight(rd.weight_power(1.0, 1.0), 2,
                                          axis=[1.5, -1.0])), [0.4, 1.1], 0.1),
    # the metric g = basis^T basis is not the identity, so the frame
    # coordinates differ from the chart's
    (skewed_hyperplane(ge.HeightWeight(rd.weight_power(1.0, 1.0), 4,
                                       axis=[0.5, -1.0, 0.3, 0.8])),
     [1.1, -0.7, 0.9], 0.15),
])
def test_exit_jumps_follow_the_first_order_exit_law(plane, u, d):
    # the height weight mu(t) = t, as a power profile that declares no
    # linear class, has a constant gradient; under the constant drift
    # b the exit point of the ball of radius d has E[theta] = (d / 2n) b to
    # first order, where a walk-on-spheres jump would give E[theta] = 0,
    # over 20 SE away
    N, n = 200_000, len(u)
    spec = mc.DiffusionSpec(plane, 1.0, seed=0)
    V = np.repeat(spec.lift(np.asarray(u, dtype=float)[:, None]), N, axis=1)
    _, b = spec.radius_and_drift(V)
    V1, r1, b1, dt, jumps = mc._heun_exit_jump(spec)(
        np.random.default_rng(3), V.copy(), b, np.full(N, d))
    theta, beta = (V1 - V) / d, b[:, 0]
    assert jumps == N and 0.5 * d * np.linalg.norm(beta) <= mc.EXIT_JUMP_EPS
    np.testing.assert_allclose(np.sqrt((theta * theta).sum(axis=0)), 1.0,
                               rtol=0, atol=1e-14)
    se = theta.std(axis=1, ddof=1) / math.sqrt(N)
    assert np.all(np.abs(theta.mean(axis=1) - d * beta / (2 * n)) <= 4.0 * se)
    assert np.linalg.norm(d * beta / (2 * n)) > 20.0 * se.max()
    np.testing.assert_array_equal(dt, d * d / (2 * n))
    X1 = spec.frame @ V1 + spec.foot[:, None]
    np.testing.assert_allclose(r1, np.linalg.norm(X1, axis=0), rtol=1e-15)
    np.testing.assert_array_equal(b1, np.repeat(b1[:, :1], N, axis=1))


def test_exit_jumps_land_at_g_distance_d():
    # the move takes each path's own d; a jump lands on the sphere of
    # radius d around its start in frame coordinates, the g-sphere of the
    # chart, to rounding
    plane = skewed_hyperplane(ge.RadialWeight(power_gaussian()))
    spec = mc.DiffusionSpec(plane, mc.default_step(1.0, 4.0), seed=0)
    rng = np.random.default_rng(5)
    V = spec.lift(rng.uniform(-1.5, 1.5, (3, 5000)))
    _, b = spec.radius_and_drift(V)
    d = rng.uniform(1e-4, 0.03, 5000)
    V1, _, _, dt, jumps = mc._heun_exit_jump(spec)(rng, V.copy(), b, d)
    assert jumps == 5000
    np.testing.assert_allclose(np.linalg.norm(V1 - V, axis=0), d, rtol=0,
                               atol=1e-14)
    np.testing.assert_array_equal(dt, d * d / 6.0)


def test_bulk_paths_take_the_heun_step():
    # where KAPPA d^2 >= dtau or the drift is strong across the ball, the
    # move is the Heun step, draw for draw; the other paths jump
    spec = mc.DiffusionSpec(weighted_plane(power_gaussian), 1e-2, seed=0)
    V = np.array([[2.0, 0.0], [0.3, 0.2], [3.0, 0.5], [0.1, 0.2]]).T
    d = np.array([1.0, 0.3, 0.3, 0.3])
    _, b = spec.radius_and_drift(V)
    V1, r1, b1, dt1, jumps = mc._heun_exit_jump(spec)(
        np.random.default_rng(7), V[:, :1].copy(), b[:, :1], d[:1])
    xi = mc._normals(np.random.default_rng(7), V[:, :1])
    want, want_dt = mc._heun(spec, V[:, :1], b[:, :1], d[:1],
                             mc.KAPPA * d[:1] ** 2, _speed(b[:, :1]), xi)
    np.testing.assert_array_equal(V1, want)
    np.testing.assert_array_equal(dt1, want_dt)
    for got, exact in zip((r1, b1), spec.radius_and_drift(want)):
        np.testing.assert_array_equal(got, exact)
    assert jumps == 0
    # |b| d / 2 is 0.05 at V = (0.3, 0.2), 0.46 at (3, 0.5) and 0.03 at
    # (0.1, 0.2): the second and fourth paths jump
    V1, _, _, dt, jumps = mc._heun_exit_jump(spec)(np.random.default_rng(7),
                                                   V.copy(), b, d)
    assert jumps == 2
    jump_dt = 0.3 * 0.3 / 4.0
    np.testing.assert_array_equal(dt, [1e-2, jump_dt, 0.05 * 0.3 * 0.3, jump_dt])
    np.testing.assert_allclose(np.hypot(*(V1 - V)[:, 1::2]), 0.3, rtol=1e-15)


def test_a_dtau_above_the_default_step_is_warned():
    # heun-exit-jumps reads low at 4x the default step on this plane (by
    # 1.2e-3 from s = 1.2, z = -5.1 over 4e6 paths): a dtau above the
    # default is named in the estimate's warnings
    rho, R = 1.0, 3.0
    default = mc.default_step(rho, R)
    for dtau, warned in ((4.0 * default, True), (default, False),
                         (0.25 * default, False)):
        spec = mc.DiffusionSpec(weighted_plane(power_antigaussian), dtau,
                                seed=5)
        est = mc.hit_probability(spec, [1.2, 0.0], rho, R, 200)
        assert est.estimator == "heun-exit-jumps"
        if warned:
            assert est.warnings == [
                "dtau = 0.016 exceeds the default step 1e-3 (R - rho)^2 = "
                "0.004; heun-exit-jumps estimates read low at larger steps"]
        else:
            assert est.warnings == []
    # walk-on-spheres does not use dtau; ou-bridge takes dtau in the
    # boundary layer, where its exit test misses O(dtau) of the crossings
    # (-1.0e-3 at 16x the default from s = 1.2, z -3.0 over 2e6 paths)
    spec = mc.DiffusionSpec(radial_plane(), 1.0, seed=5)
    est = mc.hit_probability(spec, [2.0, 0.0], rho, R, 200)
    assert est.estimator == "walk-on-spheres" and est.warnings == []
    for dtau, warned in ((4.0 * default, True), (default, False)):
        spec = mc.DiffusionSpec(weighted_plane(rd.weight_antigaussian), dtau,
                                seed=5)
        est = mc.hit_probability(spec, [1.2, 0.0], rho, R, 200)
        assert est.estimator == "ou-bridge"
        assert est.warnings == ([
            "dtau = 0.016 exceeds the default step 1e-3 (R - rho)^2 = "
            "0.004; ou-bridge estimates read low at larger steps"]
            if warned else [])


def test_overshooting_paths_count_for_the_boundary_they_crossed():
    # a move that lands alternate paths inside rho and beyond R
    def move(rng, U, b, d):
        U = U * np.where(np.arange(U.shape[1]) % 2, 3.0, 0.25)
        return U, np.linalg.norm(U, axis=0), None, np.ones(U.shape[1]), 0
    spec = mc.DiffusionSpec(radial_plane(), 1e-3, seed=1, max_steps=3)
    est = mc._shell_walk(spec, np.array([2.0, 0.0]), 1.0, 4.0, 300, "test",
                         move)
    assert (est.n_inner, est.n_outer, est.path_steps) == (150, 150, 300)


def test_stiff_drift_does_not_throw_paths_across_the_annulus():
    # h = -200 r^2 pulls every path from r = 2 to rho = 1 (the outer exit
    # has probability about e^-2400); a step of dtau = 9e-3 alone would
    # carry the predictor past the origin and the corrector past R
    stiff = weighted_plane(lambda: rd.weight_power(-200.0, 2.0))
    spec = mc.DiffusionSpec(stiff, mc.default_step(1.0, 4.0), seed=1)
    est = mc.hit_probability(spec, [2.0, 0.0], 1.0, 4.0, 300)
    assert (est.n_inner, est.n_outer) == (300, 0)


def test_max_steps_caps_heun_steps():
    spec = mc.DiffusionSpec(weighted_plane(power_gaussian),
                            mc.default_step(1.0, 4.0), seed=2, max_steps=5)
    est = mc.hit_probability(spec, [1.002, 0.0], 1.0, 4.0, 500)
    assert 0 < est.n_unresolved < 500
    assert est.n_inner + est.n_outer + est.n_unresolved == 500
    assert est.path_steps <= 5 * 500
    assert any("did not exit within 5 steps" in w for w in est.warnings)


def test_heun_exit_jumps_on_an_offset_gaussian_plane():
    # the plane x3 = c meets the annulus rho < r < R in the planar annulus
    # sqrt(rho^2 - c^2) < s < sqrt(R^2 - c^2), and the Gaussian weight is
    # -(s^2 + c^2)/2 there: the drift is that of the Gaussian 2-plane, so the
    # exact hitting probability is its model potential at in-plane radii
    c, rho, R, s = 0.6, 1.0, 3.0, 2.5
    plane = ge.hyperplane(3, [0.0, 0.0, 1.0], offset=c,
                          weight=ge.RadialWeight(power_gaussian()))
    spec = mc.DiffusionSpec(plane, mc.default_step(rho, R), seed=71)
    est = mc.hit_probability(spec, [s, 0.0], rho, R, 20_000)
    exact = model_potential(rd.weight_gaussian, math.sqrt(rho * rho - c * c),
                            math.sqrt(R * R - c * c), s)
    assert 0.3 < exact < 0.7
    assert est.estimator == "heun-exit-jumps" and est.n_unresolved == 0
    assert abs(est.p_hat - exact) <= 4.0 * est.standard_error


def test_heun_exit_jumps_match_a_power_model():
    # a cubic weight 0.15 r^3: a drift (0.45 r) V that is not linear, which
    # heun-exit-jumps serves (z -1.2 over 4e5 paths at seed 2024)
    def cubic():
        return rd.weight_power(0.15, 3.0)

    rho, R, s = 1.0, 3.0, 1.5
    spec = mc.DiffusionSpec(weighted_plane(cubic), mc.default_step(rho, R),
                            seed=61)
    est = mc.hit_probability(spec, [s, 0.0], rho, R, 20_000)
    assert est.estimator == "heun-exit-jumps" and est.n_unresolved == 0
    assert abs(est.p_hat - model_potential(cubic, rho, R, s)) \
        <= 4.0 * est.standard_error


def test_ou_bridge_on_an_offset_gaussian_plane():
    # the offset plane of test_heun_exit_jumps_on_an_offset_gaussian_plane:
    # the drift is -V there, a radial law about the foot of the plane
    c, rho, R, s = 0.6, 1.0, 3.0, 2.5
    plane = ge.hyperplane(3, [0.0, 0.0, 1.0], offset=c,
                          weight=ge.RadialWeight(rd.weight_gaussian()))
    spec = mc.DiffusionSpec(plane, mc.default_step(rho, R), seed=71)
    est = mc.hit_probability(spec, [s, 0.0], rho, R, 20_000)
    exact = model_potential(rd.weight_gaussian, math.sqrt(rho * rho - c * c),
                            math.sqrt(R * R - c * c), s)
    assert est.estimator == "ou-bridge" and est.n_unresolved == 0
    assert abs(est.p_hat - exact) <= 4.0 * est.standard_error


@pytest.mark.parametrize("weight", [
    ge.RadialWeight(rd.weight_gaussian()), ge.RadialWeight(rd.weight_antigaussian()),
    ge.HeightWeight(rd.weight_height(), 3), ge.RadialWeight(power_gaussian())])
def test_an_annulus_that_misses_an_offset_plane_has_the_trivial_estimate(weight):
    # the plane at distance 5 from the origin lies outside the sphere r = 3:
    # every start has r >= 5 > R, so p_hat is 0 and no path moves
    plane = ge.hyperplane(3, [0.3, -1.0, 2.0], offset=5.0, weight=weight)
    spec = mc.DiffusionSpec(plane, None, seed=1)
    est = mc.hit_probability(spec, [0.5, 0.0], 1.0, 3.0, 100)
    assert (est.p_hat, est.n_outer, est.path_steps) == (0.0, 100, 0)
    # and so does every radius of a probe's R_schedule below 5
    probe = mc.recurrence_probe(spec, [0.5, 0.0], 1.0, [2.0, 3.0, 4.5], 100)
    assert probe.p_hats == [0.0, 0.0, 0.0]
    assert [e.path_steps for e in probe.estimates] == [0, 0, 0]


def test_an_exact_step_that_overflows_is_a_domain_error():
    # e^(2 lam dt) overflows beyond dt of about 355 under lam = +1
    spec = mc.DiffusionSpec(weighted_plane(rd.weight_antigaussian), 400.0,
                            seed=1)
    with pytest.raises(DomainError, match="dtau = 400 is too large"):
        mc.hit_probability(spec, [1.5, 0.0], 1.0, 3.0, 10)


class AffineGradientWeight(ge.AmbientWeight):
    """h(p) = lam |p|^2 / 2 + <g, p>: the drift on a plane is lam V + E^T g."""

    def __init__(self, lam, g):
        self.lam, self.g = lam, np.asarray(g, dtype=float)

    def grad(self, pts):
        return self.lam * pts + self.g

    def plane_drift(self, frame, foot):
        return self.lam, frame.T @ self.g


@pytest.mark.parametrize("lam", [-1.0, 0.0, 1.0])
def test_an_exact_step_has_the_ornstein_uhlenbeck_mean_and_covariance(lam):
    # one step of dt = 0.3 from V: mean e^{lam dt} V + beta (e^{lam dt} -
    # 1)/lam and covariance (e^{2 lam dt} - 1)/lam I, or V + beta dt and
    # 2 dt I at lam = 0; an Euler step would miss the mean by over 25 SE at
    # lam = -1 and the variance by a third
    dt, N = 0.3, 200_000
    plane = ge.hyperplane(3, [0.3, -1.0, 2.0], offset=0.7,
                          weight=AffineGradientWeight(lam, [0.5, 1.0, -0.4]))
    spec = mc.DiffusionSpec(plane, dt, seed=0)
    beta = spec.linear[1]
    assert spec.linear[0] == lam and np.all(np.abs(beta) > 0.1)
    V = np.repeat(spec.lift(np.array([[1.2], [-0.5]])), N, axis=1)
    # KAPPA d^2 < dt at the distance d from r = 1.5 to rho = 0.1: a step of dtau
    d = spec.radius(V) - 0.1
    moved, _, b, times, jumps = mc._ou_bridge(spec, 0.1, 50.0, False)(
        np.random.default_rng(4), V, None, d)
    assert b is None and jumps == 0 and np.all(times == dt)
    grow = math.exp(lam * dt)
    mean = grow * V[:, 0] + beta * ((grow - 1.0) / lam if lam else dt)
    var = (grow * grow - 1.0) / lam if lam else 2.0 * dt
    assert np.all(np.abs(moved.mean(axis=1) - mean) <= 4.0 * math.sqrt(var / N))
    # a sample variance has the standard deviation var sqrt(2 / N), a
    # sample covariance var sqrt(1 / N)
    np.testing.assert_array_less(np.abs(np.cov(moved) - var * np.eye(2)),
                                 4.0 * var * math.sqrt(2.0 / N))


def test_a_bulk_step_has_the_ornstein_uhlenbeck_law_at_its_own_dt():
    # paths from two starts far from both spheres take two different bulk
    # steps, 0.1 and 0.24 under lam = -1; standardized by the mean and
    # variance of each path's own dt they are standard normals
    N = 200_000
    plane = ge.hyperplane(3, [0.3, -1.0, 2.0], offset=0.7,
                          weight=AffineGradientWeight(-1.0, [0.5, 1.0, -0.4]))
    spec = mc.DiffusionSpec(plane, 1e-3, seed=0)
    beta = spec.linear[1]
    V = np.repeat(spec.lift(np.array([[1.2, 6.0], [-0.5, 3.0]])), N // 2, axis=1)
    moved, r, _, times, _ = mc._ou_bridge(spec, 0.1, 50.0, False)(
        np.random.default_rng(5), V, None, spec.radius(V) - 0.1)
    assert np.all((r > 0.1) & (r < 50.0))
    assert len(np.unique(times)) == 2 and np.all(times > 0.09)
    grow = np.exp(-times)
    Z = moved - grow * V - beta[:, None] * (1.0 - grow)
    Z /= np.sqrt(1.0 - grow * grow)
    assert np.all(np.abs(Z.mean(axis=1)) <= 4.0 / math.sqrt(N))
    np.testing.assert_array_less(np.abs(np.cov(Z) - np.eye(2)),
                                 4.0 * math.sqrt(2.0 / N))


@pytest.mark.parametrize("case", ["gaussian", "offset antigaussian", "translator"])
def test_an_exact_step_is_dtau_at_the_boundary_and_grows_in_the_bulk(case):
    # dt = max(dtau, min(KAPPA d^2, d / (2 b))) with b = |lam| (q + d) +
    # |beta|, the largest drift on the ball of radius d; the antigaussian
    # plane x3 = 1.5 misses the inner sphere r = 1 and holds a path at q = 0
    rho, R, dtau = 1.0, 9.0, 1e-3
    if case == "gaussian":
        P = weighted_plane()
    elif case == "offset antigaussian":
        P = ge.hyperplane(3, [0.0, 0.0, 1.0], offset=1.5,
                          weight=ge.RadialWeight(rd.weight_antigaussian()))
    else:
        P = ge.hyperplane(3, [0.3, -1.0, 2.0], offset=0.7,
                          weight=ge.HeightWeight(rd.weight_height(), 3))
    spec = mc.DiffusionSpec(P, dtau, seed=0)
    lam, beta = spec.linear
    radial = spec.radial
    q = np.array([0.0, 1.12, 1.3, 2.0, 3.5, 5.0, 7.0, 8.8, 8.9])
    V = np.zeros((spec.dim, len(q)))
    V[0] = q
    r = spec.radius(V)
    inside = (r > rho + 1e-3) & (r < R - 1e-3)
    assert inside[0] == (case == "offset antigaussian")
    q, V, r = q[inside], V[:, inside], r[inside]
    d = np.minimum(r - rho, R - r)
    moved, r1, _, times, _ = mc._ou_bridge(spec, rho, R, radial)(
        np.random.default_rng(3), q[None] if radial else V, None, d)
    bulk = np.minimum(mc.KAPPA * d * d,
                      d / (2.0 * (abs(lam) * (q + d) + np.linalg.norm(beta))))
    want = np.maximum(dtau, bulk)
    absorbed = (r1 == rho) | (r1 == R)
    np.testing.assert_array_equal(times, np.where(absorbed, 0.5, 1.0) * want)
    assert np.any(want == dtau) and np.any(want > 10.0 * dtau)
    assert np.all(abs(lam) * want <= max(abs(lam) * dtau, 0.5))


@pytest.mark.parametrize("offset", [0.0, 0.6])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_radial_exact_step_lands_at_the_radius_of_a_cartesian_step(n, offset):
    # one step of the radial move against |V'| of the step in V, under the
    # drift +V, on an n-plane through the origin of R^n and on the offset
    # hyperplane x_{n+1} = 0.6 of R^{n+1}: two-sample KS at 2e4 draws each;
    # the annulus 0 < r < 50 absorbs no path
    from scipy import stats
    weight = ge.RadialWeight(rd.weight_antigaussian())
    P = (ge.identity_chart(n, weight) if offset == 0.0 else
         ge.hyperplane(n + 1, [0.0] * n + [1.0], offset=offset, weight=weight))
    spec = mc.DiffusionSpec(P, 0.02, seed=0)
    N = 20_000
    V = np.repeat(spec.lift(np.linspace(0.3, 0.9, n)[:, None]), N, axis=1)
    d = spec.radius(V)
    q1, r1, b1, dt, jumps = mc._ou_bridge(spec, 0.0, 50.0, True)(
        np.random.default_rng(n), mc._radii(V)[None], None, d)
    assert q1.shape == (1, N) and b1 is None and jumps == 0
    np.testing.assert_allclose(r1, np.sqrt(q1[0] ** 2 + offset ** 2),
                               rtol=1e-15)
    cartesian, r2, _, dt2, _ = mc._ou_bridge(spec, 0.0, 50.0, False)(
        np.random.default_rng(100 + n), V, None, d)
    # both take the same bulk step, larger than dtau
    assert np.all(dt > 0.02)
    np.testing.assert_array_equal(dt, dt2)
    assert stats.ks_2samp(q1[0], mc._radii(cartesian)).pvalue > 1e-3
    assert stats.ks_2samp(r1, r2).pvalue > 1e-3


def test_the_bridge_absorbs_with_the_crossing_probability_of_a_brownian_bridge():
    # the offset plane x3 = 0.6 meets the sphere r = 1 in the circle of
    # in-plane radius a = 0.8.  A step q = 0.9 -> q1 > a is absorbed with
    # probability exp(-(q - a)(q1 - a)/dt), one that ends inside always; an
    # absorbed path returns r = rho and half its step
    dt, N, a = 0.01, 200_000, 0.8
    plane = ge.hyperplane(3, [0.0, 0.0, 1.0], offset=0.6,
                          weight=ge.RadialWeight(rd.weight_gaussian()))
    spec = mc.DiffusionSpec(plane, dt, seed=0)
    # r - rho = 0.08 puts the paths in the boundary layer: steps of dtau
    d = np.full(N, math.sqrt(0.81 + 0.36) - 1.0)
    q1, r, _, times, _ = mc._ou_bridge(spec, 1.0, 3.0, True)(
        np.random.default_rng(9), np.full((1, N), 0.9), None, d)
    q1 = q1[0]
    absorbed = times == 0.5 * dt
    assert np.all(absorbed | (times == dt))
    assert np.array_equal(absorbed, r == 1.0)
    crossed = q1 < a
    assert absorbed[crossed].all() and 0 < crossed.sum() < N // 2
    p = np.exp(-(0.9 - a) * (q1[~crossed] - a) / dt)
    assert abs(absorbed[~crossed].sum() - p.sum()) \
        <= 4.0 * math.sqrt((p * (1.0 - p)).sum())
    np.testing.assert_array_equal(r[~absorbed],
                                  np.sqrt(q1[~absorbed] ** 2 + 0.36))


# Counts (n_inner, n_outer, n_unresolved, path_steps, exit_jumps) and values
# (p_hat, mean_exit_time) of ten recorded runs; the loop must reproduce
# them: counts exactly, values to rounding.  The walk-on-spheres cases were
# recorded with the move in the in-plane radius, one cosine a jump (they
# pin how each batch's stream is used), the heun cases with the
# heun-exit-jumps move, the skewed one while it still moved in chart
# coordinates, and with the Gaussian and antigaussian weights, which now
# run them as the power profiles -+t^2/2 (``power_gaussian``), to the bit.
# The ou-bridge cases pin its radial move (n = 2 and n = 3, through the
# origin and offset) and its move in V (a translator), with steps that
# grow in the bulk.
RECORDED_ESTIMATES = {
    "walk-on-spheres R^3": (1066, 934, 0, 57268, 57268, 0.533,
                            0.9161462427441242),
    "capped heun, Gaussian plane": (554, 375, 71, 123111, 11332,
                                    0.596340150699677, 0.10884094594792419),
    "heun, offset Gaussian plane": (1862, 138, 0, 231101, 57106, 0.931,
                                    0.4113611264281529),
    "heun, antigaussian plane": (549, 1451, 0, 185660, 21592, 0.2745,
                                 0.3497767382147251),
    "walk-on-spheres, 3-plane in R^4": (1002, 998, 0, 58221, 58221, 0.501,
                                        0.9536662616430579),
    "heun, skewed Gaussian hyperplane": (1613, 387, 0, 318703, 55451, 0.8065,
                                         0.5678298553761447),
    "ou-bridge, Gaussian plane": (1860, 140, 0, 56109, 0, 0.93,
                                  0.35973179165145036),
    "ou-bridge, offset antigaussian plane": (641, 1359, 0, 61844, 0, 0.3205,
                                             0.38415937667618255),
    "ou-bridge, Gaussian 3-plane in R^4": (1710, 290, 0, 68760, 0, 0.855,
                                           0.47830184738997666),
    "ou-bridge, tilted translator plane": (1230, 770, 0, 83855, 0, 0.615,
                                           0.5213332868699605),
}


def _recorded_run(case):
    gauss = ge.RadialWeight(power_gaussian())
    if case.startswith("ou-bridge"):
        return _recorded_ou_bridge_run(case)
    if case == "walk-on-spheres R^3":
        spec = mc.DiffusionSpec(radial_plane(3), 1e-3, seed=3, batch_size=700)
        return mc.hit_probability(spec, [1.2, 0.9, -0.3], 1.0, 4.0, 2000)
    if case == "capped heun, Gaussian plane":
        spec = mc.DiffusionSpec(ge.coordinate_plane(3, (0, 1), gauss),
                                mc.default_step(1.0, 2.0), seed=5,
                                max_steps=300)
        return mc.hit_probability(spec, [1.5, 0.0], 1.0, 2.0, 1000)
    if case == "heun, antigaussian plane":
        anti = ge.RadialWeight(power_antigaussian())
        spec = mc.DiffusionSpec(ge.coordinate_plane(3, (0, 1), anti),
                                mc.default_step(1.0, 3.0), seed=11,
                                batch_size=700)
        return mc.hit_probability(spec, [1.5, 0.4], 1.0, 3.0, 2000)
    if case == "heun, skewed Gaussian hyperplane":
        spec = mc.DiffusionSpec(skewed_hyperplane(gauss),
                                mc.default_step(1.0, 3.0), seed=17,
                                batch_size=700)
        return mc.hit_probability(spec, [1.1, -0.7, 0.9], 1.0, 3.0, 2000)
    if case == "walk-on-spheres, 3-plane in R^4":
        # a tilted plane: the start is lifted through the frame, and a
        # jump's cosine is uniform in a 3-plane
        spec = mc.DiffusionSpec(ge.hyperplane(4, [1.0, 2.0, -1.0, 1.0]), 1e-3,
                                seed=13, batch_size=700)
        return mc.hit_probability(spec, [1.1, -0.7, 0.9], 1.0, 4.0, 2000)
    plane = ge.hyperplane(3, [0.0, 0.0, 1.0], offset=0.6, weight=gauss)
    spec = mc.DiffusionSpec(plane, mc.default_step(1.0, 3.0), seed=7,
                            batch_size=800)
    return mc.hit_probability(spec, [1.3, 0.2], 1.0, 3.0, 2000)


def _recorded_ou_bridge_run(case):
    if case == "ou-bridge, Gaussian plane":
        P = weighted_plane()
        seed, start = 5, [1.5, 0.4]
    elif case == "ou-bridge, offset antigaussian plane":
        P = ge.hyperplane(3, [0.0, 0.0, 1.0], offset=0.6,
                          weight=ge.RadialWeight(rd.weight_antigaussian()))
        seed, start = 7, [1.3, 0.2]
    elif case == "ou-bridge, Gaussian 3-plane in R^4":
        P = ge.hyperplane(4, [1.0, 2.0, -1.0, 1.0],
                          weight=ge.RadialWeight(rd.weight_gaussian()))
        seed, start = 13, [1.1, -0.7, 0.9]
    else:
        # beta = E^T e_3 is not 0: the paths move in all coordinates of V
        P = ge.hyperplane(3, [0.3, -1.0, 2.0], offset=0.7,
                          weight=ge.HeightWeight(rd.weight_height(), 3))
        seed, start = 19, [1.2, -0.5]
    spec = mc.DiffusionSpec(P, mc.default_step(1.0, 3.0), seed=seed,
                            batch_size=700)
    return mc.hit_probability(spec, start, 1.0, 3.0, 2000)


@pytest.mark.parametrize("case", sorted(RECORDED_ESTIMATES))
def test_path_loop_reproduces_recorded_estimates(case):
    est = _recorded_run(case)
    *counts, p_hat, exit_time = RECORDED_ESTIMATES[case]
    assert [est.n_inner, est.n_outer, est.n_unresolved, est.path_steps,
            est.exit_jumps] == counts
    assert est.p_hat == pytest.approx(p_hat, rel=1e-12)
    assert est.mean_exit_time == pytest.approx(exit_time, rel=1e-12)


@pytest.mark.parametrize("rows", [1, 2, 7, 1000])
def test_path_loop_kernels_match_numpy_to_the_bit(rows):
    rng = np.random.default_rng(rows)
    for m in range(1, 11):
        X = rng.standard_normal((m, rows)) * rng.uniform(0.1, 10.0, rows)
        assert np.array_equal(mc._radii(X), np.linalg.norm(X, axis=0))
        for k in range(1, m + 1):
            # the strided transpose of a C-contiguous matrix, multiplied
            # from the left onto coordinate-major columns: the bits of the
            # row-major product A @ M
            M = rng.standard_normal((m, k)).T
            A = rng.standard_normal((rows, k))
            assert np.array_equal(M.T @ A.T.copy(), (A @ M).T)


@pytest.mark.parametrize("rows", [1, 2, 7, 1000])
def test_each_path_keeps_its_row_major_draws(rows):
    for n in range(1, 6):
        U = np.zeros((n, rows))
        Z = mc._normals(np.random.default_rng(n), U)
        assert Z.shape == U.shape and Z.flags.c_contiguous
        assert np.array_equal(
            Z, np.random.default_rng(n).standard_normal((rows, n)).T)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_drift_from_handed_in_radii_matches_the_weights_gradient(m):
    # the path loop reads f'(r)/r at the radii of its exit test;
    # spec.drift evaluates the weight's own gradient at the same points
    rng = np.random.default_rng(m)
    normal = rng.standard_normal(m)
    for profile in (rd.weight_power(-0.3, 3.0),
                    rd.weight_logpow(2.0, rd.warping_hyperbolic())):
        plane = ge.hyperplane(m, normal, offset=0.4,
                              weight=ge.RadialWeight(profile))
        spec = mc.DiffusionSpec(plane, 1e-3, seed=0)
        U = (rng.uniform(0.5, 2.0, (m - 1, 500))
             * rng.choice([-1.0, 1.0], (m - 1, 500)))
        r, b = spec.radius_and_drift(spec.lift(U))
        np.testing.assert_allclose(b, gradient_drift(spec, spec.lift(U)),
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(
            r, np.linalg.norm(plane.point(U.T), axis=1), rtol=1e-15)
    # a weight that is not radial is the weight's gradient itself
    plane = ge.hyperplane(m, normal, offset=0.4,
                          weight=ge.HeightWeight(rd.weight_gaussian(), m))
    spec = mc.DiffusionSpec(plane, 1e-3, seed=0)
    V = spec.lift(U)
    assert np.array_equal(spec.radius_and_drift(V)[1], gradient_drift(spec, V))


def frame_plane(name, weight=lambda m: None):
    """A plane whose frame is not its chart basis: ``skewed_hyperplane``
    in R^4, or an offset hyperplane of R^3; ``weight(m)`` is its weight."""
    if name == "skewed":
        return skewed_hyperplane(weight(4))
    return ge.hyperplane(3, [0.3, -1.0, 2.0], offset=0.7, weight=weight(3))


@pytest.mark.parametrize("plane", ["skewed", "offset"])
def test_the_frame_is_orthonormal_and_keeps_the_radii(plane):
    P = frame_plane(plane)
    spec = mc.DiffusionSpec(P, 1e-3, seed=0)
    E, c = spec.frame, spec.foot
    n = spec.dim
    np.testing.assert_allclose(E.T @ E, np.eye(n), rtol=0, atol=1e-15)
    np.testing.assert_allclose(E.T @ c, 0.0, rtol=0, atol=1e-15)
    assert spec.offset_sq == pytest.approx(c @ c, rel=1e-15)
    U = np.random.default_rng(4).uniform(-2.0, 2.0, (n, 400))
    np.testing.assert_allclose(spec.radius(spec.lift(U)),
                               np.linalg.norm(P.point(U.T), axis=1), rtol=1e-15)


@pytest.mark.parametrize("plane", ["skewed", "offset"])
@pytest.mark.parametrize("weight", [
    lambda m: ge.RadialWeight(power_gaussian()),
    lambda m: ge.RadialWeight(rd.weight_power(-0.3, 3.0)),
    lambda m: ge.HeightWeight(rd.weight_gaussian(), m),
])
def test_the_frame_drift_is_the_chart_drift_in_frame_coordinates(plane,
                                                                  weight):
    # the chart drift g^{-1} basis^T grad h(X(u)) of the generator
    # Delta_g + <b_u, grad_u>, carried to V = g^{1/2} u + E^T base
    P = frame_plane(plane, weight)
    spec = mc.DiffusionSpec(P, 1e-3, seed=0)
    base, basis = P.linear
    metric = basis.T @ basis
    U = np.random.default_rng(6).uniform(-2.0, 2.0, (spec.dim, 400))
    grad = P.ambient.weight.grad(P.point(U.T)).T
    chart_drift = np.linalg.solve(metric, basis.T @ grad)
    _, b = spec.radius_and_drift(spec.lift(U))
    # g^{1/2}, the symmetric square root of the metric
    vals, vecs = np.linalg.eigh(metric)
    np.testing.assert_allclose(b, (vecs * np.sqrt(vals)) @ vecs.T @ chart_drift,
                               rtol=1e-13, atol=1e-14)


HEIGHT_ZERO = {"name": "height", "mu": {"name": "zero"}}


@pytest.mark.parametrize("plane", ["skewed", "offset"])
@pytest.mark.parametrize("weight,lam", [
    ({"name": "gaussian"}, -1.0), ({"name": "antigaussian"}, 1.0),
    ({"name": "translator"}, 0.0), ({"name": "zero"}, 0.0),
    ({"name": "power", "a": -0.3, "k": 3.0}, None),
    ({"name": "height", "mu": {"name": "power", "a": 1.0, "k": 1.0}}, None),
    ({"name": "height", "mu": {"name": "custom", "expr": "t", "t_min": 0.5}}, None),
    ({"name": "height"}, 0.0), (HEIGHT_ZERO, 0.0),
    ({"name": "height", "mu": {"name": "custom", "expr": "-2*t/4+3"}}, 0.0),
])
def test_the_catalog_declares_the_linear_drifts(plane, weight, lam):
    # gaussian and antigaussian drift by lam V, translators by a constant
    # beta = E^T e_m, and so does a height weight whose mu is an expression
    # c + a t, such as its default t (a beta of a E^T e_m); under mu zero
    # it has no drift.  A power stays general, even one of degree 1, and
    # so does a mu that is not defined at every height
    P = frame_plane(plane, lambda m: catalogs.resolve_ambient_weight(weight, m))
    spec = mc.DiffusionSpec(P, 1e-3, seed=0)
    V = spec.lift(np.random.default_rng(2).uniform(-2.0, 2.0, (spec.dim, 300)))
    if lam is None:
        assert spec.linear is None and not spec.driftless
        return
    got_lam, beta = spec.linear
    assert got_lam == lam and beta.shape == (spec.dim,)
    assert spec.driftless == (weight in ({"name": "zero"}, HEIGHT_ZERO))
    assert spec.radius_and_drift(V)[1] is None
    np.testing.assert_allclose(lam * V + beta[:, None], gradient_drift(spec, V),
                               rtol=1e-13, atol=1e-14)


def test_a_translator_on_a_plane_normal_to_its_axis_walks_on_spheres():
    # beta = E^T e_3 vanishes on the plane x3 = 0.6: no drift there, so the
    # estimate is the driftless one of the same plane, to the bit
    def estimate(weight):
        plane = ge.hyperplane(3, [0.0, 0.0, 1.0], offset=0.6, weight=weight)
        spec = mc.DiffusionSpec(plane, None, seed=4)
        return mc.hit_probability(spec, [1.3, 0.2], 1.0, 3.0, 500)

    translator = estimate(ge.HeightWeight(rd.weight_height(), 3))
    assert translator.estimator == "walk-on-spheres"
    assert translator.to_dict() == estimate(None).to_dict()


def test_a_height_weight_runs_the_estimator_of_its_drift():
    # the default mu t has the translator's drift and mu zero none: their
    # estimates are those of the translator and of the unweighted plane,
    # to the bit; a quadratic mu keeps heun-exit-jumps
    def estimate(weight):
        weight = weight and catalogs.resolve_ambient_weight(weight, 3)
        plane = ge.hyperplane(3, [0.0, 0.6, 0.8], offset=0.3, weight=weight)
        spec = mc.DiffusionSpec(plane, None, seed=4)
        return mc.hit_probability(spec, [1.3, 0.2], 1.0, 3.0, 300).to_dict()

    height = estimate({"name": "height"})
    assert height["estimator"] == "ou-bridge"
    assert height == estimate({"name": "translator"})
    flat = estimate({"name": "height", "mu": {"name": "zero"}})
    assert flat["estimator"] == "walk-on-spheres" and flat == estimate(None)
    quadratic = {"name": "power", "a": 0.5, "k": 2.0}
    assert estimate({"name": "height", "mu": quadratic})["estimator"] \
        == "heun-exit-jumps"


@pytest.mark.parametrize("weight", [None, "gaussian"])
def test_one_path_batches_are_bitwise_deterministic(weight):
    # (n, 1) columns are both C- and F-contiguous, and numpy multiplies
    # them by gemv rather than gemm
    weight = weight and ge.RadialWeight(rd.weight_gaussian())
    plane = ge.hyperplane(4, [1.0, 2.0, -1.0, 1.0], weight=weight)

    def run(N):
        spec = mc.DiffusionSpec(plane, mc.default_step(1.0, 4.0), seed=8,
                                batch_size=1)
        return mc.hit_probability(spec, [1.1, -0.7, 0.9], 1.0, 4.0, N)

    for N in (1, 30):
        a, b = run(N), run(N)
        assert a.path_steps > 0
        assert a.to_dict() == b.to_dict()


def test_no_resolved_path_is_an_error_naming_max_steps():
    # from r = 20 two steps of at most 0.25 move a path about 8 toward
    # rho = 1 and never as far as R = 40
    spec = mc.DiffusionSpec(weighted_plane(), mc.default_step(1.0, 4.0),
                            seed=2, max_steps=2)
    with pytest.raises(DomainError, match="max_steps = 2 steps"):
        mc.hit_probability(spec, [20.0, 0.0], 1.0, 40.0, 50)


def test_start_of_the_wrong_length_is_a_domain_error():
    spec = mc.DiffusionSpec(ge.coordinate_plane(3, (0, 1), None), 1e-3, seed=0)
    message = "start has 3 coordinates but the chart has dimension 2"
    with pytest.raises(DomainError, match=message):
        mc.hit_probability(spec, [2.0, 0.0, 0.0], 1.0, 4.0, 10)
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 2, 1.0,
                               rd.RadialProfile.constant(0.0))
    with pytest.raises(DomainError, match=message):
        mc.comparison_check(spec, setup, [2.0, 0.0, 0.0], 1.0, 4.0, 10)
    # a NaN radius is never inside the shell: the walk would run max_steps
    with pytest.raises(DomainError, match="start must be finite"):
        mc.hit_probability(spec, [math.nan, 0.0], 1.0, 4.0, 10)


def test_spec_fields_must_be_positive_integers():
    P = radial_plane()
    for field in ("batch_size", "max_steps"):
        for bad in (0, -5, 2.5, True, "10", math.inf):
            with pytest.raises(DomainError, match=f"{field} must be a positive integer"):
                mc.DiffusionSpec(P, 1e-3, seed=0, **{field: bad})
    spec = mc.DiffusionSpec(P, 1e-3, seed=0, batch_size=np.int64(8), max_steps=50.0)
    assert (spec.batch_size, spec.max_steps) == (8, 50)
    assert type(spec.batch_size) is int and type(spec.max_steps) is int


def test_spec_dtau_and_seed_are_checked():
    P = radial_plane()
    for bad in (0, 0.0, -1e-3, math.inf, math.nan, True, "0.01"):
        with pytest.raises(DomainError, match="dtau must be a positive finite number"):
            mc.DiffusionSpec(P, bad, seed=0)
    assert mc.DiffusionSpec(P, None, seed=0).dtau is None    # the default step
    for bad in (-1, 2.5, True, "3", math.inf):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            mc.DiffusionSpec(P, 1e-3, seed=bad)
    spec = mc.DiffusionSpec(P, np.float32(0.5), seed=np.int64(3))
    assert (spec.dtau, spec.seed) == (0.5, 3)
    assert type(spec.dtau) is float and type(spec.seed) is int


def test_wilson_interval_width_scales_with_paths():
    start = [math.sqrt(math.e), 0.0]
    widths = []
    for N in (1000, 4000):
        spec = mc.DiffusionSpec(radial_plane(), 1e-3, seed=11)
        est = mc.hit_probability(spec, start, 1.0, math.e, N)
        widths.append(est.ci_high - est.ci_low)
    assert widths[1] == pytest.approx(widths[0] / 2.0, rel=0.2)


def test_wilson_interval_near_endpoints():
    lo, hi = mc.wilson_interval(0, 100)
    assert lo == 0.0 or lo < 1e-12
    assert 0.0 < hi < 0.06
    lo, hi = mc.wilson_interval(100, 100)
    assert 0.94 < lo < 1.0


def test_step_size_warning_on_coarse_steps():
    spec = mc.DiffusionSpec(radial_plane(), dtau=0.05, seed=1)
    est, coarse = euler_maruyama(spec, np.array([1.6, 0.0]), 1.0, math.e, 500)
    assert coarse > 0.01
    assert any("coarse" in w for w in est.warnings)


def test_hit_probability_matches_log_potential():
    # oracle: phi(s) = 1 - log s on the annulus (1, e); start at sqrt(e)
    spec = mc.DiffusionSpec(radial_plane(), 2.5e-4, seed=6, batch_size=8000)
    est = mc.hit_probability(spec, [math.sqrt(math.e), 0.0], 1.0, math.e, 8000)
    assert abs(est.p_hat - 0.5) <= 3.5 * est.standard_error + 5e-3


def test_ci_calibration_over_seeds():
    # 50 independent seeds: the true value 0.5 must fall inside the 95%
    # Wilson interval in at least 45 runs
    inside = 0
    for seed in range(50):
        spec = mc.DiffusionSpec(radial_plane(), 2.5e-4, seed=1000 + seed,
                                batch_size=1000)
        est = mc.hit_probability(spec, [math.sqrt(math.e), 0.0], 1.0, math.e, 1000)
        if est.ci_low <= 0.5 <= est.ci_high:
            inside += 1
    assert inside >= 45, f"coverage {inside}/50"


def test_comparison_check_gaussian_plane_small():
    gauss = ge.RadialWeight(rd.weight_gaussian())
    plane = ge.coordinate_plane(3, (0, 1), gauss)
    alpha = rd.RadialProfile(lambda t: -t, lambda t: -1.0 + 0 * t, name="-t")
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 2, math.sqrt(2.0), alpha)
    spec = mc.DiffusionSpec(plane, mc.default_step(1.0, 4.0), seed=23)
    rep = mc.comparison_check(spec, setup, [2.0, 0.0], 1.0, 4.0, 4000,
                              direction="parabolic")
    assert rep.direction == "parabolic"
    assert rep.passed
    assert rep.estimate.estimator == "ou-bridge"


def test_comparison_check_refuses_unpredicted_inequality():
    plane = ge.coordinate_plane(3, (0, 1), None)
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 2, 1.0,
                               rd.RadialProfile.constant(0.0))
    spec = mc.DiffusionSpec(plane, 1e-3, seed=1)
    with pytest.raises(ComparisonRefusal, match="not predicted"):
        mc.comparison_check(spec, setup, [2.0, 0.0], 1.0, 4.0, 100,
                            direction="hyperbolic")


def test_recurrence_probe_parabolic_trend():
    spec = mc.DiffusionSpec(radial_plane(), 2e-3, seed=5, batch_size=4000)
    probe = mc.recurrence_probe(spec, [math.sqrt(math.e), 0.0], 1.0,
                                [4.0, 8.0, 16.0, 32.0], 3000)
    p = [e.p_hat for e in probe.estimates]
    assert probe.monotone_increasing
    # oracle: 1 - log(sqrt e)/log R, increasing toward 1
    for est, R in zip(probe.estimates, probe.radii):
        exact = 1.0 - 0.5 / math.log(R)
        assert abs(est.p_hat - exact) <= 4.0 * est.standard_error + 0.03
    assert probe.limit_estimate > p[-1]


def test_a_drifted_probe_without_dtau_steps_each_radius_at_its_default():
    spec = mc.DiffusionSpec(weighted_plane(), None, seed=3)
    probe = mc.recurrence_probe(spec, [1.5, 0.0], 1.0, [2.0, 4.0, 16.0], 200)
    assert [e.estimator for e in probe.estimates] == ["ou-bridge"] * 3
    assert [e.dtau for e in probe.estimates] == [mc.default_step(1.0, R)
                                                 for R in (2.0, 4.0, 16.0)]
    assert probe.estimates[0].dtau == 1e-3
    assert all(e.warnings == [] for e in probe.estimates)
    # one estimate at R = 2 is the probe's first, to the bit
    first = mc.hit_probability(mc.DiffusionSpec(spec.P, 1e-3, seed=3 + 7919),
                               [1.5, 0.0], 1.0, 2.0, 200)
    assert first.to_dict() == probe.estimates[0].to_dict()


def test_a_probe_with_dtau_uses_it_at_every_radius_and_warns_above_the_default():
    spec = mc.DiffusionSpec(weighted_plane(power_gaussian), 0.01, seed=3)
    probe = mc.recurrence_probe(spec, [1.5, 0.0], 1.0, [2.0, 4.0, 16.0], 200)
    assert [e.dtau for e in probe.estimates] == [0.01] * 3
    # the defaults are 1e-3, 9e-3 and 0.225
    assert [len(e.warnings) for e in probe.estimates] == [1, 1, 0]
    assert probe.estimates[0].warnings[0].startswith(
        "dtau = 0.01 exceeds the default step 1e-3 (R - rho)^2 = 0.001;")


def test_recurrence_probe_hyperbolic_plateau():
    spec = mc.DiffusionSpec(radial_plane(3), 2e-3, seed=9, batch_size=4000)
    probe = mc.recurrence_probe(spec, [2.0, 0.0, 0.0], 1.0, [8.0, 16.0, 32.0],
                                3000)
    # oracle: (1/2 - 1/R)/(1 - 1/R) -> 1/2
    for est, R in zip(probe.estimates, probe.radii):
        exact = (0.5 - 1.0 / R) / (1.0 - 1.0 / R)
        assert abs(est.p_hat - exact) <= 4.0 * est.standard_error + 0.03
    assert probe.limit_estimate < 0.62


def test_curved_charts_refuse_path_simulation():
    sphere = ge.euclidean_sphere(2.0, 3)
    with pytest.raises(DomainError, match="affine chart"):
        mc.DiffusionSpec(sphere, 1e-3, seed=0)
