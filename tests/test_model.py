import dataclasses
import math

import numpy as np
import pytest

from wparab import radial as rd
from wparab.errors import DomainError, NonMonotoneTailError, NotAttainedError
from wparab.model import WeightedModel, sphere_area_constant
from wparab.verdicts import Outcome


def euclid(m, weight=None):
    return WeightedModel(m, rd.warping_euclidean(), weight or rd.weight_zero())


@pytest.fixture
def gauss3():
    return euclid(3, rd.weight_gaussian())


def test_sphere_area_constant_values():
    assert sphere_area_constant(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_area_constant(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_area_constant(4) == pytest.approx(2 * math.pi ** 2, rel=1e-15)


def test_a_nan_radius_is_outside_every_domain():
    for t in (math.nan, np.array([2.0, math.nan])):
        with pytest.raises(DomainError, match="undefined at t=nan"):
            euclid(3).sphere_area(t)


def test_sphere_area_examples():
    assert euclid(3).sphere_area(2.0) == pytest.approx(16 * math.pi, rel=1e-14)
    g2 = euclid(2, rd.weight_gaussian())
    assert g2.sphere_area(1.0) == pytest.approx(2 * math.pi * math.exp(-0.5), rel=1e-14)
    assert euclid(2).sphere_area(1e-9) < 1e-8


def test_ball_volume_examples():
    assert euclid(2).ball_volume(1.0) == pytest.approx(math.pi, abs=1e-8)
    assert euclid(3).ball_volume(1.0) == pytest.approx(4 * math.pi / 3, abs=1e-8)
    # Gaussian plane: closed form 2 pi (1 - e^{-T^2/2})
    g2 = euclid(2, rd.weight_gaussian())
    assert g2.ball_volume(40.0) == pytest.approx(2 * math.pi, rel=1e-10)


def test_ball_volume_rejects_pole_singular_weight():
    m = euclid(3, rd.weight_logpow(-2.0, rd.warping_euclidean()))
    with pytest.raises(DomainError, match="pole-singular"):
        m.ball_volume(1.0)


def test_mean_curvature():
    assert euclid(3).mean_curvature(4.0) == pytest.approx(0.25, rel=1e-14)
    hyp = WeightedModel(3, rd.warping_hyperbolic(-1.0), rd.weight_zero())
    assert hyp.mean_curvature(2.0) == pytest.approx(math.cosh(2) / math.sinh(2), rel=1e-12)
    ts = np.array([[0.5, 2.0], [3.0, 7.5]])
    assert np.array_equal(hyp.mean_curvature(ts),
                          np.cosh(ts) / np.sinh(ts))
    with pytest.raises(DomainError, match="radius must be positive"):
        hyp.mean_curvature(np.array([1.0, 0.0, 2.0]))


def test_weighted_mean_curvature_examples(gauss3):
    assert gauss3.weighted_mean_curvature(2, 1.0) == pytest.approx(1.0, rel=1e-13)
    g4 = euclid(4, rd.weight_gaussian())
    assert g4.weighted_mean_curvature(3, math.sqrt(3.0)) == pytest.approx(0.0, abs=1e-13)
    m = euclid(5)
    assert m.weighted_mean_curvature(1, 2.5) == pytest.approx(m.mean_curvature(2.5))
    with pytest.raises(DomainError):
        m.weighted_mean_curvature(5, 1.0)


def test_weighted_mean_curvature_matches_log_area_slope(gauss3):
    # n H + f' is the derivative of n log w + f
    for n in (1, 2):
        for t in (0.5, 1.3, 3.7):
            h = 1e-6 * (1 + t)
            fd = ((n * math.log(gauss3.w.value(t + h)) + gauss3.f.value(t + h))
                  - (n * math.log(gauss3.w.value(t - h)) + gauss3.f.value(t - h))) / (2 * h)
            assert gauss3.weighted_mean_curvature(n, t) == pytest.approx(fd, rel=1e-6)


# --- capacities -----------------------------------------------------------


def test_capacity_plane_annulus_closed_form():
    rep = euclid(2).capacity_potential(1.0, math.e)
    assert rep.capacity == pytest.approx(2 * math.pi, abs=1e-8)
    assert rep.potential(1.0) == pytest.approx(1.0, abs=1e-12)
    assert rep.potential(math.e) == pytest.approx(0.0, abs=1e-12)
    # oracle: phi(s) = 1 - log s
    assert rep.potential(math.sqrt(math.e)) == pytest.approx(0.5, abs=1e-9)
    assert rep.ode_residual <= 1e-6


def test_capacity_space_annulus_closed_form():
    rep = euclid(3).capacity_potential(1.0, 2.0)
    assert rep.capacity == pytest.approx(8 * math.pi, abs=1e-8)
    # oracle: phi(s) = (1/s - 1/2) / (1 - 1/2), between and at the 512 grid
    # nodes, and within the 1e-12 slack below rho and beyond R
    nodes = np.linspace(1.0, 2.0, 512)
    s = np.array([1.0 - 5e-13, 1.0, nodes[1], 1.5, nodes[300], 2.0, 2.0 + 5e-13])
    phi = rep.potential(s)
    assert np.allclose(phi, (1 / np.clip(s, 1.0, 2.0) - 0.5) / 0.5, rtol=0, atol=1e-9)
    scalars = [rep.potential(float(x)) for x in s]
    assert all(type(v) is float for v in scalars) and phi.tolist() == scalars
    assert phi[0] == 1.0 and phi[-1] == 0.0
    assert rep.potential(np.array([])).shape == (0,)


def _closed_form_potential(m, rho, R, s):
    if m == 2:
        return 1.0 - np.log(s / rho) / math.log(R / rho)
    p = 2.0 - m
    return (s ** p - R ** p) / (rho ** p - R ** p)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("ratio", [2.0, 40.0, 400.0])
def test_potential_matches_closed_forms(m, ratio):
    rho, R = 0.5, 0.5 * ratio
    rep = euclid(m).capacity_potential(rho, R)
    # phi is steepest next to rho, so half of the radii crowd there
    s = np.concatenate([np.linspace(rho, R, 2001),
                        rho * (1.0 + np.geomspace(1e-9, 1.0, 2000))])
    phi = rep.potential(s)
    assert np.max(np.abs(phi - _closed_form_potential(m, rho, R, s))) <= 1e-10
    assert rep.potential(rho) == 1.0 and rep.potential(R) == 0.0
    assert [rep.potential(float(x)) for x in s[::37]] == phi[::37].tolist()


def test_potential_is_monotone(gauss3):
    rep = gauss3.capacity_potential(0.5, 4.0)
    xs = np.linspace(0.5, 4.0, 200)
    vals = [rep.potential(x) for x in xs]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert rep.ode_residual <= 1e-6


def test_capacity_monotone_in_outer_radius():
    for model in (euclid(2), euclid(3), euclid(3, rd.weight_gaussian())):
        caps = [model.capacity_potential(1.0, R).capacity for R in (2.0, 4.0, 8.0)]
        assert caps[0] >= caps[1] >= caps[2]


def test_capacity_converges_to_infinite_annulus():
    model = euclid(3)
    cap_inf, verdict = model.capacity_to_infinity(1.0)
    assert verdict.is_convergent
    assert cap_inf == pytest.approx(4 * math.pi, rel=1e-6)
    errors = []
    for R in (2.0 ** 6, 2.0 ** 10, 2.0 ** 14, 2.0 ** 20):
        value, _ = rd.integrate(model.inv_sphere_area, 1.0, R)
        errors.append(abs(1.0 / value - cap_inf))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 2e-5 * cap_inf


def test_capacity_to_infinity_examples():
    cap, verdict = euclid(2).capacity_to_infinity(1.0)
    assert cap == 0.0 and verdict.is_divergent
    cap, verdict = euclid(2, rd.weight_gaussian()).capacity_to_infinity(1.0)
    assert cap == 0.0 and verdict.is_divergent
    cap, verdict = euclid(2, rd.weight_antigaussian()).capacity_to_infinity(1.0)
    assert verdict.is_convergent and cap > 0


def test_ahlfors_verdicts():
    assert euclid(2).ahlfors_classify().outcome is Outcome.PARABOLIC
    assert euclid(3).ahlfors_classify().outcome is Outcome.HYPERBOLIC
    assert euclid(2, rd.weight_antigaussian()).ahlfors_classify().outcome \
        is Outcome.HYPERBOLIC
    assert euclid(3, rd.weight_gaussian()).ahlfors_classify().outcome \
        is Outcome.PARABOLIC


# --- critical radii --------------------------------------------------------


def test_critical_radius_gaussian_minimal_spheres():
    for m in (3, 4, 10):
        model = euclid(m, rd.weight_gaussian())
        root = model.critical_sphere_radius(m - 1, 0.0)
        assert root == pytest.approx(math.sqrt(m - 1), abs=1e-12)


def test_critical_radius_modes_match_quadratics():
    g2 = euclid(2, rd.weight_gaussian())
    # H_1(t) = 1/t - t; crossing +1 (from above) and -1 (from below)
    assert g2.critical_sphere_radius(1, 1.0, mode="last_above") == pytest.approx(
        (-1 + math.sqrt(5)) / 2, abs=1e-12)
    assert g2.critical_sphere_radius(1, 1.0, mode="first_below") == pytest.approx(
        (1 + math.sqrt(5)) / 2, abs=1e-12)


def test_critical_radius_not_attained_for_unweighted():
    with pytest.raises(NotAttainedError):
        euclid(3).critical_sphere_radius(2, 0.0)


def test_critical_radius_non_monotone_tail():
    wiggly = rd.RadialProfile(lambda t: -0.5 * t * t - 12.0 * np.cos(t),
                              lambda t: -t + 12.0 * np.sin(t),
                              lambda t: -1.0 + 12.0 * np.cos(t), name="wiggly")
    model = WeightedModel(2, rd.warping_euclidean(), wiggly)
    with pytest.raises(NonMonotoneTailError) as err:
        model.critical_sphere_radius(1, 0.0, mode="first_below")
    assert err.value.witness > 0


def test_critical_sphere_radii_are_pinned_to_the_bit():
    roots = [euclid(m, rd.weight_gaussian()).critical_sphere_radius(m - 1, 0.0)
             for m in (3, 4, 10)]
    assert roots == [1.414213562373095, 1.7320508075688772, 3.0]
    g2 = euclid(2, rd.weight_gaussian())
    assert g2.critical_sphere_radius(1, 1.0, mode="last_above") == 0.6180339887499079
    assert g2.critical_sphere_radius(1, 1.0, mode="first_below") == 1.618033988749895


def test_model_rejects_nonzero_pole_slope():
    bad = rd.RadialProfile(lambda t: 0.5 * t, lambda t: 0.5 + 0 * t, name="tilt")
    with pytest.raises(ValueError, match="slope at the pole"):
        WeightedModel(3, rd.warping_euclidean(), bad)


def test_capacity_to_infinity_propagates_inconclusive():
    # area integrand ~ 1/(2 pi t (1 + log t)): divergent but too slow for
    # the doubling test, so the capacity must be reported as undecided
    slow = rd.RadialProfile(lambda t: np.log1p(np.log(t)),
                            lambda t: 1.0 / ((1.0 + np.log(t)) * t),
                            t_min=0.5, name="slow")
    model = WeightedModel(2, rd.warping_euclidean(), slow)
    cap, verdict = model.capacity_to_infinity(1.0)
    assert cap is None
    assert verdict.status == "inconclusive"
    assert model.ahlfors_classify(1.0).outcome is Outcome.INCONCLUSIVE


# --- ODE residual and the batched potential ---------------------------------


def test_ode_residual_of_accurate_potentials_is_below_bound():
    rep = euclid(3, rd.weight_power(-0.5, 3)).capacity_potential(1.2, 3.8)
    assert rep.ode_residual <= 1e-6
    rep = euclid(3, rd.weight_antigaussian()).capacity_potential(1.0, 45.0)
    assert rep.ode_residual <= 1e-6


def test_ode_residual_catches_a_wrong_derivative():
    # d1 is not the derivative of fn: the potential no longer solves the ODE
    wrong = rd.RadialProfile(lambda t: -0.5 * t * t, lambda t: -1.01 * t,
                             name="wrong-slope")
    rep = euclid(3, wrong).capacity_potential(0.5, 4.0)
    assert rep.ode_residual > 0.1


def _catalog_models():
    warpings = [rd.warping_euclidean(), rd.warping_hyperbolic(-1.0),
                rd.warping_paraboloid()]
    for w in warpings:
        for f in (rd.weight_zero(), rd.weight_gaussian(), rd.weight_antigaussian(),
                  rd.weight_power(-0.5, 3.0), rd.weight_logpow(-2.0, w)):
            yield pytest.param(w, f, id=f"{w.name}-{f.name}")
    yield pytest.param(rd.warping_euclidean(),
                       rd.RadialProfile.from_expression("-0.3*t^2+0.5*log(1+t^2)"),
                       id="expression")


def _node_by_node(profile):
    """The same profile, evaluated one radius at a time."""
    def one(fn):
        return np.vectorize(fn, otypes=[float])

    return dataclasses.replace(profile, fn=one(profile.fn), d1=one(profile.d1),
                               d2=one(profile.d2))


@pytest.mark.parametrize("w, f", _catalog_models())
def test_batched_potential_matches_node_by_node_evaluation(w, f):
    batched = WeightedModel(3, w, f)
    scalar = WeightedModel(3, _node_by_node(w), _node_by_node(f))
    a = batched.capacity_potential(1.2, 3.8)
    b = scalar.capacity_potential(1.2, 3.8)
    assert a.capacity == pytest.approx(b.capacity, rel=1e-12)
    for s in np.linspace(1.2, 3.8, 11):
        assert a.potential(s) == pytest.approx(b.potential(s), rel=1e-12, abs=1e-15)
    # |Kronrod - Gauss| of well-resolved panels is rounding noise, so the
    # two error estimates agree only in size
    assert a.quadrature_error <= 1e-12 and b.quadrature_error <= 1e-12
    assert a.ode_residual <= 1e-6 and b.ode_residual <= 1e-6
