import math

import numpy as np
import pytest

from wparab import criteria as cr
from wparab import geometry as ge
from wparab import radial as rd
from wparab.errors import DomainError
from wparab.verdicts import HOLDS, Outcome, WINDOW_ONLY


def alpha_expr(source):
    return rd.RadialProfile.from_expression(source)


NEG_T = rd.RadialProfile(lambda t: -t, lambda t: -1.0 + 0 * t,
                         lambda t: 0.0 * t, name="-t", numpy_safe=True)


# --- comparison setup ---------------------------------------------------


def test_cumulative_weight_anchors_at_t0():
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 2, 1.5, NEG_T)
    assert setup.f.value(1.5) == 0.0
    # f(t) = (t0^2 - t^2)/2 for alpha = -t
    for t in (0.8, 1.5, 2.0, 7.0, 40.0):
        assert setup.f.value(t) == pytest.approx((1.5 ** 2 - t * t) / 2, rel=1e-9)
        assert setup.f.deriv(t) == pytest.approx(-t, rel=1e-12)


def test_cumulative_weight_is_query_order_independent():
    a = cr.ComparisonSetup(rd.warping_euclidean(), 2, 1.0, NEG_T)
    b = cr.ComparisonSetup(rd.warping_euclidean(), 2, 1.0, NEG_T)
    xs = [512.0, 2.0, 37.0, 5.5]
    va = [a.f.value(x) for x in xs]
    vb = [b.f.value(x) for x in reversed(xs)][::-1]
    assert va == vb


def test_cumulative_weight_evaluates_arrays_like_scalars():
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 2, 1.5, alpha_expr("-t+1/(1+t^2)"))
    assert setup.f.numpy_safe and setup.model.numpy_safe
    ts = np.array([[0.8, 1.5, 2.0], [7.0, 40.0, 1.5 * 2.0 ** 39]])
    batch = setup.f.value(ts)
    assert batch.shape == ts.shape
    assert batch.ravel().tolist() == [setup.f.value(float(t)) for t in ts.ravel()]
    # f(t) = (t0^2 - t^2)/2 + atan(t) - atan(t0)
    exact = (1.5 ** 2 - ts[0] ** 2) / 2 + np.arctan(ts[0]) - math.atan(1.5)
    assert np.allclose(batch[0], exact, rtol=1e-9, atol=1e-12)


def test_setup_rejects_small_dimension():
    with pytest.raises(DomainError):
        cr.ComparisonSetup(rd.warping_euclidean(), 1, 1.0, NEG_T)


# --- comparison criteria --------------------------------------------------------


def test_parabolic_comparison_gaussian_shrinker():
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 2, math.sqrt(2.0), NEG_T)
    v = cr.classify_parabolic(setup)
    assert v.outcome is Outcome.PARABOLIC
    assert v.assert_sound()
    assert v.integral_evidence.is_divergent


def test_parabolic_comparison_fails_balance_with_witness():
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 3, 1.0,
                               rd.RadialProfile.constant(0.0))
    v = cr.classify_parabolic(setup)
    assert v.outcome is Outcome.INCONCLUSIVE
    balance = next(c for c in v.checks if c.name == "sphere_balance")
    assert balance.status == "fails" and balance.witness["t"] >= 1.0


def test_hyperbolic_comparison_minimal_three_dimensional():
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 3, 1.0,
                               rd.RadialProfile.constant(0.0))
    v = cr.classify_hyperbolic(setup)
    assert v.outcome is Outcome.HYPERBOLIC
    # oracle: integral of t^{-2}/c_3 from 1 converges
    assert v.integral_evidence.is_convergent


def test_hyperbolic_comparison_silent_for_plane_dimension_two():
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 2, 1.0,
                               rd.RadialProfile.constant(0.0))
    v = cr.classify_hyperbolic(setup)
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.integral_evidence.is_divergent  # R^2 comparison is parabolic


def test_window_only_downgrade_for_noncompact_immersion():
    gauss = ge.RadialWeight(rd.weight_gaussian())
    plane = ge.coordinate_plane(3, (0, 1), gauss)
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 2, math.sqrt(2.0), NEG_T)
    window = ((0.5, 3.0), (0.5, 3.0))
    v = cr.classify_parabolic(setup, plane, window=window)
    assert v.outcome is Outcome.INCONCLUSIVE
    drift = next(c for c in v.checks if c.name == "radial_drift_bound")
    assert drift.status == WINDOW_ONLY
    v2 = cr.classify_parabolic(setup, plane, window=window,
                               assume_drift_bound=True)
    assert v2.outcome is Outcome.PARABOLIC


def test_verdicts_are_deterministic():
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 2, math.sqrt(2.0), NEG_T)
    assert cr.classify_parabolic(setup).to_dict() == cr.classify_parabolic(setup).to_dict()


def test_capacity_bound_of_parabolic_setup_vanishes():
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 2, math.sqrt(2.0), NEG_T)
    v = cr.classify_parabolic(setup)
    bounds = [v.capacity_bound(rho) for rho in (2.0, 3.0, 5.0)]
    assert bounds == [0.0, 0.0, 0.0]
    assert v.capacity_bound(2.0, 8.0) > 0.0


def test_sinh_ambient_with_fast_decaying_weight_is_parabolic():
    f = rd.RadialProfile(lambda t: -t * t, lambda t: -2.0 * t,
                         lambda t: -2.0 + 0 * t, name="-t^2", numpy_safe=True)
    v = cr.classify_radial_weight(rd.warping_hyperbolic(-1.0), 2, f, c=0.0,
                                  direction="parabolic")
    assert v.outcome is Outcome.PARABOLIC


# --- shortcut criteria ----------------------------------------------------


@pytest.mark.parametrize("c", [0.0, 1.0])
def test_shrinker_family_parabolic(c):
    v = cr.classify_radial_weight(rd.warping_euclidean(), 2,
                                  rd.weight_gaussian(), c=c,
                                  direction="parabolic")
    assert v.outcome is Outcome.PARABOLIC and v.criterion == "radial_weight"


def test_expander_family_hyperbolic():
    v = cr.classify_radial_weight(rd.warping_euclidean(), 2,
                                  rd.weight_antigaussian(), c=0.0,
                                  direction="hyperbolic", use_exp_integral=True)
    assert v.outcome is Outcome.HYPERBOLIC
    names = {c.name for c in v.checks}
    assert "exp_integral" in names


def test_warping_power_dichotomy():
    w = rd.warping_euclidean()
    assert cr.classify_warping_power(w, 3, -3).outcome is Outcome.PARABOLIC
    assert cr.classify_warping_power(w, 2, -2).outcome is Outcome.PARABOLIC
    assert cr.classify_warping_power(w, 2, -4).outcome is Outcome.PARABOLIC
    # oracle: integral of t^{1-n-k} with n=2, k=1 converges
    assert cr.classify_warping_power(w, 2, 1).outcome is Outcome.HYPERBOLIC


def test_translator_halfspace_example():
    t0 = 0.5  # > 2 - n for n = 3
    alpha = rd.RadialProfile(lambda t: t0 / t, lambda t: -t0 / t ** 2,
                             name="t0/t")
    v = cr.classify_translator_halfspace(3, alpha, 1.0)
    assert v.outcome is Outcome.HYPERBOLIC
    floor = next(c for c in v.checks if c.name == "alpha_floor")
    assert floor.status == HOLDS


def test_bounded_drift_parabolic():
    beta = rd.RadialProfile(lambda t: -t, lambda t: -1.0 + 0 * t, name="-t")
    v = cr.classify_bounded_drift(rd.warping_euclidean(), 2, beta, c=1.0,
                                  direction="parabolic")
    assert v.outcome is Outcome.PARABOLIC
    names = [c.name for c in v.checks]
    assert "warping_not_integrable" in names
    assert "sphere_curvature_bounded" in names


def test_unknown_direction_rejected():
    with pytest.raises(DomainError):
        cr.classify_bounded_drift(rd.warping_euclidean(), 2, NEG_T,
                                  direction="sideways")


# --- consistency with the direct area-integral test --------------------------


@pytest.mark.parametrize("warping,weight,n,t0", [
    (rd.warping_euclidean(), rd.weight_gaussian(), 2, 2.0),
    (rd.warping_euclidean(), rd.weight_antigaussian(), 2, 1.0),
    (rd.warping_hyperbolic(-1.0), rd.weight_zero(), 2, 1.0),
    (rd.warping_euclidean(), rd.weight_zero(), 3, 1.0),
])
def test_pipeline_agrees_with_area_integral_on_models(warping, weight, n, t0):
    # treat the n-model as a submanifold of itself: alpha = f'
    from wparab.model import WeightedModel
    alpha = rd.RadialProfile(weight.d1, weight.second, name=f"{weight.name}'")
    setup = cr.ComparisonSetup(warping, n, t0, alpha)
    direct = WeightedModel(n, warping, weight).ahlfors_classify(t0)
    para = cr.classify_parabolic(setup)
    hyper = cr.classify_hyperbolic(setup)
    decisive = [v for v in (para, hyper) if v.outcome is not Outcome.INCONCLUSIVE]
    assert decisive, "one of the one-sided criteria should fire on a model space"
    for v in decisive:
        assert v.outcome is direct.outcome


# --- constant-curvature families ---------------------------------------------


def test_cylinder_weighted_curvature_values():
    assert cr.cylinder_weighted_mc(4, None, math.sqrt(3.0)) == pytest.approx(0.0, abs=1e-14)
    assert cr.cylinder_weighted_mc(4, None, 1.0) == pytest.approx(2.0)
    xi = rd.RadialProfile(lambda t: t * t / 2, lambda t: t, lambda t: 1.0,
                          name="t^2/2")
    assert cr.cylinder_weighted_mc(2, xi, 5.0) == pytest.approx(0.2, rel=1e-12)


def test_critical_cylinder_radius_modes():
    for k in (2, 3, 4):
        assert cr.critical_cylinder_radius(k) == pytest.approx(
            math.sqrt(k - 1), abs=1e-12)
    # n-variant replaces k-1 by n
    assert cr.critical_cylinder_radius(7, use_dimension=3) == pytest.approx(
        math.sqrt(3.0), abs=1e-12)
    # level crossing with lambda0 = 1, k = 2: t^2 + t - 1 = 0 (last_above)
    assert cr.critical_cylinder_radius(2, lambda0=1.0) == pytest.approx(
        (-1 + math.sqrt(5)) / 2, abs=1e-12)


def test_hyperplane_weighted_curvature_probes():
    gauss = ge.RadialWeight(rd.weight_gaussian())
    for t in (0.3, 0.7, 2.0):
        value, spread = cr.hyperplane_weighted_mc(gauss, [0.0, 0.0, 1.0], t)
        assert value == pytest.approx(t, rel=1e-12)
        assert spread <= 1e-10
    power = ge.RadialWeight(rd.weight_power(-0.5, 3.0))
    value, spread = cr.hyperplane_weighted_mc(power, [0.0, 1.0, 0.0], 0.0)
    assert abs(value) <= 1e-12 and spread <= 1e-10
    mu = rd.RadialProfile(lambda t: t + 0.0 * t, lambda t: 1.0 + 0.0 * t,
                          lambda t: 0.0 * t, name="height", numpy_safe=True)
    value, spread = cr.hyperplane_weighted_mc(ge.HeightWeight(mu, 3),
                                              [0.0, 0.0, 1.0], 0.4)
    assert value == pytest.approx(-1.0, rel=1e-12) and spread <= 1e-12
    with pytest.raises(DomainError, match="does not lie"):
        cr.hyperplane_weighted_mc(gauss, [0.0, 0.0, 1.0], 1.0,
                                  p=np.array([0.0, 0.0, 2.0]))
