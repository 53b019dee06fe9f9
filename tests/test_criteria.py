import math

import numpy as np
import pytest

from wparab import catalogs
from wparab import criteria as cr
from wparab import geometry as ge
from wparab import radial as rd
from wparab.errors import (BracketError, DomainError, NonMonotoneTailError,
                           NotAttainedError)
from wparab.model import WeightedModel
from wparab.verdicts import HOLDS, Outcome, WINDOW_ONLY


def alpha_expr(source):
    return rd.RadialProfile.from_expression(source)


NEG_T = rd.RadialProfile(lambda t: -t, lambda t: -1.0 + 0 * t,
                         lambda t: 0.0 * t, name="-t")


# --- comparison setup ---------------------------------------------------


def test_cumulative_weight_anchors_at_t0():
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 2, 1.5, NEG_T)
    assert setup.f.value(1.5) == 0.0
    # f(t) = (t0^2 - t^2)/2 for alpha = -t: below the first rung, at rungs,
    # between them and beyond the last rung t0 2^40
    rungs = setup.f.fn.nodes
    assert rungs[0] == 1.5 and rungs[-1] == 1.5 * 2.0 ** 40
    for t in (0.8, 1.5, 2.0, 7.0, 40.0, rungs[100], rungs[-1], 1.5 * 2.0 ** 41):
        assert setup.f.value(t) == pytest.approx((1.5 ** 2 - t * t) / 2, rel=1e-9)
        assert setup.f.deriv(t) == pytest.approx(-t, rel=1e-12)


def test_cumulative_weight_refuses_a_nan_radius():
    # NaN passes no domain check by comparison; the primitive refuses it
    # instead of answering with F at the last rung
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 2, 1.5, alpha_expr("-t"))
    for t in (math.nan, np.array([2.0, math.nan])):
        with pytest.raises(DomainError, match="t=nan"):
            setup.f.value(t)


def test_cumulative_weight_is_query_order_independent():
    a = cr.ComparisonSetup(rd.warping_euclidean(), 2, 1.0, NEG_T)
    b = cr.ComparisonSetup(rd.warping_euclidean(), 2, 1.0, NEG_T)
    xs = [512.0, 2.0, 37.0, 5.5]
    va = [a.f.value(x) for x in xs]
    vb = [b.f.value(x) for x in reversed(xs)][::-1]
    assert va == vb


def test_cumulative_weight_evaluates_arrays_like_scalars():
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 2, 1.5, alpha_expr("-t+1/(1+t^2)"))
    ts = np.array([[0.8, 1.5, 2.0, setup.f.fn.nodes[7]],
                   [7.0, 40.0, 1.5 * 2.0 ** 39, 1.5 * 2.0 ** 41]])
    batch = setup.f.value(ts)
    assert batch.shape == ts.shape
    scalars = [setup.f.value(float(t)) for t in ts.ravel()]
    assert all(type(v) is float for v in scalars)
    assert batch.ravel().tolist() == scalars
    for empty in (np.array([]), np.empty((0, 3))):
        assert setup.f.value(empty).shape == empty.shape
    # f(t) = (t0^2 - t^2)/2 + atan(t) - atan(t0)
    exact = (1.5 ** 2 - ts[0] ** 2) / 2 + np.arctan(ts[0]) - math.atan(1.5)
    assert np.allclose(batch[0], exact, rtol=1e-9, atol=1e-12)


# --- catalog sweep ------------------------------------------------------------
#
# (status, doublings, value) of the area integral of every catalog warping
# and weight (m = 3, t0 = 1), and of the comparison integral of every
# warping with four drift bounds (n = 2, t0 = 1.5), with the parabolic and
# hyperbolic verdicts; recorded when each cutoff sample still came from its
# own integrand call and primitive query

SWEEP_WARPINGS = {"euclidean": {"name": "euclidean"},
                  "hyperbolic": {"name": "hyperbolic", "kappa": -1.0},
                  "paraboloid": {"name": "paraboloid"},
                  "custom": {"name": "custom", "expr": "t+0.1*t^3"}}
SWEEP_WEIGHTS = {"zero": {"name": "zero"}, "gaussian": {"name": "gaussian"},
                 "antigaussian": {"name": "antigaussian"},
                 "power": {"name": "power", "a": -0.5, "k": 1.5},
                 "logpow": {"name": "logpow", "k": -2.0},
                 "custom": {"name": "custom", "expr": "0.3*t^2-0.5*log(1+t^2)"}}
SWEEP_AHLFORS = {
    ('euclidean', 'zero'): ('convergent', 17, 0.07957747154594744),
    ('euclidean', 'gaussian'): ('divergent', 4, None),
    ('euclidean', 'antigaussian'): ('convergent', 4, 0.016619031914484984),
    ('euclidean', 'power'): ('divergent', 5, None),
    ('euclidean', 'logpow'): ('divergent', 6, None),
    ('euclidean', 'custom'): ('convergent', 4, 0.04424611775274448),
    ('hyperbolic', 'zero'): ('convergent', 4, 0.02491055926986331),
    ('hyperbolic', 'gaussian'): ('divergent', 4, None),
    ('hyperbolic', 'antigaussian'): ('convergent', 4, 0.009556225452531302),
    ('hyperbolic', 'power'): ('divergent', 6, None),
    ('hyperbolic', 'logpow'): ('divergent', 6, None),
    ('hyperbolic', 'custom'): ('convergent', 4, 0.02244682177862754),
    ('paraboloid', 'zero'): ('divergent', 38, None),
    ('paraboloid', 'gaussian'): ('divergent', 4, None),
    ('paraboloid', 'antigaussian'): ('convergent', 4, 0.023370293186730052),
    ('paraboloid', 'power'): ('divergent', 5, None),
    ('paraboloid', 'logpow'): ('divergent', 6, None),
    ('paraboloid', 'custom'): ('convergent', 4, 0.06613906466413354),
    ('custom', 'zero'): ('convergent', 5, 0.03546306902298504),
    ('custom', 'gaussian'): ('divergent', 4, None),
    ('custom', 'antigaussian'): ('convergent', 4, 0.011957782523031044),
    ('custom', 'power'): ('divergent', 5, None),
    ('custom', 'logpow'): ('divergent', 6, None),
    ('custom', 'custom'): ('convergent', 4, 0.02939682042166576),
}
SWEEP_COMPARISON = {
    ('euclidean', '-t'): ('divergent', 3, None, 'parabolic', 'inconclusive'),
    ('euclidean', '0*t'): ('divergent', 6, None, 'inconclusive', 'inconclusive'),
    ('euclidean', '-3/t'): ('divergent', 6, None, 'parabolic', 'inconclusive'),
    ('euclidean', '1/t+0.5'): ('convergent', 5, 0.07315141166471538, 'inconclusive', 'hyperbolic'),
    ('hyperbolic', '-t'): ('divergent', 3, None, 'inconclusive', 'inconclusive'),
    ('hyperbolic', '0*t'): ('convergent', 4, 0.07224046376476657, 'inconclusive', 'hyperbolic'),
    ('hyperbolic', '-3/t'): ('convergent', 5, 0.5311848913497674, 'inconclusive', 'hyperbolic'),
    ('hyperbolic', '1/t+0.5'): ('convergent', 4, 0.03603359880572667, 'inconclusive', 'hyperbolic'),
    ('paraboloid', '-t'): ('divergent', 3, None, 'parabolic', 'inconclusive'),
    ('paraboloid', '0*t'): ('divergent', 6, None, 'inconclusive', 'inconclusive'),
    ('paraboloid', '-3/t'): ('divergent', 6, None, 'parabolic', 'inconclusive'),
    ('paraboloid', '1/t+0.5'): ('convergent', 5, 0.0999023159465278, 'inconclusive', 'hyperbolic'),
    ('custom', '-t'): ('divergent', 3, None, 'inconclusive', 'inconclusive'),
    ('custom', '0*t'): ('convergent', 10, 0.1348516429776664, 'inconclusive', 'hyperbolic'),
    ('custom', '-3/t'): ('divergent', 6, None, 'inconclusive', 'inconclusive'),
    ('custom', '1/t+0.5'): ('convergent', 4, 0.04846117003953885, 'inconclusive', 'hyperbolic'),
}


def _integral(v):
    return v.status, len(v.cutoffs), v.value


def test_catalog_sweep_verdicts_are_the_recorded_ones():
    for (w, f), recorded in SWEEP_AHLFORS.items():
        warping = catalogs.resolve_warping(SWEEP_WARPINGS[w])
        model = WeightedModel(3, warping,
                              catalogs.resolve_weight_profile(SWEEP_WEIGHTS[f], warping))
        found = _integral(model.ahlfors_classify(1.0).integral_evidence)
        assert found == pytest.approx(recorded, rel=1e-12), (w, f)
    for (w, alpha), recorded in SWEEP_COMPARISON.items():
        setup = cr.ComparisonSetup(catalogs.resolve_warping(SWEEP_WARPINGS[w]), 2, 1.5,
                                   alpha_expr(alpha))
        parabolic, hyperbolic = cr.classify_parabolic(setup), cr.classify_hyperbolic(setup)
        found = (*_integral(parabolic.integral_evidence), parabolic.outcome.value,
                 hyperbolic.outcome.value)
        assert found == pytest.approx(recorded, rel=1e-12), (w, alpha)


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
                         lambda t: -2.0 + 0 * t, name="-t^2")
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


def test_warping_power_is_inconclusive_where_spheres_are_not_convex():
    # H = w'/w = (1 - t^2) / (t (1 + t^2)) < 0 beyond t = 1: the comparison
    # with alpha = k H fires, the convexity floor does not
    w = catalogs.resolve_warping({"name": "custom", "expr": "t/(1+t^2)"})
    v = cr.classify_warping_power(w, 2, -2, t0=2.0)
    assert v.outcome is Outcome.INCONCLUSIVE
    assert [(c.name, c.status) for c in v.checks] == [
        ("radial_drift_bound", HOLDS), ("sphere_balance", HOLDS), ("alpha_floor", "fails")]
    assert v.checks[-1].witness == {"t": 2.0}
    alpha = rd.RadialProfile(lambda t: -2.0 * w.deriv(t) / w.value(t), name="-2*H")
    setup = cr.ComparisonSetup(w, 2, 2.0, alpha)
    assert cr.classify_parabolic(setup).outcome is Outcome.PARABOLIC


def test_hyperbolic_bounded_drift_walks_its_anchor_outward():
    # 2 coth(t) + t - 5.5 is negative at t = 1 and 2, positive at t = 4
    v = cr.classify_bounded_drift(rd.warping_hyperbolic(-1.0), 2, alpha_expr("t-5"),
                                  c=0.5, direction="hyperbolic")
    balance = next(c for c in v.checks if c.name == "sphere_balance")
    assert balance.window == (4.0, 128.0)
    assert balance.status == HOLDS
    # sinh is not integrable, so the hyperbolic shortcut stays silent
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.checks[2].name == "warping_integrable" and v.checks[2].status == "fails"


@pytest.mark.parametrize("beta", ["t", "2*t-1", "t^2/3"])
@pytest.mark.parametrize("n", [2, 3])
def test_nan_balance_ends_in_a_bracket_error(beta, n):
    # w'/w of the hyperbolic warping is inf/inf = NaN beyond t ~ 710: the
    # bracket search reads a NaN as no sign change and stops at its cap
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BracketError, match="no sign change"):
            cr.classify_bounded_drift(rd.warping_hyperbolic(), n,
                                      alpha_expr(beta), direction="parabolic")


def test_unknown_direction_rejected():
    for classify in (cr.classify_bounded_drift, cr.classify_radial_weight):
        with pytest.raises(DomainError, match="unknown direction 'sideways'"):
            classify(rd.warping_euclidean(), 2, NEG_T, direction="sideways")


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
    # level crossing with lambda0 = 1, k = 2: t^2 + t - 1 = 0 (last_above)
    assert cr.critical_cylinder_radius(2, lambda0=1.0) == pytest.approx(
        (-1 + math.sqrt(5)) / 2, abs=1e-12)
    # first_below: 1/t - t = -1 at t^2 - t - 1 = 0
    assert cr.critical_cylinder_radius(2, lambda0=1.0, mode="first_below") == (
        pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12))
    with pytest.raises(DomainError, match="unknown mode 'bogus'"):
        cr.critical_cylinder_radius(2, mode="bogus")


def test_critical_cylinder_radii_are_pinned_to_the_bit():
    assert [cr.critical_cylinder_radius(k) for k in (2, 3, 4)] == [
        1.0000000000000009, 1.414213562373095, 1.7320508075688772]
    assert cr.critical_cylinder_radius(2, lambda0=1.0, mode="first_below") == (
        1.618033988749895)


def test_critical_cylinder_radius_non_monotone_tail():
    # 1/t - t + 12 sin t crosses 0 at 2.92 but is positive again near 7.24
    xi = rd.RadialProfile(lambda t: -12.0 * np.cos(t), lambda t: 12.0 * np.sin(t),
                          lambda t: 12.0 * np.cos(t), name="-12 cos t")
    with pytest.raises(NonMonotoneTailError) as err:
        cr.critical_cylinder_radius(2, xi, mode="first_below")
    assert err.value.witness == pytest.approx(7.242, abs=1e-3)


@pytest.mark.parametrize("slope, message", [
    (1e7, "target 0.0 not attained by the cylinder curvature .k=2. up to t=1e6"),
    (-1e13, "no sign change: the cylinder curvature .k=2. never exceeds 0.0"),
])
def test_critical_cylinder_radius_not_attained(slope, message):
    xi = rd.RadialProfile(lambda t: slope * t, lambda t: slope + 0.0 * t,
                          lambda t: 0.0 * t)
    with pytest.raises(NotAttainedError, match=message):
        cr.critical_cylinder_radius(2, xi)


def test_cylinder_weighted_curvature_takes_an_array_of_radii():
    xi = rd.RadialProfile(lambda t: t * t / 2, lambda t: t, lambda t: 1.0 + 0.0 * t)
    ts = np.array([0.5, 1.0, 5.0])
    assert cr.cylinder_weighted_mc(3, xi, ts).tolist() == [
        cr.cylinder_weighted_mc(3, xi, float(t)) for t in ts]
    with pytest.raises(DomainError, match="radius must be positive"):
        cr.cylinder_weighted_mc(3, None, np.array([1.0, 0.0]))


@pytest.mark.parametrize("classify", [cr.classify_bounded_drift,
                                      cr.classify_radial_weight])
def test_shortcut_criteria_take_no_immersion(classify):
    plane = ge.coordinate_plane(3, (0, 1), ge.RadialWeight(rd.weight_gaussian()))
    with pytest.raises(TypeError, match="'P'"):
        classify(rd.warping_euclidean(), 2, NEG_T, P=plane)


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
                          lambda t: 0.0 * t, name="height")
    value, spread = cr.hyperplane_weighted_mc(ge.HeightWeight(mu, 3),
                                              [0.0, 0.0, 1.0], 0.4)
    assert value == pytest.approx(-1.0, rel=1e-12) and spread <= 1e-12
    with pytest.raises(DomainError, match="does not lie"):
        cr.hyperplane_weighted_mc(gauss, [0.0, 0.0, 1.0], 1.0,
                                  p=np.array([0.0, 0.0, 2.0]))
