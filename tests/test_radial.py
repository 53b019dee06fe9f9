import math
import random
import warnings

import numpy as np
import pytest

from wparab import radial as rd
from wparab.errors import BracketError, IntegrandSignError, QuadratureError


# --- quadrature ---------------------------------------------------------


def test_integrate_linear():
    value, err = rd.integrate(lambda t: t, 0.0, 1.0)
    assert abs(value - 0.5) <= 1e-12
    assert err <= 1e-10


def test_integrate_sine_against_antiderivative():
    # oracle: -cos
    exact = -math.cos(math.pi) + math.cos(0.0)
    value, _ = rd.integrate(math.sin, 0.0, math.pi)
    assert abs(value - exact) <= 1e-10


def test_integrate_plane_capacity_integrand():
    # oracle: log(t)/(2 pi)
    exact = (math.log(math.e) - math.log(1.0)) / (2 * math.pi)
    value, _ = rd.integrate(lambda t: 1.0 / (2 * math.pi * t), 1.0, math.e)
    assert abs(value - exact) <= 1e-10


def test_integrate_is_additive_on_random_smooth_integrands():
    rng = random.Random(7)
    for _ in range(20):
        a_coef = rng.uniform(-2, 2)
        b_coef = rng.uniform(0.5, 2.0)
        c = rng.uniform(-1, 1)

        def f(t, a=a_coef, b=b_coef, c=c):
            return a * math.sin(b * t) + c * t * t + math.exp(-t * t)

        a, b, ccut = 0.0, rng.uniform(0.5, 1.5), 3.0
        r1 = rd.integrate(f, a, b)
        r2 = rd.integrate(f, b, ccut)
        r3 = rd.integrate(f, a, ccut)
        assert abs(r1.value + r2.value - r3.value) <= r1.error + r2.error + r3.error + 1e-12


def test_integrate_rejects_nonfinite_values_with_location():
    with pytest.raises(QuadratureError, match="non-finite integrand value at t="):
        rd.integrate(lambda t: 1.0 / (t - 0.5) if t != 0.5 else math.inf, 0.4999999, 0.5000001)


def test_integrate_warns_when_tolerance_unreachable():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = rd.integrate(lambda t: abs(t - 0.3) ** -0.5, 0.0, 1.0,
                           abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=8)
    assert not res.converged
    assert any(issubclass(w.category, rd.AccuracyWarning) for w in caught)
    with pytest.warns(rd.AccuracyWarning, match="1 of 2 panels"):
        res = rd.integrate(lambda t: np.abs(t - 0.3) ** -0.5, np.array([0.0, 0.5]),
                           np.array([0.5, 1.0]), abs_tol=1e-14, rel_tol=1e-14,
                           max_subdivisions=8, vectorized=True)
    assert not res.converged


# --- improper integrals -------------------------------------------------


def test_classify_inverse_square_convergent():
    v = rd.classify_improper(lambda t: 1.0 / (t * t), 1.0)
    assert v.status == "convergent"
    assert abs(v.value - 1.0) <= 1e-6  # oracle: integral from 1 is exactly 1


def test_classify_harmonic_divergent():
    v = rd.classify_improper(lambda t: 1.0 / t, 1.0)
    assert v.status == "divergent"
    assert "non-decreasing" in v.reason


def test_classify_gaussian_plane_area_integrand_divergent():
    v = rd.classify_improper(lambda t: math.exp(t * t / 2) / (2 * math.pi * t), 1.0)
    assert v.status == "divergent"


def test_classify_slow_divergence_is_inconclusive():
    # integral of 1/(t (1+log t)) diverges, but increments decay; honesty
    # demands an inconclusive verdict rather than a guess
    v = rd.classify_improper(lambda t: 1.0 / (t * (1.0 + math.log(t))), 1.0)
    assert v.status == "inconclusive"


def test_classify_is_deterministic():
    f = lambda t: 1.0 / (t * t * (1 + math.sin(t) ** 2))
    a = rd.classify_improper(f, 1.0)
    b = rd.classify_improper(f, 1.0)
    assert a.status == b.status and a.value == b.value and a.cutoffs == b.cutoffs


def test_classify_rejects_negative_integrands():
    with pytest.raises(IntegrandSignError):
        rd.classify_improper(lambda t: math.cos(10.0 * t) / t ** 2, 1.0)


def test_hint_tags_validated():
    with pytest.raises(ValueError):
        rd.AsymptoticHint("bogus")
    v = rd.classify_improper(lambda t: 1.0 / t ** 2, 1.0,
                             rd.AsymptoticHint("power_order", -2.0))
    assert v.used_hint == "power_order"


# --- root finding --------------------------------------------------------


def test_find_root_quadratic():
    assert rd.find_root(lambda t: t * t - 4.0, 0.0, 3.0) == pytest.approx(2.0, abs=1e-12)


def test_find_root_gaussian_minimal_sphere():
    root = rd.find_root(lambda t: 2.0 / t - t, 0.1, 10.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_find_root_critical_radius_golden_ratio():
    root = rd.find_root(lambda t: 1.0 / t - t - 1.0, 0.1, 10.0)
    assert root == pytest.approx((-1.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)


def test_find_root_requires_sign_change():
    with pytest.raises(BracketError):
        rd.find_root(lambda t: t * t + 1.0, -1.0, 1.0)


def test_expand_bracket_growth_and_cap():
    lo, hi = rd.expand_bracket(lambda t: t - 100.0, 1.0, 2.0)
    assert lo < 100.0 < hi
    with pytest.raises(BracketError):
        rd.expand_bracket(lambda t: t + 1.0, 1.0, 2.0, cap=1e4)


# --- profiles -------------------------------------------------------------


def _profiles_for_derivative_check():
    w_eu = rd.warping_euclidean()
    w_hyp = rd.warping_hyperbolic(-2.0)
    return [
        w_eu,
        w_hyp,
        rd.warping_paraboloid(),
        rd.weight_power(-0.5, 3.0),
        rd.weight_gaussian(),
        rd.weight_antigaussian(),
        rd.weight_logpow(-2.0, w_eu),
        rd.weight_logpow(1.5, w_hyp),
    ]


@pytest.mark.parametrize("profile", _profiles_for_derivative_check(),
                         ids=lambda p: p.name)
def test_catalog_derivatives_match_finite_differences(profile):
    for t in np.geomspace(0.1, 50.0, 25):
        h = 1e-6 * (1.0 + t)
        fd = (profile.value(t + h) - profile.value(t - h)) / (2 * h)
        d = profile.deriv(t)
        assert abs(d - fd) <= 1e-6 * max(1.0, abs(d)), (profile.name, t)


def test_warping_pole_conditions_are_enforced():
    with pytest.raises(ValueError, match="pole conditions"):
        rd.WarpingFunction(lambda t: t * t, lambda t: 2 * t, name="t^2")


def test_expression_profile_second_derivative():
    p = rd.RadialProfile.from_expression("exp(-t^2/2)")
    g = math.exp(-0.5)
    assert p.value(1.0) == pytest.approx(g, rel=1e-14)
    assert p.deriv(1.0) == pytest.approx(-g, rel=1e-12)
    assert p.second(1.0) == pytest.approx(0.0, abs=1e-12)


# --- panel mode of the quadrature kernel ----------------------------------


def _peak(t):
    # narrow bump at 0.3 over a smooth background
    return 1.0 + np.exp(-((t - 0.3) / 1e-3) ** 2) + 0.0 * t


@pytest.mark.parametrize("vectorized", [True, False])
def test_panel_mode_matches_per_panel_integrate(vectorized):
    edges = np.linspace(0.5, 3.0, 41)
    f = lambda t: np.exp(-t) * np.sin(3.0 * t) + 1.0 / t  # noqa: E731
    res = rd.integrate(f, edges[:-1], edges[1:], abs_tol=1e-14, rel_tol=1e-12,
                       vectorized=vectorized)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        one = rd.integrate(f, lo, hi, abs_tol=1e-14, rel_tol=1e-12)
        assert res.value[i] == one.value and res.error[i] == one.error
    assert res.converged and res.subdivisions == 0
    exact = (math.log(3.0 / 0.5)
             + (np.exp(-0.5) * (np.sin(1.5) + 3 * np.cos(1.5))
                - np.exp(-3.0) * (np.sin(9.0) + 3 * np.cos(9.0))) / 10.0)
    assert res.value.sum() == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("vectorized", [True, False])
def test_panel_mode_falls_back_to_bisection_on_failing_panels(vectorized):
    edges = np.array([0.0, 0.25, 0.5, 1.0])
    res = rd.integrate(_peak, edges[:-1], edges[1:], abs_tol=1e-12, rel_tol=1e-12,
                       vectorized=vectorized)
    assert res.converged and res.subdivisions > 0
    for i in range(3):
        one = rd.integrate(_peak, edges[i], edges[i + 1], abs_tol=1e-12,
                           rel_tol=1e-12)
        assert res.value[i] == one.value and res.error[i] == one.error
    # oracle: 1 + sqrt(pi) * 1e-3 (the bump lies well inside [0, 1])
    assert res.value.sum() == pytest.approx(1.0 + math.sqrt(math.pi) * 1e-3,
                                            rel=1e-12)


@pytest.mark.parametrize("vectorized", [True, False])
def test_nonfinite_values_name_the_lowest_bad_node(vectorized):
    def f(t):
        return np.where(t > 0.5, np.inf, 1.0) if vectorized else (
            math.inf if t > 0.5 else 1.0)

    first_bad = 0.5 + 0.5 * 0.207784955007898    # first GK15 node above 0.5
    with pytest.raises(QuadratureError) as err:
        rd.integrate(f, np.array([0.0, 1.0]), np.array([1.0, 2.0]),
                     vectorized=vectorized)
    assert f"t={first_bad}" in str(err.value)


def test_vectorized_overflow_is_a_quadrature_error_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="non-finite integrand value"):
            rd.integrate(lambda t: np.exp(t * t), 1.0, 45.0, vectorized=True)


# --- numpy-safe catalog profiles -----------------------------------------


def test_paraboloid_radius_has_arclength_residual_within_four_ulp():
    ts = np.geomspace(1e-9, 1e6, 4001)
    radii = rd._paraboloid_radius(ts)
    ulps = np.abs(rd._paraboloid_arc(radii) - ts) / np.spacing(ts)
    assert ulps.max() <= 4.0
    for t in ts[::40]:
        r = rd._paraboloid_radius(float(t))
        assert isinstance(r, float)
        arc = rd._paraboloid_arc(r, math.sqrt, math.asinh)
        assert abs(arc - t) <= 4.0 * np.spacing(t)


def test_numpy_safe_profiles_evaluate_arrays_elementwise():
    w_par = rd.warping_paraboloid()
    profiles = [w_par, rd.weight_logpow(-2.0, w_par),
                rd.weight_logpow(1.5, rd.warping_hyperbolic(-1.0)),
                rd.RadialProfile.from_expression("t^3 - log(1 + t^2)"),
                rd.RadialProfile.from_expression("2"),
                rd.RadialProfile.from_expression("abs(t - 1)")]
    ts = np.linspace(0.3, 6.0, 12).reshape(3, 4)
    for p in profiles:
        assert p.numpy_safe, p.name
        for fn in (p.value, p.deriv, p.second):
            out = fn(ts)
            assert out.shape == ts.shape, p.name
            scalar = [fn(float(t)) for t in ts.ravel()]
            assert np.allclose(out.ravel(), scalar, rtol=1e-14, atol=1e-15), p.name
