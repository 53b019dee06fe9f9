import math
import random
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from wparab import catalogs
from wparab import criteria as cr
from wparab import expr as ex
from wparab import radial as rd
from wparab.errors import (BracketError, DomainError, IntegrandSignError,
                           NotAttainedError, QuadratureError, WparabError)


# --- quadrature ---------------------------------------------------------


def test_integrate_linear():
    value, err = rd.integrate(lambda t: t, 0.0, 1.0)
    assert abs(value - 0.5) <= 1e-12
    assert err <= 1e-10


def test_integrate_sine_against_antiderivative():
    # oracle: -cos
    exact = -math.cos(math.pi) + math.cos(0.0)
    value, _ = rd.integrate(np.sin, 0.0, math.pi)
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
            return a * np.sin(b * t) + c * t * t + np.exp(-t * t)

        a, b, ccut = 0.0, rng.uniform(0.5, 1.5), 3.0
        r1 = rd.integrate(f, a, b)
        r2 = rd.integrate(f, b, ccut)
        r3 = rd.integrate(f, a, ccut)
        assert abs(r1.value + r2.value - r3.value) <= r1.error + r2.error + r3.error + 1e-12


def test_integrate_rejects_nonfinite_values_with_location():
    with pytest.raises(QuadratureError, match="non-finite integrand value at t="):
        rd.integrate(lambda t: 1.0 / (t - 0.5), 0.4999999, 0.5000001)


def test_integrate_warns_when_tolerance_unreachable(monkeypatch):
    monkeypatch.setattr(rd, "MAX_SUBDIVISIONS", 8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = rd.integrate(lambda t: np.abs(t - 0.3) ** -0.5, 0.0, 1.0,
                           abs_tol=1e-14, rel_tol=1e-14)
    assert not res.converged
    assert any(issubclass(w.category, rd.AccuracyWarning) for w in caught)
    with pytest.warns(rd.AccuracyWarning, match="1 of 2 panels"):
        res = rd.integrate(lambda t: np.abs(t - 0.3) ** -0.5, np.array([0.0, 0.5]),
                           np.array([0.5, 1.0]), abs_tol=1e-14, rel_tol=1e-14)
    assert not res.converged


def _refinements(monkeypatch):
    """The QuadResult of every panel that :func:`rd._refine` returns."""
    refine, seen = rd._refine, []

    def recording_refine(*args):
        results = refine(*args)
        seen.extend(results)
        return results

    monkeypatch.setattr(rd, "_refine", recording_refine)
    return seen


@pytest.mark.parametrize("cap", [1, 2, 3, 5, 8, 13, 21])
def test_no_panel_is_refined_past_the_cap(monkeypatch, cap):
    # an oscillation that needs many pieces per level, on one panel and on
    # three panels of one call
    monkeypatch.setattr(rd, "MAX_SUBDIVISIONS", cap)
    refined = _refinements(monkeypatch)
    f = lambda t: np.sin(40.0 * t) * np.exp(-t)  # noqa: E731
    with pytest.warns(rd.AccuracyWarning):
        one = rd.integrate(f, 0.0, 6.0, abs_tol=1e-13, rel_tol=1e-13)
    with pytest.warns(rd.AccuracyWarning, match="3 of 3 panels"):
        rd.integrate(f, np.array([0.0, 2.0, 4.0]), np.array([2.0, 4.0, 6.0]),
                     abs_tol=1e-13, rel_tol=1e-13)
    # the level that reaches the cap spends what is left of it
    assert one.subdivisions == cap
    assert len(refined) == 4
    assert all(not res.converged and res.subdivisions == cap for res in refined)


def test_the_last_level_bisects_the_largest_errors(monkeypatch):
    # jumps of 1 at 1/3 and of 3 at 2/3 put mirror-image pieces, errors 1:3,
    # at every level; the constant pieces sit at their noise floor
    def steps(t):
        return np.where(t > 1.0 / 3.0, 1.0, 0.0) + np.where(t > 2.0 / 3.0, 3.0, 0.0)

    gk15, rows = rd._gk15, []

    def recording_gk15(f, a, b):
        rows.append((a, b))
        return gk15(f, a, b)

    monkeypatch.setattr(rd, "_gk15", recording_gk15)
    # levels bisect 1, 2 and 2 pieces; the fourth can afford one of its two
    monkeypatch.setattr(rd, "MAX_SUBDIVISIONS", 6)
    with pytest.warns(rd.AccuracyWarning):
        res = rd.integrate(steps, 0.0, 1.0, abs_tol=1e-15, rel_tol=1e-15)
    assert res.subdivisions == 6
    assert [len(a) for a, _ in rows] == [1, 2, 4, 4, 2]
    # the halves of the piece around 2/3, not of the one around 1/3
    a, b = rows[-1]
    assert (a.tolist(), b.tolist()) == ([0.625, 0.6875], [0.6875, 0.75])


def test_a_jump_at_a_non_dyadic_point_ends_unconverged(monkeypatch):
    def step(t):
        return np.where(t > 1.0 / 3.0, 1.0, 0.0)

    res = rd.integrate(step, 0.0, 1.0)
    assert res.converged and res.value == pytest.approx(2.0 / 3.0, abs=1e-8)
    # a tolerance of 1e-15 is below the Kronrod--Gauss difference of the
    # constant pieces (3.5e-15 of their width, their noise floor), so only
    # the piece holding the jump is bisected, down to machine resolution;
    # the error ends at the floor, 2.3e-15
    refined = _refinements(monkeypatch)
    with pytest.warns(rd.AccuracyWarning, match=r"\[0.0, 1.0\]"):
        res = rd.integrate(step, 0.0, 1.0, abs_tol=1e-15, rel_tol=1e-15)
    assert not res.converged and refined == [res]
    assert 50 < res.subdivisions < 60
    assert res.error < 3e-15
    assert abs(res.value - 2.0 / 3.0) <= res.error


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
    v = rd.classify_improper(lambda t: np.exp(t * t / 2) / (2 * np.pi * t), 1.0)
    assert v.status == "divergent"


def test_classify_slow_divergence_is_inconclusive():
    # integral of 1/(t (1+log t)) diverges, but increments decay; honesty
    # demands an inconclusive verdict rather than a guess
    v = rd.classify_improper(lambda t: 1.0 / (t * (1.0 + np.log(t))), 1.0)
    assert v.status == "inconclusive"


def test_classify_is_deterministic():
    f = lambda t: 1.0 / (t * t * (1 + np.sin(t) ** 2))  # noqa: E731
    a = rd.classify_improper(f, 1.0)
    b = rd.classify_improper(f, 1.0)
    assert a.status == b.status and a.value == b.value and a.cutoffs == b.cutoffs


def test_an_oscillating_decay_keeps_its_verdict():
    v = rd.classify_improper(lambda t: 1.0 / (t * t * (1 + np.sin(t) ** 2)), 1.0)
    assert v.status == "convergent" and "geometric decay" in v.reason
    # oracle: scipy's quad over the unit pieces of [1, 2^16] plus the tail
    # 2^-16 / sqrt(2), the mean of 1/(1 + sin^2) being 1/sqrt(2)
    assert abs(v.value - 0.6273879741) <= v.error_bound < 2e-6


# --- doubling segments integrated ahead in groups -------------------------

GROUP_SIZES = (1, 2, 4, 8)


def _power_decay(t):
    return t ** -2.5


# the cutoff at which t^-2.5 from 1 is declared convergent
_STOP = rd.classify_improper(_power_decay, 1.0).cutoffs[-1]


def _beyond_stop_overflows(t):
    return np.where(t > _STOP, np.inf, _power_decay(t))


# t^-2.5 as an expression whose domain ends between the stop and the end
# of the stop's group of 2, 4 or 8 segments
_DOMAIN_ENDS_BEYOND_STOP = ex.parse(f"t^-2.5 + 0*sqrt({1.2 * _STOP} - t)", ["t"])


def _domain_ends_beyond_stop(t):
    return ex.evaluate(_DOMAIN_ENDS_BEYOND_STOP, {"t": t})


GROUPED_CASES = {
    "convergent": (lambda t: 1.0 / (t * t), {}, "convergent"),
    "inconclusive": (lambda t: 1.0 / (t * (1.0 + np.log(t))), {}, "inconclusive"),
    "oscillatory": (lambda t: 1.0 / (t * t * (1 + np.sin(t / 50.0) ** 2)), {},
                    "convergent"),
    "threshold": (lambda t: 1e11 + 0.0 * t, {}, "divergent"),
    "non-decreasing": (lambda t: 1.0 / t, {}, "divergent"),
    # nearly flat and increasing: the sampled values cross the threshold
    # one doubling before the partial integral does
    "pointwise": (lambda t: 1.0 + 1e-9 * t, {"divergence_threshold": 7.5},
                  "divergent"),
    "overflow beyond the stop": (_beyond_stop_overflows, {}, "convergent"),
    "domain ends beyond the stop": (_domain_ends_beyond_stop, {}, "convergent"),
}


def _verdict_fields(v):
    return {**v.to_dict(), "increments": v.increments}


@pytest.mark.parametrize("case", GROUPED_CASES)
def test_verdicts_do_not_depend_on_the_group_size(case, monkeypatch):
    f, kwargs, status = GROUPED_CASES[case]
    verdicts = []
    for size in GROUP_SIZES:
        monkeypatch.setattr(rd, "SEGMENTS_PER_CALL", size)
        verdicts.append(_verdict_fields(rd.classify_improper(f, 1.0, **kwargs)))
    assert verdicts[0]["status"] == status
    assert all(v == verdicts[0] for v in verdicts[1:])
    # each increment is what a one-segment integrate call gives, to the bit
    edges = [1.0] + verdicts[0]["cutoffs"]
    for lo, hi, inc in zip(edges, edges[1:], verdicts[0]["increments"]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", rd.AccuracyWarning)
            assert inc == rd.integrate(f, lo, hi, abs_tol=1e-9, rel_tol=1e-8).value
    if case == "pointwise":
        assert "pointwise" in verdicts[0]["reason"]
    if case == "threshold":
        assert "exceeded" in verdicts[0]["reason"]


def test_the_beyond_the_stop_cases_stop_inside_a_group():
    # t^-2.5 stops at an odd doubling, so groups of 2, 4 and 8 integrate
    # past the stop and must fall back to single segments
    assert math.log2(_STOP) % 2 == 1
    with pytest.raises(QuadratureError):
        rd.integrate(_beyond_stop_overflows, _STOP, 2.0 * _STOP)
    with pytest.raises(ex.ExprDomainError, match="sqrt of negative value"):
        rd.integrate(_domain_ends_beyond_stop, _STOP, 2.0 * _STOP)
    assert _domain_ends_beyond_stop(_STOP) == _power_decay(_STOP)


@pytest.mark.parametrize("size", GROUP_SIZES)
def test_sign_errors_surface_at_the_same_cutoff_for_every_group_size(size, monkeypatch):
    monkeypatch.setattr(rd, "SEGMENTS_PER_CALL", size)

    def f(t):
        # negative beyond t = 40; the first cutoff sampled there is 64
        return 1.0 / (t * t) - np.where(t > 40.0, 1e-3, 0.0)

    with pytest.raises(IntegrandSignError, match=r"at t=64\.0:"):
        rd.classify_improper(f, 1.0)


# negative beyond t = 40 and undefined beyond t = 100
_SIGN_THEN_DOMAIN = ex.parse(
    "t^-2 - 0.0005*(1 + tanh(50*(t - 40))) + 0*sqrt(100 - t)", ["t"])


@pytest.mark.parametrize("size", GROUP_SIZES)
def test_a_domain_error_ahead_does_not_hide_a_sign_error(size, monkeypatch):
    # the first group of 8 reaches t > 100; the loop stops at the cutoff 64
    monkeypatch.setattr(rd, "SEGMENTS_PER_CALL", size)
    with pytest.raises(IntegrandSignError, match=r"at t=64\.0:"):
        rd.classify_improper(lambda t: ex.evaluate(_SIGN_THEN_DOMAIN, {"t": t}), 1.0)


@pytest.mark.parametrize("size", GROUP_SIZES)
def test_a_warning_ahead_is_not_emitted(size, monkeypatch):
    # f warns only beyond t = 20, where the loop, stopped at 16 by the
    # threshold, never evaluates it one segment at a time; under the
    # caller's error filter the sweep that reaches it raises, and its group
    # falls back to single segments
    monkeypatch.setattr(rd, "SEGMENTS_PER_CALL", size)

    def f(t):
        if np.any(t > 20.0):
            warnings.warn("beyond 20", RuntimeWarning)
        return 1e11 + 0.0 * t

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("error")
        verdict = rd.classify_improper(f, 1.0)
    assert verdict.status == "divergent" and verdict.cutoffs[-1] == 16.0
    assert seen == []


@pytest.mark.parametrize("size", GROUP_SIZES)
def test_classify_leaves_the_warning_filters_alone(size, monkeypatch):
    # the filters are process-global and `wparab run --workers` runs
    # scenarios on threads, so f must see the caller's filters at every call
    monkeypatch.setattr(rd, "SEGMENTS_PER_CALL", size)
    seen = []

    def recording(f):
        def g(t):
            seen.append(list(warnings.filters))
            return f(t)
        return g

    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        callers = list(warnings.filters)
        for f, kwargs, status in GROUPED_CASES.values():
            assert rd.classify_improper(recording(f), 1.0, **kwargs).status == status
        assert warnings.filters == callers
    assert seen and all(filters == callers for filters in seen)


def _kernel_calls(monkeypatch, f, size):
    """classify_improper(f, 1.6) with the given group size, and its kernel
    calls in order: ("gk15", panels) for each GK15 sweep of the loop itself
    and ("refine", a, b, subdivisions) for each refined panel."""
    calls, inside = [], []
    gk15, refine = rd._gk15, rd._refine

    def recording_gk15(f, a, b):
        if not inside:
            calls.append(("gk15", len(a)))
        return gk15(f, a, b)

    def recording_refine(f, panels, *args):
        inside.append(True)
        panels = list(panels)
        results = refine(f, panels, *args)
        inside.pop()
        calls.extend(("refine", a, b, res.subdivisions)
                     for (a, b, _, _), res in zip(panels, results))
        return results

    monkeypatch.setattr(rd, "_gk15", recording_gk15)
    monkeypatch.setattr(rd, "_refine", recording_refine)
    monkeypatch.setattr(rd, "SEGMENTS_PER_CALL", size)
    verdict = rd.classify_improper(f, 1.6)
    monkeypatch.setattr(rd, "_gk15", gk15)
    monkeypatch.setattr(rd, "_refine", refine)
    return verdict, calls


def test_doubling_segments_share_one_sweep_per_group(monkeypatch):
    verdict, calls = _kernel_calls(monkeypatch, lambda t: 1.0 / (t * t), 4)
    doublings = len(verdict.cutoffs)
    # every segment passes its sweep's tolerance, so nothing is refined
    assert calls == [("gk15", 4)] * -(-doublings // 4)


def test_no_segment_beyond_the_stop_is_bisected(monkeypatch):
    # the comparison integrand of the Gaussian plane: divergent at the third
    # cutoff, and every segment from the second on needs refinement
    def f(t):
        return np.exp(0.5 * (t * t - 1.6 ** 2)) / (2 * np.pi * t)

    seq, seq_calls = _kernel_calls(monkeypatch, f, 1)
    grouped, calls = _kernel_calls(monkeypatch, f, 4)
    assert _verdict_fields(grouped) == _verdict_fields(seq)
    assert len(grouped.cutoffs) == 3
    refined = [("refine", 3.2, 6.4, 2), ("refine", 6.4, 12.8, 4)]
    assert [c for c in seq_calls if c[0] == "refine"] == refined
    # one sweep of four segments, then only the two segments up to the stop
    assert calls == [("gk15", 4)] + refined


def _counting(f):
    """f that records the shape of each argument, () for a float."""
    shapes = []

    def g(t):
        shapes.append(np.shape(t))
        return f(t)

    return g, shapes


@pytest.mark.parametrize("f,refined", [
    (lambda t: 1.0 / (t * t), False),
    (lambda t: np.exp(0.5 * (t * t - 1.6 ** 2)) / (2 * np.pi * t), True),
], ids=["unrefined", "refined"])
def test_classify_calls_the_integrand_once_per_group_and_level(f, refined, monkeypatch):
    levels, gk15, refine = [], rd._gk15, rd._refine

    def recording_refine(f, *args):
        def level(g, a, b):
            levels.append(len(a))
            return gk15(g, a, b)
        monkeypatch.setattr(rd, "_gk15", level)
        try:
            return refine(f, *args)
        finally:
            monkeypatch.setattr(rd, "_gk15", gk15)

    monkeypatch.setattr(rd, "_refine", recording_refine)
    counted, shapes = _counting(f)
    verdict = rd.classify_improper(counted, 1.6)
    groups = -(-len(verdict.cutoffs) // rd.SEGMENTS_PER_CALL)
    assert bool(levels) == refined
    # the start sample, one call per group with the cutoffs as a last
    # column, and one call per refinement level (here after the one group)
    assert shapes == ([()] + [(rd.SEGMENTS_PER_CALL, 16)] * groups
                      + [(n, 15) for n in levels])
    assert _verdict_fields(verdict) == _verdict_fields(rd.classify_improper(f, 1.6))


def _primitive_and_calls(monkeypatch, f=lambda t: np.exp(-t) * (1.0 + np.sin(3.0 * t))):
    calls, integrate = [], rd.integrate

    def recording(*args, **kwargs):
        calls.append(len(args[1]))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(rd, "integrate", recording)
    return rd.Primitive(f, np.linspace(1.0, 9.0, 33), 1e-13, 1e-11), calls


def test_a_primitive_query_makes_one_integrate_call(monkeypatch):
    F, calls = _primitive_and_calls(monkeypatch)
    F(3.1)                      # extends the ladder to 3.0 and adds the tail to 3.1
    assert calls == [9]
    F(np.array([2.2, 0.5, 2.9]))        # inside the ladder: tails only
    assert calls == [9, 3]
    F(np.array([8.7, 12.0]))            # extends the ladder to the last node
    assert calls == [9, 3, 24 + 2]
    F(5.0)                              # a node of a known ladder: nothing to integrate
    assert calls == [9, 3, 26]


def test_primitive_batches_equal_single_queries_in_reverse_order(monkeypatch):
    ts = np.array([0.3, 1.0, 1.7, 3.25, 6.6, 9.0, 9.5, 14.0, 4.0])
    F, _ = _primitive_and_calls(monkeypatch)
    G, _ = _primitive_and_calls(monkeypatch)
    batch = F(ts)
    singles = [G(float(t)) for t in ts[::-1]][::-1]
    assert np.array_equal(batch, singles)
    assert F.error == G.error


def test_classify_rejects_negative_integrands():
    with pytest.raises(IntegrandSignError):
        rd.classify_improper(lambda t: np.cos(10.0 * t) / t ** 2, 1.0)


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


def _root_cases(seed):
    """Seeded (f, lo, hi) brackets of five function families, each with a
    sign change."""
    rng = random.Random(seed)
    families = (
        lambda c: (lambda t: t * t - c, 0.0, 10.0),
        lambda c: (lambda t: 2.0 / t - t - c, 0.01, 50.0),
        lambda c: (lambda t: math.tanh(t - c) + 0.3, -20.0, 20.0),
        lambda c: (lambda t: math.exp(-t) - c / 10.0, -5.0, 30.0),
        lambda c: (lambda t: (t - c) ** 3, -10.0, 10.0),
    )
    cases = []
    while len(cases) < 300:
        f, lo, hi = rng.choice(families)(rng.uniform(0.1, 5.0))
        width = hi - lo
        lo, hi = lo + rng.uniform(0, 0.4) * width, hi - rng.uniform(0, 0.4) * width
        if f(lo) * f(hi) <= 0.0:
            cases.append((f, lo, hi))
    return cases


@pytest.mark.parametrize("tol", [1e-12, 1e-13, 1e-8])
def test_find_root_takes_the_steps_of_scipy_brentq(tol):
    for f, lo, hi in _root_cases(11):
        want = brentq(f, lo, hi, xtol=tol, maxiter=200)
        got = rd.find_root(f, lo, hi, tol=tol, max_iter=200)
        assert type(got) is float and got.hex() == want.hex()


def test_find_root_failures_are_wparab_errors():
    assert issubclass(BracketError, WparabError)
    assert not issubclass(BracketError, (ValueError, RuntimeError))
    with pytest.raises(BracketError, match="NaN at t=3.0"):
        rd.find_root(lambda t: math.nan if t > 2.0 else -1.0, 0.0, 3.0)
    with pytest.raises(BracketError, match="NaN at t="):
        rd.find_root(lambda t: math.nan if 1.0 < t < 2.0 else t - 1.5, 0.0, 3.0)
    with pytest.raises(BracketError, match="not found within 5 steps"):
        rd.find_root(lambda t: t * t - 2.0, 0.0, 3.0, tol=1e-14, max_iter=5)


def test_expand_bracket_growth_and_cap():
    lo, hi = rd.expand_bracket(lambda t: t - 100.0, 1.0, 2.0)
    assert lo < 100.0 < hi
    with pytest.raises(BracketError):
        rd.expand_bracket(lambda t: t + 1.0, 1.0, 2.0, cap=1e4)


def test_first_crossing_walks_inward_then_brackets_outward():
    # 1/t - t - 1 is positive near 0: the walk starts at a negative value
    root = rd.first_crossing(lambda t: 1.0 / t - t - 1.0, 4.0, 0.0, 1e-13)
    assert root == rd.find_root(lambda t: 1.0 / t - t - 1.0, 0.5, 1.0, tol=1e-13)
    # the walk quarters the distance to t_min = 1, so g is never sampled at
    # or below it (8 -> 2.75 -> 1.4375, where 1/(t-1) - 1 > 0)
    root = rd.first_crossing(lambda t: 1.0 / (t - 1.0) - 1.0, 8.0, 1.0, 1e-13)
    assert root == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(NotAttainedError) as err:
        rd.first_crossing(lambda t: -1.0, 1e-3, 0.0, 1e-12)
    assert err.value.radius == 1e-3 / 4.0 ** 15
    with pytest.raises(BracketError):
        rd.first_crossing(lambda t: 1.0, 1e-3, 0.0, 1e-12)


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


def _closed_forms():
    """The catalog profiles and the hand-written (fn, d1, d2) they replaced,
    with the name, t_min and linear those declared (but the euclidean
    warping: its source t declares the derivative 1, where the triple
    declared none), and radii to read them at: every profile is read at
    t > 0, the weights defined below the origin at negative t too."""
    t = np.geomspace(1e-6, 40.0, 2001)
    both = np.concatenate((-t[::-1], t))
    cases = [(rd.warping_euclidean(), lambda t: t, lambda t: 1.0 + 0.0 * t,
              lambda t: 0.0 * t, "euclidean", 0.0, (1.0, 0.0), t)]
    for kappa in (-1.0, -2.0, -0.3, -5):
        s = math.sqrt(-kappa)
        cases.append((rd.warping_hyperbolic(kappa), lambda t, s=s: np.sinh(s * t) / s,
                      lambda t, s=s: np.cosh(s * t), lambda t, s=s: s * np.sinh(s * t),
                      f"hyperbolic(kappa={kappa})", 0.0, None, t[t < 100.0 / s]))
    cases += [
        (rd.weight_zero(), lambda t: 0.0 + 0.0 * t, lambda t: 0.0 * t, lambda t: 0.0 * t,
         "zero", 0.0, (0.0, 0.0), both),
        (rd.RadialProfile.constant(-2.5), lambda t: -2.5 + 0.0 * t, lambda t: 0.0 * t,
         lambda t: 0.0 * t, "const(-2.5)", 0.0, (0.0, 0.0), both),
        (rd.weight_gaussian(), lambda t: -0.5 * t * t, lambda t: -t,
         lambda t: -1.0 + 0.0 * t, "gaussian", 0.0, (0.0, -1.0), both),
        (rd.weight_antigaussian(), lambda t: 0.5 * t * t, lambda t: t + 0.0 * t,
         lambda t: 1.0 + 0.0 * t, "antigaussian", 0.0, (0.0, 1.0), both),
        (rd.weight_height(), lambda t: t + 0.0 * t, lambda t: 1.0 + 0.0 * t,
         lambda t: 0.0 * t, "height", 0.0, (1.0, 0.0), both)]
    for a, k in ((-0.3, 3.0), (0.5, 2), (0.15, 3.0), (-0.8, 2.5), (0.7, 0.5), (2.0, -1.0)):
        cases.append((rd.weight_power(a, k), lambda t, a=a, k=k: a * np.power(t, k),
                      lambda t, a=a, k=k: a * k * np.power(t, k - 1),
                      lambda t, a=a, k=k: a * k * (k - 1) * np.power(t, k - 2),
                      f"power(a={a}, k={k})", 0.0 if k >= 1 else 1e-8, None,
                      both if k == round(k) and k > 0 else t))
    return cases


def _ulps(x, y):
    """Largest distance of x from y in units of the last place."""
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    gap = np.abs(x - y) / np.spacing(np.maximum(np.abs(x), np.abs(y)))
    return float(np.max(np.where(x == y, 0.0, gap)))


@pytest.mark.parametrize("case", _closed_forms(), ids=lambda case: case[4])
def test_catalog_trees_keep_the_closed_forms(case):
    # the values to the bit, on floats and arrays; derivatives within one
    # ulp: the measured maximum, reached by sinh(s t)/s for s != 1, whose
    # dual derivative is (cosh(s t) s)/s.  A number times a power folds
    # into its derivative as (a k) t^(k-1), so power's derivatives keep
    # their bits
    profile, fn, d1, d2, name, t_min, linear, t = case
    assert (profile.name, profile.t_min, profile.linear) == (name, t_min, linear)
    assert np.array_equal(profile.value(t), fn(t))
    assert all(profile.value(x) == fn(x) for x in t[::97].tolist())
    assert _ulps(profile.deriv(t), d1(t)) <= (1.0 if name.startswith("hyperbolic") else 0.0)
    assert _ulps(profile.second(t), d2(t)) <= (1.0 if name.startswith("hyperbolic") else 0.0)
    for x in t[::97].tolist():
        assert _ulps(profile.deriv(x), d1(x)) <= 1.0 and _ulps(profile.second(x), d2(x)) <= 1.0


def test_catalog_sources_parse_from_numpy_parameters():
    # numpy 2 writes repr(np.float64(0.5)) as "np.float64(0.5)", which is
    # no expression; the catalog writes its numbers as Python floats
    power = rd.weight_power(np.float64(0.5), np.float64(2.0))
    assert power.name == "power(a=0.5, k=2.0)" and power.value(3.0) == 4.5
    assert rd.warping_hyperbolic(np.float64(-4.0)).value(1.0) == np.sinh(2.0) / 2.0
    assert rd.RadialProfile.constant(np.float64(1.5)).value(7.0) == 1.5


def test_warping_pole_conditions_are_enforced():
    with pytest.raises(ValueError, match="pole conditions"):
        rd.WarpingFunction(lambda t: t * t, lambda t: 2 * t, name="t^2")


def test_expression_profile_second_derivative():
    p = rd.RadialProfile.from_expression("exp(-t^2/2)")
    g = math.exp(-0.5)
    assert p.value(1.0) == pytest.approx(g, rel=1e-14)
    assert p.deriv(1.0) == pytest.approx(-g, rel=1e-12)
    assert p.second(1.0) == pytest.approx(0.0, abs=1e-12)


def test_profile_without_d2_has_no_second_derivative():
    p = rd.RadialProfile(lambda t: t ** 3, lambda t: 3 * t ** 2, name="cube")
    with pytest.raises(DomainError, match="profile cube has no second derivative"):
        p.second(1.0)
    # a profile of values only, such as the drift bound of a radial weight,
    # has neither derivative
    bare = rd.RadialProfile(lambda t: t ** 3, name="cube")
    with pytest.raises(DomainError, match="profile cube has no first derivative"):
        bare.deriv(1.0)
    slope = cr.f_as_beta(rd.RadialProfile.from_expression("-t^2/2"))
    assert slope.value(2.0) == -2.0
    with pytest.raises(DomainError, match="has no first derivative"):
        slope.deriv(2.0)
    with pytest.raises(DomainError, match="has no second derivative"):
        slope.second(2.0)


# --- panel mode of the quadrature kernel ----------------------------------
#
# ``array_integrand=False`` passes a function of one float, made elementwise
# by np.vectorize: the kernel's one array call then evaluates it node by
# node, and every number must be the same.


def _peak(t):
    # narrow bump at 0.3 over a smooth background
    return 1.0 + np.exp(-((t - 0.3) / 1e-3) ** 2) + 0.0 * t


def _panel_integrand(t):
    return np.exp(-t) * np.sin(3.0 * t) + 1.0 / t


def _integrand(f, array_integrand):
    return f if array_integrand else np.vectorize(f, otypes=[float])


def _node_by_node_gk15(f, a, b):
    # the kernel's former per-node sweep: one float per call, nodes in
    # ascending order, then the same row sums
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * rd._K15_NODES
    fx = np.array([f(float(xi)) for xi in x.ravel()]).reshape(x.shape)
    k = half * (fx * rd._K15_WEIGHTS).sum(axis=1)
    g = half * (fx[:, rd._G7_IDX] * rd._G7_WEIGHTS).sum(axis=1)
    return k, np.abs(k - g)


def test_array_sweep_equals_the_node_by_node_reference():
    # integrands whose float and array evaluations agree to the last bit,
    # so that only the sweep differs
    edges = np.linspace(0.5, 3.0, 41)
    for f in (_panel_integrand, _peak, lambda t: (1.0 + t * t) / (t * (2.0 + t))):
        got = rd._gk15(f, edges[:-1], edges[1:])
        want = _node_by_node_gk15(f, edges[:-1], edges[1:])
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("array_integrand", [True, False])
def test_panel_mode_matches_per_panel_integrate(array_integrand):
    edges = np.linspace(0.5, 3.0, 41)
    f = _panel_integrand
    res = rd.integrate(_integrand(f, array_integrand), edges[:-1], edges[1:],
                       abs_tol=1e-14, rel_tol=1e-12)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        one = rd.integrate(f, lo, hi, abs_tol=1e-14, rel_tol=1e-12)
        assert res.value[i] == one.value and res.error[i] == one.error
    assert res.converged and res.subdivisions == 0
    exact = (math.log(3.0 / 0.5)
             + (np.exp(-0.5) * (np.sin(1.5) + 3 * np.cos(1.5))
                - np.exp(-3.0) * (np.sin(9.0) + 3 * np.cos(9.0))) / 10.0)
    assert res.value.sum() == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("array_integrand", [True, False])
def test_panel_mode_falls_back_to_bisection_on_failing_panels(array_integrand):
    edges = np.array([0.0, 0.25, 0.5, 1.0])
    res = rd.integrate(_integrand(_peak, array_integrand), edges[:-1], edges[1:],
                       abs_tol=1e-12, rel_tol=1e-12)
    assert res.converged and res.subdivisions > 0
    for i in range(3):
        one = rd.integrate(_peak, edges[i], edges[i + 1], abs_tol=1e-12,
                           rel_tol=1e-12)
        assert res.value[i] == one.value and res.error[i] == one.error
    # oracle: 1 + sqrt(pi) * 1e-3 (the bump lies well inside [0, 1])
    assert res.value.sum() == pytest.approx(1.0 + math.sqrt(math.pi) * 1e-3,
                                            rel=1e-12)


@pytest.mark.parametrize("array_integrand", [True, False])
def test_nonfinite_values_name_the_lowest_bad_node(array_integrand):
    def f(t):
        return np.where(t > 0.5, np.inf, 1.0) if array_integrand else (
            math.inf if t > 0.5 else 1.0)

    first_bad = 0.5 + 0.5 * 0.207784955007898    # first GK15 node above 0.5
    with pytest.raises(QuadratureError) as err:
        rd.integrate(_integrand(f, array_integrand), np.array([0.0, 1.0]),
                     np.array([1.0, 2.0]))
    assert f"t={first_bad}" in str(err.value)


def test_vectorized_overflow_is_a_quadrature_error_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="non-finite integrand value"):
            rd.integrate(lambda t: np.exp(t * t), 1.0, 45.0)


def test_an_overflowing_panel_sum_ends_unconverged():
    # every node is finite but the GK15 row sums overflow: an infinite value
    # and a NaN error, which is no converged panel
    with pytest.warns(rd.AccuracyWarning, match="estimated error nan") as caught:
        res = rd.integrate(lambda t: 1e308 + 0 * t, 0, 10)
    assert [w.category for w in caught] == [rd.AccuracyWarning]
    assert not res.converged
    assert math.isinf(res.value) and math.isnan(res.error)


# --- the array contract of profiles ------------------------------------------


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


def _contract_profiles():
    warpings = [catalogs.resolve_warping(spec) for spec in (
        {"name": "euclidean"}, {"name": "hyperbolic", "kappa": -1.5},
        {"name": "paraboloid"}, {"name": "custom", "expr": "t+0.1*t^3"})]
    weights = [catalogs.resolve_weight_profile(spec, warping=w)
               for w in warpings for spec in (
                   {"name": "logpow", "k": -2.0}, {"name": "logpow", "k": 1.5})]
    weights += [catalogs.resolve_weight_profile(spec) for spec in (
        {"name": "zero"}, {"name": "gaussian"}, {"name": "antigaussian"},
        {"name": "power", "a": -0.5, "k": 3.0}, {"name": "power", "a": 0.4, "k": 0.5},
        {"name": "custom", "expr": "-0.3*t^2+0.5*log(1+t^2)"})]
    return warpings + weights + [
        rd.RadialProfile.constant(2.5),
        rd.RadialProfile.from_expression("t^3 - log(1 + t^2)"),
        rd.RadialProfile.from_expression("2"),
        rd.RadialProfile.from_expression("abs(t - 1)")]


def test_profiles_evaluate_arrays_elementwise():
    ts = np.linspace(0.3, 6.0, 12).reshape(3, 4)
    for p in _contract_profiles():
        for fn in (p.value, p.deriv, p.second):
            out = fn(ts)
            assert out.shape == ts.shape, p.name
            scalar = [fn(float(t)) for t in ts.ravel()]
            assert np.allclose(out.ravel(), scalar, rtol=1e-14, atol=1e-15), p.name
