"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Monte Carlo criteria use counter-based seeded streams, so every number
below is reproducible; the long-running hitting simulations are the only
tests above a few seconds.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wparab import cli
from wparab import criteria as cr
from wparab import geometry as ge
from wparab import montecarlo as mc
from wparab import radial as rd
from wparab.model import WeightedModel
from wparab.verdicts import Outcome

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(num, ok, description):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num}: {description}"


def euclid(m, weight=None):
    return WeightedModel(m, rd.warping_euclidean(), weight or rd.weight_zero())


def gaussian_weight():
    return ge.RadialWeight(rd.weight_gaussian())


NEG_T = rd.RadialProfile(lambda t: -t, lambda t: -1.0 + 0 * t,
                         lambda t: 0.0 * t, name="-t")


def test_acceptance_01_closed_form_capacities():
    cap2 = euclid(2).capacity_potential(1.0, math.e).capacity
    cap3 = euclid(3).capacity_potential(1.0, 2.0).capacity
    ok = abs(cap2 - 2 * math.pi) <= 1e-8 and abs(cap3 - 8 * math.pi) <= 1e-8
    _report(1, ok, f"annulus capacities 2pi/8pi (errors {abs(cap2-2*math.pi):.2e}, "
                   f"{abs(cap3-8*math.pi):.2e})")


def test_acceptance_02_potential_ode_residuals():
    hyp = rd.warping_hyperbolic(-1.0)
    combos = [
        (WeightedModel(2, rd.warping_euclidean(), rd.weight_zero()), 1.0, math.e),
        (WeightedModel(3, rd.warping_euclidean(), rd.weight_zero()), 1.0, 2.0),
        (WeightedModel(3, rd.warping_euclidean(), rd.weight_gaussian()), 1.0, 4.0),
        (WeightedModel(2, rd.warping_euclidean(), rd.weight_gaussian()), 0.5, 3.0),
        (WeightedModel(4, rd.warping_euclidean(), rd.weight_zero()), 1.0, 3.0),
        (WeightedModel(3, rd.warping_euclidean(), rd.weight_antigaussian()), 1.0, 2.5),
        (WeightedModel(2, hyp, rd.weight_zero()), 1.0, 3.0),
        (WeightedModel(3, hyp, rd.weight_zero()), 1.0, 2.0),
        (WeightedModel(3, hyp, rd.weight_gaussian()), 0.5, 2.5),
        (WeightedModel(3, rd.warping_paraboloid(), rd.weight_zero()), 1.0, 3.0),
        (WeightedModel(3, rd.warping_euclidean(), rd.weight_power(-0.3, 3.0)), 1.0, 3.0),
        (WeightedModel(2, rd.warping_euclidean(),
                       rd.weight_logpow(-1.0, rd.warping_euclidean())), 0.5, 2.0),
    ]
    worst = 0.0
    for model, rho, R in combos:
        worst = max(worst, model.capacity_potential(rho, R).ode_residual)
    ok = worst <= 1e-6
    _report(2, ok, f"{len(combos)} capacity potentials, max ODE residual {worst:.2e}")


def test_acceptance_03_ahlfors_verdict_table():
    table = [
        (euclid(2), Outcome.PARABOLIC),
        (euclid(2, rd.weight_antigaussian()), Outcome.HYPERBOLIC),
        (euclid(3), Outcome.HYPERBOLIC),
        (euclid(4), Outcome.HYPERBOLIC),
        (euclid(3, rd.weight_gaussian()), Outcome.PARABOLIC),
        (euclid(4, rd.weight_gaussian()), Outcome.PARABOLIC),
    ]
    outcomes = [model.ahlfors_classify().outcome for model, _ in table]
    ok = all(got is want for got, (_, want) in zip(outcomes, table))
    ok = ok and all(o is not Outcome.INCONCLUSIVE for o in outcomes)
    _report(3, ok, "area-integral verdicts, zero inconclusive: "
                   + ", ".join(o.value for o in outcomes))


def test_acceptance_04_critical_radii():
    worst_sphere = 0.0
    for m, lam in ((2, 1.0), (3, 0.0), (10, 0.0), (5, 2.0)):
        model = euclid(m, rd.weight_gaussian())
        got = model.critical_sphere_radius(m - 1, lam, mode="last_above")
        want = (-lam + math.sqrt(lam * lam + 4 * (m - 1))) / 2
        worst_sphere = max(worst_sphere, abs(got - want))
    worst_cyl = max(abs(cr.critical_cylinder_radius(k) - math.sqrt(k - 1))
                    for k in (2, 3, 4))
    ok = worst_sphere <= 1e-10 and worst_cyl <= 1e-10
    _report(4, ok, f"critical radii (sphere err {worst_sphere:.1e}, "
                   f"cylinder err {worst_cyl:.1e})")


def _identity_catalog():
    euclid_weights = [None, gaussian_weight(),
                      ge.RadialWeight(rd.weight_power(-0.3, 3.0))]
    charts = []
    for w in euclid_weights:
        charts += [
            ge.euclidean_sphere(2.0, 3, w),
            ge.hyperplane(3, [0.0, 0.0, 1.0], 0.5, w),
            ge.cylinder_hypersurface(1.0, 2, 3, w),
            ge.paraboloid_graph(3, w),
            ge.helicoid(0.7, w),
        ]
    for f in (rd.weight_zero(), rd.weight_gaussian(), rd.weight_power(-0.3, 3.0)):
        model = WeightedModel(3, rd.warping_hyperbolic(-1.0), f)
        charts += [ge.model_sphere(model, 1.5), ge.radial_graph(model, 1.5, 0.3)]
    return charts


def test_acceptance_05_radial_identity_suite():
    psis = [
        rd.RadialProfile(lambda t: 0.5 * t * t, lambda t: t + 0.0 * t,
                         lambda t: 1.0 + 0.0 * t, name="t^2/2"),
        rd.RadialProfile(lambda t: np.log1p(t), lambda t: 1.0 / (1.0 + t),
                         lambda t: -1.0 / (1.0 + t) ** 2, name="log1p"),
        rd.RadialProfile(lambda t: np.exp(-0.5 * t * t),
                         lambda t: -t * np.exp(-0.5 * t * t),
                         lambda t: (t * t - 1.0) * np.exp(-0.5 * t * t),
                         name="gauss_bump"),
    ]
    rng = np.random.default_rng(271828)
    combos = 0
    worst = 0.0
    worst_sphere = 0.0
    for P in _identity_catalog():
        is_sphere = "sphere" in P.name
        for psi in psis:
            U = np.array([[lo + (hi - lo) * rng.random() for lo, hi in P.window]
                          for _ in range(10)])
            r = ge.radial_identity_residual(P, ge.geometry_at_batch(P, U), psi).max()
            combos += len(U)
            worst = max(worst, r)
            if is_sphere:
                worst_sphere = max(worst_sphere, r)
    ok = combos >= 600 and worst <= 1e-12 and worst_sphere <= 1e-12
    _report(5, ok, f"radial identity on {combos} combos: max residual "
                   f"{worst:.2e} (spheres {worst_sphere:.2e})")


def test_acceptance_06_soliton_minimality():
    mu_t = rd.RadialProfile(lambda t: t + 0.0 * t, lambda t: 1.0 + 0.0 * t,
                            lambda t: 0.0 * t, name="height")
    power = ge.RadialWeight(rd.weight_power(-0.5, 3.0))
    entries = [
        ("shrinker sphere m=3", ge.euclidean_sphere(math.sqrt(2.0), 3, gaussian_weight()),
         [[0.9, 1.3], [1.7, 4.0]]),
        ("shrinker sphere m=4", ge.euclidean_sphere(math.sqrt(3.0), 4, gaussian_weight()),
         [[1.0, 0.8, 2.0], [0.6, 1.9, 5.1]]),
        ("linear hyperplane gaussian", ge.hyperplane(3, [0, 0, 1.0], 0.0, gaussian_weight()),
         [[0.5, -0.7], [2.0, 1.0]]),
        ("linear hyperplane power", ge.hyperplane(3, [0, 1.0, 0], 0.0, power),
         [[0.5, -0.7], [1.5, 2.5]]),
        ("shrinker cylinder k=3", ge.cylinder_hypersurface(math.sqrt(2.0), 3, 4, gaussian_weight()),
         [[0.9, 2.0, 0.5], [1.2, 4.1, -1.0]]),
        ("shrinker cylinder k=4", ge.cylinder_hypersurface(math.sqrt(3.0), 4, 5, gaussian_weight()),
         [[1.0, 0.9, 2.0, 0.7], [0.8, 1.5, 3.0, -0.4]]),
        ("vertical hyperplane translator", ge.hyperplane(3, [1.0, 0, 0], 0.5,
                                                         ge.HeightWeight(mu_t, 3)),
         [[0.3, 1.2], [-1.0, 2.0]]),
        ("grim curve", ge.grim_curve(), [[0.5], [-0.9], [1.1]]),
    ]
    worst = 0.0
    for name, P, points in entries:
        for u in points:
            s = ge.geometry_at(P, u)
            worst = max(worst, float(np.linalg.norm(s.wmc_vec)))
    ok = worst <= 1e-7
    _report(6, ok, f"soliton weighted-minimality over {len(entries)} families: "
                   f"max |wmc| {worst:.2e}")


def test_acceptance_07_hyperplane_constancy():
    worst = 0.0
    for t in (0.25, 1.0, 2.5):
        value, spread = cr.hyperplane_weighted_mc(gaussian_weight(),
                                                  [0.0, 0.0, 1.0], t)
        assert value == pytest.approx(t, rel=1e-12)
        worst = max(worst, spread)
    ok = worst <= 1e-10
    _report(7, ok, f"Gaussian hyperplane curvature equals the offset, "
                   f"spread {worst:.1e} over 64 samples")


def test_acceptance_08_pipeline_verdicts():
    results = []
    for n in (2, 3):          # codimensions inside m = 3, 4
        for c in (0.0, 1.0):
            v = cr.classify_radial_weight(rd.warping_euclidean(), n,
                                          rd.weight_gaussian(), c=c,
                                          direction="parabolic")
            results.append(("shrinker", n, c, v.outcome is Outcome.PARABOLIC))
    for n in (2, 3):
        v = cr.classify_radial_weight(rd.warping_euclidean(), n,
                                      rd.weight_antigaussian(), c=0.0,
                                      direction="hyperbolic",
                                      use_exp_integral=True)
        results.append(("expander", n, 0.0, v.outcome is Outcome.HYPERBOLIC))
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 3, 1.0,
                               rd.RadialProfile.constant(0.0))
    results.append(("minimal-n3", 3, 0.0,
                    cr.classify_hyperbolic(setup).outcome is Outcome.HYPERBOLIC))
    for n in (2, 3):
        v = cr.classify_warping_power(rd.warping_euclidean(), n, -n)
        results.append(("warping-power", n, -n, v.outcome is Outcome.PARABOLIC))
    ok = all(r[-1] for r in results)
    _report(8, ok, f"{len(results)} pipeline verdicts "
                   f"(shrinkers/expanders/minimal/power)")


def test_acceptance_09_monte_carlo_plane_potential():
    P = ge.identity_chart(2, None)
    spec = mc.DiffusionSpec(P, dtau=1e-4, seed=4, batch_size=100_000)
    est = mc.hit_probability(spec, [math.sqrt(math.e), 0.0], 1.0, math.e,
                             100_000)
    width = est.ci_high - est.ci_low
    ok = est.ci_low <= 0.5 <= est.ci_high and width <= 0.01
    _report(9, ok, f"plane annulus hitting: p={est.p_hat:.5f}, "
                   f"CI ({est.ci_low:.5f}, {est.ci_high:.5f}), width {width:.4f}")


def test_acceptance_10_comparison_inequalities():
    # parabolic side: Gaussian 2-plane in weighted 3-space
    plane = ge.coordinate_plane(3, (0, 1), gaussian_weight())
    setup = cr.ComparisonSetup(rd.warping_euclidean(), 2, math.sqrt(2.0), NEG_T)
    drift = cr._drift_check(setup, plane, ((0.5, 4.0), (0.5, 4.0)), "upper",
                            assume_bound=True)
    spec = mc.DiffusionSpec(plane, dtau=mc.default_step(1.0, 4.0), seed=8,
                            batch_size=100_000)
    rep_a = mc.comparison_check(spec, setup, [2.0, 0.0], 1.0, 4.0, 100_000,
                                direction="parabolic")
    # hyperbolic side: unweighted 3-plane in R^4
    plane3 = ge.coordinate_plane(4, (0, 1, 2), None)
    setup3 = cr.ComparisonSetup(rd.warping_euclidean(), 3, 1.0,
                                rd.RadialProfile.constant(0.0))
    spec3 = mc.DiffusionSpec(plane3, dtau=1e-4, seed=9, batch_size=100_000)
    rep_b = mc.comparison_check(spec3, setup3, [2.0, 0.0, 0.0], 1.0, 4.0,
                                100_000, direction="hyperbolic")
    ok = drift.holds and rep_a.passed and rep_b.passed
    _report(10, ok,
            f"comparisons: parabolic p={rep_a.p_hat:.5f} <= phi+3SE="
            f"{rep_a.phi + 3 * rep_a.standard_error:.5f}; hyperbolic "
            f"p={rep_b.p_hat:.5f} >= phi-3SE="
            f"{rep_b.phi - 3 * rep_b.standard_error:.5f}")


def test_acceptance_11_index_form_on_shrinker_sphere():
    P = ge.euclidean_sphere(math.sqrt(2.0), 3, gaussian_weight())
    q = ge.index_form(P, lambda u: 1.0,
                      box=((1e-4, math.pi - 1e-4), (0.0, 2 * math.pi)),
                      panels=8)
    want = -16 * math.pi / math.e
    ok = abs(q - want) <= 1e-4 * abs(want)
    _report(11, ok, f"stability form on the shrinker sphere: {q:.6f} vs "
                    f"{want:.6f}")


def test_acceptance_12_angle_function_identity():
    split = ge.SplitWeight(gaussian_weight(), rd.weight_gaussian(), 3)
    P = ge.paraboloid_graph(3, split)
    rng = np.random.default_rng(314159)
    U = np.array([[lo + (hi - lo) * rng.random() for lo, hi in P.window]
                  for _ in range(20)])
    worst = ge.angle_function_laplacian(P, ge.geometry_at_batch(P, U)).residual.max()
    # the constant-curvature closed form additionally pins the sign
    # conventions on genuinely constant-curvature graphs
    tilt = ge.graph_hypersurface(lambda u: 0.5 * u[0] + 0.2 + 0.0 * u[1], 3,
                                 ge.SplitWeight(gaussian_weight(),
                                                rd.weight_gaussian(), 3))
    grim = ge.grim_curve()
    worst_cmc = max(
        ge.angle_function_laplacian(tilt, ge.geometry_at_batch(tilt, [[0.3, 0.7]])).residual_cmc,
        ge.angle_function_laplacian(grim, ge.geometry_at_batch(grim, [[0.4]])).residual_cmc)[0]
    ok = worst <= 1e-12 and worst_cmc <= 1e-12
    _report(12, ok, f"angle identity: paraboloid residual {worst:.2e} over 20 "
                    f"points, constant-curvature entries {worst_cmc:.2e}")


def test_acceptance_13_cli_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "wparab.cli", "run",
             str(CONFIG_DIR / "demo.json"), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].iterdir())
    files_b = sorted(p.name for p in outs[1].iterdir())
    identical = files_a == files_b and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        for n in files_a)
    _report(13, identical, f"two CLI runs byte-identical across {files_a}")
