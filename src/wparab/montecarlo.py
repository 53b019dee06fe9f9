"""Monte Carlo verification via the drift diffusion of the weighted Laplacian.

Euler--Maruyama paths on the parameter domain of an immersion, with
counter-based per-batch random streams (Philox) so that serial and parallel
executions agree bit-for-bit.  Hitting probabilities of extrinsic annulus
boundaries estimate the capacity potential; they are compared against the
transplanted radial potential of the comparison model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .criteria import ComparisonSetup, classify_hyperbolic, classify_parabolic
from .errors import ComparisonRefusal, DomainError
from .geometry import (ImmersedSubmanifold, ZeroWeight, chart_point,
                       intrinsic_data, intrinsic_drift, weighted_laplacian)
from .verdicts import Outcome

_WILSON_Z = 1.959963984540054  # 95% two-sided normal quantile


def wilson_interval(successes, trials):
    """Wilson score interval; correct coverage near the endpoints."""
    if trials == 0:
        return 0.0, 1.0
    z = _WILSON_Z
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials
                                   + z * z / (4.0 * trials * trials))
    return center - half, center + half


def _sym_sqrt(mat):
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


@dataclass
class DiffusionSpec:
    """Immutable description of the chart diffusion generated by the
    weighted Laplacian: drift b = -g^{ij}Gamma^k_ij + g^{kj}d_j(h o X),
    diffusion factor the symmetric square root of 2 g^{-1}."""

    P: ImmersedSubmanifold
    dtau: float
    seed: int
    batch_size: int = 20_000
    max_steps: int = 400_000

    def __post_init__(self):
        if self.P.linear is not None:
            base, B = self.P.linear
            base = np.asarray(base, dtype=float)
            B = np.asarray(B, dtype=float)
            metric = B.T @ B
            metric_inv = np.linalg.inv(metric)
            sigma = _sym_sqrt(2.0 * metric_inv)
            weight = self.P.ambient.weight
            pull = B @ metric_inv

            def drift(U):
                pts = base[None, :] + U @ B.T
                grads = weight.grad_batch(pts)
                if grads is None:
                    grads = np.array([weight.grad(p) for p in pts])
                return grads @ pull

            def radius(U):
                pts = base[None, :] + U @ B.T
                return np.linalg.norm(pts, axis=1)

            object.__setattr__(self, "_drift", drift)
            object.__setattr__(self, "_radius", radius)
            object.__setattr__(self, "_sigma", sigma)
        else:
            amb = self.P.ambient

            def drift(U):
                return np.array([intrinsic_drift(self.P, u)[0] for u in U])

            def radius(U):
                return np.array([amb.r(chart_point(self.P, u)) for u in U])

            object.__setattr__(self, "_drift", drift)
            object.__setattr__(self, "_radius", radius)
            object.__setattr__(self, "_sigma", None)

    def drift(self, U):
        return self._drift(U)

    def radius(self, U):
        return self._radius(U)

    def sigma_at(self, u):
        if self._sigma is not None:
            return self._sigma
        _, g_inv, _, _ = intrinsic_data(self.P, u)
        return _sym_sqrt(2.0 * g_inv)

    @property
    def constant_sigma(self):
        return self._sigma


@dataclass
class HitEstimate:
    """Estimated probability of reaching the inner boundary first."""

    p_hat: float
    n_paths: int
    n_inner: int
    n_outer: int
    n_unresolved: int
    ci_low: float
    ci_high: float
    mean_exit_time: float
    coarse_step_fraction: float
    rho: float
    R: float
    dtau: float
    seed: int
    warnings: list = field(default_factory=list)

    @property
    def standard_error(self):
        resolved = self.n_inner + self.n_outer
        if resolved == 0:
            return float("inf")
        return math.sqrt(max(self.p_hat * (1.0 - self.p_hat), 1e-300) / resolved)

    def to_dict(self):
        return {
            "p_hat": self.p_hat, "n_paths": self.n_paths,
            "n_inner": self.n_inner, "n_outer": self.n_outer,
            "n_unresolved": self.n_unresolved,
            "ci_low": self.ci_low, "ci_high": self.ci_high,
            "mean_exit_time": self.mean_exit_time,
            "coarse_step_fraction": self.coarse_step_fraction,
            "rho": self.rho, "R": self.R, "dtau": self.dtau, "seed": self.seed,
            "warnings": list(self.warnings),
        }


def default_step(rho, R):
    return 1e-4 * (R - rho) ** 2


def hit_probability(spec: DiffusionSpec, start, rho, R, N):
    """Fraction of paths reaching {r <= rho} before {r >= R}.

    Paths advance by Euler--Maruyama; boundary crossings are located by
    linear interpolation of the radius between consecutive steps.
    Deterministic for a given (spec, seed): path batches draw from
    independent counter-based streams keyed by (seed, batch index).
    """
    start = np.asarray(start, dtype=float)
    if not rho < R:
        raise DomainError("need rho < R")
    if N < 1:
        raise DomainError(f"need at least one path, got N={N}")
    r0 = float(spec.radius(start[None, :])[0])
    if r0 <= rho:
        return HitEstimate(1.0, N, N, 0, 0, 1.0, 1.0, 0.0, 0.0,
                           rho, R, spec.dtau, spec.seed)
    if r0 >= R:
        return HitEstimate(0.0, N, 0, N, 0, 0.0, 0.0, 0.0, 0.0,
                           rho, R, spec.dtau, spec.seed)
    if spec.constant_sigma is None:
        raise DomainError(
            "path simulation requires an affine chart (use the generic "
            "generator check for curved charts)")

    dtau = spec.dtau
    sqrt2dt = math.sqrt(2.0 * dtau)
    sigma = spec.constant_sigma
    sigma_T = None if np.allclose(sigma, math.sqrt(2.0) * np.eye(len(sigma)),
                                  atol=1e-14) else (sigma / math.sqrt(2.0)).T
    drift_is_zero = isinstance(getattr(spec.P.ambient, "weight", None), ZeroWeight)
    base, basis = spec.P.linear
    radius_is_param_norm = (not np.any(np.asarray(base))
                            and np.allclose(np.asarray(basis).T @ np.asarray(basis),
                                            np.eye(np.asarray(basis).shape[1]),
                                            atol=1e-13))
    coarse_limit = (R - rho) / 10.0

    n_inner = n_outer = n_unresolved = 0
    exit_time_sums = []
    n_steps_total = 0
    n_coarse = 0

    n_batches = (N + spec.batch_size - 1) // spec.batch_size
    for b in range(n_batches):
        nb = min(spec.batch_size, N - b * spec.batch_size)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=(int(spec.seed), b))))
        dim = len(start)
        U = np.tile(start, (nb, 1))
        r_old = np.full(nb, r0)
        alive = np.ones(nb, dtype=bool)
        n_alive = nb
        buf = np.empty((nb, dim))
        exits = 0.0
        for step in range(spec.max_steps):
            if n_alive == 0:
                break
            cur = len(U)
            noise = buf[:cur]
            rng.standard_normal(out=noise)
            if sigma_T is not None:
                noise = noise @ sigma_T
            if drift_is_zero:
                U += sqrt2dt * noise
            else:
                U += spec.drift(U) * dtau + sqrt2dt * noise
            r_new = (np.sqrt(np.einsum("ij,ij->i", U, U))
                     if radius_is_param_norm else spec.radius(U))
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
                U = np.ascontiguousarray(U[alive])
                r_old = np.ascontiguousarray(r_old[alive])
                alive = np.ones(n_alive, dtype=bool)
        n_unresolved += n_alive
        exit_time_sums.append(exits)

    resolved = n_inner + n_outer
    p_hat = n_inner / resolved if resolved else float("nan")
    lo, hi = wilson_interval(n_inner, resolved)
    mean_exit = math.fsum(exit_time_sums) / resolved if resolved else float("nan")
    coarse_frac = n_coarse / n_steps_total if n_steps_total else 0.0
    warns = []
    if coarse_frac > 0.01:
        warns.append(
            f"step size too coarse: radial increment exceeded (R-rho)/10 on "
            f"{100 * coarse_frac:.2f}% of steps")
    if n_unresolved:
        warns.append(f"{n_unresolved} paths did not exit within "
                     f"{spec.max_steps} steps (excluded from the estimate)")
    return HitEstimate(p_hat, N, n_inner, n_outer, n_unresolved, lo, hi,
                       mean_exit, coarse_frac, rho, R, spec.dtau, spec.seed,
                       warns)


@dataclass
class ComparisonReport:
    direction: str
    p_hat: float
    phi: float
    standard_error: float
    margin: float
    passed: bool
    estimate: HitEstimate
    start_radius: float

    def to_dict(self):
        return {
            "direction": self.direction, "p_hat": self.p_hat, "phi": self.phi,
            "standard_error": self.standard_error, "margin": self.margin,
            "passed": self.passed, "start_radius": self.start_radius,
            "estimate": self.estimate.to_dict(),
        }


def comparison_check(spec: DiffusionSpec, setup: ComparisonSetup, start,
                     rho, R, N, direction="parabolic",
                     assume_drift_bound=True, window=None):
    """Check the hitting estimate against the transplanted radial potential.

    Under the parabolic comparison the prediction is
    p_hat <= phi(r(start)) + 3 SE; under the hyperbolic one
    p_hat >= phi - 3 SE.  If the corresponding classification does not fire
    for this setup, the check refuses: the inequality is not predicted.
    """
    if direction == "parabolic":
        verdict = classify_parabolic(setup, spec.P, window, assume_drift_bound)
        wanted = Outcome.PARABOLIC
    elif direction == "hyperbolic":
        verdict = classify_hyperbolic(setup, spec.P, window, assume_drift_bound)
        wanted = Outcome.HYPERBOLIC
    else:
        raise DomainError(f"unknown direction {direction!r}")
    if verdict.outcome is not wanted:
        failing = [c.to_dict() for c in verdict.checks if not c.holds]
        raise ComparisonRefusal(
            f"comparison not predicted: {direction} classification returned "
            f"{verdict.outcome.value} (failing checks: {failing}; "
            f"integral: {verdict.integral_evidence.status})")

    start = np.asarray(start, dtype=float)
    r_start = float(spec.radius(start[None, :])[0])
    phi = setup.model.capacity_potential(rho, R).potential(r_start)
    est = hit_probability(spec, start, rho, R, N)
    se = est.standard_error
    if direction == "parabolic":
        margin = phi + 3.0 * se - est.p_hat
    else:
        margin = est.p_hat - (phi - 3.0 * se)
    return ComparisonReport(direction=direction, p_hat=est.p_hat, phi=phi,
                            standard_error=se, margin=margin,
                            passed=margin >= 0.0, estimate=est,
                            start_radius=r_start)


@dataclass
class RecurrenceProbe:
    radii: list
    estimates: list
    monotone_increasing: bool
    limit_estimate: float

    def to_dict(self):
        return {
            "radii": list(self.radii),
            "p_hats": [e.p_hat for e in self.estimates],
            "ci": [[e.ci_low, e.ci_high] for e in self.estimates],
            "monotone_increasing": self.monotone_increasing,
            "limit_estimate": self.limit_estimate,
        }


def recurrence_probe(spec: DiffusionSpec, start, rho, R_schedule, N):
    """Trend of hitting probabilities as the outer radius doubles.

    A parabolic scenario drives the estimates toward 1; a hyperbolic one
    leaves them capped below 1.  Each radius uses an independent stream
    derived from the master seed.
    """
    estimates = []
    for i, R in enumerate(R_schedule):
        sub = DiffusionSpec(spec.P, spec.dtau, spec.seed + 7919 * (i + 1),
                            spec.batch_size, spec.max_steps)
        estimates.append(hit_probability(sub, start, rho, R, N))
    p = [e.p_hat for e in estimates]
    monotone = all(p[i + 1] >= p[i] - 2.0 * estimates[i].standard_error
                   for i in range(len(p) - 1))
    # geometric extrapolation of the remaining increments
    if len(p) >= 3 and p[-2] > p[-3] and (p[-1] - p[-2]) > 0:
        ratio = (p[-1] - p[-2]) / (p[-2] - p[-3])
        ratio = min(ratio, 0.95)
        limit = p[-1] + (p[-1] - p[-2]) * ratio / (1.0 - ratio)
    else:
        limit = p[-1]
    return RecurrenceProbe(list(R_schedule), estimates, monotone,
                           min(limit, 1.0))


@dataclass
class GeneratorCheck:
    estimate: float
    exact: float
    standard_error: float
    dtau: float

    @property
    def z_score(self):
        return (self.estimate - self.exact) / self.standard_error


def generator_consistency(P, u, fld, n_samples=200_000, dtau=1e-3, seed=0):
    """One-step empirical generator vs the weighted Laplacian at a point.

    Antithetic increments cancel the first-order martingale term, so the
    statistical error scales with the second-order fluctuation.  The bias
    is O(dtau).
    """
    u = np.asarray(u, dtype=float)
    b, g_inv = intrinsic_drift(P, u)
    sigma = _sym_sqrt(2.0 * g_inv)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(int(seed), 0xA5))))
    W = rng.standard_normal((n_samples, len(u)))
    shift = u + b * dtau
    plus = shift[None, :] + math.sqrt(dtau) * (W @ sigma.T)
    minus = shift[None, :] - math.sqrt(dtau) * (W @ sigma.T)
    f0 = fld(u)
    vals = np.empty(n_samples)
    for i in range(n_samples):
        vals[i] = 0.5 * (fld(plus[i]) + fld(minus[i])) - f0
    est = float(np.mean(vals)) / dtau
    se = float(np.std(vals, ddof=1)) / math.sqrt(n_samples) / dtau
    exact = weighted_laplacian(P, u, fld)
    return GeneratorCheck(est, exact, se, dtau)
