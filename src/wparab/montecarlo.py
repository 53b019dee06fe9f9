"""Monte Carlo verification via the drift diffusion of the weighted Laplacian.

Paths on the parameter domain of an affine immersion: walk-on-spheres when
the ambient weight is zero, otherwise Heun steps in the bulk and
drift-corrected exit jumps from small spheres near the boundary, with
counter-based per-batch random streams (Philox) so that serial and
parallel executions agree bit-for-bit.  Hitting probabilities of
extrinsic annulus boundaries estimate the capacity potential; they are
compared against the transplanted radial potential of the comparison model.

A batch of N paths on an n-dimensional chart is stored coordinate-major,
shape (n, N), so that every operation runs along the long path axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .criteria import ComparisonSetup, classify_hyperbolic, classify_parabolic
from .errors import ComparisonRefusal, DomainError
from .fields import COUNT, POSITIVE, SEED, is_number
from .geometry import (ImmersedSubmanifold, RadialWeight, ZeroWeight, _drift,
                       field_values, geometry_at_batch, weighted_laplacian)
from .verdicts import INTERNAL, Outcome, Record

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


def _radii(X):
    """Column norms of X (m, N): np.linalg.norm(X, axis=0) to the bit,
    as numpy adds the rows of a C-contiguous array in order."""
    return np.sqrt((X * X).sum(axis=0))


def _normals(rng, U):
    """Standard normals shaped like U (n, N), C-contiguous.  They are drawn
    as N rows of n, so each path gets the same draws whatever the layout."""
    return rng.standard_normal(U.shape[::-1]).T.copy()


@dataclass
class DiffusionSpec:
    """Immutable description of the diffusion generated by the weighted
    Laplacian on an affine chart X(u) = base + basis u: drift
    g^{-1} basis^T grad h, diffusion factor the symmetric square root of
    2 g^{-1}, with the constant metric g = basis^T basis.  ``driftless``
    holds when the ambient weight is ``ZeroWeight``.  ``dtau`` caps the
    time step of drifted paths and bounds the layer where they jump (see
    ``default_step``); walk-on-spheres does not use it.  Parameter points U are stacks of shape (n, N), one column
    per path, and so are their ambient points (m, N) and drifts (n, N)."""

    P: ImmersedSubmanifold
    dtau: float
    seed: int
    batch_size: int = 20_000
    max_steps: int = 400_000

    def __post_init__(self):
        self.batch_size = COUNT.check(self.batch_size, "batch_size", {})
        self.max_steps = COUNT.check(self.max_steps, "max_steps", {})
        self.seed = SEED.check(self.seed, "seed", {})
        self.dtau = POSITIVE.check(self.dtau, "dtau", {})
        if self.P.linear is None:
            raise DomainError(
                "path simulation requires an affine chart (use the generic "
                "generator check for curved charts)")
        base, basis = self.P.linear
        self.base = np.asarray(base, dtype=float)
        self.basis = np.asarray(basis, dtype=float)
        metric_inv = np.linalg.inv(self.basis.T @ self.basis)
        self.sigma = _sym_sqrt(2.0 * metric_inv)
        self.pull = (self.basis @ metric_inv).T
        weight = self.P.ambient.weight
        self.driftless = isinstance(weight, ZeroWeight)
        # a radial gradient is f'(r)/r X: the loop hands in the radii it has
        self._slope_over_r = (weight.slope_over_r
                              if isinstance(weight, RadialWeight) else None)

    def parameter_point(self, start):
        """``start`` as a float vector, checked against the chart."""
        entries = list(start) if np.iterable(start) else [start]
        if not all(is_number(x) for x in entries):
            raise DomainError(f"start must be a list of numbers, got {start!r}")
        start = np.array(entries, dtype=float)
        dim = self.basis.shape[1]
        if start.shape != (dim,):
            raise DomainError(
                f"start has {start.size} coordinates but the chart has "
                f"dimension {dim}")
        if not np.all(np.isfinite(start)):
            raise DomainError(f"start must be finite, got {start.tolist()}")
        return start

    def _points(self, U):
        X = self.basis @ U
        X += self.base[:, None]  # in place: see _heun_step
        return X

    def _drift_at(self, X):
        return self.pull @ self.P.ambient.weight.grad(X.T).T

    def drift(self, U):
        """Drifts at the parameter points U from the weight's gradient."""
        return self._drift_at(self._points(U))

    def radius(self, U):
        return _radii(self._points(U))

    def radius_and_drift(self, U):
        """Ambient radii and drifts (None when driftless) at the parameter
        points U; a radial weight's gradient reads the same radii, so each
        point set's |X| is computed once."""
        X = self._points(U)
        r = _radii(X)
        if self.driftless:
            return r, None
        if self._slope_over_r is None:
            return r, self._drift_at(X)
        return r, self.pull @ (self._slope_over_r(r) * X)

    def batches(self, N):
        """Sizes and random streams of the path batches; each stream is
        keyed by (seed, batch index), so estimates are bitwise
        reproducible."""
        for b in range((N + self.batch_size - 1) // self.batch_size):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=(int(self.seed), b))))
            yield min(self.batch_size, N - b * self.batch_size), rng


WALK_ON_SPHERES = "walk-on-spheres"
HEUN_EXIT_JUMPS = "heun-exit-jumps"

KAPPA = 0.05  # a shrinking Heun step takes dt <= KAPPA d^2
EXIT_JUMP_EPS = 0.25  # a drifted path jumps where d |beta| / 2 <= this


@dataclass
class HitEstimate(Record):
    """Estimated probability of reaching the inner boundary first.

    ``shell`` is the stopping distance of paths; ``path_steps`` counts
    jumps and time steps over all paths, and ``exit_jumps`` those of them
    that were jumps: all for walk-on-spheres, the boundary-layer moves for
    ``heun-exit-jumps``."""

    p_hat: float
    n_paths: int
    n_inner: int
    n_outer: int
    n_unresolved: int
    ci_low: float
    ci_high: float
    mean_exit_time: float
    rho: float
    R: float
    dtau: float
    seed: int
    estimator: str
    shell: float
    path_steps: int
    exit_jumps: int
    warnings: list = field(default_factory=list)

    @property
    def standard_error(self):
        resolved = self.n_inner + self.n_outer
        if resolved == 0:
            return float("inf")
        return math.sqrt(max(self.p_hat * (1.0 - self.p_hat), 1e-300) / resolved)


def default_step(rho, R):
    """Default ``dtau``: the bulk step cap of drifted paths."""
    return 1e-3 * (R - rho) ** 2


def _shell(rho, R):
    return 1e-4 * (R - rho)


def _estimate(spec, rho, R, N, n_inner, n_outer, exit_time_sum, path_steps,
              exit_jumps, estimator, shell):
    unit = "jumps" if estimator == WALK_ON_SPHERES else "steps"
    resolved = n_inner + n_outer
    if not resolved:
        raise DomainError(f"no path exited within max_steps = {spec.max_steps} "
                          f"{unit}, so there is no estimate")
    n_unresolved = N - resolved
    lo, hi = wilson_interval(n_inner, resolved)
    warns = []
    if n_unresolved:
        warns.append(f"{n_unresolved} paths did not exit within "
                     f"{spec.max_steps} {unit} (excluded from the estimate)")
    return HitEstimate(n_inner / resolved, N, n_inner, n_outer, n_unresolved,
                       lo, hi, exit_time_sum / resolved, rho, R, spec.dtau,
                       spec.seed, estimator, shell, path_steps, exit_jumps,
                       warns)


def hit_probability(spec: DiffusionSpec, start, rho, R, N):
    """Fraction of paths reaching {r <= rho} before {r >= R}.

    Driftless specs walk on spheres (``_sphere_jump``); drifted ones take
    Heun steps in the bulk and exit jumps near the boundary
    (``_heun_exit_jump``).  Deterministic for a
    given (spec, seed): path batches draw from independent counter-based
    streams keyed by (seed, batch index).
    """
    start = spec.parameter_point(start)
    if not rho < R:
        raise DomainError("need rho < R")
    if N < 1:
        raise DomainError(f"need at least one path, got N={N}")
    r0 = float(spec.radius(start[:, None])[0])
    name = WALK_ON_SPHERES if spec.driftless else HEUN_EXIT_JUMPS
    if rho < r0 < R:
        move = _sphere_jump(spec) if spec.driftless else _heun_exit_jump(spec)
        return _shell_walk(spec, start, rho, R, N, name, move)
    inside = N if r0 <= rho else 0
    p = inside / N
    return HitEstimate(p, N, inside, N - inside, 0, p, p, 0.0, rho, R,
                       spec.dtau, spec.seed, name, _shell(rho, R), 0, 0)


def _shell_walk(spec: DiffusionSpec, start, rho, R, N, estimator, move):
    """The path loop of walk-on-spheres and of the drifted estimator.

    With d = min(r - rho, R - r), a path stops once d < 1e-4 (R - rho), the
    shell, and counts for the nearer boundary; a path that moved beyond a
    boundary has d < 0 and counts for the boundary it crossed.  Every other
    path moves by ``move(rng, U, b, d)``, which takes the live paths'
    points U (n, N), drifts b (n, N) or None and distances d (N,), and
    returns the new points with their radii, drifts, the time each path
    spent and the number of paths that jumped.  ``max_steps`` caps the
    moves of a path.
    """
    shell = _shell(rho, R)
    n_inner = n_outer = path_steps = exit_jumps = 0
    exit_time_sums = []
    for nb, rng in spec.batches(N):
        U = np.repeat(start[:, None], nb, axis=1)
        r, b = spec.radius_and_drift(U)
        T = np.zeros(nb)
        exits = 0.0
        for step in range(spec.max_steps + 1):
            to_inner = r - rho
            to_outer = R - r
            d = np.minimum(to_inner, to_outer)
            done = d < shell
            n_done = int(np.count_nonzero(done))
            if n_done:
                n_in = int(np.count_nonzero(done & (to_inner <= to_outer)))
                n_inner += n_in
                n_outer += n_done - n_in
                exits += float(np.sum(T[done]))
                live = np.flatnonzero(~done)
                U, T, d = U.take(live, 1), T.take(live), d.take(live)
                b = None if b is None else b.take(live, 1)
            if len(d) == 0 or step == spec.max_steps:
                break
            U, r, b, dt, jumps = move(rng, U, b, d)
            T += dt
            path_steps += len(d)
            exit_jumps += jumps
        exit_time_sums.append(exits)
    return _estimate(spec, rho, R, N, n_inner, n_outer,
                     math.fsum(exit_time_sums), path_steps, exit_jumps,
                     estimator, shell)


def _sphere_jump(spec: DiffusionSpec):
    """The move of walk-on-spheres (Muller 1956) on a driftless affine chart.

    Each jump goes to a uniform point of the largest in-plane sphere that
    d = min(r - rho, R - r) guarantees inside the annulus (exact for planes
    through the origin, conservative for offset planes); in parameter
    coordinates the step is d theta g^{-1/2}.  Its time is d^2 / (2n), the
    mean exit time of the ball for the generator Delta_g.
    """
    dim = spec.basis.shape[1]
    jump = spec.sigma / math.sqrt(2.0)

    def move(rng, U, b, d):
        U += _sphere_steps(jump, _normals(rng, U), d)
        return U, spec.radius(U), None, d * d / (2.0 * dim), len(d)

    return move


def _sphere_steps(jump, xi, d):
    """Steps d theta g^{-1/2} to uniform points of the g-spheres of radii d,
    theta = xi / |xi| from the normals xi (n, N), which are overwritten;
    ``jump`` is g^{-1/2}."""
    xi *= d / np.sqrt((xi * xi).sum(axis=0))
    return jump @ xi


def _heun(spec: DiffusionSpec, U, b, d, speed, xi):
    """One Heun predictor--corrector step of the drift diffusion that
    shrinks near the boundary (Milstein & Tretyakov, Stochastic Numerics
    for Mathematical Physics, 2004): the new points and the time steps,
    from the points U, drifts b, their lengths speed = |b|_g, distances d
    and standard normals xi of the paths.

    A step takes dt = min(KAPPA d^2, dtau, d / (2 |b|_g)),
    U* = U + b(U) dt + sqrt(2 dt) xi g^{-1/2}, then
    U' = U + (b(U) + b(U*)) dt / 2 + the same noise.  The corrector removes
    the O(dt) inflation of the bulk variance that a plain Euler drift
    brings in; b(U') is the next step's b(U), so a step costs two drift
    evaluations.  The last cap lets the drift carry a path at most half its
    distance to the boundary, which keeps a stiff drift (h = -200 r^2, say)
    from throwing paths across the annulus.
    """
    dt = np.minimum(np.minimum(KAPPA * d * d, spec.dtau),
                    0.5 * d / np.maximum(speed, 1e-300))
    # U* = U + b dt + noise and U' = U + (b + b(U*)) dt / 2 + noise, built
    # in place: from 1e4 paths on, a fresh (n, N) array costs about as much
    # as the arithmetic that fills it
    noise = spec.sigma @ xi
    noise *= np.sqrt(dt)
    predictor = b * dt
    predictor += U
    predictor += noise
    _, step = spec.radius_and_drift(predictor)
    step += b
    step *= 0.5 * dt
    step += U
    step += noise
    return step, dt


def _heun_step(spec: DiffusionSpec):
    """The Heun move on its own: every path takes one step of ``_heun``."""
    metric = spec.basis.T @ spec.basis

    def move(rng, U, b, d):
        speed = np.sqrt(((metric @ b) * b).sum(axis=0))
        U, dt = _heun(spec, U, b, d, speed, _normals(rng, U))
        r, b = spec.radius_and_drift(U)
        return U, r, b, dt

    return move


def _heun_exit_jump(spec: DiffusionSpec):
    """The move of ``heun-exit-jumps``: Heun steps in the bulk, exit jumps
    from small spheres in the boundary layer.

    A path jumps where a Heun step would shrink below dtau (KAPPA d^2 <
    dtau) and the drift is weak across the ball of radius d:
    d |beta| / 2 <= EXIT_JUMP_EPS, with beta = g^{1/2} b the drift in
    orthonormal coordinates.  The jump goes to U + d g^{-1/2} theta, theta
    drawn from the first-order exit law of the ball under a constant drift,
    with density proportional to 1 + (d/2) <beta, theta> on the unit sphere
    (the random walk over small spheres of Milstein & Tretyakov, Stochastic
    Numerics for Mathematical Physics, 2004; Muller's walk-on-spheres when
    b = 0).  theta = xi / |xi| comes from the step's own normals and is
    kept with probability (1 + (d/2) <beta, theta>) / 2, otherwise
    replaced by -theta: one uniform a jump, no rejection.  It lands at
    g-distance d, inside the annulus, and takes the time d^2 / (2n).  Every
    other path takes a Heun step (``_heun``).  The step is computed for all
    paths and then replaced by the jumps: splitting the batch into the two
    kinds of path would save the jumping paths' predictor drift, but the
    copies cost more than that drift.
    """
    dim = spec.basis.shape[1]
    metric = spec.basis.T @ spec.basis
    jump = spec.sigma / math.sqrt(2.0)

    def move(rng, U, b, d):
        gb = metric @ b
        speed = np.sqrt((gb * b).sum(axis=0))
        xi = _normals(rng, U)
        jumping = (KAPPA * d * d < spec.dtau) & (0.5 * d * speed
                                                  <= EXIT_JUMP_EPS)
        jumps = np.flatnonzero(jumping)
        moved, dt = _heun(spec, U, b, d, speed, xi)
        if len(jumps):
            d = d.take(jumps)
            shift = _sphere_steps(jump, xi.take(jumps, 1), d)
            # d <beta, theta> = b^T g shift
            keep = rng.random(len(jumps)) < 0.5 + 0.25 * (
                gb.take(jumps, 1) * shift).sum(axis=0)
            shift *= np.where(keep, 1.0, -1.0)
            shift += U.take(jumps, 1)
            moved[:, jumps] = shift
            dt[jumps] = d * d / (2.0 * dim)
        r, b = spec.radius_and_drift(moved)
        return moved, r, b, dt, len(jumps)

    return move


@dataclass
class ComparisonReport(Record):
    direction: str
    p_hat: float
    phi: float
    standard_error: float
    margin: float
    passed: bool
    start_radius: float
    estimate: HitEstimate


def comparison_check(spec: DiffusionSpec, setup: ComparisonSetup, start,
                     rho, R, N, direction="parabolic",
                     assume_drift_bound=True, window=None):
    """Check the hitting estimate against the transplanted radial potential.

    Under the parabolic comparison the prediction is
    p_hat <= phi(r(start)) + 3 SE; under the hyperbolic one
    p_hat >= phi - 3 SE.  If the corresponding classification does not fire
    for this setup, the check refuses: the inequality is not predicted.
    """
    start = spec.parameter_point(start)
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

    r_start = float(spec.radius(start[:, None])[0])
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
class RecurrenceProbe(Record):
    radii: list
    p_hats: list
    ci: list                    # [ci_low, ci_high] of each estimate
    monotone_increasing: bool
    limit_estimate: float
    estimates: list = field(default_factory=list, metadata=INTERNAL)


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
    return RecurrenceProbe(list(R_schedule), p, [[e.ci_low, e.ci_high] for e in estimates],
                           monotone, min(limit, 1.0), estimates)


@dataclass
class GeneratorCheck:
    estimate: float
    exact: float
    standard_error: float
    dtau: float


def generator_consistency(P, u, fld, n_samples=200_000, dtau=1e-3, seed=0):
    """One-step empirical generator vs the weighted Laplacian at a point.

    Antithetic increments cancel the first-order martingale term, so the
    statistical error scales with the second-order fluctuation.  The bias
    is O(dtau).  ``fld`` is a dual-friendly field of parameter columns (see
    ``geometry.field_values``).
    """
    u = np.asarray(u, dtype=float)
    sample = geometry_at_batch(P, u[None])
    b, g_inv = _drift(sample)[0], sample.metric_inv[0]
    sigma = _sym_sqrt(2.0 * g_inv)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(int(seed), 0xA5))))
    W = rng.standard_normal((n_samples, len(u)))
    shift = u + b * dtau
    plus = shift[None, :] + math.sqrt(dtau) * (W @ sigma.T)
    minus = shift[None, :] - math.sqrt(dtau) * (W @ sigma.T)
    f = field_values(fld, np.concatenate([u[None], plus, minus]))
    vals = 0.5 * (f[1:n_samples + 1] + f[n_samples + 1:]) - f[0]
    est = float(np.mean(vals)) / dtau
    se = float(np.std(vals, ddof=1)) / math.sqrt(n_samples) / dtau
    exact = float(weighted_laplacian(sample, fld)[0])
    return GeneratorCheck(est, exact, se, dtau)
