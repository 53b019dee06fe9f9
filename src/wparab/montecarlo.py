"""Monte Carlo verification via the drift diffusion of the weighted Laplacian.

Paths on an affine immersion: walk-on-spheres when the drift vanishes,
otherwise steps with a Brownian-bridge exit test, exact Ornstein--Uhlenbeck
steps when the drift is linear and Heun steps when it is not.  ``dtau`` is
the least step of every drifted path; a step goes below it only where the
stiff-drift cap of a Heun step requires.  Random streams are counter-based
and per batch (Philox), so that serial and parallel executions agree
bit-for-bit.
Hitting probabilities of extrinsic annulus boundaries estimate the capacity
potential; they are compared against the transplanted radial potential of
the comparison model.

Paths move in orthonormal coordinates V of the plane (``DiffusionSpec``),
where the generator is Delta + <b, grad>: a step's noise is sqrt(2 dt) xi
and the sphere of radius d around V holds the points V + d xi / |xi|, so
no move takes a matrix product.  A batch of N drifted paths in an n-plane
is stored coordinate-major, shape (n, N), so that every operation runs
along the long path axis.  A path with a radial law keeps only its in-plane
radius q = |V|, shape (1, N): walk-on-spheres moves it by the law of
|V + d theta|, an exact step by the law of |e^{lam dt} V + s xi|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .criteria import (ComparisonSetup, classify_hyperbolic, classify_parabolic,
                       comparison_outcome)
from .errors import ComparisonRefusal, DomainError
from .fields import COUNT, POSITIVE, SEED, is_number
from .geometry import ImmersedSubmanifold
from .verdicts import INTERNAL, Outcome, Record

_WILSON_Z = 1.959963984540054  # 95% two-sided normal quantile
_SQRT2 = math.sqrt(2.0)


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


def _radii(X, offset_sq=0.0):
    """sqrt(|x|^2 + offset_sq) for the columns x of X (n, N); with no offset
    np.linalg.norm(X, axis=0) to the bit, as numpy adds the rows of a
    C-contiguous array in order."""
    r = (X * X).sum(axis=0)
    r += offset_sq
    return np.sqrt(r, out=r)


def _normals(rng, U):
    """Standard normals shaped like U (n, N), C-contiguous.  They are drawn
    as N rows of n, so each path gets the same draws whatever the layout."""
    return rng.standard_normal(U.shape[::-1]).T.copy()


@dataclass
class DiffusionSpec:
    """Immutable description of the diffusion generated by the weighted
    Laplacian on an affine chart X(u) = base + basis u, with the constant
    metric g = basis^T basis.

    Paths move in the orthonormal coordinates V = g^{1/2} u + E^T base of
    the plane (``lift``), where the ``frame`` E = basis g^{-1/2} has
    orthonormal columns.  Then X = c + E V, with the ``foot``
    c = base - E E^T base the point of the plane nearest the origin, so
    r = sqrt(|V|^2 + delta^2) with delta^2 = |c|^2 (``offset_sq``).  The
    generator is Delta + <b, grad> with the drift b = E^T grad h(c + E V),
    whose class the weight declares (``AmbientWeight.plane_drift``):
    ``linear`` is the pair (lam, beta) of a linear drift lam V + beta and
    None for a general one; ``radial`` holds when beta vanishes, and
    ``driftless`` when lam does too.  ``dtau`` is the least time step of
    every drifted path, the step of the boundary layer; a ``heun-bridge``
    step goes below it only where its stiff-drift cap requires.  None
    stands for ``default_step`` of each estimate's annulus.
    Walk-on-spheres does not use it.  Points V are stacks of shape (n, N),
    one column per path, and so are their drifts (n, N) and ambient points
    (m, N).  A path whose law is radial (driftless, or lam V) keeps only
    its in-plane radius q = |V|, a "frame point" of shape (1, N): its
    radius sqrt(q^2 + delta^2) is ``radius`` of that stack."""

    P: ImmersedSubmanifold
    dtau: float | None
    seed: int
    batch_size: int = 20_000
    max_steps: int = 400_000

    def __post_init__(self):
        self.batch_size = COUNT.check(self.batch_size, "batch_size", {})
        self.max_steps = COUNT.check(self.max_steps, "max_steps", {})
        self.seed = SEED.check(self.seed, "seed", {})
        if self.dtau is not None:
            self.dtau = POSITIVE.check(self.dtau, "dtau", {})
        if self.P.linear is None:
            raise DomainError("path simulation requires an affine chart")
        self.base, self.basis = (np.asarray(a, dtype=float)
                                 for a in self.P.linear)
        self.dim = self.basis.shape[1]
        # E = W Z^T is the polar factor of basis = W S Z^T; one Newton-Schulz
        # step brings E^T E to I within an ulp or two
        W, _, Zt = np.linalg.svd(self.basis, full_matrices=False)
        E = W @ Zt
        self.frame = E @ (1.5 * np.eye(self.dim) - 0.5 * (E.T @ E))
        self.foot = self.base - self.frame @ (self.frame.T @ self.base)
        self.offset_sq = float(self.foot @ self.foot)
        drift = self.P.ambient.weight.plane_drift(self.frame, self.foot)
        # a general drift is a function of the points and of the radii
        # the loop has
        self._drift = drift if callable(drift) else None
        self.linear = None if callable(drift) else drift
        self.radial = self.linear is not None and not self.linear[1].any()
        self.driftless = self.radial and self.linear[0] == 0.0

    def parameter_point(self, start):
        """``start`` as a float vector, checked against the chart."""
        entries = list(start) if np.iterable(start) else [start]
        if not all(is_number(x) for x in entries):
            raise DomainError(f"start must be a list of numbers, got {start!r}")
        start = np.array(entries, dtype=float)
        if start.shape != (self.dim,):
            raise DomainError(
                f"start has {start.size} coordinates but the chart has "
                f"dimension {self.dim}")
        if not np.all(np.isfinite(start)):
            raise DomainError(f"start must be finite, got {start.tolist()}")
        return start

    def lift(self, U):
        """Frame points V = E^T X(U) (n, N) of the parameter points U (n, N):
        g^{1/2} U + E^T base, with |X|^2 = |V|^2 + delta^2 to an ulp or two."""
        X = self.basis @ U
        X += self.base[:, None]
        return self.frame.T @ X

    def radius(self, V):
        return _radii(V, self.offset_sq)

    def radius_and_drift(self, V):
        """Ambient radii and general drifts (None for a linear one) at the
        frame points V; a radial weight's drift reads the same radii."""
        r = self.radius(V)
        return r, None if self._drift is None else self._drift(V, r)

    def batches(self, N):
        """Sizes and random streams of the path batches; each stream is
        keyed by (seed, batch index), so estimates are bitwise
        reproducible."""
        for b in range((N + self.batch_size - 1) // self.batch_size):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=(int(self.seed), b))))
            yield min(self.batch_size, N - b * self.batch_size), rng


WALK_ON_SPHERES = "walk-on-spheres"
HEUN_BRIDGE = "heun-bridge"
OU_BRIDGE = "ou-bridge"

KAPPA = 0.05  # a drifted step above dtau takes dt <= KAPPA d^2


@dataclass
class HitEstimate(Record):
    """Estimated probability of reaching the inner boundary first.

    ``shell`` is the stopping distance of paths; ``path_steps`` counts
    the moves of all paths: jumps for walk-on-spheres, time steps for the
    drifted estimators."""

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
    warnings: list = field(default_factory=list)

    @property
    def standard_error(self):
        resolved = self.n_inner + self.n_outer
        if resolved == 0:
            return float("inf")
        return math.sqrt(max(self.p_hat * (1.0 - self.p_hat), 1e-300) / resolved)


def default_step(rho, R):
    """Default ``dtau``: the least step of drifted paths, which they take
    in the boundary layer."""
    return 1e-3 * (R - rho) ** 2


def _shell(rho, R):
    return 1e-4 * (R - rho)


def _estimate(spec, rho, R, N, n_inner, n_outer, exit_time_sum, path_steps,
              estimator, shell):
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
    if estimator in (HEUN_BRIDGE, OU_BRIDGE) and spec.dtau > default_step(rho, R):
        warns.append(f"dtau = {spec.dtau:.6g} exceeds the default step "
                     f"1e-3 (R - rho)^2 = {default_step(rho, R):.6g}; "
                     f"{estimator} estimates read low at larger steps")
    return HitEstimate(n_inner / resolved, N, n_inner, n_outer, n_unresolved,
                       lo, hi, exit_time_sum / resolved, rho, R, spec.dtau,
                       spec.seed, estimator, shell, path_steps, warns)


def hit_probability(spec: DiffusionSpec, start, rho, R, N):
    """Fraction of paths reaching {r <= rho} before {r >= R}.

    Driftless specs walk on spheres in the in-plane radius |V|
    (``_radial_jump``); drifted ones take steps with a bridge exit test
    (``_bridge``): exact steps for a linear drift (``_ou_step``), in |V|
    too when the drift is lam V, and Heun steps for any other (``_heun``).
    Deterministic for a given (spec, seed): path batches draw from
    independent counter-based streams keyed by (seed, batch index).  The
    estimate records the step it used, ``default_step(rho, R)`` for a spec
    without ``dtau``.
    """
    start = spec.lift(spec.parameter_point(start)[:, None])
    if not rho < R:
        raise DomainError("need rho < R")
    if spec.dtau is None:
        spec = replace(spec, dtau=default_step(rho, R))
    if N < 1:
        raise DomainError(f"need at least one path, got N={N}")
    r0 = float(spec.radius(start)[0])
    name = (WALK_ON_SPHERES if spec.driftless
            else HEUN_BRIDGE if spec.linear is None else OU_BRIDGE)
    if rho < r0 < R:
        # a start inside the annulus: both boundary spheres meet the plane
        if spec.driftless:
            move = _radial_jump(spec)
        else:
            step = _heun(spec) if spec.linear is None else _ou_step(spec)
            move = _bridge(spec, rho, R, spec.radial, step)
        return _shell_walk(spec, _radii(start) if spec.radial else start[:, 0],
                           rho, R, N, name, move)
    inside = N if r0 <= rho else 0
    p = inside / N
    return HitEstimate(p, N, inside, N - inside, 0, p, p, 0.0, rho, R,
                       spec.dtau, spec.seed, name, _shell(rho, R), 0)


def _shell_walk(spec: DiffusionSpec, start, rho, R, N, estimator, move):
    """The path loop of every estimator.

    A path stops once r - rho or R - r falls below 1e-4 (R - rho), the
    shell, and counts for that boundary; a path that moved beyond a
    boundary, or that the move absorbed on one by returning its radius,
    counts for the boundary it crossed.  Every other path moves by
    ``move(rng, V, b, d)`` (``_radial_jump`` or ``_bridge``), which takes
    the live paths' frame points V (n, N) or in-plane radii (1, N), drifts
    b (n, N) or None and distances d = min(r - rho, R - r) (N,), and
    returns the new points with their radii, drifts and the time each path
    spent.  ``max_steps`` caps the moves of a path.
    """
    shell = _shell(rho, R)
    n_inner = n_outer = path_steps = 0
    exit_time_sums = []
    for nb, rng in spec.batches(N):
        V = np.repeat(start[:, None], nb, axis=1)
        r, b = spec.radius_and_drift(V)
        T = np.zeros(nb)
        exits = 0.0
        for step in range(spec.max_steps + 1):
            to_inner = r - rho
            to_outer = R - r
            inner = to_inner < shell
            outer = to_outer < shell
            n_in = int(np.count_nonzero(inner))
            n_out = int(np.count_nonzero(outer))
            d = np.minimum(to_inner, to_outer)
            if n_in or n_out:
                n_inner += n_in
                n_outer += n_out
                done = inner | outer
                exits += float(np.sum(T[done]))
                live = np.flatnonzero(~done)
                V, T, d = V.take(live, 1), T.take(live), d.take(live)
                b = None if b is None else b.take(live, 1)
            if len(d) == 0 or step == spec.max_steps:
                break
            V, r, b, dt = move(rng, V, b, d)
            T += dt
            path_steps += len(d)
        exit_time_sums.append(exits)
    return _estimate(spec, rho, R, N, n_inner, n_outer,
                     math.fsum(exit_time_sums), path_steps, estimator, shell)


def _radial_jump(spec: DiffusionSpec):
    """The move of walk-on-spheres (Muller 1956) on a driftless affine chart.

    Each jump goes to a uniform point V + d theta of the largest in-plane
    sphere that d = min(r - rho, R - r) guarantees inside the annulus
    (exact for planes through the origin, conservative for offset planes).
    Its time is d^2 / (2n), the mean exit time of the ball for the generator
    Delta.  Only the in-plane radius q = |V| decides where a path stops, and
    q'^2 = q^2 + d^2 + 2 q d c with c = <V / |V|, theta>, which has the same
    law for every V (``_sphere_cosines``): the move takes and returns q,
    shape (1, N), one cosine a path.
    """
    dim, offset_sq = spec.dim, spec.offset_sq

    def move(rng, q, b, d):
        q = q[0]
        q2 = 2.0 * q * _sphere_cosines(rng, dim, len(d))
        q2 += d
        q2 *= d
        q2 += q * q
        np.maximum(q2, 0.0, out=q2)
        r = np.sqrt(q2 + offset_sq)
        return np.sqrt(q2, out=q2)[None], r, None, d * d / (2.0 * dim)

    return move


def _sphere_cosines(rng, n, N):
    """N draws of c = <e, theta> for theta uniform on the unit sphere of
    R^n and a fixed unit vector e: density proportional to
    (1 - c^2)^((n - 3) / 2) on [-1, 1], drawn exactly.  Uniforms serve the
    planes: cos(pi U) for n = 2, Archimedes' 2U - 1 for n = 3, and for
    n = 4 the first coordinate sqrt(U1) cos(2 pi U2) of a uniform point of
    the disk, onto which the uniform measure of S^3 projects; otherwise
    xi_1 / |xi| from n normals (+-1 for n = 1)."""
    if n == 2:
        return np.cos(np.pi * rng.random(N))
    if n == 3:
        return 2.0 * rng.random(N) - 1.0
    if n == 4:
        u = rng.random((2, N))
        return np.sqrt(u[0]) * np.cos(2.0 * np.pi * u[1])
    xi = rng.standard_normal((n, N))
    return xi[0] / np.sqrt((xi * xi).sum(axis=0))


def _bridge(spec: DiffusionSpec, rho, R, radial, step):
    """The move of a drifted path: one ``step`` of the diffusion and a
    Brownian-bridge exit test after it.

    ``step(rng, V, q, b, d)`` takes the live paths' frame points V (n, N),
    or in-plane radii (1, N) when ``radial``, their in-plane radii q = |V|
    (N,), drifts b (n, N) or None and distances d = min(r - rho, R - r)
    (N,), and returns the new points in V (n, N) and the steps dt (N,):
    ``_ou_step`` for a linear drift, ``_heun`` for any other.  A boundary
    sphere meets the plane in a circle of in-plane radius
    sqrt(rho^2 - delta^2) or sqrt(R^2 - delta^2).  With in-plane distances
    a and b to it at the two ends of a step, a Brownian bridge crosses it
    with probability exp(-a b / dt), the half-plane law (Baldi 1995;
    Gobet, Stoch. Proc. Appl. 87, 2000).  The test reads the circle with
    the smaller product a b and absorbs a path when a b < dt E for an
    exponential draw E, which takes every path that ended beyond it
    (b < 0).  An absorbed path returns that boundary's radius, so the
    loop counts it there, and the midpoint of its last step, dt / 2.  A
    radial move returns the new in-plane radii, shape (1, N).
    """
    offset_sq, drift = spec.offset_sq, spec._drift
    # an inner sphere that misses the plane is never reached
    a_in = math.sqrt(rho * rho - offset_sq) if rho * rho > offset_sq else -math.inf
    a_out = math.sqrt(R * R - offset_sq)

    def move(rng, V, b, d):
        q = V[0] if radial else _radii(V)
        moved, dt = step(rng, V, q, b, d)
        q1 = _radii(moved)
        inner = (q - a_in) * (q1 - a_in)
        outer = (a_out - q) * (a_out - q1)
        hit = np.minimum(inner, outer) < rng.exponential(dt)
        r = np.sqrt(q1 * q1 + offset_sq)
        b = None if drift is None else drift(moved, r)
        r[hit] = np.where(inner[hit] <= outer[hit], rho, R)
        dt[hit] *= 0.5
        return (q1[None] if radial else moved), r, b, dt

    return move


def _ou_step(spec: DiffusionSpec):
    """The step of ``ou-bridge`` for a linear drift b = lam V + beta: the
    exact transition of the diffusion.

    A step of dt is the Ornstein--Uhlenbeck transition
    V' = e^{lam dt} V + beta (e^{lam dt} - 1)/lam + s xi with n normals xi
    and s^2 = (e^{2 lam dt} - 1)/lam (beta dt and 2 dt at lam = 0).  When
    the spec is radial (beta = 0) the law of q' = |V'| depends on q = |V|
    alone, q'^2 = (e^{lam dt} q + s xi_1)^2 + s^2 (xi_2^2 + ... + xi_n^2),
    and the step may take q, shape (1, N), for V.  The step is exact at
    any dt, so the only error left is the bridge test's, which misses O(dt)
    of the crossings between steps of paths near a boundary.  Each path
    therefore takes its own step, dtau in the boundary layer and larger in
    the bulk: dt = max(dtau, min(KAPPA d^2, d / (2 bbar))), with
    bbar = |lam| (q + d) + |beta| the largest drift on the ball of radius d
    around the path, so that the drift carries a bulk step at most d / 2
    and |lam| dt <= max(|lam| dtau, 1/2).  A dtau whose e^{2 lam dtau}
    overflows is a DomainError; no larger step overflows.
    """
    lam, beta = spec.linear
    dtau, shift = spec.dtau, not spec.radial
    try:
        math.expm1(2.0 * lam * dtau)
    except OverflowError:
        raise DomainError(f"dtau = {dtau:.6g} is too large for an exact step: "
                          f"e^(2 lam dtau) overflows at lam = {lam:g}") from None
    speed, beta_norm = abs(lam), math.hypot(*beta)

    def step(rng, V, q, b, d):
        dt = np.minimum(KAPPA * d * d, 0.5 * d / (speed * (q + d) + beta_norm))
        np.maximum(dt, dtau, out=dt)
        grow = np.exp(lam * dt)
        s = np.sqrt(np.expm1(2.0 * lam * dt) / lam if lam else 2.0 * dt)
        moved = rng.standard_normal((spec.dim, len(d)))
        moved *= s
        moved[:len(V)] += grow * V
        if shift:
            moved += beta[:, None] * (np.expm1(lam * dt) / lam if lam else dt)
        return moved, dt

    return step


def _heun(spec: DiffusionSpec):
    """The step of ``heun-bridge`` for a general drift: a Heun
    predictor--corrector step (Milstein & Tretyakov, Stochastic Numerics
    for Mathematical Physics, 2004).

    A path takes dt = min(max(dtau, KAPPA d^2), d / (2 |b|)): dtau in the
    boundary layer and larger in the bulk, as ``_ou_step`` does, and never
    so large that the drift carries it more than half its distance to the
    boundary, which keeps a stiff drift (h = -200 r^2, say) from throwing
    paths across the annulus; only that cap takes a step below dtau.  With
    standard normals xi, V* = V + b(V) dt + sqrt(2) xi sqrt(dt), then
    V' = V + (b(V) + b(V*)) dt / 2 + the same noise.  The corrector removes
    the O(dt) inflation of the bulk variance that a plain Euler drift
    brings in; b(V') is the next step's b(V), so a step costs two drift
    evaluations.
    """
    dtau = spec.dtau

    def step(rng, V, q, b, d):
        dt = np.maximum(KAPPA * d * d, dtau)
        np.minimum(dt, 0.5 * d / np.maximum(_radii(b), 1e-300), out=dt)
        # V* = V + b dt + noise and V' = V + (b + b(V*)) dt / 2 + noise,
        # built in place: from 1e4 paths on, a fresh (n, N) array costs
        # about as much as the arithmetic that fills it
        noise = _normals(rng, V)
        noise *= _SQRT2
        noise *= np.sqrt(dt)
        predictor = b * dt
        predictor += V
        predictor += noise
        _, moved = spec.radius_and_drift(predictor)
        moved += b
        moved *= 0.5 * dt
        moved += V
        moved += noise
        return moved, dt

    return step


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
                     rho, R, N, direction="parabolic"):
    """Check the hitting estimate against the transplanted radial potential.

    Under the parabolic comparison the prediction is
    p_hat <= phi(r(start)) + 3 SE; under the hyperbolic one
    p_hat >= phi - 3 SE.  If the corresponding classification does not fire
    for this setup, the check refuses: the inequality is not predicted.
    The drift bound is sampled on the chart's window and assumed beyond it.
    """
    start = spec.parameter_point(start)
    wanted = comparison_outcome(direction)
    parabolic = wanted is Outcome.PARABOLIC
    classify = classify_parabolic if parabolic else classify_hyperbolic
    verdict = classify(setup, spec.P, assume_drift_bound=True)
    if verdict.outcome is not wanted:
        failing = [c.to_dict() for c in verdict.checks if not c.holds]
        raise ComparisonRefusal(
            f"comparison not predicted: {direction} classification returned "
            f"{verdict.outcome.value} (failing checks: {failing}; "
            f"integral: {verdict.integral_evidence.status})")

    r_start = float(spec.radius(spec.lift(start[:, None]))[0])
    phi = setup.model.capacity_potential(rho, R).potential(r_start)
    est = hit_probability(spec, start, rho, R, N)
    se = est.standard_error
    margin = phi + 3.0 * se - est.p_hat if parabolic else est.p_hat - (phi - 3.0 * se)
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
    derived from the master seed, and a spec without ``dtau`` the default
    step of its own annulus.
    """
    if len(R_schedule) == 0:
        raise DomainError("R_schedule is empty: a recurrence probe needs at "
                          "least one outer radius")
    estimates = [hit_probability(replace(spec, seed=spec.seed + 7919 * (i + 1)),
                                 start, rho, R, N)
                 for i, R in enumerate(R_schedule)]
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
