"""Monte Carlo verification via the drift diffusion of the weighted Laplacian.

Paths on an affine immersion: walk-on-spheres when the drift vanishes,
exact Ornstein--Uhlenbeck steps with a Brownian-bridge exit test when it is
linear, otherwise Heun steps in the bulk and drift-corrected exit jumps
from small spheres near the boundary, with counter-based per-batch random
streams (Philox) so that serial and parallel executions agree bit-for-bit.
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
    ``driftless`` when lam does too.  ``dtau`` is the time step of drifted
    paths in the boundary layer: for ``heun-exit-jumps`` a cap, which also
    bounds the layer where they jump, for ``ou-bridge`` the least step;
    None stands for ``default_step`` of each estimate's annulus.
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
HEUN_EXIT_JUMPS = "heun-exit-jumps"
OU_BRIDGE = "ou-bridge"

KAPPA = 0.05  # a shrinking Heun step takes dt <= KAPPA d^2
EXIT_JUMP_EPS = 0.25  # a drifted path jumps where d |b| / 2 <= this


@dataclass
class HitEstimate(Record):
    """Estimated probability of reaching the inner boundary first.

    ``shell`` is the stopping distance of paths; ``path_steps`` counts
    jumps and time steps over all paths, and ``exit_jumps`` those of them
    that were jumps: all for walk-on-spheres, the boundary-layer moves for
    ``heun-exit-jumps``, none for ``ou-bridge``."""

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
    """Default ``dtau``: the boundary-layer step of drifted paths (a bulk
    cap for ``heun-exit-jumps``, the least step of ``ou-bridge``)."""
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
    if estimator in (HEUN_EXIT_JUMPS, OU_BRIDGE) and spec.dtau > default_step(rho, R):
        warns.append(f"dtau = {spec.dtau:.6g} exceeds the default step "
                     f"1e-3 (R - rho)^2 = {default_step(rho, R):.6g}; "
                     f"{estimator} estimates read low at larger steps")
    return HitEstimate(n_inner / resolved, N, n_inner, n_outer, n_unresolved,
                       lo, hi, exit_time_sum / resolved, rho, R, spec.dtau,
                       spec.seed, estimator, shell, path_steps, exit_jumps,
                       warns)


def hit_probability(spec: DiffusionSpec, start, rho, R, N):
    """Fraction of paths reaching {r <= rho} before {r >= R}.

    Driftless specs walk on spheres in the in-plane radius |V|
    (``_radial_jump``); linear drifts take exact steps with a bridge exit
    test (``_ou_bridge``), in |V| too when the drift is lam V; general
    drifts take Heun steps in the bulk and exit jumps near the boundary
    (``_heun_exit_jump``).  Deterministic for a given (spec, seed): path
    batches draw from independent counter-based streams keyed by (seed,
    batch index).  The estimate records the step it used,
    ``default_step(rho, R)`` for a spec without ``dtau``.
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
            else HEUN_EXIT_JUMPS if spec.linear is None else OU_BRIDGE)
    if rho < r0 < R:
        # a start inside the annulus: both boundary spheres meet the plane
        if spec.driftless:
            move = _radial_jump(spec)
        elif spec.linear is None:
            move = _heun_exit_jump(spec)
        else:
            move = _ou_bridge(spec, rho, R, spec.radial)
        return _shell_walk(spec, _radii(start) if spec.radial else start[:, 0],
                           rho, R, N, name, move)
    inside = N if r0 <= rho else 0
    p = inside / N
    return HitEstimate(p, N, inside, N - inside, 0, p, p, 0.0, rho, R,
                       spec.dtau, spec.seed, name, _shell(rho, R), 0, 0)


def _shell_walk(spec: DiffusionSpec, start, rho, R, N, estimator, move):
    """The path loop of every estimator.

    A path stops once r - rho or R - r falls below 1e-4 (R - rho), the
    shell, and counts for that boundary; a path that moved beyond a
    boundary, or that the move absorbed on one by returning its radius,
    counts for the boundary it crossed.  Every other path moves by
    ``move(rng, V, b, d)``, which takes the live paths' frame points V
    (n, N) or in-plane radii (1, N), drifts b (n, N) or None and distances
    d = min(r - rho, R - r) (N,), and returns the new points with their
    radii, drifts, the time each path spent and the number of paths that
    jumped.  ``max_steps`` caps the moves of a path.
    """
    shell = _shell(rho, R)
    n_inner = n_outer = path_steps = exit_jumps = 0
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
            V, r, b, dt, jumps = move(rng, V, b, d)
            T += dt
            path_steps += len(d)
            exit_jumps += jumps
        exit_time_sums.append(exits)
    return _estimate(spec, rho, R, N, n_inner, n_outer,
                     math.fsum(exit_time_sums), path_steps, exit_jumps,
                     estimator, shell)


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
        return np.sqrt(q2, out=q2)[None], r, None, d * d / (2.0 * dim), len(d)

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


def _ou_bridge(spec: DiffusionSpec, rho, R, radial):
    """The move of ``ou-bridge`` for a linear drift b = lam V + beta: exact
    steps of the diffusion and a Brownian-bridge exit test between them.

    A step of dt is the Ornstein--Uhlenbeck transition
    V' = e^{lam dt} V + beta (e^{lam dt} - 1)/lam + s xi with n normals xi
    and s^2 = (e^{2 lam dt} - 1)/lam (beta dt and 2 dt at lam = 0).  When
    ``radial`` (beta = 0) the law of q' = |V'| depends on q = |V| alone,
    q'^2 = (e^{lam dt} q + s xi_1)^2 + s^2 (xi_2^2 + ... + xi_n^2), and the
    move takes and returns q, shape (1, N).  The step is exact at any dt,
    so the only error left is the exit test, which misses O(dt) of the
    crossings between steps of paths near a boundary.  Each path therefore
    takes its own step, dtau in the boundary layer and larger in the bulk:
    dt = max(dtau, min(KAPPA d^2, d / (2 bbar))), with d = min(r - rho,
    R - r) and bbar = |lam| (q + d) + |beta| the largest drift on the ball
    of radius d around the path, so that the drift carries a bulk step at
    most d / 2 and |lam| dt <= max(|lam| dtau, 1/2).  A dtau whose e^{2 lam dtau}
    overflows is a DomainError; no larger step overflows.

    A boundary sphere meets the plane in a circle of in-plane radius
    sqrt(rho^2 - delta^2) or sqrt(R^2 - delta^2).  With in-plane distances
    a and b to it at the two ends of a step, a Brownian bridge crosses it
    with probability exp(-a b / dt), the half-plane law (Baldi 1995;
    Gobet, Stoch. Proc. Appl. 87, 2000).  The test reads the circle with
    the smaller product a b and absorbs a path when a b < dt E for an
    exponential draw E, which takes every path that ended beyond it
    (b < 0).  An absorbed path returns that boundary's radius, so the
    loop counts it there, and the midpoint of its last step, dt / 2.
    """
    lam, beta = spec.linear
    dtau, offset_sq = spec.dtau, spec.offset_sq
    try:
        math.expm1(2.0 * lam * dtau)
    except OverflowError:
        raise DomainError(f"dtau = {dtau:.6g} is too large for an exact step: "
                          f"e^(2 lam dtau) overflows at lam = {lam:g}") from None
    speed, beta_norm = abs(lam), math.hypot(*beta)
    # an inner sphere that misses the plane is never reached
    a_in = math.sqrt(rho * rho - offset_sq) if rho * rho > offset_sq else -math.inf
    a_out = math.sqrt(R * R - offset_sq)

    def move(rng, V, b, d):
        q = V[0] if radial else _radii(V)
        dt = np.minimum(KAPPA * d * d, 0.5 * d / (speed * (q + d) + beta_norm))
        np.maximum(dt, dtau, out=dt)
        grow = np.exp(lam * dt)
        s = np.sqrt(np.expm1(2.0 * lam * dt) / lam if lam else 2.0 * dt)
        moved = rng.standard_normal((spec.dim, len(d)))
        moved *= s
        moved[:len(V)] += grow * V
        if not radial:
            moved += beta[:, None] * (np.expm1(lam * dt) / lam if lam else dt)
        q1 = _radii(moved)
        inner = (q - a_in) * (q1 - a_in)
        outer = (a_out - q) * (a_out - q1)
        hit = np.minimum(inner, outer) < rng.exponential(dt)
        r = np.sqrt(q1 * q1 + offset_sq)
        r[hit] = np.where(inner[hit] <= outer[hit], rho, R)
        dt[hit] *= 0.5
        return (q1[None] if radial else moved), r, None, dt, 0

    return move


def _sphere_steps(xi, d):
    """Steps d xi / |xi| to uniform points of the spheres of radii d, from
    the normals xi (n, N), which are overwritten and returned."""
    xi *= d / np.sqrt((xi * xi).sum(axis=0))
    return xi


def _heun(spec: DiffusionSpec, V, b, d, kd2, speed, xi):
    """One Heun predictor--corrector step of the drift diffusion that
    shrinks near the boundary (Milstein & Tretyakov, Stochastic Numerics
    for Mathematical Physics, 2004): the new points and the time steps,
    from the frame points V, drifts b, their lengths speed = |b|,
    distances d, kd2 = KAPPA d^2 and standard normals xi of the paths.

    A step takes dt = min(KAPPA d^2, dtau, d / (2 |b|)),
    V* = V + b(V) dt + sqrt(2) xi sqrt(dt), then
    V' = V + (b(V) + b(V*)) dt / 2 + the same noise.  The corrector removes
    the O(dt) inflation of the bulk variance that a plain Euler drift
    brings in; b(V') is the next step's b(V), so a step costs two drift
    evaluations.  The last cap lets the drift carry a path at most half its
    distance to the boundary, which keeps a stiff drift (h = -200 r^2, say)
    from throwing paths across the annulus.
    """
    dt = np.minimum(np.minimum(kd2, spec.dtau),
                    0.5 * d / np.maximum(speed, 1e-300))
    # V* = V + b dt + noise and V' = V + (b + b(V*)) dt / 2 + noise, built
    # in place: from 1e4 paths on, a fresh (n, N) array costs about as much
    # as the arithmetic that fills it
    noise = _SQRT2 * xi
    noise *= np.sqrt(dt)
    predictor = b * dt
    predictor += V
    predictor += noise
    _, step = spec.radius_and_drift(predictor)
    step += b
    step *= 0.5 * dt
    step += V
    step += noise
    return step, dt


def _heun_exit_jump(spec: DiffusionSpec):
    """The move of ``heun-exit-jumps``: Heun steps in the bulk, exit jumps
    from small spheres in the boundary layer.

    A path jumps where a Heun step would shrink below dtau (KAPPA d^2 <
    dtau) and the drift is weak across the ball of radius d:
    d |b| / 2 <= EXIT_JUMP_EPS.  The jump goes to V + d theta, theta drawn
    from the first-order exit law of the ball under a constant drift, with
    density proportional to 1 + (d/2) <b, theta> on the unit sphere (the
    random walk over small spheres of Milstein & Tretyakov, Stochastic
    Numerics for Mathematical Physics, 2004; Muller's walk-on-spheres when
    b = 0).  theta = xi / |xi| comes from the step's own normals and is
    kept with probability (1 + (d/2) <b, theta>) / 2, otherwise replaced
    by -theta: one uniform a jump, no rejection.  It lands at distance d,
    inside the annulus, and takes the time d^2 / (2n).  Every other path
    takes a Heun step (``_heun``).  The step is computed for all paths and
    then replaced by the jumps: splitting the batch into the two kinds of
    path would save the jumping paths' predictor drift, but the copies cost
    more than that drift.
    """
    dim = spec.dim

    def move(rng, V, b, d):
        speed = np.sqrt((b * b).sum(axis=0))
        kd2 = KAPPA * d * d
        xi = _normals(rng, V)
        jumping = (kd2 < spec.dtau) & (0.5 * d * speed <= EXIT_JUMP_EPS)
        jumps = np.flatnonzero(jumping)
        moved, dt = _heun(spec, V, b, d, kd2, speed, xi)
        if len(jumps):
            d = d.take(jumps)
            shift = _sphere_steps(xi.take(jumps, 1), d)
            # d <b, theta> = <b, shift>
            keep = rng.random(len(jumps)) < 0.5 + 0.25 * (
                b.take(jumps, 1) * shift).sum(axis=0)
            shift *= np.where(keep, 1.0, -1.0)
            shift += V.take(jumps, 1)
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
