"""Rotationally symmetric spaces with radial weights.

A model of dimension m carries a warping function w and a log-weight f;
metric spheres about the pole have weighted area
``A(S_t) = c_m w(t)^(m-1) e^(f(t))`` with ``c_m = 2 pi^(m/2) / Gamma(m/2)``.
Capacities of concentric capacitors reduce to one-dimensional integrals of
``1/A``, and the recurrence/transience dichotomy is the Ahlfors test on the
same integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, DomainError, NonMonotoneTailError, NotAttainedError
from .radial import (Primitive, RadialProfile, WarpingFunction, classify_improper,
                     first_crossing, integrate)
from .verdicts import INTERNAL, Outcome, Record, Verdict

_GRID_NODES, _RESIDUAL_GRID = 512, 256   # capacity panels, ODE residual points
_SCAN_SAMPLES, _ROOT_TOL = 64, 1e-13     # critical radii: tail scan, root tolerance

def _exp(x):
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def sphere_area_constant(m):
    """Euclidean area of the unit (m-1)-sphere."""
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


@dataclass(frozen=True)
class WeightedModel:
    """Model space of dimension m with warping w and radial log-weight f."""

    m: int
    w: WarpingFunction
    f: RadialProfile

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("model dimension must be >= 2")
        if self.f.t_min == 0.0:
            slope = abs(self.f.deriv(1e-6))
            if not slope <= 1e-3:
                raise ValueError(
                    f"log-weight {self.f.name!r} has nonzero slope at the pole "
                    f"(f'(1e-6) = {self.f.deriv(1e-6)})")

    @property
    def c_m(self):
        return sphere_area_constant(self.m)

    # -- basic geometry ------------------------------------------------

    def sphere_area(self, t):
        """A(S_t) = c_m w(t)^(m-1) e^(f(t)); elementwise on an array of radii.

        A weight e^f that overflows raises, naming the first such radius;
        an area that overflows only in the product is inf.
        """
        self.f.check_domain(t)
        f = self.f.value(t)
        with np.errstate(over="ignore"):
            try:
                weight = _exp(f)
            except OverflowError:
                weight = math.inf
            over = np.isinf(weight) & np.isfinite(f)
            if over.any():
                i = np.flatnonzero(over)[0]
                raise DomainError(
                    f"sphere area overflows at t={float(np.ravel(t)[i])} "
                    f"(weight exponent f(t) = {float(np.ravel(f)[i]):.6g})")
            return self.c_m * self.w.value(t) ** (self.m - 1) * weight

    def inv_sphere_area(self, t):
        """1/A(S_t); elementwise on an array of radii."""
        self.f.check_domain(t)
        return _exp(-self.f.value(t)) / (self.c_m * self.w.value(t) ** (self.m - 1))

    def ball_volume(self, t):
        """Weighted volume of B_t; elementwise on an array of radii.

        Each radius is one panel [0, t] of a single integrate call, so a
        value does not depend on the other radii of the array.
        """
        if np.any(np.less_equal(t, 0)):
            raise DomainError("ball radius must be positive")
        if self.f.t_min > 0:
            raise DomainError(
                "volume from the pole is unsupported for pole-singular weights "
                f"(t_min = {self.f.t_min})")
        m = self.m

        def integrand(s):
            return self.w.value(s) ** (m - 1) * _exp(self.f.value(s))

        res = integrate(integrand, np.zeros_like(t), t)
        return self.c_m * res.value

    def mean_curvature(self, t):
        """H(t) = w'(t)/w(t); elementwise on an array of radii."""
        if np.any(np.less_equal(t, 0)):
            raise DomainError("radius must be positive")
        wt = self.w.value(t)
        vanishes = np.equal(wt, 0.0)
        if vanishes.any():
            where = np.asarray(t)[vanishes][0]
            raise DomainError(f"warping function vanishes at t={where}")
        return self.w.deriv(t) / wt

    def weighted_mean_curvature(self, n, t):
        """n * H(t) + f'(t); weighted curvature of spheres in the n+1 model."""
        if not 1 <= n <= self.m - 1:
            raise DomainError(f"need 1 <= n <= m-1, got n={n}, m={self.m}")
        self.f.check_domain(t)
        return n * self.mean_curvature(t) + self.f.deriv(t)

    # -- capacities ----------------------------------------------------

    def capacity_potential(self, rho, R):
        if not self.f.t_min < rho < R < math.inf:
            raise DomainError(f"need t_min < rho < R < inf, got ({rho}, {R})")
        F = Primitive(self.inv_sphere_area, np.linspace(rho, R, _GRID_NODES),
                      abs_tol=1e-14, rel_tol=1e-12)
        total = F(R)

        def potential(s):
            """phi(s) = 1 - int_rho^s 1/A / int_rho^R 1/A; a float gives a
            float, an array is one integrate call."""
            s_arr = np.asarray(s, dtype=float)
            outside = ~((rho - 1e-12 <= s_arr) & (s_arr <= R + 1e-12))
            if outside.any():
                raise DomainError(f"potential evaluated outside [{rho}, {R}]: "
                                  f"{s_arr[outside].flat[0]}")
            return 1.0 - F(np.clip(s_arr, rho, R)) / total

        capacity = 1.0 / total

        def phi_prime(s):
            return -capacity * self.inv_sphere_area(s)

        # residual of phi'' + ((m-1)H + f') phi' on an interior grid;
        # phi' is the exact derivative of the cumulative integral, phi''
        # comes from the five-point stencil of phi' with step h
        h = 1e-5 * (R - rho)
        grid = np.linspace(rho + 2 * h, R - 2 * h, _RESIDUAL_GRID)
        stencil = grid[:, None] + h * np.arange(-2.0, 3.0)
        dphi = phi_prime(stencil)
        drift = self.weighted_mean_curvature(self.m - 1, grid)
        second = (dphi[:, 0] - 8.0 * dphi[:, 1] + 8.0 * dphi[:, 3]
                  - dphi[:, 4]) / (12.0 * h)
        residual = float(np.max(np.abs(second + drift * dphi[:, 2])))
        return CapacityReport(rho=rho, R=R, capacity=capacity,
                              potential=potential, ode_residual=residual,
                              quadrature_error=F.error / total * capacity,
                              phi_prime=phi_prime)

    def capacity_to_infinity(self, rho):
        """(capacity, evidence): zero when the area integral diverges."""
        if rho <= self.f.t_min:
            raise DomainError(f"need rho > t_min = {self.f.t_min}")
        verdict = classify_improper(self.inv_sphere_area, rho)
        if verdict.is_divergent:
            return 0.0, verdict
        if verdict.is_convergent:
            return 1.0 / verdict.value, verdict
        return None, verdict

    def ahlfors_classify(self, t0=1.0):
        """Recurrence/transience of the weighted model from the area integral."""
        if t0 <= self.f.t_min:
            raise DomainError(f"need t0 > t_min = {self.f.t_min}")
        evidence = classify_improper(self.inv_sphere_area, t0)
        if evidence.is_divergent:
            outcome = Outcome.PARABOLIC
        elif evidence.is_convergent:
            outcome = Outcome.HYPERBOLIC
        else:
            outcome = Outcome.INCONCLUSIVE
        return Verdict(outcome, "ahlfors_direct", checks=[],
                       integral_evidence=evidence)

    # -- critical radii --------------------------------------------------

    def critical_sphere_radius(self, n, lambda0, mode="first_below"):
        """Radius where n H(t) + f'(t) crosses the level set by ``mode``
        (see :func:`critical_radius`)."""
        return critical_radius(lambda t: self.weighted_mean_curvature(n, t),
                               lambda0, mode, self.f.t_min, name=f"H_{n} + f'")


def critical_radius(curvature, lambda0, mode, t_min, name):
    """Radius where ``curvature`` (elementwise on arrays of t > t_min,
    called ``name`` in errors) first crosses the level set by ``mode``.

    ``first_below``: root of curvature + lambda0 followed by a scan on
    [t*, 32 t*] confirming the curve stays at or below -lambda0.
    ``last_above``: root of curvature - lambda0 with the scan on the inner
    window [t*/32, t*] confirming it stays at or above lambda0.
    """
    if lambda0 < 0:
        raise DomainError("lambda0 must be >= 0")
    if mode not in ("first_below", "last_above"):
        raise DomainError(f"unknown mode {mode!r}")
    target = -lambda0 if mode == "first_below" else lambda0

    def g(t):
        return curvature(t) - target

    floor = t_min * 1.001 + 1e-12
    try:
        root = first_crossing(g, max(1e-4, floor), t_min, _ROOT_TOL)
    except NotAttainedError:
        raise NotAttainedError(
            f"no sign change: {name} never exceeds {target}") from None
    except BracketError as err:
        raise NotAttainedError(
            f"target {target} not attained by {name} up to t=1e6") from err

    slack = 1e-9 * (1.0 + abs(target))
    if mode == "first_below":
        scan = np.linspace(root, 32.0 * root, _SCAN_SAMPLES)[1:]
        bad = curvature(scan) > target + slack
        breach = "exceeds {} at t={} beyond the root"
    else:
        scan = np.linspace(max(root / 32.0, floor, 1e-6), root, _SCAN_SAMPLES)[:-1]
        bad = curvature(scan) < target - slack
        breach = "drops below {} at t={} before the root"
    if bad.any():
        t = scan[bad.argmax()]
        raise NonMonotoneTailError("curvature " + breach.format(target, t),
                                   witness=float(t))
    return root


@dataclass
class CapacityReport(Record):
    """Capacity of a concentric capacitor plus its verified potential."""

    rho: float
    R: float
    capacity: float
    potential: object = field(metadata=INTERNAL)  # callable s -> phi(s)
    ode_residual: float
    quadrature_error: float
    phi_prime: object = field(default=None, metadata=INTERNAL)  # s -> phi'(s)
