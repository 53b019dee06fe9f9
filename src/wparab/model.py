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
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DomainError, NonMonotoneTailError, NotAttainedError
from .radial import (RadialProfile, WarpingFunction, classify_improper,
                     expand_bracket, find_root, integrate)
from .verdicts import Outcome, Verdict


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

    @property
    def numpy_safe(self):
        """Whether the radial functions below accept arrays of radii."""
        return self.w.numpy_safe and self.f.numpy_safe

    # -- basic geometry ------------------------------------------------

    def sphere_area(self, t):
        self.f.check_domain(t)
        return self.c_m * self.w.value(t) ** (self.m - 1) * math.exp(self.f.value(t))

    def inv_sphere_area(self, t):
        """1/A(S_t); elementwise on an array of radii when the model is numpy-safe."""
        self.f.check_domain(t)
        return _exp(-self.f.value(t)) / (self.c_m * self.w.value(t) ** (self.m - 1))

    def ball_volume(self, t):
        if t <= 0:
            raise DomainError("ball radius must be positive")
        if self.f.t_min > 0:
            raise DomainError(
                "volume from the pole is unsupported for pole-singular weights "
                f"(t_min = {self.f.t_min})")
        m = self.m

        def integrand(s):
            return self.w.value(s) ** (m - 1) * _exp(self.f.value(s))

        res = integrate(integrand, 0.0, t, vectorized=self.numpy_safe)
        return self.c_m * res.value

    def mean_curvature(self, t):
        if t <= 0:
            raise DomainError("radius must be positive")
        wt = self.w.value(t)
        if wt == 0.0:
            raise DomainError(f"warping function vanishes at t={t}")
        return self.w.deriv(t) / wt

    def curvature_bound_probe(self, T, samples=64):
        """sup |H| on [T, 2T]; window evidence for 'H bounded at infinity'."""
        ts = np.linspace(T, 2.0 * T, samples)
        sup = max(abs(self.mean_curvature(t)) for t in ts)
        return sup, (float(T), float(2.0 * T))

    def weighted_mean_curvature(self, n, t):
        """n * H(t) + f'(t); weighted curvature of spheres in the n+1 model."""
        if not 1 <= n <= self.m - 1:
            raise DomainError(f"need 1 <= n <= m-1, got n={n}, m={self.m}")
        self.f.check_domain(t)
        return n * self.mean_curvature(t) + self.f.deriv(t)

    def drift_coefficient(self, t):
        """(m-1) H(t) + f'(t): the radial drift of the weighted Laplacian."""
        return self.weighted_mean_curvature(self.m - 1, t)

    # -- capacities ----------------------------------------------------

    def capacity_potential(self, rho, R, grid_nodes=512, residual_grid=256):
        if not self.f.t_min < rho < R < math.inf:
            raise DomainError(f"need t_min < rho < R < inf, got ({rho}, {R})")
        nodes = np.linspace(rho, R, grid_nodes)
        res = integrate(self.inv_sphere_area, nodes[:-1], nodes[1:],
                        abs_tol=1e-14, rel_tol=1e-12, vectorized=self.numpy_safe)
        cumulative = np.concatenate(([0.0], np.cumsum(res.value)))
        quad_err = float(res.error.sum())
        total = cumulative[-1]
        interp = PchipInterpolator(nodes, cumulative)

        def potential(s):
            s = float(s)
            if not rho - 1e-12 <= s <= R + 1e-12:
                raise DomainError(f"potential evaluated outside [{rho}, {R}]: {s}")
            return float(1.0 - interp(min(max(s, rho), R)) / total)

        capacity = 1.0 / total

        def phi_prime(s):
            return -capacity * self.inv_sphere_area(s)

        # residual of phi'' + ((m-1)H + f') phi' on an interior grid;
        # phi' is the exact derivative of the cumulative integral, phi''
        # comes from the five-point stencil of phi' with step h
        h = 1e-5 * (R - rho)
        grid = np.linspace(rho + 2 * h, R - 2 * h, residual_grid)
        stencil = grid[:, None] + h * np.arange(-2.0, 3.0)
        if self.numpy_safe:
            dphi = phi_prime(stencil)
            drift = ((self.m - 1) * (self.w.deriv(grid) / self.w.value(grid))
                     + self.f.deriv(grid))
        else:
            dphi = np.vectorize(phi_prime, otypes=[float])(stencil)
            drift = np.vectorize(self.drift_coefficient, otypes=[float])(grid)
        second = (dphi[:, 0] - 8.0 * dphi[:, 1] + 8.0 * dphi[:, 3]
                  - dphi[:, 4]) / (12.0 * h)
        residual = float(np.max(np.abs(second + drift * dphi[:, 2])))
        return CapacityReport(rho=rho, R=R, capacity=capacity,
                              potential=potential, ode_residual=residual,
                              quadrature_error=quad_err / total * capacity,
                              phi_prime=phi_prime)

    def capacity_to_infinity(self, rho, hint=None):
        """(capacity, evidence): zero when the area integral diverges."""
        if rho <= self.f.t_min:
            raise DomainError(f"need rho > t_min = {self.f.t_min}")
        verdict = classify_improper(self.inv_sphere_area, rho, hint,
                                    vectorized=self.numpy_safe)
        if verdict.is_divergent:
            return 0.0, verdict
        if verdict.is_convergent:
            return 1.0 / verdict.value, verdict
        return None, verdict

    def ahlfors_classify(self, t0=1.0, hint=None):
        """Recurrence/transience of the weighted model from the area integral."""
        if t0 <= self.f.t_min:
            raise DomainError(f"need t0 > t_min = {self.f.t_min}")
        evidence = classify_improper(self.inv_sphere_area, t0, hint,
                                     vectorized=self.numpy_safe)
        if evidence.is_divergent:
            outcome = Outcome.PARABOLIC
        elif evidence.is_convergent:
            outcome = Outcome.HYPERBOLIC
        else:
            outcome = Outcome.INCONCLUSIVE
        return Verdict(outcome, "ahlfors_direct", checks=[],
                       integral_evidence=evidence)

    # -- critical radii --------------------------------------------------

    def critical_sphere_radius(self, n, lambda0, mode="first_below",
                               scan_samples=64, tol=1e-13):
        """Radius where n H(t) + f'(t) crosses the level set by ``mode``.

        ``first_below``: root of H_n(t) + lambda0 followed by a scan on
        [t*, 32 t*] confirming the curve stays at or below -lambda0.
        ``last_above``: root of H_n(t) - lambda0 with the scan on the
        inner window [t*/32, t*] confirming it stays at or above lambda0.
        """
        if lambda0 < 0:
            raise DomainError("lambda0 must be >= 0")
        if mode not in ("first_below", "last_above"):
            raise DomainError(f"unknown mode {mode!r}")
        target = -lambda0 if mode == "first_below" else lambda0

        def g(t):
            return self.weighted_mean_curvature(n, t) - target

        lo = max(1e-4, self.f.t_min * 1.001 + 1e-12)
        if g(lo) <= 0.0:
            # walk inward; the curvature blows up at the pole for regular w
            while g(lo) <= 0.0 and lo > self.f.t_min + 1e-12:
                lo = max(self.f.t_min + (lo - self.f.t_min) / 4.0, lo / 4.0)
                if lo < 1e-12:
                    raise NotAttainedError(
                        f"no sign change: H_{n} + f' never exceeds {target}")
        try:
            a, b = expand_bracket(g, lo, 2.0 * lo, cap=1e6)
        except Exception as err:
            raise NotAttainedError(
                f"target {target} not attained by nH + f' up to t=1e6") from err
        root = find_root(g, a, b, tol=tol)

        slack = 1e-9 * (1.0 + abs(target))
        if mode == "first_below":
            scan = np.linspace(root, 32.0 * root, scan_samples)[1:]
            for t in scan:
                if self.weighted_mean_curvature(n, t) > target + slack:
                    raise NonMonotoneTailError(
                        f"curvature exceeds {target} at t={t} beyond the root",
                        witness=float(t))
        else:
            inner = max(root / 32.0, self.f.t_min * 1.001 + 1e-12, 1e-6)
            scan = np.linspace(inner, root, scan_samples)[:-1]
            for t in scan:
                if self.weighted_mean_curvature(n, t) < target - slack:
                    raise NonMonotoneTailError(
                        f"curvature drops below {target} at t={t} before the root",
                        witness=float(t))
        return root


@dataclass
class CapacityReport:
    """Capacity of a concentric capacitor plus its verified potential."""

    rho: float
    R: float
    capacity: float
    potential: object           # callable s -> phi(s)
    ode_residual: float
    quadrature_error: float
    phi_prime: object = None    # callable s -> phi'(s)

    def to_dict(self):
        return {
            "rho": self.rho,
            "R": self.R,
            "capacity": self.capacity,
            "ode_residual": self.ode_residual,
            "quadrature_error": self.quadrature_error,
        }
