"""Implicit smooth surfaces bounding the computational domains.

Each surface is given by a level-set function F with Gamma = {F = 0} and
F < 0 inside the domain.  The geometric queries needed by the shifted
trial space are: level-set evaluation, (normalized) gradient, intersection
of a short line segment with Gamma, and closest-point projection.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq


class Surface:
    """Base class: an implicit surface F(p) = 0 with F < 0 inside."""

    #: characteristic length used to scale tolerances
    scale: float = 1.0

    def value(self, p):
        raise NotImplementedError

    def gradient(self, p):
        raise NotImplementedError

    def unit_normal(self, p):
        g = np.asarray(self.gradient(p), dtype=float)
        return g / np.linalg.norm(g)

    def line_roots(self, origin, direction, bracket):
        """All parameters t with F(origin + t*direction) = 0, |t| <= bracket.

        Generic implementation: scan for sign changes and polish with a
        bracketing root finder.  Quadric surfaces override this with the
        closed-form solution.
        """
        origin = np.asarray(origin, dtype=float)
        direction = np.asarray(direction, dtype=float)

        def f(t):
            return self.value(origin + t * direction)

        n_steps = 512
        ts = np.linspace(-bracket, bracket, n_steps + 1)
        vals = np.array([f(t) for t in ts])
        roots = []
        tol = 1e-14 * self.scale
        for i in range(n_steps):
            a, b = ts[i], ts[i + 1]
            fa, fb = vals[i], vals[i + 1]
            if abs(fa) <= tol:
                roots.append(a)
            elif fa * fb < 0.0:
                roots.append(brentq(f, a, b, xtol=1e-15, rtol=8.9e-16))
        if abs(vals[-1]) <= tol:
            roots.append(ts[-1])
        # deduplicate roots that collapse to the same point
        out = []
        for t in sorted(roots):
            if not out or abs(t - out[-1]) > 1e-12 * max(1.0, bracket):
                out.append(t)
        return out

    def nearest_line_intersection(self, origin, direction, bracket):
        """Intersection of Gamma with the line through `origin` along
        `direction` that is nearest to `origin` (smallest |t|).

        Ties between the two sides are broken toward positive t, i.e. the
        outward side when `direction` points out of the domain.  Raises if
        no intersection exists within |t| <= bracket.
        """
        roots = self.line_roots(origin, direction, bracket)
        if not roots:
            raise ValueError(
                "no surface intersection within bracket %.3g around point %s"
                % (bracket, np.asarray(origin))
            )
        best = min(roots, key=lambda t: (abs(t), -np.sign(t)))
        p = np.asarray(origin, dtype=float) + best * np.asarray(direction, dtype=float)
        if abs(self.value(p)) > 1e-10 * self.scale:
            raise ValueError("line intersection failed to land on the surface")
        return p, best

    def closest_point(self, p):
        raise NotImplementedError


def _unit_sphere_line_roots(o, d, bracket):
    """Parameters t with |o + t d| = 1 and |t| <= bracket: the line query of
    a sphere or ellipsoid, scaled to the unit sphere (t is unchanged)."""
    a = d @ d
    b = 2.0 * (o @ d)
    c = o @ o - 1.0
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    s = np.sqrt(disc)
    roots = sorted(((-b - s) / (2 * a), (-b + s) / (2 * a)))
    return [t for t in roots if abs(t) <= bracket]


@dataclass
class Sphere(Surface):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.scale = float(self.radius)

    def value(self, p):
        d = np.asarray(p, dtype=float) - self.center
        return float(d @ d - self.radius**2)

    def gradient(self, p):
        return 2.0 * (np.asarray(p, dtype=float) - self.center)

    def line_roots(self, origin, direction, bracket):
        o = (np.asarray(origin, dtype=float) - self.center) / self.radius
        return _unit_sphere_line_roots(
            o, np.asarray(direction, dtype=float) / self.radius, bracket)

    def closest_point(self, p):
        d = np.asarray(p, dtype=float) - self.center
        r = np.linalg.norm(d)
        if r == 0.0:
            raise ValueError("closest point undefined at the sphere center")
        return self.center + d * (self.radius / r)


@dataclass
class Ellipsoid(Surface):
    """Axis-aligned ellipsoid (x/a)^2 + (y/b)^2 + (z/c)^2 = 1, centered at 0."""

    semi_axes: np.ndarray

    def __post_init__(self):
        self.semi_axes = np.asarray(self.semi_axes, dtype=float)
        self.scale = float(np.min(self.semi_axes))

    def value(self, p):
        q = np.asarray(p, dtype=float) / self.semi_axes
        return float(q @ q - 1.0)

    def gradient(self, p):
        return 2.0 * np.asarray(p, dtype=float) / self.semi_axes**2

    def line_roots(self, origin, direction, bracket):
        return _unit_sphere_line_roots(
            np.asarray(origin, dtype=float) / self.semi_axes,
            np.asarray(direction, dtype=float) / self.semi_axes, bracket)

    def closest_point(self, p):
        """Euclidean projection onto the ellipsoid.

        The projection q of p satisfies q_i = s_i^2 p_i / (s_i^2 + lam)
        for a Lagrange multiplier lam solving |q/s| = 1; lam is bracketed
        and solved with a 1-d root finder.  Works for points inside and
        outside (p not at the center).
        """
        s = self.semi_axes
        p = np.asarray(p, dtype=float)
        if np.allclose(p, 0.0):
            raise ValueError("closest point undefined at the ellipsoid center")

        def g(lam):
            q = (s * p) / (s * s + lam)
            return float(q @ q - 1.0)

        lo = -np.min(s * s) * (1.0 - 1e-12)
        # expand upward until g changes sign
        hi = np.max(s * s)
        while g(hi) > 0.0:
            hi *= 2.0
        if g(lo) < 0.0:
            # p is very close to the short axis; nudge the bracket
            lo = -np.min(s * s) + 1e-15 * self.scale**2
        lam = brentq(g, lo, hi, xtol=1e-16, rtol=8.9e-16, maxiter=200)
        return (s * s * p) / (s * s + lam)


@dataclass
class Torus(Surface):
    """Torus around the z-axis: (R - sqrt(x^2+y^2))^2 + z^2 = r^2."""

    major_radius: float
    minor_radius: float

    def __post_init__(self):
        self.scale = float(self.minor_radius)

    def value(self, p):
        x, y, z = np.asarray(p, dtype=float)
        rho = np.hypot(x, y)
        return float((self.major_radius - rho) ** 2 + z * z - self.minor_radius**2)

    def gradient(self, p):
        x, y, z = np.asarray(p, dtype=float)
        rho = np.hypot(x, y)
        if rho == 0.0:
            raise ValueError("torus gradient undefined on the z-axis")
        fac = 2.0 * (rho - self.major_radius) / rho
        return np.array([fac * x, fac * y, 2.0 * z])

    def closest_point(self, p):
        x, y, z = np.asarray(p, dtype=float)
        rho = np.hypot(x, y)
        if rho == 0.0:
            raise ValueError("closest point undefined on the torus axis")
        # center of the tube cross-section containing p
        cx, cy = self.major_radius * x / rho, self.major_radius * y / rho
        d = np.array([x - cx, y - cy, z])
        nd = np.linalg.norm(d)
        if nd == 0.0:
            raise ValueError("closest point undefined on the tube center circle")
        return np.array([cx, cy, 0.0]) + d * (self.minor_radius / nd)
