"""Implicit smooth surfaces bounding the computational domains.

Each surface is a level set Gamma = {F = 0} centred at the origin, with
F < 0 inside the domain.  The geometric queries needed by the shifted
trial space are: level-set evaluation, and the intersection of a line
with Gamma nearest to a given point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _dot(u, v):
    """Row-wise dot product of (..., 3) arrays, summed in a fixed order so
    that every row comes out the same whatever the batch around it."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


class LineQueryError(ValueError):
    """A line of a batched `nearest_line_intersection` query that finds no
    point on the surface; `index` is its position in the flattened batch
    of `count` lines."""

    def __init__(self, message, index, count):
        super().__init__(message)
        self.index, self.count = index, count


class Surface:
    """Base class: an implicit surface F(p) = 0 with F < 0 inside.

    Each surface defines `value` and `line_roots`.  `value` maps points
    (..., 3) to (...).  `line_roots` takes (n, 3) origins and directions
    and returns all real t with F(origin + t*direction) = 0 as an (n, m)
    array padded with NaN; each surface solves it in closed form.
    """

    #: characteristic length used to scale tolerances
    scale: float = 1.0

    def nearest_line_intersection(self, origin, direction, bracket):
        """Intersection of Gamma with the line through `origin` along
        `direction` that is nearest to `origin` (smallest |t|).

        `origin` and `direction` have shape (..., 3) and `bracket` shape
        (...); they broadcast, and the result is the point (..., 3) and
        the parameter t (...).  Ties between the two sides are broken
        toward positive t, i.e. the outward side when `direction` points
        out of the domain.  Raises a `LineQueryError`, naming the first
        failing origin, if some line has no intersection within
        |t| <= bracket or the root found does not land on the surface.
        """
        origin = np.asarray(origin, dtype=float)
        direction = np.asarray(direction, dtype=float)
        bracket = np.asarray(bracket, dtype=float)
        shape = np.broadcast_shapes(origin.shape, direction.shape,
                                    bracket.shape + (3,))
        o = np.broadcast_to(origin, shape).reshape(-1, 3)
        d = np.broadcast_to(direction, shape).reshape(-1, 3)
        br = np.broadcast_to(bracket, shape[:-1]).reshape(-1)

        roots = self.line_roots(o, d)
        inside = np.abs(roots) <= br[:, None]  # False for the NaN padding
        dist = np.where(inside, np.abs(roots), np.inf)
        nearest = inside & (dist == dist.min(axis=1, keepdims=True))
        t = np.max(np.where(nearest, roots, -np.inf), axis=1)
        missing = ~inside.any(axis=1)
        if missing.any():
            i = int(np.argmax(missing))
            raise LineQueryError(
                "no surface intersection within bracket %.3g around point %s "
                "(origin %d of %d)" % (br[i], o[i], i, len(o)), i, len(o))
        p = o + t[:, None] * d
        residual = np.abs(self.value(p))
        off = residual > 1e-10 * self.scale
        if off.any():
            i = int(np.argmax(off))
            raise LineQueryError(
                "line intersection failed to land on the surface from point "
                "%s (origin %d of %d): |F| = %.3g" % (o[i], i, len(o), residual[i]),
                i, len(o))
        return p.reshape(shape), t.reshape(shape[:-1])[()]


@dataclass
class Ellipsoid(Surface):
    """Axis-aligned ellipsoid about the origin, F = |p / semi_axes|^2 - 1."""

    semi_axes: np.ndarray

    def __post_init__(self):
        self.semi_axes = np.asarray(self.semi_axes, dtype=float)
        if not np.all((0.0 < self.semi_axes) & (self.semi_axes < np.inf)):
            raise ValueError("ellipsoid needs finite semi-axes > 0, got "
                             "semi_axes = %s" % self.semi_axes)
        self.scale = float(np.min(self.semi_axes))

    def value(self, p):
        q = np.asarray(p, dtype=float) / self.semi_axes
        return _dot(q, q) - 1.0

    def line_roots(self, origin, direction):
        """Both t with |o + t d| = 1 for the origin and direction scaled to
        the unit sphere (t is unchanged), ascending, NaN where it misses."""
        o = origin / self.semi_axes
        d = direction / self.semi_axes
        a, b, c = _dot(d, d), 2.0 * _dot(o, d), _dot(o, o) - 1.0
        disc = b * b - 4.0 * a * c
        s = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        return np.stack([(-b - s) / (2 * a), (-b + s) / (2 * a)], axis=-1)


class Sphere(Ellipsoid):
    """The sphere |p| = radius: an ellipsoid with equal semi-axes.  Its
    `center` must be the origin, where the meshes' symmetry planes meet."""

    def __init__(self, center, radius):
        if np.any(np.asarray(center, dtype=float) != 0.0):
            raise ValueError("sphere needs its center at the origin, got "
                             "center = %s" % np.asarray(center))
        self.radius = float(radius)
        super().__init__(np.full(3, self.radius))


@dataclass
class Torus(Surface):
    """Torus around the z-axis: (R - sqrt(x^2+y^2))^2 + z^2 = r^2, R > r."""

    major_radius: float
    minor_radius: float

    def __post_init__(self):
        if not np.inf > self.major_radius > self.minor_radius > 0.0:
            raise ValueError(
                "torus needs finite radii R > r > 0, got R = %g, r = %g"
                % (self.major_radius, self.minor_radius))
        self.scale = float(self.minor_radius)

    def value(self, p):
        p = np.asarray(p, dtype=float)
        rho = np.hypot(p[..., 0], p[..., 1])
        z = p[..., 2]
        return (self.major_radius - rho) ** 2 + z * z - self.minor_radius**2

    def line_roots(self, origin, direction):
        """Real roots of the quartic (|p|^2 + R^2 - r^2)^2 = 4 R^2 rho^2
        along each line, from the eigenvalues of its companion matrix, each
        polished by Newton steps on F.  The quartic is F times
        (R + rho)^2 + z^2 - r^2, which is positive for R > r, so its real
        roots are exactly those of F."""
        o, d = origin, direction
        R2, r2 = self.major_radius**2, self.minor_radius**2
        # |p(t)|^2 + R^2 - r^2 = A t^2 + B t + C and rho(t)^2 = a t^2 + b t + c
        A, B, C = _dot(d, d), 2.0 * _dot(o, d), _dot(o, o) + (R2 - r2)
        a = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        b = 2.0 * (o[:, 0] * d[:, 0] + o[:, 1] * d[:, 1])
        c = o[:, 0] * o[:, 0] + o[:, 1] * o[:, 1]
        lead = A * A
        companion = np.zeros((len(o), 4, 4))
        companion[:, 0, 0] = -(2.0 * A * B) / lead
        companion[:, 0, 1] = -(B * B + 2.0 * A * C - 4.0 * R2 * a) / lead
        companion[:, 0, 2] = -(2.0 * B * C - 4.0 * R2 * b) / lead
        companion[:, 0, 3] = -(C * C - 4.0 * R2 * c) / lead
        companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
        lam = np.linalg.eigvals(companion)
        # a pair of nearly equal real roots may come back as a complex pair
        span = self.minor_radius / np.sqrt(A)[:, None]
        real = np.abs(lam.imag) <= 1e-8 * (np.abs(lam) + span)
        t = np.where(real, lam.real, np.nan)
        o, d = o[:, None, :], d[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(3):
                p = o + t[..., None] * d
                rho = np.hypot(p[..., 0], p[..., 1])
                F = (self.major_radius - rho) ** 2 + p[..., 2] * p[..., 2] - r2
                dF = (2.0 * (rho - self.major_radius) / rho
                      * (p[..., 0] * d[..., 0] + p[..., 1] * d[..., 1])
                      + 2.0 * p[..., 2] * d[..., 2])
                t = t - F / dF
        return t
