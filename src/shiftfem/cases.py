"""Registry of exact-solution benchmark cases on the curved domains.

All cases use homogeneous Dirichlet data (the exact solution vanishes on
the boundary surface).  `u` and `f` are analytic on a neighborhood of the
domain, so they can be evaluated at any quadrature point of the
straight-edged mesh.

Callable contract: `u`, `grad_u`, `f` and `g` take points of shape
(..., 3) and return values of shape (...), or (..., 3) for `grad_u`, so
that one call covers every tet and quadrature point.  A callable may
return a constant instead; the callers broadcast it.

The three octant cases (the sphere and both ellipsoids) share one
constructor, `_octant_case`, and the two ellipsoid cases build u from one
bubble, `_bubble`.  Every exact solution is written out by hand rather
than taken from `Surface.value`, so that it stays an independent oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meshgen import generate_octant_mesh, generate_torus_sector_mesh
from .surfaces import Ellipsoid, Sphere, Surface, Torus


@dataclass
class ExactCase:
    name: str
    surface: Surface
    u: callable
    grad_u: callable
    f: callable
    g: callable
    mesh: callable  # refinement parameter -> Mesh
    h_of_param: callable  # reference mesh size 1/J or pi/(8I)
    default_params: tuple


def _zero(p):
    return 0.0


def _bubble(a, b):
    """u = 1 - (x/a)^2 - (y/b)^2 - z^2, which vanishes on the ellipsoid of
    semi-axes (a, b, 1), and its gradient."""

    def u(p):
        x, y, z = np.moveaxis(p, -1, 0)
        return 1.0 - ((x / a) ** 2 + (y / b) ** 2 + z**2)

    def grad_u(p):
        x, y, z = np.moveaxis(p, -1, 0)
        return np.stack([-2.0 * x / a**2, -2.0 * y / b**2, -2.0 * z], axis=-1)

    return u, grad_u


def _octant_case(name, surface, u, grad_u, f, default_params):
    """A case on the octant mesh of `surface`'s semi-axes: h = 1/J, g = 0."""
    return ExactCase(
        name=name,
        surface=surface,
        u=u,
        grad_u=grad_u,
        f=f,
        g=_zero,
        mesh=lambda J: generate_octant_mesh(J, surface.semi_axes),
        h_of_param=lambda J: 1.0 / J,
        default_params=default_params,
    )


def _quadratic_ellipsoid():
    a, b = 0.6, 0.8
    const_f = 2.0 * (a**-2 + b**-2 + 1.0)
    return _octant_case("quadratic-ellipsoid", Ellipsoid(np.array([a, b, 1.0])),
                        *_bubble(a, b), lambda p: const_f, (2, 4))


def _tp1_sphere():
    def r2(p):
        x, y, z = np.moveaxis(p, -1, 0)
        return x * x + y * y + z * z

    def u(p):
        s = r2(p)
        return s - s * s

    def grad_u(p):
        return (2.0 - 4.0 * r2(p))[..., None] * np.asarray(p, dtype=float)

    def f(p):
        return 20.0 * r2(p) - 6.0

    return _octant_case("tp1-sphere", Sphere(np.zeros(3), 1.0), u, grad_u, f,
                        (4, 8, 16))


def _tp2_ellipsoid():
    """u = A B, the product of the bubbles of the ellipsoid and of its copy
    with a and b swapped."""
    a, b = 0.6, 0.8
    lap = -2.0 * (a**-2 + b**-2 + 1.0)  # Laplacian of both factors
    A, gA = _bubble(a, b)
    B, gB = _bubble(b, a)

    def u(p):
        return A(p) * B(p)

    def grad_u(p):
        return B(p)[..., None] * gA(p) + A(p)[..., None] * gB(p)

    def f(p):
        return -(A(p) * lap + B(p) * lap + 2.0 * np.sum(gA(p) * gB(p), axis=-1))

    return _octant_case("tp2-ellipsoid", Ellipsoid(np.array([a, b, 1.0])), u,
                        grad_u, f, (2, 4, 8))


def _tp3_torus():
    R, r = 5.0 / 6.0, 1.0 / 6.0
    surf = Torus(R, r)

    def u(p):
        x, y, z = np.moveaxis(p, -1, 0)
        rho = np.hypot(x, y)
        return r * r - z * z - (R - rho) ** 2

    def grad_u(p):
        x, y, z = np.moveaxis(p, -1, 0)
        rho = np.hypot(x, y)
        fac = 2.0 * (R - rho) / rho
        return np.stack([fac * x, fac * y, -2.0 * z], axis=-1)

    def f(p):
        x, y, _z = np.moveaxis(p, -1, 0)
        rho = np.hypot(x, y)
        return 6.0 - 2.0 * R / rho

    return ExactCase(
        name="tp3-torus",
        surface=surf,
        u=u,
        grad_u=grad_u,
        f=f,
        g=_zero,
        mesh=lambda I: generate_torus_sector_mesh(I, R, r),
        h_of_param=lambda I: np.pi / (8.0 * I),
        default_params=(2, 4, 8),
    )


def case_registry():
    cases = [_quadratic_ellipsoid(), _tp1_sphere(), _tp2_ellipsoid(), _tp3_torus()]
    return {c.name: c for c in cases}


def get_case(name: str) -> ExactCase:
    reg = case_registry()
    if name not in reg:
        raise KeyError(
            "unknown case %r (available: %s)" % (name, ", ".join(sorted(reg)))
        )
    return reg[name]
