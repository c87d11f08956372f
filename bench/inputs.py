"""Seeded benchmark inputs: the package's own meshes with every vertex that
lies on no boundary face moved by a small seeded amount.

Boundary vertices stay put, so the surface classification (|S_h|, |R_h|,
the Gamma_h faces) is that of the plain mesh, while no two tets are
congruent any more.  Each jittered mesh is checked before use; a seed
that breaks a check raises `InputError` and is never replaced by the
plain mesh.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from shiftfem.meshgen import classify_boundary

#: largest vertex move as a share of the mesh's shortest edge
JITTER = 0.15

_EDGE_PAIRS = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class InputError(RuntimeError):
    """A seed produced a mesh that fails an input check."""


@dataclasses.dataclass
class Level:
    """One refinement level of a workload: the displacement that the
    benchmark adds to the generated mesh, and the vertices it must give."""

    param: int
    disp: np.ndarray  # (n_vertices, 3), zero on boundary vertices
    vertices: np.ndarray  # plain vertices + disp, as checked


def tet_volumes(vertices, tets):
    v = vertices[tets]
    return np.linalg.det(v[:, 1:] - v[:, :1]) / 6.0


def shortest_edge(vertices, tets):
    ends = vertices[tets[:, _EDGE_PAIRS]]  # (n_tets, 6, 2, 3)
    return float(np.linalg.norm(ends[:, :, 1] - ends[:, :, 0], axis=-1).min())


def boundary_counts(mesh, surface):
    cls = classify_boundary(mesh, surface)
    return len(cls.s_tets), len(cls.r_tets), len(cls.gamma_faces), len(cls.violations)


def make_level(case, param, seed):
    """Build `case.mesh(param)` and the seeded displacement of its
    non-boundary vertices (none when `seed` is None), and check it."""
    plain = case.mesh(param)
    disp = np.zeros_like(plain.vertices)
    if seed is not None:
        on_boundary = np.zeros(plain.n_vertices, dtype=bool)
        on_boundary[np.array(list(plain.boundary_faces()), dtype=np.int64).ravel()] = True
        free = np.nonzero(~on_boundary)[0]
        rng = np.random.default_rng([seed, param])
        step = JITTER * shortest_edge(plain.vertices, plain.tets) / np.sqrt(3.0)
        disp[free] = rng.uniform(-step, step, size=(free.size, 3))
    moved = dataclasses.replace(plain, vertices=plain.vertices + disp)

    vols = tet_volumes(moved.vertices, moved.tets)
    if not np.all(vols > 0.0):
        bad = np.nonzero(~(vols > 0.0))[0]
        raise InputError(
            "seed %s, %s param %s: %d tet(s) with non-positive volume, first %d"
            % (seed, case.name, param, bad.size, bad[0])
        )
    want = boundary_counts(plain, case.surface)
    got = boundary_counts(moved, case.surface)
    if got != want:
        raise InputError(
            "seed %s, %s param %s: (|S_h|, |R_h|, Gamma_h faces, violations) "
            "changed from %s to %s" % (seed, case.name, param, want, got)
        )
    return Level(param=param, disp=disp, vertices=moved.vertices)


def jittered_mesh(case_mesh, levels):
    """A drop-in for `case.mesh`: generates the mesh with the package's
    generator, then applies the level's checked displacement."""

    def mesh(param):
        m = case_mesh(param)
        return dataclasses.replace(m, vertices=m.vertices + levels[param].disp)

    return mesh
