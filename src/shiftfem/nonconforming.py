"""Quadratic nonconforming element with face-centroid and weighted-edge
degrees of freedom, and its boundary-shifted variant.

Per tet the 10 DOFs are:
  * mu_F(v) = v(centroid of F) for the 4 faces (canonical face order);
  * nu_e(v) = 0.4*v(M_e) + 0.3*[v(A_e) + v(B_e)] for the 6 edges, with
    A_e, B_e the endpoints and M_e the midpoint (canonical edge order).

The canonical basis is obtained by inverting the 10x10 matrix of these
functionals applied to the P2 Lagrange basis; since all the evaluation
points map affinely, the same coefficient matrix serves every element.

The boundary-shifted variant replaces, on boundary elements, mu_F of a
Gamma_h face by evaluation at the nearest intersection of the surface
with the perpendicular to F through its centroid, and the midpoint in
nu_e of a Gamma_h edge by the skin-shifted point Q_e.  Only the
homogeneous Dirichlet problem is supported: the shifted DOFs of Gamma_h
entities are constrained to zero.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .assembly import System, assemble
from .dofs import DofMap, tet_edge_ids, tet_face_ids
from .elements import EDGES, FACES, AffineMap, REF_VERTICES, shape_values
from .meshgen import BoundaryClassification, Mesh, skin_direction
from .surfaces import Surface
from .trialspace import ModifiedElementBasis

# Not called here: bench/tracing.py rebinds these names on this module.
from .assembly import element_load, element_stiffness  # noqa: F401

N_DOFS = 10


def nc_edge_functional(v_a, v_m, v_b):
    """The weighted edge functional 0.4*v(midpoint) + 0.3*(endpoints)."""
    return 0.4 * v_m + 0.3 * (v_a + v_b)


def _reference_dof_points():
    """Evaluation points feeding the 10 reference DOFs."""
    centroids = [REF_VERTICES[list(f)].mean(axis=0) for f in FACES]
    edge_pts = [
        (REF_VERTICES[a], 0.5 * (REF_VERTICES[a] + REF_VERTICES[b]), REF_VERTICES[b])
        for a, b in EDGES
    ]
    return centroids, edge_pts


def _apply_reference_dofs(values_at):
    """Apply the 10 DOFs to a function given by `values_at(points)->array`."""
    centroids, edge_pts = _reference_dof_points()
    out = [values_at(c) for c in centroids]
    for pa, pm, pb in edge_pts:
        out.append(nc_edge_functional(values_at(pa), values_at(pm), values_at(pb)))
    return np.array(out)


@lru_cache(maxsize=None)
def nc_reference_matrix() -> np.ndarray:
    """R with b_j = sum_m R[m, j] * phi_m (phi = P2 Lagrange basis)."""
    def lag(p):
        return shape_values(2, p)[0]

    N = np.stack([_apply_reference_dofs(lambda p, m=m: lag(p)[m]) for m in range(10)],
                 axis=1)
    if abs(np.linalg.det(N)) < 1e-12:
        raise RuntimeError("nonconforming DOF matrix is singular")
    return np.linalg.inv(N)


def nc_dofmap(mesh: Mesh, bc: BoundaryClassification) -> DofMap:
    """DOF map of the face and edge DOFs: face ids, then n_faces + edge
    ids, with the Gamma_h faces and edges masked."""
    faces, edges = mesh.faces(), mesh.edges()
    cells = np.hstack([tet_face_ids(mesh), len(faces) + tet_edge_ids(mesh)])
    gamma = np.zeros(len(faces) + len(edges), dtype=bool)
    gamma[[faces[tri] for tri in bc.gamma_faces]] = True
    gamma[[len(faces) + edges[e] for e in bc.gamma_edges]] = True
    return DofMap.build(cells, gamma)


def _shifted_edge_points(mesh, bc, surface):
    """Gamma_h edge -> skin-shifted midpoint Q_e (single-valued)."""
    out = {}
    for edge in sorted(bc.gamma_edges):
        w = skin_direction(mesh, bc, edge)
        pa, pb = mesh.vertices[edge[0]], mesh.vertices[edge[1]]
        M = 0.5 * (pa + pb)
        Q, _ = surface.nearest_line_intersection(
            M, w, 4.0 * np.linalg.norm(pb - pa)
        )
        out[edge] = Q
    return out


def build_nc_modified_basis(
    mesh: Mesh,
    bc: BoundaryClassification,
    surface: Surface,
    tet: int,
    edge_shifts: dict,
) -> ModifiedElementBasis:
    R = nc_reference_matrix()
    amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[tet]])
    tetv = mesh.tets[tet]

    def basis_values(phys_point):
        ref = amap.to_reference(phys_point)
        return shape_values(2, ref)[0] @ R  # values of the 10 canonical b_j

    K = np.eye(N_DOFS)
    for lf, f in enumerate(FACES):
        tri = tuple(sorted(int(tetv[i]) for i in f))
        if tri not in bc.gamma_faces:
            continue
        pts = mesh.vertices[list(tri)]
        centroid = pts.mean(axis=0)
        n = mesh.outward_face_normal(tri)
        h_t = float(np.max(np.linalg.norm(pts - centroid, axis=1)))
        P, _ = surface.nearest_line_intersection(centroid, n, 4.0 * h_t)
        K[lf, :] = basis_values(P)
    for le, (a, b) in enumerate(EDGES):
        key = (min(int(tetv[a]), int(tetv[b])), max(int(tetv[a]), int(tetv[b])))
        if key not in bc.gamma_edges:
            continue
        Q = edge_shifts[key]
        pa, pb = mesh.vertices[key[0]], mesh.vertices[key[1]]
        K[4 + le, :] = nc_edge_functional(
            basis_values(pa), basis_values(Q), basis_values(pb)
        )
    return ModifiedElementBasis.invert(K, tet)


def nc_assemble(
    mesh: Mesh, bc: BoundaryClassification, surface: Surface, degree: int, f, g
) -> System:
    """Square system over the non-Gamma_h face/edge DOFs.  Only
    homogeneous Dirichlet data is supported: the Gamma_h DOFs carry the
    value zero, and `g` must vanish on the Gamma_h vertices."""
    if degree != 2:
        raise ValueError("the nonconforming element only exists for k=2")
    if any(g(mesh.vertices[v]) != 0.0 for v in sorted(bc.gamma_vertices)):
        raise ValueError("the nonconforming element needs homogeneous "
                         "Dirichlet data")
    bc.check_assumption()
    dofmap = nc_dofmap(mesh, bc)
    edge_shifts = _shifted_edge_points(mesh, bc, surface)
    C = {t: build_nc_modified_basis(mesh, bc, surface, t, edge_shifts).C
         for t in bc.o_tets}
    return assemble(mesh, 2, dofmap, np.zeros(dofmap.n_dofs), C,
                    nc_reference_matrix(), f)
