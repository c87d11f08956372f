"""Mesh topology and boundary census against a brute-force oracle.

The oracle scans every tet with dicts and sets keyed by sorted vertex
tuples, the way the entity census reads in the paper: edges and faces
numbered by first appearance, the faces of exactly one tet, the Gamma_h
faces, edges and vertices, S_h (a face on Gamma_h), R_h (an edge and no
face) and the one-face-or-one-edge violations, and the skin direction of
each Gamma_h edge from its two boundary faces.  The meshes are the
octant and torus generators' with the local vertex order of every tet
permuted and the vertices off the boundary jittered, plus box meshes
whose "surface" is the union of two of the box's faces: there the
one-face-or-one-edge assumption fails in all three ways, and some skin
directions degenerate.
"""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from meshes import generate_box_tet_mesh
from shiftfem.elements import EDGES, FACES
from shiftfem.meshgen import (
    Mesh,
    Topology,
    classify_boundary,
    generate_octant_mesh,
    generate_torus_sector_mesh,
    skin_directions,
)
from shiftfem.surfaces import Ellipsoid, Torus


def brute_topology(tets):
    """Edge and face dicts (sorted tuple -> id, first appearance), the
    per-tet id lists, and boundary face -> (tet, opposite local vertex)."""
    edges, faces, incidence = {}, {}, {}
    tet_edges, tet_faces = [], []
    for t, tet in enumerate(tets.tolist()):
        tet_edges.append([edges.setdefault(tuple(sorted((tet[a], tet[b]))),
                                           len(edges)) for a, b in EDGES])
        row = []
        for skip, face in enumerate(FACES):
            tri = tuple(sorted(tet[i] for i in face))
            row.append(faces.setdefault(tri, len(faces)))
            incidence.setdefault(tri, []).append((t, skip))
        tet_faces.append(row)
    boundary = {tri: inc[0] for tri, inc in incidence.items() if len(inc) == 1}
    return edges, faces, tet_edges, tet_faces, boundary


def brute_classify(mesh, surface, boundary):
    """Gamma_h faces, edges and vertices as sets; S_h, R_h and the
    violations from a per-tet scan."""
    tol = 1e-9 * surface.scale
    gamma_faces = {tri for tri in boundary
                   if all(abs(surface.value(mesh.vertices[v])) <= tol
                          for v in tri)}
    gamma_edges, gamma_vertices = set(), set()
    for a, b, c in gamma_faces:
        gamma_edges |= {(a, b), (a, c), (b, c)}
        gamma_vertices |= {a, b, c}
    s_tets, r_tets, violations = [], [], []
    for t, tet in enumerate(mesh.tets.tolist()):
        tfaces = [tri for tri in (tuple(sorted(tet[i] for i in f))
                                  for f in FACES) if tri in gamma_faces]
        tedges = [e for e in (tuple(sorted((tet[a], tet[b])))
                              for a, b in EDGES) if e in gamma_edges]
        if len(tfaces) >= 2:
            violations.append("tet %d has %d faces on Gamma_h" % (t, len(tfaces)))
        elif len(tfaces) == 1 and len(tedges) > 3:
            violations.append("tet %d has a face and %d extra edge(s) on "
                              "Gamma_h" % (t, len(tedges) - 3))
        elif not tfaces and len(tedges) >= 2:
            violations.append("tet %d has %d edges (and no face) on Gamma_h"
                              % (t, len(tedges)))
        if tfaces:
            s_tets.append(t)
        elif tedges:
            r_tets.append(t)
    return gamma_faces, gamma_edges, gamma_vertices, s_tets, r_tets, violations


def brute_skin_direction(mesh, boundary, gamma_faces, edge):
    """The skin direction of one Gamma_h edge from a scan of all boundary
    faces: the bisector of the two Gamma_h face normals, or the in-plane
    part of the one Gamma_h normal next to a symmetry face, made
    orthogonal to the edge."""
    def normal(tri):
        t, skip = boundary[tri]
        a, b, c = (mesh.vertices[i] for i in tri)
        n = np.cross(b - a, c - a)
        n /= np.linalg.norm(n)
        return -n if n @ (mesh.vertices[mesh.tets[t, skip]] - a) > 0.0 else n

    adjacent = [tri for tri in boundary if set(edge) <= set(tri)]
    assert len(adjacent) == 2
    on = [tri for tri in adjacent if tri in gamma_faces]
    off = [tri for tri in adjacent if tri not in gamma_faces]
    if len(on) == 2:
        n = normal(on[0]) + normal(on[1])
    else:
        n, p = normal(on[0]), normal(off[0])
        n = n - (n @ p) * p
    e = mesh.vertices[edge[1]] - mesh.vertices[edge[0]]
    e /= np.linalg.norm(e)
    n = n - (n @ e) * e
    norm = np.linalg.norm(n)
    return n / norm if norm > 1e-12 else None


class TwoBoxFaces:
    """The planes x = 0 and z = 1 as one zero set."""

    scale = 1.0

    def value(self, p):
        return p[..., 0] * (1.0 - p[..., 2])


MESHES = st.one_of(
    st.tuples(st.just("octant"), st.integers(1, 5),
              st.tuples(*[st.floats(0.6, 1.0)] * 3)),
    st.tuples(st.just("torus"), st.sampled_from([2, 4]),
              st.tuples(st.floats(0.6, 1.0), st.floats(0.1, 0.3))),
    st.tuples(st.just("box"), st.integers(1, 3), st.none()),
)


def scrambled_mesh(family, param, shape, seed):
    """A generated mesh with every tet's local vertex order permuted and
    the vertices on no boundary face moved by up to a tenth of the
    shortest edge; returns it with its surface."""
    if family == "octant":
        mesh = generate_octant_mesh(param, shape)
        surface = Ellipsoid(np.array(shape))
    elif family == "box":
        mesh = generate_box_tet_mesh(param, param, param)
        surface = TwoBoxFaces()
    else:
        mesh = generate_torus_sector_mesh(param, *shape)
        surface = Torus(*shape)
    rng = np.random.default_rng(seed)
    tets = np.take_along_axis(
        mesh.tets, rng.permuted(np.tile(np.arange(4), (mesh.n_tets, 1)), axis=1),
        axis=1)
    boundary = brute_topology(mesh.tets)[4]
    free = np.setdiff1d(np.arange(mesh.n_vertices), np.array(list(boundary)))
    ends = mesh.vertices[mesh.topology.edge_vertices]
    shortest = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1).min()
    step = 0.1 * shortest / np.sqrt(3.0)
    vertices = mesh.vertices.copy()
    vertices[free] += rng.uniform(-step, step, size=(free.size, 3))
    return Mesh(vertices, tets, symmetry_planes=mesh.symmetry_planes), surface


@given(MESHES, st.integers(0, 2**32 - 1))
def test_topology_and_census_match_brute_force(spec, seed):
    mesh, surface = scrambled_mesh(*spec, seed)
    top = mesh.topology
    edges, faces, tet_edges, tet_faces, boundary = brute_topology(mesh.tets)

    assert list(map(tuple, top.edge_vertices.tolist())) == list(edges)
    assert list(map(tuple, top.face_vertices.tolist())) == list(faces)
    assert top.tet_edges.tolist() == tet_edges
    assert top.tet_faces.tolist() == tet_faces
    assert [(tuple(top.face_vertices[f].tolist()),
             (int(top.face_tet[f]), int(top.face_local[f])))
            for f in top.boundary] == list(boundary.items())

    cls = classify_boundary(mesh, surface)
    (gamma_faces, gamma_edges, gamma_vertices, s_tets, r_tets,
     violations) = brute_classify(mesh, surface, boundary)
    assert {tuple(f) for f in top.face_vertices[cls.gamma_faces].tolist()} \
        == gamma_faces
    assert {tuple(e) for e in top.edge_vertices[cls.gamma_edges].tolist()} \
        == gamma_edges
    assert cls.gamma_vertices.tolist() == sorted(gamma_vertices)
    assert cls.s_tets.tolist() == s_tets
    assert cls.r_tets.tolist() == r_tets
    assert cls.violations == violations

    expected = [brute_skin_direction(mesh, boundary, gamma_faces, tuple(e))
                for e in top.edge_vertices[cls.gamma_edges].tolist()]
    if any(w is None for w in expected):
        with pytest.raises(ValueError, match="degenerate skin direction"):
            skin_directions(mesh, cls)
    else:
        np.testing.assert_allclose(skin_directions(mesh, cls),
                                   np.reshape(expected, (-1, 3)), rtol=0,
                                   atol=1e-14)


def test_large_vertex_ids_number_exactly_or_raise():
    """Entity keys are encoded as one int64 each.  Vertex ids up to
    2,000,000 still fit a face triple's code and number as the oracle
    does; at 3,000,000 the code would overflow, and the numbering raises
    instead of merging distinct faces."""
    tets = np.array([[0, 1, 2, 2_000_000], [1, 2, 2_000_000, 5]])
    top = Topology.of(tets)
    edges, faces, tet_edges, tet_faces, _ = brute_topology(tets)
    assert list(map(tuple, top.face_vertices.tolist())) == list(faces)
    assert top.tet_faces.tolist() == tet_faces
    assert top.tet_edges.tolist() == tet_edges
    with pytest.raises(ValueError, match=r"cannot number the faces: largest "
                       r"vertex id 3000000 is above 2097150, the largest "
                       r"whose face key fits one int64"):
        Topology.of(np.array([[0, 1, 2, 3_000_000]]))
    # the limit is exact: 2,097,150 still numbers, and edge keys fit far more
    top = Topology.of(np.array([[0, 1, 2, 2_097_150]]))
    assert top.face_vertices.max() == 2_097_150
