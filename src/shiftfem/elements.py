"""Reference tetrahedron: Lagrange elements of degree 2 and 3, quadrature,
and the affine maps between reference and physical elements.

The shape functions of degree k come from one formula over the
barycentric multi-indices alpha of the nodes (node = alpha / k).
`multi_indices` holds the package's one degree check, against `DEGREES`
(k = 2, 3): k=4 needs interior nodes, a degree-6 quadrature rule and the
per-tet table's face nodes ordered by sorted vertex ids, as
`dofs.DofLayout.hats` orders them.

Reference tetrahedron: vertices (0,0,0), (1,0,0), (0,1,0), (0,0,1).
Barycentric coordinates: lam0 = 1-x-y-z, lam1 = x, lam2 = y, lam3 = z.

Local node ordering (frozen; the degree-of-freedom map relies on it):
  * 4 vertex nodes, in vertex order 0..3
  * edge nodes, edges in the canonical order
      (0,1), (0,2), (0,3), (1,2), (1,3), (2,3);
    degree 2: one midpoint per edge; degree 3: two nodes per edge, the
    node nearer the first vertex of the pair first
  * degree 3 only: one centroid node per face, faces ordered by opposite
    vertex: (1,2,3), (0,2,3), (0,1,3), (0,1,2)
The nonconforming DOFs take the same positions: its edge functionals in
`EDGES` order, then its face functionals in `FACES` order.  Whatever the
global block order of a `dofs.DofLayout`, its per-tet table comes in
this order.

The affine map of an array of tets is one `AffineMap` whose fields carry a
leading tet axis, so that kernels work on all elements at once.  The
kernels that visit every tet (assembly, error norms) do so in `blocks`:
one rule, `_BLOCK_ENTRIES`, bounds the largest per-tet array of a block,
so that their memory grows with neither the mesh nor the degree.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
DEGREES = (2, 3)  # the supported Lagrange degrees k

REF_VERTICES = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)

# gradients of the four barycentric coordinates w.r.t. (x, y, z)
_BARY_GRADS = np.array(
    [[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


def barycentric(points):
    """Barycentric coordinates, shape (n, 4), of reference points (n, 3)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lam = np.empty((pts.shape[0], 4))
    lam[:, 0] = 1.0 - pts.sum(axis=1)
    lam[:, 1:] = pts
    return lam


@lru_cache(maxsize=None)
def multi_indices(degree: int) -> np.ndarray:
    """Barycentric multi-indices alpha (|alpha| = degree) of the Lagrange
    nodes, (n_k, 4), in the frozen local order."""
    if degree not in DEGREES:
        raise ValueError("only degrees %s are supported"
                         % " and ".join(map(str, DEGREES)))
    k = degree
    entries = [{i: k} for i in range(4)]
    entries += [{a: k - m, b: m} for a, b in EDGES for m in range(1, k)]
    entries += [dict(zip(face, (i, j, k - i - j))) for face in FACES
                for i in range(1, k - 1) for j in range(1, k - i)]
    out = np.array([[e.get(i, 0) for i in range(4)] for e in entries])
    out.flags.writeable = False
    return out


def reference_nodes(degree: int) -> np.ndarray:
    """Lagrangian node coordinates on the reference tet, frozen ordering."""
    return multi_indices(degree)[:, 1:] / degree


def _factor_products(degree, points):
    """P[n, i, a] = prod_{j<a} (k lam_i - j)/(j+1) at every point, and its
    derivative in lam_i, both (n_pts, 4, k+1)."""
    k = degree
    lam = barycentric(points)
    P = np.ones(lam.shape + (k + 1,))
    dP = np.zeros_like(P)
    for j in range(k):
        P[..., j + 1] = P[..., j] * (k * lam - j) / (j + 1)
        dP[..., j + 1] = (dP[..., j] * (k * lam - j) + P[..., j] * k) / (j + 1)
    return P, dP


def shape_values(degree: int, points) -> np.ndarray:
    """Values of all shape functions at reference points: (n_pts, n_nodes).

    phi_alpha = prod_i prod_{j<alpha_i} (k lam_i - j)/(j+1)."""
    alpha = multi_indices(degree)
    P, _ = _factor_products(degree, points)
    return P[:, np.arange(4), alpha].prod(axis=-1)


def shape_gradients(degree: int, points) -> np.ndarray:
    """Reference gradients of all shape functions: (n_pts, n_nodes, 3), by
    the product rule over the four barycentric factors."""
    alpha = multi_indices(degree)
    P, dP = _factor_products(degree, points)
    vals, dvals = P[:, np.arange(4), alpha], dP[:, np.arange(4), alpha]
    dlam = np.stack(
        [dvals[..., i] * np.delete(vals, i, axis=-1).prod(axis=-1)
         for i in range(4)],
        axis=-1,
    )
    return dlam @ _BARY_GRADS


def edge_adjugate(edges):
    """For the edge rows e1, e2, e3 of tets, (..., 3, 3): the rows e2×e3,
    e3×e1, e1×e2 of adj B, where B has the edges as columns, and
    det B = e1·(e2×e3), in closed form; B⁻¹ = adj B / det B."""
    a, b = edges[..., [1, 2, 0], :], edges[..., [2, 0, 1], :]
    adj = (a[..., [1, 2, 0]] * b[..., [2, 0, 1]]
           - a[..., [2, 0, 1]] * b[..., [1, 2, 0]])
    d = edges[..., 0, :] * adj[..., 0, :]
    return adj, d[..., 0] + d[..., 1] + d[..., 2]


@dataclass
class AffineMap:
    """Affine map x = v0 + B x_hat from the reference tet to a physical tet,
    or a stack of n such maps: every field then has a leading tet axis
    (v0 (n, 3), B and Binv (n, 3, 3), detB (n,)).  B⁻¹ and det B come in
    closed form from the edge vectors (`edge_adjugate`), with no LAPACK
    call per tet, and `to_physical` maps the reference points into all
    tets with one matrix product."""

    v0: np.ndarray
    B: np.ndarray
    Binv: np.ndarray
    detB: float | np.ndarray

    @classmethod
    def from_vertices(cls, verts, ids=None):
        """Map of one tet (4, 3) or of a stack of tets (n, 4, 3).  A
        degenerate tet is named by its entry of `ids`, the mesh ids of the
        stack (any sequence, a `range` too), else by its stack index."""
        verts = np.asarray(verts, dtype=float)
        v0 = verts[..., 0, :]
        edges = verts[..., 1:, :] - v0[..., None, :]
        adj, detB = edge_adjugate(edges)
        bad = np.flatnonzero(~(detB > 0.0))
        if bad.size:
            tet = bad[0] if ids is None else np.ravel(ids)[bad[0]]
            raise ValueError("tetrahedron %d is degenerate or negatively "
                             "oriented" % tet)
        return cls(v0=v0, B=np.swapaxes(edges, -1, -2),
                   Binv=adj / detB[..., None, None], detB=detB)

    def to_physical(self, ref_points):
        """Reference points (m, 3) -> physical points, (m, 3) or (n, m, 3)."""
        pts = np.atleast_2d(np.asarray(ref_points, dtype=float))
        lead = self.B.shape[:-2]
        x = (self.B.reshape(-1, 3) @ pts.T).reshape(lead + (3, len(pts)))
        return np.swapaxes(x, -1, -2) + self.v0[..., None, :]

    def to_reference(self, phys_points):
        """Physical points (m, 3), or (n, m, 3) for a stack, -> reference."""
        pts = np.atleast_2d(np.asarray(phys_points, dtype=float))
        return (pts - self.v0[..., None, :]) @ np.swapaxes(self.Binv, -1, -2)


#: float64 entries (256 KB) in a block's stack of its largest per-tet
#: array: the n_loc x n_loc element matrices in assembly, the (n_q, 3)
#: gradients in the error norms.  The largest value at which the peak RSS
#: (ru_maxrss) of one tp3 new k=2 I=2,4,8 run stays flat: 72 MB from 2**13
#: to 2**15, 73 MB at 2**16 and 75 MB at 2**17
_BLOCK_ENTRIES = 2 ** 15


def blocks(n: int, entries: int):
    """range(n) cut into slices of at most `_BLOCK_ENTRIES` // `entries`
    items (at least one), in order, for a kernel whose largest array holds
    `entries` float64 entries per item."""
    step = max(1, _BLOCK_ENTRIES // entries)
    return [slice(s, s + step) for s in range(0, n, step)]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """A rule on the reference tet.  It compares and hashes by identity,
    because its arrays do not compare by value."""

    points: np.ndarray  # (n, 3) reference coordinates
    weights: np.ndarray  # (n,), sums to 1/6 (reference tet volume)


@lru_cache(maxsize=None)
def tet_quadrature(degree: int) -> QuadratureRule:
    """Symmetric quadrature on the reference tet, exact to `degree`: the
    15-point rule of degree 5 for every degree <= 5."""
    if degree > 5:
        raise ValueError("no rule of degree > 5 available")
    s15 = np.sqrt(15.0)
    a1 = (7.0 - s15) / 34.0
    a2 = (7.0 + s15) / 34.0
    a3 = (10.0 - 2.0 * s15) / 40.0
    b3 = (10.0 + 2.0 * s15) / 40.0
    w0 = 8.0 / 405.0
    w1 = (2665.0 + 14.0 * s15) / 226800.0
    w2 = (2665.0 - 14.0 * s15) / 226800.0
    w3 = 5.0 / 567.0
    bary = [[0.25, 0.25, 0.25, 0.25]]
    weights = [w0]
    for a, w in ((a1, w1), (a2, w2)):
        b = 1.0 - 3.0 * a
        for i in range(4):
            row = [a, a, a, a]
            row[i] = b
            bary.append(row)
            weights.append(w)
    for i, j in EDGES:
        row = [b3, b3, b3, b3]
        row[i] = row[j] = a3
        bary.append(row)
        weights.append(w3)
    return QuadratureRule(np.array(bary)[:, 1:], np.array(weights))


def refined_quadrature(degree: int, levels: int) -> QuadratureRule:
    """Composite rule: red-refine the reference tet `levels` times and apply
    the base rule on each sub-tet.  Used as an independent integration
    oracle in the tests and for error norms of non-polynomial integrands.
    """
    base = tet_quadrature(degree)
    tets = [REF_VERTICES.copy()]
    for _ in range(levels):
        tets = [sub for t in tets for sub in _red_refine(t)]
    amap = AffineMap.from_vertices(np.array(tets))
    pts = amap.to_physical(base.points).reshape(-1, 3)
    wts = (base.weights * amap.detB[:, None]).ravel()
    return QuadratureRule(pts, wts)


#: the 8 sub-tets of the red refinement, as indices into the 4 vertices
#: followed by the 6 edge midpoints (4 + local edge id): the 4 corner tets,
#: then the inner octahedron split along the (0,1)-(2,3) diagonal
_RED_SUBTETS = np.array([
    [0, 4, 5, 6], [4, 1, 7, 8], [5, 7, 2, 9], [6, 8, 9, 3],
    [4, 9, 5, 6], [4, 9, 6, 8], [4, 9, 8, 7], [4, 9, 7, 5],
])


def _red_refine(verts):
    """Split one tet into its 8 red sub-tets, (8, 4, 3).  Those of the
    reference tet are positively oriented, so those of any positive tet,
    their affine images, are too."""
    v = np.asarray(verts, dtype=float)
    a, b = np.array(EDGES).T
    return np.vstack([v, 0.5 * (v[a] + v[b])])[_RED_SUBTETS]
