"""Error norms over the mesh domain, convergence orders, and the CSV /
table reporting used by the command-line driver.
"""
from __future__ import annotations

import io
import numbers
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    assemble_new_method,
    assemble_polyhedral,
    element_phi_coefficients,
)
from .cases import ExactCase
from .elements import (
    AffineMap,
    blocks,
    reference_nodes,
    refined_quadrature,
    shape_gradients,
    shape_values,
)
from .linsolve import DEFAULT_TOL, solve
from .meshgen import classify_boundary
from .nonconforming import nc_assemble

# Not called here: bench/tracing.py rebinds this name on this module.
nc_element_phi_coefficients = element_phi_coefficients

CSV_HEADER = (
    "case,method,k,param,h,n_dofs,err_h1_broken,err_l2,err_nodal_max,"
    "eoc_h1,eoc_l2,solve_seconds"
)


@dataclass
class ErrorReport:
    h: float
    n_dofs: int
    err_h1_broken: float
    err_l2: float
    err_nodal_max: float
    solve_seconds: float


def error_norms(mesh, degree, phi_coeffs, u, grad_u, quad=None):
    """Broken-H1 seminorm error, L2 error, and max nodal error of a
    piecewise-P_k function given by per-element Lagrange coefficients.

    The error integrands are not polynomial (and the squared L2 integrand
    alone has degree 2(k+2)), so the norms use a once-refined composite of
    the 15-point rule (8 sub-tets, 120 points).  At k=2, against the
    twice- and thrice-refined rules (960 and 7,680 points), err_h1 agrees
    to 2e-5 relative, but err_l2 of the new and nonconforming methods is
    off by 2.2e-3 to 3.8e-3 relative on tp1 J=8, 16 and tp3 I=4, 8 (the
    polyhedral one by at most 3.5e-6).  At k=3, against the thrice-refined
    rule, the new method's err_h1 is off by 5.0e-3 to 5.3e-3 and its
    err_l2 by 9.1e-3 to 1.4e-2 on tp1 J=8, 16 and tp3 I=4.  The offset is
    a nearly constant factor, so the EOCs move by less than 2e-3; the rule
    stays because the benchmark's reference errors were made with it.

    The tets go in blocks (`elements.blocks`) whose (n_q, 3) gradients per
    tet hold at most `_BLOCK_ENTRIES` entries in all, so the memory peak
    grows with neither the mesh nor the rule.  A block evaluates all its
    points at once, with its own affine map, forms the gradient error in
    place and sums its square as one matrix-vector product with the
    weights repeated once per component."""
    if quad is None:
        quad = refined_quadrature(5, 1)
    n_q = quad.weights.size
    vals = shape_values(degree, quad.points).T  # (n_k, n_q)
    n, n_k = phi_coeffs.shape
    grads = shape_gradients(degree, quad.points)  # (n_q, n_k, 3)
    grads = grads.transpose(1, 0, 2).reshape(n_k, 3 * n_q)
    w3 = np.repeat(quad.weights, 3)
    nodes = reference_nodes(degree)
    h1_sq = l2_sq = nodal = 0.0
    for block in blocks(n, 3 * n_q):
        c = phi_coeffs[block]
        m = len(c)
        amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[block]],
                                       range(n)[block])
        pts = amap.to_physical(quad.points)  # (m, n_q, 3)
        d = (c @ grads).reshape(m, n_q, 3) @ amap.Binv
        d -= grad_u(pts)
        h1_sq += (np.square(d, out=d).reshape(m, 3 * n_q) @ w3) @ amap.detB
        l2_sq += (np.square(c @ vals - u(pts)) @ quad.weights) @ amap.detB
        # the coefficients are the nodal values of a Lagrange function
        nodal = max(nodal, np.max(np.abs(c - u(amap.to_physical(nodes)))))
    return float(np.sqrt(h1_sq)), float(np.sqrt(l2_sq)), float(nodal)


def eoc(e1, e2, h1, h2):
    """Estimated order of convergence between two refinements."""
    if min(e1, e2, h1, h2) <= 0.0 or h2 >= h1:
        raise ValueError("eoc needs positive errors and h1 > h2")
    return float(np.log(e1 / e2) / np.log(h1 / h2))


def run_single(case: ExactCase, method: str, degree: int, param,
               record_time=True, tol=DEFAULT_TOL):
    """Mesh, assemble, solve, and measure one case/refinement combination.
    `solve_seconds` is the sparse solve alone, the factors and GMRES
    included; the multigrid prolongation is built during assembly and not
    counted (0 without `record_time`)."""
    # built at call time, so that a rebound builder is the one called
    builders = {
        "new": assemble_new_method,
        "polyhedral": assemble_polyhedral,
        "nonconforming": nc_assemble,
    }
    if method not in builders:
        raise ValueError("unknown method %r" % method)
    mesh = case.mesh(param)
    cls = classify_boundary(mesh, case.surface)
    system = builders[method](mesh, cls, case.surface, degree, case.f, case.g)
    report = solve(system, tol)
    coeffs = element_phi_coefficients(system, report.x)

    e_h1, e_l2, e_nodal = error_norms(mesh, degree, coeffs, case.u, case.grad_u)
    return ErrorReport(
        h=float(case.h_of_param(param)),
        n_dofs=system.A.shape[0],
        err_h1_broken=e_h1,
        err_l2=e_l2,
        err_nodal_max=e_nodal,
        solve_seconds=report.seconds if record_time else 0.0,
    ), mesh, system, report


@dataclass
class ConvergenceTable:
    """One row per refinement; each row's EOCs are derived, by `eoc`, from
    it and the row before (None for the first row)."""

    case: str
    method: str
    degree: int
    params: list
    reports: list  # ErrorReport per refinement
    eoc_h1: list = field(init=False)
    eoc_l2: list = field(init=False)

    def __post_init__(self):
        pairs = list(zip(self.reports, self.reports[1:]))
        self.eoc_h1 = [None] + [eoc(a.err_h1_broken, b.err_h1_broken, a.h, b.h)
                                for a, b in pairs]
        self.eoc_l2 = [None] + [eoc(a.err_l2, b.err_l2, a.h, b.h)
                                for a, b in pairs]

    def to_csv(self):
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        for p, rep, oh, ol in zip(self.params, self.reports, self.eoc_h1,
                                  self.eoc_l2):
            out.write(
                "%s,%s,%d,%s,%.12g,%d,%.12g,%.12g,%.12g,%s,%s,%.6g\n"
                % (
                    self.case,
                    self.method,
                    self.degree,
                    p,
                    rep.h,
                    rep.n_dofs,
                    rep.err_h1_broken,
                    rep.err_l2,
                    rep.err_nodal_max,
                    "" if oh is None else "%.6g" % oh,
                    "" if ol is None else "%.6g" % ol,
                    rep.solve_seconds,
                )
            )
        return out.getvalue()

    def to_text(self):
        lines = [
            "case=%s method=%s k=%d" % (self.case, self.method, self.degree),
            "%6s %12s %8s %14s %8s %14s %8s %14s"
            % ("param", "h", "n_dofs", "err_h1_broken", "eoc", "err_l2",
               "eoc", "err_nodal_max"),
        ]
        for p, rep, oh, ol in zip(self.params, self.reports, self.eoc_h1,
                                  self.eoc_l2):
            lines.append(
                "%6s %12.5e %8d %14.6e %8s %14.6e %8s %14.6e"
                % (
                    p,
                    rep.h,
                    rep.n_dofs,
                    rep.err_h1_broken,
                    "-" if oh is None else "%.3f" % oh,
                    rep.err_l2,
                    "-" if ol is None else "%.3f" % ol,
                    rep.err_nodal_max,
                )
            )
        return "\n".join(lines) + "\n"


def run_convergence(case: ExactCase, method: str, degree: int, params,
                    record_time=True, tol=DEFAULT_TOL) -> ConvergenceTable:
    params = list(params)
    if len(params) < 1:
        raise ValueError("need at least one refinement parameter")
    bad = [p for p in params if not (isinstance(p, numbers.Integral) and p >= 1)]
    if bad:
        raise ValueError("refinement parameter %r is not an integer >= 1"
                         % (bad[0],))
    hs = [case.h_of_param(p) for p in params]
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ValueError("refinement parameters must make h strictly decrease")

    reports = []
    for p in params:
        rep, *_ = run_single(case, method, degree, p, record_time=record_time,
                             tol=tol)
        reports.append(rep)
    return ConvergenceTable(case=case.name, method=method, degree=degree,
                            params=params, reports=reports)
