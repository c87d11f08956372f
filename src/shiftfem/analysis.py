"""Error norms over the mesh domain, convergence orders, and the CSV /
table reporting used by the command-line driver.
"""
from __future__ import annotations

import io
import numbers
from dataclasses import dataclass

import numpy as np

from .assembly import (
    assemble_new_method,
    assemble_polyhedral,
    element_phi_coefficients,
)
from .cases import ExactCase
from .elements import (
    AffineMap,
    reference_nodes,
    refined_quadrature,
    shape_gradients,
    shape_values,
)
from .linsolve import solve
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
    the 15-point rule (8 sub-tets, 120 points); this matches a further
    refined oracle rule to well below the reported digits."""
    if quad is None:
        quad = refined_quadrature(5, 1)
    vals = shape_values(degree, quad.points)  # (n_q, n_k)
    grads = shape_gradients(degree, quad.points)  # (n_q, n_k, 3)
    amap = AffineMap.from_vertices(mesh.vertices[mesh.tets])
    n, n_k = phi_coeffs.shape
    B = amap.B.reshape(3 * n, 3)

    # 16 quadrature points at a time, on all tets: each block is a few
    # matrix products over (n_tets, 16, ...) arrays, where the whole rule
    # at once would hold (n_tets, n_q, 3) arrays, n_q / 16 times the memory
    h1_sq = np.zeros(n)
    l2_sq = np.zeros(n)
    for s in range(0, quad.weights.size, 16):
        q = slice(s, s + 16)
        w = quad.weights[q]
        m = w.size
        pts = (B @ quad.points[q].T).reshape(n, 3, m).transpose(0, 2, 1)
        pts += amap.v0[:, None, :]  # (n_tets, m, 3)
        uh = phi_coeffs @ vals[q].T  # (n_tets, m)
        ref = grads[q].transpose(1, 0, 2).reshape(n_k, 3 * m)
        guh = (phi_coeffs @ ref).reshape(n, m, 3) @ amap.Binv
        l2_sq += (uh - u(pts)) ** 2 @ w
        d = guh - grad_u(pts)
        h1_sq += np.einsum("tqe,tqe,q->t", d, d, w)
    # the coefficients are the nodal values of a Lagrange function
    nodal = phi_coeffs - u(amap.to_physical(reference_nodes(degree)))
    return (float(np.sqrt(h1_sq @ amap.detB)), float(np.sqrt(l2_sq @ amap.detB)),
            float(np.max(np.abs(nodal))))


def eoc(e1, e2, h1, h2):
    """Estimated order of convergence between two refinements."""
    if min(e1, e2, h1, h2) <= 0.0 or h2 >= h1:
        raise ValueError("eoc needs positive errors and h1 > h2")
    return float(np.log(e1 / e2) / np.log(h1 / h2))


def run_single(case: ExactCase, method: str, degree: int, param,
               record_time=True, tol=1e-12):
    """Mesh, assemble, solve, and measure one case/refinement combination.
    `solve_seconds` is the sparse solve alone, refinement or GMRES
    included (0 without `record_time`)."""
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
    case: str
    method: str
    degree: int
    params: list
    reports: list  # ErrorReport per refinement
    eoc_h1: list  # None for the first row
    eoc_l2: list

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
                    record_time=True, tol=1e-12) -> ConvergenceTable:
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

    eoc_h1, eoc_l2 = [None], [None]
    for prev, cur in zip(reports, reports[1:]):
        eoc_h1.append(eoc(prev.err_h1_broken, cur.err_h1_broken, prev.h, cur.h))
        eoc_l2.append(eoc(prev.err_l2, cur.err_l2, prev.h, cur.h))
    return ConvergenceTable(
        case=case.name,
        method=method,
        degree=degree,
        params=params,
        reports=reports,
        eoc_h1=eoc_h1,
        eoc_l2=eoc_l2,
    )
