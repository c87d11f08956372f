"""Spans and counters recorded from outside the package.

`installed(tracer)` rebinds the public functions of each layer on the
module attribute that their caller looks up (for example
`shiftfem.assembly.build_shifted_node_table`, which `assemble_new_method`
calls), so spans nest and a layer's self time is its span minus its child
spans.  `instrument_case` counts calls into the case's surface and its
point-wise callables.  Spans are kept in memory; nothing is written
until the caller asks for it.
"""
from __future__ import annotations

import collections
import contextlib
import copy
import dataclasses
import functools
import resource
import statistics
from time import perf_counter

from shiftfem import analysis, assembly, nonconforming


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _classify_attrs(out, args, _before):
    return {"n_tets": args[0].n_tets, "s_tets": len(out.s_tets),
            "r_tets": len(out.r_tets)}


def _basis_attrs(out, _args, _before):
    return {"cond": out.condition, "dev": out.deviation_from_identity}


def _solve_attrs(out, args, before):
    A = args[0].A
    return {"n_eq": A.shape[0], "nnz": A.nnz,
            "rel_residual": out.relative_residual,
            "rss_delta_mb": maxrss_mb() - before}


#: (module, attribute looked up by the caller, span name, attribute hook)
PATCHES = [
    (analysis, "classify_boundary", "meshgen.classify", _classify_attrs),
    (assembly, "build_lagrange_nodes", "dofs.nodes",
     lambda out, a, b: {"n_nodes": out.n_nodes}),
    (assembly, "build_shifted_node_table", "trialspace.shift_table",
     lambda out, a, b: {"n_shifted": len(out.shifts)}),
    (assembly, "build_modified_basis", "trialspace.bases", _basis_attrs),
    (analysis, "assemble_new_method", "assembly.assemble", None),
    (analysis, "assemble_polyhedral", "assembly.assemble", None),
    (assembly, "element_stiffness", "assembly.element", None),
    (assembly, "element_load", "assembly.element", None),
    (nonconforming, "element_stiffness", "assembly.element", None),
    (nonconforming, "element_load", "assembly.element", None),
    (analysis, "nc_assemble", "nonconforming.assemble", None),
    (nonconforming, "build_nc_modified_basis", "nonconforming.bases", None),
    (analysis, "solve", "linsolve.solve", _solve_attrs),
    (analysis, "element_phi_coefficients", "analysis.recover", None),
    (analysis, "nc_element_phi_coefficients", "analysis.recover", None),
    (analysis, "error_norms", "analysis.error_norms", None),
]


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    attrs: dict | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = collections.Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """`fn` recorded as a span; `attrs(result, args, rss_before)`
        annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = maxrss_mb() if attrs is not None else 0.0
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, perf_counter(), 0.0, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(out, args, before)
            return out

        return traced

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def instrument_case(self, case):
        """A copy of `case` whose surface and point-wise callables count
        their calls.  The surface copy carries the counters as instance
        attributes, so calls the surface makes on itself are counted too."""
        surface = copy.copy(case.surface)
        surface.value = self.counter("surfaces.value_calls", surface.value)
        surface.nearest_line_intersection = self.counter(
            "surfaces.intersection_calls", surface.nearest_line_intersection
        )
        return dataclasses.replace(
            case,
            surface=surface,
            mesh=self.wrap("meshgen.mesh", case.mesh),
            u=self.counter("cases.u_calls", case.u),
            grad_u=self.counter("cases.grad_u_calls", case.grad_u),
            f=self.counter("cases.f_calls", case.f),
        )

    def self_times(self):
        """Span name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = {}
        for s, c in zip(self.spans, child):
            calls, total, own = out.get(s.name, (0, 0.0, 0.0))
            dur = s.end - s.start
            out[s.name] = (calls + 1, total + dur, own + dur - c)
        return out

    def last_attrs(self, name):
        for s in reversed(self.spans):
            if s.name == name and s.attrs is not None:
                return s.attrs
        return {}

    def max_attr(self, name, key):
        vals = [s.attrs[key] for s in self.spans
                if s.name == name and s.attrs is not None]
        return max(vals, default=0.0)

    def layer_metrics(self):
        """Per-layer metrics of one traced study, by metric name.  Sizes
        are those of the study's last call (its finest level); layers the
        workload does not exercise read 0."""
        times = self.self_times()

        def total(name):
            return times.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return times.get(name, (0, 0.0, 0.0))[2]

        classify = self.last_attrs("meshgen.classify")
        solved = self.last_attrs("linsolve.solve")
        return {
            "meshgen.mesh_s": total("meshgen.mesh"),
            "meshgen.classify_s": total("meshgen.classify"),
            "meshgen.n_tets": classify.get("n_tets", 0),
            "meshgen.s_tets": classify.get("s_tets", 0),
            "meshgen.r_tets": classify.get("r_tets", 0),
            "dofs.nodes_s": total("dofs.nodes"),
            "dofs.n_nodes": self.last_attrs("dofs.nodes").get("n_nodes", 0),
            "surfaces.value_calls": self.counts["surfaces.value_calls"],
            "surfaces.intersection_calls":
                self.counts["surfaces.intersection_calls"],
            "trialspace.shift_table_s": total("trialspace.shift_table"),
            "trialspace.bases_s": total("trialspace.bases"),
            "trialspace.n_shifted":
                self.last_attrs("trialspace.shift_table").get("n_shifted", 0),
            "trialspace.max_cond": self.max_attr("trialspace.bases", "cond"),
            "trialspace.max_dev_identity":
                self.max_attr("trialspace.bases", "dev"),
            "assembly.assemble_s": total("assembly.assemble"),
            "assembly.self_s": own("assembly.assemble"),
            "assembly.element_s": total("assembly.element"),
            "assembly.element_calls": times.get("assembly.element", (0,))[0],
            "assembly.n_eq": solved.get("n_eq", 0),
            "assembly.nnz": solved.get("nnz", 0),
            "nonconforming.assemble_s": total("nonconforming.assemble"),
            "nonconforming.self_s": own("nonconforming.assemble"),
            "nonconforming.bases_s": total("nonconforming.bases"),
            "linsolve.solve_s": total("linsolve.solve"),
            "linsolve.rel_residual":
                self.max_attr("linsolve.solve", "rel_residual"),
            "linsolve.rss_delta_mb":
                self.max_attr("linsolve.solve", "rss_delta_mb"),
            "analysis.recover_s": total("analysis.recover"),
            "analysis.error_norms_s": total("analysis.error_norms"),
            "cases.u_calls": self.counts["cases.u_calls"],
            "cases.grad_u_calls": self.counts["cases.grad_u_calls"],
            "cases.f_calls": self.counts["cases.f_calls"],
        }

    def to_json(self):
        return {
            "spans": [dataclasses.asdict(s) for s in self.spans],
            "self_times": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.self_times().items())
            },
            "counts": dict(self.counts),
        }


@contextlib.contextmanager
def installed(tracer):
    """Rebind every function in PATCHES to a span-recording wrapper for
    the duration of the block."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PATCHES]
    try:
        for (mod, attr, name, attrs), (_, _, fn) in zip(PATCHES, saved):
            setattr(mod, attr, tracer.wrap(name, fn, attrs))
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def median_metrics(per_study):
    """Metric-wise median over the traced studies of one run."""
    return {k: statistics.median(m[k] for m in per_study) for k in per_study[0]}
