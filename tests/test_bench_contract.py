"""The benchmark's tracer (bench/tracing.py) rebinds package functions by
module attribute; every attribute it names must resolve, and the spans
must land when a study runs."""
import importlib.util
import sys
from pathlib import Path

import pytest

from shiftfem.analysis import run_single
from shiftfem.cases import get_case
from shiftfem.dofs import build_lagrange_nodes
from shiftfem.meshgen import classify_boundary
from shiftfem.trialspace import build_modified_basis, build_shifted_node_table

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_patched_attribute_resolves(tracing):
    for module, attr, _span, _attrs in tracing.PATCHES:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)


@pytest.mark.parametrize(
    "method,spans",
    [
        ("new", {"assembly.assemble", "dofs.nodes", "trialspace.shift_table",
                 "trialspace.bases"}),
        ("polyhedral", {"assembly.assemble", "dofs.nodes"}),
        ("nonconforming", {"nonconforming.assemble", "nonconforming.bases"}),
    ],
)
def test_traced_spans_land(tracing, method, spans):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        run_single(get_case("tp1-sphere"), method, 2, 4)
    names = {s.name for s in tracer.spans}
    assert spans | {"meshgen.classify", "assembly.element", "linsolve.solve",
                    "analysis.recover", "analysis.error_norms"} <= names


def test_traced_metrics_equal_the_package_values(tracing):
    """A traced `new` study reports the census, shift count and basis
    conditioning that the package computes directly, and builds the
    boundary bases in one call per level."""
    case, params = get_case("tp1-sphere"), (4, 8)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for p in params:
            run_single(case, "new", 2, p)
    metrics = tracer.layer_metrics()

    conds, devs = [], []
    for p in params:
        mesh = case.mesh(p)
        cls = classify_boundary(mesh, case.surface)
        nodes = build_lagrange_nodes(mesh, 2)
        table = build_shifted_node_table(mesh, cls, case.surface, nodes)
        for t in cls.o_tets:
            basis = build_modified_basis(mesh, nodes, table, t)
            conds.append(basis.condition)
            devs.append(basis.deviation_from_identity)
    assert metrics["meshgen.s_tets"] == len(cls.s_tets)
    assert metrics["meshgen.r_tets"] == len(cls.r_tets)
    assert metrics["trialspace.n_shifted"] == len(cls.gamma_edges)
    assert metrics["trialspace.max_cond"] == pytest.approx(max(conds), rel=1e-12)
    assert metrics["trialspace.max_dev_identity"] == pytest.approx(max(devs),
                                                                   rel=1e-12)
    assert isinstance(metrics["trialspace.max_cond"], float)
    assert [s.name for s in tracer.spans].count("trialspace.bases") == len(params)
