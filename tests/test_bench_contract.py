"""The benchmark's tracer (bench/tracing.py) rebinds package functions by
module attribute; every attribute it names must resolve, and the spans
must land when a study runs."""
import importlib.util
import sys
from pathlib import Path

import pytest

from shiftfem.analysis import run_single
from shiftfem.cases import get_case

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
