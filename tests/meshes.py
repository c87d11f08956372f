"""What only the tests need: the unit cube, a domain without a curved
boundary, a mesh with one tet turned inside out, one way to measure a
memory peak and one to run code in a fresh interpreter."""
import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import shiftfem
from shiftfem.meshgen import Mesh, _fix_orientation, _grid_cells, _kuhn_paths


def generate_box_tet_mesh(nx, ny, nz):
    """Structured mesh of the unit cube, nx x ny x nz cells of 6 Kuhn tets
    each, all sharing the cell's main diagonal direction."""
    dims = (nx + 1, ny + 1, nz + 1)
    verts = np.indices(dims).reshape(3, -1).T / np.array([nx, ny, nz])
    paths = _kuhn_paths(_grid_cells((nx, ny, nz)))
    tets = np.ravel_multi_index(tuple(np.moveaxis(paths, -1, 0)), dims)
    return Mesh(verts, _fix_orientation(verts, tets), name="box")


def flipped(mesh, tet):
    """A copy of `mesh` whose tet `tet` is negatively oriented, its first
    two vertices swapped; `mesh` itself is untouched."""
    tets = mesh.tets.copy()
    tets[tet, [0, 1]] = tets[tet, [1, 0]]
    return dataclasses.replace(mesh, tets=tets)


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocates, in bytes, as
    tracemalloc counts it.  Tracing stops however fn ends."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fresh_python(code):
    """The stdout of `code` run in a fresh interpreter that imports this
    `shiftfem` package."""
    site = Path(shiftfem.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(site)), capture_output=True,
        text=True, check=True).stdout
