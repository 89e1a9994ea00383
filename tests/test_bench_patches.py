"""The benchmark tracer's patch targets exist in the program.

``lmhbench/spans.py`` wraps each ``(module, attribute)`` of its
``PATCHES`` table by looking the name up in the owner's ``__dict__``; a
name the program no longer defines there would fail every traced
benchmark run with a ``KeyError``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "lmhbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("lmhbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_resolves():
    missing = []
    for module, path, _ in load_spans().PATCHES:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if attr not in owner.__dict__:
            missing.append(f"{module}.{path}")
    assert not missing, f"spans.py patches names the program does not define: {missing}"


def test_traced_lu_counts_every_lu_solve(monkeypatch):
    # the tracer's SuperLU wrapper must count each vector and block
    # solve once
    from lmh import solvers
    from lmh.localized import Region, compute_lmh
    from lmh.synth import grid_mesh, patch_vertices

    spans = load_spans()
    solved = []
    real_solve = solvers._PermutedLU.solve

    def counting_solve(self, rhs):
        solved.append(rhs.ndim)
        return real_solve(self, rhs)

    monkeypatch.setattr(solvers._PermutedLU, "solve", counting_solve)
    mesh = grid_mesh(12, 12)
    region = Region.binary(
        mesh.n_vertices, patch_vertices(mesh, (0.25, 0.75), (0.25, 0.75))
    )
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        compute_lmh(mesh, region, 6, 4)
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert set(solved) == {1, 2}
    assert metrics["solvers.lu_solve_calls"] == len(solved)
