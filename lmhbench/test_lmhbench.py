"""Tests of the benchmark itself: tracing hygiene, repeatable counts and
the correctness gate. Run from the repository root with
``python3 -m pytest lmhbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import spans
import workloads
from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def _originals():
    out = {}
    for module, path, _ in spans.PATCHES:
        owner, attr = spans._owner(module, path)
        out[(module, path)] = owner.__dict__[attr]
    return out


def _small(name, seed, tmp_path):
    workload = workloads.make_warm_up(name)
    workload.prepare(seed, tmp_path / name)
    workload.references()
    return workload


def _traced_iteration(workload):
    tracer = spans.Tracer()
    tracer.iteration = 1
    with spans.instrument(tracer):
        out = workload.iteration()
    return tracer, out


def test_instrument_restores_every_patched_attribute():
    before = _originals()
    with spans.instrument(spans.Tracer()):
        during = _originals()
    assert all(during[key] is not before[key] for key in before)
    assert _originals() == before
    assert all(_originals()[key] is before[key] for key in before)


def test_instrument_restores_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.instrument(spans.Tracer()):
            raise RuntimeError("boom")
    assert all(_originals()[key] is before[key] for key in before)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_counts_repeat_across_traced_runs_at_one_seed(name, tmp_path):
    counted = [
        m for m, (_, kind) in spans.SPAN_METRICS.items() if kind != "self_s"
    ] + ["solvers.lu_solves_per_inner", "solvers.numerical_errors"]
    seen = []
    for run in range(2):
        workload = _small(name, 3, tmp_path / f"run{run}")
        tracer, out = _traced_iteration(workload)
        workload.check(out)
        metrics = spans.layer_metrics(tracer.spans, 1)
        seen.append({m: metrics[m] for m in counted})
    assert seen[0] == seen[1]
    assert seen[0]["solvers.factor_calls"] > 0
    assert seen[0]["solvers.lu_solve_calls"] >= seen[0]["solvers.inner_solve_calls"] > 0


def test_layer_self_times_account_for_the_spans(tmp_path):
    workload = _small("sphere_cli_chain", 0, tmp_path)
    tracer, _ = _traced_iteration(workload)
    metrics = spans.layer_metrics(tracer.spans, 1)
    roots = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    assert spans.total_self_time(metrics) == pytest.approx(roots, rel=1e-9)
    assert metrics["cli.commands"] == len(workload.commands())
    assert metrics["io.write_bytes"] > 0 and metrics["io.read_bytes"] > 0


@pytest.mark.parametrize("name", ("grid20k_lmh", "grid4900_hard"))
def test_gate_rejects_perturbed_grid_basis(name, tmp_path):
    workload = _small(name, 0, tmp_path)
    out = workload.iteration()
    workload.check(out)
    relaxed = out["relaxed"]
    rng = np.random.default_rng(0)
    relaxed.functions[:, 3] += 1e-4 * rng.standard_normal(relaxed.functions.shape[0])
    with pytest.raises(checks.CheckFailed, match="relaxed"):
        workload.check(out)


def test_gate_rejects_hard_spectrum_off_by_criterion_06(tmp_path):
    workload = _small("grid4900_hard", 0, tmp_path)
    out = workload.iteration()
    hard = out["hard"]
    with pytest.raises(checks.CheckFailed):
        checks.check_hard_vs_relaxed(hard.spectrum * 1.05, hard.spectrum)


def test_gate_rejects_perturbed_cli_basis_and_failed_commands(tmp_path):
    workload = _small("sphere_cli_chain", 0, tmp_path)
    results = workload.iteration()
    workload.check(results)
    basis = workload.dir / "y_lmh_basis.txt"
    lines = basis.read_text().splitlines()
    row = [float(t) for t in lines[5].split()]
    row[0] += 1e-3
    lines[5] = " ".join(repr(x) for x in row)
    basis.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="y lmh"):
        workload.check(results)
    failed = [(cmd, 2 if cmd == "gap" else code, out) for cmd, code, out in results]
    with pytest.raises(checks.CheckFailed, match="gap"):
        workload.check(failed)


def test_independent_operators_match_the_library(tmp_path):
    import lmh.fem
    import lmh.synth

    mesh = lmh.synth.bump_sphere(2, radius=5.0, height=0.6)
    W, a = checks.cotangent_operators(mesh.vertices, mesh.faces)
    assert abs(W - lmh.fem.assemble_stiffness(mesh)).max() < 1e-12
    assert np.allclose(a, lmh.fem.assemble_mass(mesh).diagonal(), rtol=1e-14)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sphere_cli_chain",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
