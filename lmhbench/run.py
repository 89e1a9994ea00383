"""Benchmark of the lmh pipeline: closed-loop iterations of one workload.

Usage, from the root of a checkout:

    python3 lmhbench/run.py --workload grid20k_lmh --seed 0 --seconds 30 --trace 0
    python3 lmhbench/run.py --workload all --seconds 30

One caller runs iterations back to back until the next one would end
after ``--seconds``. Every iteration is checked by the correctness gate
in ``checks.py``; one that raises or fails a check counts as failed.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``spans.py`` with ``--trace 1``.
The BLAS thread count is left at the process default and recorded.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".lmhbench"
SETUP_REPEATS = 5
MIN_ITERATIONS = 2
WORKLOAD_NAMES = ("grid20k_lmh", "grid4900_hard", "sphere_cli_chain")


class ProgramMissing(RuntimeError):
    """The checkout holds no ``lmh`` sources to benchmark."""


def load_program(root=ROOT):
    """Import ``lmh`` from ``<root>/src`` and nowhere else."""
    src = root / "src"
    if not (src / "lmh" / "__init__.py").is_file():
        raise ProgramMissing(f"no lmh package under {src}")
    sys.path.insert(0, str(src))
    import lmh

    if Path(lmh.__file__).resolve().parent != (src / "lmh").resolve():
        raise ProgramMissing(f"lmh was imported from {lmh.__file__}, not {src}")
    return lmh


def blas_threads():
    """Thread count of each bundled OpenBLAS, read (never set) through ctypes.

    numpy and scipy wheels each bundle their own OpenBLAS, in
    ``numpy.libs/`` and ``scipy.libs/``.
    """
    import ctypes
    import glob

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    out[f"{pkg.__name__}.libs/{Path(path).name}"] = int(fn())
                    break
    return out


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
    }


def set_up(name, seed, workdir):
    """Make the workload's inputs and warm up; returns (workload, seconds).

    The warm-up runs a small instance of the same pipeline so lazy
    imports and first-call costs are paid before timing.
    """
    import workloads

    t0 = time.perf_counter()
    workload = workloads.make(name)
    workload.prepare(seed, workdir / "inputs")
    warm = workloads.make_warm_up(name)
    warm.prepare(seed, workdir / "warm_up")
    warm.iteration()
    return workload, time.perf_counter() - t0


def timed_iteration(workload, tracer=None):
    """One checked iteration; returns (wall_s, cpu_s, ok).

    The iteration's outputs die with this frame, so they are freed
    before the next iteration allocates its own.
    """
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            out = workload.iteration()
        else:
            with spans.instrument(tracer):
                out = workload.iteration()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        workload.check(out)
        return wall, cpu, True
    except Exception:  # an iteration that raises or fails a check is a failed operation
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - w0, time.process_time() - c0, False


def measure(workload, seconds, trace, log):
    """Closed loop: iterations back to back while the next one fits.

    At least ``MIN_ITERATIONS`` run, so a median never rests on one
    sample. With ``trace``, iterations alternate traced and untraced,
    starting with a traced one.
    """
    tracer = spans.Tracer() if trace else None
    runs = []  # (traced, wall_s, cpu_s, ok)
    t0 = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 0
        if traced:
            tracer.iteration = len(runs) + 1
        wall, cpu, ok = timed_iteration(workload, tracer if traced else None)
        runs.append((traced, wall, cpu, ok))
        log(f"iteration {len(runs)} {'traced' if traced else 'untraced'} "
            f"wall {wall:.3f} s cpu {cpu:.3f} s {'ok' if ok else 'FAILED'}")
        elapsed = time.perf_counter() - t0
        typical = statistics.median(r[1] for r in runs)
        if len(runs) >= MIN_ITERATIONS and elapsed + typical > seconds:
            return runs, tracer


def _pick(runs, traced):
    """Iterations of one kind, preferring those that passed the gate."""
    kind = [r for r in runs if r[0] == traced]
    return [r for r in kind if r[3]] or kind


def end_to_end(runs, setup_s):
    timed = _pick(runs, False)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": {"value": statistics.median(r[1] for r in timed), "unit": "s"},
        "cpu_s": {"value": statistics.median(r[2] for r in timed), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(runs, tracer):
    """Per-layer metrics per traced iteration, plus the trace accounting.

    ``trace.remainder_s`` is the traced wall time no layer span covers;
    with the layer self times it adds up to ``trace.wall_s``.
    """
    traced = [r for r in runs if r[0]]
    layers = spans.layer_metrics(tracer.spans, len(traced))
    traced_wall = statistics.fmean(r[1] for r in traced)
    layers["trace.wall_s"] = traced_wall
    layers["trace.remainder_s"] = traced_wall - spans.total_self_time(layers)
    layers["trace.overhead_s"] = traced_wall - statistics.median(
        r[1] for r in _pick(runs, False)
    )
    units = {"_s": "s", "_calls": "count", "_nnz": "count", "_bytes": "bytes",
             "_per_inner": "ratio"}
    return {
        name: {
            "value": value,
            "unit": next((u for sfx, u in units.items() if name.endswith(sfx)), "count"),
        }
        for name, value in layers.items()
    }


def run_one(args):
    def log(message):
        print(f"# {message}", flush=True)

    lmh = load_program()
    import workloads  # noqa: F401  (imports the rest of lmh)

    import_s = time.perf_counter() - _PROCESS_START
    env = environment()
    log(f"lmhbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} lmh={lmh.__version__}")
    log(f"env {json.dumps(env, sort_keys=True)}")

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            workload, seconds = set_up(args.workload, args.seed, workdir)
            setups.append(seconds)
        workload.references()
        setup_s = import_s + statistics.median(setups)
        log(f"setup imports {import_s:.3f} s, repeats "
            + ", ".join(f"{s:.3f}" for s in setups) + " s")

        runs, tracer = measure(workload, args.seconds, bool(args.trace), log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(runs, tracer)
        trace_path = WORKDIR / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "iterations": [
                {"id": i + 1, "traced": r[0], "wall_s": r[1], "cpu_s": r[2], "ok": r[3]}
                for i, r in enumerate(runs)
            ],
            "spans": [s.as_dict() for s in tracer.spans],
        }), encoding="utf-8")
        log(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(runs, setup_s)
    failed = sum(1 for r in runs if not r[3])
    for name, m in metrics.items():
        log(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    log(f"{args.workload} failed/attempted {failed}/{len(runs)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """Every workload in its own process, untraced then traced, as a table."""
    if not (ROOT / "src" / "lmh" / "__init__.py").is_file():
        raise ProgramMissing(f"no lmh package under {ROOT / 'src'}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                rows.append((name, f"exit code {proc.returncode}", "", ""))
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            counts = f"{result['failed']}/{result['attempted']}"
            for metric, m in result["metrics"].items():
                rows.append((name, metric, f"{m['value']:.6g} {m['unit']}", counts))
            status |= 0 if result["correct"] else 1
    width = max(len(r[1]) for r in rows)
    print(f"{'workload':<18} {'metric':<{width}} {'value':>20}  failed/attempted")
    for name, metric, value, counts in rows:
        print(f"{name:<18} {metric:<{width}} {value:>20}  {counts}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
