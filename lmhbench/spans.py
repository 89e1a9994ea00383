"""Per-layer tracing of lmh from outside the program.

``Tracer`` keeps spans in memory. ``instrument`` wraps the public
functions of the ``lmh`` modules for the duration of a ``with`` block,
patching each name where its caller looks it up (``lmh.localized``
imports ``smallest_eigenpairs``, ``lmh.cli`` imports ``compute_lmh``,
and so on), and restores every original attribute on exit. The scipy
entry points that ``lmh.solvers`` imports (``splu``, ``eigsh``, ``qr``,
``eigh``) are the lower edge of the ``solvers`` layer.

A layer's self time is the time its spans cover minus the time their
child spans cover, so the self times of all layers plus the time spent
outside any span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

# (module, attribute path inside it, span name). Span names are
# ``<lmh module>.<layer part>``; nested spans of the same name are
# counted as one call.
PATCHES = (
    ("lmh.mesh", "load_mesh", "mesh.parse"),
    ("lmh.mesh", "read_mesh", "mesh.parse"),
    ("lmh.cli", "read_mesh", "mesh.parse"),
    ("lmh.mesh", "graph_geodesics", "mesh.geodesic"),
    ("lmh.localized", "graph_geodesics", "mesh.geodesic"),
    ("lmh.fmap", "graph_geodesics", "mesh.geodesic"),
    ("lmh.fem", "assemble_stiffness", "fem.assemble"),
    ("lmh.fem", "assemble_mass", "fem.assemble"),
    ("lmh.localized", "assemble_stiffness", "fem.assemble"),
    ("lmh.localized", "assemble_mass", "fem.assemble"),
    ("lmh.cli", "assemble_mass", "fem.assemble"),
    ("lmh.spectral", "assemble_mass", "fem.assemble"),
    ("lmh.solvers", "factorize", "solvers.factor"),
    ("lmh.solvers", "splu", "solvers.factor"),
    ("lmh.solvers", "LowRankShiftedSystem.solve_shifted", "solvers.inner_solve"),
    ("lmh.solvers", "eigsh", "solvers.eigsh"),
    ("lmh.solvers", "smallest_eigenpairs", "solvers.eigenpairs"),
    ("lmh.localized", "smallest_eigenpairs", "solvers.eigenpairs"),
    ("lmh.localized", "hard_constraint_eig", "solvers.dense"),
    ("lmh.localized", "dense_oracle_eig", "solvers.dense"),
    ("lmh.solvers", "qr", "solvers.dense"),
    ("lmh.solvers", "eigh", "solvers.dense"),
    ("lmh.localized", "compute_mh", "localized.mh"),
    ("lmh.cli", "compute_mh", "localized.mh"),
    ("lmh.localized", "compute_lmh", "localized.lmh"),
    ("lmh.cli", "compute_lmh", "localized.lmh"),
    ("lmh.cli", "verify_spectral_gap", "localized.verify"),
    ("lmh.cli", "verify_upper_bound", "localized.verify"),
    ("lmh.localized", "Region.binary", "localized.region"),
    ("lmh.cli", "soft_region_from_seeds", "localized.region"),
    ("lmh.cli", "reconstruct_surface", "spectral.reconstruct"),
    ("lmh.cli", "reconstruction_error", "spectral.reconstruct"),
    ("lmh.cli", "build_fmap", "fmap.build"),
    ("lmh.cli", "recover_p2p", "fmap.p2p"),
    ("lmh.cli", "geodesic_error_stats", "fmap.error"),
    ("lmh.io", "save_region", "io.write"),
    ("lmh.io", "save_basis", "io.write"),
    ("lmh.io", "save_p2p", "io.write"),
    ("lmh.io", "save_cmatrix", "io.write"),
    ("lmh.io", "save_curve", "io.write"),
    ("lmh.io", "save_scalar_field", "io.write"),
    ("lmh.cli", "write_off", "io.write"),
    ("lmh.io", "load_region", "io.read"),
    ("lmh.io", "load_basis", "io.read"),
    ("lmh.io", "load_p2p", "io.read"),
    ("lmh.io", "load_cmatrix", "io.read"),
    ("lmh.cli", "run", "cli"),
)

# per-layer metric -> (span name, aggregate); each value is per iteration
SPAN_METRICS = {
    "mesh.parse_s": ("mesh.parse", "self_s"),
    "mesh.parse_calls": ("mesh.parse", "calls"),
    "mesh.geodesic_s": ("mesh.geodesic", "self_s"),
    "fem.assemble_s": ("fem.assemble", "self_s"),
    "fem.assemble_calls": ("fem.assemble", "calls"),
    "solvers.factor_s": ("solvers.factor", "self_s"),
    "solvers.factor_calls": ("solvers.factor", "calls"),
    "solvers.lu_fill_nnz": ("solvers.factor", "nnz"),
    "solvers.inner_solve_s": ("solvers.inner_solve", "self_s"),
    "solvers.inner_solve_calls": ("solvers.inner_solve", "calls"),
    "solvers.lu_solve_s": ("solvers.lu_solve", "self_s"),
    "solvers.lu_solve_calls": ("solvers.lu_solve", "calls"),
    "solvers.arpack_self_s": ("solvers.eigsh", "self_s"),
    "solvers.eigsh_calls": ("solvers.eigsh", "calls"),
    "solvers.postcheck_s": ("solvers.eigenpairs", "self_s"),
    "solvers.dense_s": ("solvers.dense", "self_s"),
    "localized.mh_s": ("localized.mh", "self_s"),
    "localized.mh_calls": ("localized.mh", "calls"),
    "localized.lmh_s": ("localized.lmh", "self_s"),
    "localized.verify_s": ("localized.verify", "self_s"),
    "localized.region_s": ("localized.region", "self_s"),
    "spectral.reconstruct_s": ("spectral.reconstruct", "self_s"),
    "fmap.build_s": ("fmap.build", "self_s"),
    "fmap.p2p_s": ("fmap.p2p", "self_s"),
    "fmap.error_s": ("fmap.error", "self_s"),
    "io.write_s": ("io.write", "self_s"),
    "io.write_bytes": ("io.write", "bytes"),
    "io.read_s": ("io.read", "self_s"),
    "io.read_bytes": ("io.read", "bytes"),
    "cli.self_s": ("cli", "self_s"),
    "cli.commands": ("cli", "calls"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "iteration", "nnz", "nbytes", "error")

    def __init__(self, name, start, parent, iteration):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.iteration = iteration
        self.nnz = 0
        self.nbytes = 0
        self.error = None

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []
        self.iteration = 0
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter(), parent, self.iteration)
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def traced(self, fn, name, after=None):
        """Wrap ``fn`` so every call records a span named ``name``.

        ``after(span, args, kwargs, result)`` runs once the span is
        closed and returns the value handed back to the caller.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self.close(span)
            return after(span, args, kwargs, result) if after else result

        return wrapper


class TracedLU:
    """SuperLU stand-in whose triangular solves are recorded as spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        span = self._tracer.open("solvers.lu_solve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(span)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _file_bytes(span, args, kwargs, result):
    span.nbytes = sum(
        os.path.getsize(p)
        for p in (*args, *kwargs.values())
        if isinstance(p, (str, os.PathLike)) and os.path.isfile(p)
    )
    return result


def _after_hook(attr, name, tracer):
    if attr == "splu":

        def after(span, args, kwargs, lu):
            # SuperLU's own count of stored nonzeros in L and U
            span.nnz = lu.nnz
            return TracedLU(lu, tracer)

        return after
    if name in ("io.read", "io.write"):
        return _file_bytes
    return None


def _owner(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class instrument:
    """Context manager that installs the span wrappers for one block."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        try:
            for module, path, name in PATCHES:
                owner, attr = _owner(module, path)
                original = owner.__dict__[attr]
                after = _after_hook(attr, name, self.tracer)
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self.tracer.traced(original.__func__, name, after)
                    )
                else:
                    wrapped = self.tracer.traced(original, name, after)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_metrics(spans, iterations):
    """Per-iteration layer metrics from the spans of ``iterations`` traced runs.

    Returns a dict of every ``SPAN_METRICS`` entry plus the derived
    ``solvers.lu_solves_per_inner`` and ``solvers.numerical_errors``.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    agg = defaultdict(Counter)
    numerical_errors = 0
    for i, s in enumerate(spans):
        parent = spans[s.parent] if s.parent >= 0 else None
        agg["self_s"][s.name] += (s.end - s.start) - child_time[i]
        if parent is None or parent.name != s.name:
            agg["calls"][s.name] += 1
        agg["nnz"][s.name] += s.nnz
        agg["bytes"][s.name] += s.nbytes
        outermost_error = parent is None or not (
            parent.name.startswith("solvers.") and parent.error == s.error
        )
        if s.error == "NumericalError" and s.name.startswith("solvers.") and outermost_error:
            numerical_errors += 1
    n = max(iterations, 1)
    out = {
        metric: agg[kind][span] / n for metric, (span, kind) in SPAN_METRICS.items()
    }
    inner = agg["calls"]["solvers.inner_solve"]
    out["solvers.lu_solves_per_inner"] = (
        agg["calls"]["solvers.lu_solve"] / inner if inner else 0.0
    )
    out["solvers.numerical_errors"] = numerical_errors / n
    return out


def total_self_time(metrics):
    """Sum of all layer self times in a ``layer_metrics`` result."""
    return sum(v for (k, v) in metrics.items() if k in SPAN_METRICS and k.endswith("_s"))
