"""Command-line entry point.

Subcommands cover basis computation (mh, lmh, pmh), region construction,
spectral guarantee checks (gap, bound, weyl), surface reconstruction,
functional-map correspondence (fmap, p2p, error-curve) and a solver
benchmark. Every run is a pure function of its flags and seed; no
environment variables are consulted, and numeric outputs are written
with 17 significant digits so reruns are byte-identical.

The command line sets no BLAS thread count of its own; the library's
thread policy (``lmh.solvers``) holds. Its small BLAS calls run at one
thread in serial scopes, so output files and JSON summaries do not
depend on the BLAS thread count: ``mh``, ``pmh`` and ``bound`` run
shift-invert Lanczos for every k up to n, so at every k, and ``p2p``'s
indices are exact at any thread count. The dense ``--solver hard`` and
``--solver oracle`` paths, whose work grows as the cube of the mesh
size, run outside every serial scope at the process thread count, also
as ``bench`` runs them (their outputs match only at the same thread
count).

Warnings raised by a command print as ``warning: <message>`` on stderr,
without a source location.

Exit codes: 0 success, 1 validation error (bad flags, missing or
malformed files, precondition violations), 2 numerical failure (solver
breakdown, or a verification subcommand whose check did not pass).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io as lmhio
from .fem import assemble_mass
from .localized import (
    DEFAULT_MU_R,
    SOLVERS,
    Region,
    compute_lmh,
    compute_mh,
    compute_pmh,
    soft_region_from_seeds,
    verify_spectral_gap,
    verify_upper_bound,
    weyl_slope,
)
from .fmap import build_fmap, geodesic_error_stats, offblock_energy, recover_p2p
from .mesh import MeshError, membership, read_mesh, surface_area, write_off
from .solvers import NumericalError
from .spectral import reconstruct_surface, reconstruction_error
from .synth import patch_vertices


class CliError(ValueError):
    """Argument or input-file problem; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for
    # numerical failures here, so argument errors must raise instead.
    def error(self, message):
        raise CliError(message)


def _number(kind, minimum):
    """argparse type: a ``kind`` (int or float) of at least ``minimum``."""
    noun = "an integer" if kind is int else "a number"
    bound = "must be a positive integer" if minimum == 1 else "must be non-negative"

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}")
        if not value >= minimum:  # also rejects NaN
            raise argparse.ArgumentTypeError(bound)
        return value

    return parse


_nonneg_float = _number(float, 0.0)
_positive_int = _number(int, 1)
_nonneg_int = _number(int, 0)


def _out_path(args, name):
    """``--out-dir``/``--prefix``+name; creates the directory on first use."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{args.prefix}{name}"


def _emit(args, summary):
    print(json.dumps({"command": args.command, **summary}, sort_keys=True))


def _read_region(path, n):
    """The region file's Region, checked against n vertices before any solve."""
    region = lmhio.load_region(path)
    membership(region, n)
    return region


def _emit_basis(args, mesh, basis, **extra):
    """Write ``<command>_basis.txt`` and ``<command>_spectrum.txt``, print
    the summary every basis command shares plus ``extra``; returns 0."""
    basis_path = _out_path(args, f"{args.command}_basis.txt")
    spectrum_path = _out_path(args, f"{args.command}_spectrum.txt")
    lmhio.save_basis(basis, basis_path, spectrum_path)
    _emit(
        args,
        {
            "n_vertices": mesh.n_vertices,
            "k": args.k,
            "lambda_first": float(basis.spectrum[0]),
            "lambda_last": float(basis.spectrum[-1]),
            "basis_file": str(basis_path),
            "spectrum_file": str(spectrum_path),
            **extra,
        },
    )
    return 0


# ---------------------------------------------------------------- handlers


def cmd_mh(args):
    mesh = read_mesh(args.mesh)
    basis = compute_mh(mesh, args.k, seed=args.seed)
    return _emit_basis(args, mesh, basis)


def cmd_lmh(args):
    mesh = read_mesh(args.mesh)
    region = _read_region(args.region, mesh.n_vertices)
    phi = None
    kprime = args.kprime
    if args.phi is not None:
        phi_basis = lmhio.load_basis(args.phi)
        if phi_basis.n_vertices != mesh.n_vertices:
            raise CliError("--phi basis does not match the mesh vertex count")
        if kprime is None:
            kprime = phi_basis.n_functions
        elif kprime > phi_basis.n_functions:
            raise CliError(
                f"--kprime {kprime} exceeds the {phi_basis.n_functions} "
                "functions in the --phi file"
            )
        phi = phi_basis.functions[:, :kprime]
    elif kprime is None:
        kprime = 20
    basis = compute_lmh(
        mesh,
        region,
        args.k,
        kprime,
        mu_r=args.mu_r,
        mu_perp=args.mu_perp,
        phi=phi,
        solver=args.solver,
        seed=args.seed,
    )
    return _emit_basis(
        args,
        mesh,
        basis,
        kprime=kprime,
        mu_r=args.mu_r,
        mu_perp=float(basis.params["mu_perp"]),
        solver=args.solver,
        phi_overlap_max=float(basis.params["phi_overlap_max"]),
        orthonormality_defect=float(basis.params["orthonormality_defect"]),
    )


def cmd_pmh(args):
    mesh = read_mesh(args.mesh)
    region = _read_region(args.region, mesh.n_vertices)
    basis = compute_pmh(mesh, region, args.k, seed=args.seed)
    return _emit_basis(
        args, mesh, basis, submesh_vertices=int(len(basis.params["vertex_indices"]))
    )


def cmd_region(args):
    mesh = read_mesh(args.mesh)
    if args.box is not None and args.seeds:
        raise CliError("--seeds and --box are mutually exclusive")
    if args.box is not None:
        x0, x1, y0, y1 = args.box
        idx = patch_vertices(mesh, (x0, x1), (y0, y1))
        if idx.size == 0:
            raise CliError("--box selects no vertices")
        region = Region.binary(mesh.n_vertices, idx)
    elif args.seeds:
        bad = [s for s in args.seeds if s >= mesh.n_vertices]
        if bad:
            raise CliError(f"seed vertex {bad[0]} out of range [0, {mesh.n_vertices})")
        region = soft_region_from_seeds(mesh, args.seeds, variance=args.variance)
    else:
        raise CliError("one of --seeds or --box is required")
    if args.threshold is not None:
        region = Region((region.u >= args.threshold).astype(np.float64))
    path = _out_path(args, "region.txt")
    lmhio.save_region(region, path)
    _emit(
        args,
        {
            "n_vertices": mesh.n_vertices,
            "binary": bool(region.is_binary),
            "u_max": float(region.u.max()),
            "u_sum": float(region.u.sum()),
            "region_file": str(path),
        },
    )
    return 0


def cmd_gap(args):
    mesh = read_mesh(args.mesh)
    region = _read_region(args.region, mesh.n_vertices) if args.region else None
    report = verify_spectral_gap(
        mesh,
        region,
        args.kprime,
        mu_r=args.mu_r,
        mu_perp=args.mu_perp,
        seed=args.seed,
    )
    _emit(args, asdict(report))
    return 0 if report.passed else 2


def cmd_bound(args):
    mesh = read_mesh(args.mesh)
    region = _read_region(args.region, mesh.n_vertices)
    report = verify_upper_bound(
        mesh,
        region,
        args.kprime,
        args.k,
        mu_r=args.mu_r,
        mu_perp=args.mu_perp,
        seed=args.seed,
        tolerance=args.tolerance,
    )
    summary = asdict(report)
    summary.update(
        lmh_spectrum=report.lmh_spectrum.tolist(),
        submesh_spectrum=report.submesh_spectrum.tolist(),
        min_margin=float(summary.pop("margins").min()),
    )
    _emit(args, summary)
    return 0 if report.passed else 2


def cmd_weyl(args):
    mesh = read_mesh(args.mesh)
    region = _read_region(args.region, mesh.n_vertices)
    if not region.is_binary:
        raise CliError(
            "the growth-rate fit needs a binary region (its area enters "
            "the normalized slope); threshold the region first"
        )
    basis = compute_lmh(
        mesh,
        region,
        args.k,
        args.kprime,
        mu_r=args.mu_r,
        mu_perp=args.mu_perp,
        seed=args.seed,
    )
    area = surface_area(mesh, region)
    fit = weyl_slope(basis, area)
    _emit(
        args,
        {
            **asdict(fit),
            "k": args.k,
            "kprime": args.kprime,
            "normalized_slope": float(fit.normalized_slope),
        },
    )
    return 0


def cmd_reconstruct(args):
    mesh = read_mesh(args.mesh)
    bases = [lmhio.load_basis(p) for p in args.basis]
    for p, b in zip(args.basis, bases):
        if b.n_vertices != mesh.n_vertices:
            raise CliError(
                f"{p}: basis has {b.n_vertices} rows for a mesh "
                f"with {mesh.n_vertices} vertices"
            )
    rec = reconstruct_surface(mesh, bases)
    per_vertex, mean = reconstruction_error(mesh, rec)
    mesh_path = _out_path(args, "reconstructed.off")
    err_path = _out_path(args, "recon_error.txt")
    write_off((rec, mesh.faces), mesh_path)
    lmhio.save_scalar_field(per_vertex, err_path)
    _emit(
        args,
        {
            "n_vertices": mesh.n_vertices,
            "n_functions": int(sum(b.n_functions for b in bases)),
            "mean_error": float(mean),
            "max_error": float(per_vertex.max()),
            "mesh_file": str(mesh_path),
            "error_file": str(err_path),
        },
    )
    return 0


def cmd_fmap(args):
    basis_x = lmhio.load_basis(args.basis_x)
    basis_y = lmhio.load_basis(args.basis_y)
    mesh_y = read_mesh(args.mesh_y)
    if basis_y.n_vertices != mesh_y.n_vertices:
        raise CliError("--basis-y does not match --mesh-y vertex count")
    p2p = lmhio.load_p2p(args.p2p)
    A_y = assemble_mass(mesh_y)
    fm = build_fmap(basis_x, basis_y, p2p, A_y)
    path = _out_path(args, "cmatrix.txt")
    lmhio.save_cmatrix(fm.C, path)
    summary = {
        "rows": fm.shape[0],
        "cols": fm.shape[1],
        "frobenius": float(np.linalg.norm(fm.C)),
        "cmatrix_file": str(path),
    }
    if args.kprime is not None and args.k is not None:
        summary["offblock_energy"] = float(offblock_energy(fm, args.kprime, args.k))
    _emit(args, summary)
    return 0


def cmd_p2p(args):
    C = lmhio.load_cmatrix(args.cmatrix)
    basis_x = lmhio.load_basis(args.basis_x)
    basis_y = lmhio.load_basis(args.basis_y)
    if C.shape != (basis_y.n_functions, basis_x.n_functions):
        raise CliError(
            f"C is {C.shape[0]}x{C.shape[1]} but the bases have "
            f"{basis_y.n_functions} (Y) and {basis_x.n_functions} (X) functions"
        )
    p2p = recover_p2p(C, basis_x=basis_x, basis_y=basis_y)
    path = _out_path(args, "p2p.txt")
    lmhio.save_p2p(p2p, path)
    _emit(args, {"n": int(p2p.shape[0]), "p2p_file": str(path)})
    return 0


def cmd_error_curve(args):
    mesh = read_mesh(args.mesh)
    recovered = lmhio.load_p2p(args.p2p)
    truth = lmhio.load_p2p(args.truth)
    stats = geodesic_error_stats(
        recovered,
        truth,
        mesh,
        n_thresholds=args.thresholds,
        max_threshold=args.max_threshold,
    )
    path = _out_path(args, "curve.csv")
    lmhio.save_curve(stats.thresholds, stats.fractions, path)
    _emit(
        args,
        {
            "n": int(stats.per_vertex.shape[0]),
            "mean_error": stats.mean,
            "median_error": float(np.median(stats.per_vertex)),
            "exact_fraction": float((stats.per_vertex == 0).mean()),
            "curve_file": str(path),
        },
    )
    return 0


def cmd_bench(args):
    paths = [p.strip() for p in args.paths.split(",") if p.strip()]
    for p in paths:
        if p not in SOLVERS:
            raise CliError(f"unknown solver path '{p}'")
    lines = ["mesh,n_vertices,k,kprime,path,status,seconds"]
    for mesh_path in args.mesh:
        mesh = read_mesh(mesh_path)
        if args.region:
            region = _read_region(args.region, mesh.n_vertices)
        else:
            region = soft_region_from_seeds(mesh, [0])
        name = Path(mesh_path).name
        for solver in paths:
            start = time.perf_counter()
            try:
                compute_lmh(
                    mesh, region, args.k, args.kprime, solver=solver, seed=args.seed
                )
                status, seconds = "ok", f"{time.perf_counter() - start:.6f}"
            except (ValueError, NumericalError) as exc:
                # ValueError: a size-guard refusal (the hard path's documented
                # limit); NumericalError: a solver breakdown
                print(f"# {name} {solver}: {exc}", file=sys.stderr)
                status = "failed" if isinstance(exc, NumericalError) else "refused"
                seconds = ""
            lines.append(
                f"{name},{mesh.n_vertices},{args.k},{args.kprime},{solver},"
                f"{status},{seconds}"
            )
    path = _out_path(args, "bench.csv")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)
    return 0


# ------------------------------------------------------------------ parser


def _add_common(sub):
    sub.add_argument("--out-dir", default=".", help="directory for output files")
    sub.add_argument("--prefix", default="", help="prefix for output file names")
    sub.add_argument("--seed", type=_nonneg_int, default=0, help="random seed")


def build_parser():
    parser = _Parser(
        prog="lmh",
        description="Localized spectral bases on triangle meshes: "
        "computation, verification and correspondence.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("mh", help="global harmonics (smallest eigenpairs of (W, A))")
    p.add_argument("--mesh", required=True, help="OFF or OBJ mesh file")
    p.add_argument("--k", type=_positive_int, required=True, help="basis size")
    p.set_defaults(func=cmd_mh)

    p = subs.add_parser("lmh", help="localized harmonics on a region")
    p.add_argument("--mesh", required=True)
    p.add_argument("--region", required=True, help="membership file, one u per line")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--kprime", type=_nonneg_int, default=None,
                   help="global harmonics to avoid (default 20, or the "
                        "--phi basis size)")
    p.add_argument("--mu-r", type=_nonneg_float, default=DEFAULT_MU_R,
                   help="localization weight (default 100)")
    p.add_argument("--mu-perp", type=_nonneg_float, default=None,
                   help="orthogonality weight (default: max(1e5, "
                        "10*lam_{k'+1}), or 1e5 with --phi or --kprime 0)")
    p.add_argument("--phi", default=None,
                   help="basis file with the harmonics to avoid (reuse an "
                        "mh run instead of recomputing)")
    p.add_argument("--solver", choices=SOLVERS, default="relaxed")
    p.set_defaults(func=cmd_lmh)

    p = subs.add_parser("pmh", help="harmonics of the extracted region submesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--region", required=True, help="binary membership file")
    p.add_argument("--k", type=_positive_int, required=True)
    p.set_defaults(func=cmd_pmh)

    p = subs.add_parser("region", help="build a membership file")
    p.add_argument("--mesh", required=True)
    p.add_argument("--seeds", type=_nonneg_int, nargs="+", default=None,
                   help="seed vertex indices for a Gaussian soft region")
    p.add_argument("--variance", type=_nonneg_float, default=None,
                   help="Gaussian variance (default (0.01*diameter)^2)")
    p.add_argument("--box", type=float, nargs=4, default=None,
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
                   help="binary region from an axis-aligned rectangle")
    p.add_argument("--threshold", type=_nonneg_float, default=None,
                   help="binarize: u = 1 where u >= threshold")
    p.set_defaults(func=cmd_region)

    p = subs.add_parser("gap", help="check lam_1(Q) >= lam_k'(W)")
    p.add_argument("--mesh", required=True)
    p.add_argument("--region", default=None,
                   help="membership file; omit for the v = 0 control")
    p.add_argument("--kprime", type=_positive_int, required=True)
    p.add_argument("--mu-r", type=_nonneg_float, default=DEFAULT_MU_R)
    p.add_argument("--mu-perp", type=_nonneg_float, default=None)
    p.set_defaults(func=cmd_gap)

    p = subs.add_parser("bound", help="check lam_i(Q) <= lam_{i+k'}(W_R)")
    p.add_argument("--mesh", required=True)
    p.add_argument("--region", required=True, help="binary membership file")
    p.add_argument("--kprime", type=_nonneg_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--mu-r", type=_nonneg_float, default=1e4)
    p.add_argument("--mu-perp", type=_nonneg_float, default=None)
    p.add_argument("--tolerance", type=_nonneg_float, default=1e-3)
    p.set_defaults(func=cmd_bound)

    p = subs.add_parser("weyl", help="linear growth fit of the localized spectrum")
    p.add_argument("--mesh", required=True)
    p.add_argument("--region", required=True, help="binary membership file")
    p.add_argument("--k", type=_positive_int, default=40)
    p.add_argument("--kprime", type=_nonneg_int, default=20)
    p.add_argument("--mu-r", type=_nonneg_float, default=DEFAULT_MU_R)
    p.add_argument("--mu-perp", type=_nonneg_float, default=None)
    p.set_defaults(func=cmd_weyl)

    p = subs.add_parser("reconstruct", help="project coordinates onto bases")
    p.add_argument("--mesh", required=True)
    p.add_argument("--basis", required=True, nargs="+",
                   help="one or more basis files (concatenated)")
    p.set_defaults(func=cmd_reconstruct)

    p = subs.add_parser("fmap", help="functional map from a point-to-point map")
    p.add_argument("--basis-x", required=True)
    p.add_argument("--basis-y", required=True)
    p.add_argument("--mesh-y", required=True, help="mesh of the Y basis (mass)")
    p.add_argument("--p2p", required=True,
                   help="for each Y vertex, its X correspondent (one index per line)")
    p.add_argument("--kprime", type=_nonneg_int, default=None,
                   help="with --k, report off-block energy")
    p.add_argument("--k", type=_positive_int, default=None)
    p.set_defaults(func=cmd_fmap)

    p = subs.add_parser("p2p", help="recover a point-to-point map from C")
    p.add_argument("--cmatrix", required=True)
    p.add_argument("--basis-x", required=True)
    p.add_argument("--basis-y", required=True)
    p.set_defaults(func=cmd_p2p)

    p = subs.add_parser("error-curve", help="geodesic error of a recovered map")
    p.add_argument("--mesh", required=True,
                   help="mesh the correspondents live on (map codomain)")
    p.add_argument("--p2p", required=True, help="recovered map file")
    p.add_argument("--truth", required=True, help="ground-truth map file")
    p.add_argument("--thresholds", type=_positive_int, default=100)
    p.add_argument("--max-threshold", type=_nonneg_float, default=0.5)
    p.set_defaults(func=cmd_error_curve)

    p = subs.add_parser("bench", help="time the solver paths")
    p.add_argument("--mesh", required=True, nargs="+", help="mesh files")
    p.add_argument("--k", type=_positive_int, default=100)
    p.add_argument("--kprime", type=_nonneg_int, default=20)
    p.add_argument("--paths", default="relaxed,hard",
                   help="comma-separated subset of relaxed,hard,oracle")
    p.add_argument("--region", default=None,
                   help="membership file (default: soft region seeded at vertex 0)")
    p.set_defaults(func=cmd_bench)

    # after every subcommand, so the common flags close each --help listing
    for sub in subs.choices.values():
        _add_common(sub)
    return parser


# the parser ``run`` uses, built at its first call: building takes about
# 4 ms, and parsing leaves the parser unchanged
_parser = functools.cache(build_parser)


def run(argv=None):
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except NumericalError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        except (CliError, MeshError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """``warnings.showwarning`` without the checkout-dependent location."""
    print(f"warning: {message}", file=sys.stderr)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
