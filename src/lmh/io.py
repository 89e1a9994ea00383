"""Deterministic text formats for regions, bases, maps and curves.

Every float writer goes through ``_savetxt``, whose one ``np.savetxt``
call owns the byte format: floats are written with ``%.17g`` (17
significant digits, which round-trips float64 exactly, so identical
runs produce byte-identical files), one row per line. The integer
writer ``save_p2p`` writes the same ``%d`` lines from Python integers.
"""

from __future__ import annotations

import numpy as np

from .localized import Region, SpectralBasis


def _savetxt(path, X, **kwargs):
    # np.savetxt on an open handle: a name ending in .gz stays plain text
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, X, fmt="%.17g", **kwargs)


def save_region(region, path):
    """One membership value per line."""
    u = np.asarray(getattr(region, "u", region), dtype=np.float64)
    _savetxt(path, u)


def load_region(path):
    u = np.loadtxt(path, dtype=np.float64, ndmin=1)
    return Region(u)


def _save_matrix(M, path):
    _savetxt(path, M, header=f"{M.shape[0]} {M.shape[1]}", comments="")


def _load_matrix(path, what, expected):
    """Read a matrix behind a two-number shape header, checking both."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed {what} header (expected '{expected}')")
        r, c = int(header[0]), int(header[1])
        # np.loadtxt warns on a body without rows; the shape check names it
        body = fh.tell()
        rows = any(line.split("#", 1)[0].strip() for line in iter(fh.readline, ""))
        fh.seek(body)
        M = np.loadtxt(fh, dtype=np.float64, ndmin=2) if rows else np.empty((0, 0))
    if M.shape != (r, c):
        raise ValueError(f"{path}: header promises {r}x{c}, file holds {M.shape}")
    return M


def save_basis(basis, basis_path, spectrum_path):
    """Write the functions ("n m" header then n rows) and the
    eigenvalues (one per line)."""
    _save_matrix(basis.functions, basis_path)
    _savetxt(spectrum_path, basis.spectrum)


def load_basis(basis_path):
    """Read the functions of a basis file back, as an "MH" basis.

    Its spectrum is NaN: every command that reads a basis uses only the
    functions, and the eigenvalues stay in the spectrum file.
    """
    functions = _load_matrix(basis_path, "basis", "n m")
    return SpectralBasis(
        functions=functions,
        spectrum=np.full(functions.shape[1], np.nan),
        kind="MH",
        params={"source": str(basis_path)},
    )


def save_p2p(p2p, path):
    """One 0-based target vertex index per line."""
    # % on Python ints from tolist(), as in mesh.write_off: np.savetxt
    # formats numpy scalars one row at a time and takes about 3x as long
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines("%d\n" % i for i in np.asarray(p2p, dtype=np.int64).tolist())


def load_p2p(path):
    return np.loadtxt(path, dtype=np.int64, ndmin=1)


def save_cmatrix(C, path):
    """Write a dense matrix with a "rows cols" header line."""
    _save_matrix(np.asarray(C, dtype=np.float64), path)


def load_cmatrix(path):
    return _load_matrix(path, "matrix", "rows cols")


def save_curve(thresholds, fractions, path):
    """Cumulative error curve as CSV with a "threshold,fraction" header."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    fractions = np.asarray(fractions, dtype=np.float64)
    if thresholds.shape != fractions.shape:
        raise ValueError("thresholds and fractions differ in length")
    data = np.column_stack([thresholds, fractions])
    _savetxt(path, data, delimiter=",", header="threshold,fraction", comments="")


def save_scalar_field(values, path):
    """One per-vertex value per line."""
    _savetxt(path, np.asarray(values, dtype=np.float64))
