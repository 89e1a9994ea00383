"""Deterministic text formats for regions, bases, maps and curves.

Every float writer goes through ``np.savetxt``, which owns the byte
format: floats are written with ``%.17g`` (17 significant digits, which
round-trips float64 exactly, so identical runs produce byte-identical
files), one row per line. The integer writer ``save_p2p`` writes the
same ``%d`` lines from Python integers.
"""

from __future__ import annotations

import numpy as np

from .localized import Region, SpectralBasis

_FLOAT = "%.17g"


def _savetxt(path, X, fmt=_FLOAT, **kwargs):
    # np.savetxt on an open handle: a name ending in .gz stays plain text
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, X, fmt=fmt, **kwargs)


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
        M = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    if M.shape != (r, c):
        raise ValueError(f"{path}: header promises {r}x{c}, file holds {M.shape}")
    return M


def save_basis(basis, basis_path, spectrum_path=None):
    """Write functions ("n m" header then n rows) and eigenvalues."""
    _save_matrix(basis.functions, basis_path)
    if spectrum_path is not None:
        _savetxt(spectrum_path, basis.spectrum)


def load_basis(basis_path, spectrum_path=None, kind="MH"):
    """Read a basis file (and optional spectrum file) back.

    The given ``kind`` label is trusted.
    """
    functions = _load_matrix(basis_path, "basis", "n m")
    m = functions.shape[1]
    if spectrum_path is not None:
        spectrum = np.loadtxt(spectrum_path, dtype=np.float64, ndmin=1)
        if spectrum.shape != (m,):
            raise ValueError(f"{spectrum_path}: expected {m} eigenvalues")
    else:
        spectrum = np.full(m, np.nan)
    return SpectralBasis(
        functions=functions,
        spectrum=spectrum,
        kind=kind,
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
