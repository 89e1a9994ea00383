"""Deterministic text formats for regions, bases, maps and curves.

Every writer goes through ``lmh.mesh._write_rows``, the one numeric text
writer, after its own header line: it owns the byte format, ``%.17g``
for floats (17 significant digits, which round-trips float64 exactly, so
identical runs produce byte-identical files) and ``%d`` for integers,
one row per line. Every reader goes through ``lmh.mesh._read_rows``, the
one numeric text reader: a malformed file fails with its name, and a bad
row, or an inf or a NaN (which no writer emits), with its 1-based line
too.
"""

from __future__ import annotations

import numpy as np

from .localized import Region, SpectralBasis
from .mesh import _content, _read_rows, _write_rows


def _save(path, X, header="", delimiter=" "):
    """Write ``header`` (empty or whole lines) and then the rows of ``X``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        _write_rows(fh, X, delimiter)


def save_region(region, path):
    """One membership value per line."""
    _save(path, np.asarray(getattr(region, "u", region), dtype=np.float64))


def _read_finite(fh, path, dtype, first):
    """``_read_rows`` of ``fh`` from line ``first`` of ``path``, all finite."""
    start = fh.tell()
    rows = _read_rows(fh, path, dtype, None, first)
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        row, col = bad[0]
        fh.seek(start)
        lines = [(n, t) for n, t in enumerate(map(_content, fh), first) if t]
        number, text = lines[row]
        raise ValueError(f"{path}, line {number}: value {col + 1} is "
                         f"{text.split()[col]!r}, not a finite number")
    return rows


def _load_column(path, dtype):
    """The values of a file that holds one per line, as a flat array."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = _read_finite(fh, path, dtype, 1)
    if rows.shape[1] != 1:
        count = rows.shape[1] or "no"
        raise ValueError(f"{path}: {count} values per line; expected one")
    return rows[:, 0]


def load_region(path):
    return Region(_load_column(path, np.float64))


def _save_matrix(M, path):
    M = np.asarray(M, dtype=np.float64)
    _save(path, M, f"{M.shape[0]} {M.shape[1]}\n")


def _load_matrix(path, what, expected):
    """Read a matrix behind a two-number shape header, checking both."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            r, c = map(int, fh.readline().split())
        except ValueError:
            raise ValueError(f"{path}: malformed {what} header (expected '{expected}')")
        M = _read_finite(fh, path, np.float64, 2)
    if M.shape != (r, c):
        raise ValueError(f"{path}: header promises {r}x{c}, file holds {M.shape}")
    return M


def save_basis(basis, basis_path, spectrum_path):
    """Write the functions ("n m" header then n rows) and the
    eigenvalues (one per line)."""
    _save_matrix(basis.functions, basis_path)
    _save(spectrum_path, basis.spectrum)


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
    _save(path, np.asarray(p2p, dtype=np.int64))


def load_p2p(path):
    return _load_column(path, np.int64)


def save_cmatrix(C, path):
    """Write a dense matrix with a "rows cols" header line."""
    _save_matrix(C, path)


def load_cmatrix(path):
    return _load_matrix(path, "matrix", "rows cols")


def save_curve(thresholds, fractions, path):
    """Cumulative error curve as CSV with a "threshold,fraction" header."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    fractions = np.asarray(fractions, dtype=np.float64)
    if thresholds.shape != fractions.shape:
        raise ValueError("thresholds and fractions differ in length")
    _save(path, np.column_stack([thresholds, fractions]), "threshold,fraction\n", ",")


def save_scalar_field(values, path):
    """One per-vertex value per line."""
    _save(path, np.asarray(values, dtype=np.float64))
