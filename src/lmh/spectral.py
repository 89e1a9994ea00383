"""Spectral analysis, synthesis and surface reconstruction."""

from __future__ import annotations

import warnings

import numpy as np

from .fem import assemble_mass, mass_diagonal
from .solvers import _serial_blas


def analyze(basis, A, f):
    """Spectral coefficients ``c_i = psi_i^T A f``.

    Parameters
    ----------
    basis : SpectralBasis or ndarray
        Functions as columns.
    A : sparse array or ndarray
        Diagonal mass.
    f : ndarray of shape (n,) or (n, d)
        One or more per-vertex signals.

    Returns
    -------
    ndarray of shape (m,) or (m, d)
    """
    functions = getattr(basis, "functions", basis)
    a = mass_diagonal(A)
    f = np.asarray(f, dtype=np.float64)
    if f.shape[0] != functions.shape[0]:
        raise ValueError("signal length does not match basis row count")
    weighted = a * f if f.ndim == 1 else a[:, None] * f
    return functions.T @ weighted


def synthesize(basis, coeffs):
    """Signal from spectral coefficients, ``f = sum_i c_i psi_i``.

    Fewer coefficients than basis functions are allowed; the prefix of
    the basis is used.
    """
    functions = getattr(basis, "functions", basis)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    m = coeffs.shape[0]
    if m > functions.shape[1]:
        raise ValueError(
            f"{m} coefficients for a basis of {functions.shape[1]} functions"
        )
    return functions[:, :m] @ coeffs


def basis_cross_orthogonality(bases, A):
    """Largest cross-Gram entry ``max |psi_a^T A psi_b|`` over basis pairs."""
    a = mass_diagonal(A)
    worst = 0.0
    for i in range(len(bases)):
        fi = getattr(bases[i], "functions", bases[i])
        for j in range(i + 1, len(bases)):
            fj = getattr(bases[j], "functions", bases[j])
            worst = max(worst, float(np.abs(fi.T @ (a[:, None] * fj)).max()))
    return worst


@_serial_blas()
def reconstruct_surface(mesh, bases, A=None):
    """Re-synthesize vertex coordinates from one or more spectral bases.

    Each coordinate function is projected on every basis independently
    and the syntheses are summed; with a single global basis this is
    plain low-pass reconstruction, with a global basis plus per-region
    localized bases the regional detail is added on top.

    Parameters
    ----------
    mesh : TriMesh
    bases : SpectralBasis or sequence of SpectralBasis
    A : sparse array, optional
        Reuse a preassembled mass matrix.

    Returns
    -------
    ndarray of shape (n, 3)
        Reconstructed vertex positions.

    Warns
    -----
    UserWarning
        When two bases overlap (cross-Gram entry above 1e-3); the
        result is still returned, with the overlapping content counted
        twice. Zero-padded submesh bases do this by construction.
    """
    if hasattr(bases, "functions"):
        bases = [bases]
    if not bases:
        raise ValueError("need at least one basis")
    if A is None:
        A = assemble_mass(mesh)
    for b in bases:
        if getattr(b, "functions", b).shape[0] != mesh.n_vertices:
            raise ValueError("basis does not match the mesh vertex count")
    if len(bases) > 1:
        worst = basis_cross_orthogonality(bases, A)
        if worst > 1e-3:
            warnings.warn(
                f"bases are not mutually A-orthogonal (max cross term "
                f"{worst:.3e}); overlapping content is reconstructed twice",
                # past the frame of the serial-BLAS decorator
                stacklevel=3,
            )
    rec = np.zeros((mesh.n_vertices, 3))
    for b in bases:
        rec += synthesize(b, analyze(b, A, mesh.vertices))
    return rec


def reconstruction_error(mesh, reconstructed):
    """Per-vertex Euclidean displacement and its unweighted mean.

    Returns
    -------
    (ndarray of shape (n,), float)
    """
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if reconstructed.shape != mesh.vertices.shape:
        raise ValueError("reconstructed coordinates have the wrong shape")
    per_vertex = np.linalg.norm(mesh.vertices - reconstructed, axis=1)
    return per_vertex, float(per_vertex.mean())
