"""Correctness gate for benchmark iterations, computed with numpy alone.

Nothing here calls into ``lmh``: the stiffness and mass matrices are
assembled again from the raw vertices and faces, and every eigenbasis
is checked against them. A speed-up that changes results therefore
fails the gate instead of looking like a gain.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

# Tolerances of the gate. They match the library's documented contract:
# verified residuals at 1e-8, A-orthonormality at roundoff level, the
# relaxed path's leakage warning at 1e-3, and the criterion-06 bound of
# 1e-2 between the hard and relaxed spectra.
RESIDUAL_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-8
RELAXED_OVERLAP_TOL = 1e-3
HARD_OVERLAP_TOL = 1e-8
HARD_VS_RELAXED_TOL = 1e-2


class CheckFailed(AssertionError):
    """An iteration produced a result that fails the correctness gate."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def cotangent_operators(vertices, faces):
    """Cotangent stiffness W (CSR) and lumped mass diagonal a.

    W is positive semi-definite with zero row sums: each triangle corner
    adds half the cotangent of its angle to the weight of the opposite
    edge. Each vertex receives a third of the area of its triangles.
    """
    v = np.asarray(vertices, dtype=np.float64)
    f = np.asarray(faces, dtype=np.int64)
    n = v.shape[0]
    double_area = np.linalg.norm(
        np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]]), axis=1
    )
    a = np.bincount(f.ravel(), weights=np.repeat(double_area / 6.0, 3), minlength=n)
    rows, cols, vals = [], [], []
    for corner in range(3):
        i, j, k = f[:, corner], f[:, (corner + 1) % 3], f[:, (corner + 2) % 3]
        cot = np.einsum("ij,ij->i", v[j] - v[i], v[k] - v[i]) / double_area
        w = 0.5 * cot
        rows += [j, k, j, k]
        cols += [k, j, j, k]
        vals += [-w, -w, w, w]
    W = sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    return W, a


def penalized_operator(W, a, u, phi, mu_r, mu_perp):
    """Callable applying ``W + mu_r A diag((1-u)^2) + mu_perp A phi phi^T A``."""
    penalty = mu_r * a * (1.0 - np.asarray(u, dtype=np.float64)) ** 2
    B = a[:, None] * phi if phi is not None else None

    def apply(X):
        Y = W @ X + penalty[:, None] * X
        if B is not None and mu_perp:
            Y = Y + mu_perp * (B @ (B.T @ X))
        return Y

    return apply


def check_eigenbasis(label, lam, Psi, apply_op, a, constraint=None):
    """Ascending spectrum, eigen-residuals and A-orthonormality.

    With ``constraint`` (an A-orthonormal Phi), the residual may carry a
    Lagrange-multiplier component in span(A Phi), which is removed
    before the residual is measured; that is the exact-constraint
    (``hard``) eigenproblem.
    """
    lam = np.asarray(lam, dtype=np.float64)
    Psi = np.asarray(Psi, dtype=np.float64)
    require(
        Psi.ndim == 2 and Psi.shape == (a.size, lam.size),
        f"{label}: basis shape {Psi.shape} does not match {a.size} vertices "
        f"and {lam.size} eigenvalues",
    )
    require(
        np.all(np.isfinite(lam)) and np.all(np.isfinite(Psi)),
        f"{label}: non-finite values",
    )
    scale = max(1.0, float(np.abs(lam).max()))
    require(
        np.all(np.diff(lam) >= -1e-12 * scale), f"{label}: spectrum is not ascending"
    )
    aPsi = a[:, None] * Psi
    R = apply_op(Psi) - aPsi * lam[None, :]
    if constraint is not None:
        R = R - (a[:, None] * constraint) @ (constraint.T @ R)
    res = np.linalg.norm(R, axis=0)
    ref = RESIDUAL_TOL * np.maximum(1.0, np.abs(lam)) * np.linalg.norm(aPsi, axis=0)
    worst = int(np.argmax(res / ref))
    require(
        res[worst] <= ref[worst],
        f"{label}: eigenpair {worst} residual {res[worst]:.3e} > {ref[worst]:.3e}",
    )
    defect = float(np.abs(Psi.T @ aPsi - np.eye(lam.size)).max())
    require(
        defect <= ORTHONORMALITY_TOL,
        f"{label}: A-orthonormality defect {defect:.3e} > {ORTHONORMALITY_TOL:g}",
    )


def check_overlap(label, phi, Psi, a, tol):
    """``max |phi^T A psi|`` must stay at or below ``tol``."""
    overlap = float(np.abs(phi.T @ (a[:, None] * Psi)).max())
    require(overlap <= tol, f"{label}: overlap with phi {overlap:.3e} > {tol:g}")


def check_global_basis(label, lam, Phi, W, a):
    """Manifold harmonics: eigenbasis of (W, A) starting at eigenvalue 0."""
    check_eigenbasis(label, lam, Phi, lambda X: W @ X, a)
    require(
        abs(lam[0]) <= 1e-8 * max(1.0, float(lam[-1])),
        f"{label}: first eigenvalue {lam[0]:.3e} is not zero",
    )


def check_localized_basis(label, lam, Psi, W, a, u, phi, mu_r, mu_perp, lam_kprime):
    """Relaxed-path localized harmonics, including the spectral gap.

    The gap ``lam_1(Q) >= lam_k'(W)`` holds for any mu_perp above
    ``lam_{k'+1}(W)``; the slack mirrors the library's gap check.
    """
    op = penalized_operator(W, a, u, phi, mu_r, mu_perp)
    check_eigenbasis(label, lam, Psi, op, a)
    check_overlap(label, phi, Psi, a, RELAXED_OVERLAP_TOL)
    require(
        lam[0] >= lam_kprime * (1.0 - 1e-6),
        f"{label}: lambda_1 {lam[0]:.6e} below lambda_k'(W) {lam_kprime:.6e}",
    )


def check_hard_basis(label, lam, Psi, W, a, u, phi, mu_r):
    """Exact-constraint localized harmonics on the complement of phi."""
    op = penalized_operator(W, a, u, None, mu_r, 0.0)
    check_eigenbasis(label, lam, Psi, op, a, constraint=phi)
    check_overlap(label, phi, Psi, a, HARD_OVERLAP_TOL)


def check_hard_vs_relaxed(relaxed, hard):
    """Criterion-06 bound: ``|relaxed - hard|_2 <= 1e-2 |hard|_2``."""
    dist = float(np.linalg.norm(np.asarray(relaxed) - np.asarray(hard)))
    bound = HARD_VS_RELAXED_TOL * float(np.linalg.norm(hard))
    require(dist <= bound, f"hard vs relaxed spectra differ by {dist:.3e} > {bound:.3e}")
