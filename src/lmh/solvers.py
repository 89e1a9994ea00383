"""Sparse factorization, low-rank shifted solves and eigensolvers.

The fast path solves the generalized problem Q psi = lam A psi with
shift-invert Lanczos on the A-whitened pencil S^-1 Q S^-1, S = A^(1/2):
the diagonal mass is folded into the inverted operator, so each Lanczos
step is one shifted solve. The Lanczos iteration (``eigsh``) is this
module's own: single-vector, fully reorthogonalized by classical
Gram-Schmidt with ``dgemv``, thick-restarted, with the restart and the
Ritz vectors each formed by one matrix product. One object,
``LowRankShiftedSystem``, owns the pencil
``Q = W + diag(penalty) + mu_perp B B^T`` (mu_perp = 0 for the global
harmonics), its positive mass A and its shift sigma;
``smallest_eigenpairs`` takes it alone and serves every k up to n
with ``eigsh``. The dense routes, ``compute_lmh``'s ``hard`` and
``oracle`` paths, take matrices derived from it:
``hard_constraint_eig(Z, A, Phi, k)`` the unshifted sparse part
``sparse_part(0.0)``, and ``dense_oracle_eig(Q, A)`` Q densified through
``q_apply``. The system solves with ``Q - sigma A = Z + mu_perp B B^T``:
at its first solve it computes the checked sparse LU of Z
(``factorize``) and the dense n-by-k' Woodbury correction, so building
a system costs no factorization.
Z must be symmetric positive definite or semi-definite: ``factorize``
orders it by reverse Cuthill-McKee followed by SuperLU's minimum degree
on Z + Z^T, and factors it in symmetric mode without pivoting. No n-by-n
dense intermediate is formed on this path. A solve without a low-rank
term is one bare LU solve, and so is the correction block: a pivot-free
LU of an SPD Z is backward stable. Only the low-rank solve is refined,
in ``solve_shifted``, because the Woodbury correction can cancel; its
first step usually reaches the backward-error floor, so it too costs one
LU solve as a rule. Every returned pair passes a residual check in
eigenvalue units, and nothing repairs a pair that misses it: the solve
raises ``NumericalError``.

Memory rule: once ``eigsh`` has converged, the sparse path allocates
nothing n-by-k-sized. The Lanczos basis, (ncv + 1) rows of n, is the
solve's largest array; ``eigsh`` forms the Ritz vectors in its first k
rows, shrinks the buffer to them in place and returns their transpose,
a column-major (n, k) array whose columns are the functions.
``smallest_eigenpairs`` unwhitens them and flips their signs in place
and checks residuals a few columns at a time. The rule is "allocate
none", not "free early": on the 141-by-141 grid at k = 100, returning
a row-major copy of the eigenvectors alone raised the peak resident
memory of the mh-then-relaxed pipeline from 177-179 MB to 198-199 MB.

Two dense routes exist for cross-checking and for exact constraints:
``dense_oracle_eig`` whitens the pencil and calls LAPACK, and
``hard_constraint_eig`` restricts the whitened penalized matrix (a
system's ``sparse_part(0.0)``) to the A-orthogonal complement of a
given subspace by a congruence with the compact Householder reflectors
of that subspace's QR (a symmetric rank-2k' update), then solves the
trailing m-by-m block, m = n - k'. It never forms an n-by-n array, the
orthogonal factor or a complement basis: the block's lower triangle is
built from sparse products in a buffer from an anonymous ``mmap``, and
the update and ``eigh`` touch only that triangle, so about half of one
m-by-m array is resident. The buffer does not come from numpy because
numpy advises transparent huge pages for large arrays, and 2 MiB pages
would back the upper triangle too. Its cost is the O(n^3) ``eigh``.

Thread policy, owned here: small BLAS runs in serial scopes, and the
dense eigensolvers run outside every scope. ``_serial_blas`` sets the
bundled OpenBLAS pools to one thread for its block; each library
function whose BLAS calls are small opens one (Lanczos steps,
Gram-Schmidt, Gram checks, products with n-by-k blocks, the functional
map and the distance GEMM of ``fmap.recover_p2p``). Such calls are too
small to gain from threads, and after a threaded call each idle
OpenBLAS worker spins for about 0.1 s while the serial work that
follows runs, so CPU time exceeds wall time. Serial BLAS also makes
their results independent of the thread count. ``hard_constraint_eig``
and ``dense_oracle_eig``, whose work grows as n^3, are called outside
every scope, at the process thread count. The command line opens no
scope of its own.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy
from scipy import sparse
from scipy.linalg import blas, eigh, lapack, qr
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from .fem import mass_diagonal

# size guards for the dense routes
DENSE_ORACLE_MAX_N = 2000
HARD_PATH_MAX_N = 5000


class NumericalError(RuntimeError):
    """Raised when a factorization or eigensolve fails numerically."""


def check_dense_size(solver, n):
    """Raise ValueError if the dense ``hard`` or ``oracle`` path refuses n vertices."""
    if solver == "hard" and n > HARD_PATH_MAX_N:
        raise ValueError(
            f"hard-constraint path is dense and limited to {HARD_PATH_MAX_N} "
            f"vertices; this mesh has {n}. Use the relaxed path instead."
        )
    if solver == "oracle" and n > DENSE_ORACLE_MAX_N:
        raise ValueError(
            f"oracle path limited to {DENSE_ORACLE_MAX_N} vertices, got {n}"
        )


def default_shift(W, A):
    """Small negative shift in eigenvalue units, -1e-6 mean(diag(W) / a).

    diag(W) / a is the diagonal of the whitened ``A^-1/2 W A^-1/2``, so
    the shift scales like the eigenvalues: by 1/L^2 when the mesh is
    scaled by L.

    Raises
    ------
    ValueError
        If a mass entry is zero, negative, infinite or NaN.
    """
    return -1e-6 * float(np.mean(W.diagonal() / _positive_mass(A)))


def _eigenvalue_floor(A):
    """One over the surface area, ``1 / sum(a)``: a floor in eigenvalue units.

    It is 1 on a mesh of unit area and scales like the eigenvalues, by
    1/L^2 when the mesh is scaled by L.
    """
    return 1.0 / float(mass_diagonal(A).sum())


@functools.cache
def _blas_thread_controls():
    """(get, set) thread-count functions of each bundled OpenBLAS.

    numpy and scipy wheels each ship their own OpenBLAS in
    ``numpy.libs/`` and ``scipy.libs/``; other BLAS builds yield none.
    """
    controls = []
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
                    break
    return tuple(controls)


# open _serial_blas scopes, counted over every Python thread, and the
# pool counts the first of them found; the counts themselves are
# process-wide, so one scope per thread could restore another's
_serial_lock = threading.Lock()
_serial_depth = 0
_entry_counts = ()


@contextmanager
def _serial_blas():
    """Run the block with every bundled OpenBLAS pool at one thread.

    Scopes nest, also across Python threads: the first to open records
    the pool counts and sets them to 1, and the last to close restores
    them, also on an exception. A dense eigensolver that another thread
    runs meanwhile runs serial too.
    """
    global _serial_depth, _entry_counts
    controls = _blas_thread_controls()
    with _serial_lock:
        if _serial_depth == 0:
            _entry_counts = [get() for get, _ in controls]
            for _, set_ in controls:
                set_(1)
        _serial_depth += 1
    try:
        yield
    finally:
        with _serial_lock:
            _serial_depth -= 1
            if _serial_depth == 0:
                for (_, set_), count in zip(controls, _entry_counts):
                    set_(count)


def _positive_mass(A):
    """Diagonal of the mass A, which every solver path needs positive and finite.

    Raises
    ------
    ValueError
        If an entry is zero, negative, infinite or NaN.
    """
    a = mass_diagonal(A)
    if not np.all((a > 0.0) & (a < np.inf)):
        raise ValueError("mass diagonal must be positive and finite")
    return a


def _require_finite(name, values):
    """Raise ValueError naming ``name`` unless every value is finite.

    A sparse matrix is checked through its stored entries, in O(nnz).
    """
    if sparse.issparse(values):
        values = values.data
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite (it holds an inf or NaN)")


def _fro(x):
    return float(np.linalg.norm(x))


# the refinement of a low-rank shifted solve stops once the normwise
# backward error |r| / (|K| |x| + |b|) is within this many unit
# roundoffs: one LU solve of an SPD Z stays below one, and a further step
# only moves x at that level
_BACKWARD_ERROR_ULPS = 64

# pivots this far below the largest one are indistinguishable from an
# exact zero at float64 precision
_SINGULAR_PIVOT_RATIO = 1e-13

# refinement of a low-rank shifted solve stops at this relative
# residual, after at most this many corrections
_SOLVE_RTOL = 1e-12
_SOLVE_MAX_REFINE = 2


def factorize(Z):
    """Sparse LU of a symmetric positive (semi-)definite matrix, without pivoting.

    The matrix is first put in reverse Cuthill-McKee order; SuperLU then
    orders the permuted matrix by multiple minimum degree on Z + Z^T
    (``MMD_AT_PLUS_A``) in symmetric mode and keeps every diagonal
    pivot, so rows and columns are permuted alike and L U is a
    Cholesky-like factorization of the reordered Z. Minimum degree alone
    depends on the input numbering: on closed meshes it fills several
    times more than SuperLU's default COLAMD, and the RCM pre-order
    removes that dependence. Skipping the pivot search is only stable
    for a symmetric positive (semi-)definite Z; an indefinite Z (a shift
    above the smallest eigenvalue) factorizes, but without that
    guarantee.

    Returns
    -------
    object
        ``solve(rhs)`` is one LU solve of Z, without refinement, for a
        vector or a block of columns; ``nnz`` counts the stored
        nonzeros of L and U.

    Raises
    ------
    NumericalError
        If the matrix is numerically singular (an LU pivot at roundoff
        level); the message instructs the caller to apply a small
        negative shift.
    ValueError
        If the matrix is not symmetric or has a non-positive diagonal.
    """
    Z = sparse.csr_array(Z)
    asym = abs(Z - Z.T)
    scale = max(abs(Z).max(), 1.0)
    if asym.nnz and asym.max() > 1e-10 * scale:
        raise ValueError("factorize expects a symmetric matrix")
    if Z.diagonal().min() <= 0.0:
        raise ValueError(
            "factorize expects a positive diagonal; "
            "shift the matrix by a small multiple of the mass first"
        )
    perm = reverse_cuthill_mckee(Z, symmetric_mode=True)
    try:
        lu = splu(
            Z[perm][:, perm].tocsc(), permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0, options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise NumericalError(
            "matrix is numerically singular; apply a small negative "
            "shift sigma (Z - sigma*A with sigma < 0) and refactorize"
        ) from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() <= _SINGULAR_PIVOT_RATIO * pivots.max():
        raise NumericalError(
            "matrix is numerically singular (zero pivot); apply a small "
            "negative shift sigma (Z - sigma*A with sigma < 0) and "
            "refactorize"
        )
    return _PermutedLU(lu, perm)


class _PermutedLU:
    """LU of ``Z[perm][:, perm]`` that solves with Z itself."""

    def __init__(self, lu, perm):
        self._lu = lu
        self._perm = perm

    @property
    def nnz(self):
        return self._lu.nnz

    def solve(self, rhs):
        y = self._lu.solve(rhs[self._perm])
        x = np.empty_like(y)
        x[self._perm] = y
        return x


class LowRankShiftedSystem:
    """The pencil ``(Q, A)``, solved at the shift sigma via Woodbury.

    ``Q = W + diag(penalty) + mu_perp B B^T``, so
    ``Q - sigma A = Z + mu_perp B B^T`` with the sparse part
    ``Z = W + diag(penalty - sigma a)``.

    Parameters
    ----------
    W : sparse array
        Sparse symmetric part of Q without the penalty (the stiffness).
    B : ndarray of shape (n, k') or None
        Dense low-rank factor (mass times the avoided subspace).
    mu_perp : float
        Weight of the rank-k' term.
    mass : sparse array or ndarray
        Lumped mass A (used for right-hand sides of the form A b); a
        zero, negative, infinite or NaN entry raises ValueError.
    penalty : ndarray of shape (n,), optional
        Diagonal penalty added to W (default none).
    sigma : float
        Shift of the solves (default 0).

    Raises
    ------
    ValueError
        If W's stored entries, B, mu_perp or the penalty hold an inf or
        a NaN (the message names which), or for a bad mass or B shape.

    Notes
    -----
    Z is factorized once, at the first solve, by ``factorize``; a
    singular, non-symmetric or non-positive-diagonal Z raises there.

    Only the low-rank solve is refined. Without a low-rank term (rank 0
    or mu_perp = 0) a solve is one bare LU solve of Z: the pivot-free LU
    of an SPD Z is backward stable (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 10), and on the benchmark's rank-0
    solves its backward error stayed below 0.41 ulps, against the
    ``_BACKWARD_ERROR_ULPS`` floor of 64. So is the correction block
    ``Gamma = Z^{-1} (mu_perp B)``, one block LU solve at the first
    solve; only the n-by-k' product ``Gamma (I + B^T Gamma)^{-1}`` is
    kept. A Woodbury step costs one bare LU solve of Z and two products
    with n-by-k' blocks, but its correction can cancel: at mu_r = 0 on
    criterion 07's plane the first step's backward error reached 1.6e5
    ulps, and over the test suite refinement acted on about 900 of
    9,880 low-rank solves. So ``solve_shifted`` refines it on the full
    system.
    """

    def __init__(self, W, B, mu_perp, mass, penalty=None, sigma=0.0):
        _require_finite("W", W)
        self.W = W
        self.mass = _positive_mass(mass)
        n = self.mass.size
        # column-major, so B^T x is one BLAS dot product per column: with
        # row-major B its rounding put 42 of the 281 first Woodbury steps
        # of the k=100 lmh solve at n=19,881 above the refinement floor
        self.B = (
            np.zeros((n, 0)) if B is None else np.asfortranarray(B, dtype=np.float64)
        )
        if self.B.ndim != 2 or self.B.shape[0] != n:
            raise ValueError("B must be an (n, k') array")
        _require_finite("B", self.B)
        self.mu_perp = float(mu_perp)
        _require_finite("mu_perp", self.mu_perp)
        self.penalty = np.zeros(n) if penalty is None else np.asarray(penalty)
        _require_finite("penalty", self.penalty)
        self.sigma = float(sigma)

    def q_apply(self, x):
        """Apply the unshifted Q to a vector or matrix of columns."""
        y = self.W @ x
        y += self.penalty * x if x.ndim == 1 else self.penalty[:, None] * x
        if self._low_rank:
            y += self.mu_perp * (self.B @ (self.B.T @ x))
        return y

    def sparse_part(self, shift):
        """``W + diag(penalty - shift a)`` in CSR form."""
        return sparse.csr_array(
            self.W + sparse.diags_array(self.penalty - shift * self.mass)
        )

    @functools.cached_property
    def Z(self):
        """The sparse part at the system's own shift."""
        return self.sparse_part(self.sigma)

    @property
    def rank(self):
        return self.B.shape[1]

    @property
    def _low_rank(self):
        """Whether the system has a low-rank term: rank > 0 and mu_perp != 0."""
        return self.rank > 0 and self.mu_perp != 0.0

    @functools.cached_property
    def norm_bound(self):
        """||Z||_1 + mu_perp ||B||_2^2, a bound on the system's 2-norm.

        ||Z||_1, the largest absolute column sum, bounds ||Z||_2 (Z = Z^T).
        """
        z_norm = float(abs(self.Z).sum(axis=0).max())
        if not self._low_rank:
            return z_norm
        return z_norm + self.mu_perp * np.linalg.norm(self.B, 2) ** 2

    def apply(self, x):
        """Apply ``Z + mu_perp B B^T`` to a vector or matrix of columns."""
        y = self.Z @ x
        if self._low_rank:
            y = y + self.mu_perp * (self.B @ (self.B.T @ x))
        return y

    @functools.cached_property
    def _lu(self):
        return factorize(self.Z)

    @functools.cached_property
    def _correction(self):
        """``Gamma (I + B^T Gamma)^-1``, so a Woodbury step is one GEMV pair.

        Gamma itself is a local: only this product is kept.
        """
        gamma = self._lu.solve(self.mu_perp * self.B)
        inner = np.eye(self.rank) + self.B.T @ gamma
        return np.linalg.solve(inner.T, gamma.T).T

    def _woodbury_step(self, rhs):
        xi = self._lu.solve(rhs)
        return xi - self._correction @ (self.B.T @ xi)

    def solve_shifted(self, rhs):
        """Solve ``(Z + mu_perp B B^T) x = rhs`` for a raw right-hand side.

        Without a low-rank term this is one LU solve of Z. Otherwise,
        after the first Woodbury step, up to ``_SOLVE_MAX_REFINE``
        corrections are added while the residual norm is above both
        ``_SOLVE_RTOL`` times the right-hand side norm and the
        backward-error floor
        ``_BACKWARD_ERROR_ULPS * eps * (norm_bound * |x| + |rhs|)``; a
        correction that does not lower it is discarded and ends the loop.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        if not self._low_rank:
            return self._lu.solve(rhs)
        rhs_norm = _fro(rhs)
        floor = _BACKWARD_ERROR_ULPS * np.finfo(np.float64).eps
        best = self._woodbury_step(rhs)
        best_norm = _fro(rhs - self.apply(best))
        for _ in range(_SOLVE_MAX_REFINE):
            if best_norm <= max(
                _SOLVE_RTOL * rhs_norm,
                floor * (self.norm_bound * _fro(best) + rhs_norm),
            ):
                break
            x = best + self._woodbury_step(rhs - self.apply(best))
            r_norm = _fro(rhs - self.apply(x))
            if not r_norm < best_norm:
                break
            best, best_norm = x, r_norm
        return best


def woodbury_solve(system, b):
    """Solve ``(Z + mu_perp B B^T) x = A b`` through the low-rank identity.

    ``b`` is a plain per-vertex function; the mass multiplication that
    turns it into the actual right-hand side happens here.
    """
    b = np.asarray(b, dtype=np.float64)
    rhs = system.mass * b if b.ndim == 1 else system.mass[:, None] * b
    return system.solve_shifted(rhs)


def _flip_signs(Psi):
    """Canonical column signs of the float64 array Psi, in place; returns Psi.

    The first entry whose magnitude exceeds 1e-6 times the column norm
    decides the sign; columns without one are left untouched. Only
    boolean masks are formed, and the product with 1 or -1 is exact, so
    the bytes are those of a flipped copy.
    """
    threshold = 1e-6 * np.sqrt(np.einsum("ij,ij->j", Psi, Psi))
    big = (Psi > threshold) | (Psi < -threshold)
    cols = np.arange(Psi.shape[1])
    first = big.argmax(axis=0)
    flip = big[first, cols] & (Psi[first, cols] < 0.0)
    Psi *= np.where(flip, -1.0, 1.0)
    return Psi


def dense_oracle_eig(Q, A):
    """Full dense solve of the pencil (Q, A) by symmetric whitening.

    Intended as an independent cross-check for the iterative path;
    refuses problems above ``DENSE_ORACLE_MAX_N`` vertices.

    Parameters
    ----------
    Q : ndarray or sparse array of shape (n, n)
    A : sparse array or ndarray
        Diagonal mass.

    Returns
    -------
    (ndarray, ndarray)
        All n eigenvalues ascending and A-orthonormal eigenvectors with
        canonical column signs, column-major.
    """
    a = _positive_mass(A)
    check_dense_size("oracle", a.size)
    Qd = Q.toarray() if sparse.issparse(Q) else np.asarray(Q, dtype=np.float64)
    s = np.sqrt(a)
    M = Qd / np.outer(s, s)
    M = 0.5 * (M + M.T)
    vals, vecs = eigh(M)
    vecs /= s[:, None]
    return vals, _flip_signs(vecs)


# relative accuracy of the Ritz values of the inverted operator
_LANCZOS_TOL = 1e-10
# acceptance threshold for the verified residuals
# |Q psi - lam A psi| <= _RESIDUAL_TOL * max(1 / sum(a), |lam|) * |A psi|
# plus the solves' backward-error floor (_residual_failure)
_RESIDUAL_TOL = 1e-8
# a Gram-Schmidt pass that keeps less than this fraction of the vector's
# norm has lost digits to cancellation and is repeated (Daniel, Gragg,
# Kaufman and Stewart, Math. Comp. 1976; the constant is ARPACK's)
_DGKS_RATIO = 0.717
# Ritz values smaller than this converge against it instead of themselves
_EPS23 = np.finfo(np.float64).eps ** (2.0 / 3.0)
# columns per block of the in-place restart and Ritz vectors, at most,
# so their temporary stays small
_RESTART_COLUMNS = 2048
# eigenvectors per block of the residual check
_CHECK_COLUMNS = 16
# a solve fails once this many restarts in a row add no converged Ritz
# pair. At the basis size of smallest_eigenpairs the longest such run
# seen on a solve that converged was 7, over the test suite, the
# benchmark workloads at seeds 0-4 and 40 seeds each of icospheres and
# grids with clustered spectra. A basis of only k + 2 or k + 3 vectors
# adds so few per restart that a solve can stall longer and still
# converge after hundreds of passes
_STALLED_RESTARTS = 50


def _orthogonalize(basis, w):
    """Classical Gram-Schmidt of ``w`` against the columns of ``basis``, in place.

    ``basis`` is F-contiguous with orthonormal columns (the transposed
    rows of a Lanczos basis), so a pass is two in-place ``dgemv``. A pass
    that keeps less than ``_DGKS_RATIO`` of the norm is repeated, at most
    twice.

    Returns
    -------
    (ndarray, ndarray, float)
        The summed coefficients ``basis^T w``, the orthogonalized vector
        and its norm. The norm is 0.0 when ``w`` lies in the span of
        ``basis`` to working precision.
    """
    norm = blas.dnrm2(w)
    coef = np.zeros(basis.shape[1])
    for _ in range(3):
        c = blas.dgemv(1.0, basis, w, trans=1)
        w = blas.dgemv(-1.0, basis, c, beta=1.0, y=w, overwrite_y=1)
        coef += c
        previous, norm = norm, blas.dnrm2(w)
        if norm > _DGKS_RATIO * previous:
            return coef, w, norm
    return coef, w, 0.0


def _lanczos_steps(op, V, T, start, rng):
    """Extend the orthonormal rows ``V[:start + 1]`` to ``V[:m + 1]``, m = len(T).

    Step j first removes ``beta_{j-1} V[j-1]`` and ``alpha_j V[j]`` from
    ``w = op(V[j])``: those are its large components, so the classical
    Gram-Schmidt pass against all of ``V[:j + 1]`` that follows only
    removes roundoff and rarely needs its repetition. The first step
    after a restart leaves the coupling to the kept Ritz vectors to
    Gram-Schmidt. The summed coefficients fill row and column j of T
    up to the diagonal, and the norm beta_j couples V[j] and V[j + 1].
    The off-tridiagonal coefficients are roundoff amplified by a large
    eigenvalue of op; keeping them, rather than a tridiagonal T, cut
    the worst residual of ``compute_mh(icosphere(3), 21)`` at the
    shift -3.5e-8 from 4% of the check's bound to 0.7%. A result in
    the span of V (an invariant subspace) gives beta_j = 0, and the
    iteration goes on from op of a random vector, or from the random
    vector itself when op maps it into the span of V, orthogonalized
    against V. Returns the last beta, the norm of the residual whose
    direction is ``V[m]``.
    """
    m = T.shape[0]
    for j in range(start, m):
        # a copy: the Gram-Schmidt passes overwrite it
        w = np.array(op(V[j]), dtype=np.float64)
        previous = T[j - 1, j] if j > start else 0.0
        if previous:
            w = blas.daxpy(V[j - 1], w, a=-previous)
        alpha = blas.ddot(V[j], w)
        w = blas.daxpy(V[j], w, a=-alpha)
        basis = V[: j + 1].T
        coef, w, beta = _orthogonalize(basis, w)
        coef[j] += alpha
        if previous:
            coef[j - 1] += previous
        T[: j + 1, j] = T[j, : j + 1] = coef
        if j + 1 < m:
            T[j, j + 1] = T[j + 1, j] = beta
            if beta == 0.0:
                # filtered by op like the start, unless op maps it into V;
                # orthogonal to V first, so no converged eigenvector of a
                # large eigenvalue has to cancel out of op(r)
                _, r, _ = _orthogonalize(basis, rng.uniform(-1.0, 1.0, w.size))
                w = np.array(op(r), dtype=np.float64)
                _, w, beta = _orthogonalize(basis, w)
                if beta == 0.0:
                    _, w, beta = _orthogonalize(basis, r)
        if beta > 0.0:
            V[j + 1] = w / beta
    return beta


def _ritz_pairs(T):
    """Eigenpairs of the symmetric T, by decreasing magnitude of the eigenvalue.

    LAPACK's MRRR driver (``dsyevr``) keeps the small eigenpairs of a T
    graded by a shift-invert accurate relative to themselves. Divide and
    conquer (``dsyevd``, behind ``numpy.linalg.eigh``) treats couplings
    below eps times the largest eigenvalue as zero: at the shift
    -3.3e-8, which makes the zero eigenvalue of the 121-vertex
    unit-square grid theta ~ 3e7, that left residuals up to 5e-6 on its
    16 smallest eigenpairs.
    """
    theta, S, _, _, info = lapack.dsyevr(T, lower=1)
    if info:
        raise NumericalError(
            f"eigensolver of the projected matrix failed (info={info})"
        )
    order = np.argsort(-np.abs(theta), kind="stable")
    return theta[order], S[:, order]


def _combine_rows(V, S, ritz=False):
    """Overwrite ``V[:p]`` with ``S^T V[:ncv]`` in place, for S of shape (ncv, p).

    One block of columns of V at a time, so the temporary stays small.
    A restart multiplies ``S^T`` by blocks of ``_RESTART_COLUMNS``
    columns. For the Ritz vectors (``ritz``) each block is transposed,
    multiplied by S and transposed back: the orientation of the single
    product ``V[:ncv]^T S``, whose bytes they keep. Their blocks have
    nearly equal widths, since a block of one column would make its
    product a GEMV, which rounds differently.
    """
    ncv, p = S.shape
    n = V.shape[1]
    width = -(-n // -(-n // _RESTART_COLUMNS)) if ritz else _RESTART_COLUMNS
    for c in range(0, n, width):
        block = V[:ncv, c : c + width]
        V[:p, c : c + width] = (block.T @ S).T if ritz else S.T @ block


def eigsh(op, v0, k, ncv, tol, rng):
    """k largest-magnitude eigenpairs of a symmetric operator.

    Single-vector Lanczos with full reorthogonalization and thick
    restarts (Wu and Simon, SIAM J. Matrix Anal. Appl. 2000; Stewart's
    Krylov-Schur, SIAM J. Matrix Anal. Appl. 2001). ``smallest_eigenpairs``
    calls it through this module-level name, so a wrapper installed as
    ``lmh.solvers.eigsh`` (a tracer timing the Krylov iteration apart
    from the shifted solves inside it, or a test) sees every call.

    Parameters
    ----------
    op : callable
        Applies the symmetric n-by-n operator to a vector.
    v0 : ndarray of shape (n,)
        Starting vector; ``op(v0)`` must be nonzero.
    k : int
        Number of eigenpairs, ``1 <= k <= ncv - 2``, or ``1 <= k <= n``
        when ``ncv == n``: one pass then spans the whole space, the last
        Gram-Schmidt leaves only roundoff, which ``_orthogonalize``
        returns as beta = 0, and every Ritz pair converges.
    ncv : int
        Dimension of the Krylov basis, at most n.
    tol : float
        A Ritz value theta has converged when its residual estimate is at
        most ``tol * max(eps^(2/3), |theta|)``.
    rng : numpy.random.Generator
        Draws the vector the iteration goes on from when it finds an
        invariant subspace.

    Returns
    -------
    (ndarray, ndarray)
        The k eigenvalues by decreasing magnitude, and orthonormal
        eigenvectors as the columns of a column-major (n, k) array: the
        transpose of the basis's first k rows, which hold them. That
        buffer is the basis's own, shrunk in place, so after the
        iteration nothing n-by-k-sized is allocated.

    Raises
    ------
    NumericalError
        If fewer than k Ritz pairs converge in 10 n Lanczos passes (each
        but the first after a restart; ARPACK's default cap in scipy),
        or after ``_STALLED_RESTARTS`` restarts in a row that add no
        converged pair.

    Notes
    -----
    The first basis vector is ``op(v0)``, normalized: it damps the
    components of v0 along eigenvalues small next to the largest one.
    A shift just below a zero eigenvalue makes it a large theta, which
    otherwise spreads over the first rows of T: at the shift -3.3e-8
    (theta ~ 3e7) and from the random start itself, the 16 smallest
    eigenpairs of the 121-vertex unit-square grid kept residuals up to
    7e-8, against 1e-13.

    The basis is stored as the rows of V, shape (ncv + 1, n), so each
    Gram-Schmidt pass is an in-place ``dgemv`` on a contiguous block. A
    pass ends with ``op V[:ncv]^T = V[:ncv]^T T + beta V[ncv]^T e^T``,
    T symmetric; with ``T = S diag(theta) S^T`` (``_ritz_pairs``) the
    residual estimate of Ritz pair i is ``|beta S[-1, i]|``. Unless k
    pairs have converged, the restart keeps
    ``p = min(k + min(nconv, (ncv - k) // 2), ncv - 2)`` Ritz vectors,
    the count ARPACK keeps: ``V[:p] = S[:, :p]^T V[:ncv]`` in place, one
    block of columns at a time, then V[p] = V[ncv], and T becomes
    ``diag(theta[:p])``; the next step's Gram-Schmidt coefficients
    border it with the arrow ``beta S[-1, :p]``.
    Once k pairs have converged, the Ritz vectors ``V[:ncv]^T S[:, :k]``
    overwrite ``V[:k]`` by the same block loop (``_combine_rows``), and
    ``ndarray.resize`` shrinks V's buffer to those rows; V is a local
    that owns its buffer, so no view of the discarded rows survives.
    """
    n = v0.size
    if ncv > n or not 1 <= k <= (n if ncv == n else ncv - 2):
        raise ValueError(
            f"need ncv <= n and 1 <= k <= ncv - 2, or k <= n at ncv = n; "
            f"got k={k}, ncv={ncv}, n={n}"
        )
    V = np.empty((ncv + 1, n))
    V[0] = op(v0)
    V[0] /= np.linalg.norm(V[0])
    T = np.zeros((ncv, ncv))
    start = nconv = passes = stalled = 0
    most = -1
    for passes in range(1, 10 * n + 1):
        beta = _lanczos_steps(op, V, T, start, rng)
        theta, S = _ritz_pairs(T)
        bounds = np.abs(beta * S[-1, :k])
        converged = bounds <= tol * np.maximum(_EPS23, np.abs(theta[:k]))
        nconv = int(np.count_nonzero(converged))
        if nconv == k:
            _combine_rows(V, S[:, :k], ritz=True)
            V.resize((k, n), refcheck=False)
            return theta[:k], V.T
        most, stalled = (nconv, 0) if nconv > most else (most, stalled + 1)
        if stalled == _STALLED_RESTARTS:
            break
        p = min(k + min(nconv, (ncv - k) // 2), ncv - 2)
        _combine_rows(V, S[:, :p])
        V[p] = V[ncv]
        T[:] = 0.0
        T[np.arange(p), np.arange(p)] = theta[:p]
        start = p
    raise NumericalError(
        f"eigensolver did not converge: {nconv} of {k} Ritz pairs after "
        f"{passes} Lanczos passes, the last {stalled} without a new one; "
        "try a different shift or a larger subspace"
    )


def smallest_eigenpairs(system, k, seed=0):
    """k smallest eigenpairs of Q psi = lam A psi via shift-invert Lanczos.

    Parameters
    ----------
    system : LowRankShiftedSystem
        The pencil: ``q_apply`` applies Q (the residual check), ``mass``
        is the positive diagonal of A, and ``solve_shifted`` solves with
        ``Q - sigma A``, computing the LU at its first call. Its
        ``sigma`` must lie strictly below the smallest eigenvalue (small
        negative values work for positive semi-definite Q).
    k : int
        Number of eigenpairs, ``1 <= k <= n``.
    seed : int
        Seeds the deterministic Lanczos starting vector.

    Returns
    -------
    (ndarray, ndarray)
        Eigenvalues ascending and A-orthonormal eigenvectors with
        canonical column signs, as the columns of a column-major (n, k)
        array.

    Raises
    ------
    NumericalError
        If the Lanczos iteration does not converge, on a failed residual
        check, or for a Z that ``factorize`` finds singular.

    Notes
    -----
    With S = diag(sqrt(a)), ``eigsh`` runs on the inverted operator of
    the whitened ``H = S^-1 Q S^-1``, whose eigenvalues are the
    pencil's: ``(H - sigma I)^-1 y = S solve_shifted(S y)``, one shifted
    solve per Lanczos step, from the start vector ``S v0``, with
    ``k_solve = max(k, min(k + 6, n - 2))`` wanted pairs, a basis of
    ``min(n, 2 k_solve + 10)`` vectors (past n - 2, the whole space)
    and the tolerance ``_LANCZOS_TOL``. Its eigenvalues theta give
    ``lam = 1 / theta + sigma``; its orthonormal Ritz vectors are
    unwhitened in place (``Psi = S^-1 Phi``) and are A-orthonormal.

    After ``eigsh`` returns, nothing n-by-k-sized is allocated: the
    eigenvectors stay in the buffer ``eigsh`` returns them in, the
    residual check works on ``_CHECK_COLUMNS`` of them at a time, and
    the signs are flipped in place. Above the memory held on entry, the
    peak is the Lanczos basis, ``ncv + 1`` rows of n floats, plus what
    the shifted solves allocate (the LU and the correction block at the
    first solve) and less than one n-by-k array besides.

    Every returned pair passes ``_residual_failure``'s check, or the
    solve raises ``NumericalError`` (exit code 2 on the command line); no
    step repairs a pair that misses it. The Lanczos tolerance is relative to
    each Ritz value of the inverted operator, so a zero eigenvalue,
    theta = -1/sigma, must not dwarf the wanted ones: ``default_shift``
    sets sigma in eigenvalue units, so that ratio does not depend on the
    scale of the mesh.
    """
    a = system.mass
    n = a.size
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    # a restart can purge one copy of a degenerate pair sitting exactly
    # on the window edge; computing a few pairs past k and truncating
    # moves the edge off the requested window
    k_solve = max(k, min(k + 6, n - 2))
    ncv = min(n, 2 * k_solve + 10)
    rng = np.random.default_rng(seed)
    v0 = rng.uniform(-1.0, 1.0, n)
    # the whitened pencil: H = S^-1 Q S^-1 with S = diag(sqrt(a)) has
    # the same eigenvalues, eigenvectors S psi, and
    # (H - sigma I)^-1 = S (Q - sigma A)^-1 S
    s = np.sqrt(a)
    with _serial_blas():
        theta, Psi = eigsh(
            lambda y: s * system.solve_shifted(s * y), s * v0, k_solve,
            ncv=ncv, tol=_LANCZOS_TOL, rng=rng,
        )
        lam = 1.0 / theta + system.sigma
        Psi /= s[:, None]
        # theta comes by decreasing magnitude, which for a shift below
        # the spectrum is ascending lam already; reorder only otherwise
        order = np.argsort(lam)
        if np.any(order != np.arange(order.size)):
            lam, Psi = lam[order], Psi[:, order]
        failure = _residual_failure(system, lam[:k], Psi[:, :k])
        if failure is not None:
            raise NumericalError(failure)
        # a sign flip negates the residual exactly, so the check holds
        return lam[:k], _flip_signs(Psi[:, :k])


def _residual_failure(system, lam, Psi):
    """Message naming the worst pair over the residual bound, or None.

    The bound is ``_RESIDUAL_TOL * max(1 / sum(a), |lam|) * |A psi|``
    per pair. Its floor, ``_eigenvalue_floor``, has the units of an
    eigenvalue, so on a mesh scaled by L the bound of every pair, a zero
    eigenvalue's too, scales like the roundoff in ``Q psi``. To it is
    added the shifted solves' backward-error floor,
    ``_BACKWARD_ERROR_ULPS * eps * norm_bound * |psi|``: no pair is more
    accurate than the solves it came from. It is the larger term only
    for a mu_perp far above the eigenvalues: with mu_perp = 1e5 on a
    plane of area 1e6, even the dense oracle's pairs were 7 times over
    the first. The pairs are checked ``_CHECK_COLUMNS`` at a time, so
    the temporaries stay a few such blocks.
    """
    a = system.mass
    res_norms = np.empty(lam.size)
    mass_norms = np.empty(lam.size)
    psi_norms = np.empty(lam.size)
    for c in range(0, lam.size, _CHECK_COLUMNS):
        cols = slice(c, c + _CHECK_COLUMNS)
        psi_norms[cols] = np.linalg.norm(Psi[:, cols], axis=0)
        residuals = system.q_apply(Psi[:, cols])
        aPsi = a[:, None] * Psi[:, cols]
        mass_norms[cols] = np.linalg.norm(aPsi, axis=0)
        aPsi *= lam[None, cols]
        residuals -= aPsi
        res_norms[cols] = np.linalg.norm(residuals, axis=0)
    floor = _eigenvalue_floor(a)
    ref = _RESIDUAL_TOL * np.maximum(floor, np.abs(lam)) * mass_norms
    ulp = _BACKWARD_ERROR_ULPS * np.finfo(np.float64).eps
    ref += ulp * system.norm_bound * psi_norms
    if not np.any(res_norms > ref):
        return None
    worst = int(np.argmax(res_norms - ref))
    return (
        f"eigenpair {worst} failed the residual check: "
        f"{res_norms[worst]:.3e} > {ref[worst]:.3e}"
    )


def _compact_wy(h, tau):
    """``(Y, T)`` with ``H_1 ... H_k' = I - Y T Y^T`` for ``qr(..., mode="raw")``.

    Y is the unit lower trapezoidal matrix of reflector vectors stored
    in ``h``; the upper triangular T is built column by column as in
    LAPACK ``dlarft``.
    """
    kprime = tau.size
    Y = np.tril(h, -1)
    Y[np.diag_indices(kprime)] = 1.0
    G = Y.T @ Y
    T = np.zeros((kprime, kprime))
    for i in range(kprime):
        T[:i, i] = -tau[i] * (T[:i, :i] @ G[:i, i])
        T[i, i] = tau[i]
    return Y, T


def _lower_triangle_buffer(block):
    """Column-major copy of the lower triangle of the square sparse ``block``.

    Only the stored entries on or below the diagonal are written. The
    buffer is a private anonymous ``mmap``: it starts as zero pages that
    the kernel backs one 4 KiB page at a time, at the first write, so
    pages that lie wholly in the upper triangle are never resident while
    callers keep to the lower one. numpy's allocator advises huge pages
    for an array this large, and with transparent huge pages in
    ``madvise`` mode a write then backs 2 MiB at once: filling the lower
    triangle of m = 4880 made 181 of its 182 MiB resident, against 109
    MiB in 4 KiB pages. The buffer opts out of huge pages
    (``MADV_NOHUGEPAGE``) where the platform has the flag; Linux honours
    it in ``always`` mode too.
    """
    m = block.shape[0]
    buffer = mmap.mmap(-1, 8 * m * m, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    flat = np.frombuffer(buffer, dtype=np.float64)
    lower = sparse.tril(block, format="coo")
    flat[lower.coords[0] + m * lower.coords[1].astype(np.int64)] = lower.data
    return flat.reshape((m, m), order="F")


def hard_constraint_eig(Z, A, Phi, k):
    """Exact eigenpairs of the penalized operator on the complement of Phi.

    Restricts the penalized matrix ``Z = W + mu_r A diag(v)`` to the
    A-orthogonal complement of the span of Phi (so the constraint
    Phi^T A Psi = 0 holds exactly), then solves the reduced dense
    symmetric problem. Spurious null directions never enter: the
    reduction removes them structurally.

    With S = diag(sqrt(a)), the whitened operator ``M = S^-1 Z S^-1``
    stays sparse. The compact QR of ``S Phi`` gives k' Householder
    reflectors, Q = H_1 ... H_k' = I - Y T Y^T, and the congruence is
    ``Q^T M Q = M - V Y^T - Y V^T`` with the n-by-k' factor V formed from
    the sparse product ``M (Y T)``. Its trailing block (rows and columns
    k'..n-1, m = n - k' of them) is M on the complement: the lower
    triangle of M's trailing block is written into a zero m-by-m buffer
    (``_lower_triangle_buffer``), BLAS ``dsyr2k`` applies the rank-2k'
    update to that lower triangle in place, and ``eigh`` (``dsyevr``,
    lower) solves the block for its k smallest eigenpairs in place. None
    of these reads or writes the upper triangle, so about half of the
    m-by-m buffer becomes resident, plus one page per column, and numpy
    allocates no n-by-n or m-by-m array. Only the n-by-k eigenvectors
    are transformed back; neither Q nor a complement basis is formed.
    k' = 0 runs the same steps with no reflectors.

    Parameters
    ----------
    Z : sparse array
        The penalized matrix, a system's ``sparse_part(0.0)``; it is
        never factorized.
    A : sparse array or ndarray
        Diagonal mass.
    Phi : ndarray of shape (n, k')
        A-orthonormal functions to exclude (checked by the builder).
    k : int
        Number of eigenpairs, ``1 <= k <= n - k'``.

    Returns
    -------
    (ndarray, ndarray)
        Eigenvalues ascending and A-orthonormal eigenvectors.

    Raises
    ------
    ValueError
        Above the ``HARD_PATH_MAX_N`` dense guard, for invalid k, or if
        Z's stored entries or Phi hold an inf or a NaN. Those are
        checked here, in O(nnz + n k'), so ``eigh`` skips its scan of
        the dense block (and the n-by-n boolean array it allocates).
    """
    a = _positive_mass(A)
    n = a.size
    check_dense_size("hard", n)
    kprime = Phi.shape[1]
    if not 1 <= k <= n - kprime:
        raise ValueError(f"k must be in [1, {n - kprime}], got {k}")
    _require_finite("Z", Z)
    _require_finite("phi", Phi)

    s = np.sqrt(a)
    M = sparse.csc_array(Z, dtype=np.float64, copy=True)
    M.sum_duplicates()
    M.data /= s[M.indices]
    M.data /= np.repeat(s, np.diff(M.indptr))
    # S Phi has orthonormal columns when Phi is A-orthonormal
    (h, tau), _ = qr(s[:, None] * Phi, mode="raw")
    Y, T = _compact_wy(h, tau)
    # for symmetric M, Q^T M Q = M - V Y^T - Y V^T with V = X - Y K / 2,
    # X = M Y T and K = T^T Y^T X
    X = M @ (Y @ T)
    V = X - 0.5 * (Y @ (T.T @ (Y.T @ X)))
    trailing = _lower_triangle_buffer(M[kprime:, kprime:])
    trailing = blas.dsyr2k(
        -1.0, V[kprime:], Y[kprime:], 1.0, trailing, lower=1, overwrite_c=1
    )
    vals, vecs = eigh(
        trailing, lower=True, subset_by_index=(0, k - 1), overwrite_a=True,
        check_finite=False,
    )
    # the last reference to the buffer: it is unmapped here
    del trailing
    # Psi = S^-1 Q [0; vecs]
    Psi = -(Y @ (T @ (Y[kprime:].T @ vecs)))
    Psi[kprime:] += vecs
    Psi /= s[:, None]
    return vals, _flip_signs(Psi)
