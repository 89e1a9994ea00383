"""Localized spectral bases on triangle meshes.

Builds the modified operator ``Q = W + mu_r A diag(v) + mu_perp A P``
whose smallest generalized eigenpairs concentrate on a chosen region
while staying A-orthogonal to the first k' global harmonics (P is the
A-orthogonal projector onto their span). ``build_lmh_operator`` is the
one place that turns a region, the weights and the default shift into
a ``LowRankShiftedSystem``, which owns Q, the mass and the shift;
``compute_lmh`` builds it once and every solver path starts from it:

* ``relaxed`` - sparse shift-invert Lanczos with Woodbury inner solves
  (the fast path; the projector is never densified),
* ``hard`` - dense solve of the unshifted penalized matrix
  (``sparse_part(0.0)``) on the orthogonal complement, with the
  constraint enforced exactly,
* ``oracle`` - dense solve of the relaxed operator, for cross-checks.

The system factorizes its sparse part at its first solve, so only the
``relaxed`` path runs a sparse LU.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .fem import assemble_mass, assemble_stiffness, mass_diagonal, penalty_weights
from .mesh import (MeshError, TriMesh, _valid_membership, graph_geodesics,
                   intrinsic_diameter, membership)
from .solvers import (
    LowRankShiftedSystem,
    _eigenvalue_floor,
    _serial_blas,
    check_dense_size,
    default_shift,
    dense_oracle_eig,
    hard_constraint_eig,
    smallest_eigenpairs,
)

DEFAULT_MU_R = 100.0
DEFAULT_MU_PERP = 1e5
SOLVERS = ("relaxed", "hard", "oracle")


def _is_binary(u):
    """Whether every membership value is exactly 0 or 1."""
    return bool(np.all((u == 0.0) | (u == 1.0)))


class Region:
    """Per-vertex soft membership u in [0, 1].

    The localization penalty weights are ``v = (1 - u)^2``: zero inside
    the region, one far outside, smooth in between.
    """

    def __init__(self, u):
        # a copy: freezing the caller's own array would make it read-only
        self.u = _valid_membership(u).copy()
        self.u.setflags(write=False)

    @property
    def is_binary(self):
        return _is_binary(self.u)

    @classmethod
    def binary(cls, n, inside):
        """Binary region from a vertex index set or boolean mask.

        Raises ValueError for a mask whose length is not n and for an
        index that is not an integer in ``[0, n)``.
        """
        inside = np.asarray(inside)
        u = np.zeros(n)
        if inside.dtype == bool:
            if inside.shape != (n,):
                raise ValueError("boolean mask length must match vertex count")
            u[inside] = 1.0
        else:
            idx = inside.ravel()
            x = idx.astype(np.float64)
            bad = ~((x >= 0) & (x < n) & (x == np.floor(x)))
            if bad.any():
                raise ValueError(
                    f"vertex index {idx[np.argmax(bad)]} is not an integer "
                    f"in [0, {n})"
                )
            u[idx.astype(np.int64)] = 1.0
        return cls(u)

    def __len__(self):
        return self.u.size

    def __repr__(self):
        kind = "binary" if self.is_binary else "soft"
        return f"Region({self.u.size} vertices, {kind})"


@dataclass
class SpectralBasis:
    """A-orthonormal spectral functions with their eigenvalues.

    Attributes
    ----------
    functions : ndarray of shape (n, m)
        One function per column. ``compute_mh`` and the ``relaxed`` and
        ``oracle`` paths of ``compute_lmh`` return it column-major, so
        each function and each leading block of functions is
        contiguous; the iterative solver's are a view of its Lanczos
        basis buffer, never a copy.
    spectrum : ndarray of shape (m,)
        Generalized eigenvalues, ascending.
    kind : str
        "MH", "LMH", "PMH" or "mixed".
    params : dict
        Solver settings and diagnostics recorded at construction.
    """

    functions: np.ndarray
    spectrum: np.ndarray
    kind: str
    params: dict = field(default_factory=dict)

    @property
    def n_vertices(self):
        return self.functions.shape[0]

    @property
    def n_functions(self):
        return self.functions.shape[1]

    def __repr__(self):
        return (
            f"SpectralBasis({self.kind}, {self.n_functions} functions "
            f"on {self.n_vertices} vertices)"
        )


def _operators(mesh, W, A):
    if W is None:
        W = assemble_stiffness(mesh)
    if A is None:
        A = assemble_mass(mesh)
    return W, A


def compute_mh(mesh, k, seed=0, W=None, A=None):
    """First k manifold harmonics (global Laplacian eigenbasis).

    Parameters
    ----------
    mesh : TriMesh
    k : int
        Number of eigenpairs, ``1 <= k <= n``.
    seed : int
        Seeds the iterative solver start vector.
    W, A : sparse arrays, optional
        Reuse preassembled operators.

    Returns
    -------
    SpectralBasis
    """
    W, A = _operators(mesh, W, A)
    system, _ = build_lmh_operator(W, A, None, None, 0.0, 0.0)
    lam, Psi = smallest_eigenpairs(system, k, seed=seed)
    return SpectralBasis(
        functions=Psi,
        spectrum=lam,
        kind="MH",
        params={"k": k, "sigma": system.sigma, "seed": seed},
    )


@_serial_blas()
def build_lmh_operator(W, A, region, phi, mu_r, mu_perp):
    """Assemble the localized operator in low-rank shifted form.

    Runs with BLAS at one thread, like the solve that follows.

    Parameters
    ----------
    W, A : sparse arrays
    region : Region or array_like or None
        Membership u (penalty weight v = (1 - u)^2).
    phi : ndarray of shape (n, k') or None
        A-orthonormal harmonics spanning the subspace to avoid.
    mu_r, mu_perp : float
        Non-negative penalty weights.

    Returns
    -------
    (LowRankShiftedSystem, callable)
        The system of the pencil (Q, A) at the shift
        ``default_shift(W, A)``, a small negative value, and its
        ``q_apply``, which applies the unshifted Q. The unshifted sparse
        part ``W + mu_r A diag(v)`` is the system's ``sparse_part(0.0)``.
        No factorization happens here: the system computes its sparse LU
        at its first solve.

    Raises
    ------
    ValueError
        If a weight is negative, the membership fails ``membership``, the
        phi row count does not match the vertex count, phi is not finite
        and A-orthonormal within 1e-6, or the system finds W, the penalty
        or mu_perp not finite.
    """
    if mu_r < 0.0 or mu_perp < 0.0:
        raise ValueError("penalty weights must be non-negative")
    a = mass_diagonal(A)
    n = a.size
    v = penalty_weights(region, n)
    if phi is None:
        phi = np.zeros((n, 0))
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape[0] != n:
        raise ValueError("phi row count does not match vertex count")
    if phi.shape[1]:
        with np.errstate(invalid="ignore", over="ignore"):
            gram = phi.T @ (a[:, None] * phi)
        # negated, so an inf or NaN in phi fails too
        if not np.abs(gram - np.eye(phi.shape[1])).max() <= 1e-6:
            raise ValueError("phi must be finite and A-orthonormal (within 1e-6)")

    # an infinite mu_r gives inf * 0 = NaN, which the system names
    with np.errstate(invalid="ignore"):
        penalty = mu_r * a * v
    system = LowRankShiftedSystem(
        W, a[:, None] * phi, mu_perp, A, penalty=penalty,
        sigma=default_shift(W, a),
    )
    return system, system.q_apply


def _global_prelude(mesh, kprime, mu_perp, seed, W, A):
    """The first k' global harmonics, the first k' + 1 eigenvalues and mu_perp.

    ``mu_perp`` defaults to ``max(1e5, 10 lam_{k'+1})``, comfortably
    above the (k'+1)-th eigenvalue. An explicit value at or below
    ``lam_{k'+1}`` warns, pointing at the line that called
    ``compute_lmh`` or ``verify_spectral_gap``.
    """
    mh = compute_mh(mesh, kprime + 1, seed=seed, W=W, A=A)
    lam_next = float(mh.spectrum[kprime])
    if mu_perp is None:
        mu_perp = max(DEFAULT_MU_PERP, 10.0 * lam_next)
    elif mu_perp <= lam_next:
        warnings.warn(
            f"mu_perp={mu_perp:g} does not exceed lambda_(k'+1)={lam_next:g}; "
            "the gap bound assumes it does",
            stacklevel=3,
        )
    return mh.functions[:, :kprime], mh.spectrum, mu_perp


def compute_lmh(
    mesh,
    region,
    k,
    kprime,
    mu_r=DEFAULT_MU_R,
    mu_perp=None,
    phi=None,
    solver="relaxed",
    seed=0,
    W=None,
    A=None,
):
    """First k localized harmonics for a region.

    Parameters
    ----------
    mesh : TriMesh
    region : Region
    k : int
        Number of localized functions.
    kprime : int
        Number of global harmonics to stay orthogonal to; requires
        ``k + kprime < n``.
    mu_r : float
        Localization weight.
    mu_perp : float, optional
        Orthogonality weight. Default: ``max(1e5, 10 * lam_{k'+1}(W))``
        when the global harmonics are computed here, else 1e5 (also for
        k' = 0, which computes none). When they are, an explicit value
        at or below ``lam_{k'+1}(W)`` warns.
    phi : ndarray, optional
        Precomputed A-orthonormal global harmonics (n, kprime).
    solver : {"relaxed", "hard", "oracle"}
        Fast low-rank path, exact-constraint dense path, or dense solve
        of the relaxed operator.
    seed : int
    W, A : sparse arrays, optional

    Returns
    -------
    SpectralBasis
        kind "LMH"; ``params["phi_overlap_max"]`` records the achieved
        ``max |phi^T A psi|`` (a warning is issued when it exceeds 1e-3)
        and ``params["orthonormality_defect"]`` the largest entry of
        ``|Psi^T A Psi - I|``.
    """
    W, A = _operators(mesh, W, A)
    n = W.shape[0]
    if kprime < 0:
        raise ValueError("kprime must be non-negative")
    if k < 1 or k + kprime >= n:
        raise ValueError(
            f"need 1 <= k and k + kprime < n = {n}, got k={k}, kprime={kprime}"
        )
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver path '{solver}'")
    # before any global solve, which a refused dense path would waste
    check_dense_size(solver, n)
    a = mass_diagonal(A)
    if region is not None and not np.any(membership(region, n)):
        warnings.warn(
            "empty region: every membership is 0, so the penalty is uniform "
            "and the basis is not localized",
            stacklevel=2,
        )

    if phi is None and kprime:
        phi, _, mu_perp = _global_prelude(mesh, kprime, mu_perp, seed, W, A)
    # an empty phi never uses the mu_perp a global solve would set
    phi = np.asarray(np.zeros((n, 0)) if phi is None else phi, dtype=np.float64)
    if phi.shape != (n, kprime):
        raise ValueError("phi must have shape (n, kprime)")
    if mu_perp is None:
        mu_perp = DEFAULT_MU_PERP

    # hard takes the unshifted penalized matrix; no path but relaxed
    # solves with the system, so no other path factorizes
    system, _ = build_lmh_operator(W, A, region, phi, mu_r, mu_perp)
    if solver == "hard":
        lam, Psi = hard_constraint_eig(system.sparse_part(0.0), A, phi, k)
    elif solver == "relaxed":
        lam, Psi = smallest_eigenpairs(system, k, seed=seed)
    else:
        # densified at one thread; only the eigensolver takes the thread count
        with _serial_blas():
            Q = system.q_apply(np.eye(n))
        vals, vecs = dense_oracle_eig(Q, A)
        # a copy, so the basis does not keep all n eigenvectors alive
        lam, Psi = vals[:k], vecs[:, :k].copy(order="F")

    # serial BLAS, as in the solve, keeps these diagnostics independent
    # of the thread count. A row-major A Psi makes each product round as
    # it did when the relaxed path returned row-major functions; the
    # maxima of the transposed products are the same numbers
    with _serial_blas():
        aPsi = np.multiply(a[:, None], Psi, order="C")
        overlap = float(np.abs(aPsi.T @ phi).max()) if kprime else 0.0
        defect = float(np.abs(aPsi.T @ Psi - np.eye(k)).max())
    if overlap > 1e-3:
        warnings.warn(
            f"localized basis leaks into the avoided subspace: "
            f"max |phi^T A psi| = {overlap:.3e} > 1e-3 (increase mu_perp)",
            stacklevel=2,
        )
    return SpectralBasis(
        functions=Psi,
        spectrum=lam,
        kind="LMH",
        params={
            "k": k,
            "kprime": kprime,
            "mu_r": mu_r,
            "mu_perp": mu_perp,
            "solver": solver,
            "sigma": system.sigma,
            "seed": seed,
            "phi_overlap_max": overlap,
            "orthonormality_defect": defect,
        },
    )


def extract_submesh(mesh, region):
    """Submesh induced by the u == 1 vertices of a binary region.

    Keeps faces whose three vertices are inside; vertices left without
    any face are dropped.

    Returns
    -------
    (TriMesh, ndarray)
        The submesh and the original indices of its vertices.

    Raises
    ------
    MeshError
        If the submesh is empty or fails validation.
    ValueError
        If the region is not binary.
    """
    u = membership(region, mesh.n_vertices)
    if not _is_binary(u):
        raise ValueError("submesh extraction requires a binary region")
    keep_face = (u[mesh.faces] == 1.0).all(axis=1)
    if not keep_face.any():
        raise MeshError("empty submesh: no face has all three vertices inside")
    faces = mesh.faces[keep_face]
    vidx = np.unique(faces)
    remap = -np.ones(mesh.n_vertices, dtype=np.int64)
    remap[vidx] = np.arange(vidx.size)
    sub = TriMesh(mesh.vertices[vidx], remap[faces])
    return sub, vidx


def compute_pmh(mesh, region, k, seed=0):
    """Zero-padded harmonics of the submesh induced by a binary region.

    The functions are orthonormal with respect to the submesh mass (not
    the full-mesh one; lumped areas differ along the region boundary).

    Parameters
    ----------
    mesh : TriMesh
    region : Region
        Binary; the induced submesh needs at least 4 vertices.
    k : int
    seed : int

    Returns
    -------
    SpectralBasis
        kind "PMH"; ``params["vertex_indices"]`` maps submesh rows back
        to the original mesh.
    """
    sub, vidx = extract_submesh(mesh, region)
    if sub.n_vertices < 4:
        raise MeshError(
            f"submesh has {sub.n_vertices} vertices; at least 4 are required"
        )
    basis = compute_mh(sub, k, seed=seed)
    padded = np.zeros((mesh.n_vertices, k))
    padded[vidx] = basis.functions
    return SpectralBasis(
        functions=padded,
        spectrum=basis.spectrum,
        kind="PMH",
        params={"k": k, "seed": seed, "vertex_indices": vidx},
    )


def soft_region_from_seeds(mesh, seeds, variance=None):
    """Soft membership from Gaussians of graph-geodesic distance.

    ``u_i = min(1, sum_s exp(-d(i, s)^2 / (2 variance)))`` over the
    seed vertices s.

    Parameters
    ----------
    mesh : TriMesh
    seeds : sequence of int
        Non-empty list of vertex indices.
    variance : float, optional
        Defaults to ``(0.01 * intrinsic_diameter(mesh))**2``.

    Returns
    -------
    Region
    """
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    if seeds.size == 0:
        raise ValueError("at least one seed vertex is required")
    if variance is None:
        variance = (0.01 * intrinsic_diameter(mesh)) ** 2
    if not variance > 0.0:
        raise ValueError("variance must be positive")
    d = graph_geodesics(mesh, seeds)
    d = d.reshape(seeds.size, -1)
    with np.errstate(under="ignore"):
        u = np.exp(-(d**2) / (2.0 * variance)).sum(axis=0)
    return Region(np.minimum(1.0, u))


def region_energy_fraction(basis, A, region):
    """Per-function fraction of A-weighted energy carried inside a region.

    Uses the membership u as the inside weight, which for a binary
    region is exactly the energy fraction on the u == 1 vertices.
    """
    functions = getattr(basis, "functions", basis)
    a = mass_diagonal(A)
    u = membership(region, a.size)
    total = np.einsum("ij,ij->j", functions, a[:, None] * functions)
    inside = np.einsum("ij,ij->j", functions, (a * u)[:, None] * functions)
    return inside / total


@dataclass
class GapReport:
    """Outcome of the spectral-gap check (smallest localized eigenvalue
    against the k'-th global one)."""

    kprime: int
    mu_r: float
    mu_perp: float
    lam_kprime_W: float
    lam_next_W: float
    lam1_Q: float
    gap: float
    threshold: float
    passed: bool


def verify_spectral_gap(
    mesh, region, kprime, mu_r=DEFAULT_MU_R, mu_perp=None, seed=0, W=None, A=None
):
    """Check ``lam_1(Q) >= lam_k'(W)`` for a sufficiently large mu_perp.

    The check never passes silently: the returned report carries the
    measured gap, the threshold ``-1e-6 * lam_k'(W)`` (plus a tiny
    floating-point allowance) and the pass flag.

    Parameters
    ----------
    mesh : TriMesh
    region : Region or None
        None (or all-ones membership) gives the v = 0 control, where
        ``lam_1(Q)`` equals ``lam_{k'+1}(W)``.
    kprime : int
        At least 1.
    mu_r, mu_perp : float
        ``mu_perp`` defaults, and warns, as in ``compute_lmh``.

    Returns
    -------
    GapReport
    """
    if kprime < 1:
        raise ValueError("kprime must be at least 1")
    W, A = _operators(mesh, W, A)
    phi, spectrum, mu_perp = _global_prelude(mesh, kprime, mu_perp, seed, W, A)
    lam_kp, lam_next = float(spectrum[kprime - 1]), float(spectrum[kprime])
    system, _ = build_lmh_operator(W, A, region, phi, mu_r, mu_perp)
    lam1 = float(smallest_eigenpairs(system, 1, seed=seed)[0][0])
    gap = lam1 - lam_kp
    # floored in eigenvalue units, as in the residual check
    threshold = -1e-6 * lam_kp - 1e-12 * max(_eigenvalue_floor(A), lam_next)
    return GapReport(
        kprime=kprime,
        mu_r=mu_r,
        mu_perp=float(mu_perp),
        lam_kprime_W=lam_kp,
        lam_next_W=lam_next,
        lam1_Q=lam1,
        gap=gap,
        threshold=threshold,
        passed=bool(gap >= threshold),
    )


@dataclass
class BoundReport:
    """Outcome of the restricted-pencil upper-bound check
    ``lam_i(Q) <= lam_{i+k'}(W_R)`` (within a relative tolerance)."""

    kprime: int
    k: int
    mu_r: float
    mu_perp: float
    tolerance: float
    lmh_spectrum: np.ndarray
    submesh_spectrum: np.ndarray
    margins: np.ndarray
    passed: bool


def restrict_pencil(W, A, region):
    """Principal-submatrix restriction of (W, A) to a binary region.

    Rows and columns outside the region are dropped from both matrices
    without reassembly, so the restricted quadratic forms equal the
    full-mesh energies of zero-extended functions. Interface vertices
    keep their full stiffness diagonal and lumped mass, which pins the
    restriction down at the region boundary (no natural-boundary
    renormalization).

    Returns
    -------
    (W_rr, A_rr, idx)
        Restricted sparse operators and the kept vertex indices.
    """
    u = membership(region, W.shape[0])
    if not _is_binary(u):
        raise ValueError("pencil restriction requires a binary region")
    idx = np.flatnonzero(u == 1.0)
    if idx.size == 0:
        raise ValueError("region contains no vertices")
    W_rr = W.tocsr()[idx][:, idx]
    a_rr = mass_diagonal(A)[idx]
    return W_rr, sparse.diags_array(a_rr).tocsr(), idx


def verify_upper_bound(
    mesh, region, kprime, k, mu_r=1e4, mu_perp=None, seed=0, tolerance=1e-3,
    W=None, A=None,
):
    """Check the localized spectrum against the restricted operator.

    With v the indicator of the region complement, each localized
    eigenvalue is bounded by the restricted eigenvalue k' indices
    later: ``lam_i(Q) <= lam_{i+k'}(W_R)``, where (W_R, A_R) is the
    principal-submatrix restriction of the pencil to the region (the
    operator the penalty term drives Q toward as mu_r grows). The
    inequality holds at any mu_r because zero-extended restricted
    eigenfunctions feel no penalty; the report records per-index
    margins rather than raising.

    Parameters
    ----------
    mesh : TriMesh
    region : Region
        Binary.
    kprime, k : int
    mu_r : float
    mu_perp : float, optional
    seed : int
    tolerance : float
        Relative slack on the right-hand side, absorbing solver error
        (a small absolute floor covers eigenvalues at zero).
    W, A : sparse arrays, optional
        Reuse preassembled operators.

    Returns
    -------
    BoundReport
    """
    W, A = _operators(mesh, W, A)
    W_rr, A_rr, idx = restrict_pencil(W, A, region)
    sub_k = k + kprime
    if sub_k > idx.size:
        raise ValueError(
            f"region has only {idx.size} vertices; cannot compare "
            f"{sub_k} eigenvalues"
        )
    lmh = compute_lmh(
        mesh, region, k, kprime, mu_r=mu_r, mu_perp=mu_perp, seed=seed, W=W, A=A
    )
    sub_basis = compute_mh(None, sub_k, seed=seed, W=W_rr, A=A_rr)
    rhs = sub_basis.spectrum[kprime : kprime + k]
    # relative slack plus a floor in eigenvalue units, as in the residual
    # check, so a zero eigenvalue at -1e-15 keeps its own bound
    floor = _eigenvalue_floor(A)
    slack = tolerance * np.abs(rhs) + 1e-9 * max(floor, float(np.abs(rhs).max()))
    margins = rhs + slack - lmh.spectrum
    return BoundReport(
        kprime=kprime,
        k=k,
        mu_r=mu_r,
        mu_perp=float(lmh.params["mu_perp"]),
        tolerance=tolerance,
        lmh_spectrum=lmh.spectrum,
        submesh_spectrum=sub_basis.spectrum,
        margins=margins,
        passed=bool(np.all(margins >= 0.0)),
    )


@dataclass
class WeylFit:
    """Least-squares line through the upper half of a spectrum."""

    slope: float
    intercept: float
    r_squared: float
    region_area: float

    @property
    def normalized_slope(self):
        """Slope times the square root of the region area."""
        return self.slope * np.sqrt(self.region_area)


def weyl_slope(basis, region_area):
    """Fit ``lam_i - lam_1`` against the index i over the upper half.

    Parameters
    ----------
    basis : SpectralBasis or array_like
        Basis (or raw spectrum) with at least 10 eigenvalues.
    region_area : float
        Area of the region the basis localizes on, recorded for
        cross-region slope comparisons.

    Returns
    -------
    WeylFit
    """
    spectrum = np.asarray(getattr(basis, "spectrum", basis), dtype=np.float64)
    m = spectrum.size
    if m < 10:
        raise ValueError(f"need at least 10 eigenvalues for a stable fit, got {m}")
    y = spectrum - spectrum[0]
    idx = np.arange(1, m + 1, dtype=np.float64)
    lo = m // 2
    xs, ys = idx[lo:], y[lo:]
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    ss_res = float(np.sum(resid**2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return WeylFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r2),
        region_area=float(region_area),
    )
