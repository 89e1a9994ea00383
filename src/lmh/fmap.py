"""Functional-map correspondence between two meshes.

Point-to-point maps are stored in pullback orientation: entry y holds
the index of the corresponding vertex on mesh X, so a function on X is
transported to Y by row selection. The functional map C expresses that
transport in the two spectral bases.

Memory stays independent of the product of the mesh sizes: the
nearest-neighbour search and the geodesic error work in blocks of at
most ``_BLOCK_ENTRIES`` float64 entries (2 MiB), and the rows that
rounding cannot separate are decided by ``_euclidean``, the sequential
distance that equals ``scipy.spatial.distance.cdist`` bit for bit.
``build_fmap`` and ``recover_p2p`` each run BLAS in a serial scope, by
the thread policy of ``lmh.solvers``: at 2562 vertices a side, more
threads gain nothing, and the results do not depend on the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import mass_diagonal
from .localized import SpectralBasis
from .mesh import graph_geodesics, surface_area
from .solvers import _serial_blas

# float64 entries per block of distances, 2 MiB
_BLOCK_ENTRIES = 2**18


@dataclass
class FunctionalMap:
    """Spectral correspondence matrix with its two bases.

    ``C[j, i] = <T phi_i^X, phi_j^Y>_A_Y`` for the transport T induced
    by a point-to-point map; shape (m_Y, m_X).
    """

    C: np.ndarray
    basis_x: SpectralBasis
    basis_y: SpectralBasis

    @property
    def shape(self):
        return self.C.shape


def stack_bases(bases):
    """Column-concatenate bases on one mesh into a single mixed basis.

    Keeps the block order (spectra are concatenated, not re-sorted),
    which downstream block diagnostics rely on.
    """
    if len(bases) == 1:
        return bases[0]
    n = bases[0].functions.shape[0]
    if any(b.functions.shape[0] != n for b in bases):
        raise ValueError("bases must live on the same mesh")
    return SpectralBasis(
        functions=np.hstack([b.functions for b in bases]),
        spectrum=np.concatenate([b.spectrum for b in bases]),
        kind="mixed",
        params={"blocks": [b.n_functions for b in bases],
                "kinds": [b.kind for b in bases]},
    )


@_serial_blas()
def build_fmap(basis_x, basis_y, p2p, A_y):
    """Functional map from a point-to-point correspondence.

    Parameters
    ----------
    basis_x, basis_y : SpectralBasis
        Bases on source mesh X and target mesh Y.
    p2p : array_like of int, shape (n_Y,)
        For each Y-vertex, the index of its X correspondent.
    A_y : sparse array or ndarray
        Mass of mesh Y.

    Returns
    -------
    FunctionalMap
    """
    p2p = np.asarray(p2p, dtype=np.int64)
    n_y = basis_y.functions.shape[0]
    n_x = basis_x.functions.shape[0]
    if p2p.shape != (n_y,):
        raise ValueError(f"p2p must have one entry per Y vertex ({n_y})")
    if p2p.min() < 0 or p2p.max() >= n_x:
        raise ValueError(f"p2p values must index X vertices in [0, {n_x})")
    a_y = mass_diagonal(A_y)
    transported = basis_x.functions[p2p]  # (n_Y, m_X)
    C = basis_y.functions.T @ (a_y[:, None] * transported)
    return FunctionalMap(C=C, basis_x=basis_x, basis_y=basis_y)


@_serial_blas()
def recover_p2p(fmap, basis_x=None, basis_y=None):
    """Point-to-point map from a functional map by exact nearest neighbor.

    Each Y-vertex embedding row is transported through C and matched to
    the nearest X-vertex embedding row in Euclidean norm; ties resolve
    to the lowest index. The indices equal ``cdist(...).argmin(axis=1)``:
    squared distances of a block of rows come from one GEMM, and a row
    whose minimum they do not separate beyond their rounding error is
    decided by ``_euclidean`` on its candidate columns. A block has
    ``max(1, _BLOCK_ENTRIES // n_X)`` rows, so it holds at most 2 MiB of
    distances unless one row is larger, and memory does not grow with
    n_X n_Y; the indices do not depend on the block size.

    Parameters
    ----------
    fmap : FunctionalMap or ndarray
        The map, or a raw C matrix if both bases are passed explicitly.
    basis_x, basis_y : SpectralBasis, optional
        Default to the bases stored in the map.

    Returns
    -------
    ndarray of int, shape (n_Y,)
    """
    C = getattr(fmap, "C", fmap)
    basis_x = basis_x if basis_x is not None else fmap.basis_x
    basis_y = basis_y if basis_y is not None else fmap.basis_y
    # float64 throughout, as _euclidean computes and as the slack below assumes
    emb_x = np.asarray(basis_x.functions, dtype=np.float64)
    queries = np.asarray(basis_y.functions @ C, dtype=np.float64)  # (n_Y, m_X)
    if queries.shape[1] != emb_x.shape[1]:
        raise ValueError("C dimensions do not match the basis sizes")
    # Slack from the standard bound for a length-m dot product in any
    # summation order, |fl(a.b) - a.b| <= gamma_m |a| |b| with
    # gamma_m = m u / (1 - m u), u = eps / 2 (Higham, Accuracy and
    # Stability of Numerical Algorithms, 3.1). Write g = gamma_(m+8).
    # - GEMM form: |q|^2 and |x|^2 are wrong by at most gamma_m times
    #   themselves and 2 q.x by 2 gamma_m |q| |x| <= gamma_m (|q|^2 +
    #   |x|^2); the two additions, on values at most 2 (|q|^2 + |x|^2),
    #   add 4u (|q|^2 + |x|^2). So |fl(d2) - d2| <= 2 g (|q|^2 + |x|^2).
    # - _euclidean: m differences, m squares, the sum and the root give
    #   e^2 = d2 (1 + t), |t| <= gamma_(m+4), and d2 <= 2 (|q|^2 +
    #   |x|^2), so e^2 is also within 2 g (|q|^2 + |x|^2) of d2.
    # If e_j <= e_i, then fl(d2)_j <= fl(d2)_i + 8 g (|q|^2 + R^2) with
    # R = max |x|: _euclidean's argmin lies in the band below. The four
    # spare terms of g cover the rounding of the band edge itself.
    m = emb_x.shape[1]
    u = 0.5 * np.finfo(np.float64).eps
    g = (m + 8) * u / (1.0 - (m + 8) * u)
    x_sq = np.einsum("ij,ij->i", emb_x, emb_x)
    r_sq = x_sq.max(initial=0.0)
    out = np.empty(queries.shape[0], dtype=np.int64)
    rows = max(1, _BLOCK_ENTRIES // max(1, len(emb_x)))
    for lo in range(0, queries.shape[0], rows):
        q = queries[lo : lo + rows]
        q_sq = np.einsum("ij,ij->i", q, q)
        d2 = q @ emb_x.T
        d2 *= -2.0
        d2 += x_sq[None, :]
        d2 += q_sq[:, None]
        best = d2.argmin(axis=1)
        slack = 8.0 * g * (q_sq + r_sq)
        band = d2 <= (d2[np.arange(len(q)), best] + slack)[:, None]
        for row in np.flatnonzero(band.sum(axis=1) != 1):
            # a NaN row has an empty band; it is decided on all columns
            cols = np.flatnonzero(band[row]) if band[row].any() else np.arange(len(emb_x))
            d = _euclidean(q[row], emb_x[cols])
            best[row] = cols[np.argmin(d)]  # the lowest index on ties
        out[lo : lo + len(q)] = best
    return out


def _euclidean(q, points):
    """Distances from ``q`` to each row of ``points``, as ``cdist`` rounds them.

    The squares of q_j - x_j are summed over the coordinates in order
    and the root is taken last: the operations, in the order, of
    ``scipy.spatial.distance.cdist(q[None], points)[0]``.
    """
    sq = np.zeros(len(points))
    for j in range(points.shape[1]):
        diff = q[j] - points[:, j]
        diff *= diff
        sq += diff
    return np.sqrt(sq)


@dataclass
class ErrorStats:
    """Geodesic correspondence errors and their cumulative curve."""

    per_vertex: np.ndarray
    mean: float
    thresholds: np.ndarray
    fractions: np.ndarray


def geodesic_error_stats(recovered, truth, mesh, n_thresholds=100, max_threshold=0.5):
    """Normalized geodesic error between two point-to-point maps.

    Both maps must take values on ``mesh``; the per-vertex error is the
    graph-geodesic distance between the recovered and true
    correspondents, normalized by the square root of the mesh area (so
    it is invariant to uniform scaling). The cumulative curve samples
    ``n_thresholds`` evenly spaced thresholds in [0, max_threshold].
    Distances come from blocks of at most ``_BLOCK_ENTRIES`` entries, one
    ``graph_geodesics`` call per block of mismatched true correspondents.

    Parameters
    ----------
    recovered, truth : array_like of int
        Same non-zero length; vertex indices on ``mesh``.
    mesh : TriMesh
        The mesh the correspondents live on.

    Returns
    -------
    ErrorStats
    """
    recovered = np.asarray(recovered, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if recovered.shape != truth.shape:
        raise ValueError("recovered and truth maps differ in length")
    if recovered.size == 0:
        raise ValueError("recovered and truth maps are empty")
    n = mesh.n_vertices
    for name, arr in (("recovered", recovered), ("truth", truth)):
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError(f"{name} map indexes outside [0, {n})")

    scale = 1.0 / np.sqrt(surface_area(mesh))
    eps = np.zeros(recovered.shape[0])
    mismatched = recovered != truth
    if mismatched.any():
        sources = np.unique(truth[mismatched])
        rows = np.searchsorted(sources, truth[mismatched])
        cols = recovered[mismatched]
        err = np.empty(rows.size)
        # one block of sources at a time keeps the distances to 2 MiB
        step = max(1, _BLOCK_ENTRIES // n)
        for lo in range(0, sources.size, step):
            dist = graph_geodesics(mesh, sources[lo : lo + step])
            sel = (rows >= lo) & (rows < lo + step)
            err[sel] = dist[rows[sel] - lo, cols[sel]]
        eps[mismatched] = err * scale
    thresholds = np.linspace(0.0, max_threshold, n_thresholds)
    fractions = (eps[None, :] <= thresholds[:, None]).mean(axis=1)
    return ErrorStats(
        per_vertex=eps,
        mean=float(eps.mean()),
        thresholds=thresholds,
        fractions=fractions,
    )


def offblock_energy(fmap, kprime, k):
    """Fraction of squared C mass outside the two diagonal blocks.

    For mixed bases ordered as k' global functions followed by k
    localized ones on both sides, the diagonal blocks are the top-left
    k'-by-k' and the following k-by-k square; everything else is
    cross-talk. Returns a value in [0, 1] (0 for an all-zero C).
    """
    C = getattr(fmap, "C", fmap)
    if kprime < 0 or k < 0 or kprime + k > min(C.shape):
        raise ValueError(
            f"block sizes ({kprime}, {k}) exceed C of shape {C.shape}"
        )
    total = float(np.sum(C**2))
    if total == 0.0:
        return 0.0
    d1 = float(np.sum(C[:kprime, :kprime] ** 2))
    d2 = float(np.sum(C[kprime : kprime + k, kprime : kprime + k] ** 2))
    return (total - d1 - d2) / total
