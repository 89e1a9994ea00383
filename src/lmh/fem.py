"""Cotangent stiffness and lumped mass assembly for triangle meshes.

The stiffness matrix is stored positive semi-definite: off-diagonal
entries are minus half the summed cotangents of the angles opposite
each edge, diagonals make rows sum to zero, and the Dirichlet energy
of a per-vertex function f is ``f @ W @ f``. The mass matrix is the
lumped (diagonal) one: each vertex receives one third of the area of
its incident triangles, so ``trace(A)`` equals the surface area.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .mesh import MeshError, membership, triangle_areas

# faces thinner than this fraction of the mean triangle area are rejected
DEGENERATE_AREA_FRACTION = 1e-12


def _corner_cotangents(mesh):
    """Cotangent of each triangle corner angle, shape (m, 3).

    Column c holds the cotangent of the angle at vertex ``faces[:, c]``,
    which is the angle opposite the edge formed by the other two
    vertices of the face.
    """
    v = mesh.vertices
    f = mesh.faces
    areas = triangle_areas(mesh)
    floor = DEGENERATE_AREA_FRACTION * areas.mean()
    bad = areas <= floor
    if bad.any():
        raise MeshError(
            f"face {int(np.flatnonzero(bad)[0])} has (near-)zero area; "
            "stiffness weights are undefined"
        )
    cots = np.empty((f.shape[0], 3))
    for c, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        e1 = v[f[:, a]] - v[f[:, c]]
        e2 = v[f[:, b]] - v[f[:, c]]
        # cot = cos/sin = (e1 . e2) / |e1 x e2|, and |e1 x e2| = 2 area
        cots[:, c] = (e1 * e2).sum(axis=1) / (2.0 * areas)
    return cots


def assemble_stiffness(mesh):
    """Cotangent stiffness matrix W as a sparse CSR array.

    Interior edges receive half the sum of the two opposite-angle
    cotangents, boundary edges half of the single one; the sign
    convention makes W positive semi-definite with zero row sums.

    Parameters
    ----------
    mesh : TriMesh

    Returns
    -------
    scipy.sparse.csr_array of shape (n, n)

    Raises
    ------
    MeshError
        If any face has (near-)zero area.
    """
    f = mesh.faces
    cots = _corner_cotangents(mesh)
    n = mesh.n_vertices

    # corner c contributes cot/2 to the edge joining the other two corners
    rows = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
    cols = np.concatenate([f[:, 2], f[:, 0], f[:, 1]])
    half = 0.5 * np.concatenate([cots[:, 0], cots[:, 1], cots[:, 2]])

    i = np.concatenate([rows, cols, rows, cols])
    j = np.concatenate([cols, rows, rows, cols])
    vals = np.concatenate([-half, -half, half, half])
    W = sparse.coo_array((vals, (i, j)), shape=(n, n)).tocsr()
    W.sum_duplicates()
    return W


def assemble_mass(mesh):
    """Lumped mass matrix A (diagonal) as a sparse CSR array."""
    areas = triangle_areas(mesh)
    a = np.zeros(mesh.n_vertices)
    np.add.at(a, mesh.faces[:, 0], areas / 3.0)
    np.add.at(a, mesh.faces[:, 1], areas / 3.0)
    np.add.at(a, mesh.faces[:, 2], areas / 3.0)
    return sparse.csr_array(sparse.diags_array(a))


def mass_diagonal(A):
    """Diagonal of a mass matrix as a flat array (accepts sparse or array)."""
    if sparse.issparse(A):
        return np.asarray(A.diagonal())
    A = np.asarray(A)
    return np.diag(A) if A.ndim == 2 else A


def penalty_weights(region, n):
    """Localization penalty weights ``v = (1 - u)^2`` for n vertices.

    ``region`` is a Region, an array of memberships u, or None (no
    penalty: v = 0 everywhere).
    """
    if region is None:
        return np.zeros(n)
    return (1.0 - membership(region, n)) ** 2
