"""Synthetic mesh generators used by tests, benchmarks and examples."""

from __future__ import annotations

import numpy as np

from .mesh import TriMesh


def grid_mesh(nx, ny, width=1.0, height=1.0, origin=(0.0, 0.0)):
    """Planar rectangle triangulated on a regular grid.

    Parameters
    ----------
    nx, ny : int
        Number of cells along each axis; the mesh has (nx+1)*(ny+1)
        vertices and 2*nx*ny triangles.
    width, height : float
        Physical extent of the rectangle.
    origin : pair of float
        Position of the lower-left corner in the z=0 plane.

    Returns
    -------
    TriMesh
    """
    if nx < 1 or ny < 1:
        raise ValueError("grid_mesh needs at least one cell per axis")
    xs = origin[0] + np.linspace(0.0, width, nx + 1)
    ys = origin[1] + np.linspace(0.0, height, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])

    def vid(i, j):
        return i * (ny + 1) + j

    faces = []
    for i in range(nx):
        for j in range(ny):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            # alternate the cell diagonal for a more isotropic triangulation
            if (i + j) % 2 == 0:
                faces.append([a, b, c])
                faces.append([a, c, d])
            else:
                faces.append([a, b, d])
                faces.append([b, c, d])
    return TriMesh(vertices, np.array(faces, dtype=np.int64))


def single_triangle(kind="right"):
    """One triangle; ``kind`` is "right" (unit legs) or "equilateral"."""
    if kind == "right":
        vertices = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    elif kind == "equilateral":
        vertices = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, np.sqrt(3) / 2, 0.0]]
    else:
        raise ValueError(f"unknown triangle kind '{kind}'")
    return TriMesh(np.array(vertices), np.array([[0, 1, 2]]))


def tetrahedron(scale=1.0):
    """Regular tetrahedron with edge length ``scale``."""
    s = scale / (2.0 * np.sqrt(2.0))
    vertices = s * np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    return TriMesh(vertices, faces)


def icosphere(subdivisions=3, radius=1.0):
    """Geodesic sphere from recursive icosahedron subdivision.

    Each level splits every triangle into four and reprojects the new
    vertices onto the sphere; level s has 10*4**s + 2 vertices.
    """
    t = (1.0 + np.sqrt(5.0)) / 2.0
    vertices = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=np.float64,
    )
    vertices /= np.linalg.norm(vertices, axis=1)[:, None]
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    for _ in range(subdivisions):
        # edges (a,b), (b,c), (c,a) of each face; a new vertex per edge,
        # numbered in the order of the edge's first occurrence
        ends = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys, first, inverse = np.unique(
            np.sort(ends, axis=1), axis=0, return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        mid = len(vertices) + rank[inverse.ravel()].reshape(-1, 3)
        m = vertices[keys[order, 0]] + vertices[keys[order, 1]]
        # m @ m per row is the ddot of np.linalg.norm on one 3-vector
        m /= np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
        ab, bc, ca = mid.T
        a, b, c = faces.T
        faces = np.stack(
            [a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1
        ).reshape(-1, 3)
        vertices = np.vstack([vertices, m])
    return TriMesh(radius * vertices, faces)


def bump_sphere(
    subdivisions=3,
    radius=5.0,
    center=(0.0, 0.0, 1.0),
    width=0.45,
    height=0.6,
    ripples=0,
    ripple_amp=0.0,
):
    """Sphere with a radial Gaussian bump, optionally rippled.

    The displacement field is ``height * exp(-theta^2 / (2 width^2))``
    where theta is the angle to ``center``; ``ripples`` adds concentric
    oscillations of relative amplitude ``ripple_amp`` inside the bump,
    which concentrates high-frequency geometry in a small patch.

    Returns
    -------
    TriMesh
    """
    base = icosphere(subdivisions, radius=1.0)
    c = np.asarray(center, dtype=np.float64)
    c = c / np.linalg.norm(c)
    cosang = np.clip(base.vertices @ c, -1.0, 1.0)
    theta = np.arccos(cosang)
    bump = height * np.exp(-(theta**2) / (2.0 * width**2))
    if ripples:
        bump = bump * (1.0 + ripple_amp * np.cos(ripples * theta))
    r = radius * (1.0 + bump)
    return TriMesh(r[:, None] * base.vertices, base.faces)


def cap_vertices(mesh, center, max_angle):
    """Indices of vertices within ``max_angle`` of direction ``center``.

    Intended for spherical meshes: membership is decided by the angle
    between the vertex direction and ``center``.
    """
    c = np.asarray(center, dtype=np.float64)
    c = c / np.linalg.norm(c)
    d = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1)[:, None]
    theta = np.arccos(np.clip(d @ c, -1.0, 1.0))
    return np.flatnonzero(theta <= max_angle)


def patch_vertices(mesh, xlim, ylim):
    """Indices of vertices inside an axis-aligned rectangle (planar meshes)."""
    v = mesh.vertices
    keep = (
        (v[:, 0] >= xlim[0]) & (v[:, 0] <= xlim[1])
        & (v[:, 1] >= ylim[0]) & (v[:, 1] <= ylim[1])
    )
    return np.flatnonzero(keep)
