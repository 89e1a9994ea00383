"""Hand-written reference implementations used to cross-check the
library. Everything here is deliberately naive (pure Python loops, no
scipy shortcuts) so a bug in the package cannot hide in a shared code
path.
"""

import numpy as np


def mesh_edges_with_lengths(mesh):
    """Undirected edge list [(i, j, length), ...] from the face list."""
    seen = set()
    out = []
    v = np.asarray(mesh.vertices, dtype=float)
    for a, b, c in np.asarray(mesh.faces):
        for i, j in ((a, b), (b, c), (c, a)):
            key = (min(int(i), int(j)), max(int(i), int(j)))
            if key in seen:
                continue
            seen.add(key)
            d = float(np.sqrt(((v[key[0]] - v[key[1]]) ** 2).sum()))
            out.append((key[0], key[1], d))
    return out


def bellman_ford(n, edges, source):
    """Single-source shortest paths by edge relaxation.

    edges: iterable of (i, j, length) undirected; O(n * m), fine for the
    small meshes used in tests.
    """
    dist = [float("inf")] * n
    dist[source] = 0.0
    for _ in range(n - 1):
        changed = False
        for i, j, w in edges:
            if dist[i] + w < dist[j]:
                dist[j] = dist[i] + w
                changed = True
            if dist[j] + w < dist[i]:
                dist[i] = dist[j] + w
                changed = True
        if not changed:
            break
    return np.array(dist)


def all_pairs_shortest(mesh):
    """Dense all-pairs matrix via repeated Bellman-Ford."""
    n = mesh.n_vertices
    edges = mesh_edges_with_lengths(mesh)
    return np.vstack([bellman_ford(n, edges, s) for s in range(n)])


def triangle_area(p, q, r):
    p, q, r = (np.asarray(x, dtype=float) for x in (p, q, r))
    return 0.5 * float(np.linalg.norm(np.cross(q - p, r - p)))


def stiffness_entry_by_energy(mesh, i, j, h=1.0):
    """W_ij recovered from Dirichlet energies of indicator functions.

    Uses the polarization identity E(e_i + e_j) - E(e_i) - E(e_j) =
    2 W_ij with E computed from first principles: the exact gradient of
    the piecewise-linear hat-function interpolant on every triangle.
    """

    def dirichlet(f):
        v = np.asarray(mesh.vertices, dtype=float)
        total = 0.0
        for a, b, c in np.asarray(mesh.faces):
            pa, pb, pc = v[a], v[b], v[c]
            area = triangle_area(pa, pb, pc)
            # gradient of a linear function on the triangle from its
            # values at the corners (solve the 2x2 system in-plane)
            e1, e2 = pb - pa, pc - pa
            g = np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]])
            rhs = np.array([f[b] - f[a], f[c] - f[a]])
            coef = np.linalg.solve(g, rhs)
            grad = coef[0] * e1 + coef[1] * e2
            total += area * float(grad @ grad)
        return total

    n = mesh.n_vertices
    ei = np.zeros(n)
    ej = np.zeros(n)
    ei[i] = h
    ej[j] = h
    return (dirichlet(ei + ej) - dirichlet(ei) - dirichlet(ej)) / (2.0 * h * h)


def dense_pencil_eig(Q, a):
    """All eigenpairs of (Q, diag(a)) by explicit whitening."""
    Q = np.asarray(Q, dtype=float)
    a = np.asarray(a, dtype=float)
    s = 1.0 / np.sqrt(a)
    H = s[:, None] * Q * s[None, :]
    H = 0.5 * (H + H.T)
    lam, U = np.linalg.eigh(H)
    return lam, s[:, None] * U


def constrained_pencil_eig(Q, a, phi):
    """All eigenpairs of (Q, diag(a)) on the A-orthogonal complement of phi.

    With S = diag(sqrt(a)), the last n - k' left singular vectors of
    S phi (full SVD) are an orthonormal basis of the complement of its
    span; C = S^-1 times that basis is A-orthonormal, ``np.linalg.eigh``
    solves the reduced matrix ``C^T Q C`` and psi = C y. ``phi`` must
    have full column rank.
    """
    Q = np.asarray(Q, dtype=float)
    a = np.asarray(a, dtype=float)
    phi = np.asarray(phi, dtype=float)
    s = np.sqrt(a)
    U, _, _ = np.linalg.svd(s[:, None] * phi, full_matrices=True)
    C = U[:, phi.shape[1]:] / s[:, None]
    H = C.T @ Q @ C
    H = 0.5 * (H + H.T)
    lam, Y = np.linalg.eigh(H)
    return lam, C @ Y


def nearest_index(queries, points):
    """Index of the nearest point for each query, in exact arithmetic.

    Squared distances are summed as Fractions of the float inputs, so
    no rounding decides a comparison; ties go to the lowest index.
    """
    from fractions import Fraction

    pts = [[Fraction(float(t)) for t in row] for row in np.asarray(points)]
    out = []
    for q in np.asarray(queries):
        q = [Fraction(float(t)) for t in q]
        best, best_d = -1, None
        for j, p in enumerate(pts):
            d = sum((a - b) ** 2 for a, b in zip(q, p))
            if best_d is None or d < best_d:
                best, best_d = j, d
        out.append(best)
    return np.array(out, dtype=np.int64)
