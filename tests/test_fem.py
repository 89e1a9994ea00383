"""Cotangent stiffness and lumped mass.

Sign convention under test: W is positive semi-definite with
f^T W f equal to the Dirichlet energy of the piecewise-linear
interpolant, so off-diagonal entries are minus half the cotangent sums.
"""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from lmh.fem import (
    assemble_mass,
    assemble_stiffness,
    mass_diagonal,
)
from lmh.localized import compute_mh
from lmh.mesh import MeshError, TriMesh, surface_area
from lmh.synth import grid_mesh, single_triangle, tetrahedron

from oracles import stiffness_entry_by_energy


def test_right_triangle_cotangent_weights():
    mesh = single_triangle("right")  # (0,0), (1,0), (0,1)
    W = assemble_stiffness(mesh).toarray()
    # hypotenuse (1,2) sits opposite the right angle: cot(90)/2 = 0
    assert W[1, 2] == pytest.approx(0.0, abs=1e-15)
    # legs sit opposite 45-degree angles: -cot(45)/2 = -1/2
    assert W[0, 1] == pytest.approx(-0.5, abs=1e-14)
    assert W[0, 2] == pytest.approx(-0.5, abs=1e-14)


def test_stiffness_matches_first_principles_energy(rng):
    # jittered grid so no symmetry can mask index errors
    mesh0 = grid_mesh(4, 4)
    v = mesh0.vertices.copy()
    interior = (v[:, 0] > 0) & (v[:, 0] < 1) & (v[:, 1] > 0) & (v[:, 1] < 1)
    v[interior, :2] += rng.uniform(-0.08, 0.08, size=(interior.sum(), 2))
    mesh = TriMesh(v, mesh0.faces)
    W = assemble_stiffness(mesh).toarray()
    pairs = [(0, 1), (5, 6), (5, 5), (0, 15), (9, 10), (2, 2)]
    for i, j in pairs:
        assert W[i, j] == pytest.approx(
            stiffness_entry_by_energy(mesh, i, j), abs=1e-12
        ), f"entry ({i},{j})"


def test_rows_sum_to_zero(plane_ops):
    W, _ = plane_ops
    ones = np.ones(W.shape[0])
    np.testing.assert_allclose(W @ ones, 0.0, atol=1e-10)


def test_linear_function_energy_is_area():
    mesh = grid_mesh(20, 20)
    W = assemble_stiffness(mesh)
    f = mesh.vertices[:, 0]
    # |grad f| = 1 everywhere, so the energy equals the total area
    assert f @ (W @ f) == pytest.approx(1.0, abs=1e-10)


def test_psd_and_symmetry(plane_ops, rng):
    W, _ = plane_ops
    n = W.shape[0]
    Wd = W.toarray()
    np.testing.assert_allclose(Wd, Wd.T, atol=1e-12)
    for _ in range(20):
        x = rng.normal(size=n)
        assert x @ (W @ x) >= -1e-10 * (x @ x)


def test_self_adjointness(plane_ops, rng):
    W, _ = plane_ops
    f = rng.normal(size=W.shape[0])
    g = rng.normal(size=W.shape[0])
    lhs, rhs = g @ (W @ f), f @ (W @ g)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_mass_tetrahedron():
    A = assemble_mass(tetrahedron())
    np.testing.assert_allclose(mass_diagonal(A), np.sqrt(3.0) / 4.0, rtol=1e-12)


def test_mass_single_right_triangle():
    A = assemble_mass(single_triangle("right"))
    np.testing.assert_allclose(mass_diagonal(A), 1.0 / 6.0, rtol=1e-14)


def test_mass_trace_equals_area(corpus):
    for name, mesh in corpus:
        A = assemble_mass(mesh)
        assert mass_diagonal(A).sum() == pytest.approx(
            surface_area(mesh), rel=1e-10
        ), name
        assert mass_diagonal(A).min() > 0.0, name


def test_isometry_invariance(unit_square, rng):
    rot = Rotation.random(random_state=3).as_matrix()
    moved = TriMesh(unit_square.vertices @ rot.T + [2.0, -1.0, 0.5],
                    unit_square.faces)
    W0 = assemble_stiffness(unit_square).toarray()
    W1 = assemble_stiffness(moved).toarray()
    np.testing.assert_allclose(W1, W0, atol=1e-12)
    np.testing.assert_allclose(
        mass_diagonal(assemble_mass(moved)),
        mass_diagonal(assemble_mass(unit_square)),
        atol=1e-12,
    )


def test_degenerate_triangle_names_face():
    v = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=float)
    f = np.array([[0, 1, 3], [0, 1, 2]])  # second face has zero area
    with pytest.raises(MeshError, match="face 1"):
        assemble_stiffness(TriMesh(v, f))


def test_refinement_converges_to_pi_squared():
    pi2 = np.pi**2
    errs = []
    for nv in (5, 9, 17):
        mesh = grid_mesh(nv, nv)
        basis = compute_mh(mesh, 2)
        errs.append(abs(basis.spectrum[1] - pi2))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] / pi2 < 0.01
