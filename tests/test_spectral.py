"""Spectral coefficients, synthesis, and surface reconstruction."""

import numpy as np
import pytest

from lmh.fem import assemble_mass, assemble_stiffness, mass_diagonal
from lmh.localized import Region, compute_lmh, compute_mh, compute_pmh
from lmh.spectral import (
    analyze,
    basis_cross_orthogonality,
    reconstruction_error,
    reconstruct_surface,
    synthesize,
)
from lmh.synth import bump_sphere, cap_vertices

from oracles import dense_pencil_eig


@pytest.fixture(scope="module")
def square_basis(unit_square):
    return compute_mh(unit_square, 10)


@pytest.fixture(scope="module")
def bump():
    # rippled bump: high-frequency geometry confined to a small cap
    return bump_sphere(
        subdivisions=2, radius=5.0, height=1.5, width=0.3,
        ripples=6, ripple_amp=0.5,
    )


class TestAnalyze:
    def test_basis_function_gives_delta(self, unit_square, square_basis):
        A = assemble_mass(unit_square)
        c = analyze(square_basis, A, square_basis.functions[:, 2])
        expected = np.zeros(10)
        expected[2] = 1.0
        np.testing.assert_allclose(c, expected, atol=1e-8)

    def test_zero_signal(self, unit_square, square_basis):
        A = assemble_mass(unit_square)
        c = analyze(square_basis, A, np.zeros(unit_square.n_vertices))
        np.testing.assert_array_equal(c, np.zeros(10))

    def test_multi_column_signals(self, unit_square, square_basis):
        A = assemble_mass(unit_square)
        F = unit_square.vertices
        C = analyze(square_basis, A, F)
        assert C.shape == (10, 3)
        for d in range(3):
            np.testing.assert_allclose(
                C[:, d], analyze(square_basis, A, F[:, d]), atol=1e-14
            )

    def test_accepts_raw_arrays(self, unit_square, square_basis):
        A = assemble_mass(unit_square)
        f = unit_square.vertices[:, 0]
        c1 = analyze(square_basis, A, f)
        c2 = analyze(square_basis.functions, A, f)
        np.testing.assert_array_equal(c1, c2)

    def test_length_mismatch(self, unit_square, square_basis):
        A = assemble_mass(unit_square)
        with pytest.raises(ValueError):
            analyze(square_basis, A, np.zeros(unit_square.n_vertices - 1))


class TestSynthesize:
    def test_unit_coefficient_gives_basis_function(self, square_basis):
        e1 = np.zeros(10)
        e1[0] = 1.0
        np.testing.assert_array_equal(
            synthesize(square_basis, e1), square_basis.functions[:, 0]
        )

    def test_zero_coefficients(self, square_basis):
        f = synthesize(square_basis, np.zeros(10))
        np.testing.assert_array_equal(f, np.zeros(square_basis.n_vertices))

    def test_coefficient_prefix(self, square_basis, rng):
        c = rng.standard_normal(10)
        np.testing.assert_allclose(
            synthesize(square_basis, c[:4]),
            square_basis.functions[:, :4] @ c[:4],
            atol=0,
        )

    def test_too_many_coefficients(self, square_basis):
        with pytest.raises(ValueError):
            synthesize(square_basis, np.zeros(11))


class TestRoundTrips:
    def test_full_basis_reconstructs_any_signal(self, unit_square, rng):
        W = assemble_stiffness(unit_square)
        A = assemble_mass(unit_square)
        a = mass_diagonal(A)
        _, U = dense_pencil_eig(W.toarray(), a)
        f = rng.standard_normal(unit_square.n_vertices)
        c = analyze(U, A, f)
        np.testing.assert_allclose(synthesize(U, c), f, atol=1e-8)

    def test_parseval(self, unit_square, rng):
        W = assemble_stiffness(unit_square)
        A = assemble_mass(unit_square)
        a = mass_diagonal(A)
        _, U = dense_pencil_eig(W.toarray(), a)
        f = rng.standard_normal(unit_square.n_vertices)
        c = analyze(U, A, f)
        norm_a = f @ (a * f)
        assert abs(c @ c - norm_a) <= 1e-8 * norm_a

    def test_coefficients_round_trip(self, unit_square, square_basis, rng):
        A = assemble_mass(unit_square)
        c = rng.standard_normal(10)
        back = analyze(square_basis, A, synthesize(square_basis, c))
        np.testing.assert_allclose(back, c, atol=1e-10)


class TestReconstructSurface:
    def test_constant_basis_gives_weighted_centroid(self, sphere):
        A = assemble_mass(sphere)
        a = mass_diagonal(A)
        basis = compute_mh(sphere, 1, A=A)
        rec = reconstruct_surface(sphere, basis, A=A)
        centroid = (a[:, None] * sphere.vertices).sum(axis=0) / a.sum()
        np.testing.assert_allclose(
            rec, np.broadcast_to(centroid, rec.shape), atol=1e-8
        )

    def test_error_decreases_with_basis_size(self, sphere):
        A = assemble_mass(sphere)
        errors = []
        for k in (5, 10, 20, 40):
            rec = reconstruct_surface(sphere, compute_mh(sphere, k, A=A), A=A)
            errors.append(reconstruction_error(sphere, rec)[1])
        assert np.all(np.diff(errors) <= 1e-12), errors

    def test_localized_detail_beats_extra_globals(self, bump):
        # same total budget: 20 global + 20 bump-localized functions
        # against 40 global ones
        W = assemble_stiffness(bump)
        A = assemble_mass(bump)
        cap = Region.binary(
            bump.n_vertices, cap_vertices(bump, (0.0, 0.0, 1.0), 0.8)
        )
        mh20 = compute_mh(bump, 20, W=W, A=A)
        lmh = compute_lmh(
            bump, cap, k=20, kprime=20, phi=mh20.functions, W=W, A=A
        )
        mixed = reconstruct_surface(bump, [mh20, lmh], A=A)
        plain = reconstruct_surface(bump, compute_mh(bump, 40, W=W, A=A), A=A)
        err_mixed = reconstruction_error(bump, mixed)[1]
        err_plain = reconstruction_error(bump, plain)[1]
        assert err_mixed < err_plain

    def test_warns_on_overlapping_bases(self, plane, plane_patch):
        # zero-padded submesh harmonics are not orthogonal to the global
        # ones, so their joint reconstruction double-counts
        A = assemble_mass(plane)
        mh = compute_mh(plane, 10, A=A)
        pmh = compute_pmh(plane, plane_patch, k=10)
        assert basis_cross_orthogonality([mh, pmh], A) > 1e-3
        with pytest.warns(UserWarning, match="orthogonal"):
            reconstruct_surface(plane, [mh, pmh], A=A)

    def test_overlap_warning_points_at_the_caller(self, plane, plane_patch):
        # the serial-BLAS decorator adds a frame between the two
        A = assemble_mass(plane)
        bases = [compute_mh(plane, 10, A=A), compute_pmh(plane, plane_patch, k=10)]
        with pytest.warns(UserWarning, match="orthogonal") as record:
            reconstruct_surface(plane, bases, A=A)
        assert record[0].filename == __file__

    def test_input_validation(self, unit_square, sphere):
        basis = compute_mh(sphere, 4)
        with pytest.raises(ValueError):
            reconstruct_surface(unit_square, basis)
        with pytest.raises(ValueError):
            reconstruct_surface(unit_square, [])


class TestReconstructionError:
    def test_zero_displacement(self, sphere):
        per_vertex, mean = reconstruction_error(sphere, sphere.vertices)
        np.testing.assert_array_equal(per_vertex, 0.0)
        assert mean == 0.0

    def test_single_vertex_offset(self, sphere):
        moved = sphere.vertices.copy()
        moved[7] += np.array([0.0, 1.0, 0.0])
        per_vertex, mean = reconstruction_error(sphere, moved)
        assert per_vertex[7] == 1.0
        assert np.count_nonzero(per_vertex) == 1
        assert abs(mean - 1.0 / sphere.n_vertices) <= 1e-15

    def test_shape_mismatch(self, sphere):
        with pytest.raises(ValueError):
            reconstruction_error(sphere, sphere.vertices[:-1])

