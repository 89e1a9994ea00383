"""Region handling, the localized operator, and the spectral checks."""

import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import subspace_angles
from scipy.spatial.transform import Rotation

from lmh import localized, solvers
from lmh.fem import assemble_mass, assemble_stiffness, mass_diagonal, penalty_weights
from lmh.localized import (
    SOLVERS,
    Region,
    build_lmh_operator,
    compute_lmh,
    compute_mh,
    compute_pmh,
    extract_submesh,
    region_energy_fraction,
    restrict_pencil,
    soft_region_from_seeds,
    verify_spectral_gap,
    verify_upper_bound,
    weyl_slope,
)
from lmh.mesh import MeshError, TriMesh, surface_area
from lmh.solvers import (
    LowRankShiftedSystem,
    NumericalError,
    default_shift,
    hard_constraint_eig,
    smallest_eigenpairs,
)
from lmh.synth import (grid_mesh, icosphere, patch_vertices, single_triangle,
                       tetrahedron)

from oracles import (
    bellman_ford,
    constrained_pencil_eig,
    dense_pencil_eig,
    mesh_edges_with_lengths,
)


def inside(region):
    """Indices of the vertices with full membership (u == 1)."""
    return np.flatnonzero(region.u == 1.0)


@pytest.fixture
def splu_calls(monkeypatch):
    """A list that grows by one entry per sparse LU factorization."""
    calls = []
    splu = solvers.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(solvers, "splu", counting_splu)
    return calls


class TestRegion:
    def test_penalty_weights(self):
        r = Region([0.0, 0.5, 1.0])
        np.testing.assert_allclose(penalty_weights(r, 3), [1.0, 0.25, 0.0])

    def test_binary_flag_and_inside(self):
        r = Region.binary(5, [1, 3])
        assert r.is_binary
        np.testing.assert_array_equal(inside(r), [1, 3])
        assert not Region([0.0, 0.3, 1.0]).is_binary

    def test_binary_from_mask(self):
        mask = np.array([True, False, True])
        np.testing.assert_array_equal(inside(Region.binary(3, mask)), [0, 2])
        with pytest.raises(ValueError):
            Region.binary(4, mask)

    def test_binary_empty_index_list(self):
        r = Region.binary(4, [])
        assert r.is_binary and inside(r).size == 0

    @pytest.mark.parametrize("index", [-1, 5, 7, 1.7, np.nan])
    def test_binary_rejects_bad_index(self, index):
        with pytest.raises(ValueError, match=f"vertex index {index} "):
            Region.binary(5, [0, index])

    def test_full(self):
        r = Region(np.ones(6))
        assert r.is_binary and len(r) == 6 and inside(r).size == 6

    def test_membership_validation(self):
        with pytest.raises(ValueError):
            Region([0.0, 1.5])
        with pytest.raises(ValueError):
            Region([-0.1, 0.5])
        with pytest.raises(ValueError):
            Region([[0.0, 1.0]])
        with pytest.raises(ValueError):
            Region([0.0, np.nan])

    def test_empty_membership_is_named(self):
        # an empty u once failed inside numpy's reduction, as "zero-size
        # array to reduction operation minimum which has no identity"
        with pytest.raises(ValueError, match="membership u is empty"):
            Region(np.zeros(0))

    def test_membership_read_only(self):
        r = Region([0.0, 1.0])
        with pytest.raises(ValueError):
            r.u[0] = 0.5

    def test_callers_array_stays_writable(self):
        # a flat float64 array once became the region's own, frozen
        u = np.zeros(5)
        r = Region(u)
        u[0] = 1.0
        assert r.u[0] == 0.0
        with pytest.raises(ValueError):
            r.u[0] = 0.5

    @pytest.mark.parametrize("bad", [2.0, -0.5, np.nan])
    def test_raw_membership_is_checked_like_a_region(self, unit_square, bad):
        # a raw u outside [0, 1] once became a penalty without a word, and
        # a NaN in it was reported as a bad penalty
        n = unit_square.n_vertices
        u = Region.binary(n, np.arange(40)).u.copy()
        u[3] = bad
        A = assemble_mass(unit_square)
        for call in (
            lambda: compute_lmh(unit_square, u, 3, 2),
            lambda: penalty_weights(u, n),
            lambda: surface_area(unit_square, u),
            lambda: region_energy_fraction(np.ones((n, 1)), A, u),
        ):
            with pytest.raises(ValueError, match="membership u"):
                call()


class TestBuildOperator:
    def test_zero_weights_reduce_to_stiffness(self, unit_square, rng):
        W = assemble_stiffness(unit_square)
        A = assemble_mass(unit_square)
        u = rng.uniform(0.0, 1.0, unit_square.n_vertices)
        system, q_apply = build_lmh_operator(W, A, Region(u), None, 0.0, 0.0)
        np.testing.assert_array_equal(system.sparse_part(0.0).toarray(),
                                      W.toarray())
        # at sigma = 0 that sparse part is singular (Z = W): building the
        # system succeeds, since the LU is computed at the first solve,
        # and that solve asks for a negative shift
        unshifted = LowRankShiftedSystem(W, None, 0.0, A, sigma=0.0)
        with pytest.raises(NumericalError, match="negative shift"):
            unshifted.solve_shifted(np.ones(unit_square.n_vertices))
        x = rng.standard_normal(unit_square.n_vertices)
        np.testing.assert_allclose(q_apply(x), W @ x, atol=1e-14)

    def test_matches_densified_operator(self, rng):
        mesh = grid_mesh(17, 16)  # 306 vertices
        W = assemble_stiffness(mesh)
        A = assemble_mass(mesh)
        a = mass_diagonal(A)
        n = mesh.n_vertices
        region = soft_region_from_seeds(mesh, [0, n // 2], variance=0.02)
        phi = compute_mh(mesh, 10, W=W, A=A).functions
        mu_r, mu_perp = 100.0, 1e5
        _, q_apply = build_lmh_operator(W, A, region, phi, mu_r, mu_perp)
        B = a[:, None] * phi
        v = penalty_weights(region, n)
        Q = W.toarray() + mu_r * np.diag(a * v) + mu_perp * (B @ B.T)
        X = rng.standard_normal((n, 3))
        scale = np.abs(Q @ X).max()
        np.testing.assert_allclose(q_apply(X), Q @ X, atol=1e-10 * scale)

    def test_positive_semidefinite(self, unit_square, rng):
        W = assemble_stiffness(unit_square)
        A = assemble_mass(unit_square)
        region = Region.binary(unit_square.n_vertices, [0, 1, 2])
        phi = compute_mh(unit_square, 5, W=W, A=A).functions
        _, q_apply = build_lmh_operator(W, A, region, phi, 100.0, 1e5)
        for _ in range(20):
            x = rng.standard_normal(unit_square.n_vertices)
            assert x @ q_apply(x) >= -1e-10 * (x @ x)

    def test_rejects_non_orthonormal_phi(self, unit_square):
        W = assemble_stiffness(unit_square)
        A = assemble_mass(unit_square)
        phi = compute_mh(unit_square, 4, W=W, A=A).functions
        with pytest.raises(ValueError, match="orthonormal"):
            build_lmh_operator(W, A, None, 2.0 * phi, 100.0, 1e5)

    def test_rejects_bad_inputs(self, unit_square):
        W = assemble_stiffness(unit_square)
        A = assemble_mass(unit_square)
        with pytest.raises(ValueError):
            build_lmh_operator(W, A, None, None, -1.0, 0.0)
        with pytest.raises(ValueError):
            build_lmh_operator(W, A, None, None, 0.0, -1.0)
        with pytest.raises(ValueError):
            build_lmh_operator(W, A, None, np.ones((7, 2)), 0.0, 0.0)
        with pytest.raises(ValueError):
            build_lmh_operator(
                W, A, np.ones(unit_square.n_vertices - 1), None, 0.0, 0.0
            )


class TestOneSystem:
    """``compute_lmh`` builds one system, at the default shift, for
    every path."""

    @pytest.fixture
    def setup(self, unit_square):
        W, A = assemble_stiffness(unit_square), assemble_mass(unit_square)
        inside = patch_vertices(unit_square, (0.25, 0.75), (0.25, 0.75))
        region = Region.binary(unit_square.n_vertices, inside)
        phi = compute_mh(unit_square, 5, W=W, A=A).functions
        return unit_square, W, A, region, phi

    @pytest.fixture
    def systems(self, monkeypatch):
        """A list that grows by one entry per system built."""
        made = []
        init = solvers.LowRankShiftedSystem.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(solvers.LowRankShiftedSystem, "__init__", recording_init)
        return made

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_one_build_per_call(self, setup, systems, solver):
        mesh, W, A, region, phi = setup
        basis = compute_lmh(mesh, region, 6, 5, phi=phi, solver=solver, W=W, A=A)
        assert len(systems) == 1
        assert systems[0].sigma == default_shift(W, A) == basis.params["sigma"]

    def test_hard_solves_the_unshifted_sparse_part(self, setup):
        mesh, W, A, region, phi = setup
        basis = compute_lmh(mesh, region, 6, 5, mu_r=100.0, mu_perp=1e5,
                            phi=phi, solver="hard", W=W, A=A)
        Z = build_lmh_operator(W, A, region, phi, 100.0, 1e5)[0].sparse_part(0.0)
        lam, Psi = hard_constraint_eig(Z, A, phi, 6)
        np.testing.assert_array_equal(basis.spectrum, lam)
        np.testing.assert_array_equal(basis.functions, Psi)

    def test_sparse_part_at_zero_is_the_unshifted_z(self, setup):
        _, W, A, region, phi = setup
        shifted, _ = build_lmh_operator(W, A, region, phi, 100.0, 1e5)
        unshifted = LowRankShiftedSystem(W, shifted.B, 1e5, A,
                                         penalty=shifted.penalty, sigma=0.0)
        assert shifted.sigma < 0.0 == unshifted.sigma
        Z0, Z = shifted.sparse_part(0.0), unshifted.Z
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(Z0, part), getattr(Z, part))


class TestComputeLmh:
    def test_no_penalties_reduce_to_mh(self, unit_square):
        mh = compute_mh(unit_square, 6)
        lmh = compute_lmh(unit_square, None, k=6, kprime=0, mu_r=0.0, mu_perp=0.0)
        np.testing.assert_allclose(lmh.spectrum, mh.spectrum, atol=1e-8)
        np.testing.assert_allclose(lmh.functions, mh.functions, atol=1e-7)

    def test_zero_mu_r_shifts_into_higher_band(self, unit_square):
        # with no localization term the minimizers outside span(phi) are
        # the next k harmonics themselves
        kprime, k = 3, 3
        mh = compute_mh(unit_square, kprime + k)
        lmh = compute_lmh(unit_square, None, k=k, kprime=kprime, mu_r=0.0)
        ref = np.maximum(np.abs(mh.spectrum[kprime:]), 1e-6)
        assert np.max(np.abs(lmh.spectrum - mh.spectrum[kprime:]) / ref) <= 1e-6
        # harmonics 4..6 span a degeneracy-closed set, so compare spans
        a = mass_diagonal(assemble_mass(unit_square))
        s = np.sqrt(a)[:, None]
        angles = subspace_angles(s * lmh.functions, s * mh.functions[:, kprime:])
        assert np.max(angles) <= 1e-3

    def test_localizes_on_binary_patch(self, plane, plane_patch, plane_ops):
        W, A = plane_ops
        basis = compute_lmh(plane, plane_patch, k=10, kprime=20, W=W, A=A)
        frac = region_energy_fraction(basis, A, plane_patch)
        assert frac.min() >= 0.95

    def test_localization_grows_with_mu_r(self, plane, plane_patch, plane_ops):
        W, A = plane_ops
        phi = compute_mh(plane, 20, W=W, A=A).functions
        fractions = []
        for mu_r in (0.0, 1.0, 10.0, 100.0, 1000.0):
            basis = compute_lmh(
                plane, plane_patch, k=8, kprime=20, mu_r=mu_r, phi=phi, W=W, A=A
            )
            fractions.append(region_energy_fraction(basis, A, plane_patch).mean())
        diffs = np.diff(fractions)
        assert np.all(diffs >= -1e-6), fractions
        assert fractions[-1] > fractions[0] + 0.3

    def test_stays_orthogonal_to_global_band(self, plane, plane_patch, plane_ops):
        W, A = plane_ops
        mh = compute_mh(plane, 21, W=W, A=A)
        phi = mh.functions[:, :20]
        basis = compute_lmh(
            plane, plane_patch, k=10, kprime=20, phi=phi, W=W, A=A
        )
        a = mass_diagonal(A)
        joint = np.hstack([phi, basis.functions])
        gram = joint.T @ (a[:, None] * joint)
        assert np.abs(gram - np.eye(30)).max() <= 1e-4
        assert basis.params["phi_overlap_max"] <= 1e-4

    def test_relaxed_matches_dense_oracle(self, unit_square):
        n = unit_square.n_vertices
        region = Region.binary(
            n, patch_vertices(unit_square, (0.0, 0.5), (0.0, 0.5))
        )
        W = assemble_stiffness(unit_square)
        a = mass_diagonal(assemble_mass(unit_square))
        fast = compute_lmh(unit_square, region, k=5, kprime=4)
        dense = compute_lmh(unit_square, region, k=5, kprime=4, solver="oracle")
        # the projector A P depends only on the span of the first four
        # harmonics, not on the basis chosen for it
        B = a[:, None] * compute_mh(unit_square, 4).functions
        Q = (
            W.toarray()
            + 100.0 * np.diag(a * penalty_weights(region, n))
            + fast.params["mu_perp"] * (B @ B.T)
        )
        lam_ref = dense_pencil_eig(Q, a)[0][:5]
        ref = np.maximum(np.abs(lam_ref), 1e-6)
        for basis in (fast, dense):
            assert np.max(np.abs(basis.spectrum - lam_ref) / ref) <= 1e-6

    @pytest.mark.parametrize("full", [False, True], ids=["none", "full"])
    def test_oracle_without_penalty_matches_hard(self, unit_square, full):
        # v = 0 leaves W, which is singular, as the sparse part; neither
        # dense path may factorize it unshifted. Each is checked against
        # its own dense reference: hard on the complement of phi, oracle
        # on the relaxed pencil
        n = unit_square.n_vertices
        region = Region(np.ones(n)) if full else None
        hard = compute_lmh(unit_square, region, k=5, kprime=3, solver="hard")
        dense = compute_lmh(unit_square, region, k=5, kprime=3, solver="oracle")
        W = assemble_stiffness(unit_square).toarray()
        a = mass_diagonal(assemble_mass(unit_square))
        phi = compute_mh(unit_square, 3).functions
        B = a[:, None] * phi
        lam_hard = constrained_pencil_eig(W, a, phi)[0][:5]
        lam_dense = dense_pencil_eig(W + dense.params["mu_perp"] * (B @ B.T), a)[0][:5]
        np.testing.assert_allclose(hard.spectrum, lam_hard, rtol=0, atol=1e-8)
        np.testing.assert_allclose(dense.spectrum, lam_dense, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("case", ["mu_r", "mu_perp", "region", "phi"])
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_every_path_rejects_the_same_bad_input(self, unit_square, solver, case):
        n = unit_square.n_vertices
        region = Region.binary(n, patch_vertices(unit_square, (0.0, 0.5), (0.0, 0.5)))
        phi = compute_mh(unit_square, 4).functions
        kwargs = {"mu_r": 100.0, "mu_perp": 1e5, "phi": phi}
        match = "penalty weights must be non-negative"
        if case == "mu_r":
            kwargs["mu_r"] = -5.0
        elif case == "mu_perp":
            kwargs["mu_perp"] = -1.0
        elif case == "region":
            region = np.ones(n - 1)
            match = f"{n - 1} values for {n} vertices"
        else:
            kwargs["phi"] = 2.0 * phi
            match = "A-orthonormal"
        with pytest.raises(ValueError, match=match):
            compute_lmh(unit_square, region, k=5, kprime=4, solver=solver, **kwargs)

    def test_hard_rejects_rank_deficient_phi(self):
        # a repeated column makes phi rank 3: not A-orthonormal, and the
        # exact constraint would drop one direction silently
        mesh = grid_mesh(10, 10)
        region = Region.binary(
            mesh.n_vertices, patch_vertices(mesh, (0.0, 0.5), (0.0, 0.5))
        )
        phi = compute_mh(mesh, 3).functions
        phi = np.hstack([phi, phi[:, :1]])
        with pytest.raises(ValueError, match="A-orthonormal"):
            compute_lmh(mesh, region, k=5, kprime=4, phi=phi, solver="hard")

    def test_oracle_functions_own_their_data(self, unit_square):
        # a view of the dense solve's n-by-n eigenvectors would keep all
        # of them alive
        n = unit_square.n_vertices
        region = Region.binary(n, patch_vertices(unit_square, (0.0, 0.5), (0.0, 0.5)))
        basis = compute_lmh(unit_square, region, k=5, kprime=4, solver="oracle")
        assert basis.functions.shape == (n, 5)
        assert basis.functions.flags.owndata
        assert basis.functions.flags.f_contiguous

    def test_oracle_runs_no_sparse_factorization(self, unit_square, splu_calls):
        n = unit_square.n_vertices
        region = Region.binary(n, patch_vertices(unit_square, (0.0, 0.5), (0.0, 0.5)))
        phi = compute_mh(unit_square, 4).functions
        splu_calls.clear()
        for solver in ("oracle", "hard"):
            compute_lmh(unit_square, region, k=5, kprime=4, phi=phi, solver=solver)
        assert len(splu_calls) == 0
        compute_lmh(unit_square, region, k=5, kprime=4, phi=phi)
        assert len(splu_calls) == 1

    @pytest.mark.parametrize("solver, size, match", [
        ("hard", 71, "hard-constraint path is dense and limited to 5000"),
        ("oracle", 45, "oracle path limited to 2000 vertices"),
    ])
    def test_refused_dense_path_runs_no_global_solve(self, solver, size, match,
                                                     splu_calls):
        mesh = grid_mesh(size, size)
        region = Region.binary(
            mesh.n_vertices, patch_vertices(mesh, (0.0, 0.5), (0.0, 0.5))
        )
        with pytest.raises(ValueError, match=match):
            compute_lmh(mesh, region, k=5, kprime=4, solver=solver)
        assert len(splu_calls) == 0

    def test_kprime_zero_runs_no_global_solve(self, plane, plane_patch, splu_calls):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = compute_lmh(plane, plane_patch, k=5, kprime=0, mu_perp=0.0)
        # the localized solve only; no global harmonics for an empty phi
        assert len(splu_calls) == 1
        assert basis.params["phi_overlap_max"] == 0.0

    def test_phi_reuse_matches_internal_computation(self, unit_square):
        region = Region.binary(
            unit_square.n_vertices,
            patch_vertices(unit_square, (0.0, 0.5), (0.0, 0.5)),
        )
        mh = compute_mh(unit_square, 8)
        auto = compute_lmh(unit_square, region, k=4, kprime=8)
        given = compute_lmh(
            unit_square, region, k=4, kprime=8, phi=mh.functions
        )
        np.testing.assert_allclose(given.spectrum, auto.spectrum, rtol=1e-8)

    def test_determinism(self, plane, plane_patch, plane_ops):
        W, A = plane_ops
        b1 = compute_lmh(plane, plane_patch, k=6, kprime=10, seed=3, W=W, A=A)
        b2 = compute_lmh(plane, plane_patch, k=6, kprime=10, seed=3, W=W, A=A)
        np.testing.assert_array_equal(b1.spectrum, b2.spectrum)
        np.testing.assert_array_equal(b1.functions, b2.functions)

    def test_spectrum_invariant_under_rigid_motion(self, plane, plane_patch):
        R = Rotation.from_euler("xyz", [0.3, -1.1, 0.7]).as_matrix()
        moved = TriMesh(plane.vertices @ R.T + np.array([2.0, -5.0, 1.0]),
                        plane.faces)
        # kprime = 11 closes the degenerate cluster at indices 10-11;
        # splitting a pair would make the avoided span itself ambiguous
        b1 = compute_lmh(plane, plane_patch, k=8, kprime=11)
        b2 = compute_lmh(moved, plane_patch, k=8, kprime=11)
        ref = np.maximum(np.abs(b1.spectrum), 1e-6)
        assert np.max(np.abs(b1.spectrum - b2.spectrum) / ref) <= 1e-9

    def test_leak_warning_for_small_mu_perp(self, unit_square):
        region = Region.binary(
            unit_square.n_vertices,
            patch_vertices(unit_square, (0.0, 0.5), (0.0, 0.5)),
        )
        with pytest.warns(UserWarning):
            compute_lmh(unit_square, region, k=3, kprime=5, mu_perp=1.0)

    def test_empty_region_warns(self, unit_square):
        empty = Region(np.zeros(unit_square.n_vertices))
        with pytest.warns(UserWarning, match="empty region"):
            compute_lmh(unit_square, empty, k=3, kprime=2)

    def test_argument_validation(self, unit_square):
        n = unit_square.n_vertices
        with pytest.raises(ValueError):
            compute_lmh(unit_square, None, k=0, kprime=0)
        with pytest.raises(ValueError):
            compute_lmh(unit_square, None, k=n, kprime=0)
        with pytest.raises(ValueError):
            compute_lmh(unit_square, None, k=2, kprime=-1)
        with pytest.raises(ValueError):
            compute_lmh(unit_square, None, k=2, kprime=2, solver="fast")
        with pytest.raises(ValueError):
            compute_lmh(unit_square, None, k=2, kprime=2,
                        phi=np.ones((n, 3)))


class TestComputePmh:
    def test_full_region_equals_global_harmonics(self, unit_square):
        full = Region(np.ones(unit_square.n_vertices))
        pmh = compute_pmh(unit_square, full, k=6)
        mh = compute_mh(unit_square, 6)
        np.testing.assert_allclose(pmh.spectrum, mh.spectrum, atol=1e-8)
        np.testing.assert_allclose(pmh.functions, mh.functions, atol=1e-7)

    def test_zero_outside_and_submesh_orthonormal(self, plane, plane_patch):
        pmh = compute_pmh(plane, plane_patch, k=8)
        outside = np.setdiff1d(
            np.arange(plane.n_vertices), pmh.params["vertex_indices"]
        )
        assert np.abs(pmh.functions[outside]).max() == 0.0
        sub, vidx = extract_submesh(plane, plane_patch)
        a_sub = mass_diagonal(assemble_mass(sub))
        F = pmh.functions[vidx]
        gram = F.T @ (a_sub[:, None] * F)
        assert np.abs(gram - np.eye(8)).max() <= 1e-8

    def test_half_square_neumann_spectrum(self):
        # left half of the unit square is a 0.5 x 1 rectangle with free
        # boundary: eigenvalues pi^2 (4 p^2 + q^2)
        mesh = grid_mesh(40, 40)
        region = Region.binary(
            mesh.n_vertices, patch_vertices(mesh, (0.0, 0.5), (0.0, 1.0))
        )
        pmh = compute_pmh(mesh, region, k=5)
        expected = np.pi**2 * np.array([0.0, 1.0, 4.0, 4.0, 5.0])
        np.testing.assert_allclose(
            pmh.spectrum, expected, rtol=0.02, atol=1e-8
        )

    def test_k_equal_to_the_submesh_size(self):
        mesh = grid_mesh(10, 10)
        region = Region.binary(
            mesh.n_vertices, patch_vertices(mesh, (-0.01, 0.51), (-0.01, 0.41))
        )
        sub, vidx = extract_submesh(mesh, region)
        assert sub.n_vertices == 30
        pmh = compute_pmh(mesh, region, k=30)
        a = mass_diagonal(assemble_mass(sub))
        expect = dense_pencil_eig(assemble_stiffness(sub).toarray(), a)[0]
        scale = np.maximum(np.abs(expect), 1.0 / a.sum())
        assert np.all(np.abs(pmh.spectrum - expect) <= 1e-9 * scale)
        F = pmh.functions[vidx]
        assert np.abs(F.T @ (a[:, None] * F) - np.eye(30)).max() <= 1e-10
        with pytest.raises(ValueError, match=r"k must be in \[1, 30\], got 31"):
            compute_pmh(mesh, region, k=31)

    def test_rejects_bad_regions(self, unit_square):
        with pytest.raises(ValueError):
            compute_pmh(unit_square, Region([0.5] * unit_square.n_vertices), 3)
        lone = Region.binary(unit_square.n_vertices, [0])
        with pytest.raises(MeshError):
            compute_pmh(unit_square, lone, 2)


class TestExtractSubmesh:
    def test_keeps_interior_faces_only(self, unit_square):
        idx = patch_vertices(unit_square, (0.0, 0.5), (0.0, 0.5))
        region = Region.binary(unit_square.n_vertices, idx)
        sub, vidx = extract_submesh(unit_square, region)
        assert np.all(np.isin(vidx, idx))
        np.testing.assert_allclose(
            sub.vertices, unit_square.vertices[vidx]
        )
        # every submesh face existed in the parent with all corners inside
        orig = {tuple(sorted(f)) for f in unit_square.faces[
            (np.isin(unit_square.faces, idx)).all(axis=1)
        ]}
        for f in vidx[sub.faces]:
            assert tuple(sorted(f)) in orig

    def test_empty_region_raises(self, unit_square):
        region = Region.binary(unit_square.n_vertices, [0, 120])
        with pytest.raises(MeshError, match="empty"):
            extract_submesh(unit_square, region)


class TestSoftRegion:
    def test_seed_has_full_membership(self, plane):
        region = soft_region_from_seeds(plane, [7])
        assert region.u[7] == 1.0

    def test_small_variance_approaches_indicator(self, plane):
        region = soft_region_from_seeds(plane, [3, 11], variance=1e-12)
        assert region.is_binary
        np.testing.assert_array_equal(inside(region), [3, 11])

    def test_matches_distance_oracle(self, unit_square):
        seeds, variance = [5, 77], 0.04
        region = soft_region_from_seeds(unit_square, seeds, variance=variance)
        n = unit_square.n_vertices
        edges = mesh_edges_with_lengths(unit_square)
        expected = np.zeros(n)
        for s in seeds:
            d = np.asarray(bellman_ford(n, edges, s))
            expected += np.exp(-(d**2) / (2.0 * variance))
        np.testing.assert_allclose(region.u, np.minimum(1.0, expected),
                                   atol=1e-12)

    def test_argument_validation(self, plane):
        with pytest.raises(ValueError):
            soft_region_from_seeds(plane, [])
        with pytest.raises(ValueError):
            soft_region_from_seeds(plane, [0], variance=0.0)


class TestVerifySpectralGap:
    def test_mu_perp_warning_matches_compute_lmh(self, unit_square):
        region = Region.binary(unit_square.n_vertices, np.arange(40))
        texts = []
        for call in (
            lambda: compute_lmh(unit_square, region, k=3, kprime=5, mu_perp=1.0),
            lambda: verify_spectral_gap(unit_square, region, kprime=5, mu_perp=1.0),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            mine = [w for w in caught if str(w.message).startswith("mu_perp=")]
            assert len(mine) == 1 and mine[0].filename == __file__
            texts.append(str(mine[0].message))
        assert texts[0] == texts[1]
        assert texts[0].endswith("the gap bound assumes it does")

    def test_passes_on_plane_patch(self, plane, plane_patch, plane_ops):
        W, A = plane_ops
        report = verify_spectral_gap(plane, plane_patch, kprime=20, W=W, A=A)
        assert report.passed
        assert report.gap >= report.threshold
        assert report.lam1_Q >= report.lam_kprime_W - 1e-9

    def test_zero_penalty_control_hits_next_eigenvalue(self, plane, plane_ops):
        # v = 0 keeps Q = W + mu_perp A P, whose smallest eigenvalue
        # outside the band is exactly lam_{k'+1}
        W, A = plane_ops
        report = verify_spectral_gap(plane, None, kprime=12, W=W, A=A)
        assert report.passed
        assert abs(report.lam1_Q - report.lam_next_W) <= 1e-6 * abs(
            report.lam_next_W
        )

    def test_agrees_with_dense_oracle(self, unit_square, rng):
        W = assemble_stiffness(unit_square)
        A = assemble_mass(unit_square)
        a = mass_diagonal(A)
        for kprime in (1, 4, 9):
            seeds = rng.choice(unit_square.n_vertices, 2, replace=False)
            region = soft_region_from_seeds(unit_square, seeds, variance=0.03)
            report = verify_spectral_gap(
                unit_square, region, kprime=kprime, W=W, A=A
            )
            assert report.passed
            phi = compute_mh(unit_square, kprime, W=W, A=A).functions
            B = a[:, None] * phi
            Q = (
                W.toarray()
                + report.mu_r * np.diag(a * penalty_weights(region, a.size))
                + report.mu_perp * (B @ B.T)
            )
            lam_o, _ = dense_pencil_eig(Q, a)
            assert abs(report.lam1_Q - lam_o[0]) <= 1e-6 * max(
                1.0, abs(lam_o[0])
            )

    def test_extreme_kprime_on_tetrahedron(self, tetra):
        report = verify_spectral_gap(tetra, None, kprime=3)
        assert report.passed

    def test_kprime_validation(self, unit_square):
        with pytest.raises(ValueError):
            verify_spectral_gap(unit_square, None, kprime=0)


class TestRestrictPencil:
    def test_principal_submatrices(self, unit_square):
        W = assemble_stiffness(unit_square)
        A = assemble_mass(unit_square)
        idx = patch_vertices(unit_square, (0.0, 0.5), (0.0, 1.0))
        region = Region.binary(unit_square.n_vertices, idx)
        W_rr, A_rr, kept = restrict_pencil(W, A, region)
        np.testing.assert_array_equal(kept, np.sort(idx))
        np.testing.assert_allclose(
            W_rr.toarray(), W.toarray()[np.ix_(kept, kept)], atol=0
        )
        np.testing.assert_allclose(
            A_rr.toarray(), A.toarray()[np.ix_(kept, kept)], atol=0
        )

    def test_requires_binary_region(self, unit_square):
        W = assemble_stiffness(unit_square)
        A = assemble_mass(unit_square)
        with pytest.raises(ValueError):
            restrict_pencil(W, A, Region([0.5] * unit_square.n_vertices))
        with pytest.raises(ValueError):
            restrict_pencil(
                W, A, Region(np.zeros(unit_square.n_vertices))
            )


class TestVerifyUpperBound:
    def test_passes_on_left_half_rectangle(self):
        mesh = grid_mesh(15, 8, width=2.0, height=1.0)
        region = Region.binary(
            mesh.n_vertices, patch_vertices(mesh, (0.0, 1.0), (0.0, 1.0))
        )
        # mu_r this large trades a little orthogonality for localization,
        # so the leak warning is part of the expected behavior
        with pytest.warns(UserWarning, match="leaks"):
            report = verify_upper_bound(mesh, region, kprime=5, k=10, mu_r=1e4)
        assert report.passed
        assert np.all(report.margins >= 0.0)

    @pytest.mark.filterwarnings("ignore:localized basis leaks")
    def test_spectra_cross_checked_against_dense_oracles(self):
        mesh = grid_mesh(15, 8, width=2.0, height=1.0)
        W = assemble_stiffness(mesh)
        A = assemble_mass(mesh)
        a = mass_diagonal(A)
        region = Region.binary(
            mesh.n_vertices, patch_vertices(mesh, (0.0, 1.0), (0.0, 1.0))
        )
        kprime, k, mu_r = 5, 10, 1e4
        report = verify_upper_bound(mesh, region, kprime=kprime, k=k, mu_r=mu_r)
        # localized side
        phi = compute_mh(mesh, kprime, W=W, A=A).functions
        B = a[:, None] * phi
        Q = (
            W.toarray()
            + mu_r * np.diag(a * penalty_weights(region, a.size))
            + report.mu_perp * (B @ B.T)
        )
        lam_o, _ = dense_pencil_eig(Q, a)
        np.testing.assert_allclose(
            report.lmh_spectrum, lam_o[:k], rtol=1e-6, atol=1e-6
        )
        # restricted side
        W_rr, A_rr, _ = restrict_pencil(W, A, region)
        lam_r, _ = dense_pencil_eig(W_rr.toarray(), mass_diagonal(A_rr))
        np.testing.assert_allclose(
            report.submesh_spectrum, lam_r[: k + kprime], rtol=1e-6, atol=1e-6
        )

    def test_no_projector_case(self, plane, plane_patch):
        report = verify_upper_bound(plane, plane_patch, kprime=0, k=8, mu_r=1e4)
        assert report.passed

    def test_full_region_recovers_global_spectrum(self, unit_square):
        full = Region(np.ones(unit_square.n_vertices))
        report = verify_upper_bound(unit_square, full, kprime=0, k=6, mu_r=1e4)
        assert report.passed
        ref = np.maximum(np.abs(report.lmh_spectrum), 1e-6)
        diff = np.abs(report.lmh_spectrum - report.submesh_spectrum[:6]) / ref
        assert np.max(diff) <= 1e-6

    def test_region_too_small_raises(self, unit_square):
        region = Region.binary(unit_square.n_vertices, [0, 1, 11, 12])
        with pytest.raises(ValueError, match="vertices"):
            verify_upper_bound(unit_square, region, kprime=5, k=10)

    def test_reuses_prebuilt_operators(self, plane, plane_patch, plane_ops,
                                       monkeypatch):
        W, A = plane_ops
        expect = verify_upper_bound(plane, plane_patch, kprime=0, k=8, mu_r=1e4)

        def no_assembly(mesh):
            raise AssertionError("operators were assembled again")

        monkeypatch.setattr(localized, "assemble_stiffness", no_assembly)
        monkeypatch.setattr(localized, "assemble_mass", no_assembly)
        report = verify_upper_bound(plane, plane_patch, kprime=0, k=8,
                                    mu_r=1e4, W=W, A=A)
        assert report.lmh_spectrum.tobytes() == expect.lmh_spectrum.tobytes()
        assert report.submesh_spectrum.tobytes() == expect.submesh_spectrum.tobytes()


class TestWeylSlope:
    def test_exact_line(self):
        spectrum = 3.0 * np.arange(1, 21, dtype=np.float64)
        fit = weyl_slope(spectrum, region_area=4.0)
        assert abs(fit.slope - 3.0) <= 1e-12
        assert fit.r_squared >= 1.0 - 1e-12
        assert abs(fit.normalized_slope - 6.0) <= 1e-12

    def test_requires_ten_eigenvalues(self):
        with pytest.raises(ValueError):
            weyl_slope(np.arange(9.0), region_area=1.0)

    def test_smaller_region_steeper_slope(self):
        # asymptotic density ~ area / (4 pi), so halving the side length
        # roughly quadruples the slope; needs a mesh fine enough that
        # the fitted eigenvalues sit below the discrete band edge
        fine = grid_mesh(48, 48, width=10.0, height=10.0)
        fits = []
        for lim in ((2.5, 7.5), (3.75, 6.25)):
            idx = patch_vertices(fine, lim, lim)
            region = Region.binary(fine.n_vertices, idx)
            pmh = compute_pmh(fine, region, k=36)
            side = lim[1] - lim[0]
            fits.append(weyl_slope(pmh, region_area=side * side))
        large, small = fits
        assert small.slope > 2.0 * large.slope
        assert min(f.r_squared for f in fits) >= 0.95

    def test_localized_spectrum_is_asymptotically_linear(
        self, plane, plane_patch, plane_ops
    ):
        W, A = plane_ops
        basis = compute_lmh(plane, plane_patch, k=30, kprime=20, W=W, A=A)
        fit = weyl_slope(basis, region_area=25.0)
        assert fit.r_squared >= 0.95
        assert fit.slope > 0.0


class TestRegionEnergyFraction:
    def test_indicator_function(self, plane, plane_patch, plane_ops):
        _, A = plane_ops
        f = np.zeros((plane.n_vertices, 1))
        f[inside(plane_patch), 0] = 1.0
        np.testing.assert_allclose(
            region_energy_fraction(f, A, plane_patch), [1.0], atol=1e-14
        )

    def test_constant_function_matches_area_ratio(self, plane, plane_patch,
                                                  plane_ops):
        _, A = plane_ops
        a = mass_diagonal(A)
        f = np.ones((plane.n_vertices, 1))
        frac = region_energy_fraction(f, A, plane_patch)[0]
        expected = a[inside(plane_patch)].sum() / a.sum()
        assert abs(frac - expected) <= 1e-12


class TestDisconnectedMesh:
    @pytest.fixture(scope="class")
    def two_grids(self):
        """Two disjoint copies of a 21x21-vertex grid, side by side."""
        one, two = grid_mesh(20, 20), grid_mesh(20, 20, origin=(3.0, 0.0))
        mesh = TriMesh(
            np.vstack([one.vertices, two.vertices]),
            np.vstack([one.faces, two.faces + one.n_vertices]),
        )
        W, A = assemble_stiffness(mesh), assemble_mass(mesh)
        expect = dense_pencil_eig(W.toarray(), mass_diagonal(A))[0][:3]
        return mesh, expect

    def test_two_zero_eigenvalues_with_a_larger_shift(self, two_grids):
        mesh, expect = two_grids
        W, A = assemble_stiffness(mesh), assemble_mass(mesh)
        system = LowRankShiftedSystem(W, None, 0.0, A, sigma=-1e-2)
        lam = smallest_eigenpairs(system, 3)[0]
        np.testing.assert_allclose(lam, expect, rtol=1e-8, atol=1e-10)
        assert abs(lam[1]) <= 1e-10 and lam[2] > 9.0

    def test_two_zero_eigenvalues_with_the_default_shift(self, two_grids):
        # the default shift, in eigenvalue units, puts both zero
        # eigenvalues near 560 after inversion, against 0.1 for the third
        mesh, expect = two_grids
        lam = compute_mh(mesh, 3).spectrum
        np.testing.assert_allclose(lam, expect, rtol=1e-8, atol=1e-10)


def side_by_side(mesh):
    """Two disjoint copies of the mesh, the second moved 3 along x."""
    return TriMesh(
        np.vstack([mesh.vertices, mesh.vertices + [3.0, 0.0, 0.0]]),
        np.vstack([mesh.faces, mesh.faces + mesh.n_vertices]),
    )


class TestEveryKUpToN:
    """``compute_mh`` runs Lanczos for every k up to n: past n - 2 its
    basis is the whole space, and one pass converges every pair."""

    MESHES = {
        "tetrahedron": tetrahedron,
        "triangle": single_triangle,
        "two_triangles": lambda: side_by_side(single_triangle()),
        "two_grids": lambda: side_by_side(grid_mesh(3, 3)),
        "icosphere": lambda: icosphere(0),
        "grid": lambda: grid_mesh(10, 10),
    }

    @pytest.mark.parametrize("below_n", [2, 1, 0])
    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_matches_the_dense_pencil(self, name, below_n):
        mesh = self.MESHES[name]()
        W, A = assemble_stiffness(mesh), assemble_mass(mesh)
        a = mass_diagonal(A)
        k = a.size - below_n
        expect = dense_pencil_eig(W.toarray(), a)[0][:k]
        # a zero eigenvalue is compared in eigenvalue units, 1 / sum(a)
        scale = np.maximum(np.abs(expect), 1.0 / a.sum())
        for seed in range(3):
            basis = compute_mh(mesh, k, seed=seed, W=W, A=A)
            assert np.all(np.abs(basis.spectrum - expect) <= 1e-9 * scale)
            F = basis.functions
            assert np.abs(F.T @ (a[:, None] * F) - np.eye(k)).max() <= 1e-10

    def test_k_outside_1_to_n_is_refused(self, tetra):
        for k in (0, 5):
            with pytest.raises(ValueError, match=rf"k must be in \[1, 4\], got {k}"):
                compute_mh(tetra, k)


class TestDegenerateRitzPairs:
    def test_grid_seed_32_passes_the_residual_check(self):
        # seed 32 on this grid once left a degenerate pair at a 9.7e-8
        # residual against its 7.5e-10 bound
        mesh = grid_mesh(140, 140, width=10.0, height=10.0)
        basis = compute_mh(mesh, 21, seed=32)
        assert basis.spectrum.shape == (21,)


def scaled(mesh, L):
    """The mesh with every coordinate multiplied by L."""
    return TriMesh(mesh.vertices * L, mesh.faces)


def oracle_spectrum(mesh):
    """All eigenvalues of the mesh's pencil (W, A), from the dense oracle."""
    W, A = assemble_stiffness(mesh), assemble_mass(mesh)
    return dense_pencil_eig(W.toarray(), mass_diagonal(A))[0]


class TestShiftInEigenvalueUnits:
    """The default shift and the residual floor scale like the eigenvalues.

    Scaling a mesh by L divides its spectrum by L^2. A zero eigenvalue is
    compared on the scale of the first nonzero one.
    """

    @pytest.mark.parametrize("L", [0.1, 0.01, 0.001])
    def test_scaled_icosphere_returns_oracle_eigenvalues(self, L):
        # a set check, not an equality check: single-vector Lanczos can
        # miss a copy of an exactly repeated eigenvalue, the defect that
        # test_every_copy_of_a_fourfold_eigenvalue pins on its own
        mesh = scaled(icosphere(3), L)
        lam = compute_mh(mesh, 21).spectrum
        expect = oracle_spectrum(mesh)
        nearest = np.abs(lam[:, None] - expect[None, :]).min(axis=1)
        assert np.all(nearest <= 1e-8 * np.maximum(np.abs(lam), expect[1]))

    @pytest.fixture(scope="class")
    def jittered(self):
        """icosphere(3) with seeded radial jitter: no exact multiplicities."""
        mesh = icosphere(3)
        radii = 1.0 + 0.02 * np.random.default_rng(0).uniform(-1.0, 1.0,
                                                             mesh.n_vertices)
        return TriMesh(mesh.vertices * radii[:, None], mesh.faces)

    @pytest.mark.parametrize("L", [0.001, 1.0, 1e3])
    def test_jittered_icosphere_matches_the_oracle(self, jittered, L):
        mesh = scaled(jittered, L)
        lam = compute_mh(mesh, 21).spectrum
        expect = oracle_spectrum(mesh)[:21]
        np.testing.assert_allclose(lam, expect, rtol=1e-8, atol=1e-8 * expect[1])

    def test_spectrum_scales_by_one_over_l_squared(self, jittered):
        unit = compute_mh(jittered, 21).spectrum
        for L in (0.001, 1e3):
            lam = compute_mh(scaled(jittered, L), 21).spectrum
            np.testing.assert_allclose(lam * L**2, unit, rtol=1e-8,
                                       atol=1e-8 * unit[1])

    @pytest.mark.parametrize("L", [1e-3, 1.0, 1e3])
    def test_residual_check_has_the_same_verdict_at_every_scale(self, L):
        # eigenvalues off by 1e-6 relative fail the 1e-8 check; with a
        # floor of 1 instead of one over the area they passed at L = 1e3
        mesh = scaled(icosphere(3), L)
        W, A = assemble_stiffness(mesh), assemble_mass(mesh)
        system, _ = build_lmh_operator(W, A, None, None, 0.0, 0.0)
        lam, Psi = smallest_eigenpairs(system, 4)
        assert solvers._residual_failure(system, lam, Psi) is None
        for i in range(1, 4):
            off = lam.copy()
            off[i] *= 1.0 + 1e-6
            assert solvers._residual_failure(system, off, Psi) is not None

    @pytest.mark.parametrize("L", [10.0, 100.0])
    def test_relaxed_lmh_on_a_large_plane_matches_the_oracle(self, L):
        # the default mu_perp = 1e5 sits 4e6 and 4e8 times above the
        # smallest eigenvalue: the residual check must allow the
        # roundoff of the shifted solves, or it rejects these pairs
        mesh = scaled(grid_mesh(24, 24, width=10.0, height=10.0), L)
        W, A = assemble_stiffness(mesh), assemble_mass(mesh)
        a = mass_diagonal(A)
        region = Region.binary(mesh.n_vertices, np.flatnonzero(
            (mesh.vertices[:, 0] < 5 * L) & (mesh.vertices[:, 1] < 5 * L)))
        phi = compute_mh(mesh, 6, W=W, A=A).functions
        basis = compute_lmh(mesh, region, 11, 6, phi=phi, W=W, A=A)
        B = a[:, None] * phi
        v = penalty_weights(region, mesh.n_vertices)
        Q = (W.toarray() + basis.params["mu_r"] * np.diag(a * v)
             + basis.params["mu_perp"] * (B @ B.T))
        expect = dense_pencil_eig(Q, a)[0][:11]
        np.testing.assert_allclose(basis.spectrum, expect, rtol=1e-7)

    def test_verification_floors_scale_like_the_eigenvalues(self, plane,
                                                           plane_patch):
        # the floors were 1e-9 max(1, max|rhs|) and 1e-12 max(1, lam_next):
        # on the plane scaled by 1e3 the bound's was 310 times its
        # relative slack, and the gap's 2.5 times its relative threshold
        slack, threshold = {}, {}
        for L in (1.0, 1e3):
            mesh = scaled(plane, L)
            bound = verify_upper_bound(mesh, plane_patch, 6, 11, tolerance=1e-6)
            rhs = bound.submesh_spectrum[6:17]
            slack[L] = (bound.margins - rhs + bound.lmh_spectrum) * L**2
            gap = verify_spectral_gap(mesh, plane_patch, 5)
            threshold[L] = gap.threshold * L**2
            assert bound.passed and gap.passed
        np.testing.assert_allclose(slack[1e3], slack[1.0], rtol=1e-6)
        assert threshold[1e3] == pytest.approx(threshold[1.0], rel=1e-6)

    def test_icosphere_seed_142_matches_the_oracle(self):
        # its 4-fold cluster at 17.948 once missed the residual check
        mesh = icosphere(2)
        lam = compute_mh(mesh, 21, seed=142).spectrum
        expect = oracle_spectrum(mesh)[:21]
        np.testing.assert_allclose(lam, expect, rtol=1e-8, atol=1e-8 * expect[1])
