"""The checked sparse LU, low-rank shifted solves, and the three
eigensolver paths."""

import ast
import os
import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import subspace_angles
from scipy.sparse.linalg import splu

from lmh import cli, fmap, localized, solvers
from lmh import io as lmhio
from lmh.fem import (
    assemble_mass,
    assemble_stiffness,
    mass_diagonal,
    penalty_weights,
)
from lmh.fmap import recover_p2p
from lmh.localized import (
    SOLVERS,
    Region,
    SpectralBasis,
    build_lmh_operator,
    compute_lmh,
    compute_mh,
)
from lmh.solvers import (
    DENSE_ORACLE_MAX_N,
    HARD_PATH_MAX_N,
    LowRankShiftedSystem,
    NumericalError,
    default_shift,
    dense_oracle_eig,
    factorize,
    hard_constraint_eig,
    smallest_eigenpairs,
    woodbury_solve,
)
from lmh.mesh import TriMesh, write_off
from lmh.synth import bump_sphere, grid_mesh, icosphere, patch_vertices


from oracles import constrained_pencil_eig, dense_pencil_eig
from test_bench_patches import load_spans


def penalized(W, A, region, mu_r=100.0):
    """``W + mu_r A diag(v)``, the sparse part of an unshifted system."""
    return build_lmh_operator(W, A, region, None, mu_r, 0.0)[0].sparse_part(0.0)


def random_spd_sparse(n, rng, density=0.05):
    """Strictly diagonally dominant symmetric matrix, hence SPD."""
    G = sparse.random_array((n, n), density=density, rng=rng)
    S = (G + G.T) * 0.5
    d = np.abs(S).sum(axis=1) + 1.0
    return (S + sparse.diags_array(d)).tocsr()


class TestFactorize:
    def test_identity(self):
        fact = factorize(sparse.eye_array(5, format="csr"))
        rhs = np.arange(5.0)
        np.testing.assert_allclose(fact.solve(rhs), rhs, atol=1e-14)

    def test_diagonal(self):
        fact = factorize(sparse.diags_array([2.0, 4.0]).tocsr())
        np.testing.assert_allclose(fact.solve(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_random_spd_residual(self, rng):
        Z = random_spd_sparse(100, rng)
        fact = factorize(Z)
        for _ in range(5):
            r = rng.normal(size=100)
            x = fact.solve(r)
            assert np.linalg.norm(Z @ x - r) <= 1e-12 * np.linalg.norm(r)

    def test_singular_stiffness_instructs_shift(self, unit_square):
        W = assemble_stiffness(unit_square)  # constant null space
        with pytest.raises(NumericalError, match="shift"):
            factorize(W)

    def test_shifted_stiffness_factorizes(self, unit_square):
        W = assemble_stiffness(unit_square)
        A = assemble_mass(unit_square)
        sigma = default_shift(W, A)
        Z = (W - sigma * A).tocsr()
        r = np.ones(W.shape[0])
        x = LowRankShiftedSystem(Z, None, 0.0, A).solve_shifted(r)
        z_norm = abs(Z).sum(axis=0).max()
        backward = np.linalg.norm(Z @ x - r) / (
            z_norm * np.linalg.norm(x) + np.linalg.norm(r)
        )
        assert backward <= 1e-12

    def test_nonpositive_diagonal_instructs_mass_shift(self, unit_square):
        # a shift far above the spectrum turns the diagonal negative
        W = assemble_stiffness(unit_square)
        A = assemble_mass(unit_square)
        with pytest.raises(ValueError, match="small multiple of the mass first"):
            factorize((W - 1e6 * A).tocsr())

    def test_asymmetric_rejected(self):
        Z = sparse.csr_array(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            factorize(Z)


def two_grids():
    """Two disjoint copies of a 21x21-vertex grid, side by side."""
    one, two = grid_mesh(20, 20), grid_mesh(20, 20, origin=(3.0, 0.0))
    return TriMesh(
        np.vstack([one.vertices, two.vertices]),
        np.vstack([one.faces, two.faces + one.n_vertices]),
    )


def shifted_stiffness(mesh):
    """``W - sigma A`` at the default shift: SPD, also on closed meshes."""
    W, A = assemble_stiffness(mesh), assemble_mass(mesh)
    return (W - default_shift(W, A) * A).tocsr()


ORDERING_MESHES = {
    "grid": lambda: grid_mesh(40, 40),
    "icosphere4": lambda: icosphere(4),
    "bump_sphere": lambda: bump_sphere(subdivisions=4),
    "two_grids": two_grids,
}


@pytest.fixture
def superlu_objects(monkeypatch):
    """The SuperLU objects ``factorize`` creates, in order."""
    made = []
    real_splu = solvers.splu

    def capturing_splu(*args, **kwargs):
        made.append(real_splu(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(solvers, "splu", capturing_splu)
    return made


class TestSymmetricOrdering:
    @pytest.mark.parametrize("name", sorted(ORDERING_MESHES))
    def test_fill_below_default_ordering(self, name):
        # minimum degree without the RCM pre-order fills up to 10x more
        # than SuperLU's default COLAMD on closed meshes
        Z = shifted_stiffness(ORDERING_MESHES[name]())
        assert factorize(Z).nnz < splu(Z.tocsc()).nnz

    @pytest.mark.parametrize("name", sorted(ORDERING_MESHES))
    def test_no_row_is_swapped(self, name, superlu_objects):
        factorize(shifted_stiffness(ORDERING_MESHES[name]()))
        (lu,) = superlu_objects
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)

    @pytest.mark.parametrize("name", ["icosphere4", "two_grids"])
    def test_backward_error_vector_and_block(self, name, rng):
        Z = shifted_stiffness(ORDERING_MESHES[name]())
        n = Z.shape[0]
        fact = factorize(Z)
        z_norm = abs(Z).sum(axis=0).max()
        for rhs in (rng.normal(size=n), rng.normal(size=(n, 7))):
            x = fact.solve(rhs)
            assert x.shape == rhs.shape
            backward = np.linalg.norm(Z @ x - rhs, axis=0) / (
                z_norm * np.linalg.norm(x, axis=0) + np.linalg.norm(rhs, axis=0)
            )
            assert backward.max() <= 1e-12


class TestWoodbury:
    def test_rank_zero_equals_plain_solve(self, rng):
        n = 40
        Z = random_spd_sparse(n, rng)
        a = rng.uniform(0.5, 2.0, n)
        A = sparse.diags_array(a).tocsr()
        plain = factorize(Z)
        sys0 = LowRankShiftedSystem(Z, None, 0.0, A)
        b = rng.normal(size=n)
        np.testing.assert_allclose(
            woodbury_solve(sys0, b), plain.solve(a * b), rtol=1e-12, atol=1e-14
        )

    def test_mu_perp_zero_equals_plain_solve(self, rng):
        n = 40
        Z = random_spd_sparse(n, rng)
        a = rng.uniform(0.5, 2.0, n)
        A = sparse.diags_array(a).tocsr()
        B = rng.normal(size=(n, 4))
        sys0 = LowRankShiftedSystem(Z, B, 0.0, A)
        b = rng.normal(size=n)
        np.testing.assert_allclose(
            woodbury_solve(sys0, b), factorize(Z).solve(a * b), rtol=1e-12,
            atol=1e-14,
        )

    def test_matches_dense_solve(self, rng):
        n, kp = 50, 5
        Z = random_spd_sparse(n, rng)
        B = rng.normal(size=(n, kp))
        mu = 1e5
        a = rng.uniform(0.5, 2.0, n)
        A = sparse.diags_array(a).tocsr()
        system = LowRankShiftedSystem(Z, B, mu, A)
        dense = Z.toarray() + mu * (B @ B.T)
        for _ in range(3):
            b = rng.normal(size=n)
            x = woodbury_solve(system, b)
            expect = np.linalg.solve(dense, a * b)
            scale = np.linalg.norm(expect)
            assert np.linalg.norm(x - expect) <= 1e-8 * scale

    def test_apply_then_solve_roundtrip(self, rng):
        n, kp = 60, 6
        Z = random_spd_sparse(n, rng)
        B = rng.normal(size=(n, kp))
        A = sparse.eye_array(n, format="csr")
        system = LowRankShiftedSystem(Z, B, 1e3, A)
        x = rng.normal(size=n)
        back = system.solve_shifted(system.apply(x))
        assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)

    def test_no_dense_intermediate(self, rng):
        # the represented operator is n x n; the stored pieces must not be
        n = 300
        Z = random_spd_sparse(n, rng)
        B = rng.normal(size=(n, 3))
        system = LowRankShiftedSystem(Z, B, 1e5, sparse.eye_array(n, format="csr"))
        system.solve_shifted(rng.normal(size=n))
        dense_attrs = [
            val.shape
            for val in vars(system).values()
            if isinstance(val, np.ndarray) and val.ndim == 2
        ]
        assert all(min(s) <= 3 for s in dense_attrs), dense_attrs

    def test_keeps_only_b_and_the_correction_block(self, rng):
        # Z^-1 mu_perp B is needed only to form the correction block
        n, kp = 200, 4
        Z = random_spd_sparse(n, rng)
        B = rng.normal(size=(n, kp))
        system = LowRankShiftedSystem(Z, B, 1e5, sparse.eye_array(n, format="csr"))
        system.solve_shifted(rng.normal(size=n))
        blocks = sorted(
            name for name, val in vars(system).items()
            if isinstance(val, np.ndarray) and val.shape == (n, kp)
        )
        assert blocks == ["B", "_correction"]


class TestShiftedSolveProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        rank=st.integers(0, 4),
        mu_perp=st.one_of(st.just(0.0), st.floats(1e-3, 1e6)),
        shift=st.floats(1e-3, 1.0),
        columns=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_solve(self, unit_square, rank, mu_perp, shift,
                                 columns, seed):
        # rank 0 or mu_perp = 0 is one bare LU solve; otherwise the
        # Woodbury step is refined on the full system
        rng = np.random.default_rng(seed)
        W, A = assemble_stiffness(unit_square), assemble_mass(unit_square)
        a = mass_diagonal(A)
        n = a.size
        Z = W + shift * A
        B = a[:, None] * rng.normal(size=(n, rank))  # mass times a subspace
        system = LowRankShiftedSystem(Z, B, mu_perp, A)
        rhs = rng.normal(size=n if columns is None else (n, columns))
        x = system.solve_shifted(rhs)
        expect = np.linalg.solve(Z.toarray() + mu_perp * (B @ B.T), rhs)
        assert x.shape == rhs.shape
        assert np.linalg.norm(x - expect) <= 1e-8 * np.linalg.norm(expect)

    @given(u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    def test_penalty_weights_of_region_and_raw_membership(self, u):
        n = len(u)
        v = penalty_weights(Region(u), n)
        np.testing.assert_array_equal(v, penalty_weights(np.array(u), n))
        np.testing.assert_array_equal(v, (1.0 - np.array(u)) ** 2)
        np.testing.assert_array_equal(
            penalty_weights(None, n), penalty_weights(Region(np.ones(n)), n)
        )

    @given(
        length=st.integers(1, 242).filter(lambda m: m != 121),
        as_region=st.booleans(),
        route=st.sampled_from(["hard", "relaxed"]),
    )
    def test_wrong_length_region_is_named(self, unit_square, length, as_region,
                                          route):
        W, A = assemble_stiffness(unit_square), assemble_mass(unit_square)
        u = np.full(length, 0.5)
        region = Region(u) if as_region else u
        with pytest.raises(ValueError, match=f"{length} values for 121 vertices"):
            if route == "hard":
                compute_lmh(unit_square, region, 1, 0, W=W, A=A, solver="hard")
            else:
                build_lmh_operator(W, A, region, None, 100.0, 0.0)


class TestOneLuSolvePerStep:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Vector and block LU solves, shifted solves and ``apply`` calls."""
        counts = dict.fromkeys(["lu", "block", "inner", "apply"], 0)

        class CountingLU:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, rhs):
                counts["lu" if rhs.ndim == 1 else "block"] += 1
                return self._lu.solve(rhs)

            def __getattr__(self, name):
                return getattr(self._lu, name)

        real_splu = solvers.splu
        real_solve_shifted = LowRankShiftedSystem.solve_shifted
        real_apply = LowRankShiftedSystem.apply

        def counting_solve_shifted(self, rhs):
            counts["inner"] += 1
            return real_solve_shifted(self, rhs)

        def counting_apply(self, x):
            counts["apply"] += 1
            return real_apply(self, x)

        monkeypatch.setattr(
            solvers, "splu", lambda Z, **kwargs: CountingLU(real_splu(Z, **kwargs))
        )
        monkeypatch.setattr(LowRankShiftedSystem, "solve_shifted",
                            counting_solve_shifted)
        monkeypatch.setattr(LowRankShiftedSystem, "apply", counting_apply)
        return counts

    def test_rank_zero_inner_solves_are_one_bare_lu_solve(self, counts):
        # a pivot-free LU of an SPD Z is backward stable, so a solve
        # without a low-rank term forms no residual to refine against
        compute_mh(grid_mesh(30, 30, width=10.0, height=10.0), 11)
        assert counts["inner"] > 0
        assert counts["lu"] == counts["inner"], counts
        assert counts["block"] == counts["apply"] == 0, counts

    def test_relaxed_inner_solves_take_one_lu_solve(self, counts):
        # one Woodbury step on a bare LU solve already has a roundoff-level
        # backward error, so the refinement loop adds no second step; the
        # correction block is one block LU solve, unrefined
        mesh = grid_mesh(30, 30, width=10.0, height=10.0)
        xy = mesh.vertices[:, :2]
        inside = np.flatnonzero(np.all((xy >= 2.5) & (xy <= 7.5), axis=1))
        phi = compute_mh(mesh, 11).functions[:, :10]
        counts.update(dict.fromkeys(counts, 0))
        compute_lmh(mesh, Region.binary(mesh.n_vertices, inside), 20, 10,
                    mu_r=100.0, mu_perp=1e5, phi=phi)
        assert counts["inner"] > 0
        assert counts["lu"] <= 1.05 * counts["inner"], counts
        assert counts["block"] == 1, counts

    def test_low_rank_step_is_refined_to_the_floor(self, plane, plane_ops,
                                                   plane_patch):
        # at mu_r = 0, criterion 07's weakest localization, the Woodbury
        # correction cancels: on these right-hand sides the bare step
        # misses the backward-error floor by 8,000-25,000 ulps, and the
        # refined solve stays below one
        W, A = plane_ops
        phi = compute_mh(plane, 20, W=W, A=A).functions
        system, _ = build_lmh_operator(W, A, plane_patch, phi, 0.0, 1e5)
        eps = np.finfo(np.float64).eps

        def ulps(x, b):
            r = np.linalg.norm(b - system.apply(x))
            scale = system.norm_bound * np.linalg.norm(x) + np.linalg.norm(b)
            return r / (eps * scale)

        for b in np.random.default_rng(0).normal(size=(5, plane.n_vertices)):
            assert ulps(system._woodbury_step(b), b) > solvers._BACKWARD_ERROR_ULPS
            assert ulps(system.solve_shifted(b), b) <= solvers._BACKWARD_ERROR_ULPS

    def test_low_rank_factor_is_column_major(self, unit_square):
        # B^T x as one dot product per column keeps the Woodbury step at
        # the refinement floor; a phi read from a text file is row-major
        W, A = assemble_stiffness(unit_square), assemble_mass(unit_square)
        phi = np.ascontiguousarray(compute_mh(unit_square, 4, W=W, A=A).functions)
        system, _ = build_lmh_operator(W, A, None, phi, 0.0, 1e5)
        assert system.B.flags.f_contiguous


class TestSmallestEigenpairs:
    def test_closed_mesh_null_mode(self, sphere):
        basis = compute_mh(sphere, 4)
        assert abs(basis.spectrum[0]) <= 1e-8
        from lmh.mesh import surface_area

        const = 1.0 / np.sqrt(surface_area(sphere))
        np.testing.assert_allclose(np.abs(basis.functions[:, 0]), const, rtol=1e-6)

    def test_grid_neumann_lambda2(self):
        basis = compute_mh(grid_mesh(40, 40), 2)
        assert basis.spectrum[1] == pytest.approx(np.pi**2, rel=0.02)

    def test_random_pencil_matches_dense_oracle(self, rng):
        n, k = 80, 10
        M = rng.normal(size=(n, n))
        Q = M @ M.T + n * np.eye(n)
        a = rng.uniform(0.5, 2.0, n)
        A = sparse.diags_array(a).tocsr()
        sigma = -1e-8 * np.mean(np.diag(Q))
        system = LowRankShiftedSystem(sparse.csr_array(Q), None, 0.0, A, sigma=sigma)
        lam, Psi = smallest_eigenpairs(system, k)
        lam_o, U_o = dense_pencil_eig(Q, a)
        np.testing.assert_allclose(lam, lam_o[:k], rtol=1e-6)
        gaps = np.diff(lam_o[: k + 1])
        for i in range(k):
            simple = (i == 0 or gaps[i - 1] > 1e-6) and gaps[i] > 1e-6
            if simple:
                ang = subspace_angles(Psi[:, i : i + 1], U_o[:, i : i + 1])
                assert ang.max() <= 1e-5

    def test_a_orthonormal(self, sphere):
        basis = compute_mh(sphere, 6)
        a = mass_diagonal(assemble_mass(sphere))
        gram = basis.functions.T @ (a[:, None] * basis.functions)
        assert np.abs(gram - np.eye(6)).max() <= 1e-8

    def test_ordering(self, corpus):
        for name, mesh in corpus:
            lam = compute_mh(mesh, min(8, mesh.n_vertices)).spectrum
            assert np.all(np.diff(lam) >= -1e-12), name

    def test_shift_invariance(self, unit_square):
        W = assemble_stiffness(unit_square)
        A = assemble_mass(unit_square)
        lam1 = compute_mh(unit_square, 5, W=W, A=A).spectrum
        system = LowRankShiftedSystem(W, None, 0.0, A, sigma=-2e-7)
        lam2 = smallest_eigenpairs(system, 5)[0]
        # relative agreement for the nonzero modes, absolute near zero
        ref = np.maximum(np.abs(lam1), 1e-6)
        assert np.max(np.abs(lam1 - lam2) / ref) <= 1e-7

    def test_determinism(self, sphere):
        lam1 = compute_mh(sphere, 8, seed=11).spectrum
        lam2 = compute_mh(sphere, 8, seed=11).spectrum
        np.testing.assert_allclose(lam1, lam2, rtol=0, atol=1e-12)

    def test_k_above_n_rejected(self, tetra):
        with pytest.raises(ValueError):
            compute_mh(tetra, 5)

    def test_k_equal_n_dense_fallback(self, tetra):
        # full spectrum of a 4-vertex mesh goes through the dense route
        basis = compute_mh(tetra, 4)
        assert basis.spectrum.shape == (4,)
        assert abs(basis.spectrum[0]) <= 1e-8


def jittered_grid(seed=3):
    """A 15x15-vertex grid with interior vertices moved, so A is not uniform."""
    mesh = grid_mesh(14, 14, width=2.0, height=2.0)
    v = mesh.vertices.copy()
    interior = np.all((v[:, :2] > 1e-9) & (v[:, :2] < 2.0 - 1e-9), axis=1)
    shift = np.random.default_rng(seed).uniform(-0.04, 0.04, size=(interior.sum(), 2))
    v[interior, :2] += shift
    return TriMesh(v, mesh.faces)


WHITENED_MESHES = {
    "bump_sphere": lambda: bump_sphere(subdivisions=2, radius=5.0, height=1.0),
    "jittered_grid": jittered_grid,
}


class TestWhitenedLanczos:
    """Standard-mode Lanczos on S^-1 Q S^-1, S = A^1/2, against the dense pencil."""

    def test_one_shifted_solve_per_lanczos_step(self, monkeypatch, sphere):
        counts = {"op": 0, "inner": 0, "inner_in_eigsh": 0}
        real_eigsh = solvers.eigsh
        real_solve_shifted = LowRankShiftedSystem.solve_shifted

        def counting_solve_shifted(self, rhs):
            counts["inner"] += 1
            return real_solve_shifted(self, rhs)

        def spy(op, *args, **kwargs):
            def counting_op(y):
                counts["op"] += 1
                return op(y)

            before = counts["inner"]
            try:
                return real_eigsh(counting_op, *args, **kwargs)
            finally:
                counts["inner_in_eigsh"] += counts["inner"] - before

        monkeypatch.setattr(solvers, "eigsh", spy)
        monkeypatch.setattr(LowRankShiftedSystem, "solve_shifted",
                            counting_solve_shifted)
        compute_mh(sphere, 8)
        assert counts["op"] > 0
        assert counts["op"] == counts["inner_in_eigsh"] == counts["inner"]

    @pytest.mark.parametrize("name", sorted(WHITENED_MESHES))
    def test_mh_matches_dense_pencil(self, name):
        mesh = WHITENED_MESHES[name]()
        W, A = assemble_stiffness(mesh), assemble_mass(mesh)
        a = mass_diagonal(A)
        assert a.max() > 1.2 * a.min()
        k = 12
        basis = compute_mh(mesh, k, W=W, A=A)
        lam_o, _ = dense_pencil_eig(W.toarray(), a)
        np.testing.assert_allclose(basis.spectrum, lam_o[:k], rtol=1e-10, atol=1e-12)
        gram = basis.functions.T @ (a[:, None] * basis.functions)
        assert np.abs(gram - np.eye(k)).max() <= 1e-12

    @pytest.mark.parametrize("name", sorted(WHITENED_MESHES))
    def test_relaxed_lmh_matches_dense_pencil(self, name):
        mesh = WHITENED_MESHES[name]()
        W, A = assemble_stiffness(mesh), assemble_mass(mesh)
        a = mass_diagonal(A)
        n, k, kprime, mu_r, mu_perp = a.size, 10, 4, 100.0, 1e5
        phi = compute_mh(mesh, kprime, W=W, A=A).functions
        # the third of the vertices nearest the first one
        dist = np.linalg.norm(mesh.vertices - mesh.vertices[0], axis=1)
        region = Region.binary(n, np.argsort(dist, kind="stable")[: n // 3])
        basis = compute_lmh(mesh, region, k, kprime, mu_r=mu_r, mu_perp=mu_perp,
                            phi=phi, W=W, A=A)
        B = a[:, None] * phi
        Q = (W.toarray() + np.diag(mu_r * a * (1.0 - region.u) ** 2)
             + mu_perp * (B @ B.T))
        lam_o, _ = dense_pencil_eig(Q, a)
        np.testing.assert_allclose(basis.spectrum, lam_o[:k], rtol=1e-10, atol=1e-12)
        gram = basis.functions.T @ (a[:, None] * basis.functions)
        assert np.abs(gram - np.eye(k)).max() <= 1e-12


class CountingRng:
    """A seeded generator that counts the vectors drawn from it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def uniform(self, *args):
        self.draws += 1
        return self._rng.uniform(*args)


def lanczos(op, v0, k, ncv, seed=0, tol=1e-12):
    """``solvers.eigsh`` from v0, with its continuation vectors counted."""
    rng = CountingRng(seed)
    theta, X = solvers.eigsh(op, v0, k, ncv=ncv, tol=tol, rng=rng)
    return theta, X, rng.draws


def start(n, seed=1):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n)


def rotated(d, seed=5):
    """``U diag(d) U^T`` for a random orthogonal U."""
    U, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d.size, d.size)))
    return (U * d) @ U.T


def check_dense(M, theta, X, k):
    """theta and X against the k largest-magnitude eigenpairs of M."""
    lam, _ = dense_pencil_eig(M, np.ones(M.shape[0]))
    expect = lam[np.argsort(-np.abs(lam), kind="stable")][:k]
    np.testing.assert_allclose(theta, expect, rtol=1e-10)
    assert X.shape == (M.shape[0], k) and X.flags.f_contiguous
    assert np.abs(X.T @ X - np.eye(k)).max() <= 1e-12
    assert np.abs(M @ X - X * theta).max() <= 1e-9 * np.abs(theta).max()


def whitened_shift_invert(mesh, sigma=None):
    """``y -> (H - sigma I)^-1 y`` for H = A^-1/2 W A^-1/2, as compute_mh solves it."""
    W, A = assemble_stiffness(mesh), assemble_mass(mesh)
    if sigma is None:
        sigma = default_shift(W, A)
    system = LowRankShiftedSystem(W, None, 0.0, A, sigma=sigma)
    s = np.sqrt(system.mass)
    return (lambda y: s * system.solve_shifted(s * y)), system


def check_mesh(system, theta, X, k):
    """1/theta + sigma and X against the pencil's k smallest eigenpairs."""
    a = system.mass
    W = system.W.toarray()
    lam = 1.0 / theta + system.sigma
    lam_o, _ = dense_pencil_eig(W, a)
    np.testing.assert_allclose(lam, lam_o[:k], rtol=1e-9, atol=1e-9)
    assert np.abs(X.T @ X - np.eye(k)).max() <= 1e-12
    s = np.sqrt(a)
    residual = (W @ (X / s[:, None])) / s[:, None] - X * lam
    # a tenth of the bound smallest_eigenpairs checks
    assert np.all(np.linalg.norm(residual, axis=0) <= 1e-9 * np.maximum(1.0, lam))
    return lam


class TestThickRestartLanczos:
    """``solvers.eigsh`` alone, against ``tests/oracles.py``."""

    def test_restarts_converge_to_the_largest_magnitudes(self):
        M = rotated(np.concatenate([[-9.0, 8.5], np.linspace(-4.0, 6.0, 118)]))
        calls = []

        def op(y):
            calls.append(1)
            return M @ y

        theta, X, _ = lanczos(op, start(120), 6, ncv=16)
        # more applications than the start and one pass of 16 steps
        assert len(calls) > 17
        check_dense(M, theta, X, 6)

    def test_repeated_eigenvalue(self):
        # three copies of the largest eigenvalue: the Krylov space of one
        # start vector holds one vector of that eigenspace, and the other
        # two enter only once that space is exhausted
        M = rotated(np.concatenate([[5.0, 5.0, 5.0], np.linspace(0.1, 4.0, 27)]))
        theta, X, _ = lanczos(lambda y: M @ y, start(30), 5, ncv=30)
        check_dense(M, theta, X, 5)
        np.testing.assert_allclose(theta[:3], 5.0, rtol=1e-12)

    def test_breakdown_of_a_low_rank_operator(self):
        # rank 5 on the first five coordinates: the Krylov space is
        # invariant after five steps, and each further step of a zero
        # operator breaks down again
        M = np.zeros((40, 40))
        M[:5, :5] = rotated(np.array([3.0, -2.5, 2.0, 1.5, 1.0]))
        theta, X, draws = lanczos(lambda y: M @ y, start(40), 4, ncv=12)
        assert draws >= 1
        check_dense(M, theta, X, 4)

    def test_breakdown_on_two_disjoint_grids(self):
        # from a start on the first grid, the Krylov space never leaves
        # it; the second grid, whose spectrum is the same, enters through
        # the random vector drawn at the breakdown. The shift is the
        # larger one of TestDisconnectedMesh, so neither zero eigenvalue
        # dwarfs the wanted ones after inversion
        g = grid_mesh(4, 4)
        mesh = TriMesh(
            np.vstack([g.vertices, g.vertices + [2.0, 0.0, 0.0]]),
            np.vstack([g.faces, g.faces + g.n_vertices]),
        )
        op, system = whitened_shift_invert(mesh, sigma=-1e-2)
        v0 = start(mesh.n_vertices)
        v0[g.n_vertices:] = 0.0
        k = 12
        theta, X, draws = lanczos(op, v0, k, ncv=mesh.n_vertices)
        assert draws >= 1
        lam = check_mesh(system, theta, X, k)
        np.testing.assert_allclose(lam[1::2], lam[::2], rtol=1e-9, atol=1e-9)

    def test_zero_eigenvalue_at_theta_3e7(self):
        # at the shift -1e-8 mean(diag W) the null mode becomes
        # theta ~ 3e7 next to wanted ones near 0.1: the start op(v0) and
        # the MRRR eigensolver of T keep those accurate relative to
        # themselves
        mesh = grid_mesh(10, 10)
        sigma = -1e-8 * float(np.mean(assemble_stiffness(mesh).diagonal()))
        op, system = whitened_shift_invert(mesh, sigma=sigma)
        assert -1.0 / system.sigma > 1e7
        theta, X, _ = lanczos(op, start(121), 16, ncv=42, tol=1e-10)
        check_mesh(system, theta, X, 16)

    def test_k_equals_n_minus_3(self):
        op, system = whitened_shift_invert(grid_mesh(5, 5))
        n = system.mass.size
        theta, X, _ = lanczos(op, start(n), n - 3, ncv=n)
        check_mesh(system, theta, X, n - 3)

    @pytest.mark.parametrize("case", ["restarts", "breakdowns"])
    def test_reruns_are_byte_identical(self, case):
        if case == "restarts":
            M, k, ncv = rotated(np.linspace(-3.0, 7.0, 90)), 8, 20
        else:
            M, k, ncv = np.diag(np.repeat([0.0, 1.0, 2.0, 3.0], [20, 1, 1, 1])), 3, 12
        first = lanczos(lambda y: M @ y, start(M.shape[0]), k, ncv, seed=3)
        second = lanczos(lambda y: M @ y, start(M.shape[0]), k, ncv, seed=3)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()
        assert first[2] == second[2] and (case == "restarts" or first[2] >= 1)

    def test_a_stalled_iteration_fails_fast(self):
        # at tolerance 0 only a residual estimate of exactly 0 converges,
        # so the converged count soon stops growing; the 10 n pass cap
        # would allow 3000 passes of up to 20 steps
        M = rotated(np.linspace(1.0, 2.0, 300))
        calls = []

        def op(y):
            calls.append(1)
            return M @ y

        stalled = solvers._STALLED_RESTARTS
        with pytest.raises(NumericalError, match=f"the last {stalled} without"):
            lanczos(op, start(300), 5, ncv=20, tol=0.0)
        assert len(calls) <= 20 * 2 * stalled

    def test_rejects_a_basis_too_small_for_k(self):
        M = rotated(np.linspace(1.0, 2.0, 20))
        for ncv in (6, 21):
            with pytest.raises(ValueError, match="ncv"):
                lanczos(lambda y: M @ y, start(20), 5, ncv=ncv)

    def test_returned_functions_are_column_major(self, sphere, unit_square):
        # the columns of the Lanczos basis's own buffer, never a copy
        mh = compute_mh(sphere, 8)
        region = Region.binary(unit_square.n_vertices, np.arange(40))
        lmh = compute_lmh(unit_square, region, k=4, kprime=3)
        assert mh.functions.flags.f_contiguous
        assert lmh.functions.flags.f_contiguous

    @pytest.mark.parametrize("k", [40, 100])
    def test_no_copy_after_the_iteration(self, k):
        # the basis, 2 (k + 6) + 11 rows of n floats, is the solve's
        # largest array; the Ritz vectors, the residual check and the
        # signs add less than one more n-by-k array on top of it
        mesh = grid_mesh(79, 79)
        n = mesh.n_vertices
        system, _ = build_lmh_operator(
            assemble_stiffness(mesh), assemble_mass(mesh), None, None, 0.0, 0.0
        )
        system.solve_shifted(system.mass)  # the LU is the system's, not the solve's
        basis = (2 * (k + 6) + 11) * n * 8
        tracemalloc.start()
        try:
            _, Psi = smallest_eigenpairs(system, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 6400
        excess = (peak - basis) / (8 * n * k)
        assert excess <= 1.0, f"peak is the basis plus {excess:.2f} n k floats"
        assert Psi.shape == (n, k) and Psi.flags.f_contiguous

    @pytest.mark.xfail(strict=True, reason=(
        "single-vector Lanczos returns three of the four copies of the "
        "eigenvalue 230.41 and the next eigenvalue in place of the fourth"
    ))
    def test_every_copy_of_a_fourfold_eigenvalue(self):
        mesh = grid_mesh(15, 15)
        W, A = assemble_stiffness(mesh), assemble_mass(mesh)
        lam, _ = dense_pencil_eig(W.toarray(), mass_diagonal(A))
        basis = compute_mh(mesh, 28, seed=238, W=W, A=A)
        np.testing.assert_allclose(basis.spectrum, lam[:28], rtol=1e-9, atol=1e-9)

    @pytest.mark.xfail(strict=True, reason=(
        "single-vector Lanczos misses a copy of a repeated eigenvalue and "
        "returns the next eigenvalue as the last pair"
    ))
    @pytest.mark.parametrize("subdivisions, k, seed", [(2, 30, 0), (3, 21, 14)])
    def test_every_copy_on_an_icosphere(self, subdivisions, k, seed):
        mesh = icosphere(subdivisions)
        W, A = assemble_stiffness(mesh), assemble_mass(mesh)
        lam, _ = dense_pencil_eig(W.toarray(), mass_diagonal(A))
        basis = compute_mh(mesh, k, seed=seed, W=W, A=A)
        np.testing.assert_allclose(basis.spectrum, lam[:k], rtol=1e-9, atol=1e-9)

    def test_one_eigsh_span_holds_every_shifted_solve(self, sphere):
        spans = load_spans()
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            compute_mh(sphere, 8)
        names = [s.name for s in tracer.spans]
        assert names.count("solvers.eigsh") == 1
        lanczos_span = names.index("solvers.eigsh")
        inner = [s for s in tracer.spans if s.name == "solvers.inner_solve"]
        assert inner
        assert all(s.parent == lanczos_span for s in inner)


def signs_by_column_loop(Psi):
    """The column loop ``_flip_signs`` replaced, as its reference."""
    Psi = np.array(Psi, dtype=np.float64, copy=True)
    for j in range(Psi.shape[1]):
        col = Psi[:, j]
        nrm = np.linalg.norm(col)
        if nrm == 0.0:
            continue
        big = np.flatnonzero(np.abs(col) > 1e-6 * nrm)
        if big.size and col[big[0]] < 0.0:
            Psi[:, j] = -col
    return Psi


def test_canonical_signs_match_the_column_loop():
    Psi = np.random.default_rng(4).standard_normal((50, 12))
    Psi[:, 2] = 0.0
    Psi[:, 3] = np.nan
    Psi[:5, 4] = -1e-9  # below the threshold: entry 5 decides
    Psi[0, 5] = -1e-300
    Psi[:, 6] = -1.0
    Psi[10:, 7] = 0.0
    expected = signs_by_column_loop(Psi)
    got = solvers._flip_signs(Psi.copy())
    assert got.tobytes() == expected.tobytes()
    for mesh_case in (grid_mesh(10, 10), icosphere(2)):
        _, Psi = smallest_eigenpairs(
            build_lmh_operator(assemble_stiffness(mesh_case),
                               assemble_mass(mesh_case), None, None, 0.0, 0.0)[0],
            12,
        )
        flipped = Psi * np.where(np.arange(12) % 2, -1.0, 1.0)
        assert solvers._flip_signs(flipped.copy()).tobytes() == (
            signs_by_column_loop(flipped).tobytes()
        )


class TestPositiveMass:
    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf])
    @pytest.mark.parametrize("route", [
        "system", "mh", "relaxed", "hard", "oracle", "hard_constraint_eig",
        "dense_oracle_eig",
    ])
    def test_nonpositive_mass_entry_is_named(self, unit_square, bad, route):
        # whitening divides by sqrt(a); mesh input cannot produce such a
        # mass, a caller-supplied A can
        W = assemble_stiffness(unit_square)
        a = mass_diagonal(assemble_mass(unit_square)).copy()
        a[5] = bad
        A = sparse.diags_array(a).tocsr()
        n = a.size
        region = Region.binary(n, np.arange(30))
        with pytest.raises(ValueError, match="mass diagonal must be positive"):
            if route == "system":
                LowRankShiftedSystem(W, None, 0.0, A)
            elif route == "mh":
                compute_mh(unit_square, 5, W=W, A=A)
            elif route == "hard_constraint_eig":
                hard_constraint_eig(W, A, np.zeros((n, 0)), 3)
            elif route == "dense_oracle_eig":
                dense_oracle_eig(W, A)
            else:
                compute_lmh(unit_square, region, 3, 0, W=W, A=A, solver=route)


class TestNonFiniteInput:
    """An inf or NaN fails with a ValueError that names its input."""

    @pytest.fixture(scope="class")
    def case(self, unit_square):
        W = assemble_stiffness(unit_square)
        A = assemble_mass(unit_square)
        phi = compute_mh(unit_square, 4, W=W, A=A).functions
        region = Region.binary(unit_square.n_vertices, np.arange(40))
        return W, A, phi, region

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("bad, value, name", [
        ("W", np.nan, "W must be finite"),
        ("W", np.inf, "W must be finite"),
        ("phi", np.nan, "phi must be finite"),
        ("phi", -np.inf, "phi must be finite"),
        ("mu_r", np.inf, "penalty must be finite"),
        ("mu_perp", np.inf, "mu_perp must be finite"),
    ])
    def test_localized_paths_name_the_input(self, unit_square, case, solver,
                                            bad, value, name):
        W, A, phi, region = case
        kwargs = dict(W=W, A=A, phi=phi, mu_r=100.0, mu_perp=1e5)
        if bad == "W":
            W = W.copy()
            W.data[7] = value
            kwargs["W"] = W
        elif bad == "phi":
            phi = phi.copy()
            phi[3, 2] = value
            kwargs["phi"] = phi
        else:
            kwargs[bad] = value
        with pytest.raises(ValueError, match=name):
            compute_lmh(unit_square, region, 3, 4, solver=solver, **kwargs)

    def test_global_harmonics_name_the_stiffness(self, unit_square, case):
        W, A, _, _ = case
        W = W.copy()
        W.data[0] = np.nan
        with pytest.raises(ValueError, match="W must be finite"):
            compute_mh(unit_square, 5, W=W, A=A)

    def test_system_names_the_low_rank_factor(self, case):
        W, A, phi, _ = case
        B = phi.copy()
        B[0, 0] = np.nan
        with pytest.raises(ValueError, match="B must be finite"):
            LowRankShiftedSystem(W, B, 1e5, A)

    @pytest.mark.parametrize("bad", ["Z", "phi"])
    def test_hard_path_checks_its_sparse_input(self, case, bad):
        # eigh no longer scans the dense block, so the check is here
        W, A, phi, _ = case
        Z = sparse.csr_array(W, copy=True)
        if bad == "Z":
            Z.data[2] = np.inf
        else:
            phi = phi.copy()
            phi[1, 0] = np.nan
        with pytest.raises(ValueError, match=f"{bad} must be finite"):
            hard_constraint_eig(Z, A, phi, 3)


class TestDenseOracle:
    def test_identity_pencil(self):
        lam, _ = dense_oracle_eig(np.eye(2), np.eye(2))
        np.testing.assert_allclose(lam, [1.0, 1.0])

    def test_diagonal_pencil(self):
        lam, _ = dense_oracle_eig(np.diag([1.0, 3.0]), np.eye(2))
        np.testing.assert_allclose(lam, [1.0, 3.0])

    def test_guard(self):
        n = DENSE_ORACLE_MAX_N + 1
        with pytest.raises(ValueError, match="oracle path limited to"):
            dense_oracle_eig(np.eye(n), np.eye(n))

    def test_agrees_with_iterative_path_on_corpus(self, corpus):
        for name, mesh in corpus:
            assert mesh.n_vertices <= 500
            W = assemble_stiffness(mesh)
            A = assemble_mass(mesh)
            k = 6
            lam = compute_mh(mesh, k, W=W, A=A).spectrum
            lam_o, _ = dense_pencil_eig(W.toarray(), mass_diagonal(A))
            # constant mode is zero only to solver precision
            scale = np.maximum(np.abs(lam_o[:k]), 1e-6)
            assert np.max(np.abs(lam - lam_o[:k]) / scale) <= 1e-6, name


class TestHardPath:
    def test_kprime_zero_equals_relaxed_mu_perp_zero(self, unit_square):
        n = unit_square.n_vertices
        W = assemble_stiffness(unit_square)
        A = assemble_mass(unit_square)
        region = Region.binary(n, np.arange(n // 2))
        phi0 = np.zeros((n, 0))
        lam_h, _ = hard_constraint_eig(penalized(W, A, region), A, phi0, 6)
        system, _ = build_lmh_operator(W, A, region, phi0, 100.0, 0.0)
        lam_r, _ = smallest_eigenpairs(system, 6)
        np.testing.assert_allclose(lam_h, lam_r, rtol=1e-8, atol=1e-10)

    def test_exact_orthogonality(self, plane, plane_patch, plane_ops):
        W, A = plane_ops
        phi = compute_mh(plane, 10, W=W, A=A).functions
        lam, Psi = hard_constraint_eig(penalized(W, A, plane_patch), A, phi, 8)
        a = mass_diagonal(A)
        assert np.abs(phi.T @ (a[:, None] * Psi)).max() <= 1e-10
        gram = Psi.T @ (a[:, None] * Psi)
        assert np.abs(gram - np.eye(8)).max() <= 1e-10

    @pytest.mark.parametrize("kprime", [0, 5])
    def test_matches_svd_complement_oracle_on_corpus(self, corpus, kprime):
        k = 8
        for name, mesh in corpus:
            W = assemble_stiffness(mesh)
            A = assemble_mass(mesh)
            a = mass_diagonal(A)
            n = mesh.n_vertices
            x = mesh.vertices[:, 0]
            region = Region.binary(n, np.flatnonzero(x <= np.median(x)))
            phi = (
                compute_mh(mesh, kprime, W=W, A=A).functions
                if kprime else np.zeros((n, 0))
            )
            lam, Psi = hard_constraint_eig(penalized(W, A, region), A, phi, k)
            Q = W.toarray() + np.diag(100.0 * a * penalty_weights(region, n))
            lam_ref, Psi_ref = constrained_pencil_eig(Q, a, phi)

            scale = np.abs(lam_ref[:k]).max()
            np.testing.assert_allclose(
                lam, lam_ref[:k], rtol=1e-10, atol=1e-10 * scale, err_msg=name
            )
            aPsi = a[:, None] * Psi
            if kprime:
                assert np.abs(phi.T @ aPsi).max() <= 1e-12, name
            assert np.abs(Psi.T @ aPsi - np.eye(k)).max() <= 1e-12, name
            # span of the leading eigenvectors up to the last spectral gap
            # in the window, so a degenerate pair at its edge cannot split
            gaps = np.flatnonzero(np.diff(lam_ref[: k + 1]) > 1e-6 * scale)
            m = int(gaps[-1]) + 1
            ref = Psi_ref[:, :m]
            leak = Psi[:, :m] - ref @ (ref.T @ aPsi[:, :m])
            assert np.sqrt((a[:, None] * leak**2).sum(axis=0)).max() <= 1e-10, name

    @pytest.mark.parametrize("kprime", [0, 10])
    def test_memory_peak_is_one_dense_array(self, kprime):
        # numpy allocates no n-by-n array: the trailing block lives in a
        # buffer of its own, which eigh solves in place, without a copy
        mesh = grid_mesh(31, 31)
        n = mesh.n_vertices
        W = assemble_stiffness(mesh)
        A = assemble_mass(mesh)
        region = Region.binary(n, patch_vertices(mesh, (0.25, 0.75), (0.25, 0.75)))
        phi = compute_mh(mesh, 10, W=W, A=A).functions[:, :kprime]
        Z = penalized(W, A, region)
        tracemalloc.start()
        try:
            hard_constraint_eig(Z, A, phi, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 1024
        assert peak <= 0.25 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} * 8n^2 bytes"

    @pytest.mark.parametrize("kprime", [0, 10])
    def test_upper_triangle_is_never_written(self, monkeypatch, kprime):
        # the buffer starts as zero pages; any write above the diagonal,
        # by the fill, dsyr2k or eigh, would leave it nonzero or back it
        mesh = grid_mesh(15, 15)
        n = mesh.n_vertices
        W = assemble_stiffness(mesh)
        A = assemble_mass(mesh)
        region = Region.binary(n, patch_vertices(mesh, (0.25, 0.75), (0.25, 0.75)))
        phi = compute_mh(mesh, 10, W=W, A=A).functions[:, :kprime]
        blocks = []
        real = solvers.eigh

        def recording_eigh(a, *args, **kwargs):
            blocks.append(a)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(solvers, "eigh", recording_eigh)
        hard_constraint_eig(penalized(W, A, region), A, phi, 5)
        (block,) = blocks
        m = n - kprime
        assert block.shape == (m, m) and block.flags.f_contiguous
        assert not np.triu(block, 1).any()
        assert np.all(np.diag(block) != 0.0)

    def test_resident_memory_is_about_half_the_block(self, tmp_path):
        # the high-water mark of resident memory (VmHWM; ru_maxrss would
        # start at the test process's, since Linux keeps it across exec)
        # in a fresh interpreter, around one hard solve after a warm-up
        # on a small mesh. With 4 KiB pages, the lower triangle plus one
        # page per column is about 0.7 * 8n^2 bytes here; a fully backed
        # block is 1.0 or more
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status")
        thp = Path("/sys/kernel/mm/transparent_hugepage/enabled")
        if thp.exists() and "[always]" in thp.read_text():
            pytest.skip("transparent huge pages are always on")
        script = tmp_path / "hard_rss.py"
        script.write_text(textwrap.dedent("""
            from lmh.fem import assemble_mass, assemble_stiffness
            from lmh.localized import Region, build_lmh_operator, compute_mh
            from lmh.solvers import hard_constraint_eig
            from lmh.synth import grid_mesh, patch_vertices

            def high_water_bytes():
                with open("/proc/self/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            return 1024 * int(line.split()[1])

            def hard(side, k):
                mesh = grid_mesh(side, side)
                n = mesh.n_vertices
                W, A = assemble_stiffness(mesh), assemble_mass(mesh)
                inside = patch_vertices(mesh, (0.25, 0.75), (0.25, 0.75))
                region = Region.binary(n, inside)
                phi = compute_mh(mesh, 10, W=W, A=A).functions
                system, _ = build_lmh_operator(W, A, region, phi, 100.0, 0.0)
                Z = system.sparse_part(0.0)
                before = high_water_bytes()
                hard_constraint_eig(Z, A, phi, k)
                return n, (high_water_bytes() - before) / (8 * n * n)

            hard(15, 5)
            print(*hard(49, 20))
        """))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(solvers.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env=env, timeout=300, check=True,
        )
        n, growth = done.stdout.split()
        assert int(n) == 2500
        assert float(growth) <= 0.75, f"{float(growth):.2f} * 8n^2 bytes"

    def test_guard_suggests_relaxed(self):
        n = HARD_PATH_MAX_N + 1
        Z = sparse.eye_array(n, format="csr")
        A = sparse.eye_array(n, format="csr")
        with pytest.raises(ValueError, match="relaxed"):
            hard_constraint_eig(Z, A, np.zeros((n, 0)), 1)


@pytest.fixture
def blas_pools():
    """Thread controls of the bundled OpenBLAS pools, each set to 2.

    Two threads make "restored" distinguishable from "left at 1" even on
    a single-core machine; the original counts come back afterwards.
    """
    controls = solvers._blas_thread_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS with a thread-count control")
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield controls
    for (_, set_), count in zip(controls, saved):
        set_(count)


def pool_counts(controls):
    return [get() for get, _ in controls]


def recording(real, controls, seen):
    """``real``, appending the pool counts to ``seen`` at each call."""
    def record(*args, **kwargs):
        seen.append(pool_counts(controls))
        return real(*args, **kwargs)
    return record


def record_dense_kernels(monkeypatch, controls):
    """Pool counts at each ``eigh`` of the dense routes and tie-break of p2p."""
    seen = []
    for module, name in ((solvers, "eigh"), (fmap, "_euclidean")):
        monkeypatch.setattr(module, name, recording(
            getattr(module, name), controls, seen))
    return seen


def tied_basis():
    """Four functions on 30 vertices whose rows 3 and 7 are equal.

    Both of their p2p queries tie in the distance GEMM, and ``_euclidean``
    decides each inside the block loop.
    """
    functions = np.random.default_rng(0).standard_normal((30, 4))
    functions[7] = functions[3]
    return SpectralBasis(functions, np.arange(4.0), "MH")


class TestBlasThreadScope:
    def test_pools_read_one_inside_and_nest(self, blas_pools):
        ones, twos = [1] * len(blas_pools), [2] * len(blas_pools)
        with solvers._serial_blas():
            assert pool_counts(blas_pools) == ones
            with solvers._serial_blas():
                assert pool_counts(blas_pools) == ones
            assert pool_counts(blas_pools) == ones
        assert pool_counts(blas_pools) == twos

    def test_relaxed_lmh_restores_counts(self, blas_pools, unit_square,
                                         monkeypatch):
        seen, in_steps = [], set()
        real_eigsh = solvers.eigsh

        def recording_eigsh(op, *args, **kwargs):
            seen.append(pool_counts(blas_pools))

            def recording_op(y):
                in_steps.add(tuple(pool_counts(blas_pools)))
                return op(y)

            return real_eigsh(recording_op, *args, **kwargs)

        monkeypatch.setattr(solvers, "eigsh", recording_eigsh)
        before = pool_counts(blas_pools)
        region = Region.binary(unit_square.n_vertices, np.arange(40))
        compute_lmh(unit_square, region, k=4, kprime=3, solver="relaxed")
        assert pool_counts(blas_pools) == before
        # one solve for the global harmonics, one for the localized ones
        assert seen == [[1] * len(blas_pools)] * 2
        assert in_steps == {(1,) * len(blas_pools)}

    def test_counts_restored_when_eigsh_raises(self, blas_pools, sphere,
                                               monkeypatch):
        real_eigsh = solvers.eigsh

        def zero_tolerance(*args, **kwargs):
            return real_eigsh(*args, **{**kwargs, "tol": 0.0})

        monkeypatch.setattr(solvers, "eigsh", zero_tolerance)
        # nothing converges at zero tolerance: the second pass stalls
        monkeypatch.setattr(solvers, "_STALLED_RESTARTS", 1)
        before = pool_counts(blas_pools)
        with pytest.raises(NumericalError, match="did not converge"):
            compute_mh(sphere, 5)
        assert pool_counts(blas_pools) == before

    def test_concurrent_scopes_restore_counts_and_results(self, blas_pools):
        # scopes in two Python threads once restored each other's counts:
        # the pools stayed at one thread for the rest of the process, and
        # a concurrent basis could differ from the serial one
        big, small = grid_mesh(40, 40), grid_mesh(12, 12)
        expected = [compute_mh(big, 30), compute_mh(small, 10)]

        def repeat(mesh, k, times):
            return [compute_mh(mesh, k) for _ in range(times)]

        # exactly two threads, switching often between bytecodes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                runs = [pool.submit(repeat, big, 30, 3),
                        pool.submit(repeat, small, 10, 40)]
                results = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert pool_counts(blas_pools) == [2] * len(blas_pools)
        for serial, concurrent in zip(expected, results):
            for basis in concurrent:
                assert np.array_equal(basis.spectrum, serial.spectrum)
                assert np.array_equal(basis.functions, serial.functions)

    def test_no_op_without_control_symbols(self, blas_pools, monkeypatch):
        monkeypatch.setattr(solvers, "_blas_thread_controls", lambda: ())
        before = pool_counts(blas_pools)
        with solvers._serial_blas():
            assert pool_counts(blas_pools) == before
        assert pool_counts(blas_pools) == before

    def test_dense_routes_keep_process_default(self, blas_pools, tetra,
                                               unit_square, monkeypatch):
        seen = record_dense_kernels(monkeypatch, blas_pools)
        n = unit_square.n_vertices
        W, A = assemble_stiffness(unit_square), assemble_mass(unit_square)
        Z = penalized(W, A, Region.binary(n, np.arange(40)))
        basis = tied_basis()
        compute_lmh(tetra, None, 2, 0, solver="oracle")
        hard_constraint_eig(Z, A, np.zeros((n, 0)), 4)
        p2p = recover_p2p(np.eye(4), basis_x=basis, basis_y=basis)
        assert p2p[3] == p2p[7] == 3
        # the two eigh keep the process count; p2p's two tie-breaks run
        # at one thread
        twos, ones = [2] * len(blas_pools), [1] * len(blas_pools)
        assert seen == [twos, twos, ones, ones]

    def test_cli_commands_run_serial_and_restore_counts(
        self, blas_pools, unit_square, tmp_path, monkeypatch
    ):
        mesh = tmp_path / "square.off"
        write_off(unit_square, mesh)
        seen = []

        def failing_eigsh(*args, **kwargs):
            raise NumericalError("did not converge")

        before = pool_counts(blas_pools)
        out = ["--out-dir", str(tmp_path)]
        monkeypatch.setattr(solvers, "eigsh",
                            recording(solvers.eigsh, blas_pools, seen))
        assert cli.run(["mh", "--mesh", str(mesh), "--k", "3", *out]) == 0
        assert pool_counts(blas_pools) == before
        assert cli.run(["mh", "--mesh", str(tmp_path / "none.off"), "--k", "3",
                        *out]) == 1
        assert pool_counts(blas_pools) == before
        monkeypatch.setattr(solvers, "eigsh",
                            recording(failing_eigsh, blas_pools, seen))
        assert cli.run(["mh", "--mesh", str(mesh), "--k", "3", *out]) == 2
        assert pool_counts(blas_pools) == before
        assert seen == [[1] * len(blas_pools)] * 2

    def test_cli_dense_kernels_keep_process_default(
        self, blas_pools, unit_square, tmp_path, monkeypatch
    ):
        seen = record_dense_kernels(monkeypatch, blas_pools)
        mesh, region = tmp_path / "square.off", tmp_path / "region.txt"
        write_off(unit_square, mesh)
        lmhio.save_region(Region.binary(unit_square.n_vertices, np.arange(40)),
                          region)
        basis, cmatrix = tmp_path / "basis.txt", tmp_path / "c.txt"
        lmhio.save_basis(tied_basis(), basis, tmp_path / "spectrum.txt")
        lmhio.save_cmatrix(np.eye(4), cmatrix)
        out = ["--out-dir", str(tmp_path)]
        lmh = ["lmh", "--mesh", str(mesh), "--region", str(region), "--k", "3",
               "--kprime", "2", *out]
        for argv in (
            [*lmh, "--solver", "hard"],
            [*lmh, "--solver", "oracle"],
            ["bench", "--mesh", str(mesh), "--k", "3", "--kprime", "2",
             "--paths", "hard", *out],
            ["p2p", "--cmatrix", str(cmatrix), "--basis-x", str(basis),
             "--basis-y", str(basis), *out],
        ):
            assert cli.run(argv) == 0
        # one eigh each for hard, oracle and bench at the process count,
        # two _euclidean for the tie at one thread
        assert seen == [[2] * len(blas_pools)] * 3 + [[1] * len(blas_pools)] * 2

    def test_lmh_operator_build_is_serial(self, blas_pools, unit_square,
                                          monkeypatch):
        seen = []
        monkeypatch.setattr(localized, "penalty_weights", recording(
            localized.penalty_weights, blas_pools, seen))
        W, A = assemble_stiffness(unit_square), assemble_mass(unit_square)
        build_lmh_operator(W, A, None, None, 0.0, 0.0)
        assert seen == [[1] * len(blas_pools)]
        assert pool_counts(blas_pools) == [2] * len(blas_pools)


def test_solvers_alone_owns_the_thread_exceptions():
    """Only ``solvers`` touches the pool counts, the command line opens no
    serial scope, and no serial scope names a dense eigensolver, so both
    run at the process count."""
    dense = {"hard_constraint_eig", "dense_oracle_eig"}

    def named(node):
        """Every name, attribute and imported name under ``node``."""
        names = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                names.add(child.attr)
            elif isinstance(child, ast.alias):
                names.add(child.name.rsplit(".", 1)[-1])
        return names

    def serial(expr):
        return (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
                and expr.func.id == "_serial_blas")

    root = Path(solvers.__file__).resolve().parent
    scopes = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name != "solvers.py":
            assert "_blas_thread_controls" not in named(tree), path.name
        if path.name == "cli.py":
            assert "_serial_blas" not in named(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                openers = node.decorator_list
            elif isinstance(node, ast.With):
                openers = [item.context_expr for item in node.items]
            else:
                continue
            if any(serial(expr) for expr in openers):
                scopes.append(node)
                assert not named(node) & dense, f"{path.name}:{node.lineno}"
    assert scopes


def test_compute_lmh_alone_names_the_dense_oracle():
    """``dense_oracle_eig`` serves only ``compute_lmh``'s oracle path, so
    every other path has one eigensolver: ``smallest_eigenpairs`` runs
    Lanczos for every k up to n."""
    root = Path(solvers.__file__).resolve().parent
    owners = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            # a Name's id or an Attribute's attr; imports and the def are neither
            if getattr(node, "id", getattr(node, "attr", None)) == "dense_oracle_eig":
                owner = node
                while owner in parent and not isinstance(owner, ast.FunctionDef):
                    owner = parent[owner]
                owners.append((path.stem, getattr(owner, "name", None)))
    assert owners == [("localized", "compute_lmh")]
