"""Functional maps, point-to-point recovery, and geodesic error stats."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import lmh
from lmh import fmap as lmhfmap
from lmh.fem import assemble_mass, assemble_stiffness
from lmh.fmap import (
    _euclidean,
    build_fmap,
    geodesic_error_stats,
    offblock_energy,
    recover_p2p,
    stack_bases,
)
from lmh.localized import Region, SpectralBasis, compute_lmh, compute_mh
from lmh.mesh import TriMesh, graph_geodesics, surface_area
from lmh.synth import bump_sphere, cap_vertices, grid_mesh

from oracles import all_pairs_shortest, nearest_index, triangle_area


def oracle_area(mesh):
    return sum(
        triangle_area(*mesh.vertices[f]) for f in mesh.faces
    )


@pytest.fixture(scope="module")
def square_pair():
    """The unit square discretized at two resolutions."""
    X = grid_mesh(10, 10)
    Y = grid_mesh(13, 13)
    p2p = cdist(Y.vertices, X.vertices).argmin(axis=1)
    return X, Y, p2p


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the traced peak of new allocations."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


class TestBuildFmap:
    def test_identity_map_gives_identity_matrix(self, unit_square):
        A = assemble_mass(unit_square)
        basis = compute_mh(unit_square, 8, A=A)
        fmap = build_fmap(basis, basis, np.arange(unit_square.n_vertices), A)
        assert fmap.shape == (8, 8)
        assert np.abs(fmap.C - np.eye(8)).max() <= 1e-10

    def test_vertex_permutation_gives_signed_permutation(self):
        # irrational aspect ratio keeps the low spectrum simple, so the
        # independently computed bases agree up to per-function signs
        X = grid_mesh(15, 8, width=1.37, height=1.0)
        rng = np.random.default_rng(7)
        perm = rng.permutation(X.n_vertices)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(X.n_vertices)
        Y = TriMesh(X.vertices[perm], inv[X.faces])
        A_y = assemble_mass(Y)
        basis_x = compute_mh(X, 8)
        basis_y = compute_mh(Y, 8)
        fmap = build_fmap(basis_x, basis_y, perm, A_y)
        np.testing.assert_allclose(
            np.abs(fmap.C), np.eye(8), atol=1e-6
        )

    def test_cross_resolution_map_is_nearly_orthonormal(self, square_pair):
        X, Y, p2p = square_pair
        basis_x = compute_mh(X, 6)
        basis_y = compute_mh(Y, 6)
        fmap = build_fmap(basis_x, basis_y, p2p, assemble_mass(Y))
        gram = fmap.C.T @ fmap.C
        assert np.abs(gram - np.eye(6)).max() <= 0.1

    def test_input_validation(self, unit_square):
        A = assemble_mass(unit_square)
        basis = compute_mh(unit_square, 4, A=A)
        n = unit_square.n_vertices
        with pytest.raises(ValueError):
            build_fmap(basis, basis, np.arange(n - 1), A)
        bad = np.arange(n)
        bad[0] = n
        with pytest.raises(ValueError):
            build_fmap(basis, basis, bad, A)
        with pytest.raises(ValueError):
            build_fmap(basis, basis, np.arange(n) - 1, A)


class TestRecoverP2p:
    def test_identity_matrix_recovers_identity_map(self, plane, plane_ops):
        _, A = plane_ops
        basis = compute_mh(plane, 20, A=A)
        fmap = build_fmap(basis, basis, np.arange(plane.n_vertices), A)
        recovered = recover_p2p(fmap)
        exact = np.mean(recovered == np.arange(plane.n_vertices))
        assert exact >= 0.95

    def test_raw_matrix_with_explicit_bases(self, unit_square):
        A = assemble_mass(unit_square)
        basis = compute_mh(unit_square, 6, A=A)
        r1 = recover_p2p(np.eye(6), basis_x=basis, basis_y=basis)
        fmap = build_fmap(basis, basis, np.arange(unit_square.n_vertices), A)
        r2 = recover_p2p(fmap)
        np.testing.assert_array_equal(r1, r2)

    def test_small_blocks_match_single_pass(self, unit_square, monkeypatch):
        A = assemble_mass(unit_square)
        basis = compute_mh(unit_square, 6, A=A)
        n = unit_square.n_vertices
        fmap = build_fmap(basis, basis, np.arange(n), A)
        monkeypatch.setattr(lmhfmap, "_BLOCK_ENTRIES", n * n)
        single = recover_p2p(fmap)
        for rows in (1, 4, 17, 512):
            monkeypatch.setattr(lmhfmap, "_BLOCK_ENTRIES", rows * n)
            np.testing.assert_array_equal(recover_p2p(fmap), single)

    def test_dimension_mismatch(self, unit_square):
        basis = compute_mh(unit_square, 6)
        with pytest.raises(ValueError):
            recover_p2p(np.eye(5), basis_x=basis, basis_y=basis)

    def test_distance_blocks_are_bounded_by_bytes(self, rng):
        # a block holds 2 MiB: 32 rows of 8000 distances
        n, m = 8000, 20
        basis_x = embedding(rng.normal(size=(n, m)))
        basis_y = embedding(rng.normal(size=(n, m)))
        out, peak = traced_peak(recover_p2p, np.eye(m),
                                basis_x=basis_x, basis_y=basis_y)
        queries_and_output = n * m * 8 + out.nbytes
        assert peak - queries_and_output < 8 * 2**20


def embedding(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return SpectralBasis(rows, np.zeros(rows.shape[1]), "MH")


def nearest(queries, points):
    points = np.asarray(points, dtype=np.float64)
    return recover_p2p(np.eye(points.shape[1]), basis_x=embedding(points),
                       basis_y=embedding(queries))


class TestNearestIndex:
    """recover_p2p's matcher against the exact oracle and cdist's argmin."""

    def test_duplicates_ulp_neighbours_and_equidistant_points(self, rng,
                                                              monkeypatch):
        base = 5.0 + rng.normal(size=(6, 4))  # far from the unit axis points
        points = np.vstack([
            base,
            base[::-1],                        # exact duplicates, later indices
            np.nextafter(base, np.inf),        # 1 ulp above each coordinate
            [[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
             [0.0, 1.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]],
        ])
        queries = np.vstack([
            base,                              # duplicate tie and 1-ulp neighbour
            np.nextafter(base, np.inf),        # nearest is the 1-ulp row
            np.zeros((1, 4)),                  # four exactly equidistant points
            [[0.0, 0.0, 3.0, 0.0]],
        ])
        expect = nearest_index(queries, points)
        np.testing.assert_array_equal(expect[:6], np.arange(6))
        np.testing.assert_array_equal(expect[6:12], np.arange(12, 18))
        assert expect[12] == expect[13] == 18
        np.testing.assert_array_equal(
            cdist(queries, points).argmin(axis=1), expect
        )
        # a generic query cannot tell a row from its 1-ulp neighbour, so
        # cdist's rounding, not exact arithmetic, decides it
        queries = np.vstack([queries, 5.0 + rng.normal(size=(5, 4))])
        expect = cdist(queries, points).argmin(axis=1)
        # blocks of 1, 4, 17 and 512 rows, and one block of every row
        for rows in (1, 4, 17, 512, len(queries)):
            monkeypatch.setattr(lmhfmap, "_BLOCK_ENTRIES", rows * len(points))
            np.testing.assert_array_equal(nearest(queries, points), expect)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_lattice_near_ties_match_cdist(self, rng, offset):
        # coordinates a tenth apart and queries halfway put many pairs
        # within rounding of a tie; the offset makes |q|^2 + |x|^2 - 2 q.x
        # cancel, so nearly every row goes to the cdist recheck
        points = offset + 0.1 * rng.integers(-3, 4, size=(300, 5))
        queries = offset + 0.05 * rng.integers(-7, 8, size=(400, 5))
        np.testing.assert_array_equal(
            nearest(queries, points), cdist(queries, points).argmin(axis=1)
        )

    def test_nan_query_takes_cdist_answer(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        queries = np.array([[np.nan, 0.0], [0.9, 0.9]])
        np.testing.assert_array_equal(
            nearest(queries, points), cdist(queries, points).argmin(axis=1)
        )


class TestEuclidean:
    @pytest.mark.parametrize("m", [1, 3, 20, 60])
    def test_equals_cdist_bit_for_bit(self, rng, m):
        points = rng.normal(size=(500, m)) * rng.uniform(1e-3, 1e3, size=m)
        for q in rng.normal(size=(20, m)) * 10.0:
            np.testing.assert_array_equal(
                _euclidean(q, points).view(np.int64),
                cdist(q[None], points)[0].view(np.int64),
            )

    def test_no_module_imports_scipy_spatial(self):
        src = str(Path(lmh.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        script = (
            "import sys, lmh, lmh.cli\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.spatial', 'scipy.special'))))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestGeodesicErrorStats:
    def test_identity_map_is_exact(self, unit_square):
        truth = np.arange(unit_square.n_vertices)
        stats = geodesic_error_stats(truth, truth, unit_square)
        np.testing.assert_array_equal(stats.per_vertex, 0.0)
        assert stats.mean == 0.0
        np.testing.assert_array_equal(stats.fractions, 1.0)
        assert stats.thresholds[0] == 0.0 and stats.thresholds[-1] == 0.5

    def test_single_mismatch_distance(self, unit_square):
        n = unit_square.n_vertices
        truth = np.arange(n)
        recovered = truth.copy()
        recovered[5] = 40
        stats = geodesic_error_stats(recovered, truth, unit_square)
        dist = all_pairs_shortest(unit_square)
        expected = dist[5, 40] / np.sqrt(oracle_area(unit_square))
        assert abs(stats.per_vertex[5] - expected) <= 1e-10
        assert np.count_nonzero(stats.per_vertex) == 1
        assert abs(stats.mean - expected / n) <= 1e-12

    def test_field_matches_all_pairs_oracle(self, unit_square, rng):
        n = unit_square.n_vertices
        truth = np.arange(n)
        recovered = rng.integers(0, n, size=n)
        stats = geodesic_error_stats(recovered, truth, unit_square)
        dist = all_pairs_shortest(unit_square)
        scale = 1.0 / np.sqrt(oracle_area(unit_square))
        expected = dist[truth, recovered] * scale
        np.testing.assert_allclose(stats.per_vertex, expected, atol=1e-12)

    def test_scale_invariance(self, unit_square, rng):
        n = unit_square.n_vertices
        truth = np.arange(n)
        recovered = rng.integers(0, n, size=n)
        scaled = TriMesh(3.0 * unit_square.vertices, unit_square.faces)
        s1 = geodesic_error_stats(recovered, truth, unit_square)
        s2 = geodesic_error_stats(recovered, truth, scaled)
        np.testing.assert_allclose(s1.per_vertex, s2.per_vertex, atol=1e-10)

    def test_curve_is_monotone(self, unit_square, rng):
        n = unit_square.n_vertices
        recovered = rng.integers(0, n, size=n)
        stats = geodesic_error_stats(recovered, np.arange(n), unit_square)
        assert np.all(np.diff(stats.fractions) >= 0.0)
        assert stats.fractions[0] == np.mean(stats.per_vertex == 0.0)
        assert stats.fractions[-1] <= 1.0

    def test_many_mismatches_in_bounded_blocks(self, rng, monkeypatch):
        mesh = grid_mesh(40, 40)  # 1681 sources x 1681 vertices: 22 MB at once
        n = mesh.n_vertices
        truth = rng.permutation(n)
        recovered = rng.integers(0, n, size=n)
        calls = []

        def counting(mesh, sources):
            calls.append(len(sources))
            return graph_geodesics(mesh, sources)

        monkeypatch.setattr(lmhfmap, "graph_geodesics", counting)
        stats, peak = traced_peak(geodesic_error_stats, recovered, truth, mesh)
        assert len(calls) > 1 and max(calls) * n <= 2**18
        assert peak < 6 * 2**20
        # the one-shot computation
        mismatched = recovered != truth
        sources = np.unique(truth[mismatched])
        dist = graph_geodesics(mesh, sources)
        row = {int(s): i for i, s in enumerate(sources)}
        idx = np.array([row[int(t)] for t in truth[mismatched]])
        expected = np.zeros(n)
        expected[mismatched] = (dist[idx, recovered[mismatched]]
                                * (1.0 / np.sqrt(surface_area(mesh))))
        np.testing.assert_array_equal(stats.per_vertex, expected)

    def test_input_validation(self, unit_square):
        n = unit_square.n_vertices
        with pytest.raises(ValueError):
            geodesic_error_stats(np.arange(n - 1), np.arange(n), unit_square)
        bad = np.arange(n)
        bad[3] = n
        with pytest.raises(ValueError):
            geodesic_error_stats(bad, np.arange(n), unit_square)

    def test_empty_maps_raise(self, unit_square):
        # two empty maps once gave a NaN mean error and a "Mean of empty
        # slice" warning
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="maps are empty"):
            geodesic_error_stats(empty, empty, unit_square)


class TestOffblockEnergy:
    def test_block_diagonal_matrix(self):
        C = np.zeros((7, 7))
        C[:3, :3] = np.eye(3)
        C[3:7, 3:7] = np.arange(16.0).reshape(4, 4)
        assert offblock_energy(C, kprime=3, k=4) == 0.0

    def test_all_off_block_matrix(self):
        C = np.ones((6, 6))
        C[:2, :2] = 0.0
        C[2:6, 2:6] = 0.0
        assert offblock_energy(C, kprime=2, k=4) == 1.0

    def test_zero_matrix(self):
        assert offblock_energy(np.zeros((4, 4)), kprime=2, k=2) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            offblock_energy(np.eye(4), kprime=3, k=2)
        with pytest.raises(ValueError):
            offblock_energy(np.eye(4), kprime=-1, k=2)

    def test_matched_bump_pair_stays_block_diagonal(self):
        # same connectivity, different bump heights; the mixed bases
        # line up block to block under the identity correspondence
        kw = dict(subdivisions=2, radius=5.0, width=0.3,
                  ripples=6, ripple_amp=0.5)
        X = bump_sphere(height=1.2, **kw)
        Y = bump_sphere(height=1.6, **kw)
        kprime, k = 20, 15
        mixed = []
        for mesh in (X, Y):
            W = assemble_stiffness(mesh)
            A = assemble_mass(mesh)
            cap = Region.binary(
                mesh.n_vertices, cap_vertices(mesh, (0.0, 0.0, 1.0), 0.8)
            )
            mh = compute_mh(mesh, kprime, W=W, A=A)
            lmh = compute_lmh(
                mesh, cap, k=k, kprime=kprime, phi=mh.functions, W=W, A=A
            )
            mixed.append(stack_bases([mh, lmh]))
        fmap = build_fmap(
            mixed[0], mixed[1], np.arange(Y.n_vertices), assemble_mass(Y)
        )
        energy = offblock_energy(fmap, kprime=kprime, k=k)
        assert 0.0 <= energy < 0.3


class TestStackBases:
    def test_block_order_preserved(self, unit_square):
        mh = compute_mh(unit_square, 5)
        region = Region.binary(unit_square.n_vertices,
                               np.arange(40))
        lmh = compute_lmh(unit_square, region, k=3, kprime=5,
                          phi=mh.functions)
        stacked = stack_bases([mh, lmh])
        assert stacked.kind == "mixed"
        assert stacked.n_functions == 8
        np.testing.assert_array_equal(stacked.functions[:, :5], mh.functions)
        np.testing.assert_array_equal(stacked.functions[:, 5:], lmh.functions)
        np.testing.assert_array_equal(
            stacked.spectrum, np.concatenate([mh.spectrum, lmh.spectrum])
        )
        assert stacked.params["blocks"] == [5, 3]
        assert stacked.params["kinds"] == ["MH", "LMH"]

    def test_single_basis_passthrough(self, unit_square):
        mh = compute_mh(unit_square, 4)
        assert stack_bases([mh]) is mh

    def test_mesh_mismatch(self, unit_square, tetra):
        with pytest.raises(ValueError):
            stack_bases([compute_mh(unit_square, 3), compute_mh(tetra, 3)])
