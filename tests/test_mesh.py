"""Mesh loading, validation, geodesics, areas."""

import warnings

import numpy as np
import pytest

from lmh import mesh as lmh_mesh
from lmh.mesh import (
    MeshError,
    TriMesh,
    graph_geodesics,
    intrinsic_diameter,
    load_mesh,
    read_mesh,
    surface_area,
    triangle_areas,
    write_off,
)
from lmh.localized import Region
from lmh.synth import grid_mesh, icosphere, single_triangle, tetrahedron

from oracles import all_pairs_shortest, bellman_ford, mesh_edges_with_lengths

OFF_TETRA = """OFF
4 4 6
0 0 0
1 0 0
0 1 0
0 0 1
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""

OFF_TRIANGLE = """OFF
3 1 0
0 0 0
1 0 0
0 1 0
3 0 1 2
"""

# two triangles glued to the same edge twice over -> edge (0,1) in 3 faces
OFF_NONMANIFOLD = """OFF
5 3 0
0 0 0
1 0 0
0 1 0
0 -1 0
0 0 1
3 0 1 2
3 0 1 3
3 0 1 4
"""

OBJ_TRIANGLE = """# comment line
v 0 0 0
v 1 0 0
v 0 1 0
vn 0 0 1
f 1/1/1 2/2/1 3/3/1
"""


# OFF bodies after "OFF\n3 1 0\n" and the message each must raise
OFF_ERRORS = [
    ("0 0 0\n1 0\n0 1 0\n3 0 1 2\n", "malformed vertex line"),
    ("0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n", "malformed vertex line"),
    ("0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n", "face with 4 vertices"),
    ("0 0 0\n1 0 0\n0 1 0\n3 0 1\n", "truncated face line"),
    ("0 0 0\n1 0 0\n0 1 0\nx 0 1 2\n", "malformed face line"),
    ("0 0 0\n1 0 0\n0 1 0\n", "expected 3 vertex and 1 face lines, got 3"),
]

class TestLoadMesh:
    def test_off_tetrahedron_edge_classification(self):
        mesh = load_mesh(OFF_TETRA, "OFF")
        assert mesh.n_vertices == 4
        assert mesh.n_faces == 4
        assert len(mesh.interior_edges) == 6
        assert len(mesh.boundary_edges) == 0

    def test_off_single_triangle_all_boundary(self):
        mesh = load_mesh(OFF_TRIANGLE, "OFF")
        assert len(mesh.interior_edges) == 0
        assert len(mesh.boundary_edges) == 3

    def test_nonmanifold_edge_rejected(self):
        with pytest.raises(MeshError, match="manifold"):
            load_mesh(OFF_NONMANIFOLD, "OFF")

    def test_obj_with_slash_refs_and_skipped_records(self):
        mesh = load_mesh(OBJ_TRIANGLE, "OBJ")
        assert mesh.n_vertices == 3
        assert mesh.n_faces == 1
        np.testing.assert_allclose(mesh.vertices[1], [1, 0, 0])

    def test_empty_mesh_rejected(self):
        with pytest.raises(MeshError):
            load_mesh("OFF\n0 0 0\n", "OFF")

    def test_non_triangle_face_rejected(self):
        bad = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        with pytest.raises(MeshError):
            load_mesh(bad, "OFF")

    def test_face_index_out_of_range_rejected(self):
        bad = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n"
        with pytest.raises(MeshError):
            load_mesh(bad, "OFF")

    def test_degenerate_face_rejected(self):
        bad = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n"
        with pytest.raises(MeshError):
            load_mesh(bad, "OFF")

    def test_unreferenced_vertex_rejected(self):
        grid = grid_mesh(4, 4)  # 5x5 vertices plus one stray vertex
        stray = np.vstack([grid.vertices, [[2.0, 2.0, 0.0]]])
        with pytest.raises(MeshError, match="vertex 25 is not referenced"):
            TriMesh(stray, grid.faces)
        bad = "OFF\n4 1 0\n0 0 0\n9 9 0\n1 0 0\n0 1 0\n3 0 2 3\n"
        with pytest.raises(MeshError, match="vertex 1 is not referenced"):
            load_mesh(bad, "OFF")

    def test_edges_match_row_unique(self, corpus):
        # the 1-D key path against np.unique over (i, j) rows
        for name, mesh in corpus:
            f = mesh.faces
            pairs = np.sort(np.vstack([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
            uniq, counts = np.unique(pairs, axis=0, return_counts=True)
            np.testing.assert_array_equal(mesh.edges, uniq, err_msg=name)
            np.testing.assert_array_equal(mesh.interior_edges, uniq[counts == 2],
                                          err_msg=name)
            np.testing.assert_array_equal(mesh.boundary_edges, uniq[counts == 1],
                                          err_msg=name)
            assert mesh.edges.dtype == uniq.dtype, name

    def test_edge_partition_covers_all_edges(self, plane):
        n_distinct = len(plane.edges)
        assert len(plane.interior_edges) + len(plane.boundary_edges) == n_distinct

    @pytest.mark.parametrize("mesh", [grid_mesh(12, 7), tetrahedron()],
                             ids=["grid", "tetrahedron"])
    def test_bulk_off_parse_matches_token_parse(self, tmp_path, mesh):
        path = tmp_path / "m.off"
        write_off(mesh, path)
        text = path.read_text()
        bulk = load_mesh(text, "off")
        # a comment sends the same content through the token parser
        tokens = load_mesh(text + "# end\n", "off")
        for got, want in ((bulk.vertices, tokens.vertices), (bulk.faces, tokens.faces)):
            assert got.dtype == want.dtype and got.flags.c_contiguous
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(bulk.vertices, mesh.vertices)
        np.testing.assert_array_equal(bulk.faces, mesh.faces)

    @pytest.mark.parametrize("body, match", OFF_ERRORS)
    def test_off_errors_name_the_problem(self, body, match):
        with pytest.raises(MeshError, match=match):
            load_mesh("OFF\n3 1 0\n" + body, "off")

    @pytest.mark.parametrize("text", [
        *("OFF\n3 1 0\n" + body for body, _ in OFF_ERRORS),
        "", "OFF\n", "OFF\n0 0 0\n", "OFF\n1 1 0\n", "OFF\n3 1 0\n\n\n\n\n",
        "OFF\n1 1 0\n\n3 0 0 0\n", "OFF\n1 1 0\n0 0 0\n\n",
    ])
    def test_off_errors_raise_no_warning(self, text):
        # the bulk parser must hand short and empty blocks to the token
        # parser instead of letting np.loadtxt warn about them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError):
                load_mesh(text, "off")

    def test_off_extra_vertex_tokens_and_blank_lines(self):
        # colours after the coordinates and blank lines go through the
        # token parser, which reads the first three coordinates
        text = "OFF\n\n3 1 0\n0 0 0 1\n1 0 0 1\n\n0 1 0 1\n3 0 1 2 7\n"
        mesh = load_mesh(text, "off")
        np.testing.assert_array_equal(mesh.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])

    def test_off_roundtrip(self, tmp_path, tetra):
        path = tmp_path / "t.off"
        write_off(tetra, path)
        back = read_mesh(path)
        np.testing.assert_array_equal(back.faces, tetra.faces)
        np.testing.assert_allclose(back.vertices, tetra.vertices, rtol=0, atol=0)


class TestGeodesics:
    def test_source_distance_zero(self, unit_square):
        d = graph_geodesics(unit_square, 0)
        assert d[0] == 0.0

    def test_single_edge_length(self):
        mesh = single_triangle("right")
        d = graph_geodesics(mesh, 0)
        assert d[1] == pytest.approx(1.0, abs=1e-15)

    def test_grid_matches_bellman_ford_oracle(self, unit_square):
        # corner-to-corner on the 10x10 grid, checked against the
        # independent relaxation-based implementation, exactly
        edges = mesh_edges_with_lengths(unit_square)
        oracle = bellman_ford(unit_square.n_vertices, edges, 0)
        d = graph_geodesics(unit_square, 0)
        np.testing.assert_allclose(d, oracle, rtol=0, atol=1e-12)
        corner = unit_square.n_vertices - 1
        assert d[corner] == pytest.approx(oracle[corner], abs=1e-12)

    def test_symmetry_all_pairs(self, unit_square):
        n = unit_square.n_vertices
        assert n <= 200
        D = graph_geodesics(unit_square, np.arange(n))
        np.testing.assert_allclose(D, D.T, atol=1e-12)

    def test_edge_graph_is_built_once_per_mesh(self, monkeypatch):
        # the double sweep of intrinsic_diameter and a later call share
        # one read-only graph, and get the distances of a fresh mesh's
        graphs = []
        real_dijkstra = lmh_mesh.dijkstra

        def spy(graph, **kwargs):
            graphs.append(graph)
            return real_dijkstra(graph, **kwargs)

        monkeypatch.setattr(lmh_mesh, "dijkstra", spy)
        mesh = grid_mesh(12, 12)
        intrinsic_diameter(mesh)
        d = graph_geodesics(mesh, [0, 5])
        assert len(graphs) == 3 and all(g is graphs[0] for g in graphs)
        assert not graphs[0].data.flags.writeable
        np.testing.assert_array_equal(d[1], graph_geodesics(grid_mesh(12, 12), 5))

    def test_source_out_of_range(self, unit_square):
        with pytest.raises(ValueError):
            graph_geodesics(unit_square, unit_square.n_vertices)

    def test_unreachable_gets_inf(self):
        # two disjoint triangles in one file
        content = (
            "OFF\n6 2 0\n"
            "0 0 0\n1 0 0\n0 1 0\n"
            "5 5 0\n6 5 0\n5 6 0\n"
            "3 0 1 2\n3 3 4 5\n"
        )
        mesh = load_mesh(content, "OFF")
        d = graph_geodesics(mesh, 0)
        assert np.isinf(d[3])


class TestDiameter:
    def test_thin_strip_length(self):
        strip = grid_mesh(60, 2, width=5.0, height=0.01)
        assert intrinsic_diameter(strip) == pytest.approx(5.0, rel=0.02)

    def test_tetrahedron_matches_all_pairs_oracle(self, tetra):
        oracle = all_pairs_shortest(tetra)
        assert intrinsic_diameter(tetra) == pytest.approx(oracle.max(), abs=1e-12)

    def test_single_triangle_is_one(self):
        mesh = single_triangle("equilateral")
        assert intrinsic_diameter(mesh) == pytest.approx(1.0, abs=1e-12)

    def test_disconnected_rejected(self):
        content = (
            "OFF\n6 2 0\n"
            "0 0 0\n1 0 0\n0 1 0\n"
            "5 5 0\n6 5 0\n5 6 0\n"
            "3 0 1 2\n3 3 4 5\n"
        )
        mesh = load_mesh(content, "OFF")
        with pytest.raises(MeshError):
            intrinsic_diameter(mesh)


class TestArea:
    def test_unit_right_triangle(self):
        assert surface_area(single_triangle("right")) == pytest.approx(0.5)

    def test_regular_tetrahedron(self, tetra):
        assert surface_area(tetra) == pytest.approx(np.sqrt(3.0), rel=1e-12)

    def test_region_with_no_complete_triangle(self, unit_square):
        # a single inside vertex cannot contribute a whole face
        u = np.zeros(unit_square.n_vertices)
        u[0] = 1.0
        assert surface_area(unit_square, Region(u)) == 0.0

    def test_rigid_motion_invariance(self, tetra, rng):
        from scipy.spatial.transform import Rotation

        rot = Rotation.random(random_state=7).as_matrix()
        moved = TriMesh(tetra.vertices @ rot.T + rng.normal(size=3), tetra.faces)
        assert surface_area(moved) == pytest.approx(surface_area(tetra), rel=1e-12)
        np.testing.assert_allclose(
            triangle_areas(moved), triangle_areas(tetra), rtol=1e-12
        )


def looped_icosphere(subdivisions):
    """Icosphere subdivided one face and one midpoint at a time."""
    base = icosphere(0)
    vertices, faces = base.vertices, base.faces
    for _ in range(subdivisions):
        verts = list(vertices)
        cache = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in cache:
                m = verts[i] + verts[j]
                m /= np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(m)
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        vertices = np.array(verts)
        faces = np.array(new_faces, dtype=np.int64)
    return vertices, faces


class TestIcosphere:
    @pytest.mark.parametrize("subdivisions", range(6))
    def test_equals_face_by_face_subdivision(self, subdivisions):
        vertices, faces = looped_icosphere(subdivisions)
        mesh = icosphere(subdivisions)
        assert mesh.n_vertices == 10 * 4**subdivisions + 2
        # bit for bit: seeds on icospheres reproduce only if no vertex moves
        assert np.array_equal(mesh.vertices, vertices)
        assert np.array_equal(mesh.faces, faces)
