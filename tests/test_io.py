"""Text formats: exact round trips and malformed-file rejection."""

import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lmh import io as lmhio
from lmh import mesh as lmhmesh
from lmh.localized import Region, SpectralBasis, compute_mh
from lmh.mesh import read_mesh, write_off
from lmh.synth import grid_mesh


class TestRegionFile:
    def test_round_trip_exact(self, tmp_path, rng):
        u = rng.uniform(0.0, 1.0, 37)
        u[:5] = [0.0, 1.0, 0.5, 1.0, 0.0]
        path = tmp_path / "r.txt"
        lmhio.save_region(Region(u), path)
        back = lmhio.load_region(path)
        np.testing.assert_array_equal(back.u, u)

    def test_rejects_out_of_range_values(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("0.5\n1.5\n")
        with pytest.raises(ValueError):
            lmhio.load_region(path)

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("# membership\n0.5\n\n1  # inside\r\n0\n")
        np.testing.assert_array_equal(lmhio.load_region(path).u, [0.5, 1.0, 0.0])

    @pytest.mark.parametrize("text, match", [
        ("", "no values per line; expected one"),
        ("# only a comment\n\n", "no values per line; expected one"),
        ("0.5 0.5\n1 1\n", "2 values per line; expected one"),
        ("0.5\n\nnan?\n", "line 3: cannot read 'nan\\?' as a row of numbers"),
    ], ids=["empty", "comment-only", "two-columns", "bad-value"])
    def test_malformed_files_name_the_file(self, tmp_path, text, match):
        path = tmp_path / "r.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}(: |, ){match}"):
            lmhio.load_region(path)


class TestBasisFile:
    def test_round_trip_exact(self, tmp_path, unit_square):
        basis = compute_mh(unit_square, 4)
        bp, sp = tmp_path / "b.txt", tmp_path / "s.txt"
        lmhio.save_basis(basis, bp, sp)
        back = lmhio.load_basis(bp)
        np.testing.assert_array_equal(back.functions, basis.functions)
        np.testing.assert_array_equal(np.loadtxt(sp), basis.spectrum)
        assert back.kind == "MH"

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("3\n1 2 3\n")
        with pytest.raises(ValueError, match="header"):
            lmhio.load_basis(path)

    @pytest.mark.parametrize("header", ["", "a b", "2 2 2", "# 2 2"])
    def test_header_that_is_not_two_integers(self, tmp_path, header):
        # "a b" once raised int()'s "invalid literal" without the file
        path = tmp_path / "b.txt"
        path.write_text(header + "\n1 2\n3 4\n")
        message = f"{path}: malformed basis header (expected 'n m')"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lmhio.load_basis(path)

    def test_rejects_shape_mismatch(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("3 2\n1 2\n3 4\n")
        with pytest.raises(ValueError, match="promises"):
            lmhio.load_basis(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["", "\n# no rows\n"], ids=["empty", "comment"])
    def test_header_without_rows_raises_without_a_warning(self, tmp_path, body):
        path = tmp_path / "b.txt"
        path.write_text("121 0\n" + body)
        with pytest.raises(ValueError, match="header promises 121x0"):
            lmhio.load_basis(path)

    def test_rows_after_blank_lines_and_comments(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("2 2\n\n# first row\n1 2\n3 4\n")
        np.testing.assert_array_equal(lmhio.load_basis(path).functions,
                                      [[1.0, 2.0], [3.0, 4.0]])


class TestP2pFile:
    def test_round_trip(self, tmp_path):
        p2p = np.array([4, 0, 2, 2, 17])
        path = tmp_path / "p.txt"
        lmhio.save_p2p(p2p, path)
        back = lmhio.load_p2p(path)
        assert back.dtype.kind == "i"
        np.testing.assert_array_equal(back, p2p)

    def test_single_entry(self, tmp_path):
        path = tmp_path / "p.txt"
        lmhio.save_p2p(np.array([3]), path)
        back = lmhio.load_p2p(path)
        assert back.shape == (1,)

    @pytest.mark.parametrize("text, match", [
        ("0 1\n2 3\n", "2 values per line; expected one"),
        ("4\n1.5\n", "line 2: cannot read '1.5' as a row of integers"),
        ("4\n99999999999999999999\n", "line 2: cannot read '9+' as a row of integers"),
    ], ids=["two-columns", "fraction", "overflow"])
    def test_one_integer_per_line(self, tmp_path, text, match):
        path = tmp_path / "p.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}(: |, ){match}"):
            lmhio.load_p2p(path)


class TestCmatrixFile:
    def test_round_trip_exact(self, tmp_path, rng):
        C = rng.standard_normal((5, 3))
        path = tmp_path / "c.txt"
        lmhio.save_cmatrix(C, path)
        np.testing.assert_array_equal(lmhio.load_cmatrix(path), C)


class TestCurveFile:
    def test_round_trip_exact(self, tmp_path):
        t = np.linspace(0.0, 0.5, 100)
        f = np.minimum(1.0, t * 3.0)
        path = tmp_path / "curve.csv"
        lmhio.save_curve(t, f, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(data[:, 0], t)
        np.testing.assert_array_equal(data[:, 1], f)
        assert path.read_text().splitlines()[0] == "threshold,fraction"


class TestScalarFieldFile:
    def test_round_trip_exact(self, tmp_path, rng):
        x = rng.standard_normal(11)
        path = tmp_path / "f.txt"
        lmhio.save_scalar_field(x, path)
        np.testing.assert_array_equal(np.loadtxt(path, ndmin=1), x)


class TestExactBytes:
    """The writers' byte format, pinned on values whose shortest and
    17-digit forms differ, signed zero, the smallest subnormal, a large
    exponent and the infinities."""

    VALUES = np.array([0.1, 1.0, -0.0, 5e-324, 1e300, np.inf, -np.inf])
    TEXT = ["0.10000000000000001", "1", "-0", "4.9406564584124654e-324",
            "1.0000000000000001e+300", "inf", "-inf"]

    def test_one_value_per_line(self, tmp_path):
        expected = "".join(f"{t}\n" for t in self.TEXT).encode()
        region, field = tmp_path / "region.txt", tmp_path / "field.txt"
        lmhio.save_region(self.VALUES, region)
        lmhio.save_scalar_field(self.VALUES, field)
        assert region.read_bytes() == expected
        assert field.read_bytes() == expected
        lmhio.save_scalar_field([np.nan, -2.5], field)
        assert field.read_bytes() == b"nan\n-2.5\n"

    def test_basis_and_cmatrix(self, tmp_path):
        M = self.VALUES[:6].reshape(2, 3)
        rows = " ".join(self.TEXT[:3]) + "\n" + " ".join(self.TEXT[3:6]) + "\n"
        basis = SpectralBasis(functions=M, spectrum=self.VALUES[[1, 0, 4]],
                              kind="MH")
        bp, sp, cp = tmp_path / "b.txt", tmp_path / "s.txt", tmp_path / "c.txt"
        lmhio.save_basis(basis, bp, sp)
        lmhio.save_cmatrix(M, cp)
        assert bp.read_bytes() == ("2 3\n" + rows).encode()
        assert sp.read_bytes() == (
            "1\n0.10000000000000001\n1.0000000000000001e+300\n"
        ).encode()
        assert cp.read_bytes() == bp.read_bytes()

    def test_curve_and_p2p(self, tmp_path):
        cp, pp = tmp_path / "curve.csv", tmp_path / "p2p.txt"
        lmhio.save_curve(self.VALUES[:3], self.VALUES[3:6], cp)
        lmhio.save_p2p(np.array([4, 0, 17]), pp)
        assert cp.read_bytes() == (
            "threshold,fraction\n"
            + "".join(f"{a},{b}\n" for a, b in zip(self.TEXT[:3], self.TEXT[3:6]))
        ).encode()
        assert pp.read_bytes() == b"4\n0\n17\n"

    def test_off(self, tmp_path):
        path = tmp_path / "m.off"
        vertices = np.vstack([self.VALUES[:3], self.VALUES[3:6], [2.0, 0.5, -3.0]])
        write_off((vertices, [[0, 1, 2], [2, 1, 0]]), path)
        assert path.read_bytes() == (
            "OFF\n3 2 0\n"
            + " ".join(self.TEXT[:3]) + "\n"
            + " ".join(self.TEXT[3:6]) + "\n"
            + "2 0.5 -3\n3 0 1 2\n3 2 1 0\n"
        ).encode()


@pytest.fixture(scope="module")
def off_path(tmp_path_factory):
    return tmp_path_factory.mktemp("off") / "m.off"


@settings(max_examples=60, deadline=None)
@given(coords=arrays(np.float64, (16, 3),
                     elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_off_round_trip_is_exact(off_path, coords):
    faces = grid_mesh(3, 3).faces
    write_off((coords, faces), off_path)
    back = read_mesh(off_path)
    assert back.vertices.tobytes() == coords.tobytes()
    np.testing.assert_array_equal(back.faces, faces)


def savetxt_bytes(X, **kwargs):
    """The bytes of ``np.savetxt`` at 17 digits, the writers' reference."""
    buf = io.BytesIO()
    np.savetxt(buf, X, fmt="%.17g", **kwargs)
    return buf.getvalue()


# special values first, so that hypothesis draws them often
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e300, -1e300, 1.0 / 3.0, np.inf, -np.inf, np.nan]),
    st.floats(),
)
INT64 = st.integers(-(2**63), 2**63 - 1)


def tables(columns=st.integers(1, 5)):
    """Float64 arrays of 0 to 12 rows."""
    return arrays(np.float64, st.tuples(st.integers(0, 12), columns),
                  elements=FLOATS)


class TestWriterMatchesSavetxt:
    """Every writer gives the bytes of ``np.savetxt`` with ``%.17g``, the
    same header and delimiter, and the integer files their ``%d`` lines,
    also when a file spans several of ``_write_rows``' blocks."""

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        return tmp_path_factory.mktemp("writers")

    @settings(max_examples=80, deadline=None)
    @given(column=arrays(np.float64, st.integers(0, 30), elements=FLOATS),
           block=st.integers(1, 9))
    def test_one_value_per_line(self, folder, column, block):
        expected = savetxt_bytes(column)
        with mock.patch.object(lmhmesh, "_WRITE_BLOCK_VALUES", block):
            lmhio.save_region(column, folder / "region.txt")
            lmhio.save_scalar_field(column, folder / "field.txt")
        assert (folder / "region.txt").read_bytes() == expected
        assert (folder / "field.txt").read_bytes() == expected

    @settings(max_examples=80, deadline=None)
    @given(M=tables(), block=st.integers(1, 9), data=st.data())
    def test_matrices(self, folder, M, block, data):
        spectrum = data.draw(arrays(np.float64, M.shape[1], elements=FLOATS))
        basis = SpectralBasis(functions=M, spectrum=spectrum, kind="MH")
        bp, sp, cp = folder / "b.txt", folder / "s.txt", folder / "c.txt"
        with mock.patch.object(lmhmesh, "_WRITE_BLOCK_VALUES", block):
            lmhio.save_basis(basis, bp, sp)
            lmhio.save_cmatrix(M, cp)
        header = f"{M.shape[0]} {M.shape[1]}"
        assert bp.read_bytes() == savetxt_bytes(M, header=header, comments="")
        assert sp.read_bytes() == savetxt_bytes(spectrum)
        assert cp.read_bytes() == bp.read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(M=tables(st.just(2)), block=st.integers(1, 9))
    def test_curve(self, folder, M, block):
        path = folder / "curve.csv"
        with mock.patch.object(lmhmesh, "_WRITE_BLOCK_VALUES", block):
            lmhio.save_curve(M[:, 0], M[:, 1], path)
        assert path.read_bytes() == savetxt_bytes(
            M, delimiter=",", header="threshold,fraction", comments="")

    @settings(max_examples=80, deadline=None)
    @given(p2p=arrays(np.int64, st.integers(0, 30), elements=INT64),
           block=st.integers(1, 9))
    def test_p2p(self, folder, p2p, block):
        path = folder / "p2p.txt"
        with mock.patch.object(lmhmesh, "_WRITE_BLOCK_VALUES", block):
            lmhio.save_p2p(p2p, path)
        assert path.read_bytes() == "".join("%d\n" % i for i in p2p).encode()

    @settings(max_examples=80, deadline=None)
    @given(vertices=tables(st.just(3)),
           faces=arrays(np.int64, st.tuples(st.integers(0, 12), st.just(3)),
                        elements=INT64),
           block=st.integers(1, 9))
    def test_off(self, folder, vertices, faces, block):
        path = folder / "m.off"
        with mock.patch.object(lmhmesh, "_WRITE_BLOCK_VALUES", block):
            write_off((vertices, faces), path)
        assert path.read_bytes() == (
            f"OFF\n{len(vertices)} {len(faces)} 0\n"
            + "".join("%.17g %.17g %.17g\n" % tuple(v) for v in vertices)
            + "".join("3 %d %d %d\n" % tuple(f) for f in faces)
        ).encode()
