"""End-to-end runs of every subcommand plus exit-code contracts, and the
package-root names the README documents."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lmh
from lmh import cli
from lmh import io as lmhio
from lmh.fem import assemble_mass, mass_diagonal
from lmh.localized import Region
from lmh.mesh import read_mesh
from lmh.solvers import NumericalError
from lmh.synth import grid_mesh, icosphere
from lmh.mesh import write_off


@pytest.fixture(scope="module")
def mesh_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("meshes") / "square.off"
    write_off(grid_mesh(10, 10), path)
    return path


@pytest.fixture(scope="module")
def sphere_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("meshes") / "sphere.off"
    write_off(icosphere(2, radius=5.0), path)
    return path


_BASIS_KEYS = {"command", "n_vertices", "k", "lambda_first", "lambda_last",
               "basis_file", "spectrum_file"}

# exact key set of each subcommand's JSON summary
SUMMARY_KEYS = {
    "mh": _BASIS_KEYS,
    "lmh": _BASIS_KEYS | {"kprime", "mu_r", "mu_perp", "solver",
                          "phi_overlap_max", "orthonormality_defect"},
    "pmh": _BASIS_KEYS | {"submesh_vertices"},
    "region": {"command", "n_vertices", "binary", "u_max", "u_sum",
               "region_file"},
    "gap": {"command", "kprime", "mu_r", "mu_perp", "lam_kprime_W",
            "lam_next_W", "lam1_Q", "gap", "threshold", "passed"},
    "bound": {"command", "kprime", "k", "mu_r", "mu_perp", "tolerance",
              "lmh_spectrum", "submesh_spectrum", "min_margin", "passed"},
    "weyl": {"command", "k", "kprime", "slope", "intercept", "r_squared",
             "region_area", "normalized_slope"},
    "reconstruct": {"command", "n_vertices", "n_functions", "mean_error",
                    "max_error", "mesh_file", "error_file"},
    "fmap": {"command", "rows", "cols", "frobenius", "cmatrix_file"},
    "p2p": {"command", "n", "p2p_file"},
    "error-curve": {"command", "n", "mean_error", "median_error",
                    "exact_fraction", "curve_file"},
}
OPTIONAL_KEYS = {"fmap": {"offblock_energy"}}


def run_json(capsys, argv):
    """Run the CLI, parse the single-line JSON summary and check its keys."""
    code = cli.run(argv)
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1])
    command = argv[0]
    assert summary["command"] == command
    assert set(summary) - OPTIONAL_KEYS.get(command, set()) == SUMMARY_KEYS[command]
    return code, summary


def make_region(capsys, mesh_file, out_dir, box=("0.0", "0.5", "0.0", "0.5")):
    code, summary = run_json(capsys, [
        "region", "--mesh", str(mesh_file),
        "--box", *box, "--out-dir", str(out_dir),
    ])
    assert code == 0
    return summary["region_file"]


def test_package_root_exports_the_readme_names():
    for name in lmh.__all__:
        assert getattr(lmh, name) is not None, name
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = re.findall(r"^from lmh import (.+)$", readme, flags=re.MULTILINE)
    assert lines, "README has no `from lmh import ...` line"
    names = {name.strip() for line in lines for name in line.split(",")}
    assert names <= set(lmh.__all__), names - set(lmh.__all__)


class TestMh:
    def test_computes_and_saves_basis(self, capsys, mesh_file, tmp_path):
        code, summary = run_json(capsys, [
            "mh", "--mesh", str(mesh_file), "--k", "6",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert summary["k"] == 6 and summary["n_vertices"] == 121
        basis = lmhio.load_basis(summary["basis_file"])
        assert basis.functions.shape == (121, 6)
        mesh = read_mesh(mesh_file)
        a = mass_diagonal(assemble_mass(mesh))
        gram = basis.functions.T @ (a[:, None] * basis.functions)
        assert np.abs(gram - np.eye(6)).max() <= 1e-8
        spectrum = np.loadtxt(summary["spectrum_file"])
        assert np.all(np.diff(spectrum) >= -1e-12)
        assert summary["lambda_first"] == spectrum[0]
        assert summary["lambda_last"] == spectrum[-1]

    def test_reruns_are_byte_identical(self, capsys, mesh_file, tmp_path):
        args = ["mh", "--mesh", str(mesh_file), "--k", "5", "--seed", "4"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert cli.run(args + ["--out-dir", str(d1)]) == 0
        assert cli.run(args + ["--out-dir", str(d2)]) == 0
        capsys.readouterr()
        assert (d1 / "mh_basis.txt").read_bytes() == (
            d2 / "mh_basis.txt"
        ).read_bytes()
        assert (d1 / "mh_spectrum.txt").read_bytes() == (
            d2 / "mh_spectrum.txt"
        ).read_bytes()

    def test_prefix_and_nested_out_dir(self, capsys, mesh_file, tmp_path):
        out = tmp_path / "deep" / "er"
        code, summary = run_json(capsys, [
            "mh", "--mesh", str(mesh_file), "--k", "3",
            "--out-dir", str(out), "--prefix", "run7_",
        ])
        assert code == 0
        assert (out / "run7_mh_basis.txt").exists()

    def test_disconnected_mesh_with_the_default_shift(self, capsys, tmp_path):
        one, two = grid_mesh(20, 20), grid_mesh(20, 20, origin=(3.0, 0.0))
        path = tmp_path / "two_grids.off"
        write_off((np.vstack([one.vertices, two.vertices]),
                   np.vstack([one.faces, two.faces + one.n_vertices])), path)
        code, summary = run_json(capsys, [
            "mh", "--mesh", str(path), "--k", "3", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert abs(summary["lambda_first"]) <= 1e-10
        assert summary["lambda_last"] > 9.0


class TestRegionCommand:
    def test_box_region_is_binary(self, capsys, mesh_file, tmp_path):
        code, summary = run_json(capsys, [
            "region", "--mesh", str(mesh_file),
            "--box", "0.0", "0.5", "0.0", "0.5", "--out-dir", str(tmp_path),
        ])
        assert code == 0 and summary["binary"]
        region = lmhio.load_region(summary["region_file"])
        assert region.is_binary and len(region) == 121
        assert np.count_nonzero(region.u == 1.0) == summary["u_sum"] == 36

    def test_soft_region_from_seeds(self, capsys, mesh_file, tmp_path):
        code, summary = run_json(capsys, [
            "region", "--mesh", str(mesh_file),
            "--seeds", "60", "--variance", "0.05",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0 and not summary["binary"]
        assert summary["u_max"] == 1.0
        region = lmhio.load_region(summary["region_file"])
        assert region.u[60] == 1.0

    def test_threshold_binarizes(self, capsys, mesh_file, tmp_path):
        code, summary = run_json(capsys, [
            "region", "--mesh", str(mesh_file),
            "--seeds", "60", "--variance", "0.05", "--threshold", "0.5",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0 and summary["binary"]

    def test_conflicting_and_missing_selectors(self, capsys, mesh_file,
                                               tmp_path):
        base = ["region", "--mesh", str(mesh_file), "--out-dir",
                str(tmp_path)]
        assert cli.run(base + ["--seeds", "0", "--box", "0", "1", "0", "1"]) == 1
        assert cli.run(base) == 1
        assert cli.run(base + ["--seeds", "400"]) == 1
        assert cli.run(base + ["--box", "9", "10", "9", "10"]) == 1
        capsys.readouterr()


class TestLmh:
    def test_localized_basis_summary(self, capsys, mesh_file, tmp_path):
        region_file = make_region(capsys, mesh_file, tmp_path)
        code, summary = run_json(capsys, [
            "lmh", "--mesh", str(mesh_file), "--region", region_file,
            "--k", "5", "--kprime", "8", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert summary["kprime"] == 8
        assert summary["orthonormality_defect"] <= 1e-8
        assert summary["phi_overlap_max"] <= 1e-3
        assert summary["mu_perp"] >= 1e5
        basis = lmhio.load_basis(summary["basis_file"])
        assert basis.functions.shape == (121, 5)

    def test_phi_reuse(self, capsys, mesh_file, tmp_path):
        code, mh_summary = run_json(capsys, [
            "mh", "--mesh", str(mesh_file), "--k", "8",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        region_file = make_region(capsys, mesh_file, tmp_path)
        code, summary = run_json(capsys, [
            "lmh", "--mesh", str(mesh_file), "--region", region_file,
            "--k", "4", "--phi", mh_summary["basis_file"],
            "--out-dir", str(tmp_path), "--prefix", "reuse_",
        ])
        assert code == 0
        assert summary["kprime"] == 8  # defaults to the file size
        code = cli.run([
            "lmh", "--mesh", str(mesh_file), "--region", region_file,
            "--k", "4", "--phi", mh_summary["basis_file"], "--kprime", "9",
            "--out-dir", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == 1  # more than the file provides

    def test_default_mu_perp_with_and_without_phi(self, capsys, tmp_path):
        # on a square 0.1 wide, 10 lam_21 is above 1e5: lmh takes it when
        # it computes the global harmonics, and 1e5 with --phi, whose
        # file holds no lam_{k'+1}
        mesh = tmp_path / "small.off"
        write_off(grid_mesh(10, 10, width=0.1, height=0.1), mesh)
        region_file = make_region(capsys, mesh, tmp_path,
                                  box=("0.025", "0.075", "0.025", "0.075"))
        code, mh_summary = run_json(capsys, [
            "mh", "--mesh", str(mesh), "--k", "20", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        argv = ["lmh", "--mesh", str(mesh), "--region", region_file, "--k", "5",
                "--out-dir", str(tmp_path)]
        code, computed = run_json(capsys, [*argv, "--kprime", "20"])
        assert code == 0
        code, given = run_json(capsys, [*argv, "--phi", mh_summary["basis_file"]])
        assert code == 0
        assert computed["kprime"] == given["kprime"] == 20
        assert computed["mu_perp"] == pytest.approx(169375.7, abs=0.05)
        assert given["mu_perp"] == 1e5

    def test_phi_file_with_a_nan_is_rejected(self, capsys, mesh_file, tmp_path):
        code, mh_summary = run_json(capsys, [
            "mh", "--mesh", str(mesh_file), "--k", "6",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        path = Path(mh_summary["basis_file"])
        lines = path.read_text().splitlines(keepends=True)
        values = lines[5].split()
        values[2] = "nan"
        lines[5] = " ".join(values) + "\n"
        bad = tmp_path / "nan_basis.txt"
        bad.write_text("".join(lines))
        region_file = make_region(capsys, mesh_file, tmp_path)
        code = cli.run([
            "lmh", "--mesh", str(mesh_file), "--region", region_file,
            "--k", "4", "--phi", str(bad), "--out-dir", str(tmp_path),
        ])
        assert code == 1
        assert "phi must be finite" in capsys.readouterr().err

    def test_region_length_mismatch(self, capsys, mesh_file, sphere_file,
                                    tmp_path):
        region_file = make_region(capsys, mesh_file, tmp_path)
        code = cli.run([
            "lmh", "--mesh", str(sphere_file), "--region", region_file,
            "--k", "4", "--out-dir", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == 1

    def test_reruns_are_byte_identical(self, capsys, mesh_file, tmp_path):
        region_file = make_region(capsys, mesh_file, tmp_path)
        args = ["lmh", "--mesh", str(mesh_file), "--region", region_file,
                "--k", "4", "--kprime", "6", "--seed", "2"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert cli.run(args + ["--out-dir", str(d1)]) == 0
        assert cli.run(args + ["--out-dir", str(d2)]) == 0
        capsys.readouterr()
        assert (d1 / "lmh_basis.txt").read_bytes() == (
            d2 / "lmh_basis.txt"
        ).read_bytes()


class TestBlasThreadIndependence:
    def test_chain_outputs_match_across_thread_counts(self, tmp_path):
        # at n=2562 the BLAS calls of every command are large enough to be
        # split across threads when the pools are left at the default;
        # fmap's C matrix differed between 1 and 2 threads before every
        # command ran on serial BLAS. The command line opens no serial
        # scope, so every command's small BLAS must sit in one of the
        # library's
        mesh = tmp_path / "sphere.off"
        write_off(icosphere(4, radius=5.0), mesh)
        region = tmp_path / "region.txt"
        lmhio.save_region(Region.binary(2562, np.arange(500)), region)
        truth = tmp_path / "truth.txt"
        lmhio.save_p2p(np.arange(2562), truth)
        # k = n - 1 on 169 vertices: its basis is the whole space, which
        # once went to a dense solve at the process thread count
        small = tmp_path / "small.off"
        write_off(grid_mesh(12, 12), small)
        src = str(Path(lmh.__file__).resolve().parent.parent)
        mh, m, r = "out/mh_basis.txt", str(mesh), str(region)
        chain = [
            ["region", "--mesh", m, "--seeds", "0", "--variance", "4",
             "--threshold", "0.5"],
            ["mh", "--mesh", m, "--k", "20"],
            ["mh", "--mesh", str(small), "--k", "168", "--prefix", "small_"],
            ["pmh", "--mesh", m, "--region", "out/region.txt", "--k", "10"],
            ["weyl", "--mesh", m, "--region", "out/region.txt", "--k", "20",
             "--kprime", "10"],
            ["lmh", "--mesh", m, "--region", r, "--phi", mh, "--k", "30"],
            ["gap", "--mesh", m, "--region", r, "--kprime", "20"],
            ["bound", "--mesh", m, "--region", r, "--kprime", "5", "--k", "10"],
            ["reconstruct", "--mesh", m, "--basis", mh, "out/lmh_basis.txt"],
            ["fmap", "--basis-x", mh, "--basis-y", mh, "--mesh-y", m,
             "--p2p", str(truth)],
            ["p2p", "--cmatrix", "out/cmatrix.txt", "--basis-x", mh,
             "--basis-y", mh],
            ["error-curve", "--mesh", m, "--p2p", "out/p2p.txt",
             "--truth", str(truth)],
        ]
        # one process per thread count runs the whole chain, each command
        # through cli.run, and prints the exit codes last
        script = (
            "import json, sys\n"
            "from lmh import cli\n"
            "codes = [cli.run(argv + ['--out-dir', 'out'])"
            " for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps(codes))\n"
        )
        outputs, stdouts = {}, {}
        for threads in ("1", "2"):
            cwd = tmp_path / f"threads{threads}"
            cwd.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH")])
            )
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps(chain)],
                cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
            )
            *stdouts[threads], codes = proc.stdout.splitlines()
            assert json.loads(codes) == [0] * len(chain), proc.stderr
            outputs[threads] = {
                p.name: p.read_bytes() for p in (cwd / "out").iterdir()
            }
        assert sorted(outputs["1"]) == [
            "cmatrix.txt", "curve.csv", "lmh_basis.txt", "lmh_spectrum.txt",
            "mh_basis.txt", "mh_spectrum.txt", "p2p.txt", "pmh_basis.txt",
            "pmh_spectrum.txt", "recon_error.txt", "reconstructed.off",
            "region.txt", "small_mh_basis.txt", "small_mh_spectrum.txt",
        ]
        for name in outputs["1"]:
            assert outputs["1"][name] == outputs["2"][name], name
        # the JSON summaries too, orthonormality_defect and
        # phi_overlap_max included
        assert len(stdouts["1"]) == len(chain)
        for argv, one, two in zip(chain, stdouts["1"], stdouts["2"]):
            assert one == two, argv[0]


class TestPmh:
    def test_submesh_basis(self, capsys, mesh_file, tmp_path):
        region_file = make_region(capsys, mesh_file, tmp_path)
        code, summary = run_json(capsys, [
            "pmh", "--mesh", str(mesh_file), "--region", region_file,
            "--k", "5", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert summary["submesh_vertices"] == 36
        basis = lmhio.load_basis(summary["basis_file"])
        assert basis.functions.shape == (121, 5)

    def test_soft_region_rejected(self, capsys, mesh_file, tmp_path):
        code, summary = run_json(capsys, [
            "region", "--mesh", str(mesh_file), "--seeds", "60",
            "--variance", "0.05", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        code = cli.run([
            "pmh", "--mesh", str(mesh_file),
            "--region", summary["region_file"],
            "--k", "3", "--out-dir", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == 1


class TestVerificationCommands:
    def test_gap_control_passes(self, capsys, mesh_file):
        code, summary = run_json(capsys, [
            "gap", "--mesh", str(mesh_file), "--kprime", "6",
        ])
        assert code == 0 and summary["passed"]
        assert abs(summary["lam1_Q"] - summary["lam_next_W"]) <= 1e-6 * abs(
            summary["lam_next_W"]
        )

    def test_gap_with_region_passes(self, capsys, mesh_file, tmp_path):
        region_file = make_region(capsys, mesh_file, tmp_path)
        code, summary = run_json(capsys, [
            "gap", "--mesh", str(mesh_file), "--region", region_file,
            "--kprime", "5",
        ])
        assert code == 0 and summary["passed"]

    def test_gap_failure_exits_2(self, capsys, mesh_file, recwarn):
        # mu_perp far below lambda_{k'+1} destroys the gap; the report
        # must say so and the process must signal it
        code, summary = run_json(capsys, [
            "gap", "--mesh", str(mesh_file), "--kprime", "5",
            "--mu-perp", "1.0",
        ])
        assert code == 2 and not summary["passed"]

    def test_warning_prints_without_location(self, capsys, mesh_file):
        # Python's default format starts with "<path>/cli.py:<line>:", which
        # depends on the checkout; stdout keeps its JSON summary
        code = cli.run([
            "gap", "--mesh", str(mesh_file), "--kprime", "5",
            "--mu-perp", "1.0",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["passed"] is False
        assert captured.err.splitlines() == [
            "warning: mu_perp=1 does not exceed lambda_(k'+1)=37.9752; "
            "the gap bound assumes it does"
        ]

    def test_bound_passes(self, capsys, mesh_file, tmp_path, recwarn):
        region_file = make_region(capsys, mesh_file, tmp_path,
                                  box=("0.0", "0.5", "0.0", "1.0"))
        code, summary = run_json(capsys, [
            "bound", "--mesh", str(mesh_file), "--region", region_file,
            "--kprime", "3", "--k", "6",
        ])
        assert code == 0 and summary["passed"]
        assert summary["min_margin"] >= 0.0
        assert len(summary["lmh_spectrum"]) == 6
        assert len(summary["submesh_spectrum"]) == 9

    def test_bound_rejects_soft_region(self, capsys, mesh_file, tmp_path):
        code, summary = run_json(capsys, [
            "region", "--mesh", str(mesh_file), "--seeds", "60",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        code = cli.run([
            "bound", "--mesh", str(mesh_file),
            "--region", summary["region_file"], "--kprime", "2", "--k", "3",
        ])
        capsys.readouterr()
        assert code == 1

    def test_weyl_fit(self, capsys, mesh_file, tmp_path, recwarn):
        region_file = make_region(capsys, mesh_file, tmp_path,
                                  box=("0.0", "0.6", "0.0", "0.6"))
        code, summary = run_json(capsys, [
            "weyl", "--mesh", str(mesh_file), "--region", region_file,
            "--k", "20", "--kprime", "10",
        ])
        assert code == 0
        assert summary["slope"] > 0.0
        assert 0.0 <= summary["r_squared"] <= 1.0
        assert summary["normalized_slope"] == pytest.approx(
            summary["slope"] * np.sqrt(summary["region_area"])
        )


class TestReconstruct:
    def test_round_trip_outputs(self, capsys, mesh_file, tmp_path):
        code, mh_summary = run_json(capsys, [
            "mh", "--mesh", str(mesh_file), "--k", "12",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        code, summary = run_json(capsys, [
            "reconstruct", "--mesh", str(mesh_file),
            "--basis", mh_summary["basis_file"], "--out-dir", str(tmp_path),
        ])
        assert code == 0
        rec = read_mesh(summary["mesh_file"])
        assert rec.n_vertices == 121
        errs = np.loadtxt(summary["error_file"], ndmin=1)
        assert errs.shape == (121,)
        assert summary["mean_error"] == pytest.approx(errs.mean())
        assert summary["max_error"] >= summary["mean_error"]

    def test_basis_mesh_mismatch(self, capsys, mesh_file, sphere_file,
                                 tmp_path):
        code, mh_summary = run_json(capsys, [
            "mh", "--mesh", str(mesh_file), "--k", "4",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        code = cli.run([
            "reconstruct", "--mesh", str(sphere_file),
            "--basis", mh_summary["basis_file"], "--out-dir", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == 1


class TestCorrespondenceChain:
    def test_identity_chain(self, capsys, mesh_file, tmp_path):
        code, mh_summary = run_json(capsys, [
            "mh", "--mesh", str(mesh_file), "--k", "8",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        basis_file = mh_summary["basis_file"]
        p2p_file = tmp_path / "truth_p2p.txt"
        lmhio.save_p2p(np.arange(121), p2p_file)

        code, fmap_summary = run_json(capsys, [
            "fmap", "--basis-x", basis_file, "--basis-y", basis_file,
            "--mesh-y", str(mesh_file), "--p2p", str(p2p_file),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        C = lmhio.load_cmatrix(fmap_summary["cmatrix_file"])
        assert np.abs(C - np.eye(8)).max() <= 1e-10

        code, p2p_summary = run_json(capsys, [
            "p2p", "--cmatrix", fmap_summary["cmatrix_file"],
            "--basis-x", basis_file, "--basis-y", basis_file,
            "--out-dir", str(tmp_path),
        ])
        assert code == 0

        code, curve_summary = run_json(capsys, [
            "error-curve", "--mesh", str(mesh_file),
            "--p2p", p2p_summary["p2p_file"], "--truth", str(p2p_file),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert curve_summary["mean_error"] == 0.0
        assert curve_summary["exact_fraction"] == 1.0
        curve = np.loadtxt(curve_summary["curve_file"], delimiter=",",
                           skiprows=1, ndmin=2)
        assert curve.shape == (100, 2)
        np.testing.assert_array_equal(curve[:, 1], 1.0)

    def test_fmap_offblock_report(self, capsys, mesh_file, tmp_path):
        code, mh_summary = run_json(capsys, [
            "mh", "--mesh", str(mesh_file), "--k", "8",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        p2p_file = tmp_path / "p2p.txt"
        lmhio.save_p2p(np.arange(121), p2p_file)
        code, summary = run_json(capsys, [
            "fmap", "--basis-x", mh_summary["basis_file"],
            "--basis-y", mh_summary["basis_file"],
            "--mesh-y", str(mesh_file), "--p2p", str(p2p_file),
            "--kprime", "5", "--k", "3", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert summary["offblock_energy"] <= 1e-12

    def test_p2p_shape_mismatch(self, capsys, mesh_file, tmp_path):
        code, mh_summary = run_json(capsys, [
            "mh", "--mesh", str(mesh_file), "--k", "6",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        C_file = tmp_path / "c.txt"
        lmhio.save_cmatrix(np.eye(5), C_file)
        code = cli.run([
            "p2p", "--cmatrix", str(C_file),
            "--basis-x", mh_summary["basis_file"],
            "--basis-y", mh_summary["basis_file"],
            "--out-dir", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == 1


class TestBench:
    def test_times_both_paths(self, capsys, mesh_file, tmp_path):
        code = cli.run([
            "bench", "--mesh", str(mesh_file), "--k", "5", "--kprime", "3",
            "--paths", "relaxed,hard", "--out-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "mesh,n_vertices,k,kprime,path,status,seconds"
        rows = [line.split(",") for line in out[1:]]
        assert [r[4] for r in rows] == ["relaxed", "hard"]
        assert all(r[5] == "ok" for r in rows)
        assert all(float(r[6]) >= 0.0 for r in rows)
        assert (tmp_path / "bench.csv").read_text().strip() == "\n".join(
            out
        ).strip()

    def test_oversized_request_is_refused(self, capsys, mesh_file, tmp_path):
        code = cli.run([
            "bench", "--mesh", str(mesh_file), "--k", "119", "--kprime", "20",
            "--paths", "relaxed", "--out-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        row = captured.out.strip().splitlines()[-1].split(",")
        assert row[5] == "refused" and row[6] == ""

    def test_numerical_failure_is_a_failed_row(self, capsys, mesh_file,
                                               tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("did not converge")

        monkeypatch.setattr(cli, "compute_lmh", boom)
        code = cli.run([
            "bench", "--mesh", str(mesh_file), "--k", "5", "--kprime", "3",
            "--paths", "relaxed", "--out-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip().splitlines()[-1] == (
            "square.off,121,5,3,relaxed,failed,"
        )
        assert captured.err == "# square.off relaxed: did not converge\n"

    def test_unknown_path_rejected(self, capsys, mesh_file, tmp_path):
        code = cli.run([
            "bench", "--mesh", str(mesh_file), "--paths", "turbo",
            "--out-dir", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == 1


class TestExitCodes:
    def test_unknown_flag(self, capsys, mesh_file):
        assert cli.run(["mh", "--mesh", str(mesh_file), "--k", "3",
                        "--frobnicate"]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli.run(["transmogrify"]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert cli.run(["mh", "--k", "3"]) == 1
        capsys.readouterr()

    def test_missing_mesh_file(self, capsys, tmp_path):
        assert cli.run(["mh", "--mesh", str(tmp_path / "nope.off"),
                        "--k", "3"]) == 1
        capsys.readouterr()

    def test_bad_numeric_arguments(self, capsys, mesh_file):
        assert cli.run(["mh", "--mesh", str(mesh_file), "--k", "0"]) == 1
        assert cli.run(["mh", "--mesh", str(mesh_file), "--k", "three"]) == 1
        assert cli.run(["mh", "--mesh", str(mesh_file), "--k", "3",
                        "--seed", "-1"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["mh", "--k", "0"], "argument --k: must be a positive integer"),
        (["mh", "--k", "x"], "argument --k: not an integer: 'x'"),
        (["region", "--seeds", "0", "--variance", "-1"],
         "argument --variance: must be non-negative"),
        (["region", "--seeds", "0", "--variance", "x"],
         "argument --variance: not a number: 'x'"),
        (["lmh", "--region", "region.txt", "--k", "3", "--mu-r", "nan"],
         "argument --mu-r: must be non-negative"),
    ])
    def test_numeric_argument_messages(self, capsys, mesh_file, argv, message):
        assert cli.run([argv[0], "--mesh", str(mesh_file), *argv[1:]]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_k_too_large_for_mesh(self, capsys, mesh_file, tmp_path):
        assert cli.run(["mh", "--mesh", str(mesh_file), "--k", "200",
                        "--out-dir", str(tmp_path)]) == 1
        capsys.readouterr()

    def test_unreferenced_vertex(self, capsys, tmp_path):
        path = tmp_path / "stray.off"
        path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n5 5 0\n3 0 1 2\n")
        assert cli.run(["mh", "--mesh", str(path), "--k", "1",
                        "--out-dir", str(tmp_path)]) == 1
        assert "vertex 3 is not referenced" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lmh", "pmh"])
    def test_empty_region_file(self, capsys, mesh_file, tmp_path, command):
        # once exit 1 with numpy's "zero-size array to reduction operation
        # minimum which has no identity"
        region = tmp_path / "empty.txt"
        region.write_text("")
        assert cli.run([command, "--mesh", str(mesh_file), "--region",
                        str(region), "--k", "3", "--out-dir", str(tmp_path)]) == 1
        assert "error: membership u is empty" in capsys.readouterr().err

    def test_empty_maps_in_error_curve(self, capsys, mesh_file, tmp_path):
        # once exit 0 with "mean_error": NaN, which is not JSON
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert cli.run(["error-curve", "--mesh", str(mesh_file), "--p2p",
                        str(empty), "--truth", str(empty),
                        "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "error: recovered and truth maps are empty" in captured.err
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        assert cli.run(["--help"]) == 0
        assert cli.run(["lmh", "--help"]) == 0
        capsys.readouterr()

    def test_small_scale_mesh_exits_0(self, capsys, tmp_path):
        # the default shift and the residual check scale with the mesh
        ico = icosphere(3)
        path = tmp_path / "small_sphere.off"
        write_off((ico.vertices * 0.01, ico.faces), path)
        code = cli.run(["mh", "--mesh", str(path), "--k", "21",
                        "--out-dir", str(tmp_path)])
        assert code == 0, capsys.readouterr().err
        assert np.loadtxt(tmp_path / "mh_spectrum.txt").shape == (21,)

    def test_numerical_failure_exits_2(self, capsys, mesh_file, tmp_path,
                                       monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("did not converge")

        monkeypatch.setattr(cli, "compute_mh", boom)
        code = cli.run(["mh", "--mesh", str(mesh_file), "--k", "3",
                        "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "numerical failure" in err


class TestParserReuse:
    """``run`` parses with one parser per process; it must behave as a new one."""

    HELP = [["--help"], *([command, "--help"] for command in SUMMARY_KEYS),
            ["bench", "--help"]]
    ERRORS = [["transmogrify"], ["mh", "--k", "3"], ["mh", "--k", "0"],
              ["lmh", "--mesh", "m.off", "--solver", "dense"], []]

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("argv", HELP, ids=" ".join)
    def test_help_matches_a_new_parser(self, capsys, argv):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        expected = capsys.readouterr().out
        assert expected
        for _ in range(2):
            assert cli.run(argv) == 0
            assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("argv", ERRORS, ids=" ".join)
    def test_errors_match_a_new_parser(self, capsys, argv):
        with pytest.raises(cli.CliError) as exc:
            cli.build_parser().parse_args(argv)
        for _ in range(2):
            assert cli.run(argv) == 1
            assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_repeated_runs_give_the_same_outputs(self, capsys, mesh_file,
                                                 tmp_path):
        region_file = make_region(capsys, mesh_file, tmp_path)
        commands = [
            ["mh", "--mesh", str(mesh_file), "--k", "6"],
            ["lmh", "--mesh", str(mesh_file), "--region", region_file,
             "--k", "4", "--kprime", "6", "--seed", "3"],
            ["region", "--mesh", str(mesh_file), "--seeds", "5", "--prefix", "s_"],
        ]
        runs = []
        for out in ("a", "b"):
            d = tmp_path / out
            outputs = []
            for argv in commands:
                assert cli.run(["mh", "--k", "0"]) == 1  # an error in between
                assert cli.run([*argv, "--out-dir", str(d)]) == 0
                outputs.append(capsys.readouterr().out.replace(str(d), "<dir>"))
            files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
            runs.append((outputs, files))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 5
