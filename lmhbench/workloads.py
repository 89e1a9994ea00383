"""The three benchmark workloads.

Each workload makes its inputs from a seed in ``prepare`` (timed as
set-up), runs one closed-loop pipeline iteration in ``iteration``, and
checks that iteration's outputs in ``check`` with ``checks`` only. The
program sees nothing but the generated mesh files and region inputs;
the seed reaches it only as the Lanczos start-vector seed.

Calls into ``lmh`` go through module attributes (``lmh.localized.
compute_mh``, not a name imported here), so the span wrappers of
``spans.instrument`` see them.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import lmh.cli
import lmh.fem
import lmh.localized
import lmh.mesh
import lmh.synth

import checks

MU_R = 100.0
MU_PERP = 1e5
GRID_SIDE = 10.0
BOX = (2.5, 7.5)


def _box_jitter(seed):
    # up to about one grid cell of the 20k grid, so the region's vertex
    # set changes with the seed while its size stays the same
    return np.random.default_rng(seed).uniform(-0.1, 0.1, size=2)


class GridWorkload:
    """Planar grid with a box region: parse, assemble, MH, then LMH.

    With ``hard=True`` the exact-constraint path runs after the relaxed
    one on the same phi, and the two spectra are compared.
    """

    def __init__(self, cells, k=100, kprime=20, hard=False):
        self.cells = cells
        self.k = k
        self.kprime = kprime
        self.hard = hard

    def prepare(self, seed, workdir):
        self.seed = seed
        Path(workdir).mkdir(parents=True, exist_ok=True)
        self.mesh_path = Path(workdir) / "grid.off"
        mesh = lmh.synth.grid_mesh(
            self.cells, self.cells, width=GRID_SIDE, height=GRID_SIDE
        )
        lmh.mesh.write_off(mesh, self.mesh_path)
        dx, dy = _box_jitter(seed)
        xy = mesh.vertices[:, :2]
        lo_x, hi_x = BOX[0] + dx, BOX[1] + dx
        lo_y, hi_y = BOX[0] + dy, BOX[1] + dy
        self.inside = np.flatnonzero(
            (xy[:, 0] >= lo_x) & (xy[:, 0] <= hi_x) & (xy[:, 1] >= lo_y) & (xy[:, 1] <= hi_y)
        )
        self._vertices, self._faces = mesh.vertices, mesh.faces

    def references(self):
        """Operators for the correctness gate (not timed)."""
        self.W, self.a = checks.cotangent_operators(self._vertices, self._faces)
        self.u = np.zeros(self.a.size)
        self.u[self.inside] = 1.0

    def iteration(self):
        mesh = lmh.mesh.read_mesh(self.mesh_path)
        W = lmh.fem.assemble_stiffness(mesh)
        A = lmh.fem.assemble_mass(mesh)
        region = lmh.localized.Region.binary(mesh.n_vertices, self.inside)
        mh = lmh.localized.compute_mh(mesh, self.kprime + 1, seed=self.seed, W=W, A=A)
        phi = mh.functions[:, : self.kprime]
        out = {"mh": mh, "phi": phi}
        for solver in ("relaxed", "hard") if self.hard else ("relaxed",):
            out[solver] = lmh.localized.compute_lmh(
                mesh, region, self.k, self.kprime, mu_r=MU_R, mu_perp=MU_PERP,
                phi=phi, solver=solver, seed=self.seed, W=W, A=A,
            )
        return out

    def check(self, out):
        W, a, u, phi = self.W, self.a, self.u, out["phi"]
        mh = out["mh"]
        checks.check_global_basis("mh", mh.spectrum, mh.functions, W, a)
        lam_kprime = float(mh.spectrum[self.kprime - 1])
        relaxed = out["relaxed"]
        checks.check_localized_basis(
            "lmh relaxed", relaxed.spectrum, relaxed.functions, W, a, u, phi,
            MU_R, MU_PERP, lam_kprime,
        )
        if self.hard:
            hard = out["hard"]
            checks.check_hard_basis(
                "lmh hard", hard.spectrum, hard.functions, W, a, u, phi, MU_R
            )
            checks.check_hard_vs_relaxed(relaxed.spectrum, hard.spectrum)


# The bump-sphere pair: same connectivity, different geometry, so the
# ground-truth correspondence is the identity.
SHAPES = {
    "x": {"height": 0.6, "width": 0.45},
    "y": {"height": 0.45, "width": 0.55, "ripples": 4, "ripple_amp": 0.15},
}
SPHERE_RADIUS = 5.0
REGION_VARIANCE = 6.0
REGION_THRESHOLD = 0.5
BOUND_KPRIME, BOUND_K = 5, 10


class SphereCliChain:
    """README file chain on a closed bump-sphere pair, through ``lmh.cli.run``.

    Per shape: ``region`` (soft seeds, thresholded), ``mh``, ``lmh --phi``.
    Then ``gap``, ``bound``, ``reconstruct``, ``fmap``, ``p2p`` and
    ``error-curve``. Every command re-reads its inputs from files.
    """

    def __init__(self, subdivisions=4, k_mh=20, k_lmh=30):
        self.subdivisions = subdivisions
        self.k_mh = k_mh
        self.k_lmh = k_lmh

    def prepare(self, seed, workdir):
        self.seed = seed
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.meshes = {}
        self.seed_vertex = {}
        for name, shape in SHAPES.items():
            mesh = lmh.synth.bump_sphere(
                self.subdivisions, radius=SPHERE_RADIUS, **shape
            )
            lmh.mesh.write_off(mesh, self.dir / f"{name}.off")
            # region seed: the vertex nearest a direction jittered about
            # the bump's pole by up to ~0.1 rad
            direction = np.array([*rng.uniform(-0.1, 0.1, size=2), 1.0])
            unit = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1)[:, None]
            self.seed_vertex[name] = int(np.argmax(unit @ direction))
            self.meshes[name] = mesh
        n = self.meshes["x"].n_vertices
        (self.dir / "truth.txt").write_text(
            "".join(f"{i}\n" for i in range(n)), encoding="utf-8"
        )

    def references(self):
        self.ops = {
            name: checks.cotangent_operators(mesh.vertices, mesh.faces)
            for name, mesh in self.meshes.items()
        }

    def commands(self):
        d, seed = self.dir, str(self.seed)
        common = ["--out-dir", str(d), "--seed", seed]
        cmds = []
        for s in SHAPES:
            mesh = str(d / f"{s}.off")
            cmds += [
                ["region", "--mesh", mesh, "--seeds", str(self.seed_vertex[s]),
                 "--variance", str(REGION_VARIANCE),
                 "--threshold", str(REGION_THRESHOLD), "--prefix", f"{s}_", *common],
                ["mh", "--mesh", mesh, "--k", str(self.k_mh), "--prefix", f"{s}_", *common],
                ["lmh", "--mesh", mesh, "--region", str(d / f"{s}_region.txt"),
                 "--k", str(self.k_lmh), "--phi", str(d / f"{s}_mh_basis.txt"),
                 "--mu-r", str(MU_R), "--mu-perp", str(MU_PERP),
                 "--prefix", f"{s}_", *common],
            ]
        x, region_x = str(d / "x.off"), str(d / "x_region.txt")
        mh_x, mh_y = str(d / "x_mh_basis.txt"), str(d / "y_mh_basis.txt")
        cmds += [
            ["gap", "--mesh", x, "--region", region_x, "--kprime", str(self.k_mh), *common],
            ["bound", "--mesh", x, "--region", region_x, "--kprime", str(BOUND_KPRIME),
             "--k", str(BOUND_K), *common],
            ["reconstruct", "--mesh", x, "--basis", mh_x, str(d / "x_lmh_basis.txt"),
             "--prefix", "x_", *common],
            ["fmap", "--basis-x", mh_x, "--basis-y", mh_y, "--mesh-y", str(d / "y.off"),
             "--p2p", str(d / "truth.txt"), *common],
            ["p2p", "--cmatrix", str(d / "cmatrix.txt"), "--basis-x", mh_x,
             "--basis-y", mh_y, *common],
            ["error-curve", "--mesh", x, "--p2p", str(d / "p2p.txt"),
             "--truth", str(d / "truth.txt"), *common],
        ]
        return cmds

    def iteration(self):
        results = []
        for argv in self.commands():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = lmh.cli.run(argv)
            results.append((argv[0], code, stdout.getvalue()))
        return results

    def check(self, results):
        summaries = {}
        for command, code, stdout in results:
            checks.require(code == 0, f"lmh {command} exited with code {code}")
            summaries[command] = json.loads(stdout.strip().splitlines()[-1])
        for command in ("gap", "bound"):
            checks.require(summaries[command]["passed"], f"lmh {command} did not pass")
        d = self.dir
        for s, mesh in self.meshes.items():
            W, a = self.ops[s]
            u = np.loadtxt(d / f"{s}_region.txt")
            checks.require(
                np.all((u == 0.0) | (u == 1.0)) and u.sum() >= BOUND_K + BOUND_KPRIME,
                f"{s}: thresholded region is not binary or too small for bound",
            )
            mh_lam = np.loadtxt(d / f"{s}_mh_spectrum.txt", ndmin=1)
            phi = np.loadtxt(d / f"{s}_mh_basis.txt", skiprows=1, ndmin=2)
            checks.check_global_basis(f"{s} mh", mh_lam, phi, W, a)
            lam = np.loadtxt(d / f"{s}_lmh_spectrum.txt", ndmin=1)
            psi = np.loadtxt(d / f"{s}_lmh_basis.txt", skiprows=1, ndmin=2)
            checks.check_localized_basis(
                f"{s} lmh", lam, psi, W, a, u, phi, MU_R, MU_PERP, float(mh_lam[-1])
            )
        n = self.meshes["x"].n_vertices
        rec = np.loadtxt(d / "x_recon_error.txt", ndmin=1)
        checks.require(
            rec.shape == (n,) and np.all(np.isfinite(rec)),
            "reconstruct: bad per-vertex error file",
        )
        C = np.loadtxt(d / "cmatrix.txt", skiprows=1, ndmin=2)
        checks.require(
            C.shape == (self.k_mh, self.k_mh) and np.all(np.isfinite(C)),
            "fmap: bad C matrix",
        )
        p2p = np.loadtxt(d / "p2p.txt", dtype=np.int64, ndmin=1)
        checks.require(
            p2p.shape == (n,) and p2p.min() >= 0 and p2p.max() < n,
            "p2p: map out of range",
        )
        curve = np.loadtxt(d / "curve.csv", delimiter=",", skiprows=1, ndmin=2)
        fractions = curve[:, 1]
        checks.require(
            np.all(np.diff(fractions) >= 0.0)
            and fractions[0] >= 0.0 and fractions[-1] <= 1.0,
            "error-curve: fractions are not a cumulative curve",
        )


def make(name):
    """The workload registered under ``name``, at benchmark size."""
    if name == "grid20k_lmh":
        return GridWorkload(cells=140)
    if name == "grid4900_hard":
        return GridWorkload(cells=69, hard=True)
    if name == "sphere_cli_chain":
        return SphereCliChain()
    raise KeyError(name)


def make_warm_up(name):
    """A small instance of the same pipeline, run during set-up."""
    if name == "sphere_cli_chain":
        return SphereCliChain(subdivisions=3, k_mh=20, k_lmh=10)
    return GridWorkload(cells=20, k=10, kprime=5, hard=name == "grid4900_hard")
