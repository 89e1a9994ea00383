"""The README's quick-start blocks run as written.

The CLI block is parsed from ``README.md`` and run line by line in a
fresh directory: the ``python3 -c`` mesh generator through ``exec``,
every ``lmh`` line through ``lmh.cli.run``.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from lmh.cli import run
from lmh.localized import compute_mh
from lmh.mesh import read_mesh

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_block(heading, lang):
    """The first ``lang`` code block of the README section ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


@pytest.fixture(scope="module")
def cli_chain(tmp_path_factory):
    """(argv, exit code, stdout, stderr) per line of the CLI block, the
    generated mesh and the directory the chain ran in."""
    block = fenced_block("Quick start (CLI)", "sh").replace("\\\n", "")
    commands = [argv for line in block.splitlines()
                if (argv := shlex.split(line, comments=True))]
    results = []
    workdir = tmp_path_factory.mktemp("readme")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if argv[:2] == ["python3", "-c"]:
                    exec(argv[2], {})
                    code = 0
                else:
                    assert argv[0] == "lmh", argv
                    code = run(argv[1:])
            results.append((argv, code, out.getvalue(), err.getvalue()))
        plane = read_mesh("plane.off")
    return results, plane, workdir


def test_cli_block_runs(cli_chain):
    results, *_ = cli_chain
    ran = [argv[1] for argv, *_ in results]
    assert ran == ["-c", "region", "mh", "lmh", "gap", "bound", "weyl",
                   "reconstruct"]
    for argv, code, out, err in results:
        assert code == 0, (argv, err)
        if argv[1] in ("gap", "bound"):
            assert json.loads(out)["passed"] is True, argv


def test_cli_kprimes_sit_at_spectral_gaps(cli_chain):
    # a k' inside a repeated eigenvalue leaves phi undetermined
    results, plane, _ = cli_chain
    kprimes = [int(argv[argv.index("--kprime") + 1])
               for argv, *_ in results if "--kprime" in argv]
    assert kprimes
    lam = compute_mh(plane, 21).spectrum
    for kp in kprimes:
        assert lam[kp] - lam[kp - 1] > 1e-6 * lam[kp], (kp, lam[kp - 1], lam[kp])


def test_cli_lmh_k_sits_at_a_spectral_gap(cli_chain, monkeypatch):
    # a k inside a repeated eigenvalue leaves the saved basis undetermined:
    # rerun the chain's lmh step with one more function and compare
    results, _, workdir = cli_chain
    (argv,) = [argv for argv, *_ in results if argv[1] == "lmh"]
    i = argv.index("--k") + 1
    k = int(argv[i])
    monkeypatch.chdir(workdir)
    wider = [*argv[1:i], str(k + 1), *argv[i + 1:], "--out-dir", "wider"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(wider) == 0
    lam = np.loadtxt(workdir / "wider" / "lmh_spectrum.txt")
    assert lam[k] - lam[k - 1] > 1e-6 * lam[k], (k, lam[k - 1], lam[k])


def test_library_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(fenced_block("Quick start (library)", "python"), {})
    assert out.getvalue().splitlines()[-1] == "True"
