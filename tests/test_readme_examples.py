"""Every ``minimax-fold ...`` example in README.md runs and certifies.

The commands and the configuration file are read from the README itself,
so the README and the CLI cannot drift apart unnoticed.  Each runs
in-process through ``cli.main`` with its ``--out`` directory redirected to a
temporary path.
"""

import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

from minimax_fold import cli, harness
from minimax_fold.minimax_solver import SolverOptions
from minimax_fold.verification import verify_certificate

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """``minimax-fold <study> ...`` lines from the README's fenced code blocks."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = []
    for block in blocks:
        for line in block.splitlines():
            argv = shlex.split(line)
            if len(argv) > 1 and argv[0] == "minimax-fold" and argv[1] in harness.STUDIES:
                commands.append(argv[1:])
    return commands


def with_out(argv, out):
    argv = list(argv)
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(out)
    else:
        argv += ["--out", str(out)]
    return argv


def test_readme_lists_every_study():
    assert {argv[0] for argv in readme_commands()} == set(harness.STUDIES)


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: " ".join(argv))
def test_readme_example(argv, tmp_path):
    assert cli.main(with_out(argv, tmp_path)) == 0
    cert_path = tmp_path / "certificate.json"
    if cert_path.exists():
        spec, mesh, cert = harness.load_certificate(cert_path)
        assert cert.valid, cert.status
        assert verify_certificate(spec, mesh, cert).valid


def test_readme_configuration_file(tmp_path):
    block, = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)
    # the block lists every solver option, at its default
    assert json.loads(block)["solver"] == dataclasses.asdict(SolverOptions())
    cfg = tmp_path / "config.json"
    cfg.write_text(block)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    spec, mesh, cert = harness.load_certificate(out / "certificate.json")
    assert cert.valid, cert.status
    assert verify_certificate(spec, mesh, cert).valid
