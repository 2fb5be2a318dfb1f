"""The benchmark's traced pass (``perfbench/traced.py``) calls the stage
functions ``apicomp run`` chains, one by one. It must keep running and keep
writing the report ``apicomp run`` writes for the same flags, or the
benchmark's per-layer numbers stop describing the program."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from apicomp.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "corpus"
    assert main(["generate", "--components", "3", "--methods-per-component", "3", "5",
                 "--inter-call-prob", "0.3", "--trees-per-app", "3", "--apps", "3",
                 "--tree-depth", "3", "6", "--noise-prob", "0.3", "--seed", "5",
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_traced_pass_writes_the_run_report(corpus_dir, tmp_path, jobs):
    flags = ["--corpus", str(corpus_dir),
             "--classifier", str(corpus_dir / "classifier.txt"), "--jobs", jobs]
    assert main(["run", *flags, "--out", str(tmp_path / "run")]) == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(TRACED), *flags, "--out", str(tmp_path / "traced"),
         "--result", str(tmp_path / "traced.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert ((tmp_path / "traced" / "report.json").read_bytes()
            == (tmp_path / "run" / "report.json").read_bytes())
