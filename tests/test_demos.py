"""The demos run to completion: the targets, the SIS API, the diffusion samplers
(training, backward transport), the criteria and the harness, each once, with a
deprecated numpy or scipy call an error; the full-experiment demo cleans up its
temporary output folder."""

import functools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def _run_demo(demo):
    """Run one demo once per session; returns (process, temp folders left behind)."""
    tmp = Path(tempfile.gettempdir())
    before = set(tmp.glob("samplebench_demo_*"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning",
                           "-W", "error::FutureWarning", str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    return proc, set(tmp.glob("samplebench_demo_*")) - before


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc, _ = _run_demo(demo)
    assert proc.returncode == 0, proc.stderr


def test_full_experiment_demo_leaves_no_temp_folder():
    # the demo writes its outputs to a temporary folder and removes it
    proc, left = _run_demo("06_full_experiment.py")
    assert proc.returncode == 0, proc.stderr
    assert "wrote mfvi_mog_checkpoints.csv" in proc.stdout
    assert not left
