"""The demos run to completion: the targets, the SIS API, the diffusion samplers
(kernel pairs, training, backward transport), the criteria and the harness."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_targets.py", "02_annealed_smc.py", "03_craft_flows.py",
                                  "04_diffusion_samplers.py", "05_mode_collapse_metrics.py",
                                  "06_full_experiment.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
