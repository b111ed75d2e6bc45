"""The demos run to completion without a warning, and leave no temporary
directory behind.

Demos 02, 03 (at a 32^3 grid) and 04 take about a second each.  Demo 01
is left out: it takes about 8 s on a 2-core host, most of it the
fixed-step RK4 reference of its section 4.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cascadelab

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("argv", [
    pytest.param(["02_wavelet_field_synthesis.py"], id="02"),
    pytest.param(["03_singular_set_covering.py", "32"], id="03"),
    pytest.param(["04_batch_pipeline.py"], id="04"),
])
def test_demo_runs_clean(tmp_path, argv):
    src = os.path.dirname(os.path.dirname(cascadelab.__file__))
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-W", "error", str(DEMOS / argv[0]),
                           *argv[1:]], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert not list(tmp_path.glob("cascadelab_demo_*"))  # demo 04's tree
