"""The shipped demo configs drive the full pipeline end to end."""

import json
import os
import time

import pytest

from cascadelab import io as iomod
from cascadelab.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def test_shipped_dyadic_demo_validates():
    assert main(["validate", "--config",
                 os.path.join(CONFIG_DIR, "dyadic_demo.json")]) == 0


def test_shipped_dyadic_demo_detects_blowup(tmp_path):
    out = tmp_path / "traj.csv"
    t0 = time.time()
    assert main(["simulate", "--config",
                 os.path.join(CONFIG_DIR, "dyadic_demo.json"),
                 "--t-end", "10.0", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "traj.csv.json").read_text())
    assert sidecar["status"] == "blowup_detected"
    assert 0.3 < sidecar["blowup_time_estimate"] < 1.0
    # pinned; the fused DP5 step moved it by 3.5e-11 relative
    assert sidecar["blowup_time_estimate"] == pytest.approx(
        0.5404570587757199, rel=1e-9)
    assert sidecar["integrator_stats"]["stop_reason"] == "guard"
    assert time.time() - t0 < 60


def test_shipped_pipeline_composition(tmp_path):
    """simulate -> synthesize -> analyze on the shipped demo documents."""
    t0 = time.time()
    traj = tmp_path / "traj.csv"
    assert main(["simulate", "--config",
                 os.path.join(CONFIG_DIR, "pipeline_demo.json"),
                 "--t-end", "0.02", "--out", str(traj)]) == 0

    snap_dir = tmp_path / "snapshots"
    assert main(["synthesize", "--trajectory", str(traj),
                 "--basis-config", os.path.join(CONFIG_DIR, "basis_demo.json"),
                 "--times", "0.004,0.01,0.016",
                 "--out-dir", str(snap_dir)]) == 0

    report = tmp_path / "analysis" / "report.json"
    assert main(["analyze", "--snapshots", str(snap_dir),
                 "--params", os.path.join(CONFIG_DIR, "params_demo.json"),
                 "--out", str(report)]) == 0

    doc = json.loads(report.read_text())
    assert doc["schema"] == iomod.SCHEMA_REPORT
    assert len(doc["per_level"]) == 2
    assert (tmp_path / "analysis" / "report.json.csv").exists()
    assert time.time() - t0 < 120


def test_shipped_configs_parse():
    for name in ("dyadic_demo.json", "pipeline_demo.json"):
        config, integrator = iomod.load_cascade_config(
            os.path.join(CONFIG_DIR, name))
        assert config.n_shells >= 2
        assert "initial" in integrator
    with pytest.raises(iomod.InputError):
        iomod.load_cascade_config(os.path.join(CONFIG_DIR, "basis_demo.json"))
