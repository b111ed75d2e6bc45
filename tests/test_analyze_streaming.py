"""The analyzer's single pass over snapshot files: work counts, memory, and
equality with the same analysis of fields held in memory; and the memory
of the synthesis pass that writes such files."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from cascadelab import grid
from cascadelab import io as iomod
from cascadelab.cli import main
from cascadelab.grid import GridField
from cascadelab.pipeline import (load_regularity_params, run_analyze,
                                 run_synthesize)
from cascadelab.regularity import analyze_snapshots

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
N = 32
N_SNAPSHOTS = 8
LEVELS = [2, 3]


def growing_fields():
    """Band-3 content concentrated in one octant, growing in time."""
    ax = (np.arange(N) + 0.5) / N
    xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij")
    envelope = np.exp(-(((xx - 0.25) ** 2 + (yy - 0.25) ** 2
                         + (zz - 0.25) ** 2) / (2 * 0.08 ** 2)))
    carrier = np.cos(2 * np.pi * 10 * xx)
    out = []
    for s in range(N_SNAPSHOTS):
        data = np.zeros((3, N, N, N))
        data[0] = 1.3 ** s * envelope * carrier
        data[1] = 0.1 * np.roll(data[0], N // 2, axis=1)
        out.append(GridField(data, 2 * np.pi, time_tag=s / (N_SNAPSHOTS - 1)))
    return out


@pytest.fixture
def snapshot_run(tmp_path):
    """Snapshot files, a params document and the fields they hold."""
    snap_dir = tmp_path / "snaps"
    snap_dir.mkdir()
    fields = growing_fields()
    for s, fld in enumerate(fields):
        base = snap_dir / f"snapshot_{s:04d}"
        iomod.save_snapshot(fld, base)
    params = tmp_path / "params.json"
    iomod.dump_json({"schema": iomod.SCHEMA_PARAMS, "alpha": 1.0,
                     "epsilon": 0.25, "gamma": 0.1, "K_threshold": 1000.0,
                     "levels": LEVELS}, params)
    return snap_dir, params, fields


def test_cli_reads_and_transforms_each_snapshot_once(snapshot_run, tmp_path):
    snap_dir, params, _ = snapshot_run
    out = tmp_path / "report.json"
    assert main(["analyze", "--snapshots", str(snap_dir), "--params",
                 str(params), "--out", str(out)]) == 0
    stats = json.loads(out.read_text())["analysis_stats"]
    assert stats["forward_ffts"] == stats["snapshots_read"] == N_SNAPSHOTS
    # levels 2 and 3 read bands 2 to 4 at every snapshot, and the family
    # tables (0, 0), (1, 1) and (4, 4) only inside the 2**-20-wide terminal
    # window, which reads the last two snapshots
    assert stats["band_inverses"] == 3 * N_SNAPSHOTS + 2 * 2
    assert stats["tables_filled"] == 5 * N_SNAPSHOTS + 3 * 2


def test_file_pass_equals_fields_in_memory(snapshot_run, tmp_path):
    snap_dir, params_path, fields = snapshot_run
    doc = run_analyze(snap_dir, params_path, tmp_path / "report.json")["report"]
    params, _ = load_regularity_params(params_path)
    held = analyze_snapshots(fields, params, LEVELS)
    assert all(0 < row["bad_count"] < row["tiling_count"]
               for row in doc["per_level"])
    assert doc["per_level"] == [row.to_dict() for row in held.per_level]
    assert doc["d_est"] == held.d_est
    assert doc["analysis_stats"] == held.analysis_stats


def test_peak_memory_is_a_few_snapshots(snapshot_run, tmp_path):
    """``run_analyze``'s traced peak stays below 8 snapshots' worth of bytes.

    With B = 3 N^3 float64 samples of one snapshot, at most three
    snapshots are held: one per worker (``grid.SNAPSHOT_WORKERS`` on two
    cores) and one queued job.  Each worker keeps its work arrays for the
    pass, in ``regularity._WORK``, a ``threading.local`` whose arrays end
    with the pool's threads: the real-FFT spectrum (3 N^2 (N/2 + 1)
    complex128, (1 + 2/N) B), one component's band product ((1 + 2/N) B / 3)
    and one square (B / 3).
    Starting a forward transform it also holds the field: about 2.75 B.
    Inverting a band it holds the density (B / 3) and a contraction copy
    (B / 3) instead: about 2.4 B.  Two workers and a queued field are at
    most 6.5 B.  Cached beside them are the trimmed band symbols (0.57 B
    at N = 32).  That is about 7.1 B; the bound leaves 0.9 B for tables,
    weights and temporaries.  Measured: 6.9-7.6 B with two workers,
    4.8 B with one.  Holding every field and every
    band density instead, as an analyzer that loads all snapshots first
    does, costs 8 B + 40 B/3 before any work: 21 B, and 25 B measured at
    the peak.
    """
    snap_dir, params, _ = snapshot_run
    snapshot_bytes = 3 * N ** 3 * 8
    tracemalloc.start()
    try:
        run_analyze(snap_dir, params, tmp_path / "report.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * snapshot_bytes, peak / snapshot_bytes


def test_synthesize_peak_memory_is_the_snapshots_in_flight(tmp_path,
                                                           monkeypatch):
    """``run_synthesize``'s traced peak stays within the snapshots in flight.

    With B = 3 N^3 float64 samples of one snapshot and W = 2 pool workers
    (``grid.SNAPSHOT_WORKERS`` on two cores), at most W + 1 snapshots are
    in flight: one per worker and one the calling thread writes, while a
    queued job is only its interpolated coefficients.  Each holds its
    field (B) and at most two half spectra (3 N^2 (N/2 + 1) complex128,
    (1 + 2/N) B each): the one it is synthesized from and the one it is
    projected back from.  The budget is (W + 1)(3 + 4/N) B, 9.375 B at
    N = 32; the basis and the trajectory are below 0.01 B.  Synthesis
    allocates its arrays per call, and must not hold more than that.
    Measured: 6.3 B, and 7.3 B when the run's first imports are traced too.
    """
    traj = tmp_path / "traj.csv"
    assert main(["simulate", "--config",
                 os.path.join(CONFIG_DIR, "pipeline_demo.json"),
                 "--t-end", "0.02", "--out", str(traj)]) == 0
    times = [0.002, 0.004, 0.007, 0.01, 0.013, 0.016, 0.02]
    workers = 2
    monkeypatch.setattr(grid, "SNAPSHOT_WORKERS", workers)
    snapshot_bytes = 3 * N ** 3 * 8
    tracemalloc.start()
    try:
        written = run_synthesize(traj, os.path.join(CONFIG_DIR, "basis_demo.json"),
                                 times, tmp_path / "snaps")["written"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(written) == len(times)
    assert peak < (workers + 1) * (3 + 4 / N) * snapshot_bytes, \
        peak / snapshot_bytes
