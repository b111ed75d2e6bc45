"""The batch pipeline as other programs would drive it: files in, files out.

Writes a config document, simulates, synthesizes snapshots, and analyzes
them, all through the same entry points the ``cascadelab`` CLI exposes,
then prints the artifacts and their manifest digests.  It works in a
temporary directory, which is removed when the demo ends.

Run:  python demos/04_batch_pipeline.py
"""

import json
import os
import tempfile

import cascadelab.io as iomod
from cascadelab import builtin_dyadic_config
from cascadelab.pipeline import (run_analyze, run_simulate, run_synthesize,
                                 run_validate)

with tempfile.TemporaryDirectory(prefix="cascadelab_demo_") as workdir:
    print("working in", workdir)

    config_path = os.path.join(workdir, "config.json")
    cfg = builtin_dyadic_config(2.0, alpha=1.0, n_range=(0, 1), kappa=1.0)
    iomod.dump_json(iomod.config_to_dict(cfg, {
        "rel_tol": 1e-9,
        "initial": {"X_1_0": 0.8, "X_2_1": -0.3},
    }), config_path)

    code, text = run_validate(config_path)
    print(f"\nvalidate -> exit {code}: {text}")

    # each stage writes into a directory of its own, beside its manifest
    traj_path = os.path.join(workdir, "trajectory", "trajectory.csv")
    result = run_simulate(config_path, t_end=0.02, out_path=traj_path)
    print(f"simulate -> {result['status']}, {result['n_samples']} samples, "
          f"manifest {result['manifest_digest'][:12]}")

    basis_path = os.path.join(workdir, "basis.json")
    iomod.dump_json({"schema": iomod.SCHEMA_BASIS, "lambda": 2.0, "n_grid": 32,
                     "n_window": [0, 1], "base_scale": 4.0}, basis_path)
    snap_dir = os.path.join(workdir, "snapshots")
    result = run_synthesize(traj_path, basis_path,
                            times=[0.004, 0.01, 0.016], out_dir=snap_dir)
    print(f"synthesize -> {len(result['written'])} snapshots, round-trip error "
          f"{result['max_roundtrip_error']:.1e}")

    params_path = os.path.join(workdir, "params.json")
    iomod.dump_json({"schema": iomod.SCHEMA_PARAMS, "alpha": 1.0, "epsilon": 0.25,
                     "gamma": 0.1, "K_threshold": 1e-6, "levels": [2, 3]},
                    params_path)
    report_path = os.path.join(workdir, "report", "report.json")
    result = run_analyze(snap_dir, params_path, report_path)
    print(f"analyze -> report {report_path}")
    print(json.dumps(result["report"]["per_level"], indent=2))
    print("d_est:", result["report"]["d_est"], "| notes:",
          result["report"]["notes"])
    print("\nfiles written:")
    for root, _, files in os.walk(workdir):
        for name in sorted(files):
            print("  ", os.path.relpath(os.path.join(root, name), workdir))
