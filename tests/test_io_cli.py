"""File formats, schema versioning, manifests, and CLI subcommands."""

import ast
import gc
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cascadelab
from cascadelab import io as iomod
from cascadelab import pipeline
from cascadelab.cascade import builtin_dyadic_config, state_from_entries
from cascadelab.cli import main
from cascadelab.grid import GridField
from cascadelab.integrator import integrate


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
#: manifest digests of ``test_stage_digests_stay_pinned``'s simulate,
#: synthesize and analyze runs; a change to one changes what it identifies
SIMULATE_DIGEST = "cae95e10f6b64721af95f90f0db0aa03c99d9244f4ce91e2bfda41b55750f7ab"
SYNTHESIZE_DIGEST = "baf2a586c12e32352697c25a605a77637d5c4fdd37e84dced718db88db60fb1e"
ANALYZE_DIGEST = "b6148b94ea00c90229b73fbe03c867cfd83dea4729508cda833538de81996aac"


def write_config(path, lam=2.0, alpha=1.0, kappa=1.0, n_min=0, n_max=1,
                 tensor_rows=None, integrator=None, schema=iomod.SCHEMA_CONFIG):
    doc = {
        "schema": schema,
        "lambda": lam, "alpha": alpha, "kappa": kappa,
        "n_min": n_min, "n_max": n_max,
        "tensor": tensor_rows if tensor_rows is not None else [],
    }
    if integrator:
        doc["integrator"] = integrator
    iomod.dump_json(doc, path)
    return path


def write_basis_config(path, n_grid=32, lam=2.0, window=(0, 1), base_scale=4.0):
    iomod.dump_json({
        "schema": iomod.SCHEMA_BASIS,
        "lambda": lam, "n_grid": n_grid,
        "n_window": list(window), "base_scale": base_scale,
    }, path)
    return path


def write_params(path, levels=(2, 3), **overrides):
    doc = {
        "schema": iomod.SCHEMA_PARAMS,
        "alpha": 1.0, "epsilon": 0.25, "gamma": 0.1, "K_threshold": 1e-6,
        "levels": list(levels),
    }
    doc.update(overrides)
    iomod.dump_json(doc, path)
    return path


class TestConfigDocuments:
    def test_round_trip(self, tmp_path):
        cfg = builtin_dyadic_config(2.0, 1.0, (0, 5), kappa=0.3)
        path = tmp_path / "config.json"
        iomod.dump_json(iomod.config_to_dict(cfg, {"rel_tol": 1e-8}), path)
        loaded, integrator = iomod.load_cascade_config(path)
        assert loaded.lam == cfg.lam
        assert loaded.tensor.entries == cfg.tensor.entries
        assert integrator == {"rel_tol": 1e-8}

    def test_unknown_schema_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", schema="cascade-config/99")
        with pytest.raises(iomod.InputError):
            iomod.load_cascade_config(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(iomod.InputError):
            iomod.load_cascade_config(path)

    def test_domain_violation_distinguished(self, tmp_path):
        path = write_config(tmp_path / "c.json", lam=5.0)
        with pytest.raises(iomod.DomainError):
            iomod.load_cascade_config(path)


class TestTrajectoryFiles:
    def test_round_trip(self, tmp_path):
        cfg = builtin_dyadic_config(2.0, 1.0, (0, 3), kappa=0.5)
        s = state_from_entries(cfg, {(1, 0): 1.0})
        traj = integrate(cfg, s, 0.05, rel_tol=1e-8)
        path = tmp_path / "traj.csv"
        iomod.save_trajectory_csv(traj, cfg, path)
        times, states, sidecar = iomod.load_trajectory_csv(path)
        assert sidecar["status"] == "completed"
        assert np.allclose(times, traj.times)
        assert np.allclose(states, traj.state_array())

    def test_byte_identical_rewrite(self, tmp_path):
        cfg = builtin_dyadic_config(2.0, 1.0, (0, 3), kappa=0.5)
        s = state_from_entries(cfg, {(1, 0): 1.0})
        traj = integrate(cfg, s, 0.05, rel_tol=1e-8)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        iomod.save_trajectory_csv(traj, cfg, a)
        iomod.save_trajectory_csv(traj, cfg, b)
        assert a.read_bytes() == b.read_bytes()


class TestSnapshotFiles:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        fld = GridField(rng.normal(size=(3, 8, 8, 8)), 2 * np.pi, time_tag=0.7)
        base = tmp_path / "snapshot_0000"
        iomod.save_snapshot(fld, base, basis_id="abc")
        back = iomod.load_snapshot(base)
        assert back.data.tobytes() == fld.data.tobytes()
        assert back.time_tag == 0.7
        assert back.meta["basis_id"] == "abc"

    def test_size_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        fld = GridField(rng.normal(size=(3, 8, 8, 8)), 2 * np.pi, time_tag=0.0)
        base = tmp_path / "snapshot_0000"
        iomod.save_snapshot(fld, base)
        (tmp_path / "snapshot_0000.raw").write_bytes(b"\x00" * 16)
        with pytest.raises(iomod.InputError):
            iomod.load_snapshot(base)


class TestCLI:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = builtin_dyadic_config(2.0, 1.0, (0, 3))
        path = tmp_path / "config.json"
        iomod.dump_json(iomod.config_to_dict(cfg), path)
        assert main(["validate", "--config", str(path)]) == 0

    def test_validate_broken_symmetry(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json",
                            tensor_rows=[[1, 2, 3, 0, 1, 0, 1.0]])
        assert main(["validate", "--config", str(path)]) == 1
        assert "symmetry" in capsys.readouterr().out

    def test_validate_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("oops")
        assert main(["validate", "--config", str(path)]) == 2

    def test_simulate_decay_and_determinism(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", kappa=1.0,
                            integrator={"rel_tol": 1e-8,
                                        "initial": {"X_1_0": 1.0}})
        out_a = tmp_path / "a" / "traj.csv"
        out_b = tmp_path / "b" / "traj.csv"
        assert main(["simulate", "--config", str(path), "--t-end", "0.05",
                     "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(path), "--t-end", "0.05",
                     "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        sidecar = json.loads((tmp_path / "a" / "traj.csv.json").read_text())
        assert sidecar["status"] == "completed"
        assert sidecar["manifest_digest"]

    def test_simulate_blowup_status_not_crash(self, tmp_path, capsys):
        cfg = builtin_dyadic_config(2.0, 1.0, (0, 7), kappa=0.0)
        path = tmp_path / "c.json"
        iomod.dump_json(iomod.config_to_dict(
            cfg, {"rel_tol": 1e-8, "guard_factor": 1e3,
                  "initial": {"X_1_0": 1.0}}), path)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(path), "--t-end", "10.0",
                     "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "traj.csv.json").read_text())
        assert sidecar["status"] == "blowup_detected"
        assert sidecar["blowup_time_estimate"] is not None

    def test_simulate_sidecar_carries_integrator_stats(self, tmp_path):
        # pure decay at rates 1 and 4 is not stiff over 0.02; the overdamped
        # dyadic window (fastest rate about 9.3e6) is
        for name, window, method in (
                ("inviscid", dict(kappa=0.0), "dp5"),
                ("decay", dict(kappa=1.0), "dp5"),
                ("stiff", dict(alpha=1.25, kappa=50.0, n_max=7,
                               tensor_rows=DYADIC_ROWS), "etdrk4")):
            run = tmp_path / name
            run.mkdir()
            config = write_config(run / "c.json", **window,
                                  integrator={"initial": {"X_1_0": 1.0}})
            assert main(["simulate", "--config", str(config), "--t-end", "0.02",
                         "--out", str(run / "traj.csv")]) == 0
            sidecar = json.loads((run / "traj.csv.json").read_text())
            stats = sidecar["integrator_stats"]
            assert stats["method"] == method
            assert stats["accepted_steps"] == sidecar["n_samples"] - 1
            steps = stats["accepted_steps"] + stats["rejected_steps"]
            assert stats["rhs_evals"] == {
                "dp5": 6 * steps + 1,
                "etdrk4": 10 * steps + stats["accepted_steps"] + 1}[method]
            assert 0 < stats["h_min_reached"] <= stats["h_max_reached"]
            assert "integrator_stats" not in (run / "manifest.json").read_text()

    def test_synthesize_empty_times_writes_nothing(self, tmp_path, capsys):
        argv = _synthesize_with()(tmp_path)
        for times in ("", " , ", "0.01,0.01,0.016"):
            argv[argv.index("--times") + 1] = times
            capsys.readouterr()
            assert main(argv) == 2
            assert "--times must name at least one time, each once" in (
                capsys.readouterr().err)
            assert not (tmp_path / "snaps").exists()

    def test_run_synthesize_rejects_empty_or_repeated_times(self, tmp_path):
        """The library call keeps the rule too: no manifest with no outputs,
        and no snapshots that ``analyze`` would then reject."""
        argv = _synthesize_with()(tmp_path)
        traj, basis = (argv[argv.index(flag) + 1]
                       for flag in ("--trajectory", "--basis-config"))
        for times in ([], [0.005, 0.005, 0.008]):
            with pytest.raises(iomod.InputError,
                               match="must name at least one time, each once"):
                pipeline.run_synthesize(traj, basis, times, tmp_path / "snaps")
            assert not (tmp_path / "snaps").exists()

    def test_synthesize_roundtrip_error_recorded(self, tmp_path):
        config = write_config(tmp_path / "c.json", kappa=1.0,
                              integrator={"initial": {"X_1_0": 0.8,
                                                      "X_2_1": -0.3}})
        traj = tmp_path / "traj.csv"
        main(["simulate", "--config", str(config), "--t-end", "0.02",
              "--out", str(traj)])
        basis = write_basis_config(tmp_path / "basis.json")
        out_dir = tmp_path / "snaps"
        assert main(["synthesize", "--trajectory", str(traj),
                     "--basis-config", str(basis),
                     "--times", "0.005,0.01,0.015",
                     "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest["parameters"]) == {"times", "basis_id"}
        sidecars = sorted(out_dir.glob("snapshot_*.json"))
        assert len(sidecars) == len(list(out_dir.glob("snapshot_*.raw"))) == 3
        for path in sidecars:
            assert json.loads(path.read_text())["roundtrip_error"] < 1e-8

    def test_synthesize_time_outside_span(self, tmp_path):
        config = write_config(tmp_path / "c.json", kappa=1.0,
                              integrator={"initial": {"X_1_0": 1.0}})
        traj = tmp_path / "traj.csv"
        main(["simulate", "--config", str(config), "--t-end", "0.02",
              "--out", str(traj)])
        basis = write_basis_config(tmp_path / "basis.json")
        code = main(["synthesize", "--trajectory", str(traj),
                     "--basis-config", str(basis), "--times", "5.0",
                     "--out-dir", str(tmp_path / "snaps")])
        assert code == 1

    def test_analyze_pipeline_and_rerun_identical(self, tmp_path):
        config = write_config(tmp_path / "c.json", kappa=1.0,
                              integrator={"initial": {"X_1_0": 0.8,
                                                      "X_2_1": -0.3}})
        traj = tmp_path / "traj.csv"
        main(["simulate", "--config", str(config), "--t-end", "0.02",
              "--out", str(traj)])
        basis = write_basis_config(tmp_path / "basis.json")
        out_dir = tmp_path / "snaps"
        main(["synthesize", "--trajectory", str(traj), "--basis-config",
              str(basis), "--times", "0.004,0.01,0.016", "--out-dir",
              str(out_dir)])
        params = write_params(tmp_path / "params.json")
        report_a = tmp_path / "analysis" / "report_a.json"
        report_b = tmp_path / "analysis" / "report_b.json"
        assert main(["analyze", "--snapshots", str(out_dir), "--params",
                     str(params), "--out", str(report_a)]) == 0
        assert main(["analyze", "--snapshots", str(out_dir), "--params",
                     str(params), "--out", str(report_b)]) == 0
        assert report_a.read_bytes() == report_b.read_bytes()
        doc = json.loads(report_a.read_text())
        assert doc["schema"] == iomod.SCHEMA_REPORT
        assert {row["j"] for row in doc["per_level"]} == {2, 3}
        assert (tmp_path / "analysis" / "report_a.json.csv").exists()

    def test_analyze_rejects_too_few_snapshots(self, tmp_path):
        params = write_params(tmp_path / "params.json")
        empty = tmp_path / "snaps"
        empty.mkdir()
        code = main(["analyze", "--snapshots", str(empty), "--params",
                     str(params), "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_analyze_reads_vitali_pre_dilation(self, tmp_path):
        snap_dir = tmp_path / "snaps"
        snap_dir.mkdir()
        for s in range(3):
            fld = GridField(np.zeros((3, 32, 32, 32)), 2 * np.pi, time_tag=s / 2.0)
            base = snap_dir / f"snapshot_{s:04d}"
            iomod.save_snapshot(fld, base)
        report_path = tmp_path / "report.json"
        rows = []
        for dilation in (1.0, 1e308):  # no array is sized from the dilation
            params = write_params(tmp_path / "params.json",
                                  vitali_pre_dilation=dilation)
            assert main(["analyze", "--snapshots", str(snap_dir), "--params",
                         str(params), "--out", str(report_path)]) == 0
            doc = json.loads(report_path.read_text())
            assert doc["params"]["vitali_pre_dilation"] == dilation
            rows.append(doc["per_level"])
        assert rows[0] == rows[1]
        params = write_params(tmp_path / "params.json", vitali_pre_dilation=0.5)
        assert main(["analyze", "--snapshots", str(snap_dir), "--params",
                     str(params), "--out", str(report_path)]) == 1

    def test_single_mode_snapshot_norm(self, tmp_path):
        from cascadelab.grid import l2_norm
        config = write_config(tmp_path / "c.json", kappa=1.0,
                              integrator={"rel_tol": 1e-10,
                                          "initial": {"X_1_0": 0.8}})
        traj = tmp_path / "traj.csv"
        main(["simulate", "--config", str(config), "--t-end", "0.02",
              "--out", str(traj)])
        basis = write_basis_config(tmp_path / "basis.json")
        out_dir = tmp_path / "snaps"
        t_pick = 0.01
        main(["synthesize", "--trajectory", str(traj), "--basis-config",
              str(basis), "--times", str(t_pick), "--out-dir", str(out_dir)])
        fld = iomod.load_snapshot(out_dir / "snapshot_0000")
        rate = 2.0 ** (2.0 * 1.0 * 0)   # shell-0 decay rate at alpha=1
        expect = 0.8 * np.exp(-rate * t_pick)
        assert l2_norm(fld) == pytest.approx(expect, abs=1e-6)

    def test_analyze_concentrated_content_flags_cubes(self, tmp_path):
        from cascadelab.grid import GridField
        n = 32
        ax = (np.arange(n) + 0.5) / n
        xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij")
        envelope = np.exp(-(((xx - 0.25) ** 2 + (yy - 0.25) ** 2
                             + (zz - 0.25) ** 2) / (2 * 0.08 ** 2)))
        carrier = np.cos(2 * np.pi * 10 * xx)
        snap_dir = tmp_path / "snaps"
        snap_dir.mkdir()
        for s in range(3):
            data = np.zeros((3, n, n, n))
            data[0] = (1.3 ** s) * envelope * carrier
            fld = GridField(data, 2 * np.pi, time_tag=s / 2.0)
            base = snap_dir / f"snapshot_{s:04d}"
            iomod.save_snapshot(fld, base)
        # between the background floor (~30) and the peak (~237) of the
        # level-3 ratios for this localized setup
        params = write_params(tmp_path / "params.json", K_threshold=100.0)
        report_path = tmp_path / "report.json"
        assert main(["analyze", "--snapshots", str(snap_dir), "--params",
                     str(params), "--out", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        by_level = {row["j"]: row for row in doc["per_level"]}
        assert by_level[3]["bad_count"] > 0
        assert by_level[3]["bad_count"] < by_level[3]["tiling_count"]
        assert by_level[3]["vitali_count"] >= 1


DROP = object()  # a document edit that deletes the field

DYADIC_ROWS = [[1, 1, 1, 0, 0, 1, 1.0], [1, 1, 1, 0, 1, 0, -0.5],
               [1, 1, 1, 1, 0, 0, -0.5]]


def _edit_json(path, fields):
    """Set each of ``fields`` in the JSON document at ``path``; a value of
    ``DROP`` deletes the field."""
    doc = json.loads(path.read_text())
    for key, value in fields.items():
        if value is DROP:
            del doc[key]
        else:
            doc[key] = value
    iomod.dump_json(doc, path)


def _simulate_with(integrator, t_end="0.01", kappa=None, config=None):
    """Simulate argv; ``config`` edits the document, and ``kappa`` is
    written as raw JSON text when given."""
    def argv(tmp_path):
        path = write_config(tmp_path / "c.json", integrator=integrator)
        _edit_json(path, config or {})
        if kappa is not None:
            path.write_text(path.read_text().replace(
                '"kappa": 1.0', f'"kappa": {kappa}'))
        return ["simulate", "--config", str(path), "--t-end", t_end,
                "--out", str(tmp_path / "traj.csv")]
    return argv


def _synthesize_with(drop_sidecar_key=None, edit=None, basis=None,
                     header=None):
    """Synthesize argv over a simulated trajectory.  ``drop_sidecar_key``
    is deleted from its sidecar; ``edit`` changes its CSV rows (lists of
    fields, header excluded) in place and returns the times to synthesize;
    ``header`` maps the CSV's header fields to the ones written;
    ``basis`` edits the basis config."""
    def argv(tmp_path):
        config = write_config(tmp_path / "c.json",
                              integrator={"initial": {"X_1_0": 1.0}})
        traj = tmp_path / "traj.csv"
        main(["simulate", "--config", str(config), "--t-end", "0.02",
              "--out", str(traj)])
        t = "0.01"
        if drop_sidecar_key is not None:
            _edit_json(tmp_path / "traj.csv.json", {drop_sidecar_key: DROP})
        if edit is not None or header is not None:
            first, *lines = traj.read_text().splitlines()
            rows = [line.split(",") for line in lines]
            if edit is not None:
                t = edit(rows)
            if header is not None:
                first = ",".join(header(first.split(",")))
            traj.write_text("\n".join([first] + [",".join(r) for r in rows])
                            + "\n")
        path = write_basis_config(tmp_path / "basis.json")
        _edit_json(path, basis or {})
        return ["synthesize", "--trajectory", str(traj), "--basis-config",
                str(path), "--times", t, "--out-dir", str(tmp_path / "snaps")]
    return argv


def _nan_in_bracket(rows):
    rows[2][1] = "nan"
    return repr((float(rows[1][0]) + float(rows[2][0])) / 2.0)


def _huge_amplitudes(rows):
    rows[1][1] = rows[2][1] = "1e308"  # finite, but synthesis overflows
    return repr((float(rows[1][0]) + float(rows[2][0])) / 2.0)


def _times_swapped(rows):
    rows[0][0], rows[1][0] = rows[1][0], rows[0][0]
    return rows[2][0]


def _first_three_times(rows):
    return ",".join(row[0] for row in rows[:3])


def _reversed_columns(header):
    return header[:1] + header[:0:-1]


def _third_time_overflows(rows):
    """Times t0, t1 and (t1 + t2) / 2, where only the last overflows."""
    rows[2][1] = "1e308"
    mid = repr((float(rows[1][0]) + float(rows[2][0])) / 2.0)
    return ",".join([rows[0][0], rows[1][0], mid])


def _validate_with(config):
    """Validate argv over the config document ``_simulate_with`` writes,
    with an initial state, which validation builds."""
    simulate = _simulate_with({"initial": {"X_1_0": 1.0}}, config=config)
    return lambda tmp_path: ["validate", "--config", simulate(tmp_path)[2]]


def _analyze_with(params=None, drop_sidecar_key=None, tags=(0.0, 0.5, 1.0),
                  grids=(8, 8, 8), sidecar_fields=None,
                  boxes=(2 * np.pi,) * 3, components=(3, 3, 3)):
    """Analyze argv over zero snapshots of the given times, grid sides, box
    sides and component counts; ``sidecar_fields`` override each sidecar
    but not its ``.raw`` file, and ``drop_sidecar_key`` is deleted from
    each sidecar."""
    def argv(tmp_path):
        snap_dir = tmp_path / "snaps"
        snap_dir.mkdir()
        for s, (tag, n, box, c) in enumerate(zip(tags, grids, boxes, components)):
            fld = GridField(np.zeros((c, n, n, n)), box, time_tag=tag)
            base = snap_dir / f"snapshot_{s:04d}"
            iomod.save_snapshot(fld, base, extra=sidecar_fields)
            if drop_sidecar_key is not None:
                _edit_json(base.with_suffix(".json"), {drop_sidecar_key: DROP})
        path = write_params(tmp_path / "params.json")
        _edit_json(path, params or {})
        return ["analyze", "--snapshots", str(snap_dir), "--params", str(path),
                "--out", str(tmp_path / "report.json")]
    return argv


def _without_raw(make_argv):
    """``make_argv`` with every snapshot ``.raw`` file deleted, so that only
    a sidecar can reveal the fault."""
    def argv(tmp_path):
        args = make_argv(tmp_path)
        for raw in (tmp_path / "snaps").glob("*.raw"):
            raw.unlink()
        return args
    return argv


def _trajectory_text(text):
    """Synthesize argv whose trajectory CSV is ``text(header line)``."""
    def argv(tmp_path):
        args = _synthesize_with()(tmp_path)
        traj = tmp_path / "traj.csv"
        traj.write_text(text(traj.read_text().splitlines(True)[0]))
        return args
    return argv


def _at_path(make_argv, flag, target, file=None, directory=None):
    """``make_argv`` with the value of ``flag`` set to ``tmp_path / target``;
    ``file`` and ``directory`` name paths made first under ``tmp_path``."""
    def argv(tmp_path):
        args = make_argv(tmp_path)
        if file:
            (tmp_path / file).write_text("")
        if directory:
            (tmp_path / directory).mkdir(parents=True)
        args[args.index(flag) + 1] = str(tmp_path / target)
        return args
    return argv


def _simulate_with_row(row):
    """Simulate argv whose tensor's first dyadic row is replaced by ``row``."""
    return _simulate_with({}, config={"tensor": [row] + DYADIC_ROWS[1:]})


#: a field missing or of the wrong JSON kind: id -> (argv, document, field)
WRONG_KIND = {
    "config-n-max-fractional": (
        _simulate_with({}, config={"n_max": 7.9}), "c.json", "n_max"),
    "config-tensor-offset-fractional": (
        _simulate_with_row([1, 1, 1, 0, 0, 1.5, 1.0]), "c.json", "tensor"),
    "config-alpha-a-bool": (
        _simulate_with({}, config={"alpha": True}), "c.json", "alpha"),
    "config-lambda-a-string": (
        _simulate_with({}, config={"lambda": "2"}), "c.json", "lambda"),
    "config-kappa-a-string": (
        _simulate_with({}, config={"kappa": "50"}), "c.json", "kappa"),
    "config-n-min-a-string": (
        _simulate_with({}, config={"n_min": "0"}), "c.json", "n_min"),
    "config-tensor-value-a-string": (
        _simulate_with({}, config={"tensor": [[1, 1, 1, 0, 0, 1, "x"]]}),
        "c.json", "tensor"),
    "config-tensor-value-a-bool": (
        _simulate_with_row([1, 1, 1, 0, 0, 1, True]), "c.json", "tensor"),
    "config-without-tensor": (
        _simulate_with({}, config={"tensor": DROP}), "c.json", "tensor"),
    "config-without-kappa": (
        _simulate_with({}, config={"kappa": DROP}), "c.json", "kappa"),
    "basis-window-one-shell": (
        _synthesize_with(basis={"n_window": [0]}), "basis.json", "n_window"),
    "basis-n-grid-fractional": (
        _synthesize_with(basis={"n_grid": 32.5}), "basis.json", "n_grid"),
    "basis-window-fractional": (
        _synthesize_with(basis={"n_window": [0, 1.5]}), "basis.json",
        "n_window"),
    "basis-window-three-shells": (
        _synthesize_with(basis={"n_window": [0, 1, 9]}), "basis.json",
        "n_window"),
    "basis-window-strings": (
        _synthesize_with(basis={"n_window": ["0", "1"]}), "basis.json",
        "n_window"),
    "basis-base-scale-a-string": (
        _synthesize_with(basis={"base_scale": "4"}), "basis.json",
        "base_scale"),
    "basis-without-base-scale": (
        _synthesize_with(basis={"base_scale": DROP}), "basis.json",
        "base_scale"),
    "params-nuclear-depth-fractional": (
        _analyze_with({"nuclear_depth": 2.9}), "params.json", "nuclear_depth"),
    "params-window-exponent-a-string": (
        _analyze_with({"window_exponent": "10"}), "params.json",
        "window_exponent"),
    "params-alpha-a-string": (
        _analyze_with({"alpha": "1.0"}), "params.json", "alpha"),
    "params-gamma-a-bool": (
        _analyze_with({"gamma": True}), "params.json", "gamma"),
    "params-without-levels": (
        _analyze_with({"levels": DROP}), "params.json", "levels"),
}

#: inputs whose float arithmetic overflows (the params on 16^3 grids, where
#: level 2 and its bands 2 and 3 resolve): id -> (argv, input named)
OVERFLOWS = {
    "params-alpha-overflows-band-weight": (
        _analyze_with({"alpha": 1000}, grids=(16, 16, 16)), "alpha"),
    "params-window-width-overflows": (
        _analyze_with({"window_base": 0.5, "window_exponent": 3000},
                      grids=(16, 16, 16)), "window_base and window_exponent"),
    "basis-base-scale-overflows": (
        _synthesize_with(basis={"base_scale": 1e300}), "base_scale"),
    "config-alpha-overflows-dissipation-rate": (
        _simulate_with({}, config={"alpha": 1000, "n_max": 3}), "alpha"),
}

#: a sidecar geometry no field has, on every sidecar: id -> (fields, exit
#: code, message after the sidecar's name)
SIDECAR_GEOMETRY = {
    "sidecar-components-two": ({"components": 2}, 2,
                               "components must be 1 or 3, got 2"),
    "sidecar-box-size-zero": ({"box_size": 0}, 2,
                              "box_size must be positive, got 0.0"),
    "sidecar-cell-volume-overflows": ({"box_size": 1e308}, 1,
                                      "box_size 1e+308: the cell volume"),
}

#: a trajectory CSV without sample rows: id -> its text from the header line
NO_SAMPLE_ROWS = {"trajectory-header-only": lambda header: header,
                  "trajectory-empty": lambda header: ""}

MALFORMED_INPUT = [
    pytest.param(_simulate_with({"bogus": 1.0}), 2, id="integrator-unknown-key"),
    pytest.param(_simulate_with({"rel_tol": 0.5}), 1, id="rel-tol-out-of-range"),
    pytest.param(_simulate_with({"rel_tol": "abc"}), 2, id="rel-tol-not-a-number"),
    pytest.param(_simulate_with({"initial": {"X_1": 1.0}}), 2,
                 id="initial-key-malformed"),
    pytest.param(_simulate_with({"initial": [1.0]}), 2, id="initial-not-an-object"),
    pytest.param(_simulate_with({"guard_factor": 10 ** 400}), 1,
                 id="guard-factor-too-large"),
    pytest.param(_simulate_with({"initial": {"X_1_0": 10 ** 400}}), 1,
                 id="initial-value-too-large"),
    pytest.param(lambda tmp_path: [
        "synthesize", "--trajectory", str(tmp_path / "traj.csv"),
        "--basis-config", str(tmp_path / "basis.json"), "--times", "0.1,abc",
        "--out-dir", str(tmp_path / "snaps")], 2, id="times-not-a-number"),
    pytest.param(_synthesize_with(edit=lambda rows: ""), 2, id="times-empty"),
    pytest.param(_synthesize_with(edit=lambda rows: f"{rows[1][0]},{rows[1][0]}"),
                 2, id="times-repeated"),
    pytest.param(_analyze_with({"levels": "abc"}), 2, id="levels-a-string"),
    pytest.param(_analyze_with({"levels": 5}), 2, id="levels-a-number"),
    pytest.param(_analyze_with(drop_sidecar_key="n_grid"), 2,
                 id="sidecar-without-n-grid"),
    pytest.param(_analyze_with({"alpha": "abc"}), 2, id="alpha-not-a-number"),
    pytest.param(_synthesize_with(drop_sidecar_key="n_min"), 2,
                 id="trajectory-sidecar-without-n-min"),
    pytest.param(_analyze_with(tags=(0.0, None, 1.0)), 2,
                 id="snapshot-without-time"),
    pytest.param(_analyze_with(tags=(0.0, 0.5, 0.0)), 2,
                 id="snapshot-times-repeated"),
    pytest.param(_analyze_with(grids=(8, 8, 16)), 2, id="snapshot-grids-differ"),
    pytest.param(_analyze_with({"levels": [2, 2, 3]}), 2, id="levels-repeated"),
    pytest.param(_analyze_with(tags=(0.0, 0.5, 10 ** 400)), 1,
                 id="snapshot-time-too-large"),
    pytest.param(_simulate_with({}, kappa="NaN"), 2, id="config-nan-literal"),
    pytest.param(_analyze_with({"K_threshold": float("inf")}), 2,
                 id="params-infinity-literal"),
    pytest.param(_simulate_with({}, kappa="1e400"), 1,
                 id="config-float-overflow"),
    pytest.param(_simulate_with({}, t_end="nan"), 1, id="t-end-nan"),
    pytest.param(_simulate_with({"max_steps": 1000}, t_end="inf"), 1,
                 id="t-end-inf"),
    pytest.param(_synthesize_with(edit=_nan_in_bracket), 2,
                 id="trajectory-nan-amplitude"),
    pytest.param(_synthesize_with(edit=_huge_amplitudes), 1,
                 id="trajectory-amplitude-overflows-synthesis"),
    pytest.param(_synthesize_with(edit=_times_swapped), 2,
                 id="trajectory-times-not-increasing"),
    *(pytest.param(make_argv, 2, id=name)
      for name, (make_argv, _, _) in WRONG_KIND.items()),
    pytest.param(_simulate_with({}, config={"lambda": 5.0}), 1,
                 id="config-lambda-out-of-range"),
    pytest.param(_analyze_with({"vitali_pre_dilation": 0.5}), 1,
                 id="params-vitali-pre-dilation-below-one"),
    pytest.param(_analyze_with({"window_base": 0}), 1,
                 id="params-window-base-zero"),
    pytest.param(_analyze_with({"window_base": -2.0}), 1,
                 id="params-window-base-negative"),
    pytest.param(_synthesize_with(header=_reversed_columns), 2,
                 id="trajectory-header-reversed"),
    pytest.param(_simulate_with({}, config={"lambda": 10 ** 400}), 1,
                 id="config-lambda-integer-too-large"),
    pytest.param(_simulate_with_row([1, 1, 1, 0, 0, 1, 10 ** 400]), 1,
                 id="config-tensor-value-integer-too-large"),
    pytest.param(_at_path(_analyze_with(), "--snapshots", "missing"), 2,
                 id="analyze-snapshot-dir-missing"),
    pytest.param(_at_path(_simulate_with({}), "--out", "out",
                          directory="out"), 2, id="simulate-out-a-directory"),
    pytest.param(_at_path(_synthesize_with(), "--out-dir", "out", file="out"),
                 2, id="synthesize-out-dir-a-file"),
    pytest.param(_at_path(_analyze_with(), "--out", "out/report.json",
                          file="out"), 2, id="analyze-out-under-a-file"),
    # sizes whose allocation request fails at once, without taking memory
    pytest.param(_validate_with({"n_max": 2 ** 45}), 1,
                 id="validate-n-max-too-large-to-hold"),
    pytest.param(_simulate_with({}, config={"n_max": 2 ** 45}), 1,
                 id="simulate-n-max-too-large-to-hold"),
    pytest.param(_simulate_with({}, config={"n_min": -2 ** 45}), 1,
                 id="simulate-n-min-too-small-to-hold"),
    pytest.param(_synthesize_with(basis={"n_grid": 2 ** 20}), 1,
                 id="synthesize-n-grid-too-large-to-hold"),
    pytest.param(_analyze_with(sidecar_fields={"n_grid": 2 ** 20}), 2,
                 id="analyze-sidecar-n-grid-over-small-raw"),
    # every level would snap to the whole box, and the level scan never ended
    pytest.param(_analyze_with({"epsilon": 1.0}), 1, id="params-epsilon-one"),
    pytest.param(_analyze_with({"levels": [2000]}), 0,
                 id="params-level-beyond-float-range-fine"),
    pytest.param(_analyze_with({"levels": [-2000]}), 0,
                 id="params-level-beyond-float-range-coarse"),
    pytest.param(_synthesize_with(basis={"base_scale": 0}), 1,
                 id="basis-base-scale-zero"),
    pytest.param(_synthesize_with(basis={"base_scale": -1}), 1,
                 id="basis-base-scale-negative"),
    *(pytest.param(make_argv, 1, id=name)
      for name, (make_argv, _) in OVERFLOWS.items()),
    *(pytest.param(_without_raw(_analyze_with(sidecar_fields=fields)), code,
                   id=name) for name, (fields, code, _) in SIDECAR_GEOMETRY.items()),
    *(pytest.param(_trajectory_text(text), 2, id=name)
      for name, text in NO_SAMPLE_ROWS.items()),
]


@pytest.mark.parametrize("make_argv, code", MALFORMED_INPUT)
def test_malformed_input_exits_without_traceback(tmp_path, make_argv, code):
    src = os.path.dirname(os.path.dirname(cascadelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "cascadelab.cli",
                           *make_argv(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("make_argv, document, field", [
    pytest.param(*case, id=name) for name, case in WRONG_KIND.items()])
def test_wrong_kind_names_document_and_field(tmp_path, capsys, make_argv,
                                             document, field):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert f"{document}: {field} " in capsys.readouterr().err


@pytest.mark.parametrize("make_argv, field", [
    pytest.param(*case, id=name) for name, case in OVERFLOWS.items()])
def test_overflow_names_its_input(tmp_path, capsys, make_argv, field):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert field in err and "Numerical result out of range" not in err, err


@pytest.mark.parametrize("fields, code, message", [
    pytest.param(*case, id=name) for name, case in SIDECAR_GEOMETRY.items()])
def test_sidecar_geometry_is_named_before_samples(tmp_path, capsys, fields,
                                                  code, message):
    argv = _without_raw(_analyze_with(sidecar_fields=fields))(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert f"snapshot_0000.json: {message}" in err, err


@pytest.mark.parametrize("text", [
    pytest.param(text, id=name) for name, text in NO_SAMPLE_ROWS.items()])
def test_trajectory_without_sample_rows_is_named(tmp_path, capsys, text):
    """Named as such, with no warning (which the test settings make an error)."""
    argv = _trajectory_text(text)(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'traj.csv'}: the file holds no sample rows" in err, err
    assert not (tmp_path / "snaps").exists()


def test_negative_base_scale_is_named(tmp_path, capsys):
    argv = _synthesize_with(basis={"base_scale": -1})(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    assert "base_scale must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("base", [0, -2.0])
def test_nonpositive_window_base_is_named(tmp_path, capsys, base):
    argv = _analyze_with({"window_base": base})(tmp_path)
    assert main(argv) == 1
    assert f"window_base must be positive, got {base}" in capsys.readouterr().err


@pytest.mark.parametrize("header, column, got, want", [
    pytest.param(_reversed_columns, 2, "X_4_1", "X_1_0", id="reversed"),
    pytest.param(lambda h: h[:-1], 9, None, "X_4_1", id="column-missing"),
    pytest.param(lambda h: ["time"] + h[1:], 1, "time", "t", id="time-renamed"),
])
def test_trajectory_header_must_name_the_sidecar_window(
        tmp_path, capsys, header, column, got, want):
    """The CSV header is read, not skipped: a reordered, short or renamed
    header is an input error naming the file and its first wrong column."""
    argv = _synthesize_with(header=header)(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert (f"{tmp_path / 'traj.csv'}: header column {column} is {got!r}, "
            f"but the sidecar window [0, 1] names {want!r}") in err, err
    assert not (tmp_path / "snaps").exists()


def test_huge_sidecar_window_is_named_without_building_its_header(tmp_path):
    """A sidecar window far wider than the CSV fails at its first wrong
    column, and the header it names is never built: its 800,005 names would
    take about 60 MB."""
    config = write_config(tmp_path / "c.json",
                          integrator={"initial": {"X_1_0": 1.0}})
    traj = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(config), "--t-end", "0.02",
                 "--out", str(traj)]) == 0
    _edit_json(tmp_path / "traj.csv.json", {"n_max": 200_000})
    tracemalloc.start()
    try:
        with pytest.raises(iomod.InputError) as err:
            iomod.load_trajectory_csv(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (f"{traj}: header column 4 is "
                              "'X_2_0', but the sidecar window [0, 200000] "
                              "names 'X_1_2'")
    assert peak < 2 * 2 ** 20, peak


@pytest.mark.parametrize("level", [2000, -2000])
def test_level_beyond_float_range_is_skipped_with_a_note(tmp_path, level):
    argv = _analyze_with({"levels": [2, level]})(tmp_path)
    assert main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [row["j"] for row in report["per_level"]] == [2]
    assert (f"level {level} skipped: level {level} requests a side beyond "
            "float range") in report["notes"]


def test_huge_nuclear_depth_stops_at_the_saturated_family(tmp_path):
    # families stop changing within a few steps, so depth 10^9 costs no more
    argv = _analyze_with({"nuclear_depth": 10 ** 9}, grids=(32, 32, 32))(tmp_path)
    assert main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["params"]["nuclear_depth"] == 10 ** 9
    assert [row["j"] for row in report["per_level"]] == [2, 3]


def test_pyproject_version_is_the_package_version():
    # a regex, since tomllib needs Python 3.11 and 3.10 is supported
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.M)[1] == cascadelab.__version__
    assert iomod.TOOL_VERSION == f"cascadelab {cascadelab.__version__}"


def _imported_packages(paths) -> set[str]:
    """Top-level names of the absolute imports in ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_are_the_imported_ones():
    """Beside the standard library and itself, the package imports exactly
    its ``dependencies``; the tests add only their own modules, numpy and
    the ``test`` extra.  Read by regex, as the version test reads the
    version, since scipy and others may be installed without being declared."""
    root = Path(__file__).parents[1]
    text = (root / "pyproject.toml").read_text()

    def declared(key):
        entries = re.search(rf"^{key} = \[(.*)\]$", text, re.M)[1]
        return {re.match(r'\s*"([A-Za-z0-9_.-]+)', entry)[1].lower()
                for entry in entries.split(",") if entry.strip()}

    own = {"cascadelab"} | set(sys.stdlib_module_names)
    package = _imported_packages((root / "src" / "cascadelab").glob("*.py"))
    assert package - own == declared("dependencies")
    tests = _imported_packages(root.joinpath("tests").glob("*.py"))
    local = {path.stem for path in root.joinpath("tests").glob("*.py")}
    assert tests - own - local <= {"numpy"} | declared("test")


def test_failed_synthesize_leaves_no_raw_file(tmp_path):
    argv = _synthesize_with(edit=_third_time_overflows)(tmp_path)
    threads = threading.active_count()
    assert main(argv) == 1
    assert not list((tmp_path / "snaps").glob("*.raw"))
    assert threading.active_count() == threads  # nor a pool thread


@pytest.mark.parametrize("make_argv, blocker", [
    pytest.param(_at_path(_simulate_with({}), "--out", "d/traj.csv",
                          directory="d/traj.csv"), "d/traj.csv",
                 id="simulate-csv-a-directory"),
    pytest.param(_at_path(_synthesize_with(edit=_first_three_times), "--out-dir",
                          "snaps", directory="snaps/snapshot_0001.json"),
                 "snaps/snapshot_0001.json", id="synthesize-sidecar-a-directory"),
    pytest.param(_at_path(_analyze_with(), "--out", "r/report.json",
                          directory="r/report.json"), "r/report.json",
                 id="analyze-report-a-directory"),
    pytest.param(_at_path(_simulate_with({}), "--out", "d/traj.csv",
                          directory="d/traj.csv.json"), "d/traj.csv.json",
                 id="simulate-sidecar-a-directory"),
    pytest.param(_at_path(_simulate_with({}), "--out", "d/traj.csv",
                          directory="d/manifest.json"), "d/manifest.json",
                 id="simulate-manifest-a-directory"),
    pytest.param(_at_path(_analyze_with(), "--out", "r/report.json",
                          directory="r/report.json.csv"), "r/report.json.csv",
                 id="analyze-plot-a-directory"),
])
def test_failed_write_leaves_no_file_of_the_run(tmp_path, make_argv, blocker):
    """An output that cannot be written leaves no manifest, no ``.tmp``
    file and no ``.raw`` file: the output directory holds only the
    directory that blocked the write."""
    assert main(make_argv(tmp_path)) == 2
    blocked = tmp_path / blocker
    assert [p.name for p in blocked.parent.iterdir()] == [blocked.name]


def test_failed_rerun_removes_the_earlier_manifest(tmp_path):
    """A rerun whose sidecar cannot be written leaves neither its own CSV
    nor the manifest of the earlier, successful run."""
    argv = _simulate_with({})(tmp_path)
    assert main(argv) == 0
    (tmp_path / "traj.csv.json").unlink()
    (tmp_path / "traj.csv.json").mkdir()
    assert main(argv) == 2
    assert not (tmp_path / "traj.csv").exists()
    assert not (tmp_path / "manifest.json").exists()


def _simulate_then_analyze(tmp_path):
    assert main(_simulate_with({})(tmp_path)) == 0
    return _analyze_with()(tmp_path), tmp_path, "simulate"


def _analyze_into_the_snapshots(tmp_path):
    assert main(_synthesize_with(edit=_first_three_times)(tmp_path)) == 0
    snaps = tmp_path / "snaps"
    return (["analyze", "--snapshots", str(snaps), "--params",
             str(write_params(tmp_path / "params.json")),
             "--out", str(snaps / "report.json")], snaps, "synthesize")


@pytest.mark.parametrize("stages", [_simulate_then_analyze,
                                    _analyze_into_the_snapshots],
                         ids=["simulate-then-analyze", "analyze-into-snapshots"])
def test_stages_sharing_a_directory_exit_2(tmp_path, capsys, stages):
    """A stage whose output directory holds another stage's manifest exits
    2, naming the directory and that stage, and writes and removes nothing."""
    argv, shared, earlier = stages(tmp_path)
    manifest = (shared / "manifest.json").read_bytes()
    files = sorted(shared.iterdir())
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{shared} holds the manifest of a {earlier} run" in err, err
    assert (shared / "manifest.json").read_bytes() == manifest
    assert sorted(shared.iterdir()) == files


def _five_then_three_snapshots(tmp_path) -> list[str]:
    """Analyze argv over five snapshots, then three others written over
    them by a second synthesize run."""
    argv = _synthesize_with()(tmp_path)
    for times in ("0.001,0.002,0.003,0.004,0.005", "0.011,0.013,0.015"):
        argv[argv.index("--times") + 1] = times
        assert main(argv) == 0
    assert len(list((tmp_path / "snaps").glob("*.raw"))) == 5
    return ["analyze", "--snapshots", str(tmp_path / "snaps"), "--params",
            str(write_params(tmp_path / "params.json")),
            "--out", str(tmp_path / "analysis" / "report.json")]


def test_analyze_reads_the_snapshots_its_manifest_names(tmp_path):
    """The synthesize manifest beside the snapshots names the second run's
    three, and ``analyze`` reads those alone."""
    assert main(_five_then_three_snapshots(tmp_path)) == 0
    manifest = json.loads((tmp_path / "analysis" / "manifest.json").read_text())
    assert manifest["inputs"][1:] == [
        str(tmp_path / "snaps" / f"snapshot_{i:04d}.raw") for i in range(3)]


def test_analyze_rejects_a_sidecar_its_manifest_did_not_stamp(tmp_path, capsys):
    argv = _five_then_three_snapshots(tmp_path)
    _edit_json(tmp_path / "snaps" / "snapshot_0001.json",
               {"manifest_digest": "0" * 64})
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "snapshot_0001.json" in err and "0" * 64 in err, err
    assert not (tmp_path / "analysis").exists()


def test_analyze_rejects_snapshots_of_two_synthesize_runs(tmp_path, capsys):
    """Without the synthesize manifest, the five-then-three directory holds
    snapshots of two runs, which ``analyze`` names instead of mixing."""
    argv = _five_then_three_snapshots(tmp_path)
    (tmp_path / "snaps" / "manifest.json").unlink()
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    for name in ("snapshot_0000.json", "snapshot_0003.json"):
        sidecar = json.loads((tmp_path / "snaps" / name).read_text())
        assert name in err and sidecar["manifest_digest"] in err, err
    assert not (tmp_path / "analysis").exists()


def test_analyze_into_hand_written_snapshots_reruns(tmp_path):
    """The analyze manifest left beside hand-written snapshots names no
    snapshot, so a second run lists the directory again and repeats the
    report."""
    argv = _analyze_with()(tmp_path)
    report = tmp_path / "snaps" / "report.json"
    argv[argv.index("--out") + 1] = str(report)
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append((report.read_bytes(),
                        Path(f"{report}.csv").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("stamped", [(1, 2), (0, 2), (0, 1)],
                         ids=["unstamped-first", "unstamped-between",
                              "unstamped-last"])
def test_analyze_accepts_unstamped_beside_one_run(tmp_path, stamped):
    """Without a manifest, sidecars carrying no digest may sit anywhere in
    the listing beside sidecars of one synthesize run."""
    argv = _analyze_with()(tmp_path)
    for s in stamped:
        _edit_json(tmp_path / "snaps" / f"snapshot_{s:04d}.json",
                   {"manifest_digest": "a" * 64})
    assert main(argv) == 0


@pytest.mark.parametrize("edit, field", [
    pytest.param({"subcommand": DROP}, "subcommand", id="no-subcommand"),
    pytest.param({"outputs": "traj.csv"}, "outputs", id="outputs-not-a-list"),
])
def test_publish_refuses_a_malformed_manifest(tmp_path, capsys, edit, field):
    """A ``manifest.json`` in the output directory that is not a checked
    run manifest exits 2, naming it and the field, and nothing is written
    or removed."""
    argv = _simulate_with({})(tmp_path)
    assert main(argv) == 0
    _edit_json(tmp_path / "manifest.json", edit)
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(argv) == 2
    assert f"{tmp_path / 'manifest.json'}: {field} " in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


def test_stage_digests_stay_pinned(tmp_path, monkeypatch, capsys):
    """The shipped configs, run with relative paths, give the pinned
    simulate, synthesize and analyze manifest digests."""
    for name in ("pipeline_demo.json", "basis_demo.json", "params_demo.json"):
        (tmp_path / name).write_bytes((CONFIGS / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    stages = {
        "sim": ["simulate", "--config", "pipeline_demo.json", "--t-end",
                "0.01", "--out", "sim/traj.csv"],
        "s1": ["synthesize", "--trajectory", "sim/traj.csv",
               "--basis-config", "basis_demo.json",
               "--times", "0.002,0.005,0.008", "--out-dir", "s1"],
        "analysis": ["analyze", "--snapshots", "s1", "--params",
                     "params_demo.json", "--out", "analysis/report.json"],
    }
    digests = {}
    for stage_dir, argv in stages.items():
        assert main(argv) == 0
        digests[stage_dir] = json.loads(
            capsys.readouterr().out)["manifest_digest"]
        manifest = json.loads((tmp_path / stage_dir / "manifest.json").read_text())
        assert manifest["digest"] == digests[stage_dir]
    assert digests["sim"] == SIMULATE_DIGEST
    assert digests["s1"] == SYNTHESIZE_DIGEST
    assert digests["analysis"] == ANALYZE_DIGEST


def test_integer_valued_numbers_keep_their_digests(tmp_path):
    from cascadelab import pipeline
    config = tmp_path / "c.json"
    digests = []
    for lam in (2, 2.0):
        write_config(config, lam=lam, integrator={"initial": {"X_1_0": 1.0}})
        out = tmp_path / repr(lam) / "traj.csv"
        assert main(["simulate", "--config", str(config), "--t-end", "0.01",
                     "--out", str(out)]) == 0
        digests.append(json.loads((out.parent / "manifest.json").read_text())
                       ["digest"])
    assert digests[0] == digests[1]
    basis_ids = {pipeline.load_basis_config(write_basis_config(
        tmp_path / "b.json", base_scale=scale)).basis_id for scale in (5, 5.0)}
    assert len(basis_ids) == 1


@pytest.mark.parametrize("setup, named", [
    pytest.param(_analyze_with(tags=(0.0, 0.5, 0.0)),
                 ("snapshot_0000", "snapshot_0002"), id="times-repeated"),
    pytest.param(_analyze_with(grids=(8, 8, 16)),
                 ("snapshot_0001", "snapshot_0002"), id="grids-differ"),
    pytest.param(_analyze_with(boxes=(2 * np.pi, 3.0, 2 * np.pi)),
                 ("snapshot_0000", "snapshot_0001"), id="boxes-differ"),
    pytest.param(_analyze_with(components=(3, 3, 1)),
                 ("snapshot_0001", "snapshot_0002"), id="components-differ"),
])
def test_analyze_names_conflicting_sidecars_before_reading_samples(
        tmp_path, capsys, setup, named):
    argv = setup(tmp_path)
    for raw in (tmp_path / "snaps").glob("*.raw"):
        raw.unlink()  # the sidecars alone must reveal the conflict
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(f"{name}.json" in err for name in named), err


@pytest.mark.parametrize("spoil, message", [
    pytest.param(lambda raw: raw.write_bytes(raw.read_bytes()[:-8]),
                 "snapshot_0001.raw: size does not match the sidecar",
                 id="raw-short"),
    pytest.param(lambda raw: raw.unlink(), "cannot read", id="raw-missing"),
])
def test_analyze_sizes_raw_files_before_the_analysis(tmp_path, capsys,
                                                     monkeypatch, spoil, message):
    from cascadelab import pipeline
    argv = _analyze_with()(tmp_path)
    spoil(tmp_path / "snaps" / "snapshot_0001.raw")
    monkeypatch.setattr(pipeline, "analyze_snapshots",
                        lambda *args: pytest.fail("the analysis ran"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "snapshot_0001.raw" in err, err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_pipeline_writes_standard_json(tmp_path):
    config = write_config(tmp_path / "c.json", kappa=1.0,
                          integrator={"initial": {"X_1_0": 0.8, "X_2_1": -0.3}})
    traj = tmp_path / "sim" / "traj.csv"
    snaps = tmp_path / "snaps"
    report = tmp_path / "analysis" / "report.json"
    assert main(["simulate", "--config", str(config), "--t-end", "0.02",
                 "--out", str(traj)]) == 0
    assert main(["synthesize", "--trajectory", str(traj), "--basis-config",
                 str(write_basis_config(tmp_path / "basis.json")),
                 "--times", "0.004,0.01,0.016", "--out-dir", str(snaps)]) == 0
    assert main(["analyze", "--snapshots", str(snaps), "--params",
                 str(write_params(tmp_path / "params.json")),
                 "--out", str(report)]) == 0
    outputs = sorted(tmp_path.glob("*/*.json"))
    assert len(outputs) == 2 + 4 + 2  # per stage: sidecars and a manifest
    for path in outputs:
        json.loads(path.read_text(), parse_constant=_reject_constant)


def test_json_is_read_only_by_read_document():
    """Every JSON document the package reads is checked by ``io.read_document``."""
    readers = []
    for path in sorted(Path(cascadelab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            readers += [f"{path.stem}.{getattr(top, 'name', '<module>')}"
                        for node in ast.walk(top)
                        if isinstance(node, ast.Attribute) and node.attr == "load"
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "json"]
    assert readers == ["io.read_document"]


def _package_env() -> dict:
    src = os.path.dirname(os.path.dirname(cascadelab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


def test_cli_import_leaves_wavelets_and_analyzer_unloaded(tmp_path):
    """``simulate`` imports neither layer, and ``synthesize`` and ``analyze``
    import none of the shell-model modules; every exported name still resolves."""
    traj = tmp_path / "sim" / "traj.csv"
    assert main(["simulate", "--config", str(CONFIGS / "pipeline_demo.json"),
                 "--t-end", "0.01", "--out", str(traj)]) == 0
    basis = write_basis_config(tmp_path / "basis.json", n_grid=16, base_scale=2.5)
    params = write_params(tmp_path / "params.json")
    snaps, report = tmp_path / "snaps", tmp_path / "analysis" / "report.json"
    code = ("import sys, cascadelab.cli\n"
            "loaded = {'cascadelab.regularity', 'cascadelab.wavelets'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
            f"cascadelab.pipeline.run_synthesize({str(traj)!r}, {str(basis)!r}, "
            f"[0.002, 0.005, 0.008], {str(snaps)!r})\n"
            f"cascadelab.pipeline.run_analyze({str(snaps)!r}, {str(params)!r}, "
            f"{str(report)!r})\n"
            "loaded = {'cascadelab.cascade', 'cascadelab.tensor',\n"
            "          'cascadelab.integrator'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
            "import cascadelab, cascadelab.io\n"
            "for name in cascadelab.__all__:\n"
            "    getattr(cascadelab, name)\n"
            "assert callable(cascadelab.integrate)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert report.exists()


def test_only_the_process_entry_freezes_the_collector():
    """``main`` leaves the collector alone; ``run``, the entry of ``python -m
    cascadelab.cli`` and of the ``cascadelab`` command, freezes it last."""
    config = str(CONFIGS / "pipeline_demo.json")
    assert main(["validate", "--config", config]) == 0
    assert gc.get_freeze_count() == 0
    code = ("import gc, sys\n"
            "from cascadelab import cli\n"
            f"sys.argv = ['cascadelab', 'validate', '--config', {config!r}]\n"
            "assert cli.run() == 0 and gc.get_freeze_count() > 0\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_pipeline_calls_a_replacement_set_on_the_module(tmp_path, monkeypatch):
    from cascadelab import pipeline
    calls = []
    original = pipeline.build_wavelet_basis

    def wrapped(**kwargs):
        calls.append(kwargs)
        return original(**kwargs)
    monkeypatch.setattr(pipeline, "build_wavelet_basis", wrapped)
    basis = pipeline.load_basis_config(write_basis_config(tmp_path / "b.json"))
    assert basis.n_window == (0, 1) and len(calls) == 1


class TestManifest:
    def test_digest_stable_under_timing(self):
        m1 = iomod.RunManifest("simulate", "d", {"a": 1}, ["x"], ["y"], 1.0)
        m2 = iomod.RunManifest("simulate", "d", {"a": 1}, ["x"], ["y"], 99.0)
        assert m1.digest == m2.digest

    def test_digest_sensitive_to_parameters(self):
        m1 = iomod.RunManifest("simulate", "d", {"a": 1}, ["x"], ["y"], 1.0)
        m2 = iomod.RunManifest("simulate", "d", {"a": 2}, ["x"], ["y"], 1.0)
        assert m1.digest != m2.digest
