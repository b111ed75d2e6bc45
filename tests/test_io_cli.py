"""File formats, schema versioning, manifests, and CLI subcommands."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cascadelab
from cascadelab import io as iomod
from cascadelab.cascade import builtin_dyadic_config, state_from_entries
from cascadelab.cli import main
from cascadelab.grid import GridField
from cascadelab.integrate import integrate


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
        _, sidecar = iomod.save_snapshot(fld, base, basis_id="abc")
        iomod.dump_json(sidecar, f"{base}.json")
        back = iomod.load_snapshot(base)
        assert back.data.tobytes() == fld.data.tobytes()
        assert back.time_tag == 0.7
        assert back.meta["basis_id"] == "abc"

    def test_size_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        fld = GridField(rng.normal(size=(3, 8, 8, 8)), 2 * np.pi, time_tag=0.0)
        base = tmp_path / "snapshot_0000"
        _, sidecar = iomod.save_snapshot(fld, base)
        iomod.dump_json(sidecar, f"{base}.json")
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
        config = write_config(tmp_path / "c.json",
                              integrator={"initial": {"X_1_0": 1.0}})
        assert main(["simulate", "--config", str(config), "--t-end", "0.02",
                     "--out", str(tmp_path / "traj.csv")]) == 0
        sidecar = json.loads((tmp_path / "traj.csv.json").read_text())
        stats = sidecar["integrator_stats"]
        assert stats["accepted_steps"] == sidecar["n_samples"] - 1
        assert stats["rhs_evals"] == 6 * (stats["accepted_steps"]
                                          + stats["rejected_steps"]) + 1
        assert 0 < stats["h_min_reached"] <= stats["h_max_reached"]
        assert "integrator_stats" not in (tmp_path / "manifest.json").read_text()

    def test_synthesize_empty_times_writes_nothing(self, tmp_path):
        config = write_config(tmp_path / "c.json", kappa=1.0,
                              integrator={"initial": {"X_1_0": 1.0}})
        traj = tmp_path / "traj.csv"
        main(["simulate", "--config", str(config), "--t-end", "0.02",
              "--out", str(traj)])
        basis = write_basis_config(tmp_path / "basis.json")
        out_dir = tmp_path / "snaps"
        assert main(["synthesize", "--trajectory", str(traj),
                     "--basis-config", str(basis), "--times", "",
                     "--out-dir", str(out_dir)]) == 0
        assert not list(out_dir.glob("snapshot_*.raw"))
        assert (out_dir / "manifest.json").exists()

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
        assert manifest["parameters"]["max_roundtrip_error"] < 1e-8
        assert len(list(out_dir.glob("snapshot_*.raw"))) == 3

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
        report_a = tmp_path / "report_a.json"
        report_b = tmp_path / "report_b.json"
        assert main(["analyze", "--snapshots", str(out_dir), "--params",
                     str(params), "--out", str(report_a)]) == 0
        assert main(["analyze", "--snapshots", str(out_dir), "--params",
                     str(params), "--out", str(report_b)]) == 0
        assert report_a.read_bytes() == report_b.read_bytes()
        doc = json.loads(report_a.read_text())
        assert doc["schema"] == iomod.SCHEMA_REPORT
        assert {row["j"] for row in doc["per_level"]} == {2, 3}
        assert (tmp_path / "report_a.json.csv").exists()

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
            iomod.dump_json(iomod.save_snapshot(fld, base)[1], f"{base}.json")
        params = write_params(tmp_path / "params.json", vitali_pre_dilation=1.0)
        report_path = tmp_path / "report.json"
        assert main(["analyze", "--snapshots", str(snap_dir), "--params",
                     str(params), "--out", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        assert doc["params"]["vitali_pre_dilation"] == 1.0
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
            iomod.dump_json(iomod.save_snapshot(fld, base)[1], f"{base}.json")
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


def _synthesize_with(drop_sidecar_key=None, edit=None, basis=None):
    """Synthesize argv over a simulated trajectory.  ``drop_sidecar_key``
    is deleted from its sidecar; ``edit`` changes its CSV rows (lists of
    fields, header excluded) in place and returns the times to synthesize;
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
        if edit is not None:
            header, *lines = traj.read_text().splitlines()
            rows = [line.split(",") for line in lines]
            t = edit(rows)
            traj.write_text("\n".join([header] + [",".join(r) for r in rows])
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


def _third_time_overflows(rows):
    """Times t0, t1 and (t1 + t2) / 2, where only the last overflows."""
    rows[2][1] = "1e308"
    mid = repr((float(rows[1][0]) + float(rows[2][0])) / 2.0)
    return ",".join([rows[0][0], rows[1][0], mid])


def _analyze_with(params=None, drop_sidecar_key=None, tags=(0.0, 0.5, 1.0),
                  grids=(8, 8, 8)):
    def argv(tmp_path):
        snap_dir = tmp_path / "snaps"
        snap_dir.mkdir()
        for s, (tag, n) in enumerate(zip(tags, grids)):
            fld = GridField(np.zeros((3, n, n, n)), 2 * np.pi, time_tag=tag)
            base = snap_dir / f"snapshot_{s:04d}"
            sidecar = iomod.save_snapshot(fld, base)[1]
            sidecar.pop(drop_sidecar_key, None)
            iomod.dump_json(sidecar, f"{base}.json")
        path = write_params(tmp_path / "params.json")
        _edit_json(path, params or {})
        return ["analyze", "--snapshots", str(snap_dir), "--params", str(path),
                "--out", str(tmp_path / "report.json")]
    return argv


def _at_path(make_argv, flag, target, file=None, directory=None):
    """``make_argv`` with the value of ``flag`` set to ``tmp_path / target``;
    ``file`` and ``directory`` name paths made first under ``tmp_path``."""
    def argv(tmp_path):
        args = make_argv(tmp_path)
        if file:
            (tmp_path / file).write_text("")
        if directory:
            (tmp_path / directory).mkdir()
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


def test_failed_synthesize_leaves_no_raw_file(tmp_path):
    argv = _synthesize_with(edit=_third_time_overflows)(tmp_path)
    assert main(argv) == 1
    assert not list((tmp_path / "snaps").glob("*.raw"))


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
])
def test_analyze_names_conflicting_sidecars_before_reading_samples(
        tmp_path, capsys, setup, named):
    argv = setup(tmp_path)
    for raw in (tmp_path / "snaps").glob("*.raw"):
        raw.unlink()  # the sidecars alone must reveal the conflict
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(f"{name}.json" in err for name in named), err


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


def test_cli_import_leaves_wavelets_and_analyzer_unloaded():
    """``simulate`` imports neither layer; every exported name still resolves."""
    src = os.path.dirname(os.path.dirname(cascadelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, cascadelab.cli\n"
            "loaded = {'cascadelab.regularity', 'cascadelab.wavelets'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
            "import cascadelab, cascadelab.io\n"
            "for name in cascadelab.__all__:\n"
            "    getattr(cascadelab, name)\n"
            "assert callable(cascadelab.integrate)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
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
