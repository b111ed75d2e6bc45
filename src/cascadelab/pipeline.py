"""Batch pipeline: validate, simulate, synthesize, analyze.

Each ``run_*`` function is deterministic given identical inputs, writes a
run manifest next to its outputs, and stamps every sidecar with the
manifest digest so outputs can be traced to the invocation that produced
them.
"""

from __future__ import annotations

import os
import time
from importlib import import_module

import numpy as np

from . import io as iomod
from .grid import map_snapshots
from .integrate import integrate
from .tensor import validate_tensor

#: wavelet-layer and analyzer entry points, resolved through the package on
#: first use so that ``simulate`` loads neither; a replacement set here is kept.
#: ``synthesize_checked`` is resolved on the calling thread and run on the
#: snapshot pool (``grid.map_snapshots``), which ``simulate`` never starts.
_DEFERRED = ("build_wavelet_basis", "synthesize_checked", "RegularityParams",
             "analyze_snapshots")


def _deferred(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(__package__), name))


__getattr__ = _deferred


def _finish_manifest(manifest: iomod.RunManifest, out_dir: str,
                     start: float) -> str:
    manifest.wall_time_s = time.monotonic() - start
    digest = manifest.digest
    doc = manifest.to_dict()
    doc["digest"] = digest
    iomod.dump_json(doc, os.path.join(out_dir, "manifest.json"))
    return digest


def run_validate(config_path) -> tuple[int, str]:
    """Exit code and human-readable report for a config document."""
    try:
        config, _ = iomod.load_cascade_config(config_path)
    except iomod.InputError as exc:
        return 2, f"input error: {exc}"
    except iomod.DomainError as exc:
        return 1, f"domain violation: {exc}"
    report = validate_tensor(config.tensor)
    if report.valid:
        return 0, str(report)
    return 1, str(report)


def run_simulate(config_path, t_end: float, out_path) -> dict:
    """Integrate the configured system and write CSV + sidecar + manifest."""
    start = time.monotonic()
    config, integrator = iomod.load_cascade_config(config_path)
    report = validate_tensor(config.tensor)
    if not report.valid:
        raise iomod.DomainError(str(report))
    if not 0 < t_end < np.inf:
        raise iomod.DomainError(f"t_end must be positive and finite, got {t_end}")

    initial_entries = integrator.pop("initial", iomod.DEFAULT_INITIAL)
    initial = iomod.initial_state(config, initial_entries)
    trajectory = integrate(config, initial, t_end, **integrator)

    out_dir = os.path.dirname(os.path.abspath(out_path)) or "."
    os.makedirs(out_dir, exist_ok=True)
    config_doc = iomod.config_to_dict(
        config, dict(integrator, initial=initial_entries))
    digest = iomod.canonical_digest(config_doc)
    manifest = iomod.RunManifest("simulate", digest,
                                 {"t_end": t_end, "integrator": integrator,
                                  "initial": initial_entries},
                                 [str(config_path)], [str(out_path)], 0.0)
    manifest_digest = _finish_manifest(manifest, out_dir, start)
    iomod.save_trajectory_csv(trajectory, config, out_path, sidecar={
        "config_digest": digest, "manifest_digest": manifest_digest,
        "integrator_stats": trajectory.integrator_stats})
    return {"status": trajectory.status,
            "blowup_time_estimate": trajectory.blowup_time_estimate,
            "n_samples": len(trajectory.times),
            "manifest_digest": manifest_digest}


def _build(factory, fields: dict):
    """``factory(**fields)``; a value out of range is a DomainError."""
    try:
        return factory(**fields)
    except ValueError as exc:
        raise iomod.DomainError(str(exc)) from exc


def load_basis_config(path):
    fields, _ = iomod.read_document(path, iomod.SCHEMA_BASIS)
    return _build(_deferred("build_wavelet_basis"), fields)


def run_synthesize(trajectory_path, basis_config_path, times, out_dir) -> dict:
    """Synthesize field snapshots at the requested times.

    Each time must lie inside the trajectory span; states are linearly
    interpolated between the two bracketing samples.  The worst
    round-trip coefficient recovery error across snapshots is recorded.
    Snapshots are synthesized on the snapshot pool and written here, in
    order.
    """
    synthesize = _deferred("synthesize_checked")
    start = time.monotonic()
    t_samples, states, sidecar = iomod.load_trajectory_csv(trajectory_path)
    basis = load_basis_config(basis_config_path)
    n_min, n_max = sidecar["n_min"], sidecar["n_max"]
    if not basis.covers(n_min, n_max):
        raise iomod.DomainError(
            f"basis window {basis.n_window} does not cover shells "
            f"[{n_min}, {n_max}]")
    for t in times:
        if not t_samples[0] <= t <= t_samples[-1]:
            raise iomod.DomainError(
                f"time {t} outside trajectory span "
                f"[{t_samples[0]}, {t_samples[-1]}]")

    os.makedirs(out_dir, exist_ok=True)
    manifest = iomod.RunManifest(
        "synthesize", sidecar.get("config_digest", ""),
        {"times": list(times), "basis_id": basis.basis_id},
        [str(trajectory_path), str(basis_config_path)], [], 0.0)

    def jobs():
        for t in times:
            coeffs = np.empty_like(states[0])
            for i in range(states.shape[1]):
                for n in range(states.shape[2]):
                    coeffs[i, n] = np.interp(t, t_samples, states[:, i, n])
            yield coeffs, basis, n_min, float(t)

    def checked(*job):  # finite amplitudes can still overflow the samples
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                return synthesize(*job)
        except ValueError as exc:
            raise iomod.DomainError(
                f"{trajectory_path} at time {job[-1]}: {exc}") from exc

    written = []  # (path base, sidecar document) per snapshot
    max_roundtrip = 0.0
    try:
        for idx, (fld, err) in enumerate(map_snapshots(checked, jobs())):
            max_roundtrip = max(max_roundtrip, err)
            base = os.path.join(out_dir, f"snapshot_{idx:04d}")
            _, sidecar = iomod.save_snapshot(
                fld, base, basis_id=basis.basis_id,
                extra={"roundtrip_error": err, "n_min": n_min, "n_max": n_max})
            written.append((base, sidecar))
    except BaseException:  # leave no .raw file without a sidecar and manifest
        for base, _ in written:
            os.remove(base + ".raw")
        raise

    manifest.outputs = [base + ".raw" for base, _ in written]
    manifest.parameters["max_roundtrip_error"] = max_roundtrip
    manifest_digest = _finish_manifest(manifest, out_dir, start)
    for base, sidecar in written:  # written once, with the final digest
        sidecar["manifest_digest"] = manifest_digest
        iomod.dump_json(sidecar, f"{base}.json")
    return {"written": [base for base, _ in written],
            "max_roundtrip_error": max_roundtrip,
            "manifest_digest": manifest_digest}


def load_regularity_params(path) -> tuple[RegularityParams, dict]:
    """Params and the document, whose ``levels`` the params do not hold."""
    fields, doc = iomod.read_document(path, iomod.SCHEMA_PARAMS)
    del fields["levels"]
    return _build(_deferred("RegularityParams"), fields), doc


def run_analyze(snapshot_dir, params_path, out_path) -> dict:
    """Classify cubes across levels and write the covering report."""
    start = time.monotonic()
    params, doc = load_regularity_params(params_path)
    levels = doc["levels"]

    bases = sorted(
        os.path.join(snapshot_dir, name[:-5])
        for name in os.listdir(snapshot_dir)
        if name.startswith("snapshot_") and name.endswith(".json"))
    if len(bases) < 3:
        raise iomod.DomainError(
            f"need at least 3 snapshots in {snapshot_dir}, found {len(bases)}")
    # sidecars only: each .raw file is read once, inside the analysis pass
    snapshots = [iomod.read_snapshot_header(base) for base in bases]
    for snap in snapshots:
        if snap.time_tag is None:
            raise iomod.InputError(f"{snap.base}.json: snapshot has no time tag")
    snapshots.sort(key=lambda snap: snap.time_tag)
    for a, b in zip(snapshots, snapshots[1:]):
        if a.time_tag == b.time_tag or a.n_grid != b.n_grid:
            raise iomod.InputError(
                f"{a.base}.json and {b.base}.json: snapshots need distinct "
                f"times and one grid, got times {a.time_tag!r} and "
                f"{b.time_tag!r}, n_grid {a.n_grid} and {b.n_grid}")

    report = _deferred("analyze_snapshots")(snapshots, params, levels)

    out_dir = os.path.dirname(os.path.abspath(out_path)) or "."
    os.makedirs(out_dir, exist_ok=True)
    manifest = iomod.RunManifest(
        "analyze", iomod.canonical_digest(doc), {"levels": levels},
        [str(params_path)] + [b + ".raw" for b in bases], [str(out_path)], 0.0)
    manifest_digest = _finish_manifest(manifest, out_dir, start)

    doc_out = report.to_dict()
    doc_out["schema"] = iomod.SCHEMA_REPORT
    doc_out["manifest_digest"] = manifest_digest
    iomod.dump_json(doc_out, out_path)

    plot_path = str(out_path) + ".csv"
    with open(plot_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# manifest_digest: {manifest_digest}\n")
        fh.write("j,log2_count\n")
        for row in report.per_level:
            if row.vitali_count > 0:
                fh.write(f"{row.j},{repr(float(np.log2(row.vitali_count)))}\n")
    return {"report": doc_out, "plot_csv": plot_path,
            "manifest_digest": manifest_digest}
