"""Batch pipeline: validate, simulate, synthesize, analyze.

Each ``run_*`` function is deterministic given identical inputs, writes a
run manifest next to its outputs, and stamps every sidecar with the
manifest digest so outputs can be traced to the invocation that produced
them.  The digest covers no output, so it is taken first.  Through
:func:`_publish`, a stage's files appear beside their manifest or not at all.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager, suppress
from importlib import import_module

import numpy as np

from . import io as iomod
from .grid import map_snapshots

#: each stage's layer entry points, resolved through the package on first
#: use so that a stage loads only its own layers; a replacement set here is
#: kept.  ``synthesize_checked`` is resolved on the calling thread and runs
#: on the snapshot pool (``grid.map_snapshots``), allocating its arrays per
#: snapshot; ``simulate`` never starts the pool.
_DEFERRED = ("validate_tensor", "integrate", "build_wavelet_basis",
             "synthesize_checked", "RegularityParams", "CoefficientCache",
             "analyze_snapshots")


def _deferred(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(__package__), name))


__getattr__ = _deferred


@contextmanager
def _publish(manifest: iomod.RunManifest, out_dir, start: float):
    """Remove an earlier run's ``manifest.json``, yield ``claim(*paths)``
    (called before writing them; returns the first), and write the manifest
    last.  Any exception removes every claimed regular file, then re-raises.
    Stages need directories of their own: a ``manifest.json`` that is not a
    run manifest of the same subcommand is an InputError, raised before
    anything is removed or written."""
    claimed = [os.path.join(out_dir, "manifest.json")]
    earlier = iomod.read_manifest(out_dir)
    if earlier is not None and earlier["subcommand"] != manifest.subcommand:
        raise iomod.InputError(
            f"{out_dir} holds the manifest of a {earlier['subcommand']} "
            f"run; give the {manifest.subcommand} outputs a directory of their own")
    with suppress(FileNotFoundError):
        os.remove(claimed[0])
    try:
        os.makedirs(out_dir, exist_ok=True)
        yield lambda *paths: claimed.extend(paths) or paths[0]
        manifest.wall_time_s = time.monotonic() - start
        iomod.dump_json(dict(manifest.to_dict(), digest=manifest.digest),
                        claimed[0])
    except BaseException:  # a directory that blocked a write is left alone
        for path in filter(os.path.isfile, claimed):
            os.remove(path)
        raise


def run_validate(config_path) -> tuple[int, str]:
    """Exit code and human-readable report for a config document."""
    try:
        config, _ = iomod.load_cascade_config(config_path)
    except iomod.InputError as exc:
        return 2, f"input error: {exc}"
    except iomod.DomainError as exc:
        return 1, f"domain violation: {exc}"
    report = _deferred("validate_tensor")(config.tensor)
    return (0 if report.valid else 1), str(report)


def run_simulate(config_path, t_end: float, out_path) -> dict:
    """Integrate the configured system and write CSV + sidecar + manifest."""
    start = time.monotonic()
    config, integrator = iomod.load_cascade_config(config_path)
    report = _deferred("validate_tensor")(config.tensor)
    if not report.valid:
        raise iomod.DomainError(str(report))
    if not 0 < t_end < np.inf:
        raise iomod.DomainError(f"t_end must be positive and finite, got {t_end}")

    initial_entries = integrator.pop("initial", iomod.DEFAULT_INITIAL)
    initial = iomod.initial_state(config, initial_entries)
    trajectory = _deferred("integrate")(config, initial, t_end, **integrator)

    digest = iomod.canonical_digest(iomod.config_to_dict(
        config, dict(integrator, initial=initial_entries)))
    manifest = iomod.RunManifest("simulate", digest, {
        "t_end": t_end, "integrator": integrator, "initial": initial_entries},
        [str(config_path)], [str(out_path)], 0.0)
    sidecar = {"config_digest": digest, "manifest_digest": manifest.digest,
               "integrator_stats": trajectory.integrator_stats}
    with _publish(manifest, os.path.dirname(os.path.abspath(out_path)),
                  start) as claim:
        iomod.save_trajectory_csv(trajectory, config,
                                  claim(out_path, f"{out_path}.json"), sidecar)
    return {"status": trajectory.status,
            "blowup_time_estimate": trajectory.blowup_time_estimate,
            "n_samples": len(trajectory.times),
            "manifest_digest": sidecar["manifest_digest"]}


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

    ``times`` must name at least one time, each once, and each must lie
    inside the trajectory span; states are linearly interpolated between
    the two bracketing samples.  Each sidecar records its snapshot's
    round-trip coefficient recovery error, and the worst is returned.
    Snapshots are synthesized on the snapshot pool and written here, in
    order, each sidecar once.
    """
    if not times or len(set(times)) < len(times):
        raise iomod.InputError("--times must name at least one time, each "
                               f"once, got {list(times)!r}")
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
    basis.support  # computed here, so no pool thread writes the cache

    manifest = iomod.RunManifest(
        "synthesize", sidecar.get("config_digest", ""),
        {"times": list(times), "basis_id": basis.basis_id},
        [str(trajectory_path), str(basis_config_path)], [], 0.0)
    manifest_digest = manifest.digest

    def jobs():
        for t in times:
            coeffs = np.apply_along_axis(
                lambda column: np.interp(t, t_samples, column), 0, states)
            yield coeffs, basis, n_min, float(t)

    def checked(*job):  # finite amplitudes can still overflow the samples
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                return synthesize(*job)
        except ValueError as exc:
            raise iomod.DomainError(
                f"{trajectory_path} at time {job[-1]}: {exc}") from exc

    max_roundtrip = 0.0
    with _publish(manifest, out_dir, start) as claim:
        for idx, (fld, err) in enumerate(map_snapshots(checked, jobs())):
            max_roundtrip = max(max_roundtrip, err)
            base = os.path.join(out_dir, f"snapshot_{idx:04d}")
            manifest.outputs.append(claim(f"{base}.raw", f"{base}.json"))
            iomod.save_snapshot(fld, base, basis.basis_id, {
                "roundtrip_error": err, "n_min": n_min, "n_max": n_max,
                "manifest_digest": manifest_digest})
            del fld  # so at most SNAPSHOT_WORKERS + 1 fields are held
    return {"written": [raw[:-4] for raw in manifest.outputs],
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

    manifest_path = os.path.join(snapshot_dir, "manifest.json")
    synthesized = iomod.read_manifest(snapshot_dir)
    if synthesized is not None and synthesized["subcommand"] == "synthesize":
        raws = synthesized["outputs"]  # the snapshots its run wrote
        if not all(raw.endswith(".raw") for raw in raws):
            raise iomod.InputError(f"{manifest_path}: outputs must be a list "
                                   f"of snapshot .raw paths, got {raws!r}")
        names = [os.path.basename(raw)[:-4] for raw in raws]
        source, run = manifest_path, synthesized["digest"]
    else:  # built by hand, a manifest removed, or another stage's manifest
        names = sorted(name[:-5] for name in os.listdir(snapshot_dir)
                       if name.startswith("snapshot_") and name.endswith(".json"))
        source = run = None
    every_stamped = run is not None  # else a hand-built sidecar may carry none
    bases = [os.path.join(snapshot_dir, name) for name in names]
    if len(bases) < 3:
        raise iomod.DomainError(
            f"need at least 3 snapshots in {snapshot_dir}, found {len(bases)}")
    # sidecars only: each .raw file is read once, inside the analysis pass
    snapshots = [iomod.read_snapshot_header(base) for base in bases]
    for snap in snapshots:
        digest = snap.sidecar.get("manifest_digest")
        if run is None and digest:  # no manifest: the first digest listed
            source, run = f"{snap.base}.json", digest
        if digest != run and (digest or every_stamped):
            raise iomod.InputError(
                f"{snap.base}.json: manifest digest {digest!r}, but {source} "
                f"has {run!r}; analyze the snapshots of one synthesize run")
    try:  # the one judge of a snapshot set; it reads no samples
        cache = _deferred("CoefficientCache")(snapshots, params.epsilon)
    except ValueError as exc:
        raise iomod.InputError(str(exc)) from exc
    for snap in snapshots:  # before any array is sized from a sidecar
        snap.check_raw()

    report = _deferred("analyze_snapshots")(cache.snapshots, params, levels, cache)

    manifest = iomod.RunManifest(
        "analyze", iomod.canonical_digest(doc), {"levels": levels},
        [str(params_path)] + [b + ".raw" for b in bases], [str(out_path)], 0.0)
    manifest_digest = manifest.digest
    doc_out = dict(report.to_dict(), schema=iomod.SCHEMA_REPORT,
                   manifest_digest=manifest_digest)
    plot_path = str(out_path) + ".csv"
    with _publish(manifest, os.path.dirname(os.path.abspath(out_path)),
                  start) as claim:
        iomod.dump_json(doc_out, claim(out_path))
        with open(claim(plot_path), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# manifest_digest: {manifest_digest}\n")
            fh.write("j,log2_count\n")
            for row in report.per_level:
                if row.vitali_count > 0:
                    fh.write(f"{row.j},{repr(float(np.log2(row.vitali_count)))}\n")
    return {"report": doc_out, "plot_csv": plot_path,
            "manifest_digest": manifest_digest}
