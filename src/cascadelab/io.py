"""Versioned file formats and run manifests.

Every JSON document carries a ``schema`` field; loaders reject unknown
versions instead of guessing.  Trajectories are CSV (shortest round-trip
decimal text, so a repeated run is byte-identical) with a JSON sidecar for
status; field snapshots are raw little-endian float64 with a JSON sidecar.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .cascade import (CascadeConfig, CascadeState, CascadeTrajectory,
                      N_SPECIES, state_from_entries)
from .grid import GridField, _is_power_of_two
from .integrate import CONTROLS, check_controls
from .tensor import CoefficientTensor

SCHEMA_CONFIG = "cascade-config/1"
SCHEMA_TRAJECTORY = "trajectory-sidecar/1"
SCHEMA_SNAPSHOT = "field-snapshot/1"
SCHEMA_BASIS = "basis-config/1"
SCHEMA_PARAMS = "regularity-params/1"
SCHEMA_REPORT = "covering-report/1"
SCHEMA_MANIFEST = "run-manifest/1"

TOOL_VERSION = "cascadelab 0.1.0"


def _typed(value, kinds=(int, float)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _integers(value) -> bool:
    return isinstance(value, list) and all(_typed(v, int) for v in value)


#: JSON kinds: (description, test, conversion of a value that passes).
#: A bool is never a number, and an integer is a JSON integer.
NUMBER = ("a number", _typed, float)
INTEGER = ("an integer", lambda v: _typed(v, int), int)
NUMBER_OR_NULL = ("a number or null", lambda v: v is None or _typed(v),
                  lambda v: None if v is None else float(v))
OBJECT = ("an object", lambda v: isinstance(v, dict), dict)
TWO_INTEGERS = ("two integers", lambda v: _integers(v) and len(v) == 2, tuple)
DISTINCT_INTEGERS = ("a list of distinct integers",
                     lambda v: _integers(v) and len(set(v)) == len(v), list)
TENSOR_ROWS = ("a list of rows of six integers and a number",
               lambda v: isinstance(v, list) and all(
                   isinstance(row, list) and len(row) == 7
                   and _integers(row[:6]) and _typed(row[6]) for row in v),
               lambda v: [row[:6] + [float(row[6])] for row in v])

#: fields of each input document as (required, optional) maps from name to
#: JSON kind; an absent optional field takes the default of its consumer
FIELDS = {
    SCHEMA_CONFIG: ({"lambda": NUMBER, "alpha": NUMBER, "kappa": NUMBER,
                     "n_min": INTEGER, "n_max": INTEGER, "tensor": TENSOR_ROWS},
                    {"integrator": OBJECT}),
    SCHEMA_BASIS: ({"lambda": NUMBER, "n_grid": INTEGER,
                    "n_window": TWO_INTEGERS, "base_scale": NUMBER}, {}),
    SCHEMA_PARAMS: ({"alpha": NUMBER, "epsilon": NUMBER, "gamma": NUMBER,
                     "K_threshold": NUMBER, "levels": DISTINCT_INTEGERS},
                    {"nuclear_depth": INTEGER, "window_exponent": INTEGER,
                     "exponent_offset": NUMBER, "window_base": NUMBER,
                     "vitali_pre_dilation": NUMBER}),
    SCHEMA_TRAJECTORY: ({"n_min": INTEGER, "n_max": INTEGER}, {}),
    SCHEMA_SNAPSHOT: ({"n_grid": INTEGER, "components": INTEGER,
                       "box_size": NUMBER, "time": NUMBER_OR_NULL}, {}),
}
#: the integrator block of a cascade config, which takes no other key
INTEGRATOR_FIELDS = ({}, {**{name: INTEGER if kinds is int else NUMBER
                             for name, (kinds, *_) in CONTROLS.items()},
                          "initial": OBJECT})
_KEYWORDS = {"lambda": "lam"}  # field -> argument, for Python keywords


class InputError(Exception):
    """Unreadable, unparsable, or wrong-schema input (CLI exit code 2)."""


class DomainError(Exception):
    """Well-formed input violating a domain constraint (CLI exit code 1)."""


def canonical_digest(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise OverflowError(f"number {text} is out of range for a float")
    return value


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_document(path, schema: str) -> tuple[dict, dict]:
    """Checked fields (see :data:`FIELDS` and :func:`read_fields`) and the
    whole document of the given schema.  Unreadable or malformed JSON, a
    ``NaN``/``Infinity`` literal included, is an InputError; a number that
    overflows a float is a DomainError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite_float,
                            parse_constant=_reject_constant)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except OverflowError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    if doc.get("schema") != schema:
        raise InputError(f"{path}: schema {doc.get('schema')!r}, expected {schema!r}")
    return read_fields(doc, FIELDS[schema], path), doc


def read_fields(doc: dict, table: dict, where) -> dict:
    """The fields of ``doc`` that ``table`` names, as keyword arguments.
    A required field missing or a value of another kind is an InputError
    naming ``where`` and the field; a number too large for a float is a
    DomainError."""
    required, optional = table
    fields = {}
    for name, (kind, test, convert) in {**required, **optional}.items():
        if name not in doc:
            if name in required:
                raise InputError(f"{where}: {name} is missing")
            continue
        if not test(doc[name]):
            raise InputError(f"{where}: {name} must be {kind}, got {doc[name]!r}")
        try:
            fields[_KEYWORDS.get(name, name)] = convert(doc[name])
        except OverflowError as exc:
            raise DomainError(f"{where}: {name}: {exc}") from exc
    return fields


def dump_json(doc: dict, path):
    """Write a document atomically: a crash leaves the old file or the new one."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# cascade config


def config_to_dict(config: CascadeConfig, integrator: dict | None = None) -> dict:
    doc = {
        "schema": SCHEMA_CONFIG,
        "lambda": config.lam,
        "alpha": config.alpha,
        "kappa": config.kappa,
        "n_min": config.n_min,
        "n_max": config.n_max,
        "tensor": config.tensor.as_rows(),
    }
    if integrator:
        doc["integrator"] = dict(integrator)
    return doc


#: initial state of an integrator block without ``initial``
DEFAULT_INITIAL = {"X_1_0": 1.0}

_INITIAL_KEY = re.compile(r"X_(\d+)_(-?\d+)")


def initial_state(config: CascadeConfig, entries: dict) -> CascadeState:
    """State from an integrator block's ``{"X_<i>_<n>": value}`` entries."""
    parsed = {}
    for key, value in entries.items():
        match = _INITIAL_KEY.fullmatch(key)
        if match is None or not _typed(value):
            raise InputError(f"initial entry {key!r}: {value!r} is not "
                             "of the form \"X_<i>_<n>\": number")
        parsed[int(match[1]), int(match[2])] = value
    try:
        state = state_from_entries(config, parsed)
    except (ValueError, OverflowError) as exc:  # outside the window, or too large
        raise DomainError(f"initial entry: {exc}") from exc
    if not state.finite:
        raise DomainError("initial entries must be finite")
    return state


def load_cascade_config(path) -> tuple[CascadeConfig, dict]:
    """Config and its integrator block, both checked; a value out of range
    is a DomainError."""
    fields, _ = read_document(path, SCHEMA_CONFIG)
    integrator = fields.pop("integrator", {})
    unknown = sorted(set(integrator) - set(INTEGRATOR_FIELDS[1]))
    if unknown:
        raise InputError(f"{path}: unknown integrator key {unknown[0]!r}; "
                         f"accepted: {', '.join(INTEGRATOR_FIELDS[1])}")
    controls = read_fields(integrator, INTEGRATOR_FIELDS, f"{path}: integrator")
    initial = controls.pop("initial", None)
    try:
        fields["tensor"] = CoefficientTensor.from_rows(fields["tensor"])
        config = CascadeConfig(**fields, check_tensor=False)
        check_controls(**controls)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    if initial is not None:
        initial_state(config, initial)
    return config, integrator


# ---------------------------------------------------------------------------
# trajectories


def save_trajectory_csv(trajectory: CascadeTrajectory, config: CascadeConfig,
                        path, sidecar: dict | None = None):
    """Write the CSV row by row from the trajectory arrays, then the sidecar."""
    cols = ["t"] + [f"X_{i}_{n}" for i in range(1, N_SPECIES + 1)
                    for n in range(config.n_min, config.n_max + 1)]
    times = trajectory.times
    rows = trajectory.X.reshape(len(times), -1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for t, x in zip(times.tolist(), rows):
            fh.write(repr(t) + "," + ",".join(map(repr, x.tolist())) + "\n")
    doc = {
        "schema": SCHEMA_TRAJECTORY,
        "status": trajectory.status,
        "blowup_time_estimate": trajectory.blowup_time_estimate,
        "n_samples": len(times),
        "columns": cols,
        "n_min": config.n_min,
        "n_max": config.n_max,
    }
    doc.update(sidecar or {})
    dump_json(doc, str(path) + ".json")


def load_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray, dict]:
    """Times, stacked states (n_samples, 4, n_shells), and the sidecar,
    whose ``n_min`` must not exceed ``n_max``.  Every value must be finite
    and the times strictly increasing."""
    fields, sidecar = read_document(f"{path}.json", SCHEMA_TRAJECTORY)
    n_min, n_max = fields["n_min"], fields["n_max"]
    if n_min > n_max:
        raise InputError(f"{path}.json: n_min {n_min} exceeds n_max {n_max}")
    try:
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"malformed trajectory CSV {path}: {exc}") from exc
    n_shells = n_max - n_min + 1
    if raw.shape[1] != 1 + N_SPECIES * n_shells:
        raise InputError(f"{path}: column count does not match the sidecar window")
    if not np.all(np.isfinite(raw)):
        raise InputError(f"{path}: every value must be finite")
    times = raw[:, 0]
    if np.any(np.diff(times) <= 0):
        raise InputError(f"{path}: times must be strictly increasing")
    states = raw[:, 1:].reshape(len(raw), N_SPECIES, n_shells)
    return times, states, sidecar


# ---------------------------------------------------------------------------
# field snapshots


def save_snapshot(fld: GridField, path_base, basis_id: str = "",
                  extra: dict | None = None) -> tuple[str, dict]:
    """Write the raw samples; return their path and the sidecar document,
    which the caller completes and writes once to ``<path_base>.json``."""
    raw_path = str(path_base) + ".raw"
    fld.data.astype("<f8", copy=False).tofile(raw_path)
    doc = {
        "schema": SCHEMA_SNAPSHOT,
        "n_grid": fld.n_grid,
        "box_size": fld.box_size,
        "components": fld.n_components,
        "time": fld.time_tag,
        "basis_id": basis_id,
    }
    doc.update(extra or {})
    return raw_path, doc


@dataclass(frozen=True)
class SnapshotFile:
    """A snapshot known from its checked sidecar; ``load`` reads the samples."""

    base: str
    n_grid: int
    time_tag: float | None
    sidecar: dict

    def load(self) -> GridField:
        return load_snapshot(self)


def read_snapshot_header(path_base) -> SnapshotFile:
    """Sidecar ``<path_base>.json``; a malformed file, a field missing or of
    the wrong kind, or an ``n_grid`` no field has is an InputError."""
    fields, doc = read_document(f"{path_base}.json", SCHEMA_SNAPSHOT)
    if not _is_power_of_two(fields["n_grid"]):
        raise InputError(f"{path_base}.json: n_grid must be a power of two")
    return SnapshotFile(str(path_base), fields["n_grid"], fields["time"], doc)


def load_snapshot(source) -> GridField:
    """Snapshot from a path base (``<base>.json`` and ``.raw``) or its
    :class:`SnapshotFile`; samples not filling the grid are an InputError."""
    snap = (source if isinstance(source, SnapshotFile)
            else read_snapshot_header(source))
    n, comps = snap.n_grid, snap.sidecar["components"]
    try:
        data = np.fromfile(snap.base + ".raw", dtype="<f8")
    except OSError as exc:
        raise InputError(f"cannot read {snap.base}.raw: {exc}") from exc
    if data.size != comps * n ** 3:
        raise InputError(f"{snap.base}.raw: size does not match the sidecar")
    try:
        fld = GridField(data.reshape(comps, n, n, n),
                        float(snap.sidecar["box_size"]), snap.time_tag)
    except ValueError as exc:
        raise InputError(f"{snap.base}: {exc}") from exc
    fld.meta["basis_id"] = snap.sidecar.get("basis_id", "")
    return fld


# ---------------------------------------------------------------------------
# run manifests


@dataclass
class RunManifest:
    subcommand: str
    config_digest: str
    parameters: dict
    inputs: list[str]
    outputs: list[str]
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_MANIFEST,
            "tool_version": TOOL_VERSION,
            "subcommand": self.subcommand,
            "config_digest": self.config_digest,
            "parameters": self.parameters,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "wall_time_s": self.wall_time_s,
        }

    @property
    def digest(self) -> str:
        """Identity of the computation: inputs and parameters only.

        Wall time and output destinations never change what was computed,
        so they stay outside the digest.
        """
        doc = self.to_dict()
        doc.pop("wall_time_s")
        doc.pop("outputs")
        return canonical_digest(doc)
