"""Workload definitions: seeded input documents, oracles and output checks.

Nothing here imports cascadelab.  Inputs are written in the documented
file formats, the oracles are coded directly from the shell equations, and
every check reads the program's output files with numpy and the standard
library only, so a defect in the code being measured cannot vouch for
itself.

A workload is a ``Workload`` object: ``make_docs(seed)`` builds the input
documents (pure data), ``write_inputs`` puts them on disk, ``stage_args``
gives the CLI arguments of each stage, ``oracle`` computes the untimed
reference once per seed, and ``check`` returns the failures found in one
stage's outputs together with a fingerprint that must repeat across
repetitions.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

DYADIC_TENSOR = [[1, 1, 1, 0, 0, 1, 1.0],
                 [1, 1, 1, 0, 1, 0, -0.5],
                 [1, 1, 1, 1, 0, 0, -0.5]]
N_SPECIES = 4


# ---------------------------------------------------------------------------
# shared helpers


def canonical_digest(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def dump_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def columns(n_min: int, n_max: int) -> list[str]:
    return ["t"] + [f"X_{i}_{n}" for i in range(1, N_SPECIES + 1)
                    for n in range(n_min, n_max + 1)]


def manifest_failures(out_dir: str, claimed: str | None) -> list[str]:
    """The manifest's digest must be recomputable and match ``claimed``.

    The digest covers everything except wall time and output paths (the
    documented manifest contract).
    """
    path = os.path.join(out_dir, "manifest.json")
    try:
        doc = load_json(path)
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    digest = doc.pop("digest", None)
    doc.pop("wall_time_s", None)
    doc.pop("outputs", None)
    failures = []
    if canonical_digest(doc) != digest:
        failures.append("manifest digest does not match its contents")
    if claimed != digest:
        failures.append(f"output carries digest {claimed!r}, manifest has {digest!r}")
    return failures


def read_trajectory(csv_path: str, n_min: int, n_max: int):
    """(failures, times, states[n_samples, 4, n_shells], sidecar)."""
    failures = []
    try:
        sidecar = load_json(csv_path + ".json")
        with open(csv_path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"trajectory unreadable: {exc}"], None, None, None
    if header != columns(n_min, n_max):
        failures.append("trajectory header does not list the window columns")
    n_shells = n_max - n_min + 1
    if raw.shape[1] != 1 + N_SPECIES * n_shells:
        return failures + ["trajectory column count is wrong"], None, None, sidecar
    if sidecar.get("n_samples") != len(raw):
        failures.append(f"sidecar n_samples {sidecar.get('n_samples')} "
                        f"!= {len(raw)} rows")
    times = raw[:, 0]
    if np.any(np.diff(times) <= 0):
        failures.append("trajectory times are not strictly increasing")
    states = raw[:, 1:].reshape(len(raw), N_SPECIES, n_shells)
    return failures, times, states, sidecar


# ---------------------------------------------------------------------------
# dyadic shell oracle


def dyadic_rhs_factory(lam: float, alpha: float, kappa: float, n_shells: int):
    """Species-1 slice of the dyadic cascade, coded from its equation.

    dX_n/dt = lam^(5(n-1)/2) X_{n-1}^2 - lam^(5n/2) X_n X_{n+1}
              - kappa lam^(2 alpha n) X_n          (window starts at n = 0)
    """
    sh = np.arange(n_shells)
    drive = lam ** (2.5 * (sh - 1))
    drain = lam ** (2.5 * sh)
    rates = kappa * lam ** (2.0 * alpha * sh)

    def rhs(x):
        q = np.empty_like(x)
        q[0] = 0.0
        q[1:] = drive[1:] * x[:-1] ** 2
        q[:-1] -= drain[:-1] * x[:-1] * x[1:]
        q -= rates * x
        return q
    return rhs


def rk4_march(rhs, x, t, dt, n_steps, stop=None):
    """Fixed-step classical RK4; stops early when ``stop(x)`` is true."""
    half, sixth = 0.5 * dt, dt / 6.0
    for k in range(1, n_steps + 1):
        s1 = rhs(x)
        s2 = rhs(x + half * s1)
        s3 = rhs(x + half * s2)
        s4 = rhs(x + dt * s3)
        x = x + sixth * (s1 + 2.0 * (s2 + s3) + s4)
        if stop is not None and stop(x):
            return x, t + k * dt, True
    return x, t + n_steps * dt, False


def initial_vector(doc: dict) -> np.ndarray:
    n_shells = doc["n_max"] - doc["n_min"] + 1
    x = np.zeros(n_shells)
    for key, value in doc["integrator"]["initial"].items():
        _, i, n = key.split("_")
        if i != "1":
            raise ValueError("the oracles cover the species-1 slice only")
        x[int(n) - doc["n_min"]] = value
    return x


def cascade_doc(alpha, kappa, n_max, integrator) -> dict:
    return {"schema": "cascade-config/1", "lambda": 2.0, "alpha": alpha,
            "kappa": kappa, "n_min": 0, "n_max": n_max,
            "tensor": DYADIC_TENSOR, "integrator": integrator}


def energies(states):
    return np.sum(states ** 2, axis=(1, 2))


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    stages: tuple
    smoke: bool = False

    def write_inputs(self, docs: dict, in_dir: str):
        os.makedirs(in_dir, exist_ok=True)
        for fname, doc in docs["files"].items():
            path = os.path.join(in_dir, fname)
            if isinstance(doc, str):
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(doc)
            else:
                dump_json(doc, path)


class SimWorkload(Workload):
    """One ``cascadelab simulate`` run on a seeded dyadic config."""

    def stage_args(self, stage, docs, in_dir, out_dir):
        return ["simulate", "--config", os.path.join(in_dir, "config.json"),
                "--t-end", repr(docs["t_end"]),
                "--out", os.path.join(out_dir, "traj.csv")]

    def _read(self, docs, out_dir):
        cfg = docs["files"]["config.json"]
        csv_path = os.path.join(out_dir, "traj.csv")
        failures, times, states, sidecar = read_trajectory(
            csv_path, cfg["n_min"], cfg["n_max"])
        if times is not None:
            if times[0] != 0.0:
                failures.append("trajectory does not start at t = 0")
            x0 = initial_vector(cfg)
            if not (np.array_equal(states[0, 0], x0)
                    and not np.any(states[0, 1:])):
                failures.append("first row is not the configured initial state")
        if sidecar is not None:
            failures += manifest_failures(out_dir, sidecar.get("manifest_digest"))
        fingerprint = None
        if not failures:
            fingerprint = (file_sha256(csv_path) + ":"
                           + file_sha256(csv_path + ".json"))
        return failures, times, states, sidecar, fingerprint


class BlowupWorkload(SimWorkload):
    """Inviscid 12-shell blowup surrogate (shipped dyadic_demo window)."""

    def make_docs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        initial = {"X_1_0": 1.0 + 0.05 * rng.uniform(-1.0, 1.0),
                   "X_1_1": 0.01 * rng.uniform(-1.0, 1.0)}
        guard = 1e2 if self.smoke else 1e4
        cfg = cascade_doc(1.0, 0.0, 11, {"rel_tol": 1e-8, "guard_factor": guard,
                                         "initial": initial})
        return {"files": {"config.json": cfg}, "t_end": 10.0}

    def oracle(self, docs) -> dict:
        """Guard-crossing time from fixed-step RK4 on the shell equations.

        The step is 1e-5 until the weighted norm passes 100 times its
        initial value and 1e-6 afterwards.  The 1e-6 step is the
        acceptance suite's oracle step; up to that norm a 1e-5 march
        crosses each level within one 1e-5 step of the 1e-6 march, and
        the coarse prefix cuts the cost about fivefold.
        """
        cfg = docs["files"]["config.json"]
        x = initial_vector(cfg)
        rhs = dyadic_rhs_factory(cfg["lambda"], cfg["alpha"], cfg["kappa"], len(x))
        weights = cfg["lambda"] ** (2.0 * np.arange(len(x)))
        w0 = float(np.sum(weights * x ** 2))
        guard = cfg["integrator"]["guard_factor"] * w0
        switch = min(100.0 * w0, guard)
        t = 0.0
        for dt, level in ((1e-5, switch), (1e-6, guard)):
            x, t, hit = rk4_march(rhs, x, t, dt, int(round(2.0 / dt)),
                                  lambda y, lv=level: np.sum(weights * y * y) >= lv)
            if not hit:
                raise RuntimeError("oracle never reached the blowup guard")
        return {"t_blowup": t, "w0": w0, "guard": guard}

    def check(self, stage, docs, oracle, out_dir):
        failures, times, states, sidecar, fp = self._read(docs, out_dir)
        if times is None:
            return failures, None
        cfg = docs["files"]["config.json"]
        rel_tol = cfg["integrator"]["rel_tol"]
        if sidecar.get("status") != "blowup_detected":
            failures.append(f"status {sidecar.get('status')!r}, expected blowup_detected")
        if sidecar.get("blowup_time_estimate") != times[-1]:
            failures.append("blowup estimate is not the last sample time")
        shell_e = np.sum(states ** 2, axis=1)
        peaks = np.argmax(shell_e, axis=1)
        if np.any(np.diff(peaks) < 0):
            failures.append("peak shell does not march monotonically")
        e = energies(states)
        drift = float(np.max(np.abs(e - e[0])) / e[0])
        if drift > 10.0 * rel_tol:
            failures.append(f"energy drift {drift:.3g} > 10 rel_tol")
        weights = cfg["lambda"] ** (2.0 * np.arange(states.shape[2]))
        w = np.sum(weights * states[:, 0] ** 2, axis=1)
        if not (w[-1] > oracle["guard"] >= w[-2]):
            failures.append("run does not stop at its first guard crossing")
        rel = abs(times[-1] - oracle["t_blowup"]) / oracle["t_blowup"]
        if rel > 0.05:
            failures.append(f"blowup time {times[-1]:.6g} is {100 * rel:.2f}% "
                            f"from the RK4 oracle {oracle['t_blowup']:.6g}")
        return failures, (fp if not failures else None)


class StiffWorkload(SimWorkload):
    """Overdamped dyadic run at the critical exponent alpha = 5/4."""

    def make_docs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        initial = {"X_1_0": 1.0 + 0.05 * rng.uniform(-1.0, 1.0),
                   "X_1_1": 0.1 * rng.uniform(-1.0, 1.0),
                   "X_1_2": 0.01 * rng.uniform(-1.0, 1.0)}
        cfg = cascade_doc(1.25, 50.0, 7, {"rel_tol": 1e-8, "initial": initial})
        return {"files": {"config.json": cfg},
                "t_end": 0.002 if self.smoke else 0.005}

    def oracle(self, docs) -> dict:
        """Final state from fixed-step RK4 at h = 2e-7.

        The fastest decay rate is kappa lam^(2 alpha n_max) ~ 9.3e6, so
        h = 2e-7 sits inside RK4's stability interval (h rate < 2.78).
        """
        cfg = docs["files"]["config.json"]
        x = initial_vector(cfg)
        rhs = dyadic_rhs_factory(cfg["lambda"], cfg["alpha"], cfg["kappa"], len(x))
        n_steps = int(round(docs["t_end"] / 2e-7))
        x, _, _ = rk4_march(rhs, x, 0.0, docs["t_end"] / n_steps, n_steps)
        return {"x_final": x}

    def check(self, stage, docs, oracle, out_dir):
        failures, times, states, sidecar, fp = self._read(docs, out_dir)
        if times is None:
            return failures, None
        cfg = docs["files"]["config.json"]
        rel_tol = cfg["integrator"]["rel_tol"]
        if sidecar.get("status") != "completed":
            failures.append(f"status {sidecar.get('status')!r}, expected completed")
        t_end = docs["t_end"]
        if abs(times[-1] - t_end) > 1e-12 * t_end:
            failures.append(f"run ends at {times[-1]!r}, not t_end {t_end!r}")
        e = energies(states)
        if np.any(e[1:] > e[:-1] * (1.0 + 1e-12)):
            failures.append("energy increases along the overdamped run")
        x = states[-1, 0]
        x_ref = oracle["x_final"]
        atol = rel_tol * 1e-3 * float(np.max(np.abs(states[0])))
        scale = atol + rel_tol * np.maximum(np.abs(x), np.abs(x_ref))
        err = float(np.sqrt(np.mean(((x - x_ref) / scale) ** 2)))
        if not err <= 1.0 or np.any(states[-1, 1:]):
            failures.append(f"final state is {err:.3g} tolerance units "
                            "from the RK4 oracle")
        return failures, (fp if not failures else None)


class CoveringWorkload(Workload):
    """Criterion-8 concentrating sequence through synthesize and analyze."""

    EPSILON = 1.0 / 3.0

    def geometry(self):
        # (n_grid, shell window top, base_scale)
        return (32, 1, 4.0) if self.smoke else (64, 2, 5.0)

    @property
    def levels(self):
        return (2,) if self.smoke else (2, 3)

    def make_docs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        n_grid, top, base_scale = self.geometry()
        lam, alpha = 2.0, 1.0
        base = np.zeros((N_SPECIES, top + 1))
        base[:, 0] = (np.array([1.0, 0.55, 0.35, 0.2])
                      * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=N_SPECIES)))

        def shifted(m):
            # exact scaling symmetry: X'_n = lam^((2 alpha - 5/2) m) X_{n-m}
            out = np.zeros_like(base)
            out[:, m:] = lam ** ((2.0 * alpha - 2.5) * m) * base[:, :top + 1 - m]
            return out

        times = 1.0 - 0.98 * np.geomspace(1.0, 0.015, 8)
        states = []
        for s in range(len(times)):
            m = int(round(top * s / 7))
            x = shifted(m)
            if m > 0:
                x = x + 0.12 * shifted(m - 1)
            states.append(x)
        cols = columns(0, top)
        lines = [",".join(cols)]
        for t, x in zip(times, states):
            lines.append(",".join([repr(float(t))]
                                  + [repr(float(v)) for v in x.ravel()]))
        sidecar = {"schema": "trajectory-sidecar/1", "status": "completed",
                   "blowup_time_estimate": None, "n_samples": len(times),
                   "columns": cols, "n_min": 0, "n_max": top}
        x0 = {f"X_{i + 1}_{n}": float(states[0][i, n])
              for i in range(N_SPECIES) for n in range(top + 1)
              if states[0][i, n] != 0.0}
        files = {
            "traj.csv": "\n".join(lines) + "\n",
            "traj.csv.json": sidecar,
            "basis.json": {"schema": "basis-config/1", "lambda": lam,
                           "n_grid": n_grid, "n_window": [0, top],
                           "base_scale": base_scale},
            "params.json": {"schema": "regularity-params/1", "alpha": alpha,
                            "epsilon": self.EPSILON, "gamma": 0.1,
                            "K_threshold": 50.0, "levels": list(self.levels)},
            # the cascade config the sequence is a scaling orbit of; the
            # right-hand-side probe evaluates it at the first state
            "config.json": cascade_doc(alpha, 0.0, top, {"initial": x0}),
        }
        return {"files": files, "times": [float(t) for t in times],
                "states": states}

    def stage_args(self, stage, docs, in_dir, out_dir):
        snaps = os.path.join(out_dir, "snapshots")
        if stage == "synthesize":
            return ["synthesize", "--trajectory", os.path.join(in_dir, "traj.csv"),
                    "--basis-config", os.path.join(in_dir, "basis.json"),
                    "--times", ",".join(repr(t) for t in docs["times"]),
                    "--out-dir", snaps]
        return ["analyze", "--snapshots", snaps,
                "--params", os.path.join(in_dir, "params.json"),
                "--out", os.path.join(out_dir, "report", "report.json")]

    def oracle(self, docs) -> dict:
        """Tiling counts m^3 from the documented power-of-two side snap."""
        n_grid = self.geometry()[0]
        tiling = {}
        for j in self.levels:
            exact = n_grid * 2.0 ** (-j * (1.0 - self.EPSILON))
            side = min(int(2 ** round(np.log2(exact))), n_grid)
            tiling[j] = (n_grid // side) ** 3
        return {"tiling": tiling}

    def check(self, stage, docs, oracle, out_dir):
        if stage == "synthesize":
            return self._check_snapshots(docs, out_dir)
        return self._check_report(docs, oracle, out_dir)

    def _check_snapshots(self, docs, out_dir):
        snap_dir = os.path.join(out_dir, "snapshots")
        basis = docs["files"]["basis.json"]
        n = basis["n_grid"]
        box = 2.0 * np.pi * basis["base_scale"]
        k1 = 2.0 * np.pi / box * np.fft.fftfreq(n, 1.0 / n)
        k1[n // 2] = 0.0  # odd multipliers zero the Nyquist mode
        kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
        failures, digests = [], []
        for idx, (t, x) in enumerate(zip(docs["times"], docs["states"])):
            base = os.path.join(snap_dir, f"snapshot_{idx:04d}")
            try:
                side = load_json(base + ".json")
                data = np.fromfile(base + ".raw", dtype="<f8")
            except (OSError, ValueError) as exc:
                failures.append(f"snapshot {idx} unreadable: {exc}")
                continue
            if (side.get("schema") != "field-snapshot/1" or side.get("n_grid") != n
                    or side.get("components") != 3 or side.get("time") != t):
                failures.append(f"snapshot {idx} sidecar does not describe it")
                continue
            if data.size != 3 * n ** 3 or not np.all(np.isfinite(data)):
                failures.append(f"snapshot {idx} raw data is malformed")
                continue
            if not side.get("roundtrip_error", np.inf) <= 1e-10:
                failures.append(f"snapshot {idx} round-trip error "
                                f"{side.get('roundtrip_error')} > 1e-10")
            u = data.reshape(3, n, n, n)
            # orthonormal basis: ||u||^2 equals the coefficient sum of squares
            energy = float(np.sum(u ** 2)) * (box / n) ** 3
            if abs(energy - float(np.sum(x ** 2))) > 1e-10 * float(np.sum(x ** 2)):
                failures.append(f"snapshot {idx} energy {energy!r} != coefficient "
                                f"sum {float(np.sum(x ** 2))!r}")
            hat = np.fft.fftn(u, axes=(1, 2, 3))
            div = np.abs(kx * hat[0] + ky * hat[1] + kz * hat[2])
            if float(np.max(div)) > 1e-10 * float(np.max(np.abs(hat))) * np.max(k1):
                failures.append(f"snapshot {idx} is not divergence-free")
            digests.append(side.get("manifest_digest"))
        if len(set(digests)) > 1:
            failures.append("snapshots carry different manifest digests")
        elif digests:
            failures += manifest_failures(snap_dir, digests[0])
        return failures, (digests[0] if not failures else None)

    def _check_report(self, docs, oracle, out_dir):
        path = os.path.join(out_dir, "report", "report.json")
        try:
            report = load_json(path)
        except (OSError, ValueError) as exc:
            return [f"report unreadable: {exc}"], None
        failures = []
        if report.get("schema") != "covering-report/1":
            failures.append("report schema is not covering-report/1")
        params = docs["files"]["params.json"]
        echo = report.get("params", {})
        for key in ("alpha", "epsilon", "gamma", "K_threshold"):
            if echo.get(key) != params[key]:
                failures.append(f"report echoes {key}={echo.get(key)!r}")
        rows = {row.get("j"): row for row in report.get("per_level", [])}
        if sorted(rows) != list(self.levels):
            failures.append(f"report levels {sorted(rows)} != {list(self.levels)}")
        counts = []
        for j in self.levels:
            row = rows.get(j, {})
            tiling = row.get("tiling_count")
            if tiling != oracle["tiling"][j]:
                failures.append(f"level {j} tiling_count {tiling} != "
                                f"{oracle['tiling'][j]}")
                continue
            bad, vit, cov = (row.get("bad_count"), row.get("vitali_count"),
                             row.get("covering_count"))
            if not (isinstance(bad, int) and isinstance(vit, int)
                    and isinstance(cov, int)
                    and 0 <= vit <= bad <= tiling and vit <= cov <= tiling):
                failures.append(f"level {j} counts are inconsistent: {row}")
            counts.append((j, tiling, bad, vit, cov))
        failures += manifest_failures(os.path.dirname(path),
                                      report.get("manifest_digest"))
        fingerprint = json.dumps([counts, report.get("manifest_digest")])
        return failures, (fingerprint if not failures else None)


def workload(name: str, smoke: bool = False) -> Workload:
    if name == "sim-blowup":
        return BlowupWorkload(name, ("simulate",), smoke)
    if name == "sim-stiff":
        return StiffWorkload(name, ("simulate",), smoke)
    if name == "covering-64":
        return CoveringWorkload(name, ("synthesize", "analyze"), smoke)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sim-blowup", "sim-stiff", "covering-64")
