"""Pipeline benchmark for cascadelab: stage wall times as a user sees them.

Run from the repository root:

    python3 perfbench/run.py --workload sim-stiff --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 55 --trace 0

Each workload's input documents are generated from ``--seed`` (the program
sees only the documents).  Every stage repetition runs as a fresh
``python -m cascadelab.cli`` process, one at a time, with the BLAS/OpenMP
thread variables set to 1; a stage's wall time and peak RSS come from
``os.wait4`` on that process.  Repetitions continue while the next one
fits into ``--seconds`` (at least two run); every figure is the median over
repetitions.
Every stage's outputs are checked against independent oracles (see
``workloads.py``) and must be identical across repetitions.

``--trace 1`` additionally runs one repetition with each stage under
``tracer.py``, which records a span around every layer call, plus the
standalone layer probes, and reports per-layer figures; the spans go to
``.perfbench/results/<run>.spans.jsonl``.  Results, with the environment
facts, go to ``.perfbench/results/<run>.json``.  Scratch outputs live
under ``.perfbench/work`` and are removed at exit.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (stage invocations), ``failed`` and ``metrics``.  The exit
code is 2 when the program is missing or fails to import, in which case
no result is printed.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS, workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPS = 20   # timed set-ups per batch (one batch per repetition)
MIN_REPS = 2      # every stage figure is a median of at least two processes
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "simulate_s": "s", "synthesize_s": "s",
              "analyze_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
# the subset every workload reports (the per-stage times exist only on the
# workloads that run that stage, and error_rate is carried by
# attempted/failed)
GATED = ("setup_s", "total_s", "peak_rss_mb")

PER_LAYER = {
    "simulate_s": "s", "synthesize_s": "s", "analyze_s": "s",
    "cascade.rhs_us": "us", "integrate.us_per_step": "us",
    "integrate.accepted_steps": "count", "integrate.alloc_peak_mb": "MB",
    "io.csv_write_s": "s", "io.csv_bytes": "bytes", "io.csv_read_s": "s",
    "io.snapshot_write_s": "s", "io.snapshot_read_s": "s",
    "io.snapshot_bytes": "bytes", "wavelets.basis_build_s": "s",
    "wavelets.synthesize_ms": "ms", "wavelets.project_ms": "ms",
    "grid.apply_symbol_ms": "ms", "regularity.band_energy_s": "s",
    "regularity.band_projections": "count", "grid.fft_bytes_computed": "bytes",
    "regularity.tables_s": "s", "regularity.table_entries": "count",
    "regularity.classify_s": "s", "regularity.cubes_classified": "count",
    "regularity.bad_cubes": "count", "cubes.nuclear_family_s": "s",
    "cubes.family_members": "count", "cubes.vitali_s": "s",
    "cubes.vitali_selected": "count", "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    # bytecode is compiled afresh in every stage process, wherever this runs
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, env, log_path, deadline, start=None):
    """Run ``argv`` to completion; (start, end, rusage, exit code, output).

    ``start`` and ``end`` are monotonic times (``start`` defaults to now).
    The child is reaped with ``os.wait4`` so its own peak RSS is known; a
    child still running at the monotonic time ``deadline`` is killed.
    """
    with open(log_path, "wb") as log:
        start = time.monotonic() if start is None else start
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
        out = fh.read()
    return start, end, usage, proc.returncode, out


def cli_argv(args):
    return [sys.executable, "-m", "cascadelab.cli"] + args


def traced_argv(args, spans, run_id, parent, spawned):
    return [sys.executable, str(HERE / "tracer.py"), "stage", "--spans", spans,
            "--run-id", run_id, "--parent", parent, "--spawned", repr(spawned),
            "--"] + args


def check_program(env) -> str | None:
    """Import the program once (untimed); an error message if that fails."""
    if not (SRC / "cascadelab" / "cli.py").is_file():
        return f"no program source at {SRC}"
    code = "import cascadelab, cascadelab.cli; print(cascadelab.__file__)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return f"cascadelab does not import:\n{proc.stderr}"
    if not Path(proc.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
        return f"cascadelab resolves outside {SRC}: {proc.stdout.strip()}"
    return None


# ---------------------------------------------------------------------------
# repetitions


class Run:
    """One workload at one seed: setup, oracle, repetitions, figures."""

    def __init__(self, name, seed, seconds, trace, smoke, env):
        self.wl = workload(name, smoke)
        self.seed, self.seconds, self.trace, self.env = seed, seconds, trace, env
        self.run_id = f"{name}-s{seed}-t{trace}-{os.getpid()}"
        self.work = STATE / "work" / self.run_id
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.invocations = []   # one dict per stage invocation
        self.spans = []
        self.trace_failures = []
        self.setup_times = []
        self.docs = self.in_dir = None

    def setup(self, batch):
        """Generate and write the inputs ``SETUP_REPS`` times, each timed.

        The first set-up of the run is kept as the stages' inputs; the
        others go to scratch directories that are removed untimed.  One
        batch runs before the oracle and one before every repetition, so
        the set-up samples spread over the whole run as the stage samples
        do.
        """
        for k in range(SETUP_REPS):
            in_dir = self.work / f"inputs{batch}-{k}"
            t0 = time.perf_counter()
            docs = self.wl.make_docs(self.seed)
            self.wl.write_inputs(docs, str(in_dir))
            self.setup_times.append(time.perf_counter() - t0)
            if self.docs is None:
                self.docs, self.in_dir = docs, str(in_dir)
            else:
                shutil.rmtree(in_dir)

    def stage(self, stage, rep, out_dir, traced):
        args = self.wl.stage_args(stage, self.docs, self.in_dir, out_dir)
        log = os.path.join(out_dir, f"{stage}.log")
        if traced:
            span_id = f"{self.run_id}.{stage}"
            spans_file = os.path.join(out_dir, f"{stage}.spans.jsonl")
            spawned = time.monotonic()
            start, end, usage, code, out = spawn(
                traced_argv(args, spans_file, self.run_id, span_id, spawned),
                self.env, log, self.deadline, start=spawned)
            self.collect_spans(stage, span_id, spans_file, start, end)
        else:
            start, end, usage, code, out = spawn(cli_argv(args), self.env, log,
                                                 self.deadline)
        if code != 0:
            failures, fingerprint = [f"exit code {code}: {out[-2000:]}"], None
        else:
            failures, fingerprint = self.wl.check(stage, self.docs, self.oracle,
                                                  out_dir)
        record = {"stage": stage, "rep": rep, "traced": traced,
                  "wall_s": end - start,
                  "cpu_s": usage.ru_utime + usage.ru_stime,
                  "rss_mb": usage.ru_maxrss / 1024.0, "exit_code": code,
                  "failures": failures, "fingerprint": fingerprint}
        self.invocations.append(record)
        return record

    def collect_spans(self, stage, span_id, spans_file, start, end):
        try:
            with open(spans_file, encoding="utf-8") as fh:
                child = [json.loads(line) for line in fh]
        except OSError:
            child = []
        last = max((s["end"] for s in child), default=start)
        self.spans.append({"run": self.run_id, "id": span_id, "parent": None,
                           "name": f"stage.{stage}", "start": start, "end": end})
        self.spans.extend(child)
        self.spans.append({"run": self.run_id, "id": f"{span_id}.exit",
                           "parent": span_id, "name": "process.exit",
                           "start": last, "end": end})

    def repetition(self, rep, traced=False):
        # one output path for every repetition, as a user rerunning the same
        # command would have (manifests record input paths)
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        records = []
        for stage in self.wl.stages:
            os.makedirs(out_dir, exist_ok=True)
            record = self.stage(stage, rep, str(out_dir), traced)
            records.append(record)
            if record["failures"]:
                break
        return out_dir, records

    def execute(self):
        # dirty pages left by earlier runs are flushed first (untimed), so
        # their write-back does not land inside the timed set-ups
        os.sync()
        self.setup("first")
        self.oracle = self.wl.oracle(self.docs)
        t_begin = time.monotonic()
        rep = 0
        while True:
            t0 = time.monotonic()
            self.setup(rep)
            out_dir, _ = self.repetition(rep)
            shutil.rmtree(out_dir)
            rep += 1
            now = time.monotonic()
            last = now - t0
            if now + last > self.deadline or (
                    rep >= MIN_REPS and now - t_begin + last > self.seconds):
                break
        self.probe_metrics = {}
        if self.trace:
            out_dir, records = self.repetition(0, traced=True)
            if not any(r["failures"] for r in records):
                self.probe(out_dir)
        self.check_fingerprints()

    def probe(self, traced_dir):
        argv = [sys.executable, str(HERE / "tracer.py"), "probe",
                "--inputs", self.in_dir, "--run-id", self.run_id,
                "--spans", str(traced_dir / "probe.spans.jsonl")]
        if "t_end" in self.docs:
            argv += ["--t-end", repr(self.docs["t_end"])]
        if "synthesize" in self.wl.stages:
            argv += ["--snapshots", str(traced_dir / "snapshots")]
        _, _, _, code, out = spawn(argv, self.env, str(traced_dir / "probe.log"),
                                   self.deadline)
        if code != 0:
            self.trace_failures.append(f"layer probe exit code {code}: {out[-2000:]}")
            return
        self.probe_metrics = json.loads(out.strip().splitlines()[-1])
        with open(traced_dir / "probe.spans.jsonl", encoding="utf-8") as fh:
            self.spans.extend(json.loads(line) for line in fh)

    def check_fingerprints(self):
        """Outputs of one stage must be identical in every repetition."""
        first = {}
        for record in self.invocations:
            fp = record["fingerprint"]
            if fp is None:
                continue
            ref = first.setdefault(record["stage"], fp)
            if fp != ref:
                record["failures"].append("output differs from the first repetition")

    # -- figures -----------------------------------------------------------

    def end_to_end(self) -> dict:
        plain = [r for r in self.invocations if not r["traced"]]
        reps = {}
        for r in plain:
            reps.setdefault(r["rep"], []).append(r)
        complete = [rs for rs in reps.values()
                    if len(rs) == len(self.wl.stages)
                    and not any(r["failures"] for r in rs)]
        out = {"setup_s": statistics.median(self.setup_times)}
        for stage in self.wl.stages:
            walls = [r["wall_s"] for rs in complete for r in rs if r["stage"] == stage]
            out[f"{stage}_s"] = statistics.median(walls) if walls else None
        out["total_s"] = (statistics.median(sum(r["wall_s"] for r in rs)
                                            for rs in complete)
                          if complete else None)
        out["peak_rss_mb"] = (statistics.median(max(r["rss_mb"] for r in rs)
                                                for rs in complete)
                              if complete else None)
        attempted, failed = self.counts()
        out["error_rate"] = failed / attempted
        return out

    def counts(self):
        return (len(self.invocations),
                sum(1 for r in self.invocations if r["failures"]))

    def per_layer(self, e2e) -> dict:
        traced = [r for r in self.invocations if r["traced"]]
        m = layer_metrics(self.spans,
                          self.docs["files"].get("basis.json", {}).get("n_grid", 0))
        m.update(self.probe_metrics)
        for stage in ("simulate", "synthesize", "analyze"):
            m[f"{stage}_s"] = e2e.get(f"{stage}_s", 0.0)
        if e2e["total_s"] is not None:
            m["trace.overhead_s"] = sum(r["wall_s"] for r in traced) - e2e["total_s"]
        return {name: m.get(name, 0) for name in PER_LAYER}


# ---------------------------------------------------------------------------
# spans -> per-layer figures


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def trace_gaps(spans) -> dict:
    """Per stage: its span minus the self times of every span beneath it."""
    selfs = self_times(spans)
    parent = {s["id"]: s["parent"] for s in spans}

    def stage_of(sid):
        while parent.get(sid) is not None:
            sid = parent[sid]
        return sid
    gaps = {}
    for s in spans:
        if s["name"].startswith("stage."):
            gaps[s["id"]] = s["end"] - s["start"]
    for s in spans:
        root = stage_of(s["id"])
        if root in gaps and root != s["id"]:
            gaps[root] -= selfs[s["id"]]
    return gaps


def nesting_failures(spans) -> list[str]:
    by_id = {s["id"]: s for s in spans}
    failures = []
    for s in spans:
        p = by_id.get(s["parent"])
        if s["parent"] is not None and p is None:
            failures.append(f"span {s['id']} has no parent {s['parent']}")
        elif p is not None and not (p["start"] - 1e-6 <= s["start"] <= s["end"]
                                    <= p["end"] + 1e-6):
            failures.append(f"span {s['id']} ({s['name']}) leaves its parent")
    return failures


def layer_metrics(spans, n_grid) -> dict:
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def self_total(name):
        return sum(selfs[s["id"]] for s in named(name))

    def attr_sum(name, key):
        return sum(s.get("attrs", {}).get(key, 0) for s in named(name))

    m = {}
    steps = attr_sum("integrate", "accepted_steps")
    m["integrate.accepted_steps"] = steps
    m["integrate.us_per_step"] = total("integrate") / steps * 1e6 if steps else 0.0
    m["io.csv_write_s"] = total("io.csv_write")
    m["io.csv_bytes"] = attr_sum("io.csv_write", "bytes")
    m["io.csv_read_s"] = total("io.csv_read")
    m["io.snapshot_write_s"] = total("io.snapshot_write")
    m["io.snapshot_read_s"] = total("io.snapshot_read")
    m["io.snapshot_bytes"] = attr_sum("io.snapshot_write", "bytes")
    m["wavelets.basis_build_s"] = total("wavelets.basis_build")
    for name, key in (("wavelets.synthesize", "wavelets.synthesize_ms"),
                      ("wavelets.project", "wavelets.project_ms")):
        calls = len(named(name))
        m[key] = total(name) / calls * 1e3 if calls else 0.0
    projections = len(named("grid.apply_symbol"))
    m["regularity.band_energy_s"] = total("regularity.band_energy")
    m["regularity.band_projections"] = projections
    # computed, not measured: a forward and an inverse complex 3-D FFT per
    # projection, each reading and writing 3 N^3 complex128 values
    m["grid.fft_bytes_computed"] = projections * 2 * 2 * 16 * 3 * n_grid ** 3
    m["regularity.tables_s"] = self_total("regularity.table")
    keys = {}
    for s in named("regularity.table"):
        attrs = s.get("attrs", {})
        keys[tuple(attrs.get("key", ()))] = attrs.get("entries", 0)
    m["regularity.table_entries"] = sum(keys.values())
    m["regularity.classify_s"] = self_total("regularity.classify")
    m["regularity.cubes_classified"] = attr_sum("regularity.classify", "cubes")
    m["regularity.bad_cubes"] = attr_sum("regularity.classify", "bad")
    m["cubes.vitali_s"] = total("cubes.vitali")
    m["cubes.vitali_selected"] = attr_sum("cubes.vitali", "selected")
    return m


# ---------------------------------------------------------------------------
# reporting


def environment(seed) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    affinity = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": affinity, "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "seed": seed}


def fmt(name, value, unit):
    return f"{name}=n/a" if value is None else f"{name}={value:.6g} {unit}"


def summary_lines(run, e2e, layers, env) -> list[str]:
    attempted, failed = run.counts()
    head = f"[{run.wl.name} seed={run.seed}]"
    names = ["setup_s"] + [f"{s}_s" for s in run.wl.stages] + ["total_s", "peak_rss_mb"]
    lines = [head + " " + "  ".join(fmt(n, e2e[n], END_TO_END[n]) for n in names)
             + f"  error_rate={e2e['error_rate']:.6g} ({failed}/{attempted})"
             f"  reps={len({r['rep'] for r in run.invocations if not r['traced']})}"]
    if layers is not None:
        lines.append(head + " trace: " + "  ".join(
            fmt(n, layers[n], u) for n, u in PER_LAYER.items()))
    for r in run.invocations:
        for f in r["failures"]:
            lines.append(f"{head} FAILED {r['stage']} rep {r['rep']}: {f}")
    lines.append(head + " env: " + json.dumps(env, sort_keys=True))
    return lines


def run_workload(name, args, env) -> dict:
    run = Run(name, args.seed, args.seconds, args.trace, args.smoke, env)
    os.makedirs(run.work, exist_ok=True)
    try:
        run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    e2e = run.end_to_end()
    layers = run.per_layer(e2e) if args.trace else None
    trace_failures = run.trace_failures
    if args.trace:
        trace_failures += nesting_failures(run.spans)
        gaps = trace_gaps(run.spans)
        slack = max(abs(layers["trace.overhead_s"] or 0.0), 1e-3)
        trace_failures += [f"{sid}: {gap:.3g} s of the stage is in no layer span"
                           for sid, gap in gaps.items() if abs(gap) > slack]
    attempted, failed = run.counts()
    env_facts = environment(args.seed)
    results = STATE / "results"
    os.makedirs(results, exist_ok=True)
    with open(results / f"{run.run_id}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "smoke": args.smoke, "env": env_facts,
                   "end_to_end": e2e, "per_layer": layers,
                   "invocations": run.invocations,
                   "trace_failures": trace_failures}, fh, indent=1, default=str)
    if args.trace:
        with open(results / f"{run.run_id}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in run.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
    lines = summary_lines(run, e2e, layers, env_facts)
    lines += [f"[{name} seed={args.seed}] TRACE {f}" for f in trace_failures]
    if args.trace:
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": END_TO_END[n]} for n in GATED}
    return {"lines": lines, "attempted": attempted, "failed": failed,
            "correct": failed == 0 and not trace_failures, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, for the harness self-test")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    env = child_env()
    problem = check_program(env)
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args, env) for name in names}
    for res in results.values():
        print("\n".join(res["lines"]), flush=True)
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{k}": v for name, res in results.items()
                   for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
