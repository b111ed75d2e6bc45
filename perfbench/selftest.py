"""Self-test of the benchmark harness (small sizes, about a minute).

    python3 perfbench/selftest.py

1. A smoke run of every workload, untraced and traced, must be correct and
   print every named metric with its unit; the traced run must write spans
   with name, start, end, parent and run id.
2. Tampered outputs must count as failures: an altered trajectory row, a
   wrong snapshot sidecar digest, an altered snapshot and a wrong tiling
   count in the covering report.
3. Without the program next to it, the harness exits nonzero and prints no
   result.
"""

import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workloads import WORKLOADS, workload  # noqa: E402

SCRATCH = bench.STATE / "selftest"


def harness(*args, cwd=bench.ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def check_smoke():
    for trace in (0, 1):
        proc = harness("--workload", "all", "--seed", "0", "--seconds", "1",
                       "--trace", str(trace), "--smoke")
        expect(proc.returncode == 0, f"smoke run trace={trace} exits 0")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] >= 4, f"smoke run trace={trace} is correct")
        names = bench.PER_LAYER if trace else {n: bench.END_TO_END[n]
                                               for n in bench.GATED}
        for wl in WORKLOADS:
            for name, unit in names.items():
                m = result["metrics"].get(f"{wl}.{name}")
                expect(m is not None and m["unit"] == unit
                       and isinstance(m["value"], (int, float)),
                       f"{wl} reports {name} in {unit}")
            head = next(line for line in lines if line.startswith(f"[{wl} "))
            for stage in workload(wl).stages:
                expect(f" {stage}_s=" in head, f"{wl} prints {stage}_s")
            for name in ("setup_s", "total_s", "peak_rss_mb", "error_rate"):
                expect(f" {name}=" in head, f"{wl} prints {name}")
        if trace:
            spans_files = sorted((bench.STATE / "results").glob("*.spans.jsonl"),
                                 key=os.path.getmtime)[-len(WORKLOADS):]
            for path in spans_files:
                with open(path, encoding="utf-8") as fh:
                    spans = [json.loads(line) for line in fh]
                expect(spans and all({"name", "start", "end", "parent", "run"}
                                     <= set(s) for s in spans),
                       f"{path.name} holds complete spans")
                expect(not bench.nesting_failures(spans),
                       f"{path.name} spans nest inside their parents")


def run_cli(args):
    proc = subprocess.run(bench.cli_argv(args), env=bench.child_env(),
                          cwd=bench.ROOT, capture_output=True, text=True)
    expect(proc.returncode == 0, f"cascadelab {args[0]} runs")


def rewrite_row(csv_path, row, factor):
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.readlines()
    cells = lines[row].rstrip("\n").split(",")
    cells[1] = repr(float(cells[1]) * factor)
    lines[row] = ",".join(cells) + "\n"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def check_tampering():
    for name in ("sim-blowup", "sim-stiff"):
        wl = workload(name, smoke=True)
        docs = wl.make_docs(0)
        in_dir, out_dir = SCRATCH / name / "in", SCRATCH / name / "out"
        wl.write_inputs(docs, str(in_dir))
        oracle = wl.oracle(docs)
        run_cli(wl.stage_args("simulate", docs, str(in_dir), str(out_dir)))
        failures, fp = wl.check("simulate", docs, oracle, str(out_dir))
        expect(not failures and fp, f"{name} untouched output passes")
        csv_path = out_dir / "traj.csv"
        with open(csv_path, encoding="utf-8") as fh:
            mid = len(fh.readlines()) // 2
        rewrite_row(csv_path, mid, 1.001)
        failures, fp = wl.check("simulate", docs, oracle, str(out_dir))
        expect(failures and fp is None, f"{name} altered row fails: {failures[:1]}")

    wl = workload("covering-64", smoke=True)
    docs = wl.make_docs(0)
    in_dir, out_dir = SCRATCH / "covering" / "in", SCRATCH / "covering" / "out"
    wl.write_inputs(docs, str(in_dir))
    oracle = wl.oracle(docs)
    for stage in wl.stages:
        run_cli(wl.stage_args(stage, docs, str(in_dir), str(out_dir)))
        failures, fp = wl.check(stage, docs, oracle, str(out_dir))
        expect(not failures and fp, f"covering {stage} untouched output passes")

    sidecar = out_dir / "snapshots" / "snapshot_0003.json"
    original = sidecar.read_text(encoding="utf-8")
    doc = json.loads(original)
    doc["manifest_digest"] = "0" * 64
    sidecar.write_text(json.dumps(doc), encoding="utf-8")
    failures, _ = wl.check("synthesize", docs, oracle, str(out_dir))
    expect(failures, f"wrong sidecar digest fails: {failures[:1]}")
    sidecar.write_text(original, encoding="utf-8")

    raw = out_dir / "snapshots" / "snapshot_0005.raw"
    data = bytearray(raw.read_bytes())
    data[8 * 1000:8 * 1001] = struct.pack("<d", 1.0)
    raw.write_bytes(bytes(data))
    failures, _ = wl.check("synthesize", docs, oracle, str(out_dir))
    expect(failures, f"altered snapshot data fails: {failures[:1]}")

    report = out_dir / "report" / "report.json"
    doc = json.loads(report.read_text(encoding="utf-8"))
    doc["per_level"][0]["tiling_count"] += 1
    report.write_text(json.dumps(doc), encoding="utf-8")
    failures, _ = wl.check("analyze", docs, oracle, str(out_dir))
    expect(failures, f"wrong tiling count fails: {failures[:1]}")


def check_bare_directory():
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = harness("--workload", "sim-blowup", "--seed", "0", "--seconds", "1",
                   "--trace", "0", cwd=bare, script=bare / HERE.name / "run.py")
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the program the harness exits nonzero and prints nothing")


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_tampering()
        check_bare_directory()
        check_smoke()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
