"""The snapshot pool of ``synthesize`` and ``analyze``: outputs do not depend
on its size, and only the calling thread reads or writes snapshot files."""

import functools
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from cascadelab import grid, pipeline, regularity, wavelets
from cascadelab import io as iomod
from cascadelab.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
TIMES = "0.002,0.004,0.007,0.01,0.013,0.016,0.02"


@pytest.fixture(scope="module")
def trajectory(tmp_path_factory):
    out = tmp_path_factory.mktemp("traj") / "traj.csv"
    assert main(["simulate", "--config",
                 os.path.join(CONFIG_DIR, "pipeline_demo.json"),
                 "--t-end", "0.02", "--out", str(out)]) == 0
    return out


def chain_argv(trajectory, out_dir):
    """The synthesize and analyze argv that write into ``out_dir``."""
    return [["synthesize", "--trajectory", str(trajectory),
             "--basis-config", os.path.join(CONFIG_DIR, "basis_demo.json"),
             "--times", TIMES, "--out-dir", str(out_dir / "snaps")],
            ["analyze", "--snapshots", str(out_dir / "snaps"),
             "--params", os.path.join(CONFIG_DIR, "params_demo.json"),
             "--out", str(out_dir / "report" / "report.json")]]


def run_chain(trajectory, out_dir):
    """synthesize then analyze through the CLI into ``out_dir``."""
    for argv in chain_argv(trajectory, out_dir):
        assert main(argv) == 0


def output_bytes(out_dir):
    """Every output file's bytes, the manifests without their wall time."""
    files = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "manifest.json":
                data = b"\n".join(line for line in data.splitlines()
                                  if b'"wall_time_s"' not in line)
            files[os.path.relpath(path, out_dir)] = data
    return files


def test_outputs_do_not_depend_on_pool_size(trajectory, tmp_path, monkeypatch):
    """Snapshots, sidecars, report and plot CSV are byte-identical (manifest
    digests included) with one worker and with two."""
    out = tmp_path / "out"
    runs = {}
    for workers in (1, 2):
        monkeypatch.setattr(grid, "SNAPSHOT_WORKERS", workers)
        run_chain(trajectory, out)
        runs[workers] = output_bytes(out)
        for root, _, names in os.walk(out):
            for name in names:
                os.remove(os.path.join(root, name))
    assert sum(name.endswith(".raw") for name in runs[1]) == 7
    assert runs[1] == runs[2]


@pytest.mark.parametrize("workers", [2, 5])
def test_tables_do_not_depend_on_pool_size(workers, monkeypatch):
    """Also with more workers than cores, switching threads every 10 us,
    and with three snapshots per worker of the largest pool, so pool
    threads run jobs on the work arrays an earlier job of theirs left in
    their ``regularity._WORK`` (``regularity._snapshot_rows``)."""
    rng = np.random.default_rng(5)
    fields = [grid.GridField(rng.normal(size=(3, 16, 16, 16)), 2 * np.pi,
                             time_tag=float(t)) for t in range(15)]
    params = regularity.RegularityParams(alpha=1.0, epsilon=0.25, gamma=0.1,
                                         K_threshold=1.0)
    caches, reports = {}, {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for size in (1, workers):
            monkeypatch.setattr(grid, "SNAPSHOT_WORKERS", size)
            caches[size] = regularity.CoefficientCache(fields, params.epsilon)
            reports[size] = regularity.analyze_snapshots(
                fields, params, [1, 2], caches[size]).to_dict()
    finally:
        sys.setswitchinterval(interval)
    one, many = caches[1]._tables, caches[workers]._tables
    assert one.keys() == many.keys() and len(one) > 2
    assert all(one[key].tobytes() == many[key].tobytes() for key in one)
    assert reports[1] == reports[workers]
    assert reports[1]["analysis_stats"]["snapshots_read"] == len(fields)


def test_only_the_calling_thread_touches_snapshot_files(trajectory, tmp_path,
                                                        monkeypatch):
    """File reads and writes stay on the calling thread; the per-snapshot
    transforms run on pool threads."""
    threads = {}

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((iomod, "load_snapshot"), (iomod, "save_snapshot"),
                         (pipeline, "synthesize_checked"),
                         (regularity, "_snapshot_rows")):
        monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
    run_chain(trajectory, tmp_path)
    caller = {threading.get_ident()}
    assert threads["load_snapshot"] == threads["save_snapshot"] == caller
    assert not threads["synthesize_checked"] & caller
    assert not threads["_snapshot_rows"] & caller


def loaded_modules(*argvs):
    """``sys.modules`` of a fresh process that runs each argv through the CLI."""
    src = os.path.dirname(os.path.dirname(grid.__file__))
    code = ("import sys\nfrom cascadelab.cli import main\n"
            f"assert all(main(argv) == 0 for argv in {list(argvs)!r})\n"
            "print(' '.join(sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_simulate_starts_no_pool(tmp_path):
    """``simulate`` never reaches the snapshot pool, so it does not even
    import ``concurrent.futures``."""
    args = ["simulate", "--config", os.path.join(CONFIG_DIR, "pipeline_demo.json"),
            "--t-end", "0.02", "--out", str(tmp_path / "traj.csv")]
    assert "concurrent.futures" not in loaded_modules(args)


def test_pool_stages_load_no_executor(trajectory, tmp_path):
    """The pool runs on ``threading`` and a queue, so ``synthesize`` and
    ``analyze`` load neither ``concurrent.futures`` nor the ``logging`` it
    imports."""
    loaded = loaded_modules(*chain_argv(trajectory, tmp_path))
    assert not loaded & {"concurrent.futures", "logging"}


def test_pool_threads_end_with_the_pass(monkeypatch):
    """Results come in job order; a failed job raises when its result is
    due, and neither a failed pass nor an abandoned one leaves a thread."""
    monkeypatch.setattr(grid, "SNAPSHOT_WORKERS", 2)
    threads = threading.active_count()

    def fn(x):
        if x == 3:
            raise ValueError(x)
        return x * x

    results = grid.map_snapshots(fn, ((x,) for x in range(6)))
    assert [next(results) for _ in range(3)] == [0, 1, 4]
    with pytest.raises(ValueError):
        next(results)
    assert threading.active_count() == threads
    results = grid.map_snapshots(fn, ((x,) for x in range(6)))
    assert next(results) == 0 and threading.active_count() == threads + 2
    results.close()
    assert threading.active_count() == threads


def test_basis_support_is_computed_on_the_calling_thread(trajectory, tmp_path,
                                                         monkeypatch):
    """``synthesize`` reads the basis's cached support before its pool
    starts, so no pool thread writes the cache."""
    threads = []
    compute = wavelets.WaveletBasis.support.func

    def recorded(basis):
        threads.append(threading.get_ident())
        return compute(basis)

    support = functools.cached_property(recorded)
    support.__set_name__(wavelets.WaveletBasis, "support")
    monkeypatch.setattr(wavelets.WaveletBasis, "support", support)
    assert main(chain_argv(trajectory, tmp_path)[0]) == 0
    assert threads == [threading.get_ident()]
