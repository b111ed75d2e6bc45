"""Child-process side of the traced run: instrumented stages and probes.

``tracer.py stage --spans F --run-id R --parent P --spawned T -- <cli args>``
wraps the public functions each CLI stage calls, then runs the stage
through ``cascadelab.cli.main`` exactly as the ``cascadelab`` command does.
Every wrapped call becomes a span (name, start, end, parent, run id) nested
under the stage span ``P`` that the parent process opened at monotonic time
``T``; the spans are kept in memory and appended to ``F`` when the stage
ends.  The per-step right-hand side is not wrapped: its cost is measured
by the standalone probe instead.

``tracer.py probe --inputs D [--t-end T] [--snapshots S] --spans F --run-id R``
runs the standalone layer probes (right-hand side, band projection,
nuclear-family enumeration, integrator allocation peak) outside any stage
span and prints their numbers as one JSON object.

Both modes run in a fresh process, so no module-level cache from an
earlier stage or probe is warm.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402


class Tracer:
    def __init__(self, run_id: str, root: str | None):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack = [root]
        self.counter = 0

    def open(self, name: str, start: float | None = None) -> dict:
        self.counter += 1
        parent = self.stack[-1]
        span = {"run": self.run_id, "name": name, "parent": parent,
                "id": f"{parent or self.run_id}.{self.counter}",
                "start": time.monotonic() if start is None else start,
                "end": None}
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def close(self, span: dict, end: float | None = None):
        span["end"] = time.monotonic() if end is None else end
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, annotate=None):
        """Replace ``owner.attr`` by a span-recording wrapper, if it exists."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if annotate is not None:
                span["attrs"] = annotate(args, kwargs, out)
            return out
        setattr(owner, attr, wrapper)

    def write(self, path: str):
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _size(path) -> int:
    return os.path.getsize(str(path))


def instrument(tr: Tracer):
    """Wrap the layer functions reached from the three CLI stages.

    Names are patched where the caller looks them up (``pipeline`` imports
    some functions by name, ``regularity`` imports the cube helpers by name).
    """
    from cascadelab import io, pipeline, regularity

    tr.wrap(io, "load_cascade_config", "io.config_read")
    tr.wrap(pipeline, "validate_tensor", "tensor.validate")
    tr.wrap(pipeline, "integrate", "integrate",
            lambda a, k, out: {"accepted_steps": len(out.samples) - 1})
    tr.wrap(io, "save_trajectory_csv", "io.csv_write",
            lambda a, k, out: {"bytes": _size(a[2])})
    tr.wrap(io, "load_trajectory_csv", "io.csv_read")
    tr.wrap(pipeline, "build_wavelet_basis", "wavelets.basis_build")
    tr.wrap(pipeline, "synthesize_field", "wavelets.synthesize")
    tr.wrap(pipeline, "project_coefficients", "wavelets.project")
    tr.wrap(io, "save_snapshot", "io.snapshot_write",
            lambda a, k, out: {"bytes": _size(out[0])})
    tr.wrap(io, "load_snapshot", "io.snapshot_read")
    tr.wrap(pipeline, "analyze_snapshots", "regularity.analyze")
    tr.wrap(regularity, "classify_level_records", "regularity.classify",
            lambda a, k, out: {"cubes": len(out),
                               "bad": sum(r.verdict == regularity.VERDICT_BAD
                                          for r in out)})
    cache_cls = getattr(regularity, "CoefficientCache", None)
    if cache_cls is not None:
        tr.wrap(cache_cls, "table", "regularity.table",
                lambda a, k, out: {"key": list(a[1:4]), "entries": int(out.size)})
        tr.wrap(cache_cls, "band_energy_density", "regularity.band_energy")
    tr.wrap(regularity, "apply_symbol", "grid.apply_symbol")
    tr.wrap(regularity, "nuclear_family", "cubes.nuclear_family")
    tr.wrap(regularity, "vitali_cover", "cubes.vitali",
            lambda a, k, out: {"selected": len(out)})
    tr.wrap(regularity, "covering_count", "regularity.covering_count")


def run_stage(args) -> int:
    tr = Tracer(args.run_id, args.parent)
    tr.close(tr.open("process.startup", start=args.spawned), end=T_START)
    span = tr.open("python.import", start=T_START)
    from cascadelab import cli
    instrument(tr)
    tr.close(span)
    span = tr.open("cli.main")
    try:
        code = cli.main(args.cli)
    finally:
        tr.close(span)
        flush = tr.open("trace.flush")
        tr.close(flush)  # the flush span ends as serialisation starts
        tr.write(args.spans)
    return code


# ---------------------------------------------------------------------------
# standalone probes


def _median_call_us(fn, batches: int, per_batch: int) -> float:
    fn()  # first call builds any cached plan
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            fn()
        samples.append((time.perf_counter() - t0) / per_batch * 1e6)
    return statistics.median(samples)


def run_probe(args) -> int:
    import cascadelab as cl
    from cascadelab import io

    tr = Tracer(args.run_id, None)
    metrics = {}
    config, integrator = io.load_cascade_config(
        os.path.join(args.inputs, "config.json"))
    state = config.zero_state()
    for key, value in integrator.pop("initial").items():
        _, i, n = key.split("_")
        state.X[int(i) - 1, int(n) - config.n_min] = value

    span = tr.open("probe.cascade_rhs")
    metrics["cascade.rhs_us"] = _median_call_us(
        lambda: cl.cascade_rhs(state, config), 50, 200)
    tr.close(span)

    if args.t_end:
        span = tr.open("probe.integrate_alloc")
        tracemalloc.start()
        try:
            cl.integrate(config, state, args.t_end, **integrator)
            metrics["integrate.alloc_peak_mb"] = (
                tracemalloc.get_traced_memory()[1] / 2 ** 20)
        finally:
            tracemalloc.stop()
        tr.close(span)

    if args.snapshots:
        from cascadelab.cubes import cube_hierarchy
        from cascadelab.grid import apply_symbol
        from cascadelab.regularity import mode_partition, mode_radii
        from cascadelab.pipeline import load_regularity_params

        fld = io.load_snapshot(os.path.join(args.snapshots, "snapshot_0000"))
        n = fld.n_grid
        symbol = mode_partition(n).symbol(2, mode_radii(n))
        span = tr.open("probe.apply_symbol")
        metrics["grid.apply_symbol_ms"] = _median_call_us(
            lambda: apply_symbol(fld, symbol), 5, 1) / 1e3
        tr.close(span)

        params, doc = load_regularity_params(
            os.path.join(args.inputs, "params.json"))
        cubes = [c for j in doc["levels"]
                 for c in cube_hierarchy(int(j), params.epsilon, n)]
        span = tr.open("probe.nuclear_family")
        t0 = time.perf_counter()
        members = sum(len(cl.nuclear_family(c, params.nuclear_depth, n, clamp=True))
                      for c in cubes)
        metrics["cubes.nuclear_family_s"] = time.perf_counter() - t0
        metrics["cubes.family_members"] = members
        tr.close(span)
    tr.write(args.spans)
    print(json.dumps(metrics, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tracer.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("stage")
    p.add_argument("--spans", required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("--parent", required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("cli", nargs=argparse.REMAINDER)
    p = sub.add_parser("probe")
    p.add_argument("--inputs", required=True)
    p.add_argument("--t-end", type=float, default=0.0,
                   help="also measure the integrator's allocation peak")
    p.add_argument("--snapshots", default="")
    p.add_argument("--spans", required=True)
    p.add_argument("--run-id", required=True)
    args = parser.parse_args(argv)
    if args.mode == "stage":
        if args.cli and args.cli[0] == "--":
            args.cli = args.cli[1:]
        return run_stage(args)
    return run_probe(args)


if __name__ == "__main__":
    sys.exit(main())
