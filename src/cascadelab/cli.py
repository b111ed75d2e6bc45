"""Command-line entry point: validate | simulate | synthesize | analyze.

Exit codes: 0 success, 1 domain violation, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline
from .io import DomainError, InputError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadelab",
        description="Shell-cascade simulation, field synthesis, and "
                    "singular-set covering analysis.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check a cascade config document")
    p.add_argument("--config", required=True)

    p = sub.add_parser("simulate", help="integrate and write a trajectory CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synthesize", help="synthesize field snapshots")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--basis-config", required=True)
    p.add_argument("--times", default="",
                   help="comma-separated times inside the trajectory span")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("analyze", help="cube classification and covering report")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "validate":
            code, text = pipeline.run_validate(args.config)
            print(text)
            return code
        if args.subcommand == "simulate":
            result = pipeline.run_simulate(args.config, args.t_end, args.out)
            print(json.dumps(result, sort_keys=True))
            return 0
        if args.subcommand == "synthesize":
            try:
                times = [float(v) for v in args.times.split(",") if v.strip()]
            except ValueError as exc:
                raise InputError(f"--times: {exc}") from exc
            result = pipeline.run_synthesize(
                args.trajectory, args.basis_config, times, args.out_dir)
            print(json.dumps({k: result[k] for k in
                              ("max_roundtrip_error", "manifest_digest")},
                             sort_keys=True))
            return 0
        if args.subcommand == "analyze":
            result = pipeline.run_analyze(args.snapshots, args.params, args.out)
            print(json.dumps({"manifest_digest": result["manifest_digest"],
                              "d_est": result["report"]["d_est"]},
                             sort_keys=True))
            return 0
        raise InputError(f"unknown subcommand {args.subcommand!r}")
    except DomainError as exc:
        print(f"domain violation: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:  # OSError: a path not readable or writable
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
