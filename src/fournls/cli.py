"""Command-line entry point: ``4nls-lab <kind> --spec file.json [options]``."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError
from .harness import EXPERIMENT_KINDS, OUTPUT_ROOT_ENV, SpecValidationError, parse_spec, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="4nls-lab",
        description="Numerical experiments for the fourth-order cubic NLS.",
        epilog="A spec holds kind, params, tolerances, seed and out. Each kind accepts "
        "only the params and tolerances keys of its defaults table "
        "(fournls.harness.EXPERIMENT_KINDS), each typed by its default, and fills in the "
        "ones left out; any other key or type is a spec error (exit 2). Default output "
        f"root comes from ${OUTPUT_ROOT_ENV} (fallback ./runs).",
    )
    parser.add_argument(
        "kind", choices=sorted(EXPERIMENT_KINDS), help="experiment kind to run"
    )
    parser.add_argument("--spec", required=True, help="path to the JSON spec file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the spec seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = parse_spec(args.spec)
    except SpecValidationError as e:
        for msg in e.errors:
            print(f"spec error: {msg}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"cannot read spec: {e}", file=sys.stderr)
        return 2
    if spec.kind != args.kind:
        print(
            f"spec kind '{spec.kind}' does not match requested '{args.kind}'",
            file=sys.stderr,
        )
        return 2
    try:
        report = run(spec, out_dir=args.out, seed=args.seed)
    except (ConfigError, RuntimeError, ArithmeticError) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 2
    print(json.dumps(report.results, indent=2, sort_keys=True, default=str))
    print(f"passed: {report.passed}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
