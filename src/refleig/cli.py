"""Command-line driver.

Subcommands mirror the library layers: `info`, `molien`, `invariants`,
`harmonics`, `eigenspace`, and the full `verify-all` pipeline; `report` builds
every report.  Exit code 0 means every certifiable check passed, 1 a
verification failure, 2 a usage or parse problem.
"""

import argparse
import sys

from .errors import (
    GroupClosureError,
    OrderLimitError,
    ParseError,
    RefleigError,
)
from .groups import builtin, load_group_file
from .report import (
    MAX_DEGREE,
    MAX_PRECISION,
    MIN_PRECISION,
    PipelineConfig,
    parse_weight,
    render_json,
    render_text,
    report_exit_code,
    stage_report,
    verify_all,
)
from . import __version__

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _int_between(minimum, maximum):
    """argparse type: an integer in [minimum, maximum], else exit 2."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if not minimum <= value <= maximum:
            raise argparse.ArgumentTypeError(
                f"expected an integer from {minimum} to {maximum}, got {text!r}"
            )
        return value

    return parse


def _add_common(sub, with_weight=False):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--builtin", metavar="SPEC", help="built-in family, e.g. dihedral:5"
    )
    source.add_argument("--group", metavar="FILE", help="JSON group file")
    sub.add_argument(
        "--output", choices=("json", "text"), default="json",
        help="report rendering (default json)",
    )
    sub.add_argument(
        "--out", metavar="FILE", help="write the report to FILE instead of stdout"
    )
    sub.add_argument(
        "--max-degree", type=_int_between(0, MAX_DEGREE), default=None, metavar="N"
    )
    sub.add_argument(
        "--precision", type=_int_between(MIN_PRECISION, MAX_PRECISION),
        default=128, metavar="BITS",
    )
    sub.add_argument("--seed", type=int, default=0, metavar="S")
    sub.add_argument(
        "--timings", action="store_true", help="include wall-clock timings"
    )
    if with_weight:
        sub.add_argument(
            "--weight",
            action="append",
            metavar="ENTRIES",
            help='comma-separated exact entries, e.g. "i*1, i*2"; repeatable',
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refleig",
        description="invariant theory and eigenspace certificates for "
        "finite pseudo-reflection groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("info", "group metadata"),
        ("molien", "invariant dimension series"),
        ("invariants", "fundamental invariants"),
        ("harmonics", "harmonic decomposition"),
        ("eigenspace", "per-weight eigenspace data"),
        ("verify-all", "full certification pipeline"),
    ):
        _add_common(
            commands.add_parser(name, help=text),
            with_weight=name in ("eigenspace", "verify-all"),
        )
    return parser


def _load_group(args):
    # a ValueError here comes from the user's group spec or file, not a bug
    try:
        if args.builtin is not None:
            return builtin(args.builtin)
        return load_group_file(args.group)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def run(args) -> tuple[dict, int]:
    group = _load_group(args)
    config = PipelineConfig(
        max_degree=args.max_degree,
        precision=args.precision,
        seed=args.seed,
        collect_timings=args.timings,
    )
    texts = getattr(args, "weight", None) or []
    if args.command == "eigenspace" and not texts:
        raise ParseError("eigenspace requires at least one --weight")
    weights = [parse_weight(group, text) for text in texts]
    if args.command == "verify-all":
        rep = verify_all(group, weights or None, config)
        return rep, report_exit_code(rep)
    return stage_report(group, args.command, config, weights), 0


def _reject_empty_values(parser, args):
    """Before Python 3.13, argparse reads `--opt=--` as an empty list instead
    of the text "--"; that is a missing value, so a usage error (exit 2)."""
    for key, value in vars(args).items():
        values = value if key == "weight" and value else [value]
        if any(isinstance(v, list) for v in values):
            parser.error(f"argument --{key.replace('_', '-')}: expected one argument")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _reject_empty_values(parser, args)
    try:
        payload, code = run(args)
    except (ParseError, OrderLimitError, GroupClosureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RefleigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR

    text = render_json(payload) if args.output == "json" else render_text(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
