"""Command-line driver.

Subcommands mirror the library layers: `info`, `molien`, `invariants`,
`harmonics`, `eigenspace`, and the full `verify-all` pipeline.  Exit code 0
means every certifiable check passed, 1 a verification failure, 2 a usage or
parse problem.
"""

import argparse
import random
import sys

from .errors import (
    GroupClosureError,
    OrderLimitError,
    ParseError,
    RefleigError,
)
from .groups import builtin, load_group_file
from .harmonics import compute_harmonics, find_fundamental_invariants
from .series import default_truncation, molien
from .report import (
    MIN_PRECISION,
    PipelineConfig,
    Timings,
    eigenspace_section,
    group_section,
    harmonics_section,
    invariants_section,
    molien_section,
    render_json,
    render_text,
    report_exit_code,
    verify_all,
    weight_from_strings,
    SCHEMA_VERSION,
)
from . import __version__

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _int_at_least(minimum):
    """argparse type: an integer >= minimum, else a usage error (exit 2)."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}"
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
    sub.add_argument("--max-degree", type=_int_at_least(0), default=None, metavar="N")
    sub.add_argument(
        "--precision", type=_int_at_least(MIN_PRECISION), default=128,
        metavar="BITS",
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

    _add_common(commands.add_parser("info", help="group metadata"))
    _add_common(commands.add_parser("molien", help="invariant dimension series"))
    _add_common(commands.add_parser("invariants", help="fundamental invariants"))
    _add_common(commands.add_parser("harmonics", help="harmonic decomposition"))
    _add_common(
        commands.add_parser("eigenspace", help="per-weight eigenspace data"),
        with_weight=True,
    )
    _add_common(
        commands.add_parser("verify-all", help="full certification pipeline"),
        with_weight=True,
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


def _header(group) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "refleig", "version": __version__},
        "group": group_section(group),
    }


def _parse_weights(group, texts):
    weights = []
    for text in texts:
        parts = [p.strip() for p in text.split(",")]
        try:
            weights.append(weight_from_strings(group, parts))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    return weights


def run(args) -> tuple[dict, int]:
    group = _load_group(args)
    config = PipelineConfig(
        max_degree=args.max_degree,
        precision=args.precision,
        seed=args.seed,
        collect_timings=args.timings,
    )

    if args.command == "info":
        return _header(group), 0

    if args.command == "molien":
        payload = _header(group)
        payload["molien"] = molien_section(group, config.max_degree)
        return payload, 0

    if args.command in ("invariants", "harmonics"):
        payload = _header(group)
        timings = Timings(config.collect_timings)
        with timings.measure("molien"):
            series = molien(group, default_truncation(group))
        with timings.measure("invariants"):
            invariants = find_fundamental_invariants(group, series)
        if args.command == "invariants":
            payload["invariants"] = invariants_section(group, invariants)
        else:
            with timings.measure("harmonics"):
                harmonics = compute_harmonics(group, invariants)
            payload["harmonics"] = harmonics_section(harmonics)
        if config.collect_timings:
            payload["timings"] = timings.as_field()
        return payload, 0

    if args.command == "eigenspace":
        if not args.weight:
            raise ParseError("eigenspace requires at least one --weight")
        weights = _parse_weights(group, args.weight)
        invariants = find_fundamental_invariants(group)
        harmonics = compute_harmonics(group, invariants)
        rng = random.Random(config.seed)
        payload = _header(group)
        payload["eigenspace"] = [
            eigenspace_section(group, invariants, harmonics, w, config, rng)
            for w in weights
        ]
        return payload, 0

    # verify-all
    weights = _parse_weights(group, args.weight) if args.weight else None
    rep = verify_all(group, weights, config)
    return rep, report_exit_code(rep)


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
    except (ParseError, OrderLimitError, GroupClosureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
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
