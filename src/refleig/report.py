"""Verification pipelines and machine-readable reports.

`verify_all` runs the whole chain and `stage_report` only the stages one
subcommand prints; both open with `header` and time each stage in a `Timings`.
`eigenspace_section` runs each certificate of one weight at the configured
precision; the certificates design their own samples, and only the
equivariance battery draws from the shared rng.

A report is a plain dict with a fixed key order so that JSON output is
byte-identical across runs with the same inputs and flags.  Wall-clock
timings break that, so they are collected only on request; otherwise
`verify_all` leaves its timings field null and `stage_report` omits it.

The checks block has one entry per certified statement; the key strings are
a wire-format contract consumed by downstream tooling and must not change.
"""

import json
import random
import time
from contextlib import contextmanager

from . import __version__
from .eigenspace import (
    InducedModel,
    FormalExp,
    Weight,
    commutant_dimension,
    dual_cyclic_check,
    equivariance_check,
    eigen_check,
    evaluation_rank,
    intertwiner,
    invariant_eigenvalues,
    random_generic_weight,
    zero_weight,
)
from .errors import (
    NonOrthogonalError,
    NotReflectionSeriesError,
    ParseError,
)
from .groups import GroupElement, ReflectionGroup, is_pseudo_reflection_group
from .harmonics import (
    compute_harmonics,
    find_fundamental_invariants,
    verify_product_decomposition,
)
from .parsing import format_poly, format_scalar, parse_scalar
from .series import (
    default_truncation,
    molien,
    molien_truncated,
    series_identity_check,
)
from .polynomials import invariant_subspace

SCHEMA_VERSION = 1

CHECK_KEYS = (
    "def-1.1",
    "lemma-4.3",
    "lemma-4.5",
    "thm-4.11",
    "thm-4.14",
    "thm-3.10",
)

NON_GENERIC_STATUS = "non-generic: theorem out of scope"
DEGREE_EXTRACTION_FAILURE = "lemma-4.2/degree-extraction"

CONVENTION_NOTE = (
    "eigenvalues evaluate the invariant symbols at the purely imaginary "
    "weight; conventions quoting real weight coordinates flip the sign of "
    "every even-degree eigenvalue"
)


# The numeric rank checks threshold singular values at 2^(-precision/2); at 64
# bits that is 2^(-32), far above the 2^(-precision+4) embedding error.  Below
# it a correct certificate can read as a mathematical failure.
MIN_PRECISION = 64

# verify-all on hyperoctahedral:3 takes 2 s at 128 bits, 7 s at 1024 and over
# 30 s at 4096; a Molien series of dihedral:3 to degree 50000 takes 2.7 s.
MAX_PRECISION = 1 << 10
MAX_DEGREE = 10_000

BATTERY_GENERIC = 5  # random generic weights, then zero, by default
EQUIVARIANCE_TRIALS = 20  # random motions per weight


class PipelineConfig:
    """Knobs shared by the CLI subcommands and the full verification run."""

    __slots__ = ("max_degree", "precision", "seed", "collect_timings")

    def __init__(
        self,
        max_degree: int | None = None,
        precision: int = 128,
        seed: int = 0,
        collect_timings: bool = False,
    ):
        if not MIN_PRECISION <= precision <= MAX_PRECISION:
            raise ValueError(
                f"precision must be {MIN_PRECISION} to {MAX_PRECISION} bits, "
                f"got {precision}"
            )
        if max_degree is not None and not 0 <= max_degree <= MAX_DEGREE:
            raise ValueError(
                f"max_degree must be 0 to {MAX_DEGREE}, got {max_degree}"
            )
        self.max_degree = max_degree
        self.precision = precision
        self.seed = seed
        self.collect_timings = collect_timings


class Timings:
    def __init__(self, enabled):
        self.enabled = enabled
        self.entries = {}

    @contextmanager
    def measure(self, label):
        t0 = time.perf_counter()
        yield
        if self.enabled:
            self.entries[label] = round(time.perf_counter() - t0, 6)

    def as_field(self):
        return self.entries if self.enabled else None


def header(group: ReflectionGroup) -> dict:
    """The keys every report opens with: schema, tool and group."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "refleig", "version": __version__},
        "group": group_section(group),
    }


def group_section(group: ReflectionGroup) -> dict:
    try:
        is_reflection_group = is_pseudo_reflection_group(group)
        orthogonal = True
    except NonOrthogonalError:
        is_reflection_group = orthogonal = False
    return {
        "name": group.name,
        "dimension": group.dimension,
        "order": group.order,
        "reflection_count": sum(group.reflection_flags),
        "orthogonal": orthogonal,
        "is_reflection_group": is_reflection_group,
    }


def molien_section(group: ReflectionGroup, max_degree=None, series=None) -> dict:
    if max_degree is None:
        max_degree = group.order + group.dimension - 1
    series = molien_truncated(group, max(max_degree + 1, 2), series)
    coeffs = [int(series[k]) for k in range(max_degree + 1)]
    return {"max_degree": max_degree, "coefficients": coeffs}


def invariants_section(group, invariants) -> dict:
    prod = 1
    for d in invariants.degrees.degrees:
        prod *= d
    return {
        "degrees": list(invariants.degrees.degrees),
        "degree_product": prod,
        "generators": [format_poly(p) for p in invariants.generators],
        "jacobian_independent": True,
    }


def harmonics_section(harmonics) -> dict:
    return {
        "degree_dims": [[deg, len(basis)] for deg, basis in harmonics.basis_by_degree],
        "total_dimension": harmonics.total_dimension,
    }


def parse_weight(group, text) -> Weight:
    """The weight written as comma-separated exact entries, e.g. "i*1, i*2";
    ParseError for text that is not a weight of `group`."""
    try:
        return Weight(group, tuple(parse_scalar(t.strip()) for t in text.split(",")))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# the entries of v, indexed by their value + 4
_CONSTANTS = tuple(FormalExp.constant(c) for c in range(-4, 5))


def _equivariance_battery(m: InducedModel, rng) -> bool:
    """EQUIVARIANCE_TRIALS random motions, each checked on orbit classes by
    `equivariance_check`.

    Each trial draws a translation, a rotation and v.  The check reads the
    rotation's class image, composed from the model's generator class
    permutations (one `RMatrix.apply` per generator and class for all
    trials), and formal phases, so its verdict holds for the drawn
    translation and every other.
    """
    group = m.group
    for _ in range(EQUIVARIANCE_TRIALS):
        shift = tuple(rng.randint(-5, 5) for _ in range(group.dimension))
        g = GroupElement(group, shift, rng.randrange(group.order))
        v = [_CONSTANTS[rng.randint(-4, 4) + 4] for _ in range(group.order)]
        if not equivariance_check(m, g, v):
            return False
    return True


def eigenspace_section(group, invariants, harmonics, w: Weight, config: PipelineConfig, rng) -> dict:
    m = InducedModel.build(w)
    generic = m.orbit.distinct_count == group.order
    rank = evaluation_rank(m, harmonics)
    commutant = commutant_dimension(m, precision=config.precision)
    eigenvalues = invariant_eigenvalues(invariants, w)
    orbit_wave = intertwiner(m, m.fixed_vector())
    eigen_ok = eigen_check(orbit_wave, invariants, eigenvalues)
    equivariance_ok = _equivariance_battery(m, rng)
    dual_ok = dual_cyclic_check(m, precision=config.precision)
    certified = (
        generic
        and rank == group.order
        and commutant == 1
        and eigen_ok
        and equivariance_ok
        and dual_ok
    )
    return {
        "weight": [format_scalar(x) for x in w.entries],
        "generic": generic,
        "orbit_size_distinct": m.orbit.distinct_count,
        "evaluation_rank": rank,
        "commutant_dim": commutant,
        "eigen_check": eigen_ok,
        "equivariance_trials": EQUIVARIANCE_TRIALS,
        "equivariance": equivariance_ok,
        "dual_cyclic": dual_ok,
        "eigenvalues": [
            {"degree": d, "value": format_scalar(v)}
            for d, v in zip(invariants.degrees.degrees, eigenvalues)
        ],
        "convention_note": CONVENTION_NOTE,
        "irreducible_certified": certified,
        "status": "certified" if certified else (
            NON_GENERIC_STATUS if not generic else "verification failed"
        ),
    }


def _molien_cross_check(group, series, limit=4) -> bool:
    """Series coefficients against independent averaging-projection ranks."""
    for k in range(min(limit, series.truncation - 1) + 1):
        if len(invariant_subspace(group, k)) != int(series[k]):
            return False
    return True


def verify_all(group: ReflectionGroup, weights, config: PipelineConfig) -> dict:
    """Full pipeline; returns the report dict with an `exit_code` hint key."""
    rng = random.Random(config.seed)
    timings = Timings(config.collect_timings)
    checks = {key: "not-run" for key in CHECK_KEYS}
    failed_at = None

    with timings.measure("group"):
        report = header(group)
    checks["def-1.1"] = "pass" if report["group"]["is_reflection_group"] else "fail"

    with timings.measure("molien"):
        # one series serves every consumer: the molien section, degree
        # extraction (default truncation) and the series identity (2|K| + 1)
        series = molien(
            group,
            max(
                default_truncation(group),
                2 * group.order + 1,
                (config.max_degree or 0) + 1,
            ),
        )
        report["molien"] = molien_section(group, config.max_degree, series)
        cross_ok = _molien_cross_check(group, series)
    checks["lemma-4.3"] = "pass" if cross_ok else "fail"

    invariants = None
    try:
        with timings.measure("invariants"):
            invariants = find_fundamental_invariants(group, series)
        report["invariants"] = invariants_section(group, invariants)
        checks["lemma-4.5"] = (
            "pass"
            if report["invariants"]["degree_product"] == group.order
            else "fail"
        )
    except NotReflectionSeriesError as exc:
        checks["lemma-4.5"] = "fail"
        failed_at = DEGREE_EXTRACTION_FAILURE
        report["invariants"] = {"error": str(exc)}

    if invariants is not None:
        with timings.measure("harmonics"):
            harmonics = compute_harmonics(group, invariants)
            report["harmonics"] = harmonics_section(harmonics)
            identity_ok = series_identity_check(
                group,
                truncation=2 * group.order + 1,
                degrees=invariants.degrees,
                series=series,
            )
            bound = max(invariants.degrees.degrees) + 1
            decomposition = verify_product_decomposition(
                group, invariants, harmonics, bound
            )
        checks["thm-4.11"] = (
            "pass"
            if harmonics.total_dimension == group.order
            and identity_ok
            and bool(decomposition)
            else "fail"
        )

        if weights is None:
            weights = [
                random_generic_weight(group, rng)
                for _ in range(BATTERY_GENERIC)
            ]
            weights.append(zero_weight(group))

        sections = []
        with timings.measure("eigenspace"):
            for w in weights:
                sections.append(
                    eigenspace_section(
                        group, invariants, harmonics, w, config, rng
                    )
                )
        report["eigenspace"] = sections

        generic_sections = [s for s in sections if s["generic"]]
        if generic_sections:
            checks["thm-4.14"] = (
                "pass"
                if all(s["irreducible_certified"] for s in generic_sections)
                else "fail"
            )
        else:
            checks["thm-4.14"] = NON_GENERIC_STATUS

        equivariance_all = all(s["equivariance"] for s in sections)
        dual_generic = all(s["dual_cyclic"] for s in generic_sections)
        checks["thm-3.10"] = (
            "pass" if equivariance_all and dual_generic else "fail"
        )
    else:
        report["harmonics"] = {"error": "skipped: no fundamental degrees"}
        report["eigenspace"] = []

    report["checks"] = checks
    report["failed_at"] = failed_at
    report["seeds"] = {"base": config.seed}
    report["timings"] = timings.as_field()
    return report


def stage_report(group, command, config: PipelineConfig, weights=()) -> dict:
    """The header plus the section `command` prints, running only the stages
    it needs, each once.  `molien` reads the series at max(max_degree + 1, 2),
    the later stages at the default truncation.
    """
    report = header(group)
    timings = Timings(config.collect_timings)
    if command == "molien":
        with timings.measure("molien"):
            report["molien"] = molien_section(group, config.max_degree)
    elif command != "info":
        with timings.measure("molien"):
            series = molien(group, default_truncation(group))
        with timings.measure("invariants"):
            invariants = find_fundamental_invariants(group, series)
        if command == "invariants":
            report["invariants"] = invariants_section(group, invariants)
        else:
            with timings.measure("harmonics"):
                harmonics = compute_harmonics(group, invariants)
            if command == "harmonics":
                report["harmonics"] = harmonics_section(harmonics)
            else:
                rng = random.Random(config.seed)
                with timings.measure("eigenspace"):
                    report["eigenspace"] = [
                        eigenspace_section(group, invariants, harmonics, w, config, rng)
                        for w in weights
                    ]
    if config.collect_timings:
        report["timings"] = timings.as_field()
    return report


def report_exit_code(report: dict) -> int:
    checks = report.get("checks", {})
    return 1 if any(v == "fail" for v in checks.values()) else 0


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _fmt_leaf(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, list):
        return ", ".join(_fmt_leaf(x) for x in v)
    if isinstance(v, dict):
        return "{}"
    return str(v)


def render_text(report: dict) -> str:
    """Flat dotted-path rendering of any report section dict."""
    lines = []

    def emit(path, value):
        if isinstance(value, dict) and value:
            for k, v in value.items():
                emit(path + [str(k)], v)
        elif isinstance(value, list) and any(
            isinstance(x, (dict, list)) for x in value
        ):
            for idx, item in enumerate(value):
                emit(path + [str(idx)], item)
        else:
            lines.append(".".join(path) + ": " + _fmt_leaf(value))

    emit([], report)
    return "\n".join(lines) + "\n"
