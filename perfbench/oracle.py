"""Closed-form answers for every benchmark job.

The expected values come from the classical invariant theory of the built-in
families, never from refleig itself:

* fundamental degrees (2, n) for dihedral:n, (1, ..., n) for symmetric:n,
  (2, 4, ..., 2n) for hyperoctahedral:n and (1, ..., 1) for trivial:n;
* the product of the degrees is the group order;
* the Molien series is prod 1 / (1 - t^d);
* the harmonic degree profile is prod (1 + t + ... + t^(d - 1));
* the rotation groups cyclic:n are not reflection groups, and verify-all
  must stop at degree extraction with exit code 1.

`check(job, exit_code, report_text)` returns a list of mismatches; an empty
list means the job's verdict and output are right.
"""

import json
import math

from workloads import job_group

CHECK_KEYS = ("def-1.1", "lemma-4.3", "lemma-4.5", "thm-4.11", "thm-4.14", "thm-3.10")
DEGREE_EXTRACTION_FAILURE = "lemma-4.2/degree-extraction"


def group_facts(spec):
    """(dimension, order, fundamental degrees or None) of a builtin group."""
    family, _, arg = spec.partition(":")
    n = int(arg)
    if family == "dihedral":
        return 2, 2 * n, (2, n)
    if family == "symmetric":
        return n, math.factorial(n), tuple(range(1, n + 1))
    if family == "hyperoctahedral":
        return n, 2**n * math.factorial(n), tuple(range(2, 2 * n + 1, 2))
    if family == "trivial":
        return n, 1, (1,) * n
    if family == "cyclic":
        return 2, n, None
    raise ValueError(f"no closed form for {spec!r}")


def _poly_mul(a, b, length):
    out = [0] * length
    for i, x in enumerate(a[:length]):
        if x:
            for j, y in enumerate(b[: length - i]):
                out[i + j] += x * y
    return out


def molien_coefficients(degrees, length):
    """First `length` coefficients of prod 1 / (1 - t^d)."""
    out = [1] + [0] * (length - 1)
    for d in degrees:
        geometric = [1 if k % d == 0 else 0 for k in range(length)]
        out = _poly_mul(out, geometric, length)
    return out


def harmonic_profile(degrees):
    """Coefficients of prod (1 + t + ... + t^(d - 1))."""
    length = sum(d - 1 for d in degrees) + 1
    out = [1] + [0] * (length - 1)
    for d in degrees:
        out = _poly_mul(out, [1] * d, length)
    return out


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check(job, exit_code, report_text):
    """Mismatches between one job's result and the closed-form answers."""
    command = job[0]
    dimension, order, degrees = group_facts(job_group(job))
    try:
        report = json.loads(report_text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    try:
        group = report["group"]
        _expect(problems, "group.dimension", group["dimension"], dimension)
        _expect(problems, "group.order", group["order"], order)
        _expect(
            problems, "group.is_reflection_group",
            group["is_reflection_group"], degrees is not None,
        )
        if degrees is None:
            _check_rotation_group(problems, command, exit_code, report)
            return problems
        _expect(problems, "exit code", exit_code, 0)
        if command in ("molien", "verify-all"):
            coeffs = report["molien"]["coefficients"]
            _expect(
                problems, "molien.coefficients",
                coeffs, molien_coefficients(degrees, len(coeffs)),
            )
            _expect(problems, "molien.length", len(coeffs), order + dimension)
        if command in ("invariants", "verify-all"):
            inv = report["invariants"]
            _expect(problems, "invariants.degrees", tuple(inv["degrees"]), degrees)
            _expect(problems, "invariants.degree_product", inv["degree_product"], order)
            _expect(problems, "invariants.generators", len(inv["generators"]), dimension)
            _expect(problems, "invariants.jacobian_independent", inv["jacobian_independent"], True)
        if command in ("harmonics", "verify-all"):
            harm = report["harmonics"]
            want = [[k, c] for k, c in enumerate(harmonic_profile(degrees))]
            _expect(problems, "harmonics.degree_dims", harm["degree_dims"], want)
            _expect(problems, "harmonics.total_dimension", harm["total_dimension"], order)
        if command == "verify-all":
            _check_certificate(problems, report, order)
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(f"report lacks an expected field: {exc!r}")
    return problems


def _check_rotation_group(problems, command, exit_code, report):
    _expect(problems, "command", command, "verify-all")
    _expect(problems, "exit code", exit_code, 1)
    _expect(problems, "failed_at", report["failed_at"], DEGREE_EXTRACTION_FAILURE)
    _expect(problems, "checks.def-1.1", report["checks"]["def-1.1"], "fail")


def _check_certificate(problems, report, order):
    _expect(
        problems, "checks",
        report["checks"], {key: "pass" for key in CHECK_KEYS},
    )
    _expect(problems, "failed_at", report["failed_at"], None)
    generic = [s for s in report["eigenspace"] if s["generic"]]
    if not generic:
        problems.append("no generic weight was certified")
    for idx, section in enumerate(generic):
        _expect(problems, f"eigenspace[{idx}].evaluation_rank", section["evaluation_rank"], order)
        _expect(problems, f"eigenspace[{idx}].commutant_dim", section["commutant_dim"], 1)
