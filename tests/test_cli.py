"""End-to-end CLI tests: frozen outputs, exit codes, rendering contracts."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import base_commutant_translations
from refleig import __version__, report
from refleig.cli import main
from refleig.cyclotomic import I_UNIT, ORDER_CAP
from refleig.eigenspace import InducedModel, Weight, invariant_eigenvalues
from refleig.groups import (
    DEFAULT_MAX_ORDER,
    MAX_ROTATION_ORDER,
    MAX_TRIVIAL_DIMENSION,
    _family_order,
    builtin,
)
from refleig.parsing import MAX_NESTING, MAX_NUMERAL_DIGITS, MAX_POWER_BITS, parse_scalar
from refleig.report import (
    MAX_DEGREE,
    MAX_PRECISION,
    MIN_PRECISION,
    NON_GENERIC_STATUS,
    PipelineConfig,
)

TOP_LEVEL_ORDER = [
    "schema_version",
    "tool",
    "group",
    "molien",
    "invariants",
    "harmonics",
    "eigenspace",
    "checks",
    "failed_at",
    "seeds",
    "timings",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_molien_frozen(capsys):
    code, rep, _ = run_json(
        capsys, "molien", "--builtin", "dihedral:4", "--max-degree", "8"
    )
    assert code == 0
    assert rep["schema_version"] == 1
    assert rep["tool"] == {"name": "refleig", "version": __version__}
    assert rep["molien"]["coefficients"] == [1, 0, 1, 0, 2, 0, 2, 0, 3]


def test_info_section(capsys):
    code, rep, _ = run_json(capsys, "info", "--builtin", "symmetric:3")
    assert code == 0
    assert rep["group"] == {
        "name": "symmetric:3",
        "dimension": 3,
        "order": 6,
        "reflection_count": 3,
        "orthogonal": True,
        "is_reflection_group": True,
    }


def test_invariants_section(capsys):
    code, rep, _ = run_json(capsys, "invariants", "--builtin", "dihedral:6")
    assert code == 0
    section = rep["invariants"]
    assert section["degrees"] == [2, 6]
    assert section["degree_product"] == 12
    assert section["jacobian_independent"] is True
    assert len(section["generators"]) == 2


def test_harmonics_section(capsys):
    code, rep, _ = run_json(capsys, "harmonics", "--builtin", "dihedral:6")
    assert code == 0
    assert rep["harmonics"]["degree_dims"] == [
        [0, 1], [1, 2], [2, 2], [3, 2], [4, 2], [5, 2], [6, 1],
    ]
    assert rep["harmonics"]["total_dimension"] == 12


def test_harmonics_symmetric5_profile(capsys):
    # |K| = 120: the degree profile of prod (1 + ... + t^(d-1)), d = 1..5
    code, rep, _ = run_json(capsys, "harmonics", "--builtin", "symmetric:5")
    assert code == 0
    assert [dim for _, dim in rep["harmonics"]["degree_dims"]] == [
        1, 4, 9, 15, 20, 22, 20, 15, 9, 4, 1,
    ]
    assert rep["harmonics"]["total_dimension"] == 120


def test_eigenspace_pinned_weight(capsys):
    code, rep, _ = run_json(
        capsys,
        "eigenspace", "--builtin", "dihedral:4", "--weight", "i*1, i*0",
    )
    assert code == 0
    (section,) = rep["eigenspace"]
    assert section["weight"] == ["E(4)", "0"]
    assert section["generic"] is False
    assert section["orbit_size_distinct"] == 4
    assert section["evaluation_rank"] == 4
    assert section["commutant_dim"] == 2
    assert section["eigen_check"] is True
    assert section["equivariance"] is True
    assert section["dual_cyclic"] is False
    assert section["irreducible_certified"] is False
    assert section["status"] == NON_GENERIC_STATUS


def test_eigenspace_weight_denominator_built_from_split_primes(capsys):
    # P = 1048589 * 1048601 * 1048609 * 1048613, the first four primes
    # >= 2^20 that are 1 mod 4: the rank certificate's prime must skip every
    # prime dividing the weight's denominators
    p = "1209050339761745127935513"
    q = "1209050339761745127935514"
    code, rep, _ = run_json(
        capsys,
        "eigenspace", "--builtin", "dihedral:4",
        "--weight", f"i*{q}/{p}, 2*i*{q}/{p}",
    )
    assert code == 0
    (section,) = rep["eigenspace"]
    assert section["generic"] is True
    assert section["evaluation_rank"] == 8
    assert section["commutant_dim"] == 1
    assert section["status"] == "certified"


def test_eigenspace_commutant_twin_at_a_tiny_weight(capsys):
    # the commutant's sample translations scale with the orbit, so pairing
    # differences of order 10^-24 still separate the numeric twin from t
    code, rep, _ = run_json(
        capsys,
        "eigenspace", "--builtin", "dihedral:4",
        "--weight", "i/10^24, 2*i/10^24",
    )
    assert code == 0
    (section,) = rep["eigenspace"]
    assert section["generic"] is True
    assert section["evaluation_rank"] == 8
    assert section["commutant_dim"] == 1


def test_verify_all_certifies_a_tiny_weight(capsys):
    # integer dual translations put every node within 10^-22 of 1, and the
    # dual check false-failed; the designed sample scales to the orbit
    code, rep, _ = run_json(
        capsys,
        "verify-all", "--builtin", "dihedral:4",
        "--weight", "i/10^24, 2*i/10^24",
    )
    assert code == 0
    (section,) = rep["eigenspace"]
    assert section["dual_cyclic"] is True
    assert section["status"] == "certified"
    assert rep["checks"]["thm-3.10"] == rep["checks"]["thm-4.14"] == "pass"


@pytest.mark.parametrize(
    "spec, weight, scale",
    [
        # 2 max|mu_h[i]| = 16 is a power of two, so 2^k equals it
        ("dihedral:4", "i*4, i*8", Fraction(1, 16)),
        # the Q(zeta_28) weight of the dihedral:7 golden report
        ("dihedral:7", "i/3, (E(7)-E(7)^6)/5", Fraction(1)),
    ],
)
def test_commutant_translations_are_pinned(spec, weight, scale):
    group = builtin(spec)
    m = InducedModel.build(report.parse_weight(group, weight))
    assert report._commutant_translations(m) == [(scale, 0), (0, scale)]


def test_commutant_twin_at_coordinates_far_apart_in_scale(capsys):
    # the unit coordinate's differences pair to about 2^-100 under the axis
    # scale of 10^30, below t = 2^-64, so each axis gets a second
    # translation; the numeric twin counted 2 before it had one
    code, rep, _ = run_json(
        capsys, "eigenspace", "--builtin", "dihedral:4", "--weight", "i*10^30, i"
    )
    assert code == 0
    (section,) = rep["eigenspace"]
    assert section["commutant_dim"] == 1
    assert section["dual_cyclic"] is True
    assert section["status"] == "certified"
    group = builtin("dihedral:4")
    m = InducedModel.build(report.parse_weight(group, "i*10^30, i"))
    assert report._commutant_translations(m) == [
        (Fraction(1, 2**101), 0), (Fraction(1, 4), 0),
        (0, Fraction(1, 2**101)), (0, Fraction(1, 4)),
    ]


@pytest.mark.parametrize("spec", ["symmetric:4", "dihedral:5", "dihedral:7"])
def test_commutant_translations_of_the_battery_are_one_per_axis(spec, monkeypatch, capsys):
    # the weights verify-all draws at seed 1 keep the one translation per
    # axis that they had before far-apart coordinates got more
    seen = []
    original = report._commutant_translations

    def recorded(m, precision=128):
        out = original(m, precision)
        seen.append((out, base_commutant_translations(m)))
        return out

    monkeypatch.setattr(report, "_commutant_translations", recorded)
    assert main(["verify-all", "--builtin", spec, "--seed", "1"]) == 0
    capsys.readouterr()
    assert len(seen) >= 5
    for out, base in seen:
        assert out == base


def test_eigenvalues_past_the_int_to_str_limit_print_exactly(capsys, pipeline):
    # the degree-3 eigenvalue has 5727 digits, past the 4300 that str() of
    # an int allows; it is read back through Decimal, which has no limit,
    # and the parser reads numerals through Decimal too, so the printed
    # value is a valid scalar text
    code, rep, _ = run_json(
        capsys,
        "eigenspace", "--builtin", "dihedral:3",
        "--weight", "i*3^4000, 2*i*3^4000",
    )
    assert code == 0
    (section,) = rep["eigenspace"]
    assert section["status"] == "certified"
    (value,) = [e["value"] for e in section["eigenvalues"] if e["degree"] == 3]
    coeff, unit = value.split("*")
    assert unit == "E(4)"
    group, invariants, _ = pipeline("dihedral:3")
    w = Weight(group, (I_UNIT * 3**4000, I_UNIT * 2 * 3**4000))
    assert len(coeff) == 5727
    assert invariant_eigenvalues(invariants, w)[1] == I_UNIT * int(Decimal(coeff))
    assert parse_scalar(value) == invariant_eigenvalues(invariants, w)[1]


def test_numerals_past_the_digit_bound_are_a_usage_error(capsys):
    # 5000 sevens were refused with a message naming the interpreter's
    # int-to-str limit; up to MAX_NUMERAL_DIGITS they are read exactly
    code, rep, _ = run_json(
        capsys, "eigenspace", "--builtin", "dihedral:3", "--weight", f"i*{'7' * 5000}, 0"
    )
    assert code == 0
    assert rep["eigenspace"][0]["weight"][0] == f"{'7' * 5000}*E(4)"
    code, out, err = run_cli(
        capsys, "eigenspace", "--builtin", "dihedral:3",
        "--weight", f"i*{'7' * (MAX_NUMERAL_DIGITS + 1)}, 0",
    )
    assert code == 2
    assert not out
    assert err.startswith("error: ") and f"more than {MAX_NUMERAL_DIGITS} digits" in err
    assert "sys." not in err


def test_eigenspace_requires_weight(capsys):
    code, out, err = run_cli(capsys, "eigenspace", "--builtin", "dihedral:4")
    assert code == 2
    assert not out
    assert "weight" in err


@pytest.mark.parametrize(
    "weight, message",
    [
        ("1, 2", "weight entries must be purely imaginary"),
        ("i*1", "weight length must match the group dimension"),
    ],
)
def test_bad_weight_is_a_usage_error(capsys, weight, message):
    code, out, err = run_cli(
        capsys, "eigenspace", "--builtin", "dihedral:3", "--weight", weight
    )
    assert code == 2
    assert not out
    assert err.startswith("error: ") and message in err


def test_deep_nesting_is_a_usage_error(capsys):
    ok = "(" * MAX_NESTING + "i" + ")" * MAX_NESTING
    code, _, _ = run_cli(
        capsys, "eigenspace", "--builtin", "trivial:1", "--weight", ok
    )
    assert code == 0
    code, out, err = run_cli(
        capsys, "eigenspace", "--builtin", "trivial:1", "--weight", f"({ok})"
    )
    assert code == 2
    assert not out
    assert err.startswith("error: ") and "nested deeper" in err


@pytest.mark.parametrize(
    "weight",
    [
        "i*3^10000000",
        "((3^4096)^4096)^4096",
        "i*(1+i)^-70000",
        # k log2(3) overflowed a float: a traceback, not a usage error
        pytest.param(f"i*3^{'1' * 400}", id="i*3^(400 ones)"),
    ],
)
def test_power_past_the_size_bound_is_a_usage_error(capsys, weight):
    code, _, _ = run_cli(
        capsys, "eigenspace", "--builtin", "trivial:1", "--weight", "i*3^40"
    )
    assert code == 0
    code, out, err = run_cli(
        capsys, "eigenspace", "--builtin", "trivial:1", "--weight", weight
    )
    assert code == 2
    assert not out
    assert err.startswith("error: ") and f"{MAX_POWER_BITS} bits" in err


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    # only input parsing maps ValueError to exit 2; a bug must not pass as
    # a usage error
    def broken(*_args):
        raise ValueError("internal bug")

    monkeypatch.setattr(report, "compute_harmonics", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["verify-all", "--builtin", "dihedral:3"])


def test_verify_all_certifies_generic_weight(capsys):
    code, rep, _ = run_json(
        capsys,
        "verify-all", "--builtin", "dihedral:3", "--weight", "i*1, i*2",
    )
    assert code == 0
    assert all(v == "pass" for v in rep["checks"].values())
    assert rep["failed_at"] is None
    (section,) = rep["eigenspace"]
    assert section["irreducible_certified"] is True
    assert section["status"] == "certified"
    assert section["eigenvalues"][0]["degree"] == 2


def test_verify_all_rejects_rotation_group(capsys):
    code, rep, _ = run_json(capsys, "verify-all", "--builtin", "cyclic:5")
    assert code == 1
    checks = rep["checks"]
    assert checks["def-1.1"] == "fail"
    assert checks["lemma-4.3"] == "pass"
    assert checks["lemma-4.5"] == "fail"
    assert checks["thm-4.11"] == "not-run"
    assert checks["thm-4.14"] == "not-run"
    assert checks["thm-3.10"] == "not-run"
    assert rep["failed_at"] == "lemma-4.2/degree-extraction"
    # extraction reads the series at the default truncation (16), whatever
    # truncation the shared series was computed at
    assert rep["invariants"]["error"] == (
        "not a reflection-group invariant series: reciprocal has a nonzero "
        "coefficient at degree 15 > bound 6"
    )


def test_verify_all_zero_weight_is_out_of_scope(capsys):
    code, rep, _ = run_json(
        capsys, "verify-all", "--builtin", "dihedral:4", "--weight", "0, 0"
    )
    assert code == 0
    assert rep["checks"]["thm-4.14"] == NON_GENERIC_STATUS
    assert rep["checks"]["thm-3.10"] == "pass"
    (section,) = rep["eigenspace"]
    assert section["commutant_dim"] == 8


def test_top_level_key_order_and_default_battery(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--builtin", "dihedral:3")
    assert code == 0
    rep = json.loads(out)
    assert list(rep.keys()) == TOP_LEVEL_ORDER
    # default battery: five random generic weights plus the zero weight
    sections = rep["eigenspace"]
    assert len(sections) == 6
    assert sum(1 for s in sections if s["generic"]) == 5
    assert sections[-1]["weight"] == ["0", "0"]
    assert rep["seeds"] == {"base": 0}
    assert rep["timings"] is None


def test_json_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify-all", "--builtin", "dihedral:3")
    _, second, _ = run_cli(capsys, "verify-all", "--builtin", "dihedral:3")
    assert first == second


def test_seed_changes_the_battery(capsys):
    _, base, _ = run_json(capsys, "verify-all", "--builtin", "dihedral:3")
    _, moved, _ = run_json(
        capsys, "verify-all", "--builtin", "dihedral:3", "--seed", "1"
    )
    pick = lambda rep: [s["weight"] for s in rep["eigenspace"]]
    assert pick(base) != pick(moved)


def test_timings_flag(capsys):
    _, rep, _ = run_json(
        capsys, "verify-all", "--builtin", "dihedral:3", "--timings"
    )
    assert isinstance(rep["timings"], dict)
    assert set(rep["timings"]) <= {
        "group", "molien", "invariants", "harmonics", "eigenspace",
    }
    assert all(t >= 0 for t in rep["timings"].values())


def assert_timings_appended(capsys, argv, stages):
    """`--timings` appends one field listing `stages`; without it the report
    is the default one."""
    _, plain, _ = run_json(capsys, *argv)
    code, rep, _ = run_json(capsys, *argv, "--timings")
    assert code == 0
    assert list(rep) == list(plain) + ["timings"]
    assert list(rep["timings"]) == stages
    assert all(t >= 0 for t in rep["timings"].values())
    del rep["timings"]
    assert rep == plain


@pytest.mark.parametrize(
    "command, stages",
    [
        ("invariants", ["molien", "invariants"]),
        ("harmonics", ["molien", "invariants", "harmonics"]),
    ],
)
def test_invariants_and_harmonics_timings_flag(capsys, command, stages):
    assert_timings_appended(capsys, [command, "--builtin", "dihedral:4"], stages)


@pytest.mark.parametrize(
    "argv, stages",
    [
        (["info"], []),
        (["molien"], ["molien"]),
        (
            ["eigenspace", "--weight", "i*1, i*2"],
            ["molien", "invariants", "harmonics", "eigenspace"],
        ),
    ],
    ids=["info", "molien", "eigenspace"],
)
def test_timings_flag_lists_the_stages_that_ran(capsys, argv, stages):
    assert_timings_appended(capsys, argv + ["--builtin", "dihedral:4"], stages)


@pytest.mark.parametrize("command", ["invariants", "harmonics"])
def test_invariants_and_harmonics_without_timings_have_no_timings_field(
    capsys, command
):
    code, out, _ = run_cli(capsys, command, "--builtin", "dihedral:4")
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == ["schema_version", "tool", "group", command]
    assert "timings" not in out


def test_out_writes_the_report_to_a_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "molien", "--builtin", "dihedral:4", "--max-degree", "4",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["molien"]["coefficients"] == [1, 0, 1, 0, 2]


def test_text_rendering(capsys):
    code, out, _ = run_cli(
        capsys, "info", "--builtin", "dihedral:4", "--output", "text"
    )
    assert code == 0
    lines = out.splitlines()
    assert "group.order: 8" in lines
    assert "group.is_reflection_group: true" in lines
    assert all(": " in line for line in lines)


def test_unknown_builtin_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "info", "--builtin", "icosahedral:1")
    assert code == 2
    assert not out
    assert err.startswith("error:")


def test_group_file_round_trip(tmp_path, capsys):
    spec = {
        "name": "quarter-turn",
        "dimension": 2,
        "generators": [[["0", "-1"], ["1", "0"]]],
    }
    path = tmp_path / "rot4.json"
    path.write_text(json.dumps(spec))
    code, rep, _ = run_json(capsys, "info", "--group", str(path))
    assert code == 0
    assert rep["group"]["order"] == 4
    assert rep["group"]["name"] == "quarter-turn"
    assert rep["group"]["is_reflection_group"] is False


def test_group_file_scalar_error_is_usage(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"dimension": 1, "generators": [[["E(0)"]]]})
    )
    code, _, err = run_cli(capsys, "info", "--group", str(path))
    assert code == 2
    assert "generator" in err


def test_group_file_with_a_large_conductor_loads_quickly(tmp_path, capsys):
    # diag(zeta_77, zeta_8) has order 616 and 76 + 7 reflections; each
    # element's rank(m - I) in Q(zeta_616) is ruled out mod p, not by rref
    path = tmp_path / "diag.json"
    path.write_text(
        json.dumps({"dimension": 2, "generators": [[["E(77)", "0"], ["0", "E(8)"]]]})
    )
    start = time.perf_counter()
    code, rep, _ = run_json(capsys, "info", "--group", str(path))
    assert time.perf_counter() - start < 2
    assert code == 0
    assert rep["group"]["order"] == 616
    assert rep["group"]["reflection_count"] == 83


def test_malformed_group_file_is_usage(tmp_path, capsys):
    # numbers in place of entry strings used to die with a TypeError
    path = tmp_path / "numbers.json"
    path.write_text(
        json.dumps({"dimension": 2, "generators": [[[0, -1], [1, 0]]]})
    )
    code, out, err = run_cli(capsys, "info", "--group", str(path))
    assert code == 2
    assert not out
    assert "generator #0 entry (0,0)" in err
    for generators in (5, [5]):
        path.write_text(json.dumps({"dimension": 2, "generators": generators}))
        code, out, err = run_cli(capsys, "info", "--group", str(path))
        assert code == 2
        assert err.startswith("error:")


def test_generator_with_a_large_non_rational_trace_is_refused_quickly(tmp_path, capsys):
    # det 1 and integral, each ran 0.9 to 1.5 s to the element bound:
    # trace 3i, |sigma(3i)| = 3 > C(2, 1) in both embeddings; trace
    # 1 + sqrt 2, whose embeddings 2.41 and -0.41 have mean square 3 <= 4
    # but the first passes C(2, 1) = 2
    for trace in ("3*i", "1+E(8)-E(8)^3"):
        path = tmp_path / "generator.json"
        path.write_text(
            json.dumps({"dimension": 2, "generators": [[[trace, "-1"], ["1", "0"]]]})
        )
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "info", "--group", str(path))
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert not out
        assert "infinite order" in err


def test_singular_generator_is_usage(tmp_path, capsys):
    path = tmp_path / "singular.json"
    path.write_text(
        json.dumps({"dimension": 2, "generators": [[["1", "0"], ["0", "0"]]]})
    )
    code, _, err = run_cli(capsys, "info", "--group", str(path))
    assert code == 2
    assert "generators must be invertible" in err


def test_missing_group_file_is_usage(capsys):
    code, _, err = run_cli(capsys, "info", "--group", "/nonexistent/g.json")
    assert code == 2
    assert err.startswith("error:")


def test_argparse_failures_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["molien"])  # no group source
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["molien", "--builtin", "dihedral:3", "--max-degree", "-3"])
    assert exc.value.code == 2
    # below 64 bits a numeric check can report a false mathematical failure
    for bits in ("0", "8", "-4"):
        with pytest.raises(SystemExit) as exc:
            main(["verify-all", "--builtin", "dihedral:3", "--precision", bits])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "option", ["--weight=--", "--builtin=--", "--precision=--", "--seed=--"]
)
def test_double_dash_value_is_a_usage_error(option):
    argv = ["eigenspace", "--weight=i, i", option]
    if not option.startswith("--builtin"):
        argv.append("--builtin=dihedral:3")
    code, err = _exit_code(argv)
    assert code == 2
    assert err.strip()


def test_pipeline_config_rejects_unsafe_values():
    # the library boundary needs the same floor as the CLI: at 8 bits
    # verify_all reported thm-4.14 and thm-3.10 as fail on dihedral:3
    with pytest.raises(ValueError):
        PipelineConfig(precision=8)
    with pytest.raises(ValueError):
        PipelineConfig(precision=MIN_PRECISION - 1)
    with pytest.raises(ValueError):
        PipelineConfig(max_degree=-1)
    with pytest.raises(ValueError):
        PipelineConfig(precision=MAX_PRECISION + 1)
    with pytest.raises(ValueError):
        PipelineConfig(max_degree=MAX_DEGREE + 1)
    config = PipelineConfig(precision=MIN_PRECISION, max_degree=0)
    assert (config.precision, config.max_degree) == (MIN_PRECISION, 0)
    config = PipelineConfig(precision=MAX_PRECISION, max_degree=MAX_DEGREE)
    assert (config.precision, config.max_degree) == (MAX_PRECISION, MAX_DEGREE)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "refleig",
         "molien", "--builtin", "dihedral:3", "--max-degree", "6"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["molien"]["coefficients"] == [1, 0, 1, 1, 1, 1, 2]


def test_no_subcommand_imports_mpmath():
    # mpmath is a test dependency only; a None entry in sys.modules makes
    # any import of it raise
    code = """
import contextlib, io, sys
sys.modules["mpmath"] = None
from refleig import *
assert E(4).embed(8) == (0, 256) and Cyclotomic.embed(E(8), 64)[0] > 0
from refleig.cli import main
for argv in (["info"], ["molien"], ["invariants"], ["harmonics"],
             ["eigenspace", "--weight", "i*1, i*2"], ["verify-all"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv[:1] + ["--builtin", "dihedral:3"] + argv[1:]) == 0, argv
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


# -- boundary fuzz ------------------------------------------------------------
#
# Malformed weight texts, group files, builtin specs and flag values must end
# in exit 0, 1 or 2 with a message, never an exception out of `main`, and
# within 2 s.  Numerals in the token soup stay short; large numbers come as
# exponents past `MAX_POWER_BITS`, which the parser refuses before computing
# them, and as root-of-unity orders up to 10^6, which `ORDER_CAP` refuses, as
# it refuses products of two roots whose lcm passes it.  Builtin specs draw
# numerals of up to six digits, with or without underscores; `groups.builtin`
# refuses any group past its size bounds before building it, and builds any
# group inside them within `BUILTIN_SECONDS`.

FUZZ_SECONDS = 2
# The slowest in-bound builtin, symmetric:7 (|K| = 5040), loads in about
# 2.1 s in-process on a 2-vCPU x86_64 machine; the bound leaves twice that.
BUILTIN_SECONDS = 5

_WEIGHT_TOKENS = (
    "i", "E(", "E", "(", ")", "^", "^-", "-", "+", "*", "/", ",", " ", "\t",
    "0", "1", "2", "3", "7", "x1", "x", "y", ".", "é", "E(0)", "E(-3)",
    "E(8)", "1/0", "0^-1", "(((", ")))", "i/3",
)
_weight_soup = st.lists(st.sampled_from(_WEIGHT_TOKENS), max_size=8).map("".join)
# shallow nesting comes from the token soup; this reaches past the depth at
# which a recursive-descent parser meets the recursion limit, which hypothesis
# raises while a test runs
_deep_nesting = st.integers(min_value=50, max_value=3000).map(
    lambda k: "(" * k + "i" + ")" * k
)
_huge_powers = st.tuples(
    st.sampled_from(("3", "i*3", "(1+i)", "(2/3)", "(3^4096)", "(E(8)+1)")),
    st.sampled_from(("", "-")),
    st.integers(min_value=MAX_POWER_BITS + 1, max_value=10**30),
).map(lambda t: f"{t[0]}^{t[1]}{t[2]}")
_roots = st.integers(min_value=1, max_value=10**6).map(lambda m: f"E({m})")
_rooted_soup = st.lists(
    st.one_of(st.sampled_from(_WEIGHT_TOKENS), _roots), max_size=8
).map("".join)
# E(m) lives in Q(zeta_(m/2)) when m = 2 mod 4, so the lcm is of conductors
_orders_past_the_cap = st.tuples(
    st.integers(min_value=2, max_value=ORDER_CAP),
    st.integers(min_value=2, max_value=ORDER_CAP),
).filter(
    lambda t: math.lcm(*(m // 2 if m % 4 == 2 else m for m in t)) > ORDER_CAP
)
_weights = st.one_of(
    st.one_of(_weight_soup, _deep_nesting).filter(
        lambda t: not re.search(r"\d{3}", t)
    ),
    _huge_powers,
    _rooted_soup,
)

_SPEC_FAMILIES = (
    "dihedral", "symmetric", "hyperoctahedral", "cyclic", "trivial",
    "", "Dihedral", "dihedral ", "foo", "E(4)", ":",
)
_SPEC_SEPARATORS = (":", "", "::", " : ", "=", ",")
_SPEC_ARGUMENTS = (
    "", "-1", "0", "1", "2", "3", "+3", " 2", "x", "3.5", "1e3", "0x3",
    "3:4", "٣", "nan", "-", "0_3",
)
_spec_numerals = st.from_regex(r"\A[0-9](_?[0-9]){0,5}\Z")
_specs = st.one_of(
    st.tuples(
        st.sampled_from(_SPEC_FAMILIES),
        st.sampled_from(_SPEC_SEPARATORS),
        st.one_of(st.sampled_from(_SPEC_ARGUMENTS), _spec_numerals),
    ).map("".join),
    st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=12),
)


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, err.getvalue()


def _clean_exit(argv, codes=(0, 1, 2), seconds=FUZZ_SECONDS):
    """Exit code and stderr of `main(argv)`, which must end in one of
    `codes`, with a message when nonzero, within `seconds`."""
    start = time.perf_counter()
    code, err = _exit_code(argv)
    assert time.perf_counter() - start < seconds, argv
    assert code in codes
    if code:
        assert err.strip()
    return code, err


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["trivial:1", "dihedral:3"]), _weights)
def test_fuzz_weight_texts_exit_cleanly(group, text):
    _clean_exit(["eigenspace", f"--builtin={group}", f"--weight={text}"])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["trivial:1", "dihedral:3"]), _orders_past_the_cap)
def test_fuzz_root_products_past_the_cap_are_refused(group, orders):
    a, b = orders
    _, err = _clean_exit(
        ["eigenspace", f"--builtin={group}", f"--weight=E({a})*E({b})"], codes=(2,)
    )
    assert f"exceeds cap {ORDER_CAP}" in err


@pytest.mark.parametrize(
    "weight",
    [
        "E(65520)-E(65520)^65519",
        "E(256)*E(255), 0",
        "E(64)*E(63), 0",
        pytest.param(f"E({'1' * 5000})", id="E(5000 ones)"),
    ],
)
def test_orders_past_the_cap_are_refused_quickly(weight):
    group = "trivial:1" if "," not in weight else "dihedral:3"
    _, err = _clean_exit(
        ["eigenspace", f"--builtin={group}", f"--weight={weight}"], codes=(2,)
    )
    assert f"exceeds cap {ORDER_CAP}" in err


# 1x1 and 2x2 generator lists whose entries come from the weight soup, with a
# declared dimension that may not match them
_group_files = st.integers(min_value=1, max_value=2).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "dimension": st.integers(min_value=0, max_value=3),
            "generators": st.lists(
                st.lists(
                    st.lists(_weight_soup, min_size=n, max_size=n),
                    min_size=n, max_size=n,
                ),
                min_size=1, max_size=2,
            ),
        }
    )
)


@settings(max_examples=60, deadline=None)
@given(_group_files)
def test_fuzz_group_files_exit_cleanly(tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("fuzz") / "group.json"
    path.write_text(json.dumps(spec))
    _clean_exit(["info", f"--group={path}"])


_flag_values = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30).map(str),
    st.integers(min_value=-2, max_value=2 * MAX_DEGREE).map(str),
    st.sampled_from(_SPEC_ARGUMENTS),
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["molien", "verify-all"]),
    st.one_of(st.none(), _flag_values),
    st.one_of(st.none(), _flag_values),
)
def test_fuzz_degree_and_precision_flags_exit_cleanly(command, degree, precision):
    argv = [command, "--builtin=dihedral:3"]
    if degree is not None:
        argv.append(f"--max-degree={degree}")
    if precision is not None:
        argv.append(f"--precision={precision}")
    _clean_exit(argv)


@settings(max_examples=30, deadline=None)
@given(_huge_powers)
def test_fuzz_powers_past_the_bound_are_refused(text):
    code, err = _exit_code(["eigenspace", "--builtin=trivial:1", f"--weight=i*{text}"])
    assert code == 2
    assert "bits" in err


@pytest.mark.parametrize(
    "spec", ["symmetric:9", "trivial:3000", "symmetric:1_0_0_0_0_0"]
)
def test_builtin_specs_past_the_size_bounds_are_refused_quickly(spec):
    start = time.perf_counter()
    code, err = _exit_code(["info", f"--builtin={spec}"])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert spec in err


def test_builtin_bounds_admit_the_largest_groups_below_them():
    assert _family_order("symmetric", 7) == 5040
    assert _family_order("symmetric", 8) is None
    assert _family_order("hyperoctahedral", 5) == 3840
    assert _family_order("hyperoctahedral", 6) is None
    assert _family_order("dihedral", DEFAULT_MAX_ORDER // 2) == DEFAULT_MAX_ORDER
    assert _family_order("cyclic", 10**4000) is None
    for spec in (f"dihedral:{MAX_ROTATION_ORDER + 1}", f"cyclic:{MAX_ROTATION_ORDER + 1}",
                 f"trivial:{MAX_TRIVIAL_DIMENSION + 1}", "dihedral:٣", "cyclic:+3"):
        code, err = _exit_code(["info", f"--builtin={spec}"])
        assert code == 2 and err.strip(), spec
    code, _ = _exit_code(["info", f"--builtin=trivial:{MAX_TRIVIAL_DIMENSION}"])
    assert code == 0


@settings(max_examples=60, deadline=None)
@given(_specs)
def test_fuzz_builtin_specs_exit_cleanly(spec):
    _clean_exit(["info", f"--builtin={spec}"], codes=(0, 2), seconds=BUILTIN_SECONDS)
