"""End-to-end CLI tests: frozen outputs, exit codes, rendering contracts."""

import json
import subprocess
import sys

import pytest

from refleig import __version__
from refleig.cli import main
from refleig.report import MIN_PRECISION, NON_GENERIC_STATUS, PipelineConfig

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


def test_eigenspace_requires_weight(capsys):
    code, out, err = run_cli(capsys, "eigenspace", "--builtin", "dihedral:4")
    assert code == 2
    assert not out
    assert "weight" in err


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


def test_pipeline_config_rejects_unsafe_values():
    # the library boundary needs the same floor as the CLI: at 8 bits
    # verify_all reported thm-4.14 and thm-3.10 as fail on dihedral:3
    with pytest.raises(ValueError):
        PipelineConfig(precision=8)
    with pytest.raises(ValueError):
        PipelineConfig(precision=MIN_PRECISION - 1)
    with pytest.raises(ValueError):
        PipelineConfig(max_degree=-1)
    config = PipelineConfig(precision=MIN_PRECISION, max_degree=0)
    assert (config.precision, config.max_degree) == (MIN_PRECISION, 0)


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
