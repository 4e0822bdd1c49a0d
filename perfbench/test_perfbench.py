"""Tests of the benchmark itself, on tiny jobs.

    python3 -m pytest perfbench

They run the benchmark in smoke mode (dihedral:3, trivial:2 and cyclic:3
jobs, a few seconds each way), check that every declared metric prints with
its unit, that the oracle rejects tampered reports, and that the benchmark
refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args, cwd=ROOT, bench_dir=BENCH_DIR):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, kind):
    proc = _run_bench("--smoke", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert [m["name"] for m in DECLARED[kind]] == list(result["metrics"])
    for metric in DECLARED[kind]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{metric['name']} {got['value']} {metric['unit']}" in lines
    assert any(line.startswith("error_rate 0.0 (0 of ") for line in lines)


def test_traced_child_wraps_every_binding_and_partitions_time():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "trace_child.py"),
         "verify-all", "--builtin", "dihedral:3", "--seed", "4"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.splitlines()[-1])
    assert child["exit_code"] == 0
    assert oracle.check(("verify-all", "--builtin", "dihedral:3"), 0, child["report"]) == []
    trace = child["trace"]
    # cli and report call these through their own `from ... import` bindings
    for name in ("report.render_json", "eigenspace.evaluation_rank", "harmonics.find_fundamental_invariants"):
        assert trace["spans"][name]["calls"] >= 1, name
    self_total = sum(agg["self_s"] for agg in trace["spans"].values())
    assert self_total == pytest.approx(trace["root_s"], abs=1e-6)
    assert trace["counts"]["cyclotomic.add"] > 0 and trace["max_order"] >= 3


def test_workloads_match_benchmark_json():
    from workloads import WORKLOADS

    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def _report(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "refleig", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    return proc.returncode, proc.stdout


def test_oracle_accepts_real_reports_and_rejects_tampered_ones():
    job = ("verify-all", "--builtin", "dihedral:3")
    code, text = _report(*job, "--seed", "2")
    assert oracle.check(job, code, text) == []

    report = json.loads(text)
    report["molien"]["coefficients"][3] += 1
    assert oracle.check(job, code, json.dumps(report))

    report = json.loads(text)
    report["eigenspace"][0]["evaluation_rank"] -= 1
    assert oracle.check(job, code, json.dumps(report))

    report = json.loads(text)
    report["checks"]["thm-4.14"] = "fail"
    assert oracle.check(job, 1, json.dumps(report))

    assert oracle.check(job, code, text[:-10])


def test_oracle_on_the_negative_control():
    job = ("verify-all", "--builtin", "cyclic:3")
    code, text = _report(*job, "--seed", "2")
    assert code == 1
    assert oracle.check(job, code, text) == []
    assert oracle.check(job, 0, text)


def test_closed_forms():
    assert oracle.molien_coefficients((2, 3), 8) == [1, 0, 1, 1, 1, 1, 2, 1]
    assert oracle.harmonic_profile((2, 3)) == [1, 2, 2, 1]
    assert oracle.group_facts("hyperoctahedral:4") == (4, 384, (2, 4, 6, 8))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run_bench(
        "--workload", "certify-s4", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, bench_dir=tmp_path / BENCH_DIR.name,
    )
    assert proc.returncode != 0
    assert "no refleig sources" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_ledger_fails_a_job_whose_report_hash_changes():
    import run

    ledger = run.Ledger()
    argv = ["verify-all", "--builtin", "dihedral:3", "--seed", "test-only"]
    assert ledger.check(argv, "0" * 64) == []
    assert ledger.check(argv, "0" * 64) == []
    assert ledger.check(argv, "1" * 64)
