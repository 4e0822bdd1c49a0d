"""Time-to-verdict benchmark for refleig.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/` with no install step.  Each job is a fresh `python3 -m refleig ...`
process with `--seed N` appended, run one at a time (closed loop, one
client): refleig is single-threaded.  Every report is checked against
closed-form answers (`oracle.py`) and hashed; a hash that differs from an
earlier run of the same code and job, kept in `perfbench/.work/`, counts as
a failed job, as do timeouts and crashes.

With `--trace 0` the run times passes over the workload's jobs for about
S seconds (it stops when half a pass more would pass S; at least one pass),
and reports the end-to-end metrics of BENCHMARK.json: median wall and CPU
time per pass, set-up time (median over three repetitions of `import
refleig` plus the group closure, in fresh processes, summed over the jobs)
and the largest peak RSS.
With `--trace 1` it runs the cyclotomic micro-kernels in a fresh process,
one untraced pass and one traced pass (`trace_child.py`, spans from
`tracer.py`), and reports the per-layer metrics.  The traced run exits
non-zero when a layer the workload loads records no calls.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
each job, each metric with its unit, the error rate and the environment.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from tracer import COUNTERS, SPANS
from workloads import SMOKE, WORKLOADS, job_group

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
LEDGER = WORK / "report_hashes.json"

SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Process:
    exit_code: int | None  # None when killed at the deadline
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


@dataclass
class Job:
    argv: list
    process: Process
    report: str = ""
    exit_code: int | None = None
    trace: dict | None = None
    sha256: str = ""
    problems: list = field(default_factory=list)


def run_process(cmd, timeout):
    """Run one process to completion; wall, CPU and peak RSS from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        killed = []

        t = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env
        )

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Process(
            None if killed else proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss,
            out.read(),
            err.read(),
        )


class Ledger:
    """Report hashes by code fingerprint and job, kept across runs."""

    def __init__(self):
        digest = hashlib.sha256()
        for path in sorted((SRC / "refleig").glob("*.py")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        self.fingerprint = digest.hexdigest()
        try:
            self.hashes = json.loads(LEDGER.read_text())
        except FileNotFoundError:
            self.hashes = {}

    def check(self, argv, sha):
        key = self.fingerprint + " " + " ".join(argv)
        earlier = self.hashes.setdefault(key, sha)
        if earlier != sha:
            return [f"report hash {sha} differs from {earlier} of an earlier run"]
        return []

    def save(self):
        tmp = LEDGER.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.hashes, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, LEDGER)


def run_job(job, seed, traced, deadline, ledger):
    argv = [*job, "--seed", str(seed)]
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "trace_child.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "refleig", *argv]
    proc = run_process(cmd, deadline - time.perf_counter())
    result = Job(argv, proc)
    if proc.exit_code is None:
        result.problems.append("timed out")
        return result
    if traced:
        if proc.exit_code != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            result.problems.append(f"traced process crashed: {tail}")
            return result
        child = json.loads(proc.stdout.decode().splitlines()[-1])
        result.report, result.exit_code, result.trace = (
            child["report"], child["exit_code"], child
        )
    else:
        result.report, result.exit_code = proc.stdout.decode(errors="replace"), proc.exit_code
    result.sha256 = hashlib.sha256(result.report.encode()).hexdigest()
    result.problems += oracle.check(job, result.exit_code, result.report)
    result.problems += ledger.check(argv, result.sha256)
    return result


def run_pass(jobs, seed, traced, deadline, ledger):
    results = []
    for job in jobs:
        results.append(run_job(job, seed, traced, deadline, ledger))
        if results[-1].process.exit_code is None:
            break
    return results


def setup_seconds(jobs, deadline):
    """Median over repetitions of the summed import-plus-closure times."""
    sums = []
    for _ in range(SETUP_REPEATS):
        total = 0.0
        for job in jobs:
            code = f"import refleig; refleig.builtin({job_group(job)!r})"
            proc = run_process([sys.executable, "-c", code], deadline - time.perf_counter())
            if proc.exit_code != 0:
                raise BenchmarkError(
                    f"set-up of {job_group(job)} failed: "
                    + proc.stderr.decode(errors="replace").strip()
                )
            total += proc.wall_s
        sums.append(total)
    return statistics.median(sums)


def median_of_passes(passes, value):
    return statistics.median(sum(value(j) for j in p) for p in passes)


def end_to_end(workload, seed, seconds, deadline, ledger):
    setup = setup_seconds(workload.jobs, deadline)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload.jobs, seed, False, deadline, ledger))
        if any(j.problems for j in passes[-1]):
            break
        per_pass = median_of_passes(passes, lambda j: j.process.wall_s)
        now = time.perf_counter()
        if now - start + per_pass / 2 > seconds or now + per_pass > deadline:
            break
    jobs = [j for p in passes for j in p]
    metrics = {
        "wall_s": median_of_passes(passes, lambda j: j.process.wall_s),
        "cpu_s": median_of_passes(passes, lambda j: j.process.cpu_s),
        "setup_s": setup,
        "peak_rss_mb": max(j.process.maxrss_kb for j in jobs) / 1024,
    }
    walls = sorted(sum(j.process.wall_s for j in p) for p in passes)
    note = f"passes {len(passes)}, wall per pass min {walls[0]:.3f} s max {walls[-1]:.3f} s"
    return jobs, metrics, note


def per_layer(workload, seed, deadline, ledger):
    kernels = run_process(
        [sys.executable, str(BENCH_DIR / "trace_child.py"), "--kernels", str(seed)],
        deadline - time.perf_counter(),
    )
    if kernels.exit_code != 0:
        raise BenchmarkError("micro-kernels failed: " + kernels.stderr.decode(errors="replace"))
    plain = run_pass(workload.jobs, seed, False, deadline, ledger)
    traced = run_pass(workload.jobs, seed, True, deadline, ledger)
    jobs = plain + traced
    note = "micro-kernels, then one plain and one traced pass"
    if any(j.problems for j in jobs):
        return jobs, {}, note
    metrics = json.loads(kernels.stdout.decode().splitlines()[-1])
    metrics.update(layer_metrics([j.trace for j in traced]))
    metrics["trace.overhead_ratio"] = (
        sum(j.process.wall_s for j in traced) / sum(j.process.wall_s for j in plain)
    )
    idle = [layer for layer in workload.layers if not layer_calls(metrics, layer)]
    if idle:
        raise BenchmarkError(
            f"layers {idle} recorded no calls on {workload.name}: a call site "
            "moved out of the traced functions (see perfbench/tracer.py)"
        )
    return jobs, metrics, note


def layer_metrics(children):
    """Per-layer figures summed over the traced jobs of one pass."""
    spans = {name: {"calls": 0, "self_s": 0.0, "true": 0, "size_max": 0} for name, _, _ in SPANS}
    for child in children:
        for name, agg in child["trace"]["spans"].items():
            total = spans[name]
            total["calls"] += agg["calls"]
            total["self_s"] += agg["self_s"]
            total["true"] += agg["true"]
            total["size_max"] = max(total["size_max"], agg["size_max"])

    def ratio(name, hits):
        calls = spans[name]["calls"]
        return hits / calls if calls else 0.0

    out = {}
    for name, agg in spans.items():
        out[name + "_calls"] = agg["calls"]
        out[name + "_s"] = agg["self_s"]
    for name, _methods in COUNTERS:
        out[name + "_calls"] = sum(c["trace"]["counts"][name] for c in children)
    out["cyclotomic.max_order"] = max(c["trace"]["max_order"] for c in children)
    out["linalg.rref_cells_max"] = spans["linalg.rref"]["size_max"]
    out["linalg.rowspan_accept_ratio"] = ratio(
        "linalg.rowspan_add", spans["linalg.rowspan_add"]["true"]
    )
    out["polynomials.reynolds_useful_ratio"] = ratio(
        "polynomials.reynolds", spans["polynomials.reynolds"]["true"]
    )
    out["eigenspace.rank_fastpath_ratio"] = ratio(
        "eigenspace.evaluation_rank", sum(c["trace"]["rank_fastpath"] for c in children)
    )
    sections = [s for c in children for s in c["trace"]["section_s"]]
    out["report.eigenspace_section_s_p50"] = statistics.median(sections) if sections else 0.0
    out["cli.import_s"] = sum(c["import_s"] for c in children)
    out["trace.unattributed_s"] = sum(
        c["wall_s"] - c["import_s"] - c["trace"]["root_s"] for c in children
    )
    return out


def layer_calls(metrics, layer):
    return sum(
        v for k, v in metrics.items() if k.startswith(layer + ".") and k.endswith("_calls")
    )


def environment():
    try:
        import mpmath
        import mpmath.libmp

        mp = f"mpmath {mpmath.__version__} backend {mpmath.libmp.BACKEND}"
    except ImportError:
        mp = "mpmath missing"
    return f"nproc {os.cpu_count()}, python {platform.python_version()}, {mp}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--smoke", action="store_true", help="tiny jobs, for the benchmark's tests")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.smoke == (args.workload is not None):
        parser.error("give exactly one of --workload and --smoke")
    workload = SMOKE if args.smoke else WORKLOADS[args.workload]
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if not (SRC / "refleig" / "__init__.py").is_file():
            raise BenchmarkError(f"no refleig sources under {SRC}")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        WORK.mkdir(exist_ok=True)
        ledger = Ledger()
        # compile the bytecode once, as an installed package would have it
        run_process([sys.executable, "-c", "import refleig"], deadline - time.perf_counter())
        if args.trace:
            jobs, metrics, note = per_layer(workload, args.seed, deadline, ledger)
            wanted = declared["per_layer"]
        else:
            jobs, metrics, note = end_to_end(
                workload, args.seed, args.seconds, deadline, ledger
            )
            wanted = declared["end_to_end"]
        ledger.save()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = sum(1 for j in jobs if j.problems)
    why = {w["name"]: w["why"] for w in declared["workloads"]}.get(workload.name, "")
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: {why}")
    print(f"environment: {environment()}")
    for j in jobs:
        mode = "traced" if j.trace else "plain"
        status = "ok" if not j.problems else "FAILED: " + "; ".join(j.problems)
        print(
            f"job [{mode}] refleig {' '.join(j.argv)}: exit {j.exit_code}, "
            f"wall {j.process.wall_s:.3f} s, cpu {j.process.cpu_s:.3f} s, "
            f"rss {j.process.maxrss_kb / 1024:.1f} MB, sha256 {j.sha256 or '-'}, {status}"
        )
    print(note)
    result = {}
    if metrics:
        for metric in wanted:
            value = metrics[metric["name"]]
            result[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"{metric['name']} {value} {metric['unit']}")
    print(f"error_rate {failed / len(jobs)} ({failed} of {len(jobs)} jobs attempted failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
