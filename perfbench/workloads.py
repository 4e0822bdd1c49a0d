"""The benchmark's workloads: CLI jobs run one at a time, in a fixed order.

Each job is a refleig command line without `--seed`; the benchmark appends
`--seed S` from its own seed argument and passes the program nothing else.
`layers` names the modules a workload loads; the traced run fails when one
of them records no calls.  Why each workload exists is the `why` of its
entry in BENCHMARK.json, which every run prints.
"""

from dataclasses import dataclass

ALL_LAYERS = (
    "groups",
    "cyclotomic",
    "linalg",
    "series",
    "polynomials",
    "harmonics",
    "eigenspace",
    "report",
    "parsing",
)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    layers: tuple


WORKLOADS = {
    w.name: w
    for w in (
        # The eigenspace battery is about two thirds of the time and harmonics
        # most of the rest, all over Q(i).  verify-all on hyperoctahedral:3
        # (|K| = 48) would load the eigenspace layer harder, but about one
        # seed in four stops with "could not find a separating translation"
        # (seeds 5, 7 and 9 among 0..11), so it cannot run on arbitrary seeds.
        Workload(
            "certify-s4",
            (("verify-all", "--builtin", "symmetric:4"),),
            ALL_LAYERS,
        ),
        # Scalars in Q(zeta_20) and Q(zeta_28): Galois-descent
        # canonicalization dominates, and harmonics take hundredths of a
        # second, so a harmonics change should show no change here.
        Workload(
            "certify-dihedral-odd",
            (
                ("verify-all", "--builtin", "dihedral:5"),
                ("verify-all", "--builtin", "dihedral:7"),
            ),
            ALL_LAYERS,
        ),
        # No eigenspace layer: series, Reynolds projections, elimination and
        # harmonics over rational scalars at |K| = 120 and 384.  cyclic:5 is
        # the negative control: rotation-only groups must keep failing.
        Workload(
            "invariant-theory",
            (
                ("molien", "--builtin", "hyperoctahedral:4"),
                ("invariants", "--builtin", "symmetric:5"),
                ("harmonics", "--builtin", "symmetric:4"),
                ("verify-all", "--builtin", "cyclic:5"),
            ),
            tuple(x for x in ALL_LAYERS if x != "eigenspace"),
        ),
    )
}

# Tiny jobs for the benchmark's own tests: every subcommand, a trivial group
# and the negative control, each well under a second.
SMOKE = Workload(
    "smoke",
    (
        ("verify-all", "--builtin", "dihedral:3"),
        ("molien", "--builtin", "trivial:2"),
        ("invariants", "--builtin", "dihedral:3"),
        ("harmonics", "--builtin", "trivial:2"),
        ("verify-all", "--builtin", "cyclic:3"),
    ),
    ALL_LAYERS,
)


def job_group(job) -> str:
    """The builtin spec a job builds."""
    return job[job.index("--builtin") + 1]
