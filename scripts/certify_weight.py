"""Irreducibility certificate for one group and weight, one stage per line.

Prints the per-weight section that `verify-all` computes
(`refleig.report.eigenspace_section`), so its verdict is the pipeline's:

    python scripts/certify_weight.py --builtin dihedral:5 --weight "i*1, i*3"
    python scripts/certify_weight.py --builtin symmetric:3 --random --seed 7
"""

import argparse
import random
import sys

from refleig.eigenspace import random_generic_weight
from refleig.groups import builtin
from refleig.harmonics import compute_harmonics, find_fundamental_invariants
from refleig.report import PipelineConfig, eigenspace_section, parse_weight


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--builtin", required=True)
    parser.add_argument("--weight", help='comma-separated entries, e.g. "i*1, i*2"')
    parser.add_argument("--random", action="store_true", help="draw a generic weight")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=20)
    args = parser.parse_args()
    if bool(args.weight) == args.random:
        parser.error("give exactly one of --weight or --random")

    config = PipelineConfig(seed=args.seed, equivariance_trials=args.trials)
    rng = random.Random(config.seed)
    group = builtin(args.builtin)
    print(f"group {group.name}: order {group.order}, dimension {group.dimension}")

    invariants = find_fundamental_invariants(group)
    print(f"fundamental degrees: {tuple(invariants.degrees.degrees)}")
    harmonics = compute_harmonics(group, invariants)
    print(f"harmonic dimension: {harmonics.total_dimension}")

    if args.random:
        w = random_generic_weight(group, rng)
    else:
        w = parse_weight(group, args.weight)
    section = eigenspace_section(group, invariants, harmonics, w, config, rng)

    print(f"weight: ({', '.join(section['weight'])})")
    print(f"generic: {section['generic']}")
    print(f"distinct orbit points: {section['orbit_size_distinct']} of {group.order}")
    print(f"harmonic evaluation rank: {section['evaluation_rank']}")
    print(f"commutant dimension: {section['commutant_dim']}")
    print(f"eigen check on the orbit: {section['eigen_check']}")
    for entry in section["eigenvalues"]:
        print(f"  degree-{entry['degree']} eigenvalue: {entry['value']}")
    print(
        f"equivariance over {section['equivariance_trials']} random motions: "
        f"{section['equivariance']}"
    )
    print(f"dual orbit spans: {section['dual_cyclic']}")
    print(f"status: {section['status']}")
    return 0 if section["irreducible_certified"] else 1


if __name__ == "__main__":
    sys.exit(main())
