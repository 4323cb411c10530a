#!/usr/bin/env python3
"""Sweep generator seeds and tabulate per-algorithm MAP stability.

Builds one synthetic database per seed, scores it with every algorithm
configuration and prints mean / min / max MAP(all) across seeds.  Useful
for checking that a tuned injection scenario is not a single-seed fluke.

Usage: python scripts/seed_sweep.py [N_SEEDS] [N_PATIENTS]
"""

import dataclasses
import statistics
import sys

from lodsig.cli import ALGORITHM_IDS, demo_synth_config, score_drug
from lodsig.evaluation import evaluate
from lodsig.synthgen import build_database, realized_truth


def main() -> int:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    n_patients = int(sys.argv[2]) if len(sys.argv) > 2 else 2000

    maps = {a: [] for a in ALGORITHM_IDS}
    for seed in range(n_seeds):
        config = dataclasses.replace(demo_synth_config(seed),
                                     n_patients=n_patients)
        db, _ = build_database(config)
        truth = realized_truth(db, config)
        for ranked in score_drug(db, "drug_x", ALGORITHM_IDS, seed):
            report = evaluate(ranked, truth)
            if report.map_all is not None:
                maps[ranked.algorithm].append(report.map_all)

    print(f"{'algorithm':<10} {'n':>3} {'mean':>7} {'min':>7} {'max':>7}")
    for algorithm_id in ALGORITHM_IDS:
        values = maps[algorithm_id]
        if not values:
            print(f"{algorithm_id:<10} {0:>3}")
            continue
        print(f"{algorithm_id:<10} {len(values):>3} "
              f"{statistics.mean(values):>7.3f} {min(values):>7.3f} "
              f"{max(values):>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
