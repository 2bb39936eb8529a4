#!/usr/bin/env python3
"""Robust matrix completion benchmark over a grid of sizes and seeds.

Each row reports size, rank, seed, outer iterations, summed inner steps,
summed inner trial points (rank-deficient retractions included), wall time,
the final maximum KKT residual, the recovery error, the ratio |X|_F /
|P_Omega A|_F of the solution to the observed data (a run whose iterates grow
far beyond the data shows a large ratio) and the stop reason.
"""
import sys
import time

import numpy as np

from ralm.cli import _Parser
from ralm.manifolds import RankDeficiencyError
from ralm.problems import generate_rmc_instance, rmc_problem, rmc_spectral_init
from ralm.solver import ALMConfig, alm_run, kkt_residual_components


def run_case(m, n, r, oversample, seed):
    a, mask, a_exact = generate_rmc_instance(m, n, r, oversample, seed)
    p = rmc_problem(a, mask, r)
    x0 = rmc_spectral_init(a, mask, r)
    t0 = time.perf_counter()
    res = alm_run(p, ALMConfig(max_outer=60), x0)
    elapsed = time.perf_counter() - t0
    return {
        "outer": len(res.history) - 1,
        "inner": sum(rec.inner_iters for rec in res.history),
        "trials": sum(rec.inner_trials for rec in res.history),
        "time": elapsed,
        "residual": max(kkt_residual_components(p, res.x, res.y, res.z)),
        "recovery": np.linalg.norm(res.x.ambient - a_exact),
        "size_ratio": np.linalg.norm(res.x.ambient) / np.linalg.norm(a[mask]),
        "reason": res.reason,
    }


def main() -> None:
    # a usage error raises ConfigError, a ValueError: one line and exit 1
    ap = _Parser(description=__doc__)
    ap.add_argument("--sizes", default="100,200", help="comma-separated square sizes")
    ap.add_argument("--rank", type=int, default=5)
    ap.add_argument("--oversample", type=float, default=3.0)
    ap.add_argument("--seeds", default="1,2,3")
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")

    print(f"{'m':>6} {'n':>6} {'r':>3} {'seed':>4} {'outer':>5} {'inner':>6} {'trials':>6} {'time(s)':>8} "
          f"{'max residual':>13} {'recovery':>10} {'|X|/|PA|':>9}  stop_reason")
    for size in sizes:
        for seed in seeds:
            row = run_case(size, size, args.rank, args.oversample, seed)
            print(
                f"{size:>6} {size:>6} {args.rank:>3} {seed:>4} {row['outer']:>5} {row['inner']:>6} {row['trials']:>6} "
                f"{row['time']:>8.2f} {row['residual']:>13.3e} {row['recovery']:>10.3e} "
                f"{row['size_ratio']:>9.3f}  {row['reason']}"
            )

if __name__ == "__main__":
    try:
        main()
    except (ValueError, RankDeficiencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
