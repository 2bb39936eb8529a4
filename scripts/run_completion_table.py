#!/usr/bin/env python3
"""Robust matrix completion benchmark over a grid of sizes and seeds.

Each row reports the same columns as the solver summary: size, rank, outer
iterations, wall time, final maximum KKT residual and recovery error.
"""
import sys
import time

import numpy as np

from ralm.cli import _Parser
from ralm.manifolds import RankDeficiencyError
from ralm.problems import RMC, build_family, generate_rmc_instance, rmc_spectral_init
from ralm.solver import ALMConfig, alm_run, kkt_residual_components


def run_case(m, n, r, oversample, seed):
    a, mask, a_exact = generate_rmc_instance(m, n, r, oversample, seed)
    p = build_family(RMC(a, mask, r))
    x0 = rmc_spectral_init(a, mask, r)
    t0 = time.perf_counter()
    res = alm_run(p, ALMConfig(max_outer=60), x0)
    elapsed = time.perf_counter() - t0
    max_res = max(kkt_residual_components(p, res.x, res.y, res.z))
    rec = np.linalg.norm(res.x.ambient - a_exact)
    return len(res.history) - 1, elapsed, max_res, rec, res.status.value


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

    print(f"{'m':>6} {'n':>6} {'r':>3} {'seed':>4} {'iters':>5} {'time(s)':>8} "
          f"{'max residual':>13} {'recovery':>10}  status")
    for size in sizes:
        for seed in seeds:
            iters, elapsed, max_res, rec, status = run_case(
                size, size, args.rank, args.oversample, seed
            )
            print(
                f"{size:>6} {size:>6} {args.rank:>3} {seed:>4} {iters:>5} "
                f"{elapsed:>8.2f} {max_res:>13.3e} {rec:>10.3e}  {status}"
            )


if __name__ == "__main__":
    try:
        main()
    except (ValueError, RankDeficiencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
