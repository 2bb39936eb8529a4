"""Command-line driver for the solver experiments and the analysis suite.

Subcommands: ``solve``, ``figure1``, ``sphere-l1``, ``rmc``, ``analyze``.
All artifacts are UTF-8 comma-separated files with ``.`` decimal points,
written into the --out directory.

Exit codes: 0 success, 1 usage/config error, a rank-deficient instance, a
non-finite KKT residual or an analysis instance above the size cap, 2 partial
convergence or failed polish, 3 a reproduction check failed (known-solution
mismatch, rate-ordering violation).
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import (
    calmness_probe,
    check_condition_size,
    condition_report,
    error_bound_fit,
    polish_kkt,
)
from .config import ConfigError, RunConfig, apply_flag_overrides, parse_problem_file
from .manifolds import (
    FixedRank,
    Point,
    RankDeficiencyError,
    nearest_rank_r,
    random_point,
    sphere_point,
)
from .problems import (
    RMC,
    SPHERE_L1_DEMO_A,
    CircleExample,
    SphereL1,
    build_family,
    objective_value,
)
from .solver import ALMConfig, alm_run, kkt_residual_components

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2
EXIT_CHECK_FAILED = 3

FIGURE1_RHOS = (1.0, 10.0, 100.0, 1000.0)


# ---------------------------------------------------------------------------
# problem builders


def circle_reference():
    s2 = math.sqrt(2.0) / 2.0
    return sphere_point([s2, s2]), np.array([s2]), np.array([0.0])


def build_circle_problem():
    p = build_family(CircleExample())
    x0 = sphere_point([1.0, 0.0])
    return p, x0, circle_reference()


def build_sphere_problem(cfg: RunConfig):
    mode = cfg.mode or "builtin5x5"
    if mode == "builtin5x5":
        a = cfg.matrix if cfg.matrix is not None else SPHERE_L1_DEMO_A
        p = build_family(SphereL1(a, mu=cfg.mu))
        n = a.shape[0]
        x0 = sphere_point(np.ones(n) / math.sqrt(n))
        return p, x0, None
    if mode == "random":
        seed = cfg.seed if cfg.seed is not None else 0
        rng = np.random.default_rng(seed)
        a = cfg.matrix if cfg.matrix is not None else rng.standard_normal((cfg.n, cfg.n))
        p = build_family(SphereL1(a, mu=cfg.mu))
        x0 = random_point(p.manifold, np.random.default_rng([seed, 1]))
        return p, x0, None
    raise ConfigError(f"unknown sphere-l1 mode {mode!r}")


def rmc_basic_instance(seed: int = 42):
    """The fixed 5x5 rank-3 instance with outliers in the lower-right block."""
    s2 = math.sqrt(2.0) / 2.0
    u = np.array(
        [[1, 0, 0], [0, -s2, s2], [0, s2, s2], [0, 0, 0], [0, 0, 0]], dtype=float
    )
    v = np.array(
        [[1, 0, 0], [0, 0.6, -0.8], [0, 0.8, 0.6], [0, 0, 0], [0, 0, 0]], dtype=float
    )
    s = np.diag([1.0, 2.0, 3.0])
    a_exact = u @ s @ v.T
    e_out = np.zeros((5, 5))
    # outliers live in the normal space of A_exact; scale 0.5 keeps A_exact the
    # global optimum
    e_out[3:, 3:] = 0.5 * np.random.default_rng(seed).standard_normal((2, 2))
    return a_exact + e_out, np.ones((5, 5), dtype=bool), a_exact


def generate_rmc_instance(m: int, n: int, r: int, oversample: float, seed: int):
    """Random low-rank ground truth, uniform mask, sparse exponential outliers.

    Sample size oversample*(m+n-r)*r; 3% of the samples carry exponential
    (mean 10) outliers.
    """
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((m, r))
    right = rng.standard_normal((n, r))
    a_exact = left @ right.T
    n_samp = int(oversample * (m + n - r) * r)
    if n_samp > m * n:
        raise ConfigError("oversample too large: more samples than entries")
    idx = rng.choice(m * n, size=n_samp, replace=False)
    mask = np.zeros(m * n, dtype=bool)
    mask[idx] = True
    mask = mask.reshape(m, n)
    n_out = int(round(0.03 * n_samp))
    out_pos = rng.choice(idx, size=n_out, replace=False)
    e_flat = np.zeros(m * n)
    e_flat[out_pos] = rng.exponential(10.0, size=n_out)
    a = np.where(mask, a_exact + e_flat.reshape(m, n), 0.0)
    return a, mask, a_exact


def rmc_spectral_init(a, mask, r) -> Point:
    """Winsorised spectral initialisation (heavy outliers are clipped first)."""
    vals = np.abs(a[mask])
    cap = 3.0 * float(np.quantile(vals, 0.75)) if vals.size else 1.0
    frac = mask.sum() / mask.size
    filled = np.where(mask, np.clip(a, -cap, cap), 0.0) / max(frac, 1e-12)
    return nearest_rank_r(FixedRank(a.shape[0], a.shape[1], r), filled)


def build_rmc_problem(cfg: RunConfig):
    mode = cfg.mode or "basic5x5"
    if mode == "basic5x5":
        seed = cfg.seed if cfg.seed is not None else 42
        a, mask, a_exact = rmc_basic_instance(seed)
        r = 3
        x0 = nearest_rank_r(FixedRank(5, 5, r), a)
    elif mode == "random":
        seed = cfg.seed if cfg.seed is not None else 1
        a, mask, a_exact = generate_rmc_instance(cfg.m, cfg.n, cfg.r, cfg.oversample, seed)
        r = cfg.r
        x0 = rmc_spectral_init(a, mask, r)
    else:
        raise ConfigError(f"unknown rmc mode {mode!r}")
    p = build_family(RMC(a, mask, r))
    return p, x0, a_exact


def build_problem(cfg: RunConfig):
    """Returns (problem, x0, reference-triple-or-None, exact-matrix-or-None)."""
    if cfg.family == "circle":
        p, x0, ref = build_circle_problem()
        return p, x0, ref, None
    if cfg.family == "sphere-l1":
        p, x0, _ = build_sphere_problem(cfg)
        return p, x0, None, None
    if cfg.family == "rmc":
        p, x0, a_exact = build_rmc_problem(cfg)
        return p, x0, None, a_exact
    raise ConfigError(f"unknown family {cfg.family!r}")


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return format(x, ".17g")
    return str(x)


HISTORY_COLUMNS = (
    "k",
    "rho",
    "R",
    "V",
    "grad_norm",
    "inner_iters",
    "eps_k",
    "wall_time",
    "dist_to_ref",
)


def write_history_csv(path: Path, history) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for rec in history:
            writer.writerow(
                [
                    rec.k,
                    _fmt(rec.rho),
                    _fmt(rec.kkt_residual),
                    _fmt(rec.aux_v),
                    _fmt(rec.inner_grad_norm),
                    rec.inner_iters,
                    _fmt(rec.eps_k),
                    _fmt(rec.wall_time),
                    _fmt(rec.dist_to_reference),
                ]
            )


def write_summary(path: Path, entries: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in entries.items():
            fh.write(f"{key} = {_fmt(val) if isinstance(val, float) else val}\n")


def write_conditions(path: Path, report) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"kkt_residual = {report.kkt_residual:.6e}\n")
        fh.write(
            "msrcq = {} (rank {}/{}, {} generators)\n".format(
                "pass" if report.msrcq.passed else "fail",
                report.msrcq.rank_found,
                report.msrcq.rank_required,
                report.msrcq.n_generators,
            )
        )
        fh.write(
            "msosc = {} (min value {}, {} samples, cone nullity {})\n".format(
                report.msosc.status,
                _fmt(report.msosc.min_value) or "n/a",
                report.msosc.samples_used,
                report.msosc.cone_nullity,
            )
        )
        fh.write(f"critical_cone_trivial = {report.critical_cone_trivial}\n")
        fh.write(f"tolerances = {report.tolerances}\n")


def write_probe_csv(path: Path, calm, ebfit) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record", "radius", "trial", "ratio", "dist", "residual"])
        for rec in calm.records:
            for i, ratio in enumerate(rec.ratios):
                writer.writerow(["calmness", _fmt(rec.radius), i, _fmt(ratio), "", ""])
        for i, (dist, res) in enumerate(ebfit.samples):
            writer.writerow(["errorbound", "", i, "", _fmt(dist), _fmt(res)])


def fit_log_linear(values):
    """Least-squares slope and R^2 of log10(values) against the index."""
    vals = [v for v in values if v > 0]
    if len(vals) < 2:
        return float("nan"), float("nan")
    ks = np.arange(len(vals), dtype=float)
    logs = np.log10(vals)
    slope, intercept = np.polyfit(ks, logs, 1)
    pred = slope * ks + intercept
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    if ss_tot == 0:
        return float(slope), 1.0
    r2 = 1.0 - float(np.sum((logs - pred) ** 2)) / ss_tot
    return float(slope), r2


def figure1_tail(history, max_len: int = 10):
    """Residual window for the rate fit: the last completed iterations
    strictly before the tolerance-reaching record (falls back to including
    it when fewer than 3 points remain)."""
    rs = [rec.kkt_residual for rec in history[1:]]
    pre = [r for r in rs[:-1] if r > 0][-max_len:]
    if len(pre) >= 3:
        return pre
    return [r for r in rs if r > 0][-max_len:]


def figure1_config(rho: float) -> ALMConfig:
    return ALMConfig(
        rho0=rho,
        fixed_rho=True,
        kkt_tol=1e-10,
        eps0=1e-3,
        eps_decay=0.25,
        eps_floor=1e-14,
        max_outer=500,
    )


# ---------------------------------------------------------------------------
# commands


def _ensure_out(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _summary_entries(p, cfg, res, elapsed, a_exact=None):
    comps = kkt_residual_components(p, res.x, res.y, res.z)
    entries = {
        "family": p.label,
        "status": res.status.value,
        "outer_iterations": len(res.history) - 1,
        "wall_time_seconds": elapsed,
        "max_kkt_residual": float(max(comps)),
        "sum_kkt_residual": float(sum(comps)),
        "objective": objective_value(p, res.x),
    }
    if a_exact is not None:
        entries["recovery_error"] = float(np.linalg.norm(res.x.ambient - a_exact))
    return entries


def cmd_solve(cfg: RunConfig) -> int:
    out = _ensure_out(cfg)
    p, x0, ref, a_exact = build_problem(cfg)
    t0 = time.perf_counter()
    res = alm_run(p, cfg.alm, x0, reference=ref)
    elapsed = time.perf_counter() - t0
    write_history_csv(out / "history.csv", res.history)
    write_summary(out / "summary.txt", _summary_entries(p, cfg, res, elapsed, a_exact))
    return EXIT_OK if res.converged else EXIT_PARTIAL


def cmd_figure1(cfg: RunConfig) -> int:
    out = _ensure_out(cfg)
    p, x0, ref = build_circle_problem()

    def run_one(rho):
        return alm_run(p, figure1_config(rho), x0, reference=ref)

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(run_one, FIGURE1_RHOS))
    else:
        results = [run_one(rho) for rho in FIGURE1_RHOS]

    header = ["k"]
    for rho in FIGURE1_RHOS:
        header += [f"R_rho{rho:g}", f"dist_rho{rho:g}"]
    n_rows = max(len(r.history) for r in results)
    with open(out / "figure1.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(n_rows):
            row = [k]
            for res in results:
                if k < len(res.history):
                    rec = res.history[k]
                    row += [_fmt(rec.kkt_residual), _fmt(rec.dist_to_reference)]
                else:
                    row += ["", ""]
            writer.writerow(row)
    _write_figure1_gnuplot(out / "figure1.gp")

    fits = [fit_log_linear(figure1_tail(res.history)) for res in results]
    entries = {}
    for rho, res, (slope, r2) in zip(FIGURE1_RHOS, results, fits):
        entries[f"rho{rho:g}_status"] = res.status.value
        entries[f"rho{rho:g}_slope"] = slope
        entries[f"rho{rho:g}_r2"] = r2
    slopes = [f[0] for f in fits]
    ordered = all(slopes[i + 1] < slopes[i] for i in range(len(slopes) - 1))
    entries["slopes_strictly_decreasing"] = ordered
    write_summary(out / "summary.txt", entries)
    if not all(res.converged for res in results):
        return EXIT_PARTIAL
    if not ordered:
        print("figure1: fitted slopes are not strictly decreasing in rho", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _write_figure1_gnuplot(path: Path) -> None:
    lines = [
        "set datafile separator ','",
        "set logscale y",
        "set xlabel 'outer iteration k'",
        "set key top right",
        "set terminal pngcairo size 800,600",
        "set output 'figure1_residual.png'",
        "set ylabel 'KKT residual R'",
        "plot 'figure1.csv' using 1:2 with linespoints title 'rho=1', \\",
        "     'figure1.csv' using 1:4 with linespoints title 'rho=10', \\",
        "     'figure1.csv' using 1:6 with linespoints title 'rho=100', \\",
        "     'figure1.csv' using 1:8 with linespoints title 'rho=1000'",
        "set output 'figure1_distance.png'",
        "set ylabel 'distance to reference triple'",
        "plot 'figure1.csv' using 1:3 with linespoints title 'rho=1', \\",
        "     'figure1.csv' using 1:5 with linespoints title 'rho=10', \\",
        "     'figure1.csv' using 1:7 with linespoints title 'rho=100', \\",
        "     'figure1.csv' using 1:9 with linespoints title 'rho=1000'",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_sphere_l1(cfg: RunConfig) -> int:
    out = _ensure_out(cfg)
    mode = cfg.mode or "builtin5x5"
    cfg.mode = mode
    p, x0, _ = build_sphere_problem(cfg)
    check_condition_size(p)  # the condition report follows the solve
    t0 = time.perf_counter()
    res = alm_run(p, cfg.alm, x0)
    elapsed = time.perf_counter() - t0
    write_history_csv(out / "history.csv", res.history)
    if not res.converged:
        write_summary(out / "summary.txt", _summary_entries(p, cfg, res, elapsed))
        return EXIT_PARTIAL
    trip = polish_kkt(p, res.x, res.y, res.z, tol=1e-10)
    report = condition_report(p, trip.x, trip.y, trip.z)
    write_conditions(out / "conditions.txt", report)
    entries = _summary_entries(p, cfg, res, elapsed)
    entries["msrcq"] = "pass" if report.msrcq.passed else "fail"
    entries["msosc"] = report.msosc.status

    code = EXIT_OK
    if mode == "builtin5x5":
        x = trip.x.ambient
        sign = 1.0 if x[1] >= 0 else -1.0
        e2 = np.zeros(x.size)
        e2[1] = 1.0
        x_err = float(np.linalg.norm(np.abs(x) - e2))
        y_err = float(np.linalg.norm(trip.y - sign * p.theta.mu * e2))
        entries["x_abs_error"] = x_err
        entries["multiplier_error"] = y_err
        if x_err > 1e-6 or y_err > 1e-6 or not report.msrcq.passed:
            code = EXIT_CHECK_FAILED
    write_summary(out / "summary.txt", entries)
    return code


def cmd_rmc(cfg: RunConfig) -> int:
    out = _ensure_out(cfg)
    mode = cfg.mode or "basic5x5"
    cfg.mode = mode
    p, x0, a_exact = build_rmc_problem(cfg)
    t0 = time.perf_counter()
    res = alm_run(p, cfg.alm, x0)
    elapsed = time.perf_counter() - t0
    write_history_csv(out / "history.csv", res.history)
    entries = _summary_entries(p, cfg, res, elapsed, a_exact)
    m, n = a_exact.shape
    entries["m"] = m
    entries["n"] = n
    entries["r"] = p.manifold.r
    write_summary(out / "summary.txt", entries)
    if not res.converged:
        return EXIT_PARTIAL
    if mode == "basic5x5":
        if entries["recovery_error"] > 1e-6 or entries["max_kkt_residual"] > 1e-7:
            print(
                f"rmc basic5x5 check failed: recovery {entries['recovery_error']:.3e}, "
                f"max residual {entries['max_kkt_residual']:.3e}",
                file=sys.stderr,
            )
            return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_analyze(cfg: RunConfig) -> int:
    out = _ensure_out(cfg)
    p, x0, ref, a_exact = build_problem(cfg)
    check_condition_size(p)  # refuse before the solve, not after it
    res = alm_run(p, cfg.alm, x0)
    if not res.converged:
        return EXIT_PARTIAL
    trip = polish_kkt(p, res.x, res.y, res.z, tol=1e-12)
    if trip.residual > 1e-9:
        print(f"polish failed: residual {trip.residual:.3e}", file=sys.stderr)
        return EXIT_PARTIAL
    report = condition_report(p, trip.x, trip.y, trip.z)
    write_conditions(out / "conditions.txt", report)
    seed = cfg.seed if cfg.seed is not None else 0
    calm = calmness_probe(
        p,
        trip.x,
        trip.y,
        trip.z,
        radii=(1e-2, 1e-3, 1e-4, 1e-5),
        trials_per_radius=20,
        seed=seed,
        jobs=cfg.jobs,
    )
    ebfit = error_bound_fit(p, trip.x, trip.y, trip.z, n_samples=500, radius=0.05, seed=seed)
    write_probe_csv(out / "probe.csv", calm, ebfit)
    summary = {
        "family": p.label,
        "polished_residual": trip.residual,
        "msrcq": "pass" if report.msrcq.passed else "fail",
        "msosc": report.msosc.status,
        "kappa_hat": calm.kappa_hat,
        "kappa_bounded": calm.bounded,
        "errorbound_c1": ebfit.c1,
        "errorbound_c2": ebfit.c2,
    }
    write_summary(out / "summary.txt", summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="problem configuration file")
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument("--out", metavar="DIR", default=None, help="output directory (default ./out)")
    parser.add_argument("--jobs", type=int, default=None, help="worker threads for sub-runs")
    parser.add_argument(
        "--fixed-rho", action="store_true", help="disable penalty growth (tau = 1 semantics)"
    )
    parser.add_argument("--rho0", type=float, default=None)
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--tau", type=float, default=None)
    parser.add_argument("--eps0", type=float, default=None)
    parser.add_argument("--eps-decay", dest="eps_decay", type=float, default=None)
    parser.add_argument("--kkt-tol", dest="kkt_tol", type=float, default=None)
    parser.add_argument("--max-outer", dest="max_outer", type=int, default=None)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ralm",
        description="Augmented Lagrangian solver on matrix manifolds with a KKT analysis suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the solver on a problem family")
    ps.add_argument("--family", choices=("circle", "sphere-l1", "rmc"), default=None)
    ps.add_argument("--mode", default=None)
    ps.add_argument("--n", type=int, default=None)
    ps.add_argument("--m", type=int, default=None)
    ps.add_argument("--r", type=int, default=None)
    ps.add_argument("--mu", type=float, default=None)
    ps.add_argument("--oversample", type=float, default=None)
    _add_common(ps)

    pf = sub.add_parser("figure1", help="fixed-penalty rate study on the circle instance")
    _add_common(pf)

    pl = sub.add_parser("sphere-l1", help="l1-penalised quadratic on the sphere")
    pl.add_argument("--mode", choices=("builtin5x5", "random"), default=None)
    pl.add_argument("--n", type=int, default=None)
    pl.add_argument("--mu", type=float, default=None)
    _add_common(pl)

    pr = sub.add_parser("rmc", help="robust matrix completion on the fixed-rank manifold")
    pr.add_argument("--mode", choices=("basic5x5", "random"), default=None)
    pr.add_argument("--m", type=int, default=None)
    pr.add_argument("--n", type=int, default=None)
    pr.add_argument("--r", type=int, default=None)
    pr.add_argument("--oversample", type=float, default=None)
    _add_common(pr)

    pa = sub.add_parser("analyze", help="optimality conditions, calmness and error-bound probes")
    pa.add_argument("--family", choices=("circle", "sphere-l1", "rmc"), default=None)
    pa.add_argument("--mode", default=None)
    pa.add_argument("--n", type=int, default=None)
    pa.add_argument("--m", type=int, default=None)
    pa.add_argument("--r", type=int, default=None)
    pa.add_argument("--mu", type=float, default=None)
    pa.add_argument("--oversample", type=float, default=None)
    _add_common(pa)
    return parser


def _load_config(args) -> RunConfig:
    cfg = parse_problem_file(args.config) if getattr(args, "config", None) else RunConfig()
    return apply_flag_overrides(cfg, args)


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "figure1":
            return cmd_figure1(cfg)
        if args.command == "sphere-l1":
            cfg.family = "sphere-l1"
            return cmd_sphere_l1(cfg)
        if args.command == "rmc":
            cfg.family = "rmc"
            return cmd_rmc(cfg)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        parser.error(f"unknown command {args.command}")
    except (ConfigError, FileNotFoundError, ValueError, RankDeficiencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
