"""Command-line driver for the solver experiments and the analysis suite.

Subcommands: ``solve``, ``figure1``, ``sphere-l1``, ``rmc``, ``analyze``;
``rmc`` is ``solve`` with the family fixed.
All artifacts are UTF-8 comma-separated files with ``.`` decimal points,
written into the --out directory.

Exit codes: 0 success, 1 usage/config error, a rank-deficient instance, a
non-finite KKT residual, an allocation NumPy refuses or an analysis instance
above the size cap, 2 partial convergence or failed polish (one stderr line
says why), 3 a reproduction check failed (known-solution mismatch,
rate-ordering violation).  Exits 2 and 3 leave a command as ``_Stop``, which
``main`` turns into the stderr line and the code.
"""
from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import (
    POLISHED_KKT_GATE,
    calmness_probe,
    check_condition_size,
    condition_report,
    error_bound_fit,
    figure1_config,
    figure1_tail,
    fit_log_linear,
    polish_kkt,
)
from .config import (
    ALM_KEYS,
    FAMILIES,
    PROBLEM_KEYS,
    ConfigError,
    RunConfig,
    apply_flag_overrides,
    instance_settings,
    parse_problem_file,
)
from .manifolds import FixedRank, RankDeficiencyError, nearest_rank_r, random_point, sphere_point
from .problems import (
    circle_problem,
    circle_reference,
    generate_rmc_instance,
    objective_value,
    rmc_basic_instance,
    rmc_problem,
    rmc_spectral_init,
    sphere_l1_problem,
)
from .solver import alm_run, kkt_residual_components

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2
EXIT_CHECK_FAILED = 3

FIGURE1_RHOS = (1.0, 10.0, 100.0, 1000.0)


# ---------------------------------------------------------------------------
# problem builder


def build_problem(cfg: RunConfig):
    """Returns (problem, x0, reference-triple-or-None, exact-matrix-or-None)."""
    mode, s = instance_settings(cfg)
    if cfg.family == "circle":
        return circle_problem(), sphere_point([1.0, 0.0]), circle_reference(), None
    if cfg.family == "sphere-l1":
        if mode == "random":
            a = np.random.default_rng(s["seed"]).standard_normal((s["n"], s["n"]))
            p = sphere_l1_problem(a, s["mu"])
            return p, random_point(p.manifold, np.random.default_rng([s["seed"], 1])), None, None
        a = s["matrix"]
        x0 = sphere_point(np.ones(a.shape[0]) / math.sqrt(a.shape[0]))
        return sphere_l1_problem(a, s["mu"]), x0, None, None
    if mode == "random":
        a, mask, a_exact = generate_rmc_instance(s["m"], s["n"], s["r"], s["oversample"], s["seed"])
        x0, r = rmc_spectral_init(a, mask, s["r"]), s["r"]
    else:
        a, mask, a_exact = rmc_basic_instance()
        x0, r = nearest_rank_r(FixedRank(5, 5, 3), a), 3
    return rmc_problem(a, mask, r), x0, None, a_exact


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


# history.csv column -> the IterationRecord field it holds
HISTORY_COLUMNS = {
    "k": "k",
    "rho": "rho",
    "R": "kkt_residual",
    "V": "aux_v",
    "grad_norm": "inner_grad_norm",
    "inner_iters": "inner_iters",
    "eps_k": "inner_tol",
    "wall_time": "wall_time",
    "dist_to_ref": "dist_to_reference",
}


def write_history_csv(path: Path, history) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for rec in history:
            writer.writerow([_fmt(getattr(rec, name)) for name in HISTORY_COLUMNS.values()])


def write_summary(path: Path, entries: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in entries.items():
            fh.write(f"{key} = {_fmt(val) if isinstance(val, float) else val}\n")


def write_conditions(path: Path, report) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"kkt_residual = {report.kkt_residual:.6e}\n")
        rcq, sosc = report.msrcq, report.msosc
        fh.write(f"msrcq = {'pass' if rcq.passed else 'fail'} (rank {rcq.rank_found}/{rcq.rank_required}, "
                 f"{rcq.n_generators} generators)\n")
        found = f"min value {_fmt(sosc.min_value) or 'n/a'}, cone nullity {sosc.cone_nullity}"
        fh.write(f"msosc = {sosc.status} ({sosc.refusal or found})\n")
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


# ---------------------------------------------------------------------------
# commands


class _Stop(Exception):
    """Ends a command with exit ``code`` and ``message`` as its one stderr line."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _status(res) -> str:
    """The summary's status line, from whether the run converged."""
    return "converged" if res.converged else "partial-convergence"


def _not_converged(command: str, reason: str) -> _Stop:
    """Exit 2, saying why ``command`` stopped."""
    return _Stop(EXIT_PARTIAL, f"{command}: the solve did not converge (stop reason {reason})")


def _solve(command: str, cfg: RunConfig, out: Path, history: bool = True, conditions: bool = False):
    """Solve the instance ``cfg`` names and return (problem, result, summary
    entries), writing history.csv with ``history``.  With ``conditions``, an
    instance too large for the condition checks is refused before the solve;
    a partial solve writes the entries as the summary and stops ``command``."""
    p, x0, ref, a_exact = build_problem(cfg)
    if conditions:
        check_condition_size(p)
    t0 = time.perf_counter()
    res = alm_run(p, cfg.alm, x0, reference=ref)
    elapsed = time.perf_counter() - t0
    if history:
        write_history_csv(out / "history.csv", res.history)
    comps = kkt_residual_components(p, res.x, res.y, res.z)
    entries = {
        "family": p.label,
        "status": _status(res),
        "stop_reason": res.reason,
        "outer_iterations": len(res.history) - 1,
        "wall_time_seconds": elapsed,
        "max_kkt_residual": float(max(comps)),
        "sum_kkt_residual": float(sum(comps)),
        "objective": objective_value(p, res.x),
    }
    if a_exact is not None:
        entries["recovery_error"] = float(np.linalg.norm(res.x.ambient - a_exact))
        entries["m"], entries["n"] = a_exact.shape
        entries["r"] = p.manifold.r
    if not res.converged:
        write_summary(out / "summary.txt", entries)
        raise _not_converged(command, res.reason)
    return p, res, entries


def cmd_solve(command: str, cfg: RunConfig, out: Path) -> int:
    _, _, entries = _solve(command, cfg, out)
    write_summary(out / "summary.txt", entries)
    if instance_settings(cfg)[0] == "basic5x5" and (
        entries["recovery_error"] > 1e-6 or entries["max_kkt_residual"] > 1e-7
    ):
        raise _Stop(
            EXIT_CHECK_FAILED,
            f"rmc basic5x5 check failed: recovery {entries['recovery_error']:.3e}, "
            f"max residual {entries['max_kkt_residual']:.3e}",
        )
    return EXIT_OK


def cmd_figure1(command: str, cfg: RunConfig, out: Path) -> int:
    # figure1 takes no setting: cfg is the default, the circle
    p, x0, ref, _ = build_problem(cfg)
    results = [alm_run(p, figure1_config(rho), x0, reference=ref) for rho in FIGURE1_RHOS]

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
        entries[f"rho{rho:g}_status"] = _status(res)
        entries[f"rho{rho:g}_slope"] = slope
        entries[f"rho{rho:g}_r2"] = r2
    slopes = [f[0] for f in fits]
    ordered = all(slopes[i + 1] < slopes[i] for i in range(len(slopes) - 1))
    entries["slopes_strictly_decreasing"] = ordered
    write_summary(out / "summary.txt", entries)
    failed = [f"{res.reason} at rho {rho:g}" for rho, res in zip(FIGURE1_RHOS, results) if not res.converged]
    if failed:
        raise _not_converged(command, ", ".join(failed))
    if not ordered:
        raise _Stop(EXIT_CHECK_FAILED, f"{command}: fitted slopes are not strictly decreasing in rho")
    return EXIT_OK


def _write_figure1_gnuplot(path: Path) -> None:
    """Residual (figure1.csv column 2, 4, ...) and distance (3, 5, ...) plots."""
    lines = [
        "set datafile separator ','",
        "set logscale y",
        "set xlabel 'outer iteration k'",
        "set key top right",
        "set terminal pngcairo size 800,600",
    ]
    plots = (("residual", "KKT residual R", 2), ("distance", "distance to reference triple", 3))
    for name, ylabel, first_col in plots:
        curves = ", \\\n     ".join(
            f"'figure1.csv' using 1:{first_col + 2 * i} with linespoints title 'rho={rho:g}'"
            for i, rho in enumerate(FIGURE1_RHOS)
        )
        lines += [f"set output 'figure1_{name}.png'", f"set ylabel '{ylabel}'", "plot " + curves]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _polish_and_check(command: str, p, res, entries: dict, out: Path, tol: float):
    """Polish a converged solve to ``tol``, write conditions.txt and return
    (triple, report); past ``POLISHED_KKT_GATE``, write the solve ``entries``
    and ``polished_residual`` as the summary and stop ``command`` with exit 2."""
    trip = polish_kkt(p, res.x, res.y, res.z, tol=tol)
    if trip.residual > POLISHED_KKT_GATE:
        write_summary(out / "summary.txt", {**entries, "polished_residual": trip.residual})
        raise _Stop(EXIT_PARTIAL, f"{command}: polish failed: residual {trip.residual:.3e}")
    report = condition_report(p, trip.x, trip.y, trip.z)
    write_conditions(out / "conditions.txt", report)
    report.msosc.raise_if_refused()  # once the file holds the M-SRCQ answer
    return trip, report


def cmd_sphere_l1(command: str, cfg: RunConfig, out: Path) -> int:
    p, res, entries = _solve(command, cfg, out, conditions=True)
    trip, report = _polish_and_check(command, p, res, entries, out, tol=1e-10)
    entries["msrcq"] = "pass" if report.msrcq.passed else "fail"
    entries["msosc"] = report.msosc.status
    failure = None
    if instance_settings(cfg)[0] == "builtin5x5":
        x = trip.x.ambient
        sign = 1.0 if x[1] >= 0 else -1.0
        e2 = np.zeros(x.size)
        e2[1] = 1.0
        x_err = float(np.linalg.norm(np.abs(x) - e2))
        y_err = float(np.linalg.norm(trip.y - sign * p.theta.mu * e2))
        entries["x_abs_error"] = x_err
        entries["multiplier_error"] = y_err
        if x_err > 1e-6 or y_err > 1e-6 or not report.msrcq.passed:
            failure = (f"sphere-l1 builtin5x5 check failed: x error {x_err:.3e}, "
                       f"multiplier error {y_err:.3e}, msrcq {entries['msrcq']}")
    write_summary(out / "summary.txt", entries)
    if failure:
        raise _Stop(EXIT_CHECK_FAILED, failure)
    return EXIT_OK


def cmd_analyze(command: str, cfg: RunConfig, out: Path) -> int:
    p, res, entries = _solve(command, cfg, out, history=False, conditions=True)
    trip, report = _polish_and_check(command, p, res, entries, out, tol=1e-12)
    seed = cfg.seed if cfg.seed is not None else 0
    calm = calmness_probe(p, trip.x, trip.y, trip.z, seed=seed)
    ebfit = error_bound_fit(p, trip.x, trip.y, trip.z, seed=seed)
    write_probe_csv(out / "probe.csv", calm, ebfit)
    write_summary(out / "summary.txt", {
        **entries,
        "polished_residual": trip.residual,
        "msrcq": "pass" if report.msrcq.passed else "fail",
        "msosc": report.msosc.status,
        "kappa_hat": calm.kappa_hat,
        "kappa_bounded": calm.bounded,
        "errorbound_c1": ebfit.c1,
        "errorbound_c2": ebfit.c2,
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


# subcommand: (handler, help, the family it fixes: "*" for --family, None for
# a command that takes no setting)
COMMANDS = {
    "solve": (cmd_solve, "run the solver on a problem family", "*"),
    "figure1": (cmd_figure1, "fixed-penalty rate study on the circle instance", None),
    "sphere-l1": (cmd_sphere_l1, "l1-penalised quadratic on the sphere", "sphere-l1"),
    "rmc": (cmd_solve, "robust matrix completion on the fixed-rank manifold", "rmc"),
    "analyze": (cmd_analyze, "optimality conditions, calmness and error-bound probes", "*"),
}


FLAG_HELP = {"seed": "random seed", "gamma": "penalty growth factor (1 keeps the penalty fixed)"}


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1 with one line; subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: each parse
    returns a new namespace, so calls share no values."""
    parser = _Parser(
        prog="ralm",
        description="Augmented Lagrangian solver on matrix manifolds with a KKT analysis suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, family) in COMMANDS.items():
        # no prefix abbreviations: --r must not silently mean --rho0
        ps = sub.add_parser(name, help=help_text, allow_abbrev=False)
        ps.add_argument("--out", metavar="DIR", default="out", help="output directory (default ./out)")
        if family is None:
            continue
        ps.add_argument("--config", metavar="PATH", help="problem configuration file")
        if family == "*":  # solve and analyze: every [problem] key
            keys = PROBLEM_KEYS
        else:  # seed, mode and the keys the family's modes read
            read = {"seed", "mode"}.union(*FAMILIES[family].values())
            keys = [k for k in PROBLEM_KEYS if k in read]
            ps.set_defaults(family=family)
        for key, typ in {**{k: PROBLEM_KEYS[k] for k in keys}, **ALM_KEYS}.items():
            spec = dict(type=typ)
            if key == "family":
                spec["choices"] = tuple(FAMILIES)
            elif key == "mode" and family != "*":
                spec["choices"] = tuple(FAMILIES[family])
            flag = "--" + key.replace("_", "-")
            ps.add_argument(flag, default=None, help=FLAG_HELP.get(key), **spec)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        # figure1 takes no --config
        cfg = parse_problem_file(args.config) if getattr(args, "config", None) else RunConfig()
        cfg = apply_flag_overrides(cfg, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        handler = COMMANDS[args.command][0]
        return handler(args.command, cfg, out)
    except _Stop as stop:
        print(stop, file=sys.stderr)
        return stop.code
    except (ConfigError, OSError, ValueError, RankDeficiencyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
