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
``main`` turns into the stderr line and the code.  Commands fill one summary
dict as they go; ``main`` writes it once, on every exit where it is not empty.
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
    MAX_INSTANCE_ENTRIES,
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


def _check_instance_size(what: str, entries: int) -> None:
    if entries > MAX_INSTANCE_ENTRIES:
        raise ValueError(f"instance too large: {what} needs {entries:.3g} dense entries per array, "
                         f"above the cap of {MAX_INSTANCE_ENTRIES:.3g}")


def build_problem(cfg: RunConfig):
    """Returns (problem, x0, reference-triple-or-None, exact-matrix-or-None).
    An instance above ``MAX_INSTANCE_ENTRIES`` is refused before any of its
    arrays is allocated."""
    mode, s = instance_settings(cfg)
    if cfg.family == "circle":
        return circle_problem(), sphere_point([1.0, 0.0]), circle_reference(), None
    if cfg.family == "sphere-l1":
        n = s["n"] if mode == "random" else s["matrix"].shape[0]
        _check_instance_size(f"sphere-l1 with n = {n}", n * n)
        if mode == "random":
            a = np.random.default_rng(s["seed"]).standard_normal((s["n"], s["n"]))
            p = sphere_l1_problem(a, s["mu"])
            return p, random_point(p.manifold, np.random.default_rng([s["seed"], 1])), None, None
        a = s["matrix"]
        x0 = sphere_point(np.ones(a.shape[0]) / math.sqrt(a.shape[0]))
        return sphere_l1_problem(a, s["mu"]), x0, None, None
    if mode == "random":
        _check_instance_size(f"rmc {s['m']} x {s['n']}", s["m"] * s["n"])
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


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_history_csv(path: Path, history) -> None:
    rows = ([_fmt(getattr(rec, name)) for name in HISTORY_COLUMNS.values()] for rec in history)
    _write_csv(path, HISTORY_COLUMNS, rows)


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
    rows = [["calmness", _fmt(rec.radius), i, _fmt(ratio), "", ""]
            for rec in calm.records for i, ratio in enumerate(rec.ratios)]
    rows += [["errorbound", "", i, "", _fmt(dist), _fmt(res)] for i, (dist, res) in enumerate(ebfit.samples)]
    _write_csv(path, ["record", "radius", "trial", "ratio", "dist", "residual"], rows)


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


def _solve(command: str, cfg: RunConfig, out: Path, summary: dict, conditions: bool = False):
    """Solve the instance ``cfg`` names, write history.csv, add the solve's
    entries to ``summary`` and return (problem, result).  With
    ``conditions``, an instance too large for the condition checks is
    refused before the solve; a partial solve stops ``command``."""
    p, x0, ref, a_exact = build_problem(cfg)
    if conditions:
        check_condition_size(p)
    t0 = time.perf_counter()
    res = alm_run(p, cfg.alm, x0, reference=ref)
    elapsed = time.perf_counter() - t0
    write_history_csv(out / "history.csv", res.history)
    comps = kkt_residual_components(p, res.x, res.y, res.z)
    summary.update({
        "family": p.label,
        "status": _status(res),
        "stop_reason": res.reason,
        "outer_iterations": len(res.history) - 1,
        "wall_time_seconds": elapsed,
        "max_kkt_residual": float(max(comps)),
        "sum_kkt_residual": float(sum(comps)),
        "objective": objective_value(p, res.x),
    })
    if a_exact is not None:
        summary["recovery_error"] = float(np.linalg.norm(res.x.ambient - a_exact))
        summary["m"], summary["n"] = a_exact.shape
        summary["r"] = p.manifold.r
    if not res.converged:
        raise _not_converged(command, res.reason)
    return p, res


def cmd_solve(command: str, cfg: RunConfig, out: Path, summary: dict) -> None:
    _solve(command, cfg, out, summary)
    if instance_settings(cfg)[0] == "basic5x5" and (
        summary["recovery_error"] > 1e-6 or summary["max_kkt_residual"] > 1e-7
    ):
        raise _Stop(EXIT_CHECK_FAILED, f"rmc basic5x5 check failed: recovery {summary['recovery_error']:.3e}, "
                                       f"max residual {summary['max_kkt_residual']:.3e}")


def cmd_figure1(command: str, cfg: RunConfig, out: Path, summary: dict) -> None:
    # figure1 takes no setting: cfg is the default, the circle
    p, x0, ref, _ = build_problem(cfg)
    results = [alm_run(p, figure1_config(rho), x0, reference=ref) for rho in FIGURE1_RHOS]

    header = ["k", *(f"{col}_rho{rho:g}" for rho in FIGURE1_RHOS for col in ("R", "dist"))]
    rows = []
    for k in range(max(len(r.history) for r in results)):
        row = [k]
        for res in results:
            rec = res.history[k] if k < len(res.history) else None
            row += [_fmt(rec.kkt_residual), _fmt(rec.dist_to_reference)] if rec else ["", ""]
        rows.append(row)
    _write_csv(out / "figure1.csv", header, rows)
    _write_figure1_gnuplot(out / "figure1.gp")

    fits = [fit_log_linear(figure1_tail(res.history)) for res in results]
    for rho, res, (slope, r2) in zip(FIGURE1_RHOS, results, fits):
        summary[f"rho{rho:g}_status"] = _status(res)
        summary[f"rho{rho:g}_slope"] = slope
        summary[f"rho{rho:g}_r2"] = r2
    slopes = [f[0] for f in fits]
    ordered = all(slopes[i + 1] < slopes[i] for i in range(len(slopes) - 1))
    summary["slopes_strictly_decreasing"] = ordered
    failed = [f"{res.reason} at rho {rho:g}" for rho, res in zip(FIGURE1_RHOS, results) if not res.converged]
    if failed:
        raise _not_converged(command, ", ".join(failed))
    if not ordered:
        raise _Stop(EXIT_CHECK_FAILED, f"{command}: fitted slopes are not strictly decreasing in rho")


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


def _polish_and_check(command: str, p, res, summary: dict, out: Path, tol: float):
    """Polish a converged solve to ``tol`` (past ``POLISHED_KKT_GATE``, exit 2),
    write conditions.txt, add ``polished_residual``, ``msrcq`` and ``msosc``
    to ``summary`` and return the polished triple."""
    trip = polish_kkt(p, res.x, res.y, res.z, tol=tol)
    summary["polished_residual"] = trip.residual
    if trip.residual > POLISHED_KKT_GATE:
        raise _Stop(EXIT_PARTIAL, f"{command}: polish failed: residual {trip.residual:.3e}")
    report = condition_report(p, trip.x, trip.y, trip.z)
    write_conditions(out / "conditions.txt", report)
    summary["msrcq"] = "pass" if report.msrcq.passed else "fail"
    summary["msosc"] = report.msosc.status
    report.msosc.raise_if_refused()  # once the files hold the M-SRCQ answer
    return trip


def cmd_sphere_l1(command: str, cfg: RunConfig, out: Path, summary: dict) -> None:
    p, res = _solve(command, cfg, out, summary, conditions=True)
    trip = _polish_and_check(command, p, res, summary, out, tol=1e-10)
    if instance_settings(cfg)[0] == "builtin5x5":
        x = trip.x.ambient
        sign = 1.0 if x[1] >= 0 else -1.0
        e2 = np.eye(x.size)[1]
        x_err = float(np.linalg.norm(np.abs(x) - e2))
        y_err = float(np.linalg.norm(trip.y - sign * p.theta.mu * e2))
        summary["x_abs_error"], summary["multiplier_error"] = x_err, y_err
        if x_err > 1e-6 or y_err > 1e-6 or summary["msrcq"] != "pass":
            raise _Stop(EXIT_CHECK_FAILED, f"sphere-l1 builtin5x5 check failed: x error {x_err:.3e}, "
                                           f"multiplier error {y_err:.3e}, msrcq {summary['msrcq']}")


def cmd_analyze(command: str, cfg: RunConfig, out: Path, summary: dict) -> None:
    p, res = _solve(command, cfg, out, summary, conditions=True)
    trip = _polish_and_check(command, p, res, summary, out, tol=1e-12)
    seed = cfg.seed if cfg.seed is not None else 0
    calm = calmness_probe(p, trip.x, trip.y, trip.z, seed=seed)
    summary["kappa_hat"], summary["kappa_bounded"] = calm.kappa_hat, calm.bounded
    ebfit = error_bound_fit(p, trip.x, trip.y, trip.z, seed=seed)
    summary["errorbound_c1"], summary["errorbound_c2"] = ebfit.c1, ebfit.c2
    write_probe_csv(out / "probe.csv", calm, ebfit)


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
NUMERIC_FLAGS = frozenset("--" + k.replace("_", "-") for k, t in {**PROBLEM_KEYS, **ALM_KEYS}.items() if t is not str)


def _attach_dashed_values(argv) -> list:
    """Join a numeric flag and a following value that starts with "-" into
    one ``--flag=value`` token.  argparse takes only plain negative numbers
    such as -1 or -0.5 as values and reads -inf, -nan or -1e3 as an option;
    joined, such a value reaches its setting's own check."""
    out = []
    for tok in argv:
        if out and out[-1] in NUMERIC_FLAGS and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


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
    summary = {}
    try:
        args = make_parser().parse_args(_attach_dashed_values(sys.argv[1:] if argv is None else argv))
        # figure1 takes no --config
        cfg = parse_problem_file(args.config) if getattr(args, "config", None) else RunConfig()
        cfg = apply_flag_overrides(cfg, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        try:
            COMMANDS[args.command][0](args.command, cfg, out, summary)
        finally:
            if summary:
                write_summary(out / "summary.txt", summary)
        return EXIT_OK
    except _Stop as stop:
        print(stop, file=sys.stderr)
        return stop.code
    except (ConfigError, OSError, ValueError, RankDeficiencyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
