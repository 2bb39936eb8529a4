"""Workload command sets and the checks on their answers.

Every command is an argument list for ``ralm.cli.main``.  A command fails
when its exit code is not 0 or one of its checks fails.  The reasons each
workload exists are in README.md next to this file.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# Instance seeds of rmc-200 and sphere-200: acceptance criterion 6 and the
# ROADMAP baselines are stated for them, and the pinned trace counts are for
# seed 1.  Per-instance solve time varies too much between seeds to let the
# benchmark seed pick the instances (see README.md).
INSTANCE_SEEDS = (1, 2, 3)

# criterion-6 bounds; the CLI does not check recovery in random mode
RMC_RECOVERY_TOL = 1e-5
RMC_BASIC_RECOVERY_TOL = 1e-6
KKT_TOL = 1e-7


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    check: Callable[[dict], list]
    # the documented way this command fails today, matched against its
    # conditions.txt; None when the command is expected to pass
    known_failure: Optional[str] = None


def read_summary(out: Path) -> dict:
    path = out / "summary.txt"
    if not path.exists():
        return {}
    pairs = (line.split(" = ", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {p[0]: p[1] for p in pairs if len(p) == 2}


def _expect(summary: dict, key: str, want: str) -> list:
    got = summary.get(key)
    return [] if got == want else [f"{key} = {got} (want {want})"]


def _at_most(summary: dict, key: str, bound: float) -> list:
    try:
        value = float(summary[key])
    except (KeyError, ValueError):
        return [f"{key} missing"]
    return [] if value <= bound else [f"{key} = {value:.3e} > {bound:.0e}"]


def check_rmc_random(s: dict) -> list:
    return _at_most(s, "recovery_error", RMC_RECOVERY_TOL) + _at_most(s, "max_kkt_residual", KKT_TOL)


def check_rmc_basic(s: dict) -> list:
    return _at_most(s, "recovery_error", RMC_BASIC_RECOVERY_TOL) + _at_most(s, "max_kkt_residual", KKT_TOL)


def check_msrcq(s: dict) -> list:
    return _expect(s, "msrcq", "pass")


def check_analyze(s: dict) -> list:
    return _expect(s, "msrcq", "pass") + _expect(s, "kappa_bounded", "True")


def check_figure1(s: dict) -> list:
    return _expect(s, "slopes_strictly_decreasing", "True")


def rmc_200() -> list:
    return [
        Command(
            f"rmc-200/seed{s}",
            ("rmc", "--mode", "random", "--m", "200", "--n", "200", "--r", "5",
             "--oversample", "3", "--max-outer", "60", "--seed", str(s)),
            check_rmc_random,
        )
        for s in INSTANCE_SEEDS
    ]


def sphere_200() -> list:
    return [
        Command(
            f"sphere-200/seed{s}",
            ("sphere-l1", "--mode", "random", "--n", "200", "--seed", str(s)),
            check_msrcq,
        )
        for s in INSTANCE_SEEDS
    ]


def small_analyze(seed: int) -> list:
    """The known-answer set.  Only the circle probe draws follow the seed:
    the other answers are known for their pinned instances only (the 5x5 RMC
    outlier draw, for one, keeps the ground truth optimal at seed 42 but not
    at most other seeds)."""
    return [
        Command("figure1", ("figure1",), check_figure1),
        Command(f"analyze-circle/seed{seed}", ("analyze", "--family", "circle", "--seed", str(seed)),
                check_analyze),
        Command("analyze-rmc-basic5x5", ("analyze", "--family", "rmc", "--mode", "basic5x5"),
                check_analyze),
        Command("sphere-l1-builtin5x5", ("sphere-l1", "--mode", "builtin5x5"), check_msrcq),
        Command("rmc-basic5x5", ("rmc", "--mode", "basic5x5"), check_rmc_basic),
        # MSRCQ counts the unobserved entries, which no tangent direction
        # reaches, so the check fails and the calmness probe refuses to run
        Command(
            "analyze-rmc-20/seed1",
            ("analyze", "--family", "rmc", "--mode", "random", "--m", "20", "--n", "20",
             "--r", "2", "--seed", "1"),
            check_analyze,
            known_failure="msrcq = fail (rank 83/400",
        ),
    ]


WORKLOADS = {
    "rmc-200": lambda seed: rmc_200(),
    "sphere-200": lambda seed: sphere_200(),
    "small-analyze": small_analyze,
}


def is_known_failure(cmd: Command, code, out: Path) -> bool:
    """Did the command fail exactly in its documented way (exit 1, known MSRCQ line)?"""
    if cmd.known_failure is None or code != 1:
        return False
    conditions = out / "conditions.txt"
    return conditions.exists() and cmd.known_failure in conditions.read_text(encoding="utf-8")


# files whose bytes are deterministic under a fixed seed and thread count
DIGEST_FILES = ("history.csv", "figure1.csv", "probe.csv", "conditions.txt")


def output_digest(out: Path) -> str:
    """SHA-256 (first 16 hex digits) of the command's iterate records.

    history.csv enters without its wall_time column, so a refactor that
    keeps the iterates keeps the digest.
    """
    h = hashlib.sha256()
    for name in DIGEST_FILES:
        path = out / name
        if not path.exists():
            continue
        text = path.read_text(encoding="utf-8")
        if name == "history.csv":
            rows = [line.split(",") for line in text.splitlines()]
            col = rows[0].index("wall_time")
            text = "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows)
        h.update(name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()[:16]


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())

