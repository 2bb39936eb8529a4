"""What a run is configured by, and the line-oriented files that set it.

Three tables declare every run setting once: ``PROBLEM_KEYS`` (the
``[problem]`` keys and their types, from ``RunConfig``'s type hints),
``ALM_KEYS`` (the ``[alm]`` keys, from ``ALMConfig``'s) and ``FAMILIES``
(each family's modes and the settings each mode's instance reads, with their
defaults).  The config file, the command-line flags of ``ralm.cli`` and the
instances all derive from them.

Format: ``[section]`` headers followed by ``key=value`` lines; the optional
``[matrix]`` section holds whitespace-separated matrix rows, one row per
line.  Unknown sections and keys warn (stderr) once and are skipped;
unparseable values, and the row that takes the matrix above
``MAX_INSTANCE_ENTRIES``, raise ``ConfigError`` carrying the line number.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional, get_args, get_type_hints

import numpy as np

from .problems import SPHERE_L1_DEMO_A
from .solver import ALMConfig


class ConfigError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass
class RunConfig:
    # None is "not set": the instance's default from FAMILIES applies
    family: str = "circle"
    n: Optional[int] = None
    m: Optional[int] = None
    r: Optional[int] = None
    mu: Optional[float] = None
    seed: Optional[int] = None
    oversample: Optional[float] = None
    mode: Optional[str] = None
    alm: ALMConfig = field(default_factory=ALMConfig)
    matrix: Optional[np.ndarray] = None


def _scalar_fields(cls) -> dict:
    """{name: type} of the int, float and str fields of a dataclass, with
    Optional unwrapped: the keys of its config-file section."""
    keys = {}
    for name, typ in get_type_hints(cls).items():
        typ = next((t for t in get_args(typ) if t is not type(None)), typ)
        if typ in (int, float, str):
            keys[name] = typ
    return keys


# Dense entries one instance array may hold (RMC's m x n data, the sphere's
# n x n A^T A, a [matrix] section as it is read); RMC at 2000 x 2000 needs 4e6.
MAX_INSTANCE_ENTRIES = 25 * 10**6

# RunConfig's alm and matrix fields are the [alm] and [matrix] sections
PROBLEM_KEYS = _scalar_fields(RunConfig)
ALM_KEYS = _scalar_fields(ALMConfig)
# The [problem] keys every instance takes: family and mode name it, and seed
# is taken even where the instance draws nothing from it (analyze draws its
# probe from it).
EVERY_INSTANCE_TAKES = {"family", "mode", "seed"}


# family -> mode (the first is the default) -> the settings its instance reads,
# with their defaults ("matrix" is the [matrix] section).
FAMILIES = {
    "circle": {None: {}},
    "sphere-l1": {"builtin5x5": {"mu": 0.25, "matrix": SPHERE_L1_DEMO_A},
                  "random": {"n": 20, "mu": 0.25, "seed": 0}},
    "rmc": {"basic5x5": {},
            "random": {"m": 200, "n": 20, "r": 5, "oversample": 3.0, "seed": 1}},
}


def instance_settings(cfg: RunConfig):
    """(mode, {setting: value}) of the instance ``cfg`` names, defaults filled
    in; a setting the instance does not read raises ConfigError."""
    modes = FAMILIES[cfg.family]
    mode = cfg.mode or next(iter(modes))
    if mode not in modes:
        raise ConfigError(f"unknown {cfg.family} mode {mode!r}")
    reads, where = modes[mode], f"{cfg.family} mode {mode}" if mode else cfg.family
    for key in (*PROBLEM_KEYS, "matrix"):
        if key not in reads and key not in EVERY_INSTANCE_TAKES and getattr(cfg, key) is not None:
            what = "a [matrix] section" if key == "matrix" else f"the setting {key}"
            raise ConfigError(f"{where} does not read {what}")
    return mode, {k: v if getattr(cfg, k) is None else getattr(cfg, k) for k, v in reads.items()}


def _parse_scalar(raw: str, typ, lineno: int):
    raw = raw.strip()
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {raw!r} as {typ.__name__}", lineno) from exc


def parse_problem_file(path: str) -> RunConfig:
    """Parse a config file into a RunConfig (defaults fill missing keys)."""
    cfg = RunConfig()
    matrix_rows: list[list[float]] = []
    section = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in ("problem", "alm", "matrix"):
                    print(f"warning: unknown section [{section}]", file=sys.stderr)
                continue
            if section == "matrix":
                try:
                    row = [float(tok) for tok in line.split()]
                except ValueError as exc:
                    raise ConfigError(f"bad matrix row {line!r}", lineno) from exc
                if not np.isfinite(row).all():
                    raise ConfigError(f"non-finite entry in matrix row {line!r}", lineno)
                matrix_rows.append(row)
                if len(matrix_rows) * len(row) > MAX_INSTANCE_ENTRIES:
                    raise ConfigError(f"instance too large: the [matrix] section holds more than "
                                      f"{MAX_INSTANCE_ENTRIES:.3g} entries", lineno)
                continue
            if section not in (None, "problem", "alm"):
                continue  # under an unknown section, warned about above
            if "=" not in line:
                raise ConfigError(f"expected key=value, got {line!r}", lineno)
            key, _, raw_val = line.partition("=")
            key = key.strip().lower()
            if section is None:
                raise ConfigError(f"key {key!r} outside any section", lineno)
            target, types = (cfg, PROBLEM_KEYS) if section == "problem" else (cfg.alm, ALM_KEYS)
            if key not in types:
                print(f"warning: unknown key {key!r} in [{section}]", file=sys.stderr)
                continue
            setattr(target, key, _parse_scalar(raw_val, types[key], lineno))
    if matrix_rows:
        widths = {len(row) for row in matrix_rows}
        if len(widths) != 1:
            raise ConfigError("matrix rows have inconsistent lengths")
        cfg.matrix = np.asarray(matrix_rows, dtype=float)
    if cfg.family not in FAMILIES:
        raise ConfigError(f"unknown family {cfg.family!r}; expected one of {tuple(FAMILIES)}")
    try:
        cfg.alm.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def apply_flag_overrides(cfg: RunConfig, args) -> RunConfig:
    """Command-line flags win over config-file values; an unset flag is None."""
    for keys, target in ((PROBLEM_KEYS, cfg), (ALM_KEYS, cfg.alm)):
        for name in keys:
            val = getattr(args, name, None)
            if val is not None:
                setattr(target, name, val)
    for name, low in (("n", 1), ("m", 1), ("r", 1), ("seed", 0)):
        val = getattr(cfg, name)
        if val is not None and val < low:
            raise ConfigError(f"{name} must be >= {low}, got {val}")
    cfg.alm.validate()
    return cfg
