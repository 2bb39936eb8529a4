import csv
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ralm.analysis
import ralm.cli
from ralm.analysis import MAX_RAY_ROWS, condition_report, fit_log_linear
from ralm.cli import (
    EXIT_CHECK_FAILED,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_PARTIAL,
    main,
    make_parser,
    write_conditions,
)
from ralm.config import (
    PROBLEM_KEYS,
    ConfigError,
    RunConfig,
    apply_flag_overrides,
    parse_problem_file,
)
from ralm.problems import rmc_basic_instance
from ralm.solver import ALMConfig

from helpers import ray_cone_instance

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, timeout=60):
    """Run a fresh interpreter from the repository root with src on its path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def strip_wall_time(rows):
    header = rows[0]
    idx = header.index("wall_time")
    return [[c for i, c in enumerate(row) if i != idx] for row in rows]


FIGURE1_GP = """\
set datafile separator ','
set logscale y
set xlabel 'outer iteration k'
set key top right
set terminal pngcairo size 800,600
set output 'figure1_residual.png'
set ylabel 'KKT residual R'
plot 'figure1.csv' using 1:2 with linespoints title 'rho=1', \\
     'figure1.csv' using 1:4 with linespoints title 'rho=10', \\
     'figure1.csv' using 1:6 with linespoints title 'rho=100', \\
     'figure1.csv' using 1:8 with linespoints title 'rho=1000'
set output 'figure1_distance.png'
set ylabel 'distance to reference triple'
plot 'figure1.csv' using 1:3 with linespoints title 'rho=1', \\
     'figure1.csv' using 1:5 with linespoints title 'rho=10', \\
     'figure1.csv' using 1:7 with linespoints title 'rho=100', \\
     'figure1.csv' using 1:9 with linespoints title 'rho=1000'
"""

# a raw value for every [alm] key and every [problem] key, with the value and
# type it must land as
ALM_VALUES = {
    "rho0": ("2.5", 2.5),
    "gamma": ("5", 5.0),
    "eps0": ("0.1", 0.1),
    "kkt_tol": ("1e-8", 1e-8),
    "max_outer": ("17", 17),
}
PROBLEM_VALUES = {
    "family": ("rmc", "rmc"),
    "n": ("7", 7),
    "m": ("9", 9),
    "r": ("2", 2),
    "mu": ("0.5", 0.5),
    "seed": ("4", 4),
    "oversample": ("2.5", 2.5),
    "mode": ("random", "random"),
}
# the exact flags each command's --help lists (besides --help): figure1 reads
# no setting, a family command takes seed, mode and the keys its modes read
ALM_FLAGS = {"--rho0", "--gamma", "--eps0", "--kkt-tol", "--max-outer"}
ANY_FAMILY_FLAGS = {"--config", "--out", "--family", "--n", "--m", "--r", "--mu", "--seed",
                    "--oversample", "--mode", *ALM_FLAGS}
COMMAND_FLAGS = {
    "solve": ANY_FAMILY_FLAGS,
    "figure1": {"--out"},
    "sphere-l1": {"--config", "--out", "--seed", "--mode", "--n", "--mu", *ALM_FLAGS},
    "rmc": {"--config", "--out", "--seed", "--mode", "--m", "--n", "--r", "--oversample", *ALM_FLAGS},
    "analyze": ANY_FAMILY_FLAGS,
}


def as_flags(values):
    """Command-line spelling of {key: (raw, _)}."""
    return [arg for key, (raw, _) in values.items() for arg in ("--" + key.replace("_", "-"), raw)]


@pytest.fixture
def alm_configs(monkeypatch):
    """The ALMConfig of every solve the CLI starts, in order."""
    seen = []
    real = ralm.cli.alm_run

    def recording(p, alm, *args, **kwargs):
        seen.append(alm)
        return real(p, alm, *args, **kwargs)

    monkeypatch.setattr(ralm.cli, "alm_run", recording)
    return seen


# every file each subcommand writes into --out on a successful default run
WRITTEN_FILES = {
    "solve": ["history.csv", "summary.txt"],
    "figure1": ["figure1.csv", "figure1.gp", "summary.txt"],
    "sphere-l1": ["conditions.txt", "history.csv", "summary.txt"],
    "rmc": ["history.csv", "summary.txt"],
    "analyze": ["conditions.txt", "probe.csv", "summary.txt"],
}


class TestCommandOutputs:
    @pytest.mark.parametrize("command", list(WRITTEN_FILES))
    def test_command_writes_exactly_its_files(self, tmp_path, command):
        out = tmp_path / "o"
        assert main([command, "--out", str(out)]) == EXIT_OK
        assert sorted(f.name for f in out.iterdir()) == WRITTEN_FILES[command]

    def test_figure1_gnuplot_script_bytes(self, tmp_path):
        assert main(["figure1", "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "figure1.gp").read_bytes() == FIGURE1_GP.encode("utf-8")

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--bogus", "1"],
            ["rmc", "--mode", "xyz"],
            ["solve", "--n", "abc"],
            ["solve", "--jobs", "2"],
            ["analyze", "--fixed-rho"],
            ["rmc", "--max", "4"],
            ["solve", "--tau", "0.5"],
            ["figure1", "--out", "{tmp}/file"],
            ["figure1", "--out", "{tmp}/file/sub"],
            ["solve", "--config", "{tmp}"],
        ],
        ids=["unknown-flag", "bad-choice", "bad-int", "removed-jobs", "removed-fixed-rho",
             "prefix-of-a-flag", "removed-tau", "out-is-a-file", "out-under-a-file",
             "config-is-a-directory"],
    )
    def test_usage_error_exits_one_line(self, tmp_path, capsys, argv):
        (tmp_path / "file").write_text("")
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "o")]
        code = main(argv)
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["rmc", "--mode", "random"], ["sphere-l1", "--mode", "random"]],
                             ids=["rmc", "sphere-l1"])
    def test_refused_allocation_exits_one_line(self, tmp_path, capsys, monkeypatch, argv):
        def refuse(cfg):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)")

        monkeypatch.setattr(ralm.cli, "build_problem", refuse)
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)\n"

    @pytest.mark.parametrize("argv", [["solve", "--family", "circle"], ["sphere-l1"], ["rmc"]],
                             ids=["solve", "sphere-l1", "rmc"])
    def test_partial_run_says_why_on_stderr(self, tmp_path, capsys, argv):
        code = main(argv + ["--max-outer", "1", "--out", str(tmp_path / "o")])
        assert code == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert err == f"{argv[0]}: the solve did not converge (stop reason max_outer)\n"

    @pytest.mark.parametrize("command", list(WRITTEN_FILES))
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out)) - {"--help"}
        assert flags == COMMAND_FLAGS[command]

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["sphere-l1", "--mode", "random", "--n", "-2"], "n"),
            (["rmc", "--mode", "random", "--m", "-3", "--n", "10", "--r", "2"], "m"),
            (["rmc", "--mode", "random", "--m", "10", "--n", "10", "--r", "-1"], "r"),
        ],
        ids=["sphere-l1-n", "rmc-m", "rmc-r"],
    )
    def test_dimension_below_one_names_its_field(self, tmp_path, capsys, argv, field):
        code = main(argv + ["--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be >= 1") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sphere-l1", "--mode", "random", "--n", "5", "--seed", "-1"],
            ["rmc", "--mode", "random", "--m", "20", "--n", "20", "--r", "2", "--seed", "-1"],
            ["analyze", "--family", "circle", "--seed", "-2"],
        ],
        ids=["sphere-l1", "rmc", "analyze"],
    )
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, argv):
        code = main(argv + ["--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: seed must be >= 0, got {argv[-1]}") and err.count("\n") == 1
        assert "Traceback" not in err


class TestSolveCommand:
    def test_circle_converges_with_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--family", "circle", "--rho0", "10", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out / "history.csv")
        assert rows[0] == [
            "k",
            "rho",
            "R",
            "V",
            "grad_norm",
            "inner_iters",
            "eps_k",
            "wall_time",
            "dist_to_ref",
        ]
        ks = [int(r[0]) for r in rows[1:]]
        assert ks == sorted(ks) and len(set(ks)) == len(ks)
        assert all(float(r[2]) >= 0 for r in rows[1:])
        summary = (out / "summary.txt").read_text()
        assert "status = converged" in summary
        assert "stop_reason = converged" in summary

    def test_max_outer_one_says_why_it_stopped(self, tmp_path):
        out = tmp_path / "o"
        code = main(["solve", "--family", "circle", "--max-outer", "1", "--out", str(out)])
        assert code == EXIT_PARTIAL
        summary = (out / "summary.txt").read_text()
        assert "status = partial-convergence" in summary
        assert "stop_reason = max_outer" in summary

    def test_unit_gamma_keeps_the_penalty_fixed(self, tmp_path):
        out = tmp_path / "o"
        assert main(["solve", "--family", "circle", "--gamma", "1", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "history.csv")
        assert len(rows) > 2 and all(float(row[1]) == 1.0 for row in rows[1:])

    def test_max_outer_zero_exits_partial(self, tmp_path):
        code = main(
            ["solve", "--family", "circle", "--max-outer", "0", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_PARTIAL

    def test_missing_config_exits_error(self, tmp_path):
        code = main(["solve", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == EXIT_ERROR

    def test_reproducible_outputs(self, tmp_path):
        cfg = tmp_path / "circle.cfg"
        cfg.write_text("[problem]\nfamily=circle\nseed=3\n[alm]\nrho0=10\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        # byte-identical up to the hardware-dependent wall-time column
        assert strip_wall_time(read_csv(out1 / "history.csv")) == strip_wall_time(
            read_csv(out2 / "history.csv")
        )

    @pytest.mark.parametrize("mode", ["xyz", "random"])
    def test_circle_rejects_any_mode(self, tmp_path, capsys, mode):
        code = main(["solve", "--family", "circle", "--mode", mode, "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: unknown circle mode {mode!r}\n"

    def test_sphere_random_family(self, tmp_path):
        code = main(
            [
                "solve",
                "--family",
                "sphere-l1",
                "--mode",
                "random",
                "--n",
                "8",
                "--seed",
                "5",
                "--out",
                str(tmp_path / "s"),
            ]
        )
        assert code == EXIT_OK


class TestFlagTable:
    @pytest.mark.parametrize("command", ["solve", "analyze"])
    def test_every_setting_is_a_flag_that_lands_with_its_type(self, command):
        assert set(PROBLEM_VALUES) == set(PROBLEM_KEYS)
        args = make_parser().parse_args([command, *as_flags({**PROBLEM_VALUES, **ALM_VALUES})])
        cfg = apply_flag_overrides(RunConfig(), args)
        for values, target in ((PROBLEM_VALUES, cfg), (ALM_VALUES, cfg.alm)):
            for key, (_, want) in values.items():
                got = getattr(target, key)
                assert got == want and type(got) is type(want), key

    @pytest.mark.parametrize(
        "command, key",
        [(c, k) for c in ("figure1", "sphere-l1", "rmc") for k in PROBLEM_VALUES],
    )
    def test_family_command_takes_seed_and_its_own_keys(self, tmp_path, capsys, command, key):
        raw, want = PROBLEM_VALUES[key]
        argv = [command, "--" + key, raw, "--out", str(tmp_path / "o")]
        if "--" + key not in COMMAND_FLAGS[command]:
            assert main(argv) == EXIT_ERROR
            err = capsys.readouterr().err
            assert err.startswith("error: unrecognized arguments") and err.count("\n") == 1
            return
        cfg = apply_flag_overrides(RunConfig(), make_parser().parse_args(argv))
        assert getattr(cfg, key) == want
        assert cfg.family == command

    def test_file_unit_gamma_survives_a_run_without_the_flag(self, tmp_path, alm_configs):
        f = tmp_path / "fixed.cfg"
        f.write_text("[problem]\nfamily=circle\n[alm]\ngamma=1\n")
        assert main(["solve", "--config", str(f), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert [alm.gamma for alm in alm_configs] == [1.0]

    def test_one_parser_carries_no_values_between_calls(self, tmp_path, monkeypatch):
        assert make_parser() is make_parser()
        seen = []
        real = ralm.cli.build_problem

        def recording(cfg):
            seen.append(cfg)
            return real(cfg)

        monkeypatch.setattr(ralm.cli, "build_problem", recording)
        out = str(tmp_path / "o")
        first = ["sphere-l1", "--mode", "random", "--n", "4", "--seed", "3", "--kkt-tol", "1e-6", "--out", out]
        assert main(first) == EXIT_OK
        assert main(["solve", "--out", out]) == EXIT_OK
        got = [(c.family, c.mode, c.n, c.seed, c.alm.kkt_tol) for c in seen]
        assert got == [("sphere-l1", "random", 4, 3, 1e-6), ("circle", None, None, None, 1e-7)]

    @pytest.mark.parametrize("key", ["eps_decay", "eps_floor"])
    def test_removed_inner_tolerance_settings_are_refused(self, tmp_path, capsys, key):
        # the inner tolerance is one rule with no schedule to set: the flag
        # exits 1 with one line on every command that takes [alm] keys, and a
        # config-file line warns once and is skipped like any unknown key
        flag = "--" + key.replace("_", "-")
        for command in ("solve", "sphere-l1", "rmc", "analyze"):
            assert main([command, flag, "0.5", "--out", str(tmp_path / "o")]) == EXIT_ERROR
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and flag in err
        f = tmp_path / "old.cfg"
        f.write_text(f"[alm]\n{key}=0.5\n")
        assert parse_problem_file(str(f)).alm == ALMConfig()
        assert capsys.readouterr().err == f"warning: unknown key {key!r} in [alm]\n"

    def test_removed_tau_in_a_config_file_warns_once(self, tmp_path, capsys):
        # the penalty contraction factor is the solver constant PENALTY_TAU
        f = tmp_path / "old.cfg"
        f.write_text("[alm]\ntau=0.5\n")
        assert parse_problem_file(str(f)).alm == ALMConfig()
        assert capsys.readouterr().err == "warning: unknown key 'tau' in [alm]\n"


class TestUnreadSettingsRefused:
    """A setting the command or its instance does not read exits 1 with one
    line naming it; seed is always taken."""

    @pytest.mark.parametrize(
        "argv, setting",
        [
            (["figure1", "--seed", "3"], "--seed"),
            (["figure1", "--max-outer", "1"], "--max-outer"),
            (["figure1", "--config", "x.cfg"], "--config"),
            (["solve", "--family", "circle", "--n", "7"], "setting n"),
            (["sphere-l1", "--mode", "builtin5x5", "--n", "50"], "setting n"),
            (["rmc", "--mode", "basic5x5", "--m", "30"], "setting m"),
            (["rmc", "--mode", "basic5x5", "--r", "2"], "setting r"),
            (["rmc", "--mode", "basic5x5", "--oversample", "9"], "setting oversample"),
            (["solve", "--family", "rmc", "--mu", "0.5"], "setting mu"),
            (["solve", "--family", "sphere-l1", "--mode", "random", "--m", "9"], "setting m"),
        ],
    )
    def test_unread_setting_exits_one_line(self, tmp_path, capsys, argv, setting):
        code = main(argv + ["--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and setting in err
        assert not (tmp_path / "o" / "summary.txt").exists()

    def test_unread_setting_in_a_config_file(self, tmp_path, capsys):
        f = tmp_path / "circle.cfg"
        f.write_text("[problem]\nfamily=circle\nn=7\n")
        assert main(["solve", "--config", str(f), "--out", str(tmp_path / "o")]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: circle does not read the setting n\n"

    @pytest.mark.parametrize("family", ["circle", "sphere-l1", "rmc"])
    def test_seed_is_always_taken(self, tmp_path, family):
        assert main(["solve", "--family", family, "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK


class TestConfigParsing:
    def test_minimal_file_gets_defaults(self, tmp_path):
        f = tmp_path / "min.cfg"
        f.write_text("[problem]\nfamily=circle\n")
        cfg = parse_problem_file(str(f))
        assert cfg.family == "circle"
        assert cfg.alm.rho0 == 1.0
        assert cfg.alm.kkt_tol == 1e-7

    def test_every_alm_key_round_trips_with_its_type(self, tmp_path):
        assert set(ALM_VALUES) == {fld.name for fld in fields(ALMConfig)}
        path = tmp_path / "alm.cfg"
        lines = [f"{key}={raw}" for key, (raw, _) in ALM_VALUES.items()]
        path.write_text("\n".join(["[problem]", "family=circle", "[alm]", *lines]) + "\n")
        alm = parse_problem_file(str(path)).alm
        for key, (_, want) in ALM_VALUES.items():
            got = getattr(alm, key)
            assert got == want and type(got) is type(want), key

    def test_inline_matrix_parsed_row_major(self, tmp_path):
        f = tmp_path / "mat.cfg"
        f.write_text("[problem]\nfamily=sphere-l1\n[matrix]\n1.0 2.0\n3.0 4.0\n")
        cfg = parse_problem_file(str(f))
        np.testing.assert_array_equal(cfg.matrix, [[1.0, 2.0], [3.0, 4.0]])

    def test_range_violation_raises(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("[problem]\nfamily=circle\n[alm]\nrho0=-1\n")
        with pytest.raises(ConfigError):
            parse_problem_file(str(f))

    def test_unparseable_value_reports_line(self, tmp_path):
        f = tmp_path / "bad2.cfg"
        f.write_text("[problem]\nfamily=circle\nseed=xyz\n")
        with pytest.raises(ConfigError) as err:
            parse_problem_file(str(f))
        assert err.value.line == 3

    def test_unknown_key_warns_not_fails(self, tmp_path, capsys):
        f = tmp_path / "warn.cfg"
        f.write_text("[problem]\nfamily=circle\nwhatever=1\n")
        cfg = parse_problem_file(str(f))
        assert cfg.family == "circle"
        assert "unknown key" in capsys.readouterr().err

    def test_unknown_section_warns_once_and_skips_its_keys(self, tmp_path, capsys):
        # before, a key under [solver] also raised "outside any section"
        f = tmp_path / "sect.cfg"
        f.write_text("[problem]\nfamily=sphere-l1\n[solver]\nrho=1\nnot a pair\n[alm]\nrho0=3\n")
        cfg = parse_problem_file(str(f))
        assert (cfg.family, cfg.alm.rho0) == ("sphere-l1", 3.0)
        assert capsys.readouterr().err == "warning: unknown section [solver]\n"

    def test_comments_and_blanks_ignored(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("# header\n[problem]\n\nfamily=circle  # inline\n")
        assert parse_problem_file(str(f)).family == "circle"

    def test_cli_exit_one_on_bad_config(self, tmp_path):
        f = tmp_path / "bad3.cfg"
        f.write_text("[problem]\nfamily=circle\n[alm]\nrho0=-1\n")
        assert main(["solve", "--config", str(f), "--out", str(tmp_path / "o")]) == EXIT_ERROR

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_matrix_entry_reports_line(self, tmp_path, entry):
        f = tmp_path / "nan.cfg"
        f.write_text(f"[problem]\nfamily=sphere-l1\n[matrix]\n1.0 2.0\n3.0 {entry}\n")
        with pytest.raises(ConfigError) as err:
            parse_problem_file(str(f))
        assert err.value.line == 5
        code = main(["sphere-l1", "--config", str(f), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR


    @pytest.mark.parametrize("family, command", [("circle", "solve"), ("rmc", "solve"), ("sphere-l1", "rmc")])
    def test_matrix_section_outside_sphere_l1_rejected(self, tmp_path, capsys, family, command):
        f = tmp_path / "mat.cfg"
        f.write_text(f"[problem]\nfamily={family}\n[matrix]\n1.0 2.0\n3.0 4.0\n")
        code = main([command, "--config", str(f), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "[matrix]" in err[0]

    @pytest.mark.parametrize("flag", [[], ["--mode", "random"]], ids=["config", "flag"])
    def test_matrix_section_with_random_mode_rejected(self, tmp_path, capsys, flag):
        # the matrix fixes n = 2; before, n = 30 was dropped without a word
        f = tmp_path / "mat.cfg"
        mode = "" if flag else "mode=random\n"
        f.write_text(f"[problem]\nfamily=sphere-l1\n{mode}n=30\n[matrix]\n1.0 2.0\n3.0 4.0\n")
        code = main(["sphere-l1", *flag, "--config", str(f), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "[matrix]" in err[0]
        assert not (tmp_path / "o" / "summary.txt").exists()


class TestFigure1Command:
    def test_artifacts_and_ordering(self, tmp_path):
        out = tmp_path / "fig"
        code = main(["figure1", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out / "figure1.csv")
        assert rows[0] == [
            "k",
            "R_rho1",
            "dist_rho1",
            "R_rho10",
            "dist_rho10",
            "R_rho100",
            "dist_rho100",
            "R_rho1000",
            "dist_rho1000",
        ]
        # all runs share the initial residual
        first = rows[1]
        assert first[1] == first[3] == first[5] == first[7]
        assert (out / "figure1.gp").exists()
        summary = (out / "summary.txt").read_text()
        assert "slopes_strictly_decreasing = True" in summary

    def test_partial_penalties_named_on_stderr(self, tmp_path, capsys, monkeypatch):
        real = ralm.cli.figure1_config

        def capped(rho):
            cfg = real(rho)
            if rho < 100:
                cfg.max_outer = 1
            return cfg

        monkeypatch.setattr(ralm.cli, "figure1_config", capped)
        assert main(["figure1", "--out", str(tmp_path)]) == EXIT_PARTIAL
        err = capsys.readouterr().err
        reasons = "max_outer at rho 1, max_outer at rho 10"
        assert err == f"figure1: the solve did not converge (stop reason {reasons})\n"
        assert "rho1000_status = converged" in (tmp_path / "summary.txt").read_text()

    def test_slopes_out_of_order_exit_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ralm.cli, "fit_log_linear", lambda values: (-1.0, 1.0))
        assert main(["figure1", "--out", str(tmp_path)]) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert err == "figure1: fitted slopes are not strictly decreasing in rho\n"
        assert "slopes_strictly_decreasing = False" in (tmp_path / "summary.txt").read_text()

    def test_fit_log_linear_on_exact_geometric(self):
        slope, r2 = fit_log_linear([10.0 ** (-k) for k in range(8)])
        assert slope == pytest.approx(-1.0)
        assert r2 == pytest.approx(1.0)


class TestSphereL1Command:
    def test_builtin_checks_pass(self, tmp_path):
        out = tmp_path / "sph"
        code = main(["sphere-l1", "--out", str(out)])
        assert code == EXIT_OK
        summary = (out / "summary.txt").read_text()
        assert "msrcq = pass" in summary
        assert "msosc = vacuous" in summary
        assert (out / "conditions.txt").exists()

    def test_random_mode_runs_conditions(self, tmp_path):
        out = tmp_path / "sphr"
        code = main(["sphere-l1", "--mode", "random", "--n", "10", "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        assert "msrcq = pass" in (out / "summary.txt").read_text()

    def test_solution_check_fails_for_mismatched_matrix(self, tmp_path, capsys):
        # a matrix whose dominant direction is e1, not e2: the builtin
        # known-solution check must report failure via exit code 3
        cfg = tmp_path / "other.cfg"
        cfg.write_text(
            "[problem]\nfamily=sphere-l1\nmode=builtin5x5\n"
            "[matrix]\n10 0 0\n0 2 0\n0 0 1\n"
        )
        code = main(["sphere-l1", "--config", str(cfg), "--out", str(tmp_path / "mm")])
        assert code == EXIT_CHECK_FAILED
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sphere-l1 builtin5x5 check failed: ")
        for part in ("x error 1.414e+00", "multiplier error", "msrcq pass"):
            assert part in err[0], part

    def test_mu_zero_edge_is_smooth_eigenproblem(self, tmp_path):
        out = tmp_path / "mu0"
        code = main(
            [
                "sphere-l1",
                "--mode",
                "random",
                "--n",
                "6",
                "--mu",
                "0.0",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(out / "history.csv")
        # theta block residual is identically zero: R equals the grad component
        # at every recorded iteration
        for row in rows[2:]:
            assert float(row[2]) == pytest.approx(float(row[4]), abs=1e-15)

    @pytest.mark.parametrize(
        "flag,value",
        [
            pytest.param(flag, value, id=flag + suffix)
            for flag in ["--mu", "--rho0", "--kkt-tol", "--gamma"]
            for value, suffix in (("nan", ""), ("inf", "-inf"))
        ],
    )
    def test_nan_flag_exits_one_line(self, tmp_path, capsys, flag, value):
        code = main(["sphere-l1", flag, value, "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestRmcCommand:
    def test_basic_recovery(self, tmp_path):
        out = tmp_path / "rb"
        code = main(["rmc", "--out", str(out)])
        assert code == EXIT_OK
        summary = (out / "summary.txt").read_text()
        rec = float(summary.split("recovery_error = ")[1].splitlines()[0])
        assert rec <= 1e-6

    def test_random_small_instance(self, tmp_path):
        out = tmp_path / "rr"
        code = main(
            [
                "rmc",
                "--mode",
                "random",
                "--m",
                "40",
                "--n",
                "40",
                "--r",
                "3",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        summary = (out / "summary.txt").read_text()
        assert "m = 40" in summary and "r = 3" in summary

    @pytest.mark.parametrize("command", [["rmc"], ["solve", "--family", "rmc"]], ids=["rmc", "solve"])
    def test_basic_check_failure_exits_three(self, tmp_path, capsys, monkeypatch, command):
        real = ralm.cli.rmc_basic_instance

        def shifted():
            a, mask, a_exact = real()
            return a, mask, a_exact + 1

        monkeypatch.setattr(ralm.cli, "rmc_basic_instance", shifted)
        out = tmp_path / "o"
        assert main([*command, "--mode", "basic5x5", "--out", str(out)]) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert err.startswith("rmc basic5x5 check failed: ") and err.count("\n") == 1
        assert (out / "summary.txt").exists()

    def test_basic_instance_reads_no_seed(self, tmp_path):
        runs = {"plain": [], "seeded": ["--seed", "2"]}
        for name, extra in runs.items():
            assert main(["rmc", "--mode", "basic5x5", *extra, "--out", str(tmp_path / name)]) == EXIT_OK
        plain, seeded = (strip_wall_time(read_csv(tmp_path / name / "history.csv")) for name in runs)
        assert seeded == plain

    def test_solve_summary_names_the_sizes(self, tmp_path):
        argv = ["solve", "--family", "rmc", "--mode", "random", "--m", "30", "--n", "20", "--r", "2"]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
        summary = (tmp_path / "summary.txt").read_text().splitlines()
        assert {"m = 30", "n = 20", "r = 2"} <= set(summary)

    def test_full_mask_no_outliers_converges_fast(self, tmp_path):
        # directly through the data generator: force zero outlier count by
        # constructing the instance without noise
        a, mask, a_exact = rmc_basic_instance()
        assert mask.all()
        assert np.linalg.norm(a - a_exact) > 0  # outliers present in the builtin

    def test_rank_deficient_instance_exits_one_line(self, tmp_path, capsys):
        # too few samples for a rank-2 spectral initialisation
        argv = ["rmc", "--mode", "random", "--m", "6", "--n", "6", "--r", "2"]
        code = main(argv + ["--oversample", "0.01", "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_bad_oversample_exits_one_line(self, tmp_path, capsys, value):
        argv = ["rmc", "--mode", "random", "--m", "8", "--n", "8", "--r", "2"]
        code = main(argv + ["--oversample", value, "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "oversample" in err and "Traceback" not in err


class TestAnalyzeCommand:
    def test_oversized_instance_refused_before_the_solve(self, tmp_path, capsys):
        argv = ["analyze", "--family", "rmc", "--mode", "random", "--m", "200", "--n", "200"]
        code = main(argv + ["--r", "5", "--out", str(tmp_path / "big")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: condition check too large") and err.count("\n") == 1
        assert not (tmp_path / "big" / "summary.txt").exists()

    def test_circle_analysis_artifacts(self, tmp_path):
        out = tmp_path / "ana"
        code = main(["analyze", "--family", "circle", "--out", str(out)])
        assert code == EXIT_OK
        conditions = (out / "conditions.txt").read_text()
        assert "msrcq = pass" in conditions
        assert "msosc = vacuous" in conditions
        rows = read_csv(out / "probe.csv")
        assert rows[0] == ["record", "radius", "trial", "ratio", "dist", "residual"]
        kinds = {r[0] for r in rows[1:]}
        assert kinds == {"calmness", "errorbound"}
        summary = (out / "summary.txt").read_text()
        assert "kappa_bounded = True" in summary
        c1 = float(summary.split("errorbound_c1 = ")[1].splitlines()[0])
        assert c1 > 0

    def test_partial_solve_says_why_it_stopped(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["analyze", "--family", "circle", "--max-outer", "1", "--out", str(out)])
        assert code == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert err == "analyze: the solve did not converge (stop reason max_outer)\n"
        summary = (out / "summary.txt").read_text()
        assert "status = partial-convergence" in summary
        assert "stop_reason = max_outer" in summary
        assert sorted(p.name for p in out.iterdir()) == ["summary.txt"]

    @pytest.mark.parametrize(
        "argv, files",
        [(["analyze", "--family", "circle"], ["summary.txt"]),
         (["sphere-l1", "--mode", "builtin5x5"], ["history.csv", "summary.txt"])],
        ids=["analyze", "sphere-l1"],
    )
    def test_failed_polish_writes_the_solve_summary(self, tmp_path, capsys, monkeypatch, argv, files):
        monkeypatch.setattr(ralm.cli, "POLISHED_KKT_GATE", -1.0)
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: polish failed: residual ") and err.count("\n") == 1
        summary = (out / "summary.txt").read_text()
        assert "status = converged" in summary and "polished_residual = " in summary
        assert sorted(p.name for p in out.iterdir()) == files

    @pytest.mark.parametrize(
        "argv, builds",
        [(["analyze", "--family", "circle"], 2), (["sphere-l1", "--mode", "builtin5x5"], 1)],
        ids=["analyze", "sphere-l1"],
    )
    def test_condition_system_built_once_per_use(self, monkeypatch, tmp_path, argv, builds):
        """condition_report builds one tangent basis for both checks; the
        calmness probe's M-SRCQ gate builds its own."""
        calls = []
        build = ralm.analysis.tangent_basis

        def counting(manifold, x):
            calls.append(1)
            return build(manifold, x)

        monkeypatch.setattr(ralm.analysis, "tangent_basis", counting)
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(calls) == builds


class TestRefusedMsosc:
    def test_conditions_file_reads_the_refusal(self, tmp_path):
        p, x, y = ray_cone_instance(np.linspace(2.0, 1.0, MAX_RAY_ROWS + 3), MAX_RAY_ROWS + 1)
        write_conditions(tmp_path / "c.txt", condition_report(p, x, y))
        lines = (tmp_path / "c.txt").read_text().splitlines()
        assert lines[1] == "msrcq = pass (rank 11/11, 20 generators)"
        assert lines[2] == "msosc = refused (9 one-sided cone generators exceed 8)"

    @pytest.mark.parametrize("command", [["sphere-l1"], ["analyze", "--family", "sphere-l1"]])
    def test_command_writes_msrcq_then_exits_one_line(self, tmp_path, capsys, monkeypatch, command):
        # a cap below zero refuses every cone, here one without ray rows
        monkeypatch.setattr(ralm.analysis, "MAX_RAY_ROWS", -1)
        argv = [*command, "--mode", "random", "--n", "10", "--seed", "7", "--out", str(tmp_path)]
        assert main(argv) == EXIT_ERROR
        refusal = "0 one-sided cone generators exceed -1"
        assert capsys.readouterr().err == f"error: M-SOSC check too large: {refusal}\n"
        lines = (tmp_path / "conditions.txt").read_text().splitlines()
        assert lines[1].startswith("msrcq = pass (rank 10/10")
        assert lines[2] == f"msosc = refused ({refusal})"
        assert not (tmp_path / "summary.txt").exists()


class TestColdStart:
    def test_commands_load_no_scipy(self, tmp_path):
        commands = [
            ["rmc", "--mode", "basic5x5"],
            ["sphere-l1", "--mode", "builtin5x5"],
            ["analyze", "--family", "circle"],
        ]
        argvs = [argv + ["--out", str(tmp_path / f"o{i}")] for i, argv in enumerate(commands)]
        # and an M-SOSC check on a cone with ray rows, where a cone LP used to
        # import SciPy
        code = (
            "import sys\n"
            "sys.path.insert(0, 'tests')\n"
            "import ralm.cli\n"
            "from ralm.analysis import msosc_check\n"
            "from helpers import ray_cone_instance\n"
            f"codes = [ralm.cli.main(argv) for argv in {argvs!r}]\n"
            "codes.append(msosc_check(*ray_cone_instance([2.0, 1.0, 1.5, 0.5], 2)).status)\n"
            "print(codes, any(k.startswith('scipy') for k in sys.modules))\n"
        )
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 'pass'] False"


class TestCompletionTableScript:
    SCRIPT = str(ROOT / "scripts" / "run_completion_table.py")

    def test_small_grid_prints_one_converged_row(self):
        proc = run_python([self.SCRIPT, "--sizes", "20", "--rank", "2", "--seeds", "1"])
        assert proc.returncode == 0, proc.stderr
        header, *rows = proc.stdout.splitlines()
        assert header.split()[0] == "m" and len(rows) == 1
        assert rows[0].split()[:4] == ["20", "20", "2", "1"]
        assert rows[0].split()[-1] == "converged"
        # every accepted inner step is a trial point
        assert header.split()[5:7] == ["inner", "trials"]
        inner, trials = map(int, rows[0].split()[5:7])
        assert 0 < inner <= trials

    @pytest.mark.parametrize(
        "args,message",
        [
            pytest.param(["--sizes", "20"], None, id="20"),
            pytest.param(["--sizes", "0"], None, id="0"),
            pytest.param(["--sizes", "abc"], None, id="abc"),
            pytest.param(
                ["--sizes", "20", "--rank", "2", "--seeds", "-1"],
                "seed must be >= 0, got -1",
                id="seeds-negative",
            ),
            pytest.param(["--rank", "abc"], "argument --rank", id="rank-abc"),
        ],
    )
    def test_bad_input_exits_one_line(self, args, message):
        proc = run_python([self.SCRIPT, *args])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        if message is not None:
            # rejected while parsing, before the table header
            assert message in proc.stderr and proc.stdout == ""
