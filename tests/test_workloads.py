"""The benchmark's commands and the strings its checks match, run in tier-1.

Every small-analyze and sphere-200 command must pass its own check, or fail
exactly as ``is_known_failure`` describes, so that a change to an output line
the benchmark reads (``conditions.txt``'s ``msrcq = fail (rank 83/400`` line,
a summary key) fails here rather than as a lower success rate.  The
small-analyze commands also reproduce their pinned output digests."""
import importlib.util
import sys
from pathlib import Path

import pytest

from ralm import cli
from ralm.cli import main
from ralm.config import RunConfig, apply_flag_overrides

WORKLOADS = Path(__file__).resolve().parents[1] / "ralmbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("ralmbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
SMALL = workloads.WORKLOADS["small-analyze"](0)
COMMANDS = SMALL + workloads.WORKLOADS["sphere-200"](0)
EVERY_COMMAND = [cmd for make in workloads.WORKLOADS.values() for cmd in make(0)]

# output_digest of each small-analyze command at seed 0.  These read the same
# with 1 and 2 BLAS threads.  The sphere-200 (and rmc-200) digests change with
# the BLAS thread count, which pytest does not fix, so they are not pinned.  A
# change that moves the iterates updates these pins and says why.
DIGESTS = {
    "figure1": "ae171f69d7b95f02",
    "analyze-circle/seed0": "c539e53b64329e89",
    "analyze-rmc-basic5x5": "0868a67fed75b140",
    "sphere-l1-builtin5x5": "e5d712bc053c6702",
    "rmc-basic5x5": "21b4601abb80de72",
    "analyze-rmc-20/seed1": "3e7cfcca54fc9a7c",
}


@pytest.mark.parametrize("cmd", EVERY_COMMAND, ids=[c.label for c in EVERY_COMMAND])
def test_benchmark_setup_builds_the_instance(cmd):
    """The benchmark's setup_s step (``build_instances`` in ralmbench/run.py)
    builds each command's problem without ``main``; a refusal there would
    stop the benchmark."""
    args = cli.make_parser().parse_args(list(cmd.argv))
    cli.build_problem(apply_flag_overrides(RunConfig(), args))


@pytest.mark.parametrize("cmd", COMMANDS, ids=[c.label for c in COMMANDS])
def test_command_passes_its_check_or_fails_as_known(cmd, tmp_path):
    """Each small-analyze command also reproduces its pinned ``DIGESTS``
    entry; the sphere-200 commands are checked by their answers only."""
    out = tmp_path / "out"
    code = main([*cmd.argv, "--out", str(out)])
    if cmd.known_failure is not None:
        assert workloads.is_known_failure(cmd, code, out)
    else:
        assert code == 0
        assert cmd.check(workloads.read_summary(out)) == []
    if cmd in SMALL:
        assert workloads.output_digest(out) == DIGESTS[cmd.label]
