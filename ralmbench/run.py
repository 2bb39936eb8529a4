"""ralm benchmark: run one workload through ``ralm.cli.main`` and print its metrics.

    python3 ralmbench/run.py --workload rmc-200 --seed 0 --seconds 30 --trace 0
    python3 ralmbench/run.py --workload all --trace 1

Run it from the repository root or anywhere else; it imports ``ralm`` from
the ``src`` directory next to this one.  Every command of the workload runs
in this process with ``--out`` under ``ralmbench/out``.  After a warm-up
pass the workload repeats until ``--seconds`` are used.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics.  ``--workload all`` runs each
workload in a fresh process.

Human-readable lines come first (environment, one line per command, one
``metric <name> <value> <unit> n=<samples>`` line per metric); the last line
is one JSON object with the keys correct, attempted, failed and metrics.
README.md next to this file defines the metrics.
"""
import os

# The BLAS thread count is part of the workload: OpenBLAS defaults to one
# thread per core, which changes the last digits of results.  It must be set
# before NumPy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    artifact_bytes,
    is_known_failure,
    output_digest,
    read_summary,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = BENCH_DIR / "out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import ralm.cli; print(time.perf_counter() - t)"

# counts the trace pins for rmc-200 seed 1 (README.md)
PINNED_COUNTS = (
    "solver.outer_iters",
    "solver.inner_iters",
    "manifolds.retract.calls",
    "manifolds.retract.raised",
    "problems.aug_lagrangian_value.calls",
    "problems.aug_lagrangian.calls",
    "convex.moreau_env.calls",
    "manifolds.project_tangent.calls",
)


@dataclass
class Outcome:
    label: str
    code: object  # exit code, or None when main raised
    problems: list
    known: bool
    digest: str
    seconds: float
    bytes: int
    counts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


@dataclass
class Pass:
    outcomes: list
    counters: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def import_cli():
    if not (SRC / "ralm" / "__init__.py").is_file():
        raise SystemExit(f"error: ralm sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import ralm.cli

    if Path(ralm.cli.__file__).resolve().parent != SRC / "ralm":
        raise SystemExit(f"error: imported ralm from {ralm.cli.__file__}, not from {SRC}")
    return ralm.cli


def _openblas_threads():
    """Thread count reported by the OpenBLAS that NumPy loaded, if it can be found."""
    import ctypes

    import numpy

    for lib in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']}-{blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    threads = _openblas_threads()
    if threads is not None and threads != BLAS_THREADS:
        raise SystemExit(f"error: BLAS runs {threads} threads, the benchmark fixes {BLAS_THREADS}")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS if threads is None else threads,
    }


def run_command(cli, cmd, out: Path, tracer) -> Outcome:
    shutil.rmtree(out, ignore_errors=True)
    argv = [*cmd.argv, "--out", str(out)]
    before = tracer.counters() if tracer else {}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed command, not a stopped benchmark
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    problems = cmd.check(read_summary(out)) if code == 0 else [f"exit {code}: {err.getvalue().strip()}"]
    counts = {}
    if tracer:
        after = tracer.counters()
        counts = {k: v - before[k] for k, v in after.items() if v != before[k]}
    return Outcome(
        label=cmd.label,
        code=code,
        problems=problems,
        known=is_known_failure(cmd, code, out),
        digest=output_digest(out) if out.exists() else "none",
        seconds=seconds,
        bytes=artifact_bytes(out) if out.exists() else 0,
        counts=counts,
    )


def run_pass(cli, cmds, out_dir: Path, tracer=None) -> Pass:
    if tracer is None:
        return Pass([run_command(cli, c, out_dir / f"c{i}", None) for i, c in enumerate(cmds)])
    tracer.reset()
    tracer.install()
    try:
        outcomes = [run_command(cli, c, out_dir / f"c{i}", tracer) for i, c in enumerate(cmds)]
    finally:
        tracer.uninstall()
    return Pass(outcomes, tracer.counters(), tracer.self_seconds(), tracer.spans)


def build_instances(cli, cmds) -> None:
    """Build each command's problem and initial point the way the CLI does."""
    from ralm.config import RunConfig, apply_flag_overrides

    for cmd in cmds:
        args = cli.make_parser().parse_args(list(cmd.argv))
        cfg = apply_flag_overrides(RunConfig(), args)
        if args.command in ("rmc", "sphere-l1"):
            cfg.family = args.command
        cli.build_problem(cfg)


def measure_setup(cli, cmds):
    """Median import time of ralm.cli in a fresh process plus median build time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        imports.append(float(proc.stdout))
        start = time.perf_counter()
        build_instances(cli, cmds)
        builds.append(time.perf_counter() - start)
    return statistics.median(imports) + statistics.median(builds)


def measure(cli, cmds, out_dir: Path, seconds: float, tracer):
    """Warm-up pass, then passes (untraced, traced when tracing) until time is up."""
    warm = run_pass(cli, cmds, out_dir, tracer)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        plain.append(run_pass(cli, cmds, out_dir))
        if tracer:
            traced.append(run_pass(cli, cmds, out_dir, tracer))
    return warm, plain, traced


def pass_seconds(passes, estimate=min) -> float:
    """Seconds for one pass: the sum over commands of each command's fastest time.

    Contention from other tenants of the machine only ever adds time, and it
    comes in stretches of tens of seconds, so each command's fastest run is a
    steadier estimate of its cost than its median (README.md).
    """
    return sum(estimate(p.outcomes[i].seconds for p in passes)
               for i in range(len(passes[0].outcomes)))


def write_report(out_dir: Path, env, args, passes, metrics, errors) -> None:
    last = passes[-1]
    commands = []
    for i, o in enumerate(last.outcomes):
        commands.append({
            "label": o.label,
            "exit_codes": sorted({str(p.outcomes[i].code) for p in passes}),
            "ok": o.ok,
            "known_failure": o.known,
            "problems": o.problems,
            "digest": o.digest,
            "seconds": [p.outcomes[i].seconds for p in passes],
            "counts": o.counts,
        })
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "commands": commands, "metrics": metrics, "errors": errors}
    (out_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if last.spans:
        origin = last.spans[0][1]
        with open(out_dir / "spans.csv", "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(last.spans):
                fh.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")


def run_workload(args, spec) -> dict:
    cli = import_cli()
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    cmds = WORKLOADS[args.workload](args.seed)
    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    setup_s = None if args.trace else measure_setup(cli, cmds)
    tracer = Tracer() if args.trace else None
    warm, plain, traced = measure(cli, cmds, out_dir, args.seconds, tracer)
    passes = [warm, *plain, *traced]

    outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    errors = [f"{o.label}: {'; '.join(o.problems)}" for o in outcomes if not o.ok and not o.known]
    for i, cmd in enumerate(cmds):
        digests = {p.outcomes[i].digest for p in passes}
        if len(digests) > 1:
            errors.append(f"{cmd.label}: outputs differ between passes {sorted(digests)}")
    if traced and any(p.counters != warm.counters for p in traced):
        errors.append("traced counts differ between passes")

    for o in warm.outcomes:
        status = "ok" if o.ok else ("known-failure" if o.known else "FAILED")
        print(f"command {o.label} exit={o.code} {status} digest={o.digest}"
              + (f" ({'; '.join(o.problems)})" if o.problems else ""))
        if o.counts:
            print(f"counts {o.label} " + " ".join(f"{k}={o.counts.get(k, 0)}" for k in PINNED_COUNTS))

    n_plain = len(plain)
    if args.trace:
        values = layer_metrics(warm.counters, [p.self_s for p in traced])
        values["cli.artifact_bytes"] = statistics.median(sum(o.bytes for o in p.outcomes) for p in traced)
        plain_wall = pass_seconds(plain)
        traced_wall = pass_seconds(traced)
        values["trace.overhead_s"] = traced_wall - plain_wall
        values["trace.spans"] = len(warm.spans)
        print(f"trace wall_s untraced {plain_wall:.6g} s traced {traced_wall:.6g} s "
              f"overhead {100 * (traced_wall / plain_wall - 1):.1f}% n={n_plain}")
        wanted, samples = spec["per_layer"], len(traced)
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": pass_seconds(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
        wanted, samples = spec["end_to_end"], n_plain
        sample_counts = {"setup_s": SETUP_REPEATS, "peak_rss_mb": 1, "success_rate": attempted}
        print(f"metric fail_rate {failed / attempted!r} ratio n={attempted}")
        print(f"metric wall_s_median {pass_seconds(plain, statistics.median)!r} s n={n_plain}")

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise SystemExit(f"error: the benchmark computes no metric {m['name']!r}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        n = samples if args.trace else sample_counts.get(m["name"], samples)
        print(f"metric {m['name']} {values[m['name']]!r} {m['unit']} n={n}")
    for e in errors:
        print(f"error {e}")
    write_report(out_dir, env, args, passes, metrics, errors)
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process; metrics are prefixed with the workload name."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        print(f"workload {name}")
        for line in lines[:-1]:
            print(f"  {line}")
        child = json.loads(lines[-1])
        result["correct"] &= child["correct"]
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = value
    return result


def parse_args(argv, run_seconds):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="measured time after the warm-up pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    args = parse_args(argv, spec["run_seconds"])
    result = run_all(args) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
