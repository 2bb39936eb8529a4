"""Per-layer tracing of ralm from outside the package.

The tracer replaces chosen public functions of the ``ralm`` modules with
timing wrappers while it is installed.  Every ``ralm.*`` module attribute
that holds a traced function is replaced, because ``solver``, ``problems``,
``analysis`` and ``cli`` import functions by name: wrapping
``ralm.manifolds.retract`` alone would miss every call the solver makes.

Each wrapped call is a span (name, start, end, parent).  Spans are kept in
memory for the current pass.  A span's self time is its duration minus the
time its child spans cover, so time spent in functions that are not wrapped
(the problem lambdas, NumPy) counts toward the nearest wrapped caller.
"""
from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Traced functions by module (the layer).  A metric is named
# "<module>.<function>.{calls,self_s,raised}".
TRACED = {
    "manifolds": ("retract", "project_tangent", "tangent_basis", "nearest_rank_r"),
    "convex": ("moreau_env", "prox", "project_set", "dist2_grad"),
    "problems": (
        "aug_lagrangian_value",
        "aug_lagrangian",
        "lagrangian_rgrad",
        "hess_quadform",
        "tilted_instance",
    ),
    "solver": (
        "alm_run",
        "subproblem_solve",
        "kkt_residual_components",
        "update_multipliers",
        "auxiliary_v",
    ),
    "analysis": ("polish_kkt", "msrcq_check", "msosc_check", "calmness_probe", "error_bound_fit"),
    "cli": ("main", "generate_rmc_instance", "rmc_spectral_init", "write_history_csv"),
}


def _count_alm_run(counts, result):
    counts["solver.outer_iters"] += len(result.history) - 1


def _count_subproblem(counts, result):
    # iters is the number of accepted steps of the inner solve
    counts["solver.inner_iters"] += result.iters
    counts["solver.subproblem_solve.stalled"] += int(result.stalled)


def _count_calmness(counts, result):
    counts["analysis.calmness_failed_trials"] += sum(r.failures for r in result.records)


# Work counts read from the values traced functions return.
RESULT_COUNTERS = {
    "solver.alm_run": _count_alm_run,
    "solver.subproblem_solve": _count_subproblem,
    "analysis.calmness_probe": _count_calmness,
}


class Tracer:
    """Installs timing wrappers on the traced ralm functions and records spans."""

    def __init__(self):
        self._originals = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"ralm.{module}"]
            for name in names:
                self._originals[f"{module}.{name}"] = getattr(mod, name)
        self._wrappers = {key: self._wrap(key, fn) for key, fn in self._originals.items()}
        self._patched = []
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counts of the previous pass."""
        self.spans = []  # (name, start, end, parent span index or -1)
        self.calls = Counter()
        self.raised = Counter()
        self.in_subproblem = Counter()  # calls made while subproblem_solve is active
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self._stack = []  # [span index, seconds covered by child spans]
        self._subproblem_depth = 0

    def install(self) -> None:
        by_id = {id(fn): self._wrappers[key] for key, fn in self._originals.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ralm" or mod_name.startswith("ralm.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched = []

    def _wrap(self, key: str, fn):
        on_result = RESULT_COUNTERS.get(key)
        is_subproblem = key == "solver.subproblem_solve"

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            if self._subproblem_depth:
                self.in_subproblem[key] += 1
            if is_subproblem:
                self._subproblem_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[key] += 1
                raise
            finally:
                end = perf_counter()
                if is_subproblem:
                    self._subproblem_depth -= 1
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.self_s[key] += duration - frame[1]
                self.calls[key] += 1
                self.spans[index] = (key, start, end, parent)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def counters(self) -> dict:
        """Deterministic work counts of the current pass, keyed by metric name."""
        out = {}
        for key in self._originals:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.raised"] = self.raised[key]
            out[f"{key}.in_subproblem"] = self.in_subproblem[key]
        for key in ("solver.outer_iters", "solver.inner_iters", "solver.subproblem_solve.stalled",
                    "analysis.calmness_failed_trials"):
            out[key] = self.counts[key]
        return out

    def self_seconds(self) -> dict:
        return {f"{key}.self_s": self.self_s[key] for key in self._originals}


def layer_metrics(counters: dict, self_s_per_pass: list) -> dict:
    """Per-layer metric values: one pass's counts, median self time over passes."""
    values = dict(counters)
    for key in self_s_per_pass[0]:
        values[key] = statistics.median(p[key] for p in self_s_per_pass)
    steps = counters["solver.inner_iters"]
    trials = counters["manifolds.retract.in_subproblem"]
    values["solver.accept_ratio"] = steps / trials if trials else 0.0
    evals = counters["problems.aug_lagrangian.in_subproblem"]
    values["solver.grad_evals_per_step"] = evals / steps if steps else 0.0
    return values
