"""Inexact augmented Lagrangian outer loop with a Riemannian descent inner solver.

The outer loop alternates an inexact minimisation of the smooth augmented
Lagrangian on the manifold with closed-form multiplier updates, growing the
penalty only when the feasibility measure V fails to contract by the fixed
factor ``PENALTY_TAU``.  The inner solver is Riemannian gradient descent with
an adaptive Barzilai-Borwein trial step (BB2 when it is well below BB1, else
BB1) and nonmonotone Armijo backtracking along the retraction.  Subproblem k
stops once the gradient norm reaches max(kkt_tol, min(eps0, REL_STOP * V)),
with V the multiplier gap at the same point: a relative criterion in the
manner of Rockafellar's criterion (B), capped at eps0 far from feasibility and
floored at the run's own stopping tolerance.
"""
from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .convex import project_set, prox
from .manifolds import (
    FixedRankTangent,
    Point,
    RankDeficiencyError,
    bb_pair,
    check_point,
    distance,
    item_norm,
    norm,
    retract,
    tangent_norm,
)
from .problems import (
    ProblemInstance,
    lagrangian_rgrad,
    merit_eval,
    merit_rgrad,
    merit_shifts,
    multiplier_gap,
    require_set_multiplier,
)


# Accepted iterates a Barzilai-Borwein trial is compared against
# (Grippo-Lampariello-Lucidi reference).
NONMONOTONE_MEMORY = 5
# Armijo sufficient-decrease constant and step shrink factor per backtrack.
ARMIJO_C = 1e-4
BACKTRACK = 0.5
# Relative stop of a subproblem, in the manner of Rockafellar's criterion (B)
# (Math. Oper. Res. 1976) but with a constant factor: its gradient norm need
# not go below REL_STOP times the multiplier gap V at the same point
# (``multiplier_gap``).
REL_STOP = 1.0
# The contraction of V below which rho grows, fixed as in the safeguarded ALM
# of Andreani, Birgin, Martinez & Schuverdt (SIAM J. Optim. 2008).
PENALTY_TAU = 0.8
# Adaptive BB (Zhou, Gao & Dai, Comput. Optim. Appl. 2006): the next trial
# step is BB2 when BB2 < ABB_RATIO * BB1, else BB1.
ABB_RATIO = 0.8
# The first trial step of a subproblem is INIT_STEP / max(rho, 1): the
# envelope term of L_rho is rho-smooth, so a unit step overshoots by about a
# factor rho and would be backtracked log2(rho) times.
INIT_STEP = 1.0
# Accepted steps one subproblem may take.
INNER_MAX_ITERS = 5000
# Bound on each multiplier entry that enters a subproblem (safeguarded ALM).
MULTIPLIER_BOUND = 1e8


@dataclass
class ALMConfig:
    rho0: float = 1.0
    gamma: float = 10.0
    eps0: float = 1e-2
    kkt_tol: float = 1e-7
    max_outer: int = 200

    def validate(self):
        """The one check of the run settings: finite, and each in its range."""
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, float) and not math.isfinite(val):
                raise ValueError(f"{f.name} must be finite, got {val}")
        for name in ("rho0", "eps0", "kkt_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.gamma >= 1:
            raise ValueError("gamma must be >= 1")
        if self.max_outer < 0:
            raise ValueError("max_outer must be >= 0")


@dataclass
class IterationRecord:
    k: int
    rho: float
    kkt_residual: float
    aux_v: float
    inner_grad_norm: float
    inner_iters: int
    inner_trials: int  # trial points, rank-deficient retractions included
    inner_tol: float  # the tolerance the subproblem stopped against
    wall_time: float
    dist_to_reference: float = float("nan")
    # per-iteration diagnostics backing the solver invariants
    chain_gap: float = 0.0
    residual_bound_slack: float = 0.0
    multiplier_consistency_gap: float = 0.0


@dataclass
class SubproblemResult:
    x: Point
    grad: Union[np.ndarray, FixedRankTangent]  # Riemannian gradient of the merit at x
    grad_norm: float
    iters: int  # accepted steps
    trials: int  # trial points, rank-deficient retractions included
    stalled: bool
    tol: float  # the tolerance in force at x


@dataclass
class ALMResult:
    reason: str  # why the run stopped: "converged", "max_outer" or "stalled"
    x: Point
    y: np.ndarray
    z: Optional[np.ndarray]
    history: list[IterationRecord]

    @property
    def converged(self) -> bool:
        return self.reason == "converged"


def kkt_blocks(p: ProblemInstance, x: Point, y, z=None):
    """The three blocks of the KKT natural map; all vanish exactly at KKT points.

    stationarity:  grad_x L(x, y, z)
    theta block:   g1(x) - prox_theta(g1(x) + y)
    set block:     g2(x) - proj_Q(g2(x) + z)   (None without Q; z required with Q)

    A stacked x, y or z (leading axes) gives stacked blocks.
    """
    for name, mult, g in (("y", y, p.g1), ("z", z, p.g2)):
        if g is None or mult is None:
            continue
        shape, want = np.shape(mult), g.out_shape
        if shape[len(shape) - len(want) :] != want:
            raise ValueError(f"multiplier {name} has shape {shape}, expected {want}")
    grad = lagrangian_rgrad(p, x, y, z)  # rejects an omitted z with Q
    g1 = p.g1.value(x.ambient)
    theta_block = g1 - prox(p.theta, g1 + np.asarray(y))
    set_block = None
    if p.q is not None:
        g2 = p.g2.value(x.ambient)
        set_block = g2 - project_set(p.q, g2 + np.asarray(z))
    return grad, theta_block, set_block


def _block_norms(p: ProblemInstance, blocks):
    grad, theta_block, set_block = blocks
    theta_norm = item_norm(theta_block, len(p.g1.out_shape))
    # without Q: zeros, one per item
    set_norm = 0.0 * theta_norm if set_block is None else item_norm(set_block, len(p.g2.out_shape))
    return item_norm(grad, len(p.manifold.ambient_shape)), theta_norm, set_norm


def kkt_residual_components(p: ProblemInstance, x: Point, y, z=None):
    """The norms of the three ``kkt_blocks``; their sum is the KKT residual R
    (the set norm is 0 when Q is absent).  One norm per item of a stack."""
    return _block_norms(p, kkt_blocks(p, x, y, z))


def kkt_residual(p: ProblemInstance, x: Point, y, z=None) -> float:
    return float(sum(kkt_residual_components(p, x, y, z)))


def update_multipliers(p: ProblemInstance, x_next: Point, w, p_mult, rho: float):
    """Multiplier step: y+ = rho [u - prox_{theta/rho}(u)] with u = g1 + w/rho,
    and the analogous projection step for the set constraint.

    Also returns the gaps (|g1 - prox_{theta/rho}(u)|, |g2 - proj_Q(s)|) with
    s = g2 + p/rho (the second is 0 without Q).  Their max is the feasibility
    measure V driving the penalty update; the first equals |y+ - w| / rho.
    Both vanish at a KKT pair for every rho, which is what makes the
    penalty-update test meaningful.  With Q, p_mult is required.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    require_set_multiplier(p, p_mult, "p_mult")
    g1 = p.g1.value(x_next.ambient)
    u = g1 + np.asarray(w) / rho
    pr = prox(p.theta, u, 1.0 / rho)
    y_next = rho * (u - pr)
    theta_gap = norm(g1 - pr)
    z_next = None
    set_gap = 0.0
    if p.q is not None:
        g2 = p.g2.value(x_next.ambient)
        s = g2 + np.asarray(p_mult) / rho
        proj = project_set(p.q, s)
        z_next = rho * (s - proj)
        set_gap = norm(g2 - proj)
    return y_next, z_next, (theta_gap, set_gap)


def auxiliary_v(p: ProblemInstance, x: Point, y, z, rho: float) -> float:
    """Feasibility measure V at (x, y, z): the larger ``update_multipliers`` gap."""
    return max(update_multipliers(p, x, y, z, rho)[2])


def penalty_update(v_new: float, v_prev, rho: float, gamma: float) -> float:
    """Keep rho at the first update (no previous V) or when V contracted by
    ``PENALTY_TAU``; otherwise multiply it by gamma (>= 1 by
    ``ALMConfig.validate``), so gamma = 1 keeps it fixed."""
    if v_prev is None or v_new <= PENALTY_TAU * v_prev:
        return rho
    return gamma * rho


def abb_step(ss: float, sy: float, yy: float, t: float) -> float:
    """The next trial step from the Barzilai-Borwein triple (|s|^2, <s, y>,
    |y|^2) of an accepted step of length t.

    BB2 = <s, y> / |y|^2 when it is below ``ABB_RATIO`` times
    BB1 = |s|^2 / <s, y>, else BB1; BB1 also when |y|^2 <= 0, which rounding
    can produce on the fixed-rank manifold.  The result is clamped to
    [1e-12, 1e10].  Without positive curvature (<s, y> <= 1e-30) the step is
    4 t, capped at ``INIT_STEP`` * 1e6.
    """
    if sy <= 1e-30:
        return min(4.0 * t, INIT_STEP * 1e6)
    step = ss / sy
    if yy > 0 and sy / yy < ABB_RATIO * step:
        step = sy / yy
    return min(max(step, 1e-12), 1e10)


def subproblem_solve(
    p: ProblemInstance,
    w,
    p_mult,
    rho: float,
    x_init: Point,
    eps: float,
    eps_cap: float = 0.0,
) -> SubproblemResult:
    """Drive |grad L_rho(x, w, p)| below a tolerance by Riemannian gradient
    descent.

    The solve stops relative to the multiplier step: at the best iterate x
    the tolerance is max(eps, min(eps_cap, ``REL_STOP`` * V(x))), where V is
    the penalty rule's gap max(|y+ - w|, |z+ - p|) / rho; the default cap 0
    leaves eps alone.  ``multiplier_gap`` reads V from the gradients
    ``merit_eval`` returned at x, so each new best iterate costs one
    subtraction and norm over the envelope's entries.

    Trial steps come from the safeguarded adaptive Barzilai-Borwein rule of
    ``abb_step`` and are backtracked until the Armijo condition holds
    against a reference value.
    Once the requested Armijo decrease falls below the rounding noise of the
    merit value, steps are instead accepted when the value does not exceed
    the reference beyond that noise and the gradient norm does not exceed a
    reference norm.  Both references are the maxima over the last
    ``NONMONOTONE_MEMORY`` accepted iterates, since BB steps are nonmonotone
    by nature.  The best iterate seen is tracked and returned with its
    gradient.  Retractions that drop rank count as failed trials and shrink
    the step.

    Each trial point is evaluated once (``merit_eval``, with the shifts w/rho
    and p/rho computed once per call).  Its gradient is completed from that
    evaluation (``merit_rgrad``) only where it is needed: at an accepted
    point, and at a noise-floor trial whose gradient norm decides acceptance.
    Each gradient's norm is taken once, and ``bb_pair`` forms the BB triple
    from the two norms.  ``iters`` counts the accepted steps and ``trials``
    the trial points; ``tol`` is the tolerance in force at the returned x,
    and ``stalled`` says that x misses it.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    shifts = merit_shifts(p, w, p_mult, rho)
    x = x_init
    val, grads = merit_eval(p, x, shifts, rho)
    grad = merit_rgrad(p, x, shifts, grads)
    grad_norm = tangent_norm(grad)

    def tolerance(grads):
        return max(eps, min(eps_cap, REL_STOP * multiplier_gap(shifts, grads, rho)))

    tol = tolerance(grads)
    best_x, best_grad, best_gn = x, grad, grad_norm
    recent_vals = deque([val], maxlen=NONMONOTONE_MEMORY)
    recent_gns = deque([grad_norm], maxlen=NONMONOTONE_MEMORY)
    step = INIT_STEP / max(rho, 1.0)
    no_improve = 0
    iters = trials = 0
    while iters < INNER_MAX_ITERS and best_gn > tol and no_improve < 100:
        t = step
        accepted = False
        # below this decrease the merit comparison is pure rounding noise
        slack = 1e-14 * (1.0 + abs(val))
        ref_val, ref_gn = max(recent_vals), max(recent_gns)
        for _ in range(60):
            trials += 1
            try:
                x_try = retract(p.manifold, x, -t * grad)
            except RankDeficiencyError:
                t *= BACKTRACK
                continue
            val_try, grads = merit_eval(p, x_try, shifts, rho)
            required = ARMIJO_C * t * grad_norm**2
            grad_try = None
            if required >= 10.0 * slack:
                if val_try <= ref_val - required:
                    accepted = True
                    break
            elif val_try <= ref_val + slack:
                # requested decrease is unresolvable in floating point; keep
                # polishing as long as the gradient norm stays within reference
                grad_try = merit_rgrad(p, x_try, shifts, grads)
                gn_try = tangent_norm(grad_try)
                if gn_try <= ref_gn:
                    accepted = True
                    break
            t *= BACKTRACK
        if not accepted:
            break
        if grad_try is None:
            grad_try = merit_rgrad(p, x_try, shifts, grads)
            gn_try = tangent_norm(grad_try)
        # s is the tangent step -t grad on fixed rank, x_try - x on the sphere
        step = abb_step(*bb_pair(x, x_try, grad, grad_try, t, grad_norm, gn_try), t)
        x, val, grad, grad_norm = x_try, val_try, grad_try, gn_try
        recent_vals.append(val)
        recent_gns.append(grad_norm)
        iters += 1
        if grad_norm < best_gn:
            best_x, best_grad, best_gn = x, grad, grad_norm
            tol = tolerance(grads)
            no_improve = 0
        else:
            no_improve += 1
    return SubproblemResult(best_x, best_grad, best_gn, iters, trials, stalled=best_gn > tol, tol=tol)


def _clip_multiplier(v):
    return None if v is None else np.clip(np.asarray(v, dtype=float), -MULTIPLIER_BOUND, MULTIPLIER_BOUND)


def distance_to_reference(p: ProblemInstance, x, y, z, reference):
    """d(x, x_ref) + ||y - y_ref|| + ||z - z_ref||; NaN without a reference."""
    if reference is None:
        return float("nan")
    x_ref, y_ref, z_ref = reference
    d = distance(p.manifold, x, x_ref) + norm(np.asarray(y) - np.asarray(y_ref))
    if z is not None and z_ref is not None:
        d += norm(np.asarray(z) - np.asarray(z_ref))
    return d


def _finite_residual(comps, k: int) -> float:
    """The KKT residual R from its components; a NaN or infinite R ends the run."""
    r_sum = float(sum(comps))
    if not np.isfinite(r_sum):
        raise ValueError(f"non-finite KKT residual at outer iteration {k}")
    return r_sum


def alm_run(
    p: ProblemInstance,
    config: ALMConfig,
    x0: Point,
    y0=None,
    z0=None,
    reference=None,
) -> ALMResult:
    """Run the full method of multipliers until the KKT residual is small.

    Termination uses the max of the three residual components against
    ``config.kkt_tol``; the summed residual R is logged in the history.  The
    safeguard pair (w, p) is the componentwise clamp of the running
    multipliers to the configured bound.  Every subproblem stops once its
    gradient norm is at most max(``kkt_tol``, min(``eps0``, ``REL_STOP`` * V))
    at its best iterate (``subproblem_solve`` with ``eps = kkt_tol`` and
    ``eps_cap = eps0``), so the inexactness shrinks with the multiplier step
    and never goes below the run's stopping tolerance.  Each record's
    ``inner_tol`` is the tolerance its subproblem stopped against.

    Returns the final triple with one history record per outer iteration
    (plus a k = 0 record for the initial state).  Raises ValueError at the
    first outer iteration whose KKT residual is not finite.
    """
    config.validate()
    check_point(p.manifold, x0)
    y = np.zeros(p.g1.out_shape) if y0 is None else np.asarray(y0, dtype=float).copy()
    z = None
    if p.q is not None:
        z = np.zeros(p.g2.out_shape) if z0 is None else np.asarray(z0, dtype=float).copy()
    x = x0
    rho = config.rho0
    t_start = time.perf_counter()

    comps = kkt_residual_components(p, x, y, z)
    history = [
        IterationRecord(
            k=0,
            rho=rho,
            kkt_residual=_finite_residual(comps, 0),
            aux_v=auxiliary_v(p, x, y, z, rho),
            inner_grad_norm=comps[0],
            inner_iters=0,
            inner_trials=0,
            inner_tol=float("nan"),
            wall_time=time.perf_counter() - t_start,
            dist_to_reference=distance_to_reference(p, x, y, z, reference),
        )
    ]
    if max(comps) <= config.kkt_tol:
        return ALMResult("converged", x, y, z, history)

    v_prev = None
    stall_streak = 0
    best_maxcomp = max(comps)
    for k in range(config.max_outer):
        w = _clip_multiplier(y)
        p_mult = _clip_multiplier(z)
        sub = subproblem_solve(p, w, p_mult, rho, x, config.kkt_tol, config.eps0)
        x = sub.x
        y_new, z_new, gaps = update_multipliers(p, x, w, p_mult, rho)
        v_new = max(gaps)
        blocks = kkt_blocks(p, x, y_new, z_new)
        comps = _block_norms(p, blocks)
        r_new = _finite_residual(comps, k + 1)

        # invariant diagnostics (see module tests): chain identity, multiplier
        # consistency, and the per-iteration residual bound
        chain_gap = norm(np.asarray(sub.grad) - blocks[0])
        mult_gap = comps[1] - gaps[0]
        bound = sub.grad_norm + norm(y_new - w) / rho
        if z_new is not None:
            bound += norm(z_new - p_mult) / rho
        history.append(
            IterationRecord(
                k=k + 1,
                rho=rho,
                kkt_residual=r_new,
                aux_v=v_new,
                inner_grad_norm=sub.grad_norm,
                inner_iters=sub.iters,
                inner_trials=sub.trials,
                inner_tol=sub.tol,
                wall_time=time.perf_counter() - t_start,
                dist_to_reference=distance_to_reference(p, x, y_new, z_new, reference),
                chain_gap=chain_gap,
                residual_bound_slack=r_new - bound,
                multiplier_consistency_gap=mult_gap,
            )
        )
        rho = penalty_update(v_new, v_prev, rho, config.gamma)
        y, z, v_prev = y_new, z_new, v_new
        if max(comps) <= config.kkt_tol:
            return ALMResult("converged", x, y, z, history)
        # a stalled subproblem does not end the run: the multiplier/penalty
        # updates often repair it; give up only after repeated stalls with no
        # residual progress
        if sub.stalled and max(comps) >= 0.9 * best_maxcomp:
            stall_streak += 1
            if stall_streak >= 5:
                return ALMResult("stalled", x, y, z, history)
        else:
            stall_streak = 0
        best_maxcomp = min(best_maxcomp, max(comps))
    return ALMResult("max_outer", x, y, z, history)
