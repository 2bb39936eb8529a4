"""Problem bundles: objective, nonsmooth composite term and set constraint.

A problem is  min f(x) + theta(g1(x))  s.t.  g2(x) in Q,  x in M,  with all
derivatives supplied in ambient coordinates and projected onto tangent spaces
when Riemannian quantities are needed.  Three built-in families, each built
by one constructor, cover the experiments: a two-dimensional circle instance
with an inequality constraint (``circle_problem``), an l1-penalised quadratic
on the sphere (``sphere_l1_problem``), and robust matrix completion on the
fixed-rank manifold (``rmc_problem``).  The instance data of the experiments (the circle's KKT
triple, the RMC instances and their initial point) live here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .convex import Box, ScaledL1, dist2_grad, l1_value, moreau_env
from .manifolds import (
    FixedRank,
    Manifold,
    Point,
    Sphere,
    nearest_rank_r,
    project_tangent,
    sphere_point,
    tangent_vector,
    weingarten,
)


@dataclass(frozen=True)
class SmoothMap:
    """An affine map of the ambient space: a linear part plus an offset.

    Every g1 and g2 of the program is affine, so the Jacobian is the same at
    every x: ``jacobian_apply(xi)`` and ``jacobian_adjoint(y)`` take only the
    direction, and ``rhess_operator`` and the condition checks take the second
    derivative to be zero.  ``value`` and ``out_shape`` derive from the linear
    part and ``offset``.  ``support`` marks a map that reads x entrywise: at
    these flat indices value(x) = x + offset, and elsewhere value(x) = offset
    (None: no such structure).  The merit then reads x at the support only.
    """

    jacobian_apply: Callable[[np.ndarray], np.ndarray]
    jacobian_adjoint: Callable[[np.ndarray], np.ndarray]
    offset: np.ndarray
    support: Optional[np.ndarray] = None

    @property
    def out_shape(self) -> tuple:
        return self.offset.shape

    def value(self, x) -> np.ndarray:
        return self.jacobian_apply(x) + self.offset


@dataclass(frozen=True)
class Objective:
    """The smooth term f in ambient coordinates: ``value_grad(x)`` returns
    (f(x), egrad f(x)) from one call, since the two share work (A^T A x on
    the sphere) and the merit wants both at each trial point;
    ``ehess_apply(x, xi)`` is the Euclidean Hessian of f at x applied to xi."""

    value_grad: Callable[[np.ndarray], tuple[float, np.ndarray]]
    ehess_apply: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ProblemInstance:
    manifold: Manifold
    f: Objective
    g1: SmoothMap
    theta: ScaledL1
    g2: Optional[SmoothMap] = None
    q: Optional[Box] = None
    label: str = ""

    def __post_init__(self):
        if (self.g2 is None) != (self.q is None):
            raise ValueError("g2 and Q must be supplied together")
        if self.g2 is not None and self.g2.out_shape != tuple(self.q.shape):
            raise ValueError("g2 output shape inconsistent with Q")


# ---------------------------------------------------------------------------
# built-in families


# the fixed 5x5 demo matrix for the sphere family (block diagonal, dominant
# second eigendirection)
SPHERE_L1_DEMO_A = np.array(
    [
        [10.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 25.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.028, 1.104, 0.0],
        [0.0, 0.0, 1.104, 1.672, 0.0],
        [0.0, 0.0, 0.0, 0.0, 8.0],
    ]
)


def circle_reference():
    """The circle instance's KKT triple (x, y, z): the solver's reference point."""
    s2 = math.sqrt(2.0) / 2.0
    return sphere_point([s2, s2]), np.array([s2]), np.array([0.0])


def rmc_basic_instance():
    """The fixed 5x5 rank-3 instance with outliers in the lower-right block.

    The outliers come from the constant seed 42: with that draw the ground
    truth stays the global optimum, which the known-answer checks compare
    against; most other draws lose that, so the instance takes no seed.
    """
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
    e_out[3:, 3:] = 0.5 * np.random.default_rng(42).standard_normal((2, 2))
    return a_exact + e_out, np.ones((5, 5), dtype=bool), a_exact


def generate_rmc_instance(m: int, n: int, r: int, oversample: float, seed: int):
    """Random low-rank ground truth, uniform mask, sparse exponential outliers.

    Sample size oversample*(m+n-r)*r; 3% of the samples carry exponential
    (mean 10) outliers.
    """
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank must satisfy 1 <= r <= min(m, n), got {r}")
    if not 0 < oversample < math.inf:
        raise ValueError(f"oversample must be positive and finite, got {oversample}")
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((m, r))
    right = rng.standard_normal((n, r))
    a_exact = left @ right.T
    n_samp = int(oversample * (m + n - r) * r)
    if n_samp > m * n:
        raise ValueError("oversample too large: more samples than entries")
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


def circle_problem() -> ProblemInstance:
    """min x2^2 + |x1 - x2|  s.t.  2 x1 + x2 >= 0  on the unit circle."""
    f = Objective(
        value_grad=lambda x: (float(x[1] ** 2), np.array([0.0, 2.0 * x[1]])),
        ehess_apply=lambda x, xi: np.array([0.0, 2.0 * xi[1]]),
    )
    g1 = SmoothMap(
        jacobian_apply=lambda xi: np.array([xi[0] - xi[1]]),
        jacobian_adjoint=lambda y: float(y[0]) * np.array([1.0, -1.0]),
        offset=np.zeros(1),
    )
    g2 = SmoothMap(
        jacobian_apply=lambda xi: np.array([2.0 * xi[0] + xi[1]]),
        jacobian_adjoint=lambda z: float(z[0]) * np.array([2.0, 1.0]),
        offset=np.zeros(1),
    )
    return ProblemInstance(
        manifold=Sphere(2),
        f=f,
        g1=g1,
        theta=ScaledL1(1.0),
        g2=g2,
        q=Box(np.zeros(1), np.full(1, np.inf)),
        label="circle",
    )


def sphere_l1_problem(a, mu: float) -> ProblemInstance:
    """min -x^T A^T A x + mu |x|_1 on the unit sphere."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    n = a.shape[0]
    ata = a.T @ a

    def value_grad(x):
        g = ata @ x
        return float(-x @ g), -2.0 * g

    f = Objective(value_grad=value_grad, ehess_apply=lambda x, xi: -2.0 * (ata @ xi))
    g1 = SmoothMap(
        jacobian_apply=lambda xi: xi.copy(),
        jacobian_adjoint=lambda y: y.copy(),
        offset=np.zeros(n),
    )
    return ProblemInstance(
        manifold=Sphere(n),
        f=f,
        g1=g1,
        theta=ScaledL1(mu),
        label=f"sphere-l1(n={n}, mu={mu})",
    )


def rmc_problem(a, mask, r: int) -> ProblemInstance:
    """min |P_Omega(X - A)|_1 over rank-r matrices (robust matrix completion)."""
    a = np.asarray(a, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.shape:
        raise ValueError("mask shape must match A")
    m, n = a.shape
    proj = mask.astype(float)
    zero = np.zeros((m, n))
    zero.setflags(write=False)
    f = Objective(value_grad=lambda x: (0.0, zero), ehess_apply=lambda x, xi: zero)
    g1 = SmoothMap(
        jacobian_apply=lambda xi: proj * xi,
        jacobian_adjoint=lambda y: proj * y,  # masking is self-adjoint
        offset=proj * -a,
        # P_Omega(X - A) is X - A on the observed entries and 0 elsewhere; a
        # full mask leaves nothing to skip
        support=None if mask.all() else np.flatnonzero(mask),
    )
    return ProblemInstance(
        manifold=FixedRank(m, n, r),
        f=f,
        g1=g1,
        theta=ScaledL1(1.0),
        label=f"rmc({m}x{n}, r={r})",
    )


# ---------------------------------------------------------------------------
# Lagrangian machinery


def require_set_multiplier(p: ProblemInstance, z, name: str) -> None:
    if p.q is not None and z is None:
        raise ValueError(f"the problem has a set constraint: {name} is required")


def lagrangian_rgrad(p: ProblemInstance, x: Point, y, z=None) -> np.ndarray:
    """Riemannian gradient of L(., y, z): projected ambient gradient (z
    required with Q)."""
    require_set_multiplier(p, z, "z")
    g = p.f.value_grad(x.ambient)[1] + p.g1.jacobian_adjoint(np.asarray(y, dtype=float))
    if p.g2 is not None:
        g = g + p.g2.jacobian_adjoint(np.asarray(z, dtype=float))
    return project_tangent(p.manifold, x, g)


class MeritShifts(NamedTuple):
    """The constants of one subproblem's merit, from ``merit_shifts``.

    ``w_shift``, ``p_shift`` and ``env_off`` enter L_rho (``merit_eval``);
    ``w_on``, ``p_mult`` and ``gap_off`` are the parts of the multiplier gap
    that do not depend on x (``multiplier_gap``).
    """

    w_shift: np.ndarray  # the envelope argument's constant part
    p_shift: Optional[np.ndarray]  # p/rho (None without Q)
    env_off: float  # the envelope off the support
    w_on: np.ndarray  # w where the envelope runs
    p_mult: Optional[np.ndarray]  # p (None without Q)
    gap_off: float  # |y+ - w|^2 off the support


def merit_shifts(p: ProblemInstance, w, p_mult, rho: float) -> MeritShifts:
    """The constants inside L_rho and its multiplier gap, once per subproblem.

    Without a support the shift is w/rho and the envelope runs on every
    entry, so the off-support terms are 0.  With a support S the shift is
    g1's offset plus w/rho at S, to which ``merit_eval`` adds x at S; no map
    is evaluated.  Off S the envelope argument u0 = offset + w/rho does not
    depend on x, and neither does the multiplier step there: ``env_off`` is
    the envelope of u0 and ``gap_off`` is |rho clamp(u0) - w|^2 over those
    entries.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    p_mult = None if p.q is None else np.asarray(p_mult)
    p_shift = None if p_mult is None else p_mult / rho
    w = np.asarray(w)
    w_shift = w / rho
    support = p.g1.support
    if support is None:
        return MeritShifts(w_shift, p_shift, 0.0, w, p_mult, 0.0)
    u0 = (p.g1.offset + w_shift).ravel()
    off = np.ones(u0.size, dtype=bool)
    off[support] = False
    u_off = u0[off]
    # 0 for RMC itself, whose multipliers stay 0 off the observed entries; a
    # tilt or a warm-started multiplier may move it
    env_off, y_off = moreau_env(p.theta, u_off, rho) if u_off.any() else (0.0, 0.0)
    w_flat = w.ravel()
    gap_off = float(np.sum((y_off - w_flat[off]) ** 2))
    return MeritShifts(u0[support], p_shift, env_off, w_flat[support], p_mult, gap_off)


def merit_eval(p: ProblemInstance, x: Point, shifts: MeritShifts, rho: float):
    """L_rho(x, w, p) together with the envelope and distance gradients.

    L_rho(x, w, p) = f(x) + env_rho(g1(x) + w/rho) + (rho/2) dist^2(g2(x) + p/rho, Q),
    with ``shifts`` from ``merit_shifts``.  When g1 has a support, the
    envelope runs on the support entries only, and the shifts supply the
    constant term of the others.  f is evaluated once, value and gradient
    together.  Returns ``(value, (f_grad, env_grad, d_grad))`` (env_grad over
    the support entries, d_grad None without Q); ``merit_rgrad`` completes
    the Riemannian gradient from these, so a point whose gradient is needed
    is still evaluated only once.
    """
    xa = x.ambient
    if p.g1.support is None:
        u = p.g1.value(xa) + shifts.w_shift
    else:
        u = xa.ravel()[p.g1.support] + shifts.w_shift
    env_val, env_grad = moreau_env(p.theta, u, rho)
    f_val, f_grad = p.f.value_grad(xa)
    val = f_val + env_val + shifts.env_off
    d_grad = None
    if p.q is not None:
        d_val, d_grad = dist2_grad(p.q, p.g2.value(xa) + shifts.p_shift, rho)
        val += d_val
    return val, (f_grad, env_grad, d_grad)


def merit_rgrad(p: ProblemInstance, x: Point, grads):
    """Riemannian gradient of L_rho at x from the gradients ``merit_eval``
    returned: the envelope/distance chain rule followed by a tangent
    projection (``tangent_vector``).  With a support, the chain rule
    scatters the envelope gradient back to the support entries."""
    f_grad, env_grad, d_grad = grads
    if p.g1.support is None:
        ambient = f_grad + p.g1.jacobian_adjoint(env_grad)
    else:
        # a copy: f_grad may be shared (RMC's read-only zero)
        ambient = np.array(f_grad, dtype=float)
        ambient.reshape(-1)[p.g1.support] += env_grad
    if d_grad is not None:
        ambient = ambient + p.g2.jacobian_adjoint(d_grad)
    return tangent_vector(p.manifold, x, ambient)


def multiplier_gap(shifts: MeritShifts, grads, rho: float) -> float:
    """The penalty rule's V = max(|y+ - w|, |z+ - p|) / rho at the point where
    ``merit_eval`` returned ``grads``, with no further evaluation.

    The multiplier step y+ is the envelope gradient (on the support; the
    constant rest is in ``shifts.gap_off``) and z+ is the distance gradient,
    so V equals ``max(update_multipliers(...)[2])`` up to rounding.
    """
    _, env_grad, d_grad = grads
    diff = env_grad - shifts.w_on
    gap = math.sqrt(float(np.vdot(diff, diff)) + shifts.gap_off) / rho
    if d_grad is not None:
        diff = d_grad - shifts.p_mult
        gap = max(gap, math.sqrt(float(np.vdot(diff, diff))) / rho)
    return gap


def aug_lagrangian_value(p: ProblemInstance, x: Point, w, p_mult, rho: float) -> float:
    return merit_eval(p, x, merit_shifts(p, w, p_mult, rho), rho)[0]


def aug_lagrangian(p: ProblemInstance, x: Point, w, p_mult, rho: float):
    """Augmented Lagrangian value and its exact Riemannian gradient."""
    val, grads = merit_eval(p, x, merit_shifts(p, w, p_mult, rho), rho)
    return val, merit_rgrad(p, x, grads)


def tilted_instance(p: ProblemInstance, a=None, b=None, c=None) -> ProblemInstance:
    """Perturbed copy: f - <a, x> (ambient tilt), g1 + b and g2 + c shifts.

    A shift moves a map's offset and shares its linear part.  The original
    instance is untouched; the calmness probe builds many of these.
    """
    new = p
    if a is not None:
        a = np.asarray(a, dtype=float)
        f0 = p.f

        def value_grad(x):
            val, grad = f0.value_grad(x)
            return val - float((a * x).sum()), grad - a

        new = replace(new, f=replace(f0, value_grad=value_grad))
    if b is not None:
        new = replace(new, g1=replace(p.g1, offset=p.g1.offset + b))
    if c is not None:
        if p.g2 is None:
            raise ValueError("cannot shift g2: instance has no set constraint")
        new = replace(new, g2=replace(p.g2, offset=p.g2.offset + c))
    return replace(new, label=p.label + "+tilt")


def rhess_operator(p: ProblemInstance, x: Point, z):
    """xi -> Hess_x l(x, z)[xi] for l = f + <z, g2> and a tangent xi (z
    required with Q), as a dense ambient array, with the ambient gradient G
    taken once for every direction.

    The projected Euclidean Hessian P_x(ehess f(x) xi) plus the manifold's
    Weingarten map at G = egrad f + Dg2^T z (``weingarten``); g2 is affine, so
    it enters through G only.  <y, g1> is left out: g1 is affine too, so what
    it would add is the Weingarten map at Dg1^T y.  Whether M-SOSC should carry
    that part is open (ROADMAP.md, item 13).
    """
    require_set_multiplier(p, z, "z")
    xa = x.ambient
    g = p.f.value_grad(xa)[1]
    if p.g2 is not None:
        g = g + p.g2.jacobian_adjoint(np.asarray(z, dtype=float))

    def apply(xi):
        xi = np.asarray(xi, dtype=float)
        return project_tangent(p.manifold, x, p.f.ehess_apply(xa, xi)) + weingarten(p.manifold, x, g, xi)

    return apply


def hess_quadform(p: ProblemInstance, x: Point, z, xi) -> float:
    """<xi, Hess_x l(x, z) xi> for l = f + <z, g2>, from ``rhess_operator``."""
    xi = np.asarray(xi, dtype=float)
    return float((xi * rhess_operator(p, x, z)(xi)).sum())


def objective_value(p: ProblemInstance, x: Point) -> float:
    """Composite objective f(x) + theta(g1(x))."""
    xa = x.ambient
    return p.f.value_grad(xa)[0] + l1_value(p.theta, p.g1.value(xa))
