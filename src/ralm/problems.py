"""Problem bundles: objective, nonsmooth composite term and set constraint.

A problem is  min f(x) + theta(g1(x))  s.t.  g2(x) in Q,  x in M,  with all
derivatives supplied in ambient coordinates and projected onto tangent spaces
when Riemannian quantities are needed.  Three built-in families, each built
by one constructor, cover the experiments: a two-dimensional circle instance
with an inequality constraint (``circle_problem``), an l1-penalised quadratic
on the sphere (``sphere_l1_problem``), and robust matrix completion on the
fixed-rank manifold (``rmc_problem``).  The instance data of the experiments (the circle's KKT
triple, the RMC instances and their initial point) live here too.

Every map and objective takes a stack along leading axes (see
``ralm.manifolds``): ``value_grad`` of a stack of points returns one value per
point and the stacked gradients, and ``jacobian_apply``, ``jacobian_adjoint``
and ``ehess_apply`` map each item.  ``lagrangian_rgrad`` at a stacked point,
with stacked multipliers, gives the stacked gradients.  A single point is the
stack-free case, with the same floating-point operations.
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
    (None: no such structure).  Where the offset and the multiplier vanish
    off the support, the merit reads x at the support only (``merit_shifts``).
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
    ``ehess_apply(x, xi)`` is the Euclidean Hessian of f at x applied to xi.
    On a stack of points f(x) has one value per point."""

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


def _per_point(value):
    """f at a single point as a float; at a stack of points, one value per point."""
    return float(value) if value.ndim == 0 else value


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
    d2f = np.array([0.0, 2.0])  # the Hessian's diagonal: egrad f(x) = d2f * x
    f = Objective(
        value_grad=lambda x: (_per_point(x[..., 1] ** 2), d2f * x),
        ehess_apply=lambda x, xi: d2f * xi,
    )
    d1, d2 = np.array([1.0, -1.0]), np.array([2.0, 1.0])  # the rows of Dg1, Dg2
    g1 = SmoothMap(
        jacobian_apply=lambda xi: xi[..., :1] - xi[..., 1:],
        jacobian_adjoint=lambda y: y[..., :1] * d1,
        offset=np.zeros(1),
    )
    g2 = SmoothMap(
        jacobian_apply=lambda xi: 2.0 * xi[..., :1] + xi[..., 1:],
        jacobian_adjoint=lambda z: z[..., :1] * d2,
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
        g = np.matvec(ata, x)
        return _per_point(np.vecdot(-x, g)), -2.0 * g

    f = Objective(value_grad=value_grad, ehess_apply=lambda x, xi: -2.0 * np.matvec(ata, xi))
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

    def value_grad(x):  # f = 0: a zero value per point and a zero gradient
        if x.shape == zero.shape:  # the solver's case, without a broadcast view
            return 0.0, zero
        return np.zeros(x.shape[:-2]), np.broadcast_to(zero, x.shape)

    f = Objective(value_grad=value_grad, ehess_apply=lambda x, xi: np.broadcast_to(zero, xi.shape))
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
    required with Q).  Stacked points and multipliers give stacked gradients."""
    require_set_multiplier(p, z, "z")
    g = p.f.value_grad(x.ambient)[1] + p.g1.jacobian_adjoint(np.asarray(y, dtype=float))
    if p.g2 is not None:
        g = g + p.g2.jacobian_adjoint(np.asarray(z, dtype=float))
    return project_tangent(p.manifold, x, g)


class MeritShifts(NamedTuple):
    """The constants of one subproblem's merit, from ``merit_shifts``.

    ``w_shift``, ``p_shift`` and ``support`` enter L_rho (``merit_eval``);
    ``w_on`` and ``p_mult`` are the parts of the multiplier gap that do not
    depend on x (``multiplier_gap``).
    """

    w_shift: np.ndarray  # the envelope argument's constant part
    p_shift: Optional[np.ndarray]  # p/rho (None without Q)
    w_on: np.ndarray  # w where the envelope runs
    p_mult: Optional[np.ndarray]  # p (None without Q)
    support: Optional[np.ndarray]  # where the envelope runs (None: every entry)


def merit_shifts(p: ProblemInstance, w, p_mult, rho: float) -> MeritShifts:
    """The constants inside L_rho and its multiplier gap, once per subproblem.

    The envelope runs on g1's support S when g1 has one and both its offset
    and w vanish off S: there the envelope argument is 0 whatever x is, and
    adds exactly 0 to the value, the gradient and the multiplier gap.  The
    shift is then g1's offset plus w/rho at S, to which ``merit_eval`` adds
    x at S; no map is evaluated.  Otherwise (no support, a tilt b or a
    multiplier w off S) the shift is w/rho and the envelope runs on every
    entry of g1(x).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    p_mult = None if p.q is None else np.asarray(p_mult)
    p_shift = None if p_mult is None else p_mult / rho
    w = np.asarray(w)
    support = p.g1.support
    if support is not None:
        offset, w_flat = p.g1.offset.ravel(), w.ravel()
        offset_on, w_on = offset[support], w_flat[support]
        # every nonzero of the offset and of w lies on S: both vanish off it
        nnz = np.count_nonzero
        if nnz(offset_on) == nnz(offset) and nnz(w_on) == nnz(w_flat):
            return MeritShifts(offset_on + w_on / rho, p_shift, w_on, p_mult, support)
    return MeritShifts(w / rho, p_shift, w, p_mult, None)


def merit_eval(p: ProblemInstance, x: Point, shifts: MeritShifts, rho: float):
    """L_rho(x, w, p) together with the envelope and distance gradients.

    L_rho(x, w, p) = f(x) + env_rho(g1(x) + w/rho) + (rho/2) dist^2(g2(x) + p/rho, Q),
    with ``shifts`` from ``merit_shifts``.  On the support path the envelope
    runs on the support entries of x only.  f is evaluated once, value and
    gradient together.  Returns ``(value, (f_grad, env_grad, d_grad))``
    (env_grad over the entries the envelope ran on, d_grad None without Q);
    ``merit_rgrad`` completes the Riemannian gradient from these, so a point
    whose gradient is needed is still evaluated only once.
    """
    xa = x.ambient
    if shifts.support is None:
        u = p.g1.value(xa) + shifts.w_shift
    else:
        u = xa.ravel()[shifts.support] + shifts.w_shift
    env_val, env_grad = moreau_env(p.theta, u, rho)
    f_val, f_grad = p.f.value_grad(xa)
    val = f_val + env_val
    d_grad = None
    if p.q is not None:
        d_val, d_grad = dist2_grad(p.q, p.g2.value(xa) + shifts.p_shift, rho)
        val += d_val
    return val, (f_grad, env_grad, d_grad)


def merit_rgrad(p: ProblemInstance, x: Point, shifts: MeritShifts, grads):
    """Riemannian gradient of L_rho at x from the gradients ``merit_eval``
    returned with ``shifts``: the envelope/distance chain rule followed by a
    tangent projection (``tangent_vector``).  On the support path, the chain
    rule scatters the envelope gradient back to the support entries."""
    f_grad, env_grad, d_grad = grads
    if shifts.support is None:
        ambient = f_grad + p.g1.jacobian_adjoint(env_grad)
    else:
        # a copy: f_grad may be shared (RMC's read-only zero)
        ambient = np.array(f_grad, dtype=float)
        ambient.reshape(-1)[shifts.support] += env_grad
    if d_grad is not None:
        ambient = ambient + p.g2.jacobian_adjoint(d_grad)
    return tangent_vector(p.manifold, x, ambient)


def multiplier_gap(shifts: MeritShifts, grads, rho: float) -> float:
    """The penalty rule's V = max(|y+ - w|, |z+ - p|) / rho at the point where
    ``merit_eval`` returned ``grads``, with no further evaluation.

    The multiplier step y+ is the envelope gradient (on the support path it
    is 0 off the support, as w is) and z+ is the distance gradient, so V
    equals ``max(update_multipliers(...)[2])`` up to rounding.
    """
    _, env_grad, d_grad = grads
    diff = env_grad - shifts.w_on
    gap = math.sqrt(float(np.vdot(diff, diff))) / rho
    if d_grad is not None:
        diff = d_grad - shifts.p_mult
        gap = max(gap, math.sqrt(float(np.vdot(diff, diff))) / rho)
    return gap


def aug_lagrangian_value(p: ProblemInstance, x: Point, w, p_mult, rho: float) -> float:
    return merit_eval(p, x, merit_shifts(p, w, p_mult, rho), rho)[0]


def aug_lagrangian(p: ProblemInstance, x: Point, w, p_mult, rho: float):
    """Augmented Lagrangian value and its exact Riemannian gradient."""
    shifts = merit_shifts(p, w, p_mult, rho)
    val, grads = merit_eval(p, x, shifts, rho)
    return val, merit_rgrad(p, x, shifts, grads)


def tilted_instance(p: ProblemInstance, a=None, b=None, c=None) -> ProblemInstance:
    """Perturbed copy: f - <a, x> (ambient tilt), g1 + b and g2 + c shifts.

    A shift moves a map's offset and shares its linear part.  The original
    instance is untouched; the calmness probe builds many of these.
    """
    new = p
    if a is not None:
        a = np.asarray(a, dtype=float)
        item_axes = tuple(range(-a.ndim, 0))
        f0 = p.f

        def value_grad(x):
            val, grad = f0.value_grad(x)
            return _per_point(val - (a * x).sum(axis=item_axes)), grad - a

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
    taken once for every direction, or stack of directions at x.

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
