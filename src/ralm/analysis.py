"""Numerical verification of optimality conditions, calmness and error bounds.

The checks operate at (approximate) KKT triples:

* ``msrcq_check`` tests the strict constraint qualification: the tangent
  image of the constraint Jacobians plus the closed-form sign-pattern
  generators of the cones must span the constraint space, which is decided
  by a rank test on the image rows no generator covers.
* ``msosc_check`` minimises the Riemannian Hessian form of the Lagrangian
  over the unit critical cone exactly: the smallest eigenvalue of the form
  on the cone's span, or, with one-sided generators, the smallest over the
  eigenvectors of the form compressed to each face of the cone.
* ``calmness_probe`` and ``error_bound_fit`` estimate the Lipschitz modulus
  of the KKT solution under perturbations and the two-sided residual bound
  constants.  The error-bound fit draws its samples one by one and then
  evaluates all of them in one stacked pass (the stack convention of
  ``ralm.manifolds``).
* ``figure1_config``, ``figure1_tail`` and ``fit_log_linear`` run the rate study.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .convex import psi_conjugate
from .manifolds import Point, distance, item_norm, norm, project_tangent, retract, tangent_basis
from .problems import ProblemInstance, hess_quadform, rhess_operator, tilted_instance
from .solver import ALMConfig, alm_run, distance_to_reference, kkt_residual, kkt_residual_components

KKT_GATE = 1e-6
# the residual a polished triple must reach before the probes run
POLISHED_KKT_GATE = 1e-9
RANK_TOL = 1e-8
CONE_TOL = 1e-8
# Cap on the condition checks' dense work, counted as the spanning system of
# dim_y + dim_z rows and up to dim M + dim_y + dim_z columns (tangent image
# plus one unit generator per constraint coordinate).
MAX_DENSE_ENTRIES = 10**8
# Cap on the one-sided generators (ray rows) of the critical cone: the exact
# M-SOSC check solves one eigenproblem per subset of them.
MAX_RAY_ROWS = 8


@dataclass(frozen=True)
class KKTTriple:
    x: Point
    y: np.ndarray
    z: Optional[np.ndarray]
    residual: float


def polish_kkt(p: ProblemInstance, x: Point, y, z=None, tol: float = 1e-10) -> KKTTriple:
    """Refine an approximate KKT triple with a tight warm-started run; a run
    that ends above its k = 0 residual hands back the input triple."""
    cfg = ALMConfig(rho0=100.0, kkt_tol=tol, max_outer=400)
    res = alm_run(p, cfg, x, y, z)
    start, end = res.history[0].kkt_residual, res.history[-1].kkt_residual
    if end > start:
        return KKTTriple(x, y, z, start)
    return KKTTriple(res.x, res.y, res.z, end)


def check_condition_size(p: ProblemInstance) -> None:
    """Raise ValueError when the dense condition systems would exceed
    ``MAX_DENSE_ENTRIES``."""
    dim_y = int(np.prod(p.g1.out_shape))
    dim_z = int(np.prod(p.g2.out_shape)) if p.q is not None else 0
    rows = dim_y + dim_z
    cols = p.manifold.dim + rows
    if rows * cols > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"condition check too large: dense {rows} x {cols} system "
            f"exceeds {MAX_DENSE_ENTRIES:.0e} entries"
        )


def _require_kkt(p: ProblemInstance, x: Point, y, z, gate: float = KKT_GATE) -> None:
    r = kkt_residual(p, x, y, z)
    if r > gate:
        raise ValueError(f"not an approximate KKT point: residual {r:.3e} > {gate:.1e}")


# ---------------------------------------------------------------------------
# generators for the sign-pattern cones


def _ctheta_generator_signs(theta, u, y, tol):
    """Per-coordinate generators of {d : theta^down(u; d) = <d, y>} for l1.

    Returns (free, pos, neg) boolean masks over flattened coordinates: free
    coordinates contribute a full line, pos/neg a one-sided ray.  A zero
    coordinate whose multiplier sits at both bounds (only possible when
    mu = 0) is unconstrained, hence free.
    """
    u = np.ravel(np.asarray(u, dtype=float))
    y = np.ravel(np.asarray(y, dtype=float))
    mu = theta.mu
    nonzero = np.abs(u) > tol
    at_upper = ~nonzero & (y >= mu - tol)
    at_lower = ~nonzero & (y <= -mu + tol)
    free = nonzero | (at_upper & at_lower)
    return free, at_upper & ~free, at_lower & ~free


def _tq_capz_generators(q, s, z, tol):
    """Per-coordinate generators of T_Q(s) intersected with z-perp for a box.

    A pinned coordinate (lower = upper) has none, an interior one spans a
    line, and one at a bound spans the inward ray when its multiplier is zero.
    """
    s = np.ravel(np.asarray(s, dtype=float))
    z = np.ravel(np.asarray(z, dtype=float))
    lo = np.ravel(q.lower)
    hi = np.ravel(q.upper)
    pinned = hi - lo <= tol
    at_lo = ~pinned & (s <= lo + tol)
    at_hi = ~pinned & (s >= hi - tol)
    unloaded = np.abs(z) <= tol
    return ~pinned & ~at_lo & ~at_hi, at_lo & unloaded, at_hi & unloaded


def _condition_system(p: ProblemInstance, x: Point, y, z):
    """The tangent basis, its Jacobian image and the cone-generator masks.

    The image has one column per basis vector and stacks the g1 rows over
    the g2 rows.  The (free, pos, neg) masks run over the same rows: a free
    row's unit vector spans a line of the cones (of theta at g1(x), and of
    T_Q(g2(x)) cut by z-perp), a pos/neg row's +/- unit vector a ray.
    Refuses an instance above ``MAX_DENSE_ENTRIES``, then a point that is
    not an approximate KKT point, before it builds anything.
    """
    check_condition_size(p)
    _require_kkt(p, x, y, z)
    xa = x.ambient
    basis = tangent_basis(p.manifold, x)
    maps = (p.g1,) if p.q is None else (p.g1, p.g2)
    # the basis is a stack of tangent vectors: one Jacobian call per map,
    # then one row per constraint coordinate
    img = np.concatenate([g.jacobian_apply(basis).reshape(len(basis), -1) for g in maps], axis=1).T
    masks = _ctheta_generator_signs(p.theta, p.g1.value(xa), y, CONE_TOL)
    if p.q is not None:
        masks_q = _tq_capz_generators(p.q, p.g2.value(xa), z, CONE_TOL)
        masks = tuple(np.concatenate(pair) for pair in zip(masks, masks_q))
    return basis, img, masks


@dataclass
class MsrcqReport:
    passed: bool
    rank_found: int
    rank_required: int
    n_generators: int


def msrcq_check(p: ProblemInstance, x: Point, y, z=None) -> MsrcqReport:
    """Strict constraint qualification as a numerical spanning test.

    Passes when the images of an orthonormal tangent basis under the
    constraint Jacobians, together with the closed-form cone generators,
    span the constraint space.  The generators are unit vectors, so the rank
    is the number of rows they cover plus the rank of the image on the other
    rows (singular values above RANK_TOL * max(1, sigma_max)).
    Instances above ``MAX_DENSE_ENTRIES`` raise ValueError.
    """
    return _msrcq(_condition_system(p, x, y, z))


def _msrcq(system) -> MsrcqReport:
    basis, img, (free, pos, neg) = system
    # each generator's unit column covers its own row, so
    # rank([img | generators]) = |covered| + rank(img[~covered])
    covered = free | pos | neg
    svals = np.linalg.svd(img[~covered], compute_uv=False)
    n_covered = int(np.sum(covered))
    rank = n_covered + int(np.sum(svals > RANK_TOL * max(1.0, svals.max(initial=0.0))))
    return MsrcqReport(rank == len(img), rank, len(img), len(basis) + n_covered)


# ---------------------------------------------------------------------------
# second order condition


@dataclass
class MsoscReport:
    status: str  # "pass" | "fail" | "vacuous" | "refused"
    min_value: float
    cone_nullity: int
    refusal: str = ""  # why a refused check did not run

    @property
    def passed(self) -> bool:
        return self.status in ("pass", "vacuous")

    def raise_if_refused(self) -> None:
        if self.status == "refused":
            raise ValueError(f"M-SOSC check too large: {self.refusal}")


def _null_space(a):
    """Orthonormal basis of the null space of ``a``, by the SVD rule of
    ``scipy.linalg.null_space`` with rcond = 1e-10: singular values above
    1e-10 * max(s) count as rank.  A tall ``a`` needs only its thin SVD: its
    V is square already."""
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    num = int(np.sum(s > np.max(s, initial=0.0) * 1e-10))
    return vh[num:].T


def _cone_min(h, rays):
    """Minimum of lam^T h lam over unit lam in the cone {rays @ lam >= 0}, as
    (value, lam), or None when the cone is {0}.

    A minimiser whose active rows are A is an eigenvector of h compressed to
    the face {rays[A] @ lam = 0}, so the minimum is the smallest eigenvalue
    whose eigenvector, of either sign, satisfies the other rows: one
    eigenproblem per subset of the rows.
    """
    best = None
    tol = CONE_TOL * max(1.0, float(np.max(np.abs(rays), initial=0.0)))
    for active in itertools.product((False, True), repeat=len(rays)):
        if any(active):
            face = _null_space(rays[list(active)])
            vals, vecs = np.linalg.eigh(face.T @ h @ face)
            vecs = face @ vecs
        else:
            vals, vecs = np.linalg.eigh(h)
        for val, lam in zip(vals, vecs.T):
            if best is not None and val >= best[0]:
                break
            feasible = [c for c in (lam, -lam) if np.all(rays @ c >= -tol)]
            if feasible:
                best = (float(val), feasible[0])
                break
    return best


def _hess_matrix(p: ProblemInstance, x: Point, z, dirs):
    """The matrix of <xi, Hess_x l(x, z) xi> on the orthonormal tangent
    directions ``dirs``, symmetric up to rounding (eigh reads its lower
    triangle)."""
    hdirs = rhess_operator(p, x, z)(dirs)
    return hdirs.reshape(len(dirs), -1) @ dirs.reshape(len(dirs), -1).T


def msosc_check(p: ProblemInstance, x: Point, y, z=None) -> MsoscReport:
    """Second order sufficiency over the critical cone (polyhedral sets only).

    The form ``<xi, Hess_x l(x, z) xi> - psi*(y)`` must stay above CONE_TOL
    on the unit critical cone.  Its minimum is found exactly (``_cone_min``),
    and the form is evaluated once, at the minimising direction.  Refuses
    the same instance sizes as ``msrcq_check``, and a cone with more than
    ``MAX_RAY_ROWS`` one-sided generators.
    """
    report = _msosc(p, x, y, z, _condition_system(p, x, y, z))
    report.raise_if_refused()
    return report


def _msosc(p: ProblemInstance, x: Point, y, z, system) -> MsoscReport:
    # the critical cone in coordinates on N, the null space of the image rows
    # no generator covers: the ray rows, oriented by their sign, are >= 0
    basis, img, (free, pos, neg) = system
    nmat = _null_space(img[~(free | pos | neg)])
    k1 = nmat.shape[1]
    if k1 == 0:
        return MsoscReport("vacuous", float("nan"), 0)
    rays = np.vstack([img[pos], -img[neg]]) @ nmat
    if len(rays) > MAX_RAY_ROWS:
        refusal = f"{len(rays)} one-sided cone generators exceed {MAX_RAY_ROWS}"
        return MsoscReport("refused", float("nan"), k1, refusal)
    found = _cone_min(_hess_matrix(p, x, z, np.tensordot(nmat.T, basis, axes=1)), rays)
    if found is None:
        return MsoscReport("vacuous", float("nan"), k1)
    xi = np.tensordot(nmat @ found[1], basis, axes=1)
    star = psi_conjugate(p.theta, p.g1.value(x.ambient), p.g1.jacobian_apply(xi), y, CONE_TOL, CONE_TOL)
    if not star.finite:
        return MsoscReport("fail", float("nan"), k1)
    value = hess_quadform(p, x, z, xi) - star.value
    return MsoscReport("pass" if value > CONE_TOL else "fail", value, k1)


@dataclass
class ConditionReport:
    msrcq: MsrcqReport
    msosc: MsoscReport
    critical_cone_trivial: bool
    kkt_residual: float
    tolerances: dict = field(default_factory=dict)


def condition_report(p: ProblemInstance, x: Point, y, z=None) -> ConditionReport:
    """``msrcq_check`` and ``msosc_check`` on one condition system (records a refused M-SOSC)."""
    system = _condition_system(p, x, y, z)
    msrcq = _msrcq(system)
    msosc = _msosc(p, x, y, z, system)
    return ConditionReport(
        msrcq=msrcq,
        msosc=msosc,
        critical_cone_trivial=(msosc.status == "vacuous"),
        kkt_residual=kkt_residual(p, x, y, z),
        tolerances={"kkt_gate": KKT_GATE, "rank": RANK_TOL, "cone": CONE_TOL},
    )


# ---------------------------------------------------------------------------
# calmness probe and error-bound fit


@dataclass
class RadiusRecord:
    radius: float
    trials: int
    failures: int
    max_ratio: float
    ratios: list[float] = field(default_factory=list)


@dataclass
class CalmnessReport:
    records: list[RadiusRecord]
    kappa_hat: float
    bounded: bool


@dataclass
class ErrorBoundFit:
    c1: float
    c2: float
    samples: list[tuple[float, float]]
    degenerate: bool = False


def _perturbation(p: ProblemInstance, radius, rng):
    """Uniform direction on the joint (a, b, c) sphere, scaled to the radius."""
    dim_a = int(np.prod(p.manifold.ambient_shape))
    dim_b = int(np.prod(p.g1.out_shape))
    dim_c = int(np.prod(p.g2.out_shape)) if p.q is not None else 0
    vec = rng.standard_normal(dim_a + dim_b + dim_c)
    vec *= radius / norm(vec)
    a = vec[:dim_a].reshape(p.manifold.ambient_shape)
    b = vec[dim_a : dim_a + dim_b].reshape(p.g1.out_shape)
    c = vec[dim_a + dim_b :].reshape(p.g2.out_shape) if dim_c else None
    return a, b, c


def calmness_probe(
    p: ProblemInstance,
    x: Point,
    y,
    z=None,
    radii=(1e-2, 1e-3, 1e-4, 1e-5),
    trials_per_radius: int = 20,
    seed: int = 0,
) -> CalmnessReport:
    """Empirical Lipschitz modulus of the KKT solution under data perturbations.

    Solves the tilted/shifted instance warm-started at the unperturbed triple
    and records (distance moved) / (perturbation size); the multiplier set is
    treated as the singleton (y, z), which is why the strict constraint
    qualification is verified first.  Each trial draws its perturbation from
    its own seed, all drawn before the first trial.
    """
    _require_kkt(p, x, y, z, POLISHED_KKT_GATE)
    if not msrcq_check(p, x, y, z).passed:
        raise ValueError("strict constraint qualification failed; multiplier may not be unique")
    records = []
    root = np.random.default_rng(seed)
    seeds = root.integers(0, 2**63 - 1, size=(len(radii), trials_per_radius))
    for radius, radius_seeds in zip(radii, seeds):
        tol = min(1e-10, radius * 1e-3)
        cfg = ALMConfig(rho0=100.0, kkt_tol=tol, max_outer=300)
        ratios = []
        for trial_seed in radius_seeds:
            a, b, c = _perturbation(p, radius, np.random.default_rng(trial_seed))
            res = alm_run(tilted_instance(p, a, b, c), cfg, x, y, z)
            if res.converged:
                ratios.append(distance_to_reference(p, res.x, res.y, res.z, (x, y, z)) / radius)
        failures = trials_per_radius - len(ratios)
        records.append(
            RadiusRecord(
                radius=radius,
                trials=trials_per_radius,
                failures=failures,
                max_ratio=max(ratios) if ratios else float("nan"),
                ratios=ratios,
            )
        )
    kappa = max((r.max_ratio for r in records if r.ratios), default=float("nan"))
    # with no converged trial there is no ratio to bound
    ordered = sorted((r for r in records if r.ratios), key=lambda r: -r.radius)
    bounded = bool(ordered) and all(
        ordered[i + 1].max_ratio <= 2.0 * ordered[i].max_ratio for i in range(len(ordered) - 1)
    )
    return CalmnessReport(records=records, kappa_hat=kappa, bounded=bounded)


def error_bound_fit(
    p: ProblemInstance,
    x: Point,
    y,
    z=None,
    n_samples: int = 500,
    radius: float = 0.05,
    seed: int = 0,
) -> ErrorBoundFit:
    """Fit the two-sided constants of dist <= c R and R <= dist / c around a KKT point.

    Each sample moves x along a random tangent direction by a uniform
    length below ``radius`` (a zero direction keeps x), and each multiplier
    by a random vector of such a length.  The samples are drawn one by one,
    then evaluated as one stack: one retraction, one distance and one KKT
    residual call for all of them.
    """
    _require_kkt(p, x, y, z, POLISHED_KKT_GATE)
    rng = np.random.default_rng(seed)
    mults = [np.asarray(m, dtype=float) for m in ((y,) if z is None else (y, z))]
    shapes = [p.manifold.ambient_shape] + [m.shape for m in mults]
    # sample by sample: a direction and a length for x, then for each multiplier
    draws = [[(rng.standard_normal(shape), rng.uniform(0.0, radius)) for shape in shapes] for _ in range(n_samples)]
    # per part: the stacked directions and their lengths
    (dirs, lengths), *mult_draws = [tuple(map(np.array, zip(*part))) for part in zip(*draws)]

    def per_item(a, shape):  # a (k,) array against a stack of items of ``shape``
        return a.reshape(a.shape + (1,) * len(shape))

    xi = project_tangent(p.manifold, x, dirs)
    nrm = item_norm(xi, len(shapes[0]))
    moved = nrm > 0
    step = np.divide(lengths, nrm, out=np.zeros_like(nrm), where=moved)
    x_s = retract(p.manifold, x, per_item(step, shapes[0]) * xi)
    if not moved.all():  # a zero direction keeps x itself
        x_s = Point(*(b if a is None else np.where(per_item(moved, b.shape), a, b)
                      for a, b in zip(vars(x_s).values(), vars(x).values())))
    dist = distance(p.manifold, x_s, x)
    shifted = []
    for mult, (d, length) in zip(mults, mult_draws):
        d *= per_item(length / np.maximum(item_norm(d, mult.ndim), 1e-300), mult.shape)
        dist += item_norm(d, mult.ndim)
        shifted.append(mult + d)
    res = sum(kkt_residual_components(p, x_s, *shifted))
    samples = list(zip(dist.tolist(), res.tolist()))
    kept = res > 1e-14
    if not kept.any():
        return ErrorBoundFit(float("nan"), float("nan"), samples, degenerate=True)
    ratios = dist[kept] / res[kept]
    return ErrorBoundFit(c1=float(ratios.min()), c2=float(ratios.max()), samples=samples)


# ---------------------------------------------------------------------------
# fixed-penalty rate study


def fit_log_linear(values):
    """Least-squares slope and R^2 of log10(values) against the index."""
    vals = [v for v in values if v > 0]
    if len(vals) < 2:
        return float("nan"), float("nan")
    ks = np.arange(len(vals), dtype=float)
    logs = np.log10(vals)
    slope, intercept = np.polyfit(ks, logs, 1)
    pred = slope * ks + intercept
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    if ss_tot == 0:
        return float(slope), 1.0
    r2 = 1.0 - float(np.sum((logs - pred) ** 2)) / ss_tot
    return float(slope), r2


def figure1_tail(history):
    """Residual window for the rate fit: the last 10 completed iterations
    strictly before the tolerance-reaching record (falls back to including
    it when fewer than 3 points remain)."""
    rs = [rec.kkt_residual for rec in history[1:]]
    pre = [r for r in rs[:-1] if r > 0][-10:]
    if len(pre) >= 3:
        return pre
    return [r for r in rs if r > 0][-10:]


def figure1_config(rho: float) -> ALMConfig:
    return ALMConfig(
        rho0=rho,
        gamma=1.0,
        kkt_tol=1e-10,
        eps0=1e-3,
        max_outer=500,
    )
