import threading
from dataclasses import replace

import numpy as np
import pytest

from ralm import analysis, cli
from ralm.analysis import (
    MAX_RAY_ROWS,
    _cone_min,
    _ctheta_generator_signs,
    _hess_matrix,
    _null_space,
    _tq_capz_generators,
    calmness_probe,
    condition_report,
    error_bound_fit,
    msosc_check,
    msrcq_check,
    polish_kkt,
)
from ralm.cli import build_problem
from ralm.config import RunConfig
from ralm.convex import Box, ScaledL1
from ralm.manifolds import (
    FixedRank,
    Sphere,
    random_point,
    sphere_point,
    tangent_basis,
)
from ralm.problems import (
    SPHERE_L1_DEMO_A,
    Objective,
    ProblemInstance,
    SmoothMap,
    circle_problem,
    rhess_operator,
    rmc_problem,
    sphere_l1_problem,
    tilted_instance,
)
from ralm.solver import ALMConfig, alm_run, kkt_blocks, kkt_residual

from helpers import ray_cone_instance

RT2 = np.sqrt(2.0) / 2.0


def circle_solution():
    return sphere_point([RT2, RT2]), np.array([RT2]), np.array([0.0])


def stacked(blocks):
    """The natural map: the KKT blocks flattened into one vector."""
    return np.concatenate([b.ravel() for b in blocks if b is not None])


def solved_sphere_demo():
    p = sphere_l1_problem(SPHERE_L1_DEMO_A, 0.25)
    res = alm_run(p, ALMConfig(), sphere_point(np.ones(5) / np.sqrt(5)))
    trip = polish_kkt(p, res.x, res.y, res.z, tol=1e-10)
    return p, trip


class TestNaturalMap:
    def test_zero_at_known_solution(self):
        p = circle_problem()
        x, y, z = circle_solution()
        assert np.linalg.norm(stacked(kkt_blocks(p, x, y, z))) <= 1e-12

    def test_blockwise_norms_sum_to_residual(self):
        p = circle_problem()
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = random_point(p.manifold, rng)
            y = rng.standard_normal(1)
            z = rng.standard_normal(1)
            grad_block, theta_block, set_block = kkt_blocks(p, x, y, z)
            total = (
                np.linalg.norm(grad_block)
                + np.linalg.norm(theta_block)
                + np.linalg.norm(set_block)
            )
            assert total == pytest.approx(kkt_residual(p, x, y, z), abs=1e-13)

    def test_residual_zero_iff_map_zero(self):
        p, trip = solved_sphere_demo()
        blocks = kkt_blocks(p, trip.x, trip.y, trip.z)
        assert blocks[2] is None  # no set constraint
        assert np.linalg.norm(stacked(blocks)) <= 10 * max(trip.residual, 1e-12)

    def test_perturbing_y_off_kink_moves_first_block_only(self):
        p = circle_problem()
        x, y, z = circle_solution()
        delta = 1e-3  # stays inside the prox-inactive band |g1 + y| < mu
        grad0, theta0, set0 = kkt_blocks(p, x, y, z)
        grad1, theta1, set1 = kkt_blocks(p, x, y + delta, z)
        np.testing.assert_allclose(theta1, theta0, atol=1e-15)
        np.testing.assert_allclose(set1, set0, atol=1e-15)
        expected = p.g1.jacobian_adjoint(np.array([delta]))
        moved = grad1 - grad0
        from ralm.manifolds import project_tangent

        np.testing.assert_allclose(moved, project_tangent(p.manifold, x, expected), atol=1e-14)


def constant_zero_map(n):
    return SmoothMap(
        jacobian_apply=lambda xi: np.zeros(1),
        jacobian_adjoint=lambda y: np.zeros(n),
        offset=np.zeros(1),
    )


class TestMsrcq:
    def test_circle_passes(self):
        p = circle_problem()
        x, y, z = circle_solution()
        rep = msrcq_check(p, x, y, z)
        assert rep.passed
        assert rep.rank_found == rep.rank_required == 2

    def test_sphere_demo_passes(self):
        p, trip = solved_sphere_demo()
        assert msrcq_check(p, trip.x, trip.y, trip.z).passed

    def test_degenerate_zero_map_fails(self):
        # g1 identically zero into R with theta = |.|: the image space cannot
        # be spanned, rank 0 < 1
        n = 3
        p = ProblemInstance(
            manifold=Sphere(n),
            f=Objective(value_grad=lambda x: (0.0, np.zeros(n)), ehess_apply=lambda x, xi: np.zeros(n)),
            g1=constant_zero_map(n),
            theta=ScaledL1(1.0),
            label="degenerate",
        )
        x = random_point(p.manifold, 0)
        rep = msrcq_check(p, x, np.zeros(1))
        assert not rep.passed
        assert rep.rank_found == 0

    def test_rejects_an_infeasible_point_without_z(self):
        # x violates 2 x1 + x2 >= 0; without z the set block used to be
        # dropped and x passed the KKT gate
        p = circle_problem()
        with pytest.raises(ValueError, match="set constraint"):
            msrcq_check(p, sphere_point([-RT2, -RT2]), np.array([-RT2]))

    def test_requires_approximate_kkt(self):
        p = circle_problem()
        x = sphere_point([1.0, 0.0])
        for check in (msrcq_check, msosc_check):
            with pytest.raises(ValueError, match="not an approximate KKT point"):
                check(p, x, np.zeros(1), np.zeros(1))

    def test_random_sphere_instances_all_pass(self):
        for seed in range(1, 9):
            rng = np.random.default_rng(seed)
            p = sphere_l1_problem(rng.standard_normal((10, 10)), 0.25)
            res = alm_run(p, ALMConfig(), random_point(p.manifold, seed + 50))
            trip = polish_kkt(p, res.x, res.y, res.z, tol=1e-10)
            assert msrcq_check(p, trip.x, trip.y, trip.z).passed

    def test_refuses_dense_stack_over_size_cap(self):
        # rmc 200x200 r=5: a 40000 x (1975 + 40000) stack, far above the cap;
        # the size is refused before the KKT gate and the tangent basis
        rng = np.random.default_rng(0)
        p = rmc_problem(rng.standard_normal((200, 200)), rng.random((200, 200)) < 0.15, 5)
        x = random_point(FixedRank(200, 200, 5), 1)
        for check in (msrcq_check, msosc_check):
            with pytest.raises(ValueError, match="dense 40000 x 41975 system"):
                check(p, x, np.zeros((200, 200)))


def dense_msrcq_rank(p, x, y, z, tol=1e-8, cone_tol=1e-8):
    """Reference spanning test: SVD of the tangent image stacked with one
    +/- unit column per cone generator; returns (rank, number of columns)."""
    xa = x.ambient
    dim_y = int(np.prod(p.g1.out_shape))
    dim_z = int(np.prod(p.g2.out_shape)) if p.q is not None else 0
    cols = []
    for b in tangent_basis(p.manifold, x):
        top = np.ravel(p.g1.jacobian_apply(b))
        bottom = np.ravel(p.g2.jacobian_apply(b)) if dim_z else np.zeros(0)
        cols.append(np.concatenate([top, bottom]))
    blocks = [(0, _ctheta_generator_signs(p.theta, p.g1.value(xa), y, cone_tol))]
    if dim_z:
        blocks.append((dim_y, _tq_capz_generators(p.q, p.g2.value(xa), z, cone_tol)))
    eye = np.eye(dim_y + dim_z)
    for offset, (free, pos, neg) in blocks:
        for mask, sign in ((free, 1.0), (pos, 1.0), (neg, -1.0)):
            cols += [sign * eye[offset + i] for i in np.flatnonzero(mask)]
    if not cols:
        return 0, 0
    svals = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    rank = int(np.sum(svals > tol * svals[0])) if svals[0] > 0 else 0
    return rank, len(cols)


def affine_map(mat, offset):
    return SmoothMap(
        jacobian_apply=lambda xi: mat @ xi,
        jacobian_adjoint=lambda w: mat.T @ w,
        offset=-offset,
    )


def polished_cli_instance(**fields):
    p, x0, _, _ = build_problem(RunConfig(**fields))
    res = alm_run(p, ALMConfig(), x0)
    return p, polish_kkt(p, res.x, res.y, res.z, tol=1e-12)


def polished_circle_with_box(lower, upper):
    p = replace(circle_problem(), q=Box(np.array([lower]), np.array([upper])))
    res = alm_run(p, ALMConfig(), sphere_point([1.0, 0.0]))
    return p, polish_kkt(p, res.x, res.y, res.z, tol=1e-12)


class TestMsrcqReduction:
    """The row-reduced rank equals the dense stacked-column rank."""

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: polished_cli_instance(family="circle"), id="circle"),
            pytest.param(lambda: polished_cli_instance(family="sphere-l1"), id="sphere-builtin5x5"),
            *[
                pytest.param(
                    lambda n=n: polished_cli_instance(family="sphere-l1", mode="random", n=n),
                    id=f"sphere-random{n}",
                )
                for n in (5, 12, 30)
            ],
            pytest.param(lambda: polished_cli_instance(family="rmc"), id="rmc-basic5x5"),
            pytest.param(
                lambda: polished_cli_instance(family="rmc", mode="random", m=20, n=20, r=2, seed=1),
                id="rmc-random20-seed1",
            ),
            pytest.param(lambda: polished_circle_with_box(0.0, 0.0), id="circle-zero-set"),
            pytest.param(lambda: polished_circle_with_box(-np.inf, np.inf), id="circle-full-space"),
        ],
    )
    def test_matches_dense_stack(self, build):
        p, trip = build()
        rep = msrcq_check(p, trip.x, trip.y, trip.z)
        assert (rep.rank_found, rep.n_generators) == dense_msrcq_rank(p, trip.x, trip.y, trip.z)

    def test_matches_dense_stack_on_random_rank_deficient_systems(self, monkeypatch):
        # the reduction is linear algebra, independent of the KKT gate
        monkeypatch.setattr(analysis, "_require_kkt", lambda *args: None)
        rng = np.random.default_rng(0)
        n, dim_y, dim_z = 6, 5, 3
        for trial in range(300):
            scale = 10.0 ** rng.uniform(-3, 2)
            mat = scale * rng.standard_normal((dim_y + dim_z, 2)) @ rng.standard_normal((2, n))
            x = random_point(Sphere(n), rng)
            # about half the rows vanish at x, so multiplier and bounds decide them
            offset = (mat @ x.ambient) * (rng.random(dim_y + dim_z) < 0.5)
            y = rng.choice([-1.0, 0.0, 1.0], size=dim_y)
            g2 = q = z = None
            if trial % 2:
                g2 = affine_map(mat[dim_y:], offset[dim_y:])
                q = Box(rng.choice([0.0, -np.inf], dim_z), rng.choice([0.0, np.inf], dim_z))
                z = rng.choice([0.0, 1.0], size=dim_z)
            p = ProblemInstance(
                manifold=Sphere(n),
                f=Objective(value_grad=lambda v: (0.0, np.zeros(n)), ehess_apply=lambda v, xi: np.zeros(n)),
                g1=affine_map(mat[:dim_y], offset[:dim_y]),
                theta=ScaledL1(1.0),
                g2=g2,
                q=q,
            )
            rep = msrcq_check(p, x, y, z)
            assert (rep.rank_found, rep.n_generators) == dense_msrcq_rank(p, x, y, z)

    def test_rmc_random_20_seed1_rank(self):
        p, trip = polished_cli_instance(family="rmc", mode="random", m=20, n=20, r=2, seed=1)
        rep = msrcq_check(p, trip.x, trip.y, trip.z)
        assert (rep.rank_found, rep.rank_required) == (83, 400)


class TestMsosc:
    def test_circle_vacuous(self):
        p = circle_problem()
        x, y, z = circle_solution()
        rep = msosc_check(p, x, y, z)
        assert rep.status == "vacuous"
        assert rep.passed

    def test_sphere_demo_vacuous(self):
        p, trip = solved_sphere_demo()
        assert msosc_check(p, trip.x, trip.y, trip.z).status == "vacuous"

    def test_saddle_with_disabled_penalty_fails(self):
        # f(x) = -x1^2 on the sphere with the penalty off: x = e2 is a saddle
        # KKT point whose critical cone is the whole tangent space, and the
        # curvature along e1 is negative
        n = 2
        p = ProblemInstance(
            manifold=Sphere(n),
            f=Objective(
                value_grad=lambda x: (-float(x[0] ** 2), np.array([-2.0 * x[0], 0.0])),
                ehess_apply=lambda x, xi: np.array([-2.0 * xi[0], 0.0]),
            ),
            g1=SmoothMap(
                jacobian_apply=lambda xi: xi.copy(),
                jacobian_adjoint=lambda y: y.copy(),
                offset=np.zeros(n),
            ),
            theta=ScaledL1(0.0),
            label="saddle",
        )
        x = sphere_point([0.0, 1.0])
        y = np.zeros(2)
        assert kkt_residual(p, x, y) <= 1e-12
        rep = msosc_check(p, x, y)
        assert rep.status == "fail"
        assert rep.min_value < 0

    def test_positive_curvature_passes(self):
        # f(x) = x1^2 on the sphere at the same point: minimum, cone is full
        # tangent space, curvature positive
        n = 2
        p = ProblemInstance(
            manifold=Sphere(n),
            f=Objective(
                value_grad=lambda x: (float(x[0] ** 2), np.array([2.0 * x[0], 0.0])),
                ehess_apply=lambda x, xi: np.array([2.0 * xi[0], 0.0]),
            ),
            g1=SmoothMap(
                jacobian_apply=lambda xi: xi.copy(),
                jacobian_adjoint=lambda y: y.copy(),
                offset=np.zeros(n),
            ),
            theta=ScaledL1(0.0),
            label="minimum",
        )
        x = sphere_point([0.0, 1.0])
        rep = msosc_check(p, x, np.zeros(2))
        assert rep.status == "pass"
        assert rep.min_value > 0

    def test_rmc_basic_vacuous(self):
        from ralm.manifolds import FixedRank, nearest_rank_r
        from ralm.problems import rmc_basic_instance

        a, mask, a_exact = rmc_basic_instance()
        p = rmc_problem(a, mask, 3)
        x0 = nearest_rank_r(FixedRank(5, 5, 3), a)
        res = alm_run(p, ALMConfig(), x0)
        trip = polish_kkt(p, res.x, res.y, res.z, tol=1e-10)
        rep = condition_report(p, trip.x, trip.y, trip.z)
        assert rep.msrcq.passed
        assert rep.msosc.status == "vacuous"
        assert rep.critical_cone_trivial


_rng = np.random.default_rng(7)
_LOW_RANK = _rng.standard_normal((6, 2)) @ _rng.standard_normal((2, 5))
NULL_SPACE_CASES = {
    "full-rank": _rng.standard_normal((5, 5)),
    "rank-deficient": _LOW_RANK,
    # singular values near 1e-12: rank under the default rcond, not under 1e-10
    "near-deficient": _LOW_RANK + 1e-12 * _rng.standard_normal((6, 5)),
    "wide": _rng.standard_normal((3, 7)),
    "tall": _rng.standard_normal((7, 3)),
    "all-zero": np.zeros((4, 3)),
}


class TestConeTriviality:
    # the reference runs at rcond = 1e-10, the threshold _null_space uses
    @pytest.mark.parametrize("rcond", [1e-10], ids=["1e-10"])
    @pytest.mark.parametrize("name", list(NULL_SPACE_CASES))
    def test_null_space_matches_scipy(self, name, rcond):
        from scipy.linalg import null_space

        a = NULL_SPACE_CASES[name]
        ours, ref = _null_space(a), null_space(a, rcond=rcond)
        assert ours.shape == ref.shape
        np.testing.assert_allclose(ours @ ours.T, ref @ ref.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("h", [np.eye(2), np.diag([-1.0, 2.0])], ids=["identity", "indefinite"])
    def test_pointed_cone_is_trivial(self, h):
        # lam1 >= 0, lam2 >= 0, -lam1 - lam2 >= 0 leaves only lam = 0
        a = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        assert _cone_min(h, a) is None

    def test_open_cone_returns_a_unit_direction(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        value, lam = _cone_min(np.eye(2), a)
        assert np.linalg.norm(lam) == pytest.approx(1.0)
        assert np.all(a @ lam >= -1e-9)
        assert value == pytest.approx(1.0)


def brute_force_cone_min(h, rays, n_samples=20000, seed=0):
    """Smallest lam^T h lam over random unit lam with rays @ lam >= 0, or None
    when no sample lands in the cone."""
    lam = np.random.default_rng(seed).standard_normal((n_samples, len(h)))
    lam /= np.linalg.norm(lam, axis=1, keepdims=True)
    lam = lam[np.all(lam @ rays.T >= 0, axis=1)]
    return np.min(np.einsum("si,ij,sj->s", lam, h, lam)) if len(lam) else None


class TestConeMin:
    def test_matches_brute_force_on_random_small_cones(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            k = int(rng.integers(2, 5))
            h = rng.standard_normal((k, k))
            h = h + h.T
            rays = rng.standard_normal((int(rng.integers(1, 5)), k))
            found = _cone_min(h, rays)
            brute = brute_force_cone_min(h, rays, seed=trial)
            if found is None:
                assert brute is None
                continue
            value, lam = found
            # an attained value: lam is a unit vector of the cone
            assert np.linalg.norm(lam) == pytest.approx(1.0)
            assert np.all(rays @ lam >= -1e-9)
            assert value == pytest.approx(lam @ h @ lam, abs=1e-12)
            # and no sampled direction of the cone goes below it
            assert brute is None or value <= brute + 1e-12

    def test_min_on_a_lower_dimensional_cone(self):
        # lam1 >= 0 and -lam1 >= 0 leave the line lam1 = 0, and lam2 >= 0 the ray e2
        rays = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        value, lam = _cone_min(np.diag([-5.0, 2.0, 3.0]), rays)
        assert value == pytest.approx(2.0)
        np.testing.assert_allclose(lam, [0.0, 1.0, 0.0], atol=1e-12)

    def test_no_rays_is_the_smallest_eigenvalue(self):
        h = np.diag([3.0, -1.0, 2.0])
        value, lam = _cone_min(h, np.zeros((0, 3)))
        assert value == pytest.approx(-1.0)
        assert abs(lam[1]) == pytest.approx(1.0)


class TestHessMatrix:
    # tilted, so that the Weingarten map is not zero on fixed rank
    @pytest.mark.parametrize("name", ["circle", "sphere", "fixed-rank"])
    def test_equals_per_direction_rhess_apply_bit_for_bit(self, name):
        rng = np.random.default_rng(41)
        z = None
        if name == "circle":
            p, z = circle_problem(), rng.standard_normal(1)
        elif name == "sphere":
            p = sphere_l1_problem(rng.standard_normal((7, 7)), 0.3)
        else:
            p = rmc_problem(rng.standard_normal((6, 5)), rng.random((6, 5)) < 0.7, 2)
        p = tilted_instance(p, a=rng.standard_normal(p.manifold.ambient_shape))
        x = random_point(p.manifold, rng)
        dirs = tangent_basis(p.manifold, x)
        hdirs = np.array([rhess_operator(p, x, z)(d) for d in dirs])
        want = hdirs.reshape(len(dirs), -1) @ dirs.reshape(len(dirs), -1).T
        assert np.array_equal(_hess_matrix(p, x, z, dirs), want)


class TestExactMsosc:
    def test_planted_negative_direction_in_a_200_dim_cone_fails(self):
        # f = -x^T D x at x = e_k with the penalty off: the cone is the whole
        # tangent space, the form is 2 (d_k - d_i) along e_i, and one d_j
        # slightly above d_k plants the only negative direction among 199
        n, k, j = 200, 0, 57
        d = np.zeros(n)
        d[k], d[j] = 1.0, 1.01
        p = sphere_l1_problem(np.diag(np.sqrt(d)), 0.0)
        x = sphere_point(np.eye(n)[k])
        rep = msosc_check(p, x, np.zeros(n))
        assert rep.status == "fail"
        assert rep.cone_nullity == n - 1
        assert rep.min_value == pytest.approx(2.0 * (d[k] - d[j]), abs=1e-12)

    @pytest.mark.parametrize(
        "a_diag, want",
        [([2.0, 1.0, 1.5, 0.5, 1.8], 2.0 * (4.0 - 2.25)), ([1.0, 1.2, 0.5, 0.3, 2.0], 2.0 * (1.0 - 1.44))],
        ids=["pass", "fail"],
    )
    def test_cone_with_ray_rows(self, a_diag, want):
        # two ray rows (coordinates 1 and 2) and two equality rows (3 and 4):
        # the minimum sits on the ray of the larger of a_1, a_2
        p, x, y = ray_cone_instance(a_diag, 2)
        rep = msosc_check(p, x, y)
        assert rep.status == ("pass" if want > 0 else "fail")
        assert rep.cone_nullity == 2
        assert rep.min_value == pytest.approx(want, abs=1e-12)

    def test_refuses_more_ray_rows_than_the_cap(self):
        p, x, y = ray_cone_instance(np.linspace(2.0, 1.0, MAX_RAY_ROWS + 3), MAX_RAY_ROWS + 1)
        with pytest.raises(ValueError, match=f"{MAX_RAY_ROWS + 1} one-sided cone generators exceed"):
            msosc_check(p, x, y)

    def test_condition_report_records_a_refusal_and_keeps_msrcq(self):
        p, x, y = ray_cone_instance(np.linspace(2.0, 1.0, MAX_RAY_ROWS + 3), MAX_RAY_ROWS + 1)
        rep = condition_report(p, x, y)
        assert (rep.msrcq.passed, rep.msrcq.rank_found, rep.msrcq.rank_required) == (True, 11, 11)
        assert (rep.msosc.status, rep.msosc.passed) == ("refused", False)
        assert rep.msosc.refusal == f"{MAX_RAY_ROWS + 1} one-sided cone generators exceed {MAX_RAY_ROWS}"


class TestCalmnessProbe:
    def test_circle_ratios_bounded(self):
        p = circle_problem()
        x, y, z = circle_solution()
        rep = calmness_probe(p, x, y, z, radii=(1e-2, 1e-3), trials_per_radius=5, seed=0)
        assert all(r.failures == 0 for r in rep.records)
        assert np.isfinite(rep.kappa_hat)

    def test_requires_polished_point(self):
        p = circle_problem()
        x0 = sphere_point([1.0, 0.0])
        with pytest.raises(ValueError):
            calmness_probe(p, x0, np.zeros(1), np.zeros(1))

    def test_sub_solves_run_in_calling_thread(self, monkeypatch, tmp_path):
        # figure1's four rate runs and every probe trial solve in this thread
        threads = []

        def recording(run):
            def wrapped(*args, **kwargs):
                threads.append(threading.get_ident())
                return run(*args, **kwargs)

            return wrapped

        for module in (analysis, cli):
            monkeypatch.setattr(module, "alm_run", recording(module.alm_run))
        assert cli.main(["figure1", "--out", str(tmp_path)]) == cli.EXIT_OK
        p = circle_problem()
        x, y, z = circle_solution()
        calmness_probe(p, x, y, z, radii=(1e-3,), trials_per_radius=4)
        assert len(threads) == 8
        assert set(threads) == {threading.get_ident()}

    def test_constraint_shift_moves_solution_linearly(self):
        # displacement under a shift of the nonsmooth argument scales like the
        # shift: re-solve at two magnitudes and compare
        p = circle_problem()
        x, y, z = circle_solution()
        moves = []
        for delta in (1e-3, 1e-4):
            pert = tilted_instance(p, b=np.array([delta]))
            cfg = ALMConfig(rho0=100.0, kkt_tol=1e-12, max_outer=200)
            res = alm_run(pert, cfg, x, y, z)
            assert res.converged
            moves.append(np.linalg.norm(res.x.ambient - x.ambient))
        ratio = moves[0] / moves[1]
        assert 5.0 <= ratio <= 20.0


def solved_rmc_basic():
    from ralm.manifolds import FixedRank, nearest_rank_r
    from ralm.problems import rmc_basic_instance

    a, mask, _ = rmc_basic_instance()
    p = rmc_problem(a, mask, 3)
    res = alm_run(p, ALMConfig(), nearest_rank_r(FixedRank(5, 5, 3), a))
    return p, polish_kkt(p, res.x, res.y, res.z, tol=1e-10)


class TestBuiltinFamilyProbes:
    def test_natural_map_matches_residual_on_random_triples_and_kkt_points(self):
        p_circle = circle_problem()
        rng = np.random.default_rng(31)
        for _ in range(200):
            x = random_point(p_circle.manifold, rng)
            y = rng.standard_normal(1)
            z = rng.standard_normal(1)
            blocks = kkt_blocks(p_circle, x, y, z)
            total = sum(np.linalg.norm(b) for b in blocks)
            r = kkt_residual(p_circle, x, y, z)
            assert total == pytest.approx(r, abs=1e-13)
            assert (r <= 1e-12) == (np.linalg.norm(stacked(blocks)) <= 1e-12)
        # the three built-in KKT points are zeros of both
        x, y, z = circle_solution()
        assert np.linalg.norm(stacked(kkt_blocks(p_circle, x, y, z))) <= 1e-12
        p_s, trip_s = solved_sphere_demo()
        assert np.linalg.norm(stacked(kkt_blocks(p_s, trip_s.x, trip_s.y, trip_s.z))) <= 1e-9
        p_r, trip_r = solved_rmc_basic()
        assert np.linalg.norm(stacked(kkt_blocks(p_r, trip_r.x, trip_r.y, trip_r.z))) <= 1e-9

    def test_polished_triple_residual_consistent(self):
        p, trip = solved_sphere_demo()
        # polish_kkt reads R from the run's last record: the same float
        assert kkt_residual(p, trip.x, trip.y, trip.z) == trip.residual

    def test_error_bound_positive_for_all_families(self):
        p_c = circle_problem()
        x, y, z = circle_solution()
        for p, xx, yy, zz in [
            (p_c, x, y, z),
            (*_unpack(solved_sphere_demo()),),
            (*_unpack(solved_rmc_basic()),),
        ]:
            fit = error_bound_fit(p, xx, yy, zz, n_samples=150, radius=0.05, seed=2)
            assert not fit.degenerate
            assert fit.c1 > 0

    def test_calmness_bounded_where_the_asymptotic_regime_is_reached(self):
        # circle and the fixed 5x5 completion instance satisfy the wide-range
        # comparison; the stiff sphere instance only reaches its modulus below
        # radius ~1e-4 (the active set changes at larger radii), so it is
        # compared across the two smallest decades
        p_c = circle_problem()
        x, y, z = circle_solution()
        rep = calmness_probe(p_c, x, y, z, radii=(1e-2, 1e-5), trials_per_radius=10, seed=1)
        assert rep.records[1].max_ratio <= 2.0 * rep.records[0].max_ratio

        p_r, trip_r = solved_rmc_basic()
        rep_r = calmness_probe(
            p_r, trip_r.x, trip_r.y, trip_r.z, radii=(1e-2, 1e-5), trials_per_radius=10, seed=1
        )
        assert rep_r.records[1].max_ratio <= 2.0 * rep_r.records[0].max_ratio

        p_s, trip_s = solved_sphere_demo()
        rep_s = calmness_probe(
            p_s, trip_s.x, trip_s.y, trip_s.z, radii=(1e-4, 1e-5), trials_per_radius=10, seed=1
        )
        assert rep_s.records[1].max_ratio <= 2.0 * rep_s.records[0].max_ratio


def _unpack(pair):
    p, trip = pair
    return p, trip.x, trip.y, trip.z


class TestErrorBoundFit:
    def test_circle_constants_finite_positive(self):
        p = circle_problem()
        x, y, z = circle_solution()
        fit = error_bound_fit(p, x, y, z, n_samples=200, radius=0.05, seed=1)
        assert not fit.degenerate
        assert 0 < fit.c1 <= fit.c2 < np.inf
        assert len(fit.samples) == 200

    def test_sample_at_solution_excluded(self):
        p = circle_problem()
        x, y, z = circle_solution()
        fit = error_bound_fit(p, x, y, z, n_samples=50, radius=0.01, seed=2)
        # every kept ratio comes from a sample with positive residual
        assert all(r > 1e-14 for _, r in fit.samples if r > 1e-14)

    def test_pure_multiplier_perturbation_scales_linearly(self):
        p = circle_problem()
        x, y, z = circle_solution()
        vals = []
        for delta in (1e-3, 1e-4):
            r = kkt_residual(p, x, y + delta, z)
            vals.append(r)
        assert vals[0] / vals[1] == pytest.approx(10.0, rel=1e-6)

    def test_requires_polished_point(self):
        p = circle_problem()
        with pytest.raises(ValueError):
            error_bound_fit(p, sphere_point([1.0, 0.0]), np.zeros(1), np.zeros(1))
