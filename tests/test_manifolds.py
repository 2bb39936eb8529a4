import functools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ralm.cli import build_problem
from ralm.config import RunConfig
from ralm.manifolds import (
    FixedRank,
    FixedRankTangent,
    RankDeficiencyError,
    Sphere,
    bb_pair,
    check_point,
    distance,
    fixed_rank_point_from_factors,
    nearest_rank_r,
    norm,
    project_tangent,
    random_point,
    retract,
    sphere_point,
    tangent_basis,
    tangent_norm,
    tangent_vector,
)
from ralm.problems import (
    circle_problem,
    hess_quadform,
    merit_eval,
    merit_rgrad,
    merit_shifts,
    sphere_l1_problem,
    tilted_instance,
)

from helpers import random_tangent

RT2 = np.sqrt(2.0) / 2.0


def orthographic_closed_form(x, xi):
    """(x + xi) V (U^T (x + xi) V)^-1 U^T (x + xi), the orthographic retraction
    in ambient terms."""
    y = x.ambient + np.asarray(xi)
    return (y @ x.v) @ np.linalg.solve(x.u.T @ y @ x.v, x.u.T @ y)


def fixed_rank_2x2_rank1():
    return FixedRank(2, 2, 1), fixed_rank_point_from_factors(
        np.array([[1.0], [0.0]]), np.array([1.0]), np.array([[1.0], [0.0]])
    )


class TestNorm:
    @pytest.mark.parametrize("case", ["vector", "matrix", "transpose", "strided", "empty"])
    def test_equals_numpy_norm_bit_for_bit(self, case):
        a = np.random.default_rng(7).standard_normal((37, 23))
        v = {
            "vector": a[:, 0].copy(),
            "matrix": a,
            "transpose": a.T,
            "strided": a[::3, 1::2],
            "empty": np.zeros((0, 4)),
        }[case]
        got = norm(v)
        assert type(got) is float
        assert got == np.linalg.norm(v)


class TestProjectTangent:
    def test_sphere_removes_radial_component(self):
        m = Sphere(2)
        x = sphere_point([1.0, 0.0])
        np.testing.assert_allclose(project_tangent(m, x, [2.0, 3.0]), [0.0, 3.0])

    def test_sphere_parallel_vector_projects_to_zero(self):
        m = Sphere(2)
        x = sphere_point([RT2, RT2])
        np.testing.assert_allclose(project_tangent(m, x, [1.0, 1.0]), [0.0, 0.0], atol=1e-15)

    def test_fixed_rank_normal_block_projects_to_zero(self):
        m, x = fixed_rank_2x2_rank1()
        v = np.array([[0.0, 0.0], [0.0, 5.0]])
        np.testing.assert_allclose(project_tangent(m, x, v), np.zeros((2, 2)), atol=1e-15)

    def test_shape_mismatch_raises(self):
        m = Sphere(3)
        x = sphere_point([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            project_tangent(m, x, np.ones(4))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", ["sphere", "fixedrank"])
    def test_idempotent_and_self_adjoint(self, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "sphere":
            m = Sphere(7)
        else:
            m = FixedRank(6, 5, 2)
        x = random_point(m, rng)
        u = rng.standard_normal(m.ambient_shape)
        v = rng.standard_normal(m.ambient_shape)
        pu = project_tangent(m, x, u)
        np.testing.assert_allclose(project_tangent(m, x, pu), pu, atol=1e-10)
        assert abs(np.sum(pu * v) - np.sum(u * project_tangent(m, x, v))) < 1e-10


class TestRetract:
    def test_sphere_quarter_circle(self):
        m = Sphere(2)
        x = sphere_point([1.0, 0.0])
        out = retract(m, x, [0.0, np.pi / 2])
        np.testing.assert_allclose(out.ambient, [0.0, 1.0], atol=1e-15)

    def test_zero_tangent_is_identity(self):
        for m, x in [
            (Sphere(4), random_point(Sphere(4), 0)),
            (FixedRank(5, 4, 2), random_point(FixedRank(5, 4, 2), 0)),
        ]:
            out = retract(m, x, np.zeros(m.ambient_shape))
            np.testing.assert_allclose(out.ambient, x.ambient, atol=1e-14)

    def test_fixed_rank_projection_matches_hand_svd(self):
        # oracle: the full SVD of x + xi truncated to rank one
        m, x = fixed_rank_2x2_rank1()
        xi = np.array([[0.0, 1.0], [0.0, 0.0]])  # e1 e2^T lies in T_x
        uu, ss, vvt = np.linalg.svd(x.ambient + xi)
        expected = ss[0] * np.outer(uu[:, 0], vvt[0])
        out = retract(m, x, xi)
        np.testing.assert_allclose(out.ambient, expected, atol=1e-14)
        np.testing.assert_allclose(out.ambient, [[1.0, 1.0], [0.0, 0.0]], atol=1e-14)
        np.testing.assert_allclose(out.s, [np.sqrt(2.0)], atol=1e-14)

    def test_fixed_rank_rank_drop_raises(self):
        m, x = fixed_rank_2x2_rank1()
        with pytest.raises(RankDeficiencyError):
            retract(m, x, -x.ambient)  # lands on the zero matrix

    @pytest.mark.parametrize("kind", ["sphere", "fixedrank", "fixedrank-orthographic"])
    def test_feasibility_and_first_order_agreement(self, kind):
        rng = np.random.default_rng(11)
        m = {
            "sphere": Sphere(6),
            "fixedrank": FixedRank(7, 6, 3),  # dense-SVD retraction
            "fixedrank-orthographic": FixedRank(70, 60, 3),
        }[kind]
        x = random_point(m, rng)
        xi = random_tangent(m, x, rng)
        ratios = []
        for t in (1e-2, 1e-3, 1e-4):
            out = retract(m, x, t * xi)
            if kind == "sphere":
                assert abs(np.linalg.norm(out.ambient) - 1.0) <= 1e-12
            else:
                svals = np.linalg.svd(out.ambient, compute_uv=False)
                assert np.sum(svals > 1e-12) == m.r
            ratios.append(np.linalg.norm(out.ambient - x.ambient - t * xi) / t**2)
        # second-order term stays bounded as t decreases
        assert max(ratios) <= 2.0 * (min(ratios) + 1.0)

    def test_structured_path_matches_full_svd(self):
        # above the small-size cutoff the retraction is the orthographic one
        m = FixedRank(70, 60, 3)
        x = random_point(m, 5)
        xi = random_tangent(m, x, 6)
        out = retract(m, x, xi)
        np.testing.assert_allclose(out.ambient, orthographic_closed_form(x, xi), atol=1e-10)
        check_point(m, out)

    def test_orthographic_agrees_with_metric_projection_to_third_order(self):
        m = FixedRank(70, 60, 3)
        x = random_point(m, 5)
        xi = random_tangent(m, x, 6)
        xi /= np.linalg.norm(xi)
        ratios = []
        for t in (1e-1, 3e-2, 1e-2, 3e-3):
            gap = retract(m, x, t * xi).ambient - nearest_rank_r(m, x.ambient + t * xi).ambient
            ratios.append(np.linalg.norm(gap) / t**3)
        # measured: 0.123 at every t
        assert 0.0 < min(ratios) and max(ratios) <= 1.1 * min(ratios)

    def test_orthographic_rank_drop_raises(self):
        m = FixedRank(60, 60, 2)
        x = random_point(m, 3)
        with pytest.raises(RankDeficiencyError):
            retract(m, x, tangent_vector(m, x, -x.ambient))  # lands on the zero matrix

    def test_orthographic_chain_keeps_factors_orthonormal(self):
        m = FixedRank(200, 200, 5)
        rng = np.random.default_rng(4)
        x = random_point(m, rng)
        for _ in range(1000):
            x = retract(m, x, 1e-2 * tangent_vector(m, x, rng.standard_normal((200, 200))))
        assert np.abs(x.u.T @ x.u - np.eye(5)).max() <= 1e-13
        assert np.abs(x.v.T @ x.v - np.eye(5)).max() <= 1e-13
        check_point(m, x)


class TestDistance:
    def test_orthogonal_unit_vectors(self):
        m = Sphere(2)
        assert distance(m, sphere_point([1, 0]), sphere_point([0, 1])) == pytest.approx(np.pi / 2)

    def test_same_point_is_zero(self):
        m = Sphere(3)
        x = random_point(m, 1)
        assert distance(m, x, x) == 0.0
        mf = FixedRank(4, 4, 2)
        xf = random_point(mf, 1)
        assert distance(mf, xf, xf) == 0.0

    def test_eighth_turn(self):
        m = Sphere(2)
        d = distance(m, sphere_point([1.0, 0.0]), sphere_point([RT2, RT2]))
        assert d == pytest.approx(np.pi / 4, abs=1e-14)

    def test_symmetry(self):
        m = FixedRank(5, 4, 2)
        x, y = random_point(m, 2), random_point(m, 3)
        assert distance(m, x, y) == distance(m, y, x)


class TestGradientsAndHessians:
    def test_projected_gradient_example(self):
        m = Sphere(2)
        x = sphere_point([RT2, RT2])
        g = project_tangent(m, x, np.array([0.0, np.sqrt(2.0)]))
        np.testing.assert_allclose(g, [-RT2, RT2], atol=1e-14)

    def test_radial_gradient_vanishes(self):
        m = Sphere(5)
        x = random_point(m, 7)
        np.testing.assert_allclose(project_tangent(m, x, 2.0 * x.ambient), np.zeros(5), atol=1e-14)

    def test_fixed_rank_tangent_gradient_unchanged(self):
        m = FixedRank(5, 4, 2)
        x = random_point(m, 8)
        xi = random_tangent(m, x, 9)
        np.testing.assert_allclose(project_tangent(m, x, xi), xi, atol=1e-12)

    def test_gradient_matches_directional_difference(self):
        # oracle: central differences of f along the retraction
        rng = np.random.default_rng(21)
        for m in (Sphere(6), FixedRank(6, 5, 2)):
            a = rng.standard_normal(m.ambient_shape)

            def f(arr):
                return float(np.sum(a * arr) + 0.5 * np.sum(arr * arr))

            def egrad(arr):
                return a + arr

            x = random_point(m, rng)
            xi = random_tangent(m, x, rng)
            g = project_tangent(m, x, egrad(x.ambient))
            t = 1e-6
            fd = (f(retract(m, x, t * xi).ambient) - f(retract(m, x, -t * xi).ambient)) / (2 * t)
            assert abs(fd - np.sum(g * xi)) <= 1e-5 * max(1.0, abs(fd))

    # the closed-form sphere Hessian <xi, Hess f xi> = <xi, ehess xi> - <x, egrad> |xi|^2
    # lives in problems.hess_quadform

    def test_sphere_hessian_constant_function_is_zero(self):
        p = sphere_l1_problem(np.zeros((3, 3)), 0.0)  # f = 0
        x = random_point(p.manifold, 2)
        xi = random_tangent(p.manifold, x, 3)
        assert abs(hess_quadform(p, x, None, xi)) <= 1e-14

    def test_sphere_hessian_quadratic_example(self):
        # f(x) = x_2^2 at the diagonal point: curvature cancels the Euclidean term
        p = circle_problem()
        x = sphere_point([RT2, RT2])
        xi = np.array([1.0, -1.0]) / np.sqrt(2.0)
        q = hess_quadform(p, x, np.zeros(1), xi)
        assert abs(q) < 1e-14
        # cross-check by a second difference along the exponential curve
        t = 1e-4
        vals = [retract(p.manifold, x, s * xi).ambient[1] ** 2 for s in (-t, 0.0, t)]
        assert abs((vals[0] - 2 * vals[1] + vals[2]) / t**2 - q) < 1e-5

    def test_sphere_hessian_linear_function(self):
        # f(x) = <a, x> at x = a/|a| has Riemannian Hessian -|a| Id
        rng = np.random.default_rng(5)
        a = rng.standard_normal(4)
        p = tilted_instance(sphere_l1_problem(np.zeros((4, 4)), 0.0), a=-a)
        x = sphere_point(a / np.linalg.norm(a))
        xi = random_tangent(p.manifold, x, 6)
        q = hess_quadform(p, x, None, xi)
        assert q == pytest.approx(-np.linalg.norm(a) * float(xi @ xi), abs=1e-12)


class TestRandomness:
    @pytest.mark.parametrize("m", [Sphere(5), FixedRank(6, 4, 2)])
    def test_deterministic_under_seed(self, m):
        a = random_point(m, 42)
        b = random_point(m, 42)
        np.testing.assert_array_equal(a.ambient, b.ambient)
        ta = random_tangent(m, a, 7)
        tb = random_tangent(m, b, 7)
        np.testing.assert_array_equal(ta, tb)

    @pytest.mark.parametrize("m", [Sphere(5), FixedRank(6, 4, 2)])
    def test_random_outputs_satisfy_invariants(self, m):
        x = random_point(m, 3)
        check_point(m, x)
        if isinstance(m, Sphere):
            assert abs(np.linalg.norm(x.ambient) - 1.0) <= 1e-12
        xi = random_tangent(m, x, 4)
        np.testing.assert_allclose(project_tangent(m, x, xi), xi, atol=1e-12)


class TestPointValidation:
    def test_sphere_point_rejects_non_unit(self):
        with pytest.raises(ValueError):
            sphere_point([1.0, 1.0])

    def test_fixed_rank_point_roundtrip(self):
        m = FixedRank(4, 3, 2)
        x = random_point(m, 9)
        y = nearest_rank_r(m, x.ambient)
        np.testing.assert_allclose(y.ambient, x.ambient, atol=1e-12)
        check_point(m, y)

    def test_factor_rank_guard(self):
        with pytest.raises(RankDeficiencyError):
            fixed_rank_point_from_factors(np.eye(3, 2), np.array([1.0, 0.0]), np.eye(3, 2))

    def test_nearest_rank_r_truncates(self):
        m = FixedRank(4, 4, 2)
        rng = np.random.default_rng(13)
        full = rng.standard_normal((4, 4))
        x = nearest_rank_r(m, full)
        check_point(m, x)
        svals = np.linalg.svd(full, compute_uv=False)
        assert np.linalg.norm(x.ambient - full) == pytest.approx(
            np.sqrt(np.sum(svals[2:] ** 2)), rel=1e-10
        )

    def test_rmc_spectral_start_owns_its_factors(self):
        # views into the full thin SVD would keep 200 x 200 arrays alive
        _, x0, _, _ = build_problem(RunConfig(family="rmc", mode="random", m=200, n=200, r=5, seed=1))
        for factor in (x0.u, x0.s, x0.v):
            assert factor.base is None
        assert x0.u.nbytes == x0.v.nbytes == 200 * 5 * 8

    @given(st.integers(min_value=2, max_value=10))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_tangent_basis_is_orthonormal_sphere(self, n):
        m = Sphere(n)
        x = random_point(m, n)
        basis = tangent_basis(m, x)
        assert basis.shape == (m.dim, n)
        gram = np.array([[float(a @ b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(m.dim), atol=1e-10)
        for b in basis:
            assert abs(b @ x.ambient) < 1e-10

    def test_tangent_basis_fixed_rank(self):
        m = FixedRank(5, 4, 2)
        x = random_point(m, 17)
        basis = tangent_basis(m, x)
        assert len(basis) == m.dim
        for i, a in enumerate(basis):
            np.testing.assert_allclose(project_tangent(m, x, a), a, atol=1e-10)
            for b in basis[i + 1 :]:
                assert abs(np.sum(a * b)) < 1e-10

    @pytest.mark.parametrize("m,n,r", [(5, 4, 2), (20, 20, 2), (7, 9, 3)])
    def test_tangent_basis_fixed_rank_matches_outer_products(self, m, n, r):
        manifold = FixedRank(m, n, r)
        x = random_point(manifold, 17)
        basis = tangent_basis(manifold, x)
        assert basis.shape == (manifold.dim, m, n)
        # reference: one np.outer per basis vector, in the same order
        u, v = x.u, x.v
        u_perp = np.linalg.qr(u, mode="complete")[0][:, r:]
        v_perp = np.linalg.qr(v, mode="complete")[0][:, r:]
        ref = [np.outer(u[:, i], v[:, j]) for i in range(r) for j in range(r)]
        ref += [np.outer(u_perp[:, a], v[:, j]) for a in range(m - r) for j in range(r)]
        ref += [np.outer(u[:, i], v_perp[:, b]) for i in range(r) for b in range(n - r)]
        assert np.array_equal(basis, np.array(ref))


FACTOR_SIZES = [(5, 5, 3), (20, 20, 2), (200, 200, 5)]


class TestFactoredTangent:
    """Tangent vectors carried as factors (M, U_p, V_p) against the dense formulas."""

    @pytest.mark.parametrize("m,n,r", FACTOR_SIZES)
    def test_ambient_view_matches_dense_projection(self, m, n, r):
        manifold = FixedRank(m, n, r)
        rng = np.random.default_rng(m + r)
        x = random_point(manifold, rng)
        c = rng.standard_normal((m, n))
        u, v = x.u, x.v
        # P_U C + C P_V - P_U C P_V, the dense formula
        ref = u @ (u.T @ c) + (c @ v) @ v.T - u @ (u.T @ c @ v) @ v.T
        xi = tangent_vector(manifold, x, c)
        assert isinstance(xi, FixedRankTangent)
        assert np.linalg.norm(np.asarray(xi) - ref) <= 1e-12 * np.linalg.norm(c)
        assert np.array_equal(project_tangent(manifold, x, c), np.asarray(xi))
        # the factors satisfy the gauge U^T U_p = 0, V^T V_p = 0
        assert np.abs(u.T @ xi.u_p).max() <= 1e-12 * np.linalg.norm(c)
        assert np.abs(v.T @ xi.v_p).max() <= 1e-12 * np.linalg.norm(c)

    @pytest.mark.parametrize("m,n,r", FACTOR_SIZES)
    def test_norm_from_factors(self, m, n, r):
        manifold = FixedRank(m, n, r)
        rng = np.random.default_rng(m * r)
        x = random_point(manifold, rng)
        xi = tangent_vector(manifold, x, rng.standard_normal((m, n)))
        dense = np.linalg.norm(np.asarray(xi))
        assert tangent_norm(xi) == pytest.approx(dense, rel=1e-13)
        assert tangent_norm(-0.3 * xi) == pytest.approx(0.3 * dense, rel=1e-13)

    @pytest.mark.parametrize("m,n,r", FACTOR_SIZES)
    def test_scaled_copy_shares_the_dense_matrix(self, m, n, r):
        manifold = FixedRank(m, n, r)
        rng = np.random.default_rng(3)
        x = random_point(manifold, rng)
        xi = tangent_vector(manifold, x, rng.standard_normal((m, n)))
        scaled = -0.25 * xi
        np.testing.assert_array_equal(scaled.u_p, -0.25 * xi.u_p)
        assert np.array_equal(np.asarray(scaled), -0.25 * np.asarray(xi))
        assert np.asarray(xi) is np.asarray(xi)

    # min(m, n) <= 50 takes the dense-SVD branch, 200 x 200 the orthographic
    # retraction
    @pytest.mark.parametrize("m,n,r", [(5, 5, 3), (20, 20, 2), (60, 50, 3), (200, 200, 5)])
    def test_retraction_from_factors_matches_dense_tangent(self, m, n, r):
        manifold = FixedRank(m, n, r)
        rng = np.random.default_rng(m + n)
        x = random_point(manifold, rng)
        xi = tangent_vector(manifold, x, rng.standard_normal((m, n)))
        for t in (1e-6, 1e-2, 0.3):
            factored = retract(manifold, x, t * xi)
            dense = retract(manifold, x, t * np.asarray(xi))
            check_point(manifold, factored)
            scale = np.linalg.norm(x.ambient)
            assert np.linalg.norm(factored.ambient - dense.ambient) <= 1e-10 * scale
            if min(m, n) <= 50:
                # the metric projection: the rank-r truncated SVD of x + xi
                uu, ss, vvt = np.linalg.svd(x.ambient + t * np.asarray(xi))
                exact = (uu[:, :r] * ss[:r]) @ vvt[:r]
            else:
                exact = orthographic_closed_form(x, t * xi)
            assert np.linalg.norm(factored.ambient - exact) <= 1e-10 * scale

    def test_retraction_rejects_a_tangent_at_another_point(self):
        manifold = FixedRank(60, 60, 2)
        x, y = random_point(manifold, 1), random_point(manifold, 2)
        xi = tangent_vector(manifold, x, np.ones((60, 60)))
        with pytest.raises(ValueError, match="another point"):
            retract(manifold, y, xi)


@functools.cache
def rmc_merit(m, n, r):
    """Random RMC instance of seed 1 (the basic one at 5 x 5), its start and the
    merit gradient of the first subproblem (w = 0, rho = 1) as a function of x."""
    dims = {} if (m, n, r) == (5, 5, 3) else dict(mode="random", m=m, n=n, r=r)
    p, x0, _, _ = build_problem(RunConfig(family="rmc", seed=1, **dims))
    shifts = merit_shifts(p, np.zeros((m, n)), None, 1.0)
    return p, x0, lambda x: merit_rgrad(p, x, merit_eval(p, x, shifts, 1.0)[1])


class TestFactoredBBPair:
    """``bb_pair``: the tangent step and the ambient gradient difference on
    the fixed-rank manifold, the ambient secant on the sphere; and the
    retraction facts the solver relies on."""

    # 5 x 5 takes the dense-SVD retraction, the others the orthographic one
    @pytest.mark.parametrize("m,n,r", [(200, 200, 5), (80, 60, 3), (5, 5, 3)])
    @pytest.mark.parametrize("t", [1e-2, 1e-4, 1e-6])
    def test_factored_pair_matches_dense(self, m, n, r, t):
        p, x, rgrad = rmc_merit(m, n, r)
        grad = rgrad(x)
        x_new = retract(p.manifold, x, -t * grad)
        grad_new = rgrad(x_new)
        # s = -t G and y = G+ - G on the dense gradients
        g, g_new = np.asarray(grad), np.asarray(grad_new)
        y_vec = g_new - g
        ref_ss, ref_sy, ref_yy = t * t * np.sum(g * g), np.sum(-t * g * y_vec), np.sum(y_vec * y_vec)
        ss, sy, yy = bb_pair(x, x_new, grad, grad_new, t, tangent_norm(grad), tangent_norm(grad_new))
        assert ss == pytest.approx(ref_ss, rel=1e-12, abs=0)
        # both forms of <s, y> cancel t |G|^2 against t <G, G+>, so they agree
        # to a relative 1e-12 of that scale (measured: within 2 eps of it)
        scale = max(abs(ref_sy), t * np.linalg.norm(g) * (np.linalg.norm(g) + np.linalg.norm(g_new)))
        assert abs(sy - ref_sy) <= 1e-12 * scale
        # |y|^2 = |G+|^2 - 2 <G, G+> + |G|^2 cancels against |G|^2 + |G+|^2, so
        # it is exact to a relative 1e-14 of that (measured: within 8e-16)
        assert abs(yy - ref_yy) <= 1e-14 * (np.sum(g * g) + np.sum(g_new * g_new))

    def test_sphere_pair_is_the_ambient_secant(self):
        manifold = Sphere(6)
        rng = np.random.default_rng(11)
        x = random_point(manifold, rng)
        grad = tangent_vector(manifold, x, rng.standard_normal(6))
        x_new = retract(manifold, x, -0.1 * grad)
        grad_new = tangent_vector(manifold, x_new, rng.standard_normal(6))
        s_vec, y_vec = x_new.ambient - x.ambient, grad_new - grad
        ss, sy, yy = bb_pair(x, x_new, grad, grad_new, 0.1, norm(grad), norm(grad_new))
        assert (ss, sy) == (np.sum(s_vec * s_vec), np.sum(s_vec * y_vec))
        assert yy == pytest.approx(np.sum(y_vec * y_vec), rel=1e-14, abs=0)

    def test_each_gradient_forms_its_factors_once(self, monkeypatch):
        """A gradient's factors, formed when it is the new gradient of one
        pair, are reused when it is the old gradient of the next."""
        p, x, rgrad = rmc_merit(80, 60, 3)
        xs, grads = [x], [rgrad(x)]
        for _ in range(2):
            xs.append(retract(p.manifold, xs[-1], -1e-2 * grads[-1]))
            grads.append(rgrad(xs[-1]))
        formed = []
        concatenate = np.concatenate

        def counted(arrays, *args, **kwargs):
            formed.append(len(arrays))
            return concatenate(arrays, *args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counted)
        for k in range(2):
            gn, gn_new = tangent_norm(grads[k]), tangent_norm(grads[k + 1])
            bb_pair(xs[k], xs[k + 1], grads[k], grads[k + 1], 1e-2, gn, gn_new)
        # (L, R) of grads 0, 1 and 2, two concatenations each
        assert len(formed) == 6
        assert grads[1].factors() is grads[1].factors()

    def test_drifted_factors_are_reorthonormalized(self):
        manifold = FixedRank(80, 60, 3)
        rng = np.random.default_rng(5)
        x = random_point(manifold, rng)
        # orthonormality drift of 2e-11, inside check_point's 1e-10
        x = fixed_rank_point_from_factors(x.u * (1 + 1e-11), x.s, x.v)
        check_point(manifold, x)
        grad = tangent_vector(manifold, x, rng.standard_normal((80, 60)))
        x_new = retract(manifold, x, -1e-3 * grad)
        # Cholesky QR from the Grams of the drifted factors repairs the drift
        assert np.abs(x_new.u.T @ x_new.u - np.eye(3)).max() < 1e-13
        assert np.abs(x_new.v.T @ x_new.v - np.eye(3)).max() < 1e-13

    def test_a_retraction_chain_does_not_keep_its_start_alive(self):
        manifold = FixedRank(200, 200, 5)
        rng = np.random.default_rng(8)
        x = random_point(manifold, rng)
        first = weakref.ref(x)
        for _ in range(50):
            xi = tangent_vector(manifold, x, rng.standard_normal((200, 200)))
            x = retract(manifold, x, 1e-3 * xi)
        del xi
        assert first() is None
