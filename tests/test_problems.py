import numpy as np
import pytest

import ralm.problems
from ralm.convex import dist2_grad, moreau_env, prox, project_set
from ralm.manifolds import Sphere, project_tangent, random_point, retract, sphere_point
from ralm.problems import (
    SPHERE_L1_DEMO_A,
    ProblemInstance,
    aug_lagrangian,
    aug_lagrangian_value,
    circle_problem,
    generate_rmc_instance,
    hess_quadform,
    lagrangian_rgrad,
    merit_eval,
    merit_rgrad,
    merit_shifts,
    objective_value,
    rhess_apply,
    rmc_basic_instance,
    rmc_problem,
    rmc_spectral_init,
    sphere_l1_problem,
    tilted_instance,
)
from ralm.solver import subproblem_solve

from helpers import lagrangian_value, random_tangent

RT2 = np.sqrt(2.0) / 2.0


def make_families():
    rng = np.random.default_rng(0)
    mask = np.zeros((4, 5), dtype=bool)
    mask[rng.random((4, 5)) < 0.6] = True
    a_rmc = rng.standard_normal((4, 5))
    return {
        "circle": circle_problem(),
        "sphere-l1": sphere_l1_problem(rng.standard_normal((6, 6)), 0.3),
        "rmc": rmc_problem(a_rmc, mask, 2),
    }


def multipliers_like(p, rng, scale=1.0):
    y = scale * rng.standard_normal(p.g1.out_shape)
    z = scale * rng.standard_normal(p.g2.out_shape) if p.q is not None else None
    return y, z


class TestAdjointConsistency:
    @pytest.mark.parametrize("name", ["circle", "sphere-l1", "rmc"])
    def test_jacobian_adjoint_pairs(self, name):
        p = make_families()[name]
        rng = np.random.default_rng(5)
        for trial in range(200):
            x = random_point(p.manifold, rng)
            xi = random_tangent(p.manifold, x, rng)
            for g in (p.g1, p.g2):
                if g is None:
                    continue
                y = rng.standard_normal(g.out_shape)
                lhs = np.sum(g.jacobian_apply(xi) * y)
                rhs = np.sum(xi * g.jacobian_adjoint(y))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestFamilies:
    def test_circle_structure(self):
        p = circle_problem()
        assert isinstance(p.manifold, Sphere) and p.manifold.n == 2
        assert p.theta.mu == 1.0
        np.testing.assert_array_equal(p.q.lower, [0.0])
        np.testing.assert_array_equal(p.q.upper, [np.inf])
        x = np.array([1.0, 0.0])
        np.testing.assert_allclose(p.g1.value(x), [1.0])
        np.testing.assert_allclose(p.g1.jacobian_adjoint(np.array([2.0])), [2.0, -2.0])
        np.testing.assert_allclose(p.g2.value(x), [2.0])

    def test_sphere_l1_demo_value(self):
        p = sphere_l1_problem(SPHERE_L1_DEMO_A, 0.25)
        e2 = np.zeros(5)
        e2[1] = -1.0
        assert p.f.value_grad(e2)[0] == pytest.approx(-625.0)

    def test_rmc_full_mask_is_difference(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        p = rmc_problem(a, np.ones((3, 3), dtype=bool), 1)
        x = rng.standard_normal((3, 3))
        np.testing.assert_allclose(p.g1.value(x), x - a)

    def test_rmc_masking_is_self_adjoint(self):
        rng = np.random.default_rng(2)
        mask = rng.random((4, 4)) < 0.5
        a = rng.standard_normal((4, 4))
        p = rmc_problem(a, mask, 2)
        u = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(p.g1.jacobian_apply(u), p.g1.jacobian_adjoint(u))

    def test_g2_requires_q(self):
        p = circle_problem()
        with pytest.raises(ValueError):
            ProblemInstance(manifold=p.manifold, f=p.f, g1=p.g1, theta=p.theta, g2=p.g2, q=None)

    def test_generator_shapes_and_budget(self):
        a, mask, a_exact = generate_rmc_instance(30, 20, 2, 3.0, 1)
        assert a.shape == (30, 20) and mask.shape == (30, 20)
        assert mask.sum() == int(3.0 * (30 + 20 - 2) * 2)
        n_out = np.sum(np.abs(a - np.where(mask, a_exact, 0.0))[mask] > 1e-12)
        assert n_out == int(round(0.03 * mask.sum()))

    def test_oversample_budget_guard(self):
        with pytest.raises(ValueError, match="oversample"):
            generate_rmc_instance(5, 5, 3, 10.0, 0)

    def test_rank_above_dimensions_rejected_before_budget(self):
        with pytest.raises(ValueError, match="rank"):
            generate_rmc_instance(10, 10, 12, 3.0, 1)


def separate_formulas():
    """(instance, value, egrad) per family, value and gradient written as
    the two separate formulas that ``value_grad`` fuses."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    ata = a.T @ a
    a_rmc, mask = rng.standard_normal((4, 5)), rng.random((4, 5)) < 0.6
    return {
        "circle": (
            circle_problem(),
            lambda x: float(x[1] ** 2),
            lambda x: np.array([0.0, 2.0 * x[1]]),
        ),
        "sphere-l1": (sphere_l1_problem(a, 0.3), lambda x: float(-x @ (ata @ x)), lambda x: -2.0 * (ata @ x)),
        "rmc": (rmc_problem(a_rmc, mask, 2), lambda x: 0.0, lambda x: np.zeros((4, 5))),
    }


class TestValueGrad:
    @pytest.mark.parametrize("tilted", [False, True], ids=["plain", "tilted"])
    @pytest.mark.parametrize("name", ["circle", "sphere-l1", "rmc"])
    def test_equals_the_separate_formulas_bit_for_bit(self, name, tilted):
        p, value, egrad = separate_formulas()[name]
        rng = np.random.default_rng(12)
        if tilted:
            t = rng.standard_normal(p.manifold.ambient_shape)
            p = tilted_instance(p, a=t)
            value, egrad = (lambda x, v=value: v(x) - float(np.sum(t * x))), (lambda x, g=egrad: g(x) - t)
        for _ in range(5):
            x = random_point(p.manifold, rng).ambient
            val, grad = p.f.value_grad(x)
            assert type(val) is float and val == value(x)
            assert np.array_equal(grad, egrad(x))


class TestLagrangian:
    def test_value_at_known_triple(self):
        p = circle_problem()
        x = sphere_point([RT2, RT2])
        val = lagrangian_value(p, x, np.array([RT2]), np.array([0.0]))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_zero_multipliers_give_objective_smooth_part(self):
        p = circle_problem()
        x = sphere_point([0.0, 1.0])
        assert lagrangian_value(p, x, np.zeros(1), np.zeros(1)) == pytest.approx(1.0)

    def test_identity_map_example(self):
        p = sphere_l1_problem(np.eye(2), 1.0)
        x = sphere_point([1.0, 0.0])
        assert lagrangian_value(p, x, np.array([1.0, 0.0])) == pytest.approx(0.0)

    def test_rgrad_vanishes_at_known_triple(self):
        p = circle_problem()
        x = sphere_point([RT2, RT2])
        g = lagrangian_rgrad(p, x, np.array([RT2]), np.array([0.0]))
        np.testing.assert_allclose(g, np.zeros(2), atol=1e-14)

    def test_omitted_set_multiplier_is_rejected(self):
        p = circle_problem()
        # violates 2 x1 + x2 >= 0; with z = 1 the gradient is (0.5, -0.5)
        x, y = sphere_point([-RT2, -RT2]), np.array([-RT2])
        np.testing.assert_allclose(lagrangian_rgrad(p, x, y, np.ones(1)), [0.5, -0.5], atol=1e-14)
        with pytest.raises(ValueError, match="set constraint"):
            lagrangian_rgrad(p, x, y)
        with pytest.raises(ValueError, match="set constraint"):
            lagrangian_value(p, x, y)

    def test_rgrad_reduces_to_projected_objective_gradient(self):
        p = sphere_l1_problem(SPHERE_L1_DEMO_A, 0.25)
        x = random_point(p.manifold, 3)
        g = lagrangian_rgrad(p, x, np.zeros(5))
        np.testing.assert_allclose(
            g, project_tangent(p.manifold, x, p.f.value_grad(x.ambient)[1]), atol=1e-14
        )

    @pytest.mark.parametrize("name", ["circle", "sphere-l1", "rmc"])
    def test_rgrad_matches_finite_differences(self, name):
        p = make_families()[name]
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = random_point(p.manifold, rng)
            y, z = multipliers_like(p, rng)
            xi = random_tangent(p.manifold, x, rng)
            xi /= np.linalg.norm(xi)
            g = lagrangian_rgrad(p, x, y, z)
            t = 1e-6
            vp = lagrangian_value(p, retract(p.manifold, x, t * xi), y, z)
            vm = lagrangian_value(p, retract(p.manifold, x, -t * xi), y, z)
            fd = (vp - vm) / (2 * t)
            assert abs(fd - np.sum(g * xi)) <= 1e-5 * max(1.0, abs(fd))


class TestAugmentedLagrangian:
    def test_gradient_vanishes_at_solved_configuration(self):
        p = circle_problem()
        x = sphere_point([RT2, RT2])
        val, grad = aug_lagrangian(p, x, np.array([RT2]), np.array([0.0]), 10.0)
        np.testing.assert_allclose(grad, np.zeros(2), atol=1e-12)
        assert val == pytest.approx(0.5 + 0.5 * 10.0 * (RT2 / 10.0) ** 2, abs=1e-12)

    def test_inactive_set_term_contributes_nothing(self):
        p = circle_problem()
        x = sphere_point([RT2, RT2])  # g2 = 3*sqrt(2)/2 interior
        val0, grad0 = aug_lagrangian(p, x, np.zeros(1), np.zeros(1), 2.0)
        # removing the set term entirely gives the same value and gradient
        p_nog2 = ProblemInstance(manifold=p.manifold, f=p.f, g1=p.g1, theta=p.theta)
        val1, grad1 = aug_lagrangian(p_nog2, x, np.zeros(1), None, 2.0)
        assert val0 == pytest.approx(val1, abs=1e-15)
        np.testing.assert_allclose(grad0, grad1, atol=1e-15)

    def test_rejects_nonpositive_rho(self):
        p = circle_problem()
        x = sphere_point([1.0, 0.0])
        with pytest.raises(ValueError):
            aug_lagrangian(p, x, np.zeros(1), np.zeros(1), 0.0)

    @pytest.mark.parametrize("name", ["circle", "sphere-l1", "rmc"])
    def test_gradient_matches_finite_differences(self, name):
        p = make_families()[name]
        rng = np.random.default_rng(11)
        rho = 5.0
        for _ in range(100):
            x = random_point(p.manifold, rng)
            w, pm = multipliers_like(p, rng)
            xi = random_tangent(p.manifold, x, rng)
            nrm = np.linalg.norm(xi)
            if nrm < 1e-12:
                continue
            xi /= nrm
            val, grad = aug_lagrangian(p, x, w, pm, rho)
            assert val == pytest.approx(aug_lagrangian_value(p, x, w, pm, rho), abs=1e-12)
            t = 1e-6
            vp = aug_lagrangian_value(p, retract(p.manifold, x, t * xi), w, pm, rho)
            vm = aug_lagrangian_value(p, retract(p.manifold, x, -t * xi), w, pm, rho)
            fd = (vp - vm) / (2 * t)
            assert abs(fd - np.sum(grad * xi)) <= 1e-5 * max(1.0, abs(fd))

    @pytest.mark.parametrize("name", ["circle", "sphere-l1", "rmc"])
    def test_chain_rule_multiplier_identity(self, name):
        # grad_x L_rho(x, w, p) equals grad_x L(x, yhat, zhat) at the
        # envelope/projection multiplier estimates
        p = make_families()[name]
        rng = np.random.default_rng(13)
        rho = 3.0
        for _ in range(25):
            x = random_point(p.manifold, rng)
            w, pm = multipliers_like(p, rng)
            _, grad = aug_lagrangian(p, x, w, pm, rho)
            u = p.g1.value(x.ambient) + w / rho
            yhat = rho * (u - prox(p.theta, u, 1.0 / rho))
            zhat = None
            if p.q is not None:
                s = p.g2.value(x.ambient) + pm / rho
                zhat = rho * (s - project_set(p.q, s))
            np.testing.assert_allclose(
                grad, lagrangian_rgrad(p, x, yhat, zhat), atol=1e-10
            )

    @pytest.mark.parametrize("name", ["circle", "sphere-l1", "rmc"])
    def test_envelope_upper_bound_on_feasible_points(self, name):
        # L_rho(x, w, p) <= f + theta(g1) + (|w|^2 + |p|^2) / (2 rho) whenever
        # g2(x) is in Q
        p = make_families()[name]
        rng = np.random.default_rng(17)
        rho = 4.0
        checked = 0
        while checked < 50:
            x = random_point(p.manifold, rng)
            if p.q is not None:
                g2 = p.g2.value(x.ambient)
                if np.linalg.norm(g2 - project_set(p.q, g2)) > 1e-12:
                    continue
            w, pm = multipliers_like(p, rng)
            bound = objective_value(p, x) + np.sum(np.asarray(w) ** 2) / (2 * rho)
            if pm is not None:
                bound += np.sum(pm**2) / (2 * rho)
            assert aug_lagrangian_value(p, x, w, pm, rho) <= bound + 1e-12
            checked += 1


def reference_aug_lagrangian(p, x, w, p_mult, rho):
    """L_rho value and Riemannian gradient in one pass, in the original operation order."""
    xa = x.ambient
    env_val, env_grad = moreau_env(p.theta, p.g1.value(xa) + np.asarray(w) / rho, rho)
    f_val, f_grad = p.f.value_grad(xa)
    val = f_val + env_val
    ambient = f_grad + p.g1.jacobian_adjoint(env_grad)
    if p.q is not None:
        d_val, d_grad = dist2_grad(p.q, p.g2.value(xa) + np.asarray(p_mult) / rho, rho)
        val += d_val
        ambient = ambient + p.g2.jacobian_adjoint(d_grad)
    return val, project_tangent(p.manifold, x, ambient)


def acceptance_families():
    a, mask, _ = rmc_basic_instance(42)
    return {
        "circle": circle_problem(),
        "sphere-l1-builtin5x5": sphere_l1_problem(SPHERE_L1_DEMO_A, 0.25),
        "rmc-basic5x5": rmc_problem(a, mask, 3),
    }


class TestFusedMerit:
    @pytest.mark.parametrize("name", ["circle", "sphere-l1-builtin5x5", "rmc-basic5x5"])
    def test_wrappers_and_fused_pair_match_reference_bitwise(self, name):
        p = acceptance_families()[name]
        rng = np.random.default_rng(19)
        for rho in (0.3, 1.0, 10.0, 1e4):
            for _ in range(10):
                x = random_point(p.manifold, rng)
                w, pm = multipliers_like(p, rng, scale=3.0)
                ref_val, ref_grad = reference_aug_lagrangian(p, x, w, pm, rho)
                val, grads = merit_eval(p, x, merit_shifts(p, w, pm, rho), rho)
                assert val == ref_val
                assert np.array_equal(merit_rgrad(p, x, grads), ref_grad)
                assert aug_lagrangian_value(p, x, w, pm, rho) == ref_val
                wrap_val, wrap_grad = aug_lagrangian(p, x, w, pm, rho)
                assert wrap_val == ref_val
                assert np.array_equal(wrap_grad, ref_grad)


def rmc_random_30():
    a, mask, _ = generate_rmc_instance(30, 30, 2, 3.0, 4)
    return rmc_problem(a, mask, 2), a, mask


class TestObservedEntryMerit:
    """RMC's merit reads X on the observed entries only (g1's support)."""

    @pytest.mark.parametrize("tilt", [False, True], ids=["rmc", "tilted"])
    @pytest.mark.parametrize("rho", [0.3, 1.0, 10.0, 1e4])
    def test_matches_dense_reference(self, rho, tilt):
        # reference_aug_lagrangian runs the envelope on all m x n entries of g1
        p, _, mask = rmc_random_30()
        assert np.array_equal(p.g1.support, np.flatnonzero(mask))
        rng = np.random.default_rng(37)
        for _ in range(10):
            if tilt:
                # b moves g1 off the support too
                b = 2.0 * rng.standard_normal(mask.shape)
                q = tilted_instance(p, rng.standard_normal(mask.shape), b)
            else:
                q = p
            x = random_point(q.manifold, rng)
            w, pm = multipliers_like(q, rng, scale=3.0)  # nonzero off the support too
            ref_val, ref_grad = reference_aug_lagrangian(q, x, w, pm, rho)
            val, grads = merit_eval(q, x, merit_shifts(q, w, pm, rho), rho)
            assert abs(val - ref_val) <= 1e-12 * abs(ref_val)
            grad = np.asarray(merit_rgrad(q, x, grads))
            assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)

    def test_full_mask_keeps_the_dense_path(self):
        a, mask, _ = rmc_basic_instance(42)
        assert mask.all() and rmc_problem(a, mask, 3).g1.support is None

    def test_envelope_sees_only_observed_entries_in_the_inner_solve(self, monkeypatch):
        p, a, mask = rmc_random_30()
        sizes = []
        envelope = ralm.problems.moreau_env

        def recording(theta, u, rho):
            sizes.append(np.size(u))
            return envelope(theta, u, rho)

        monkeypatch.setattr(ralm.problems, "moreau_env", recording)
        x0 = rmc_spectral_init(a, mask, 2)
        res = subproblem_solve(p, np.zeros(mask.shape), None, 10.0, x0, 1e-6)
        assert res.iters > 0 and len(sizes) > res.iters
        assert set(sizes) == {int(mask.sum())}


class TestTiltedInstance:
    def test_tilt_changes_gradient_by_constant(self):
        p = sphere_l1_problem(np.eye(3), 0.5)
        rng = np.random.default_rng(19)
        a = rng.standard_normal(3)
        pt = tilted_instance(p, a=a)
        x = random_point(p.manifold, rng)
        val_t, grad_t = pt.f.value_grad(x.ambient)
        val, grad = p.f.value_grad(x.ambient)
        np.testing.assert_allclose(grad_t, grad - a)
        assert val_t == pytest.approx(val - float(a @ x.ambient))

    def test_shifts_move_constraint_values_only(self):
        p = circle_problem()
        b = np.array([0.2])
        c = np.array([-0.1])
        pt = tilted_instance(p, b=b, c=c)
        x = sphere_point([0.0, 1.0])
        np.testing.assert_allclose(pt.g1.value(x.ambient), p.g1.value(x.ambient) + b)
        np.testing.assert_allclose(pt.g2.value(x.ambient), p.g2.value(x.ambient) + c)
        xi = random_tangent(p.manifold, x, 3)
        np.testing.assert_array_equal(pt.g1.jacobian_apply(xi), p.g1.jacobian_apply(xi))

    def test_original_instance_untouched(self):
        p = circle_problem()
        x = sphere_point([1.0, 0.0])
        before = p.g1.value(x.ambient).copy()
        tilted_instance(p, a=np.ones(2), b=np.ones(1), c=np.ones(1))
        np.testing.assert_array_equal(p.g1.value(x.ambient), before)

    def test_shift_without_set_constraint_rejected(self):
        p = sphere_l1_problem(np.eye(2), 1.0)
        with pytest.raises(ValueError):
            tilted_instance(p, c=np.ones(2))


def second_difference(p, x, z, v, h=1e-3):
    """Five-point second difference of t -> l(R_x(t v)) at 0, l = f + <z, g2>."""
    y0 = np.zeros(p.g1.out_shape)
    vals = [lagrangian_value(p, retract(p.manifold, x, t * v), y0, z) for t in (-2 * h, -h, h, 2 * h)]
    return (-vals[0] + 16 * vals[1] - 30 * lagrangian_value(p, x, y0, z) + 16 * vals[2] - vals[3]) / (12 * h * h)


class TestRhessApply:
    # every family tilted by f -> f - <a, x>, so that the Weingarten map is
    # not zero on RMC; 70 x 60 takes the orthographic retraction
    @pytest.mark.parametrize("name", ["circle", "sphere-l1", "rmc", "rmc-70x60"])
    def test_symmetric_and_matches_polarised_second_differences(self, name):
        rng = np.random.default_rng(31)
        if name == "rmc-70x60":
            p = rmc_problem(rng.standard_normal((70, 60)), np.ones((70, 60), dtype=bool), 3)
        else:
            p = make_families()[name]
        p = tilted_instance(p, a=rng.standard_normal(p.manifold.ambient_shape))
        z = rng.standard_normal(p.g2.out_shape) if p.q is not None else None
        for _ in range(3):
            x = random_point(p.manifold, rng)
            xi, eta = (random_tangent(p.manifold, x, rng) for _ in range(2))
            xi, eta = xi / np.linalg.norm(xi), eta / np.linalg.norm(eta)
            h_xi, h_eta = rhess_apply(p, x, z, xi), rhess_apply(p, x, z, eta)
            np.testing.assert_allclose(project_tangent(p.manifold, x, h_xi), h_xi, atol=1e-12)
            assert np.sum(eta * h_xi) == pytest.approx(np.sum(xi * h_eta), abs=1e-12)
            polar = (second_difference(p, x, z, xi + eta) - second_difference(p, x, z, xi - eta)) / 4
            assert np.sum(eta * h_xi) == pytest.approx(polar, abs=1e-6 * max(1.0, abs(polar)))
            assert hess_quadform(p, x, z, xi) == np.sum(xi * h_xi)


class TestHessQuadform:
    def test_sphere_closed_form_matches_value_differences(self):
        p = sphere_l1_problem(SPHERE_L1_DEMO_A, 0.25)
        rng = np.random.default_rng(23)
        x = random_point(p.manifold, rng)
        xi = random_tangent(p.manifold, x, rng)
        xi /= np.linalg.norm(xi)
        q = hess_quadform(p, x, None, xi)
        t = 1e-4
        vals = [p.f.value_grad(retract(p.manifold, x, s * xi).ambient)[0] for s in (-t, 0, t)]
        fd = (vals[0] - 2 * vals[1] + vals[2]) / t**2
        assert abs(q - fd) <= 1e-4 * max(1.0, abs(q))

    def test_zero_direction(self):
        p = circle_problem()
        x = sphere_point([1.0, 0.0])
        assert hess_quadform(p, x, np.zeros(1), np.zeros(2)) == 0.0

    def test_omitted_set_multiplier_is_rejected(self):
        p = circle_problem()
        # violates 2 x1 + x2 >= 0; with z = 1 the form is 1 + (3 sqrt(2)/2 - 1)
        x, xi = sphere_point([-RT2, -RT2]), np.array([RT2, -RT2])
        assert hess_quadform(p, x, np.ones(1), xi) == pytest.approx(1.5 * np.sqrt(2.0), abs=1e-14)
        with pytest.raises(ValueError, match="set constraint"):
            hess_quadform(p, x, None, xi)

    # 5x5 and 20x20 retract by the metric projection, 70x60 by the
    # orthographic retraction
    @pytest.mark.parametrize("m, n, r", [(5, 5, 3), (20, 20, 2), (70, 60, 3)])
    def test_fixed_rank_closed_form_matches_second_difference(self, m, n, r):
        # f = -<A, X> on the fixed-rank manifold: Hess f is the curvature term alone
        rng = np.random.default_rng(29)
        a = rng.standard_normal((m, n))
        p = tilted_instance(rmc_problem(a, np.ones((m, n), dtype=bool), r), a=a)
        x = random_point(p.manifold, rng)
        xi = random_tangent(p.manifold, x, rng)
        xi /= np.linalg.norm(xi)
        assert hess_quadform(p, x, None, xi) == pytest.approx(second_difference(p, x, None, xi), rel=1e-6)
