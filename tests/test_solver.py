from dataclasses import replace

import numpy as np
import pytest

import ralm.problems
import ralm.solver
from ralm.analysis import calmness_probe, polish_kkt
from ralm.cli import build_problem, make_parser
from ralm.config import RunConfig, apply_flag_overrides
from ralm.convex import project_set, prox
from ralm.manifolds import (
    FixedRankTangent,
    RankDeficiencyError,
    check_point,
    random_point,
    sphere_point,
    tangent_norm,
)
from ralm.problems import (
    SPHERE_L1_DEMO_A,
    aug_lagrangian,
    circle_problem,
    lagrangian_rgrad,
    merit_eval,
    merit_rgrad,
    merit_shifts,
    multiplier_gap,
    objective_value,
    rmc_basic_instance,
    rmc_problem,
    sphere_l1_problem,
    tilted_instance,
)
from ralm.solver import (
    ABB_RATIO,
    ARMIJO_C,
    INIT_STEP,
    REL_STOP,
    ALMConfig,
    abb_step,
    alm_run,
    auxiliary_v,
    kkt_blocks,
    kkt_residual,
    kkt_residual_components,
    penalty_update,
    subproblem_solve,
    update_multipliers,
)

RT2 = np.sqrt(2.0) / 2.0


def circle_solution():
    return sphere_point([RT2, RT2]), np.array([RT2]), np.array([0.0])


class TestKKTResidual:
    def test_zero_at_known_solution(self):
        p = circle_problem()
        x, y, z = circle_solution()
        assert kkt_residual(p, x, y, z) <= 1e-12

    def test_components_at_infeasible_point(self):
        p = circle_problem()
        x = sphere_point([1.0, 0.0])
        comps = kkt_residual_components(p, x, np.zeros(1), np.zeros(1))
        assert comps[0] == pytest.approx(0.0, abs=1e-14)  # gradient of x2^2 vanishes
        assert comps[1] == pytest.approx(1.0)
        assert comps[2] == 0.0
        assert kkt_residual(p, x, np.zeros(1), np.zeros(1)) == pytest.approx(1.0)

    def test_omitted_set_multiplier_is_rejected(self):
        p = circle_problem()
        # violates 2 x1 + x2 >= 0 (g2 = -2.12) and is stationary for this y
        x, y = sphere_point([-RT2, -RT2]), np.array([-RT2])
        assert kkt_residual(p, x, y, np.zeros(1)) == pytest.approx(1.5 * np.sqrt(2.0))
        with pytest.raises(ValueError, match="set constraint"):
            kkt_residual(p, x, y)
        with pytest.raises(ValueError, match="set constraint"):
            update_multipliers(p, x, y, None, 1.0)

    def test_nonnegative_on_random_triples(self):
        p = sphere_l1_problem(np.eye(4), 0.5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = random_point(p.manifold, rng)
            y = rng.standard_normal(4)
            assert kkt_residual(p, x, y) >= 0.0


class TestUpdateMultipliers:
    def test_soft_threshold_below_mu(self):
        p = sphere_l1_problem(np.eye(1 + 1), 0.25)
        # craft x so g1(x) + w/rho = (0.1, ...): use w to steer
        x = sphere_point([1.0, 0.0])
        w = np.array([-0.9, 0.0])
        y, z, _ = update_multipliers(p, x, w, None, 1.0)
        assert z is None
        assert y[0] == pytest.approx(0.1, abs=1e-15)

    def test_zero_argument_gives_zero(self):
        p = sphere_l1_problem(np.eye(2), 1.0)
        x = sphere_point([1.0, 0.0])
        y, _, _ = update_multipliers(p, x, np.array([-1.0, 0.0]), None, 1.0)
        assert y[0] == 0.0

    def test_projection_branch(self):
        p = circle_problem()
        # g2(x) + p/rho = -1.5 with x = (-1, 0): g2 = -2, p = 1
        x = sphere_point([-1.0, 0.0])
        _, z, _ = update_multipliers(p, x, np.zeros(1), np.array([1.0]), 2.0)
        assert z[0] == pytest.approx(-3.0)

    def test_multiplier_in_subdifferential(self):
        p = sphere_l1_problem(SPHERE_L1_DEMO_A, 0.25)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = random_point(p.manifold, rng)
            w = rng.standard_normal(5)
            rho = float(rng.uniform(0.5, 20))
            y, _, _ = update_multipliers(p, x, w, None, rho)
            assert np.all(np.abs(y) <= p.theta.mu + 1e-12)


class TestAuxiliaryV:
    def test_zero_at_kkt_pair_for_any_rho(self):
        p = circle_problem()
        x, y, z = circle_solution()
        for rho in (1.0, 10.0, 1e4, 1e8):
            assert auxiliary_v(p, x, y, z, rho) <= 1e-12

    def test_zero_when_feasible_with_zero_multipliers(self):
        p = circle_problem()
        x, _, _ = circle_solution()  # g1(x*) = 0 and g2(x*) in Q
        assert auxiliary_v(p, x, np.zeros(1), np.zeros(1), 1.0) == 0.0

    def test_infeasible_point_example(self):
        p = circle_problem()
        x = sphere_point([1.0, 0.0])
        assert auxiliary_v(p, x, np.zeros(1), np.zeros(1), 1.0) == pytest.approx(1.0)

    def test_matches_multiplier_increment(self):
        p = circle_problem()
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = random_point(p.manifold, rng)
            w = rng.standard_normal(1)
            pm = rng.standard_normal(1)
            rho = float(rng.uniform(0.5, 50))
            y_next, z_next, _ = update_multipliers(p, x, w, pm, rho)
            v = auxiliary_v(p, x, w, pm, rho)
            expected = max(
                np.linalg.norm(y_next - w) / rho, np.linalg.norm(z_next - pm) / rho
            )
            assert v == pytest.approx(expected, abs=1e-12)


def reference_kkt_components(p, x, y, z=None):
    """The three residual norms, in the operation order of the original formula."""
    grad_norm = float(np.linalg.norm(lagrangian_rgrad(p, x, y, z)))
    g1 = p.g1.value(x.ambient)
    theta_norm = float(np.linalg.norm(g1 - prox(p.theta, g1 + np.asarray(y))))
    if p.q is not None and z is not None:
        g2 = p.g2.value(x.ambient)
        set_norm = float(np.linalg.norm(g2 - project_set(p.q, g2 + np.asarray(z))))
    else:
        set_norm = 0.0
    return grad_norm, theta_norm, set_norm


def reference_multiplier_step(p, x, w, p_mult, rho):
    """(y+, z+, V, multiplier consistency gap) with a separate prox/projection each."""
    u = p.g1.value(x.ambient) + np.asarray(w) / rho
    y_next = rho * (u - prox(p.theta, u, 1.0 / rho))
    z_next = None
    if p.q is not None and p_mult is not None:
        s = p.g2.value(x.ambient) + np.asarray(p_mult) / rho
        z_next = rho * (s - project_set(p.q, s))
    g1 = p.g1.value(x.ambient)
    first = float(np.linalg.norm(g1 - prox(p.theta, g1 + np.asarray(w) / rho, 1.0 / rho)))
    second = 0.0
    if p.q is not None and p_mult is not None:
        g2 = p.g2.value(x.ambient)
        second = float(np.linalg.norm(g2 - project_set(p.q, g2 + np.asarray(p_mult) / rho)))
    lhs = float(np.linalg.norm(g1 - prox(p.theta, g1 + y_next)))
    rhs = float(np.linalg.norm(g1 - prox(p.theta, g1 + w / rho, 1.0 / rho)))
    return y_next, z_next, max(first, second), lhs - rhs


def acceptance_families():
    a, mask, _ = rmc_basic_instance()
    return {
        "circle": circle_problem(),
        "sphere-l1-builtin5x5": sphere_l1_problem(SPHERE_L1_DEMO_A, 0.25),
        "rmc-basic5x5": rmc_problem(a, mask, 3),
    }


class TestOneKKTSource:
    @pytest.mark.parametrize("name", ["circle", "sphere-l1-builtin5x5", "rmc-basic5x5"])
    def test_blocks_and_multiplier_gaps_match_reference_bitwise(self, name):
        p = acceptance_families()[name]
        rng = np.random.default_rng(29)
        for rho in (0.3, 1.0, 10.0, 1e4):
            for _ in range(10):
                x = random_point(p.manifold, rng)
                y = 3.0 * rng.standard_normal(p.g1.out_shape)
                z = 3.0 * rng.standard_normal(p.g2.out_shape) if p.q is not None else None
                ref = reference_kkt_components(p, x, y, z)
                grad, theta_block, set_block = kkt_blocks(p, x, y, z)
                assert np.array_equal(grad, lagrangian_rgrad(p, x, y, z))
                assert float(np.linalg.norm(theta_block)) == ref[1]
                assert (set_block is None) == (p.q is None)
                assert kkt_residual_components(p, x, y, z) == ref
                assert kkt_residual(p, x, y, z) == float(sum(ref))

                ref_y, ref_z, ref_v, ref_gap = reference_multiplier_step(p, x, y, z, rho)
                y_next, z_next, gaps = update_multipliers(p, x, y, z, rho)
                assert np.array_equal(y_next, ref_y)
                assert (z_next is None and ref_z is None) or np.array_equal(z_next, ref_z)
                assert max(gaps) == ref_v
                assert auxiliary_v(p, x, y, z, rho) == ref_v
                # alm_run's consistency diagnostic: theta norm at y+ minus the first gap
                assert kkt_residual_components(p, x, y_next, z_next)[1] - gaps[0] == ref_gap


class TestPenaltyUpdate:
    def test_first_iteration_keeps_rho(self):
        assert penalty_update(5.0, None, 1.0, 10.0) == 1.0

    def test_zero_progress_measure_keeps_rho(self):
        assert penalty_update(0.0, 1.0, 2.0, 10.0) == 2.0

    def test_insufficient_contraction_grows_rho(self):
        assert penalty_update(1.0, 1.0, 1.0, 10.0) == 10.0

    def test_parameter_validation(self):
        # the penalty settings are checked in one place, ALMConfig.validate
        with pytest.raises(ValueError, match="gamma"):
            ALMConfig(gamma=0.5).validate()


class TestSubproblem:
    def test_immediate_return_at_stationary_point(self):
        p = circle_problem()
        x, y, z = circle_solution()
        res = subproblem_solve(p, y, z, 100.0, x, 1e-6)
        assert res.iters == 0
        assert res.grad_norm <= 1e-12
        np.testing.assert_array_equal(res.x.ambient, x.ambient)

    def test_reaches_requested_tolerance(self):
        p = circle_problem()
        x0 = sphere_point([0.0, 1.0])
        res = subproblem_solve(p, np.zeros(1), np.zeros(1), 10.0, x0, 1e-3)
        assert not res.stalled
        assert res.grad_norm <= 1e-3

    def test_descends_toward_known_optimum(self):
        p = sphere_l1_problem(SPHERE_L1_DEMO_A, 0.25)
        e1 = np.zeros(5)
        e1[0] = 1.0
        # e1 is a stationary saddle of the merit; nudge off it
        x0 = sphere_point((e1 + 1e-3 * np.ones(5)) / np.linalg.norm(e1 + 1e-3 * np.ones(5)))
        res = subproblem_solve(p, np.zeros(5), None, 10.0, x0, 1e-6)
        assert abs(res.x.ambient[1]) > 0.9  # lands near the dominant axis
        assert objective_value(p, res.x) <= objective_value(p, x0)

    def test_rejects_bad_tolerance(self):
        p = circle_problem()
        with pytest.raises(ValueError):
            subproblem_solve(p, np.zeros(1), np.zeros(1), 1.0, sphere_point([1, 0]), 0.0)

    def test_iters_counts_every_step_when_max_iters_runs_out(self, monkeypatch):
        p = circle_problem()
        x0 = sphere_point([0.0, 1.0])
        monkeypatch.setattr(ralm.solver, "INNER_MAX_ITERS", 3)
        res = subproblem_solve(p, np.zeros(1), np.zeros(1), 10.0, x0, 1e-15)
        assert res.iters == 3
        assert res.stalled

    @pytest.mark.parametrize("rho", [0.1, 1.0, 100.0])
    def test_first_trial_step_is_scaled_by_the_penalty(self, monkeypatch, rho):
        # rho <= 1 keeps the unit step
        p = circle_problem()
        w, pm, x0 = np.array([0.3]), np.array([0.1]), sphere_point([0.0, 1.0])
        _, grads = merit_eval(p, x0, merit_shifts(p, w, pm, rho), rho)
        grad = merit_rgrad(p, x0, grads)
        directions = []
        retract_fn = ralm.solver.retract

        def logged(manifold, x, xi):
            directions.append(xi)
            return retract_fn(manifold, x, xi)

        monkeypatch.setattr(ralm.solver, "retract", logged)
        subproblem_solve(p, w, pm, rho, x0, 1e-6)
        np.testing.assert_allclose(directions[0], -(INIT_STEP / max(rho, 1.0)) * grad, rtol=1e-15, atol=0)

    def test_trials_count_every_retraction_rank_deficient_included(self, monkeypatch):
        p, x0, _, _ = build_problem(RunConfig(family="rmc", mode="random", m=20, n=20, r=2, seed=1))
        calls = []
        retract_fn = ralm.solver.retract

        def every_third_drops_rank(manifold, x, xi):
            calls.append(x)
            if len(calls) % 3 == 0:
                raise RankDeficiencyError("retraction dropped rank")
            return retract_fn(manifold, x, xi)

        monkeypatch.setattr(ralm.solver, "retract", every_third_drops_rank)
        res = subproblem_solve(p, np.zeros((20, 20)), None, 1.0, x0, 1e-6)
        assert res.iters > 3
        assert res.trials == len(calls)


class TestAdaptiveBBStep:
    """``abb_step`` on the triple (|s|^2, <s, y>, |y|^2) = (4, 2, yy): BB1 = 2
    and BB2 = 2 / yy."""

    def test_bb2_below_the_ratio(self):
        # BB2 = 0.5 < 0.8 * 2
        assert abb_step(4.0, 2.0, 4.0, 1.0) == 0.5

    @pytest.mark.parametrize("yy", [1.25, 1.1, 1.0])
    def test_bb1_at_and_above_the_ratio(self, yy):
        # BB2 = 1.6 (exactly ABB_RATIO * BB1), 1.82 and 2
        assert ABB_RATIO == 0.8
        assert abb_step(4.0, 2.0, yy, 1.0) == 2.0

    @pytest.mark.parametrize("yy", [0.0, -1e-20])
    def test_bb1_when_yy_is_not_positive(self, yy):
        assert abb_step(4.0, 2.0, yy, 1.0) == 2.0

    @pytest.mark.parametrize("sy", [1e-30, 0.0, -1.0])
    def test_no_curvature_quadruples_the_step_up_to_a_cap(self, sy):
        assert abb_step(4.0, sy, 1.0, 0.5) == 2.0
        assert abb_step(4.0, sy, 1.0, 1e6) == INIT_STEP * 1e6

    def test_step_is_clamped(self):
        assert abb_step(1e-30, 1.0, 0.5, 1.0) == 1e-12
        assert abb_step(1e12, 1e-2, 1e-20, 1.0) == 1e10


def counting(monkeypatch, module, name, counts):
    """Count the calls of module.name that return, in counts[name]."""
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        counts[name] += 1
        return result

    monkeypatch.setattr(module, name, wrapped)


class TestSubproblemEvaluationReuse:
    @pytest.mark.parametrize("family", ["circle", "sphere-l1", "rmc"])
    def test_one_envelope_evaluation_per_trial_point(self, monkeypatch, family):
        rng = np.random.default_rng(3)
        if family == "circle":
            p = circle_problem()
            w, pm, x0 = np.array([0.3]), np.array([0.1]), sphere_point([0.0, 1.0])
        elif family == "sphere-l1":
            p = sphere_l1_problem(SPHERE_L1_DEMO_A, 0.25)
            w, pm, x0 = np.zeros(5), None, random_point(p.manifold, rng)
        else:
            a, mask, _ = rmc_basic_instance()
            p = rmc_problem(a, mask, 3)
            w, pm, x0 = np.zeros((5, 5)), None, random_point(p.manifold, rng)
        counts = {"moreau_env": 0, "retract": 0, "value_grad": 0}
        counting(monkeypatch, ralm.problems, "moreau_env", counts)
        # only retractions that return produce a trial point
        counting(monkeypatch, ralm.solver, "retract", counts)
        value_grad = p.f.value_grad

        def counted_value_grad(x):
            counts["value_grad"] += 1
            return value_grad(x)

        p = replace(p, f=replace(p.f, value_grad=counted_value_grad))
        res = subproblem_solve(p, w, pm, 10.0, x0, 1e-9)
        assert res.iters > 0
        assert counts["retract"] >= res.iters
        assert counts["moreau_env"] == counts["retract"] + 1
        # f is evaluated once per trial point, accepted or not
        assert counts["value_grad"] == counts["moreau_env"]
        # the returned gradient is the merit gradient at the returned point
        _, grad = aug_lagrangian(p, res.x, w, pm, 10.0)
        assert np.array_equal(res.grad, grad)


def test_rmc_200_subproblem_forms_no_dense_tangent(monkeypatch):
    """The fixed-rank inner loop, Barzilai-Borwein pair included, runs on
    factors: no tangent vector's ambient matrix is formed."""
    p, x0, _, _ = build_problem(RunConfig(family="rmc", mode="random", m=200, n=200, r=5, seed=1))
    calls = []
    to_array = FixedRankTangent.__array__

    def counted(self, *args, **kwargs):
        calls.append(self)
        return to_array(self, *args, **kwargs)

    monkeypatch.setattr(FixedRankTangent, "__array__", counted)
    res = subproblem_solve(p, np.zeros((200, 200)), None, 1.0, x0, 1e-4)
    assert res.iters > 10
    assert calls == []


def test_rmc_200_subproblem_factorizes_only_r_by_r_matrices(monkeypatch):
    """The fixed-rank inner loop retracts without a QR of a tall factor: every
    SVD and Cholesky factorization it takes is of an r x r matrix."""
    p, x0, _, _ = build_problem(RunConfig(family="rmc", mode="random", m=200, n=200, r=5, seed=1))
    shapes = {"qr": [], "svd": [], "cholesky": []}

    def counting(name):
        routine = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return routine(a, *args, **kwargs)

        return counted

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, counting(name))
    res = subproblem_solve(p, np.zeros((200, 200)), None, 1.0, x0, 1e-4)
    assert res.iters > 10
    assert shapes["qr"] == []
    assert len(shapes["svd"]) >= res.iters and len(shapes["cholesky"]) >= res.iters
    assert {shape[-2:] for shape in shapes["svd"] + shapes["cholesky"]} == {(5, 5)}


# full runs on small random instances of both manifolds
SMALL_RANDOM_RUNS = pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(family="sphere-l1", mode="random", n=30, seed=1),
        RunConfig(family="rmc", mode="random", m=20, n=20, r=2, seed=1),
    ],
    ids=["sphere-l1-30", "rmc-20"],
)


def log_subproblems(monkeypatch):
    """Log every subproblem_solve call of a run: its arguments and result, each
    retraction (base point, direction, trial point) and each merit evaluation."""
    calls = []
    solve, retract_fn, merit_eval_fn = (
        ralm.solver.subproblem_solve,
        ralm.solver.retract,
        ralm.solver.merit_eval,
    )

    def logged_solve(p, w, p_mult, rho, x_init, *rest):
        call = {"args": (p, w, p_mult, rho, x_init), "retractions": [], "evals": {}}
        calls.append(call)
        call["result"] = solve(p, w, p_mult, rho, x_init, *rest)
        return call["result"]

    def logged_retract(manifold, x, xi):
        out = retract_fn(manifold, x, xi)
        calls[-1]["retractions"].append((x, xi, out))
        return out

    def logged_merit_eval(p, x, shifts, rho):
        out = merit_eval_fn(p, x, shifts, rho)
        calls[-1]["evals"][id(x)] = out
        return out

    monkeypatch.setattr(ralm.solver, "subproblem_solve", logged_solve)
    monkeypatch.setattr(ralm.solver, "retract", logged_retract)
    monkeypatch.setattr(ralm.solver, "merit_eval", logged_merit_eval)
    return calls


def accepted_iterates(call):
    """The start point and the trial points one logged call accepted, in order."""
    res = call["result"]
    accepted = [call["args"][4]]
    for base, _, _ in call["retractions"]:
        if base is not accepted[-1]:
            # a retraction from a new base: the previous trial point was accepted
            accepted.append(base)
    if res.iters == len(accepted):
        # the loop ended right after accepting its last trial point
        accepted.append(call["retractions"][-1][2])
    assert len(accepted) == res.iters + 1
    return accepted


class TestNonmonotoneAcceptance:
    @SMALL_RANDOM_RUNS
    def test_bb_trials_meet_the_last_five_reference(self, monkeypatch, cfg):
        """A BB trial is accepted exactly when it passes Armijo against the max of
        the last 5 accepted merit values or, below the noise floor, comes within
        slack of that max with a gradient norm within the last-5 max norm."""
        p, x0, _, _ = build_problem(cfg)
        calls = log_subproblems(monkeypatch)
        alm_run(p, ALMConfig(), x0)
        rises = 0
        for call in calls:
            _, w, p_mult, rho, _ = call["args"]
            res = call["result"]

            def merit(x):
                val, grads = call["evals"][id(x)]
                grad = merit_rgrad(p, x, grads)
                return val, grad, tangent_norm(grad)

            accepted = accepted_iterates(call)
            vals, grads, gns = zip(*map(merit, accepted))
            for base, xi, out in call["retractions"]:
                j = next(i for i, x in enumerate(accepted) if x is base)
                ref_val, ref_gn = max(vals[max(0, j - 4) : j + 1]), max(gns[max(0, j - 4) : j + 1])
                k = int(np.argmax(np.abs(grads[j])))
                t = -np.asarray(xi).flat[k] / np.asarray(grads[j]).flat[k]
                required = ARMIJO_C * t * gns[j] ** 2
                slack = 1e-14 * (1.0 + abs(vals[j]))
                val_try = call["evals"][id(out)][0]
                if required >= 10.0 * slack:
                    passes = val_try <= ref_val - required
                else:
                    passes = val_try <= ref_val + slack and merit(out)[2] <= ref_gn
                is_accepted = j + 1 < len(accepted) and out is accepted[j + 1]
                assert passes == is_accepted, (j, val_try, ref_val, required)
                if is_accepted:
                    rises += val_try > vals[j] + slack or gns[j + 1] > gns[j]
            assert res.grad_norm == min(gns)
            assert any(x is res.x for x in accepted)
            _, grads_at_x = merit_eval(p, res.x, merit_shifts(p, w, p_mult, rho), rho)
            assert np.array_equal(res.grad, merit_rgrad(p, res.x, grads_at_x))
        # the memory is exercised: some accepted steps beat only an older iterate
        assert rises > 0

    def test_sphere_l1_random_retraction_budget(self, monkeypatch):
        counts = {"retract": 0}
        counting(monkeypatch, ralm.solver, "retract", counts)
        for seed in (1, 2, 3):
            a = np.random.default_rng(seed).standard_normal((50, 50))
            p = sphere_l1_problem(a, 0.25)
            x0 = random_point(p.manifold, np.random.default_rng([seed, 1]))
            alm_run(p, ALMConfig(), x0)
        # the monotone rule needs 4964 retractions here, the last-5 reference 2382
        assert counts["retract"] <= 3000

def gap_instances():
    """name -> (problem, w, p_mult) on the four structures of the multiplier
    gap: a set constraint, a dense envelope, an envelope on a support, and a
    support with a nonzero off-support term."""
    rng = np.random.default_rng(23)
    rmc20, _, _, _ = build_problem(RunConfig(family="rmc", mode="random", m=20, n=20, r=2, seed=1))
    off = np.ones(400, dtype=bool)
    off[rmc20.g1.support] = False
    # b moves g1 off the support, and w is nonzero there too
    tilted = tilted_instance(rmc20, b=rng.standard_normal((20, 20)))
    return {
        "circle": (circle_problem(), np.array([0.4]), np.array([-0.3])),
        "sphere-l1": (sphere_l1_problem(rng.standard_normal((30, 30)), 0.25), rng.standard_normal(30), None),
        "rmc-20": (rmc20, np.where(off.reshape(20, 20), 0.0, rng.standard_normal((20, 20))), None),
        "rmc-20-off-support": (tilted, 3.0 * rng.standard_normal((20, 20)), None),
    }


GAP_CASES = pytest.mark.parametrize("name", ["circle", "sphere-l1", "rmc-20", "rmc-20-off-support"])


class TestRelativeStop:
    """The multiplier gap V read from ``merit_eval``'s gradients, and the
    subproblem stop max(eps, min(eps_cap, REL_STOP * V)) built on it."""

    @GAP_CASES
    def test_merit_gap_matches_the_multiplier_update(self, name):
        p, w, pm = gap_instances()[name]
        rng = np.random.default_rng(29)
        for rho in (0.3, 1.0, 10.0, 1e4):
            shifts = merit_shifts(p, w, pm, rho)
            assert (shifts.gap_off > 0) == (name == "rmc-20-off-support")
            for _ in range(5):
                x = random_point(p.manifold, rng)
                gap = multiplier_gap(shifts, merit_eval(p, x, shifts, rho)[1], rho)
                ref = max(update_multipliers(p, x, w, pm, rho)[2])
                assert abs(gap - ref) <= 1e-13 * (1.0 + ref)

    @GAP_CASES
    def test_relative_rule_ends_the_solve_before_eps(self, name):
        p, w, pm = gap_instances()[name]
        x0 = random_point(p.manifold, np.random.default_rng(31))
        rho, eps = 10.0, 1e-10
        res = subproblem_solve(p, w, pm, rho, x0, eps, 1.0)
        gap = max(update_multipliers(p, res.x, w, pm, rho)[2])
        assert not res.stalled
        assert eps < res.tol <= 1.0
        assert res.grad_norm <= res.tol <= REL_STOP * gap * (1.0 + 1e-12)
        # the absolute rule alone solves on
        full = subproblem_solve(p, w, pm, rho, x0, eps)
        assert full.tol == eps and full.iters > res.iters

    def test_cap_bounds_the_relative_tolerance(self):
        # far from feasibility V is large, so the cap decides
        p, w, pm = gap_instances()["sphere-l1"]
        x0 = random_point(p.manifold, np.random.default_rng(31))
        res = subproblem_solve(p, w, pm, 10.0, x0, 1e-10, 1e-3)
        assert res.tol == 1e-3 < max(update_multipliers(p, res.x, w, pm, 10.0)[2])
        assert not res.stalled and res.grad_norm <= 1e-3

    @pytest.mark.parametrize("stall", [False, True], ids=["solved", "stalled"])
    @SMALL_RANDOM_RUNS
    def test_records_hold_the_tolerance_each_subproblem_used(self, monkeypatch, cfg, stall):
        p, x0, _, _ = build_problem(cfg)
        if stall:
            monkeypatch.setattr(ralm.solver, "INNER_MAX_ITERS", 3)
        results = []
        solve = ralm.solver.subproblem_solve

        def logged(*args):
            results.append(solve(*args))
            return results[-1]

        monkeypatch.setattr(ralm.solver, "subproblem_solve", logged)
        history = alm_run(p, ALMConfig(max_outer=30), x0).history
        assert np.isnan(history[0].inner_tol)
        assert any(res.stalled for res in results) == stall
        for res, rec in zip(results, history[1:], strict=True):
            assert rec.inner_tol == res.tol
            assert (rec.inner_grad_norm <= rec.inner_tol) == (not res.stalled)


def non_finite_cases(fields):
    """(field, value) cases: NaN under the field's name, +inf under name-inf."""
    return [
        pytest.param(f, value, id=f + suffix)
        for f in fields
        for value, suffix in ((float("nan"), ""), (float("inf"), "-inf"))
    ]


# (argv, trial budget of the solves of seeds 1-3): the sphere-200 and rmc-200
# benchmark instances.  BB1 steps alone take 2449 and 1394 trial points, the
# adaptive rule 1853 and 1148, the adaptive rule with the relative stop on
# top of a decaying absolute schedule 1178 and 862, and the one inner-stop
# rule 1112 and 827 (the same with 1 and 2 BLAS threads).  The sphere-l1
# command's polish, not run here, adds 540 with BB1, 401 with the adaptive
# rule, 341 with the relative stop and 304 with the one rule.
BENCHMARK_TRIAL_BUDGETS = [
    pytest.param(("sphere-l1", "--mode", "random", "--n", "200"), 1400, id="sphere-l1-200"),
    pytest.param(
        ("rmc", "--mode", "random", "--m", "200", "--n", "200", "--r", "5", "--oversample", "3", "--max-outer", "60"),
        950,
        id="rmc-200",
    ),
]


@pytest.mark.parametrize("argv,budget", BENCHMARK_TRIAL_BUDGETS)
def test_benchmark_instances_stay_within_their_trial_budget(argv, budget):
    total = 0
    for seed in (1, 2, 3):
        cfg = apply_flag_overrides(RunConfig(), make_parser().parse_args([*argv, "--seed", str(seed)]))
        p, x0, _, _ = build_problem(cfg)
        res = alm_run(p, cfg.alm, x0)
        assert res.converged
        assert res.history[0].inner_trials == 0
        assert all(rec.inner_trials >= rec.inner_iters for rec in res.history)
        total += sum(rec.inner_trials for rec in res.history)
    assert total < budget


class TestALMRun:
    def test_circle_converges_to_known_triple(self):
        p = circle_problem()
        res = alm_run(p, ALMConfig(), sphere_point([1.0, 0.0]))
        assert res.converged
        assert np.linalg.norm(res.x.ambient - [RT2, RT2]) <= 1e-6
        assert abs(res.y[0] - RT2) <= 1e-6
        assert abs(res.z[0]) <= 1e-6

    @pytest.mark.parametrize("rho0", [1.0, 10.0, 100.0])
    def test_circle_converges_for_all_initial_penalties(self, rho0):
        p = circle_problem()
        res = alm_run(p, ALMConfig(rho0=rho0), sphere_point([1.0, 0.0]))
        assert res.converged
        assert np.linalg.norm(res.x.ambient - [RT2, RT2]) <= 1e-6

    def test_starting_at_solution_terminates_immediately(self):
        p = circle_problem()
        x, y, z = circle_solution()
        res = alm_run(p, ALMConfig(), x, y, z)
        assert res.converged
        assert len(res.history) == 1
        assert res.history[0].k == 0

    def test_sphere_demo_reaches_reference_solution(self):
        p = sphere_l1_problem(SPHERE_L1_DEMO_A, 0.25)
        x0 = sphere_point(np.ones(5) / np.sqrt(5))
        res = alm_run(p, ALMConfig(), x0)
        assert res.converged
        e2 = np.zeros(5)
        e2[1] = 1.0
        assert np.linalg.norm(np.abs(res.x.ambient) - e2) <= 1e-6

    def test_max_outer_zero_reports_partial(self):
        p = circle_problem()
        res = alm_run(p, ALMConfig(max_outer=0), sphere_point([1.0, 0.0]))
        assert not res.converged
        assert res.reason == "max_outer"

    def test_repeated_stalls_stop_the_run(self, monkeypatch):
        # an inner solver that may take no step stalls on every subproblem
        p = circle_problem()
        monkeypatch.setattr(ralm.solver, "INNER_MAX_ITERS", 0)
        res = alm_run(p, ALMConfig(max_outer=50), sphere_point([1.0, 0.0]))
        assert res.reason == "stalled"
        assert not res.converged
        assert len(res.history) - 1 == 5

    def test_rejects_infeasible_start(self):
        p = circle_problem()
        from ralm.manifolds import Point

        with pytest.raises(ValueError):
            alm_run(p, ALMConfig(), Point(ambient=np.array([2.0, 0.0])))

    def test_invalid_config_rejected(self):
        p = circle_problem()
        with pytest.raises(ValueError):
            alm_run(p, ALMConfig(gamma=0.5), sphere_point([1.0, 0.0]))

    def test_penalty_monotone_and_feasible_iterates(self):
        p = sphere_l1_problem(SPHERE_L1_DEMO_A, 0.25)
        res = alm_run(p, ALMConfig(), sphere_point(np.ones(5) / np.sqrt(5)))
        rhos = [rec.rho for rec in res.history]
        assert all(b >= a for a, b in zip(rhos, rhos[1:]))
        check_point(p.manifold, res.x)

    def test_history_schema(self):
        p = circle_problem()
        ref = circle_solution()
        res = alm_run(p, ALMConfig(), sphere_point([1.0, 0.0]), reference=ref)
        ks = [rec.k for rec in res.history]
        assert ks == list(range(len(ks)))
        for rec in res.history:
            assert rec.kkt_residual >= 0
            assert rec.aux_v >= 0
            assert rec.inner_iters >= 0
            assert rec.wall_time >= 0
        assert res.history[1].dist_to_reference > res.history[-1].dist_to_reference

    def test_invariant_diagnostics_per_iteration(self):
        p = circle_problem()
        res = alm_run(p, ALMConfig(), sphere_point([1.0, 0.0]))
        for rec in res.history[1:]:
            assert rec.chain_gap <= 1e-10
            assert rec.multiplier_consistency_gap <= 1e-12
            assert rec.residual_bound_slack <= 1e-12

    def test_multiplier_consistency_inequality_explicit(self):
        # |g1 - prox(g1 + y_next)| <= |g1 - prox_{theta/rho}(g1 + w/rho)|
        p = sphere_l1_problem(SPHERE_L1_DEMO_A, 0.25)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = random_point(p.manifold, rng)
            w = rng.standard_normal(5)
            rho = float(rng.uniform(0.5, 30))
            y_next, _, _ = update_multipliers(p, x, w, None, rho)
            g1 = p.g1.value(x.ambient)
            lhs = np.linalg.norm(g1 - prox(p.theta, g1 + y_next))
            rhs = np.linalg.norm(g1 - prox(p.theta, g1 + w / rho, 1.0 / rho))
            assert lhs <= rhs + 1e-12

    def test_determinism(self):
        p = sphere_l1_problem(SPHERE_L1_DEMO_A, 0.25)
        x0 = sphere_point(np.ones(5) / np.sqrt(5))
        r1 = alm_run(p, ALMConfig(), x0)
        r2 = alm_run(p, ALMConfig(), x0)
        assert len(r1.history) == len(r2.history)
        for a, b in zip(r1.history, r2.history):
            assert a.kkt_residual == b.kkt_residual
            assert a.rho == b.rho
            assert a.inner_iters == b.inner_iters
        np.testing.assert_array_equal(r1.x.ambient, r2.x.ambient)
        np.testing.assert_array_equal(r1.y, r2.y)

    @SMALL_RANDOM_RUNS
    def test_inner_tolerance_is_the_one_rule(self, cfg):
        """Every subproblem stops against max(kkt_tol, min(eps0, REL_STOP * V))
        at the iterate it returns, so it never solves below kkt_tol."""
        p, x0, _, _ = build_problem(cfg)
        config = ALMConfig()
        history = alm_run(p, config, x0).history
        for rec in history[1:]:
            rule = max(config.kkt_tol, min(config.eps0, REL_STOP * rec.aux_v))
            assert rec.inner_tol >= config.kkt_tol
            # V is read from the merit's gradients, aux_v from the update
            assert abs(rec.inner_tol - rule) <= 1e-13 * (1.0 + rule)

    def test_calmness_probe_retraction_budget(self, monkeypatch):
        p, x0, _, _ = build_problem(RunConfig(family="rmc", mode="basic5x5"))
        res = alm_run(p, ALMConfig(), x0)
        trip = polish_kkt(p, res.x, res.y, res.z, tol=1e-10)
        counts = {"retract": 0}
        counting(monkeypatch, ralm.solver, "retract", counts)
        calmness_probe(p, trip.x, trip.y, trip.z)
        # a unit first step at rho = 100 needs 2885 retractions here, the
        # penalty-scaled one 602
        assert counts["retract"] <= 1500

    def test_unit_gamma_freezes_penalty(self):
        p = circle_problem()
        res = alm_run(
            p,
            ALMConfig(rho0=1.0, gamma=1.0, kkt_tol=1e-10, max_outer=100),
            sphere_point([1.0, 0.0]),
        )
        assert all(rec.rho == 1.0 for rec in res.history)

    def test_rmc_full_mask_no_outliers_recovers_quickly(self):
        rng = np.random.default_rng(4)
        left = rng.standard_normal((6, 2))
        right = rng.standard_normal((5, 2))
        a = left @ right.T
        p = rmc_problem(a, np.ones((6, 5), dtype=bool), 2)
        from ralm.manifolds import FixedRank, nearest_rank_r

        x0 = nearest_rank_r(FixedRank(6, 5, 2), a)
        res = alm_run(p, ALMConfig(), x0)
        assert res.converged
        assert len(res.history) - 1 <= 3
        assert np.linalg.norm(res.x.ambient - a) <= 1e-8

    def test_non_finite_data_raises_at_first_outer_iteration(self):
        a = SPHERE_L1_DEMO_A.copy()
        a[2, 3] = np.nan
        p = sphere_l1_problem(a, 0.25)
        with pytest.raises(ValueError, match="non-finite KKT residual at outer iteration 0"):
            alm_run(p, ALMConfig(), sphere_point(np.ones(5) / np.sqrt(5)))

    @pytest.mark.parametrize("field,value", non_finite_cases(["rho0", "gamma", "eps0", "kkt_tol"]))
    def test_nan_config_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ALMConfig(**{field: value}).validate()
