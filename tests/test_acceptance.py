"""Acceptance gate: every criterion asserted at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to see them inline).
"""
import time
from contextlib import contextmanager

import numpy as np

from ralm.analysis import (
    calmness_probe,
    error_bound_fit,
    figure1_config,
    figure1_tail,
    fit_log_linear,
    msosc_check,
    msrcq_check,
    polish_kkt,
)
from ralm.convex import ScaledL1, moreau_env, prox
from ralm.manifolds import (
    FixedRank,
    Sphere,
    nearest_rank_r,
    project_tangent,
    random_point,
    retract,
    sphere_point,
)
from ralm.problems import (
    SPHERE_L1_DEMO_A,
    aug_lagrangian,
    aug_lagrangian_value,
    circle_problem,
    generate_rmc_instance,
    rmc_basic_instance,
    rmc_problem,
    rmc_spectral_init,
    sphere_l1_problem,
)
from ralm.solver import ALMConfig, alm_run, kkt_residual_components

from helpers import epiderivative_down, epiderivative_down2, random_tangent

RT2 = np.sqrt(2.0) / 2.0

# histories of the main acceptance runs, re-checked by the chain-identity suite
COLLECTED_HISTORIES = []


@contextmanager
def criterion(num, label):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label} ({time.perf_counter() - t0:.2f}s)")


def test_criterion_1_circle_exactness():
    with criterion(1, "circle instance converges to the known triple"):
        t0 = time.perf_counter()
        p = circle_problem()
        res = alm_run(p, ALMConfig(), sphere_point([1.0, 0.0]))
        elapsed = time.perf_counter() - t0
        assert res.converged
        assert np.linalg.norm(res.x.ambient - [RT2, RT2]) <= 1e-6
        assert abs(res.y[0] - RT2) <= 1e-6
        assert abs(res.z[0]) <= 1e-6
        assert elapsed < 1.0
        COLLECTED_HISTORIES.append(res.history)


def test_criterion_2_rate_ordering():
    with criterion(2, "fixed-penalty log-linear tails with slopes decreasing in rho"):
        t0 = time.perf_counter()
        p = circle_problem()
        x0 = sphere_point([1.0, 0.0])
        slopes = []
        for rho in (1.0, 10.0, 100.0, 1000.0):
            res = alm_run(p, figure1_config(rho), x0)
            assert res.converged
            slope, r2 = fit_log_linear(figure1_tail(res.history))
            assert r2 >= 0.95, f"rho={rho}: linear fit R^2 {r2:.4f} < 0.95"
            slopes.append(slope)
            COLLECTED_HISTORIES.append(res.history)
        assert all(
            slopes[i + 1] < slopes[i] for i in range(len(slopes) - 1)
        ), f"slopes not strictly decreasing: {slopes}"
        assert time.perf_counter() - t0 < 10.0


def test_criterion_3_sphere_demo_instance():
    with criterion(3, "fixed 5x5 sphere instance: solution, multiplier, conditions"):
        t0 = time.perf_counter()
        p = sphere_l1_problem(SPHERE_L1_DEMO_A, 0.25)
        res = alm_run(p, ALMConfig(), sphere_point(np.ones(5) / np.sqrt(5)))
        assert res.converged
        trip = polish_kkt(p, res.x, res.y, res.z, tol=1e-10)
        x = trip.x.ambient
        e2 = np.zeros(5)
        e2[1] = 1.0
        assert np.linalg.norm(np.abs(x) - e2) <= 1e-6
        sign = 1.0 if x[1] >= 0 else -1.0
        assert np.linalg.norm(trip.y - sign * 0.25 * e2) <= 1e-6
        assert msrcq_check(p, trip.x, trip.y, trip.z).passed
        assert msosc_check(p, trip.x, trip.y, trip.z).status == "vacuous"
        assert time.perf_counter() - t0 < 5.0
        COLLECTED_HISTORIES.append(res.history)


def test_criterion_4_srcq_on_random_sphere_instances():
    with criterion(4, "strict constraint qualification on 20/20 random sphere instances"):
        t0 = time.perf_counter()
        for seed in range(1, 21):
            rng = np.random.default_rng(seed)
            p = sphere_l1_problem(rng.standard_normal((10, 10)), 0.25)
            res = alm_run(p, ALMConfig(), random_point(p.manifold, seed + 1000))
            assert res.converged, f"seed {seed} did not converge"
            trip = polish_kkt(p, res.x, res.y, res.z, tol=1e-10)
            rep = msrcq_check(p, trip.x, trip.y, trip.z)
            assert rep.passed, f"seed {seed}: rank {rep.rank_found}/{rep.rank_required}"
        assert time.perf_counter() - t0 < 30.0


def test_criterion_5_rmc_basic_recovery():
    with criterion(5, "5x5 rank-3 instance with block outliers recovers the ground truth"):
        t0 = time.perf_counter()
        a, mask, a_exact = rmc_basic_instance(42)
        p = rmc_problem(a, mask, 3)
        x0 = nearest_rank_r(FixedRank(5, 5, 3), a)
        res = alm_run(p, ALMConfig(), x0)
        assert res.converged
        assert np.linalg.norm(res.x.ambient - a_exact) <= 1e-6
        assert max(kkt_residual_components(p, res.x, res.y, res.z)) <= 1e-7
        assert time.perf_counter() - t0 < 5.0
        COLLECTED_HISTORIES.append(res.history)


def test_criterion_6_rmc_scaled_random():
    with criterion(6, "random 200x200 rank-5 completion with outliers, 3/3 seeds"):
        t0 = time.perf_counter()
        for seed in (1, 2, 3):
            a, mask, a_exact = generate_rmc_instance(200, 200, 5, 3.0, seed)
            p = rmc_problem(a, mask, 5)
            x0 = rmc_spectral_init(a, mask, 5)
            res = alm_run(p, ALMConfig(max_outer=60), x0)
            assert res.converged, f"seed {seed} did not converge"
            assert len(res.history) - 1 <= 60
            assert max(kkt_residual_components(p, res.x, res.y, res.z)) <= 1e-7
            assert np.linalg.norm(res.x.ambient - a_exact) <= 1e-5
            COLLECTED_HISTORIES.append(res.history)
        assert time.perf_counter() - t0 < 300.0


def _polished_circle():
    p = circle_problem()
    res = alm_run(p, ALMConfig(), sphere_point([1.0, 0.0]))
    trip = polish_kkt(p, res.x, res.y, res.z, tol=1e-11)
    return p, trip


def test_criterion_7_two_sided_error_bound():
    with criterion(7, "two-sided residual error bound constants on the circle instance"):
        t0 = time.perf_counter()
        p, trip = _polished_circle()
        fit = error_bound_fit(p, trip.x, trip.y, trip.z, n_samples=500, radius=0.05, seed=0)
        assert not fit.degenerate
        assert 0 < fit.c1 <= fit.c2 < np.inf
        assert fit.c2 / fit.c1 <= 1e4
        assert time.perf_counter() - t0 < 10.0


def test_criterion_8_calmness_boundedness():
    with criterion(8, "calmness ratios bounded across perturbation radii"):
        t0 = time.perf_counter()
        p, trip = _polished_circle()
        rep = calmness_probe(
            p,
            trip.x,
            trip.y,
            trip.z,
            radii=(1e-2, 1e-3, 1e-4, 1e-5),
            trials_per_radius=20,
            seed=0,
        )
        by_radius = {r.radius: r.max_ratio for r in rep.records}
        assert all(r.failures == 0 for r in rep.records)
        assert by_radius[1e-5] <= 2.0 * by_radius[1e-2]
        assert time.perf_counter() - t0 < 60.0


class TestCriterion9PropertySuites:
    def test_prox_nonexpansive_and_moreau_decomposition(self):
        with criterion("9a", "prox nonexpansiveness and Moreau decomposition, 1000 trials"):
            theta = ScaledL1(0.25)
            rng = np.random.default_rng(0)
            for _ in range(1000):
                t = float(rng.uniform(0.05, 5.0))
                u = 3.0 * rng.standard_normal(5)
                v = 3.0 * rng.standard_normal(5)
                assert np.linalg.norm(prox(theta, u, t) - prox(theta, v, t)) <= (
                    1 + 1e-15
                ) * np.linalg.norm(u - v)
                recon = prox(theta, u, t) + np.clip(u, -t * theta.mu, t * theta.mu)
                assert np.max(np.abs(recon - u)) <= 1e-12

    def test_envelope_gradient_finite_differences(self):
        with criterion("9b", "Moreau envelope gradient vs central differences"):
            theta = ScaledL1(0.3)
            rho = 2.0
            rng = np.random.default_rng(1)
            h = 1e-5
            checked = 0
            while checked < 100:
                u = 2.0 * rng.standard_normal(4)
                if np.any(np.abs(np.abs(u) - theta.mu / rho) < 1e-4):
                    continue
                _, grad = moreau_env(theta, u, rho)
                for i in range(4):
                    e = np.zeros(4)
                    e[i] = h
                    fd = (moreau_env(theta, u + e, rho)[0] - moreau_env(theta, u - e, rho)[0]) / (
                        2 * h
                    )
                    assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))
                checked += 1

    def test_projection_and_retraction_properties(self):
        with criterion("9c", "projection idempotence/self-adjointness and retraction feasibility"):
            rng = np.random.default_rng(2)
            for m in (Sphere(6), FixedRank(7, 5, 3)):
                for _ in range(50):
                    x = random_point(m, rng)
                    u = rng.standard_normal(m.ambient_shape)
                    v = rng.standard_normal(m.ambient_shape)
                    pu = project_tangent(m, x, u)
                    assert np.linalg.norm(project_tangent(m, x, pu) - pu) <= 1e-10
                    assert abs(np.sum(pu * v) - np.sum(u * project_tangent(m, x, v))) <= 1e-10
                    out = retract(m, x, 0.1 * random_tangent(m, x, rng))
                    if isinstance(m, Sphere):
                        assert abs(np.linalg.norm(out.ambient) - 1.0) <= 1e-12
                    else:
                        svals = np.linalg.svd(out.ambient, compute_uv=False)
                        assert int(np.sum(svals > 1e-12)) == m.r

    def test_aug_lagrangian_gradient_finite_differences(self):
        with criterion("9d", "augmented Lagrangian gradient vs finite differences per family"):
            rng = np.random.default_rng(3)
            mask = rng.random((5, 6)) < 0.5
            families = [
                circle_problem(),
                sphere_l1_problem(rng.standard_normal((6, 6)), 0.3),
                rmc_problem(rng.standard_normal((5, 6)), mask, 2),
            ]
            for p in families:
                for _ in range(100):
                    x = random_point(p.manifold, rng)
                    w = rng.standard_normal(p.g1.out_shape)
                    pm = rng.standard_normal(p.g2.out_shape) if p.q is not None else None
                    xi = random_tangent(p.manifold, x, rng)
                    nrm = np.linalg.norm(xi)
                    if nrm < 1e-12:
                        continue
                    xi /= nrm
                    _, grad = aug_lagrangian(p, x, w, pm, 5.0)
                    t = 1e-6
                    vp = aug_lagrangian_value(p, retract(p.manifold, x, t * xi), w, pm, 5.0)
                    vm = aug_lagrangian_value(p, retract(p.manifold, x, -t * xi), w, pm, 5.0)
                    fd = (vp - vm) / (2 * t)
                    assert abs(fd - np.sum(grad * xi)) <= 1e-5 * max(1.0, abs(fd))

    def test_chain_identity_on_acceptance_runs(self):
        with criterion("9e", "multiplier chain identity per iteration of the acceptance runs"):
            histories = COLLECTED_HISTORIES
            if not histories:  # selective run: regenerate the circle history
                p = circle_problem()
                histories = [alm_run(p, ALMConfig(), sphere_point([1.0, 0.0])).history]
            checked = 0
            for history in histories:
                for rec in history[1:]:
                    assert rec.chain_gap <= 1e-10
                    checked += 1
            assert checked > 0

    def test_psi_conjugate_grid_oracle(self):
        with criterion("9f", "conjugate finiteness vs grid-search oracle, 200 instances"):
            from test_convex import psi_grid_sup

            from ralm.convex import psi_conjugate

            rng = np.random.default_rng(4)
            agree = 0
            while agree < 200:
                theta = ScaledL1(float(rng.uniform(0.2, 1.2)))
                d = int(rng.integers(1, 4))
                x = np.where(
                    rng.random(d) < 0.4,
                    0.0,
                    np.sign(rng.standard_normal(d)) * rng.uniform(0.5, 2.0, d),
                )
                xi = np.where(
                    rng.random(d) < 0.4,
                    0.0,
                    np.sign(rng.standard_normal(d)) * rng.uniform(0.5, 2.0, d),
                )
                y = rng.uniform(-2 * theta.mu, 2 * theta.mu, size=d)
                snap = rng.random(d) < 0.5
                up = (x > 0) | ((x == 0) & (xi > 0))
                down = (x < 0) | ((x == 0) & (xi < 0))
                kink = (x == 0) & (xi == 0)
                y[snap & up] = theta.mu
                y[snap & down] = -theta.mu
                if np.any((up | down) & ~snap & (np.abs(np.abs(y) - theta.mu) < 0.05)):
                    continue
                if np.any(kink & (np.abs(np.abs(y) - theta.mu) < 0.05)):
                    continue
                star = psi_conjugate(theta, x, xi, y)
                assert star.finite == (psi_grid_sup(theta, x, xi, y) < float("inf"))
                agree += 1

    def test_epiderivative_difference_quotients(self):
        with criterion("9g", "directional epiderivative formulas vs difference quotients"):
            from ralm.convex import l1_value

            theta = ScaledL1(0.7)
            rng = np.random.default_rng(5)
            checked = 0
            while checked < 100:
                x = np.where(rng.random(4) < 0.4, 0.0, rng.standard_normal(4))
                if np.any((np.abs(x) > 0) & (np.abs(x) < 1e-6)):
                    continue
                d = rng.standard_normal(4)
                t = 1e-9
                quotient = (l1_value(theta, x + t * d) - l1_value(theta, x)) / t
                assert abs(quotient - epiderivative_down(theta, x, d)) <= 1e-6
                xi = np.where(rng.random(4) < 0.5, 0.0, rng.standard_normal(4))
                if np.any((np.abs(xi) > 0) & (np.abs(xi) < 1e-3)):
                    continue
                w = rng.standard_normal(4)
                t2 = 1e-4
                q2 = (
                    l1_value(theta, x + t2 * xi + 0.5 * t2 * t2 * w)
                    - l1_value(theta, x)
                    - t2 * epiderivative_down(theta, x, xi)
                ) / (0.5 * t2 * t2)
                assert abs(q2 - epiderivative_down2(theta, x, xi, w)) <= 1e-6
                checked += 1
