import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ralm.convex import (
    Box,
    ScaledL1,
    dist2_grad,
    l1_value,
    moreau_env,
    project_set,
    prox,
    prox_residual,
    psi_conjugate,
)

from helpers import epiderivative_down, epiderivative_down2


# ---------------------------------------------------------------------------
# independent oracles


def prox_oracle_1d(mu, u, t, half_width=3.0, npts=2_000_001):
    """Dense grid search of min_y mu|y| + (1/2t)(u - y)^2."""
    ys = np.linspace(u - half_width, u + half_width, npts)
    vals = mu * np.abs(ys) + (ys - u) ** 2 / (2.0 * t)
    return ys[np.argmin(vals)]


def moreau_value_oracle_1d(mu, u, rho, half_width=3.0, npts=2_000_001):
    ys = np.linspace(u - half_width, u + half_width, npts)
    vals = mu * np.abs(ys) + 0.5 * rho * (u - ys) ** 2
    return float(vals.min())


def epider_quotient(theta, x, d, t):
    return (l1_value(theta, np.asarray(x) + t * np.asarray(d)) - l1_value(theta, x)) / t


def epider2_quotient(theta, x, xi, w, t):
    x, xi, w = map(np.asarray, (x, xi, w))
    num = (
        l1_value(theta, x + t * xi + 0.5 * t * t * w)
        - l1_value(theta, x)
        - t * epiderivative_down(theta, x, xi)
    )
    return num / (0.5 * t * t)


def psi_grid_sup(theta, x, xi, y, box=1e8, npts=41, t=None):
    """Brute-force sup over w of <y, w> - second epiderivative, on a cube.

    The second epiderivative is evaluated by pure theta differences along
    x + t*xi + (t^2/2) w (no closed-form blocks), which is exact for
    instances whose nonzero entries are well separated from zero.  Declares
    +infinity when the grid supremum exceeds 1e6; the default cube is wide
    enough that any genuine block incompatibility beyond ~0.05 blows past
    that threshold.
    """
    if t is None:
        # small enough that (t^2/2)|w| stays below the first-order scale,
        # large enough that the theta differences beat rounding
        t = min(1e-4, 0.1 / box)
    x = np.ravel(np.asarray(x, dtype=float))
    xi = np.ravel(np.asarray(xi, dtype=float))
    y = np.ravel(np.asarray(y, dtype=float))
    d = y.size
    axes = [np.linspace(-box, box, npts)] * d
    grids = np.meshgrid(*axes, indexing="ij")
    w = np.stack([g.ravel() for g in grids], axis=1)
    base = x + t * xi
    half_t2 = 0.5 * t * t
    second = (
        theta.mu * np.abs(base + half_t2 * w).sum(axis=1)
        - theta.mu * np.abs(base).sum()
    ) / half_t2
    vals = w @ y - second
    sup = float(vals.max())
    return float("inf") if sup > 1e6 else max(sup, 0.0)


# ---------------------------------------------------------------------------
# prox and envelope


class TestProx:
    def test_matches_grid_oracle(self):
        theta = ScaledL1(0.25)
        out = prox(theta, np.array([1.0, -0.1]), 1.0)
        np.testing.assert_allclose(out, [0.75, 0.0], atol=1e-12)
        for u, expected in zip([1.0, -0.1], out):
            assert abs(prox_oracle_1d(0.25, u, 1.0) - expected) < 5e-6

    def test_zero_input(self):
        theta = ScaledL1(0.7)
        np.testing.assert_array_equal(prox(theta, np.zeros(3), 2.0), np.zeros(3))

    def test_threshold_boundary(self):
        theta = ScaledL1(0.25)
        np.testing.assert_allclose(prox(theta, np.array([0.25]), 1.0), [0.0], atol=1e-15)
        assert abs(prox_oracle_1d(0.25, 0.25, 1.0)) < 5e-6

    def test_rejects_nonpositive_parameter(self):
        with pytest.raises(ValueError):
            prox(ScaledL1(1.0), np.ones(2), 0.0)

    def test_matrix_inputs_elementwise(self):
        theta = ScaledL1(1.0)
        u = np.array([[2.0, -0.5], [0.0, -3.0]])
        np.testing.assert_allclose(prox(theta, u, 1.0), [[1.0, 0.0], [0.0, -2.0]])

    def test_nonexpansive_and_moreau_decomposition(self):
        theta = ScaledL1(0.4)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            t = float(rng.uniform(0.1, 5.0))
            u = rng.standard_normal(6) * 3
            v = rng.standard_normal(6) * 3
            assert np.linalg.norm(prox(theta, u, t) - prox(theta, v, t)) <= np.linalg.norm(
                u - v
            ) * (1 + 1e-15)
            recon = prox(theta, u, t) + np.clip(u, -t * theta.mu, t * theta.mu)
            assert np.max(np.abs(recon - u)) <= 1e-12

    @given(
        arrays(np.float64, 5, elements=st.floats(-10, 10)),
        st.floats(0.05, 5.0),
        st.floats(0.01, 4.0),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_prox_residual_is_clamp(self, u, t, mu):
        theta = ScaledL1(mu)
        np.testing.assert_array_equal(
            prox_residual(theta, u, t), np.clip(u, -t * mu, t * mu)
        )
        np.testing.assert_array_equal(prox(theta, u, t), u - prox_residual(theta, u, t))


class TestMoreauEnvelope:
    def test_example_value_and_gradient(self):
        theta = ScaledL1(0.25)
        val, grad = moreau_env(theta, np.array([1.0]), 1.0)
        assert val == pytest.approx(0.21875, abs=1e-15)
        np.testing.assert_allclose(grad, [0.25], atol=1e-15)
        assert abs(moreau_value_oracle_1d(0.25, 1.0, 1.0) - val) < 1e-5

    def test_zero_input(self):
        val, grad = moreau_env(ScaledL1(2.0), np.zeros(4), 3.0)
        assert val == 0.0
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_large_rho_approaches_value(self):
        theta = ScaledL1(0.25)
        val, _ = moreau_env(theta, np.array([1.0]), 1e6)
        assert abs(val - 0.25) <= 1e-6

    def test_envelope_below_function(self):
        theta = ScaledL1(0.6)
        rng = np.random.default_rng(1)
        for _ in range(50):
            u = rng.standard_normal(4)
            val, _ = moreau_env(theta, u, float(rng.uniform(0.2, 10)))
            assert val <= l1_value(theta, u) + 1e-14

    def test_gradient_matches_finite_differences(self):
        theta = ScaledL1(0.3)
        rho = 2.5
        rng = np.random.default_rng(2)
        h = 1e-5
        checked = 0
        while checked < 60:
            u = rng.standard_normal(5) * 2
            # stay away from the envelope kinks at |u_i| = mu/rho
            if np.any(np.abs(np.abs(u) - theta.mu / rho) < 1e-4):
                continue
            _, grad = moreau_env(theta, u, rho)
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                vp, _ = moreau_env(theta, u + e, rho)
                vm, _ = moreau_env(theta, u - e, rho)
                fd = (vp - vm) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))
            checked += 1

    def test_gradient_is_rho_lipschitz(self):
        theta = ScaledL1(1.2)
        rho = 4.0
        rng = np.random.default_rng(3)
        for _ in range(200):
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            _, gu = moreau_env(theta, u, rho)
            _, gv = moreau_env(theta, v, rho)
            assert np.linalg.norm(gu - gv) <= rho * np.linalg.norm(u - v) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# epiderivatives


class TestEpiderivatives:
    def test_first_order_example(self):
        theta = ScaledL1(0.25)
        val = epiderivative_down(theta, [0.0, -1.0], [1.0, 1.0])
        assert val == pytest.approx(0.0, abs=1e-15)
        assert abs(epider_quotient(theta, [0.0, -1.0], [1.0, 1.0], 1e-8) - val) < 1e-6

    def test_first_order_zero_direction(self):
        assert epiderivative_down(ScaledL1(3.0), [1.0, 0.0], [0.0, 0.0]) == 0.0

    def test_first_order_smooth_region(self):
        theta = ScaledL1(1.0)
        assert epiderivative_down(theta, [2.0], [-3.0]) == pytest.approx(-3.0)
        assert abs(epider_quotient(theta, [2.0], [-3.0], 1e-9) + 3.0) < 1e-6

    def test_first_order_positively_homogeneous(self):
        theta = ScaledL1(0.5)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(4)
        d = rng.standard_normal(4)
        v1 = epiderivative_down(theta, x, d)
        assert epiderivative_down(theta, x, 3.5 * d) == pytest.approx(3.5 * v1)

    def test_first_order_matches_quotient_randomly(self):
        theta = ScaledL1(0.8)
        rng = np.random.default_rng(5)
        tested = 0
        while tested < 100:
            x = rng.standard_normal(5)
            x[rng.integers(0, 5)] = 0.0
            if np.any((np.abs(x) > 0) & (np.abs(x) < 1e-6)):
                continue
            d = rng.standard_normal(5)
            q = epider_quotient(theta, x, d, 1e-9)
            assert abs(q - epiderivative_down(theta, x, d)) <= 1e-6
            tested += 1

    def test_second_order_example(self):
        theta = ScaledL1(0.25)
        val = epiderivative_down2(theta, [0.0, -1.0], [0.0, 1.0], [2.0, 3.0])
        assert val == pytest.approx(-0.25, abs=1e-15)
        q = epider2_quotient(theta, [0.0, -1.0], [0.0, 1.0], [2.0, 3.0], 1e-4)
        assert abs(q - val) < 1e-6

    def test_second_order_zero(self):
        assert epiderivative_down2(ScaledL1(1.5), [0.5], [1.0], [0.0]) == 0.0

    def test_second_order_positive_block(self):
        assert epiderivative_down2(ScaledL1(1.0), [1.0], [0.3], [5.0]) == pytest.approx(5.0)

    @given(arrays(np.float64, 3, elements=st.floats(-2, 2)))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_second_order_convex_in_w(self, w2):
        theta = ScaledL1(0.7)
        x = np.array([0.0, 1.0, -2.0])
        xi = np.array([1.0, 0.5, 0.0])
        w1 = np.array([1.0, -1.0, 2.0])
        lhs = epiderivative_down2(theta, x, xi, 0.5 * (w1 + w2))
        rhs = 0.5 * epiderivative_down2(theta, x, xi, w1) + 0.5 * epiderivative_down2(
            theta, x, xi, w2
        )
        assert lhs <= rhs + 1e-12


class TestPsiConjugate:
    def test_compatible_example(self):
        theta = ScaledL1(0.25)
        star = psi_conjugate(theta, [0.0, -1.0], [0.0, 0.0], [0.1, -0.25])
        assert star.finite and star.value == 0.0
        assert psi_grid_sup(theta, [0.0, -1.0], [0.0, 0.0], [0.1, -0.25], box=10.0) < 1e-6

    def test_zero_multiplier_at_origin(self):
        theta = ScaledL1(1.0)
        assert psi_conjugate(theta, [0.0], [0.0], [0.0]).finite

    def test_incompatible_positive_block(self):
        theta = ScaledL1(0.25)
        star = psi_conjugate(theta, [1.0], [0.0], [0.3])
        assert not star.finite
        assert star.value == float("inf")
        assert psi_grid_sup(theta, [1.0], [0.0], [0.3]) == float("inf")

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(6)
        agree = 0
        while agree < 200:
            theta = ScaledL1(float(rng.uniform(0.2, 1.5)))
            d = int(rng.integers(1, 4))
            # nonzero entries pushed away from zero so the oracle's theta
            # differences stay in one linear piece per coordinate
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
            # keep a clear margin from the compatibility boundary
            if np.any((up | down) & ~snap & (np.abs(np.abs(y) - theta.mu) < 0.05)):
                continue
            if np.any(kink & (np.abs(np.abs(y) - theta.mu) < 0.05)):
                continue
            star = psi_conjugate(theta, x, xi, y)
            oracle = psi_grid_sup(theta, x, xi, y)
            assert star.finite == (oracle < float("inf"))
            agree += 1


# ---------------------------------------------------------------------------
# polyhedral sets


def zero_set(n):
    return Box(np.zeros(n), np.zeros(n))


def orthant(n):
    return Box(np.zeros(n), np.full(n, np.inf))


def full_space(n):
    return Box(np.full(n, -np.inf), np.full(n, np.inf))


class TestSets:
    def test_orthant_projection(self):
        q = orthant(2)
        np.testing.assert_array_equal(project_set(q, np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_member_projects_to_itself(self):
        q = Box(np.zeros(3), np.ones(3))
        v = np.array([0.2, 0.9, 0.0])
        np.testing.assert_array_equal(project_set(q, v), v)
        val, grad = dist2_grad(q, v, 3.0)
        assert val == 0.0
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_box_dist2_grad_example(self):
        q = Box(np.array([0.0]), np.array([1.0]))
        np.testing.assert_array_equal(project_set(q, np.array([1.5])), [1.0])
        val, grad = dist2_grad(q, np.array([1.5]), 2.0)
        assert val == pytest.approx(0.25)
        np.testing.assert_allclose(grad, [1.0])

    def test_zero_set_and_full_space(self):
        v = np.array([1.0, -2.0])
        np.testing.assert_array_equal(project_set(zero_set(2), v), np.zeros(2))
        np.testing.assert_array_equal(project_set(full_space(2), v), v)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            project_set(orthant(3), np.ones(2))

    def test_normal_cone_examples(self):
        # z in N_Q(s) iff proj_Q(s + z) = s: the KKT set block vanishes exactly then
        q = orthant(2)
        s = np.array([0.0, 2.0])
        np.testing.assert_array_equal(project_set(q, s + np.array([-3.0, 0.0])), s)
        np.testing.assert_array_equal(project_set(q, s + np.zeros(2)), s)
        assert not np.array_equal(project_set(q, s + np.array([0.0, 1.0])), s)

    @pytest.mark.parametrize(
        "q",
        [
            orthant(4),
            Box(-np.ones(4), np.ones(4)),
            zero_set(4),
            full_space(4),
        ],
    )
    def test_firmly_nonexpansive(self, q):
        rng = np.random.default_rng(8)
        for _ in range(200):
            u, v = rng.standard_normal(4) * 2, rng.standard_normal(4) * 2
            pu, pv = project_set(q, u), project_set(q, v)
            lhs = np.sum((pu - pv) ** 2)
            rhs = np.sum((pu - pv) * (u - v))
            assert lhs <= rhs + 1e-12

    def test_box_bounds_validated(self):
        with pytest.raises(ValueError):
            Box(np.ones(2), np.zeros(2))
        with pytest.raises(ValueError, match="NaN"):
            Box(np.array([np.nan]), np.array([1.0]))
        with pytest.raises(ValueError, match="shape"):
            Box(np.zeros(2), np.ones(3))


class TestScaledL1Basics:
    def test_mu_validation(self):
        with pytest.raises(ValueError):
            ScaledL1(-0.1)
        ScaledL1(0.0)  # smooth edge case is allowed

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_non_finite_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="finite"):
            ScaledL1(mu)

    @given(arrays(np.float64, 4, elements=st.floats(-5, 5)))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_value_symmetry_and_nonnegativity(self, u):
        theta = ScaledL1(0.9)
        assert l1_value(theta, u) >= 0.0
        assert l1_value(theta, -u) == l1_value(theta, u)
        assert l1_value(theta, np.zeros(4)) == 0.0

    def test_mu_zero_turns_penalty_off(self):
        theta = ScaledL1(0.0)
        u = np.array([1.0, -2.0])
        np.testing.assert_array_equal(prox(theta, u, 3.0), u)
        assert l1_value(theta, u) == 0.0
        val, grad = moreau_env(theta, u, 2.0)
        assert val == 0.0
        np.testing.assert_array_equal(grad, np.zeros(2))
