"""The stack convention: a leading axis on points, vectors and multipliers.

Every stack-aware function must give, item by item, what a single call on
that item gives, bit for bit.  The error-bound fit draws its samples one by
one and evaluates them as one stack; it must agree with a per-sample loop of
single-point calls.
"""
import numpy as np
import pytest

from ralm import analysis
from ralm.analysis import error_bound_fit, polish_kkt
from ralm.convex import project_set
from ralm.manifolds import (
    FixedRank,
    FixedRankTangent,
    Point,
    RankDeficiencyError,
    distance,
    fixed_rank_point_from_factors,
    item_norm,
    nearest_rank_r,
    norm,
    project_tangent,
    random_point,
    retract,
    sphere_point,
    tangent_vector,
)
from ralm.problems import (
    SPHERE_L1_DEMO_A,
    circle_problem,
    circle_reference,
    generate_rmc_instance,
    lagrangian_rgrad,
    rmc_basic_instance,
    rmc_problem,
    sphere_l1_problem,
    tilted_instance,
)
from ralm.solver import ALMConfig, alm_run, kkt_blocks, kkt_residual, kkt_residual_components

K = 4
FIELDS = ("ambient", "u", "s", "v")


def families():
    rng = np.random.default_rng(3)
    a, mask, _ = generate_rmc_instance(8, 7, 2, 1.5, 1)
    big_a, big_mask, _ = generate_rmc_instance(60, 55, 2, 3.0, 2)
    return {
        "circle": circle_problem(),
        "sphere-l1": sphere_l1_problem(rng.standard_normal((6, 6)), 0.3),
        "rmc-8x7": rmc_problem(a, mask, 2),
        # above 50 rows and columns: the orthographic retraction
        "rmc-60x55": rmc_problem(big_a, big_mask, 2),
    }


NAMES = ["circle", "sphere-l1", "rmc-8x7", "rmc-60x55"]


def stack_points(points):
    return Point(*(None if getattr(points[0], f) is None else np.stack([getattr(x, f) for x in points]) for f in FIELDS))


def assert_same_point(stacked, i, single):
    for f in FIELDS:
        a, b = getattr(stacked, f), getattr(single, f)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a[i], b), f


def draw(p, seed):
    """K points of p, K ambient vectors and K multipliers (y, and z with Q)."""
    rng = np.random.default_rng(seed)
    xs = [random_point(p.manifold, rng) for _ in range(K)]
    vs = rng.standard_normal((K, *p.manifold.ambient_shape))
    ys = rng.standard_normal((K, *p.g1.out_shape))
    zs = None if p.q is None else rng.standard_normal((K, *p.g2.out_shape))
    return xs, vs, ys, zs


class TestStackedCallsMatchSingleCalls:
    @pytest.mark.parametrize("tilted", [False, True], ids=["plain", "tilted"])
    @pytest.mark.parametrize("name", NAMES)
    def test_maps_and_objective(self, name, tilted):
        p = families()[name]
        xs, vs, ys, zs = draw(p, 5)
        if tilted:
            rng = np.random.default_rng(6)
            c = None if p.q is None else rng.standard_normal(p.g2.out_shape)
            p = tilted_instance(p, rng.standard_normal(p.manifold.ambient_shape), rng.standard_normal(p.g1.out_shape), c)
        xa = np.stack([x.ambient for x in xs])
        vals, grads = p.f.value_grad(xa)
        assert vals.shape == (K,)
        hess = p.f.ehess_apply(xa, vs)
        for i in range(K):
            val, grad = p.f.value_grad(xa[i])
            assert type(val) is float and vals[i] == val
            assert np.array_equal(grads[i], grad)
            assert np.array_equal(hess[i], p.f.ehess_apply(xa[i], vs[i]))
        for g, mults in ((p.g1, ys), (p.g2, zs)):
            if g is None:
                continue
            image, adjoint, value = g.jacobian_apply(vs), g.jacobian_adjoint(mults), g.value(xa)
            for i in range(K):
                assert np.array_equal(image[i], g.jacobian_apply(vs[i]))
                assert np.array_equal(adjoint[i], g.jacobian_adjoint(mults[i]))
                assert np.array_equal(value[i], g.value(xa[i]))
        if p.q is not None:
            projected = project_set(p.q, zs)
            for i in range(K):
                assert np.array_equal(projected[i], project_set(p.q, zs[i]))

    @pytest.mark.parametrize("name", NAMES)
    def test_tangent_vectors_retraction_and_distance(self, name):
        p = families()[name]
        m = p.manifold
        xs, vs, _, _ = draw(p, 7)
        x = stack_points(xs)
        xi = tangent_vector(m, x, vs)
        dense = project_tangent(m, x, vs)
        moved = retract(m, x, 0.1 * xi)
        moved_dense = retract(m, x, 0.1 * dense)
        dist = distance(m, moved, x)
        norms = item_norm(dense, len(m.ambient_shape))
        assert dist.shape == norms.shape == (K,)
        for i in range(K):
            xi_i = tangent_vector(m, xs[i], vs[i])
            assert np.array_equal(dense[i], np.asarray(xi_i))
            if isinstance(xi_i, FixedRankTangent):
                for f in ("m", "u_p", "v_p"):
                    assert np.array_equal(getattr(xi, f)[i], getattr(xi_i, f)), f
            single = retract(m, xs[i], 0.1 * xi_i)
            assert_same_point(moved, i, single)
            assert_same_point(moved_dense, i, retract(m, xs[i], 0.1 * np.asarray(xi_i)))
            assert dist[i] == distance(m, single, xs[i])
            assert norms[i] == norm(dense[i])

    @pytest.mark.parametrize("name", NAMES)
    def test_a_single_point_broadcasts_against_a_stack_of_vectors(self, name):
        # the error-bound fit's case: one point, many tangent vectors
        p = families()[name]
        m = p.manifold
        xs, vs, _, _ = draw(p, 8)
        steps = 0.1 * project_tangent(m, xs[0], vs)
        moved = retract(m, xs[0], steps)
        dist = distance(m, moved, xs[0])
        for i in range(K):
            assert np.array_equal(steps[i], 0.1 * project_tangent(m, xs[0], vs[i]))
            single = retract(m, xs[0], steps[i])
            assert_same_point(moved, i, single)
            assert dist[i] == distance(m, single, xs[0])

    @pytest.mark.parametrize("name", NAMES)
    def test_kkt_residual_components(self, name):
        p = families()[name]
        xs, _, ys, zs = draw(p, 9)
        x = stack_points(xs)
        comps = kkt_residual_components(p, x, ys, zs)
        blocks = kkt_blocks(p, x, ys, zs)
        rgrad = lagrangian_rgrad(p, x, ys, zs)
        assert all(np.shape(c) == (K,) for c in comps)
        for i in range(K):
            z_i = None if zs is None else zs[i]
            assert tuple(c[i] for c in comps) == kkt_residual_components(p, xs[i], ys[i], z_i)
            for got, want in zip(blocks, kkt_blocks(p, xs[i], ys[i], z_i)):
                assert (got is None and want is None) or np.array_equal(got[i], want)
            assert np.array_equal(rgrad[i], lagrangian_rgrad(p, xs[i], ys[i], z_i))

    def test_multipliers_are_checked_on_their_trailing_axes(self):
        p = circle_problem()
        x = stack_points([random_point(p.manifold, s) for s in range(K)])
        with pytest.raises(ValueError, match="multiplier y"):
            kkt_residual_components(p, x, np.zeros((K, 2)), np.zeros((K, 1)))

    @pytest.mark.parametrize("shape", [(5, 4, 2), (60, 55, 2)], ids=["svd", "orthographic"])
    def test_retraction_raises_when_any_item_drops_rank(self, shape):
        m = FixedRank(*shape)
        xs = [random_point(m, s) for s in range(K)]
        x = stack_points(xs)
        steps = np.stack([0.01 * project_tangent(m, xs[i], np.ones(m.ambient_shape)) for i in range(K)])
        retract(m, x, steps)  # every item keeps rank
        steps[2] = -xs[2].ambient  # lands on the zero matrix
        with pytest.raises(RankDeficiencyError):
            retract(m, x, steps)
        with pytest.raises(RankDeficiencyError):
            retract(m, x, tangent_vector(m, x, steps))


# ---------------------------------------------------------------------------
# the error-bound fit


def reference_fit(p, x, y, z, n_samples, radius, seed):
    """The fit's samples and constants from a per-sample loop of single-point calls."""
    rng = np.random.default_rng(seed)
    y = np.asarray(y, dtype=float)
    samples = []
    for _ in range(n_samples):
        xi = project_tangent(p.manifold, x, rng.standard_normal(p.manifold.ambient_shape))
        nrm = norm(xi)
        r = rng.uniform(0.0, radius)
        x_s = retract(p.manifold, x, (r / nrm) * xi) if nrm > 0 else x
        dy = rng.standard_normal(y.shape)
        dy *= rng.uniform(0.0, radius) / max(norm(dy), 1e-300)
        dist = distance(p.manifold, x_s, x) + norm(dy)
        z_s = None
        if z is not None:
            dz = rng.standard_normal(np.shape(z))
            dz *= rng.uniform(0.0, radius) / max(norm(dz), 1e-300)
            z_s = z + dz
            dist += norm(dz)
        samples.append((dist, kkt_residual(p, x_s, y + dy, z_s)))
    ratios = [d / r for d, r in samples if r > 1e-14]
    return samples, min(ratios), max(ratios)


def kkt_points():
    """(problem, x, y, z) at a KKT point of each family."""
    out = {"circle": (circle_problem(), *circle_reference())}
    p = sphere_l1_problem(SPHERE_L1_DEMO_A, 0.25)
    res = alm_run(p, ALMConfig(), sphere_point(np.ones(5) / np.sqrt(5)))
    trip = polish_kkt(p, res.x, res.y, res.z, tol=1e-10)
    out["sphere-l1-builtin5x5"] = (p, trip.x, trip.y, trip.z)
    a, mask, _ = rmc_basic_instance()
    p = rmc_problem(a, mask, 3)
    res = alm_run(p, ALMConfig(), nearest_rank_r(FixedRank(5, 5, 3), a))
    trip = polish_kkt(p, res.x, res.y, res.z, tol=1e-10)
    out["rmc-basic5x5"] = (p, trip.x, trip.y, trip.z)
    # exact completion with a full mask: the truth with y = 0 is a KKT
    # point, and at 60 x 55 the fit takes the orthographic retraction
    rng = np.random.default_rng(4)
    u, _ = np.linalg.qr(rng.standard_normal((60, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((55, 2)))
    truth = fixed_rank_point_from_factors(u, np.array([2.0, 1.0]), v)
    out["rmc-60x55-exact"] = (rmc_problem(truth.ambient, np.ones((60, 55), dtype=bool), 2), truth, np.zeros((60, 55)), None)
    return out


@pytest.fixture(scope="module")
def solved():
    return kkt_points()


class TestStackedErrorBoundFit:
    @pytest.mark.parametrize("name", ["circle", "sphere-l1-builtin5x5", "rmc-basic5x5", "rmc-60x55-exact"])
    def test_matches_a_per_sample_loop(self, solved, name):
        p, x, y, z = solved[name]
        n = 60 if name == "rmc-60x55-exact" else 200
        fit = error_bound_fit(p, x, y, z, n_samples=n, radius=0.05, seed=3)
        samples, c1, c2 = reference_fit(p, x, y, z, n, 0.05, 3)
        assert len(fit.samples) == n and not fit.degenerate
        np.testing.assert_allclose(np.array(fit.samples), np.array(samples), rtol=1e-10, atol=0)
        assert fit.c1 == pytest.approx(c1, rel=1e-10) and fit.c2 == pytest.approx(c2, rel=1e-10)

    @pytest.mark.parametrize("name", ["circle", "rmc-basic5x5"])
    def test_one_call_per_stage(self, solved, name, monkeypatch):
        calls = {}
        for fn in ("project_tangent", "retract", "distance", "kkt_residual_components"):
            real = getattr(analysis, fn)

            def counted(*args, _fn=fn, _real=real):
                calls[_fn] = calls.get(_fn, 0) + 1
                return _real(*args)

            monkeypatch.setattr(analysis, fn, counted)
        p, x, y, z = solved[name]
        error_bound_fit(p, x, y, z, n_samples=50, seed=1)
        assert calls == {"project_tangent": 1, "retract": 1, "distance": 1, "kkt_residual_components": 1}

    @pytest.mark.parametrize("name", ["circle", "rmc-basic5x5"])
    def test_a_zero_tangent_sample_keeps_x(self, solved, name, monkeypatch):
        real_project, real_components = analysis.project_tangent, analysis.kkt_residual_components
        seen = {}

        def zero_first(manifold, x, v):
            xi = real_project(manifold, x, v)
            xi[0] = 0.0
            return xi

        def capture(p, x_s, *mults):
            seen["x_s"] = x_s
            return real_components(p, x_s, *mults)

        monkeypatch.setattr(analysis, "project_tangent", zero_first)
        monkeypatch.setattr(analysis, "kkt_residual_components", capture)
        p, x, y, z = solved[name]
        error_bound_fit(p, x, y, z, n_samples=20, seed=1)
        x_s = seen["x_s"]
        assert_same_point(x_s, 0, x)
        assert not np.array_equal(x_s.ambient[1], x.ambient)
