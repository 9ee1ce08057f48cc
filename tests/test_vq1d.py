import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rmquant import (GbmParams, Ncx2Params, ScalarDistribution, distortion,
                     distortion_gradient, distortion_hessian,
                     gbm_exact_marginal, initial_guess, ncx2_1_funcs,
                     newton_quantize, reflect_funcs, region_boundaries,
                     std_normal_funcs)
from rmquant import vq1d
from rmquant._newton import grid_fault
from rmquant.vq1d import Quantizer

SQRT_2_OVER_PI = 0.7978845608028654
TWO_POINT_DISTORTION = 0.36338022763241865  # 1 - 2/pi


def random_grid(rng, dist, n, spread=4.0):
    """Strictly increasing codewords covering the distribution's mass."""
    lo, hi = dist.support
    if np.isneginf(lo):
        pts = rng.uniform(-spread, spread, n)
    else:
        pts = rng.uniform(lo + 0.05, hi if np.isfinite(hi) else spread, n)
    pts = np.sort(pts)
    pts += 1e-3 * np.arange(n)  # break ties
    return pts


class TestRegions:
    def test_midpoints_real_line(self):
        rb = region_boundaries([0.0, 2.0, 6.0])
        assert np.array_equal(rb.edges, [-np.inf, 1.0, 4.0, np.inf])

    def test_truncated_support(self):
        rb = region_boundaries([1.0, 3.0], support=(0.0, np.inf))
        assert np.array_equal(rb.edges, [0.0, 2.0, np.inf])

    def test_single_codeword_spans_support(self):
        rb = region_boundaries([5.0], support=(-2.0, 11.0))
        assert np.array_equal(rb.lowers, [-2.0])
        assert np.array_equal(rb.uppers, [11.0])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            region_boundaries([1.0, 1.0])
        with pytest.raises(ValueError):
            region_boundaries([2.0, 1.0])
        with pytest.raises(ValueError):
            region_boundaries([-1.0, 1.0], support=(0.0, np.inf))
        with pytest.raises(ValueError, match="finite"):
            region_boundaries([1.0, np.nan, 3.0])   # passed both tests above

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12,
                    unique=True))
    def test_regions_tile_support(self, points):
        gam = np.sort(np.asarray(points))
        if gam.size > 1 and np.min(np.diff(gam)) < 1e-9:
            return  # grids this degenerate are rejected by validation
        rb = region_boundaries(gam)
        assert rb.lowers[0] == -np.inf and rb.uppers[-1] == np.inf
        assert np.array_equal(rb.lowers[1:], rb.uppers[:-1])
        assert np.all(rb.lowers < gam) and np.all(gam <= rb.uppers)


def quadrature_distortion(dist, gam):
    """E[(X - q(X))^2] by quadrature of each region of the grid ``gam``."""
    edges = region_boundaries(gam, dist.support).edges
    return sum(quad(lambda t, g=g: (t - g) ** 2 * dist.pdf(t), a, b,
                    limit=200)[0]
               for g, a, b in zip(gam, edges[:-1], edges[1:]))


def _quadrature_cases():
    normal = std_normal_funcs()
    ncx2 = {lam: ncx2_1_funcs(Ncx2Params(lam=lam)) for lam in (0.0, 2.0, 17.0)}
    return {
        "normal": (normal, [-1.2, 0.1, 0.9, 2.0]),
        "ncx2_0": (ncx2[0.0], [0.1, 0.8, 2.5]),
        "ncx2_2": (ncx2[2.0], [0.5, 2.0, 4.0, 7.0]),
        "ncx2_17": (ncx2[17.0], [8.0, 14.0, 18.0, 24.0, 32.0]),
        "reflected_normal": (reflect_funcs(normal, -0.5), [-0.3, 0.4, 1.5]),
        "reflected_ncx2": (reflect_funcs(ncx2[2.0], 0.6), [0.8, 2.0, 5.0]),
        # its density jumps at 2, the fold of -1 about 0.5: an edge here
        "twice_reflected_normal": (
            reflect_funcs(reflect_funcs(normal, -1.0), 0.5), [0.7, 1.3, 2.7]),
        "gbm_marginal": (gbm_exact_marginal(GbmParams(100.0, 0.05, 0.3), 1.0),
                         [60.0, 90.0, 110.0, 150.0]),
    }


QUADRATURE_CASES = _quadrature_cases()


class TestDistortion:
    @pytest.mark.parametrize("name", QUADRATURE_CASES)
    def test_matches_quadrature(self, name):
        d, gam = QUADRATURE_CASES[name]
        assert distortion(d, gam) == pytest.approx(
            quadrature_distortion(d, gam), rel=1e-9)

    def test_one_point_at_mean_gives_variance(self):
        d = std_normal_funcs()
        assert distortion(d, [0.0]) == pytest.approx(1.0, rel=1e-12)

    def test_two_point_stationary_value(self):
        d = std_normal_funcs()
        g = [-SQRT_2_OVER_PI, SQRT_2_OVER_PI]
        assert distortion(d, g) == pytest.approx(TWO_POINT_DISTORTION,
                                                 rel=1e-12)

    def test_point_mass_is_represented_exactly(self):
        loc = 1.7

        def step(x):
            return (np.asarray(x, dtype=float) >= loc).astype(float)

        pm = ScalarDistribution(
            fFM=lambda x: (np.zeros_like(np.asarray(x, float)), step(x),
                           loc * step(x)),
            second_moment=loc * loc)
        assert distortion(pm, [loc]) == pytest.approx(0.0, abs=1e-14)

    def test_missing_second_moment_reported(self):
        d = std_normal_funcs()
        bare = ScalarDistribution(fFM=d.fFM)
        with pytest.raises(ValueError, match="second_moment"):
            distortion(bare, [0.0])


class TestGradientAndHessian:
    def test_gradient_zero_at_one_point_mean(self):
        d = std_normal_funcs()
        assert distortion_gradient(d, [0.0]) == pytest.approx([0.0], abs=1e-15)

    def test_gradient_antisymmetric_for_symmetric_grid(self):
        d = std_normal_funcs()
        g = distortion_gradient(d, [-0.8, 0.8])
        assert g[0] == pytest.approx(-g[1], rel=1e-12)

    def test_hessian_single_codeword(self):
        d = std_normal_funcs()
        h = distortion_hessian(d, [0.0])
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(2.0, rel=1e-14)

    def test_hessian_offdiagonals_nonpositive(self):
        d = std_normal_funcs()
        h = distortion_hessian(d, [-1.0, 0.2, 1.4])
        assert h[0, 1] <= 0.0 and h[1, 2] <= 0.0
        assert h == pytest.approx(h.T)

    @pytest.mark.parametrize("family,lam", [("normal", None), ("ncx2", 2.5),
                                            ("ncx2", 30.0)])
    def test_matches_finite_differences(self, family, lam):
        if family == "normal":
            d = std_normal_funcs()
            spread = 4.0
        else:
            d = ncx2_1_funcs(Ncx2Params(lam=lam))
            spread = lam + 4.0 * np.sqrt(2.0 + 4.0 * lam)
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = rng.integers(2, 9)
            gam = random_grid(rng, d, n, spread)
            grad = distortion_gradient(d, gam)
            hess = distortion_hessian(d, gam)
            h = 1e-6 * np.maximum(1.0, np.abs(gam))
            # finite differencing of D loses ~1e-10 * D to cancellation
            dist_scale = max(1.0, distortion(d, gam))
            for j in range(n):
                e = np.zeros(n)
                e[j] = h[j]
                fd = (distortion(d, gam + e) - distortion(d, gam - e)) / (2 * h[j])
                assert grad[j] == pytest.approx(fd, rel=1e-5,
                                                abs=1e-8 * dist_scale)
                fd_col = (distortion_gradient(d, gam + e)
                          - distortion_gradient(d, gam - e)) / (2 * h[j])
                assert hess[:, j] == pytest.approx(fd_col, rel=1e-5,
                                                   abs=1e-6 * dist_scale)


class TestNewtonQuantize:
    def test_one_point_converges_to_mean(self):
        q = newton_quantize(std_normal_funcs(), [0.7], 20)
        assert q.codewords == pytest.approx([0.0], abs=1e-12)
        assert q.probabilities == pytest.approx([1.0], abs=1e-14)

    def test_two_point_normal(self):
        q = newton_quantize(std_normal_funcs(), initial_guess("normal", 2), 30)
        assert q.codewords == pytest.approx(
            [-SQRT_2_OVER_PI, SQRT_2_OVER_PI], abs=1e-8)

    def test_canonical_normal_50(self):
        d = std_normal_funcs()
        q = newton_quantize(d, initial_guess("normal", 50), 20)
        gnorm = np.max(np.abs(distortion_gradient(d, q.codewords)))
        assert gnorm < 1e-8
        assert abs(q.probabilities.sum() - 1.0) < 1e-10
        assert np.all(np.diff(q.codewords) > 0)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 6.25, 50.0])
    def test_ncx2_stationarity(self, lam):
        d = ncx2_1_funcs(Ncx2Params(lam=lam))
        g0 = initial_guess("ncx2", 30, lam)
        q = newton_quantize(d, g0, 50)
        # Lloyd fixed point: codewords equal their conditional centroids
        from rmquant.vq1d import region_boundaries as rb
        edges = rb(q.codewords, d.support).edges
        dF = np.diff(d.cdf(edges))
        dM = np.diff(d.m1(edges))
        cent = dM / dF
        assert q.codewords == pytest.approx(cent, rel=1e-8)
        assert distortion(d, q.codewords) <= distortion(d, g0)
        assert abs(q.probabilities.sum() - 1.0) < 1e-10

    def test_normal_distortion_decreases(self):
        d = std_normal_funcs()
        g0 = initial_guess("normal", 25)
        q = newton_quantize(d, g0, 20)
        assert distortion(d, q.codewords) <= distortion(d, g0)

    def test_rejects_bad_nmax(self):
        with pytest.raises(ValueError):
            newton_quantize(std_normal_funcs(), [0.0], 0)

    def test_uniform_on_unit_interval(self):
        # the optimal N-point grid of U(0, 1) is (2i - 1) / 2N, mass 1/N each
        def fFM(x):
            u = np.clip(x, 0.0, 1.0)
            return np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0), u, 0.5 * u * u

        uniform = ScalarDistribution(fFM=fFM, second_moment=1.0 / 3.0,
                                     support=(0.0, 1.0))
        n = 8
        q = newton_quantize(uniform, np.linspace(0.01, 0.6, n) ** 2, 50)
        assert q.codewords == pytest.approx((2 * np.arange(1, n + 1) - 1) / (2 * n),
                                            abs=1e-12)
        assert q.probabilities == pytest.approx(np.full(n, 1.0 / n), abs=1e-12)


# adjacent floats: strictly increasing, but both midpoints round to 1.0
COLLAPSED = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]


class TestAdmissible:
    """The one grid rule, :func:`grid_fault`, and the checks that apply it."""

    @pytest.mark.parametrize("trial, lo, hi", [
        ([0.1, np.nan, 0.3], -np.inf, np.inf),
        ([0.1, np.inf], -np.inf, np.inf),
        ([0.1, 0.2], 0.1, np.inf), ([0.05, 0.2], 0.1, np.inf),
        ([0.1, 0.2], -np.inf, 0.2), ([0.1, 0.3], -np.inf, 0.2),
        ([0.2, 0.2], -np.inf, np.inf), (COLLAPSED, -np.inf, np.inf)],
        ids=["nan", "inf", "at-lo", "below-lo", "at-hi", "above-hi", "tied",
             "collapsed"])
    def test_refused(self, trial, lo, hi):
        assert grid_fault(np.array(trial), lo, hi) is not None

    def test_accepted_inside_open_bounds(self):
        assert grid_fault(np.array([0.1, 0.2]), 0.0, 0.3) is None
        assert grid_fault(np.array([-1e9, 1e9])) is None

    def test_every_grid_check_refuses_collapsed_regions(self):
        named = "region boundaries collapse"
        assert named in grid_fault(np.array(COLLAPSED))
        with pytest.raises(ValueError, match=named):
            region_boundaries(COLLAPSED)
        with pytest.raises(ValueError, match=named):
            Quantizer(np.array(COLLAPSED), np.full(3, 1.0 / 3.0))


class TestInitialGuess:
    def test_normal_formula(self):
        g = initial_guess("normal", 10)
        assert g[0] == pytest.approx(5.5 / 11 - 2.75, rel=1e-15)  # -2.25
        assert g[-1] == pytest.approx(2.25, rel=1e-15)
        assert np.all(np.diff(g) > 0)

    def test_ncx2_large_lambda_branch(self):
        g = initial_guess("ncx2", 4, 16.0)  # sqrt(lam) = 4 >= 2.5
        assert g[1] == pytest.approx((5.0 * 2 / 5 - 2.5 + 4.0) ** 2, rel=1e-15)
        assert g[1] == pytest.approx(12.25)

    def test_ncx2_small_lambda_branch(self):
        g = initial_guess("ncx2", 5, 1.0)  # sqrt(lam) = 1 < 2.5
        assert g[2] == pytest.approx(((3.0 + 1.0) * 3 / 5) ** 2, rel=1e-15)
        assert np.all(g > 0) and np.all(np.diff(g) > 0)

    def test_errors(self):
        with pytest.raises(ValueError):
            initial_guess("normal", 0)
        with pytest.raises(ValueError):
            initial_guess("ncx2", 5)
        with pytest.raises(ValueError):
            initial_guess("cauchy", 5)


class TestQuantizerType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Quantizer(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            Quantizer(np.array([1.0, 2.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            Quantizer(np.array([1.0, 2.0]), np.array([1.5, -0.5]))

    @pytest.mark.parametrize("codewords, probabilities, named", [
        ([90.0, np.nan, 110.0], [0.3, 0.3, 0.4], "codewords must be a finite"),
        ([1.0, 2.0, np.inf], [0.3, 0.3, 0.4], "codewords must be a finite"),
        ([90.0, 100.0, 110.0], [np.nan, 0.3, 0.4], "probabilities must lie"),
    ], ids=["nan-codeword", "inf-codeword", "nan-probability"])
    def test_refuses_non_finite_input(self, codewords, probabilities, named):
        with pytest.raises(ValueError, match=named):
            Quantizer(np.array(codewords), np.array(probabilities))


def counted(dist):
    """``dist`` with a call counter on its fused law callable."""
    calls = []

    def fFM(x):
        calls.append(np.size(x))
        return dist.fFM(x)
    return dataclasses.replace(dist, fFM=fFM), calls


class TestLawEvaluationCount:
    """Each Newton evaluation evaluates the law once, at all edges."""

    NCX2 = Ncx2Params(lam=4.0)

    def test_gradient_calls_law_once(self):
        d, calls = counted(ncx2_1_funcs(self.NCX2))
        distortion_gradient(d, initial_guess("ncx2", 20, 4.0))
        assert calls == [21]

    def test_reflection_calls_base_twice(self):
        base, calls = counted(ncx2_1_funcs(self.NCX2))
        refl = reflect_funcs(base, 0.3)
        calls.clear()   # the second moment reads the base law once
        distortion_gradient(refl, 0.301 + np.linspace(0.05, 14.0, 20))
        assert calls == [21, 21]

    def test_one_law_call_per_newton_evaluation(self, monkeypatch):
        d, calls = counted(ncx2_1_funcs(self.NCX2))
        evals = []
        real = vq1d._evaluate

        def evaluate(dist, gam):
            evals.append(gam.size)
            return real(dist, gam)
        monkeypatch.setattr(vq1d, "_evaluate", evaluate)
        newton_quantize(d, initial_guess("ncx2", 50, 4.0), 20)
        assert len(evals) > 2
        assert calls == [n + 1 for n in evals]
