import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from rmquant import Ncx2Params, ncx2_1_funcs, reflect_funcs, std_normal_funcs
from rmquant.distributions import (LOBE_CUT, ncx2_fFM, ncx2_m2, norm_m2,
                                   norm_pdf)

from conftest import assert_derivative

PHI0 = 0.3989422804014327
PHI_1 = 0.841344746068543          # Phi(1)
PHI_M15 = 0.12951759566589173      # phi(-1.5)
NCX2_CDF_1_LAM0 = 0.6826894921370859


class TestStdNormal:
    def test_point_values(self):
        d = std_normal_funcs()
        assert d.pdf(0.0) == pytest.approx(PHI0, rel=1e-14)
        assert d.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert d.m1(0.0) == pytest.approx(-PHI0, rel=1e-14)
        assert d.cdf(1.0) == pytest.approx(PHI_1, rel=1e-13)

    def test_limits(self):
        d = std_normal_funcs()
        assert d.pdf(np.inf) == 0.0
        assert d.cdf(np.inf) == 1.0
        assert d.m1(np.inf) == 0.0
        assert d.cdf(-np.inf) == 0.0
        assert d.m1(-np.inf) == 0.0
        assert d.m2(np.inf) == 1.0
        assert d.m2(-np.inf) == 0.0

    def test_m2_value(self):
        # M2(x) = Phi(x) - x phi(x)
        x = 0.7
        ref = quad(lambda t: t * t * np.exp(-t * t / 2) / np.sqrt(2 * np.pi),
                   -np.inf, x)[0]
        assert norm_m2(x) == pytest.approx(ref, rel=1e-10)

    def test_derivatives(self):
        d = std_normal_funcs()
        rng = np.random.default_rng(11)
        pts = rng.uniform(-4.0, 4.0, 200)
        assert_derivative(d.cdf, d.pdf, pts)
        assert_derivative(d.m1, lambda x: x * d.pdf(x), pts)
        assert_derivative(d.m2, lambda x: x * x * d.pdf(x), pts)


class TestNcx2:
    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            Ncx2Params(lam=-0.1)

    def test_central_case_value(self):
        d = ncx2_1_funcs(Ncx2Params(lam=0.0))
        assert d.cdf(1.0) == pytest.approx(NCX2_CDF_1_LAM0, rel=1e-13)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 4.0, 25.0])
    def test_boundary_conventions(self, lam):
        d = ncx2_1_funcs(Ncx2Params(lam=lam))
        assert d.pdf(0.0) == 0.0
        assert d.cdf(0.0) == 0.0
        assert d.m1(0.0) == 0.0
        assert d.pdf(np.inf) == 0.0
        assert d.cdf(np.inf) == 1.0
        assert d.m1(np.inf) == 1.0 + lam
        for x in (-1.0, -1e-12):
            assert d.pdf(x) == 0.0 and d.cdf(x) == 0.0 and d.m1(x) == 0.0

    def test_derivatives(self):
        rng = np.random.default_rng(7)
        for lam in (0.0, 1.5, 9.0, 80.0):
            d = ncx2_1_funcs(Ncx2Params(lam=lam))
            lo = 0.05 if lam < 4 else max(0.05, lam - 3.5 * np.sqrt(2 + 4 * lam))
            hi = lam + 4.0 * np.sqrt(2.0 + 4.0 * lam) + 4.0
            pts = rng.uniform(lo, hi, 200)
            assert_derivative(d.cdf, d.pdf, pts)
            assert_derivative(d.m1, lambda x, d=d: x * d.pdf(x), pts)

    def test_m2_against_quadrature(self):
        for lam in (0.0, 2.0, 17.0):
            d = ncx2_1_funcs(Ncx2Params(lam=lam))
            for x in (0.4, 1.7, lam + 3.0):
                ref = quad(lambda t: t * t * d.pdf(t), 0.0, x, limit=200)[0]
                assert ncx2_m2(x, lam) == pytest.approx(ref, rel=1e-8)
            full = lam * lam + 6.0 * lam + 3.0
            assert ncx2_m2(np.inf, lam) == pytest.approx(full, rel=1e-14)

    @pytest.mark.parametrize("lam", [0.0, 0.3, 2.0, 7.0, 40.0])
    def test_cdf_matches_empirical(self, lam):
        # X = (Z + sqrt(lam))^2 has exactly this law; binomial 3-sigma bands.
        n = 1_000_000
        rng = np.random.default_rng(1234)
        x = (rng.standard_normal(n) + np.sqrt(lam)) ** 2
        x.sort()
        d = ncx2_1_funcs(Ncx2Params(lam=lam))
        qs = np.quantile(x, np.linspace(0.02, 0.98, 20))
        emp = np.searchsorted(x, qs, side="right") / n
        theo = d.cdf(qs)
        band = 3.0 * np.sqrt(theo * (1.0 - theo) / n)
        assert np.all(np.abs(emp - theo) <= band)


def unfused_ncx2_fFM(x, lam):
    """The ncx2(1) closed form with both lobes everywhere, one pass per term."""
    x, lam = np.asarray(x, dtype=float), np.asarray(lam, dtype=float)
    live = (x > 0.0) & np.isfinite(x)
    xs = np.sqrt(np.where(live, x, 1.0))
    xp, xm = xs - np.sqrt(lam), -xs - np.sqrt(lam)
    pp, pm = norm_pdf(xp), norm_pdf(xm)
    F = ndtr(xp) - ndtr(xm)
    M1 = (1.0 + lam) * F + pp * xm - pm * xp
    top = x == np.inf
    return (np.where(live, (pp + pm) / (2.0 * xs), 0.0),
            np.where(live, F, np.where(top, 1.0, 0.0)),
            np.where(live, M1, np.where(top, 1.0 + lam, 0.0)))


# sqrt(lam) on both sides of LOBE_CUT; 99 and 100 put the cut near x = 0
CUT_LAMS = np.array([0.0, 2.0, 49.0, 81.0, 99.0, 100.0, 150.0])


def cut_points(lam):
    """Points with x- = -sqrt(x) - sqrt(lam) on both sides of -LOBE_CUT,
    plus 0, negative and +-inf points."""
    at_cut = max(LOBE_CUT - np.sqrt(lam), 0.0) ** 2
    return np.concatenate([[-np.inf, -1.0, 0.0],
                           at_cut * np.array([0.5, 0.9, 0.99, 1.01, 1.1, 2.0]),
                           np.linspace(0.01, lam + 60.0, 40), [np.inf]])


class TestLobeCut:
    """The second ncx2 lobe is dropped below -LOBE_CUT, within 1e-21."""

    def test_cut_is_below_double_precision(self):
        assert ndtr(LOBE_CUT) == 1.0
        assert ndtr(-LOBE_CUT) < 1e-23
        assert norm_pdf(LOBE_CUT) < 1e-22

    @pytest.mark.parametrize("form", ["0-d", "1-d", "rows"])
    def test_matches_unfused_closed_form(self, form):
        if form == "rows":
            x = np.sort(np.concatenate([cut_points(lam) for lam in CUT_LAMS]))
            lam = CUT_LAMS[:, None]
            cases = [(x, lam)]
        elif form == "1-d":
            cases = [(cut_points(lam), lam) for lam in CUT_LAMS]
        else:
            cases = [(np.float64(x), lam) for lam in CUT_LAMS
                     for x in cut_points(lam)]
        xm = [-np.sqrt(np.maximum(x, 0.0)) - np.sqrt(lam) for x, lam in cases]
        assert any(np.any(v > -LOBE_CUT) for v in xm)
        assert any(np.any(np.isfinite(v) & (v < -LOBE_CUT)) for v in xm)
        for x, lam in cases:
            got, want = ncx2_fFM(x, lam), unfused_ncx2_fFM(x, lam)
            for g, w in zip(got, want):
                assert g.shape == w.shape == np.broadcast_shapes(
                    np.shape(x), np.shape(lam))
                np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-21)


class TestReflection:
    def test_gaussian_boundary_values(self):
        base = std_normal_funcs()
        refl = reflect_funcs(base, -1.5)
        assert refl.cdf(-1.5) == 0.0
        assert refl.pdf(-1.5) == pytest.approx(2.0 * PHI_M15, rel=1e-13)
        assert refl.cdf(np.inf) == pytest.approx(1.0, abs=1e-12)
        assert refl.pdf(-2.0) == 0.0
        assert refl.cdf(-5.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-6.0, max_value=6.0))
    def test_mass_conserved(self, xbar):
        refl = reflect_funcs(std_normal_funcs(), xbar)
        assert abs(refl.cdf(np.inf) - 1.0) <= 1e-12

    def test_reflected_ncx2_needs_no_special_casing(self):
        # reflecting about a positive point folds sub-zero arguments onto
        # the zero-outside-support region of the base law
        base = ncx2_1_funcs(Ncx2Params(lam=2.0))
        refl = reflect_funcs(base, 0.6)
        assert refl.cdf(np.inf) == pytest.approx(1.0, abs=1e-12)
        x = np.linspace(0.6, 14.0, 200)
        assert np.all(np.diff(refl.cdf(x)) >= -1e-15)

    def test_density_and_derivatives(self):
        refl = reflect_funcs(std_normal_funcs(), -1.0)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.95, 4.0, 200)
        assert_derivative(refl.cdf, refl.pdf, pts)

    def test_m1_differences_match_quadrature(self):
        # the reduced m1 drops constants, so only differences are testable
        refl = reflect_funcs(std_normal_funcs(), -0.5)
        for a, b in ((-0.3, 0.9), (0.2, 2.5)):
            ref = quad(lambda t: t * refl.pdf(t), a, b)[0]
            assert refl.m1(b) - refl.m1(a) == pytest.approx(ref, rel=1e-9)

    def test_m2_differences_match_quadrature(self):
        refl = reflect_funcs(std_normal_funcs(), -0.5)
        for a, b in ((-0.2, 1.1), (0.5, 3.0)):
            ref = quad(lambda t: t * t * refl.pdf(t), a, b)[0]
            assert refl.m2(b) - refl.m2(a) == pytest.approx(ref, rel=1e-9)

    def test_rejects_xbar_at_support_top(self):
        with pytest.raises(ValueError):
            reflect_funcs(std_normal_funcs(), np.inf)
