import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.special import ndtr

from rmquant import (Ncx2Params, ScalarDistribution, ncx2_1_funcs,
                     reflect_funcs, std_normal_funcs)
from rmquant.distributions import LOBE_CUT, ncx2_fFM, norm_pdf

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

    def test_second_moment_matches_quadrature(self):
        d = std_normal_funcs()
        ref = quad(lambda t: t * t * np.exp(-t * t / 2) / np.sqrt(2 * np.pi),
                   -np.inf, np.inf)[0]
        assert d.second_moment == pytest.approx(ref, rel=1e-10)

    def test_derivatives(self):
        d = std_normal_funcs()
        rng = np.random.default_rng(11)
        pts = rng.uniform(-4.0, 4.0, 200)
        assert_derivative(d.cdf, d.pdf, pts)
        assert_derivative(d.m1, lambda x: x * d.pdf(x), pts)


class TestNcx2:
    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            Ncx2Params(lam=-0.1)
        with pytest.raises(ValueError, match="finite"):
            Ncx2Params(lam=np.inf)

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

    def test_second_moment_matches_quadrature(self):
        for lam in (0.0, 2.0, 17.0):
            d = ncx2_1_funcs(Ncx2Params(lam=lam))
            ref = sum(quad(lambda t: t * t * d.pdf(t), a, b, limit=200)[0]
                      for a, b in ((0.0, 1.0), (1.0, np.inf)))
            assert d.second_moment == pytest.approx(ref, rel=1e-8)

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


    @pytest.mark.parametrize("layout", ["fortran", "transposed",
                                        "fancy-indexed", "strided"])
    def test_any_memory_layout_gives_the_c_order_bits(self, layout):
        # the sliver is addressed by flat index, so a kernel that kept a
        # non-C layout lost its second-lobe corrections (at lam = 0.5,
        # a Fortran-ordered cdf read 0.3144 at x = 0.05 for 0.1384)
        lam = np.array([[0.0], [0.5], [4.0], [81.0], [150.0]])
        x = np.sort(np.concatenate([cut_points(0.5), [0.05]]))
        x = np.broadcast_to(x, (lam.size, x.size)).copy()
        x[::2] = x[::2] * 1.7
        view = {"fortran": lambda: np.asfortranarray(x),
                "transposed": lambda: np.ascontiguousarray(x.T).T,
                "fancy-indexed": lambda: x[:, np.arange(x.shape[1])[::-1]],
                "strided": lambda: x[:, ::2]}[layout]()
        assert not view.flags.c_contiguous
        got = ncx2_fFM(view, lam)
        want = ncx2_fFM(np.ascontiguousarray(view), lam)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        live = (view > 0.0) & np.isfinite(view)
        law = stats.ncx2(df=1, nc=np.broadcast_to(lam, view.shape)[live])
        np.testing.assert_allclose(got[1][live], law.cdf(view[live]),
                                   rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(got[0][live], law.pdf(view[live]),
                                   rtol=1e-10, atol=1e-14)


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

    def test_second_moment_matches_quadrature(self):
        # the last law folds a folded law, whose M1 drops a constant; its
        # density jumps at 2 = lo + 1.5, the fold of -1 about 0.5
        normal, ncx2 = std_normal_funcs(), ncx2_1_funcs(Ncx2Params(lam=2.0))
        for refl in (reflect_funcs(normal, -0.5), reflect_funcs(normal, 0.7),
                     reflect_funcs(ncx2, 0.6),
                     reflect_funcs(reflect_funcs(normal, -1.0), 0.5)):
            lo = refl.support[0]
            ref = sum(quad(lambda t: t * t * refl.pdf(t), a, b, limit=200)[0]
                      for a, b in ((lo, lo + 1.5), (lo + 1.5, np.inf)))
            assert refl.second_moment == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("base", [std_normal_funcs(),
                                      ncx2_1_funcs(Ncx2Params(lam=2.0))],
                             ids=["normal", "ncx2"])
    def test_fFM_keeps_0d_and_2d_shapes(self, base):
        refl = reflect_funcs(base, 0.6)
        assert all(np.shape(part) == () for part in refl.fFM(1.0))
        grid = np.array([[0.0, 0.6, 1.0], [2.0, 5.0, np.inf]])
        cellwise = [refl.fFM(v) for v in grid.ravel()]
        for k, part in enumerate(refl.fFM(grid)):
            assert part.shape == grid.shape
            assert np.array_equal(part.ravel(), [c[k] for c in cellwise])

    def test_second_moment_needs_the_base_one(self):
        bare = ScalarDistribution(fFM=std_normal_funcs().fFM)
        assert reflect_funcs(bare, 0.3).second_moment is None

    def test_rejects_xbar_at_support_top(self):
        with pytest.raises(ValueError):
            reflect_funcs(std_normal_funcs(), np.inf)
        with pytest.raises(ValueError, match="finite"):
            reflect_funcs(std_normal_funcs(), -np.inf)
