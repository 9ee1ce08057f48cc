import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import stats
from scipy.integrate import quad

from rmquant import SdeModel, euler_update, milstein_update, weak2_update
from rmquant.affine_schemes import (GAUSSIAN, NCX2, UpdateBatch,
                                    milstein_updates)

from rmquant.rmq_engine import REFLECTING, _normalized_edges

from conftest import GBM

EULER_M = 8.660254037844386        # 30 sqrt(1/12)
EULER_C = 100.41666666666667       # 100 + 5/12
MILSTEIN_LAM = 133.33333333333334  # 12 / 0.09
WEAK2_LAM = 134.44675925925927     # 30.125^2 / 6.75
WEAK2_MEAN = 100.41753472222222    # 100 + 5/12 + (0.25/2)/144

DT = 1.0 / 12.0


def raw_scheme_samples(model, scheme, gamma, dt, n, seed):
    """Monte Carlo draws of the underlying one-step update, before any
    completion of squares (quadratic terms use Z^2 - 1)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    a = float(model.a(gamma))
    b = float(model.b(gamma))
    bx = float(model.b_x(gamma))
    base = gamma + a * dt + b * np.sqrt(dt) * z
    if scheme == "euler":
        return base
    quad = 0.5 * b * bx * dt * (z * z - 1.0)
    if scheme == "milstein":
        return base + quad
    ax = float(model.a_x(gamma))
    axx = float(model.a_xx(gamma))
    bxx = float(model.b_xx(gamma))
    extra_z = 0.5 * (ax * b + a * bx + 0.5 * bxx * b * b) * dt ** 1.5 * z
    extra_det = 0.5 * (a * ax + 0.5 * axx * b * b) * dt * dt
    return base + quad + extra_z + extra_det


class TestEuler:
    def test_gbm_example(self, gbm):
        u = euler_update(gbm, 100.0, DT)
        assert u.m == pytest.approx(EULER_M, rel=1e-14)
        assert u.c == pytest.approx(EULER_C, rel=1e-14)
        assert u.kind == GAUSSIAN
        assert not u.fallback

    def test_vanishing_step(self, gbm):
        u = euler_update(gbm, 100.0, 1e-12)
        assert abs(u.m) < 1e-4
        assert u.c == pytest.approx(100.0, abs=1e-9)

    def test_zero_drift(self):
        model = SdeModel(
            a=lambda x: np.zeros_like(np.asarray(x, float)),
            a_x=lambda x: np.zeros_like(np.asarray(x, float)),
            a_xx=lambda x: np.zeros_like(np.asarray(x, float)),
            b=lambda x: 0.2 * np.asarray(x, float),
            b_x=lambda x: np.full_like(np.asarray(x, float), 0.2),
            b_xx=lambda x: np.zeros_like(np.asarray(x, float)),
            state_domain=(0.0, np.inf))
        u = euler_update(model, 7.0, DT)
        assert u.c == pytest.approx(7.0, rel=1e-15)


class TestMilstein:
    def test_gbm_example(self, gbm):
        u = milstein_update(gbm, 100.0, DT)
        assert u.m == pytest.approx(0.375, rel=1e-14)
        assert u.c == pytest.approx(50.0 + 0.5 / 12.0, rel=1e-13)
        assert u.kind == NCX2
        assert u.lam == pytest.approx(MILSTEIN_LAM, rel=1e-13)
        assert u.mean() == pytest.approx(EULER_C, rel=1e-13)

    @settings(max_examples=80, deadline=None)
    @given(gamma=st.floats(5.0, 400.0), dt=st.floats(1e-4, 1.0))
    def test_mean_identity(self, gamma, dt):
        from rmquant import gbm_model
        model = gbm_model(GBM)
        u = milstein_update(model, gamma, dt)
        expected = gamma + float(model.a(gamma)) * dt
        assert u.mean() == pytest.approx(expected, rel=1e-10)

    def test_variance_identity(self, gbm):
        u = milstein_update(gbm, 100.0, DT)
        b, bx = 30.0, 0.3
        want = b * b * DT + 0.5 * (b * bx * DT) ** 2
        assert u.variance() == pytest.approx(want, rel=1e-12)


class TestWeak2:
    def test_gbm_example(self, gbm):
        u = weak2_update(gbm, 100.0, DT)
        assert u.m == pytest.approx(0.375, rel=1e-14)
        assert u.lam == pytest.approx(WEAK2_LAM, rel=1e-13)
        assert u.mean() == pytest.approx(WEAK2_MEAN, rel=1e-13)

    def test_shares_scale_with_milstein(self, gbm, cev):
        for model, x in ((gbm, 73.0), (cev, 140.0)):
            assert weak2_update(model, x, DT).m == pytest.approx(
                milstein_update(model, x, DT).m, rel=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(gamma=st.floats(5.0, 400.0), dt=st.floats(1e-4, 1.0))
    def test_mean_identity(self, gamma, dt):
        from rmquant import gbm_model
        model = gbm_model(GBM)
        u = weak2_update(model, gamma, dt)
        a = float(model.a(gamma))
        ax = float(model.a_x(gamma))
        expected = gamma + a * dt + 0.5 * a * ax * dt * dt
        assert u.mean() == pytest.approx(expected, rel=1e-10)

    def test_zero_drift_mean_is_state(self):
        model = SdeModel(
            a=lambda x: np.zeros_like(np.asarray(x, float)),
            a_x=lambda x: np.zeros_like(np.asarray(x, float)),
            a_xx=lambda x: np.zeros_like(np.asarray(x, float)),
            b=lambda x: 0.4 * np.asarray(x, float),
            b_x=lambda x: np.full_like(np.asarray(x, float), 0.4),
            b_xx=lambda x: np.zeros_like(np.asarray(x, float)),
            state_domain=(0.0, np.inf))
        u = weak2_update(model, 9.0, DT)
        assert u.mean() == pytest.approx(9.0, rel=1e-12)


class TestMomentsAgainstRawSchemes:
    @pytest.mark.parametrize("scheme,builder", [
        ("euler", euler_update), ("milstein", milstein_update),
        ("weak2", weak2_update)])
    @pytest.mark.parametrize("which", ["gbm", "cev"])
    def test_moments_match(self, scheme, builder, which, gbm, cev):
        model = gbm if which == "gbm" else cev
        gamma, dt, n = 87.0, 0.25, 10_000_000
        samples = raw_scheme_samples(model, scheme, gamma, dt, n, seed=99)
        u = builder(model, gamma, dt)
        mean_se = samples.std(ddof=1) / np.sqrt(n)
        assert abs(samples.mean() - u.mean()) < 4.0 * mean_se
        dev = (samples - samples.mean()) ** 2
        var_se = dev.std(ddof=1) / np.sqrt(n)
        assert abs(samples.var(ddof=1) - u.variance()) < 4.0 * var_se


class TestFallback:
    @staticmethod
    def constant_vol_model():
        return SdeModel(
            a=lambda x: 0.1 * np.asarray(x, float),
            a_x=lambda x: np.full_like(np.asarray(x, float), 0.1),
            a_xx=lambda x: np.zeros_like(np.asarray(x, float)),
            b=lambda x: np.full_like(np.asarray(x, float), 2.0),
            b_x=lambda x: np.zeros_like(np.asarray(x, float)),
            b_xx=lambda x: np.zeros_like(np.asarray(x, float)),
            state_domain=(-np.inf, np.inf))

    @pytest.mark.parametrize("builder", [milstein_update, weak2_update])
    def test_degenerate_diffusion_derivative(self, builder):
        model = self.constant_vol_model()
        u = builder(model, 5.0, DT)
        e = euler_update(model, 5.0, DT)
        assert u.fallback
        assert u.kind == GAUSSIAN
        assert u.m == e.m and u.c == e.c

    def test_partial_fallback_rows(self, gbm):
        model = self.constant_vol_model()
        batch = milstein_updates(model, [1.0, 2.0], DT)
        assert np.all(batch.fallback)
        healthy = milstein_updates(gbm, [1.0, 2.0], DT)
        assert not np.any(healthy.fallback)


def mixed_law_matrix(rng, n_rows=10, n_cols=9):
    """Sorted rows of innovation arguments for a batch mixing Gaussian and
    ncx2 rows, with -inf, 0 and +inf entries."""
    is_ncx2 = np.arange(n_rows) % 3 != 0
    # sqrt(lam) spans LOBE_CUT: rows with and without a live second lobe
    lam = np.where(is_ncx2, np.geomspace(0.05, 400.0, n_rows), 0.0)
    z = np.empty((n_rows, n_cols))
    for i in range(n_rows):
        if is_ncx2[i]:
            hi = lam[i] + 8.0 * np.sqrt(2.0 + 4.0 * lam[i])
            z[i] = np.sort(hi * rng.random(n_cols) ** 2 - 0.5)
        else:
            z[i] = np.sort(rng.normal(0.0, 2.0, n_cols))
    z[:, 0] = -np.inf
    z[:, -1] = np.inf
    z[1::2, 1] = 0.0
    z.sort(axis=1)
    batch = UpdateBatch(np.ones(n_rows), np.zeros(n_rows), lam, is_ncx2,
                        ~is_ncx2)
    return batch, z


def reference_law(is_ncx2, lam):
    """scipy pdf and cdf of one row's innovation.  The 1-dof ncx2 density
    is taken as 0 at 0 (where it is infinite) and at +inf, as in rmquant."""
    if not is_ncx2:
        return stats.norm.pdf, stats.norm.cdf
    law = stats.ncx2(df=1, nc=lam)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        live = np.isfinite(x) & (x > 0.0)
        return np.where(live, law.pdf(np.where(live, x, 1.0)), 0.0)
    return pdf, law.cdf


class TestLawKernel:
    """UpdateBatch.law_fFM against scipy.stats and numerical integration."""

    @pytest.mark.parametrize("reflect", [False, True])
    def test_law_fFM_matches_scipy_references(self, reflect):
        rng = np.random.default_rng(17)
        batch, z = mixed_law_matrix(rng)
        xbar = rng.uniform(-1.0, 2.0, batch.size) if reflect else None
        f, F, M1 = batch.law_fFM(z, xbar)
        assert f.shape == F.shape == M1.shape == z.shape
        for i in range(batch.size):
            pdf, cdf = reference_law(batch.is_ncx2[i], batch.lam[i])
            zi = z[i]
            if reflect:
                zr = 2.0 * xbar[i] - zi
                want_f = pdf(zi) + pdf(zr)
                want_F = cdf(zi) - cdf(zr)

                def density(t, pdf=pdf, xb=xbar[i]):
                    return pdf(t) + pdf(2.0 * xb - t)
            else:
                want_f, want_F, density = pdf(zi), cdf(zi), pdf
            np.testing.assert_allclose(f[i], want_f, rtol=1e-10, atol=1e-14)
            np.testing.assert_allclose(F[i], want_F, rtol=0.0, atol=1e-13)
            # M1 is a lower partial expectation: its increments between
            # consecutive arguments integrate t times the density.
            # Split at the kinks of the 1-dof density (0 and its mirror).
            kinks = [0.0, 2.0 * xbar[i]] if reflect else [0.0]
            for a, b, got in zip(zi[:-1], zi[1:], np.diff(M1[i])):
                cuts = [a] + sorted(k for k in kinks if a < k < b) + [b]
                want = sum(quad(lambda t: t * density(t), lo, hi,
                                epsabs=1e-13, epsrel=1e-11, limit=200)[0]
                           for lo, hi in zip(cuts[:-1], cuts[1:]))
                assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


def whole_matrix_fold(law, z, xbar):
    """The fold evaluated on every cell, with no span cut."""
    f1, F1, M1 = law(z)
    f2, F2, M2 = law(2.0 * xbar - z)
    return f1 + f2, F1 - F2, M1 + M2 - 2.0 * xbar * F2


def assert_fold_matches_reflect_fFM(batch, x):
    """law_fFM's fold at the state points x equals the whole-matrix fold,
    bit for bit; returns the number of columns where some mirrored
    argument lies on the ncx2 support."""
    z, xbar = _normalized_edges(batch, np.asarray(x, dtype=float), REFLECTING)
    got = batch.law_fFM(z, xbar)
    want = whole_matrix_fold(batch._base_fFM, z, xbar[:, None])
    for g, w in zip(got, want):
        assert g.shape == z.shape
        assert np.array_equal(g, w)
    return int(np.count_nonzero((2.0 * xbar[:, None] - z > 0.0).any(axis=0)))


REFLECT_LAMS = (0.0, 0.5, 4.0, 90.0, 150.0)
STATE_POINTS = st.one_of(st.floats(-30.0, 30.0),
                         st.sampled_from([-np.inf, np.inf, 0.0, 1e-300]))


@st.composite
def reflecting_rows(draw):
    """A batch of 1-5 rows, ncx2 only, Gaussian only or mixed, and state
    points in sorted or any order."""
    n = draw(st.integers(1, 5))

    def per_row(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    m = per_row(st.floats(1e-3, 10.0))
    c = per_row(st.floats(-20.0, 20.0))
    lam = per_row(st.sampled_from(REFLECT_LAMS))
    rows = draw(st.sampled_from([NCX2, GAUSSIAN, "mixed"]))
    is_ncx2 = np.array(per_row(st.booleans()) if rows == "mixed"
                       else [rows == NCX2] * n)
    x = draw(st.lists(STATE_POINTS, min_size=1, max_size=16))
    if draw(st.booleans()):
        x.sort()
    batch = UpdateBatch(m, c, np.where(is_ncx2, lam, 0.0), is_ncx2, ~is_ncx2)
    return batch, np.array(x)


class TestRestrictedFold:
    """The reflecting fold evaluates the mirrored law only on columns
    where it can be nonzero, with the whole-matrix fold's values bit for
    bit."""

    @settings(max_examples=300, deadline=None)
    @given(reflecting_rows())
    def test_equals_reflect_fFM(self, case):
        assert_fold_matches_reflect_fFM(*case)

    @pytest.mark.parametrize("c, x, live", [
        ([1.0, 2.0], [0.0, 1e-300, 1.0, np.inf], 0),    # xbar < 0: no column
        ([-5.0, -6.0], [0.0, 1e-300, 1.0, 4.0], 4),     # every column
        ([-5.0, 3.0], [4.0, 0.0, 20.0, 1.0, np.inf], 3),  # unsorted
    ], ids=["none-live", "all-live", "unsorted"])
    def test_live_columns(self, c, x, live):
        batch = UpdateBatch([1.0, 2.0], c, [0.5, 90.0], [True, True],
                            [False, False])
        assert assert_fold_matches_reflect_fFM(batch, x) == live
