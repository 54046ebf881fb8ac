import math

import numpy as np
import pytest

from wignerlab.kernels import KernelSpectrum, random_spectrum, two_block_spectrum
from wignerlab.montecarlo import estimate_global
from wignerlab.oracles import (
    ConvergenceError,
    OracleResult,
    cf_inversion_exact,
    clt_probability,
    limit_quantumness,
    two_block_exact,
)

LIMIT = 0.15865525393145705

# regularized incomplete beta references computed independently at 50
# significant digits (arbitrary-precision closed form, exact a/b ratio)
BETA_REFS = {
    (2, 1): 0.11509982054024949033,
    (3, 1): 0.14453125,
    (3, 2): 0.13484689357567443987,
    (8, 2): 0.15622696067816964988,
    (16, 3): 0.15784939201565197486,
    (64, 1): 0.15807620851793758173,
    (128, 2): 0.15850437003350439057,
    (256, 1): 0.15850440975481005433,
    (512, 3): 0.15862946502961226739,
}


def _erfc_series(x: float) -> float:
    """Maclaurin-series erfc, an oracle independent of the C library."""
    total = 0.0
    term = x
    n = 0
    while abs(term) > 1e-20:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 1.0 - 2.0 / math.sqrt(math.pi) * total


class TestLimit:
    def test_value_and_method(self):
        res = limit_quantumness()
        assert res.value == pytest.approx(LIMIT, abs=1e-15)
        assert res.method == "limit"
        assert res.estimated_abs_error <= 1e-15

    def test_equals_one_minus_normal_cdf_at_one(self):
        from scipy.special import ndtr
        assert limit_quantumness().value == pytest.approx(1.0 - float(ndtr(1.0)), abs=1e-15)

    def test_against_series_erfc(self):
        doubled = 2.0 * limit_quantumness().value
        assert doubled == pytest.approx(_erfc_series(1.0 / math.sqrt(2.0)), abs=1e-14)
        assert doubled == pytest.approx(0.31731050786291410283, abs=1e-15)


class TestTwoBlockExact:
    def test_n2_closed_polynomial(self):
        # I_x(2, 2) = x^2 (3 - 2x) at x = (3 - sqrt(3))/6
        x = (3.0 - math.sqrt(3.0)) / 6.0
        res = two_block_exact(2, 1)
        assert res.value == pytest.approx(x * x * (3 - 2 * x), abs=1e-13)
        assert res.method == "beta-closed-form"
        assert res.estimated_abs_error < 1e-12

    def test_n3_k1_is_rational(self):
        # the beta integral collapses to 37/256 here
        assert two_block_exact(3, 1).value == pytest.approx(37.0 / 256.0, abs=1e-13)

    @pytest.mark.parametrize("n,k", sorted(BETA_REFS))
    def test_against_high_precision_references(self, n, k):
        assert two_block_exact(n, k).value == pytest.approx(BETA_REFS[(n, k)], abs=5e-13)

    def test_live_arbitrary_precision_crosscheck(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for n, k in [(8, 2), (64, 1)]:
            s = mpmath.sqrt(k * (n - k) * (n - 1) * (n + 1))
            a = ((n - k) + s) / (n * (n - k))
            b = (k - s) / (k * n)
            x = (-b / a) / (1 - b / a)
            ref = mpmath.betainc(n * (n - k), n * k, 0, x, regularized=True)
            assert two_block_exact(n, k).value == pytest.approx(float(ref), abs=5e-13)

    def test_approaches_limit(self):
        assert abs(two_block_exact(1024, 1).value - LIMIT) < 3e-4

    @pytest.mark.parametrize("n,k", [(2, 2), (1, 1), (4, 0), (4, 4)])
    def test_domain_errors(self, n, k):
        with pytest.raises(ValueError):
            two_block_exact(n, k)


class TestCfInversion:
    def test_matches_beta_on_two_block(self):
        for n, k in [(2, 1), (8, 2)]:
            cf = cf_inversion_exact(two_block_spectrum(n, k))
            assert cf.value == pytest.approx(two_block_exact(n, k).value, abs=1e-8)
            assert cf.method == "cf-inversion"
            assert cf.estimated_abs_error <= 1e-10

    def test_matches_monte_carlo_on_random_kernel(self):
        """CF inversion for a generic three-level spectrum against a
        10^7-trial estimate: the exact value must land in the 3-sigma
        Wilson band."""
        spec = random_spectrum(3, np.random.default_rng(11))
        exact = cf_inversion_exact(spec).value
        est = estimate_global(spec, 10**7, 701, z=3.0)
        assert est.ci_low <= exact <= est.ci_high

    def test_tolerance_validation(self):
        spec = two_block_spectrum(2, 1)
        with pytest.raises(ValueError):
            cf_inversion_exact(spec, tol=0.0)
        with pytest.raises(ValueError):
            cf_inversion_exact(spec, tol=-1e-9)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ConvergenceError):
            cf_inversion_exact(two_block_spectrum(4, 1), tol=1e-15)

    def test_invalid_spectrum_rejected(self):
        bad = KernelSpectrum(2, ((1.0, 1), (-0.5, 1)))
        with pytest.raises(ValueError):
            cf_inversion_exact(bad)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(19)
        for n in (3, 5, 9):
            res = cf_inversion_exact(random_spectrum(n, rng))
            assert 0.0 < res.value < 1.0


class TestCltQuadrature:
    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_constant_in_t(self, t):
        res = clt_probability(t)
        assert res.value == pytest.approx(LIMIT, abs=1e-7)
        assert res.method == "clt-quadrature"

    def test_extreme_t(self):
        assert clt_probability(50.0).value == pytest.approx(LIMIT, abs=1e-6)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            clt_probability(-1.0)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ConvergenceError):
            clt_probability(1.0, tol=1e-16)


@pytest.mark.parametrize("call", [
    lambda: clt_probability(1.0, tol=math.nan),
    lambda: cf_inversion_exact(two_block_spectrum(2, 1), tol=math.nan),
    lambda: cf_inversion_exact(KernelSpectrum(2, ((math.nan, 2),))),
])
def test_nan_inputs_rejected(call):
    with pytest.raises(ValueError):
        call()


class TestOracleResult:
    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            OracleResult(value=1.5, method="limit", estimated_abs_error=0.0)

    def test_rejects_bad_error(self):
        with pytest.raises(ValueError):
            OracleResult(value=0.5, method="limit", estimated_abs_error=-1.0)
        with pytest.raises(ValueError):
            OracleResult(value=0.5, method="limit", estimated_abs_error=math.inf)
