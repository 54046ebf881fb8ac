import copy
import dataclasses
import json
import math
import pickle
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from wignerlab import oracles
from wignerlab.kernels import KernelSpectrum, random_spectrum, two_block_spectrum
from wignerlab.montecarlo import KernelSelector, estimate_global, wilson_interval
from wignerlab.oracles import (
    ConvergenceError,
    OracleResult,
    cf_inversion_exact,
    clt_probability,
    edgeworth_probability,
    limit_quantumness,
    negative_probability,
    two_block_exact,
)
from wignerlab.sampling import gamma_batch

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

# (value, estimated_abs_error) in float hex for two_block_exact(N, k) ("beta"),
# cf_inversion_exact(two_block_spectrum(N, k)) ("cf") and
# cf_inversion_exact(KernelSelector.random(11).build(N)) ("cf-random"; from N = 512
# on its first scan sums the cumulant series).  The "cf" rows at N = 8 k = 4 and from
# N = 16 on take the scalar first scan, the others the grid.  They pin the (weights,
# shapes) core bit for bit; a change to either route that moves a value on purpose updates its
# pins here.
ORACLE_PINS = {
    ("beta", 2, 1): ("0x1.d772e8cfeef6ap-4", "0x1.19de8b6169c17p-41"),
    ("beta", 3, 1): ("0x1.2800000000000p-3", "0x1.19cd9812dea11p-41"),
    ("beta", 8, 1): ("0x1.3c6335e7ba58ep-3", "0x1.19e1dd0df8487p-41"),
    ("beta", 8, 4): ("0x1.40fa3788ec0c0p-3", "0x1.1a909cc695c03p-41"),
    ("beta", 16, 1): ("0x1.408294fc705f5p-3", "0x1.1a034553da86cp-41"),
    ("beta", 16, 8): ("0x1.43f40d67780e9p-3", "0x1.1b882f89fa321p-41"),
    ("beta", 64, 1): ("0x1.43bd758ee1b9ep-3", "0x1.1a7cf37ee16f2p-41"),
    ("beta", 64, 32): ("0x1.44dd8e0f34791p-3", "0x1.2156cb566b9c6p-41"),
    ("beta", 512, 1): ("0x1.44c50182f5b0cp-3", "0x1.1c411768c490cp-41"),
    ("beta", 512, 256): ("0x1.44eccdc5eca8cp-3", "0x1.578a5c18ddbadp-41"),
    ("beta", 2048, 1): ("0x1.44e2e19cb0f53p-3", "0x1.1efdb9dae319dp-41"),
    ("beta", 2048, 1024): ("0x1.44ed07d8ae673p-3", "0x1.08afdebf73896p-40"),
    ("beta", 16384, 1): ("0x1.44ebc32c0c0e6p-3", "0x1.29006b7a3d79ap-41"),
    ("beta", 16384, 8192): ("0x1.44ed0ba84eae1p-3", "0x1.1afa2ddc24e4cp-38"),
    ("cf", 2, 1): ("0x1.d772e8cff32ecp-4", "0x1.b7c3039e1ec73p-35"),
    ("cf", 3, 1): ("0x1.27ffffff3a502p-3", "0x1.b47979eda7a60p-35"),
    ("cf", 8, 1): ("0x1.3c6335e767a32p-3", "0x1.ae6b62f1a6f60p-35"),
    ("cf", 8, 4): ("0x1.40fa3788e2496p-3", "0x1.0ae22dc2f9a26p-35"),
    ("cf", 16, 1): ("0x1.408294fc7d246p-3", "0x1.9e990e4154b85p-35"),
    ("cf", 16, 8): ("0x1.43f40d67775ecp-3", "0x1.10b76d2d65fc0p-35"),
    ("cf", 64, 1): ("0x1.43bd758ede672p-3", "0x1.ec65382ea777ep-36"),
    ("cf", 64, 32): ("0x1.44dd8e0f38af6p-3", "0x1.9f5b13d1e4bc3p-35"),
    ("cf-random", 3, None): ("0x1.27fbc84d28aa8p-3", "0x1.af73249b4dd62p-35"),
    ("cf-random", 7, None): ("0x1.3dc010781dbdap-3", "0x1.410f10ddf2519p-35"),
    ("cf-random", 16, None): ("0x1.4287d62d3a26cp-3", "0x1.03b64af7de66fp-35"),
    ("cf-random", 64, None): ("0x1.44b9ffe7c4a8ep-3", "0x1.50af7313d65e0p-35"),
    ("cf-random", 512, None): ("0x1.44ec523afaa5ep-3", "0x1.14781d8aa7a83p-35"),
    ("cf-random", 4096, None): ("0x1.44ed08ba17542p-3", "0x1.3db3c0621e2c6p-35"),
}

# heavy tails, in the style of ORACLE_PINS: negative_probability(weights, shapes,
# tol) as (value, estimated_abs_error) in float hex.  |phi| decays slowly here, so
# the CF scan runs far past its first scan (the nodes a normal X needs): K = 2652 after
# a first scan of 24, 2755 nodes evaluated, and K = 6126 after 21, 6166 nodes evaluated.
# They pin how the scan continues.
HEAVY_TAIL_PINS = {
    ((2.0, 0.7, -1.3), (1.0, 1.0, 1.0), 1e-8): ("0x1.0634c08e30235p-2", "0x1.5772df3fa5cdep-28"),
    ((3.0, 1.0, -0.5, -2.0), (0.5,) * 4, 1e-6): ("0x1.8b5f7db017bf4p-2", "0x1.0c659fd3e1332p-21"),
}

# zero weights beside two of opposite sign, as (weights, shapes, tol): unit weights, whose
# answer is 1/2, and the N = 3 kernel (phi, 0, -1/phi), phi the golden ratio
ZERO_WEIGHTS = [((1.0, 0.0, -1.0), (1.0, 1.0, 1.0), 1e-10),
                ((0.5 + 0.5 * math.sqrt(5.0), 0.0, 0.5 - 0.5 * math.sqrt(5.0)), (3.0,) * 3, 1e-10)]

# the two-block points of the benchmark's oracle grid: N = 2 ... 16384, k = 1 and N/2
GRID_TWO_BLOCK = sorted({(2**e, k) for e in range(1, 15) for k in (1, 2**e // 2)})


def _binomial_tail(p: int, q: int, x: Fraction) -> float:
    """I_x(p, q) = P(Binomial(p+q-1, x) >= p), summed exactly."""
    n = p + q - 1
    return float(sum(math.comb(n, j) * x**j * (1 - x) ** (n - j) for j in range(p, n + 1)))


def _two_block_binomial_reference(n: int, k: int) -> float:
    """I_x(N(N-k), Nk) = P(Binomial(N^2 - 1, y) <= Nk - 1) at y = 1 - x, summed
    term by term at 40 digits from the kernel's exact eigenvalues a > 0 > b."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s = mpmath.sqrt(k * (n - k) * (n - 1) * (n + 1))
        a = ((n - k) + s) / (n * (n - k))
        b = (k - s) / (k * n)
        y = a / (a - b)
        trials = n * n - 1
        ratio = y / (1 - y)
        term = (1 - y) ** trials
        total = term
        for j in range(n * k - 1):
            term *= ratio * (trials - j) / (j + 1)
            total += term
        return float(total)


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

    @pytest.mark.parametrize("n", [512, 2048, 4096, 8192, 16384])
    def test_both_routes_within_their_bounds_of_binomial_sum(self, n):
        ref = _two_block_binomial_reference(n, 1)
        beta = two_block_exact(n, 1)
        cf = cf_inversion_exact(two_block_spectrum(n, 1))
        assert abs(beta.value - ref) <= beta.estimated_abs_error
        assert abs(cf.value - ref) <= cf.estimated_abs_error

    def test_approaches_limit(self):
        assert abs(two_block_exact(1024, 1).value - LIMIT) < 3e-4

    @pytest.mark.parametrize("n,k", [(2, 2), (1, 1), (4, 0), (4, 4), (4.7, 1.9), (4, 1.5),
                                     (4, True), (Fraction(9, 2), 1)])
    def test_domain_errors(self, n, k):
        with pytest.raises(ValueError):
            two_block_exact(n, k)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, None, "1e-10", True])
    def test_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            two_block_exact(8, 1, tol)

    def test_equals_core_on_the_kernel_weights(self):
        """The front end checks only (N, k) and tol, then runs the core on (a, b)."""
        rng = np.random.default_rng(5)
        for n in range(2, 4097):
            for k in {1, n - 1, int(rng.integers(1, n))}:
                a, b = two_block_spectrum(n, k).values
                assert two_block_exact(n, k) == negative_probability((a, b), (n * (n - k), n * k))


class TestCfInversion:
    def test_matches_beta_on_two_block(self):
        for n, k in sorted({(2**e, k) for e in range(1, 15) for k in (1, 2**e // 2)}):
            cf = cf_inversion_exact(two_block_spectrum(n, k))
            beta = two_block_exact(n, k)
            assert abs(cf.value - beta.value) <= cf.estimated_abs_error + beta.estimated_abs_error
            assert cf.method == "cf-inversion"
            assert cf.estimated_abs_error <= 1e-10

    @pytest.mark.parametrize("n", [4096, 8192])
    def test_large_random_kernel_near_limit(self, n):
        spec = random_spectrum(n, np.random.default_rng(n))
        res = cf_inversion_exact(spec)
        assert abs(res.value - LIMIT) <= 4.0 / n**2
        if n == 4096:
            est = estimate_global(spec, 1 << 13, 29, z=5.0)
            assert est.ci_low <= res.value <= est.ci_high

    def test_unit_shapes_match_hypoexponential_closed_form(self):
        w = (2.0, 0.7, -1.3)
        exact = sum(math.prod(wj / (wj - wi) for i, wi in enumerate(w) if i != j)
                    for j, wj in enumerate(w) if wj < 0)
        res = negative_probability(w, (1.0, 1.0, 1.0), tol=1e-8)
        assert abs(res.value - exact) <= res.estimated_abs_error <= 1e-8
        try:
            tight = negative_probability(w, (1.0, 1.0, 1.0))
        except ConvergenceError:
            return
        assert abs(tight.value - exact) <= tight.estimated_abs_error <= 1e-10

    @pytest.mark.parametrize("call", [
        lambda: cf_inversion_exact(two_block_spectrum(4, 1)),
        lambda: cf_inversion_exact(KernelSelector.random(11).build(64)),
        lambda: cf_inversion_exact(KernelSelector.random(11).build(512)),
        # K = 2698 inside a first scan of 213250 nodes, and far past first scans of 24 and 21
        lambda: cf_inversion_exact(two_block_spectrum(2, 1)),
        lambda: negative_probability((2.0, 0.7, -1.3), (1.0, 1.0, 1.0), tol=1e-8),
        lambda: negative_probability((3.0, 1.0, -0.5, -2.0), (0.5,) * 4, tol=1e-6),
        # one weight either side of the switch from the weights-major to the node-major grid
        lambda: negative_probability((1.0, 0.6, 0.3, -0.2, -0.5, -0.9, -1.1),
                                     (2.0, 3.0, 1.5, 4.0, 0.7, 2.5, 1.0)),
        lambda: negative_probability((1.0, 0.6, 0.3, 0.1, -0.2, -0.5, -0.9, -1.1),
                                     (2.0, 3.0, 1.5, 5.0, 4.0, 0.7, 2.5, 1.0)),
    ], ids=["two-block", "random", "random-512", "two-block-2-1", "heavy-three", "heavy-four",
            "seven", "eight"])
    def test_block_size_does_not_change_result(self, call, monkeypatch):
        blocked = call()
        monkeypatch.setattr(oracles, "_BLOCK_ELEMENTS", 1)  # one node a block
        assert call() == blocked

    def test_grid_layout_does_not_change_result(self, monkeypatch):
        """Below 8 weights the grid is weights-major and its sums run across the node
        axis, left to right; numpy's pairwise sum of fewer than 8 terms takes that
        order too, so forcing the node-major grid changes no bit, diagnostics and
        error messages included.  Over draws of 2 to 7 weights, shapes 0.3 to 1e5 and
        tol 1e-12 to 1e-4, and the heavy-tail pins."""
        rng = np.random.default_rng(20)
        inputs = []
        for _ in range(200):
            m = int(rng.integers(2, 8))
            w = rng.standard_normal(m)
            w[0], w[1] = abs(w[0]), -abs(w[1])
            inputs.append((w, np.exp(rng.uniform(math.log(0.3), math.log(1e5), m)),
                           float(10.0 ** rng.uniform(-12, -4))))
        inputs += [(np.array(w), np.array(s), tol) for w, s, tol in HEAVY_TAIL_PINS]

        def run(w, s, tol):
            try:
                res = oracles._cf_inversion(w, s, tol)
            except ConvergenceError as exc:
                return str(exc)
            return res.value, res.estimated_abs_error, dict(res.diagnostics)

        by_weight = [run(*args) for args in inputs]
        monkeypatch.setattr(oracles, "_NODE_MAJOR_FROM", 2)
        assert [run(*args) for args in inputs] == by_weight
        assert sum(isinstance(r, tuple) for r in by_weight) >= 150

    @pytest.mark.parametrize("weights,shapes", [((1.0, -1.0), (1e300, 1e300)),
                                                ((1.0, -0.5, 0.2), (1e200,) * 3)])
    def test_underflowing_slope_raises_without_warning(self, weights, shapes):
        """Shapes this large make z^2 underflow to 0 at the nodes: the slope is 0 there,
        and the truncation bound fails without a division warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="truncation inf"):
                negative_probability(weights, shapes)

    def test_node_cap_raises_before_evaluating(self):
        """Shapes this small make phi decay like u^(-0.03): no node up to the cap
        can bound the truncation error.  The route raises once the first scan
        (the nodes a normal X needs) falls short, before any node past it."""
        with pytest.raises(ConvergenceError, match="sigma=.*L=.*K=.*aliasing.*truncation.*roundoff"):
            negative_probability((1.0, 0.5, -1.0), (0.01, 0.01, 0.01))

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
        for tol in (0.0, -1e-9, None, "1e-10", True):
            with pytest.raises(ValueError, match="tol"):
                cf_inversion_exact(spec, tol=tol)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ConvergenceError):
            cf_inversion_exact(two_block_spectrum(4, 1), tol=1e-15)

    def test_invalid_spectrum_rejected(self):
        """validate() is the one check of the spectrum: residuals, inf values included."""
        for values in ([1.0, -0.5], [math.inf, -1.0], [1.0, -math.inf]):
            with pytest.raises(ValueError, match="trace constraints"):
                cf_inversion_exact(KernelSpectrum(2, values, [1, 1]))

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(19)
        for n in (3, 5, 9):
            res = cf_inversion_exact(random_spectrum(n, rng))
            assert 0.0 < res.value < 1.0


class TestCfScan:
    """The first scan is sized by a closed-form envelope of the truncation bound, so
    it holds K wherever the tail is not heavier than the envelope allows, and the scan
    stops in the block that holds K; ``diagnostics`` say what ran."""

    @pytest.mark.parametrize("n,k", GRID_TWO_BLOCK + [(64, 16), (128, 32)])
    def test_one_scan_on_two_block_kernels(self, n, k):
        res = cf_inversion_exact(two_block_spectrum(n, k))
        d = res.diagnostics
        assert d["K"] < d["nodes"] <= d["first_scan"]
        assert d["aliasing"] + d["truncation"] + d["roundoff"] == res.estimated_abs_error
        # sigma^2 = N sum m pi^2 = N^2 and the mean is sum m pi = 1 by the trace constraints
        assert (d["sigma"], d["mean"]) == pytest.approx((n, 1.0), rel=1e-12)

    @pytest.mark.parametrize("n", [8, 64, 512, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_scan_on_random_kernels(self, n, seed):
        d = cf_inversion_exact(random_spectrum(n, np.random.default_rng(seed))).diagnostics
        assert d["K"] < d["nodes"] <= d["first_scan"]

    @pytest.mark.parametrize("key", HEAVY_TAIL_PINS, ids=["heavy-three", "heavy-four"])
    def test_heavy_tails_take_more_rounds(self, key):
        """|phi| decays too slowly here for the envelope to pass by the node cap: the
        first scan covers the nodes a normal X needs, then the cap is probed and the
        grid scans on, block by block, to K."""
        d = negative_probability(*key).diagnostics
        assert d["first_scan"] < d["K"] < d["nodes"]

    def test_envelope_never_passes_before_k(self):
        """The envelope bounds the computed truncation bound from above, so it fails
        at every node before K, and a first scan run to its first passing node
        reaches K.  That first scan is the first node up to the cap where the
        envelope passes, else the nodes a normal X needs.  Over draws of 2 to 6
        weights, shapes 0.5 to 1e6 and tol 1e-12 to 1e-4, some of which need more
        than the nodes a normal X needs, and over N=2 k=1."""
        rng = np.random.default_rng(2024)
        inputs = []
        for _ in range(200):
            m = int(rng.integers(2, 7))
            w = rng.standard_normal(m)
            w[0], w[1] = abs(w[0]), -abs(w[1])
            inputs.append((w, np.exp(rng.uniform(math.log(0.5), math.log(1e6), m)),
                           float(10.0 ** rng.uniform(-12, -4))))
        spectrum = two_block_spectrum(2, 1)
        inputs.append((spectrum.values, spectrum.shapes, 1e-10))
        enlarged = 0
        for w, s, tol in inputs:
            try:
                d = oracles._cf_inversion(w, s, tol).diagnostics
            except ConvergenceError:  # a bound over tol, or a tail past the node cap
                continue
            step = 2.0 * math.pi / d["L"]
            top2 = float(np.max((w / d["sigma"]) ** 2))
            envelope = [oracles._envelope((j + 0.5) * step, top2) for j in range(d["K"] + 1)]
            assert min(envelope[:-1], default=math.inf) > tol / 4
            assert d["truncation"] <= envelope[-1] * (1.0 + 1e-9)
            normal = math.ceil(math.sqrt(2.0 * math.log(4.0 / tol)) / step)
            scans = np.arange(normal, oracles._MAX_NODES + 1)
            passing = (oracles._envelope((scans - 0.5) * step, top2) <= tol / 4).nonzero()[0]
            assert d["first_scan"] == (scans[passing[0]] if passing.size else normal)
            enlarged += d["nodes"] <= d["first_scan"] and d["first_scan"] > normal
        assert enlarged >= 4

    @staticmethod
    def _forced(w, s, tol, monkeypatch, elements):
        """The CF core's result, or its error message, with the scalar scan's size rule
        set to ``elements``."""
        with monkeypatch.context() as patch:
            patch.setattr(oracles, "_SCALAR_ELEMENTS", elements)
            try:
                return oracles._cf_inversion(w, s, tol)
            except ConvergenceError as exc:
                return str(exc)

    def test_scalar_scan_matches_the_grid(self, monkeypatch):
        """The same first scans forced onto either evaluator: the benchmark's two-block
        points, (64, 16), (128, 32) and draws of 2 to 7 weights of mean 0, shapes 20 to
        1e5 and tol 1e-12 to 1e-6, most of whose scans are small.  K and the first scan
        agree (K could move by a node only where a bound lies within rounding of tol/4;
        none of these does), the values lie within the smaller bound of each other, and
        the scalar scan stops at K + 1 nodes where the grid stops at the end of the
        block that holds K."""
        spectra = [two_block_spectrum(n, k) for n, k in GRID_TWO_BLOCK + [(64, 16), (128, 32)]]
        inputs = [(spectrum.values, spectrum.shapes, 1e-10) for spectrum in spectra]
        rng = np.random.default_rng(26)
        for _ in range(100):
            m = int(rng.integers(2, 8))
            s = np.exp(rng.uniform(math.log(20.0), math.log(1e5), m))
            w = rng.standard_normal(m)
            w[-1] = -(s[:-1] @ w[:-1]) / s[-1]  # mean 0, so L and the scan stay short
            inputs.append((w, s, float(10.0 ** rng.uniform(-12, -6))))
        small = raised = 0
        for w, s, tol in inputs:
            scalar = self._forced(w, s, tol, monkeypatch, 1 << 62)
            grid = self._forced(w, s, tol, monkeypatch, 0)
            if isinstance(scalar, str) or isinstance(grid, str):
                # both raise, or only the grid, whose pairwise node sum is charged more
                # depth than math.fsum's one rounding
                assert isinstance(grid, str)
                raised += 1
                continue
            ds, dg = scalar.diagnostics, grid.diagnostics
            assert ds["K"] == dg["K"] and ds["first_scan"] == dg["first_scan"]
            assert ds["nodes"] == ds["K"] + 1 and dg["K"] < dg["nodes"] <= dg["first_scan"]
            assert ds["aliasing"] == dg["aliasing"]
            assert abs(scalar.value - grid.value) <= min(scalar.estimated_abs_error,
                                                        grid.estimated_abs_error)
            small += w.size * ds["first_scan"] <= oracles._SCALAR_ELEMENTS
        assert small >= 100 and raised <= 3

    def test_scalar_scan_short_restarts_on_the_grid(self, monkeypatch):
        """A scalar scan that ends with no passing node, which only rounding can cause,
        restarts on the grid: the grid's answer, with the scalar nodes counted too."""
        spectrum = two_block_spectrum(64, 32)
        w, s = spectrum.values, spectrum.shapes
        grid = dict(self._forced(w, s, 1e-10, monkeypatch, 0).diagnostics)
        monkeypatch.setattr(oracles, "_scalar_scan", lambda *args: None)
        restarted = oracles._cf_inversion(w, s, 1e-10)
        assert restarted == self._forced(w, s, 1e-10, monkeypatch, 0)
        d = dict(restarted.diagnostics)
        assert d.pop("nodes") == grid.pop("nodes") + grid["first_scan"]
        assert d == grid

    def test_envelope_falls(self):
        u = np.geomspace(1e-3, 1e6, 400)
        for top2 in (1e-8, 0.01, 0.3, 0.5, 0.9, 1.0):
            envelope = [oracles._envelope(float(x), top2) for x in u]
            assert all(a > b for a, b in zip(envelope, envelope[1:]) if b > 0.0)


class TestCfSeries:
    """From 8 weights a term on, and where every |z_j| stays small over the first scan,
    that scan sums log phi's power series in the power sums S_p instead of the grid."""

    @pytest.mark.parametrize("n,depth", [(1, 0), (7, 6), (8, 3), (128, 18), (4096, 23)])
    def test_sum_depth(self, n, depth):
        """numpy adds fewer than 8 terms in turn, up to 128 on 8 accumulators and then in
        3 levels, and halves longer runs."""
        assert oracles._sum_depth(n) == depth

    @staticmethod
    def _both(call, monkeypatch):
        """The call's result or error message, with the series and with the grid forced."""
        def run():
            try:
                return call()
            except ConvergenceError as exc:
                return str(exc)
        series = run()
        with monkeypatch.context() as patch:
            patch.setattr(oracles, "_WEIGHTS_PER_TERM", 1 << 62)
            grid = run()
        return series, grid

    @staticmethod
    def _agree(series, grid, tol=1e-10):
        """Both raise, or both answer alike.  The two bounds differ by a few percent, so
        where tol lies between them one answers and the other raises."""
        if isinstance(series, str) or isinstance(grid, str):
            answered = grid if isinstance(series, str) else series
            assert isinstance(answered, str) or answered.estimated_abs_error > 0.9 * tol
            return 0
        ds, dg = series.diagnostics, grid.diagnostics
        assert dg["series_terms"] == 0 and dg["series"] == 0.0
        assert ds["K"] == dg["K"] and ds["first_scan"] == dg["first_scan"]
        bound = series.estimated_abs_error + grid.estimated_abs_error
        assert abs(series.value - grid.value) <= bound
        bounds = ("aliasing", "truncation", "roundoff", "series")
        assert sum(ds[key] for key in bounds) == series.estimated_abs_error
        return ds["series_terms"]

    @pytest.mark.parametrize("n", [512, 1024, 4096, 16384])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_kernels_match_the_grid(self, n, seed, monkeypatch):
        spectrum = random_spectrum(n, np.random.default_rng(seed))
        series, grid = self._both(lambda: cf_inversion_exact(spectrum), monkeypatch)
        assert self._agree(series, grid) > 0
        assert 0.0 < series.diagnostics["series"] < 1e-14

    def test_seeded_draws_match_the_grid(self, monkeypatch):
        """100 draws of 256 to 2048 weights, shapes 0.5 to 1e4 and tol 1e-13 to 1e-8:
        the same answer or the same raise, K and first scan alike, values within both bounds;
        most take the series, and some raise either way."""
        rng = np.random.default_rng(23)
        taken = raised = 0
        for _ in range(100):
            m = int(rng.integers(256, 2049))
            w = rng.standard_normal(m)
            w[0], w[1] = abs(w[0]), -abs(w[1])
            s = np.exp(rng.uniform(math.log(0.5), math.log(1e4), m))
            tol = float(10.0 ** rng.uniform(-13, -8))
            series, grid = self._both(lambda: negative_probability(w, s, tol), monkeypatch)
            taken += self._agree(series, grid, tol) > 0
            raised += isinstance(series, str) and isinstance(grid, str)
        assert taken >= 70 and raised >= 5

    def test_few_weights_a_term_keep_the_grid(self):
        """N = 64 needs over 30 terms, more than 64 / 8 weights a term allow."""
        d = cf_inversion_exact(random_spectrum(64, np.random.default_rng(0))).diagnostics
        assert d["series_terms"] == 0 and d["series"] == 0.0

    def test_sum_against_40_digits(self):
        """At N = 512, the node sum at 40 digits, at the same nodes and scaled weights,
        lies within roundoff + series of the computed value, and the truncation bound
        covers the exact |phi(u_K)| / (pi gamma(u_K))."""
        mpmath = pytest.importorskip("mpmath")
        spectrum = KernelSelector.random(11).build(512)
        res = cf_inversion_exact(spectrum)
        d = res.diagnostics
        assert d["series_terms"] > 0
        v = (spectrum.values / d["sigma"]).tolist()
        s = spectrum.shapes.tolist()
        step = 2.0 * math.pi / d["L"]
        with mpmath.workdps(40):
            total = 0
            for k in range(d["K"] + 1):
                u = mpmath.mpf((k + 0.5) * step)
                log_phi = -mpmath.fsum(sj * mpmath.log(1 - 1j * mpmath.mpf(vj) * u)
                                       for vj, sj in zip(v, s))
                total += mpmath.im(mpmath.exp(log_phi)) / (mpmath.pi * (k + 0.5))
            slope = mpmath.fsum(sj * (vj * u) ** 2 / (1 + (vj * u) ** 2) for vj, sj in zip(v, s))
            tail = mpmath.exp(mpmath.re(log_phi)) / (mpmath.pi * slope)
            assert abs(res.value - (mpmath.mpf(0.5) - total)) <= d["roundoff"] + d["series"]
            assert d["truncation"] >= tail


class TestNegativeProbability:
    @pytest.mark.parametrize("route,n,k", sorted(ORACLE_PINS, key=str))
    def test_pinned_values(self, route, n, k):
        if route == "beta":
            res = two_block_exact(n, k)
        else:
            spec = two_block_spectrum(n, k) if route == "cf" else KernelSelector.random(11).build(n)
            res = cf_inversion_exact(spec)
            if route == "cf-random":  # more than two blocks: the core itself routes to CF
                assert negative_probability(spec.values, spec.shapes) == res
        assert (res.value.hex(), res.estimated_abs_error.hex()) == ORACLE_PINS[(route, n, k)]

    @pytest.mark.parametrize("weights,shapes,tol", HEAVY_TAIL_PINS, ids=["three", "four"])
    def test_heavy_tail_pins(self, weights, shapes, tol):
        res = negative_probability(weights, shapes, tol)
        assert res.method == "cf-inversion"
        assert (res.value.hex(), res.estimated_abs_error.hex()) == HEAVY_TAIL_PINS[(weights, shapes, tol)]

    @pytest.mark.parametrize("weights,x", [((1.0, -1.0), Fraction(1, 2)),
                                           ((3.0, -1.0), Fraction(1, 4))])
    @pytest.mark.parametrize("p,q", [(1, 1), (3, 5), (40, 40), (175, 525), (250, 260), (500, 700)])
    def test_beta_route_against_binomial_sum(self, weights, x, p, q):
        """Non-kernel weights and shapes, in either order, against an exact
        integer-arithmetic reference."""
        ref = _binomial_tail(p, q, x)
        res = negative_probability(weights, (p, q))
        assert res.method == "beta-closed-form"
        assert res.value == pytest.approx(ref, abs=5e-13)
        assert negative_probability(weights[::-1], (q, p)).value == res.value

    def test_cf_route_three_blocks_non_integer_shapes(self):
        w, s = np.array([1.0, 0.4, -0.9]), np.array([1.5, 2.5, 4.0])
        res = negative_probability(w, s)
        assert res.method == "cf-inversion" and res.estimated_abs_error <= 1e-10
        trials = 1 << 20
        negatives = int(np.count_nonzero(gamma_batch(trials, s, np.random.default_rng(17)) @ w < 0))
        low, high = wilson_interval(negatives, trials, z=5.0)
        assert low <= res.value <= high

    @pytest.mark.parametrize("weights,shapes,tol", [
        ((3.0, -1.0), (3.0, 5.0), 1e-10), ((2.0, -1.0, 1.0), (1.0, 2.0, 3.0), 1e-10),
        *HEAVY_TAIL_PINS, *ZERO_WEIGHTS,
    ], ids=["beta", "cf", "heavy-three", "heavy-four", "zero-weight", "zero-kernel"])
    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_same_answer_at_every_weight_scale(self, weights, shapes, tol, k):
        """P(S < 0) does not change when w is scaled by 2^k; sigma^2 used to overflow
        or underflow, and the beta route's w+ - w- to overflow."""
        scaled = [math.ldexp(w, k) for w in weights]
        assert negative_probability(scaled, shapes, tol) == negative_probability(weights, shapes, tol)

    @pytest.mark.parametrize("weights,shapes,tol,fragment", [
        ((1.0, -1.0, 0.5), (1.0, 2.0), 1e-10, "equal length"),
        ((1.0, math.nan), (1.0, 2.0), 1e-10, "weights"),
        ((1.0, -math.inf), (1.0, 2.0), 1e-10, "weights"),
        ((1.0, -1.0), (1.0, 0.0), 1e-10, "shapes"),
        ((1.0, -1.0), (1.0, -2.0), 1e-10, "shapes"),
        ((1.0, -1.0), (math.nan, 2.0), 1e-10, "shapes"),
        ((1.0, 2.0), (1.0, 2.0), 1e-10, "each sign"),
        (((1.0, -1.0),), ((1.0, 2.0),), 1e-10, "1-D"),
        ((1.0, -1.0), (1.0, 2.0), math.nan, "tol"),
        ((1.0, -1.0), (1.0, 2.0), 0.0, "tol"),
        ((1e300, -1e-30), (1.0, 1.0), 1e-10, "underflow"),
        ((1.0, 0.0, -1.0), (1.0, 0.0, 1.0), 1e-10, "shapes"),
        ([], [], 1e-10, "not empty"),
    ], ids=["lengths", "nan-weight", "inf-weight", "zero-shape", "negative-shape", "nan-shape",
            "one-sign", "two-dimensional", "nan-tol", "zero-tol", "underflowing-weight",
            "zero-weight-zero-shape", "empty"])
    def test_invalid_inputs(self, weights, shapes, tol, fragment):
        with pytest.raises(ValueError, match=fragment):
            negative_probability(weights, shapes, tol)

    @pytest.mark.parametrize("weights,shapes,tol", ZERO_WEIGHTS, ids=["zero-weight", "zero-kernel"])
    def test_zero_weights_drop_out(self, weights, shapes, tol):
        """0 G(s) adds nothing: a zero weight and its shape leave the route and the answer
        to the other weights, here two, so the beta form answers."""
        res = negative_probability(weights, shapes, tol)
        assert res.method == "beta-closed-form"
        assert res == negative_probability(weights[::2], shapes[::2], tol)

    @pytest.mark.parametrize("tol", [4.0, 10.0, math.inf, pytest.param(10**400, id="int-1e400")])
    def test_loose_tolerance_is_met(self, tol):
        """From tol = 4 on, tol/4 >= 1 used to break the CF first-scan length.  An int
        beyond the float range counts as +inf."""
        res = negative_probability((1.0, -1.0, 0.5), (1.0, 1.0, 1.0), tol=tol)
        tight = negative_probability((1.0, -1.0, 0.5), (1.0, 1.0, 1.0))
        assert res.method == "cf-inversion" and res.estimated_abs_error <= tol
        assert abs(res.value - tight.value) <= res.estimated_abs_error + tight.estimated_abs_error

    @pytest.mark.parametrize("negative", [-1e-17, -1e-320])
    def test_beta_route_weight_below_half_an_ulp(self, negative):
        """|w-| below half an ulp of w+ rounds y = w+ / (w+ - w-) to 1, where log1p(-y)
        has no value; the answer is |w-| / (w+ + |w-|) for unit shapes."""
        res = negative_probability((1.0, negative), (1.0, 1.0))
        assert res.method == "beta-closed-form"
        assert abs(res.value - -negative / (1.0 - negative)) <= res.estimated_abs_error <= 1e-10

    @pytest.mark.parametrize("shape", [1e-3, 0.05, 0.1, 0.5, 3.0])
    @pytest.mark.parametrize("negative", [-1e-17, -5e-17, -1e-320])
    def test_beta_route_rounded_y_bound_is_honest(self, shape, negative):
        """Where y rounds to 1 the value is 0, and with a small positive shape the true
        I_x(s+, 1) = x^s+ is far from it: the bound covers it, or the call raises."""
        try:
            res = negative_probability((1.0, negative), (shape, 1.0), tol=0.5)
        except ConvergenceError:
            return
        x = -negative / (1.0 - negative)
        assert abs(res.value - x**shape) <= res.estimated_abs_error

    def test_beta_route_unreachable_tolerance_raises(self):
        """Neither the beta bound nor the CF fallback meets tol = 1e-15."""
        with pytest.raises(ConvergenceError):
            negative_probability((1.0, -1.0), (2.0, 3.0), tol=1e-15)

    @pytest.mark.parametrize("n", [8192, 16384])
    def test_beta_bound_over_tol_falls_back_to_cf(self, n):
        """At k = N-1 the beta bound exceeds 1e-10 from N = 8192 on; CF meets it."""
        res = two_block_exact(n, n - 1)
        assert res == cf_inversion_exact(two_block_spectrum(n, n - 1))
        assert res.method == "cf-inversion" and res.estimated_abs_error <= 1e-10


class TestCltQuadrature:
    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_constant_in_t(self, t):
        res = clt_probability(t, tol=2e-15)
        assert abs(res.value - LIMIT) <= res.estimated_abs_error <= 2e-15
        assert res.method == "clt-quadrature"
        assert set(res.diagnostics) == {"quadrature", "truncation", "roundoff"}
        assert math.fsum(res.diagnostics.values()) == pytest.approx(res.estimated_abs_error,
                                                                     rel=1e-15)

    def test_extreme_t(self):
        res = clt_probability(50.0)
        assert abs(res.value - LIMIT) <= res.estimated_abs_error <= 1e-9

    @pytest.mark.parametrize("t", [500.0, 1e3, 1e4, 1e6, 1e12, 1e15, 1e160, 1e300,
                                   sys.float_info.max])
    def test_large_t_within_reported_bound(self, t):
        """With sqrt(t*t + 1), t*t overflowed from t = 1.35e154 on and the value read 0.0
        with a bound of 1e-15; at t = 1e15, y*t - sqrt(t^2 + 1) kept too few digits and
        the quadrature raised.  Integrating at r = min(t, 1/t) answers at both."""
        res = clt_probability(t)
        assert abs(res.value - LIMIT) <= res.estimated_abs_error <= 1e-9

    def test_error_terms(self):
        """The quadrature term is the trapezoid theorem's 2 M(d) / (e^(2 pi d / h) - 1)
        at h = 1/2, d = 5; the nodes past |y| = 13 sum below the truncation term; and
        math.erfc is within the 12 eps the roundoff term allows it on the rule's
        arguments, against a 40-digit reference."""
        h, d = 0.5, 5.0
        bound = 2.0 * math.exp(d * d / 2) * (1 + d * math.exp(d * d / 2) / math.sqrt(2 * math.pi))
        assert oracles._CLT_QUADRATURE == pytest.approx(bound / math.expm1(2 * math.pi * d / h),
                                                        rel=1e-14)
        assert oracles._CLT_QUADRATURE < 1.5e-16
        nodes = [y for y, _ in oracles._CLT_RULE]
        assert nodes == [k * h for k in range(-26, 27)]
        tail = 2 * h * math.fsum(math.exp(-0.5 * (k * h) ** 2) / math.sqrt(2 * math.pi)
                                 for k in range(27, 100))
        assert 0.0 < tail < oracles._CLT_TRUNCATION
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for r in (0.0, 1e-300, 0.3, 0.7, 1.0):
                slope, intercept = r * math.sqrt(0.5), math.hypot(r, 1.0) * math.sqrt(0.5)
                for y in nodes:
                    x = intercept - slope * y
                    ref = mpmath.erfc(mpmath.mpf(x))
                    assert abs(math.erfc(x) - ref) <= 12 * sys.float_info.epsilon * ref, (r, y)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            clt_probability(-1.0)

    @pytest.mark.parametrize("t", [10**400, -10**400], ids=["int-1e400", "int--1e400"])
    def test_rejects_int_t_beyond_float_range(self, t):
        with pytest.raises(ValueError, match="t must be >= 0 and finite"):
            clt_probability(t)

    @pytest.mark.parametrize("t", [0.3, 2.0, 7.0, 1e6])
    def test_reciprocal_symmetry(self, t):
        """P(t) = P(1/t): both calls integrate at the same r = min(t, 1/t)."""
        res, mirror = clt_probability(t), clt_probability(1.0 / t)
        assert dataclasses.astuple(res) == dataclasses.astuple(mirror)

    def test_one_pass_over_the_float_range(self):
        """Over 0, 1 and the largest float, 1000 log-spaced t from 1e-320 to 1e308 and
        1000 uniform t in [0, 3): a bound within 2.8e-15 that holds, met at tol equal
        to the bound and raised just below it."""
        rng = np.random.default_rng(17)
        ts = [0.0, 1.0, sys.float_info.max, *np.logspace(-320, 308, 1000).tolist(),
              *rng.uniform(0.0, 3.0, 1000).tolist()]
        for t in ts:
            bound = clt_probability(t).estimated_abs_error
            res = clt_probability(t, tol=bound)
            assert abs(res.value - LIMIT) <= res.estimated_abs_error == bound <= 2.8e-15, t
            with pytest.raises(ConvergenceError, match="cannot certify"):
                clt_probability(t, tol=math.nextafter(bound, 0.0))

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ConvergenceError):
            clt_probability(1.0, tol=1e-16)


class TestFiniteDimensionRate:
    """The exact oracles approach 1 - Phi(1) at the rate edgeworth_probability gives."""

    @pytest.mark.parametrize("n", [2**e for e in range(6, 15)])
    def test_single_negative_level(self, n):
        """k = 1: the residual is O(N^-2), -0.0193 to -0.0212 times N^-2 here."""
        res = two_block_exact(n, 1)
        residual = res.value - edgeworth_probability(two_block_spectrum(n, 1))
        assert -0.022 <= residual * n**2 <= -0.019

    @pytest.mark.parametrize("n", [2**e for e in range(16, 27, 2)])
    def test_single_negative_level_past_16384(self, n):
        """k = 1 up to N = 2^26: the beta route stays within its bound of the prediction,
        whose own residual, about 0.021/N^2, the 0.03/N^2 covers."""
        res = two_block_exact(n, 1)
        assert res.method == "beta-closed-form"
        gap = abs(res.value - edgeworth_probability(two_block_spectrum(n, 1)))
        assert gap <= res.estimated_abs_error + 0.03 / n**2

    @pytest.mark.parametrize("n", [2**e for e in range(3, 15)])
    def test_balanced_blocks(self, n):
        """k = N/2: the residual is within 0.05/N^3 and the oracle's bound (at most
        0.008/N^3 measured)."""
        res = two_block_exact(n, n // 2)
        residual = res.value - edgeworth_probability(two_block_spectrum(n, n // 2))
        assert abs(residual) <= 0.05 / n**3 + res.estimated_abs_error

    @pytest.mark.parametrize("n,seed", [(1024, 3), (1024, 17), (4096, 3), (4096, 17)])
    def test_random_kernels(self, n, seed):
        """About 10^5 times sharper at N = 4096 than the 4/N^2 band of the limit; the
        residual lies inside the CF bound."""
        spectrum = random_spectrum(n, np.random.default_rng(seed))
        res = cf_inversion_exact(spectrum)
        assert abs(res.value - edgeworth_probability(spectrum)) <= res.estimated_abs_error + 1.0 / n**3


@pytest.mark.parametrize("call", [
    lambda: clt_probability(1.0, tol=math.nan),
    lambda: cf_inversion_exact(two_block_spectrum(2, 1), tol=math.nan),
    lambda: cf_inversion_exact(KernelSpectrum(2, [math.nan], [2])),
    lambda: negative_probability((1.0, -1.0), (1.0, 1.0), tol=None),
    lambda: negative_probability((1.0, -1.0), (1.0, 1.0), tol="1e-10"),
    lambda: clt_probability("1"),
    lambda: clt_probability(True),
    lambda: clt_probability(1.0, tol=None),
    lambda: edgeworth_probability(KernelSpectrum(2, [math.nan], [2])),
])
def test_nan_inputs_rejected(call):
    """NaN, and for tol and t any non-number, bools among them, raise ValueError."""
    with pytest.raises(ValueError):
        call()


class TestOracleResult:
    def test_diagnostics_are_read_only_and_outside_equality(self):
        res = cf_inversion_exact(two_block_spectrum(8, 1))
        bare = OracleResult(res.value, res.method, res.estimated_abs_error)
        assert bare.diagnostics is None and res == bare and hash(res) == hash(bare)
        with pytest.raises(TypeError):
            res.diagnostics["K"] = 0
        for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            again = clone(res)
            assert again == res and again.diagnostics == res.diagnostics
        assert dataclasses.asdict(res)["diagnostics"] == res.diagnostics
        assert json.loads(json.dumps(dataclasses.astuple(res)))[3] == res.diagnostics
        given = {"panels": 14}
        res = OracleResult(0.5, "clt-quadrature", 0.0, given)
        given["panels"] = 0
        assert res.diagnostics == {"panels": 14}

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            OracleResult(value=1.5, method="limit", estimated_abs_error=0.0)

    def test_rejects_bad_error(self):
        with pytest.raises(ValueError):
            OracleResult(value=0.5, method="limit", estimated_abs_error=-1.0)
        with pytest.raises(ValueError):
            OracleResult(value=0.5, method="limit", estimated_abs_error=math.inf)
