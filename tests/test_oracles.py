import copy
import dataclasses
import json
import math
import pickle
import sys
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
# cf_inversion_exact(KernelSelector.random(11).build(N)) ("cf-random").  They pin
# the (weights, shapes) core bit for bit; a change to either route that moves a
# value on purpose updates its pins here.
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
    ("cf", 2, 1): ("0x1.d772e8cff32ecp-4", "0x1.b7b863768e2b9p-35"),
    ("cf", 3, 1): ("0x1.27ffffff3a502p-3", "0x1.b4704dc79a448p-35"),
    ("cf", 8, 1): ("0x1.3c6335e767a32p-3", "0x1.ae6aa510c6abbp-35"),
    ("cf", 8, 4): ("0x1.40fa3788e2498p-3", "0x1.0ae84574dce91p-35"),
    ("cf", 16, 1): ("0x1.408294fc7d246p-3", "0x1.9ea0a2e879caap-35"),
    ("cf", 16, 8): ("0x1.43f40d67775eep-3", "0x1.10c06f238a434p-35"),
    ("cf", 64, 1): ("0x1.43bd758ede676p-3", "0x1.ec7924a0e4f24p-36"),
    ("cf", 64, 32): ("0x1.44dd8e0f38af4p-3", "0x1.9f77c0cfd6aa5p-35"),
    ("cf-random", 3, None): ("0x1.27fbc84d28aa8p-3", "0x1.af6847b26984bp-35"),
    ("cf-random", 7, None): ("0x1.3dc010781dbdap-3", "0x1.4105f32808e09p-35"),
    ("cf-random", 16, None): ("0x1.4287d62d3a26cp-3", "0x1.03a61beeb86a9p-35"),
    ("cf-random", 64, None): ("0x1.44b9ffe7c4a8ep-3", "0x1.5073a70355d81p-35"),
}

# heavy tails, in the style of ORACLE_PINS: negative_probability(weights, shapes,
# tol) as (value, estimated_abs_error) in float hex.  |phi| decays slowly here, so
# the CF scan runs far past its first scan (the nodes a normal X needs): 2653 nodes
# after a first scan of 24, and 6127 after 21.  They pin how the scan continues.
HEAVY_TAIL_PINS = {
    ((2.0, 0.7, -1.3), (1.0, 1.0, 1.0), 1e-8): ("0x1.0634c08e30235p-2", "0x1.5772c55a17b5bp-28"),
    ((3.0, 1.0, -0.5, -2.0), (0.5,) * 4, 1e-6): ("0x1.8b5f7db017bf4p-2", "0x1.0c659f910a82ap-21"),
}

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
        # far past the first scan: 2699 nodes after 29, 2653 after 24, 6127 after 21
        lambda: cf_inversion_exact(two_block_spectrum(2, 1)),
        lambda: negative_probability((2.0, 0.7, -1.3), (1.0, 1.0, 1.0), tol=1e-8),
        lambda: negative_probability((3.0, 1.0, -0.5, -2.0), (0.5,) * 4, tol=1e-6),
    ], ids=["two-block", "random", "two-block-2-1", "heavy-three", "heavy-four"])
    def test_block_size_does_not_change_result(self, call, monkeypatch):
        blocked = call()
        monkeypatch.setattr(oracles, "_BLOCK_ELEMENTS", 1)  # one node a block
        assert call() == blocked

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
    one scan finds K wherever the tail is not heavy; ``diagnostics`` say what ran."""

    @pytest.mark.parametrize("n,k", [p for p in GRID_TWO_BLOCK if p != (2, 1)] + [(64, 16), (128, 32)])
    def test_one_scan_on_two_block_kernels(self, n, k):
        res = cf_inversion_exact(two_block_spectrum(n, k))
        d = res.diagnostics
        assert d["rounds"] == 1 and d["K"] < d["nodes"] <= d["first_scan"]
        assert d["aliasing"] + d["truncation"] + d["roundoff"] == res.estimated_abs_error
        # sigma^2 = N sum m pi^2 = N^2 and the mean is sum m pi = 1 by the trace constraints
        assert (d["sigma"], d["mean"]) == pytest.approx((n, 1.0), rel=1e-12)

    @pytest.mark.parametrize("n", [8, 64, 512, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_scan_on_random_kernels(self, n, seed):
        d = cf_inversion_exact(random_spectrum(n, np.random.default_rng(seed))).diagnostics
        assert d["rounds"] == 1 and d["K"] < d["nodes"] <= d["first_scan"]

    @pytest.mark.parametrize("call", [
        lambda: cf_inversion_exact(two_block_spectrum(2, 1)),
        *(lambda key=key: negative_probability(*key) for key in HEAVY_TAIL_PINS),
    ], ids=["two-block-2-1", "heavy-three", "heavy-four"])
    def test_heavy_tails_take_more_rounds(self, call):
        """|phi| decays too slowly here for the envelope to size the first scan: it
        scans the nodes a normal X needs, probes the node cap, then scans on."""
        d = call().diagnostics
        assert d["rounds"] >= 3 and d["first_scan"] < d["K"] < d["nodes"]

    def test_envelope_never_passes_before_k(self):
        """The envelope bounds the computed truncation bound from above, so it fails
        at every node before K, and a first scan run to its first passing node
        reaches K.  Over draws of 2 to 6 weights, shapes 0.5 to 1e6 and tol 1e-12
        to 1e-4, some of which need more than the nodes a normal X needs."""
        rng = np.random.default_rng(2024)
        enlarged = 0
        for _ in range(200):
            m = int(rng.integers(2, 7))
            w = rng.standard_normal(m)
            w[0], w[1] = abs(w[0]), -abs(w[1])
            s = np.exp(rng.uniform(math.log(0.5), math.log(1e6), m))
            tol = float(10.0 ** rng.uniform(-12, -4))
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
            enlarged += d["rounds"] == 1 and d["first_scan"] > normal
        assert enlarged >= 3

    def test_envelope_falls(self):
        u = np.geomspace(1e-3, 1e6, 400)
        for top2 in (1e-8, 0.01, 0.3, 0.5, 0.9, 1.0):
            envelope = [oracles._envelope(float(x), top2) for x in u]
            assert all(a > b for a, b in zip(envelope, envelope[1:]) if b > 0.0)


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
        *HEAVY_TAIL_PINS,
    ], ids=["beta", "cf", "heavy-three", "heavy-four"])
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
    ], ids=["lengths", "nan-weight", "inf-weight", "zero-shape", "negative-shape", "nan-shape",
            "one-sign", "two-dimensional", "nan-tol", "zero-tol"])
    def test_invalid_inputs(self, weights, shapes, tol, fragment):
        with pytest.raises(ValueError, match=fragment):
            negative_probability(weights, shapes, tol)

    @pytest.mark.parametrize("tol", [4.0, 10.0, math.inf, pytest.param(10**400, id="int-1e400")])
    def test_loose_tolerance_is_met(self, tol):
        """From tol = 4 on, tol/4 >= 1 used to break the CF first-scan length.  An int
        beyond the float range counts as +inf."""
        res = negative_probability((1.0, -1.0, 0.5), (1.0, 1.0, 1.0), tol=tol)
        tight = negative_probability((1.0, -1.0, 0.5), (1.0, 1.0, 1.0))
        assert res.method == "cf-inversion" and res.estimated_abs_error <= tol
        assert abs(res.value - tight.value) <= res.estimated_abs_error + tight.estimated_abs_error

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


def _second_order(spectrum: KernelSpectrum) -> float:
    """1 - Phi(1) - phi(1) (g2 - g1^2) / 12, the Edgeworth series of P_N at x = -1 to
    second order, with g1 = 2 sum m pi^3 / N^2 and g2 = 6 sum m pi^4 / N^3.  The
    trace constraints make E S / sigma(S) = 1, so the skewness term, a multiple of
    He2(-1) = 0, vanishes, and the gap to the limit is O(1/N)."""
    n, pi = spectrum.dimension, spectrum.values
    m = spectrum.multiplicities.astype(float)
    g1 = 2.0 * float(m @ pi**3) / n**2
    g2 = 6.0 * float(m @ pi**4) / n**3
    return LIMIT - math.exp(-0.5) / math.sqrt(2.0 * math.pi) * (g2 - g1 * g1) / 12.0


class TestFiniteDimensionRate:
    """The exact oracles approach 1 - Phi(1) at the rate the second-order term gives."""

    @pytest.mark.parametrize("n", [2**e for e in range(6, 15)])
    def test_single_negative_level(self, n):
        """k = 1: the residual is O(N^-1.5), 0.026-0.029 times N^-1.5 here."""
        res = two_block_exact(n, 1)
        residual = res.value - _second_order(two_block_spectrum(n, 1))
        assert 0.0 < residual * n**1.5 <= 0.03

    @pytest.mark.parametrize("n", [2**e for e in range(3, 15)])
    def test_balanced_blocks(self, n):
        """k = N/2: the residual is within 0.05/N^3 and the oracle's bound."""
        res = two_block_exact(n, n // 2)
        residual = res.value - _second_order(two_block_spectrum(n, n // 2))
        assert abs(residual) <= 0.05 / n**3 + res.estimated_abs_error

    @pytest.mark.parametrize("n,seed", [(1024, 3), (1024, 17), (4096, 3), (4096, 17)])
    def test_random_kernels(self, n, seed):
        """About 10^5 times sharper at N = 4096 than the 4/N^2 band of the limit."""
        spectrum = random_spectrum(n, np.random.default_rng(seed))
        res = cf_inversion_exact(spectrum)
        assert abs(res.value - _second_order(spectrum)) <= res.estimated_abs_error + 1.0 / n**3


@pytest.mark.parametrize("call", [
    lambda: clt_probability(1.0, tol=math.nan),
    lambda: cf_inversion_exact(two_block_spectrum(2, 1), tol=math.nan),
    lambda: cf_inversion_exact(KernelSpectrum(2, [math.nan], [2])),
    lambda: negative_probability((1.0, -1.0), (1.0, 1.0), tol=None),
    lambda: negative_probability((1.0, -1.0), (1.0, 1.0), tol="1e-10"),
    lambda: clt_probability("1"),
    lambda: clt_probability(True),
    lambda: clt_probability(1.0, tol=None),
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
