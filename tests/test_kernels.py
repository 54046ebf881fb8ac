import copy
import math
import pickle

import numpy as np
import pytest

from wignerlab.kernels import (
    MERGE_TOL,
    KernelSpectrum,
    master_residuals,
    moments,
    random_spectrum,
    spectrum_from_values,
    two_block_spectrum,
)

SQRT3 = math.sqrt(3.0)


class TestTwoBlock:
    def test_n2_k1_values(self):
        spec = two_block_spectrum(2, 1)
        (a, ma), (b, mb) = spec.eigenvalues
        assert a == pytest.approx((1 + SQRT3) / 2, abs=1e-14)
        assert b == pytest.approx((1 - SQRT3) / 2, abs=1e-14)
        assert (ma, mb) == (1, 1)
        assert spec.label == "two-block k=1"

    def test_k1_matches_single_defect_formula(self):
        # (N-1)-fold eigenvalue (1+sqrt(1+N))/N and one (1+(1-N)sqrt(1+N))/N
        for n in (2, 3, 5, 17, 64):
            spec = two_block_spectrum(n, 1)
            (a, ma), (b, mb) = spec.eigenvalues
            root = math.sqrt(1.0 + n)
            assert a == pytest.approx((1 + root) / n, abs=1e-13)
            assert b == pytest.approx((1 + (1 - n) * root) / n, abs=1e-13)
            assert (ma, mb) == (n - 1, 1)

    def test_n4_k1_values(self):
        spec = two_block_spectrum(4, 1)
        assert spec.values == pytest.approx([0.8090169943749474, -1.4270509831248424], abs=1e-13)
        assert list(spec.multiplicities) == [3, 1]

    def test_n4_k2_values(self):
        spec = two_block_spectrum(4, 2)
        assert spec.values == pytest.approx([1.2182458365518542, -0.7182458365518542], abs=1e-13)
        assert list(spec.multiplicities) == [2, 2]

    @pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3)
                                     for n in (2, 3, 4, 8, 64, 511, 512) if k < n])
    def test_residuals_vanish(self, k, n):
        r1, r2 = master_residuals(two_block_spectrum(n, k))
        assert abs(r1) < 1e-10
        assert abs(r2) < 1e-9

    @pytest.mark.parametrize("n,k", [(1, 1), (0, 1), (2, 2), (2, 0), (5, 5), (3, -1),
                                     (4.7, 1), (4, 1.9), (4, True), (math.nan, 1), ("4", 1)])
    def test_domain_errors(self, n, k):
        with pytest.raises(ValueError):
            two_block_spectrum(n, k)

    def test_integral_numbers_are_counts(self):
        spec = two_block_spectrum(4.0, np.int64(1))
        assert spec.eigenvalues == two_block_spectrum(4, 1).eigenvalues
        assert type(spec.dimension) is int

    def test_negative_eigenvalue_always_present(self):
        for n in (2, 7, 33, 200):
            for k in (1, 2, 3):
                if k <= n - 1:
                    assert two_block_spectrum(n, k).values[-1] < 0


class TestRandomSpectrum:
    def test_satisfies_constraints(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 16, 128):
            spec = random_spectrum(n, rng)
            r1, r2 = master_residuals(spec)
            assert abs(r1) < 1e-10
            assert abs(r2) < 1e-9 * n
            spec.validate()

    def test_deterministic_per_seed(self):
        a = random_spectrum(6, np.random.default_rng(42))
        b = random_spectrum(6, np.random.default_rng(42))
        assert a.eigenvalues == b.eigenvalues

    def test_n2_is_pinned(self):
        """At N=2 the two constraints leave no freedom, so any seed returns
        the unique two-block spectrum."""
        fixed = two_block_spectrum(2, 1)
        for seed in range(5):
            spec = random_spectrum(2, np.random.default_rng(seed))
            assert spec.expanded() == pytest.approx(fixed.expanded(), abs=1e-12)

    def test_values_distinct_and_decreasing(self):
        spec = random_spectrum(32, np.random.default_rng(3))
        v = spec.expanded()
        assert spec.dimension == 32
        assert np.all(np.diff(v) < 0)

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            random_spectrum(1, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [4.5, math.nan, "4"])
    def test_rejects_non_integral_dimension(self, n):
        with pytest.raises(ValueError, match="N must be"):
            random_spectrum(n, np.random.default_rng(0))


class TestSpectrumStructure:
    def test_multiplicity_sum_enforced(self):
        with pytest.raises(ValueError, match="sum to the dimension"):
            KernelSpectrum(3, [1.5, -0.5], [1, 1])

    def test_strictly_decreasing_enforced(self):
        with pytest.raises(ValueError, match="decreasing"):
            KernelSpectrum(2, [-0.3, 1.2], [1, 1])
        with pytest.raises(ValueError, match="decreasing"):
            KernelSpectrum(2, [0.7, 0.7], [1, 1])

    def test_positive_multiplicities(self):
        with pytest.raises(ValueError):
            KernelSpectrum(2, [1.5, -0.5], [3, -1])

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            KernelSpectrum(1, [1.0], [1])

    def test_expanded_unrolls_multiplicities(self):
        spec = two_block_spectrum(5, 2)
        v = spec.expanded()
        assert v.shape == (5,)
        assert np.all(v[:3] == spec.values[0])
        assert np.all(v[3:] == spec.values[1])

    def test_validate_needs_constraints(self):
        # structurally fine, but trace constraints fail
        bad = KernelSpectrum(2, [1.0, -0.5], [1, 1])
        with pytest.raises(ValueError, match="trace constraints"):
            bad.validate()

    def test_validate_allows_rounding_at_large_n(self):
        """The residuals of built kernels grow like eps N log2(N): 1.16e-10 for random
        kernels at 2^18 and 3.7e-9 for two-block (2^26, 2^25), over the old absolute
        1e-10.  A residual of 1e-9 at N = 8 still fails."""
        for seed in range(10):
            random_spectrum(2**18, np.random.default_rng(seed)).validate()
        two_block_spectrum(2**26, 2**25).validate()
        exact = two_block_spectrum(8, 1)
        off = KernelSpectrum(8, exact.values + (0.0, 1e-9), exact.multiplicities)
        assert abs(master_residuals(off)[0] - 1e-9) < 1e-15
        with pytest.raises(ValueError, match="trace constraints"):
            off.validate()

    def test_validate_needs_a_negative_eigenvalue(self):
        # sums to 1 and squares to N is impossible without a negative value,
        # so loosen the tolerance to isolate the sign check
        allpos = KernelSpectrum(2, [0.9, 0.1], [1, 1])
        with pytest.raises(ValueError):
            allpos.validate(tol=10.0)

    @pytest.mark.parametrize("build,fragment", [
        (lambda: KernelSpectrum(2, [math.nan, math.nan], [1, 1]), "decreasing"),
        (lambda: KernelSpectrum(2, [1.0, math.nan], [1, 1]), "decreasing"),
        (lambda: spectrum_from_values([1.0, math.nan]), "decreasing"),
        (lambda: spectrum_from_values([1.0, 1.0 - 0.5e-12, math.nan, -2.0]), "decreasing"),
        (lambda: spectrum_from_values([math.nan, math.nan, 1.0]), "decreasing"),
        (lambda: KernelSpectrum(2, [math.nan], [2]), "trace constraints"),
        (lambda: two_block_spectrum(2, 1).validate(tol=math.nan), "trace constraints"),
        (lambda: KernelSpectrum(math.nan, [1.0], [1]), "dimension must be"),
    ])
    def test_nan_fails_checks(self, build, fragment):
        with pytest.raises(ValueError, match=fragment):
            build().validate()

    @pytest.mark.parametrize("call,fragment", [
        (lambda: spectrum_from_values([1.0]), "need at least two eigenvalues"),
        (lambda: moments(KernelSpectrum(2, [-0.5, -1.5], [1, 1])), "no non-negative eigenvalue"),
    ], ids=["one-value", "no-nonnegative"])
    def test_unusable_spectra_rejected(self, call, fragment):
        with pytest.raises(ValueError, match=fragment):
            call()

    def test_from_values_merges_ties(self):
        spec = spectrum_from_values([0.5, 0.5 + 1e-14, -0.25, 1.25])
        assert list(spec.multiplicities) == [1, 2, 1]
        assert spec.dimension == 4

    def test_from_values_sorts(self):
        spec = spectrum_from_values([-1.0, 2.0, 0.5])
        assert spec.values == pytest.approx([2.0, 0.5, -1.0])

    @pytest.mark.parametrize("n,counts,fragment", [
        (2, (1.9, 1.4999), "integers"),  # truncation would give (1, 1), which sums to N
        (3, (1.25, 1.75), "integers"),  # sums to N as it stands
        (2, (math.nan, 1), "integers"),
        (2, (1, math.nan), "integers"),
        (2, (math.inf, 1), "sum to the dimension"),
        (2, (1, -math.inf), "positive"),
    ])
    def test_non_integral_multiplicities_rejected(self, n, counts, fragment):
        with pytest.raises(ValueError, match=fragment):
            KernelSpectrum(n, two_block_spectrum(2, 1).values, counts)

    def test_integral_float_dimension_accepted(self):
        spec = KernelSpectrum(4.0, [1.5, -0.5], [3, 1])
        assert spec.dimension == 4 and type(spec.dimension) is int

    def test_integral_float_multiplicities_accepted(self):
        spec = KernelSpectrum(4, [1.5, -0.5], np.array([3.0, 1.0]))
        assert spec.multiplicities.dtype == np.int64
        assert spec.eigenvalues == ((1.5, 3), (-0.5, 1))
        assert all(type(m) is int for _, m in spec.eigenvalues)

    @pytest.mark.parametrize("pairs", [
        ([1.5, -0.5], [2]),
        ([[1.5, 1.0], [-0.5, 1.0]], [[1, 0], [1, 0]]),
        ([], []),
        (1.0, 2),
        ([1.0, -1.0], [[1], [1]]),
    ])
    def test_eigenvalues_must_be_pairs(self, pairs):
        """Each eigenvalue has one multiplicity: two 1-D arrays of one nonzero length."""
        with pytest.raises(ValueError, match="1-D arrays of equal, nonzero length"):
            KernelSpectrum(2, *pairs)


def sequential_blocks(values):
    """The merge rule of spectrum_from_values as a loop over sorted values: a
    value joins the current block when it lies within MERGE_TOL of the block's
    first value, and starts a new block otherwise."""
    pairs = []
    for v in np.sort(np.asarray(values, dtype=float))[::-1].tolist():
        if pairs and pairs[-1][0] - v <= MERGE_TOL:
            pairs[-1] = (pairs[-1][0], pairs[-1][1] + 1)
        else:
            pairs.append((v, 1))
    return tuple(pairs)


class TestMergeRule:
    def test_compares_with_the_block_head_not_the_neighbour(self):
        # each neighbour is within MERGE_TOL, the third value is not within it of the first
        spec = spectrum_from_values([1.0, 1.0 - 0.6e-12, 1.0 - 1.2e-12, -5.0])
        assert spec.eigenvalues == ((1.0, 2), (0.9999999999988, 1), (-5.0, 1))

    def test_gap_of_exactly_merge_tol_merges(self):
        assert spectrum_from_values([0.0, -MERGE_TOL, -3.0]).eigenvalues == ((0.0, 2), (-3.0, 1))

    @pytest.mark.parametrize("seed", range(12))
    def test_blocks_match_the_sequential_rule(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([2, 3, 17, 256, 4096]))
        x = rng.standard_normal(n) * rng.choice([1.0, 1e-10])
        # chains of near ties whose steps straddle MERGE_TOL
        for _ in range(int(rng.integers(0, n // 2 + 1))):
            i = int(rng.integers(0, n))
            step = float(rng.choice([0.0, 0.3e-12, 0.6e-12, 1e-12, 1.1e-12, 2e-12]))
            length = min(int(rng.integers(2, 9)), n - i)
            x[i:i + length] = x[i] - step * np.arange(length)
        spec = spectrum_from_values(x, label="chains")
        assert spec.eigenvalues == sequential_blocks(x)
        assert spec.dimension == n


class TestSpectrumObject:
    def test_arrays_are_canonical_and_read_only(self):
        spec = two_block_spectrum(5, 2)
        assert spec.values.dtype == np.float64
        assert spec.multiplicities.dtype == np.int64
        assert spec.eigenvalues == ((1.0, 3), (-1.0, 2))
        with pytest.raises(ValueError):
            spec.values[0] = 0.0
        with pytest.raises(ValueError):
            spec.multiplicities[1] = 3

    @pytest.mark.parametrize("name", ["dimension", "values", "multiplicities", "label",
                                      "eigenvalues", "extra"])
    def test_attributes_cannot_be_set_or_deleted(self, name):
        spec = two_block_spectrum(5, 2)
        with pytest.raises(AttributeError):
            setattr(spec, name, 1)
        with pytest.raises(AttributeError):
            delattr(spec, name)

    def test_caller_arrays_stay_writable(self):
        values, counts = np.array([1.0, -1.0]), np.array([3, 2])
        spec = KernelSpectrum(5, values, counts)
        assert values.flags.writeable and counts.flags.writeable
        values[0] = counts[0] = 0
        assert spec.eigenvalues == ((1.0, 3), (-1.0, 2))

    def test_equality_is_identity(self):
        a = two_block_spectrum(5, 2)
        b = KernelSpectrum(5, a.values, a.multiplicities, label=a.label)
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
        assert np.array_equal(a.values, b.values) and a.label == b.label

    def test_repr_shows_the_fields(self):
        text = repr(two_block_spectrum(5, 2))
        for field in ("KernelSpectrum(dimension=5", "values=array([ 1., -1.])",
                      "multiplicities=array([3, 2])", "label='two-block k=2')"):
            assert field in text

    @pytest.mark.parametrize("clone", [
        pytest.param(copy.copy, id="copy"),
        pytest.param(copy.deepcopy, id="deepcopy"),
        *(pytest.param(lambda s, p=p: pickle.loads(pickle.dumps(s, protocol=p)), id=f"pickle{p}")
          for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    ])
    def test_copies_round_trip(self, clone):
        for spec in (two_block_spectrum(5, 2), random_spectrum(64, np.random.default_rng(2))):
            twin = clone(spec)
            assert twin is not spec and twin.dimension == spec.dimension
            assert np.array_equal(twin.values, spec.values)
            assert np.array_equal(twin.multiplicities, spec.multiplicities)
            assert twin.label == spec.label
            assert twin.values.dtype == np.float64 and twin.multiplicities.dtype == np.int64
            assert not twin.values.flags.writeable
            assert not twin.multiplicities.flags.writeable
            twin.validate()

    def test_copies_are_checked(self):
        forged = two_block_spectrum(5, 2)
        object.__setattr__(forged, "multiplicities", np.array([3, 3]))
        for clone in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
            with pytest.raises(ValueError, match="sum to the dimension"):
                clone(forged)


class TestMoments:
    def test_two_block_2_1(self):
        mom = moments(two_block_spectrum(2, 1))
        assert mom.pos_sum == pytest.approx(1.3660254037844386, abs=1e-13)
        assert mom.neg_abs_sum == pytest.approx(0.36602540378443865, abs=1e-13)
        assert mom.pos_sq_sum == pytest.approx(1.8660254037844386, abs=1e-13)
        assert mom.neg_sq_sum == pytest.approx(0.13397459621556135, abs=1e-13)
        assert mom.num_nonneg == 1
        assert mom.sigma_ratio == pytest.approx(0.2679491924311227, abs=1e-13)

    def test_sum_identities(self):
        """pos_sum - neg_abs_sum = 1 and pos_sq_sum + neg_sq_sum = N for any
        admissible spectrum."""
        rng = np.random.default_rng(8)
        for spec in (two_block_spectrum(9, 3), random_spectrum(12, rng)):
            mom = moments(spec)
            assert mom.pos_sum - mom.neg_abs_sum == pytest.approx(1.0, abs=1e-10)
            assert mom.pos_sq_sum + mom.neg_sq_sum == pytest.approx(spec.dimension, abs=1e-9)

    def test_counts_nonnegative_block(self):
        assert moments(two_block_spectrum(7, 2)).num_nonneg == 5
