import numpy as np
import pytest

import wignerlab.montecarlo as mc
from wignerlab.kernels import KernelSpectrum, spectrum_from_values, two_block_spectrum
from wignerlab.montecarlo import (
    CHUNK,
    KernelSelector,
    NegativityEstimate,
    SweepConfig,
    SweepError,
    SweepRecord,
    estimate_global,
    estimate_state,
    run_sweep,
    wilson_interval,
)
from wignerlab.oracles import cf_inversion_exact, two_block_exact
from wignerlab.sampling import wigner_value


class TestWilson:
    def test_reference_value(self):
        low, high = wilson_interval(159, 1000, 1.96)
        assert low == pytest.approx(0.1376459343738323, abs=1e-12)
        assert high == pytest.approx(0.18296401046208602, abs=1e-12)

    def test_boundary_zero(self):
        assert wilson_interval(0, 10, 1.96)[0] == 0.0

    def test_boundary_full(self):
        assert wilson_interval(10, 10, 1.96)[1] == 1.0

    def test_contains_p_hat(self):
        low, high = wilson_interval(3, 7, 2.5)
        assert low <= 3 / 7 <= high

    def test_wider_at_higher_z(self):
        narrow = wilson_interval(50, 400, 1.96)
        wide = wilson_interval(50, 400, 3.0)
        assert wide[0] < narrow[0] and narrow[1] < wide[1]

    @pytest.mark.parametrize("neg,trials,z", [(-1, 10, 2.0), (11, 10, 2.0), (0, 0, 2.0), (1, 10, 0.0),
                                              (1, 10, float("inf")), (1.5, 10, 2.0), (1, 10.5, 2.0),
                                              (True, 10, 2.0), (0, True, 2.0)])
    def test_validation(self, neg, trials, z):
        with pytest.raises(ValueError):
            wilson_interval(neg, trials, z)


class TestEstimateGlobal:
    def test_deterministic_per_seed(self):
        spec = two_block_spectrum(2, 1)
        a = estimate_global(spec, 10**5, 17)
        b = estimate_global(spec, 10**5, 17)
        assert a == b

    def test_seeds_decorrelate(self):
        spec = two_block_spectrum(2, 1)
        a = estimate_global(spec, 10**5, 17)
        b = estimate_global(spec, 10**5, 18)
        assert a.negatives != b.negatives

    def test_worker_count_does_not_change_counts(self):
        spec = two_block_spectrum(4, 1)
        serial = estimate_global(spec, 3 * 10**5, 42, workers=1)
        pooled = estimate_global(spec, 3 * 10**5, 42, workers=4)
        assert serial.negatives == pooled.negatives

    def test_worker_invariance_full_ginibre(self):
        spec = two_block_spectrum(4, 1)
        serial = estimate_global(spec, 10**5, 42, method="full-ginibre", workers=1)
        pooled = estimate_global(spec, 10**5, 42, method="full-ginibre", workers=3)
        assert serial.negatives == pooled.negatives

    def test_trials_not_multiple_of_chunk(self):
        spec = two_block_spectrum(2, 1)
        est = estimate_global(spec, CHUNK + 123, 3)
        assert est.trials == CHUNK + 123
        assert est.p_hat == est.negatives / est.trials

    @staticmethod
    def _three_block():
        """N=6 kernel with multiplicities (3, 2, 1), built like random_spectrum."""
        d = np.repeat([1.0, 0.0, -2.0], [3, 2, 1])
        d -= d.mean()
        return spectrum_from_values(1 / 6 + np.sqrt((6 - 1 / 6) / (d @ d)) * d)

    @pytest.mark.parametrize("n,k", [(3, 1), (16, 1), (16, 8), (64, 1), (64, 32),
                                     (512, 1), (512, 256), (6, None)])
    def test_block_draw_matches_oracles(self, n, k):
        """One gamma(N m_j) draw per eigenvalue block has the law of the N
        column energies: each estimate's z=5 interval holds the exact value."""
        if k is None:
            spec = self._three_block()
            assert spec.multiplicities.tolist() == [3, 2, 1]
            exact = cf_inversion_exact(spec).value
        else:
            spec = two_block_spectrum(n, k)
            exact = two_block_exact(n, k).value
        est = estimate_global(spec, 1 << 17, 1000 + n + (k or 0), z=5.0)
        assert est.ci_low <= exact <= est.ci_high

    def test_validation(self):
        spec = two_block_spectrum(2, 1)
        with pytest.raises(ValueError):
            estimate_global(spec, 0, 1)
        with pytest.raises(ValueError):
            estimate_global(spec, 10, 1, method="magic")
        with pytest.raises(ValueError):
            estimate_global(spec, 10, -1)
        with pytest.raises(ValueError):
            estimate_global(spec, 10, 1, workers=0)
        with pytest.raises(ValueError, match="z must be"):
            estimate_global(spec, 10, 1, z=float("inf"))

    def test_integral_numbers_are_counts(self):
        spec = two_block_spectrum(2, 1)
        expected = estimate_global(spec, 100000, 3)
        for trials, seed in ((1e5, 3), (100000, 3.0), (np.int64(100000), np.int64(3)),
                             (np.uint32(100000), np.uint64(3))):
            est = estimate_global(spec, trials, seed, workers=np.int64(2))
            assert est == expected
            assert type(est.trials) is int and type(est.seed) is int


class TestEstimateState:
    def test_maximally_mixed_never_negative(self):
        spec = two_block_spectrum(4, 1)
        est = estimate_state(np.eye(4) / 4, spec, 10**4, 2)
        assert est.negatives == 0
        assert est.p_hat == 0.0
        assert est.method == "haar-phase-point"

    def test_pure_state_volume_n2(self):
        # closed form (3 - sqrt(3))/6 for a basis projector at N=2
        spec = two_block_spectrum(2, 1)
        rho = np.diag([1.0, 0.0]).astype(complex)
        est = estimate_state(rho, spec, 10**5, 9, z=3.0)
        assert est.ci_low <= (3 - np.sqrt(3)) / 6 <= est.ci_high

    def test_worker_invariance(self):
        spec = two_block_spectrum(3, 1)
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        a = estimate_state(rho, spec, 7 * 10**4, 33, workers=1)
        b = estimate_state(rho, spec, 7 * 10**4, 33, workers=2)
        assert a.negatives == b.negatives

    def test_near_hermitian_state_evaluated_as_its_hermitian_part(self, monkeypatch):
        """A state Hermitian only within 1e-12 reaches wigner_value as (rho + rho^dagger)/2,
        exactly Hermitian, so its imaginary residue cannot grow with N."""
        seen = []

        def spy(rho, spectrum, unitary):
            seen.append(rho)
            return wigner_value(rho, spectrum, unitary)

        monkeypatch.setattr(mc, "wigner_value", spy)
        rho = np.eye(4, dtype=complex) / 4 + np.diag([0.1, -0.1, 0.0, 0.0])
        rho[0, 1], rho[1, 0] = 0.2 + 0.45e-12j, 0.2 + 0.45e-12j
        estimate_state(rho, two_block_spectrum(4, 1), 5000, 8)
        assert seen and all(np.array_equal(r, r.conj().T) for r in seen)
        assert np.array_equal(seen[0], (rho + rho.conj().T) / 2)

    def test_validation(self):
        spec = two_block_spectrum(2, 1)
        with pytest.raises(ValueError, match="shape"):
            estimate_state(np.eye(3) / 3, spec, 10, 1)
        with pytest.raises(ValueError, match="Hermitian"):
            estimate_state(np.array([[0.5, 1e-6], [0.0, 0.5]]), spec, 10, 1)
        with pytest.raises(ValueError, match="trace"):
            estimate_state(np.eye(2), spec, 10, 1)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            estimate_state(np.diag([1.2, -0.2]), spec, 10, 1)
        with pytest.raises(ValueError):
            estimate_state(np.eye(2) / 2, spec, 0, 1)


_NAN = float("nan")


@pytest.mark.parametrize("call,fragment", [
    (lambda: estimate_state(np.array([[_NAN, 0.0], [0.0, 0.5]]), two_block_spectrum(2, 1), 10, 1),
     "non-finite"),
    (lambda: estimate_global(KernelSpectrum(2, [_NAN], [2]), 10, 1), "trace constraints"),
    (lambda: estimate_global(two_block_spectrum(2, 1), _NAN, 1), "trials must be"),
    (lambda: KernelSelector.two_block(_NAN), "k must be"),
    (lambda: SweepConfig(dimensions=(_NAN,), kernels=(), trials=10, seed=0), "N must be"),
])
def test_nan_inputs_rejected(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


_SPEC2 = two_block_spectrum(2, 1)
_SEL1 = (KernelSelector.two_block(1),)


@pytest.mark.parametrize("call,fragment", [
    (lambda: estimate_global(_SPEC2, True, 1), "trials must be"),
    (lambda: estimate_global(_SPEC2, 10.5, 1), "trials must be"),
    (lambda: estimate_global(_SPEC2, 10, 1.5), "seed must be"),
    (lambda: estimate_global(_SPEC2, 10, 2.0**64), "seed must be"),
    (lambda: estimate_global(_SPEC2, 10, 1, workers=1.5), "workers must be"),
    (lambda: estimate_global(_SPEC2, 10, 1, method="magic"), "method must be"),
    (lambda: estimate_state(np.eye(2) / 2, _SPEC2, 10.5, 1), "trials must be"),
    (lambda: estimate_state(np.eye(2) / 2, _SPEC2, 10, "1"), "seed must be"),
    (lambda: SweepConfig(dimensions=(2.7,), kernels=_SEL1, trials=10, seed=0), "N must be"),
    (lambda: SweepConfig(dimensions=(2,), kernels=_SEL1, trials=True, seed=0), "trials must be"),
    (lambda: SweepConfig(dimensions=(2,), kernels=_SEL1, trials=10, seed=0.5), "seed must be"),
    (lambda: SweepConfig(dimensions=(2,), kernels=_SEL1, trials=10, seed=0, method="magic"),
     "method must be"),
    (lambda: KernelSelector.two_block(1.5), "k must be"),
    (lambda: KernelSelector.two_block(True), "k must be"),
    (lambda: KernelSelector.random(7.5), "seed must be"),
    (lambda: NegativityEstimate(trials=10.5, negatives=0, p_hat=0.0, ci_low=0.0, ci_high=0.5,
                                seed=0, method="fast-gamma"), "trials must be"),
    (lambda: NegativityEstimate(trials=2, negatives=True, p_hat=0.5, ci_low=0.0, ci_high=0.5,
                                seed=0, method="fast-gamma"), "negatives must be"),
])
def test_counts_must_be_integers(call, fragment):
    """Every count is an integral number in range; nothing is truncated."""
    with pytest.raises(ValueError, match=fragment):
        call()


@pytest.mark.parametrize("call,fragment", [
    (lambda: KernelSelector("random", k=1, seed=1), "random selector takes no k"),
    (lambda: SweepConfig(dimensions=(2,), kernels=("k=1",), trials=10, seed=0),
     "kernels must be KernelSelector"),
    (lambda: SweepConfig(dimensions=(2,), kernels=None, trials=10, seed=0),
     "kernels must be a sequence"),
    (lambda: SweepConfig(dimensions=2, kernels=_SEL1, trials=10, seed=0),
     "dimensions must be a sequence"),
    (lambda: SweepRecord(trials=10, negatives=5, p_hat=0.4, ci_low=0.2, ci_high=0.8, seed=0,
                         method="fast-gamma", dimension=2, kernel_label="two-block k=1", k=1,
                         wall_time_s=0.0), "p_hat is not negatives/trials"),
    (lambda: estimate_global(_SPEC2, 10, 1, z="3"), "z must be"),
    (lambda: estimate_global(_SPEC2, 10, 1, z=True), "z must be"),
    (lambda: estimate_state(np.eye(2) / 2, _SPEC2, 10, 1, z=None), "z must be"),
    (lambda: SweepConfig(dimensions=(2,), kernels=_SEL1, trials=10, seed=0, z=None), "z must be"),
    (lambda: wilson_interval(1, 10, "2"), "z must be"),
], ids=["random-with-k", "kernel-token", "no-kernels", "one-dimension", "record-p-hat",
        "z-string", "z-bool", "state-z-none", "config-z-none", "wilson-z-string"])
def test_run_inputs_rejected(call, fragment):
    """Unusable run inputs raise ValueError when they are built, before any sampling."""
    with pytest.raises(ValueError, match=fragment):
        call()


_RHO3 = np.array([[0.5, 0.1, 0.0], [0.1, 0.3, 0.0], [0.0, 0.0, 0.2]], dtype=complex)


def _negatives(path, trials, seed, workers=1):
    """Negative count of one sampling path for the N=3, k=1 kernel; the
    "random-kernel" path is fast-gamma on the N=5 kernel of random seed 7."""
    spec = KernelSelector.random(7).build(5) if path == "random-kernel" else two_block_spectrum(3, 1)
    if path == "state":
        return estimate_state(_RHO3, spec, trials, seed, workers=workers).negatives
    method = "full-ginibre" if path == "full-ginibre" else "fast-gamma"
    return estimate_global(spec, trials, seed, method, workers).negatives


class TestChunkLoop:
    @pytest.mark.parametrize("path", ["fast-gamma", "random-kernel", "full-ginibre", "state"])
    def test_sub_batch_size_is_invisible(self, path, monkeypatch):
        """Chunks may draw in pieces for memory; the counts must not
        depend on the piece size."""
        trials = 2 * CHUNK + 1000
        base = _negatives(path, trials, 31)
        monkeypatch.setattr(mc, "_BUDGET", 1000)
        assert _negatives(path, trials, 31) == base

    @pytest.mark.parametrize("path,seed,expected", [
        ("fast-gamma", 101, 9538),
        ("random-kernel", 105, 9793),
        ("full-ginibre", 102, 9714),
        ("state", 104, 1099),
    ])
    def test_same_seed_counts_pinned(self, path, seed, expected):
        # a change that alters a random stream on purpose updates its value
        # here and records the change in CHANGES.md
        assert [_negatives(path, CHUNK + 1000, seed, w) for w in (1, 2)] == [expected] * 2

    def test_pool_capped_at_cpu_and_chunk_count(self, monkeypatch):
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", FakePool)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)
        spec = two_block_spectrum(2, 1)
        serial = estimate_global(spec, 5 * CHUNK, 7).negatives
        assert estimate_global(spec, 5 * CHUNK, 7, workers=10**4).negatives == serial
        assert estimate_global(spec, 2 * CHUNK, 7, workers=10**4).negatives > 0
        assert started == [3, 2]
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
        assert estimate_global(spec, 5 * CHUNK, 7, workers=10**4).negatives == serial
        assert started == [3, 2]


class TestNegativityEstimate:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            NegativityEstimate(trials=10, negatives=11, p_hat=1.1,
                               ci_low=0.0, ci_high=1.0, seed=0, method="fast-gamma")
        with pytest.raises(ValueError):
            NegativityEstimate(trials=10, negatives=5, p_hat=0.4,
                               ci_low=0.2, ci_high=0.8, seed=0, method="fast-gamma")
        with pytest.raises(ValueError):
            NegativityEstimate(trials=10, negatives=5, p_hat=0.5,
                               ci_low=0.6, ci_high=0.8, seed=0, method="fast-gamma")


class TestSelectors:
    def test_two_block_selector(self):
        sel = KernelSelector.two_block(2)
        assert sel.valid_for(3)
        assert not sel.valid_for(2)
        spec = sel.build(5)
        assert spec.label == "two-block k=2"

    def test_random_selector_deterministic(self):
        sel = KernelSelector.random(77)
        a = sel.build(6)
        b = sel.build(6)
        assert a.eigenvalues == b.eigenvalues
        assert a.label == "random s=77"
        assert sel.valid_for(2) and not sel.valid_for(1)

    def test_random_selector_stream_pinned(self):
        """A random kernel's eigenvalues come from child stream N of the selector's seed."""
        values = KernelSelector.random(123).build(6).expanded()
        assert [float(v).hex() for v in values] == [
            "0x1.d235d3aaab93bp+0", "0x1.9a0ada3186982p-1", "0x1.2fb3fdda9d7b9p-1",
            "-0x1.210a910f4e916p-1", "-0x1.83c1b443fbf01p-1", "-0x1.c95e3a0e30b9dp-1"]

    def test_random_selector_varies_with_dimension(self):
        sel = KernelSelector.random(77)
        assert sel.build(4).dimension == 4
        assert sel.build(5).dimension == 5

    @pytest.mark.parametrize("selector", [
        KernelSelector.two_block(1), KernelSelector.two_block(3),
        KernelSelector.random(77), KernelSelector.random(2**64 - 1)])
    @pytest.mark.parametrize("n", [4, 5, 9])
    def test_label_is_description(self, selector, n):
        # sweep --oracle finds each record's selector by this label
        assert selector.build(n).label == selector.describe()

    def test_integral_float_k_is_the_int(self):
        sel = KernelSelector.two_block(2.0)
        assert sel == KernelSelector.two_block(2) and type(sel.k) is int
        assert sel.describe() == sel.build(5).label == "two-block k=2"
        config = SweepConfig(dimensions=(5,), kernels=(sel,), trials=10, seed=0)
        assert type(run_sweep(config)[0].k) is int
        assert KernelSelector.random(np.uint64(77)).describe() == "random s=77"

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSelector.two_block(0)
        with pytest.raises(ValueError):
            KernelSelector.random(-1)
        with pytest.raises(ValueError):
            KernelSelector(kind="mystery")
        with pytest.raises(ValueError):
            KernelSelector(kind="two-block", k=1, seed=3)


class TestSweep:
    def test_single_point(self):
        config = SweepConfig(dimensions=(2,), kernels=(KernelSelector.two_block(1),),
                             trials=10**4, seed=13)
        records = run_sweep(config)
        assert len(records) == 1
        rec = records[0]
        assert rec.dimension == 2
        assert rec.kernel_label == "two-block k=1"
        assert rec.k == 1
        assert 0.10 <= rec.p_hat <= 0.13

    def test_record_is_the_estimate_plus_its_point(self):
        config = SweepConfig(dimensions=(3,), kernels=(KernelSelector.random(9),),
                             trials=5000, seed=13, workers=2)
        (rec,) = run_sweep(config)
        spec = KernelSelector.random(9).build(3)
        assert isinstance(rec, NegativityEstimate)
        est = estimate_global(spec, 5000, rec.seed)
        assert rec == SweepRecord(**vars(est), dimension=3, kernel_label=spec.label, k=None,
                                  wall_time_s=rec.wall_time_s)

    def test_empty_dimensions(self):
        config = SweepConfig(dimensions=(), kernels=(KernelSelector.two_block(1),),
                             trials=100, seed=0)
        assert run_sweep(config) == []

    def test_invalid_combinations_skipped(self):
        config = SweepConfig(dimensions=(2, 4),
                             kernels=(KernelSelector.two_block(1), KernelSelector.two_block(3)),
                             trials=64, seed=5)
        points = [(r.dimension, r.k) for r in run_sweep(config)]
        assert points == [(2, 1), (4, 1), (4, 3)]

    def test_repeat_runs_identical_modulo_wall_time(self):
        config = SweepConfig(dimensions=(2, 3), kernels=(KernelSelector.random(9),),
                             trials=2 * 10**4, seed=55)
        strip = lambda recs: [
            (r.dimension, r.kernel_label, r.k, r.method, r.trials, r.negatives,
             r.p_hat, r.ci_low, r.ci_high, r.seed) for r in recs]
        assert strip(run_sweep(config)) == strip(run_sweep(config))

    def test_worker_invariance(self):
        kernels = (KernelSelector.two_block(1), KernelSelector.random(77))
        negatives = []
        for workers in (1, 3):
            config = SweepConfig(dimensions=(2, 4), kernels=kernels,
                                 trials=13 * 10**4, seed=55, workers=workers)
            negatives.append([r.negatives for r in run_sweep(config)])
        assert negatives[0] == negatives[1]

    def test_failing_point_identified(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("backend fell over")
        monkeypatch.setattr(mc, "estimate_global", boom)
        config = SweepConfig(dimensions=(4,), kernels=(KernelSelector.two_block(2),),
                             trials=10, seed=0)
        with pytest.raises(SweepError, match=r"N=4, kernel two-block k=2"):
            run_sweep(config)

    def test_failing_build_identified(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("no such kernel")
        monkeypatch.setattr(mc, "two_block_spectrum", boom)
        config = SweepConfig(dimensions=(4,), kernels=(KernelSelector.two_block(2),),
                             trials=10, seed=0)
        with pytest.raises(SweepError, match=r"N=4, kernel two-block k=2 failed: no such kernel"):
            run_sweep(config)

    def test_wall_time_counts_the_estimate_alone(self, monkeypatch):
        """Like the estimate and state commands, a sweep times only the
        estimate, not the kernel build before it."""
        class Clock:
            now = 0.0

            def perf_counter(self):
                return self.now

        clock = Clock()
        build, estimate = KernelSelector.build, mc.estimate_global

        def slow_build(self, n):
            clock.now += 100.0
            return build(self, n)

        def slow_estimate(*args, **kwargs):
            clock.now += 2.5
            return estimate(*args, **kwargs)

        monkeypatch.setattr(mc, "time", clock)
        monkeypatch.setattr(KernelSelector, "build", slow_build)
        monkeypatch.setattr(mc, "estimate_global", slow_estimate)
        config = SweepConfig(dimensions=(2, 3), kernels=(KernelSelector.two_block(1),),
                             trials=10, seed=0)
        assert [r.wall_time_s for r in run_sweep(config)] == [2.5, 2.5]

    def test_config_stores_ints(self):
        config = SweepConfig(dimensions=[np.int64(2), 3.0], kernels=[KernelSelector.random(5.0)],
                             trials=1e3, seed=np.uint64(7), workers=2.0)
        assert config.dimensions == (2, 3) and config.kernels == (KernelSelector.random(5),)
        assert (config.trials, config.seed, config.workers) == (1000, 7, 2)
        fields = (*config.dimensions, config.trials, config.seed, config.workers)
        assert all(type(v) is int for v in fields)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(dimensions=(1,), kernels=(KernelSelector.two_block(1),), trials=10, seed=0)
        with pytest.raises(ValueError):
            SweepConfig(dimensions=(2,), kernels=(), trials=0, seed=0)
        with pytest.raises(ValueError):
            SweepConfig(dimensions=(2,), kernels=(), trials=10, seed=0, method="magic")
        for z in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError, match="z must be"):
                SweepConfig(dimensions=(2,), kernels=(), trials=10, seed=0, z=z)
