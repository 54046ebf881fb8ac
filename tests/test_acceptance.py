"""Acceptance gate: eleven pinned criteria, one printed verdict line each.

Every statistical check runs under a frozen seed, so each test is fully
deterministic; tolerances are pinned inline.  Run with ``pytest -s`` to see
the verdict lines for passing criteria too.
"""
import numpy as np

from wignerlab.kernels import master_residuals, two_block_spectrum
from wignerlab.montecarlo import (
    KernelSelector,
    SweepConfig,
    estimate_global,
    estimate_state,
    run_sweep,
    wilson_interval,
)
from wignerlab.oracles import (
    cf_inversion_exact,
    clt_probability,
    limit_quantumness,
    two_block_exact,
)
from wignerlab.sampling import ginibre_batch, haar_batch, wigner_value

LIMIT = 0.15865525393145705


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _overlap(a, b) -> bool:
    return a.ci_low <= b.ci_high and b.ci_low <= a.ci_high


def test_01_limit_value():
    value = limit_quantumness().value
    ok = abs(value - LIMIT) < 1e-12 and f"{value:.6f}" == "0.158655"
    _verdict("limit value", ok, f"value={value!r}, pinned={LIMIT!r}, tol=1e-12")


def test_02_two_block_trace_constraints():
    worst_r1 = worst_r2 = 0.0
    all_have_negative = True
    count = 0
    for n in range(2, 513):
        for k in (1, 2, 3):
            if k > n - 1:
                continue
            spec = two_block_spectrum(n, k)
            r1, r2 = master_residuals(spec)
            worst_r1 = max(worst_r1, abs(r1))
            worst_r2 = max(worst_r2, abs(r2))
            all_have_negative &= spec.values[-1] < 0
            count += 1
    ok = worst_r1 < 1e-10 and worst_r2 < 1e-9 and all_have_negative
    _verdict("two-block trace constraints", ok,
             f"{count} spectra, max|r1|={worst_r1:.2e} (<1e-10), "
             f"max|r2|={worst_r2:.2e} (<1e-9), negative eigenvalue always present: "
             f"{all_have_negative}")


def test_03_small_dimension_estimate_matches_beta_oracle():
    oracle = two_block_exact(2, 1).value
    est = estimate_global(two_block_spectrum(2, 1), 10**6, 101, z=3.0)
    ok = est.ci_low <= oracle <= est.ci_high
    _verdict("small-N oracle agreement", ok,
             f"p_hat={est.p_hat:.6f}, 3-sigma band=({est.ci_low:.6f}, {est.ci_high:.6f}), "
             f"oracle={oracle:.7f}")


def test_04_cross_oracle_agreement():
    worst = 0.0
    pairs = 0
    for n in range(2, 17):
        for k in (1, 2, 3):
            if k > n - 1:
                continue
            beta = two_block_exact(n, k).value
            cf = cf_inversion_exact(two_block_spectrum(n, k)).value
            worst = max(worst, abs(cf - beta))
            pairs += 1
    ok = worst < 1e-8
    _verdict("cross-oracle agreement", ok,
             f"{pairs} (N,k) pairs over N=2..16, max|cf - beta|={worst:.2e} (<1e-8)")


def test_05_sampling_path_equivalence():
    results = []
    for i, (n, k) in enumerate([(2, 1), (4, 1), (4, 2), (8, 1), (8, 2)]):
        spec = two_block_spectrum(n, k)
        fast = estimate_global(spec, 10**5, 200 + i, method="fast-gamma", z=3.0)
        full = estimate_global(spec, 10**5, 300 + i, method="full-ginibre", z=3.0)
        results.append(((n, k), _overlap(fast, full), fast.p_hat, full.p_hat))
    ok = all(r[1] for r in results)
    _verdict("fast-gamma vs full-ginibre equivalence", ok,
             "; ".join(f"(N={n},k={k}) overlap={o} ({pf:.4f} vs {pg:.4f})"
                       for (n, k), o, pf, pg in results))


def test_06_kernel_independence_at_n128():
    estimates = {}
    for i, k in enumerate((1, 2, 3)):
        estimates[f"k={k}"] = estimate_global(two_block_spectrum(128, k), 10**6, 401 + i).p_hat
    random_kernel = KernelSelector.random(12345).build(128)
    estimates["random"] = estimate_global(random_kernel, 10**6, 404).p_hat
    names = list(estimates)
    worst = max(abs(estimates[a] - estimates[b])
                for i, a in enumerate(names) for b in names[i + 1:])
    ok = worst < 0.005
    _verdict("kernel independence at N=128", ok,
             f"p_hat={ {n: round(v, 6) for n, v in estimates.items()} }, "
             f"max pairwise diff={worst:.6f} (<0.005)")


def test_07_oracle_convergence_to_limit():
    dims = [8, 16, 32, 64, 128, 256]
    gaps = [abs(two_block_exact(n, 1).value - LIMIT) for n in dims]
    strictly_decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    quartered = gaps[-1] < gaps[0] / 4
    ok = strictly_decreasing and quartered
    _verdict("convergence of the k=1 family", ok,
             f"d_N={[f'{g:.2e}' for g in gaps]}, strictly decreasing={strictly_decreasing}, "
             f"d_256 < d_8/4: {quartered}")


def test_08_normal_reduction_constant_in_t():
    ts = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0]
    worst = max(abs(clt_probability(t).value - LIMIT) for t in ts)
    ok = worst < 1e-7
    _verdict("constancy of the reduced probability", ok,
             f"t in {ts}, max|P(t) - limit|={worst:.2e} (<1e-7)")


def test_09_phase_space_point_independence():
    """The share of 1e5 Hilbert-Schmidt states with a negative symbol is the
    same at the identity and at a Haar-random point (overlapping 3-sigma bands)."""
    spec = two_block_spectrum(4, 1)
    u0 = haar_batch(1, 4, np.random.default_rng(7))[0]
    bands = []
    for seed, point in ((501, np.eye(4)), (502, u0)):
        z = ginibre_batch(10**5, 4, np.random.default_rng(seed))
        states = z.conj().swapaxes(-1, -2) @ z
        states /= np.trace(states, axis1=-2, axis2=-1).real[:, None, None]
        negatives = int(np.count_nonzero(wigner_value(states, spec, point) < 0))
        bands.append((negatives / 10**5, *wilson_interval(negatives, 10**5, 3.0)))
    (p_id, lo_id, hi_id), (p_u0, lo_u0, hi_u0) = bands
    ok = lo_id <= hi_u0 and lo_u0 <= hi_id
    _verdict("point independence", ok,
             f"identity p_hat={p_id:.5f} band=({lo_id:.5f}, {hi_id:.5f}); "
             f"rotated p_hat={p_u0:.5f} band=({lo_u0:.5f}, {hi_u0:.5f})")


def test_10_per_state_measure():
    spec = two_block_spectrum(2, 1)
    pure = np.diag([1.0, 0.0]).astype(complex)
    anchor = (3.0 - np.sqrt(3.0)) / 6.0
    est = estimate_state(pure, spec, 10**6, 601, z=3.0)
    pure_ok = est.ci_low <= anchor <= est.ci_high
    mixed = estimate_state(np.eye(4) / 4, two_block_spectrum(4, 1), 10**4, 5)
    mixed_ok = mixed.negatives == 0
    ok = pure_ok and mixed_ok
    _verdict("per-state measure", ok,
             f"pure basis state: p_hat={est.p_hat:.6f}, "
             f"band=({est.ci_low:.6f}, {est.ci_high:.6f}), anchor={anchor:.7f}; "
             f"maximally mixed negatives={mixed.negatives} (exact 0)")


def test_11_determinism_across_worker_counts():
    checks = {}
    spec8 = two_block_spectrum(8, 1)
    checks["fast-gamma"] = (
        estimate_global(spec8, 3 * 10**5, 901, workers=1).negatives,
        estimate_global(spec8, 3 * 10**5, 901, workers=4).negatives)
    spec42 = two_block_spectrum(4, 2)
    checks["full-ginibre"] = (
        estimate_global(spec42, 10**5, 902, method="full-ginibre", workers=1).negatives,
        estimate_global(spec42, 10**5, 902, method="full-ginibre", workers=3).negatives)
    rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    spec31 = two_block_spectrum(3, 1)
    checks["haar-phase-point"] = (
        estimate_state(rho, spec31, 10**5, 903, workers=1).negatives,
        estimate_state(rho, spec31, 10**5, 903, workers=2).negatives)
    kernels = (KernelSelector.two_block(1), KernelSelector.random(77))
    sweep_counts = []
    for workers in (1, 2):
        config = SweepConfig(dimensions=(2, 4), kernels=kernels,
                             trials=10**5, seed=904, workers=workers)
        sweep_counts.append(tuple(r.negatives for r in run_sweep(config)))
    checks["sweep"] = tuple(sweep_counts)
    ok = all(a == b for a, b in checks.values())
    _verdict("worker-count determinism", ok,
             "; ".join(f"{name}: {a} == {b}" for name, (a, b) in checks.items()))
