#!/usr/bin/env python3
"""Per-state negativity: the fraction of phase space where W is negative.

Instead of fixing the point and randomizing the state, fix the state and
randomize the point.  For a qubit basis state the answer is known in
closed form, (3 - sqrt(3))/6; for the maximally mixed state it is
exactly zero since its quasiprobability is flat and positive.
"""
import numpy as np

from wignerlab import estimate_state, ginibre_batch, hs_state, two_block_spectrum


def main():
    spec = two_block_spectrum(2, 1)
    anchor = (3 - np.sqrt(3)) / 6

    basis = np.diag([1.0, 0.0]).astype(complex)
    est = estimate_state(basis, spec, 500_000, seed=3)
    print("qubit basis state:")
    print(f"  p_hat={est.p_hat:.6f} band=({est.ci_low:.6f}, {est.ci_high:.6f})")
    print(f"  closed form (3-sqrt(3))/6 = {anchor:.10f}, "
          f"inside band: {est.ci_low <= anchor <= est.ci_high}")

    print()
    mixed = estimate_state(np.eye(2) / 2, spec, 100_000, seed=4)
    print(f"maximally mixed state: negatives={mixed.negatives} "
          f"(its quasiprobability is identically 1/N, never negative)")

    print()
    print("random states, N=4 (negativity varies state by state):")
    rng = np.random.default_rng(12)
    spec4 = two_block_spectrum(4, 1)
    for i in range(4):
        rho = hs_state(ginibre_batch(1, 4, rng)[0])
        purity = float(np.trace(rho @ rho).real)
        est = estimate_state(rho, spec4, 100_000, seed=100 + i)
        print(f"  draw {i}: purity={purity:.4f}  p_hat={est.p_hat:.5f} "
              f"band=({est.ci_low:.5f}, {est.ci_high:.5f})")


if __name__ == "__main__":
    main()
