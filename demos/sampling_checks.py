#!/usr/bin/env python3
"""Sanity checks on the random-state sampling machinery.

Three quick experiments, all statistical but run under fixed seeds:

1. Column energies of a complex Gaussian matrix follow a Gamma(N, 2)
   law, which is what lets the fast path skip building states at all.
2. The fast gamma path and the full construct-the-state path estimate
   the same negativity probability.
3. The unitaries used for per-state phase-space points are actually
   unitary, and their first-row statistics look Haar-like.
"""
import numpy as np

from wignerlab import (
    estimate_global,
    ginibre_batch,
    haar_batch,
    two_block_spectrum,
)


def energy_law_check(rng, n=6, count=200_000):
    g = ginibre_batch(count, n, rng)
    energies = (np.abs(g) ** 2).sum(axis=1)  # column energies, shape (count, n)
    mean = energies.mean()
    var = energies.var()
    print(f"  column energies at N={n}: mean={mean:.4f} (expect {2 * n}), "
          f"var={var:.4f} (expect {4 * n})")


def path_agreement(seed_fast=11, seed_full=12, trials=200_000):
    spec = two_block_spectrum(4, 1)
    fast = estimate_global(spec, trials, seed_fast, method="fast-gamma", z=3.0)
    full = estimate_global(spec, trials, seed_full, method="full-ginibre", z=3.0)
    overlap = fast.ci_low <= full.ci_high and full.ci_low <= fast.ci_high
    print(f"  fast-gamma    p_hat={fast.p_hat:.5f} band=({fast.ci_low:.5f}, {fast.ci_high:.5f})")
    print(f"  full-ginibre  p_hat={full.p_hat:.5f} band=({full.ci_low:.5f}, {full.ci_high:.5f})")
    print(f"  3-sigma bands overlap: {overlap}")


def haar_check(rng, n=8, draws=2000):
    worst = 0.0
    first_entry = np.empty(draws)
    for i in range(draws):
        u = haar_batch(1, n, rng)[0]
        worst = max(worst, np.abs(u @ u.conj().T - np.eye(n)).max())
        first_entry[i] = np.abs(u[0, 0]) ** 2
    # |u_00|^2 of a Haar unitary is Beta(1, n-1) with mean 1/n
    print(f"  {draws} draws at N={n}: max unitarity defect={worst:.2e}, "
          f"mean |u00|^2={first_entry.mean():.5f} (expect {1 / n:.5f})")


def main():
    rng = np.random.default_rng(7)
    print("1. Column-energy law")
    energy_law_check(rng)
    print()
    print("2. Fast path vs explicit-state path")
    path_agreement()
    print()
    print("3. Haar unitaries")
    haar_check(rng)


if __name__ == "__main__":
    main()
