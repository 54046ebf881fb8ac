#!/usr/bin/env python3
"""Negativity probability versus dimension, Monte Carlo against the oracle.

Estimates the probability that a random state has a negative quasi
probability value at a fixed phase-space point, for the k=1 two-block
kernel across a ladder of dimensions, and compares against the exact
beta-function oracle and against the O(N^-2) Edgeworth prediction from three
power sums of the spectrum.  The probability climbs toward the large-N limit
0.158655 remarkably fast.

Writes negativity_vs_dimension.png next to this script when matplotlib
is importable; otherwise just prints the table.
"""
import argparse
import pathlib

from wignerlab import (
    edgeworth_probability,
    estimate_global,
    limit_quantumness,
    two_block_exact,
    two_block_spectrum,
)


def run(trials, seed, workers):
    dims = [2, 4, 8, 16, 32, 64, 128, 256]
    rows = []
    print(f"{'N':>4s} {'p_hat':>10s} {'ci_low':>10s} {'ci_high':>10s} "
          f"{'oracle':>12s} {'predicted':>12s} {'in band':>8s}")
    for i, n in enumerate(dims):
        spectrum = two_block_spectrum(n, 1)
        est = estimate_global(spectrum, trials, seed + i, workers=workers, z=3.0)
        oracle = two_block_exact(n, 1).value
        predicted = edgeworth_probability(spectrum)
        inside = est.ci_low <= oracle <= est.ci_high
        rows.append((n, est, oracle, predicted))
        print(f"{n:>4d} {est.p_hat:>10.6f} {est.ci_low:>10.6f} {est.ci_high:>10.6f} "
              f"{oracle:>12.8f} {predicted:>12.8f} {str(inside):>8s}")
    limit = limit_quantumness().value
    print(f"\nlarge-N limit: {limit:.12f}")
    print(f"gap at N=256:  {abs(rows[-1][2] - limit):.2e}")
    return rows, limit


def plot(rows, limit):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available, skipping the figure")
        return
    dims, estimates, oracle, predicted = zip(*rows)
    p_hat = [e.p_hat for e in estimates]
    err_lo = [e.p_hat - e.ci_low for e in estimates]
    err_hi = [e.ci_high - e.p_hat for e in estimates]
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.errorbar(dims, p_hat, yerr=[err_lo, err_hi], fmt="o", capsize=3,
                label="Monte Carlo (3-sigma)")
    ax.plot(dims, oracle, "-", lw=1, label="exact oracle")
    ax.plot(dims, predicted, ":", lw=1.5, label="Edgeworth, O(N^-2)")
    ax.axhline(limit, color="gray", ls="--", lw=1, label="large-N limit")
    ax.set_xscale("log", base=2)
    ax.set_xlabel("dimension N")
    ax.set_ylabel("negativity probability")
    ax.legend()
    fig.tight_layout()
    out = pathlib.Path(__file__).with_name("negativity_vs_dimension.png")
    fig.savefig(out, dpi=130)
    print(f"wrote {out}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=40)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()
    rows, limit = run(args.trials, args.seed, args.workers)
    plot(rows, limit)


if __name__ == "__main__":
    main()
