"""Seeded Monte Carlo estimation of negativity probabilities.

Stream discipline: trials are split into fixed chunks of 2**16 samples;
chunk i draws from ``default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))``
and the reduction is an integer sum of per-chunk negative counts.  Counts
are therefore bit-identical for any worker count, and independent of the
internal sub-batch size because consecutive draws from one generator
concatenate exactly as a single larger draw would.

Chunks fan out over a thread pool of at most ``workers`` threads, capped at
the chunk count and the CPU count; numpy's random fills, BLAS and batched QR
release the interpreter lock.  The workers share one process, so the
sub-batch memory budget applies per worker.

Fast path: for the diagonal phase-space point the Wigner value of a
Hilbert-Schmidt sample z has the sign of sum_j p_j (z^dagger z)_jj, the
column energies of z, and each column energy is a gamma(shape N, scale 2)
deviate, so no matrix is materialized.  The m_j column energies of one
eigenvalue block sum to a single gamma(N m_j, 2) deviate, so a sample draws
one standard gamma of shape N m_j per distinct eigenvalue; the common scale 2
is a power of two and cannot change the sign.  Kernels whose eigenvalues are
all distinct, random kernels among them, draw exactly the numbers of an
N-column draw halved, so their counts do not depend on this reduction.
"""
from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .kernels import KernelSpectrum, random_spectrum, two_block_spectrum
from .sampling import gamma_batch, ginibre_batch, haar_batch

__all__ = [
    "CHUNK",
    "NegativityEstimate",
    "wilson_interval",
    "estimate_global",
    "check_state",
    "estimate_state",
    "KernelSelector",
    "SweepConfig",
    "SweepRecord",
    "SweepError",
    "run_sweep",
]

#: Samples per work unit; one derived random stream per chunk.
CHUNK = 1 << 16

# float64 scalars drawn per internal sub-batch and worker, to cap working memory.
# 1 MiB a worker: glibc keeps a freed 8 MiB sub-batch in its thread's arena, and
# whether a worker then reuses or grows that arena depends on thread timing, so
# at 1 << 20 a run's peak RSS moved by a whole sub-batch from one run to the next.
_BUDGET = 1 << 17


class SweepError(RuntimeError):
    """A sweep point failed; the message identifies which one."""


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _chunks(trials: int) -> list[tuple[int, int]]:
    full, rem = divmod(trials, CHUNK)
    sizes = [CHUNK] * full + ([rem] if rem else [])
    return list(enumerate(sizes))


def _count(seed: int, row_floats: int, values, chunk: tuple[int, int]) -> int:
    """Negative count of one chunk; ``values(m, rng)`` draws and reduces m samples."""
    index, size = chunk
    rng = _chunk_rng(seed, index)
    rows = max(1, _BUDGET // row_floats)
    negatives = 0
    for done in range(0, size, rows):
        negatives += int(np.count_nonzero(values(min(rows, size - done), rng) < 0.0))
    return negatives


def _map_reduce(count, chunks: list[tuple[int, int]], workers: int) -> int:
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers == 1:
        return sum(map(count, chunks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(count, chunks))


def wilson_interval(negatives: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Parameters
    ----------
    negatives : int
        Observed successes, 0 <= negatives <= trials.
    trials : int
        Number of Bernoulli trials, >= 1.
    z : float
        Normal quantile, positive and finite, e.g. 1.96 for 95%, 3.0 for a
        3-sigma band.

    Returns
    -------
    (low, high) : tuple of float
        Interval in [0, 1]; low is exactly 0.0 when negatives == 0 and
        high is exactly 1.0 when negatives == trials.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= negatives <= trials:
        raise ValueError(f"negatives {negatives} outside [0, {trials}]")
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError(f"z must be positive and finite, got {z!r}")
    p = negatives / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (p + zz / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials * trials))
    low = 0.0 if negatives == 0 else max(0.0, center - half)
    high = 1.0 if negatives == trials else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class NegativityEstimate:
    """A Monte Carlo negativity frequency with its Wilson interval.

    ``p_hat`` is exactly ``negatives / trials``; ``method`` names the
    sampling path (``"fast-gamma"``, ``"full-ginibre"``, or
    ``"haar-phase-point"``).
    """

    trials: int
    negatives: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int
    method: str

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.negatives <= self.trials:
            raise ValueError("negatives outside [0, trials]")
        if self.p_hat != self.negatives / self.trials:
            raise ValueError("p_hat is not negatives/trials")
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise ValueError("interval does not bracket p_hat inside [0, 1]")


def _check_run(trials: int, seed: int, workers: int, z: float) -> None:
    """Raise ValueError unless the run arguments are usable; z as in wilson_interval."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit non-negative integer, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError(f"z must be positive and finite, got {z!r}")


def _finish(trials: int, negatives: int, seed: int, method: str, z: float) -> NegativityEstimate:
    low, high = wilson_interval(negatives, trials, z)
    return NegativityEstimate(trials=trials, negatives=negatives, p_hat=negatives / trials,
                              ci_low=low, ci_high=high, seed=seed, method=method)


def estimate_global(spectrum: KernelSpectrum, trials: int, seed: int,
                    method: str = "fast-gamma", workers: int = 1, *,
                    z: float = 1.96, phase_point: np.ndarray | None = None) -> NegativityEstimate:
    """Estimate the probability that a random state has a negative Wigner value.

    Samples Hilbert-Schmidt-random states and counts negative Wigner values
    at a fixed phase-space point (the identity unless ``phase_point`` says
    otherwise; the result is point-independent either way).

    Parameters
    ----------
    spectrum : KernelSpectrum
        Kernel eigenvalues with multiplicities; validated before use.
    trials : int
        Sample count, >= 1.
    seed : int
        Master seed; fully determines the counts together with ``trials``.
    method : str
        ``"fast-gamma"`` draws one gamma(N m_j) deviate per distinct
        eigenvalue, the summed column energies of its block, so a sample
        costs B draws for B distinct eigenvalues rather than N;
        ``"full-ginibre"`` materializes z and reduces it, useful as an
        end-to-end cross-check of the fast path.
    workers : int
        Thread count for chunk fan-out, capped at the chunk count and the
        CPU count.  Counts do not depend on it.
    z : float
        Normal quantile for the Wilson interval.
    phase_point : ndarray, optional
        Unitary matrix to evaluate at instead of the identity; requires
        ``method="full-ginibre"``.

    Returns
    -------
    NegativityEstimate
    """
    spectrum.validate()
    _check_run(trials, seed, workers, z)
    if method not in ("fast-gamma", "full-ginibre"):
        raise ValueError(f"unknown method {method!r}")
    n = spectrum.dimension
    point = None
    if phase_point is not None:
        if method != "full-ginibre":
            raise ValueError("a custom phase-space point requires method='full-ginibre'")
        point = np.ascontiguousarray(phase_point, dtype=complex)
        if point.shape != (n, n):
            raise ValueError(f"phase point shape {point.shape} does not match N={n}")
        if not np.abs(point.conj().T @ point - np.eye(n)).max() <= 1e-10:
            raise ValueError("phase point is not unitary within 1e-10")

    values, shapes = spectrum.values, spectrum.shapes

    def fast_gamma(m: int, rng: np.random.Generator) -> np.ndarray:
        return gamma_batch(m, shapes, rng) @ values

    def full_ginibre(m: int, rng: np.random.Generator) -> np.ndarray:
        z = ginibre_batch(m, n, rng)
        if point is not None:
            z = z @ point
        return (z.real**2 + z.imag**2).sum(axis=1) @ weights

    if method == "fast-gamma":
        count = partial(_count, seed, values.size, fast_gamma)
    else:
        weights = spectrum.expanded()  # only this path reduces over all N eigenvalues
        count = partial(_count, seed, 2 * n * n, full_ginibre)
    negatives = _map_reduce(count, _chunks(trials), workers)
    return _finish(trials, negatives, seed, method, z)


def check_state(rho: np.ndarray, n: int) -> np.ndarray:
    """Return ``rho`` as a complex array if it is an N-level density matrix.

    Raises ValueError unless ``rho`` is N x N with finite entries, Hermitian
    within 1e-12, of unit trace within 1e-12, and positive semidefinite
    (smallest eigenvalue >= -1e-10).  Each check fails on NaN.
    """
    rho = np.ascontiguousarray(rho, dtype=complex)
    if rho.shape != (n, n):
        raise ValueError(f"state shape {rho.shape} does not match N={n}")
    if not np.isfinite(rho).all():
        raise ValueError("state has a non-finite entry")
    if not np.abs(rho - rho.conj().T).max() <= 1e-12:
        raise ValueError("state is not Hermitian within 1e-12")
    if not abs(complex(np.trace(rho)) - 1.0) <= 1e-12:
        raise ValueError("state trace differs from 1 by more than 1e-12")
    smallest = float(np.linalg.eigvalsh(rho).min())
    if not smallest >= -1e-10:
        raise ValueError(f"state has a negative eigenvalue {smallest:.3e}")
    return rho


def estimate_state(rho: np.ndarray, spectrum: KernelSpectrum, trials: int, seed: int,
                   workers: int = 1, *, z: float = 1.96) -> NegativityEstimate:
    """Estimate the phase-space volume fraction where a state's Wigner value is negative.

    Draws Haar-random unitaries U and counts tr(rho U P U^dagger) < 0.
    ``rho`` must pass :func:`check_state` at the kernel's dimension.
    """
    spectrum.validate()
    _check_run(trials, seed, workers, z)
    n = spectrum.dimension
    rho = check_state(rho, n)
    weights = spectrum.expanded()

    def haar_point(m: int, rng: np.random.Generator) -> np.ndarray:
        u = haar_batch(m, n, rng)
        # diagonal of U^dagger rho U, batched, dotted with the eigenvalues
        return ((u.conj() * (rho @ u)).sum(axis=1) @ weights).real

    negatives = _map_reduce(partial(_count, seed, 2 * n * n, haar_point), _chunks(trials), workers)
    return _finish(trials, negatives, seed, "haar-phase-point", z)


@dataclass(frozen=True)
class KernelSelector:
    """Kernel family choice applied across sweep dimensions.

    ``two_block(k)`` picks the two-eigenvalue kernel at every N > k;
    ``random(seed)`` draws one random spectrum per N, deterministically
    from the selector's own seed.
    """

    kind: str
    k: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "two-block":
            if self.k is None or self.k < 1:
                raise ValueError("two-block selector needs k >= 1")
            if self.seed is not None:
                raise ValueError("two-block selector takes no seed")
        elif self.kind == "random":
            if self.seed is None or not 0 <= self.seed < 2**64:
                raise ValueError("random selector needs a 64-bit seed")
            if self.k is not None:
                raise ValueError("random selector takes no k")
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    @classmethod
    def two_block(cls, k: int) -> "KernelSelector":
        return cls(kind="two-block", k=k)

    @classmethod
    def random(cls, seed: int) -> "KernelSelector":
        return cls(kind="random", seed=seed)

    def valid_for(self, n_levels: int) -> bool:
        """Whether this family exists at dimension ``n_levels``."""
        if n_levels < 2:
            return False
        return self.kind == "random" or self.k <= n_levels - 1

    def build(self, n_levels: int) -> KernelSpectrum:
        """Materialize the spectrum for one dimension."""
        if self.kind == "two-block":
            return two_block_spectrum(n_levels, self.k)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(n_levels,)))
        return random_spectrum(n_levels, rng, label=self.describe())

    def describe(self) -> str:
        if self.kind == "two-block":
            return f"two-block k={self.k}"
        return f"random s={self.seed}"


@dataclass(frozen=True)
class SweepConfig:
    """Grid of (dimension, kernel) points estimated with shared settings."""

    dimensions: tuple[int, ...]
    kernels: tuple[KernelSelector, ...]
    trials: int
    seed: int
    workers: int = 1
    z: float = 1.96
    method: str = "fast-gamma"

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimensions", tuple(int(n) for n in self.dimensions))
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if any(n < 2 for n in self.dimensions):
            raise ValueError("every dimension must be >= 2")
        _check_run(self.trials, self.seed, self.workers, self.z)
        if self.method not in ("fast-gamma", "full-ginibre"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class SweepRecord:
    """One estimated sweep point, CSV-row shaped."""

    dimension: int
    kernel_label: str
    k: int | None
    method: str
    trials: int
    negatives: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int
    wall_time_s: float

    @classmethod
    def from_estimate(cls, spectrum: KernelSpectrum, k: int | None,
                      est: NegativityEstimate, wall_time_s: float) -> "SweepRecord":
        """The record of ``est``, an estimate for ``spectrum`` (``k`` None for random kernels)."""
        return cls(dimension=spectrum.dimension, kernel_label=spectrum.label, k=k,
                   method=est.method, trials=est.trials, negatives=est.negatives,
                   p_hat=est.p_hat, ci_low=est.ci_low, ci_high=est.ci_high, seed=est.seed,
                   wall_time_s=wall_time_s)


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Estimate every valid (dimension, kernel) point of the grid.

    Points are ordered dimension-major.  Each point gets its own seed
    derived from (config.seed, grid index), so records are bit-identical
    across runs and worker counts, wall time aside.  Grid points where the
    kernel family does not exist (two-block k > N-1) are skipped without a
    record.  A failing point aborts the sweep with the point identified.
    """
    records: list[SweepRecord] = []
    grid = [(n, sel) for n in config.dimensions for sel in config.kernels]
    for index, (n, selector) in enumerate(grid):
        if not selector.valid_for(n):
            continue
        point_seed = int(np.random.SeedSequence(
            entropy=(config.seed, index)).generate_state(1, np.uint64)[0])
        start = time.perf_counter()
        try:
            spectrum = selector.build(n)
            est = estimate_global(spectrum, config.trials, point_seed,
                                  method=config.method, workers=config.workers, z=config.z)
        except Exception as exc:
            raise SweepError(
                f"sweep point N={n}, kernel {selector.describe()} failed: {exc}") from exc
        records.append(SweepRecord.from_estimate(spectrum, selector.k, est,
                                                 time.perf_counter() - start))
    return records
