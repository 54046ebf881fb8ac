"""Seeded Monte Carlo estimation of negativity probabilities.

Each estimator checks its inputs and hands one draw, ``draw(m, rng)``
returning m values whose negatives are counted, to ``_estimate``: the one
loop over chunks and worker threads, ending in the Wilson interval.

Stream discipline: trials are split into fixed chunks of 2**16 samples;
chunk i draws from the child stream ``_child_rng(seed, i)`` and the
reduction is an integer sum of per-chunk negative counts.  Counts
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
from dataclasses import asdict, dataclass

import numpy as np

from .kernels import KernelSpectrum, _integer, _real, random_spectrum, two_block_spectrum
from .sampling import gamma_batch, ginibre_batch, haar_batch, wigner_value

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

#: Sampling paths of :func:`estimate_global`; the first is the default.
METHODS = ("fast-gamma", "full-ginibre")
_SEED_MAX = 2**64 - 1  # seeds are one unsigned 64-bit word of SeedSequence entropy


class SweepError(RuntimeError):
    """A sweep point failed; the message identifies which one."""


def _child_rng(seed: int, index: int) -> np.random.Generator:
    """Child stream ``index`` of ``seed``: a chunk's draws, or a random kernel's at N=index."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _derive_seed(*entropy: int) -> int:
    """One 64-bit seed mixed from ``entropy``: a sweep point's, or a bare random kernel's."""
    return int(np.random.SeedSequence(entropy=entropy).generate_state(1, np.uint64)[0])


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
    trials = _integer(trials, "trials", 1)
    negatives = _integer(negatives, "negatives", 0, trials)
    z = _real(z, "z")
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
    sampling path (one of ``METHODS``, or ``"haar-phase-point"``).  The counts
    and the seed are stored as ints.
    """

    trials: int
    negatives: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int
    method: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", _integer(self.trials, "trials", 1))
        object.__setattr__(self, "negatives", _integer(self.negatives, "negatives", 0, self.trials))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0, _SEED_MAX))
        if self.p_hat != self.negatives / self.trials:
            raise ValueError("p_hat is not negatives/trials")
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise ValueError("interval does not bracket p_hat inside [0, 1]")


def _check_run(trials: int, seed: int, workers: int, z: float,
               method: str = METHODS[0]) -> tuple[int, int, int]:
    """``(trials, seed, workers)`` as ints; raises ValueError unless every run
    argument is usable, z as in wilson_interval and method one of ``METHODS``."""
    counts = (_integer(trials, "trials", 1), _integer(seed, "seed", 0, _SEED_MAX),
              _integer(workers, "workers", 1))
    _real(z, "z")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return counts


def _estimate(trials: int, seed: int, workers: int, z: float, method: str, row_floats: int,
              draw) -> NegativityEstimate:
    """Count the negatives of ``trials`` values of ``draw(m, rng)``, m values drawn from
    ``rng``, and wrap the count as a NegativityEstimate with its Wilson interval.

    Chunk i of ``CHUNK`` values draws from ``_child_rng(seed, i)``, in sub-batches of
    ``_BUDGET // row_floats`` values; ``row_floats`` is the float64 count of one value's
    draw.  The run arguments are already checked.
    """
    def count(chunk: tuple[int, int]) -> int:
        index, size = chunk
        rng = _child_rng(seed, index)
        rows = max(1, _BUDGET // row_floats)
        negatives = 0
        for done in range(0, size, rows):
            negatives += int(np.count_nonzero(draw(min(rows, size - done), rng) < 0.0))
        return negatives

    full, rem = divmod(trials, CHUNK)
    chunks = list(enumerate([CHUNK] * full + ([rem] if rem else [])))
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers == 1:
        negatives = sum(map(count, chunks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            negatives = sum(pool.map(count, chunks))
    low, high = wilson_interval(negatives, trials, z)
    return NegativityEstimate(trials=trials, negatives=negatives, p_hat=negatives / trials,
                              ci_low=low, ci_high=high, seed=seed, method=method)


def estimate_global(spectrum: KernelSpectrum, trials: int, seed: int,
                    method: str = METHODS[0], workers: int = 1, *,
                    z: float = 1.96) -> NegativityEstimate:
    """Estimate the probability that a random state has a negative Wigner value.

    Samples Hilbert-Schmidt-random states and counts negative Wigner values
    at the identity phase-space point; the law, and so the result, is the same
    at every point.

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

    Returns
    -------
    NegativityEstimate
    """
    spectrum.validate()
    trials, seed, workers = _check_run(trials, seed, workers, z, method)
    n, values = spectrum.dimension, spectrum.values
    if method == "fast-gamma":
        shapes, row_floats = spectrum.shapes, values.size

        def draw(m: int, rng: np.random.Generator) -> np.ndarray:
            return gamma_batch(m, shapes, rng) @ values
    else:
        # the column energies of z: N^2 work a sample, where the state z^dagger z costs N^3
        weights, row_floats = spectrum.expanded(), 2 * n * n

        def draw(m: int, rng: np.random.Generator) -> np.ndarray:
            g = ginibre_batch(m, n, rng)
            return (g.real**2 + g.imag**2).sum(axis=1) @ weights
    return _estimate(trials, seed, workers, z, method, row_floats, draw)


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

    Draws Haar-random unitaries U and counts the negative symbols
    tr(rho U P U^dagger), each stack evaluated by :func:`wigner_value`.
    ``rho`` must pass :func:`check_state` at the kernel's dimension.
    """
    spectrum.validate()
    trials, seed, workers = _check_run(trials, seed, workers, z)
    n = spectrum.dimension
    rho = check_state(rho, n)
    # the Hermitian part: rho itself when exactly Hermitian, and real symbols when only
    # Hermitian within check_state's 1e-12
    rho = (rho + rho.conj().T) / 2.0
    return _estimate(trials, seed, workers, z, "haar-phase-point", 2 * n * n,
                     lambda m, rng: wigner_value(rho, spectrum, haar_batch(m, n, rng)))


@dataclass(frozen=True)
class KernelSelector:
    """Kernel family choice applied across sweep dimensions.

    ``two_block(k)`` picks the two-eigenvalue kernel at every N > k;
    ``random(seed)`` draws one random spectrum per N, deterministically
    from the selector's own seed.  ``k`` and ``seed`` are stored as ints.
    """

    kind: str
    k: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "two-block":
            object.__setattr__(self, "k", _integer(self.k, "k", 1))
            if self.seed is not None:
                raise ValueError("two-block selector takes no seed")
        elif self.kind == "random":
            object.__setattr__(self, "seed", _integer(self.seed, "seed", 0, _SEED_MAX))
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
        return n_levels >= 2 and (self.kind == "random" or self.k <= n_levels - 1)

    def build(self, n_levels: int) -> KernelSpectrum:
        """Materialize the spectrum for one dimension."""
        if self.kind == "two-block":
            return two_block_spectrum(n_levels, self.k)
        return random_spectrum(n_levels, _child_rng(self.seed, n_levels), label=self.describe())

    def describe(self) -> str:
        if self.kind == "two-block":
            return f"two-block k={self.k}"
        return f"random s={self.seed}"


def _items(value, name: str) -> tuple:
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {value!r}") from None


@dataclass(frozen=True)
class SweepConfig:
    """Grid of (dimension, kernel) points estimated with shared settings; counts are ints."""

    dimensions: tuple[int, ...]
    kernels: tuple[KernelSelector, ...]
    trials: int
    seed: int
    workers: int = 1
    z: float = 1.96
    method: str = METHODS[0]

    def __post_init__(self) -> None:
        dimensions = tuple(_integer(n, "N", 2) for n in _items(self.dimensions, "dimensions"))
        kernels = _items(self.kernels, "kernels")
        if not all(isinstance(sel, KernelSelector) for sel in kernels):
            raise ValueError(f"kernels must be KernelSelector instances, got {kernels!r}")
        trials, seed, workers = _check_run(self.trials, self.seed, self.workers, self.z,
                                           self.method)
        for name, value in (("dimensions", dimensions), ("kernels", kernels),
                            ("trials", trials), ("seed", seed), ("workers", workers)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SweepRecord(NegativityEstimate):
    """A NegativityEstimate, fields and checks, plus its sweep point; ``wall_time_s``
    times the estimate alone, not the kernel build or an oracle value."""

    dimension: int
    kernel_label: str
    k: int | None
    wall_time_s: float

    @classmethod
    def timed(cls, spectrum: KernelSpectrum, k: int | None, run) -> "SweepRecord":
        """The record of ``run()``, an estimate for ``spectrum``, timed around that call alone."""
        start = time.perf_counter()
        est = run()
        wall_time_s = time.perf_counter() - start
        return cls(**asdict(est), dimension=spectrum.dimension, kernel_label=spectrum.label,
                   k=k, wall_time_s=wall_time_s)


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
        seed = _derive_seed(config.seed, index)
        try:
            spectrum = selector.build(n)
            records.append(SweepRecord.timed(spectrum, selector.k, lambda: estimate_global(
                spectrum, config.trials, seed, method=config.method, workers=config.workers,
                z=config.z)))
        except Exception as exc:
            raise SweepError(
                f"sweep point N={n}, kernel {selector.describe()} failed: {exc}") from exc
    return records
