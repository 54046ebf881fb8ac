"""Spectra of phase-space kernels for N-level quantum systems.

The kernel that maps operators on C^N to Wigner-type phase-space symbols is
fixed, up to a unitary rotation, by its spectrum: N real eigenvalues
pi_1 > pi_2 > ... (listed with multiplicities) subject to the two trace
constraints

    sum_i pi_i   = 1
    sum_i pi_i^2 = N

Every admissible spectrum has at least one negative eigenvalue, since
otherwise sum pi_i^2 <= (sum pi_i)^2 = 1 < N.  The constraints leave an
(N-2)-parameter family; this module provides the two-block solutions (two
distinct eigenvalues with multiplicities N-k and k), generic random
solutions, and the derived moment quantities that control the large-N
behaviour of the negativity probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpectrum",
    "KernelMoments",
    "spectrum_from_values",
    "two_block_spectrum",
    "random_spectrum",
    "master_residuals",
    "moments",
]

# eigenvalues closer than this are merged into one multiplicity block
MERGE_TOL = 1e-12


@dataclass(frozen=True)
class KernelSpectrum:
    """Eigenvalue spectrum of a phase-space kernel.

    Parameters
    ----------
    dimension : int
        Hilbert-space dimension N, at least 2.
    eigenvalues : tuple of (value, multiplicity)
        Distinct eigenvalues in strictly decreasing order; multiplicities
        are positive and sum to `dimension`.
    label : str
        Free-text provenance tag, e.g. ``"two-block k=1"``.

    Construction only enforces the structural shape.  Whether the spectrum
    actually satisfies the trace constraints is checked by
    :func:`master_residuals` or :meth:`validate`, so deliberately invalid
    spectra can be built for diagnostics.
    """

    dimension: int
    eigenvalues: tuple[tuple[float, int], ...]
    label: str = ""

    def __post_init__(self):
        if int(self.dimension) != self.dimension or self.dimension < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.dimension}")
        pairs = tuple((float(v), int(m)) for v, m in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", pairs)
        object.__setattr__(self, "dimension", int(self.dimension))
        if not pairs:
            raise ValueError("spectrum needs at least one eigenvalue")
        if any(m < 1 for _, m in pairs):
            raise ValueError("multiplicities must be positive")
        if sum(m for _, m in pairs) != self.dimension:
            raise ValueError("multiplicities must sum to the dimension")
        vals = [v for v, _ in pairs]
        if not all(u < w for u, w in zip(vals[1:], vals)):
            raise ValueError("eigenvalues must be strictly decreasing")

    @property
    def values(self) -> np.ndarray:
        """Distinct eigenvalues, decreasing."""
        return np.array([v for v, _ in self.eigenvalues])

    @property
    def multiplicities(self) -> np.ndarray:
        return np.array([m for _, m in self.eigenvalues], dtype=np.int64)

    @property
    def shapes(self) -> np.ndarray:
        """Gamma shape N * multiplicity of each eigenvalue block, as floats.

        The weighted gamma sum over all N eigenvalues equals, in law, one
        gamma(shape, scale 2) deviate per distinct eigenvalue with these shapes.
        """
        return float(self.dimension) * self.multiplicities.astype(float)

    def expanded(self) -> np.ndarray:
        """All N eigenvalues in decreasing order, multiplicities unrolled."""
        return np.repeat(self.values, self.multiplicities)

    def validate(self, tol: float = 1e-10) -> "KernelSpectrum":
        """Raise ValueError unless both trace constraints hold within `tol`
        and at least one eigenvalue is negative; NaN fails both checks."""
        r1, r2 = master_residuals(self)
        if not (abs(r1) <= tol and abs(r2) <= tol):
            raise ValueError(
                f"trace constraints violated: residuals ({r1:.3e}, {r2:.3e}) exceed {tol:g}"
            )
        if not self.eigenvalues[-1][0] < 0:
            raise ValueError("admissible spectra must contain a negative eigenvalue")
        return self


@dataclass(frozen=True)
class KernelMoments:
    """Split moments of a kernel spectrum, grouped by eigenvalue sign.

    `sigma_ratio` is sqrt((N - pos_sq_sum)/pos_sq_sum), the ratio of the
    negative block's Gaussian scale to the positive block's in the
    central-limit regime; the limiting negativity probability is constant
    in it.
    """

    pos_sum: float
    neg_abs_sum: float
    pos_sq_sum: float
    neg_sq_sum: float
    num_nonneg: int
    sigma_ratio: float


def spectrum_from_values(values, label: str = "") -> KernelSpectrum:
    """Build a spectrum from a flat sequence of N eigenvalues.

    Values are sorted in decreasing order and near-ties (within
    ``MERGE_TOL``) are merged into multiplicity blocks.
    """
    flat = np.sort(np.asarray(values, dtype=float))[::-1]
    if flat.size < 2:
        raise ValueError("need at least two eigenvalues")
    pairs: list[tuple[float, int]] = []
    for v in flat:
        if pairs and pairs[-1][0] - v <= MERGE_TOL:
            pairs[-1] = (pairs[-1][0], pairs[-1][1] + 1)
        else:
            pairs.append((float(v), 1))
    return KernelSpectrum(flat.size, tuple(pairs), label=label)


def two_block_spectrum(n_levels: int, k: int) -> KernelSpectrum:
    """Kernel spectrum with exactly two eigenvalue blocks.

    Solves the trace constraints for a spectrum with one value of
    multiplicity N-k and one of multiplicity k, taking the branch where the
    large block is positive:

        a = [(N-k) + s] / (N (N-k)),   s = sqrt(k (N-k) (N-1) (N+1))
        b = [k - s] / (k N)

    For k=1 this is the family with isotropy group SU(N-1): an
    (N-1)-fold eigenvalue (1+sqrt(1+N))/N and a single smallest eigenvalue
    (1+(1-N) sqrt(1+N))/N.

    Parameters
    ----------
    n_levels : int
        Dimension N >= 2.
    k : int
        Multiplicity of the negative block, 1 <= k <= N-1.
    """
    n = int(n_levels)
    k = int(k)
    if n < 2:
        raise ValueError(f"N must be >= 2, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= N-1 = {n - 1}, got {k}")
    s = math.sqrt(k * (n - k) * (n - 1) * (n + 1))
    a = ((n - k) + s) / (n * (n - k))
    b = (k - s) / (k * n)
    return KernelSpectrum(n, ((a, n - k), (b, k)), label=f"two-block k={k}")


def random_spectrum(n_levels: int, rng: np.random.Generator, label: str = "random") -> KernelSpectrum:
    """Generic random kernel spectrum satisfying both trace constraints.

    Draws N standard normal deviates, centers them to zero mean, and
    rescales so the constraint surface is hit exactly:

        pi_i = 1/N + c d_i,   c = sqrt((N - 1/N) / sum d_i^2)

    with d the centered deviates.  Almost surely all N eigenvalues are
    distinct; for N=2 the two constraints pin the unique two-block
    spectrum so every seed returns it.
    """
    n = int(n_levels)
    if n < 2:
        raise ValueError(f"N must be >= 2, got {n}")
    while True:
        g = rng.standard_normal(n)
        d = g - g.mean()
        ss = float(d @ d)
        if ss > 0.0:  # zero only on a measure-zero degenerate draw
            break
    c = math.sqrt((n - 1.0 / n) / ss)
    return spectrum_from_values(1.0 / n + c * d, label=label)


def master_residuals(spectrum: KernelSpectrum) -> tuple[float, float]:
    """Residuals of the two trace constraints.

    Returns ``(sum m_i pi_i - 1, sum m_i pi_i^2 - N)``; both vanish for an
    admissible spectrum.
    """
    v = spectrum.values
    m = spectrum.multiplicities.astype(float)
    r1 = float(m @ v - 1.0)
    r2 = float(m @ (v * v) - spectrum.dimension)
    return r1, r2


def moments(spectrum: KernelSpectrum) -> KernelMoments:
    """Sign-split moments of a spectrum.

    For spectra satisfying the trace constraints, pos_sum - neg_abs_sum = 1
    and pos_sq_sum + neg_sq_sum = N.
    """
    v = spectrum.values
    m = spectrum.multiplicities.astype(float)
    nonneg = v >= 0.0
    pos_sum = float(m[nonneg] @ v[nonneg])
    neg_abs_sum = float(-(m[~nonneg] @ v[~nonneg]))
    pos_sq_sum = float(m[nonneg] @ (v[nonneg] ** 2))
    neg_sq_sum = float(m[~nonneg] @ (v[~nonneg] ** 2))
    if pos_sq_sum <= 0.0:
        raise ValueError("spectrum has no non-negative eigenvalue")
    sigma_ratio = math.sqrt(max(spectrum.dimension - pos_sq_sum, 0.0) / pos_sq_sum)
    return KernelMoments(
        pos_sum=pos_sum,
        neg_abs_sum=neg_abs_sum,
        pos_sq_sum=pos_sq_sum,
        neg_sq_sum=neg_sq_sum,
        num_nonneg=int(spectrum.multiplicities[nonneg].sum()),
        sigma_ratio=sigma_ratio,
    )
