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


class KernelSpectrum:
    """Eigenvalue spectrum of a phase-space kernel.

    Parameters
    ----------
    dimension : int
        Hilbert-space dimension N, at least 2.
    eigenvalues : sequence of (value, multiplicity)
        Distinct eigenvalues in strictly decreasing order; multiplicities
        are positive integers and sum to `dimension`.
    label : str
        Free-text provenance tag, e.g. ``"two-block k=1"``.

    The canonical form is the pair of read-only arrays `values` (float64)
    and `multiplicities` (int64), built and checked once; the pair tuple
    `eigenvalues` is derived from them on each access.  Instances are
    immutable, compare and hash by (dimension, eigenvalues, label) and
    pickle.

    Construction only enforces the structural shape.  Whether the spectrum
    actually satisfies the trace constraints is checked by
    :func:`master_residuals` or :meth:`validate`, so deliberately invalid
    spectra can be built for diagnostics.
    """

    __slots__ = ("dimension", "values", "multiplicities", "label")

    def __init__(self, dimension: int, eigenvalues, label: str = ""):
        if int(dimension) != dimension or dimension < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {dimension}")
        table = np.asarray(eigenvalues, dtype=float)
        if table.size == 0:
            raise ValueError("spectrum needs at least one eigenvalue")
        if table.ndim != 2 or table.shape[1] != 2:
            raise ValueError("eigenvalues must be (value, multiplicity) pairs")
        values, counts = table.T.copy()  # the spectrum freezes them, so never the caller's array
        # NaN fails the comparison; -inf is not positive and +inf cannot sum to the dimension
        if not (np.rint(counts) == counts).all():
            raise ValueError("multiplicities must be integers")
        self._set(int(dimension), values, counts, label)

    @classmethod
    def _from_arrays(cls, dimension: int, values: np.ndarray, multiplicities: np.ndarray,
                     label: str) -> "KernelSpectrum":
        """Build from fresh 1-D float and integer arrays, which the spectrum takes
        over and freezes."""
        spectrum = cls.__new__(cls)
        spectrum._set(dimension, values, multiplicities, label)
        return spectrum

    def _set(self, dimension: int, values: np.ndarray, multiplicities: np.ndarray,
             label: str) -> None:
        # NaN fails every comparison, so it fails every check it reaches
        if not multiplicities.min() >= 1:
            raise ValueError("multiplicities must be positive")
        if not multiplicities.sum() == dimension:
            raise ValueError("multiplicities must sum to the dimension")
        if not (values[1:] < values[:-1]).all():
            raise ValueError("eigenvalues must be strictly decreasing")
        multiplicities = multiplicities.astype(np.int64, copy=False)
        values.setflags(write=False)
        multiplicities.setflags(write=False)
        for name, value in (("dimension", dimension), ("values", values),
                            ("multiplicities", multiplicities), ("label", label)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable KernelSpectrum")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable KernelSpectrum")

    def __reduce__(self):
        return (KernelSpectrum._from_arrays,
                (self.dimension, self.values, self.multiplicities, self.label))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dimension == other.dimension and self.label == other.label
                and np.array_equal(self.values, other.values)
                and np.array_equal(self.multiplicities, other.multiplicities))

    def __hash__(self):
        return hash((self.dimension, self.eigenvalues, self.label))

    def __repr__(self):
        return (f"KernelSpectrum(dimension={self.dimension!r}, "
                f"eigenvalues={self.eigenvalues!r}, label={self.label!r})")

    @property
    def eigenvalues(self) -> tuple[tuple[float, int], ...]:
        """(value, multiplicity) pairs, decreasing in value."""
        return tuple(zip(self.values.tolist(), self.multiplicities.tolist()))

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
        if not self.values[-1] < 0:
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

    Values are sorted in decreasing order and merged into multiplicity
    blocks: a value joins the current block when it lies within
    ``MERGE_TOL`` of the block's first value, and starts a new block
    otherwise.
    """
    flat = np.sort(np.asarray(values, dtype=float))[::-1]
    if flat.size < 2:
        raise ValueError("need at least two eigenvalues")
    # a value more than MERGE_TOL below its neighbour starts a block; NaN gaps do too
    head = np.ones(flat.size, dtype=bool)
    head[1:] = ~(flat[:-1] - flat[1:] <= MERGE_TOL)
    # a near-tie joins only if it is also within MERGE_TOL of its block's first value
    first = 0
    for i in np.flatnonzero(~head).tolist():
        if head[i - 1]:
            first = i - 1
        if not flat[first] - flat[i] <= MERGE_TOL:
            head[i] = True
    starts = np.flatnonzero(head)
    return KernelSpectrum._from_arrays(flat.size, flat[starts],
                                       np.diff(starts, append=flat.size), label)


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
    return KernelSpectrum._from_arrays(n, np.array([a, b]), np.array([n - k, k], dtype=np.int64),
                                       f"two-block k={k}")


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
