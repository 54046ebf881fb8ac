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

A spectrum is built one way, ``KernelSpectrum(dimension, values,
multiplicities, label)``, a frozen dataclass compared by identity.
"""
from __future__ import annotations

import math
import numbers
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

_EPS = float(np.finfo(float).eps)


def _integer(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int if it is an integral number in [low, high] (``high`` None:
    unbounded), else ValueError; 4.0 passes, bools, fractions and NaN do not."""
    try:
        number = int(value)
        ok = number == value and not isinstance(value, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not (ok and low <= number and (high is None or number <= high)):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")
    return number


def _real(value, name: str, *, strict: bool = True, finite: bool = True) -> float:
    """``value`` as a float if it is a real number > 0 (``strict``, else >= 0), finite
    unless ``finite`` is False, else ValueError; bools, strings, None and NaN fail."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    try:
        number = float(value) if ok else math.nan
    except OverflowError:  # an int beyond the float range, which only an infinite tol accepts
        number = math.inf if value > 0 else -math.inf
    if not ((number > 0.0 if strict else number >= 0.0) and (number < math.inf or not finite)):
        rule = ("positive" if strict else ">= 0") + (" and finite" if finite else "")
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return number


@dataclass(frozen=True, eq=False)
class KernelSpectrum:
    """Eigenvalue spectrum of a phase-space kernel: the dimension N >= 2, the
    distinct eigenvalues `values` in strictly decreasing order, their positive
    integer `multiplicities` summing to N, and a free-text provenance `label`
    such as ``"two-block k=1"``.

    Both arrays are copied, checked and stored read-only, as float64 and int64;
    the caller's arrays stay writable.  Instances are immutable and compare and
    hash by identity; copies and pickles are rebuilt through the constructor.

    Construction only enforces this structure.  The trace constraints are
    checked by :func:`master_residuals` or :meth:`validate`, so deliberately
    invalid spectra can be built for diagnostics.
    """

    dimension: int
    values: np.ndarray
    multiplicities: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        dimension = _integer(self.dimension, "dimension", 2)
        # one fresh array each: the spectrum freezes them, so never the caller's
        values = np.array(self.values, dtype=float)
        counts = np.array(self.multiplicities)
        if values.ndim != 1 or values.shape != counts.shape or not values.size:
            raise ValueError("values and multiplicities must be 1-D arrays of equal, nonzero length")
        if counts.dtype.kind not in "iu":
            counts = counts.astype(float, copy=False)
            # NaN fails the comparison; -inf is not positive and +inf cannot sum to the dimension
            if not (np.rint(counts) == counts).all():
                raise ValueError("multiplicities must be integers")
        # NaN fails every comparison, so it fails every check it reaches
        if not counts.min() >= 1:
            raise ValueError("multiplicities must be positive")
        if not counts.sum() == dimension:
            raise ValueError("multiplicities must sum to the dimension")
        if not (values[1:] < values[:-1]).all():
            raise ValueError("eigenvalues must be strictly decreasing")
        counts = counts.astype(np.int64, copy=False)
        values.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "multiplicities", counts)

    def __reduce__(self):
        return KernelSpectrum, (self.dimension, self.values, self.multiplicities, self.label)

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
        and at least one eigenvalue is negative; NaN fails both checks.

        The residuals of a correctly built kernel grow like the rounding of
        the sums over its N eigenvalues, so the check allows at least
        eps N log2(N), which exceeds 1e-10 from N = 2**15 on.
        """
        r1, r2 = master_residuals(self)
        n = self.dimension
        # a NaN tol stays NaN: max keeps its first argument unless the second is larger
        bound = max(tol, _EPS * n * math.log2(n))
        if not (abs(r1) <= bound and abs(r2) <= bound):
            raise ValueError(
                f"trace constraints violated: residuals ({r1:.3e}, {r2:.3e}) exceed {bound:g}"
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
    return KernelSpectrum(flat.size, flat[starts], np.diff(starts, append=flat.size), label)


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
    n, k, a, b = _two_block(n_levels, k)
    return KernelSpectrum(n, (a, b), (n - k, k), f"two-block k={k}")


def _two_block(n_levels: int, k: int) -> tuple[int, int, float, float]:
    """The checked (N, k) and the eigenvalues (a, b) of :func:`two_block_spectrum`."""
    n = _integer(n_levels, "N", 2)
    k = _integer(k, "k", 1, n - 1)
    s = math.sqrt(k * (n - k) * (n - 1) * (n + 1))
    return n, k, ((n - k) + s) / (n * (n - k)), (k - s) / (k * n)


def random_spectrum(n_levels: int, rng: np.random.Generator, label: str = "random") -> KernelSpectrum:
    """Generic random kernel spectrum satisfying both trace constraints.

    Draws N standard normal deviates, centers them to zero mean, and
    rescales so the constraint surface is hit exactly:

        pi_i = 1/N + c d_i,   c = sqrt((N - 1/N) / sum d_i^2)

    with d the centered deviates.  Almost surely all N eigenvalues are
    distinct; for N=2 the two constraints pin the unique two-block
    spectrum so every seed returns it.
    """
    n = _integer(n_levels, "N", 2)
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
