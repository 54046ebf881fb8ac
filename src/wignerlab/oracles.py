"""Exact and asymptotic negativity probabilities, no sampling involved.

Every routine answers one question: with what probability is
S = sum_j w_j G(s_j) negative, the G(s_j) independent standard gammas of
shape s_j?  For a kernel the weights w_j are its distinct eigenvalues and the
shapes s_j are N times their multiplicities.  :func:`negative_probability`
takes (w, s) and routes two weights of opposite sign to a regularized
incomplete beta closed form and everything else to characteristic-function
inversion; :func:`two_block_exact` and :func:`cf_inversion_exact` are its
kernel front ends.  A quadrature for the large-N normal reduction and the
limit constant itself complete the set.

The CF inversion is Davies' half-offset trapezoid rule (Davies 1973,
Biometrika 60; Algorithm AS 155, 1980) on the unit-variance variable
X = S / sigma, so its nodes are spaced alike at every N.  Its reported error
is the sum of three explicit bounds: aliasing, from Bernstein tails of X;
truncation, from the power-law envelope of the characteristic function; and
roundoff, from the size of the phase sums.  Both exact routes agree with a
40-digit binomial-sum reference up to N = 16384 within their reported bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincc, betaln, ndtr

from .kernels import KernelSpectrum, two_block_spectrum

__all__ = [
    "OracleResult",
    "ConvergenceError",
    "limit_quantumness",
    "negative_probability",
    "two_block_exact",
    "cf_inversion_exact",
    "clt_probability",
]

#: Value of (1/2) erfc(1/sqrt(2)) = 1 - Phi(1), the infinite-dimension limit.
LIMIT_VALUE = 0.5 * math.erfc(1.0 / math.sqrt(2.0))

# absolute error bound of the beta function evaluation at its given argument
_BETA_ERROR = 5e-13

_EPS = float(np.finfo(float).eps)

# nodes x weights grid elements the CF route evaluates at once; bounds its memory
_BLOCK_ELEMENTS = 1 << 14

# trapezoid nodes past which the CF route raises instead of evaluating; the cap is
# checked, at one envelope node, only once the first scan falls short, and before
# any node past that scan is evaluated
_MAX_NODES = 1 << 18


class ConvergenceError(RuntimeError):
    """Raised when a quadrature cannot certify the requested tolerance."""


@dataclass(frozen=True)
class OracleResult:
    """An exactly computed probability with an error bound.

    Attributes
    ----------
    value : float
        The probability, in [0, 1].
    method : str
        One of ``"beta-closed-form"``, ``"cf-inversion"``,
        ``"clt-quadrature"``, ``"limit"``.
    estimated_abs_error : float
        Conservative bound on the absolute error of ``value``.
    """

    value: float
    method: str
    estimated_abs_error: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"oracle value {self.value!r} outside [0, 1]")
        if not math.isfinite(self.estimated_abs_error) or self.estimated_abs_error < 0:
            raise ValueError("estimated_abs_error must be finite and >= 0")


def limit_quantumness() -> OracleResult:
    """Negativity probability in the infinite-dimension limit.

    Returns (1/2) erfc(1/sqrt(2)) = 1 - Phi(1), with Phi the standard normal
    CDF, evaluated as 0.15865525393145707: one ulp above the correctly
    rounded 0.158655253931457051..., inside the reported 1e-16 bound.  An
    independent series evaluation cross-checks it in the test suite.
    """
    return OracleResult(value=LIMIT_VALUE, method="limit", estimated_abs_error=1e-16)


def negative_probability(weights, shapes, tol: float = 1e-10) -> OracleResult:
    """P(sum_j w_j G(s_j) < 0) for independent standard gammas G(s_j).

    Two weights w+ > 0 > w- give the regularized incomplete beta
    I_x(s+, s-) = 1 - I_y(s-, s+) at y = 1 - x = w+ / (w+ + |w-|).  Taking y
    directly keeps its relative rounding at a few ulps where x = 1 - 1/N
    would lose log2(N) bits.  The reported bound is 5e-13 for the beta
    function itself plus the conditioning term pdf(y) * 4 eps y, the Beta(s-,
    s+) density times that rounding of y; both together hold against
    40-digit binomial sums up to N = 16384.  Any other input goes to the CF
    inversion of :func:`cf_inversion_exact`.

    Parameters
    ----------
    weights : array_like
        1-D and finite, with at least one positive and one negative entry.
    shapes : array_like
        1-D, as long as ``weights``, finite and positive.
    tol : float
        Requested absolute error bound, positive.

    Raises
    ------
    ValueError
        If an input breaks these rules; NaN breaks every one.
    ConvergenceError
        If the route's error bound exceeds ``tol``.
    """
    w, s = _checked(weights, shapes, tol)
    if w.size > 2:
        return _cf_inversion(w, s, tol)
    if w[0] < 0.0:
        w, s = w[::-1], s[::-1]
    y = float(w[0] / (w[0] - w[1]))
    log_pdf = (s[1] - 1.0) * math.log(y) + (s[0] - 1.0) * math.log1p(-y) - betaln(s[1], s[0])
    bound = _BETA_ERROR + float(np.exp(log_pdf)) * 4.0 * _EPS * y
    if not bound <= tol:
        raise ConvergenceError(f"beta closed form error bound {bound:.3e} exceeds tol {tol:.3e}")
    value = float(betaincc(s[1], s[0], y))
    return OracleResult(value=value, method="beta-closed-form", estimated_abs_error=bound)


def _checked(weights, shapes, tol: float) -> tuple[np.ndarray, np.ndarray]:
    w = np.asarray(weights, dtype=float)
    s = np.asarray(shapes, dtype=float)
    if w.ndim != 1 or w.shape != s.shape:
        raise ValueError(f"weights {w.shape} and shapes {s.shape} must be 1-D of equal length")
    # min and max propagate NaN, which fails every comparison
    if not -math.inf < w.min() < 0.0 < w.max() < math.inf:
        raise ValueError("weights must be finite with at least one of each sign")
    if not 0.0 < s.min() <= s.max() < math.inf:
        raise ValueError("shapes must be finite and positive")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    return w, s


def two_block_exact(n_levels: int, k: int) -> OracleResult:
    """Exact negativity probability for the two-block kernel (N, k), 1 <= k < N.

    The beta closed form of :func:`negative_probability`: eigenvalues a > 0 > b
    of multiplicities N-k and k give I_x(N(N-k), Nk) at x = r/(1+r), r = |b|/a.
    """
    spectrum = two_block_spectrum(n_levels, k)
    return negative_probability(spectrum.values, spectrum.shapes)


def cf_inversion_exact(spectrum: KernelSpectrum, tol: float = 1e-10) -> OracleResult:
    """Negativity probability for an arbitrary kernel via CF inversion.

    The CF route of :func:`negative_probability` on the weights w_j (distinct
    eigenvalues) and shapes s_j (N times multiplicities), taken for two-block
    kernels too, as the cross-check of the beta form.  With
    sigma^2 = sum_j s_j w_j^2, the variable X = S / sigma has unit variance and
    the characteristic function phi(u) = prod_j (1 - i w_j u / sigma)^(-s_j).
    Davies' half-offset trapezoid rule at the nodes u_k = (k + 1/2) 2 pi / L
    inverts it:

        P(S < 0) = 1/2 - sum_{k=0..K} Im phi(u_k) / (pi (k + 1/2)) + error,

    with |phi| and arg phi summed in real arithmetic over a (nodes x weights)
    grid.  The error is bounded by three terms, whose sum must not exceed
    ``tol``:

    * aliasing, at most P(X < -L) + P(X > L); L comes in closed form from the
      Bernstein tails of X - E X (variance 1, scale max w_j / sigma on the
      right and max |w_j| / sigma on the left) for a bound of tol/4;
    * truncation, at most |phi(u_K)| / (pi gamma) by the power-law envelope of
      slope gamma = sum_j s_j z_j^2 / (1 + z_j^2), z_j = w_j u_K / sigma; K is
      the first node where this is at most tol/4;
    * roundoff, eps times the size of the summed terms, phase sums
      sum_j s_j |arctan z_j| included, times the rounding depth of the sums.

    ConvergenceError is raised when the sum exceeds ``tol``, or when K would
    pass a fixed node cap.  The cap is checked from the envelope at the cap
    alone, before any node past the first scan (the nodes a normal X needs)
    is evaluated.
    """
    spectrum.validate()
    return _cf_inversion(*_checked(spectrum.values, spectrum.shapes, tol), tol)


def _cf_inversion(weights: np.ndarray, shapes: np.ndarray, tol: float) -> OracleResult:
    sigma = math.sqrt(float(shapes @ (weights * weights)))
    w = weights / sigma
    mean = float(shapes @ w)
    # each Bernstein tail of X - mean passes sqrt(2t) + scale*t with probability <= e^-t;
    # no probability needs a tolerance looser than 1
    t = math.log(8.0 / min(tol, 1.0))
    half_width = math.sqrt(2.0 * t) + max(mean + w.max() * t, -mean - w.min() * t)
    aliasing = 2.0 * math.exp(-t)
    step = 2.0 * math.pi / half_width
    target = tol / 4.0
    signed = np.copysign(shapes, w)  # arctan(z_j) has the sign of w_j

    def envelope(half: np.ndarray) -> tuple[np.ndarray, ...]:
        """z = w u / sigma, log |phi|, |phi| and the slope gamma at u = half * step.

        Sums run along contiguous rows, pairwise, so a node's values do not
        depend on the other nodes evaluated with it.
        """
        z = np.multiply.outer(half * step, w)
        z2 = z * z
        log_mod = -0.5 * (np.log1p(z2) * shapes).sum(axis=1)
        return z, log_mod, np.exp(log_mod), (z2 / (1.0 + z2) * shapes).sum(axis=1)

    def nodes(first: int, stop: int) -> tuple[np.ndarray, ...]:
        """Term, rounding size, truncation bound and slope at nodes first..stop-1."""
        half = np.arange(first, stop) + 0.5
        z, log_mod, mod, slope = envelope(half)
        angle = np.arctan(z)
        scale = mod / (math.pi * half)
        phase = (angle * shapes).sum(axis=1)
        phase_size = (angle * signed).sum(axis=1)
        return (scale * np.sin(phase), scale * (1.0 + phase_size - log_mod),
                mod / (math.pi * slope), slope)

    def failure(last: int, trunc: float, roundoff: float) -> ConvergenceError:
        return ConvergenceError(
            f"CF inversion cannot certify tol {tol:.3e}: sigma={sigma:.6g}, L={half_width:.6g}, "
            f"K={last}, aliasing {aliasing:.3e}, truncation {trunc:.3e}, roundoff {roundoff:.3e}")

    per_block = max(1, _BLOCK_ELEMENTS // w.size)

    def passing_node(low: int, tail: float, slope: float) -> int:
        """A node from ``low`` on whose truncation bound is at most target, given
        the bound and slope at the failed node v = low - 1.

        Past v the bound falls at least as fast as (u_v / u)^slope, since the
        slope only grows, so the node where that power law reaches target
        passes.  While that node lies past twice ``low``, geometric probes of
        the envelope alone narrow it down, up to 64 probes a round.
        """
        k = (low - 0.5) * math.exp(min(math.log(tail / target) / slope, 50.0)) - 0.5
        high = max(low, math.ceil(k)) if k < _MAX_NODES else _MAX_NODES - 1
        while high > 2 * low:
            probes = np.unique(np.geomspace(low, high, min(per_block, 64) + 2)[1:-1].astype(np.int64))
            _, _, mod, slope = envelope(probes + 0.5)
            passed = np.flatnonzero(mod / (math.pi * slope) <= target)
            if passed.size:
                high = int(probes[passed[0]])
                low = int(probes[passed[0] - 1]) + 1 if passed[0] else low
            else:
                low = int(probes[-1]) + 1
        return high

    # a normal X passes by u = sqrt(2 log(1/target)), where the first scan stops
    stop = min(math.ceil(math.sqrt(2.0 * math.log(1.0 / target)) / step), _MAX_NODES)
    terms, sizes = [], []
    first = 0
    while True:
        term, rounding, tail, slope = nodes(first, min(first + per_block, stop))
        terms.append(term)
        sizes.append(rounding)
        hit = np.flatnonzero(tail <= target)
        if hit.size:
            last = first + int(hit[0])
            trunc = float(tail[hit[0]])
            break
        first += term.size
        if first == stop:  # a heavier tail than normal
            _, _, mod, cap_slope = envelope(np.array([_MAX_NODES - 0.5]))
            cap = float(mod[0] / (math.pi * cap_slope[0]))
            if not cap <= target:  # the envelope only falls, so no node up to the cap passes
                raise failure(_MAX_NODES - 1, cap, math.nan)
            stop = passing_node(first, float(tail[-1]), float(slope[-1])) + 1
    count = last + 1
    value = 0.5 - float(np.concatenate(terms)[:count].sum())
    # four roundings a phase term, one level a pairwise sum over weights and over nodes
    roundoff = _EPS * (4.0 + math.log2(w.size * count)) * float(np.concatenate(sizes)[:count].sum())
    est_err = aliasing + trunc + roundoff
    if not est_err <= tol:
        raise failure(last, trunc, roundoff)
    if not -tol <= value <= 1.0 + tol:
        raise ConvergenceError(f"inverted probability {value!r} outside [0, 1]")
    return OracleResult(
        value=min(max(value, 0.0), 1.0),
        method="cf-inversion",
        estimated_abs_error=est_err,
    )


def clt_probability(t: float, tol: float = 1e-9) -> OracleResult:
    """Normal-reduction probability P(t), constant in t by construction.

    Evaluates integral of Phi(y*t - sqrt(t^2 + 1)) * phi(y) dy over the
    real line (Phi, phi the standard normal CDF and density), truncated to
    |y| <= 13 where the density is below 1e-37.  The value equals
    1 - Phi(1) for every t >= 0; evaluating the integral rather than the
    constant is the point, as the constancy is what the quadrature checks.

    Parameters
    ----------
    t : float
        Non-negative reduction parameter.
    tol : float
        Requested absolute quadrature error.

    Returns
    -------
    OracleResult
        method ``"clt-quadrature"``.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    shift = math.sqrt(t * t + 1.0)

    def integrand(y: float) -> float:
        return float(ndtr(y * t - shift)) * math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)

    # scipy.integrate is the slowest import of the package and only this route needs it
    from scipy.integrate import quad

    window = 13.0
    # for large t the CDF factor switches on over a width ~1/t around y = shift/t;
    # hand quad the crossing and, within unit distance of it, panel edges 2, 8 and
    # 40 widths to either side, so the adaptive panels resolve it however narrow it is
    points = [(shift + d) / t for d in (-40.0, -8.0, -2.0, 0.0, 2.0, 8.0, 40.0)
              if abs(d) <= t and abs(shift + d) < window * t] or None
    integral, quad_err = quad(integrand, -window, window,
                              points=points, limit=400, epsabs=tol * 0.1, epsrel=1e-12)
    est_err = quad_err + 1e-15  # quadrature + truncation (< 1e-37) + roundoff slack
    if not est_err <= tol:
        raise ConvergenceError(f"quadrature error {est_err:.3e} exceeds tol {tol:.3e} at t={t!r}")
    return OracleResult(
        value=min(max(integral, 0.0), 1.0),
        method="clt-quadrature",
        estimated_abs_error=est_err,
    )
