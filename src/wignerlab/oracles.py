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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import betainc, ndtr

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

# absolute error bound of the beta closed form
_BETA_ERROR = 5e-13


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

    Two weights w+ > 0 > w- give the regularized incomplete beta I_x(s+, s-)
    at x = r/(1+r), r = |w-|/w+, a continued fraction verified against
    50-digit arithmetic to < 5e-13 on the two-block kernels up to N = 512.
    Any other input goes to the CF inversion of :func:`cf_inversion_exact`.

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
    if _BETA_ERROR > tol:
        raise ConvergenceError(
            f"beta closed form error bound {_BETA_ERROR:.3e} exceeds tol {tol:.3e}")
    if w[0] < 0.0:
        w, s = w[::-1], s[::-1]
    r = -w[1] / w[0]
    x = r / (1.0 + r)
    value = float(betainc(s[0], s[1], x))
    return OracleResult(value=value, method="beta-closed-form", estimated_abs_error=_BETA_ERROR)


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
    kernels too, as the cross-check of the beta form.  The characteristic
    function phi(u) = prod_j (1 - 2i w_j u)^(-s_j) of 2S, which has the sign of
    S, is inverted by the Gil-Pelaez formula

        P(S < 0) = 1/2 - (1/pi) * integral_0^inf Im phi(u) / u du.

    The integrand is finite at u = 0 and decays like u^(-sum_j s_j), so the
    integral is truncated at a U found by doubling until |phi(U)|/U < tol/100;
    the discarded tail is bounded by the local power-law decay rate and folded
    into the error estimate, which raises ConvergenceError above ``tol``.
    """
    spectrum.validate()
    return _cf_inversion(*_checked(spectrum.values, spectrum.shapes, tol), tol)


def _cf_inversion(weights: np.ndarray, shapes: np.ndarray, tol: float) -> OracleResult:
    def cf(u: float) -> complex:
        lp = -(shapes * np.log1p(-2j * weights * u)).sum()
        if lp.real < -700.0:
            # |phi| below ~1e-304: treat as zero rather than underflow
            return 0.0j
        return complex(np.exp(lp))

    # truncation point: double until the CF envelope is negligible
    upper = 1.0
    target = tol * 1e-2
    for _ in range(200):
        if abs(cf(upper)) / upper < target:
            break
        upper *= 2.0
    else:
        raise ConvergenceError(f"no truncation point below 2^200 for tol={tol!r}")

    # quad's Gauss-Kronrod nodes are interior, so u = 0 is never evaluated
    integral, quad_err = quad(lambda u: cf(u).imag / u, 0.0, upper,
                              limit=2000, epsabs=tol * 0.1, epsrel=1e-12)

    # |phi(u)| <= |phi(U)| (U/u)^gamma for u >= U, with gamma the local
    # log-log slope; integrating the envelope bounds the discarded tail.
    gamma = float((shapes * (4.0 * weights**2 * upper**2)
                   / (1.0 + 4.0 * weights**2 * upper**2)).sum())
    tail_bound = abs(cf(upper)) / gamma if gamma > 0 else math.inf

    est_err = quad_err / math.pi + tail_bound / math.pi
    if not math.isfinite(est_err) or est_err > tol:
        raise ConvergenceError(
            f"certified error {est_err:.3e} exceeds tol {tol:.3e} "
            f"(U={upper:g}, quadrature {quad_err:.3e}, tail {tail_bound:.3e})"
        )
    value = 0.5 - integral / math.pi
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

    window = 13.0
    # for large t the CDF factor switches on over a width ~1/t around y = shift/t;
    # hand quad the crossing so the adaptive panels land on it
    points = [shift / t] if t > 0 and shift / t < window else None
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
