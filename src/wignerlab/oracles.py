"""Exact and asymptotic negativity probabilities, no sampling involved.

Every routine answers the same question: with what probability is a weighted
sum of independent gamma(shape N, scale 2) variables negative, the weights
being kernel eigenvalues expanded by multiplicity.  Routes: a regularized
incomplete beta closed form (two-block kernels), characteristic-function
inversion (any kernel), a quadrature for the large-N normal reduction, and
the limit constant itself.
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
    "two_block_exact",
    "cf_inversion_exact",
    "clt_probability",
]

#: Value of (1/2) erfc(1/sqrt(2)) = 1 - Phi(1), the infinite-dimension limit.
LIMIT_VALUE = 0.5 * math.erfc(1.0 / math.sqrt(2.0))


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


def two_block_exact(n_levels: int, k: int) -> OracleResult:
    """Exact negativity probability for the two-block kernel (N, k).

    With eigenvalues a > 0 > b of multiplicities N-k and k, the weighted
    gamma sum is negative exactly when a*X < |b|*Y for independent
    X ~ gamma(N(N-k), 2) and Y ~ gamma(Nk, 2), so the probability is the
    regularized incomplete beta I_x(N(N-k), Nk) at x = r/(1+r), r = |b|/a.

    Parameters
    ----------
    n_levels : int
        Dimension N >= 2.
    k : int
        Multiplicity of the negative eigenvalue, 1 <= k <= N-1.

    Returns
    -------
    OracleResult
        method ``"beta-closed-form"``.  The regularized incomplete beta is
        evaluated by a continued-fraction routine with the symmetry switch
        at x > (alpha+1)/(alpha+beta+2); verified against 50-digit
        arithmetic to < 5e-13 absolute up to N = 512.
    """
    spectrum = two_block_spectrum(n_levels, k)
    (a, _), (b, _) = spectrum.eigenvalues
    r = -b / a
    x = r / (1.0 + r)
    n = n_levels
    value = float(betainc(n * (n - k), n * k, x))
    return OracleResult(value=value, method="beta-closed-form", estimated_abs_error=5e-13)


def _log_cf_factory(weights: np.ndarray, powers: np.ndarray):
    """Characteristic function u -> phi(u) of the weighted gamma sum.

    phi(u) = prod_j (1 - 2i w_j u)^(-p_j) with p_j = N * multiplicity_j.
    """

    def cf(u: float) -> complex:
        lp = -(powers * np.log1p(-2j * weights * u)).sum()
        if lp.real < -700.0:
            # |phi| below ~1e-304: treat as zero rather than underflow
            return 0.0j
        return complex(np.exp(lp))

    return cf


def cf_inversion_exact(spectrum: KernelSpectrum, tol: float = 1e-10) -> OracleResult:
    """Negativity probability for an arbitrary kernel via CF inversion.

    Inverts the characteristic function of S = sum_j pi_j G_j, with the G_j
    independent gamma(shape N, scale 2), through the Gil-Pelaez formula

        P(S < 0) = 1/2 - (1/pi) * integral_0^inf Im phi(u) / u du.

    The integrand has a removable endpoint (it tends to 2N as u -> 0) and
    decays like u^(-N^2), so the integral is truncated at a U found by
    doubling until |phi(U)|/U < tol/100; the discarded tail is bounded by
    the local power-law decay rate and folded into the error estimate.

    Parameters
    ----------
    spectrum : KernelSpectrum
        Any valid kernel spectrum.
    tol : float
        Requested absolute error bound on the probability.

    Returns
    -------
    OracleResult
        method ``"cf-inversion"``.

    Raises
    ------
    ConvergenceError
        If quadrature error plus tail bound cannot certify ``tol``.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    spectrum.validate()
    n = spectrum.dimension
    weights = np.asarray(spectrum.values, dtype=float)
    powers = spectrum.shapes
    cf = _log_cf_factory(weights, powers)

    endpoint = 2.0 * float(n)  # lim_{u->0} Im phi(u)/u, since sum m_j w_j = 1

    def integrand(u: float) -> float:
        if u == 0.0:
            return endpoint
        return cf(u).imag / u

    # truncation point: double until the CF envelope is negligible
    upper = 1.0
    target = tol * 1e-2
    for _ in range(200):
        if abs(cf(upper)) / upper < target:
            break
        upper *= 2.0
    else:
        raise ConvergenceError(f"no truncation point below 2^200 for tol={tol!r}")

    integral, quad_err = quad(integrand, 0.0, upper, limit=2000, epsabs=tol * 0.1, epsrel=1e-12)

    # |phi(u)| <= |phi(U)| (U/u)^gamma for u >= U, with gamma the local
    # log-log slope; integrating the envelope bounds the discarded tail.
    gamma = float((powers * (4.0 * weights**2 * upper**2)
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
