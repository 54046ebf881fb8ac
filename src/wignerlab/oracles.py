"""Exact and asymptotic negativity probabilities, no sampling involved.

Every routine answers one question: with what probability is
S = sum_j w_j G(s_j) negative, the G(s_j) independent standard gammas of
shape s_j?  For a kernel the weights w_j are its distinct eigenvalues and the
shapes s_j are N times their multiplicities.  :func:`negative_probability`
takes (w, s) and routes two weights of opposite sign to a regularized
incomplete beta closed form, and everything else, a beta bound over the
tolerance included, to characteristic-function inversion;
:func:`two_block_exact` and :func:`cf_inversion_exact` are its kernel front
ends.  A quadrature for the large-N normal reduction and the limit constant
itself complete the set.

Only the beta form uses scipy: it imports scipy.special on first call.  The
CF inversion runs on numpy, and the normal-reduction quadrature and the limit
on the math module, so importing the package loads no scipy module and no
route loads scipy.integrate.

Both quadratures are trapezoid rules with explicit error bounds.  The
normal-reduction integrand is entire and falls off like the normal density,
so one fixed trapezoid sum at step 1/2 over |y| <= 13 meets an a-priori bound
(Trefethen & Weideman 2014, SIAM Rev. 56, Thm 5.1) at every t.

The CF inversion is Davies' half-offset trapezoid rule (Davies 1973,
Biometrika 60; Algorithm AS 155, 1980) on the unit-variance variable
X = S / sigma, so its nodes are spaced alike at every N.  Its reported error
is the sum of three explicit bounds: aliasing, from Bernstein tails of X;
truncation, from the power-law envelope of the characteristic function; and
roundoff, from the size of the phase sums.  A closed-form envelope of |phi|
sizes its first scan of nodes, so that one scan finds the truncation point
unless the tail is heavy.  Both exact routes agree with a 40-digit
binomial-sum reference up to N = 16384 within their reported bounds.

Each front end checks its inputs once, at its boundary, and the cores behind
it check nothing again.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .kernels import _EPS, KernelSpectrum, _real, _two_block

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

# nodes x weights grid elements the CF route evaluates at once; bounds its memory
_BLOCK_ELEMENTS = 1 << 14

# trapezoid nodes past which the CF route raises instead of evaluating; the cap node
# alone is checked, only once the first scan falls short, and before any node past
# that scan is evaluated
_MAX_NODES = 1 << 18

# the CLT rule, pairs (y, h phi(y)) at the nodes y = k h, |y| <= 13, and its quadrature
# bound 2 M(d) / (exp(2 pi d / h) - 1) and truncation bound, as clt_probability derives
_CLT_STEP = 0.5
_CLT_RULE = tuple((y, _CLT_STEP * math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi))
                  for y in (k * _CLT_STEP for k in range(-26, 27)))
_CLT_STRIP = 5.0
_CLT_QUADRATURE = (2.0 * math.exp(0.5 * _CLT_STRIP**2)
                   * (1.0 + _CLT_STRIP * math.exp(0.5 * _CLT_STRIP**2) / math.sqrt(2.0 * math.pi))
                   / math.expm1(2.0 * math.pi * _CLT_STRIP / _CLT_STEP))
_CLT_TRUNCATION = 1e-37


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
    diagnostics : Mapping[str, float] or None
        What the quadrature did, read-only; left out of equality and hashing.
        The CF inversion gives ``sigma``, ``mean``, ``L``, ``K``, ``first_scan``
        (its length in nodes), ``nodes`` (all evaluated, the cap probe
        included), ``rounds`` (scans, the cap probe included) and the
        ``aliasing``, ``truncation`` and ``roundoff`` bounds; through
        :func:`negative_probability`, ``sigma`` is that of the weights scaled so
        that the largest |w_j| lies in [1/2, 1).  The normal-reduction
        quadrature gives its ``quadrature``, ``truncation`` and ``roundoff``
        bounds.  None for the other routes.
    """

    value: float
    method: str
    estimated_abs_error: float
    diagnostics: Mapping[str, float] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"oracle value {self.value!r} outside [0, 1]")
        if not math.isfinite(self.estimated_abs_error) or self.estimated_abs_error < 0:
            raise ValueError("estimated_abs_error must be finite and >= 0")
        if self.diagnostics is not None:
            object.__setattr__(self, "diagnostics", _ReadOnlyDict(self.diagnostics))


class _ReadOnlyDict(dict):
    """A dict that refuses changes, so that it still copies, pickles and serialises
    as a dict; copies are rebuilt whole."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("oracle diagnostics are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


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

    The probability does not change when w is multiplied by any c > 0, and
    the weights are first scaled by a power of two, exactly, so every finite
    scale answers alike.  Two weights w+ > 0 > w- give the regularized
    incomplete beta I_x(s+, s-) = 1 - I_y(s-, s+) at y = 1 - x =
    w+ / (w+ + |w-|).  Taking y directly keeps its relative rounding at a few
    ulps where x = 1 - 1/N would lose log2(N) bits.  The reported bound is 5e-13 for the beta
    function itself plus the conditioning term pdf(y) * 4 eps y, the Beta(s-,
    s+) density times that rounding of y; both together hold against
    40-digit binomial sums up to N = 16384.  Any other input, and a two-weight
    input whose beta bound exceeds ``tol``, goes to the CF inversion of
    :func:`cf_inversion_exact` in the caller's weight order.

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
        If an input breaks these rules; NaN breaks every one.  This is the one
        boundary check.
    ConvergenceError
        If the CF error bound exceeds ``tol``: for two weights, only once the
        beta bound has exceeded it too.
    """
    return _beta_else_cf(*_checked(weights, shapes, tol))


def _checked(weights, shapes, tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    w = np.asarray(weights, dtype=float)
    s = np.asarray(shapes, dtype=float)
    if w.ndim != 1 or w.shape != s.shape:
        raise ValueError(f"weights {w.shape} and shapes {s.shape} must be 1-D of equal length")
    # min and max propagate NaN, which fails every comparison
    if not -math.inf < w.min() < 0.0 < w.max() < math.inf:
        raise ValueError("weights must be finite with at least one of each sign")
    if not 0.0 < s.min() <= s.max() < math.inf:
        raise ValueError("shapes must be finite and positive")
    # the power of two that takes max |w_j| into [1/2, 1) scales exactly, so no sum of
    # squares overflows or underflows and results at ordinary scales are bit-identical
    w = np.ldexp(w, -math.frexp(max(w.max(), -w.min()))[1])
    return w, s, _real(tol, "tol", finite=False)


def _beta_else_cf(w: np.ndarray, s: np.ndarray, tol: float) -> OracleResult:
    """The core of :func:`negative_probability`, on inputs that pass its checks."""
    if w.size == 2:
        from scipy.special import betaincc, betaln

        order = 1 if w[0] > 0.0 else -1  # Python floats from here: the same IEEE operations
        (wp, wn), (sp, sn) = w.tolist()[::order], s.tolist()[::order]
        y = wp / (wp - wn)
        log_pdf = (sn - 1.0) * math.log(y) + (sp - 1.0) * math.log1p(-y) - betaln(sn, sp)
        bound = _BETA_ERROR + float(np.exp(log_pdf)) * 4.0 * _EPS * y
        if bound <= tol:
            value = float(betaincc(sn, sp, y))
            return OracleResult(value=value, method="beta-closed-form", estimated_abs_error=bound)
    return _cf_inversion(w, s, tol)


def two_block_exact(n_levels: int, k: int, tol: float = 1e-10) -> OracleResult:
    """Exact negativity probability for the two-block kernel (N, k), 1 <= k < N.

    The beta closed form of :func:`negative_probability`: eigenvalues a > 0 > b
    of multiplicities N-k and k give I_x(N(N-k), Nk) at x = r/(1+r), r = |b|/a.
    Where its bound exceeds ``tol`` (at k = N-1 for N >= 8192 and the default),
    the CF inversion answers instead, and raises if it cannot meet ``tol``.

    The one boundary check is that of (N, k) and ``tol``; (a, b) are finite and
    of opposite sign by construction.
    """
    n, k, a, b = _two_block(n_levels, k)
    return _beta_else_cf(np.array((a, b)), np.array((n * (n - k), n * k), dtype=float),
                         _real(tol, "tol", finite=False))


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

    K is the first node, scanned from 0, where the computed truncation bound
    passes.  The first scan covers the nodes a normal X needs, or more where
    a closed-form envelope of the truncation bound shows that these fall
    short: with v_j = w_j / sigma and m^2 = max_j v_j^2, |phi(u)| is at most
    (1 + m^2 u^2)^(-1/(2 m^2)) and gamma at least u^2 / (1 + m^2 u^2).  If the
    envelope passes within 16 times the normal scan, the first scan runs to
    its first passing node, which cannot come before K save by rounding, and
    a single scan finds K for every input whose tail is not heavy.  Should
    the first scan fall short, the truncation bound at a fixed node cap is
    checked once, before any node past that scan: ConvergenceError is raised
    if even the cap fails.  Each later round scans on to the node where the
    power law of the last failed node, (u_K / u)^gamma, reaches tol/4, at most
    16 times as many nodes as scanned so far.  ConvergenceError is also
    raised when the sum of the bounds exceeds ``tol``.  The result's
    ``diagnostics`` say what the scan did.

    The one boundary check is :meth:`KernelSpectrum.validate` and that of
    ``tol``: a valid spectrum has finite values, a negative last value, a
    positive first one (they sum to 1 with their multiplicities) and positive
    shapes.
    """
    spectrum.validate()
    return _cf_inversion(spectrum.values, spectrum.shapes, _real(tol, "tol", finite=False))


def _envelope(u: float, top2: float) -> float:
    """Closed-form upper bound on the CF truncation bound |phi(u)| / (pi gamma(u)).

    For weights w_j scaled so that sum_j s_j w_j^2 = 1, with top2 = max_j w_j^2:
    log1p(x)/x and 1/(1 + x) fall in x, so |phi(u)| <= (1 + top2 u^2)^(-1/(2 top2))
    and gamma(u) >= u^2 / (1 + top2 u^2).  It falls in u.
    """
    return (1.0 + top2 * u * u) ** (1.0 - 0.5 / top2) / (math.pi * u * u)


def _cf_inversion(weights: np.ndarray, shapes: np.ndarray, tol: float) -> OracleResult:
    sigma = math.sqrt(float(shapes @ (weights * weights)))
    w = weights / sigma
    mean = float(shapes @ w)
    top, bottom = float(w.max()), float(w.min())
    # each Bernstein tail of X - mean passes sqrt(2t) + scale*t with probability <= e^-t;
    # no probability needs a tolerance looser than 1
    t = math.log(8.0 / min(tol, 1.0))
    half_width = math.sqrt(2.0 * t) + max(mean + top * t, -mean - bottom * t)
    aliasing = 2.0 * math.exp(-t)
    step = 2.0 * math.pi / half_width
    target = tol / 4.0
    signed = np.copysign(shapes, w)  # arctan(z_j) has the sign of w_j

    def nodes(first: int, stop: int) -> tuple[np.ndarray, ...]:
        """Term, rounding size, truncation bound and slope at nodes first..stop-1.

        Sums over z = w u / sigma run along contiguous rows, pairwise, so a node's
        values do not depend on the other nodes evaluated with it.
        """
        half = np.arange(first + 0.5, stop)
        z = np.multiply.outer(half * step, w)
        z2 = z * z
        log_mod = -0.5 * np.add.reduce(np.log1p(z2) * shapes, axis=1)
        mod = np.exp(log_mod)
        slope = np.add.reduce(z2 / (1.0 + z2) * shapes, axis=1)
        angle = np.arctan(z)
        scale = mod / (math.pi * half)
        phase = np.add.reduce(angle * shapes, axis=1)
        phase_size = np.add.reduce(angle * signed, axis=1)
        return (scale * np.sin(phase), scale * (1.0 + phase_size - log_mod),
                mod / (math.pi * slope), slope)

    def failure(last: int, trunc: float, roundoff: float) -> ConvergenceError:
        return ConvergenceError(
            f"CF inversion cannot certify tol {tol:.3e}: sigma={sigma:.6g}, L={half_width:.6g}, "
            f"K={last}, aliasing {aliasing:.3e}, truncation {trunc:.3e}, roundoff {roundoff:.3e}")

    per_block = max(1, _BLOCK_ELEMENTS // w.size)

    # a normal X passes by u = sqrt(2 log(1/target)); that target is clamped like the
    # aliasing term's, so u >= sqrt(2 log 4) and a node is scanned
    scan_to = math.sqrt(2.0 * math.log(4.0 / min(tol, 1.0)))
    stop = min(math.ceil(scan_to / step), _MAX_NODES)
    # where the closed-form envelope still fails at the normal scan's last node but passes
    # within 16x as many nodes, the first scan runs on to its first passing node; it bounds
    # the computed one from above, so K passes no later, save by rounding, which costs a round
    top2 = max(top * top, bottom * bottom)
    reach = min(16 * stop, _MAX_NODES)
    if not _envelope((stop - 0.5) * step, top2) <= target \
            and _envelope((reach - 0.5) * step, top2) <= target:
        while reach - stop > 1:
            mid = (stop + reach) // 2
            stop, reach = (stop, mid) if _envelope((mid - 0.5) * step, top2) <= target else (mid, reach)
        stop = reach
    first_scan = stop
    terms, sizes = [], []
    first = evaluated = 0
    rounds = 1
    while True:
        term, rounding, tail, slope = nodes(first, min(first + per_block, stop))
        terms.append(term)
        sizes.append(rounding)
        evaluated += term.size
        hit = (tail <= target).nonzero()[0]
        if hit.size:
            last = first + int(hit[0])
            trunc = float(tail[hit[0]])
            break
        first += term.size
        if first == stop:
            if stop == first_scan:  # a heavier tail than the first scan allowed for
                cap = float(nodes(_MAX_NODES - 1, _MAX_NODES)[2][0])
                evaluated += 1
                rounds += 1
                if not cap <= target:  # the envelope only falls, so no node up to the cap passes
                    raise failure(_MAX_NODES - 1, cap, math.nan)
            # the slope only grows, so past the failed node the bound falls at least as fast
            # as its power law: scan on to where that reaches target, at most 16x as far
            power = min(math.log(float(tail[-1]) / target) / float(slope[-1]), 50.0)
            stop = min(max(math.ceil((first - 0.5) * math.exp(power) - 0.5), first) + 1,
                       16 * first, _MAX_NODES)
            rounds += 1
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
        diagnostics={"sigma": sigma, "mean": mean, "L": half_width, "K": last,
                     "first_scan": first_scan, "nodes": evaluated, "rounds": rounds,
                     "aliasing": aliasing, "truncation": trunc, "roundoff": roundoff},
    )


def clt_probability(t: float, tol: float = 1e-9) -> OracleResult:
    """Normal-reduction probability P(t), constant in t by construction.

    P(t) is the probability that Z <= t Y - hypot(t, 1) for independent
    standard normals Y and Z, the integral of Phi(t y - hypot(t, 1)) phi(y) dy
    over the real line (Phi, phi the standard normal CDF and density).  It
    equals 1 - Phi(1) for every t >= 0; evaluating the integral rather than
    the constant is the point, as the constancy is what the quadrature checks.

    Dividing the event by t and swapping the two normals gives P(t) = P(1/t),
    so the integral is taken at r = min(t, 1/t) <= 1.  Its integrand is entire
    and falls off like the density, so the trapezoid rule converges
    geometrically; one fixed sum at step h = 1/2 over the 53 nodes
    y = k/2, |y| <= 13, weights h phi(y), takes it, with Phi from math.erfc
    and the terms added by math.fsum.  The reported error, at most about
    1.3e-15 at every t from 0 to the largest float, is the sum of three
    bounds, which ``diagnostics`` carry:

    * quadrature, 2 M(d) / (exp(2 pi d / h) - 1) ~ 1.5e-16 at d = 5, by the
      trapezoid theorem on the strip |Im y| < d (Trefethen & Weideman 2014,
      SIAM Rev. 56(3), Thm 5.1): there |phi(x + i v)| = phi(x) e^(v^2/2) and
      |Phi(a + i b)| <= 1 + |b| e^(b^2/2) / sqrt(2 pi) with |b| = r |v| < d,
      so the integral of |f| along each line is at most
      M(d) = e^(d^2/2) (1 + d e^(d^2/2) / sqrt(2 pi));
    * truncation, 1e-37, above the nodes left out past |y| = 13, whose sum
      h sum phi(y) is about 1e-40;
    * roundoff, eps (16 P + 2.5) with P the computed value.  Each term
      h phi(y) erfc(x) / 2 carries relative errors from its weight (exp, the
      constant and their product: under 3 eps), from math.erfc (allowed
      12 eps; it is within 2 eps of a 40-digit reference on these arguments)
      and from its product and the correctly rounded fsum (1 eps together),
      16 eps in all.  The argument x = (hypot(r, 1) - r y) / sqrt 2 is off by
      at most 2.5 eps (r |y| + hypot(r, 1)) / sqrt 2, and the derivative of
      erfc(x) / 2 is -e^(-x^2) / sqrt(pi), so the sum moves by at most
      2.5 eps sum h phi(y) (|y| + sqrt 2) / sqrt(2 pi) < 2.2 eps, which
      2.5 eps covers.

    ConvergenceError is raised when that sum exceeds ``tol``.

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
    t, tol = _real(t, "t", strict=False), _real(tol, "tol", finite=False)
    r = t if t <= 1.0 else 1.0 / t
    slope, intercept = r * math.sqrt(0.5), math.hypot(r, 1.0) * math.sqrt(0.5)
    # Phi(r y - hypot(r, 1)) = erfc((hypot(r, 1) - r y) / sqrt 2) / 2
    value = 0.5 * math.fsum([w * math.erfc(intercept - slope * y) for y, w in _CLT_RULE])
    roundoff = _EPS * (16.0 * value + 2.5)
    est_err = _CLT_QUADRATURE + _CLT_TRUNCATION + roundoff
    if not est_err <= tol:
        raise ConvergenceError(
            f"CLT quadrature cannot certify tol {tol:.3e} at t={t!r}: quadrature "
            f"{_CLT_QUADRATURE:.3e}, truncation {_CLT_TRUNCATION:.3e}, roundoff {roundoff:.3e}")
    return OracleResult(
        value=value,
        method="clt-quadrature",
        estimated_abs_error=est_err,
        diagnostics={"quadrature": _CLT_QUADRATURE, "truncation": _CLT_TRUNCATION,
                     "roundoff": roundoff},
    )
