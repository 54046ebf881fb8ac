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
itself complete the set; :func:`edgeworth_probability` is no oracle but the
O(N^-2) prediction of the finite-N value from three power sums of a spectrum.

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
is the sum of explicit bounds: aliasing, from Bernstein tails of X;
truncation, from the decay of the characteristic function past the last node;
roundoff, from the size of the phase sums and the depth of the sums over
weights and nodes; and, where the first scan sums a power series, that
series' tail.  One closed-form envelope of the truncation bound sizes the
first scan; where the tail is heavier, a node cap is checked once and the
scan goes on in blocks.  Where the envelope passes within that scan and
weights times nodes are at most 64, the first scan runs node by node on
Python floats instead of the numpy grid and stops at its first passing node,
as numpy's fixed cost a call would outweigh the work (at the default tol, the
two-block kernels from N = 16 on, and N = 8 k = 4).  Where the weights are
many and every |w_j u| / sigma stays small over that scan, log phi is a power
series in u whose coefficients are the power sums sum_j s_j (w_j / sigma)^p,
so the first scan costs one pass over the weights per term instead of one per
node.  Both exact routes agree with a 40-digit binomial-sum reference up to
N = 16384 within their reported bounds.

Each front end checks its inputs once, at its boundary, and the cores behind
it check nothing again.
"""
from __future__ import annotations

import functools
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
    "edgeworth_probability",
]

#: Value of (1/2) erfc(1/sqrt(2)) = 1 - Phi(1), the infinite-dimension limit.
LIMIT_VALUE = 0.5 * math.erfc(1.0 / math.sqrt(2.0))

# absolute error bound of the beta function evaluation at its given argument
_BETA_ERROR = 5e-13

# elements of the CF route's stacked (4, nodes, weights) grid, laid out either way, that
# one block evaluates at once; bounds its memory to 128 KiB a block
_BLOCK_ELEMENTS = 1 << 14

# weights from which the CF route sums each node's weights along a contiguous row;
# fewer weights are laid along the node axis and summed across it
_NODE_MAJOR_FROM = 8

# weights a term of the cumulant series must have for the CF route's first scan to sum
# it; with fewer, its fixed cost outweighs what it saves (random kernels at N = 64 need
# about 32 terms and ran slower on it)
_WEIGHTS_PER_TERM = 8

# bound on the series' truncation error T(u) of log phi at the first scan's last node, by
# which its length P is chosen; far below the rounding of any weight sum
_SERIES_TAIL = 2.0**-60

# weights times first-scan nodes up to which the CF route scans node by node on Python
# floats; past it the grid's fixed cost per numpy call is the smaller (break-even in
# CHANGES.md)
_SCALAR_ELEMENTS = 64

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
        included: K + 1 where the scalar first scan answered, as it stops at
        K; a scan of the grid stops at the end of the block that holds K, so
        there this follows the block size), ``series_terms`` (the power
        series' terms P if the first scan summed it, else 0) and the
        ``aliasing``, ``truncation``, ``roundoff`` and ``series`` bounds,
        which sum to the error; through
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


def edgeworth_probability(spectrum: KernelSpectrum) -> float:
    """P_N to O(N^-2): the Edgeworth series of P(S < 0) at x = -1 to third order.

    With the standardised cumulants lambda_r = (r-1)! sum_j m_j pi_j^r / N^(r-1) of
    S / sigma(S), for r = 3, 4, 5 and the power sums taken by math.fsum,

        P_N ~ 1 - Phi(1) - phi(1) [(lambda_4 - lambda_3^2) / 12 - lambda_5 / 60
                                   + lambda_3 lambda_4 / 9 - 11 lambda_3^3 / 108].

    The trace constraints make E S / sigma(S) = 1, so the skewness term, a multiple
    of He_2(-1) = 0, vanishes.  The first term in the bracket is of order 1/N, the
    other three of order N^-1.5 for the k = 1 family (from He_4(-1) = -2,
    He_6(-1) = 16 and He_8(-1) = -132).  It is a prediction with no error bound,
    not an oracle: against the exact routes, the k = 1 residual is about
    -0.021 N^-2 for N = 512 ... 16384.  The one boundary check is
    :meth:`KernelSpectrum.validate`.
    """
    spectrum.validate()
    n = spectrum.dimension
    pairs = list(zip(spectrum.values.tolist(), spectrum.multiplicities.tolist()))
    l3, l4, l5 = (math.factorial(r - 1) * math.fsum(m * v**r for v, m in pairs) / n ** (r - 1)
                  for r in (3, 4, 5))
    bracket = (l4 - l3 * l3) / 12 - l5 / 60 + l3 * l4 / 9 - 11 * l3**3 / 108
    return LIMIT_VALUE - math.exp(-0.5) / math.sqrt(2.0 * math.pi) * bracket


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
    40-digit binomial sums up to N = 16384.  Where |w-| is below half an ulp
    of w+, y rounds to 1 and the value to 0; the conditioning term then also
    covers the whole of I_x(s+, s-) <= pdf(y) x / s+, with x taken directly.
    Any other input, and a two-weight input whose beta bound exceeds ``tol``,
    goes to the CF inversion of :func:`cf_inversion_exact` in the caller's
    weight order.  Weights that are 0 (+0.0 or -0.0; the scaling turns no other
    weight into one) drop out with their shapes before routing, as 0 G(s_j) adds
    nothing, so (1, 0, -1) takes the beta form; their shapes are checked all the same.

    Parameters
    ----------
    weights : array_like
        1-D, nonempty and finite, with at least one positive and one negative
        entry; zeros are allowed.
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
    if w.ndim != 1 or w.shape != s.shape or not w.size:
        raise ValueError(
            f"weights {w.shape} and shapes {s.shape} must be 1-D of equal length, not empty")
    # the power of two that takes max |w_j| into [1/2, 1) scales exactly, so no sum of squares
    # overflows or underflows and ordinary scales are bit-identical; NaN and inf scale by 1
    top = max(w.max(), -w.min())
    scaled = np.ldexp(w, -math.frexp(top)[1])
    lost = (scaled == 0.0) != (w == 0.0)
    if lost.any():
        raise ValueError(f"weights {w[lost].tolist()} underflow to 0 beside max |w| {float(top)!r}")
    # min and max propagate NaN, which fails every comparison
    if not -math.inf < scaled.min() < 0.0 < scaled.max() < math.inf:
        raise ValueError("weights must be finite with at least one of each sign")
    if not 0.0 < s.min() <= s.max() < math.inf:
        raise ValueError("shapes must be finite and positive")
    # 0 G(s_j) adds nothing, so a zero weight and its shape drop out before routing
    keep = scaled != 0.0
    return scaled[keep], s[keep], _real(tol, "tol", finite=False)


def _beta_else_cf(w: np.ndarray, s: np.ndarray, tol: float) -> OracleResult:
    """The core of :func:`negative_probability`, on inputs that pass its checks."""
    if w.size == 2:
        order = 1 if w[0] > 0.0 else -1  # Python floats from here: the same IEEE operations
        result = _beta(*w.tolist()[::order], *s.tolist()[::order], tol)
        if result is not None:
            return result
    return _cf_inversion(w, s, tol)


def _beta(wp: float, wn: float, sp: float, sn: float, tol: float) -> OracleResult | None:
    """The beta form at weights wp > 0 > wn, shapes (sp, sn), or None if its bound is over tol."""
    from scipy.special import betaincc, betaln

    y = wp / (wp - wn)
    if y < 1.0:
        log_x, reach = math.log1p(-y), 0.0
    else:
        # |w-| is below half an ulp of w+, so y rounds to 1 and the value to 0, off by
        # all of I_x(s+, s-) <= pdf(y) x / s+ at x = |w-| / (w+ + |w-|), taken directly
        x = -wn / (wp - wn)
        log_x, reach = (math.log(x) if x > 0.0 else -math.inf), x / sp
    log_pdf = (sn - 1.0) * math.log(y) + (sp - 1.0) * log_x - betaln(sn, sp)
    pdf = float(np.exp(log_pdf)) if log_pdf < 709.0 else math.inf  # NaN included
    bound = _BETA_ERROR + max(pdf * 4.0 * _EPS * y, pdf * reach)
    if bound <= tol:
        return OracleResult(float(betaincc(sn, sp, y)), "beta-closed-form", bound)
    return None


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
    tol = _real(tol, "tol", finite=False)
    shapes = float(n * (n - k)), float(n * k)
    result = _beta(a, b, *shapes, tol)
    return _cf_inversion(np.array((a, b)), np.array(shapes), tol) if result is None else result


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

    with log |phi|, arg phi and their sizes summed in real arithmetic over one
    stacked grid of nodes and weights, weights-major below 8 weights and
    node-major from 8 on, in blocks of at most 2^14 grid elements.

    The first scan sums the cumulant series instead where it converges fast
    and the weights are many.  With v_j = w_j / sigma, S_p = sum_j s_j v_j^p
    and A_p = sum_j s_j |v_j|^p, log phi(u) = sum_p S_p (iu)^p / p: the even
    p give log |phi|, the odd p the phase, and the slope below is the sum over
    even p of (-1)^(p/2+1) S_p u^p.  As A_p <= m^(p-2), m = max_j |v_j|, the
    terms past P sum to at most T(u) = u^2 rho^(P-1) / ((P+1)(1 - rho)),
    rho = m u.  The series runs where, at the first scan's last node,
    rho <= 1/2 and the smallest P with T <= 2^-60 leaves at least 8 weights a
    term; it costs P products and sums over the weights, then one small
    matrix product for all nodes of the scan.  Any scan past it takes the
    grid, as does every input with fewer than 16 weights.

    A small first scan runs on Python floats instead of either: where the
    envelope below passes at the first scan's last node and the weights times
    its nodes are at most 64, each node's four sums run over the weights in
    turn, with the math module's log1p, atan, exp and sin, and the scan stops
    at the first passing node, so ``diagnostics`` give ``nodes`` = K + 1.
    numpy's fixed cost a call outweighs so little work; at the default tol the
    two-block kernels from N = 16 on, and N = 8 k = 4, take this scan.  Should
    rounding leave it with no passing node, the grid scans again from node 0.
    The error is bounded by four terms, whose sum must not exceed ``tol``:

    * aliasing, at most P(X < -L) + P(X > L); L comes in closed form from the
      Bernstein tails of X - E X (variance 1, scale max w_j / sigma on the
      right and max |w_j| / sigma on the left) for a bound of tol/4;
    * truncation, at most |phi(u_K)| / (pi gamma) by the power-law envelope of
      slope gamma = sum_j s_j z_j^2 / (1 + z_j^2), z_j = w_j u_K / sigma; K is
      the first node where this is at most tol/4.  The series takes gamma
      less its truncation and rounding errors, and those of log |phi| too, so
      its bound stays an upper bound;
    * roundoff, eps times the size of the summed terms, phase sums
      sum_j s_j |arctan z_j| included, times 4 plus the depths of numpy's
      pairwise sums over the weights and over the nodes.  The scalar scan
      charges its own: W - 1 over the W weights, summed in turn, and 1 over
      the nodes, whose terms math.fsum adds with one rounding.  For the
      series, the size is its rounding bound: (p + D) eps A_p for each S_p,
      D the depth over the weights, and (p + P + 2) eps |S_p| for its
      factor, power and product;
    * series, expm1(T) at the first scan's last node times the size of the
      summed terms; 0 where the grid or the scalar scan ran.

    K is the first node, scanned from 0, where the computed truncation bound
    passes.  One closed-form envelope of that bound sizes the first scan: with
    v_j = w_j / sigma and m^2 = max_j v_j^2, |phi(u)| is at most
    (1 + m^2 u^2)^(-1/(2 m^2)) and gamma at least u^2 / (1 + m^2 u^2).  Where
    it fails at the last of the nodes a normal X needs, the first scan runs to
    its first passing node, bracketed 16 times at a time up to a fixed node cap
    and bisected; that cannot come before K save by rounding.  Where it fails
    even at the cap, the first scan keeps the nodes a normal X needs.  Should
    the first scan fall short, the bound at the cap is checked once, before any
    node past that scan, and ConvergenceError is raised if it fails; else the
    grid scans on in blocks to the first passing node, which comes by the cap,
    as a node's value does not depend on its block.  ConvergenceError is also
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


@functools.lru_cache(maxsize=256)
def _sum_depth(n: int) -> int:
    """The most additions that a term of numpy's pairwise sum of n terms passes through.

    It mirrors numpy's ``pairwise_sum``: fewer than 8 terms are added in turn onto 0;
    up to 128 are added in turn onto 8 accumulators, which are then added in 3 levels,
    and the last n % 8 in turn; longer runs are split at the multiple of 8 at or below
    their middle.  The sum of n terms x_j is within _sum_depth(n) eps sum_j |x_j| of
    the exact one, to first order.
    """
    if n < 8:
        return max(n - 1, 0)
    if n <= 128:
        return n // 8 + 2 + n % 8
    half = n // 2 - n // 2 % 8
    return 1 + max(_sum_depth(half), _sum_depth(n - half))


def _series_terms(largest: float, u: float, most: int) -> int:
    """Terms P of log phi's power series for the CF route's first scan, or 0 for the grid.

    P is the smallest of 2..``most`` whose truncation bound
    T(u) = u^2 rho^(P-1) / ((P+1)(1 - rho)), rho = largest u, is at most 2^-60 at the
    first scan's last node u; 0 where rho > 1/2 or no P up to ``most`` passes.
    """
    rho = largest * u
    # T falls as P grows, so if the most terms allowed fail, all do
    if rho > 0.5 or u * u * rho ** (most - 1) > _SERIES_TAIL * (most + 1) * (1.0 - rho):
        return 0
    tail = u * u / (1.0 - rho)
    for terms in range(2, most + 1):
        tail *= rho
        if tail <= _SERIES_TAIL * (terms + 1):
            return terms
    return 0


@functools.lru_cache(maxsize=64)
def _series_pattern(terms: int, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`_series` needs of P and D alone, read-only: the factors of S_p in
    its first three rows, the weights of A_p and |S_p| in its error size, and the
    exponents p - 2 of its bound on A_p."""
    p = np.arange(1.0, terms + 1.0)
    # i^p = real + i imag at p = 1, 2, 3, 4, 5, ...
    powers_of_i = np.array(((0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)))
    real, imag = powers_of_i[np.arange(terms) % 4].T
    parts = (np.stack((-2.0 * real / p, -real, imag / p)),
             np.stack((p + depth + 1.0, p + terms + 3.0)) / (p * (4.0 + depth)), p - 2.0)
    for part in parts:
        part.flags.writeable = False
    return parts


def _series(v: np.ndarray, shapes: np.ndarray, terms: int, largest: float,
            u: float) -> tuple[np.ndarray, float]:
    """log phi's power series for the CF route's first scan, whose last node is u.

    With S_p = sum_j s_j v_j^p, log phi(u) = sum_p S_p (iu)^p / p.  Returns the
    (4, P) matrix whose product with a node's powers u, u^2, ..., u^P gives the
    grid's four sums there, and T(u), the bound on the terms past P at the last
    node, which holds at every node before it.  The four rows give, in turn:

    * sum_j s_j log1p(z_j^2) = -2 Re log phi, from the even p;
    * a lower bound on the slope gamma, whose series is the sum over even p of
      (-1)^(p/2+1) S_p u^p: its u^2 coefficient is lowered by enough to cover the
      truncation and rounding of both the slope and log |phi|, so that
      |phi| / (pi gamma) computed from it bounds the true one from above;
    * the phase Im log phi, from the odd p;
    * an error size: the bound on the error of log phi (both parts) over
      eps (4 + D), so that the grid's roundoff rule, which charges
      eps (4 + D + node depth) times it, covers it.  With A_p = sum_j s_j |v_j|^p,
      which is at most largest^(p-2) from p = 2 on, each S_p is within (p + D) eps A_p
      of its value, D the depth of the pairwise sum over the weights and p the
      products that make s_j v_j^p; the factor, the power u^p and the product
      matrix, in any summation order, add (p + P + 2) eps |S_p|.  One more eps a
      term covers second-order effects.
    """
    depth = _sum_depth(v.size)
    table = np.empty((terms, v.size))
    np.multiply(shapes, v, out=table[0])
    for row in range(1, terms):
        np.multiply(table[row - 1], v, out=table[row])
    sums = np.add.reduce(table, axis=1)
    factors, weights, exponents = _series_pattern(terms, depth)
    bound = largest ** exponents
    bound[0] = np.add.reduce(np.absolute(table[0]))  # A_1
    coefficients = np.vstack((factors * sums, weights[0] * bound + weights[1] * np.absolute(sums)))
    # the slope's truncation r u^2 and rounding, and log |phi|'s truncation T and rounding
    # times the slope, at most 2 u^2; the roundings are within eps (2P + D + 4) and
    # eps (P + D + 8) / 2 times the sum over even p of A_p u^p, at most u^2 / (1 - rho^2)
    rho = largest * u
    ratio = rho ** (terms - 1) / (1.0 - rho)
    coefficients[1, 1] -= (ratio * (1.0 + 2.0 * u * u / (terms + 1))
                           + _EPS * (2 * terms + depth + 8) * (1.0 + u * u) / (1.0 - rho * rho))
    return coefficients, u * u * ratio / (terms + 1)


def _scalar_scan(pairs: list[tuple[float, float]], step: float, stop: int,
                 target: float) -> tuple[int, float, float, float] | None:
    """The CF route's first scan node by node on Python floats, for small scans.

    The same four sums over the (w_j, s_j) ``pairs`` as the grid, in weight order, then
    the term, rounding size and truncation bound, stopping at the first node up to
    ``stop`` whose bound is at most ``target``.  Returns that node K, its bound, the
    math.fsum of the terms at nodes 0..K and the sum of their sizes; None if no node
    passes.
    """
    log1p, atan = math.log1p, math.atan
    terms, size = [], 0.0
    for k in range(stop):
        half = k + 0.5
        u = half * step
        log_size = slope = phase = phase_size = 0.0
        for w, s in pairs:
            z = w * u
            z2 = z * z
            angle = atan(z)
            log_size += s * log1p(z2)
            slope += s * (z2 / (1.0 + z2))
            phase += s * angle
            phase_size += s * abs(angle)
        log_mod = -0.5 * log_size
        mod = math.exp(log_mod)
        scale = mod / (math.pi * half)
        terms.append(scale * math.sin(phase))
        size += scale * (1.0 + phase_size - log_mod)
        # z^2 underflows: the bound fails
        tail = mod / (math.pi * slope) if slope > 0.0 else math.inf
        if tail <= target:
            return k, tail, math.fsum(terms), size
    return None


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
    by_node = w.size >= _NODE_MAJOR_FROM
    axis, weighting = (2, shapes) if by_node else (1, shapes[:, None])

    def nodes(first: int, stop: int) -> tuple[np.ndarray, ...]:
        """Term, rounding size and truncation bound at nodes first..stop-1.

        Four sums over the weights give them: of log1p(z^2), z^2 / (1 + z^2),
        arctan z and |arctan z| times s_j over z = w u / sigma.  On a first scan
        that takes the series, ``_series`` gives them from the node's powers u^p.
        Otherwise they come from one stacked grid.  From 8 weights on each node's
        sum runs along a contiguous row, pairwise; with fewer, the grid is
        weights-major and the sum runs across the node axis, left to right, which
        is the order numpy's pairwise sum takes below 8 terms, so both layouts give
        the same bits.  Either way a node's values do not depend on the other
        nodes evaluated with it.
        """
        half = np.arange(first + 0.5, stop)
        if summed:
            log_size, slope, phase, phase_size = coefficients @ np.power(
                half * step, np.arange(1.0, terms + 1.0)[:, None])
        else:
            grid = np.empty((4, half.size, w.size) if by_node else (4, w.size, half.size))
            logs, ratio, angle, size = grid  # z, z^2 and 1 + z^2 pass through these rows too
            if by_node:
                np.multiply.outer(half * step, w, out=angle)
            else:
                np.multiply.outer(w, half * step, out=angle)
            np.multiply(angle, angle, out=ratio)
            np.log1p(ratio, out=logs)
            np.divide(ratio, np.add(1.0, ratio, out=size), out=ratio)
            np.arctan(angle, out=angle)
            # arctan z_j has the sign of w_j, so |arctan z_j| s_j sums the phase's sizes
            np.absolute(angle, out=size)
            grid *= weighting
            log_size, slope, phase, phase_size = np.add.reduce(grid, axis=axis)
        log_mod = -0.5 * log_size
        mod = np.exp(log_mod)
        scale = mod / (math.pi * half)
        term, rounding = scale * np.sin(phase), scale * (1.0 + phase_size - log_mod)
        if slope[0] > 1e-300:  # the slope grows with u, so no bound in the block overflows
            return term, rounding, mod / (math.pi * slope)
        with np.errstate(divide="ignore", over="ignore"):  # z^2 underflows: the bound fails
            return term, rounding, mod / (math.pi * slope)

    def failure(last: int, trunc: float, roundoff: float) -> ConvergenceError:
        return ConvergenceError(
            f"CF inversion cannot certify tol {tol:.3e}: sigma={sigma:.6g}, L={half_width:.6g}, "
            f"K={last}, aliasing {aliasing:.3e}, truncation {trunc:.3e}, roundoff {roundoff:.3e}")

    per_block = max(1, _BLOCK_ELEMENTS // (4 * w.size))

    # a normal X passes by u = sqrt(2 log(1/target)); that target is clamped like the
    # aliasing term's, so u >= sqrt(2 log 4) and a node is scanned
    scan_to = math.sqrt(2.0 * math.log(4.0 / min(tol, 1.0)))
    stop = min(math.ceil(scan_to / step), _MAX_NODES)
    # where the closed-form envelope fails at the normal scan's last node, the first scan runs
    # on to its first passing node: bracketed 16x at a time up to the cap, then bisected.  It
    # bounds the computed bound from above, so K passes no later, save by rounding
    top2 = max(top * top, bottom * bottom)
    passes = _envelope((stop - 0.5) * step, top2) <= target
    if not passes:
        low, reach = stop, min(16 * stop, _MAX_NODES)
        while not (passes := _envelope((reach - 0.5) * step, top2) <= target) and reach < _MAX_NODES:
            low, reach = reach, min(16 * reach, _MAX_NODES)
        if passes:
            while reach - low > 1:
                mid = (low + reach) // 2
                low, reach = (low, mid) if _envelope((mid - 0.5) * step, top2) <= target else (mid, reach)
            stop = reach
    first_scan = stop
    # a small first scan that the envelope bounds runs node by node on Python floats, where
    # numpy's fixed cost a call would outweigh the work; should rounding leave it short of
    # a passing node, it restarts on the grid
    scalar = passes and w.size * stop <= _SCALAR_ELEMENTS
    scan = (_scalar_scan(list(zip(w.tolist(), shapes.tolist())), step, stop, target)
            if scalar else None)
    terms = 0
    if scan is not None:
        last, trunc, total, size = scan
        value, evaluated = 0.5 - total, last + 1
        # W - 1 for the sums over the weights, which run in turn, and 1 for math.fsum's one
        # rounding of the node sum
        depth = w.size
    else:
        # where the series converges fast over the first scan and has enough weights a
        # term, that scan sums it in one block; any scan past it, and every other input,
        # takes the grid
        block = per_block
        if not scalar and w.size > _WEIGHTS_PER_TERM:  # a series has two terms at least
            largest, u_last = max(top, -bottom), (stop - 0.5) * step
            terms = _series_terms(largest, u_last, w.size // _WEIGHTS_PER_TERM)
            if terms:
                coefficients, series_tail = _series(w, shapes, terms, largest, u_last)
                block = stop
        summed = terms > 0
        parts, sizes = [], []
        first = 0
        evaluated = stop if scalar else 0
        while True:
            term, rounding, tail = nodes(first, min(first + block, stop))
            parts.append(term)
            sizes.append(rounding)
            evaluated += term.size
            hit = (tail <= target).nonzero()[0]
            if hit.size:
                last = first + int(hit[0])
                trunc = float(tail[hit[0]])
                break
            first += term.size
            if first == stop:
                # a heavier tail than the envelope allows, or rounding; the bound only falls, so
                # no node passes if the cap fails, and else one passes by the cap, in any block
                summed, block, stop = False, per_block, _MAX_NODES
                cap = float(nodes(_MAX_NODES - 1, _MAX_NODES)[2][0])
                evaluated += 1
                if not cap <= target:
                    raise failure(_MAX_NODES - 1, cap, math.nan)
        count = last + 1
        if len(parts) > 1:  # a one-block scan sums that block's arrays as they are
            term, rounding = np.concatenate(parts), np.concatenate(sizes)
        value = 0.5 - float(term[:count].sum())
        size = float(rounding[:count].sum())
        # the depths of numpy's pairwise sums over the weights and over the nodes
        depth = _sum_depth(w.size) + _sum_depth(count)
    # four roundings a phase term, and the depths of the sums
    roundoff = _EPS * (4 + depth) * size
    # the series' truncation moves each term by at most expm1(T) times its modulus
    series = math.expm1(series_tail) * size if terms else 0.0
    est_err = aliasing + trunc + roundoff + series
    if not est_err <= tol:
        raise failure(last, trunc, roundoff)
    if not -tol <= value <= 1.0 + tol:
        raise ConvergenceError(f"inverted probability {value!r} outside [0, 1]")
    return OracleResult(
        value=min(max(value, 0.0), 1.0),
        method="cf-inversion",
        estimated_abs_error=est_err,
        diagnostics={"sigma": sigma, "mean": mean, "L": half_width, "K": last,
                     "first_scan": first_scan, "nodes": evaluated, "series_terms": terms,
                     "aliasing": aliasing, "truncation": trunc, "roundoff": roundoff,
                     "series": series},
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
