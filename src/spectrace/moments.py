"""Dirac-comb pairings with smooth test functions and their moment expansions.

The linear comb sum g(n eps) expands as (1/eps) int g + sum zeta(-n)
g^{(n)}(0) eps^n / n!, so the negative-integer zeta values act as the
distributional moments.  The squares comb sum g(eps n^2) has *all* moments
zero (zeta at negative even integers) and collapses, up to the n=0 boundary
constant -g(0)/2, to the single Weyl term (2 sqrt(eps))^{-1} int g(x)/sqrt(x).
The omega-variable comb (square roots of the squares comb) fills in a ladder
of half-integer powers instead.

Test functions are a fixed built-in family with closed-form derivatives at 0;
the expansions need exact high-order derivatives, which numerical
differentiation could not deliver.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .invariants import zeta_neg_int

__all__ = [
    "TestFunction",
    "MomentExpansionResult",
    "comb_pairing",
    "euler_maclaurin_expansion",
    "squares_comb_expansion",
    "omega_comb_expansion",
    "moment",
]

_MAX_DERIV = 12
_EPS = sys.float_info.epsilon
# comb indices per array evaluation, which bounds the memory of a long sum
_COMB_CHUNK = 1 << 16


def _exp(a: np.ndarray) -> np.ndarray:
    """math.exp at every element of the 1-D array a.  Not np.exp: numpy's
    SIMD loops may differ from math.exp in the last bit."""
    return np.fromiter(map(math.exp, a.tolist()), dtype=np.float64, count=a.size)


def _comb_sum(term: Callable[[np.ndarray], np.ndarray], first: int, last: int) -> float:
    """math.fsum of term(n) over the integers n = first..last, with term
    evaluated on float64 arrays of at most _COMB_CHUNK consecutive n.  fsum
    rounds the exact total once, so the chunking cannot change the result."""
    return math.fsum(itertools.chain.from_iterable(
        term(np.arange(lo, min(lo + _COMB_CHUNK, last + 1), dtype=np.float64)).tolist()
        for lo in range(first, last + 1, _COMB_CHUNK)
    ))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _tanh_sinh_table(h: float, min_weight: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Tanh-sinh (double-exponential) rule on [-1, 1], Takahasi & Mori (1974):
    nodes +-tanh(pi/2 sinh(kh)) for k = 0, 1, ... while the weight
    h pi/2 cosh(kh) / cosh^2(pi/2 sinh(kh)) is at least min_weight.

    Returns each node's distance 1 - tanh(s) = exp(-s)/cosh(s) from the ends
    of [-1, 1], free of the cancellation in 1 - tanh(s), and its weight.
    """
    gaps, weights = [], []
    k = 0
    while True:
        s = math.pi / 2.0 * math.sinh(k * h)
        w = h * math.pi / 2.0 * math.cosh(k * h) / math.cosh(s) ** 2
        if w < min_weight:
            return tuple(gaps), tuple(weights)
        gaps.append(math.exp(-s) / math.cosh(s))
        weights.append(w)
        k += 1


# h = 1/32 with weights down to 1e-20: 217 nodes
_TS_GAPS, _TS_WEIGHTS = _tanh_sinh_table(1.0 / 32.0, 1e-20)


def _tanh_sinh(fn, lo: float, hi: float) -> tuple[float, float]:
    """int_lo^hi fn by the tanh-sinh rule at step h and at step 2h (every
    other node), both from one set of evaluations."""
    half = 0.5 * (hi - lo)
    vals = [fn(lo + half)]
    vals += [fn(lo + half * g) + fn(hi - half * g) for g in _TS_GAPS[1:]]
    fine = math.fsum(map(operator.mul, _TS_WEIGHTS, vals))
    coarse = 2.0 * math.fsum(map(operator.mul, _TS_WEIGHTS[::2], vals[::2]))
    return half * fine, half * coarse


def quad(fn, lo: float, hi: float) -> float:
    """int_lo^hi fn by a fixed 217-node tanh-sinh rule (h = 1/32).

    Made for the bumps of this module: alone or divided by sqrt(u) or u, they
    come out within 4e-15 relative of 40-digit values.  fn must be finite on
    the closed interval: the outermost nodes, 1e-20 of the width inside each
    end, round onto lo and hi.
    """
    return _tanh_sinh(fn, lo, hi)[0]


@dataclass(frozen=True)
class TestFunction:
    """One of the built-in smooth test functions, optionally argument-scaled.

    kinds: gaussian exp(-x^2), expdecay exp(-x), odd-gaussian x exp(-x^2),
    and bump (compactly supported in (lo, hi) with 0 < lo, so it vanishes to
    all orders at 0).  Each knows its derivatives at 0 up to order 12 in
    closed form and the integrals the expansions need.  rescaled(c) gives
    x -> f(c x) with the tables and integrals transformed exactly, which is
    what makes the comb scaling covariance testable as an identity.
    """

    kind: str
    support: Optional[tuple[float, float]] = None
    scale: float = 1.0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def gaussian() -> "TestFunction":
        return TestFunction("gaussian")

    @staticmethod
    def expdecay() -> "TestFunction":
        return TestFunction("expdecay")

    @staticmethod
    def odd_gaussian() -> "TestFunction":
        return TestFunction("odd-gaussian")

    @staticmethod
    def bump(radius: float = 1.0, lo: Optional[float] = None,
             hi: Optional[float] = None) -> "TestFunction":
        """Bump supported on (lo, hi); default (radius/2, radius)."""
        if lo is None or hi is None:
            lo, hi = radius / 2.0, radius
        if not (0.0 < lo < hi) or math.isinf(hi):
            raise ValueError(f"need 0 < lo < hi finite, got ({lo}, {hi})")
        return TestFunction("bump", (float(lo), float(hi)))

    def rescaled(self, c: float) -> "TestFunction":
        """The function x -> f(c x)."""
        if not (c > 0):
            raise ValueError(f"scale must be positive, got {c}")
        return TestFunction(self.kind, self.support, self.scale * c)

    def __post_init__(self):
        if self.kind not in ("gaussian", "expdecay", "odd-gaussian", "bump"):
            raise ValueError(f"unknown test-function kind {self.kind!r}")
        if (self.kind == "bump") != (self.support is not None):
            raise ValueError("support is for (and only for) bump functions")
        if not (self.scale > 0):
            raise ValueError("scale must be positive")

    # -- evaluation --------------------------------------------------------

    def values(self, x) -> np.ndarray:
        """f at every point of x (a number or a 1-D sequence), as a float64
        array; g(x) is its one-point case.

        Each element goes through the same IEEE operations, and the
        exponentials are math.exp applied per element (np.exp may differ from
        it in the last bit), so a value depends neither on the array it comes
        in nor on numpy's SIMD dispatch.
        """
        return self._base(self.scale * np.array(x, dtype=np.float64, ndmin=1))

    def __call__(self, x: float) -> float:
        return self.values([x])[0].item()

    def _base(self, u: np.ndarray) -> np.ndarray:
        """The unscaled function at every point of u."""
        if self.kind == "gaussian":
            return _exp((-u) * u)
        if self.kind == "expdecay":
            # exp(-u) overflows from u = -710 on; exp(inf) = inf
            return _exp(np.where(u > -700, -u, math.inf))
        if self.kind == "odd-gaussian":
            return u * _exp((-u) * u)
        lo, hi = self.support
        prod = (u - lo) * (hi - u)
        out = np.zeros(u.shape)
        inside = ~(prod <= 0.0)
        out[inside] = _exp(-1.0 / prod[inside])
        return out

    def _base_at(self, u: float) -> float:
        """The unscaled function at one point, for the scalar quadrature."""
        return self._base(np.array([u]))[0].item()

    @property
    def support_interval(self) -> Optional[tuple[float, float]]:
        """Support of the (scaled) function, for bump kinds."""
        if self.support is None:
            return None
        lo, hi = self.support
        return (lo / self.scale, hi / self.scale)

    def deriv0(self, n: int) -> float:
        """Exact n-th derivative at 0, for 0 <= n <= 12."""
        if not 0 <= n <= _MAX_DERIV:
            raise ValueError(f"derivative table covers orders 0..{_MAX_DERIV}, got {n}")
        return self._base_deriv0(n) * self.scale**n

    def _base_deriv0(self, n: int) -> float:
        if self.kind == "gaussian":
            if n % 2:
                return 0.0
            k = n // 2
            return (-1.0) ** k * math.factorial(n) / math.factorial(k)
        if self.kind == "expdecay":
            return (-1.0) ** n
        if self.kind == "odd-gaussian":
            if n % 2 == 0:
                return 0.0
            k = (n - 1) // 2
            return (-1.0) ** k * math.factorial(n) / math.factorial(k)
        return 0.0  # bump vanishes identically near 0

    # -- integrals ---------------------------------------------------------
    # each integral is computed once per instance: the bump ones cost a
    # quadrature, and the expansions ask for them at every epsilon

    def integral(self) -> float:
        """int_0^inf f, closed form except for bump (tanh-sinh quadrature)."""
        return self._integral

    @cached_property
    def _integral(self) -> float:
        if self.kind == "gaussian":
            base = math.sqrt(math.pi) / 2.0
        elif self.kind == "expdecay":
            base = 1.0
        elif self.kind == "odd-gaussian":
            base = 0.5
        else:
            base = self._quad(self._base_at)
        return base / self.scale

    def integral_invsqrt(self) -> float:
        """int_0^inf f(x)/sqrt(x) dx."""
        return self._integral_invsqrt

    @cached_property
    def _integral_invsqrt(self) -> float:
        if self.kind == "gaussian":
            base = math.gamma(0.25) / 2.0
        elif self.kind == "expdecay":
            base = math.sqrt(math.pi)
        elif self.kind == "odd-gaussian":
            base = math.gamma(0.75) / 2.0
        else:
            base = self._quad(lambda u: self._base_at(u) / math.sqrt(u))
        return base / math.sqrt(self.scale)

    def integral_over_x(self) -> float:
        """int_0^inf f(x)/x dx (scale invariant); requires f(0) = 0."""
        return self._integral_over_x

    @cached_property
    def _integral_over_x(self) -> float:
        if self.kind == "odd-gaussian":
            return math.sqrt(math.pi) / 2.0
        if self.kind == "bump":
            return self._quad(lambda u: self._base_at(u) / u)
        raise ValueError(f"int f/x diverges for {self.kind} (f(0) != 0)")

    def _quad(self, fn) -> float:
        lo, hi = self.support
        return quad(fn, lo, hi)

    # -- tail control ------------------------------------------------------

    @property
    def monotone_from(self) -> float:
        """Point beyond which |f| is nonincreasing."""
        if self.kind == "odd-gaussian":
            return math.sqrt(0.5) / self.scale
        if self.kind == "bump":
            return self.support[1] / self.scale
        return 0.0

    def tail_integral(self, c: float) -> float:
        """Upper bound on int_c^inf |f|, c >= 0."""
        return self._base_tail(self.scale * c) / self.scale

    def _base_tail(self, c: float) -> float:
        if self.kind == "gaussian":
            return math.sqrt(math.pi) * math.erfc(c) / 2.0
        if self.kind == "expdecay":
            return math.exp(-c) if c < 700 else 0.0
        if self.kind == "odd-gaussian":
            if c <= 0.0:
                return 1.0
            return math.exp(-c * c) / 2.0 if c < 26 else 0.0
        lo, hi = self.support
        if c >= hi:
            return 0.0
        a = max(lo, c)
        fine, coarse = _tanh_sinh(self._base_at, a, hi)
        # Discretisation: the rule's error falls doubly exponentially in 1/h,
        # so |fine - coarse| bounds the error of fine.  Rounding: node
        # positions are off by at most 3 eps hi, moving the sum by at most
        # 3 eps hi TV(f) <= 6 eps hi f_top (f is unimodal, at most f_top on
        # [a, hi]); each f = exp(-1/p) carries a relative error of at most
        # eps (4/p + 1), and f/p <= f_top / min(p_top, 1) on [a, hi].  16 eps
        # covers both and the final scalings.  Terms that underflow lose less
        # than 1e-300 each.
        top = max(a, 0.5 * (lo + hi))
        p_top = (top - lo) * (hi - top)
        f_top = self._base_at(top)
        rounding = 16.0 * _EPS * f_top * (hi + (hi - a) / min(p_top, 1.0)) if f_top else 0.0
        return fine + abs(fine - coarse) + rounding + (hi - a) * 1e-300

    def tail_integral_invsqrt(self, c: float) -> float:
        """Upper bound on int_c^inf |f(x)|/sqrt(x) dx, c > 0."""
        if self.kind == "expdecay":
            cc = self.scale * c
            base = math.sqrt(math.pi) * math.erfc(math.sqrt(cc)) if cc < 1e6 else 0.0
            return base / math.sqrt(self.scale)
        if self.kind == "bump" and c >= self.support[1] / self.scale:
            return 0.0
        return self.tail_integral(c) / math.sqrt(c)


@dataclass(frozen=True)
class MomentExpansionResult:
    """lhs: exact comb pairing; rhs: truncated expansion; terms[0] is the
    Weyl (integral) term and terms[k>=1] are the moment terms."""

    epsilon: float
    order: int
    lhs: float
    rhs: float
    terms: tuple[float, ...]

    @property
    def abs_error(self) -> float:
        return abs(self.lhs - self.rhs)


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

def comb_pairing(kind: str, eps: float, g: TestFunction, tol: float = 1e-13) -> float:
    """sum_{n>=1} g(n eps) (linear) or g(eps n^2) (squares), to tolerance tol.

    Truncation is certified by the integral test once the arguments pass the
    function's monotone point; bump supports make the sum finite outright.
    """
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    if kind not in ("linear", "squares"):
        raise ValueError(f"kind must be 'linear' or 'squares', got {kind!r}")

    # the sampled arguments, n eps or eps n^2, as the scalar formulas round them
    if kind == "linear":
        def term(n: np.ndarray) -> np.ndarray:
            return g.values(n * eps)
    else:
        def term(n: np.ndarray) -> np.ndarray:
            return g.values(eps * n * n)

    if g.kind == "bump":
        lo, hi = g.support_interval
        if kind == "linear":
            lo_n, hi_n = math.ceil(lo / eps), math.floor(hi / eps)
        else:
            lo_n, hi_n = math.ceil(math.sqrt(lo / eps)), math.floor(math.sqrt(hi / eps))
        return _comb_sum(term, max(lo_n, 1), hi_n)

    if kind == "linear":
        def tail_after(n: int) -> float:
            return g.tail_integral(n * eps) / eps
        # first index beyond which |g| decreases along the sampled arguments
        n_mono = int(math.ceil(g.monotone_from / eps)) + 1
    else:
        def tail_after(n: int) -> float:
            c = eps * n * n
            return g.tail_integral_invsqrt(c) / (2.0 * math.sqrt(eps))
        n_mono = int(math.ceil(math.sqrt(g.monotone_from / eps))) + 1

    n_stop = max(n_mono, 4)
    while tail_after(n_stop) > tol:
        n_stop *= 2
        if n_stop > 10**9:
            raise ValueError("comb pairing does not converge to the requested tolerance")
    return _comb_sum(term, 1, n_stop)


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------

def euler_maclaurin_expansion(g: TestFunction, eps: float, M: int) -> MomentExpansionResult:
    """Linear comb vs its expansion through moment order M:
    rhs = (1/eps) int_0^inf g + sum_{n=0}^{M} zeta(-n) g^{(n)}(0) eps^n / n!.
    """
    if not 0 <= M <= 10:
        raise ValueError(f"M must be in 0..10, got {M}")
    if M > _MAX_DERIV:
        raise ValueError("derivative table does not cover the requested order")
    terms = [g.integral() / eps]
    for n in range(M + 1):
        zn = zeta_neg_int(n)
        terms.append(float(zn) * g.deriv0(n) * eps**n / math.factorial(n))
    lhs = comb_pairing("linear", eps, g)
    return MomentExpansionResult(
        epsilon=eps, order=M, lhs=lhs, rhs=math.fsum(terms), terms=tuple(terms)
    )


def squares_comb_expansion(g: TestFunction, eps: float) -> MomentExpansionResult:
    """Squares comb vs its single Weyl term (2 sqrt(eps))^{-1} int g(x)/sqrt(x).

    Every moment term vanishes (zeta at negative even integers is zero), so
    rhs is the integral term alone.  With the n >= 1 summation convention the
    pairing satisfies lhs - rhs -> -g(0)/2 up to an error beyond all orders:
    the constant is the n=0 boundary term, kept out of rhs deliberately and
    carried explicitly by callers.
    """
    lhs = comb_pairing("squares", eps, g)
    weyl = g.integral_invsqrt() / (2.0 * math.sqrt(eps))
    return MomentExpansionResult(
        epsilon=eps, order=0, lhs=lhs, rhs=weyl, terms=(weyl,)
    )


def omega_comb_expansion(phi: TestFunction, eps: float, M: int) -> MomentExpansionResult:
    """Square-root comb pairing and its half-integer-power expansion.

    lhs = sum_{n>=1} (sqrt(eps)/(2n)) phi(sqrt(eps) n), the pairing the
    squares comb induces in the frequency variable (each root of
    omega^2/eps = n^2 carries weight sqrt(eps)/(2n)).  The expansion is
    rhs = (sqrt(eps)/2) int_0^inf phi(w)/w dw
        + sum_{n=0}^{M} zeta(-n) eps^{(n+2)/2} phi^{(n+1)}(0) / (2 (n+1)!),
    whose moment terms climb in half-integer steps of eps.  Requires
    phi(0) = 0 so the leading integral converges.
    """
    if phi.kind not in ("odd-gaussian", "bump"):
        raise ValueError(
            f"phi(0) != 0 for {phi.kind}; the leading integral int phi/w diverges"
        )
    if not 0 <= M <= _MAX_DERIV - 1:
        raise ValueError(f"M must be in 0..{_MAX_DERIV - 1}, got {M}")
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")

    root = math.sqrt(eps)

    def term(n: np.ndarray) -> np.ndarray:
        return (root / (2.0 * n)) * phi.values(root * n)

    if phi.kind == "bump":
        lo, hi = phi.support_interval
        lhs = _comb_sum(term, max(1, math.ceil(lo / root)), math.floor(hi / root))
    else:
        # term magnitude <= (sqrt(eps)/2) |phi(sqrt(eps) n)|, so the plain
        # linear-comb tail bound applies after dividing by sqrt(eps)
        n_stop = max(int(math.ceil(phi.monotone_from / root)) + 1, 4)
        while phi.tail_integral(n_stop * root) / 2.0 > 1e-15:
            n_stop *= 2
        lhs = _comb_sum(term, 1, n_stop)

    terms = [(root / 2.0) * phi.integral_over_x()]
    for n in range(M + 1):
        zn = zeta_neg_int(n)
        terms.append(
            float(zn) * eps ** ((n + 2) / 2.0) * phi.deriv0(n + 1)
            / (2.0 * math.factorial(n + 1))
        )
    return MomentExpansionResult(
        epsilon=eps, order=M, lhs=lhs, rhs=math.fsum(terms), terms=tuple(terms)
    )


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------

def moment(kind: str, k: int) -> Fraction:
    """k-th moment of the comb, exact: zeta(-k) for the linear comb, 0 for
    the squares comb (zeta at negative even integers).

    The linear value is computed through the alternating (eta) series via a
    finite Euler transform, deliberately a different route from the Bernoulli
    recurrence so the two tables cross-check each other.
    """
    if kind not in ("linear", "squares"):
        raise ValueError(f"kind must be 'linear' or 'squares', got {kind!r}")
    if not 0 <= k <= 30:
        raise ValueError(f"k must be in 0..30, got {k}")
    if kind == "squares":
        return Fraction(0)
    # eta(-k) = sum_j 2^{-(j+1)} sum_{i<=j} (-1)^i C(j,i) (i+1)^k  (finite)
    eta = Fraction(0)
    for j in range(k + 1):
        inner = sum((-1) ** i * math.comb(j, i) * (i + 1) ** k for i in range(j + 1))
        eta += Fraction(inner, 2 ** (j + 1))
    return eta / (1 - 2 ** (k + 1))
