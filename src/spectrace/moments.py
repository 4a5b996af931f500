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
# comb indices per array evaluation, which bounds the memory of a long sum
_COMB_CHUNK = 1 << 16
# absolute tail bounds at which comb_pairing and the omega comb stop summing
_COMB_TOL = 1e-14
_OMEGA_COMB_TOL = 1e-15
# indices one comb sum may take; a bump window or a stop past it is refused
_MAX_COMB_INDEX = 10**9


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

def _tanh_sinh_table(h: float, min_weight: float) -> tuple[np.ndarray, np.ndarray]:
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
            return np.array(gaps), np.array(weights)
        gaps.append(math.exp(-s) / math.cosh(s))
        weights.append(w)
        k += 1


# h = 1/32 with weights down to 1e-20: 217 nodes
_TS_GAPS, _TS_WEIGHTS = _tanh_sinh_table(1.0 / 32.0, 1e-20)


def quad(fn, lo: float, hi: float) -> float:
    """int_lo^hi fn by a fixed 217-node tanh-sinh rule (h = 1/32), with no
    error estimate.

    fn takes a 1-D float64 array of nodes and returns the float64 array of
    its values there; it is called once.  Made for the bump integrals: alone
    or divided by sqrt(u) or u, they come out within 4e-15 relative of
    40-digit values.  fn must be finite on the closed interval: the outermost
    nodes, 1e-20 of the width inside each end, round onto lo and hi.
    """
    half = 0.5 * (hi - lo)
    g = _TS_GAPS[1:]
    f = fn(np.concatenate(([lo + half], lo + half * g, hi - half * g)))
    vals = np.concatenate((f[:1], f[1:g.size + 1] + f[g.size + 1:]))
    return half * math.fsum((_TS_WEIGHTS * vals).tolist())


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
    def bump(lo: float, hi: float) -> "TestFunction":
        """Bump supported on (lo, hi)."""
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
            base = quad(self._base, *self.support)
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
            base = quad(lambda u: self._base(u) / np.sqrt(u), *self.support)
        return base / math.sqrt(self.scale)

    def integral_over_x(self) -> float:
        """int_0^inf f(x)/x dx (scale invariant); requires f(0) = 0."""
        return self._integral_over_x

    @cached_property
    def _integral_over_x(self) -> float:
        if self.kind == "odd-gaussian":
            return math.sqrt(math.pi) / 2.0
        if self.kind == "bump":
            return quad(lambda u: self._base(u) / u, *self.support)
        raise ValueError(f"int f/x diverges for {self.kind} (f(0) != 0)")

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
        """Upper bound on int_c^inf |f|, c >= 0.  ValueError for a bump: its
        comb sums end at its support and leave no tail to bound."""
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
        raise ValueError("a bump has no tail bound: its comb sums end at its support")

    def tail_integral_invsqrt(self, c: float) -> float:
        """Upper bound on int_c^inf |f(x)|/sqrt(x) dx, c > 0."""
        if self.kind == "expdecay":
            cc = self.scale * c
            base = math.sqrt(math.pi) * math.erfc(math.sqrt(cc)) if cc < 1e6 else 0.0
            return base / math.sqrt(self.scale)
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

def comb_pairing(kind: str, eps: float, g: TestFunction) -> float:
    """sum_{n>=1} g(n eps) (linear) or g(eps n^2) (squares), cut by _comb:
    a bump's sum ends at its support, any other once the integral test
    bounds the dropped tail by _COMB_TOL = 1e-14."""
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    if kind not in ("linear", "squares"):
        raise ValueError(f"kind must be 'linear' or 'squares', got {kind!r}")

    # the sampled arguments, n eps or eps n^2, as the scalar formulas round them
    if kind == "linear":
        return _comb(g, eps, lambda x: x / eps, lambda n: g.values(n * eps),
                     lambda n: g.tail_integral(n * eps) / eps, _COMB_TOL)
    return _comb(g, eps, lambda x: math.sqrt(x / eps), lambda n: g.values(eps * n * n),
                 lambda n: g.tail_integral_invsqrt(eps * n * n) / (2.0 * math.sqrt(eps)),
                 _COMB_TOL)


def _comb(g: TestFunction, eps: float, index_of, term, tail_after, tol: float) -> float:
    """The sum of term(n), n >= 1, of a comb at spacing eps that samples g at
    x at the real index index_of(x), increasing in x: over the indices inside
    a bump's support, else from 1 to the smallest n >= 4 past g's monotone
    point with tail_after(n), a bound on the terms beyond n, at most tol.
    ValueError, before any term is summed, for more than _MAX_COMB_INDEX
    indices; the real indices meet the cap before they become ints, as they
    pass the float range for a subnormal eps."""
    if g.kind == "bump":
        lo, hi = g.support_interval
        first, last = max(index_of(lo), 1.0), index_of(hi)
        if last - first < _MAX_COMB_INDEX:
            return _comb_sum(term, math.ceil(first), math.floor(last))
    else:
        # first index beyond which |g| decreases along the sampled arguments
        n_mono = math.ceil(min(index_of(g.monotone_from), _MAX_COMB_INDEX)) + 1
        stop = _smallest_stop(lambda n: tail_after(n) <= tol, max(n_mono, 4))
        if stop is not None:
            return _comb_sum(term, 1, stop)
    raise ValueError(f"comb sum at eps={eps!r} would take more than the cap of "
                     f"{_MAX_COMB_INDEX} indices")


def _smallest_stop(certified: Callable[[int], bool], n: int) -> Optional[int]:
    """The smallest n_stop >= n with certified(n_stop), for a test that stays
    true once true (a tail bound past the monotone point): double n until it
    holds, then bisect between the last doubling that failed and the first
    that held.  None when n passes _MAX_COMB_INDEX before the test holds."""
    failed = None
    while n <= _MAX_COMB_INDEX and not certified(n):
        failed, n = n, 2 * n
    if n > _MAX_COMB_INDEX:
        return None
    while failed is not None and n - failed > 1:
        mid = (failed + n) // 2
        if certified(mid):
            n = mid
        else:
            failed = mid
    return n


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------

def euler_maclaurin_expansion(g: TestFunction, eps: float, M: int) -> MomentExpansionResult:
    """Linear comb vs its expansion through moment order M:
    rhs = (1/eps) int_0^inf g + sum_{n=0}^{M} zeta(-n) g^{(n)}(0) eps^n / n!.
    """
    if not 0 <= M <= 10:
        raise ValueError(f"M must be in 0..10, got {M}")
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

    # term magnitude <= (sqrt(eps)/2) |phi(sqrt(eps) n)|, so the plain
    # linear-comb tail bound applies after dividing by sqrt(eps)
    lhs = _comb(phi, eps, lambda x: x / root, lambda n: (root / (2.0 * n)) * phi.values(root * n),
                lambda n: phi.tail_integral(n * root) / 2.0, _OMEGA_COMB_TOL)

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
