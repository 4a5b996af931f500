"""Dirac-comb pairings with smooth test functions and their moment expansions.

Every comb pairing expands as a Weyl term built from one Mellin transform,
G(s) = int_0^inf x^(s-1) g(x) dx, plus moment terms zeta(-k) g^(k)(0)
eps^k / k!.  The linear comb sum g(n eps) expands as G(1)/eps + sum zeta(-n)
g^{(n)}(0) eps^n / n!, so the negative-integer zeta values act as the
distributional moments.  The squares comb sum g(eps n^2) has *all* moments
zero (zeta at negative even integers) and collapses, up to the n=0 boundary
constant -g(0)/2, to the single Weyl term G(1/2) / (2 sqrt(eps)).  The
omega-variable comb (square roots of the squares comb) has the Weyl term
(sqrt(eps)/2) G(0) and fills in a ladder of half-integer powers instead.

Test functions are a fixed built-in family with closed-form derivatives at 0;
the expansions need exact high-order derivatives, which numerical
differentiation could not deliver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import spectra, traces
from .invariants import zeta_neg_int

__all__ = [
    "TestFunction",
    "MomentExpansionResult",
    "comb_pairing",
    "comb_expansion",
    "moment",
]

_MAX_DERIV = 12
# absolute tail bounds at which comb_pairing and the omega comb stop summing
_COMB_TOL = 1e-14
_OMEGA_COMB_TOL = 1e-15


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
    its values there; it is called once.  Made for the bump's Mellin
    transforms: at s = 1, 1/2 and 0 they come out within 4e-15 relative of
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
    closed form and its Mellin transform, the one integral the expansions
    need.  rescaled(c) gives x -> f(c x) with the tables and integrals
    transformed exactly, which is what makes the comb scaling covariance
    testable as an identity.
    """

    kind: str
    support: Optional[tuple[float, float]] = None
    scale: float = 1.0
    _mellin_base: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

        Each element goes through the same IEEE operations and one np.exp
        call, so a value does not depend on the array it comes in; np.exp's
        last bit depends on the machine (see spectrace.traces).
        """
        x = np.array(x, dtype=np.float64, ndmin=1)
        # a rescaled argument past the float range is the infinity _base maps
        # to the function's value there, as u * u is
        with np.errstate(over="ignore"):
            u = self.scale * x
        return self._base(u)

    def __call__(self, x: float) -> float:
        return self.values([x])[0].item()

    def _base(self, u: np.ndarray) -> np.ndarray:
        """The unscaled function at every point of u.  Overflow is silent:
        u * u or a bump's (u - lo) * (hi - u) past the float range gives an
        infinity whose exponential, exp(-inf) = 0 or exp(-1/inf) = 1, is the
        function's value there; expdecay's exp(-u) is inf from u = -709.79
        on; an infinite u gives the function's limit."""
        with np.errstate(over="ignore"):
            if self.kind == "gaussian":
                return np.exp((-u) * u)
            if self.kind == "expdecay":
                return np.exp(-u)
            if self.kind == "odd-gaussian":
                # an infinite u would make inf * 0 = NaN; the largest float
                # gives the limit +-0
                return np.clip(u, -spectra._MAX_FLOAT, spectra._MAX_FLOAT) * np.exp((-u) * u)
            lo, hi = self.support
            prod = (u - lo) * (hi - u)
            out = np.zeros(u.shape)
            inside = ~(prod <= 0.0)
            out[inside] = np.exp(-1.0 / prod[inside])
            return out

    def deriv0(self, n: int) -> float:
        """Exact n-th derivative at 0, for 0 <= n <= 12."""
        if not 0 <= n <= _MAX_DERIV:
            raise ValueError(f"derivative table covers orders 0..{_MAX_DERIV}, got {n}")
        return self._base_deriv0(n) * self.scale**n

    def _base_deriv0(self, n: int) -> float:
        if self.kind == "expdecay":
            return (-1.0) ** n
        # x exp(-x^2) has n times the (n-1)-th derivative of exp(-x^2) at 0
        odd = self.kind == "odd-gaussian"
        if self.kind == "bump" or (n - odd) % 2:
            return 0.0  # a bump vanishes identically near 0
        k = (n - odd) // 2
        return (-1.0) ** k * math.factorial(n) / math.factorial(k)

    # -- Mellin transform --------------------------------------------------

    def mellin(self, s: float) -> float:
        """int_0^inf x^(s-1) f(x) dx, the Weyl integral of the combs (s = 1
        linear, 1/2 squares, 0 omega): Gamma(s/2)/2, Gamma(s), Gamma((s+1)/2)/2
        for gaussian, expdecay, odd-gaussian, a bump's by quadrature, made
        once per instance and s.  A rescaled function's is the unscaled one
        over scale^s.  ValueError for s <= 0 on gaussian or expdecay, whose
        integral diverges at 0."""
        base = self._mellin_base.get(s)
        if base is None:
            base = self._mellin_base[s] = self._base_mellin(s)
        return base / self.scale**s

    def _base_mellin(self, s: float) -> float:
        if self.kind == "odd-gaussian":
            return math.gamma((s + 1.0) / 2.0) / 2.0
        if self.kind == "bump":
            return quad(lambda u: self._base(u) / u ** (1.0 - s), *self.support)
        if not s > 0:
            raise ValueError(f"int x^(s-1) f diverges at s = {s!r} for {self.kind} (f(0) != 0)")
        return math.gamma(s / 2.0) / 2.0 if self.kind == "gaussian" else math.gamma(s)

    # -- tail control ------------------------------------------------------

    @property
    def monotone_from(self) -> float:
        """Point beyond which |f| is nonincreasing."""
        if self.kind == "odd-gaussian":
            return math.sqrt(0.5) / self.scale
        if self.kind == "bump":
            return self.support[1] / self.scale
        return 0.0

    def tail_mellin(self, s: float, c: float) -> float:
        """Upper bound on int_c^inf x^(s-1) |f(x)| dx, the tail of mellin(s)
        that the linear (s = 1, c >= 0) and squares (s = 1/2, c > 0) combs
        drop: the closed form times traces._BOUND_SLACK plus the least
        normal float, 2^-1022, above its rounding and the coarse subnormal
        steps at every finite c; 0.0 at c = inf or NaN.  ValueError for a
        bump: its comb sums end at its support and leave no tail to bound."""
        if s not in (1.0, 0.5):
            raise ValueError(f"tail bounds cover s = 1 and 1/2, got {s}")
        if self.kind == "bump":
            raise ValueError("a bump has no tail bound: its comb sums end at its support")
        u = self.scale * c
        # math.exp and math.erfc underflow to 0.0 without raising
        if s == 0.5 and self.kind == "expdecay":
            tail = math.sqrt(math.pi / self.scale) * math.erfc(math.sqrt(u))
        elif self.kind == "expdecay":
            tail = math.exp(-u) / self.scale
        elif self.kind == "gaussian":
            tail = math.sqrt(math.pi) * math.erfc(u) / 2.0 / self.scale
        else:
            tail = (1.0 if u <= 0.0 else math.exp(-u * u) / 2.0) / self.scale
        if s == 0.5 and self.kind != "expdecay":
            tail /= math.sqrt(c)  # x^(-1/2) <= c^(-1/2) past c
        return tail * traces._BOUND_SLACK + 2.0**-1022 if c < math.inf else 0.0


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
# pairings and their expansions
# ---------------------------------------------------------------------------

def comb_pairing(kind: str, eps: float, g: TestFunction) -> float:
    """The comb of kind at spacing eps paired with g, cut by _comb: a bump's
    sum ends at its support, any other once the integral test bounds the
    dropped tail by _COMB_TOL = 1e-14 (_OMEGA_COMB_TOL = 1e-15 for omega).

    linear: sum_{n>=1} g(n eps); squares: sum_{n>=1} g(eps n^2); omega:
    sum_{n>=1} (sqrt(eps)/(2n)) g(sqrt(eps) n), the pairing the squares comb
    induces in the frequency variable (each root of omega^2/eps = n^2
    carries weight sqrt(eps)/(2n)).
    """
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")

    # the sampled arguments, n eps, eps n^2 or sqrt(eps) n, as the scalar
    # formulas round them
    if kind == "linear":
        return _comb(g, eps, lambda x: x / eps, lambda n: g.values(n * eps),
                     lambda n: g.tail_mellin(1.0, n * eps) / eps, _COMB_TOL)
    if kind == "squares":
        return _comb(g, eps, lambda x: math.sqrt(x / eps), lambda n: g.values(eps * n * n),
                     lambda n: g.tail_mellin(0.5, eps * n * n) / (2.0 * math.sqrt(eps)),
                     _COMB_TOL)
    if kind == "omega":
        # term magnitude <= (sqrt(eps)/2) |g(sqrt(eps) n)|, so the plain
        # linear-comb tail bound applies after dividing by sqrt(eps)
        root = math.sqrt(eps)
        return _comb(g, eps, lambda x: x / root, lambda n: (root / (2.0 * n)) * g.values(root * n),
                     lambda n: g.tail_mellin(1.0, n * root) / 2.0, _OMEGA_COMB_TOL)
    raise ValueError(f"kind must be 'linear', 'squares' or 'omega', got {kind!r}")


def _comb(g: TestFunction, eps: float, index_of, term, tail_after, tol: float) -> float:
    """The sum of term(n), n >= 1, of a comb at spacing eps that samples g at
    x at the real index index_of(x), increasing in x: over the indices inside
    a bump's support, else from 1 to the smallest n >= 4 past g's monotone
    point with tail_after(n), a bound on the terms beyond n, at most tol.
    ValueError, before any term is summed, for more indices than the term
    budget; the real indices meet the cap before they become ints, as they
    pass the float range for a subnormal eps."""
    cap = spectra.DEFAULT_MAX_TERMS
    if g.kind == "bump":
        lo, hi = (end / g.scale for end in g.support)
        first, last = max(index_of(lo), 1.0), index_of(hi)
        if last - first < cap:
            return traces._index_sum(term, math.ceil(first), math.floor(last))
    else:
        # first index beyond which |g| decreases along the sampled arguments
        n_mono = math.ceil(min(index_of(g.monotone_from), cap)) + 1
        stop = _smallest_stop(lambda n: tail_after(n) <= tol, max(n_mono, 4))
        if stop is not None:
            return traces._index_sum(term, 1, stop)
    raise ValueError(f"comb sum at eps={eps!r} would take more than the cap of "
                     f"{cap} indices")


def _smallest_stop(certified: Callable[[int], bool], n: int) -> Optional[int]:
    """The smallest n_stop >= n with certified(n_stop), for a test that stays
    true once true (a tail bound past the monotone point): double n until it
    holds, then bisect between the last doubling that failed and the first
    that held.  None when n passes the term budget before the test holds."""
    cap = spectra.DEFAULT_MAX_TERMS
    failed = None
    while n <= cap and not certified(n):
        failed, n = n, 2 * n
    if n > cap:
        return None
    while failed is not None and n - failed > 1:
        mid = (failed + n) // 2
        if certified(mid):
            n = mid
        else:
            failed = mid
    return n


def _eps_power(eps: float, p: float) -> float:
    """eps^p of a moment term; one past the float range raises ValueError."""
    try:
        return eps**p
    except OverflowError:
        raise ValueError(f"eps = {eps!r} puts the moment term eps^{p:g} past the "
                         "float range") from None


def comb_expansion(kind: str, g: TestFunction, eps: float, M: int) -> MomentExpansionResult:
    """comb_pairing(kind, eps, g) against its expansion through moment
    order M, whose Weyl term is built from G(s) = g.mellin(s):

    linear:  rhs = G(1)/eps + sum_{n=0}^{M} zeta(-n) g^{(n)}(0) eps^n / n!,
             for M in 0..10.
    squares: rhs = G(1/2) / (2 sqrt(eps)) alone: every moment term has
             zeta(-2k) = 0, so M is ignored and the order is 0.  With the
             n >= 1 convention lhs - rhs -> -g(0)/2 up to an error beyond
             all orders; that n=0 boundary constant is kept out of rhs and
             carried explicitly by callers.
    omega:   rhs = (sqrt(eps)/2) G(0)
                 + sum_{n=0}^{M} zeta(-n) eps^{(n+2)/2} g^{(n+1)}(0) / (2 (n+1)!),
             for M in 0..11, whose moment terms climb in half-integer steps
             of eps.  Requires g(0) = 0 so the leading integral converges.
    """
    if kind == "linear" and not 0 <= M <= 10:
        raise ValueError(f"M must be in 0..10, got {M}")
    if kind == "omega":
        if g.kind not in ("odd-gaussian", "bump"):
            raise ValueError(f"phi(0) != 0 for {g.kind}; the leading integral "
                             "int phi/w diverges")
        if not 0 <= M <= _MAX_DERIV - 1:
            raise ValueError(f"M must be in 0..{_MAX_DERIV - 1}, got {M}")
    # the linear comb refuses an overflowing moment term before a sum past
    # the term budget, the others the other way round
    lhs = None if kind == "linear" else comb_pairing(kind, eps, g)
    if kind == "linear":
        terms = [g.mellin(1.0) / eps] + [
            float(zeta_neg_int(n)) * g.deriv0(n) * _eps_power(eps, n) / math.factorial(n)
            for n in range(M + 1)]
        lhs = comb_pairing(kind, eps, g)
    elif kind == "squares":
        terms, M = [g.mellin(0.5) / (2.0 * math.sqrt(eps))], 0
    else:
        terms = [(math.sqrt(eps) / 2.0) * g.mellin(0.0)] + [
            float(zeta_neg_int(n)) * _eps_power(eps, (n + 2) / 2.0) * g.deriv0(n + 1)
            / (2.0 * math.factorial(n + 1))
            for n in range(M + 1)]
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
