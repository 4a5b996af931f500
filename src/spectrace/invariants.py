"""Exact special values and the coefficient relations between trace expansions.

The small-time expansions of the heat trace (coefficients b_s, half-integer
powers of t) and of the cylinder trace (coefficients e_s, f_s, integer powers
and possible log terms) are tied to each other and to Riesz-mean coefficients
by Gamma-factor identities.  Those identities are exact, so this module keeps
everything in rational / sqrt(pi) arithmetic; floats enter only when a fitted
coefficient is fed through a relation.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

__all__ = [
    "EULER_GAMMA",
    "ExactCoeff",
    "ExpansionTerm",
    "AsymptoticExpansion",
    "bernoulli_numbers",
    "zeta_neg_int",
    "gamma_half",
    "heat_to_cylinder",
    "riesz_to_trace",
    "expansion_product",
    "expansion_derivative",
    "casimir_energy",
    "heat_expansion",
    "cylinder_expansion",
    "expansion_to_json",
]

# Euler-Mascheroni constant, 30 significant digits (enough for psi(nu)).
EULER_GAMMA = 0.577215664901532860606512090082


# ---------------------------------------------------------------------------
# Exact scalars
# ---------------------------------------------------------------------------

_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli_numbers(n: int) -> list[Fraction]:
    """Bernoulli numbers B_0..B_n as exact fractions (convention B_1 = -1/2).

    Computed by the defining recurrence sum_{j<=m} C(m+1,j) B_j = 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        acc = Fraction(0)
        for j, bj in enumerate(_BERNOULLI):
            acc += math.comb(m + 1, j) * bj
        _BERNOULLI.append(-acc / (m + 1))
    return list(_BERNOULLI[: n + 1])


def zeta_neg_int(n: int) -> Fraction:
    """zeta(-n) for integer 0 <= n <= 60, exact: (-1)^n B_{n+1} / (n+1)."""
    if not 0 <= n <= 60:
        raise ValueError(f"zeta_neg_int supports 0 <= n <= 60, got {n}")
    b = bernoulli_numbers(n + 1)[n + 1]
    return (b if n % 2 == 0 else -b) / (n + 1)


@dataclass(frozen=True)
class ExactCoeff:
    """Exact number of the form sum_k q_k * pi^(k/2) with rational q_k.

    Closed under the arithmetic the relation identities need: Gamma at
    half-integer arguments contributes sqrt(pi) factors, and products of
    one-dimensional expansions contribute integer powers of pi.

    Arithmetic with an int, Fraction or ExactCoeff stays exact; with any other
    real (a fitted float) it is float(self) op float(other), so one formula
    serves exact and fitted coefficients alike.  Division is exact by a
    single-part q * pi^(k/2).
    """

    parts: tuple[tuple[int, Fraction], ...]  # sorted (half-power of pi, coeff)

    @staticmethod
    def from_rational(q) -> "ExactCoeff":
        return ExactCoeff._make({0: Fraction(q)})

    @staticmethod
    def sqrt_pi(q=1) -> "ExactCoeff":
        return ExactCoeff._make({1: Fraction(q)})

    @staticmethod
    def _make(d: dict[int, Fraction]) -> "ExactCoeff":
        items = tuple(sorted((k, v) for k, v in d.items() if v != 0))
        return ExactCoeff(items)

    def _binary(self, other, exact, inexact):
        # the numeric rule: rationals join exactly, other reals demote to float
        if isinstance(other, (int, Fraction)):
            other = ExactCoeff.from_rational(other)
        if isinstance(other, ExactCoeff):
            return exact(self, other)
        if isinstance(other, numbers.Real):
            return inexact(float(self), float(other))
        return NotImplemented

    def _add(self, other: "ExactCoeff") -> "ExactCoeff":
        d = dict(self.parts)
        for k, v in other.parts:
            d[k] = d.get(k, Fraction(0)) + v
        return ExactCoeff._make(d)

    def _mul(self, other: "ExactCoeff") -> "ExactCoeff":
        d: dict[int, Fraction] = {}
        for ka, va in self.parts:
            for kb, vb in other.parts:
                d[ka + kb] = d.get(ka + kb, Fraction(0)) + va * vb
        return ExactCoeff._make(d)

    def _inverse(self) -> "ExactCoeff":
        if not self.parts:
            raise ZeroDivisionError("division by an exact zero")
        if len(self.parts) != 1:
            raise ValueError(f"only a single-part q*pi^(k/2) has an exact inverse, not {self}")
        ((k, v),) = self.parts
        return ExactCoeff(((-k, 1 / v),))

    def __add__(self, other):
        return self._binary(other, ExactCoeff._add, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return ExactCoeff(tuple((k, -v) for k, v in self.parts))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        return self._binary(other, ExactCoeff._mul, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a._mul(b._inverse()), operator.truediv)

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: b._mul(a._inverse()), lambda a, b: b / a)

    def __float__(self) -> float:
        return math.fsum(float(v) * math.pi ** (k / 2) for k, v in self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other):
        # a part with pi^(k/2), k != 0, makes the value irrational, so only a
        # rational ExactCoeff can equal a plain number, and then as its Fraction
        if isinstance(other, ExactCoeff):
            return self.parts == other.parts
        if isinstance(other, numbers.Number):
            return self.is_rational and self.as_fraction() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.as_fraction()) if self.is_rational else hash(self.parts)

    @property
    def is_rational(self) -> bool:
        return all(k == 0 for k, _ in self.parts)

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def as_fraction(self) -> Fraction:
        """The value as a plain rational; raises if a pi factor is present."""
        if not self.parts:
            return Fraction(0)
        if len(self.parts) == 1 and self.parts[0][0] == 0:
            return self.parts[0][1]
        raise ValueError(f"{self} is not rational")

    def __str__(self) -> str:
        return " + ".join(f"{v}{_PI_POWER.get(k, f'*pi^({k}/2)')}" for k, v in self.parts) or "0"


_PI_POWER = {0: "", 1: "*sqrt(pi)", 2: "*pi", -1: "/sqrt(pi)", -2: "/pi"}


def gamma_half(k2: int) -> ExactCoeff:
    """Gamma(k2/2) exactly, for any integer k2 but the poles 0, -2, -4, ...

    Even k2 gives an integer factorial, odd k2 a rational multiple of
    sqrt(pi).
    """
    if k2 % 2 == 0:
        m = k2 // 2
        if m < 1:
            raise ValueError(f"Gamma({m}) is a pole")
        return ExactCoeff.from_rational(math.factorial(m - 1))
    m = (k2 - 1) // 2  # argument is m + 1/2
    if m >= 0:
        q = Fraction(math.factorial(2 * m), 4**m * math.factorial(m))
    else:
        mm = -m  # Gamma(1/2 - mm) = sqrt(pi) (-4)^mm mm! / (2 mm)!
        q = Fraction((-4) ** mm * math.factorial(mm), math.factorial(2 * mm))
    return ExactCoeff.sqrt_pi(q)


# ---------------------------------------------------------------------------
# Expansions
# ---------------------------------------------------------------------------

CoeffLike = Union[float, int, Fraction, ExactCoeff, None]

_STATUSES = ("known", "fitted", "undetermined")


@dataclass(frozen=True)
class ExpansionTerm:
    """One term c * t^p * (log t)^q of a small-t asymptotic expansion."""

    exponent: Fraction
    log_power: int = 0
    coefficient: CoeffLike = None
    status: str = "known"

    def __post_init__(self):
        object.__setattr__(self, "exponent", Fraction(self.exponent))
        if self.log_power not in (0, 1):
            raise ValueError("log_power must be 0 or 1")
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "undetermined" and self.coefficient is not None:
            raise ValueError("undetermined terms carry no coefficient")


@dataclass(frozen=True)
class AsymptoticExpansion:
    """A finite expansion sum_i c_i t^{p_i} (log t)^{q_i} with a dimension tag."""

    dim: int
    terms: tuple[ExpansionTerm, ...]

    def __post_init__(self):
        terms = tuple(sorted(self.terms, key=lambda tm: (tm.exponent, tm.log_power)))
        object.__setattr__(self, "terms", terms)
        seen = set()
        for tm in terms:
            key = (tm.exponent, tm.log_power)
            if key in seen:
                raise ValueError(f"duplicate term at exponent {tm.exponent}, log^{tm.log_power}")
            seen.add(key)

    def term(self, exponent, log_power: int = 0) -> Optional[ExpansionTerm]:
        p = Fraction(exponent)
        for tm in self.terms:
            if tm.exponent == p and tm.log_power == log_power:
                return tm
        return None

    @property
    def has_log_terms(self) -> bool:
        return any(tm.log_power == 1 for tm in self.terms)


def heat_expansion(dim: int, coeffs: Sequence[CoeffLike], status: str = "known") -> AsymptoticExpansion:
    """Heat-trace expansion with coefficients for orders s = 0..len-1 at t^{(s-d)/2}."""
    terms = tuple(
        ExpansionTerm(Fraction(s - dim, 2), 0, c, status)
        for s, c in enumerate(coeffs)
    )
    return AsymptoticExpansion(dim, terms)


def cylinder_expansion(dim: int, coeffs: Sequence[CoeffLike], status: str = "known") -> AsymptoticExpansion:
    """Cylinder-trace expansion with power-term coefficients at t^{s-d}, s = 0..len-1."""
    terms = tuple(
        ExpansionTerm(Fraction(s - dim), 0, c, status)
        for s, c in enumerate(coeffs)
    )
    return AsymptoticExpansion(dim, terms)


def _carries_log(s: int, dim: int) -> bool:
    """Whether order s of a dim-dimensional expansion may carry a log term,
    t^(s-d) log t in the cylinder trace and x^(d-s) log x in the omega-Riesz
    means: exactly where s - d is odd and positive."""
    return s - dim > 0 and (s - dim) % 2 == 1


def _order_of(term: ExpansionTerm, dim: int, half_step: bool) -> int:
    # heat lattice: p = (s-d)/2; cylinder lattice: p = s-d
    s = term.exponent * 2 + dim if half_step else term.exponent + dim
    if s.denominator != 1:
        raise ValueError(f"exponent {term.exponent} is off the expected lattice")
    return int(s)


def _coeff(c) -> CoeffLike:
    """A relation's input coefficient: ints and Fractions become ExactCoeff,
    other numbers float; None (undetermined) passes through."""
    if c is None or isinstance(c, ExactCoeff):
        return c
    if isinstance(c, (int, Fraction)):
        return ExactCoeff.from_rational(c)
    return float(c)


def _scale(factor: ExactCoeff, c: CoeffLike) -> CoeffLike:
    return None if c is None else factor * c


def _status(c: CoeffLike) -> str:
    if c is None:
        return "undetermined"
    return "known" if isinstance(c, ExactCoeff) else "fitted"


def heat_to_cylinder(heat: AsymptoticExpansion) -> AsymptoticExpansion:
    """Map heat coefficients b_s to cylinder coefficients.

    For d-s even or positive, e_s = pi^{-1/2} 2^{d-s} Gamma((d-s+1)/2) b_s.
    For d-s odd and negative only the log coefficient follows,
    f_s = (-1)^{(s-d+1)/2} 2^{d-s+1} b_s / (sqrt(pi) Gamma((s-d+1)/2)),
    and the power coefficient e_s is genuinely undetermined by the heat side;
    it is emitted as an explicit undetermined term.
    """
    d = heat.dim
    out: list[ExpansionTerm] = []
    for tm in heat.terms:
        if tm.log_power != 0:
            raise ValueError("heat expansions carry no log terms")
        s = _order_of(tm, d, half_step=True)
        p = Fraction(s - d)  # cylinder exponent
        b = _coeff(tm.coefficient)
        if _carries_log(s, d):
            out.append(ExpansionTerm(p, 1, _scale(_heat_cylinder_factor(d, s), b), tm.status))
            out.append(ExpansionTerm(p, 0, None, "undetermined"))
        else:
            e = _scale(_heat_cylinder_factor(d, s), b)
            out.append(ExpansionTerm(p, 0, e, tm.status if e is not None else "undetermined"))
    return AsymptoticExpansion(d, tuple(out))


@functools.cache
def _heat_cylinder_factor(d: int, s: int) -> ExactCoeff:
    """heat_to_cylinder's exact factor at order s, built once per (d, s):
    e_s / b_s, or f_s / b_s where s - d is odd and positive."""
    ds = d - s
    if _carries_log(s, d):
        sign = -1 if (s - d + 1) // 2 % 2 else 1
        # Gamma((s-d+1)/2) has a positive integer argument here
        return sign * Fraction(2) ** (ds + 1) / (ExactCoeff.sqrt_pi() * gamma_half(s - d + 1))
    return Fraction(2) ** ds * gamma_half(ds + 1) / ExactCoeff.sqrt_pi()


def riesz_to_trace(variable: str, alpha: int, d: int, coeffs: Sequence[CoeffLike],
                   log_coeffs: Sequence[CoeffLike] = ()) -> AsymptoticExpansion:
    """Trace coefficients from the coefficients of one Riesz mean of order alpha.

    coeffs[s] is the mean's coefficient at x^{(d-s)/2} (variable "lambda")
    or x^{d-s} ("omega") for s = 0..alpha, in the plain normalization
    x^{-alpha} sum (x - x_n)^alpha; log_coeffs[s] is the omega mean's
    x^{d-s} log x coefficient (0 where absent).  Order s relates through
    R = Gamma(alpha+1)/Gamma(nu), nu = alpha+(d-s)/2+1 (lambda) or
    alpha+d-s+1 (omega):
      lambda: b_s = a_{alpha,s}/R, the heat expansion;
      omega:  e_s = c_{alpha,s}/R, and where s - d is odd and positive
              f_s = -d_{alpha,s}/R and e_s = (c_{alpha,s} + psi(nu) d_{alpha,s})/R,
              the cylinder expansion.
    At alpha = s these are the diagonal relations b_s = Gamma((d+s)/2+1) a_ss/s!
    and e_s = d!/s! (c_ss + psi(d+1) d_ss).  Gamma comes from gamma_half, so an
    exact input stays exact; psi(nu) = H_(nu-1) - gamma is a float, so an exact
    c stays exact only beside a zero log coefficient.  Status follows the
    result: exact "known", float "fitted", None "undetermined".  Raises
    ValueError for an unknown variable, a negative alpha or an order past alpha.
    """
    if variable not in ("lambda", "omega"):
        raise ValueError(f"variable must be 'lambda' or 'omega', got {variable!r}")
    if alpha < 0 or max(len(coeffs), len(log_coeffs)) > alpha + 1:
        raise ValueError(f"a Riesz mean of order {alpha} relates the orders s = 0..{alpha}, "
                         f"got {max(len(coeffs), len(log_coeffs))} coefficients")
    omega = variable == "omega"
    terms = []
    for s, c in enumerate(coeffs):
        p = Fraction(s - d) if omega else Fraction(s - d, 2)
        inverse, psi = _riesz_ratio(omega, alpha, d, s)
        c = _coeff(c)
        if omega and _carries_log(s, d):
            dv = _coeff(log_coeffs[s] if s < len(log_coeffs) else 0)
            f = _scale(-inverse, dv)
            terms.append(ExpansionTerm(p, 1, f, _status(f)))
            e = None if c is None or dv is None else inverse * (c + psi * dv if dv else c)
        else:
            e = _scale(inverse, c)
        terms.append(ExpansionTerm(p, 0, e, _status(e)))
    return AsymptoticExpansion(d, tuple(terms))


@functools.cache
def _riesz_ratio(omega: bool, alpha: int, d: int, s: int) -> tuple[ExactCoeff, float]:
    """(1/R, psi(nu)) of riesz_to_trace at order s, built once per
    (variable, alpha, d, s): 1/R = Gamma(nu)/Gamma(alpha+1) exactly, and
    psi(nu) = H_(nu-1) - gamma, which only the omega log orders read."""
    nu2 = 2 * (alpha + d - s + 1) if omega else 2 * alpha + d - s + 2  # 2 nu
    psi = sum(1.0 / k for k in range(1, nu2 // 2)) - EULER_GAMMA
    return gamma_half(nu2) / gamma_half(2 * alpha + 2), psi


def expansion_product(a: AsymptoticExpansion, b: AsymptoticExpansion) -> AsymptoticExpansion:
    """Formal product of two heat-type (log-free) expansions.

    Exponents add, coefficients convolve, dimensions add.  The result is
    truncated at the smaller of the two input orders, past which the
    convolution would be incomplete.  A product term that an undetermined
    factor term feeds is undetermined.
    """
    if a.has_log_terms or b.has_log_terms:
        raise ValueError("expansion_product is defined for log-free expansions only")
    smax_a = max(_order_of(tm, a.dim, half_step=True) for tm in a.terms)
    smax_b = max(_order_of(tm, b.dim, half_step=True) for tm in b.terms)
    scut = min(smax_a, smax_b)
    d = a.dim + b.dim
    acc: dict[Fraction, CoeffLike] = {}
    unknown: set[Fraction] = set()
    fitted = False
    for ta in a.terms:
        for tb in b.terms:
            p = ta.exponent + tb.exponent
            if p * 2 + d > scut:
                continue
            if ta.coefficient is None or tb.coefficient is None:
                unknown.add(p)
                continue
            prod = _coeff(ta.coefficient) * _coeff(tb.coefficient)
            fitted = fitted or ta.status == "fitted" or tb.status == "fitted"
            acc[p] = acc[p] + prod if p in acc else prod
    status = "fitted" if fitted else "known"
    out = {p: ExpansionTerm(p, 0, c, status) for p, c in acc.items()}
    out.update((p, ExpansionTerm(p, 0, None, "undetermined")) for p in unknown)
    return AsymptoticExpansion(d, tuple(out.values()))


def expansion_derivative(e: AsymptoticExpansion) -> AsymptoticExpansion:
    """Term-by-term t-derivative of a trace expansion.

    The t^0 power term is killed exactly (its derivative vanishes even when
    the coefficient is an undetermined invariant), so the derivative carries
    an explicit zero at exponent -1.
    """
    out: list[ExpansionTerm] = []
    for tm in e.terms:
        p = tm.exponent
        c = _coeff(tm.coefficient)
        if tm.log_power == 0:
            if p == 0:
                out.append(ExpansionTerm(Fraction(-1), 0, ExactCoeff.from_rational(0), "known"))
            elif c is None:
                out.append(ExpansionTerm(p - 1, 0, None, "undetermined"))
            else:
                out.append(ExpansionTerm(p - 1, 0, c * p, tm.status))
        elif c is None:
            out.append(ExpansionTerm(p - 1, 1, None, "undetermined"))
        else:
            # f t^p log t -> p f t^{p-1} log t + f t^{p-1}
            if p != 0:
                out.append(ExpansionTerm(p - 1, 1, c * p, tm.status))
            _merge_power_term(out, p - 1, c, tm.status)
    return AsymptoticExpansion(e.dim, tuple(out))


def _merge_power_term(terms: list[ExpansionTerm], p: Fraction, c, status: str):
    for i, tm in enumerate(terms):
        if tm.exponent == p and tm.log_power == 0:
            if tm.coefficient is None:
                return  # undetermined absorbs the contribution
            merged = tm.coefficient + c
            terms[i] = ExpansionTerm(p, 0, merged, status if tm.status == status else "fitted")
            return
    terms.append(ExpansionTerm(p, 0, c, status))


def casimir_energy(cyl: AsymptoticExpansion) -> float:
    """Vacuum energy -e_{d+1}/2 read off a cylinder expansion.

    e_{d+1} sits at exponent +1; equivalently it is the t^0 coefficient of
    the derivative trace, whose -1/2 multiple is the energy.
    """
    tm = cyl.term(Fraction(1), 0)
    if tm is None or tm.status == "undetermined" or tm.coefficient is None:
        raise ValueError("requires fitted cylinder expansion: no usable term at t^1")
    return -float(tm.coefficient) / 2.0


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _serialize_coeff(c) -> Union[str, float, None]:
    c = _coeff(c)
    return str(c) if isinstance(c, ExactCoeff) else c


def expansion_to_json(e: AsymptoticExpansion) -> dict:
    """JSON-ready dict: {dim, terms: [{p, q, c, status}]}, exact c as strings."""
    return {
        "dim": e.dim,
        "terms": [
            {
                "p": str(tm.exponent),
                "q": tm.log_power,
                "c": _serialize_coeff(tm.coefficient),
                "status": tm.status,
            }
            for tm in e.terms
        ],
    }
