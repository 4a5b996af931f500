"""Exact special values and the coefficient relations between trace expansions.

The small-time expansions of the heat trace (coefficients b_s, half-integer
powers of t) and of the cylinder trace (coefficients e_s, f_s, integer powers
and possible log terms) are tied to each other and to Riesz-mean coefficients
by Gamma-factor identities.  Those identities are exact, so this module keeps
everything in rational / sqrt(pi) arithmetic; floats enter only when a fitted
coefficient is fed through a relation.
"""

from __future__ import annotations

import math
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
    "riesz_to_heat",
    "riesz_to_cylinder",
    "expansion_product",
    "expansion_derivative",
    "casimir_energy",
    "heat_expansion",
    "cylinder_expansion",
    "expansion_to_json",
]

# Euler-Mascheroni constant, 30 significant digits (enough for psi(d+1)).
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

    def _as_dict(self) -> dict[int, Fraction]:
        return dict(self.parts)

    def __add__(self, other):
        other = _coerce_exact(other)
        d = self._as_dict()
        for k, v in other.parts:
            d[k] = d.get(k, Fraction(0)) + v
        return ExactCoeff._make(d)

    __radd__ = __add__

    def __neg__(self):
        return ExactCoeff(tuple((k, -v) for k, v in self.parts))

    def __sub__(self, other):
        return self + (-_coerce_exact(other))

    def __mul__(self, other):
        other = _coerce_exact(other)
        d: dict[int, Fraction] = {}
        for ka, va in self.parts:
            for kb, vb in other.parts:
                k = ka + kb
                d[k] = d.get(k, Fraction(0)) + va * vb
        return ExactCoeff._make(d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(other) ** -1
        raise TypeError("ExactCoeff division only by rationals")

    def __float__(self) -> float:
        return math.fsum(float(v) * math.pi ** (k / 2) for k, v in self.parts)

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
        if not self.parts:
            return "0"
        chunks = []
        for k, v in self.parts:
            if k == 0:
                chunks.append(str(v))
            elif k == 1:
                chunks.append(f"{v}*sqrt(pi)")
            elif k == 2:
                chunks.append(f"{v}*pi")
            elif k == -1:
                chunks.append(f"{v}/sqrt(pi)")
            elif k == -2:
                chunks.append(f"{v}/pi")
            else:
                chunks.append(f"{v}*pi^({k}/2)")
        return " + ".join(chunks)


def _coerce_exact(x) -> ExactCoeff:
    if isinstance(x, ExactCoeff):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactCoeff.from_rational(x)
    raise TypeError(f"cannot treat {type(x).__name__} as exact")


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, ExactCoeff))


def _apply_factor(factor: ExactCoeff, c):
    """factor * c, staying exact when c is exact, float otherwise."""
    if c is None:
        return None
    if _is_exact(c):
        return factor * _coerce_exact(c)
    return float(factor) * float(c)


def gamma_half(k2: int) -> ExactCoeff:
    """Gamma(k2/2) exactly, for positive integer k2.

    Even k2 gives an integer factorial, odd k2 a rational multiple of
    sqrt(pi).
    """
    if k2 < 1:
        raise ValueError("gamma_half requires k2 >= 1")
    return _gamma_half_any(k2)


def _gamma_half_any(k2: int) -> ExactCoeff:
    # Gamma(k2/2) for any integer k2 that is not a nonpositive even integer.
    if k2 % 2 == 0:
        m = k2 // 2
        if m < 1:
            raise ValueError(f"Gamma({m}) pole")
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


def _order_of(term: ExpansionTerm, dim: int, half_step: bool) -> int:
    # heat lattice: p = (s-d)/2; cylinder lattice: p = s-d
    s = term.exponent * 2 + dim if half_step else term.exponent + dim
    if s.denominator != 1:
        raise ValueError(f"exponent {term.exponent} is off the expected lattice")
    return int(s)


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
        ds = d - s
        if ds % 2 == 0 or ds > 0:
            factor = _pow2(ds) * _gamma_half_any(ds + 1) * _inv_sqrt_pi()
            coeff = _apply_factor(factor, tm.coefficient)
            status = tm.status if tm.coefficient is not None else "undetermined"
            out.append(ExpansionTerm(p, 0, coeff, status))
        else:
            half = (s - d + 1) // 2
            factor = _pow2(d - s + 1) * _inv_sqrt_pi()
            gam = _gamma_half_any(s - d + 1)  # positive integer argument here
            factor = factor * _invert_exact(gam)
            if half % 2 == 1:
                factor = -factor
            fcoeff = _apply_factor(factor, tm.coefficient)
            out.append(ExpansionTerm(p, 1, fcoeff, tm.status))
            out.append(ExpansionTerm(p, 0, None, "undetermined"))
    return AsymptoticExpansion(d, tuple(out))


def _pow2(k: int) -> ExactCoeff:
    return ExactCoeff.from_rational(Fraction(2) ** k)


def _inv_sqrt_pi() -> ExactCoeff:
    return ExactCoeff._make({-1: Fraction(1)})


def _invert_exact(x: ExactCoeff) -> ExactCoeff:
    """Reciprocal of a single-part exact value q * pi^(k/2)."""
    if len(x.parts) != 1:
        raise ValueError("can only invert monomial exact values")
    k, v = x.parts[0]
    return ExactCoeff._make({-k: 1 / v})


def riesz_to_heat(a_ss: Sequence[CoeffLike], d: int) -> AsymptoticExpansion:
    """Heat coefficients from diagonal lambda-Riesz coefficients:
    b_s = Gamma((d+s)/2 + 1) a_ss / Gamma(s+1)."""
    terms = []
    for s, a in enumerate(a_ss):
        factor = _gamma_half_any(d + s + 2) * Fraction(1, math.factorial(s))
        status = "known" if _is_exact(a) else "fitted"
        terms.append(ExpansionTerm(Fraction(s - d, 2), 0, _apply_factor(factor, a), status))
    return AsymptoticExpansion(d, tuple(terms))


def riesz_to_cylinder(
    c_ss: Sequence[CoeffLike],
    d_ss: Sequence[CoeffLike],
    d: int,
) -> AsymptoticExpansion:
    """Cylinder coefficients from diagonal omega-Riesz coefficients.

    c_ss[s] is the non-log coefficient at exponent d-s, d_ss[s] the log one.
    For d-s even or positive: e_s = Gamma(d+1)/Gamma(s+1) * c_ss.
    For d-s odd and negative: f_s = -Gamma(d+1)/Gamma(s+1) * d_ss and
    e_s = Gamma(d+1)/Gamma(s+1) * (c_ss + psi(d+1) d_ss), psi(d+1) = H_d - gamma.

    The source relations name the non-log coefficient of that mixed branch
    e_ss, whose operational meaning beside a log term is ambiguous; here it is
    the fitted non-log coefficient at exponent d-s, as in the other branch.
    """
    psi = sum(1.0 / k for k in range(1, d + 1)) - EULER_GAMMA
    terms = []
    for s in range(max(len(c_ss), len(d_ss))):
        factor = ExactCoeff.from_rational(
            Fraction(math.factorial(d), math.factorial(s))
        )
        ds = d - s
        p = Fraction(s - d)
        c = c_ss[s] if s < len(c_ss) else None
        if ds % 2 == 0 or ds > 0:
            if c is None:
                terms.append(ExpansionTerm(p, 0, None, "undetermined"))
            else:
                status = "known" if _is_exact(c) else "fitted"
                terms.append(ExpansionTerm(p, 0, _apply_factor(factor, c), status))
        else:
            dv = d_ss[s] if s < len(d_ss) else 0
            fcoeff = _apply_factor(-factor, dv)
            fstatus = "known" if _is_exact(dv) else "fitted"
            terms.append(ExpansionTerm(p, 1, fcoeff, fstatus))
            if c is None:
                terms.append(ExpansionTerm(p, 0, None, "undetermined"))
            else:
                dv_zero = dv == 0 or (isinstance(dv, ExactCoeff) and dv.is_zero)
                if _is_exact(c) and dv_zero:
                    coeff = _apply_factor(factor, c)
                    status = "known"
                else:
                    coeff = float(factor) * (float(c) + psi * float(dv))
                    status = "fitted"
                terms.append(ExpansionTerm(p, 0, coeff, status))
    return AsymptoticExpansion(d, tuple(terms))


def expansion_product(a: AsymptoticExpansion, b: AsymptoticExpansion) -> AsymptoticExpansion:
    """Formal product of two heat-type (log-free) expansions.

    Exponents add, coefficients convolve, dimensions add.  The result is
    truncated at the smaller of the two input orders, past which the
    convolution would be incomplete.
    """
    if a.has_log_terms or b.has_log_terms:
        raise ValueError("expansion_product is defined for log-free expansions only")
    smax_a = max(_order_of(tm, a.dim, half_step=True) for tm in a.terms)
    smax_b = max(_order_of(tm, b.dim, half_step=True) for tm in b.terms)
    scut = min(smax_a, smax_b)
    d = a.dim + b.dim
    acc: dict[Fraction, CoeffLike] = {}
    fitted = False
    for ta in a.terms:
        for tb in b.terms:
            if ta.coefficient is None or tb.coefficient is None:
                continue
            p = ta.exponent + tb.exponent
            s = p * 2 + d
            if s > scut:
                continue
            if _is_exact(ta.coefficient) and _is_exact(tb.coefficient):
                prod = _coerce_exact(ta.coefficient) * _coerce_exact(tb.coefficient)
            else:
                prod = float(ta.coefficient) * float(tb.coefficient)
            fitted = fitted or ta.status == "fitted" or tb.status == "fitted"
            if p in acc:
                prev = acc[p]
                if _is_exact(prev) and _is_exact(prod):
                    acc[p] = _coerce_exact(prev) + _coerce_exact(prod)
                else:
                    acc[p] = float(prev) + float(prod)
            else:
                acc[p] = prod
    status = "fitted" if fitted else "known"
    terms = tuple(ExpansionTerm(p, 0, c, status) for p, c in acc.items())
    return AsymptoticExpansion(d, terms)


def expansion_derivative(e: AsymptoticExpansion) -> AsymptoticExpansion:
    """Term-by-term t-derivative of a trace expansion.

    The t^0 power term is killed exactly (its derivative vanishes even when
    the coefficient is an undetermined invariant), so the derivative carries
    an explicit zero at exponent -1.
    """
    out: list[ExpansionTerm] = []
    for tm in e.terms:
        p = tm.exponent
        if tm.log_power == 0:
            if p == 0:
                out.append(ExpansionTerm(Fraction(-1), 0, Fraction(0), "known"))
                continue
            if tm.coefficient is None:
                out.append(ExpansionTerm(p - 1, 0, None, "undetermined"))
            else:
                c = (_coerce_exact(tm.coefficient) * p if _is_exact(tm.coefficient)
                     else float(tm.coefficient) * float(p))
                out.append(ExpansionTerm(p - 1, 0, c, tm.status))
        else:
            # f t^p log t -> p f t^{p-1} log t + f t^{p-1}
            if tm.coefficient is None:
                out.append(ExpansionTerm(p - 1, 1, None, "undetermined"))
                continue
            if _is_exact(tm.coefficient):
                clog = _coerce_exact(tm.coefficient) * p
                cpow = _coerce_exact(tm.coefficient)
            else:
                clog = float(tm.coefficient) * float(p)
                cpow = float(tm.coefficient)
            if p != 0:
                out.append(ExpansionTerm(p - 1, 1, clog, tm.status))
            _merge_power_term(out, p - 1, cpow, tm.status)
    return AsymptoticExpansion(e.dim, tuple(out))


def _merge_power_term(terms: list[ExpansionTerm], p: Fraction, c, status: str):
    for i, tm in enumerate(terms):
        if tm.exponent == p and tm.log_power == 0:
            if tm.coefficient is None:
                return  # undetermined absorbs the contribution
            if _is_exact(tm.coefficient) and _is_exact(c):
                merged = _coerce_exact(tm.coefficient) + _coerce_exact(c)
            else:
                merged = float(tm.coefficient) + float(c)
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
    if c is None:
        return None
    if isinstance(c, (int, Fraction)):
        return str(Fraction(c))
    if isinstance(c, ExactCoeff):
        return str(c)
    return float(c)


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
