"""Kernel traces over a spectrum with certified truncation error.

heat_trace sums exp(-t lambda_n), cylinder_trace sums exp(-t omega_n), and
cylinder_trace_derivative sums -omega_n exp(-t omega_n), each with an a
priori tail bound obtained from the spectrum's Weyl envelope
N(lambda) <= C1 + C2 lambda^{d/2} by the integral test.  Values are plain
floats summed by the one policy Riesz means also use: the terms formed in
numpy (np.exp for the exponential) and added by one np.sum.  The terms share
a sign, so a value is within 64 eps sum|term_n| + sum|weight_n| 2^-1074 of
the correctly rounded sum.  Results are bitwise reproducible only on the same
numpy build and CPU dispatch: np.exp's loop is picked at run time (see
NPY_DISABLE_CPU_FEATURES in numpy's docs), and its AVX-512 loop can differ
from the portable one in the last bit.

Each trace enumerates once, up to the smallest cutoff at which the tail
bound crediting no enumerated term is <= tol (solved to about 1/64 in
x = t omega, or t omega^2 for heat).  Crediting the terms found can only
lower the bound, so that enumeration certifies unless finite data end or the
term budget caps the cutoff first (ToleranceError): the envelope count there
passes spectra.DEFAULT_MAX_TERMS, read at call time.  A capped cutoff is
checked before enumerating: if even the envelope's whole count up to it,
credited, leaves the bound above tol, no enumeration can certify, and the
ToleranceError carries the bound with nothing credited and terms_used 0.
terms_used counts the distinct frequencies up to the cutoff; tail_bound is
the bound there with them credited, <= tol and often well below it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import spectra
from .spectra import Spectrum, ToleranceError

__all__ = [
    "TraceSample",
    "ToleranceError",
    "heat_trace",
    "cylinder_trace",
    "cylinder_trace_derivative",
    "heat_diagonal_interval",
    "trace_grid",
]

# headroom multiplying every tail bound, covering float rounding in the
# incomplete-gamma recurrences
_BOUND_SLACK = 1.0 + 1e-9

# resolution, in x = t w (t w^2 for heat), of the solved cutoff, and a cap
# on its solver's steps (3 or 4 is typical; bisection alone needs 16)
_X_STEP = 1.0 / 64.0
_SOLVE_STEPS = 64


@dataclass(frozen=True)
class TraceSample:
    """One trace evaluation: value with a certified bound on the dropped tail."""

    t: float
    value: float
    tail_bound: float
    terms_used: int

    @property
    def certified(self) -> bool:
        return not math.isnan(self.tail_bound)


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------

def _upper_gamma_half(a2: int, x: float) -> float:
    """Upper incomplete Gamma(a2/2, x) for small positive integer a2."""
    if x >= 745.0:
        # exp(-x) underflows; the true value is below ~1e-300 and the
        # certification slack absorbs it
        return 0.0
    # Gamma(a + 1, x) = a Gamma(a, x) + x^a e^-x, upward from Gamma(1/2, x)
    # or Gamma(1, x)
    k = 2 - a2 % 2
    g = math.exp(-x) if k == 2 else math.sqrt(math.pi) * math.erfc(math.sqrt(x))
    while k < a2:
        a = k / 2.0
        g = a * g + x**a * math.exp(-x)
        k += 2
    return g


def _exp_safe(x: float) -> float:
    return math.exp(x) if x > -745.0 else 0.0


def _tail_bound(kind: str, t: float, w: float, n_seen: float,
                c1: float, c2: float, d: int) -> float:
    """Integral-test bound on the dropped tail beyond frequency w.

    Uses N(lambda) <= C1 + C2 lambda^{d/2} together with the n_seen
    eigenvalues already enumerated below w.  For the derivative kernel the
    bound requires w >= 1/t (the summand must be decreasing on the tail).
    """
    try:
        if kind == "heat":
            x = t * w * w
            head = (c1 - n_seen) * _exp_safe(-x)
            poly = c2 * t ** (-d / 2.0) * _upper_gamma_half(d + 2, x)
        elif kind == "cylinder":
            x = t * w
            head = (c1 - n_seen) * _exp_safe(-x)
            poly = c2 * t ** (-float(d)) * _upper_gamma_half(2 * d + 2, x)
        elif kind == "dcylinder":
            x = t * w
            head = (c1 - n_seen) * w * _exp_safe(-x)
            poly = c2 * t ** (-float(d + 1)) * (
                _upper_gamma_half(2 * d + 4, x) - _upper_gamma_half(2 * d + 2, x)
            )
        else:
            raise ValueError(f"unknown kernel kind {kind!r}")
    except OverflowError:
        # the power of t alone passes the float range: no finite bound, so
        # no cutoff certifies and the trace ends in ToleranceError
        return math.inf
    return max((head + poly) * _BOUND_SLACK, 0.0)


def _term_sum(kind: str, t: float, omegas: np.ndarray, mults: np.ndarray) -> float:
    """Sum of the kernel's terms m exp(-t w w), m exp(-t w) or -m w exp(-t w).

    One np.sum (pairwise) over the terms formed in numpy, as riesz_mean_grid
    sums its means.  Every term has the same sign (>= 0 for heat and
    cylinder, <= 0 for dcylinder), so there is no cancellation: the result is
    within 64 eps sum|term_n| + sum|weight_n| 2^-1074 of the correctly rounded
    sum (the second part covers subnormal exponentials).  The exponents fall
    as omega rises, so the terms at or past the -745 underflow cut, which
    _exp_safe counts as 0.0, form a suffix and are skipped.

    The terms are formed in place in one work array, each product associated
    as ((-t w) w), m e and ((-m) w) e; the derivative kernel forms m w in a
    second array and negates the products, which is the same float.
    """
    work = np.multiply(omegas, -t)
    if kind == "heat":
        work *= omegas
    k = work.size - int(np.searchsorted(work[::-1], -745.0, side="right"))
    work = np.exp(work[:k], out=work[:k])
    if kind == "dcylinder":
        work *= np.multiply(mults[:k], omegas[:k])
        np.negative(work, out=work)
    else:
        work *= mults[:k]
    return float(np.sum(work))


def _cutoff(kind: str, t: float, tol: float, c1: float, c2: float, d: int) -> float:
    """The smallest frequency w whose tail bound with no term credited
    (n_seen = 0) is <= tol, to about _X_STEP in x = t w (t w^2 for heat).

    The bound falls as x grows wherever it is valid and is 0 from x = 745 on
    (exp(-x) underflows), so ln(bound) = ln(tol) has one root below that.
    Secant steps aim half an _X_STEP past it, so the iterates settle on its
    certifying side; the last uncertified (lo) and certified (hi) x bracket
    every step, and a step that leaves the bracket bisects it instead.
    """
    # the derivative kernel's bound needs w t >= 1; x >= 2 leaves room for
    # the rounding of w t
    x_min = 2.0 if kind == "dcylinder" else 0.0
    # ln(bound) = m ln(x) - x + O(1) as x grows: the first step's slope
    m = d / 2.0 if kind == "heat" else d + 1.0 if kind == "dcylinder" else float(d)
    log_tol = math.log(tol)
    lo, hi = x_min, 745.0
    x = min(max(x_min, -log_tol), hi)
    prev = None  # (x, ln(bound / tol)) of the previous finite evaluation
    for _ in range(_SOLVE_STEPS):
        w = math.sqrt(x / t) if kind == "heat" else x / t
        bound = _tail_bound(kind, t, w, 0.0, c1, c2, d)
        if bound <= tol:
            hi = x
        else:
            lo = x
        if hi - lo <= _X_STEP:
            break
        nxt = math.nan
        if 0.0 < bound < math.inf:
            excess = math.log(bound) - log_tol
            slope = ((excess - prev[1]) / (x - prev[0]) if prev is not None
                     else m / max(x, 2.0 * m) - 1.0)
            prev = (x, excess)
            if slope < 0.0:
                nxt = x - excess / slope + 0.5 * _X_STEP
                if hi == x and abs(nxt - x) < 0.5 * _X_STEP:
                    break
        x = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    return math.sqrt(hi / t) if kind == "heat" else hi / t


def _certified_trace(s: Spectrum, t: float, tol: float, kind: str) -> TraceSample:
    t = float(t)
    if not (0 < t < math.inf):
        raise ValueError(f"t must be positive and finite, got {t}")
    if not (tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")

    if s.envelope is None:
        if s.truncated_at is None:
            raise ValueError(
                "spectrum has neither an envelope nor a finite term list; "
                "cannot evaluate its trace"
            )
        omegas, mults = s.arrays(s.truncated_at)
        warnings.warn(
            f"spectrum {s.label!r} supplies no envelope constants; "
            "trace tail cannot be certified (tail_bound = NaN)",
            stacklevel=3,
        )
        return TraceSample(t, _term_sum(kind, t, omegas, mults), math.nan, omegas.size)

    c1, c2 = s.envelope
    d = s.dim

    # crediting the enumerated terms only lowers the bound, so this one
    # enumeration certifies unless the data end or the budget caps it first
    w = _cutoff(kind, t, tol, c1, c2, d)
    budget = spectra.DEFAULT_MAX_TERMS
    exhausted = s.truncated_at is not None and w >= s.truncated_at
    if exhausted:
        w = s.truncated_at
    try:
        budget_capped = not exhausted and c1 + c2 * w**d > budget
    except OverflowError:
        # w**d past the float range exceeds any budget
        budget_capped = True
    if budget_capped and c2 > 0:
        # a budget below C1 pays for no cutoff above 0
        w = (max(budget - c1, 0.0) / c2) ** (1.0 / d)
        # no enumeration up to w can credit more than the envelope's count
        # there, so when even that bound misses tol none can certify
        if _tail_bound(kind, t, w, c1 + c2 * w**d, c1, c2, d) > tol:
            raise _unreachable("term budget exhausted", tol,
                               _tail_bound(kind, t, w, 0.0, c1, c2, d), 0)
    omegas, mults = s.arrays(w)
    n_seen = int(mults.sum())
    # envelope certifies an empty tail: nothing left to bound
    empty_tail = c2 == 0.0 and n_seen >= c1
    bound = 0.0 if empty_tail else _tail_bound(kind, t, w, n_seen, c1, c2, d)
    # the derivative summand decreases only past omega = 1/t, so the
    # integral test needs w t >= 1 unless the tail is empty anyway
    usable = empty_tail or kind != "dcylinder" or w * t >= 1.0
    if usable and bound <= tol:
        return TraceSample(t, _term_sum(kind, t, omegas, mults), bound, omegas.size)
    reason = "term budget exhausted" if budget_capped else "spectrum data exhausted"
    raise _unreachable(reason, tol, bound, omegas.size)


def _unreachable(reason: str, tol: float, bound: float, terms: int) -> ToleranceError:
    return ToleranceError(
        f"{reason} before reaching tol={tol:g}; achieved tail bound "
        f"{bound:g} with {terms} terms",
        achieved_bound=bound,
        terms_used=terms,
    )


def heat_trace(s: Spectrum, t: float, tol: float = 1e-12) -> TraceSample:
    """Tr K(t) = sum_n mult_n exp(-t lambda_n) with certified tail bound.

    Parameters
    ----------
    s : spectrum to sum over (must carry an envelope to certify).
    t : kernel time, > 0.
    tol : required bound on the truncation error; a cutoff whose envelope
        count passes spectra.DEFAULT_MAX_TERMS raises ToleranceError with
        the bound that was achievable.
    """
    return _certified_trace(s, t, tol, "heat")


def cylinder_trace(s: Spectrum, t: float, tol: float = 1e-12) -> TraceSample:
    """Tr T(t) = sum_n mult_n exp(-t omega_n) with certified tail bound."""
    return _certified_trace(s, t, tol, "cylinder")


def cylinder_trace_derivative(s: Spectrum, t: float, tol: float = 1e-12) -> TraceSample:
    """d(Tr T)/dt = -sum_n mult_n omega_n exp(-t omega_n), term by term.

    Differentiated analytically per term; never a finite difference.  Its t^0
    coefficient is -2x the scalar-field vacuum energy.
    """
    return _certified_trace(s, t, tol, "dcylinder")


def heat_diagonal_interval(t: float, x: float) -> float:
    """Pointwise heat-kernel diagonal (2/pi) sum sin^2(nx) exp(-t n^2) for the
    Dirichlet interval of length pi.

    Approaches (4 pi t)^{-1/2} for fixed interior x as t -> 0, but not
    uniformly: near the boundary the deficit factor is about 1 - exp(-x^2/t).
    The sum stops at m = max(8, floor(sqrt(45/t))) terms, where
    m sqrt(t) >= sqrt(45) - sqrt(t) puts its tail below 1e-10; an m past
    spectra.DEFAULT_MAX_TERMS (t below about 4.5e-13) raises ToleranceError.
    """
    if not (0.0 < x < math.pi):
        raise ValueError(f"x must lie strictly inside (0, pi), got {x}")
    if not (t > 0):
        raise ValueError(f"t must be positive, got {t}")
    root = math.sqrt(45.0 / t)  # compared as a float: inf for a subnormal t
    if root >= spectra.DEFAULT_MAX_TERMS + 1:
        raise ToleranceError(f"term budget exhausted: the diagonal at t={t!r} needs {root:.3g} "
                             f"terms", achieved_bound=math.nan, terms_used=0)
    m = max(8, int(root))
    return (2.0 / math.pi) * math.fsum(
        math.sin(n * x) ** 2 * _exp_safe(-t * n * n) for n in range(1, m + 1)
    )


def trace_grid(s: Spectrum, kind: str, ts: Sequence[float], tol: float = 1e-12) -> list[TraceSample]:
    """Evaluate one kernel over a time grid, in grid order.

    Each point is computed independently (safe to parallelize per point);
    results are returned in the given order so output stays deterministic.
    """
    fns = {
        "heat": heat_trace,
        "cylinder": cylinder_trace,
        "dcylinder": cylinder_trace_derivative,
    }
    try:
        fn = fns[kind]
    except KeyError:
        raise ValueError(f"kernel must be one of {sorted(fns)}, got {kind!r}") from None
    return [fn(s, t, tol) for t in ts]
