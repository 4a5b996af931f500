"""Kernel traces over a spectrum with certified truncation error.

trace_grid evaluates one kernel over a time grid: "heat" sums
mult_n exp(-t lambda_n) (Tr K(t)), "cylinder" sums mult_n exp(-t omega_n)
(Tr T(t)) and "dcylinder" sums -mult_n omega_n exp(-t omega_n), d(Tr T)/dt
differentiated term by term, never by a finite difference, whose t^0
coefficient is -2E, E the scalar-field vacuum energy.  Each sample carries an
a priori tail bound obtained from the spectrum's Weyl envelope
N(lambda) <= C1 + C2 lambda^{d/2} by the integral test; a one-point grid is
the trace at one t.

Summation policy, the one for every sum over spectral or comb terms (traces,
Riesz means, comb pairings and heat_diagonal_interval): the terms are formed
in numpy, every exponential by np.exp, and added by one np.add.reduce, or,
for comb pairings and the heat diagonal (_index_sum), one a chunk of at most
65,536 terms and one over the chunk sums.  The terms of a sum share a sign,
so a value is within 64 * 2^-52 * sum|term_n| of the correctly rounded sum
of its terms, plus an ulp of each subnormal exponential (sum|weight_n|
2^-1074 for a trace).  np.exp's last bit depends on the machine: numpy picks its loop at
run time (see NPY_DISABLE_CPU_FEATURES in numpy's docs), and its AVX-512
loop can differ from the portable one there, so values are bitwise
reproducible only on the same numpy build and CPU dispatch.

Each trace point sums up to the smallest cutoff at which the tail bound
crediting no enumerated term is <= tol (solved to about 1/64 in x = t omega,
or t omega^2 for heat).  Crediting the terms found can only lower the bound,
so that enumeration certifies unless finite data end or the term budget caps
the cutoff first (ToleranceError): the envelope count there passes
spectra.DEFAULT_MAX_TERMS, read at call time.  A capped cutoff is checked
before enumerating: if even the envelope's whole count up to it, credited,
leaves the bound above tol, no enumeration can certify, and the
ToleranceError carries the bound with nothing credited and terms_used 0.  A
kernel's grid enumerates once, at the widest of its points' cutoffs.
terms_used counts the distinct frequencies up to the cutoff; tail_bound is
the bound there with them credited, <= tol and often well below it.

A product's heat trace is K_A(t) K_B(t) (product_spectrum keeps its factors),
so it is formed from the factors' heat grids and the product is never
enumerated for it: about 10^2 factor terms a sample where the product has
10^4 to 10^5 pairs.  At each t the factors are held to tol_A =
tol / (3 U_B(t)) and tol_B = tol / (3 U_A(t)), with U = C1 + C2
Gamma(d/2 + 1) t^(-d/2) >= K(t) from the envelope, and tail_bound is
(tau_A K_B + K_A tau_B + tau_A tau_B) times the slack, <= tol.  Nested
products recurse, and factors with the same terms share one grid.  The
value is the product of the factor values, rounded once: a two-factor
product is within about 129 eps K of the product of the exact truncated sums
(64 eps a factor, one rounding), not the 64 eps of a sum.  Its terms_used
counts the rows summed over the factors (one grid's for factors with the
same terms), not product pairs, and each factor's cutoffs are capped at half
the budget, so a product sums at most DEFAULT_MAX_TERMS rows, as any trace
does.  A factor tolerance out of reach raises the factor's reason at the
product's tol, with the factor's achieved bound times the other factor's U
as the product's achieved bound.  The cylinder kernels enumerate the
product's own terms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import spectra
from .spectra import Spectrum, ToleranceError

__all__ = [
    "TraceSample",
    "ToleranceError",
    "heat_diagonal_interval",
    "trace_grid",
]

# headroom multiplying every tail bound, covering float rounding in the
# incomplete-gamma recurrences
_BOUND_SLACK = 1.0 + 1e-9

# the kernels a trace sums
_KERNELS = ("cylinder", "dcylinder", "heat")

# resolution, in x = t w (t w^2 for heat), of the solved cutoff, and a cap
# on its solver's steps (3 or 4 is typical; bisection alone needs 16)
_X_STEP = 1.0 / 64.0
_SOLVE_STEPS = 64
# indices per array pass of _index_sum, which bounds the memory of a long sum
_INDEX_CHUNK = 1 << 16
# _term_sums forms the terms of points with at most _SUM_ROW of them
# together, up to _SUM_BLOCK terms a pass; a longer point is a pass of its own
_SUM_ROW = 1 << 8
_SUM_BLOCK = 1 << 14


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


# a sample before it becomes a TraceSample: (t, value, tail_bound, terms_used)
_Sample = tuple[float, float, float, int]


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


def _term_sums(kind: str, points: Sequence[tuple[float, float, int]], omegas: np.ndarray,
               mults: np.ndarray) -> list[_Sample]:
    """One kernel's samples at certified points (t, tail_bound, terms_used):
    each value the sum at t over the first terms_used terms of
    m exp(-t w w), m exp(-t w) or -m w exp(-t w), with the float weights m
    (-m w for dcylinder, the float -(m w)) formed once.  The exponents
    ((-t w) w) for heat, (-t w) otherwise, are formed up to the -745
    underflow cut (_exp_safe's 0.0) and multiplied by the weights in place.
    A point with more than _SUM_ROW terms does so in its own pass over its
    terms; the runs of points with fewer, whose numpy calls would cost more
    than their terms, do so in one pass over all their terms one after
    another, up to _SUM_BLOCK terms a pass.  Each value is one
    np.add.reduce of its point's terms, so it is the one-point sum, bit for
    bit, whatever else the grid holds: within 64 eps
    sum|term_n| + sum|weight_n| 2^-1074 of the exact sum (same-sign terms)."""
    m = mults.astype(float)
    weights = -(m * omegas) if kind == "dcylinder" else m
    work = np.empty(max([_SUM_BLOCK] + [n for _, _, n in points]))
    samples = []
    i = 0
    while i < len(points):
        t, bound, n = points[i]
        if n > _SUM_ROW:
            e = np.multiply(omegas[:n], -t, out=work[:n])
            if kind == "heat":
                e *= omegas[:n]
            k = n - int(e[::-1].searchsorted(-745.0, side="right"))
            exps = np.exp(e[:k], out=e[:k])
            samples.append((t, float(np.add.reduce(np.multiply(exps, weights[:k], out=exps))),
                            bound, n))
            i += 1
            continue
        # the run of short points from i on while their terms fit in _SUM_BLOCK
        j, size = i + 1, n
        while j < len(points) and points[j][2] <= _SUM_ROW and size + points[j][2] <= _SUM_BLOCK:
            size += points[j][2]
            j += 1
        block, i = points[i:j], j
        ns = [n for _, _, n in block]
        starts = (np.cumsum(ns) - ns).tolist()
        # each point's term indices 0..n-1, one point after another
        idx = np.arange(size) - np.repeat(starts, ns)
        w = omegas[idx]
        e = np.multiply(w, np.repeat([-t for t, _, _ in block], ns), out=work[:size])
        if kind == "heat":
            e *= w
        ks = ns
        if size and e.min() <= -745.0:
            # the exponents fall along a point's terms, so a point sums those
            # above the cut, which lead them
            ks = [n - int(e[a:a + n][::-1].searchsorted(-745.0, side="right"))
                  for a, n in zip(starts, ns)]
        terms = np.multiply(np.exp(e, out=e), weights[idx], out=e)
        for (t, bound, n), start, k in zip(block, starts, ks):
            samples.append((t, float(np.add.reduce(terms[start:start + k])), bound, n))
    return samples


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


def _checked_point(t: float, tol: float) -> float:
    """t as a float, after the checks every trace point passes."""
    t = float(t)
    if not (0 < t < math.inf):
        raise ValueError(f"t must be positive and finite, got {t}")
    if not (tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    return t


def _certify(s: Spectrum, kind: str, ts: Sequence[float], tols: Sequence[float], budget: float,
             ) -> tuple[list[tuple[float, float, int]], np.ndarray, np.ndarray, Optional[Exception]]:
    """(points, omegas, mults, failure) of a kernel over a grid, one tol a
    point, its cutoffs capped where the envelope count reaches budget:
    (t, tail_bound, terms_used) of each point in grid order up to the first
    that cannot certify, the terms up to the widest of their cutoffs, and
    that point's error (None when every point certifies).

    Each point is the one-point trace's: its own cutoff (_cutoff) and
    checks, in grid order, so the error is the first failing point trace's.
    The checks made before enumerating run over the grid first, then the
    spectrum is enumerated once, at the widest cutoff, and each point's
    credited count comes from one segmented sum of the multiplicities
    (_credited).
    """
    cuts = []  # per point before the failure: (t, tol, cutoff, budget capped)
    failure = None
    try:
        for t, tol in zip(ts, tols):
            t = _checked_point(t, tol)
            if s.envelope is None:
                if s.truncated_at is None:
                    raise ValueError(
                        "spectrum has neither an envelope nor a finite term list; "
                        "cannot evaluate its trace"
                    )
                cuts.append((t, tol, s.truncated_at, False))
                continue
            c1, c2 = s.envelope
            d = s.dim
            # crediting the enumerated terms only lowers the bound, so this one
            # enumeration certifies unless the data end or the budget caps it first
            w = _cutoff(kind, t, tol, c1, c2, d)
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
            cuts.append((t, tol, w, budget_capped))
    except (ValueError, ToleranceError) as exc:
        failure = exc

    def widest() -> tuple[np.ndarray, np.ndarray]:
        if not cuts:
            return np.empty(0), np.empty(0, dtype=np.int64)
        return s.arrays(max(w for _, _, w, _ in cuts))

    try:
        omegas, mults = widest()
    except (ValueError, ToleranceError):
        # a narrower cutoff may enumerate where the widest cannot: the points
        # before the first whose own enumeration fails stand, and its error
        # is theirs to beat
        for j, (_, _, w, _) in enumerate(cuts):
            try:
                s.arrays(w)
            except (ValueError, ToleranceError) as exc:
                cuts, failure = cuts[:j], exc
                break
        omegas, mults = widest()
    ends = np.searchsorted(omegas, [w for _, _, w, _ in cuts], side="right").tolist()
    seen = _credited(mults, ends)
    points = []
    for (t, tol, w, budget_capped), k, n_seen in zip(cuts, ends, seen):
        if s.envelope is None:
            points.append((t, math.nan, k))
            continue
        c1, c2 = s.envelope
        # envelope certifies an empty tail: nothing left to bound
        empty_tail = c2 == 0.0 and n_seen >= c1
        bound = 0.0 if empty_tail else _tail_bound(kind, t, w, n_seen, c1, c2, s.dim)
        # the derivative summand decreases only past omega = 1/t, so the
        # integral test needs w t >= 1 unless the tail is empty anyway
        usable = empty_tail or kind != "dcylinder" or w * t >= 1.0
        if not (usable and bound <= tol):
            reason = "term budget exhausted" if budget_capped else "spectrum data exhausted"
            return points, omegas, mults, _unreachable(reason, tol, bound, k)
        points.append((t, bound, k))
    return points, omegas, mults, failure


def _credited(mults: np.ndarray, ends: Sequence[int]) -> list[int]:
    """int(mults[:k].sum()) for each k in ends, wrapping in int64 as that
    does: one np.add.reduceat over the segments between the distinct ends
    and a running sum of those, so no array as long as mults is formed."""
    cuts = sorted(set(ends) - {0})
    counts = {0: 0}
    if cuts:
        segments = np.add.reduceat(mults[:cuts[-1]], [0] + cuts[:-1])
        counts.update(zip(cuts, np.cumsum(segments).tolist()))
    return [counts[k] for k in ends]


def _unreachable(reason: str, tol: float, bound: float, terms: int) -> ToleranceError:
    return ToleranceError(
        f"{reason} before reaching tol={tol:g}; achieved tail bound "
        f"{bound:g} with {terms} terms",
        achieved_bound=bound,
        terms_used=terms,
    )


def _heat_envelope(s: Spectrum, t: float) -> float:
    """U(t) = C1 + C2 Gamma(d/2 + 1) t^(-d/2) >= K(t), the heat trace of the
    envelope count; inf where it passes the float range."""
    c1, c2 = s.envelope
    if not c2:
        return c1
    try:
        return c1 + c2 * math.gamma(s.dim / 2.0 + 1.0) * t ** (-s.dim / 2.0)
    except OverflowError:
        return math.inf


def _factor_tol(tol: float, u_other: float) -> float:
    """A factor's share tol / (3 U) of a product's tol, U the other factor's
    envelope trace, and at least the least subnormal (an unreachable share
    fails the factor, and a share no envelope limits is inf)."""
    return max(tol / (3.0 * u_other), math.ulp(0.0)) if u_other > 0 else math.inf


def _same_terms(a: Spectrum, b: Spectrum) -> bool:
    """Whether a and b have the same terms, so one heat grid serves both:
    the same object, or equal fields (a label names an interval, torus,
    file or product) with, for data that end, equal term lists, since a
    finite spectrum's label is its caller's choice; products factor by
    factor."""
    if a is b:
        return True
    if a != b or (a.factors is None) != (b.factors is None):
        return False
    if a.factors is not None:
        return all(map(_same_terms, a.factors, b.factors))
    if a.truncated_at is None:
        return True
    (wa, ma), (wb, mb) = a.arrays(a.truncated_at), b.arrays(b.truncated_at)
    return np.array_equal(wa, wb) and np.array_equal(ma, mb)


def _carried(exc: Exception, tol: float, u_other: float) -> Exception:
    """A factor's error as its product's: a factor tolerance out of reach
    becomes the product bound it leaves, the factor's achieved bound times
    the other factor's envelope trace (inf past the float range), at the
    product's tol; any other error passes unchanged."""
    if not isinstance(exc, ToleranceError) or math.isnan(exc.achieved_bound):
        return exc
    reason = str(exc).partition(" before reaching tol=")[0]
    return _unreachable(reason, tol, exc.achieved_bound * u_other, exc.terms_used)


def _product_heat(s: Spectrum, ts: Sequence[float], tols: Sequence[float], budget: float,
                  ) -> tuple[list[_Sample], Optional[Exception]]:
    """(samples, failure) of a product's heat trace over a grid, one tol a
    point, as _certify's points: K_A K_B from the factors' heat grids.

    At each t the factors get tol_A = tol / (3 U_B(t)) and tol_B =
    tol / (3 U_A(t)) (_heat_envelope, _factor_tol), and the sample's bound is
    (tau_A K_B + K_A tau_B + tau_A tau_B) _BOUND_SLACK over their values K
    and bounds tau, which K <= U keeps <= tol.  Its terms_used is the rows
    the factors summed (one grid's when their terms are the same), and each
    factor caps its cutoffs at half the budget, so they sum at most budget
    rows.  The
    first point at which its own checks (t, tol), factor A, factor B or the
    product's bound fail, in that order, ends the grid with its error.
    """
    a, b = s.factors
    points, failure = [], None  # per point: (t, tol, U_A(t), U_B(t))
    for t, tol in zip(ts, tols):
        try:
            t = _checked_point(t, tol)
        except ValueError as exc:
            failure = exc
            break
        points.append((t, tol, _heat_envelope(a, t), _heat_envelope(b, t)))
    ts = [t for t, _, _, _ in points]
    samples_a, fail_a = _samples(a, "heat", ts,
                                 [_factor_tol(tol, ub) for _, tol, _, ub in points], budget / 2)
    n = len(samples_a)
    same = _same_terms(a, b)
    samples_b, fail_b = (samples_a, fail_a) if same else _samples(
        b, "heat", ts[:n], [_factor_tol(tol, ua) for _, tol, ua, _ in points[:n]], budget / 2)
    if len(samples_b) < n:
        n = len(samples_b)
        failure = _carried(fail_b, points[n][1], points[n][2])
    elif fail_a is not None:
        failure = _carried(fail_a, points[n][1], points[n][3])
    samples = []
    for (t, tol, _, _), (_, ka, tau_a, n_a), (_, kb, tau_b, n_b) in zip(
            points[:n], samples_a, samples_b):
        bound = (tau_a * kb + ka * tau_b + tau_a * tau_b) * _BOUND_SLACK
        terms = n_a + (0 if same else n_b)
        if not bound <= tol:
            return samples, _unreachable("factor split exhausted", tol, bound, terms)
        samples.append((t, ka * kb, bound, terms))
    return samples, failure


def _samples(s: Spectrum, kind: str, ts: Sequence[float], tols: Sequence[float],
             budget: float) -> tuple[list[_Sample], Optional[Exception]]:
    """(samples, failure) of one kernel over a grid with one tol a point and
    a term budget, as _certify's points: a product's heat trace from its
    factors, any other trace summed over the spectrum's own terms."""
    if kind == "heat" and s.factors is not None and s.envelope is not None:
        return _product_heat(s, ts, tols, budget)
    points, omegas, mults, failure = _certify(s, kind, ts, tols, budget)
    return _term_sums(kind, points, omegas, mults), failure


def trace_grid(s: Spectrum, kind: str, ts: Sequence[float],
               tol: float = 1e-12) -> list[TraceSample]:
    """One kernel ("heat", "cylinder" or "dcylinder") over a time grid, one
    TraceSample a point in grid order, each certified to tail_bound <= tol
    (NaN, with a warning, on a spectrum without envelope constants).  Every
    point is certified first (_certify), so a grid raises the error of its
    first point that cannot (ToleranceError, with the achieved bound, where
    the term budget or the data end first), and each sample is the one-point
    grid's, bit for bit; the spectrum is enumerated once, at the widest
    cutoff, and each t sums its terms (_term_sums).  A product's heat trace
    is formed from its factors (_product_heat)."""
    if kind not in _KERNELS:
        raise ValueError(f"kernel must be one of {list(_KERNELS)}, got {kind!r}")
    ts = list(ts)
    samples, failure = _samples(s, kind, ts, [tol] * len(ts), spectra.DEFAULT_MAX_TERMS)
    if s.envelope is None and samples:
        warnings.warn(
            f"spectrum {s.label!r} supplies no envelope constants; "
            "trace tail cannot be certified (tail_bound = NaN)",
            stacklevel=2,
        )
    if failure is not None:
        raise failure
    return [TraceSample(*sample) for sample in samples]


def heat_diagonal_interval(t: float, x: float) -> float:
    """Pointwise heat-kernel diagonal (2/pi) sum sin^2(nx) exp(-t n^2) for the
    Dirichlet interval of length pi.

    Approaches (4 pi t)^{-1/2} for fixed interior x as t -> 0, but not
    uniformly: near the boundary the deficit factor is about 1 - exp(-x^2/t).
    The sum stops at m = max(8, floor(sqrt(45/t))) terms, where
    m sqrt(t) >= sqrt(45) - sqrt(t) puts its tail below 1e-10; an m past
    spectra.DEFAULT_MAX_TERMS (t below about 4.5e-13) raises ToleranceError.
    The terms are summed by _index_sum: about 15 ns a term.
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
    return (2.0 / math.pi) * _index_sum(lambda n: np.sin(n * x) ** 2 * np.exp(-t * n * n), 1, m)


def _index_sum(term: Callable[[np.ndarray], np.ndarray], first: int, last: int) -> float:
    """The sum of term(n) over the integers n = first..last, the summation
    policy's form for comb pairings and the heat diagonal: term evaluated on
    float64 arrays of at most _INDEX_CHUNK consecutive n, each chunk added by
    one np.add.reduce and the chunk sums by one more."""
    sums = []
    for lo in range(first, last + 1, _INDEX_CHUNK):
        # n and v stay bound into the next chunk's pass, so the allocator
        # reuses the freed pages instead of handing them back to the system
        # after each chunk (3.5x fewer page faults on 2M terms)
        n = np.arange(lo, min(lo + _INDEX_CHUNK, last + 1), dtype=np.float64)
        v = term(n)
        sums.append(np.add.reduce(v))
    return float(np.add.reduce(sums))
