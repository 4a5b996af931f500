"""The coefficient-relation pipeline behind `spectrace verify`.

run_verification fits the heat trace of one spectrum and one Riesz mean of
order d+3 in each of the lambda and omega variables, and returns one
VerifyRow per relation it checks.  The heat fit is one side of every row:
its b_s, mapped to the cylinder coefficients e_s and f_s, meet the omega
mean's, and the lambda mean's b_s meet its own.  The omega mean also gives
the index-term check and the vacuum energy -c_(d+3,d+1)/(2(d+3)), checked
against the constructor's closed form, Spectrum.energy.  Every checked row
is held to one rule fixed in advance: 1e-4 of the expected coefficient or
of its scale w1^(s-d), whichever is larger (1e-4 |E| for the energy), with
w1 the first positive frequency.  Every fit and check is made in units of
u = 2^e, the power of two with w1/u in [1/2, 1), where an order-s
coefficient is u^(d-s) times its raw value, so neither depends on the
length scale; the rows hold the raw values.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .fitkit import (
    FitReport,
    cylinder_basis,
    dcylinder_basis,
    detect_log_term,
    fit_expansion,
    geometric_grid,
    heat_basis,
)
from .invariants import (
    AsymptoticExpansion,
    ExpansionTerm,
    heat_to_cylinder,
    riesz_to_trace,
)
from .riesz import _fit_detecting_logs, _fit_means, _log_exponents
from . import spectra
from .spectra import Spectrum
from .traces import trace_grid

__all__ = ["VerifyRow", "expansion_from_fit", "fit_trace", "run_verification"]

# verify's basis depth (orders s = 0..4), samples in the heat window, trace tolerance
_ORDERS = 4
_POINTS = 64
_TOL = 1e-13
# the Riesz grids: omega from 20 w1 to 200 w1 in 96 geometric points, and
# their squares in lambda; the Riesz order is d + this
_RIESZ_LO, _RIESZ_HI, _RIESZ_POINTS = 20.0, 200.0, 96
_RIESZ_ORDER_PAST_D = 3


@dataclass
class VerifyRow:
    """One check: computed against expected within tol; expected None means
    reported, not checked (passed).  The check is made on the values given;
    computed, expected, tol and delta then hold them times 2^shift (+-inf
    past the float range), so a check made in units of a power of two keeps
    its raw values."""

    name: str
    computed: float
    expected: Optional[float]
    tol: float
    note: str = ""
    shift: int = 0

    def __post_init__(self):
        self.delta = math.nan if self.expected is None else abs(self.computed - self.expected)
        self.passed = self.expected is None or self.delta <= self.tol
        self.computed, self.tol, self.delta = (
            _ldexp(v, self.shift) for v in (self.computed, self.tol, self.delta))
        if self.expected is not None:
            self.expected = _ldexp(self.expected, self.shift)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        exp = "---" if self.expected is None else f"{self.expected:+.8e}"
        comp = f"{self.computed:+.8e}" if isinstance(self.computed, float) else str(self.computed)
        delta = "" if self.expected is None else f" delta={self.delta:.2e} tol={self.tol:.1e}"
        note = f"  [{self.note}]" if self.note else ""
        return f"{status}  {self.name:<38} {comp}  vs {exp}{delta}{note}"


def _ldexp(x: float, shift: int) -> float:
    """x * 2^shift, +-inf past the float range."""
    try:
        return math.ldexp(x, shift)
    except OverflowError:
        return math.copysign(math.inf, x)


def expansion_from_fit(dim: int, report: FitReport) -> AsymptoticExpansion:
    """The fitted coefficients of report as an expansion, status "fitted"."""
    terms = tuple(
        ExpansionTerm(p, q, c, "fitted")
        for (p, q), c in zip(report.basis.terms, report.coefficients)
    )
    return AsymptoticExpansion(dim, terms)


def fit_trace(spectrum: Spectrum, kernel: str, ts: Sequence[float], tol: float,
              orders: int) -> FitReport:
    """The kernel's trace sampled over ts and fitted to its expansion shape
    through `orders`.  The cylinder fit adds each log column t^{s-d} log t
    the data show, by the omega mean's policy (riesz._fit_detecting_logs);
    the heat and dcylinder fits have none."""
    values = [s.value for s in trace_grid(spectrum, kernel, ts, tol)]
    d = spectrum.dim
    if kernel == "cylinder":
        return _fit_detecting_logs(ts, values, cylinder_basis(d, orders),
                                   _log_exponents(d, orders))
    basis = heat_basis(d, orders) if kernel == "heat" else dcylinder_basis(d, orders)
    return fit_expansion(ts, values, basis)


def _first_positive_omega(s: Spectrum) -> float:
    # probes 4x apart: a product's from the smaller of its factors' first
    # frequencies, a lower bound on its own (their hypot is an upper one),
    # whatever its folded envelope says; any other spectrum's from 4x where
    # the envelope counts one term past C1 (the list's end when C2 = 0 or
    # C2^(-1/d) overflows), whose envelope count C1 + 4^d is a few terms at
    # any length scale and enough to pass the first frequency where the
    # bound runs ahead of the count (the Dirichlet shapes).  A list that ends
    # is probed up to its end too, which a loose envelope's steps may fall
    # short of
    _c1, c2 = s.envelope
    w = s.truncated_at or 0.0
    if s.factors is not None:
        w = min(map(_first_positive_omega, s.factors))
    elif c2 > 0:
        with contextlib.suppress(OverflowError):
            w = 4.0 * c2 ** (-1.0 / s.dim)
    probes = [w * 4.0**k for k in range(60)]
    if s.truncated_at:
        probes.append(s.truncated_at)
    for w in probes:
        omegas, _mults = s.arrays(w)
        positive = omegas[omegas > 0]
        if positive.size:
            return float(positive[0])
    raise ValueError("could not find a positive eigenfrequency")


def run_verification(spectrum: Spectrum) -> list[VerifyRow]:
    """Fit the heat trace and the two Riesz means of one spectrum and check
    every relation.

    Raises ValueError for a spectrum without envelope constants (its traces
    cannot be certified), for dimension 4 or more (the energy's order d+1
    is past the fitted orders), for a spectrum with no positive frequency,
    for one whose first positive frequency or envelope puts a window past
    the float range and for a finite list whose data end at or below the
    Riesz grids' bottom, 20 w1;
    ToleranceError when a trace cannot meet _TOL or the enumeration passes
    the term budget (Spectrum.arrays): the first stage to read the terms
    enumerates them, and the later ones read Spectrum.arrays' cache.
    """
    if spectrum.envelope is None:
        raise ValueError(
            "verification refused: spectrum supplies no envelope constants, so "
            "trace truncation cannot be certified (add an 'envelope C1 C2' line)"
        )
    d = spectrum.dim
    if d + 1 > _ORDERS:
        raise ValueError(
            f"verification refused: dimension {d} puts the vacuum energy at order "
            f"s = d+1 = {d + 1}, past the fitted orders 0..{_ORDERS}; verify covers "
            f"d <= {_ORDERS - 1}")
    w1 = _first_positive_omega(spectrum)
    # every window is placed in units of w1, from heat times 0.1 / w1^2 to
    # lambda = (200 w1)^2; a w1 that sends one past the float range is refused
    if not (0.1 / w1 / w1 < math.inf and _RIESZ_HI * w1 * _RIESZ_HI * w1 < math.inf):
        raise ValueError(
            f"verification refused: the first positive frequency w1 = {w1!r} puts verify's "
            "windows (heat times up to 0.1/w1^2, lambda up to (200 w1)^2) past the float range")

    # the heat window's floor: where the trace sums the spectrum's own terms,
    # no sample below the time at which the envelope count out to x0/t in
    # lambda exceeds the term cap (the trace solves for its own, smaller
    # cutoff; x0 = 80 and the cap only place the window).  A budget no larger
    # than C1 pays for no cutoff, so the window stays nominal and the trace
    # reports the unreachable tolerance; a w_cap^2 past the float range is
    # over the cap too, and one that underflows puts the floor past it.  A
    # product's heat trace reads its factors, so its own envelope places nothing.
    c1, c2 = spectrum.envelope
    x0 = 80.0
    heat_floor = 0.0
    cap = min(spectra.DEFAULT_MAX_TERMS, 400_000)
    if spectrum.factors is None and c2 > 0 and cap > c1:
        w_cap = ((cap - c1) / c2) ** (1.0 / d)
        try:
            lam_cap = w_cap**2
        except OverflowError:
            lam_cap = math.inf
        heat_floor = x0 / lam_cap if lam_cap else math.inf
    end = spectrum.truncated_at
    if end is not None:
        # a finite term list cannot certify below this time
        heat_floor = max(heat_floor, x0 / (end * end))
    heat_lo = max(1e-4 / (w1 * w1), heat_floor)
    heat_hi = max(0.1 / (w1 * w1), 8.0 * heat_lo)
    if not heat_hi < math.inf:
        raise ValueError(
            f"verification refused: the envelope C1 = {c1!r}, C2 = {c2!r} puts verify's "
            f"heat window past the float range (times from {heat_lo!r})")
    heat_ts = geometric_grid(heat_lo, heat_hi, _POINTS)

    om_lo, om_hi = _RIESZ_LO * w1, _RIESZ_HI * w1
    if end is not None:
        # a finite term list's means are exact only up to its last frequency
        if end <= om_lo:
            raise ValueError(
                f"verification refused: the spectrum's data end at omega = {end:.6g}, "
                f"below the Riesz grids' bottom omega = 20 w1 = {om_lo:.6g}")
        om_hi = min(om_hi, end)
    om_grid = geometric_grid(om_lo, om_hi, _RIESZ_POINTS)
    lam_grid = [w * w for w in om_grid]

    # the heat trace's fit on one side of the trace rows, and one Riesz mean
    # of order alpha = d+3 in each variable on the other: the lambda fit gives
    # b_s, the omega fit e_s and f_s through one Gamma ratio each.  The
    # samples are taken on the raw grids and fitted in units of u = 2^e
    # (heat time u^2 t, lambda / u^2, omega / u), exact power-of-two
    # rescalings, so every coefficient of order s is u^(d-s) times its raw one
    e = math.frexp(w1)[1]
    alpha = d + _RIESZ_ORDER_PAST_D
    heat_values = [p.value for p in trace_grid(spectrum, "heat", heat_ts, _TOL)]
    heat_fit = fit_expansion([math.ldexp(t, 2 * e) for t in heat_ts], heat_values,
                             heat_basis(d, _ORDERS))
    cyl_from_heat = heat_to_cylinder(expansion_from_fit(d, heat_fit))
    _lam_values, lam_fit = _fit_means(spectrum, alpha, "lambda", lam_grid,
                                      [math.ldexp(x, -2 * e) for x in lam_grid])
    om_x = [math.ldexp(w, -e) for w in om_grid]
    om_values, om_fit = _fit_means(spectrum, alpha, "omega", om_grid, om_x)
    orders = range(_ORDERS + 1)
    heat_from_riesz = riesz_to_trace(
        "lambda", alpha, d, [lam_fit.coefficient(Fraction(d - s, 2), 0) for s in range(3)])
    cyl_from_riesz = riesz_to_trace(
        "omega", alpha, d, [om_fit.coefficient(Fraction(d - s), 0) for s in orders],
        [om_fit.coefficient(Fraction(d - s), 1) if (Fraction(d - s), 1) in om_fit.basis.terms
         else 0.0 for s in orders])

    def tol(s: int, expected: float) -> float:
        # the one rule in units of u: 1e-4 of the coefficient or of its
        # scale (w1/u)^(s-d)
        return 1e-4 * max(abs(expected), math.ldexp(w1, -e) ** (s - d))

    def omega_e(s: int) -> float:
        # e_s in units of u: beside a fitted log column f_s t^(s-d) log t the
        # raw e_s is u^(s-d) (e_s + f_s ln u), from these units' e_s and f_s
        e_s = float(cyl_from_riesz.term(Fraction(s - d), 0).coefficient)
        log = cyl_from_riesz.term(Fraction(s - d), 1)
        f_s = 0.0 if log is None else float(log.coefficient)
        return e_s + f_s * e * math.log(2) if f_s else e_s

    rows: list[VerifyRow] = []
    # e_s from b_s against e_s from the omega mean
    for s in orders:
        via = cyl_from_heat.term(Fraction(s - d), 0)
        riesz_e = omega_e(s)
        if via.status == "undetermined":
            rows.append(VerifyRow(
                f"e_{s} undetermined by heat side", riesz_e, None, 0.0,
                note="new invariant; reported from the omega-Riesz fit only", shift=e * (s - d)))
            continue
        rows.append(VerifyRow(
            f"e_{s} = 2^(d-s) Gamma((d-s+1)/2) b_{s}/sqrt(pi)",
            float(via.coefficient), riesz_e, tol(s, riesz_e), shift=e * (s - d)))

    # log coefficients implied by the heat side must be tiny here
    for s in orders:
        via = cyl_from_heat.term(Fraction(s - d), 1)
        if via is not None:
            rows.append(VerifyRow(f"f_{s} from b_{s}", float(via.coefficient), 0.0, tol(s, 0.0),
                                  shift=e * (s - d)))

    # the index term: no t^0 log t in Tr T (equally, no t^-1 in dTrT/dt),
    # f_d = -d_(alpha,d) at R = 1, detected on the omega mean's own values
    # weighed alike, as its fit weighs them
    det = detect_log_term(om_x, om_values, Fraction(0), om_fit, [1.0] * len(om_grid))
    rows.append(VerifyRow(
        "no log t at t^0 in Tr T", det.magnitude, 0.0, 0.0 if det.present else tol(d, 0.0),
        note="detector says PRESENT" if det.present else "detector says absent"))

    # the vacuum energy: at s = d+1 the ratio is alpha, E = -c_(alpha,d+1)/(2 alpha)
    expected = None if spectrum.energy is None else math.ldexp(spectrum.energy, -e)
    rows.append(VerifyRow(
        "casimir energy -e_(d+1)/2", -omega_e(d + 1) / 2.0, expected,
        0.0 if expected is None else 1e-4 * abs(expected),
        note="" if expected is not None else "no closed form for this recipe", shift=e))

    # b_s from the lambda mean against the heat fit
    for s in range(3):
        via = heat_from_riesz.term(Fraction(s - d, 2), 0)
        direct = heat_fit.coefficient(Fraction(s - d, 2), 0)
        rows.append(VerifyRow(
            f"b_{s} = Gamma({alpha}+(d-{s})/2+1) a_({alpha},{s})/{alpha}!",
            float(via.coefficient), direct, tol(s, direct), shift=e * (s - d)))

    return rows
