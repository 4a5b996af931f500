"""The coefficient-relation pipeline behind `spectrace verify`.

run_verification fits every coefficient family of one spectrum (heat,
cylinder and derivative-cylinder traces, and one Riesz mean of order d+3 in
each of the lambda and omega variables) and returns one VerifyRow per
relation it checks.  The vacuum energy comes twice: -e_(d+1)/2 from the
cylinder fit, and -c_(d+3,d+1)/(2(d+3)) from the omega-Riesz fit, each
against the constructor's closed form, Spectrum.energy.
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
    _carries_log,
    casimir_energy,
    heat_to_cylinder,
    riesz_to_trace,
)
from .riesz import extract_riesz_coeffs
from . import spectra
from .spectra import Spectrum
from .traces import _cutoff, trace_grid, trace_grids

__all__ = ["VerifyRow", "expansion_from_fit", "fit_trace", "run_verification"]

# verify's basis depth (orders s = 0..4), samples per window, trace tolerance
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
    reported, not checked (passed)."""

    name: str
    computed: float
    expected: Optional[float]
    tol: float
    note: str = ""

    def __post_init__(self):
        self.delta = math.nan if self.expected is None else abs(self.computed - self.expected)
        self.passed = self.expected is None or self.delta <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        exp = "---" if self.expected is None else f"{self.expected:+.8e}"
        comp = f"{self.computed:+.8e}" if isinstance(self.computed, float) else str(self.computed)
        delta = "" if self.expected is None else f" delta={self.delta:.2e} tol={self.tol:.1e}"
        note = f"  [{self.note}]" if self.note else ""
        return f"{status}  {self.name:<38} {comp}  vs {exp}{delta}{note}"


def expansion_from_fit(dim: int, report: FitReport) -> AsymptoticExpansion:
    """The fitted coefficients of report as an expansion, status "fitted"."""
    terms = tuple(
        ExpansionTerm(p, q, c, "fitted")
        for (p, q), c in zip(report.basis.terms, report.coefficients)
    )
    return AsymptoticExpansion(dim, terms)


def fit_trace(spectrum: Spectrum, kernel: str, ts: Sequence[float], tol: float,
              orders: int, include_logs: bool = False) -> FitReport:
    """The kernel's trace sampled over ts and fitted to its expansion shape
    through `orders`, with the cylinder log columns if asked."""
    samples = trace_grid(spectrum, kernel, ts, tol)
    d = spectrum.dim
    if kernel == "heat":
        basis = heat_basis(d, orders)
    elif kernel == "cylinder":
        basis = cylinder_basis(d, orders, include_logs=include_logs)
    else:
        basis = dcylinder_basis(d, orders)
    return fit_expansion(ts, [s.value for s in samples], basis)


def _first_positive_omega(s: Spectrum) -> float:
    # from where the envelope counts one term past C1 (the list's end when C2 = 0
    # or C2^(-1/d) overflows), 4x a step: a few terms at any length scale; a
    # list that ends is probed up to its end too, which a loose envelope's
    # steps may fall short of
    _c1, c2 = s.envelope
    w = s.truncated_at or 0.0
    if c2 > 0:
        with contextlib.suppress(OverflowError):
            w = c2 ** (-1.0 / s.dim)
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
    """Fit all coefficient families for one spectrum and check every relation.

    Raises ValueError for a spectrum without envelope constants (its traces
    cannot be certified), for dimension 4 or more (the energy's order d+1
    is past the fitted orders), for a spectrum with no positive frequency,
    for one whose first positive frequency or envelope puts a window past
    the float range and for a finite list whose data end at or below the
    Riesz grids' bottom, 20 w1;
    ToleranceError when a trace cannot meet _TOL or an enumeration passes
    the term budget (Spectrum.arrays).
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
    rows: list[VerifyRow] = []

    # verify's window policy: no sample below the time at which the envelope
    # count out to x0/t (cylinder) or x0/t in lambda (heat) exceeds the term
    # cap.  Each trace solves for its own, smaller cutoff; x0 = 80 and the cap
    # only place the windows.  A budget no larger than C1 pays for no cutoff,
    # so the windows stay nominal and the first trace reports the unreachable
    # tolerance; a w_cap^2 past the float range is over the cap too, and one
    # that underflows puts the floors past it.
    c1, c2 = spectrum.envelope
    cap = min(spectra.DEFAULT_MAX_TERMS, 400_000)
    x0 = 80.0
    lam_cap = math.inf
    if c2 > 0 and cap > c1:
        w_cap = ((cap - c1) / c2) ** (1.0 / d)
        try:
            lam_cap = w_cap**2
        except OverflowError:
            pass
        t_cyl_floor = x0 / w_cap if w_cap else math.inf
        t_heat_floor = x0 / lam_cap if lam_cap else math.inf
    else:
        t_cyl_floor = t_heat_floor = 0.0
    if spectrum.truncated_at is not None and spectrum.truncated_at > 0:
        # a finite term list cannot certify below these times
        t_cyl_floor = max(t_cyl_floor, x0 / spectrum.truncated_at)
        t_heat_floor = max(t_heat_floor, x0 / (spectrum.truncated_at * spectrum.truncated_at))
    cyl_lo = max(1e-3 / w1, t_cyl_floor)
    cyl_hi = max(0.1 / w1, 8.0 * cyl_lo)
    heat_lo = max(1e-4 / (w1 * w1), t_heat_floor)
    heat_hi = max(0.1 / (w1 * w1), 8.0 * heat_lo)
    if not (cyl_hi < math.inf and heat_hi < math.inf):
        raise ValueError(
            f"verification refused: the envelope C1 = {c1!r}, C2 = {c2!r} puts verify's "
            f"trace windows past the float range (cylinder times from {cyl_lo!r}, heat "
            f"times from {heat_lo!r})")
    cyl_ts = geometric_grid(cyl_lo, cyl_hi, _POINTS)
    heat_ts = geometric_grid(heat_lo, heat_hi, _POINTS)

    om_lo, om_hi = _RIESZ_LO * w1, _RIESZ_HI * w1
    end = spectrum.truncated_at
    if end is not None:
        # a finite term list's means are exact only up to its last frequency
        if end <= om_lo:
            raise ValueError(
                f"verification refused: the spectrum's data end at omega = {end:.6g}, "
                f"below the Riesz grids' bottom omega = 20 w1 = {om_lo:.6g}")
        om_hi = min(om_hi, end)
    om_grid = geometric_grid(om_lo, om_hi, _RIESZ_POINTS)
    lam_grid = [w * w for w in om_grid]

    # one enumeration up front, to the widest extent a stage reads (the
    # traces' cutoffs crediting no term, the Riesz grids' top); past the term budget
    # Spectrum.arrays refuses it, and the stage that needs the terms raises.
    # A product's heat trace reads its factors, not its own terms
    end_w = math.inf if end is None else end
    summed = [("cylinder", cyl_ts), ("dcylinder", cyl_ts)]
    if spectrum.factors is None:
        summed.append(("heat", heat_ts))
    extent = max(*(min(_cutoff(kind, ts[0], _TOL, c1, c2, d), end_w) for kind, ts in summed),
                 spectra._key_extent("lambda", lam_grid[-1]),
                 spectra._key_extent("omega", om_grid[-1]))
    if math.isfinite(extent):
        with contextlib.suppress(spectra.ToleranceError):
            spectrum.arrays(extent)

    heat_fit = fit_trace(spectrum, "heat", heat_ts, _TOL, _ORDERS)
    # one trace_grids call for the cylinder trace and its derivative; the index-term
    # check fits Tr T with and without a t^0 log t column, the log-free one is the fit
    cyl_samples, dcyl_samples = trace_grids(spectrum, ("cylinder", "dcylinder"), cyl_ts, _TOL)
    det = detect_log_term(cyl_ts, [s.value for s in cyl_samples], Fraction(0),
                          cylinder_basis(d, _ORDERS))
    cyl_fit = det.without_log
    dcyl_fit = fit_expansion(cyl_ts, [s.value for s in dcyl_samples],
                             dcylinder_basis(d, _ORDERS + 1))

    cyl_from_heat = heat_to_cylinder(expansion_from_fit(d, heat_fit))

    # power-coefficient relations: e_s from b_s against directly fitted e_s.
    # Tolerances carry the fits' own jackknife spreads, so a coarse window
    # (forced by the term budget in higher dimension) widens them honestly
    # while d=1 spectra run at the nominal figures.
    for s in range(_ORDERS + 1):
        p = Fraction(s - d)
        via = cyl_from_heat.term(p, 0)
        direct = cyl_fit.coefficient(p, 0)
        if via.status == "undetermined":
            rows.append(VerifyRow(
                f"e_{s} undetermined by heat side", direct, None, 0.0,
                note="new invariant; reported from direct fit only"))
            continue
        slack = 10.0 * (cyl_fit.spread(p, 0) + heat_fit.spread(Fraction(s - d, 2), 0))
        rows.append(VerifyRow(
            f"e_{s} = 2^(d-s) Gamma((d-s+1)/2) b_{s}/sqrt(pi)",
            float(via.coefficient), direct, 1e-5 * max(1.0, abs(direct)) + slack))

    # log coefficients implied by the heat side must be tiny here
    for s in range(_ORDERS + 1):
        p = Fraction(s - d)
        via = cyl_from_heat.term(p, 1)
        if via is not None:
            slack = 10.0 * heat_fit.spread(Fraction(s - d, 2), 0)
            rows.append(VerifyRow(
                f"f_{s} from b_{s}", float(via.coefficient), 0.0, 1e-6 + slack))

    # index-term checks
    rows.append(VerifyRow(
        "no log t at t^0 in Tr T", det.magnitude, 0.0,
        1e-6 + 10.0 * det.coefficient_spread if not det.present else 0.0,
        note="detector says absent" if not det.present else "detector says PRESENT"))

    rows.append(VerifyRow(
        "no t^-1 in dTrT/dt", dcyl_fit.coefficient(Fraction(-1), 0), 0.0,
        1e-8 + 10.0 * dcyl_fit.spread(Fraction(-1), 0)))

    # vacuum energy
    energy = casimir_energy(expansion_from_fit(d, cyl_fit))
    expected = spectrum.energy
    if expected is not None:
        tol_e = 1e-4 * max(abs(expected), 1e-3) + 5.0 * cyl_fit.spread(Fraction(1), 0)
    else:
        tol_e = 0.0
    rows.append(VerifyRow("casimir energy -e_(d+1)/2", energy, expected, tol_e,
                          note="" if expected is not None else "no closed form for this recipe"))

    # Riesz relations: one fit of order alpha = d+3 per variable, every
    # coefficient read through one Gamma ratio; the fits are limited by
    # spectral oscillation, so the s <= 2 rows run at a looser tolerance than
    # the trace-to-trace relations above
    alpha = d + _RIESZ_ORDER_PAST_D
    riesz_tol = 2e-2 if d == 1 else 5e-2

    lam_fit = extract_riesz_coeffs(spectrum, alpha, "lambda", lam_grid)
    heat_from_riesz = riesz_to_trace(
        "lambda", alpha, d, [lam_fit.coefficient(Fraction(d - s, 2), 0) for s in range(3)])
    for s in range(3):
        via = heat_from_riesz.term(Fraction(s - d, 2), 0)
        direct = heat_fit.coefficient(Fraction(s - d, 2), 0)
        rows.append(VerifyRow(
            f"b_{s} = Gamma({alpha}+(d-{s})/2+1) a_({alpha},{s})/{alpha}!",
            float(via.coefficient), direct, riesz_tol * max(1.0, abs(direct))))

    # a log column at x^(d-s) is fitted only where the data show it
    om_fit = extract_riesz_coeffs(spectrum, alpha, "omega", om_grid)
    c, dlog = [], []
    for s in range(d + 2):
        p = Fraction(d - s)
        c.append(om_fit.coefficient(p, 0))
        dlog.append(om_fit.coefficient(p, 1) if (p, 1) in om_fit.basis.terms else 0.0)
    cyl_from_riesz = riesz_to_trace("omega", alpha, d, c, dlog)
    for s in range(3):
        via = cyl_from_riesz.term(Fraction(s - d), 0)
        direct = cyl_fit.coefficient(Fraction(s - d), 0)
        log = _carries_log(s, d)
        tol_s = (2e-2 if log else riesz_tol) * max(1.0, abs(direct))
        rows.append(VerifyRow(
            f"e_{s} = Gamma({alpha}+d-{s}+1) c_({alpha},{s})/{alpha}!" + (" (+psi d)" if log else ""),
            float(via.coefficient), direct, tol_s))

    # the energy is the omega mean's x^(-1) coefficient: c_(alpha,d+1) = -2 alpha E
    rows.append(VerifyRow(
        f"casimir energy from omega-Riesz -c_({alpha},d+1)/(2*{alpha})",
        casimir_energy(cyl_from_riesz), expected,
        1e-4 * abs(expected) if expected is not None else 0.0,
        note="" if expected is not None else "no closed form for this recipe"))

    return rows
