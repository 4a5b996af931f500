"""The coefficient-relation pipeline behind `spectrace verify`.

run_verification fits every coefficient family of one spectrum (heat,
cylinder and derivative-cylinder traces, lambda- and omega-Riesz means) and
returns one VerifyRow per relation it checks, ending in the vacuum energy
-e_(d+1)/2 against the constructor's closed form, Spectrum.energy.
"""

from __future__ import annotations

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
    riesz_to_cylinder,
    riesz_to_heat,
)
from .riesz import extract_riesz_coeffs
from . import spectra
from .spectra import Spectrum
from .traces import trace_grid

__all__ = ["VerifyRow", "expansion_from_fit", "fit_trace", "run_verification"]

# verify's basis depth (orders s = 0..4), samples per window, trace tolerance
_ORDERS = 4
_POINTS = 64
_TOL = 1e-13


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
    anchor = math.sqrt(ts[0] * ts[-1])
    d = spectrum.dim
    if kernel == "heat":
        basis = heat_basis(d, orders, anchor)
    elif kernel == "cylinder":
        basis = cylinder_basis(d, orders, anchor, include_logs=include_logs)
    else:
        basis = dcylinder_basis(d, orders, anchor)
    return fit_expansion([(s.t, s.value) for s in samples], basis)


def _first_positive_omega(s: Spectrum) -> float:
    for k in range(60):
        omegas, _mults = s.arrays(4.0**k)
        positive = omegas[omegas > 0]
        if positive.size:
            return float(positive[0])
    raise ValueError("could not find a positive eigenfrequency")


def run_verification(spectrum: Spectrum) -> list[VerifyRow]:
    """Fit all coefficient families for one spectrum and check every relation.

    Raises ValueError for a spectrum without envelope constants (its traces
    cannot be certified) and for a spectrum with no positive frequency;
    ToleranceError when a trace cannot meet _TOL or an enumeration passes
    the term budget (Spectrum.arrays).
    """
    if spectrum.envelope is None:
        raise ValueError(
            "verification refused: spectrum supplies no envelope constants, so "
            "trace truncation cannot be certified (add an 'envelope C1 C2' line)"
        )
    d = spectrum.dim
    w1 = _first_positive_omega(spectrum)
    rows: list[VerifyRow] = []

    # verify's window policy: no sample below the time at which the envelope
    # count out to x0/t (cylinder) or x0/t in lambda (heat) exceeds the term
    # cap, and no lambda-Riesz grid point above the lambda at which it does
    # (w_cap^2; the grid keeps at least a factor 8).  Each trace solves for
    # its own, smaller cutoff; x0 = 80 and the cap only place the windows.  A
    # budget no larger than C1 pays for no cutoff, so the windows stay
    # nominal and the first trace reports the unreachable tolerance; a w_cap^2
    # past the float range is over the cap too.
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
        t_cyl_floor = x0 / w_cap
        t_heat_floor = x0 / lam_cap
    else:
        t_cyl_floor = t_heat_floor = 0.0
    if spectrum.truncated_at is not None and spectrum.truncated_at > 0:
        # a finite term list cannot certify below these times
        t_cyl_floor = max(t_cyl_floor, x0 / spectrum.truncated_at)
        t_heat_floor = max(t_heat_floor, x0 / spectrum.truncated_at**2)
    cyl_lo = max(1e-3 / w1, t_cyl_floor)
    cyl_hi = max(0.1 / w1, 8.0 * cyl_lo)
    heat_lo = max(1e-4 / (w1 * w1), t_heat_floor)
    heat_hi = max(0.1 / (w1 * w1), 8.0 * heat_lo)
    cyl_ts = geometric_grid(cyl_lo, cyl_hi, _POINTS)
    heat_ts = geometric_grid(heat_lo, heat_hi, _POINTS)

    heat_fit = fit_trace(spectrum, "heat", heat_ts, _TOL, _ORDERS)
    # the index-term check fits the cylinder samples with and without a
    # t^0 log t column; the log-free one is the cylinder fit
    cyl_samples = trace_grid(spectrum, "cylinder", cyl_ts, _TOL)
    det = detect_log_term(
        [(s.t, s.value) for s in cyl_samples],
        Fraction(0),
        cylinder_basis(d, _ORDERS, math.sqrt(cyl_ts[0] * cyl_ts[-1])),
    )
    cyl_fit = det.without_log
    dcyl_fit = fit_trace(spectrum, "dcylinder", cyl_ts, _TOL, _ORDERS + 1)

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
    try:
        energy = casimir_energy(expansion_from_fit(d, cyl_fit))
        expected = spectrum.energy
        if expected is not None:
            tol_e = 1e-4 * max(abs(expected), 1e-3) + 5.0 * cyl_fit.spread(Fraction(1), 0)
        else:
            tol_e = 0.0
        rows.append(VerifyRow("casimir energy -e_(d+1)/2", energy, expected, tol_e,
                              note="" if expected is not None else "no closed form for this recipe"))
    except ValueError:
        rows.append(VerifyRow("casimir energy -e_(d+1)/2", math.nan, None, 0.0,
                              note="expansion too shallow for s=d+1"))

    # Riesz relations (diagonal coefficients only); the fits are limited by
    # spectral oscillation, so these rows run at a looser tolerance than the
    # trace-to-trace relations above
    lam_lo, om_lo = 1e2 * w1 * w1, 10.0 * w1
    lam_hi = max(min(1e6 * w1 * w1, lam_cap), 8.0 * lam_lo)
    om_hi = 100.0 * w1
    end = spectrum.truncated_at
    if end is not None:
        # a finite term list's means are exact only up to its last frequency
        if end <= om_lo or end * end <= lam_lo:
            raise ValueError(
                f"verification refused: the spectrum's data end at omega = {end:.6g}, "
                f"below the Riesz grids' bottom omega = 10 w1 = {om_lo:.6g}")
        lam_hi, om_hi = min(lam_hi, end * end), min(om_hi, end)
    lam_grid = geometric_grid(lam_lo, lam_hi, 128)
    om_grid = geometric_grid(om_lo, om_hi, 128)
    riesz_tol = 2e-2 if d == 1 else 5e-2

    a_diag = []
    for alpha in range(3):
        rep = extract_riesz_coeffs(spectrum, alpha, "lambda", grid=lam_grid)
        a_diag.append(rep.coefficient(Fraction(d - alpha, 2), 0))
    heat_from_riesz = riesz_to_heat(a_diag, d)
    for s, _a in enumerate(a_diag):
        via = heat_from_riesz.term(Fraction(s - d, 2), 0)
        direct = heat_fit.coefficient(Fraction(s - d, 2), 0)
        rows.append(VerifyRow(
            f"b_{s} = Gamma((d+{s})/2+1) a_{s}{s}/{s}!",
            float(via.coefficient), direct, riesz_tol * max(1.0, abs(direct))))

    c_diag, d_diag = [], []
    for alpha in range(3):
        p_diag = Fraction(d - alpha)
        # a log column at x^(d-alpha) is fitted only where the data show it
        rep = extract_riesz_coeffs(spectrum, alpha, "omega", grid=om_grid)
        c_diag.append(rep.coefficient(p_diag, 0))
        d_diag.append(rep.coefficient(p_diag, 1) if (p_diag, 1) in rep.basis.terms else 0.0)
    cyl_from_riesz = riesz_to_cylinder(c_diag, d_diag, d)
    for s in range(len(c_diag)):
        via = cyl_from_riesz.term(Fraction(s - d), 0)
        direct = cyl_fit.coefficient(Fraction(s - d), 0)
        branch = "e" if _carries_log(s, d) else "c"
        tol_s = (2e-2 if branch == "e" else riesz_tol) * max(1.0, abs(direct))
        rows.append(VerifyRow(
            f"e_{s} = d! {branch}_{s}{s}/{s}!" + (" (+psi d_ss)" if branch == "e" else ""),
            float(via.coefficient), direct, tol_s))

    return rows
