"""Riesz means of the counting function, exactly, plus coefficient extraction.

The alpha-fold averaged counting function has the closed form
(1/alpha!) x^{-alpha} sum_{x_n <= x} mult (x - x_n)^alpha (the iterated
simplex integral of a unit step), in either the eigenvalue variable
(x_n = lambda_n) or the frequency variable (x_n = omega_n).  Averaging is
what turns the non-decaying spectral oscillations of the raw Weyl remainder
into a genuinely asymptotic series; weyl_remainder exhibits the raw
oscillation itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .fitkit import AsymptoticBasis, FitReport, fit_expansion, geometric_grid
from .spectra import Spectrum, _keys_up_to

__all__ = [
    "RieszMeanValue",
    "riesz_mean",
    "riesz_mean_grid",
    "extract_riesz_coeffs",
    "weyl_remainder",
    "riesz_fit_basis",
]

_VARIABLES = ("lambda", "omega")
# default fitting window (x_min, x_max) per variable
DEFAULT_RANGES = {"lambda": (1e2, 1e4), "omega": (10.0, 1e2)}
# orders fitted beyond s = alpha
_GUARD_ORDERS = 1
# consecutive terms per chunk of riesz_mean_grid's moment tables
_CHUNK = 1024
# riesz_mean_grid divides by x^alpha only while |log2 x^alpha| is below this,
# far enough inside the float range that neither it nor the sum under- or
# overflows
_POW_BITS = 900.0


@dataclass(frozen=True)
class RieszMeanValue:
    alpha: int
    variable: str
    x: float
    value: float


def riesz_mean(s: Spectrum, alpha: int, variable: str, x: float) -> RieszMeanValue:
    """Exact alpha-th Riesz mean of N at x, in the chosen variable.

    variable="lambda": (1/alpha!) x^{-alpha} sum_{lambda_n <= x} mult (x - lambda_n)^alpha.
    variable="omega":  the same with omega_n in place of lambda_n.
    The one-point riesz_mean_grid.  Raises ValueError for x = inf on a
    spectrum that does not end.
    """
    return riesz_mean_grid(s, alpha, variable, [x])[0]


def riesz_mean_grid(s: Spectrum, alpha: int, variable: str,
                    grid: Sequence[float]) -> list[RieszMeanValue]:
    """Riesz means over a whole grid with a single spectrum enumeration.

    Evaluated from the closed form (partial power sums), not by quadrature:
    one enumeration to the largest grid point and one searchsorted for the
    grid.  alpha = 0 reads the cumulative count (_cumulative_count).  For
    alpha >= 1 the sorted terms are cut into chunks of _CHUNK consecutive
    terms; chunk c, with largest key a_c, keeps the moments
    S[c, i] = sum mult (a_c - x_n)^i for i = 0..alpha, and by the binomial
    theorem its share of the sum at any x >= a_c is
    sum_i C(alpha, i) (x - a_c)^(alpha - i) S[c, i], a Horner polynomial in
    x - a_c.  A point adds that over the chunks wholly at or below it and
    np.sum of the fewer than _CHUNK terms past the last of them.  Every
    quantity is >= 0, so nothing cancels and a mean stays within a few eps
    of the correctly rounded one (the tests hold it to 64 eps).  Chunks start
    at the first term, so a value depends only on x and the spectrum, never
    on the rest of the grid: riesz_mean(x) is the same float.  Where x^alpha
    lies outside 2^-900 .. 2^900, a point sums mult ((x - x_n) / x)^alpha
    instead, which neither under- nor overflows.  Raises ValueError for an
    infinite grid point on a spectrum that does not end.
    """
    if variable not in _VARIABLES:
        raise ValueError(f"variable must be one of {_VARIABLES}, got {variable!r}")
    if alpha < 0 or int(alpha) != alpha:
        raise ValueError(f"alpha must be a nonnegative integer, got {alpha}")
    grid = [float(x) for x in grid]
    if any(not (x > 0) for x in grid):
        raise ValueError("grid points must be positive")
    if not grid:
        return []
    alpha = int(alpha)
    keys, mults = _keys_up_to(s, variable, max(grid))
    if alpha == 0:
        counts = _cumulative_count(keys, mults, grid).tolist()
        return [RieszMeanValue(alpha=0, variable=variable, x=x, value=n)
                for x, n in zip(grid, counts)]
    mults = mults.astype(float)
    idxs = np.searchsorted(keys, grid, side="right").tolist()
    chunks = max(idxs) // _CHUNK
    coef = _chunk_moments(keys[:chunks * _CHUNK], mults[:chunks * _CHUNK], alpha)
    anchors = keys[_CHUNK - 1:chunks * _CHUNK:_CHUNK]
    gap, acc, terms = np.empty(chunks), np.empty(chunks), np.empty(_CHUNK - 1)
    fac = math.factorial(alpha)
    out = []
    for x, idx in zip(grid, idxs):
        if idx and not abs(alpha * math.log2(x)) < _POW_BITS:
            # x^alpha would under- or overflow: sum the terms scaled by 1/x
            scaled = np.power((x - keys[:idx]) / x, alpha) * mults[:idx]
            out.append(RieszMeanValue(alpha=alpha, variable=variable, x=x,
                                      value=float(np.sum(scaled)) / fac))
            continue
        q = idx // _CHUNK
        head = 0.0
        if q:
            # the chunks at or below x, by Horner in x - a_c
            y, h = gap[:q], acc[:q]
            np.subtract(x, anchors[:q], out=y)
            np.multiply(coef[0, :q], y, out=h)
            h += coef[1, :q]
            for row in coef[2:, :q]:
                h *= y
                h += row
            head = float(np.sum(h))
        # the terms past the last full chunk, term by term
        start = q * _CHUNK
        tail = terms[:idx - start]
        np.subtract(x, keys[start:idx], out=tail)
        if alpha == 2:
            np.square(tail, out=tail)
        elif alpha > 2:
            np.power(tail, alpha, out=tail)
        tail *= mults[start:idx]
        value = (head + float(np.sum(tail))) / (fac * x**alpha) if idx else 0.0
        out.append(RieszMeanValue(alpha=alpha, variable=variable, x=x, value=value))
    return out


def _chunk_moments(keys: np.ndarray, mults: np.ndarray, alpha: int) -> np.ndarray:
    """C(alpha, i) S[c, i], shape (alpha + 1, chunks), for the keys cut into
    chunks of _CHUNK: S[c, i] = sum mult (a_c - x_n)^i over chunk c, a_c its
    largest key.  Each row sum depends on its own chunk alone.
    """
    keys = keys.reshape(-1, _CHUNK)
    mults = mults.reshape(-1, _CHUNK)
    gaps = keys[:, -1:] - keys
    coef = np.empty((alpha + 1, keys.shape[0]))
    coef[0] = mults.sum(axis=1)
    term = mults
    for i in range(1, alpha + 1):
        term = term * gaps
        coef[i] = math.comb(alpha, i) * term.sum(axis=1)
    return coef


def _cumulative_count(keys: np.ndarray, mults: np.ndarray, grid) -> np.ndarray:
    """N at each grid point as a float array, from one searchsorted into the
    cumulative multiplicities; exact while the count stays below 2^53."""
    idx = np.searchsorted(keys, grid, side="right")
    out = np.zeros(idx.size)
    hit = idx > 0
    out[hit] = np.cumsum(mults, dtype=np.float64)[idx[hit] - 1]
    return out


def riesz_fit_basis(dim: int, alpha: int, variable: str,
                    scale_anchor: float = 1.0,
                    include_logs: bool = True) -> AsymptoticBasis:
    """Basis matching the Riesz-mean expansion shape.

    lambda variable: x^{(d-s)/2}; omega variable: x^{d-s}, plus x^{d-s} log x
    where s-d is odd and positive.  s runs to alpha + _GUARD_ORDERS: the terms
    beyond s = alpha absorb the smooth part of the remainder so the
    diagonal-range coefficients come out clean.
    """
    terms: list[tuple[Fraction, int]] = []
    for s in range(alpha + _GUARD_ORDERS + 1):
        if variable == "lambda":
            terms.append((Fraction(dim - s, 2), 0))
        else:
            terms.append((Fraction(dim - s), 0))
            if include_logs and s - dim > 0 and (s - dim) % 2 == 1:
                terms.append((Fraction(dim - s), 1))
    return AsymptoticBasis(tuple(terms), scale_anchor)


def extract_riesz_coeffs(
    s: Spectrum,
    alpha: int,
    variable: str,
    grid: Optional[Sequence[float]] = None,
    basis: Optional[AsymptoticBasis] = None,
) -> FitReport:
    """Fit the asymptotic coefficients of the alpha-th Riesz mean.

    The fitted values follow the plain normalization x^{-alpha} sum (x-x_n)^alpha
    (alpha! times riesz_mean), which is the convention under which the
    coefficient-relation identities hold: in the lambda variable the diagonal
    coefficient a_{alpha,alpha} feeds b_s = Gamma((d+s)/2+1)/Gamma(s+1) a_ss,
    and in the omega variable c_ss feeds the cylinder relations.

    grid defaults to 64 points geometric over DEFAULT_RANGES[variable].  The
    default omega-variable basis carries an x^{d-s} log x column (allowed at
    s-d odd positive) only when the with/without comparison says the data
    have it -- fitting a log column against data that have none mostly soaks
    up spectral oscillation and spoils the power coefficients.

    Coefficients at s < alpha repeat information available at lower alpha and
    are flagged informational in the report notes.
    """
    if variable not in _VARIABLES:
        raise ValueError(f"variable must be one of {_VARIABLES}, got {variable!r}")
    if grid is None:
        grid = geometric_grid(*DEFAULT_RANGES[variable], 64)
    grid = list(grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    scale = math.factorial(int(alpha))
    samples = [(mv.x, scale * mv.value)
               for mv in riesz_mean_grid(s, alpha, variable, grid)]
    anchor = math.sqrt(grid[0] * grid[-1])
    if basis is None:
        if variable == "omega":
            basis = _detected_omega_basis(samples, s.dim, alpha, anchor)
        else:
            basis = riesz_fit_basis(s.dim, alpha, variable, anchor)
    report = fit_expansion(samples, basis)
    notes = list(report.notes)
    redundant = []
    for ss in range(int(alpha)):
        p = Fraction(s.dim - ss, 2) if variable == "lambda" else Fraction(s.dim - ss)
        if (p, 0) in basis.terms:
            redundant.append(f"s={ss}")
    if redundant:
        notes.append(
            "informational only (redundant below the diagonal): " + ", ".join(redundant)
        )
    return FitReport(
        basis=report.basis,
        coefficients=report.coefficients,
        residual_rms=report.residual_rms,
        condition_estimate=report.condition_estimate,
        stability=report.stability,
        notes=tuple(notes),
    )


def _detected_omega_basis(samples, dim: int, alpha: int, anchor: float) -> AsymptoticBasis:
    """Log-free omega basis, augmented with the log columns the data support."""
    from .fitkit import detect_log_term

    basis = riesz_fit_basis(dim, alpha, "omega", anchor, include_logs=False)
    full = riesz_fit_basis(dim, alpha, "omega", anchor, include_logs=True)
    for p, q in full.terms:
        if q == 1:
            if detect_log_term(samples, p, basis).present:
                basis = basis.with_term(p, 1)
    return basis


def weyl_remainder(
    s: Spectrum,
    M: int,
    weyl_coeffs: Sequence[float],
    grid: Sequence[float],
) -> list[tuple[float, float]]:
    """E_M(omega) = N(omega^2) - sum_{s<=M} g_s omega^{d-s} on the grid.

    Beyond the leading term this remainder is oscillatory and does not decay;
    sampling it over decades makes that visible.  Raises ValueError for an
    infinite grid point on a spectrum that does not end.
    """
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    if len(weyl_coeffs) < M + 1:
        raise ValueError(f"need g_0..g_{M}, got {len(weyl_coeffs)} coefficients")
    d = s.dim
    grid = [float(w) for w in grid]
    if not grid:
        return []
    omegas, mults = _keys_up_to(s, "omega", max(grid))
    out = []
    for w, n in zip(grid, _cumulative_count(omegas, mults, grid).tolist()):
        model = math.fsum(weyl_coeffs[k] * w ** (d - k) for k in range(M + 1))
        out.append((w, n - model))
    return out
