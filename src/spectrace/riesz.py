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

from .fitkit import AsymptoticBasis, FitReport, detect_log_term, fit_expansion, geometric_grid
from .invariants import _carries_log
from .spectra import Spectrum, _key_counts

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
# chunks per block of _chunk_moments' work arrays
_BLOCK = 64
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
    The one-point riesz_mean_grid: x = inf on a spectrum that ends gives the
    limit (sum mult) / alpha!, on one that does not it raises ValueError.
    """
    return riesz_mean_grid(s, alpha, variable, [x])[0]


def riesz_mean_grid(s: Spectrum, alpha: int, variable: str,
                    grid: Sequence[float]) -> list[RieszMeanValue]:
    """Riesz means over a whole grid with a single spectrum enumeration.

    Evaluated from the closed form (partial power sums), not by quadrature:
    one enumeration to the largest grid point and one searchsorted for the
    grid, for every alpha.  The sorted terms are cut into chunks of _CHUNK
    consecutive terms; chunk c, with largest key a_c, keeps the moments
    S[c, i] = sum mult (a_c - x_n)^i for i = 0..alpha, and by the binomial
    theorem its share of the sum at any x >= a_c is
    sum_i C(alpha, i) (x - a_c)^(alpha - i) S[c, i], a Horner polynomial in
    x - a_c (for alpha = 0 the chunk count, summed once per grid).  A point
    adds that over the chunks wholly at or below it and np.sum of the fewer
    than _CHUNK terms past the last of them.  Every quantity is >= 0, so
    nothing cancels and a mean stays within a few eps of the correctly
    rounded one (the tests hold it to 64 eps; N is exact below 2^53).
    Chunks start at the first term, so a value depends only on x and the
    spectrum, never on the rest of the grid: riesz_mean(x) is the same
    float.  Where x^alpha lies outside 2^-900 .. 2^900, a point sums
    mult ((x - x_n) / x)^alpha instead, which neither under- nor overflows;
    x = inf gives the limit (sum mult) / alpha!.  Raises ValueError for an
    infinite grid point on a spectrum that does not end, and ToleranceError
    when the enumeration to the largest point needs more than
    DEFAULT_MAX_TERMS rows, before it allocates them (Spectrum.arrays).

    Memory above the cached enumeration: the moment table (alpha + 1 floats
    a chunk) and work arrays of _BLOCK chunks.  In the lambda variable the
    keys omega^2 are squared where used (a block of the table, the anchors,
    a point's tail), never as a whole; the point counts come from the cached
    omegas (_key_counts).  A grid over 420k terms peaks about 5.2 bytes a
    term above the cache (2.5 for alpha = 0).
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
    # the keys are values * values in the lambda variable, squared where used
    values, mults, idxs = _key_counts(s, variable, grid)
    square = variable == "lambda"
    chunks = max(idxs) // _CHUNK
    coef = _chunk_moments(values[:chunks * _CHUNK], mults[:chunks * _CHUNK], alpha, square)
    counts = np.cumsum(coef[0]).tolist()
    anchors = values[_CHUNK - 1:chunks * _CHUNK:_CHUNK]
    if square:
        anchors = anchors * anchors
    gap, acc, terms = np.empty(chunks), np.empty(chunks), np.empty(_CHUNK - 1)
    fac = math.factorial(alpha)
    out = []
    for x, idx in zip(grid, idxs):
        q = idx // _CHUNK
        start = q * _CHUNK
        if alpha == 0 or math.isinf(x):
            # N(x) (over alpha! at x = inf): the chunk counts and the tail's
            n = (counts[q - 1] if q else 0.0) + float(mults[start:idx].sum(dtype=float))
            out.append(RieszMeanValue(alpha=alpha, variable=variable, x=x, value=n / fac))
            continue
        if idx and not abs(alpha * math.log2(x)) < _POW_BITS:
            # x^alpha would under- or overflow: sum the terms scaled by 1/x
            keys = values[:idx] * values[:idx] if square else values[:idx]
            scaled = np.power((x - keys) / x, alpha) * mults[:idx]
            out.append(RieszMeanValue(alpha=alpha, variable=variable, x=x,
                                      value=float(np.sum(scaled)) / fac))
            continue
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
        tail = terms[:idx - start]
        if square:
            np.multiply(values[start:idx], values[start:idx], out=tail)
            np.subtract(x, tail, out=tail)
        else:
            np.subtract(x, values[start:idx], out=tail)
        if alpha == 2:
            np.square(tail, out=tail)
        elif alpha > 2:
            np.power(tail, alpha, out=tail)
        tail *= mults[start:idx]
        value = (head + float(np.sum(tail))) / (fac * x**alpha) if idx else 0.0
        out.append(RieszMeanValue(alpha=alpha, variable=variable, x=x, value=value))
    return out


def _chunk_moments(values: np.ndarray, mults: np.ndarray, alpha: int,
                   square: bool) -> np.ndarray:
    """C(alpha, i) S[c, i], shape (alpha + 1, chunks), for the keys cut into
    chunks of _CHUNK: S[c, i] = sum mult (a_c - x_n)^i over chunk c, a_c its
    largest key, with mult as float64.  The keys are the values, or with
    square their rounded squares.  Each row sum depends on its own chunk
    alone, so the chunks are taken _BLOCK at a time and the work arrays
    (the squared keys among them) stay at a block's size, whatever the
    number of terms.
    """
    chunks = values.size // _CHUNK
    coef = np.empty((alpha + 1, chunks))
    for lo in range(0, chunks, _BLOCK):
        hi = min(lo + _BLOCK, chunks)
        term = mults[lo * _CHUNK:hi * _CHUNK].reshape(-1, _CHUNK).astype(float)
        coef[0, lo:hi] = term.sum(axis=1)
        if alpha:
            block = values[lo * _CHUNK:hi * _CHUNK].reshape(-1, _CHUNK)
            if square:
                block = block * block
            gaps = block[:, -1:] - block
        for i in range(1, alpha + 1):
            term *= gaps
            coef[i, lo:hi] = math.comb(alpha, i) * term.sum(axis=1)
    return coef


def riesz_fit_basis(dim: int, alpha: int, variable: str,
                    scale_anchor: float = 1.0) -> AsymptoticBasis:
    """The power terms of the Riesz-mean expansion shape.

    lambda variable: x^{(d-s)/2}; omega variable: x^{d-s}.  s runs to
    alpha + _GUARD_ORDERS: the terms beyond s = alpha absorb the smooth part
    of the remainder so the diagonal-range coefficients come out clean.  The
    omega-variable log columns x^{d-s} log x are not in it:
    extract_riesz_coeffs adds each one where the data show it.
    """
    den = 2 if variable == "lambda" else 1
    terms = tuple((Fraction(dim - s, den), 0) for s in range(alpha + _GUARD_ORDERS + 1))
    return AsymptoticBasis(terms, scale_anchor)


def extract_riesz_coeffs(
    s: Spectrum,
    alpha: int,
    variable: str,
    grid: Optional[Sequence[float]] = None,
) -> FitReport:
    """Fit the asymptotic coefficients of the alpha-th Riesz mean.

    The fitted values follow the plain normalization x^{-alpha} sum (x-x_n)^alpha
    (alpha! times riesz_mean), which is the convention under which the
    coefficient-relation identities hold: in the lambda variable the diagonal
    coefficient a_{alpha,alpha} feeds b_s = Gamma((d+s)/2+1)/Gamma(s+1) a_ss,
    and in the omega variable c_ss feeds the cylinder relations.

    grid defaults to 64 points geometric over DEFAULT_RANGES[variable].  The
    fit starts from riesz_fit_basis.  In the omega variable, at each order
    s <= alpha where s - d is odd and positive, detect_log_term compares the
    fit with and without an x^{d-s} log x column and keeps the column only
    when the data have it -- fitting a log column against data that have
    none mostly soaks up spectral oscillation and spoils the power
    coefficients.  The guard orders s > alpha get no log column.  The last
    detection's kept fit is the report; with no detection the basis is
    fitted once.

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
    basis = riesz_fit_basis(s.dim, alpha, variable, math.sqrt(grid[0] * grid[-1]))
    report = None
    for ss in range(int(alpha) + 1):
        if variable == "omega" and _carries_log(ss, s.dim):
            det = detect_log_term(samples, Fraction(s.dim - ss), basis)
            report = det.with_log if det.present else det.without_log
            basis = report.basis
    if report is None:
        report = fit_expansion(samples, basis)
    notes = list(report.notes)
    redundant = []
    for ss in range(int(alpha)):
        p = Fraction(s.dim - ss, 2) if variable == "lambda" else Fraction(s.dim - ss)
        if (p, 0) in report.basis.terms:
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


def weyl_remainder(
    s: Spectrum,
    M: int,
    weyl_coeffs: Sequence[float],
    grid: Sequence[float],
) -> list[tuple[float, float]]:
    """E_M(omega) = N(omega^2) - sum_{s<=M} g_s omega^{d-s} on the grid.

    Beyond the leading term this remainder is oscillatory and does not decay;
    sampling it over decades makes that visible.  N is the alpha = 0 omega
    mean of riesz_mean_grid, so the grid points must be positive (ValueError
    otherwise), an infinite one raises ValueError on a spectrum that does not
    end, and a grid past the term budget raises ToleranceError.  A Weyl sum
    that is not finite at a point raises ValueError.
    """
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    if len(weyl_coeffs) < M + 1:
        raise ValueError(f"need g_0..g_{M}, got {len(weyl_coeffs)} coefficients")
    d = s.dim
    out = []
    for mv in riesz_mean_grid(s, 0, "omega", grid):
        w = mv.x
        try:
            model = math.fsum(weyl_coeffs[k] * w ** (d - k) for k in range(M + 1))
        except OverflowError:
            model = math.inf
        if not math.isfinite(model):
            raise ValueError(f"the Weyl sum is not finite at omega = {w!r}")
        out.append((w, mv.value - model))
    return out
