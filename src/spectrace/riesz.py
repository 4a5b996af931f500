"""Riesz means of the counting function, exactly, plus coefficient extraction.

The alpha-fold averaged counting function has the closed form
(1/alpha!) x^{-alpha} sum_{x_n <= x} mult (x - x_n)^alpha (the iterated
simplex integral of a unit step), in either the eigenvalue variable
(x_n = lambda_n) or the frequency variable (x_n = omega_n).  Averaging is
what turns the non-decaying spectral oscillations of the raw Weyl remainder
into a genuinely asymptotic series; weyl_remainder exhibits the raw
oscillation itself.

One mean of order alpha carries every coefficient of the orders s <= alpha:
extract_riesz_coeffs fits it, and invariants.riesz_to_trace maps each
coefficient to its heat (lambda) or cylinder (omega) coefficient through one
Gamma ratio (Fulling & Gustafson, and Estrada & Fulling, EJDE 1999, nos. 6
and 7).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .fitkit import AsymptoticBasis, FitReport, detect_log_term, fit_expansion, geometric_grid
from .invariants import _carries_log
from .spectra import Spectrum, _key_counts

__all__ = [
    "riesz_mean",
    "riesz_mean_grid",
    "extract_riesz_coeffs",
    "weyl_remainder",
    "riesz_fit_basis",
]

_VARIABLES = ("lambda", "omega")
# default fitting window (x_min, x_max) per variable
DEFAULT_RANGES = {"lambda": (1e2, 1e4), "omega": (10.0, 1e2)}
# consecutive terms per chunk of riesz_mean_grid's moment tables
_CHUNK = 1024
# chunks per block of _chunk_moments' work arrays
_BLOCK = 64
# riesz_mean_grid divides by alpha! x^alpha only while it and x^alpha are
# inside 2^-this .. 2^this, far enough inside the float range that neither
# they nor the sum under- or overflow
_POW_BITS = 900.0


def riesz_mean(s: Spectrum, alpha: int, variable: str, x: float) -> float:
    """Exact alpha-th Riesz mean of N at x, in the chosen variable.

    variable="lambda": (1/alpha!) x^{-alpha} sum_{lambda_n <= x} mult (x - lambda_n)^alpha.
    variable="omega":  the same with omega_n in place of lambda_n.
    The one-point riesz_mean_grid: x = inf on a spectrum that ends gives the
    limit (sum mult) / alpha!, on one that does not it raises ValueError.
    """
    return riesz_mean_grid(s, alpha, variable, [x])[0]


def riesz_mean_grid(s: Spectrum, alpha: int, variable: str,
                    grid: Sequence[float]) -> list[float]:
    """Riesz means of order alpha over a whole grid, one float per point in
    grid order, from one spectrum enumeration and one moment table.

    Evaluated from the closed form (partial power sums), not by quadrature.
    The sorted terms are cut into chunks of _CHUNK consecutive terms; chunk
    c, with largest key a_c, keeps the moments S[c, i] = sum mult (a_c - x_n)^i
    for i = 0..alpha, and its share of the sum at any x >= a_c is the Horner
    polynomial sum_i C(alpha, i) (x - a_c)^(alpha - i) S[c, i] (for alpha = 0
    the chunk count, summed once per grid).  A point adds that over the
    chunks at or below it and np.add.reduce of the fewer than _CHUNK terms
    past them.  Every quantity is >= 0, so a mean stays within a few eps of
    the correctly rounded one (the tests hold it to 64 eps; N is exact below
    2^53).  Chunks start at the first term, so a value depends only on x,
    alpha and the spectrum: riesz_mean(x) is the same float.  Where x^alpha
    lies below 2^-900 or alpha! x^alpha above 2^900, a point sums
    mult ((x - x_n) / x)^alpha instead; x = inf gives the limit
    (sum mult) / alpha!.  Raises ValueError for an order past 170
    (whose alpha! is past the float range), for an infinite grid point on a
    spectrum that does not end, and ToleranceError when the enumeration to
    the largest point needs more than DEFAULT_MAX_TERMS rows, before it
    allocates them.

    Memory above the cached enumeration: the moment table and work arrays of
    _BLOCK chunks; the lambda keys omega^2 are squared where used, never as
    a whole.  A grid over 420k terms peaks about 5.2 bytes a term above the
    cache at alpha = 2 (2.5 for alpha = 0).
    """
    if variable not in _VARIABLES:
        raise ValueError(f"variable must be one of {_VARIABLES}, got {variable!r}")
    # 170! is the largest factorial in the float range
    if alpha < 0 or int(alpha) != alpha or alpha > 170:
        raise ValueError(f"alpha must be a nonnegative integer at most 170, got {alpha}")
    alpha = int(alpha)
    grid = [float(x) for x in grid]
    if any(not (x > 0) for x in grid):
        raise ValueError("grid points must be positive")
    if not grid:
        return []
    # the keys are values * values in the lambda variable, squared where used
    values, mults, idxs = _key_counts(s, variable, grid)
    square = variable == "lambda"
    chunks = max(idxs) // _CHUNK
    moments = _chunk_moments(values[:chunks * _CHUNK], mults[:chunks * _CHUNK], alpha, square)
    counts = np.cumsum(moments[0]).tolist()
    # the Horner rows C(alpha, i) S[c, i]
    coef = list(moments * np.array([math.comb(alpha, i) for i in range(alpha + 1)],
                                   dtype=float)[:, None])
    anchors = values[_CHUNK - 1:chunks * _CHUNK:_CHUNK]
    if square:
        anchors = anchors * anchors
    fac = math.factorial(alpha)
    gap, acc = np.empty(chunks), np.empty(chunks)
    bases, terms = np.empty(_CHUNK - 1), np.empty(_CHUNK - 1)
    means = []
    for x, idx in zip(grid, idxs):
        q = idx // _CHUNK
        start = q * _CHUNK
        if alpha == 0 or math.isinf(x):
            # N(x) (over alpha! at x = inf): the chunk counts and the tail's
            n = (counts[q - 1] if q else 0.0) + float(
                np.add.reduce(mults[start:idx], dtype=float))
            means.append(n / fac)
            continue
        if not -_POW_BITS < alpha * math.log2(x) < _POW_BITS - math.log2(fac):
            # x^alpha or alpha! x^alpha is out of range: sum terms scaled by 1/x
            keys = values[:idx] * values[:idx] if square else values[:idx]
            scaled = np.power((x - keys) / x, alpha) * mults[:idx]
            means.append(float(np.add.reduce(scaled)) / fac)
            continue
        head = 0.0
        if q:
            # the chunks at or below x, by Horner in the gaps x - a_c
            y = np.subtract(x, anchors[:q], out=gap[:q])
            h = np.multiply(coef[0][:q], y, out=acc[:q])
            h += coef[1][:q]
            for row in coef[2:]:
                h *= y
                h += row[:q]
            head = float(np.add.reduce(h))
        # the terms past the last full chunk, term by term, from the bases x - x_n
        base = bases[:idx - start]
        if square:
            np.multiply(values[start:idx], values[start:idx], out=base)
            np.subtract(x, base, out=base)
        else:
            np.subtract(x, values[start:idx], out=base)
        tail = terms[:idx - start]
        if alpha == 1:
            np.multiply(base, mults[start:idx], out=tail)
        elif alpha == 2:
            np.multiply(np.square(base, out=tail), mults[start:idx], out=tail)
        else:
            np.multiply(np.power(base, alpha, out=tail), mults[start:idx], out=tail)
        means.append((head + float(np.add.reduce(tail))) / (fac * x**alpha))
    return means


def _chunk_moments(values: np.ndarray, mults: np.ndarray, alpha: int,
                   square: bool) -> np.ndarray:
    """S[c, i], shape (alpha + 1, chunks), for the keys cut into chunks of
    _CHUNK: S[c, i] = sum mult (a_c - x_n)^i over chunk c, a_c its largest
    key, with mult as float64.  The keys are the values, or with square
    their rounded squares.  Each row sum depends on its own chunk alone, so
    the chunks are taken _BLOCK at a time and the work arrays (the squared
    keys among them) stay at a block's size, whatever the number of terms.
    """
    chunks = values.size // _CHUNK
    moments = np.empty((alpha + 1, chunks))
    for lo in range(0, chunks, _BLOCK):
        hi = min(lo + _BLOCK, chunks)
        term = mults[lo * _CHUNK:hi * _CHUNK].reshape(-1, _CHUNK).astype(float)
        moments[0, lo:hi] = term.sum(axis=1)
        if alpha:
            block = values[lo * _CHUNK:hi * _CHUNK].reshape(-1, _CHUNK)
            if square:
                block = block * block
            gaps = block[:, -1:] - block
        for i in range(1, alpha + 1):
            term *= gaps
            moments[i, lo:hi] = term.sum(axis=1)
    return moments


def riesz_fit_basis(dim: int, alpha: int, variable: str) -> AsymptoticBasis:
    """The power terms of the order-alpha Riesz-mean expansion shape, s = 0..alpha.

    lambda variable: x^{(d-s)/2}; omega variable: x^{d-s}.  The omega-variable
    log columns x^{d-s} log x are not in it: extract_riesz_coeffs adds each
    one where the data show it.
    """
    den = 2 if variable == "lambda" else 1
    return AsymptoticBasis(tuple((Fraction(dim - s, den), 0) for s in range(alpha + 1)))


def extract_riesz_coeffs(s: Spectrum, alpha: int, variable: str,
                         grid: Optional[Sequence[float]] = None) -> FitReport:
    """Fit the asymptotic coefficients of the order-alpha Riesz mean over grid.

    The fitted values follow the plain normalization x^{-alpha} sum (x-x_n)^alpha
    (alpha! times riesz_mean), the one invariants.riesz_to_trace reads: each
    coefficient at s <= alpha gives its heat (lambda) or cylinder (omega)
    coefficient through one Gamma ratio.

    grid defaults to 64 points geometric over DEFAULT_RANGES[variable].  The
    fit starts from riesz_fit_basis and weighs every sample alike.  In the
    omega variable, at each order s <= alpha where s - d is odd and positive,
    detect_log_term compares the fit with and without an x^{d-s} log x column
    and keeps the column only when the data have it -- fitting a log column
    against data that have none mostly soaks up spectral oscillation and
    spoils the power coefficients.  The last detection's kept fit is the
    report; with no detection the basis is fitted once.
    """
    if variable not in _VARIABLES:
        raise ValueError(f"variable must be one of {_VARIABLES}, got {variable!r}")
    if grid is None:
        grid = geometric_grid(*DEFAULT_RANGES[variable], 64)
    grid = list(grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    return _fit_means(s, alpha, variable, grid)[1]


def _fit_means(s: Spectrum, alpha: int, variable: str,
               grid: list[float]) -> tuple[list[float], FitReport]:
    """(values, report): the order-alpha means over grid in the plain
    normalization (alpha! riesz_mean, from one riesz_mean_grid) and
    extract_riesz_coeffs' fit of them."""
    values = [math.factorial(alpha) * v for v in riesz_mean_grid(s, alpha, variable, grid)]
    weights = [1.0] * len(grid)
    basis = riesz_fit_basis(s.dim, alpha, variable)
    report = None
    for ss in range(alpha + 1):
        if variable == "omega" and _carries_log(ss, s.dim):
            det = detect_log_term(grid, values, Fraction(s.dim - ss), basis, weights)
            report = det.with_log if det.present else det.without_log
            basis = report.basis
    return values, fit_expansion(grid, values, basis, weights) if report is None else report


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
    grid = [float(w) for w in grid]
    out = []
    for w, n in zip(grid, riesz_mean_grid(s, 0, "omega", grid)):
        try:
            model = math.fsum(weyl_coeffs[k] * w ** (d - k) for k in range(M + 1))
        except OverflowError:
            model = math.inf
        if not math.isfinite(model):
            raise ValueError(f"the Weyl sum is not finite at omega = {w!r}")
        out.append((w, n - model))
    return out
