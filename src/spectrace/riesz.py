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

import functools
import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .fitkit import (AsymptoticBasis, FitReport, IllConditionedBasisError, detect_log_term,
                     fit_expansion, geometric_grid)
from .invariants import _carries_log
from .spectra import Spectrum, _key_counts

__all__ = [
    "riesz_mean",
    "riesz_mean_grid",
    "riesz_sum_grid",
    "extract_riesz_coeffs",
    "weyl_remainder",
    "riesz_fit_basis",
]

_VARIABLES = ("lambda", "omega")
# default fitting window (x_min, x_max) per variable
DEFAULT_RANGES = {"lambda": (1e2, 1e4), "omega": (10.0, 1e2)}
# consecutive terms per chunk of riesz_sum_grid's moment tables
_CHUNK = 128
# chunks per block of _chunk_moments' work arrays
_BLOCK = 512
# chunks per block of a point's chunk sums, and points per block of rows
_HEAD_BLOCK = 128
_POINT_BLOCK = 256
# riesz_sum_grid divides by x^alpha only while it and alpha! x^alpha are
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
    grid order: riesz_sum_grid, divided by alpha!.

    From one spectrum enumeration and one moment table of chunks of
    _CHUNK = 128 terms, evaluated in array passes over the points (see
    riesz_sum_grid).  Every quantity is >= 0, so a mean stays within a few
    eps of the correctly rounded one (the tests hold it to 64 eps; N is
    exact below 2^53), and riesz_mean(x) is the same float.  A grid over
    420k terms peaks about 5.4 bytes a term above the cached enumeration at
    alpha = 2 (2.6 at alpha = 0).  Raises as riesz_sum_grid.
    """
    sums = riesz_sum_grid(s, alpha, variable, grid)
    fac = math.factorial(int(alpha))
    return [v / fac for v in sums]


def riesz_sum_grid(s: Spectrum, alpha: int, variable: str,
                   grid: Sequence[float]) -> list[float]:
    """x^{-alpha} sum_{x_n <= x} mult (x - x_n)^alpha over a whole grid (the
    plain normalization, alpha! times riesz_mean_grid), one float per point
    in grid order, from one spectrum enumeration and one moment table.

    Evaluated from the closed form (partial power sums), not by quadrature.
    The sorted terms are cut into chunks of _CHUNK = 128 consecutive terms;
    chunk c, with largest key a_c, keeps the moments
    S[c, i] = sum mult (a_c - x_n)^i for i = 0..alpha, and its share of the
    sum at any x >= a_c is the Horner polynomial
    sum_i C(alpha, i) (x - a_c)^(alpha - i) S[c, i].  A point adds that over
    the chunks at or below it and the fewer than _CHUNK terms past them.
    Both are array passes over the points: the chunk shares in blocks of
    _HEAD_BLOCK chunks, each block a row of that width per point, zero past
    the point's chunks, summed by one np.add.reduce and added to the
    point's running head in block order; the terms past the chunks as one
    row of _CHUNK per point, zero past its terms.  A row's width never
    depends on the other points, so a value depends only on x, alpha and
    the spectrum: a one-point grid gives the same float.  Where x^alpha
    lies below 2^-900 or alpha! x^alpha above 2^900, a point sums
    mult ((x - x_n) / x)^alpha instead; x = inf gives the limit sum mult.
    Raises ValueError for an order past 170 (whose alpha! is past the
    float range), for an infinite grid point on a spectrum that does not
    end, and ToleranceError when the enumeration to the largest point needs
    more than DEFAULT_MAX_TERMS rows, before it allocates them.

    Memory above the cached enumeration: the moment table (alpha + 1 floats
    a chunk, 8 (alpha + 1) / 128 bytes a term), the work arrays of _BLOCK
    chunks (65,536 terms) and the rows of _POINT_BLOCK points; the lambda
    keys omega^2 are squared where used, never as a whole.  A grid over
    420k terms peaks about 5.4 bytes a term above the cache at alpha = 2
    (2.6 for alpha = 0), most of it the moment work arrays.
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
    xs, ends = np.array(grid), np.array(idxs)
    # points where x^alpha or alpha! x^alpha is out of range, and x = inf
    with np.errstate(invalid="ignore"):
        logs = alpha * np.log2(xs)
    inside = (-_POW_BITS < logs) & (logs < _POW_BITS - math.log2(math.factorial(alpha)))
    # moments only up to the last chunk a point inside reads: past it they may overflow
    chunks = int(ends[inside].max(initial=0)) // _CHUNK
    moments = _chunk_moments(values[:chunks * _CHUNK], mults[:chunks * _CHUNK], alpha, square)
    # the Horner rows C(alpha, i) S[c, i]
    coef = moments * np.array([math.comb(alpha, i) for i in range(alpha + 1)],
                              dtype=float)[:, None]
    anchors = values[_CHUNK - 1:chunks * _CHUNK:_CHUNK]
    if square:
        anchors = anchors * anchors
    sums = np.empty(len(grid))
    for i in np.flatnonzero(~inside).tolist():
        x, idx = grid[i], idxs[i]
        if math.isinf(x):
            # the limit sum mult, exact below 2^53
            sums[i] = np.add.reduce(mults[:idx], dtype=float)
        else:
            # sum the terms scaled by 1/x
            keys = values[:idx] * values[:idx] if square else values[:idx]
            sums[i] = np.add.reduce(np.power((x - keys) / x, alpha) * mults[:idx])
    # the rest by chunk count, so each head block's points are a suffix
    rows = np.flatnonzero(inside)
    rows = rows[np.argsort(ends[rows], kind="stable")]
    for lo in range(0, rows.size, _POINT_BLOCK):
        block = rows[lo:lo + _POINT_BLOCK]
        totals = (_chunk_heads(xs[block], ends[block] // _CHUNK, coef, anchors)
                  + _tail_sums(xs[block], ends[block], values, mults, alpha, square))
        sums[block] = [total / x**alpha for total, x in zip(totals.tolist(), xs[block].tolist())]
    return sums.tolist()


def _chunk_heads(xs: np.ndarray, qs: np.ndarray, coef: np.ndarray,
                 anchors: np.ndarray) -> np.ndarray:
    """sum over the chunks c < q of the Horner polynomial in x - a_c, for
    each point (x, q), qs ascending: in blocks of _HEAD_BLOCK chunks, each a
    row of that width per point with zeros past the point's chunks (or the
    table), reduced by np.add.reduce and added to the point's running sum in
    block order.  The gaps x - a_c are clamped at 0, so the entries past a
    point's chunks, zeroed, stay finite wherever its own do."""
    heads = np.zeros(xs.size)
    chunks = anchors.size
    cols = np.arange(_HEAD_BLOCK)
    for c0 in range(0, chunks, _HEAD_BLOCK):
        first = int(np.searchsorted(qs, c0, side="right"))
        if first == xs.size:
            break
        width = min(_HEAD_BLOCK, chunks - c0)
        h = np.zeros((xs.size - first, _HEAD_BLOCK))
        part = h[:, :width]
        part[...] = coef[0][c0:c0 + width]
        if coef.shape[0] > 1:
            y = np.subtract(xs[first:, None], anchors[None, c0:c0 + width])
            np.maximum(y, 0.0, out=y)
            for row in coef[1:]:
                part *= y
                part += row[c0:c0 + width]
        h *= (c0 + cols)[None, :] < qs[first:, None]
        heads[first:] += np.add.reduce(h, axis=1)
    return heads


def _tail_sums(xs: np.ndarray, ends: np.ndarray, values: np.ndarray, mults: np.ndarray,
               alpha: int, square: bool) -> np.ndarray:
    """sum mult (x - x_n)^alpha over the terms past each point's last full
    chunk (index end // _CHUNK * _CHUNK up to end), as one row of _CHUNK
    per point with zeros past its terms: the bases x - x_n clamped at 0 and
    the multiplicities zeroed there, so every entry is finite and >= 0."""
    if not values.size:
        return np.zeros(xs.size)
    cols = np.arange(_CHUNK)
    take = (ends // _CHUNK * _CHUNK)[:, None] + cols[None, :]
    valid = take < ends[:, None]
    np.minimum(take, values.size - 1, out=take)
    weight = mults[take].astype(float)
    weight *= valid
    if alpha == 0:
        return np.add.reduce(weight, axis=1)
    keys = values[take]
    if square:
        keys *= keys
    base = np.subtract(xs[:, None], keys, out=keys)
    np.maximum(base, 0.0, out=base)
    if alpha == 1:
        terms = np.multiply(base, weight, out=base)
    elif alpha == 2:
        terms = np.multiply(np.square(base, out=base), weight, out=base)
    else:
        terms = np.multiply(np.power(base, alpha, out=base), weight, out=base)
    return np.add.reduce(terms, axis=1)


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


@functools.cache
def riesz_fit_basis(dim: int, alpha: int, variable: str) -> AsymptoticBasis:
    """The power terms of the order-alpha Riesz-mean expansion shape, s = 0..alpha.

    lambda variable: x^{(d-s)/2}; omega variable: x^{d-s}.  The omega-variable
    log columns x^{d-s} log x are not in it: _fit_detecting_logs adds each
    one where the data show it.  Built once per (dim, alpha, variable).
    """
    den = 2 if variable == "lambda" else 1
    return AsymptoticBasis(tuple((Fraction(dim - s, den), 0) for s in range(alpha + 1)))


def extract_riesz_coeffs(s: Spectrum, alpha: int, variable: str,
                         grid: Optional[Sequence[float]] = None) -> FitReport:
    """Fit the asymptotic coefficients of the order-alpha Riesz mean over grid.

    The fitted values follow the plain normalization x^{-alpha} sum (x-x_n)^alpha
    (riesz_sum_grid, alpha! times riesz_mean), the one
    invariants.riesz_to_trace reads: each coefficient at s <= alpha gives
    its heat (lambda) or cylinder (omega) coefficient through one Gamma
    ratio.

    grid defaults to 64 points geometric over DEFAULT_RANGES[variable].  The
    fit starts from riesz_fit_basis and weighs every sample alike; in the
    omega variable _fit_detecting_logs adds each x^{d-s} log x column the
    data show, as coeffs does for the cylinder trace's t^{s-d} log t.
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
    normalization (riesz_sum_grid) and extract_riesz_coeffs' fit of them."""
    values = riesz_sum_grid(s, alpha, variable, grid)
    logs = [-p for p in _log_exponents(s.dim, alpha)] if variable == "omega" else []
    return values, _fit_detecting_logs(grid, values, riesz_fit_basis(s.dim, alpha, variable),
                                       logs, [1.0] * len(grid))


def _log_exponents(dim: int, orders: int) -> list[Fraction]:
    """The exponents s - d, s <= orders, of the cylinder trace's log terms
    t^{s-d} log t (invariants._carries_log); the omega mean's are their negatives."""
    return [Fraction(s - dim) for s in range(orders + 1) if _carries_log(s, dim)]


def _fit_detecting_logs(x, y, basis: AsymptoticBasis, logs: Sequence[Fraction],
                        weights=None) -> FitReport:
    """Every fit's one log-column policy: fit y at x to basis, then at each p
    of logs in turn keep an x^p log x column only where detect_log_term finds
    it (one fitted to data without it soaks up the oscillation and spoils the
    power terms), each detection from the fit kept before it, none refitted;
    a column whose fit cannot be made counts as absent."""
    report = fit_expansion(x, y, basis, weights)
    for p in logs:
        try:  # ill-conditioned, too few samples or past the float range
            det = detect_log_term(x, y, p, report, weights)
        except (IllConditionedBasisError, ValueError):
            continue
        report = det.with_log if det.present else det.without_log
    return report


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
