"""Least-squares extraction of asymptotic-expansion coefficients.

Samples of a trace or Riesz mean are fitted against a caller-supplied
power/log basis (the exponent lattice always comes from the expansion shape,
never from automatic model selection).  The basis is normalized around a
scale anchor before solving, the system is solved by orthogonal
factorization, and the report carries conditioning and jackknife-stability
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .invariants import _carries_log

__all__ = [
    "AsymptoticBasis",
    "FitReport",
    "LogTermDetection",
    "IllConditionedBasisError",
    "fit_expansion",
    "detect_log_term",
    "geometric_grid",
    "power_basis",
    "heat_basis",
    "cylinder_basis",
    "dcylinder_basis",
]

CONDITION_LIMIT = 1e12


class IllConditionedBasisError(RuntimeError):
    """The normalized design matrix is numerically rank deficient."""

    def __init__(self, condition: float):
        super().__init__(
            "ill-conditioned basis; shrink exponent set or widen grid "
            f"(condition estimate {condition:.3e})"
        )
        self.condition = condition


@dataclass(frozen=True)
class AsymptoticBasis:
    """Fit model sum_j c_j x^{p_j} (log x)^{q_j}.

    terms are (exponent, log_power) pairs with log_power in {0, 1};
    scale_anchor t0 rescales the columns to (x/t0)^p (log(x/t0))^q before
    solving, which is what keeps power bases tolerably conditioned.
    """

    terms: tuple[tuple[Fraction, int], ...]
    scale_anchor: float = 1.0

    def __post_init__(self):
        terms = tuple((Fraction(p), int(q)) for p, q in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("basis needs at least one term")
        if len(set(terms)) != len(terms):
            raise ValueError("basis terms must be distinct")
        if any(q not in (0, 1) for _, q in terms):
            raise ValueError("log powers must be 0 or 1")
        if not (self.scale_anchor > 0):
            raise ValueError("scale_anchor must be positive")

    def with_term(self, p, q: int) -> "AsymptoticBasis":
        return AsymptoticBasis(self.terms + ((Fraction(p), q),), self.scale_anchor)

    def index_of(self, p, q: int = 0) -> int:
        return self.terms.index((Fraction(p), q))


@dataclass(frozen=True)
class FitReport:
    """Raw-basis coefficients plus residual/conditioning/stability diagnostics."""

    basis: AsymptoticBasis
    coefficients: tuple[float, ...]
    residual_rms: float
    condition_estimate: float
    stability: tuple[float, ...]
    notes: tuple[str, ...] = ()

    def coefficient(self, p, q: int = 0) -> float:
        return self.coefficients[self.basis.index_of(p, q)]

    def spread(self, p, q: int = 0) -> float:
        return self.stability[self.basis.index_of(p, q)]

    def to_json_dict(self) -> dict:
        return {
            "basis": [{"p": str(p), "q": q} for p, q in self.basis.terms],
            "scale_anchor": self.basis.scale_anchor,
            "coefficients": list(self.coefficients),
            "residual_rms": self.residual_rms,
            "condition_estimate": self.condition_estimate,
            "stability": list(self.stability),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class LogTermDetection:
    """Outcome of the with/without-log comparison fit at one exponent."""

    present: bool
    magnitude: float
    residual_ratio: float
    coefficient_spread: float
    with_log: FitReport
    without_log: FitReport


# ---------------------------------------------------------------------------
# grids and basis builders
# ---------------------------------------------------------------------------

def geometric_grid(lo: float, hi: float, n: int) -> list[float]:
    """n points geometric from lo to hi inclusive."""
    if not (0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got {lo}, {hi}")
    if n < 2:
        raise ValueError("need at least 2 points")
    return [float(v) for v in np.geomspace(lo, hi, n)]


def power_basis(exponents: Sequence, scale_anchor: float = 1.0) -> AsymptoticBasis:
    return AsymptoticBasis(tuple((Fraction(p), 0) for p in exponents), scale_anchor)


def heat_basis(dim: int, orders: int, scale_anchor: float = 1.0) -> AsymptoticBasis:
    """Heat-trace shape: t^{(s-d)/2} for s = 0..orders, no log terms."""
    return power_basis([Fraction(s - dim, 2) for s in range(orders + 1)], scale_anchor)


def cylinder_basis(dim: int, orders: int, scale_anchor: float = 1.0,
                   include_logs: bool = False) -> AsymptoticBasis:
    """Cylinder-trace shape: t^{s-d} for s = 0..orders; with include_logs,
    adds t^{s-d} log t at the s with s-d odd and positive."""
    terms: list[tuple[Fraction, int]] = [(Fraction(s - dim), 0) for s in range(orders + 1)]
    if include_logs:
        terms += [(Fraction(s - dim), 1) for s in range(orders + 1) if _carries_log(s, dim)]
    return AsymptoticBasis(tuple(terms), scale_anchor)


def dcylinder_basis(dim: int, orders: int, scale_anchor: float = 1.0) -> AsymptoticBasis:
    """Shape of d(Tr T)/dt: t^{s-d-1} for s = 0..orders (t^{-1} included on
    purpose; its fitted coefficient should vanish)."""
    return power_basis([Fraction(s - dim - 1) for s in range(orders + 1)], scale_anchor)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def _unpack_samples(samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xs, ys, ws = [], [], []
    for rec in samples:
        if len(rec) == 2:
            x, y = rec
            w = None
        else:
            x, y, w = rec
        if not (x > 0):
            raise ValueError(f"sample abscissae must be positive, got {x}")
        if w is None:
            # relative-error weighting: trace values span orders of magnitude
            w = 1.0 / (y * y) if y != 0 else 1.0
        xs.append(float(x))
        ys.append(float(y))
        ws.append(float(w))
    order = np.argsort(np.array(xs), kind="stable")
    return np.array(xs)[order], np.array(ys)[order], np.array(ws)[order]


def _design_matrix(x: np.ndarray, basis: AsymptoticBasis) -> np.ndarray:
    u = x / basis.scale_anchor
    cols = []
    for p, q in basis.terms:
        col = u ** float(p)
        if q == 1:
            col = col * np.log(u)
        cols.append(col)
    return np.vstack(cols).T


def _raw_coefficients(basis: AsymptoticBasis, c_norm: np.ndarray) -> np.ndarray:
    """Map normalized-basis coefficients back to the raw x^p (log x)^q basis."""
    t0 = basis.scale_anchor
    logt0 = math.log(t0)
    raw = np.zeros(len(basis.terms))
    lookup = {term: i for i, term in enumerate(basis.terms)}
    for i, (p, q) in enumerate(basis.terms):
        scale = t0 ** float(p)
        if q == 0:
            raw[i] += c_norm[i] / scale
            j = lookup.get((p, 1))
            if j is not None:
                raw[i] -= c_norm[j] * logt0 / scale
        else:
            raw[i] += c_norm[i] / scale
    return raw


def _solve(x: np.ndarray, y: np.ndarray, w: np.ndarray, basis: AsymptoticBasis):
    a = _design_matrix(x, basis)
    sw = np.sqrt(w)
    aw = a * sw[:, None]
    yw = y * sw
    sing = np.linalg.svd(aw, compute_uv=False)
    condition = math.inf if sing[-1] == 0 else float(sing[0] / sing[-1])
    if condition > CONDITION_LIMIT:
        raise IllConditionedBasisError(condition)
    c_norm, *_ = np.linalg.lstsq(aw, yw, rcond=None)
    resid = aw @ c_norm - yw
    rms = float(math.sqrt(np.mean(resid**2)))
    return _raw_coefficients(basis, c_norm), rms, condition


def fit_expansion(samples, basis: AsymptoticBasis) -> FitReport:
    """Weighted least squares of samples against the basis.

    samples: iterable of (x, y) or (x, y, weight); omitted weights default to
    1/y^2.  Needs at least len(basis) + 2 samples.  Raises
    IllConditionedBasisError past a condition estimate of 1e12.
    """
    x, y, w = _unpack_samples(samples)
    m = len(basis.terms)
    if len(x) < m + 2:
        raise ValueError(f"need at least {m + 2} samples for {m} basis terms, got {len(x)}")

    coeffs, rms, condition = _solve(x, y, w, basis)

    # stability: refit dropping each contiguous quarter of the grid
    spreads = np.zeros(m)
    notes: list[str] = []
    folds = []
    bounds = [round(k * len(x) / 4) for k in range(5)]
    for k in range(4):
        keep = np.ones(len(x), dtype=bool)
        keep[bounds[k]:bounds[k + 1]] = False
        if keep.sum() >= m:
            folds.append(_solve(x[keep], y[keep], w[keep], basis)[0])
    if len(folds) == 4:
        stacked = np.vstack(folds)
        spreads = stacked.max(axis=0) - stacked.min(axis=0)
    else:
        notes.append("too few samples for jackknife stability")

    return FitReport(
        basis=basis,
        coefficients=tuple(float(c) for c in coeffs),
        residual_rms=rms,
        condition_estimate=condition,
        stability=tuple(float(s) for s in spreads),
        notes=tuple(notes),
    )


def detect_log_term(samples, p, base_basis: AsymptoticBasis) -> LogTermDetection:
    """Decide whether a (p, log) term is present in the sampled data.

    Fits with and without the x^p log x column added to base_basis.  The term
    is declared present only when adding it shrinks the weighted residual rms
    by at least 10x AND the fitted coefficient exceeds 10x its jackknife
    spread.
    """
    p = Fraction(p)
    if (p, 1) in base_basis.terms:
        raise ValueError(f"base basis already contains the log term at {p}")
    without = fit_expansion(samples, base_basis)
    with_report = fit_expansion(samples, base_basis.with_term(p, 1))
    coeff = with_report.coefficient(p, 1)
    spread = with_report.spread(p, 1)
    if with_report.residual_rms == 0.0:
        ratio = math.inf if without.residual_rms > 0 else 1.0
    else:
        ratio = without.residual_rms / with_report.residual_rms
    present = ratio >= 10.0 and abs(coeff) > 10.0 * spread
    return LogTermDetection(
        present=present,
        magnitude=abs(coeff),
        residual_ratio=ratio,
        coefficient_spread=spread,
        with_log=with_report,
        without_log=without,
    )
