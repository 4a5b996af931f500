"""Least-squares extraction of asymptotic-expansion coefficients.

Samples of a trace or Riesz mean are fitted against a caller-supplied
power/log basis (the exponent lattice always comes from the expansion shape,
never from automatic model selection).  The basis is normalized around the
geometric mean of the sample abscissae before solving, the system is solved
by orthogonal factorization, and the report carries conditioning and
jackknife-stability diagnostics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

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

    terms are (exponent, log_power) pairs with log_power in {0, 1}.
    """

    terms: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        terms = tuple((Fraction(p), int(q)) for p, q in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("basis needs at least one term")
        if len(set(terms)) != len(terms):
            raise ValueError("basis terms must be distinct")
        if any(q not in (0, 1) for _, q in terms):
            raise ValueError("log powers must be 0 or 1")
        # for each solve's raw map: the float exponents, (power, log) index pairs
        object.__setattr__(self, "_powers", [float(p) for p, _ in terms])
        object.__setattr__(self, "_log_pairs", [(i, terms.index((p, 1))) for i, (p, q)
                                                in enumerate(terms) if q == 0 and (p, 1) in terms])
        # with_term's bases, built once each
        object.__setattr__(self, "_extended", {})

    def with_term(self, p, q: int) -> "AsymptoticBasis":
        key = (Fraction(p), q)
        if key not in self._extended:
            self._extended[key] = AsymptoticBasis(self.terms + (key,))
        return self._extended[key]

    def index_of(self, p, q: int = 0) -> int:
        return self.terms.index((Fraction(p), q))


@dataclass(frozen=True)
class FitReport:
    """Raw-basis coefficients plus residual/conditioning/stability diagnostics;
    scale_anchor is the t0 the columns were rescaled to (x/t0)^p (log(x/t0))^q
    around."""

    basis: AsymptoticBasis
    scale_anchor: float
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
            "scale_anchor": self.scale_anchor,
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
    if not (0 < lo < hi < math.inf):
        raise ValueError(f"need 0 < lo < hi < inf, got {lo}, {hi}")
    if n < 2:
        raise ValueError("need at least 2 points")
    return [float(v) for v in np.geomspace(lo, hi, n)]


def power_basis(exponents: Sequence) -> AsymptoticBasis:
    return AsymptoticBasis(tuple((Fraction(p), 0) for p in exponents))


@functools.cache
def heat_basis(dim: int, orders: int) -> AsymptoticBasis:
    """Heat-trace shape: t^{(s-d)/2} for s = 0..orders, no log terms; built
    once per (dim, orders)."""
    return power_basis([Fraction(s - dim, 2) for s in range(orders + 1)])


def cylinder_basis(dim: int, orders: int) -> AsymptoticBasis:
    """Cylinder-trace power shape: t^{s-d} for s = 0..orders.  The log
    columns t^{s-d} log t are not in it: verify.fit_trace adds each one where
    the data show it."""
    return power_basis([Fraction(s - dim) for s in range(orders + 1)])


def dcylinder_basis(dim: int, orders: int) -> AsymptoticBasis:
    """Shape of d(Tr T)/dt: t^{s-d-1} for s = 0..orders (t^{-1} included on
    purpose; its fitted coefficient should vanish)."""
    return power_basis([Fraction(s - dim - 1) for s in range(orders + 1)])


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def _unpack_samples(x, y, weights=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if weights is None:
        # relative-error weighting: trace values span orders of magnitude; a
        # nonzero y whose square underflows has no finite weight
        with np.errstate(over="ignore", divide="ignore"):
            w = np.where(y == 0, 1.0, 1.0 / (y * y))
    else:
        w = np.asarray(weights, dtype=float)
    if x.ndim != 1 or y.shape != x.shape or w.shape != x.shape:
        raise ValueError(f"x, y and weights must be 1-D and of one length, got shapes "
                         f"{x.shape}, {y.shape} and {w.shape}")
    bad = ~((x > 0) & (w >= 0) & (w < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        if not x[i] > 0:
            raise ValueError(f"sample abscissae must be positive, got {x[i].item()}")
        raise ValueError(f"sample ({x[i].item()}, {y[i].item()}) has weight {w[i].item()}; "
                         "weights must be finite and non-negative")
    order = np.argsort(x, kind="stable")
    return x[order], y[order], w[order]


def _design_matrix(x: np.ndarray, basis: AsymptoticBasis, t0: float) -> np.ndarray:
    u = x / t0
    cols = []
    for p, q in basis.terms:
        col = u ** float(p)
        if q == 1:
            col = col * np.log(u)
        cols.append(col)
    return np.vstack(cols).T


def _raw_coefficients(basis: AsymptoticBasis, c_norm: np.ndarray, t0: float,
                      window: tuple[float, float]) -> np.ndarray:
    """Map coefficients of the basis rescaled around t0 back to raw x^p (log x)^q
    in one array division, for one solve or a stack of them (one a row); a
    t0^p (a Python float) or a raw coefficient outside the float range
    raises ValueError naming the window."""
    scales = []
    for p in basis._powers:
        try:
            scales.append(t0 ** p)
        except OverflowError:
            scales.append(math.inf)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        raw = c_norm / np.array(scales)
        for i, j in basis._log_pairs:
            raw[..., i] -= c_norm[..., j] * math.log(t0) / scales[i]
    if not (np.isfinite(raw).all() and all(0.0 < v < math.inf for v in scales)):
        raise _outside_float_range(window, t0)
    return raw


def _outside_float_range(window: tuple[float, float], t0: float) -> ValueError:
    return ValueError(f"the fit window {window[0]!r}..{window[1]!r} puts its raw "
                      f"coefficients outside the float range (t0 = {t0!r})")


def _lstsq(aw: np.ndarray, yw: np.ndarray) -> tuple[np.ndarray, float]:
    """(normalized coefficients, condition estimate) of the least squares of
    the weighted design aw against the weighted samples yw; the condition
    estimate is the ratio of lstsq's own singular values, and past
    CONDITION_LIMIT it raises IllConditionedBasisError."""
    c_norm, _, _, sing = np.linalg.lstsq(aw, yw, rcond=None)
    condition = math.inf if sing[-1] == 0 else float(sing[0] / sing[-1])
    if condition > CONDITION_LIMIT:
        raise IllConditionedBasisError(condition)
    return c_norm, condition


def _solve(aw: np.ndarray, yw: np.ndarray, basis: AsymptoticBasis, t0: float,
           window: tuple[float, float]):
    """(raw coefficients, residual rms, condition estimate) of _lstsq."""
    c_norm, condition = _lstsq(aw, yw)
    resid = aw @ c_norm - yw
    rms = math.sqrt(float(np.add.reduce(resid * resid)) / resid.size)
    return _raw_coefficients(basis, c_norm, t0, window), rms, condition


def fit_expansion(x, y, basis: AsymptoticBasis, weights=None) -> FitReport:
    """Weighted least squares of the samples y at abscissae x against the basis.

    x, y and weights are 1-D arrays of one length, in any order of x;
    weights default to 1/y^2 (1 where y = 0), and a weight that is not
    finite or is negative raises ValueError.  Needs at least len(basis) + 2
    samples.  The columns are rescaled around the geometric mean t0 of the
    smallest and largest abscissae, which sets the conditioning and not the
    raw coefficients; a window whose weighted design or raw coefficients
    leave the float range raises ValueError (the design before any solve).
    The stability of each coefficient is the spread of four refits, each
    dropping one contiguous quarter of the sorted samples: the rows of the
    one weighted design, solved by np.linalg.lstsq as the full fit is, with
    no residual of their own.
    Raises IllConditionedBasisError past a condition estimate of 1e12, for
    the full fit or a refit.
    """
    x, y, w = _unpack_samples(x, y, weights)
    m = len(basis.terms)
    if len(x) < m + 2:
        raise ValueError(f"need at least {m + 2} samples for {m} basis terms, got {len(x)}")

    lo, hi = float(x[0]), float(x[-1])
    t0 = math.sqrt(lo * hi) if 0 < lo * hi < math.inf else math.sqrt(lo) * math.sqrt(hi)
    sw = np.sqrt(w)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        aw = _design_matrix(x, basis, t0) * sw[:, None]
    if not np.isfinite(aw).all():
        raise _outside_float_range((lo, hi), t0)
    yw = y * sw
    coeffs, rms, condition = _solve(aw, yw, basis, t0, (lo, hi))

    # stability: refit dropping each contiguous quarter of the grid
    spreads = np.zeros(m)
    notes: list[str] = []
    folds = []
    bounds = [round(k * len(x) / 4) for k in range(5)]
    for a, b in zip(bounds, bounds[1:]):
        if len(x) - (b - a) >= m:
            folds.append(_lstsq(np.concatenate((aw[:a], aw[b:])),
                                np.concatenate((yw[:a], yw[b:])))[0])
    if folds:
        folds = _raw_coefficients(basis, np.vstack(folds), t0, (lo, hi))
    if len(folds) == 4:
        spreads = folds.max(axis=0) - folds.min(axis=0)
    else:
        notes.append("too few samples for jackknife stability")

    return FitReport(
        basis=basis,
        scale_anchor=t0,
        coefficients=tuple(coeffs.tolist()),
        residual_rms=rms,
        condition_estimate=condition,
        stability=tuple(spreads.tolist()),
        notes=tuple(notes),
    )


def detect_log_term(x, y, p, base, weights=None) -> LogTermDetection:
    """Decide whether a (p, log) term is present in the samples y at x.

    Fits with and without the x^p log x column added to the base basis,
    both under fit_expansion's weights (default 1/y^2).  base is that
    AsymptoticBasis, or a caller's FitReport of it on these same samples and
    weights, which then stands as the fit without the column and is not
    refitted.  The term
    is declared present only when adding it shrinks the weighted residual rms
    by at least 10x AND the fitted coefficient exceeds 10x its jackknife
    spread.
    """
    p = Fraction(p)
    base_basis = base.basis if isinstance(base, FitReport) else base
    if (p, 1) in base_basis.terms:
        raise ValueError(f"base basis already contains the log term at {p}")
    without = base if isinstance(base, FitReport) else fit_expansion(x, y, base_basis, weights)
    with_report = fit_expansion(x, y, base_basis.with_term(p, 1), weights)
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
