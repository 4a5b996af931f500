"""Construction and queries of eigenvalue spectra and their counting function.

A Spectrum is a lazily enumerable, nondecreasing sequence of eigenfrequencies
omega_n with multiplicities, held as a cached sorted prefix of two arrays
(omegas: float64, mults: int64); the eigenvalues are lambda_n = omega_n^2
(derived by squaring, never stored).  Every constructor records a Weyl-type
envelope N(lambda) <= C1 + C2 lambda^{d/2} when one is known, which is what
lets the trace evaluators certify their truncation error.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

__all__ = [
    "Spectrum",
    "SpectrumFormatError",
    "interval_spectrum",
    "torus_spectrum",
    "product_spectrum",
    "load_spectrum",
    "finite_spectrum",
    "counting",
]

# (omegas: float64, mults: int64), ascending in omega
Arrays = tuple[np.ndarray, np.ndarray]
# the largest multiplicity the int64 mults array can hold
_MAX_MULT = int(np.iinfo(np.int64).max)
# the largest finite float64, beyond which an eigenvalue omega^2 overflows
_MAX_FLOAT = float(np.finfo(np.float64).max)
# the share of a product's pairs that may be odd (weigh other than the
# commonest weight) before it sorts pair indices instead of pair values
_ODD_SHARE_MAX = 0.15
# pair eigenvalues compared (or run starts converted) per step when a
# product coalesces its pairs in place, so no work array is pair-sized
_RUN_BLOCK = 1 << 16
# the term budget: the most rows (lattice terms, product pairs) one enumeration allocates
DEFAULT_MAX_TERMS = 10_000_000


class SpectrumFormatError(ValueError):
    """Raised when a spectrum file violates the file grammar."""


class ToleranceError(RuntimeError):
    """A tolerance or an enumeration is out of reach within the term budget."""

    def __init__(self, message: str, achieved_bound: float, terms_used: int):
        super().__init__(message)
        self.achieved_bound = achieved_bound
        self.terms_used = terms_used


@dataclass(frozen=True)
class Spectrum:
    """An ordered eigenfrequency sequence with multiplicities.

    Fields
    ------
    dim : geometric dimension d.
    label : provenance string (round-trips through the CLI spectrum syntax).
    envelope : optional (C1, C2) with N(lambda) <= C1 + C2 * lambda^{d/2};
        None means truncation cannot be certified.
    truncated_at : for finite data (e.g. loaded files) the largest omega the
        sequence can produce; None for constructively infinite spectra.  A
        product's is the smaller factor end, the extent up to which its
        terms are complete.  Traces certify with it; no budget reads it.
    energy : the vacuum energy -e_{d+1}/2 in closed form, set by the
        constructors that know it (interval, torus); None otherwise.
    """

    dim: int
    label: str
    envelope: Optional[tuple[float, float]]
    truncated_at: Optional[float]
    # _enumerate(omega_max) returns ascending (omegas, mults) holding every
    # term with omega <= omega_max, possibly followed by further true terms;
    # arrays() trims to omega_max
    _enumerate: Callable[[float], Arrays] = field(repr=False, compare=False)
    energy: Optional[float] = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    def arrays(self, omega_max: float) -> Arrays:
        """(omegas, mults) of all terms with omega <= omega_max, ascending.

        omegas is float64, mults int64; both are read-only views.  The widest
        enumeration so far is cached (enumerations are prefix-compatible), so
        grid evaluations pay for one pass over the spectrum, not one per
        point; the cache is guarded by a lock so shared read-only use across
        threads stays safe.  Raises ValueError for an infinite omega_max on a
        spectrum that does not end (truncated_at is None), and ToleranceError
        before it allocates more than DEFAULT_MAX_TERMS rows.
        """
        if omega_max < 0 or math.isnan(omega_max):
            return _readonly(np.empty(0), np.empty(0, dtype=np.int64))
        if math.isinf(omega_max) and self.truncated_at is None:
            raise ValueError(
                f"cannot enumerate the infinite spectrum {self.label!r} up to omega = inf"
            )
        with self._lock:
            cached = self._cache.get("enum")
            if cached is None or omega_max > cached[0]:
                cached = (omega_max,) + _readonly(*self._enumerate(omega_max))
                self._cache["enum"] = cached
        _, omegas, mults = cached
        k = int(np.searchsorted(omegas, omega_max, side="right"))
        return omegas[:k], mults[:k]

    def up_to(self, omega_max: float) -> list[tuple[float, int]]:
        """All (omega, multiplicity) terms with omega <= omega_max, ascending,
        as a list of Python tuples (a view of arrays(omega_max))."""
        omegas, mults = self.arrays(omega_max)
        return list(zip(omegas.tolist(), mults.tolist()))


def _readonly(omegas: np.ndarray, mults: np.ndarray) -> Arrays:
    omegas.flags.writeable = False
    mults.flags.writeable = False
    return omegas, mults


def _keys_up_to(s: Spectrum, variable: str, x: float) -> Arrays:
    """(keys, mults) of all terms with key <= x, ascending, where the key is
    lambda = omega^2 for variable "lambda" and omega for variable "omega".

    Enumerates slightly past x so a term whose key rounds onto x is kept; the
    one place that slack lives, so every query sees the same cached extent.
    """
    if variable == "omega":
        keys, mults = s.arrays(x * (1 + 1e-12) + 1e-12)
    else:
        omegas, mults = s.arrays(math.sqrt(x) * (1 + 1e-12) + 1e-12)
        keys = omegas * omegas
    k = int(np.searchsorted(keys, x, side="right"))
    return keys[:k], mults[:k]


def _key_counts(s: Spectrum, variable: str,
                xs: Sequence[float]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(values, mults, counts): the terms of _keys_up_to(s, variable, max(xs))
    and, for each x in xs, the number of them with key <= x.

    For "omega" values are the keys.  For "lambda" they are the frequencies
    omega, whose keys omega * omega are not formed: a count starts from
    searchsorted on sqrt(x) and is corrected exactly, as _row_counts corrects
    its pair sums (the rounded square is nondecreasing in omega, so the keys
    <= x form a prefix).  The enumeration extent is _keys_up_to's."""
    if variable == "omega":
        keys, mults = _keys_up_to(s, "omega", max(xs))
        return keys, mults, np.searchsorted(keys, xs, side="right").tolist()
    omegas, mults = s.arrays(math.sqrt(max(xs)) * (1 + 1e-12) + 1e-12)
    xs = np.asarray(xs, dtype=np.float64)
    counts = _prefix_counts(np.searchsorted(omegas, np.sqrt(xs), side="right"), omegas.size,
                            lambda i, j: omegas[j] * omegas[j] <= xs[i]).tolist()
    k = max(counts)
    return omegas[:k], mults[:k], counts


def counting(s: Spectrum, x: float) -> int:
    """N(x): the number of eigenvalues lambda_n <= x, with multiplicity.

    A right-continuous nondecreasing step function; N(x) = 0 below the
    smallest eigenvalue and for negative or NaN x.  Raises ToleranceError
    past the term budget (Spectrum.arrays), whether or not the spectrum ends.
    """
    if x < 0 or math.isnan(x):
        return 0
    _, mults, (k,) = _key_counts(s, "lambda", [x])
    if not k:
        return 0
    # each multiplicity fits int64; their total does unless k of the largest
    # pass the limit, and then it is summed in Python ints
    if k * int(mults.max()) <= _MAX_MULT:
        return int(mults.sum())
    return sum(mults.tolist())


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _check_rows(rows: float, omega_max: float) -> None:
    """Raise ToleranceError, before they are allocated, for more than DEFAULT_MAX_TERMS rows."""
    if rows > DEFAULT_MAX_TERMS:
        raise ToleranceError(f"term budget exhausted: enumerating up to omega = {omega_max!r} "
                             f"needs {rows:.3g} rows, over the budget of {DEFAULT_MAX_TERMS}",
                             achieved_bound=math.nan, terms_used=0)


def _lattice(step: float, zero_mode: bool, mult: int) -> Callable[[float], Arrays]:
    """Enumerator of omega_n = n * step (n >= 1) with multiplicity mult,
    preceded by omega_0 = 0 (multiplicity 1) when zero_mode is set.  It
    budgets floor(omega_max / step) rows plus the zero mode; an infinite
    ratio is over the budget."""

    def gen(omega_max: float) -> Arrays:
        count = omega_max / step
        _check_rows(math.floor(count) + zero_mode if count < math.inf else count, omega_max)
        n_hi = int(count) + 2
        # float64(n) * step rounds exactly as the scalar n * step does
        omegas = np.arange(1, n_hi + 1, dtype=np.float64) * step
        mults = np.full(omegas.size, mult, dtype=np.int64)
        if zero_mode:
            omegas = np.concatenate(([0.0], omegas))
            mults = np.concatenate(([1], mults))
        return omegas, mults

    return gen


def interval_spectrum(length: float, bc: str) -> Spectrum:
    """Dirichlet or Neumann spectrum of -d^2/dx^2 on an interval.

    Dirichlet: omega_n = n pi / length for n >= 1.  Neumann adds the constant
    mode omega_0 = 0.  All multiplicities are 1.
    """
    if not (length > 0) or math.isinf(length):
        raise ValueError(f"length must be positive and finite, got {length}")
    bc = bc.lower()
    if bc not in ("dirichlet", "neumann"):
        raise ValueError(f"bc must be 'dirichlet' or 'neumann', got {bc!r}")
    neumann = bc == "neumann"
    c1 = 1.0 if neumann else 0.0
    return Spectrum(
        dim=1,
        label=f"interval:length={length!r}:bc={bc}",
        envelope=(c1, length / math.pi),
        truncated_at=None,
        _enumerate=_lattice(math.pi / length, neumann, 1),
        energy=-math.pi / (24.0 * length),
    )


def torus_spectrum(circumference: float) -> Spectrum:
    """Spectrum of the Laplacian on a circle: omega_0 = 0 once, then
    omega_n = 2 pi n / circumference with multiplicity 2."""
    if not (circumference > 0) or math.isinf(circumference):
        raise ValueError(f"circumference must be positive and finite, got {circumference}")
    return Spectrum(
        dim=1,
        label=f"torus:circumference={circumference!r}",
        envelope=(1.0, circumference / math.pi),
        truncated_at=None,
        _enumerate=_lattice(2.0 * math.pi / circumference, True, 2),
        energy=-math.pi / (6.0 * circumference),
    )


def _prefix_counts(guess: np.ndarray, n: int,
                   fits: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Correct guessed prefix lengths exactly, in place: for each row i, the
    indices j < n with fits(i, j) form a prefix, and guess[i] is moved one
    step at a time to its length.  fits takes arrays of rows and indices."""
    while True:
        grow = np.flatnonzero(guess < n)
        grow = grow[fits(grow, guess[grow])]
        if not grow.size:
            break
        guess[grow] += 1
    while True:
        shrink = np.flatnonzero(guess > 0)
        shrink = shrink[~fits(shrink, guess[shrink] - 1)]
        if not shrink.size:
            break
        guess[shrink] -= 1
    return guess


def _row_counts(la: np.ndarray, lb: np.ndarray, lam_max: float) -> np.ndarray:
    """For each row i, the number of j with la[i] + lb[j] <= lam_max, the sum
    rounded as float64.  fl(la + x) is nondecreasing in x, so the qualifying
    j form a prefix of the ascending lb; searchsorted on lam_max - la guesses
    its length and the rounding of that difference is corrected exactly."""
    return _prefix_counts(np.searchsorted(lb, lam_max - la, side="right"), lb.size,
                          lambda i, j: la[i] + lb[j] <= lam_max)


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """arange(l, h) for each (l, h) in zip(lo, hi), concatenated."""
    n = hi - lo
    return np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n - lo, n)


def _fill_lines(op: np.ufunc, x: np.ndarray, y: np.ndarray, first: np.ndarray,
                counts: np.ndarray, out: np.ndarray) -> None:
    """out = op(x[i], y[j]) over the pairs (i, first[i] <= j < counts[i]),
    line i after line i - 1, one ufunc call a line."""
    end = 0
    for i, (f, c) in enumerate(zip(first.tolist(), counts.tolist())):
        op(x[i], y[f:c], out=out[end:end + c - f])
        end += c - f


def _coalesce(lam: np.ndarray) -> np.ndarray:
    """Coalesce the ascending lam in place: shrink it to its distinct values
    and return starts, the index of each run's first element (intp), so that
    the result equals lam[starts] of the input.

    The runs are found _RUN_BLOCK pairs at a time, in two passes: the first
    counts them, so starts is allocated at its size; the second fills starts
    and moves lam[starts[i]] to lam[i], which only overwrites elements
    already compared (starts[i] >= i).  Beyond lam and starts it holds
    block-sized work arrays only."""
    block = _RUN_BLOCK
    diff = np.empty(min(block, lam.size), dtype=bool)

    def run_starts(lo: int) -> np.ndarray:
        hi = min(lo + block, lam.size)
        return np.not_equal(lam[lo:hi], lam[lo - 1:hi - 1], out=diff[:hi - lo])

    distinct = 1 + sum(int(np.count_nonzero(run_starts(lo))) for lo in range(1, lam.size, block))
    starts = np.empty(distinct, dtype=np.intp)
    starts[0], k = 0, 1
    for lo in range(1, lam.size, block):
        found = np.flatnonzero(run_starts(lo))
        found += lo
        starts[k:k + found.size] = found
        lam[k:k + found.size] = lam[found]
        k += found.size
    lam.resize(distinct, refcheck=False)
    return starts


def _run_lengths(starts: np.ndarray, total: int,
                 weights: Optional[np.ndarray] = None) -> np.ndarray:
    """The run lengths np.diff(starts, append=total) or, given int64 weights
    of the total elements, the run sums np.add.reduceat(weights, starts),
    formed in place in starts, _RUN_BLOCK at a time, and returned."""
    for lo in range(0, starts.size, _RUN_BLOCK):
        hi = min(lo + _RUN_BLOCK, starts.size)
        end = int(starts[hi]) if hi < starts.size else total
        if weights is None:
            last = end - int(starts[hi - 1])
            starts[lo:hi - 1] = np.diff(starts[lo:hi])
            starts[hi - 1] = last
        else:
            starts[lo:hi] = np.add.reduceat(weights[:end], starts[lo:hi])
    return starts


def _odd_pairs(first: np.ndarray, counts: np.ndarray, odd_a: np.ndarray, odd_b: np.ndarray,
               odd_b_before: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of a product's odd pairs, in O(their number): every pair
    of an odd line (odd_a), then the odd b-terms in each other line
    (odd_b_before[c] - odd_b_before[f] of them in a line from f to c)."""
    odd_lines = np.flatnonzero(odd_a)
    even_lines = np.flatnonzero(~odd_a)
    lo, hi = odd_b_before[first[even_lines]], odd_b_before[counts[even_lines]]
    rows = np.concatenate((np.repeat(odd_lines, counts[odd_lines] - first[odd_lines]),
                           np.repeat(even_lines, hi - lo)))
    cols = np.concatenate((_ranges(first[odd_lines], counts[odd_lines]),
                           np.flatnonzero(odd_b)[_ranges(lo, hi)]))
    return rows, cols


def _commonest(mults: np.ndarray) -> int:
    """The most frequent value of a nonempty multiplicity array."""
    values, counts = np.unique(mults, return_counts=True)
    return int(values[np.argmax(counts)])


def product_spectrum(a: Spectrum, b: Spectrum) -> Spectrum:
    """Direct product: eigenvalues add (omega = sqrt(wa^2 + wb^2)),
    multiplicities multiply, dimensions add.

    Terms are ascending; terms whose computed eigenvalues collide as exactly
    equal floats are coalesced with summed multiplicity (tolerance 0 -- looser
    coalescing would corrupt counts).  Enumeration raises ValueError when a
    multiplicity passes the int64 limit, or when a factor's omega^2 or a pair
    sum inside the cutoff passes the float64 limit, and ToleranceError before
    it allocates more than DEFAULT_MAX_TERMS pairs (a self-product's
    unordered), finite factors or not.

    Memory: enumerating P pairs into D distinct eigenvalues holds the pair
    eigenvalues (8 bytes a pair, filled one factor term at a time, with no
    pair-index arrays) and the run starts (8 bytes per distinct eigenvalue),
    which become the multiplicities in place; the pair buffer is coalesced
    in place (_coalesce) and shrunk to D.  That is 8P + 8D bytes at the
    peak.  A product of a spectrum with itself (equal factor terms)
    enumerates each unordered pair once, which halves the pair buffer:
    about 4P + 8D, 6.6 bytes an ordered pair on the Dirichlet square.
    Products with many odd pairs (more than _ODD_SHARE_MAX of them weigh
    other than the commonest weight) sort pair indices, which holds 24 bytes
    a pair: the eigenvalues, sorted in place, their weights and the sort
    order, into which the weights are gathered.
    """
    if a.envelope is not None and b.envelope is not None:
        c1a, c2a = a.envelope
        c1b, c2b = b.envelope
        # lam^{da/2}, lam^{db/2} <= 1 + lam^{d/2} folds the cross terms in
        envelope = (
            c1a * c1b + c1a * c2b + c2a * c1b,
            c1a * c2b + c2a * c1b + c2a * c2b,
        )
    else:
        envelope = None
    cuts = [s.truncated_at for s in (a, b) if s.truncated_at is not None]
    truncated_at = min(cuts) if cuts else None

    def gen(omega_max: float) -> Arrays:
        lam_max = omega_max * omega_max
        # widen to the largest eigenvalue whose rounded root is <= omega_max:
        # sqrt(lam) can equal omega_max while lam > omega_max^2, and such a
        # term must not depend on whether a wider enumeration was cached
        while lam_max < math.inf and math.sqrt(math.nextafter(lam_max, math.inf)) <= omega_max:
            lam_max = math.nextafter(lam_max, math.inf)
        wa, ma = a.arrays(omega_max)
        wb, mb = b.arrays(omega_max)
        # a product of a spectrum with itself (equal terms, whatever the
        # labels) holds each unordered pair once: the mirror pairs (i, j)
        # and (j, i) sum to the same float
        mirrored = np.array_equal(wa, wb) and np.array_equal(ma, mb)
        # an overflow is an error, raised by value below, not a warning: an
        # infinite factor square admits its pairs (inf - inf is NaN, which
        # searchsorted places last), so it shows as the largest pair sum
        with np.errstate(over="ignore", invalid="ignore"):
            la = wa * wa
            lb = wb * wb
            # line i holds the pairs (i, first[i] <= j < counts[i])
            counts = _row_counts(la, lb, lam_max)
        if mirrored:
            # line i starts on its diagonal pair (i, i); the lines with
            # counts[i] > i form a prefix, as counts never rises
            lines = int(np.count_nonzero(counts > np.arange(counts.size)))
            first = np.arange(lines)
        else:
            # the pair set is the same from either factor, so the lines run
            # along the factor with fewer nonempty ones (counts[0] is the
            # other factor's number)
            lines = int(np.count_nonzero(counts))
            if lines and lines > counts[0]:
                # the other factor's line j holds the i with counts[i] > j
                la, lb, ma, mb = lb, la, mb, ma
                lines = int(counts[0])
                counts = np.searchsorted(-counts, -np.arange(lines), side="left")
            first = np.zeros(lines, dtype=np.intp)
        counts = counts[:lines]
        lengths = counts - first
        pairs = int(lengths.sum())
        _check_rows(pairs, omega_max)
        if not pairs:
            return np.empty(0), np.empty(0, dtype=np.int64)
        # pair (i, j) weighs ma[i] mb[j], twice that off the diagonal of a
        # mirrored product, where it stands for two ordered pairs.  Every
        # coalesced multiplicity, and every partial sum on the way to it, is
        # at most the heaviest weight times the pairs; only where that bound
        # passes the int64 limit are the weights Python ints
        scale = 2 if mirrored else 1
        exact = scale * int(ma.max()) * int(mb.max()) * pairs > _MAX_MULT
        # most pairs weigh base, scale times the product of each factor's
        # commonest multiplicity, so an eigenvalue's multiplicity is base
        # times its number of pairs plus the excess of its odd pairs
        pa, pb = _commonest(ma), _commonest(mb)
        base = scale * pa * pb
        odd_a, odd_b = ma[:lines] != pa, mb != pb
        # line i holds all its pairs odd if ma[i] is odd, else as many as odd
        # b-terms in it; a mirrored product's diagonal pairs weigh ma[i]^2,
        # never base, so those of the other lines are odd too.  Where many
        # pairs are odd, the excess costs more than sorting indices and
        # summing every pair's weight
        odd_b_before = np.concatenate(([0], np.cumsum(odd_b)))
        diagonal = np.flatnonzero(~odd_a) if mirrored else np.empty(0, dtype=np.intp)
        n_odd = diagonal.size + int(np.where(odd_a, lengths,
                                             odd_b_before[counts] - odd_b_before[first]).sum())
        by_index = n_odd > _ODD_SHARE_MAX * pairs
        if exact:
            ma, mb = ma.astype(object), mb.astype(object)
        lam = np.empty(pairs)
        with np.errstate(over="ignore", invalid="ignore"):
            _fill_lines(np.add, la, lb, first, counts, lam)
            if not by_index:
                rows, cols = _odd_pairs(first, counts, odd_a, odd_b, odd_b_before)
                rows, cols = np.concatenate((rows, diagonal)), np.concatenate((cols, diagonal))
                lam_odd = la[rows] + lb[cols]
                excess = ma[rows] * mb[cols]
                if mirrored:
                    excess[rows != cols] *= 2
                excess -= base
                del rows, cols
        if by_index:
            # the weights in the order of lam, as Python ints where int64
            # could overflow
            w = np.empty(pairs, dtype=ma.dtype)
            _fill_lines(np.multiply, scale * ma, mb, first, counts, w)
            if mirrored:
                # each line opens with its diagonal pair, which counts once
                w[np.cumsum(lengths) - lengths] = ma[:lines] * mb[:lines]
            order = np.argsort(lam)
            lam.sort()
            if exact:
                w = w[order]
            else:
                # gathered into the sort order's own buffer, a block at a time
                for lo in range(0, pairs, _RUN_BLOCK):
                    block = order[lo:lo + _RUN_BLOCK]
                    block[:] = w[block]
                w = order
            del order
        else:
            lam.sort()
        if not math.isfinite(lam[-1]):
            raise ValueError("a product eigenvalue (a factor's omega^2, or a pair sum of them) "
                             f"exceeds the float64 limit {_MAX_FLOAT!r}")
        starts = _coalesce(lam)
        if by_index:
            mult = np.add.reduceat(w, starts) if exact else _run_lengths(starts, pairs, w)
        else:
            # the run lengths, formed in starts, times base, plus the excess
            mult = _run_lengths(starts, pairs)
            if exact:
                mult = mult.astype(object)
            mult *= base
            np.add.at(mult, np.searchsorted(lam, lam_odd), excess)
        if exact:
            top = max(mult)
            if top > _MAX_MULT:
                raise ValueError(f"product multiplicity {top} exceeds the int64 limit 2**63 - 1")
            mult = mult.astype(np.int64)
        return np.sqrt(lam, out=lam), mult

    return Spectrum(
        dim=a.dim + b.dim,
        label=f"product:({a.label})x({b.label})",
        envelope=envelope,
        truncated_at=truncated_at,
        _enumerate=gen,
    )


def _listed_spectrum(dim: int, label: str, envelope: Optional[tuple[float, float]],
                     omegas: Sequence[float], mults: Sequence[int]) -> Spectrum:
    """A spectrum that ends: the given ascending terms and nothing beyond."""
    terms = (np.array(omegas, dtype=np.float64), np.array(mults, dtype=np.int64))
    last = float(terms[0][-1]) if terms[0].size else 0.0
    return Spectrum(dim=dim, label=label, envelope=envelope,
                    truncated_at=last, _enumerate=lambda omega_max: terms)


def finite_spectrum(
    dim: int,
    terms: Sequence[tuple[float, int]],
    label: str = "finite",
    envelope: Optional[tuple[float, float]] = None,
) -> Spectrum:
    """A complete finite spectrum given literally as (omega, multiplicity) terms.

    With no explicit envelope the total multiplicity itself is the (exact)
    envelope, since the spectrum genuinely ends.
    """
    terms = [(float(w), int(m)) for w, m in terms]
    for (w, m), (w2, _) in zip(terms, terms[1:]):
        if w2 < w:
            raise ValueError("terms must be nondecreasing in omega")
    # "not w >= 0" also rejects NaN, which would hide misordered terms above
    if any(not w >= 0 for w, _ in terms) or any(not 1 <= m <= _MAX_MULT for _, m in terms):
        raise ValueError(f"need omega >= 0 and 1 <= multiplicity <= {_MAX_MULT}")
    if envelope is None:
        envelope = (float(sum(m for _, m in terms)), 0.0)
    return _listed_spectrum(dim, label, envelope,
                            [w for w, _ in terms], [m for _, m in terms])


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def load_spectrum(path) -> Spectrum:
    """Load a spectrum file.

    Grammar: UTF-8 text; '#' starts a comment; the first significant line is
    "dim <d>"; an optional "envelope <C1> <C2>" line may follow; every further
    line is "<omega> <multiplicity>" with omega nondecreasing.  The file is
    treated as a truncation of the true spectrum, so without an envelope line
    trace tail bounds cannot be certified.

    The file is streamed: the header is read line by line (_read_lines), and
    the body, from the first data line on, goes to one np.loadtxt pass
    (_read_body), which pulls its lines from the open file one at a time;
    the pass peaks at about 32 bytes a term (the parsed table and the two
    arrays copied from it).  Where that pass fails or finds a bad term,
    _read_lines reads the reopened file instead, at about 57 bytes a term:
    it names the offending line and reads the tokens only Python accepts
    (1_000, non-ASCII digits), so the result never depends on which reader
    ran.  Neither path holds the file's lines.
    """
    with _spectrum_file(path) as fh:
        # terms stay the header pass's empty lists when it reaches the end
        dim, envelope, first, *terms = _read_lines(fh, header_only=True)
        if first is not None:
            terms = _read_body(itertools.chain([first], fh))
    if terms is None:
        with _spectrum_file(path) as fh:
            dim, envelope, _, *terms = _read_lines(fh)
    return _listed_spectrum(dim, f"file:{path}", envelope, *terms)


@contextlib.contextmanager
def _spectrum_file(path) -> Iterator[TextIO]:
    """The file opened for reading.  A grammar error is raised only after
    the rest of the file has been decoded, so that an undecodable byte
    anywhere raises UnicodeDecodeError, as when the file is read whole."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except SpectrumFormatError:
            for _ in fh:
                pass
            raise


def _read_body(lines: Iterable[str]) -> Optional[Arrays]:
    """(omegas, mults) of a nonempty file body in one np.loadtxt pass, or
    None when loadtxt raises or warns (numpy 1.x reads "5.0" into an int
    column with a DeprecationWarning), or a term breaks the grammar: NaN or
    negative omega, multiplicity below 1, omega decreasing."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=[("w", "f8"), ("m", "i8")],
                               comments="#", ndmin=1)
    except (ValueError, Warning):  # the per-line reader decides, and names the line
        return None
    omegas, mults = table["w"], table["m"]
    if not (np.all(omegas >= 0) and np.all(mults >= 1) and np.all(np.diff(omegas) >= 0)):
        return None
    return omegas, mults


def _read_lines(lines: Iterable[str], header_only: bool = False,
                ) -> tuple[int, Optional[tuple[float, float]], Optional[str], list[float], list[int]]:
    """The file grammar, one line at a time: the reference reader.

    Reads the lines of a whole file (any iterable, numbered from line 1) and
    returns (dim, envelope, first, omegas, mults) with omegas and mults
    Python lists.  With header_only it stops at the first data line and
    hands it back as first, without reading it (None when the file has
    none); otherwise first is None.  Raises SpectrumFormatError, naming the
    line, at the first line that breaks the grammar.
    """
    dim: Optional[int] = None
    envelope: Optional[tuple[float, float]] = None
    omegas: list[float] = []
    mults: list[int] = []
    prev_omega = -math.inf

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if dim is None:
            if fields[0] != "dim" or len(fields) != 2:
                raise SpectrumFormatError(
                    f"missing 'dim <d>' header at line {lineno}"
                )
            try:
                dim = int(fields[1])
            except ValueError:
                raise SpectrumFormatError(f"bad dimension at line {lineno}: {fields[1]!r}") from None
            if dim < 1:
                raise SpectrumFormatError(f"dimension must be positive at line {lineno}")
            continue
        if fields[0] == "envelope":
            if omegas or envelope is not None or len(fields) != 3:
                raise SpectrumFormatError(f"misplaced envelope line at line {lineno}")
            try:
                c1, c2 = float(fields[1]), float(fields[2])
            except ValueError:
                raise SpectrumFormatError(f"bad envelope constants at line {lineno}") from None
            if c1 < 0 or c2 < 0:
                raise SpectrumFormatError(f"envelope constants must be nonnegative at line {lineno}")
            envelope = (c1, c2)
            continue
        if header_only:
            return dim, envelope, raw, omegas, mults
        if len(fields) != 2:
            raise SpectrumFormatError(
                f"expected '<omega> <multiplicity>' at line {lineno}, got {line!r}"
            )
        try:
            omega = float(fields[0])
            mult = int(fields[1])
        except ValueError:
            raise SpectrumFormatError(f"unparsable term at line {lineno}: {line!r}") from None
        if math.isnan(omega) or omega < 0:
            raise SpectrumFormatError(f"omega must be >= 0 at line {lineno}")
        if mult < 1:
            raise SpectrumFormatError(f"multiplicity must be >= 1 at line {lineno}")
        if mult > _MAX_MULT:
            raise SpectrumFormatError(f"multiplicity exceeds {_MAX_MULT} at line {lineno}")
        if omega < prev_omega:
            raise SpectrumFormatError(f"non-monotone at line {lineno}")
        prev_omega = omega
        omegas.append(omega)
        mults.append(mult)

    if dim is None:
        raise SpectrumFormatError("missing 'dim <d>' header (empty file)")
    return dim, envelope, None, omegas, mults
