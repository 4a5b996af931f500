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
import os
import threading
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
# pair eigenvalues compared (run starts converted, distinct eigenvalues
# given their odd pairs' excess) per step of a product's enumeration, so no
# work array is pair-sized
_RUN_BLOCK = 1 << 16
# the term budget: the most rows (lattice terms, product pairs) one enumeration allocates
DEFAULT_MAX_TERMS = 10_000_000
# characters per block of the body reader (_read_body): about 3,300
# lines, so its work arrays stay near 1 MB whatever the file's size
_PLAIN_BLOCK = 1 << 16
# the plain-block reader divides exact long doubles: it needs a significand
# that holds every 18-digit mantissa, 10^27 and every float64 midpoint, and
# correctly rounded division, as x87 extended (63 stored bits) and IEEE quad
# (112) have; elsewhere (long double = double, IBM double-double) it is off
_EXACT_QUOTIENTS = np.finfo(np.longdouble).nmant in (63, 112)
# 10^0 .. 10^27, each an exact long double on those platforms
_POW10 = np.multiply.accumulate(np.array([1] + [10] * 27, dtype=np.longdouble))
# a plain mantissa or multiplicity is below this; np.fromstring saturates
# larger tokens at 2^63 - 1, which this also refuses
_PLAIN_INT_END = 10**18


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
    factors : (a, b) for a product_spectrum(a, b), None for every other
        constructor.  A product's heat trace is K_a(t) K_b(t), which the
        traces form from the factors without enumerating the product.
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
    factors: Optional[tuple["Spectrum", "Spectrum"]] = field(default=None, repr=False,
                                                              compare=False)
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


def _key_extent(variable: str, x: float) -> float:
    """The omega to which a query for keys <= x enumerates: slightly past x
    (sqrt(x) for "lambda") so a term whose key rounds onto x is kept; the one
    place that slack lives, so every query sees the same cached extent.

    The slack is relative but for the float's underflow scale, so it does
    not depend on the length scale.  A lambda key fl(omega * omega) <= x
    has omega * omega <= x (1 + 2^-52) where the square is normal, and
    omega * omega <= x + 2^-1075 (half the least subnormal) where it is
    not; either way omega <= sqrt(x) (1 + 2^-52) + 2^-537.  The relative
    1e-12 covers the first part and the rounding of sqrt(x) and of this
    sum; the absolute 2^-510 the second."""
    w = x if variable == "omega" else math.sqrt(x)
    return w * (1 + 1e-12) + 2.0**-510


def _key_counts(s: Spectrum, variable: str,
                xs: Sequence[float]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(values, mults, counts): the frequencies omega and multiplicities of
    the terms with key <= max(xs), ascending, and for each x in xs the number
    of them with key <= x; the key is omega for "omega" and lambda = omega^2
    for "lambda".  The lambda keys are not formed: a count starts from
    searchsorted on sqrt(x) and is corrected exactly, as _row_counts corrects
    its pair sums (the rounded square is nondecreasing in omega, so the keys
    <= x form a prefix).  The enumeration extent is _key_extent's."""
    omegas, mults = s.arrays(_key_extent(variable, max(xs)))
    if variable == "omega":
        counts = np.searchsorted(omegas, xs, side="right").tolist()
    else:
        xs = np.asarray(xs, dtype=np.float64)
        counts = _prefix_counts(np.searchsorted(omegas, np.sqrt(xs), side="right"), omegas.size,
                                lambda i, j: omegas[j] * omegas[j] <= xs[i]).tolist()
    k = max(counts)
    return omegas[:k], mults[:k], counts


def counting(s: Spectrum, x: float) -> int:
    """N(x): the number of eigenvalues lambda_n <= x, with multiplicity.

    A right-continuous nondecreasing step function; N(x) = 0 below the
    smallest eigenvalue and for negative or NaN x.  Raises ToleranceError
    past the term budget (Spectrum.arrays), whether or not the spectrum ends,
    and ValueError at x = inf on a spectrum that does not end.
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


def _fill_lines(x: np.ndarray, y: np.ndarray, first: np.ndarray, counts: np.ndarray,
                out: np.ndarray) -> None:
    """out = x[i] + y[j] over the pairs (i, first[i] <= j < counts[i]), line
    i after line i - 1, one ufunc call a line."""
    end = 0
    for i, (f, c) in enumerate(zip(first.tolist(), counts.tolist())):
        np.add(x[i], y[f:c], out=out[end:end + c - f])
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


def _run_lengths(starts: np.ndarray, total: int) -> np.ndarray:
    """The run lengths np.diff(starts, append=total), formed in place in
    starts, _RUN_BLOCK at a time, and returned."""
    for lo in range(0, starts.size, _RUN_BLOCK):
        hi = min(lo + _RUN_BLOCK, starts.size)
        end = int(starts[hi]) if hi < starts.size else total
        last = end - int(starts[hi - 1])
        starts[lo:hi - 1] = np.diff(starts[lo:hi])
        starts[hi - 1] = last
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
    multiplicities multiply, dimensions add.  The result keeps (a, b) as its
    factors, so its heat trace comes from theirs, K_a(t) K_b(t), and only
    its other kernels, Riesz means and counts enumerate the pairs below.

    Terms are ascending; terms whose computed eigenvalues collide as exactly
    equal floats are coalesced with summed multiplicity (tolerance 0 -- looser
    coalescing would corrupt counts).  Enumeration raises ValueError when a
    multiplicity passes the int64 limit, or when a factor's omega^2 or a pair
    sum inside the cutoff passes the float64 limit, and ToleranceError before
    it allocates more than DEFAULT_MAX_TERMS pairs (a self-product's
    unordered), finite factors or not.

    Multiplicities: most pairs weigh base, the product of each factor's
    commonest multiplicity (twice that in a self-product, whose off-diagonal
    pairs stand for two ordered pairs), so each multiplicity is base times
    the run length of its eigenvalue among the sorted pair eigenvalues, plus
    the excess w - base of its odd pairs (those of weight w != base).  The
    excess is added one slab of _RUN_BLOCK distinct eigenvalues at a time.

    Memory: enumerating P pairs into D distinct eigenvalues holds the pair
    eigenvalues (8 bytes a pair, filled one factor term at a time, with no
    pair-index arrays) and the run starts (8 bytes per distinct eigenvalue),
    which become the multiplicities in place; the pair buffer is coalesced
    in place (_coalesce) and shrunk to D.  That is 8P + 8D bytes at the
    peak, plus slab-sized work.  A product of a spectrum with itself (equal
    factor terms) enumerates each unordered pair once, which halves the
    pair buffer: about 4P + 8D, 6.6 bytes an ordered pair on the Dirichlet
    square.
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
        pairs = int((counts - first).sum())
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
        lam = np.empty(pairs)
        with np.errstate(over="ignore", invalid="ignore"):
            _fill_lines(la, lb, first, counts, lam)
        lam.sort()
        if not math.isfinite(lam[-1]):
            raise ValueError("a product eigenvalue (a factor's omega^2, or a pair sum of them) "
                             f"exceeds the float64 limit {_MAX_FLOAT!r}")
        starts = _coalesce(lam)
        # most pairs weigh base, scale times the product of each factor's
        # commonest multiplicity, so an eigenvalue's multiplicity is base
        # times its run length, formed in starts, plus the excess w - base
        # of its odd pairs
        pa, pb = _commonest(ma), _commonest(mb)
        base = scale * pa * pb
        odd_a, odd_b = ma[:lines] != pa, mb != pb
        mult = _run_lengths(starts, pairs)
        if exact:
            ma, mb, mult = ma.astype(object), mb.astype(object), mult.astype(object)
        mult *= base
        if mirrored:
            # a diagonal pair counts once and weighs ma[i]^2, never base;
            # those of the odd lines are among their odd pairs below
            even = np.flatnonzero(~odd_a)
            np.add.at(mult, np.searchsorted(lam, la[even] + lb[even]), ma[even] * mb[even] - base)
        if odd_a.any() or odd_b.any():
            # line i holds all its pairs odd if ma[i] is odd, else as many as
            # odd b-terms in it.  Their excess is added one slab of distinct
            # eigenvalues at a time: line i's pairs in the slab are
            # done[i] <= j < upto[i], as the pair sums of a line ascend
            odd_b_before = np.concatenate(([0], np.cumsum(odd_b)))
            done = first
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(0, lam.size, _RUN_BLOCK):
                    slab = lam[k:k + _RUN_BLOCK]
                    upto = np.clip(_row_counts(la[:lines], lb, slab[-1]), done, counts)
                    rows, cols = _odd_pairs(done, upto, odd_a, odd_b, odd_b_before)
                    done = upto
                    keys = la[rows] + lb[cols]
                    excess = ma[rows] * mb[cols]
                    if mirrored:
                        excess[rows != cols] *= 2
                    excess -= base
                    order = np.argsort(keys)
                    np.add.at(mult[k:k + _RUN_BLOCK], np.searchsorted(slab, keys[order]),
                              excess[order])
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
        factors=(a, b),
    )


def _listed_spectrum(dim: int, label: Optional[str], envelope: Optional[tuple[float, float]],
                     omegas: Sequence[float], mults: Sequence[int]) -> Spectrum:
    """A spectrum that ends: the given ascending terms and nothing beyond.
    Without a label it is 'finite:' and a digest of the two term arrays, so
    spectra with different terms never compare or hash equal."""
    # no copy of arrays that already are contiguous float64 / int64
    terms = (np.ascontiguousarray(omegas, dtype=np.float64),
             np.ascontiguousarray(mults, dtype=np.int64))
    if label is None:
        import hashlib  # a few ms of import that only unlabelled lists pay

        digest = hashlib.blake2b(digest_size=8)
        for array in terms:
            digest.update(array.tobytes())
        label = f"finite:{digest.hexdigest()}"
    last = float(terms[0][-1]) if terms[0].size else 0.0
    return Spectrum(dim=dim, label=label, envelope=envelope,
                    truncated_at=last, _enumerate=lambda omega_max: terms)


def finite_spectrum(
    dim: int,
    terms: Sequence[tuple[float, int]],
    label: Optional[str] = None,
    envelope: Optional[tuple[float, float]] = None,
) -> Spectrum:
    """A complete finite spectrum given literally as (omega, multiplicity) terms.

    The default label is 'finite:' and a digest of the terms, so two lists
    compare equal only when their terms do; a label the caller chooses is
    taken as given.

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
    the body, from the first data line on, in one pass of blocks of whole
    lines (_read_body).  Blocks whose every line is
    "<digits>.<digits> <digits>" are read with exact integer arithmetic
    (_plain_block); any other block goes to the reference reader's body
    grammar (_read_terms), which reads every token Python's float and int
    read (1_000, non-ASCII digits).  Both fill the same two arrays, at about
    25 bytes a term, so the result never depends on which reader ran.  Where
    a term is bad or the file does not decode, _read_lines reads the
    reopened file and raises, naming the offending line.  No reader holds
    the file's lines.
    """
    with _spectrum_file(path) as fh:
        # terms stay the header pass's empty lists when it reaches the end
        dim, envelope, first, *terms = _read_lines(fh, header_only=True)
        if first is not None:
            terms = _read_body(first, fh)
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


def _read_body(first: str, fh: TextIO) -> Optional[Arrays]:
    """(omegas, mults) of a nonempty file body that starts with the line
    first and goes on in fh, or None when the per-line reader must decide.

    The body is read once, in blocks of whole lines (_line_blocks).  A block
    goes to _plain_block, and one it declines (every block where
    _EXACT_QUOTIENTS is off) to _read_terms, the per-line reader's body
    grammar.  Both fill the same two arrays, sized from the lines a
    character read so far and the file's size, grown in place when that
    falls short and cut to the lines read at the end, so the result is held
    once.  None comes back when a term breaks the grammar (_read_terms
    raises, or a plain block holds a multiplicity below 1 or omegas fall
    across blocks) or when the file does not decode, so that the per-line
    reader raises the error on the reopened file, naming its line, and the
    UnicodeDecodeError where it always has."""
    size = os.fstat(fh.fileno()).st_size
    omegas, mults = np.empty(0), np.empty(0, dtype=np.int64)
    n = chars = 0
    try:
        for text in _line_blocks(first, fh):
            terms = _plain_block(text) if _EXACT_QUOTIENTS else None
            if terms is None:
                terms = _read_terms(enumerate(text[:-1].split("\n")))
            k = n + len(terms[0])
            chars += len(text)
            if k > omegas.size:
                # room for the rest of the file at the lines a character so
                # far, and for at least 1/8 more lines
                room = max(k + k * (size - chars) // chars, k + k // 8)
                omegas.resize(room, refcheck=False)
                mults.resize(room, refcheck=False)
            omegas[n:k], mults[n:k] = terms
            n = k
    except (SpectrumFormatError, UnicodeDecodeError):
        return None
    del text, terms  # the last block and its work arrays
    omegas.resize(n, refcheck=False)
    mults.resize(n, refcheck=False)
    if not (np.all(mults >= 1) and np.all(np.diff(omegas) >= 0)):
        return None
    return omegas, mults


def _line_blocks(first: str, fh: TextIO) -> Iterator[str]:
    """The line first and the rest of fh in blocks of whole lines, each
    about _PLAIN_BLOCK characters and ending in a newline; a last line
    without one gets one."""
    rest = first
    while chunk := fh.read(_PLAIN_BLOCK):
        text = rest + chunk
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        rest = text[cut:]
    if rest:
        yield rest if rest.endswith("\n") else rest + "\n"


def _plain_block(text: str) -> Optional[Arrays]:
    """(omegas, mults) of whole lines "<digits>.<digits> <digits>\\n" with at
    most 27 fraction digits and mantissa and multiplicity below 10^18, else
    None.

    Each omega is the mantissa M (the digits without the point) over 10^f,
    f its fraction digits: a quotient of two exact long doubles, rounded
    once, then rounded to float64.  A float64 midpoint is exact in the long
    double, so the second rounding is the correct one unless the quotient
    lands on a midpoint; those few tokens are read again with float().
    Clinger, "How to Read Floating Point Numbers Accurately" (PLDI 1990).
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    chars = np.frombuffer(raw, dtype=np.uint8)
    seps = np.flatnonzero(chars - np.uint8(ord("0")) > 9)  # every byte but a digit
    # dot, space, newline on every line, with a digit before each
    if (seps.size % 3 or np.any(chars[seps].reshape(-1, 3) != np.frombuffer(b". \n", np.uint8))
            or seps[0] == 0 or np.diff(seps).min() < 2):
        return None
    frac = seps[1::3] - seps[::3] - 1
    if frac.max() > _POW10.size - 1:
        return None
    ints = np.fromstring(raw.replace(b".", b""), dtype=np.int64, sep=" ")
    if ints.size != 2 * frac.size or ints.max() >= _PLAIN_INT_END:
        return None
    quotients = ints[::2].astype(np.longdouble)
    quotients /= _POW10[frac]
    omegas = quotients.astype(np.float64)
    # a midpoint lies half the gap above omega (np.spacing) or half the gap
    # below it, which is the spacing or, at a power of two, half of it; those
    # distances are powers of two, exact in float64, and any quotient at one
    # of them is read again
    off = np.abs((quotients - omegas).astype(np.float64))
    off *= 2
    gap = np.spacing(omegas)
    for i in np.flatnonzero((off == gap) | (off * 2 == gap)):
        start = seps[3 * i - 1] + 1 if i else 0
        omegas[i] = float(text[start:seps[3 * i + 1]])
    return omegas, ints[1::2]


def _read_lines(lines: Iterable[str], header_only: bool = False,
                ) -> tuple[int, Optional[tuple[float, float]], Optional[str], list[float], list[int]]:
    """The file grammar, one line at a time: the reference reader.

    Reads the lines of a whole file (any iterable, numbered from line 1) and
    returns (dim, envelope, first, omegas, mults) with omegas and mults
    Python lists: the header here, the body from the first data line on by
    _read_terms.  With header_only it stops at the first data line and
    hands it back as first, without reading it (None when the file has
    none); otherwise first is None.  Raises SpectrumFormatError, naming the
    line, at the first line that breaks the grammar.
    """
    dim: Optional[int] = None
    envelope: Optional[tuple[float, float]] = None
    numbered = enumerate(lines, start=1)
    for lineno, raw in numbered:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if dim is None:
            if fields[0] != "dim" or len(fields) != 2:
                raise SpectrumFormatError(f"missing 'dim <d>' header at line {lineno}")
            try:
                dim = int(fields[1])
            except ValueError:
                raise SpectrumFormatError(f"bad dimension at line {lineno}: {fields[1]!r}") from None
            if dim < 1:
                raise SpectrumFormatError(f"dimension must be positive at line {lineno}")
            continue
        if fields[0] == "envelope":
            if envelope is not None or len(fields) != 3:
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
            return dim, envelope, raw, [], []
        return dim, envelope, None, *_read_terms(itertools.chain([(lineno, raw)], numbered))

    if dim is None:
        raise SpectrumFormatError("missing 'dim <d>' header (empty file)")
    return dim, envelope, None, [], []


def _read_terms(numbered: Iterable[tuple[int, str]]) -> tuple[list[float], list[int]]:
    """The body grammar, one line at a time: (omegas, mults) as Python lists
    of the (lineno, line) pairs of a file's body, from its first data line
    on, where every line is blank, a comment or "<omega> <multiplicity>"
    with omega nondecreasing.  Raises SpectrumFormatError, naming the line,
    at the first line that breaks the grammar."""
    omegas: list[float] = []
    mults: list[int] = []
    prev_omega = -math.inf
    for lineno, raw in numbered:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "envelope":
            raise SpectrumFormatError(f"misplaced envelope line at line {lineno}")
        if len(fields) != 2:
            raise SpectrumFormatError(f"expected '<omega> <multiplicity>' at line {lineno}, "
                                      f"got {line!r}")
        try:
            omega = float(fields[0])
            mult = int(fields[1])
        except ValueError:
            raise SpectrumFormatError(f"unparsable term at line {lineno}: {line!r}") from None
        if not omega >= 0:  # NaN too
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
    return omegas, mults
