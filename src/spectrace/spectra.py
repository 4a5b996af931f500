"""Construction and queries of eigenvalue spectra and their counting function.

A Spectrum is a lazily enumerable, nondecreasing sequence of eigenfrequencies
omega_n with multiplicities, held as a cached sorted prefix of two arrays
(omegas: float64, mults: int64); the eigenvalues are lambda_n = omega_n^2
(derived by squaring, never stored).  Every constructor records a Weyl-type
envelope N(lambda) <= C1 + C2 lambda^{d/2} when one is known, which is what
lets the trace evaluators certify their truncation error.
"""

from __future__ import annotations

import itertools
import math
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
# the shortest product line filled by its own ufunc call; below it a call
# costs more than gathering the line's pairs through indices
_LINE_MIN = 256


class SpectrumFormatError(ValueError):
    """Raised when a spectrum file violates the file grammar."""


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
        sequence can produce; None for constructively infinite spectra.
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
        spectrum that does not end (truncated_at is None).
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


def counting(s: Spectrum, x: float) -> int:
    """N(x): the number of eigenvalues lambda_n <= x, with multiplicity.

    A right-continuous nondecreasing step function; N(x) = 0 below the
    smallest eigenvalue and for negative or NaN x.
    """
    if x < 0 or math.isnan(x):
        return 0
    # exact Python ints: each multiplicity fits int64, their total may not
    return sum(_keys_up_to(s, "lambda", x)[1].tolist())


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _lattice(step: float, zero_mode: bool, mult: int) -> Callable[[float], Arrays]:
    """Enumerator of omega_n = n * step (n >= 1) with multiplicity mult,
    preceded by omega_0 = 0 (multiplicity 1) when zero_mode is set."""

    def gen(omega_max: float) -> Arrays:
        if not math.isfinite(omega_max / step):
            raise ValueError(
                f"cannot enumerate a lattice of step {step!r} up to omega = {omega_max!r}")
        n_hi = int(omega_max / step) + 2
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


def _row_counts(la: np.ndarray, lb: np.ndarray, lam_max: float) -> np.ndarray:
    """For each row i, the number of j with la[i] + lb[j] <= lam_max, the sum
    rounded as float64.  fl(la + x) is nondecreasing in x, so the qualifying
    j form a prefix of the ascending lb; searchsorted on lam_max - la guesses
    its length and the rounding of that difference is corrected exactly."""
    nb = lb.size
    counts = np.searchsorted(lb, lam_max - la, side="right")
    while True:
        grow = counts < nb
        grow[grow] = la[grow] + lb[counts[grow]] <= lam_max
        if not grow.any():
            break
        counts += grow
    while True:
        shrink = counts > 0
        shrink[shrink] = la[shrink] + lb[counts[shrink] - 1] > lam_max
        if not shrink.any():
            break
        counts -= shrink
    return counts


def _ranges(counts: np.ndarray) -> np.ndarray:
    """arange(c) for each c in counts, concatenated."""
    total = int(counts.sum())
    return np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)


def _fill_lines(op: np.ufunc, x: np.ndarray, y: np.ndarray, counts: np.ndarray,
                out: np.ndarray) -> None:
    """out = op(x[i], y[j]) over the pairs (i, j < counts[i]), line i after
    line i - 1.  Lines of at least _LINE_MIN pairs take one ufunc call each;
    the shorter ones, which come last (counts never rises), take one call
    together, through pair indices."""
    ends = np.cumsum(counts)
    long = int(np.count_nonzero(counts >= _LINE_MIN))
    for i, (c, end) in enumerate(zip(counts[:long].tolist(), ends[:long].tolist())):
        op(x[i], y[:c], out=out[end - c:end])
    if long < counts.size:
        rows = long + np.repeat(np.arange(counts.size - long), counts[long:])
        op(x[rows], y[_ranges(counts[long:])], out=out[int(ends[long - 1]) if long else 0:])


def _odd_pairs(counts: np.ndarray, odd_a: np.ndarray, odd_b: np.ndarray,
               odd_b_before: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of a product's odd pairs, in O(their number): every pair
    of an odd line (odd_a), then the odd b-terms in each other line's prefix
    (odd_b_before[c] of them in a prefix of length c)."""
    odd_lines = np.flatnonzero(odd_a)
    even_lines = np.flatnonzero(~odd_a)
    odd_counts = odd_b_before[counts[even_lines]]
    rows = np.concatenate((np.repeat(odd_lines, counts[odd_lines]),
                           np.repeat(even_lines, odd_counts)))
    cols = np.concatenate((_ranges(counts[odd_lines]),
                           np.flatnonzero(odd_b)[_ranges(odd_counts)]))
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
    sum inside the cutoff passes the float64 limit.

    Memory: enumerating P pairs into D distinct eigenvalues holds the pair
    eigenvalues (8 bytes a pair, filled one factor term at a time, with no
    pair-index arrays) and a run-start mask (1 byte a pair), then 8-16 bytes
    per distinct eigenvalue: about 12 bytes a pair at the peak on the
    Dirichlet square.  Products with many odd pairs (more than _ODD_SHARE_MAX
    of them weigh other than the commonest weight) sort pair indices, which
    holds about 32 bytes a pair: the eigenvalues, their weights, the sort
    order and a permuted copy.
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
        # an overflow is an error, raised by value below, not a warning: an
        # infinite factor square admits its pairs (inf - inf is NaN, which
        # searchsorted places last), so it shows as the largest pair sum
        with np.errstate(over="ignore", invalid="ignore"):
            la = wa * wa
            lb = wb * wb
            # line i holds the pairs (i, j < counts[i]); the pair set is the
            # same from either factor, so the lines run along the factor with
            # fewer nonempty ones (counts[0] is the other factor's number)
            counts = _row_counts(la, lb, lam_max)
        lines = int(np.count_nonzero(counts))
        if lines and lines > counts[0]:
            # the other factor's line j holds the i with counts[i] > j
            la, lb, ma, mb = lb, la, mb, ma
            lines = int(counts[0])
            counts = np.searchsorted(-counts, -np.arange(lines), side="left")
        counts = counts[:lines]
        pairs = int(counts.sum())
        if not pairs:
            return np.empty(0), np.empty(0, dtype=np.int64)
        # every coalesced multiplicity is at most max(ma) max(mb) pairs; only
        # where that bound passes the int64 limit are they summed exactly
        exact = int(ma.max()) * int(mb.max()) * pairs > _MAX_MULT
        # pair (i, j) weighs ma[i] mb[j]; most pairs weigh base, the product of
        # each factor's commonest multiplicity, so an eigenvalue's multiplicity
        # is base times its number of pairs plus the excess of its odd pairs
        pa, pb = _commonest(ma), _commonest(mb)
        odd_a, odd_b = ma[:lines] != pa, mb != pb
        # line i holds counts[i] odd pairs if ma[i] is odd, else as many as odd
        # b-terms in its prefix; where many pairs are odd, the excess costs
        # more than sorting indices and summing every pair's weight
        odd_b_before = np.concatenate(([0], np.cumsum(odd_b)))
        n_odd = int(np.where(odd_a, counts, odd_b_before[counts]).sum())
        by_index = n_odd > _ODD_SHARE_MAX * pairs
        lam = np.empty(pairs)
        with np.errstate(over="ignore", invalid="ignore"):
            _fill_lines(np.add, la, lb, counts, lam)
            if not by_index:
                rows, cols = (_odd_pairs(counts, odd_a, odd_b, odd_b_before) if n_odd
                              else (np.empty(0, dtype=np.intp),) * 2)
                lam_odd = la[rows] + lb[cols]
                ma_odd, mb_odd = ma[rows], mb[cols]
                del rows, cols
        if by_index:
            # the weights in the order of lam, as Python ints where int64
            # could overflow
            w = np.empty(pairs, dtype=object if exact else np.int64)
            _fill_lines(np.multiply, *((ma.astype(object), mb.astype(object)) if exact else (ma, mb)),
                        counts, w)
            order = np.argsort(lam)
            lam = lam[order]
            w = w[order]
            del order
        else:
            lam.sort()
        if not math.isfinite(lam[-1]):
            raise ValueError("a product eigenvalue (a factor's omega^2, or a pair sum of them) "
                             f"exceeds the float64 limit {_MAX_FLOAT!r}")
        first = np.ones(pairs, dtype=bool)
        np.not_equal(lam[1:], lam[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        del first
        lam = lam[starts]
        if by_index:
            mult = np.add.reduceat(w, starts)
        else:
            runs = np.diff(starts, append=pairs)
            if exact:
                runs, ma_odd, mb_odd = runs.astype(object), ma_odd.astype(object), mb_odd.astype(object)
            base = pa * pb
            mult = runs * base
            np.add.at(mult, np.searchsorted(lam, lam_odd), ma_odd * mb_odd - base)
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

    The header is read line by line (_read_lines); the body, from the first
    data line on, in one np.loadtxt pass (_read_body).  Where that pass fails
    or finds a bad term, _read_lines reads the body instead: it names the
    offending line and reads the tokens only Python accepts (1_000, non-ASCII
    digits), so the result never depends on which reader ran.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    dim, envelope, body, _, _ = _read_lines(lines, header_only=True)
    terms = _read_body(lines[body:])
    if terms is None:
        dim, envelope, _, *terms = _read_lines(lines, body, dim, envelope)
    return _listed_spectrum(dim, f"file:{path}", envelope, *terms)


def _read_body(lines: list[str]) -> Optional[Arrays]:
    """(omegas, mults) of a file body in one np.loadtxt pass, or None when
    loadtxt raises or warns (numpy 1.x reads "5.0" into an int column with a
    DeprecationWarning), or a term breaks the grammar: NaN or negative omega,
    multiplicity below 1, omega decreasing."""
    if not lines:
        # loadtxt warns on empty input
        return np.empty(0), np.empty(0, dtype=np.int64)
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


def _read_lines(lines: Sequence[str], start: int = 0, dim: Optional[int] = None,
                envelope: Optional[tuple[float, float]] = None, header_only: bool = False,
                ) -> tuple[int, Optional[tuple[float, float]], int, list[float], list[int]]:
    """The file grammar, one line at a time: the reference reader.

    Reads lines[start:] (numbered from lines[0] = line 1), given the dim and
    envelope of the header before start, and returns
    (dim, envelope, stop, omegas, mults) with omegas and mults Python lists.
    With header_only it stops at the first data line, whose index is stop;
    otherwise stop = len(lines).  Raises SpectrumFormatError, naming the
    line, at the first line that breaks the grammar.
    """
    omegas: list[float] = []
    mults: list[int] = []
    prev_omega = -math.inf

    for lineno, raw in enumerate(itertools.islice(lines, start, None), start=start + 1):
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
            return dim, envelope, lineno - 1, omegas, mults
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
    return dim, envelope, len(lines), omegas, mults
