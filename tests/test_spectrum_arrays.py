"""Property tests locking the array-backed spectrum core to scalar references.

Each reference is the per-term loop the arrays replace: product spectra
against a brute-force double loop with exact-equality coalescing, the cached
prefix against a fresh enumeration.  Equality is exact (bit for bit): the
array code performs the same float operations in the same order.  _term_sum
sums by np.sum instead, so it is held to a fixed accuracy bound against a
per-term math.fsum.
"""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spectrace import counting, finite_spectrum, interval_spectrum, product_spectrum, torus_spectrum
from spectrace import spectra
from spectrace.fitkit import geometric_grid
from spectrace.riesz import riesz_mean_grid
from spectrace.spectra import _coalesce, _key_counts, _keys_up_to, _row_counts, _run_lengths
from spectrace.traces import _exp_safe, _term_sum, trace_grid

PI = math.pi

sizes = st.floats(min_value=0.3, max_value=4.0, allow_nan=False, allow_infinity=False)
factor_kinds = st.sampled_from(["dirichlet", "neumann", "torus"])


def make_factor(kind, size):
    return torus_spectrum(size) if kind == "torus" else interval_spectrum(size, kind)


def scalar_factor_terms(kind, size, omega_max):
    """The factor's terms from its definition, one Python float at a time."""
    step = 2.0 * PI / size if kind == "torus" else PI / size
    mult = 2 if kind == "torus" else 1
    terms = [] if kind == "dirichlet" else [(0.0, 1)]
    n = 1
    while n * step <= omega_max:
        terms.append((n * step, mult))
        n += 1
    return terms


def brute_force_product(a_terms, b_terms, omega_max):
    """Every pair with sqrt(wa^2 + wb^2) <= omega_max, coalescing exactly
    equal eigenvalues."""
    coalesced = {}
    for wa, ma in a_terms:
        for wb, mb in b_terms:
            lam = wa * wa + wb * wb
            if math.sqrt(lam) <= omega_max:
                coalesced[lam] = coalesced.get(lam, 0) + ma * mb
    return [(math.sqrt(lam), coalesced[lam]) for lam in sorted(coalesced)]


@st.composite
def products(draw):
    kind_a = draw(factor_kinds)
    size_a = draw(sizes)
    if draw(st.booleans()):
        # a square: every off-diagonal eigenvalue is hit twice
        kind_b, size_b = kind_a, size_a
    else:
        kind_b, size_b = draw(factor_kinds), draw(sizes)
    return (kind_a, size_a), (kind_b, size_b)


class TestRowCounts:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=30),
           st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=30),
           st.data())
    def test_counts_equal_rounded_pair_sums(self, la, lb, data):
        la, lb = np.array(la), np.sort(np.array(lb))
        # a bound that some rounded pair sum hits exactly, plus its neighbours
        hit = float(la[data.draw(st.integers(0, la.size - 1))]
                    + lb[data.draw(st.integers(0, lb.size - 1))])
        for lam_max in (hit, math.nextafter(hit, 0.0), math.nextafter(hit, math.inf)):
            want = [sum(1 for b in lb.tolist() if a + b <= lam_max) for a in la.tolist()]
            assert _row_counts(la, lb, lam_max).tolist() == want


# multiplicities of the finite factors below: a light pool, and the heavy
# values that send a product down the exact (Python int) path
LIGHT_MULTS = [1, 2, 3, 7]
HEAVY_MULTS = [2**22, 2**40]


@st.composite
def finite_factors(draw, heavy=False):
    """A finite factor built to stress the multiplicity rule: omegas on a
    grid whose squared sums collide (0 included, repeats allowed), and
    multiplicities mostly one bulk value, which need not be the smallest or
    the only commonest one; or all equal; or drawn from 1-3, which sends
    most products down the index sort."""
    pool = LIGHT_MULTS + (HEAVY_MULTS if heavy else [])
    scale = draw(st.sampled_from([1.0, 0.5, math.sqrt(2.0)]))
    steps = draw(st.lists(st.integers(0, 7), max_size=12))
    bulk = draw(st.sampled_from(pool))
    mults = draw(st.sampled_from([
        [draw(st.sampled_from([bulk, bulk] + pool)) for _ in steps],
        [bulk] * len(steps),
        [draw(st.integers(1, 3)) for _ in steps],
    ]))
    return finite_spectrum(1, [(k * scale, m) for k, m in zip(sorted(steps), mults)])


def twin(draw, a):
    """a itself, or an equal spectrum under another label: either way a
    product with a enumerates each unordered pair once."""
    if draw(st.booleans()):
        return a
    return finite_spectrum(a.dim, a.up_to(math.inf), label="twin", envelope=a.envelope)


@st.composite
def finite_products(draw):
    heavy = draw(st.booleans())
    if draw(st.booleans()):
        # a nested product as the first factor
        a = product_spectrum(draw(finite_factors()), draw(finite_factors()))
    else:
        a = draw(finite_factors(heavy=heavy))
    if draw(st.booleans()):
        # one factor used twice
        return a, twin(draw, a)
    return a, draw(finite_factors(heavy=heavy))


@st.composite
def short_line_products(draw):
    """Two long finite factors cut at a small omega_max: a few terms well
    below the cutoff and a dense cluster just under it, so most lines, from
    either factor, hold few pairs.  Omegas are k * scale on a grid of 64 steps
    to the cutoff, so pair sums collide and land on the cutoff itself."""
    scale = draw(st.sampled_from([1.0, 0.5, math.sqrt(2.0)]))
    pool = LIGHT_MULTS + (HEAVY_MULTS if draw(st.booleans()) else [])

    def factor():
        steps = (draw(st.lists(st.integers(0, 20), max_size=3))
                 + draw(st.lists(st.integers(40, 64), min_size=10, max_size=60)))
        bulk = draw(st.sampled_from(pool))
        mults = [draw(st.sampled_from([bulk, bulk, bulk] + pool)) for _ in steps]
        return finite_spectrum(1, [(k * scale, m) for k, m in zip(sorted(steps), mults)])

    a = factor()
    return a, twin(draw, a) if draw(st.booleans()) else factor(), 64 * scale


@contextlib.contextmanager
def product_paths(odd_share_max, run_block=spectra._RUN_BLOCK):
    """Product enumeration with the odd-share switch and the block of the
    in-place coalescing set as given."""
    saved = spectra._ODD_SHARE_MAX, spectra._RUN_BLOCK
    spectra._ODD_SHARE_MAX, spectra._RUN_BLOCK = odd_share_max, run_block
    try:
        yield
    finally:
        spectra._ODD_SHARE_MAX, spectra._RUN_BLOCK = saved


def assert_product_equals_brute_force(a, b, omega_max):
    expected = brute_force_product(a.up_to(omega_max), b.up_to(omega_max), omega_max)
    s = product_spectrum(a, b)
    if any(m > 2**63 - 1 for _, m in expected):
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            s.arrays(omega_max)
    else:
        assert s.up_to(omega_max) == expected


class TestProductMatchesDoubleLoop:
    # an odd-share limit below 0 sends every product down the index sort,
    # one above 1 every product down the value sort with the excess step
    @pytest.mark.parametrize("odd_share_max", [-1.0, 2.0], ids=["by_index", "by_value"])
    @settings(max_examples=300, deadline=None)
    @given(finite_products(),
           st.one_of(st.just(math.inf), st.floats(min_value=0.0, max_value=15.0)))
    def test_finite_factors_equal_brute_force(self, odd_share_max, factors, omega_max):
        # the multiplicity of a product eigenvalue is base x (its number of
        # pairs) plus the excess of the pairs that do not weigh base; these
        # factors make both parts, their collisions and the exact path occur
        a, b = factors
        with product_paths(odd_share_max):
            assert_product_equals_brute_force(a, b, omega_max)

    @pytest.mark.parametrize("odd_share_max", [-1.0, 2.0], ids=["by_index", "by_value"])
    @settings(max_examples=150, deadline=None)
    @given(short_line_products())
    def test_short_lines_equal_brute_force(self, odd_share_max, factors):
        # most lines hold a few pairs, each filled by its own call
        a, b, omega_max = factors
        with product_paths(odd_share_max):
            assert_product_equals_brute_force(a, b, omega_max)

    @pytest.mark.parametrize("odd_share_max", [-1.0, 2.0], ids=["by_index", "by_value"])
    @settings(max_examples=200, deadline=None)
    @given(finite_factors(heavy=True), st.data())
    def test_self_product_cut_on_a_diagonal_eigenvalue(self, odd_share_max, a, data):
        # the diagonal pair (i, i) counts once and opens line i; a cutoff on
        # its eigenvalue, or one ulp either side, keeps or drops whole lines
        terms = a.up_to(math.inf)
        w = terms[data.draw(st.integers(0, len(terms) - 1))][0] if terms else 1.0
        omega_max = math.sqrt(w * w + w * w)
        omega_max = data.draw(st.sampled_from(
            [omega_max, math.nextafter(omega_max, 0.0), math.nextafter(omega_max, math.inf)]))
        with product_paths(odd_share_max):
            assert_product_equals_brute_force(a, twin(data.draw, a), omega_max)

    @pytest.mark.parametrize("odd_share_max", [-1.0, 2.0], ids=["by_index", "by_value"])
    def test_self_products_of_lattices(self, odd_share_max):
        # the square of a Dirichlet square (equal multiplicities) and the flat
        # torus T x T (a zero mode of multiplicity 1 among 2s)
        square = product_spectrum(interval_spectrum(1.1, "dirichlet"),
                                  interval_spectrum(1.1, "dirichlet"))
        circle = torus_spectrum(1.3)
        for a, omega_max in ((square, 30.0), (circle, 200.0)):
            with product_paths(odd_share_max):
                assert_product_equals_brute_force(a, a, omega_max)

    @settings(max_examples=60, deadline=None)
    @given(products(), st.floats(min_value=0.0, max_value=60.0))
    def test_terms_equal_brute_force(self, factors, omega_max):
        (kind_a, size_a), (kind_b, size_b) = factors
        s = product_spectrum(make_factor(kind_a, size_a), make_factor(kind_b, size_b))
        expected = brute_force_product(scalar_factor_terms(kind_a, size_a, omega_max),
                                       scalar_factor_terms(kind_b, size_b, omega_max),
                                       omega_max)
        assert s.up_to(omega_max) == expected

    def test_square_coalesces_coincident_eigenvalues(self):
        side = interval_spectrum(PI, "dirichlet")
        s = product_spectrum(side, side)
        # (1,2) and (2,1) share lambda = 5; (1,7), (7,1) and (5,5) share 50
        terms = dict(s.up_to(8.0))
        assert terms[math.sqrt(5.0)] == 2
        assert terms[math.sqrt(50.0)] == 3

    def test_root_on_the_cutoff_is_kept(self):
        # sqrt(pi^2 + (4 pi/3)^2) rounds to 5 pi/3 although the eigenvalue
        # exceeds (5 pi/3)^2 in float arithmetic
        s = product_spectrum(interval_spectrum(1.0, "dirichlet"), torus_spectrum(1.5))
        omega = math.sqrt(PI * PI + (2 * PI / 1.5) ** 2)
        assert PI * PI + (2 * PI / 1.5) ** 2 > omega * omega
        assert s.up_to(omega)[-1] == (omega, 2)

    def test_nested_product_of_a_product(self):
        circle = torus_spectrum(2 * PI)
        plane = product_spectrum(circle, circle)
        cube = product_spectrum(plane, circle)
        expected = brute_force_product(plane.up_to(4.0), circle.up_to(4.0), 4.0)
        assert cube.up_to(4.0) == expected


class TestCoalesce:
    """_coalesce and _run_lengths, which work in place a block at a time,
    against the whole-array route lam[starts], np.diff(starts, append=pairs)
    on sorted arrays, with blocks of a few pairs so runs straddle block
    edges."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(st.integers(0, 6), min_size=1, max_size=40),
                     st.integers(1, 40).map(lambda n: [3] * n),
                     st.integers(1, 40).map(lambda n: list(range(n)))),
           st.integers(1, 9))
    def test_equals_whole_array_route(self, values, block):
        # runs of repeated values, a single run, all values distinct
        lam = np.sort(np.array(values, dtype=np.float64) * 0.1)
        first = np.ones(lam.size, dtype=bool)
        first[1:] = lam[1:] != lam[:-1]
        want = np.flatnonzero(first)
        got = lam.copy()
        with product_paths(spectra._ODD_SHARE_MAX, block):
            starts = _coalesce(got)
            assert starts.tolist() == want.tolist()
            assert got.tolist() == lam[want].tolist()
            runs = _run_lengths(starts, lam.size)
        assert runs.tolist() == np.diff(want, append=lam.size).tolist()

    @pytest.mark.parametrize("odd_share_max", [-1.0, 2.0], ids=["by_index", "by_value"])
    @settings(max_examples=100, deadline=None)
    @given(finite_products(), st.integers(1, 5),
           st.one_of(st.just(math.inf), st.floats(min_value=0.0, max_value=15.0)))
    def test_products_across_block_edges(self, odd_share_max, factors, block, omega_max):
        # the heavy multiplicities of finite_products take the exact path,
        # where the run lengths become Python ints (object dtype)
        a, b = factors
        with product_paths(odd_share_max, block):
            assert_product_equals_brute_force(a, b, omega_max)


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn runs, above what was held
    before it (numpy reports its array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Peak memory of enumeration and of lambda-Riesz grids on the Dirichlet
    square of side pi (w1 = sqrt 2), enumerated to 1000 w1: about 1.57M
    pairs and 420k distinct eigenvalues.  The grids run to 1e6 w1^2, past
    where `verify` ends its own, so every cached term is summed."""

    W1 = math.sqrt(2.0)

    def square(self):
        side = interval_spectrum(PI, "dirichlet")
        side.arrays(1000 * self.W1 * 1.001)
        return product_spectrum(side, side)

    def test_enumeration_peak_per_pair(self):
        # the pair eigenvalues (8 bytes an unordered pair, about 4 an ordered
        # one, as the square enumerates each mirror pair once), coalesced in
        # place, and the run starts (8 bytes per distinct eigenvalue); no
        # pair-index arrays, no pair-sized mask and no copy of the distinct
        # eigenvalues
        square = self.square()
        result = {}
        peak = traced_peak(lambda: result.update(terms=square.arrays(1000 * self.W1)))
        pairs = int(result["terms"][1].sum())
        assert pairs > 1_500_000
        assert peak <= 8 * pairs, f"{peak / pairs:.1f} bytes an ordered pair"

    def test_index_sort_peak_per_pair(self):
        # two 1,700-term factors with multiplicities 1-3 take the index sort:
        # the pair eigenvalues, sorted in place, their weights and the sort
        # order, into which the weights are gathered (24 bytes a pair); no
        # permuted copy.  Random omegas make nearly every pair eigenvalue
        # distinct, so the run sums are formed in the run starts
        rng = np.random.default_rng(5)
        a, b = (finite_spectrum(1, zip(np.sort(rng.uniform(0.0, 100.0, 1700)).tolist(),
                                       rng.integers(1, 4, 1700).tolist()))
                for _ in range(2))
        s = product_spectrum(a, b)
        peak = traced_peak(lambda: s.arrays(math.inf))
        pairs = 1700 * 1700
        assert peak <= 25 * pairs, f"{peak / pairs:.1f} bytes a pair"

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_riesz_grid_peak_per_term(self, alpha):
        # above the cached enumeration: block-sized moment work arrays, the
        # keys squared a block at a time (no term-sized array)
        square = self.square()
        grid = geometric_grid(1e2 * self.W1**2, 1e6 * self.W1**2, 128)
        riesz_mean_grid(square, 0, "lambda", grid)
        terms = square.arrays(1000 * self.W1)[0].size
        peak = traced_peak(lambda: riesz_mean_grid(square, alpha, "lambda", grid))
        assert terms > 400_000
        assert peak <= 6 * terms, f"{peak / terms:.1f} bytes a term"

    def test_counting_grid_peak_per_term(self):
        # alpha = 0 uses the same tables: one moment row, no keys squared
        # and no cumulative sum over the terms
        square = self.square()
        grid = geometric_grid(1e2 * self.W1**2, 1e6 * self.W1**2, 128)
        riesz_mean_grid(square, 1, "lambda", grid)
        terms = square.arrays(1000 * self.W1)[0].size
        peak = traced_peak(lambda: riesz_mean_grid(square, 0, "lambda", grid))
        assert terms > 400_000
        assert peak <= 3 * terms, f"{peak / terms:.1f} bytes a term"


SPECTRUM_KINDS = [
    lambda: interval_spectrum(1.3, "dirichlet"),
    lambda: interval_spectrum(0.7, "neumann"),
    lambda: torus_spectrum(2.2),
    lambda: product_spectrum(interval_spectrum(1.0, "dirichlet"), torus_spectrum(1.5)),
    lambda: product_spectrum(interval_spectrum(1.1, "neumann"),
                             interval_spectrum(1.1, "neumann")),
    lambda: finite_spectrum(2, [(0.5, 1), (1.0, 3), (1.0, 2), (2.5, 4)]),
]


class TestCachedPrefix:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(range(len(SPECTRUM_KINDS))),
           st.floats(min_value=0.0, max_value=40.0),
           st.floats(min_value=1.0, max_value=3.0))
    def test_prefix_after_wider_call_equals_fresh(self, kind, omega, widen):
        cached = SPECTRUM_KINDS[kind]()
        cached.arrays(omega * widen + 1.0)
        got_w, got_m = cached.arrays(omega)
        want_w, want_m = SPECTRUM_KINDS[kind]().arrays(omega)
        assert got_w.dtype == np.float64 and got_m.dtype == np.int64
        assert np.array_equal(got_w, want_w)
        assert np.array_equal(got_m, want_m)

    @pytest.mark.parametrize("kind", range(len(SPECTRUM_KINDS)))
    def test_prefix_ending_on_an_eigenvalue_keeps_it(self, kind):
        cached = SPECTRUM_KINDS[kind]()
        wide, _ = cached.arrays(12.0)
        for omega in wide[:40].tolist():
            got_w, got_m = cached.arrays(omega)
            want_w, want_m = SPECTRUM_KINDS[kind]().arrays(omega)
            assert got_w[-1] == omega
            assert np.array_equal(got_w, want_w) and np.array_equal(got_m, want_m)

    def test_arrays_are_read_only(self):
        s = interval_spectrum(PI, "neumann")
        for arr in s.arrays(10.0) + s.arrays(5.0):
            assert not arr.flags.writeable

    def test_up_to_is_tuple_view_of_arrays(self):
        s = product_spectrum(torus_spectrum(3.0), interval_spectrum(1.5, "neumann"))
        w, m = s.arrays(9.0)
        terms = s.up_to(9.0)
        assert terms == list(zip(w.tolist(), m.tolist()))
        assert all(type(wi) is float and type(mi) is int for wi, mi in terms)

    def test_negative_and_nan_give_empty(self):
        s = torus_spectrum(1.0)
        for bad in (-1.0, math.nan):
            w, m = s.arrays(bad)
            assert w.size == 0 and m.size == 0


@st.composite
def close_roots(draw):
    """Frequencies that are the rounded roots of consecutive floats: many are
    equal, and their rounded squares need not be the floats they came from."""
    x = draw(st.floats(min_value=1e-6, max_value=1e12))
    keys = [x]
    for _ in range(draw(st.integers(0, 20))):
        keys.append(math.nextafter(keys[-1], math.inf))
    return [math.sqrt(k) for k in keys]


class TestKeyCounts:
    """_key_counts counts the lambda keys omega * omega <= x without forming
    them: it must equal searchsorted on the squared frequencies."""

    @staticmethod
    def assert_counts_equal_searchsorted(s, key):
        xs = [key, math.nextafter(key, 0.0), math.nextafter(key, math.inf), 0.0]
        if s.truncated_at is not None:
            xs.append(math.inf)
        values, mults, counts = _key_counts(s, "lambda", xs)
        omegas = s.arrays(math.sqrt(max(xs)) * 1.01 + 1.0)[0]
        assert counts == np.searchsorted(omegas * omegas, xs, side="right").tolist()
        keys, want_mults = _keys_up_to(s, "lambda", max(xs))
        assert (values * values).tolist() == keys.tolist()
        assert mults.tolist() == want_mults.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.lists(st.floats(min_value=0.0, max_value=1e100), min_size=1, max_size=30),
                     close_roots()),
           st.data())
    def test_finite_spectra(self, omegas, data):
        s = finite_spectrum(2, [(w, 1) for w in sorted(omegas)])
        w = s.arrays(math.inf)[0]
        key = float(w[data.draw(st.integers(0, w.size - 1))] ** 2)
        self.assert_counts_equal_searchsorted(s, key)

    @pytest.mark.parametrize("kind", range(len(SPECTRUM_KINDS)))
    def test_keys_of_enumerated_spectra(self, kind):
        s = SPECTRUM_KINDS[kind]()
        for w in s.arrays(12.0)[0][:40].tolist():
            self.assert_counts_equal_searchsorted(s, w * w)


class TestCountingSum:
    """counting reads its count from _key_counts and sums the multiplicities
    in int64 where that cannot wrap: it must equal the exact Python sum over
    the squared keys."""

    @staticmethod
    def assert_counts_equal_reference(s, key):
        xs = [key, math.nextafter(key, 0.0), math.nextafter(key, math.inf), 0.0]
        if s.truncated_at is not None:
            xs.append(math.inf)
        for x in xs:
            assert counting(s, x) == sum(_keys_up_to(s, "lambda", x)[1].tolist()), x

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1e6),
                              st.sampled_from([1, 3, 2**40, 2**62, 2**63 - 1])),
                    min_size=1, max_size=20),
           st.data())
    def test_finite_spectra(self, terms, data):
        # multiplicities near the int64 limit make totals that need Python ints
        s = finite_spectrum(2, sorted(terms))
        w = s.arrays(math.inf)[0]
        self.assert_counts_equal_reference(s, float(w[data.draw(st.integers(0, w.size - 1))] ** 2))

    @pytest.mark.parametrize("kind", range(len(SPECTRUM_KINDS)))
    def test_enumerated_spectra(self, kind):
        s = SPECTRUM_KINDS[kind]()
        for w in s.arrays(12.0)[0][:40].tolist():
            self.assert_counts_equal_reference(s, w * w)


def reference_terms(kind, t, terms):
    """(term, weight) pairs of the per-term summation the array version
    replaced, with the exponential by math.exp."""
    if kind == "heat":
        return [(m * _exp_safe(-t * w * w), m) for w, m in terms]
    if kind == "cylinder":
        return [(m * _exp_safe(-t * w), m) for w, m in terms]
    return [(-m * w * _exp_safe(-t * w), m * w) for w, m in terms]


# np.sum of same-sign terms stays within a few ulps of the correctly rounded
# sum, and np.exp within an ulp of math.exp; both figures are fixed from the
# dtype (the same 64 eps as the Riesz-mean reference in test_riesz.py), the
# second part covering an ulp of each subnormal exponential
REL_BOUND = 64 * 2.0**-52
SUBNORMAL_ULP = 2.0**-1074


def assert_within_bound(got, kind, t, terms):
    ref = reference_terms(kind, t, terms)
    want = math.fsum(term for term, _ in ref)
    bound = (REL_BOUND * math.fsum(abs(term) for term, _ in ref)
             + SUBNORMAL_ULP * math.fsum(weight for _, weight in ref))
    assert abs(got - want) <= bound, (got, want, bound)


term_lists = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=3e3, allow_nan=False),
              st.integers(min_value=1, max_value=1000)),
    max_size=60,
).map(sorted)


class TestTermSumBitIdentical:
    """_term_sum against the per-term math.fsum reference, within the fixed
    bound above; only sums with no term before the cut must be exactly 0.0."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["heat", "cylinder", "dcylinder"]), term_lists,
           st.floats(min_value=1e-6, max_value=10.0))
    def test_matches_per_term_fsum(self, kind, terms, t):
        omegas = np.array([w for w, _ in terms], dtype=np.float64)
        mults = np.array([m for _, m in terms], dtype=np.int64)
        assert_within_bound(_term_sum(kind, t, omegas, mults), kind, t, terms)

    @pytest.mark.parametrize("terms", [
        [(1.0, 1), (20.0, 3), (27.29, 2), (27.3, 5), (800.0, 1), (2000.0, 7)],
        # only subnormal exponentials and terms past the cut: a sum near 1e-317
        [(26.5, 1), (27.0, 4), (27.29, 2), (27.3, 5), (730.0, 3), (745.5, 1)],
    ])
    def test_terms_past_the_underflow_cut(self, terms):
        # arguments -t w w and -t w straddle -745: the far terms count as 0.0
        omegas = np.array([w for w, _ in terms])
        mults = np.array([m for _, m in terms], dtype=np.int64)
        for kind in ("heat", "cylinder", "dcylinder"):
            for t in (1.0, 0.5, 0.9315):
                assert_within_bound(_term_sum(kind, t, omegas, mults), kind, t, terms)

    @pytest.mark.parametrize("kind, terms", [
        ("heat", [(1.99, 3), (2.0, 2)]),
        ("cylinder", [(3.99, 3), (4.0, 2)]),
        ("dcylinder", [(3.99, 3), (4.0, 2)]),
    ])
    def test_argument_exactly_at_the_cut(self, kind, terms):
        # at t = 186.25 the last term's argument is exactly -745: exp(-745) is
        # the smallest subnormal, but the cut counts the term as 0.0, while
        # the first term stays subnormal, so the sum is not 0.0; the last
        # term alone sums to exactly 0.0, which the bound could not tell
        # from one subnormal
        omegas = np.array([w for w, _ in terms])
        mults = np.array([m for _, m in terms], dtype=np.int64)
        got = _term_sum(kind, 186.25, omegas, mults)
        assert_within_bound(got, kind, 186.25, terms)
        assert got != 0.0
        assert _term_sum(kind, 186.25, omegas[1:], mults[1:]).hex() == (0.0).hex()

    def test_empty_sum_is_zero(self):
        for kind in ("heat", "cylinder", "dcylinder"):
            got = _term_sum(kind, 1.0, np.empty(0), np.empty(0, dtype=np.int64))
            assert got.hex() == (0.0).hex()


# the traces' spectra of TestTermBudget: both intervals, the torus, N x T and D x D
TRACE_SPECTRA = [
    lambda: interval_spectrum(1.0, "dirichlet"),
    lambda: interval_spectrum(0.3, "neumann"),
    lambda: torus_spectrum(2.0),
    lambda: product_spectrum(interval_spectrum(1.0, "neumann"), torus_spectrum(1.7)),
    lambda: product_spectrum(interval_spectrum(1.0, "dirichlet"),
                             interval_spectrum(1.0, "dirichlet")),
]


def self_product():
    s = finite_spectrum(1, [(1.0, 1), (2.0, 1), (3.0, 1), (4.0, 1)])
    return product_spectrum(s, s)


class TestTermBudget:
    """The two enumerators that allocate rows refuse, before allocating, an
    enumeration of more than spectra.DEFAULT_MAX_TERMS of them: a lattice
    counts floor(omega / step) plus its zero mode, a product its pairs."""

    @pytest.mark.parametrize("make, omega_max, rows", [
        # steps of 1.0: omegas 1..100, and 0 plus 1..99 with the torus's zero mode
        (lambda: interval_spectrum(PI, "dirichlet"), 100.0, 100),
        (lambda: torus_spectrum(2 * PI), 99.0, 100),
        # finite factors are not exempt: all 10 x 3 pairs
        (lambda: product_spectrum(finite_spectrum(1, [(n, 1) for n in range(1, 11)]),
                                  finite_spectrum(1, [(0.5, 1), (1.5, 1), (2.5, 1)])),
         math.inf, 30),
        # the 10 unordered pairs of 4 terms, each once (16 ordered pairs)
        (self_product, math.inf, 10),
    ], ids=["interval", "torus", "finite-product", "self-product"])
    def test_enumerates_at_the_budget_and_refuses_one_row_past_it(
            self, monkeypatch, make, omega_max, rows):
        monkeypatch.setattr(spectra, "DEFAULT_MAX_TERMS", rows)
        omegas, _ = make().arrays(omega_max)
        assert omegas.size > 0
        monkeypatch.setattr(spectra, "DEFAULT_MAX_TERMS", rows - 1)
        with pytest.raises(spectra.ToleranceError, match="term budget"):
            make().arrays(omega_max)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(range(len(TRACE_SPECTRA))),
           st.sampled_from(["heat", "cylinder", "dcylinder"]),
           st.floats(min_value=math.log(1e-6), max_value=math.log(10.0)).map(math.exp),
           st.floats(min_value=math.log(1e-16), max_value=math.log(1e-2)).map(math.exp),
           st.integers(1, 4000))
    # capped at the budget, these enumerate exactly 4,000 rows and certify
    @example(0, "cylinder", 1e-3, 5e-3, 4000)
    @example(1, "cylinder", 1e-3, 1e-15, 4000)
    def test_traces_within_the_budget_never_hit_the_enumeration_check(
            self, kind, kernel, t, tol, budget):
        # a trace caps its cutoff where the envelope count reaches the
        # budget, and the envelope counts at least the rows, so only the
        # trace itself may refuse
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "DEFAULT_MAX_TERMS", budget)
            try:
                sample = trace_grid(TRACE_SPECTRA[kind](), kernel, [t], tol)[0]
            except spectra.ToleranceError as exc:
                assert "before reaching tol" in str(exc), exc
            else:
                assert sample.tail_bound <= tol and sample.terms_used <= budget
