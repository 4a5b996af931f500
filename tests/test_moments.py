import contextlib
import io
import math
import re
import time
import warnings
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectrace import (
    TestFunction as TF,
    bernoulli_numbers,
    comb_expansion,
    comb_pairing,
    interval_spectrum,
    moment,
    trace_grid,
    zeta_neg_int,
)
from spectrace import cli, moments, spectra, traces
from spectrace.moments import quad

PI = math.pi
GAUSS = TF.gaussian()
EXP = TF.expdecay()
ODD = TF.odd_gaussian()

# central difference weights of 6th-order accuracy (Fornberg tables)
FD6 = {
    1: ([-3, -2, -1, 1, 2, 3],
        [-1 / 60, 3 / 20, -3 / 4, 3 / 4, -3 / 20, 1 / 60]),
    2: ([-3, -2, -1, 0, 1, 2, 3],
        [1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90]),
    3: ([-4, -3, -2, -1, 1, 2, 3, 4],
        [-7 / 240, 3 / 10, -169 / 120, 61 / 30, -61 / 30, 169 / 120, -3 / 10, 7 / 240]),
    4: ([-4, -3, -2, -1, 0, 1, 2, 3, 4],
        [7 / 240, -2 / 5, 169 / 60, -122 / 15, 91 / 8, -122 / 15, 169 / 60, -2 / 5, 7 / 240]),
}


class TestTestFunctions:
    def test_fd6_weights_sane_on_polynomial(self):
        # sanity for the stencils themselves before using them as an oracle
        poly = lambda x: 1 + 2 * x + 3 * x**2 + 4 * x**3 + 5 * x**4
        exact = {1: 2.0, 2: 6.0, 3: 24.0, 4: 120.0}
        for n, (offs, wts) in FD6.items():
            fd = sum(w * poly(o * 0.1) for o, w in zip(offs, wts)) / 0.1**n
            assert fd == pytest.approx(exact[n], rel=1e-9)

    @pytest.mark.parametrize("g", [GAUSS, EXP, ODD, TF.bump(lo=0.5, hi=1.5)])
    def test_derivative_table_matches_finite_differences(self, g):
        # h balances the 6th-order truncation against roundoff through n = 4
        h = 0.02
        assert g(0.0) == pytest.approx(g.deriv0(0), abs=1e-12)
        for n, (offsets, weights) in FD6.items():
            fd = sum(wgt * g(off * h) for off, wgt in zip(offsets, weights)) / h**n
            assert fd == pytest.approx(g.deriv0(n), abs=1e-8 * max(1.0, abs(g.deriv0(n))))

    @pytest.mark.parametrize("g", [GAUSS, EXP, ODD])
    def test_taylor_remainder_validates_full_table(self, g):
        # the order-12 table must reproduce g near 0 to beyond-table accuracy
        for x in (0.05, -0.05, 0.12):
            taylor = math.fsum(g.deriv0(n) * x**n / math.factorial(n) for n in range(13))
            assert abs(g(x) - taylor) < 1e-11

    def test_closed_form_integrals(self):
        assert GAUSS.mellin(1.0) == pytest.approx(math.sqrt(PI) / 2, rel=1e-15)
        assert EXP.mellin(1.0) == 1.0
        assert ODD.mellin(1.0) == 0.5
        assert GAUSS.mellin(0.5) == pytest.approx(math.gamma(0.25) / 2, rel=1e-15)
        assert EXP.mellin(0.5) == pytest.approx(math.sqrt(PI), rel=1e-15)
        assert ODD.mellin(0.5) == pytest.approx(float(mp.gamma(0.75) / 2), rel=1e-15)
        assert ODD.mellin(0.0) == pytest.approx(math.sqrt(PI) / 2, rel=1e-15)

    def test_bump_quadrature_integrals(self):
        b = TF.bump(lo=1.0, hi=2.0)
        direct = b.mellin(1.0)
        assert 0 < direct < 1.0
        assert b.mellin(0.5) < direct  # 1/sqrt(x) < 1 on (1,2)
        assert b.mellin(0.0) < direct

    def test_integral_over_x_requires_vanishing_at_zero(self):
        # mellin(0) = int f/x diverges at 0 where f(0) != 0
        with pytest.raises(ValueError, match="diverges"):
            GAUSS.mellin(0.0)
        with pytest.raises(ValueError, match="diverges"):
            EXP.mellin(0.0)

    @pytest.mark.parametrize("g", [GAUSS, EXP, ODD, TF.bump(lo=0.3, hi=0.9),
                                   TF.bump(lo=1e-300, hi=1e300)],
                             ids=["gaussian", "expdecay", "odd-gaussian", "bump", "wide-bump"])
    def test_values_past_the_float_range_are_silent(self, g):
        # u * u and a bump's (u - lo) * (hi - u) overflow to inf, whose
        # exponentials are the function's values there
        xs = [1e155, -1e155, 1e300, -1e300]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = g.values(xs).tolist()
            if g.kind == "bump":
                g.mellin(1.0)
        assert [v.hex() for v in got] == [reference_value(g, x).hex() for x in xs]

    @pytest.mark.parametrize("g", [GAUSS, EXP, ODD, TF.bump(lo=0.3, hi=0.9)],
                             ids=["gaussian", "expdecay", "odd-gaussian", "bump"])
    @pytest.mark.parametrize("scale", [1.0, 2.5])
    def test_nan_in_gives_nan_out(self, g, scale):
        # NaN is no point past the float range: expdecay mapped it to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = g.rescaled(scale).values([math.nan, -math.nan, 0.5])
        assert np.isnan(got[:2]).all() and not np.isnan(got[2])

    @pytest.mark.parametrize("g", [GAUSS, EXP, ODD, TF.bump(lo=0.3, hi=0.9)],
                             ids=["gaussian", "expdecay", "odd-gaussian", "bump"])
    def test_rescaled_argument_past_the_float_range_is_silent(self, g):
        # scale * x overflows before _base: the infinity it gives is mapped
        # to the function's value there, with no warning
        h = g.rescaled(1e10)
        xs = [1e300, -1e300]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = h.values(xs).tolist()
        # f(+-1e310) is f's limit, which it already takes at +-1e300
        assert [v.hex() for v in got] == [reference_value(g, x).hex() for x in xs]

    def test_bump_support_validation(self):
        with pytest.raises(ValueError):
            TF.bump(lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            TF.bump(lo=2.0, hi=1.0)


class TestMellin:
    """mellin(s) = int_0^inf x^(s-1) f(x) dx, the Weyl integral of every comb."""

    @pytest.mark.parametrize("g, s", [
        (GAUSS, 1.0), (GAUSS, 0.5), (EXP, 1.0), (EXP, 0.5),
        (ODD, 1.0), (ODD, 0.5), (ODD, 0.0),
        (TF.bump(lo=0.3, hi=0.9), 1.0), (TF.bump(lo=0.3, hi=0.9), 0.5),
        (TF.bump(lo=0.3, hi=0.9), 0.0),
    ], ids=lambda v: getattr(v, "kind", v))
    def test_matches_mpmath(self, g, s):
        with mp.workdps(40):
            if g.kind == "gaussian":
                f = lambda x: mp.exp(-x * x)
            elif g.kind == "expdecay":
                f = lambda x: mp.exp(-x)
            elif g.kind == "odd-gaussian":
                f = lambda x: x * mp.exp(-x * x)
            else:
                lo, hi = g.support
                f = lambda x: mp.exp(-1 / ((x - lo) * (hi - x)))
            ends = list(g.support) if g.kind == "bump" else [0, 1, mp.inf]
            ref = mp.quad(lambda x: x ** (mp.mpf(s) - 1) * f(x), ends)
        assert abs(g.mellin(s) - ref) <= 4e-15 * ref

    @pytest.mark.parametrize("g", [GAUSS, EXP, ODD, TF.bump(lo=0.3, hi=0.9)],
                             ids=lambda g: g.kind)
    def test_rescaled_divides_by_scale_to_the_s(self, g):
        # mellin of x -> f(c x) is c^(-s) mellin(s) of f: one rounding of
        # c^s and one of the quotient, so within 2 ulp of the exact value
        for s in (1.0, 0.5) + ((0.0,) if g.kind in ("odd-gaussian", "bump") else ()):
            for c in (1e-3, 2.0**-5, 0.3, 1.7, 123.456, 9.1e4):
                got = g.rescaled(c).mellin(s)
                with mp.workdps(40):
                    want = mp.mpf(g.mellin(s)) * mp.mpf(c) ** (-mp.mpf(s))
                    assert abs(got - want) <= 2 * math.ulp(float(want))

    def test_bump_quadrature_runs_once_per_s(self):
        calls = []
        real = moments.quad

        def spy(fn, lo, hi):
            calls.append((lo, hi))
            return real(fn, lo, hi)

        b = TF.bump(lo=0.3, hi=0.9)
        with mock.patch.object(moments, "quad", spy):
            first = [b.mellin(s) for s in (1.0, 0.5, 0.0)]
            again = [b.mellin(s) for s in (1.0, 0.5, 0.0)]
        assert first == again and len(calls) == 3


class TestQuadrature:
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.3, 1.0), (0.5, 1.5), (0.25, 0.75),
                                        (0.2, 0.7), (1.0, 2.0)])
    @pytest.mark.parametrize("power", [0.0, 0.5, 1.0])
    def test_bump_integrals_match_mpmath(self, lo, hi, power):
        def f(u):
            prod = (u - lo) * (hi - u)
            inside = prod > 0.0
            out = np.zeros(u.shape)
            out[inside] = np.exp(-1.0 / prod[inside]) / u[inside] ** power
            return out

        with mp.workdps(40):
            ref = mp.quad(lambda u: mp.exp(-1 / ((u - lo) * (hi - u))) / u**power, [lo, hi])
        assert abs(quad(f, lo, hi) - ref) <= 4e-15 * ref

    @pytest.mark.parametrize("c", [0.1, 0.5, 1.2, 2.0])
    def test_bump_has_no_tail_bound(self, c):
        # comb sums over a bump end at its support, so none asks for a tail
        b = TF.bump(lo=0.5, hi=1.5)
        with pytest.raises(ValueError, match="end at its support"):
            b.tail_mellin(1.0, c)
        with pytest.raises(ValueError, match="end at its support"):
            b.tail_mellin(0.5, c)


class TestCombPairing:
    def test_linear_expdecay_geometric_series(self):
        got = comb_pairing("linear", 0.5, EXP)
        assert abs(got - 1.0 / math.expm1(0.5)) < 1e-12

    def test_squares_expdecay_equals_heat_trace(self):
        t = 0.07
        got = comb_pairing("squares", t, EXP)
        trace = trace_grid(interval_spectrum(PI, "dirichlet"), "heat", [t], 1e-13)[0]
        assert got == pytest.approx(trace.value, abs=1e-12)

    def test_bump_outside_support_sums_to_zero(self):
        b = TF.bump(lo=0.5, hi=1.0)  # support radius 1
        assert comb_pairing("linear", 2.0, b) == 0.0

    def test_bump_window_is_exact(self):
        b = TF.bump(lo=1.0, hi=2.0)
        eps = 0.125
        expect = math.fsum(b(n * eps) for n in range(8, 17))
        assert comb_pairing("linear", eps, b) == expect

    @pytest.mark.parametrize("g", [EXP, GAUSS, TF.bump(lo=1.0, hi=2.0)])
    def test_scaling_covariance_exact(self, g):
        # g(cx) sampled at n*eps sees the same float arguments as g at n*(c*eps)
        # when c is a power of two, so the sums agree bitwise
        for c in (2.0, 0.5, 8.0):
            for eps in (0.0625, 0.125, 0.25):
                assert comb_pairing("linear", eps, g.rescaled(c)) == comb_pairing(
                    "linear", c * eps, g)

    @pytest.mark.parametrize("g, lo, hi", [(EXP, 690.0, 745.0), (ODD, 25.0, 27.3)],
                             ids=["expdecay", "odd-gaussian"])
    def test_tail_bound_is_at_least_the_true_tail(self, g, lo, hi):
        # the tails e^-c and e^(-c^2)/2 stay positive floats down to the
        # least subnormal and below it; the bound's slack covers its own
        # rounding (c * c among it) and its underflow
        with mp.workdps(30):
            for c in np.linspace(lo, hi, 241).tolist():
                x = mp.mpf(c)
                tail = mp.exp(-x) if g.kind == "expdecay" else mp.exp(-x * x) / 2
                assert g.tail_mellin(1.0, c) >= tail

    @pytest.mark.parametrize("kind", ["linear", "squares", "omega"])
    def test_sum_stops_at_the_smallest_certified_index(self, kind):
        # the dropped tail's bound meets the tolerance at the last index
        # summed and not at the one before it
        def certified(g, eps, n):
            if kind == "linear":
                return g.tail_mellin(1.0, n * eps) / eps <= moments._COMB_TOL
            if kind == "squares":
                return (g.tail_mellin(0.5, eps * n * n) / (2.0 * math.sqrt(eps))
                        <= moments._COMB_TOL)
            return g.tail_mellin(1.0, n * math.sqrt(eps)) / 2.0 <= 1e-15

        for g in ([ODD] if kind == "omega" else [EXP, GAUSS]):
            for eps in (1e-3, 0.0137, 0.1):
                _, ranges = _comb_ranges(lambda: comb_pairing(kind, eps, g))
                ((_, last),) = ranges
                assert certified(g, eps, last) and not certified(g, eps, last - 1)

    @pytest.mark.parametrize("kind", ["linear", "squares", "omega"])
    def test_bump_window_holds_every_nonzero_term(self, kind):
        # each comb sums a bump over its support's indices alone, and that
        # sum is the fsum of the whole comb, zeros included, bit for bit
        b = TF.bump(lo=1.0, hi=2.0).rescaled(1.5)
        eps = 0.0137
        root = math.sqrt(eps)
        got, ranges = _comb_ranges(lambda: comb_pairing(kind, eps, b))
        if kind == "omega":
            terms = [root / (2.0 * n) * b(root * n) for n in range(1, 40)]
        else:
            terms = [b(n * eps if kind == "linear" else eps * n * n) for n in range(1, 200)]
        nonzero = [n for n, t in enumerate(terms, 1) if t != 0.0]
        assert ranges == [(nonzero[0], nonzero[-1])]
        assert got == math.fsum(terms)

    def test_window_past_the_term_budget_is_refused_promptly(self):
        # 2e7 indices, twice the budget of 1e7: refused before any is summed
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cap of 10000000 indices"):
            comb_pairing("linear", 3e-8, TF.bump(lo=0.3, hi=0.9))
        assert time.perf_counter() - start < 1.0

    def test_the_term_budget_sets_the_cap(self, monkeypatch):
        # the bump window at eps = 1e-3 holds 599 indices and the certified
        # expdecay stop at eps = 1e-2 lies past 3,000: both fit the budget
        # of 1e7 and neither fits one of 500
        bump = TF.bump(lo=0.3, hi=0.9)
        comb_pairing("linear", 1e-3, bump)
        comb_pairing("linear", 1e-2, EXP)
        monkeypatch.setattr(spectra, "DEFAULT_MAX_TERMS", 500)
        with pytest.raises(ValueError, match="cap of 500 indices"):
            comb_pairing("linear", 1e-3, bump)
        with pytest.raises(ValueError, match="cap of 500 indices"):
            comb_pairing("linear", 1e-2, EXP)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            comb_pairing("cubes", 0.1, EXP)
        with pytest.raises(ValueError):
            comb_pairing("linear", -0.1, EXP)
        with pytest.raises(ValueError):
            comb_expansion("cubes", EXP, 0.1, 2)

    @pytest.mark.parametrize("kind, fns", [
        ("linear", [EXP, GAUSS, ODD, TF.bump(lo=0.3, hi=0.9)]),
        ("squares", [EXP, GAUSS, ODD, TF.bump(lo=0.3, hi=0.9)]),
        ("omega", [ODD, TF.bump(lo=0.3, hi=0.9)]),
    ])
    def test_expansion_lhs_is_the_pairing(self, kind, fns):
        for g in fns:
            for eps in (1e-3, 0.0137, 0.25):
                want = comb_pairing(kind, eps, g)
                assert comb_expansion(kind, g, eps, 3).lhs.hex() == want.hex()


def reference_value(g, x):
    """g(x) by the scalar formulas, one math call per point."""
    u = g.scale * x
    if g.kind == "gaussian":
        return math.exp(-u * u)
    if g.kind == "expdecay":
        try:
            return math.exp(-u)
        except OverflowError:
            return math.inf
    if g.kind == "odd-gaussian":
        return u * math.exp(-u * u)
    lo, hi = g.support
    prod = (u - lo) * (hi - u)
    return math.exp(-1.0 / prod) if prod > 0.0 else 0.0


@st.composite
def smooth_functions(draw, kinds=("gaussian", "expdecay", "odd-gaussian", "bump"),
                   scales=st.floats(1e-3, 1e3)):
    kind = draw(st.sampled_from(kinds))
    support = None
    if kind == "bump":
        lo = draw(st.floats(0.01, 5.0))
        support = (lo, lo + draw(st.floats(0.01, 5.0)))
    return TF(kind, support, draw(st.just(1.0) | scales))


def _special_points(g):
    """Points where the formulas switch branch: around expdecay's overflow
    at u = -709.78, and a bump's support ends, its middle and beyond."""
    s = g.scale
    points = [0.0, -700.0 / s, -705.0 / s, -709.0 / s, -710.0 / s, -1e4 / s]
    if g.support is not None:
        lo, hi = g.support
        for edge in (lo, hi):
            points += [edge, edge / s, math.nextafter(edge / s, math.inf),
                       math.nextafter(edge / s, -math.inf)]
        points += [(lo + hi) / (2.0 * s), 2.0 * hi / s, -lo / s]
    return points


def _near_fsum(got, terms):
    """Whether got is math.fsum(terms) to within the summation policy's
    bound for terms of one sign, 64 * 2^-52 * sum|term|, plus one ulp of each
    term for np.exp's last bit; a sum past the float range must match."""
    want = math.fsum(terms)
    if not math.isfinite(want):
        return got == want
    slack = 64 * 2.0**-52 * math.fsum(map(abs, terms)) + math.fsum(map(math.ulp, terms))
    return abs(got - want) <= slack


def _comb_ranges(call):
    """call() and the index ranges (first, last) it handed to _index_sum."""
    ranges = []
    real = traces._index_sum

    def spy(term, first, last):
        ranges.append((first, last))
        return real(term, first, last)

    with mock.patch.object(traces, "_index_sum", spy):
        return call(), ranges


class TestArrayEvaluator:
    """TestFunction.values is the one evaluator: g(x) is its value at x bit
    for bit, it agrees with the scalar formulas evaluated one point at a
    time with math, and the comb pairings agree with math.fsum of those to
    within the summation policy's bound (_near_fsum)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(g=smooth_functions(), data=st.data())
    def test_matches_per_element_math(self, g, data):
        xs = _special_points(g) + data.draw(st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False), max_size=20))
        got = g.values(xs).tolist()
        # one np.exp a value: its last bit, and for odd-gaussian the rounding
        # of u times it, within two ulps; past the float range exactly
        for v, x in zip(got, xs):
            want = reference_value(g, x)
            assert v == want or (math.isfinite(want) and abs(v - want) <= 2 * math.ulp(want))
        assert [g(x).hex() for x in xs] == [v.hex() for v in got]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(g=smooth_functions(scales=st.floats(0.25, 4.0)), eps=st.floats(0.01, 0.5),
           kind=st.sampled_from(("linear", "squares")))
    def test_comb_pairing_is_fsum_of_reference(self, g, eps, kind):
        got, ranges = _comb_ranges(lambda: comb_pairing(kind, eps, g))
        ((first, last),) = ranges
        assert first >= 1
        arg = (lambda n: n * eps) if kind == "linear" else (lambda n: eps * n * n)
        assert _near_fsum(got, [reference_value(g, arg(n)) for n in range(first, last + 1)])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(phi=smooth_functions(("odd-gaussian", "bump"), st.floats(0.25, 4.0)),
           eps=st.floats(1e-4, 0.25))
    def test_omega_comb_is_fsum_of_reference(self, phi, eps):
        got, ranges = _comb_ranges(lambda: comb_pairing("omega", eps, phi))
        ((first, last),) = ranges
        assert first >= 1
        root = math.sqrt(eps)
        assert _near_fsum(got, [(root / (2.0 * n)) * reference_value(phi, root * n)
                                for n in range(first, last + 1)])

    def test_long_sums_are_chunked(self):
        # 391k indices: several chunks, each one np.add.reduce, and one more
        # over the chunk sums
        got, ranges = _comb_ranges(lambda: comb_pairing("linear", 1e-4, EXP))
        ((first, last),) = ranges
        assert last > 3 * traces._INDEX_CHUNK
        assert _near_fsum(got, [reference_value(EXP, n * 1e-4) for n in range(first, last + 1)])

    @pytest.mark.parametrize("x", [-700.0, -705.0, -709.0])
    def test_expdecay_is_finite_up_to_its_overflow(self, x):
        # exp(-x) is finite up to x = -709.78 (exp(705) = 1.5e306) and inf
        # past it; np.exp may differ from math.exp in the last bit
        assert abs(EXP(x) - math.exp(-x)) <= math.ulp(math.exp(-x))
        assert EXP(-710.0) == math.inf

    @pytest.mark.parametrize("comb", ["linear", "squares", "omega"])
    def test_moments_run_makes_one_quadrature_per_integral(self, comb):
        # 16 epsilons, one bump Mellin transform: at s = 1, 1/2 or 0
        calls = []
        real = moments.quad

        def spy(fn, lo, hi):
            calls.append((lo, hi))
            return real(fn, lo, hi)

        argv = ["moments", "--comb", comb, "--fn", "bump", "--support", "0.3", "0.9"]
        with mock.patch.object(moments, "quad", spy), \
                contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert calls == [(0.3, 0.9)]


class TestEulerMaclaurin:
    def test_first_moment_terms_expdecay(self):
        res = comb_expansion("linear", EXP, 0.3, 3)
        assert res.terms[0] == pytest.approx(1.0 / 0.3, rel=1e-15)
        assert res.terms[1] == pytest.approx(-0.5, rel=1e-15)        # zeta(0) g(0)
        assert res.terms[2] == pytest.approx(0.3 / 12.0, rel=1e-15)  # zeta(-1) g'(0) eps
        assert res.terms[3] == 0.0                                   # zeta(-2) = 0
        assert res.terms[4] == pytest.approx(-0.3**3 / 720.0, rel=1e-15)

    def test_error_bounded_by_first_omitted_term(self):
        # M = 5: orders 6 (zeta = 0) and 7 drive the error
        eps = 0.1
        res = comb_expansion("linear", EXP, eps, 5)
        bound = 2.0 * abs(Fraction(1, 240)) / math.factorial(7) * eps**7
        assert res.abs_error < bound

    def test_exact_laurent_identity(self):
        # the linear expdecay comb is exactly 1/(e^eps - 1)
        for eps in [0.05, 0.2, 1.0]:
            res = comb_expansion("linear", EXP, eps, 4)
            assert res.lhs == pytest.approx(1.0 / math.expm1(eps), abs=1e-13)

    def test_bump_reduces_to_weyl_term(self):
        b = TF.bump(lo=1.0, hi=2.0)
        res = comb_expansion("linear", b, 0.01, 6)
        assert res.rhs == pytest.approx(res.terms[0], rel=1e-15)
        assert all(t == 0.0 for t in res.terms[1:])
        assert res.abs_error < 1e-8  # beyond-all-orders remainder

    def test_order_validation(self):
        with pytest.raises(ValueError):
            comb_expansion("linear", EXP, 0.1, 11)
        with pytest.raises(ValueError):
            comb_expansion("linear", EXP, 0.1, -1)

    @pytest.mark.parametrize("g", [EXP, GAUSS, TF.bump(lo=0.3, hi=0.9)],
                             ids=["expdecay", "gaussian", "bump"])
    @pytest.mark.parametrize("eps, M", [(1e100, 4), (1e200, 2), (1e300, 2)])
    def test_moment_term_past_the_float_range_raises(self, g, eps, M):
        # eps^n overflows: a ValueError naming eps, not an OverflowError
        with pytest.raises(ValueError, match=re.escape(f"eps = {eps!r} puts the moment term eps^")):
            comb_expansion("linear", g, eps, M)

    @pytest.mark.parametrize("M,slope", [(0, 1.0), (2, 3.0)])
    def test_float_level_convergence_slopes(self, M, slope):
        # orders measurable in float arithmetic; higher ones need the
        # high-precision oracle in the acceptance suite
        eps_grid = [10 ** (-1 - k / 4) for k in range(6)]
        errs = [comb_expansion("linear", EXP, e, M).abs_error for e in eps_grid]
        fit = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
        assert fit == pytest.approx(slope, abs=0.1)


class TestSquaresComb:
    def test_expdecay_boundary_constant(self):
        res = comb_expansion("squares", EXP, 0.01, 0)
        assert res.rhs == pytest.approx(math.sqrt(PI) / (2 * math.sqrt(0.01)), rel=1e-14)
        assert abs(res.lhs - res.rhs + 0.5) < 1e-8

    def test_gaussian_superpolynomial_decay(self):
        for eps in [0.05, 0.025]:
            res = comb_expansion("squares", GAUSS, eps, 0)
            assert abs(res.lhs - res.rhs + GAUSS(0.0) / 2) < eps**4

    def test_moment_terms_all_zero(self):
        res = comb_expansion("squares", EXP, 0.1, 0)
        assert res.terms == (res.rhs,)  # the Weyl term is the whole rhs

    def test_order_is_ignored(self):
        assert comb_expansion("squares", EXP, 0.1, 7) == comb_expansion("squares", EXP, 0.1, 0)
        assert comb_expansion("squares", EXP, 0.1, 7).order == 0


class TestOmegaComb:
    def test_odd_gaussian_half_power_expansion(self):
        res = comb_expansion("omega", ODD, 0.01, 3)
        assert res.abs_error < 0.01**2.5

    def test_leading_term_and_ladder(self):
        eps = 0.04
        res = comb_expansion("omega", ODD, eps, 3)
        assert res.terms[0] == pytest.approx(
            math.sqrt(eps) / 2 * math.sqrt(PI) / 2, rel=1e-14)
        # first moment term scales as eps^1, i.e. sqrt(eps) past the leading
        assert res.terms[1] == pytest.approx(-eps / 4.0, rel=1e-14)
        res2 = comb_expansion("omega", ODD, eps / 4.0, 3)
        assert res2.terms[1] / res.terms[1] == pytest.approx(1.0 / 4.0, rel=1e-12)

    def test_half_power_ladder_spacing(self):
        # successive moment terms step by sqrt(eps): orders (n+2)/2
        eps = 0.09
        bump = TF.bump(lo=0.25, hi=2.0)
        res = comb_expansion("omega", bump, eps, 4)
        # bump derivatives vanish, so build the ladder directly from the formula
        ladder = [eps ** ((n + 2) / 2) for n in range(4)]
        ratios = [b / a for a, b in zip(ladder, ladder[1:])]
        assert all(r == pytest.approx(math.sqrt(eps), rel=1e-12) for r in ratios)

    def test_bump_outside_scaled_support_is_zero(self):
        bump = TF.bump(lo=1.0, hi=2.0)
        res = comb_expansion("omega", bump, 5.0, 2)  # sqrt(eps) > 2 kills all samples
        assert res.lhs == 0.0

    def test_rejects_nonvanishing_at_zero(self):
        with pytest.raises(ValueError):
            comb_expansion("omega", GAUSS, 0.01, 2)
        with pytest.raises(ValueError):
            comb_expansion("omega", EXP, 0.01, 2)

    @pytest.mark.parametrize("phi", [ODD, TF.bump(lo=0.3, hi=0.9)], ids=["odd-gaussian", "bump"])
    @pytest.mark.parametrize("eps, M", [(1e100, 5), (1e200, 2), (1e300, 1)])
    def test_moment_term_past_the_float_range_raises(self, phi, eps, M):
        # eps^((n+2)/2) overflows: a ValueError naming eps, not an OverflowError
        with pytest.raises(ValueError, match=re.escape(f"eps = {eps!r} puts the moment term eps^")):
            comb_expansion("omega", phi, eps, M)


class TestMoments:
    def test_linear_values(self):
        assert moment("linear", 0) == Fraction(-1, 2)
        assert moment("linear", 1) == Fraction(-1, 12)
        assert moment("linear", 2) == 0
        assert moment("linear", 3) == Fraction(1, 120)

    def test_squares_all_zero(self):
        for k in range(6):
            assert moment("squares", k) == 0

    def test_cross_check_against_bernoulli_route(self):
        # eta-series route vs the Bernoulli recurrence: -B_{k+1}/(k+1) with
        # the B_1 = +1/2 convention folded into zeta_neg_int
        for k in range(31):
            assert moment("linear", k) == zeta_neg_int(k)
        bs = bernoulli_numbers(31)
        for k in range(1, 31):
            assert moment("linear", k) == (bs[k + 1] if k % 2 == 0 else -bs[k + 1]) / (k + 1)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            moment("linear", 31)
        with pytest.raises(ValueError):
            moment("cubes", 1)
