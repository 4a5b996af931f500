import contextlib
import io
import math
from fractions import Fraction
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from spectrace import (
    TestFunction as TF,
    bernoulli_numbers,
    comb_pairing,
    euler_maclaurin_expansion,
    heat_trace,
    interval_spectrum,
    moment,
    omega_comb_expansion,
    squares_comb_expansion,
    zeta_neg_int,
)
from spectrace import cli, moments
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
        assert GAUSS.integral() == pytest.approx(math.sqrt(PI) / 2, rel=1e-15)
        assert EXP.integral() == 1.0
        assert ODD.integral() == 0.5
        assert GAUSS.integral_invsqrt() == pytest.approx(math.gamma(0.25) / 2, rel=1e-15)
        assert EXP.integral_invsqrt() == pytest.approx(math.sqrt(PI), rel=1e-15)
        assert ODD.integral_over_x() == pytest.approx(math.sqrt(PI) / 2, rel=1e-15)

    def test_bump_quadrature_integrals(self):
        b = TF.bump(lo=1.0, hi=2.0)
        direct = b.integral()
        assert 0 < direct < 1.0
        assert b.integral_invsqrt() < direct  # 1/sqrt(x) < 1 on (1,2)
        assert b.integral_over_x() < direct

    def test_integral_over_x_requires_vanishing_at_zero(self):
        with pytest.raises(ValueError):
            GAUSS.integral_over_x()
        with pytest.raises(ValueError):
            EXP.integral_over_x()

    def test_bump_support_validation(self):
        with pytest.raises(ValueError):
            TF.bump(lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            TF.bump(lo=2.0, hi=1.0)


def bump_tail_reference(lo, hi, c):
    """int_max(lo,c)^hi exp(-1/((u-lo)(hi-u))) du at 120 digits.

    The pieces grow geometrically from the lower end by the integrand's decay
    length there, so each is smooth.  At 40 to 80 digits mpmath stops short
    on the steep pieces near hi (off by 1.5e-11 at c = 1.495 on (0.5, 1.5));
    at 120 these agree with a 160-digit run to 1e-43.
    """
    with mp.workdps(120):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        a = max(lo, mp.mpf(c))
        ell = (hi - a) / 4
        if lo < a != (lo + hi) / 2:
            ell = min(ell, ((a - lo) * (hi - a)) ** 2 / abs(lo + hi - 2 * a))
        points, x = [a], a + ell / 4
        while x < hi:
            points.append(x)
            x = a + 2 * (x - a)
        return mp.quad(lambda u: mp.exp(-1 / ((u - lo) * (hi - u))), points + [hi])


class TestQuadrature:
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.3, 1.0), (0.5, 1.5), (0.25, 0.75),
                                        (0.2, 0.7), (1.0, 2.0)])
    @pytest.mark.parametrize("power", [0.0, 0.5, 1.0])
    def test_bump_integrals_match_mpmath(self, lo, hi, power):
        def f(u):
            prod = (u - lo) * (hi - u)
            return math.exp(-1.0 / prod) / u**power if prod > 0.0 else 0.0

        with mp.workdps(40):
            ref = mp.quad(lambda u: mp.exp(-1 / ((u - lo) * (hi - u))) / u**power, [lo, hi])
        assert abs(quad(f, lo, hi) - ref) <= 4e-15 * ref

    @pytest.mark.parametrize("lo, hi", [(0.5, 1.5), (0.25, 0.75), (0.3, 1.0)])
    def test_bump_tail_integral_is_an_upper_bound(self, lo, hi):
        b = TF.bump(lo=lo, hi=hi)
        w = hi - lo
        # across the support, and within 1% of hi where the integrand is a
        # spike at c
        for c in [lo - 0.1] + [lo + w * i / 8 for i in range(8)] + [
                hi - w * x for x in (0.05, 0.01, 0.005, 0.002)]:
            ref = bump_tail_reference(lo, hi, c)
            got = b.tail_integral(c)
            assert got >= ref, (c, got, ref)
            assert got <= ref * (1 + 1e-6) + 1e-300, (c, got, ref)
        assert b.tail_integral(hi) == 0.0


class TestCombPairing:
    def test_linear_expdecay_geometric_series(self):
        got = comb_pairing("linear", 0.5, EXP)
        assert abs(got - 1.0 / math.expm1(0.5)) < 1e-12

    def test_squares_expdecay_equals_heat_trace(self):
        t = 0.07
        got = comb_pairing("squares", t, EXP, tol=1e-13)
        trace = heat_trace(interval_spectrum(PI, "dirichlet"), t, tol=1e-13)
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

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            comb_pairing("cubes", 0.1, EXP)
        with pytest.raises(ValueError):
            comb_pairing("linear", -0.1, EXP)


def reference_value(g, x):
    """g(x) by the scalar formulas, one math call per point."""
    u = g.scale * x
    if g.kind == "gaussian":
        return math.exp(-u * u)
    if g.kind == "expdecay":
        return math.exp(-u) if u > -700 else math.inf
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
    """Points where the formulas switch branch: expdecay's overflow guard at
    u = -700, and a bump's support ends, its middle and beyond."""
    s = g.scale
    points = [0.0, -699.0 / s, -700.0 / s, -701.0 / s, -1e4 / s]
    if g.support is not None:
        lo, hi = g.support
        for edge in (lo, hi):
            points += [edge, edge / s, math.nextafter(edge / s, math.inf),
                       math.nextafter(edge / s, -math.inf)]
        points += [(lo + hi) / (2.0 * s), 2.0 * hi / s, -lo / s]
    return points


def _comb_ranges(call):
    """call() and the index ranges (first, last) it handed to _comb_sum."""
    ranges = []
    real = moments._comb_sum

    def spy(term, first, last):
        ranges.append((first, last))
        return real(term, first, last)

    with mock.patch.object(moments, "_comb_sum", spy):
        return call(), ranges


class TestArrayEvaluator:
    """TestFunction.values is the one evaluator; it must agree bit for bit
    with the scalar formulas evaluated one point at a time with math."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(g=smooth_functions(), data=st.data())
    def test_matches_per_element_math(self, g, data):
        xs = _special_points(g) + data.draw(st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False), max_size=20))
        want = [reference_value(g, x).hex() for x in xs]
        assert [v.hex() for v in g.values(xs).tolist()] == want
        assert [g(x).hex() for x in xs] == want

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(g=smooth_functions(scales=st.floats(0.25, 4.0)), eps=st.floats(0.01, 0.5),
           kind=st.sampled_from(("linear", "squares")))
    def test_comb_pairing_is_fsum_of_reference(self, g, eps, kind):
        got, ranges = _comb_ranges(lambda: comb_pairing(kind, eps, g))
        ((first, last),) = ranges
        assert first >= 1
        arg = (lambda n: n * eps) if kind == "linear" else (lambda n: eps * n * n)
        assert got == math.fsum(reference_value(g, arg(n)) for n in range(first, last + 1))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(phi=smooth_functions(("odd-gaussian", "bump"), st.floats(0.25, 4.0)),
           eps=st.floats(1e-4, 0.25))
    def test_omega_comb_is_fsum_of_reference(self, phi, eps):
        res, ranges = _comb_ranges(lambda: omega_comb_expansion(phi, eps, 2))
        ((first, last),) = ranges
        assert first >= 1
        root = math.sqrt(eps)
        assert res.lhs == math.fsum((root / (2.0 * n)) * reference_value(phi, root * n)
                                    for n in range(first, last + 1))

    def test_long_sums_are_chunked(self):
        # 200k indices: several array evaluations, one fsum
        got, ranges = _comb_ranges(lambda: comb_pairing("linear", 1e-3, EXP, tol=1e-80))
        ((first, last),) = ranges
        assert last > 3 * moments._COMB_CHUNK
        assert got == math.fsum(reference_value(EXP, n * 1e-3) for n in range(first, last + 1))

    @pytest.mark.parametrize("comb", ["linear", "squares", "omega"])
    def test_moments_run_makes_one_quadrature_per_integral(self, comb):
        # 16 epsilons, one bump integral each: int f, int f/sqrt(x) or int f/x
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
        res = euler_maclaurin_expansion(EXP, 0.3, 3)
        assert res.terms[0] == pytest.approx(1.0 / 0.3, rel=1e-15)
        assert res.terms[1] == pytest.approx(-0.5, rel=1e-15)        # zeta(0) g(0)
        assert res.terms[2] == pytest.approx(0.3 / 12.0, rel=1e-15)  # zeta(-1) g'(0) eps
        assert res.terms[3] == 0.0                                   # zeta(-2) = 0
        assert res.terms[4] == pytest.approx(-0.3**3 / 720.0, rel=1e-15)

    def test_error_bounded_by_first_omitted_term(self):
        # M = 5: orders 6 (zeta = 0) and 7 drive the error
        eps = 0.1
        res = euler_maclaurin_expansion(EXP, eps, 5)
        bound = 2.0 * abs(Fraction(1, 240)) / math.factorial(7) * eps**7
        assert res.abs_error < bound

    def test_exact_laurent_identity(self):
        # the linear expdecay comb is exactly 1/(e^eps - 1)
        for eps in [0.05, 0.2, 1.0]:
            res = euler_maclaurin_expansion(EXP, eps, 4)
            assert res.lhs == pytest.approx(1.0 / math.expm1(eps), abs=1e-13)

    def test_bump_reduces_to_weyl_term(self):
        b = TF.bump(lo=1.0, hi=2.0)
        res = euler_maclaurin_expansion(b, 0.01, 6)
        assert res.rhs == pytest.approx(res.terms[0], rel=1e-15)
        assert all(t == 0.0 for t in res.terms[1:])
        assert res.abs_error < 1e-8  # beyond-all-orders remainder

    def test_order_validation(self):
        with pytest.raises(ValueError):
            euler_maclaurin_expansion(EXP, 0.1, 11)
        with pytest.raises(ValueError):
            euler_maclaurin_expansion(EXP, 0.1, -1)

    @pytest.mark.parametrize("M,slope", [(0, 1.0), (2, 3.0)])
    def test_float_level_convergence_slopes(self, M, slope):
        # orders measurable in float arithmetic; higher ones need the
        # high-precision oracle in the acceptance suite
        import numpy as np
        eps_grid = [10 ** (-1 - k / 4) for k in range(6)]
        errs = [euler_maclaurin_expansion(EXP, e, M).abs_error for e in eps_grid]
        fit = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
        assert fit == pytest.approx(slope, abs=0.1)


class TestSquaresComb:
    def test_expdecay_boundary_constant(self):
        res = squares_comb_expansion(EXP, 0.01)
        assert res.rhs == pytest.approx(math.sqrt(PI) / (2 * math.sqrt(0.01)), rel=1e-14)
        assert abs(res.lhs - res.rhs + 0.5) < 1e-8

    def test_gaussian_superpolynomial_decay(self):
        for eps in [0.05, 0.025]:
            res = squares_comb_expansion(GAUSS, eps)
            assert abs(res.lhs - res.rhs + GAUSS(0.0) / 2) < eps**4

    def test_moment_terms_all_zero(self):
        res = squares_comb_expansion(EXP, 0.1)
        assert res.terms == (res.rhs,)  # the Weyl term is the whole rhs


class TestOmegaComb:
    def test_odd_gaussian_half_power_expansion(self):
        res = omega_comb_expansion(ODD, 0.01, 3)
        assert res.abs_error < 0.01**2.5

    def test_leading_term_and_ladder(self):
        eps = 0.04
        res = omega_comb_expansion(ODD, eps, 3)
        assert res.terms[0] == pytest.approx(
            math.sqrt(eps) / 2 * math.sqrt(PI) / 2, rel=1e-14)
        # first moment term scales as eps^1, i.e. sqrt(eps) past the leading
        assert res.terms[1] == pytest.approx(-eps / 4.0, rel=1e-14)
        res2 = omega_comb_expansion(ODD, eps / 4.0, 3)
        assert res2.terms[1] / res.terms[1] == pytest.approx(1.0 / 4.0, rel=1e-12)

    def test_half_power_ladder_spacing(self):
        # successive moment terms step by sqrt(eps): orders (n+2)/2
        eps = 0.09
        bump = TF.bump(lo=0.25, hi=2.0)
        res = omega_comb_expansion(bump, eps, 4)
        # bump derivatives vanish, so build the ladder directly from the formula
        ladder = [eps ** ((n + 2) / 2) for n in range(4)]
        ratios = [b / a for a, b in zip(ladder, ladder[1:])]
        assert all(r == pytest.approx(math.sqrt(eps), rel=1e-12) for r in ratios)

    def test_bump_outside_scaled_support_is_zero(self):
        bump = TF.bump(lo=1.0, hi=2.0)
        res = omega_comb_expansion(bump, 5.0, 2)  # sqrt(eps) > 2 kills all samples
        assert res.lhs == 0.0

    def test_rejects_nonvanishing_at_zero(self):
        with pytest.raises(ValueError):
            omega_comb_expansion(GAUSS, 0.01, 2)
        with pytest.raises(ValueError):
            omega_comb_expansion(EXP, 0.01, 2)


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
