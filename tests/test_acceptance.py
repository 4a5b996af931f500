"""Acceptance suite: one test per criterion, each reporting a pass/fail line.

The per-criterion verdicts are echoed in pytest's terminal summary (see
conftest.py); run with -s to watch them stream instead.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import mpmath as mp
import numpy as np

from spectrace import (
    TestFunction as TF,
    casimir_energy,
    comb_expansion,
    cylinder_basis,
    cylinder_trace,
    dcylinder_basis,
    detect_log_term,
    extract_riesz_coeffs,
    fit_expansion,
    geometric_grid,
    heat_basis,
    heat_diagonal_interval,
    heat_to_cylinder,
    heat_trace,
    interval_spectrum,
    moment,
    product_spectrum,
    riesz_to_trace,
    trace_grid,
    weyl_remainder,
    zeta_neg_int,
)
from spectrace.cli import expansion_from_fit

PI = math.pi
INTERVAL = interval_spectrum(PI, "dirichlet")
EPS64 = 2.0**-52

# (number, text, verdict) triples; echoed in the terminal summary by conftest
CRITERION_RESULTS = []


@contextmanager
def criterion(num, text):
    try:
        yield
    except Exception:
        CRITERION_RESULTS.append((num, text, "FAIL"))
        print(f"criterion {num:02d}: FAIL - {text}")
        raise
    CRITERION_RESULTS.append((num, text, "PASS"))
    print(f"criterion {num:02d}: PASS - {text}")


# -- shared fitted data (computed once) -------------------------------------

_FITS = {}


def cylinder_fit():
    if "cyl" not in _FITS:
        ts = geometric_grid(1e-3, 0.1, 64)
        values = [s.value for s in trace_grid(INTERVAL, "cylinder", ts, 1e-13)]
        _FITS["cyl"] = fit_expansion(ts, values, cylinder_basis(1, 4))
        _FITS["cyl_samples"] = ts, values
    return _FITS["cyl"]


def heat_fit():
    if "heat" not in _FITS:
        ts = geometric_grid(1e-4, 0.1, 64)
        values = [s.value for s in trace_grid(INTERVAL, "heat", ts, 1e-13)]
        _FITS["heat"] = fit_expansion(ts, values, heat_basis(1, 3))
    return _FITS["heat"]


def test_criterion_01_cylinder_trace_oracle():
    with criterion(1, "cylinder trace matches 1/(e^t-1) to 1e-12 on [1e-3, 1]"):
        for t in geometric_grid(1e-3, 1.0, 40):
            sample = cylinder_trace(INTERVAL, t, tol=1e-13)
            assert abs(sample.value - 1.0 / math.expm1(t)) <= 1e-12
            assert sample.tail_bound <= 1e-13


def test_criterion_02_heat_trace_oracle():
    with criterion(2, "heat trace matches (sqrt(pi/t)-1)/2 to 1e-10 on [1e-4, 0.1]"):
        for t in geometric_grid(1e-4, 0.1, 25):
            sample = heat_trace(INTERVAL, t, tol=1e-12)
            assert abs(sample.value - 0.5 * (math.sqrt(PI / t) - 1.0)) <= 1e-10


def test_criterion_03_fitted_expansion_coefficients():
    with criterion(3, "fitted e_0,e_1,e_2 = 1,-1/2,1/12 and b_0,b_1 = sqrt(pi)/2,-1/2 to 1e-6"):
        cyl = cylinder_fit()
        assert abs(cyl.coefficient(-1, 0) - 1.0) <= 1e-6
        assert abs(cyl.coefficient(0, 0) - (-0.5)) <= 1e-6
        assert abs(cyl.coefficient(1, 0) - 1.0 / 12.0) <= 1e-6
        heat = heat_fit()
        assert abs(heat.coefficient(Fraction(-1, 2), 0) - math.sqrt(PI) / 2) <= 1e-6
        assert abs(heat.coefficient(Fraction(0), 0) - (-0.5)) <= 1e-6


def test_criterion_04_heat_cylinder_relation():
    with criterion(4, "e_s from b_s matches direct fits to 1e-5; f_2 < 1e-6; e_2 undetermined"):
        heat_exp = expansion_from_fit(1, heat_fit())
        via = heat_to_cylinder(heat_exp)
        cyl = cylinder_fit()
        assert abs(float(via.term(-1).coefficient) - cyl.coefficient(-1, 0)) <= 1e-5
        assert abs(float(via.term(0).coefficient) - cyl.coefficient(0, 0)) <= 1e-5
        f2 = via.term(1, 1)
        assert abs(float(f2.coefficient)) < 1e-6
        assert via.term(1, 0).status == "undetermined"


def test_criterion_05_index_term_and_casimir():
    with criterion(5, "no log at t^0, no t^-1 in dT/dt, E = -pi/(24 L) for L in {1, pi, 10}"):
        cylinder_fit()  # populates the shared sample cache
        det = detect_log_term(*_FITS["cyl_samples"], Fraction(0), cylinder_basis(1, 4))
        assert not det.present

        ts = geometric_grid(1e-3, 0.1, 64)
        dvalues = [s.value for s in trace_grid(INTERVAL, "dcylinder", ts, 1e-13)]
        dfit = fit_expansion(ts, dvalues, dcylinder_basis(1, 5))
        assert abs(dfit.coefficient(-1, 0)) < 1e-8

        energy = casimir_energy(expansion_from_fit(1, cylinder_fit()))
        assert abs(energy - (-1.0 / 24.0)) <= 1e-5

        for length in (1.0, PI, 10.0):
            spec = interval_spectrum(length, "dirichlet")
            scale = length / PI
            lts = geometric_grid(1e-3 * scale, 0.1 * scale, 64)
            values = [s.value for s in trace_grid(spec, "cylinder", lts, 1e-13)]
            fit = fit_expansion(lts, values, cylinder_basis(1, 4))
            e = casimir_energy(expansion_from_fit(1, fit))
            expect = -PI / (24.0 * length)
            assert abs(e - expect) <= 1e-4 * abs(expect)


def test_criterion_06_riesz_relations():
    with criterion(6, "a_00 = 1 +- 1e-3 feeds b_0; c_22 = 1/6 +- 2e-2 rel feeds e_2 = 1/12"):
        rep_a = extract_riesz_coeffs(INTERVAL, 0, "lambda",
                                     grid=geometric_grid(1e2, 1e6, 128))
        a00 = rep_a.coefficient(Fraction(1, 2), 0)
        assert abs(a00 - 1.0) <= 1e-3

        b0_via = math.gamma(1.5) * a00
        b0_fit = heat_fit().coefficient(Fraction(-1, 2), 0)
        assert abs(b0_via - b0_fit) <= math.gamma(1.5) * 1e-3 + 1e-6

        rep_c = extract_riesz_coeffs(INTERVAL, 2, "omega")  # spec default grid
        c22 = rep_c.coefficient(Fraction(-1), 0)
        assert abs(c22 - 1.0 / 6.0) <= 2e-2 / 6.0

        # detection already ruled the log column out, so d_22 = 0 and the
        # mixed branch reduces to e_2 = Gamma(2)/Gamma(3) c_22
        assert (Fraction(-1), 1) not in rep_c.basis.terms
        via = riesz_to_trace("omega", 2, 1, [None, None, c22], [0, 0, 0])
        e2_via = float(via.term(1).coefficient)
        assert abs(e2_via - 1.0 / 12.0) <= 2e-2 / 12.0


def test_criterion_07_weyl_remainder_oscillation():
    with criterion(7, "Weyl remainder sup >= 0.4 on [10,100] and [100,1000]"):
        for lo, hi in ((10.0, 100.0), (100.0, 1000.0)):
            n = int(round((hi - lo) / 0.025))
            grid = [lo + k * (hi - lo) / n for k in range(n + 1)]
            data = weyl_remainder(INTERVAL, 1, [1.0, -0.5], grid)
            assert max(abs(e) for _, e in data) >= 0.4


def test_criterion_08_euler_maclaurin_order_law():
    with criterion(8, "error slopes for M in {1,3,5} hit the first surviving zeta order; "
                      "zeta table exact"):
        # float arithmetic cannot see eps^5/eps^7 error terms below the
        # roundoff of the ~1/eps partial sums, so the slopes are measured
        # with the closed-form lhs 1/(e^eps - 1) in 50-digit precision; the
        # package supplies the exact zeta moments under test
        mp.mp.dps = 50
        for m in (1, 3, 5):
            target = next(n for n in range(m + 1, m + 6) if zeta_neg_int(n) != 0)
            assert target == m + 2  # M+1 lands on a vanishing zeta order; skip it
            xs, ys = [], []
            for k in range(13):
                eps = mp.mpf(10) ** (mp.mpf(-3) + k * mp.mpf(2) / 12)
                lhs = 1 / (mp.e**eps - 1)
                rhs = 1 / eps
                for n in range(m + 1):
                    zn = zeta_neg_int(n)
                    rhs += (mp.mpf(zn.numerator) / zn.denominator) * (-1) ** n \
                        * eps**n / mp.factorial(n)
                xs.append(float(mp.log(eps)))
                ys.append(float(mp.log(abs(lhs - rhs))))
            slope = float(np.polyfit(xs, ys, 1)[0])
            assert abs(slope - target) <= 0.1

        assert moment("linear", 0) == Fraction(-1, 2)
        assert moment("linear", 1) == Fraction(-1, 12)
        assert moment("linear", 2) == Fraction(0)
        assert moment("linear", 3) == Fraction(1, 120)


def test_criterion_09_squares_and_omega_combs():
    with criterion(9, "squares-comb error below eps^4 after -g(0)/2; omega-comb below eps^2.5"):
        for g in (TF.gaussian(), TF.expdecay()):
            for eps in geometric_grid(1e-3, 1e-2, 5):
                res = comb_expansion("squares", g, eps, 0)
                assert abs(res.lhs - res.rhs + g(0.0) / 2.0) < eps**4
        phi = TF.odd_gaussian()
        for eps in geometric_grid(1e-3, 1e-2, 5):
            res = comb_expansion("omega", phi, eps, 3)
            assert res.abs_error < eps**2.5


def test_criterion_10_local_diagonal_nonuniformity():
    with criterion(10, "sqrt(4 pi t) K(t,x,x) -> 1 in the interior but not near the wall"):
        mid = heat_diagonal_interval(1e-3, PI / 2)
        assert abs(math.sqrt(4 * PI * 1e-3) * mid - 1.0) <= 1e-4
        wall = heat_diagonal_interval(1e-4, 0.01)
        assert abs(math.sqrt(4 * PI * 1e-4) * wall - 1.0) > 0.25


def test_criterion_11_product_law():
    with criterion(11, "2D trace = (1D trace)^2 within bounds; exponents {-1,-1/2,0}"):
        square = product_spectrum(INTERVAL, INTERVAL)
        for t in geometric_grid(1e-2, 1.0, 20):
            s2 = heat_trace(square, t, tol=1e-12)
            s1 = heat_trace(INTERVAL, t, tol=1e-12)
            combined = s2.tail_bound + 2 * abs(s1.value) * s1.tail_bound + s1.tail_bound**2
            # the certified bounds cover truncation; a few ulps of roundoff
            # on the summed values come on top
            roundoff = 8 * EPS64 * (abs(s2.value) + s1.value**2 + 1.0)
            assert abs(s2.value - s1.value**2) <= combined + roundoff

        ts = geometric_grid(1e-2, 0.5, 40)
        values = [s.value for s in trace_grid(square, "heat", ts, 1e-12)]
        fit = fit_expansion(ts, values, heat_basis(2, 4))
        assert abs(fit.coefficient(-1, 0) - PI / 4) <= 1e-3
        assert abs(fit.coefficient(Fraction(-1, 2), 0) - (-math.sqrt(PI) / 2)) <= 1e-3
        assert abs(fit.coefficient(0, 0) - 0.25) <= 1e-3
        assert abs(fit.coefficient(Fraction(1, 2), 0)) <= 1e-3
        assert abs(fit.coefficient(1, 0)) <= 1e-3
