import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spectrace import (
    AsymptoticExpansion,
    ExactCoeff,
    ExpansionTerm,
    bernoulli_numbers,
    casimir_energy,
    cylinder_expansion,
    expansion_derivative,
    expansion_product,
    expansion_to_json,
    gamma_half,
    heat_expansion,
    heat_to_cylinder,
    riesz_to_trace,
    zeta_neg_int,
)
from spectrace.invariants import _carries_log

SQRT_PI_HALF = ExactCoeff.sqrt_pi(Fraction(1, 2))


class TestExactScalars:
    def test_bernoulli_values(self):
        b = bernoulli_numbers(8)
        assert b[0] == 1
        assert b[1] == Fraction(-1, 2)
        assert b[2] == Fraction(1, 6)
        assert b[4] == Fraction(-1, 30)
        assert b[6] == Fraction(1, 42)
        assert b[3] == b[5] == b[7] == 0

    def test_zeta_table(self):
        assert zeta_neg_int(0) == Fraction(-1, 2)
        assert zeta_neg_int(1) == Fraction(-1, 12)
        assert zeta_neg_int(2) == 0
        assert zeta_neg_int(3) == Fraction(1, 120)
        assert zeta_neg_int(5) == Fraction(-1, 252)
        assert zeta_neg_int(7) == Fraction(1, 240)

    def test_zeta_even_parity(self):
        for k in range(1, 31):
            assert zeta_neg_int(2 * k) == 0

    def test_zeta_range_check(self):
        with pytest.raises(ValueError):
            zeta_neg_int(-1)
        with pytest.raises(ValueError):
            zeta_neg_int(61)

    def test_gamma_half_classics(self):
        assert gamma_half(1) == ExactCoeff.sqrt_pi(1)          # Gamma(1/2)
        assert gamma_half(4) == ExactCoeff.from_rational(1)    # Gamma(2)
        assert gamma_half(3) == SQRT_PI_HALF                   # Gamma(3/2)
        assert gamma_half(8) == ExactCoeff.from_rational(6)    # Gamma(4)
        assert float(gamma_half(7)) == pytest.approx(math.gamma(3.5), rel=1e-15)

    def test_gamma_half_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gamma_half(0)

    def test_gamma_half_rejects_poles(self):
        for k2 in (-2, -4):
            with pytest.raises(ValueError, match="pole"):
                gamma_half(k2)

    def test_gamma_half_negative_half_integers(self):
        assert gamma_half(-1) == ExactCoeff.sqrt_pi(-2)                 # Gamma(-1/2)
        assert gamma_half(-3) == ExactCoeff.sqrt_pi(Fraction(4, 3))     # Gamma(-3/2)
        assert float(gamma_half(-5)) == pytest.approx(math.gamma(-2.5), rel=1e-15)

    def test_exact_coeff_arithmetic(self):
        a = ExactCoeff.sqrt_pi(Fraction(1, 2))
        assert float(a * a) == pytest.approx(math.pi / 4, rel=1e-15)
        assert (a * a).parts == ((2, Fraction(1, 4)),)
        assert (a - a).is_zero
        assert str(a) == "1/2*sqrt(pi)"
        assert str(a * a) == "1/4*pi"
        with pytest.raises(ValueError):
            (a + ExactCoeff.from_rational(1)).as_fraction()

    def test_float_operand_demotes_to_float(self):
        a = ExactCoeff.sqrt_pi(Fraction(1, 2))
        for got, want in ((a * 0.5, float(a) * 0.5), (0.5 * a, 0.5 * float(a)),
                          (a + 0.25, float(a) + 0.25), (a - 1.0, float(a) - 1.0),
                          (a / 4.0, float(a) / 4.0), (2.0 / a, 2.0 / float(a))):
            assert type(got) is float and got == want

    def test_rational_operand_stays_exact(self):
        a = ExactCoeff.sqrt_pi(Fraction(1, 2))
        assert a * 2 == ExactCoeff.sqrt_pi(1)
        assert a - 1 == ExactCoeff._make({0: Fraction(-1), 1: Fraction(1, 2)})
        assert a / a == ExactCoeff.from_rational(1)
        assert Fraction(1, 2) / a == ExactCoeff._make({-1: Fraction(1)})
        with pytest.raises(ValueError):
            a / (a + 1)
        with pytest.raises(ZeroDivisionError):
            a / 0


class TestExpansionType:
    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AsymptoticExpansion(1, (
                ExpansionTerm(Fraction(0), 0, 1.0),
                ExpansionTerm(Fraction(0), 0, 2.0),
            ))

    def test_log_power_restricted(self):
        with pytest.raises(ValueError):
            ExpansionTerm(Fraction(0), 2, 1.0)

    def test_undetermined_carries_no_coefficient(self):
        with pytest.raises(ValueError):
            ExpansionTerm(Fraction(1), 0, 1.0, "undetermined")

    def test_heat_constructor_exponents(self):
        e = heat_expansion(1, [1, 2, 3])
        assert [tm.exponent for tm in e.terms] == [Fraction(-1, 2), Fraction(0), Fraction(1, 2)]

    def test_json_serialization(self):
        e = heat_expansion(1, [SQRT_PI_HALF, Fraction(-1, 2), 0.25])
        doc = expansion_to_json(e)
        assert doc["dim"] == 1
        assert doc["terms"][0] == {"p": "-1/2", "q": 0, "c": "1/2*sqrt(pi)", "status": "known"}
        assert doc["terms"][1]["c"] == "-1/2"
        assert doc["terms"][2]["c"] == 0.25


class TestHeatToCylinder:
    def test_interval_first_coefficients(self):
        heat = heat_expansion(1, [SQRT_PI_HALF, Fraction(-1, 2), Fraction(0)])
        cyl = heat_to_cylinder(heat)
        assert cyl.term(-1).coefficient == ExactCoeff.from_rational(1)
        assert cyl.term(0).coefficient == ExactCoeff.from_rational(Fraction(-1, 2))

    def test_undetermined_marker_past_dimension(self):
        heat = heat_expansion(1, [SQRT_PI_HALF, Fraction(-1, 2), Fraction(0)])
        cyl = heat_to_cylinder(heat)
        assert cyl.term(1).status == "undetermined"
        assert cyl.term(1, 1).coefficient == ExactCoeff.from_rational(0)  # f_2 from b_2 = 0

    def test_float_coefficients_propagate(self):
        heat = heat_expansion(1, [0.8862269254527579, -0.5], status="fitted")
        cyl = heat_to_cylinder(heat)
        assert cyl.term(-1).coefficient == pytest.approx(1.0, abs=1e-15)
        assert cyl.term(0).coefficient == pytest.approx(-0.5, abs=1e-15)

    def test_rejects_log_input(self):
        bad = AsymptoticExpansion(1, (ExpansionTerm(Fraction(0), 1, 1.0),))
        with pytest.raises(ValueError):
            heat_to_cylinder(bad)


def diagonal(variable, d, coeffs, log_coeffs=()):
    """The expansion whose order-s terms come from riesz_to_trace at alpha = s,
    the diagonal relations: coeffs[s] is a_ss (lambda) or c_ss (omega) and
    log_coeffs[s] is d_ss."""
    terms = []
    for s, c in enumerate(coeffs):
        logs = [0] * s + [log_coeffs[s]] if s < len(log_coeffs) else []
        e = riesz_to_trace(variable, s, d, [None] * s + [c], logs)
        p = Fraction(s - d) if variable == "omega" else Fraction(s - d, 2)
        terms += [tm for tm in e.terms if tm.exponent == p]
    return AsymptoticExpansion(d, tuple(terms))


class TestRieszRelations:
    """riesz_to_trace at alpha = s: b_s = Gamma((d+s)/2+1) a_ss/s! and
    e_s = d!/s! (c_ss + psi(d+1) d_ss)."""

    def test_riesz_to_heat_diagonal(self):
        heat = diagonal("lambda", 1, [Fraction(1), Fraction(-1, 2)])
        assert heat.term(Fraction(-1, 2)).coefficient == SQRT_PI_HALF
        assert heat.term(0).coefficient == ExactCoeff.from_rational(Fraction(-1, 2))

    def test_riesz_to_heat_leading_any_dim(self):
        for d in (1, 2, 3, 5):
            heat = diagonal("lambda", d, [Fraction(1)])
            got = heat.term(Fraction(-d, 2)).coefficient
            assert float(got) == pytest.approx(math.gamma(d / 2 + 1), rel=1e-15)

    def test_riesz_to_cylinder_branches(self):
        cyl = diagonal("omega", 1, [Fraction(1), Fraction(-1, 2), Fraction(1, 6)], [0, 0, 0])
        assert cyl.term(-1).coefficient == ExactCoeff.from_rational(1)
        assert cyl.term(0).coefficient == ExactCoeff.from_rational(Fraction(-1, 2))
        assert cyl.term(1).coefficient == ExactCoeff.from_rational(Fraction(1, 12))
        assert cyl.term(1, 1).coefficient == ExactCoeff.from_rational(0)

    def test_zero_dss_means_zero_log_coefficients(self):
        cyl = diagonal("omega", 1, [1.0, 2.0, 0.5, 4.0], [0, 0, 0, 0])
        for tm in cyl.terms:
            if tm.log_power == 1:
                assert float(tm.coefficient) == 0.0

    def test_psi_enters_mixed_branch(self):
        # d=1, s=2: e_2 = (1/2)(e_22 + psi(2) d_22), psi(2) = 1 - gamma
        cyl = diagonal("omega", 1, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        psi2 = 1.0 - 0.5772156649015329
        assert float(cyl.term(1).coefficient) == pytest.approx(0.5 * psi2, rel=1e-12)

    def test_none_input_is_undetermined(self):
        heat = diagonal("lambda", 1, [None, 1.0])
        assert heat.term(Fraction(-1, 2)).status == "undetermined"
        assert heat.term(0).status == "fitted"
        # d=1, s=2: an undetermined d_22 leaves f_2 and e_2 undetermined
        cyl = diagonal("omega", 1, [1.0, 1.0, 1.0], [0, 0, None])
        assert cyl.term(1, 1).status == cyl.term(1).status == "undetermined"

    def test_round_trip_exactness(self):
        heat = diagonal("lambda", 1, [Fraction(1), Fraction(-1, 2), Fraction(0)])
        cyl = heat_to_cylinder(heat)
        assert cyl.term(-1).coefficient == ExactCoeff.from_rational(1)
        assert cyl.term(0).coefficient == ExactCoeff.from_rational(Fraction(-1, 2))
        assert cyl.term(1).status == "undetermined"


class TestExpansionAlgebra:
    def test_square_of_interval_heat(self):
        one_d = heat_expansion(1, [SQRT_PI_HALF, Fraction(-1, 2), Fraction(0)])
        sq = expansion_product(one_d, one_d)
        assert sq.dim == 2
        assert sq.term(-1).coefficient == ExactCoeff._make({2: Fraction(1, 4)})
        assert sq.term(Fraction(-1, 2)).coefficient == ExactCoeff.sqrt_pi(Fraction(-1, 2))
        assert sq.term(0).coefficient == ExactCoeff.from_rational(Fraction(1, 4))

    def test_identity_factor(self):
        a = heat_expansion(2, [Fraction(3), Fraction(5), Fraction(7)])
        # constant-1 expansion padded with zeros so no truncation bites
        one = AsymptoticExpansion(0, tuple(
            ExpansionTerm(Fraction(s, 2), 0, Fraction(1 if s == 0 else 0))
            for s in range(3)
        ))
        prod = expansion_product(a, one)
        assert prod.dim == 2
        for tm in a.terms:
            assert prod.term(tm.exponent).coefficient == ExactCoeff.from_rational(tm.coefficient)

    def test_truncation_to_common_order(self):
        a = heat_expansion(1, [Fraction(1), Fraction(1), Fraction(1)])
        b = heat_expansion(1, [Fraction(1)])
        prod = expansion_product(a, b)
        assert len(prod.terms) == 1
        assert prod.term(-1).coefficient == ExactCoeff.from_rational(1)

    def test_half_powers_become_integer_powers(self):
        # a factor carrying only odd powers of sqrt(t) squares onto the
        # integer-power lattice
        odd_ladder = heat_expansion(1, [SQRT_PI_HALF, Fraction(0), Fraction(1, 7)])
        sq = expansion_product(odd_ladder, odd_ladder)
        nonzero = [tm for tm in sq.terms
                   if not (isinstance(tm.coefficient, ExactCoeff) and tm.coefficient.is_zero)]
        assert nonzero and all(tm.exponent.denominator == 1 for tm in nonzero)

    def test_no_logs_created(self):
        one_d = heat_expansion(1, [SQRT_PI_HALF, Fraction(-1, 2)])
        assert not expansion_product(one_d, one_d).has_log_terms

    def test_rejects_log_inputs(self):
        bad = AsymptoticExpansion(1, (ExpansionTerm(Fraction(1), 1, 1.0),))
        good = heat_expansion(1, [Fraction(1)])
        with pytest.raises(ValueError):
            expansion_product(bad, good)

    def test_undetermined_factor_term_makes_its_products_undetermined(self):
        a = heat_expansion(1, [Fraction(1), None, Fraction(1)])
        prod = expansion_product(a, heat_expansion(1, [1, 1, 1]))
        assert prod.term(-1).coefficient == ExactCoeff.from_rational(1)
        assert prod.term(-1).status == "known"
        for p in (Fraction(-1, 2), Fraction(0)):
            assert prod.term(p).coefficient is None
            assert prod.term(p).status == "undetermined"


class TestExactCoeffEquality:
    @pytest.mark.parametrize("q", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)])
    def test_rational_equals_its_fraction(self, q):
        c = ExactCoeff.from_rational(q)
        assert c == q and q == c and c == Fraction(q)
        # equal values hash alike, so a rational coefficient finds its number
        assert hash(c) == hash(Fraction(q))
        assert {Fraction(q): "q"}[c] == "q"
        assert c != q + 1

    def test_dyadic_equals_its_float(self):
        assert ExactCoeff.from_rational(Fraction(-3, 4)) == -0.75
        assert ExactCoeff.from_rational(Fraction(1, 3)) != 1 / 3

    def test_pi_parts_equal_no_plain_number(self):
        c = ExactCoeff.sqrt_pi(2)
        assert c == ExactCoeff.sqrt_pi(2) and hash(c) == hash(ExactCoeff.sqrt_pi(2))
        assert c != 2 and c != float(c) and c != ExactCoeff.from_rational(2)
        assert c + 1 != 1 and (c - c) == 0


class TestDerivativeAndEnergy:
    def test_index_term_killed(self):
        cyl = cylinder_expansion(1, [Fraction(1), Fraction(-1, 2), Fraction(1, 12)])
        dcyl = expansion_derivative(cyl)
        assert dcyl.term(-1).coefficient == Fraction(0)

    def test_index_term_is_an_exact_zero(self):
        cyl = cylinder_expansion(1, [Fraction(1), Fraction(-1, 2), Fraction(1, 12)])
        zero = expansion_derivative(cyl).term(-1).coefficient
        assert isinstance(zero, ExactCoeff)
        assert zero == 0 and not zero and zero == ExactCoeff.from_rational(0)

    def test_index_term_killed_even_when_undetermined(self):
        cyl = AsymptoticExpansion(2, (
            ExpansionTerm(Fraction(-2), 0, Fraction(1)),
            ExpansionTerm(Fraction(0), 0, None, "undetermined"),
        ))
        dcyl = expansion_derivative(cyl)
        assert dcyl.term(-1).coefficient == Fraction(0)
        assert dcyl.term(-1).status == "known"

    def test_log_term_derivative(self):
        cyl = AsymptoticExpansion(1, (ExpansionTerm(Fraction(2), 1, Fraction(3)),))
        dcyl = expansion_derivative(cyl)
        assert dcyl.term(1, 1).coefficient == ExactCoeff.from_rational(6)
        assert dcyl.term(1, 0).coefficient == ExactCoeff.from_rational(3)

    def test_undetermined_power_term(self):
        cyl = AsymptoticExpansion(1, (ExpansionTerm(Fraction(2), 0, None, "undetermined"),))
        term = expansion_derivative(cyl).term(1, 0)
        assert term.coefficient is None and term.status == "undetermined"

    def test_undetermined_log_term(self):
        cyl = AsymptoticExpansion(1, (ExpansionTerm(Fraction(2), 1, None, "undetermined"),))
        dcyl = expansion_derivative(cyl)
        term = dcyl.term(1, 1)
        assert term.coefficient is None and term.status == "undetermined"
        assert dcyl.term(1, 0) is None

    def test_undetermined_power_term_absorbs_the_log_part(self):
        # 3 t^2 log t -> 6 t log t + 3 t, and the 3 t lands on the
        # derivative of the undetermined t^2 term
        cyl = AsymptoticExpansion(1, (
            ExpansionTerm(Fraction(2), 0, None, "undetermined"),
            ExpansionTerm(Fraction(2), 1, Fraction(3)),
        ))
        dcyl = expansion_derivative(cyl)
        assert dcyl.term(1, 1).coefficient == ExactCoeff.from_rational(6)
        term = dcyl.term(1, 0)
        assert term.coefficient is None and term.status == "undetermined"
        assert len(dcyl.terms) == 2

    def test_casimir_interval_value(self):
        cyl = cylinder_expansion(1, [Fraction(1), Fraction(-1, 2), Fraction(1, 12)])
        assert casimir_energy(cyl) == pytest.approx(-1.0 / 24.0, rel=1e-15)

    def test_casimir_zero(self):
        cyl = cylinder_expansion(1, [Fraction(1), Fraction(0), Fraction(0)])
        assert casimir_energy(cyl) == 0.0

    def test_casimir_requires_usable_term(self):
        shallow = cylinder_expansion(1, [Fraction(1), Fraction(-1, 2)])
        with pytest.raises(ValueError, match="fitted cylinder expansion"):
            casimir_energy(shallow)
        undet = AsymptoticExpansion(1, (
            ExpansionTerm(Fraction(-1), 0, Fraction(1)),
            ExpansionTerm(Fraction(1), 0, None, "undetermined"),
        ))
        with pytest.raises(ValueError, match="fitted cylinder expansion"):
            casimir_energy(undet)


# ---------------------------------------------------------------------------
# one formula for exact and fitted coefficients
# ---------------------------------------------------------------------------

_FRAC = st.fractions(min_value=Fraction(1, 1000), max_value=100, max_denominator=1000)
_FRACS = st.lists(_FRAC, min_size=1, max_size=5)


def _assert_one_formula(exact: AsymptoticExpansion, fitted: AsymptoticExpansion):
    """exact came from Fraction inputs, fitted from the same inputs floated:
    term for term, ExactCoeff "known" against float "fitted", equal to a few
    ulps (the inputs are positive, so no sum cancels)."""
    keys = [(tm.exponent, tm.log_power) for tm in exact.terms]
    assert keys == [(tm.exponent, tm.log_power) for tm in fitted.terms]
    for te, tf in zip(exact.terms, fitted.terms):
        if te.coefficient is None:
            assert tf.coefficient is None and te.status == tf.status == "undetermined"
            continue
        assert isinstance(te.coefficient, ExactCoeff) and te.status == "known"
        assert type(tf.coefficient) is float and tf.status == "fitted"
        want = float(te.coefficient)
        assert abs(tf.coefficient - want) <= 8 * math.ulp(want)


def _gamma(nu2: int) -> ExactCoeff:
    """Gamma(nu2/2) for nu2 >= 1, from the factorials: the reference the
    Gamma-ratio round trip checks riesz_to_trace against."""
    if nu2 % 2 == 0:
        return ExactCoeff.from_rational(math.factorial(nu2 // 2 - 1))
    m = (nu2 - 1) // 2
    return ExactCoeff.sqrt_pi(Fraction(math.factorial(2 * m), 4**m * math.factorial(m)))


def _psi(nu: int) -> float:
    return sum(1.0 / k for k in range(1, nu)) - 0.5772156649015329


class TestGammaRatio:
    """A Riesz mean of order alpha carries every order s <= alpha through
    R = Gamma(alpha+1)/Gamma(nu): a_(alpha,s) = b_s R with nu = alpha+(d-s)/2+1,
    c_(alpha,s) = e_s R - psi(nu) d_(alpha,s) and d_(alpha,s) = -f_s R with
    nu = alpha+d-s+1.  Going forward by these and back through riesz_to_trace
    gives the trace coefficients back: exactly, but for e_s beside a log term,
    which passes through the float psi(nu)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(d=st.integers(1, 3), b=_FRACS, extra=st.integers(0, 4))
    def test_lambda_round_trip(self, d, b, extra):
        alpha = len(b) - 1 + extra
        a = [bs * _gamma(2 * alpha + 2) / _gamma(2 * alpha + d - s + 2) for s, bs in enumerate(b)]
        heat = riesz_to_trace("lambda", alpha, d, a)
        assert [(tm.exponent, tm.log_power) for tm in heat.terms] == \
            [(Fraction(s - d, 2), 0) for s in range(len(b))]
        assert [tm.coefficient for tm in heat.terms] == [ExactCoeff.from_rational(x) for x in b]
        assert {tm.status for tm in heat.terms} == {"known"}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(d=st.integers(1, 3), e=_FRACS, f=_FRACS, extra=st.integers(0, 4))
    def test_omega_round_trip(self, d, e, f, extra):
        alpha = len(e) - 1 + extra
        f = [f[s % len(f)] if _carries_log(s, d) else 0 for s in range(len(e))]
        ratio = [_gamma(2 * alpha + 2) / _gamma(2 * (alpha + d - s + 1)) for s in range(len(e))]
        logs = [-fs * r for fs, r in zip(f, ratio)]
        c = [es * r if not fs else es * r - _psi(alpha + d - s + 1) * dv
             for s, (es, fs, r, dv) in enumerate(zip(e, f, ratio, logs))]
        cyl = riesz_to_trace("omega", alpha, d, c, logs)
        for s, (es, fs) in enumerate(zip(e, f)):
            p = Fraction(s - d)
            got = cyl.term(p, 0).coefficient
            if not _carries_log(s, d):
                assert cyl.term(p, 1) is None
                assert got == ExactCoeff.from_rational(es)
                continue
            assert cyl.term(p, 1).coefficient == ExactCoeff.from_rational(fs)
            # c_(alpha,s) + psi(nu) d_(alpha,s) = e_s R loses to cancellation
            # at most a few ulps of psi(nu) f_s <= 3 f_s (nu <= 12)
            assert type(got) is float
            assert abs(got - float(es)) <= 16 * math.ulp(float(es) + 3 * float(fs))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_energy_is_the_x_to_the_minus_one_coefficient(self, d):
        # at s = d+1, R = alpha!/(alpha-1)! = alpha, so E = -e_(d+1)/2 = -c/(2 alpha)
        alpha = d + 3
        c = Fraction(-7, 5)
        cyl = riesz_to_trace("omega", alpha, d, [0] * (d + 1) + [c])
        assert casimir_energy(cyl) == -float(c / (2 * alpha))
        assert cyl.term(1).coefficient == ExactCoeff.from_rational(c / alpha)

    def test_interval_at_order_four(self):
        # the Dirichlet interval of length pi: e = 1, -1/2, 1/12 gives
        # c_(4,s) = e_s 4!/(5-s)! = 1/5, -1/2, 1/3, and E = -c_(4,2)/8 = -1/24
        cyl = riesz_to_trace("omega", 4, 1, [Fraction(1, 5), Fraction(-1, 2), Fraction(1, 3)])
        assert [tm.coefficient for tm in cyl.terms if tm.log_power == 0] == \
            [ExactCoeff.from_rational(x) for x in (1, Fraction(-1, 2), Fraction(1, 12))]
        assert casimir_energy(cyl) == pytest.approx(-1.0 / 24.0, rel=1e-15)

    @pytest.mark.parametrize("variable, alpha, coeffs", [
        ("heat", 2, [1.0]), ("lambda", 1, [1.0, 2.0, 3.0]), ("omega", -1, []),
        ("omega", 0, [1.0, 2.0]),
    ])
    def test_refusals(self, variable, alpha, coeffs):
        with pytest.raises(ValueError):
            riesz_to_trace(variable, alpha, 1, coeffs)


class TestOneFormula:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(d=st.integers(1, 4), b=_FRACS)
    def test_heat_to_cylinder(self, d, b):
        _assert_one_formula(heat_to_cylinder(heat_expansion(d, b)),
                            heat_to_cylinder(heat_expansion(d, [float(x) for x in b], "fitted")))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(d=st.integers(1, 4), a=_FRACS, extra=st.integers(0, 3))
    def test_riesz_to_heat(self, d, a, extra):
        alpha = len(a) - 1 + extra
        _assert_one_formula(riesz_to_trace("lambda", alpha, d, a),
                            riesz_to_trace("lambda", alpha, d, [float(x) for x in a]))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(d=st.integers(1, 4), c=_FRACS, extra=st.integers(0, 3))
    def test_riesz_to_cylinder(self, d, c, extra):
        # a zero log coefficient keeps the mixed branch exact; the float twin is 0.0
        alpha = len(c) - 1 + extra
        _assert_one_formula(riesz_to_trace("omega", alpha, d, c, [0] * len(c)),
                            riesz_to_trace("omega", alpha, d, [float(x) for x in c],
                                           [0.0] * len(c)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(d1=st.integers(0, 2), d2=st.integers(1, 2), a=_FRACS, b=_FRACS)
    def test_expansion_product(self, d1, d2, a, b):
        def floated(e):
            return heat_expansion(e.dim, [float(tm.coefficient) for tm in e.terms], "fitted")
        ea, eb = heat_expansion(d1, a), heat_expansion(d2, b)
        _assert_one_formula(expansion_product(ea, eb), expansion_product(floated(ea), floated(eb)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(d=st.integers(1, 3), c=_FRACS, f=_FRAC)
    def test_expansion_derivative(self, d, c, f):
        def cyl(coeffs, flog, status):
            # power terms plus a log term at t^1, which feeds the t^0 power term
            terms = [ExpansionTerm(s - d, 0, x, status) for s, x in enumerate(coeffs)]
            return AsymptoticExpansion(d, tuple(terms) + (ExpansionTerm(1, 1, flog, status),))
        exact = expansion_derivative(cyl(c, f, "known"))
        fitted = expansion_derivative(cyl([float(x) for x in c], float(f), "fitted"))
        # the killed index term, present once s = d is, is an exact zero for
        # either input
        def without_index(e):
            index = e.term(-1)
            assert (index is None) == (len(c) <= d)
            if index is not None:
                assert index.coefficient == 0 and index.status == "known"
            return AsymptoticExpansion(d, tuple(tm for tm in e.terms if tm is not index))
        _assert_one_formula(without_index(exact), without_index(fitted))


class TestParityRule:
    """Order s of a d-dimensional expansion carries a log term exactly where
    s - d is odd and positive: in the cylinder fit's log candidates, in the heat ->
    cylinder map (log and undetermined power terms) and in the Riesz ->
    cylinder map."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_log_orders_follow_the_rule(self, d):
        from spectrace.invariants import _carries_log
        from spectrace.riesz import _log_exponents
        orders = range(2 * d + 4)
        want = {s for s in orders if s > d and (s - d) % 2 == 1}
        assert {s for s in orders if _carries_log(s, d)} == want
        assert {int(p) + d for p in _log_exponents(d, orders[-1])} == want
        cyl = heat_to_cylinder(heat_expansion(d, [Fraction(1)] * len(orders)))
        assert {int(tm.exponent) + d for tm in cyl.terms if tm.log_power == 1} == want
        assert {int(tm.exponent) + d for tm in cyl.terms if tm.status == "undetermined"} == want
        rc = riesz_to_trace("omega", orders[-1], d, [1.0] * len(orders), [1.0] * len(orders))
        assert {int(tm.exponent) + d for tm in rc.terms if tm.log_power == 1} == want
