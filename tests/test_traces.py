import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from spectrace import (
    ToleranceError,
    finite_spectrum,
    geometric_grid,
    heat_diagonal_interval,
    interval_spectrum,
    load_spectrum,
    product_spectrum,
    torus_spectrum,
    trace_grid,
)
from spectrace import spectra, traces
from spectrace.spectra import Spectrum
from spectrace.traces import _X_STEP, _certify, _cutoff, _tail_bound, _upper_gamma_half

PI = math.pi
INTERVAL = interval_spectrum(PI, "dirichlet")
NEUMANN = interval_spectrum(PI, "neumann")
TORUS = torus_spectrum(2 * PI)  # omega_n = n twice over, plus omega_0 = 0


def theta_heat(t):
    # sum_{n>=1} e^{-t n^2} by Poisson summation; the image correction is
    # far below 1e-15 for t <= 0.5
    return 0.5 * (math.sqrt(PI / t) - 1.0) + math.sqrt(PI / t) * math.exp(-PI * PI / t)


class TestHeatTrace:
    def test_against_theta_oracle(self):
        s = trace_grid(INTERVAL, "heat", [0.01], 1e-13)[0]
        assert abs(s.value - theta_heat(0.01)) < 1e-12
        assert s.tail_bound <= 1e-13
        assert s.certified

    @pytest.mark.parametrize("t", [1e-4, 1e-3, 1e-2, 0.1])
    def test_oracle_window(self, t):
        s = trace_grid(INTERVAL, "heat", [t], 1e-12)[0]
        assert abs(s.value - theta_heat(t)) < 1e-10

    def test_single_zero_mode(self):
        s = finite_spectrum(1, [(0.0, 1)])
        assert trace_grid(s, "heat", [3.7])[0].value == 1.0
        assert trace_grid(s, "heat", [3.7])[0].tail_bound == 0.0

    def test_torus_large_time(self):
        s = trace_grid(torus_spectrum(2 * PI), "heat", [1e6], 1e-15)[0]
        assert abs(s.value - 1.0) <= 1e-15

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            trace_grid(INTERVAL, "heat", [0.0])
        with pytest.raises(ValueError):
            trace_grid(INTERVAL, "heat", [-1.0])


class TestCylinderTrace:
    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_geometric_series_oracle(self, t):
        s = trace_grid(INTERVAL, "cylinder", [t], 1e-13)[0]
        assert abs(s.value - 1.0 / math.expm1(t)) < 1e-12

    def test_triple_zero_mode(self):
        s = finite_spectrum(1, [(0.0, 3)])
        assert trace_grid(s, "cylinder", [0.123])[0].value == 3.0

    def test_scaled_interval(self):
        s = interval_spectrum(2.0, "dirichlet")
        got = trace_grid(s, "cylinder", [0.7], 1e-13)[0].value
        assert got == pytest.approx(1.0 / math.expm1(0.7 * PI / 2.0), abs=1e-12)


class TestCylinderDerivative:
    def test_analytic_derivative_oracle(self):
        s = trace_grid(INTERVAL, "dcylinder", [0.5], 1e-13)[0]
        expect = -math.exp(0.5) / math.expm1(0.5) ** 2
        assert abs(s.value - expect) < 1e-12

    def test_zero_mode_contributes_nothing(self):
        s = finite_spectrum(1, [(0.0, 1)])
        assert trace_grid(s, "dcylinder", [2.0])[0].value == 0.0

    def test_values_negative_for_real_spectra(self):
        for t in [0.2, 1.0, 5.0]:
            assert trace_grid(INTERVAL, "dcylinder", [t])[0].value < 0.0

    def test_fitted_constant_term_is_one_twelfth(self):
        # the t^0 coefficient of dTrT/dt carries the vacuum-energy invariant
        from spectrace import dcylinder_basis, fit_expansion
        ts = geometric_grid(1e-3, 0.1, 48)
        values = [s.value for s in trace_grid(INTERVAL, "dcylinder", ts, 1e-13)]
        fit = fit_expansion(ts, values, dcylinder_basis(1, 5))
        assert fit.coefficient(0, 0) == pytest.approx(1.0 / 12.0, abs=1e-6)


class TestCertification:
    def test_tail_bound_respected_under_refinement(self):
        for kind in ("heat", "cylinder", "dcylinder"):
            coarse = trace_grid(INTERVAL, kind, [0.05], tol=1e-6)[0]
            fine = trace_grid(INTERVAL, kind, [0.05], tol=1e-12)[0]
            assert abs(coarse.value - fine.value) <= coarse.tail_bound

    def test_monotone_decreasing_in_t(self):
        ts = geometric_grid(1e-3, 10.0, 25)
        for kind in ("heat", "cylinder"):
            vals = [smp.value for smp in trace_grid(INTERVAL, kind, ts, 1e-12)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_product_rule_semigroup(self):
        sq = product_spectrum(INTERVAL, INTERVAL)
        eps = 2.0**-52
        for t in geometric_grid(0.02, 1.0, 8):
            s2 = trace_grid(sq, "heat", [t], 1e-12)[0]
            s1 = trace_grid(INTERVAL, "heat", [t], 1e-12)[0]
            combined = s2.tail_bound + 2 * abs(s1.value) * s1.tail_bound + s1.tail_bound**2
            # tail bounds cover truncation only; allow a few ulps of roundoff
            roundoff = 8 * eps * (abs(s2.value) + s1.value**2 + 1.0)
            assert abs(s2.value - s1.value**2) <= combined + roundoff

    UNIT = interval_spectrum(1.0, "dirichlet")
    CIRCLE = torus_spectrum(1.0)

    # the unit Dirichlet cube, a nested product with 21% odd pairs at t = 0.03,
    # takes the index-sort path; the flat torus, a circle times itself, pairs
    # each unordered pair once and its zero mode makes odd pairs
    @pytest.mark.parametrize("spectrum, tmin, closed_form", [
        (product_spectrum(product_spectrum(UNIT, UNIT), UNIT), 0.03,
         lambda t: math.fsum(math.exp(-t * PI**2 * n * n) for n in range(1, 100)) ** 3),
        (product_spectrum(CIRCLE, CIRCLE), 0.01,
         lambda t: (1 + 2 * math.fsum(math.exp(-t * (2 * PI * n) ** 2)
                                      for n in range(1, 100))) ** 2),
    ], ids=["cube", "flat-torus"])
    def test_product_heat_trace_matches_its_closed_form(self, spectrum, tmin, closed_form):
        for smp in trace_grid(spectrum, "heat", geometric_grid(tmin, 10 * tmin, 8), 1e-12):
            exact = closed_form(smp.t)
            assert abs(exact - smp.value) <= smp.tail_bound + 1e-14 * exact

    @pytest.mark.parametrize("a2", [1, 2, 3, 4])
    def test_upper_gamma_is_zero_past_exp_underflow(self, a2):
        # exp(-x) underflows from x = 745 on; below it the recurrence runs
        assert _upper_gamma_half(a2, 745.0) == 0.0
        assert _upper_gamma_half(a2, 1e300) == 0.0
        assert 0.0 < _upper_gamma_half(a2, 700.0) < 1e-300

    def test_budget_exhaustion_reports_achieved_bound(self, monkeypatch):
        monkeypatch.setattr(spectra, "DEFAULT_MAX_TERMS", 100)
        with pytest.raises(ToleranceError) as err:
            trace_grid(INTERVAL, "heat", [1e-6], 1e-300)
        assert err.value.achieved_bound > 1e-300
        assert err.value.terms_used <= 100

    @pytest.mark.parametrize("kind", ["heat", "cylinder", "dcylinder"],
                             ids=["heat_trace", "cylinder_trace", "cylinder_trace_derivative"])
    def test_budget_is_not_a_parameter(self, kind):
        with pytest.raises(TypeError):
            trace_grid(INTERVAL, kind, [1e-3], 1e-12, max_terms=100)

    @pytest.mark.parametrize("kind", ["heat", "cylinder", "dcylinder"])
    def test_budget_no_credit_can_meet_raises_before_enumerating(self, monkeypatch, kind):
        # at t = 1e-300 even the envelope's whole count up to the budget's
        # cutoff leaves a tail bound far above tol, so the trace raises
        # without building the 10^7 terms the budget would pay for
        def refuse(self, omega_max):
            raise AssertionError(f"enumerated up to {omega_max:g}")

        monkeypatch.setattr(Spectrum, "arrays", refuse)
        monkeypatch.setattr(spectra, "DEFAULT_MAX_TERMS", 10**7)
        with pytest.raises(ToleranceError) as err:
            trace_grid(interval_spectrum(1.0, "dirichlet"), kind, [1e-300], 1.0)
        assert err.value.terms_used == 0
        assert err.value.achieved_bound > 1.0
        assert "term budget exhausted" in str(err.value)

    def test_loaded_without_envelope_warns_nan(self, tmp_path):
        p = tmp_path / "trunc.txt"
        p.write_text("dim 1\n" + "\n".join(f"{n} 1" for n in range(1, 200)) + "\n")
        s = load_spectrum(p)
        with pytest.warns(UserWarning, match="envelope") as record:
            sample = trace_grid(s, "cylinder", [0.5])[0]
        # the warning names trace_grid's caller
        assert [w.filename for w in record] == [__file__]
        assert math.isnan(sample.tail_bound)
        assert not sample.certified
        assert sample.value == pytest.approx(1.0 / math.expm1(0.5), abs=1e-10)

    def test_loaded_with_envelope_certifies(self, tmp_path):
        p = tmp_path / "trunc.txt"
        p.write_text("dim 1\nenvelope 0 1\n" +
                     "\n".join(f"{n} 1" for n in range(1, 200)) + "\n")
        s = load_spectrum(p)
        sample = trace_grid(s, "cylinder", [0.5], 1e-10)[0]
        assert sample.certified
        assert abs(sample.value - 1.0 / math.expm1(0.5)) <= 1e-10

    def test_loaded_with_envelope_refuses_unreachable_tol(self, tmp_path):
        p = tmp_path / "trunc.txt"
        p.write_text("dim 1\nenvelope 0 1\n1 1\n2 1\n3 1\n")
        s = load_spectrum(p)
        with pytest.raises(ToleranceError):
            trace_grid(s, "cylinder", [0.5], 1e-12)


class TestHeatDiagonal:
    def test_interior_point_free_limit(self):
        val = heat_diagonal_interval(1e-3, PI / 2)
        assert math.sqrt(4 * PI * 1e-3) * val == pytest.approx(1.0, abs=1e-4)

    def test_boundary_image_deficit(self):
        # near the wall the free-space value is suppressed by ~ 1 - e^{-x^2/t}
        t, x = 1e-4, 0.01
        val = heat_diagonal_interval(t, x)
        ratio = math.sqrt(4 * PI * t) * val
        assert ratio == pytest.approx(1.0 - math.exp(-x * x / t), abs=1e-3)
        assert abs(ratio - 1.0) > 0.25

    def test_reflection_symmetry(self):
        for x in [0.3, 1.0, 1.4]:
            a = heat_diagonal_interval(0.02, x)
            b = heat_diagonal_interval(0.02, PI - x)
            assert a == pytest.approx(b, rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            heat_diagonal_interval(0.1, 0.0)
        with pytest.raises(ValueError):
            heat_diagonal_interval(0.1, PI)

    def test_matches_a_longer_fsum(self):
        # the 6,708 terms it sums leave a tail far below an ulp, so the sum
        # is the correctly rounded sum out to 30,000 terms within the
        # summation policy's bound, 64 * 2^-52 * sum|term| plus an ulp of
        # each term for np.exp's last bit, and the rounding of 2/pi times it
        t, x = 1e-6, 1.0
        terms = [math.sin(n * x) ** 2 * math.exp(-t * n * n) for n in range(1, 30_000)]
        total = math.fsum(terms)
        slack = 64 * 2.0**-52 * total + math.fsum(map(math.ulp, terms))
        got = heat_diagonal_interval(t, x)
        assert abs(got - (2.0 / PI) * total) <= (2.0 / PI) * slack + math.ulp(got)

    @pytest.mark.parametrize("t", [1e-7, 3e-6, 1e-4, 0.01, 0.5, 10.0])
    def test_matches_the_per_term_sum(self, t):
        # the generator form the array chunks replaced: math.exp a term at a
        # time, one fsum; np.exp may differ from math.exp in the last bit
        m = max(8, int(math.sqrt(45.0 / t)))
        for x in (1e-3, 0.3, 1.0, PI / 2, 2.9):
            ref = (2.0 / PI) * math.fsum(
                math.sin(n * x) ** 2 * math.exp(-t * n * n) for n in range(1, m + 1))
            assert heat_diagonal_interval(t, x) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_last_t_inside_the_budget_is_fast(self):
        # 9.5 million terms, in 145 array chunks
        start = time.perf_counter()
        val = heat_diagonal_interval(5e-13, 1.0)
        assert time.perf_counter() - start < 1.0
        assert math.sqrt(4 * PI * 5e-13) * val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("t", [1e-14, 5e-324])
    def test_past_the_term_budget_raises_at_once(self, t):
        # floor(sqrt(45 / t)) terms: 6.7e7 at t = 1e-14, inf at the smallest subnormal
        start = time.perf_counter()
        with pytest.raises(ToleranceError, match="term budget exhausted") as err:
            heat_diagonal_interval(t, 1.0)
        assert time.perf_counter() - start < 0.1
        assert err.value.terms_used == 0

    def test_term_budget_is_the_one_constant(self, monkeypatch):
        # at t = 1e-4 the sum takes floor(sqrt(45e4)) = 670 terms
        monkeypatch.setattr(spectra, "DEFAULT_MAX_TERMS", 669)
        with pytest.raises(ToleranceError):
            heat_diagonal_interval(1e-4, 1.0)
        monkeypatch.setattr(spectra, "DEFAULT_MAX_TERMS", 670)
        assert heat_diagonal_interval(1e-4, 1.0) > 0.0


class TestGrid:
    def test_grid_preserves_order_and_kind(self):
        ts = geometric_grid(1e-2, 1.0, 7)
        out = trace_grid(INTERVAL, "cylinder", ts, 1e-12)
        assert [s.t for s in out] == ts
        assert trace_grid(INTERVAL, "cylinder", ts, 1e-12) == out  # deterministic

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            trace_grid(INTERVAL, "wave", [0.1])


def theta_sum(t):
    """sum_{n>=1} e^{-t n^2}: the Poisson-dual theta sum below t = 1, where
    the direct sum is long, and the direct sum above, where the dual cancels."""
    if t < 1.0:
        dual = math.fsum(math.exp(-PI * PI * k * k / t) for k in range(1, 40))
        return 0.5 * (math.sqrt(PI / t) * (1.0 + 2.0 * dual) - 1.0)
    return math.fsum(math.exp(-t * n * n) for n in range(1, 40))


# closed forms over omega_n = n (n >= 1), scaled by the multiplicity and
# shifted by the zero mode: sum e^{-t n} = 1/(e^t - 1) and its t-derivative
# -1/(4 sinh^2(t/2)); the zero mode adds 1 to heat and cylinder, 0 to dcylinder
CLOSED_FORMS = {
    "heat": theta_sum,
    "cylinder": lambda t: 1.0 / math.expm1(t),
    "dcylinder": lambda t: -0.25 / math.sinh(0.5 * t) ** 2,
}
SPECTRA = {"dirichlet": (INTERVAL, 1, 0), "neumann": (NEUMANN, 1, 1), "torus": (TORUS, 2, 1)}


class TestSolvedCutoff:
    def test_sums_far_fewer_terms(self):
        # a fixed first cutoff at x = 45 + ln(1/tol) summed 74,933 terms here
        s = trace_grid(INTERVAL, "cylinder", [1e-3], 1e-13)[0]
        assert s.terms_used <= 45_000
        assert s.tail_bound <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(CLOSED_FORMS)), st.sampled_from(sorted(SPECTRA)),
           st.floats(min_value=1e-4, max_value=10.0),
           st.floats(min_value=-14.0, max_value=-4.0))
    def test_bound_covers_the_closed_form(self, kind, name, t, log_tol):
        spectrum, mult, zero_mode = SPECTRA[name]
        tol = 10.0 ** log_tol
        exact = mult * CLOSED_FORMS[kind](t) + (zero_mode if kind != "dcylinder" else 0)
        sample = trace_grid(spectrum, kind, [t], tol)[0]
        assert sample.tail_bound <= tol
        assert abs(sample.value - exact) <= sample.tail_bound + 32 * math.ulp(exact)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["heat", "cylinder", "dcylinder"]), st.integers(1, 3),
           st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=1e-4, max_value=10.0), st.floats(min_value=-14.0, max_value=-2.0))
    def test_cutoff_is_the_smallest_that_certifies(self, kind, d, c1, c2, t, log_tol):
        tol = 10.0 ** log_tol
        w = _cutoff(kind, t, tol, c1, c2, d)
        assert _tail_bound(kind, t, w, 0.0, c1, c2, d) <= tol
        x_below = (t * w * w if kind == "heat" else t * w) - 2 * _X_STEP
        if x_below >= (2.0 if kind == "dcylinder" else 0.0):
            w_below = math.sqrt(x_below / t) if kind == "heat" else x_below / t
            assert _tail_bound(kind, t, w_below, 0.0, c1, c2, d) > tol

    @pytest.mark.parametrize("kind", ["heat", "cylinder", "dcylinder"])
    @pytest.mark.parametrize("spectrum", [INTERVAL, NEUMANN, TORUS,
                                          product_spectrum(NEUMANN, TORUS)],
                             ids=["dirichlet", "neumann", "torus", "product"])
    def test_each_trace_enumerates_once(self, monkeypatch, kind, spectrum):
        calls = []
        arrays = Spectrum.arrays

        def counted(self, omega_max):
            calls.append(self)
            return arrays(self, omega_max)

        monkeypatch.setattr(Spectrum, "arrays", counted)
        # a product's heat trace enumerates each factor once and never the
        # product; its other kernels enumerate the product once (and the
        # product, when not cached, its factors)
        factors = spectrum.factors if kind == "heat" and spectrum.factors else ()
        for t in (0.2, 1.0, 10.0):
            for tol in (1e-14, 1e-8, 1e-3):
                calls.clear()
                sample = trace_grid(spectrum, kind, [t], tol)[0]
                assert sum(1 for s in calls if s is spectrum) == (0 if factors else 1)
                for factor in factors:
                    assert sum(1 for s in calls if s is factor) == 1
                assert sample.tail_bound <= tol


KINDS = ["cylinder", "dcylinder", "heat"]
# data that end at omega = 60 under a Weyl envelope: small t cannot certify
ENDING = finite_spectrum(1, [(float(n), 1 + n % 3) for n in range(1, 61)], envelope=(0.0, 2.0))


class TestKernelTuples:
    """trace_grid certifies every point of its kernel first and then sums
    them; each sample is its one-point grid's."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([INTERVAL, NEUMANN, TORUS, product_spectrum(NEUMANN, TORUS), ENDING,
                            product_spectrum(ENDING, NEUMANN)]),
           st.sampled_from(KINDS),
           st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=6),
           st.floats(min_value=-14.0, max_value=-2.0), st.integers(0, 4))
    def test_equals_the_point_traces(self, spectrum, kind, ts, log_tol, bad):
        tol = 10.0 ** log_tol
        if bad == 0:
            ts = ts + [0.0]  # a time no trace takes: ValueError

        def point(t):
            try:
                return trace_grid(spectrum, kind, [t], tol)[0]
            except (ValueError, ToleranceError) as exc:
                return type(exc), str(exc)

        want = [point(t) for t in ts]
        errors = [w for w in want if isinstance(w, tuple)]
        if errors:
            # the first point in grid order that cannot certify
            with pytest.raises(errors[0][0]) as err:
                trace_grid(spectrum, kind, ts, tol)
            assert str(err.value) == errors[0][1]
            return
        got = trace_grid(spectrum, kind, ts, tol)
        assert [(g.t, g.value.hex(), g.tail_bound, g.terms_used) for g in got] \
            == [(w.t, w.value.hex(), w.tail_bound, w.terms_used) for w in want]

    def test_a_point_that_fails_first_wins_over_a_wider_failing_enumeration(
            self, monkeypatch):
        # at t = 5.6 the cutoff is capped by the budget and misses tol with
        # the 4 terms it credits; at t = 1e-3 the data end and enumerating
        # them needs 348 pairs, over the budget: the grid raises t = 5.6's
        # error, as the point traces come in that order
        monkeypatch.setattr(spectra, "DEFAULT_MAX_TERMS", 50)
        a = finite_spectrum(1, [(float(n), 1) for n in range(1, 31)], envelope=(0.0, 2.0))
        ts = [5.623413251903491, 1e-3]
        with pytest.raises(ToleranceError, match="enumerating up to omega = 30.0"):
            trace_grid(product_spectrum(a, a), "cylinder", [ts[1]], 1e-7)
        with pytest.raises(ToleranceError) as point:
            trace_grid(product_spectrum(a, a), "cylinder", [ts[0]], 1e-7)
        with pytest.raises(ToleranceError) as grid:
            trace_grid(product_spectrum(a, a), "cylinder", ts, 1e-7)
        assert str(grid.value) == str(point.value)
        assert "before reaching tol=1e-07" in str(grid.value)

    def test_no_times(self):
        for kind in KINDS:
            assert trace_grid(INTERVAL, kind, []) == []

    def test_unknown_kernel_is_refused_before_any_point(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            trace_grid(INTERVAL, "wave", [-1.0])


@st.composite
def leaf_spectra(draw):
    """An interval, a torus, or a finite list whose envelope is its total
    count C1 with C2 = 0 or 1, either of which bounds its counting function."""
    kind = draw(st.sampled_from(["interval", "torus", "finite"]))
    if kind == "interval":
        return interval_spectrum(draw(st.floats(0.5, 3.0)),
                                 draw(st.sampled_from(["dirichlet", "neumann"])))
    if kind == "torus":
        return torus_spectrum(draw(st.floats(0.5, 3.0)))
    omegas = sorted(draw(st.lists(st.floats(0.0, 40.0), min_size=1, max_size=25)))
    terms = [(w, draw(st.integers(1, 3))) for w in omegas]
    total = float(sum(m for _, m in terms))
    weyl = draw(st.booleans())
    return finite_spectrum(1, terms, envelope=(total, 1.0) if weyl else None)


@st.composite
def product_spectra(draw):
    """A product of two leaves, or a nested one of three, either way round."""
    a, b = draw(leaf_spectra()), draw(leaf_spectra())
    if draw(st.booleans()):
        return product_spectrum(a, b)
    c = draw(leaf_spectra())
    if draw(st.booleans()):
        return product_spectrum(product_spectrum(a, b), c)
    return product_spectrum(a, product_spectrum(b, c))


class TestProductHeat:
    """A product's heat trace is K_A(t) K_B(t), formed from its factors'
    heat grids without enumerating the product."""

    @settings(max_examples=150, deadline=None)
    @given(product_spectra(), st.floats(min_value=0.02, max_value=10.0),
           st.floats(min_value=-14.0, max_value=-4.0))
    def test_matches_the_sum_over_the_products_own_terms(self, spectrum, t, log_tol):
        tol = 10.0 ** log_tol
        # the product's own terms up to its direct cutoff, summed by fsum
        points, omegas, mults, failure = _certify(spectrum, "heat", [t], [tol],
                                                  spectra.DEFAULT_MAX_TERMS)
        if failure is not None:
            return  # the product's own envelope cannot certify this t
        (_, direct_bound, k), = points
        direct = math.fsum(m * math.exp(-t * w * w)
                           for w, m in zip(omegas[:k].tolist(), mults[:k].tolist()))
        sample = trace_grid(spectrum, "heat", [t], tol)[0]
        assert sample.tail_bound <= tol
        # both bounds cover truncation only; the sums' rounding, documented
        # as at most 64 eps a factor, stays within a few ulps here
        assert abs(sample.value - direct) <= (sample.tail_bound + direct_bound
                                              + 16 * math.ulp(direct))

    def test_unit_dirichlet_4_box(self):
        # its own enumeration would pass the term budget at t = 1e-3; each
        # factor needs about 60 terms
        unit = interval_spectrum(1.0, "dirichlet")
        box = unit
        for _ in range(3):
            box = product_spectrum(box, unit)
        t = 1e-3
        sample = trace_grid(box, "heat", [t])[0]
        exact = math.fsum(math.exp(-PI * PI * n * n * t) for n in range(1, 200)) ** 4
        assert abs(sample.value - exact) <= sample.tail_bound + 1e-14 * exact
        assert sample.terms_used < 1000

    def test_equal_labels_with_different_terms_share_no_grid(self):
        # two finite lists under one label of the caller's choice, envelope
        # and end compare equal as spectra; their product is still K_A K_B
        a = finite_spectrum(1, [(1.0, 1), (3.0, 1)], label="list")
        b = finite_spectrum(1, [(2.0, 1), (3.0, 1)], label="list")
        assert a == b
        t = 0.1
        sample = trace_grid(product_spectrum(a, b), "heat", [t])[0]
        ka = math.exp(-t) + math.exp(-9 * t)
        kb = math.exp(-4 * t) + math.exp(-9 * t)
        assert sample.value == pytest.approx(ka * kb, rel=1e-14)

    def test_an_unreachable_factor_names_the_products_tol(self, monkeypatch):
        # the factor's bound carried up: times the other factor's envelope trace
        monkeypatch.setattr(spectra, "DEFAULT_MAX_TERMS", 100)
        square = product_spectrum(INTERVAL, INTERVAL)
        with pytest.raises(ToleranceError, match=r"term budget exhausted before reaching "
                                                 r"tol=1e-12;") as err:
            trace_grid(square, "heat", [1e-6], 1e-12)
        assert err.value.achieved_bound > 1e-12

    def test_equal_nested_products_share_one_grid(self, monkeypatch):
        # two squares built apart are equal products, factor by factor, so the
        # 4-box sums the interval's terms once, as the box of one square does
        calls = []
        certify = traces._certify
        monkeypatch.setattr(traces, "_certify", lambda *args: calls.append(args[0])
                            or certify(*args))
        box = product_spectrum(product_spectrum(INTERVAL, INTERVAL),
                               product_spectrum(INTERVAL, INTERVAL))
        sample = trace_grid(box, "heat", [0.01])[0]
        assert calls == [INTERVAL]
        square = product_spectrum(INTERVAL, INTERVAL)
        assert sample == trace_grid(product_spectrum(square, square), "heat", [0.01])[0]

    def test_an_envelope_below_its_trace_exhausts_the_split(self):
        # a factor whose envelope trace U is below its own K breaks
        # tau_A K_B <= tol / 3, and the product's bound passes tol though
        # each factor met its share
        lying = finite_spectrum(1, [(0.001, 1000)], envelope=(0.0, 1.0))
        with pytest.raises(ToleranceError, match="factor split exhausted before reaching "
                                                 "tol=1e-06;") as err:
            trace_grid(product_spectrum(INTERVAL, lying), "heat", [1.0], 1e-6)
        assert err.value.achieved_bound > 1e-6

    def test_envelope_trace_past_the_float_range_is_inf(self):
        # t^(-3/2) overflows at t = 1e-300; the other factor's share is then
        # the least subnormal, which fails it
        cube = product_spectrum(product_spectrum(INTERVAL, INTERVAL), INTERVAL)
        assert traces._heat_envelope(cube, 1e-300) == math.inf
        assert traces._factor_tol(1e-12, math.inf) == math.ulp(0.0)
