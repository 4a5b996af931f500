import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from spectrace import (
    ToleranceError,
    cylinder_trace,
    cylinder_trace_derivative,
    finite_spectrum,
    geometric_grid,
    heat_diagonal_interval,
    heat_trace,
    interval_spectrum,
    load_spectrum,
    product_spectrum,
    torus_spectrum,
    trace_grid,
)
from spectrace import spectra
from spectrace.spectra import Spectrum
from spectrace.traces import _X_STEP, _cutoff, _tail_bound

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
        s = heat_trace(INTERVAL, 0.01, tol=1e-13)
        assert abs(s.value - theta_heat(0.01)) < 1e-12
        assert s.tail_bound <= 1e-13
        assert s.certified

    @pytest.mark.parametrize("t", [1e-4, 1e-3, 1e-2, 0.1])
    def test_oracle_window(self, t):
        s = heat_trace(INTERVAL, t, tol=1e-12)
        assert abs(s.value - theta_heat(t)) < 1e-10

    def test_single_zero_mode(self):
        s = finite_spectrum(1, [(0.0, 1)])
        assert heat_trace(s, 3.7).value == 1.0
        assert heat_trace(s, 3.7).tail_bound == 0.0

    def test_torus_large_time(self):
        s = heat_trace(torus_spectrum(2 * PI), 1e6, tol=1e-15)
        assert abs(s.value - 1.0) <= 1e-15

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            heat_trace(INTERVAL, 0.0)
        with pytest.raises(ValueError):
            heat_trace(INTERVAL, -1.0)


class TestCylinderTrace:
    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_geometric_series_oracle(self, t):
        s = cylinder_trace(INTERVAL, t, tol=1e-13)
        assert abs(s.value - 1.0 / math.expm1(t)) < 1e-12

    def test_triple_zero_mode(self):
        s = finite_spectrum(1, [(0.0, 3)])
        assert cylinder_trace(s, 0.123).value == 3.0

    def test_scaled_interval(self):
        s = interval_spectrum(2.0, "dirichlet")
        got = cylinder_trace(s, 0.7, tol=1e-13).value
        assert got == pytest.approx(1.0 / math.expm1(0.7 * PI / 2.0), abs=1e-12)


class TestCylinderDerivative:
    def test_analytic_derivative_oracle(self):
        s = cylinder_trace_derivative(INTERVAL, 0.5, tol=1e-13)
        expect = -math.exp(0.5) / math.expm1(0.5) ** 2
        assert abs(s.value - expect) < 1e-12

    def test_zero_mode_contributes_nothing(self):
        s = finite_spectrum(1, [(0.0, 1)])
        assert cylinder_trace_derivative(s, 2.0).value == 0.0

    def test_values_negative_for_real_spectra(self):
        for t in [0.2, 1.0, 5.0]:
            assert cylinder_trace_derivative(INTERVAL, t).value < 0.0

    def test_fitted_constant_term_is_one_twelfth(self):
        # the t^0 coefficient of dTrT/dt carries the vacuum-energy invariant
        from spectrace import dcylinder_basis, fit_expansion
        ts = geometric_grid(1e-3, 0.1, 48)
        samples = [(s.t, s.value)
                   for s in trace_grid(INTERVAL, "dcylinder", ts, 1e-13)]
        fit = fit_expansion(samples, dcylinder_basis(1, 5, math.sqrt(ts[0] * ts[-1])))
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
            s2 = heat_trace(sq, t, tol=1e-12)
            s1 = heat_trace(INTERVAL, t, tol=1e-12)
            combined = s2.tail_bound + 2 * abs(s1.value) * s1.tail_bound + s1.tail_bound**2
            # tail bounds cover truncation only; allow a few ulps of roundoff
            roundoff = 8 * eps * (abs(s2.value) + s1.value**2 + 1.0)
            assert abs(s2.value - s1.value**2) <= combined + roundoff

    def test_budget_exhaustion_reports_achieved_bound(self, monkeypatch):
        monkeypatch.setattr(spectra, "DEFAULT_MAX_TERMS", 100)
        with pytest.raises(ToleranceError) as err:
            heat_trace(INTERVAL, 1e-6, tol=1e-300)
        assert err.value.achieved_bound > 1e-300
        assert err.value.terms_used <= 100

    @pytest.mark.parametrize("fn", [heat_trace, cylinder_trace, cylinder_trace_derivative])
    def test_budget_is_not_a_parameter(self, fn):
        with pytest.raises(TypeError):
            fn(INTERVAL, 1e-3, 1e-12, max_terms=100)

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
        with pytest.warns(UserWarning, match="envelope"):
            sample = cylinder_trace(s, 0.5)
        assert math.isnan(sample.tail_bound)
        assert not sample.certified
        assert sample.value == pytest.approx(1.0 / math.expm1(0.5), abs=1e-10)

    def test_loaded_with_envelope_certifies(self, tmp_path):
        p = tmp_path / "trunc.txt"
        p.write_text("dim 1\nenvelope 0 1\n" +
                     "\n".join(f"{n} 1" for n in range(1, 200)) + "\n")
        s = load_spectrum(p)
        sample = cylinder_trace(s, 0.5, tol=1e-10)
        assert sample.certified
        assert abs(sample.value - 1.0 / math.expm1(0.5)) <= 1e-10

    def test_loaded_with_envelope_refuses_unreachable_tol(self, tmp_path):
        p = tmp_path / "trunc.txt"
        p.write_text("dim 1\nenvelope 0 1\n1 1\n2 1\n3 1\n")
        s = load_spectrum(p)
        with pytest.raises(ToleranceError):
            cylinder_trace(s, 0.5, tol=1e-12)


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

    def test_matches_a_longer_fsum_bit_for_bit(self):
        # the 6,708 terms it sums leave a tail far below half an ulp, so the
        # correctly rounded sum out to 30,000 terms is the same float
        t, x = 1e-6, 1.0
        ref = (2.0 / PI) * math.fsum(
            math.sin(n * x) ** 2 * math.exp(-t * n * n) for n in range(1, 30_000))
        assert heat_diagonal_interval(t, x) == ref

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
        s = cylinder_trace(INTERVAL, 1e-3, tol=1e-13)
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
        for t in (0.2, 1.0, 10.0):
            for tol in (1e-14, 1e-8, 1e-3):
                calls.clear()
                sample = trace_grid(spectrum, kind, [t], tol)[0]
                # a product also enumerates its factors; count its own calls
                assert sum(1 for s in calls if s is spectrum) == 1
                assert sample.tail_bound <= tol
