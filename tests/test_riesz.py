import math
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from spectrace import (
    counting,
    extract_riesz_coeffs,
    finite_spectrum,
    geometric_grid,
    interval_spectrum,
    product_spectrum,
    riesz_mean,
    torus_spectrum,
    weyl_remainder,
)
from spectrace import riesz
from spectrace.riesz import riesz_mean_grid
from spectrace.spectra import _keys_up_to

PI = math.pi
INTERVAL = interval_spectrum(PI, "dirichlet")


class TestRieszMean:
    def test_alpha1_lambda_hand_value(self):
        # (1/5)((5-1) + (5-4)) = 1
        assert riesz_mean(INTERVAL, 1, "lambda", 5.0).value == pytest.approx(1.0, rel=1e-15)

    def test_alpha2_omega_hand_value(self):
        # (1/2)(1/9)((3-1)^2 + (3-2)^2) = 5/18
        assert riesz_mean(INTERVAL, 2, "omega", 3.0).value == pytest.approx(5.0 / 18.0, rel=1e-15)

    def test_alpha0_is_counting(self):
        for s in (INTERVAL, torus_spectrum(3.0)):
            for x in [0.5, 2.0, 7.3, 40.0]:
                assert riesz_mean(s, 0, "lambda", x).value == counting(s, x)

    def test_variables_agree_only_at_alpha0(self):
        x = 5.0
        n_lambda = riesz_mean(INTERVAL, 0, "lambda", x).value
        n_omega = riesz_mean(INTERVAL, 0, "omega", math.sqrt(x)).value
        assert n_lambda == n_omega
        r1_lambda = riesz_mean(INTERVAL, 1, "lambda", x).value
        r1_omega = riesz_mean(INTERVAL, 1, "omega", math.sqrt(x)).value
        assert abs(r1_lambda - r1_omega) > 0.1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            riesz_mean(INTERVAL, 1, "lambda", 0.0)
        with pytest.raises(ValueError):
            riesz_mean(INTERVAL, -1, "lambda", 1.0)
        with pytest.raises(ValueError):
            riesz_mean(INTERVAL, 1, "mu", 1.0)

    def test_grid_matches_scalar_evaluation(self):
        grid = geometric_grid(2.0, 40.0, 12)
        batch = riesz_mean_grid(INTERVAL, 2, "omega", grid)
        for mv in batch:
            assert mv.value == riesz_mean(INTERVAL, 2, "omega", mv.x).value

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_grid_matches_scalar_on_product(self, alpha):
        # one summation policy: a grid point and the scalar call agree bit for bit
        s = product_spectrum(interval_spectrum(1.1, "dirichlet"), torus_spectrum(1.7))
        x = 1e4 + 0.3
        (mv,) = riesz_mean_grid(s, alpha, "lambda", [x])
        assert mv.value == riesz_mean(s, alpha, "lambda", x).value
        assert riesz_mean_grid(s, alpha, "lambda", [10.0, x])[1] == mv

    @pytest.mark.parametrize("variable, x", [("lambda", 1e4 + 0.3), ("omega", 100.3)])
    @pytest.mark.parametrize("alpha", [0, 1, 2])
    def test_matches_per_term_fsum_reference(self, alpha, variable, x):
        # np.sum of nonnegative terms stays within a few ulps of the correctly
        # rounded sum; 64 machine epsilons is a bound fixed from the dtype
        s = product_spectrum(interval_spectrum(1.1, "dirichlet"), torus_spectrum(1.7))
        keys = [(w * w if variable == "lambda" else w, m) for w, m in s.up_to(110.0)]
        ref = math.fsum(m * (x - k) ** alpha for k, m in keys if k <= x)
        ref /= math.factorial(alpha) * x**alpha
        assert riesz_mean(s, alpha, variable, x).value == pytest.approx(
            ref, rel=64 * 2.0**-52, abs=0)

    @pytest.mark.parametrize("variable, hi", [("lambda", 1e4), ("omega", 100.0)])
    @pytest.mark.parametrize("alpha", [0, 1, 2, 3])
    def test_grid_equals_per_point_np_sum(self, alpha, variable, hi):
        # every grid value is the one-point value at its x, bit for bit, and
        # within 64 eps of the per-term math.fsum reference; the grid reaches
        # about 6,700 terms, so it spans several chunks of the moment tables
        s = product_spectrum(interval_spectrum(1.1, "dirichlet"), torus_spectrum(1.7))
        hi *= 9.0 if variable == "lambda" else 3.0
        keys, mults = _keys_up_to(s, variable, hi)
        b = riesz._CHUNK
        assert keys.size >= 3 * b
        # unsorted, with a repeat, points below the first key, points that
        # equal an eigenvalue, and the last and first keys of chunks
        grid = [hi, 0.5, keys[0], keys[7], 3.3 * keys[0], keys[-1], hi / 3.0, keys[7],
                keys[b - 1], keys[b], keys[2 * b - 1]]
        terms = list(zip(keys.tolist(), mults.tolist()))
        for mv, x in zip(riesz_mean_grid(s, alpha, variable, grid), grid):
            assert (mv.x, mv.value.hex()) == (x, riesz_mean(s, alpha, variable, x).value.hex())
            ref = math.fsum(m * (x - k) ** alpha for k, m in terms if k <= x)
            ref /= math.factorial(alpha) * x**alpha
            assert mv.value == pytest.approx(ref, rel=64 * 2.0**-52, abs=0)

    @pytest.mark.parametrize("x, alpha, want", [
        (1e-200, 2, 0.5),  # x^2 underflows; only the zero mode is below x
        (5e-324, 4, 1.0 / 24.0),
        (1e300, 2, 1.5),  # x^2 overflows; (1 + 2 (1 - 1e-300)^2) / 2!
    ])
    def test_extreme_points_stay_in_range(self, x, alpha, want):
        s = finite_spectrum(1, [(0.0, 1), (1.0, 2)])
        assert riesz_mean(s, alpha, "omega", x).value == want

    def test_smoothing_continuity_alpha1(self):
        # R^1 is continuous across an eigenvalue; N itself jumps
        below = riesz_mean(INTERVAL, 1, "lambda", 4.0 - 1e-9).value
        above = riesz_mean(INTERVAL, 1, "lambda", 4.0 + 1e-9).value
        assert abs(above - below) < 1e-6
        assert counting(INTERVAL, 4.0 + 1e-9) - counting(INTERVAL, 4.0 - 1e-9) == 1

    def test_smoothing_c1_alpha2(self):
        # first divided differences of R^2 stay continuous across lambda = 4
        h = 1e-5
        def deriv(x):
            lo = riesz_mean(INTERVAL, 2, "lambda", x - h).value
            hi = riesz_mean(INTERVAL, 2, "lambda", x + h).value
            return (hi - lo) / (2 * h)
        assert abs(deriv(4.0 - 2 * h) - deriv(4.0 + 2 * h)) < 1e-3


sizes = st.floats(min_value=0.5, max_value=3.0)
lattices = st.one_of(
    st.builds(interval_spectrum, sizes, st.sampled_from(["dirichlet", "neumann"])),
    st.builds(torus_spectrum, sizes),
)


def finite_with_run(terms, run):
    """The terms plus a run of count close frequencies w0, w0 + dw, ...,
    each of multiplicity m."""
    w0, dw, count, m = run
    return finite_spectrum(1, sorted(terms + [(w0 + j * dw, m) for j in range(count)]))


# 1-D lists with repeated frequencies and multiplicities up to 2^40, plus a
# heavy run of 1,024 to 3,000 close ones: light terms below a heavy run make
# the moments of a chunk anchored anywhere but at its top cancel
finite_factors = st.builds(
    finite_with_run,
    st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 1.0, 2.5, 7.0]), st.floats(0.0, 40.0)),
                       st.integers(1, 2**40)), min_size=1, max_size=40),
    st.tuples(st.floats(1.0, 40.0), st.floats(1e-6, 1e-2), st.integers(1024, 3000),
              st.integers(2**30, 2**40)),
)
# a single zero mode: its product with a factor has that factor's frequencies
point = st.builds(lambda m: finite_spectrum(1, [(0.0, m)]), st.integers(1, 2**20))


class TestChunkedGrid:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(point, lattices), st.one_of(finite_factors, lattices), st.integers(1, 4),
           st.sampled_from(["lambda", "omega"]), st.integers(900, 6000),
           st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=6),
           st.lists(st.integers(0, 2**20), max_size=6), st.data())
    def test_grid_is_pointwise_and_near_fsum(self, a, b, alpha, variable, n, fracs,
                                             picks, data):
        # each value is the one-point value at its x, bit for bit, whatever
        # else the grid holds, and within 64 eps of the per-term fsum (of the
        # terms scaled by 1/x, which stays in range for subnormal x); the
        # grid reaches up to the n-th key and its points include eigenvalues
        # and the last key of every chunk
        s = product_spectrum(a, b)
        keys, mults = _keys_up_to(s, variable, 1.6e5 if variable == "lambda" else 400.0)
        hi = float(keys[min(n, keys.size - 1)])
        keys, mults = _keys_up_to(s, variable, hi)
        points = [hi] + [u * hi for u in fracs] + [keys[p % keys.size] for p in picks]
        points += keys[riesz._CHUNK - 1::riesz._CHUNK].tolist()
        grid = data.draw(st.permutations([x for x in points if x > 0]))
        terms = list(zip(keys.tolist(), mults.tolist()))
        fac = math.factorial(alpha)
        for mv, x in zip(riesz_mean_grid(s, alpha, variable, grid), grid):
            assert mv.value == riesz_mean(s, alpha, variable, x).value
            ref = math.fsum(m * ((x - k) / x) ** alpha for k, m in terms if k <= x)
            assert mv.value == pytest.approx(ref / fac, rel=64 * 2.0**-52, abs=0)


class TestAlphaZero:
    """alpha = 0 runs through the chunk moment tables like every other order;
    its values are the exact counts."""

    SPECTRA = [
        # zero modes in both factors, so the product has one too
        lambda: product_spectrum(interval_spectrum(1.1, "neumann"), torus_spectrum(1.7)),
        lambda: product_spectrum(torus_spectrum(2.0), torus_spectrum(1.3)),
        lambda: finite_spectrum(1, [(0.0, 3), (1.0, 2), (1.0, 5), (2.5, 1)]),
        lambda: finite_spectrum(1, [(0.01 * k, 1 + k % 7) for k in range(3000)]),
    ]

    @pytest.mark.parametrize("variable", ["lambda", "omega"])
    @pytest.mark.parametrize("kind", range(len(SPECTRA)))
    def test_values_are_exact_counts(self, kind, variable):
        s = self.SPECTRA[kind]()
        keys, _ = _keys_up_to(s, variable, 9e4 if variable == "lambda" else 300.0)
        b = riesz._CHUNK
        # points on eigenvalues in the first and last chunks and at chunk
        # edges, between keys, and below the first positive key
        picks = [-1, 0, 1, b - 1, b, 2 * b - 1, -2]
        points = [keys[i] for i in picks if -keys.size <= i < keys.size]
        points += [0.5 * (keys[-3] + keys[-2]), 0.5 * (keys[1] + keys[2]),
                   0.5 * keys[keys > 0][0]]
        grid = [float(x) for x in points if x > 0]
        for mv in riesz_mean_grid(s, 0, variable, grid):
            if variable == "lambda":
                want = counting(s, mv.x)
            else:
                want = sum(s.arrays(mv.x)[1].tolist())
            assert mv.value == want, (mv.x, mv.value, want)

    @pytest.mark.parametrize("variable", ["lambda", "omega"])
    @pytest.mark.parametrize("alpha", [0, 1, 2, 3, 4])
    def test_infinite_point_on_a_spectrum_that_ends(self, alpha, variable):
        # the limit (sum mult) / alpha!, with no invalid-value warning
        s = finite_spectrum(1, [(1.0, 1), (2.0, 3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert riesz_mean(s, alpha, variable, math.inf).value == 4.0 / math.factorial(alpha)
            assert riesz_mean_grid(s, alpha, variable, [math.inf, 1.0])[0].value == \
                4.0 / math.factorial(alpha)


class TestExtraction:
    def test_c22_on_spec_default_grid(self):
        rep = extract_riesz_coeffs(INTERVAL, 2, "omega")
        c22 = rep.coefficient(Fraction(-1), 0)
        assert abs(c22 - 1.0 / 6.0) <= 2e-2 / 6.0

    def test_c22_on_wide_grid(self):
        rep = extract_riesz_coeffs(INTERVAL, 2, "omega",
                                   grid=geometric_grid(10.0, 200.0, 64))
        c22 = rep.coefficient(Fraction(-1), 0)
        assert abs(c22 - 1.0 / 6.0) <= 1e-2 / 6.0

    def test_c00_leading(self):
        rep = extract_riesz_coeffs(INTERVAL, 0, "omega",
                                   grid=geometric_grid(10.0, 1000.0, 128))
        assert rep.coefficient(Fraction(1), 0) == pytest.approx(1.0, abs=1e-3)

    def test_a00_leading(self):
        rep = extract_riesz_coeffs(INTERVAL, 0, "lambda",
                                   grid=geometric_grid(1e2, 1e6, 128))
        assert rep.coefficient(Fraction(1, 2), 0) == pytest.approx(1.0, abs=1e-3)

    def test_a11_diagonal(self):
        rep = extract_riesz_coeffs(INTERVAL, 1, "lambda")
        assert rep.coefficient(Fraction(0), 0) == pytest.approx(-0.5, abs=1e-2)

    def test_a10_leading_of_averaged_counting(self):
        # averaging once scales the leading coefficient by
        # Gamma(3/2)Gamma(2)/Gamma(5/2) = 2/3; it does not stay at 1
        rep = extract_riesz_coeffs(INTERVAL, 1, "lambda")
        assert rep.coefficient(Fraction(1, 2), 0) == pytest.approx(2.0 / 3.0, abs=2e-3)

    def test_redundant_subdiagonal_flagged(self):
        rep = extract_riesz_coeffs(INTERVAL, 2, "omega")
        assert any("informational" in note for note in rep.notes)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            extract_riesz_coeffs(INTERVAL, 1, "lambda", grid=[10.0, 5.0, 20.0])

    @pytest.mark.parametrize("s", [INTERVAL, torus_spectrum(1.5)])
    def test_no_log_column_at_guard_orders(self, s):
        # at alpha = d the only order with s - d odd and positive is the
        # guard order d + 1, which gets no log column and so no detection
        with mock.patch.object(riesz, "detect_log_term", wraps=riesz.detect_log_term) as detect:
            rep = extract_riesz_coeffs(s, s.dim, "omega")
        assert detect.call_count == 0
        assert all(q == 0 for _, q in rep.basis.terms)

    def test_detected_basis_is_not_refitted(self):
        # each log detection fits its basis with and without the column; the
        # kept fit is the report, so the fits are exactly the detections' pairs
        from spectrace import fitkit
        with mock.patch.object(fitkit, "fit_expansion", wraps=fitkit.fit_expansion) as fits, \
                mock.patch.object(riesz, "fit_expansion", wraps=riesz.fit_expansion) as refits, \
                mock.patch.object(riesz, "detect_log_term", wraps=riesz.detect_log_term) as detect:
            rep = extract_riesz_coeffs(INTERVAL, 2, "omega")
        assert detect.call_count and fits.call_count == 2 * detect.call_count
        assert refits.call_count == 0
        assert rep.basis in [call.args[1] for call in fits.call_args_list[-2:]]


class TestWeylRemainder:
    def test_sawtooth_closed_form(self):
        grid = [10.25, 17.5, 33.75, 99.9]
        data = weyl_remainder(INTERVAL, 1, [1.0, -0.5], grid)
        for w, e in data:
            assert e == pytest.approx(math.floor(w) - w + 0.5, abs=1e-12)

    def test_sup_does_not_decay(self):
        for lo, hi in [(10.0, 100.0), (100.0, 1000.0), (1000.0, 10000.0)]:
            grid = [lo + k * (hi - lo) / 4000 for k in range(4001)]
            data = weyl_remainder(INTERVAL, 1, [1.0, -0.5], grid)
            assert max(abs(e) for _, e in data) >= 0.4

    def test_leading_only_bounded_by_one(self):
        grid = [3.3, 7.7, 21.2, 64.1, 500.5]
        data = weyl_remainder(INTERVAL, 0, [1.0], grid)
        for w, e in data:
            assert -1.0 < e <= 0.0 or abs(e) < 1e-9

    def test_requires_enough_coefficients(self):
        with pytest.raises(ValueError):
            weyl_remainder(INTERVAL, 1, [1.0], [10.0])

    @pytest.mark.parametrize("d, w", [(2, 1e300), (1, math.inf)])
    def test_weyl_sum_past_the_float_range_raises(self, d, w):
        s = finite_spectrum(d, [(1.0, 1)])
        with pytest.raises(ValueError, match="Weyl sum is not finite"):
            weyl_remainder(s, 0, [1.0], [2.0, w])

    @pytest.mark.parametrize("w", [0.0, math.nan, -1.0])
    def test_nonpositive_or_nan_point_raises(self, w):
        # M = 2 > d puts w^(d-2) in the model, a division by zero at w = 0
        with pytest.raises(ValueError, match="positive"):
            weyl_remainder(INTERVAL, 2, [1.0, -0.5, 0.0], [w, 10.0])
