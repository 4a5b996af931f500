import math
import re
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectrace import fitkit
from spectrace import (
    AsymptoticBasis,
    IllConditionedBasisError,
    cylinder_basis,
    dcylinder_basis,
    detect_log_term,
    fit_expansion,
    geometric_grid,
    heat_basis,
    power_basis,
    product_spectrum,
    torus_spectrum,
    trace_grid,
)
from spectrace.riesz import _log_exponents


def cyl_trace_exact(t):
    return 1.0 / math.expm1(t)


def laurent_samples(n=64, lo=1e-3, hi=1e-1):
    """x and y = 1/expm1(x) as arrays, over n geometric points."""
    ts = np.array(geometric_grid(lo, hi, n))
    return ts, np.array([cyl_trace_exact(t) for t in ts])


# factors the sample abscissae are multiplied by in the dilation tests
DILATIONS = (2.0**-20, 0.37, 1e3, 1e-30)


class TestFitExpansion:
    def test_laurent_oracle_coefficients(self):
        # unit weights keep the top-of-window bias from the omitted t^5 term
        # below the 1e-6 gate for every coefficient
        basis = power_basis([-1, 0, 1, 2, 3])
        x, y = laurent_samples()
        report = fit_expansion(x, y, basis, weights=np.ones(len(x)))
        expected = [1.0, -0.5, 1.0 / 12.0, 0.0, -1.0 / 720.0]
        for got, want in zip(report.coefficients, expected):
            assert abs(got - want) < 1e-6

    def test_exact_power_model_machine_precision(self):
        basis = power_basis([Fraction(3, 2)])
        xs = geometric_grid(0.1, 10.0, 16)
        report = fit_expansion(xs, [2.5 * x**1.5 for x in xs], basis)
        assert report.coefficients[0] == pytest.approx(2.5, rel=1e-14)
        assert report.residual_rms < 1e-14

    def test_no_phantom_log_coefficient(self):
        basis = AsymptoticBasis(
            ((Fraction(-1), 0), (Fraction(-1), 1), (Fraction(0), 0), (Fraction(1), 0)))
        report = fit_expansion(*laurent_samples(), basis)
        assert abs(report.coefficient(-1, 1)) < 1e-8

    def test_needs_enough_samples(self):
        basis = power_basis([0, 1, 2])
        with pytest.raises(ValueError, match="samples"):
            fit_expansion([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], basis)

    def test_rejects_nonpositive_abscissae(self):
        basis = power_basis([1])
        with pytest.raises(ValueError):
            fit_expansion([-1.0, 1.0, 2.0], [1.0, 1.0, 2.0], basis)

    def test_ill_conditioned_basis_raises(self):
        # two exponents 1e-14 apart make the columns numerically parallel
        basis = power_basis([1, Fraction(10**14 + 1, 10**14)])
        xs = geometric_grid(0.5, 2.0, 12)
        with pytest.raises(IllConditionedBasisError) as err:
            fit_expansion(xs, xs, basis)
        assert err.value.condition > 1e12

    def test_dilation_covariance(self):
        # the same samples at abscissae c x are f(x'/c): each coefficient of
        # x^p comes out times c^-p, and the basis follows the samples' window.
        # c x rounds, so every term carries a fair share of the samples here;
        # a term worth 1e-6 of them would move with that rounding
        xs = geometric_grid(0.5, 2.0, 64)
        ys = [1.0 / x + 2.0 - x + 0.5 * x * x for x in xs]
        basis = power_basis([-1, 0, 1, 2])
        ref = fit_expansion(xs, ys, basis)
        for c in DILATIONS:
            cxs = [c * x for x in xs]
            report = fit_expansion(cxs, ys, basis)
            assert report.scale_anchor == math.sqrt(cxs[0] * cxs[-1])
            for (p, _), a, b in zip(basis.terms, ref.coefficients, report.coefficients):
                assert b == pytest.approx(a * c ** -float(p), rel=1e-10)

    def test_dilation_covariance_with_log_terms(self):
        # x^p log x = c^-p x'^p (log x' - log c): the power coefficient at p
        # also loses (log coefficient) * log c
        xs = geometric_grid(1e-2, 1.0, 32)
        ys = [2.0 * x + 0.5 * x * math.log(x) + 0.3 * x * x for x in xs]
        basis = AsymptoticBasis(((Fraction(1), 0), (Fraction(1), 1), (Fraction(2), 0)))
        ref = fit_expansion(xs, ys, basis)
        for want, got in zip([2.0, 0.5, 0.3], ref.coefficients):
            assert got == pytest.approx(want, abs=1e-10)
        log_coeff = ref.coefficient(1, 1)
        for c in DILATIONS:
            cxs = [c * x for x in xs]
            report = fit_expansion(cxs, ys, basis)
            assert report.scale_anchor == math.sqrt(cxs[0] * cxs[-1])
            assert report.coefficient(1, 0) == pytest.approx(
                (ref.coefficient(1, 0) - log_coeff * math.log(c)) / c, rel=1e-10)
            assert report.coefficient(1, 1) == pytest.approx(log_coeff / c, rel=1e-10)
            assert report.coefficient(2, 0) == pytest.approx(
                ref.coefficient(2, 0) / c**2, rel=1e-10)

    def test_orders_8_cylinder_fit_on_the_flat_torus(self):
        # the [l/64, l/8] window of T(1.3) x T(1.3): anchored at t = 1
        # instead of the window, this design's condition estimate is 5e13
        torus = torus_spectrum(1.3)
        ts = geometric_grid(1.3 / 64, 1.3 / 8, 64)
        ys = [s.value for s in trace_grid(product_spectrum(torus, torus), "cylinder", ts, 1e-12)]
        report = fit_expansion(ts, ys, cylinder_basis(2, 8))
        assert report.condition_estimate < 1e10

    def test_seven_term_laurent_fit(self):
        # anchored at x = 1 instead of the window this design is at 4e12
        report = fit_expansion(*laurent_samples(), power_basis([-1, 0, 1, 2, 3, 4, 5]))
        assert report.condition_estimate < 1e10
        expected = [1.0, -0.5, 1.0 / 12.0, 0.0, -1.0 / 720.0]
        for got, want in zip(report.coefficients, expected):
            assert abs(got - want) < 1e-6

    def test_too_few_samples_for_jackknife(self):
        # 10 samples and 8 terms: the folds that drop 3 samples keep 7
        xs = geometric_grid(0.5, 2.0, 10)
        report = fit_expansion(xs, [sum(x**k for k in range(8)) for x in xs],
                               power_basis(range(8)))
        assert report.notes == ("too few samples for jackknife stability",)
        assert report.stability == (0.0,) * 8

    def test_jackknife_subsample_consistency(self):
        basis = power_basis([-1, 0, 1])
        x, y = laurent_samples(n=64)
        full = fit_expansion(x, y, basis)
        odd = fit_expansion(x[1::2], y[1::2], basis)
        for i, (a, b) in enumerate(zip(full.coefficients, odd.coefficients)):
            assert abs(a - b) <= 3 * max(full.stability[i], 1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        coeffs=st.lists(st.floats(min_value=-5, max_value=5).filter(lambda c: abs(c) > 1e-3),
                        min_size=1, max_size=4),
    )
    def test_oracle_recovery_property(self, coeffs):
        exps = [Fraction(k - 1, 2) for k in range(len(coeffs))]
        xs = geometric_grid(0.05, 5.0, 24)
        ys = [sum(c * x ** float(p) for c, p in zip(coeffs, exps)) for x in xs]
        report = fit_expansion(xs, ys, power_basis(exps), weights=[1.0] * len(xs))
        for got, want in zip(report.coefficients, coeffs):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def two_factorization_fit(xs, ys, basis, weights=None):
    """The reference fit: an SVD for the condition estimate ahead of lstsq,
    and each jackknife fold rebuilding and reweighting its own design, all
    rescaled around the full grid's geometric mean t0.
    Returns (coefficients, residual_rms, condition_estimate, stability)."""
    def solve(x, y, w):
        a = fitkit._design_matrix(x, basis, t0)
        sw = np.sqrt(w)
        aw = a * sw[:, None]
        yw = y * sw
        sing = np.linalg.svd(aw, compute_uv=False)
        condition = math.inf if sing[-1] == 0 else float(sing[0] / sing[-1])
        if condition > fitkit.CONDITION_LIMIT:
            raise IllConditionedBasisError(condition)
        c_norm, *_ = np.linalg.lstsq(aw, yw, rcond=None)
        resid = aw @ c_norm - yw
        rms = float(math.sqrt(np.mean(resid**2)))
        return fitkit._raw_coefficients(basis, c_norm, t0, (x[0], x[-1])), rms, condition

    x, y, w = fitkit._unpack_samples(xs, ys, weights)
    t0 = math.sqrt(x[0] * x[-1])
    m = len(basis.terms)
    coeffs, rms, condition = solve(x, y, w)
    spreads = np.zeros(m)
    folds = []
    bounds = [round(k * len(x) / 4) for k in range(5)]
    for k in range(4):
        keep = np.ones(len(x), dtype=bool)
        keep[bounds[k]:bounds[k + 1]] = False
        if keep.sum() >= m:
            folds.append(solve(x[keep], y[keep], w[keep])[0])
    if len(folds) == 4:
        stacked = np.vstack(folds)
        spreads = stacked.max(axis=0) - stacked.min(axis=0)
    return (tuple(float(c) for c in coeffs), rms, condition,
            tuple(float(s) for s in spreads))


class TestOneFactorization:
    def test_one_design_and_no_separate_svd(self):
        basis = power_basis([-1, 0, 1, 2])
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
                mock.patch.object(fitkit, "_design_matrix",
                                  wraps=fitkit._design_matrix) as design:
            fit_expansion(*laurent_samples(), basis)
            assert design.call_count == 1
            detect_log_term(*laurent_samples(), 0, basis)
            assert design.call_count == 3
        assert svd.call_count == 0

    def test_ill_conditioned_fold_raises(self):
        # the full design spans x = 1, 2, 3; the fold that drops the last
        # quarter keeps only x = 1, where the columns 1 and x coincide
        xs, ys = [1.0] * 6 + [2.0, 3.0], [1.0] * 6 + [2.5, 2.9]
        basis = power_basis([0, 1])
        x, y, w = fitkit._unpack_samples(xs, ys)
        sw = np.sqrt(w)
        t0 = math.sqrt(3.0)
        _, _, condition = fitkit._solve(fitkit._design_matrix(x, basis, t0) * sw[:, None],
                                        y * sw, basis, t0, (1.0, 3.0))
        assert condition < 1e2
        with pytest.raises(IllConditionedBasisError):
            fit_expansion(xs, ys, basis)
        with pytest.raises(IllConditionedBasisError):
            two_factorization_fit(xs, ys, basis)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        terms=st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 1)),
                       min_size=1, max_size=5, unique=True),
        lo=st.floats(1e-4, 1.0),
        span=st.floats(2.0, 1e4),
        extra=st.integers(0, 40),
        weighted=st.booleans(),
        data=st.data(),
    )
    def test_matches_the_two_factorization_fit(self, terms, lo, span, extra,
                                               weighted, data):
        basis = AsymptoticBasis(tuple((Fraction(k, 2), q) for k, q in terms))
        xs = geometric_grid(lo, lo * span, len(terms) + 2 + extra)
        ys = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(xs), max_size=len(xs)))
        ws = None
        if weighted:
            ws = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(xs),
                                    max_size=len(xs)))
        else:
            # the default weight 1/y^2 of a nonzero y is not always finite
            with np.errstate(divide="ignore", over="ignore"):
                inv_square = 1.0 / np.square(ys)
            if any(y != 0 and not np.isfinite(v) for y, v in zip(ys, inv_square)):
                with pytest.raises(ValueError, match="weight"):
                    fit_expansion(xs, ys, basis)
                return
        try:
            coeffs, rms, condition, stability = two_factorization_fit(xs, ys, basis, ws)
        except IllConditionedBasisError:
            with pytest.raises(IllConditionedBasisError):
                fit_expansion(xs, ys, basis, weights=ws)
            return
        report = fit_expansion(xs, ys, basis, weights=ws)
        assert report.coefficients == coeffs
        assert report.residual_rms == rms
        assert report.stability == stability
        # the two LAPACK drivers agree on the smallest singular value to about
        # eps * sigma_max, so on the condition estimate to about eps * condition
        rel = max(1e-12, 64 * np.finfo(float).eps * condition)
        assert report.condition_estimate == pytest.approx(condition, rel=rel)


class TestDetectLogTerm:
    def test_synthetic_log_present(self):
        xs = geometric_grid(0.01, 1.0, 40)
        det = detect_log_term(xs, [x * math.log(x) + x for x in xs], 1, power_basis([1]))
        assert det.present
        assert det.magnitude == pytest.approx(1.0, rel=1e-6)

    def test_synthetic_log_absent(self):
        xs = geometric_grid(0.01, 1.0, 40)
        det = detect_log_term(xs, xs, 1, power_basis([1]))
        assert not det.present

    def test_cylinder_trace_has_no_log_at_t0(self):
        det = detect_log_term(*laurent_samples(), 0, power_basis([-1, 0, 1, 2]))
        assert not det.present

    def test_rejects_duplicate_log_column(self):
        basis = AsymptoticBasis(((Fraction(1), 0), (Fraction(1), 1)))
        with pytest.raises(ValueError):
            detect_log_term([1.0] * 8, [1.0] * 8, 1, basis)


class TestBasisBuilders:
    def test_heat_shape(self):
        b = heat_basis(1, 3)
        assert [p for p, _ in b.terms] == [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
        assert all(q == 0 for _, q in b.terms)

    def test_cylinder_log_slots(self):
        logs = [(p, 1) for p in _log_exponents(1, 4)]
        assert logs == [(Fraction(1), 1), (Fraction(3), 1)]

    def test_include_logs_is_keyword_only(self):
        # a positional third argument, such as an anchor from before the fit
        # derived its own, must not turn the log columns on
        with pytest.raises(TypeError):
            cylinder_basis(1, 4, 0.01)

    def test_dcylinder_contains_inverse_time(self):
        b = dcylinder_basis(1, 3)
        assert (Fraction(-1), 0) in b.terms

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError):
            AsymptoticBasis(((Fraction(1), 0), (Fraction(1), 0)))

    def test_geometric_grid_endpoints(self):
        g = geometric_grid(0.1, 10.0, 5)
        assert g[0] == pytest.approx(0.1)
        assert g[-1] == pytest.approx(10.0)
        assert len(g) == 5
        assert all(isinstance(v, float) for v in g)


class TestSampleWeights:
    @pytest.mark.parametrize("xs, ys", [
        # y * y underflows to 0
        ([1.0, 2.0, 3.0, 4.0], [1e-170, 1.0, 1.0, 1.0]),
        # y * y is subnormal and 1 / (y * y) overflows
        ([1.0, 2.0, 3.0, 4.0], [1e-160, 1.0, 1.0, 1.0]),
        (geometric_grid(1e-300, 1e-290, 16), [2.0 * x for x in geometric_grid(1e-300, 1e-290, 16)]),
    ], ids=["underflow", "overflow", "tiny-grid"])
    def test_default_weight_not_finite_raises(self, xs, ys, capfd):
        with pytest.raises(ValueError, match="weight"):
            fit_expansion(xs, ys, power_basis([0]))
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("weight", [-1.0, math.inf, math.nan])
    def test_given_weight_not_finite_or_negative_raises(self, weight, capfd):
        with pytest.raises(ValueError, match=r"sample \(1\.0, 1\.0\)"):
            fit_expansion([1.0, 2.0, 3.0, 4.0], [1.0] * 4, power_basis([0]),
                          weights=[weight, 1.0, 1.0, 1.0])
        assert capfd.readouterr().err == ""

    def test_zero_sample_weighs_one(self):
        x, _, w = fitkit._unpack_samples([3.0, 1.0, 2.0], [0.25, 0.0, 0.5])
        assert list(x) == [1.0, 2.0, 3.0]
        assert list(w) == [1.0, 4.0, 16.0]
        # given weights replace 1/y^2 wherever y is
        x, _, w = fitkit._unpack_samples([1.0, 2.0, 3.0], [0.0, 0.5, 1e-150], [1.0, 4.0, 2.0])
        assert list(x) == [1.0, 2.0, 3.0]
        assert list(w) == [1.0, 4.0, 2.0]


def unpack_by_sample(xs, ys, weights=None):
    """The per-sample reference for _unpack_samples: each x, y and weight
    checked one at a time (weights None: 1/y^2, 1 where y = 0, inf where
    y*y underflows)."""
    out = []
    for x, y, w in zip(xs, ys, [None] * len(xs) if weights is None else weights):
        x, y = float(x), float(y)
        if not (x > 0):
            raise ValueError(f"sample abscissae must be positive, got {x}")
        if w is None:
            w = 1.0 if y == 0 else 1.0 / (y * y) if y * y else math.inf
        w = float(w)
        if not (0 <= w < math.inf):
            raise ValueError(f"sample ({x}, {y}) has weight {w}; "
                             "weights must be finite and non-negative")
        out.append((x, y, w))
    xs, ys, ws = (np.array([r[k] for r in out], dtype=float) for k in range(3))
    order = np.argsort(xs, kind="stable")
    return xs[order], ys[order], ws[order]


class TestPlainSamplesAsArrays:
    """x, y and weights go through array checks, with the per-sample loop's
    weights, order and first error."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.floats(1e-300, 1e300), st.sampled_from([0.0, -1.0, math.nan, 2.0])),
        st.one_of(st.floats(allow_nan=True), st.sampled_from([0.0, 1e-170, 1e-160, 1e200])),
        st.one_of(st.sampled_from([-1, math.inf, math.nan, 0.0]), st.floats(0.0, 1e300))),
        max_size=12), st.booleans())
    def test_matches_the_per_record_loop(self, records, weighted):
        xs = [x for x, _, _ in records]
        ys = [y for _, y, _ in records]
        ws = [w for _, _, w in records] if weighted else None
        try:
            want = unpack_by_sample(xs, ys, ws)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                fitkit._unpack_samples(xs, ys, ws)
            assert str(err.value) == str(exc)
            return
        got = fitkit._unpack_samples(xs, ys, ws)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("xs, ys, ws", [
        ([1.0, 2.0, 3.0], [1.0, 2.0], None),
        ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]], None),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 1.0]),
        (1.0, 1.0, None),
    ], ids=["unequal-lengths", "two-d", "unequal-weights", "scalar"])
    def test_inputs_of_another_shape_raise(self, xs, ys, ws):
        with pytest.raises(ValueError, match="must be 1-D and of one length"):
            fitkit._unpack_samples(xs, ys, ws)
        with pytest.raises(ValueError, match="must be 1-D and of one length"):
            fit_expansion(xs, ys, power_basis([0]), weights=ws)


def raw_by_term(basis, c_norm, t0):
    """The term-by-term reference for fitkit._raw_coefficients."""
    raw = []
    for i, (p, q) in enumerate(basis.terms):
        scale = t0 ** float(p)
        value = c_norm[i] / scale
        if q == 0 and (p, 1) in basis.terms:
            value -= c_norm[basis.terms.index((p, 1))] * math.log(t0) / scale
        raw.append(value)
    return np.array(raw)


class TestRawCoefficients:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-12, 12), st.integers(0, 1)), min_size=1,
                    max_size=6, unique=True),
           st.floats(-40.0, 40.0), st.data())
    def test_matches_the_term_by_term_map(self, terms, log10_t0, data):
        basis = AsymptoticBasis(tuple((Fraction(k, 2), q) for k, q in terms))
        c_norm = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(terms),
                                             max_size=len(terms))))
        t0 = 10.0 ** log10_t0
        got = fitkit._raw_coefficients(basis, c_norm, t0, (t0 / 2, t0 * 2))
        assert got.tobytes() == raw_by_term(basis, c_norm, t0).tobytes()

    @pytest.mark.parametrize("lo, exponents", [
        (1e110, [0, 3]),      # t0^3 overflows
        (1e-200, [0, 2]),     # t0^2 underflows to 0
        (1e-160, [0, 2]),     # t0^2 is subnormal: the raw t^2 coefficient overflows
        (1e170, [-2, 0]),     # t0^-2 underflows to 0
    ])
    def test_window_past_the_float_range_raises(self, lo, exponents):
        xs = geometric_grid(lo, 10.0 * lo, 16)
        with pytest.raises(ValueError, match=re.escape(f"the fit window {xs[0]!r}..{xs[-1]!r}")):
            fit_expansion(xs, [1.0 + (x / lo) ** 2 for x in xs], power_basis(exponents))

    @pytest.mark.parametrize("lo, hi, exponents", [
        (3.0, 1e308, [-1, 0, 1, 2, 3]),    # (x / t0)^3 overflows at both ends
        (1e-300, 1e300, [-2, 0]),          # (x / t0)^-2 overflows at the bottom
    ])
    def test_design_past_the_float_range_is_refused_before_lstsq(self, lo, hi, exponents):
        # LAPACK handed an infinite design writes to stdout and fails to
        # converge; the fit refuses it first, naming the window, with no warning
        xs = geometric_grid(lo, hi, 16)
        with mock.patch.object(np.linalg, "lstsq", side_effect=AssertionError("solved")), \
                warnings.catch_warnings(), \
                pytest.raises(ValueError, match=re.escape(f"the fit window {lo!r}..{hi!r}")):
            warnings.simplefilter("error")
            fit_expansion(xs, [0.0] * len(xs), power_basis(exponents))
