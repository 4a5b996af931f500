import math
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
)


def cyl_trace_exact(t):
    return 1.0 / math.expm1(t)


def laurent_samples(n=64, lo=1e-3, hi=1e-1, weight=None):
    ts = geometric_grid(lo, hi, n)
    if weight is None:
        return [(t, cyl_trace_exact(t)) for t in ts]
    return [(t, cyl_trace_exact(t), weight) for t in ts]


class TestFitExpansion:
    def test_laurent_oracle_coefficients(self):
        # unit weights keep the top-of-window bias from the omitted t^5 term
        # below the 1e-6 gate for every coefficient
        basis = power_basis([-1, 0, 1, 2, 3], scale_anchor=1e-2)
        report = fit_expansion(laurent_samples(weight=1.0), basis)
        expected = [1.0, -0.5, 1.0 / 12.0, 0.0, -1.0 / 720.0]
        for got, want in zip(report.coefficients, expected):
            assert abs(got - want) < 1e-6

    def test_exact_power_model_machine_precision(self):
        basis = power_basis([Fraction(3, 2)])
        xs = geometric_grid(0.1, 10.0, 16)
        samples = [(x, 2.5 * x**1.5) for x in xs]
        report = fit_expansion(samples, basis)
        assert report.coefficients[0] == pytest.approx(2.5, rel=1e-14)
        assert report.residual_rms < 1e-14

    def test_no_phantom_log_coefficient(self):
        basis = AsymptoticBasis(
            ((Fraction(-1), 0), (Fraction(-1), 1), (Fraction(0), 0), (Fraction(1), 0)),
            scale_anchor=1e-2,
        )
        report = fit_expansion(laurent_samples(), basis)
        assert abs(report.coefficient(-1, 1)) < 1e-8

    def test_needs_enough_samples(self):
        basis = power_basis([0, 1, 2])
        with pytest.raises(ValueError, match="samples"):
            fit_expansion([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)], basis)

    def test_rejects_nonpositive_abscissae(self):
        basis = power_basis([1])
        with pytest.raises(ValueError):
            fit_expansion([(-1.0, 1.0), (1.0, 1.0), (2.0, 2.0)], basis)

    def test_ill_conditioned_basis_raises(self):
        # two exponents 1e-14 apart make the columns numerically parallel
        basis = power_basis([1, Fraction(10**14 + 1, 10**14)])
        xs = geometric_grid(0.5, 2.0, 12)
        samples = [(x, x) for x in xs]
        with pytest.raises(IllConditionedBasisError) as err:
            fit_expansion(samples, basis)
        assert err.value.condition > 1e12

    def test_anchoring_invariance(self):
        # anchors near the data window; a wildly off-window anchor degrades
        # the conditioning and with it the invariance
        samples = laurent_samples()
        exps = [-1, 0, 1, 2]
        r1 = fit_expansion(samples, power_basis(exps, scale_anchor=0.005))
        r2 = fit_expansion(samples, power_basis(exps, scale_anchor=0.05))
        for a, b in zip(r1.coefficients, r2.coefficients):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_anchoring_invariance_with_log_terms(self):
        xs = geometric_grid(1e-2, 1.0, 32)
        samples = [(x, 2.0 * x + 0.5 * x * math.log(x)) for x in xs]
        terms = ((Fraction(1), 0), (Fraction(1), 1))
        r1 = fit_expansion(samples, AsymptoticBasis(terms, 1.0))
        r2 = fit_expansion(samples, AsymptoticBasis(terms, 0.1))
        assert r1.coefficient(1, 0) == pytest.approx(2.0, abs=1e-10)
        assert r2.coefficient(1, 0) == pytest.approx(2.0, abs=1e-10)
        assert r1.coefficient(1, 1) == pytest.approx(0.5, abs=1e-10)
        assert r2.coefficient(1, 1) == pytest.approx(0.5, abs=1e-10)

    def test_jackknife_subsample_consistency(self):
        basis = power_basis([-1, 0, 1], scale_anchor=1e-2)
        all_samples = laurent_samples(n=64)
        full = fit_expansion(all_samples, basis)
        odd = fit_expansion(all_samples[1::2], basis)
        for i, (a, b) in enumerate(zip(full.coefficients, odd.coefficients)):
            assert abs(a - b) <= 3 * max(full.stability[i], 1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        coeffs=st.lists(st.floats(min_value=-5, max_value=5).filter(lambda c: abs(c) > 1e-3),
                        min_size=1, max_size=4),
        anchor=st.sampled_from([1.0, 0.1, 3.0]),
    )
    def test_oracle_recovery_property(self, coeffs, anchor):
        exps = [Fraction(k - 1, 2) for k in range(len(coeffs))]
        xs = geometric_grid(0.05, 5.0, 24)
        samples = []
        for x in xs:
            y = sum(c * x ** float(p) for c, p in zip(coeffs, exps))
            samples.append((x, y, 1.0))
        report = fit_expansion(samples, power_basis(exps, scale_anchor=anchor))
        for got, want in zip(report.coefficients, coeffs):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def two_factorization_fit(samples, basis):
    """The reference fit: an SVD for the condition estimate ahead of lstsq,
    and each jackknife fold rebuilding and reweighting its own design.
    Returns (coefficients, residual_rms, condition_estimate, stability)."""
    def solve(x, y, w):
        a = fitkit._design_matrix(x, basis)
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
        return fitkit._raw_coefficients(basis, c_norm), rms, condition

    x, y, w = fitkit._unpack_samples(samples)
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
        basis = power_basis([-1, 0, 1, 2], scale_anchor=1e-2)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
                mock.patch.object(fitkit, "_design_matrix",
                                  wraps=fitkit._design_matrix) as design:
            fit_expansion(laurent_samples(), basis)
            assert design.call_count == 1
            detect_log_term(laurent_samples(), 0, basis)
            assert design.call_count == 3
        assert svd.call_count == 0

    def test_ill_conditioned_fold_raises(self):
        # the full design spans x = 1, 2, 3; the fold that drops the last
        # quarter keeps only x = 1, where the columns 1 and x coincide
        samples = [(1.0, 1.0)] * 6 + [(2.0, 2.5), (3.0, 2.9)]
        basis = power_basis([0, 1])
        x, y, w = fitkit._unpack_samples(samples)
        sw = np.sqrt(w)
        _, _, condition = fitkit._solve(fitkit._design_matrix(x, basis) * sw[:, None],
                                        y * sw, basis)
        assert condition < 1e2
        with pytest.raises(IllConditionedBasisError):
            fit_expansion(samples, basis)
        with pytest.raises(IllConditionedBasisError):
            two_factorization_fit(samples, basis)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        terms=st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 1)),
                       min_size=1, max_size=5, unique=True),
        anchor=st.floats(1e-3, 1e3),
        lo=st.floats(1e-4, 1.0),
        span=st.floats(2.0, 1e4),
        extra=st.integers(0, 40),
        weighted=st.booleans(),
        data=st.data(),
    )
    def test_matches_the_two_factorization_fit(self, terms, anchor, lo, span, extra,
                                               weighted, data):
        basis = AsymptoticBasis(tuple((Fraction(k, 2), q) for k, q in terms), anchor)
        xs = geometric_grid(lo, lo * span, len(terms) + 2 + extra)
        # 1/y^2, the default weight, stays finite and nonzero
        y_values = st.floats(-1e3, 1e3).filter(lambda v: v == 0 or abs(v) > 1e-100)
        ys = data.draw(st.lists(y_values, min_size=len(xs), max_size=len(xs)))
        if weighted:
            ws = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(xs),
                                    max_size=len(xs)))
            samples = list(zip(xs, ys, ws))
        else:
            samples = list(zip(xs, ys))
        try:
            coeffs, rms, condition, stability = two_factorization_fit(samples, basis)
        except IllConditionedBasisError:
            with pytest.raises(IllConditionedBasisError):
                fit_expansion(samples, basis)
            return
        report = fit_expansion(samples, basis)
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
        samples = [(x, x * math.log(x) + x) for x in xs]
        det = detect_log_term(samples, 1, power_basis([1], scale_anchor=0.1))
        assert det.present
        assert det.magnitude == pytest.approx(1.0, rel=1e-6)

    def test_synthetic_log_absent(self):
        xs = geometric_grid(0.01, 1.0, 40)
        samples = [(x, x) for x in xs]
        det = detect_log_term(samples, 1, power_basis([1], scale_anchor=0.1))
        assert not det.present

    def test_cylinder_trace_has_no_log_at_t0(self):
        det = detect_log_term(laurent_samples(), 0,
                              power_basis([-1, 0, 1, 2], scale_anchor=1e-2))
        assert not det.present

    def test_rejects_duplicate_log_column(self):
        basis = AsymptoticBasis(((Fraction(1), 0), (Fraction(1), 1)))
        with pytest.raises(ValueError):
            detect_log_term([(1.0, 1.0)] * 8, 1, basis)


class TestBasisBuilders:
    def test_heat_shape(self):
        b = heat_basis(1, 3)
        assert [p for p, _ in b.terms] == [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
        assert all(q == 0 for _, q in b.terms)

    def test_cylinder_log_slots(self):
        b = cylinder_basis(1, 4, include_logs=True)
        logs = [(p, q) for p, q in b.terms if q == 1]
        assert logs == [(Fraction(1), 1), (Fraction(3), 1)]

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
