import math

import pytest
from hypothesis import given, settings, strategies as st

from spectrace import (
    SpectrumFormatError,
    counting,
    finite_spectrum,
    interval_spectrum,
    load_spectrum,
    product_spectrum,
    torus_spectrum,
)

PI = math.pi


def expand_multiplicities(terms):
    out = []
    for w, m in terms:
        out.extend([w] * m)
    return out


class TestInterval:
    def test_dirichlet_unit_frequencies(self):
        s = interval_spectrum(PI, "dirichlet")
        assert s.up_to(5.5) == [(1.0, 1), (2.0, 1), (3.0, 1), (4.0, 1), (5.0, 1)]

    def test_neumann_adds_zero_mode(self):
        s = interval_spectrum(PI, "neumann")
        assert s.up_to(2.5) == [(0.0, 1), (1.0, 1), (2.0, 1)]

    def test_unit_length_scaling(self):
        s = interval_spectrum(1.0, "dirichlet")
        got = [w for w, _ in s.up_to(10.0)]
        assert got == pytest.approx([PI, 2 * PI, 3 * PI])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            interval_spectrum(0.0, "dirichlet")
        with pytest.raises(ValueError):
            interval_spectrum(-2.0, "neumann")

    def test_rejects_bad_bc(self):
        with pytest.raises(ValueError):
            interval_spectrum(1.0, "periodic")


class TestTorus:
    def test_frequencies_and_multiplicities(self):
        s = torus_spectrum(2 * PI)
        assert s.up_to(2.5) == [(0.0, 1), (1.0, 2), (2.0, 2)]

    def test_counting_brute_force(self):
        s = torus_spectrum(2 * PI)
        # modes 0, +-1, +-2 have lambda <= 4.5
        assert counting(s, 4.5) == 5

    def test_unit_circumference(self):
        s = torus_spectrum(1.0)
        got = s.up_to(15.0)
        assert got[0] == (0.0, 1)
        assert got[1][0] == pytest.approx(2 * PI)
        assert got[1][1] == 2

    def test_rejects_bad_circumference(self):
        with pytest.raises(ValueError):
            torus_spectrum(-1.0)


class TestProduct:
    def test_square_membrane_eigenvalues(self):
        s = product_spectrum(interval_spectrum(PI, "dirichlet"),
                             interval_spectrum(PI, "dirichlet"))
        assert s.dim == 2
        lams = [w * w for w in expand_multiplicities(s.up_to(3.0))]
        assert lams == pytest.approx([2.0, 5.0, 5.0, 8.0])

    def test_exact_ties_coalesce(self):
        s = product_spectrum(interval_spectrum(PI, "dirichlet"),
                             interval_spectrum(PI, "dirichlet"))
        terms = s.up_to(2.5)
        # lambda = 5 from (1,2) and (2,1) lands on one term with multiplicity 2
        assert terms[1] == (math.sqrt(5.0), 2)

    def test_zero_mode_factor_is_identity_on_eigenvalues(self):
        base = interval_spectrum(PI, "dirichlet")
        zero = finite_spectrum(1, [(0.0, 1)], label="zero-mode")
        prod = product_spectrum(base, zero)
        assert prod.dim == 2
        assert prod.up_to(6.0) == base.up_to(6.0)

    def test_torus_product_count(self):
        t = torus_spectrum(2 * PI)
        assert counting(product_spectrum(t, t), 1.5) == 5

    def test_commutes_as_multiset(self):
        a = interval_spectrum(PI, "dirichlet")
        b = torus_spectrum(3.0)
        ab = product_spectrum(a, b).up_to(9.0)
        ba = product_spectrum(b, a).up_to(9.0)
        assert sorted(expand_multiplicities(ab)) == pytest.approx(
            sorted(expand_multiplicities(ba)))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        la=st.floats(min_value=0.5, max_value=4.0),
        lb=st.floats(min_value=0.5, max_value=4.0),
        cutoff=st.floats(min_value=1.0, max_value=12.0),
    )
    def test_commutes_property(self, la, lb, cutoff):
        a = interval_spectrum(la, "dirichlet")
        b = interval_spectrum(lb, "neumann")
        ab = expand_multiplicities(product_spectrum(a, b).up_to(cutoff))
        ba = expand_multiplicities(product_spectrum(b, a).up_to(cutoff))
        assert len(ab) == len(ba)
        assert sorted(ab) == pytest.approx(sorted(ba))


class TestCounting:
    def test_interval_basic(self):
        s = interval_spectrum(PI, "dirichlet")
        assert counting(s, 10.0) == 3  # 1, 4, 9

    def test_right_continuity_at_eigenvalue(self):
        s = interval_spectrum(PI, "dirichlet")
        assert counting(s, 9.0) == 3  # boundary eigenvalue counted

    def test_negative_argument(self):
        s = interval_spectrum(PI, "dirichlet")
        assert counting(s, -1.0) == 0

    def test_nondecreasing_integer_valued(self):
        s = torus_spectrum(5.0)
        values = [counting(s, x) for x in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 33.3]]
        assert all(isinstance(v, int) for v in values)
        assert values == sorted(values)

    def test_jump_size_equals_multiplicity(self):
        s = torus_spectrum(2 * PI)
        lam = 1.0  # omega = 1 has multiplicity 2
        assert counting(s, lam) - counting(s, lam - 1e-9) == 2

    def test_total_beyond_int64_is_exact(self):
        # each multiplicity fits int64, their sum does not
        s = finite_spectrum(1, [(1.0, 2**62), (1.5, 2**62), (2.0, 2**62)])
        assert counting(s, 10.0) == 3 * 2**62
        assert counting(s, 1.0) == 2**62

    def test_weyl_law_window(self):
        # N(omega^2)/omega within [1 - 2/omega, 1] for the unit-frequency interval
        s = interval_spectrum(PI, "dirichlet")
        for w in [10.0, 17.3, 50.0, 123.4, 500.0]:
            ratio = counting(s, w * w) / w
            assert 1.0 - 2.0 / w <= ratio <= 1.0


class TestEnvelopes:
    @pytest.mark.parametrize("s", [
        interval_spectrum(PI, "dirichlet"),
        interval_spectrum(2.0, "neumann"),
        torus_spectrum(2 * PI),
        product_spectrum(interval_spectrum(PI, "dirichlet"),
                         interval_spectrum(PI, "dirichlet")),
        product_spectrum(torus_spectrum(3.0), interval_spectrum(1.5, "neumann")),
    ])
    def test_envelope_dominates_counting(self, s):
        c1, c2 = s.envelope
        for lam in [0.1, 1.0, 3.7, 10.0, 44.4, 200.0, 1234.5]:
            assert counting(s, lam) <= c1 + c2 * lam ** (s.dim / 2) + 1e-9


class TestLoad:
    def test_round_trip_interval_prefix(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("# interval prefix\ndim 1\n1 1\n2 1\n3 1\n")
        s = load_spectrum(p)
        assert s.dim == 1
        assert s.up_to(10.0) == [(1.0, 1), (2.0, 1), (3.0, 1)]
        assert s.envelope is None
        assert s.truncated_at == 3.0

    def test_envelope_header(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("dim 1\nenvelope 0 1.0\n1 1\n2 1\n")
        s = load_spectrum(p)
        assert s.envelope == (0.0, 1.0)

    def test_non_monotone_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("dim 1\n2 1\n1 1\n")
        with pytest.raises(SpectrumFormatError, match="non-monotone at line 3"):
            load_spectrum(p)

    def test_bad_multiplicity_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("dim 1\n1 0\n")
        with pytest.raises(SpectrumFormatError, match="line 2"):
            load_spectrum(p)

    def test_missing_dim_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 1\n2 1\n")
        with pytest.raises(SpectrumFormatError, match="dim"):
            load_spectrum(p)

    def test_empty_body_gives_empty_spectrum(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("dim 1\n")
        s = load_spectrum(p)
        assert s.up_to(100.0) == []
        assert counting(s, 50.0) == 0

    def test_scientific_notation(self, tmp_path):
        p = tmp_path / "sci.txt"
        p.write_text("dim 2\n1.5e-1 1\n2.25E0 3\n")
        s = load_spectrum(p)
        assert s.up_to(10.0) == [(0.15, 1), (2.25, 3)]
