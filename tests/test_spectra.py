import math
import warnings

import numpy as np
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
from spectrace.spectra import _read_lines

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

    def test_multiplicity_past_int64_raises(self):
        # 2**40 * 2**40 used to wrap to 0, and counting returned 0
        a = finite_spectrum(1, [(1.0, 2**40)])
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            counting(product_spectrum(a, a), 10.0)

    def test_coalesced_multiplicity_past_int64_raises(self):
        # two 2**62 terms coalescing at one eigenvalue used to give -2**63
        a = finite_spectrum(1, [(1.0, 2**62)])
        b = finite_spectrum(1, [(0.0, 1), (0.0, 1)])
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            product_spectrum(a, b).arrays(5.0)

    def test_large_multiplicities_within_int64_are_exact(self):
        # the bound 2**62 * 1 * 2 is over the limit, the terms are not
        a = finite_spectrum(1, [(1.0, 2**62)])
        b = finite_spectrum(1, [(0.0, 1), (1.0, 1)])
        omegas, mults = product_spectrum(a, b).arrays(5.0)
        assert omegas.tolist() == [1.0, math.sqrt(2.0)]
        assert mults.dtype == np.int64 and mults.tolist() == [2**62, 2**62]
        assert counting(product_spectrum(a, b), 10.0) == 2**63


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


# -- the one-pass loader against the per-line reference reader ---------------

SEPARATORS = (" ", "\t", "  ", " \t ", "\f", "\v", "\xa0", "　")
BLANK_LINES = ("", "   ", "\t", "\xa0", "　", "\f", "# a comment", "  # dim 3")
# Arabic-Indic and fullwidth digits: float() and int() read them, numpy does not
NON_ASCII_DIGITS = ("٠١٢٣٤٥٦٧٨٩",
                    "０１２３４５６７８９")
# token styles both readers accept, and those only Python's float/int accept
SHARED_STYLES = ("plain", "plus", "sci", "bare-point", "trailing-point", "zeros", "neg-zero")
PYTHON_ONLY_STYLES = ("underscore", "digits0", "digits1")
DEFECTS = ("one-field", "three-fields", "mult-0", "mult-neg", "mult-2**63", "mult-float",
           "nan-omega", "neg-omega", "non-monotone", "misplaced-envelope", "second-dim",
           "empty-body")


def _digits(text: str, style: str) -> str:
    return text.translate(str.maketrans("0123456789", NON_ASCII_DIGITS[style == "digits1"]))


def _omega_token(w: float, style: str) -> str:
    """w written in the given style, so that float() reads it back exactly."""
    text = repr(w)
    if style == "plus":
        return "+" + text  # +5.0
    if style == "sci" and math.isfinite(w):
        return f"{w:.17E}"  # 1.00000000000000000E+05
    if style == "bare-point" and text.startswith("0."):
        return text[1:]  # .5
    if style == "trailing-point" and w.is_integer():
        return f"{int(w)}."  # 5.
    if style == "zeros" and math.isfinite(w):
        return "000" + text  # 0007.0
    if style == "neg-zero" and w == 0.0:
        return "-0.0"
    if style == "underscore" and w.is_integer() and w >= 10:
        return text[0] + "_" + text[1:]  # 1_2.0
    if style.startswith("digits"):
        return _digits(text, style)
    return text


def _mult_token(m: int, style: str) -> str:
    text = str(m)
    if style == "plus":
        return "+" + text
    if style == "zeros":
        return "000" + text  # 00007
    if style == "underscore" and m >= 10:
        return text[0] + "_" + text[1:]  # 1_000
    if style.startswith("digits"):
        return _digits(text, style)
    return text


@st.composite
def spectrum_files(draw):
    """The text of a spectrum file: mostly well formed, with at most one
    defect, and in a quarter of the files tokens only Python reads."""
    defect = draw(st.sampled_from((None,) * 6 + DEFECTS + ("non-monotone",) * 3))
    styles = SHARED_STYLES
    if draw(st.integers(0, 3)) == 3:
        styles += PYTHON_ONLY_STYLES
    omegas = sorted(draw(st.lists(
        st.one_of(st.integers(0, 2000).map(float),
                  st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)),
        max_size=12)))
    if omegas and draw(st.booleans()):
        omegas.append(math.inf)
    if defect == "empty-body":
        omegas = []
    if defect == "non-monotone":
        rises = [i for i in range(1, len(omegas)) if omegas[i - 1] < omegas[i]]
        if rises:
            i = draw(st.sampled_from(rises))
            omegas[i - 1], omegas[i] = omegas[i], omegas[i - 1]
        else:
            omegas += [7.0, 3.0]
    mults = [draw(st.one_of(st.integers(1, 20), st.integers(1, 2**63 - 1))) for _ in omegas]

    def sep():
        return draw(st.sampled_from(SEPARATORS))

    body = [_omega_token(w, draw(st.sampled_from(styles))) + sep()
            + _mult_token(m, draw(st.sampled_from(styles)))
            for w, m in zip(omegas, mults)]
    bad = {
        "one-field": "5",
        "three-fields": "5" + sep() + "1" + sep() + "1",
        "mult-0": "5" + sep() + "0",
        "mult-neg": "5" + sep() + "-1",
        "mult-2**63": "5" + sep() + str(2**63),
        "mult-float": "5" + sep() + "5.0",
        "nan-omega": "nan" + sep() + "1",
        "neg-omega": "-1.5" + sep() + "1",
        "misplaced-envelope": "envelope 0 1",
        "second-dim": "dim 2",
    }.get(defect)
    if bad is not None:
        body.insert(draw(st.integers(0, len(body))), bad)

    lines = [draw(st.sampled_from(BLANK_LINES)) for _ in range(draw(st.integers(0, 2)))]
    lines.append("dim" + sep() + str(draw(st.integers(1, 3))))
    if draw(st.booleans()):
        lines.append("envelope" + sep() + "0" + sep() + repr(draw(st.floats(0.0, 10.0))))
    for text in body:
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
        if draw(st.integers(0, 5)) == 0:
            text += draw(st.sampled_from(("  # after data", "#", "\t# 1 1")))
        lines.append(draw(st.sampled_from(("", " ", "\t"))) + text)
    return "".join(line + draw(st.sampled_from(("\n", "\r\n"))) for line in lines)


@pytest.fixture(scope="module")
def spectrum_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "spectrum.txt"


def _outcome(read):
    try:
        return read()
    except SpectrumFormatError as exc:
        return ("error", str(exc))


class TestLoaderAgainstReference:
    """load_spectrum reads the body in one np.loadtxt pass, or with the
    per-line reader where that pass fails; either way it must return what
    the per-line reader alone returns, bit for bit, or raise its message."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=spectrum_files())
    def test_matches_per_line_reader(self, spectrum_path, text):
        with open(spectrum_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

        def loaded():
            s = load_spectrum(spectrum_path)
            omegas, mults = s.arrays(math.inf)
            return (s.dim, s.envelope, omegas.tobytes(), mults.tolist(),
                    s.truncated_at.hex())

        def reference():
            with open(spectrum_path, "r", encoding="utf-8") as fh:
                dim, envelope, _, omegas, mults = _read_lines(fh.readlines())
            last = omegas[-1] if omegas else 0.0
            return (dim, envelope, np.array(omegas, dtype=np.float64).tobytes(), mults,
                    last.hex())

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(loaded) == _outcome(reference)

    @pytest.mark.parametrize("text, terms", [
        ("dim 1\n1 1_000\n", [(1.0, 1000)]),
        ("dim 1\n1_0.5 2\n", [(10.5, 2)]),
        ("dim 1\n٣ ７\n", [(3.0, 7)]),
        ("dim 1\r\n+.5\t+5\r\n5.\v00007 # c\r\n\r\ninf 1\n",
         [(0.5, 5), (5.0, 7), (math.inf, 1)]),
    ])
    def test_python_only_and_shared_tokens(self, tmp_path, text, terms):
        p = tmp_path / "s.txt"
        p.write_bytes(text.encode("utf-8"))
        assert load_spectrum(p).up_to(math.inf) == terms

    @pytest.mark.parametrize("text, message", [
        ("dim 1\n1 1\n2 5.0\n", "unparsable term at line 3"),
        ("dim 1\n1 1\n# c\n\n2 1 1\n", "expected '<omega> <multiplicity>' at line 5"),
        ("dim 1\n1 1\nnan 1\n", "omega must be >= 0 at line 3"),
        ("dim 1\n1 1\n2 -1\n", "multiplicity must be >= 1 at line 3"),
        (f"dim 1\n1 {2**63}\n", "multiplicity exceeds 9223372036854775807 at line 2"),
        ("dim 1\n1 1\nenvelope 0 1\n", "misplaced envelope line at line 3"),
        ("dim 1\n1 1\ndim 2\n", "unparsable term at line 3"),
    ])
    def test_body_errors_name_their_line(self, tmp_path, text, message):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(SpectrumFormatError, match=message):
            load_spectrum(p)
