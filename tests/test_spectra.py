import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectrace import (
    Spectrum,
    SpectrumFormatError,
    counting,
    finite_spectrum,
    interval_spectrum,
    load_spectrum,
    product_spectrum,
    torus_spectrum,
)
from spectrace import spectra
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

    def test_default_labels_tell_different_lists_apart(self):
        # the default label digests the terms: lists that differ only in
        # their terms (same envelope and end) neither compare nor hash equal,
        # and the same terms get the same label
        a = finite_spectrum(1, [(1.0, 1), (3.0, 1)])
        b = finite_spectrum(1, [(2.0, 1), (3.0, 1)])
        c = finite_spectrum(1, [(1.0, 2), (3.0, 1)], envelope=a.envelope)
        assert a.label.startswith("finite:")
        assert a != b and a != c and len({hash(a), hash(b), hash(c)}) == 3
        assert finite_spectrum(1, [(1, 1), (3, 1)]) == a
        assert finite_spectrum(1, [(1.0, 1), (3.0, 1)], label="mine").label == "mine"

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


# -- the block loader against the per-line reference reader -----------------

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


@st.composite
def plain_spectrum_files(draw):
    """A file whose body is plain, "<digits>.<digits> <digits>" lines: the
    repr of floats of 15 to 17 significant digits with random
    multiplicities, at times out of order or with multiplicity 0."""
    # mantissa 10^14..10^17 times 10^-16..10^-10: reprs between 0.01 and 1e7
    omegas = sorted(draw(st.lists(
        st.builds(lambda m, e: float(f"{m}e{e}"),
                  st.integers(10**14, 10**17 - 1), st.integers(-16, -10)),
        min_size=1, max_size=40)))
    mults = draw(st.lists(st.one_of(st.integers(1, 20), st.integers(1, 2**63 - 1)),
                          min_size=len(omegas), max_size=len(omegas)))
    defect = draw(st.sampled_from((None, None, None, "non-monotone", "mult-0")))
    if defect == "non-monotone" and len(omegas) > 1 and omegas[0] < omegas[-1]:
        omegas[0], omegas[-1] = omegas[-1], omegas[0]
    if defect == "mult-0":
        mults[draw(st.integers(0, len(mults) - 1))] = 0
    header = f"dim {draw(st.integers(1, 3))}\n"
    if draw(st.booleans()):
        header += "envelope 0 1\n"
    return header + "".join(f"{w!r} {m}\n" for w, m in zip(omegas, mults))


@pytest.fixture(scope="module")
def spectrum_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "spectrum.txt"


def _outcome(read, path):
    try:
        return read(path)
    except (SpectrumFormatError, UnicodeDecodeError) as exc:
        return (type(exc).__name__, str(exc))


def _loaded(path):
    s = load_spectrum(path)
    omegas, mults = s.arrays(math.inf)
    return (s.dim, s.envelope, omegas.tobytes(), mults.tolist(), s.truncated_at.hex())


def _reference(path):
    with open(path, "r", encoding="utf-8") as fh:
        dim, envelope, _, omegas, mults = _read_lines(fh.readlines())
    last = omegas[-1] if omegas else 0.0
    return (dim, envelope, np.array(omegas, dtype=np.float64).tobytes(), mults, last.hex())


def _terms(n, start=1.0):
    """n data lines "<omega> 1", omega rising by 1/8 from start."""
    return "".join(f"{start + k / 8!r} 1\n" for k in range(n))


def _plain_edge_body(n):
    """n plain lines of 20 characters: a block of 2^k characters after the
    first line ends inside a line, since 20 divides no 2^k + 20."""
    return "".join(f"{1000 + k / 7:.12f} 1\n" for k in range(n))


# files at the seams of the streamed loader: where the header pass stops,
# the end of the file, the body's blocks, and the decoder's reads
SEAM_FILES = {
    "empty": b"",
    "comments-only": b"# a\n\n# b\n",
    "header-only-no-newline": b"dim 2\nenvelope 1 2",
    "gap-before-body": b"dim 1\n# c\n\n \t\nenvelope 0 1\n# d\n\n1 1\n2 1\n",
    "one-term-no-newline": b"dim 1\n1.5 3",
    "lone-cr": b"dim 1\renvelope 0 1\r# c\r\r1 1\r2 1_0\r3 2",
    "non-monotone-at-60003": ("dim 1\n" + _terms(60001) + "0.5 1\n" + _terms(10, 1e6)).encode(),
    "envelope-after-60k": ("dim 1\n" + _terms(60000) + "envelope 0 1\n").encode(),
    "bad-byte-in-header": b"dim 1\nenvelope 0 \xff\n1 1\n",
    "bad-byte-past-64k": ("dim 1\n" + _terms(8000)).encode() + b"\xff 1\n"
                         + _terms(10, 1e6).encode(),
    # a grammar error before an undecodable byte: the byte wins, as when the
    # whole file is decoded before it is read
    "header-error-then-bad-byte": ("dimm 1\n" + _terms(8000)).encode() + b"\xff 1\n",
    "body-error-then-bad-byte": ("dim 1\n2 1\n1 1\n" + _terms(8000)).encode() + b"\xff 1\n",
    # the plain-block reader: a line across its first block's edge, a plain
    # first block then a comment (it declines mid-file and loadtxt reads the
    # rest), no final newline, 18- to 20-digit mantissas (it takes only
    # the 18), "5." / ".5" (it declines), and a plain body whose grammar
    # breaks past a block
    "plain-line-across-block-edge": ("dim 1\n" + _plain_edge_body(4000)).encode(),
    "plain-then-comment": ("dim 1\n" + _terms(10000) + "# tail\n" + _terms(10, 1e6)).encode(),
    "plain-no-final-newline": b"dim 1\nenvelope 0 1\n1.5 2\n2.25 3",
    "plain-19-digit-mantissa": b"dim 1\n1.5 1\n1.234567890123456789 1\n2.5 1\n",
    "plain-18-digit-mantissa": b"dim 1\n1.5 1\n1.23456789012345678 1\n2.5 1\n",
    # np.fromstring saturates 20-digit integers at 2^63 - 1
    "plain-20-digit-mantissa": b"dim 1\n1.5 1\n1.2345678901234567890 1\n2.5 1\n",
    "plain-20-digit-multiplicity": b"dim 1\n1.5 1\n2.5 12345678901234567890\n",
    "point-tokens": b"dim 1\n.5 1\n5. 2\n",
    "plain-non-monotone-past-a-block": ("dim 1\n" + _terms(10000) + "0.5 1\n").encode(),
    # loadtxt blocks: a run of comments longer than a block between plain
    # lines (a block with no data line adds no terms), and a form feed and
    # a U+2028 inside lines, which str.splitlines would split but iterating
    # the file does not
    "comment-run-past-a-block": ("dim 1\n" + _terms(8000) + "# c\n" * 20000
                                 + _terms(10, 1e6)).encode(),
    "form-feed-and-line-separator": ("dim 1\n" + _terms(8000) + "2000.5\x0c2\n2001.5 1\u2028\n"
                                     + "2002.5 1 # \x0c\u2028 c\n" + _terms(10, 1e6)).encode(),
}


class TestLoaderAgainstReference:
    """load_spectrum reads the body in one pass of plain and np.loadtxt
    blocks, or with the per-line reader where that pass fails; either way it
    must return what the per-line reader alone returns, bit for bit, or
    raise its message."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=st.one_of(spectrum_files(), plain_spectrum_files()))
    def test_matches_per_line_reader(self, spectrum_path, text):
        with open(spectrum_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(_loaded, spectrum_path) == _outcome(_reference, spectrum_path)

    @pytest.mark.parametrize("name", SEAM_FILES)
    def test_seams_match_per_line_reader(self, tmp_path, name):
        p = tmp_path / "seam.txt"
        p.write_bytes(SEAM_FILES[name])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(_loaded, p) == _outcome(_reference, p)

    @pytest.mark.parametrize("name", SEAM_FILES)
    def test_seams_without_the_plain_reader(self, tmp_path, monkeypatch, name):
        # a platform whose long double is too short for exact quotients
        monkeypatch.setattr(spectra, "_EXACT_QUOTIENTS", False)
        p = tmp_path / "seam.txt"
        p.write_bytes(SEAM_FILES[name])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(_loaded, p) == _outcome(_reference, p)

    def test_plain_bodies_take_the_plain_reader(self, tmp_path, monkeypatch):
        # a plain body is read by _plain_block, and loadtxt never runs
        if not spectra._EXACT_QUOTIENTS:
            pytest.skip("no extended long double on this platform")
        p = tmp_path / "plain.txt"
        p.write_bytes(SEAM_FILES["plain-line-across-block-edge"])
        monkeypatch.setattr(np, "loadtxt", None)
        assert _loaded(p) == _reference(p)

    def test_loadtxt_reads_from_the_declined_block_on(self, tmp_path, monkeypatch):
        # the plain blocks before the comment's block are read once, by
        # _plain_block; loadtxt gets each later line once, and nothing before
        if not spectra._EXACT_QUOTIENTS:
            pytest.skip("no extended long double on this platform")
        text = SEAM_FILES["plain-then-comment"]
        p = tmp_path / "seam.txt"
        p.write_bytes(text)
        fed = []
        loadtxt = np.loadtxt

        def counting_loadtxt(lines, *args, **kwargs):
            lines = list(lines)
            fed.extend(line.rstrip("\n") for line in lines)
            return loadtxt(lines, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        assert _loaded(p) == _reference(p)
        body = text.decode().split("\n")[1:-1]
        assert "# tail" in fed and body[0] not in fed
        assert fed == body[len(body) - len(fed):]
        assert len(fed) < len(body) // 2

    # tokens whose quotient M / 10^f rounds, in the 64-bit long double, onto a
    # float64 midpoint, so that the cast to float64 rounds the wrong way
    # (found by a search over random midpoints), and exact midpoints, where
    # the cast is right by ties-to-even: 2^53 + odd, and 2^53 - 1/2 and
    # 2^54 - 1, half the smaller gap below a power of two
    ROUNDED_ONTO_MIDPOINTS = ("960.81569649536317", "871.44738406645439",
                              "658.59818908678659")
    EXACT_MIDPOINTS = ("9007199254740993.0", "9007199254740995.0",
                       "9007199254740991.5", "18014398509481983.0")

    def test_midpoint_tokens_are_read_again(self, monkeypatch):
        if not spectra._EXACT_QUOTIENTS:
            pytest.skip("no extended long double on this platform")
        tokens = self.ROUNDED_ONTO_MIDPOINTS + self.EXACT_MIDPOINTS
        for token in self.ROUNDED_ONTO_MIDPOINTS:
            whole, fraction = token.split(".")
            quotient = np.longdouble(int(whole + fraction)) / spectra._POW10[len(fraction)]
            assert float(quotient.astype(np.float64)) != float(token)
        reread = []

        def spy(token):
            reread.append(token)
            return float(token)

        monkeypatch.setattr(spectra, "float", spy, raising=False)
        text = "1.5 1\n" + "".join(f"{t} 2\n" for t in tokens)
        omegas, mults = spectra._plain_block(text)
        assert set(tokens) <= set(reread)
        assert omegas.tolist() == [1.5] + [float(t) for t in tokens]
        assert mults.tolist() == [1] + [2] * len(tokens)

    def test_listed_arrays_are_held_once(self):
        # contiguous float64 / int64 arrays are kept as given, not copied
        omegas, mults = np.array([1.0, 2.0]), np.array([1, 3])
        held = spectra._listed_spectrum(1, "listed", None, omegas, mults).arrays(math.inf)
        assert np.shares_memory(held[0], omegas) and np.shares_memory(held[1], mults)

    def test_midpoint_tokens_load_as_float_reads_them(self, tmp_path):
        tokens = sorted(self.ROUNDED_ONTO_MIDPOINTS + self.EXACT_MIDPOINTS, key=float)
        p = tmp_path / "midpoints.txt"
        p.write_text("dim 1\n" + "".join(f"{t} 1\n" for t in tokens))
        assert load_spectrum(p).up_to(math.inf) == [(float(t), 1) for t in tokens]

    # a 28-digit fraction is past the exact powers of ten (_POW10), and a
    # 19-digit mantissa past 2^63 is one np.fromstring clamps to int64's top
    @pytest.mark.parametrize("body", [
        "0.1234567890123456789012345678 1\n1.5 2\n",
        "1.5 1\n9.999999999999999999 2\n",
    ], ids=["28-digit-fraction", "19-digit-mantissa"])
    def test_plain_reader_declines_tokens_it_cannot_read_exactly(self, tmp_path, body):
        assert spectra._plain_block(body) is None
        p = tmp_path / "long-tokens.txt"
        p.write_text("dim 1\n" + body)
        terms = [(float(w), int(m)) for w, m in map(str.split, body.splitlines())]
        assert load_spectrum(p).up_to(math.inf) == terms

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
        ("dim x\n1 1\n", "bad dimension at line 1"),
        ("dim 0\n1 1\n", "dimension must be positive at line 1"),
        ("dim 1\nenvelope a 1\n1 1\n", "bad envelope constants at line 2"),
        ("dim 1\nenvelope -1 1\n1 1\n", "envelope constants must be nonnegative at line 2"),
    ])
    def test_body_errors_name_their_line(self, tmp_path, text, message):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(SpectrumFormatError, match=message):
            load_spectrum(p)

    def test_constructors_reject_what_the_reader_rejects(self):
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            Spectrum(dim=0, label="empty", envelope=None, truncated_at=None,
                     _enumerate=lambda omega_max: (np.empty(0), np.empty(0, dtype=np.int64)))
        with pytest.raises(ValueError, match="nondecreasing"):
            finite_spectrum(1, [(2.0, 1), (1.0, 1)])


class TestLoadMemory:
    """load_spectrum holds no line list: a 75k-line file peaks at the two
    arrays it keeps plus the final checks' work arrays (about 25 bytes a
    term) wherever its blocks go, to _plain_block or to np.loadtxt, and at
    the per-line reader's Python lists plus those arrays (57) where the
    per-line reader decides."""

    TERMS = 75_000

    @pytest.fixture(scope="class")
    def omegas(self):
        rng = np.random.default_rng(19)
        return np.sort(rng.uniform(1.0, 500.0, self.TERMS)).tolist()

    def peak_per_term(self, path):
        load_spectrum(path)  # warm-up: imports and one-time numpy state
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            load_spectrum(path)
            return (tracemalloc.get_traced_memory()[1] - held) / self.TERMS
        finally:
            tracemalloc.stop()

    # the last line is plain, carries a comment (np.loadtxt reads its block)
    # or a multiplicity only Python reads
    @pytest.mark.parametrize("last_mult, limit", [("1", 32), ("1 # last", 30), ("1_0", 70)],
                             ids=["plain", "one-pass", "per-line"])
    def test_peak_bytes_per_term(self, tmp_path, omegas, last_mult, limit):
        p = tmp_path / "long.spec"
        with open(p, "w", encoding="utf-8") as fh:
            fh.write("# 75k terms\ndim 2\nenvelope 0 0.1\n")
            fh.writelines(f"{w!r} 1\n" for w in omegas[:-1])
            fh.write(f"{omegas[-1]!r} {last_mult}\n")
        assert self.peak_per_term(p) <= limit

    def test_peak_with_a_comment_at_the_middle_line(self, tmp_path, omegas):
        # np.loadtxt reads the blocks from the comment's on into the same
        # arrays, with no table of the whole body and no copy of its columns
        p = tmp_path / "long.spec"
        half = self.TERMS // 2
        with open(p, "w", encoding="utf-8") as fh:
            fh.write("# 75k terms\ndim 2\nenvelope 0 0.1\n")
            fh.writelines(f"{w!r} 1\n" for w in omegas[:half])
            fh.write("# the middle line\n")
            fh.writelines(f"{w!r} 1\n" for w in omegas[half:])
        assert self.peak_per_term(p) <= 30

    @pytest.mark.parametrize("exact_quotients", [True, False], ids=["plain-reader", "loadtxt"])
    def test_matches_per_line_reader(self, tmp_path, monkeypatch, omegas, exact_quotients):
        # with the platform flag off the body goes to np.loadtxt, as on a
        # machine whose long double is too short for exact quotients
        monkeypatch.setattr(spectra, "_EXACT_QUOTIENTS", exact_quotients and spectra._EXACT_QUOTIENTS)
        p = tmp_path / "long.spec"
        with open(p, "w", encoding="utf-8") as fh:
            fh.write("# 75k terms\ndim 2\nenvelope 0 0.1\n")
            fh.writelines(f"{w!r} {k % 3 + 1}\n" for k, w in enumerate(omegas))
        assert _loaded(p) == _reference(p)
