import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, strategies as st

from spectrace import (
    finite_spectrum,
    geometric_grid,
    interval_spectrum,
    load_spectrum,
    product_spectrum,
    torus_spectrum,
)
from spectrace import fitkit, riesz, spectra, traces, verify
from spectrace.cli import main
from spectrace.verify import run_verification

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENERGY_ROW = "casimir energy -e_(d+1)/2"
RIESZ_SUM_GRID = riesz.riesz_sum_grid


def energy_row(rows):
    (row,) = [r for r in rows if r.name == ENERGY_ROW]
    return row


def test_run_verification_runs_without_the_cli():
    code = ("import sys; from spectrace import interval_spectrum; "
            "from spectrace.verify import run_verification; "
            "rows = run_verification(interval_spectrum(1.0, 'dirichlet')); "
            "print(len(rows), all(r.passed for r in rows), "
            "'spectrace.cli' in sys.modules, 'argparse' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["12", "True", "False", "False"]


class TestConstructorEnergies:
    @pytest.mark.parametrize("length", [1e-3, 1.0, math.pi, 10.0])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_interval(self, length, bc):
        assert interval_spectrum(length, bc).energy == -math.pi / (24.0 * length)

    @pytest.mark.parametrize("circumference", [1e-3, 1.5, 2.0 * math.pi])
    def test_torus(self, circumference):
        assert torus_spectrum(circumference).energy == -math.pi / (6.0 * circumference)

    def test_products_files_and_finite_lists_have_none(self, tmp_path):
        path = tmp_path / "three.spec"
        path.write_text("dim 1\nenvelope 0 1\n1 1\n2 1\n3 1\n", encoding="utf-8")
        iv = interval_spectrum(1.0, "dirichlet")
        assert product_spectrum(iv, torus_spectrum(1.5)).energy is None
        assert load_spectrum(path).energy is None
        assert finite_spectrum(1, [(1.0, 1)]).energy is None


def test_verify_reads_the_energy_from_the_spectrum_not_its_label():
    # the interval's first 2000 frequencies under the interval's label: a
    # finite list, so no closed form, whatever the label says
    fake = finite_spectrum(1, [(n * math.pi, 1) for n in range(1, 2001)],
                           label="interval:length=1.0:bc=dirichlet")
    row = energy_row(run_verification(fake))
    assert row.expected is None
    assert row.note == "no closed form for this recipe"

    row = energy_row(run_verification(interval_spectrum(1.0, "dirichlet")))
    assert row.expected == -math.pi / 24.0
    assert row.passed


def riesz_grids(monkeypatch, spectrum):
    """The grids over which run_verification evaluates its Riesz means, by
    variable."""
    grids = {}

    def capture(s, alpha, variable, grid):
        assert variable not in grids  # one grid of means a variable
        assert alpha == s.dim + 3
        grids[variable] = list(grid)
        return RIESZ_SUM_GRID(s, alpha, variable, grid)

    monkeypatch.setattr(riesz, "riesz_sum_grid", capture)
    rows = run_verification(spectrum)
    return rows, grids


def dirichlet_square(side):
    iv = interval_spectrum(side, "dirichlet")
    return product_spectrum(iv, iv)


class TestRieszWindows:
    @pytest.mark.parametrize("s", [
        interval_spectrum(1.0, "dirichlet"),
        interval_spectrum(2.5, "neumann"),
        torus_spectrum(1.5),
    ], ids=["dirichlet", "neumann", "torus"])
    def test_one_dimensional_lambda_top_is_nominal(self, monkeypatch, s):
        # 96 points over omega in [20, 200] w1, and their squares in lambda
        _rows, grids = riesz_grids(monkeypatch, s)
        w1 = verify._first_positive_omega(s)
        assert grids["omega"] == geometric_grid(20.0 * w1, 200.0 * w1, 96)
        assert grids["lambda"] == [w * w for w in grids["omega"]]

    def test_square_lambda_grid_is_the_omega_grid_squared(self, monkeypatch):
        # the lambda grid is no longer placed against the term cap: it ends at
        # (200 w1)^2 = 80,000, where the envelope counts about 63k terms
        s = dirichlet_square(math.pi)
        _rows, grids = riesz_grids(monkeypatch, s)
        assert grids["omega"] == geometric_grid(20.0 * math.sqrt(2.0), 200.0 * math.sqrt(2.0), 96)
        assert grids["lambda"] == [w * w for w in grids["omega"]]

    def test_square_lambda_top_scales_with_the_side(self, monkeypatch):
        tops = []
        for side in (0.5, 5.0):
            s = dirichlet_square(side)
            _rows, grids = riesz_grids(monkeypatch, s)
            w1 = verify._first_positive_omega(s)
            tops.append(grids["lambda"][-1] / (w1 * w1))
        assert tops[0] == pytest.approx(tops[1], rel=1e-12)

    def test_truncated_square_file_stays_inside_its_data(self, monkeypatch, tmp_path):
        # the Dirichlet square of side pi up to omega = 250 (15,263 terms),
        # below the nominal top 200 w1 = 283: means past 250 would count a
        # list that has ended
        w, m = dirichlet_square(math.pi).arrays(250.0)
        path = tmp_path / "square.spec"
        path.write_text("dim 2\nenvelope 0 1\n" + "".join(
            f"{a!r} {b}\n" for a, b in zip(w.tolist(), m.tolist())), encoding="utf-8")
        s = load_spectrum(path)
        assert s.truncated_at == 250.0 and len(w) == 15_263
        rows, grids = riesz_grids(monkeypatch, s)
        assert grids["omega"] == geometric_grid(20.0 * math.sqrt(2.0), 250.0, 96)
        assert grids["lambda"][-1] == 250.0 ** 2
        assert all(r.passed for r in rows), [r.line() for r in rows if not r.passed]

    def test_data_ending_below_the_grid_is_refused(self):
        # the omega grid starts at 20 w1 = 20
        s = finite_spectrum(1, [(float(n), 1) for n in range(1, 20)], envelope=(1.0, 1.0))
        with pytest.raises(ValueError, match="data end at omega = 19, below the Riesz grids' bottom omega = 20 w1 = 20"):
            run_verification(s)

    def test_cap_past_the_float_range_is_no_cap(self, monkeypatch):
        # w_cap = 4e305, whose square overflows: over any cap, so the heat
        # window has no floor, and the Riesz grids run to their nominal top
        s = finite_spectrum(1, [(n * math.pi, 1) for n in range(1, 3001)],
                            envelope=(1.0, 1e-300))
        _rows, grids = riesz_grids(monkeypatch, s)
        assert grids["lambda"][-1] == (200.0 * math.pi) ** 2


def nd_rectangle():
    return product_spectrum(interval_spectrum(1.1, "neumann"), interval_spectrum(1.65, "dirichlet"))


def unit_cube():
    iv = interval_spectrum(1.0, "dirichlet")
    return product_spectrum(product_spectrum(iv, iv), iv)


@pytest.mark.parametrize("size", [10.0**k for k in range(-40, 41, 5)])
@pytest.mark.parametrize("dim", [1, 2])
def test_probe_finds_w1_at_any_length_scale(size, dim):
    # the probe starts at the envelope's one-term frequency, not at omega = 1,
    # so neither a long side (4e8 rows up to omega = 1) nor a short one (no
    # term below omega = 4^59) stops it
    s = interval_spectrum(size, "dirichlet") if dim == 1 else dirichlet_square(size)
    w1 = verify._first_positive_omega(s)
    omegas, _ = s.arrays(2.0 * math.pi * math.sqrt(dim) / size)
    assert w1 == omegas[omegas > 0][0]
    assert w1 == pytest.approx(math.pi * math.sqrt(dim) / size, rel=1e-14)


@pytest.mark.parametrize("size", [1e-150, 1e-100, 2.0**-300, 1.0, 2.0**300, 1e155])
@pytest.mark.parametrize("ratio", [1.0, 1.5])
def test_probe_finds_a_products_w1_at_any_length_scale(size, ratio):
    # D(L) x T(ratio L): the folded envelope's C2 scales as L, not L^2, and
    # overflows at 1e155, so the probe starts from the factors' first
    # frequencies; the torus zero mode puts w1 at the interval's pi / L
    s = product_spectrum(interval_spectrum(size, "dirichlet"), torus_spectrum(ratio * size))
    w1 = verify._first_positive_omega(s)
    omegas, _ = s.arrays(2.0 * math.pi / size)
    assert w1 == omegas[omegas > 0][0]
    assert w1 == pytest.approx(math.pi / size, rel=1e-14)


@pytest.mark.parametrize("envelope", [None, (2.0, 5e-324)], ids=["c2-zero", "c2-overflows"])
def test_probe_starts_at_the_list_end_without_a_usable_c2(envelope):
    # C2 = 0 (the default envelope of a finite list) or a C2^(-1/d) past the
    # float range: the probe starts at the list's end, past omega = 4^59
    s = finite_spectrum(1, [(0.0, 1), (2.5e40, 1), (7e40, 2)], envelope=envelope)
    assert verify._first_positive_omega(s) == 2.5e40


# the verify-2d shapes, then 1-D spectra and the unit cube
SHAPES = {
    "square": lambda: dirichlet_square(1.7),
    "neumann-dirichlet": nd_rectangle,
    "dirichlet-torus": lambda: product_spectrum(interval_spectrum(1.1, "dirichlet"),
                                                torus_spectrum(1.65)),
    "interval": lambda: interval_spectrum(1.0, "dirichlet"),
    "short-interval": lambda: interval_spectrum(1e-3, "dirichlet"),
    "torus": lambda: torus_spectrum(1.5),
    "cube": unit_cube,
}


@pytest.mark.parametrize("shape", ["interval", "square", "dirichlet-torus"])
def test_one_riesz_order_per_variable(monkeypatch, shape):
    # one grid of means a variable, at the one order d + 3, feeds every
    # Riesz row and the Riesz energy
    calls = []
    real = riesz.riesz_sum_grid

    def spy(s, alpha, variable, grid):
        calls.append((alpha, variable, len(grid)))
        return real(s, alpha, variable, grid)

    monkeypatch.setattr(riesz, "riesz_sum_grid", spy)
    s = SHAPES[shape]()
    run_verification(s)
    assert sorted(calls) == [(s.dim + 3, "lambda", 96), (s.dim + 3, "omega", 96)]


@pytest.mark.parametrize("shape", ["interval", "square", "cube"])
def test_each_distinct_fit_runs_once(monkeypatch, shape):
    # d = 1, 2, 3: the heat fit, the lambda mean's fit, the omega mean's base
    # fit and its fit with the column of each of its two log detections, and
    # the t^0 detection's fit with its column; each detection starts from
    # the fit before it.  One counter stands for the one function under every
    # name it is called by, so no call is counted twice
    fits = []
    real = fitkit.fit_expansion

    def counted(x, y, basis, weights=None):
        fits.append((tuple(x), basis))
        return real(x, y, basis, weights)

    for module in (fitkit, riesz, verify):
        monkeypatch.setattr(module, "fit_expansion", counted)
    s = SHAPES[shape]()
    assert s.dim == {"interval": 1, "square": 2, "cube": 3}[shape]
    run_verification(s)
    assert len(fits) == 6
    assert len(set(fits)) == 6


@pytest.mark.parametrize("size", [10.0**k for k in range(-3, 3)])
@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "torus"])
def test_one_dimensional_shapes_pass_every_row(kind, size):
    # every row at every length scale, the omega-Riesz energy within
    # 1e-4 |E| of the closed form, printed in the row the benchmark's
    # energy metric reads (its pattern below)
    s = torus_spectrum(size) if kind == "torus" else interval_spectrum(size, kind)
    rows = run_verification(s)
    assert all(r.passed for r in rows), [r.line() for r in rows if not r.passed]
    row = energy_row(rows)
    assert row.expected == s.energy
    assert row.delta <= 1e-4 * abs(s.energy) == row.tol
    text = "\n".join(r.line() for r in rows)
    (value,) = re.findall(r"casimir energy -e_\(d\+1\)/2\s+(\S+)", text)
    assert float(value) == pytest.approx(row.computed, rel=1e-8)


SCALED = {
    "dirichlet": lambda size: interval_spectrum(size, "dirichlet"),
    "neumann": lambda size: interval_spectrum(size, "neumann"),
    "torus": torus_spectrum,
    "dirichlet-torus": lambda size: product_spectrum(interval_spectrum(size, "dirichlet"),
                                                     torus_spectrum(size)),
}


# lengths at which fits in raw units put their coefficients past the float
# range; up to 1.3e155 and down to 4.7e-152 verify's windows fit in it
EXTREME_LENGTHS = (1e130, 1e150, 1e155, 1e-100, 1e-130, 1e-150)


@pytest.mark.parametrize("kind", sorted(SCALED))
def test_rows_and_verdicts_do_not_depend_on_the_length_scale(kind):
    # every window and tolerance is placed in units of w1 and every fit is
    # made in units of a power of two near it, so a rescaled spectrum prints
    # the same rows with the same verdicts, at powers of ten, at powers of
    # two (where each window rescales exactly) and at the extreme lengths;
    # a product's heat window is not floored by its envelope, which does not
    # scale with it, and its w1 is probed from its factors'
    sizes = ([10.0**k for k in (-6, -3, 0, 3, 6)] + [2.0**k for k in range(-400, 401, 50)]
             + list(EXTREME_LENGTHS))
    tables = []
    for size in sizes:
        rows = run_verification(SCALED[kind](size))
        assert all(r.passed for r in rows), (size, [r.line() for r in rows if not r.passed])
        tables.append([(r.name, r.passed) for r in rows])
    assert all(table == tables[0] for table in tables), tables


@pytest.mark.parametrize("length", [1.0, 1e-3, 1e130])
def test_a_kept_omega_log_column_moves_e_s_by_its_log_of_the_unit(monkeypatch, length):
    # where the omega fit keeps f_s t^(s-d) log t, fitted in units of
    # u = 2^e, the raw e_s is u^(s-d) (e_s + f_s ln u): a log coefficient
    # of 1 in those units at s = d + 1 moves the e_2 row by u ln u and the
    # energy by -u ln u / 2
    s = interval_spectrum(length, "dirichlet")
    e = math.frexp(verify._first_positive_omega(s))[1]
    plain = {r.name: r.computed for r in run_verification(s)}
    real = verify.riesz_to_trace

    def with_log(variable, *args):
        cyl = real(variable, *args)
        if variable != "omega":
            return cyl
        return type(cyl)(cyl.dim, tuple(
            dataclasses.replace(t, coefficient=1.0) if (t.exponent, t.log_power) == (1, 1) else t
            for t in cyl.terms))

    monkeypatch.setattr(verify, "riesz_to_trace", with_log)
    logged = {r.name: r.computed for r in run_verification(s)}
    shift = math.ldexp(e * math.log(2), e)
    assert logged["e_2 undetermined by heat side"] == pytest.approx(
        plain["e_2 undetermined by heat side"] + shift, rel=1e-12)
    assert logged[ENERGY_ROW] == pytest.approx(plain[ENERGY_ROW] - shift / 2, rel=1e-12)
    assert {k: v for k, v in logged.items() if "e_2" not in k and k != ENERGY_ROW} == \
        {k: v for k, v in plain.items() if "e_2" not in k and k != ENERGY_ROW}


def test_no_cylinder_kernel_is_summed(monkeypatch):
    # the cylinder side of every row is the omega-Riesz fit: the only trace
    # verify certifies is the heat trace (a product's through its factors)
    kinds = []
    real = traces._certify

    def spy(s, kind, *args):
        kinds.append(kind)
        return real(s, kind, *args)

    monkeypatch.setattr(traces, "_certify", spy)
    for shape in ("interval", "dirichlet-torus"):
        run_verification(SHAPES[shape]())
    assert kinds and set(kinds) == {"heat"}


def rule_tol(row, s, w1):
    """The one tolerance rule: 1e-4 of the expected value or of its scale
    w1^(s-d), 1e-4 |E| for the energy; s from the row's name, d for the
    index-term row."""
    if row.name == ENERGY_ROW:
        return 1e-4 * abs(row.expected)
    order = s.dim if row.name.startswith("no log t") else int(row.name[2])
    return 1e-4 * max(abs(row.expected), w1 ** (order - s.dim))


@pytest.mark.parametrize("shape", ["interval", "short-interval", "torus", "square",
                                   "neumann-dirichlet", "dirichlet-torus", "cube"])
def test_every_checked_row_uses_the_one_rule(shape):
    s = SHAPES[shape]()
    w1 = verify._first_positive_omega(s)
    rows = run_verification(s)
    checked = [r for r in rows if r.expected is not None]
    assert len(checked) >= 9
    for row in checked:
        assert row.tol == rule_tol(row, s, w1), row.line()


def counted_enumerations(monkeypatch, s):
    """The list to which s's enumerations after verify's w1 probe append
    their extents."""
    calls = []
    probe = verify._first_positive_omega

    def counted_probe(spectrum):
        w1 = probe(spectrum)
        calls.clear()
        return w1

    monkeypatch.setattr(verify, "_first_positive_omega", counted_probe)
    enumerate_ = s._enumerate
    object.__setattr__(s, "_enumerate", lambda omega_max: calls.append(omega_max)
                       or enumerate_(omega_max))
    return calls


# at the lower budgets the lambda grid tops out where the envelope counts the
# cap, and the first stage still reads every later stage's terms; the cube is
# over them
@pytest.mark.parametrize("budget, shape", [
    pytest.param(budget, shape, id=shape if budget == 10_000_000
                 else f"{shape}-{budget}")
    for budget in (10_000_000, 400_000, 100_000) for shape in SHAPES
    if budget == 10_000_000 or shape != "cube"])
def test_one_enumeration_after_the_probe(monkeypatch, budget, shape):
    # the traces and both Riesz grids read the one enumeration made up front
    monkeypatch.setattr(spectra, "DEFAULT_MAX_TERMS", budget)
    s = SHAPES[shape]()
    calls = counted_enumerations(monkeypatch, s)
    rows = run_verification(s)
    assert len(calls) == 1, calls
    assert len(rows) >= 11


def test_enumeration_past_the_budget_raises_in_its_stage(monkeypatch):
    # the cube's heat trace reads its factors, so its first enumeration is the
    # lambda grid's, over a budget of 400,000: that stage raises, naming the
    # omega of the one enumeration made
    monkeypatch.setattr(spectra, "DEFAULT_MAX_TERMS", 400_000)
    s = unit_cube()
    calls = counted_enumerations(monkeypatch, s)
    with pytest.raises(spectra.ToleranceError, match="term budget exhausted") as err:
        run_verification(s)
    assert len(calls) == 1, calls
    assert f"omega = {calls[0]!r}" in str(err.value)


@given(st.floats(min_value=2.0**-511, max_value=2.0**512))
def test_lambda_and_omega_grids_share_one_extent(w):
    # sqrt(fl(w * w)) = w in binary64 wherever the square is normal (Boldo,
    # "Stupid is as stupid does", 2015), so the lambda grid, the omega grid
    # squared, enumerates to the omega grid's extent
    assume(sys.float_info.min <= w * w < math.inf)
    assert spectra._key_extent("lambda", w * w) == spectra._key_extent("omega", w)


def cli_verify(capsys, spec):
    code = main(["verify", "--spectrum", spec])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("spec", [
    *(f"interval:length={size}:bc=dirichlet" for size in ("1e20", "1e60", "1e100")),
    *(f"torus:circumference={size}" for size in ("1e20", "1e60", "1e100")),
    *(f"product:(interval:length={size}:bc=dirichlet)x(interval:length={size}:bc=dirichlet)"
      for size in ("1e20", "1e70")),
])
def test_long_shapes_pass(capsys, spec):
    # the key slack scales with the key down to the float's underflow scale:
    # an absolute slack of 1e-12 enumerated these to omega = 1e-12, past the
    # term budget, whatever w1 was
    code, out, err = cli_verify(capsys, spec)
    assert code == 0, err
    assert out.splitlines()[-1].startswith("PASS  overall:"), out


@pytest.mark.parametrize("spec", [
    *(f"interval:length={size}:bc=dirichlet" for size in ("1e-50", "1e-70", "1e-100")),
    "product:(interval:length=1e-30:bc=dirichlet)x(interval:length=1e-30:bc=dirichlet)",
    "product:(interval:length=1e-30:bc=dirichlet)x(torus:circumference=1.5e-30)",
    "torus:circumference=1e-60",
    "interval:length=1e-60:bc=neumann",
])
def test_short_shapes_pass_every_row(capsys, spec):
    # the Riesz grids' moment table stops at the last chunk that a point in
    # the x^alpha range reads; built to the top point, its chunks overflowed
    # at these scales, which the suite's warnings-as-errors turns into a raise
    code, out, err = cli_verify(capsys, spec)
    assert code == 0, err
    assert all(line.startswith("PASS") for line in out.splitlines()[1:]), out


@pytest.mark.parametrize("f", [0.0, 0.3])
def test_cylinder_fit_keeps_a_log_column_only_where_the_data_have_one(monkeypatch, f):
    # cylinder-trace-shaped samples of a d = 1 shape, sum e_s t^(s-1) plus
    # f t log t, through coeffs' fit: both log columns (t log t, t^3 log t)
    # are tried; t log t is kept and its coefficient recovered where f != 0,
    # and the fit stays log-free where f = 0
    e = [1.0, -0.5, 1.0 / 12.0, 0.0, -1.0 / 720.0]
    ts = geometric_grid(1e-3, 1e-1, 64)
    values = [math.fsum(c * t ** (s - 1) for s, c in enumerate(e)) + f * t * math.log(t)
              for t in ts]
    monkeypatch.setattr(verify, "trace_grid",
                        lambda *args: [SimpleNamespace(value=v) for v in values])
    rep = verify.fit_trace(interval_spectrum(1.0, "dirichlet"), "cylinder", ts, 1e-13, 4)
    assert [p for p, q in rep.basis.terms if q == 1] == ([1] if f else [])
    if f:
        assert rep.coefficient(1, 1) == pytest.approx(f, rel=1e-6)
    for s, c in enumerate(e):
        assert rep.coefficient(s - 1) == pytest.approx(c, abs=1e-6)


@pytest.mark.parametrize("spec", [
    "interval:length=1e-160:bc=dirichlet",
    "interval:length=1e160:bc=dirichlet",
    "interval:length=1e165:bc=dirichlet",
    "torus:circumference=1e166",
    "interval:length=1e168:bc=dirichlet",
])
def test_windows_past_the_float_range_are_refused(capsys, spec):
    # w1^2 overflows, is subnormal or underflows to 0: one documented error
    # (exit 2) naming w1, not a window of infinite or zero times and not a
    # ZeroDivisionError out of the window arithmetic
    code, out, err = cli_verify(capsys, spec)
    assert code == 2
    assert "w1 = " in err and "past the float range" in err, err


def test_a_list_ending_past_the_float_range_gets_a_verdict(capsys, tmp_path):
    # its last omega squared overflows: the heat floor it sets is 0, not an
    # OverflowError
    path = tmp_path / "far_end.spec"
    path.write_text("dim 1\nenvelope 0 1\n" + "".join(f"{n}.0 1\n" for n in range(1, 3000))
                    + "1e200 1\n")
    code, out, err = cli_verify(capsys, f"file:{path}")
    assert code in (0, 1), err
    assert "overall:" in out.splitlines()[-1]


def loose_list(tmp_path, c2):
    """A file of the terms n = 1..2999, each of multiplicity 1, under the
    envelope C1 = 0 and the given C2."""
    path = tmp_path / f"loose_{c2}.spec"
    path.write_text(f"dim 1\nenvelope 0 {c2}\n" + "".join(f"{n}.0 1\n" for n in range(1, 3000)))
    return path


def test_probe_reaches_the_end_of_a_list_under_a_loose_envelope():
    # 60 steps of 4x from C2^(-1) = 1e-300 end near omega = 1e-264; the
    # probe at the list's end finds omega = 1
    s = finite_spectrum(1, [(float(n), 1) for n in range(1, 3000)], envelope=(0.0, 1e300))
    assert verify._first_positive_omega(s) == 1.0


@pytest.mark.parametrize("c2", ["1e160", "1e200", "1e300"])
def test_loose_envelopes_are_refused(capsys, tmp_path, c2):
    # the envelope counts the 400k-term cap by omega = 4e5 / C2, whose square
    # is subnormal or underflows: one documented error (exit 2) naming the
    # envelope, not a ZeroDivisionError and not a window of infinite times
    code, out, err = cli_verify(capsys, f"file:{loose_list(tmp_path, c2)}")
    assert code == 2
    assert out == ""
    assert f"the envelope C1 = 0.0, C2 = {float(c2)!r}" in err and "past the float range" in err
    assert "Traceback" not in err


def test_a_loose_envelope_in_range_gets_a_verdict(capsys, tmp_path):
    code, out, err = cli_verify(capsys, f"file:{loose_list(tmp_path, '1e30')}")
    assert code == 1, err
    assert out.splitlines()[-1] == "FAIL  overall: 8/12 checks passed"
