"""Non-finite, extreme and one-sided inputs either return or raise a
documented error.

The checks that once hung, and the trace fuzzing, run in a subprocess with a
timeout, so a regression fails the test instead of stalling the suite.
"""

import math
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from spectrace import (
    SpectrumFormatError,
    ToleranceError,
    finite_spectrum,
    interval_spectrum,
    load_spectrum,
    product_spectrum,
    torus_spectrum,
    weyl_remainder,
)
from spectrace.cli import main
from spectrace.riesz import riesz_mean_grid

SRC = str(Path(__file__).resolve().parent.parent / "src")
INTERVAL_SPEC = "interval:length=1:bc=dirichlet"
TIMEOUT_S = 60
# address-space cap of the subprocess checks: a grid that tries to allocate
# past it fails with MemoryError instead of exhausting the machine
MEMORY_CAP = 2 << 30
ENV = {**os.environ, "PYTHONPATH": SRC}


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=TIMEOUT_S, env=ENV, preexec_fn=_cap_memory)


class TestNonFiniteTime:
    def test_traces_raise_promptly(self):
        proc = run_python(
            "import math\n"
            "from spectrace import interval_spectrum, trace_grid\n"
            "s = interval_spectrum(1.0, 'dirichlet')\n"
            "for kind in ('heat', 'cylinder', 'dcylinder'):\n"
            "    for t in (math.inf, -math.inf, math.nan):\n"
            "        try:\n"
            "            trace_grid(s, kind, [t])\n"
            "        except ValueError as exc:\n"
            "            print(exc)\n"
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 9
        assert all(line.startswith("t must be positive and finite") for line in lines)

    def test_cli_grid_bounds_exit_2(self):
        proc = run_python(
            "from spectrace.cli import main\n"
            "for bound in ('--tmax=inf', '--tmin=nan', '--tmin=-inf', '--tmax=nan'):\n"
            f"    print(main(['trace', '--spectrum', {INTERVAL_SPEC!r}, bound]))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2"] * 4
        assert proc.stderr.count("tmin and tmax must be positive and finite") == 4


TRACE_FUZZ = """
import math
from unittest import mock
from hypothesis import given, settings, strategies as st
from spectrace import spectra
from spectrace import interval_spectrum, product_spectrum, torus_spectrum, trace_grid
from spectrace.traces import ToleranceError

SPECTRA = [
    lambda: interval_spectrum(1.0, "dirichlet"),
    lambda: interval_spectrum(0.3, "neumann"),
    lambda: torus_spectrum(2.0),
    lambda: product_spectrum(interval_spectrum(1.0, "neumann"), torus_spectrum(1.7)),
]

@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(SPECTRA),
       st.sampled_from(["heat", "cylinder", "dcylinder"]),
       st.floats(min_value=1e-300, max_value=1e300),
       st.floats(min_value=1e-300, max_value=1.0),
       st.integers(min_value=1, max_value=10**7))
def check(make, kind, t, tol, budget):
    try:
        with mock.patch.object(spectra, "DEFAULT_MAX_TERMS", budget):
            (sample,) = trace_grid(make(), kind, [t], tol)
    except (ValueError, ToleranceError):
        return
    assert math.isfinite(sample.value) and sample.tail_bound <= tol, sample

check()
print("ok")
"""


class TestExtremeTraceInputs:
    def test_traces_return_finite_or_raise_documented_errors(self):
        # t in [1e-300, 1e300], tol in [1e-300, 1], the term budget in [1, 1e7]
        proc = run_python(TRACE_FUZZ)
        assert proc.returncode == 0 and proc.stdout.split() == ["ok"], proc.stderr


RIESZ_FUZZ = """
import math
from hypothesis import example, given, settings, strategies as st
from spectrace import (finite_spectrum, interval_spectrum, product_spectrum,
                       torus_spectrum, weyl_remainder)
from spectrace.riesz import riesz_mean_grid
from spectrace.traces import ToleranceError

SPECTRA = {
    "finite": lambda: finite_spectrum(1, [(0.0, 1), (1.0, 2), (2.5, 3)]),
    "interval": lambda: interval_spectrum(1.0, "dirichlet"),
    "torus": lambda: torus_spectrum(1000.0),
    "product": lambda: product_spectrum(interval_spectrum(1.0, "neumann"), torus_spectrum(1.7)),
}
# log-uniform in [1e-300, 1e300]
xs = st.floats(min_value=math.log(1e-300), max_value=math.log(1e300)).map(math.exp)

@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(sorted(SPECTRA)), st.integers(0, 4),
       st.sampled_from(["lambda", "omega"]), st.lists(xs, min_size=1, max_size=4))
@example("finite", 2, "lambda", [1.0, math.inf])
@example("interval", 1, "omega", [math.inf])
@example("finite", 1, "omega", [1.7e308])
@example("torus", 0, "omega", [1.0, 1.7e308])
@example("torus", 0, "omega", [1.0, 1e10])  # past the term budget
def check(name, alpha, variable, grid):
    s = SPECTRA[name]()
    try:
        values = riesz_mean_grid(s, alpha, variable, grid)
    except (ValueError, ToleranceError):
        values = []
    try:
        values += [e for _, e in weyl_remainder(s, alpha, [1.0, -0.5, 0.25, 0.0, 1.0], grid)]
    except (ValueError, ToleranceError):
        pass
    assert all(math.isfinite(v) for v in values), values

check()
print("ok")
"""


class TestExtremeRieszInputs:
    def test_grids_return_finite_or_raise_documented_errors(self):
        # x log-uniform in [1e-300, 1e300] plus inf, 1.7e308 and a grid past
        # the term budget; alpha 0-4, both variables
        proc = run_python(RIESZ_FUZZ)
        assert proc.returncode == 0 and proc.stdout.split() == ["ok"], proc.stderr


class TestRieszTermBudget:
    @pytest.mark.parametrize("xmax", ["1e10", "1.7e308"])
    def test_torus_grid_past_the_budget_exits_3(self, capsys, xmax):
        code = main(["riesz", "--spectrum", "torus:circumference=1000", "--variable", "omega",
                     "--xmin", "1", "--xmax", xmax, "--points", "4"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "term budget" in captured.err and "Traceback" not in captured.err

    def test_lattice_past_the_float_range_raises(self):
        # omega / step passes the float range: an infinite count of rows
        with pytest.raises(ToleranceError, match="term budget"):
            torus_spectrum(1000.0).arrays(1.7e308)

    def test_finite_factor_product_exits_3(self, tmp_path):
        # the finite factor does not exempt the product: the interval alone
        # would need 3.2e9 rows (25 GiB), refused before it allocates
        (tmp_path / "one.spec").write_text("dim 1\nenvelope 1 0\n1 1\n")
        spec = f"product:(file:{tmp_path / 'one.spec'})x({INTERVAL_SPEC})"
        proc = run_python(
            "import sys\n"
            "from spectrace.cli import main\n"
            f"sys.exit(main(['riesz', '--spectrum', {spec!r}, '--variable', 'omega',\n"
            "                '--xmin', '1', '--xmax', '1e10']))\n"
        )
        assert proc.returncode == 3, proc.stderr
        assert "term budget" in proc.stderr and "Traceback" not in proc.stderr

    def test_flat_torus_verify_reports(self):
        # its lambda-Riesz grid needs under 1M pairs, though the envelope
        # (which folds the 1-D cross terms in) counts 2.3e7 terms; every row
        # passes
        proc = run_python(
            "import sys\n"
            "from spectrace.cli import main\n"
            "t = 'torus:circumference=1.3'\n"
            "sys.exit(main(['verify', '--spectrum', f'product:({t})x({t})']))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "PASS  overall: 11/11 checks passed"

    def test_cube_verify_reports(self):
        # its lambda-Riesz grid ends where the envelope counts the 400k cap,
        # not at 1e6 w1^2 (1.01e9 rows); the three b_s rows it feeds pass
        proc = run_python(
            "import sys\n"
            "from spectrace.cli import main\n"
            "d = 'interval:length=1:bc=dirichlet'\n"
            "sys.exit(main(['verify', '--spectrum', f'product:(product:({d})x({d}))x({d})']))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "PASS  overall: 11/11 checks passed"
        riesz_rows = [line for line in proc.stdout.splitlines() if " a_" in line]
        assert len(riesz_rows) == 3, proc.stdout
        assert all(line.startswith("PASS  b_") for line in riesz_rows), riesz_rows

    def test_4d_cube_verify_exits_2(self, capsys):
        # its energy e_5 is past verify's orders 0..4, so it is refused before
        # any trace (its omega-Riesz grid, to 100 w1, would need 4.18e7 rows)
        d = "interval:length=1:bc=dirichlet"
        sq = f"product:({d})x({d})"
        start = time.perf_counter()
        code = main(["verify", "--spectrum", f"product:({sq})x({sq})"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "d <= 3" in captured.err and "Traceback" not in captured.err
        assert elapsed < 1.0


class TestInfiniteCutoff:
    @pytest.mark.parametrize("s", [
        interval_spectrum(1.0, "dirichlet"),
        torus_spectrum(2.0),
        product_spectrum(interval_spectrum(1.0, "neumann"), torus_spectrum(1.0)),
        product_spectrum(finite_spectrum(1, [(1.0, 1)]), interval_spectrum(1.0, "dirichlet")),
    ])
    def test_arrays_rejects_inf_on_infinite_spectrum(self, s):
        with pytest.raises(ValueError, match="infinite spectrum"):
            s.arrays(math.inf)

    def test_arrays_inf_on_finite_spectrum_returns_everything(self):
        s = finite_spectrum(1, [(1.0, 2), (3.0, 1)])
        w, m = s.arrays(math.inf)
        assert w.tolist() == [1.0, 3.0] and m.tolist() == [2, 1]

    @pytest.mark.parametrize("variable", ["lambda", "omega"])
    def test_riesz_mean(self, variable):
        with pytest.raises(ValueError, match="infinite spectrum"):
            riesz_mean_grid(interval_spectrum(1.0, "dirichlet"), 0, variable, [math.inf])

    def test_riesz_mean_grid(self):
        with pytest.raises(ValueError, match="infinite spectrum"):
            riesz_mean_grid(interval_spectrum(1.0, "dirichlet"), 1, "lambda", [1.0, math.inf])

    def test_weyl_remainder(self):
        with pytest.raises(ValueError, match="infinite spectrum"):
            weyl_remainder(interval_spectrum(1.0, "dirichlet"), 0, [1.0], [2.0, math.inf])

    def test_riesz_cli_rejects_infinite_xmax(self, capsys):
        assert main(["riesz", "--spectrum", INTERVAL_SPEC, "--xmax", "inf"]) == 2


def riesz_grid(capsys, *flags):
    code = main(["riesz", "--spectrum", INTERVAL_SPEC, "--points", "8", *flags])
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert code == 0 and rows[0] == "x,value"
    xs = [float(row.split(",")[0]) for row in rows[1:]]
    return xs[0], xs[-1]


class TestOneSidedRieszGrid:
    def test_xmax_alone_is_honoured(self, capsys):
        assert riesz_grid(capsys, "--xmax", "5000") == (1e2, 5000.0)

    def test_xmin_alone_is_honoured(self, capsys):
        assert riesz_grid(capsys, "--xmin", "300") == (300.0, 1e4)

    def test_omega_defaults_fill_the_missing_bound(self, capsys):
        assert riesz_grid(capsys, "--variable", "omega", "--xmax", "50") == (10.0, 50.0)


class TestMultiplicityRange:
    def test_file_multiplicity_beyond_int64_names_line(self, tmp_path):
        p = tmp_path / "big.spec"
        p.write_text(f"dim 1\n1.0 1\n2.0 {2**63}\n")
        with pytest.raises(SpectrumFormatError, match="exceeds .* at line 3"):
            load_spectrum(p)

    def test_largest_int64_multiplicity_loads(self, tmp_path):
        p = tmp_path / "edge.spec"
        p.write_text(f"dim 1\n1.0 {2**63 - 1}\n")
        assert load_spectrum(p).up_to(2.0) == [(1.0, 2**63 - 1)]

    def test_finite_spectrum_rejects_multiplicity_beyond_int64(self):
        with pytest.raises(ValueError, match="multiplicity"):
            finite_spectrum(1, [(1.0, 2**63)])


class TestNanFrequency:
    @pytest.mark.parametrize("terms", [
        [(1.0, 1), (math.nan, 1), (0.5, 1)],  # the NaN hides the misordered 0.5
        [(math.nan, 2)],
    ])
    def test_finite_spectrum_rejects_nan(self, terms):
        with pytest.raises(ValueError, match="omega >= 0"):
            finite_spectrum(1, terms)


def big_times_one():
    return product_spectrum(finite_spectrum(1, [(1e200, 1)]), finite_spectrum(1, [(1.0, 1)]))


class TestSquaredFrequencyOverflow:
    """A product squares its factors' omegas; a square or pair sum past the
    float64 limit raises ValueError (and warns nothing) instead of dropping
    the term or returning omega = inf."""

    @pytest.mark.parametrize("omega_max", [1e300, math.inf])
    def test_factor_square_past_float64_raises(self, omega_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"omega\^2, or a pair sum of them\) exceeds the float64 limit"):
                big_times_one().arrays(omega_max)

    def test_pair_sum_past_float64_raises(self):
        # 1e154^2 = 1e308 is finite, the pair sum 2e308 is not
        s = product_spectrum(finite_spectrum(1, [(1e154, 1)]), finite_spectrum(1, [(1e154, 1)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exceeds the float64 limit"):
                s.arrays(math.inf)

    def test_terms_below_the_overflow_still_enumerate(self):
        assert big_times_one().up_to(1.0) == []
        s = product_spectrum(finite_spectrum(1, [(1.0, 1), (1e200, 1)]),
                             finite_spectrum(1, [(1.0, 1)]))
        assert s.up_to(2.0) == [(math.sqrt(2.0), 1)]

    def test_riesz_cli_exits_2(self, capsys, tmp_path):
        (tmp_path / "big.spec").write_text("dim 1\nenvelope 1 0\n1e200 1\n")
        (tmp_path / "one.spec").write_text("dim 1\nenvelope 1 0\n1 1\n")
        spec = f"product:(file:{tmp_path / 'big.spec'})x(file:{tmp_path / 'one.spec'})"
        code = main(["riesz", "--spectrum", spec, "--variable", "omega", "--alpha", "0",
                     "--xmin", "1", "--xmax", "1e300"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "float64 limit" in captured.err
