"""Non-finite, extreme and one-sided inputs either return or raise a
documented error.

The checks that once hung, and the trace fuzzing, run in a subprocess with a
timeout, so a regression fails the test instead of stalling the suite.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spectrace import (
    SpectrumFormatError,
    finite_spectrum,
    interval_spectrum,
    load_spectrum,
    product_spectrum,
    riesz_mean,
    torus_spectrum,
    weyl_remainder,
)
from spectrace.cli import main
from spectrace.riesz import riesz_mean_grid

SRC = str(Path(__file__).resolve().parent.parent / "src")
INTERVAL_SPEC = "interval:length=1:bc=dirichlet"
TIMEOUT_S = 60
ENV = {**os.environ, "PYTHONPATH": SRC}


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=TIMEOUT_S, env=ENV)


class TestNonFiniteTime:
    def test_traces_raise_promptly(self):
        proc = run_python(
            "import math\n"
            "from spectrace import interval_spectrum, heat_trace, cylinder_trace, "
            "cylinder_trace_derivative\n"
            "s = interval_spectrum(1.0, 'dirichlet')\n"
            "for fn in (heat_trace, cylinder_trace, cylinder_trace_derivative):\n"
            "    for t in (math.inf, -math.inf, math.nan):\n"
            "        try:\n"
            "            fn(s, t)\n"
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
from hypothesis import given, settings, strategies as st
from spectrace import (cylinder_trace, cylinder_trace_derivative, heat_trace,
                       interval_spectrum, product_spectrum, torus_spectrum)
from spectrace.traces import ToleranceError

SPECTRA = [
    lambda: interval_spectrum(1.0, "dirichlet"),
    lambda: interval_spectrum(0.3, "neumann"),
    lambda: torus_spectrum(2.0),
    lambda: product_spectrum(interval_spectrum(1.0, "neumann"), torus_spectrum(1.7)),
]

@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(SPECTRA),
       st.sampled_from([heat_trace, cylinder_trace, cylinder_trace_derivative]),
       st.floats(min_value=1e-300, max_value=1e300),
       st.floats(min_value=1e-300, max_value=1.0),
       st.integers(min_value=1, max_value=10**7))
def check(make, fn, t, tol, max_terms):
    try:
        sample = fn(make(), t, tol, max_terms)
    except (ValueError, ToleranceError):
        return
    assert math.isfinite(sample.value) and sample.tail_bound <= tol, sample

check()
print("ok")
"""


class TestExtremeTraceInputs:
    def test_traces_return_finite_or_raise_documented_errors(self):
        # t in [1e-300, 1e300], tol in [1e-300, 1], max_terms in [1, 1e7]
        proc = run_python(TRACE_FUZZ)
        assert proc.returncode == 0 and proc.stdout.split() == ["ok"], proc.stderr


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
            riesz_mean(interval_spectrum(1.0, "dirichlet"), 0, variable, math.inf)

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
