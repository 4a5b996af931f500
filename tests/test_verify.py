import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spectrace import (
    finite_spectrum,
    interval_spectrum,
    load_spectrum,
    product_spectrum,
    torus_spectrum,
)
from spectrace import spectra, verify
from spectrace.verify import run_verification

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENERGY_ROW = "casimir energy -e_(d+1)/2"


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
    assert proc.stdout.split() == ["16", "True", "False", "False"]


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
    """The grids run_verification hands extract_riesz_coeffs, by variable."""
    grids = {}
    real = verify.extract_riesz_coeffs

    def capture(s, alpha, variable, grid):
        grids.setdefault(variable, []).append(list(grid))
        return real(s, alpha, variable, grid=grid)

    monkeypatch.setattr(verify, "extract_riesz_coeffs", capture)
    rows = run_verification(spectrum)
    # every order of a variable is fitted on the same grid
    assert all(g == grids[v][0] for v in grids for g in grids[v])
    return rows, {v: g[0] for v, g in grids.items()}


def dirichlet_square(side):
    iv = interval_spectrum(side, "dirichlet")
    return product_spectrum(iv, iv)


def w_cap_squared(spectrum):
    # the lambda at which the envelope count C1 + C2 lambda^(d/2) reaches the cap
    c1, c2 = spectrum.envelope
    cap = min(spectra.DEFAULT_MAX_TERMS, 400_000)
    return (((cap - c1) / c2) ** (1.0 / spectrum.dim)) ** 2


class TestRieszWindows:
    @pytest.mark.parametrize("s", [
        interval_spectrum(1.0, "dirichlet"),
        interval_spectrum(2.5, "neumann"),
        torus_spectrum(1.5),
    ], ids=["dirichlet", "neumann", "torus"])
    def test_one_dimensional_lambda_top_is_nominal(self, monkeypatch, s):
        # the envelope counts at most a few thousand terms at 1e6 w1^2
        _rows, grids = riesz_grids(monkeypatch, s)
        w1 = verify._first_positive_omega(s)
        assert grids["lambda"][-1] == 1e6 * w1 * w1
        assert grids["omega"][-1] == 100.0 * w1

    def test_square_lambda_top_is_the_cap(self, monkeypatch):
        s = dirichlet_square(math.pi)
        _rows, grids = riesz_grids(monkeypatch, s)
        assert grids["lambda"][-1] == w_cap_squared(s) < 1e6 * 2.0

    def test_square_lambda_top_scales_with_the_side(self, monkeypatch):
        tops = []
        for side in (0.5, 5.0):
            s = dirichlet_square(side)
            _rows, grids = riesz_grids(monkeypatch, s)
            w1 = verify._first_positive_omega(s)
            tops.append(grids["lambda"][-1] / (w1 * w1))
        assert tops[0] == pytest.approx(tops[1], rel=1e-12)

    def test_truncated_square_file_stays_inside_its_data(self, monkeypatch, tmp_path):
        # the Dirichlet square of side pi up to omega = 300 (21,591 terms):
        # lambda means past 300^2 would count a list that has ended
        w, m = dirichlet_square(math.pi).arrays(300.0)
        path = tmp_path / "square.spec"
        path.write_text("dim 2\nenvelope 0 1\n" + "".join(
            f"{a!r} {b}\n" for a, b in zip(w.tolist(), m.tolist())), encoding="utf-8")
        s = load_spectrum(path)
        assert s.truncated_at == 300.0 and len(w) == 21_591
        rows, grids = riesz_grids(monkeypatch, s)
        assert grids["lambda"][-1] == 300.0 ** 2
        assert grids["omega"][-1] == 100.0 * math.sqrt(2.0)
        assert all(r.passed for r in rows), [r.line() for r in rows if not r.passed]

    def test_data_ending_below_the_grid_is_refused(self):
        # the omega grid starts at 10 w1 = 10
        s = finite_spectrum(1, [(float(n), 1) for n in range(1, 9)], envelope=(1.0, 1.0))
        with pytest.raises(ValueError, match="data end at omega = 8, below the Riesz grids' bottom omega = 10 w1 = 10"):
            run_verification(s)

    def test_cap_past_the_float_range_is_no_cap(self, monkeypatch):
        # w_cap = 4e305, whose square overflows: over any cap, so the lambda
        # grid runs to its nominal top
        s = finite_spectrum(1, [(n * math.pi, 1) for n in range(1, 3001)],
                            envelope=(1.0, 1e-300))
        _rows, grids = riesz_grids(monkeypatch, s)
        assert grids["lambda"][-1] == 1e6 * math.pi * math.pi
