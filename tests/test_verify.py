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
