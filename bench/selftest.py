"""Tests of the benchmark's own oracles and input generator (stdlib only).

    python3 bench/selftest.py

Each closed form in oracles.py is checked against an independent route:
direct summation of the spectrum, or, for the square's vacuum energy, the
zeta/beta functional equations with Hurwitz zeta by Euler-Maclaurin.
"""

from __future__ import annotations

import math
import random
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import workloads  # noqa: E402

WORK = Path(__file__).resolve().parent / "_work" / "selftest"

# B_2 .. B_10
BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66)


def hurwitz_zeta(s: float, q: float, n: int = 50) -> float:
    """sum_{k>=0} (k+q)^-s for s > 1 by Euler-Maclaurin after n terms."""
    head = math.fsum((k + q) ** -s for k in range(n))
    x = n + q
    tail = [x ** (1 - s) / (s - 1), 0.5 * x ** -s]
    rising = s  # s (s+1) ... (s+2k-2)
    for k, b in enumerate(BERNOULLI, start=1):
        tail.append(b / math.factorial(2 * k) * rising * x ** (-s - 2 * k + 1))
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return head + math.fsum(tail)


class ClosedForms(unittest.TestCase):
    def test_square_casimir_constant(self):
        zeta = hurwitz_zeta(1.5, 1.0)
        beta = 4.0 ** -1.5 * (hurwitz_zeta(1.5, 0.25) - hurwitz_zeta(1.5, 0.75))
        # functional equations at s = 3/2
        zeta_m = -zeta / (4.0 * math.pi)
        beta_m = (2.0 / math.pi) ** 1.5 * math.sin(0.75 * math.pi) * math.gamma(1.5) * beta
        energy = (zeta_m * beta_m + 1.0 / 12.0) / 2.0
        self.assertAlmostEqual(energy, oracles.SQUARE_CASIMIR_PI, delta=1e-14)
        self.assertAlmostEqual(oracles.casimir(["square", 2.0]),
                               oracles.SQUARE_CASIMIR_PI * math.pi / 2.0, delta=1e-16)

    def test_one_dimensional_casimir_is_zeta_minus_one(self):
        for size in (0.01, 1.0, 300.0):
            # E = (1/2) sum omega_n = (pi/(2L)) zeta(-1), torus (2 pi/C) zeta(-1)
            self.assertAlmostEqual(oracles.casimir(["interval", size, "dirichlet"]),
                                   math.pi / (2 * size) * (-1 / 12), delta=1e-12 / size)
            self.assertAlmostEqual(oracles.casimir(["torus", size]),
                                   2 * math.pi / size * (-1 / 12), delta=1e-12 / size)

    def test_heat_dual_series_matches_direct_sum(self):
        for length in (0.05, 1.0, 7.0):
            step = math.pi / length
            for t in (1e-3 / step ** 2, 0.3 / step ** 2, 2.0 / step ** 2):
                n_max = int(math.sqrt(800.0 / t) / step) + 2
                dirichlet = math.fsum(math.exp(-t * (n * step) ** 2) for n in range(1, n_max))
                for bc, ref in (("dirichlet", dirichlet), ("neumann", dirichlet + 1.0)):
                    value, scale = oracles.heat_1d(["interval", length, bc], t)
                    self.assertTrue(oracles.close(value, ref, 0.0, scale), (length, t, bc))
                torus = 1.0 + 2.0 * math.fsum(math.exp(-t * (n * step) ** 2)
                                           for n in range(1, n_max))
                # a torus of circumference 2L has omega_n = n pi / L, n in Z
                value, scale = oracles.heat_1d(["torus", 2.0 * length], t)
                self.assertTrue(oracles.close(value, torus, 0.0, scale), (length, t))

    def test_cylinder_geometric_series_matches_direct_sum(self):
        for length in (0.05, 1.0, 7.0):
            step = math.pi / length
            for t in (1e-3 / step, 1.0 / step):
                n_max = int(800.0 / (t * step)) + 2
                dirichlet = math.fsum(math.exp(-t * n * step) for n in range(1, n_max))
                ref = oracles.cylinder_1d(["interval", length, "dirichlet"], t)
                self.assertTrue(oracles.close(dirichlet, ref, 0.0), (length, t))
                ref = oracles.cylinder_1d(["interval", length, "neumann"], t)
                self.assertTrue(oracles.close(dirichlet + 1.0, ref, 0.0), (length, t))
                torus = 1.0 + 2.0 * math.fsum(math.exp(-t * n * step) for n in range(1, n_max))
                ref = oracles.cylinder_1d(["torus", 2.0 * length], t)
                self.assertTrue(oracles.close(torus, ref, 0.0), (length, t))

    def test_comb_closed_forms_match_direct_sums(self):
        for eps in (1e-3, 1e-2, 1e-1):
            linear = math.fsum(math.exp(-n * eps) for n in range(1, int(800 / eps)))
            self.assertTrue(oracles.close(linear, oracles.linear_expdecay(eps), 0.0))
            squares = math.fsum(math.exp(-eps * n * n) for n in range(1, int(math.sqrt(800 / eps))))
            self.assertTrue(oracles.close(squares, oracles.squares_expdecay(eps), 0.0))

    def test_bump_integral_converged_and_matches_fine_comb(self):
        lo, hi = 0.4, 0.9
        for power in (0.0, 0.5, 1.0):
            coarse = oracles.bump_integral(lo, hi, power)
            fine = oracles.bump_integral(lo, hi, power, n=8192)
            self.assertLess(abs(coarse - fine), 1e-15 * fine)
        # the linear comb of a bump equals its Weyl term beyond all orders
        row = oracles.comb_row("linear", "bump", (lo, hi), 1e-3)
        self.assertLess(abs(row["lhs"] - row["rhs"]), 1e-10 * row["rhs"])


class Checks(unittest.TestCase):
    TABLE = ("# spectrace verify ...\n"
             "PASS  casimir energy -e_(d+1)/2              -1.30899702e+01  vs -1.30899694e+01\n"
             "{verdict}  overall: 15/16 checks passed\n")

    def test_verify_verdicts(self):
        exact = oracles.casimir(["interval", 0.01, "dirichlet"])
        oracle = {"check": "verify", "energy": exact}
        ok, err = oracles.check_verify(oracle, 0, self.TABLE.format(verdict="PASS"))
        self.assertTrue(ok)
        self.assertAlmostEqual(err, 6.2e-8, delta=1e-8)
        # a FAIL verdict with exit 1 is the program's answer, not a wrong one
        self.assertTrue(oracles.check_verify(oracle, 1, self.TABLE.format(verdict="FAIL"))[0])
        self.assertFalse(oracles.check_verify(oracle, 0, self.TABLE.format(verdict="FAIL"))[0])
        wrong = {"check": "verify", "energy": 1.1 * exact}
        self.assertFalse(oracles.check_verify(wrong, 0, self.TABLE.format(verdict="PASS"))[0])

    def test_trace_rows_within_bound_plus_ulps(self):
        spec = ["interval", 2.0, "dirichlet"]
        oracle = {"check": "trace", "kernel": "cylinder", "spectrum": spec}

        def table(scale, bound):
            rows = [f"{t!r},{oracles.cylinder_1d(spec, t) * scale!r},{bound!r},100"
                    for t in (1e-3, 1e-2, 1e-1)]
            return "\n".join(["# spectrace trace ...", "t,value,tail_bound,terms_used"] + rows)

        checker = oracles.Checker()
        self.assertEqual(checker.check(oracle, 0, table(1.0, 0.0)), (True, None))
        self.assertFalse(checker.check(oracle, 0, table(1 + 1e-12, 0.0))[0])
        self.assertTrue(checker.check(oracle, 0, table(1 + 1e-12, 1e-8))[0])
        self.assertFalse(checker.check(oracle, 0, "not a table")[0])
        self.assertFalse(checker.check({"check": "coeffs", "spectrum": spec}, 0, "{")[0])

    def test_close_accepts_ulps_not_more(self):
        x = 0.123456789
        self.assertTrue(oracles.close(math.nextafter(x, 1.0), x, 0.0))
        self.assertFalse(oracles.close(x * (1 + 1e-12), x, 0.0))
        self.assertTrue(oracles.close(x + 1e-9, x, 2e-9))


class Inputs(unittest.TestCase):
    def setUp(self):
        WORK.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_rectangle_file_is_a_complete_truncation_under_its_envelope(self):
        info = workloads.write_rectangle_file(random.Random(7), WORK / "rect.spec")
        spectrum = oracles.FileSpectrum(info["path"])
        n = len(spectrum.omegas)
        self.assertLess(abs(n - workloads.FILE_TERMS), 0.02 * workloads.FILE_TERMS)
        self.assertEqual(spectrum.omegas, sorted(spectrum.omegas))
        area_c = info["area"] / (4.0 * math.pi)
        for count, omega in enumerate(spectrum.omegas, start=1):
            self.assertLessEqual(count, area_c * omega * omega)
        self.assertLessEqual(spectrum.omegas[-1] ** 2, info["lambda_max"])

    def test_job_lists_depend_only_on_the_seed(self):
        for name in workloads.WORKLOADS:
            first = workloads.build(name, 3, WORK)
            again = workloads.build(name, 3, WORK)
            other = workloads.build(name, 4, WORK)
            self.assertEqual(first, again)
            self.assertNotEqual([j["argv"] for j in first], [j["argv"] for j in other])
            self.assertEqual(len(first) % 2, 1, "odd job count keeps the median on one job")


if __name__ == "__main__":
    unittest.main()
