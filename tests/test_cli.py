import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spectrace import spectra
from spectrace.cli import main, parse_spectrum_spec, UsageError

PI_STR = "3.141592653589793"
INTERVAL_SPEC = f"interval:length={PI_STR}:bc=dirichlet"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumSpecParsing:
    def test_interval(self):
        s = parse_spectrum_spec(INTERVAL_SPEC)
        assert s.dim == 1
        assert s.up_to(2.5) == [(1.0, 1), (2.0, 1)]

    def test_torus(self):
        s = parse_spectrum_spec("torus:circumference=6.283185307179586")
        assert s.up_to(1.5) == [(0.0, 1), (1.0, 2)]

    def test_nested_product(self):
        s = parse_spectrum_spec(
            f"product:({INTERVAL_SPEC})x(product:({INTERVAL_SPEC})x({INTERVAL_SPEC}))")
        assert s.dim == 3

    def test_file(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("dim 1\nenvelope 0 1\n1 1\n")
        s = parse_spectrum_spec(f"file:{p}")
        assert s.envelope == (0.0, 1.0)

    @pytest.mark.parametrize("bad", [
        "interval:length=abc:bc=dirichlet",
        "interval:length=1.0",
        "klein:bottle=1",
        "product:(interval:length=1:bc=dirichlet",
        "product:(a)y(b)",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(UsageError):
            parse_spectrum_spec(bad)

    @pytest.mark.parametrize("spec, field", [
        ("interval:length=1:bc=dirichlet:lenght=2", "lenght"),
        ("interval:length=1:bc=dirichlet:length=2", "length"),
        ("torus:circumference=1:length=1", "length"),
        ("torus:circumference=1:circumference=2", "circumference"),
    ], ids=["interval-typo", "interval-repeat", "torus-unknown", "torus-repeat"])
    def test_unknown_or_repeated_field_exits_2(self, capsys, spec, field):
        code, out, err = run(capsys, "trace", "--spectrum", spec)
        assert code == 2
        assert out == ""
        assert err.startswith("spectrace: error: ") and repr(field) in err


class TestTraceCommand:
    def test_cylinder_csv_matches_oracle(self, capsys):
        code, out, _ = run(capsys, "trace", "--spectrum", INTERVAL_SPEC,
                           "--kernel", "cylinder", "--tmin", "1e-3",
                           "--tmax", "1", "--points", "40")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "t,value,tail_bound,terms_used"
        for line in lines[1:]:
            t, value, tail, terms = line.split(",")
            expect = 1.0 / math.expm1(float(t))
            assert abs(float(value) - expect) < 1e-12
            assert float(tail) <= 1e-12
            assert int(terms) > 0

    def test_output_is_byte_deterministic(self, capsys, tmp_path):
        args = ("trace", "--spectrum", INTERVAL_SPEC, "--kernel", "heat",
                "--tmin", "1e-3", "--tmax", "0.1", "--points", "12")
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(list(args) + ["--out", str(f1)]) == 0
        assert main(list(args) + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_config_header_present(self, capsys):
        code, out, _ = run(capsys, "trace", "--spectrum", INTERVAL_SPEC,
                           "--points", "4")
        assert code == 0
        assert out.startswith("# spectrace trace ")
        assert "kernel=heat" in out.splitlines()[0]

    def test_bad_grid_exits_2(self, capsys):
        code, _, err = run(capsys, "trace", "--spectrum", INTERVAL_SPEC,
                           "--tmin", "1.0", "--tmax", "0.5")
        assert code == 2
        assert "tmin" in err

    def test_bad_spectrum_exits_2(self, capsys):
        code, _, err = run(capsys, "trace", "--spectrum", "moebius:r=1")
        assert code == 2

    def test_zero_tmin_exits_2(self, capsys):
        code, out, err = run(capsys, "trace", "--spectrum", INTERVAL_SPEC, "--tmin", "0")
        assert code == 2
        assert out == ""
        assert "positive and finite" in err

    def test_unreachable_tolerance_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(spectra, "DEFAULT_MAX_TERMS", 50)
        code, _, err = run(capsys, "trace", "--spectrum", INTERVAL_SPEC,
                           "--tol", "1e-300")
        assert code == 3
        assert "tail bound" in err

    def test_torus_heat_matches_poisson_asymptote(self, capsys):
        code, out, _ = run(capsys, "trace", "--spectrum",
                           "torus:circumference=6.283185307179586",
                           "--kernel", "heat", "--tmin", "1e-4", "--tmax", "1e-2",
                           "--points", "6")
        assert code == 0
        for line in out.splitlines()[2:]:
            t, value, *_ = line.split(",")
            assert float(value) == pytest.approx(
                math.sqrt(math.pi / float(t)), rel=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "trace", "--spectrum", INTERVAL_SPEC,
                           "--points", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["samples"]) == 4
        assert doc["samples"][0]["terms_used"] > 0

    def test_svg_written(self, capsys, tmp_path):
        svg = tmp_path / "trace.svg"
        code, _, _ = run(capsys, "trace", "--spectrum", INTERVAL_SPEC,
                         "--points", "6", "--svg", str(svg))
        assert code == 0
        content = svg.read_text()
        assert content.startswith("<svg") and "polyline" in content


class TestCoeffsCommand:
    def test_cylinder_coefficients(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--spectrum", INTERVAL_SPEC,
                           "--kernel", "cylinder", "--orders", "4")
        assert code == 0
        doc = json.loads(out)
        coeffs = doc["fit_report"]["coefficients"]
        basis = [(term["p"], term["q"]) for term in doc["fit_report"]["basis"]]
        for target, want in {("-1", 0): 1.0, ("0", 0): -0.5, ("1", 0): 1 / 12}.items():
            got = coeffs[basis.index(target)]
            assert got == pytest.approx(want, abs=1e-6)
        assert doc["expansion"]["dim"] == 1

    def test_heat_coefficients(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--spectrum", INTERVAL_SPEC,
                           "--kernel", "heat", "--orders", "3",
                           "--tmin", "1e-4", "--tmax", "0.1")
        assert code == 0
        doc = json.loads(out)
        coeffs = doc["fit_report"]["coefficients"]
        basis = [(term["p"], term["q"]) for term in doc["fit_report"]["basis"]]
        assert coeffs[basis.index(("-1/2", 0))] == pytest.approx(
            math.sqrt(math.pi) / 2, abs=1e-6)
        assert coeffs[basis.index(("0", 0))] == pytest.approx(-0.5, abs=1e-6)

    def test_product_spectrum_exponents(self, capsys):
        spec = f"product:({INTERVAL_SPEC})x({INTERVAL_SPEC})"
        code, out, _ = run(capsys, "coeffs", "--spectrum", spec,
                           "--kernel", "heat", "--orders", "4",
                           "--tmin", "1e-2", "--tmax", "0.5", "--tol", "1e-12")
        assert code == 0
        doc = json.loads(out)
        basis = [(term["p"], term["q"]) for term in doc["fit_report"]["basis"]]
        coeffs = doc["fit_report"]["coefficients"]
        assert coeffs[basis.index(("-1", 0))] == pytest.approx(math.pi / 4, abs=1e-3)
        assert coeffs[basis.index(("-1/2", 0))] == pytest.approx(
            -math.sqrt(math.pi) / 2, abs=1e-3)
        assert coeffs[basis.index(("0", 0))] == pytest.approx(0.25, abs=1e-3)


class TestVerifyCommand:
    def test_interval_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--spectrum", INTERVAL_SPEC)
        assert code == 0
        assert "overall" in out
        assert "FAIL" not in out

    def test_torus_passes_without_boundary_term(self, capsys):
        code, out, _ = run(capsys, "verify", "--spectrum",
                           "torus:circumference=6.283185307179586")
        assert code == 0
        # b_1 = 0: the s=1 relation row compares two near-zero numbers
        assert "b_1" in out

    def test_file_without_envelope_refused(self, capsys, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("dim 1\n" + "\n".join(f"{n} 1" for n in range(1, 50)) + "\n")
        code, _, err = run(capsys, "verify", "--spectrum", f"file:{p}")
        assert code == 2
        assert "envelope" in err and "refused" in err

    def test_file_with_envelope_verifies(self, capsys, tmp_path):
        # an interval prefix long enough for truncation-aware windows
        p = tmp_path / "s.txt"
        p.write_text("dim 1\nenvelope 0 1\n" +
                     "\n".join(f"{n} 1" for n in range(1, 3001)) + "\n")
        code, out, _ = run(capsys, "verify", "--spectrum", f"file:{p}")
        assert code == 0
        assert "FAIL" not in out

    def test_shallow_expansion_reports_energy_row(self, capsys):
        # orders 1 fits e_0 and e_1 only, so there is no e_(d+1) = e_2
        code, out, _ = run(capsys, "verify", "--spectrum", "interval:length=1:bc=dirichlet",
                           "--orders", "1")
        assert code == 0
        row = [l for l in out.splitlines() if "casimir energy" in l]
        assert len(row) == 1
        assert row[0].startswith("PASS") and "[expansion too shallow for s=d+1]" in row[0]


class TestMomentsCommand:
    def test_linear_slope_report(self, capsys):
        code, out, _ = run(capsys, "moments", "--comb", "linear", "--fn",
                           "expdecay", "--orders", "2", "--eps-decades",
                           "1e-3:1e-1", "--points", "9")
        assert code == 0
        slope_line = [l for l in out.splitlines() if l.startswith("# error_slope=")][0]
        slope = float(slope_line.split("=")[1])
        assert slope == pytest.approx(3.0, abs=0.1)
        assert "zeta(-1)=-1/12" in out

    def test_rounding_level_errors_give_nan_slope(self, capsys):
        # at orders 5 every abs_error is a few ulps of lhs: no row is above
        # the rounding floor, so there is no slope to fit
        code, out, _ = run(capsys, "moments", "--comb", "linear", "--fn", "expdecay")
        assert code == 0
        assert "# error_slope=nan" in out.splitlines()

    def test_squares_carries_boundary_note(self, capsys):
        code, out, _ = run(capsys, "moments", "--comb", "squares", "--fn",
                           "gaussian", "--eps-decades", "1e-3:1e-2",
                           "--points", "5")
        assert code == 0
        assert "# boundary_correction=-g(0)/2=-0.5" in out

    def test_omega_comb_runs(self, capsys):
        code, out, _ = run(capsys, "moments", "--comb", "omega", "--fn",
                           "odd-gaussian", "--orders", "3", "--eps-decades",
                           "1e-3:1e-2", "--points", "5")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        for row in rows:
            eps, lhs, rhs, err = map(float, row.split(","))
            assert err < eps**2.5

    def test_omega_with_bad_fn_exits_2(self, capsys):
        code, _, err = run(capsys, "moments", "--comb", "omega", "--fn", "gaussian")
        assert code == 2
        assert "diverges" in err

    def test_svg_written(self, capsys, tmp_path):
        svg = tmp_path / "moments.svg"
        code, _, _ = run(capsys, "moments", "--eps-decades", "1e-3:1e-2", "--points", "5",
                         "--orders", "2", "--svg", str(svg))
        assert code == 0
        content = svg.read_text()
        assert content.startswith("<svg") and content.count("<polyline") == 1


class TestRieszCommand:
    def test_means_csv(self, capsys):
        code, out, _ = run(capsys, "riesz", "--spectrum", INTERVAL_SPEC,
                           "--alpha", "1", "--variable", "lambda",
                           "--xmin", "5", "--xmax", "50", "--points", "6")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "x,value"
        first = lines[1].split(",")
        assert float(first[0]) == 5.0
        assert float(first[1]) == pytest.approx(1.0)  # (1/5)((5-1)+(5-4))

    def test_fit_reports_c22(self, capsys):
        code, out, _ = run(capsys, "riesz", "--spectrum", INTERVAL_SPEC,
                           "--alpha", "2", "--variable", "omega", "--fit")
        assert code == 0
        doc = json.loads(out)
        basis = [(term["p"], term["q"]) for term in doc["fit_report"]["basis"]]
        c22 = doc["fit_report"]["coefficients"][basis.index(("-1", 0))]
        assert c22 == pytest.approx(1 / 6, rel=2e-2)

    def test_remainder_sup(self, capsys):
        code, out, _ = run(capsys, "riesz", "--spectrum", INTERVAL_SPEC,
                           "--remainder", "1", "--weyl-coeffs", "1,-0.5",
                           "--xmin", "10", "--xmax", "100", "--points", "512")
        assert code == 0
        sup_line = [l for l in out.splitlines() if l.startswith("# sup_abs_remainder=")][0]
        assert float(sup_line.split("=")[1]) >= 0.4

    @pytest.mark.parametrize("mode", [
        [],
        ["--remainder", "1", "--weyl-coeffs", "1,-0.5"],
    ], ids=["means", "remainder"])
    def test_svg_written(self, capsys, tmp_path, mode):
        svg = tmp_path / "riesz.svg"
        code, _, _ = run(capsys, "riesz", "--spectrum", INTERVAL_SPEC, "--xmin", "5",
                         "--xmax", "50", "--points", "6", *mode, "--svg", str(svg))
        assert code == 0
        content = svg.read_text()
        assert content.startswith("<svg") and content.count("<polyline") == 1

    def test_remainder_requires_coeffs(self, capsys):
        code, _, err = run(capsys, "riesz", "--spectrum", INTERVAL_SPEC,
                           "--remainder", "1")
        assert code == 2


BUMP = ("--fn", "bump", "--support", "0.3", "0.9")


class TestLibraryErrorsExit2:
    @pytest.mark.parametrize("argv", [
        ["riesz", "--spectrum", INTERVAL_SPEC, "--points", "1"],
        ["moments", "--points", "1"],
        ["riesz", "--spectrum", INTERVAL_SPEC, "--fit", "--points", "3"],
        ["riesz", "--spectrum", INTERVAL_SPEC, "--remainder", "2", "--weyl-coeffs", "1"],
        ["riesz", "--spectrum", INTERVAL_SPEC, "--remainder", "-1", "--weyl-coeffs", "1"],
        ["coeffs", "--spectrum", INTERVAL_SPEC, "--orders", "9", "--points", "8"],
        ["trace", "--spectrum", "torus:circumference=abc"],
        ["trace", "--spectrum", "interval:length=x:bc=dirichlet"],
        ["trace", "--spectrum", "interval:length=1:bc"],
        ["trace", "--spectrum", f"product:{INTERVAL_SPEC}x({INTERVAL_SPEC})"],
        ["trace", "--spectrum", f"product:({INTERVAL_SPEC})x({INTERVAL_SPEC})z"],
        ["trace", "--spectrum", f"product:({INTERVAL_SPEC})y({INTERVAL_SPEC})"],
        ["trace", "--spectrum", f"product:({INTERVAL_SPEC})x(({INTERVAL_SPEC})"],
        ["trace", "--spectrum", "sphere:r=1"],
        ["trace", "--spectrum", INTERVAL_SPEC, "--points", "3"],
        ["trace", "--spectrum", INTERVAL_SPEC, "--tol", "0"],
        ["coeffs", "--spectrum", INTERVAL_SPEC, "--orders", "0"],
        ["moments", "--eps-decades", "1e-3"],
        ["moments", "--eps-decades", "1:0.1"],
        ["moments", "--orders", "-1"],
        # eps so small that no index up to 1e9 certifies the tail: the shared
        # stop search gives up on each comb
        ["moments", "--comb", "linear", "--eps-decades", "1e-10:1e-9"],
        ["moments", "--comb", "squares", "--eps-decades", "1e-19:1e-18"],
        ["moments", "--comb", "omega", "--fn", "odd-gaussian", "--eps-decades", "1e-19:1e-18"],
        # bump windows past the same 1e9-index cap
        ["moments", "--comb", "linear", *BUMP, "--eps-decades", "1e-12:1e-11"],
        ["moments", "--comb", "squares", *BUMP, "--eps-decades", "1e-20:1e-19"],
        ["moments", "--comb", "omega", *BUMP, "--eps-decades", "1e-20:1e-19"],
        ["riesz", "--spectrum", INTERVAL_SPEC, "--alpha", "-1"],
        ["riesz", "--spectrum", INTERVAL_SPEC, "--remainder", "1", "--weyl-coeffs", "1,x"],
    ], ids=["riesz-points-1", "moments-points-1", "riesz-fit-points-3",
            "remainder-short-coeffs", "remainder-negative", "coeffs-too-few-points",
            "torus-bad-circumference", "interval-bad-length", "field-without-value",
            "product-without-paren", "product-trailing-junk", "product-not-x",
            "product-unbalanced", "unknown-kind", "trace-points-3", "trace-tol-0",
            "coeffs-orders-0", "eps-decades-one-value", "eps-decades-reversed",
            "moments-orders-negative", "linear-comb-never-stops",
            "squares-comb-never-stops", "omega-comb-never-stops", "linear-bump-window",
            "squares-bump-window", "omega-bump-window", "riesz-alpha-negative",
            "weyl-coeffs-not-numbers"])
    def test_value_error_is_usage_error(self, capsys, argv):
        # promptly: the linear bump window at eps = 1e-12 alone holds 6e11 indices
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("spectrace: error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("fn, decades", [
        (BUMP, "1e-12:1e-11"), ((), "1e-10:1e-9"),
    ], ids=["bump-window", "stop-search"])
    def test_comb_refusal_names_the_cap_and_eps(self, capsys, fn, decades):
        code, _, err = run(capsys, "moments", "--comb", "linear", *fn,
                           "--eps-decades", decades, "--points", "4")
        assert code == 2
        eps = float(decades.split(":")[0])
        assert f"comb sum at eps={eps!r} " in err
        assert "cap of 1000000000 indices" in err

    def test_product_multiplicity_past_int64_exits_2(self, capsys, tmp_path):
        p = tmp_path / "heavy.txt"
        p.write_text(f"dim 1\n1 {2**40}\n")
        spec = f"product:(file:{p})x(file:{p})"
        code, out, err = run(capsys, "riesz", "--spectrum", spec, "--xmin", "1", "--xmax", "10")
        assert code == 2
        assert out == ""
        assert "2**63 - 1" in err

    @pytest.mark.parametrize("flag", [["--format", "csv"], ["--svg", "out.svg"]])
    def test_coeffs_rejects_trace_only_flags(self, capsys, flag):
        code, _, err = run(capsys, "coeffs", "--spectrum", INTERVAL_SPEC, *flag)
        assert code == 2
        assert "unrecognized arguments" in err


class TestTermBudget:
    NEUMANN_SQUARE = ("product:(interval:length=1:bc=neumann)"
                      "x(interval:length=1:bc=neumann)")

    # a budget below the envelope's C1 pays for no cutoff: unreachable tol
    @pytest.mark.parametrize("argv, code", [
        (["trace", "--spectrum", NEUMANN_SQUARE], 3),
        (["verify", "--spectrum", NEUMANN_SQUARE], 3),
    ], ids=["trace-below-c1", "verify-below-c1"])
    def test_exit_code_without_traceback(self, capsys, monkeypatch, argv, code):
        monkeypatch.setattr(spectra, "DEFAULT_MAX_TERMS", 1)
        got, out, err = run(capsys, *argv)
        assert got == code
        assert out == ""
        assert err.startswith("spectrace: numerical failure: " if code == 3
                              else "spectrace: error: ")
        assert "Traceback" not in err

    SQUARE = ("product:(interval:length=1:bc=dirichlet)"
              "x(interval:length=1:bc=dirichlet)")
    CUBE = f"product:({SQUARE})x(interval:length=1:bc=dirichlet)"

    @pytest.mark.parametrize("kernel, spec, tmin", [
        ("heat", CUBE, "1e-300"),
        ("cylinder", SQUARE, "1e-170"),
        ("dcylinder", SQUARE, "1e-120"),
    ], ids=["heat", "cylinder", "dcylinder"])
    def test_tail_bound_past_float_range_exits_3(self, capsys, monkeypatch, kernel, spec,
                                                  tmin):
        # t ** -(d/2), t ** -d and t ** -(d+1) pass 1.8e308 at these t
        monkeypatch.setattr(spectra, "DEFAULT_MAX_TERMS", 1000)
        got, out, err = run(capsys, "trace", "--kernel", kernel, "--spectrum", spec,
                            "--tmin", tmin, "--tmax", f"{10 * float(tmin):g}")
        assert got == 3
        assert out == ""
        assert err.startswith("spectrace: numerical failure: ")
        assert "achieved tail bound inf" in err
        assert "Traceback" not in err


class TestImport:
    def test_cli_import_leaves_scipy_out(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        # nor a process or thread pool: each would add to every command's set-up time
        code = ("import spectrace.cli, sys; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestParserBasics:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["trace", "--spectrum", INTERVAL_SPEC, "--frobnicate"]) == 2

    @pytest.mark.parametrize("command", ["trace", "coeffs", "verify"])
    def test_max_terms_is_not_a_flag(self, capsys, command):
        # the term budget is spectra.DEFAULT_MAX_TERMS, set in one place
        code, out, err = run(capsys, command, "--spectrum", INTERVAL_SPEC, "--max-terms", "5")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --max-terms" in err
