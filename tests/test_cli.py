import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import pytest

from spectrace import riesz, spectra, verify
from spectrace.cli import build_parser, main, parse_spectrum_spec, UsageError

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

    @pytest.mark.parametrize("spec, unit", [
        ("interval:length=1.1:bc=neumann", 1.1 / math.pi),
        ("torus:circumference=1.1", 1.1 / (2.0 * math.pi)),
    ])
    def test_log_free_shapes_keep_a_log_free_basis(self, capsys, spec, unit):
        # at the benchmark's windows, 1e-3 to 1e-1 in units of 1/w1, both
        # d = 1 log columns (t log t, t^3 log t) are tried and neither is kept
        with mock.patch.object(riesz, "detect_log_term", wraps=riesz.detect_log_term) as detect:
            code, out, _ = run(capsys, "coeffs", "--spectrum", spec,
                               "--tmin", repr(1e-3 * unit), "--tmax", repr(1e-1 * unit))
        assert code == 0
        assert [call.args[2] for call in detect.call_args_list] == [1, 3]
        assert all(term["q"] == 0 for term in json.loads(out)["fit_report"]["basis"])

    def test_coeffs_and_the_omega_riesz_fit_share_one_log_policy(self, capsys):
        # the cylinder fit of coeffs and the omega fit of riesz --fit choose
        # their log columns in the one function, whose detections are the
        # only calls to riesz's detect_log_term: t^(s-1) log t at s = 2, 4
        # for coeffs, omega^(1-s) log omega at s = 2 for the order-3 mean
        assert verify._fit_detecting_logs is riesz._fit_detecting_logs
        seen = []
        for argv in (["coeffs", "--kernel", "cylinder"],
                     ["riesz", "--fit", "--variable", "omega", "--alpha", "3"]):
            with mock.patch.object(riesz, "detect_log_term",
                                   wraps=riesz.detect_log_term) as detect:
                code, _, _ = run(capsys, argv[0], "--spectrum", INTERVAL_SPEC, *argv[1:])
            assert code == 0
            seen.append([call.args[2] for call in detect.call_args_list])
        assert seen == [[1, 3], [-1]]

    @pytest.mark.parametrize("argv, terms, tried", [
        # each log column's fit is one sample short (8 needed for 6 terms)
        (["coeffs", "--points", "7"], 5, [1, 3]),
        # each with-log design passes the condition limit (2.9e12 at t log t)
        (["coeffs", "--orders", "10"], 11, [1, 3, 5, 7, 9]),
        # the omega mean's fit at the same two edges
        (["riesz", "--fit", "--variable", "omega", "--alpha", "2", "--points", "5"], 3, [-1]),
        (["riesz", "--fit", "--variable", "omega", "--alpha", "12"], 13,
         [-1, -3, -5, -7, -9, -11]),
    ], ids=["coeffs-points-7", "coeffs-orders-10", "riesz-points-5", "riesz-alpha-12"])
    def test_a_log_column_whose_fit_cannot_be_made_is_absent(self, capsys, argv, terms, tried):
        # the power fit succeeds; each tried log column's fit raises and
        # counts as absent, so the command reports the log-free fit
        with mock.patch.object(riesz, "detect_log_term", wraps=riesz.detect_log_term) as detect:
            code, out, err = run(capsys, argv[0], "--spectrum", "interval:length=1:bc=dirichlet",
                                 *argv[1:])
        assert code == 0, err
        assert [call.args[2] for call in detect.call_args_list] == tried
        basis = json.loads(out)["fit_report"]["basis"]
        assert len(basis) == terms and all(term["q"] == 0 for term in basis)


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

    def test_interval_torus_product_reports(self, capsys):
        # the torus's zero mode makes odd pairs, the product's excess-weight
        # path; every row passes, e_4 against the omega-Riesz fit among them
        code, out, _ = run(capsys, "verify", "--spectrum",
                           "product:(interval:length=1:bc=dirichlet)x(torus:circumference=1.5)")
        assert code == 0
        assert out.splitlines()[-1] == "PASS  overall: 11/11 checks passed"

    def test_dimension_4_is_refused(self, capsys, tmp_path):
        # verify fits e_0 .. e_4, so in dimension 4 there is no e_(d+1) = e_5
        p = tmp_path / "s.txt"
        p.write_text("dim 4\nenvelope 0 1\n" +
                     "\n".join(f"{n} 1" for n in range(1, 3001)) + "\n")
        code, out, err = run(capsys, "verify", "--spectrum", f"file:{p}")
        assert code == 2
        assert out == ""
        assert err.startswith("spectrace: error: ") and "d <= 3" in err
        assert "Traceback" not in err

    def test_no_positive_frequency_is_refused(self, capsys, tmp_path):
        p = tmp_path / "zero.txt"
        p.write_text("dim 1\nenvelope 1 0\n0 1\n")
        code, out, err = run(capsys, "verify", "--spectrum", f"file:{p}")
        assert code == 2
        assert out == ""
        assert "could not find a positive eigenfrequency" in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("argv, want", [
        (("--comb", "squares", "--fn", "gaussian", "--eps-decades", "1e100:1e300"), 0),
        (("--comb", "squares", "--fn", "odd-gaussian", "--eps-decades", "1e100:1e300"), 0),
        (("--comb", "linear", "--fn", "bump", "--support", "1e-300", "1e300"), 2),
    ], ids=["squares-gaussian", "squares-odd-gaussian", "linear-wide-bump"])
    def test_overflowing_arguments_warn_nothing(self, capsys, argv, want):
        # eps n^2 or a bump's (u - lo) * (hi - u) past the float range is
        # an infinity the test function maps to its value, not a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "moments", *argv)
        assert code == want
        assert "Warning" not in err and "Traceback" not in err

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

    def test_fit_on_a_window_whose_end_product_underflows(self, capsys):
        # 1e-300 * 1e-290 underflows to 0; the fit anchors at
        # sqrt(1e-300) * sqrt(1e-290) and fits the all-zero means below pi^2
        code, out, err = run(capsys, "riesz", "--spectrum", "interval:length=1:bc=dirichlet",
                             "--fit", "--alpha", "1", "--variable", "lambda",
                             "--xmin", "1e-300", "--xmax", "1e-290")
        assert (code, err) == (0, "")
        report = json.loads(out)["fit_report"]
        assert report["scale_anchor"] == pytest.approx(1e-295, rel=1e-14)
        assert report["coefficients"] == [0.0, 0.0]

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
        ["riesz", "--spectrum", INTERVAL_SPEC, "--fit", "--alpha", "1", "--points", "3"],
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
        assert "cap of 10000000 indices" in err

    @pytest.mark.parametrize("extra", [(), ("--fit",), ("--variable", "omega")],
                             ids=["lambda-means", "fit", "omega-means"])
    def test_riesz_order_past_170_exits_2(self, capsys, extra):
        # 171! is past the float range; 170 still runs
        code, out, err = run(capsys, "riesz", "--spectrum", INTERVAL_SPEC, "--alpha", "171",
                             *extra)
        assert (code, out) == (2, "")
        assert err == "spectrace: error: alpha must be a nonnegative integer at most 170, got 171\n"
        code, out, err = run(capsys, "riesz", "--spectrum", INTERVAL_SPEC, "--alpha", "170",
                             "--points", "4")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("comb, fn", [
        ("linear", ("--fn", "gaussian")), ("linear", ("--fn", "expdecay")),
        ("linear", ("--fn", "odd-gaussian")), ("linear", BUMP),
        ("omega", ("--fn", "odd-gaussian")), ("omega", BUMP),
    ], ids=["linear-gaussian", "linear-expdecay", "linear-odd-gaussian", "linear-bump",
            "omega-odd-gaussian", "omega-bump"])
    def test_moment_terms_past_the_float_range_exit_2(self, capsys, comb, fn):
        code, out, err = run(capsys, "moments", "--comb", comb, *fn,
                             "--eps-decades", "1e100:1e300")
        assert (code, out) == (2, "")
        assert err.startswith("spectrace: error: eps = 1e+100 puts the moment term eps^")
        assert "Traceback" not in err

    def test_malformed_file_names_its_line(self, capsys, tmp_path):
        p = tmp_path / "bad.spec"
        p.write_text("dim 1\n1 1\n2 1\n3 1 1\n")
        code, out, err = run(capsys, "trace", "--spectrum", f"file:{p}")
        assert code == 2
        assert out == ""
        assert "line 4" in err and "Traceback" not in err

    def test_product_multiplicity_past_int64_exits_2(self, capsys, tmp_path):
        p = tmp_path / "heavy.txt"
        p.write_text(f"dim 1\n1 {2**40}\n")
        spec = f"product:(file:{p})x(file:{p})"
        code, out, err = run(capsys, "riesz", "--spectrum", spec, "--xmin", "1", "--xmax", "10")
        assert code == 2
        assert out == ""
        assert "2**63 - 1" in err

    def test_raw_coefficients_past_the_float_range_exit_2(self, capsys):
        # the raw coefficients of a window near 1e110 scale by t0^3 = 3e331
        code, out, err = run(capsys, "coeffs", "--spectrum", INTERVAL_SPEC, "--kernel",
                             "cylinder", "--tmin", "1e110", "--tmax", "1e111")
        assert code == 2
        assert out == ""
        assert "the fit window 1e+110..1e+111" in err and "Traceback" not in err

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
        assert "term budget" in err
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

    @pytest.mark.parametrize("flag, value", [("--orders", "0"), ("--points", "8"),
                                             ("--tol", "1e-9")])
    def test_verify_takes_a_spectrum_only(self, capsys, flag, value):
        # verify's basis depth, sample count and tolerance are fixed in
        # spectrace.verify, so no setting can empty its checks
        code, out, err = run(capsys, "verify", "--spectrum", INTERVAL_SPEC, flag, value)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {flag}" in err


class TestParserBuiltOnce:
    """main builds its parser on the first call and keeps it for the process;
    the kept parser gives every command what a fresh one gives."""

    ARGVS = [
        ["trace", "--spectrum", INTERVAL_SPEC, "--points", "5", "--format", "json"],
        ["coeffs", "--spectrum", INTERVAL_SPEC, "--points", "16", "--kernel", "heat"],
        ["verify", "--spectrum", INTERVAL_SPEC],
        ["moments", "--comb", "squares", "--points", "4"],
        ["riesz", "--spectrum", INTERVAL_SPEC, "--alpha", "2", "--points", "4"],
        ["riesz", "--spectrum", INTERVAL_SPEC, "--remainder", "0", "--weyl-coeffs", "0.3"],
        ["trace", "--spectrum", INTERVAL_SPEC, "--frobnicate"],
        ["riesz", "--spectrum", INTERVAL_SPEC, "--alpha", "-1"],
        ["--version"],
        [],
    ]

    def test_kept_parser_matches_a_fresh_one(self, capsys):
        fresh = []
        for argv in self.ARGVS:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        build_parser.cache_clear()
        kept = [run(capsys, *argv) for _ in range(2) for argv in self.ARGVS]
        assert build_parser.cache_info().misses == 1
        assert kept == fresh + fresh
        codes = [code for code, _, _ in fresh]
        assert codes == [0, 0, 0, 0, 0, 0, 2, 2, 0, 2]
        assert fresh[8][1].startswith("spectrace ")

    def test_import_builds_no_parser(self):
        code = ("import spectrace.cli as cli; info = cli.build_parser.cache_info(); "
                "print(info.currsize, info.misses)")
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]
