"""Command-line front end for spectrace.

Subcommands: trace (sample a kernel over a t-grid), coeffs (fit expansion
coefficients from a trace grid), verify (print the pass/fail table of the
coefficient-relation pipeline in spectrace.verify), moments (comb expansion
studies), riesz (Riesz-mean samples, fits, and Weyl remainders).

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numerical failure.  Identical configurations produce byte-identical
CSV/JSON output on the same numpy build and CPU dispatch, and every output
starts with a comment carrying the full resolved configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .fitkit import IllConditionedBasisError, geometric_grid
from .invariants import expansion_to_json
from .moments import TestFunction, comb_expansion, moment
from .riesz import (
    DEFAULT_RANGES,
    extract_riesz_coeffs,
    riesz_mean_grid,
    weyl_remainder,
)
from .spectra import (
    Spectrum,
    interval_spectrum,
    load_spectrum,
    product_spectrum,
    torus_spectrum,
)
from .traces import ToleranceError, trace_grid
from .verify import expansion_from_fit, fit_trace, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# an error at or below this multiple of eps * max(|lhs|, |rhs|) is rounding,
# not truncation, and is left out of the moments error slope
_ROUNDING_FLOOR = 64 * 2.0**-52


class UsageError(Exception):
    """Bad flag combination or unparsable configuration."""


# ---------------------------------------------------------------------------
# spectrum spec syntax
# ---------------------------------------------------------------------------

def parse_spectrum_spec(spec: str) -> Spectrum:
    """Parse 'interval:length=<r>:bc=<dirichlet|neumann>',
    'torus:circumference=<r>', 'product:(<spec>)x(<spec>)' or 'file:<path>'."""
    spec = spec.strip()
    if spec.startswith("interval:"):
        fields = _parse_fields(spec[len("interval:"):], {"length", "bc"})
        try:
            length = float(fields["length"])
        except ValueError:
            raise UsageError(f"bad interval length {fields['length']!r}") from None
        return interval_spectrum(length, fields["bc"])
    if spec.startswith("torus:"):
        fields = _parse_fields(spec[len("torus:"):], {"circumference"})
        try:
            circ = float(fields["circumference"])
        except ValueError:
            raise UsageError(f"bad circumference {fields['circumference']!r}") from None
        return torus_spectrum(circ)
    if spec.startswith("product:"):
        a, b = _split_product(spec[len("product:"):])
        return product_spectrum(parse_spectrum_spec(a), parse_spectrum_spec(b))
    if spec.startswith("file:"):
        return load_spectrum(spec[len("file:"):])
    raise UsageError(
        f"unrecognized spectrum spec {spec!r}; expected interval:/torus:/product:/file:"
    )


def _parse_fields(body: str, required: set) -> dict:
    """The key=value fields of a spec body: each required key once, no other."""
    fields = {}
    for chunk in body.split(":"):
        if "=" not in chunk:
            raise UsageError(f"expected key=value, got {chunk!r}")
        k, v = chunk.split("=", 1)
        if k not in required:
            raise UsageError(f"unknown spectrum spec field {k!r}; expected {sorted(required)}")
        if k in fields:
            raise UsageError(f"spectrum spec field {k!r} given twice")
        fields[k] = v
    missing = required - set(fields)
    if missing:
        raise UsageError(f"spectrum spec missing fields: {sorted(missing)}")
    return fields


def _split_product(body: str) -> tuple[str, str]:
    # body must look like (A)x(B) with balanced parentheses inside A and B
    def read_group(s: str, start: int) -> tuple[str, int]:
        if start >= len(s) or s[start] != "(":
            raise UsageError(f"expected '(' in product spec at {s[start:]!r}")
        depth = 0
        for i in range(start, len(s)):
            if s[i] == "(":
                depth += 1
            elif s[i] == ")":
                depth -= 1
                if depth == 0:
                    return s[start + 1:i], i
        raise UsageError("unbalanced parentheses in product spec")

    a, i = read_group(body, 0)
    if i + 1 >= len(body) or body[i + 1] != "x":
        raise UsageError("product spec must be product:(<spec>)x(<spec>)")
    b, j = read_group(body, i + 2)
    if j != len(body) - 1:
        raise UsageError(f"trailing junk after product spec: {body[j + 1:]!r}")
    return a, b


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _config_comment(command: str, args: argparse.Namespace) -> str:
    # out/svg destinations do not influence the computed payload, and keeping
    # them out preserves byte-identical output across target paths
    skip = {"func", "out", "svg"}
    parts = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        parts.append(f"{key}={vars(args)[key]}")
    return f"# spectrace {command} " + " ".join(parts)


def _emit(text: str, out: Optional[str]):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _csv(header_comment_lines: list[str], header: str, rows: list[Sequence]) -> str:
    lines = list(header_comment_lines)
    lines.append(header)
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_doc(command: str, args: argparse.Namespace, payload: dict) -> str:
    doc = {"config": _config_comment(command, args), **payload}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_svg(path: str, xs: Sequence[float], ys: Sequence[float], title: str):
    """Minimal static SVG polyline of a single series.

    Axes switch to log10 automatically when the data are positive and span
    two or more decades; otherwise linear.
    """
    width, height, margin = 640.0, 480.0, 60.0

    def transform(vals):
        vmin, vmax = min(vals), max(vals)
        uselog = vmin > 0 and vmax / vmin >= 100.0
        if uselog:
            vals = [math.log10(v) for v in vals]
            vmin, vmax = min(vals), max(vals)
        span = (vmax - vmin) or 1.0
        return [(v - vmin) / span for v in vals], uselog

    tx, xlog = transform(list(xs))
    ty, ylog = transform(list(ys))
    pts = " ".join(
        f"{margin + u * (width - 2 * margin):.3f},{height - margin - v * (height - 2 * margin):.3f}"
        for u, v in zip(tx, ty)
    )
    xlab = "log10(x)" if xlog else "x"
    ylab = "log10(y)" if ylog else "y"
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">\n'
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>\n'
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle">{title}</text>\n'
        f'<text x="{width / 2:.0f}" y="{height - 16:.0f}" text-anchor="middle">{xlab}</text>\n'
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2:.0f})">{ylab}</text>\n'
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>\n'
        "</svg>\n"
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)


def _loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if y > 0]
    if len(pts) < 2:
        return math.nan
    n = len(pts)
    mx = sum(p[0] for p in pts) / n
    my = sum(p[1] for p in pts) / n
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    return sxy / sxx if sxx else math.nan


# ---------------------------------------------------------------------------
# trace / coeffs
# ---------------------------------------------------------------------------

def _validate_grid_args(args):
    if not (0 < args.tmin < math.inf and 0 < args.tmax < math.inf):
        raise UsageError("tmin and tmax must be positive and finite")
    if args.tmin >= args.tmax:
        raise UsageError(f"tmin must be < tmax, got {args.tmin} >= {args.tmax}")
    if args.points < 4:
        raise UsageError("need at least 4 grid points")
    if not (args.tol > 0):
        raise UsageError("tol must be positive")


def cmd_trace(args) -> int:
    _validate_grid_args(args)
    spectrum = parse_spectrum_spec(args.spectrum)
    ts = geometric_grid(args.tmin, args.tmax, args.points)
    samples = trace_grid(spectrum, args.kernel, ts, args.tol)
    if args.format == "json":
        payload = {
            "samples": [
                {"t": s.t, "value": s.value, "tail_bound": s.tail_bound,
                 "terms_used": s.terms_used}
                for s in samples
            ]
        }
        _emit(_json_doc("trace", args, payload), args.out)
    else:
        rows = [(s.t, s.value, s.tail_bound, s.terms_used) for s in samples]
        _emit(_csv([_config_comment("trace", args)],
                   "t,value,tail_bound,terms_used", rows), args.out)
    if args.svg:
        render_svg(args.svg, [s.t for s in samples], [s.value for s in samples],
                   f"{args.kernel} trace")
    return EXIT_OK


def cmd_coeffs(args) -> int:
    _validate_grid_args(args)
    if args.orders < 1:
        raise UsageError("orders must be >= 1")
    spectrum = parse_spectrum_spec(args.spectrum)
    ts = geometric_grid(args.tmin, args.tmax, args.points)
    report = fit_trace(spectrum, args.kernel, ts, args.tol, args.orders)
    payload = {"kernel": args.kernel, "dim": spectrum.dim,
               "fit_report": report.to_json_dict(),
               "expansion": expansion_to_json(expansion_from_fit(spectrum.dim, report))}
    _emit(_json_doc("coeffs", args, payload), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    spectrum = parse_spectrum_spec(args.spectrum)
    rows = run_verification(spectrum)
    lines = [_config_comment("verify", args)]
    lines += [row.line() for row in rows]
    ok = all(row.passed for row in rows)
    lines.append(f"{'PASS' if ok else 'FAIL'}  overall: "
                 f"{sum(r.passed for r in rows)}/{len(rows)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# moments / riesz
# ---------------------------------------------------------------------------

def _parse_decades(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise UsageError(f"expected '<lo>:<hi>', got {text!r}") from None
    if not (0 < lo < hi):
        raise UsageError("need 0 < lo < hi for the epsilon range")
    return lo, hi


def cmd_moments(args) -> int:
    g = TestFunction.bump(*args.support) if args.fn == "bump" else TestFunction(args.fn)
    lo, hi = _parse_decades(args.eps_decades)
    eps_grid = geometric_grid(lo, hi, args.points)
    if args.orders < 0:
        raise UsageError("orders must be >= 0")

    # the squares comb's error is measured past its n=0 boundary term
    boundary = g(0.0) / 2.0 if args.comb == "squares" else 0.0
    rows = []
    corrected_errors = []
    fitted = []  # (eps, error) of the rows above the rounding floor
    for eps in eps_grid:
        res = comb_expansion(args.comb, g, eps, args.orders)
        corrected = abs(res.lhs - res.rhs + boundary)
        corrected_errors.append(corrected)
        rows.append((res.epsilon, res.lhs, res.rhs, res.abs_error))
        if corrected > _ROUNDING_FLOOR * max(abs(res.lhs), abs(res.rhs)):
            fitted.append((eps, corrected))

    slope = _loglog_slope([e for e, _ in fitted], [err for _, err in fitted])
    comments = [_config_comment("moments", args)]
    if args.comb == "squares":
        comments.append(f"# boundary_correction=-g(0)/2={-boundary!r}")
        comments.append(f"# corrected_error_slope={slope!r}")
    else:
        comments.append(f"# error_slope={slope!r}")
    if args.comb == "linear":
        table = ", ".join(f"zeta(-{k})={moment('linear', k)}" for k in range(args.orders + 1))
        comments.append(f"# moments: {table}")
    _emit(_csv(comments, "epsilon,lhs,rhs,abs_error", rows), args.out)
    if args.svg:
        render_svg(args.svg, eps_grid, corrected_errors, f"{args.comb} comb error")
    return EXIT_OK


def cmd_riesz(args) -> int:
    spectrum = parse_spectrum_spec(args.spectrum)
    if args.alpha < 0:
        raise UsageError("alpha must be >= 0")
    default_min, default_max = DEFAULT_RANGES[args.variable]
    if args.xmin is None:
        args.xmin = default_min
    if args.xmax is None:
        args.xmax = default_max
    if not (0 < args.xmin < args.xmax < math.inf):
        raise UsageError("need 0 < xmin < xmax < inf")
    grid = geometric_grid(args.xmin, args.xmax, args.points)

    if args.remainder is not None:
        if not args.weyl_coeffs:
            raise UsageError("--remainder needs --weyl-coeffs g0,g1,...")
        try:
            gs = [float(v) for v in args.weyl_coeffs.split(",")]
        except ValueError:
            raise UsageError(f"bad --weyl-coeffs {args.weyl_coeffs!r}") from None
        data = weyl_remainder(spectrum, args.remainder, gs, grid)
        comments = [_config_comment("riesz", args)]
        sup = max(abs(e) for _, e in data)
        comments.append(f"# sup_abs_remainder={sup!r}")
        _emit(_csv(comments, "x,value", data), args.out)
        if args.svg:
            render_svg(args.svg, [x for x, _ in data], [e for _, e in data],
                       f"Weyl remainder M={args.remainder}")
        return EXIT_OK

    if args.fit:
        report = extract_riesz_coeffs(spectrum, args.alpha, args.variable, grid=grid)
        payload = {"alpha": args.alpha, "variable": args.variable,
                   "fit_report": report.to_json_dict()}
        _emit(_json_doc("riesz", args, payload), args.out)
        return EXIT_OK

    means = riesz_mean_grid(spectrum, args.alpha, args.variable, grid)
    _emit(_csv([_config_comment("riesz", args)], "x,value", zip(grid, means)), args.out)
    if args.svg:
        render_svg(args.svg, grid, means, f"R^{args.alpha}_{args.variable} N")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / main
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once a process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spectrace",
        description="Spectral traces, expansion coefficients, and their relations.",
    )
    parser.add_argument("--version", action="version", version=f"spectrace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_grid(p, tmin, tmax, points, tol):
        p.add_argument("--tmin", type=float, default=tmin)
        p.add_argument("--tmax", type=float, default=tmax)
        p.add_argument("--points", type=int, default=points)
        p.add_argument("--tol", type=float, default=tol)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_trace = sub.add_parser("trace", help="sample a kernel trace over a t-grid")
    p_trace.add_argument("--spectrum", required=True)
    p_trace.add_argument("--kernel", choices=("heat", "cylinder", "dcylinder"),
                         default="heat")
    add_common_grid(p_trace, 1e-3, 1.0, 40, 1e-12)
    p_trace.add_argument("--format", choices=("csv", "json"), default="csv")
    p_trace.add_argument("--svg", default=None, help="also render a single-series SVG")
    p_trace.set_defaults(func=cmd_trace)

    p_coeffs = sub.add_parser("coeffs", help="fit expansion coefficients from a trace grid")
    p_coeffs.add_argument("--spectrum", required=True)
    p_coeffs.add_argument("--kernel", choices=("heat", "cylinder", "dcylinder"),
                          default="cylinder")
    p_coeffs.add_argument("--orders", type=int, default=4,
                          help="basis depth: orders s = 0..S")
    add_common_grid(p_coeffs, 1e-3, 1e-1, 64, 1e-13)
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_verify = sub.add_parser("verify", help="run the coefficient-relation pipeline")
    p_verify.add_argument("--spectrum", required=True)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_mom = sub.add_parser("moments", help="comb pairings vs their expansions")
    p_mom.add_argument("--comb", choices=("linear", "squares", "omega"), default="linear")
    p_mom.add_argument("--fn", choices=("gaussian", "expdecay", "odd-gaussian", "bump"),
                       default="expdecay")
    p_mom.add_argument("--support", type=float, nargs=2, default=(0.5, 1.0),
                       metavar=("LO", "HI"), help="bump support interval")
    p_mom.add_argument("--orders", type=int, default=5, help="moment order M")
    p_mom.add_argument("--eps-decades", default="1e-3:1e-1",
                       help="epsilon range '<lo>:<hi>'")
    p_mom.add_argument("--points", type=int, default=16)
    p_mom.add_argument("--out", default=None)
    p_mom.add_argument("--svg", default=None)
    p_mom.set_defaults(func=cmd_moments)

    p_riesz = sub.add_parser("riesz", help="Riesz means, fits, and Weyl remainders")
    p_riesz.add_argument("--spectrum", required=True)
    p_riesz.add_argument("--alpha", type=int, default=0)
    p_riesz.add_argument("--variable", choices=("lambda", "omega"), default="lambda")
    p_riesz.add_argument("--xmin", type=float, default=None)
    p_riesz.add_argument("--xmax", type=float, default=None)
    p_riesz.add_argument("--points", type=int, default=64)
    p_riesz.add_argument("--fit", action="store_true",
                         help="emit a coefficient fit report instead of samples")
    p_riesz.add_argument("--remainder", type=int, default=None, metavar="M",
                         help="emit the Weyl remainder E_M instead of means")
    p_riesz.add_argument("--weyl-coeffs", default=None,
                         help="comma-separated g_0..g_M for --remainder")
    p_riesz.add_argument("--out", default=None)
    p_riesz.add_argument("--svg", default=None)
    p_riesz.set_defaults(func=cmd_riesz)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, ValueError, FileNotFoundError, IsADirectoryError) as exc:
        # library ValueErrors (SpectrumFormatError among them) are bad inputs
        print(f"spectrace: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ToleranceError, IllConditionedBasisError) as exc:
        print(f"spectrace: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
