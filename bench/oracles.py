"""Closed-form reference values and output checks for the benchmark (stdlib only).

Every numeric check accepts a value within the program's own certified tail
bound (or a stated tolerance) plus a few units in the last place of the
largest quantity involved.  Nothing is compared byte for byte, so a change
that moves a result by an ulp (say, np.exp in place of math.exp) is not a
failure.
"""

from __future__ import annotations

import bisect
import json
import math
import re

EPS = 2.0 ** -52
# Each summand exp(-t*omega) carries the rounding of its argument, worth
# about t*omega ulps; the weighted mean of t*omega over a trace is O(1), so
# 32 ulps of the largest intermediate covers program and oracle together.
ULPS = 32

# Dirichlet square of side pi: E = (zeta(-1/2) beta(-1/2) + 1/12) / 2.
# selftest.py recomputes it from Hurwitz zeta values.
SQUARE_CASIMIR_PI = 0.0130636278695143

# A verify or coeffs energy further than this from its closed form is a
# wrong answer, not an inaccurate one; accuracy itself is the metric
# energy_rel_err.
ENERGY_GUARD = 0.05

# comb_pairing's default certified truncation tolerance
COMB_TOL = 1e-13
# spectrace.moments asks quad for epsabs = epsrel = 1e-13, which promises
# max(1e-13, 1e-13 |I|) on each bump integral
QUAD_TOL = 1e-13


def close(value: float, ref: float, bound: float, scale: float = 0.0) -> bool:
    """|value - ref| within bound plus ULPS ulps of max(|ref|, scale)."""
    return abs(value - ref) <= bound + ULPS * EPS * max(abs(ref), scale)


# ---------------------------------------------------------------------------
# 1-D spectra
# ---------------------------------------------------------------------------

def _theta(a: float) -> float:
    """sum over k in Z of exp(-a k^2), a > 0."""
    total, k = 1.0, 1
    while True:
        term = 2.0 * math.exp(-a * k * k)
        total += term
        if term <= 1e-18 * total:
            return total
        k += 1


def heat_1d(spec: list, t: float) -> tuple[float, float]:
    """Heat trace of ["interval", L, bc] or ["torus", C] by the theta dual
    series, with the magnitude of its largest intermediate.

    Dirichlet/Neumann: 1/2 (L/sqrt(pi t) sum_k exp(-k^2 L^2/t) -/+ 1).
    Torus: C/sqrt(4 pi t) sum_k exp(-k^2 C^2/(4t)).
    """
    if spec[0] == "interval":
        length, bc = spec[1], spec[2]
        lead = length / math.sqrt(math.pi * t) * _theta(length * length / t)
        return 0.5 * (lead + (1.0 if bc == "neumann" else -1.0)), lead
    circ = spec[1]
    lead = circ / math.sqrt(4.0 * math.pi * t) * _theta(circ * circ / (4.0 * t))
    return lead, lead


def cylinder_1d(spec: list, t: float) -> float:
    """Cylinder trace as a geometric series: 1/(e^{t pi/L} - 1) for the
    Dirichlet interval, plus 1 for Neumann; 1 + 2/(e^{2 pi t/C} - 1) on the torus."""
    if spec[0] == "interval":
        value = 1.0 / math.expm1(t * math.pi / spec[1])
        return value + 1.0 if spec[2] == "neumann" else value
    return 1.0 + 2.0 / math.expm1(2.0 * math.pi * t / spec[1])


def casimir(spec: list) -> float:
    """Vacuum energy: -pi/(24 L) on an interval, -pi/(6 C) on a torus,
    SQUARE_CASIMIR_PI * pi / L on a Dirichlet square of side L."""
    if spec[0] == "interval":
        return -math.pi / (24.0 * spec[1])
    if spec[0] == "torus":
        return -math.pi / (6.0 * spec[1])
    if spec[0] == "square":
        return SQUARE_CASIMIR_PI * math.pi / spec[1]
    raise ValueError(f"no closed-form energy for {spec[0]!r}")


# ---------------------------------------------------------------------------
# combs
# ---------------------------------------------------------------------------

def linear_expdecay(eps: float) -> float:
    """sum_{n>=1} e^{-n eps} = 1/(e^eps - 1)."""
    return 1.0 / math.expm1(eps)


def squares_expdecay(eps: float) -> float:
    """sum_{n>=1} e^{-eps n^2} = 1/2 (sqrt(pi/eps) sum_k e^{-pi^2 k^2/eps} - 1)."""
    return 0.5 * (math.sqrt(math.pi / eps) * _theta(math.pi * math.pi / eps) - 1.0)


def bump(lo: float, hi: float, u: float) -> float:
    prod = (u - lo) * (hi - u)
    return math.exp(-1.0 / prod) if prod > 0.0 else 0.0


def bump_integral(lo: float, hi: float, power: float, n: int = 4096) -> float:
    """int_lo^hi bump(u) u^-power du by the trapezoid rule.

    Every derivative of the integrand vanishes at both ends, so by
    Euler-Maclaurin the rule converges faster than any power of 1/n.
    """
    h = (hi - lo) / n
    return h * math.fsum(bump(lo, hi, lo + k * h) * (lo + k * h) ** -power
                         for k in range(1, n))


def comb_row(comb: str, fn: str, support, eps: float) -> dict:
    """Reference lhs (and, for bump, rhs with its tolerance) of one
    `spectrace moments` row."""
    if fn == "expdecay" and comb == "linear":
        return {"lhs": linear_expdecay(eps)}
    if fn == "expdecay" and comb == "squares":
        return {"lhs": squares_expdecay(eps)}
    if fn == "odd-gaussian" and comb == "omega":
        # (sqrt(eps)/(2n)) * sqrt(eps) n e^{-eps n^2} = (eps/2) e^{-eps n^2}
        return {"lhs": 0.5 * eps * squares_expdecay(eps)}
    if fn != "bump":
        raise ValueError(f"no oracle for {comb} comb with {fn}")
    lo, hi = support
    root = math.sqrt(eps)
    if comb == "linear":
        ns = range(max(1, math.ceil(lo / eps)), math.floor(hi / eps) + 1)
        lhs = math.fsum(bump(lo, hi, n * eps) for n in ns)
        power, factor = 0.0, 1.0 / eps
    elif comb == "squares":
        ns = range(max(1, math.ceil(math.sqrt(lo / eps))), math.floor(math.sqrt(hi / eps)) + 1)
        lhs = math.fsum(bump(lo, hi, eps * n * n) for n in ns)
        power, factor = 0.5, 1.0 / (2.0 * root)
    else:
        ns = range(max(1, math.ceil(lo / root)), math.floor(hi / root) + 1)
        lhs = math.fsum((root / (2.0 * n)) * bump(lo, hi, root * n) for n in ns)
        power, factor = 1.0, 0.5 * root
    integral = bump_integral(lo, hi, power)
    return {"lhs": lhs, "rhs": integral * factor,
            "rhs_tol": QUAD_TOL * max(1.0, abs(integral)) * factor}


# ---------------------------------------------------------------------------
# file spectra
# ---------------------------------------------------------------------------

class FileSpectrum:
    """The (omega, multiplicity) lines of a spectrum file, read independently."""

    def __init__(self, path: str):
        self.omegas: list[float] = []
        self.mults: list[int] = []
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                fields = raw.split("#", 1)[0].split()
                if len(fields) == 2 and fields[0] not in ("dim", "envelope"):
                    self.omegas.append(float(fields[0]))
                    self.mults.append(int(fields[1]))
        self._cum = [0]
        for m in self.mults:
            self._cum.append(self._cum[-1] + m)

    def heat(self, t: float) -> float:
        """Exact sum over every line of m exp(-t omega^2)."""
        return math.fsum(m * math.exp(-t * w * w) for w, m in zip(self.omegas, self.mults))

    def riesz(self, alpha: int, x: float) -> float:
        """Riesz mean in the omega variable: sum (x - omega)^alpha / (alpha! x^alpha)."""
        k = bisect.bisect_right(self.omegas, x)
        acc = math.fsum(m * (x - w) ** alpha for w, m in zip(self.omegas[:k], self.mults[:k]))
        return acc / (math.factorial(alpha) * x ** alpha)

    def count(self, omega: float) -> int:
        """Eigenvalues with frequency <= omega, with multiplicity."""
        return self._cum[bisect.bisect_right(self.omegas, omega)]


# ---------------------------------------------------------------------------
# checks of command output
# ---------------------------------------------------------------------------

class Checker:
    """Checks `spectrace` output against the closed forms above.

    check() returns (correct, energy_rel_err); correct is False when any
    value misses its reference.  Reference values are memoised per job and
    point, so repeating a job costs its parsing only.
    """

    def __init__(self):
        self._files: dict[str, FileSpectrum] = {}
        self._memo: dict = {}

    def _file(self, path: str) -> FileSpectrum:
        if path not in self._files:
            self._files[path] = FileSpectrum(path)
        return self._files[path]

    def _ref(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def check(self, oracle: dict, rc: int, out: str) -> tuple[bool, float | None]:
        kind = oracle["check"]
        if kind != "verify" and rc != 0:
            return True, None  # the exit code already counts it as failed
        try:
            if kind == "verify":
                return check_verify(oracle, rc, out)
            if kind == "coeffs":
                return check_coeffs(oracle, out)
            handler = {"trace": self._check_trace, "riesz_fit": check_riesz_fit,
                       "remainder": self._check_remainder, "riesz_mean": self._check_riesz_mean,
                       "moments": self._check_moments}[kind]
            return handler(oracle, out), None
        except (ValueError, KeyError, IndexError):
            return False, None  # output that does not parse is a wrong answer

    def _check_trace(self, oracle: dict, out: str) -> bool:
        spec, kernel = oracle["spectrum"], oracle["kernel"]
        rows = _csv_rows(out, "t,value,tail_bound,terms_used")
        if not rows:
            return False
        for t, value, bound, _terms in rows:
            key = (json.dumps(spec), kernel, t)
            if spec[0] == "file":
                ref = self._ref(key, lambda: self._file(spec[1]).heat(t))
                scale = ref
            elif spec[0] == "product":
                def product():
                    a, sa = heat_1d(spec[1], t)
                    b, sb = heat_1d(spec[2], t)
                    return a * b, sa * sb
                ref, scale = self._ref(key, product)
            elif kernel == "heat":
                ref, scale = self._ref(key, lambda: heat_1d(spec, t))
            else:
                ref = scale = cylinder_1d(spec, t)
            if not close(value, ref, bound, scale):
                return False
        return True

    def _check_remainder(self, oracle: dict, out: str) -> bool:
        spectrum = self._file(oracle["path"])
        gs, d = oracle["weyl_coeffs"], 2
        rows = _csv_rows(out, "x,value")
        if not rows:
            return False
        for x, value in rows:
            terms = [g * x ** (d - k) for k, g in enumerate(gs)]
            model = math.fsum(terms)
            scale = max(abs(v) for v in terms)
            if not close(value, spectrum.count(x) - model, 0.0, scale):
                return False
        return True

    def _check_riesz_mean(self, oracle: dict, out: str) -> bool:
        spectrum, alpha = self._file(oracle["path"]), oracle["alpha"]
        rows = _csv_rows(out, "x,value")
        if not rows:
            return False
        for x, value in rows:
            ref = self._ref((oracle["path"], alpha, x), lambda: spectrum.riesz(alpha, x))
            if not close(value, ref, 0.0):
                return False
        return True

    def _check_moments(self, oracle: dict, out: str) -> bool:
        comb, fn, support = oracle["comb"], oracle["fn"], oracle.get("support")
        rows = _csv_rows(out, "epsilon,lhs,rhs,abs_error")
        if not rows:
            return False
        for eps, lhs, rhs, _err in rows:
            ref = self._ref((comb, fn, tuple(support or ()), eps),
                            lambda: comb_row(comb, fn, support, eps))
            if not close(lhs, ref["lhs"], COMB_TOL):
                return False
            if "rhs" in ref and not close(rhs, ref["rhs"], ref["rhs_tol"]):
                return False
        return True


_CASIMIR = re.compile(r"casimir energy -e_\(d\+1\)/2\s+(\S+)")
_OVERALL = re.compile(r"^(PASS|FAIL)  overall: \d+/\d+ checks passed$", re.M)


def check_verify(oracle: dict, rc: int, out: str) -> tuple[bool, float | None]:
    """A verify table is well formed, its verdict matches its exit code, and
    its energy is within ENERGY_GUARD of the closed form when there is one.
    A FAIL verdict (exit 1) is the program's own answer, counted as a failed
    operation by the caller but not as a wrong one; so are exits 2 and 3."""
    if rc not in (0, 1):
        return True, None
    verdict = _OVERALL.search(out)
    if verdict is None or (verdict.group(1) == "PASS") != (rc == 0):
        return False, None
    exact = oracle.get("energy")
    if exact is None:
        return True, None
    match = _CASIMIR.search(out)
    if match is None:
        return False, None
    err = abs(float(match.group(1)) - exact) / abs(exact)
    return err <= ENERGY_GUARD, err


def check_coeffs(oracle: dict, out: str) -> tuple[bool, float | None]:
    """Leading cylinder coefficient e_-1 (L/pi, or C/pi on the torus) and the
    vacuum energy -e_2/2 of a 1-D `spectrace coeffs` fit."""
    spec = oracle["spectrum"]
    terms = {(t["p"], t["q"]): t["c"] for t in json.loads(out)["expansion"]["terms"]}
    lead = terms.get(("-1", 0))
    e2 = terms.get(("1", 0))
    if lead is None or e2 is None:
        return False, None
    if abs(lead - spec[1] / math.pi) > 1e-6 * spec[1] / math.pi:
        return False, None
    exact = casimir(spec)
    err = abs(-e2 / 2.0 - exact) / abs(exact)
    return err <= ENERGY_GUARD, err


def check_riesz_fit(oracle: dict, out: str) -> bool:
    """Leading Riesz coefficient of the jittered Dirichlet rectangle.

    With alpha = 1 in the lambda variable the leading term is A x / 2, A the
    rectangle's Weyl constant area/(4 pi).  Raising every eigenvalue by a
    factor in [1, 1.01) lowers A by at most 1%; the rest is fit error.
    """
    report = json.loads(out)["fit_report"]
    basis = [(b["p"], b["q"]) for b in report["basis"]]
    lead = report["coefficients"][basis.index(("1", 0))]
    expected = oracle["weyl_area"] / (4.0 * math.pi) / 2.0
    return 0.98 * expected <= lead <= 1.005 * expected


def _csv_rows(out: str, header: str) -> list[tuple]:
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != header:
        return []
    return [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
