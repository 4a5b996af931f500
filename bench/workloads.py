"""Seeded job lists for the benchmark workloads (stdlib only).

The seed picks lengths, the file spectrum's jitter and the job order; the
program receives only the generated command lines and files.  Job cost does
not depend on the seed: `verify` and the scaled `trace`/`coeffs` windows
follow the spectrum's first frequency, so a rescaled spectrum does the same
work.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import oracles

WORKLOADS = ("verify-1d", "verify-2d", "oneshot-mix")

# seconds one untraced pass over the job list takes at the seed commit on a
# 2-vCPU VM.  A run makes a fixed number of passes computed from these, so
# the operations it attempts (and the verify FAILs among them) depend on the
# seed and --seconds, never on how fast the machine happens to run.
PASS_S = {"verify-1d": 10.5, "verify-2d": 9.9, "oneshot-mix": 2.2}

# lines in the oneshot-mix spectrum file (~1.5 MB), enough that parsing it
# dominates a file-backed command
FILE_TERMS = 75_000


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _interval(length: float, bc: str) -> str:
    return f"interval:length={length!r}:bc={bc}"


def _torus(circ: float) -> str:
    return f"torus:circumference={circ!r}"


def _product(a: str, b: str) -> str:
    return f"product:({a})x({b})"


def _verify(spectrum: str, energy=None) -> dict:
    return {"argv": ["verify", "--spectrum", spectrum],
            "oracle": {"check": "verify", "energy": energy}}


def verify_1d(rng: random.Random) -> list[dict]:
    """One job per boundary condition and decade of length, 1e-3 to 1e2.

    Lengths below about 0.5 (Dirichlet, Neumann) and 1.9 (torus) FAIL
    `verify` today, because its tolerances are absolute; they stay in.
    BENCHMARK.json leaves this workload out so that the other two can run
    longer (bench/BASELINE.md has the figures); it runs by hand.
    """
    jobs = []
    for decade in range(-3, 2):
        for kind in ("dirichlet", "neumann", "torus"):
            size = _log_uniform(rng, 10.0 ** decade, 10.0 ** (decade + 1))
            if kind == "torus":
                jobs.append(_verify(_torus(size), oracles.casimir(["torus", size])))
            else:
                jobs.append(_verify(_interval(size, kind),
                                    oracles.casimir(["interval", size, kind])))
    return jobs


def verify_2d(rng: random.Random) -> list[dict]:
    """A Dirichlet square (closed-form energy), a Neumann x Dirichlet
    rectangle and an interval x torus, each with a seeded size and, for the
    last two, aspect ratio 1.5.

    The square's envelope C2 lambda is homogeneous, so its cost is the same
    at every side.  A Neumann or torus factor adds a term linear in the size
    to the product envelope, and `verify` then does more work on larger
    shapes (1.5 s at size 0.5, 3.7 s at 5 for Neumann x Dirichlet), so those
    two sizes come from a narrow band to keep the job cost seed-independent.
    """
    side = _log_uniform(rng, 0.5, 5.0)
    nd, it = (_log_uniform(rng, 1.0, 1.25) for _ in range(2))
    return [
        _verify(_product(_interval(side, "dirichlet"), _interval(side, "dirichlet")),
                oracles.casimir(["square", side])),
        _verify(_product(_interval(nd, "neumann"), _interval(1.5 * nd, "dirichlet"))),
        _verify(_product(_interval(it, "dirichlet"), _torus(1.5 * it))),
    ]


def write_rectangle_file(rng: random.Random, path: Path) -> dict:
    """Write a jittered Dirichlet rectangle spectrum; return what oracles need.

    Every eigenvalue (m pi/a)^2 + (n pi/b)^2 is multiplied by 1+u, u uniform
    in [0, 0.01), and the list re-sorted.  All raised eigenvalues up to the
    cutoff are kept, so the file is a complete truncation.  Raising
    eigenvalues only lowers the counting function, so the rectangle's bound
    N(lambda) <= a b lambda / (4 pi) (lattice points in a quarter ellipse)
    stays a valid envelope line.
    """
    a = _log_uniform(rng, 1.0, 2.0)
    b = a * rng.uniform(1.3, 1.7)
    area_c, perim_c = a * b / (4.0 * math.pi), (a + b) / (2.0 * math.pi)
    # N(lam) ~ area_c lam - perim_c sqrt(lam): solve for the cutoff
    root = (perim_c + math.sqrt(perim_c ** 2 + 4.0 * area_c * FILE_TERMS)) / (2.0 * area_c)
    cutoff = root * root
    lams = []
    m = 1
    while (m * math.pi / a) ** 2 < cutoff:
        lam_m = (m * math.pi / a) ** 2
        n = 1
        while True:
            lam = lam_m + (n * math.pi / b) ** 2
            if lam > cutoff:
                break
            lam *= 1.0 + 0.01 * rng.random()
            if lam <= cutoff:
                lams.append(lam)
            n += 1
        m += 1
    omegas = sorted(math.sqrt(lam) for lam in lams)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# Dirichlet rectangle {a!r} x {b!r}, eigenvalues raised by 1+u, u in [0, 0.01)\n")
        fh.write(f"dim 2\nenvelope 0 {area_c!r}\n")
        fh.writelines(f"{w!r} 1\n" for w in omegas)
    return {"path": str(path), "area": a * b, "perimeter": 2.0 * (a + b),
            "omega_max": omegas[-1], "lambda_max": cutoff}


def oneshot_mix(rng: random.Random, workdir: Path) -> list[dict]:
    """Short commands, each on a fresh spectrum: trace and coeffs on built-in
    spectra, trace and three riesz modes on a file, and six moments studies.

    Ten of the fifteen jobs take 0.1-0.4 s and five take a few ms, so the
    median job is the third fastest of the ten: today one of the 0.1-0.2 s
    file-backed riesz, cylinder-trace and linear-comb commands.  Faster
    parsing moves the four file-backed commands below it and the median
    with them.
    """
    # only the Dirichlet interval has a homogeneous envelope (see verify_2d);
    # sizes with a Neumann or torus factor come from a narrow band
    L1 = _log_uniform(rng, 0.5, 5.0)
    C1, L2, C2, pa = (_log_uniform(rng, 1.0, 1.25) for _ in range(4))
    pc = 1.5 * pa
    # a bump on (lo, lo + w) peaks at exp(-4/w^2); widths of 0.5 to 1 keep its
    # integrals above 1e-8, so quad's absolute tolerance of 1e-13 stays below
    # 1e-5 of them and the rhs check means something
    lo = rng.uniform(0.2, 0.5)
    support = [lo, lo + rng.uniform(0.5, 1.0)]
    rect = write_rectangle_file(rng, workdir / "rect.spec")
    file_spec = "file:" + rect["path"]
    # heat needs omega up to sqrt(72.6/t) for tol 1e-12; stay inside the file
    t_file = 4.0 * 72.6 / rect["omega_max"] ** 2
    g = [rect["area"] / (4.0 * math.pi), -rect["perimeter"] / (4.0 * math.pi), 0.25]

    def grid(lo_t, hi_t):
        return ["--tmin", repr(lo_t), "--tmax", repr(hi_t)]

    def trace(spec_text, oracle_spec, kernel, window):
        return {"argv": ["trace", "--spectrum", spec_text, "--kernel", kernel] + window,
                "oracle": {"check": "trace", "kernel": kernel, "spectrum": oracle_spec}}

    def coeffs(spec_text, oracle_spec, unit):
        return {"argv": ["coeffs", "--spectrum", spec_text] + grid(1e-3 * unit, 1e-1 * unit),
                "oracle": {"check": "coeffs", "spectrum": oracle_spec}}

    def moments(comb, fn):
        argv = ["moments", "--comb", comb, "--fn", fn]
        oracle = {"check": "moments", "comb": comb, "fn": fn}
        if fn == "bump":
            argv += ["--support", repr(support[0]), repr(support[1])]
            oracle["support"] = support
        return {"argv": argv, "oracle": oracle}

    u1, u2 = L1 / math.pi, C1 / (2.0 * math.pi)
    up = pc / math.pi
    jobs = [
        trace(_interval(L1, "dirichlet"), ["interval", L1, "dirichlet"], "cylinder",
              grid(1e-3 * u1, u1)),
        trace(_torus(C1), ["torus", C1], "cylinder", grid(1e-3 * u2, u2)),
        trace(_product(_interval(pa, "dirichlet"), _torus(pc)),
              ["product", ["interval", pa, "dirichlet"], ["torus", pc]], "heat",
              grid(3e-4 * up ** 2, up ** 2)),
        coeffs(_interval(L2, "neumann"), ["interval", L2, "neumann"], L2 / math.pi),
        coeffs(_torus(C2), ["torus", C2], C2 / (2.0 * math.pi)),
        trace(file_spec, ["file", rect["path"]], "heat", grid(t_file, 100.0 * t_file)),
        {"argv": ["riesz", "--spectrum", file_spec, "--fit", "--alpha", "1",
                  "--variable", "lambda", "--xmin", repr(rect["lambda_max"] / 100.0),
                  "--xmax", repr(rect["lambda_max"] * 0.9)],
         "oracle": {"check": "riesz_fit", "weyl_area": rect["area"]}},
        {"argv": ["riesz", "--spectrum", file_spec, "--remainder", "2",
                  "--weyl-coeffs", ",".join(repr(v) for v in g), "--variable", "omega",
                  "--xmin", "1.0", "--xmax", repr(rect["omega_max"])],
         "oracle": {"check": "remainder", "path": rect["path"], "weyl_coeffs": g}},
        {"argv": ["riesz", "--spectrum", file_spec, "--alpha", "2", "--variable", "omega",
                  "--xmin", "1.0", "--xmax", repr(rect["omega_max"])],
         "oracle": {"check": "riesz_mean", "path": rect["path"], "alpha": 2}},
    ]
    for comb, fn in (("linear", "expdecay"), ("squares", "expdecay"),
                     ("omega", "odd-gaussian"), ("linear", "bump"),
                     ("squares", "bump"), ("omega", "bump")):
        jobs.append(moments(comb, fn))
    return jobs


def passes(workload: str, seconds: float, trace: int) -> int:
    """Passes over the job list that take about `seconds` at nominal speed.

    A traced run executes each job twice (untraced and traced), so it makes
    half as many passes.
    """
    per_pass = PASS_S[workload] * (2 if trace else 1)
    return max(1, round(seconds / per_pass))


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """The workload's fixed job list for this seed, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-1d":
        jobs = verify_1d(rng)
    elif workload == "verify-2d":
        jobs = verify_2d(rng)
    elif workload == "oneshot-mix":
        jobs = oneshot_mix(rng, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(jobs)
    return jobs
