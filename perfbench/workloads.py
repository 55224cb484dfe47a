"""The benchmark's workloads: seeded operation lists and their output checks.

An operation is one ``dpminimax`` CLI invocation (argv, run in-process with
``--out``) or, where no subcommand exists, one public library call.  Each
operation carries a check that reads its outputs and returns the problems
found plus the work it reports (Monte-Carlo trials, checks completed).
Every expected value is derived here from closed forms, never from the
program's own output.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

SIGMAS = 5.0  # band for Monte-Carlo checks, in standard errors
LP_TOL = 1e-9
BOUND_TOL = 1e-12


@dataclass
class Outcome:
    rc: int
    files: dict  # file name -> bytes
    value: object = None  # return value of a library call


@dataclass(frozen=True)
class Op:
    key: str
    argv: Optional[tuple] = None  # CLI argv, without --out
    call: Optional[Callable] = None  # library call: fn(dpminimax) -> value
    serialize: Optional[Callable] = None  # library value -> bytes, for the reproducibility digest
    out: str = "report.json"
    check: Callable = None  # Outcome -> (problems, counts)


def _json(outcome: Outcome, name: str = "report.json") -> dict:
    return json.loads(outcome.files[name])


def _rc(outcome: Outcome, expected: int) -> list[str]:
    return [] if outcome.rc == expected else [f"exit code {outcome.rc}, expected {expected}"]


def _mc_band(p: float, trials: int) -> float:
    """SIGMAS binomial standard errors around a disagreement probability p."""
    return SIGMAS * math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def _tv(p: list[float], q: list[float]) -> float:
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q))


# ------------------------------------------------------------------ checks


def check_experiment(outcome: Outcome):
    problems = _rc(outcome, 0)
    cells = _json(outcome)["report"]["cells"]
    for cell in cells:
        label = f"{cell['model']} n={cell['n']} {cell['constraint']['kind']} {cell['mechanism']}"
        if cell["violation"]:
            problems.append(f"{label}: violation flag (risk {cell['risk']!r} < bound {cell['lower_bound']!r} - 3 se)")
        analytic = cell["analytic_risk"]
        if analytic is not None and abs(cell["risk"] - analytic) > SIGMAS * cell["stderr"]:
            problems.append(f"{label}: risk {cell['risk']!r} off analytic {analytic!r} by > {SIGMAS} se")
    trials = sum(c["trials"] for c in cells)
    counts = {"trials": trials, "checks": len(cells), "cells": len(cells), "cell_trials": trials}
    return problems, counts


def check_verify(holds: bool, refuted_check: str = "privacy"):
    """Holding verdicts must hold in every check; refuted ones must carry a witness."""

    def check(outcome: Outcome):
        problems = _rc(outcome, 0 if holds else 1)
        report = _json(outcome)["report"]
        if report["all_hold"] != holds:
            problems.append(f"all_hold={report['all_hold']}, expected {holds}")
        by_name = {c["check"]: c for c in report["checks"]}
        if holds:
            problems += [f"{name} refuted" for name, c in by_name.items() if not c["holds"]]
        else:
            refuted = by_name.get(refuted_check)
            if refuted is None or refuted["holds"] or not refuted["detail"]:
                problems.append(f"{refuted_check} not refuted with a witness")
        return problems, {"checks": len(report["checks"])}

    return check


def check_pair(p, q):
    tv = _tv(p, q)

    def check(outcome: Outcome):
        problems = _rc(outcome, 0)
        report = _json(outcome)
        row, trials = report["report"]["pairs"][0], report["config"]["trials"]
        if abs(row["estimate"] - tv) > _mc_band(tv, trials):
            problems.append(f"maximal pair disagreement {row['estimate']!r} not within {SIGMAS} se of tv {tv!r}")
        return problems, {"trials": trials, "checks": 1}

    return check


def check_races(marginals, lifted_n: int = 1):
    """Race disagreement <= 2tv/(1+tv) (for a lift: 1 - (1 - that)^n), plus the band."""

    def check(outcome: Outcome):
        problems = _rc(outcome, 0)
        report = _json(outcome)
        rows, trials = report["report"]["pairs"], report["config"]["trials"]
        for row in rows:
            tv = _tv(marginals[row["i"]], marginals[row["j"]])
            bound = 1.0 - (1.0 - 2.0 * tv / (1.0 + tv)) ** lifted_n
            if row["estimate"] > bound + _mc_band(bound, trials):
                problems.append(f"pair ({row['i']},{row['j']}) disagreement {row['estimate']!r} above race bound {bound!r}")
        return problems, {"trials": trials, "checks": len(rows)}

    return check


def check_shared(ps):
    def check(outcome: Outcome):
        problems = _rc(outcome, 0)
        report = _json(outcome)
        rows, trials = report["report"]["pairs"], report["config"]["trials"]
        for row in rows:
            gap = abs(ps[row["i"]] - ps[row["j"]])
            if abs(row["estimate"] - gap) > _mc_band(gap, trials):
                problems.append(f"shared-uniform pair ({row['i']},{row['j']}) off |p_i - p_j| = {gap!r}")
        return problems, {"trials": trials, "checks": len(rows)}

    return check


def check_lp(lower: float, upper: float):
    def check(outcome: Outcome):
        problems = _rc(outcome, 0)
        value = _json(outcome)["report"]["lp_value"]
        if not lower - LP_TOL <= value <= upper + LP_TOL:
            problems.append(f"lp value {value!r} outside [{lower!r}, {upper!r}]")
        return problems, {"checks": 1}

    return check


def check_code(d: int, zeta: float):
    target = math.ceil(math.exp(zeta * zeta * d / 2.0))
    floor = math.ceil((0.5 - zeta) * d)

    def check(outcome: Outcome):
        code = outcome.value
        problems = []
        if code.size < target:
            problems.append(f"code d={d} has {code.size} words, target {target}")
        if code.realized_min_distance() < floor:
            problems.append(f"code d={d} distance {code.realized_min_distance()} below floor {floor}")
        return problems, {"checks": 1}

    return check


def check_lecam_product(eps: float):
    """Pure-DP product form: (1/2) (1 - (1 - e^-eps) tv)^n, read from the CSV."""

    def check(outcome: Outcome):
        problems = _rc(outcome, 0)
        rows = list(csv.DictReader(outcome.files["report.csv"].decode().splitlines()))
        for row in rows:
            n, tv = int(row["n"]), float(row["tv"])
            expected = min(1.0, max(0.0, 0.5 * (1.0 - (1.0 - math.exp(-eps)) * tv) ** n))
            if abs(float(row["value"]) - expected) > BOUND_TOL:
                problems.append(f"lecam n={n} tv={tv!r}: {row['value']} != {expected!r}")
        return problems, {"checks": len(rows)}

    return check


def check_fano_zcdp(n: int, N: int, tv: float, rho: float):
    """zCDP joint form with every pairwise tv equal."""
    t = 2.0 * tv / (1.0 + tv)
    raw = 1.0 - (1.0 + (n * n * rho / N**2) * N * (N - 1) * t) / math.log(N)
    expected = min(1.0, max(0.0, raw))

    def check(outcome: Outcome):
        problems = _rc(outcome, 0)
        value = _json(outcome)["report"]["rows"][0]["value"]
        if abs(value - expected) > BOUND_TOL:
            problems.append(f"fano value {value!r} != {expected!r}")
        return problems, {"checks": 1}

    return check


# --------------------------------------------------------------- workloads


def _experiment(sub: str, flags: str, seed: int) -> Op:
    argv = ("experiment", sub, *flags.split(), "--seed", str(seed))
    return Op(key=f"experiment {sub} {flags}", argv=argv, check=check_experiment)


def mc_small_data(rnd: random.Random, scale: float = 1.0) -> list[Op]:
    """Many trials on tiny datasets (criteria 5 and 6 shapes)."""
    uniform, bern = max(100, int(4000 * scale)), max(100, int(1000 * scale))
    return [
        _experiment("uniform", f"--ns 10,20,40 --eps 0.5 --rho 0.1 --trials {uniform}", rnd.randrange(2**31)),
        _experiment("bernoulli", f"--ns 50,100,200,400 --eps 0.1 --rho 0.01 --trials {bern}",
                    rnd.randrange(2**31)),
    ]


def mc_large_data(rnd: random.Random, scale: float = 1.0) -> list[Op]:
    """Few trials on large datasets (criteria 7 and 9 shapes), one operation
    per sample size so that no single operation spans many seconds."""
    if scale < 1.0:
        return [
            _experiment("gaussian", "--d 66 --ns 100 --eps 0.1 --rho 0.01 --trials 100", rnd.randrange(2**31)),
            _experiment("dpsgml", "--d 5 --ns 200 --rho 0.5 --trials 100", rnd.randrange(2**31)),
        ]
    ops = [
        _experiment("gaussian", f"--d 66 --ns {n} --eps 0.1 --rho 0.01 --trials 200", rnd.randrange(2**31))
        for n in (500, 1000)
    ]
    ops += [
        _experiment("dpsgml", f"--d 5 --ns {n} --rho 0.5 --trials 100", rnd.randrange(2**31))
        for n in (200, 500, 1000, 2000)
    ]
    ops.append(_experiment("dpsgml", "--d 5 --ns 500 --rho 0.001,0.01,0.1 --trials 100", rnd.randrange(2**31)))
    return ops


def _weights(rnd: random.Random, k: int) -> list[float]:
    raw = [0.05 + rnd.random() for _ in range(k)]
    total = sum(raw)
    return [w / total for w in raw]


def _fmt(ws) -> str:
    return ",".join(repr(w) for w in ws)


def _verify(sub: str, flags: str, holds: bool, refuted_check: str = "privacy") -> Op:
    return Op(key=f"verify {sub} {flags}", argv=("verify", sub, *flags.split()),
              check=check_verify(holds, refuted_check))


def exact_checks(rnd: random.Random, scale: float = 1.0) -> list[Op]:
    """Verifiers, couplings, packings and bounds; no Monte-Carlo risk study.

    Verdicts are known analytically: randomized response (rr, rr-sum) is
    eps-DP, hence (eps, delta)-DP and eps^2/2-zCDP, and every similarity
    kind is admissible for it; rr checked at rho = eps^2/8 (the zCDP level
    of eps/2) is refuted because its KL divergence eps*tanh(eps/2) exceeds
    that rho; the identity mechanism is refuted by any finite eps.
    """
    eps = lambda: rnd.choice((0.5, math.log(2.0), math.log(3.0)))  # noqa: E731
    ops = []
    for mech, n in (("rr", 1), ("rr", 2), ("rr", 3), ("rr-sum", 3)):
        if scale < 1.0 and n > 2:
            continue
        ops.append(_verify("suite", f"--mechanism {mech} --n {n} --eps {eps()!r}", True))
    e, a, z = eps(), eps(), eps()
    ops += [
        _verify("suite", f"--mechanism rr --n 2 --eps {e!r} --delta 0.001", True),
        _verify("suite", f"--mechanism rr --n 2 --eps {z!r} --rho {z * z / 2!r}", True),
        _verify("privacy", f"--mechanism rr --n 2 --eps {a!r} --rho {a * a / 8!r}", False),
        _verify("privacy", f"--mechanism identity --n 2 --eps {eps()!r}", False),
        _verify("suite", f"--mechanism identity --n 1 --eps {eps()!r}", False),
        _verify("group", f"--mechanism rr --n {2 if scale < 1.0 else 3} --eps {eps()!r}", True),
        _verify("kldp", f"--mechanism rr --n {2 if scale < 1.0 else 3} --eps {eps()!r}", True),
        _verify("admissibility", f"--mechanism rr --n 2 --N 3 --kind fano_match --eps {eps()!r}", True),
        _verify("admissibility", f"--mechanism rr --n 2 --N 3 --kind pairwise_anchor --eps {eps()!r}", True),
        _verify("transport", f"--mechanism rr --n 2 --kind lecam_match --eps {eps()!r}", True),
    ]
    if scale >= 1.0:
        first, second, third = sorted(rnd.sample(range(4), 3))
        ops += [
            _verify("admissibility", f"--mechanism rr-sum --n 3 --N 3 --kind projection_anchor --eps {eps()!r}", True),
            _verify("transport", f"--mechanism rr --n 2 --kind pairwise_anchor "
                                 f"--marginals {first}:1;{second}:1;{third}:1 --eps {eps()!r}", True),
        ]

    trials = max(1000, int(100_000 * scale))
    p, q, r = (_weights(rnd, 3) for _ in range(3))
    ps = [rnd.random() for _ in range(3)]
    seed = lambda: str(rnd.randrange(2**31))  # noqa: E731
    ops += [
        Op(key="couple pair", argv=("couple", "pair", "--p", _fmt(p), "--q", _fmt(q),
                                    "--trials", str(trials), "--seed", seed()), check=check_pair(p, q)),
        Op(key="couple races", argv=("couple", "races", "--marginals", ";".join(map(_fmt, (p, q, r))),
                                     "--trials", str(trials), "--seed", seed()), check=check_races([p, q, r])),
        Op(key="couple lift", argv=("couple", "lift", "--marginals", ";".join(map(_fmt, (p, q))), "--n", "4",
                                    "--trials", str(trials), "--seed", seed()), check=check_races([p, q], 4)),
        Op(key="couple shared", argv=("couple", "shared", "--ps", _fmt(ps), "--trials", str(trials),
                                      "--seed", seed()), check=check_shared(ps)),
        Op(key="couple lp --example2", argv=("couple", "lp", "--example2"), check=check_lp(2.0, 2.0)),
        Op(key="couple lp two", argv=("couple", "lp", "--marginals", ";".join(map(_fmt, (p, q)))),
           check=check_lp(_tv(p, q), _tv(p, q))),
    ]
    pairs = [(p, q), (p, r), (q, r)]
    ops.append(Op(key="couple lp three", argv=("couple", "lp", "--marginals", ";".join(map(_fmt, (p, q, r)))),
                  check=check_lp(sum(_tv(a, b) for a, b in pairs),
                                 sum(2 * _tv(a, b) / (1 + _tv(a, b)) for a, b in pairs))))

    for d in (66, 128) if scale < 1.0 else (66, 128, 200):
        code_seed = rnd.randrange(2**31)
        ops.append(Op(key=f"varshamov_gilbert d={d}", out="",
                      call=lambda dp, d=d, s=code_seed: dp.packings.varshamov_gilbert(d, 0.25, s),
                      serialize=lambda code: code.words.tobytes(),
                      check=check_code(d, 0.25)))

    e, rho = eps(), rnd.choice((0.005, 0.01, 0.02))
    tvs = sorted(round(rnd.uniform(0.05, 0.95), 6) for _ in range(4))
    ops += [
        Op(key="bounds lecam", argv=("bounds", "lecam", "--n", "1,2,4,8,16", "--tv", _fmt(tvs), "--dp",
                                     "--eps", repr(e), "--form", "product", "--format", "csv"),
           out="report.csv", check=check_lecam_product(e)),
    ]
    for n in (1, 4):
        ops.append(Op(key=f"bounds fano n={n}", argv=("bounds", "fano", "--n", str(n), "--N", "3", "--tv-all",
                                                     repr(tvs[0]), "--zcdp", "--rho", repr(rho)),
                      check=check_fano_zcdp(n, 3, tvs[0], rho)))
    return ops


WORKLOADS = {
    "mc_small_data": mc_small_data,
    "mc_large_data": mc_large_data,
    "exact_checks": exact_checks,
}


def build(name: str, seed: int, scale: float = 1.0) -> list[Op]:
    """The workload's operations, a pure function of (name, seed, scale)."""
    return WORKLOADS[name](random.Random(seed), scale)
