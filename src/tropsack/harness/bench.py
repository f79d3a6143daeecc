"""Benchmark runner with log-log scaling fits."""

from __future__ import annotations

import csv
import io
import json
import time
import zlib
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from ..core import MonotoneSeq, NON_DECREASING, SeedCtx
from ..convolution import minplus_naive, monotone_minplus_rect


@dataclass
class RunReport:
    algo: str
    n: int
    t: int
    w_max: int
    p_max: int
    opt: Optional[int]
    millis: float
    seed: int
    verdict: str  # match | mismatch | unchecked
    digest: str = ""


@dataclass
class BenchCase:
    id: str
    size: int
    run: Callable  # (SeedCtx) -> (opt_or_None, verdict, extras dict)


@dataclass
class BenchSummary:
    reports: list
    slope: Optional[float] = None

    def to_json(self) -> str:
        return json.dumps({
            "slope": self.slope,
            "runs": [asdict(r) for r in self.reports],
        }, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(asdict(
            self.reports[0]).keys()) if self.reports else ["algo"])
        writer.writeheader()
        for r in self.reports:
            writer.writerow(asdict(r))
        return buf.getvalue()


def fit_loglog_slope(sizes, times) -> float:
    xs = np.log2(np.asarray(sizes, dtype=float))
    ys = np.log2(np.maximum(np.asarray(times, dtype=float), 1e-9))
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def run_benchmark(cases, seed: SeedCtx) -> BenchSummary:
    """Run every case once, in order; fit a slope over case sizes."""
    reports = []
    for case in cases:
        t0 = time.perf_counter()
        case_seed = seed.child(zlib.crc32(case.id.encode()))
        opt, verdict, extras = case.run(case_seed)
        ms = (time.perf_counter() - t0) * 1000.0
        reports.append(RunReport(case.id, extras.get("n", case.size),
                                 extras.get("t", 0), extras.get("w_max", 0),
                                 extras.get("p_max", 0), opt, ms, seed.seed,
                                 verdict, extras.get("digest", "")))
    slope = None
    if len(reports) >= 2 and len({r.n for r in reports}) >= 2:
        slope = fit_loglog_slope([r.n for r in reports],
                                 [r.millis for r in reports])
    return BenchSummary(reports, slope)


def random_monotone_ramp(n: int, m: int, seed: SeedCtx) -> MonotoneSeq:
    """Monotone non-decreasing sequence from 0 to ~m via a random walk."""
    rng = seed.generator()
    vals = np.minimum(np.cumsum(rng.multinomial(m, np.ones(n) / n)), m)
    return MonotoneSeq(vals, 0, NON_DECREASING, float("inf"), validate=False)


def conv_scaling_cases(sizes, check_against_naive: bool = False):
    """Engine scaling ladder: monotone min-plus at M = n, forced onto the
    level pipeline (the point is its growth rate, not its constants)."""
    cases = []
    for n in sizes:
        def run(seed, n=n):
            a = random_monotone_ramp(n, n, seed.child(1))
            b = random_monotone_ramp(n, n, seed.child(2))
            out = monotone_minplus_rect(a, b, n, seed.child(3),
                                        method="levels")
            verdict = "unchecked"
            if check_against_naive:
                verdict = "match" if out == minplus_naive(a, b) \
                    else "mismatch"
            return None, verdict, {"n": n, "w_max": n, "p_max": n}
        cases.append(BenchCase(f"conv-n{n}", n, run))
    return cases


def solver_bench_cases(sizes, algo: str = "auto"):
    from .generators import gen_balanced_instance
    from .io import instance_digest
    from ..solve import solve

    cases = []
    for n in sizes:
        def run(seed, n=n):
            inst = gen_balanced_instance(n, max(2, n // 4), max(2, n // 2),
                                         seed.child(0))
            rep = solve(inst, algo=algo, seed=seed.child(1))
            return rep.opt, "unchecked", {
                "n": inst.n, "t": inst.capacity, "w_max": inst.w_max,
                "p_max": inst.p_max, "digest": instance_digest(inst)}
        cases.append(BenchCase(f"{algo}-n{n}", n, run))
    return cases
