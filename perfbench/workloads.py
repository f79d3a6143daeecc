"""Seeded workloads: inputs, the timed operation, its check and baseline.

Every input comes from ``numpy.random.default_rng([seed, stream, i])``,
so one ``--seed`` gives the same inputs in every process.  A workload is
a list of rounds; a round holds the same mix of operations every time,
and a run executes whole rounds only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

import reference

SOLVE_POOL = 32    # distinct instances per solve workload, one per round
ENGINE_POOL = 20   # distinct rounds of engine-rect inputs
ENGINE_SHAPES = ((4096, 1024), (512, 512), (256, 1024))  # (n, M)


def _rng(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def balanced_arrays(n: int, rng: np.random.Generator):
    """w in [1, n/4]; p = w * (p_max / w_max) * f, f uniform in [1/2, 2],
    clipped to [1, n/2], so per-item ratios spread by at most 4;
    t = W/2."""
    w_max, p_max = n // 4, n // 2
    w = rng.integers(1, w_max + 1, n)
    f = rng.uniform(0.5, 2.0, n)
    p = np.clip(np.rint(f * p_max * w / w_max), 1, p_max).astype(np.int64)
    return w, p, int(w.sum()) // 2


def unbalanced_arrays(n: int, w_max: int, p_max: int, rng):
    """w uniform in [1, w_max], p uniform in [1, p_max], t = W/2."""
    w = rng.integers(1, w_max + 1, n)
    p = rng.integers(1, p_max + 1, n)
    return w, p, int(w.sum()) // 2


def monotone_steps(n: int, m: int, rng) -> np.ndarray:
    """n sorted draws from [0, m]: a non-decreasing step sequence, with
    plateaus where n > m and jumps where n < m."""
    return np.sort(rng.integers(0, m + 1, n))


@dataclass
class Op:
    key: str          # names the input, so two runs' outputs can be paired
    shape: str        # groups ops for the per-shape baseline ratios
    args: tuple
    solver_seed: int
    want: object = field(default=None, repr=False)  # cached reference


class SolveWorkload:
    """``tropsack.solve(algo=...)`` on seeded instances."""

    baseline_name = "bellman"

    def __init__(self, tropsack, seed, algo, stream, make_arrays):
        self.tropsack = tropsack
        self.algo = algo
        Item, Instance = tropsack.Item, tropsack.KnapsackInstance
        self.rounds = []
        for i in range(SOLVE_POOL):
            rng = _rng(seed, stream, i)
            w, p, t = make_arrays(rng)
            inst = Instance([Item(int(a), int(b)) for a, b in zip(w, p)], t)
            self.rounds.append([Op(f"i{i}", f"n{len(w)}", (inst, w, p, t),
                                   int(rng.integers(1 << 31)))])

    def run(self, op):
        return self.tropsack.solve(op.args[0], algo=self.algo,
                                   seed=op.solver_seed)

    def check(self, op, report) -> list:
        _, w, p, t = op.args
        if op.want is None:
            op.want = reference.knapsack_opt(w, p, t)
        return reference.knapsack_problems(
            w, p, t, report.opt, sorted(report.solution.indices), op.want)

    def digest(self, report) -> str:
        body = f"{report.opt}:{sorted(report.solution.indices)}"
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    def baseline(self, op):
        """The classic DP, P[0..t], on the same instance."""
        inst, _, _, t = op.args
        return self.tropsack.bellman_profit_dp(inst, t)


class EngineWorkload:
    """``monotone_minplus_rect(method="levels")`` on seeded step
    sequences, one pair per shape in each round."""

    baseline_name = "naive_kernel"

    def __init__(self, tropsack, seed):
        self.tropsack = tropsack
        Seq, up, inf = tropsack.MonotoneSeq, tropsack.NON_DECREASING, \
            tropsack.INF
        self.rounds = []
        for r in range(ENGINE_POOL):
            ops = []
            for j, (n, m) in enumerate(ENGINE_SHAPES):
                rng = _rng(seed, 3, r * len(ENGINE_SHAPES) + j)
                a, b = monotone_steps(n, m, rng), monotone_steps(n, m, rng)
                seqs = (Seq(a.tolist(), 0, up, inf), Seq(b.tolist(), 0, up, inf))
                ops.append(Op(f"r{r}-n{n}-m{m}", f"n{n}_m{m}",
                              (seqs, a, b, m), int(rng.integers(1 << 31))))
            self.rounds.append(ops)

    def _conv(self, op, method):
        (sa, sb), _, _, m = op.args
        return self.tropsack.convolution.monotone_minplus_rect(
            sa, sb, m, self.tropsack.SeedCtx(op.solver_seed), method=method)

    def run(self, op):
        return self._conv(op, "levels")

    def check(self, op, out) -> list:
        _, a, b, m = op.args
        if op.want is None:
            op.want = reference.minplus(a, b)
        if out.start != 0:
            return [f"output starts at {out.start}, not 0"]
        return reference.conv_problems(a, b, m, out.values, op.want)

    def digest(self, out) -> str:
        vals = np.asarray(out.values, dtype=np.float64)
        return hashlib.sha256(vals.tobytes()).hexdigest()[:16]

    def baseline(self, op):
        """The quadratic kernel on the same pair."""
        return self._conv(op, "naive")


WORKLOADS = {
    "tsqrtp-balanced": lambda lib, seed: SolveWorkload(
        lib, seed, "t_sqrt_p", 1, lambda rng: balanced_arrays(150, rng)),
    "auto-unbalanced": lambda lib, seed: SolveWorkload(
        lib, seed, "auto", 2, lambda rng: unbalanced_arrays(150, 200, 20, rng)),
    "engine-rect": EngineWorkload,
}
