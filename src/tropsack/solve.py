"""Front door: normalize, balance, solve, recombine, reconstruct."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (INF, Item, KnapsackInstance, MonotoneSeq, NEG_INF,
                   NON_DECREASING, SeedCtx, Solution, normalize, restrict)
from .balanced import (solve_balanced_cuberoot,
                       solve_balanced_cuberoot_sym, solve_balanced_optsqrtw,
                       solve_balanced_tsqrtp)
from .balancing import BalancedSubproblem, balance_reduce, combine_balanced
from .bellman import bellman_profit_dp, greedy_upper_bound
from .trace import (EmptySetNode, ReconstructionError, ValueOffsetNode,
                    WeightWindowAsProfitNode, reconstruct_items)

ALGORITHMS = ("auto", "bellman", "t_sqrt_p", "opt_sqrt_w", "cuberoot",
              "cuberoot_sym")

_PROFIT_SOLVERS = {"t_sqrt_p": solve_balanced_tsqrtp,
                   "cuberoot": solve_balanced_cuberoot}
_WEIGHT_SOLVERS = {"opt_sqrt_w": solve_balanced_optsqrtw,
                   "cuberoot_sym": solve_balanced_cuberoot_sym}

DUMMY_SCALE = 22  # dummy item sizes, >= twice the recombination extent


class SolverFailure(RuntimeError):
    """All retries produced inconsistent windows; never silently wrong."""


@dataclass
class SolveReport:
    """``algo`` is the algorithm picked; ``meta`` carries the medium
    solver's own meta, whose ``algo`` names the solver that actually ran
    (they differ when it delegates, e.g. cuberoot to t_sqrt_p)."""

    opt: int
    solution: Solution
    algo: str
    meta: dict = field(default_factory=dict)


def _as_seed(seed) -> SeedCtx:
    if isinstance(seed, SeedCtx):
        return seed
    return SeedCtx(0 if seed is None else int(seed))


def solve(instance: KnapsackInstance, algo: str = "auto", seed=None,
          reps: Optional[int] = None) -> SolveReport:
    """Exact optimum plus a witness solution (indices into ``instance``).

    ``algo='auto'`` picks by predicted cost; the randomized routes verify
    their own reconstruction and retry with fresh seeds, raising
    SolverFailure rather than returning an unverified value.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    seed = _as_seed(seed)
    norm = normalize(instance)
    if norm.is_trivial:
        return SolveReport(norm.trivial_opt, norm.trivial_solution, algo,
                           {"trivial": True})
    sub = norm.instance
    kept = np.asarray(norm.kept)
    if algo == "auto":
        algo = _pick_algorithm(sub)
    if algo == "bellman":
        seq, tr = bellman_profit_dp(sub, sub.capacity)
        opt = int(seq[sub.capacity])
        local = reconstruct_items(tr, sub.capacity, opt)
        sol = Solution.from_indices(instance, kept[local])
        return SolveReport(opt, sol, "bellman", {})

    meta = {"algo": algo}
    last_err = None
    for attempt in range(3):
        s = seed.child(11, attempt)
        try:
            bsub = balance_reduce(sub, s.child(0), boost=reps)
            if algo in _PROFIT_SOLVERS:
                med = _medium_profit_window(sub, bsub,
                                            _PROFIT_SOLVERS[algo],
                                            s.child(1), reps, meta)
            else:
                med = _medium_weight_window(sub, bsub,
                                            _WEIGHT_SOLVERS[algo],
                                            s.child(1), reps, meta)
            opt, sol_local = combine_balanced(med, bsub, sub, s.child(2))
            if sol_local.total_profit != opt or \
                    sol_local.total_weight > sub.capacity:
                raise ReconstructionError("combined solution inconsistent")
            sol = Solution.from_indices(instance,
                                        kept[sorted(sol_local.indices)])
            meta["attempts"] = attempt + 1
            return SolveReport(int(opt), sol, algo, meta)
        except ReconstructionError as exc:
            last_err = exc
            continue
    raise SolverFailure(f"{algo} failed after retries: {last_err}")


def _pick_algorithm(sub: KnapsackInstance) -> str:
    opt_bound = greedy_upper_bound(sub)
    n, t = sub.n, sub.capacity
    w, p = sub.w_max, sub.p_max
    third = lambda x: round(x ** (1 / 3))
    costs = [
        ("bellman", n * min(t, opt_bound)),
        ("t_sqrt_p", t * math.isqrt(p)),
        ("opt_sqrt_w", opt_bound * math.isqrt(w)),
        ("cuberoot", third(n * w * p) * third(t * t)),
        ("cuberoot_sym", third(n * w * p) * third(opt_bound * opt_bound)),
    ]
    best_name, best_cost = costs[0]
    for name, cost in costs[1:]:
        if cost < best_cost:
            best_name, best_cost = name, cost
    return best_name


# ---------------------------------------------------------------------------
# Medium windows


def _zero_curve(lo: int, hi: int):
    seq = MonotoneSeq([0] * (hi - lo + 1), lo, NON_DECREASING, NEG_INF,
                      validate=False)
    return seq, EmptySetNode()


def _medium_with_dummies(sub: KnapsackInstance, bsub: BalancedSubproblem,
                         capacity: int):
    items = [sub.items[i] for i in bsub.medium_ids]
    ids = list(bsub.medium_ids)
    items.append(Item(DUMMY_SCALE * sub.w_max, 0, internal=True))
    ids.append(-1)
    items.append(Item(0, DUMMY_SCALE * sub.p_max, internal=True))
    ids.append(-2)
    return KnapsackInstance(items, capacity), np.asarray(ids)


def _medium_bellman_window(sub, bsub, meta):
    lo, hi = bsub.capacity_range
    meta["medium_fallback"] = "bellman"
    if not bsub.medium_ids:
        return _zero_curve(lo, hi)
    med = sub.subset(bsub.medium_ids)
    seq, tr = bellman_profit_dp(med, hi, ids=np.asarray(bsub.medium_ids))
    return restrict(seq, (lo, hi), (-(1 << 62), 1 << 62)), tr


def _medium_profit_window(sub, bsub, solver_fn, seed, reps, meta):
    lo, hi = bsub.capacity_range
    if not bsub.medium_ids:
        return _zero_curve(lo, hi)
    med_inst, ids = _medium_with_dummies(sub, bsub, hi)
    mnorm = normalize(med_inst)
    if mnorm.is_trivial or mnorm.instance.n == 0:
        return _medium_bellman_window(sub, bsub, meta)
    inner_ids = ids[list(mnorm.kept)]
    offset = DUMMY_SCALE * sub.p_max if (-2 in set(inner_ids.tolist())) else 0
    res = solver_fn(mnorm.instance, seed, reps=reps, max_imbalance=None,
                    ids=inner_ids)
    meta.update(res.meta)
    seq = res.seq
    if seq.is_empty() or seq.start > lo or seq.stop <= hi:
        return _medium_bellman_window(sub, bsub, meta)
    vals = []
    for c in range(lo, hi + 1):
        v = seq[c]
        if v == NEG_INF or v == INF or v < offset:
            return _medium_bellman_window(sub, bsub, meta)
        vals.append(int(v) - offset)
    out = MonotoneSeq(vals, lo, NON_DECREASING, NEG_INF, validate=False)
    return out, ValueOffsetNode(offset, res.trace)


def _medium_weight_window(sub, bsub, solver_fn, seed, reps, meta):
    lo, hi = bsub.capacity_range
    if not bsub.medium_ids:
        return _zero_curve(lo, hi)
    med_inst, ids = _medium_with_dummies(sub, bsub, hi)
    mnorm = normalize(med_inst)
    if mnorm.is_trivial or mnorm.instance.n == 0:
        return _medium_bellman_window(sub, bsub, meta)
    inner_ids = ids[list(mnorm.kept)]
    offset = DUMMY_SCALE * sub.p_max if (-2 in set(inner_ids.tolist())) else 0
    res = solver_fn(mnorm.instance, seed, reps=reps, max_imbalance=None,
                    ids=inner_ids)
    meta.update(res.meta)
    wseq = res.seq
    plo = bsub.profit_range[0] + offset
    phi = bsub.profit_range[1] + offset
    if wseq.is_empty() or wseq.start > plo or wseq.stop <= phi:
        return _medium_bellman_window(sub, bsub, meta)
    # derive the medium profit window: best covered profit within budget
    vals = []
    for c in range(lo, hi + 1):
        best = 0
        vlo, vhi = wseq.start, wseq.stop - 1
        while vlo <= vhi:  # monotone weight curve: binary search
            mid = (vlo + vhi) // 2
            wv = wseq[mid]
            if wv != INF and wv <= c:
                best = max(best, mid)
                vlo = mid + 1
            else:
                vhi = mid - 1
        vals.append(max(0, best - offset))
    out = MonotoneSeq(vals, lo, NON_DECREASING, NEG_INF, validate=False)
    return out, WeightWindowAsProfitNode(wseq, res.trace, offset)
