"""Divide-and-conquer solvers for balanced instances.

Items are split uniformly at random into 2^q groups; per-group sequences
are computed by a base-case solver (bounded-sequence or banded DP), then
combined up a binary tree of bounded monotone tropical convolutions.
Concentration of the random split lets every level restrict its sequences
to narrow index and value windows, which is where the speed comes from.
Single runs are correct with high probability; results are boosted by
entrywise max (profit) or min (weight) over repetitions, which stop at
the first exact run.  A plan none of whose level windows narrows runs as
one leaf over all items (q = 0): the tree would compute the same curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (INF, KnapsackInstance, MonotoneSeq, NEG_INF,
                   NON_DECREASING, SeedCtx, Solution, _verified_direction,
                   restrict)
from .bellman import bellman_profit_dp, bellman_weight_dp, greedy_upper_bound
from .bounded import bc_profit_bounded, bc_weight_bounded, merge_maxplus, \
    merge_minplus
from .trace import reconstruct_items
from .windowed import (Witnessed, banded_profit_window, banded_weight_window,
                       boost_runs)


class ImbalanceError(ValueError):
    """Instance is too far from balanced; route it through balance_reduce."""


def _iceil_sqrt(x: int) -> int:
    if x <= 0:
        return 0
    r = math.isqrt(x)
    return r if r * r == x else r + 1


@dataclass(frozen=True)
class TreeLevelPlan:
    """Window geometry for the group tree.

    Entries beyond the final window tops can never contribute (tropical
    sums of non-negative curves only grow), so every level is clipped to
    ``cap_w``/``cap_p`` on top of its concentration window.
    """

    q: int
    eta: int
    delta_w: int
    delta_p: int
    t: int
    opt_bound: int
    cap_w: int
    cap_p: int

    def weight_window(self, level: int):
        rad = _iceil_sqrt(-(-self.delta_w // (1 << level))) * self.eta
        center = self.t // (1 << level)
        return (max(0, center - rad - 1), min(center + rad + 1, self.cap_w))

    def profit_window(self, level: int):
        rad = _iceil_sqrt(-(-self.delta_p // (1 << level))) * self.eta
        center = self.opt_bound // (1 << level)
        return (max(0, center - rad - 1), min(center + rad + 1, self.cap_p))

    def base_weight_window(self):
        return (0, self.weight_window(self.q)[1])

    def base_profit_window(self):
        return (0, self.profit_window(self.q)[1])

    def collapsed(self) -> "TreeLevelPlan":
        """The plan to run: q = 0 when every level window is the whole
        (0, cap_w) x (0, cap_p).  Tropical sums of non-negative curves
        commute with truncation at cap_w and cap_p, so such a tree
        computes what one leaf over all its items does."""
        whole = all(self.weight_window(lvl) == (0, self.cap_w) and
                    self.profit_window(lvl) == (0, self.cap_p)
                    for lvl in range(self.q + 1))
        return replace(self, q=0) if whole else self


def make_plan(instance: KnapsackInstance, opt_bound: int,
              q: Optional[int] = None) -> TreeLevelPlan:
    t = instance.capacity
    groups = min(t // instance.w_max, opt_bound // instance.p_max)
    if q is None:
        q = max(0, groups.bit_length() - 1)
    eta = 17 * max(1, math.ceil(math.log2(max(instance.n, 2))))
    cap_w = t + _iceil_sqrt(t * instance.w_max) + 1
    cap_p = opt_bound + _iceil_sqrt(opt_bound * instance.p_max) + 1
    return TreeLevelPlan(q, eta, t * instance.w_max,
                         opt_bound * instance.p_max, t, opt_bound,
                         cap_w, cap_p)


@dataclass
class SolverResult:
    """Windowed sequence with provenance.

    kind='profit': seq maps weight budgets to best profits over
    [t - sqrt(t*w_max), t + sqrt(t*w_max)] (value window around OPT~).
    kind='weight': seq maps profit targets to min weights.
    """

    kind: str
    seq: MonotoneSeq
    trace: object
    t_window: tuple
    p_window: tuple
    opt_bound: int
    meta: dict = field(default_factory=dict)

    def opt_at(self, capacity: int):
        """Best profit at the given capacity readable from the window."""
        if self.kind == "profit":
            if self.seq.is_empty() or capacity < self.seq.start:
                return None
            k = min(capacity, self.seq.stop - 1)
            v = self.seq[k]
            return None if v == NEG_INF or v == INF else (int(v), k)
        # weight window: largest profit index with weight <= capacity
        lo, hi = self.seq.start, self.seq.stop - 1
        if self.seq.is_empty():
            return None
        while lo < hi:  # binary search on the monotone weight curve
            mid = (lo + hi + 1) // 2
            v = self.seq[mid]
            if v != INF and v <= capacity:
                lo = mid
            else:
                hi = mid - 1
        v = self.seq[lo]
        if v == INF or v > capacity:
            return None
        return (int(lo), int(lo))


def _balance_ratio(instance: KnapsackInstance, opt_bound: int) -> Fraction:
    return Fraction(instance.capacity * instance.p_max,
                    instance.w_max * max(opt_bound, 1))


def _check_inputs(instance: KnapsackInstance, opt_bound: int,
                  max_imbalance: float):
    if instance.n == 0:
        raise ValueError("solver requires a non-empty normalized instance")
    if instance.w_max > instance.capacity:
        raise ValueError("instance is not normalized (w_max > t)")
    if max_imbalance is not None:
        r = _balance_ratio(instance, opt_bound)
        if not (1 / max_imbalance <= float(r) <= max_imbalance):
            raise ImbalanceError(
                f"imbalance ratio {float(r):.3g} outside "
                f"[1/{max_imbalance}, {max_imbalance}]; apply balance_reduce")


def _default_reps(n: int) -> int:
    return math.ceil(math.log2(max(n, 2))) + 3


def _final_windows(instance, opt_bound):
    t = instance.capacity
    rad_t = _iceil_sqrt(t * instance.w_max)
    rad_p = _iceil_sqrt(opt_bound * instance.p_max)
    return (max(0, t - rad_t), t + rad_t), \
        (max(0, opt_bound - rad_p), opt_bound + rad_p)


def _bellman_profit_result(instance, opt_bound, meta, ids=None) -> SolverResult:
    t_win, p_win = _final_windows(instance, opt_bound)
    seq, tr = bellman_profit_dp(instance, t_win[1], ids=ids)
    out = restrict(seq, t_win, p_win)
    meta = dict(meta, fallback="bellman")
    return SolverResult("profit", out, tr, t_win, p_win, opt_bound, meta)


def _bellman_weight_result(instance, opt_bound, meta, ids=None) -> SolverResult:
    t_win, p_win = _final_windows(instance, opt_bound)
    seq, tr = bellman_weight_dp(instance, p_win[1], ids=ids)
    out = restrict(seq, p_win, t_win)
    meta = dict(meta, fallback="bellman")
    return SolverResult("weight", out, tr, t_win, p_win, opt_bound, meta)


def _random_groups(n: int, q: int, seed: SeedCtx):
    """Independent uniform group assignment (matches the concentration
    analysis, where each level-l group contains an item w.p. 2^-l)."""
    rng = seed.generator()
    gid = rng.integers(0, 1 << q, n)
    return [np.flatnonzero(gid == j) for j in range(1 << q)]


def _tree_run(instance, plan, seed, leaf_fn, merge, ids):
    """One randomized run of the group tree, a Witnessed curve; exact
    when the tree is one exact leaf."""
    groups = _random_groups(instance.n, plan.q, seed.child(0))
    level = []
    for j, members in enumerate(groups):
        level.append(leaf_fn(members, j, seed.child(1, j)))
    for lvl in range(plan.q - 1, -1, -1):
        w_win = plan.weight_window(lvl)
        p_win = plan.profit_window(lvl)
        nxt = []
        for j in range(0, len(level), 2):
            seq, tr = merge(level[j], level[j + 1], seed.child(2, lvl, j))
            nxt.append(Witnessed(_restrict_pair(seq, w_win, p_win, merge),
                                 tr))
        level = nxt
    return level[0]


def _restrict_pair(seq, w_win, p_win, merge):
    if merge is merge_maxplus:
        return restrict(seq, w_win, p_win)
    return restrict(seq, p_win, w_win)


# ---------------------------------------------------------------------------
# Profit solvers


def solve_balanced_tsqrtp(instance: KnapsackInstance, seed: SeedCtx,
                          reps: Optional[int] = None,
                          max_imbalance: Optional[float] = 64.0,
                          ids=None) -> SolverResult:
    """Profit window solver with bounded-sequence base cases."""
    opt_bound = greedy_upper_bound(instance)
    _check_inputs(instance, opt_bound, max_imbalance)
    if instance.n < 10 or instance.n ** 3 <= 2 * instance.p_max:
        return _bellman_profit_result(instance, opt_bound,
                                      {"algo": "t_sqrt_p"}, ids)
    plan = make_plan(instance, opt_bound)
    return _boosted("profit", instance, plan, opt_bound, seed, reps, ids,
                    _bc_leaf_factory, {"algo": "t_sqrt_p"})


def solve_balanced_cuberoot(instance: KnapsackInstance, seed: SeedCtx,
                            reps: Optional[int] = None,
                            max_imbalance: Optional[float] = 64.0,
                            ids=None) -> SolverResult:
    """Profit window solver with banded-DP base cases; delegates to the
    bounded-sequence variant (or the classic DP) outside its regime."""
    opt_bound = greedy_upper_bound(instance)
    _check_inputs(instance, opt_bound, max_imbalance)
    n, t = instance.n, instance.capacity
    c = min(Fraction(1), Fraction(opt_bound * instance.w_max,
                                  instance.p_max * t))
    if Fraction(n) >= c * t * _iceil_sqrt(instance.p_max) / instance.w_max:
        res = solve_balanced_tsqrtp(instance, seed, reps, max_imbalance, ids)
        res.meta["delegated_from"] = "cuberoot"
        return res
    if instance.n < 10 or n ** 3 <= 2 * instance.p_max:
        return _bellman_profit_result(instance, opt_bound,
                                      {"algo": "cuberoot"}, ids)
    q = _cuberoot_q(n ** 4 * instance.w_max, t * instance.p_max ** 2)
    q = min(q, max(0, min(t // instance.w_max,
                          opt_bound // instance.p_max).bit_length() - 1))
    plan = make_plan(instance, opt_bound, q=q)
    return _boosted("profit", instance, plan, opt_bound, seed, reps, ids,
                    _banded_leaf_factory, {"algo": "cuberoot"})


def _cuberoot_q(num: int, den: int) -> int:
    """Largest q >= 0 with 8^q * den <= num."""
    q = 0
    while (8 ** (q + 1)) * den <= num:
        q += 1
    return q


def _boosted(kind, instance, plan, opt_bound, seed, reps, ids, leaf_factory,
             meta):
    """Boosted tree runs of the collapsed plan, read on the final
    windows; ``meta`` gains the planned and the run q, the reps and the
    runs made."""
    reps = _default_reps(instance.n) if reps is None else reps
    merge = merge_maxplus if kind == "profit" else merge_minplus
    ran = plan.collapsed()
    leaf_fn = leaf_factory(instance, ran, ids)
    (seq, tr), runs = boost_runs(
        lambda r: _tree_run(instance, ran, seed.child(100 + r), leaf_fn,
                            merge, ids),
        reps, maximize=kind == "profit")
    meta.update(q=plan.q, q_ran=ran.q, reps=reps, runs=runs)
    t_win, p_win = _final_windows(instance, opt_bound)
    if _verified_direction(seq.arr, NON_DECREASING) == "unknown":
        out = MonotoneSeq((), 0, NON_DECREASING,
                          NEG_INF if kind == "profit" else INF)
        meta = dict(meta, combine_nonmonotone=True)
    else:
        out = _restrict_pair(seq, t_win, p_win, merge)
    return SolverResult(kind, out, tr, t_win, p_win, opt_bound, meta)


def _bc_leaf_factory(instance, plan, ids):
    idarr = np.arange(instance.n) if ids is None else np.asarray(ids)
    w_star = plan.base_weight_window()
    p_star = plan.base_profit_window()
    w_q = plan.weight_window(plan.q)
    p_q = plan.profit_window(plan.q)

    def leaf(members, j, seed):
        sub = instance.subset(members)
        res = bc_profit_bounded(sub, w_star[1], p_star[1], seed,
                                ids=idarr[members])
        return Witnessed(restrict(res[0], w_q, p_q), res[1], res.exact)

    return leaf


def _banded_leaf_factory(instance, plan, ids):
    idarr = np.arange(instance.n) if ids is None else np.asarray(ids)
    w_q = plan.weight_window(plan.q)
    p_q = plan.profit_window(plan.q)
    t_q = plan.t // (1 << plan.q)
    ell = (w_q[1] - w_q[0]) // 2 + 2

    def leaf(members, j, seed):
        sub = instance.subset(members)
        if sub.n == 0 or ell < 2 or ell > t_q:
            res = Witnessed(*bellman_profit_dp(sub, w_q[1],
                                               ids=idarr[members]), True)
        else:
            res = banded_profit_window(sub, t_q, ell, seed,
                                       ids=idarr[members])
        return Witnessed(restrict(res[0], w_q, p_q), res[1], res.exact)

    return leaf


# ---------------------------------------------------------------------------
# Weight solvers


def solve_balanced_optsqrtw(instance: KnapsackInstance, seed: SeedCtx,
                            reps: Optional[int] = None,
                            max_imbalance: Optional[float] = 64.0,
                            ids=None) -> SolverResult:
    """Weight window solver with bounded-sequence base cases."""
    opt_bound = greedy_upper_bound(instance)
    _check_inputs(instance, opt_bound, max_imbalance)
    if instance.n < 10 or instance.n ** 3 <= 2 * instance.w_max:
        return _bellman_weight_result(instance, opt_bound,
                                      {"algo": "opt_sqrt_w"}, ids)
    plan = make_plan(instance, opt_bound)
    return _boosted("weight", instance, plan, opt_bound, seed, reps, ids,
                    _bcw_leaf_factory, {"algo": "opt_sqrt_w"})


def solve_balanced_cuberoot_sym(instance: KnapsackInstance, seed: SeedCtx,
                                reps: Optional[int] = None,
                                max_imbalance: Optional[float] = 64.0,
                                ids=None) -> SolverResult:
    opt_bound = greedy_upper_bound(instance)
    _check_inputs(instance, opt_bound, max_imbalance)
    n = instance.n
    c = min(Fraction(1), Fraction(instance.capacity * instance.p_max,
                                  instance.w_max * opt_bound))
    if Fraction(n) >= c * opt_bound * _iceil_sqrt(instance.w_max) / instance.p_max:
        res = solve_balanced_optsqrtw(instance, seed, reps, max_imbalance, ids)
        res.meta["delegated_from"] = "cuberoot_sym"
        return res
    if instance.n < 10 or n ** 3 <= 2 * instance.w_max:
        return _bellman_weight_result(instance, opt_bound,
                                      {"algo": "cuberoot_sym"}, ids)
    q = _cuberoot_q(n ** 4 * instance.p_max, opt_bound * instance.w_max ** 2)
    q = min(q, max(0, min(instance.capacity // instance.w_max,
                          opt_bound // instance.p_max).bit_length() - 1))
    plan = make_plan(instance, opt_bound, q=q)
    return _boosted("weight", instance, plan, opt_bound, seed, reps, ids,
                    _bandedw_leaf_factory, {"algo": "cuberoot_sym"})


def _bcw_leaf_factory(instance, plan, ids):
    idarr = np.arange(instance.n) if ids is None else np.asarray(ids)
    w_star = plan.base_weight_window()
    p_star = plan.base_profit_window()
    w_q = plan.weight_window(plan.q)
    p_q = plan.profit_window(plan.q)

    def leaf(members, j, seed):
        sub = instance.subset(members)
        res = bc_weight_bounded(sub, p_star[1], w_star[1], seed,
                                ids=idarr[members])
        return Witnessed(restrict(res[0], p_q, w_q), res[1], res.exact)

    return leaf


def _bandedw_leaf_factory(instance, plan, ids):
    idarr = np.arange(instance.n) if ids is None else np.asarray(ids)
    w_q = plan.weight_window(plan.q)
    p_q = plan.profit_window(plan.q)
    v_q = plan.opt_bound // (1 << plan.q)
    ell = (p_q[1] - p_q[0]) // 2 + 2

    def leaf(members, j, seed):
        sub = instance.subset(members)
        if sub.n == 0 or ell < 2 or ell > v_q:
            res = Witnessed(*bellman_weight_dp(sub, p_q[1],
                                               ids=idarr[members]), True)
        else:
            res = banded_weight_window(sub, v_q, ell, seed,
                                       ids=idarr[members])
        return Witnessed(restrict(res[0], p_q, w_q), res[1], res.exact)

    return leaf


# ---------------------------------------------------------------------------
# Reconstruction


def reconstruct_solution(instance: KnapsackInstance, result: SolverResult,
                         index: int) -> Solution:
    """Item subset realizing the window entry at ``index``.

    For profit windows the returned solution has total weight <= index and
    total profit equal to the entry; for weight windows total profit >=
    index and total weight equal to the entry.
    """
    value = result.seq[index]
    ids = reconstruct_items(result.trace, index, value)
    return Solution.from_indices(instance, ids)
