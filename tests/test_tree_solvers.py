from dataclasses import replace

import numpy as np
import pytest

import tropsack.windowed as windowed

from tropsack import Item, KnapsackInstance, SeedCtx
from tropsack.balanced import (ImbalanceError, make_plan,
                               reconstruct_solution, solve_balanced_cuberoot,
                               solve_balanced_cuberoot_sym,
                               solve_balanced_optsqrtw,
                               solve_balanced_tsqrtp)
from tropsack.bellman import bellman_profit_dp, bellman_weight_dp, \
    greedy_upper_bound
from tropsack.core import normalize, restrict
from tropsack.harness.generators import gen_balanced_instance, \
    gen_random_instance
from tropsack.harness.oracle import brute_force_opt
from tropsack.solve import solve
from tropsack.trace import reconstruct_items

SOLVERS = [("t_sqrt_p", solve_balanced_tsqrtp),
           ("cuberoot", solve_balanced_cuberoot),
           ("opt_sqrt_w", solve_balanced_optsqrtw),
           ("cuberoot_sym", solve_balanced_cuberoot_sym)]


def corpus(count, seed0=0, n_hi=60):
    rng = np.random.default_rng(seed0)
    out = []
    while len(out) < count:
        n = int(rng.integers(10, n_hi))
        wmax = int(rng.integers(2, 34))
        pmax = int(rng.integers(2, 40))
        res = normalize(gen_balanced_instance(n, wmax, pmax,
                                              SeedCtx(seed0 + len(out) * 7)))
        if not res.is_trivial and res.instance.capacity <= 2000:
            out.append(res.instance)
    return out


class TestPlan:
    def test_group_count_bounds(self):
        inst = corpus(1, seed0=11)[0]
        opt_bound = greedy_upper_bound(inst)
        plan = make_plan(inst, opt_bound)
        assert 1 <= (1 << plan.q) <= inst.n
        assert (1 << plan.q) <= inst.capacity // inst.w_max
        assert (1 << plan.q) <= opt_bound // inst.p_max

    def test_imbalance_guard(self):
        items = [Item(1, 1000)] + [Item(50, 1) for _ in range(100)]
        inst = normalize(KnapsackInstance(items, 400)).instance
        with pytest.raises(ImbalanceError):
            solve_balanced_tsqrtp(inst, SeedCtx(0), max_imbalance=4.0)


@pytest.mark.parametrize("name,solver", SOLVERS)
class TestWindowEquality:
    def test_windows_match_bellman(self, name, solver):
        insts = corpus(12, seed0=hash(name) % 100)
        for i, inst in enumerate(insts):
            res = solver(inst, SeedCtx(i))
            if res.kind == "profit":
                ref, _ = bellman_profit_dp(inst, res.t_window[1])
                want = restrict(ref, res.t_window, res.p_window)
            else:
                ref, _ = bellman_weight_dp(inst, res.p_window[1])
                want = restrict(ref, res.p_window, res.t_window)
            assert res.seq.values == want.values, (name, i, res.meta)
            if len(res.seq):
                assert res.seq.start == want.start

    def test_opt_and_reconstruction(self, name, solver):
        insts = corpus(8, seed0=50 + hash(name) % 100)
        for i, inst in enumerate(insts):
            ref, _ = bellman_profit_dp(inst, inst.capacity)
            want = int(ref[inst.capacity])
            res = solver(inst, SeedCtx(100 + i))
            got = res.opt_at(inst.capacity)
            assert got is not None and got[0] == want, (name, i, res.meta)
            sol = reconstruct_solution(inst, res, got[1])
            if res.kind == "profit":
                assert sol.total_profit == got[0]
                assert sol.total_weight <= got[1]
            else:
                assert sol.total_weight == res.seq[got[1]]
                assert sol.total_profit >= got[1]

    def test_monotone_window_invariant(self, name, solver):
        inst = corpus(1, seed0=200 + hash(name) % 50)[0]
        res = solver(inst, SeedCtx(3))
        vals = [v for v in res.seq.values]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestSmallInstances:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for trial in range(40):
            n = int(rng.integers(1, 18))
            inst0 = gen_balanced_instance(n, int(rng.integers(2, 12)),
                                          int(rng.integers(2, 12)),
                                          SeedCtx(trial))
            res = normalize(inst0)
            if res.is_trivial:
                continue
            inst = res.instance
            want, _ = brute_force_opt(inst)
            for name, solver in SOLVERS:
                r = solver(inst, SeedCtx(trial))
                got = r.opt_at(inst.capacity)
                assert got is not None and got[0] == want, (name, trial)

    def test_single_item_window_contains_opt(self):
        inst = KnapsackInstance([Item(3, 5)] * 12, 3)
        for name, solver in SOLVERS:
            r = solver(inst, SeedCtx(1))
            got = r.opt_at(3)
            assert got is not None and got[0] == 5, name


class TestBoostingInvariance:
    def test_extra_reps_leave_opt_unchanged(self):
        import math
        insts = corpus(5, seed0=77)
        for i, inst in enumerate(insts):
            default = math.ceil(math.log2(max(inst.n, 2))) + 3
            for name, solver in SOLVERS[:2]:
                a = solver(inst, SeedCtx(i), reps=default)
                b = solver(inst, SeedCtx(i), reps=default + 2)
                ga, gb = a.opt_at(inst.capacity), b.opt_at(inst.capacity)
                assert ga is not None and gb is not None
                assert ga[0] == gb[0], (name, i)


class TestExactRuns:
    def test_unnarrowed_plan_collapses_to_one_leaf(self):
        for i, inst in enumerate(corpus(6, seed0=21)):
            for name, solver in SOLVERS:
                res = solver(inst, SeedCtx(i))
                plan = make_plan(inst, greedy_upper_bound(inst),
                                 q=res.meta["q"])
                assert res.meta["q_ran"] == plan.collapsed().q == 0
                assert 1 <= res.meta["runs"] <= res.meta["reps"]
                got = res.opt_at(inst.capacity)
                want = bellman_profit_dp(inst, inst.capacity)[0]
                assert got[0] == want[inst.capacity], (name, i)

    def test_narrowing_plan_keeps_its_tree(self):
        inst = corpus(1, seed0=21)[0]
        plan = make_plan(inst, greedy_upper_bound(inst), q=1)
        narrow = replace(plan, eta=1)
        assert narrow.weight_window(1) != (0, narrow.cap_w)
        assert narrow.collapsed() == narrow

    def test_short_circuit_keeps_windows_and_witnesses(self, monkeypatch):
        insts = corpus(4, seed0=41)
        rng = np.random.default_rng(41)
        small = [gen_random_instance(int(rng.integers(20, 60)), 25, 30,
                                     int(rng.integers(100, 600)),
                                     SeedCtx(k)) for k in range(6)]

        def outputs():
            out = []
            for i, inst in enumerate(insts):
                for name, solver in SOLVERS:
                    res = solver(inst, SeedCtx(i))
                    seq = res.seq
                    out.append((res.kind, seq.start, seq.values,
                                [reconstruct_items(res.trace, k, seq[k])
                                 for k in seq.indices()]))
            for i, inst in enumerate(small):
                for algo in ("t_sqrt_p", "opt_sqrt_w", "cuberoot",
                             "cuberoot_sym"):
                    rep = solve(inst, algo=algo, seed=SeedCtx(i))
                    out.append((rep.opt, sorted(rep.solution.indices),
                                rep.meta.get("medium_fallback")))
            return out

        default = outputs()
        monkeypatch.setattr(windowed.Witnessed, "exact",
                            property(lambda self: False,
                                     lambda self, v: None), raising=False)
        assert outputs() == default
