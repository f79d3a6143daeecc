import zlib

import numpy as np
import pytest

from tropsack import Item, KnapsackInstance, SeedCtx
from tropsack.bellman import bellman_profit_dp
from tropsack.core import normalize
from tropsack.harness.generators import gen_balanced_instance, \
    gen_random_instance
from tropsack.harness.oracle import brute_force_opt
from tropsack.solve import ALGORITHMS, solve

NON_AUTO = [a for a in ALGORITHMS if a != "auto"]


def oracle_opt(inst):
    norm = normalize(inst)
    if norm.is_trivial:
        return norm.trivial_opt
    seq, _ = bellman_profit_dp(norm.instance, norm.instance.capacity)
    return int(seq[norm.instance.capacity])


class TestSolve:
    def test_t_zero(self):
        rep = solve(KnapsackInstance([Item(2, 3)], 0))
        assert rep.opt == 0 and not rep.solution.indices

    def test_empty_instance(self):
        rep = solve(KnapsackInstance([], 7))
        assert rep.opt == 0

    def test_trivial_all_fit(self):
        rep = solve(KnapsackInstance([Item(2, 3), Item(3, 4)], 100))
        assert rep.opt == 7 and len(rep.solution.indices) == 2

    @pytest.mark.parametrize("algo", NON_AUTO)
    def test_all_algorithms_match_oracle(self, algo):
        rng = np.random.default_rng(zlib.crc32(algo.encode()))
        for trial in range(25):
            n = int(rng.integers(0, 40))
            if trial % 2 and n:
                inst = gen_balanced_instance(n, int(rng.integers(2, 25)),
                                             int(rng.integers(2, 30)),
                                             SeedCtx(trial * 31))
            else:
                inst = gen_random_instance(n, int(rng.integers(1, 30)),
                                           int(rng.integers(1, 35)),
                                           int(rng.integers(0, 500)),
                                           SeedCtx(trial * 37))
            rep = solve(inst, algo=algo, seed=SeedCtx(trial))
            assert rep.opt == oracle_opt(inst), (algo, trial, rep.meta)
            assert rep.solution.verify(inst)
            assert rep.solution.total_profit == rep.opt
            assert rep.solution.total_weight <= inst.capacity

    def test_small_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(1, 18))
            inst = gen_random_instance(n, 12, 12, int(rng.integers(1, 80)),
                                       SeedCtx(50 + trial))
            want, _ = brute_force_opt(inst)
            for algo in NON_AUTO:
                rep = solve(inst, algo=algo, seed=SeedCtx(trial))
                assert rep.opt == want, (algo, trial)

    def test_auto_picks_and_matches(self):
        rng = np.random.default_rng(12)
        for trial in range(15):
            inst = gen_random_instance(int(rng.integers(1, 35)), 20, 25,
                                       int(rng.integers(1, 300)),
                                       SeedCtx(2000 + trial))
            rep = solve(inst, algo="auto", seed=SeedCtx(trial))
            assert rep.opt == oracle_opt(inst)
            assert rep.algo in NON_AUTO or rep.meta.get("trivial")

    def test_meta_keeps_the_solver_that_ran(self):
        # auto picks cuberoot here, which hands the instance to t_sqrt_p
        inst = gen_balanced_instance(200, 50, 100, SeedCtx(0))
        rep = solve(inst, algo="auto", seed=SeedCtx(1))
        assert rep.algo == "cuberoot"
        assert rep.meta["algo"] == "t_sqrt_p"
        assert rep.meta["delegated_from"] == "cuberoot"
        assert rep.meta["reps"] >= 1 and "q" in rep.meta
        assert rep.opt == oracle_opt(inst)

    def test_seed_reproducibility(self):
        inst = gen_random_instance(25, 18, 18, 150, SeedCtx(77))
        a = solve(inst, algo="t_sqrt_p", seed=SeedCtx(5))
        b = solve(inst, algo="t_sqrt_p", seed=SeedCtx(5))
        assert a.opt == b.opt and a.solution == b.solution

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError):
            solve(KnapsackInstance([], 1), algo="nope")

    def test_gadget_stress_fixtures(self):
        # each gadget sits at one parameter extreme; run the algorithms
        # whose running times that extreme targets
        from tropsack.hardness import (gadget_small_profits,
                                       gadget_small_weights,
                                       gen_mpv_instance)
        pairs = [(gadget_small_weights, ("t_sqrt_p", "cuberoot")),
                 (gadget_small_profits, ("opt_sqrt_w", "cuberoot_sym"))]
        for n in (8, 16):
            mpv = gen_mpv_instance(n, SeedCtx(n))
            for build, algos in pairs:
                inst = build(mpv)
                want = oracle_opt(inst)
                for algo in algos:
                    rep = solve(inst, algo=algo, seed=SeedCtx(3 * n))
                    assert rep.opt == want, (n, build.__name__, algo)


def test_meta_reports_runs_and_collapsed_q():
    # the balanced n = 600 instance on which the unnarrowed q = 2 tree
    # cost ~41 full-length merges: it runs as one exact leaf
    rng = np.random.default_rng([99, 600, 150, 300])
    w = rng.integers(1, 151, 600)
    f = rng.uniform(0.5, 2, 600)
    p = np.clip(np.rint(f * 2 * w), 1, 300)
    inst = KnapsackInstance([Item(int(a), int(b)) for a, b in zip(w, p)],
                            int(w.sum()) // 2)
    rep = solve(inst, algo="t_sqrt_p", seed=SeedCtx(1))
    assert rep.opt == oracle_opt(inst)
    assert rep.solution.total_profit == rep.opt
    assert rep.solution.total_weight <= inst.capacity
    assert (rep.meta["q"], rep.meta["q_ran"]) == (2, 0)
    assert (rep.meta["reps"], rep.meta["runs"]) == (13, 1)
