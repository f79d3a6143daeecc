import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tropsack.bounded as bounded
from tropsack import INF, Item, KnapsackInstance, SeedCtx
from tropsack.bellman import (bellman_profit_dp, bellman_weight_dp,
                              greedy_upper_bound)
from tropsack.bounded import (GroupKey, bc_profit_bounded, bc_weight_bounded,
                              _bc_profit_group, _tree_merge_cells)
from tropsack.core import normalize, restrict
from tropsack.harness.generators import gen_random_instance
from tropsack.harness.oracle import brute_force_opt
from tropsack.trace import (ChooseNode, ItemWitnessNode, MergeNode,
                            ProfitDPNode, WeightDPNode, reconstruct_items)
from tropsack.windowed import banded_profit_window, banded_weight_window


def boost_for(n):
    return math.ceil(math.log2(max(n, 2))) + 3


class TestBellmanProfit:
    def test_empty_instance(self):
        seq, _ = bellman_profit_dp(KnapsackInstance([], 9), 4)
        assert seq.values == (0, 0, 0, 0, 0)

    def test_two_items_frozen(self):
        inst = KnapsackInstance([Item(2, 3), Item(3, 4)], 5)
        seq, _ = bellman_profit_dp(inst, 5)
        assert seq.values == (0, 0, 3, 4, 4, 7)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(300):
            n = int(rng.integers(0, 15))
            inst = gen_random_instance(n, 12, 15, int(rng.integers(0, 40)),
                                       SeedCtx(trial))
            opt, _ = brute_force_opt(inst)
            seq, tr = bellman_profit_dp(inst, inst.capacity)
            assert seq[inst.capacity] == opt
            ids = reconstruct_items(tr, inst.capacity, opt)
            sol_p = sum(inst.items[i].profit for i in ids)
            sol_w = sum(inst.items[i].weight for i in ids)
            assert sol_p == opt and sol_w <= inst.capacity


class TestBellmanWeight:
    def test_empty_instance(self):
        seq, _ = bellman_weight_dp(KnapsackInstance([], 9), 2)
        assert seq.values == (0, INF, INF)

    def test_two_items_frozen(self):
        inst = KnapsackInstance([Item(2, 3), Item(3, 4)], 5)
        seq, _ = bellman_weight_dp(inst, 7)
        assert seq.values == (0, 2, 2, 2, 3, 5, 5, 5)

    def test_duality_with_profit_dp(self):
        rng = np.random.default_rng(1)
        for trial in range(300):
            n = int(rng.integers(0, 14))
            inst = gen_random_instance(n, 11, 13, int(rng.integers(0, 35)),
                                       SeedCtx(1000 + trial))
            pseq, _ = bellman_profit_dp(inst, inst.capacity)
            ub = n * 13 + 1
            wseq, _ = bellman_weight_dp(inst, ub)
            dual = max((v for v in range(ub + 1)
                        if wseq[v] != INF and wseq[v] <= inst.capacity),
                       default=0)
            assert dual == pseq[inst.capacity]


class TestGreedy:
    def test_prefix_plus_next(self):
        inst = KnapsackInstance([Item(2, 3), Item(3, 3)], 4)
        assert greedy_upper_bound(inst) == 6

    def test_single_item(self):
        assert greedy_upper_bound(KnapsackInstance([Item(1, 5)], 1)) == 5

    def test_sandwich_on_random(self):
        rng = np.random.default_rng(2)
        for trial in range(500):
            n = int(rng.integers(1, 15))
            inst = gen_random_instance(n, 10, 12, int(rng.integers(1, 40)),
                                       SeedCtx(2000 + trial))
            norm = normalize(inst)
            if norm.is_trivial:
                continue
            sub = norm.instance
            opt, _ = brute_force_opt(sub)
            g = greedy_upper_bound(sub)
            assert opt <= g <= opt + sub.p_max
            assert sub.p_max <= g <= sub.n * sub.p_max


class TestHexuWindows:
    def test_degenerate_band_is_exact(self):
        # tiny capacity forces the band to cover every index
        rng = np.random.default_rng(3)
        for trial in range(25):
            n = int(rng.integers(1, 12))
            t = int(rng.integers(4, 12))
            inst = gen_random_instance(n, max(2, t // 2), 9, t,
                                       SeedCtx(3000 + trial))
            ell = t
            seq, _ = banded_profit_window(inst, t, ell, SeedCtx(trial), boost=1)
            ref, _ = bellman_profit_dp(inst, t + ell)
            for k in seq.indices():
                assert seq[k] == ref[k]

    def test_profit_window_boosted_matches(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            n = int(rng.integers(1, 50))
            t = int(rng.integers(10, 500))
            inst = gen_random_instance(n, min(t, 25), 30, t,
                                       SeedCtx(4000 + trial))
            ell = int(rng.integers(2, t + 1))
            seq, tr = banded_profit_window(inst, t, ell, SeedCtx(trial),
                                         boost=boost_for(n))
            ref, _ = bellman_profit_dp(inst, t + ell)
            for k in seq.indices():
                assert seq[k] == ref[k], (trial, k)
            k = seq.stop - 1
            ids = reconstruct_items(tr, k, seq[k])
            assert sum(inst.items[i].profit for i in ids) == seq[k]
            assert sum(inst.items[i].weight for i in ids) <= k

    def test_weight_window_boosted_matches(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            n = int(rng.integers(1, 40))
            inst = gen_random_instance(n, 14, 22, 10 ** 6,
                                       SeedCtx(5000 + trial))
            total_p = sum(it.profit for it in inst.items)
            v = int(rng.integers(4, max(6, total_p + 8)))
            ell = int(rng.integers(2, v + 1))
            seq, tr = banded_weight_window(inst, v, ell, SeedCtx(trial),
                                         boost=boost_for(n))
            ref, _ = bellman_weight_dp(inst, v + ell)
            for k in seq.indices():
                assert seq[k] == ref[k], (trial, k)
            # unachievable profits surface as +inf exactly like the oracle
            fin = [k for k in seq.indices() if seq[k] != INF]
            if fin:
                k = fin[-1]
                ids = reconstruct_items(tr, k, seq[k])
                assert sum(inst.items[i].weight for i in ids) == seq[k]
                assert sum(inst.items[i].profit for i in ids) >= k

    def test_ell_out_of_range(self):
        inst = gen_random_instance(4, 5, 5, 10, SeedCtx(0))
        with pytest.raises(ValueError):
            banded_profit_window(inst, 10, 1, SeedCtx(0))
        with pytest.raises(ValueError):
            banded_weight_window(inst, 10, 11, SeedCtx(0))


class TestBoundedProfit:
    def test_v_zero_all_zeros(self):
        inst = gen_random_instance(6, 9, 9, 20, SeedCtx(1))
        seq, _ = bc_profit_bounded(inst, 20, 0, SeedCtx(2))
        assert set(seq.values) == {0}

    def test_single_item_shape(self):
        inst = KnapsackInstance([Item(4, 7)], 10)
        seq, _ = bc_profit_bounded(inst, 10, 9, SeedCtx(3), boost=4)
        assert seq.values == (0, 0, 0, 0, 7, 7, 7, 7, 7, 7, 7)

    def test_matches_bellman_restricted(self):
        rng = np.random.default_rng(6)
        for trial in range(60):
            n = int(rng.integers(0, 55))
            t = int(rng.integers(0, 380))
            v = int(rng.integers(0, 190))
            inst = gen_random_instance(n, 30, 40, t, SeedCtx(6000 + trial))
            seq, tr = bc_profit_bounded(inst, t, v, SeedCtx(trial),
                                        boost=boost_for(n))
            ref, _ = bellman_profit_dp(inst, t)
            want = restrict(ref, (0, t), (0, v))
            assert seq.values == want.values, trial
            if len(seq):
                assert seq.start == want.start
                k = seq.stop - 1
                ids = reconstruct_items(tr, k, seq[k])
                assert sum(inst.items[i].profit for i in ids) == seq[k]
                assert sum(inst.items[i].weight for i in ids) <= k


class TestBoundedWeight:
    def test_t_zero_only_empty_set(self):
        inst = gen_random_instance(5, 8, 8, 30, SeedCtx(4))
        seq, _ = bc_weight_bounded(inst, 6, 0, SeedCtx(5))
        assert seq.values[0] == 0 and len(seq) == 1

    def test_single_item_shape(self):
        inst = KnapsackInstance([Item(4, 3)], 10)
        seq, _ = bc_weight_bounded(inst, 6, 10, SeedCtx(6), boost=4)
        assert seq.values == (0, 4, 4, 4)  # profit 4.. unreachable trimmed

    def test_matches_bellman_restricted(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            n = int(rng.integers(0, 55))
            t = int(rng.integers(0, 280))
            v = int(rng.integers(0, 230))
            inst = gen_random_instance(n, 30, 40, t, SeedCtx(7000 + trial))
            seq, tr = bc_weight_bounded(inst, v, t, SeedCtx(trial),
                                        boost=boost_for(n))
            ref, _ = bellman_weight_dp(inst, v)
            want = restrict(ref, (0, v), (0, t))
            assert seq.values == want.values, trial
            if len(seq):
                assert seq.start == want.start

    def test_unbounded_value_equals_full_bellman(self):
        # v >= n*p_max reproduces the unrestricted sequence
        inst = gen_random_instance(12, 9, 9, 40, SeedCtx(8))
        big = inst.n * inst.p_max
        seq, _ = bc_profit_bounded(inst, 40, big, SeedCtx(9), boost=6)
        ref, _ = bellman_profit_dp(inst, 40)
        assert seq.values == ref.values


# ---------------------------------------------------------------------------
# Route rule: exact DP for cheap groups, split + color coding for the rest


def routes(trace):
    """Which group routes fed a bounded curve: 'dp' (the folded exact DP)
    and/or 'split' (subgroup curves built from single-item witnesses)."""
    seen = set()
    stack = [trace]
    while stack:
        node = stack.pop()
        if isinstance(node, (ProfitDPNode, WeightDPNode)):
            seen.add("dp")
        elif isinstance(node, ItemWitnessNode):
            seen.add("split")
        elif isinstance(node, MergeNode):
            stack += [node.ltrace, node.rtrace]
        elif isinstance(node, ChooseNode):
            stack += [tr for _, tr in node.children]
        elif hasattr(node, "child"):
            stack.append(node.child)
    return seen


def route_instance(heavy, solo, seed):
    """``heavy`` items in the one dyadic class w, p in [16, 31], which
    splits whenever t, v <= 48; plus one item in each (a, b) class of
    ``solo``, which is alone in its group and so always takes the DP."""
    rng = np.random.default_rng(seed)
    items = [Item(int(w), int(p)) for w, p in rng.integers(16, 32, (heavy, 2))]
    for a, b in solo:
        items.append(Item(int(rng.integers(1 << (a - 1), 1 << a)),
                          int(rng.integers(1 << (b - 1), 1 << b))))
    order = rng.permutation(len(items))
    return KnapsackInstance([items[i] for i in order], 48)


SOLO = st.sets(st.tuples(st.integers(1, 5), st.integers(1, 5))
               .filter(lambda ab: ab != (5, 5)), min_size=1, max_size=10)
KINDS = {"dp": (st.just(0), SOLO),
         "split": (st.integers(100, 130), st.just(frozenset())),
         "mix": (st.integers(100, 130), SOLO)}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("direction", ["profit", "weight"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_routes_match_restricted_bellman(kind, direction, data):
    heavy, solo = (data.draw(s) for s in KINDS[kind])
    inst = route_instance(heavy, sorted(solo),
                          data.draw(st.integers(0, 2 ** 32)))
    t = data.draw(st.integers(31, 48))
    v = data.draw(st.integers(31, 48))
    seed = SeedCtx(data.draw(st.integers(0, 2 ** 32)))
    if direction == "profit":
        seq, tr = bc_profit_bounded(inst, t, v, seed, boost=boost_for(inst.n))
        want = restrict(bellman_profit_dp(inst, t)[0], (0, t), (0, v))
    else:
        seq, tr = bc_weight_bounded(inst, v, t, seed, boost=boost_for(inst.n))
        want = restrict(bellman_weight_dp(inst, v)[0], (0, v), (0, t))
    assert routes(tr) == {"dp", "split"} if kind == "mix" else {kind}
    assert seq.values == want.values and seq.start == want.start
    k = seq.stop - 1
    ids = reconstruct_items(tr, k, seq[k])
    assert len(set(ids)) == len(ids)
    w = sum(inst.items[i].weight for i in ids)
    p = sum(inst.items[i].profit for i in ids)
    if direction == "profit":
        assert p == seq[k] and w <= k
    else:
        assert w == seq[k] and p >= k


def test_merge_cell_replay_counts_the_kernel(monkeypatch):
    # a 120-item group at t = v = 64 splits into at most 4 subgroups, so
    # the split route wins.  Every merge tree it runs (color coding's and
    # the group's own) clips at index 64 here; replay each on the lengths
    # of the curves it really got
    inst = route_instance(120, (), 5)
    w, p = inst.weights, inst.profits
    calls = []
    tree_merge, kernel = bounded._tree_merge, bounded.maxplus_naive

    def counting_kernel(a, b):
        calls[-1][1] += len(a) * len(b)
        return kernel(a, b)

    def recording_tree_merge(parts, merge, clip, seed):
        calls.append([[len(seq) for seq, _ in parts], 0])
        return tree_merge(parts, merge, clip, seed)

    monkeypatch.setattr(bounded, "maxplus_naive", counting_kernel)
    monkeypatch.setattr(bounded, "_tree_merge", recording_tree_merge)
    out = _bc_profit_group(w, p, np.arange(len(w)), GroupKey(5, 5), 64, 64,
                           SeedCtx(1))
    assert out is not None and len(calls) > 1
    assert len(calls[-1][0]) > 2
    for lengths, cells in calls:
        assert _tree_merge_cells(lengths, 64) == cells
