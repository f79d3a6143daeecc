import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropsack import INF, Item, KnapsackInstance, SeedCtx
from tropsack.balancing import (balance_reduce, bad_curve, combine_balanced,
                                good_complement_curve, kept_good_curve,
                                max_prefix_partition)
from tropsack.bellman import bellman_profit_dp
from tropsack.core import VALUE_LIMIT, normalize
from tropsack.harness.generators import gen_random_instance
from tropsack.harness.oracle import all_optimal_solutions, brute_force_opt
from tropsack.solve import _medium_bellman_window


def norm_inst(items, t):
    return normalize(KnapsackInstance(items, t)).instance


class TestPartition:
    def test_single_ratio_class(self):
        inst = norm_inst([Item(2, 4)] * 6, 5)
        part = max_prefix_partition(inst)
        assert part.good == () and part.bad == ()
        assert len(part.medium) == inst.n

    def test_hand_classification(self):
        inst = norm_inst([Item(1, 10), Item(1, 1)], 1)
        part = max_prefix_partition(inst)
        assert part.prefix == (0,)
        assert part.rho == Fraction(10)
        assert part.good == () and part.bad == (1,)

    def test_class_invariants_random(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            n = int(rng.integers(1, 25))
            inst0 = gen_random_instance(n, 20, 25, int(rng.integers(1, 120)),
                                        SeedCtx(trial))
            res = normalize(inst0)
            if res.is_trivial:
                continue
            part = max_prefix_partition(res.instance)
            prefix = set(part.prefix)
            assert set(part.good) <= prefix
            assert not (set(part.bad) & prefix)
            assert set(part.good) | set(part.medium) | set(part.bad) == \
                set(range(res.instance.n))


def ref_greedy_order(instance):
    """Fraction-keyed reference: ratio order, weight-0 items first, ties
    by index."""
    def key(i):
        it = instance.items[i]
        if it.weight == 0:
            return (0, 0, i)
        return (1, -Fraction(it.profit, it.weight), i)
    return sorted(range(instance.n), key=key)


def ref_partition(instance):
    """Fraction reference for max_prefix_partition's prefix and classes."""
    order = ref_greedy_order(instance)
    total, prefix = 0, []
    for i in order:
        if total + instance.items[i].weight > instance.capacity:
            break
        total += instance.items[i].weight
        prefix.append(i)
    if not prefix:
        return tuple(order), (), None, (), (), ()
    last = instance.items[prefix[-1]]
    rho = Fraction(last.profit, max(last.weight, 1))
    classes = ([], [], [])
    for i, it in enumerate(instance.items):
        ratio = None if it.weight == 0 else Fraction(it.profit, it.weight)
        cls = 0 if ratio is None or ratio > 2 * rho else \
            2 if ratio < rho / 2 else 1
        classes[cls].append(i)
    return (tuple(order), tuple(prefix), rho) + tuple(map(tuple, classes))


# small parameters make equal ratios common; near-limit ones test the
# exactness of the integer keys
SIZES = st.one_of(st.integers(1, 6), st.integers(VALUE_LIMIT - 9,
                                                  VALUE_LIMIT - 1))
ITEMS = st.lists(st.one_of(
    st.builds(Item, SIZES, SIZES),
    st.builds(lambda p: Item(0, p, internal=True), SIZES),
    st.builds(lambda w: Item(w, 0, internal=True), SIZES)), max_size=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(items=ITEMS, dup=st.integers(0, 3),
       capacity=st.one_of(st.integers(0, 20), SIZES))
def test_ratio_order_and_classes_match_fraction_reference(items, dup,
                                                          capacity):
    inst = KnapsackInstance(items + items[:dup], capacity)
    assert list(inst.ratio_order) == ref_greedy_order(inst)
    want = ref_partition(inst)
    if inst.n and not want[1]:
        with pytest.raises(AssertionError):
            max_prefix_partition(inst)
        return
    part = max_prefix_partition(inst)
    assert (part.order, part.prefix, part.rho, part.good, part.medium,
            part.bad) == want


class TestCurves:
    def test_bad_curve_empty(self):
        inst = norm_inst([Item(2, 4)] * 4, 5)
        seq, _ = bad_curve(inst, (), SeedCtx(0))
        assert set(seq.values) == {0}

    def test_bad_curve_matches_bellman(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            n = int(rng.integers(1, 22))
            res = normalize(gen_random_instance(n, 8, 9,
                                                int(rng.integers(8, 60)),
                                                SeedCtx(100 + trial)))
            if res.is_trivial:
                continue
            inst = res.instance
            ids = tuple(range(inst.n))
            seq, _ = bad_curve(inst, ids, SeedCtx(trial),
                               boost=math.ceil(math.log2(max(inst.n, 2))) + 3)
            ref, _ = bellman_profit_dp(inst.subset(ids), seq.stop - 1)
            for k in seq.indices():
                assert seq[k] == ref[k]

    def test_good_complement_frozen_example(self):
        inst = KnapsackInstance([Item(3, 10)], 100)
        ell = good_complement_curve(inst, (0,), SeedCtx(0), boost=3)
        assert ell[0] == 0
        assert ell[1] == 10 and ell[2] == 10 and ell[3] == 10
        assert ell[4] == INF

    def test_good_complement_empty(self):
        inst = norm_inst([Item(2, 4)] * 4, 5)
        ell = good_complement_curve(inst, (), SeedCtx(0))
        assert ell[0] == 0 and ell[1] == INF

    def test_good_complement_vs_brute_force(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(1, 12))
            inst = gen_random_instance(n, 7, 9, 10 ** 6, SeedCtx(200 + trial))
            ids = tuple(range(n))
            ell = good_complement_curve(inst, ids, SeedCtx(trial), boost=6)
            w = [it.weight for it in inst.items]
            p = [it.profit for it in inst.items]
            for t2 in range(0, min(12, len(ell))):
                best = None
                for mask in range(1 << n):
                    ws = sum(w[i] for i in range(n) if mask >> i & 1)
                    ps = sum(p[i] for i in range(n) if mask >> i & 1)
                    if ws >= t2 and (best is None or ps < best):
                        best = ps
                want = INF if best is None else best
                assert ell[t2] == want, (trial, t2)


class TestReduce:
    def test_parameters_never_grow(self):
        rng = np.random.default_rng(3)
        for trial in range(500):
            n = int(rng.integers(1, 30))
            res = normalize(gen_random_instance(n, 15, 18,
                                                int(rng.integers(1, 150)),
                                                SeedCtx(300 + trial)))
            if res.is_trivial:
                continue
            inst = res.instance
            sub = balance_reduce(inst, SeedCtx(trial), boost=1)
            med = inst.subset(sub.medium_ids)
            assert med.n <= inst.n
            assert med.w_max <= inst.w_max and med.p_max <= inst.p_max
            assert sub.capacity_range[1] <= inst.capacity
            # medium ratios within a factor of 4
            if med.n:
                ratios = [Fraction(it.profit, it.weight) for it in med.items]
                assert max(ratios) <= 4 * min(ratios)

    def test_medium_balancedness(self):
        rng = np.random.default_rng(4)
        checked = 0
        for trial in range(300):
            n = int(rng.integers(5, 40))
            res = normalize(gen_random_instance(n, 15, 18,
                                                int(rng.integers(10, 300)),
                                                SeedCtx(400 + trial)))
            if res.is_trivial:
                continue
            inst = res.instance
            sub = balance_reduce(inst, SeedCtx(trial), boost=1)
            med_ids = sub.medium_ids
            if not med_ids:
                continue
            med = KnapsackInstance([inst.items[i] for i in med_ids],
                                   max(sub.t_query, 1))
            mnorm = normalize(med)
            if mnorm.is_trivial or mnorm.instance.n == 0:
                continue
            from tropsack.bellman import greedy_upper_bound
            m = mnorm.instance
            opt_b = greedy_upper_bound(m)
            ratio = (m.capacity / m.w_max) / (opt_b / m.p_max)
            assert 1 / 8 <= ratio <= 8, trial
            checked += 1
        assert checked > 30

    def test_claim_decomposition_exhaustive(self):
        # for every optimal solution set Z of tiny instances, some optimal Z
        # admits the bounded good/bad difference decomposition
        rng = np.random.default_rng(5)
        for trial in range(150):
            n = int(rng.integers(1, 13))
            res = normalize(gen_random_instance(n, 6, 7,
                                                int(rng.integers(1, 30)),
                                                SeedCtx(500 + trial)))
            if res.is_trivial:
                continue
            inst = res.instance
            part = max_prefix_partition(inst)
            _, optimals = all_optimal_solutions(inst)
            good, bad = set(part.good), set(part.bad)
            prefix = set(part.prefix)
            ok = False
            for z in optimals:
                delta = (prefix - z) | (z - prefix)
                delta &= good | bad
                wd = sum(inst.items[i].weight for i in delta)
                pd = sum(inst.items[i].profit for i in delta)
                if wd <= 10 * inst.w_max and pd <= 10 * inst.p_max:
                    ok = True
                    break
            assert ok, trial


class TestCombine:
    def test_end_to_end_exact_vs_bellman(self):
        rng = np.random.default_rng(6)
        count = 0
        for trial in range(120):
            n = int(rng.integers(1, 45))
            res = normalize(gen_random_instance(n, 18, 22,
                                                int(rng.integers(1, 400)),
                                                SeedCtx(600 + trial)))
            if res.is_trivial:
                continue
            inst = res.instance
            boost = math.ceil(math.log2(max(inst.n, 2))) + 3
            sub = balance_reduce(inst, SeedCtx(trial), boost=boost)
            med = _medium_bellman_window(inst, sub, {})
            opt, sol = combine_balanced(med, sub, inst, SeedCtx(trial + 1))
            ref, _ = bellman_profit_dp(inst, inst.capacity)
            assert opt == ref[inst.capacity], trial
            assert sol.total_profit == opt
            assert sol.total_weight <= inst.capacity
            count += 1
        assert count > 60

    def test_end_to_end_vs_brute_force(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            n = int(rng.integers(1, 15))
            res = normalize(gen_random_instance(n, 9, 9,
                                                int(rng.integers(1, 40)),
                                                SeedCtx(700 + trial)))
            if res.is_trivial:
                continue
            inst = res.instance
            want, _ = brute_force_opt(inst)
            sub = balance_reduce(inst, SeedCtx(trial), boost=5)
            med = _medium_bellman_window(inst, sub, {})
            opt, _ = combine_balanced(med, sub, inst, SeedCtx(trial + 1))
            assert opt == want, trial

    def test_no_good_no_bad_degenerates_to_medium(self):
        inst = norm_inst([Item(2, 4)] * 9, 7)
        sub = balance_reduce(inst, SeedCtx(0), boost=3)
        assert not sub.partition.good and not sub.partition.bad
        med = _medium_bellman_window(inst, sub, {})
        opt, _ = combine_balanced(med, sub, inst, SeedCtx(1))
        ref, _ = bellman_profit_dp(inst, inst.capacity)
        assert opt == ref[inst.capacity]
