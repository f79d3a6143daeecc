import numpy as np
import pytest

from tropsack import (INF, NEG_INF, Item, KnapsackInstance, MonotoneSeq,
                      NON_DECREASING, NON_INCREASING, SeedCtx, Solution,
                      negate_shift, normalize, prefix_maxima, restrict,
                      reverse_index)
from tropsack.core import InstanceError, SeqError


def seq(vals, start=0, direction=NON_DECREASING, sentinel=NEG_INF):
    return MonotoneSeq(vals, start, direction, sentinel)


# -- restriction oracle: the linear scan straight off the definition --------

def restrict_oracle(s, ii, vv):
    idx = [i for i in s.indices()
           if ii[0] <= i <= ii[1]
           and s[i] != INF and s[i] != NEG_INF
           and vv[0] <= s[i] <= vv[1]]
    if not idx:
        return None
    lo, hi = min(idx), max(idx)
    return (lo, tuple(s[i] for i in range(lo, hi + 1)))


class TestRestrict:
    def test_example_mid_window(self):
        s = seq([0, 2, 5, 9])
        r = restrict(s, (1, 3), (2, 6))
        assert (r.start, r.values) == (1, (2, 5))

    def test_example_empty(self):
        s = seq([0, 2, 5, 9])
        assert restrict(s, (0, 3), (100, 200)).is_empty()

    def test_example_identity_singleton(self):
        s = seq([7], start=4)
        r = restrict(s, (4, 4), (7, 7))
        assert (r.start, r.values) == (4, (7,))

    def test_unknown_direction_rejected(self):
        s = MonotoneSeq([3, 1], 0, "unknown")
        with pytest.raises(SeqError):
            restrict(s, (0, 1), (0, 5))

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            n = int(rng.integers(1, 30))
            vals = np.sort(rng.integers(-20, 60, n))
            direction = NON_DECREASING
            if rng.random() < 0.5:
                vals = vals[::-1]
                direction = NON_INCREASING
            vlist = [int(v) for v in vals]
            if rng.random() < 0.3:
                # sentinel tails consistent with the direction
                if direction == NON_DECREASING:
                    vlist[-1] = INF
                else:
                    vlist[-1] = NEG_INF
            start = int(rng.integers(-5, 5))
            s = MonotoneSeq(vlist, start, direction, validate=False)
            ii = sorted(rng.integers(start - 2, start + n + 2, 2).tolist())
            vv = sorted(rng.integers(-25, 65, 2).tolist())
            want = restrict_oracle(s, ii, vv)
            got = restrict(s, tuple(ii), tuple(vv))
            if want is None:
                assert got.is_empty(), (trial, vlist, ii, vv)
            else:
                assert (got.start, got.values) == want, (trial, vlist, ii, vv)


class TestPrefixMaxima:
    def test_example(self):
        assert prefix_maxima([3, 1, 4, 1]).values == (3, 3, 4, 4)

    def test_constant(self):
        assert prefix_maxima([0, 0, 0]).values == (0, 0, 0)

    def test_singleton(self):
        assert prefix_maxima([1]).values == (1,)

    def test_direction_tag(self):
        assert prefix_maxima([5, 2, 9]).direction == NON_DECREASING


class TestNegateShift:
    def test_example(self):
        s = seq([0, 1, 3])
        assert negate_shift(s, 3).values == (3, 2, 0)

    def test_zero(self):
        assert negate_shift(seq([0]), 0).values == (0,)

    def test_involution(self):
        s = seq([1, 4, 4])
        assert negate_shift(negate_shift(s, 5), 5).values == s.values

    def test_flips_direction_and_sentinel(self):
        s = seq([0, 2], sentinel=NEG_INF)
        r = negate_shift(s, 2)
        assert r.direction == NON_INCREASING and r.sentinel == INF

    def test_out_of_range(self):
        with pytest.raises(SeqError):
            negate_shift(seq([5]), 3)


class TestReverseIndex:
    def test_double_reverse_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            vals = np.sort(rng.integers(0, 30, int(rng.integers(1, 15))))
            s = seq([int(v) for v in vals], start=int(rng.integers(0, 9)))
            rr = reverse_index(reverse_index(s))
            assert rr.values == s.values and rr.start == s.start
            assert rr.direction == s.direction


class TestNormalize:
    def test_single_item_too_heavy(self):
        res = normalize(KnapsackInstance([Item(5, 3)], 4))
        assert res.is_trivial and res.trivial_opt == 0
        assert res.instance.n == 0

    def test_all_fit(self):
        res = normalize(KnapsackInstance([Item(2, 3), Item(3, 4)], 100))
        assert res.is_trivial and res.trivial_opt == 7
        assert res.trivial_solution.total_profit == 7

    def test_nontrivial(self):
        res = normalize(KnapsackInstance([Item(2, 3), Item(3, 4)], 4))
        assert not res.is_trivial
        inst = res.instance
        assert inst.n == 2 and inst.w_max <= inst.capacity
        assert inst.capacity < inst.n * inst.w_max

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Item(0, 3)
        with pytest.raises(ValueError):
            Item(3, 0)

    def test_internal_items_allowed(self):
        it = Item(0, 5, internal=True)
        assert it.weight == 0

    def test_pmax_recomputed_on_residual(self):
        # the heavy item carries the max profit; the residual forgets it
        res = normalize(KnapsackInstance([Item(50, 99), Item(2, 3), Item(3, 4)], 5))
        assert res.instance.p_max == 4


class TestSolution:
    def test_totals_recompute(self):
        inst = KnapsackInstance([Item(2, 3), Item(3, 4), Item(1, 9)], 6)
        sol = Solution.from_indices(inst, [0, 2])
        assert sol.total_weight == 3 and sol.total_profit == 12
        assert sol.verify(inst)


class TestSeedCtx:
    def test_reproducible(self):
        a = SeedCtx(123, (1, 2)).generator().integers(0, 1 << 30, 5)
        b = SeedCtx(123, (1, 2)).generator().integers(0, 1 << 30, 5)
        assert (a == b).all()

    def test_children_independent(self):
        a = SeedCtx(123).child(1).generator().integers(0, 1 << 30, 5)
        b = SeedCtx(123).child(2).generator().integers(0, 1 << 30, 5)
        assert (a != b).any()


class TestValues:
    def test_overflow_traps(self):
        with pytest.raises(OverflowError):
            MonotoneSeq([0, 1 << 60])

    def test_sentinel_reads(self):
        s = seq([1, 2], start=5, sentinel=NEG_INF)
        assert s[4] == NEG_INF and s[7] == NEG_INF and s[5] == 1


class TestNormalizedInvariants:
    def test_opt_bounds_vs_brute_force(self):
        from tropsack.harness.generators import gen_random_instance
        from tropsack.harness.oracle import brute_force_opt
        rng = np.random.default_rng(7)
        checked = 0
        for trial in range(300):
            n = int(rng.integers(1, 20))
            inst = gen_random_instance(n, 12, 14, int(rng.integers(1, 60)),
                                       SeedCtx(trial))
            res = normalize(inst)
            if res.is_trivial:
                continue
            sub = res.instance
            opt, _ = brute_force_opt(sub)
            assert sub.p_max <= opt <= sub.n * sub.p_max
            assert sub.w_max <= sub.capacity
            checked += 1
        assert checked > 100
