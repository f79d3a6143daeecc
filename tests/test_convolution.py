import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tropsack

from tropsack import (INF, NEG_INF, MonotoneSeq, NON_DECREASING,
                      NON_INCREASING, SeedCtx)
from tropsack.convolution import (ChminSegmentTree, exact_convolve,
                                  maxplus_naive, minplus_counting_fft,
                                  minplus_naive, monotone_maxplus_rect,
                                  monotone_minplus_rect, one_monotone_maxplus,
                                  poly_mult_3var, residue_split, sample_prime,
                                  tilde_convolution, is_prime)
from tropsack.convolution.exactpoly import DegreeBoundError, _ntt_convolve
from tropsack.convolution.engine import B_RANGE, _minplus_levels
from tropsack.convolution.naive import tropical_kernel
from tropsack.core import INT_INF


def nd(vals, start=0):
    return MonotoneSeq(vals, start, NON_DECREASING, NEG_INF, validate=False)


def ni(vals, start=0):
    return MonotoneSeq(vals, start, NON_INCREASING, NEG_INF, validate=False)


def rand_monotone(rng, n, m, direction=NON_DECREASING, hole_p=0.0,
                  sentinel=INF, start=0):
    vals = np.sort(rng.integers(0, m + 1, n))
    if direction == NON_INCREASING:
        vals = vals[::-1]
    out = [INF if rng.random() < hole_p else int(v) for v in vals]
    return MonotoneSeq(out, start, direction, sentinel, validate=False)


class TestNaive:
    def test_minplus_singleton(self):
        assert minplus_naive([0], [0]).values == (0,)

    def test_minplus_example(self):
        assert minplus_naive([0, 1], [0, 2]).values == (0, 1, 3)

    def test_minplus_sentinel(self):
        assert minplus_naive([5, INF], [1, 1]).values == (6, 6, INF)

    def test_maxplus_example(self):
        assert maxplus_naive([0, 1], [0, 2]).values == (0, 2, 3)

    def test_maxplus_singleton(self):
        assert maxplus_naive([0], [7]).values == (7,)

    def test_maxplus_sentinel(self):
        assert maxplus_naive([1, 1], [NEG_INF, 0]).values == (NEG_INF, 1, 1)

    def test_duality(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            a = [int(v) for v in rng.integers(-9, 9, n)]
            b = [int(v) for v in rng.integers(-9, 9, m)]
            if rng.random() < 0.3:
                a[rng.integers(0, n)] = NEG_INF
            mx = maxplus_naive(a, b).values
            mn = minplus_naive([-v for v in a], [-v for v in b]).values
            assert mx == tuple(-v for v in mn)

    def test_start_arithmetic(self):
        c = minplus_naive(nd([1, 2], start=3), nd([5], start=4))
        assert c.start == 7 and c.values == (6, 7)

    def test_counting_fft_matches_naive(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = int(rng.integers(0, 9))
            n1, n2 = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            a = [INF if rng.random() < 0.1 else int(v)
                 for v in rng.integers(0, m + 1, n1)]
            b = [INF if rng.random() < 0.1 else int(v)
                 for v in rng.integers(0, m + 1, n2)]
            assert minplus_counting_fft(a, b, m).values == \
                minplus_naive(a, b).values


class TestExactPoly:
    def test_exact_convolve_small(self):
        assert exact_convolve([1, 2], [3, 4]).tolist() == [3, 10, 8]

    def test_exact_convolve_matches_numpy_random(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a = rng.integers(-50, 50, int(rng.integers(1, 400)))
            b = rng.integers(-50, 50, int(rng.integers(1, 400)))
            assert (exact_convolve(a, b) == np.convolve(a, b)).all()

    def test_ntt_path_matches(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 1000, 500)
        b = rng.integers(0, 1000, 700)
        want = np.convolve(a, b)
        got = _ntt_convolve(a, b, len(a) + len(b) - 1,
                            int(want.max()))
        assert (got == want).all()

    def test_poly_monomial_product(self):
        p = {(0, 0, 1): 1}
        q = {(1, 2, 3): 1}
        assert poly_mult_3var(p, q, 4, 8) == {(1, 2, 4): 1}

    def test_poly_square_example(self):
        # (yz + yz^2)^2 = y^2 z^2 + 2 y^2 z^3 + y^2 z^4
        p = {(0, 1, 1): 1, (0, 1, 2): 1}
        got = poly_mult_3var(p, p, 2, 4)
        assert got == {(0, 2, 2): 1, (0, 2, 3): 2, (0, 2, 4): 1}

    def test_poly_zero_annihilates(self):
        assert poly_mult_3var({}, {(1, 1, 1): 5}, 2, 2) == {}

    def test_poly_schoolbook_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            def rand_poly():
                out = {}
                for _ in range(int(rng.integers(1, 10))):
                    key = (int(rng.integers(0, 2)), int(rng.integers(0, 5)),
                           int(rng.integers(0, 6)))
                    out[key] = out.get(key, 0) + int(rng.integers(-4, 5))
                return {k: v for k, v in out.items() if v}
            p, q = rand_poly(), rand_poly()
            want = {}
            for (x1, y1, z1), c1 in p.items():
                for (x2, y2, z2), c2 in q.items():
                    k = (x1 + x2, y1 + y2, z1 + z2)
                    want[k] = want.get(k, 0) + c1 * c2
            want = {k: v for k, v in want.items() if v}
            assert poly_mult_3var(p, q, 4, 5) == want

    def test_degree_bound_violation(self):
        with pytest.raises(DegreeBoundError):
            poly_mult_3var({(2, 0, 0): 1}, {}, 4, 4)


class TestSegtree:
    def test_chmin_matches_dense(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            tree = ChminSegmentTree(n, 10 ** 9)
            dense = np.full(n, 10 ** 9, dtype=np.int64)
            for _ in range(int(rng.integers(0, 30))):
                lo = int(rng.integers(0, n))
                hi = int(rng.integers(lo, n))
                v = int(rng.integers(-100, 100))
                tree.range_chmin(lo, hi, v)
                dense[lo:hi + 1] = np.minimum(dense[lo:hi + 1], v)
            assert (tree.read_all() == dense).all()


class TestResidueSplit:
    def test_zero_entries_in_class_zero(self):
        pairs = residue_split(nd([0]), nd([0]), 7)
        for pr in pairs:
            if pr.x_class == 0 and pr.y_class == 0:
                assert pr.a_shifted.values == (0,)
                assert pr.b_shifted.values == (0,)
            else:
                assert pr.a_shifted.values == (INF,) or \
                    pr.b_shifted.values == (INF,)

    def test_class_boundaries_hand_eval(self):
        # 3 mod 7 = 3 lies in [7/3, 14/3) -> class 1; shift ceil(7/3) = 3
        pairs = residue_split(nd([3]), nd([0]), 7)
        pr = next(p for p in pairs if p.x_class == 1 and p.y_class == 0)
        assert pr.a_shifted.values == (0,)
        assert pr.shift_back == 3

    def test_reconstruction_property(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            m = int(rng.integers(2, 129))
            p = sample_prime(m, SeedCtx(trial))
            na, nb = int(rng.integers(1, 65)), int(rng.integers(1, 65))
            a = rand_monotone(rng, na, m)
            b = rand_monotone(rng, nb, m)
            want = minplus_naive(a, b)
            total = None
            for pr in residue_split(a, b, p):
                c = minplus_naive(pr.a_shifted, pr.b_shifted)
                vals = [v + pr.shift_back if v != INF else INF
                        for v in c.values]
                if total is None:
                    total = vals
                else:
                    total = [min(x, y) for x, y in zip(total, vals)]
            assert tuple(total) == want.values


class TestTildeConvolution:
    def test_example_steps(self):
        assert tilde_convolution([0, 0, 1], [2, 2]).values == (2, 2, 2, 3)

    def test_example_sentinel(self):
        assert tilde_convolution([INF, 0], [0]).values == (INF, 0)

    def test_singleton(self):
        assert tilde_convolution([0], [0]).values == (0,)

    def test_matches_naive_random(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n1, n2 = int(rng.integers(1, 50)), int(rng.integers(1, 50))
            a = [INF if rng.random() < 0.2 else int(v)
                 for v in rng.integers(0, 6, n1)]
            b = [INF if rng.random() < 0.2 else int(v)
                 for v in rng.integers(0, 6, n2)]
            assert tilde_convolution(a, b).values == minplus_naive(a, b).values


class TestPrimes:
    def test_is_prime_small(self):
        primes = [i for i in range(60) if is_prime(i)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                          43, 47, 53, 59]

    def test_sample_prime_window(self):
        for m in (4, 16, 100, 5000, 10 ** 6):
            p = sample_prime(m, SeedCtx(m))
            lo = max(2, int(np.sqrt(m)))
            assert lo <= p <= 2 * lo + 1 and is_prime(p)

    def test_sample_prime_deterministic(self):
        assert sample_prime(5000, SeedCtx(3)) == sample_prime(5000, SeedCtx(3))


class TestEngine:
    def test_identity_ramp(self):
        a = nd(list(range(16)))
        c = monotone_minplus_rect(a, a, 15, SeedCtx(0), method="levels")
        assert c.values == tuple(range(31))

    def test_constants(self):
        a = nd([4] * 5)
        b = nd([9] * 3)
        c = monotone_minplus_rect(a, b, 9, SeedCtx(0), method="levels")
        assert c.values == tuple([13] * 7)

    def test_maxplus_example(self):
        c = monotone_maxplus_rect(nd([0, 1]), nd([0, 2]), 2, SeedCtx(0))
        assert c.values == (0, 2, 3)

    @pytest.mark.parametrize("direction", [NON_DECREASING, NON_INCREASING])
    def test_levels_vs_naive(self, direction):
        rng = np.random.default_rng(13 if direction == NON_DECREASING else 14)
        for trial in range(120):
            m = int(rng.choice([4, 7, 64, 200, 512]))
            na, nb = int(rng.integers(1, 80)), int(rng.integers(1, 80))
            hp = float(rng.choice([0.0, 0.0, 0.2]))
            a = rand_monotone(rng, na, m, direction, hp)
            b = rand_monotone(rng, nb, m, direction, hp)
            want = minplus_naive(a, b)
            got = monotone_minplus_rect(a, b, m, SeedCtx(trial),
                                        method="levels")
            assert got.values == want.values and got.start == want.start

    @pytest.mark.parametrize("direction", [NON_DECREASING, NON_INCREASING])
    def test_maxplus_levels_vs_naive(self, direction):
        rng = np.random.default_rng(15)
        for trial in range(80):
            m = int(rng.choice([4, 64, 300]))
            na, nb = int(rng.integers(1, 70)), int(rng.integers(1, 70))
            vals_a = np.sort(rng.integers(0, m + 1, na))
            vals_b = np.sort(rng.integers(0, m + 1, nb))
            if direction == NON_INCREASING:
                vals_a, vals_b = vals_a[::-1], vals_b[::-1]
            a = MonotoneSeq([int(v) for v in vals_a], 0, direction,
                            NEG_INF, validate=False)
            b = MonotoneSeq([int(v) for v in vals_b], 0, direction,
                            NEG_INF, validate=False)
            want = maxplus_naive(a, b)
            got = monotone_maxplus_rect(a, b, m, SeedCtx(trial),
                                        method="levels")
            assert got.values == want.values

    def test_monotone_output_direction(self):
        rng = np.random.default_rng(16)
        a = rand_monotone(rng, 30, 50)
        b = rand_monotone(rng, 20, 50)
        c = monotone_minplus_rect(a, b, 50, SeedCtx(1), method="levels")
        assert c.direction == NON_DECREASING

    def test_auto_dispatch_correct(self):
        rng = np.random.default_rng(17)
        for trial in range(40):
            m = int(rng.choice([2, 8, 100, 2000]))
            a = rand_monotone(rng, int(rng.integers(1, 120)), m)
            b = rand_monotone(rng, int(rng.integers(1, 120)), m)
            got = monotone_minplus_rect(a, b, m, SeedCtx(trial))
            assert got.values == minplus_naive(a, b).values

    def test_reversal_identity(self):
        # maxplus(A,B)[k] = maxplus(rev A, rev B)[2n-2-k] for equal lengths
        rng = np.random.default_rng(18)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            m = 40
            a = rand_monotone(rng, n, m)
            b = rand_monotone(rng, n, m)
            fwd = maxplus_naive(a, b).values
            from tropsack import reverse_index
            rev = maxplus_naive(reverse_index(a), reverse_index(b)).values
            assert fwd == tuple(reversed(rev))


class TestWhiteBox:
    def test_level_state_property_and_containment(self):
        rng = np.random.default_rng(19)
        checked_props = 0
        for trial in range(12):
            m = int(rng.choice([30, 64, 128]))
            na, nb = int(rng.integers(8, 40)), int(rng.integers(8, 40))
            a = rand_monotone(rng, na, m)
            b = rand_monotone(rng, nb, m)
            arr_a, arr_b = a.arr, b.arr
            total, trace = _minplus_levels(arr_a, arr_b, m, SeedCtx(trial),
                                           debug=True, deadline=None)
            want = minplus_naive(a, b).arr
            assert (total == want).all()
            p = trace.prime
            for pt in trace.pair_traces:
                # naive per-pair reference for Property (3)
                sa = arr_a.copy()
                sb = arr_b.copy()
                from tropsack.convolution.engine import _class_split_array
                ca = _class_split_array(arr_a, p)[pt.x_class]
                cb = _class_split_array(arr_b, p)[pt.y_class]
                cpair = tropical_kernel(ca, cb, maximize=False)
                prev_segments = None
                for state in pt.levels:
                    lvl = state.level
                    for k in range(len(cpair)):
                        if cpair[k] >= INT_INF:
                            continue
                        rem = int(cpair[k]) % p
                        lo = (rem - 2 * (2 ** lvl - 1)) // (2 ** lvl)
                        hi = (rem + 2 * (2 ** lvl - 1)) // (2 ** lvl)
                        assert lo <= state.c_level[k] <= hi, \
                            (trial, lvl, k)
                        checked_props += 1
                    # containment: every segment sits inside a parent segment
                    if prev_segments is not None:
                        parents = [(s.k, s.interval) for segs in
                                   prev_segments.values() for s in segs]
                        for segs in state.false_positives.values():
                            for s in segs:
                                assert any(pk == s.k and pi[0] <= s.interval[0]
                                           and s.interval[1] <= pi[1]
                                           for pk, pi in parents), \
                                    (trial, s)
                    if any(state.false_positives.values()):
                        prev_segments = state.false_positives
                    else:
                        prev_segments = None
        assert checked_props > 0


class TestOneMonotone:
    def test_consistency_with_two_monotone(self):
        rng = np.random.default_rng(20)
        for trial in range(30):
            n = int(rng.integers(1, 50))
            m = 60
            a = rand_monotone(rng, n, m)
            b = rand_monotone(rng, n, m)
            got = one_monotone_maxplus(a, b, m, SeedCtx(trial))
            want = maxplus_naive(a, b)
            assert got.values == want.values

    def test_hand_example(self):
        a = nd([0, 0, 0])
        b = MonotoneSeq([3, 1, 2], 0, "unknown", NEG_INF)
        got = one_monotone_maxplus(a, b, 3, SeedCtx(0))
        assert got.values == (3, 3, 3, 2, 2)

    def test_random_vs_naive(self):
        rng = np.random.default_rng(21)
        for trial in range(150):
            n = int(rng.integers(1, 200))
            m = int(rng.integers(1, 100))
            a = rand_monotone(rng, n, m)
            bvals = [int(v) for v in rng.integers(0, m + 1, n)]
            b = MonotoneSeq(bvals, 0, "unknown", NEG_INF)
            got = one_monotone_maxplus(a, b, m, SeedCtx(trial))
            want = maxplus_naive(a, b)
            assert got.values == want.values, (trial, n, m)

    def test_rejects_unequal_lengths(self):
        from tropsack.core import SeqError
        with pytest.raises(SeqError):
            one_monotone_maxplus(nd([0, 1]), [0], 1, SeedCtx(0))


class TestMorePipelineInvariants:
    def test_maxplus_monotone_output(self):
        rng = np.random.default_rng(30)
        for trial in range(30):
            m = 80
            a = rand_monotone(rng, int(rng.integers(1, 40)), m,
                              sentinel=NEG_INF)
            b = rand_monotone(rng, int(rng.integers(1, 40)), m,
                              sentinel=NEG_INF)
            c = monotone_maxplus_rect(a, b, m, SeedCtx(trial))
            assert c.direction == NON_DECREASING

    def test_segment_count_soft_bound(self):
        # soft check: per-level segment mass stays within a small constant
        # of n*M / 2^level; logged, not hard-asserted beyond sanity
        rng = np.random.default_rng(31)
        m = 128
        a = rand_monotone(rng, 64, m)
        b = rand_monotone(rng, 64, m)
        _, trace = _minplus_levels(a.arr, b.arr, m, SeedCtx(0), debug=True,
                                   deadline=None)
        n = 64
        worst = 0.0
        for pt in trace.pair_traces:
            for st in pt.levels:
                mass = sum(len(v) for v in st.false_positives.values())
                bound = n * m / (1 << st.level)
                worst = max(worst, mass / max(bound, 1.0))
        print(f"measured segment-count constant: {worst:.2f}")
        assert worst < 50


IDLE_AFTER_LEVELS = """
import time
import numpy as np
from tropsack import MonotoneSeq, NON_DECREASING, INF, SeedCtx
from tropsack.convolution import monotone_minplus_rect
rng = np.random.default_rng(0)
a, b = (MonotoneSeq(np.sort(rng.integers(0, 1025, 1024)), 0, NON_DECREASING,
                    INF) for _ in range(2))
monotone_minplus_rect(a, b, 1024, SeedCtx(1), method="levels")
t0 = time.process_time()
time.sleep(0.3)
print(time.process_time() - t0)
"""


def test_levels_call_leaves_no_thread_spinning():
    # the FFT's error bound once took its norms with np.dot, which starts
    # OpenBLAS's thread pool; its idle threads then spin, costing CPU time
    # in a process that is only sleeping
    src = str(Path(tropsack.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "GOTO_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", IDLE_AFTER_LEVELS], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300).stdout
    assert float(out) < 0.05
