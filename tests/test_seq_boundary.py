"""Property tests at the sequence representation boundary.

``MonotoneSeq`` stores an encoded int64 array; every operation here is
checked against a pure-Python reference on tuples of ints and float
infinities, the form callers hand in and read back.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropsack import (INF, NEG_INF, MonotoneSeq, NON_DECREASING,
                      NON_INCREASING, negate_shift, prefix_maxima, restrict,
                      reverse_index)
from tropsack.convolution import maxplus_naive, minplus_naive
from tropsack.core import UNKNOWN, VALUE_LIMIT, SeqError

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)
FLIP = {NON_DECREASING: NON_INCREASING, NON_INCREASING: NON_DECREASING,
        UNKNOWN: UNKNOWN}


@st.composite
def monotone_lists(draw, lo=-50, hi=50, holes=(INF, NEG_INF), min_size=0):
    """(entries, direction): sorted ints with infinities anywhere."""
    direction = draw(st.sampled_from([NON_DECREASING, NON_INCREASING]))
    vals = sorted(draw(st.lists(st.integers(lo, hi), min_size=min_size,
                                max_size=30)))
    if direction == NON_INCREASING:
        vals.reverse()
    out = list(vals)
    for _ in range(draw(st.integers(0, 4)) if holes else 0):
        pos = draw(st.integers(0, len(out)))
        out.insert(pos, draw(st.sampled_from(holes)))
    return out, direction


def seqs(**kw):
    return st.builds(
        lambda lv, start, sentinel: MonotoneSeq(lv[0], start, lv[1],
                                                sentinel),
        monotone_lists(**kw), st.integers(-5, 5),
        st.sampled_from([INF, NEG_INF]))


# -- pure-Python references ---------------------------------------------------


def ref_read(vals, start, sentinel, k):
    return vals[k - start] if 0 <= k - start < len(vals) else sentinel


def ref_bisect(vals, lo, hi, pred):
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(vals[mid]):
            lo = mid + 1
        else:
            hi = mid
    return lo


def ref_restrict(vals, start, direction, ii, vv):
    """(start, values) of restrict's result, or None when empty."""
    lo = max(math.ceil(ii[0]), start) - start
    hi = min(math.floor(ii[1]), start + len(vals) - 1) - start
    if lo > hi:
        return None
    vlo, vhi = vv
    if direction == NON_DECREASING:
        first = ref_bisect(vals, lo, hi + 1, lambda v: v < vlo)
        last = ref_bisect(vals, lo, hi + 1, lambda v: v <= vhi) - 1
    else:
        first = ref_bisect(vals, lo, hi + 1, lambda v: v > vhi)
        last = ref_bisect(vals, lo, hi + 1, lambda v: v >= vlo) - 1
    sub = list(vals[first:last + 1])
    while sub and math.isinf(sub[0]):
        sub.pop(0)
        first += 1
    while sub and math.isinf(sub[-1]):
        sub.pop()
    return (start + first, tuple(sub)) if sub else None


def ref_conv(a, b, pick, sentinel):
    out = []
    for k in range(len(a) + len(b) - 1):
        sums = [a[i] + b[k - i] for i in range(len(a))
                if 0 <= k - i < len(b)]
        out.append(pick(sums) if sums else sentinel)
    return tuple(out)


# -- properties ---------------------------------------------------------------


@SETTINGS
@given(lv=monotone_lists(), start=st.integers(-5, 5),
       sentinel=st.sampled_from([INF, NEG_INF]))
def test_values_and_reads_round_trip(lv, start, sentinel):
    vals, direction = lv
    s = MonotoneSeq(vals, start, direction, sentinel)
    assert s.values == tuple(vals)
    assert all(type(v) is int for v in s.values if not math.isinf(v))
    assert len(s) == len(vals) and s.stop == start + len(vals)
    for k in range(start - 2, start + len(vals) + 2):
        assert s[k] == ref_read(vals, start, sentinel, k)
    assert MonotoneSeq(s.arr, start, direction, sentinel) == s


@SETTINGS
@given(s=seqs(), ii=st.tuples(st.integers(-8, 40), st.integers(-8, 40)),
       vv=st.tuples(st.integers(-60, 60), st.integers(-60, 60)))
def test_restrict_matches_reference(s, ii, vv):
    want = ref_restrict(s.values, s.start, s.direction, ii, vv)
    got = restrict(s, ii, vv)
    assert (got.start, got.values) == want if want else got.is_empty()
    assert got.direction == s.direction and got.sentinel == s.sentinel


@SETTINGS
@given(s=seqs(), ii=st.tuples(st.integers(-8, 40), st.integers(-8, 40)))
def test_restrict_with_infinite_value_bounds(s, ii):
    for vv in ((NEG_INF, INF), (-(1 << 62), 1 << 62), (NEG_INF, 3),
               (-3.5, 7.5)):
        want = ref_restrict(s.values, s.start, s.direction, ii, vv)
        got = restrict(s, ii, vv)
        assert (got.start, got.values) == want if want else got.is_empty()


@SETTINGS
@given(lv=monotone_lists(lo=0, hi=40), m=st.integers(0, 45),
       start=st.integers(-5, 5), sentinel=st.sampled_from([INF, NEG_INF]))
def test_negate_shift_matches_reference(lv, m, start, sentinel):
    vals, direction = lv
    s = MonotoneSeq(vals, start, direction, sentinel)
    if any(not math.isinf(v) and not 0 <= v <= m for v in vals):
        with pytest.raises(SeqError):
            negate_shift(s, m)
        return
    got = negate_shift(s, m)
    assert got.values == tuple(-v if math.isinf(v) else m - v for v in vals)
    assert (got.start, got.direction) == (start, FLIP[direction])
    assert got.sentinel == -sentinel


@SETTINGS
@given(s=seqs())
def test_reverse_index_and_prefix_maxima(s):
    rev = reverse_index(s)
    assert rev.values == tuple(reversed(s.values))
    assert (rev.start, rev.direction, rev.sentinel) == \
        (s.start, FLIP[s.direction], s.sentinel)
    best, want = NEG_INF, []
    for v in s.values:
        best = max(best, v)
        want.append(best)
    pm = prefix_maxima(s)
    assert pm.values == tuple(want)
    assert (pm.start, pm.direction) == (s.start, NON_DECREASING)
    assert prefix_maxima(list(s.values)).values == tuple(want)


@SETTINGS
@given(a=monotone_lists(holes=None, min_size=1),
       b=monotone_lists(holes=None, min_size=1),
       hole=st.sampled_from([INF, NEG_INF]), data=st.data())
def test_naive_kernels_match_reference(a, b, hole, data):
    # holes of one sign only: +inf and -inf in one sum has no value
    a, b = list(a[0]), list(b[0])
    for vals in (a, b):
        for _ in range(data.draw(st.integers(0, 3))):
            vals[data.draw(st.integers(0, len(vals) - 1))] = hole
    sa, sb = data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5))
    mn = minplus_naive(MonotoneSeq(a, sa), MonotoneSeq(b, sb))
    mx = maxplus_naive(MonotoneSeq(a, sa), MonotoneSeq(b, sb))
    assert mn.values == ref_conv(a, b, min, INF) and mn.start == sa + sb
    assert mx.values == ref_conv(a, b, max, NEG_INF) and mx.start == sa + sb
    assert (mn.sentinel, mx.sentinel) == (INF, NEG_INF)
    assert minplus_naive(a, b).values == mn.values


@SETTINGS
@given(st.lists(st.integers(-5, 5)), st.integers(0, 5),
       st.one_of(st.floats(allow_infinity=False), st.text(max_size=2),
                 st.none()))
def test_non_integers_raise_type_error(vals, pos, bad):
    vals.insert(min(pos, len(vals)), bad)
    with pytest.raises(TypeError):
        MonotoneSeq(vals)


@pytest.mark.parametrize("big", [VALUE_LIMIT, -VALUE_LIMIT, VALUE_LIMIT + 5,
                                 1 << 61, -(1 << 61), 1 << 63, 1 << 70])
def test_value_limit_overflows(big):
    for vals in ([0, big, INF], [0, big], np.array([0, big], dtype=object)):
        with pytest.raises(OverflowError):
            MonotoneSeq(vals)
    assert MonotoneSeq([VALUE_LIMIT - 1, 1 - VALUE_LIMIT]).values == \
        (VALUE_LIMIT - 1, 1 - VALUE_LIMIT)


def test_stored_array_is_read_only():
    src = np.array([1, 2, 3], dtype=np.int64)
    s = MonotoneSeq(src, 0, NON_DECREASING)
    src[0] = 99  # the caller's array is not shared
    assert s.values == (1, 2, 3)
    assert not s.arr.flags.writeable
    with pytest.raises(ValueError):
        s.arr[0] = 5
    for view in (restrict(s, (0, 2), (0, 9)), reverse_index(s),
                 prefix_maxima(s), negate_shift(s, 3)):
        assert not view.arr.flags.writeable
