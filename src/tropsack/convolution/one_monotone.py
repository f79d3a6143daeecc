"""Max-plus convolution where only one input is monotone.

Divide and conquer on equal-length inputs: the top half of the monotone
sequence recurses against both halves of the arbitrary one, while the
bottom half is convolved against prefix-maxima of the halves (which are
monotone, so the two-monotone engine applies).  Odd lengths peel the last
entry.  Cost satisfies T1(n) <= 2*T1(n/2) + O(T2(n)).
"""

from __future__ import annotations

import numpy as np

from ..core import (INT_INF, MonotoneSeq, NEG_INF, NON_DECREASING, SeedCtx,
                    SeqError, _finite, _saturate, _verified_direction,
                    empty_seq)
from .naive import _operand, tropical_kernel
from .engine import monotone_maxplus_rect

_BASE_LEN = 64


def _pm(arr: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(arr)


def _engine_maxplus(a: np.ndarray, b: np.ndarray, m: int, seed: SeedCtx,
                    method: str) -> np.ndarray:
    sa = MonotoneSeq(a, 0, NON_DECREASING, NEG_INF, validate=False)
    sb = MonotoneSeq(b, 0, NON_DECREASING, NEG_INF, validate=False)
    return monotone_maxplus_rect(sa, sb, m, seed, method=method).arr


def _combine_max(out: np.ndarray, part: np.ndarray, offset: int):
    lo = offset
    hi = offset + len(part)
    np.maximum(out[lo:hi], part, out=out[lo:hi])


def _one_monotone(a: np.ndarray, b: np.ndarray, m: int, seed: SeedCtx,
                  method: str, depth: int) -> np.ndarray:
    n = len(a)
    if n <= _BASE_LEN:
        return tropical_kernel(a, b, maximize=True)
    if n % 2 == 1:
        core = _one_monotone(a[:-1], b[:-1], m, seed.child(depth, 0), method,
                             depth + 1)
        out = np.full(2 * n - 1, -INT_INF, dtype=np.int64)
        out[:len(core)] = core
        # cross terms with the peeled last entries
        tail_a = _saturate(a[-1] + b)
        tail_b = _saturate(b[-1] + a)
        _combine_max(out, tail_a, n - 1)
        _combine_max(out, tail_b, n - 1)
        return out
    half = n // 2
    a1, a2 = a[:half], a[half:]
    b1, b2 = b[:half], b[half:]
    pm1 = _pm(b1)
    pm2 = _pm(b2)
    c11 = _engine_maxplus(a1, pm1, m, seed.child(depth, 1), method)
    c12 = _engine_maxplus(a1, pm2, m, seed.child(depth, 2), method)
    c21 = _one_monotone(a2, b1, m, seed.child(depth, 3), method, depth + 1)
    c22 = _one_monotone(a2, b2, m, seed.child(depth, 4), method, depth + 1)
    out = np.full(2 * n - 1, -INT_INF, dtype=np.int64)
    _combine_max(out, c11, 0)
    _combine_max(out, c12, half)
    _combine_max(out, c21, half)
    _combine_max(out, c22, 2 * half)
    return out


def one_monotone_maxplus(a: MonotoneSeq, b, m: int, seed: SeedCtx,
                         method: str = "auto") -> MonotoneSeq:
    """Max-plus convolution of monotone non-decreasing ``a`` with an
    arbitrary equal-length ``b``; entries of both in [0, m]."""
    if a.direction != NON_DECREASING:
        a = MonotoneSeq(a.arr, a.start, NON_DECREASING, a.sentinel)  # validates
    a, b = _operand(a), _operand(b)
    if len(a) != len(b):
        raise SeqError("one_monotone_maxplus needs equal-length inputs")
    if a.is_empty():
        return empty_seq(NON_DECREASING, NEG_INF)
    for arr in (a.arr, b.arr):
        fin = arr[_finite(arr)]
        if fin.size and (fin.min() < 0 or fin.max() > m):
            raise SeqError(f"entries outside [0, {m}]")
    out = _one_monotone(a.arr, b.arr, m, seed, method, 0)
    return MonotoneSeq(out, a.start + b.start,
                       _verified_direction(out, NON_DECREASING), NEG_INF,
                       validate=False)
