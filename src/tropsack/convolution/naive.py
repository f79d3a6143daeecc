"""The quadratic tropical kernel and the small-range FFT method.

These are the definitional oracles everything faster is checked against.
"""

from __future__ import annotations

import numpy as np

from ..core import (INF, INT_INF, NEG_INF, MonotoneSeq, NON_DECREASING,
                    NON_INCREASING, UNKNOWN, _OP_LIMIT, _finite, _saturate,
                    empty_seq)


def tropical_kernel(a: np.ndarray, b: np.ndarray, maximize: bool
                    ) -> np.ndarray:
    """C[k] = max (or min) over i+j=k of a[i]+b[j] on encoded arrays,
    O(|a||b|); sums touching a sentinel saturate onto it."""
    n, m = len(a), len(b)
    out = np.full(n + m - 1, -INT_INF if maximize else INT_INF,
                  dtype=np.int64)
    if n < m:
        a, b, n, m = b, a, m, n
    fold = np.maximum if maximize else np.minimum
    row = np.empty(n, dtype=np.int64)
    for j in range(m):
        np.add(a, b[j], out=row)
        fold(out[j:j + n], row, out=out[j:j + n])
    # saturation is monotone, so it commutes with the fold; sums of two
    # sentinels stay inside int64
    return _saturate(out)


def _operand(x) -> MonotoneSeq:
    """``x`` as a sequence whose finite entries fit tropical sums."""
    seq = x if isinstance(x, MonotoneSeq) else MonotoneSeq(x)
    big = (seq.arr >= _OP_LIMIT) | (seq.arr <= -_OP_LIMIT)
    if (big & _finite(seq.arr)).any():
        raise OverflowError("entries too large for tropical convolution")
    return seq


def _conv_direction(a: MonotoneSeq, b: MonotoneSeq) -> str:
    if a.direction == b.direction and \
            a.direction in (NON_DECREASING, NON_INCREASING):
        return a.direction
    return UNKNOWN


def _naive(a, b, maximize: bool) -> MonotoneSeq:
    a, b = _operand(a), _operand(b)
    direction = _conv_direction(a, b)
    sentinel = NEG_INF if maximize else INF
    if a.is_empty() or b.is_empty():
        return empty_seq(direction, sentinel)
    return MonotoneSeq(tropical_kernel(a.arr, b.arr, maximize),
                       a.start + b.start, direction, sentinel,
                       validate=False)


def minplus_naive(a, b) -> MonotoneSeq:
    """C[k] = min_{i+j=k} A[i]+B[j] over in-bounds pairs, O(|A||B|)."""
    return _naive(a, b, maximize=False)


def maxplus_naive(a, b) -> MonotoneSeq:
    """C[k] = max_{i+j=k} A[i]+B[j]; equals -minplus(-A,-B) exactly."""
    return _naive(a, b, maximize=True)


def minplus_counting_fft(a, b, m: int) -> MonotoneSeq:
    """Min-plus via value-indexed indicator polynomials, O(n*m log) time.

    Worthwhile only for small value ranges; used as the small-M fallback.
    """
    from .exactpoly import exact_convolve

    a, b = _operand(a), _operand(b)
    direction = _conv_direction(a, b)
    if a.is_empty() or b.is_empty():
        return empty_seq(direction, INF)
    arr_a, arr_b = a.arr, b.arr
    for arr in (arr_a, arr_b):
        fin = arr[arr < INT_INF]
        if fin.size and (fin.min() < 0 or fin.max() > m):
            raise ValueError("entries outside [0, M]")
    stride = 2 * m + 1
    ia = np.zeros(len(arr_a) * stride, dtype=np.int64)
    ib = np.zeros(len(arr_b) * stride, dtype=np.int64)
    mask_a = arr_a < INT_INF
    mask_b = arr_b < INT_INF
    ia[np.nonzero(mask_a)[0] * stride + arr_a[mask_a]] = 1
    ib[np.nonzero(mask_b)[0] * stride + arr_b[mask_b]] = 1
    prod = exact_convolve(ia, ib)
    nc = len(arr_a) + len(arr_b) - 1
    out = np.full(nc, INT_INF, dtype=np.int64)
    # first nonzero value slot per output index k is the min sum
    padded = np.zeros(nc * stride, dtype=np.int64)
    padded[:len(prod)] = prod[:nc * stride]
    grid = padded.reshape(nc, stride)
    nz = grid != 0
    has = nz.any(axis=1)
    out[has] = nz[has].argmax(axis=1)
    return MonotoneSeq(out, a.start + b.start, direction, INF,
                       validate=False)
