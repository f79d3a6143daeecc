"""Exact integer polynomial multiplication.

Three routes, picked automatically:

* schoolbook ``np.convolve`` for short inputs,
* float64 real FFT with a runtime-certified forward error bound
  (used only when the bound proves the rounded result exact),
* number-theoretic transforms over word-size primes with CRT
  reconstruction, for coefficient bounds the float route cannot certify.

The engine's Las Vegas exactness rests on this module never returning a
rounded-wrong coefficient, hence the certification.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

# NTT-friendly primes below 2**31 (products of two fit in int64) with
# primitive roots.
_NTT_PRIMES = ((2013265921, 31), (1811939329, 13), (469762049, 3))

_EPS = np.finfo(np.float64).eps


def _norm2(a: np.ndarray) -> float:
    # einsum, not np.dot: a BLAS call would start OpenBLAS's thread pool,
    # which then spins on idle cores
    x = a.astype(np.float64)
    return float(np.sqrt(np.einsum("i,i->", x, x)))


def _fft_certified(a: np.ndarray, b: np.ndarray, out_len: int):
    """Float64 FFT convolution, or None when exactness cannot be certified."""
    size = scipy.fft.next_fast_len(out_len, real=True)
    bound = 16.0 * _EPS * np.log2(max(size, 2)) * _norm2(a) * _norm2(b)
    if not (bound < 0.25):
        return None
    fa = scipy.fft.rfft(a.astype(np.float64), size, workers=-1)
    fb = scipy.fft.rfft(b.astype(np.float64), size, workers=-1)
    fa *= fb
    del fb
    res = scipy.fft.irfft(fa, size, workers=-1)[:out_len]
    return np.rint(res).astype(np.int64)


def _bit_reverse(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    rev = np.zeros(1, dtype=np.int64)
    for _ in range(bits):
        rev = np.concatenate([2 * rev, 2 * rev + 1])
    return rev


def _mod_pow_vec(base: int, exps: np.ndarray, mod: int) -> np.ndarray:
    out = np.ones(len(exps), dtype=np.int64)
    cur = base % mod
    e = exps.copy()
    while e.max(initial=0) > 0:
        odd = (e & 1) == 1
        out[odd] = (out[odd] * cur) % mod
        e >>= 1
        cur = (cur * cur) % mod
    return out


def _ntt(a: np.ndarray, p: int, g: int, invert: bool) -> np.ndarray:
    n = len(a)
    a = a[_bit_reverse(n)].copy()
    length = 2
    while length <= n:
        half = length // 2
        wlen = pow(g, (p - 1) // length, p)
        if invert:
            wlen = pow(wlen, p - 2, p)
        w = _mod_pow_vec(wlen, np.arange(half, dtype=np.int64), p)
        view = a.reshape(-1, length)
        lo = view[:, :half]
        hi = view[:, half:]
        t = (hi * w) % p
        hi[:] = (lo - t) % p
        lo[:] = (lo + t) % p
        length *= 2
    if invert:
        inv_n = pow(n, p - 2, p)
        a = (a * inv_n) % p
    return a


def _ntt_convolve_mod(a: np.ndarray, b: np.ndarray, out_len: int, p: int, g: int):
    size = 1
    while size < out_len:
        size *= 2
    fa = np.zeros(size, dtype=np.int64)
    fb = np.zeros(size, dtype=np.int64)
    fa[:len(a)] = a % p
    fb[:len(b)] = b % p
    fa = _ntt(fa, p, g, False)
    fb = _ntt(fb, p, g, False)
    fa = (fa * fb) % p
    return _ntt(fa, p, g, True)[:out_len]


def _ntt_convolve(a: np.ndarray, b: np.ndarray, out_len: int, coeff_bound: int):
    # enough primes so the CRT modulus exceeds twice the coefficient bound
    need = 2 * coeff_bound + 1
    mod = 1
    picked = []
    for p, g in _NTT_PRIMES:
        picked.append((p, g))
        mod *= p
        if mod >= need:
            break
    if mod < need:
        raise OverflowError("coefficient bound too large for NTT prime set")
    residues = [_ntt_convolve_mod(a, b, out_len, p, g) for p, g in picked]
    if len(picked) == 1:
        p = picked[0][0]
        out = residues[0]
        out[out > p // 2] -= p
        return out
    if len(picked) == 2:
        (p1, _), (p2, _) = picked
        inv = pow(p1, p2 - 2, p2)
        r1, r2 = residues
        diff = ((r2 - r1) % p2) * inv % p2
        out = r1 + p1 * diff  # < p1*p2 < 2**62, fits int64
        big = out > (p1 * p2) // 2
        out[big] -= p1 * p2
        return out
    # three primes exceed int64: combine with Python ints
    ps = [p for p, _ in picked]
    total = np.zeros(out_len, dtype=object)
    m = 1
    for p in ps:
        m *= p
    for r, p in zip(residues, ps):
        mp = m // p
        total += (r.astype(object) * (mp * pow(mp, p - 2, p)))
    total %= m
    total[total > m // 2] -= m
    return total.astype(np.int64)


def exact_convolve(a, b) -> np.ndarray:
    """Exact integer convolution of two int64 coefficient arrays."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.int64)
    out_len = len(a) + len(b) - 1
    amax = int(np.abs(a).max(initial=0))
    bmax = int(np.abs(b).max(initial=0))
    coeff_bound = amax * bmax * min(len(a), len(b))
    if min(len(a), len(b)) <= 32 or out_len <= 256:
        if coeff_bound < (1 << 62):
            return np.convolve(a, b)
    res = _fft_certified(a, b, out_len)
    if res is not None:
        return res
    return _ntt_convolve(a, b, out_len, coeff_bound)


# ---------------------------------------------------------------------------
# Sparse three-variable polynomials


class DegreeBoundError(ValueError):
    pass


def poly_mult_3var(p: dict, q: dict, dy_bound: int, dz_bound: int) -> dict:
    """Exact product of sparse polynomials in (x, y, z).

    Monomials are ``{(dx, dy, dz): coeff}`` with per-factor degree bounds
    dx <= 1, dy <= dy_bound, dz <= dz_bound.  Kronecker-packs x innermost,
    then y, then z; the x slot gets capacity 3 since product x-degrees
    reach 2, keeping the packing collision-free for arbitrary inputs.
    """
    for poly in (p, q):
        for (dx, dy, dz), coeff in poly.items():
            if not (0 <= dx <= 1):
                raise DegreeBoundError(f"x-degree {dx} outside [0, 1]")
            if not (0 <= dy <= dy_bound):
                raise DegreeBoundError(f"y-degree {dy} outside [0, {dy_bound}]")
            if not (0 <= dz <= dz_bound):
                raise DegreeBoundError(f"z-degree {dz} outside [0, {dz_bound}]")
    if not p or not q:
        return {}
    sy = 3
    sz = 3 * (2 * dy_bound + 1)

    def pack(poly):
        n = sz * dz_bound + sy * dy_bound + 2
        arr = np.zeros(n, dtype=np.int64)
        for (dx, dy, dz), coeff in poly.items():
            arr[dx + sy * dy + sz * dz] += coeff
        return arr

    prod = exact_convolve(pack(p), pack(q))
    out = {}
    for idx in np.nonzero(prod)[0]:
        idx = int(idx)
        dz, rem = divmod(idx, sz)
        dy, dx = divmod(rem, sy)
        out[(dx, dy, dz)] = int(prod[idx])
    return out
