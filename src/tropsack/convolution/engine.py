"""Bounded-monotone min-plus / max-plus convolution in expected
Õ(n·sqrt(M) + M) time for monotone inputs with entries in [0, M].

The pipeline: sample a prime p ~ sqrt(M); split both inputs into nine
residue-class pairs whose entries satisfy (v mod p) <= p/3; per pair,
compute the quotient convolution C~ = minconv(A//p, B//p) over the runs of
the step sequences, then refine the remainder C* = C mod p through
bit-levels l = h-1..0.  At each level, a counting polynomial product
(exact FFT) gives, for every output index k, how many index pairs attain
each coarse value A_l[i] + B_l[k-i]; a maintained set of "false positive"
segments (pairs that match the coarse value by accident of the modulus,
not because they attain C[k]) is subtracted, and the minimum surviving
value is kept.  The result p*C~ + C* is exact; randomness only affects the
running time (Las Vegas).  Internally the false-positive sets are stored
as (i-run, j-run, k-interval) records rather than per-k segments; the two
forms are equivalent and the record form is what keeps memory linear-ish.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import (INF, INT_INF, MonotoneSeq, NEG_INF, NON_DECREASING,
                    NON_INCREASING, SeedCtx, SeqError, UNKNOWN, _finite,
                    _saturate, _verified_direction, empty_seq, negate_shift)
from .exactpoly import exact_convolve
from .naive import _operand, minplus_naive, minplus_counting_fft
from .segtree import ChminSegmentTree

ALPHA = 0.5  # residue prime is ~ M**ALPHA; fixed, not configurable

# Offsets b for the false-positive classes.  The value window that the
# per-level extraction reads corresponds to class offsets in [-11, 11]
# (one beyond the analysis constant 10, to cover the parity-boundary
# aliasing of the packed low bit).
B_RANGE = 11
_E_OFFS = np.arange(-2 * B_RANGE + 2, 2 * B_RANGE + 1)  # e - 2*C_prev in [-20, 22]

RECORD_CAP = 30_000_000  # safety valve; exceeded -> retry with a new prime


class DeadlineExceeded(RuntimeError):
    """Raised when a cooperative deadline passes between pipeline stages."""


class _EngineRetry(Exception):
    pass


# ---------------------------------------------------------------------------
# Primes


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sample_prime(m: int, seed: SeedCtx) -> int:
    """Uniform prime from [sqrt(M), 2*sqrt(M)] by rejection sampling."""
    lo = max(2, math.isqrt(max(m, 4)))
    hi = 2 * lo
    rng = seed.generator()
    for _ in range(4096):
        cand = int(rng.integers(lo, hi + 1))
        if is_prime(cand):
            return cand
    # Bertrand guarantees a prime in [lo, 2*lo]; scan as a last resort
    for cand in range(lo, hi + 1):
        if is_prime(cand):
            return cand
    raise AssertionError("no prime found in window")


# ---------------------------------------------------------------------------
# Residue-class splitting


@dataclass(frozen=True)
class ResidueClassPair:
    """One of the nine shifted class pairs; finite entries of both shifted
    sequences satisfy (v mod p) <= p/3."""

    a_shifted: MonotoneSeq
    b_shifted: MonotoneSeq
    shift_back: int
    x_class: int
    y_class: int


def _class_split_array(arr: np.ndarray, p: int):
    """Return per-class arrays [3] where entries outside the class are INF."""
    fin = arr < INT_INF
    res = np.where(fin, arr % p, 0)
    cls = np.minimum(3 * res // p, 2)
    outs = []
    for x in range(3):
        shift = -(-x * p // 3)  # ceil(x*p/3)
        vals = np.where(fin & (cls == x), arr - shift, INT_INF)
        outs.append(vals)
    return outs


def _count_inf_runs(arr: np.ndarray) -> int:
    isinf = arr >= INT_INF
    if not isinf.any():
        return 0
    changes = int(np.count_nonzero(np.diff(isinf.astype(np.int8)) == 1))
    return changes + (1 if isinf[0] else 0)


def residue_split(a: MonotoneSeq, b: MonotoneSeq, p: int):
    """The nine cross pairs (A^x - ceil(xp/3), B^y - ceil(yp/3))."""
    a, b = _operand(a), _operand(b)
    arr_a, arr_b = a.arr, b.arr
    a_classes = _class_split_array(arr_a, p)
    b_classes = _class_split_array(arr_b, p)
    fins = np.concatenate([arr_a[arr_a < INT_INF], arr_b[arr_b < INT_INF]])
    vmax = int(fins.max()) if fins.size else 1
    run_cap = 10 * max(1, 3 * (vmax // p + 2)) + 10
    pairs = []
    for x in range(3):
        for y in range(3):
            sh = (-(-x * p // 3)) + (-(-y * p // 3))
            seq_a = MonotoneSeq(a_classes[x], a.start, UNKNOWN, INF,
                                validate=False)
            seq_b = MonotoneSeq(b_classes[y], b.start, UNKNOWN, INF,
                                validate=False)
            assert _count_inf_runs(a_classes[x]) <= run_cap, "infinity-run bound violated"
            assert _count_inf_runs(b_classes[y]) <= run_cap, "infinity-run bound violated"
            pairs.append(ResidueClassPair(seq_a, seq_b, sh, x, y))
    return pairs


# ---------------------------------------------------------------------------
# Quotient (tilde) convolution over run decompositions


def _finite_runs(vals: np.ndarray, fin: np.ndarray):
    """Maximal runs of constant finite value: (starts, ends, values)."""
    n = len(vals)
    if n == 0:
        return (np.zeros(0, np.int64),) * 3
    key = np.where(fin, vals, -1)
    chg = np.empty(n, dtype=bool)
    chg[0] = True
    chg[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(chg)
    ends = np.append(starts[1:] - 1, n - 1)
    keep = fin[starts]
    return starts[keep], ends[keep], vals[starts[keep]]


def tilde_convolution(a, b) -> MonotoneSeq:
    """Min-plus of step sequences via range-chmin updates over run pairs."""
    a, b = _operand(a), _operand(b)
    if a.is_empty() or b.is_empty():
        return empty_seq(UNKNOWN, INF)
    return MonotoneSeq(_saturate(_tilde_array(a.arr, b.arr)),
                       a.start + b.start, UNKNOWN, INF, validate=False)


def _tilde_array(arr_a: np.ndarray, arr_b: np.ndarray) -> np.ndarray:
    nc = len(arr_a) + len(arr_b) - 1
    ras, rae, rav = _finite_runs(arr_a, arr_a < INT_INF)
    rbs, rbe, rbv = _finite_runs(arr_b, arr_b < INT_INF)
    tree = ChminSegmentTree(nc, INT_INF)
    for i in range(len(ras)):
        lo = ras[i] + rbs
        hi = rae[i] + rbe
        val = rav[i] + rbv
        for j in range(len(rbs)):
            tree.range_chmin(int(lo[j]), int(hi[j]), int(val[j]))
    return tree.read_all()


# ---------------------------------------------------------------------------
# Debug introspection types


@dataclass(frozen=True)
class Segment:
    """Per-k maximal interval on which the level sequences are constant."""

    interval: tuple
    k: int
    level: int


@dataclass
class ConvLevelState:
    level: int
    c_level: np.ndarray
    false_positives: dict  # b -> list[Segment]
    prime: int
    alpha: float = ALPHA


@dataclass
class PairTrace:
    x_class: int
    y_class: int
    shift_back: int
    c_tilde: np.ndarray = None
    levels: list = field(default_factory=list)


@dataclass
class EngineTrace:
    prime: int
    m_bound: int
    pair_traces: list = field(default_factory=list)
    fallback: Optional[str] = None


# ---------------------------------------------------------------------------
# Record sets: (i-run [p1,p2], j-run [q1,q2], k-interval [k1,k2])


class _Records:
    __slots__ = ("p1", "p2", "q1", "q2", "k1", "k2")

    def __init__(self, p1, p2, q1, q2, k1, k2):
        self.p1, self.p2 = p1, p2
        self.q1, self.q2 = q1, q2
        self.k1, self.k2 = k1, k2

    def __len__(self):
        return len(self.p1)

    @staticmethod
    def empty():
        z = np.zeros(0, dtype=np.int64)
        return _Records(z, z, z, z, z, z)

    @staticmethod
    def concat(parts):
        parts = [p for p in parts if len(p)]
        if not parts:
            return _Records.empty()
        return _Records(*(np.concatenate([getattr(p, f) for p in parts])
                          for f in ("p1", "p2", "q1", "q2", "k1", "k2")))

    def take(self, mask):
        return _Records(self.p1[mask], self.p2[mask], self.q1[mask],
                        self.q2[mask], self.k1[mask], self.k2[mask])


def _run_start_index(key: np.ndarray, fin: np.ndarray) -> np.ndarray:
    """For each index, the start of its maximal constant-(key, finite) run."""
    n = len(key)
    chg = np.empty(n, dtype=bool)
    chg[0] = True
    chg[1:] = (key[1:] != key[:-1]) | (fin[1:] != fin[:-1])
    idx = np.arange(n, dtype=np.int64)
    return np.maximum.accumulate(np.where(chg, idx, 0))


_ONE_ZERO = np.zeros(1, dtype=np.int64)


def _false_intervals(mask: np.ndarray):
    """Starts/ends (inclusive) of maximal True runs in a boolean array."""
    m8 = mask.view(np.int8)
    d = np.diff(m8)
    starts = np.flatnonzero(d == 1) + 1
    ends = np.flatnonzero(d == -1)
    if mask[0]:
        starts = np.concatenate([_ONE_ZERO, starts])
    if mask[-1]:
        ends = np.concatenate([ends, np.array([len(mask) - 1])])
    return starts, ends


def _initial_records_runpairs(atil, btil, fa, fb, ctil) -> _Records:
    """Top-level false-positive records, one batch per finite run pair."""
    ras, rae, rav = _finite_runs(atil, fa)
    rbs, rbe, rbv = _finite_runs(btil, fb)
    cols = [[] for _ in range(6)]
    for i in range(len(ras)):
        for j in range(len(rbs)):
            w1 = int(ras[i] + rbs[j])
            w2 = int(rae[i] + rbe[j])
            s = int(rav[i] + rbv[j])
            neq = ctil[w1:w2 + 1] != s
            if not neq.any():
                continue
            st, en = _false_intervals(neq)
            m = len(st)
            cols[0].append(np.full(m, ras[i]))
            cols[1].append(np.full(m, rae[i]))
            cols[2].append(np.full(m, rbs[j]))
            cols[3].append(np.full(m, rbe[j]))
            cols[4].append(st + w1)
            cols[5].append(en + w1)
    if not cols[0]:
        return _Records.empty()
    return _Records(*(np.concatenate(c).astype(np.int64) for c in cols))


def _split_records(recs: _Records, startA: np.ndarray, startB: np.ndarray) -> _Records:
    """Refine records to the next level's run structure (<= 4 children)."""
    if len(recs) == 0:
        return recs
    bA = startA[recs.p2]
    bB = startB[recs.q2]
    hasA = bA > recs.p1
    hasB = bB > recs.q1
    aL_end = np.where(hasA, bA - 1, recs.p2)
    bL_end = np.where(hasB, bB - 1, recs.q2)
    parts = []
    variants = (
        (None, recs.p1, aL_end, recs.q1, bL_end),
        (hasB, recs.p1, aL_end, bB, recs.q2),
        (hasA, bA, recs.p2, recs.q1, bL_end),
        (hasA & hasB, bA, recs.p2, bB, recs.q2),
    )
    for cond, np1, np2, nq1, nq2 in variants:
        k1 = np.maximum(recs.k1, np1 + nq1)
        k2 = np.minimum(recs.k2, np2 + nq2)
        mask = k1 <= k2
        if cond is not None:
            mask &= cond
        if mask.any():
            parts.append(_Records(np1[mask], np2[mask], nq1[mask],
                                  nq2[mask], k1[mask], k2[mask]))
    return _Records.concat(parts)


class _SparseTable:
    """Static range-min and range-max over an int64 array."""

    def __init__(self, arr: np.ndarray):
        self.mins = [arr]
        self.maxs = [arr]
        j = 1
        while (1 << j) <= len(arr):
            half = 1 << (j - 1)
            pm = self.mins[-1]
            px = self.maxs[-1]
            self.mins.append(np.minimum(pm[:-half], pm[half:]))
            self.maxs.append(np.maximum(px[:-half], px[half:]))
            j += 1

    def query(self, lo: np.ndarray, hi: np.ndarray):
        """Vectorized inclusive range (min, max); requires lo <= hi."""
        span = hi - lo + 1
        j = np.zeros(len(lo), dtype=np.int64)
        big = span > 1
        # span is a small exact integer; log2 of powers of two is exact
        j[big] = np.floor(np.log2(span[big])).astype(np.int64)
        j = np.minimum(j, len(self.mins) - 1)
        off = hi - (np.int64(1) << j) + 1
        mins = np.empty(len(lo), dtype=np.int64)
        maxs = np.empty(len(lo), dtype=np.int64)
        for level in np.unique(j):
            sel = j == level
            tm = self.mins[level]
            tx = self.maxs[level]
            mins[sel] = np.minimum(tm[lo[sel]], tm[off[sel]])
            maxs[sel] = np.maximum(tx[lo[sel]], tx[off[sel]])
        return mins, maxs


# ---------------------------------------------------------------------------
# Trapezoid accumulation: each record contributes, for k in its window,
# the count of valid i positions -- a piecewise-linear tent clipped to the
# window.  Accumulated via second differences: 4 point updates per linear
# piece, then two cumulative sums along k.


def _records_to_r(recs: _Records, lvlA, lvlB, sz: int, nc: int) -> np.ndarray:
    """Dense false-positive counts R[k, e] from record trapezoids."""
    r = np.zeros((nc + 2) * sz, dtype=np.int64)
    if len(recs) == 0:
        return r[: nc * sz].reshape(nc, sz)
    e = lvlA[recs.p1] + lvlB[recs.q1]
    row = e  # flat index = (k * sz) + e; pieces add at k-offsets
    k_lo = np.maximum(recs.k1, recs.p1 + recs.q1)
    k_hi = np.minimum(recs.k2, recs.p2 + recs.q2)
    ka = np.minimum(recs.p2 + recs.q1, recs.p1 + recs.q2)   # end of rise
    kb = np.maximum(recs.p2 + recs.q1, recs.p1 + recs.q2)   # start of fall - 1
    vtop = np.minimum(recs.p2 - recs.p1, recs.q2 - recs.q1) + 1
    s0 = recs.p1 + recs.q1

    def add_piece(u, w, alpha, sigma):
        mask = u <= w
        if not mask.any():
            return
        uu, ww = u[mask], w[mask]
        rr = row[mask]
        aa = alpha[mask]
        ss = sigma[mask]
        end_val = aa + ss * (ww - uu)
        np.add.at(r, rr + uu * sz, aa)
        np.add.at(r, rr + (uu + 1) * sz, ss - aa)
        np.add.at(r, rr + (ww + 1) * sz, -end_val - ss)
        # ww + 2 <= k_hi + 2 <= nc + 1, inside the padded area
        np.add.at(r, rr + (ww + 2) * sz, end_val)

    ones = np.ones(len(recs), dtype=np.int64)
    # rising piece: k in [k_lo, min(ka, k_hi)], value k - s0 + 1
    u = k_lo
    w = np.minimum(ka, k_hi)
    add_piece(u, w, u - s0 + 1, ones)
    # plateau: k in [max(k_lo, ka+1), min(kb, k_hi)], value vtop
    u = np.maximum(k_lo, ka + 1)
    w = np.minimum(kb, k_hi)
    add_piece(u, w, vtop, ones * 0)
    # falling piece: k in [max(k_lo, kb+1), k_hi], value (p2+q2) - k + 1
    u = np.maximum(k_lo, kb + 1)
    w = k_hi
    add_piece(u, w, (recs.p2 + recs.q2) - u + 1, -ones)
    r = r.reshape(nc + 2, sz)
    np.cumsum(r, axis=0, out=r)
    np.cumsum(r, axis=0, out=r)
    return r[:nc]


# ---------------------------------------------------------------------------
# The per-pair level pipeline


def _pair_minplus(arr_a, arr_b, p: int, debug: bool, trace: Optional[PairTrace],
                  deadline) -> np.ndarray:
    na, nb = len(arr_a), len(arr_b)
    nc = na + nb - 1
    fa = arr_a < INT_INF
    fb = arr_b < INT_INF
    if not fa.any() or not fb.any():
        return np.full(nc, INT_INF, dtype=np.int64)
    amod = np.where(fa, arr_a % p, 0)
    atil = np.where(fa, arr_a // p, INT_INF)
    bmod = np.where(fb, arr_b % p, 0)
    btil = np.where(fb, arr_b // p, INT_INF)

    ctil = _tilde_array(atil, btil)
    if trace is not None:
        trace.c_tilde = ctil.copy()

    h = p.bit_length()  # 2**(h-1) <= p < 2**h
    records = _initial_records_runpairs(atil, btil, fa, fb, ctil)

    c_prev = np.zeros(nc, dtype=np.int64)  # C^(h) is the zero sequence
    if debug and trace is not None:
        trace.levels.append(_level_state(h, c_prev, records,
                                         None, None, atil, btil, p))

    atil_f = np.where(fa, atil, 0)
    btil_f = np.where(fb, btil, 0)
    for lvl in range(h - 1, -1, -1):
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded("convolution deadline passed")
        lvlA = np.where(fa, amod >> lvl, 0)
        lvlB = np.where(fb, bmod >> lvl, 0)
        keyA = np.where(fa, (atil_f << (h - lvl)) + lvlA, -1)
        keyB = np.where(fb, (btil_f << (h - lvl)) + lvlB, -1)
        startA = _run_start_index(keyA, fa)
        startB = _run_start_index(keyB, fb)
        children = _split_records(records, startA, startB)
        if len(children) > RECORD_CAP:
            raise _EngineRetry

        emaxA = int(lvlA[fa].max())
        emaxB = int(lvlB[fb].max())
        sz = emaxA + emaxB + 1
        rmat = _records_to_r(children, lvlA, lvlB, sz, nc)

        pa = np.zeros(sz * (na - 1) + emaxA + 1, dtype=np.int64)
        pb = np.zeros(sz * (nb - 1) + emaxB + 1, dtype=np.int64)
        ia = np.flatnonzero(fa)
        ib = np.flatnonzero(fb)
        pa[ia * sz + lvlA[ia]] = 1
        pb[ib * sz + lvlB[ib]] = 1
        prod = exact_convolve(pa, pb)  # length sz * nc exactly
        prod = prod.reshape(nc, sz)

        # read the 43 candidate slots e = 2*C^(l+1)[k] + off per index k
        slots = 2 * c_prev[:, None] + _E_OFFS[None, :]
        valid = (slots >= 0) & (slots < sz)
        cl = np.clip(slots, 0, sz - 1)
        krows = np.arange(nc)[:, None]
        survivors = prod[krows, cl] - rmat[krows, cl]
        assert int(survivors[valid].min(initial=0)) >= 0, \
            "false-positive subtraction exceeded totals"
        good = valid & (survivors > 0)
        cand = np.where(good, slots, np.int64(1) << 40)
        c_cur = cand.min(axis=1)
        c_cur[c_cur >= (np.int64(1) << 40)] = 0  # no finite C[k]: don't-care

        if lvl > 0:
            e_child = lvlA[children.p1] + lvlB[children.q1]
            table = _SparseTable(c_cur)
            mins, maxs = table.query(children.k1, children.k2)
            keep = (mins <= e_child + B_RANGE) & (maxs >= e_child - B_RANGE)
            records = children.take(keep)
        if debug and trace is not None:
            trace.levels.append(_level_state(
                lvl, c_cur, records if lvl > 0 else _Records.empty(),
                lvlA, lvlB, atil, btil, p))
        c_prev = c_cur

    return np.where(ctil < INT_INF // 2, p * ctil + c_prev, INT_INF)


def _level_state(lvl, c_cur, records, lvlA, lvlB, atil, btil, p) -> ConvLevelState:
    """Expand record form into the definitional per-k segment sets."""
    fps = {b: [] for b in range(-B_RANGE, B_RANGE + 1)}
    for r in range(len(records)):
        p1, p2 = int(records.p1[r]), int(records.p2[r])
        q1, q2 = int(records.q1[r]), int(records.q2[r])
        if lvlA is None:
            e = 0
        else:
            e = int(lvlA[p1] + lvlB[q1])
        for k in range(int(records.k1[r]), int(records.k2[r]) + 1):
            i1 = max(p1, k - q2)
            i2 = min(p2, k - q1)
            if i1 > i2:
                continue
            b = e - int(c_cur[k])
            if -B_RANGE <= b <= B_RANGE:
                fps[b].append(Segment((i1, i2), k, lvl))
    return ConvLevelState(lvl, c_cur.copy(), fps, p)


# ---------------------------------------------------------------------------
# Entry points


def _validate_monotone_pair(a: MonotoneSeq, b: MonotoneSeq, m: int):
    dirs = {a.direction, b.direction}
    if UNKNOWN in dirs:
        # constant/singleton sequences may be tagged unknown
        for s in (a, b):
            if s.direction == UNKNOWN and (s.arr != s.arr[:1]).any():
                raise SeqError("inputs must be monotone with a declared direction")
        direction = (dirs - {UNKNOWN}).pop() if dirs - {UNKNOWN} else NON_DECREASING
    elif len(dirs) == 1:
        direction = dirs.pop()
    else:
        raise SeqError("inputs must share a monotone direction")
    for s in (a, b):
        bad = _finite(s.arr) & ((s.arr < 0) | (s.arr > m))
        if bad.any():
            raise SeqError(f"entry {s.arr[bad][0]} outside [0, {m}]")
    return direction


def _minplus_levels(arr_a, arr_b, m: int, seed: SeedCtx, debug: bool,
                    deadline) -> tuple:
    last_exc = None
    for attempt in range(4):
        p = sample_prime(m, seed.child(97, attempt))
        trace = EngineTrace(prime=p, m_bound=m)
        try:
            a_classes = _class_split_array(arr_a, p)
            b_classes = _class_split_array(arr_b, p)
            total = None
            for x in range(3):
                for y in range(3):
                    sh = (-(-x * p // 3)) + (-(-y * p // 3))
                    ptr = PairTrace(x, y, sh) if debug else None
                    part = _pair_minplus(a_classes[x], b_classes[y], p,
                                         debug, ptr, deadline)
                    part = np.where(part < INT_INF // 2, part + sh, INT_INF)
                    total = part if total is None else np.minimum(total, part)
                    if debug:
                        trace.pair_traces.append(ptr)
            return total, trace
        except _EngineRetry as exc:
            last_exc = exc
            continue
    # persistent blow-ups: stay exact via the quadratic baseline
    trace = EngineTrace(prime=0, m_bound=m, fallback="naive-after-retries")
    return None, trace


def monotone_minplus_rect(a: MonotoneSeq, b: MonotoneSeq, m: int,
                          seed: SeedCtx, method: str = "auto",
                          debug: bool = False, deadline: float = None):
    """Exact min-plus convolution of two same-direction monotone sequences
    with finite entries in [0, m].  Las Vegas: output is always exact.

    method: 'auto' picks among 'naive', 'counting' and 'levels'; tests and
    benchmarks pass an explicit method to pin the code path.
    """
    direction = _validate_monotone_pair(a, b, m)
    if a.is_empty() or b.is_empty():
        out = empty_seq(direction, INF)
        return (out, EngineTrace(0, m)) if debug else out
    arr_a, arr_b = _operand(a).arr, _operand(b).arr
    na, nb = len(arr_a), len(arr_b)

    if method == "auto":
        # unit = one vectorized elementwise op; FFT points and pipeline
        # stages cost far more per unit than the quadratic baseline's
        cost_naive = na * nb
        cost_counting = 60 * (na + nb) * (2 * m + 1)
        cost_levels = 2500 * (na + nb) * max(4, math.isqrt(m))
        best = min(cost_naive, cost_counting, cost_levels)
        if best == cost_naive or m < 4 or min(na, nb) < 4:
            method = "naive"
        elif best == cost_counting:
            method = "counting"
        else:
            method = "levels"

    trace = None
    if method == "naive":
        out = minplus_naive(a, b).arr
    elif method == "counting":
        out = minplus_counting_fft(a, b, m).arr
    elif method == "levels":
        rev = direction == NON_INCREASING
        wa, wb = (arr_a[::-1], arr_b[::-1]) if rev else (arr_a, arr_b)
        total, trace = _minplus_levels(wa, wb, m, seed, debug, deadline)
        if total is None:
            out = minplus_naive(a, b).arr
        else:
            out = total[::-1] if rev else total
    else:
        raise ValueError(f"unknown method {method!r}")
    out = MonotoneSeq(out, a.start + b.start,
                      _verified_direction(out, direction), INF,
                      validate=False)
    if debug:
        return out, trace or EngineTrace(0, m, fallback=method)
    return out


def monotone_maxplus_rect(a: MonotoneSeq, b: MonotoneSeq, m: int,
                          seed: SeedCtx, method: str = "auto",
                          debug: bool = False, deadline: float = None):
    """Max-plus via the reflection v -> m - v around the value range."""
    direction = _validate_monotone_pair(a, b, m)
    na = negate_shift(MonotoneSeq(a.arr, a.start, direction, a.sentinel,
                                  validate=False), m)
    nb = negate_shift(MonotoneSeq(b.arr, b.start, direction, b.sentinel,
                                  validate=False), m)
    res = monotone_minplus_rect(na, nb, m, seed, method=method, debug=debug,
                                deadline=deadline)
    if debug:
        res, trace = res
    out_arr = np.where(_finite(res.arr), 2 * m - res.arr, -res.arr)
    out = MonotoneSeq(out_arr, res.start,
                      _verified_direction(out_arr, direction), NEG_INF,
                      validate=False)
    if debug:
        return out, trace
    return out
