"""Domain types and monotone-sequence algebra.

Everything here is immutable after construction and safe to share across
threads.  Sequences carry absolute start indices so that subarrays produced
by :func:`restrict` compose without re-indexing bookkeeping.

A :class:`MonotoneSeq` stores its entries as one read-only int64 array.
Finite entries lie strictly inside ``(-VALUE_LIMIT, VALUE_LIMIT)``; the
extended values +inf and -inf are stored as the sentinels ``INT_INF`` and
``-INT_INF`` (2**61), which order like the infinities they stand for.
Every layer (restriction, the kernels, the engine, the DPs) works on that
array directly; ``.values`` decodes it into a tuple of ints and float
infinities for callers outside the library.  The encoding and its
saturating arithmetic are defined here and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

INF = float("inf")
NEG_INF = float("-inf")

# Finite magnitudes must stay below this so int64 engine workspaces
# (sentinel 2**61 plus one addition) cannot wrap.
VALUE_LIMIT = 1 << 60

# int64 sentinels; finite payloads entering tropical ops are capped at
# 2**59 so a sentinel plus any finite value stays beyond the saturation
# threshold and two sentinels stay below 2**63.
INT_INF = 1 << 61
_SAT = 1 << 60
_OP_LIMIT = 1 << 59

NON_DECREASING = "non-decreasing"
NON_INCREASING = "non-increasing"
UNKNOWN = "unknown"

_DIRECTIONS = (NON_DECREASING, NON_INCREASING, UNKNOWN)


def _saturate(s: np.ndarray) -> np.ndarray:
    """Collapse any sentinel-contaminated sum back onto the sentinels."""
    s[s >= _SAT] = INT_INF
    s[s <= -_SAT] = -INT_INF
    return s


def _encode_entry(v) -> int:
    if v == INF or v == NEG_INF:
        return INT_INF if v > 0 else -INT_INF
    if not isinstance(v, (int, np.integer)):
        raise TypeError(f"sequence entries must be int or +/-inf, got {v!r}")
    if abs(int(v)) >= VALUE_LIMIT:
        raise OverflowError(f"finite entry {v} exceeds VALUE_LIMIT")
    return int(v)


def _encode(values) -> np.ndarray:
    """Read-only int64 encoding of ``values``.

    An int64 array is taken as already encoded (+/-INT_INF for +/-inf) and
    is shared when read-only; anything else is read as ints and float
    infinities.  Finite entries must stay inside +/-VALUE_LIMIT.
    """
    encoded = isinstance(values, np.ndarray) and values.dtype == np.int64
    if encoded:
        arr = values.copy() if values.flags.writeable else values
    else:
        if isinstance(values, np.ndarray):
            values = values.tolist()
        elif not isinstance(values, (list, tuple)):
            values = list(values)
        arr = np.array(values)
        if arr.dtype.kind not in "iu" or arr.ndim != 1:
            arr = np.array([_encode_entry(v) for v in values], dtype=np.int64)
            encoded = True
    if len(arr) and (arr.max() >= VALUE_LIMIT or arr.min() <= -VALUE_LIMIT):
        bad = (arr >= VALUE_LIMIT) | (arr <= -VALUE_LIMIT)
        if encoded:
            bad &= _finite(arr)
        if bad.any():
            raise OverflowError(
                f"finite entry {arr[bad][0]} exceeds VALUE_LIMIT")
    if arr.flags.writeable:
        arr = arr.astype(np.int64, copy=False)
        arr.flags.writeable = False
    return arr


def _finite(arr: np.ndarray) -> np.ndarray:
    return (arr != INT_INF) & (arr != -INT_INF)


def _monotone(arr: np.ndarray, direction: str) -> bool:
    """Whether the finite entries follow ``direction`` (never UNKNOWN)."""
    steps = np.diff(arr[_finite(arr)])
    if direction == NON_DECREASING:
        return bool((steps >= 0).all())
    return bool((steps <= 0).all())


def _verified_direction(arr: np.ndarray, claimed: str) -> str:
    """Keep the claimed direction only if the finite entries satisfy it.

    Inputs with infinity holes can produce non-monotone outputs; a lying
    tag would corrupt later binary searches.
    """
    if claimed == UNKNOWN or not _monotone(arr, claimed):
        return UNKNOWN
    return claimed


def _flipped(direction: str) -> str:
    if direction == NON_DECREASING:
        return NON_INCREASING
    if direction == NON_INCREASING:
        return NON_DECREASING
    return UNKNOWN


def _read_band(arr: np.ndarray, arr_lo: int, lo: int, hi: int, fill
              ) -> np.ndarray:
    """Entries lo..hi of ``arr`` (whose first entry sits at index
    ``arr_lo``), with ``fill`` outside it."""
    out = np.full(hi - lo + 1, fill, dtype=np.int64)
    s = max(lo, arr_lo)
    e = min(hi, arr_lo + len(arr) - 1)
    if s <= e:
        out[s - lo:e - lo + 1] = arr[s - arr_lo:e - arr_lo + 1]
    return out


class SeqError(ValueError):
    """Raised for malformed sequences or invalid sequence operations."""


@dataclass(frozen=True)
class Item:
    """A knapsack item.  ``internal`` marks dummy items that are allowed
    to have zero weight or zero profit."""

    weight: int
    profit: int
    internal: bool = False

    def __post_init__(self):
        if not isinstance(self.weight, (int, np.integer)) or isinstance(self.weight, bool):
            raise TypeError("weight must be an integer")
        if not isinstance(self.profit, (int, np.integer)) or isinstance(self.profit, bool):
            raise TypeError("profit must be an integer")
        object.__setattr__(self, "weight", int(self.weight))
        object.__setattr__(self, "profit", int(self.profit))
        if self.internal:
            if self.weight < 0 or self.profit < 0:
                raise ValueError("internal items need non-negative weight/profit")
        else:
            if self.weight < 1:
                raise ValueError(f"item weight must be >= 1, got {self.weight}")
            if self.profit < 1:
                raise ValueError(f"item profit must be >= 1, got {self.profit}")
        if self.weight >= VALUE_LIMIT or self.profit >= VALUE_LIMIT:
            raise OverflowError("item parameters exceed VALUE_LIMIT")


class KnapsackInstance:
    """A (multi-)set of items plus a capacity, with cached parameters."""

    __slots__ = ("items", "capacity", "n", "w_max", "p_max", "_weights",
                 "_profits", "_ratio_order")

    def __init__(self, items: Sequence[Item], capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.items = tuple(items)
        self.capacity = int(capacity)
        self.n = len(self.items)
        self.w_max = max((it.weight for it in self.items), default=0)
        self.p_max = max((it.profit for it in self.items), default=0)
        self._weights = None
        self._profits = None
        self._ratio_order = None

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            self._weights = np.array([it.weight for it in self.items], dtype=np.int64)
        return self._weights

    @property
    def profits(self) -> np.ndarray:
        if self._profits is None:
            self._profits = np.array([it.profit for it in self.items], dtype=np.int64)
        return self._profits

    @property
    def ratio_order(self) -> tuple:
        """Item indices by profit-to-weight ratio, non-increasing, ties by
        index, weight-0 items first.  Exact: p/w is keyed by
        floor(p * 2^s / w) with 2^s > w_max^2, and two distinct ratios
        differ by at least 1/w_max^2, so their keys differ."""
        if self._ratio_order is None:
            s = 2 * self.w_max.bit_length()
            top = (self.p_max + 1) << s  # above every finite ratio's key
            keys = [(it.profit << s) // it.weight if it.weight else top
                    for it in self.items]
            # a stable sort keeps equal keys in index order, also reversed
            self._ratio_order = tuple(sorted(range(self.n),
                                             key=keys.__getitem__,
                                             reverse=True))
        return self._ratio_order

    def total_profit(self) -> int:
        return int(sum(it.profit for it in self.items))

    def total_weight(self) -> int:
        return int(sum(it.weight for it in self.items))

    def subset(self, indices: Iterable[int]) -> "KnapsackInstance":
        return KnapsackInstance([self.items[i] for i in indices], self.capacity)

    def __repr__(self):
        return (f"KnapsackInstance(n={self.n}, t={self.capacity}, "
                f"w_max={self.w_max}, p_max={self.p_max})")


@dataclass(frozen=True)
class Solution:
    """A chosen subset of item indices with cached totals."""

    indices: frozenset
    total_weight: int
    total_profit: int

    @staticmethod
    def from_indices(instance: KnapsackInstance, indices: Iterable[int]) -> "Solution":
        idx = frozenset(int(i) for i in indices)
        w = sum(instance.items[i].weight for i in idx)
        p = sum(instance.items[i].profit for i in idx)
        return Solution(idx, w, p)

    def verify(self, instance: KnapsackInstance) -> bool:
        w = sum(instance.items[i].weight for i in self.indices)
        p = sum(instance.items[i].profit for i in self.indices)
        return w == self.total_weight and p == self.total_profit


EMPTY_SOLUTION = Solution(frozenset(), 0, 0)


class SeedCtx:
    """Deterministic splittable randomness context.

    Child streams are derived from ``(seed, path)`` via numpy's
    ``SeedSequence`` spawn keys, so identical seed and path always produce
    identical random choices, independent of call order elsewhere.
    """

    __slots__ = ("seed", "path")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed) & ((1 << 64) - 1)
        self.path = tuple(int(p) for p in path)

    def child(self, *steps: int) -> "SeedCtx":
        return SeedCtx(self.seed, self.path + tuple(steps))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(ss))

    def __repr__(self):
        return f"SeedCtx(seed={self.seed}, path={self.path})"


class MonotoneSeq:
    """An integer sequence over an index window with an absolute start
    index, a monotonicity tag, and explicit out-of-window sentinel
    semantics (+inf for min-plus contexts, -inf for max-plus).

    ``values`` may be a list of ints and float infinities or an encoded
    int64 array (see the module docstring); ``arr`` holds the read-only
    encoding and ``values`` decodes it.
    """

    __slots__ = ("start", "arr", "direction", "sentinel")

    def __init__(self, values, start: int = 0, direction: str = UNKNOWN,
                 sentinel=NEG_INF, validate: bool = True):
        if direction not in _DIRECTIONS:
            raise SeqError(f"bad direction {direction!r}")
        if sentinel not in (INF, NEG_INF):
            raise SeqError("sentinel must be +inf or -inf")
        self.start = int(start)
        self.arr = _encode(values)
        self.direction = direction
        self.sentinel = sentinel
        if validate and direction != UNKNOWN and \
                not _monotone(self.arr, direction):
            raise SeqError(f"values are not {direction}")

    # -- basic access ---------------------------------------------------

    @property
    def values(self) -> tuple:
        """The entries as ints, with float infinities for the sentinels."""
        vals = self.arr.tolist()
        for i in np.flatnonzero(~_finite(self.arr)):
            vals[i] = INF if vals[i] > 0 else NEG_INF
        return tuple(vals)

    def __len__(self):
        return len(self.arr)

    @property
    def stop(self) -> int:
        """One past the last valid absolute index."""
        return self.start + len(self.arr)

    def __getitem__(self, idx: int):
        """Read at an absolute index; out-of-window reads yield the sentinel."""
        off = idx - self.start
        if 0 <= off < len(self.arr):
            v = int(self.arr[off])
            if abs(v) == INT_INF:
                return INF if v > 0 else NEG_INF
            return v
        return self.sentinel

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if not isinstance(other, MonotoneSeq):
            return NotImplemented
        return self.start == other.start and \
            np.array_equal(self.arr, other.arr)

    def __repr__(self):
        shown = list(self.values[:8]) + (["..."] if len(self) > 8 else [])
        return (f"MonotoneSeq(start={self.start}, len={len(self)}, "
                f"{self.direction}, {shown})")

    def indices(self) -> range:
        return range(self.start, self.stop)

    def is_empty(self) -> bool:
        return len(self.arr) == 0

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Encoded entries at absolute indices lo..hi, sentinel outside."""
        fill = INT_INF if self.sentinel == INF else -INT_INF
        return _read_band(self.arr, self.start, lo, hi, fill)


def empty_seq(direction: str = NON_DECREASING, sentinel=NEG_INF) -> MonotoneSeq:
    return MonotoneSeq((), 0, direction, sentinel)


# ---------------------------------------------------------------------------
# Instance normalization


class InstanceError(ValueError):
    pass


@dataclass(frozen=True)
class NormalizeResult:
    """Outcome of :func:`normalize`.

    ``instance`` holds the residual items (empty when the answer is
    trivial); ``kept`` maps its item positions back to the original
    instance.  ``trivial_opt``/``trivial_solution`` are set when every
    residual item fits, in which case the residual instance is empty.
    """

    instance: KnapsackInstance
    kept: tuple
    trivial_opt: Optional[int] = None
    trivial_solution: Optional[Solution] = None

    @property
    def is_trivial(self) -> bool:
        return self.trivial_opt is not None


def normalize(instance: KnapsackInstance) -> NormalizeResult:
    """Drop items heavier than the capacity; detect the all-fit case.

    After this, either the answer is trivial (sum of residual profits) or
    the residual instance satisfies w_max <= t < n * w_max.
    """
    t = instance.capacity
    for it in instance.items:
        if not it.internal and (it.weight <= 0 or it.profit <= 0):
            raise InstanceError("items must have positive weight and profit")
    kept = tuple(i for i, it in enumerate(instance.items) if it.weight <= t)
    residual = [instance.items[i] for i in kept]
    sub = KnapsackInstance(residual, t)
    if sub.n == 0 or t >= sub.n * sub.w_max:
        sol = Solution.from_indices(instance, kept)
        return NormalizeResult(KnapsackInstance([], t), (), sub.total_profit(), sol)
    return NormalizeResult(sub, kept)


# ---------------------------------------------------------------------------
# Sequence operations


def _bound(x, rnd) -> int:
    """A value-interval end as an int that compares with every encoded
    entry the way ``x`` compares with the value it encodes."""
    if x == INF or x == NEG_INF:
        return INT_INF if x > 0 else -INT_INF
    return min(max(int(rnd(x)), 1 - INT_INF), INT_INF - 1)


def restrict(seq: MonotoneSeq, index_interval, value_interval) -> MonotoneSeq:
    """Maximal contiguous subarray with indices in ``index_interval`` and
    finite values in ``value_interval`` (both inclusive pairs).

    Requires a known monotone direction; runs two binary searches (which
    on a sorted window find the first and last entry in the value
    interval).  The result keeps absolute start coordinates.
    """
    if seq.direction == UNKNOWN:
        raise SeqError("restrict needs a monotone direction")
    ilo, ihi = index_interval
    vlo = _bound(value_interval[0], math.ceil)
    vhi = _bound(value_interval[1], math.floor)
    lo = max(int(math.ceil(ilo)), seq.start) - seq.start
    hi = min(int(math.floor(ihi)), seq.stop - 1) - seq.start
    if lo > hi:
        return empty_seq(seq.direction, seq.sentinel)
    vals = seq.arr[lo:hi + 1]
    # sentinels sort as the infinities they encode
    if seq.direction == NON_DECREASING:
        first = lo + int(np.searchsorted(vals, vlo, "left"))
        last = lo + int(np.searchsorted(vals, vhi, "right")) - 1
    else:
        first = lo + int(np.searchsorted(-vals, -vhi, "left"))
        last = lo + int(np.searchsorted(-vals, -vlo, "right")) - 1
    if first > last:
        return empty_seq(seq.direction, seq.sentinel)
    # infinities never lie in a finite value interval; monotone order
    # puts them at the ends, so trim them off
    fin = np.flatnonzero(_finite(seq.arr[first:last + 1]))
    if not len(fin):
        return empty_seq(seq.direction, seq.sentinel)
    last = first + int(fin[-1])
    first += int(fin[0])
    return MonotoneSeq(seq.arr[first:last + 1], seq.start + first,
                       seq.direction, seq.sentinel, validate=False)


def prefix_maxima(seq) -> MonotoneSeq:
    """Running maxima; the output is non-decreasing by construction."""
    if not isinstance(seq, MonotoneSeq):
        seq = MonotoneSeq(seq)
    return MonotoneSeq(np.maximum.accumulate(seq.arr), seq.start,
                       NON_DECREASING, seq.sentinel, validate=False)


def negate_shift(seq: MonotoneSeq, m: int) -> MonotoneSeq:
    """Entrywise ``m - value``; flips direction and sentinel. Involution."""
    arr = seq.arr
    fin = _finite(arr)
    bad = fin & ((arr < 0) | (arr > m))
    if bad.any():
        raise SeqError(f"entry {arr[bad][0]} outside [0, {m}]")
    sentinel = NEG_INF if seq.sentinel == INF else INF
    return MonotoneSeq(np.where(fin, m - arr, -arr), seq.start,
                       _flipped(seq.direction), sentinel, validate=False)


def reverse_index(seq: MonotoneSeq) -> MonotoneSeq:
    """Reverse the index axis: entry at absolute i moves to start+stop-1-i.

    Composing twice is the identity; non-decreasing and non-increasing
    swap roles.
    """
    return MonotoneSeq(seq.arr[::-1], seq.start, _flipped(seq.direction),
                       seq.sentinel, validate=False)
