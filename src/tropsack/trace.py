"""Provenance nodes for solver outputs.

Every sequence a solver reports carries a trace describing how each entry
was produced: a DP table with taken-bits, a best-single-item witness
array, a tropical merge of two child sequences, or an entrywise min/max
over repeated runs.  Reconstruction walks the tree: at a merge it scans
the child windows for a split attaining the parent value (no witness is
stored at merge time, which is what keeps the merges subquadratic), at a
leaf it walks the stored table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import MonotoneSeq, _finite


class ReconstructionError(RuntimeError):
    """An entry's provenance does not add up; signals an internal bug."""


@dataclass
class EmptySetNode:
    """Every entry is the empty selection (value 0 / weight 0)."""

    def reconstruct(self, k, value):
        if value not in (0,):
            raise ReconstructionError(f"empty node asked for value {value}")
        return []


@dataclass
class ConstItemsNode:
    ids: tuple
    value: int

    def reconstruct(self, k, value):
        if value != self.value:
            raise ReconstructionError("fixed-set node value mismatch")
        return list(self.ids)


@dataclass
class ItemWitnessNode:
    """Best-single-item curves: one optional item id per entry."""

    start: int
    witness: np.ndarray  # item id or -1 per entry

    def reconstruct(self, k, value):
        off = k - self.start
        if not (0 <= off < len(self.witness)):
            raise ReconstructionError("index outside witness window")
        wid = int(self.witness[off])
        return [] if wid < 0 else [wid]


@dataclass
class MergeNode:
    """Tropical convolution of two witnessed sequences."""

    op: str  # 'max' or 'min'
    lseq: MonotoneSeq
    ltrace: object
    rseq: MonotoneSeq
    rtrace: object

    def reconstruct(self, k, value):
        # the first left index i whose split (i, k - i) attains the value
        left = self.lseq.arr
        right = self.rseq.window(k - self.lseq.stop + 1,
                                 k - self.lseq.start)[::-1]
        hits = np.flatnonzero(_finite(left) & _finite(right) &
                              (left + right == value))
        if not len(hits):
            raise ReconstructionError(f"no split found at index {k}")
        h = int(hits[0])
        i = self.lseq.start + h
        return self.ltrace.reconstruct(i, int(left[h])) + \
            self.rtrace.reconstruct(k - i, int(right[h]))


@dataclass
class ChooseNode:
    """Entrywise min/max over repeated runs; pick any run attaining it.

    ``extend`` reads indices beyond a run's window as its last value
    (budget-style curves stay constant once the items run out)."""

    children: list  # [(seq, trace)]
    extend: bool = False

    def reconstruct(self, k, value):
        for seq, trace in self.children:
            if seq[k] == value:
                return trace.reconstruct(k, value)
            if self.extend and k >= seq.stop and len(seq) and \
                    seq[seq.stop - 1] == value:
                return trace.reconstruct(seq.stop - 1, value)
        raise ReconstructionError(f"no run attains value {value} at {k}")


@dataclass
class PadNode:
    """Constant right-extension of a budget curve beyond its last index."""

    child_stop: int
    child: object

    def reconstruct(self, k, value):
        return self.child.reconstruct(min(k, self.child_stop - 1), value)


@dataclass
class ProfitDPNode:
    """Row-ordered taken-bits of the classic profit DP."""

    weights: np.ndarray
    profits: np.ndarray
    ids: np.ndarray
    taken: np.ndarray  # (n, k+1) bool

    def reconstruct(self, k, value):
        j = int(k)
        out = []
        rem = value
        for i in range(len(self.weights) - 1, -1, -1):
            if 0 <= j < self.taken.shape[1] and self.taken[i, j]:
                out.append(int(self.ids[i]))
                j -= int(self.weights[i])
                rem -= int(self.profits[i])
        if rem != 0 or j < 0:
            raise ReconstructionError("profit DP walk did not close")
        return out


@dataclass
class WeightDPNode:
    """Row-ordered taken-bits of the profit-indexed weight DP."""

    weights: np.ndarray
    profits: np.ndarray
    ids: np.ndarray
    taken: np.ndarray  # (n, k+1) bool

    def reconstruct(self, k, value):
        v = max(int(k), 0)
        out = []
        rem = value
        for i in range(len(self.weights) - 1, -1, -1):
            if v > 0 and self.taken[i, v]:
                out.append(int(self.ids[i]))
                v = max(0, v - int(self.profits[i]))
                rem -= int(self.weights[i])
        if rem != 0 or v != 0:
            raise ReconstructionError("weight DP walk did not close")
        return out


@dataclass
class BandDPNode:
    """Banded randomized DP: per-row taken bits over sliding windows.

    kind='profit': rows maximize profit over weight indices.
    kind='weight': rows minimize weight over profit indices.
    ``pre_final`` is the last DP row before the monotonizing pass, used to
    locate the exact witness index; ``all_ids`` covers the all-items edge
    case of the profit variant.
    """

    kind: str
    order: np.ndarray       # permuted item positions, row r uses order[r-1]
    weights: np.ndarray
    profits: np.ndarray
    ids: np.ndarray
    band_lo: np.ndarray     # (n+1,) first index of each row's band
    taken: list             # row r: bool array over its band (rows 1..n)
    pre_final: MonotoneSeq
    all_ids: Optional[tuple] = None
    all_value: Optional[int] = None

    def reconstruct(self, k, value):
        j = self._locate(k, value)
        if j is None:
            if self.all_ids is not None and value == self.all_value:
                return list(self.all_ids)
            raise ReconstructionError("band DP witness index not found")
        out = []
        for r in range(len(self.order), 0, -1):
            pos = int(self.order[r - 1])
            lo = int(self.band_lo[r])
            off = j - lo
            row = self.taken[r - 1]
            if 0 <= off < len(row) and row[off]:
                out.append(int(self.ids[pos]))
                j -= int(self.weights[pos]) if self.kind == "profit" \
                    else int(self.profits[pos])
        if j != 0:
            raise ReconstructionError("band DP walk did not close")
        return out

    def _locate(self, k, value):
        # the monotonizing pass moved `value` from the nearest index
        # at-or-before (profit) / at-or-after (weight) k
        hits = self.pre_final.start + \
            np.flatnonzero(self.pre_final.arr == value)
        if self.kind == "profit":
            hits = hits[hits <= k]
            return int(hits[-1]) if len(hits) else None
        hits = hits[hits >= k]
        return int(hits[0]) if len(hits) else None


@dataclass
class FreeItemsProfitNode:
    """Zero-weight items ride along in every entry: values are larger by
    their total profit."""

    base: int
    free_ids: tuple
    child: object

    def reconstruct(self, k, value):
        return list(self.free_ids) + self.child.reconstruct(k, value - self.base)


@dataclass
class FreeItemsWeightNode:
    """Zero-weight items shift the profit axis of a weight curve."""

    base: int
    free_ids: tuple
    child: object

    def reconstruct(self, k, value):
        if k <= self.base:
            if value != 0:
                raise ReconstructionError("free-profit prefix must cost 0")
            return list(self.free_ids)
        return list(self.free_ids) + self.child.reconstruct(k - self.base,
                                                            value)


@dataclass
class ValueOffsetNode:
    """Child values are larger by ``offset`` (e.g. an always-taken dummy
    item); negative ids mark internal items and are stripped."""

    offset: int
    child: object

    def reconstruct(self, k, value):
        ids = self.child.reconstruct(k, value + self.offset)
        return [i for i in ids if i >= 0]


@dataclass
class WeightWindowAsProfitNode:
    """Reads a profit entry derived from a weight-sequence window:
    entry value v at capacity k means the weight curve paid wseq[v+offset]
    <= k for profit index v+offset."""

    wseq: object
    wtrace: object
    offset: int

    def reconstruct(self, k, value):
        if value == 0:
            return []
        v = value + self.offset
        w = self.wseq[v]
        if math.isinf(w) or w > k:
            raise ReconstructionError("derived profit entry inconsistent")
        ids = self.wtrace.reconstruct(v, w)
        return [i for i in ids if i >= 0]


def reconstruct_items(trace, k: int, value) -> list:
    """Item ids realizing ``value`` at absolute index ``k``."""
    if math.isinf(value):
        raise ReconstructionError("cannot reconstruct an infinite entry")
    return trace.reconstruct(k, value)
