"""Randomized banded dynamic programs.

A random permutation concentrates the partial weight (or profit) of any
fixed solution around its linear interpolation, so each DP row only needs
a band of width ~ 2*(ell + 4*sqrt(t*w_max*log(n*ell))) around the
interpolated center.  Output is a window of the profit (weight) sequence,
correct with probability at least 1 - 1/n per run; callers boost by
entrywise max (min) over repetitions.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .core import (INF, INT_INF, KnapsackInstance, MonotoneSeq, NEG_INF,
                   NON_DECREASING, SeedCtx, UNKNOWN, _saturate, _read_band)
from .trace import BandDPNode, ChooseNode, EmptySetNode


def _delta(ell: int, scale: int, n: int) -> int:
    logterm = math.log(max(n * ell, 2))
    return ell + math.ceil(4.0 * math.sqrt(max(scale, 0) * logterm))


class Witnessed(tuple):
    """A ``(seq, trace)`` pair that also says whether ``seq`` is exact:
    the curve that every run of the same computation would reach.  Monte
    Carlo runs stay entrywise at or below (max-plus) or above (min-plus)
    that curve, so once a run is exact, later runs cannot win an entry.
    """

    def __new__(cls, seq, trace, exact: bool = False):
        pair = super().__new__(cls, (seq, trace))
        pair.exact = exact
        return pair


def boost_runs(run, boost: int, maximize: bool):
    """Combine ``run(0)``, ``run(1)``, ... (each a :class:`Witnessed`) by
    :func:`combine_boosted`, stopping after the first exact run or after
    ``boost`` runs.  Returns the combined Witnessed and the runs made."""
    runs = []
    for r in range(boost):
        runs.append(run(r))
        if runs[-1].exact:
            break
    seq, tr = combine_boosted(runs, maximize)
    return Witnessed(seq, tr, runs[-1].exact), len(runs)


def combine_boosted(runs, maximize: bool):
    """Combine (seq, trace) runs by entrywise max (min) over the union
    window.  Max-plus runs are budget curves, constant once their items
    run out, so past its top index a run reads as its last value."""
    if len(runs) == 1:
        return runs[0]
    start = min(s.start for s, _ in runs)
    stop = max(s.stop for s, _ in runs)
    rows = []
    for s, _ in runs:
        row = s.window(start, stop - 1)
        if maximize and len(s):
            row[s.stop - start:] = s.arr[-1]
        rows.append(row)
    fold = np.maximum if maximize else np.minimum
    seq = MonotoneSeq(fold.reduce(rows, axis=0), start, NON_DECREASING,
                      NEG_INF if maximize else INF, validate=False)
    return seq, ChooseNode(list(runs), extend=maximize)


def banded_profit_window(instance: KnapsackInstance, t: int, ell: int,
                       seed: SeedCtx, boost: int = 1, ids=None
                       ) -> Tuple[MonotoneSeq, object]:
    """Profit sequence on [t-ell, t+ell] (clamped at 0), Monte Carlo."""
    if not (2 <= ell <= t):
        raise ValueError("need 2 <= ell <= t")
    lo_out, hi_out = max(0, t - ell), t + ell
    if instance.n == 0:
        seq = MonotoneSeq(np.zeros(hi_out - lo_out + 1, dtype=np.int64),
                          lo_out, NON_DECREASING, NEG_INF, validate=False)
        return Witnessed(seq, EmptySetNode(), True)
    return boost_runs(
        lambda r: _banded_profit_once(instance, t, ell, seed.child(r), ids),
        boost, maximize=True)[0]


def _banded_profit_once(instance, t, ell, seed, ids):
    w = instance.weights
    p = instance.profits
    idarr = np.arange(instance.n) if ids is None else np.asarray(ids)
    n = instance.n
    rng = seed.generator()
    sigma = rng.permutation(n)
    delta = _delta(ell, t * instance.w_max, n)
    hi_cap = t + ell
    band_lo = np.zeros(n + 1, dtype=np.int64)
    prev = np.full(1, 0, dtype=np.int64)  # row 0: only index 0 = 0
    prev_lo = 0
    taken_rows = []
    reach = 0  # the heaviest weight row r can reach
    exact = True
    for r in range(1, n + 1):
        c = (r * t) // n
        lo = max(0, c - delta)
        hi = min(c + delta, hi_cap)
        pos = int(sigma[r - 1])
        wi, pi = int(w[pos]), int(p[pos])
        reach += wi
        # a band holding every reachable index up to the cap is the
        # exact DP's row
        exact = exact and lo == 0 and hi >= min(reach, hi_cap)
        stay = _read_band(prev, prev_lo, lo, hi, -INT_INF)
        take = _saturate(_read_band(prev, prev_lo, lo - wi, hi - wi,
                                    -INT_INF) + pi)
        cur = np.maximum(stay, take)
        taken_rows.append(take > stay)
        band_lo[r] = lo
        prev, prev_lo = cur, lo
    pre_final = MonotoneSeq(prev, prev_lo, UNKNOWN, NEG_INF)
    final = prev.copy()
    np.maximum.accumulate(final, out=final)
    w_all = int(w.sum())
    p_all = int(p.sum())
    all_applied = False
    if w_all <= prev_lo + len(final) - 1:
        j0 = max(w_all, prev_lo)
        final[j0 - prev_lo:] = p_all
        all_applied = True
    lo_out, hi_out = max(0, t - ell), t + ell
    vals = _read_band(final, prev_lo, lo_out, hi_out, -INT_INF)
    seq = MonotoneSeq(vals, lo_out, NON_DECREASING, NEG_INF, validate=False)
    node = BandDPNode("profit", sigma, w, p, idarr, band_lo, taken_rows,
                      pre_final,
                      tuple(int(i) for i in idarr) if all_applied else None,
                      p_all if all_applied else None)
    return Witnessed(seq, node, exact)


def banded_weight_window(instance: KnapsackInstance, v: int, ell: int,
                       seed: SeedCtx, boost: int = 1, ids=None
                       ) -> Tuple[MonotoneSeq, object]:
    """Weight sequence on [v-ell, v+ell] (clamped at 0), Monte Carlo."""
    if not (2 <= ell <= v):
        raise ValueError("need 2 <= ell <= v")
    lo_out, hi_out = max(0, v - ell), v + ell
    if instance.n == 0:
        vals = np.full(hi_out - lo_out + 1, INT_INF, dtype=np.int64)
        if lo_out == 0:
            vals[0] = 0
        seq = MonotoneSeq(vals, lo_out, NON_DECREASING, INF, validate=False)
        return Witnessed(seq, EmptySetNode(), True)
    return boost_runs(
        lambda r: _banded_weight_once(instance, v, ell, seed.child(r), ids),
        boost, maximize=False)[0]


def _banded_weight_once(instance, v, ell, seed, ids):
    w = instance.weights
    p = instance.profits
    idarr = np.arange(instance.n) if ids is None else np.asarray(ids)
    n = instance.n
    rng = seed.generator()
    sigma = rng.permutation(n)
    delta = _delta(ell, v * instance.p_max, n)
    band_lo = np.zeros(n + 1, dtype=np.int64)
    prev = np.zeros(1, dtype=np.int64)
    prev_lo = 0
    taken_rows = []
    reach = 0  # the largest profit row r can reach
    exact = True
    for r in range(1, n + 1):
        c = (r * v) // n
        lo = max(0, c - delta)
        # no upper clip: the suffix-min pass pulls weights down from
        # profit indices beyond the output window
        hi = c + delta
        pos = int(sigma[r - 1])
        wi, pi = int(w[pos]), int(p[pos])
        reach += pi
        exact = exact and lo == 0 and hi >= reach
        stay = _read_band(prev, prev_lo, lo, hi, INT_INF)
        take = _saturate(_read_band(prev, prev_lo, lo - pi, hi - pi,
                                    INT_INF) + wi)
        cur = np.minimum(stay, take)
        taken_rows.append(take < stay)
        band_lo[r] = lo
        prev, prev_lo = cur, lo
    pre_final = MonotoneSeq(prev, prev_lo, UNKNOWN, INF)
    final = prev.copy()
    final = np.minimum.accumulate(final[::-1])[::-1]
    lo_out, hi_out = max(0, v - ell), v + ell
    vals = _read_band(final, prev_lo, lo_out, hi_out, INT_INF)
    if lo_out == 0:
        vals[0] = 0
    seq = MonotoneSeq(vals, lo_out, NON_DECREASING, INF, validate=False)
    node = BandDPNode("weight", sigma, w, p, idarr, band_lo, taken_rows,
                      pre_final)
    return Witnessed(seq, node, exact)
