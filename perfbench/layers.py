"""Per-layer spans and counters, recorded from outside the library.

``install`` wraps the function at each layer boundary and swaps the
wrapper in for every reference to that function object held by a
tropsack module: module attributes (so ``from .x import f`` copies are
covered) and module-level dicts such as the solver tables in
``tropsack.solve``.  The wrappers pass arguments and results through
untouched, so a traced run computes exactly what an untraced one does.

Each call opens a span.  A span's self time is its duration minus the
durations of the spans opened directly inside it; counts are computed
from the arguments or the result at the boundary.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SOLVERS = ("solve_balanced_tsqrtp", "solve_balanced_cuberoot",
           "solve_balanced_optsqrtw", "solve_balanced_cuberoot_sym")
ALGOS = ("bellman", "t_sqrt_p", "opt_sqrt_w", "cuberoot", "cuberoot_sym")


def _cells_dp(counts, parent, args, kwargs, out):
    instance, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
    counts["bellman.dp_cells"] += instance.n * (k + 1)


def _cells_kernel(counts, parent, args, kwargs, out):
    counts["convolution.naive_kernel_cells"] += len(args[0]) * len(args[1])


def _fft_points(counts, parent, args, kwargs, out):
    counts["convolution.fft_points"] += len(args[0]) + len(args[1]) - 1


def _solve_report(counts, parent, args, kwargs, out):
    counts["solve.attempts"] += out.meta.get("attempts", 1)
    counts["solve.medium_fallbacks"] += \
        out.meta.get("medium_fallback") == "bellman"
    counts[f"solve.ran_{out.algo}"] += 1


def _delegation(counts, parent, args, kwargs, out):
    if parent in SOLVERS:
        counts["balanced.delegations"] += 1


def _merge(counts, parent, args, kwargs, out):
    counts["bounded.merge_calls"] += 1


def _engine_call(counts, parent, args, kwargs, out):
    counts["convolution.engine_calls"] += 1


def _prime_draw(counts, parent, args, kwargs, out):
    counts["convolution.prime_draws"] += 1


# (module, function, counter).  _class_split_array is the residue split
# the level pipeline runs; the public residue_split is a debug view that
# the pipeline never calls.
BOUNDARIES = (
    ("tropsack.solve", "solve", _solve_report),
    ("tropsack.core", "normalize", None),
    ("tropsack.core", "restrict", None),
    ("tropsack.balancing", "balance_reduce", None),
    ("tropsack.balancing", "combine_balanced", None),
    *(("tropsack.balanced", name, _delegation) for name in SOLVERS),
    ("tropsack.bounded", "bc_profit_bounded", None),
    ("tropsack.bounded", "bc_weight_bounded", None),
    ("tropsack.bounded", "merge_maxplus", _merge),
    ("tropsack.bounded", "merge_minplus", _merge),
    ("tropsack.windowed", "banded_profit_window", None),
    ("tropsack.windowed", "banded_weight_window", None),
    ("tropsack.windowed", "combine_boosted", None),
    ("tropsack.bellman", "bellman_profit_dp", _cells_dp),
    ("tropsack.bellman", "bellman_weight_dp", _cells_dp),
    ("tropsack.trace", "reconstruct_items", None),
    ("tropsack.convolution.naive", "minplus_naive", _cells_kernel),
    ("tropsack.convolution.naive", "maxplus_naive", _cells_kernel),
    ("tropsack.convolution.engine", "monotone_minplus_rect", _engine_call),
    ("tropsack.convolution.engine", "monotone_maxplus_rect", None),
    ("tropsack.convolution.engine", "_class_split_array", None),
    ("tropsack.convolution.engine", "sample_prime", _prime_draw),
    ("tropsack.convolution.exactpoly", "exact_convolve", _fft_points),
)


class Recorder:
    """Span statistics per wrapped function, plus boundary counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # per open span: [name, seconds in child spans]
        self._undo = []
        self.paused = False

    def wrap(self, name, fn, counter):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
            if counter is not None:
                counter(self.counts, parent, args, kwargs, out)
            return out

        return span

    def install(self):
        """Swap a span wrapper in for every boundary function."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and
                   (key == "tropsack" or key.startswith("tropsack."))]
        for mod_name, attr, counter in BOUNDARIES:
            fn = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(attr, fn, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((vars(mod), key, fn))
                        setattr(mod, key, wrapper)
                    elif type(value) is dict:
                        for dkey, dval in list(value.items()):
                            if dval is fn:
                                self._undo.append((value, dkey, fn))
                                value[dkey] = wrapper

    def uninstall(self):
        for table, key, fn in reversed(self._undo):
            table[key] = fn
        self._undo.clear()

    def layer_metrics(self, ops: int) -> dict:
        """Every per-layer metric, per operation, in ms or counts."""
        tot, own, cnt = self.total, self.self_time, self.counts

        def ms(*values):
            return 1000.0 * sum(values) / ops

        engine_calls = cnt["convolution.engine_calls"]
        out = {
            "solve.self_ms": ms(own["solve"]),
            "solve.attempts": cnt["solve.attempts"] / ops,
            "solve.medium_fallbacks": cnt["solve.medium_fallbacks"] / ops,
        }
        for algo in ALGOS:
            out[f"solve.ran_{algo}"] = cnt[f"solve.ran_{algo}"] / ops
        out.update({
            "core.normalize_ms": ms(tot["normalize"]),
            "core.restrict_ms": ms(tot["restrict"]),
            "balancing.balance_reduce_ms": ms(tot["balance_reduce"]),
            "balancing.combine_balanced_ms": ms(tot["combine_balanced"]),
            "balanced.solver_self_ms": ms(*(own[s] for s in SOLVERS)),
            "balanced.delegations": cnt["balanced.delegations"] / ops,
            "bounded.bc_ms": ms(tot["bc_profit_bounded"],
                                tot["bc_weight_bounded"]),
            "bounded.merge_calls": cnt["bounded.merge_calls"] / ops,
            "windowed.banded_ms": ms(tot["banded_profit_window"],
                                     tot["banded_weight_window"]),
            "windowed.combine_boosted_ms": ms(tot["combine_boosted"]),
            "bellman.dp_ms": ms(tot["bellman_profit_dp"],
                                tot["bellman_weight_dp"]),
            "bellman.dp_cells": cnt["bellman.dp_cells"] / ops,
            "trace.reconstruct_ms": ms(tot["reconstruct_items"]),
            "convolution.naive_kernel_ms": ms(tot["minplus_naive"],
                                              tot["maxplus_naive"]),
            "convolution.naive_kernel_cells":
                cnt["convolution.naive_kernel_cells"] / ops,
            "convolution.engine_calls": engine_calls / ops,
            "convolution.engine_self_ms": ms(own["monotone_minplus_rect"],
                                             own["monotone_maxplus_rect"]),
            "convolution.fft_ms": ms(tot["exact_convolve"]),
            "convolution.fft_points": cnt["convolution.fft_points"] / ops,
            "convolution.residue_split_ms": ms(tot["_class_split_array"]),
            "convolution.prime_draws":
                cnt["convolution.prime_draws"] / engine_calls
                if engine_calls else 0.0,
        })
        return out

    def raw(self) -> dict:
        return {name: {"calls": self.calls[name],
                       "total_ms": 1000.0 * self.total[name],
                       "self_ms": 1000.0 * self.self_time[name]}
                for name in sorted(self.calls)}
