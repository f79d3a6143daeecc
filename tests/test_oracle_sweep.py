"""Seeded oracle sweep: the randomized routes against Bellman on 10^4
tiny instances, each solved by one route in turn (2000 per route), where
equal ratios and duplicate items make ties in the ratio order, the route
rule and the boosting loops common."""

import numpy as np

from tropsack import Item, KnapsackInstance, SeedCtx
from tropsack.bellman import bellman_profit_dp
from tropsack.solve import solve

ALGOS = ("t_sqrt_p", "opt_sqrt_w", "cuberoot", "cuberoot_sym", "auto")
COUNT = 10_000


def sweep_instance(rng):
    """n in 10..16 items with w, p <= 8: a random item, a copy of an
    earlier one, or a multiple of the instance's one repeated ratio."""
    a, b = (int(x) for x in rng.integers(1, 5, 2))
    items = []
    for _ in range(int(rng.integers(10, 17))):
        kind = rng.integers(3) if items else 0
        if kind == 1:
            items.append(items[int(rng.integers(len(items)))])
        elif kind == 2:
            k = int(rng.integers(1, min(8 // a, 8 // b) + 1))
            items.append(Item(k * a, k * b))
        else:
            items.append(Item(int(rng.integers(1, 9)),
                              int(rng.integers(1, 9))))
    total = sum(it.weight for it in items)
    return KnapsackInstance(items, int(rng.integers(1, total)))


def test_every_route_matches_bellman_on_tiny_instances():
    rng = np.random.default_rng(20240405)
    bad = []
    for trial in range(COUNT):
        inst = sweep_instance(rng)
        want = int(bellman_profit_dp(inst, inst.capacity)[0][inst.capacity])
        algo = ALGOS[trial % len(ALGOS)]
        rep = solve(inst, algo=algo, seed=SeedCtx(trial))
        sol = rep.solution
        if rep.opt != want or sol.total_profit != want or \
                sol.total_weight > inst.capacity or not sol.verify(inst):
            bad.append((trial, algo, rep.opt, want))
    assert not bad, bad[:10]
