"""Tests of the benchmark itself: its references, its checks, its seeded
inputs and its tracing.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

tropsack = run.load_library()


def brute_knapsack(w, p, t):
    best = 0
    for r in range(len(w) + 1):
        for sub in itertools.combinations(range(len(w)), r):
            if sum(w[i] for i in sub) <= t:
                best = max(best, sum(p[i] for i in sub))
    return best


def brute_minplus(a, b):
    out = [None] * (len(a) + len(b) - 1)
    for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
        if out[i + j] is None or x + y < out[i + j]:
            out[i + j] = x + y
    return out


@pytest.mark.parametrize("trial", range(40))
def test_knapsack_reference_matches_enumeration(trial):
    rng = np.random.default_rng([7, trial])
    n = int(rng.integers(0, 9))
    w = rng.integers(1, 12, n).tolist()
    p = rng.integers(1, 12, n).tolist()
    t = int(rng.integers(0, sum(w) + 2))
    assert reference.knapsack_opt(w, p, t) == brute_knapsack(w, p, t)


@pytest.mark.parametrize("trial", range(40))
def test_minplus_reference_matches_enumeration(trial):
    rng = np.random.default_rng([8, trial])
    a = np.sort(rng.integers(0, 9, int(rng.integers(1, 7))))
    b = np.sort(rng.integers(0, 9, int(rng.integers(1, 7))))
    assert reference.minplus(a, b).tolist() == brute_minplus(a.tolist(),
                                                             b.tolist())


def test_knapsack_check_rejects_corrupted_answers():
    w, p, t = [3, 4, 5, 2], [4, 5, 7, 1], 9
    opt = brute_knapsack(w, p, t)           # 12: items 1 and 2
    good = [1, 2]
    assert reference.knapsack_problems(w, p, t, opt, good, opt) == []
    corrupted = [
        (opt + 1, good),        # wrong optimum
        (opt, [1, 2, 2]),       # repeated item
        (opt, [1, 4]),          # index out of range
        (opt, [0, 1, 3]),       # profit below the optimum
        (opt, [0, 1, 2]),       # over capacity
    ]
    for got, witness in corrupted:
        assert reference.knapsack_problems(w, p, t, got, witness, opt), \
            (got, witness)


def test_conv_check_rejects_corrupted_outputs():
    a, b, m = np.array([0, 1, 1, 3]), np.array([0, 2, 2]), 3
    want = reference.minplus(a, b)
    assert reference.conv_problems(a, b, m, want, want) == []
    one_off = want.copy()
    one_off[2] += 1
    decreasing = want.copy()
    decreasing[0] = decreasing[1] + 1
    too_big = want.copy()
    too_big[-1] = 2 * m + 1
    for got in (want[:-1], one_off, decreasing, too_big):
        assert reference.conv_problems(a, b, m, got, want), got


def _input_digest(name, seed):
    code = (
        "import sys, hashlib; sys.path[:0] = [sys.argv[1]]\n"
        "import run, workloads\n"
        "lib = run.load_library()\n"
        "wl = workloads.WORKLOADS[sys.argv[2]](lib, int(sys.argv[3]))\n"
        "h = hashlib.sha256()\n"
        "for ops in wl.rounds:\n"
        "    for op in ops:\n"
        "        h.update(repr((op.key, op.solver_seed)).encode())\n"
        "        for arr in op.args[1:3]:\n"
        "            h.update(arr.tobytes())\n"
        "print(h.hexdigest())\n")
    out = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(BENCH), name, str(seed)],
            capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": hash_seed, "PATH": ""})
        out.append(proc.stdout.strip())
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    first = _input_digest(name, 5)
    assert first[0] == first[1]
    assert _input_digest(name, 6)[0] != first[0]


def test_every_declared_per_layer_metric_is_computed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    rec = layers.Recorder()
    wl = workloads.WORKLOADS["engine-rect"](tropsack, 1)
    computed = {**rec.layer_metrics(1), **run.baseline_metrics(wl, {}, 1)}
    assert {m["name"] for m in spec["per_layer"]} == set(computed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_alone(name):
    wl = workloads.WORKLOADS[name](tropsack, 3)
    op = wl.rounds[1][0]
    plain = wl.digest(wl.run(op))
    rec = layers.Recorder()
    originals = {a: getattr(sys.modules[m], a) for m, a, _ in layers.BOUNDARIES}
    rec.install()
    try:
        out = wl.run(op)
    finally:
        rec.uninstall()
    assert wl.check(op, out) == []
    assert wl.digest(out) == plain
    assert sum(rec.calls.values()) > 0
    for mod, attr, _ in layers.BOUNDARIES:
        assert getattr(sys.modules[mod], attr) is originals[attr]
