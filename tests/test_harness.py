import json
import math
import os
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

import tropsack
from tropsack import Item, KnapsackInstance, SeedCtx
from tropsack.bellman import bellman_profit_dp
from tropsack.convolution import DeadlineExceeded
from tropsack.core import normalize
from tropsack.harness import (BudgetExhausted, InstanceFormatError,
                              brute_force_opt, gen_balanced_instance,
                              gen_random_instance, instance_digest,
                              monte_carlo_budget, parse_instance_text,
                              run_benchmark, write_instance_text)
from tropsack.harness.bench import BenchCase, fit_loglog_slope
from tropsack.harness.cli import main as cli_main


class TestInstanceFormat:
    def test_parse_example(self):
        inst = parse_instance_text("2 4\n2 3\n3 4\n")
        assert inst.n == 2 and inst.capacity == 4
        assert (inst.items[0].weight, inst.items[0].profit) == (2, 3)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            inst = gen_random_instance(int(rng.integers(0, 20)), 30, 30,
                                       int(rng.integers(0, 99)),
                                       SeedCtx(trial))
            again = parse_instance_text(write_instance_text(inst))
            assert again.items == inst.items
            assert again.capacity == inst.capacity

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance_text("1 4\n0 3\n")
        assert err.value.code == "nonpositive_value"

    def test_count_mismatch(self):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance_text("2 4\n1 1\n")
        assert err.value.code == "count_mismatch"

    def test_comments_ignored(self):
        inst = parse_instance_text("# fixture\n1 9\n2 3  # item\n")
        assert inst.n == 1


class TestGenerators:
    def test_deterministic(self):
        a = gen_random_instance(9, 9, 9, 30, SeedCtx(5))
        b = gen_random_instance(9, 9, 9, 30, SeedCtx(5))
        assert a.items == b.items

    def test_distinct_seeds_distinct_digests(self):
        digests = {instance_digest(gen_random_instance(12, 9, 9, 30,
                                                       SeedCtx(s)))
                   for s in (1, 2, 3)}
        assert len(digests) == 3

    def test_empty(self):
        assert gen_random_instance(0, 5, 5, 5, SeedCtx(0)).n == 0

    def test_balanced_ratio_check(self):
        from tropsack.bellman import greedy_upper_bound
        passed = 0
        for s in range(100):
            inst = gen_balanced_instance(30, 20, 25, SeedCtx(s))
            res = normalize(inst)
            if res.is_trivial:
                continue
            sub = res.instance
            ratio = (sub.capacity / sub.w_max) / \
                (greedy_upper_bound(sub) / sub.p_max)
            assert 1 / 8 <= ratio <= 8
            passed += 1
        assert passed >= 90

    def test_balanced_degenerate_n1(self):
        assert gen_balanced_instance(1, 5, 5, SeedCtx(0)).n == 1


class TestBruteForce:
    def test_example(self):
        inst = KnapsackInstance([Item(2, 3), Item(3, 4)], 4)
        opt, sol = brute_force_opt(inst)
        assert opt == 4 and sol.total_profit == 4

    def test_empty(self):
        assert brute_force_opt(KnapsackInstance([], 5))[0] == 0

    def test_meet_in_middle_agrees(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            inst = gen_random_instance(int(rng.integers(21, 24)), 15, 15,
                                       int(rng.integers(20, 150)),
                                       SeedCtx(trial))
            opt, sol = brute_force_opt(inst)
            seq, _ = bellman_profit_dp(inst, inst.capacity)
            assert opt == seq[inst.capacity]
            assert sol.total_profit == opt
            assert sol.total_weight <= inst.capacity

    def test_agrees_with_bellman_small(self):
        rng = np.random.default_rng(2)
        for trial in range(300):
            inst = gen_random_instance(int(rng.integers(0, 15)), 9, 9,
                                       int(rng.integers(0, 40)),
                                       SeedCtx(500 + trial))
            opt, _ = brute_force_opt(inst)
            seq, _ = bellman_profit_dp(inst, inst.capacity)
            assert opt == seq[inst.capacity]

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_opt(gen_random_instance(26, 5, 5, 10, SeedCtx(0)))


class TestBudget:
    def test_infinite_budget_passthrough(self):
        calls = []

        def op(seed, deadline):
            calls.append(deadline)
            return 42

        assert monte_carlo_budget(op, 0.001, SeedCtx(0),
                                  budget_factor=math.inf) == 42
        assert calls == [None]

    def test_completes_within_default(self):
        def op(seed, deadline):
            return "done"

        assert monte_carlo_budget(op, 1.0, SeedCtx(0)) == "done"

    def test_exhaustion_surfaces(self):
        def op(seed, deadline):
            raise DeadlineExceeded("too slow")

        with pytest.raises(BudgetExhausted):
            monte_carlo_budget(op, 1e-9, SeedCtx(0), budget_factor=1.0,
                               n_hint=4)

    def test_engine_honors_deadline(self):
        from tropsack.core import MonotoneSeq, NON_DECREASING
        from tropsack.convolution import monotone_minplus_rect
        rng = np.random.default_rng(3)
        vals = np.sort(rng.integers(0, 2000, 1500))
        a = MonotoneSeq([int(v) for v in vals], 0, NON_DECREASING)
        with pytest.raises(DeadlineExceeded):
            monotone_minplus_rect(a, a, 2000, SeedCtx(0), method="levels",
                                  deadline=time.monotonic() - 1)


class TestBench:
    def test_empty_suite(self):
        summary = run_benchmark([], SeedCtx(0))
        assert summary.reports == [] and summary.slope is None

    def test_slope_fit(self):
        sizes = [2 ** k for k in range(8, 13)]
        times = [s ** 1.5 for s in sizes]
        assert abs(fit_loglog_slope(sizes, times) - 1.5) < 1e-9

    def test_reports_and_json(self):
        def mk(n):
            return BenchCase(f"c{n}", n,
                             lambda seed, n=n: (n, "unchecked", {"n": n}))
        summary = run_benchmark([mk(64), mk(128)], SeedCtx(1))
        data = json.loads(summary.to_json())
        assert len(data["runs"]) == 2
        assert summary.to_csv().count("\n") == 3


class TestCli:
    def test_gen_solve_check_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "inst.txt"
        assert cli_main(["gen", "--n", "14", "--wmax", "12", "--pmax", "15",
                         "--seed", "7", "-o", str(path)]) == 0
        assert cli_main(["solve", str(path), "--algo", "t_sqrt_p",
                         "--oracle-check", "--json"]) == 0
        assert cli_main(["check", str(path), "--seed", "3"]) == 0

    def test_solve_json_reports_runs_and_q(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        assert cli_main(["gen", "--n", "60", "--wmax", "20", "--pmax", "30",
                         "--balanced", "--seed", "4", "-o", str(path)]) == 0
        assert cli_main(["solve", str(path), "--algo", "t_sqrt_p",
                         "--json"]) == 0
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert meta["algo"] == "t_sqrt_p"
        assert 1 <= meta["runs"] <= meta["reps"]
        assert 0 <= meta["q_ran"] <= meta["q"]

    def test_usage_error_exit_code(self):
        assert cli_main(["solve", "/nonexistent/file"]) == 2

    def test_conv_oracle(self):
        assert cli_main(["conv", "--n", "120", "--m", "60",
                         "--oracle-check", "--json"]) == 0

    def test_gadget_and_bench(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["gadget", "--n", "6", "--variant", "profits",
                         "-o", str(tmp_path / "g.txt")]) == 0
        assert cli_main(["bench", "--suite", "conv", "--sizes", "128,256",
                         "--oracle-check", "--json",
                         "-o", str(tmp_path / "b.json")]) == 0

    def test_deterministic_json_reports(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "i.txt"
        cli_main(["gen", "--n", "10", "--seed", "5", "-o", str(path)])
        cli_main(["solve", str(path), "--algo", "cuberoot", "--seed", "3",
                  "--json"])
        first = json.loads(capsys.readouterr().out)
        cli_main(["solve", str(path), "--algo", "cuberoot", "--seed", "3",
                  "--json"])
        second = json.loads(capsys.readouterr().out)
        first.pop("millis")
        second.pop("millis")
        assert first == second

    def test_mismatch_writes_reproducer(self, tmp_path, monkeypatch):
        # corrupt oracle on purpose by feeding an instance the CLI cannot
        # mismatch on -- instead simulate via direct reproducer writer
        from tropsack.harness.cli import _write_reproducer
        monkeypatch.chdir(tmp_path)
        inst = gen_random_instance(4, 5, 5, 9, SeedCtx(1))
        path = _write_reproducer(inst, SeedCtx(9), "unit", "forced")
        assert path.exists()
        assert "seed 9" in path.read_text()

    def test_bench_seed_ignores_hash_seed(self, tmp_path):
        # child seeds must not come from hash(str), which varies per process
        src = str(Path(tropsack.__file__).resolve().parents[1])
        got = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           [src] + [p for p in [os.environ.get("PYTHONPATH")]
                                    if p]))
            out = subprocess.run(
                [sys.executable, "-m", "tropsack", "bench", "--suite",
                 "solvers", "--sizes", "60", "--algo", "bellman", "--seed",
                 "5", "--json"], cwd=tmp_path, env=env, capture_output=True,
                text=True, check=True, timeout=120).stdout
            run = json.loads(out)["runs"][0]
            got.append((run["digest"], run["opt"]))
        assert got[0] == got[1]

    def test_check_reproducer_records_run_seed(self, tmp_path, monkeypatch):
        import tropsack.harness.cli as cli
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_oracle_opt", lambda inst: -1)
        path = tmp_path / "i.txt"
        cli_main(["gen", "--n", "8", "--seed", "2", "-o", str(path)])
        assert cli_main(["check", str(path), "--seed", "3", "--algos",
                         "bellman"]) == 1
        (repro,) = (tmp_path / "failures").iterdir()
        want = f"# seed 3 path {[zlib.crc32(b'bellman')]}"
        assert want in repro.read_text()
