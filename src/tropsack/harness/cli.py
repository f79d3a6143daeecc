"""Command-line harness.

Subcommands: solve, gen, check, conv, gadget, bench.
Exit codes: 0 all match / success, 1 mismatch found, 2 usage error.
Oracle mismatches write a reproducer (instance + seed) under failures/.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import zlib
from pathlib import Path

import numpy as np

from ..core import SeedCtx, normalize
from ..bellman import bellman_profit_dp
from ..convolution import minplus_naive, monotone_minplus_rect
from ..hardness import (gen_mpv_instance, gadget_small_profits,
                        gadget_small_weights, parse_mpv, verify_naive,
                        write_mpv)
from ..solve import ALGORITHMS, SolverFailure, solve
from .bench import (conv_scaling_cases, random_monotone_ramp,
                    run_benchmark, solver_bench_cases)
from .generators import gen_balanced_instance, gen_random_instance
from .io import (InstanceFormatError, instance_digest, parse_instance,
                 write_instance, write_instance_text)
from .oracle import MAX_BRUTE_N, brute_force_opt

FAILURE_DIR = Path("failures")


def _write_reproducer(instance, seed, tag, detail):
    FAILURE_DIR.mkdir(exist_ok=True)
    stamp = f"{tag}-{instance_digest(instance)}-seed{seed.seed}"
    path = FAILURE_DIR / f"{stamp}.txt"
    body = write_instance_text(instance) + \
        f"# seed {seed.seed} path {list(seed.path)}\n# {detail}\n"
    path.write_text(body)
    return path


def _oracle_opt(instance):
    norm = normalize(instance)
    if norm.is_trivial:
        return norm.trivial_opt
    if norm.instance.n <= MAX_BRUTE_N:
        return brute_force_opt(norm.instance)[0]
    seq, _ = bellman_profit_dp(norm.instance, norm.instance.capacity)
    return int(seq[norm.instance.capacity])


def cmd_solve(args) -> int:
    inst = parse_instance(args.instance)
    seed = SeedCtx(args.seed)
    t0 = time.perf_counter()
    try:
        rep = solve(inst, algo=args.algo, seed=seed, reps=args.reps)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    ms = (time.perf_counter() - t0) * 1000
    verdict = "unchecked"
    code = 0
    if args.oracle_check:
        want = _oracle_opt(inst)
        verdict = "match" if want == rep.opt else "mismatch"
        if verdict == "mismatch":
            path = _write_reproducer(inst, seed, f"solve-{rep.algo}",
                                     f"got {rep.opt} want {want}")
            print(f"MISMATCH: reproducer written to {path}", file=sys.stderr)
            code = 1
    out = {"algo": rep.algo, "n": inst.n, "t": inst.capacity,
           "w_max": inst.w_max, "p_max": inst.p_max, "opt": rep.opt,
           "millis": round(ms, 3), "seed": args.seed, "verdict": verdict,
           "items": sorted(rep.solution.indices)}
    if args.json:
        print(json.dumps(out))
    else:
        print(f"opt={rep.opt} algo={rep.algo} verdict={verdict} "
              f"items={out['items']}")
    return code


def cmd_gen(args) -> int:
    seed = SeedCtx(args.seed)
    if args.balanced:
        inst = gen_balanced_instance(args.n, args.wmax, args.pmax, seed)
    else:
        t = args.t if args.t is not None else max(1, args.n * args.wmax // 4)
        inst = gen_random_instance(args.n, args.wmax, args.pmax, t, seed)
    text = write_instance_text(inst)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(args) -> int:
    inst = parse_instance(args.instance)
    seed = SeedCtx(args.seed)
    want = _oracle_opt(inst)
    code = 0
    rows = []
    for algo in args.algos:
        run_seed = seed.child(zlib.crc32(algo.encode()))
        try:
            rep = solve(inst, algo=algo, seed=run_seed, reps=args.reps)
            verdict = "match" if rep.opt == want else "mismatch"
            got = rep.opt
        except SolverFailure as exc:
            verdict, got = "mismatch", str(exc)
        rows.append({"algo": algo, "opt": got, "verdict": verdict})
        if verdict == "mismatch":
            _write_reproducer(inst, run_seed, f"check-{algo}",
                              f"got {got} want {want}")
            code = 1
    if args.json:
        print(json.dumps({"oracle": want, "runs": rows}))
    else:
        for row in rows:
            print(f"{row['algo']}: {row['opt']} [{row['verdict']}]")
    return code


def cmd_conv(args) -> int:
    seed = SeedCtx(args.seed)
    a = random_monotone_ramp(args.n, args.m, seed.child(1))
    b = random_monotone_ramp(args.n, args.m, seed.child(2))
    t0 = time.perf_counter()
    got = monotone_minplus_rect(a, b, args.m, seed.child(3),
                                method=args.method)
    ms = (time.perf_counter() - t0) * 1000
    verdict = "unchecked"
    code = 0
    if args.oracle_check:
        want = minplus_naive(a, b)
        verdict = "match" if got.values == want.values else "mismatch"
        code = 0 if verdict == "match" else 1
    out = {"n": args.n, "m": args.m, "method": args.method,
           "millis": round(ms, 3), "verdict": verdict}
    if args.window:
        out["values"] = [None if v in (float("inf"), float("-inf")) else v
                         for v in got.values]
    print(json.dumps(out) if args.json else
          f"conv n={args.n} m={args.m} {ms:.1f}ms [{verdict}]")
    return code


def cmd_gadget(args) -> int:
    seed = SeedCtx(args.seed)
    if args.mpv:
        mpv = parse_mpv(Path(args.mpv).read_text())
    else:
        mpv = gen_mpv_instance(args.n, seed)
    holds = verify_naive(mpv)
    build = gadget_small_profits if args.variant == "profits" else \
        gadget_small_weights
    inst = build(mpv)
    if args.output:
        write_instance(inst, args.output)
    if args.mpv_output:
        Path(args.mpv_output).write_text(write_mpv(mpv))
    print(json.dumps({"n": mpv.n, "variant": args.variant,
                      "verify_naive": holds, "items": inst.n,
                      "t": inst.capacity}))
    return 0


def cmd_bench(args) -> int:
    seed = SeedCtx(args.seed)
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.suite == "conv":
        cases = conv_scaling_cases(sizes, check_against_naive=args.oracle_check)
    else:
        cases = solver_bench_cases(sizes, algo=args.algo)
    summary = run_benchmark(cases, seed)
    text = summary.to_json() if args.json else summary.to_csv()
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text)
    if any(r.verdict == "mismatch" for r in summary.reports):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tropsack")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--algo", choices=ALGORITHMS, default="auto")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--oracle-check", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--wmax", type=int, default=100)
    p.add_argument("--pmax", type=int, default=100)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--balanced", action="store_true")
    p.add_argument("-o", "--output")
    common(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("check", help="cross-check algorithms vs the oracle")
    p.add_argument("instance")
    p.add_argument("--algos", nargs="+",
                   default=["bellman", "t_sqrt_p", "opt_sqrt_w", "cuberoot",
                            "cuberoot_sym"])
    p.add_argument("--reps", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("conv", help="run one engine convolution")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--m", type=int, default=1024)
    p.add_argument("--method", choices=["auto", "naive", "counting",
                                        "levels"], default="levels")
    p.add_argument("--oracle-check", action="store_true")
    p.add_argument("--window", action="store_true",
                   help="emit the full computed sequence")
    common(p)
    p.set_defaults(fn=cmd_conv)

    p = sub.add_parser("gadget", help="build a hardness gadget instance")
    p.add_argument("--mpv", help="MPV instance file (else random)")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--variant", choices=["weights", "profits"],
                   default="weights")
    p.add_argument("-o", "--output")
    p.add_argument("--mpv-output")
    common(p)
    p.set_defaults(fn=cmd_gadget)

    p = sub.add_parser("bench", help="run a benchmark suite")
    p.add_argument("--suite", choices=["conv", "solvers"], default="conv")
    p.add_argument("--sizes", default="4096,8192,16384")
    p.add_argument("--algo", choices=ALGORITHMS, default="auto")
    p.add_argument("--oracle-check", action="store_true")
    p.add_argument("-o", "--output")
    common(p)
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (InstanceFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
