"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/``
of the same checkout.  One single-threaded process builds the seeded
inputs, runs one untimed warm-up operation, then runs whole rounds of
operations for about S seconds, checking every output against the
references in ``reference.py``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer boundary (``layers.py``) and reports the per-layer metrics, plus
the same cases timed on the baselines.  Both modes write their figures
and a digest of every output to ``perfbench/out/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One thread: numpy's OpenBLAS pool would otherwise spin a second core
# during the engine's FFT norm checks and make timings jitter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def process_age() -> float:
    """Seconds since this process started.  Falls back to the time since
    this module was loaded where /proc is unavailable."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def load_library():
    """Import tropsack from this checkout's ``src/``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tropsack
    import tropsack.convolution  # noqa: F401
    where = Path(tropsack.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"tropsack was imported from {where}, not {src}")
    return tropsack


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def new_tally() -> dict:
    return {"times": [], "failed": 0, "wrong": 0, "problems": [],
            "digests": {}, "baseline": defaultdict(lambda: [0.0, 0.0]),
            "rounds": 0}


def run_op(workload, op, tally, recorder=None):
    """Time one operation, check its output and add it to ``tally``.
    When tracing, also time the baseline on the same input, untraced."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = workload.run(op)
    except Exception as exc:  # a failed operation; keep measuring
        tally["failed"] += 1
        tally["problems"].append(f"{op.key}: {exc!r}")
        return
    dt = time.perf_counter() - t0
    bad = workload.check(op, out)
    if bad:
        tally["failed"] += 1
        tally["wrong"] += 1
        tally["problems"].append(f"{op.key}: {'; '.join(bad)}")
        return
    tally["times"].append(dt)
    tally["digests"][op.key] = workload.digest(out)
    if recorder is not None:
        recorder.paused = True
        t0 = time.perf_counter()
        workload.baseline(op)
        base = time.perf_counter() - t0
        recorder.paused = False
        pair = tally["baseline"][op.shape]
        pair[0] += dt
        pair[1] += base


def measure(workload, seconds: float, recorder):
    """Run whole rounds until another would end past ``seconds``."""
    tally = new_tally()
    start = time.perf_counter()
    while True:
        for op in workload.rounds[tally["rounds"] % len(workload.rounds)]:
            run_op(workload, op, tally, recorder)
        tally["rounds"] += 1
        elapsed = time.perf_counter() - start
        if elapsed * (tally["rounds"] + 1) / tally["rounds"] > seconds:
            return tally


def baseline_metrics(workload, pairs, ops: int) -> dict:
    """Baseline time per op and op/baseline time ratios; zero where the
    workload has no such baseline."""
    out = {}
    for name in ("bellman", "naive_kernel"):
        mine = name == workload.baseline_name
        op_s = sum(p[0] for p in pairs.values()) if mine else 0.0
        base_s = sum(p[1] for p in pairs.values()) if mine else 0.0
        out[f"baseline.{name}_ms"] = 1000.0 * base_s / ops
        out[f"baseline.op_over_{name}"] = op_s / base_s if base_s else 0.0
    for n, m in workloads.ENGINE_SHAPES:
        op_s, base_s = pairs.get(f"n{n}_m{m}", (0.0, 0.0))
        out[f"baseline.op_over_naive_kernel.n{n}_m{m}"] = \
            op_s / base_s if base_s else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        tropsack = load_library()
        declared = declared_metrics()
    except (ImportError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot start: {exc!r}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](tropsack, args.seed)
    warm = new_tally()
    run_op(workload, workload.rounds[0][0], warm)
    setup_s = process_age()

    recorder = None
    if args.trace:
        import layers
        recorder = layers.Recorder()
        recorder.install()
    try:
        res = measure(workload, args.seconds, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
    times = res["times"]
    if not times:
        print(f"perfbench: no operation completed: {res['problems'][:3]}",
              file=sys.stderr)
        return 1

    ops = len(times)
    values = {
        "setup_s": setup_s,
        "op_ms_p50": 1000.0 * statistics.median(times),
        "ops_per_s": ops / sum(times),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    kind = "end_to_end"
    if recorder is not None:
        kind = "per_layer"
        traced_ops_per_s = values["ops_per_s"]
        values = recorder.layer_metrics(ops)
        values.update(baseline_metrics(workload, res["baseline"], ops))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared[kind].items()}
    result = {"correct": warm["wrong"] == 0 and res["wrong"] == 0,
              "attempted": ops + res["failed"], "failed": res["failed"],
              "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "rounds": res["rounds"], "op_ms": [1000.0 * t for t in times],
              "problems": warm["problems"] + res["problems"], **result,
              "digests": res["digests"]}
    if recorder is not None:
        record.update(traced_ops_per_s=traced_ops_per_s,
                      spans=recorder.raw(), counts=dict(recorder.counts))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
