"""Growth rate of the convolution engine.

Runs the level pipeline over a doubling ladder at M = n and fits the
log-log slope; the naive baseline fits ~2.0.  Theory puts the engine at
1.5 up to logs; the acceptance ladder (criterion 10) measured 1.67.
Uses a reduced ladder by default so the demo stays quick; pass --full
for the acceptance-sized one.

Run: python demos/05_scaling_benchmark.py [--full]
"""

import sys
import time

from tropsack import SeedCtx
from tropsack.convolution import minplus_naive, monotone_minplus_rect
from tropsack.harness.bench import fit_loglog_slope, random_monotone_ramp

full = "--full" in sys.argv
sizes = [1 << k for k in (range(12, 17) if full else range(11, 15))]

rows = []
for n in sizes:
    seed = SeedCtx(n)
    a = random_monotone_ramp(n, n, seed.child(1))
    b = random_monotone_ramp(n, n, seed.child(2))
    t0 = time.perf_counter()
    out = monotone_minplus_rect(a, b, n, seed.child(3), method="levels")
    engine_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = minplus_naive(a, b)
    naive_s = time.perf_counter() - t0
    rows.append((n, engine_s, naive_s))
    print(f"n = M = {n:6d}: engine {engine_s:7.2f}s   "
          f"naive {naive_s:6.2f}s   exact: {out.values == ref.values}")

slope_e = fit_loglog_slope([r[0] for r in rows], [r[1] for r in rows])
slope_n = fit_loglog_slope([r[0] for r in rows], [r[2] for r in rows])
print(f"\nfitted exponents: engine {slope_e:.2f}, naive {slope_n:.2f}")
print("(theory: 1.5 up to logs for the engine, 2.0 for the baseline;")
print(" fixed per-level overhead flattens the fit at demo sizes --")
print(" use --full for the acceptance ladder, where it reads ~1.67)")
