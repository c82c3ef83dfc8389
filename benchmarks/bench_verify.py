"""Verifier overhead benchmark: certification must stay cheap.

The certificate checker re-derives every schedule from first
principles, so its cost is the price of ``verify=True`` debug runs and
of cache-admission auditing in the serving layer.  This bench times
``verify_result`` against the cost of *producing* the schedule it
checks, across the paper's 2- and 3-network scenarios, and writes the
table to ``benchmarks/out/verify_overhead.txt``.

Acceptance: certification is at most half the scheduling cost on
every scenario (in practice it is far below that; the bound is loose
because shared CI hardware is noisy), and every certificate is clean.
"""

from __future__ import annotations

import time

from repro.analysis.verify import verify_result
from repro.core.haxconn import HaXCoNN
from repro.core.workload import Workload
from repro.profiling.database import ProfileDB
from repro.soc.platform import get_platform

SCENARIOS = [
    ("alexnet", "resnet18"),
    ("googlenet", "mobilenet_v1"),
    ("vgg16", "resnet18", "googlenet"),
]
#: verify_result must cost at most this fraction of schedule()
OVERHEAD_RATIO = 0.5
REPEATS = 3


def _time_once(fn):
    t = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t


def _bench_scenario(scheduler, models):
    workload = Workload.concurrent(*models)
    result, solve_s = _time_once(
        lambda: scheduler.schedule(workload)
    )
    verify_s = float("inf")
    for _ in range(REPEATS):  # best-of: overhead claim, not a mean
        cert, elapsed = _time_once(
            lambda: verify_result(
                result, max_transitions=scheduler.max_transitions
            )
        )
        assert cert.ok, cert.describe()
        verify_s = min(verify_s, elapsed)
    return {
        "mix": "+".join(models),
        "solve_ms": solve_s * 1e3,
        "verify_ms": verify_s * 1e3,
        "ratio": verify_s / solve_s,
        "checks": len(cert.checks_run),
    }


def format_results(rows):
    header = (
        f"{'mix':<28} {'solve_ms':>10} {'verify_ms':>10} "
        f"{'ratio':>7} {'checks':>7}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['mix']:<28} {r['solve_ms']:>10.2f} "
            f"{r['verify_ms']:>10.2f} {r['ratio']:>7.3f} "
            f"{r['checks']:>7}"
        )
    return "\n".join(lines)


def test_bench_verify_overhead(save_report):
    platform = get_platform("xavier")
    db = ProfileDB(platform)
    scheduler = HaXCoNN(
        platform, db=db, max_groups=3, max_transitions=1
    )
    rows = [_bench_scenario(scheduler, m) for m in SCENARIOS]
    for r in rows:
        assert r["ratio"] <= OVERHEAD_RATIO, (
            f"{r['mix']}: verifying cost {r['ratio']:.2f}x of "
            f"scheduling (limit {OVERHEAD_RATIO})"
        )
    save_report("verify_overhead", format_results(rows))
