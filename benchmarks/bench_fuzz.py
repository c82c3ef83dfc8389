"""Fuzz-campaign benchmark: throughput, oracle overhead, digest stability.

Gates for the scenario-universe fuzzer:

1. **green campaign** -- the benchmark seed range produces zero
   discrepancies (a red seed is a correctness regression somewhere in
   the solver/evaluator/verifier stack, not a benchmark failure mode).
2. **digest stability** -- two runs of the same campaign produce the
   same sha256 digest, the property the CI fuzz job diffs.
3. **throughput** -- the oracle stack clears a floor of scenarios per
   second (warm profile DBs), so fuzzing stays cheap enough to run on
   every change.

The oracle-overhead figure (full eight-check stack vs scheduling
alone) is reported, not gated: it measures what the differential
checks cost on top of the solve they are auditing.  Results go to
``benchmarks/out/fuzz.txt`` and ``fuzz.json``.
"""

import time

from repro.core.haxconn import HaXCoNN
from repro.experiments.common import get_db
from repro.fuzz import generate_scenario, run_campaign, run_oracles
from repro.soc.platform import get_platform

from conftest import full_run

#: scenarios per second through the full oracle stack (warm DBs)
THROUGHPUT_FLOOR = 2.0
ATTEMPTS = 3

SEEDS = range(0, 200) if full_run() else range(0, 40)
OVERHEAD_SEEDS = (0, 2, 5, 7, 11, 13)


def _time_once(fn):
    t = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t


def _schedule_only(spec):
    scheduler = HaXCoNN(
        get_platform(spec.platform),
        db=get_db(spec.platform),
        max_groups=spec.max_groups,
        max_transitions=1,
    )
    return scheduler.schedule(spec.workload())


def test_bench_fuzz(save_report, save_json):
    # warm the per-platform profile DBs so the timed runs measure the
    # oracle stack, not one-off profiling
    warmup = run_campaign(range(0, 4))
    assert warmup.ok, [f.to_dict() for f in warmup.failures]

    for attempt in range(ATTEMPTS):
        report_a, elapsed_a = _time_once(lambda: run_campaign(SEEDS))
        report_b, _ = _time_once(lambda: run_campaign(SEEDS))

        # -- deterministic gates: checked on every attempt --------------
        assert report_a.ok, [f.to_dict() for f in report_a.failures]
        assert report_a.digest == report_b.digest
        stats = report_a.stats
        assert stats["transformer_scenarios"] > 0
        assert stats["multi_dsa_scenarios"] > 0

        # -- wall-clock gate: retried -----------------------------------
        throughput = len(SEEDS) / elapsed_a
        if throughput >= THROUGHPUT_FLOOR:
            break
    else:
        assert throughput >= THROUGHPUT_FLOOR, (
            f"oracle stack ran only {throughput:.2f} scenarios/s "
            f"after {ATTEMPTS} attempts"
        )

    overhead = []
    for seed in OVERHEAD_SEEDS:
        spec = generate_scenario(seed)
        _, solve_s = _time_once(lambda: _schedule_only(spec))
        outcome, oracle_s = _time_once(lambda: run_oracles(spec))
        assert outcome.ok
        overhead.append(
            {
                "seed": seed,
                "platform": spec.platform,
                "checks": len(outcome.checks),
                "solve_s": solve_s,
                "oracle_s": oracle_s,
                "overhead_x": oracle_s / solve_s,
            }
        )
    mean_overhead = sum(r["overhead_x"] for r in overhead) / len(overhead)

    lines = [
        "Fuzz campaign: throughput, oracle overhead, digest stability",
        "",
        f"seeds: {SEEDS.start}:{SEEDS.stop}  "
        f"oracle calls: {report_a.oracle_calls}",
        f"throughput: {throughput:.2f} scenarios/s "
        f"(floor {THROUGHPUT_FLOOR:.1f})",
        f"digest: {report_a.digest} (stable across 2 runs)",
        "coverage: "
        + ", ".join(f"{k}={v}" for k, v in sorted(stats.items())),
        "",
        "oracle overhead (full stack / schedule alone):",
    ]
    for r in overhead:
        lines.append(
            f"  seed {r['seed']:>3} {r['platform']:<8} "
            f"{r['checks']} checks  "
            f"solve {r['solve_s'] * 1e3:7.1f} ms  "
            f"oracle {r['oracle_s'] * 1e3:7.1f} ms  "
            f"{r['overhead_x']:.2f}x"
        )
    lines.append(f"  mean overhead: {mean_overhead:.2f}x")
    save_report("fuzz", "\n".join(lines))
    save_json(
        "fuzz",
        {
            "seeds": [SEEDS.start, SEEDS.stop],
            "oracle_calls": report_a.oracle_calls,
            "scenarios_per_s": throughput,
            "throughput_floor": THROUGHPUT_FLOOR,
            "digest": report_a.digest,
            "digest_stable": report_a.digest == report_b.digest,
            "coverage": stats,
            "oracle_overhead": overhead,
            "mean_overhead_x": mean_overhead,
        },
    )
