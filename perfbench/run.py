"""Repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table8-orin --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed:
the workload is set up from scratch several times (``setup_s`` is the
median), then its fixed unit of work is repeated a number of passes
that depends only on ``--seconds``.  ``--trace 1`` runs one untraced
pass and one traced pass and reports the per-layer metrics of
``perfbench/tracing.py``.  Outputs are checked outside the timed region
against ``perfbench/expected.json``; the last line of standard output
is one JSON object, and the full record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform as host_platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: cold set-ups per run; setup_s is their median
SETUP_REPEATS = 5

#: end-to-end metrics and their units, in BENCHMARK.json order
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "item_host_ms_p50": "ms",
    "item_host_ms_tail": "ms",
    "stall_host_s": "s",
    "peak_rss_mb": "MB",
}

#: simulated quality metrics: bit-identical across runs of one seed,
#: changed only by cost-model or scheduling-semantics changes
QUALITY_UNITS = {
    "sim_latency_ms_p50": "ms",
    "sim_latency_ms_p95": "ms",
    "slo_attainment": "ratio",
    "sim_speedup_geomean": "ratio",
    "baseline_losses": "count",
    "error_rate": "ratio",
}


def _import_program():
    """Import the package from this checkout's ``src`` -- never from an
    installed copy, so the benchmark measures the tree it ships with."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"error: cannot import the program from src/: {exc}")
    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"error: repro imported from {origin}, not src/")
    import workloads

    return workloads


def host_fingerprint() -> dict[str, object]:
    import numpy

    cpu = host_platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": host_platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git;
    None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def passes_for(seconds: int, nominal_pass_s: float) -> int:
    """Passes a run makes: a function of --seconds only, so the work is
    the same on every host."""
    return max(1, round(seconds / nominal_pass_s))


def check_passes(workload, expected: dict, results) -> list[str]:
    """Fingerprint mismatches: against the value recorded for the
    pass's inputs (when there is one), and between passes that ran the
    same inputs."""
    recorded = expected.get("fingerprints", {}).get(workload.name, {})
    failures = []
    seen: dict[str, str] = {}
    for j, result in results:
        key = workload.fingerprint_key(j)
        want = recorded.get(key, seen.get(key))
        if want is not None and want != result.fingerprint:
            failures.append(
                f"pass {j}: fingerprint {result.fingerprint[:16]} != "
                f"{want[:16]}"
            )
        seen.setdefault(key, result.fingerprint)
    return failures


def fingerprint_status(workload, expected: dict, results) -> str:
    recorded = expected.get("fingerprints", {}).get(workload.name, {})
    keys = {workload.fingerprint_key(j) for j, _ in results}
    return "recorded" if keys <= recorded.keys() else "unrecorded"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # profiles must come from scratch, never from an on-disk store
    os.environ.pop("REPRO_PROFILE_STORE", None)
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads.WORKLOADS)}"
        )
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed)
    record: dict[str, object] = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "host": host_fingerprint(),
        "baseline_seed": expected.get("baseline_seed"),
        "held_out_seed": expected.get("held_out_seed"),
    }
    if args.trace:
        values, results, extra = traced_run(workload)
        units = per_layer_units()
    else:
        values, results, extra = timed_run(workload, args.seconds)
        units = END_TO_END_UNITS
    record.update(extra)

    # checks, outside every timed region
    failures = [f for _, r in results for f in r.failures]
    failures.extend(check_passes(workload, expected, results))
    failures.extend(workload.verify(results[0][1]))
    attempted = sum(r.attempted for _, r in results)
    failed = min(len(failures), attempted)
    quality = {
        key: statistics.median(r.quality[key] for _, r in results)
        for key in results[0][1].quality
    }
    quality["error_rate"] = failed / attempted
    if args.trace:
        values.update({f"quality.{k}": v for k, v in quality.items()})
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    record.update(
        {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "failures": failures[:50],
            "fingerprints": [r.fingerprint for _, r in results],
            "fingerprint_status": fingerprint_status(
                workload, expected, results
            ),
            "quality": quality,
            "counters_pass0": results[0][1].counters,
            "metrics": metrics,
        }
    )
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print_summary(record)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def item_medians(workload, results) -> list[float]:
    """Host seconds of each distinct item: the median over the passes
    that ran it.  Passes with the same fingerprint key ran the same
    inputs, so their k-th items are the same item."""
    runs: dict[tuple[str, int], list[float]] = {}
    for j, result in results:
        key = workload.fingerprint_key(j)
        for k, seconds in enumerate(result.item_s):
            runs.setdefault((key, k), []).append(seconds)
    return [statistics.median(v) for v in runs.values()]


def timed_run(workload, seconds: int):
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    passes = passes_for(seconds, workload.nominal_pass_s)
    results = []
    for j in workload.pass_order(passes):
        # from a collected heap, so garbage left by earlier passes
        # neither costs this one a collection nor raises the peak RSS
        # by an amount that depends on the order of the passes
        gc.collect()
        results.append((j, workload.run_pass(j)))
    walls = [r.wall_s for _, r in results]
    tails = [tail(r.item_s) for _, r in results]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "throughput_per_s": statistics.median(
            r.work_items / r.wall_s for _, r in results
        ),
        "item_host_ms_p50": statistics.median(item_medians(workload, results))
        * 1e3,
        "item_host_ms_tail": statistics.median(t for t, _ in tails) * 1e3,
        "stall_host_s": statistics.median(max(r.item_s) for _, r in results),
        "peak_rss_mb": rss_kb / 1024,
    }
    extra = {
        "passes": passes,
        "setup_s_all": setups,
        "pass_wall_s": walls,
        "pass_item_ms": [
            [round(t * 1e3, 3) for t in r.item_s] for _, r in results
        ],
        "items_per_pass": statistics.median(len(r.item_s) for _, r in results),
        "tail_percentile": statistics.median(pct for _, pct in tails),
    }
    return values, results, extra


def traced_run(workload):
    import tracing

    workload.setup()
    before = workload.run_pass(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        workload.setup()
        traced = workload.run_pass(0, on_item=tracer.set_item)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    # untraced passes on both sides, so host-speed drift over the run
    # does not read as tracing overhead
    after = workload.run_pass(0)
    values = tracing.layer_metrics(tracer, traced.counters)
    values["trace.overhead_ratio"] = traced.wall_s / statistics.fmean(
        (before.wall_s, after.wall_s)
    )
    values["trace.unattributed_share"] = (
        1.0 - tracer.root_seconds() / traced_wall
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload.name}-seed{workload.seed}-spans.json.gz"
    tracer.write(spans_path)
    extra = {
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_wall_s": [before.wall_s, after.wall_s],
        "traced_wall_s": traced.wall_s,
        "layers": {
            layer.name: {
                "targets": [f"{m}:{q}" for m, q in layer.targets],
                "moves": layer.moves,
            }
            for layer in tracing.LAYERS
        },
    }
    return values, [(0, before), (0, traced), (0, after)], extra


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def print_summary(record: dict) -> None:
    print(
        f"# {record['workload']} seed={record['seed']} "
        f"trace={record['trace']} commit={record['commit']} "
        f"host={record['host']}"
    )
    for name, metric in record["metrics"].items():
        print(f"{name:28s} {metric['value']:14.6g} {metric['unit']}")
    if "tail_percentile" in record:
        print(
            f"  (item_host_ms_tail: median over {record['passes']} passes "
            f"of p{record['tail_percentile']:.1f} of a pass's "
            f"{record['items_per_pass']:g} items)"
        )
    if not record["trace"]:  # a traced run lists these among its metrics
        for name, unit in QUALITY_UNITS.items():
            value = record["quality"].get(name)
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:28s} {shown:>14s} {unit}")
        for name, value in record["counters_pass0"].items():
            print(f"{name:28s} {value:14d} count (pass 0)")
    status = "ok" if record["correct"] else "FAILED"
    print(
        f"checks: {status}, fingerprint {record['fingerprint_status']}, "
        f"{record['failed']} failed of {record['attempted']}"
    )
    for line in record["failures"]:
        print(f"  failure: {line}")


if __name__ == "__main__":
    sys.exit(main())
