"""Evaluation-engine benchmark: incremental 3x scratch.

Tier-1 gate on the 3-network reference workload (the Table 6
scenario the solver race also uses): the incremental engine behind
``Formulation.evaluate`` must sustain at least 3x the
evaluations/second of the from-scratch baseline
``Formulation.evaluate_scratch`` over a branch-and-bound-shaped
descent sequence of *distinct* assignments -- i.e. with zero memo
hits, the speedup must come from the item tensor, prefix replay, and
the slowdown caches alone -- with every evaluation byte-identical to
the scratch reference.

A machine-readable summary lands in
``benchmarks/out/eval_engine.json`` and a text report in
``benchmarks/out/eval_engine.txt``.

Wall-clock ratios on shared CI hardware are noisy, so the timing
assertions are retried a bounded number of times; the bit-identity
assertions (engine vs scratch equality) run on every attempt and are
never masked by a retry.
"""

import json
import time
from pathlib import Path

import pytest

from repro.core.formulation import Formulation
from repro.core.haxconn import HaXCoNN, enumerate_assignments
from repro.core.workload import Workload
from repro.experiments.common import get_db

#: acceptance threshold: incremental >= 3x scratch evals/sec
SPEEDUP = 3.0
ATTEMPTS = 3

PLATFORM = "sd865"
MODELS = ("vgg19", "resnet152", "googlenet")
MAX_GROUPS = 6
MAX_TRANSITIONS = 2

#: per-stream candidate counts of the solver-shaped descent
DESCENT_SLICES = (8, 8, 5)

RESULTS_JSON = Path(__file__).parent / "out" / "eval_engine.json"


def _reference_sequence():
    """A descent-shaped sequence of distinct sibling assignments.

    Nested sweeps over per-stream candidates mimic the solver's DFS:
    consecutive evaluations differ in one stream's assignment, which
    is exactly the shape the prefix-replay path accelerates.
    """
    db = get_db(PLATFORM)
    workload = Workload.concurrent(*MODELS, objective="latency")
    scheduler = HaXCoNN(
        PLATFORM,
        db=db,
        max_groups=MAX_GROUPS,
        max_transitions=MAX_TRANSITIONS,
    )
    formulation, profiles = scheduler.build_formulation(workload)
    accels = [a.name for a in scheduler.platform.accelerators]
    cands = [
        enumerate_assignments(p, accels, max_transitions=MAX_TRANSITIONS)
        for p in profiles
    ]
    sequence = [
        [a0, a1, a2]
        for a0 in cands[0][: DESCENT_SLICES[0]]
        for a1 in cands[1][: DESCENT_SLICES[1]]
        for a2 in cands[2][: DESCENT_SLICES[2]]
    ]
    return formulation, sequence


def _fresh(formulation: Formulation) -> Formulation:
    """A same-spec formulation with cold engine caches."""
    return Formulation(
        formulation.profiles,
        formulation.repeats,
        formulation.objective,
        formulation.contention_model,
        include_transitions=formulation.include_transitions,
        resource_constrained=formulation.resource_constrained,
        pipeline=formulation.pipeline,
        epsilon_makespan_frac=formulation.epsilon_makespan_frac,
        accel_power_w=formulation.accel_power_w,
    )


def _timed(fn, sequence):
    start = time.perf_counter()
    out = [fn(a) for a in sequence]
    return time.perf_counter() - start, out


def _measure():
    formulation, sequence = _reference_sequence()
    n = len(sequence)

    scratch_form = _fresh(formulation)
    t_scratch, ref = _timed(scratch_form.evaluate_scratch, sequence)

    inc_form = _fresh(formulation)
    t_inc, got = _timed(inc_form.evaluate, sequence)
    # bit-identity on every attempt: the speedup must not come from a
    # different answer
    for a, b in zip(ref, got):
        assert a.objective == b.objective
        assert a.per_dnn_time == b.per_dnn_time
        assert a.fixed_point_iterations == b.fixed_point_iterations
    stats_inc = inc_form.engine.stats()
    assert stats_inc["memo_hits"] == 0, "distinct sequence must not hit"

    # memoized second pass over the same assignments
    t_memo, _ = _timed(inc_form.evaluate, sequence)
    stats_memo = inc_form.engine.stats()

    summary = {
        "workload": "+".join(MODELS),
        "platform": PLATFORM,
        "max_groups": MAX_GROUPS,
        "max_transitions": MAX_TRANSITIONS,
        "evals": n,
        "evals_per_s_scratch": n / t_scratch,
        "evals_per_s_incremental": n / t_inc,
        "evals_per_s_memoized": n / t_memo,
        "speedup_incremental": t_scratch / t_inc,
        "memo_hit_rate_second_pass": (
            (stats_memo["memo_hits"] - stats_inc["memo_hits"]) / n
        ),
        "replayed_evals": stats_inc["replayed_evals"],
        "fp_iter_mean": stats_inc["fp_iter_mean"],
        "slowdown_cache_hit_rate": stats_inc["slowdown_cache_hit_rate"],
    }
    return summary


def _format(summary: dict) -> str:
    lines = [
        "Evaluation engine: incremental vs from-scratch "
        f"({summary['platform']}, {summary['workload']}, "
        f"groups<={summary['max_groups']}, "
        f"transitions<={summary['max_transitions']}, "
        f"{summary['evals']} distinct evals)",
        "-" * 72,
    ]
    for key in (
        "evals_per_s_scratch",
        "evals_per_s_incremental",
        "evals_per_s_memoized",
        "speedup_incremental",
        "memo_hit_rate_second_pass",
        "replayed_evals",
        "fp_iter_mean",
        "slowdown_cache_hit_rate",
    ):
        lines.append(f"{key:32s} {summary[key]:12.3f}")
    return "\n".join(lines)


def test_bench_eval_engine(save_report):
    summary = None
    for _attempt in range(ATTEMPTS):
        summary = _measure()
        if summary["speedup_incremental"] >= SPEEDUP:
            break
    else:
        pytest.fail(
            f"incremental speedup {summary['speedup_incremental']:.2f}x < "
            f"{SPEEDUP}x after {ATTEMPTS} attempts "
            f"({summary['evals_per_s_incremental']:.0f} vs "
            f"{summary['evals_per_s_scratch']:.0f} evals/s)"
        )
    RESULTS_JSON.parent.mkdir(exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(summary, indent=2) + "\n")
    save_report("eval_engine", _format(summary))
