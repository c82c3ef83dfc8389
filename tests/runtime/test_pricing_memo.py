"""The simulator's per-group pricing memo (``GroupProfile.cost_on``).

``build_tasks`` prices each (layer group, accelerator) once per
platform object instead of once per task.  The memo must be invisible:
tasks built with a cold memo, a warm memo, and straight from
``perf.model.group_cost`` agree bit for bit, a same-name variant
platform is priced afresh, and a profile database reloaded from JSON
simulates exactly like the one it was saved from.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.profiling.profiler as profiler
from repro.core.baselines import gpu_only, naive_concurrent
from repro.core.haxconn import HaXCoNN
from repro.core.workload import Workload, WorkloadDNN
from repro.perf.model import group_cost
from repro.profiling.database import ProfileDB
from repro.runtime.executor import build_tasks, run_schedule

#: one Table 8 pair at the sweep's settings (throughput objective,
#: faster network iterated more often, 8 groups, one transition)
MODELS = ("googlenet", "resnet101")
REPEATS = (2, 1)
MAX_GROUPS = 8


def _bits(x: float) -> str:
    return float(x).hex()


def task_fields(tasks):
    """Every field of every task, floats as their exact bit pattern."""
    return [
        (
            t.task_id,
            t.accel,
            _bits(t.compute_s),
            _bits(t.dram_bytes),
            _bits(t.max_bw),
            t.deps,
            dict(t.meta),
            _bits(t.release_time),
        )
        for t in tasks
    ]


def workload() -> Workload:
    return Workload(
        dnns=tuple(
            WorkloadDNN.of(m, repeats=r) for m, r in zip(MODELS, REPEATS)
        ),
        objective="throughput",
    )


def pair_results(platform, db):
    """The gpu-only, naive and HaX-CoNN results of the pair."""
    w = workload()
    scheduler = HaXCoNN(
        platform, db=db, max_groups=MAX_GROUPS, max_transitions=1
    )
    return {
        "gpu-only": gpu_only(w, platform, db=db, max_groups=MAX_GROUPS),
        "naive": naive_concurrent(w, platform, db=db, max_groups=MAX_GROUPS),
        "haxconn": scheduler.schedule(w),
    }


def fresh_profiles(platform):
    """Newly profiled (memo-cold) profiles of the pair's streams."""
    db = ProfileDB(platform)
    return [db.profile(m, max_groups=MAX_GROUPS) for m in MODELS]


def priced_from_scratch(schedule, profiles, platform):
    """(task id -> group_cost fields) for every group task."""
    out = {}
    for n, (dnn_schedule, profile) in enumerate(zip(schedule, profiles)):
        for g, accel_name in enumerate(dnn_schedule):
            cost = group_cost(
                profile.groups[g].group, platform.accel(accel_name), platform
            )
            fields = (
                _bits(cost.compute_s),
                _bits(cost.dram_bytes),
                _bits(max(cost.req_bw, 1.0)),
            )
            for rep in range(REPEATS[n]):
                out[f"d{n}r{rep}g{g}"] = fields
    return out


def assert_priced_from_scratch(tasks, schedule, profiles, platform):
    ref = priced_from_scratch(schedule, profiles, platform)
    got = {
        t.task_id: (_bits(t.compute_s), _bits(t.dram_bytes), _bits(t.max_bw))
        for t in tasks
        if t.meta["role"] == "group"
    }
    assert got == ref


@pytest.fixture(scope="module")
def results(orin):
    return pair_results(orin, ProfileDB(orin))


def test_cold_and_warm_memo_build_identical_tasks(orin, results, monkeypatch):
    # one set of profiles serves all three results, so the later ones
    # meet groups already priced on some other accelerator
    profiles = fresh_profiles(orin)
    cold = {}
    for label, result in results.items():
        assert result.formulation.repeats == REPEATS
        cold[label] = build_tasks(result.schedule, profiles, REPEATS, orin)
        assert_priced_from_scratch(cold[label], result.schedule, profiles, orin)

    # fully warm: the memo prices nothing at all
    calls = []
    monkeypatch.setattr(
        profiler,
        "group_cost",
        lambda *a, **k: calls.append(a) or group_cost(*a, **k),
    )
    for label, result in results.items():
        warm = build_tasks(result.schedule, profiles, REPEATS, orin)
        assert task_fields(warm) == task_fields(cold[label]), label
    assert calls == []


def test_same_name_variant_platform_is_priced_afresh(orin, results):
    variant = dataclasses.replace(
        orin, dram_bandwidth=orin.dram_bandwidth / 2
    )
    assert variant.name == orin.name and variant is not orin
    schedule = results["haxconn"].schedule
    profiles = fresh_profiles(orin)
    on_orin = build_tasks(schedule, profiles, REPEATS, orin)

    # re-profiled on the variant
    variant_profiles = fresh_profiles(variant)
    on_variant = build_tasks(schedule, variant_profiles, REPEATS, variant)
    assert_priced_from_scratch(on_variant, schedule, variant_profiles, variant)
    group_bw = [
        (a.max_bw, b.max_bw)
        for a, b in zip(on_orin, on_variant)
        if a.meta["role"] == "group"
    ]
    assert any(a != b for a, b in group_bw)

    # orin-warm profiles handed the variant must not answer from the
    # memo, and going back to orin re-prices again
    reused = build_tasks(schedule, profiles, REPEATS, variant)
    assert task_fields(reused) == task_fields(on_variant)
    back = build_tasks(schedule, profiles, REPEATS, orin)
    assert task_fields(back) == task_fields(on_orin)


def test_reloaded_profile_db_simulates_identically(orin, tmp_path):
    db = ProfileDB(orin)
    before = pair_results(orin, db)
    path = tmp_path / "profiles.json"
    db.save(path)
    reloaded = ProfileDB.load(path)
    assert reloaded.platform is orin
    after = pair_results(orin, reloaded)
    for label, result in before.items():
        other = after[label]
        assert other.schedule == result.schedule
        assert task_fields(
            build_tasks(
                other.schedule, other.formulation.profiles, REPEATS, orin
            )
        ) == task_fields(
            build_tasks(
                result.schedule, result.formulation.profiles, REPEATS, orin
            )
        )
        got = run_schedule(other, orin).timeline.records
        ref = run_schedule(result, orin).timeline.records
        assert repr(got) == repr(ref)
