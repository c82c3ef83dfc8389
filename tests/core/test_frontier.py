"""The batch entry point: the byte-identity test wall.

``Formulation.evaluate_frontier`` evaluates a batch of assignments --
typically a sibling frontier, all decisions shared but one stream's --
with one scalar ``EvalEngine.evaluate`` per member.  Each member's
result must equal both per-member ``evaluate`` and the
``evaluate_scratch`` reference **bit for bit** -- scalars, per-item
timings, and the type *and message* of every infeasibility, returned
in the member's slot.  These tests sweep 60+ seeded random
formulations, every real platform (including the 4-DSA ``matcha``
with the ``vit_tiny`` transformer), and the adversarial paths: memo
eviction mid-batch, singleton batches, duplicate members,
all-infeasible batches, malformed members.  The batch is an API for
callers holding a sibling set up front; the solvers never call it,
and their trees are pinned to the ones the retired leaf-frontier
prewarm explored.
"""

from __future__ import annotations

import pytest

from repro.core.evalcache import MemoTable
from repro.core.formulation import Formulation, ScheduleInfeasible
from repro.core.haxconn import HaXCoNN, enumerate_assignments
from repro.core.workload import Workload
from repro.profiling.database import ProfileDB
from repro.soc.platform import get_platform
from repro.solver import BranchAndBound
from tests.core.test_evalcache import (
    ACCELS,
    assert_identical,
    clone,
    outcomes,
    random_formulation,
    random_sequence,
)

SEEDS = range(64)


def frontier_outcomes(form, batch, **kwargs):
    """``evaluate_frontier`` results in the (tag, payload) shape of
    :func:`tests.core.test_evalcache.outcomes`."""
    out = []
    for res in form.evaluate_frontier(batch, **kwargs):
        if isinstance(res, Exception):
            out.append(("err", type(res), str(res)))
        else:
            out.append(("ok", res))
    return out


# -- seeded differential wall: frontier == scalar == scratch -----------
@pytest.mark.parametrize("seed", SEEDS)
def test_frontier_matches_scalar_and_scratch_bitwise(seed):
    """One batch vs per-member evaluate vs from-scratch, bit for bit.

    The sequence mixes sibling rewrites, duplicates, and infeasible
    members -- the population of a solver leaf frontier.
    """
    form, rng = random_formulation(seed)
    sequence = random_sequence(form, rng, length=12)

    ref = outcomes(clone(form).evaluate_scratch, sequence)
    scalar = outcomes(clone(form).evaluate, sequence)
    assert_identical(scalar, ref)

    front_form = clone(form)
    got = frontier_outcomes(front_form, sequence)
    assert_identical(got, ref, items_every=1)
    assert front_form.engine.counters.evals == len(sequence)

    # a second pass over the same frontier is all memo hits -- and
    # still bit-identical
    again = frontier_outcomes(front_form, sequence)
    assert_identical(again, ref, items_every=1)

    # serialized members: same contract
    serial_ref = outcomes(
        clone(form).evaluate_scratch, sequence[:4], serialized=True
    )
    serial_got = frontier_outcomes(
        clone(form), sequence[:4], serialized=True
    )
    assert_identical(serial_got, serial_ref, items_every=1)


# -- adversarial paths --------------------------------------------------
@pytest.mark.parametrize("seed", (2, 7, 14, 21, 28, 35))
def test_batch_parity(seed):
    """A default-length descent sequence equals per-call evaluate and
    scratch.  Seeds 21 and 28 mix feasible members with KeyError
    (unprofiled transition) and ScheduleInfeasible ones: every
    exception comes back in its member's slot."""
    form, rng = random_formulation(seed)
    sequence = random_sequence(form, rng)
    ref = outcomes(clone(form).evaluate_scratch, sequence)
    assert_identical(outcomes(clone(form).evaluate, sequence), ref)
    assert_identical(frontier_outcomes(clone(form), sequence), ref)


@pytest.mark.parametrize("seed", (0, 3, 8, 11, 17, 23, 31, 42))
def test_memo_eviction_mid_frontier_preserves_identity(seed):
    """A capacity-2 memo evicts while the batch's own results are
    being inserted; every member must still match scratch exactly."""
    form, rng = random_formulation(seed)
    sequence = random_sequence(form, rng, length=14)
    ref = outcomes(clone(form).evaluate_scratch, sequence)

    tiny = clone(form)
    tiny.engine.memo = MemoTable(capacity=2)
    got = frontier_outcomes(tiny, sequence)
    assert_identical(got, ref, items_every=1)
    assert len(tiny.engine.memo) <= 2

    # and again: almost everything was evicted, so the batch recomputes
    again = frontier_outcomes(tiny, sequence)
    assert_identical(again, ref, items_every=1)


@pytest.mark.parametrize("seed", (1, 5, 9, 13))
def test_singleton_frontiers(seed):
    """One-member batches match scratch -- feasible and infeasible
    members alike."""
    form, rng = random_formulation(seed)
    sequence = random_sequence(form, rng, length=8)
    ref = outcomes(clone(form).evaluate_scratch, sequence)
    front_form = clone(form)
    for member, expect in zip(sequence, ref):
        got = frontier_outcomes(front_form, [member])
        assert_identical(got, [expect], items_every=1)


@pytest.mark.parametrize("seed", (2, 7, 19))
def test_duplicate_members_share_one_evaluation(seed):
    """Every slot of a duplicated member receives the identical
    result, and the memo answers the memoizable duplicates."""
    form, rng = random_formulation(seed)
    base = random_sequence(form, rng, length=6)
    batch = base + base  # every member duplicated
    ref = outcomes(clone(form).evaluate_scratch, batch)

    front_form = clone(form)
    got = frontier_outcomes(front_form, batch)
    assert_identical(got, ref, items_every=1)
    # results and ScheduleInfeasible are memoized; reference
    # KeyErrors (unprofiled transitions) recompute, as in evaluate
    memoizable = [
        o for o in ref[len(base):]
        if o[0] == "ok" or issubclass(o[1], ScheduleInfeasible)
    ]
    assert front_form.engine.counters.memo_hits >= len(memoizable)


def test_all_infeasible_frontier_reproduces_exceptions():
    """A frontier of unschedulable members returns the same exception
    type and message scratch raises -- fresh and memoized."""
    form, _rng = random_formulation(4)
    n_groups = [len(p) for p in form.profiles]
    batch = [
        [("nsp",) * g if s == k else ("gpu",) * g
         for s, g in enumerate(n_groups)]
        for k in range(len(n_groups))
    ] * 3  # duplicates exercise the memoized-"bad" path too
    ref = outcomes(clone(form).evaluate_scratch, batch)
    assert all(tag == "err" for tag, *_ in ref)
    assert all(issubclass(o[1], ScheduleInfeasible) for o in ref)

    front_form = clone(form)
    got = frontier_outcomes(front_form, batch)
    assert_identical(got, ref)
    again = frontier_outcomes(front_form, batch)  # all memo hits now
    assert_identical(again, ref)


def test_frontier_rejects_malformed_members():
    """Wrong per-stream arity raises ValueError, like scalar evaluate,
    even from the middle of a batch."""
    form, _rng = random_formulation(6)
    good = [tuple("gpu" for _ in range(len(p))) for p in form.profiles]
    with pytest.raises(ValueError):
        clone(form).evaluate_frontier([good[:1]])
    with pytest.raises(ValueError):
        clone(form).evaluate_frontier([good, good[:1], good])


# -- real platforms, including matcha + vit_tiny ------------------------
REAL_CASES = (
    ("xavier", ("alexnet", "resnet18")),
    ("orin", ("googlenet", "mobilenet_v1")),
    ("sd865", ("vgg16", "resnet18")),
    ("trident", ("alexnet", "googlenet")),
    ("matcha", ("vit_tiny", "alexnet")),
)


@pytest.mark.parametrize(
    "platform_name,models",
    REAL_CASES,
    ids=[f"{p}-{'+'.join(m)}" for p, m in REAL_CASES],
)
def test_real_platform_frontiers(platform_name, models):
    """Profiled workloads on every platform class: a genuine sibling
    frontier (stream 0 sweeps its candidates) matches scratch and the
    scalar engine bit for bit."""
    platform = get_platform(platform_name)
    scheduler = HaXCoNN(
        platform,
        db=ProfileDB(platform),
        max_groups=3,
        max_transitions=1,
    )
    workload = Workload.concurrent(*models)
    formulation, profiles = scheduler.build_formulation(workload)
    accels = [a.name for a in platform.accelerators]
    cands = [
        enumerate_assignments(p, accels, max_transitions=1)
        for p in profiles
    ]
    batch = [
        [a0, cands[1][k % len(cands[1])]]
        for k, a0 in enumerate(cands[0][:12])
    ]

    ref = outcomes(clone(formulation).evaluate_scratch, batch)
    scalar = outcomes(clone(formulation).evaluate, batch)
    assert_identical(scalar, ref, items_every=1)
    got = frontier_outcomes(clone(formulation), batch)
    assert_identical(got, ref, items_every=1)


# -- the solvers stay off the batch path -------------------------------
def forbid_batches(monkeypatch):
    """Fail the test if anything calls ``evaluate_frontier``."""

    def refuse(self, batch, **kwargs):
        raise AssertionError("a solver called evaluate_frontier")

    monkeypatch.setattr(Formulation, "evaluate_frontier", refuse)


@pytest.mark.parametrize("solver", ("bnb", "portfolio"))
def test_schedule_never_batches_frontiers(
    xavier, xavier_db, solver, monkeypatch
):
    """B&B evaluates each leaf it reaches through the scalar engine;
    neither solver calls the batch entry point."""
    scheduler = HaXCoNN(
        xavier,
        db=xavier_db,
        max_groups=3,
        max_transitions=1,
        solver=solver,
        solver_backend="serial",
    )
    forbid_batches(monkeypatch)
    result = scheduler.schedule(Workload.concurrent("alexnet", "resnet18"))
    assert result.formulation.engine.counters.evals > 0


#: per objective: nodes explored, then every incumbent's objective and
#: assignment, as the search recorded them with the leaf-frontier
#: prewarm still in place (the prewarm was memo-only, so dropping it
#: must leave the tree exactly as it was).  The throughput tree was
#: re-recorded when its bound became total frames over the round-
#: makespan bound: the tighter bound orders the first leaf
#: differently (one evaluation fewer), and the certified optimum and
#: its assignment are the ones recorded before.
PRE_PREWARM_REMOVAL_TREES = {
    "latency": (
        4,
        [
            (0.002452240241615238,
             {"dnn0": ("gpu", "gpu", "gpu"), "dnn1": ("dla", "dla", "gpu")}),
            (0.002258382262585468,
             {"dnn0": ("gpu", "gpu", "gpu"), "dnn1": ("dla", "gpu", "gpu")}),
        ],
    ),
    "throughput": (
        4,
        [
            (-815.5807763282781,
             {"dnn0": ("gpu", "gpu", "gpu"), "dnn1": ("dla", "dla", "gpu")}),
            (-885.5896688235305,
             {"dnn0": ("gpu", "gpu", "gpu"), "dnn1": ("dla", "gpu", "gpu")}),
        ],
    ),
    "energy": (
        4,
        [
            (0.04674448624846043,
             {"dnn0": ("gpu", "gpu", "gpu"), "dnn1": ("dla", "dla", "gpu")}),
        ],
    ),
}


@pytest.mark.parametrize("objective", sorted(PRE_PREWARM_REMOVAL_TREES))
def test_bnb_tree_matches_pre_removal_pin(
    xavier, xavier_db, objective, monkeypatch
):
    """Node count, incumbent sequence and certified optimum equal the
    tree recorded before the prewarm was removed, bit for bit."""
    scheduler = HaXCoNN(
        xavier, db=xavier_db, max_groups=3, max_transitions=1
    )
    workload = Workload.concurrent(
        "alexnet", "resnet18", objective=objective
    )
    formulation, _ = scheduler.build_formulation(workload)
    problem = scheduler.build_problem(workload, formulation)
    forbid_batches(monkeypatch)
    result = BranchAndBound().solve(problem)

    nodes, incumbents = PRE_PREWARM_REMOVAL_TREES[objective]
    assert result.optimal
    assert result.nodes_explored == nodes
    assert [(i.objective, i.assignment) for i in result.incumbents] == (
        incumbents
    )
    assert result.best is not None
    assert (result.best.objective, result.best.assignment) == incumbents[-1]


# keep the imported-but-unused guard honest: ACCELS backs the docstring
# claim that sequences draw from the synthetic two-DSA universe
assert set(ACCELS) == {"gpu", "dla"}
