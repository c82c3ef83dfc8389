"""The round-makespan bound behind the latency and throughput searches.

Both makespan-shaped objectives are bounded by one round-time bound,
the per-stream contention-free chain and, on the resource-constrained
timeline, the per-DSA busy time: latency by the bound itself,
throughput by total frames over it.  These tests check that the bound
never exceeds a leaf's computed objective, not even by an ulp, on
every leaf of small search spaces on two-, three- and four-DSA
platforms and under the Herald/H2H chain timeline, and pin how much it
prunes on two Table 8 pairs.
"""

from __future__ import annotations

import itertools

import pytest

from repro.contention.base import NoContentionModel
from repro.core.haxconn import HaXCoNN
from repro.core.workload import Workload, WorkloadDNN
from repro.experiments import table8_exhaustive
from repro.profiling.database import ProfileDB
from repro.soc.platform import get_platform
from repro.solver.problem import Infeasible

#: Herald's and H2H's cost model: contention-free, on the chain
#: timeline where items of different streams may overlap on one DSA
#: (up to Eq. 9's epsilon), so the per-DSA busy time can exceed the
#: makespan there
HERALD = {
    "contention_model": NoContentionModel(),
    "include_transitions": False,
    "resource_constrained": False,
}
H2H = {**HERALD, "include_transitions": True}

#: (id, platform, max groups, stream models with repeats, scheduler
#: settings): the two-DSA Jetsons, three streams on the three-DSA
#: trident and the four-DSA matcha; then two xavier pairs whose
#: feasible leaves include streams sharing a DSA under the Herald and
#: H2H settings.  Each space has 36-400 leaves.
LEAF_CASES = (
    ("orin", "orin", 8, (("resnet18", 4), ("resnet101", 1)), {}),
    ("xavier", "xavier", 8, (("resnet50", 1), ("resnet18", 1)), {}),
    (
        "trident",
        "trident",
        4,
        (("resnet18", 1), ("mobilenet_v1", 1), ("resnet50", 1)),
        {},
    ),
    ("matcha", "matcha", 4, (("resnet18", 1), ("mobilenet_v1", 2)), {}),
    ("xavier-herald", "xavier", 6, (("resnet18", 1), ("inception", 1)), HERALD),
    ("xavier-h2h", "xavier", 6, (("mobilenet_v1", 1), ("vgg19", 1)), H2H),
)


@pytest.mark.parametrize("objective", ("latency", "throughput"))
@pytest.mark.parametrize(
    "platform_name, max_groups, streams, settings",
    [c[1:] for c in LEAF_CASES],
    ids=[c[0] for c in LEAF_CASES],
)
def test_bound_admissible_on_every_leaf(
    platform_name, max_groups, streams, settings, objective
):
    """``lower_bound(leaf) <= objective(leaf)`` on every feasible leaf."""
    platform = get_platform(platform_name)
    scheduler = HaXCoNN(
        platform,
        db=ProfileDB(platform),
        max_groups=max_groups,
        max_transitions=1,
        **settings,
    )
    workload = Workload(
        dnns=tuple(WorkloadDNN.of(m, repeats=r) for m, r in streams),
        objective=objective,
    )
    formulation, _ = scheduler.build_formulation(workload)
    problem = scheduler.build_problem(workload, formulation)
    assert problem.lower_bound is not None

    feasible = shared = 0
    for values in itertools.product(*(v.domain for v in problem.variables)):
        leaf = {v.name: a for v, a in zip(problem.variables, values)}
        try:
            value = problem.objective(leaf)
        except Infeasible:
            continue
        feasible += 1
        bound = problem.lower_bound(leaf)
        assert bound <= value, (
            f"{platform_name}/{objective}: bound {bound!r} > "
            f"objective {value!r} on {leaf}"
        )
        busy: dict[str, float] = {}
        for n, a in enumerate(values):
            for acc, t in formulation.busy_times(n, a).items():
                busy[acc] = busy.get(acc, 0.0) + t
        shared += max(busy.values()) > formulation.evaluate(values).makespan
    assert feasible > 0
    if not formulation.resource_constrained:
        # some leaf must overlap streams on a DSA, or the case would
        # not tell a busy-time bound from the chain bound
        assert shared > 0


#: Table 8 pair with its balanced repeats -> HaX-CoNN evaluations
#: computed by one certified throughput solve (65 for both under the
#: per-stream rate-sum bound) and the certified assignment, unchanged
#: from that bound
PRUNING_PINS = {
    (("resnet18", 4), ("resnet101", 1)): (
        48,
        {
            "dnn0": ("gpu",) * 8,
            "dnn1": ("dla",) * 4 + ("gpu",) * 4,
        },
    ),
    (("densenet", 1), ("inception", 1)): (
        38,
        {
            "dnn0": ("gpu",) * 8,
            "dnn1": ("dla",) * 2 + ("gpu",) * 6,
        },
    ),
}


@pytest.mark.parametrize(
    "pair", sorted(PRUNING_PINS), ids=lambda p: f"{p[0][0]}+{p[1][0]}"
)
def test_table8_throughput_pruning_pinned(orin, orin_db, pair):
    """The certified optimum is unchanged and the search computes
    exactly the recorded number of evaluations."""
    computed, assignment = PRUNING_PINS[pair]
    workload = Workload(
        dnns=tuple(WorkloadDNN.of(m, repeats=r) for m, r in pair),
        objective="throughput",
    )
    scheduler = HaXCoNN(
        orin,
        db=orin_db,
        max_groups=table8_exhaustive.MAX_GROUPS,
        max_transitions=table8_exhaustive.MAX_TRANSITIONS,
    )
    result = scheduler.schedule(workload)

    assert result.solver is not None and result.solver.optimal
    assert result.solver.best is not None
    assert result.solver.best.assignment == assignment
    assert scheduler.eval_counters.computed_evals == computed
