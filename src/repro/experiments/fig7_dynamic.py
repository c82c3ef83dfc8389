"""Fig. 7: D-HaX-CoNN converging while the workload changes.

Three DNN-pair phases (the pairs of Table 6 experiments 2, 5, and 1)
execute for ten seconds each; D-HaX-CoNN starts each phase from the
best naive schedule, refines it at the paper's update instants, and
should converge to the oracle (the certified-optimal schedule's
measured latency).  The paper observes convergence after 5.8 s, 1.9 s,
and 1.3 s respectively -- the first phase is slowest because it has
three DNNs and the most layer groups.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.dynamic import DHaXCoNN, DynamicTrace
from repro.core.haxconn import HaXCoNN
from repro.core.workload import Workload, WorkloadDNN
from repro.experiments.common import format_table, get_db
from repro.soc.platform import get_platform


def default_phases() -> tuple[Workload, ...]:
    """The paper's Fig. 7 phases, in order: Table 6 experiments 2, 5, 1.

    :func:`run` accepts any phase sequence in their place, and
    :func:`format_results` titles the table with the number it ran.
    """
    return (
        Workload.concurrent("resnet152", "inception", objective="latency"),
        Workload(
            dnns=(
                WorkloadDNN.of("googlenet", "resnet152"),
                WorkloadDNN.of("fcn_resnet18"),
            ),
            objective="latency",
        ),
        Workload.concurrent("vgg19", "resnet152", objective="latency"),
    )


def run_trace(
    platform_name: str = "xavier",
    phases: Sequence[Workload] | None = None,
    *,
    phase_duration_s: float = 10.0,
) -> DynamicTrace:
    platform = get_platform(platform_name)
    scheduler = HaXCoNN(platform, db=get_db(platform_name))
    dynamic = DHaXCoNN(scheduler)
    return dynamic.run(
        phases if phases is not None else default_phases(),
        phase_duration_s=phase_duration_s,
    )


def run(
    platform_name: str = "xavier",
    phases: Sequence[Workload] | None = None,
    *,
    phase_duration_s: float = 10.0,
) -> list[dict[str, object]]:
    trace = run_trace(
        platform_name, phases, phase_duration_s=phase_duration_s
    )
    rows: list[dict[str, object]] = []
    for k, phase in enumerate(trace.phases):
        rows.append(
            {
                "phase": k + 1,
                "workload": "+".join(phase.workload.names),
                "initial_ms": phase.initial_latency_ms,
                "final_ms": phase.final_latency_ms,
                "oracle_ms": phase.oracle_latency_ms,
                "converged": phase.converged,
                "convergence_s": phase.convergence_time_s,
                "updates": len(phase.updates),
            }
        )
    return rows


def format_results(rows: list[dict[str, object]]) -> str:
    phases = len({row["phase"] for row in rows})
    noun = "phase" if phases == 1 else "phases"
    return format_table(
        rows,
        [
            "phase",
            "workload",
            "initial_ms",
            "final_ms",
            "oracle_ms",
            "converged",
            "convergence_s",
            "updates",
        ],
        title=f"Fig. 7: D-HaX-CoNN convergence over {phases} workload {noun}",
    )


if __name__ == "__main__":
    print(format_results(run()))
