"""Per-layer spans, recorded from outside the program.

:func:`install` wraps the public functions through which each layer is
entered.  Every wrapped call records a span -- name, start, end, parent
span and workload item id -- into in-memory arrays; nothing is written
until the run ends.  A function that other modules imported by name
(``from repro.runtime.executor import run_schedule``) is replaced in
every module that holds it, so the wrapper sits where each caller looks
the name up.  Methods and properties are replaced on their class.

The untraced run never imports this module.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class Layer:
    name: str
    #: ``(module, qualified name)`` of each public entry point
    targets: tuple[tuple[str, str], ...]
    #: the end-to-end metrics and workloads a change here should move
    moves: str


LAYERS = (
    Layer(
        "profiling",
        (("repro.profiling.database", "ProfileDB.profile"),),
        "setup_s on every workload",
    ),
    Layer(
        "contention",
        (("repro.profiling.database", "ProfileDB.pccs"),),
        "setup_s on every workload",
    ),
    Layer(
        "platform",
        (("repro.soc.platform", "get_platform"),),
        "setup_s on every workload",
    ),
    Layer(
        "formulation",
        (
            ("repro.core.haxconn", "HaXCoNN.build_formulation"),
            ("repro.core.haxconn", "HaXCoNN.build_problem"),
        ),
        "wall_s on table8-orin and serve-hard",
    ),
    Layer(
        "solver",
        (
            ("repro.solver.bnb", "BranchAndBound.solve"),
            ("repro.solver.portfolio", "PortfolioSolver.solve"),
        ),
        "wall_s and stall_host_s on serve-hard and table8-orin; "
        "no change to item_host_ms_p50 on serve-hard (a cache-hit round)",
    ),
    Layer(
        "exhaustive",
        (("repro.solver.exhaustive", "solve_exhaustive"),),
        "wall_s on fuzz",
    ),
    Layer(
        "eval",
        (
            ("repro.core.formulation", "Formulation.evaluate"),
            ("repro.core.formulation", "Formulation.evaluate_frontier"),
            ("repro.core.formulation", "Formulation.evaluate_scratch"),
        ),
        "stall_host_s on serve-hard, then wall_s on table8-orin",
    ),
    Layer(
        "simulator",
        (
            ("repro.runtime.executor", "run_schedule"),
            ("repro.runtime.executor", "build_tasks"),
            ("repro.soc.engine", "Engine.run"),
        ),
        "item_host_ms_p50 on serve-hard, then wall_s on table8-orin; "
        "at most ~5% of wall_s on serve-hard",
    ),
    Layer(
        "baselines",
        (
            ("repro.core.baselines", "gpu_only"),
            ("repro.core.baselines", "naive_concurrent"),
            ("repro.core.baselines", "herald"),
            ("repro.core.baselines", "h2h"),
        ),
        "wall_s on table8-orin",
    ),
    Layer(
        "verify",
        (
            ("repro.analysis.verify", "verify_result"),
            ("repro.analysis.verify", "verify_cache_entry"),
            ("repro.analysis.verify", "verify_solve"),
        ),
        "wall_s on fuzz; cache admission on serve-hard",
    ),
    Layer(
        "policy",
        (("repro.serve.policy", "CachedAnytimePolicy.result_for"),),
        "item_host_ms_p50 on serve-hard",
    ),
    Layer(
        "cache",
        (
            ("repro.core.schedule_cache", "ScheduleCache.get"),
            ("repro.core.schedule_cache", "ScheduleCache.put"),
        ),
        "item_host_ms_p50 on serve-hard",
    ),
    Layer(
        "server",
        (("repro.serve.server", "ServingSession.run_rounds"),),
        "item_host_ms_p50 on serve-hard",
    ),
    Layer(
        "oracle",
        (("repro.fuzz.oracle", "run_oracles"),),
        "wall_s on fuzz",
    ),
)

#: span name of each target: its qualified name
_LAYER_OF = {qual: layer.name for layer in LAYERS for _, qual in layer.targets}


class Tracer:
    """In-memory span recorder plus the counters read at the same
    boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.item = array("q")
        self._stack: list[int] = []
        self.current_item = -1
        #: open spans per layer, to tell outermost calls from nested
        self.depth = {layer.name: 0 for layer in LAYERS}
        self.outer_calls = {layer.name: 0 for layer in LAYERS}
        #: inclusive seconds of outermost calls per span name
        self.outer_s: dict[str, float] = {}
        self.counts = {
            "solver.nodes": 0,
            "solver.incumbents": 0,
            "solver.certified": 0,
            "eval.frontier_members": 0,
            "eval.scalar_in_solver": 0,
            "simulator.tasks": 0,
            "verify.violations": 0,
            "oracle.discrepancies": 0,
        }
        #: EvalCounters of every scheduler built while tracing
        self.eval_counters: list[Any] = []
        self._restore: list[Callable[[], None]] = []

    def set_item(self, item: int) -> None:
        self.current_item = item

    # -- recording ------------------------------------------------------
    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        nid = self._name(name)
        layer = _LAYER_OF[name]
        after = _AFTER.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            index = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.item.append(tracer.current_item)
            tracer.end.append(0.0)
            outer = tracer.depth[layer] == 0
            tracer.depth[layer] += 1
            stack.append(index)
            t0 = perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.end[index] = t1
                stack.pop()
                tracer.depth[layer] -= 1
                if outer:
                    tracer.outer_calls[layer] += 1
                    tracer.outer_s[name] = (
                        tracer.outer_s.get(name, 0.0) + t1 - t0
                    )
            if after is not None:
                after(tracer, outer, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point, and HaXCoNN construction (to
        collect its evaluation counters)."""
        for layer in LAYERS:
            for module_name, qual in layer.targets:
                module = importlib.import_module(module_name)
                if "." in qual:
                    self._wrap_member(module, qual)
                else:
                    self._wrap_function(module, qual)
        self._hook_scheduler_init()

    def _wrap_member(self, module: Any, qual: str) -> None:
        cls_name, attr = qual.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[attr]
        if isinstance(original, property):
            replacement: Any = property(
                self.wrap(qual, original.fget), original.fset, original.fdel
            )
        else:
            replacement = self.wrap(qual, original)
        setattr(cls, attr, replacement)
        self._restore.append(lambda: setattr(cls, attr, original))

    def _wrap_function(self, module: Any, name: str) -> None:
        original = getattr(module, name)
        wrapper = self.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append(
                        lambda m=mod, k=key: setattr(m, k, original)
                    )

    def _hook_scheduler_init(self) -> None:
        from repro.core.haxconn import HaXCoNN

        original = HaXCoNN.__init__
        tracer = self

        def init(self: Any, *args: Any, **kwargs: Any) -> None:
            original(self, *args, **kwargs)
            tracer.eval_counters.append(self.eval_counters)

        HaXCoNN.__init__ = init  # type: ignore[method-assign]
        self._restore.append(lambda: setattr(HaXCoNN, "__init__", original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results ------------------------------------------------------------
    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name id, duration, self time) of every span."""
        names = np.frombuffer(self.name_id, dtype=np.uint16)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parent = np.frombuffer(self.parent, dtype=np.int64)
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return names, duration, duration - children

    def root_seconds(self) -> float:
        """Seconds covered by spans that have no parent span."""
        _, duration, _ = self.self_times()
        parent = np.frombuffer(self.parent, dtype=np.int64)
        return float(duration[parent < 0].sum())

    def write(self, path: Path) -> None:
        """The recorded spans as gzipped JSON (times in seconds from the
        first span)."""
        origin = self.start[0] if len(self.start) else 0.0
        payload = {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "item"],
            "spans": [
                [n, round(s - origin, 7), round(e - origin, 7), p, i]
                for n, s, e, p, i in zip(
                    self.name_id, self.start, self.end, self.parent, self.item
                )
            ],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# -- counters read where the work happens -----------------------------------


def _after_solve(tracer: Tracer, outer: bool, args: tuple, result: Any) -> None:
    if outer:
        tracer.counts["solver.nodes"] += result.nodes_explored
        tracer.counts["solver.incumbents"] += len(result.incumbents)
        tracer.counts["solver.certified"] += int(result.optimal)


def _after_evaluate(
    tracer: Tracer, outer: bool, args: tuple, result: Any
) -> None:
    if tracer.depth["solver"]:
        tracer.counts["eval.scalar_in_solver"] += 1


def _after_frontier(
    tracer: Tracer, outer: bool, args: tuple, result: Any
) -> None:
    tracer.counts["eval.frontier_members"] += len(result)


def _after_build_tasks(
    tracer: Tracer, outer: bool, args: tuple, result: Any
) -> None:
    tracer.counts["simulator.tasks"] += len(result)


def _after_verify(tracer: Tracer, outer: bool, args: tuple, result: Any) -> None:
    tracer.counts["verify.violations"] += int(not result.ok)


def _after_oracles(
    tracer: Tracer, outer: bool, args: tuple, result: Any
) -> None:
    tracer.counts["oracle.discrepancies"] += len(result.discrepancies)


_AFTER: dict[str, Callable[[Tracer, bool, tuple, Any], None]] = {
    "BranchAndBound.solve": _after_solve,
    "PortfolioSolver.solve": _after_solve,
    "Formulation.evaluate": _after_evaluate,
    "Formulation.evaluate_frontier": _after_frontier,
    "build_tasks": _after_build_tasks,
    "verify_result": _after_verify,
    "verify_cache_entry": _after_verify,
    "verify_solve": _after_verify,
    "run_oracles": _after_oracles,
}


def layer_metrics(tracer: Tracer, counters: dict[str, int]) -> dict[str, float]:
    """Every per-layer metric from the spans and counters of one traced
    pass; ``counters`` are the workload's own public counters (policy,
    cache, server, oracle)."""
    names, duration, self_s = tracer.self_times()
    by_name = {
        name: float(self_s[names == nid].sum())
        for nid, name in enumerate(tracer.names)
    }

    def layer_self(layer: str) -> float:
        return sum(s for n, s in by_name.items() if _LAYER_OF[n] == layer)

    calls = tracer.outer_calls
    c = tracer.counts
    evals: dict[str, float] = {}
    for counter in tracer.eval_counters:
        for key, value in counter.as_dict().items():
            evals[key] = evals.get(key, 0.0) + value
    lookups = evals.get("memo_hits", 0.0) + evals.get("memo_misses", 0.0)
    computed = evals.get("computed_evals", 0.0)
    sim_outer = tracer.outer_s.get("run_schedule", 0.0)
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    return {
        "profiling.calls": calls["profiling"],
        "profiling.self_s": layer_self("profiling"),
        "contention.self_s": layer_self("contention"),
        "platform.self_s": layer_self("platform"),
        "formulation.calls": calls["formulation"],
        "formulation.self_s": layer_self("formulation"),
        "solver.calls": calls["solver"],
        "solver.self_s": layer_self("solver"),
        "solver.nodes": c["solver.nodes"],
        "solver.incumbents": c["solver.incumbents"],
        "solver.certified_share": (
            c["solver.certified"] / calls["solver"] if calls["solver"] else 0.0
        ),
        "exhaustive.self_s": layer_self("exhaustive"),
        "eval.self_s": layer_self("eval"),
        "eval.frontier_s": by_name.get("Formulation.evaluate_frontier", 0.0),
        "eval.scratch_s": by_name.get("Formulation.evaluate_scratch", 0.0),
        "eval.evals": int(evals.get("evals", 0)),
        "eval.computed": int(computed),
        "eval.memo_hit_rate": (
            evals.get("memo_hits", 0.0) / lookups if lookups else 0.0
        ),
        "eval.fp_iters_per_eval": (
            evals.get("fp_iterations", 0.0) / computed if computed else 0.0
        ),
        "eval.frontier_members": c["eval.frontier_members"],
        "eval.frontier_used_ratio": (
            c["eval.scalar_in_solver"] / c["eval.frontier_members"]
            if c["eval.frontier_members"]
            else 0.0
        ),
        "simulator.calls": calls["simulator"],
        "simulator.self_s": layer_self("simulator"),
        "simulator.build_tasks_s": by_name.get("build_tasks", 0.0),
        "simulator.engine_s": by_name.get("Engine.run", 0.0),
        "simulator.tasks": c["simulator.tasks"],
        "simulator.host_us_per_task": (
            sim_outer / c["simulator.tasks"] * 1e6
            if c["simulator.tasks"]
            else 0.0
        ),
        "baselines.calls": calls["baselines"],
        "baselines.self_s": layer_self("baselines"),
        "verify.calls": calls["verify"],
        "verify.self_s": layer_self("verify"),
        "verify.violations": c["verify.violations"],
        "policy.calls": calls["policy"],
        "policy.self_s": layer_self("policy"),
        "policy.solves": counters.get("policy.solves", 0),
        "policy.swaps": counters.get("policy.swaps", 0),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.get_s": tracer.outer_s.get("ScheduleCache.get", 0.0),
        "server.rounds": counters.get("server.rounds", 0),
        "server.self_s": layer_self("server"),
        "server.requests_sent": counters.get("server.requests_sent", 0),
        "server.served": counters.get("server.served", 0),
        "server.shed": counters.get("server.shed", 0),
        "oracle.calls": calls["oracle"],
        "oracle.self_s": layer_self("oracle"),
        "oracle.discrepancies": c["oracle.discrepancies"],
    }
