"""Parallel anytime solver portfolio with warm starts.

The paper's Z3 formulation converges to near-optimal schedules within
seconds because industrial SMT solvers are themselves portfolios of
diversified tactics.  This module gives the from-scratch
branch-and-bound core the same treatment: ``N`` diversified
:class:`~repro.solver.bnb.BranchAndBound` strategies race on worker
processes (or threads), sharing every improved incumbent so all
workers prune against the global best.

Three design rules keep results reproducible (the serving layer
re-solves mixes online, so nondeterministic schedules would poison the
schedule cache):

1. **Warm starts before workers.**  Caller-provided seeds (naive
   baselines, schedule-cache fragments for similar mixes) are
   evaluated first and a bounded greedy best-response pass improves
   the best of them, so the root incumbent is never worse than the
   best contention-oblivious baseline -- all before a single worker
   spawns.
2. **Deterministic epochs, not wall-clock sharing.**  Workers
   synchronize at fixed node-count intervals (``sync_every``); the
   parent runs a lockstep epoch loop, merging worker reports in
   worker-index order and broadcasting the updated global bound.
   Each worker's entire search is a pure function of the bound
   sequence it is fed, so the merged incumbent sequence -- and the
   final schedule -- is identical across runs and across backends.
   Wall-clock only decides how *fast* the same trace unfolds.
3. **Exact certifiers, heuristic hunters.**  A worker that exhausts
   the *full* problem certifies optimality (pruning only ever uses
   objectives of feasible solutions as upper bounds).  Workers may
   instead search a dominance-reduced problem to find good incumbents
   quickly; their answers are feasible but never certify.

Seeds for randomized strategies are *prefix-stable*: adding workers
never changes the strategies (or results) of existing ones.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue
import random
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Protocol, Sequence

from repro.solver.bnb import (
    BranchAndBound,
    Incumbent,
    SolveResult,
    StopSearch,
)
from repro.solver.clock import monotonic_s
from repro.solver.problem import Assignment, Infeasible, Problem

#: message tags on the worker -> parent queue
_SYNC, _DONE, _ERROR = "sync", "done", "error"


class SharedEvalState(Protocol):
    """Read-mostly evaluation state piggybacked on the epoch sync.

    The canonical implementation is the evaluation engine's
    :class:`repro.core.evalcache.MemoTable`.  Entries must be *pure*
    -- bit-identical to recomputation -- so exchanging them between
    workers changes speed but never a result, which is what keeps the
    portfolio's determinism guarantee intact.  Deltas are plain
    picklable tuples (they cross :class:`multiprocessing.SimpleQueue`
    under the fork backend).
    """

    def export_delta(self, limit: int = 256) -> tuple[Any, ...]:
        """Drain locally-new entries to send to peers."""
        ...

    def merge(self, delta: Sequence[Any]) -> None:
        """Adopt peer entries without re-exporting them."""
        ...


@dataclass(frozen=True)
class Strategy:
    """One diversified search configuration raced by the portfolio."""

    name: str
    #: branching order as a permutation of variable indices
    order: tuple[int, ...] | None = None
    #: value-ordering heuristic: ``bound`` (ascending child bound),
    #: ``domain`` (declaration order), ``shuffle`` (bound order with
    #: seeded random tie-breaks), ``learned`` (descending store-trained
    #: branch score, falling back to bound order without a guide)
    values: str = "bound"
    #: rng seed for randomized value orders
    seed: int = 0
    #: exact workers search the full problem and may certify
    #: optimality; hunters search the dominance-reduced problem
    exact: bool = True


def default_strategies(
    problem: Problem, workers: int, *, seed: int = 0
) -> tuple[Strategy, ...]:
    """The standard diversification ladder, prefix-stable in ``workers``."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = len(problem.variables)
    by_domain = tuple(
        sorted(range(n), key=lambda i: (len(problem.variables[i].domain), i))
    )
    ladder = [
        Strategy("lex-bound"),
        Strategy("hunter-lex", exact=False),
        Strategy("tight-first", order=by_domain),
        Strategy("reverse", order=tuple(reversed(range(n))), exact=False),
    ]
    out = list(ladder[:workers])
    i = 0
    while len(out) < workers:
        rng = random.Random((seed * 1_000_003) ^ (7919 * i + 13))
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(
            Strategy(
                f"shuffle-{i}",
                order=tuple(perm),
                values="shuffle",
                seed=rng.randrange(2**31),
                exact=i % 2 == 1,
            )
        )
        i += 1
    return tuple(out)


def guided_strategies(
    problem: Problem, workers: int, *, seed: int = 0
) -> tuple[Strategy, ...]:
    """The diversification ladder with a learned strategy in front.

    Worker 0 runs ``learned`` value ordering on the full problem (an
    exact worker, so it may certify); the remaining ``workers - 1``
    slots keep the standard ladder.  Racing -- rather than replacing
    -- the default strategies is what makes a bad model harmless: it
    can fail to win the race, but the unguided workers still converge
    exactly as before.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    learned = Strategy("learned", values="learned")
    if workers == 1:
        return (learned,)
    return (learned,) + default_strategies(
        problem, workers - 1, seed=seed
    )


#: branch-ordering guide shape: ``guide[variable.name][value]`` is the
#: learned score of branching ``variable = value`` (higher explores
#: first).  Plain dicts so fork workers inherit it without pickling.
BranchGuide = Mapping[str, Mapping[Any, float]]


def _child_order(
    strategy: Strategy,
    guide: BranchGuide | None = None,
) -> Callable[[Any, Sequence[Any]], list[Any]] | None:
    """Value-ordering callable for :class:`BranchAndBound`.

    Every mode is a *reordering* of the feasible children -- the
    learned mode included -- so the choice of strategy can change how
    fast the optimum is reached, never which optimum is certified.
    """
    if strategy.values == "domain":
        return lambda variable, children: list(children)
    if strategy.values == "shuffle":
        rng = random.Random(strategy.seed)

        def order(variable: Any, children: Sequence[Any]) -> list[Any]:
            shuffled = list(children)
            rng.shuffle(shuffled)
            shuffled.sort(key=lambda c: c[0])  # stable: shuffled ties
            return shuffled

        return order
    if strategy.values == "learned":
        tables = guide if guide is not None else {}

        def learned(variable: Any, children: Sequence[Any]) -> list[Any]:
            table = tables.get(variable.name)
            if not table:
                # unguided variable: the default ascending-bound dive
                return sorted(children, key=lambda c: c[0])
            # descending predicted score, ascending bound as tie-break
            return sorted(
                children, key=lambda c: (-table.get(c[1], 0.0), c[0])
            )

        return learned
    return None


def _permuted(problem: Problem, order: tuple[int, ...] | None) -> Problem:
    """The same problem with a different branching order."""
    if order is None:
        return problem
    if sorted(order) != list(range(len(problem.variables))):
        raise ValueError(f"order {order!r} is not a permutation")
    return Problem(
        variables=[problem.variables[i] for i in order],
        objective=problem.objective,
        constraints=problem.constraints,
        lower_bound=problem.lower_bound,
        child_bounds=problem.child_bounds,
    )


def _run_worker(
    problem: Problem,
    reduced: Problem | None,
    strategy: Strategy,
    initial: dict[str, Any] | None,
    sync_every: int,
    node_budget: int | None,
    inbox: Any,
    outbox: Any,
    wid: int,
    shared_state: SharedEvalState | None = None,
    channel: tuple[Any, Any] | None = None,
    guide: BranchGuide | None = None,
) -> None:
    """Worker loop: search, report at sync points, obey stop/bound.

    ``guide`` is the plain-dict branch-score table consumed by the
    ``learned`` value ordering; under the fork backend it is inherited
    by the child (never pickled), and workers whose strategy does not
    use it ignore it entirely.

    ``shared_state`` piggybacks evaluation-memo deltas on the epoch
    sync: the worker drains its locally-new entries into each report
    and adopts the epoch union broadcast back with the bound.  Under
    the fork backend this is the forked copy of the same object the
    problem's objective closes over, so adopted entries land directly
    in the evaluation hot path; under threads all workers already
    share one table and the exchange degenerates to a cheap no-op.

    ``channel`` is the worker's fork-inherited ``(up, down)``
    :class:`repro.core.shm.DeltaChannel` pair: bulk delta payloads ride
    the shared-memory rings and only fixed-size tokens cross the
    control queues.  ``None`` keeps payloads inline on the queues.
    """
    target = problem if strategy.exact or reduced is None else reduced
    pending: list[tuple[dict[str, Any], float, int]] = []

    def delta() -> tuple[Any, ...]:
        raw = (
            shared_state.export_delta() if shared_state is not None else ()
        )
        if channel is not None and raw:
            return channel[0].pack(raw)
        return raw

    def on_incumbent(inc: Incumbent) -> None:
        pending.append((inc.assignment, inc.objective, inc.nodes_explored))

    def on_sync(nodes: int, best: Incumbent | None) -> float | None:
        outbox.put((_SYNC, wid, tuple(pending), delta(), nodes))
        pending.clear()
        reply = inbox.get()
        if reply[0] == "stop":
            raise StopSearch
        if shared_state is not None and len(reply) > 2 and reply[2]:
            payload = reply[2]
            if channel is not None:
                payload = channel[1].unpack(payload)
            if payload:
                shared_state.merge(payload)
        return reply[1]

    solver = BranchAndBound(
        node_budget=node_budget,
        on_incumbent=on_incumbent,
        child_order=_child_order(strategy, guide),
        sync_every=sync_every,
        on_sync=on_sync,
    )
    try:
        result = solver.solve(_permuted(target, strategy.order), initial=initial)
    except Exception as exc:  # surfaced by the parent, in worker order
        outbox.put((_ERROR, wid, repr(exc)))
        return
    exhausted = bool(result.optimal)
    certifies = exhausted and target is problem
    outbox.put(
        (
            _DONE,
            wid,
            tuple(pending),
            delta(),
            exhausted,
            certifies,
            result.nodes_explored,
        )
    )


@dataclass(frozen=True)
class WorkerStats:
    """Post-mortem of one portfolio worker."""

    name: str
    nodes: int
    exhausted: bool
    exact: bool


@dataclass
class PortfolioResult(SolveResult):
    """A :class:`SolveResult` plus portfolio provenance."""

    workers: tuple[WorkerStats, ...] = ()
    backend: str = "serial"
    #: (label, root objective or None-if-infeasible) per warm start
    warm_starts: tuple[tuple[str, float | None], ...] = ()
    #: epoch-payload path actually used: ``inproc`` (serial/threads),
    #: ``queue`` (fork, pickled messages), or ``shm`` (fork, ring)
    transport: str = "inproc"
    #: parent-side transport telemetry (ring vs inline-fallback counts)
    transport_stats: dict[str, int] = dataclasses.field(default_factory=dict)


class PortfolioSolver:
    """Race diversified branch-and-bound strategies to the optimum.

    Drop-in for :class:`BranchAndBound` wherever only ``solve`` is
    used; the result type extends :class:`SolveResult`.

    Parameters
    ----------
    workers:
        Number of raced strategies.  Defaults to the CPU count capped
        at 4.  ``1`` degenerates to a single seeded search.
    backend:
        ``fork`` (processes; requires the fork start method), or
        ``threads`` (portable; same deterministic trace, no extra
        cores), or ``auto``.
    seed:
        Master seed for randomized strategies (prefix-stable per
        worker index).
    sync_every:
        Nodes between incumbent-sharing sync points.
    clock:
        Timestamp mode for reported incumbents *and* the result's
        total ``wall_time_s``: ``wall`` uses real elapsed seconds
        (for benchmarking); ``nodes`` derives virtual timestamps from
        the deterministic evaluation count divided by ``node_rate``,
        which keeps downstream consumers (the serving layer's update
        points and phase-completion times) fully reproducible.
    greedy_sweeps:
        Best-response improvement sweeps applied to the best warm
        start before workers spawn (0 disables).
    node_budget:
        Per-worker explored-node budget (deterministic truncation).
    time_budget_s:
        Wall-clock budget enforced at epoch boundaries; truncation by
        time is inherently nondeterministic and forfeits the
        determinism guarantee (results are still valid incumbents).
    shared_state:
        Optional :class:`SharedEvalState` (the evaluation engine's
        memo table) exchanged between workers at epoch syncs.  Worker
        deltas are merged into it in worker-index order, so the caller
        keeps every worker's computed evaluations after ``solve`` --
        even under the fork backend, where worker memory is otherwise
        discarded.  Purely a speed channel: entries are bit-identical
        to recomputation, so results never depend on it.
    transport:
        How bulk epoch payloads (memo deltas and their broadcasts)
        cross the process boundary under the fork backend: ``shm``
        moves them through :class:`repro.core.shm.DeltaChannel`
        shared-memory rings (control queues carry fixed-size tokens),
        ``queue`` keeps them inline in the pickled control messages,
        and ``auto`` (default) picks ``shm`` when the host supports
        it.  Serial and thread backends always exchange in-process
        references; requesting ``shm`` with those backends is an
        error.  Purely a speed channel either way: payload *content*
        and merge order are identical across transports.
    guide:
        Optional branch-score tables (``guide[variable][value]``,
        higher explores first) consumed by the ``learned`` value
        ordering -- see :mod:`repro.learn.guide`.  When set and no
        explicit ``strategies`` are given, the portfolio races
        :func:`guided_strategies` (learned worker plus the standard
        ladder); ``None`` keeps the pre-guidance portfolio exactly:
        same strategies, same ordering callables, same results.
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        time_budget_s: float | None = None,
        node_budget: int | None = None,
        on_incumbent: Callable[[Incumbent], None] | None = None,
        seed: int = 0,
        sync_every: int = 64,
        backend: str = "auto",
        clock: str = "wall",
        node_rate: float = 2000.0,
        greedy_sweeps: int = 1,
        strategies: Sequence[Strategy] | None = None,
        shared_state: SharedEvalState | None = None,
        transport: str = "auto",
        guide: BranchGuide | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if time_budget_s is not None and time_budget_s <= 0:
            raise ValueError("time_budget_s must be positive")
        if node_budget is not None and node_budget <= 0:
            raise ValueError("node_budget must be positive")
        if sync_every < 1:
            raise ValueError("sync_every must be >= 1")
        if backend not in ("auto", "fork", "threads", "serial"):
            raise ValueError(f"unknown backend {backend!r}")
        if clock not in ("wall", "nodes"):
            raise ValueError(f"unknown clock {clock!r}")
        if node_rate <= 0:
            raise ValueError("node_rate must be positive")
        if greedy_sweeps < 0:
            raise ValueError("greedy_sweeps must be >= 0")
        if strategies is not None and not strategies:
            raise ValueError("strategies must be non-empty when given")
        if transport not in ("auto", "shm", "queue"):
            raise ValueError(f"unknown transport {transport!r}")
        self.transport = transport
        self.workers = workers
        self.time_budget_s = time_budget_s
        self.node_budget = node_budget
        self.on_incumbent = on_incumbent
        self.seed = seed
        self.sync_every = sync_every
        self.backend = backend
        self.clock = clock
        self.node_rate = node_rate
        self.greedy_sweeps = greedy_sweeps
        self.strategies = tuple(strategies) if strategies is not None else None
        self.shared_state = shared_state
        self.guide = guide

    # ------------------------------------------------------------------
    def _resolve_backend(self, workers: int) -> str:
        if self.backend != "auto":
            if (
                self.backend == "fork"
                and "fork" not in multiprocessing.get_all_start_methods()
            ):
                raise ValueError("fork start method unavailable")
            return self.backend
        if workers == 1:
            return "serial"
        if "fork" in multiprocessing.get_all_start_methods():
            return "fork"
        return "threads"

    @staticmethod
    def _valid_seed(problem: Problem, assignment: Assignment) -> bool:
        """A usable warm start covers every variable from its domain."""
        for v in problem.variables:
            if v.name not in assignment or assignment[v.name] not in v.domain:
                return False
        return True

    # ------------------------------------------------------------------
    def solve(
        self,
        problem: Problem,
        *,
        initial: Assignment | None = None,
        seeds: Sequence[Assignment | tuple[str, Assignment]] = (),
        reduced: Problem | None = None,
        verify: bool = False,
    ) -> PortfolioResult:
        """Minimize ``problem``, racing the configured strategies.

        ``seeds`` are warm-start assignments, optionally labeled for
        provenance (``(label, assignment)``); invalid or infeasible
        seeds are skipped.  ``reduced`` optionally supplies a
        domain-reduced variant of the same problem for hunter
        strategies (see :func:`repro.core.haxconn.dominance_filter`).
        ``verify=True`` audits the merged result -- every incumbent,
        strict improvement, monotone progress counters -- through the
        independent certificate checker and raises
        :class:`repro.analysis.CertificateError` on any violation.
        """
        result = self._solve_impl(
            problem, initial=initial, seeds=seeds, reduced=reduced
        )
        if verify:
            # deferred: repro.analysis imports the solver package
            from repro.analysis.diagnostics import require
            from repro.analysis.verify import verify_solve

            require(verify_solve(problem, result), "PortfolioSolver.solve")
        return result

    def _solve_impl(
        self,
        problem: Problem,
        *,
        initial: Assignment | None = None,
        seeds: Sequence[Assignment | tuple[str, Assignment]] = (),
        reduced: Problem | None = None,
    ) -> PortfolioResult:
        start = monotonic_s()
        merged: list[Incumbent] = []
        best: Incumbent | None = None
        root_nodes = 0
        worker_nodes: dict[int, int] = {}
        last_ts = 0.0

        def virtual_nodes() -> int:
            return root_nodes + sum(worker_nodes.values())

        def timestamp() -> float:
            if self.clock == "nodes":
                return virtual_nodes() / self.node_rate
            return monotonic_s() - start

        def record(assignment: Mapping[str, Any], objective: float) -> bool:
            nonlocal best, last_ts
            if best is not None and objective >= best.objective:
                return False
            last_ts = max(last_ts, timestamp())
            inc = Incumbent(
                assignment=dict(assignment),
                objective=objective,
                wall_time_s=last_ts,
                nodes_explored=virtual_nodes(),
            )
            merged.append(inc)
            best = inc
            if self.on_incumbent is not None:
                self.on_incumbent(inc)
            return True

        # -- root: warm starts and greedy improvement ------------------
        labeled: list[tuple[str, Assignment]] = []
        if initial is not None:
            labeled.append(("initial", initial))
        for k, entry in enumerate(seeds):
            if (
                isinstance(entry, tuple)
                and len(entry) == 2
                and isinstance(entry[0], str)
            ):
                labeled.append(entry)
            else:
                labeled.append((f"seed{k}", entry))  # type: ignore[arg-type]
        warm_log: list[tuple[str, float | None]] = []
        for label, assignment in labeled:
            objective = None
            if self._valid_seed(problem, assignment):
                root_nodes += 1
                try:
                    objective = problem.evaluate(assignment)
                except Infeasible:
                    objective = None
            warm_log.append((label, objective))
            if objective is not None:
                record(assignment, objective)

        if best is not None and self.greedy_sweeps:
            for assignment, objective, evals in _greedy_improvements(
                problem, best.assignment, best.objective, self.greedy_sweeps
            ):
                root_nodes += evals
                record(assignment, objective)

        workers = self.workers
        if workers is None:
            workers = max(1, min(4, os.cpu_count() or 1))
        if self.strategies is not None:
            strategies = self.strategies
        elif self.guide is not None:
            strategies = guided_strategies(problem, workers, seed=self.seed)
        else:
            strategies = default_strategies(problem, workers, seed=self.seed)
        workers = len(strategies)
        if reduced is None:
            strategies = tuple(
                dataclasses.replace(s, exact=True) for s in strategies
            )
        backend = self._resolve_backend(workers)
        if self.transport == "shm" and backend != "fork":
            raise ValueError(
                "transport='shm' requires the fork backend; serial and "
                "thread workers already share memory in-process"
            )
        seed_assignment = dict(best.assignment) if best is not None else None

        # -- serial: a single seeded search, no racing -----------------
        if backend == "serial" or workers == 1:
            return self._solve_serial(
                problem,
                strategies[0],
                seed_assignment,
                start,
                merged,
                best,
                record,
                root_nodes,
                worker_nodes,
                warm_log,
            )

        # -- parallel: lockstep epoch race ------------------------------
        channels = None
        if backend == "fork":
            if self.transport != "queue":
                # rings are created before fork so workers inherit the
                # mappings; the parent unlinks them in the finally below
                from repro.core import shm as _shm

                if self.transport == "shm" and not (
                    _shm.shared_memory_available()
                ):
                    raise RuntimeError(
                        "transport='shm' requested but shared memory is "
                        "unavailable on this host"
                    )
                if _shm.shared_memory_available():
                    channels = [
                        _shm.make_channel_pair() for _ in range(workers)
                    ]
            ctx = multiprocessing.get_context("fork")
            inboxes = [ctx.SimpleQueue() for _ in range(workers)]
            outboxes = [ctx.SimpleQueue() for _ in range(workers)]
            runners = [
                ctx.Process(
                    target=_run_worker,
                    args=(
                        problem,
                        reduced,
                        strategies[w],
                        seed_assignment,
                        self.sync_every,
                        self.node_budget,
                        inboxes[w],
                        outboxes[w],
                        w,
                        self.shared_state,
                        channels[w] if channels is not None else None,
                        self.guide,
                    ),
                    daemon=True,
                )
                for w in range(workers)
            ]
        else:
            inboxes = [queue.SimpleQueue() for _ in range(workers)]
            outboxes = [queue.SimpleQueue() for _ in range(workers)]
            runners = [
                threading.Thread(
                    target=_run_worker,
                    args=(
                        problem,
                        reduced,
                        strategies[w],
                        seed_assignment,
                        self.sync_every,
                        self.node_budget,
                        inboxes[w],
                        outboxes[w],
                        w,
                        self.shared_state,
                        None,
                        self.guide,
                    ),
                    daemon=True,
                )
                for w in range(workers)
            ]
        for r in runners:
            r.start()

        stats: dict[int, WorkerStats] = {}
        alive = set(range(workers))
        certified = False
        transport_stats: dict[str, int] = {"ring": 0, "inline": 0}
        error: tuple[int, str] | None = None
        #: memo entries received this epoch, in worker-index order
        #: (deterministic merge order, like incumbents)
        epoch_deltas: list[Any] = []

        def consume(msg: tuple[Any, ...]) -> int | None:
            """Merge one worker message; return wid when it finished."""
            nonlocal certified, error
            kind, wid = msg[0], msg[1]
            if kind == _ERROR:
                if error is None:
                    error = (wid, msg[2])
                stats[wid] = WorkerStats(
                    strategies[wid].name, worker_nodes.get(wid, 0), False,
                    strategies[wid].exact,
                )
                return wid
            incumbents, nodes = msg[2], msg[-1]
            worker_nodes[wid] = nodes
            for assignment, objective, _wnodes in incumbents:
                record(assignment, objective)
            delta = msg[3]
            if channels is not None and delta:
                # token in the queue message, payload in the worker's
                # up-ring; ring FIFO + queue happens-before make this a
                # deterministic single-reader drain
                transport_stats[
                    "ring" if delta[0] == "shm" else "inline"
                ] += 1
                delta = channels[wid][0].unpack(delta)
            if delta:
                epoch_deltas.extend(delta)
                if self.shared_state is not None:
                    self.shared_state.merge(delta)
            if kind == _DONE:
                exhausted, certifies = msg[4], msg[5]
                stats[wid] = WorkerStats(
                    strategies[wid].name, nodes, exhausted,
                    strategies[wid].exact,
                )
                certified = certified or certifies
                return wid
            return None

        try:
            while alive:
                epoch_deltas.clear()
                finished = []
                for wid in sorted(alive):
                    done_wid = consume(outboxes[wid].get())
                    if done_wid is not None:
                        finished.append(done_wid)
                for wid in finished:
                    alive.discard(wid)
                now = monotonic_s()
                over_time = (
                    self.time_budget_s is not None
                    and now - start >= self.time_budget_s
                )
                stop = certified or error is not None or over_time
                broadcast = tuple(epoch_deltas)
                for wid in sorted(alive):
                    if stop:
                        inboxes[wid].put(("stop",))
                        continue
                    payload: Any = broadcast
                    if channels is not None and broadcast:
                        payload = channels[wid][1].pack(broadcast)
                    inboxes[wid].put(
                        (
                            "bound",
                            best.objective if best is not None else None,
                            payload,
                        )
                    )
                if stop:
                    for wid in sorted(alive):
                        while wid in alive:
                            if consume(outboxes[wid].get()) is not None:
                                alive.discard(wid)
                    break
        finally:
            for r in runners:
                r.join(timeout=10.0)
            if backend == "fork":
                for r in runners:
                    if r.is_alive():
                        r.terminate()
            if channels is not None:
                for up, down in channels:
                    transport_stats["ring"] += down.sent_ring
                    transport_stats["inline"] += down.sent_inline
                    up.close()
                    up.unlink()
                    down.close()
                    down.unlink()

        if error is not None and best is None:
            wid, message = error
            raise RuntimeError(
                f"portfolio worker {strategies[wid].name!r} failed: {message}"
            )
        return PortfolioResult(
            best=best,
            optimal=certified,
            nodes_explored=virtual_nodes(),
            wall_time_s=max(last_ts, timestamp()),
            incumbents=merged,
            workers=tuple(stats[w] for w in sorted(stats)),
            backend=backend,
            warm_starts=tuple(warm_log),
            transport=(
                "shm"
                if channels is not None
                else ("queue" if backend == "fork" else "inproc")
            ),
            transport_stats=dict(transport_stats),
        )

    # ------------------------------------------------------------------
    def _solve_serial(
        self,
        problem: Problem,
        strategy: Strategy,
        seed_assignment: dict[str, Any] | None,
        start: float,
        merged: list[Incumbent],
        best: Incumbent | None,
        record: Callable[[Mapping[str, Any], float], bool],
        root_nodes: int,
        worker_nodes: dict[int, int],
        warm_log: list[tuple[str, float | None]],
    ) -> PortfolioResult:
        remaining = None
        if self.time_budget_s is not None:
            remaining = max(
                1e-6,
                self.time_budget_s
                - (monotonic_s() - start)
            )

        def on_incumbent(inc: Incumbent) -> None:
            worker_nodes[0] = inc.nodes_explored
            record(inc.assignment, inc.objective)

        solver = BranchAndBound(
            time_budget_s=remaining,
            node_budget=self.node_budget,
            on_incumbent=on_incumbent,
            child_order=_child_order(strategy, self.guide),
        )
        result = solver.solve(
            _permuted(problem, strategy.order), initial=seed_assignment
        )
        worker_nodes[0] = result.nodes_explored
        total_nodes = root_nodes + result.nodes_explored
        if self.clock == "nodes":
            done_s = total_nodes / self.node_rate
        else:
            done_s = monotonic_s() - start
        return PortfolioResult(
            best=merged[-1] if merged else None,
            optimal=result.optimal,
            nodes_explored=total_nodes,
            wall_time_s=done_s,
            incumbents=merged,
            workers=(
                WorkerStats(
                    strategy.name,
                    result.nodes_explored,
                    result.optimal,
                    strategy.exact,
                ),
            ),
            backend="serial",
            warm_starts=tuple(warm_log),
        )


def _greedy_improvements(
    problem: Problem,
    assignment: Mapping[str, Any],
    objective: float,
    sweeps: int,
) -> Iterator[tuple[dict[str, Any], float, int]]:
    """Best-response sweeps from a warm start, yielding improvements.

    Deterministic: variables in declaration order, values in domain
    order, one reassignment per variable per sweep.  Yields
    ``(assignment, objective, evaluations)`` triples so the caller can
    account the work in its deterministic progress clock.
    """
    current = dict(assignment)
    current_objective = objective
    for _ in range(sweeps):
        improved = False
        for variable in problem.variables:
            held = current[variable.name]
            best_value, best_objective, evals = held, current_objective, 0
            for value in variable.domain:
                if value == held:
                    continue
                candidate = dict(current)
                candidate[variable.name] = value
                evals += 1
                try:
                    cand_objective = problem.evaluate(candidate)
                except Infeasible:
                    continue
                if cand_objective < best_objective:
                    best_value, best_objective = value, cand_objective
            if best_value != held:
                current[variable.name] = best_value
                current_objective = best_objective
                improved = True
                yield dict(current), current_objective, evals
            elif evals:
                yield dict(current), current_objective, evals
        if not improved:
            break
