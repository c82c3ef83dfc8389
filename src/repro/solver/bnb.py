"""Anytime branch-and-bound over finite-domain problems.

Depth-first search with admissible-lower-bound pruning and value
ordering by child bound.  Every improved incumbent is recorded with a
wall-clock timestamp and explored-node count and reported through an
optional callback -- the hook D-HaX-CoNN uses to swap schedules in
mid-flight (paper Section 3.5 / Fig. 7).

When the search finishes without hitting a budget, the returned result
is *certified optimal* (the property the paper obtains from Z3).

For the parallel portfolio (:mod:`repro.solver.portfolio`) the search
exposes two cooperation hooks: ``on_sync`` is invoked at deterministic
node-count intervals (``sync_every``) and may tighten an *external*
upper bound shared by other solvers racing the same problem, and
``child_order`` diversifies the value-ordering heuristic.  Both hooks
fire at points that are a pure function of the search itself -- never
of wall-clock time -- which is what keeps portfolio results
reproducible (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.solver.clock import monotonic_s
from repro.solver.problem import Assignment, Infeasible, Problem, Variable


class StopSearch(Exception):
    """Raised by an ``on_sync`` hook to abort the search cooperatively.

    The solver returns its best-so-far result with ``optimal=False``,
    exactly as if a budget had expired.
    """


@dataclass(frozen=True)
class Incumbent:
    """A feasible solution found during the search."""

    assignment: dict[str, Any]
    objective: float
    wall_time_s: float
    nodes_explored: int


@dataclass
class SolveResult:
    """Outcome of a branch-and-bound run."""

    best: Incumbent | None
    optimal: bool
    nodes_explored: int
    wall_time_s: float
    incumbents: list[Incumbent] = field(default_factory=list)

    @property
    def assignment(self) -> dict[str, Any]:
        if self.best is None:
            raise Infeasible("no feasible assignment found")
        return self.best.assignment

    @property
    def objective(self) -> float:
        if self.best is None:
            raise Infeasible("no feasible assignment found")
        return self.best.objective


class BranchAndBound:
    """Configurable anytime solver.

    Parameters
    ----------
    time_budget_s:
        Stop after this much wall time; the result is then the best
        incumbent so far and ``optimal`` is ``False`` (unless the tree
        was exhausted first).
    node_budget:
        Same, in explored-node count (deterministic budget for tests).
    on_incumbent:
        Called with each :class:`Incumbent` as soon as it is found.
    child_order:
        Value-ordering hook: receives the branching
        :class:`~repro.solver.problem.Variable` and the feasible
        ``(bound, value)`` children of a node (in domain order) and
        returns the children in exploration order.  ``None`` keeps the
        default ascending-bound order.  Portfolio strategies use this
        to diversify dives; the learned strategy orders children by
        store-trained branch scores.  Reordering only: the hook cannot
        add or drop children, so bounds, pruning, and incumbent
        admission -- and therefore the certified optimum -- are
        unaffected.
    sync_every / on_sync:
        Cooperation hook for the solver portfolio: every
        ``sync_every`` explored nodes, ``on_sync(nodes, best)`` runs
        and may return a new *external* upper bound (an objective of a
        solution found elsewhere); the search then prunes against
        ``min(own best, external bound)`` and only records incumbents
        strictly better than it.  The hook may raise
        :class:`StopSearch` to abort.  Sync points depend only on the
        node counter, so a worker's whole search is a deterministic
        function of the bound sequence it is fed.
    """

    def __init__(
        self,
        *,
        time_budget_s: float | None = None,
        node_budget: int | None = None,
        on_incumbent: Callable[[Incumbent], None] | None = None,
        child_order: Callable[
            [Variable, list[tuple[float, Any]]],
            Sequence[tuple[float, Any]],
        ]
        | None = None,
        sync_every: int | None = None,
        on_sync: Callable[[int, Incumbent | None], float | None]
        | None = None,
    ) -> None:
        if time_budget_s is not None and time_budget_s <= 0:
            raise ValueError("time_budget_s must be positive")
        if node_budget is not None and node_budget <= 0:
            raise ValueError("node_budget must be positive")
        if sync_every is not None and sync_every <= 0:
            raise ValueError("sync_every must be positive")
        self.time_budget_s = time_budget_s
        self.node_budget = node_budget
        self.on_incumbent = on_incumbent
        self.child_order = child_order
        self.sync_every = sync_every
        self.on_sync = on_sync

    def solve(
        self,
        problem: Problem,
        *,
        initial: Assignment | None = None,
        verify: bool = False,
    ) -> SolveResult:
        """Minimize ``problem``; optionally seed with a known solution.

        The seed (D-HaX-CoNN's "initial best naive schedule") is
        evaluated first so pruning starts immediately and the solver
        can never return anything worse.  ``verify=True`` audits the
        result (best answer, every incumbent, monotonicity) through
        the independent certificate checker and raises
        :class:`repro.analysis.CertificateError` on any violation.
        """
        start = monotonic_s()
        state = _SearchState(problem, self, start)
        if initial is not None:
            try:
                obj = problem.evaluate(initial)
            except Infeasible:
                pass
            else:
                state.record(dict(initial), obj)
        try:
            exhausted = state.dfs({}, 0)
        except StopSearch:
            exhausted = False
        result = SolveResult(
            best=state.best,
            optimal=exhausted,
            nodes_explored=state.nodes,
            wall_time_s=monotonic_s() - start,
            incumbents=state.incumbents,
        )
        if verify:
            # deferred: repro.analysis imports the solver package
            from repro.analysis.diagnostics import require
            from repro.analysis.verify import verify_solve

            require(verify_solve(problem, result), "BranchAndBound.solve")
        return result


class _SearchState:
    def __init__(
        self, problem: Problem, cfg: BranchAndBound, start: float
    ) -> None:
        self.problem = problem
        self.cfg = cfg
        self.start = start
        self.nodes = 0
        self.best: Incumbent | None = None
        self.incumbents: list[Incumbent] = []
        #: best objective known elsewhere (portfolio peers); pruning
        #: and incumbent recording both respect it
        self.external_bound = float("inf")
        self._next_sync = cfg.sync_every

    def limit(self) -> float:
        """Current upper bound: best of own and external incumbents."""
        own = self.best.objective if self.best is not None else float("inf")
        return min(own, self.external_bound)

    # -- bookkeeping -----------------------------------------------------
    def record(self, assignment: dict[str, Any], objective: float) -> None:
        if objective >= self.limit():
            return
        inc = Incumbent(
            assignment=assignment,
            objective=objective,
            wall_time_s=monotonic_s() - self.start,
            nodes_explored=self.nodes,
        )
        self.best = inc
        self.incumbents.append(inc)
        if self.cfg.on_incumbent is not None:
            self.cfg.on_incumbent(inc)

    def budget_exceeded(self) -> bool:
        if (
            self.cfg.node_budget is not None
            and self.nodes >= self.cfg.node_budget
        ):
            return True
        if self.cfg.time_budget_s is not None:
            now = monotonic_s()
            if now - self.start >= self.cfg.time_budget_s:
                return True
        return False

    def maybe_sync(self) -> None:
        """Run the portfolio sync hook at deterministic node counts."""
        if self._next_sync is None or self.nodes < self._next_sync:
            return
        assert self.cfg.sync_every is not None
        self._next_sync += self.cfg.sync_every
        if self.cfg.on_sync is None:
            return
        bound = self.cfg.on_sync(self.nodes, self.best)
        if bound is not None and bound < self.external_bound:
            self.external_bound = bound

    # -- search ----------------------------------------------------------
    def dfs(self, partial: dict[str, Any], depth: int) -> bool:
        """Explore the subtree; returns True when fully exhausted."""
        problem = self.problem
        if depth == len(problem.variables):
            try:
                objective = problem.objective(partial)
            except Infeasible:
                return True
            self.record(dict(partial), objective)
            return True

        variable = problem.variables[depth]
        # one vectorized call prices the whole sibling set; evaluated
        # before the loop because the partial is mutated in place below
        bounds_vec: Sequence[float] | None = (
            problem.child_bounds(partial, variable)
            if problem.child_bounds is not None
            else None
        )
        children: list[tuple[float, Any]] = []
        for i, value in enumerate(variable.domain):
            partial[variable.name] = value
            self.nodes += 1
            self.maybe_sync()
            try:
                if not problem.feasible(partial):
                    continue
                if bounds_vec is not None:
                    bound = float(bounds_vec[i])
                elif problem.lower_bound is not None:
                    bound = problem.lower_bound(partial)
                else:
                    bound = float("-inf")
            except Infeasible:
                # constraints and bounds may signal infeasibility the
                # same way objectives do; the subtree is dead either way
                continue
            children.append((bound, value))
        partial.pop(variable.name, None)

        if self.cfg.child_order is not None:
            ordered = self.cfg.child_order(variable, children)
        else:
            ordered = sorted(children, key=lambda c: c[0])
        exhausted = True
        for bound, value in ordered:
            if self.budget_exceeded():
                return False
            if bound >= self.limit():
                continue  # pruned subtrees are still fully accounted for
            partial[variable.name] = value
            if not self.dfs(partial, depth + 1):
                exhausted = False
                partial.pop(variable.name, None)
                return False
            partial.pop(variable.name, None)
        return exhausted
