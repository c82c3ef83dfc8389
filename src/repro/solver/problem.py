"""Finite-domain constrained optimization problems.

A :class:`Problem` is a list of categorical :class:`Variable` s, a set
of *monotone* constraints (once violated on a partial assignment they
stay violated on every extension), an objective over complete
assignments, and an optional admissible lower bound over partial
assignments.  Minimization throughout; maximize by negating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping, Sequence

Assignment = Mapping[str, Any]


class Infeasible(RuntimeError):
    """Raised when a problem has no feasible assignment."""


@dataclass(frozen=True)
class Variable:
    """A decision variable over an explicit finite domain."""

    name: str
    domain: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if not self.domain:
            raise ValueError(f"variable {self.name!r} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError(f"variable {self.name!r} has duplicate values")


@dataclass
class Problem:
    """A minimization problem over finite-domain variables.

    Parameters
    ----------
    variables:
        Branching order matters: put the most constrained first.
    objective:
        Complete assignment -> cost.  May raise :class:`Infeasible`
        for assignments whose infeasibility only shows at evaluation
        time (e.g. the paper's Eq. 9 overlap constraint).
    constraints:
        Monotone predicates over partial assignments; ``False`` prunes
        the subtree.
    lower_bound:
        Admissible bound over partial assignments: must never exceed
        the best complete extension's objective.  ``None`` disables
        bound pruning (pure enumeration).
    child_bounds:
        Vectorized counterpart of ``lower_bound`` for the solver's
        sibling loop: called with the *parent* partial (the branched
        variable still unassigned) and the :class:`Variable` being
        branched, it returns one admissible bound per domain value --
        entry ``i`` must equal ``lower_bound`` on the partial extended
        with ``variable.domain[i]``, bit for bit, so the two paths
        explore identical trees.  Unlike ``lower_bound`` it must never
        raise :class:`Infeasible` (return ``inf`` for dead values) and
        must not mutate the partial.  ``None`` keeps the per-child
        scalar path.
    """

    variables: Sequence[Variable]
    objective: Callable[[Assignment], float]
    constraints: Sequence[Callable[[Assignment], bool]] = field(
        default_factory=tuple
    )
    lower_bound: Callable[[Assignment], float] | None = None
    child_bounds: Callable[[Assignment, Variable], Sequence[float]] | None = (
        None
    )

    def __post_init__(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if not self.variables:
            raise ValueError("problem has no variables")

    def feasible(self, assignment: Assignment) -> bool:
        """Check all constraints on a (possibly partial) assignment."""
        return all(c(assignment) for c in self.constraints)

    def evaluate(self, assignment: Assignment) -> float:
        """Objective of a complete feasible assignment.

        Raises :class:`Infeasible` when a constraint or the objective
        rejects it.
        """
        missing = [v.name for v in self.variables if v.name not in assignment]
        if missing:
            raise ValueError(f"assignment missing variables: {missing}")
        if not self.feasible(assignment):
            raise Infeasible(f"constraints violated by {dict(assignment)}")
        return self.objective(assignment)

    @property
    def search_space_size(self) -> int:
        size = 1
        for v in self.variables:
            size *= len(v.domain)
        return size
