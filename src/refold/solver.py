"""Anytime exact branch-and-bound for the pseudo-Boolean refactoring
models, plus an exhaustive oracle for small instances.

The search is deterministic for a fixed model (branching is static). A
greedy primal pass seeds the incumbent so good solutions appear early,
then depth-first branch and bound with unit propagation closes the gap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .copmodel import Assignment, CopModel, check_assignment, objective_value


class SolverError(Exception):
    pass


class InstanceTooLarge(SolverError):
    pass


@dataclass
class SolverBudget:
    wall_time: float = 60.0
    max_decisions: Optional[int] = None

    def __post_init__(self):
        # a NaN budget would never run out: every elapsed >= nan is false
        if not (math.isfinite(self.wall_time) and self.wall_time > 0):
            raise ValueError("wall_time must be finite and positive")


@dataclass
class SolveTrace:
    history: list = field(default_factory=list)  # (elapsed_seconds, objective)
    proof_status: str = "unknown"
    decisions: int = 0  # branch-and-bound branches tried

    def record(self, elapsed: float, objective: int):
        if self.history and objective >= self.history[-1][1]:
            return
        self.history.append((elapsed, objective))

    def render(self) -> str:
        lines = [f"{int(t * 1000)} {obj}" for t, obj in self.history]
        lines.append(f"# status {self.proof_status}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Derived assignments from a support-clause selection

def assignment_from_selection(model: CopModel, chosen_sc: set) -> Optional[Assignment]:
    """Complete a support-clause selection into a full assignment: each
    clause takes its cheapest folding whose required support clauses are
    all selected, redundancy vars follow from the selection."""
    values = [False] * model.num_vars
    for v in chosen_sc:
        values[v] = True
    for sv, deps in model.sc_deps.items():
        if values[sv] and not all(values[d] for d in deps):
            return None
    if model.sc_cap is not None and len(chosen_sc) > model.sc_cap:
        return None
    for picks in model.clause_picks.values():
        best = None
        for pvar, w, _, _ in picks:
            if (best is None or w < best[0]) and all(
                values[sv] for sv in model.pick_required[pvar]
            ):
                best = (w, pvar)
        if best is None:
            return None
        values[best[1]] = True
    for rvar, members in model.red_members.items():
        occ = model.red_base.get(rvar, 0) + sum(1 for f in members if values[f])
        values[rvar] = occ > 1
    obj = objective_value(model, values)
    return Assignment(values={i: values[i] for i in range(model.num_vars)},
                      objective_value=obj, status="feasible")


def _greedy_selection(model: CopModel, deadline: Optional[float] = None):
    """Greedy add/drop over support clauses, guided by the exact objective.
    Yields each (selection, assignment) improvement as soon as it is found."""
    sc_vars = sorted(model.sc_vars.values())
    # order additions by potential savings: weight ascending is a cheap proxy
    ordered = sorted(sc_vars, key=lambda v: (model.objective.get(v, 0), v))
    chosen: set = set()
    base = assignment_from_selection(model, chosen)
    if base is None:
        return
    yield set(chosen), base
    best = base.objective_value
    improved = True
    rounds = 0
    while improved and rounds < 4:
        improved = False
        rounds += 1
        for v in ordered:
            if deadline is not None and time.monotonic() > deadline:
                return
            trial = set(chosen)
            if v in trial:
                trial.discard(v)
                # drop dependents too
                for sv, deps in model.sc_deps.items():
                    if sv in trial and v in deps:
                        trial.discard(sv)
            else:
                trial.add(v)
                stack = [v]
                while stack:
                    for d in model.sc_deps.get(stack.pop(), ()):
                        if d not in trial:
                            trial.add(d)
                            stack.append(d)
            a = assignment_from_selection(model, trial)
            if a is not None and a.objective_value < best:
                chosen = trial
                best = a.objective_value
                yield set(chosen), a
                improved = True


# ---------------------------------------------------------------------------
# Branch and bound

class _Search:
    """Depth-first branch and bound with counter-based pseudo-Boolean
    propagation (Chai & Kuehlmann, DAC 2003). Each constraint keeps its
    slack: the largest value its left side can still reach, minus its rhs.
    Assigning a var lowers only the slacks of the constraints it occurs
    in, and queues those whose slack fell below their largest |coef|:
    only they can force a term."""

    def __init__(self, model: CopModel, budget: SolverBudget):
        self.model = model
        self.budget = budget
        self.n = model.num_vars
        self.values = [-1] * self.n
        self.weights = [model.objective.get(i, 0) for i in range(self.n)]
        # falls[val][var]: (ci, drop) for each constraint whose slack drops
        # when var takes val -- by coef if coef > 0 and val is 0, by -coef
        # if coef < 0 and val is 1; equal pairs share one tuple
        self.falls = ([[] for _ in range(self.n)], [[] for _ in range(self.n)])
        self.terms = [c.terms for c in model.constraints]
        self.slack = []
        self.max_coef = []
        for ci, c in enumerate(model.constraints):
            drops: dict = {}
            for coef, v in c.terms:
                if coef:
                    drop = drops.setdefault(abs(coef), (ci, abs(coef)))
                    self.falls[coef < 0][v].append(drop)
            self.slack.append(sum(coef for coef, _ in c.terms if coef > 0) - c.rhs)
            self.max_coef.append(max(drops, default=0))
        # the root is not yet a fixpoint: every constraint starts queued
        self.queue = list(range(len(model.constraints)))
        self.queued = [True] * len(model.constraints)
        self.trail: list = []  # assigned vars, in order
        # (pick var, weight) of each clause in clause order, cheapest first
        self.clause_costs = [
            tuple(sorted(((p, w) for p, w, _, _ in model.clause_picks[cl]),
                         key=lambda r: (r[1], r[0])))
            for cl in sorted(model.clause_picks)
        ]
        self.best_cost: Optional[int] = None
        self.best_values: Optional[list] = None
        self.cost = 0
        self.start = time.monotonic()
        self.decisions = 0
        self.trace = SolveTrace()
        self.order = self._branch_order()

    def _branch_order(self):
        sc = sorted(
            self.model.sc_vars.values(),
            key=lambda v: (-self.weights[v], v),
        )
        picks = [p for costs in self.clause_costs for p, _ in costs]
        rest = [
            v for v in range(self.n)
            if self.model.vars[v][0] not in ("SC", "PICK")
        ]
        return sc + picks + rest

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def out_of_budget(self) -> bool:
        if self.elapsed() >= self.budget.wall_time:
            return True
        return (
            self.budget.max_decisions is not None
            and self.decisions >= self.budget.max_decisions
        )

    def assign(self, var: int, val: int):
        """Sets var and queues each constraint whose slack fell below its
        largest |coef|, a conflict (slack below 0) included."""
        self.values[var] = val
        self.trail.append(var)
        if val:
            self.cost += self.weights[var]
        slack, max_coef, queued = self.slack, self.max_coef, self.queued
        for ci, drop in self.falls[val][var]:
            slack[ci] -= drop
            if slack[ci] < max_coef[ci] and not queued[ci]:
                queued[ci] = True
                self.queue.append(ci)

    def clear_queue(self):
        for ci in self.queue:
            self.queued[ci] = False
        self.queue.clear()

    def undo_to(self, mark: int):
        # every mark is taken at a propagation fixpoint, so whatever a
        # conflict left queued can go
        self.clear_queue()
        trail, values, slack = self.trail, self.values, self.slack
        while len(trail) > mark:
            var = trail.pop()
            val = values[var]
            if val:
                self.cost -= self.weights[var]
            values[var] = -1
            for ci, drop in self.falls[val][var]:
                slack[ci] += drop

    def propagate(self) -> bool:
        """Forces the terms of queued constraints to a fixpoint; False on
        conflict, which the caller undoes. A term is forced when its |coef|
        exceeds the slack; forcing it leaves that slack as it is."""
        queue, queued, values, slack = self.queue, self.queued, self.values, self.slack
        while queue:
            ci = queue.pop()
            queued[ci] = False
            s = slack[ci]
            if s < 0:
                return False
            if s >= self.max_coef[ci]:
                continue
            for coef, v in self.terms[ci]:
                if values[v] == -1 and (s < coef or s < -coef):
                    self.assign(v, int(coef > 0))
        return True

    def beats_incumbent(self) -> bool:
        """Whether the node's bound -- committed cost plus each undecided
        clause's cheapest open pick -- stays below the incumbent. Stops
        adding as soon as the bound reaches it. Each clause has exactly one
        pick, so at a fixpoint a true pick leaves every other pick false:
        a clause's first pick that is not false, cheapest first, is either
        its true pick or its cheapest open one."""
        best = self.best_cost
        if best is None:
            return True
        bound = self.cost
        if bound >= best:
            return False
        values = self.values
        for picks in self.clause_costs:
            for pvar, w in picks:
                v = values[pvar]
                if v == 0:
                    continue
                if v == -1:
                    bound += w
                    if bound >= best:
                        return False
                break
        return True

    def record_incumbent(self):
        if self.best_cost is None or self.cost < self.best_cost:
            self.best_cost = self.cost
            self.best_values = list(self.values)
            self.trace.record(self.elapsed(), self.cost)

    def seed_incumbent(self, assignment: Assignment):
        cost = assignment.objective_value
        if self.best_cost is None or cost < self.best_cost:
            self.best_cost = cost
            self.best_values = [
                1 if assignment.values[i] else 0 for i in range(self.n)
            ]
            self.trace.record(self.elapsed(), cost)

    def next_unassigned(self, hint: int) -> int:
        for k in range(hint, len(self.order)):
            if self.values[self.order[k]] == -1:
                return k
        return len(self.order)

    def run(self) -> str:
        """Returns proof status: optimal | timeout | infeasible."""
        mark0 = len(self.trail)
        if not self.propagate():
            return "infeasible" if self.best_cost is None else "optimal"
        # stack entries: (order hint, var, tried values list, trail mark)
        stack = []
        while True:
            if self.out_of_budget():
                return "timeout"
            k = self.next_unassigned(stack[-1][0] if stack else 0)
            if k == len(self.order):
                self.record_incumbent()
            else:
                var = self.order[k]
                mark = len(self.trail)
                self.decisions += 1
                self.assign(var, 1)  # true branch first
                ok = self.propagate()
                stack.append((k, var, [1], mark))
                if ok and self.beats_incumbent():
                    continue
            # backtrack / flip
            while True:
                if not stack:
                    self.undo_to(mark0)
                    return "optimal" if self.best_cost is not None else "infeasible"
                _, var, tried, mark = stack[-1]
                self.undo_to(mark)
                if len(tried) == 1:
                    val = 1 - tried[0]
                    tried.append(val)
                    self.decisions += 1
                    self.assign(var, val)
                    if self.propagate() and self.beats_incumbent():
                        break
                    self.undo_to(mark)
                    stack.pop()
                else:
                    stack.pop()
            if self.out_of_budget():
                return "timeout"


def solve(model: CopModel, budget: SolverBudget) -> tuple:
    """Branch-and-bound minimisation. Returns (Assignment, SolveTrace)."""
    search = _Search(model, budget)
    greedy_deadline = search.start + 0.5 * budget.wall_time
    for _, a in _greedy_selection(model, greedy_deadline):
        if check_assignment(model, a.values):
            search.seed_incumbent(a)
    status = search.run()
    search.trace.decisions = search.decisions
    if search.best_cost is None:
        search.trace.proof_status = "infeasible"
        return Assignment(values={}, objective_value=0, status="infeasible"), search.trace
    values = {i: bool(v) for i, v in enumerate(search.best_values)}
    if status == "optimal":
        a_status = "optimal"
        search.trace.proof_status = "optimal"
    else:
        a_status = "timeout-best"
        search.trace.proof_status = "timeout"
    assignment = Assignment(
        values=values, objective_value=search.best_cost, status=a_status
    )
    if not check_assignment(model, assignment.values):
        raise SolverError("incumbent violates the model constraints")
    return assignment, search.trace


BRUTE_FORCE_SC_CAP = 20


def brute_force_solve(model: CopModel) -> Assignment:
    """Exhaustive optimum: enumerate every support-clause subset and
    complete it deterministically. Correctness oracle for solve()."""
    sc_vars = sorted(model.sc_vars.values())
    if len(sc_vars) > BRUTE_FORCE_SC_CAP:
        raise InstanceTooLarge(
            f"{len(sc_vars)} support-clause variables exceed the brute-force cap"
        )
    best: Optional[Assignment] = None
    for mask in range(1 << len(sc_vars)):
        chosen = {v for k, v in enumerate(sc_vars) if mask >> k & 1}
        a = assignment_from_selection(model, chosen)
        if a is None:
            continue
        if not check_assignment(model, a.values):
            continue
        if best is None or a.objective_value < best.objective_value:
            best = a
    if best is None:
        return Assignment(values={}, objective_value=0, status="infeasible")
    return Assignment(
        values=best.values, objective_value=best.objective_value, status="optimal"
    )
