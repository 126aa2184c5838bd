"""Anytime exact branch-and-bound for the pseudo-Boolean refactoring
models, plus an exhaustive oracle for small instances.

The search is deterministic for a fixed model (branching is static). A
greedy primal pass seeds the incumbent so good solutions appear early,
then depth-first branch and bound with unit propagation closes the gap.
"""

from __future__ import annotations

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
        if self.wall_time <= 0:
            raise ValueError("wall_time must be positive")


@dataclass
class SolveTrace:
    history: list = field(default_factory=list)  # (elapsed_seconds, objective)
    proof_status: str = "unknown"

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
    def __init__(self, model: CopModel, budget: SolverBudget):
        self.model = model
        self.budget = budget
        self.n = model.num_vars
        self.values = [-1] * self.n
        self.weights = [model.objective.get(i, 0) for i in range(self.n)]
        self.constraints = model.constraints
        self.watch = [[] for _ in range(self.n)]
        self.max_lhs = []
        for ci, c in enumerate(self.constraints):
            mx = 0
            for coef, v in c.terms:
                self.watch[v].append(ci)
                if coef > 0:
                    mx += coef
            self.max_lhs.append(mx)
        self.trail: list = []  # (var, [(ci, delta)])
        self.best_cost: Optional[int] = None
        self.best_values: Optional[list] = None
        self.cost = 0
        self.start = time.monotonic()
        self.decisions = 0
        self.nodes = 0
        self.trace = SolveTrace()
        self.order = self._branch_order()

    def _branch_order(self):
        sc = sorted(
            self.model.sc_vars.values(),
            key=lambda v: (-self.weights[v], v),
        )
        picks = []
        for cl in sorted(self.model.clause_picks):
            picks.extend(
                p for p, _, _, _ in sorted(
                    self.model.clause_picks[cl], key=lambda r: (r[1], r[0])
                )
            )
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

    def assign(self, var: int, val: int) -> bool:
        """Returns False on conflict."""
        deltas = []
        self.values[var] = val
        if val:
            self.cost += self.weights[var]
        ok = True
        for ci in self.watch[var]:
            c = self.constraints[ci]
            for coef, v in c.terms:
                if v == var:
                    delta = coef * val - max(coef, 0)
                    if delta:
                        self.max_lhs[ci] += delta
                        deltas.append((ci, delta))
                    if self.max_lhs[ci] < c.rhs:
                        ok = False
        self.trail.append((var, deltas))
        return ok

    def undo_to(self, mark: int):
        while len(self.trail) > mark:
            var, deltas = self.trail.pop()
            if self.values[var]:
                self.cost -= self.weights[var]
            self.values[var] = -1
            for ci, delta in deltas:
                self.max_lhs[ci] -= delta

    def propagate(self) -> bool:
        """Fixpoint forcing; False on conflict."""
        changed = True
        while changed:
            changed = False
            for ci, c in enumerate(self.constraints):
                slack = self.max_lhs[ci] - c.rhs
                if slack < 0:
                    return False
                for coef, v in c.terms:
                    if self.values[v] != -1:
                        continue
                    if coef > 0 and slack - coef < 0:
                        if not self.assign(v, 1):
                            return False
                        changed = True
                    elif coef < 0 and slack + coef < 0:
                        if not self.assign(v, 0):
                            return False
                        changed = True
        return True

    def lower_bound(self) -> int:
        lb = self.cost
        for cl, picks in self.model.clause_picks.items():
            has_true = False
            mn = None
            for pvar, w, _, _ in picks:
                v = self.values[pvar]
                if v == 1:
                    has_true = True
                    break
                if v == -1 and (mn is None or w < mn):
                    mn = w
            if not has_true and mn is not None:
                lb += mn
        return lb

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
        completed = False
        while True:
            if self.out_of_budget():
                return "timeout"
            k = self.next_unassigned(stack[-1][0] if stack else 0)
            if k == len(self.order):
                self.record_incumbent()
                completed = True
            else:
                var = self.order[k]
                mark = len(self.trail)
                self.decisions += 1
                val = 1  # true branch first
                ok = self.assign(var, val) and self.propagate()
                bound_ok = ok and (
                    self.best_cost is None or self.lower_bound() < self.best_cost
                )
                stack.append((k, var, [val], mark))
                if bound_ok:
                    continue
                completed = False
            # backtrack / flip
            while True:
                if not stack:
                    self.undo_to(mark0)
                    return "optimal" if self.best_cost is not None else "infeasible"
                kk, var, tried, mark = stack[-1]
                self.undo_to(mark)
                if len(tried) == 1:
                    val = 1 - tried[0]
                    tried.append(val)
                    self.decisions += 1
                    ok = self.assign(var, val) and self.propagate()
                    if ok and (
                        self.best_cost is None or self.lower_bound() < self.best_cost
                    ):
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
