"""Anytime exact branch-and-bound for the pseudo-Boolean refactoring
models.

The search is deterministic for a fixed model (branching is static). A
greedy primal pass seeds the incumbent so good solutions appear early,
then depth-first branch and bound over the support-clause selection, with
unit propagation, closes the gap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .copmodel import Assignment, CopModel, check_assignment, objective_value


class SolverError(Exception):
    pass


@dataclass
class SolverBudget:
    wall_time: float = 60.0
    max_decisions: Optional[int] = None

    def __post_init__(self):
        # a NaN budget would never run out: every elapsed >= nan is false
        if not (math.isfinite(self.wall_time) and self.wall_time > 0):
            raise ValueError("wall_time must be finite and positive")
        cap = self.max_decisions
        if cap is not None and (
            isinstance(cap, bool) or not isinstance(cap, int) or cap < 0
        ):
            raise ValueError("max_decisions must be None or an int >= 0")


@dataclass
class SolveTrace:
    history: list = field(default_factory=list)  # (elapsed_seconds, objective)
    decisions: int = 0  # support-clause branches tried

    def record(self, elapsed: float, objective: int):
        if self.history and objective >= self.history[-1][1]:
            return
        self.history.append((elapsed, objective))


# ---------------------------------------------------------------------------
# Derived assignments from a support-clause selection

def assignment_from_selection(model: CopModel, chosen_sc: set) -> Optional[Assignment]:
    """Complete a support-clause selection into a full assignment: each
    clause takes the first option in its ranked list whose required
    support clauses are all selected, redundancy vars follow from it."""
    values = [False] * model.num_vars
    for v in chosen_sc:
        values[v] = True
    for sv, deps in model.sc_deps.items():
        if values[sv] and not all(values[d] for d in deps):
            return None
    if model.sc_cap is not None and len(chosen_sc) > model.sc_cap:
        return None
    for picks in model.clause_picks.values():
        for pvar in picks:
            if all(values[sv] for sv in model.pick_required[pvar]):
                values[pvar] = True
                break
        else:
            return None
    for rvar, members in model.red_members.items():
        occ = model.red_base.get(rvar, 0) + sum(1 for f in members if values[f])
        values[rvar] = occ > 1
    obj = objective_value(model, values)
    return Assignment(values=values, objective_value=obj, status="feasible")


def _closure(v: int, edges: dict) -> set:
    """v and every var reachable from it along `edges` (var -> vars)."""
    seen = {v}
    stack = [v]
    while stack:
        for d in edges.get(stack.pop(), ()):
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return seen


def _greedy_selection(model: CopModel, deadline: Optional[float] = None):
    """Greedy add/drop over support clauses, guided by the exact objective.
    Yields each improving assignment as soon as it is found."""
    sc_vars = sorted(model.sc_vars.values())
    # order additions by potential savings: weight ascending is a cheap proxy
    ordered = sorted(sc_vars, key=lambda v: (model.objective.get(v, 0), v))
    dependents: dict = {}
    for sv, deps in model.sc_deps.items():
        for d in deps:
            dependents.setdefault(d, []).append(sv)
    chosen: set = set()
    base = assignment_from_selection(model, chosen)
    if base is None:
        return
    yield base
    best = base.objective_value
    improved = True
    rounds = 0
    while improved and rounds < 4:
        improved = False
        rounds += 1
        for v in ordered:
            if deadline is not None and time.monotonic() > deadline:
                return
            # an addition brings what v needs, at every depth; a drop takes
            # what needs v
            if v in chosen:
                trial = chosen - _closure(v, dependents)
            else:
                trial = chosen | _closure(v, model.sc_deps)
            a = assignment_from_selection(model, trial)
            if a is not None and a.objective_value < best:
                chosen = trial
                best = a.objective_value
                yield a
                improved = True


# ---------------------------------------------------------------------------
# Branch and bound

class _Search:
    """Depth-first branch and bound over the support-clause (SC) variables
    only: each clause's folding (PICK) and the redundancy penalties (RED)
    follow from the selection.

    Constraints over SC variables alone (`sc-dep`, `pred-cap`) propagate
    by counters (Chai & Kuehlmann, DAC 2003). Each keeps its slack: the
    largest value its left side can still reach, minus its rhs. Assigning
    a var lowers only the slacks of the constraints it occurs in, and
    queues those whose slack fell below their largest |coef|: only they
    can force a term.

    The constraints with a PICK or RED var are the encoding's, and only
    feed the bound. A clause's folding options run in copmodel's rank
    order, lightest first down to one that requires no SC (checked here);
    an option is available while none of the SCs it requires is 0, so the
    first available one is the cheapest, and there always is one. A
    RED group charges its weight once its base count (0 or 1, as copmodel
    encodes it) plus its selected members reach 2. The bound, committed
    cost plus each clause's cheapest available option, is kept up to
    date, so it costs O(1) a node, and it is the exact objective once
    every SC is set."""

    def __init__(self, model: CopModel, budget: SolverBudget):
        for v, tag in enumerate(model.vars):
            if tag[0] not in ("SC", "PICK", "RED"):
                raise SolverError(f"variable {v} {tag!r} is not SC, PICK or RED")
        self.model = model
        self.budget = budget
        n = model.num_vars
        is_sc = [tag[0] == "SC" for tag in model.vars]
        self.values = [-1] * n
        self.weights = [model.objective.get(i, 0) for i in range(n)]
        self.cost = 0
        # falls[val][var]: (ci, drop) for each SC constraint whose slack
        # drops when var takes val -- by coef if coef > 0 and val is 0, by
        # -coef if coef < 0 and val is 1; equal pairs share one tuple
        self.falls = ([[] for _ in range(n)], [[] for _ in range(n)])
        self.constraints = [
            c for c in model.constraints if all(is_sc[v] for _, v in c.terms)
        ]
        self.terms = [c.terms for c in self.constraints]
        self.slack = []
        self.max_coef = []
        for ci, c in enumerate(self.constraints):
            drops: dict = {}
            for coef, v in c.terms:
                if coef:
                    drop = drops.setdefault(abs(coef), (ci, abs(coef)))
                    self.falls[coef < 0][v].append(drop)
            self.slack.append(sum(coef for coef, _ in c.terms if coef > 0) - c.rhs)
            self.max_coef.append(max(drops, default=0))
        # the root is not yet a fixpoint: every SC constraint starts queued
        self.queue = list(range(len(self.constraints)))
        self.queued = [True] * len(self.constraints)
        # folding options of all clauses in one run, each clause's in rank
        # order; zeros[o] counts the SCs option o requires set to 0
        self.opt_weight, self.opt_clause = [], []
        self.needed_by = [[] for _ in range(n)]  # SC var -> options requiring it
        self.cheapest = []  # per clause
        for c, cl in enumerate(sorted(model.clause_picks)):
            picks = model.clause_picks[cl]
            weights = [self.weights[p] for p in picks]
            if not picks or weights != sorted(weights) or model.pick_required[picks[-1]]:
                raise SolverError(f"clause {cl}'s options are not ranked down to a free one")
            self.cheapest.append(len(self.opt_weight))
            for o, p in enumerate(picks, len(self.opt_weight)):
                for sv in model.pick_required[p]:
                    self.needed_by[sv].append(o)
            self.opt_weight += weights
            self.opt_clause += [c] * len(picks)
        self.zeros = [0] * len(self.opt_weight)
        self.open_sum = sum(self.opt_weight[o] for o in self.cheapest)
        # each RED group's base count plus selected members
        self.red_count, self.red_weight = [], []
        self.red_of = [[] for _ in range(n)]  # SC var -> its groups
        for g, (rvar, members) in enumerate(model.red_members.items()):
            self.red_count.append(model.red_base.get(rvar, 0))
            self.red_weight.append(self.weights[rvar])
            for sv in members:
                self.red_of[sv].append(g)
        self.trail: list = []  # assigned vars, in order
        self.best_cost: Optional[int] = None
        self.best_values: Optional[list] = None
        self.start = time.monotonic()
        self.trace = SolveTrace()
        self.order = sorted(
            (v for v in range(n) if is_sc[v]), key=lambda v: (-self.weights[v], v)
        )

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def out_of_budget(self) -> bool:
        if self.elapsed() >= self.budget.wall_time:
            return True
        return (
            self.budget.max_decisions is not None
            and self.trace.decisions >= self.budget.max_decisions
        )

    def assign(self, var: int, val: int):
        """Sets SC var, updates the cost, the RED counts and the clauses'
        cheapest options, and queues each SC constraint whose slack fell
        below its largest |coef| (a conflict, slack below 0, included)."""
        self.values[var] = val
        self.trail.append(var)
        slack, max_coef, queued = self.slack, self.max_coef, self.queued
        for ci, drop in self.falls[val][var]:
            slack[ci] -= drop
            if slack[ci] < max_coef[ci] and not queued[ci]:
                queued[ci] = True
                self.queue.append(ci)
        if val:
            self.cost += self.weights[var]
            counts = self.red_count
            for g in self.red_of[var]:
                counts[g] += 1
                if counts[g] == 2:
                    self.cost += self.red_weight[g]
            return
        zeros, cheapest = self.zeros, self.cheapest
        for o in self.needed_by[var]:
            zeros[o] += 1
            c = self.opt_clause[o]
            if cheapest[c] == o:
                # the scan stops at the clause's last option at the latest
                nxt = o + 1
                while zeros[nxt]:
                    nxt += 1
                cheapest[c] = nxt
                self.open_sum += self.opt_weight[nxt] - self.opt_weight[o]

    def undo_to(self, mark: int):
        # every mark is taken at a propagation fixpoint, so whatever a
        # conflict left queued can go
        for ci in self.queue:
            self.queued[ci] = False
        self.queue.clear()
        trail, values, slack = self.trail, self.values, self.slack
        zeros, cheapest, counts = self.zeros, self.cheapest, self.red_count
        opt_clause = self.opt_clause
        while len(trail) > mark:
            var = trail.pop()
            val = values[var]
            values[var] = -1
            for ci, drop in self.falls[val][var]:
                slack[ci] += drop
            if val:
                self.cost -= self.weights[var]
                for g in self.red_of[var]:
                    if counts[g] == 2:
                        self.cost -= self.red_weight[g]
                    counts[g] -= 1
                continue
            for o in self.needed_by[var]:
                zeros[o] -= 1
                c = opt_clause[o]
                if not zeros[o] and o < cheapest[c]:
                    self.open_sum += self.opt_weight[o] - self.opt_weight[cheapest[c]]
                    cheapest[c] = o

    def propagate(self) -> bool:
        """Forces the terms of queued SC constraints to a fixpoint; False
        on conflict, which the caller undoes. A term is forced when its
        |coef| exceeds the slack; forcing it leaves that slack as it is."""
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
        return self.best_cost is None or self.cost + self.open_sum < self.best_cost

    def record_leaf(self):
        """Completes the selection of a leaf, where every SC is set, by the
        rule greedy and brute force use; its objective must be the bound."""
        bound = self.cost + self.open_sum
        a = assignment_from_selection(
            self.model, {v for v in self.order if self.values[v] == 1}
        )
        if a is None or a.objective_value != bound:
            got = None if a is None else a.objective_value
            raise SolverError(f"a leaf completes to {got}, not to its bound {bound}")
        self.seed_incumbent(a)

    def seed_incumbent(self, assignment: Assignment):
        cost = assignment.objective_value
        if self.best_cost is None or cost < self.best_cost:
            self.best_cost = cost
            self.best_values = assignment.values
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
        # stack entries: (order index, var, trail mark, whether flipped to 0)
        stack = []
        while True:
            if self.out_of_budget():
                return "timeout"
            k = self.next_unassigned(stack[-1][0] if stack else 0)
            if k == len(self.order):
                self.record_leaf()
            else:
                var = self.order[k]
                mark = len(self.trail)
                self.trace.decisions += 1
                self.assign(var, 1)  # true branch first
                stack.append((k, var, mark, False))
                if self.propagate() and self.beats_incumbent():
                    continue
            # backtrack / flip
            while True:
                if not stack:
                    self.undo_to(mark0)
                    return "optimal" if self.best_cost is not None else "infeasible"
                k, var, mark, flipped = stack.pop()
                self.undo_to(mark)
                if flipped:
                    continue
                self.trace.decisions += 1
                self.assign(var, 0)
                if self.propagate() and self.beats_incumbent():
                    stack.append((k, var, mark, True))
                    break
                self.undo_to(mark)
            if self.out_of_budget():
                return "timeout"


def solve(model: CopModel, budget: SolverBudget) -> tuple:
    """Branch-and-bound minimisation. Returns (Assignment, SolveTrace)."""
    search = _Search(model, budget)
    greedy_deadline = search.start + 0.5 * budget.wall_time
    for a in _greedy_selection(model, greedy_deadline):
        if check_assignment(model, a.values):
            search.seed_incumbent(a)
    status = search.run()
    if search.best_cost is None:
        return Assignment(values=[], objective_value=0, status="infeasible"), search.trace
    assignment = Assignment(
        values=search.best_values,
        objective_value=search.best_cost,
        status="optimal" if status == "optimal" else "timeout-best",
    )
    if not check_assignment(model, assignment.values):
        raise SolverError("incumbent violates the model constraints")
    return assignment, search.trace
