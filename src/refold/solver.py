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
    search_s: float = 0.0  # seconds in branch and bound, after greedy

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
    order, lightest first down to one that requires no SC (checked here).
    An option is blocked while one of the SCs it requires is 0: each
    clause keeps a bitmask of its blocked options, and setting an SC to 0
    ORs in the (clause, mask) pairs of the options that require it. The
    clause's cheapest option is its first unblocked one, the lowest zero
    bit, and there always is one, since the last option is never blocked.
    Each change of a mask is logged with the clause's old mask, its old
    first option and the old bound sum, so undo restores them from the
    log. A RED group charges its weight once its base count (0 or 1, as
    copmodel encodes it) plus its selected members reach 2. The bound,
    committed cost plus each clause's cheapest option, is kept up to
    date, so it costs O(1) a node, and it is the exact objective once
    every SC is set.

    `run` checks the decision cap before every decision, and reads the
    clock before every CLOCK_EVERY-th."""

    CLOCK_EVERY = 32

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
        # each clause's option weights in rank order, its blocked-option
        # bitmask and its first unblocked option
        self.opt_weights = []
        self.blocks = [[] for _ in range(n)]  # SC var -> (clause, mask)
        for c, cl in enumerate(sorted(model.clause_picks)):
            picks = model.clause_picks[cl]
            weights = [self.weights[p] for p in picks]
            if not picks or weights != sorted(weights) or model.pick_required[picks[-1]]:
                raise SolverError(f"clause {cl}'s options are not ranked down to a free one")
            masks: dict = {}
            for bit, p in enumerate(picks):
                for sv in model.pick_required[p]:
                    masks[sv] = masks.get(sv, 0) | 1 << bit
            for sv, mask in masks.items():
                self.blocks[sv].append((c, mask))
            self.opt_weights.append(weights)
        self.blocked = [0] * len(self.opt_weights)
        self.first = [0] * len(self.opt_weights)
        self.open_sum = sum(weights[0] for weights in self.opt_weights)
        # (trail length, clause, old mask, old first, old open_sum) per change
        self.mask_log: list = [(-1, 0, 0, 0, 0)]  # a sentinel, never undone
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

    def assign(self, var: int, val: int):
        """Sets SC var, updates the cost, the RED counts and the clauses'
        blocked options, and queues each SC constraint whose slack fell
        below its largest |coef| (a conflict, slack below 0, included)."""
        self.values[var] = val
        trail = self.trail
        trail.append(var)
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
        blocked, first, log = self.blocked, self.first, self.mask_log
        depth = len(trail)
        open_sum = self.open_sum
        for c, mask in self.blocks[var]:
            old = blocked[c]
            new = old | mask
            if new != old:
                f = first[c]
                log.append((depth, c, old, f, open_sum))
                blocked[c] = new
                if mask >> f & 1:
                    # the lowest zero bit; the last option's is never set
                    nf = (~new & (new + 1)).bit_length() - 1
                    first[c] = nf
                    weights = self.opt_weights[c]
                    open_sum += weights[nf] - weights[f]
        self.open_sum = open_sum

    def undo_to(self, mark: int):
        # every mark is taken at a propagation fixpoint, so whatever a
        # conflict left queued can go
        queue = self.queue
        if queue:
            for ci in queue:
                self.queued[ci] = False
            queue.clear()
        trail, values, falls, slack = self.trail, self.values, self.falls, self.slack
        weights, red_of, counts = self.weights, self.red_of, self.red_count
        cost = self.cost
        for var in trail[mark:]:
            val = values[var]
            values[var] = -1
            for ci, drop in falls[val][var]:
                slack[ci] += drop
            if val:
                cost -= weights[var]
                for g in red_of[var]:
                    if counts[g] == 2:
                        cost -= self.red_weight[g]
                    counts[g] -= 1
        self.cost = cost
        del trail[mark:]
        log = self.mask_log
        if log[-1][0] > mark:
            blocked, first = self.blocked, self.first
            while log[-1][0] > mark:
                _, c, blocked[c], first[c], open_sum = log.pop()
            self.open_sum = open_sum

    def propagate(self) -> bool:
        """Forces the terms of queued SC constraints to a fixpoint; False
        on conflict, which the caller undoes. A term is forced when its
        |coef| exceeds the slack; forcing it leaves that slack as it is."""
        queue, queued, values, slack = self.queue, self.queued, self.values, self.slack
        max_coef, terms = self.max_coef, self.terms
        while queue:
            ci = queue.pop()
            queued[ci] = False
            s = slack[ci]
            if s < 0:
                return False
            if s >= max_coef[ci]:
                continue
            for coef, v in terms[ci]:
                if values[v] == -1 and (s < coef or s < -coef):
                    self.assign(v, int(coef > 0))
        return True

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

    def run(self) -> str:
        """Returns proof status: optimal | timeout | infeasible. Each node
        sets one var (propagating only when a constraint is queued) and
        each backtrack undoes once, to the deepest true branch left, which
        is then flipped to 0."""
        mark0 = len(self.trail)
        if not self.propagate():
            return "infeasible" if self.best_cost is None else "optimal"
        values, order, trail, queue = self.values, self.order, self.trail, self.queue
        assign, undo_to, propagate = self.assign, self.undo_to, self.propagate
        cap, every = self.budget.max_decisions, self.CLOCK_EVERY
        deadline = self.start + self.budget.wall_time
        monotonic = time.monotonic
        size = len(order)
        best = self.best_cost
        decisions = 0
        stack = []  # (order index, var, trail mark) of each true branch taken
        k = 0  # no var before order[k] is free
        descend = True
        while True:
            if descend:
                while k < size and values[order[k]] != -1:
                    k += 1
                if k == size:
                    self.record_leaf()
                    best = self.best_cost
                    descend = False
            if descend:  # true branch first
                var, val = order[k], 1
                stack.append((k, var, len(trail)))
            elif stack:  # flip the deepest true branch left
                k, var, mark = stack.pop()
                undo_to(mark)
                val = 0
            else:
                undo_to(mark0)
                status = "optimal" if best is not None else "infeasible"
                break
            if decisions == cap or (not decisions % every and monotonic() >= deadline):
                status = "timeout"
                break
            decisions += 1
            assign(var, val)
            descend = (not queue or propagate()) and (
                best is None or self.cost + self.open_sum < best
            )
        self.trace.decisions = decisions
        return status


def solve(model: CopModel, budget: SolverBudget) -> tuple:
    """Branch-and-bound minimisation. Returns (Assignment, SolveTrace)."""
    search = _Search(model, budget)
    greedy_deadline = search.start + 0.5 * budget.wall_time
    for a in _greedy_selection(model, greedy_deadline):
        if check_assignment(model, a.values):
            search.seed_incumbent(a)
    t0 = time.monotonic()
    status = search.run()
    search.trace.search_s = time.monotonic() - t0
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
