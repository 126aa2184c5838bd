import random
import time
from types import SimpleNamespace

import pytest

import refold.solver as solver_mod
from refold.candidates import build_search_space
from refold.copmodel import CopModel, LinearConstraint, check_assignment, encode
from refold.logic import parse_program
from refold.solver import (
    SolverBudget,
    SolverError,
    SolveTrace,
    assignment_from_selection,
    solve,
)
from refold.transform import unfold

from tests.conftest import random_chain_program, random_program
from tests.oracles import InstanceTooLarge, brute_force_solve
from tests.test_copmodel import chain_program, encoded, lego_bk_program


def random_model(rng: random.Random, n_sc: int = 6) -> CopModel:
    """A random pure-selection model: SC vars, random >=-constraints, random
    weights. No clause/pick structure, exercised via raw constraints."""
    m = CopModel(vars=[], constraints=[], objective={})
    for k in range(n_sc):
        m.vars.append(("SC", k))
        m.sc_vars[k] = k
        m.objective[k] = rng.randint(1, 9)
    for _ in range(rng.randint(1, 2 * n_sc)):
        size = rng.randint(1, min(3, n_sc))
        vs = rng.sample(range(n_sc), size)
        terms = tuple((rng.choice([-2, -1, 1, 2]), v) for v in vs)
        max_lhs = sum(max(c, 0) for c, _ in terms)
        min_lhs = sum(min(c, 0) for c, _ in terms)
        rhs = rng.randint(min_lhs, max_lhs)
        m.constraints.append(LinearConstraint(terms, rhs))
    return m


def random_clause_model(rng: random.Random, n_sc: int = 5) -> CopModel:
    """A random model with the encoding's constraint families, where each
    clause's level-0 option requires nothing, as the raw option does in
    encoded models, but its other options often require SCs, and a RED
    group's base count is below 2, as in encoded models, so options drop
    out and groups charge as SCs are set.
    Each clause's options are ranked as encode ranks them, and those after
    the first one that requires no SC, which are never taken, are left
    out."""
    m = CopModel(vars=[], constraints=[], objective={})

    def new_var(tag, weight) -> int:
        m.vars.append(tag)
        m.objective[len(m.vars) - 1] = weight
        return len(m.vars) - 1

    def add(terms, rhs, label):
        m.constraints.append(LinearConstraint(tuple(terms), rhs, label))

    sc = [new_var(("SC", k), rng.randint(1, 6)) for k in range(n_sc)]
    for k, v in enumerate(sc):
        m.sc_vars[k] = v
        deps = (rng.choice(sc[:k]),) if k and rng.random() < 0.2 else ()
        m.sc_deps[v] = deps
        for d in deps:
            add([(1, d), (-1, v)], 0, "sc-dep")
    for cl in range(rng.randint(1, 4)):
        options = []
        for k in range(rng.randint(1, 3)):
            lvl, n = (0, 0) if k == 0 else (1, k - 1)
            weight = rng.randint(1, 4)
            req = () if lvl == 0 else tuple(
                sorted(rng.sample(sc, rng.randint(0, min(2, n_sc))))
            )
            options.append((weight, lvl, n, req))
        options.sort()
        free = next(k for k, opt in enumerate(options) if not opt[3])
        picks = []
        for weight, lvl, n, req in options[: free + 1]:
            p = new_var(("PICK", cl, lvl, n), weight)
            m.pick_required[p] = req
            for v in req:
                add([(1, v), (-1, p)], 0, "pick-needs-sc")
            picks.append(p)
        add([(1, p) for p in picks], 1, "pick-lo")
        add([(-1, p) for p in picks], -1, "pick-hi")
        m.clause_picks[cl] = picks
    for g in range(rng.randint(0, 3)):
        members = tuple(rng.sample(sc, rng.randint(1, min(3, n_sc))))
        base = rng.randint(0, 1)
        r = new_var(("RED", g), 1)
        m.red_members[r], m.red_base[r] = members, base
        k = base + len(members)
        add([(k - 1, r)] + [(-1, f) for f in members], base - 1, "red-force")
        add([(1, f) for f in members] + [(-2, r)], -base, "red-honest")
    if rng.random() < 0.3:
        m.sc_cap = rng.randint(0, n_sc - 1)
        add([(-1, v) for v in sc], -m.sc_cap, "pred-cap")
    return m


def exhaustive_optimum(m: CopModel):
    best = None
    for mask in range(1 << m.num_vars):
        values = {v: bool(mask >> v & 1) for v in range(m.num_vars)}
        if not check_assignment(m, values):
            continue
        obj = sum(w for v, w in m.objective.items() if values[v])
        if best is None or obj < best:
            best = obj
    return best


def rescan_fixpoint(model: CopModel, values: list):
    """Reference unit propagation: rescan every constraint until nothing
    changes. A term is forced when its |coef| exceeds the slack of its
    constraint. Returns the forced values, or None on conflict."""
    values = list(values)
    changed = True
    while changed:
        changed = False
        for c in model.constraints:
            slack = reachable_lhs(c, values) - c.rhs
            if slack < 0:
                return None
            for coef, v in c.terms:
                if values[v] == -1 and abs(coef) > slack:
                    values[v] = 1 if coef > 0 else 0
                    changed = True
    return values


def reachable_lhs(c: LinearConstraint, values: list) -> int:
    """The largest left side `c` can still reach under partial `values`."""
    return sum(
        coef * values[v] if values[v] != -1 else max(coef, 0) for coef, v in c.terms
    )


def full_clause_bound(model: CopModel, values: list) -> int:
    """The bound over the full PB model: the cost of every var set to 1
    plus, for each clause with no PICK set, its cheapest open PICK."""
    bound = sum(w for v, w in model.objective.items() if values[v] == 1)
    for picks in model.clause_picks.values():
        states = [(values[p], model.objective[p]) for p in picks]
        open_weights = [w for val, w in states if val == -1]
        if open_weights and all(val != 1 for val, _ in states):
            bound += min(open_weights)
    return bound


class _PickBranchingSearch:
    """Reference: the search before it branched on SC vars only. It
    branches on every SC var, then on every PICK var, then on the rest,
    propagating all constraints by counters, and bounds by summing each
    clause's cheapest open pick. Two changes: `sc_decisions` counts the
    branches on SC vars, and the decision budget counts those, as the
    solver's own `decisions` does; and the budget is checked before
    every SC decision, as the solver checks its cap."""

    def __init__(self, model: CopModel, budget: SolverBudget):
        self.model = model
        self.budget = budget
        self.n = model.num_vars
        self.values = [-1] * self.n
        self.weights = [model.objective.get(i, 0) for i in range(self.n)]
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
        self.queue = list(range(len(model.constraints)))
        self.queued = [True] * len(model.constraints)
        self.trail: list = []
        # each clause's picks in copmodel's rank order, cheapest first
        self.clause_costs = [
            tuple((p, model.objective[p]) for p in model.clause_picks[cl])
            for cl in sorted(model.clause_picks)
        ]
        self.best_cost = None
        self.best_values = None
        self.cost = 0
        self.start = time.monotonic()
        self.decisions = 0
        self.sc_decisions = 0
        self.trace = SolveTrace()
        sc = sorted(model.sc_vars.values(), key=lambda v: (-self.weights[v], v))
        picks = [p for costs in self.clause_costs for p, _ in costs]
        rest = [v for v in range(self.n) if model.vars[v][0] not in ("SC", "PICK")]
        self.order = sc + picks + rest

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def out_of_budget(self, var: int) -> bool:
        """Checked before each decision; the cap counts SC decisions."""
        if self.elapsed() >= self.budget.wall_time:
            return True
        return (
            self.model.vars[var][0] == "SC"
            and self.budget.max_decisions is not None
            and self.sc_decisions >= self.budget.max_decisions
        )

    def decide(self, var: int, val: int):
        self.decisions += 1
        self.sc_decisions += self.model.vars[var][0] == "SC"
        self.assign(var, val)

    def assign(self, var: int, val: int):
        self.values[var] = val
        self.trail.append(var)
        if val:
            self.cost += self.weights[var]
        for ci, drop in self.falls[val][var]:
            self.slack[ci] -= drop
            if self.slack[ci] < self.max_coef[ci] and not self.queued[ci]:
                self.queued[ci] = True
                self.queue.append(ci)

    def clear_queue(self):
        for ci in self.queue:
            self.queued[ci] = False
        self.queue.clear()

    def undo_to(self, mark: int):
        self.clear_queue()
        while len(self.trail) > mark:
            var = self.trail.pop()
            val = self.values[var]
            if val:
                self.cost -= self.weights[var]
            self.values[var] = -1
            for ci, drop in self.falls[val][var]:
                self.slack[ci] += drop

    def propagate(self) -> bool:
        while self.queue:
            ci = self.queue.pop()
            self.queued[ci] = False
            s = self.slack[ci]
            if s < 0:
                return False
            if s >= self.max_coef[ci]:
                continue
            for coef, v in self.terms[ci]:
                if self.values[v] == -1 and (s < coef or s < -coef):
                    self.assign(v, int(coef > 0))
        return True

    def beats_incumbent(self) -> bool:
        if self.best_cost is None:
            return True
        bound = self.cost
        for picks in self.clause_costs:
            for pvar, w in picks:
                if self.values[pvar] == 0:
                    continue
                if self.values[pvar] == -1:
                    bound += w
                break
        return bound < self.best_cost

    def record_incumbent(self):
        if self.best_cost is None or self.cost < self.best_cost:
            self.best_cost = self.cost
            self.best_values = list(self.values)
            self.trace.record(self.elapsed(), self.cost)

    def seed_incumbent(self, assignment):
        cost = assignment.objective_value
        if self.best_cost is None or cost < self.best_cost:
            self.best_cost = cost
            self.best_values = [1 if assignment.values[i] else 0 for i in range(self.n)]
            self.trace.record(self.elapsed(), cost)

    def next_unassigned(self, hint: int) -> int:
        for k in range(hint, len(self.order)):
            if self.values[self.order[k]] == -1:
                return k
        return len(self.order)

    def run(self) -> str:
        mark0 = len(self.trail)
        if not self.propagate():
            return "infeasible" if self.best_cost is None else "optimal"
        stack = []
        while True:
            k = self.next_unassigned(stack[-1][0] if stack else 0)
            if k == len(self.order):
                self.record_incumbent()
            else:
                var = self.order[k]
                if self.out_of_budget(var):
                    return "timeout"
                mark = len(self.trail)
                self.decide(var, 1)
                ok = self.propagate()
                stack.append((k, var, [1], mark))
                if ok and self.beats_incumbent():
                    continue
            while True:
                if not stack:
                    self.undo_to(mark0)
                    return "optimal" if self.best_cost is not None else "infeasible"
                _, var, tried, mark = stack[-1]
                self.undo_to(mark)
                if len(tried) == 1:
                    if self.out_of_budget(var):
                        return "timeout"
                    tried.append(0)
                    self.decide(var, 0)
                    if self.propagate() and self.beats_incumbent():
                        break
                    self.undo_to(mark)
                stack.pop()


class _RescanSearch(_PickBranchingSearch):
    """The reference search with the reference fixpoint for propagation
    and the full bound, summed over every clause, for pruning."""

    def propagate(self) -> bool:
        forced = rescan_fixpoint(self.model, self.values)
        if forced is not None:
            for v, val in enumerate(forced):
                if self.values[v] == -1 and val != -1:
                    self.assign(v, val)
        self.clear_queue()
        return forced is not None

    def beats_incumbent(self) -> bool:
        return self.best_cost is None or (
            full_clause_bound(self.model, self.values) < self.best_cost
        )


def solve_with(search_class, model: CopModel, budget: SolverBudget, monkeypatch):
    """solve() with `search_class` in place of the solver's search; returns
    the assignment, the trace and the search."""
    made = []

    class Recorded(search_class):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with monkeypatch.context() as patched:
        patched.setattr(solver_mod, "_Search", Recorded)
        got, trace = solve(model, budget)
    return got, trace, made[0]


def two_level_model() -> CopModel:
    """A model with level-2 candidates, so with `sc-dep` constraints."""
    rng = random.Random(4)
    prog = random_chain_program(rng, 2, rng.randint(5, 8), lambda: rng.randint(6, 9))
    model = encoded(prog)[2]
    assert any(model.sc_deps.values())
    return model


def pred_cap_model() -> CopModel:
    """A model whose `pred-cap` row binds: one support predicate in the
    input, so at most one candidate, where the optimum without the cap
    selects two."""
    rng = random.Random(0)
    lines = [
        "#primitive p0/2.", "#primitive p1/2.", "#primitive p2/2.",
        "#support s/2.", "s(A,C) :- p0(A,B), p1(B,C).",
    ]
    lines += [f"#task t{c}/2." for c in range(6)]
    for c in range(6):
        blen = rng.randint(4, 7)
        lits = [f"p{rng.randrange(3)}(V{k},V{k + 1})" for k in range(blen)]
        k = rng.randrange(blen)
        lits[k] = f"s(V{k},V{k + 1})"
        lines.append(f"t{c}(V0,V{blen}) :- {', '.join(lits)}.")
    prog = parse_program("\n".join(lines))
    model = encoded(prog, original_predicates=len(prog.registry.entries))[2]
    assert model.sc_cap == 1 and len(model.sc_vars) > 1
    assert any(c.label == "pred-cap" for c in model.constraints)
    return model


def propagation_models(rng: random.Random) -> list:
    models = [random_model(rng, n_sc=rng.randint(3, 12)) for _ in range(60)]
    models += [random_clause_model(rng, n_sc=rng.randint(2, 7)) for _ in range(40)]
    models += [encoded(chain_program(k))[2] for k in (3, 4, 6)]
    for _ in range(3):
        prog = random_chain_program(
            rng, 3, rng.randint(4, 8), lambda: rng.randint(3, 6)
        )
        models.append(encoded(prog)[2])
    return models


class TestQueuePropagation:
    def test_reaches_the_full_rescan_fixpoint(self):
        # the search holds SC values only; each step is checked against
        # the reference fixpoint of the full model, PICK and RED included
        rng = random.Random(2026)
        models = propagation_models(rng) + [two_level_model(), pred_cap_model()]
        for trial, m in enumerate(models):
            sc = sorted(v for v in range(m.num_vars) if m.vars[v][0] == "SC")
            search = solver_mod._Search(m, SolverBudget(wall_time=60.0))
            ref = rescan_fixpoint(m, [-1] * m.num_vars)
            assert search.propagate() == (ref is not None), f"model {trial}"
            if ref is None:
                continue
            stack = []  # (trail mark, reference values at the mark)
            for step in range(40):
                free = [v for v in sc if search.values[v] == -1]
                if not free or (stack and rng.random() < 0.25):
                    if not stack:
                        break
                    depth = rng.randrange(len(stack))
                    mark, ref = stack[depth]
                    del stack[depth:]
                    search.undo_to(mark)
                else:
                    var, val = rng.choice(free), rng.randint(0, 1)
                    trial_values = list(ref)
                    trial_values[var] = val
                    expect = rescan_fixpoint(m, trial_values)
                    mark = len(search.trail)
                    search.assign(var, val)
                    ok = search.propagate()
                    assert ok == (expect is not None), f"model {trial} step {step}"
                    if ok:
                        stack.append((mark, ref))
                        ref = expect
                    else:
                        search.undo_to(mark)
                where = f"model {trial} step {step}"
                assert [search.values[v] for v in sc] == [ref[v] for v in sc], where
                assert search.cost + search.open_sum == full_clause_bound(m, ref), where
                # the cost is the SC and RED part of the reference's cost
                assert search.cost == sum(
                    w for v, w in m.objective.items()
                    if ref[v] == 1 and m.vars[v][0] != "PICK"
                ), where
                # the counters follow the assignment exactly
                assert search.slack == [
                    reachable_lhs(c, search.values) - c.rhs for c in search.constraints
                ], where
                assert not search.queue, where

    def test_undo_empties_what_a_conflict_left_queued(self):
        # x0 = 0 lowers the slack of both constraints; the second conflicts
        m = CopModel(
            vars=[("SC", 0), ("SC", 1)],
            constraints=[
                LinearConstraint(((1, 0), (1, 1)), 1),
                LinearConstraint(((1, 0),), 1),
            ],
            objective={0: 1, 1: 1},
        )
        search = solver_mod._Search(m, SolverBudget(wall_time=60.0))
        search.queue.clear()  # leave the root unpropagated: x0 stays open
        search.queued = [False, False]
        search.assign(0, 0)
        assert not search.propagate()
        search.undo_to(0)
        assert not search.queue and not any(search.queued)
        assert search.slack == [1, 0]

    def test_solve_matches_full_rescan_search(self, monkeypatch):
        rng = random.Random(77)
        for trial, m in enumerate(propagation_models(rng)):
            budget = SolverBudget(wall_time=600.0, max_decisions=150)
            got, trace = solve(m, budget)
            ref, ref_trace, ref_search = solve_with(
                _RescanSearch, m, budget, monkeypatch
            )
            assert [o for _, o in trace.history] == [
                o for _, o in ref_trace.history
            ], f"model {trial}"
            assert trace.decisions == ref_search.sc_decisions, f"model {trial}"
            assert got.status == ref.status, f"model {trial}"
            assert got.values == ref.values, f"model {trial}"

    def test_same_tree_as_pick_branching(self, monkeypatch):
        rng = random.Random(78)
        models = propagation_models(rng) + [two_level_model(), pred_cap_model()]
        for trial, m in enumerate(models):
            for cap in (None, 40):
                budget = SolverBudget(wall_time=600.0, max_decisions=cap)
                got, trace = solve(m, budget)
                ref, ref_trace, ref_search = solve_with(
                    _PickBranchingSearch, m, budget, monkeypatch
                )
                where = f"model {trial} cap {cap}"
                assert [o for _, o in trace.history] == [
                    o for _, o in ref_trace.history
                ], where
                assert trace.decisions == ref_search.sc_decisions, where
                assert got.status == ref.status, where
                assert got.values == ref.values, where

    def test_decisions_counted(self):
        rng = random.Random(7)
        prog = random_chain_program(rng, 3, 10, lambda: rng.randint(5, 8))
        _, _, model = encoded(prog)
        got, trace = solve(model, SolverBudget(wall_time=60.0))
        assert got.status == "optimal"
        assert trace.decisions > 10
        cut, capped = solve(model, SolverBudget(wall_time=60.0, max_decisions=10))
        assert cut.status == "timeout-best"
        assert capped.decisions == 10


def criterion_1_model(k: int) -> CopModel:
    """The model of program k, counting from 0, of criterion 1's generator
    (seed 20260826) under criterion 1's config, max_levels=1 and
    folding_cap=20."""
    rng = random.Random(20260826)
    for _ in range(k + 1):
        prog = random_program(rng)
    u = unfold(prog)
    return encode(build_search_space(u, 2, 3, max_levels=1, folding_cap=20), u)


@pytest.fixture(scope="module")
def lego_bk_model() -> CopModel:
    """The model of criterion 6's lego background knowledge under
    criterion 6's config."""
    u = unfold(lego_bk_program())
    space = build_search_space(u, 2, 3, max_levels=2, folding_cap=20)
    return encode(space, u, red_group_cap=300)


class TestPinnedTree:
    """The search on realistic models, pinned: status, objective and
    decisions on three of criterion 1's models, and the incumbents of
    criterion 6's lego model under a decision cap. A change to the
    search's state or node loop must visit the same nodes in the same
    order, so it must reproduce every value."""

    @pytest.mark.parametrize(
        "k, want",
        [
            (142, ("optimal", 97, 74_978)),
            (64, ("optimal", 108, 34_354)),
            (33, ("optimal", 89, 32_042)),
        ],
    )
    def test_criterion_1_models(self, k, want):
        got, trace = solve(criterion_1_model(k), SolverBudget(wall_time=600.0))
        assert (got.status, got.objective_value, trace.decisions) == want

    def test_lego_bk_incumbents(self, lego_bk_model):
        # SC rows to propagate and RED groups to charge, as well as options
        assert any(c.label == "sc-dep" for c in lego_bk_model.constraints)
        assert len(lego_bk_model.red_members) == 24
        budget = SolverBudget(wall_time=600.0, max_decisions=200_000)
        got, trace = solve(lego_bk_model, budget)
        assert (got.status, trace.decisions) == ("timeout-best", 200_000)
        assert [o for _, o in trace.history] == [
            397, 360, 323, 272, 255, 253, 245, 242, 237, 236, 235,
            229, 226, 220, 219, 215, 214, 211, 210, 209, 208,
        ]

    def test_wall_clock_budget_kept(self, lego_bk_model):
        # the search reads the clock only every CLOCK_EVERY decisions
        t0 = time.monotonic()
        got, trace = solve(lego_bk_model, SolverBudget(wall_time=0.3))
        assert got.status == "timeout-best"
        assert time.monotonic() - t0 < 0.55
        assert 0 < trace.search_s < 0.55


class TestContract:
    def test_var_of_unknown_kind_rejected(self):
        m = CopModel(vars=[("SC", 0), ("FOLD", 0)], constraints=[], objective={0: 1})
        m.sc_vars[0] = 0
        with pytest.raises(SolverError, match="not SC, PICK or RED"):
            solve(m, SolverBudget(wall_time=5.0))

    def test_clause_without_a_free_raw_option_rejected(self):
        # the search assumes each clause's last option requires no SC;
        # here every option of clause 0 requires one, so it could run out
        rng = random.Random(5)
        m = random_clause_model(rng, n_sc=3)
        solve(m, SolverBudget(wall_time=5.0))
        sc = m.sc_vars[0]
        for p in m.clause_picks[0]:
            if sc not in m.pick_required[p]:
                m.pick_required[p] += (sc,)
                m.constraints.append(
                    LinearConstraint(((1, sc), (-1, p)), 0, "pick-needs-sc")
                )
        with pytest.raises(SolverError, match="clause 0's options are not"):
            solve(m, SolverBudget(wall_time=5.0))
        # an encoded model whose raw option is left out of clause 0's list
        _, _, m = encoded(chain_program(4))
        m.clause_picks[0].pop()
        with pytest.raises(SolverError, match="clause 0's options are not"):
            solve(m, SolverBudget(wall_time=5.0))

    def test_red_group_with_a_base_of_two_rejected(self):
        # encode gives no group a base of 2 or more: such a group charges
        # at every leaf but not in the bound, so the first leaf the search
        # reaches completes above its bound
        for seed in range(30):
            m = random_clause_model(random.Random(seed), n_sc=3)
            solve(m, SolverBudget(wall_time=5.0))
            r = len(m.vars)
            m.vars.append(("RED", len(m.red_members)))
            m.objective[r] = 1
            members = (m.sc_vars[seed % 3],)
            m.red_members[r], m.red_base[r] = members, 2
            m.constraints += [
                LinearConstraint(((2, r), (-1, members[0])), 1, "red-force"),
                LinearConstraint(((1, members[0]), (-2, r)), -2, "red-honest"),
            ]
            with pytest.raises(SolverError, match="not to its bound"):
                solve(m, SolverBudget(wall_time=5.0))

    def test_unranked_options_rejected(self):
        # the search and the completion take each list as lightest first
        _, _, m = encoded(chain_program(4))
        solve(m, SolverBudget(wall_time=5.0))
        raw = m.clause_picks[0].pop()
        m.clause_picks[0].reverse()
        m.clause_picks[0].append(raw)
        with pytest.raises(SolverError, match="clause 0's options are not ranked"):
            solve(m, SolverBudget(wall_time=5.0))

    def test_leaf_must_complete_to_its_bound(self, monkeypatch):
        # a completion that charges one more than the model's objective:
        # the first leaf the search reaches completes to more than its bound
        _, _, model = encoded(chain_program(4))
        original = solver_mod.assignment_from_selection

        def off_by_one(m, chosen):
            a = original(m, chosen)
            a.objective_value += 1
            return a

        monkeypatch.setattr(solver_mod, "assignment_from_selection", off_by_one)
        with pytest.raises(SolverError, match="not to its bound"):
            solve(model, SolverBudget(wall_time=10.0))


class TestSolveOnEncodings:
    @pytest.mark.parametrize("copies", [3, 4, 5])
    def test_matches_brute_force(self, copies):
        _, _, model = encoded(chain_program(copies))
        oracle = brute_force_solve(model)
        got, _ = solve(model, SolverBudget(wall_time=10.0))
        assert got.status == "optimal"
        assert got.objective_value == oracle.objective_value
        assert check_assignment(model, got.values)

    def test_deterministic_across_runs(self):
        _, _, model = encoded(chain_program(4))
        a1, _ = solve(model, SolverBudget(wall_time=10.0))
        a2, _ = solve(model, SolverBudget(wall_time=10.0))
        assert a1.values == a2.values
        assert a1.objective_value == a2.objective_value

    def test_trace_strictly_decreasing(self):
        _, _, model = encoded(chain_program(5))
        _, trace = solve(model, SolverBudget(wall_time=10.0))
        objectives = [obj for _, obj in trace.history]
        assert objectives == sorted(objectives, reverse=True)
        assert len(set(objectives)) == len(objectives)
        times = [t for t, _ in trace.history]
        assert times == sorted(times)

    def test_greedy_incumbents_stamped_when_found(self, monkeypatch):
        # a clock that advances one second per completion of a selection,
        # by greedy or at a branch-and-bound leaf: each incumbent's stamp
        # must count only the completions made before it was found
        _, _, model = encoded(chain_program(5))
        clock = [0.0]
        evaluations = []
        found_after = {}
        original = solver_mod.assignment_from_selection

        def timed(m, chosen):
            clock[0] += 1.0
            a = original(m, chosen)
            evaluations.append(a)
            if a is not None and a.objective_value not in found_after:
                found_after[a.objective_value] = clock[0]
            return a

        monkeypatch.setattr(solver_mod, "assignment_from_selection", timed)
        monkeypatch.setattr(solver_mod, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        _, trace = solve(model, SolverBudget(wall_time=1000.0))
        assert len(evaluations) > 2
        assert trace.history[0][0] == 1.0
        for t, obj in trace.history:
            assert t == found_after[obj]


class TestSolveOnRandomModels:
    def test_agrees_with_exhaustive_oracle(self):
        rng = random.Random(12345)
        for trial in range(120):
            m = random_model(rng, n_sc=rng.randint(2, 8))
            oracle = exhaustive_optimum(m)
            got, _ = solve(m, SolverBudget(wall_time=5.0))
            if oracle is None:
                assert got.status == "infeasible", f"trial {trial}"
            else:
                assert got.status == "optimal", f"trial {trial}"
                assert got.objective_value == oracle, f"trial {trial}"
                assert check_assignment(m, got.values)

    def test_clause_models_agree_with_brute_force(self):
        rng = random.Random(4321)
        for trial in range(150):
            m = random_clause_model(rng, n_sc=rng.randint(1, 7))
            oracle = brute_force_solve(m)
            got, _ = solve(m, SolverBudget(wall_time=5.0))
            assert got.status == oracle.status, f"trial {trial}"
            if oracle.status == "optimal":
                assert got.objective_value == oracle.objective_value, f"trial {trial}"
                assert check_assignment(m, got.values), f"trial {trial}"

    def test_infeasible_model(self):
        m = CopModel(
            vars=[("SC", 0)],
            constraints=[
                LinearConstraint(((1, 0),), 1),
                LinearConstraint(((-1, 0),), 0),
            ],
            objective={0: 1},
        )
        m.sc_vars[0] = 0
        got, _ = solve(m, SolverBudget(wall_time=2.0))
        assert got.status == "infeasible"


class TestBruteForce:
    def test_rejects_large_instances(self):
        m = CopModel(vars=[], constraints=[], objective={})
        for k in range(25):
            m.vars.append(("SC", k))
            m.sc_vars[k] = k
        with pytest.raises(InstanceTooLarge):
            brute_force_solve(m)

    def test_contradictory_model_reported_infeasible(self):
        _, _, model = encoded(chain_program(3))
        model.constraints.append(LinearConstraint(((1, 0), (-1, 0)), 1, "absurd"))
        a = brute_force_solve(model)
        assert a.status == "infeasible"

    def test_agrees_with_exhaustive_optimum_on_encoded_models(self):
        # brute force enumerates the SC selections and completes each by
        # assignment_from_selection, the rule greedy and the search's
        # leaves use; exhaustive_optimum enumerates every var instead, so
        # a fault in that rule shows here
        rng = random.Random(16)
        models = []
        while len(models) < 30:
            prog = random_chain_program(
                rng, rng.randint(2, 3), rng.randint(2, 4), lambda: rng.randint(2, 5)
            )
            u = unfold(prog)
            m = encode(build_search_space(u, 2, 3, prune=rng.random() < 0.5), u)
            if m.sc_vars and m.num_vars <= 16:
                models.append(m)
        for trial, m in enumerate(models):
            assert brute_force_solve(m).objective_value == exhaustive_optimum(m), trial


class TestSelectionCompletion:
    def test_empty_selection_gives_raw_program(self):
        space, u, model = encoded(chain_program(3))
        a = assignment_from_selection(model, set())
        assert a is not None
        raw_size = sum(len(c.body) + 1 for c in u.clauses)
        assert a.objective_value >= raw_size
        assert check_assignment(model, a.values)

    def test_dependency_closure_required(self):
        space, u, model = encoded(chain_program(4))
        dependent = [
            (sv, deps) for sv, deps in model.sc_deps.items() if deps
        ]
        if dependent:
            sv, deps = dependent[0]
            assert assignment_from_selection(model, {sv}) is None
            closure = {sv}
            stack = [sv]
            while stack:
                for d in model.sc_deps.get(stack.pop(), ()):
                    if d not in closure:
                        closure.add(d)
                        stack.append(d)
            assert assignment_from_selection(model, closure) is not None

    def test_greedy_drop_takes_dependents_at_every_depth(self):
        # SCs a <- b <- c (b needs a, c needs b) and d, weight 1 each; the
        # one clause costs 1 with d, 3 with c and 100 raw. Greedy adds c
        # (with b and a), then d; dropping a must take b and c with it,
        # or the selection keeps c without a and cannot complete
        m = CopModel(vars=[], constraints=[], objective={})
        for k, weight in enumerate([1, 1, 1, 1, 1, 3, 100]):
            m.vars.append(("SC", k) if k < 4 else ("PICK", 0, 1, k))
            m.objective[k] = weight
        a, b, c, d = range(4)
        m.sc_vars = {k: k for k in range(4)}
        m.sc_deps = {a: (), b: (a,), c: (b,), d: ()}
        m.clause_picks[0] = [4, 5, 6]
        m.pick_required = {4: (d,), 5: (c,), 6: ()}
        steps = [
            ({v for v in range(4) if x.values[v]}, x.objective_value)
            for x in solver_mod._greedy_selection(m)
        ]
        assert steps == [(set(), 100), ({a, b, c}, 6), ({a, b, c, d}, 5), ({d}, 2)]


class TestTrace:
    def test_record_keeps_improvements_only(self):
        t = SolveTrace()
        t.record(0.1, 50)
        t.record(0.2, 50)
        t.record(0.3, 60)
        t.record(0.4, 40)
        assert t.history == [(0.1, 50), (0.4, 40)]


class TestBudget:
    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            SolverBudget(wall_time=0)
        # a NaN budget never runs out
        for wall_time in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="finite and positive"):
                SolverBudget(wall_time=wall_time)
        # a negative or fractional cap ended the search at once
        for cap in (-5, 2.5, True, False, "3"):
            with pytest.raises(ValueError, match="max_decisions"):
                SolverBudget(max_decisions=cap)
        for cap in (None, 0, 7):
            assert SolverBudget(max_decisions=cap).max_decisions == cap
