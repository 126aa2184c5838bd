import random
from types import SimpleNamespace

import pytest

import refold.solver as solver_mod
from refold.copmodel import CopModel, LinearConstraint, check_assignment
from refold.solver import (
    InstanceTooLarge,
    SolveTrace,
    SolverBudget,
    assignment_from_selection,
    brute_force_solve,
    solve,
)

from tests.conftest import random_chain_program
from tests.test_copmodel import chain_program, encoded


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


class _RescanSearch(solver_mod._Search):
    """The search with the reference fixpoint for propagation and the full
    bound, summed over every clause, for pruning."""

    def propagate(self) -> bool:
        forced = rescan_fixpoint(self.model, self.values)
        if forced is not None:
            for v, val in enumerate(forced):
                if self.values[v] == -1 and val != -1:
                    self.assign(v, val)
        self.clear_queue()
        return forced is not None

    def beats_incumbent(self) -> bool:
        if self.best_cost is None:
            return True
        bound = self.cost
        for picks in self.model.clause_picks.values():
            states = [(self.values[p], w) for p, w, _, _ in picks]
            open_weights = [w for val, w in states if val == -1]
            if open_weights and all(val != 1 for val, _ in states):
                bound += min(open_weights)
        return bound < self.best_cost


def propagation_models(rng: random.Random) -> list:
    models = [random_model(rng, n_sc=rng.randint(3, 12)) for _ in range(60)]
    models += [encoded(chain_program(k))[2] for k in (3, 4, 6)]
    for _ in range(3):
        prog = random_chain_program(
            rng, 3, rng.randint(4, 8), lambda: rng.randint(3, 6)
        )
        models.append(encoded(prog)[2])
    return models


class TestQueuePropagation:
    def test_reaches_the_full_rescan_fixpoint(self):
        rng = random.Random(2026)
        for trial, m in enumerate(propagation_models(rng)):
            search = solver_mod._Search(m, SolverBudget(wall_time=60.0))
            expect = rescan_fixpoint(m, [-1] * m.num_vars)
            assert search.propagate() == (expect is not None), f"model {trial}"
            if expect is None:
                continue
            assert search.values == expect, f"model {trial}"
            stack = []  # (trail mark, values at the mark)
            for step in range(40):
                free = [v for v in range(m.num_vars) if search.values[v] == -1]
                if not free or (stack and rng.random() < 0.25):
                    if not stack:
                        break
                    depth = rng.randrange(len(stack))
                    mark, saved = stack[depth]
                    del stack[depth:]
                    search.undo_to(mark)
                    assert search.values == saved, f"model {trial} step {step}"
                else:
                    var, val = rng.choice(free), rng.randint(0, 1)
                    trial_values = list(search.values)
                    trial_values[var] = val
                    expect = rescan_fixpoint(m, trial_values)
                    mark, saved = len(search.trail), list(search.values)
                    search.assign(var, val)
                    ok = search.propagate()
                    assert ok == (expect is not None), f"model {trial} step {step}"
                    if ok:
                        assert search.values == expect, f"model {trial} step {step}"
                        stack.append((mark, saved))
                    else:
                        search.undo_to(mark)
                        assert search.values == saved, f"model {trial} step {step}"
                # the counters and the cost follow the assignment exactly
                assert search.slack == [
                    reachable_lhs(c, search.values) - c.rhs for c in m.constraints
                ]
                assert search.cost == sum(
                    w for v, w in m.objective.items() if search.values[v] == 1
                )
                assert not search.queue

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
            with monkeypatch.context() as patched:
                patched.setattr(solver_mod, "_Search", _RescanSearch)
                ref, ref_trace = solve(m, budget)
            assert [o for _, o in trace.history] == [
                o for _, o in ref_trace.history
            ], f"model {trial}"
            assert trace.decisions == ref_trace.decisions, f"model {trial}"
            assert got.status == ref.status, f"model {trial}"
            assert got.values == ref.values, f"model {trial}"

    def test_decisions_counted(self):
        rng = random.Random(7)
        prog = random_chain_program(rng, 3, 10, lambda: rng.randint(5, 8))
        _, _, model = encoded(prog)
        _, trace = solve(model, SolverBudget(wall_time=60.0))
        assert trace.proof_status == "optimal"
        assert trace.decisions > 10
        _, capped = solve(model, SolverBudget(wall_time=60.0, max_decisions=10))
        assert capped.proof_status == "timeout"
        assert 10 <= capped.decisions < trace.decisions


class TestSolveOnEncodings:
    @pytest.mark.parametrize("copies", [3, 4, 5])
    def test_matches_brute_force(self, copies):
        _, _, model = encoded(chain_program(copies))
        oracle = brute_force_solve(model)
        got, trace = solve(model, SolverBudget(wall_time=10.0))
        assert got.status == "optimal"
        assert got.objective_value == oracle.objective_value
        assert check_assignment(model, got.values)
        assert trace.proof_status == "optimal"

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
        # a clock that advances one second per greedy evaluation: each
        # incumbent's stamp must count only the evaluations made before it
        # was found, not all of greedy's
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
            if obj in found_after:  # found by greedy, not by branch and bound
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
        got, trace = solve(m, SolverBudget(wall_time=2.0))
        assert got.status == "infeasible"
        assert trace.proof_status == "infeasible"


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


class TestTrace:
    def test_record_keeps_improvements_only(self):
        t = SolveTrace()
        t.record(0.1, 50)
        t.record(0.2, 50)
        t.record(0.3, 60)
        t.record(0.4, 40)
        assert t.history == [(0.1, 50), (0.4, 40)]

    def test_render_format(self):
        t = SolveTrace()
        t.record(0.001, 9)
        t.proof_status = "optimal"
        out = t.render()
        assert out == "1 9\n# status optimal\n"


class TestBudget:
    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            SolverBudget(wall_time=0)
        # a NaN budget never runs out
        for wall_time in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="finite and positive"):
                SolverBudget(wall_time=wall_time)
