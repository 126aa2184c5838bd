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
