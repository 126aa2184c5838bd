"""Differential check of solve() against an independent MILP solver,
HiGHS through scipy.optimize.milp, on models above the brute-force
oracle's cap. Budgets count decisions, not seconds, so each solve ends
the same way on every machine."""

import random

import pytest

from refold.candidates import build_search_space
from refold.copmodel import encode
from refold.pipeline import RefactorConfig
from refold.solver import SolverBudget, solve
from refold.transform import unfold

from tests.conftest import dense_program, random_chain_program
from tests.oracles import BRUTE_FORCE_SC_CAP

optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")
np = pytest.importorskip("numpy")


def highs_optimum(model) -> int:
    """The model's optimum as HiGHS proves it: min c.x subject to
    A.x >= rhs over x in {0, 1}^n."""
    n = model.num_vars
    cost = np.zeros(n)
    for v, w in model.objective.items():
        cost[v] = w
    rows, cols, coefs = [], [], []
    for ci, c in enumerate(model.constraints):
        for coef, v in c.terms:
            rows.append(ci)
            cols.append(v)
            coefs.append(coef)
    a = sparse.coo_array((coefs, (rows, cols)), shape=(len(model.constraints), n))
    rhs = np.array([c.rhs for c in model.constraints], dtype=float)
    res = optimize.milp(
        cost,
        constraints=optimize.LinearConstraint(a, rhs, np.inf),
        integrality=np.ones(n),
        bounds=optimize.Bounds(0, 1),
    )
    assert res.status == 0, res.message
    return round(res.fun)


def pipeline_model(prog, cfg: RefactorConfig):
    """The model refactor() builds for `prog` under `cfg`."""
    u = unfold(prog)
    space = build_search_space(
        u, cfg.min_body, cfg.max_body, cfg.max_levels, folding_cap=cfg.folding_cap
    )
    return encode(space, u, red_group_cap=cfg.red_group_cap)


def check_against_highs(model, max_decisions: int) -> str:
    got, _ = solve(model, SolverBudget(wall_time=600.0, max_decisions=max_decisions))
    optimum = highs_optimum(model)
    if got.status == "optimal":
        assert got.objective_value == optimum
    else:
        assert got.status == "timeout-best"
        assert got.objective_value >= optimum
    return got.status


def test_criterion_1_style_models_above_the_cap():
    # criterion 1's chain programs, denser: 3 primitives, 10-14 clauses of
    # 5-8 literals, refactored with its config (one level, 20 foldings)
    cfg = RefactorConfig(max_levels=1, folding_cap=20)
    rng = random.Random(7)
    models = []
    for _ in range(10):
        prog = random_chain_program(
            rng, 3, rng.randint(10, 14), lambda: rng.randint(5, 8)
        )
        model = pipeline_model(prog, cfg)
        if len(model.sc_vars) > BRUTE_FORCE_SC_CAP:
            models.append(model)
    assert len(models) >= 2
    statuses = [check_against_highs(m, max_decisions=40_000) for m in models]
    assert "optimal" in statuses


def test_criterion_5_program_under_the_default_config():
    model = pipeline_model(dense_program(), RefactorConfig())
    assert len(model.sc_vars) > BRUTE_FORCE_SC_CAP
    check_against_highs(model, max_decisions=20_000)
