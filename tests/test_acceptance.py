"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line. These are end-to-end checks over the public API;
unit-level coverage lives in the per-module test files."""

import math
import random
import time

from refold.bench import (
    SynthesisLimits,
    accumulate_background,
    gen_lego_tasks,
    gen_tower_tasks,
    lego_primitives,
    run_benchmark,
)
from refold.candidates import build_search_space
from refold.copmodel import decode, encode
from refold.logic import parse_program, variant_equal
from refold.pipeline import RefactorConfig, refactor
from refold.solver import SolverBudget, solve
from refold.transform import fold_clause, syntactic_equiv, unfold

from tests.conftest import (
    FOLDED_SOURCE,
    PILLAR_SOURCE,
    dense_program,
    random_program,
)
from tests.oracles import InstanceTooLarge, benchmark_oracle, brute_force_solve
from tests.test_copmodel import chain_program
from tests.test_solver import exhaustive_optimum, random_model


def _report(capsys, criterion: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"CRITERION {criterion} [{label}]: {status}{suffix}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, f"criterion {criterion} ({label}) failed: {detail}"


def test_criterion_1_equivalence_preservation(capsys):
    agree = benchmark_oracle().agree
    rng = random.Random(20260826)
    cfg = RefactorConfig(
        max_levels=1, folding_cap=20, budget=SolverBudget(wall_time=1.0)
    )
    t0 = time.monotonic()
    failures = changed = disagreements = 0
    for n in range(1000):
        prog = random_program(rng)
        out, _ = refactor(prog, cfg)
        if not syntactic_equiv(prog, out):
            failures += 1
        # an output that is the input itself has nothing to compare
        if out is not prog:
            changed += 1
            disagreements += not agree(prog, out, n)
    elapsed = time.monotonic() - t0
    _report(
        capsys,
        1,
        "equivalence preservation",
        failures == disagreements == 0 and elapsed < 600,
        f"1000 programs, {failures} equivalence failures, "
        f"{disagreements} of {changed} changed outputs disagree, {elapsed:.0f}s",
    )


def test_criterion_2_size_reduction_matches_oracle(capsys):
    not_smaller = []
    oracle_mismatch = []
    oracle_checked = 0
    for k in range(3, 11):
        prog = chain_program(k)
        out, _ = refactor(prog, RefactorConfig(budget=SolverBudget(wall_time=10)))
        if out.size >= prog.size:
            not_smaller.append(k)
        u = unfold(prog)
        space = build_search_space(u, i=2, j=3)
        model = encode(space, u, None)
        if model.num_vars <= 24:
            oracle_checked += 1
            best = decode(model, brute_force_solve(model), space, u)
            if out.size != best.size:
                oracle_mismatch.append(k)
    _report(
        capsys,
        2,
        "size reduction",
        not not_smaller and not oracle_mismatch,
        f"k=3..10 all smaller, {oracle_checked} brute-force size matches",
    )


def test_criterion_3_solver_optimality(capsys):
    rng = random.Random(7)
    mismatches = 0
    for _ in range(200):
        model = random_model(rng, n_sc=rng.randint(4, 12))
        assert model.num_vars <= 24
        oracle = exhaustive_optimum(model)
        got, _ = solve(model, SolverBudget(wall_time=10.0))
        if oracle is None:
            ok = got.status == "infeasible"
        else:
            ok = got.status == "optimal" and got.objective_value == oracle
        if not ok:
            mismatches += 1
    _report(
        capsys,
        3,
        "solver optimality",
        mismatches == 0,
        f"200 models, {mismatches} brute-force mismatches",
    )


def test_criterion_4_pruning_soundness(capsys):
    def small_program(rng):
        n_clauses = rng.randint(2, 4)
        lines = ["#primitive a/2.", "#primitive b/2.", "#primitive c/2."]
        for c in range(n_clauses):
            lines.append(f"#task t{c}/2.")
        for c in range(n_clauses):
            blen = rng.randint(2, 5)
            lits = [f"{rng.choice('abc')}(V{k},V{k + 1})" for k in range(blen)]
            lines.append(f"t{c}(V0,V{blen}) :- {', '.join(lits)}.")
        return parse_program("\n".join(lines))

    rng = random.Random(1)
    checked = 0
    mismatches = 0
    while checked < 100:
        prog = small_program(rng)
        u = unfold(prog)
        try:
            optima = {}
            for prune in (True, False):
                space = build_search_space(u, i=2, j=3, prune=prune)
                model = encode(space, u, None)
                optima[prune] = brute_force_solve(model).objective_value
        except InstanceTooLarge:
            continue
        checked += 1
        if optima[True] != optima[False]:
            mismatches += 1
    _report(
        capsys,
        4,
        "pruning soundness",
        mismatches == 0,
        f"100 brute-forceable instances, {mismatches} optimum changes",
    )


def test_criterion_5_anytime_behavior(capsys):
    u = unfold(dense_program())
    space = build_search_space(u, i=2, j=3, prune=False)
    assert len(space.candidates) >= 200
    model = encode(space, u, None)
    budget = 10.0
    _, trace = solve(model, SolverBudget(wall_time=budget))
    objectives = [obj for _, obj in trace.history]
    monotone = all(a > b for a, b in zip(objectives, objectives[1:]))
    final = objectives[-1]
    early = [obj for t, obj in trace.history if t <= 0.2 * budget]
    early_ok = bool(early) and min(early) <= 1.1 * final
    _report(
        capsys,
        5,
        "anytime behavior",
        monotone and early_ok,
        f"{len(space.candidates)} candidates, "
        f"first-20% incumbent {min(early) if early else 'none'} vs final {final}",
    )


def test_criterion_6_learning_cost_direction(capsys):
    limits = SynthesisLimits(max_depth=14, max_nodes=50_000, wall_time=10.0)
    bg = gen_lego_tasks(4, 50, seed=1, max_height=2)
    bk, _ = accumulate_background(bg, lego_primitives(), limits)
    assert len(bk.clauses) > 30, "BK must exceed 30 accumulated programs"
    refactored, _ = refactor(
        bk,
        RefactorConfig(
            max_levels=2,
            folding_cap=20,
            red_group_cap=300,
            budget=SolverBudget(wall_time=25),
        ),
    )
    targets = gen_tower_tasks(4, 50, seed=2)
    result = run_benchmark(
        [("original", bk), ("refactored", refactored)], targets, limits
    )
    agg = result.aggregates()
    per_task: dict = {}
    for row in result.rows:
        per_task.setdefault(row["task"], {})[row["condition"]] = row
    both = [
        t
        for t, d in per_task.items()
        if d["original"]["solved"] and d["refactored"]["solved"]
    ]
    strict = sum(
        1
        for t in both
        if per_task[t]["refactored"]["nodes"] < per_task[t]["original"]["nodes"]
    )
    total_ok = agg["refactored"]["nodes"] <= agg["original"]["nodes"]
    strict_ok = both and strict / len(both) >= 0.6
    solved_ok = agg["refactored"]["solved"] >= agg["original"]["solved"]
    _report(
        capsys,
        6,
        "learning cost direction",
        total_ok and strict_ok and solved_ok,
        f"nodes {agg['original']['nodes']}->{agg['refactored']['nodes']}, "
        f"strict {strict}/{len(both)}, "
        f"solved {agg['original']['solved']}->{agg['refactored']['solved']}",
    )


def test_criterion_7_compression_ratios(capsys):
    # each instance: k clauses sharing one 3-literal chain; the optimum
    # keeps one support clause (4 literals) and k two-literal clauses
    expected = {k: (2 * k + 4) / (4 * k) for k in range(4, 11)}
    bad = []
    for k, want_ratio in expected.items():
        prog = chain_program(k)
        u = unfold(prog)
        space = build_search_space(u, i=2, j=3)
        model = encode(space, u, None)
        oracle_size = decode(model, brute_force_solve(model), space, u).size
        out, _ = refactor(prog, RefactorConfig(budget=SolverBudget(wall_time=10)))
        ratio = out.size / prog.size
        if not (
            out.size == oracle_size
            and math.isclose(ratio, want_ratio)
            and ratio <= 0.8
        ):
            bad.append((k, ratio, want_ratio, out.size, oracle_size))
    _report(
        capsys,
        7,
        "compression ratios",
        not bad,
        f"k=4..10 ratios match (2k+4)/4k and stay under 0.8" if not bad else str(bad),
    )


def test_criterion_8_worked_example_round_trip(capsys):
    original = parse_program(PILLAR_SOURCE)
    folded = parse_program(FOLDED_SOURCE)
    support = folded.clauses[0]  # the three-brick vertical stack
    target = folded.clauses[1]

    fold_results = fold_clause(original.clauses[0], support)
    fold_ok = any(variant_equal(r, target) for r in fold_results)

    unfolded = unfold(folded)
    unfold_ok = len(unfolded.clauses) == 1 and variant_equal(
        unfolded.clauses[0], original.clauses[0]
    )
    _report(
        capsys,
        8,
        "worked example round trip",
        fold_ok and unfold_ok,
        "fold reproduces the folded clause; unfold restores the original",
    )
