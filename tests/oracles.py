"""Exhaustive oracles for the tests: the optimum of a small model by
enumerating every support-clause selection that can complete, and the
task atoms a program derives bottom-up within a bounded number of
rounds; and loaders for the benchmark's own oracle and workloads."""

from __future__ import annotations

import importlib.util
import sys
from graphlib import TopologicalSorter
from pathlib import Path
from typing import Optional

from refold.copmodel import Assignment, CopModel, check_assignment
from refold.logic import Atom, Compound, Program, Var
from refold.solver import SolverError, assignment_from_selection
from refold.transform import TransformError


def benchmark_oracle():
    """perfbench/oracle.py, loaded by path: it compares two programs'
    task answers on seeded random fact bases and runs lego solutions,
    sharing no code with refold."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_workloads():
    """perfbench/workloads.py, loaded by path, for the benchmark's inputs
    and their seeded variants; perfbench/ is on sys.path while it loads,
    for its own imports."""
    root = Path(__file__).resolve().parent.parent / "perfbench"
    sys.path.insert(0, str(root))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "workloads.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(root))
    return module


class InstanceTooLarge(SolverError):
    pass


BRUTE_FORCE_SC_CAP = 20


def brute_force_solve(model: CopModel) -> Assignment:
    """Exhaustive optimum: enumerate every support-clause subset that can
    complete, and complete it deterministically; of the optima, the one
    with the lowest selection bitmask. Correctness oracle for solve()."""
    sc_vars = sorted(model.sc_vars.values())
    if len(sc_vars) > BRUTE_FORCE_SC_CAP:
        raise InstanceTooLarge(
            f"{len(sc_vars)} support-clause variables exceed the brute-force cap"
        )
    bit = {v: 1 << k for k, v in enumerate(sc_vars)}
    need = {v: sum(bit[d] for d in model.sc_deps.get(v, ())) for v in sc_vars}
    cap = len(sc_vars) if model.sc_cap is None else model.sc_cap
    # the selections that hold each chosen var's dependencies and at most
    # `cap` vars, the only ones that complete: a var joins a selection
    # only after its dependencies have had their turn
    masks = [0]
    for v in TopologicalSorter({v: model.sc_deps.get(v, ()) for v in sc_vars}).static_order():
        masks += [m | bit[v] for m in masks if m & need[v] == need[v] and m.bit_count() < cap]
    best: Optional[Assignment] = None
    for mask in sorted(masks):
        chosen = {v for k, v in enumerate(sc_vars) if mask >> k & 1}
        a = assignment_from_selection(model, chosen)
        # only a completion that beats the best so far needs the check
        if a is None or (best is not None and a.objective_value >= best.objective_value):
            continue
        if check_assignment(model, a.values):
            best = a
    if best is None:
        return Assignment(values=[], objective_value=0, status="infeasible")
    return Assignment(
        values=best.values, objective_value=best.objective_value, status="optimal"
    )


def restricted_consequences(p: Program, tasks: set, depth: int) -> set:
    """Ground atoms with a task predicate derivable bottom-up within
    `depth` rounds. Requires derived heads to come out ground. Body
    literals are matched one way against the ground facts, by a matcher
    of its own, so the oracle does not share the unifier unfolding uses."""
    if depth is None:
        raise TransformError("restricted_consequences needs a finite depth bound")
    facts: set = set()
    for _ in range(depth):
        new = set()
        for c in p.clauses:
            for s in _ground_body(c.body, facts, {}):
                head = Atom(c.head.pred, tuple(_substitute(t, s) for t in c.head.args))
                if any(head.variables()):
                    raise TransformError(
                        f"derived non-ground atom {head}; program is not range-restricted"
                    )
                if head not in facts:
                    new.add(head)
        if not new:
            break
        facts |= new
    return {a for a in facts if a.pred in tasks}


def _ground_body(body: tuple, facts: set, s: dict):
    if not body:
        yield s
        return
    lit = body[0]
    for f in facts:
        s2 = dict(s)
        if (f.pred, len(f.args)) == (lit.pred, len(lit.args)) and all(
            _match(a, b, s2) for a, b in zip(lit.args, f.args)
        ):
            yield from _ground_body(body[1:], facts, s2)


def _match(p, t, s: dict) -> bool:
    """Extend s so that term p, under s, equals the ground term t."""
    if isinstance(p, Var):
        if p not in s:
            s[p] = t
        return s[p] == t
    if isinstance(p, Compound):
        return (
            isinstance(t, Compound)
            and (p.functor, len(p.args)) == (t.functor, len(t.args))
            and all(_match(a, b, s) for a, b in zip(p.args, t.args))
        )
    return p == t


def _substitute(t, s: dict):
    """t with each variable bound in s replaced by its ground value."""
    if isinstance(t, Var):
        return s.get(t, t)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_substitute(a, s) for a in t.args))
    return t
