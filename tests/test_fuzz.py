"""End-to-end fuzzing of refactor() on generated programs: predicates of
arity 0-3, constants, compound terms, repeated variables, star- and
tree-shaped bodies, a multi-clause support predicate whose head may
repeat a variable, and primitive facts. Each output is checked against
the input with a bottom-up oracle on a random fact base, which does not
use the syntactic-equivalence check refactor() gates its own output
with, and must keep the program's primitive facts."""

from hypothesis import given, settings, strategies as st

from refold.logic import (
    Atom,
    Clause,
    Compound,
    Const,
    Program,
    Var,
    parse_program,
    rename_atom,
    render_program,
    variant_equal,
)
from refold.pipeline import RefactorConfig, refactor
from refold.solver import SolverBudget
from refold.transform import syntactic_equiv

from tests.oracles import restricted_consequences

PRIMITIVES = [("z", 0), ("u", 1), ("b", 2), ("c", 2), ("w", 3)]
SUPPORT = ("s", 2)
GROUND = [Const("a"), Const("b"), Compound("f", (Const("a"),))]
CONFIG = RefactorConfig(max_levels=2, folding_cap=20, budget=SolverBudget(wall_time=0.2))


@st.composite
def bodies(draw, preds, min_size=1):
    """A star (every literal starts at X0) or a tree (each literal starts
    at a variable already used); later arguments are new or repeated
    variables, constants or compound terms."""
    star = draw(st.booleans())
    vars_ = [Var("X0")]
    lits = []
    for _ in range(draw(st.integers(min_size, 5))):
        pred, arity = draw(st.sampled_from(preds))
        args = []
        for pos in range(arity):
            kind = "anchor" if pos == 0 else draw(
                st.sampled_from(["new", "new", "old", "const", "compound"])
            )
            if kind == "anchor":
                args.append(vars_[0] if star else draw(st.sampled_from(vars_)))
            elif kind == "new":
                vars_.append(Var(f"X{len(vars_)}"))
                args.append(vars_[-1])
            elif kind == "old":
                args.append(draw(st.sampled_from(vars_)))
            elif kind == "const":
                args.append(draw(st.sampled_from(GROUND[:2])))
            else:
                args.append(Compound("f", (draw(st.sampled_from(vars_)),)))
        lits.append(Atom(pred, tuple(args)))
    return tuple(lits)


def _head(pred: str, body: tuple, k: int) -> Atom:
    """Range-restricted head over the first k variables of the body."""
    vs = list(dict.fromkeys(v for lit in body for v in lit.variables()))
    return Atom(pred, tuple(vs[:k]))


@st.composite
def programs(draw):
    lines = [f"#primitive {p}/{a}." for p, a in PRIMITIVES]
    preds = list(PRIMITIVES)
    clauses = []
    if draw(st.booleans()):
        preds.append(SUPPORT)
        for _ in range(draw(st.integers(1, 2))):
            body = draw(bodies(PRIMITIVES).filter(lambda b: any(set(l.variables()) for l in b)))
            # a repeated head variable makes unfolding bind the caller's
            # variables
            vs = list(dict.fromkeys(v for lit in body for v in lit.variables()))
            head = Atom("s", tuple(draw(st.sampled_from(vs)) for _ in range(SUPPORT[1])))
            clauses.append(Clause(head, body))
    # a sub-body that task bodies share, so that folding has work to do;
    # each copy keeps X0 and renames the other variables apart
    motif = draw(bodies(PRIMITIVES, min_size=2))
    for t in range(draw(st.integers(1, 5))):
        body = draw(bodies(preds))
        for k in range(draw(st.integers(0, 2))):
            ren = {v: Var(f"Y{t}_{k}_{v.name}") for lit in motif for v in lit.variables()
                   if v != Var("X0")}
            body += tuple(rename_atom(lit, ren) for lit in motif)
        head = _head(f"t{t}", body, draw(st.integers(0, 2)))
        lines.append(f"#task t{t}/{head.arity}.")
        clauses.append(Clause(head, body))
    for pred, arity in draw(st.lists(st.sampled_from(PRIMITIVES), max_size=3)):
        args = tuple(draw(st.sampled_from(GROUND)) for _ in range(arity))
        clauses.append(Clause(Atom(pred, args)))
    lines += [repr(c) for c in clauses]
    return parse_program("\n".join(lines))


@st.composite
def fact_bases(draw):
    facts = []
    for pred, arity in PRIMITIVES:
        for _ in range(draw(st.integers(0, 6))):
            args = tuple(draw(st.sampled_from(GROUND)) for _ in range(arity))
            facts.append(Clause(Atom(pred, args)))
    return tuple(facts)


def _same_program(p1: Program, p2: Program) -> bool:
    return (
        p1.registry.entries == p2.registry.entries
        and len(p1.clauses) == len(p2.clauses)
        and all(variant_equal(a, b) for a, b in zip(p1.clauses, p2.clauses))
    )


def _primitive_clauses(p: Program) -> list:
    return [c for c in p.clauses if p.registry.role(c.head.pred) == "primitive"]


def _consequences(p: Program, facts: tuple, tasks: set) -> set:
    return restricted_consequences(Program(p.clauses + facts, p.registry), tasks, depth=8)


@settings(max_examples=50, deadline=None)
@given(p=programs(), facts=fact_bases())
def test_refactor_preserves_meaning(p, facts):
    assert _same_program(parse_program(render_program(p)), p)
    out, report = refactor(p, CONFIG)
    if out is not p:
        assert report.equivalence_verified and syntactic_equiv(p, out)
        assert out.size < p.size
    assert _same_program(parse_program(render_program(out)), out)
    assert _primitive_clauses(out) == _primitive_clauses(p)
    tasks = set(p.registry.by_role("task"))
    assert _consequences(out, facts, tasks) == _consequences(p, facts, tasks)
