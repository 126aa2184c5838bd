"""Output checks that share no code with refold's own verification.

`agree` evaluates two programs bottom-up on seeded random finite
fact bases and compares the answers for the task predicates. It reads
refold's clause data structures but calls neither `syntactic_equiv` nor
`restricted_consequences`. `lego_run` executes a synthesized brick-board
program with the benchmark's own copy of the domain's semantics.
"""

from __future__ import annotations

import itertools
import random

DOMAIN_SIZE = 6
# Each fact base draws every primitive's tuples independently with this
# probability; None makes each binary primitive a random bijection, so
# that long chains neither die out nor saturate.
DENSITIES = (0.2, 0.35, 0.5, None, None)


def _term_key(term):
    kind = type(term).__name__
    if kind == "Var":
        return ("var", term.name)
    if kind == "Const":
        return ("const", term.name)
    raise ValueError(f"unsupported term {term!r}")


def _join_body(body, head_vars: set, relations: dict, index: dict) -> tuple:
    """Bindings of the head variables that satisfy `body`, as (variable
    names, set of value tuples). Joins literal by literal through an index
    on the already-bound argument positions, and projects out each
    variable as soon as no later literal or the head needs it, so chains
    stay at most domain**2 rows wide."""
    names: tuple = ()
    rows = {()}
    for i, lit in enumerate(body):
        args = [_term_key(t) for t in lit.args]
        later = set(head_vars)
        for rest in body[i + 1:]:
            later.update(n for k, n in map(_term_key, rest.args) if k == "var")
        pos = {n: j for j, n in enumerate(names)}
        bound = tuple(j for j, (k, n) in enumerate(args) if k == "const" or n in pos)
        key = (lit.pred, bound)
        if key not in index:
            table: dict = {}
            for tup in relations.get(lit.pred, ()):
                table.setdefault(tuple(tup[j] for j in bound), []).append(tup)
            index[key] = table
        table = index[key]
        wide = list(names)
        for k, n in args:
            if k == "var" and n not in pos:
                pos[n] = len(wide)
                wide.append(n)
        keep = tuple(n for n in wide if n in later)
        out = set()
        for row in rows:
            probe = tuple(args[j][1] if args[j][0] == "const" else row[pos[args[j][1]]]
                          for j in bound)
            for tup in table.get(probe, ()):
                ext = list(row) + [None] * (len(wide) - len(row))
                ok = True
                for (k, n), value in zip(args, tup):
                    if k == "var":
                        j = pos[n]
                        if ext[j] is None:
                            ext[j] = value
                        elif ext[j] != value:
                            ok = False
                            break
                if ok:
                    out.add(tuple(ext[pos[n]] for n in keep))
        names, rows = keep, out
        if not rows:
            break
    return names, rows


def _definition_order(program) -> list:
    """Defined predicates, each after every predicate its clauses use."""
    defined: dict = {}
    for c in program.clauses:
        defined.setdefault(c.head.pred, []).append(c)
    order: list = []
    state: dict = {}

    def visit(pred):
        if state.get(pred) == "done":
            return
        if state.get(pred) == "active":
            raise ValueError(f"recursive definition of {pred}")
        state[pred] = "active"
        for c in defined[pred]:
            for lit in c.body:
                if lit.pred in defined:
                    visit(lit.pred)
        state[pred] = "done"
        order.append(pred)

    for pred in defined:
        visit(pred)
    return [(pred, defined[pred]) for pred in order]


def evaluate(program, facts: dict, domain: tuple) -> dict:
    """Least model of the non-recursive `program` over the primitive
    `facts`: predicate -> set of tuples. A head variable unbound by the
    body ranges over the domain."""
    relations = {p: set(ts) for p, ts in facts.items()}
    index: dict = {}
    for pred, clauses in _definition_order(program):
        derived = relations.setdefault(pred, set())
        for c in clauses:
            head = [_term_key(t) for t in c.head.args]
            head_vars = {n for k, n in head if k == "var"}
            names, rows = _join_body(c.body, head_vars, relations, index)
            free = sorted(head_vars - set(names))
            for row in rows:
                for values in itertools.product(domain, repeat=len(free)):
                    b = dict(zip(names, row))
                    b.update(zip(free, values))
                    derived.add(tuple(b[n] if k == "var" else n for k, n in head))
    return relations


def random_facts(registry, rng: random.Random, domain: tuple, density) -> dict:
    facts = {}
    for pred, (arity, role) in sorted(registry.entries.items()):
        if role != "primitive":
            continue
        if density is None and arity == 2:
            image = list(domain)
            rng.shuffle(image)
            facts[pred] = set(zip(domain, image))
            continue
        p = 0.5 if density is None else density
        facts[pred] = {
            tup
            for tup in itertools.product(domain, repeat=arity)
            if rng.random() < p
        }
    return facts


def agree(before, after, seed: int) -> bool:
    """Input and output give the same task-predicate answers on every
    fact base drawn from the seed."""
    tasks = sorted(before.registry.by_role("task"))
    if sorted(after.registry.by_role("task")) != tasks:
        return False
    domain = tuple(f"c{k}" for k in range(DOMAIN_SIZE))
    rng = random.Random(seed)
    for density in DENSITIES:
        facts = random_facts(before.registry, rng, domain, density)
        a = evaluate(before, facts, domain)
        b = evaluate(after, facts, domain)
        if any(a.get(t, set()) != b.get(t, set()) for t in tasks):
            return False
    return True


def drop_one_literal(program, clause_cls, program_cls):
    """The program with the last body literal of its longest clause
    removed: a corrupted output for the self-test."""
    k = max(range(len(program.clauses)), key=lambda i: len(program.clauses[i].body))
    victim = program.clauses[k]
    clauses = list(program.clauses)
    clauses[k] = clause_cls(victim.head, victim.body[:-1])
    return program_cls(tuple(clauses), program.registry.copy())


SELFTEST_INPUT = """
#primitive right/2.
#primitive place_brick/2.
#primitive up/2.
#task f1/2.
#task f2/2.
#task f3/2.
f1(A,B) :- place_brick(A,C), up(C,D), place_brick(D,E), right(E,B).
f2(A,B) :- right(A,C), place_brick(C,D), up(D,E), place_brick(E,B).
f3(A,B) :- place_brick(A,C), up(C,D), place_brick(D,E), up(E,B).
"""

SELFTEST_OUTPUT = """
#primitive right/2.
#primitive place_brick/2.
#primitive up/2.
#task f1/2.
#task f2/2.
#task f3/2.
#support s/2.
f1(A,B) :- s(A,E), right(E,B).
f2(A,B) :- right(A,C), s(C,B).
f3(A,B) :- s(A,E), up(E,B).
s(A,B) :- place_brick(A,C), up(C,D), place_brick(D,B).
"""


def selftest(parse_program, clause_cls, program_cls, seed: int = 0) -> bool:
    """The check accepts a hand-folded equivalent of a small program and
    rejects the same output with one body literal dropped."""
    before = parse_program(SELFTEST_INPUT)
    after = parse_program(SELFTEST_OUTPUT)
    corrupted = drop_one_literal(after, clause_cls, program_cls)
    return agree(before, after, seed) and not agree(before, corrupted, seed)


# Brick-board semantics, written from the domain description: a row of
# stacks and a cursor; moves fail at the board's edges.

def _lego_step(op: str, heights: tuple, cursor: int):
    width = len(heights)
    if op == "left":
        return (heights, cursor - 1) if cursor > 0 else None
    if op == "right":
        return (heights, cursor + 1) if cursor < width - 1 else None
    if op == "place_brick":
        h = list(heights)
        h[cursor] += 1
        return (tuple(h), cursor)
    tests = {
        "at_left": cursor == 0,
        "at_right": cursor == width - 1,
        "not_at_left": cursor != 0,
        "not_at_right": cursor != width - 1,
    }
    if op not in tests:
        raise ValueError(f"unknown brick-board primitive {op}")
    return (heights, cursor) if tests[op] else None


def lego_run(solution, bk, heights: tuple, cursor: int):
    """Final (heights, cursor) of the solution's single clause run on the
    board, or None if a step does not apply. States flow along the
    clause's variables, from the head's first argument to its last, not
    along its literal order. A defined predicate runs its first clause in
    the knowledge base; a two-argument call of a wider one (the
    synthesizer writes every step with two arguments) maps to its head's
    first and last arguments."""
    defs = {}
    for c in bk.clauses:
        defs.setdefault(c.head.pred, c)

    def run_clause(clause, state):
        env = {clause.head.args[0]: state}
        pending = list(clause.body)
        while pending:
            lit = next((p for p in pending if p.args[0] in env), None)
            if lit is None:
                raise ValueError(f"clause {clause!r} does not chain its states")
            pending.remove(lit)
            here = env[lit.args[0]]
            if bk.registry.role(lit.pred) == "primitive":
                out = _lego_step(lit.pred, *here)
                if out is None or (len(lit.args) == 1 and out != here):
                    return None
                bindings = list(zip(lit.args[1:], [out]))
            else:
                head = defs[lit.pred].head.args
                sub = run_clause(defs[lit.pred], here)
                if sub is None:
                    return None
                if len(lit.args) == len(head):
                    bindings = [(a, sub[h]) for a, h in zip(lit.args[1:], head[1:])]
                else:
                    bindings = [(lit.args[-1], sub[head[-1]])]
            for var, value in bindings:
                if env.setdefault(var, value) != value:
                    return None
        return env

    env = run_clause(solution.clauses[0], (heights, cursor))
    return None if env is None else env[solution.clauses[0].head.args[-1]]
