"""Unfolding, folding and syntactic equivalence."""

from __future__ import annotations

import graphlib
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .logic import (
    Atom,
    Clause,
    Compound,
    LogicError,
    MAX_TERM_DEPTH,
    PredicateRegistry,
    Program,
    Term,
    Var,
    clause_form,
    rename_clause,
)


class TransformError(LogicError):
    pass


class CycleError(TransformError):
    def __init__(self, cycle: list):
        super().__init__("recursive support predicates: " + " -> ".join(cycle))
        self.cycle = cycle


class MissingDefinitionError(TransformError):
    pass


class UnfoldExplosionError(TransformError):
    pass


DEFAULT_UNFOLD_CAP = 10_000


@dataclass
class UnfoldedProgram:
    """Task-headed clauses whose bodies mention primitives only, and the
    source's primitive-headed clauses, which pass through unchanged."""

    clauses: tuple
    registry: PredicateRegistry
    primitive_clauses: tuple

    @property
    def size(self) -> int:
        return sum(c.size for c in self.clauses + self.primitive_clauses)


# ---------------------------------------------------------------------------
# Substitutions

def subst_term(t: Term, s: dict) -> Term:
    """t under s, whose bindings may chain. Raises TransformError for a
    result nested deeper than MAX_TERM_DEPTH, which the parser rejects."""
    return _subst(t, s, 0)


def _subst(t: Term, s: dict, depth: int) -> Term:
    while isinstance(t, Var) and s.get(t, t) != t:
        t = s[t]
    if isinstance(t, Compound):
        if depth == MAX_TERM_DEPTH:
            raise _too_deep()
        return Compound(t.functor, tuple(_subst(a, s, depth + 1) for a in t.args))
    return t


def _too_deep() -> TransformError:
    return TransformError(f"unfolding nests compound terms deeper than {MAX_TERM_DEPTH} levels")


def subst_atom(a: Atom, s: dict) -> Atom:
    return Atom(a.pred, tuple(subst_term(t, s) for t in a.args))


def _instance(t: Term, s: dict, depth: int) -> Term:
    """t with each variable v replaced by s[v] in one pass: unlike _subst,
    no binding chains into another, so s may map a variable to a term
    that holds a variable s also maps. The images count toward the depth
    check as _subst counts them."""
    if isinstance(t, Var):
        t = s[t]
        return _subst(t, {}, depth) if isinstance(t, Compound) else t
    if isinstance(t, Compound):
        if depth == MAX_TERM_DEPTH:
            raise _too_deep()
        return Compound(t.functor, tuple(_instance(a, s, depth + 1) for a in t.args))
    return t


def occurs(v: Var, t: Term) -> bool:
    if isinstance(t, Compound):
        return any(occurs(v, a) for a in t.args)
    return t == v


def unify(t1: Term, t2: Term, s: dict) -> Optional[dict]:
    """Most general unifier extending s, or None. With the occurs check,
    so X never binds to a term containing X."""
    t1, t2 = subst_term(t1, s), subst_term(t2, s)
    if t1 == t2:
        return s
    if isinstance(t1, Var):
        return None if occurs(t1, t2) else {**s, t1: t2}
    if isinstance(t2, Var):
        return None if occurs(t2, t1) else {**s, t2: t1}
    if isinstance(t1, Compound) and isinstance(t2, Compound):
        if t1.functor != t2.functor or len(t1.args) != len(t2.args):
            return None
        for a, b in zip(t1.args, t2.args):
            s = unify(a, b, s)
            if s is None:
                return None
        return s
    return None


def unify_atoms(a1: Atom, a2: Atom, s: dict) -> Optional[dict]:
    if a1.pred != a2.pred or a1.arity != a2.arity:
        return None
    for t1, t2 in zip(a1.args, a2.args):
        s = unify(t1, t2, s)
        if s is None:
            return None
    return s


_fresh_counter = itertools.count()


def rename_apart(c: Clause) -> Clause:
    """c with fresh variables. The names contain "~", which the tokenizer
    rejects, so no variable of a parsed program can share one."""
    n = next(_fresh_counter)
    mapping = {v: Var(f"_R{n}~{v.name}") for v in dict.fromkeys(c.variables())}
    return rename_clause(c, mapping)


def _local_vars(d: Clause) -> Optional[list]:
    """The variables of d's body absent from its head, if the head's
    arguments are distinct variables; None for any other head."""
    args = d.head.args
    if not all(isinstance(t, Var) for t in args) or len(set(args)) < len(args):
        return None
    return [v for v in dict.fromkeys(d.variables()) if v not in args]


# ---------------------------------------------------------------------------
# Unfold

def unfold(p: Program) -> UnfoldedProgram:
    """Inline every support predicate until task-clause bodies mention
    primitives only. One output clause per complete inlining choice.
    Primitive-headed clauses are kept as they are, so their bodies may
    not call support predicates."""
    reg, cap = p.registry, DEFAULT_UNFOLD_CAP
    defs: dict = {}
    for c in p.clauses:
        defs.setdefault(c.head.pred, []).append(c)
    calls = {
        pred: [lit.pred for c in cs for lit in c.body if reg.role(lit.pred) == "support"]
        for pred, cs in defs.items()
        if reg.role(pred) == "support"
    }
    # support pred -> (primitive-body clause, its _local_vars) pairs
    expanded: dict = {}

    def expand_clause(c: Clause) -> list:
        # the primitive-body clauses c unfolds to, read off `expanded`;
        # each round inlines the next support literal of every partial
        # clause r, which comes with the position before which its body
        # holds primitives only
        done: list = []
        todo = [(c, 0)]
        while todo:
            nxt = []
            for r, start in todo:
                for idx in range(start, len(r.body)):
                    lit = r.body[idx]
                    role = reg.role(lit.pred)
                    if role == "support":
                        break
                    if role is None:
                        raise MissingDefinitionError(
                            f"predicate {lit.pred} in the body of {c.head.pred} is undefined"
                        )
                    if role == "task":
                        raise TransformError(
                            f"task predicate {lit.pred} occurs in a body; unfolding only "
                            "inlines support predicates"
                        )
                else:
                    done.append(r)
                    continue
                for d, local in expanded[lit.pred]:
                    if local is not None and len(d.head.args) == len(lit.args):
                        # the most general unifier binds each head
                        # variable to lit's argument and nothing else, so
                        # only d's body changes; its own variables get the
                        # names rename_apart gives
                        n = next(_fresh_counter)
                        s = dict(zip(d.head.args, lit.args))
                        for v in local:
                            s[v] = Var(f"_R{n}~{v.name}")
                        body = tuple(
                            Atom(b.pred, tuple(_instance(t, s, 0) for t in b.args))
                            for b in d.body
                        )
                        u = Clause(r.head, r.body[:idx] + body + r.body[idx + 1 :])
                    else:
                        d = rename_apart(d)
                        s = unify_atoms(d.head, lit, {})
                        if s is None:
                            continue
                        # the unifier may bind r's own variables too (d's
                        # head has a constant, a compound or a repeated
                        # variable where lit has a variable), so it
                        # applies to all of r
                        u = Clause(subst_atom(r.head, s), tuple(
                            subst_atom(b, s) for b in r.body[:idx] + d.body + r.body[idx + 1 :]
                        ))
                    nxt.append((u, idx + len(d.body)))
                if len(nxt) > cap:
                    raise UnfoldExplosionError(
                        f"unfolding exceeded the cap of {cap} clauses"
                    )
            todo = nxt
        return done

    # graphlib orders the support predicates callees first and finds any
    # cycle among them, including those no task clause reaches, without
    # Python recursion; one sweep from callers to callees marks the ones
    # that task clauses reach, which are expanded in that order
    tasks = [c for c in p.clauses if reg.role(c.head.pred) == "task"]
    roots = [lit.pred for c in tasks for lit in c.body if reg.role(lit.pred) == "support"]
    graph = graphlib.TopologicalSorter(calls)
    for root in roots:
        graph.add(root)
    try:
        order = list(graph.static_order())
    except graphlib.CycleError as exc:
        # graphlib's cycle lists each callee before its caller
        raise CycleError(exc.args[1][::-1]) from None
    reached = set(roots)
    for pred in reversed(order):
        if pred in reached:
            reached.update(calls.get(pred, ()))
    for pred in order:
        if pred in reached:
            if pred not in defs:
                raise MissingDefinitionError(f"support predicate {pred} has no clauses")
            expanded[pred] = [(u, _local_vars(u)) for c in defs[pred] for u in expand_clause(c)]

    out_clauses = []
    primitive_clauses = []
    for c in p.clauses:
        if reg.role(c.head.pred) == "primitive":
            for lit in c.body:
                if reg.role(lit.pred) == "support":
                    raise TransformError(
                        f"support predicate {lit.pred} occurs in the body of "
                        f"primitive {c.head.pred}"
                    )
            primitive_clauses.append(c)
    for c in tasks:
        for u in expand_clause(c):
            out_clauses.append(u)
            if len(out_clauses) > cap:
                raise UnfoldExplosionError(f"unfolding exceeded the cap of {cap} clauses")
    return UnfoldedProgram(tuple(out_clauses), reg.copy(), tuple(primitive_clauses))


# ---------------------------------------------------------------------------
# Fold

def pred_counts(lits) -> Counter:
    """(pred, arity) -> the number of literals of `lits` with that pair."""
    return Counter((lit.pred, lit.arity) for lit in lits)


class IndexedBody:
    """A body's matching facts, built once and read by every pattern
    matched against it: its literals, each (pred, arity) bucket's bitmask
    of literals, and each variable's bitmask (by name) of the literals it
    occurs in."""

    __slots__ = ("literals", "buckets", "occurs")

    def __init__(self, literals: tuple):
        self.literals = literals
        self.buckets: dict = {}
        self.occurs: dict = {}
        for i, lit in enumerate(literals):
            key = (lit.pred, len(lit.args))
            self.buckets[key] = self.buckets.get(key, 0) | 1 << i
            for v in lit.variables():
                self.occurs[v.name] = self.occurs.get(v.name, 0) | 1 << i


class Pattern:
    """A support clause's body and head with its matching facts, built
    once and matched against many bodies: each literal's bucket key and
    arguments (a plain variable by its name), the variables absent from
    the head (internal) and the head's variables absent from the body,
    in order, and pred_counts of the body (`need`)."""

    __slots__ = ("head", "keys", "args", "internal", "missing", "need")

    def __init__(self, literals: tuple, head: Atom):
        self.head = head
        self.keys = [(lit.pred, len(lit.args)) for lit in literals]
        self.args = [
            tuple(t.name if isinstance(t, Var) else t for t in lit.args) for lit in literals
        ]
        head_vars = dict.fromkeys(v.name for v in head.variables())
        names = dict.fromkeys(v.name for lit in literals for v in lit.variables())
        self.internal = [v for v in names if v not in head_vars]
        self.missing = [v for v in head_vars if v not in names]
        self.need = Counter(self.keys)


def _bind(p: Term, t: Term, s: dict) -> bool:
    """Extend s, a binding of pattern variable names to body terms, so
    that pattern term p, a constant or a compound term, becomes body term
    t. Body variables are never bound, and a bound pattern variable must
    equal t."""
    if isinstance(p, Compound):
        if not (
            isinstance(t, Compound) and p.functor == t.functor and len(p.args) == len(t.args)
        ):
            return False
        for a, b in zip(p.args, t.args):
            if isinstance(a, Var):
                bound = s.get(a.name)
                if bound is None:
                    s[a.name] = b
                elif bound != b:
                    return False
            elif not _bind(a, b, s):
                return False
        return True
    return p == t


def _instantiate(t: Term, s: dict, fresh: dict) -> Term:
    if isinstance(t, Var):
        return s.get(t.name) or fresh[t.name]
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_instantiate(a, s, fresh) for a in t.args))
    return t


def find_body_matches(body: IndexedBody, pattern: Pattern) -> list:
    """All sub-multiset matches of `pattern` (a support clause's body and
    head) in `body`, with a consistent substitution of the pattern's
    variables.

    Matching is one-way: pattern variables bind to body terms and body
    literals are never instantiated, so the two clauses' variable names
    need not be disjoint. Each pattern literal tries, in body order, only
    the unused body literals of its own (pred, arity) that hold each body
    variable its bound plain variables stand for.

    A valid fold match maps every pattern variable absent from the
    pattern's head to a distinct variable that occurs nowhere in the body
    outside the matched literals, so that unfolding restores the original
    clause. Returns (frozenset of matched indices, instantiated head)
    pairs; a head variable absent from the pattern's body gets a fresh
    name, as rename_apart gives.
    """
    tries = [body.buckets.get(key, 0) for key in pattern.keys]
    if not all(tries):
        return []
    fresh: dict = {}
    if pattern.missing:
        n = next(_fresh_counter)
        fresh = {v: Var(f"_R{n}~{v}") for v in pattern.missing}
    lits, occurs, internal, pargs = body.literals, body.occurs, pattern.internal, pattern.args
    depth, pattern_head = len(pargs), pattern.head

    matches = []
    seen = set()
    chosen: list = []

    def rec(k: int, used: int, s: dict):
        if k == depth:
            # internal variables must be bound to distinct variables local
            # to the matched literals
            images = set()
            for v in internal:
                img = s[v]
                if not isinstance(img, Var) or img.name in images or occurs[img.name] & ~used:
                    return
                images.add(img.name)
            head = Atom(pattern_head.pred,
                        tuple(_instantiate(t, s, fresh) for t in pattern_head.args))
            key = (frozenset(chosen), head)
            if key not in seen:
                seen.add(key)
                matches.append(key)
            return
        args = pargs[k]
        cands = tries[k] & ~used
        for p in args:
            if p.__class__ is str and s.get(p).__class__ is Var:
                cands &= occurs[s[p].name]
        while cands:
            low = cands & -cands
            cands ^= low
            i = low.bit_length() - 1
            s2 = dict(s)
            for p, t in zip(args, lits[i].args):
                if p.__class__ is str:
                    b = s2.get(p)
                    if b is None:
                        s2[p] = t
                    elif b is not t and b != t:
                        break
                elif not _bind(p, t, s2):
                    break
            else:
                chosen.append(i)
                rec(k + 1, used | 1 << i, s2)
                chosen.pop()

    rec(0, 0, {})
    return matches


DISJOINT_NODE_CAP = 10_000  # search nodes of _max_disjoint_count


def _disjoint_walk(matches: list):
    """The take-first search over sets of pairwise index-disjoint
    matches. Yields, for each match it reaches, the set that taking it
    grows (a list), or None if the match overlaps the chosen ones. No
    recursion, so that long bodies fit the stack: each frame is (the next
    match to try, the matches chosen, the literals they hold)."""
    stack = [(0, [], frozenset())]
    while stack:
        i, chosen, used = stack.pop()
        if i == len(matches):
            continue
        stack.append((i + 1, chosen, used))
        idxs = matches[i][0]
        grown = None if idxs & used else chosen + [matches[i]]
        yield grown
        if grown:
            stack.append((i + 1, grown, used | idxs))


def _disjoint_subsets(matches: list, cap: Optional[int] = None) -> list:
    """All nonempty sets of pairwise index-disjoint matches, in a
    deterministic order (at most `cap` of them, the first ones)."""
    return list(itertools.islice(filter(None, _disjoint_walk(matches)), cap))


def _max_disjoint_count(matches: list) -> int:
    """Maximum number of pairwise index-disjoint matches, or len(matches)
    (a safe over-estimate) past DISJOINT_NODE_CAP search nodes."""
    walk = itertools.islice(_disjoint_walk(matches), DISJOINT_NODE_CAP + 1)
    sizes = [len(grown or ()) for grown in walk]
    return len(matches) if len(sizes) > DISJOINT_NODE_CAP else max(sizes, default=0)


def apply_match_set(clause: Clause, match_set: list) -> Clause:
    """Replace each match's literals with its instantiated head, inserted
    at the position of the first matched literal."""
    replacement_at = {}
    drop = set()
    for idxs, head in match_set:
        first = min(idxs)
        replacement_at[first] = head
        drop |= idxs
    body = []
    for i, lit in enumerate(clause.body):
        if i in replacement_at:
            body.append(replacement_at[i])
        elif i not in drop:
            body.append(lit)
    return Clause(clause.head, tuple(body))


def fold_clause(c: Clause, s: Clause) -> list:
    """Fold c with the support clause s: one result per maximal set of
    pairwise-disjoint matches of s's body in c's body. Empty when there
    is no match."""
    matches = find_body_matches(IndexedBody(c.body), Pattern(s.body, s.head))
    if not matches:
        return []
    subsets = _disjoint_subsets(matches)
    # keep maximal subsets only
    keys = [frozenset().union(*(m[0] for m in sub)) for sub in subsets]
    results = {}
    for i, sub in enumerate(subsets):
        if any(j != i and keys[i] < keys[j] for j in range(len(subsets))):
            continue
        folded = apply_match_set(c, sub)
        results.setdefault(clause_form(folded), folded)
    return list(results.values())


# ---------------------------------------------------------------------------
# Syntactic equivalence

def multiset_variant_equal(cs1: list, cs2: list) -> bool:
    """True iff cs1 and cs2 are equal multisets of clauses up to variable
    renaming; aligned equal clauses are taken out before any form."""
    if len(cs1) != len(cs2):
        return False
    rest = [(a, b) for a, b in zip(cs1, cs2) if a != b]
    return Counter(clause_form(a) for a, _ in rest) == Counter(clause_form(b) for _, b in rest)


def syntactic_equiv(p1: Program | UnfoldedProgram, p2: Program) -> bool:
    """True iff unfold(p1) and unfold(p2) have the same multisets of task
    clauses and of primitive-headed clauses, up to variable renaming and
    clause order. p1 may be a Program or its UnfoldedProgram, which is
    then not unfolded again."""
    t1 = set(p1.registry.by_role("task"))
    t2 = set(p2.registry.by_role("task"))
    if t1 != t2:
        return False
    u1 = p1 if isinstance(p1, UnfoldedProgram) else unfold(p1)
    u2 = unfold(p2)
    return all(
        multiset_variant_equal(list(a), list(b))
        for a, b in [(u1.clauses, u2.clauses), (u1.primitive_clauses, u2.primitive_clauses)]
    )
