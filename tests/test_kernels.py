"""Differential tests of the sub-body kernels: the one-way indexed
matcher, bitmask connectivity and canonical variant forms, each against
a reference copy of the implementation it replaced (unify-based
matching, union-find connectivity, the smallest rendering over literal
orderings and a search for a variable bijection); and candidate extraction with the
usage index, the literal-count bound and the shared sub-body
enumeration, against a reference copy of extraction that scans every
body, matches every candidate and enumerates sub-bodies at each use; and
the parser, which reads plain token strings and finds positions only for
an error, against a reference copy that reads positioned tokens; and
unfolding, which binds linear heads directly, and syntactic equivalence,
which accepts aligned equal clauses before any variant search, against
reference copies that unify every definition and search every clause;
and keyed_subsets with a shared memo of forms, and the greedy baseline,
which keeps each class's counts across its rounds, against reference
copies that form every sub-body and count every class in every round."""

import graphlib
import itertools
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

import refold
from refold import candidates, copmodel, pipeline, transform
from refold.candidates import (
    RED_SUBBODY_MAX,
    CandidateSupportClause,
    UsageIndex,
    build_search_space,
    fresh_name,
    make_candidate_clause,
    variant_classes,
)
from refold.logic import (
    MAX_TERM_DEPTH,
    ROLES,
    ArityError,
    Atom,
    Clause,
    Compound,
    Const,
    LogicError,
    ParseError,
    PredicateRegistry,
    Program,
    Var,
    _canonical_name,
    _form,
    _layout,
    _literal_layout,
    canonicalize_clause,
    connected_index_subsets,
    is_variable_name,
    keyed_subsets,
    parse_program,
    rename_clause,
    render_clause,
    render_program,
    variant_equal,
    variant_key,
)
from refold.pipeline import RefactorConfig, VerificationError, refactor
from refold.solver import SolverBudget
from refold.transform import (
    DEFAULT_UNFOLD_CAP,
    CycleError,
    IndexedBody,
    MissingDefinitionError,
    Pattern,
    TransformError,
    UnfoldedProgram,
    UnfoldExplosionError,
    _disjoint_subsets,
    _max_disjoint_count,
    apply_match_set,
    find_body_matches,
    fold_clause,
    pred_counts,
    rename_apart,
    subst_atom,
    subst_term,
    syntactic_equiv,
    unfold,
    unify_atoms,
)

from tests.conftest import dense_program, random_program
from tests.oracles import benchmark_workloads
from tests.test_copmodel import lego_bk_program

# ---------------------------------------------------------------------------
# Reference implementations


def reference_matches(body: tuple, pattern: tuple, pattern_head: Atom) -> list:
    renamed = rename_apart(Clause(pattern_head, tuple(pattern)))
    pattern_head, pattern = renamed.head, renamed.body
    pattern_vars = set(renamed.variables())
    head_vars = set(pattern_head.variables())
    internal = [v for v in dict.fromkeys(v for lit in pattern for v in lit.variables())
                if v not in head_vars]
    occurs: dict = {}
    for i, lit in enumerate(body):
        for v in lit.variables():
            occurs.setdefault(v, set()).add(i)
    matches, seen = [], set()

    def rec(k, used, s):
        if k == len(pattern):
            if any(v not in pattern_vars for v in s):
                return
            bound = [subst_term(v, s) for v in internal]
            if len(set(bound)) != len(bound):
                return
            for img in bound:
                if not isinstance(img, Var) or not occurs.get(img, set()) <= set(used):
                    return
            key = (used, subst_atom(pattern_head, s))
            if key not in seen:
                seen.add(key)
                matches.append(key)
            return
        for i, cand in enumerate(body):
            if i in used:
                continue
            s2 = unify_atoms(pattern[k], cand, dict(s))
            if s2 is None or subst_atom(cand, s2) != cand:
                continue
            rec(k + 1, used | {i}, s2)

    rec(0, frozenset(), {})
    return matches


def reference_connected(lits: list) -> bool:
    parent = list(range(len(lits)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    owner: dict = {}
    for i, lit in enumerate(lits):
        for v in lit.variables():
            if v in owner:
                parent[find(i)] = find(owner[v])
            else:
                owner[v] = i
    return len({find(i) for i in range(len(lits))}) <= 1


def reference_connected_subsets(body: tuple, min_size: int, max_size: int) -> list:
    return [
        tuple(body[i] for i in idxs)
        for size in range(max(1, min_size), min(len(body), max_size) + 1)
        for idxs in itertools.combinations(range(len(body)), size)
        if reference_connected([body[i] for i in idxs])
    ]


def brute_force_variant_key(body) -> str:
    return min(
        render_clause(canonicalize_clause(Clause(Atom("k"), perm)))
        for perm in itertools.permutations(tuple(body))
    )


def reference_variant_key(body) -> str:
    """brute_force_variant_key by an ordering search. A partial ordering
    renders to a fixed prefix of each of its completions, so orderings
    grow one literal at a time, and after each step only those whose
    rendering starts with the smallest one are kept."""
    layouts = []
    for a in body:
        names: list = []
        layouts.append((_layout(a.pred, a.args, names), names))
    n = len(layouts)
    if not n:
        return "k."
    # (rendering so far, bitmask of the literals placed, variable name ->
    # canonical name)
    partials = [("", 0, {})]
    for step in range(n):
        sep = ", " if step < n - 1 else "."
        grown = []
        for text, used, rename in partials:
            for i, (fmt, names) in enumerate(layouts):
                if used >> i & 1:
                    continue
                r = dict(rename)
                args = [r.setdefault(v, _canonical_name(len(r))) for v in names]
                grown.append((text + fmt.format(*args) + sep, used | 1 << i, r))
        best = min(g[0] for g in grown)
        partials = [g for g in grown if g[0].startswith(best)]
    return "k :- " + best


def _reference_match_terms(t1, t2, fwd: dict, bwd: dict, trail: list) -> bool:
    """Extend the variable bijection fwd/bwd so that t1 maps onto t2; each
    newly bound variable of t1 is appended to `trail`."""
    if isinstance(t1, Var) and isinstance(t2, Var):
        if t1 in fwd:
            return fwd[t1] == t2
        if t2 in bwd:
            return False
        fwd[t1] = t2
        bwd[t2] = t1
        trail.append(t1)
        return True
    if isinstance(t1, Const) and isinstance(t2, Const):
        return t1.name == t2.name
    if isinstance(t1, Compound) and isinstance(t2, Compound):
        if t1.functor != t2.functor or len(t1.args) != len(t2.args):
            return False
        return all(_reference_match_terms(a, b, fwd, bwd, trail)
                   for a, b in zip(t1.args, t2.args))
    return False


def reference_match_atoms(a1: Atom, a2: Atom, fwd: dict, bwd: dict, trail: list) -> bool:
    if a1.pred != a2.pred or a1.arity != a2.arity:
        return False
    return all(_reference_match_terms(t1, t2, fwd, bwd, trail)
               for t1, t2 in zip(a1.args, a2.args))


def _reference_shape(t) -> tuple:
    if isinstance(t, Var):
        return ("V",)
    if isinstance(t, Const):
        return ("c", t.name)
    return ("f", t.functor, tuple(map(_reference_shape, t.args)))


def _reference_skeleton(a: Atom):
    return (a.pred, tuple(map(_reference_shape, a.args)))


def reference_variant_equal(c1: Clause, c2: Clause) -> bool:
    """A depth-first search for a variable bijection that maps c1 onto c2,
    placing c1's body literals in order; a literal with a bound top-level
    variable is tried only against the holders of that variable's image."""
    if len(c1.body) != len(c2.body):
        return False
    if _reference_skeleton(c1.head) != _reference_skeleton(c2.head):
        return False
    if sorted(map(_reference_skeleton, c1.body)) != sorted(map(_reference_skeleton, c2.body)):
        return False
    fwd: dict = {}
    bwd: dict = {}
    trail: list = []
    if not reference_match_atoms(c1.head, c2.head, fwd, bwd, trail):
        return False
    body1, body2 = c1.body, c2.body
    used = [False] * len(body2)
    holders: dict = {}
    for idx, lit in enumerate(body2):
        for t in lit.args:
            if isinstance(t, Var):
                held = holders.setdefault(t.name, [])
                if not held or held[-1] != idx:
                    held.append(idx)

    def unbind(mark):
        while len(trail) > mark:
            del bwd[fwd.pop(trail.pop())]

    # placed: each placed literal's (body2 index, position among its
    # options, trail length before it)
    placed: list = []
    k = start = 0
    while k < len(body1):
        opts = range(len(body2))
        for t in body1[k].args:
            if isinstance(t, Var) and t in fwd:
                opts = holders.get(fwd[t].name, ())
                break
        for pos in range(start, len(opts)):
            idx = opts[pos]
            if used[idx]:
                continue
            mark = len(trail)
            if reference_match_atoms(body1[k], body2[idx], fwd, bwd, trail):
                used[idx] = True
                placed.append((idx, pos, mark))
                k, start = k + 1, 0
                break
            unbind(mark)
        else:
            if not placed:
                return False
            idx, pos, mark = placed.pop()
            used[idx] = False
            unbind(mark)
            k, start = k - 1, pos + 1
    return True


def reference_fold(c: Clause, s: Clause) -> list:
    matches = reference_matches(c.body, s.body, s.head)
    subsets = _disjoint_subsets(matches)
    keys = [frozenset().union(*(m[0] for m in sub)) for sub in subsets]
    results = []
    for i, sub in enumerate(subsets):
        if any(j != i and keys[i] < keys[j] for j in range(len(subsets))):
            continue
        folded = apply_match_set(c, sub)
        if not any(reference_variant_equal(folded, r) for r in results):
            results.append(folded)
    return results


def reference_count_usage(body: tuple, head: Atom, clause_groups: list) -> int:
    need = pred_counts(body)
    n = 0
    for group in clause_groups:
        n += max(
            (
                _max_disjoint_count(find_body_matches(IndexedBody(b), Pattern(body, head)))
                for b, have in group
                if need <= have
            ),
            default=0,
        )
    return n


def reference_extract_candidates(clauses, i, j, level, invented=None, index=None,
                                 subbodies=None, run=None):
    """Takes, and ignores, the precomputed `subbodies` and the `run` of the
    new code; of `index`, reads only which group each body belongs to."""
    if i < 1 or j < i:
        raise ValueError(f"invalid size window [{i}, {j}]")
    bodies = [c.body if isinstance(c, Clause) else tuple(c) for c in clauses]
    by_class: dict = {}
    order: list = []
    for body in bodies:
        if invented is not None:
            body = tuple(l for l in body if l.pred in invented)
        for subset in reference_connected_subsets(body, i, j):
            key = variant_key(subset)
            if key not in by_class:
                by_class[key] = subset
                order.append(key)
    pairs = enumerate(bodies) if index is None else [(g, b) for g, b, _ in index.bodies]
    groups: dict = {}
    for g, b in pairs:
        groups.setdefault(g, []).append(b)
    keyed_groups = [[(b, pred_counts(b)) for b in group] for group in groups.values()]
    out = []
    for ordinal, key in enumerate(order):
        subset = by_class[key]
        clause = make_candidate_clause(subset, f"inv_{level}_{ordinal}")
        deps = frozenset()
        if level > 1 and invented is not None:
            deps = frozenset(invented[l.pred] for l in subset if l.pred in invented)
        out.append(CandidateSupportClause(
            id=ordinal, clause=clause, level=level, dependencies=deps,
            usage=reference_count_usage(subset, clause.head, keyed_groups),
        ))
    return out


def reference_encode_redundancy(m, space, red_group_cap, new_var, add, run=None):
    def subbody_keys(literals):
        if len(literals) < 2:
            return ()
        subs = reference_connected_subsets(literals, 2, min(3, len(literals)))
        seen = set()
        out = []
        for sub in subs:
            key = variant_key(sub)
            if key not in seen:
                seen.add(key)
                out.append((len(sub), key))
        return out

    classes: dict = {}
    for cl in sorted(space.foldings):
        raw = space.foldings[cl][0][0]
        for size, key in subbody_keys(raw.literals):
            classes.setdefault(key, [size, set(), []])[1].add(cl)
    for cand in space.candidates:
        svar = m.sc_vars[cand.id]
        for size, key in subbody_keys(cand.clause.body):
            classes.setdefault(key, [size, set(), []])[2].append(svar)
    groups = [
        (size, key, len(raw_cls), members)
        for key, (size, raw_cls, members) in classes.items()
        if len(raw_cls) <= 1 and len(raw_cls) + len(members) >= 2
    ]
    groups.sort(key=lambda g: (-g[0], g[1]))
    for gid, (size, key, base, members) in enumerate(groups[:red_group_cap]):
        rvar = new_var(("RED", gid))
        m.red_members[rvar] = tuple(members)
        m.red_base[rvar] = base
        m.objective[rvar] = 1
        k = base + len(members)
        add([(k - 1, rvar)] + [(-1, f) for f in members], base - 1, "red-force")
        add([(1, f) for f in members] + [(-2, rvar)], -base, "red-honest")


# the parser that reads (text, line, column) tuples, one per token
_REFERENCE_SYMS = {":-", "(", ")", ",", ".", "/", "#"}
_REFERENCE_LEXEME = re.compile(r"[ \t\r]+|%[^\n]*|(\n)|(:-|[().,/#]|\w+)|(.)")


def reference_tokenize(text: str) -> list:
    toks = []
    line, start = 1, 0
    for m in _REFERENCE_LEXEME.finditer(text):
        if m.lastindex == 1:
            line, start = line + 1, m.end()
        elif m.lastindex:
            col = m.start() - start + 1
            if m.lastindex == 3:
                raise ParseError(f"unexpected character {m[3]!r}", line, col)
            toks.append((m[2], line, col))
    toks.append(("", *(toks[-1][1:] if toks else (1, 1))))
    return toks


class _ReferenceParser:
    def __init__(self, text: str):
        self.toks = reference_tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def next(self) -> tuple:
        tok = self.toks[self.pos]
        if not tok[0]:
            raise ParseError("unexpected end of input", tok[1], tok[2])
        self.pos += 1
        return tok

    def expect(self, sym: str):
        tok, line, col = self.next()
        if tok != sym:
            raise ParseError(f"expected {sym!r}, found {tok!r}", line, col)

    def name(self, what: str) -> tuple:
        tok, line, col = self.next()
        if tok in _REFERENCE_SYMS:
            raise ParseError(f"expected {what}, found {tok!r}", line, col)
        return tok, line, col

    def parse_args(self, depth: int) -> tuple:
        self.expect("(")
        args = [self.parse_term(depth)]
        while self.peek() == ",":
            self.next()
            args.append(self.parse_term(depth))
        self.expect(")")
        return tuple(args)

    def parse_term(self, depth: int):
        tok, line, col = self.name("a term")
        if self.peek() == "(":
            if is_variable_name(tok):
                raise ParseError(f"variable {tok} cannot take arguments", line, col)
            if depth == MAX_TERM_DEPTH:
                raise ParseError(
                    f"compound terms nest deeper than {MAX_TERM_DEPTH} levels", line, col
                )
            return Compound(tok, self.parse_args(depth + 1))
        return Var(tok) if is_variable_name(tok) else Const(tok)

    def parse_atom(self) -> Atom:
        tok, line, col = self.name("a predicate")
        if is_variable_name(tok):
            raise ParseError(f"predicate name {tok} must not be a variable", line, col)
        return Atom(tok, self.parse_args(0) if self.peek() == "(" else ())

    def parse_clause(self) -> Clause:
        head = self.parse_atom()
        body = []
        tok, line, col = self.next()
        if tok == ":-":
            body.append(self.parse_atom())
            tok, line, col = self.next()
            while tok == ",":
                body.append(self.parse_atom())
                tok, line, col = self.next()
            if tok != ".":
                raise ParseError(f"expected ',' or '.', found {tok!r}", line, col)
        elif tok != ".":
            raise ParseError(f"expected ':-' or '.', found {tok!r}", line, col)
        return Clause(head, tuple(body))

    def parse_directive(self) -> tuple:
        role, line, col = self.next()
        if role not in ROLES:
            raise ParseError(f"unknown directive #{role}", line, col)
        name, line, col = self.name("a predicate")
        if is_variable_name(name):
            raise ParseError("predicate name must not be a variable", line, col)
        self.expect("/")
        arity, line, col = self.next()
        if not (arity.isdecimal() and len(arity.lstrip("0")) < 10):
            raise ParseError(f"expected an arity, found {arity!r}", line, col)
        self.expect(".")
        return role, name, int(arity)


def reference_parse_program(text: str) -> Program:
    parser = _ReferenceParser(text)
    registry = PredicateRegistry()
    clauses = []
    while parser.peek():
        if parser.peek() != "#":
            clauses.append(parser.parse_clause())
            continue
        _, line, col = parser.next()
        role, name, arity = parser.parse_directive()
        if name in registry.entries:
            raise ParseError(f"duplicate role declaration for {name}", line, col)
        registry.declare(name, arity, role)
    arities: dict = {}
    for c in clauses:
        for atom in (c.head, *c.body):
            old = arities.setdefault(atom.pred, atom.arity)
            if old != atom.arity:
                raise ArityError(
                    f"{atom.pred} used with arity {atom.arity} but also with arity {old}"
                )
    for pred, arity in arities.items():
        declared = registry.arity(pred)
        if declared not in (None, arity):
            raise ArityError(
                f"{pred} declared with arity {declared} but used with arity {arity}"
            )
    defined = {c.head.pred for c in clauses}
    for pred, arity in arities.items():
        if registry.role(pred) is None:
            if pred not in defined:
                raise LogicError(
                    f"predicate {pred}/{arity} is used but neither declared nor defined"
                )
            registry.declare(pred, arity, "support")
    return Program(tuple(clauses), registry)


def reference_unfold(p: Program) -> UnfoldedProgram:
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
    expanded: dict = {}  # support pred -> list of primitive-body clauses

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
                for d in expanded[lit.pred]:
                    d = rename_apart(d)
                    s = unify_atoms(d.head, lit, {})
                    if s is None:
                        continue
                    # the unifier may bind r's own variables too (d's head
                    # has a constant, a compound or a repeated variable
                    # where lit has a variable), so it applies to all of r
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
            expanded[pred] = [u for c in defs[pred] for u in expand_clause(c)]

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


def reference_multiset_variant_equal(cs1: list, cs2: list) -> bool:
    if len(cs1) != len(cs2):
        return False
    buckets: dict = {}
    for c in cs2:
        key = (_reference_skeleton(c.head), tuple(sorted(map(_reference_skeleton, c.body))))
        buckets.setdefault(key, []).append(c)
    for c in cs1:
        key = (_reference_skeleton(c.head), tuple(sorted(map(_reference_skeleton, c.body))))
        pool = buckets.get(key, [])
        for i, other in enumerate(pool):
            if reference_variant_equal(c, other):
                pool.pop(i)
                break
        else:
            return False
    return True


def reference_syntactic_equiv(p1: Program, p2: Program) -> bool:
    """True iff unfold(p1) and unfold(p2) have the same multisets of task
    clauses and of primitive-headed clauses, up to variable renaming and
    clause order."""
    t1 = set(p1.registry.by_role("task"))
    t2 = set(p2.registry.by_role("task"))
    if t1 != t2:
        return False
    u1 = reference_unfold(p1)
    u2 = reference_unfold(p2)
    return all(
        reference_multiset_variant_equal(list(a), list(b))
        for a, b in [(u1.clauses, u2.clauses), (u1.primitive_clauses, u2.primitive_clauses)]
    )


def _unfresh(t):
    """Fresh names are `_R<n>~<name>`; drop the call-dependent <n>."""
    if isinstance(t, Var) and "~" in t.name:
        return Var("~" + t.name.split("~", 1)[1])
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_unfresh(a) for a in t.args))
    return t


def _normalised(matches: list) -> list:
    return [(idxs, Atom(h.pred, tuple(map(_unfresh, h.args)))) for idxs, h in matches]


# ---------------------------------------------------------------------------
# Strategies: pattern and body draw variables from one pool, so names
# coincide across the two; constants, compound terms and repeated
# variables all occur.

_VARS = st.sampled_from([Var(n) for n in ("A", "B", "C", "X", "Y")])
_CONSTS = st.sampled_from([Const("a"), Const("b")])
_TERMS = st.recursive(
    st.one_of(_VARS, _VARS, _CONSTS),
    lambda inner: st.builds(
        Compound, st.sampled_from(["f", "g"]), st.lists(inner, min_size=1, max_size=2).map(tuple)
    ),
    max_leaves=3,
)
_SIGNATURES = [("p", 2), ("q", 2), ("r", 1), ("s", 0), ("p", 3), ("t", 3)]


@st.composite
def _atoms(draw, terms=_TERMS):
    pred, arity = draw(st.sampled_from(_SIGNATURES))
    return Atom(pred, tuple(draw(terms) for _ in range(arity)))


def _bodies(max_size: int, min_size: int = 1):
    return st.lists(_atoms(), min_size=min_size, max_size=max_size).map(tuple)


@st.composite
def _patterns_for(draw, body):
    """A pattern drawn partly from the literals of `body` (so matches are
    common), with a head over the pattern's variables, possibly missing
    some and adding others."""
    pattern = tuple(
        draw(st.one_of(st.sampled_from(body), _atoms()))
        for _ in range(draw(st.integers(1, 3)))
    )
    pvars = list(dict.fromkeys(v for lit in pattern for v in lit.variables()))
    head_args = draw(st.lists(st.one_of(st.sampled_from(pvars) if pvars else _VARS, _TERMS),
                              max_size=3))
    return pattern, Atom("h", tuple(head_args))


@st.composite
def _match_cases(draw):
    body = draw(_bodies(5))
    return (body, *draw(_patterns_for(body)))


class TestMatcher:
    @settings(max_examples=600, deadline=None)
    @given(_match_cases())
    def test_equals_unify_based_reference(self, case):
        body, pattern, head = case
        got = find_body_matches(IndexedBody(body), Pattern(pattern, head))
        assert _normalised(got) == _normalised(reference_matches(body, pattern, head))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_indexed_body_serves_many_patterns(self, data):
        body = data.draw(_bodies(5))
        indexed = IndexedBody(body)
        cases = data.draw(st.lists(_patterns_for(body), min_size=1, max_size=5))
        # each pattern twice, the second time after all the others: a
        # match leaves the shared form as it found it
        for pattern, head in cases + cases:
            got = find_body_matches(indexed, Pattern(pattern, head))
            assert _normalised(got) == _normalised(reference_matches(body, pattern, head))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_pattern_serves_many_bodies(self, data):
        bodies = data.draw(st.lists(_bodies(5), min_size=1, max_size=5))
        pattern, head = data.draw(_patterns_for(data.draw(st.sampled_from(bodies))))
        form = Pattern(pattern, head)
        for body in bodies + bodies:
            got = find_body_matches(IndexedBody(body), form)
            assert _normalised(got) == _normalised(reference_matches(body, pattern, head))

    def test_shared_names_do_not_chain(self):
        # pattern variable X is named like a body variable it must not touch
        body = (Atom("p", (Var("Y"), Var("X"))), Atom("p", (Var("X"), Var("Z"))))
        pattern = (Atom("p", (Var("X"), Var("Y"))),)
        head = Atom("h", (Var("X"), Var("Y")))
        got = find_body_matches(IndexedBody(body), Pattern(pattern, head))
        assert got == [
            (frozenset({0}), Atom("h", (Var("Y"), Var("X")))),
            (frozenset({1}), Atom("h", (Var("X"), Var("Z")))),
        ]
        assert _normalised(got) == _normalised(reference_matches(body, pattern, head))

    def test_head_variable_absent_from_body_gets_a_fresh_name(self):
        prog = parse_program(
            "#primitive p/2.\n#primitive q/2.\n#task t/2.\n"
            "s(X,W) :- p(X,Y), q(Y,Z).\n"
            "t(A,W) :- p(A,B), q(B,C), p(W,A)."
        )
        s, c = prog.clauses
        [(idxs, head)] = find_body_matches(IndexedBody(c.body), Pattern(s.body, s.head))
        assert idxs == frozenset({0, 1}) and head.args[0] == Var("A")
        assert "~" in head.args[1].name  # cannot capture the body's W
        [folded] = fold_clause(c, s)
        assert variant_equal(folded, reference_fold(c, s)[0])
        assert len(set(folded.variables())) == 3  # A, W and the fresh one

    @settings(max_examples=300, deadline=None)
    @given(c_body=_bodies(5), s_body=_bodies(3), extra=_VARS)
    def test_fold_clause_equals_reference(self, c_body, s_body, extra):
        # the support head keeps the body's first variables and adds one
        # more, which the body may lack
        vs = list(dict.fromkeys(v for lit in s_body for v in lit.variables()))
        s = Clause(Atom("s", tuple(vs[:2]) + (extra,)), s_body)
        c = Clause(Atom("t", (Var("A"),)), c_body)
        got, want = fold_clause(c, s), reference_fold(c, s)
        assert len(got) == len(want)
        assert all(variant_equal(g, w) for g, w in zip(got, want))


class TestConnectivity:
    @settings(max_examples=400, deadline=None)
    @given(body=_bodies(7), lo=st.integers(1, 4), span=st.integers(0, 4))
    def test_subsets_equal_union_find_reference(self, body, lo, span):
        got = [tuple(body[i] for i in idxs)
               for idxs in connected_index_subsets(body, lo, lo + span)]
        assert got == reference_connected_subsets(body, lo, lo + span)


# predicate names that prefix each other ("p1(" sorts before "p10(" on
# "(" against "0", and "p1, " before "p10" on "," against "0") or hold
# the braces that layouts escape
_KEY_NAMES = ["p", "p1", "p10", "q{", "}q", "{}"]
_KEY_TERMS = st.one_of(
    _VARS,
    st.sampled_from([Const("a"), Const("a{"), Const("}")]),
    st.builds(Compound, st.sampled_from(["f", "f}"]), st.tuples(_VARS)),
)


@st.composite
def _key_atoms(draw):
    arity = draw(st.integers(0, 3))  # arity 0 renders without parentheses
    return Atom(draw(st.sampled_from(_KEY_NAMES)),
                tuple(draw(_KEY_TERMS) for _ in range(arity)))


@st.composite
def _key_bodies(draw, min_size: int, max_size: int):
    """Bodies drawn from a small pool of literals, so literals repeat."""
    pool = draw(st.lists(_key_atoms(), min_size=1, max_size=4))
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=max_size)))


# few predicates over three variables: many variables tie on their
# occurrences and links, so the labelling search branches
_TIE_LITERALS = st.builds(
    lambda pred, args: Atom(pred, args[: 1 if pred == "q" else 2]),
    st.sampled_from(["p", "q"]),
    st.tuples(*[st.sampled_from([Var("X"), Var("Y"), Var("Z")])] * 2),
)


@st.composite
def _cycles(draw):
    """Binary p and q literals around a cycle of 1 to 6 variables, each
    literal running either way round, or, so that every variable ties
    with every other, all of one predicate and one way round."""
    n = draw(st.integers(1, 6))
    vs = [Var(f"C{k}") for k in range(n)]
    preds = st.sampled_from(["p", "q"])
    ways = st.sampled_from([1, -1])
    if draw(st.booleans()):
        preds, ways = st.just(draw(preds)), st.just(draw(ways))
    return tuple(Atom(draw(preds), (vs[k], vs[(k + 1) % n])[:: draw(ways)]) for k in range(n))


@st.composite
def _stars(draw):
    """1 to 6 binary literals that each join a centre variable to one of
    four leaves, so that leaves are shared or twins."""
    centre, leaves = Var("S"), [Var(f"L{k}") for k in range(4)]
    return tuple(
        Atom(draw(st.sampled_from(["p", "q"])),
             (centre, draw(st.sampled_from(leaves)))[:: draw(st.sampled_from([1, -1]))])
        for _ in range(draw(st.integers(1, 6)))
    )


def _renamed(c: Clause, rnd: random.Random) -> Clause:
    """c with its body literals shuffled and its variables renamed apart."""
    body = list(c.body)
    rnd.shuffle(body)
    old = list(dict.fromkeys(c.variables()))
    new = [Var(f"R{k}") for k in range(len(old))]
    rnd.shuffle(new)
    return rename_clause(Clause(c.head, tuple(body)), dict(zip(old, new)))


def _mutated(c: Clause, rnd: random.Random, atom: Atom, how: str = "") -> Clause:
    """c with one body literal replaced by `atom`, its arguments reversed
    or its predicate renamed, as `how` says, or else at random."""
    body = list(c.body)
    k = rnd.randrange(len(body))
    lit = body[k]
    body[k] = {
        "atom": atom, "reverse": Atom(lit.pred, lit.args[::-1]), "rename": Atom(lit.pred + "x", lit.args)
    }[how or rnd.choice(["atom", "reverse", "rename"])]
    return Clause(c.head, tuple(body))


@st.composite
def _families(draw, bodies, atoms, size: int):
    """`size` clauses: one drawn with a body from `bodies` and a head over
    some of its variables, then renamed and reordered copies of it, half of
    them with one literal mutated (see _mutated, `atoms` giving the
    replacement): variants and near-variants."""
    body = draw(bodies)
    vs = list(dict.fromkeys(v for lit in body for v in lit.variables()))
    head = Atom("h", tuple(draw(st.lists(st.sampled_from(vs), max_size=2)) if vs else ()))
    rnd = draw(st.randoms(use_true_random=True))
    base = Clause(head, body)
    family = [base]
    while len(family) < size:
        c = base
        if body and rnd.random() < 0.5:
            c = _mutated(base, rnd, draw(atoms))
        family.append(_renamed(c, rnd))
    return family


def _assert_same_partition(bodies: list, reference):
    """variant_key puts two of `bodies` in one class iff `reference` does."""
    got = [variant_key(b) for b in bodies]
    want = [reference(b) for b in bodies]
    assert len(set(zip(got, want))) == len(set(got)) == len(set(want))


def _family_bodies(bodies, atoms, size: int = 4):
    return _families(bodies, atoms, size).map(lambda cs: [c.body for c in cs])


class TestVariantKey:
    # each test checks that variant_key partitions bodies, variants and
    # near-variants of each other, as a reference key does

    @settings(max_examples=300, deadline=None)
    @given(bodies=_family_bodies(_bodies(4, min_size=0), _atoms()))
    def test_equals_rendered_canonical_clause(self, bodies):
        _assert_same_partition(bodies, brute_force_variant_key)

    @settings(max_examples=300, deadline=None)
    @given(bodies=_family_bodies(_key_bodies(0, 4), _key_atoms()))
    def test_prefix_names_braces_arity_0_and_repeats(self, bodies):
        _assert_same_partition(bodies, brute_force_variant_key)

    @settings(max_examples=300, deadline=None)
    @given(bodies=_family_bodies(st.lists(_TIE_LITERALS, min_size=2, max_size=4).map(tuple),
                                 _TIE_LITERALS))
    def test_tied_partial_orderings(self, bodies):
        _assert_same_partition(bodies, brute_force_variant_key)

    def test_a_tie_is_settled_by_a_later_literal(self):
        # both p literals open as "p(A,B)" in the reference's ordering
        # search; only the second one's naming makes q(X) render as q(A)
        x, y, z = Var("X"), Var("Y"), Var("Z")
        body = (Atom("p", (y, x)), Atom("p", (x, y)), Atom("q", (x,)))
        assert reference_variant_key(body) == brute_force_variant_key(body)
        assert reference_variant_key(body) == "k :- p(A,B), p(B,A), q(A)."
        same = (Atom("q", (y,)), Atom("p", (x, y)), Atom("p", (y, x)))
        other = (Atom("p", (y, x)), Atom("p", (x, y)), Atom("q", (z,)))
        _assert_same_partition([body, same, other], brute_force_variant_key)
        assert variant_key(body) == variant_key(same) != variant_key(other)

    @settings(max_examples=100, deadline=None)
    @given(bodies=_family_bodies(st.one_of(_key_bodies(5, 6), _bodies(6, 5)),
                                 st.one_of(_key_atoms(), _atoms())))
    def test_bodies_of_five_and_six_literals(self, bodies):
        _assert_same_partition(bodies, reference_variant_key)

    @settings(max_examples=500, deadline=None)
    @given(families=st.lists(
        _family_bodies(
            st.one_of(_bodies(6), _key_bodies(1, 6), _cycles(), _stars(),
                      st.lists(_TIE_LITERALS, min_size=1, max_size=6).map(tuple)),
            st.one_of(_atoms(), _TIE_LITERALS), size=10),
        min_size=4, max_size=4))
    def test_twenty_thousand_bodies_partition_as_the_reference(self, families):
        # 500 examples of 4 families of 10 bodies of 1 to 6 literals, with
        # constants, compound terms, repeated literals, cycles and stars
        _assert_same_partition([b for f in families for b in f], reference_variant_key)

    def test_prefix_names_order_as_rendered(self):
        x = Var("X")
        bodies = [
            (Atom("p10", (x,)), Atom("p1", (x,))),
            (Atom("p10"), Atom("p1")),
            (Atom("p1"), Atom("p10", (x,)), Atom("p", (x,))),
            (Atom("p1", (x,)), Atom("p10", (x,))),
            (Atom("p1"), Atom("p10")),
        ]
        _assert_same_partition(bodies, brute_force_variant_key)
        # the form's body literals are sorted as rendered
        assert variant_key((Atom("p10", (x,)), Atom("p1", (x,)))) == "k :- p1(A), p10(A)."
        assert variant_key((Atom("p10"), Atom("p1"))) == "k :- p1, p10."

    def test_variable_names_past_z(self):
        # 28 + 3 variables: canonical names run past Z to A1, B1, ...
        body = tuple(Atom("p", (Var(f"V{k}"), Var(f"W{k}"))) for k in range(3))
        wide = (Atom("w", tuple(Var(f"V{k}") for k in range(28))),) + body
        rnd = random.Random(0)
        family = [wide] + [_renamed(Clause(Atom("k"), wide), rnd).body for _ in range(3)]
        family += [_mutated(Clause(Atom("k"), b), rnd, body[0]).body for b in family]
        _assert_same_partition(family, brute_force_variant_key)
        assert "A1" in variant_key(wide)


class TestVariantEqual:
    @settings(max_examples=400, deadline=None)
    @given(clauses=_families(
        st.one_of(_bodies(6), _key_bodies(1, 6), _cycles(), _stars(),
                  st.lists(_TIE_LITERALS, min_size=1, max_size=6).map(tuple)),
        st.one_of(_atoms(), _TIE_LITERALS), size=4))
    def test_agrees_with_reference(self, clauses):
        for c1, c2 in itertools.combinations(clauses, 2):
            assert variant_equal(c1, c2) == reference_variant_equal(c1, c2)

    @settings(max_examples=16, deadline=None)
    @given(shape=st.sampled_from(["chain", "cycle", "star", "copies"]),
           n=st.integers(1000, 1100), how=st.sampled_from(["", "atom", "reverse", "rename"]),
           rnd=st.randoms(use_true_random=True))
    def test_long_clauses_agree_with_reference(self, shape, n, how, rnd):
        # chains and stars anchored at the head, cycles and disjoint
        # copies without a head variable, each against a renamed and
        # shuffled copy, perhaps with one literal mutated; the reference
        # search backtracks through the matches of a star's leaves or of
        # the copies, so there it meets only mutations that its skeleton
        # check rejects
        assume(shape in ("chain", "cycle") or how in ("", "rename"))
        x = [Var(f"X{k}") for k in range(n + 1)]
        pred = [rnd.choice(["p", "q"]) for _ in range(n)]
        head = Atom("h", (x[0],) if shape in ("chain", "star") else ())
        body = {
            "chain": [Atom(pred[k], (x[k], x[k + 1])) for k in range(n)],
            "cycle": [Atom(pred[k], (x[k], x[(k + 1) % n])) for k in range(n)],
            "star": [Atom(pred[k], (x[0], x[k + 1])) for k in range(n)],
            "copies": [Atom(pred[k], (x[k - k % 2], x[k - k % 2 + 1])[:: 1 - 2 * (k % 2)])
                       for k in range(n)],
        }[shape]
        c1 = Clause(head, tuple(body))
        c2 = _renamed(_mutated(c1, rnd, body[0], how) if how else c1, rnd)
        assert variant_equal(c1, c2) == reference_variant_equal(c1, c2)
        assert variant_equal(c1, _renamed(c1, rnd))


# ---------------------------------------------------------------------------
# keyed_subsets with one memo shared across many bodies, against its
# reference copy, which forms every sub-body on its own

def reference_keyed_subsets(body: tuple, lo: int, hi: int) -> list:
    layouts = [_literal_layout(a) for a in body]
    return [
        (idxs, _form(("k", []), [layouts[k] for k in idxs]))
        for idxs in connected_index_subsets(body, lo, hi)
    ]


def _revaried(t, pool: list, rnd: random.Random):
    """t with each variable occurrence replaced by one drawn from `pool`."""
    if isinstance(t, Var):
        return rnd.choice(pool)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_revaried(a, pool, rnd) for a in t.args))
    return t


@st.composite
def _layout_families(draw):
    """Bodies that repeat one body's literal layouts, in order, with its
    variable occurrences drawn again from pools of one to four variables:
    one layout under many variable-equality patterns."""
    template = draw(_bodies(5, min_size=1))
    rnd = draw(st.randoms(use_true_random=False))
    family = [template]
    for _ in range(draw(st.integers(1, 6))):
        pool = [Var(n) for n in "ABCD"[: rnd.randint(1, 4)]]
        family.append(tuple(
            Atom(lit.pred, tuple(_revaried(t, pool, rnd) for t in lit.args)) for lit in template
        ))
    return family


class TestKeyedSubsetsMemo:
    @settings(max_examples=300, deadline=None)
    @given(families=st.lists(_layout_families(), min_size=1, max_size=3),
           lo=st.integers(1, 3), span=st.integers(0, 3))
    def test_shared_memo_equals_reference(self, families, lo, span):
        forms: dict = {}
        for body in [b for f in families for b in f] * 2:
            assert keyed_subsets(body, lo, lo + span, forms) == \
                reference_keyed_subsets(body, lo, lo + span)

    def test_equality_patterns_key_apart(self):
        a, b, c = Var("A"), Var("B"), Var("C")
        bodies = [
            (Atom("p", (a, b)), Atom("p", (b, c))),
            (Atom("p", (a, b)), Atom("p", (c, b))),
            (Atom("p", (a, a)), Atom("p", (a, b))),
            (Atom("p", (a, b)), Atom("p", (c, a))),
        ]
        forms: dict = {}
        keys = [keyed_subsets(body, 1, 2, forms) for body in bodies]
        assert keys == [reference_keyed_subsets(body, 1, 2) for body in bodies]
        assert len({k[-1][1] for k in keys}) == 3  # the first and last are variants
        assert keys[2][0][1] != keys[2][1][1]  # p(A,A) against p(A,B)


# ---------------------------------------------------------------------------
# Extraction and the redundancy encoding against their reference copies

# two levels of candidates over literals with constants; the two clauses
# ending in place(d,...) differ from the other three, so both levels prune
_TWO_LEVELS = "\n".join(
    ["#primitive place/4.", "#primitive right/2."]
    + [f"#task t{k}/3." for k in range(5)]
    + [
        f"t{k}(X,E,E4) :- place(b,X,E,E1), right(X,Y), place(hor,Y,E1,E2), "
        f"place(b,X,E2,E3), place({'c' if k < 3 else 'd'},X,E3,E4)."
        for k in range(5)
    ]
)


def _space_and_model(program, space_args: dict):
    u = unfold(program)
    space = build_search_space(u, 2, 3, **space_args)
    model = copmodel.encode(space, u)
    kept = [(c.id, c.clause, c.level, c.usage) for c in space.candidates]
    return kept, space.foldings, (model.vars, model.constraints, model.objective), space


def _reference_cases():
    rng = random.Random(20260826)  # criterion 1's programs and config
    criterion_1 = {"max_levels": 1, "folding_cap": 20}
    cases = [(f"criterion-1-{k}", random_program(rng), criterion_1) for k in range(40)]
    cases.append(("dense", dense_program(), {}))
    cases.append(("two-levels", parse_program(_TWO_LEVELS), {}))
    return cases


def test_extraction_and_model_equal_reference(monkeypatch):
    levels = set()
    for name, program, space_args in _reference_cases():
        with monkeypatch.context() as patched:
            patched.setattr(candidates, "extract_candidates", reference_extract_candidates)
            patched.setattr(copmodel, "_encode_redundancy", reference_encode_redundancy)
            want = _space_and_model(program, space_args)
        got = _space_and_model(program, space_args)
        assert got[:3] == want[:3], name
        levels.add(got[3].max_level)
    assert levels >= {1, 2}


# ---------------------------------------------------------------------------
# The greedy baseline, whose index keeps each class's counts across its
# rounds, against its reference copy, which counts every class in every
# clause in every round

def _reference_bound(index: UsageIndex, caps: dict) -> int:
    best: dict = {}
    for bid, cap in caps.items():
        g = index.bodies[bid][0]
        best[g] = max(best.get(g, 0), cap)
    return sum(best.values())


def reference_usage(index: UsageIndex, pattern: tuple, head: Atom, worth) -> int:
    """UsageIndex.usage as it was before the index kept counts: both
    bounds and every count made afresh on each call."""
    need = pred_counts(pattern)
    caps: dict = {}
    for bid in index.gated(need):
        _, body, have = index.bodies[bid]
        caps[bid] = min(len(body) // len(pattern), *(have[pa] // n for pa, n in need.items()))
    bound = _reference_bound(index, caps)
    if not worth(bound):
        return bound
    joins = candidates.pattern_joins(pattern)
    if joins:
        for bid, cap in caps.items():
            table = index.joins(bid)
            caps[bid] = min(cap, *(table.get(sig, 0) for sig in joins))
        bound = _reference_bound(index, caps)
        if not worth(bound):
            return bound
    form = Pattern(pattern, head)
    exact: dict = {}
    for bid, cap in caps.items():
        g = index.bodies[bid][0]
        if cap > exact.get(g, 0):
            count = _max_disjoint_count(find_body_matches(index.indexed(bid), form))
            exact[g] = max(exact.get(g, 0), min(cap, count))
    return sum(exact.values())


def reference_remove_redundancy_baseline(p: Program) -> Program:
    u = unfold(p)
    clauses = list(u.clauses)
    subbodies = [reference_keyed_subsets(c.body, 2, RED_SUBBODY_MAX) for c in clauses]
    index = UsageIndex([[c.body] for c in clauses])
    registry = u.registry.copy()
    counter = 0
    while counter < 1000:
        classes = variant_classes([c.body for c in clauses], subbodies, 2, RED_SUBBODY_MAX)
        shared = []
        for key, sub in classes.items():
            head = make_candidate_clause(sub, "probe").head
            occ = reference_usage(index, sub, head, lambda u: u >= 2)
            if occ >= 2:
                shared.append((-len(sub), -occ, key, sub))
        if not shared:
            break
        sub = min(shared)[3]
        support = make_candidate_clause(sub, fresh_name(f"red_{counter}", registry.entries))
        counter += 1
        registry.declare(support.head.pred, support.head.arity, "support")
        form = Pattern(sub, support.head)
        for k in sorted(index.gated(form.need)):
            chosen = pipeline._greedy_disjoint(find_body_matches(index.indexed(k), form))
            if chosen:
                clauses[k] = apply_match_set(clauses[k], chosen)
                subbodies[k] = reference_keyed_subsets(clauses[k].body, 2, RED_SUBBODY_MAX)
                index.put(k, k, clauses[k].body)
        index.put(len(clauses), len(clauses), support.body)
        clauses.append(support)
        subbodies.append(reference_keyed_subsets(support.body, 2, RED_SUBBODY_MAX))
    return Program(u.primitive_clauses + tuple(clauses), registry)


def _assert_baseline_equals_reference(program: Program):
    want = render_program(reference_remove_redundancy_baseline(program))
    assert render_program(pipeline.remove_redundancy_baseline(program)) == want


# task clauses over two binary predicates, a unary one and a constant,
# with few variables each: cycles and repeated variables make classes
# match clauses that do not hold their key
_FEW_VARS = st.sampled_from([Var("A"), Var("B"), Var("C"), Var("D")])
_BASELINE_LITERALS = st.one_of(
    st.builds(lambda pred, x, y: Atom(pred, (x, y)), st.sampled_from(["p", "q"]),
              _FEW_VARS, st.one_of(_FEW_VARS, _FEW_VARS, st.just(Const("a")))),
    st.builds(lambda x: Atom("r", (x,)), _FEW_VARS),
)


@st.composite
def _baseline_programs(draw):
    bodies = draw(st.lists(st.lists(_BASELINE_LITERALS, min_size=2, max_size=7),
                           min_size=2, max_size=8))
    lines = ["#primitive p/2.", "#primitive q/2.", "#primitive r/1."]
    for k, body in enumerate(bodies):
        head = next(iter(Clause(Atom("h"), tuple(body)).variables()))
        lines += [f"#task t{k}/1.", render_clause(Clause(Atom(f"t{k}", (head,)), tuple(body)))]
    return parse_program("\n".join(lines))


class TestBaselineEqualsReference:
    @settings(max_examples=200, deadline=None)
    @given(program=_baseline_programs())
    def test_generated_programs(self, program):
        _assert_baseline_equals_reference(program)

    def test_criterion_1_programs(self):
        rng = random.Random(20260826)
        for _ in range(60):
            _assert_baseline_equals_reference(random_program(rng))

    def test_a_class_counts_a_clause_without_its_key(self):
        # p(A,B), q(B,C) matches t1's p(X,Y), q(Y,X), whose own key is a
        # cycle's, and only with that occurrence is the class shared
        program = parse_program(
            "#primitive p/2.\n#primitive q/2.\n#task t0/2.\n#task t1/1.\n"
            "t0(A,C) :- p(A,B), q(B,C).\nt1(X) :- p(X,Y), q(Y,X)."
        )
        out = pipeline.remove_redundancy_baseline(program)
        assert render_clause(out.clauses[1]) == "t1(X) :- red_0(X,Y,X)."
        _assert_baseline_equals_reference(program)

    def test_chain_past_the_disjoint_node_cap(self):
        # in a 30-literal chain of one predicate the 3-literal class has
        # 28 overlapping matches, too many for _max_disjoint_count to
        # search, and the folds leave chains of red_<n> literals as long
        body = tuple(Atom("p", (Var(f"X{k}"), Var(f"X{k + 1}"))) for k in range(30))
        pattern = body[:3]
        form = Pattern(pattern, make_candidate_clause(pattern, "h").head)
        matches = find_body_matches(IndexedBody(body), form)
        # past its node cap, the count is the number of matches, not 10
        assert len(matches) == 28 and _max_disjoint_count(matches) == 28
        program = parse_program(
            "#primitive p/2.\n#task t/2.\n"
            + render_clause(Clause(Atom("t", (Var("X0"), Var("X30"))), body))
        )
        _assert_baseline_equals_reference(program)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_dense_default(self, seed):
        workloads = benchmark_workloads()
        text = workloads.criterion5_text()
        [program] = workloads._parse_variants(refold, [text], seed, {})
        _assert_baseline_equals_reference(program)

    def test_criterion_6_lego_bk(self):
        _assert_baseline_equals_reference(lego_bk_program())


# ---------------------------------------------------------------------------
# The parser against its reference copy, which reads positioned tokens

_SOURCE_TERMS = st.recursive(
    st.sampled_from(["X", "Y", "_W", "a", "b", "é", "0"]),
    lambda inner: st.builds(
        "{}({})".format, st.sampled_from(["f", "g", "ß2"]),
        st.lists(inner, min_size=1, max_size=3).map(",".join)),
    max_leaves=4,
)
# one arity per predicate, so that most programs parse
_SOURCE_SIGNATURES = st.sampled_from([("p", 2), ("q", 1), ("r", 0), ("ω", 2), ("t", 3)])
_SOURCE_ATOMS = _SOURCE_SIGNATURES.flatmap(lambda sig: st.lists(
    _SOURCE_TERMS, min_size=sig[1], max_size=sig[1]).map(
        lambda args: f"{sig[0]}({', '.join(args)})" if args else sig[0]))
_SOURCE_LINES = st.one_of(
    st.builds(lambda role, sig, more: f"#{role}\t{sig[0]}/{sig[1] + more}.",
              st.sampled_from(ROLES), _SOURCE_SIGNATURES, st.sampled_from([0, 0, 0, 1])),
    st.builds("{}.".format, _SOURCE_ATOMS),
    st.builds("{} :- {}.".format, _SOURCE_ATOMS,
              st.lists(_SOURCE_ATOMS, min_size=1, max_size=4).map(", ".join)),
    st.sampled_from(["% p(X) :- ).", "q(a). % $"]),
)
# mostly well formed: directives, facts, clauses and comments, on lines
# that may end in "\r\n"
_SOURCE_PROGRAMS = st.builds(
    str.join, st.sampled_from(["\n", "\r\n", "\n  "]), st.lists(_SOURCE_LINES, max_size=8))

# a token soup's pieces: names of every kind (variables, constants,
# non-ASCII names, digits, a long arity, the roles), the symbols, and gaps
# with tabs, "\r\n" line ends and a comment; and the characters that no
# token may hold
_SOUP_PIECES = ["p", "q", "t", "X", "Y", "_", "_Z", "a", "é", "Ω", "ß2", "0", "1", "2",
                "007", "1234567890", "primitive", "task", "support",
                ":-", "(", ")", ",", ".", "/", "#",
                "", " ", "  ", "\t", "\n", "\r\n", "\r", " % a ) comment $\n"]
_SOUP_BAD = ["$", "\x0c", ":", "@", "😀"]


@st.composite
def _token_soups(draw) -> str:
    """Tokens and gaps drawn at random, mostly syntax errors; a quarter
    of them hold a character that no token may hold."""
    pieces = draw(st.lists(st.sampled_from(_SOUP_PIECES), max_size=30))
    if draw(st.integers(0, 3)) == 0:
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(_SOUP_BAD)))
    return "".join(pieces)


@st.composite
def _directive_soups(draw) -> str:
    """A directive with one of its six tokens replaced, or none, then
    perhaps a second directive: an error at each of a directive's tokens,
    or at a repeated declaration."""
    pieces = ["#", draw(st.sampled_from(ROLES)), draw(st.sampled_from(["q", "é"])), "/",
              draw(st.sampled_from(["0", "2", "007"])), "."]
    k = draw(st.integers(0, len(pieces)))
    if k < len(pieces):
        pieces[k] = draw(st.sampled_from(["", "p", "X", "(", "/", "1", "1234567890", "."]))
    return " ".join(pieces) + draw(st.sampled_from(["", "\n#task q/1.", " #task X/1."]))


@st.composite
def _program_mutants(draw) -> str:
    """A generated program with one to three of its tokens or gaps
    deleted, replaced or preceded by another piece: errors at every
    depth of a clause or directive."""
    pieces = re.findall(r"\w+|:-|\s+|.", draw(_SOURCE_PROGRAMS))
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(pieces)))
        piece = draw(st.sampled_from(_SOUP_PIECES + _SOUP_BAD))
        edit = draw(st.sampled_from(["delete", "replace", "insert"]))
        if edit == "insert" or k == len(pieces):
            pieces.insert(k, piece)
        elif edit == "replace":
            pieces[k] = piece
        else:
            del pieces[k]
    return "".join(pieces)


def _parsed(parse, text: str):
    try:
        program = parse(text)
    except LogicError as exc:
        return type(exc), str(exc)
    return program.clauses, list(program.registry.entries.items())


class TestParser:
    @settings(max_examples=600, deadline=None)
    @given(st.one_of(
        _SOURCE_PROGRAMS, _program_mutants(), _token_soups(), _directive_soups(),
        st.text(max_size=40)))
    def test_equals_reference(self, text):
        assert _parsed(parse_program, text) == _parsed(reference_parse_program, text)


# ---------------------------------------------------------------------------
# Unfolding and syntactic equivalence. The reference unfolds by renaming
# each definition apart, unifying its head with the call and substituting
# into the whole clause, then searches a variant bijection for every
# clause; unfold binds linear heads directly, and syntactic_equiv accepts
# aligned equal clauses first. Both run from one fresh-name counter
# state, so their clauses must be equal, variable names included.

_PRIMITIVES = {"p": 1, "q": 2, "r": 3}
_HEAD_VARS = [Var(n) for n in ("A", "B", "C", "X", "Y")]


def _from_counter(fn, *args):
    """fn(*args) with transform's fresh-name counter started at 0: its
    result, or the type and message of the LogicError it raised."""
    saved = transform._fresh_counter
    transform._fresh_counter = itertools.count()
    try:
        return fn(*args)
    except LogicError as exc:
        return type(exc), str(exc)
    finally:
        transform._fresh_counter = saved


@st.composite
def _support_programs(draw, faults: bool = False):
    """Task clauses over the primitives and support predicates s0, s1,
    ..., whose clause heads are linear (distinct variables) or hold
    constants, compound terms or repeated variables; s<k> calls only
    s<j> with j > k, so chains of definitions form. Clause and body
    variables share one pool of names. With `faults`, any support
    predicate may call any (cycles), may have no clauses, and a
    primitive clause may call one."""
    support = {f"s{k}": draw(st.integers(0, 3)) for k in range(draw(st.integers(1, 4)))}
    names = sorted(support)
    reg = PredicateRegistry()
    for pred, arity in {**_PRIMITIVES, **support}.items():
        reg.declare(pred, arity, "primitive" if pred in _PRIMITIVES else "support")
    reg.declare("t", 2, "task")

    def body(callees: list, lo: int) -> tuple:
        lits = []
        for _ in range(draw(st.integers(lo, 3))):
            pred = draw(st.sampled_from(sorted(_PRIMITIVES) + callees))
            arity = _PRIMITIVES.get(pred, support.get(pred))
            lits.append(Atom(pred, tuple(draw(_TERMS) for _ in range(arity))))
        return tuple(lits)

    clauses = []
    for k, pred in enumerate(names):
        for _ in range(draw(st.integers(0 if faults else 1, 2))):
            if draw(st.booleans()):
                args = tuple(draw(st.permutations(_HEAD_VARS))[: support[pred]])
            else:
                args = tuple(draw(_TERMS) for _ in range(support[pred]))
            clauses.append(Clause(Atom(pred, args), body(names if faults else names[k + 1 :], 0)))
    for _ in range(draw(st.integers(1, 3))):
        clauses.append(Clause(Atom("t", (draw(_TERMS), draw(_TERMS))), body(names, 1)))
    if faults and draw(st.booleans()):
        clauses.append(Clause(Atom("q", (draw(_TERMS), draw(_TERMS))), body(names, 1)))
    return Program(tuple(draw(st.permutations(clauses))), reg)


def _wrap(t, n: int):
    for _ in range(n):
        t = Compound("f", (t,))
    return t


@st.composite
def _deep_programs(draw):
    """t(X,Y) :- s0(f^k0(X),Y), and s<i> defined from s<i+1> as
    s(X,Y) :- s'(f^k(X),Y) (linear), s(X,X) :- s'(f^k(X),X) (repeated)
    or s(f^k(X),Y) :- s'(X,Y) (compound), the last from primitive q:
    the unfolded terms nest k0 + k1 + ... levels, drawn from two below
    to two above MAX_TERM_DEPTH, while no written term passes it."""
    total = draw(st.integers(MAX_TERM_DEPTH - 2, MAX_TERM_DEPTH + 2))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=1, max_size=4)))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    assume(max(parts) <= MAX_TERM_DEPTH)
    reg = PredicateRegistry()
    reg.declare("q", 2, "primitive")
    reg.declare("t", 2, "task")
    X, Y = Var("X"), Var("Y")
    clauses = [Clause(Atom("t", (X, Y)), (Atom("s0", (_wrap(X, parts[0]), Y)),))]
    for i, k in enumerate(parts[1:]):
        reg.declare(f"s{i}", 2, "support")
        callee = "q" if i == len(parts) - 2 else f"s{i + 1}"
        style = draw(st.sampled_from(["linear", "repeated", "compound"]))
        if style == "linear":
            clauses.append(Clause(Atom(f"s{i}", (X, Y)), (Atom(callee, (_wrap(X, k), Y)),)))
        elif style == "repeated":
            clauses.append(Clause(Atom(f"s{i}", (X, X)), (Atom(callee, (_wrap(X, k), X)),)))
        else:
            clauses.append(Clause(Atom(f"s{i}", (_wrap(X, k), Y)), (Atom(callee, (X, Y)),)))
    return Program(tuple(clauses), reg)


def _edit(draw, c: Clause, edit: str) -> Clause:
    """c with one body literal dropped, with one argument replaced by
    another term, or with two unequal arguments swapped; c itself if it
    has no such literal."""
    need = {"drop": 0, "change": 1, "swap": 2}[edit]
    ks = [k for k, lit in enumerate(c.body) if len(set(lit.args)) >= need]
    if not ks:
        return c
    k = draw(st.sampled_from(ks))
    if edit == "drop":
        return Clause(c.head, c.body[:k] + c.body[k + 1 :])
    lit = c.body[k]
    args = list(lit.args)
    if edit == "change":
        i = draw(st.integers(0, len(args) - 1))
        args[i] = draw(_TERMS.filter(lambda t: t != lit.args[i]))
    else:
        i, j = draw(st.permutations(range(len(args))).filter(
            lambda ij: args[ij[0]] != args[ij[1]]))[:2]
        args[i], args[j] = args[j], args[i]
    return Clause(c.head, c.body[:k] + (Atom(lit.pred, tuple(args)),) + c.body[k + 1 :])


@st.composite
def _equiv_pairs(draw):
    """A generated program and its copy with variables renamed, clauses
    shuffled, one clause duplicated, or one literal dropped, changed or
    with two arguments swapped."""
    p = draw(_support_programs())
    clauses = list(p.clauses)
    edit = draw(st.sampled_from(
        ["drop", "change", "swap", "renamed", "shuffled", "duplicated", "same"]))
    if edit == "renamed":
        clauses = [
            transform.rename_clause(c, {v: Var(v.name + "1") for v in c.variables()})
            for c in clauses
        ]
    elif edit == "shuffled":
        clauses = draw(st.permutations(clauses))
    elif edit == "duplicated":
        clauses.append(draw(st.sampled_from(clauses)))
    elif edit != "same":
        # task clauses twice as often: an edit to a support clause that no
        # call reaches changes no unfolding
        tasks = [k for k, c in enumerate(clauses) if c.head.pred == "t"]
        k = draw(st.sampled_from(tasks * 2 + list(range(len(clauses)))))
        clauses[k] = _edit(draw, clauses[k], edit)
    return p, Program(tuple(clauses), p.registry.copy())


class TestUnfoldAndEquivalence:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(_support_programs(), _support_programs(faults=True), _deep_programs()))
    def test_unfold_equals_reference(self, program):
        assert _from_counter(unfold, program) == _from_counter(reference_unfold, program)

    def test_nesting_at_and_past_the_depth_limit(self):
        """A linear chain that nests MAX_TERM_DEPTH levels unfolds; one
        more level raises the parser's depth message."""
        for total, fails in ((MAX_TERM_DEPTH, False), (MAX_TERM_DEPTH + 1, True)):
            reg = PredicateRegistry()
            reg.declare("q", 1, "primitive")
            reg.declare("s", 1, "support")
            reg.declare("t", 1, "task")
            X = Var("X")
            program = Program((
                Clause(Atom("t", (X,)), (Atom("s", (_wrap(X, total - 40),)),)),
                Clause(Atom("s", (X,)), (Atom("q", (_wrap(X, 40),)),)),
            ), reg)
            got = _from_counter(unfold, program)
            assert got == _from_counter(reference_unfold, program)
            assert (got == (TransformError, "unfolding nests compound terms deeper than "
                                            f"{MAX_TERM_DEPTH} levels")) == fails

    @settings(max_examples=500, deadline=None)
    @given(_equiv_pairs())
    def test_syntactic_equiv_equals_reference(self, pair):
        p, q = pair
        want = _from_counter(reference_syntactic_equiv, p, q)
        assert _from_counter(syntactic_equiv, p, q) == want
        # the caller's own unfolding of p gives the same answer
        u = _from_counter(unfold, p)
        if isinstance(u, UnfoldedProgram):
            assert _from_counter(syntactic_equiv, u, q) == want

    @pytest.mark.parametrize("role", ["task", "support"])
    def test_decode_that_drops_a_literal_fails_verification(self, monkeypatch, role):
        real = pipeline.decode

        def lossy(*args):
            out = real(*args)
            clauses = list(out.clauses)
            k = next(k for k, c in enumerate(clauses)
                     if out.registry.role(c.head.pred) == role and len(c.body) >= 2)
            clauses[k] = Clause(clauses[k].head, clauses[k].body[:-1])
            return Program(tuple(clauses), out.registry)

        monkeypatch.setattr(pipeline, "decode", lossy)
        cfg = RefactorConfig(max_levels=1, folding_cap=20,
                             budget=SolverBudget(wall_time=5.0, max_decisions=2_000))
        with pytest.raises(VerificationError):
            refactor(dense_program(), cfg)
