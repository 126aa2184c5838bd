"""Differential tests of the sub-body kernels: the one-way indexed
matcher, bitmask connectivity and directly rendered variant keys, each
against a reference copy of the straightforward implementation it
replaced (unify-based matching, union-find connectivity, rendering a
canonicalized clause per ordering)."""

import itertools

from hypothesis import given, settings, strategies as st

from refold.logic import (
    Atom,
    Clause,
    Compound,
    Const,
    Var,
    canonicalize_clause,
    connected,
    connected_subsets,
    parse_program,
    render_clause,
    variant_equal,
    variant_key,
)
from refold.transform import (
    _disjoint_subsets,
    apply_match_set,
    find_body_matches,
    fold_clause,
    rename_apart,
    subst_atom,
    subst_term,
    unify_atoms,
)

# ---------------------------------------------------------------------------
# Reference implementations


def reference_matches(body: tuple, pattern: tuple, pattern_head: Atom) -> list:
    renamed = rename_apart(Clause(pattern_head, tuple(pattern)))
    pattern_head, pattern = renamed.head, renamed.body
    pattern_vars = set(renamed.variables())
    head_vars = pattern_head.var_set()
    internal = [v for v in dict.fromkeys(v for lit in pattern for v in lit.variables())
                if v not in head_vars]
    occurs: dict = {}
    for i, lit in enumerate(body):
        for v in lit.var_set():
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
        for v in lit.var_set():
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


def reference_variant_key(body, head=None) -> str:
    return min(
        render_clause(canonicalize_clause(Clause(head if head is not None else Atom("k"), perm)))
        for perm in itertools.permutations(tuple(body))
    )


def reference_fold(c: Clause, s: Clause) -> list:
    matches = reference_matches(c.body, s.body, s.head)
    subsets = _disjoint_subsets(matches)
    keys = [frozenset().union(*(m[0] for m in sub)) for sub in subsets]
    results = []
    for i, sub in enumerate(subsets):
        if any(j != i and keys[i] < keys[j] for j in range(len(subsets))):
            continue
        folded = apply_match_set(c, sub)
        if not any(variant_equal(folded, r) for r in results):
            results.append(folded)
    return results


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
def _match_cases(draw):
    """A body, and a pattern drawn partly from the body's own literals
    (so matches are common), with a head over the pattern's variables,
    possibly missing some and adding others."""
    body = draw(_bodies(5))
    pattern = tuple(
        draw(st.one_of(st.sampled_from(body), _atoms()))
        for _ in range(draw(st.integers(1, 3)))
    )
    pvars = list(dict.fromkeys(v for lit in pattern for v in lit.variables()))
    head_args = draw(st.lists(st.one_of(st.sampled_from(pvars) if pvars else _VARS, _TERMS),
                              max_size=3))
    return body, pattern, Atom("h", tuple(head_args))


class TestMatcher:
    @settings(max_examples=600, deadline=None)
    @given(_match_cases())
    def test_equals_unify_based_reference(self, case):
        body, pattern, head = case
        assert _normalised(find_body_matches(body, pattern, head)) == _normalised(
            reference_matches(body, pattern, head)
        )

    def test_shared_names_do_not_chain(self):
        # pattern variable X is named like a body variable it must not touch
        body = (Atom("p", (Var("Y"), Var("X"))), Atom("p", (Var("X"), Var("Z"))))
        pattern = (Atom("p", (Var("X"), Var("Y"))),)
        head = Atom("h", (Var("X"), Var("Y")))
        got = find_body_matches(body, pattern, head)
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
        [(idxs, head)] = find_body_matches(c.body, s.body, s.head)
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
        assert connected_subsets(body, lo, lo + span) == reference_connected_subsets(
            body, lo, lo + span
        )

    @settings(max_examples=300, deadline=None)
    @given(head=_atoms(), body=_bodies(5, min_size=0))
    def test_connected_equals_union_find_reference(self, head, body):
        c = Clause(head, body)
        assert connected(c) == (not body or reference_connected([head, *body]))


class TestVariantKey:
    @settings(max_examples=500, deadline=None)
    @given(body=_bodies(4, min_size=0), head=st.one_of(st.none(), _atoms()))
    def test_equals_rendered_canonical_clause(self, body, head):
        assert variant_key(body, head) == reference_variant_key(body, head)

    def test_variable_names_past_z(self):
        # 28 + 3 variables: canonical names run past Z to A1, B1, ...
        body = tuple(Atom("p", (Var(f"V{k}"), Var(f"W{k}"))) for k in range(3))
        wide = (Atom("w", tuple(Var(f"V{k}") for k in range(28))),) + body
        assert variant_key(wide) == reference_variant_key(wide)
