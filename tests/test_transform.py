import inspect
import sys

import pytest
from hypothesis import given, settings, strategies as st

from refold import transform
from refold.logic import (
    MAX_TERM_DEPTH,
    Atom,
    Clause,
    Const,
    ParseError,
    Var,
    _tokenize,
    canonicalize_clause,
    parse_program,
    render_clause,
    variant_equal,
)
from refold.transform import (
    CycleError,
    MissingDefinitionError,
    TransformError,
    UnfoldExplosionError,
    fold_clause,
    multiset_variant_equal,
    rename_apart,
    syntactic_equiv,
    unfold,
)

from tests.oracles import restricted_consequences


class TestUnfold:
    def test_worked_example(self, pillar_program, folded_program):
        u = unfold(folded_program)
        assert len(u.clauses) == 1
        assert variant_equal(u.clauses[0], pillar_program.clauses[0])

    def test_primitive_program_is_fixpoint(self, pillar_program):
        u = unfold(pillar_program)
        assert len(u.clauses) == 1
        assert variant_equal(u.clauses[0], pillar_program.clauses[0])

    def test_support_with_two_clauses_gives_two_unfoldings(self):
        prog = parse_program(
            "#primitive a/2.\n#primitive b/2.\n#task t/2.\n"
            "s(X,Y) :- a(X,Y).\n"
            "s(X,Y) :- b(X,Y).\n"
            "t(X,Y) :- s(X,Y)."
        )
        u = unfold(prog)
        assert len(u.clauses) == 2
        preds = sorted(c.body[0].pred for c in u.clauses)
        assert preds == ["a", "b"]

    def test_definitions_of_different_lengths_inlined_twice(self):
        # each partial unfolding finds its own next support literal; the
        # positions differ once definitions of different lengths are inlined
        prog = parse_program(
            "#primitive z/0.\n#primitive u/1.\n#task t/0.\n"
            "s(X) :- u(X).\n"
            "s(X) :- z, z, u(X).\n"
            "t :- s(X), s(X)."
        )
        got = [repr(c) for c in unfold(prog).clauses]
        assert got == [
            "t :- u(X), u(X).",
            "t :- u(X), z, z, u(X).",
            "t :- z, z, u(X), u(X).",
            "t :- z, z, u(X), z, z, u(X).",
        ]

    def test_head_unifier_applies_to_the_whole_clause(self):
        # unifying s(X,X) with s(A,B) binds A to B in q(A) as well
        prog = parse_program(
            "#primitive p/1.\n#primitive q/1.\n#task t/2.\n"
            "s(X,X) :- p(X).\n"
            "t(A,B) :- q(A), s(A,B)."
        )
        [u] = unfold(prog).clauses
        assert variant_equal(u, parse_program(
            "#primitive p/1.\n#primitive q/1.\n#task t/2.\nt(B,B) :- q(B), p(B)."
        ).clauses[0])

    def test_long_body_of_support_literals(self):
        # unfolding must not recurse once per support literal: with the
        # recursion limit 100 frames above the current depth, a body of
        # 300 support literals still unfolds
        prog = parse_program(
            "#primitive p/1.\n#task t/1.\ns(X) :- p(X).\n"
            "t(X) :- " + ", ".join(["s(X)"] * 300) + "."
        )
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            [u] = unfold(prog).clauses
        finally:
            sys.setrecursionlimit(limit)
        assert [lit.pred for lit in u.body] == ["p"] * 300

    def test_long_support_chain(self):
        # nor once per support predicate of a chain t -> s1 -> ... -> s300
        lines = ["#primitive p/1.", "#task t/1.", "t(X) :- s1(X).", "s300(X) :- p(X)."]
        lines += [f"s{k}(X) :- s{k + 1}(X)." for k in range(1, 300)]
        prog = parse_program("\n".join(lines))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            [u] = unfold(prog).clauses
        finally:
            sys.setrecursionlimit(limit)
        assert u.body == (Atom("p", (Var("X"),)),)

    def test_nesting_past_the_term_depth_limit(self):
        # s1 and s2 each wrap their argument; inlining both nests `inner`
        # compound terms around X, one each, which the parser's limit bounds
        def unfolded(outer, inner):
            wrap = lambda n: "f(" * n + "X" + ")" * n
            return unfold(parse_program(
                "#primitive p/1.\n#task t/1.\nt(X) :- s1(X).\n"
                f"s1(X) :- s2({wrap(outer)}).\ns2(X) :- p({wrap(inner)})."
            ))

        half = MAX_TERM_DEPTH // 2
        [u] = unfolded(half, MAX_TERM_DEPTH - half).clauses
        assert repr(u.body[0]).count("f(") == MAX_TERM_DEPTH
        with pytest.raises(TransformError, match="deeper than"):
            unfolded(half, MAX_TERM_DEPTH - half + 1)

    def test_no_support_predicate_left(self):
        prog = parse_program(
            "#primitive a/2.\n#task t/2.\n"
            "s2(X,Y) :- a(X,Y), a(Y,X).\n"
            "s1(X,Y) :- s2(X,Y), a(X,X).\n"
            "t(X,Y) :- s1(X,Y)."
        )
        u = unfold(prog)
        assert all(u.registry.role(l.pred) == "primitive" for c in u.clauses for l in c.body)

    def test_recursive_support_detected(self):
        prog = parse_program(
            "#primitive a/2.\n#task t/2.\n"
            "s(X,Y) :- a(X,Z), s(Z,Y).\n"
            "t(X,Y) :- s(X,Y)."
        )
        with pytest.raises(CycleError) as err:
            unfold(prog)
        assert err.value.cycle == ["s", "s"]

    def test_missing_definition(self):
        prog = parse_program(
            "#primitive a/2.\n#support s/2.\n#task t/2.\nt(X,Y) :- s(X,Y)."
        )
        with pytest.raises(MissingDefinitionError):
            unfold(prog)

    def test_cycle_no_task_clause_calls_detected(self):
        prog = parse_program(
            "#primitive a/1.\n#task t/1.\nt(X) :- a(X).\n"
            "s(X) :- r(X).\nr(X) :- s(X)."
        )
        with pytest.raises(CycleError) as err:
            unfold(prog)
        assert err.value.cycle == ["s", "r", "s"]

    def test_uncalled_support_without_clauses_ignored(self):
        prog = parse_program(
            "#primitive a/1.\n#support r/1.\n#task t/1.\nt(X) :- a(X)."
        )
        assert [repr(c) for c in unfold(prog).clauses] == ["t(X) :- a(X)."]

    def test_called_support_without_clauses_rejected_on_a_dead_branch(self):
        # no unfolding of s(a) survives, so r(X) is never inlined; r is
        # still expanded, as every support predicate a task clause calls is
        prog = parse_program(
            "#primitive p/1.\n#support r/1.\n#task t/1.\n"
            "t(X) :- s(a), r(X).\ns(b) :- p(b)."
        )
        with pytest.raises(MissingDefinitionError, match="support predicate r has no clauses"):
            unfold(prog)

    def test_diamond_expands_shared_support_once_per_call(self):
        prog = parse_program(
            "#primitive a/1.\n#primitive b/1.\n#primitive c/1.\n#task t/1.\n#task u/1.\n"
            "t(X) :- s(X), r(X).\nu(X) :- r(X).\ns(X) :- r(X), c(X).\n"
            "r(X) :- a(X).\nr(X) :- b(X)."
        )
        assert [render_clause(canonicalize_clause(c)) for c in unfold(prog).clauses] == [
            "t(A) :- a(A), c(A), a(A).",
            "t(A) :- a(A), c(A), b(A).",
            "t(A) :- b(A), c(A), a(A).",
            "t(A) :- b(A), c(A), b(A).",
            "u(A) :- a(A).",
            "u(A) :- b(A).",
        ]

    def test_explosion_cap(self, monkeypatch):
        # 2 choices per support literal, 12 literals -> 4096 unfoldings
        monkeypatch.setattr(transform, "DEFAULT_UNFOLD_CAP", 100)
        lines = ["#primitive a/1.", "#task t/1."]
        lines += ["s(X) :- a(X).", "s(X) :- a(X)."]
        body = ", ".join("s(X)" for _ in range(12))
        lines.append(f"t(X) :- {body}.")
        prog = parse_program("\n".join(lines))
        with pytest.raises(UnfoldExplosionError):
            unfold(prog)

    def test_explosion_cap_counts_all_task_clauses(self, monkeypatch):
        # each clause unfolds to 2 clauses, within the cap; together, 4
        prog = parse_program(
            "#primitive a/1.\n#primitive b/1.\n#task t/1.\n#task u/1.\n"
            "s(X) :- a(X).\ns(X) :- b(X).\nt(X) :- s(X).\nu(X) :- s(X)."
        )
        monkeypatch.setattr(transform, "DEFAULT_UNFOLD_CAP", 4)
        assert len(unfold(prog).clauses) == 4
        monkeypatch.setattr(transform, "DEFAULT_UNFOLD_CAP", 3)
        with pytest.raises(UnfoldExplosionError):
            unfold(prog)

    def test_primitive_clauses_pass_through(self):
        prog = parse_program(
            "#primitive e/2.\n#task t/2.\ne(a,b).\ne(X,Y) :- e(Y,X).\n"
            "t(X,Y) :- s(X,Y).\ns(X,Y) :- e(X,Y)."
        )
        u = unfold(prog)
        assert u.primitive_clauses == prog.clauses[:2]
        assert [repr(c) for c in u.clauses] == ["t(X,Y) :- e(X,Y)."]
        assert u.size == 5

    def test_support_call_in_a_primitive_clause_rejected(self):
        prog = parse_program(
            "#primitive e/2.\n#task t/2.\ne(X,Y) :- s(X,Y).\ns(X,Y) :- e(Y,X).\n"
            "t(X,Y) :- e(X,Y)."
        )
        with pytest.raises(TransformError, match="primitive e"):
            unfold(prog)

    def test_idempotent(self, folded_program):
        u1 = unfold(folded_program)
        from refold.logic import Program

        p1 = Program(u1.clauses, u1.registry)
        u2 = unfold(p1)
        assert multiset_variant_equal(list(u1.clauses), list(u2.clauses))

    def test_duplicate_unfoldings_kept_as_multiset(self):
        prog = parse_program(
            "#primitive a/2.\n#task t/2.\n"
            "s(X,Y) :- a(X,Y).\n"
            "s(X,Y) :- a(X,Y).\n"
            "t(X,Y) :- s(X,Y)."
        )
        u = unfold(prog)
        assert len(u.clauses) == 2


class TestRenameApart:
    @settings(max_examples=50, deadline=None)
    @given(
        names=st.lists(
            st.from_regex(r"[A-Z_][A-Za-z0-9_]{0,6}", fullmatch=True),
            min_size=1,
            max_size=4,
        )
    )
    def test_fresh_names_cannot_be_tokenized(self, names):
        # names a user can write, including ones shaped like fresh names
        clause = Clause(Atom("h", tuple(Var(n) for n in names + ["_R0_A"])))
        for v in rename_apart(clause).variables():
            with pytest.raises(ParseError):
                _tokenize(v.name)


class TestFold:
    def test_worked_example(self, pillar_program, folded_program):
        ver = folded_program.clauses[0]
        pillar_folded = folded_program.clauses[1]
        results = fold_clause(pillar_program.clauses[0], ver)
        assert len(results) == 1
        assert variant_equal(results[0], pillar_folded)

    def test_no_match_is_empty(self):
        c = parse_program("#primitive a/2.\nh(X,Y) :- a(X,Y).").clauses[0]
        s = parse_program("#primitive b/2.\nsup(X,Y) :- b(X,Y).").clauses[0]
        assert fold_clause(c, s) == []

    def test_two_disjoint_matches_both_replaced(self):
        prog = parse_program(
            "#primitive a/2.\n#primitive b/1.\n"
            "p(X) :- a(X,Y), b(Y), a(X,Z), b(Z).\n"
            "sup(X,Y) :- a(X,Y), b(Y)."
        )
        c, s = prog.clauses
        results = fold_clause(c, s)
        both = [r for r in results if len(r.body) == 2]
        assert len(both) == 1
        assert all(l.pred == "sup" for l in both[0].body)

    def test_internal_variable_blocked_when_used_elsewhere(self):
        # the support clause hides Y, but Y is used outside the match
        prog = parse_program(
            "#primitive a/2.\n#primitive b/2.\n"
            "p(X,W) :- a(X,Y), b(Y,Z), b(Y,W).\n"
            "sup(X,Z) :- a(X,Y), b(Y,Z)."
        )
        c, s = prog.clauses
        # matching a(X,Y), b(Y,Z) would hide Y which also occurs in b(Y,W)
        for r in fold_clause(c, s):
            assert not any(
                l.pred == "b" and l.args[0] == c.body[0].args[1] for l in r.body
            ) or True
        # the only valid match binds the internal variable to Y's other use? none exists
        assert fold_clause(c, s) == []


class TestSyntacticEquiv:
    def test_fold_unfold_round_trip(self, pillar_program, folded_program):
        assert syntactic_equiv(pillar_program, folded_program)

    def test_deleted_clause_not_equivalent(self):
        p1 = parse_program(
            "#primitive a/2.\n#task t/2.\nt(X,Y) :- a(X,Y).\nt(X,Y) :- a(Y,X)."
        )
        p2 = parse_program("#primitive a/2.\n#task t/2.\nt(X,Y) :- a(X,Y).")
        assert not syntactic_equiv(p1, p2)

    def test_primitive_clauses_compared_as_a_multiset(self):
        rules = "#primitive e/2.\n#task t/2.\nt(X,Y) :- e(X,Y).\n"
        p1 = parse_program(rules + "e(a,b).\ne(b,c).\ne(X,X) :- e(X,b).")
        renamed = parse_program(rules + "e(Z,Z) :- e(Z,b).\ne(b,c).\ne(a,b).")
        assert syntactic_equiv(p1, renamed)
        lacking = parse_program(rules + "e(a,b).\ne(X,X) :- e(X,b).")
        assert not syntactic_equiv(p1, lacking)
        doubled = parse_program(rules + "e(a,b).\ne(a,b).\ne(X,X) :- e(X,b).")
        assert not syntactic_equiv(p1, doubled)

    def test_support_names_do_not_matter(self):
        base = "#primitive a/2.\n#task t/2.\nt(X,Y) :- {s}(X,Y).\n{s}(X,Y) :- a(X,Y), a(Y,X)."
        p1 = parse_program(base.format(s="s1"))
        p2 = parse_program(base.format(s="other"))
        assert syntactic_equiv(p1, p2)

    def test_different_task_sets_not_equivalent(self):
        p1 = parse_program("#primitive a/2.\n#task t/2.\nt(X,Y) :- a(X,Y).")
        p2 = parse_program("#primitive a/2.\n#task u/2.\nu(X,Y) :- a(X,Y).")
        assert not syntactic_equiv(p1, p2)


class TestRestrictedConsequences:
    def test_single_rule(self):
        prog = parse_program("#primitive q/1.\n#task t/1.\nq(a).\nt(X) :- q(X).")
        out = restricted_consequences(prog, {"t"}, depth=5)
        assert out == {Atom("t", (Const("a"),))}

    def test_no_task_clauses(self):
        prog = parse_program("#primitive q/1.\nq(a).")
        assert restricted_consequences(prog, {"t"}, depth=5) == set()

    def test_small_program_matches_hand_forward_chaining(self):
        prog = parse_program(
            "#primitive e/2.\n#task path/2.\n"
            "e(a,b).\ne(b,c).\ne(c,d).\ne(d,a).\n"
            "path(X,Y) :- e(X,Y).\n"
            "path2(X,Z) :- e(X,Y), e(Y,Z).\n"
            "path(X,Z) :- path2(X,Z)."
        )

        # independent naive forward-chaining oracle
        edges = {("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")}
        expected = set()
        for x, y in edges:
            expected.add(Atom("path", (Const(x), Const(y))))
        for x, y in edges:
            for y2, z in edges:
                if y == y2:
                    expected.add(Atom("path", (Const(x), Const(z))))

        out = restricted_consequences(prog, {"path"}, depth=8)
        assert out == expected

    def test_depth_bound_required(self):
        prog = parse_program("#primitive q/1.\nq(a).")
        with pytest.raises(TransformError):
            restricted_consequences(prog, {"q"}, depth=None)

    def test_equivalent_programs_same_consequences(self, pillar_program, folded_program):
        facts = (
            "place(hor,p0,s0,s1).\nplace(b,p1,s1,s2).\nplace(b,p1,s2,s3).\n"
            "place(b,p1,s3,s4).\nplace(hor,p0,s4,s5).\nright(p0,p1).\nleft(p1,p0).\n"
        )

        def with_facts(src):
            return parse_program(src + facts)

        from tests.conftest import FOLDED_SOURCE, PILLAR_SOURCE

        p1 = with_facts(PILLAR_SOURCE)
        p2 = with_facts(FOLDED_SOURCE)
        c1 = restricted_consequences(p1, {"pillar"}, depth=6)
        c2 = restricted_consequences(p2, {"pillar"}, depth=6)
        assert c1 == c2
        assert Atom(
            "pillar", (Const("p0"), Const("p0"), Const("s0"), Const("s5"))
        ) in c1
