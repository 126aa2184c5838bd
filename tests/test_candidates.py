import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from refold import candidates
from refold.candidates import (
    CandidateSupportClause,
    UsageIndex,
    _fold_one,
    build_search_space,
    extract_candidates,
    is_profitable,
    join_table,
    make_candidate_clause,
    prune_unprofitable,
)
from refold.logic import (
    Atom,
    Clause,
    Compound,
    Const,
    Var,
    connected_index_subsets,
    parse_program,
    variant_equal,
)
from refold.transform import (
    IndexedBody,
    Pattern,
    _disjoint_subsets,
    _max_disjoint_count,
    find_body_matches,
    pred_counts,
    unfold,
)

from tests.conftest import dense_program
from tests.test_acceptance import random_program
from tests.test_kernels import _TWO_LEVELS


def body_of(src: str) -> tuple:
    return parse_program(src).clauses[0].body


SHARED_CHAIN = (
    "#primitive p/2.\n#primitive q/2.\n#primitive r/2.\n#primitive z/1.\n"
    "#task t1/2.\n#task t2/2.\n"
    "t1(A,D) :- p(A,B), q(B,C), r(C,D).\n"
    "t2(A,D) :- p(A,B), q(B,C), r(C,D), z(D)."
)


def _long_chain_matches() -> list:
    """The matches of p(A,B), p(B,C) in p(V0,V1), ..., p(V2099,V2100),
    as find_body_matches gives them: literals k and k + 1 for each k."""
    return [
        (frozenset({k, k + 1}), Atom("inv", tuple(Var(f"V{k + d}") for d in range(3))))
        for k in range(2099)
    ]


class TestExtraction:
    def test_shared_chain_counted_once_with_usage_two(self):
        prog = parse_program(SHARED_CHAIN)
        cands = extract_candidates(list(prog.clauses), i=3, j=3, level=1)
        chains = [c for c in cands if c.body_size == 3 and not any(
            l.pred == "z" for l in c.clause.body)]
        assert len(chains) == 1
        assert chains[0].usage == 2

    def test_head_vars_in_first_occurrence_order(self):
        body = body_of("#primitive p/2.\n#primitive q/2.\nh(X) :- q(B,C), p(A,B).")
        clause = make_candidate_clause(body, "inv_1_0")
        assert clause.head.args == (Var("B"), Var("C"), Var("A"))

    def test_no_variant_equal_survivors(self):
        prog = parse_program(
            "#primitive p/2.\n#task t/2.\n"
            "t(A,C) :- p(A,B), p(B,C).\n"
            "t(X,Z) :- p(X,Y), p(Y,Z)."
        )
        cands = extract_candidates(list(prog.clauses), i=2, j=2, level=1)
        for a in cands:
            for b in cands:
                if a.id != b.id:
                    assert not variant_equal(a.clause, b.clause)

    def test_disconnected_subsets_excluded(self):
        prog = parse_program(
            "#primitive p/2.\n#primitive q/2.\n#task t/4.\n"
            "t(A,B,C,D) :- p(A,B), q(C,D)."
        )
        cands = extract_candidates(list(prog.clauses), i=2, j=3, level=1)
        assert cands == []

    def test_invalid_size_window(self):
        with pytest.raises(ValueError):
            extract_candidates([], i=0, j=3, level=1)
        with pytest.raises(ValueError):
            extract_candidates([], i=3, j=2, level=1)

    def test_ids_are_contiguous_from_start(self):
        prog = parse_program(SHARED_CHAIN)
        cands = extract_candidates(list(prog.clauses), i=2, j=3, level=1)
        assert [c.id for c in cands] == list(range(len(cands)))


# p/1 beside p/2: the gate must key on arity as well as on the predicate
_GATE_PREDS = (("p", 1), ("p", 2), ("q", 2))
_GATE_TERMS = st.sampled_from(
    [Var("A"), Var("B"), Var("C"), Const("a"), Const("b"),
     Compound("f", (Var("A"),)), Compound("f", (Const("a"),))]
)
_GATE_LITERALS = st.sampled_from(_GATE_PREDS).flatmap(
    lambda pa: st.tuples(*[_GATE_TERMS] * pa[1]).map(lambda args: Atom(pa[0], args))
)


def _gate_bodies(max_size: int):
    return st.lists(_GATE_LITERALS, min_size=1, max_size=max_size).map(tuple)


def _gate_groups(max_body: int):
    return st.lists(st.lists(_gate_bodies(max_body), min_size=1, max_size=3),
                    min_size=1, max_size=3)


def _reference_usage(pattern: tuple, head: Atom, groups: list) -> int:
    """Ungated, unbounded: every body of every group goes to the matcher."""
    return sum(
        max(
            _max_disjoint_count(find_body_matches(IndexedBody(b), Pattern(pattern, head)))
            for b in g
        )
        for g in groups
    )


class TestMatcherGate:
    def test_constant_bridged_occurrence_is_counted(self):
        # t's body has no connected 2-literal sub-body (its link is the
        # constant c), yet the pattern from s matches it with Y = c
        prog = parse_program(
            "#primitive p/2.\n#primitive q/2.\n#task s/2.\n#task t/2.\n"
            "s(A,B) :- p(A,Y), q(Y,B).\n"
            "t(A,B) :- p(A,c), q(c,B)."
        )
        assert connected_index_subsets(prog.clauses[1].body, 2, 2) == []
        [cand] = extract_candidates(list(prog.clauses), i=2, j=2, level=1)
        assert cand.usage == 2

    @settings(max_examples=300, deadline=None)
    @given(pattern=_gate_bodies(3), body=_gate_bodies(4))
    def test_no_match_outside_the_gate(self, pattern, body):
        head = make_candidate_clause(pattern, "inv").head
        if not pred_counts(pattern) <= pred_counts(body):
            assert find_body_matches(IndexedBody(body), Pattern(pattern, head)) == []

    @settings(max_examples=150, deadline=None)
    @given(patterns=st.lists(_gate_bodies(3), min_size=1, max_size=3), groups=_gate_groups(4))
    def test_gated_results_equal_ungated_reference(self, patterns, groups):
        cands = [
            CandidateSupportClause(
                id=k,
                clause=make_candidate_clause(pat, f"inv_1_{k}"),
                level=1,
                dependencies=frozenset(),
                usage=0,
            )
            for k, pat in enumerate(patterns)
        ]
        index = UsageIndex(groups)
        for c in cands:
            reference = _reference_usage(c.clause.body, c.clause.head, groups)
            assert index.usage(c.clause.body, lambda u: True) == reference
        gated = [index.gated(pred_counts(c.clause.body)) for c in cands]
        pred_to_id = {c.pred: c.id for c in cands}
        forms = [(c.id, Pattern(c.clause.body, c.clause.head)) for c in cands]
        for bid, (_, body, _) in enumerate(index.bodies):
            # the gated candidates fold a body as all candidates do
            mine = [f for f, ids in zip(forms, gated) if bid in ids]
            assert _fold_one(IndexedBody(body), mine, 20, pred_to_id) == _fold_one(
                IndexedBody(body), forms, 20, pred_to_id
            )

    def test_long_chain_matches_within_seconds(self):
        # a pattern literal whose variable is already bound tries only the
        # body literals that hold its image, so the 2 099 matches take a
        # linear walk, not one over every p/2 literal for each; a child
        # process, so that a slow matcher fails the test instead of
        # stalling it
        main = (
            "from refold.logic import Atom, Var\n"
            "from refold.transform import IndexedBody, Pattern, find_body_matches\n"
            "body = tuple(Atom('p', (Var(f'V{k}'), Var(f'V{k + 1}'))) for k in range(2100))\n"
            "a, b, c = Var('A'), Var('B'), Var('C')\n"
            "pattern = Pattern((Atom('p', (a, b)), Atom('p', (b, c))), Atom('inv', (a, b, c)))\n"
            "matches = find_body_matches(IndexedBody(body), pattern)\n"
            "assert matches == [(frozenset({k, k + 1}), "
            "Atom('inv', tuple(Var(f'V{k + d}') for d in range(3)))) for k in range(2099)]\n"
            "print(len(matches))"
        )
        done = subprocess.run(
            [sys.executable, "-c", main], capture_output=True, text=True, timeout=3,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["2099"]


# a put step: replace a body, append one, or move one to another group;
# the integers pick the body and the group
_PUT_STEPS = st.tuples(
    st.sampled_from(["replace", "append", "move"]),
    st.integers(0, 50),
    st.integers(0, 50),
    _gate_bodies(5),
)


def _worth(kind: int) -> tuple:
    """A fresh worth and the list of the bounds it is asked about: kind 0
    fails at the literal-count bound, 1 passes it and fails at the join
    bound, 2 never fails."""
    asked: list = []
    answer = {0: lambda: False, 1: lambda: len(asked) == 1, 2: lambda: True}[kind]
    return (lambda u: asked.append(u) or answer()), asked


class TestUsageIndex:
    """The posting intersection and the literal-count bound against the
    scan and the matcher they stand in for, and the caps and counts the
    index keeps across calls against a fresh index."""

    @settings(max_examples=200, deadline=None)
    @given(groups=_gate_groups(5), patterns=st.lists(_gate_bodies(3), min_size=1, max_size=3),
           steps=st.lists(_PUT_STEPS, max_size=6), order=st.permutations([0, 1, 2]))
    def test_kept_counts_equal_a_fresh_index(self, groups, patterns, steps, order):
        index = UsageIndex(groups)
        placed = [(g, body) for g, group in enumerate(groups) for body in group]
        for step in [None, *steps]:
            if step is not None:
                kind, pick, to, body = step
                bid = pick % len(placed)
                g = to % (len(groups) + 1)  # an existing group or a new one
                if kind == "replace":
                    placed[bid] = (placed[bid][0], body)
                elif kind == "append":
                    bid = len(placed)
                    placed.append((g, body))
                else:
                    placed[bid] = (g, placed[bid][1])
                index.put(bid, *placed[bid])
                groups = [[b for h, b in placed if h == k] for k in range(len(groups) + 1)]
            for pattern in patterns:
                for kind in order:
                    (kept, kept_asked), (fresh, fresh_asked) = _worth(kind), _worth(kind)
                    want = UsageIndex([gr for gr in groups if gr]).usage(pattern, fresh)
                    assert index.usage(pattern, kept) == want
                    assert kept_asked == fresh_asked

    @settings(max_examples=300, deadline=None)
    @given(pattern=_gate_bodies(3), groups=_gate_groups(5))
    def test_postings_equal_multiset_scan(self, pattern, groups):
        bodies = [b for g in groups for b in g]
        scan = {k for k, b in enumerate(bodies) if pred_counts(pattern) <= pred_counts(b)}
        assert UsageIndex(groups).gated(pred_counts(pattern)) == scan

    @settings(max_examples=300, deadline=None)
    @given(pattern=_gate_bodies(3), groups=_gate_groups(6))
    def test_bound_never_below_exact_usage(self, pattern, groups):
        head = make_candidate_clause(pattern, "inv").head
        bound = UsageIndex(groups).usage(pattern, lambda u: False)
        assert bound >= _reference_usage(pattern, head, groups)

    def test_group_counts_its_best_body(self):
        # the first body of the group holds one occurrence, the second two
        a, b = Atom("p", (Var("A"),)), Atom("p", (Var("B"),))
        index = UsageIndex([[(a,), (a, b)], [(b,)]])
        assert index.usage((a,), lambda u: True) == 3

    def test_usage_stays_within_the_bound_when_the_disjoint_search_gives_up(self):
        # 56 ordered pairs of 8 literals: the disjoint search passes its
        # node cap and answers len(matches); 8 literals hold 4 pairs
        body = tuple(Atom("p", (Var(f"X{k}"),)) for k in range(8))
        pattern = (Atom("p", (Var("A"),)), Atom("p", (Var("B"),)))
        head = make_candidate_clause(pattern, "inv").head
        matches = find_body_matches(IndexedBody(body), Pattern(pattern, head))
        assert _max_disjoint_count(matches) == 56
        assert UsageIndex([[body]]).usage(pattern, lambda u: True) == 4

    def test_long_chain_passes_the_node_cap_without_recursing(self):
        # a recursion one level per chosen match would pass Python's stack
        # limit on the 1 050 disjoint pairs of this chain
        matches = _long_chain_matches()
        assert len(matches) == 2099
        assert _max_disjoint_count(matches) == len(matches)

    def test_long_chain_disjoint_subsets_stop_at_the_cap(self):
        subsets = _disjoint_subsets(_long_chain_matches(), cap=2000)
        assert len(subsets) == 2000
        # depth first, the 1 050th set is the deepest: every other pair
        assert len(subsets[1049]) == 1050
        assert all(not a[0] & b[0] for a, b in zip(subsets[1049], subsets[1049][1:]))

    def test_bound_returned_without_matching(self, monkeypatch):
        calls = []
        monkeypatch.setattr(candidates, "find_body_matches",
                            lambda *a: calls.append(a) or find_body_matches(*a))
        prog = parse_program(SHARED_CHAIN)
        index = UsageIndex([[c.body] for c in prog.clauses])
        pattern = prog.clauses[0].body
        assert index.usage(pattern, lambda u: False) == 2
        assert calls == []
        assert index.usage(pattern, lambda u: True) == 2
        assert len(calls) == 2

    @settings(max_examples=300, deadline=None)
    @given(pattern=_gate_bodies(3), groups=_gate_groups(6))
    def test_join_bound_never_below_exact_usage(self, pattern, groups):
        # worth passes the literal-count bound and fails the join bound,
        # so usage returns the join bound unmatched, or, for a pattern
        # without joins, matches and returns the exact count
        head = make_candidate_clause(pattern, "inv").head
        reference = _reference_usage(pattern, head, groups)
        asked, calls = [], []

        def worth(u):
            asked.append(u)
            return len(asked) == 1

        def counting(*args):
            calls.append(args)
            return find_body_matches(*args)

        saved = candidates.find_body_matches
        candidates.find_body_matches = counting
        try:
            got = UsageIndex(groups).usage(pattern, worth)
        finally:
            candidates.find_body_matches = saved
        if len(asked) == 2:
            assert not calls
            assert asked[0] >= asked[1] == got >= reference
        else:
            assert got == reference

    @settings(max_examples=300, deadline=None)
    @given(body=_gate_bodies(8))
    def test_join_table_equals_pairwise_scan(self, body):
        # every ordered pair of distinct literals and of their top-level
        # positions, against the table built from per-slot masks
        firsts: dict = {}
        seconds: dict = {}
        for (x, lx), (y, ly) in itertools.permutations(enumerate(body), 2):
            for a, ta in enumerate(lx.args):
                for b, tb in enumerate(ly.args):
                    slots = ((lx.pred, lx.arity), a), ((ly.pred, ly.arity), b)
                    if ta == tb and slots[0] <= slots[1]:
                        firsts.setdefault(slots, set()).add(x)
                        seconds.setdefault(slots, set()).add(y)
        scan = {sig: min(len(firsts[sig]), len(seconds[sig])) for sig in firsts}
        assert join_table(body) == scan

    def test_body_without_a_join_is_not_matched(self, monkeypatch):
        # both bodies pass the literal-count gate, but only the first
        # holds a q/2 literal whose first argument is a p/2 literal's second
        calls = []
        monkeypatch.setattr(candidates, "find_body_matches",
                            lambda *a: calls.append(a) or find_body_matches(*a))
        joined = body_of("#primitive p/2.\n#primitive q/2.\nh(A) :- p(A,B), q(B,C).")
        apart = body_of("#primitive p/2.\n#primitive q/2.\nh(A) :- p(A,B), q(C,A).")
        index = UsageIndex([[joined], [apart]])
        pattern = joined
        assert index.gated(pred_counts(pattern)) == {0, 1}
        assert index.usage(pattern, lambda u: True) == 1
        assert [a[0].literals for a in calls] == [joined]

    def test_shared_constant_builds_the_join_table_within_seconds(self):
        # p(c,X0), ..., p(c,X1999): the constant c fills one slot of all
        # 2 000 literals, which the table takes as one mask, not as
        # 2 000^2 pairs (about 3 s a table on a 2-core machine, against
        # 0.01 s); the chain pattern joins a second argument to a first
        # one, which no two of these literals share, so its usage is 0
        # and nothing is matched. Five groups hold the body, so five
        # tables are built; a child process, so that a slow table fails
        # the test instead of stalling it
        main = (
            "from refold import candidates\n"
            "from refold.candidates import UsageIndex, is_profitable\n"
            "from refold.logic import Atom, Const, Var\n"
            "def no_match(*a):\n"
            "    raise AssertionError('matched')\n"
            "candidates.find_body_matches = no_match\n"
            "body = tuple(Atom('p', (Const('c'), Var(f'X{k}'))) for k in range(2000))\n"
            "a, b, c = Var('A'), Var('B'), Var('C')\n"
            "pattern = (Atom('p', (a, b)), Atom('p', (b, c)))\n"
            "index = UsageIndex([[body]] * 5)\n"
            "print(index.usage(pattern, lambda u: is_profitable(3, u)))\n"
            "print(index.joins(0))"
        )
        done = subprocess.run(
            [sys.executable, "-c", main], capture_output=True, text=True, timeout=3,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[:2] == ["0", "{((('p', 2), 0), (('p', 2), 0)): 2000}"]


class TestPruning:
    def test_profitability_threshold(self):
        # size 3 (2-literal body): saves usage*(size-1), costs usage + size
        assert is_profitable(3, 5)
        assert is_profitable(3, 4)
        assert not is_profitable(3, 3)
        assert not is_profitable(3, 2)
        assert not is_profitable(3, 0)
        # a 1-literal body can never pay for itself
        for usage in range(0, 50):
            assert not is_profitable(2, usage)
        # size 4, usage 2: 2*3=6 > 2+4=6 is false
        assert not is_profitable(4, 2)
        assert is_profitable(4, 3)

    def test_prune_functions_filter(self):
        prog = parse_program(SHARED_CHAIN)
        cands = extract_candidates(list(prog.clauses), i=2, j=3, level=1)
        kept = prune_unprofitable(cands)
        assert all(is_profitable(c.size, c.usage) for c in kept)
        assert len(kept) < len(cands)


class TestSearchSpace:
    def test_reconstruction_invariant(self):
        # every folding option, re-expanded through its candidates'
        # definitions, is a variant of some option one level below
        prog = parse_program(
            "#primitive p/2.\n#primitive q/2.\n#primitive r/2.\n"
            "#task t1/2.\n#task t2/2.\n#task t3/2.\n"
            "t1(A,D) :- p(A,B), q(B,C), r(C,D).\n"
            "t2(A,D) :- p(A,B), q(B,C), r(C,D).\n"
            "t3(A,D) :- p(A,B), q(B,C), r(C,D)."
        )
        u = unfold(prog)
        space = build_search_space(u, i=2, j=3)
        by_pred = {c.pred: c.clause for c in space.candidates}
        for idx, per_level in space.foldings.items():
            for level, opts in per_level.items():
                if level == 0:
                    continue
                for opt in opts:
                    expanded = _expand(opt.literals, by_pred)
                    bases = per_level[level - 1]
                    assert any(
                        variant_equal(
                            Clause(Atom("h"), expanded), Clause(Atom("h"), b.literals)
                        )
                        for b in bases
                    )

    def test_required_ids_match_literal_predicates(self):
        prog = parse_program(SHARED_CHAIN)
        space = build_search_space(unfold(prog), i=2, j=3)
        id_of = {c.pred: c.id for c in space.candidates}
        for per_level in space.foldings.values():
            for opts in per_level.values():
                for opt in opts:
                    expected = frozenset(
                        id_of[l.pred] for l in opt.literals if l.pred in id_of
                    )
                    assert opt.required == expected

    def test_shared_chain_space(self):
        # three copies: a 3-literal body at usage 3 saves 3*3=9 > 3+4=7
        prog = parse_program(
            "#primitive p/2.\n#primitive q/2.\n#primitive r/2.\n"
            "#task t1/2.\n#task t2/2.\n#task t3/2.\n"
            "t1(A,D) :- p(A,B), q(B,C), r(C,D).\n"
            "t2(A,D) :- p(A,B), q(B,C), r(C,D).\n"
            "t3(A,D) :- p(A,B), q(B,C), r(C,D)."
        )
        space = build_search_space(unfold(prog), i=2, j=3)
        assert all(c.usage >= 2 for c in space.candidates)
        assert all(is_profitable(c.size, c.usage) for c in space.candidates)
        # the full shared 3-chain survives and folds both clauses
        chains = [
            c for c in space.candidates
            if c.body_size == 3 and {l.pred for l in c.clause.body} == {"p", "q", "r"}
        ]
        assert len(chains) == 1
        cid = chains[0].id
        for idx in space.foldings:
            assert any(
                cid in opt.required for opt in space.foldings[idx].get(1, [])
            )

    def test_level_two_composition(self):
        # four copies of a 4-literal chain: level 1 invents 2- and 3-chains,
        # level 2 can compose two invented predicates
        lines = ["#primitive p/2."] + [f"#task t{k}/2." for k in range(4)]
        lines += [
            f"t{k}(A,E) :- p(A,B), p(B,C), p(C,D), p(D,E)." for k in range(4)
        ]
        space = build_search_space(unfold(parse_program("\n".join(lines))), i=2, j=3)
        assert space.max_level >= 2
        lvl2 = [c for c in space.candidates if c.level == 2]
        assert lvl2
        lvl1_preds = {c.pred for c in space.candidates if c.level == 1}
        for c in lvl2:
            assert {l.pred for l in c.clause.body} <= lvl1_preds
            assert c.dependencies

    def test_every_extracted_level_is_reported(self, monkeypatch):
        # criterion 1's first 150 programs and config; a level whose
        # candidates are all pruned keeps its LevelStats
        returned = []

        def counting(*args, **kwargs):
            cands = extract_candidates(*args, **kwargs)
            returned.append(len(cands))
            return cands

        monkeypatch.setattr(candidates, "extract_candidates", counting)
        rng = random.Random(20260826)
        stats = []
        for _ in range(150):
            u = unfold(random_program(rng))
            stats += build_search_space(u, 2, 3, max_levels=1, folding_cap=20).stats
        assert sum(st.extracted for st in stats) == sum(returned)
        assert any(st.extracted and not st.after_usage_prune for st in stats)

    def test_ungated_index_gives_the_same_space(self, monkeypatch):
        # the gate only skips bodies the matcher cannot match: opening it
        # for extraction and folding together changes nothing
        rng = random.Random(20260826)  # criterion 1's programs and config
        cases = [(random_program(rng), {"max_levels": 1, "folding_cap": 20}) for _ in range(150)]
        cases += [(dense_program(), {}), (parse_program(_TWO_LEVELS), {})]

        def space_of(program, space_args):
            space = build_search_space(unfold(program), 2, 3, **space_args)
            return space.candidates, space.foldings, space.stats

        levels = set()
        for program, space_args in cases:
            with monkeypatch.context() as patched:
                patched.setattr(UsageIndex, "gated", lambda self, need: set(range(len(self.bodies))))
                want = space_of(program, space_args)
            got = space_of(program, space_args)
            assert got == want
            levels.add(max(st.level for st in got[2]) if got[2] else 0)
        assert levels >= {1, 2}

    @pytest.mark.parametrize(
        "source, space_args, reason, max_level",
        [
            # 1-literal candidates never shorten a body, so levels go on to the cap
            ("#primitive p/2.\n#task t/2.\nt(A,C) :- p(A,B), p(B,C).",
             {"i": 1, "j": 1, "prune": False}, "hard level cap reached", 64),
            (SHARED_CHAIN, {"max_levels": 1, "prune": False}, "max levels reached", 1),
            # two copies of each sub-body cannot pay for a support clause
            (SHARED_CHAIN, {}, "no candidates survived pruning", 0),
            ("#primitive p/2.\n#primitive q/2.\n" + "".join(
                f"#task t{k}/2.\nt{k}(A,C) :- p(A,B), q(B,C).\n" for k in range(4)),
             {}, "all bodies reduced to one literal", 1),
        ],
        ids=["hard-level-cap", "max-levels", "all-pruned", "one-literal-bodies"],
    )
    def test_stop_reasons(self, source, space_args, reason, max_level):
        space = build_search_space(unfold(parse_program(source)), **{"i": 2, "j": 3, **space_args})
        assert (space.stop_reason, space.max_level) == (reason, max_level)

    def test_no_candidates_stops_cleanly(self):
        prog = parse_program("#primitive p/2.\n#task t/2.\nt(A,B) :- p(A,B).")
        space = build_search_space(unfold(prog), i=2, j=3)
        assert space.candidates == []
        assert space.max_level == 0

    def test_prune_disabled_keeps_unprofitable(self):
        prog = parse_program(SHARED_CHAIN)
        pruned = build_search_space(unfold(prog), i=2, j=3, max_levels=1)
        raw = build_search_space(unfold(prog), i=2, j=3, max_levels=1, prune=False)
        assert len(raw.candidates) > len(pruned.candidates)

    def test_folding_cap_truncates(self):
        # many overlapping matches explode the disjoint-subset count
        body = ", ".join(f"p(X{k},X{k+1})" for k in range(10))
        lines = ["#primitive p/2.", "#task t1/2.", "#task t2/2."]
        lines.append(f"t1(X0,X10) :- {body}.")
        lines.append(f"t2(X0,X10) :- {body}.")
        space = build_search_space(
            unfold(parse_program("\n".join(lines))), i=2, j=3,
            max_levels=1, folding_cap=10, prune=False,
        )
        for per_level in space.foldings.values():
            for opts in per_level.values():
                assert len(opts) <= 10
        assert any(st.truncated_clauses for st in space.stats)

    def test_truncated_clauses_counts_each_cut_clause_once(self):
        # a clause counts when the cap cut its options: exactly the
        # clauses whose level-1 options differ from the uncapped ones; a
        # clause whose options just fill the cap (at 8, 17 and 23) does not
        u = unfold(dense_program())
        full = build_search_space(u, 2, 3, max_levels=1, folding_cap=500)
        assert full.stats[0].truncated_clauses == 0
        for cap in (3, 8, 17, 23):
            space = build_search_space(u, 2, 3, max_levels=1, folding_cap=cap)
            cut = sum(
                full.foldings[cl].get(1) != space.foldings[cl].get(1)
                for cl in full.foldings
            )
            assert space.stats[0].truncated_clauses == cut, f"cap {cap}"


def _expand(literals: tuple, by_pred: dict) -> tuple:
    out = []
    for lit in literals:
        definition = by_pred.get(lit.pred)
        if definition is None:
            out.append(lit)
            continue
        matches = find_body_matches(
            IndexedBody((lit,)), Pattern((definition.head,), definition.head)
        )
        # instantiate the definition body against this literal
        from refold.transform import rename_apart, subst_atom, unify_atoms

        d = rename_apart(definition)
        s = unify_atoms(d.head, lit, {})
        assert s is not None
        out.extend(_expand(tuple(subst_atom(b, s) for b in d.body), by_pred))
    return tuple(out)
