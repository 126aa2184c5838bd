import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from refold.logic import (
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
    canonicalize_clause,
    connected_index_subsets,
    parse_program,
    rename_clause,
    render_program,
    variant_equal,
    variant_key,
)

from tests.test_kernels import reference_match_atoms


def cl(text):
    kb = "\n".join(
        f"#primitive {p}/{a}." for p, a in
        [("p", 1), ("q", 2), ("r", 2), ("a", 2), ("b", 2), ("c", 1), ("place", 4),
         ("right", 2), ("left", 2)]
    )
    prog = parse_program(kb + "\n" + text)
    return prog.clauses[0]


class TestParse:
    def test_single_clause(self):
        prog = parse_program(
            "#primitive place/4.\n#primitive right/2.\n"
            "pillar(X,Y,E,E1) :- place(hor,X,E,E0), right(X,Z)."
        )
        assert len(prog.clauses) == 1
        assert len(prog.clauses[0].body) == 2
        assert prog.clauses[0].head.pred == "pillar"

    def test_fact(self):
        prog = parse_program("q(a,b).")
        assert prog.clauses[0].body == ()
        assert prog.registry.role("q") == "support"

    def test_variables_vs_constants(self):
        c = cl("h(X) :- q(X, foo).")
        assert c.body[0].args == (Var("X"), Const("foo"))

    def test_compound_terms(self):
        prog = parse_program("#primitive q/1.\nh(X) :- q(f(X, g(a))).")
        arg = prog.clauses[0].body[0].args[0]
        assert arg.functor == "f"
        assert arg.args[1].functor == "g"

    def test_comments_ignored(self):
        prog = parse_program("% a comment\nq(a). % trailing\n")
        assert len(prog.clauses) == 1

    def test_arity_conflict(self):
        with pytest.raises(ArityError):
            parse_program("p(X) :- q(X,Y), q(X).")

    def test_arity_conflict_across_clauses(self):
        with pytest.raises(ArityError):
            parse_program("#primitive q/0.\np(X) :- q(X,Y).\np(X) :- q(X).")

    def test_undefined_undeclared_predicate(self):
        with pytest.raises(LogicError):
            parse_program("p(X) :- mystery(X).")

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as e:
            parse_program("p(X) :- q(X,Y)")
        assert "line" in str(e.value)

    def test_duplicate_role_declaration(self):
        with pytest.raises(ParseError):
            parse_program("#primitive q/1.\n#task q/1.")

    @pytest.mark.parametrize("text, error, message", [
        # columns count characters from 1; a tab or a "\r" is one column
        ("p(a).\n\t$", ParseError, "unexpected character '$' (line 2, column 2)"),
        ("p(a).\r$", ParseError, "unexpected character '$' (line 1, column 7)"),
        ("% c\n$", ParseError, "unexpected character '$' (line 2, column 1)"),
        ("foo(X) :- bar(X) $", ParseError, "unexpected character '$' (line 1, column 18)"),
        ("p(X) :- ).", ParseError, "expected a predicate, found ')' (line 1, column 9)"),
        ("p(a) q(b).", ParseError, "expected ':-' or '.', found 'q' (line 1, column 6)"),
        # end of input is reported at the last token
        ("p(X) :- q(X", ParseError, "unexpected end of input (line 1, column 11)"),
        ("#", ParseError, "unexpected end of input (line 1, column 1)"),
        # a name is a run of str.isalnum() characters or "_"
        ("é(a).", None, "#support é/1.\né(a).\n"),
        ("²", ParseError, "unexpected end of input (line 1, column 1)"),
        ("p(a).\x0c", ParseError, "unexpected character '\\x0c' (line 1, column 6)"),
        ("#task t/x.", ParseError, "expected an arity, found 'x' (line 1, column 9)"),
        # a directive declares a name, never a symbol
        ("#task (/1.", ParseError, "expected a predicate, found '(' (line 1, column 7)"),
        ("#task :-/1.", ParseError, "expected a predicate, found ':-' (line 1, column 7)"),
        ("#task X/1.", ParseError, "predicate name must not be a variable (line 1, column 7)"),
        ("#task t 1.", ParseError, "expected '/', found '1' (line 1, column 9)"),
        ("#foo p/1.", ParseError, "unknown directive #foo (line 1, column 2)"),
        ("p(a b).", ParseError, "expected ')', found 'b' (line 1, column 5)"),
        ("p(X(a)).", ParseError, "variable X cannot take arguments (line 1, column 3)"),
        ("X(a).", ParseError, "predicate name X must not be a variable (line 1, column 1)"),
        ("p(a) :- q(a) r(a).", ParseError, "expected ',' or '.', found 'r' (line 1, column 14)"),
        ("#primitive q/1.\n  #task q/1.", ParseError,
         "duplicate role declaration for q (line 2, column 3)"),
        ("#primitive q/1.\n#task r/1. #task q/1.", ParseError,
         "duplicate role declaration for q (line 2, column 12)"),
        # a position is that of the erring token, not of an earlier token
        # with the same text, on any line; comments, "\r\n" line ends, tabs
        # and names of several bytes leave columns counting characters
        ("#primitive p/1.\np(a).\np(a) q(b).", ParseError,
         "expected ':-' or '.', found 'q' (line 3, column 6)"),
        ("p(a).\np(a) p(a).", ParseError, "expected ':-' or '.', found 'p' (line 2, column 6)"),
        ("% p(X) :- ).\np(a) % a ) comment $\n:- .", ParseError,
         "expected a predicate, found '.' (line 3, column 4)"),
        ("#primitive q/1.\r\np(X) :- q(X)\r\nr(X).", ParseError,
         "expected ',' or '.', found 'r' (line 3, column 1)"),
        ("p(a) :-\n\t\tq(a) ) .", ParseError, "expected ',' or '.', found ')' (line 2, column 8)"),
        ("#primitive q/1.\r\n\r\nq(a). % x\r\n\tq(é) q(b).", ParseError,
         "expected ':-' or '.', found 'q' (line 4, column 7)"),
        ("αβγ(δ) :- ζ(δ) ε.", ParseError, "expected ',' or '.', found 'ε' (line 1, column 16)"),
        ("p(X) :- q(X,\n% trailing comment\n", ParseError,
         "unexpected end of input (line 1, column 12)"),
        ("p(a) :-\n\n   ", ParseError, "unexpected end of input (line 1, column 6)"),
        # a bad character is reported before an earlier syntax error
        ("p(a) q(b).\n$", ParseError, "unexpected character '$' (line 2, column 1)"),
        ("p(X :- \n\t@", ParseError, "unexpected character '@' (line 2, column 2)"),
        ("p(X) :- q(X,Y), q(X).", ArityError, "q used with arity 1 but also with arity 2"),
        ("#primitive q/0.\np(X) :- q(X,Y).", ArityError,
         "q declared with arity 0 but used with arity 2"),
    ])
    def test_exact_messages(self, text, error, message):
        if error is None:
            assert render_program(parse_program(text)) == message
        else:
            with pytest.raises(error) as e:
                parse_program(text)
            assert type(e.value) is error
            assert str(e.value) == message

    def test_paper_clauses(self, folded_program):
        assert len(folded_program.clauses) == 2
        ver = folded_program.clauses[0]
        assert ver.head.pred == "ver"
        assert ver.head.arity == 3
        assert len(ver.body) == 3
        pillar = folded_program.clauses[1]
        assert any(l.pred == "ver" for l in pillar.body)


class TestRegistry:
    def test_redeclaration(self):
        reg = PredicateRegistry()
        reg.declare("p", 2, "primitive")
        reg.declare("p", 2, "primitive")
        assert reg.entries == {"p": (2, "primitive")}
        for (pred, arity, role), error, message in [
            (("p", 3, "primitive"), ArityError,
             "p declared with arity 3 but already has arity 2"),
            (("p", 2, "task"), LogicError, "p/2 declared task but already declared primitive"),
            (("q", 1, "macro"), LogicError, "unknown role 'macro' for q/1"),
        ]:
            with pytest.raises(error) as e:
                reg.declare(pred, arity, role)
            assert type(e.value) is error
            assert str(e.value) == message
        assert reg.entries == {"p": (2, "primitive")}


class TestRender:
    def test_empty_program_keeps_directives(self):
        prog = parse_program("#primitive q/2.")
        out = render_program(prog)
        assert out == "#primitive q/2.\n"

    def test_canonical_variable_order(self):
        c = cl("h(B,A) :- q(B,A).")
        assert repr(canonicalize_clause(c)) == "h(A,B) :- q(A,B)."

    def test_round_trip(self, folded_program):
        text = render_program(folded_program)
        again = parse_program(text)
        assert len(again.clauses) == len(folded_program.clauses)
        for c1, c2 in zip(folded_program.clauses, again.clauses):
            assert variant_equal(c1, c2)

    def test_ver_clause_renders_on_one_line(self, folded_program):
        text = render_program(folded_program)
        ver_lines = [l for l in text.splitlines() if l.startswith("ver")]
        assert len(ver_lines) == 1
        assert ver_lines[0].count("place") == 3


class TestVariantEqual:
    def test_pure_renaming(self):
        assert variant_equal(cl("h(X) :- q(X,Y)."), cl("h(A) :- q(A,B)."))

    def test_variable_and_compound_in_one_position(self):
        # a variable and a compound term at the same position
        assert variant_equal(cl("h(X) :- p(X), p(f(X))."), cl("h(Y) :- p(f(Y)), p(Y)."))
        assert not variant_equal(cl("h(X) :- p(X), p(f(X))."), cl("h(Y) :- p(Y), p(g(Y))."))

    def test_argument_swap_not_variant(self):
        assert not variant_equal(cl("h(X) :- q(X,Y)."), cl("h(X) :- q(Y,X)."))

    def test_consistent_swap_in_ver(self):
        c1 = cl("ver(X,E,E2) :- place(b,X,E,E0), place(b,X,E0,E1), place(b,X,E1,E2).")
        c2 = cl("ver(X,E,E2) :- place(b,X,E,E1), place(b,X,E1,E0), place(b,X,E0,E2).")
        assert variant_equal(c1, c2)

    def test_body_order_irrelevant(self):
        assert variant_equal(cl("h(X) :- q(X,Y), r(Y,X)."), cl("h(X) :- r(Y,X), q(X,Y)."))

    def test_constant_mismatch(self):
        assert not variant_equal(cl("h(X) :- q(X, foo)."), cl("h(X) :- q(X, bar)."))

    @pytest.mark.parametrize("shape, expected", [
        pytest.param("chain(1500)", "True", id="chain"),
        pytest.param("chain(1500, swap=750)", "False", id="chain-swapped"),
        pytest.param("chain(1500, swap=750, shuffle=False)", "False",
                     id="chain-swapped-unshuffled"),
        pytest.param("star(1000, in_head=True)", "True", id="star-on-head"),
        pytest.param("star(1000, in_head=False)", "True", id="star-in-body"),
        pytest.param("cycle(200)", "True", id="cycle200"),
        pytest.param("cycle(1000)", "True", id="cycle1000"),
        pytest.param("copies(40)", "True", id="copies40"),
        pytest.param("repeated(1000)", "True", id="repeated1000"),
    ])
    def test_large_clauses_end_within_seconds(self, shape, expected):
        # each clause against a shuffled, renamed copy of itself, in which
        # chain(..., swap=k) reverses literal k's arguments and
        # chain(..., shuffle=False) keeps the body order: a head-anchored
        # chain, stars on a head and on a body-only variable, cycles and
        # disjoint copies of p(A,B), r(B,A) without a head variable, and
        # one literal repeated. A child process, so that a stall fails the
        # test instead of hanging it
        main = (
            "import random\n"
            "from refold.logic import Atom, Clause, Var, rename_clause, variant_equal\n"
            "X = [Var(f'X{k}') for k in range(1501)]\n"
            "def chain(n, swap=-1, shuffle=True):\n"
            "    lits = [Atom('q', (X[k], X[k + 1])) for k in range(n)]\n"
            "    return Clause(Atom('h', (X[0], X[n])), tuple(lits)), swap, shuffle\n"
            "def star(n, in_head):\n"
            "    lits = [Atom('q', (X[0], X[k + 1])) for k in range(n)]\n"
            "    return Clause(Atom('h', (X[0],) if in_head else ()), tuple(lits)), -1, True\n"
            "def cycle(n):\n"
            "    return Clause(Atom('h'), tuple(Atom('q', (X[k], X[(k + 1) % n])) for k in range(n))), -1, True\n"
            "def copies(n):\n"
            "    lits = [Atom(p, (X[2 * k], X[2 * k + 1])[::d]) for k in range(n)\n"
            "            for p, d in (('p', 1), ('r', -1))]\n"
            "    return Clause(Atom('h'), tuple(lits)), -1, True\n"
            "def repeated(n):\n"
            "    return Clause(Atom('h', (X[0],)), (Atom('q', (X[0], X[1])),) * n), -1, True\n"
            f"c, swap, shuffle = {shape}\n"
            "body = list(c.body)\n"
            "if swap >= 0:\n"
            "    body[swap] = Atom('q', body[swap].args[::-1])\n"
            "if shuffle:\n"
            "    random.Random(0).shuffle(body)\n"
            "renaming = {x: Var(f'R{k}') for k, x in enumerate(reversed(X))}\n"
            "print(variant_equal(c, rename_clause(Clause(c.head, tuple(body)), renaming)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", main], capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [expected]

    def test_backtracks_to_a_later_holder(self):
        # two literals hold the head's A, q(C,A) and q(D,A); only the
        # second pairs with q(D,A) once the rest of the body is matched
        assert variant_equal(
            cl("h(A) :- q(D,A), q(C,A), q(B,B), q(D,B), r(D,D)."),
            cl("h(A) :- q(D,B), q(C,A), q(B,B), r(D,D), q(D,A)."),
        )

    @given(st.data())
    @settings(max_examples=300)
    def test_agrees_with_every_body_order(self, data):
        # against a reference that tries each order of the second body
        # literal by literal, with constants and nested terms
        terms = st.recursive(
            st.sampled_from([Var("A"), Var("B"), Var("C"), Var("D"), Const("a")]),
            lambda inner: st.builds(lambda x: Compound("f", (x,)), inner),
            max_leaves=2,
        )
        atoms = st.builds(
            lambda p, x, y: Atom(p, (x, y)), st.sampled_from(["q", "q", "r"]), terms, terms
        )
        head = Atom("h", (Var("A"),))
        c1 = Clause(head, tuple(data.draw(st.lists(atoms, max_size=5))))
        # c2: c1 renamed, reordered and perhaps with one literal redrawn
        body = list(c1.body)
        if body and data.draw(st.booleans()):
            body[data.draw(st.integers(0, len(body) - 1))] = data.draw(atoms)
        body = data.draw(st.permutations(body))
        rename = dict(zip(
            [Var(n) for n in "ABCD"], data.draw(st.permutations([Var(n) for n in "WXYZ"]))
        ))
        c2 = rename_clause(Clause(head, tuple(body)), rename)

        def reference(c1, c2):
            return len(c1.body) == len(c2.body) and any(
                all(
                    reference_match_atoms(a, b, fwd, bwd, [])
                    for a, b in zip((c1.head,) + c1.body, (c2.head,) + order)
                )
                for order in itertools.permutations(c2.body)
                for fwd, bwd in [({}, {})]
            )

        assert variant_equal(c1, c2) == reference(c1, c2)

    def test_variant_key_matches_variant_equal(self):
        b1 = cl("h(X) :- q(X,Y), r(Y,X).").body
        b2 = cl("h(A) :- r(B,A), q(A,B).").body
        assert variant_key(b1) == variant_key(b2)
        b3 = cl("h(X) :- q(Y,X), r(Y,X).").body
        assert variant_key(b1) != variant_key(b3)


ATOM_NAMES = ["q", "r", "a", "b"]


def random_clause(draw):
    n_vars = draw(st.integers(1, 4))
    variables = [Var(f"V{i}") for i in range(n_vars)]
    n_body = draw(st.integers(0, 4))
    body = []
    for _ in range(n_body):
        pred = draw(st.sampled_from(ATOM_NAMES))
        args = tuple(draw(st.sampled_from(variables)) for _ in range(2))
        body.append(Atom(pred, args))
    head_args = tuple(draw(st.sampled_from(variables)) for _ in range(2))
    return Clause(Atom("h", head_args), tuple(body))


clause_strategy = st.builds(lambda d: d, st.data()).map(lambda d: None)


@st.composite
def clauses(draw):
    return random_clause(draw)


class TestVariantProperties:
    @given(clauses())
    @settings(max_examples=100)
    def test_reflexive(self, c):
        assert variant_equal(c, c)

    @given(clauses(), clauses())
    @settings(max_examples=100)
    def test_symmetric(self, c1, c2):
        assert variant_equal(c1, c2) == variant_equal(c2, c1)

    @given(clauses())
    @settings(max_examples=100)
    def test_invariant_under_renaming(self, c):
        mapping = {Var(f"V{i}"): Var(f"W{i + 7}") for i in range(5)}
        assert variant_equal(c, rename_clause(c, mapping))


class TestConnectedPowerSet:
    def test_chain_of_three(self):
        # a(X,Y), b(Y,Z), c(Z): only {a, c} is not connected
        c = cl("h(X,Y) :- a(X,Y), b(Y,Z), c(Z).")
        subsets = connected_index_subsets(c.body, 1, 3)
        assert len(subsets) == 6

    def test_single_literal_body(self):
        assert len(connected_index_subsets(cl("h(X) :- p(X).").body, 1, 1)) == 1

    def test_pairwise_disjoint_literals(self):
        c = cl("h(X) :- p(X), p(Y), p(Z).")
        # brute-force oracle: only the three singletons are connected
        subsets = connected_index_subsets(c.body, 1, 3)
        assert len(subsets) == 3
        assert all(len(s) == 1 for s in subsets)

    def test_every_subset_connected_with_fresh_head(self):
        from refold.candidates import make_candidate_clause
        from tests.test_kernels import reference_connected

        c = cl("h(X,Y) :- a(X,Y), b(Y,Z), r(Z,W).")
        for idxs in connected_index_subsets(c.body, 1, 3):
            wrapped = make_candidate_clause(tuple(c.body[i] for i in idxs), "fresh")
            assert reference_connected([wrapped.head, *wrapped.body])

    def test_upper_bound(self):
        c = cl("h(X,Y) :- a(X,Y), b(Y,Z), r(Z,Y).")
        assert len(connected_index_subsets(c.body, 1, 3)) <= 2 ** 3 - 1

    def test_long_chain_ends_within_seconds(self):
        # testing each of the 5.6e8 3-subsets of a 1 500-literal chain for
        # connectivity would stall; a child process, so that a stall fails
        # the test instead of hanging it
        main = (
            "from refold.logic import Atom, Var, connected_index_subsets\n"
            "body = tuple(Atom('p', (Var(f'V{k}'), Var(f'V{k + 1}'))) for k in range(1500))\n"
            "subsets = connected_index_subsets(body, 2, 3)\n"
            "assert subsets[0] == (0, 1) and subsets[-1] == (1497, 1498, 1499)\n"
            "print(len(subsets))"
        )
        done = subprocess.run(
            [sys.executable, "-c", main], capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["2997"]
