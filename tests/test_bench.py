"""Tests of the synthesis benchmark: the two domains, the generators,
flattening, the interpreter's prefix-tree walk against running each
operation on its own, and the synthesizer against `reference_synthesize`,
a copy of the synthesizer that ran every operation on every example
through `Interpreter.apply`."""

import random
import time
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from refold import bench
from refold.bench import (
    LEGO_TESTS,
    LEGO_TRANSFORMS,
    STRING_TESTS,
    STRING_TRANSFORMS,
    ExecutionError,
    Interpreter,
    LegoWorld,
    StringState,
    SynthesisLimits,
    SynthesisTask,
    accumulate_background,
    blank_board,
    flatten_definitions,
    gen_lego_tasks,
    gen_string_tasks,
    gen_tower_tasks,
    lego_primitives,
    run_benchmark,
    string_primitives,
    synthesize,
)
from refold.logic import (
    Atom,
    Clause,
    Program,
    Var,
    parse_program,
    render_program,
    variant_equal,
)
from refold.pipeline import RefactorConfig, refactor
from refold.solver import SolverBudget

from tests.oracles import benchmark_oracle

# criterion 6's synthesis limits, with a wall time no run here comes near,
# so that node counts do not depend on the machine's speed
LIMITS = SynthesisLimits(max_depth=14, max_nodes=50_000, wall_time=120.0)

_ORACLE = benchmark_oracle()


def reference_synthesize(task: SynthesisTask, bk: Program, limits: SynthesisLimits):
    """The synthesizer as it was before the prefix-tree walk: every
    operation runs on its own, example by example, through `apply`."""
    interp = Interpreter(bk, task.kind)
    reached, viable = bench._DOMAINS[task.kind].reached, bench._DOMAINS[task.kind].viable
    vocab = interp.vocabulary
    starts = [inp for inp, _ in task.examples]
    goals = [out for _, out in task.examples]
    deadline = time.monotonic() + limits.wall_time
    nodes = 0

    if all(reached(s, g) for s, g in zip(starts, goals)):
        return bench._sequence_to_program(task, [], bk), nodes

    for depth in range(1, limits.max_depth + 1):
        path: list = []
        seen: dict = {tuple(starts): 0}

        def dfs(states) -> Optional[list]:
            nonlocal nodes
            if len(path) == depth:
                return None
            for op in vocab:
                if nodes >= limits.max_nodes or time.monotonic() > deadline:
                    return None
                nxt = []
                ok = True
                for s, g in zip(states, goals):
                    s2 = interp.apply(op, s)
                    if s2 is None or not viable(s2, g):
                        ok = False
                        break
                    nxt.append(s2)
                if not ok:
                    continue
                key = tuple(nxt)
                prev = seen.get(key)
                if prev is not None and prev <= len(path) + 1:
                    continue
                seen[key] = len(path) + 1
                nodes += 1
                path.append(op)
                if all(reached(s, g) for s, g in zip(nxt, goals)):
                    return list(path)
                found = dfs(nxt)
                if found is not None:
                    return found
                path.pop()
            return None

        solution = dfs(starts)
        if solution is not None:
            return bench._sequence_to_program(task, solution, bk), nodes
        if nodes >= limits.max_nodes or time.monotonic() > deadline:
            break
    return None, nodes


@pytest.fixture(scope="module")
def lego_bk():
    """Criterion 6's knowledge base: 50 lego tasks accumulated."""
    bk, _ = accumulate_background(gen_lego_tasks(4, 50, seed=1, max_height=2), lego_primitives(), LIMITS)
    return bk


@pytest.fixture(scope="module")
def tower_targets():
    """Criterion 6's 50 synthesis targets."""
    return gen_tower_tasks(4, 50, seed=2)


class TestLegoSemantics:
    def test_place_brick(self):
        s = LEGO_TRANSFORMS["place_brick"](LegoWorld((0, 0), 0))
        assert s == LegoWorld((1, 0), 0)

    def test_right_blocked_at_edge(self):
        assert LEGO_TRANSFORMS["right"](LegoWorld((0, 0), 1)) is None
        assert LEGO_TESTS["at_right"](LegoWorld((0, 0), 1))

    def test_left_blocked_at_edge(self):
        assert LEGO_TRANSFORMS["left"](LegoWorld((0, 0), 0)) is None

    def test_left_then_right_identity(self):
        s = LegoWorld((0, 0, 0), 1)
        assert LEGO_TRANSFORMS["right"](LEGO_TRANSFORMS["left"](s)) == s

    def test_fluents(self):
        s = LegoWorld((0, 0, 0), 1)
        assert LEGO_TESTS["not_at_left"](s) and LEGO_TESTS["not_at_right"](s)
        assert not LEGO_TESTS["at_left"](s)

    def test_cursor_invariant(self):
        with pytest.raises(ValueError):
            LegoWorld((0, 0), 2)


class TestStringSemantics:
    def test_copy(self):
        s = STRING_TRANSFORMS["copy"](StringState("Ab"))
        assert (s.out, s.pos) == ("A", 1)

    def test_mk_uppercase(self):
        s = STRING_TRANSFORMS["mk_uppercase"](StringState("ab"))
        assert s.out == "A"

    def test_mk_lowercase(self):
        s = STRING_TRANSFORMS["mk_lowercase"](StringState("AB"))
        assert s.out == "a"

    def test_skip_consumes_silently(self):
        s = STRING_TRANSFORMS["skip"](StringState("ab"))
        assert (s.out, s.pos) == ("", 1)

    def test_write_emits_filler_without_consuming(self):
        s = STRING_TRANSFORMS["write"](StringState("ab"))
        assert (s.out, s.pos) == (".", 0)

    def test_end_of_input_blocks_consumers(self):
        done = StringState("a", pos=1)
        assert STRING_TRANSFORMS["copy"](done) is None

    def test_tests(self):
        assert STRING_TESTS["is_number"](StringState("7"))
        assert not STRING_TESTS["is_number"](StringState("x"))
        assert STRING_TESTS["is_uppercase"](StringState("X"))
        assert STRING_TESTS["is_space"](StringState(" "))
        assert STRING_TESTS["is_letter"](StringState("q"))


class TestGenerators:
    def test_width_two_low_boards(self):
        tasks = gen_lego_tasks(2, 30, seed=0, max_height=1)
        allowed = {(0, 0), (0, 1), (1, 0), (1, 1)}
        for t in tasks:
            inp, out = t.examples[0]
            assert inp == blank_board(2)
            assert out.heights in allowed

    def test_blank_input_any_width(self):
        t = gen_lego_tasks(6, 1, seed=3)[0]
        assert t.examples[0][0].heights == (0,) * 6

    def test_deterministic(self):
        assert gen_lego_tasks(4, 20, seed=9) == gen_lego_tasks(4, 20, seed=9)
        assert gen_string_tasks(20, seed=9) == gen_string_tasks(20, seed=9)
        assert gen_tower_tasks(4, 20, seed=9) == gen_tower_tasks(4, 20, seed=9)

    def test_tower_shapes(self):
        for t in gen_tower_tasks(4, 40, seed=5, height=3):
            hs = t.examples[0][1].heights
            assert set(hs) <= {0, 3}
            assert 0 in hs and sum(hs) >= 3

    def test_string_tasks_have_two_examples(self):
        for t in gen_string_tasks(10, seed=1):
            assert len(t.examples) == 2

    def test_task_validation(self):
        with pytest.raises(ValueError):
            SynthesisTask("t", (), "lego")
        with pytest.raises(ValueError):
            SynthesisTask("t", ((blank_board(2), blank_board(2)),), "bogus")


class TestFlattening:
    def test_defined_predicates_flatten_to_primitives(self):
        prog = parse_program(
            "#primitive place_brick/2.\n#primitive right/2.\n"
            "#task pr/2.\n#task prp/2.\n"
            "pr(A,B) :- place_brick(A,C), right(C,B).\n"
            "prp(A,B) :- pr(A,C), place_brick(C,B)."
        )
        flat = flatten_definitions(prog)
        assert flat["pr"] == ("place_brick", "right")
        assert flat["prp"] == ("place_brick", "right", "place_brick")

    def test_recursion_rejected(self):
        prog = parse_program(
            "#primitive right/2.\n#support loop/2.\n#task t/2.\n"
            "loop(A,B) :- right(A,C), loop(C,B).\n"
            "t(A,B) :- loop(A,B)."
        )
        with pytest.raises(ExecutionError):
            flatten_definitions(prog)

    def test_deep_definition_chain_flattens_without_recursion(self):
        # d<k> runs d<k-1>, then places a brick; the callers come first,
        # so a recursive flattener would go 3 000 calls deep
        bk = lego_primitives()
        a, b, c = Var("A"), Var("B"), Var("C")
        chain = [Clause(Atom("d0", (a, b)), (Atom("place_brick", (a, b)),))]
        chain += [
            Clause(Atom(f"d{k}", (a, b)), (Atom(f"d{k - 1}", (a, c)), Atom("place_brick", (c, b))))
            for k in range(1, 3000)
        ]
        prog = Program(tuple(reversed(chain)), bk.registry)
        assert flatten_definitions(prog)["d2999"] == ("place_brick",) * 3000
        assert Interpreter(prog, "lego").apply("d2999", blank_board(1)) == LegoWorld((3000,), 0)

    def test_call_without_definition_rejected(self):
        prog = parse_program(
            "#primitive right/2.\n#support s/2.\n#task t/2.\nt(A,B) :- right(A,C), s(C,B)."
        )
        with pytest.raises(ExecutionError, match="no definition for s"):
            flatten_definitions(prog)

    def test_interpreter_runs_defined_ops(self):
        prog = parse_program(
            "#primitive place_brick/2.\n#primitive right/2.\n#task pr/2.\n"
            "pr(A,B) :- place_brick(A,C), right(C,B)."
        )
        interp = Interpreter(prog, "lego")
        out = interp.apply("pr", blank_board(2))
        assert out == LegoWorld((1, 0), 1)

    def test_interpreter_runs_tests_in_defined_ops(self):
        # a test primitive passes its state on, or blocks the call
        prog = parse_program(
            "#primitive right/2.\n#primitive at_left/1.\n#task edge_right/2.\n"
            "edge_right(A,B) :- at_left(A), right(A,B)."
        )
        interp = Interpreter(prog, "lego")
        assert interp.apply("edge_right", blank_board(3)) == LegoWorld((0, 0, 0), 1)
        assert interp.apply("edge_right", LegoWorld((0, 0, 0), 1)) is None

    def test_bodies_run_in_chain_order_however_written(self):
        prog = parse_program(
            "#primitive place_brick/2.\n#primitive right/2.\n#primitive at_left/1.\n"
            "#task t/2.\n"
            "t(A,D) :- right(C,D), at_left(A), place_brick(B,C), right(A,B)."
        )
        assert flatten_definitions(prog)["t"] == ("at_left", "right", "place_brick", "right")

    def test_body_that_does_not_chain_rejected(self):
        prog = parse_program(
            "#primitive place_brick/2.\n#primitive right/2.\n#task t/2.\n"
            "t(A,B) :- place_brick(A,C), right(D,B)."
        )
        with pytest.raises(ExecutionError, match="the body of t does not chain"):
            flatten_definitions(prog)

    @pytest.mark.parametrize(
        "body, why",
        [
            # the oracle tests A's board; a flat sequence would test B's
            ("t(A,B) :- right(A,B), at_left(A).", "moved past"),
            # the oracle runs left on A's board; a flat sequence after right
            ("t(A,C) :- right(A,B), left(A,C).", "moved past"),
            # the oracle requires left to give A's board back
            ("t(A,B) :- right(A,B), left(B,A).", "binds a variable twice"),
            # the oracle answers with C's board, before the last right
            ("t(A,C) :- right(A,B), left(B,C), right(C,D).", "does not end"),
        ],
        ids=["stale-test", "branch", "rebind", "past-the-head"],
    )
    def test_body_the_oracle_runs_otherwise_rejected(self, body, why):
        prog = parse_program(
            "#primitive left/2.\n#primitive right/2.\n#primitive at_left/1.\n"
            f"#task t/2.\n{body}"
        )
        with pytest.raises(ExecutionError, match=f"the body of t .*{why}"):
            flatten_definitions(prog)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_flattened_body_runs_as_the_oracle_runs_it(self, data):
        # a body that threads its states through its literals, sometimes
        # off an earlier state or into a bound variable, sometimes written
        # shuffled; flattening either rejects it or runs it as
        # perfbench/oracle.py's lego_run does, and takes every chain
        # written in order
        names = sorted(LEGO_TRANSFORMS) + sorted(LEGO_TESTS)
        bound, lits, chain = ["A"], [], True
        for n in range(data.draw(st.integers(0, 5))):
            src = data.draw(st.sampled_from([bound[-1]] * 3 + bound))
            chain &= src == bound[-1]
            name = data.draw(st.sampled_from(names))
            if name in LEGO_TESTS:
                lits.append(f"{name}({src})")
                continue
            out = data.draw(st.sampled_from([f"V{n}"] * 4 + bound))
            chain &= out not in bound
            lits.append(f"{name}({src},{out})")
            if out not in bound:
                bound.append(out)
        last = data.draw(st.sampled_from([bound[-1]] * 3 + bound))
        chain &= last == bound[-1]
        # shuffled, a test can move to after a step off its own state
        if data.draw(st.booleans()):
            lits, chain = data.draw(st.permutations(lits)), False
        bk = parse_program(
            "".join(f"#primitive {p}/2.\n" for p in LEGO_TRANSFORMS)
            + "".join(f"#primitive {p}/1.\n" for p in LEGO_TESTS)
            + f"#task t/2.\nt(A,{last})" + (f" :- {', '.join(lits)}." if lits else ".")
        )
        try:
            interp = Interpreter(bk, "lego")
        except ExecutionError:
            assert not chain
            return
        solution = parse_program("#task t/2.\n#task s/2.\ns(A,B) :- t(A,B).")
        for state in data.draw(st.lists(_lego_states(), min_size=1, max_size=3)):
            out = interp.apply("t", state)
            want = _ORACLE.lego_run(solution, bk, state.heights, state.cursor)
            assert (None if out is None else (out.heights, out.cursor)) == want

    def test_shuffled_bodies_flatten_and_search_as_in_order(self, lego_bk, tower_targets):
        rng = random.Random(0)
        clauses = []
        for c in lego_bk.clauses:
            body = list(c.body)
            rng.shuffle(body)
            clauses.append(Clause(c.head, tuple(body)))
        shuffled = Program(tuple(clauses), lego_bk.registry)
        moved = sum(a.body != b.body for a, b in zip(shuffled.clauses, lego_bk.clauses))
        assert moved >= 40
        assert flatten_definitions(shuffled) == flatten_definitions(lego_bk)
        nodes = [synthesize(t, lego_bk, LIMITS)[1] for t in tower_targets]
        assert [synthesize(t, shuffled, LIMITS)[1] for t in tower_targets] == nodes


class TestSynthesize:
    LIMITS = SynthesisLimits(max_depth=8, max_nodes=50_000, wall_time=10.0)

    def test_identity_task_solved_without_ops(self):
        task = SynthesisTask("noop", ((blank_board(2), blank_board(2)),), "lego")
        solution, nodes = synthesize(task, lego_primitives(), self.LIMITS)
        assert solution is not None
        assert solution.clauses[0].body == ()
        assert nodes == 0

    def test_single_primitive_string_task(self):
        examples = (
            (StringState("A"), StringState("A", 0, "A")),
            (StringState("z"), StringState("z", 0, "z")),
        )
        task = SynthesisTask("one_copy", examples, "string")
        solution, _ = synthesize(task, string_primitives(), self.LIMITS)
        assert solution is not None
        assert [l.pred for l in solution.clauses[0].body] == ["copy"]

    def test_two_column_build(self):
        task = SynthesisTask(
            "both", ((blank_board(2), LegoWorld((1, 1), 0)),), "lego"
        )
        solution, nodes = synthesize(task, lego_primitives(), self.LIMITS)
        assert solution is not None
        assert len(solution.clauses[0].body) == 3
        assert nodes > 3  # enumeration visits dead branches too

    def test_macro_reduces_nodes(self):
        bk_plain = lego_primitives()
        bk_macro = parse_program(
            "#primitive left/2.\n#primitive right/2.\n#primitive place_brick/2.\n"
            "#task pr/2.\n"
            "pr(A,B) :- place_brick(A,C), right(C,B)."
        )
        task = SynthesisTask(
            "stairs", ((blank_board(3), LegoWorld((1, 1, 1), 2)),), "lego"
        )
        s1, n1 = synthesize(task, bk_plain, self.LIMITS)
        s2, n2 = synthesize(task, bk_macro, self.LIMITS)
        assert s1 is not None and s2 is not None
        assert n2 < n1

    def test_solution_soundness(self):
        tasks = gen_lego_tasks(3, 10, seed=4, max_height=2)
        bk = lego_primitives()
        for task in tasks:
            solution, _ = synthesize(task, bk, self.LIMITS)
            assert solution is not None
            interp = Interpreter(bk, "lego")
            ops = [l.pred for l in solution.clauses[0].body]
            for inp, out in task.examples:
                final = inp
                for op in ops:
                    final = interp.apply(op, final)
                    assert final is not None
                assert final.heights == out.heights

    def test_wide_defined_calls_round_trip(self):
        # a defined predicate of arity 3 is called with all three arguments,
        # so the rendered solution parses back without an arity clash
        bk = parse_program(
            "#primitive place_brick/2.\n#primitive right/2.\n#support step/3.\n"
            "step(A,B,C) :- place_brick(A,B), right(B,C)."
        )
        task = SynthesisTask(
            "two_steps", ((blank_board(3), LegoWorld((1, 1, 0), 2)),), "lego"
        )
        solution, _ = synthesize(task, bk, self.LIMITS)
        body = solution.clauses[0].body
        assert [l.pred for l in body] == ["step", "step"]
        assert [l.arity for l in body] == [3, 3]
        # the state threads from the head's first argument to its last
        assert body[0].args[0] == solution.clauses[0].head.args[0]
        assert body[0].args[-1] == body[1].args[0]
        assert body[1].args[-1] == solution.clauses[0].head.args[-1]
        again = parse_program(render_program(solution))
        assert variant_equal(again.clauses[0], solution.clauses[0])

    def test_deterministic_node_counts(self):
        task = gen_lego_tasks(3, 1, seed=8, max_height=2)[0]
        _, n1 = synthesize(task, lego_primitives(), self.LIMITS)
        _, n2 = synthesize(task, lego_primitives(), self.LIMITS)
        assert n1 == n2

    @pytest.mark.parametrize(
        "limits",
        [
            {"max_depth": -1},
            {"max_nodes": 0},
            {"max_nodes": -5},
            {"wall_time": float("nan")},
            {"wall_time": float("inf")},
            {"wall_time": 0.0},
            {"wall_time": -1.0},
        ],
    )
    def test_out_of_range_limits_rejected(self, limits):
        with pytest.raises(ValueError):
            SynthesisLimits(**limits)

    def test_unsolvable_within_limits(self):
        tight = SynthesisLimits(max_depth=1, max_nodes=100, wall_time=5.0)
        task = SynthesisTask(
            "deep", ((blank_board(2), LegoWorld((2, 2), 0)),), "lego"
        )
        solution, nodes = synthesize(task, lego_primitives(), tight)
        assert solution is None
        assert nodes >= 0


class TestAccumulation:
    def test_bk_grows_with_primitive_only_bodies(self):
        tasks = gen_lego_tasks(3, 8, seed=2, max_height=1)
        limits = SynthesisLimits(max_depth=8, max_nodes=50_000, wall_time=10.0)
        bk, solved = accumulate_background(tasks, lego_primitives(), limits)
        assert solved
        assert len(bk.clauses) == len(solved)
        for c in bk.clauses:
            assert bk.registry.role(c.head.pred) == "task"
            for lit in c.body:
                assert bk.registry.role(lit.pred) == "primitive"

    def test_later_tasks_can_reuse_earlier_solutions(self):
        tasks = gen_lego_tasks(3, 8, seed=2, max_height=1)
        limits = SynthesisLimits(max_depth=8, max_nodes=50_000, wall_time=10.0)
        bk, solved = accumulate_background(tasks, lego_primitives(), limits)
        interp = Interpreter(bk, "lego")
        assert set(solved) <= set(interp.vocabulary)


class TestRunBenchmark:
    def test_empty_tasks(self):
        result = run_benchmark([("only", lego_primitives())], [], SynthesisLimits())
        assert result.rows == []
        assert result.aggregates() == {}
        assert "only" in result.bk_stats

    def test_requires_conditions(self):
        with pytest.raises(ValueError):
            run_benchmark([], [], SynthesisLimits())

    def test_aggregates_recompute_from_rows(self):
        tasks = gen_lego_tasks(2, 5, seed=6, max_height=1)
        limits = SynthesisLimits(max_depth=6, max_nodes=10_000, wall_time=5.0)
        result = run_benchmark([("a", lego_primitives())], tasks, limits)
        agg = result.aggregates()["a"]
        assert agg["tasks"] == 5
        assert agg["nodes"] == sum(r["nodes"] for r in result.rows)
        assert agg["solved"] == sum(int(r["solved"]) for r in result.rows)
        text = result.render()
        assert "bk[a]:" in text


# ---------------------------------------------------------------------------
# The prefix-tree walk


@st.composite
def _shared_vocabularies(draw, kind: str) -> Program:
    """A knowledge base whose definitions share prefixes, repeat each
    other, are prefixes of one another or call an earlier one and go on,
    with tests inside the bodies."""
    domain = bench._DOMAINS[kind]
    steps = st.sampled_from(sorted(domain.transforms) + sorted(domain.tests))
    lines = [f"#primitive {p}/2." for p in domain.transforms]
    lines += [f"#primitive {p}/1." for p in domain.tests]
    flat: list = []  # each definition's primitive steps
    for k in range(draw(st.integers(1, 7))):
        how = draw(st.sampled_from(("fresh", "prefix", "repeat", "extend"))) if flat else "fresh"
        j = draw(st.integers(0, len(flat) - 1)) if flat else 0
        if how == "fresh":
            body = draw(st.lists(steps, min_size=1, max_size=5))
        elif how == "prefix":
            body = flat[j][: draw(st.integers(1, len(flat[j])))]
        elif how == "repeat":
            body = list(flat[j])
        else:
            body = [f"d{j}"] + draw(st.lists(steps, min_size=1, max_size=3))
        flat.append([op for name in body for op in (flat[j] if name == f"d{j}" else [name])])
        lits, state = [], "A"
        for n, name in enumerate(body):
            if name in domain.tests:
                lits.append(f"{name}({state})")
            else:
                lits.append(f"{name}({state},V{n})")
                state = f"V{n}"
        lines.append(f"#task d{k}/2.")
        lines.append(f"d{k}(A,{state}) :- {', '.join(lits)}.")
    return parse_program("\n".join(lines))


def _lego_states():
    def board(width):
        heights = st.tuples(*[st.integers(0, 2)] * width)
        cursor = st.sampled_from(sorted({0, width - 1})) | st.integers(0, width - 1)
        return st.builds(LegoWorld, heights, cursor)

    return st.integers(1, 4).flatmap(board)


def _string_states():
    def reading(text):
        pos = st.sampled_from(sorted({0, len(text)})) | st.integers(0, len(text))
        return st.builds(StringState, st.just(text), pos, st.text("aZ.", max_size=2))

    return st.text("aZb 7", max_size=4).flatmap(reading)


_STATES = {"lego": _lego_states(), "string": _string_states()}


class TestPrefixTree:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(("lego", "string")))
    def test_successors_equal_each_op_applied(self, data, kind):
        interp = Interpreter(data.draw(_shared_vocabularies(kind)), kind)
        for state in data.draw(st.lists(_STATES[kind], min_size=1, max_size=3)):
            expected = [interp.apply(op, state) for op in interp.vocabulary]
            assert interp.successors(state) == expected
            # one op at a time, in a drawn order, each read running on
            # from the nodes the reads before it ran
            known = {0: state}
            order = data.draw(st.permutations(range(len(expected))))
            assert [interp.successor(k, known) for k in order] == [expected[k] for k in order]

    def _counting(self, monkeypatch) -> list:
        """Counts the lego transforms an interpreter built after this runs."""
        calls = []
        for name, fn in list(LEGO_TRANSFORMS.items()):
            def counted(s, name=name, fn=fn):
                calls.append(name)
                return fn(s)

            monkeypatch.setitem(LEGO_TRANSFORMS, name, counted)
        return calls

    BK = (
        "#primitive left/2.\n#primitive right/2.\n#primitive place_brick/2.\n"
        "#task pr/2.\n#task prp/2.\n#task pl/2.\n"
        "pr(A,C) :- place_brick(A,B), right(B,C).\n"
        "prp(A,D) :- place_brick(A,B), right(B,C), place_brick(C,D).\n"
        "pl(A,C) :- place_brick(A,B), left(B,C)."
    )

    def test_shared_steps_run_once(self, monkeypatch):
        calls = self._counting(monkeypatch)
        interp = Interpreter(parse_program(self.BK), "lego")
        state = LegoWorld((0, 0), 0)
        out = interp.successors(state)
        # the tree's 6 nodes: left, place_brick and right at the root,
        # where the primitive place_brick ends; left and right after that
        # place_brick; place_brick after that right. Run on their own, the
        # six ops take 10 steps
        assert len(calls) == 6
        calls.clear()
        assert out == [interp.apply(op, state) for op in interp.vocabulary]
        assert len(calls) == 10

    def test_failed_step_cuts_every_op_that_extends_it(self, monkeypatch):
        calls = self._counting(monkeypatch)
        interp = Interpreter(parse_program(self.BK), "lego")
        calls.clear()
        out = interp.successors(blank_board(1))
        # right fails after place_brick, so prp's second place_brick
        # never runs; left fails there and at the root
        assert sorted(calls) == ["left", "left", "place_brick", "right", "right"]
        assert dict(zip(interp.vocabulary, out)) == {
            "prp": None, "pr": None, "pl": None,
            "left": None, "place_brick": LegoWorld((1,), 0), "right": None,
        }


def _outcome(result) -> tuple:
    solution, nodes = result
    return (render_program(solution) if solution is not None else None, nodes)


class TestSynthesisAgainstReference:
    """`synthesize` returns what `reference_synthesize` returns: the same
    rendered solution and the same node count."""

    def assert_same(self, tasks, bk, limits=LIMITS):
        for task in tasks:
            want = _outcome(reference_synthesize(task, bk, limits))
            assert _outcome(synthesize(task, bk, limits)) == want, task.name

    def test_tower_targets_with_the_original_bk(self, lego_bk, tower_targets):
        self.assert_same(tower_targets, lego_bk)

    def test_tower_targets_with_a_refactored_bk(self, lego_bk, tower_targets):
        # a decision cap instead of a wall-clock limit makes the
        # refactored knowledge base the same on any machine
        cfg = RefactorConfig(
            max_levels=2, folding_cap=20, red_group_cap=300,
            budget=SolverBudget(wall_time=600.0, max_decisions=2_000),
        )
        refactored, _ = refactor(lego_bk, cfg)
        assert refactored.size < lego_bk.size
        self.assert_same(tower_targets, refactored)

    def test_two_example_string_tasks(self):
        bk, solved = accumulate_background(
            gen_string_tasks(50, seed=0, prefix="bg"), string_primitives(), LIMITS
        )
        assert len(solved) == 50
        targets = gen_string_tasks(50, seed=1, prefix="tg")
        self.assert_same(targets, bk)
        self.assert_same(targets[:10], string_primitives())

    def test_run_cut_short_by_max_nodes(self, lego_bk, tower_targets):
        # the first target takes 10 nodes
        tight = SynthesisLimits(max_depth=14, max_nodes=6, wall_time=120.0)
        task = tower_targets[0]
        assert synthesize(task, lego_bk, tight) == (None, 6)
        self.assert_same([task], lego_bk, tight)
