import pytest

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
