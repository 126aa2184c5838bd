import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refold
from refold import cli, copmodel
from refold.logic import parse_program, render_program, variant_equal
from refold.pipeline import (
    RefactorConfig,
    hypothesis_space_size,
    refactor,
    remove_redundancy_baseline,
)
from refold.solver import SolverBudget
from refold.transform import syntactic_equiv

from tests.conftest import random_program
from tests.oracles import benchmark_workloads
from tests.test_copmodel import chain_program

# three towers sharing the vertical 3-stack make inventing it pay off
PILLAR_WALL_POST = (
    "#primitive place/4.\n#primitive right/2.\n#primitive left/2.\n"
    "#task pillar/4.\n#task wall/3.\n#task post/3.\n"
    "pillar(X,Y,E,E5) :- place(hor,X,E,E1), right(X,Z), place(b,Z,E1,E2), "
    "place(b,Z,E2,E3), place(b,Z,E3,E4), left(Z,Y), place(hor,X,E4,E5).\n"
    "wall(X,E,E3) :- place(b,X,E,E1), place(b,X,E1,E2), place(b,X,E2,E3).\n"
    "post(X,E,E4) :- place(b,X,E,E1), place(b,X,E1,E2), place(b,X,E2,E3), "
    "place(hor,X,E3,E4)."
)

# two primitive facts, then four copies of a 3-chain worth folding
FACTS_AND_CHAINS = "#primitive e/2.\ne(a,b).\ne(b,c).\n" + "".join(
    f"#task t{k}/2.\nt{k}(A,D) :- e(A,B), e(B,C), e(C,D).\n" for k in range(4)
)


# two tasks sharing a 7-literal chain of distinct predicates, each with
# one more literal: one invented 7-literal predicate saves the most
SHARED_SEVEN = "".join(f"#primitive {p}/2.\n" for p in "abcdefg") + (
    "#primitive u/1.\n#primitive v/1.\n#task s/2.\n#task t/2.\n"
    "s(X,Y) :- a(X,V1), b(V1,V2), c(V2,V3), d(V3,V4), e(V4,V5), f(V5,V6), g(V6,Y), u(X).\n"
    "t(X,Y) :- a(X,V1), b(V1,V2), c(V2,V3), d(V3,V4), e(V4,V5), f(V5,V6), g(V6,Y), v(Y).\n"
)


class TestConfig:
    @pytest.mark.parametrize(
        "name, value",
        [("max_levels", -1), ("folding_cap", 0), ("red_group_cap", -1)],
    )
    def test_out_of_range_setting_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            RefactorConfig(**{name: value})

    @pytest.mark.parametrize("window", [(0, 3), (3, 2), (2, 1)])
    def test_body_window_needs_one_to_max(self, window):
        with pytest.raises(ValueError, match="max_body"):
            RefactorConfig(min_body=window[0], max_body=window[1])


class TestRefactor:
    def test_shared_chain_shrinks(self):
        prog = chain_program(5)
        out, report = refactor(prog, RefactorConfig(budget=SolverBudget(wall_time=10)))
        assert syntactic_equiv(prog, out)
        assert out.size < prog.size
        assert report.equivalence_verified
        assert report.solver_status == "optimal"
        assert report.refactored_literals == out.size
        assert report.invented_predicates >= 1
        assert not report.no_gain_fallback

    def test_no_gain_returns_input(self):
        prog = parse_program("#primitive p/2.\n#task t/2.\nt(A,B) :- p(A,B).")
        out, report = refactor(prog)
        assert out is prog
        assert report.equivalence_verified
        assert report.refactored_literals == prog.size

    @pytest.mark.parametrize("cap", ["max_variables", "max_constraints"])
    def test_model_over_a_cap_returns_the_input(self, monkeypatch, tmp_path, cap):
        monkeypatch.setattr(copmodel, cap.upper(), 1)
        prog = chain_program(5)
        out, report = refactor(prog)
        assert out is prog
        assert report.no_gain_fallback
        assert report.stop_reason.startswith("model cap:") and "(cap 1)" in report.stop_reason
        assert report.refactored_literals == prog.size
        assert report.refactored_predicates == report.original_predicates == 8
        assert report.invented_predicates == 0
        assert report.hyp_log_size_after == report.hyp_log_size_before
        path = tmp_path / "kb.pl"
        path.write_text(render_program(prog))
        code = cli.main(["refactor", str(path), "-o", str(tmp_path / "out.pl")])
        assert code == cli.EXIT_NO_GAIN
        assert parse_program((tmp_path / "out.pl").read_text()).size == prog.size

    def test_primitive_clauses_are_kept(self):
        prog = parse_program(FACTS_AND_CHAINS)
        out, report = refactor(prog, RefactorConfig(budget=SolverBudget(wall_time=10)))
        assert out.size < prog.size and report.equivalence_verified
        assert [c for c in out.clauses if c.head.pred == "e"] == list(prog.clauses[:2])
        assert report.unfolded_literals == prog.size

    def test_empty_program(self):
        prog = parse_program("#primitive p/2.\n#task t/2.")
        out, report = refactor(prog)
        assert out is prog
        assert report.equivalence_verified
        assert not report.no_gain_fallback
        assert report.refactored_literals == report.refactored_predicates == 0

    def test_worked_example_compresses_on_repetition(
        self, pillar_program
    ):
        prog = parse_program(PILLAR_WALL_POST)
        out, report = refactor(prog, RefactorConfig(budget=SolverBudget(wall_time=20)))
        assert syntactic_equiv(prog, out)
        assert out.size < prog.size
        invented = set(out.registry.by_role("support")) - set(prog.registry.entries)
        assert invented

    def test_hypothesis_space_shrinks_with_shorter_bodies(self):
        # inventing the 3-stack adds a predicate but cuts the longest body
        # from 7 literals to 5, so the hypothesis space shrinks
        prog = parse_program(PILLAR_WALL_POST)
        out, report = refactor(prog, RefactorConfig(budget=SolverBudget(wall_time=20)))
        assert report.refactored_predicates > report.original_predicates
        assert report.hyp_log_size_after < report.hyp_log_size_before

    def test_shared_seven_literal_body_becomes_one_predicate(self):
        # variant forms have no length cap, so max_body may pass 6
        prog = parse_program(SHARED_SEVEN)
        out, report = refactor(
            prog, RefactorConfig(max_body=7, budget=SolverBudget(wall_time=20))
        )
        assert report.equivalence_verified and syntactic_equiv(prog, out)
        [invented] = set(out.registry.by_role("support")) - set(prog.registry.entries)
        [clause] = [c for c in out.clauses if c.head.pred == invented]
        assert len(clause.body) == 7
        assert out.size == prog.size - 4

    def test_report_counts_consistent(self):
        prog = chain_program(4)
        out, report = refactor(prog)
        assert report.original_literals == prog.size
        assert report.unfolded_literals == prog.size  # already primitive-only
        assert report.refactored_literals == out.size
        assert report.candidate_count > 0
        # bodies up to the measured program's longest one, 5 clauses
        assert report.hyp_log_size_before == pytest.approx(
            hypothesis_space_size(
                report.original_predicates, max(len(c.body) for c in prog.clauses), 5
            )
        )
        assert report.hyp_log_size_after == pytest.approx(
            hypothesis_space_size(
                report.refactored_predicates, max(len(c.body) for c in out.clauses), 5
            )
        )

    def test_records_and_text_render(self):
        prog = chain_program(3)
        _, report = refactor(prog)
        records = dict(report.to_records())
        assert records["original_literals"] == prog.size
        assert records["decisions"] == report.trace.decisions
        assert records["search_s"] == f"{report.trace.search_s:.4f}"
        text = report.to_text()
        assert "original_literals" in text and "solver_status" in text
        assert f"decisions: {report.trace.decisions}\nsearch_s: " in text


class TestBaseline:
    def test_equivalence_preserved(self):
        prog = chain_program(5)
        out = remove_redundancy_baseline(prog)
        assert syntactic_equiv(prog, out)
        assert out.size < prog.size

    def test_no_shared_structure_is_identity_sized(self):
        prog = parse_program(
            "#primitive p/2.\n#primitive q/2.\n#task t/2.\nt(A,B) :- p(A,B), q(B,A)."
        )
        out = remove_redundancy_baseline(prog)
        assert out.size == prog.size

    def test_primitive_clauses_are_kept(self):
        prog = parse_program(FACTS_AND_CHAINS)
        out = remove_redundancy_baseline(prog)
        assert syntactic_equiv(prog, out)
        assert out.size < prog.size
        assert [c for c in out.clauses if c.head.pred == "e"] == list(prog.clauses[:2])

    def test_optimal_refactoring_never_worse(self):
        for copies in (3, 4, 5, 6):
            prog = chain_program(copies)
            base = remove_redundancy_baseline(prog)
            opt, _ = refactor(prog, RefactorConfig(budget=SolverBudget(wall_time=10)))
            assert opt.size <= base.size


class TestHypothesisSpaceSize:
    def binomial_log(self, n: int, m: int) -> float:
        return math.log(math.comb(n, m))

    @pytest.mark.parametrize(
        "p,l,m", [(2, 2, 1), (3, 2, 4), (4, 3, 5), (10, 3, 5), (5, 1, 3)]
    )
    def test_matches_exact_binomial(self, p, l, m):
        assert hypothesis_space_size(p, l, m) == pytest.approx(
            self.binomial_log(p**l, m), rel=1e-12
        )

    def test_more_than_available_is_empty(self):
        assert hypothesis_space_size(2, 1, 3) == float("-inf")

    def test_invalid_arguments(self):
        for bad in [(0, 2, 2), (2, 0, 2), (2, 2, 0)]:
            with pytest.raises(ValueError):
                hypothesis_space_size(*bad)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(2, 12), l=st.integers(1, 4), m=st.integers(1, 8)
    )
    def test_monotone_in_predicate_count(self, p, l, m):
        lo = hypothesis_space_size(p, l, m)
        hi = hypothesis_space_size(p + 1, l, m)
        if lo != float("-inf"):
            assert hi >= lo


class TestDeterminism:
    def test_keys_and_output_do_not_depend_on_the_hash_seed(self):
        # string hashing, and with it the order of sets and of dicts built
        # from sets, changes with PYTHONHASHSEED; variant keys and the
        # refactored program must not
        main = (
            "from refold import RefactorConfig, SolverBudget, refactor, render_program\n"
            "from refold.logic import keyed_subsets\n"
            "from tests.conftest import dense_program\n"
            "prog = dense_program()\n"
            "for c in prog.clauses:\n"
            "    print(keyed_subsets(c.body, 1, 6))\n"
            "budget = SolverBudget(wall_time=60, max_decisions=2000)\n"
            "print(render_program(refactor(prog, RefactorConfig(budget=budget))[0]))\n"
        )
        outputs = set()
        for seed in range(4):
            done = subprocess.run(
                [sys.executable, "-c", main], capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                     "PYTHONHASHSEED": str(seed)},
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1


class TestSameInputWrittenAnotherWay:
    """Criterion 1's first 150 programs under random-batch's config, with a
    budget every solve meets: an isomorphic variant of a program, made by
    the benchmark's own generator, gets an output of the same size, and
    an output reads back and refactors to a program equivalent to the
    input."""

    CFG = RefactorConfig(max_levels=1, folding_cap=20, budget=SolverBudget(wall_time=5.0))

    @staticmethod
    def _programs():
        rng = random.Random(20260826)
        return [random_program(rng) for _ in range(150)]

    def test_isomorphic_variants_get_outputs_of_one_size(self):
        # variables renamed, clauses shuffled and predicates permuted
        # within role and arity; sizes are compared wherever every solve
        # proved its optimum
        workloads = benchmark_workloads()
        compared, differ = 0, []
        for k, program in enumerate(self._programs()):
            variants = [program] + [
                parse_program(workloads.variant_text(
                    refold, program, random.Random(1000 * k + v), permute=True))
                for v in (1, 2)
            ]
            results = [refactor(p, self.CFG) for p in variants]
            if all(report.solver_status == "optimal" for _, report in results):
                compared += 1
                sizes = [out.size for out, _ in results]
                if len(set(sizes)) > 1:
                    differ.append((k, sizes))
        assert not differ
        assert compared >= 140

    def test_output_reads_back_and_refactors_to_the_input(self):
        for program in self._programs():
            out, _ = refactor(program, self.CFG)
            back = parse_program(render_program(out))
            assert back.registry.entries == out.registry.entries
            assert len(back.clauses) == len(out.clauses)
            assert all(variant_equal(a, b) for a, b in zip(back.clauses, out.clauses))
            again, _ = refactor(out, self.CFG)
            assert syntactic_equiv(program, again)
