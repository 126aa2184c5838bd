"""End-to-end tests for the command-line interface: exit codes, file
outputs, and agreement between the refactor and verify subcommands."""

import os
import random
import subprocess
import sys

import pytest

from refold import cli, pipeline
from refold.logic import MAX_TERM_DEPTH, Program, parse_program, render_program
from refold.transform import syntactic_equiv

from tests.test_copmodel import chain_program

SHARED_KB = """\
#primitive right/2.
#primitive place_brick/2.
#task f1/2. #task f2/2. #task f3/2. #task f4/2.
f1(A,B) :- right(A,C), right(C,D), place_brick(D,B).
f2(A,B) :- right(A,C), right(C,D), place_brick(D,B).
f3(A,B) :- right(A,C), right(C,D), place_brick(D,B).
f4(A,B) :- right(A,C), right(C,D), place_brick(D,B).
"""

NO_GAIN_KB = """\
#primitive p/2.
#task t/2.
t(A,B) :- p(A,B).
"""

# s(Y,Y) unifies with s(f(X),X) only through the cyclic binding X = f(X)
CYCLIC_UNIFIER_KB = """\
#primitive p/1.
#task t/1.
s(f(X),X) :- p(X).
t(Y) :- s(Y,Y).
"""

# under --max-levels 0, only dropping the primitive facts would save literals
FACTS_KB = "#primitive e/2.\n#task t/2.\ne(a,b).\ne(b,c).\n" + (
    "t(A,D) :- e(A,B), e(B,C), e(C,D).\n" * 3
)


# three clauses that refactor into one invented predicate, inv_1_0/1 unless
# the input already uses that name
REPEATED_Q = "#task x/1.\n#task y/1.\n#task z/1.\n" + "".join(
    f"{h}(X) :- q(X), q(X), q(X), q(X).\n" for h in "xyz"
)


def _nested(depth: int) -> str:
    """f(f(...f(a)...)) with `depth` compound terms."""
    return "f(" * depth + "a" + ")" * depth


def _support_chain(length: int, wraps: int = 0) -> str:
    """t(X) calls s1, s1 calls s2, ..., s<length> calls the primitive p;
    each call wraps its argument in `wraps` compound terms."""
    arg = "f(" * wraps + "X" + ")" * wraps
    lines = ["#primitive p/1.", "#task t/1.", "t(X) :- s1(X).", f"s{length}(X) :- p({arg})."]
    lines += [f"s{k}(X) :- s{k + 1}({arg})." for k in range(1, length)]
    return "\n".join(lines) + "\n"


def _chain(length: int, swapped: int = -1, shuffled: bool = False, name: str = "X") -> str:
    """A task clause with a `length`-literal chain body over the variables
    <name>0, <name>1, ...; the literal at `swapped` has its two arguments
    swapped, and a `shuffled` body is in a fixed random order."""
    lits = [
        f"p({name}{k + 1},{name}{k})" if k == swapped else f"p({name}{k},{name}{k + 1})"
        for k in range(length)
    ]
    if shuffled:
        random.Random(0).shuffle(lits)
    return f"#primitive p/2.\n#task t/2.\nt({name}0,{name}{length}) :- {', '.join(lits)}.\n"


@pytest.fixture
def kb_path(tmp_path):
    path = tmp_path / "kb.pl"
    path.write_text(SHARED_KB)
    return path


class TestRefactorCommand:
    def test_writes_smaller_equivalent_program(self, tmp_path, kb_path):
        out = tmp_path / "out.pl"
        code = cli.main(
            ["refactor", str(kb_path), "-o", str(out), "--timeout-seconds", "5"]
        )
        assert code == cli.EXIT_OK
        original = parse_program(SHARED_KB)
        refactored = parse_program(out.read_text())
        assert refactored.size < original.size
        assert syntactic_equiv(original, refactored)

    def test_report_and_model_dump_files(self, tmp_path, kb_path):
        out = tmp_path / "out.pl"
        report = tmp_path / "report.txt"
        dump = tmp_path / "model.opb"
        code = cli.main(
            [
                "refactor",
                str(kb_path),
                "-o",
                str(out),
                "--report",
                str(report),
                "--model-dump",
                str(dump),
                "--timeout-seconds",
                "5",
            ]
        )
        assert code == cli.EXIT_OK
        text = report.read_text()
        assert "original_literals: 16" in text
        assert "solver_status:" in text
        assert "\nsearch_s: " in text
        model = dump.read_text()
        assert model.startswith("min:")
        assert ">=" in model

    def test_stdout_output(self, kb_path, capsys):
        code = cli.main(["refactor", str(kb_path), "--timeout-seconds", "5"])
        assert code == cli.EXIT_OK
        printed = capsys.readouterr().out
        assert syntactic_equiv(parse_program(SHARED_KB), parse_program(printed))

    def test_no_gain_exit_code(self, tmp_path):
        path = tmp_path / "kb.pl"
        path.write_text(NO_GAIN_KB)
        code = cli.main(
            ["refactor", str(path), "-o", "/dev/null", "--timeout-seconds", "2"]
        )
        assert code == cli.EXIT_NO_GAIN

    def test_rejects_sub_second_timeout(self, kb_path, capsys):
        code = cli.main(["refactor", str(kb_path), "--timeout-seconds", "0.1"])
        assert code == cli.EXIT_INPUT_ERROR
        assert "timeout" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        code = cli.main(["refactor", str(tmp_path / "absent.pl")])
        assert code == cli.EXIT_INPUT_ERROR
        assert "cannot read" in capsys.readouterr().err

    def test_unparsable_input(self, tmp_path, capsys):
        path = tmp_path / "bad.pl"
        path.write_text("this is not ) a program")
        code = cli.main(["refactor", str(path)])
        assert code == cli.EXIT_INPUT_ERROR

    @pytest.mark.parametrize("arity", ["²", "1" * 5000], ids=["digit-not-decimal", "5000-digits"])
    def test_arity_that_int_cannot_read(self, tmp_path, capsys, arity):
        path = tmp_path / "bad.pl"
        path.write_text(f"#task t/{arity}.\n")
        assert cli.main(["stats", str(path)]) == cli.EXIT_INPUT_ERROR
        assert "expected an arity, found" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["(", ":-"], ids=["paren", "neck"])
    def test_symbol_as_declared_name(self, tmp_path, capsys, name):
        path = tmp_path / "bad.pl"
        path.write_text(f"#task {name}/1.\n")
        assert cli.main(["stats", str(path)]) == cli.EXIT_INPUT_ERROR
        assert f"expected a predicate, found '{name}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, message",
        [
            ("t(Y) :- p(Y).\n", "neither declared nor defined"),
            ("#primitive p/2.\nt(Y) :- p(Y,Y), p(Y).\n", "arity"),
        ],
        ids=["undeclared-predicate", "arity-clash"],
    )
    def test_semantic_input_errors(self, tmp_path, capsys, source, message):
        path = tmp_path / "bad.pl"
        path.write_text(source)
        code = cli.main(["refactor", str(path)])
        assert code == cli.EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, message",
        [
            (
                "#primitive p/1.\n#task t/1.\n"
                "t(X) :- s(X).\ns(X) :- r(X).\nr(X) :- s(X).\n",
                "recursive support predicates",
            ),
            (
                "#primitive p/1.\n#task t/1.\n#support s/1.\nt(X) :- s(X).\n",
                "has no clauses",
            ),
            (
                "#primitive p/1.\n#task t/1.\np(X) :- s(X).\ns(X) :- p(X).\n"
                "t(X) :- p(X).\n",
                "body of primitive p",
            ),
            (
                "#primitive p/1.\n#task t/1.\n#task u/1.\nt(X) :- u(X).\n",
                "task predicate u occurs in a body",
            ),
        ],
        ids=[
            "recursive-support", "support-without-clauses", "support-in-primitive-clause",
            "task-in-a-body",
        ],
    )
    @pytest.mark.parametrize("command", ["refactor", "verify"])
    def test_unfolding_input_errors(self, tmp_path, capsys, source, message, command):
        path = tmp_path / "bad.pl"
        path.write_text(source)
        args = [str(path)] if command == "refactor" else [str(path), str(path)]
        code = cli.main([command] + args)
        assert code == cli.EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source",
        [
            "#primitive p/1.\n#task t/1.\nt(X) :- p(X), p(f(X)).\n",
            "#primitive z/0.\n#primitive u/1.\n#task t/0.\n"
            "s(X) :- u(X).\ns(X) :- z, z, u(X).\nt :- s(X), s(X).\n",
        ],
        ids=["variable-and-compound-arguments", "definitions-of-different-lengths"],
    )
    def test_valid_programs_are_refactored(self, tmp_path, source):
        path = tmp_path / "kb.pl"
        path.write_text(source)
        code = cli.main(["refactor", str(path), "--timeout-seconds", "2"])
        assert code in (cli.EXIT_OK, cli.EXIT_NO_GAIN)

    def test_cyclic_unifier_is_not_an_internal_error(self, tmp_path):
        path = tmp_path / "cyclic.pl"
        path.write_text(CYCLIC_UNIFIER_KB)
        out = tmp_path / "out.pl"
        code = cli.main(
            ["refactor", str(path), "-o", str(out), "--timeout-seconds", "2"]
        )
        assert code in (cli.EXIT_OK, cli.EXIT_NO_GAIN)
        assert cli.main(["verify", str(path), str(out)]) == cli.EXIT_OK

    @pytest.mark.parametrize(
        "flags", [["--min-body", "0"], ["--min-body", "3", "--max-body", "2"], ["--max-body", "1"]]
    )
    def test_out_of_range_body_window_is_an_input_error(self, kb_path, capsys, flags):
        code = cli.main(["refactor", str(kb_path), "--timeout-seconds", "2"] + flags)
        assert code == cli.EXIT_INPUT_ERROR
        assert "max_body" in capsys.readouterr().err

    def test_body_window_above_six_refactors(self, tmp_path, kb_path):
        # variant forms have no length cap, so neither has the window
        out = tmp_path / "out.pl"
        code = cli.main(
            ["refactor", str(kb_path), "-o", str(out), "--max-body", "7", "--timeout-seconds", "5"]
        )
        assert code == cli.EXIT_OK
        assert syntactic_equiv(parse_program(SHARED_KB), parse_program(out.read_text()))

    @pytest.mark.parametrize(
        "flags",
        [["--timeout-seconds", "nan"], ["--timeout-seconds", "inf"], ["--max-levels", "-2"]],
    )
    def test_out_of_range_setting_is_an_input_error(self, kb_path, capsys, flags):
        code = cli.main(["refactor", str(kb_path)] + flags)
        assert code == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_primitive_facts_pass_through(self, tmp_path):
        path = tmp_path / "kb.pl"
        path.write_text(FACTS_KB)
        out = tmp_path / "out.pl"
        report = tmp_path / "report.txt"
        code = cli.main(
            ["refactor", str(path), "-o", str(out), "--report", str(report),
             "--max-levels", "0", "--timeout-seconds", "2"]
        )
        assert code == cli.EXIT_NO_GAIN
        assert "refactored_literals: 14" in report.read_text()
        assert parse_program(out.read_text()).size == 14
        assert cli.main(["verify", str(path), str(out)]) == cli.EXIT_OK
        lacking = tmp_path / "lacking.pl"
        lacking.write_text(FACTS_KB.replace("e(b,c).\n", ""))
        assert cli.main(["verify", str(path), str(lacking)]) == cli.EXIT_VERIFY_FAILED

    def test_failed_verification_writes_no_output(self, tmp_path, kb_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "syntactic_equiv", lambda p1, p2: False)
        out = tmp_path / "out.pl"
        code = cli.main(["refactor", str(kb_path), "-o", str(out), "--timeout-seconds", "2"])
        assert code == cli.EXIT_VERIFY_FAILED
        assert capsys.readouterr().err.startswith("verification failed:")
        assert not out.exists()

    def test_internal_error_exit_code(self, kb_path, capsys, monkeypatch):
        def boom(program, cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "refactor", boom)
        code = cli.main(["refactor", str(kb_path)])
        assert code == cli.EXIT_INTERNAL
        assert "synthetic failure" in capsys.readouterr().err


class TestNamesAlreadyTaken:
    """Invented names are made fresh against the input's predicates."""

    @pytest.mark.parametrize(
        "source",
        [
            REPEATED_Q + "#primitive q/1.\n#primitive p/2.\n#task t/2.\n"
            "#support inv_1_0/4.\ninv_1_0(A,B,C,D) :- p(A,B), p(B,C), p(C,D).\n"
            "t(A,D) :- inv_1_0(A,B,C,D).\n",
            "#primitive inv_1_0/1.\n#primitive q/1.\n" + REPEATED_Q.replace(
                "x(X) :- q(X),", "x(X) :- inv_1_0(X), q(X),"
            ),
        ],
        ids=["support-of-another-arity", "primitive"],
    )
    def test_refactor(self, tmp_path, source):
        path = tmp_path / "kb.pl"
        path.write_text(source)
        out = tmp_path / "out.pl"
        code = cli.main(["refactor", str(path), "-o", str(out), "--timeout-seconds", "2"])
        assert code == cli.EXIT_OK
        assert parse_program(out.read_text()).size < parse_program(source).size
        assert cli.main(["verify", str(path), str(out)]) == cli.EXIT_OK

    def test_baseline(self, tmp_path):
        path = tmp_path / "kb.pl"
        path.write_text(
            "#primitive p/2.\n#primitive q/2.\n#task red_0/1.\n#task t/2.\n#task u/2.\n"
            "red_0(A) :- p(A,B), q(B,A).\nt(A,C) :- p(A,B), q(B,C).\n"
            "u(A,C) :- p(A,B), q(B,C).\n"
        )
        out = tmp_path / "out.pl"
        assert cli.main(["baseline", str(path), "-o", str(out)]) == cli.EXIT_OK
        assert "#task red_0/1." in out.read_text()
        assert cli.main(["verify", str(path), str(out)]) == cli.EXIT_OK


class TestDeepInputs:
    def test_long_body_verifies(self, tmp_path):
        # far more body literals than Python's stack has frames; the
        # shuffled copies are renamed too
        path = tmp_path / "chain.pl"
        path.write_text(_chain(1500))
        changed = tmp_path / "changed.pl"
        changed.write_text(_chain(1500, swapped=750))
        shuffled = tmp_path / "shuffled.pl"
        shuffled.write_text(_chain(1500, shuffled=True, name="Y"))
        both = tmp_path / "both.pl"
        both.write_text(_chain(1500, swapped=750, shuffled=True, name="Y"))
        assert cli.main(["verify", str(path), str(path)]) == cli.EXIT_OK
        assert cli.main(["verify", str(path), str(changed)]) == cli.EXIT_VERIFY_FAILED
        assert cli.main(["verify", str(path), str(shuffled)]) == cli.EXIT_OK
        assert cli.main(["verify", str(path), str(both)]) == cli.EXIT_VERIFY_FAILED

    @pytest.mark.parametrize("command", ["refactor", "baseline", "verify", "stats"])
    def test_term_nesting_limit(self, tmp_path, capsys, command):
        def run(depth):
            path = tmp_path / f"deep{depth}.pl"
            path.write_text(
                "#primitive p/2.\n#primitive q/2.\n#task t/1.\n#task u/1.\n"
                + "".join(
                    f"{h}(X) :- p(X,{_nested(depth)}), q(X,Y), p(Y,X).\n" for h in "tu"
                )
            )
            args = [str(path)] * (2 if command == "verify" else 1)
            return cli.main([command] + args)

        assert run(MAX_TERM_DEPTH) in (cli.EXIT_OK, cli.EXIT_NO_GAIN)
        capsys.readouterr()
        assert run(MAX_TERM_DEPTH + 1) == cli.EXIT_INPUT_ERROR
        assert "nest deeper than" in capsys.readouterr().err
        assert run(1200) == cli.EXIT_INPUT_ERROR


    @pytest.mark.parametrize("command", ["refactor", "baseline", "verify"])
    def test_long_support_chain(self, tmp_path, command):
        # unfolding takes one step per support predicate of the chain
        path = tmp_path / "support.pl"
        path.write_text(_support_chain(600))
        args = [str(path)] * (2 if command == "verify" else 1)
        assert cli.main([command] + args) in (cli.EXIT_OK, cli.EXIT_NO_GAIN)

    @pytest.mark.parametrize("command", ["refactor", "baseline", "verify"])
    def test_unfolding_past_the_term_nesting_limit(self, tmp_path, capsys, command):
        # each clause parses, but inlining the chain nests 12 * 99 terms
        path = tmp_path / "wrapped.pl"
        path.write_text(_support_chain(12, wraps=99))
        args = [str(path)] * (2 if command == "verify" else 1)
        assert cli.main([command] + args) == cli.EXIT_INPUT_ERROR
        assert f"deeper than {MAX_TERM_DEPTH} levels" in capsys.readouterr().err


class TestVerifyCommand:
    def test_equivalent_programs(self, tmp_path, kb_path):
        out = tmp_path / "out.pl"
        assert (
            cli.main(
                ["refactor", str(kb_path), "-o", str(out), "--timeout-seconds", "5"]
            )
            == cli.EXIT_OK
        )
        assert cli.main(["verify", str(kb_path), str(out)]) == cli.EXIT_OK

    def test_deleted_clause_fails(self, tmp_path, kb_path):
        program = parse_program(SHARED_KB)
        trimmed = Program(program.clauses[:-1], program.registry)
        other = tmp_path / "trimmed.pl"
        other.write_text(render_program(trimmed))
        assert cli.main(["verify", str(kb_path), str(other)]) == cli.EXIT_VERIFY_FAILED

    def test_identical_file(self, kb_path):
        assert cli.main(["verify", str(kb_path), str(kb_path)]) == cli.EXIT_OK


class TestBaselineCommand:
    def test_output_is_equivalent(self, tmp_path, kb_path):
        out = tmp_path / "base.pl"
        assert cli.main(["baseline", str(kb_path), "-o", str(out)]) == cli.EXIT_OK
        assert syntactic_equiv(
            parse_program(SHARED_KB), parse_program(out.read_text())
        )


class TestStatsCommand:
    def test_reports_counts(self, kb_path, capsys):
        assert cli.main(["stats", str(kb_path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "clauses: 4" in out
        assert "literals: 16" in out
        assert "predicates: 6" in out
        assert "log_hypothesis_space" in out

    def test_huge_flags_end_within_seconds(self, kb_path):
        # the statistic would build 6**1000000000 and sum 10**9 terms; a
        # child process, so that a stall fails the test instead of hanging it
        argv = ["stats", str(kb_path), "--body-len", "1000000000", "--clauses", "1000000000"]
        main = "import sys; from refold import cli; sys.exit(cli.main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", main, *argv], capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == cli.EXIT_INPUT_ERROR
        assert done.stderr.startswith("error:")

    def test_flags_at_the_bound_are_accepted(self, kb_path, capsys):
        bound = str(cli.STATS_ARG_MAX)
        assert cli.main(["stats", str(kb_path), "--body-len", bound, "--clauses", bound]) == 0
        out = capsys.readouterr().out
        assert f"log_hypothesis_space(body_len={bound}, clauses={bound})" in out


class TestBenchCommand:
    def test_unknown_condition(self, capsys):
        code = cli.main(["bench", "--conditions", "original,bogus"])
        assert code == cli.EXIT_INPUT_ERROR
        assert "bogus" in capsys.readouterr().err

    def test_tiny_run(self, tmp_path, capsys):
        out = tmp_path / "bench.txt"
        code = cli.main(
            [
                "bench",
                "--width",
                "3",
                "--background-tasks",
                "3",
                "--target-tasks",
                "2",
                "--max-depth",
                "6",
                "--max-nodes",
                "2000",
                "--task-seconds",
                "2",
                "--refactor-seconds",
                "3",
                "--conditions",
                "original",
                "-o",
                str(out),
            ]
        )
        assert code == cli.EXIT_OK
        text = out.read_text()
        assert "original" in text
        assert "solved" in text

    def test_string_domain_under_every_condition(self, tmp_path):
        out = tmp_path / "bench.txt"
        code = cli.main(
            [
                "bench", "--domain", "string", "--background-tasks", "6",
                "--target-tasks", "3", "--conditions", "original,baseline,refactored",
                "--refactor-seconds", "1", "-o", str(out),
            ]
        )
        assert code == cli.EXIT_OK
        text = out.read_text()
        for label in ("original", "baseline", "refactored"):
            assert f"bk[{label}]:" in text
            assert sum(line.startswith(f"{label}\ttg_") for line in text.splitlines()) == 3


# tiny synthesis limits, so that a run that gets past its options ends fast
TINY_BENCH = ["--background-tasks", "1", "--target-tasks", "1", "--max-depth", "2",
              "--max-nodes", "50", "--task-seconds", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "{kb}", "--body-len", "0"],
        ["stats", "{kb}", "--clauses", "0"],
        ["stats", "{kb}", "--body-len", "10001"],
        ["stats", "{kb}", "--clauses", "10001"],
        ["bench", "--width", "1"] + TINY_BENCH,
        ["bench", "--conditions", ","] + TINY_BENCH,
        ["bench", "--refactor-seconds", "nan"] + TINY_BENCH,
        ["bench"] + TINY_BENCH + ["--task-seconds", "nan"],
        ["bench"] + TINY_BENCH + ["--task-seconds", "-1"],
        ["bench"] + TINY_BENCH + ["--max-nodes", "-5"],
        ["bench"] + TINY_BENCH + ["--max-depth", "-1"],
        ["bench"] + TINY_BENCH + ["--background-tasks", "-1"],
        ["bench"] + TINY_BENCH + ["--target-tasks", "0"],
    ],
    ids=["stats-body-len", "stats-clauses", "stats-body-len-past-bound",
         "stats-clauses-past-bound", "bench-width", "bench-no-condition",
         "bench-refactor-seconds", "bench-task-seconds-nan", "bench-task-seconds-negative",
         "bench-max-nodes", "bench-max-depth", "bench-background-tasks",
         "bench-target-tasks"],
)
def test_out_of_range_option_is_an_input_error(kb_path, capsys, argv):
    code = cli.main([a.format(kb=kb_path) for a in argv])
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["refactor", "{kb}", "-o", "{bad}"],
        ["refactor", "{kb}", "--report", "{bad}"],
        ["refactor", "{kb}", "--model-dump", "{bad}"],
        ["baseline", "{kb}", "-o", "{bad}"],
        ["bench"] + TINY_BENCH + ["--conditions", "original", "-o", "{bad}"],
    ],
    ids=["refactor-output", "refactor-report", "refactor-model-dump", "baseline-output",
         "bench-output"],
)
def test_unwritable_output_is_an_input_error(tmp_path, kb_path, capsys, argv):
    bad = tmp_path / "missing" / "out.txt"
    code = cli.main([a.format(kb=kb_path, bad=bad) for a in argv])
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith(f"error: cannot write {bad}:")


@pytest.mark.parametrize("command", ["refactor", "baseline", "verify", "stats"])
def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "bad.pl"
    path.write_bytes(b"\xff\xfe#primitive p/2.\n")
    args = [str(path)] * (2 if command == "verify" else 1)
    assert cli.main([command] + args) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith(
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff"
    )


@pytest.mark.parametrize("command", ["refactor", "baseline", "verify", "stats"])
def test_byte_order_mark_is_skipped(tmp_path, capsys, command):
    # some editors start UTF-8 files with U+FEFF; it is not program text
    def run(text: str, name: str) -> tuple:
        plain, marked = tmp_path / f"{name}.pl", tmp_path / f"{name}-bom.pl"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        outs = []
        for path in (plain, marked):
            args = [str(path)] * (2 if command == "verify" else 1)
            if command == "refactor":
                args += ["--timeout-seconds", "5"]
            code = cli.main([command] + args)
            out, err = capsys.readouterr()
            outs.append((code, out, err.replace(str(path), "KB")))
        assert outs[0] == outs[1]
        return outs[1]

    code, _, err = run(SHARED_KB, "kb")
    assert code == cli.EXIT_OK and err == ""
    code, _, err = run("#primitive p/2. )\n", "bad")
    assert code == cli.EXIT_INPUT_ERROR
    assert err == "error: KB: expected a predicate, found ')' (line 1, column 17)\n"


def test_output_may_name_the_input(kb_path):
    code = cli.main(["refactor", str(kb_path), "-o", str(kb_path), "--timeout-seconds", "5"])
    assert code == cli.EXIT_OK
    refactored = parse_program(kb_path.read_text())
    assert refactored.size < parse_program(SHARED_KB).size
    assert syntactic_equiv(parse_program(SHARED_KB), refactored)


class TestRoundTrip:
    def test_refactor_output_always_verifies(self, tmp_path):
        for k in (3, 5, 7):
            src = tmp_path / f"chain{k}.pl"
            out = tmp_path / f"chain{k}.out.pl"
            src.write_text(render_program(chain_program(k)))
            code = cli.main(
                ["refactor", str(src), "-o", str(out), "--timeout-seconds", "5"]
            )
            assert code == cli.EXIT_OK
            assert cli.main(["verify", str(src), str(out)]) == cli.EXIT_OK
