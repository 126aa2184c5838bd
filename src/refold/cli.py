"""Command-line front end: refactor, baseline, verify, stats, and bench
subcommands over knowledge-base files."""

from __future__ import annotations

import argparse
import sys

from .bench import (
    SynthesisLimits,
    accumulate_background,
    gen_lego_tasks,
    gen_string_tasks,
    gen_tower_tasks,
    lego_primitives,
    run_benchmark,
    string_primitives,
)
from .logic import LogicError, parse_program, render_program
from .pipeline import (
    OutputError,
    RefactorConfig,
    VerificationError,
    hypothesis_space_size,
    refactor,
    remove_redundancy_baseline,
    write_text,
)
from .solver import SolverBudget
from .transform import TransformError, syntactic_equiv

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_GAIN = 3
EXIT_INTERNAL = 4

# hypothesis_space_size builds p**body_len exactly and sums `clauses`
# logarithms: at this bound, with 100 000 predicates, that takes under
# 0.1 s, and at ten times it, seconds
STATS_ARG_MAX = 10_000


class InputError(Exception):
    pass


def _read_program(path: str):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_program(text)
    except LogicError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _write(path, text: str):
    # outputs are opened only here, after the input is read: -o may name it
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        write_text(path, text)


def _add_config_flags(p: argparse.ArgumentParser):
    # unset flags keep RefactorConfig's and SolverBudget's defaults
    p.add_argument("--min-body", type=int)
    p.add_argument("--max-body", type=int)
    p.add_argument("--max-levels", type=int)
    p.add_argument("--timeout-seconds", type=float)
    p.add_argument(
        "--predicate-cap",
        action="store_true",
        help="forbid the output from using more predicates than the input",
    )
    p.add_argument("--report", help="write the refactoring report here")
    p.add_argument("--model-dump", help="write the constraint model here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refold",
        description="Compress definite logic programs by predicate invention.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refactor", help="refactor a knowledge base")
    p.add_argument("input")
    p.add_argument("-o", "--output", default="-")
    _add_config_flags(p)

    p = sub.add_parser("baseline", help="greedy shared-structure removal")
    p.add_argument("input")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("verify", help="check two programs are equivalent")
    p.add_argument("original")
    p.add_argument("candidate")

    p = sub.add_parser("stats", help="size and search-space metrics")
    p.add_argument("input")
    p.add_argument("--body-len", type=int, default=3)
    p.add_argument("--clauses", type=int, default=5)

    p = sub.add_parser("bench", help="run the synthesis benchmark")
    p.add_argument("--domain", choices=["lego", "string"], default="lego")
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--background-tasks", type=int, default=50)
    p.add_argument("--target-tasks", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=14)
    p.add_argument("--max-nodes", type=int, default=50_000)
    p.add_argument("--task-seconds", type=float, default=10.0)
    p.add_argument("--refactor-seconds", type=float, default=30.0)
    p.add_argument(
        "--conditions",
        default="original,refactored",
        help="comma list from: original, baseline, refactored",
    )
    p.add_argument("-o", "--output", default="-")
    return parser


def _cmd_refactor(args) -> int:
    given = {
        name: getattr(args, name)
        for name in ("min_body", "max_body", "max_levels")
        if getattr(args, name) is not None
    }
    try:
        if args.timeout_seconds is not None:
            if args.timeout_seconds < 1:
                raise InputError("timeout must be >= 1 second")
            given["budget"] = SolverBudget(wall_time=args.timeout_seconds)
        cfg = RefactorConfig(
            enforce_predicate_cap=args.predicate_cap,
            model_dump_path=args.model_dump,
            **given,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    program = _read_program(args.input)
    out, report = refactor(program, cfg)
    _write(args.output, render_program(out))
    if args.report:
        _write(args.report, report.to_text())
    if report.no_gain_fallback:
        return EXIT_NO_GAIN
    return EXIT_OK


def _cmd_baseline(args) -> int:
    program = _read_program(args.input)
    out = remove_redundancy_baseline(program)
    _write(args.output, render_program(out))
    return EXIT_OK


def _cmd_verify(args) -> int:
    p1 = _read_program(args.original)
    p2 = _read_program(args.candidate)
    return EXIT_OK if syntactic_equiv(p1, p2) else EXIT_VERIFY_FAILED


def _cmd_stats(args) -> int:
    if not (1 <= args.body_len <= STATS_ARG_MAX and 1 <= args.clauses <= STATS_ARG_MAX):
        raise InputError(f"--body-len and --clauses must be in 1..{STATS_ARG_MAX}")
    program = _read_program(args.input)
    preds = program.predicates()
    lines = [
        f"clauses: {len(program.clauses)}",
        f"literals: {program.size}",
        f"predicates: {len(preds)}",
    ]
    if preds:
        log_size = hypothesis_space_size(len(preds), args.body_len, args.clauses)
        lines.append(
            f"log_hypothesis_space(body_len={args.body_len}, "
            f"clauses={args.clauses}): {log_size:.4f}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_bench(args) -> int:
    wanted = [c.strip() for c in args.conditions.split(",") if c.strip()]
    if not wanted:
        raise InputError("at least one condition is required")
    for label in wanted:
        if label not in ("original", "baseline", "refactored"):
            raise InputError(f"unknown condition: {label}")
    if args.domain == "lego" and args.width < 2:
        raise InputError("--width must be >= 2")
    if args.background_tasks < 0 or args.target_tasks < 1:
        raise InputError("need --background-tasks >= 0 and --target-tasks >= 1")
    try:
        cfg = RefactorConfig(
            max_levels=2,
            folding_cap=20,
            red_group_cap=300,
            budget=SolverBudget(wall_time=args.refactor_seconds),
        )
        limits = SynthesisLimits(
            max_depth=args.max_depth,
            max_nodes=args.max_nodes,
            wall_time=args.task_seconds,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.domain == "lego":
        base = lego_primitives()
        bg = gen_lego_tasks(
            args.width, args.background_tasks, seed=args.seed, prefix="bg"
        )
        targets = gen_tower_tasks(
            args.width, args.target_tasks, seed=args.seed + 1, prefix="tg"
        )
    else:
        base = string_primitives()
        bg = gen_string_tasks(args.background_tasks, seed=args.seed, prefix="bg")
        targets = gen_string_tasks(
            args.target_tasks, seed=args.seed + 1, prefix="tg"
        )
    bk, _ = accumulate_background(bg, base, limits)
    conditions = []
    for label in wanted:
        if label == "original":
            conditions.append((label, bk))
        elif label == "baseline":
            conditions.append((label, remove_redundancy_baseline(bk)))
        else:
            refactored, _ = refactor(bk, cfg)
            conditions.append((label, refactored))
    result = run_benchmark(conditions, targets, limits)
    _write(args.output, result.render())
    return EXIT_OK


_COMMANDS = {
    "refactor": _cmd_refactor,
    "baseline": _cmd_baseline,
    "verify": _cmd_verify,
    "stats": _cmd_stats,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, TransformError, OutputError) as exc:
        # a TransformError is unfolding rejecting an input program: recursive
        # or undefined support predicates, a task predicate in a body, a
        # support predicate in a primitive clause, or an unfolding over its
        # cap; an OutputError is an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
