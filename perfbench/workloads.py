"""Seeded inputs and one pass of work per workload.

Each workload starts from fixed base inputs, the ones the ROADMAP's
hand-measured baselines used. The seed turns them into an isomorphic
variant: predicates permuted within role and arity, variables renamed,
clause order shuffled (lego-bk only renames variables, since its clause
order and predicate names carry meaning, and shuffles its synthesis
targets). Seed 0 is the base inputs themselves. Variants keep every run's
problem the same size; fresh random programs per seed spread the timings
more than a bound can absorb.

A workload's `build` is its set-up; `run_pass` is the timed work, done
through refold's public API; `check_call` judges each output with the
benchmark's own oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import time
from dataclasses import dataclass, field

import oracle

RANDOM_BATCH_SEED = 20260826  # criterion 1's generator seed
RANDOM_BATCH_SIZE = 150
DENSE_SEED = 5  # criterion 5's program
LEGO_BK_SEED, LEGO_TARGET_SEED = 1, 2  # criterion 6's set-up
LEGO_TASKS = 50


@dataclass
class Call:
    """One refactor(), baseline or synthesize() call of a pass."""

    kind: str  # refactor | baseline | synthesize
    program: str
    t0: float = 0.0  # perf_counter at start and end
    t1: float = 0.0
    fixed: float = 0.0  # wall-clock budget spent in full (a solver timeout)
    in_literals: int = 0
    out_literals: int = 0
    status: str = ""
    verified: bool = False
    nodes: int = 0
    error: str = ""
    output: object = None  # what the call returned; dropped after checking

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def digest(self, refold) -> str:
        if self.output is None or self.kind == "synthesize":
            return ""
        text = refold.render_program(self.output)
        return hashlib.sha1(text.encode("utf-8")).hexdigest()


@dataclass
class PassResult:
    t0: float = 0.0
    t1: float = 0.0
    calls: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Context:
    """Where a pass reports its spans: the tracer, or nowhere when
    untraced."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def span(self, name: str, program: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        self.tracer.program = program
        return self.tracer.span(name)


# ---------------------------------------------------------------------------
# Input generation

def criterion1_text(rng: random.Random) -> str:
    """Criterion 1's random program: 2-20 task clauses with 1-8 literal
    chain bodies over 3-8 binary primitives."""
    n_prims = rng.randint(3, 8)
    n_clauses = rng.randint(2, 20)
    lines = [f"#primitive p{i}/2." for i in range(n_prims)]
    lines += [f"#task t{c}/2." for c in range(n_clauses)]
    for c in range(n_clauses):
        blen = rng.randint(1, 8)
        lits = [f"p{rng.randrange(n_prims)}(V{k},V{k + 1})" for k in range(blen)]
        lines.append(f"t{c}(V0,V{blen}) :- {', '.join(lits)}.")
    return "\n".join(lines)


def criterion5_text() -> str:
    """Criterion 5's dense program: 30 clauses of 6 literals over 4
    predicates."""
    rng = random.Random(DENSE_SEED)
    n_preds, n_clauses, blen = 4, 30, 6
    lines = [f"#primitive p{i}/2." for i in range(n_preds)]
    lines += [f"#task t{c}/2." for c in range(n_clauses)]
    for c in range(n_clauses):
        lits = [f"p{rng.randrange(n_preds)}(V{k},V{k + 1})" for k in range(blen)]
        lines.append(f"t{c}(V0,V{blen}) :- {', '.join(lits)}.")
    return "\n".join(lines)


def variant_text(refold, program, rng: random.Random, permute: bool) -> str:
    """Source text of an isomorphic variant of `program`: variables
    renamed and, if `permute`, predicates permuted within role and arity
    and clauses shuffled."""
    Atom, Clause, Var = refold.Atom, refold.Clause, refold.Var
    entries = list(program.registry.entries.items())
    pred_map = {}
    if permute:
        groups: dict = {}
        for pred, (arity, role) in entries:
            if role in ("primitive", "task"):
                groups.setdefault((role, arity), []).append(pred)
        for names in groups.values():
            shuffled = list(names)
            rng.shuffle(shuffled)
            pred_map.update(zip(names, shuffled))
    lines = [f"#{role} {pred_map.get(p, p)}/{arity}." for p, (arity, role) in entries]
    order = list(range(len(program.clauses)))
    if permute:
        rng.shuffle(order)
    for k in order:
        c = program.clauses[k]
        names = list(dict.fromkeys(c.variables()))
        fresh = rng.sample(range(100, 1000), len(names))
        vmap = {v: Var(f"V{n}") for v, n in zip(names, fresh)}

        def atom(a):
            return Atom(pred_map.get(a.pred, a.pred), tuple(vmap.get(t, t) for t in a.args))

        lines.append(refold.logic.render_clause(Clause(atom(c.head), tuple(atom(l) for l in c.body))))
    return "\n".join(lines) + "\n"


def _parse_variants(refold, base_texts: list, seed: int, timing: dict) -> list:
    """Base programs, or their seeded variants, parsed from text; the
    final parse is timed as logic.parse_s."""
    texts = []
    for k, text in enumerate(base_texts):
        if seed:
            base = refold.parse_program(text)
            rng = random.Random(seed * 1_000_003 + k)
            text = variant_text(refold, base, rng, permute=True)
        texts.append(text)
    t0 = time.perf_counter()
    programs = [refold.parse_program(t) for t in texts]
    timing["parse_s"] = time.perf_counter() - t0
    return programs


def _timed(calls: list, kind: str, program_id: str, fn) -> Call:
    """Runs fn() -> Call and stamps its start and end. A raise is recorded
    as a failed call: any exception from refold counts as a failure."""
    t0 = time.perf_counter()
    try:
        call = fn()
    except Exception as exc:
        call = Call(kind, program_id, error=f"{type(exc).__name__}: {exc}")
    call.t0, call.t1 = t0, time.perf_counter()
    calls.append(call)
    return call


def _refactor(refold, ctx, calls: list, program_id: str, program, cfg) -> Call:
    def run():
        with ctx.span("pipeline.refactor", program_id):
            out, report = refold.refactor(program, cfg)
        timed_out = report.solver_status == "timeout-best"
        return Call(
            "refactor", program_id,
            fixed=cfg.budget.wall_time if timed_out else 0.0,
            in_literals=program.size, out_literals=out.size,
            status=report.solver_status, verified=report.equivalence_verified,
            output=out,
        )

    return _timed(calls, "refactor", program_id, run)


# ---------------------------------------------------------------------------
# Workloads

class RandomBatch:
    name = "random-batch"

    def build(self, refold, seed: int, timing: dict):
        rng = random.Random(RANDOM_BATCH_SEED)
        texts = [criterion1_text(rng) for _ in range(RANDOM_BATCH_SIZE)]
        return {"programs": _parse_variants(refold, texts, seed, timing)}

    def config(self, refold):
        return refold.RefactorConfig(
            max_levels=1, folding_cap=20, budget=refold.SolverBudget(wall_time=1.0)
        )

    def run_pass(self, refold, inputs, ctx) -> PassResult:
        cfg = self.config(refold)
        res = PassResult(t0=time.perf_counter())
        for k, prog in enumerate(inputs["programs"]):
            _refactor(refold, ctx, res.calls, f"rb-{k}", prog, cfg)
        res.t1 = time.perf_counter()
        return res

    def inputs_for(self, inputs, call: Call):
        return inputs["programs"][int(call.program.split("-")[1])]


class DenseDefault:
    name = "dense-default"

    def build(self, refold, seed: int, timing: dict):
        return {"program": _parse_variants(refold, [criterion5_text()], seed, timing)[0]}

    def run_pass(self, refold, inputs, ctx) -> PassResult:
        cfg = refold.RefactorConfig(budget=refold.SolverBudget(wall_time=10.0))
        prog = inputs["program"]
        res = PassResult(t0=time.perf_counter())
        _refactor(refold, ctx, res.calls, "dense", prog, cfg)

        def baseline():
            with ctx.span("pipeline.baseline", "dense"):
                out = refold.remove_redundancy_baseline(prog)
            return Call("baseline", "dense", in_literals=prog.size,
                        out_literals=out.size, verified=True, output=out)

        _timed(res.calls, "baseline", "dense", baseline)
        res.t1 = time.perf_counter()
        return res

    def inputs_for(self, inputs, call: Call):
        return inputs["program"]


class LegoBK:
    name = "lego-bk"

    def build(self, refold, seed: int, timing: dict):
        bench = refold.bench
        limits = refold.SynthesisLimits(max_depth=14, max_nodes=50_000, wall_time=10.0)
        t0 = time.perf_counter()
        tasks = bench.gen_lego_tasks(4, LEGO_TASKS, seed=LEGO_BK_SEED, max_height=2)
        bk, _ = refold.accumulate_background(tasks, bench.lego_primitives(), limits)
        timing["accumulate_s"] = time.perf_counter() - t0
        rng = random.Random(seed)
        targets = bench.gen_tower_tasks(4, LEGO_TASKS, seed=LEGO_TARGET_SEED)
        if seed:
            text = variant_text(refold, bk, rng, permute=False)
            rng.shuffle(targets)
        else:
            text = refold.render_program(bk)
        t0 = time.perf_counter()
        bk = refold.parse_program(text)
        timing["parse_s"] = time.perf_counter() - t0
        return {"bk": bk, "targets": targets, "limits": limits}

    def run_pass(self, refold, inputs, ctx) -> PassResult:
        cfg = refold.RefactorConfig(
            max_levels=2, folding_cap=20, red_group_cap=300,
            budget=refold.SolverBudget(wall_time=10.0),
        )
        res = PassResult(t0=time.perf_counter())
        call = _refactor(refold, ctx, res.calls, "bk", inputs["bk"], cfg)
        if not call.error:
            with ctx.span("bench.synthesis", "bk"):
                self.synthesize_all(refold, inputs, call.output, res.calls)
        res.t1 = time.perf_counter()
        return res

    def synthesize_all(self, refold, inputs, bk, calls: list) -> list:
        for task in inputs["targets"]:
            def run(task=task):
                solution, nodes = refold.synthesize(task, bk, inputs["limits"])
                return Call("synthesize", task.name,
                            status="solved" if solution is not None else "unsolved",
                            nodes=nodes, output=(solution, bk, task))

            _timed(calls, "synthesize", task.name, run)
        return calls

    def inputs_for(self, inputs, call: Call):
        return inputs["bk"]

    def reference(self, refold, inputs) -> dict:
        """Synthesis cost with the unrefactored BK, for comparison."""
        calls = self.synthesize_all(refold, inputs, inputs["bk"], [])
        return {"synthesis_nodes_original": sum(c.nodes for c in calls)}


WORKLOADS = {w.name: w for w in (RandomBatch(), LegoBK(), DenseDefault())}


# ---------------------------------------------------------------------------
# Output checks

def check_call(workload, inputs, call: Call, seed: int) -> bool:
    """True when the call's output passes the benchmark's own checks."""
    if call.error:
        return False
    try:
        if call.kind == "synthesize":
            solution, bk, task = call.output
            if solution is None:
                return True  # not found within the limits: nothing to check
            for start, goal in task.examples:
                end = oracle.lego_run(solution, bk, start.heights, start.cursor)
                if end is None or end[0] != goal.heights:
                    return False
            return True
        if not call.verified:
            return False
        return oracle.agree(workload.inputs_for(inputs, call), call.output, seed)
    except (ValueError, KeyError):  # an output the oracle cannot evaluate is rejected
        return False
