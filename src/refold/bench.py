"""Desk-scale synthesis benchmark: two executable domains (brick boards and
string edits), an iterative-deepening enumerative synthesizer with exact
node counting, and a lifelong loop that accumulates solved tasks as
background knowledge so refactored and unrefactored knowledge bases can be
compared under identical limits."""

from __future__ import annotations

import graphlib
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .logic import Atom, Clause, Program, Var

# ---------------------------------------------------------------------------
# Domain states and primitive semantics
#
# Every binary predicate is a partial state transformer (None = inapplicable)
# and every unary predicate is a test on the current state. Defined
# predicates execute by running their body literals in chain order,
# threading one state through them; variables only fix that order.


@dataclass(frozen=True)
class LegoWorld:
    """A row of brick stacks plus a cursor position."""

    heights: tuple
    cursor: int = 0

    def __post_init__(self):
        if not 0 <= self.cursor < len(self.heights):
            raise ValueError("cursor outside the board")

    @property
    def board_width(self) -> int:
        return len(self.heights)


def blank_board(width: int) -> LegoWorld:
    return LegoWorld(heights=(0,) * width, cursor=0)


def _lego_left(s: LegoWorld):
    return LegoWorld(s.heights, s.cursor - 1) if s.cursor > 0 else None


def _lego_right(s: LegoWorld):
    if s.cursor < s.board_width - 1:
        return LegoWorld(s.heights, s.cursor + 1)
    return None


def _lego_place(s: LegoWorld):
    h = list(s.heights)
    h[s.cursor] += 1
    return LegoWorld(tuple(h), s.cursor)


LEGO_TRANSFORMS = {
    "left": _lego_left,
    "right": _lego_right,
    "place_brick": _lego_place,
}

LEGO_TESTS = {
    "at_left": lambda s: s.cursor == 0,
    "at_right": lambda s: s.cursor == s.board_width - 1,
    "not_at_left": lambda s: s.cursor != 0,
    "not_at_right": lambda s: s.cursor != s.board_width - 1,
}


def _lego_reached(state: LegoWorld, goal: LegoWorld) -> bool:
    return state.heights == goal.heights


def _lego_viable(state: LegoWorld, goal: LegoWorld) -> bool:
    # bricks are never removed
    return all(h <= g for h, g in zip(state.heights, goal.heights))


@dataclass(frozen=True)
class StringState:
    """One left-to-right pass over an input string: (input, read position,
    output buffer)."""

    text: str
    pos: int = 0
    out: str = ""


def _read(s: StringState) -> Optional[str]:
    return s.text[s.pos] if s.pos < len(s.text) else None


def _string_step(emit: Callable[[str], str]):
    def step(s: StringState):
        ch = _read(s)
        if ch is None:
            return None
        return StringState(s.text, s.pos + 1, s.out + emit(ch))

    return step


# `write` emits a fixed filler character without consuming input.
WRITE_CHAR = "."

STRING_TRANSFORMS = {
    "copy": _string_step(lambda ch: ch),
    "mk_uppercase": _string_step(str.upper),
    "mk_lowercase": _string_step(str.lower),
    "skip": _string_step(lambda ch: ""),
    "write": lambda s: StringState(s.text, s.pos, s.out + WRITE_CHAR),
}


def _string_test(check: Callable[[str], bool]):
    def test(s: StringState) -> bool:
        ch = _read(s)
        return ch is not None and check(ch)

    return test


STRING_TESTS = {
    "is_letter": _string_test(str.isalpha),
    "is_uppercase": _string_test(str.isupper),
    "is_space": _string_test(str.isspace),
    "is_number": _string_test(str.isdigit),
}


def _string_reached(state: StringState, goal: StringState) -> bool:
    return state.out == goal.out


def _string_viable(state: StringState, goal: StringState) -> bool:
    return goal.out.startswith(state.out)


class _Domain(NamedTuple):
    """One task kind: its state transformers and tests by name, whether a
    state has reached a goal, and whether it can still reach it."""

    transforms: dict
    tests: dict
    reached: Callable
    viable: Callable


_DOMAINS = {
    "lego": _Domain(LEGO_TRANSFORMS, LEGO_TESTS, _lego_reached, _lego_viable),
    "string": _Domain(STRING_TRANSFORMS, STRING_TESTS, _string_reached, _string_viable),
}


def _primitives(kind: str) -> Program:
    """Primitive declarations for one domain, transforms first. Every
    refactored knowledge base renders this registry, so the order is
    part of its output."""
    p = Program.empty()
    for name in _DOMAINS[kind].transforms:
        p.registry.declare(name, 2, "primitive")
    for name in _DOMAINS[kind].tests:
        p.registry.declare(name, 1, "primitive")
    return p


def lego_primitives() -> Program:
    """Primitive declarations for the brick-board domain."""
    return _primitives("lego")


def string_primitives() -> Program:
    """Primitive declarations for the string-edit domain."""
    return _primitives("string")


# ---------------------------------------------------------------------------
# Tasks


@dataclass(frozen=True)
class SynthesisTask:
    name: str
    examples: tuple  # ((input state, output state), ...)
    kind: str  # "lego" | "string"

    def __post_init__(self):
        if not self.examples:
            raise ValueError("a task needs at least one example")
        if self.kind not in _DOMAINS:
            raise ValueError(f"unknown task kind: {self.kind}")


def _blank_board_task(name: str, heights: tuple) -> SynthesisTask:
    """The task of building the stacks `heights` on a blank board."""
    return SynthesisTask(name, ((blank_board(len(heights)), LegoWorld(heights, 0)),), "lego")


def gen_lego_tasks(
    width: int,
    n: int,
    seed: int,
    max_height: int = 2,
    prefix: str = "lego",
) -> list:
    """n tasks mapping the blank board to a uniformly sampled final state
    with stack heights in [0, max_height]."""
    if width < 1:
        raise ValueError("width must be >= 1")
    if max_height < 0:
        raise ValueError("need max_height >= 0")
    rng = random.Random(seed)
    return [
        _blank_board_task(
            f"{prefix}_{k}", tuple(rng.randint(0, max_height) for _ in range(width))
        )
        for k in range(n)
    ]


def gen_tower_tasks(
    width: int,
    n: int,
    seed: int,
    height: int = 3,
    prefix: str = "tower",
) -> list:
    """n tasks whose goals are full-height towers with at least one empty
    column: each column is either 0 or `height`, never all empty and never
    all full. These need deep build sequences while leaving room for
    viability pruning."""
    if width < 2:
        raise ValueError("width must be >= 2")
    if height < 1:
        raise ValueError("height must be >= 1")
    rng = random.Random(seed)
    tasks = []
    while len(tasks) < n:
        heights = tuple(rng.choice((0, height)) for _ in range(width))
        if 0 in heights and sum(heights) >= height:
            tasks.append(_blank_board_task(f"{prefix}_{len(tasks)}", heights))
    return tasks


_WORD_POOL = (
    "alpha", "Bravo", "charlie", "DELTA", "echo 7", "Fox trot",
    "golf", "Hotel", "india 9", "JULIET", "kilo", "Lima",
)


def gen_string_tasks(n: int, seed: int, prefix: str = "str") -> list:
    """n tasks derived from short random edit sequences over sample words,
    two examples per task so single-example coincidences cannot solve
    them."""
    rng = random.Random(seed)
    ops = sorted(STRING_TRANSFORMS)
    tasks = []
    for k in range(n):
        words = rng.sample(_WORD_POOL, 2)
        length = min(len(w) for w in words)
        seq = [rng.choice(ops) for _ in range(rng.randint(1, min(4, length)))]
        examples = []
        for w in words:
            state = StringState(w)
            for op in seq:
                state = STRING_TRANSFORMS[op](state)
            examples.append((StringState(w), StringState(w, 0, state.out)))
        tasks.append(SynthesisTask(f"{prefix}_{k}", tuple(examples), "string"))
    return tasks


# ---------------------------------------------------------------------------
# Execution of knowledge-base programs


class ExecutionError(Exception):
    pass


def _chain_order(clause: Clause) -> tuple:
    """The body literals in the order the state flows through them: from
    the head's first argument, the next literal is the first pending one,
    in text order, that takes the current state, and its last argument is
    the state after it. perfbench's oracle runs such a body in this order.
    A body it would run otherwise, as a flat sequence cannot, raises
    ExecutionError: one that tests or branches off a state the chain has
    moved past, binds a variable twice, or does not end at the head's
    last argument."""
    pred = clause.head.pred
    state, states = clause.head.args[0], [clause.head.args[0]]
    order, pending = [], list(clause.body)
    while pending:
        # a body written in chain order takes its first pending literal;
        # a clause the parser or `_sequence_to_program` made has one
        # object per variable, so `is` settles that without dataclass
        # equality, a third of this loop's time on criterion 6's BK
        lit = pending[0]
        if lit.args[0] is not state and lit.args[0] != state:
            lit = next((l for l in pending if l.args[0] == state), None)
            if lit is None:
                if any(l.args[0] in states for l in pending):
                    raise ExecutionError(f"the body of {pred} uses a state it has moved past")
                raise ExecutionError(f"the body of {pred} does not chain its states")
        pending.remove(lit)
        order.append(lit)
        states += lit.args[1:]
        state = lit.args[-1]
    if len(set(states)) < len(states):
        raise ExecutionError(f"the body of {pred} binds a variable twice")
    if state != clause.head.args[-1]:
        raise ExecutionError(f"the body of {pred} does not end at its head's last argument")
    return tuple(order)


def flatten_definitions(bk: Program) -> dict:
    """Every defined binary predicate as a flat primitive operation
    sequence. Defined bodies must be sequential chains of binary
    predicates, which holds for everything this harness produces; each
    body runs in chain order (`_chain_order`), however it is written.
    Definitions are flattened callees first, in graphlib's order, so
    that deep chains of definitions need no recursion."""
    defs: dict = {}
    for c in bk.clauses:
        defs.setdefault(c.head.pred, c)  # first definition wins
    primitive = set(bk.registry.by_role("primitive"))
    calls = {pred: [l.pred for l in c.body if l.pred not in primitive] for pred, c in defs.items()}
    # graphlib orders the definitions that call others after their
    # callees, at a few microseconds a node; the rest, such as every
    # solution accumulate_background adds, call primitives only
    try:
        ordered = list(
            graphlib.TopologicalSorter({p: cs for p, cs in calls.items() if cs}).static_order()
        )
    except graphlib.CycleError as exc:
        raise ExecutionError(f"recursive definition of {exc.args[1][0]}") from None
    flat: dict = {}
    for pred in dict.fromkeys([*ordered, *defs]):
        if pred not in defs:
            raise ExecutionError(f"no definition for {pred}")
        seq: list = []
        for l in _chain_order(defs[pred]):
            seq.extend((l.pred,) if l.pred in primitive else flat[l.pred])
        flat[pred] = tuple(seq)
    return flat


def _test_step(test: Callable):
    """A test as a step: it passes its state on, or blocks."""
    return lambda s: s if test(s) else None


class Interpreter:
    """Executes operations over one domain. Each operation runs as its
    flattened primitive steps. The vocabulary's step sequences form one
    prefix tree, so a step that several operations share runs once per
    state."""

    def __init__(self, bk: Program, kind: str):
        domain = _DOMAINS[kind]
        self.steps = dict(domain.transforms)
        self.steps.update((name, _test_step(t)) for name, t in domain.tests.items())
        self.flat = flatten_definitions(bk)
        # vocabulary: learned definitions first, longest flattened
        # sequence first (prefer the biggest steps), then primitives in
        # canonical order
        prim = [p for p in sorted(domain.transforms) if p in bk.registry.entries]
        defined = [p for p in dict.fromkeys(c.head.pred for c in bk.clauses) if p not in prim]
        defined.sort(key=lambda p: -len(self.flat[p]))
        self.vocabulary = defined + prim
        self._build_tree()

    def _sequence(self, op: str) -> tuple:
        return (op,) if op in self.steps else self.flat[op]

    def _build_tree(self):
        """The prefix tree of the vocabulary's step sequences, in preorder
        with the root at 0: node p runs `_step[p]` on the state of node
        `_parent[p]`, its subtree is the nodes before `_skip[p]`, and
        vocabulary operation k ends at node `_end[k]`. Taken in sorted
        order, each sequence adds the nodes past its common prefix with
        the one before it."""
        seqs = [self._sequence(op) for op in self.vocabulary]
        step, parent, end = [None], [0], [0] * len(seqs)
        path, prev = [0], ()  # the previous sequence's nodes, root first
        for k in sorted(range(len(seqs)), key=seqs.__getitem__):
            seq = seqs[k]
            common = len(prev)
            if seq[:common] != prev:
                common = 0
                while seq[common] == prev[common]:
                    common += 1
            del path[common + 1:]
            for name in seq[common:]:
                parent.append(path[-1])
                path.append(len(step))
                step.append(self.steps[name])
            end[k] = path[-1]
            prev = seq
        skip = list(range(1, len(step) + 1))
        for p in range(len(step) - 1, 0, -1):
            skip[parent[p]] = max(skip[parent[p]], skip[p])
        self._step, self._parent, self._skip, self._end = step, parent, skip, end

    def apply(self, op: str, state):
        """One operation's result on `state`, None where it fails."""
        for name in self._sequence(op):
            state = self.steps[name](state)
            if state is None:
                return None
        return state

    def successors(self, state) -> list:
        """Each vocabulary operation's result on `state`, None where it
        fails, in vocabulary order, from one walk of the prefix tree. A
        step that fails cuts its subtree: every operation that extends it
        fails too."""
        step, parent, skip = self._step, self._parent, self._skip
        states = [None] * len(step)
        states[0] = state
        p, n = 1, len(step)
        while p < n:
            s = states[p] = step[p](states[parent[p]])
            p = skip[p] if s is None else p + 1
        return [states[p] for p in self._end]

    def successor(self, k: int, known: dict):
        """The result of vocabulary operation k, run on from the last node
        of its path that `known` (node -> state, the root's at least)
        holds. The nodes it runs are added to `known`, for the next
        operation that shares them."""
        p, todo = self._end[k], []
        while p not in known:
            todo.append(p)
            p = self._parent[p]
        s = known[p]
        while todo and s is not None:
            p = todo.pop()
            s = known[p] = self._step[p](s)
        return s


# ---------------------------------------------------------------------------
# Synthesizer


@dataclass(frozen=True)
class SynthesisLimits:
    max_depth: int = 10
    max_nodes: int = 100_000
    wall_time: float = 10.0

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("need max_depth >= 0")
        if self.max_nodes < 1:
            raise ValueError("need max_nodes >= 1")
        # a NaN wall time would never reach the deadline
        if not (math.isfinite(self.wall_time) and self.wall_time > 0):
            raise ValueError("need a finite wall_time > 0")


def _sequence_to_program(task: SynthesisTask, ops: list, bk: Program) -> Program:
    """One task clause threading the state A -> V1 -> ... -> B through the
    operations. A call of arity a is written (V_k, a-2 fresh vars, V_k+1),
    so calls of wider defined predicates keep their declared arity."""
    registry = bk.registry.copy()
    registry.declare(task.name, 2, "task")
    fresh = (Var(f"V{k}") for k in itertools.count(1))
    state = Var("A")
    body = []
    for k, op in enumerate(ops):
        middle = tuple(next(fresh) for _ in range(registry.arity(op) - 2))
        nxt = Var("B") if k == len(ops) - 1 else next(fresh)
        body.append(Atom(op, (state,) + middle + (nxt,)))
        state = nxt
    head = Atom(task.name, (Var("A"), state))
    return Program((Clause(head, tuple(body)),), registry)


def synthesize(task: SynthesisTask, bk: Program, limits: SynthesisLimits):
    """Shortest operation sequence (iterative deepening, deterministic
    order) mapping every example input to its output. Returns
    (solution Program or None, nodes expanded); a node is one candidate
    sequence prefix executed."""
    interp = Interpreter(bk, task.kind)
    reached, viable = _DOMAINS[task.kind].reached, _DOMAINS[task.kind].viable
    vocab = interp.vocabulary
    starts = [inp for inp, _ in task.examples]
    goals = [out for _, out in task.examples]
    deadline = time.monotonic() + limits.wall_time
    nodes = 0

    if all(reached(s, g) for s, g in zip(starts, goals)):
        return _sequence_to_program(task, [], bk), nodes

    for depth in range(1, limits.max_depth + 1):
        path: list = []
        # transposition table: example-state vector -> shallowest depth
        # reached this iteration; equal states at equal-or-greater depth
        # are duplicate candidates and are not re-tested
        seen: dict = {tuple(starts): 0}

        def dfs(states) -> Optional[list]:
            nonlocal nodes
            if len(path) == depth:
                return None
            # the first example's successors in one walk; a later
            # example runs an op only once the op has passed every
            # earlier example
            first = interp.successors(states[0])
            later = [{0: s} for s in states[1:]]
            for k, op in enumerate(vocab):
                if nodes >= limits.max_nodes or time.monotonic() > deadline:
                    return None
                nxt = []
                ok = True
                for e, g in enumerate(goals):
                    s2 = interp.successor(k, later[e - 1]) if e else first[k]
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
                # one candidate program tested: the extended sequence is
                # executable on every example and gets checked against the
                # goals
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
            return _sequence_to_program(task, solution, bk), nodes
        if nodes >= limits.max_nodes or time.monotonic() > deadline:
            break
    return None, nodes


# ---------------------------------------------------------------------------
# Lifelong accumulation and the benchmark driver


def accumulate_background(tasks: list, base: Program, limits: SynthesisLimits):
    """Solve tasks in order against the growing knowledge base; each
    solution is flattened to primitives and added as a reusable
    definition. Returns (knowledge base Program, solved task names)."""
    bk = Program(tuple(base.clauses), base.registry.copy())
    # bk's definitions flattened, grown with bk: an added clause calls
    # primitives only, and an earlier definition of its name wins
    flat = flatten_definitions(bk)
    solved = []
    for task in tasks:
        solution, _ = synthesize(task, bk, limits)
        if solution is None:
            continue
        seq = [op for lit in solution.clauses[0].body for op in flat.get(lit.pred, (lit.pred,))]
        flat_prog = _sequence_to_program(task, seq, bk)
        bk = Program(bk.clauses + flat_prog.clauses, flat_prog.registry)
        flat.setdefault(task.name, tuple(seq))
        solved.append(task.name)
    return bk, solved


@dataclass
class BenchResult:
    rows: list = field(default_factory=list)  # dicts: task/condition/solved/nodes/seconds
    bk_stats: dict = field(default_factory=dict)  # label -> {literals, predicates}

    def aggregates(self) -> dict:
        agg: dict = {}
        for row in self.rows:
            a = agg.setdefault(
                row["condition"], {"tasks": 0, "solved": 0, "nodes": 0, "seconds": 0.0}
            )
            a["tasks"] += 1
            a["solved"] += int(row["solved"])
            a["nodes"] += row["nodes"]
            a["seconds"] += row["seconds"]
        return agg

    def render(self) -> str:
        lines = []
        for row in self.rows:
            lines.append(
                f"{row['condition']}\t{row['task']}\t"
                f"{int(row['solved'])}\t{row['nodes']}\t{row['seconds']:.3f}"
            )
        lines.append("")
        lines.append(f"{'condition':<16}{'solved':>8}{'nodes':>12}{'seconds':>10}")
        for label, a in sorted(self.aggregates().items()):
            lines.append(
                f"{label:<16}{a['solved']:>5}/{a['tasks']:<3}"
                f"{a['nodes']:>11}{a['seconds']:>10.2f}"
            )
        for label, st in sorted(self.bk_stats.items()):
            lines.append(
                f"bk[{label}]: literals={st['literals']} predicates={st['predicates']}"
            )
        return "\n".join(lines) + "\n"


def run_benchmark(conditions: list, tasks: list, limits: SynthesisLimits) -> BenchResult:
    """Runs synthesize for every task under every (label, knowledge base)
    condition with identical limits."""
    if not conditions:
        raise ValueError("at least one condition is required")
    result = BenchResult()
    for label, bk in conditions:
        result.bk_stats[label] = {
            "literals": bk.size,
            "predicates": len(bk.predicates()),
        }
        for task in tasks:
            t0 = time.monotonic()
            solution, nodes = synthesize(task, bk, limits)
            result.rows.append(
                {
                    "condition": label,
                    "task": task.name,
                    "solved": solution is not None,
                    "nodes": nodes,
                    "seconds": time.monotonic() - t0,
                }
            )
    return result
