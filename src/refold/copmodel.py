"""Pseudo-Boolean encoding of support-clause selection, and decoding of
solver assignments back into programs.

Variables (only the families the objective charges):
  SC(cand)              candidate support clause is selected
  PICK(cl, lvl, n)      folding option n of level lvl is the one emitted
                        for clause cl
  RED(group)            a sub-body class occurs at least twice among the
                        input clauses and the selected candidates; every
                        group's base (input clauses holding it) is 0 or 1

Constraints (all normalised to sum(coef * var) >= rhs):
  - exactly one PICK per clause
  - PICK implies every SC its folding option requires
  - SC(k) -> SC(dep) for every dependency
  - RED(g) <-> (input occurrences + selected member SC vars > 1)

A clause's folding options are ranked as the completion takes them:
lightest first, then by (level, n). An option gets no PICK var when one
ranked before it requires a subset of its SCs, as it is then never taken
and never sets the search's bound. `clause_picks[cl]` lists the kept
options' PICK vars in rank order, ending with the raw body's, PICK(cl,
0, 0), which requires no SC, so every selection leaves each clause an
option. The solver's search relies on this and rejects other lists.

The objective charges size(option) on PICK, size(candidate) on SC, and 1
on RED, so the optimum value equals the emitted program's literal count
plus the penalties of the modelled classes. A class that two input
clauses share is paid whatever the selection, so it is left out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .logic import Clause, Program
from .transform import UnfoldedProgram
from .candidates import RED_SUBBODY_MAX, LevelledSearchSpace, Run

DEFAULT_RED_GROUP_CAP = 2000
# a model over either size makes refactor() return its input
MAX_VARIABLES = 200_000
MAX_CONSTRAINTS = 500_000


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class LinearConstraint:
    """sum(coef * var) >= rhs over Boolean vars."""

    terms: tuple  # ((coef, var_index), ...)
    rhs: int
    label: str = ""

    def satisfied(self, values) -> bool:
        return sum(c for c, v in self.terms if values[v]) >= self.rhs


@dataclass
class CopModel:
    vars: list  # index -> tag tuple, e.g. ("SC", cid) or ("PICK", cl, lvl, n)
    constraints: list
    objective: dict  # var index -> nonnegative integer weight
    # decoding / oracle metadata
    sc_vars: dict = field(default_factory=dict)  # cand id -> var
    pick_required: dict = field(default_factory=dict)  # pick var -> tuple of sc vars
    sc_deps: dict = field(default_factory=dict)  # sc var -> tuple of sc vars
    red_members: dict = field(default_factory=dict)  # red var -> tuple of sc vars
    red_base: dict = field(default_factory=dict)  # red var -> constant member count
    clause_picks: dict = field(default_factory=dict)  # cl -> ranked [pick var]
    sc_cap: Optional[int] = None

    @property
    def num_vars(self) -> int:
        return len(self.vars)


@dataclass
class Assignment:
    values: list  # var index -> bool
    objective_value: int
    status: str  # optimal | feasible | infeasible | timeout-best


def check_assignment(model: CopModel, values) -> bool:
    """Independent evaluator: every constraint holds under `values`."""
    return all(c.satisfied(values) for c in model.constraints)


def objective_value(model: CopModel, values) -> int:
    return sum(w for v, w in model.objective.items() if values[v])


def encode(
    space: LevelledSearchSpace,
    unfolded: UnfoldedProgram,
    red_group_cap: int = DEFAULT_RED_GROUP_CAP,
    original_predicates: Optional[int] = None,
    run: Optional[Run] = None,
) -> CopModel:
    """The model of `space`, with at most `red_group_cap` RED groups.
    Given `original_predicates`, the input's predicate count, the output
    may use no more predicates than that. Candidate bodies are keyed
    with `run`'s forms (defaults to a new Run). Raises ModelError for a
    model over MAX_VARIABLES or MAX_CONSTRAINTS."""
    m = CopModel(vars=[], constraints=[], objective={})

    def new_var(tag) -> int:
        m.vars.append(tag)
        return len(m.vars) - 1

    def add(terms, rhs, label=""):
        m.constraints.append(LinearConstraint(tuple(terms), rhs, label))

    for cand in space.candidates:
        v = new_var(("SC", cand.id))
        m.sc_vars[cand.id] = v
        m.objective[v] = cand.size
    for cand in space.candidates:
        sv = m.sc_vars[cand.id]
        deps = tuple(m.sc_vars[d] for d in sorted(cand.dependencies))
        m.sc_deps[sv] = deps
        for dv in deps:
            add([(1, dv), (-1, sv)], 0, "sc-dep")

    for cl in sorted(space.foldings):
        levels = space.foldings[cl]
        ranked = sorted(
            (o.size, lvl, n, o.required) for lvl in levels for n, o in enumerate(levels[lvl])
        )
        picks, kept = [], []  # kept: the required sets of the picks
        for size, lvl, n, required in ranked:
            if any(k <= required for k in kept):
                continue
            kept.append(required)
            pvar = new_var(("PICK", cl, lvl, n))
            m.objective[pvar] = size
            m.pick_required[pvar] = tuple(m.sc_vars[cid] for cid in sorted(required))
            for sv in m.pick_required[pvar]:
                add([(1, sv), (-1, pvar)], 0, "pick-needs-sc")
            picks.append(pvar)
        # exactly one pick
        add([(1, p) for p in picks], 1, "pick-lo")
        add([(-1, p) for p in picks], -1, "pick-hi")
        m.clause_picks[cl] = picks

    _encode_redundancy(m, space, red_group_cap, new_var, add, run or Run())

    if original_predicates is not None:
        base = len(
            {l.pred for c in unfolded.clauses for l in c.body}
            | {c.head.pred for c in unfolded.clauses}
        )
        cap = max(0, original_predicates - base)
        m.sc_cap = cap
        if m.sc_vars:
            add([(-1, v) for v in m.sc_vars.values()], -cap, "pred-cap")

    if m.num_vars > MAX_VARIABLES:
        raise ModelError(f"model has {m.num_vars} variables (cap {MAX_VARIABLES})")
    if len(m.constraints) > MAX_CONSTRAINTS:
        raise ModelError(
            f"model has {len(m.constraints)} constraints (cap {MAX_CONSTRAINTS})"
        )
    return m


def _encode_redundancy(m: CopModel, space, red_group_cap: int, new_var, add, run: Run):
    """One RED var per variant class of connected sub-bodies (size >= 2)
    that a selection can make occur in two or more clauses: its base, the
    input clauses holding it, is 0 or 1, and its base plus the candidates
    holding it is at least 2. `red_group_cap` bounds these, largest first.
    The penalty is monotone in the selection -- adding a candidate can
    only introduce redundancy, never remove it -- which is what keeps the
    profitability prune loss-free. The raw clauses' sub-bodies come from
    the search space's enumeration."""
    classes: dict = {}  # key -> [size, set of raw clause indices, [sc vars]]
    for cl in sorted(space.foldings):
        for idxs, key in space.subbodies[cl]:
            if 2 <= len(idxs) <= RED_SUBBODY_MAX:
                classes.setdefault(key, [len(idxs), set(), []])[1].add(cl)
    for cand in space.candidates:
        svar = m.sc_vars[cand.id]
        sizes = {
            key: len(idxs)
            for idxs, key in run.keyed_subsets(cand.clause.body, 2, RED_SUBBODY_MAX)
        }
        for key, size in sizes.items():
            classes.setdefault(key, [size, set(), []])[2].append(svar)
    groups = [
        (size, key, len(raw_cls), members)
        for key, (size, raw_cls, members) in classes.items()
        if len(raw_cls) <= 1 and len(raw_cls) + len(members) >= 2
    ]
    groups.sort(key=lambda g: (-g[0], g[1]))
    for gid, (size, key, base, members) in enumerate(groups[:red_group_cap]):
        rvar = new_var(("RED", gid))
        m.red_members[rvar] = tuple(members)
        m.red_base[rvar] = base
        m.objective[rvar] = 1
        k = base + len(members)
        # r forced when two members occur: (k-1)*r - sum(sc) >= base - 1
        add([(k - 1, rvar)] + [(-1, f) for f in members], base - 1, "red-force")
        # r honest, only when two members occur: sum(sc) - 2r >= -base
        add([(1, f) for f in members] + [(-2, rvar)], -base, "red-honest")


def decode(
    model: CopModel,
    a: Assignment,
    space: LevelledSearchSpace,
    unfolded: UnfoldedProgram,
) -> Program:
    """The primitive-headed clauses, selected foldings (one per clause)
    and selected candidates' clauses."""
    if a.status == "infeasible":
        raise ModelError("cannot decode an infeasible assignment")
    if not check_assignment(model, a.values):
        raise ModelError("assignment violates the model constraints (solver bug)")
    clauses = list(unfolded.primitive_clauses)
    for cl in sorted(space.foldings):
        chosen = next((p for p in model.clause_picks[cl] if a.values[p]), None)
        if chosen is None:
            raise ModelError(f"no folding picked for clause {cl}")
        _, _, lvl, n = model.vars[chosen]
        clauses.append(Clause(unfolded.clauses[cl].head, space.foldings[cl][lvl][n].literals))
    # candidate ids already run in level order
    registry = unfolded.registry.copy()
    for cand in space.candidates:
        if a.values[model.sc_vars[cand.id]]:
            registry.declare(cand.pred, cand.clause.head.arity, "support")
            clauses.append(cand.clause)
    return Program(tuple(clauses), registry)


def render_model(model: CopModel) -> str:
    """Line-oriented pseudo-Boolean dump (OPB-style) for external solvers."""
    lines = []
    obj = " ".join(
        f"+{w} x{v + 1}" for v, w in sorted(model.objective.items()) if w
    )
    lines.append(f"min: {obj} ;")
    for c in model.constraints:
        terms = " ".join(f"{coef:+d} x{v + 1}" for coef, v in c.terms)
        lines.append(f"{terms} >= {c.rhs} ;")
    return "\n".join(lines) + "\n"
