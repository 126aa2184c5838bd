"""End-to-end refactoring: parse -> unfold -> search space -> encode ->
solve -> decode -> verify -> emit, with a full report."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .logic import Program
from .transform import (
    Pattern,
    apply_match_set,
    find_body_matches,
    syntactic_equiv,
    unfold,
)
from .candidates import (
    DEFAULT_FOLDING_CAP,
    RED_SUBBODY_MAX,
    Run,
    UsageIndex,
    build_search_space,
    fresh_name,
    make_candidate_clause,
    variant_classes,
)
from .copmodel import DEFAULT_RED_GROUP_CAP, ModelError, decode, encode, render_model
from .solver import SolveTrace, SolverBudget, solve


class VerificationError(Exception):
    pass


class OutputError(Exception):
    """An output file could not be written."""


HYP_CLAUSES = 5  # clause count of the hypothesis-space statistic


@dataclass
class RefactorConfig:
    min_body: int = 2
    max_body: int = 3
    max_levels: Optional[int] = None
    budget: SolverBudget = field(default_factory=SolverBudget)
    enforce_predicate_cap: bool = False
    folding_cap: int = DEFAULT_FOLDING_CAP
    red_group_cap: int = DEFAULT_RED_GROUP_CAP
    model_dump_path: Optional[str] = None

    def __post_init__(self):
        if not 1 <= self.min_body <= self.max_body:
            raise ValueError("need 1 <= min_body <= max_body")
        if self.max_levels is not None and self.max_levels < 0:
            raise ValueError("need max_levels >= 0")
        if self.folding_cap < 1:
            raise ValueError("need folding_cap >= 1")
        if self.red_group_cap < 0:
            raise ValueError("need red_group_cap >= 0")


@dataclass
class RefactorReport:
    original_literals: int = 0
    unfolded_literals: int = 0
    refactored_literals: int = 0
    original_predicates: int = 0
    refactored_predicates: int = 0
    invented_predicates: int = 0
    candidate_count: int = 0
    max_level: int = 0
    level_stats: list = field(default_factory=list)
    stop_reason: str = ""
    solver_status: str = ""
    objective_value: int = 0
    trace: Optional[SolveTrace] = None
    equivalence_verified: bool = False
    no_gain_fallback: bool = False
    hyp_log_size_before: float = 0.0
    hyp_log_size_after: float = 0.0

    def to_text(self) -> str:
        lines = ["refactoring report", "=" * 18]
        for key, val in self.to_records():
            lines.append(f"{key}: {val}")
        for st in self.level_stats:
            lines.append(
                f"level {st.level}: extracted={st.extracted} "
                f"after_usage={st.after_usage_prune} "
                f"foldings={st.folding_options} truncated={st.truncated_clauses}"
            )
        if self.trace is not None:
            lines.append("incumbents (elapsed_ms objective):")
            for t, obj in self.trace.history:
                lines.append(f"  {int(t * 1000)} {obj}")
        return "\n".join(lines) + "\n"

    def to_records(self) -> list:
        trace = self.trace or SolveTrace()
        return [
            ("original_literals", self.original_literals),
            ("unfolded_literals", self.unfolded_literals),
            ("refactored_literals", self.refactored_literals),
            ("original_predicates", self.original_predicates),
            ("refactored_predicates", self.refactored_predicates),
            ("invented_predicates", self.invented_predicates),
            ("candidate_count", self.candidate_count),
            ("max_level", self.max_level),
            ("stop_reason", self.stop_reason),
            ("solver_status", self.solver_status),
            ("objective_value", self.objective_value),
            ("decisions", trace.decisions),
            ("search_s", f"{trace.search_s:.4f}"),
            ("equivalence_verified", self.equivalence_verified),
            ("no_gain_fallback", self.no_gain_fallback),
            ("hyp_log_size_before", f"{self.hyp_log_size_before:.4f}"),
            ("hyp_log_size_after", f"{self.hyp_log_size_after:.4f}"),
        ]


def hypothesis_space_size(p_count: int, l: int, m: int) -> float:
    """Natural log of binomial(p_count**l, m), the enumeration-space bound
    for programs over p_count predicates with bodies up to l literals and
    up to m clauses."""
    if p_count < 1 or l < 1 or m < 1:
        raise ValueError("all arguments must be >= 1")
    n = p_count**l
    if m > n:
        return float("-inf")
    return sum(math.log(n - k) - math.log(k + 1) for k in range(m))


def _hyp_log_size(p: Program, clauses: int) -> float:
    """hypothesis_space_size over p's predicates, with bodies up to p's
    longest body; 0.0 for a program without predicates."""
    preds = len(p.predicates())
    if not preds:
        return 0.0
    longest = max((len(c.body) for c in p.clauses), default=0)
    return hypothesis_space_size(preds, max(1, longest), clauses)


def refactor(p: Program, cfg: Optional[RefactorConfig] = None):
    """Returns (refactored Program, RefactorReport). The output is always
    machine-verified to be syntactically equivalent to the input, or is
    the input itself: when nothing smaller is found, and when the model
    exceeds copmodel's MAX_VARIABLES or MAX_CONSTRAINTS."""
    cfg = cfg or RefactorConfig()
    report = RefactorReport()
    report.original_literals = p.size
    report.original_predicates = len(p.predicates())
    report.hyp_log_size_before = _hyp_log_size(p, HYP_CLAUSES)
    out = _smaller_program(p, cfg, report) if p.clauses else p
    report.equivalence_verified = True
    report.no_gain_fallback = bool(p.clauses) and out is p
    report.refactored_literals = out.size
    report.refactored_predicates = len(out.predicates())
    report.invented_predicates = len(
        set(out.registry.by_role("support")) - set(p.registry.entries)
    )
    report.hyp_log_size_after = _hyp_log_size(out, HYP_CLAUSES)
    return out, report


def _smaller_program(p: Program, cfg: RefactorConfig, report: RefactorReport) -> Program:
    """Unfold, search space, encode, solve, decode and verify, each
    stage's facts recorded in `report`: a program smaller than `p` and
    verified equivalent to it, or `p` itself."""
    u = unfold(p)
    report.unfolded_literals = u.size
    run = Run()
    space = build_search_space(
        u, cfg.min_body, cfg.max_body, cfg.max_levels, folding_cap=cfg.folding_cap, run=run
    )
    report.candidate_count = len(space.candidates)
    report.max_level = space.max_level
    report.level_stats = space.stats
    report.stop_reason = space.stop_reason

    try:
        model = encode(
            space,
            u,
            red_group_cap=cfg.red_group_cap,
            original_predicates=(
                report.original_predicates if cfg.enforce_predicate_cap else None
            ),
            run=run,
        )
    except ModelError as exc:
        report.stop_reason = f"model cap: {exc}"
        return p
    if cfg.model_dump_path:
        write_text(cfg.model_dump_path, render_model(model))
    assignment, report.trace = solve(model, cfg.budget)
    report.solver_status = assignment.status
    report.objective_value = assignment.objective_value

    out = decode(model, assignment, space, u)
    # u is p's unfolding, so p is not unfolded again
    if not syntactic_equiv(u, out):
        raise VerificationError(
            "decoded program is not syntactically equivalent to the input"
        )
    return out if out.size < p.size else p


def write_text(path: str, text: str):
    """Write `text` to the file `path`; raise OutputError if it cannot."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Greedy deduplication baseline

def remove_redundancy_baseline(p: Program) -> Program:
    """One support clause, named red_<n> fresh against the input's
    predicates, per repeated sub-body of 2..RED_SUBBODY_MAX literals,
    greedily folded everywhere; no optimization. A clause's sub-bodies,
    its forms in one UsageIndex, and each class's count in it are built
    once, and again only after a fold changes it; one Run keys them all."""
    u = unfold(p)
    run = Run()
    clauses = list(u.clauses)
    subbodies = [run.keyed_subsets(c.body, 2, RED_SUBBODY_MAX) for c in clauses]
    index = UsageIndex([[c.body] for c in clauses])
    registry = u.registry.copy()
    counter = 0
    while counter < 1000:
        classes = variant_classes([c.body for c in clauses], subbodies, 2, RED_SUBBODY_MAX)
        shared = []
        for key, sub in classes.items():
            occ = index.usage(sub, lambda u: u >= 2)
            if occ >= 2:
                shared.append((-len(sub), -occ, key, sub))
        if not shared:
            break
        # the largest class, then the one with most disjoint occurrences;
        # variant keys are unique, so no two bodies are compared
        sub = min(shared)[3]
        support = make_candidate_clause(sub, fresh_name(f"red_{counter}", registry.entries))
        counter += 1
        registry.declare(support.head.pred, support.head.arity, "support")
        form = Pattern(sub, support.head)
        for k in sorted(index.gated(form.need)):
            chosen = _greedy_disjoint(find_body_matches(index.indexed(k), form))
            if chosen:
                clauses[k] = apply_match_set(clauses[k], chosen)
                subbodies[k] = run.keyed_subsets(clauses[k].body, 2, RED_SUBBODY_MAX)
                index.put(k, k, clauses[k].body)
        index.put(len(clauses), len(clauses), support.body)
        clauses.append(support)
        subbodies.append(run.keyed_subsets(support.body, 2, RED_SUBBODY_MAX))
    return Program(u.primitive_clauses + tuple(clauses), registry)


def _greedy_disjoint(matches: list) -> list:
    chosen = []
    used: frozenset = frozenset()
    for idxs, head in sorted(matches, key=lambda m: sorted(m[0])):
        if not idxs & used:
            chosen.append((idxs, head))
            used |= idxs
    return chosen
