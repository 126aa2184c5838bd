"""Level-wise extraction, pruning, and folding enumeration of candidate
support clauses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .logic import (
    Atom,
    Clause,
    connected_subsets,
    first_occurrence_vars,
    variant_key,
)
from .transform import (
    UnfoldedProgram,
    _disjoint_subsets,
    apply_match_set,
    find_body_matches,
    pred_multiset,
)

DEFAULT_FOLDING_CAP = 500


@dataclass(frozen=True)
class CandidateSupportClause:
    id: int
    clause: Clause
    level: int
    body_size: int
    dependencies: frozenset  # candidate ids (level > 1 only)
    usage: int

    @property
    def size(self) -> int:
        return self.body_size + 1

    @property
    def pred(self) -> str:
        return self.clause.head.pred


@dataclass(frozen=True)
class FoldingOption:
    clause_index: int
    level: int
    literals: tuple
    required: frozenset  # candidate ids whose heads appear in literals

    @property
    def size(self) -> int:
        return len(self.literals) + 1


@dataclass
class LevelStats:
    level: int
    extracted: int = 0
    after_singleton_prune: int = 0
    after_usage_prune: int = 0
    folding_options: int = 0
    truncated_clauses: int = 0


@dataclass
class LevelledSearchSpace:
    candidates: list  # all CandidateSupportClause, any level
    foldings: dict  # clause_index -> {level -> [FoldingOption]}
    max_level: int
    stats: list = field(default_factory=list)
    stop_reason: str = ""

    def by_id(self, cid: int) -> CandidateSupportClause:
        return self.candidates[cid]

    def candidate_closure(self, ids: frozenset) -> frozenset:
        """ids plus all transitive dependencies."""
        out = set()
        stack = list(ids)
        while stack:
            cid = stack.pop()
            if cid in out:
                continue
            out.add(cid)
            stack.extend(self.by_id(cid).dependencies)
        return frozenset(out)


def make_candidate_clause(subset: tuple, pred: str) -> Clause:
    """Invented head over the subset's variables in first-occurrence order."""
    head = Atom(pred, tuple(first_occurrence_vars(subset)))
    return Clause(head, subset)


def has_singleton_variable(c: Clause) -> bool:
    counts: dict = {}
    for v in c.variables():
        counts[v] = counts.get(v, 0) + 1
    return any(n == 1 for n in counts.values())


def prune_singletons(cands: list) -> list:
    """Drop candidates with a variable occurring exactly once in the whole
    clause (head included)."""
    return [c for c in cands if not has_singleton_variable(c.clause)]


def is_profitable(size: int, usage: int) -> bool:
    return usage * (size - 1) > usage + size


def prune_unprofitable(cands: list) -> list:
    """Drop candidates that can never shrink the program:
    usage*(size-1) <= usage + size."""
    return [c for c in cands if is_profitable(c.size, c.usage)]


def _max_disjoint_count(matches: list, node_cap: int = 10_000) -> int:
    """Maximum number of pairwise index-disjoint matches. Falls back to
    len(matches) (a safe over-estimate) if the search exceeds node_cap."""
    best = 0
    nodes = 0

    def rec(start: int, used: frozenset, depth: int) -> bool:
        nonlocal best, nodes
        best = max(best, depth)
        for k in range(start, len(matches)):
            nodes += 1
            if nodes > node_cap:
                return False
            idxs, _ = matches[k]
            if idxs & used:
                continue
            if not rec(k + 1, used | idxs, depth + 1):
                return False
        return True

    if rec(0, frozenset(), 0):
        return best
    return len(matches)


def _count_usage(body: tuple, head: Atom, clause_groups: list) -> int:
    """Total foldable occurrences: for each group (a clause's alternative
    bodies), the largest number of disjoint matches over any alternative.
    Counting occurrences rather than clauses keeps the profitability prune
    an upper bound on what folding can save, so pruning never discards a
    candidate that some optimal refactoring needs.

    A group holds (alternative body, its pred_multiset) pairs; the matcher
    runs only on bodies whose multiset contains the pattern's."""
    need = pred_multiset(body)
    n = 0
    for group in clause_groups:
        n += max(
            (
                _max_disjoint_count(find_body_matches(b, body, head))
                for b, have in group
                if need <= have
            ),
            default=0,
        )
    return n


def extract_candidates(
    clauses: list,
    i: int,
    j: int,
    level: int,
    allowed_preds: Optional[set] = None,
    pred_to_id: Optional[dict] = None,
    id_start: int = 0,
    usage_groups: Optional[list] = None,
) -> list:
    """One candidate per variant class of connected body subsets of size
    in [i, j], with deterministic ids and usage counts.

    `usage_groups` is a list of clause-body groups; a candidate's usage is
    the number of groups containing at least one match (defaults to one
    group per input clause).
    """
    if i < 1 or j < i:
        raise ValueError(f"invalid size window [{i}, {j}]")
    by_class: dict = {}
    order: list = []
    for c in clauses:
        body = c.body if isinstance(c, Clause) else tuple(c)
        if allowed_preds is not None:
            body = tuple(l for l in body if l.pred in allowed_preds)
        for subset in connected_subsets(body, i, j):
            key = variant_key(subset)
            if key not in by_class:
                by_class[key] = subset
                order.append(key)
    if usage_groups is None:
        usage_groups = [[c.body if isinstance(c, Clause) else tuple(c)] for c in clauses]
    keyed_groups = [[(b, pred_multiset(b)) for b in group] for group in usage_groups]
    out = []
    for ordinal, key in enumerate(order):
        subset = by_class[key]
        cid = id_start + ordinal
        clause = make_candidate_clause(subset, f"inv_{level}_{ordinal}")
        deps = frozenset()
        if level > 1 and pred_to_id is not None:
            deps = frozenset(pred_to_id[l.pred] for l in subset if l.pred in pred_to_id)
        usage = _count_usage(subset, clause.head, keyed_groups)
        out.append(
            CandidateSupportClause(
                id=cid,
                clause=clause,
                level=level,
                body_size=len(subset),
                dependencies=deps,
                usage=usage,
            )
        )
    return out


def build_search_space(
    u: UnfoldedProgram,
    i: int,
    j: int,
    max_levels: Optional[int] = None,
    folding_cap: int = DEFAULT_FOLDING_CAP,
    prune: bool = True,
) -> LevelledSearchSpace:
    """Alternate extract -> prune -> fold per level, starting from the
    unfolded program. Level 0 holds the raw clauses."""
    primitives = {l.pred for c in u.clauses for l in c.body}
    foldings: dict = {}
    current: dict = {}  # clause_index -> list of FoldingOption at last level
    for idx, c in enumerate(u.clauses):
        raw = FoldingOption(clause_index=idx, level=0, literals=c.body, required=frozenset())
        foldings[idx] = {0: [raw]}
        current[idx] = [raw]

    all_cands: list = []
    stats: list = []
    pred_to_id: dict = {}
    level = 0
    stop_reason = ""
    hard_level_cap = 64  # safety net when max_levels is unlimited
    while True:
        if max_levels is not None and level >= max_levels:
            stop_reason = "max levels reached"
            break
        if level >= hard_level_cap:
            stop_reason = "hard level cap reached"
            break
        if all(all(len(o.literals) <= 1 for o in opts) for opts in current.values()):
            stop_reason = "all bodies reduced to one literal"
            break
        level += 1
        allowed = primitives if level == 1 else {
            c.pred for c in all_cands if c.level == level - 1
        }
        source_bodies = []
        usage_groups = []
        for idx in sorted(current):
            group = [o.literals for o in current[idx]]
            usage_groups.append(group)
            source_bodies.extend(group)
        st = LevelStats(level=level)
        cands = extract_candidates(
            [tuple(b) for b in source_bodies],
            i,
            j,
            level,
            allowed_preds=allowed,
            pred_to_id=pred_to_id if level > 1 else None,
            id_start=len(all_cands),
            usage_groups=usage_groups,
        )
        st.extracted = len(cands)
        if prune:
            cands = prune_singletons(cands)
            st.after_singleton_prune = len(cands)
            cands = prune_unprofitable(cands)
            st.after_usage_prune = len(cands)
        else:
            st.after_singleton_prune = len(cands)
            st.after_usage_prune = len(cands)
        # reassign contiguous ids after pruning
        cands = [
            CandidateSupportClause(
                id=len(all_cands) + k,
                clause=Clause(Atom(f"inv_{level}_{k}", c.clause.head.args), c.clause.body),
                level=c.level,
                body_size=c.body_size,
                dependencies=c.dependencies,
                usage=c.usage,
            )
            for k, c in enumerate(cands)
        ]
        if not cands:
            level -= 1
            stop_reason = "no candidates survived pruning"
            break
        for c in cands:
            all_cands.append(c)
            pred_to_id[c.pred] = c.id
        cand_keys = [pred_multiset(c.clause.body) for c in cands]
        new_current: dict = {}
        any_options = False
        for idx in sorted(current):
            opts_here: list = []
            seen_sigs: set = set()
            for base in current[idx]:
                opts, truncated = _fold_one(
                    idx,
                    base,
                    cands,
                    cand_keys,
                    level,
                    folding_cap - len(opts_here),
                    pred_to_id,
                )
                if truncated:
                    st.truncated_clauses += 1
                for o in opts:
                    sig = tuple(map(repr, o.literals))
                    if sig not in seen_sigs:
                        seen_sigs.add(sig)
                        opts_here.append(o)
                if len(opts_here) >= folding_cap:
                    st.truncated_clauses += 1
                    break
            if opts_here:
                foldings[idx][level] = opts_here
                new_current[idx] = opts_here
                any_options = True
                st.folding_options += len(opts_here)
            else:
                new_current[idx] = []
        stats.append(st)
        if not any_options:
            stop_reason = "no foldings at the new level"
            break
        current = new_current

    return LevelledSearchSpace(
        candidates=all_cands,
        foldings=foldings,
        max_level=level,
        stats=stats,
        stop_reason=stop_reason,
    )


def _fold_one(
    clause_index: int,
    base: FoldingOption,
    cands: list,
    cand_keys: list,
    level: int,
    cap: int,
    pred_to_id: dict,
) -> tuple:
    """Fold one base option with the level's candidates; leftovers stay raw.
    `cand_keys[k]` is pred_multiset of cands[k]'s body; the matcher runs
    only on candidates whose multiset the base body's contains.
    `pred_to_id` maps every invented predicate so far to its candidate id."""
    if cap <= 0:
        return [], True
    body = base.literals
    have = pred_multiset(body)
    matches = []
    for cand, need in zip(cands, cand_keys):
        if not need <= have:
            continue
        for idxs, head in find_body_matches(body, cand.clause.body, cand.clause.head):
            matches.append((idxs, head, cand.id))
    if not matches:
        return [], False
    matches.sort(key=lambda m: (sorted(m[0]), m[2]))
    indexed = [(m[0], m[1]) for m in matches]
    subsets = _disjoint_subsets(indexed, cap=cap + 1)
    truncated = len(subsets) > cap
    options = []
    for sub in subsets[:cap]:
        folded = apply_match_set(Clause(Atom("h"), body), sub)
        lits = folded.body
        required = frozenset(
            pred_to_id[l.pred] for l in lits if l.pred in pred_to_id
        )
        options.append(
            FoldingOption(
                clause_index=clause_index,
                level=level,
                literals=lits,
                required=required,
            )
        )
    return options, truncated
