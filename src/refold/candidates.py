"""Level-wise extraction, pruning, and folding enumeration of candidate
support clauses."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from .logic import (
    Atom,
    Clause,
    first_occurrence_vars,
    keyed_subsets,
)
from .transform import (
    IndexedBody,
    Pattern,
    UnfoldedProgram,
    _disjoint_subsets,
    _max_disjoint_count,
    apply_match_set,
    find_body_matches,
    pred_counts,
)

DEFAULT_FOLDING_CAP = 500
RED_SUBBODY_MAX = 3  # the redundancy penalty counts sub-bodies of 2..3 literals


@dataclass(frozen=True)
class CandidateSupportClause:
    """`usage` counts foldable occurrences (UsageIndex.usage). When the
    literal-count bound already fails is_profitable, no match is run and
    `usage` holds that bound, which is at least the true count."""

    id: int
    clause: Clause
    level: int
    dependencies: frozenset  # candidate ids (level > 1 only)
    usage: int

    @property
    def body_size(self) -> int:
        return len(self.clause.body)

    @property
    def size(self) -> int:
        return self.body_size + 1

    @property
    def pred(self) -> str:
        return self.clause.head.pred


@dataclass(frozen=True)
class FoldingOption:
    literals: tuple
    required: frozenset  # candidate ids whose heads appear in literals

    @property
    def size(self) -> int:
        return len(self.literals) + 1


@dataclass
class LevelStats:
    level: int
    extracted: int = 0
    after_usage_prune: int = 0
    folding_options: int = 0
    truncated_clauses: int = 0  # clauses whose options folding_cap cut


@dataclass
class LevelledSearchSpace:
    candidates: list  # all CandidateSupportClause, any level
    foldings: dict  # clause_index -> {level -> [FoldingOption]}
    max_level: int
    stats: list = field(default_factory=list)
    stop_reason: str = ""
    # per raw clause, keyed_subsets for level-1 extraction and redundancy
    subbodies: list = field(default_factory=list)


def fresh_name(name: str, taken) -> str:
    """`name`, with "_" appended until it is not in `taken`. Invented
    names end in a digit, so a lengthened one cannot be invented again."""
    while name in taken:
        name += "_"
    return name


def make_candidate_clause(subset: tuple, pred: str) -> Clause:
    """Invented head over the subset's variables in first-occurrence order."""
    head = Atom(pred, tuple(first_occurrence_vars(subset)))
    return Clause(head, subset)


def variant_classes(bodies: list, subbodies: list, lo: int, hi: int) -> dict:
    """Variant key -> the first sub-body of lo..hi literals with that key,
    in body order; `subbodies[k]` is keyed_subsets of bodies[k]."""
    classes: dict = {}
    for body, keyed in zip(bodies, subbodies):
        for idxs, key in keyed:
            if lo <= len(idxs) <= hi and key not in classes:
                classes[key] = tuple(body[k] for k in idxs)
    return classes


def is_profitable(size: int, usage: int) -> bool:
    return usage * (size - 1) > usage + size


def prune_unprofitable(cands: list) -> list:
    """Drop candidates that can never shrink the program:
    usage*(size-1) <= usage + size."""
    return [c for c in cands if is_profitable(c.size, c.usage)]


class UsageIndex:
    """Inverted gate index over groups of alternative bodies (a group is
    one clause's bodies). A pattern matches a body only if
    pred_counts(pattern) <= pred_counts(body): each pattern literal needs
    its own body literal of the same predicate and arity. So each
    (pred, arity, k) maps to the bodies with k or more such literals, and
    the only bodies a pattern can match are an intersection of posting
    sets, found without a scan. A body's IndexedBody is built on its
    first match and serves every later one; the index, and with it the
    IndexedBody forms, lives for one level."""

    def __init__(self, groups: list):
        self.bodies: list = []  # (group, body, pred_counts of body)
        self.postings: dict = {}  # (pred, arity, k) -> set of body ids
        for g, group in enumerate(groups):
            for body in group:
                have = pred_counts(body)
                for (p, a), n in have.items():
                    for k in range(1, n + 1):
                        self.postings.setdefault((p, a, k), set()).add(len(self.bodies))
                self.bodies.append((g, body, have))
        self._indexed: list = [None] * len(self.bodies)

    def indexed(self, bid: int) -> IndexedBody:
        """The IndexedBody of body `bid`, built on the first call."""
        form = self._indexed[bid]
        if form is None:
            form = self._indexed[bid] = IndexedBody(self.bodies[bid][1])
        return form

    def gated(self, need: dict) -> set:
        """Ids of the bodies with need[pa] or more literals of each pa."""
        sets = sorted(
            (self.postings.get((*pa, n), set()) for pa, n in need.items()), key=len
        )
        return sets[0].intersection(*sets[1:])

    def usage(self, pattern: tuple, head: Atom, worth) -> int:
        """Foldable occurrences of `pattern`: per group, the most disjoint
        matches in one of its bodies, summed. Counting occurrences, not
        clauses, keeps the profitability prune loss-free. A body of L
        literals, with c of each (pred, arity) pa the pattern has n of,
        holds at most min(L // len(pattern), c // n) matches. Unless
        worth(bound) holds for the sum of each group's largest such cap,
        that bound is returned and nothing is matched."""
        need = pred_counts(pattern)
        caps = []
        best: dict = {}  # group -> largest cap among its gated bodies
        for bid in self.gated(need):
            g, body, have = self.bodies[bid]
            cap = len(body) // len(pattern)
            cap = min(cap, *(have[pa] // n for pa, n in need.items()))
            caps.append((g, bid, cap))
            best[g] = max(best.get(g, 0), cap)
        bound = sum(best.values())
        if not worth(bound):
            return bound
        form = Pattern(pattern, head)
        exact: dict = {}
        for g, bid, cap in caps:
            if cap > exact.get(g, 0):
                found = _max_disjoint_count(find_body_matches(self.indexed(bid), form))
                exact[g] = max(exact.get(g, 0), min(cap, found))
        return sum(exact.values())


def extract_candidates(
    clauses: list,
    i: int,
    j: int,
    level: int,
    invented: Optional[dict] = None,
    index: Optional[UsageIndex] = None,
    subbodies: Optional[list] = None,
) -> list:
    """One candidate per variant class of connected body subsets of size
    in [i, j], with ids 0, 1, ... and usage counts.

    `invented` maps the previous level's invented predicates to their
    candidate ids: bodies keep only those predicates, and a candidate
    depends on the ids of its literals. `index` counts usage over its
    groups (defaults to one group per input clause). `subbodies` may give
    each (filtered) body's keyed_subsets over a window holding [i, j], so
    that an enumeration made for other uses is not repeated.
    """
    if i < 1 or j < i:
        raise ValueError(f"invalid size window [{i}, {j}]")
    bodies = [c.body if isinstance(c, Clause) else tuple(c) for c in clauses]
    if index is None:
        index = UsageIndex([[b] for b in bodies])
    if invented is not None:
        bodies = [tuple(l for l in b if l.pred in invented) for b in bodies]
    if subbodies is None:
        subbodies = [keyed_subsets(b, i, j) for b in bodies]
    out = []
    for ordinal, subset in enumerate(variant_classes(bodies, subbodies, i, j).values()):
        clause = make_candidate_clause(subset, f"inv_{level}_{ordinal}")
        deps = frozenset(invented[l.pred] for l in subset) if invented else frozenset()
        size = len(subset) + 1
        usage = index.usage(subset, clause.head, lambda u: is_profitable(size, u))
        out.append(
            CandidateSupportClause(
                id=ordinal,
                clause=clause,
                level=level,
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
    unfolded program. Level 0 holds the raw clauses. Each level's
    UsageIndex, with one group per clause over its options at the level
    below, serves that level's extraction, usage counts and folding.
    Kept candidates are named inv_<level>_<k>, made fresh against the
    input's predicates."""
    # one enumeration of the raw bodies serves level-1 extraction and the
    # redundancy penalty
    subbodies = [
        keyed_subsets(c.body, min(i, 2), max(j, RED_SUBBODY_MAX)) for c in u.clauses
    ]
    foldings: dict = {
        idx: {0: [FoldingOption(literals=c.body, required=frozenset())]}
        for idx, c in enumerate(u.clauses)
    }

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
        if all(len(o.literals) <= 1 for levels in foldings.values() for o in levels.get(level, [])):
            stop_reason = "all bodies reduced to one literal"
            break
        level += 1
        index = UsageIndex(
            [[o.literals for o in levels.get(level - 1, [])] for levels in foldings.values()]
        )
        st = LevelStats(level=level)
        stats.append(st)
        cands = extract_candidates(
            [body for _, body, _ in index.bodies],
            i,
            j,
            level,
            # level-1 bodies are the raw ones, with nothing to filter out
            invented=None if level == 1 else {
                c.pred: c.id for c in all_cands if c.level == level - 1
            },
            index=index,
            subbodies=subbodies if level == 1 else None,
        )
        st.extracted = len(cands)
        if prune:
            cands = prune_unprofitable(cands)
        st.after_usage_prune = len(cands)
        # reassign contiguous ids after pruning
        cands = [
            replace(
                c,
                id=len(all_cands) + k,
                clause=Clause(
                    Atom(fresh_name(f"inv_{level}_{k}", u.registry.entries), c.clause.head.args),
                    c.clause.body,
                ),
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
        # the (id, Pattern) of each candidate a base body can match, in id
        # order
        fold_with: list = [[] for _ in index.bodies]
        for c in cands:
            form = Pattern(c.clause.body, c.clause.head)
            for bid in index.gated(form.need):
                fold_with[bid].append((c.id, form))
        by_clause = itertools.groupby(enumerate(index.bodies), key=lambda e: e[1][0])
        for idx, bases in by_clause:
            opts_here: list = []
            seen_sigs: set = set()
            # the clause counts as truncated once, if the cap cut a base
            # body's options or left a base body unfolded
            cut = False
            for bid, _ in bases:
                if len(opts_here) >= folding_cap:
                    cut = True
                    break
                if not fold_with[bid]:
                    continue  # no options, and no IndexedBody built
                opts, truncated = _fold_one(
                    index.indexed(bid), fold_with[bid], folding_cap - len(opts_here),
                    pred_to_id,
                )
                cut = cut or truncated
                for o in opts:
                    if o.literals not in seen_sigs:
                        seen_sigs.add(o.literals)
                        opts_here.append(o)
            st.truncated_clauses += cut
            if opts_here:
                foldings[idx][level] = opts_here
                st.folding_options += len(opts_here)

    return LevelledSearchSpace(
        candidates=all_cands,
        foldings=foldings,
        max_level=level,
        stats=stats,
        stop_reason=stop_reason,
        subbodies=subbodies,
    )


def _fold_one(body: IndexedBody, patterns: list, cap: int, pred_to_id: dict) -> tuple:
    """Fold one base body with `patterns`, the (id, Pattern) of each of
    the level's candidates that the level's UsageIndex gates it to, into
    at most `cap` (>= 1) options; leftovers stay raw. `pred_to_id` maps
    every invented predicate so far to its candidate id. Returns
    (options, whether the cap cut some)."""
    matches = []
    for cid, form in patterns:
        for idxs, head in find_body_matches(body, form):
            matches.append((idxs, head, cid))
    if not matches:
        return [], False
    matches.sort(key=lambda m: (sorted(m[0]), m[2]))
    indexed = [(m[0], m[1]) for m in matches]
    subsets = _disjoint_subsets(indexed, cap=cap + 1)
    truncated = len(subsets) > cap
    options = []
    for sub in subsets[:cap]:
        folded = apply_match_set(Clause(Atom("h"), body.literals), sub)
        lits = folded.body
        required = frozenset(
            pred_to_id[l.pred] for l in lits if l.pred in pred_to_id
        )
        options.append(FoldingOption(literals=lits, required=required))
    return options, truncated
