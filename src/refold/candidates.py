"""Level-wise extraction, pruning, and folding enumeration of candidate
support clauses."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from .logic import (
    Atom,
    Clause,
    Var,
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
    """`usage` counts foldable occurrences (UsageIndex.usage). A pruned
    candidate may not have been matched: if the literal-count bound fails
    is_profitable, `usage` holds that bound; if it passes and the join
    bound fails, `usage` holds the join bound. Either is at least the
    true count."""

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


class Run:
    """What the stages of one refactor() or remove_redundancy_baseline
    call share, dropped when the call returns: `forms`, keyed_subsets's
    memo of variant keys by sub-body signature."""

    def __init__(self):
        self.forms: dict = {}

    def keyed_subsets(self, body: tuple, lo: int, hi: int) -> list:
        return keyed_subsets(body, lo, hi, self.forms)


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


# A join signature ((key, a), (key', b)), its two slots sorted, says that
# one literal of bucket key holds at top-level position a the term that
# another literal of bucket key' holds at position b.

def join_table(body: tuple) -> dict:
    """Join signature -> the fewer of the distinct first and the distinct
    second literals over the pairs of `body`'s literals that share a term
    of any kind in those slots. Built from each term's per-slot literal
    masks, so a term held by k literals of one slot costs no k^2 work."""
    slots: dict = {}  # term (a variable by name) -> {slot: mask of literals}
    for i, lit in enumerate(body):
        key = (lit.pred, len(lit.args))
        for a, t in enumerate(lit.args):
            at = slots.setdefault(t.name if t.__class__ is Var else t, {})
            at[key, a] = at.get((key, a), 0) | 1 << i
    masks: dict = {}  # signature -> [first literals, second literals]
    for at in slots.values():
        items = list(at.items())
        for n, (s1, m1) in enumerate(items):
            for s2, m2 in items[n:]:
                # a literal may not pair with itself: with one literal on
                # the other side, that literal drops out of this side
                first = m1 if m2 & (m2 - 1) else m1 & ~m2
                second = m2 if m1 & (m1 - 1) else m2 & ~m1
                if not first:
                    continue
                if s1 <= s2:
                    pair = masks.setdefault((s1, s2), [0, 0])
                else:
                    pair = masks.setdefault((s2, s1), [0, 0])
                    first, second = second, first
                pair[0] |= first
                pair[1] |= second
    return {sig: min(a.bit_count(), b.bit_count()) for sig, (a, b) in masks.items()}


def pattern_joins(pattern: tuple) -> set:
    """The join signatures of `pattern`: pairs of slots of two of its
    literals that hold one variable at top level."""
    at: dict = {}  # variable -> [(literal index, slot)]
    for k, lit in enumerate(pattern):
        key = (lit.pred, len(lit.args))
        for a, t in enumerate(lit.args):
            if isinstance(t, Var):
                at.setdefault(t, []).append((k, (key, a)))
    return {
        (s1, s2) if s1 <= s2 else (s2, s1)
        for occ in at.values()
        for (k1, s1), (k2, s2) in itertools.combinations(occ, 2)
        if k1 != k2
    }


class _Usage:
    """What a UsageIndex keeps of one pattern (see usage), as of its
    `seen`-th put: each gated body's literal-count cap, its join cap once
    the literal-count bound has passed, its count once matched, and the
    bounds and the count as far as a call got."""

    __slots__ = ("need", "joins", "seen", "caps", "joined", "counts", "sums")

    def __init__(self):
        self.need: dict = {}  # pred_counts of the pattern, set on its first call
        self.joins: Optional[tuple] = None  # pattern_joins, once needed
        self.seen = 0
        self.caps: dict = {}  # body id -> literal-count cap
        self.joined: dict = {}  # body id -> cap lowered to the join cap
        self.counts: dict = {}  # body id -> its most disjoint matches
        self.sums: list = []  # literal-count bound, join bound, count


class UsageIndex:
    """Inverted gate index over groups of alternative bodies (a group is
    one clause's bodies). A pattern matches a body only if
    pred_counts(pattern) <= pred_counts(body): each pattern literal needs
    its own body literal of the same predicate and arity. So each
    (pred, arity, k) maps to the bodies with k or more such literals, and
    the only bodies a pattern can match are an intersection of posting
    sets, found without a scan. A body's IndexedBody and its join_table
    are built on first use and serve every later pattern, until `put`
    replaces the body or `drop_joins` the tables. Each pattern's caps and
    counts serve its later usage calls, for every body not put since."""

    def __init__(self, groups: list):
        self.bodies: list = []  # (group, body, pred_counts of body)
        self.postings: dict = {}  # (pred, arity, k) -> set of body ids
        self._indexed: list = []
        self._joins: list = []
        self._puts: list = []  # the id of each body put, in order
        self._usage: dict = {}  # pattern -> what usage keeps of it
        for g, group in enumerate(groups):
            for body in group:
                self.put(len(self.bodies), g, body)

    def put(self, bid: int, g: int, body: tuple):
        """Make body `bid` of group g `body`: a new body if bid is the
        next id, else a replacement whose forms are built again."""
        if bid == len(self.bodies):
            self.bodies.append(None)
            self._indexed.append(None)
            self._joins.append(None)
        else:
            for (p, a), n in self.bodies[bid][2].items():
                for k in range(1, n + 1):
                    self.postings[p, a, k].discard(bid)
            self._indexed[bid] = self._joins[bid] = None
        have = pred_counts(body)
        for (p, a), n in have.items():
            for k in range(1, n + 1):
                self.postings.setdefault((p, a, k), set()).add(bid)
        self.bodies[bid] = (g, body, have)
        self._puts.append(bid)

    def drop_joins(self):
        """Release the join tables; a later usage() builds them again."""
        self._joins = [None] * len(self.bodies)

    def indexed(self, bid: int) -> IndexedBody:
        """The IndexedBody of body `bid`, built on the first call."""
        form = self._indexed[bid]
        if form is None:
            form = self._indexed[bid] = IndexedBody(self.bodies[bid][1])
        return form

    def joins(self, bid: int) -> dict:
        """The join_table of body `bid`, built on the first call."""
        table = self._joins[bid]
        if table is None:
            table = self._joins[bid] = join_table(self.bodies[bid][1])
        return table

    def gated(self, need: dict) -> set:
        """Ids of the bodies with need[pa] or more literals of each pa."""
        sets = sorted(
            (self.postings.get((*pa, n), set()) for pa, n in need.items()), key=len
        )
        return sets[0].intersection(*sets[1:])

    def usage(self, pattern: tuple, worth) -> int:
        """Foldable occurrences of `pattern`: per group, the most disjoint
        matches in one of its bodies, summed. Counting occurrences, not
        clauses, keeps the profitability prune loss-free.

        Two upper bounds come first, each summing each group's largest
        per-body cap; the first whose sum fails `worth` is returned
        without matching. The literal-count bound: a body of L literals,
        with c of each (pred, arity) pa the pattern has n of, holds at
        most min(L // len(pattern), c // n) matches. The join bound: each
        match maps a pattern variable's two top-level slots in two
        literals to two body literals sharing a term there, and disjoint
        matches use distinct literals, so a body holds at most its
        join_table count for each of pattern_joins(pattern). Only bodies
        whose cap exceeds their group's count so far are matched.

        The index keeps each pattern's caps, counts and sums, so a later
        call with an equal pattern works only on the bodies put since.
        They are kept per pattern, not per variant class: the pattern's
        own match order decides _max_disjoint_count past its node cap."""
        # one lookup, as a pattern's literals are slow to hash
        kept = self._usage.setdefault(pattern, new := _Usage())
        if kept is new:
            kept.need = pred_counts(pattern)
            stale = self.gated(kept.need)
        else:  # drop what is kept of the bodies put since
            stale = []
            for bid in self._puts[kept.seen:]:
                if kept.caps.pop(bid, None) is not None:
                    kept.joined.pop(bid, None)
                    kept.counts.pop(bid, None)
                    kept.sums = []
                if kept.need.keys() <= self.bodies[bid][2].keys():
                    stale.append(bid)
        kept.seen = len(self._puts)
        caps = kept.caps
        if stale:
            need = kept.need
            for bid in stale:
                _, body, have = self.bodies[bid]
                # the literal-count cap, positive exactly on the gated bodies
                cap = min(len(body) // len(pattern), *(have[pa] // n for pa, n in need.items()))
                if cap:
                    caps[bid] = cap
            kept.sums = []
        sums = kept.sums
        if not sums:
            sums.append(self._bound(caps))
        if not worth(sums[0]):
            return sums[0]
        if kept.joins is None:
            kept.joins = tuple(pattern_joins(pattern))
        joined = kept.joined if kept.joins else caps  # no join lowers a cap
        if len(sums) == 1:
            for bid, cap in caps.items():
                if bid not in joined:
                    table = self.joins(bid)
                    joined[bid] = min(cap, *(table.get(sig, 0) for sig in kept.joins))
            sums.append(self._bound(joined))
        if kept.joins and not worth(sums[1]):
            return sums[1]
        if len(sums) == 2:
            counts = kept.counts
            exact: dict = {}
            for bid, n in counts.items():
                g = self.bodies[bid][0]
                exact[g] = max(exact.get(g, 0), n)
            form = None  # built only if a body is matched
            for bid, cap in joined.items():
                g = self.bodies[bid][0]
                if bid not in counts and cap > exact.get(g, 0):
                    if form is None:
                        form = Pattern(pattern, make_candidate_clause(pattern, "probe").head)
                    matches = find_body_matches(self.indexed(bid), form)
                    counts[bid] = n = min(cap, _max_disjoint_count(matches))
                    exact[g] = max(exact.get(g, 0), n)
            sums.append(sum(exact.values()))
        return sums[2]

    def _bound(self, caps: dict) -> int:
        """The sum over groups of the largest of their bodies' caps."""
        best: dict = {}
        for bid, cap in caps.items():
            g = self.bodies[bid][0]
            if cap > best.get(g, 0):
                best[g] = cap
        return sum(best.values())


def extract_candidates(
    clauses: list,
    i: int,
    j: int,
    level: int,
    invented: Optional[dict] = None,
    index: Optional[UsageIndex] = None,
    subbodies: Optional[list] = None,
    run: Optional[Run] = None,
) -> list:
    """One candidate per variant class of connected body subsets of size
    in [i, j], with ids 0, 1, ... and usage counts.

    `invented` maps the previous level's invented predicates to their
    candidate ids: bodies keep only those predicates, and a candidate
    depends on the ids of its literals. `index` counts usage over its
    groups (defaults to one group per input clause). `subbodies` may give
    each (filtered) body's keyed_subsets over a window holding [i, j], so
    that an enumeration made for other uses is not repeated; else they
    are keyed with `run`'s forms (defaults to a new Run).
    """
    if i < 1 or j < i:
        raise ValueError(f"invalid size window [{i}, {j}]")
    bodies = [c.body if isinstance(c, Clause) else tuple(c) for c in clauses]
    if index is None:
        index = UsageIndex([[b] for b in bodies])
    if invented is not None:
        bodies = [tuple(l for l in b if l.pred in invented) for b in bodies]
    if subbodies is None:
        run = run or Run()
        subbodies = [run.keyed_subsets(b, i, j) for b in bodies]
    classes = variant_classes(bodies, subbodies, i, j)
    # sub-bodies made here (levels 2 and up) are freed before counting,
    # whose kept caps and counts add to the peak; a caller's stay alive
    del subbodies
    out = []
    for ordinal, subset in enumerate(classes.values()):
        clause = make_candidate_clause(subset, f"inv_{level}_{ordinal}")
        deps = frozenset(invented[l.pred] for l in subset) if invented else frozenset()
        size = len(subset) + 1
        usage = index.usage(subset, lambda u: is_profitable(size, u))
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
    run: Optional[Run] = None,
) -> LevelledSearchSpace:
    """Alternate extract -> prune -> fold per level, starting from the
    unfolded program. Level 0 holds the raw clauses. Each level's
    UsageIndex, with one group per clause over its options at the level
    below, serves that level's extraction, usage counts and folding.
    Kept candidates are named inv_<level>_<k>, made fresh against the
    input's predicates. Every level keys its sub-bodies with `run`'s
    forms (defaults to a new Run)."""
    run = run or Run()
    # one enumeration of the raw bodies serves level-1 extraction and the
    # redundancy penalty
    subbodies = [
        run.keyed_subsets(c.body, min(i, 2), max(j, RED_SUBBODY_MAX)) for c in u.clauses
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
            run=run,
        )
        # only extraction reads the join tables
        index.drop_joins()
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
