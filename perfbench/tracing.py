"""In-memory span tracer that times refold's layers from outside.

`install` rebinds public functions in refold's modules to timing
wrappers, and `Tracer.restore` puts the originals back; refold's sources
are not changed. Layer calls become spans (name, start, end, parent span,
program id). Hot functions, called thousands of times per refactor, are
not spans: each call adds to a (calls, seconds, hits) counter on the span
that is open when it runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import wraps

HOT_MATCH = "transform.find_body_matches"
HOT_GREEDY = "solver.assignment_from_selection"
HOT_CHECK = "solver.check_assignment"


class Span:
    __slots__ = ("id", "name", "parent", "program", "start", "end", "attrs", "hot")

    def __init__(self, sid, name, parent, program, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.program = program
        self.start = start
        self.end = start
        self.attrs = {}
        self.hot = {}  # name -> [calls, seconds, calls with a non-empty result]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent.id if self.parent else None,
            "program": self.program,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
            "hot": self.hot,
        }


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.program = None  # id of the program the next spans belong to
        self._stack: list = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent, self.program, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _patch(self, module, attr: str, wrapper_for):
        original = getattr(module, attr)
        setattr(module, attr, wraps(original)(wrapper_for(original)))
        self._patches.append((module, attr, original))

    def patch_span(self, module, attr: str, name: str, annotate=None):
        """Each call to module.attr becomes a span; annotate(span, result)
        may record attributes read from the returned value."""

        def wrapper_for(original):
            def wrapper(*args, **kwargs):
                with self.span(name) as sp:
                    result = original(*args, **kwargs)
                    if annotate is not None:
                        annotate(sp, result)
                return result

            return wrapper

        self._patch(module, attr, wrapper_for)

    def patch_hot(self, module, attr: str, name: str):
        """Each call to module.attr adds to a counter on the open span."""
        clock = time.perf_counter

        def wrapper_for(original):
            def wrapper(*args, **kwargs):
                t0 = clock()
                result = original(*args, **kwargs)
                dt = clock() - t0
                stats = self._stack[-1].hot.setdefault(name, [0, 0.0, 0])
                stats[0] += 1
                stats[1] += dt
                if result:
                    stats[2] += 1
                return result

            return wrapper

        self._patch(module, attr, wrapper_for)

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def _annotate_extract(sp, cands):
    sp.attrs["extracted"] = len(cands)


def _annotate_space(sp, space):
    sp.attrs["kept"] = len(space.candidates)
    sp.attrs["folding_options"] = sum(
        len(opts) for levels in space.foldings.values()
        for lvl, opts in levels.items() if lvl > 0
    )
    sp.attrs["reported_truncated_clauses"] = sum(
        st.truncated_clauses for st in space.stats
    )


def _annotate_encode(sp, model):
    sp.attrs["vars"] = model.num_vars
    sp.attrs["constraints"] = len(model.constraints)


def _annotate_solve(sp, result):
    assignment, trace = result
    sp.attrs["status"] = assignment.status
    if trace.history:
        sp.attrs["reported_first_incumbent_s"] = trace.history[0][0]
        sp.attrs["reported_best_incumbent_s"] = trace.history[-1][0]


def install(refold) -> Tracer:
    """Rebinds the layer functions where refactor() and the baseline look
    them up, in their callers' module namespaces. Undo with restore()."""
    tracer = Tracer()
    pipeline, candidates, solver = refold.pipeline, refold.candidates, refold.solver
    tracer.patch_span(pipeline, "unfold", "transform.unfold")
    tracer.patch_span(pipeline, "build_search_space", "candidates.space", _annotate_space)
    tracer.patch_span(candidates, "extract_candidates", "candidates.extract", _annotate_extract)
    tracer.patch_span(pipeline, "encode", "copmodel.encode", _annotate_encode)
    tracer.patch_span(pipeline, "solve", "solver.solve", _annotate_solve)
    tracer.patch_span(pipeline, "decode", "copmodel.decode")
    tracer.patch_span(pipeline, "syntactic_equiv", "transform.verify")
    tracer.patch_hot(pipeline, "find_body_matches", HOT_MATCH)
    tracer.patch_hot(candidates, "find_body_matches", HOT_MATCH)
    tracer.patch_hot(solver, "assignment_from_selection", HOT_GREEDY)
    tracer.patch_hot(solver, "check_assignment", HOT_CHECK)
    return tracer


# Per-layer metrics from one traced pass.

REFACTOR = "pipeline.refactor"
BASELINE = "pipeline.baseline"


def layer_metrics(spans: list) -> dict:
    total: dict = {}
    count: dict = {}
    attrs: dict = {}
    for sp in spans:
        total[sp.name] = total.get(sp.name, 0.0) + sp.seconds
        count[sp.name] = count.get(sp.name, 0) + 1
        for k, v in sp.attrs.items():
            if isinstance(v, (int, float)):
                attrs[k] = attrs.get(k, 0) + v

    def hot(name, parent=None):
        calls = secs = hits = 0
        for sp in spans:
            if parent is not None and sp.name != parent:
                continue
            c, s, h = sp.hot.get(name, (0, 0.0, 0))
            calls, secs, hits = calls + c, secs + s, hits + h
        return calls, secs, hits

    self_s = 0.0
    for sp in spans:
        if sp.name == REFACTOR:
            children = sum(c.seconds for c in spans if c.parent is sp)
            self_s += sp.seconds - children

    space_s = total.get("candidates.space", 0.0)
    extract_s = total.get("candidates.extract", 0.0)
    solve_s = total.get("solver.solve", 0.0)
    match_calls, match_s, match_hits = hot(HOT_MATCH)
    greedy_calls, greedy_s, _ = hot(HOT_GREEDY, "solver.solve")
    check_calls, check_s, _ = hot(HOT_CHECK, "solver.solve")
    solves = [sp for sp in spans if sp.name == "solver.solve"]
    optimal = sum(1 for sp in solves if sp.attrs.get("status") == "optimal")
    extracted = attrs.get("extracted", 0)
    kept = attrs.get("kept", 0)
    return {
        "candidates.space_s": space_s,
        "candidates.extract_s": extract_s,
        "candidates.fold_s": space_s - extract_s,
        "candidates.extracted": extracted,
        "candidates.kept": kept,
        "candidates.kept_ratio": kept / extracted if extracted else 0.0,
        "candidates.folding_options": attrs.get("folding_options", 0),
        "reported.candidates.truncated_clauses": attrs.get("reported_truncated_clauses", 0),
        "transform.match_calls": match_calls,
        "transform.match_calls.extract": hot(HOT_MATCH, "candidates.extract")[0],
        "transform.match_calls.fold": hot(HOT_MATCH, "candidates.space")[0],
        "transform.match_calls.baseline": hot(HOT_MATCH, BASELINE)[0],
        "transform.match_s": match_s,
        "transform.match_hit_ratio": match_hits / match_calls if match_calls else 0.0,
        "transform.unfold_s": total.get("transform.unfold", 0.0),
        "transform.verify_s": total.get("transform.verify", 0.0),
        "copmodel.encode_s": total.get("copmodel.encode", 0.0),
        "copmodel.decode_s": total.get("copmodel.decode", 0.0),
        "copmodel.vars": attrs.get("vars", 0),
        "copmodel.constraints": attrs.get("constraints", 0),
        "solver.solve_s": solve_s,
        "solver.greedy_evals": greedy_calls,
        "solver.greedy_eval_s": greedy_s,
        "solver.check_calls": check_calls,
        "solver.check_s": check_s,
        "solver.bnb_s": solve_s - greedy_s - check_s,
        "solver.timeouts": len(solves) - optimal,
        "solver.optimal_share": optimal / len(solves) if solves else 0.0,
        "reported.solver.first_incumbent_s": attrs.get("reported_first_incumbent_s", 0.0),
        "reported.solver.best_incumbent_s": attrs.get("reported_best_incumbent_s", 0.0),
        "pipeline.self_s": self_s,
    }
