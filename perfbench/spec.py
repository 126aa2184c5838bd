"""Workloads and metric definitions of the benchmark: the one source that
`run.py --write-spec` turns into BENCHMARK.json."""

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = [
    (
        "random-batch",
        "ROADMAP W1: criterion 1's first 150 random programs, max_levels=1, "
        "1 s solver. Many small refactors: per-call overhead, B&B proofs and "
        "the 1 s timeouts set the tail",
    ),
    (
        "lego-bk",
        "ROADMAP W3: criterion 6's 50-task lego BK refactored, then 50 towers "
        "synthesized with it. Most matching and solver work, and the paper's "
        "downstream effect",
    ),
    (
        "dense-default",
        "Replaces W2 (prune=False is out of refactor()'s reach): criterion 5's "
        "program, default config, then the greedy baseline. W4 dropped: 0.2 s "
        "is too short to time",
    ),
]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("refactor_s.p50", "s", "lower", 0.25),
    ("refactor_s.p90", "s", "lower", 0.25),
    ("literals_ratio", "ratio", "lower", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better). Names under `reported.` are counts or times that
# refold reports about itself; no claim may rest on them alone.
PER_LAYER = [
    ("candidates.space_s", "s", "lower"),
    ("candidates.extract_s", "s", "lower"),
    ("candidates.fold_s", "s", "lower"),
    ("candidates.extracted", "count", "lower"),
    ("candidates.kept", "count", "higher"),
    ("candidates.kept_ratio", "ratio", "higher"),
    ("candidates.folding_options", "count", "higher"),
    ("reported.candidates.truncated_clauses", "count", "lower"),
    ("transform.match_calls", "count", "lower"),
    ("transform.match_calls.extract", "count", "lower"),
    ("transform.match_calls.fold", "count", "lower"),
    ("transform.match_calls.baseline", "count", "lower"),
    ("transform.match_s", "s", "lower"),
    ("transform.match_hit_ratio", "ratio", "higher"),
    ("transform.unfold_s", "s", "lower"),
    ("transform.verify_s", "s", "lower"),
    ("copmodel.encode_s", "s", "lower"),
    ("copmodel.decode_s", "s", "lower"),
    ("copmodel.vars", "count", "lower"),
    ("copmodel.constraints", "count", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.greedy_evals", "count", "lower"),
    ("solver.greedy_eval_s", "s", "lower"),
    ("solver.check_calls", "count", "lower"),
    ("solver.check_s", "s", "lower"),
    ("solver.bnb_s", "s", "lower"),
    ("solver.timeouts", "count", "lower"),
    ("solver.optimal_share", "ratio", "higher"),
    ("reported.solver.first_incumbent_s", "s", "lower"),
    ("reported.solver.best_incumbent_s", "s", "lower"),
    ("logic.parse_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("bench.inputs_s", "s", "lower"),
    ("bench.synthesis_nodes", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    return path
