"""refold's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one process each
    python3 perfbench/run.py --selftest          # the output check has teeth
    python3 perfbench/run.py --write-spec        # regenerate BENCHMARK.json

Run from the root of a checkout; refold is imported from ./src. One
process, one caller, no threads: a closed loop that refactors the
workload's programs in sequence. Set-up (importing refold and building the
seeded inputs) is repeated for a few seconds and its median reported.
Then whole passes over the inputs are timed until the next pass would end
after --seconds (at least one). With --trace 1 the run makes one untraced and one traced pass
and reports per-layer metrics from the traced one. The last line of
standard output is one JSON object with the run's verdict and metrics;
the full record (metadata, per-call results, spans) is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spec  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 3.0  # set-up is repeated at least this long in total
OUT_DIR = HERE / "out"


def fresh_import():
    """Imports refold from ./src, dropping any copy already loaded, so each
    set-up repetition pays for the import again."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "refold" or m.startswith("refold.")]:
        del sys.modules[name]
    return importlib.import_module("refold")


def setup(workload, seed: int):
    t0 = time.perf_counter()
    refold = fresh_import()
    timing: dict = {}
    t1 = time.perf_counter()
    inputs = workload.build(refold, seed, timing)
    timing["t0"], timing["t1"] = t0, time.perf_counter()
    timing["inputs_s"] = timing["t1"] - t1
    return refold, inputs, timing


def setups(workload, seed: int):
    """Repeats set-up SETUP_MIN_REPEATS times and for at least SETUP_MIN_S.
    Returns refold and the inputs of the last set-up, and every set-up's
    timing; earlier copies are dropped and collected before the next one."""
    timings = []
    started = time.perf_counter()
    while True:
        refold = inputs = None
        gc.collect()
        refold, inputs, timing = setup(workload, seed)
        timings.append(timing)
        if (len(timings) >= SETUP_MIN_REPEATS
                and time.perf_counter() - started >= SETUP_MIN_S):
            return refold, inputs, timings


def p90(values: list) -> float:
    """90th percentile; the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


# ---------------------------------------------------------------------------
# Run metadata

def git_sha() -> str:
    """HEAD's commit id read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def src_lines() -> int:
    """Non-blank lines in src/refold/*.py."""
    return sum(
        1
        for path in sorted((ROOT / "src" / "refold").glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


# ---------------------------------------------------------------------------
# One workload in this process

def measure(workload, refold, inputs, seconds: float) -> list:
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass(refold, inputs, workloads.Context()))
        elapsed = time.perf_counter() - started
        typical = statistics.median(p.seconds for p in passes)
        if elapsed + typical > seconds:
            return passes


def check_outputs(refold, workload, inputs, passes, seed: int) -> tuple:
    """(attempted, failed, per-call records). Identical outputs are
    judged once."""
    verdicts: dict = {}
    attempted = failed = 0
    records = []
    for n, p in enumerate(passes):
        for call in p.calls:
            attempted += 1
            digest = call.digest(refold)
            key = (call.kind, call.program, digest)
            if key not in verdicts or not digest:
                verdicts[key] = workloads.check_call(workload, inputs, call, seed)
            ok = verdicts[key]
            failed += not ok
            records.append({
                "pass": n, "kind": call.kind, "program": call.program,
                "t0": call.t0, "t1": call.t1, "seconds": call.seconds, "fixed_s": call.fixed,
                "in_literals": call.in_literals, "out_literals": call.out_literals,
                "status": call.status, "verified": call.verified, "nodes": call.nodes,
                "digest": digest, "error": call.error, "ok": ok,
            })
            call.output = None
    return attempted, failed, records


def pass_seconds(probe, p) -> float:
    """A pass's time at the reference speed: its calls one by one, plus
    the loop around them at the pass's own speed."""
    calls = sum(probe.adjust(c.t0, c.t1, c.fixed) for c in p.calls)
    rest = max(p.seconds - sum(c.seconds for c in p.calls), 0.0)
    return calls + rest * probe.factor(p.t0, p.t1)


def end_to_end(passes, timings, probe) -> tuple:
    """(gated end-to-end metrics, workload-specific extras)."""
    calls = [c for p in passes for c in p.calls if not c.error]
    refactors = [c for c in calls if c.kind == "refactor"]
    times = [probe.adjust(c.t0, c.t1, c.fixed) for c in refactors]
    raw = [c.seconds for c in refactors]
    in_lits = sum(c.in_literals for c in refactors)
    out_lits = sum(c.out_literals for c in refactors)
    metrics = {
        "setup_s": statistics.median(probe.adjust(t["t0"], t["t1"]) for t in timings),
        "wall_s": statistics.median(pass_seconds(probe, p) for p in passes),
        "refactor_s.p50": statistics.median(times) if times else 0.0,
        "refactor_s.p90": p90(times) if times else 0.0,
        "literals_ratio": out_lits / in_lits if in_lits else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    factors = [probe.factor(p.t0, p.t1) for p in passes]
    extras = {
        "refactor_calls": len(times),
        "passes": len(passes),
        "raw.setup_s": statistics.median(t["t1"] - t["t0"] for t in timings),
        "raw.wall_s": statistics.median(p.seconds for p in passes),
        "raw.refactor_s.p50": statistics.median(raw) if raw else 0.0,
        "raw.refactor_s.p90": p90(raw) if raw else 0.0,
        "speed_factor.min": min(factors),
        "speed_factor.max": max(factors),
        "probes": len(probe.samples),
        "optimal_share": (
            sum(c.status == "optimal" for c in refactors) / len(refactors)
            if refactors else 0.0
        ),
    }
    baselines = [c for c in calls if c.kind == "baseline"]
    if baselines:
        extras["baseline_s"] = statistics.median(
            probe.adjust(c.t0, c.t1) for c in baselines
        )
        extras["baseline_literals_ratio"] = (
            sum(c.out_literals for c in baselines) / sum(c.in_literals for c in baselines)
        )
    synth = [c for c in passes[0].calls if c.kind == "synthesize"]
    if synth:
        extras["synthesis_s"] = sum(probe.adjust(c.t0, c.t1) for c in synth)
        extras["synthesis_nodes"] = sum(c.nodes for c in synth)
        extras["synthesis_solved_share"] = sum(c.status == "solved" for c in synth) / len(synth)
    if "accumulate_s" in timings[0]:
        extras["bench.accumulate_s"] = statistics.median(t["accumulate_s"] for t in timings)
    return metrics, extras


UNITS = {n: u for n, u, *_ in spec.END_TO_END + spec.PER_LAYER}


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": loadavg(),
    }
    with speed.SpeedProbe() as probe:
        try:
            refold, inputs, timings = setups(workload, args.seed)
        except ImportError as exc:
            print(f"cannot import refold from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        spans = []
        if args.trace:
            passes = [workload.run_pass(refold, inputs, workloads.Context())]
            tracer = tracing.install(refold)
            try:
                with tracer.span("bench.pass"):
                    passes.append(
                        workload.run_pass(refold, inputs, workloads.Context(tracer))
                    )
            finally:
                tracer.restore()
            spans = tracer.spans
        else:
            passes = measure(workload, refold, inputs, args.seconds)
    meta["src_lines"] = src_lines()
    selftest_ok = oracle.selftest(refold.parse_program, refold.Clause, refold.Program)
    metrics, extras = end_to_end(passes, timings, probe)
    if args.trace:
        untraced, traced = (pass_seconds(probe, p) for p in passes)
        metrics = tracing.layer_metrics(spans)
        metrics["logic.parse_s"] = timings[-1]["parse_s"]
        metrics["bench.inputs_s"] = timings[-1]["inputs_s"]
        metrics["bench.synthesis_nodes"] = sum(
            c.nodes for c in passes[1].calls if c.kind == "synthesize"
        )
        metrics["trace.overhead_ratio"] = traced / untraced - 1
        extras["traced_wall_s"] = traced
        extras["untraced_wall_s"] = untraced

    attempted, failed, records = check_outputs(refold, workload, inputs, passes, args.seed)
    if hasattr(workload, "reference"):
        extras.update(workload.reference(refold, inputs))
    extras["failed_share"] = failed / attempted if attempted else 1.0
    extras["oracle_selftest"] = selftest_ok
    meta["loadavg_end"] = loadavg()
    correct = selftest_ok and failed == 0 and attempted > 0

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "meta": meta, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "extras": extras, "calls": records,
        "spans": [sp.to_json() for sp in spans],
        "probes": probe.samples,
        "passes": [(p.t0, p.t1) for p in passes],
    }
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, value in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {UNITS[name]}")
    for name, value in extras.items():
        print(f"{workload.name} extra {name} {value}")
    print(f"{workload.name} meta {json.dumps(meta)}")
    print(f"{workload.name} record {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        status |= not result["correct"]
    return status


def run_selftest(args) -> int:
    """The oracle accepts a known-good fold and rejects a corrupted one;
    then, on the first 40 random-batch programs, it accepts each
    refactored output and catches it with one dropped literal."""
    try:
        refold = fresh_import()
    except ImportError as exc:
        print(f"cannot import refold from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    ok = oracle.selftest(refold.parse_program, refold.Clause, refold.Program)
    print(f"fixed example: {'PASS' if ok else 'FAIL'}")
    workload = workloads.WORKLOADS["random-batch"]
    programs = workload.build(refold, args.seed, {})["programs"][:40]
    caught = 0
    for prog in programs:
        out, _ = refold.refactor(prog, workload.config(refold))
        if not oracle.agree(prog, out, args.seed):
            print("a refactored output was rejected")
            ok = False
        bad = oracle.drop_one_literal(out, refold.Clause, refold.Program)
        caught += not oracle.agree(prog, bad, args.seed)
    print(f"dropped-literal corruptions caught: {caught}/{len(programs)}")
    return 0 if ok and caught == len(programs) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-spec", action="store_true")
    args = ap.parse_args(argv)
    if args.write_spec:
        print(spec.write_benchmark_json(ROOT))
        return 0
    if args.selftest:
        return run_selftest(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
