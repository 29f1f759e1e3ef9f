"""sympdirac benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of the workload, each in a fresh interpreter
(perfbench/rep.py), until the next one would end after S seconds; at least
the workload's min_reps, and two when traced. Every repetition passes the correctness
gate or counts all its checks as failed. Prints every metric by name and
unit, then, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
The end-to-end times are given at reference speed (speed.py), so that the
drift of a shared host's speed does not show as a change of the program;
the raw times are printed too.
The full record of the run, environment included, is written to
.perfbench_runs/<run>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from rep import WORKLOADS  # noqa: E402
from speed import REFERENCE_S  # noqa: E402
from tracer import CACHED_KERNELS, SUITES, WORKER  # noqa: E402

RUN_LIMIT_S = 170.0      # a run must end within 180 s
SETUP_SAMPLES = 4        # set-up-only interpreters per untraced run
MAX_REPS = 50
EXACT_COUNTS = ("calls", "term_mono_pairs", "cells", "nnz", "misses",
                "computed", "full_rank")

# (span, measures) of the per-layer metrics; a metric is "<span>.<measure>"
LAYER_SPANS = [
    ("operators.apply_op", ("calls", "self_s", "term_mono_pairs")),
    ("operators.normal_form", ("calls", "self_s")),
    ("operators.catalog", ("calls", "self_s")),
    ("linalg.RationalMatrix.nullspace", ("calls", "self_s", "cells")),
    ("linalg.matrix_of", ("calls", "self_s", "nnz")),
    ("linalg.rank_certified", ("calls", "self_s")),
    ("linalg.is_direct_sum", ("calls", "self_s")),
    ("linalg.Subspace.contains", ("calls", "self_s")),
    ("linalg.Subspace.from_vectors", ("calls", "self_s")),
    ("repn.casimir_matrix", ("calls", "self_s", "misses")),
    ("repn.casimir_eigencheck", ("calls", "self_s")),
    ("repn.simplicial_harmonics", ("calls", "self_s")),
    ("repn.harmonic_space", ("calls", "self_s")),
    ("verify.Verifier.families", ("self_s",)),
    ("cli.render_json", ("self_s",)),
] + [(f"verify.Verifier.{s}", ("self_s",)) for s in SUITES] \
  + [(f"verify.Verifier.{k}", ("calls", "computed")) for k in CACHED_KERNELS]


def fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_child(args: List[str], out: Path, budget_s: float) -> dict:
    """Run rep.py in its own process group and return its record. The
    whole group is killed afterwards, so no pool worker outlives it."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--out", str(out)] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=max(budget_s, 1.0))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        fail(f"repetition {' '.join(args)} did not end within the run limit", 1)
    if code != 0:
        fail(f"repetition {' '.join(args)} exited with code {code}", 1)
    return json.loads(out.read_text(encoding="utf-8"))


def environment(rec: dict) -> dict:
    env = dict(rec["env"])
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    # times at reference speed are comparable only under the same loop
    env["speed_reference"] = hashlib.sha256(
        (HERE / "speed.py").read_bytes()).hexdigest()[:16]
    try:
        # the ceiling keeps git from searching above the checkout
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        env["commit"] = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        env["commit"] = None
    return env


def gate(name: str, rec: dict, expected: dict) -> List[str]:
    """Reasons the repetition's output is wrong; empty when it is right."""
    cfg = WORKLOADS[name]
    want = expected[cfg.get("same_report_as", name)]
    errors = []
    if rec["checks"] != want["checks"]:
        errors.append(f"{rec['checks']} checks, expected {want['checks']}")
    if rec["failed_rows"]:
        errors.append(f"{rec['failed_rows']} failed checks"
                      + (f", first: {rec['witness']}" if rec.get("witness") else ""))
    if "digest" in want and rec["digest"] != want["digest"]:
        errors.append(f"report digest {rec['digest']} != recorded {want['digest']}")
    return errors


def layer_values(name: str, rec: dict) -> Dict[str, float]:
    trace = rec["trace"]
    stats = trace["stats"]

    def get(span: str, key: str) -> float:
        return stats.get(span, {}).get(key, 0)

    out = {}
    for span, measures in LAYER_SPANS:
        for m in measures:
            out[f"{span}.{m}"] = get(span, m)
    for k in CACHED_KERNELS:
        keys = [tuple(c) for c in trace["computed"] if c[0] == f"verify.Verifier.{k}"]
        out[f"verify.Verifier.{k}.redundant"] = len(keys) - len(set(keys))
    calls = get("linalg.rank_certified", "calls")
    out["linalg.rank_certified.full_rank_ratio"] = (
        get("linalg.rank_certified", "full_rank") / calls if calls else 0.0)
    jobs = WORKLOADS[name].get("jobs", 1)
    busy = get(WORKER, "total_s")
    out["cli.build_report.wait_s"] = get("cli.build_report", "self_s")
    out["cli.pool.busy_s"] = busy
    out["cli.pool.utilization"] = busy / (jobs * rec["wall_s"])
    out["trace.wall_s"] = rec["wall_s"]
    return out


def trace_checks(name: str, reps: List[dict], expected: dict) -> List[str]:
    """Self-checks of the tracer itself."""
    cfg = WORKLOADS[name]
    errors = []
    if cfg["kind"] == "relations":
        # one call per application: fewer means a binding escaped the wrappers
        calls = [r["trace"]["stats"]["operators.apply_op"]["calls"] for r in reps]
        want = expected[name]["checks"]
        if any(c != want for c in calls):
            errors.append(f"operators.apply_op.calls {calls}, expected {want} each")
    if cfg.get("jobs", 1) > 1:
        for rec in reps:
            workers = rec["trace"]["stats"].get(WORKER, {}).get("calls", 0)
            if workers != len(cfg["suites"]) or rec["trace"]["processes"] < 2:
                errors.append(f"{workers} worker task spans merged, expected {len(cfg['suites'])}")
    else:
        # Pool workers keep lru_caches across the suites they happen to
        # run, so only serial workloads have schedule-free counts.
        def counts(rec):
            return {(s, k): v for s, st in rec["trace"]["stats"].items()
                    for k, v in st.items() if k in EXACT_COUNTS}
        first = counts(reps[0])
        for i, rec in enumerate(reps[1:], 2):
            diff = sorted(k for k in set(first) | set(counts(rec))
                          if first.get(k) != counts(rec).get(k))
            if diff:
                errors.append(f"exact counts differ between repetitions 1 and {i}: {diff[:5]}")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one sympdirac benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sympdirac" / "__init__.py").is_file():
        fail(f"no sympdirac sources under {ROOT / 'src'}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    started = time.monotonic()
    run_dir = (ROOT / ".perfbench_runs"
               / f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}")
    run_dir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace)]

    def budget() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    setups: List[dict] = []

    def sample_setups(n: int) -> None:
        for _ in range(n):
            rec = run_child(["--setup-only"], run_dir / f"setup{len(setups)}.json", budget())
            setups.append(rec)

    # set-up samples are split around the repetitions, so that they do not
    # all fall into one slow or fast spell of the machine
    if not args.trace:
        sample_setups(SETUP_SAMPLES // 2)
    reps: List[dict] = []
    # a traced run compares exact counts between its repetitions
    min_reps = WORKLOADS[args.workload]["min_reps"]
    if args.trace:
        min_reps = max(min_reps, 2)
    t0 = time.monotonic()
    while True:
        r0 = time.monotonic()
        reps.append(run_child(common, run_dir / f"rep{len(reps)}.json", budget()))
        last = time.monotonic() - r0
        used = time.monotonic() - t0
        if len(reps) >= MAX_REPS or (len(reps) >= min_reps and used + last > args.seconds):
            break
    if not args.trace:
        sample_setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    attempted = failed = 0
    errors: List[str] = []
    for i, rec in enumerate(reps, 1):
        bad = gate(args.workload, rec, expected)
        attempted += rec["checks"]
        failed += rec["checks"] if bad else rec["failed_rows"]
        errors += [f"repetition {i}: {e}" for e in bad]
    if args.trace:
        errors += trace_checks(args.workload, reps, expected)

    samples: Dict[str, List[float]] = {}
    raw: Dict[str, List[float]] = {}
    if args.trace:
        for rec in reps:
            for k, v in layer_values(args.workload, rec).items():
                samples.setdefault(k, []).append(v)
    else:
        # times at reference speed (speed.py); the raw ones are kept too
        samples["wall_s"] = [r["wall_s_ref"] for r in reps]
        samples["cpu_s"] = [r["cpu_s_ref"] for r in reps]
        samples["checks_per_s"] = [r["checks"] / r["wall_s_ref"] for r in reps]
        samples["setup_s"] = [r["setup_s_ref"] for r in setups + reps]
        samples["pass_ratio"] = [1.0 - failed / attempted]
        raw = {"wall_s": [r["wall_s"] for r in reps],
               "cpu_s": [r["cpu_s"] for r in reps],
               "setup_s": [r["setup_s"] for r in setups + reps],
               "loop_s": [r["wall_s_loop_s"] for r in reps]}
    # exact counts repeat, so they are reported as counted, not averaged
    values = {k: v[0] if len(set(v)) == 1 else statistics.median(v)
              for k, v in samples.items()}
    if not args.trace:
        values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in reps)
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in reps]

    env = environment(reps[0])
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        if name not in values:
            fail(f"metric {name} of BENCHMARK.json is not measured", 1)
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        print(f"{args.workload} {name} = {values[name]:.6g} {spec['unit']} "
              f"(n={len(samples[name])})")

    for k, v in raw.items():
        print(f"{args.workload} raw {k} = {statistics.median(v):.6g} s (n={len(v)})")
    if raw:
        print(f"{args.workload} machine speed = "
              f"{REFERENCE_S / statistics.median(raw['loop_s']):.4g} x reference")

    overhead = None
    if args.trace:
        plain = []
        for path in (ROOT / ".perfbench_runs").glob(f"{args.workload}-s*-t0-*/result.json"):
            rec = json.loads(path.read_text(encoding="utf-8"))
            if rec.get("raw_samples"):
                plain.append(statistics.median(rec["raw_samples"]["wall_s"]))
        if plain:
            overhead = values["trace.wall_s"] - statistics.median(plain)
            print(f"{args.workload} tracing overhead = {overhead:.4g} s over the untraced "
                  f"wall_s median of {len(plain)} earlier runs")
    for e in errors:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)

    result = {"correct": failed == 0 and not errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env, errors=errors, samples=samples,
                  raw_samples=raw,
                  tracing_overhead_s=overhead,
                  spans=[r["trace"] for r in reps] if args.trace else None)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
