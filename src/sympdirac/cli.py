"""Command line verification report.

Runs the named check suites on exact rational arithmetic and renders the
results as text or JSON.

With --jobs N > 1 the report is computed by level on a process pool of at
most N workers: one task per level-free suite and one per level, holding
every requested unit at that level (verify.SUITES), submitted largest
first. Each worker builds one Verifier when it starts and runs all its
tasks on it, so a level's kernels and families are built once; the rows
are reassembled in suite order, and the report equals the serial one
apart from elapsed_s. A run with a single task stays serial.

Exit codes:
  0  every executed check passed
  1  at least one check failed
  2  configuration error (bad flag value, unknown suite)
"""

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from .polys import TriDegree, basis_size
from .verify import SUITES, Verifier

# Largest --a-max and --t-max accepted. Exact work grows steeply with the
# ranges: at a_max = t_max = 5, the most the tests and the benchmark use,
# eigenblocks already reach dimension 3,528. Larger values are refused so
# that a typo cannot start a run that does not end.
RANGE_MAX = 8


def largest_block(m: int, a_max: int, t_max: int) -> int:
    """Dimension of the largest block a report over these ranges builds.
    The k=1 eigenblocks go up to level max(a_max - 1, t_max), the k=0
    eigenblocks (and the z-only harmonics) up to degree max(a_max, t_max)
    + 2, and both grow with the level, so the top one of each is the
    largest; algebra_relations adds the blocks of total degree <= 3, the
    largest of which is tri-degree (1, 1, 1)."""
    t = max(a_max - 1, t_max)
    k1 = basis_size(m, TriDegree(1, 0, t + 1))
    if t >= 1:
        k1 += basis_size(m, TriDegree(0, 1, t - 1))
    return max(k1, basis_size(m, TriDegree(0, 0, max(a_max, t_max) + 2)),
               basis_size(m, TriDegree(1, 1, 1)))


# Largest block accepted. The blocks grow with m and with the ranges: at
# a_max = t_max = 4 the largest has 7,296 monomials at m = 8 and 44
# million at m = 40. The limit is the largest block of m = 8 at
# a_max = t_max = RANGE_MAX, so every run with m <= 8 is accepted, and a
# larger m is accepted while the ranges keep its blocks this small
# (--m 9 --a-max 1 --t-max 1 builds blocks of at most 729).
BLOCK_MAX = largest_block(8, RANGE_MAX, RANGE_MAX)


# A unit as the pool schedules it: (suite, index among the suite's units,
# Verifier method, args). A worker receives only each unit's (method, args).
PoolUnit = Tuple[str, int, str, Tuple[int, ...]]
Task = Tuple[Tuple[str, Tuple[int, ...]], ...]

# The Verifier of a pool worker; _init_worker sets it when the worker starts.
_VERIFIER: Optional[Verifier] = None


def _init_worker(m: int) -> None:
    global _VERIFIER
    _VERIFIER = Verifier(m)


def _worker(task: Task) -> List[Tuple[float, List[Dict[str, object]]]]:
    """Run a task's units on the worker's Verifier: (seconds, rows) each."""
    out = []
    for method, args in task:
        t0 = time.perf_counter()
        rows = getattr(_VERIFIER, method)(*args)
        out.append((time.perf_counter() - t0, [r.as_dict() for r in rows]))
    return out


def _schedule(suites: Sequence[str], a_max: int, t_max: int) -> List[List[PoolUnit]]:
    """The pool's tasks, largest first: one per level-free suite, then one
    per level from the top down, holding every unit at that level in
    canonical suite order."""
    level_free: List[List[PoolUnit]] = []
    by_level: Dict[int, List[PoolUnit]] = {}
    for name in suites:
        for i, (level, method, args) in enumerate(SUITES[name].units_for(a_max, t_max)):
            unit = (name, i, method, args)
            if level is None:
                level_free.append([unit])
            else:
                by_level.setdefault(level, []).append(unit)
    return level_free + [by_level[t] for t in sorted(by_level, reverse=True)]


def _run_pool(m: int, suites: Sequence[str], tasks: List[List[PoolUnit]],
              jobs: int) -> List[Tuple[str, float, List[Dict[str, object]]]]:
    """(suite, seconds, rows) of each suite, from tasks run on a pool of
    at most jobs workers, each with one Verifier for all its tasks."""
    parts: Dict[str, Dict[int, List[Dict[str, object]]]] = {name: {} for name in suites}
    elapsed = dict.fromkeys(suites, 0.0)
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)), initializer=_init_worker,
                             initargs=(m,)) as pool:
        results = pool.map(_worker, [tuple((method, args) for _, _, method, args in task)
                                     for task in tasks])
        for task, out in zip(tasks, results):
            for (name, i, _, _), (dt, checks) in zip(task, out):
                parts[name][i] = checks
                elapsed[name] += dt
    return [(name, elapsed[name], [c for i in sorted(parts[name]) for c in parts[name][i]])
            for name in suites]


def build_report(m: int, a_max: int, t_max: int, suites: Sequence[str],
                 jobs: int = 1) -> Dict[str, object]:
    suite_blocks: List[Dict[str, object]] = []
    tasks = _schedule(suites, a_max, t_max) if jobs > 1 else []
    if len(tasks) > 1:
        results = _run_pool(m, suites, tasks, jobs)
    else:
        ver = Verifier(m)
        results = []
        for name in suites:
            t0 = time.perf_counter()
            rows = getattr(ver, name)(*SUITES[name].args(a_max, t_max))
            results.append((name, time.perf_counter() - t0, [r.as_dict() for r in rows]))
    n_pass = n_fail = 0
    for name, elapsed, checks in results:
        for c in checks:
            if c["pass"]:
                n_pass += 1
            else:
                n_fail += 1
        suite_blocks.append({"name": name, "elapsed_s": round(elapsed, 3),
                             "checks": checks})
    return {
        "version": "1",
        "config": {"m": m, "a_max": a_max, "t_max": t_max,
                   "suites": list(suites)},
        "suites": suite_blocks,
        "summary": {"pass": n_pass, "fail": n_fail},
    }


def _fmt_params(params: Dict[str, object]) -> str:
    return " ".join(f"{k}={v}" for k, v in params.items())


def _render_rows(lines: List[str], checks: List[Dict[str, object]]) -> None:
    table = []
    for c in checks:
        status = "ok" if c["pass"] else "FAIL"
        table.append((status, c["name"], _fmt_params(c["params"]),
                      str(c["expected"]), str(c["actual"])))
    if not table:
        lines.append("  (no checks)")
        return
    widths = [max(len(row[i]) for row in table) for i in range(5)]
    for row in table:
        lines.append("  " + "  ".join(row[i].ljust(widths[i]) for i in range(5)).rstrip())
    for c in checks:
        if not c["pass"] and c.get("witness"):
            lines.append(f"    witness[{c['name']}]: {c['witness']}")


def _compact_table_ker(lines: List[str], checks: List[Dict[str, object]]) -> None:
    """One line per degree: kernel dimension against the closed formula."""
    by_a: Dict[int, List[Dict[str, object]]] = {}
    for c in checks:
        by_a.setdefault(int(c["params"]["a"]), []).append(c)
    for a in sorted(by_a):
        group = by_a[a]
        ok = all(c["pass"] for c in group)
        dim_row = next((c for c in group if c["name"] == "kernel_L_dim"), None)
        dim = dim_row["actual"] if dim_row else "?"
        status = "ok" if ok else "FAIL"
        lines.append(f"  a={a:<2d} dim ker L = {dim:>5}  checks={len(group)}  {status}")
    _render_failures(lines, checks)


def _compact_branching(lines: List[str], checks: List[Dict[str, object]]) -> None:
    """One line per level: total dimension and its component split."""
    by_t: Dict[int, List[Dict[str, object]]] = {}
    for c in checks:
        by_t.setdefault(int(c["params"]["t"]), []).append(c)
    for t in sorted(by_t):
        group = by_t[t]
        ok = all(c["pass"] for c in group)
        total = next((c["actual"] for c in group
                      if c["name"] == "lws_dim_vs_five_row_table"), "?")
        comps = [f"{c['params']['weight']}:{c['actual']}" for c in group
                 if c["name"] == "component_dim"]
        status = "ok" if ok else "FAIL"
        lines.append(f"  t={t:<3d} dim={total:>5}  " + " + ".join(comps) + f"  {status}")
    _render_failures(lines, checks)


def _render_failures(lines: List[str], checks: List[Dict[str, object]]) -> None:
    for c in checks:
        if not c["pass"]:
            lines.append(f"    FAIL {c['name']} {_fmt_params(c['params'])} "
                         f"expected {c['expected']} actual {c['actual']}")
            if c.get("witness"):
                lines.append(f"      witness: {c['witness']}")


def render_text(report: Dict[str, object]) -> str:
    cfg = report["config"]
    lines = [f"verification report  m={cfg['m']} a_max={cfg['a_max']} t_max={cfg['t_max']}"]
    for block in report["suites"]:
        checks = block["checks"]
        n_fail = sum(1 for c in checks if not c["pass"])
        lines.append("")
        lines.append(f"== {block['name']} ({len(checks)} checks, {n_fail} failed, "
                     f"{block['elapsed_s']}s) ==")
        if block["name"] == "table_ker":
            _compact_table_ker(lines, checks)
        elif block["name"] == "branching_table":
            _compact_branching(lines, checks)
        else:
            _render_rows(lines, checks)
    summary = report["summary"]
    lines.append("")
    lines.append(f"summary: {summary['pass']} passed, {summary['fail']} failed")
    lines.append("")
    return "\n".join(lines)


def render_json(report: Dict[str, object]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympdirac",
        description="Exact verification report for the symplectic Dirac "
                    "operator decompositions.",
    )
    parser.add_argument("--m", type=int, default=6,
                        help="number of base variables per series, at least 6 (default 6); "
                             f"with the ranges, no eigenblock may exceed dimension {BLOCK_MAX}")
    parser.add_argument("--a-max", type=int, default=4, dest="a_max",
                        help=f"largest harmonic degree for degree-indexed suites (at most {RANGE_MAX})")
    parser.add_argument("--t-max", type=int, default=4, dest="t_max",
                        help=f"largest level for level-indexed suites (at most {RANGE_MAX})")
    parser.add_argument("--suite", action="append", choices=SUITES,
                        metavar="NAME",
                        help="suite to run (repeatable; default all); one of: "
                             + ", ".join(SUITES))
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    parser.add_argument("--out", default=None,
                        help="write the report to this file instead of stdout")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes; above 1, the report is computed level by "
                             "level, one task per level or level-free suite (default 1)")
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.m < 6:
        parser.error("m must be >= 6 (stable range)")
    if not 0 <= args.a_max <= RANGE_MAX:
        parser.error(f"a-max must be between 0 and {RANGE_MAX}")
    if not 0 <= args.t_max <= RANGE_MAX:
        parser.error(f"t-max must be between 0 and {RANGE_MAX}")
    dim = largest_block(args.m, args.a_max, args.t_max)
    if dim > BLOCK_MAX:
        parser.error(f"m={args.m}, a-max={args.a_max}, t-max={args.t_max} need an eigenblock "
                     f"of dimension {dim}, above the limit {BLOCK_MAX}")
    if args.jobs < 1:
        parser.error("jobs must be >= 1")
    if args.out:
        # fail before the run, not after it; append mode leaves a file alone
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            parser.error(f"cannot write --out {args.out}: {exc.strerror}")
    # canonical order, no duplicates
    ordered = [s for s in SUITES if not args.suite or s in args.suite]
    report = build_report(args.m, args.a_max, args.t_max, ordered, jobs=args.jobs)
    text = render_json(report) if args.format == "json" else render_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["summary"]["fail"] == 0 else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
