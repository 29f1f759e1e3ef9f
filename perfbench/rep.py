"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 --out FILE
    python3 perfbench/rep.py --setup-only --out FILE

Several caches in sympdirac are process-global (the Casimir matrices and
the lru_caches on harmonic spaces), so every repetition runs in its own
interpreter: the program is timed cold, as a command-line user runs it.
The repetition writes one JSON record to FILE: set-up and workload times,
CPU time, peak RSS, what the correctness gate needs, the environment and,
when traced, the merged span records of this process and its workers.
Untraced, the machine's speed is sampled throughout (speed.py), and every
time is also given at reference speed (the *_ref keys).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe, at_reference_speed
from tracer import SUITES, Tracer, merge

ROOT = Path(__file__).resolve().parents[1]
M = 6
CALIBRATION_LOOPS = 10    # reference loops before and after set-up

# Each report workload is one call of cli.build_report plus cli.render_json;
# relations_extensional applies criterion 01's residual operators to every
# monomial of total degree <= 3 through operators.apply_op. min_reps is the
# least number of repetitions in an untraced run. report_jobs2 takes the
# median of two: its wall time also depends on which worker happens to
# take which suite, since each worker's caches outlive its tasks.
WORKLOADS = {
    "report_default": {"kind": "report", "a_max": 4, "t_max": 4,
                       "suites": SUITES, "jobs": 1, "min_reps": 1},
    "report_jobs2": {"kind": "report", "a_max": 4, "t_max": 4, "suites": SUITES,
                     "jobs": 2, "min_reps": 2, "same_report_as": "report_default"},
    "kernels_deep": {"kind": "report", "a_max": 5, "t_max": 5, "jobs": 1, "min_reps": 1,
                     "suites": ("table_ker", "l_fischer", "multiplicity", "s0_branching")},
    "relations_extensional": {"kind": "relations", "degree": 3, "min_reps": 1},
}


def _cpu_s() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest RSS of this process or any reaped child (ru_maxrss is KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def report_digest(text: str) -> str:
    """SHA-256 of a JSON report with every elapsed_s timing field removed."""
    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "elapsed_s"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    canon = json.dumps(strip(json.loads(text)), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def residual_operators(cat):
    """Criterion 01's 18 operators that vanish on every polynomial."""
    from sympdirac.operators import commutator, identity_op, op_add, op_scale, op_sub

    out = []
    for name in ("sl_h", "sl_s", "sl_c", "sl_d"):
        X, Y, H = cat[f"{name}_X"], cat[f"{name}_Y"], cat[f"{name}_H"]
        out.append((f"{name} [H,X]-2X", op_sub(commutator(H, X), op_scale(X, 2))))
        out.append((f"{name} [H,Y]+2Y", op_add(commutator(H, Y), op_scale(Y, 2))))
        out.append((f"{name} [X,Y]-H", op_sub(commutator(X, Y), H)))
    for a, b in (("R", "D_s"), ("L", "D_s"), ("R", "D_s_dag"), ("L", "D_s_dag")):
        out.append((f"[{a},{b}]", commutator(cat[a], cat[b])))
    out.append(("[D_s,D_s_dag]+(E+m)",
                op_add(commutator(cat["D_s"], cat["D_s_dag"]),
                       op_add(cat["E"], op_scale(identity_op(), M)))))
    out.append(("[R,L]-scriptE", op_sub(commutator(cat["R"], cat["L"]), cat["E_script"])))
    return out


def run_report(cfg) -> dict:
    from sympdirac import cli

    t0, c0 = perf_counter(), _cpu_s()
    report = cli.build_report(M, cfg["a_max"], cfg["t_max"], list(cfg["suites"]),
                              jobs=cfg["jobs"])
    text = cli.render_json(report)
    t1, cpu = perf_counter(), _cpu_s() - c0
    return {"span": (t0, t1), "cpu_s": cpu,
            "checks": sum(len(s["checks"]) for s in report["suites"]),
            "failed_rows": report["summary"]["fail"],
            "digest": report_digest(text)}


def run_relations(cfg, cat, seed: int) -> dict:
    from sympdirac import operators
    from sympdirac.polys import monomial_basis, monomial_poly, render_poly, tri_degrees_of_total

    monos = [mono for d in range(cfg["degree"] + 1)
             for td in tri_degrees_of_total(d) for mono in monomial_basis(M, td)]
    random.Random(seed).shuffle(monos)
    t0, c0 = perf_counter(), _cpu_s()
    apply_op = operators.apply_op
    applications = nonzero = 0
    witness = None
    for label, res in residual_operators(cat):
        for mono in monos:
            applications += 1
            if apply_op(res, monomial_poly(mono)):
                nonzero += 1
                if witness is None:
                    witness = f"{label} on {render_poly(monomial_poly(mono))}"
    t1, cpu = perf_counter(), _cpu_s() - c0
    return {"span": (t0, t1), "cpu_s": cpu, "checks": applications,
            "failed_rows": nonzero, "witness": witness}


def timings(probe, bracket, setup_spans, span, cpu_s, jobs) -> dict:
    """setup_s, wall_s and cpu_s and, when the speed was sampled, the same
    at reference speed (*_ref). Set-up is scaled by the loops that bracket
    it; the workload span by the timer's samples within it, whose time is
    taken out of cpu_s and, when they ran in this process, of wall_s."""
    setup_s = sum(b - a for a, b in setup_spans)
    out = {"setup_s": setup_s}
    if span is not None:
        out["wall_s"], out["cpu_s"] = span[1] - span[0], cpu_s
    if probe is None:
        return out
    out["setup_s_loop_s"] = statistics.median(bracket)
    out["setup_s_ref"] = at_reference_speed(setup_s, out["setup_s_loop_s"])
    if span is not None:
        loops = probe.within(*span)
        if not loops:
            raise SystemExit(f"no speed sample in the {out['wall_s']:.3f} s workload")
        walls, cpus = [s[1] for s in loops], [s[2] for s in loops]
        if jobs == 1:
            out["wall_s"] -= sum(walls)
        out["cpu_s"] -= sum(cpus)
        out["wall_s_loop_s"] = statistics.mean(walls)
        out["cpu_s_loop_s"] = statistics.mean(cpus)
        out["wall_s_ref"] = at_reference_speed(out["wall_s"], out["wall_s_loop_s"])
        out["cpu_s_ref"] = at_reference_speed(out["cpu_s"], out["cpu_s_loop_s"])
        out["loops"] = loops
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if not args.setup_only and args.workload is None:
        ap.error("--workload is required")
    out = Path(args.out)
    sys.path.insert(0, str(ROOT / "src"))
    probe = None if args.trace else SpeedProbe()
    bracket = probe.calibrate(CALIBRATION_LOOPS) if probe else []

    t0 = perf_counter()
    from sympdirac import cli, operators, rationals, verify  # noqa: F401
    import_end = perf_counter()
    import numpy
    tracer = None
    if args.trace:
        tracer = Tracer(out.parent / (out.stem + "-spans"))
        tracer.install()
    t1 = perf_counter()
    cat = operators.catalog(M)
    verify.Verifier(M, cat)
    setup_spans = [(t0, import_end), (t1, perf_counter())]
    speed_dir = out.parent / (out.stem + "-speed")
    jobs = 1 if args.setup_only else WORKLOADS[args.workload].get("jobs", 1)
    if probe is not None:
        bracket += probe.calibrate(CALIBRATION_LOOPS)
        if jobs > 1:
            probe.start_in_forks(speed_dir)
        else:
            probe.start()

    record = {
        "env": {"backend": rationals.QQ.__module__,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "nproc": os.cpu_count()},
    }
    if not args.setup_only:
        cfg = WORKLOADS[args.workload]
        if cfg["kind"] == "report":
            record.update(run_report(cfg))
        else:
            record.update(run_relations(cfg, cat, args.seed))
        record["peak_rss_mb"] = _peak_rss_mb()
    if probe is not None:
        probe.stop()
        if jobs > 1:
            probe.samples = probe.read_forks(speed_dir)
    record.update(timings(probe, bracket, setup_spans, record.pop("span", None),
                          record.get("cpu_s"), jobs))
    if tracer is not None:
        snaps = [tracer.snapshot()]
        for path in sorted(tracer.out_dir.glob("worker-*.json")):
            snaps.append(json.loads(path.read_text(encoding="utf-8")))
        record["trace"] = merge(snaps)
    out.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
