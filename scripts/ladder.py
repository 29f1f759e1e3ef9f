"""Run every report of the digest ladder and compare it with its pin.

    python scripts/ladder.py

The ladder (tests/ladder.json) pins the full report at several m and
ranges (a_max = t_max) by its check count and its digest, the SHA-256 of
the JSON report without its elapsed_s fields. Each entry runs in a fresh
interpreter, serially, so that its wall time and peak RSS are its own. One
line per entry gives the check count, whether the digest matches, the wall
time of build_report plus render_json, and the peak RSS of the child. The
exit status is 1 if any entry fails a row, differs in checks or digest, or
does not run; 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LADDER = ROOT / "tests" / "ladder.json"

# the child: one report, then its checks, failures, digest, time and RSS
CHILD = """
import hashlib, json, resource, sys, time
from sympdirac import cli
from sympdirac.verify import SUITES
m, ranges = int(sys.argv[1]), int(sys.argv[2])
t0 = time.perf_counter()
text = cli.render_json(cli.build_report(m, ranges, ranges, list(SUITES)))
wall = time.perf_counter() - t0
rep = json.loads(text)
for suite in rep["suites"]:
    suite.pop("elapsed_s")
print(json.dumps({
    "checks": sum(len(s["checks"]) for s in rep["suites"]),
    "failed": rep["summary"]["fail"],
    "digest": hashlib.sha256(json.dumps(rep, sort_keys=True).encode("utf-8")).hexdigest(),
    "wall_s": wall,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bad = 0
    print(f"{'m':>3} {'ranges':>6} {'checks':>7} {'digest':>8} {'wall_s':>7} {'rss_mb':>7}")
    for entry in json.loads(LADDER.read_text(encoding="utf-8")):
        m, ranges = entry["m"], entry["ranges"]
        r = subprocess.run([sys.executable, "-c", CHILD, str(m), str(ranges)],
                           env=env, capture_output=True, text=True)
        if r.returncode != 0:
            bad += 1
            print(f"{m:>3} {ranges:>6}  did not run (exit {r.returncode}): {r.stderr.strip()[-200:]}")
            continue
        got = json.loads(r.stdout)
        ok = got["checks"] == entry["checks"] and got["digest"] == entry["digest"] and not got["failed"]
        bad += not ok
        print(f"{m:>3} {ranges:>6} {got['checks']:>7} {'match' if ok else 'MISMATCH':>8} "
              f"{got['wall_s']:>7.2f} {got['peak_rss_mb']:>7.1f}"
              + (f"  failed rows: {got['failed']}" if got["failed"] else ""))
    print(f"{bad} of the ladder's entries differ" if bad else "every entry matches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
