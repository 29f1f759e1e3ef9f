"""Compare two sets of sympdirac benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result.json files written by perfbench/run.py, or
directories searched for them (for example two copies of .perfbench_runs).
For every workload, trace mode and metric the script prints the median
over runs on each side and the relative change. It refuses, with exit
code 2, results whose scalar backend or Python version differ: a gmpy2
run is not comparable with a fractions.Fraction baseline. It also refuses
results whose times were scaled by different versions of perfbench/speed.py.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple


def load(arg: str) -> List[dict]:
    path = Path(arg)
    files = sorted(path.rglob("result.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def by_metric(results: List[dict]) -> Dict[Tuple[str, int, str], List[float]]:
    out: Dict[Tuple[str, int, str], List[float]] = {}
    for r in results:
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
    return out


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("compare: no results found", file=sys.stderr)
        return 2
    kinds = {(r["env"]["backend"], r["env"]["python"]) for r in base + new}
    if len(kinds) > 1:
        print("compare: refusing to compare results of different scalar backends or "
              "Python versions: " + ", ".join(f"{b}/{p}" for b, p in sorted(kinds)),
              file=sys.stderr)
        return 2
    references = {r["env"].get("speed_reference") for r in base + new}
    if len(references) > 1:
        print("compare: refusing to compare times scaled by different reference loops "
              "(perfbench/speed.py)", file=sys.stderr)
        return 2
    b, n = by_metric(base), by_metric(new)
    print(f"{'workload':<22} {'t':>1} {'metric':<48} {'base':>12} {'new':>12} {'change':>8}  runs")
    for key in sorted(set(b) & set(n)):
        mb, mn = statistics.median(b[key]), statistics.median(n[key])
        change = f"{(mn - mb) / mb:+.1%}" if mb else "-"
        print(f"{key[0]:<22} {key[1]:>1} {key[2]:<48} {mb:>12.6g} {mn:>12.6g} {change:>8}  "
              f"{len(b[key])}/{len(n[key])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
