"""List the functions of src/sympdirac that no report enters.

    python scripts/reach.py

Runs three reports in this interpreter under sys.settrace: the default
report as text, the default report as JSON at --jobs 2 (the pool path) and
m=7 at a_max = t_max = 2; the package is imported under the trace too.
Every function, method and nested function defined in src/sympdirac/*.py
that none of them calls is printed as module.qualname with its line, then
their count. Pool workers are forked from this interpreter and inherit the
trace; each writes the functions it enters to a file that is read back
after the reports.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sympdirac"
sys.path.insert(0, str(ROOT / "src"))

REPORTS = ([], ["--format", "json", "--jobs", "2"], ["--m", "7", "--a-max", "2", "--t-max", "2"])


def defined() -> dict:
    """(file, first line, name) -> module.qualname of every function in
    the package's source; class bodies, lambdas and comprehensions are
    left out."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                out[(str(path), code.co_firstlineno, code.co_name)] = f"{path.stem}.{code.co_qualname}"
    return out


def main() -> int:
    parent = os.getpid()
    log = Path(tempfile.mkdtemp(prefix="reach-")) / "workers.txt"
    seen, entered = set(), set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code not in seen:
            seen.add(code)
            key = (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
            entered.add(key)
            if os.getpid() != parent:
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write("\t".join(map(str, key)) + "\n")

    for argv in REPORTS:
        sys.settrace(trace)
        try:
            from sympdirac import cli

            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(argv)
        finally:
            sys.settrace(None)
        if code != 0:
            print(f"report {argv} exited with {code}", file=sys.stderr)
            return 1
    if log.exists():
        for line in log.read_text(encoding="utf-8").splitlines():
            path, first, name = line.split("\t")
            entered.add((path, int(first), name))
        log.unlink()
    log.parent.rmdir()

    funcs = defined()
    missed = sorted((qual, key[1]) for key, qual in funcs.items() if key not in entered)
    for qual, line in missed:
        print(f"{qual}  (line {line})")
    print(f"{len(missed)} of {len(funcs)} functions in src/sympdirac are entered by no report")
    return 0


if __name__ == "__main__":
    sys.exit(main())
