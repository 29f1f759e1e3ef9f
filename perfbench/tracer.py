"""Span tracing of sympdirac, installed from outside the package.

`Tracer.install` wraps the public functions of each module and records,
per span name, the call count, the total and the self time (span time
minus the time of child spans) and a few exact work counts. Every binding
of a traced function is replaced: the defining module's attribute and the
copies that other modules made with ``from ... import``.

Spans are aggregated in memory, per name and per (parent, child) edge, and
written out as JSON by `dump`. Forked pool workers inherit the wrappers;
each one writes its spans when a task ends, so that the driving process
can merge them after the report.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

SUITES = (
    "algebra_relations",
    "classical_fischer",
    "table_ker",
    "l_fischer",
    "symplectic_fischer_k1",
    "kernel_families",
    "branching_table",
    "multiplicity",
    "dim_identity",
    "s0_branching",
)
NULLSPACE = "linalg.RationalMatrix.nullspace"
MATRIX_OF = "linalg.matrix_of"
WORKER = "cli._worker"
CACHED_KERNELS = ("kernel_L", "kernel_Ds", "lowest_weight_space")

# Hook = (stats of the span, call arguments, result, child span names).
Hook = Callable[[Dict[str, float], tuple, object, set], None]


def _apply_op_pairs(st, args, result, children):
    op, p = args[0], args[1]
    st["term_mono_pairs"] = st.get("term_mono_pairs", 0) + len(op.terms) * len(p)


def _nullspace_cells(st, args, result, children):
    st["cells"] = st.get("cells", 0) + args[0].nrows * args[0].ncols


def _matrix_nnz(st, args, result, children):
    st["nnz"] = st.get("nnz", 0) + sum(len(col) for col in result.columns)


def _rank_full(st, args, result, children):
    nonzero = sum(1 for v in args[0] if v)
    st["full_rank"] = st.get("full_rank", 0) + (result == nonzero)


def _casimir_miss(st, args, result, children):
    st["misses"] = st.get("misses", 0) + (MATRIX_OF in children)


class Tracer:
    """Aggregated span records of one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.flushes = 0
        self.reset()

    def reset(self) -> None:
        self.stats: Dict[str, Dict[str, float]] = {}
        self.edges: Dict[str, Dict[str, float]] = {}
        # [span name, k, t] of each cached kernel call that reached nullspace
        self.computed: List[List[object]] = []
        self.stack: List[list] = []

    # -- recording

    def _wrap(self, name: str, fn, hook: Optional[Hook] = None, key_of_kernel: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == WORKER and tracer.pid != os.getpid():
                # first task in a forked worker: drop what the parent had
                tracer.pid = os.getpid()
                tracer.reset()
            frame = [name, 0.0, set()]
            tracer.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.stack.pop()
                tracer._close(name, dt, frame)
            st = tracer.stats[name]
            if hook is not None:
                hook(st, args, result, frame[2])
            if key_of_kernel and NULLSPACE in frame[2]:
                st["computed"] = st.get("computed", 0) + 1
                tracer.computed.append([name, args[1], args[2]])
            if name == WORKER:
                tracer.dump(tracer.out_dir / f"worker-{os.getpid()}-{tracer.flushes}.json")
                tracer.flushes += 1
                tracer.reset()
            return result

        return wrapper

    def _close(self, name: str, dt: float, frame: list) -> None:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        st["calls"] += 1
        st["total_s"] += dt
        st["self_s"] += dt - frame[1]
        parent = self.stack[-1] if self.stack else None
        edge = f"{parent[0] if parent else ''} -> {name}"
        e = self.edges.get(edge)
        if e is None:
            e = self.edges[edge] = {"calls": 0, "total_s": 0.0}
        e["calls"] += 1
        e["total_s"] += dt
        if parent is not None:
            parent[1] += dt
            parent[2].add(name)

    # -- installation

    def install(self) -> None:
        """Wrap every traced function and rebind it in every module."""
        from sympdirac import cli, linalg, operators, repn, verify

        functions = [
            (operators, "apply_op", _apply_op_pairs),
            (operators, "normal_form", None),
            (operators, "catalog", None),
            (linalg, "matrix_of", _matrix_nnz),
            (linalg, "rank_certified", _rank_full),
            (linalg, "is_direct_sum", None),
            (repn, "casimir_matrix", _casimir_miss),
            (repn, "casimir_eigencheck", None),
            (repn, "simplicial_harmonics", None),
            (repn, "harmonic_space", None),
            (cli, "build_report", None),
            (cli, "render_json", None),
            (cli, WORKER.split(".")[1], None),
        ]
        for mod, attr, hook in functions:
            orig = getattr(mod, attr)
            name = f"{mod.__name__.rsplit('.', 1)[1]}.{attr}"
            self._rebind(orig, self._wrap(name, orig, hook))

        methods = [
            (linalg.RationalMatrix, "nullspace", _nullspace_cells, False),
            (linalg.Subspace, "contains", None, False),
            (linalg.Subspace, "from_vectors", None, False),
            (verify.Verifier, "families", None, False),
        ]
        methods += [(verify.Verifier, s, None, False) for s in SUITES]
        methods += [(verify.Verifier, k, None, True) for k in CACHED_KERNELS]
        for cls, attr, hook, kernel in methods:
            raw = cls.__dict__[attr]
            name = f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, hook, kernel))
            else:
                wrapped = self._wrap(name, raw, hook, kernel)
            setattr(cls, attr, wrapped)

    @staticmethod
    def _rebind(orig, wrapped) -> None:
        """Replace orig by wrapped in every loaded sympdirac module."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "sympdirac" or name.startswith("sympdirac.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)

    # -- output

    def snapshot(self) -> Dict[str, object]:
        return {"pid": os.getpid(), "stats": self.stats, "edges": self.edges,
                "computed": self.computed}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def merge(snapshots: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum span records of several processes into one."""
    stats: Dict[str, Dict[str, float]] = {}
    edges: Dict[str, Dict[str, float]] = {}
    computed: List[List[object]] = []
    for snap in snapshots:
        for table, into in ((snap["stats"], stats), (snap["edges"], edges)):
            for name, rec in table.items():
                acc = into.setdefault(name, {})
                for k, v in rec.items():
                    acc[k] = acc.get(k, 0) + v
        computed.extend(snap["computed"])
    return {"processes": len(snapshots), "stats": stats, "edges": edges,
            "computed": computed}
