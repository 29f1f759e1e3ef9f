"""Verma-module bookkeeping for the (R, L) pair, beside acceptance
criterion 09; tests/test_repn.py tests it. No report row reads it: it
applies the catalog's R, L and script-E to explicit polynomials and
compares them with the structure constants of an sl(2) Verma module."""

from dataclasses import dataclass
from typing import Dict, List

from sympdirac.operators import apply_op
from sympdirac.polys import monomial_m, render_poly
from sympdirac.rationals import QQ, qq_str
from sympdirac.repn import VermaLabel

from polycalc import poly_scale, tri_degree_of


class NotLowestWeight(Exception):
    """Vector not annihilated by the lowering operator, or not an
    eigenvector of the grading element."""


@dataclass
class VermaCheckResult:
    label: VermaLabel
    rows: List[Dict[str, object]]
    ok: bool


def verma_action_check(cat, v, n_max: int) -> VermaCheckResult:
    """Check the raising tower over a lowest weight vector v.

    v must satisfy L v = 0 and script-E v = lambda v, lambda read off the
    tri-degree of one of its monomials; then for each n <= n_max the
    measured relations are
        script-E (R^n v) = (lambda + 2n) R^n v
        L (R^n v)        = -n (lambda + n - 1) R^{n-1} v.
    """
    if not v:
        raise NotLowestWeight("zero vector")
    if apply_op(cat["L"], v):
        raise NotLowestWeight(f"L does not annihilate {render_poly(v)}")
    es = cat["E_script"]
    mono = next(iter(v))
    d = tri_degree_of(mono)
    lam = QQ(d.ky - d.kx + d.kz) + QQ(monomial_m(mono), 2)
    if apply_op(es, v) != poly_scale(v, lam):
        raise NotLowestWeight(f"{render_poly(v)} is not a script-E eigenvector")

    rows: List[Dict[str, object]] = []
    cur = v
    for n in range(1, n_max + 1):
        prev, cur = cur, apply_op(cat["R"], cur)
        e_const, l_const = lam + 2 * n, -QQ(n) * (lam + n - 1)
        rows.append({"n": n, "scriptE_constant": qq_str(e_const), "L_constant": qq_str(l_const),
                     "scriptE_ok": apply_op(es, cur) == poly_scale(cur, e_const),
                     "L_ok": apply_op(cat["L"], cur) == poly_scale(prev, l_const)})
    return VermaCheckResult(VermaLabel(lam), rows, all(r["scriptE_ok"] and r["L_ok"] for r in rows))
