"""Exact linear algebra over Q on sparse data.

Rows and vectors are dicts {column index: coefficient}; matrices store
sparse columns. Elimination works on denominator-cleared integer rows
(gcd-stripped after every combination step, so coefficients stay small),
and results are converted back to rationals only at the end.

Subspace bases are kept in reduced row echelon form, which is unique per
subspace, so equality of subspaces is literal equality of bases. The
nullspace routine eliminates with the column order reversed; the standard
free-column nullspace basis of that elimination is then already the
canonical RREF basis with respect to the original order, so no second
reduction pass is needed.

Large rank checks can optionally be certified modulo a big prime first:
rank mod p is a lower bound for rank over Q, and the checks here always
pair it with a matching upper bound (row count), so a successful
certificate is exact, not approximate. Anything inconclusive falls back
to rational elimination.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .rationals import QQ
from .polys import Block, add_scaled, monomial_poly, render_poly
from .operators import monomial_image

Row = Dict[int, QQ]  # sparse vector / matrix row
IntRow = Dict[int, int]


class AmbientMismatch(Exception):
    """Subspace operation on operands with different ambient dimensions."""


class ImageOutsideCodomain(Exception):
    """An operator image has a component outside the requested codomain."""


# ---------------------------------------------------------------------------
# integer row utilities

def _to_int_row(row: Row) -> IntRow:
    """Clear denominators and strip content; sign of the first entry in
    column order is made positive for determinism."""
    if not row:
        return {}
    den = 1
    for c in row.values():
        q = QQ(c)
        den = den * q.denominator // gcd(den, int(q.denominator))
    out = {}
    g = 0
    for col, c in row.items():
        q = QQ(c)
        v = int(q.numerator) * (den // int(q.denominator))
        if v:
            out[col] = v
            g = gcd(g, v)
    if not out:
        return {}
    if g > 1:
        out = {col: v // g for col, v in out.items()}
    if out[min(out)] < 0:
        out = {col: -v for col, v in out.items()}
    return out


def _combine(row: IntRow, lead: int, piv: IntRow, piv_lead: int) -> IntRow:
    """piv_lead * row - lead * piv, gcd-stripped; the shared leading column
    (lead and piv_lead are its entries) cancels."""
    out = {c: piv_lead * v for c, v in row.items()}
    add_scaled(out, piv, -lead)
    if not out:
        return out
    g = 0
    for v in out.values():
        g = gcd(g, v)
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out


def _echelon(int_rows: List[IntRow], col_key) -> List[Tuple[int, IntRow]]:
    """Forward elimination. col_key gives the processing order of columns
    (identity for ordinary RREF, negation for the nullspace trick).
    Returns (pivot column, row) pairs in processing order."""
    buckets: Dict[int, List[IntRow]] = {}
    for row in int_rows:
        if row:
            lead = min(row, key=col_key)
            buckets.setdefault(lead, []).append(row)
    pivots: List[Tuple[int, IntRow]] = []
    while buckets:
        col = min(buckets, key=col_key)
        rows = buckets.pop(col)
        rows.sort(key=len)
        piv = rows[0]
        piv_lead = piv[col]
        pivots.append((col, piv))
        for row in rows[1:]:
            new = _combine(row, row[col], piv, piv_lead)
            if new:
                lead = min(new, key=col_key)
                buckets.setdefault(lead, []).append(new)
    return pivots


def _rref_rows(int_rows: List[IntRow]) -> Tuple[List[int], List[Row]]:
    """Canonical RREF: pivot columns strictly increasing, pivot entries 1,
    pivot columns cleared in all other rows."""
    pivots = _echelon(int_rows, col_key=lambda c: c)
    pivots.sort(key=lambda pr: pr[0])
    reduced: List[Tuple[int, Row]] = []
    for col, row in reversed(pivots):
        qrow: Row = {c: QQ(v, row[col]) for c, v in row.items()}
        for pcol, prow in reduced:
            f = qrow.get(pcol)
            if f is not None:
                add_scaled(qrow, prow, -f)
        reduced.insert(0, (col, qrow))
    cols = [col for col, _ in reduced]
    rows = [row for _, row in reduced]
    return cols, rows


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """A subspace of Q^n held as its canonical RREF basis.

    rows[i] is a sparse vector with leading 1 at pivots[i]; pivots are
    strictly increasing. Two Subspace objects are equal iff they are the
    same subspace, because the RREF basis is unique.

    A subspace produced as a nullspace remembers the matrix it annihilates;
    membership tests then reduce to an exact sparse matrix-vector product.
    """

    def __init__(self, ambient: int, pivots: List[int], rows: List[Row],
                 annihilator: Optional["RationalMatrix"] = None):
        self.ambient = ambient
        self.pivots = pivots
        self.rows = rows
        self.annihilator = annihilator

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable[Row]) -> "Subspace":
        int_rows = [_to_int_row(v) for v in vectors]
        for row in int_rows:
            for c in row:
                if not 0 <= c < ambient:
                    raise AmbientMismatch(f"coordinate {c} outside ambient dimension {ambient}")
        pivots, rows = _rref_rows(int_rows)
        return cls(ambient, pivots, rows)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, list(range(ambient)), [{i: QQ(1)} for i in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Row) -> Row:
        """Subtract the projection onto this subspace along pivot columns."""
        v = dict(vec)
        for pcol, prow in zip(self.pivots, self.rows):
            f = v.get(pcol)
            if f:
                add_scaled(v, prow, -f)
        return v

    def contains(self, vec: Row) -> bool:
        for c in vec:
            if not 0 <= c < self.ambient:
                raise AmbientMismatch(f"coordinate {c} outside ambient dimension {self.ambient}")
        if self.annihilator is not None:
            return not any(self.annihilator.mul_vec(vec).values())
        return not self.reduce(vec)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"ambient {self.ambient} vs {other.ambient}")
        return self.pivots == other.pivots and self.rows == other.rows

    def __hash__(self):  # pragma: no cover
        return hash((self.ambient, tuple(self.pivots)))

    def __repr__(self) -> str:
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked coefficient matrix: a
    vector sum alpha_i a_i with sum alpha_i a_i - sum beta_j b_j = 0."""
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"ambient {a.ambient} vs {b.ambient}")
    cols: List[Row] = []
    for row in a.rows:
        cols.append(dict(row))
    for row in b.rows:
        cols.append({c: -v for c, v in row.items()})
    stacked = RationalMatrix.from_columns(a.ambient, cols)
    combos = stacked.nullspace()
    vectors: List[Row] = []
    for combo in combos.rows:
        vec: Row = {}
        for i, f in combo.items():
            if i < a.dim:
                add_scaled(vec, a.rows[i], f)
        vectors.append(vec)
    return Subspace.from_vectors(a.ambient, vectors)


# ---------------------------------------------------------------------------
# matrices

class RationalMatrix:
    """Sparse matrix over Q, stored by columns."""

    def __init__(self, nrows: int, ncols: int, columns: List[Row]):
        self.nrows = nrows
        self.ncols = ncols
        self.columns = columns

    @classmethod
    def from_columns(cls, nrows: int, columns: Sequence[Row]) -> "RationalMatrix":
        return cls(nrows, len(columns), [dict(c) for c in columns])

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries: Dict[Tuple[int, int], object]) -> "RationalMatrix":
        columns: List[Row] = [{} for _ in range(ncols)]
        for (r, c), v in entries.items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry ({r},{c}) outside {nrows}x{ncols}")
            q = QQ(v)
            if q:
                columns[c][r] = q
        return cls(nrows, ncols, columns)

    def entry(self, r: int, c: int):
        return self.columns[c].get(r, QQ(0))

    def rows_as_dicts(self) -> List[Row]:
        rows: List[Row] = [{} for _ in range(self.nrows)]
        for c, col in enumerate(self.columns):
            for r, v in col.items():
                rows[r][c] = v
        return rows

    def mul_vec(self, vec: Row) -> Row:
        out: Row = {}
        for c, f in vec.items():
            if f:
                add_scaled(out, self.columns[c], f)
        return out

    def rank(self) -> int:
        int_rows = [_to_int_row(r) for r in self.rows_as_dicts() if r]
        return len(_echelon(int_rows, col_key=lambda c: c))

    def nullspace(self) -> Subspace:
        """Canonical RREF basis of {v : M v = 0}, see module docstring."""
        int_rows = [_to_int_row(r) for r in self.rows_as_dicts() if r]
        pivots = _echelon(int_rows, col_key=lambda c: -c)
        pivot_cols = {col for col, _ in pivots}
        solve_order = sorted(pivots, key=lambda pr: pr[0])
        free_cols = [c for c in range(self.ncols) if c not in pivot_cols]
        basis: List[Row] = []
        for f in free_cols:
            vec: Row = {f: QQ(1)}
            for col, row in solve_order:
                acc = QQ(0)
                for c, v in row.items():
                    if c != col:
                        w = vec.get(c)
                        if w:
                            acc += v * w
                if acc:
                    vec[col] = -acc / row[col]
            basis.append(vec)
        return Subspace(self.ncols, free_cols, basis, annihilator=self)

    def image(self) -> Subspace:
        return Subspace.from_vectors(self.nrows, self.columns)

    def __repr__(self) -> str:
        nnz = sum(len(c) for c in self.columns)
        return f"RationalMatrix({self.nrows}x{self.ncols}, nnz={nnz})"


def stack_matrices(mats: Sequence[RationalMatrix]) -> RationalMatrix:
    """Vertical concatenation; all operands must share the column count."""
    mats = [m for m in mats if m is not None]
    if not mats:
        raise ValueError("nothing to stack")
    ncols = mats[0].ncols
    for mat in mats[1:]:
        if mat.ncols != ncols:
            raise AmbientMismatch(f"column counts {ncols} vs {mat.ncols}")
    columns: List[Row] = [{} for _ in range(ncols)]
    offset = 0
    for mat in mats:
        for j, col in enumerate(mat.columns):
            for r, v in col.items():
                columns[j][offset + r] = v
        offset += mat.nrows
    return RationalMatrix(offset, ncols, columns)


def matrix_of(op, domain: Block, codomain: Block) -> RationalMatrix:
    """Matrix of a linear operator between two graded blocks; column j is
    the compiled operator run on the j-th basis monomial of the domain.

    Any image component outside the codomain raises ImageOutsideCodomain;
    nothing is silently dropped.
    """
    columns: List[Row] = []
    for mono in domain.basis:
        image = monomial_image(op, mono)
        col: Row = {}
        for out_mono, coeff in image.items():
            pos = codomain.index.get(out_mono)
            if pos is None:
                raise ImageOutsideCodomain(
                    f"{op.label} maps {render_poly(monomial_poly(mono))} to a term "
                    f"{render_poly(monomial_poly(out_mono, coeff))} outside codomain {codomain}"
                )
            col[pos] = coeff
        columns.append(col)
    return RationalMatrix(codomain.dim, domain.dim, columns)


# ---------------------------------------------------------------------------
# exact rank certificates mod p

_PRIMES = (2147483647, 2147483629, 2147483587)
_DENSE_LIMIT = 80_000_000  # int64 cells


def _rank_modp(int_rows: List[IntRow], ncols: int, p: int) -> int:
    """Rank of the row span modulo p (a lower bound for the rational rank).
    Dense numpy elimination; caller keeps sizes inside _DENSE_LIMIT."""
    nrows = len(int_rows)
    mat = np.zeros((nrows, ncols), dtype=np.int64)
    for i, row in enumerate(int_rows):
        for c, v in row.items():
            mat[i, c] = v % p
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        column = mat[rank:, col]
        nz = np.nonzero(column)[0]
        if nz.size == 0:
            continue
        sel = rank + int(nz[0])
        if sel != rank:
            mat[[rank, sel]] = mat[[sel, rank]]
        inv = pow(int(mat[rank, col]), p - 2, p)
        mat[rank] = (mat[rank] * inv) % p
        rest = mat[rank + 1 :, col]
        nzr = np.nonzero(rest)[0]
        if nzr.size:
            idx = rank + 1 + nzr
            mat[idx] = (mat[idx] - np.outer(mat[idx, col], mat[rank])) % p
        rank += 1
    return rank


def rank_certified(vectors: List[Row], ambient: int) -> int:
    """Exact rank of a list of sparse vectors.

    Tries mod-p certificates first: rank mod p equals the row count only if
    the rational rank does too, so a full-rank certificate is exact. When
    the vectors are dependent mod p (or the dense buffer would be too big),
    falls back to exact rational elimination.
    """
    int_rows = [_to_int_row(v) for v in vectors if v]
    if not int_rows:
        return 0
    if len(int_rows) * ambient <= _DENSE_LIMIT:
        for p in _PRIMES:
            r = _rank_modp(int_rows, ambient, p)
            if r == len(int_rows):
                return r
    return len(_echelon(int_rows, col_key=lambda c: c))


def is_direct_sum(parts: Sequence[Subspace], target: Subspace) -> bool:
    """True iff the parts are independent and their sum is exactly target.

    Checked as: dimensions add up to dim(target), the stacked bases have
    full rank (mod-p certified, rational fallback), and every basis vector
    of every part lies in target. All three together force the sum to
    equal target, with every step exact.
    """
    for part in parts:
        if part.ambient != target.ambient:
            raise AmbientMismatch(f"ambient {part.ambient} vs {target.ambient}")
    total = sum(part.dim for part in parts)
    if total != target.dim:
        return False
    stacked: List[Row] = []
    for part in parts:
        stacked.extend(part.rows)
    if rank_certified(stacked, target.ambient) != total:
        return False
    for part in parts:
        for row in part.rows:
            if not target.contains(row):
                return False
    return True


# ---------------------------------------------------------------------------
# helpers for moving between polynomials and coordinates

def poly_to_vec(p, block: Block) -> Row:
    vec: Row = {}
    for mono, c in p.items():
        pos = block.index.get(mono)
        if pos is None:
            raise ImageOutsideCodomain(
                f"polynomial term {render_poly(monomial_poly(mono, c))} outside block {block}"
            )
        vec[pos] = c
    return vec


def vec_to_poly(vec: Row, block: Block):
    return {block.basis[i]: v for i, v in sorted(vec.items())}
