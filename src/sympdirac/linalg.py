"""Exact linear algebra over Q on sparse data.

Rows and vectors are dicts {column index: coefficient}. Matrices are
integer-first: a matrix holds sparse integer columns and one denominator
D, a common denominator of its entries, and forms its rational columns
only when they are read. matrix_of builds that form straight from
the operators' integer images, and nullspaces, stacks, nullspace
membership and the Casimir certificate in repn read it as it is.

Elimination runs on denominator-cleared integer rows in two phases, both
through one fraction-free step (`_combine`: cross-multiply by the two
leading entries, then strip the gcd, so coefficients stay small):

- forward (`_echelon`): bucket the rows by leading column, then walk the
  columns in order and eliminate each below its shortest row, giving one
  integer row per pivot;
- back (`_reduce_back`): from the last pivot to the first, clear every
  later pivot column from each pivot row, so each row keeps only its own
  pivot column and free columns.

Rationals are formed only from the reduced rows, one division per output
entry: RREF rows are divided by their leads, and a nullspace basis vector
takes -row[f] / row[pivot] in each pivot column.

Subspace bases are kept in reduced row echelon form, which is unique per
subspace, so equality of subspaces is literal equality of bases. The
nullspace eliminates with the column order reversed, which makes every
pivot column larger than the free columns of its row; the basis read off
the reduced rows is then already the canonical RREF basis with respect to
the original order.

Large rank checks can optionally be certified modulo a big prime first:
rank mod p is a lower bound for rank over Q, and the checks here always
pair it with a matching upper bound (row count), so a successful
certificate is exact, not approximate. Anything inconclusive falls back
to exact integer elimination.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .rationals import QQ
from .polys import Block, add_scaled, monomial_poly, render_poly
from .operators import integer_image

Row = Dict[int, QQ]  # sparse vector / matrix row
IntRow = Dict[int, int]


class AmbientMismatch(Exception):
    """Subspace operation on operands with different ambient dimensions."""


class ImageOutsideCodomain(Exception):
    """An operator image has a component outside the requested codomain."""


# ---------------------------------------------------------------------------
# integer row utilities

def to_int_row(row: Row) -> IntRow:
    """Clear denominators and strip content; sign of the first entry in
    column order is made positive for determinism. Entries may be ints,
    Fractions or mpqs: all three carry numerator and denominator."""
    if not row:
        return {}
    den = 1
    for c in row.values():
        d = int(c.denominator)
        if d != 1:
            den = den * d // gcd(den, d)
    out = {}
    g = 0
    for col, c in row.items():
        v = int(c.numerator) * (den // int(c.denominator))
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


def _echelon(int_rows: List[IntRow], ncols: int, reverse: bool = False) -> List[Tuple[int, IntRow]]:
    """Forward elimination over columns 0..ncols-1 in increasing order (in
    decreasing order with reverse, for the nullspace). Each row waits in
    the bucket of its leading column; a combined row always leads later.
    Returns (pivot column, row) pairs in processing order."""
    lead_of = max if reverse else min
    buckets: Dict[int, List[IntRow]] = {}
    for row in int_rows:
        if row:
            buckets.setdefault(lead_of(row), []).append(row)
    pivots: List[Tuple[int, IntRow]] = []
    for col in (reversed(range(ncols)) if reverse else range(ncols)):
        rows = buckets.pop(col, None)
        if rows is None:
            continue
        rows.sort(key=len)
        piv = rows[0]
        piv_lead = piv[col]
        pivots.append((col, piv))
        for row in rows[1:]:
            new = _combine(row, row[col], piv, piv_lead)
            if new:
                buckets.setdefault(lead_of(new), []).append(new)
    return pivots


def _reduce_back(pivots: List[Tuple[int, IntRow]]) -> List[Tuple[int, IntRow]]:
    """Back elimination of _echelon's output, walked from the last pivot
    to the first: every later pivot column is cleared from each row with
    _combine. Each returned row holds its own pivot column and free
    columns only; (pivot column, row) pairs stay in processing order."""
    done: Dict[int, IntRow] = {}
    out: List[Tuple[int, IntRow]] = []
    for col, row in reversed(pivots):
        for pcol in [c for c in row if c in done]:
            prow = done[pcol]
            row = _combine(row, row[pcol], prow, prow[pcol])
        done[col] = row
        out.append((col, row))
    out.reverse()
    return out


def _rref_rows(int_rows: List[IntRow], ncols: int) -> Tuple[List[int], List[Row]]:
    """Canonical RREF: pivot columns strictly increasing, pivot entries 1,
    pivot columns cleared in all other rows."""
    pivots = _reduce_back(_echelon(int_rows, ncols))
    cols = [col for col, _ in pivots]
    rows = [{c: QQ(v, row[col]) for c, v in row.items()} for col, row in pivots]
    return cols, rows


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """A subspace of Q^n held as its canonical RREF basis.

    rows[i] is a sparse vector with leading 1 at pivots[i]; pivots are
    strictly increasing. Two Subspace objects are equal iff they are the
    same subspace, because the RREF basis is unique.

    A subspace produced as a nullspace remembers the matrix it annihilates;
    membership tests then reduce to an exact sparse matrix-vector product
    on the matrix's integer form.
    """

    def __init__(self, ambient: int, pivots: List[int], rows: List[Row],
                 annihilator: Optional["RationalMatrix"] = None):
        self.ambient = ambient
        self.pivots = pivots
        self.rows = rows
        self.annihilator = annihilator
        self._row_of = {p: i for i, p in enumerate(pivots)}

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable[Row]) -> "Subspace":
        int_rows = [to_int_row(v) for v in vectors]
        for row in int_rows:
            for c in row:
                if not 0 <= c < ambient:
                    raise AmbientMismatch(f"coordinate {c} outside ambient dimension {ambient}")
        pivots, rows = _rref_rows(int_rows, ambient)
        return cls(ambient, pivots, rows)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, list(range(ambient)), [{i: QQ(1)} for i in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Row) -> Row:
        """Subtract the projection onto this subspace along pivot columns.
        An RREF row is zero in every other pivot column, so each pivot
        entry of vec is cleared once, by its own row."""
        v = dict(vec)
        for c, f in vec.items():
            i = self._row_of.get(c)
            if i is not None and f:
                add_scaled(v, self.rows[i], -f)
        return v

    def contains(self, vec: Row) -> bool:
        for c in vec:
            if not 0 <= c < self.ambient:
                raise AmbientMismatch(f"coordinate {c} outside ambient dimension {self.ambient}")
        if self.annihilator is not None:
            return not self.annihilator.mul_int_vec(to_int_row(vec))
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
    """Sparse matrix over Q, held in integer form: D and the columns of
    D * M as integer vectors, D a common denominator of the entries. The
    rational columns are formed on first read."""

    def __init__(self, nrows: int, ncols: int, columns: List[Row]):
        den = lcm(1, *{int(v.denominator) for col in columns for v in col.values()})
        self.nrows = nrows
        self.ncols = ncols
        self._integer_form = (den, [{r: int(v.numerator) * (den // int(v.denominator))
                                     for r, v in col.items()} for col in columns])
        self._columns: Optional[List[Row]] = columns

    @classmethod
    def from_integer_form(cls, nrows: int, ncols: int, den: int, columns: List[IntRow]) -> "RationalMatrix":
        """The matrix with columns columns[j] / den, den a common
        denominator of those entries."""
        mat = cls.__new__(cls)
        mat.nrows = nrows
        mat.ncols = ncols
        mat._integer_form = (den, columns)
        mat._columns = None
        return mat

    @classmethod
    def from_columns(cls, nrows: int, columns: Sequence[Row]) -> "RationalMatrix":
        return cls(nrows, len(columns), [dict(c) for c in columns])

    @property
    def columns(self) -> List[Row]:
        if self._columns is None:
            den, cols = self._integer_form
            self._columns = [{r: QQ(v, den) for r, v in col.items()} for col in cols]
        return self._columns

    def rows_as_dicts(self) -> List[Row]:
        return _transpose(self.columns, self.nrows)

    def integer_form(self) -> Tuple[int, List[IntRow]]:
        """(D, the columns of D * M as integers), D a common denominator
        of the entries."""
        return self._integer_form

    def mul_int_vec(self, vec: IntRow, f: int = 1) -> IntRow:
        """f * (D * M) * vec for an integer vector, D as in integer_form."""
        cols = self._integer_form[1]
        out: IntRow = {}
        for c, v in vec.items():
            add_scaled(out, cols[c], f * v)
        return out

    def nullspace(self) -> Subspace:
        """Canonical RREF basis of {v : M v = 0}, see module docstring: the
        basis vector of free column f is 1 at f and -row[f] / row[p] at
        the pivot p of each reduced row."""
        int_rows = [to_int_row(r) for r in _transpose(self._integer_form[1], self.nrows) if r]
        pivots = _reduce_back(_echelon(int_rows, self.ncols, reverse=True))
        pivot_cols = {col for col, _ in pivots}
        free_cols = [c for c in range(self.ncols) if c not in pivot_cols]
        basis: Dict[int, Row] = {f: {f: QQ(1)} for f in free_cols}
        for col, row in reversed(pivots):
            lead = row[col]
            for f, v in row.items():
                if f != col:
                    basis[f][col] = QQ(-v, lead)
        return Subspace(self.ncols, free_cols, [basis[f] for f in free_cols], annihilator=self)

    def __repr__(self) -> str:
        nnz = sum(len(c) for c in self._integer_form[1])
        return f"RationalMatrix({self.nrows}x{self.ncols}, nnz={nnz})"


def _transpose(columns: List[Dict], nrows: int) -> List[Dict]:
    rows: List[Dict] = [{} for _ in range(nrows)]
    for c, col in enumerate(columns):
        for r, v in col.items():
            rows[r][c] = v
    return rows


def stack_matrices(mats: Sequence[RationalMatrix]) -> RationalMatrix:
    """Vertical concatenation; all operands must share the column count.
    Each operand's integer columns are scaled to the lcm of the operands'
    denominators."""
    mats = [m for m in mats if m is not None]
    if not mats:
        raise ValueError("nothing to stack")
    ncols = mats[0].ncols
    for mat in mats[1:]:
        if mat.ncols != ncols:
            raise AmbientMismatch(f"column counts {ncols} vs {mat.ncols}")
    den = lcm(*(mat.integer_form()[0] for mat in mats))
    columns: List[IntRow] = [{} for _ in range(ncols)]
    offset = 0
    for mat in mats:
        d, cols = mat.integer_form()
        f = den // d
        for j, col in enumerate(cols):
            dst = columns[j]
            for r, v in col.items():
                dst[offset + r] = v * f
        offset += mat.nrows
    return RationalMatrix.from_integer_form(offset, ncols, den, columns)


def matrix_of(op, domain: Block, codomain: Block) -> RationalMatrix:
    """Matrix of a linear operator between two graded blocks; column j is
    the compiled operator run on integers on the j-th basis monomial of
    the domain, over its plan's denominator. The columns are brought to
    the lcm of those denominators.

    Any image component outside the codomain raises ImageOutsideCodomain;
    nothing is silently dropped.
    """
    index = codomain.index
    columns: List[IntRow] = []
    dens: List[int] = []
    for mono in domain.basis:
        image, d = integer_image(op, mono)
        col: IntRow = {}
        for out_mono, v in image.items():
            pos = index.get(out_mono)
            if pos is None:
                raise ImageOutsideCodomain(
                    f"{op.label} maps {render_poly(monomial_poly(mono))} to a term "
                    f"{render_poly(monomial_poly(out_mono, QQ(v, d)))} outside codomain {codomain}"
                )
            col[pos] = v
        columns.append(col)
        dens.append(d)
    den = lcm(1, *set(dens))
    columns = [col if d == den else {r: v * (den // d) for r, v in col.items()}
               for col, d in zip(columns, dens)]
    return RationalMatrix.from_integer_form(codomain.dim, domain.dim, den, columns)


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
    falls back to exact integer elimination.
    """
    int_rows = [to_int_row(v) for v in vectors if v]
    if not int_rows:
        return 0
    if len(int_rows) * ambient <= _DENSE_LIMIT:
        for p in _PRIMES:
            r = _rank_modp(int_rows, ambient, p)
            if r == len(int_rows):
                return r
    return len(_echelon(int_rows, ambient))


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
