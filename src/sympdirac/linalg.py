"""Exact linear algebra over Q on sparse data.

Rows and vectors are dicts {column index: coefficient}. Matrices are
integer-first: a matrix holds sparse integer columns and one denominator
D, a common denominator of its entries, and forms its rational columns
only when they are read. matrix_of builds that form straight from
the operators' integer images (operator_matrix keeps it on the operator),
and nullspaces, nullspace membership and the Casimir certificate in repn
read it as it is.

Vectors are integer rows in one block's coordinates. An operator reaches
one only as its kept block matrix times a row (`mul_int_vec`); `reindex`
moves a row to another block by the monomial each coordinate stands for.

Elimination runs on integer rows in two phases, both through one
fraction-free step (`_combine`: cross-multiply by the two leading
entries, then strip the gcd, so coefficients stay small):

- forward (`_echelon`): bucket the rows by leading column, then walk the
  columns in order and eliminate each below its shortest row, giving one
  integer row per pivot;
- back (`_reduce_back`): from the last pivot to the first, clear every
  later pivot column from each pivot row, so each row keeps only its own
  pivot column and free columns.

The nullspace basis is read off the reduced rows on integers too, so a
rational is formed only where a caller reads one: RREF rows (each reduced
row divided by its lead) and rational matrix columns, both on first read.

A Subspace holds its pivot columns and its reduced rows as primitive
integer rows (gcd 1, positive pivot entry). That form is as canonical as
the RREF, so equality of subspaces is literal equality of those rows; the
rational RREF rows are formed on first read. The nullspace eliminates with
the column order reversed, which makes every pivot column larger than the
free columns of its row; the basis read off the reduced rows is then
already the canonical basis with respect to the original order.

Spans, ranks, direct sums and membership tests take integer rows only,
with no zero entries, and ignore their scale. Every rank is the exact
rank of integer elimination.

A nullspace of several matrices (`M.nullspace(*below)`) eliminates all
their transposed rows, each made primitive, so the operands are never
stacked or brought to one denominator. It keeps the operands as its
annihilator: a vector lies in it iff every operand sends it to zero, a
test on the matrices that does not read the computed basis. That and the
whole space are the only membership tests; a span built from vectors has
none, so the target of is_direct_sum is a nullspace or the whole space.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .rationals import QQ
from .polys import Block, Monomial, add_scaled, monomial_poly, monomial_sort_key, render_poly
from .operators import integer_images

Row = Dict[int, QQ]  # sparse vector / matrix row
IntRow = Dict[int, int]


class AmbientMismatch(Exception):
    """Subspace operation on operands with different ambient dimensions."""


class ImageOutsideCodomain(Exception):
    """An operator image, or a row moved by reindex, has a component
    outside the requested codomain."""


# ---------------------------------------------------------------------------
# integer row utilities

def _primitive(row: IntRow) -> IntRow:
    """row over the gcd of its entries, signed so that the entry in its
    least column is positive."""
    if not row:
        return row
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


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


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """A subspace of Q^n held as its pivot columns and reduced rows.

    int_rows[i] is a primitive integer row (gcd 1) with a positive entry
    at pivots[i], which is its least column, and zeros at every other
    pivot; pivots are strictly increasing. These rows are unique per
    subspace, so two Subspace objects are equal iff they are the same
    subspace. rows gives the RREF basis (pivot entries 1), formed on first
    read.

    A subspace produced as a nullspace remembers the matrices it is the
    common kernel of; a membership test reduces to exact sparse
    matrix-vector products on those matrices' integer forms.
    """

    def __init__(self, ambient: int, pivots: List[int], int_rows: List[IntRow],
                 annihilator: Optional[Tuple["RationalMatrix", ...]] = None):
        self.ambient = ambient
        self.pivots = pivots
        self.int_rows = int_rows
        self.annihilator = annihilator
        self._rows: Optional[List[Row]] = None

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable[IntRow]) -> "Subspace":
        int_rows = list(vectors)
        for row in int_rows:
            for c in row:
                if not 0 <= c < ambient:
                    raise AmbientMismatch(f"coordinate {c} outside ambient dimension {ambient}")
        pivots = _reduce_back(_echelon(int_rows, ambient))
        return cls(ambient, [col for col, _ in pivots], [_primitive(row) for _, row in pivots])

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, list(range(ambient)), [{i: 1} for i in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> List[Row]:
        if self._rows is None:
            self._rows = [{c: QQ(v, row[p]) for c, v in row.items()}
                          for p, row in zip(self.pivots, self.int_rows)]
        return self._rows

    def contains(self, vec: IntRow) -> bool:
        """True iff vec lies in the subspace; the subspace must be the whole
        space or a nullspace, else ValueError. In a nullspace, vec lies iff
        every operand of its annihilator sends it to zero."""
        for c in vec:
            if not 0 <= c < self.ambient:
                raise AmbientMismatch(f"coordinate {c} outside ambient dimension {self.ambient}")
        if self.dim == self.ambient:
            return True
        if self.annihilator is None:
            raise ValueError("membership is tested only in the whole space or a nullspace")
        return not any(mat.mul_int_vec(vec) for mat in self.annihilator)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"ambient {self.ambient} vs {other.ambient}")
        return self.pivots == other.pivots and self.int_rows == other.int_rows

    def __repr__(self) -> str:
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


# ---------------------------------------------------------------------------
# matrices

class RationalMatrix:
    """Sparse nrows x ncols matrix over Q with columns int_columns[j] / den:
    it is held in integer form, den a common denominator of the entries and
    the columns of den * M as integer vectors with no zero entries."""

    def __init__(self, nrows: int, ncols: int, den: int, int_columns: List[IntRow]):
        self.nrows = nrows
        self.ncols = ncols
        self._integer_form = (den, int_columns)
        self._columns: Optional[List[Row]] = None

    @property
    def columns(self) -> List[Row]:
        """The rational columns, formed on first read. No report reads
        them; the benchmark's tracer (perfbench/tracer.py, _matrix_nnz)
        counts a matrix's nonzeros through them, and tests compare them."""
        if self._columns is None:
            den, cols = self._integer_form
            self._columns = [{r: QQ(v, den) for r, v in col.items()} for col in cols]
        return self._columns

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

    def nullspace(self, *below: "RationalMatrix") -> Subspace:
        """Canonical basis of the vectors that self and every matrix in
        below send to 0, see module docstring; the operands must share the
        column count, else AmbientMismatch. The rows eliminated are every
        operand's transposed integer rows, each made primitive. The basis
        vector of free column f is 1 at f and -row[f] / row[p] at the pivot
        p of each reduced row, here scaled by the lcm of those denominators,
        which makes it primitive with a positive entry at f. The subspace
        keeps the operands as its annihilator."""
        mats = (self,) + below
        int_rows: List[IntRow] = []
        for mat in mats:
            if mat.ncols != self.ncols:
                raise AmbientMismatch(f"column counts {self.ncols} vs {mat.ncols}")
            rows: List[IntRow] = [{} for _ in range(mat.nrows)]
            for c, col in enumerate(mat._integer_form[1]):
                for r, v in col.items():
                    rows[r][c] = v
            int_rows += [_primitive(r) for r in rows if r]
        pivots = _reduce_back(_echelon(int_rows, self.ncols, reverse=True))
        pivot_cols = {col for col, _ in pivots}
        free_cols = [c for c in range(self.ncols) if c not in pivot_cols]
        # per free column, (pivot, numerator, denominator) of its entries
        entries: Dict[int, List[Tuple[int, int, int]]] = {f: [] for f in free_cols}
        for col, row in pivots:
            lead = row[col]
            for f, v in row.items():
                if f != col:
                    g = gcd(v, lead)
                    entries[f].append((col, -v // g, lead // g))
        basis: List[IntRow] = []
        for f in free_cols:
            den = lcm(1, *(d for _, _, d in entries[f]))
            vec = {f: den}
            for col, n, d in entries[f]:
                vec[col] = n * (den // d)
            basis.append(vec)
        return Subspace(self.ncols, free_cols, basis, annihilator=mats)

    def __repr__(self) -> str:
        nnz = sum(len(c) for c in self._integer_form[1])
        return f"RationalMatrix({self.nrows}x{self.ncols}, nnz={nnz})"


def matrix_of(op, domain: Block, codomain: Block) -> RationalMatrix:
    """Matrix of a linear operator between two graded blocks; column j is
    the compiled operator run on integers on the j-th basis monomial of
    the domain, over its plan's denominator (operators.integer_images).
    The columns are brought to the lcm of those denominators.

    Any image component outside the codomain raises ImageOutsideCodomain,
    naming the first such column and its least escaping term in canonical
    order; nothing is silently dropped.
    """
    index = codomain.index
    columns: List[IntRow] = []
    dens: List[int] = []
    for mono, (image, d) in zip(domain.basis, integer_images(op, domain.basis)):
        try:
            columns.append({index[out]: v for out, v in image.items()})
        except KeyError:
            out = min((t for t in image if t not in index), key=monomial_sort_key)
            raise ImageOutsideCodomain(
                f"{op.label} maps {render_poly(monomial_poly(mono))} to a term "
                f"{render_poly(monomial_poly(out, QQ(image[out], d)))} outside codomain {codomain}"
            ) from None
        dens.append(d)
    den = lcm(1, *set(dens))
    columns = [col if d == den else {r: v * (den // d) for r, v in col.items()}
               for col, d in zip(columns, dens)]
    return RationalMatrix(codomain.dim, domain.dim, den, columns)


def operator_matrix(op, domain: Block, codomain: Block) -> RationalMatrix:
    """matrix_of(op, domain, codomain), built once per (m, domain
    tri-degrees, codomain tri-degrees) and kept on op. An operator's terms
    are fixed, so that key and op are everything the matrix depends on."""
    key = (domain.m, domain.tri_degrees, codomain.tri_degrees)
    mat = op.matrices.get(key)
    if mat is None:
        mat = op.matrices[key] = matrix_of(op, domain, codomain)
    return mat


# ---------------------------------------------------------------------------
# ranks and direct sums

def rank_certified(vectors: List[IntRow], ambient: int) -> int:
    """Exact rank of a list of integer rows, by integer elimination."""
    return len(_echelon([v for v in vectors if v], ambient))


def is_independent_sum(parts: Sequence[Subspace], target: Subspace) -> bool:
    """True iff the dimensions of the parts add up to dim(target) and their
    stacked integer rows have full rank: is_direct_sum without its
    containment test, for a caller that has tested every part row against
    target already."""
    for part in parts:
        if part.ambient != target.ambient:
            raise AmbientMismatch(f"ambient {part.ambient} vs {target.ambient}")
    total = sum(part.dim for part in parts)
    if total != target.dim:
        return False
    return rank_certified([row for part in parts for row in part.int_rows], target.ambient) == total


def is_direct_sum(parts: Sequence[Subspace], target: Subspace) -> bool:
    """True iff the parts are independent and their sum is exactly target,
    which is the whole space or a nullspace (Subspace.contains).

    Checked as: dimensions add up to dim(target), the stacked integer rows
    of the parts have full rank (is_independent_sum), and every one of them
    lies in target. All three together force the sum to equal target, with
    every step exact.
    """
    return is_independent_sum(parts, target) and all(
        target.contains(row) for part in parts for row in part.int_rows)


# ---------------------------------------------------------------------------
# moving between coordinates and polynomials

def reindex(rows: Iterable[IntRow], frm: Sequence[Monomial], to: Block) -> List[IntRow]:
    """rows, whose coordinate i stands for the monomial frm[i], in the
    coordinates of block to. A monomial outside to raises
    ImageOutsideCodomain, naming the least such monomial of the first row
    that has one."""
    index = to.index
    out: List[IntRow] = []
    for row in rows:
        try:
            out.append({index[frm[i]]: v for i, v in row.items()})
        except KeyError:
            mono = min((frm[i] for i in row if frm[i] not in index), key=monomial_sort_key)
            raise ImageOutsideCodomain(
                f"row term {render_poly(monomial_poly(mono))} outside block {to}") from None
    return out


def vec_to_poly(vec: Row, block: Block):
    return {block.basis[i]: v for i, v in sorted(vec.items())}
