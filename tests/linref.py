"""Linear-algebra helpers that only the tests use. linalg takes integer
rows only; these clear the rational rows and matrices that some tests
build, read a matrix's rows and intersect two subspaces. linalg tests
membership only in a nullspace or the whole space; these test it in any
span and give a span as a nullspace."""

from math import gcd, lcm
from typing import Dict, List

from sympdirac.linalg import AmbientMismatch, IntRow, RationalMatrix, Row, Subspace
from sympdirac.polys import add_scaled


def cleared(row: Row) -> IntRow:
    """D * row as integers, D the lcm of the entries' denominators; zero
    entries are dropped. A row and its clearing span the same line."""
    den = lcm(1, *{c.denominator for c in row.values()})
    return {k: c.numerator * (den // c.denominator) for k, c in row.items() if c}


def cleared_matrix(nrows: int, ncols: int, columns: List[Row]) -> RationalMatrix:
    """The matrix with the given rational columns, in integer form over the
    lcm of all their denominators."""
    den = lcm(1, *{v.denominator for col in columns for v in col.values()})
    return RationalMatrix(nrows, ncols, den, [{r: v.numerator * (den // v.denominator)
                                               for r, v in col.items() if v} for col in columns])


def matrix_rows(mat: RationalMatrix) -> List[Row]:
    """The rational rows of mat."""
    rows: List[Dict] = [{} for _ in range(mat.nrows)]
    for c, col in enumerate(mat.columns):
        for r, v in col.items():
            rows[r][c] = v
    return rows


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked coefficient matrix: a
    vector sum alpha_i a_i with sum alpha_i a_i - sum beta_j b_j = 0."""
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"ambient {a.ambient} vs {b.ambient}")
    cols = a.int_rows + [{c: -v for c, v in row.items()} for row in b.int_rows]
    combos = RationalMatrix(a.ambient, len(cols), 1, cols).nullspace()
    vectors: List[IntRow] = []
    for combo in combos.int_rows:
        vec: IntRow = {}
        for i, f in combo.items():
            if i < a.dim:
                add_scaled(vec, a.int_rows[i], f)
        vectors.append(vec)
    return Subspace.from_vectors(a.ambient, vectors)


def span_contains(sub: Subspace, vec: IntRow) -> bool:
    """True iff vec lies in sub, by clearing each pivot entry of a copy of
    vec with its own reduced row (each is zero at every other pivot)."""
    row_of = {p: i for i, p in enumerate(sub.pivots)}
    w = dict(vec)
    for c in vec:
        i = row_of.get(c)
        if i is not None:
            row = sub.int_rows[i]
            g = gcd(row[c], w[c])
            lead, f = row[c] // g, w[c] // g
            w = {k: v * lead for k, v in w.items()}
            add_scaled(w, row, -f)
    return not w


def as_nullspace(sub: Subspace) -> Subspace:
    """sub as the nullspace of the matrix whose rows span its orthogonal
    complement, so that its membership test is linalg's."""
    def with_rows(rows: List[IntRow]) -> RationalMatrix:
        cols: List[IntRow] = [{} for _ in range(sub.ambient)]
        for r, row in enumerate(rows):
            for c, v in row.items():
                cols[c][r] = v
        return RationalMatrix(len(rows), sub.ambient, 1, cols)

    return with_rows(with_rows(sub.int_rows).nullspace().int_rows).nullspace()
