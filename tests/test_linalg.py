import random
from fractions import Fraction
from math import gcd

import pytest

from sympdirac.linalg import (
    AmbientMismatch,
    RationalMatrix,
    Subspace,
    is_direct_sum,
    rank_certified,
)
from sympdirac.polys import add_scaled
from sympdirac.rationals import QQ

from linref import as_nullspace, cleared, cleared_matrix, matrix_rows, span_contains, subspace_intersect


def random_matrix(rng, nrows, ncols, density=0.2):
    columns = [{} for _ in range(ncols)]
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                v = rng.randint(-3, 3)
                if v:
                    columns[c][r] = v
    return RationalMatrix(nrows, ncols, 1, columns)


def test_rank_nullity_on_random_matrices():
    rng = random.Random(2024)
    for trial in range(200):
        nrows = rng.randint(1, 60)
        ncols = rng.randint(1, 60)
        mat = random_matrix(rng, nrows, ncols)
        ker = mat.nullspace()
        assert rank_certified(mat.integer_form()[1], mat.nrows) + ker.dim == ncols
        # every reported kernel vector really is one
        for vec in ker.rows:
            assert all(sum(v * vec.get(c, 0) for c, v in row.items()) == 0
                       for row in matrix_rows(mat))


def test_nullspace_basis_is_rref():
    rng = random.Random(5)
    for _ in range(40):
        mat = random_matrix(rng, rng.randint(1, 20), rng.randint(1, 20), 0.3)
        ker = mat.nullspace()
        assert ker.pivots == sorted(ker.pivots)
        for pcol, row in zip(ker.pivots, ker.rows):
            assert row[pcol] == 1
            assert min(row) == pcol
            for other_p, other_row in zip(ker.pivots, ker.rows):
                if other_p != pcol:
                    assert pcol not in other_row
        # canonical: re-reducing the basis reproduces it exactly
        again = Subspace.from_vectors(ker.ambient, map(cleared, ker.rows))
        assert again.pivots == ker.pivots and again.rows == ker.rows


def test_rref_canonical_under_permutation():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(2, 30)
        vecs = []
        for _ in range(rng.randint(1, 12)):
            vecs.append({c: QQ(rng.randint(-4, 4)) for c in rng.sample(range(n), rng.randint(1, min(6, n)))})
        sub = Subspace.from_vectors(n, map(cleared, vecs))
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        scaled = [{c: v * QQ(3, 2) for c, v in row.items()} for row in shuffled]
        other = Subspace.from_vectors(n, map(cleared, scaled))
        assert sub == other


def test_dimension_formula_sum_intersection():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 18)
        va = [{c: QQ(rng.randint(-3, 3)) for c in rng.sample(range(n), rng.randint(1, n))} for _ in range(rng.randint(1, 6))]
        vb = [{c: QQ(rng.randint(-3, 3)) for c in rng.sample(range(n), rng.randint(1, n))} for _ in range(rng.randint(1, 6))]
        a = Subspace.from_vectors(n, map(cleared, va))
        b = Subspace.from_vectors(n, map(cleared, vb))
        s = Subspace.from_vectors(n, a.int_rows + b.int_rows)
        i = subspace_intersect(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        for vec in i.int_rows:
            assert span_contains(a, vec) and span_contains(b, vec)
        for vec in a.int_rows:
            assert span_contains(s, vec)


def test_membership_and_ambient_guard():
    a = Subspace.from_vectors(4, [{0: 1, 1: 2}, {2: 1}])
    assert span_contains(a, {0: 3, 1: 6, 2: -1})
    assert not span_contains(a, {3: 1})
    b = Subspace.from_vectors(5, [{0: 1}])
    with pytest.raises(AmbientMismatch):
        subspace_intersect(a, b)
    with pytest.raises(AmbientMismatch):
        a == b


def test_full_space_contains_every_vector_in_range():
    for full in (Subspace.full(4), Subspace.from_vectors(4, [{i: i + 1} for i in range(4)])):
        assert full.contains({0: 6, 3: -1})
        assert full.contains({})
        # the coordinate range is still checked
        for c in (4, -1):
            with pytest.raises(AmbientMismatch):
                full.contains({c: 1})


def test_rank_certificate_agrees_with_rational_rank():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(5, 40)
        k = rng.randint(1, n)
        vecs = [{c: QQ(rng.randint(-9, 9), rng.randint(1, 3)) for c in rng.sample(range(n), rng.randint(1, min(8, n)))} for _ in range(k)]
        exact = len(dense_rref(vecs, n)[0])
        assert rank_certified([cleared(v) for v in vecs], n) == exact
        assert Subspace.from_vectors(n, map(cleared, vecs)).dim == exact


def test_is_direct_sum():
    e = lambda i: {i: 1}
    amb = 6
    a = Subspace.from_vectors(amb, [e(0), e(1)])
    b = Subspace.from_vectors(amb, [e(2)])
    c = Subspace.from_vectors(amb, [{3: 1, 4: 1}, e(5)])
    full = Subspace.full(amb)
    partial = as_nullspace(Subspace.from_vectors(amb, [e(0), e(1), e(2), {3: 1, 4: 1}, e(5)]))
    assert is_direct_sum([a, b, c], partial)
    assert not is_direct_sum([a, b, c], full)  # dimensions do not add up
    overlap = Subspace.from_vectors(amb, [{0: 1, 2: 1}])
    assert not is_direct_sum([a, b, overlap, Subspace.from_vectors(amb, [e(4), e(5)])], full)
    wrong_target = as_nullspace(Subspace.from_vectors(amb, [e(i) for i in (0, 1, 2, 3)]))
    d = Subspace.from_vectors(amb, [e(4)])
    assert not is_direct_sum([a, b, d], wrong_target)  # sum has right dim, wrong space


def test_span_is_the_same_from_rational_and_scaled_integer_vectors():
    rng = random.Random(808)
    for _ in range(60):
        n = rng.randint(2, 25)
        vecs = [{c: QQ(rng.randint(-7, 7), rng.randint(1, 6)) for c in rng.sample(range(n), rng.randint(1, n))}
                for _ in range(rng.randint(1, 10))]
        vecs = [{c: v for c, v in vec.items() if v} for vec in vecs]
        # each vector cleared to integers and scaled by its own integer
        scaled = []
        for vec in vecs:
            den = 1
            for v in vec.values():
                den = den * v.denominator // gcd(den, v.denominator)
            f = rng.choice([1, -1, 2, -3, 12, 2**70 + 1])
            scaled.append({c: int(v * den) * f for c, v in vec.items()})
        a = Subspace.from_vectors(n, map(cleared, vecs))
        b = Subspace.from_vectors(n, scaled)
        assert all(type(v) is int for row in scaled for v in row.values())
        assert a == b
        assert (a.pivots, a.rows) == (b.pivots, b.rows) == dense_rref(vecs, n)
        assert rank_certified(scaled, n) == rank_certified([cleared(v) for v in vecs], n) == a.dim
        for vec, big in zip(vecs, scaled):
            assert span_contains(a, big) and span_contains(b, cleared(vec))
        # same pivots, different span
        if a.dim and len(a.int_rows[0]) > 1:
            moved = {c: v * (2 if c == a.pivots[0] else 1) for c, v in a.int_rows[0].items()}
            other = Subspace.from_vectors(n, [moved] + a.int_rows[1:])
            assert other.pivots == a.pivots and other != a
        # integer rows: primitive, positive at the pivot, the pivot least
        for p, row in zip(a.pivots, a.int_rows):
            assert min(row) == p and row[p] > 0
            assert all(type(v) is int for v in row.values())
            assert gcd(*row.values()) == 1


def test_rank_and_direct_sum_on_big_integer_rows():
    big = 2**64 + 13
    huge = 3**50
    n = 7
    u = {0: big, 2: -huge, 5: 1}
    v = {1: huge, 2: big * huge, 6: -big}
    w = {0: 2 * big * huge, 1: -3 * huge * big, 2: -2 * huge * huge - 3 * big * huge * big,
         5: 2 * huge, 6: 3 * big * big}  # 2*huge*u - 3*big*v, dependent over Q
    assert rank_certified([u, v, w], n) == 2
    assert rank_certified([u, v, {3: big}], n) == 3
    # the same rows as rationals, cleared, give the same rank
    assert rank_certified([cleared({c: QQ(x, big) for c, x in r.items()}) for r in (u, v, w)], n) == 2
    a = Subspace.from_vectors(n, [u])
    b = Subspace.from_vectors(n, [v])
    c = Subspace.from_vectors(n, [w])
    target = as_nullspace(Subspace.from_vectors(n, [u, v]))
    assert target.dim == 2 and target.contains(w)
    assert is_direct_sum([a, b], target)
    assert is_direct_sum([a, c], target)
    assert not is_direct_sum([a, b, c], target)          # dimensions do not add up
    assert not is_direct_sum([a, b], as_nullspace(Subspace.from_vectors(n, [u, {3: big}])))  # v outside
    # the dependence survives as a failed rank on a target of the right size
    assert not is_direct_sum([b, c, Subspace.from_vectors(n, [{c: 2 * huge * x for c, x in u.items()}])],
                             as_nullspace(Subspace.from_vectors(n, [u, v, {3: 1}])))
    # kernel membership on integer rows above 2**64: the columns of the
    # matrix are u, v and w, so (2*huge, -3*big, -1) is in its kernel
    mat = RationalMatrix(n, 3, 1, [u, v, w])
    ker = mat.nullspace()
    assert ker.dim == 1
    assert ker.contains({0: 2 * huge, 1: -3 * big, 2: -1})
    assert not ker.contains({0: 2 * huge, 1: -3 * big, 2: 1})


def test_matrix_entry_and_image():
    mat = cleared_matrix(3, 2, [{0: QQ(1), 2: QQ(1, 2)}, {2: QQ(1)}])
    assert mat.integer_form() == (2, [{0: 2, 2: 1}, {2: 2}])
    assert mat.columns[0].get(2, 0) == QQ(1, 2)
    assert mat.columns[1].get(1, 0) == 0
    img = Subspace.from_vectors(mat.nrows, mat.integer_form()[1])
    assert img.dim == 2
    assert span_contains(img, {0: 2, 2: 1})
    assert not span_contains(img, {1: 1})


# ---------------------------------------------------------------------------
# a dense Fraction Gauss-Jordan reference, sharing no code with linalg

def dense_rref(rows, ncols):
    """Pivot columns and RREF rows (sparse, nonzero entries only) of the
    span of rows, by textbook dense Gauss-Jordan over Fraction."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        lead = mat[r][c]
        mat[r] = [v / lead for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return pivots, [{c: v for c, v in enumerate(row) if v != 0} for row in mat[:r]]


def dense_kernel(mat):
    """RREF of the kernel of mat: the free-column solutions of its dense
    RREF, brought to RREF again by dense_rref."""
    pivots, rows = dense_rref(matrix_rows(mat), mat.ncols)
    vecs = []
    for f in (c for c in range(mat.ncols) if c not in pivots):
        vec = {f: Fraction(1)}
        for p, row in zip(pivots, rows):
            if row.get(f):
                vec[p] = -row[f]
        vecs.append(vec)
    return dense_rref(vecs, mat.ncols)


def rational_matrix(rng, nrows, ncols, density):
    """Sparse random matrix with entries n/d, |n| <= 6, d <= 5, plus the
    awkward shapes: a zero row, a zero column, a duplicate row and a
    scaled row, each with some probability."""
    rows = [{c: QQ(rng.choice([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6]), rng.randint(1, 5))
             for c in range(ncols) if rng.random() < density} for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.5:
        rows[rng.randrange(nrows)] = {}
    if ncols > 2 and rng.random() < 0.5:
        dead = rng.randrange(ncols)
        rows = [{c: v for c, v in row.items() if c != dead} for row in rows]
    if nrows > 3 and rng.random() < 0.5:
        rows[0] = dict(rows[1])
        rows[2] = {c: v * QQ(-7, 3) for c, v in rows[3].items()}
    columns = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            columns[c][r] = v
    return cleared_matrix(nrows, ncols, columns)


def test_elimination_matches_dense_reference():
    rng = random.Random(4096)
    shapes = set()
    for trial in range(150):
        nrows, ncols = rng.randint(1, 24), rng.randint(1, 24)
        mat = rational_matrix(rng, nrows, ncols, rng.choice([0.1, 0.25, 0.5]))
        ker = mat.nullspace()
        assert (ker.pivots, ker.rows) == dense_kernel(mat)
        # membership in a nullspace goes through the integer form of mat
        for vec in ker.rows[:2] + [{c: QQ(1, c + 1) for c in range(ncols)}]:
            killed = all(sum(v * vec.get(c, 0) for c, v in row.items()) == 0
                         for row in matrix_rows(mat))
            assert ker.contains(cleared(vec)) == killed
        image = Subspace.from_vectors(mat.nrows, mat.integer_form()[1])
        assert (image.pivots, image.rows) == dense_rref(mat.columns, mat.nrows)
        rows = Subspace.from_vectors(mat.ncols, map(cleared, matrix_rows(mat)))
        assert (rows.pivots, rows.rows) == dense_rref(matrix_rows(mat), mat.ncols)
        shapes.add("empty kernel" if ker.dim == 0 else "kernel")
        shapes.add("full rank" if image.dim == min(nrows, ncols) else "deficient")
    assert shapes == {"empty kernel", "kernel", "full rank", "deficient"}


def dense_reduce(sub, vec):
    """vec minus its projection along the pivots, by dense arithmetic."""
    out = [Fraction(vec.get(c, 0)) for c in range(sub.ambient)]
    coeffs = [out[p] for p in sub.pivots]
    for f, row in zip(coeffs, sub.rows):
        for c in range(sub.ambient):
            out[c] -= f * Fraction(row.get(c, 0))
    return {c: v for c, v in enumerate(out) if v != 0}


def test_reduce_and_contains_match_dense_reference():
    rng = random.Random(99)
    for trial in range(80):
        n = rng.randint(2, 20)
        gens = [{c: QQ(rng.randint(-4, 4), rng.randint(1, 5)) for c in rng.sample(range(n), rng.randint(1, n))}
                for _ in range(rng.randint(1, n))]
        subs = [Subspace.from_vectors(n, map(cleared, gens)), Subspace.full(n)]
        inside = {}
        for g in gens:
            add_scaled(inside, g, QQ(rng.randint(-3, 3), rng.randint(1, 4)))
        other = {c: QQ(rng.choice([-3, -1, 1, 2, 4])) for c in rng.sample(range(n), rng.randint(1, n))}
        for sub in subs:
            dense_dim = len(dense_rref(sub.rows, n)[0])
            for vec in (inside, other, {}):
                in_span = len(dense_rref(sub.rows + [vec], n)[0]) == dense_dim
                assert span_contains(sub, cleared(vec)) == in_span
                assert span_contains(sub, cleared(vec)) == (not dense_reduce(sub, vec))
                # as a nullspace, the span has linalg's membership test
                assert as_nullspace(sub).contains(cleared(vec)) == in_span
        # the vectors touch pivot and free columns alike
        free = set(range(n)) - set(subs[0].pivots)
        if free and subs[0].dim:
            probe = {min(free): 3, subs[0].pivots[0]: 2}
            assert not span_contains(subs[0], probe)
        assert span_contains(subs[0], cleared(inside)) and subs[1].contains(cleared(other))
        assert as_nullspace(subs[0]) == subs[0]


def test_contains_refuses_a_span_that_is_not_a_nullspace():
    span = Subspace.from_vectors(3, [{0: 1, 1: 2}])
    with pytest.raises(ValueError):
        span.contains({0: 1, 1: 2})
    with pytest.raises(ValueError):
        is_direct_sum([span], span)
    assert as_nullspace(span).contains({0: 1, 1: 2})
