import random

import pytest

from sympdirac.linalg import (
    AmbientMismatch,
    RationalMatrix,
    Subspace,
    is_direct_sum,
    rank_certified,
    subspace_intersect,
)
from sympdirac.rationals import QQ


def random_matrix(rng, nrows, ncols, density=0.2):
    entries = {}
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                entries[(r, c)] = QQ(rng.randint(-3, 3))
    return RationalMatrix.from_entries(nrows, ncols, entries)


def test_rank_nullity_on_random_matrices():
    rng = random.Random(2024)
    for trial in range(200):
        nrows = rng.randint(1, 60)
        ncols = rng.randint(1, 60)
        mat = random_matrix(rng, nrows, ncols)
        ker = mat.nullspace()
        assert mat.rank() + ker.dim == ncols
        # every reported kernel vector really is one
        for vec in ker.rows:
            assert mat.mul_vec(vec) == {}


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
        again = Subspace.from_vectors(ker.ambient, ker.rows)
        assert again.pivots == ker.pivots and again.rows == ker.rows


def test_rref_canonical_under_permutation():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(2, 30)
        vecs = []
        for _ in range(rng.randint(1, 12)):
            vecs.append({c: QQ(rng.randint(-4, 4)) for c in rng.sample(range(n), rng.randint(1, min(6, n)))})
        sub = Subspace.from_vectors(n, vecs)
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        scaled = [{c: v * QQ(3, 2) for c, v in row.items()} for row in shuffled]
        other = Subspace.from_vectors(n, scaled)
        assert sub == other


def test_dimension_formula_sum_intersection():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 18)
        va = [{c: QQ(rng.randint(-3, 3)) for c in rng.sample(range(n), rng.randint(1, n))} for _ in range(rng.randint(1, 6))]
        vb = [{c: QQ(rng.randint(-3, 3)) for c in rng.sample(range(n), rng.randint(1, n))} for _ in range(rng.randint(1, 6))]
        a = Subspace.from_vectors(n, va)
        b = Subspace.from_vectors(n, vb)
        s = Subspace.from_vectors(n, a.rows + b.rows)
        i = subspace_intersect(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        for vec in i.rows:
            assert a.contains(vec) and b.contains(vec)
        for vec in a.rows:
            assert s.contains(vec)


def test_membership_and_ambient_guard():
    a = Subspace.from_vectors(4, [{0: QQ(1), 1: QQ(2)}, {2: QQ(1)}])
    assert a.contains({0: QQ(3), 1: QQ(6), 2: QQ(-1)})
    assert not a.contains({3: QQ(1)})
    b = Subspace.from_vectors(5, [{0: QQ(1)}])
    with pytest.raises(AmbientMismatch):
        subspace_intersect(a, b)
    with pytest.raises(AmbientMismatch):
        a == b


def test_rank_certificate_agrees_with_rational_rank():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(5, 40)
        k = rng.randint(1, n)
        vecs = [{c: QQ(rng.randint(-9, 9), rng.randint(1, 3)) for c in rng.sample(range(n), rng.randint(1, min(8, n)))} for _ in range(k)]
        exact = Subspace.from_vectors(n, vecs).dim
        assert rank_certified(vecs, n) == exact


def test_is_direct_sum():
    e = lambda i: {i: QQ(1)}
    amb = 6
    a = Subspace.from_vectors(amb, [e(0), e(1)])
    b = Subspace.from_vectors(amb, [e(2)])
    c = Subspace.from_vectors(amb, [{3: QQ(1), 4: QQ(1)}, e(5)])
    full = Subspace.full(amb)
    partial = Subspace.from_vectors(amb, [e(0), e(1), e(2), {3: QQ(1), 4: QQ(1)}, e(5)])
    assert is_direct_sum([a, b, c], partial)
    assert not is_direct_sum([a, b, c], full)  # dimensions do not add up
    overlap = Subspace.from_vectors(amb, [{0: QQ(1), 2: QQ(1)}])
    assert not is_direct_sum([a, b, overlap, Subspace.from_vectors(amb, [e(4), e(5)])], full)
    wrong_target = Subspace.from_vectors(amb, [e(i) for i in (0, 1, 2, 3)])
    d = Subspace.from_vectors(amb, [e(4)])
    assert not is_direct_sum([a, b, d], wrong_target)  # sum has right dim, wrong space


def test_matrix_entry_and_image():
    mat = RationalMatrix.from_entries(3, 2, {(0, 0): QQ(1), (2, 0): QQ(1, 2), (2, 1): QQ(1)})
    assert mat.entry(2, 0) == QQ(1, 2)
    assert mat.entry(1, 1) == 0
    img = mat.image()
    assert img.dim == 2
    assert img.contains({0: QQ(2), 2: QQ(1)})
    assert not img.contains({1: QQ(1)})
