import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympdirac.polys import (
    Block,
    TriDegree,
    VariableId,
    VarBlock,
    basis_size,
    monomial_basis,
    monomial_sort_key,
    render_poly,
    tri_degrees_of_total,
    x_,
    y_,
    z_,
)
from sympdirac.linalg import ImageOutsideCodomain, reindex, vec_to_poly
from sympdirac.rationals import QQ

from polycalc import differentiate, multiply_by, poly_add, poly_scale, random_poly, tri_degree_components


def count_compositions(total, parts):
    # independent counting oracle, no binomials
    if parts == 1:
        return 1
    return sum(count_compositions(total - first, parts - 1) for first in range(total + 1))


def test_basis_matches_composition_oracle():
    for m in (1, 2, 3, 6):
        for d in [TriDegree(2, 0, 1), TriDegree(0, 3, 2), TriDegree(1, 1, 1)]:
            want = (
                count_compositions(d.kx, m)
                * count_compositions(d.ky, m)
                * count_compositions(d.kz, m)
            )
            basis = monomial_basis(m, d)
            assert len(basis) == want == basis_size(m, d)
            assert len(set(basis)) == len(basis)
            for mono in basis:
                assert sum(mono[:m]) == d.kx
                assert sum(mono[m : 2 * m]) == d.ky
                assert sum(mono[2 * m :]) == d.kz


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=8),
    kx=st.integers(min_value=0, max_value=6),
    ky=st.integers(min_value=0, max_value=6),
    kz=st.integers(min_value=0, max_value=6),
)
def test_basis_count_formula(m, kx, ky, kz):
    if kx + ky + kz > 6:
        return
    d = TriDegree(kx, ky, kz)
    assert len(monomial_basis(m, d)) == basis_size(m, d)


def test_canonical_order_pinned_example():
    # two x-variables, degrees 0..2: powers of earlier variables lead
    basis = []
    for deg in range(3):
        basis.extend(monomial_basis(2, TriDegree(deg, 0, 0)))
    basis.sort(key=monomial_sort_key)
    x_part = [mono[:2] for mono in basis]
    assert x_part == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_sort_is_total_and_idempotent():
    rng = random.Random(7)
    monos = set()
    for _ in range(200):
        monos.add(tuple(rng.randint(0, 3) for _ in range(9)))
    monos = list(monos)
    once = sorted(monos, key=monomial_sort_key)
    assert sorted(once, key=monomial_sort_key) == once
    keys = [monomial_sort_key(mono) for mono in once]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)  # order is total on distinct monomials


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), block=st.sampled_from("xyz"), idx=st.integers(min_value=1, max_value=4))
def test_derivative_multiplication_commutator_is_identity(seed, block, idx):
    # [d/dv, v * .] = identity on everything
    rng = random.Random(seed)
    p = random_poly(rng, m=4, max_degree=5, terms=6)
    v = VariableId(VarBlock(block), idx)
    lhs = poly_add(differentiate(multiply_by(p, v), v), poly_scale(multiply_by(differentiate(p, v), v), -1))
    assert lhs == p


def test_tri_degree_reassembly():
    rng = random.Random(11)
    for _ in range(25):
        p = random_poly(rng, m=3, max_degree=6, terms=8)
        parts = tri_degree_components(p)
        total = {}
        for d, comp in parts.items():
            for mono, c in comp.items():
                assert mono not in total
                total[mono] = c
        assert total == p
        for d, comp in parts.items():
            for mono in comp:
                assert sum(mono[:3]) == d.kx and sum(mono[3:6]) == d.ky and sum(mono[6:]) == d.kz


def test_render_examples():
    m = 6
    zero = {}
    assert render_poly(zero) == "0"
    mono = [0] * 18
    mono[0] = 1  # x1
    mono[13] = 2  # z2^2
    p = {tuple(mono): QQ(3, 2)}
    assert render_poly(p) == "3/2*x1*z2^2"
    q = {}
    e1 = [0] * 18
    e1[0] = 1
    q[tuple(e1)] = QQ(1)
    e2 = [0] * 18
    e2[7] = 1  # y2
    e2[12] = 1  # z1
    q[tuple(e2)] = QQ(-1)
    assert render_poly(q) == "x1 - y2*z1"


def test_block_requires_stable_range():
    with pytest.raises(ValueError):
        Block(5, [TriDegree(1, 0, 0)])
    blk = Block(6, [TriDegree(1, 0, 0), TriDegree(0, 0, 1)])
    assert blk.dim == 12
    keys = [monomial_sort_key(mono) for mono in blk.basis]
    assert keys == sorted(keys)


@pytest.mark.parametrize("degs", [
    [TriDegree(1, 0, 1), TriDegree(0, 1, 1), TriDegree(0, 0, 2), TriDegree(2, 0, 0)],  # equal totals
    [TriDegree(1, 0, 3), TriDegree(0, 1, 1)],  # distinct totals, as in every eigenblock
    [TriDegree(0, 2, 0), TriDegree(1, 0, 0), TriDegree(0, 1, 1), TriDegree(0, 0, 0)],  # both
])
def test_block_basis_is_sorted_union_of_its_tri_degrees(degs):
    blk = Block(6, degs)
    union = [mono for d in degs for mono in monomial_basis(6, d)]
    assert blk.basis == sorted(union, key=monomial_sort_key)
    assert [blk.index[mono] for mono in blk.basis] == list(range(blk.dim))


def test_coefficient_roundtrip():
    blk = Block(6, [TriDegree(1, 0, 1)])
    rng = random.Random(3)
    vec = {i: QQ(rng.randint(-5, 5), rng.randint(1, 4)) for i in range(blk.dim)}
    vec = {i: c for i, c in vec.items() if c}
    p = vec_to_poly(vec, blk)
    assert {blk.index[mono]: c for mono, c in p.items()} == vec
    # the same coordinates, moved into a larger block by monomial
    big = Block(6, [TriDegree(0, 1, 0), TriDegree(1, 0, 1)])
    moved = reindex([vec], blk.basis, big)[0]
    assert vec_to_poly(moved, big) == p


def test_reindex_names_a_monomial_outside_the_target():
    blk = Block(6, [TriDegree(1, 0, 1)])
    times_x1 = [(mono[0] + 1,) + mono[1:] for mono in blk.basis]
    target = Block(6, [TriDegree(2, 0, 1)])
    rows = [{0: 2, 5: -1}]
    assert reindex(rows, times_x1, target) == [{target.index[times_x1[0]]: 2, target.index[times_x1[5]]: -1}]
    # the least escaping monomial is x1 times blk's first basis monomial x1*z1
    with pytest.raises(ImageOutsideCodomain, match=r"x1\^2\*z1 outside block Block\(m=6, tri_degrees=\[\(1,0,1\)\]"):
        reindex(rows, times_x1, blk)


def test_tri_degrees_of_total():
    degs = tri_degrees_of_total(2)
    assert len(degs) == 6
    assert all(d.total == 2 for d in degs)
    assert degs == sorted(degs)


def test_variable_helpers():
    assert str(x_(1)) == "x1"
    assert str(y_(3)) == "y3"
    assert str(z_(6)) == "z6"
    assert x_(2).flat(6) == 1
    assert y_(1).flat(6) == 6
    assert z_(6).flat(6) == 17
    with pytest.raises(ValueError):
        x_(7).flat(6)
    p = {(1, 0, 0, 0, 0, 0, 0, 0, 0): QQ(1)}
    assert differentiate(p, y_(1)) == {}
    assert poly_add(p, poly_scale(p, -1)) == {}
