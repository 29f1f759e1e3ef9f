from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympdirac.rationals import QQ
from sympdirac import repn
from sympdirac.linalg import vec_to_poly
from sympdirac.operators import (
    EulerScalar,
    LinearOperator,
    OperatorTerm,
    apply_op,
    catalog,
    der_,
    inner_mul_der,
    mul_,
    op_scale,
    site_symmetric,
)
from sympdirac.polys import Block, TriDegree, monomial_m, monomial_sort_key, x_, y_, z_
from sympdirac.repn import (
    BRANCHING_TABLE,
    HighestWeightSO,
    NonDominantWeight,
    VermaLabel,
    casimir_eigencheck,
    casimir_identities,
    casimir_scalar,
    components_at_level,
    dim_weight,
    harmonic_dim,
    harmonic_space,
    howe_scalar,
    intertwines_rotations,
    simplicial_harmonics,
)

from polycalc import poly_scale
from verma import NotLowestWeight, verma_action_check

# dim H_a(R^6) for a = 0..7, from the binomial formula; the nullspace
# route below has to reproduce these before anything downstream leans
# on them
H_DIMS_M6 = (1, 6, 20, 50, 105, 196, 336, 540)


@pytest.fixture(scope="module")
def cat():
    return catalog(6)


def test_harmonic_dims_frozen_oracle():
    assert tuple(harmonic_dim(6, a) for a in range(8)) == H_DIMS_M6


def test_harmonic_space_matches_formula():
    for a in range(7):
        assert harmonic_space(6, a).dim == H_DIMS_M6[a]


def test_harmonic_polys_are_harmonic():
    # an independent reference: the z-Laplacian applied by hand
    blk = Block(6, [TriDegree(0, 0, 4)])
    for row in harmonic_space(6, 4).rows:
        out = {}
        for mono, c in vec_to_poly(row, blk).items():
            for i in range(12, 18):
                if mono[i] >= 2:
                    tgt = mono[:i] + (mono[i] - 2,) + mono[i + 1:]
                    out[tgt] = out.get(tgt, QQ(0)) + c * mono[i] * (mono[i] - 1)
        assert not any(out.values())


def weyl_dim_so(m: int, l1: int, l2: int = 0) -> int:
    """The Weyl dimension product for so(m) at the weight (l1, l2, 0, ...,
    0), the reference that dim_weight's closed forms are compared with."""
    r = m // 2
    lam = [l1, l2] + [0] * (r - 2)
    rho = [Fraction(m - 2 * i, 2) for i in range(1, r + 1)]
    val = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            val *= (lam[i] + rho[i] - lam[j] - rho[j]) / (rho[i] - rho[j])
            val *= (lam[i] + rho[i] + lam[j] + rho[j]) / (rho[i] + rho[j])
        if m % 2 == 1:
            val *= (lam[i] + rho[i]) / rho[i]
    assert val.denominator == 1
    return int(val)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=6, max_value=9), st.integers(min_value=0, max_value=8))
def test_weyl_product_matches_harmonic_formula(m, a):
    assert weyl_dim_so(m, a, 0) == harmonic_dim(m, a)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=6, max_value=9), st.integers(min_value=1, max_value=8))
def test_weyl_product_matches_hook_formula(m, a):
    expect = m * harmonic_dim(m, a) - harmonic_dim(m, a + 1) - harmonic_dim(m, a - 1)
    assert weyl_dim_so(m, a, 1) == expect
    assert dim_weight(m, HighestWeightSO(a, 1)) == expect


def test_dominance_enforced_at_construction():
    with pytest.raises(NonDominantWeight):
        HighestWeightSO(0, 1)
    with pytest.raises(NonDominantWeight):
        HighestWeightSO(2, -1)
    with pytest.raises(NonDominantWeight):
        simplicial_harmonics(6, 1, 2)


def test_simplicial_dims_both_routes():
    blk, space = simplicial_harmonics(6, 1, 1, "z", "x")
    assert space.dim == 15 == dim_weight(6, HighestWeightSO(1, 1))
    blk, space = simplicial_harmonics(6, 2, 1, "z", "x")
    assert space.dim == 64 == dim_weight(6, HighestWeightSO(2, 1))
    # the same weight realized on the y side has the same dimension
    blk_y, space_y = simplicial_harmonics(6, 2, 1, "z", "y")
    assert space_y.dim == 64
    assert blk_y.tri_degrees != blk.tri_degrees


def test_simplicial_l0_is_plain_harmonics():
    blk, space = simplicial_harmonics(6, 3, 0)
    assert space.dim == H_DIMS_M6[3]
    assert blk.dim == comb(8, 5)


def test_simplicial_two_two_matches_weyl():
    # no report meets lambda2 = 2, so dim_weight has no closed form for it
    assert weyl_dim_so(6, 2, 2) == 84
    blk, space = simplicial_harmonics(6, 2, 2, "z", "x")
    assert space.dim == 84
    with pytest.raises(ValueError):
        dim_weight(6, HighestWeightSO(2, 2))


def test_casimir_scalar_values():
    assert casimir_scalar(6, HighestWeightSO(1)) == 5
    assert casimir_scalar(6, HighestWeightSO(2)) == 12
    assert casimir_scalar(6, HighestWeightSO(1, 1)) == 8
    assert casimir_scalar(6, HighestWeightSO(2, 1)) == 15


def test_casimir_eigencheck_on_harmonics(cat):
    blk, space = simplicial_harmonics(6, 2, 0)
    assert casimir_eigencheck(cat, blk, space, HighestWeightSO(2)) is None
    assert casimir_eigencheck(cat, blk, space, HighestWeightSO(1))


def test_casimir_eigencheck_on_simplicial(cat):
    blk, space = simplicial_harmonics(6, 2, 1, "z", "x")
    assert casimir_eigencheck(cat, blk, space, HighestWeightSO(2, 1)) is None


def test_casimir_eigencheck_with_scaled_casimir(cat, monkeypatch):
    blk, space = simplicial_harmonics(6, 2, 1, "z", "x")
    w = HighestWeightSO(2, 1)
    halved = dict(cat)
    halved["Casimir"] = op_scale(cat["Casimir"], QQ(1, 2))
    bad = casimir_eigencheck(halved, blk, space, w)
    assert bad == vec_to_poly(space.rows[0], blk)
    # the witness is an eigenvector of the halved Casimir, for 15/2
    assert apply_op(halved["Casimir"], bad) == poly_scale(bad, QQ(15, 2))
    assert casimir_eigencheck(cat, blk, space, w) is None
    # a scalar with a denominator: expecting 15/2 makes the halved one pass
    monkeypatch.setattr(repn, "casimir_scalar", lambda m, weight: QQ(15, 2))
    assert casimir_eigencheck(halved, blk, space, w) is None
    assert casimir_eigencheck(cat, blk, space, w)
    monkeypatch.undo()
    # a Casimir with denominators can still pass: 5/3 * 12 is the scalar 20 of (2,2)
    blk2, space2 = simplicial_harmonics(6, 2, 0)
    scaled = dict(cat)
    scaled["Casimir"] = op_scale(cat["Casimir"], QQ(5, 3))
    assert casimir_eigencheck(scaled, blk2, space2, HighestWeightSO(2, 2)) is None
    assert casimir_eigencheck(scaled, blk2, space2, HighestWeightSO(2))
    assert casimir_eigencheck(cat, blk2, space2, HighestWeightSO(2)) is None


def test_dim_and_casimir_separate_weights():
    seen = {}
    for a in range(8):
        for second in (0, 1):
            if second > a:
                continue
            w = HighestWeightSO(a, second)
            key = (dim_weight(6, w), casimir_scalar(6, w))
            assert key not in seen, (w, seen[key])
            seen[key] = w


def test_verma_tower_constants(cat):
    one = {(0,) * 18: QQ(1)}
    res = verma_action_check(cat, one, 3)
    assert res.ok
    assert res.label == VermaLabel(QQ(3))
    assert res.label.describe(6) == "m/2"
    assert [r["L_constant"] for r in res.rows] == ["-3", "-8", "-15"]

    x1 = {(1,) + (0,) * 17: QQ(1)}
    res = verma_action_check(cat, x1, 2)
    assert res.ok
    assert res.label.describe(6) == "m/2-1"

    z1 = {(0,) * 12 + (1,) + (0,) * 5: QQ(1)}
    res = verma_action_check(cat, z1, 3)
    assert res.ok
    assert res.label == VermaLabel(QQ(4))


def test_verma_rejects_non_lowest(cat):
    y1 = {(0,) * 6 + (1,) + (0,) * 11: QQ(1)}
    with pytest.raises(NotLowestWeight):
        verma_action_check(cat, y1, 1)
    mixed = {(1,) + (0,) * 17: QQ(1), (0,) * 12 + (1,) + (0,) * 5: QQ(1)}
    with pytest.raises(NotLowestWeight):
        verma_action_check(cat, mixed, 1)


def test_branching_table_shape():
    assert [line.verma_offset for line in BRANCHING_TABLE] == [-2, -1, 0, 1, 2]
    assert [(line.second, line.min_a) for line in BRANCHING_TABLE] == [(0, 1), (1, 1), (0, 1), (1, 1), (0, 0)]


def test_components_at_level():
    lvl = components_at_level(-1)
    assert [(a, str(w)) for _, a, w in lvl] == [(1, "(1)")]
    lvl = components_at_level(2)
    weights = [str(w) for _, _, w in lvl]
    assert weights == ["(4)", "(3,1)", "(2)", "(1,1)", "(0)"]
    total = sum(dim_weight(6, w) for _, _, w in lvl)
    assert total == 316


def test_embedded_harmonics_live_in_z(cat):
    # harmonic_space's coordinates are those of the z-only block
    blk = Block(6, [TriDegree(0, 0, 2)])
    polys = [vec_to_poly(row, blk) for row in harmonic_space(6, 2).rows]
    assert len(polys) == 20
    for p in polys:
        for mono in p:
            assert monomial_m(mono) == 6
            assert sum(mono[:12]) == 0
        assert apply_op(cat["sl_h_Y"], p) == {}


@pytest.mark.parametrize("m", [6, 7])
def test_zonly_basis_is_the_z_part_of_eigenblock_0_a(m):
    # harmonic_space's coordinates are those of eigenblock (0, a): every
    # monomial of degree a in z, in canonical order
    from sympdirac.verify import Verifier

    ver = Verifier(m, {})
    for a in range(7):
        basis = ver.eigenblock(0, a).basis
        assert simplicial_harmonics(m, a, 0)[0].basis == basis
        assert len(basis) == comb(a + m - 1, m - 1)
        assert all(not any(mono[:2 * m]) and sum(mono) == a for mono in basis)
        assert list(basis) == sorted(basis, key=monomial_sort_key)


def test_verma_label_describe_negative():
    assert VermaLabel(QQ(2)).describe(6) == "m/2-1"
    assert VermaLabel(QQ(5)).describe(6) == "m/2+2"
    with pytest.raises(ValueError):
        VermaLabel(QQ(7, 3)).describe(6)


@pytest.mark.parametrize("m", [6, 7, 8, 9])
def test_casimir_identities_hold_for_the_catalog(m):
    assert casimir_identities(catalog(m), m)


def test_casimir_identities_fail_for_a_mutated_casimir_or_rotation(cat):
    for name, op in (("Casimir", op_scale(cat["Casimir"], QQ(1, 2))),
                     ("L_1_2", op_scale(cat["L_1_2"], 2))):
        mutant = dict(cat)
        mutant[name] = op
        assert not casimir_identities(mutant, 6), name
    # a word through d_x and d_y is dropped by both Howe identities; only
    # the sum of squared rotations sees it
    extra = OperatorTerm(EulerScalar(1), (der_(x_(1)), der_(y_(1)), mul_(z_(1)), mul_(z_(1))))
    mutant = dict(cat)
    mutant["Casimir"] = LinearOperator("Casimir", cat["Casimir"].terms + (extra,))
    assert not casimir_identities(mutant, 6)


def test_howe_identities_read_the_hook_annihilator(cat, monkeypatch):
    # with another skew Euler operator the identities fail: they hold only
    # for the pairings simplicial_harmonics takes its constraints from
    pairings = repn._pairings

    def other_skew(m, first, second):
        out = pairings(m, first, second)
        out["skew_euler"] = LinearOperator("skew_euler", inner_mul_der(repn._MAKER[second], z_, m))
        return out

    monkeypatch.setattr(repn, "_pairings", other_skew)
    assert not casimir_identities(cat, 6)


def test_howe_scalar_is_the_casimir_scalar_of_the_hook_and_harmonic_weights():
    for m in (6, 7, 8):
        for k in range(8):
            assert howe_scalar(m, k, 0) == casimir_scalar(m, HighestWeightSO(k)) == k * (k + m - 2)
            if k >= 1:
                assert howe_scalar(m, k, 1) == casimir_scalar(m, HighestWeightSO(k, 1))


def test_intertwines_rotations(cat):
    k0, k1 = Block(6, [TriDegree(0, 0, 3)]), Block(6, [TriDegree(1, 0, 2)])
    assert intertwines_rotations(cat, cat["S_xz"], k0, k1)
    # fixed by every site permutation, but no rotation commutes with it
    cubic = LinearOperator("sum x_j^2 d_zj", [OperatorTerm(EulerScalar(1), (der_(z_(j)), mul_(x_(j)), mul_(x_(j))))
                                             for j in range(1, 7)])
    assert site_symmetric(cubic, 6)
    assert not intertwines_rotations(cat, cubic, k0, Block(6, [TriDegree(2, 0, 2)]))
    assert not intertwines_rotations(cat, LinearOperator("S_xz", cat["S_xz"].terms[1:]), k0, k1)
