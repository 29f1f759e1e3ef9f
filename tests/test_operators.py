import random
from math import lcm

import pytest

from sympdirac.linalg import AmbientMismatch, matrix_of, rank_certified
from sympdirac.operators import (
    ActionKind,
    EulerScalar,
    LinearOperator,
    OperatorTerm,
    SingularEulerDenominator,
    _rotation,
    apply_op,
    catalog,
    commutator,
    compose,
    der_,
    integer_images,
    mul_,
    nf_bracket,
    nf_product,
    normal_form,
    op_scale,
    op_sub,
    site_map,
    site_symmetric,
    sp_labels,
)
from sympdirac.polys import (
    Block,
    TriDegree,
    add_scaled,
    monomial_basis,
    render_poly,
    x_,
    y_,
    z_,
)
from sympdirac.rationals import QQ
from sympdirac.verify import Verifier

from linref import cleared_matrix
from polycalc import differentiate, multiply_by, normal_form_op, poly_scale, random_poly, tri_degree_of

M = 6


@pytest.fixture(scope="module")
def cat():
    return catalog(M)


def poly_mul(p, q):
    """Product of two polynomials, a reference for the operator tests."""
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            add_scaled(out, {tuple(a + b for a, b in zip(ma, mb)): ca * cb})
    return out


def same_on(a, b, blk):
    """a and b agree on every basis monomial of blk."""
    return all(apply_op(a, {b_mono: QQ(1)}) == apply_op(b, {b_mono: QQ(1)}) for b_mono in blk.basis)


def mono(**powers):
    """Monomial from names like x1=2, z3=1."""
    exps = [0] * (3 * M)
    makers = {"x": x_, "y": y_, "z": z_}
    for name, e in powers.items():
        exps[makers[name[0]](int(name[1:])).flat(M)] = e
    return tuple(exps)


def test_heisenberg_single_pair():
    d = LinearOperator("d_x1", [OperatorTerm(EulerScalar(1), (der_(x_(1)),))])
    x = LinearOperator("x1", [OperatorTerm(EulerScalar(1), (mul_(x_(1)),))])
    one = {mono(): QQ(1)}
    assert apply_op(commutator(d, x), one) == one


def test_dirac_down_kills_z_only_polys(cat):
    rng = random.Random(1)
    for _ in range(10):
        p = {}
        for _ in range(4):
            exps = [0] * (3 * M)
            for _ in range(rng.randint(0, 4)):
                exps[12 + rng.randrange(M)] += 1
            p[tuple(exps)] = QQ(rng.randint(1, 5))
        assert apply_op(cat["D_s"], p) == {}


def test_dirac_up_on_constants(cat):
    img = apply_op(cat["D_s_dag"], {mono(): QQ(1)})
    expect = {}
    for j in range(1, M + 1):
        expect[mono(**{f"x{j}": 1, f"z{j}": 1})] = QQ(1)
    assert img == expect
    assert render_poly(img) == "x1*z1 + x2*z2 + x3*z3 + x4*z4 + x5*z5 + x6*z6"


def test_lowering_kills_x_times_harmonic(cat):
    h = {mono(z1=1, z2=1): QQ(1)}  # z-harmonic
    p = multiply_by(h, x_(1))
    assert apply_op(cat["L"], p) == {}


def test_bracket_of_R_and_L_is_script_E(cat):
    # measured orientation: [R, L] = E_script, so [L, R] acts as -E_script
    blk = Block(M, [TriDegree(1, 0, 2)])
    assert same_on(commutator(cat["R"], cat["L"]), cat["E_script"], blk)
    assert same_on(
        commutator(cat["L"], cat["R"]), op_scale(cat["E_script"], -1), blk
    )
    mixed = Block(M, [TriDegree(1, 1, 1), TriDegree(0, 0, 3)])
    assert same_on(commutator(cat["R"], cat["L"]), cat["E_script"], mixed)


def test_dirac_bracket_matches_sl_c_cartan(cat):
    # [D_s, D_s_dag] = -(E + m); equivalently [sl_c_X, sl_c_Y] = sl_c_H
    from sympdirac.operators import euler_op

    target = euler_op("minus_E_minus_m", (-1, -1, 0, -M))
    for degs in ([(0, 0, 1)], [(1, 0, 1), (0, 1, 0)], [(1, 1, 0), (2, 0, 2)]):
        blk = Block(M, [TriDegree(*d) for d in degs])
        assert same_on(commutator(cat["D_s"], cat["D_s_dag"]), target, blk)
        assert same_on(
            commutator(cat["sl_c_X"], cat["sl_c_Y"]), cat["sl_c_H"], blk
        )


@pytest.mark.parametrize("name", ["sl_h", "sl_s", "sl_c", "sl_d"])
def test_sl2_triples_on_small_blocks(cat, name):
    X, Y, H = cat[f"{name}_X"], cat[f"{name}_Y"], cat[f"{name}_H"]
    blk = Block(M, [TriDegree(1, 0, 2), TriDegree(0, 1, 0), TriDegree(1, 1, 1)])
    assert same_on(commutator(H, X), op_scale(X, 2), blk)
    assert same_on(commutator(H, Y), op_scale(Y, -2), blk)
    assert same_on(commutator(X, Y), H, blk)


def test_sp_generator_count(cat):
    labels = sp_labels(M)
    assert len(labels) == 2 * M * M + M == 78
    assert len(set(labels)) == 78
    for lab in labels:
        assert lab in cat


def test_sp_generators_commute_with_dirac_sample(cat):
    blk = Block(M, [TriDegree(1, 0, 1), TriDegree(0, 1, 0), TriDegree(0, 0, 2)])
    zero = LinearOperator("0", ())
    for lab in ["X_1_2", "X_3_3", "Y_1_1", "Y_2_5", "Z_1_1", "Z_4_6"]:
        for target in ["D_s", "D_s_dag", "E"]:
            assert same_on(commutator(cat[lab], cat[target]), zero, blk)


def test_rotations_commute_with_pair_generators(cat):
    blk = Block(M, [TriDegree(1, 0, 2)])
    zero = LinearOperator("0", ())
    for rot in [cat["L_1_2"], _rotation(M, 2, 3), _rotation(M, 5, 6)]:
        for target in ["L", "R", "E_script", "D_s", "D_s_dag"]:
            assert same_on(commutator(rot, cat[target]), zero, blk)


def test_pair_generators_commute_with_dirac(cat):
    blk = Block(M, [TriDegree(1, 0, 1), TriDegree(0, 1, 0)])
    zero = LinearOperator("0", ())
    for a in ["R", "L"]:
        for b in ["D_s", "D_s_dag"]:
            assert same_on(commutator(cat[a], cat[b]), zero, blk)


def test_casimir_brute_force_eigenvalues(cat):
    # the sign convention is fixed by these measurements
    pz1 = {mono(z1=1): QQ(1)}
    assert apply_op(cat["Casimir"], pz1) == poly_scale(pz1, 5)
    pz1z2 = {mono(z1=1, z2=1): QQ(1)}
    assert apply_op(cat["Casimir"], pz1z2) == poly_scale(pz1z2, 12)
    wedge = {mono(x1=1, z2=1): QQ(1), mono(x2=1, z1=1): QQ(-1)}
    assert apply_op(cat["Casimir"], wedge) == poly_scale(wedge, 8)
    # degree-0 harmonics: eigenvalue 0
    assert apply_op(cat["Casimir"], {mono(): QQ(1)}) == {}


def test_projector_on_y_times_harmonic(cat):
    z2 = {}
    for j in range(1, M + 1):
        z2[mono(**{f"z{j}": 2})] = QQ(1)
    for a, h in [(1, {mono(z1=1): QQ(1)}), (2, {mono(z1=1, z2=1): QQ(1)})]:
        p = multiply_by(h, y_(1))
        got = apply_op(cat["Pi_L"], p)
        expect = poly_scale(p, QQ(2 * a + M, 2 * a + M - 2))
        add_scaled(expect, multiply_by(poly_mul(z2, h), x_(1)), QQ(1, 2 * a + M - 2))
        assert got == expect
        # the projected vector is killed by L
        assert apply_op(cat["L"], got) == {}


def test_projector_idempotent_on_span(cat):
    p = multiply_by({mono(z1=1, z2=1): QQ(1)}, y_(3))
    once = apply_op(cat["Pi_L"], p)
    twice = apply_op(cat["Pi_L"], once)
    assert once == twice


def test_transvector_C_on_constants_and_harmonics(cat):
    one = {mono(): QQ(1)}
    got = apply_op(cat["C_xz"], one)
    assert got == apply_op(cat["D_s_dag"], one) == {
        mono(**{f"x{j}": 1, f"z{j}": 1}): QQ(1) for j in range(1, M + 1)
    }
    # C_xz on H_1 = z1: <x,z>z1 - (1/(2a+m-4))|z|^2 x1 with a = 2
    h = {mono(z1=1): QQ(1)}
    got = apply_op(cat["C_xz"], h)
    xz = {mono(**{f"x{j}": 1, f"z{j}": 1}): QQ(1) for j in range(1, M + 1)}
    expect = poly_mul(xz, h)
    z2 = {mono(**{f"z{j}": 2}): QQ(1) for j in range(1, M + 1)}
    add_scaled(expect, multiply_by(z2, x_(1)), QQ(-1, 2 * 2 + M - 4))
    assert got == expect


def test_transvector_S_on_z_harmonics(cat):
    h = {mono(z1=1, z2=1): QQ(1)}
    got = apply_op(cat["S_yz"], h)
    expect = {mono(y1=1, z2=1): QQ(1), mono(y2=1, z1=1): QQ(1)}
    assert got == expect
    assert apply_op(cat["S_yz"], {mono(): QQ(1)}) == {}


def test_compose_matches_sequential_application(cat):
    rng = random.Random(9)
    ops = [cat[k] for k in ["D_s", "D_s_dag", "L", "R", "E_script", "S_xz", "Pi_L"]]
    for _ in range(12):
        a, b = rng.choice(ops), rng.choice(ops)
        p = random_poly(rng, M, max_degree=3, terms=4)
        assert apply_op(compose(a, b), p) == apply_op(a, apply_op(b, p))


def test_euler_scalar_shift_and_singularity():
    s = EulerScalar(1, (), ((0, 0, 1, 0),))  # 1/E_z
    op = LinearOperator("bad", [OperatorTerm(s, (mul_(x_(1)),))])
    with pytest.raises(SingularEulerDenominator):
        apply_op(op, {mono(): QQ(1)})
    assert apply_op(op, {mono(z1=2): QQ(1)}) == {mono(x1=1, z1=2): QQ(1, 2)}
    shifted = s.shifted(0, 0, 3)
    assert shifted.evaluate(TriDegree(0, 0, 0)) == QQ(1, 3)


def test_degree_shift_and_script_E_preservation(cat):
    blk = Block(M, [TriDegree(1, 0, 1), TriDegree(0, 1, 2)])
    zero = LinearOperator("0", ())
    for op_name in ["D_s", "D_s_dag"]:
        assert same_on(commutator(cat["E_script"], cat[op_name]), zero, blk)
    # D_s on (1,0,1): every image term sits in (0,0,0) + nothing else
    img = apply_op(cat["D_s"], {mono(x1=1, z1=1): QQ(1)})
    assert img == {mono(): QQ(-1)}


def test_matrix_of_examples(cat):
    from sympdirac.operators import euler_op

    dom = Block(M, [TriDegree(0, 0, 2)])
    cod = Block(M, [TriDegree(0, 0, 0)])
    lap = op_scale(cat["sl_h_Y"], -2, label="Delta_z")
    mat = matrix_of(lap, dom, cod)
    assert mat.nrows == 1 and mat.ncols == 21
    squares = {mono(**{f"z{j}": 2}) for j in range(1, M + 1)}
    for idx, basis_mono in enumerate(dom.basis):
        expect = QQ(2) if basis_mono in squares else QQ(0)
        assert mat.columns[idx].get(0, 0) == expect
    assert rank_certified(mat.integer_form()[1], mat.nrows) == 1
    assert mat.nullspace().dim == 20

    dom2 = Block(M, [TriDegree(1, 0, 1)])
    mat2 = matrix_of(cat["D_s"], dom2, cod)
    assert rank_certified(mat2.integer_form()[1], mat2.nrows) == 1

    ident = matrix_of(cat["Id"], dom, dom)
    assert all(ident.columns[i].get(i, 0) == 1 for i in range(dom.dim))
    assert sum(len(c) for c in ident.columns) == dom.dim


def test_matrix_of_rejects_escaping_images(cat):
    from sympdirac.linalg import ImageOutsideCodomain

    dom = Block(M, [TriDegree(0, 0, 2)])
    with pytest.raises(ImageOutsideCodomain):
        matrix_of(cat["D_s_dag"], dom, dom)


def test_escaping_witness_is_least_term_in_canonical_order():
    from sympdirac.linalg import ImageOutsideCodomain

    # z1 goes to 3 y1^2 + x1 z1 / 2, both outside; y1^2 comes first in the
    # terms and x1 z1 first in the canonical order, so the witness does
    # not depend on the order in which words fire
    op = LinearOperator("op", [
        OperatorTerm(EulerScalar(3), (der_(z_(1)), mul_(y_(1)), mul_(y_(1)))),
        OperatorTerm(EulerScalar(QQ(1, 2)), (mul_(x_(1)),)),
    ])
    dom = Block(M, [TriDegree(0, 0, 1)])
    with pytest.raises(ImageOutsideCodomain) as exc:
        matrix_of(op, dom, dom)
    assert str(exc.value) == ("op maps z1 to a term 1/2*x1*z1 outside codomain "
                              "Block(m=6, tri_degrees=[(0,0,1)], dim=6)")


# ---------------------------------------------------------------------------
# the compiled operator path against an independent word-by-word reference


def reference_apply(op, p):
    """Image of p term by term and action by action through the polynomial
    calculus, with each hitting term's scalar evaluated on the input
    tri-degree; shares nothing with apply_op."""
    out = {}
    for term in op.terms:
        for base, c in p.items():
            q = {base: c}
            for act in term.actions:
                step = differentiate if act.kind is ActionKind.DeriveVar else multiply_by
                q = step(q, act.var)
            if q:
                add_scaled(out, q, term.scalar.evaluate(tri_degree_of(base), op.label))
    return out


def assert_matches_reference(op, p):
    try:
        want = reference_apply(op, p)
    except SingularEulerDenominator:
        with pytest.raises(SingularEulerDenominator):
            apply_op(op, p)
        return False
    assert apply_op(op, p) == want, op.label
    return True


def test_compiled_apply_matches_reference_on_catalog(cat):
    rng = random.Random(20)
    defined = 0
    for op in cat.values():
        for _ in range(3):
            defined += assert_matches_reference(op, random_poly(rng, M, max_degree=3, terms=4))
    assert defined
    # the singular outcome: x1^2 y1 is hit by a word of Pi_L whose
    # denominator vanishes there
    x1_sq_y1 = tuple(2 if i == 0 else 1 if i == M else 0 for i in range(3 * M))
    assert not assert_matches_reference(cat["Pi_L"], {x1_sq_y1: QQ(1)})


def test_compiled_apply_matches_reference_at_m7():
    cat7 = catalog(7)
    rng = random.Random(21)
    for name in ("D_s", "D_s_dag", "L", "R", "Pi_L", "S_yz", "C_xz", "Casimir"):
        for _ in range(3):
            assert_matches_reference(cat7[name], random_poly(rng, 7, max_degree=3, terms=4))


def test_reassigning_terms_raises_and_compiled_form_stays_per_m():
    # terms are fixed, so the compiled form kept per m cannot go stale
    op = LinearOperator("op", [OperatorTerm(EulerScalar(1), (mul_(x_(1)),))])
    replacement = (OperatorTerm(EulerScalar(3), (der_(z_(1)), mul_(y_(2)))),)

    def z1_image(m):
        src = tuple(1 if i == 2 * m else 0 for i in range(3 * m))
        dst = tuple(1 if i in (0, 2 * m) else 0 for i in range(3 * m))
        return {src: QQ(1)}, {dst: QQ(1)}

    for m in (6, 7, 6):
        p, want = z1_image(m)
        assert apply_op(op, p) == want
    compiled = dict(op.compiled)
    assert set(compiled) == {6, 7}
    with pytest.raises(AttributeError):
        op.terms = replacement
    for m in (6, 7, 6):
        p, want = z1_image(m)
        assert apply_op(op, p) == want
    assert op.compiled == compiled
    # a changed operator is a new object, with its own compiled forms
    p = {mono(z1=1): QQ(1)}
    assert apply_op(op, p) == {mono(x1=1, z1=1): QQ(1)}
    assert apply_op(LinearOperator("op", replacement), p) == {mono(y2=1): QQ(3)}


def test_compiled_form_is_per_m():
    # (E_z + 1) z2 d/dx1 sends x1 to z2, whose flat position depends on m
    op = LinearOperator("op", [OperatorTerm(EulerScalar(1, ((0, 0, 1, 1),)),
                                            (der_(x_(1)), mul_(z_(2))))])

    def x1_image(m):
        src = tuple(1 if i == 0 else 0 for i in range(3 * m))
        dst = tuple(1 if i == 2 * m + 1 else 0 for i in range(3 * m))
        return {src: QQ(1)}, {dst: QQ(1)}

    for m in (6, 7, 6):
        p, want = x1_image(m)
        assert apply_op(op, p) == want
    # a monomial whose length is not 3m is rejected, not misindexed
    with pytest.raises(ValueError):
        apply_op(op, {(1,) + (0,) * 16: QQ(1)})


def test_projector_lazy_where_denominator_vanishes(cat):
    pi = cat["Pi_L"]
    x1 = {mono(x1=1): QQ(1)}
    singular = [t.scalar for t in pi.terms if t.scalar.den]
    with pytest.raises(SingularEulerDenominator):
        singular[0].evaluate(tri_degree_of(mono(x1=1)))
    assert apply_op(cat["L"], x1) == {}
    assert apply_op(pi, x1) == x1


def test_singular_denominator_raised_on_every_call(cat):
    s = EulerScalar(1, (), ((0, 0, 1, 0),))  # 1/E_z
    op = LinearOperator("bad", [OperatorTerm(s, (mul_(x_(1)),))])
    for _ in range(2):
        with pytest.raises(SingularEulerDenominator):
            apply_op(op, {mono(): QQ(1)})
    # L does not kill x1^2 y1, and Pi_L's denominator vanishes there
    hit = {mono(x1=2, y1=1): QQ(1)}
    assert apply_op(cat["L"], hit)
    for _ in range(2):
        with pytest.raises(SingularEulerDenominator):
            apply_op(cat["Pi_L"], hit)


# ---------------------------------------------------------------------------
# integer plans: matrices and applications against the same reference


def reference_columns(op, domain, codomain):
    """The columns of op's matrix, one reference_apply per basis monomial."""
    cols = []
    for b_mono in domain.basis:
        image = reference_apply(op, {b_mono: QQ(1)})
        cols.append({codomain.index[out]: v for out, v in image.items()})
    return cols


@pytest.mark.parametrize("name, k, t, k_out, t_out", [
    ("D_s", 1, 1, 0, 1),
    ("L", 1, 1, 1, -1),
    ("L", 1, 2, 1, 0),
    ("Casimir", 1, 1, 1, 1),
    ("Pi_L", 1, 1, 1, 1),
    ("Pi_L", 1, 2, 1, 2),
    ("S_yz", 1, 2, 2, 2),
])
def test_matrix_of_matches_reference_columns(cat, name, k, t, k_out, t_out):
    ver = Verifier(M, cat)
    domain, codomain = ver.eigenblock(k, t), ver.eigenblock(k_out, t_out)
    assert len(domain.tri_degrees) == 2
    want = reference_columns(cat[name], domain, codomain)
    mat = matrix_of(cat[name], domain, codomain)
    assert (mat.nrows, mat.ncols) == (codomain.dim, domain.dim)
    assert mat.columns == want
    den, int_cols = mat.integer_form()
    assert den % lcm(1, *(int(v.denominator) for col in want for v in col.values())) == 0
    assert int_cols == [{r: v * den for r, v in col.items()} for col in want]
    if name in ("L", "Pi_L", "S_yz"):
        assert den > 1


def test_stack_with_different_denominators(cat):
    # the common nullspace of three matrices with three different D, taken
    # without stacking them, against the nullspace of their rational stack
    ver = Verifier(M, cat)
    blk = ver.eigenblock(1, 1)
    third_L = op_scale(cat["L"], QQ(1, 3))
    parts = [matrix_of(third_L, blk, ver.eigenblock(1, -1)),
             matrix_of(cat["D_s"], blk, ver.eigenblock(0, 1)),
             matrix_of(cat["Pi_L"], blk, blk)]
    assert len({mat.integer_form()[0] for mat in parts}) == 3
    by_hand = [{} for _ in range(blk.dim)]
    offset = 0
    for mat in parts:
        for j, col in enumerate(mat.columns):
            by_hand[j].update({offset + r: v for r, v in col.items()})
        offset += mat.nrows
    got, want = parts[0].nullspace(*parts[1:]), cleared_matrix(offset, blk.dim, by_hand).nullspace()
    assert (got.pivots, got.rows) == (want.pivots, want.rows)
    assert got.annihilator == tuple(parts)
    # the paper's pair: ker D_s and ker L together, as lowest_weight_space
    ds, low = ver.dirac_matrix(1, 1), ver.lowering_matrix(1, 1)
    lws = ds.nullspace(low)
    assert lws == ver.lowest_weight_space(1, 1)
    # membership asks every operand: L/3 kills v, D_s does not
    v = next(r for r in ver.kernel_L(1, 1).int_rows if ds.mul_int_vec(r))
    assert not parts[0].mul_int_vec(v) and parts[0].nullspace().contains(v)
    assert not got.contains(v) and not lws.contains(v)
    # the operands must share the column count
    with pytest.raises(AmbientMismatch):
        ds.nullspace(ver.lowering_matrix(1, 2))


def test_apply_op_over_two_degrees_with_denominators(cat):
    # the two monomials sit in tri-degrees whose plans have different D,
    # and the coefficients have denominators 3 and 5
    a, b = mono(y1=1, z1=1, z2=1), mono(y2=1, z1=1)
    p = {a: QQ(1, 3), b: QQ(-2, 5)}
    (_, den_a), (_, den_b) = integer_images(cat["Pi_L"], [a, b])
    assert den_a != den_b
    for name in ("Pi_L", "S_yz", "C_xz", "C_yz", "Casimir"):
        assert assert_matches_reference(cat[name], p)
        assert all(apply_op(cat[name], p).values())


def test_apply_op_cancels_to_empty(cat):
    # <y, d_x> sends x1 y2 and x2 y1 to the same monomial y1 y2
    p = {mono(x1=1, y2=1): QQ(1, 3), mono(x2=1, y1=1): QQ(-1, 3)}
    assert apply_op(cat["sl_s_X"], p) == {}
    p[mono(x1=1, y1=1)] = QQ(2, 7)
    assert apply_op(cat["sl_s_X"], p) == {mono(y1=2): QQ(2, 7)}
    # a residual that vanishes, applied across two tri-degrees
    residual = op_sub(commutator(cat["R"], cat["L"]), cat["E_script"])
    q = {mono(x1=1, z2=2): QQ(1, 3), mono(y1=1, z1=1): QQ(2, 5), mono(z1=1): QQ(7)}
    assert apply_op(residual, q) == {}


def test_projector_matrix_singular_or_lazy(cat):
    # x1^2 y1 is hit by a word of Pi_L whose denominator vanishes there
    domain = Block(M, [TriDegree(2, 1, 0)])
    codomain = Block(M, [TriDegree(2, 1, 0), TriDegree(3, 0, 2)])
    for _ in range(2):
        with pytest.raises(SingularEulerDenominator):
            matrix_of(cat["Pi_L"], domain, codomain)
    # on the x_j, L already kills every monomial: Pi_L is the identity
    blk = Verifier(M, cat).eigenblock(1, -1)
    mat = matrix_of(cat["Pi_L"], blk, blk)
    assert mat.integer_form() == (1, [{i: 1} for i in range(blk.dim)])


# ---------------------------------------------------------------------------
# the batch path: words dispatched by the variables they differentiate


def assert_batch_matches_reference(op, monos):
    """integer_images(op, monos) gives reference_apply's image of each
    monomial in turn, or raises SingularEulerDenominator exactly at the
    first monomial where the reference does. True iff nothing raised."""
    images = integer_images(op, monos)
    for b_mono in monos:
        try:
            want = reference_apply(op, {b_mono: QQ(1)})
        except SingularEulerDenominator:
            with pytest.raises(SingularEulerDenominator):
                next(images)
            return False
        v, den = next(images)
        assert {out: QQ(c, den) for out, c in v.items()} == want, (op.label, b_mono)
    assert next(images, None) is None
    return True


def test_batch_images_match_reference_on_eigenblocks(cat):
    # (1,-1), (0,1), (1,0) and (1,1) are one, one, one and two tri-degrees;
    # on (3,-1) Pi_L's denominator vanishes where L does not kill
    ver = Verifier(M, cat)
    blocks = [ver.eigenblock(k, t).basis for k, t in ((1, -1), (0, 1), (1, 0), (1, 1))]
    for op in cat.values():
        for basis in blocks:
            assert assert_batch_matches_reference(op, basis)
    assert not assert_batch_matches_reference(cat["Pi_L"], ver.eigenblock(3, -1).basis)


def test_batch_images_refetch_the_plan_when_the_tri_degree_changes(cat):
    # A, B, A: the plans of (0,1,0) and (1,0,2) have different D
    a = monomial_basis(M, TriDegree(0, 1, 0))
    b = monomial_basis(M, TriDegree(1, 0, 2))[:40]
    monos = a[:3] + b + a[3:]
    dens = {name: [den for _, den in integer_images(cat[name], monos)] for name in ("Pi_L", "S_xz")}
    for name in ("Pi_L", "S_xz", "C_xz", "Casimir", "L", "D_s_dag", "R"):
        assert assert_batch_matches_reference(cat[name], monos)
    for got in dens.values():
        assert got[0] != got[3] and got[:3] == got[-3:]


def test_batch_images_check_every_monomial(cat):
    valid = [mono(x1=1, z6=1), mono(y2=1, z6=1)]
    for name in ("Casimir", "D_s_dag", "Id"):
        with pytest.raises(ValueError):
            list(integer_images(cat[name], valid + [(1,) + (0,) * 16]))
    # x1 is fine for Pi_L (L kills it); x1^2 y1 is hit by a singular word
    for _ in range(2):
        with pytest.raises(SingularEulerDenominator):
            list(integer_images(cat["Pi_L"], [mono(x1=1), mono(x1=2, y1=1)]))


# ---------------------------------------------------------------------------
# the normal-form product against the normal forms of composed operators


def _nf_pairs(cat_m, rng):
    """Seeded pairs of catalog operators without Euler denominators: each
    Euler operator and Id against a random partner, and random pairs."""
    names = sorted(name for name, op in cat_m.items() if not any(t.scalar.den for t in op.terms))
    fixed = ["E", "E_script", "sl_h_H", "sl_s_H", "sl_c_H", "sl_d_H", "Id"]
    return [(a, rng.choice(names)) for a in fixed] + [tuple(rng.sample(names, 2)) for _ in range(8)]


@pytest.mark.parametrize("m", [6, 7, 10])
def test_nf_product_matches_composed_normal_form(m):
    # at m=10 the flat-index order of x10 and x2 is not their string order
    cat_m = catalog(m)
    for a, b in _nf_pairs(cat_m, random.Random(30 + m)):
        na, nb = normal_form(cat_m[a], m), normal_form(cat_m[b], m)
        for x, y, nx, ny in ((a, b, na, nb), (b, a, nb, na)):
            assert nf_product(nx, ny) == normal_form(compose(cat_m[x], cat_m[y]), m), (x, y)
        assert nf_bracket(na, nb) == normal_form(commutator(cat_m[a], cat_m[b]), m), (a, b)


def test_nf_product_agrees_with_application(cat):
    # the compiled path shares no helper with the normal form; E after
    # D_s_dag reads E on the output of D_s_dag, so it tests that an Euler
    # scalar is read on the input of the term that carries it
    blk = Block(M, [TriDegree(1, 0, 1), TriDegree(0, 1, 1), TriDegree(0, 0, 2)])
    pairs = [("E", "D_s_dag"), ("sl_h_H", "sl_h_X")] + _nf_pairs(cat, random.Random(36))
    for a, b in pairs:
        prod = normal_form_op(nf_product(normal_form(cat[a], M), normal_form(cat[b], M)), M)
        assert same_on(prod, compose(cat[a], cat[b]), blk), (a, b)


def test_reassigning_terms_raises_and_normal_form_stays_per_m():
    op = LinearOperator("op", [OperatorTerm(EulerScalar(1), (der_(z_(1)), mul_(x_(2))))])
    replacement = (OperatorTerm(EulerScalar(QQ(3, 2)), (mul_(y_(1)), der_(y_(1)))),)
    nf = normal_form(op, 6)
    assert nf == (1, {((12,), (1,)): 1})
    assert normal_form(op, 6) is nf
    assert normal_form(op, 7) == (1, {((14,), (1,)): 1})
    with pytest.raises(AttributeError):
        op.terms = replacement
    assert normal_form(op, 6) is nf
    assert normal_form(op, 7) == (1, {((14,), (1,)): 1})
    # d_y1 y1 = y1 d_y1 + 1
    new = LinearOperator("op", replacement)
    assert normal_form(new, 6) == (2, {((6,), (6,)): 3, ((), ()): 3})
    assert normal_form(new, 7) == (2, {((7,), (7,)): 3, ((), ()): 3})


def _site_terms(pairs, m=M):
    """sum over (j, k) of x_j d_{z_k}, 1-based sites."""
    return [OperatorTerm(EulerScalar(1), (der_(z_(k)), mul_(x_(j)))) for j, k in pairs]


def test_site_symmetric_needs_both_generators(cat):
    for name in ("S_xz", "C_xz", "S_yz", "C_yz", "Pi_L", "Casimir", "D_s", "L"):
        assert site_symmetric(cat[name], M), name
    assert not site_symmetric(cat["L_1_2"], M)
    # fixed by (1 2) but not by the m-cycle, and the other way round
    assert not site_symmetric(LinearOperator("x1dz1+x2dz2", _site_terms([(1, 1), (2, 2)])), M)
    shift = LinearOperator("shift", _site_terms([(j, j % M + 1) for j in range(1, M + 1)]))
    assert not site_symmetric(shift, M)
    assert site_symmetric(LinearOperator("<x,dz>", _site_terms([(j, j) for j in range(1, M + 1)])), M)
    # one site's term dropped
    assert not site_symmetric(LinearOperator("S_yz", cat["S_yz"].terms[1:]), M)


def test_site_map_moves_every_block_alike():
    to = site_map([2, 0, 1] + list(range(3, M)), M)
    assert sorted(to) == list(range(3 * M))
    assert [to[0], to[M], to[2 * M]] == [2, M + 2, 2 * M + 2]
    assert [to[1], to[2], to[3]] == [0, 1, 3]
