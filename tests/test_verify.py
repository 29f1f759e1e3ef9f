"""Checks for the block-by-block verification harness."""

import random

import pytest

from sympdirac.linalg import vec_to_poly
from sympdirac.operators import (
    EulerScalar,
    LinearOperator,
    OperatorTerm,
    apply_op,
    catalog,
    commutator,
    identity_op,
    normal_form,
    op_scale,
    op_scale_by_euler,
    sp_labels,
)
from sympdirac.polys import Block, TriDegree
from sympdirac.rationals import QQ
from sympdirac.repn import harmonic_dim, harmonic_space
from sympdirac.verify import SUITES, Verifier

from linref import subspace_intersect
from polycalc import normal_form_op, poly_scale, tri_degree_of

M = 6


@pytest.fixture(scope="module")
def ver():
    return Verifier(M)


def test_eigenblock_tri_degrees(ver):
    eb = ver.eigenblock(1, 1)
    assert set(eb.tri_degrees) == {TriDegree(1, 0, 2), TriDegree(0, 1, 0)}
    eb0 = ver.eigenblock(0, 2)
    assert set(eb0.tri_degrees) == {TriDegree(0, 0, 2)}


def test_eigenblock_boundary_levels(ver):
    # at t = -1 only the x side survives, below that nothing does
    eb = ver.eigenblock(1, -1)
    assert set(eb.tri_degrees) == {TriDegree(1, 0, 0)}
    assert eb.dim == M
    assert ver.eigenblock(1, -3).dim == 0
    assert ver.eigenblock(0, -1).dim == 0


@pytest.mark.parametrize("t", [0, 1, 2])
def test_kernel_L_dimension_formula(ver, t):
    expect = M * (harmonic_dim(M, t - 1) + harmonic_dim(M, t + 1))
    assert ver.kernel_L(1, t).dim == expect


def test_kernel_dimensions_at_level_one(ver):
    assert ver.kernel_Ds(1, 1).dim == 126
    assert ver.kernel_L(1, 1).dim == 126
    assert ver.lowest_weight_space(1, 1).dim == 120


def test_lowest_weight_space_is_kernel_intersection(ver):
    for t in (0, 1):
        meet = subspace_intersect(ver.kernel_Ds(1, t), ver.kernel_L(1, t))
        assert meet == ver.lowest_weight_space(1, t)


def _assert_all_pass(rows):
    bad = [r for r in rows if not r.passed]
    assert not bad, "\n".join(
        f"{r.name} {r.params}: expected {r.expected} got {r.actual} ({r.witness})"
        for r in bad
    )


def test_algebra_relations_suite(ver):
    rows = ver.algebra_relations()
    _assert_all_pass(rows)
    names = [r.name for r in rows]
    assert "bracket_R_L_is_scriptE" in names
    assert "sp_commutes_with_D_s" in names


@pytest.mark.parametrize(
    "suite,arg",
    [
        ("classical_fischer", 2),
        ("table_ker", 2),
        ("l_fischer", 2),
        ("symplectic_fischer_k1", 2),
        ("kernel_families", 2),
        ("branching_table", 1),
        ("multiplicity", 1),
        ("dim_identity", 3),
        ("s0_branching", 3),
    ],
)
def test_suite_green_at_reduced_range(ver, suite, arg):
    rows = getattr(ver, suite)(arg)
    assert rows
    _assert_all_pass(rows)


def test_family_span_dimensions(ver):
    fam = ver.families(2)
    assert len(fam["hook_x"]) == 64
    assert len(fam["s_x"]) == 50
    assert len(fam["split_kernel"]) == 6
    assert len(fam["split_image"]) == 6
    assert fam["split_ratios"] == (("1", "20/3"),)


def test_split_constant_extensionally(ver):
    # D_s C_xz H = alpha H with alpha = (-(2a+m-4)(m+a-1)+2(a-1))/(2a+m-4)
    a = 2
    alpha = QQ(-(2 * a + M - 4) * (M + a - 1) + 2 * (a - 1), 2 * a + M - 4)
    h = vec_to_poly(harmonic_space(M, a - 1).rows[0], ver.eigenblock(0, a - 1))
    got = apply_op(ver.cat["D_s"], apply_op(ver.cat["C_xz"], h))
    assert got == poly_scale(h, alpha)


def test_rows_deterministic_across_instances():
    rows1 = Verifier(M).table_ker(2)
    rows2 = Verifier(M).table_ker(2)
    flat1 = [(r.name, r.params, str(r.expected), str(r.actual), r.passed) for r in rows1]
    flat2 = [(r.name, r.params, str(r.expected), str(r.actual), r.passed) for r in rows2]
    assert flat1 == flat2


def test_normal_form_matches_operator_extensionally():
    cat = catalog(M)
    com = commutator(cat["sl_c_X"], cat["sl_c_Y"])
    rebuilt = normal_form_op(normal_form(com, M), M, "rebuilt")
    blk = Block(M, [TriDegree(1, 0, 1), TriDegree(0, 1, 1)])
    for mono in blk.basis:
        assert apply_op(com, {mono: QQ(1)}) == apply_op(rebuilt, {mono: QQ(1)})


def test_check_result_as_dict(ver):
    row = ver.dim_identity(2)[0]
    d = row.as_dict()
    assert d["name"] == row.name
    assert d["pass"] is True
    assert "expected" in d and "actual" in d


def test_short_poly_counts_monomials_whatever_their_signs():
    from sympdirac.verify import _short_poly

    x = [tuple(1 if i == j else 0 for i in range(3 * M)) for j in range(5)]
    later_negative = {x[0]: QQ(1), **{mono: QQ(-1) for mono in x[1:]}}
    assert _short_poly(later_negative) == "x1 - x2 - x3 + ... (5 terms)"
    first_negative = {x[0]: QQ(-1), **{mono: QQ(1) for mono in x[1:]}}
    assert _short_poly(first_negative) == "-x1 + x2 + x3 + ... (5 terms)"
    mixed = {x[0]: QQ(2), x[1]: QQ(-1, 3), x[2]: QQ(1), x[3]: QQ(-1)}
    assert _short_poly(mixed) == "2*x1 - 1/3*x2 + x3 + ... (4 terms)"
    assert _short_poly({mono: QQ(-1) for mono in x[:3]}) == "-x1 - x2 - x3"


@pytest.mark.parametrize("op,dk,dt", [("D_s", -1, 0), ("D_s_dag", 1, 0),
                                      ("R", 0, 2), ("L", 0, -2)])
def test_operators_shift_levels_as_predicted(ver, op, dk, dt):
    for k, t in ((1, 1), (1, 2), (0, 2)):
        eb = ver.eigenblock(k, t)
        target = ver.eigenblock(k + dk, t + dt)
        allowed = set(target.tri_degrees)
        for mono in eb.basis:
            out = apply_op(ver.cat[op], {mono: QQ(1)})
            for omono in out:
                assert tri_degree_of(omono) in allowed


def test_mutated_catalog_does_not_leak_cache():
    clean = Verifier(M)
    assert all(r.passed for r in clean.table_ker(1))
    cat = dict(catalog(M))
    cat["D_s"] = cat["L"]
    dirty = Verifier(M, cat=cat)
    assert any(not r.passed for r in dirty.kernel_families(1))
    clean2 = Verifier(M)
    assert all(r.passed for r in clean2.table_ker(1))


def test_mutated_casimir_does_not_leak_cache():
    # Casimir matrices are cached per block; a catalog with another Casimir
    # must build its own instead of reading the clean catalog's
    assert all(r.passed for r in Verifier(M).branching_table(0))
    cat = dict(catalog(M))
    cat["Casimir"] = op_scale(cat["Casimir"], 2)
    rows = [r for r in Verifier(M, cat=cat).branching_table(0) if r.name == "component_casimir"]
    assert len(rows) == 3
    assert all(not r.passed and r.witness for r in rows)


def test_operator_matrices_built_once_per_verifier(monkeypatch):
    # kernel_Ds, kernel_L and lowest_weight_space share the D_s and L
    # matrices of a (k, t), the R-towers and the families apply matrices
    # too, the Casimir rows read L_1_2's, and Verifiers over one catalog
    # share the matrices kept on its operators; no (operator, domain,
    # codomain) is built twice, and none for a clean catalog's Casimir
    from sympdirac import linalg

    built = []
    orig = linalg.matrix_of

    def counting(op, domain, codomain):
        built.append((id(op), domain.tri_degrees, codomain.tri_degrees))
        return orig(op, domain, codomain)

    monkeypatch.setattr(linalg, "matrix_of", counting)
    cat = catalog(M)
    ver = Verifier(M, cat)
    assert all(r.passed for r in ver.l_fischer(2) + ver.branching_table(1))
    assert built and len(set(built)) == len(built)
    assert {op for op, _, _ in built} == {id(cat[name]) for name in (
        "D_s", "L", "L_1_2", "R", "S_xz", "C_xz", "S_yz", "Pi_L", "D_s_dag")}
    first = list(built)
    ver2 = Verifier(M, cat)
    assert all(r.passed for r in ver2.l_fischer(2) + ver2.branching_table(1))
    assert built == first


def test_verifier_reads_a_read_only_copy_of_its_catalog():
    cat = catalog(M)
    ver = Verifier(M, cat)
    clean = cat["D_s"]
    cat["D_s"] = cat["L"]
    del cat["Casimir"]
    assert ver.cat["D_s"] is clean and "Casimir" in ver.cat
    with pytest.raises(TypeError):
        ver.cat["D_s"] = cat["L"]
    assert all(r.passed for r in ver.symplectic_fischer_k1(1))


def test_halved_casimir_fails_after_clean_matrices_were_built():
    # a Casimir matrix is kept on its operator, whose terms cannot be
    # reassigned; another Casimir is certified on its own matrices
    clean = catalog(M)
    assert all(r.passed for r in Verifier(M, clean).branching_table(0))
    with pytest.raises(AttributeError):
        clean["Casimir"].terms = op_scale(clean["Casimir"], QQ(1, 2)).terms
    cat = catalog(M)
    cat["Casimir"] = op_scale(cat["Casimir"], QQ(1, 2))
    rows = [r for r in Verifier(M, cat).branching_table(0) if r.name == "component_casimir"]
    assert len(rows) == 3
    assert all(not r.passed and r.witness for r in rows)
    assert all(r.passed for r in Verifier(M, clean).branching_table(0))


def test_mutated_sp_generator_fails_its_commutation_row():
    # the sp(2m) generators are reached only through the normal-form
    # brackets; a constant term (the -1/2 of X_j_j) commutes with every
    # operator, so no bracket can see it and it is not mutated here
    clean = catalog(M)
    rng = random.Random(40)
    for family in "XYZ":
        for lab in rng.sample([lab for lab in sp_labels(M) if lab[0] == family], 2):
            terms = clean[lab].terms
            j = rng.choice([i for i, t in enumerate(terms) if t.actions])
            s = terms[j].scalar
            flipped = OperatorTerm(EulerScalar(-s.coeff, s.num, s.den), terms[j].actions)
            for mutant in (terms[:j] + (flipped,) + terms[j + 1:], terms[:j] + terms[j + 1:]):
                cat = dict(clean)
                cat[lab] = LinearOperator(lab, mutant)
                failed = [r for r in Verifier(M, cat).algebra_relations()
                          if r.name.startswith("sp_commutes_with_") and not r.passed]
                assert any(r.witness.startswith(f"[{lab}, ") for r in failed), (lab, j)
    _assert_all_pass(Verifier(M, clean).algebra_relations())


def test_symbolic_certificates_build_no_commutator(monkeypatch):
    # every symbolic row comes from cached normal forms: with commutator
    # broken, only the two extensional sweeps, which apply it, fail
    from sympdirac import verify

    built = []

    def broken(a, b):
        built.append((a.label, b.label))
        return identity_op(f"[{a.label},{b.label}]")

    ver = Verifier(M, catalog(M))
    monkeypatch.setattr(verify, "commutator", broken)
    rows = ver.algebra_relations()
    sampled = len(sp_labels(M)[:: len(sp_labels(M)) // 20])
    assert len(built) == 12 + 3 * sampled == 90
    sweeps = {"triples_extensional_deg_le_3", "sp_extensional_deg_le_2"}
    assert {r.name for r in rows if not r.passed} == sweeps


def test_suite_methods_are_their_units_concatenated():
    # the serial path runs suite methods, the process pool runs units;
    # both must give the same rows in the same order
    a_max = t_max = 2
    by_suite, by_unit = Verifier(M), Verifier(M)
    for name, suite in SUITES.items():
        rows = getattr(by_suite, name)(*suite.args(a_max, t_max))
        units = suite.units_for(a_max, t_max)
        assert [r.as_dict() for r in rows] == [
            r.as_dict() for _, method, args in units for r in getattr(by_unit, method)(*args)]
        levels = [level for level, _, _ in units]
        assert levels == [None] or None not in levels, name


def test_dirac_bracket_is_built_once_per_verifier(monkeypatch):
    from sympdirac import verify

    built = []
    orig = verify.commutator

    def counting(a, b):
        built.append((a.label, b.label))
        return orig(a, b)

    monkeypatch.setattr(verify, "commutator", counting)
    ver = Verifier(M, catalog(M))
    _assert_all_pass(ver.symplectic_fischer_k1(2) + ver.symplectic_fischer_k1_at(3))
    assert built == [("D_s", "D_s_dag")]


def test_suites_apply_no_operator_to_a_polynomial(monkeypatch):
    # every suite reaches its vectors through block matrices; apply_op is
    # left only to render a witness of algebra_relations
    from sympdirac import verify

    def refuse(op, p):
        raise AssertionError(f"apply_op({op.label}) called")

    monkeypatch.setattr(verify, "apply_op", refuse)
    ver = Verifier(M, catalog(M))
    for suite, arg in (("classical_fischer", 2), ("table_ker", 3), ("l_fischer", 3),
                       ("symplectic_fischer_k1", 3), ("kernel_families", 3), ("branching_table", 2),
                       ("multiplicity", 2), ("dim_identity", 3), ("s0_branching", 3)):
        _assert_all_pass(getattr(ver, suite)(arg))


@pytest.mark.parametrize("name", ["Pi_L", "S_xz", "C_xz"])
def test_mutated_family_operator_fails_with_a_witness(name):
    # the family matrices live on the operators, so a mutant built after
    # the clean matrices is certified on its own matrices, and the clean
    # catalog still passes afterwards
    clean = catalog(M)
    _assert_all_pass(Verifier(M, clean).branching_table(2))
    terms = clean[name].terms
    s = terms[0].scalar
    flipped = OperatorTerm(EulerScalar(-s.coeff, s.num, s.den), terms[0].actions)
    cat = dict(clean)
    cat[name] = LinearOperator(name, (flipped,) + terms[1:])
    failed = [r for r in Verifier(M, cat).branching_table(2) if not r.passed]
    assert any(r.witness for r in failed), name
    _assert_all_pass(Verifier(M, clean).branching_table(2))


@pytest.mark.parametrize("m, t_max", [(6, 4), (7, 3)])
def test_clean_branching_table_builds_no_casimir_matrix(monkeypatch, m, t_max):
    # every component_casimir row of a clean catalog is certified through
    # the Howe identities and L_1_2 intertwiners, never on the Casimir
    from sympdirac import linalg

    built = []
    orig = linalg.matrix_of

    def recording(op, domain, codomain):
        built.append(op)
        return orig(op, domain, codomain)

    monkeypatch.setattr(linalg, "matrix_of", recording)
    cat = catalog(m)
    _assert_all_pass(Verifier(m, cat).branching_table(t_max))
    assert cat["L_1_2"] in built
    assert cat["Casimir"] not in built


def _flip_first_term(op):
    s = op.terms[0].scalar
    flipped = OperatorTerm(EulerScalar(-s.coeff, s.num, s.den), op.terms[0].actions)
    return LinearOperator(op.label, (flipped,) + op.terms[1:])


@pytest.mark.parametrize("name, mutate", [
    ("Casimir", lambda op: op_scale(op, QQ(1, 2))),
    ("Casimir", lambda op: op_scale(op, 2)),
    # an Euler denominator: the Casimir has no normal form
    ("Casimir", lambda op: op_scale_by_euler(op, EulerScalar(1, (), ((0, 0, 1, M),)))),
    ("Pi_L", _flip_first_term),
    ("S_xz", _flip_first_term),
    ("C_xz", _flip_first_term),
    ("C_yz", _flip_first_term),
    # drops y_1 d_{z_1}: the other sites keep theirs, so S_m no longer fixes it
    ("S_yz", lambda op: LinearOperator(op.label, op.terms[1:])),
], ids=["halved_Casimir", "doubled_Casimir", "Euler_Casimir", "Pi_L", "S_xz", "C_xz", "C_yz", "S_yz"])
def test_casimir_route_gives_the_rows_of_the_matrix_route(monkeypatch, name, mutate):
    # a mutant fails as it does when every component is certified on the
    # eigenblock Casimir matrix: same rows, verdicts and witnesses
    from sympdirac import verify

    cat = catalog(M)
    cat[name] = mutate(cat[name])
    on_matrix = []
    eigencheck = verify.casimir_eigencheck

    def recording(cat, block, sub, w):
        on_matrix.append(str(w))
        return eigencheck(cat, block, sub, w)

    monkeypatch.setattr(verify, "casimir_eigencheck", recording)
    routed = [r.as_dict() for r in Verifier(M, cat).branching_table(3)]
    fell_back = list(on_matrix)
    monkeypatch.setattr(verify, "casimir_identities", lambda cat, m: False)
    forced = [r.as_dict() for r in Verifier(M, cat).branching_table(3)]
    assert routed == forced
    assert any(not r["pass"] and r.get("witness") for r in routed)
    components = [r for r in routed if r["name"] == "component_casimir"]
    if name == "Casimir":
        # a rescaled Casimir still has the eigenvalue 0 of weight (0)
        assert len(fell_back) == len(components)
        assert all(r["pass"] == (r["params"]["eigenvalue"] == "0") for r in components)
    elif name == "Pi_L":
        # -Id + RL/(scriptE - 2) still commutes with so(m): nothing falls back
        assert not fell_back
    else:
        assert 0 < len(fell_back) < len(components)
