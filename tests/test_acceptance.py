"""Acceptance gate: the ten exact criteria, one line per criterion.

Every check is exact rational arithmetic with zero tolerance. The
pytest -v output carries one pass or fail line per criterion; each test
also prints its own verdict line for logs that strip test names.
"""

import json

import pytest

from sympdirac.operators import (
    LinearOperator,
    apply_op,
    catalog,
    commutator,
    identity_op,
    inner_der_der,
    inner_mul_der,
    integer_images,
    op_add,
    op_scale,
    op_sub,
    sp_labels,
)
from sympdirac.polys import (
    add_scaled,
    monomial_basis,
    monomial_poly,
    render_poly,
    tri_degrees_of_total,
    x_,
    y_,
    z_,
)
from sympdirac.rationals import QQ
from sympdirac.linalg import Subspace, vec_to_poly
from sympdirac.repn import harmonic_dim, harmonic_space
from sympdirac.verify import Verifier

from polycalc import multiply_by, poly_scale
from verma import verma_action_check

M = 6


@pytest.fixture(scope="module")
def ver():
    return Verifier(M)


@pytest.fixture(scope="module")
def suite_cache(ver):
    """Suites shared between criteria are computed once."""
    cache = {}

    def get(name, *args):
        key = (name,) + args
        if key not in cache:
            cache[key] = getattr(ver, name)(*args)
        return cache[key]

    return get


def _verdict(n, label, rows):
    bad = [r for r in rows if not r.passed]
    status = "FAIL" if bad else "PASS"
    print(f"criterion {n:02d} {label}: {status}")
    assert not bad, "\n".join(
        f"{r.name} {r.params}: expected {r.expected} got {r.actual} ({r.witness})"
        for r in bad
    )


def _all_monomials_up_to(degree):
    out = []
    for d in range(degree + 1):
        for td in tri_degrees_of_total(d):
            out.extend(monomial_basis(M, td))
    return out


def test_criterion_01_algebra_relations(ver, suite_cache):
    cat = ver.cat
    monos = _all_monomials_up_to(5)
    assert len(sp_labels(M)) == 2 * M * M + M == 78

    residuals = []
    for name in ("sl_h", "sl_s", "sl_c", "sl_d"):
        X, Y, H = cat[f"{name}_X"], cat[f"{name}_Y"], cat[f"{name}_H"]
        residuals.append((f"{name} [H,X]-2X", op_sub(commutator(H, X), op_scale(X, 2))))
        residuals.append((f"{name} [H,Y]+2Y", op_add(commutator(H, Y), op_scale(Y, 2))))
        residuals.append((f"{name} [X,Y]-H", op_sub(commutator(X, Y), H)))
    for a, b in (("R", "D_s"), ("L", "D_s"), ("R", "D_s_dag"), ("L", "D_s_dag")):
        residuals.append((f"[{a},{b}]", commutator(cat[a], cat[b])))
    residuals.append(("[D_s,D_s_dag]+(E+m)",
                      op_add(commutator(cat["D_s"], cat["D_s_dag"]),
                             op_add(cat["E"], op_scale(identity_op(), M)))))
    residuals.append(("[R,L]-scriptE", op_sub(commutator(cat["R"], cat["L"]), cat["E_script"])))

    bad_vectors = 0
    first = None
    for label, res in residuals:
        for mono, (image, _) in zip(monos, integer_images(res, monos)):
            if image:
                bad_vectors += 1
                if first is None:
                    first = f"{label} on {render_poly(monomial_poly(mono))}"
    assert bad_vectors == 0, first

    # the sp(2m) commutations carry a symbolic zero certificate, which
    # covers every block at once; the suite also spot-checks them
    # extensionally on low degrees
    rows = suite_cache("algebra_relations")
    _verdict(1, "algebra relations, zero residual vectors at degree <= 5", rows)


def test_criterion_02_projector_formula(ver):
    cat = ver.cat
    checked = 0
    for a in range(5):
        den = QQ(1, 2 * a + M - 2)
        for row in harmonic_space(M, a).rows:
            h = vec_to_poly(row, ver.eigenblock(0, a))
            for i in range(1, M + 1):
                yh = multiply_by(h, y_(i))
                lhs = apply_op(cat["Pi_L"], yh)
                # rhs = (2a+m)/(2a+m-2) y_i H + 1/(2a+m-2) x_i |z|^2 H
                rhs = dict(poly_scale(yh, QQ(2 * a + M) * den))
                xh = multiply_by(h, x_(i))
                for j in range(1, M + 1):
                    add_scaled(rhs, multiply_by(multiply_by(xh, z_(j)), z_(j)), den)
                assert render_poly(lhs) == render_poly(rhs)
                assert lhs == rhs
                checked += 1
    assert checked == sum(harmonic_dim(M, a) for a in range(5)) * M
    print("criterion 02 projector formula on y_i H_a: PASS")


def test_criterion_03_classical_fischer(suite_cache):
    rows = suite_cache("classical_fischer", 4)
    dims = {int(r.params["a"]): int(r.actual) for r in rows
            if r.name == "harmonic_dim_vs_nullspace"}
    assert tuple(dims[a] for a in range(7)) == (1, 6, 20, 50, 105, 196, 336)
    assert {int(r.params["d"]) for r in rows
            if r.name == "fischer_z_decomposition"} == set(range(7))
    _verdict(3, "classical Fischer decomposition, d <= 6", rows)


def test_criterion_04_table_ker(suite_cache):
    rows = suite_cache("table_ker", 4)
    dims = {int(r.params["a"]): int(r.actual) for r in rows if r.name == "kernel_L_dim"}
    assert dims[0] == M
    assert dims[1] == 36
    _verdict(4, "kernel of L on k=1 blocks, a <= 4", rows)


def test_criterion_05_fischer_k_le_1(suite_cache):
    # alpha <= m/2 + 4 means argument 5 for both level-indexed suites
    rows = suite_cache("l_fischer", 5) + suite_cache("symplectic_fischer_k1", 5)
    names = {r.name for r in rows}
    assert "fischer_tower" in names
    assert "dirac_up_injective" in names
    assert "symplectic_fischer_sum" in names
    _verdict(5, "L-Fischer and symplectic Fischer, alpha <= m/2+4", rows)


def test_criterion_06_kernel_families(ver, suite_cache):
    rows = suite_cache("kernel_families", 4)
    for a in range(2, 5):
        fam = ver.families(a)
        nh = harmonic_dim(M, a - 1)
        assert len(fam["split_kernel"]) == nh
        assert len(fam["split_image"]) == nh
        dim = fam["eb"].dim
        assert Subspace.from_vectors(dim, fam["split_kernel"]).dim == nh
        assert Subspace.from_vectors(dim, fam["split_image"]).dim == nh
    _verdict(6, "five kernel families inside ker_1(D_s), a <= 4", rows)


def test_criterion_07_branching_table(suite_cache):
    rows = suite_cache("branching_table", 4)
    anchors = {int(r.params["t"]): int(r.actual) for r in rows
               if r.name == "lws_dim_vs_five_row_table"}
    assert anchors[-1] == 6
    assert anchors[0] == 35
    assert anchors[2] == 316
    casimir_rows = [r for r in rows if r.name == "component_casimir"]
    assert len(casimir_rows) == sum(len(r.params["weights"]) for r in rows
                                    if r.name == "lws_dim_vs_five_row_table")
    _verdict(7, "branching table with Casimir certification, t <= 4", rows)


def test_criterion_08_dimension_identity():
    rows = []
    for m in (6, 7):
        rows.extend(Verifier(m).dim_identity(6))
    assert {(int(r.params["m"]), int(r.params["a"])) for r in rows} == {
        (m, a) for m in (6, 7) for a in range(2, 7)
    }
    _verdict(8, "dimensional identity, 2 <= a <= 6, m in {6,7}", rows)


def test_criterion_09_verma_mechanics(ver, suite_cache):
    cat = ver.cat
    one = {(0,) * (3 * M): QQ(1)}
    x1 = monomial_poly(tuple(1 if i == x_(1).flat(M) else 0 for i in range(3 * M)))
    z1 = monomial_poly(tuple(1 if i == z_(1).flat(M) else 0 for i in range(3 * M)))
    expected_labels = {"m/2": one, "m/2-1": x1, "m/2+1": z1}
    for label, v in expected_labels.items():
        res = verma_action_check(cat, v, 3)
        assert res.ok, res.rows
        assert res.label.describe(M) == label
        assert len(res.rows) == 3
    # the tensor rule dimension-wise: every eigenblock is the sum of
    # R-lifted kernels of L, with the second thread counted by harmonics
    rows = [r for r in suite_cache("l_fischer", 5)
            if r.name in ("fischer_tower", "lowest_weight_threads")]
    assert rows
    threads = [r for r in rows if r.name == "lowest_weight_threads"]
    assert any(int(r.params["harmonic_thread"]) > 0 for r in threads)
    _verdict(9, "Verma tower constants and tensor rule dimensions", rows)


def test_criterion_10_determinism_and_mutation():
    def dump(rows):
        return json.dumps([r.as_dict() for r in rows], sort_keys=True)

    for suite, arg in (("table_ker", 2), ("branching_table", 1), ("dim_identity", 4)):
        r1 = dump(getattr(Verifier(M), suite)(arg))
        r2 = dump(getattr(Verifier(M), suite)(arg))
        assert r1 == r2

    # deliberate corruption: the derivative pairing inside D_s changes
    # sign; a fresh Verifier keeps the corruption out of shared caches
    bad = LinearOperator("D_s", inner_mul_der(z_, y_, M) + inner_der_der(x_, z_, M, sign=1))
    bad_cat = dict(catalog(M))
    bad_cat["D_s"] = bad
    dirty = Verifier(M, cat=bad_cat)
    for suite, args in (("algebra_relations", ()), ("symplectic_fischer_k1", (2,)),
                        ("kernel_families", (2,)), ("branching_table", (2,))):
        rows = getattr(dirty, suite)(*args)
        fails = [r for r in rows if not r.passed]
        assert fails, f"{suite} did not notice the corrupted operator"
        assert any(r.witness for r in fails), f"{suite} failed without witnesses"

    clean = Verifier(M).table_ker(1)
    assert all(r.passed for r in clean)
    print("criterion 10 determinism and mutation sensitivity: PASS")
