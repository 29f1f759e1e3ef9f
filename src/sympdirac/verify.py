"""Block-by-block verification of the operator calculus.

Everything the harness certifies is an exact statement about one finite
eigenblock: the joint eigenspace in P(R^{m x 3}) of the (x,y)-degree k
and of the grading operator script-E with eigenvalue m/2 + t. Suites
construct the advertised subspaces explicitly, compute kernels as exact
nullspaces, and check direct-sum decompositions with exact ranks.

Check rows carry their parameters and both sides of every comparison, so
a report can be replayed; failures carry a witness in canonical
polynomial syntax. Rows depend only on (m, ranges, operator catalog) and
are emitted in a fixed order, which makes reports reproducible byte for
byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .rationals import QQ, qq_str
from .polys import (
    Block,
    Monomial,
    Poly,
    TriDegree,
    add_scaled,
    monomial_poly,
    poly_mul,
    poly_scale,
    poly_sub,
    render_poly,
    tri_degrees_of_total,
    var_at,
)
from .linalg import (
    IntRow,
    RationalMatrix,
    Subspace,
    is_direct_sum,
    matrix_of,
    operator_matrix,
    poly_to_vec,
    rank_certified,
    stack_matrices,
    to_int_row,
    vec_to_poly,
)
from .operators import (
    LinearOperator,
    NormalForm,
    apply_op,
    catalog,
    commutator,
    identity_op,
    integer_images,
    normal_form,
    nf_bracket,
    nf_sum,
    op_add,
    op_scale,
    op_sub,
    sp_labels,
)
from .repn import (
    HighestWeightSO,
    casimir_eigencheck,
    casimir_scalar,
    components_at_level,
    dim_weight,
    harmonic_dim,
    harmonic_polys_embedded,
    harmonic_space,
    simplicial_harmonics,
)


def _short_poly(p, max_terms: int = 3) -> str:
    """Abbreviated rendering for witness strings."""
    full = render_poly(p)
    parts = full.split(" + ")
    if len(parts) <= max_terms:
        return full
    return " + ".join(parts[:max_terms]) + f" + ... ({len(parts)} terms)"


@dataclass(frozen=True)
class EigenBlock:
    """The (k, alpha) joint eigenspace, alpha = m/2 + t."""

    m: int
    k: int
    t: int
    block: Block

    @property
    def alpha(self) -> QQ:
        return QQ(self.m, 2) + self.t

    def __repr__(self) -> str:
        return f"EigenBlock(m={self.m}, k={self.k}, alpha=m/2{self.t:+d}, dim={self.block.dim})"


@dataclass
class CheckResult:
    name: str
    params: Dict[str, object]
    expected: str
    actual: str
    passed: bool
    witness: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        out = {
            "name": self.name,
            "params": self.params,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _row(name: str, params: Dict[str, object], expected, actual, witness=None) -> CheckResult:
    e, a = str(expected), str(actual)
    return CheckResult(name, params, e, a, e == a and witness is None, witness)


def _eigenblock(m: int, k: int, t: int) -> EigenBlock:
    # tri-degree (kx, k - kx, kz) has script-E eigenvalue m/2 + kz + k - 2 kx
    degs = [TriDegree(kx, k - kx, t + 2 * kx - k) for kx in range(k + 1) if t + 2 * kx - k >= 0]
    return EigenBlock(m, k, t, Block(m, degs))


def _nonzero_images(op: LinearOperator, monos: Sequence[Monomial]) -> Tuple[int, Optional[Monomial]]:
    """How many of monos op does not send to 0, and the first of them.
    Runs on the operator's integer images; no rational is formed."""
    bad = 0
    first = None
    for mono, (image, _) in zip(monos, integer_images(op, monos)):
        if image:
            bad += 1
            if first is None:
                first = mono
    return bad, first


class Verifier:
    """Runs the suites over a read-only copy of an operator catalog, so a
    later edit of the caller's dict reaches no Verifier. Eigenblocks,
    kernels, lowest-weight spaces and families are kept in one memo keyed
    by name and parameters; nothing they depend on can change. Operator
    matrices live on the operators (linalg.operator_matrix)."""

    def __init__(self, m: int, cat: Optional[Mapping[str, LinearOperator]] = None):
        self.m = m
        self.cat = MappingProxyType(dict(cat if cat is not None else catalog(m)))
        self._memo: Dict[tuple, object] = {}

    def _memoized(self, key: tuple, build: Callable[[], object]):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    # -- eigenblocks and kernels

    def eigenblock(self, k: int, t: int) -> EigenBlock:
        return self._memoized(("eigenblock", k, t), lambda: _eigenblock(self.m, k, t))

    def dirac_matrix(self, k: int, t: int) -> RationalMatrix:
        return operator_matrix(self.cat["D_s"], self.eigenblock(k, t).block, self.eigenblock(k - 1, t).block)

    def lowering_matrix(self, k: int, t: int) -> RationalMatrix:
        return operator_matrix(self.cat["L"], self.eigenblock(k, t).block, self.eigenblock(k, t - 2).block)

    def kernel_Ds(self, k: int, t: int) -> Subspace:
        return self._memoized(("kernel_Ds", k, t), lambda: self.dirac_matrix(k, t).nullspace())

    def kernel_L(self, k: int, t: int) -> Subspace:
        return self._memoized(("kernel_L", k, t), lambda: self.lowering_matrix(k, t).nullspace())

    def lowest_weight_space(self, k: int, t: int) -> Subspace:
        return self._memoized(("lowest_weight_space", k, t), lambda: stack_matrices(
            [self.dirac_matrix(k, t), self.lowering_matrix(k, t)]).nullspace())

    # -- conversions: spans and membership do not change when a vector is
    # scaled, so family vectors are kept as primitive integer rows

    def to_vecs(self, polys: Sequence[Poly], eb: EigenBlock) -> List[IntRow]:
        return [to_int_row(poly_to_vec(p, eb.block)) for p in polys if p]

    def revec(self, space: Subspace, from_block: Block, eb: EigenBlock) -> List[IntRow]:
        return [poly_to_vec(vec_to_poly(row, from_block), eb.block) for row in space.int_rows]

    def span(self, vecs: Sequence[Dict[int, QQ]], eb: EigenBlock) -> Subspace:
        return Subspace.from_vectors(eb.block.dim, vecs)

    # -- the five families over H_{a-1}..H_{a+1} in the k=1 block at t = a-1

    def families(self, a: int) -> Dict[str, object]:
        return self._memoized(("families", a), lambda: self._build_families(a))

    def _build_families(self, a: int) -> Dict[str, object]:
        m, cat = self.m, self.cat
        eb = self.eigenblock(1, a - 1)
        fam = {"eb": eb}

        if a >= 1:
            blk, sp = simplicial_harmonics(m, a, 1, "z", "x")
            fam["hook_x"] = self.revec(sp, blk, eb)
        else:
            fam["hook_x"] = []

        fam["s_x"] = self.to_vecs([apply_op(cat["S_xz"], h) for h in harmonic_polys_embedded(m, a + 1)], eb)

        if a >= 3:
            blk, sp = simplicial_harmonics(m, a - 2, 1, "z", "y")
            raw = [vec_to_poly(row, blk) for row in sp.int_rows]
            fam["hook_y_raw"] = self.to_vecs(raw, eb)
            fam["hook_y"] = self.to_vecs([apply_op(cat["Pi_L"], p) for p in raw], eb)
            raw_c = [apply_op(cat["C_yz"], h) for h in harmonic_polys_embedded(m, a - 3)]
            fam["c_y_raw"] = self.to_vecs(raw_c, eb)
            fam["c_y"] = self.to_vecs([apply_op(cat["Pi_L"], p) for p in raw_c], eb)
        else:
            fam["hook_y_raw"] = fam["hook_y"] = fam["c_y_raw"] = fam["c_y"] = []

        # the split over H_{a-1}: per harmonic H the two vectors
        # C_xz H and Pi_L S_yz H carry one kernel direction and one
        # D_s_dag-image direction between them
        kernel_combos: List[IntRow] = []
        image_vecs: List[IntRow] = []
        ratios = set()
        if a >= 1:
            k0 = self.eigenblock(0, a - 1)
            for h in harmonic_polys_embedded(m, a - 1):
                v1 = apply_op(cat["C_xz"], h)
                v2 = apply_op(cat["Pi_L"], apply_op(cat["S_yz"], h))
                if v2:
                    w1 = apply_op(cat["D_s"], v1)
                    w2 = apply_op(cat["D_s"], v2)
                    cols = [poly_to_vec(w, k0.block) for w in (w1, w2)]
                    null = RationalMatrix(k0.block.dim, 2, cols).nullspace()
                    if null.dim == 1:
                        combo = null.rows[0]
                        c1, c2 = combo.get(0, QQ(0)), combo.get(1, QQ(0))
                        ratios.add((qq_str(c1), qq_str(c2)))
                        merged = poly_scale(v1, c1)
                        add_scaled(merged, v2, c2)
                        kernel_combos.append(to_int_row(poly_to_vec(merged, eb.block)))
                    else:
                        ratios.add(("degenerate", str(null.dim)))
                image_vecs.append(to_int_row(poly_to_vec(apply_op(cat["D_s_dag"], h), eb.block)))
        fam["split_kernel"] = kernel_combos
        fam["split_image"] = image_vecs
        fam["split_ratios"] = tuple(sorted(ratios))
        return fam

    # ------------------------------------------------------------------
    # suite: algebra_relations

    def algebra_relations(self) -> List[CheckResult]:
        m, cat = self.m, self.cat
        rows: List[CheckResult] = []
        sl2 = ("sl_h", "sl_s", "sl_c", "sl_d")
        names = [f"{t}_{s}" for t in sl2 for s in "XYH"] + ["R", "L", "E_script", "D_s", "D_s_dag", "E", "Id"]
        nf = {name: normal_form(cat[name], m) for name in names + sp_labels(m)}

        def nf_residual(res: NormalForm) -> Tuple[int, Optional[str]]:
            if not res[1]:
                return 0, None
            (ders, muls), v = min(res[1].items())
            word = " ".join([f"d_{var_at(i, m)}" for i in ders] + [str(var_at(i, m)) for i in muls])
            return len(res[1]), f"{qq_str(QQ(v, res[0]))} * [{word}]"

        rows.append(_row("sp_generator_count", {"m": m}, 2 * m * m + m, len(sp_labels(m))))

        # the residuals are built as operators only for the extensional
        # sweeps below, once each, so that each is compiled once
        triples: List[Tuple[str, LinearOperator]] = []
        for name in sl2:
            X, Y, H = (nf[f"{name}_{s}"] for s in "XYH")
            for rel, res in (("HX", nf_sum((1, nf_bracket(H, X)), (-2, X))),
                             ("HY", nf_sum((1, nf_bracket(H, Y)), (2, Y))),
                             ("XY", nf_sum((1, nf_bracket(X, Y)), (-1, H)))):
                n, wit = nf_residual(res)
                rows.append(_row(f"triple_{name}_{rel}", {"triple": name}, 0, n, wit))
            X, Y, H = (cat[f"{name}_{s}"] for s in "XYH")
            triples += [(name, op_sub(commutator(H, X), op_scale(X, 2))),
                        (name, op_add(commutator(H, Y), op_scale(Y, 2))),
                        (name, op_sub(commutator(X, Y), H))]

        n, wit = nf_residual(nf_sum((1, nf_bracket(nf["R"], nf["L"])), (-1, nf["E_script"])))
        rows.append(_row("bracket_R_L_is_scriptE", {}, 0, n, wit))
        n, wit = nf_residual(nf_sum((1, nf_bracket(nf["D_s"], nf["D_s_dag"])), (1, nf["E"]), (m, nf["Id"])))
        rows.append(_row("bracket_Ds_Dsdag_is_minus_E_plus_m", {}, 0, n, wit))

        for target in ("D_s", "D_s_dag", "E"):
            bad = [lab for lab in sp_labels(m) if nf_bracket(nf[lab], nf[target])[1]]
            wit = f"[{bad[0]}, {target}] != 0" if bad else None
            rows.append(_row(f"sp_commutes_with_{target}", {"generators": len(sp_labels(m))}, 0, len(bad), wit))

        for a, b in (("R", "D_s"), ("L", "D_s"), ("R", "D_s_dag"), ("L", "D_s_dag")):
            n, wit = nf_residual(nf_bracket(nf[a], nf[b]))
            rows.append(_row(f"commutes_{a}_{b}", {}, 0, n, wit))

        # extensional confirmation on whole low-degree blocks ties the
        # symbolic certificates back to the action on polynomials
        bad = 0
        wit = None
        for total in range(4):
            for d in tri_degrees_of_total(total):
                blk = Block(m, [d])
                for name, op in triples:
                    n, first = _nonzero_images(op, blk.basis)
                    bad += n
                    if wit is None and first is not None:
                        p = monomial_poly(first)
                        wit = f"{name} on {render_poly(p)}: {render_poly(apply_op(op, p))}"
        rows.append(_row("triples_extensional_deg_le_3", {"max_degree": 3}, 0, bad, wit))

        bad = 0
        wit = None
        sample = sp_labels(m)[:: max(1, len(sp_labels(m)) // 20)]
        sampled = [(lab, target, commutator(cat[lab], cat[target]))
                   for lab in sample for target in ("D_s", "D_s_dag", "E")]
        for total in range(3):
            for d in tri_degrees_of_total(total):
                blk = Block(m, [d])
                for lab, target, op in sampled:
                    n, first = _nonzero_images(op, blk.basis)
                    bad += n
                    if wit is None and first is not None:
                        wit = f"[{lab}, {target}] on {render_poly(monomial_poly(first))}"
        rows.append(_row("sp_extensional_deg_le_2", {"sampled_generators": len(sample)}, 0, bad, wit))
        return rows

    # ------------------------------------------------------------------
    # suite: classical_fischer (z-only Fischer decomposition)

    def classical_fischer(self, a_max: int) -> List[CheckResult]:
        m = self.m
        rows: List[CheckResult] = []
        top = a_max + 2
        for a in range(top + 1):
            rows.append(_row("harmonic_dim_vs_nullspace", {"a": a},
                             harmonic_dim(m, a), harmonic_space(m, a).dim))
        z2 = {(0,) * (2 * m) + tuple(2 if i == j else 0 for i in range(m)): QQ(1) for j in range(m)}
        for d in range(top + 1):
            eb = self.eigenblock(0, d)
            parts = []
            for p in range(d // 2 + 1):
                polys = list(harmonic_polys_embedded(m, d - 2 * p))
                for _ in range(p):
                    polys = [poly_mul(q, z2) for q in polys]
                parts.append(self.span(self.to_vecs(polys, eb), eb))
            ok = is_direct_sum(parts, Subspace.full(eb.block.dim))
            rows.append(_row("fischer_z_decomposition", {"d": d, "dim": eb.block.dim,
                                                         "parts": [s.dim for s in parts]}, True, ok))
        return rows

    # ------------------------------------------------------------------
    # suite: table_ker (kernel of L on k=1 blocks)

    def table_ker(self, a_max: int) -> List[CheckResult]:
        m, cat = self.m, self.cat
        rows: List[CheckResult] = []
        for a in range(a_max + 1):
            t = a - 1
            eb = self.eigenblock(1, t)
            ker = self.kernel_L(1, t)
            expected_dim = m * (harmonic_dim(m, a) + harmonic_dim(m, a - 2))
            rows.append(_row("kernel_L_dim", {"a": a, "block_dim": eb.block.dim},
                             expected_dim, ker.dim))

            xs: List[IntRow] = []
            for h in harmonic_polys_embedded(m, a):
                for j in range(m):
                    xs.append(to_int_row(poly_to_vec({(tuple(1 if i == j else 0 for i in range(m)) + mono[m:]): c
                                                      for mono, c in h.items()}, eb.block)))
            bad = sum(1 for v in xs if not ker.contains(v))
            rows.append(_row("x_harmonics_in_kernel", {"a": a, "vectors": len(xs)}, 0, bad))

            ys: List[IntRow] = []
            if a >= 2:
                for h in harmonic_polys_embedded(m, a - 2):
                    for j in range(m):
                        yh = {(mono[:m] + tuple(1 if i == j else 0 for i in range(m)) + mono[2 * m:]): c
                              for mono, c in h.items()}
                        ys.append(to_int_row(poly_to_vec(apply_op(cat["Pi_L"], yh), eb.block)))
                bad = sum(1 for v in ys if not ker.contains(v))
                rows.append(_row("projected_y_harmonics_in_kernel", {"a": a, "vectors": len(ys)}, 0, bad))

            parts = [self.span(xs, eb)] + ([self.span(ys, eb)] if ys else [])
            ok = is_direct_sum(parts, ker)
            rows.append(_row("table_direct_sum", {"a": a, "x_rows": len(xs), "y_rows": len(ys),
                                                  "degenerate": a < 2}, True, ok))
        return rows

    # ------------------------------------------------------------------
    # suite: l_fischer (R-tower decomposition of every eigenblock, k <= 1)

    def _r_tower_parts(self, k: int, t: int) -> List[Subspace]:
        eb = self.eigenblock(k, t)
        parts = []
        j = 0
        while True:
            level = t - 2 * j
            low = self.eigenblock(k, level)
            if low.block.dim == 0:
                break
            ker = self.kernel_L(k, level)
            vecs = []
            for row in ker.int_rows:
                p = vec_to_poly(row, low.block)
                for _ in range(j):
                    p = apply_op(self.cat["R"], p)
                vecs.append(poly_to_vec(p, eb.block))
            if vecs:
                parts.append(self.span(vecs, eb))
            j += 1
        return parts

    def l_fischer(self, a_max: int) -> List[CheckResult]:
        m = self.m
        rows: List[CheckResult] = []
        for k in (0, 1):
            for idx in range(a_max + 1):
                t = idx if k == 0 else idx - 1
                eb = self.eigenblock(k, t)
                parts = self._r_tower_parts(k, t)
                ok = is_direct_sum(parts, Subspace.full(eb.block.dim))
                rows.append(_row("fischer_tower", {"k": k, "t": t, "dim": eb.block.dim,
                                                   "parts": [s.dim for s in parts]}, True, ok))
                if k == 1:
                    ker = self.kernel_L(1, t).dim
                    lws = self.lowest_weight_space(1, t).dim
                    extra = harmonic_dim(m, t)
                    rows.append(_row("lowest_weight_threads", {"k": 1, "t": t,
                                                               "lws": lws, "harmonic_thread": extra},
                                     ker, lws + extra))
        return rows

    # ------------------------------------------------------------------
    # suite: symplectic_fischer_k1

    def symplectic_fischer_k1(self, a_max: int) -> List[CheckResult]:
        m, cat = self.m, self.cat
        rows: List[CheckResult] = []
        bracket = op_add(commutator(cat["D_s"], cat["D_s_dag"]),
                         op_add(cat["E"], op_scale(identity_op(), m)))
        for a in range(a_max + 1):
            t = a - 1
            eb = self.eigenblock(1, t)
            ker = self.kernel_Ds(1, t)
            k0 = self.eigenblock(0, t)
            parts = [ker]
            if k0.block.dim:
                # rank and span do not change under scaling, so the
                # integer columns serve
                up = matrix_of(cat["D_s_dag"], k0.block, eb.block).integer_form()[1]
                rank = rank_certified(up, eb.block.dim)
                rows.append(_row("dirac_up_injective", {"a": a, "k0_dim": k0.block.dim},
                                 k0.block.dim, rank))
                parts.append(self.span(up, eb))
            ok = is_direct_sum(parts, Subspace.full(eb.block.dim))
            rows.append(_row("symplectic_fischer_sum", {"a": a, "dim": eb.block.dim,
                                                        "kernel": ker.dim,
                                                        "image": k0.block.dim}, True, ok))
            bad, first = _nonzero_images(bracket, eb.block.basis)
            wit = None if first is None else render_poly(monomial_poly(first))
            rows.append(_row("bracket_on_block", {"a": a, "dim": eb.block.dim}, 0, bad, wit))
        return rows

    # ------------------------------------------------------------------
    # suite: kernel_families

    def kernel_families(self, a_max: int) -> List[CheckResult]:
        rows: List[CheckResult] = []
        for a in range(a_max + 1):
            rows.extend(self.kernel_families_at(a))
        return rows

    def kernel_families_at(self, a: int) -> List[CheckResult]:
        m = self.m
        rows: List[CheckResult] = []
        t = a - 1
        fam = self.families(a)
        eb: EigenBlock = fam["eb"]
        ker = self.kernel_Ds(1, t)
        kerL = self.kernel_L(1, t)
        lws = self.lowest_weight_space(1, t)

        for key, label in (("hook_x", "family_hook_x"), ("s_x", "family_S_xz"),
                           ("hook_y", "family_hook_y_projected"),
                           ("c_y", "family_C_yz_projected"),
                           ("split_kernel", "family_split_kernel")):
            vecs = fam[key]
            if not vecs:
                continue
            bad = sum(1 for v in vecs if not ker.contains(v))
            rows.append(_row(f"{label}_in_ker_Ds", {"a": a, "vectors": len(vecs)}, 0, bad))

        parts = [self.span(fam[key], eb) for key in
                 ("hook_x", "s_x", "hook_y", "c_y", "split_kernel") if fam[key]]
        ok = is_direct_sum(parts, lws)
        rows.append(_row("families_span_lowest_weight_space",
                         {"a": a, "lws": lws.dim, "parts": [s.dim for s in parts]}, True, ok))
        image_span = self.span(fam["split_image"], eb)
        full_parts = parts + ([image_span] if fam["split_image"] else [])
        ok_full = is_direct_sum(full_parts, kerL)
        rows.append(_row("families_with_image_span_ker_L",
                         {"a": a, "ker_L": kerL.dim,
                          "parts": [s.dim for s in full_parts]}, True, ok_full))

        nh = harmonic_dim(m, a - 1)
        expected_combos = nh if a >= 2 else 0
        rows.append(_row("split_one_kernel_direction_per_harmonic",
                         {"a": a, "harmonics": nh, "degenerate": a == 1,
                          "ratios": list(fam["split_ratios"])},
                         expected_combos, len(fam["split_kernel"])))
        if a >= 2:
            # D_s C_xz H and D_s Pi_L S_yz H are these multiples of H
            alpha = QQ(-(2 * a + m - 4) * (m + a - 1) + 2 * (a - 1), 2 * a + m - 4)
            beta = QQ(a - 1)
            null = RationalMatrix(1, 2, [{0: alpha}, {0: beta}]).nullspace()
            expect_ratio = (qq_str(null.rows[0].get(0, QQ(0))), qq_str(null.rows[0].get(1, QQ(0))))
            rows.append(_row("split_ratio_matches_measured_constants", {"a": a},
                             [expect_ratio], list(fam["split_ratios"])))

        if a >= 1:
            bad = 0
            wit = None
            for h in harmonic_polys_embedded(m, a - 1):
                res = poly_sub(apply_op(self.cat["D_s"], apply_op(self.cat["D_s_dag"], h)),
                               poly_scale(h, -m))
                if res:
                    bad += 1
                    if wit is None:
                        wit = render_poly(res)
            rows.append(_row("image_thread_bracket_eigenvalue", {"a": a, "eigen": -m}, 0, bad, wit))
            ok = is_direct_sum([lws, image_span], kerL)
            rows.append(_row("lws_plus_image_is_ker_L", {"a": a, "lws": lws.dim,
                                                         "image": image_span.dim}, True, ok))
        else:
            rows.append(_row("kernel_is_ker_L", {"a": a}, True, ker == kerL))

        # the projector question: x-side families already sit in ker L,
        # the y-side constructions only do after projection
        if fam["hook_x"] or fam["s_x"]:
            raw_ok = all(kerL.contains(v) for v in fam["hook_x"] + fam["s_x"])
            rows.append(_row("x_families_in_ker_L_unprojected", {"a": a}, True, raw_ok))
        if fam["hook_y_raw"] or fam["c_y_raw"]:
            raw_bad = all(not kerL.contains(v) for v in fam["hook_y_raw"] + fam["c_y_raw"])
            rows.append(_row("y_families_need_projector", {"a": a}, True, raw_bad))
        return rows

    # ------------------------------------------------------------------
    # suite: branching_table

    def branching_table(self, t_max: int) -> List[CheckResult]:
        m, cat = self.m, self.cat
        rows: List[CheckResult] = []
        for t in range(-1, t_max + 1):
            eb = self.eigenblock(1, t)
            lws = self.lowest_weight_space(1, t)
            comps = components_at_level(t)
            five_row = sum(dim_weight(m, w) for _, _, w in comps)
            mult = m * (harmonic_dim(m, t - 1) + harmonic_dim(m, t + 1)) - harmonic_dim(m, t)
            rows.append(_row("lws_dim_vs_five_row_table",
                             {"t": t, "weights": [str(w) for _, _, w in comps],
                              "dropped_non_dominant": 5 - len(comps)}, five_row, lws.dim))
            rows.append(_row("lws_dim_vs_multiplicity_formula", {"t": t}, mult, lws.dim))
            rows.append(_row("predictions_cross_consistent", {"t": t}, five_row, mult))

            seen = {}
            sep_ok = True
            for _, _, w in comps:
                key = (dim_weight(m, w), str(casimir_scalar(m, w)))
                if key in seen:
                    sep_ok = False
                seen[key] = w
            rows.append(_row("dim_and_casimir_separate_components", {"t": t}, True, sep_ok))

            fam = self.families(t + 1)
            by_offset = {-2: "s_x", -1: "hook_x", 0: "split_kernel", 1: "hook_y", 2: "c_y"}
            spans = []
            for line, aa, w in comps:
                vecs = fam[by_offset[line.verma_offset]]
                span = self.span(vecs, eb)
                spans.append(span)
                rows.append(_row("component_dim", {"t": t, "weight": str(w),
                                                   "verma": line.verma_at(m, aa).describe(m)},
                                 dim_weight(m, w), span.dim))
                bad = 0
                wit = None
                for i, row in enumerate(span.int_rows):
                    if not lws.contains(row):
                        bad += 1
                        if wit is None:
                            wit = _short_poly(vec_to_poly(span.rows[i], eb.block))
                rows.append(_row("component_in_lws", {"t": t, "weight": str(w)}, 0, bad, wit))
                chk = casimir_eigencheck(cat, eb.block, span, w)
                rows.append(_row("component_casimir", {"t": t, "weight": str(w),
                                                       "eigenvalue": qq_str(chk.expected)},
                                 True, chk.ok,
                                 None if chk.ok else render_poly(chk.offending)))
            ok = is_direct_sum(spans, lws)
            rows.append(_row("components_direct_sum", {"t": t, "lws": lws.dim,
                                                       "parts": [s.dim for s in spans]}, True, ok))
        return rows

    # ------------------------------------------------------------------
    # suite: multiplicity

    def multiplicity(self, t_max: int) -> List[CheckResult]:
        m = self.m
        rows: List[CheckResult] = []
        for t in range(-1, t_max + 1):
            ker = self.kernel_L(1, t)
            lws = self.lowest_weight_space(1, t)
            expect_ker = m * (harmonic_dim(m, t - 1) + harmonic_dim(m, t + 1))
            rows.append(_row("kernel_L_multiplicity", {"t": t, "degenerate": t <= 0},
                             expect_ker, ker.dim))
            rows.append(_row("lws_is_kernel_minus_harmonics", {"t": t},
                             expect_ker - harmonic_dim(m, t), lws.dim))
        return rows

    # ------------------------------------------------------------------
    # suite: dim_identity

    def dim_identity(self, a_max: int) -> List[CheckResult]:
        m = self.m
        rows: List[CheckResult] = []
        for a in range(2, a_max + 1):
            lhs = (dim_weight(m, HighestWeightSO(a + 1, 1)) + dim_weight(m, HighestWeightSO(a - 1, 1))
                   + harmonic_dim(m, a + 2) + harmonic_dim(m, a) + harmonic_dim(m, a - 2))
            rhs = m * (harmonic_dim(m, a + 1) + harmonic_dim(m, a - 1)) - harmonic_dim(m, a)
            rows.append(_row("dimension_identity", {"a": a, "m": m}, lhs, rhs))
        return rows

    # ------------------------------------------------------------------
    # suite: s0_branching

    def s0_branching(self, d_max: int = 6) -> List[CheckResult]:
        m = self.m
        rows: List[CheckResult] = []
        for d in range(d_max + 1):
            eb = self.eigenblock(0, d)
            rows.append(_row("dirac_vanishes_on_k0", {"d": d},
                             eb.block.dim, self.kernel_Ds(0, d).dim))
            blk, harm = simplicial_harmonics(m, d, 0)
            same = self.lowest_weight_space(0, d) == harm
            rows.append(_row("k0_lws_is_harmonics", {"d": d, "dim": harm.dim}, True, same))
        return rows


# The suites in canonical report order, each with the range arguments it
# takes as a function of the report's (a_max, t_max).
SUITES: Dict[str, Callable[[int, int], Tuple[int, ...]]] = {
    "algebra_relations": lambda a_max, t_max: (),
    "classical_fischer": lambda a_max, t_max: (a_max,),
    "table_ker": lambda a_max, t_max: (a_max,),
    "l_fischer": lambda a_max, t_max: (a_max,),
    "symplectic_fischer_k1": lambda a_max, t_max: (a_max,),
    "kernel_families": lambda a_max, t_max: (a_max,),
    "branching_table": lambda a_max, t_max: (t_max,),
    "multiplicity": lambda a_max, t_max: (t_max,),
    "dim_identity": lambda a_max, t_max: (a_max,),
    "s0_branching": lambda a_max, t_max: (a_max + 2,),
}
