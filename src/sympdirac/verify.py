"""Block-by-block verification of the operator calculus.

Everything the harness certifies is an exact statement about one finite
eigenblock: the joint eigenspace in P(R^{m x 3}) of the (x,y)-degree k
and of the grading operator script-E with eigenvalue m/2 + t. Suites
construct the advertised subspaces explicitly, compute kernels as exact
nullspaces, and check direct-sum decompositions with exact ranks.

An eigenblock is the Block of its tri-degrees. Every vector is an integer
row in one block's coordinates. The spherical harmonics H_a are
repn.harmonic_space's rows: the simplicial harmonics H_{a,0}, in the
coordinates of the z-only eigenblock (0, a), whose lowest-weight space
s0_branching compares them with. An operator reaches a vector only as its
block matrix kept on the operator (linalg.operator_matrix) times a row,
and multiplying by a variable is a change of coordinates
(linalg.reindex). A polynomial is formed only for a witness.

Suites that run over levels are split into units, one per level (SUITES):
the units at level t certify statements about eigenblock (1, t) or (0, t)
and read that level's kernels, lowest-weight space and families(t + 1);
only the R-towers of l_fischer and the z-only blocks the families start
from reach lower levels. A suite's rows are its units' rows in order, so
a report can be computed one level at a time (cli.build_report with
jobs > 1) and reassembled byte for byte. algebra_relations,
classical_fischer, dim_identity and s0_branching are level-free, one
unit each.

Check rows carry their parameters and both sides of every comparison, so
a report can be replayed; failures carry a witness in canonical
polynomial syntax. Rows depend only on (m, ranges, operator catalog) and
are emitted in a fixed order, which makes reports reproducible byte for
byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .rationals import QQ, qq_str
from .polys import (
    Block,
    Monomial,
    TriDegree,
    add_scaled,
    monomial_poly,
    monomial_sort_key,
    render_poly,
    tri_degrees_of_total,
    var_at,
)
from .linalg import (
    IntRow,
    RationalMatrix,
    Subspace,
    is_direct_sum,
    is_independent_sum,
    operator_matrix,
    rank_certified,
    reindex,
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


# A unit of a suite: (level, Verifier method, its arguments); level is
# None for a level-free suite.
Unit = Tuple[Optional[int], str, Tuple[int, ...]]


def _short_poly(p) -> str:
    """Abbreviated rendering for witness strings: the first three
    monomials in canonical order, then the number of terms."""
    if len(p) <= 3:
        return render_poly(p)
    head = sorted(p, key=monomial_sort_key)[:3]
    return render_poly({mono: p[mono] for mono in head}) + f" + ... ({len(p)} terms)"


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


def _eigenblock(m: int, k: int, t: int) -> Block:
    """The (k, m/2 + t) joint eigenspace: tri-degree (kx, k - kx, kz) has
    script-E eigenvalue m/2 + kz + k - 2 kx."""
    degs = [TriDegree(kx, k - kx, t + 2 * kx - k) for kx in range(k + 1) if t + 2 * kx - k >= 0]
    return Block(m, degs)


def _times_var(block: Block, i: int) -> List[Monomial]:
    """block's basis monomials times the variable at flat position i."""
    return [mono[:i] + (mono[i] + 1,) + mono[i + 1:] for mono in block.basis]


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
    later edit of the caller's dict reaches no Verifier. Blocks, kernels,
    lowest-weight spaces and families are kept in one memo keyed by name
    and parameters; nothing they depend on can change. Operator matrices
    live on the operators (linalg.operator_matrix)."""

    def __init__(self, m: int, cat: Optional[Mapping[str, LinearOperator]] = None):
        self.m = m
        self.cat = MappingProxyType(dict(cat if cat is not None else catalog(m)))
        self._memo: Dict[tuple, object] = {}

    def _memoized(self, key: tuple, build: Callable[[], object]):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def _run_units(self, units: Sequence[Unit]) -> List[CheckResult]:
        """The rows of units, in order."""
        return [row for _, method, args in units for row in getattr(self, method)(*args)]

    # -- eigenblocks and kernels

    def eigenblock(self, k: int, t: int) -> Block:
        return self._memoized(("eigenblock", k, t), lambda: _eigenblock(self.m, k, t))

    def dirac_matrix(self, k: int, t: int) -> RationalMatrix:
        return operator_matrix(self.cat["D_s"], self.eigenblock(k, t), self.eigenblock(k - 1, t))

    def lowering_matrix(self, k: int, t: int) -> RationalMatrix:
        return operator_matrix(self.cat["L"], self.eigenblock(k, t), self.eigenblock(k, t - 2))

    def kernel_Ds(self, k: int, t: int) -> Subspace:
        return self._memoized(("kernel_Ds", k, t), lambda: self.dirac_matrix(k, t).nullspace())

    def kernel_L(self, k: int, t: int) -> Subspace:
        return self._memoized(("kernel_L", k, t), lambda: self.lowering_matrix(k, t).nullspace())

    def lowest_weight_space(self, k: int, t: int) -> Subspace:
        return self._memoized(("lowest_weight_space", k, t), lambda: self.dirac_matrix(k, t).nullspace(
            self.lowering_matrix(k, t)))

    # -- operators on integer rows: spans and membership do not change when
    # a vector is scaled, so an image keeps its matrix's denominator

    def _images(self, name: str, rows: Sequence[IntRow], dom: Block, cod: Block) -> List[IntRow]:
        """D times the images of rows under the operator name, D the
        denominator of its block matrix from dom to cod."""
        mat = operator_matrix(self.cat[name], dom, cod)
        return [mat.mul_int_vec(row) for row in rows]

    def _raised(self, name: str, rows: Sequence[IntRow], k: int, low: int, t: int) -> List[IntRow]:
        """rows of eigenblock (k, low) under the operator name applied
        (t - low) / 2 times, each time from (k, l) to (k, l + 2)."""
        for level in range(low, t, 2):
            rows = self._images(name, rows, self.eigenblock(k, level), self.eigenblock(k, level + 2))
        return rows

    def _y_block(self, a: int) -> Block:
        """Eigenblock (1, a-1)'s tri-degree (0, 1, a-2), empty for a < 2."""
        return self._memoized(("y_block", a),
                              lambda: Block(self.m, [TriDegree(0, 1, a - 2)] if a >= 2 else []))

    # -- the five families over H_{a-1}..H_{a+1} in the k=1 block at t = a-1

    def families(self, a: int) -> Dict[str, object]:
        return self._memoized(("families", a), lambda: self._build_families(a))

    def _build_families(self, a: int) -> Dict[str, object]:
        m = self.m
        eb = self.eigenblock(1, a - 1)
        yb = self._y_block(a)
        fam: Dict[str, object] = {"eb": eb}

        def harmonics(e: int) -> Tuple[List[IntRow], Block]:
            return harmonic_space(m, e).int_rows, self.eigenblock(0, e)

        def nonzero(rows: List[IntRow]) -> List[IntRow]:
            return [row for row in rows if row]

        if a >= 1:
            blk, sp = simplicial_harmonics(m, a, 1, "z", "x")
            fam["hook_x"] = reindex(sp.int_rows, blk.basis, eb)
        else:
            fam["hook_x"] = []

        fam["s_x"] = nonzero(self._images("S_xz", *harmonics(a + 1), eb))

        if a >= 3:
            # sp's block has yb's one tri-degree, so sp's rows are yb's coordinates
            blk, sp = simplicial_harmonics(m, a - 2, 1, "z", "y")
            fam["hook_y_raw"] = reindex(sp.int_rows, blk.basis, eb)
            fam["hook_y"] = nonzero(self._images("Pi_L", sp.int_rows, yb, eb))
            raw_c = nonzero(self._images("C_yz", *harmonics(a - 3), yb))
            fam["c_y_raw"] = reindex(raw_c, yb.basis, eb)
            fam["c_y"] = nonzero(self._images("Pi_L", raw_c, yb, eb))
        else:
            fam["hook_y_raw"] = fam["hook_y"] = fam["c_y_raw"] = fam["c_y"] = []

        # the split over H_{a-1}: per harmonic H the two vectors
        # C_xz H and Pi_L S_yz H carry one kernel direction and one
        # D_s_dag-image direction between them. Their ratio is reported,
        # so each is brought to one scale: times the other's denominators.
        kernel_combos: List[IntRow] = []
        image_vecs: List[IntRow] = []
        ratios = set()
        if a >= 1:
            hs, k0 = harmonics(a - 1)
            cx = operator_matrix(self.cat["C_xz"], k0, eb)
            sy = operator_matrix(self.cat["S_yz"], k0, yb)
            pi = operator_matrix(self.cat["Pi_L"], yb, eb)
            ds = self.dirac_matrix(1, a - 1)
            d1 = cx.integer_form()[0]
            d2 = sy.integer_form()[0] * pi.integer_form()[0]
            for h in hs:
                v2 = pi.mul_int_vec(sy.mul_int_vec(h), d1)
                if v2:
                    v1 = cx.mul_int_vec(h, d2)
                    cols = [ds.mul_int_vec(v1), ds.mul_int_vec(v2)]
                    null = RationalMatrix(k0.dim, 2, 1, cols).nullspace()
                    if null.dim == 1:
                        combo = null.rows[0]
                        ratios.add((qq_str(combo.get(0, QQ(0))), qq_str(combo.get(1, QQ(0)))))
                        n0, n1 = null.int_rows[0].get(0, 0), null.int_rows[0].get(1, 0)
                        merged = {c: n0 * v for c, v in v1.items()} if n0 else {}
                        add_scaled(merged, v2, n1)
                        kernel_combos.append(merged)
                    else:
                        ratios.add(("degenerate", str(null.dim)))
            image_vecs = self._images("D_s_dag", hs, k0, eb)
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
        for d in range(top + 1):
            eb = self.eigenblock(0, d)
            # |z|^{2p} H_{d-2p}, one factor sl_h_X = |z|^2 / 2 at a time
            parts = []
            for p in range(d // 2 + 1):
                vecs = self._raised("sl_h_X", harmonic_space(m, d - 2 * p).int_rows, 0, d - 2 * p, d)
                parts.append(Subspace.from_vectors(eb.dim, vecs))
            ok = is_direct_sum(parts, Subspace.full(eb.dim))
            rows.append(_row("fischer_z_decomposition", {"d": d, "dim": eb.dim,
                                                         "parts": [s.dim for s in parts]}, True, ok))
        return rows

    # ------------------------------------------------------------------
    # suite: table_ker (kernel of L on k=1 blocks)

    def table_ker(self, a_max: int) -> List[CheckResult]:
        return self._run_units(SUITES["table_ker"].units(a_max))

    def table_ker_at(self, a: int) -> List[CheckResult]:
        m = self.m
        rows: List[CheckResult] = []
        t = a - 1
        eb = self.eigenblock(1, t)
        ker = self.kernel_L(1, t)
        expected_dim = m * (harmonic_dim(m, a) + harmonic_dim(m, a - 2))
        rows.append(_row("kernel_L_dim", {"a": a, "block_dim": eb.dim},
                         expected_dim, ker.dim))

        # x_j H_a, and Pi_L y_j H_{a-2}, j = 1..m
        hx, zb = harmonic_space(m, a).int_rows, self.eigenblock(0, a)
        xs = [row for j in range(m) for row in reindex(hx, _times_var(zb, j), eb)]
        bad = sum(1 for v in xs if not ker.contains(v))
        rows.append(_row("x_harmonics_in_kernel", {"a": a, "vectors": len(xs)}, 0, bad))

        ys: List[IntRow] = []
        if a >= 2:
            yb = self._y_block(a)
            hy, zb = harmonic_space(m, a - 2).int_rows, self.eigenblock(0, a - 2)
            yh = [row for j in range(m) for row in reindex(hy, _times_var(zb, m + j), yb)]
            ys = self._images("Pi_L", yh, yb, eb)
            bad = sum(1 for v in ys if not ker.contains(v))
            rows.append(_row("projected_y_harmonics_in_kernel", {"a": a, "vectors": len(ys)}, 0, bad))

        parts = [Subspace.from_vectors(eb.dim, vecs) for vecs in (xs, ys) if vecs]
        ok = is_direct_sum(parts, ker)
        rows.append(_row("table_direct_sum", {"a": a, "x_rows": len(xs), "y_rows": len(ys),
                                              "degenerate": a < 2}, True, ok))
        return rows

    # ------------------------------------------------------------------
    # suite: l_fischer (R-tower decomposition of every eigenblock, k <= 1)

    def _r_tower_parts(self, k: int, t: int) -> List[Subspace]:
        eb = self.eigenblock(k, t)
        parts = []
        level = t
        while self.eigenblock(k, level).dim:
            vecs = self._raised("R", self.kernel_L(k, level).int_rows, k, level, t)
            if vecs:
                parts.append(Subspace.from_vectors(eb.dim, vecs))
            level -= 2
        return parts

    def l_fischer(self, a_max: int) -> List[CheckResult]:
        return self._run_units(SUITES["l_fischer"].units(a_max))

    def l_fischer_at(self, k: int, t: int) -> List[CheckResult]:
        eb = self.eigenblock(k, t)
        parts = self._r_tower_parts(k, t)
        ok = is_direct_sum(parts, Subspace.full(eb.dim))
        rows = [_row("fischer_tower", {"k": k, "t": t, "dim": eb.dim,
                                       "parts": [s.dim for s in parts]}, True, ok)]
        if k == 1:
            ker = self.kernel_L(1, t).dim
            lws = self.lowest_weight_space(1, t).dim
            extra = harmonic_dim(self.m, t)
            rows.append(_row("lowest_weight_threads", {"k": 1, "t": t,
                                                       "lws": lws, "harmonic_thread": extra},
                             ker, lws + extra))
        return rows

    # ------------------------------------------------------------------
    # suite: symplectic_fischer_k1

    def symplectic_fischer_k1(self, a_max: int) -> List[CheckResult]:
        return self._run_units(SUITES["symplectic_fischer_k1"].units(a_max))

    def _ds_bracket(self) -> LinearOperator:
        """[D_s, D_s_dag] + E + m, which vanishes on every polynomial;
        built once, so that it is compiled once."""
        cat = self.cat
        return self._memoized(("ds_bracket",), lambda: op_add(
            commutator(cat["D_s"], cat["D_s_dag"]),
            op_add(cat["E"], op_scale(identity_op(), self.m))))

    def symplectic_fischer_k1_at(self, a: int) -> List[CheckResult]:
        rows: List[CheckResult] = []
        t = a - 1
        eb = self.eigenblock(1, t)
        ker = self.kernel_Ds(1, t)
        k0 = self.eigenblock(0, t)
        parts = [ker]
        if k0.dim:
            # rank and span do not change under scaling, so the
            # integer columns serve
            up = operator_matrix(self.cat["D_s_dag"], k0, eb).integer_form()[1]
            rank = rank_certified(up, eb.dim)
            rows.append(_row("dirac_up_injective", {"a": a, "k0_dim": k0.dim}, k0.dim, rank))
            parts.append(Subspace.from_vectors(eb.dim, up))
        ok = is_direct_sum(parts, Subspace.full(eb.dim))
        rows.append(_row("symplectic_fischer_sum", {"a": a, "dim": eb.dim,
                                                    "kernel": ker.dim,
                                                    "image": k0.dim}, True, ok))
        bad, first = _nonzero_images(self._ds_bracket(), eb.basis)
        wit = None if first is None else render_poly(monomial_poly(first))
        rows.append(_row("bracket_on_block", {"a": a, "dim": eb.dim}, 0, bad, wit))
        return rows

    # ------------------------------------------------------------------
    # suite: kernel_families

    def kernel_families(self, a_max: int) -> List[CheckResult]:
        return self._run_units(SUITES["kernel_families"].units(a_max))

    def kernel_families_at(self, a: int) -> List[CheckResult]:
        m = self.m
        rows: List[CheckResult] = []
        t = a - 1
        fam = self.families(a)
        eb: Block = fam["eb"]
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

        parts = [Subspace.from_vectors(eb.dim, fam[key]) for key in
                 ("hook_x", "s_x", "hook_y", "c_y", "split_kernel") if fam[key]]
        ok = is_direct_sum(parts, lws)
        rows.append(_row("families_span_lowest_weight_space",
                         {"a": a, "lws": lws.dim, "parts": [s.dim for s in parts]}, True, ok))
        image_span = Subspace.from_vectors(eb.dim, fam["split_image"])
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
            den = alpha.denominator
            null = RationalMatrix(1, 2, den, [{0: alpha.numerator}, {0: (a - 1) * den}]).nullspace()
            expect_ratio = (qq_str(null.rows[0].get(0, QQ(0))), qq_str(null.rows[0].get(1, QQ(0))))
            rows.append(_row("split_ratio_matches_measured_constants", {"a": a},
                             [expect_ratio], list(fam["split_ratios"])))

        if a >= 1:
            # D_s D_s_dag H = -m H, tested as (D M_down)(D' M_up) r = -m D D' r
            k0 = self.eigenblock(0, t)
            up = operator_matrix(self.cat["D_s_dag"], k0, eb)
            down = self.dirac_matrix(1, t)
            den = up.integer_form()[0] * down.integer_form()[0]
            bad = 0
            wit = None
            for h in harmonic_space(m, a - 1).int_rows:
                res = down.mul_int_vec(up.mul_int_vec(h))
                add_scaled(res, h, m * den)
                if res:
                    bad += 1
                    if wit is None:
                        wit = render_poly(vec_to_poly({c: QQ(v, den) for c, v in res.items()}, k0))
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
        return self._run_units(SUITES["branching_table"].units(t_max))

    def branching_table_at(self, t: int) -> List[CheckResult]:
        m, cat = self.m, self.cat
        rows: List[CheckResult] = []
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
        contained = True
        for line, aa, w in comps:
            key = by_offset[line.verma_offset]
            span = Subspace.from_vectors(eb.dim, fam[key])
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
                        wit = _short_poly(vec_to_poly(span.rows[i], eb))
            contained = contained and not bad
            rows.append(_row("component_in_lws", {"t": t, "weight": str(w)}, 0, bad, wit))
            expected = casimir_scalar(m, w)
            offending = None
            if not self._casimir_by_intertwiners(t, key, expected):
                offending = casimir_eigencheck(cat, eb, span, w)
            rows.append(_row("component_casimir", {"t": t, "weight": str(w),
                                                   "eigenvalue": qq_str(expected)},
                             True, offending is None,
                             None if offending is None else render_poly(offending)))
        # every span row was just tested against lws, so only the
        # dimension and rank halves of is_direct_sum remain
        ok = contained and is_independent_sum(spans, lws)
        rows.append(_row("components_direct_sum", {"t": t, "lws": lws.dim,
                                                   "parts": [s.dim for s in spans]}, True, ok))
        return rows

    def _casimir_by_intertwiners(self, t: int, key: str, expected: QQ) -> bool:
        """True when the Casimir is certified to act as expected on family
        key of level t without the eigenblock Casimir matrix (repn module
        docstring): the catalog passes casimir_identities, the Howe scalar
        of the family's source space is expected, and each operator that
        carries the source into the family intertwines the rotations on
        its domain block. A hook is its own source; the split's rows are
        combinations of C_xz H and Pi_L S_yz H for one harmonic H, two
        eigenvectors of one scalar, whatever the ratio between them."""
        m = self.m
        if not self._memoized(("casimir_identities",), lambda: casimir_identities(self.cat, m)):
            return False
        eb, yb = self.eigenblock(1, t), self._y_block(t + 1)

        def k0(d: int) -> Block:
            return self.eigenblock(0, d)

        (k, l), ops = {
            "hook_x": ((t + 1, 1), ()),
            "s_x": ((t + 2, 0), (("S_xz", k0(t + 2), eb),)),
            "split_kernel": ((t, 0), (("C_xz", k0(t), eb), ("S_yz", k0(t), yb), ("Pi_L", yb, eb))),
            "hook_y": ((t - 1, 1), (("Pi_L", yb, eb),)),
            "c_y": ((t - 2, 0), (("C_yz", k0(t - 2), yb), ("Pi_L", yb, eb))),
        }[key]
        return howe_scalar(m, k, l) == expected and all(
            self._memoized(("intertwines", name, dom.tri_degrees, cod.tri_degrees),
                           lambda: intertwines_rotations(self.cat, self.cat[name], dom, cod))
            for name, dom, cod in ops)

    # ------------------------------------------------------------------
    # suite: multiplicity

    def multiplicity(self, t_max: int) -> List[CheckResult]:
        return self._run_units(SUITES["multiplicity"].units(t_max))

    def multiplicity_at(self, t: int) -> List[CheckResult]:
        m = self.m
        ker = self.kernel_L(1, t)
        lws = self.lowest_weight_space(1, t)
        expect_ker = m * (harmonic_dim(m, t - 1) + harmonic_dim(m, t + 1))
        return [_row("kernel_L_multiplicity", {"t": t, "degenerate": t <= 0},
                     expect_ker, ker.dim),
                _row("lws_is_kernel_minus_harmonics", {"t": t},
                     expect_ker - harmonic_dim(m, t), lws.dim)]

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

    def s0_branching(self, d_max: int) -> List[CheckResult]:
        m = self.m
        rows: List[CheckResult] = []
        for d in range(d_max + 1):
            eb = self.eigenblock(0, d)
            rows.append(_row("dirac_vanishes_on_k0", {"d": d},
                             eb.dim, self.kernel_Ds(0, d).dim))
            harm = harmonic_space(m, d)
            same = self.lowest_weight_space(0, d) == harm
            rows.append(_row("k0_lws_is_harmonics", {"d": d, "dim": harm.dim}, True, same))
        return rows


def _degree_units(method: str) -> Callable[[int], List[Unit]]:
    """Units method(a), a = 0..a_max, at level a - 1: the k=1 eigenblock
    at t = a - 1 holds degree a's families."""
    return lambda a_max: [(a - 1, method, (a,)) for a in range(a_max + 1)]


def _level_units(method: str) -> Callable[[int], List[Unit]]:
    """Units method(t) at level t = -1..t_max."""
    return lambda t_max: [(t, method, (t,)) for t in range(-1, t_max + 1)]


def _whole(method: str) -> Callable[..., List[Unit]]:
    """A level-free suite: one unit, the suite method itself."""
    return lambda *args: [(None, method, args)]


class Suite(NamedTuple):
    """args gives the suite method's arguments from a report's (a_max,
    t_max); units gives, from those arguments, the suite's units in row
    order. The suite method returns the concatenation of its units'
    rows."""

    args: Callable[[int, int], Tuple[int, ...]]
    units: Callable[..., List[Unit]]

    def units_for(self, a_max: int, t_max: int) -> List[Unit]:
        return self.units(*self.args(a_max, t_max))


# The suites in canonical report order.
SUITES: Dict[str, Suite] = {
    "algebra_relations": Suite(lambda a_max, t_max: (), _whole("algebra_relations")),
    "classical_fischer": Suite(lambda a_max, t_max: (a_max,), _whole("classical_fischer")),
    "table_ker": Suite(lambda a_max, t_max: (a_max,), _degree_units("table_ker_at")),
    # every k=0 row first, then every k=1 row; eigenblock (k, t) is at level t
    "l_fischer": Suite(lambda a_max, t_max: (a_max,), lambda a_max: [
        (t, "l_fischer_at", (k, t)) for k in (0, 1) for t in range(-k, a_max + 1 - k)]),
    "symplectic_fischer_k1": Suite(lambda a_max, t_max: (a_max,),
                                   _degree_units("symplectic_fischer_k1_at")),
    "kernel_families": Suite(lambda a_max, t_max: (a_max,), _degree_units("kernel_families_at")),
    "branching_table": Suite(lambda a_max, t_max: (t_max,), _level_units("branching_table_at")),
    "multiplicity": Suite(lambda a_max, t_max: (t_max,), _level_units("multiplicity_at")),
    "dim_identity": Suite(lambda a_max, t_max: (a_max,), _whole("dim_identity")),
    "s0_branching": Suite(lambda a_max, t_max: (a_max + 2,), _whole("s0_branching")),
}
