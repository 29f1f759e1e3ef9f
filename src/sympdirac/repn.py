"""Weights, dimensions and module bookkeeping for so(m) inside sp(2m).

Highest weights here always have at most two rows (lambda1, lambda2);
that is all the branching of the degree-one symplectic monogenics ever
produces. Every dimension comes from one of two closed forms: the
binomial formula for spherical harmonics and the elimination-of-harmonics
formula for hook weights (lambda2 = 1). No report meets another weight, so
dim_weight refuses one.

The spherical harmonics H_a are the simplicial harmonics H_{a,0}(z; x):
harmonic_space is simplicial_harmonics' kernel at l = 0, in the
coordinates of the z-only block of degree a.

Verma modules enter only through their lowest weight (VermaLabel).

A component of the branching table is certified to be a Casimir
eigenspace without the Casimir matrix of its eigenblock when these exact
statements hold (casimir_identities, intertwines_rotations):

- once per m, on normal forms: the catalog's Casimir is
  -sum_{a<b} L_ab^2, where L_ab is the catalog's L_1_2 with its sites 1, 2
  moved to a, b; and, up to words that differentiate by y, it is the
  Howe-duality expression (R. Howe, Trans. AMS 313, 1989)
      E_x(E_x+m-2) - 2E_x + E_z(E_z+m-2)
      - |z|^2 Delta_z - |x|^2 Delta_x - 2<x,z><d_x,d_z> + 2<x,d_z><z,d_x>,
  and the same with x and y exchanged. Each quadratic term ends in one of
  the pairings whose common kernel is H_{k,l}(z; x) (_pairings, which
  simplicial_harmonics takes its constraints from), so on that space the
  Casimir is the scalar howe_scalar(m, k, l); on z-only harmonics H_d, the
  case l = 0, it is d(d+m-2). A hook component is such a space, so it
  needs nothing more;
- per operator T of an image component (S_xz H, Pi_L C_yz H, the split
  of C_xz H and Pi_L S_yz H, and Pi_L of the raw y-hook): T commutes with
  every site permutation (operators.site_symmetric) and T L_12 = L_12 T
  on T's domain block, tested column by column on block matrices. Then T
  commutes with every L_ab there, hence with the Casimir, and maps the
  source eigenspace into the eigenspace of the same scalar.

When any of these fails, or the source scalar is not the component's
expected one, the component is certified by casimir_eigencheck on the
eigenblock Casimir matrix, with that route's verdict and witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Dict, List, Optional, Tuple

from .rationals import QQ
from .polys import Block, Poly, TriDegree, add_scaled, x_, y_, z_
from .linalg import RationalMatrix, Subspace, matrix_of, operator_matrix, vec_to_poly
from .operators import (
    LinearOperator,
    NormalForm,
    inner_der_der,
    inner_mul_der,
    inner_mul_mul,
    nf_product,
    nf_sum,
    normal_form,
    site_map,
    site_symmetric,
)


class NonDominantWeight(Exception):
    """Weight outside the dominant cone lambda1 >= lambda2 >= 0."""


@dataclass(frozen=True)
class HighestWeightSO:
    """A dominant so(m) highest weight with at most two nonzero rows."""

    l1: int
    l2: int = 0

    def __post_init__(self):
        if not (self.l1 >= self.l2 >= 0):
            raise NonDominantWeight(f"({self.l1}, {self.l2}) is not dominant")

    def __str__(self) -> str:
        return f"({self.l1},{self.l2})" if self.l2 else f"({self.l1})"


@dataclass(frozen=True)
class VermaLabel:
    """Lowest weight of an sl(2) Verma module for the (R, L) pair."""

    lowest_weight: QQ

    def offset(self, m: int) -> int:
        t = QQ(self.lowest_weight) - QQ(m, 2)
        if t.denominator != 1:
            raise ValueError(f"label {self.lowest_weight} is not m/2 + integer at m={m}")
        return int(t)

    def describe(self, m: int) -> str:
        t = self.offset(m)
        if t == 0:
            return "m/2"
        return f"m/2+{t}" if t > 0 else f"m/2-{-t}"


@dataclass(frozen=True)
class BranchingLine:
    """One line of the degree-one branching table, parametrized by a.

    The so(m) weight is (a, second); the Verma lowest weight is
    m/2 + a + verma_offset; the line is admitted for a >= min_a.
    """

    second: int
    verma_offset: int
    min_a: int

    def weight_at(self, a: int) -> HighestWeightSO:
        return HighestWeightSO(a, self.second)

    def verma_at(self, m: int, a: int) -> VermaLabel:
        return VermaLabel(QQ(m, 2) + a + self.verma_offset)


# the five lines of the branching table for the degree-one monogenics,
# in display order
BRANCHING_TABLE: Tuple[BranchingLine, ...] = (
    BranchingLine(second=0, verma_offset=-2, min_a=1),
    BranchingLine(second=1, verma_offset=-1, min_a=1),
    BranchingLine(second=0, verma_offset=0, min_a=1),
    BranchingLine(second=1, verma_offset=1, min_a=1),
    BranchingLine(second=0, verma_offset=2, min_a=0),
)


def components_at_level(t: int) -> List[Tuple[BranchingLine, int, HighestWeightSO]]:
    """Admitted (line, a, weight) triples whose Verma label is m/2 + t."""
    out = []
    for line in BRANCHING_TABLE:
        a = t - line.verma_offset
        if a >= line.min_a:
            out.append((line, a, line.weight_at(a)))
    return out


# ---------------------------------------------------------------------------
# dimensions

def harmonic_dim(m: int, a: int) -> int:
    """dim H_a(R^m), zero for a < 0."""
    if a < 0:
        return 0
    return comb(a + m - 1, m - 1) - comb(a + m - 3, m - 1)


def dim_weight(m: int, w: HighestWeightSO) -> int:
    """Dimension of the so(m) module of highest weight w, for a one-row or
    hook weight; ValueError for lambda2 >= 2."""
    if w.l2 == 0:
        return harmonic_dim(m, w.l1)
    if w.l2 == 1:
        return m * harmonic_dim(m, w.l1) - harmonic_dim(m, w.l1 + 1) - harmonic_dim(m, w.l1 - 1)
    raise ValueError(f"no closed form for the weight {w}")


def casimir_scalar(m: int, w: HighestWeightSO) -> QQ:
    """Eigenvalue of the so(m) Casimir on the module of highest weight w."""
    return QQ(w.l1 * (w.l1 + m - 2) + w.l2 * (w.l2 + m - 4))


# ---------------------------------------------------------------------------
# simplicial harmonics in two vector variables, realized in P(R^{m x 3})

_SLOT = {"x": 0, "y": 1, "z": 2}
_MAKER = {"x": x_, "y": y_, "z": z_}


def _pairings(m: int, first: str, second: str) -> Dict[str, LinearOperator]:
    """The O(m)-invariant pairings whose common kernel in degree k in the
    first variable f and l in the second s is H_{k,l}(f; s): the Laplacians
    <d_f, d_f> and <d_s, d_s>, the mixed Laplacian <d_f, d_s> and the skew
    Euler operator <f, d_s>. simplicial_harmonics takes its constraints
    from here and casimir_identities its Howe identities, so a hook's
    annihilator is made of the operators the identities name."""
    f, s = _MAKER[first], _MAKER[second]
    return {"lap_first": LinearOperator("lap_first", inner_der_der(f, f, m)),
            "lap_second": LinearOperator("lap_second", inner_der_der(s, s, m)),
            "lap_mixed": LinearOperator("lap_mixed", inner_der_der(f, s, m)),
            "skew_euler": LinearOperator("skew_euler", inner_mul_der(f, s, m))}


@lru_cache(maxsize=None)
def simplicial_harmonics(m: int, k: int, l: int, first: str = "z", second: str = "x") -> Tuple[Block, Subspace]:
    """H_{k,l}(first; second): degree k in the first variable, l in the
    second, killed by the four pairings of _pairings that do not vanish on
    the block. Returns the graded block and the kernel inside it.
    """
    if first not in _SLOT or second not in _SLOT or first == second:
        raise ValueError(f"bad variable pair ({first!r}, {second!r})")
    if not k >= l >= 0:
        raise NonDominantWeight(f"({k}, {l}) is not dominant")
    deg = [0, 0, 0]
    deg[_SLOT[first]] = k
    deg[_SLOT[second]] = l
    domain = Block(m, [TriDegree(*deg)])
    pairings = _pairings(m, first, second)

    constraints = []
    for name, needed, df, ds in (("lap_first", k >= 2, -2, 0), ("lap_second", l >= 2, 0, -2),
                                 ("lap_mixed", k >= 1 and l >= 1, -1, -1), ("skew_euler", l >= 1, 1, -1)):
        if needed:
            shift = list(deg)
            shift[_SLOT[first]] += df
            shift[_SLOT[second]] += ds
            constraints.append((pairings[name], shift))

    if not constraints:
        return domain, Subspace.full(domain.dim)
    mats = [matrix_of(op, domain, Block(m, [TriDegree(*sh)])) for op, sh in constraints]
    return domain, mats[0].nullspace(*mats[1:])


def harmonic_space(m: int, a: int) -> Subspace:
    """The spherical harmonics H_a in m variables, a >= 0: H_{a,0}(z; x)
    of simplicial_harmonics, in the coordinates of the z-only Block of
    tri-degree (0, 0, a)."""
    return simplicial_harmonics(m, a, 0)[1]


# ---------------------------------------------------------------------------
# Casimir certification

def casimir_matrix(cat: Dict[str, LinearOperator], block: Block) -> RationalMatrix:
    """The matrix of cat's Casimir on block, kept on that operator."""
    return operator_matrix(cat["Casimir"], block, block)


def casimir_eigencheck(cat: Dict[str, LinearOperator], block: Block, sub: Subspace, w: HighestWeightSO) -> Optional[Poly]:
    """The first vector of sub on which cat's Casimir does not act as the
    scalar of weight w, as a polynomial; None when there is none.

    The matrix is the one kept on that Casimir operator, whose terms are
    fixed, so a catalog with another Casimir is certified on its own
    matrix. With D clearing the matrix's denominators (its integer form)
    and the scalar p/q, M r = (p/q) r is tested as q (D M) r == p D r on
    each integer row r of sub."""
    expected = casimir_scalar(block.m, w)
    p, q = expected.numerator, expected.denominator
    mat = casimir_matrix(cat, block)
    den = mat.integer_form()[0]
    for i, r in enumerate(sub.int_rows):
        residual = mat.mul_int_vec(r, q)
        add_scaled(residual, r, -p * den)
        if residual:
            return vec_to_poly(sub.rows[i], block)
    return None


def _nf(terms: List, m: int) -> NormalForm:
    """The normal form at m of the sum of terms."""
    return normal_form(LinearOperator("howe_term", terms), m)


def casimir_identities(cat: Dict[str, LinearOperator], m: int) -> bool:
    """True iff cat's Casimir satisfies, in normal form, the identities of
    the module docstring: it is -sum_{a<b} L_ab^2, L_ab the catalog's L_1_2
    with sites 1, 2 moved to a, b (operators.site_map), and for u = x, y it
    is the Howe expression in u and z once the words that differentiate by
    the third variable are dropped. The annihilating pairings are
    _pairings(m, "z", u). An operator with Euler denominators has no
    normal form, so such a Casimir or L_1_2 fails too."""
    try:
        cas = normal_form(cat["Casimir"], m)
        rot = normal_form(cat["L_1_2"], m)
    except ValueError:
        return False
    squares = []
    for a in range(m):
        for b in range(a + 1, m):
            to = site_map([a, b] + [j for j in range(m) if j not in (a, b)], m)
            moved = (rot[0], {(tuple(sorted(to[i] for i in ders)), tuple(sorted(to[i] for i in muls))): v
                              for (ders, muls), v in rot[1].items()})
            squares.append((1, nf_product(moved, moved)))
    if nf_sum((1, cas), *squares)[1]:
        return False
    e_z = _nf(inner_mul_der(z_, z_, m), m)
    for u, third in (("x", "y"), ("y", "x")):
        p = {name: normal_form(op, m) for name, op in _pairings(m, "z", u).items()}
        uu = _MAKER[u]
        e_u = _nf(inner_mul_der(uu, uu, m), m)
        howe = nf_sum((1, nf_product(e_u, e_u)), (m - 4, e_u), (1, nf_product(e_z, e_z)), (m - 2, e_z),
                      (-1, nf_product(_nf(inner_mul_mul(z_, z_, m), m), p["lap_first"])),
                      (-1, nf_product(_nf(inner_mul_mul(uu, uu, m), m), p["lap_second"])),
                      (-2, nf_product(_nf(inner_mul_mul(uu, z_, m), m), p["lap_mixed"])),
                      (2, nf_product(_nf(inner_mul_der(uu, z_, m), m), p["skew_euler"])))
        lo = _SLOT[third] * m
        rest = nf_sum((1, cas), (-1, howe))[1]
        if any(not any(lo <= i < lo + m for i in ders) for ders, _ in rest):
            return False
    return True


def howe_scalar(m: int, k: int, l: int) -> int:
    """The Howe expression of casimir_identities on H_{k,l}(z; u), where
    E_z = k, E_u = l and every pairing term vanishes:
    l(l+m-2) - 2l + k(k+m-2). At l = 0 it is d(d+m-2) on H_k."""
    return l * (l + m - 2) - 2 * l + k * (k + m - 2)


def intertwines_rotations(cat: Dict[str, LinearOperator], op: LinearOperator, dom: Block, cod: Block) -> bool:
    """True when op commutes with every L_ab on the block dom: op commutes
    with the site permutations (operators.site_symmetric), and
    L_12 (op e_j) == op (L_12 e_j) for every basis vector e_j of dom, with
    L_12 the catalog's and both sides read on block matrices kept on the
    operators. Both sides carry the same denominators, so they are
    compared as integer vectors."""
    if not site_symmetric(op, dom.m):
        return False
    mat = operator_matrix(op, dom, cod)
    rot_cod = operator_matrix(cat["L_1_2"], cod, cod)
    rot_dom = operator_matrix(cat["L_1_2"], dom, dom).integer_form()[1]
    return all(rot_cod.mul_int_vec(col) == mat.mul_int_vec(r)
               for col, r in zip(mat.integer_form()[1], rot_dom))
