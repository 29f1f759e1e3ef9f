"""Operators on P(R^{m x 3}) as finite sums of elementary terms.

An elementary term is an ordered word of single-variable actions (multiply
by a variable, or differentiate by one), applied left to right, times a
scalar that may depend rationally on the Euler degrees (Ex, Ey, Ez) of the
block the term is applied to. Scalars are always evaluated on the input
tri-degree of the term; operators whose written form divides by an Euler
expression *after* an inner action (the B^{-1} A fraction notation for
transvector generators) are stored with the scalar pre-shifted to input
form, so application stays single-pass.

Composition is lazy: term lists are concatenated and scalars get degree
shifts. Identities between operators without Euler denominators are
certified symbolically by the Weyl-algebra normal form at the end of this
module, and spot-checked extensionally on low-degree blocks. The normal
form of an operator is built once per m, on integers over one
denominator, and kept on the operator like its compiled form; products
and brackets of normal forms come from one Leibniz step, so a symbolic
certificate composes no operator.

An operator's terms are fixed when it is built (`terms` has no setter;
a changed operator is a new object), so what is derived from them lives
on the operator and never goes stale: its compiled form and normal form
per m, and its block matrices (linalg.operator_matrix).

Application runs a compiled form of the operator, built on first use for
each m. A word becomes its derivative offsets and its net exponent
change: on a monomial it gives the product of mono[i] + k over the
offsets (i, k), times the monomial shifted by the change. Terms whose
words act identically on every monomial (equal offsets and change) are
merged, and only those, so this is no normal ordering; constant scalars
are folded into one rational.

Each input tri-degree gets an integer plan, built once: a denominator D
and the words whose scalar is nonzero there, each with its scalar times
D. Euler scalars are evaluated only there, and only for the words that
can hit a monomial of that degree (in each of the x, y, z blocks, the
least exponents the word needs sum to at most the block's degree). A
word annihilates every monomial that lacks the variable i of one of its
offsets (i, k) with k <= 0 (see Word), so the plan groups its words by
dispatch key, the variable each needs most; words that need none form an
always group. A monomial runs the groups of the variables it contains
and the always group, and every word it skips would have given 0, so
skipping is exact. A word whose Euler denominator vanishes is left out
of the plan and listed as singular; SingularEulerDenominator is raised
for every monomial such a word hits, so Pi_L is defined where L already
kills.

The one application path, integer_images, runs an operator over a
sequence of monomials on integers. It checks every monomial (its length,
its singular hits) but fetches the plan again only when the tri-degree
changes, so a block's basis, one run per tri-degree in canonical order,
looks up each plan once. A rational is formed only where a result leaves
this layer: apply_op forms one per output entry, and matrix_of (linalg)
and the extensional sweeps (verify) take the integer images with their D.

site_symmetric reads the compiled form too: an operator commutes with
every permutation of the sites (x_a, y_a, z_a) when its words and their
scalars are unchanged under (1 2) and the m-cycle.

The compiled path and the normal form share no helper, and only the
extensional checks apply composed operators, so the extensional and
symbolic certificates share neither a helper nor `compose` and stay
independent checks of each other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from math import gcd, lcm
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .rationals import QQ
from .polys import (
    Monomial,
    Poly,
    TriDegree,
    VariableId,
    _BLOCK_SLOT,
    add_scaled,
    monomial_m,
    poly_add_term,
    x_,
    y_,
    z_,
)


class SingularEulerDenominator(Exception):
    """An Euler-scalar denominator vanished on the block it was applied to."""

    def __init__(self, label: str, d: TriDegree):
        super().__init__(f"operator {label!r} has a singular Euler denominator on tri-degree {d}")
        self.label = label
        self.tri_degree = d


# a linear form a*Ex + b*Ey + c*Ez + d
LinForm = Tuple[object, object, object, object]


def _eval_form(f: LinForm, d: TriDegree):
    a, b, c, const = f
    return a * d.kx + b * d.ky + c * d.kz + const


def _shift_form(f: LinForm, dx: int, dy: int, dz: int) -> LinForm:
    a, b, c, const = f
    return (a, b, c, const + a * dx + b * dy + c * dz)


@dataclass(frozen=True)
class EulerScalar:
    """coeff * prod(num forms) / prod(den forms), evaluated at a tri-degree.

    Every scalar arising here is a product of linear forms in the Euler
    degrees, so the factored shape is kept; it makes singularity detection
    a per-factor test and degree shifts a constant adjustment.
    """

    coeff: object = 1
    num: Tuple[LinForm, ...] = ()
    den: Tuple[LinForm, ...] = ()

    def evaluate(self, d: TriDegree, label: str = "?"):
        val = QQ(self.coeff)
        for f in self.num:
            val = val * _eval_form(f, d)
        for f in self.den:
            dv = _eval_form(f, d)
            if dv == 0:
                raise SingularEulerDenominator(label, d)
            val = val / dv
        return val

    def shifted(self, dx: int, dy: int, dz: int) -> "EulerScalar":
        """Scalar s' with s'(k) = s(kx+dx, ky+dy, kz+dz)."""
        if dx == 0 and dy == 0 and dz == 0:
            return self
        return EulerScalar(
            self.coeff,
            tuple(_shift_form(f, dx, dy, dz) for f in self.num),
            tuple(_shift_form(f, dx, dy, dz) for f in self.den),
        )

    def times(self, other: "EulerScalar") -> "EulerScalar":
        return EulerScalar(
            QQ(self.coeff) * QQ(other.coeff),
            self.num + other.num,
            self.den + other.den,
        )


CONST_ONE = EulerScalar()


class ActionKind(Enum):
    MultiplyVar = "mul"
    DeriveVar = "d"


@dataclass(frozen=True)
class ElementaryAction:
    kind: ActionKind
    var: VariableId


def mul_(v: VariableId) -> ElementaryAction:
    return ElementaryAction(ActionKind.MultiplyVar, v)


def der_(v: VariableId) -> ElementaryAction:
    return ElementaryAction(ActionKind.DeriveVar, v)


@dataclass(frozen=True)
class OperatorTerm:
    scalar: EulerScalar
    actions: Tuple[ElementaryAction, ...]

    def shift(self) -> Tuple[int, int, int]:
        s = [0, 0, 0]
        for act in self.actions:
            s[_BLOCK_SLOT[act.var.block]] += 1 if act.kind is ActionKind.MultiplyVar else -1
        return tuple(s)


# One compiled word, as it acts on a monomial: its derivative offsets, (i, k)
# pairs each contributing the factor mono[i] + k (k is what the earlier
# actions did to exponent i), and its net exponent change, (i, c) pairs
# with c != 0. The image of mono is the product of the factors times
# mono + change, and it is zero exactly when one factor is. Exponent i only
# falls by derivatives, one step each, so it passes a derivative at 0
# before any factor mono[i] + k can be negative: the word annihilates every
# monomial with mono[i] < 1 - k for one of its offsets. Its dispatch key is
# the i that needs the most, the largest 1 - k >= 1 (the least such i on
# ties), or None when no offset needs anything.
Word = Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]]
# A word in a plan: its offsets, its change and its scalar times D.
Entry = Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...], int]
# The integer plan of an operator at one input tri-degree: (D; the groups,
# one (i, entries) per variable i that keys some word with a nonzero
# scalar there, by increasing i; the always group, the entries keyed by
# None; the indices of the words that hit some monomial of that degree
# but whose Euler denominator vanishes there). A monomial runs the groups
# whose variable it contains and the always group: every word it skips
# annihilates it, so skipping is exact.
Plan = Tuple[int, Tuple[Tuple[int, Tuple[Entry, ...]], ...], Tuple[Entry, ...], Tuple[int, ...]]


class LinearOperator:
    """A finite sum of terms, fixed at construction (`terms` has no
    setter), with the data derived from them: its compiled form and its
    normal form per m, and its block matrices, keyed by (m, domain
    tri-degrees, codomain tri-degrees). Each is built on first use."""

    def __init__(self, label: str, terms: Iterable[OperatorTerm]):
        self.label = label
        self._terms: Tuple[OperatorTerm, ...] = tuple(terms)
        self.compiled: Dict[int, _Compiled] = {}
        self.normal_forms: Dict[int, NormalForm] = {}
        self.matrices: Dict[tuple, object] = {}

    @property
    def terms(self) -> Tuple[OperatorTerm, ...]:
        return self._terms

    def relabel(self, label: str) -> "LinearOperator":
        return LinearOperator(label, self.terms)

    def __repr__(self) -> str:
        return f"LinearOperator({self.label!r}, {len(self.terms)} terms)"


class _Compiled:
    """The compiled form of one operator at one m: its words, and per word
    its dispatch key, the least degree in each of the x, y, z blocks of a
    monomial it does not annihilate, its folded constant and its Euler
    scalars; plus the integer plan of each input tri-degree met so far."""

    __slots__ = ("words", "keys", "scalars", "plans")

    def __init__(self, terms: Tuple[OperatorTerm, ...], m: int):
        merged: Dict[Word, list] = {}
        for term in terms:
            net: Dict[int, int] = {}
            offsets = []
            for act in term.actions:
                i = act.var.flat(m)
                k = net.get(i, 0)
                if act.kind is ActionKind.DeriveVar:
                    offsets.append((i, k))
                    net[i] = k - 1
                else:
                    net[i] = k + 1
            word = (tuple(sorted(offsets)), tuple(sorted((i, c) for i, c in net.items() if c)))
            entry = merged.get(word)
            if entry is None:
                entry = merged[word] = [QQ(0), []]
            s = term.scalar
            if s.num or s.den:
                entry[1].append(s)
            else:
                entry[0] += QQ(s.coeff)
        kept = [(word, const, eulers) for word, (const, eulers) in merged.items() if const or eulers]
        self.words: Tuple[Word, ...] = tuple(word for word, _, _ in kept)
        self.keys: Tuple[Optional[int], ...] = tuple(_dispatch_key(word[0]) for word in self.words)
        self.scalars = tuple((_least_block_degrees(word[0], m), const, tuple(eulers))
                             for word, const, eulers in kept)
        self.plans: Dict[TriDegree, Plan] = {}

    def plan(self, d: TriDegree, label: str) -> Plan:
        """The plan at d, built on first use. A word is left out when it
        cannot hit a monomial of degree d, so its Euler scalars are not
        evaluated, or when its scalar vanishes at d; a word whose Euler
        denominator vanishes at d is left out and listed as singular."""
        plan = self.plans.get(d)
        if plan is not None:
            return plan
        values = []
        singular = []
        for j, (least, const, eulers) in enumerate(self.scalars):
            s = 0
            if least[0] <= d.kx and least[1] <= d.ky and least[2] <= d.kz:
                try:
                    s = sum((scalar.evaluate(d, label) for scalar in eulers), const)
                except SingularEulerDenominator:
                    singular.append(j)
                    s = 0
            values.append(s)
        den = lcm(1, *{s.denominator for s in values})
        groups: Dict[Optional[int], List[Entry]] = {}
        for (offsets, change), key, s in zip(self.words, self.keys, values):
            if s:
                groups.setdefault(key, []).append((offsets, change, s.numerator * (den // s.denominator)))
        always = tuple(groups.pop(None, ()))
        keyed = tuple((i, tuple(groups[i])) for i in sorted(groups))
        plan = self.plans[d] = (den, keyed, always, tuple(singular))
        return plan


def _dispatch_key(offsets: Tuple[Tuple[int, int], ...]) -> Optional[int]:
    """The variable a word with these derivative offsets needs most (see
    Word), or None when it needs none."""
    needs = [(k, i) for i, k in offsets if k <= 0]
    return min(needs)[1] if needs else None


def _least_block_degrees(offsets: Tuple[Tuple[int, int], ...], m: int) -> Tuple[int, int, int]:
    """The least x, y and z degree of a monomial that a word with these
    derivative offsets does not annihilate: exponent i must be at least
    1 - k for every offset (i, k)."""
    least: Dict[int, int] = {}
    for i, k in offsets:
        least[i] = max(least.get(i, 0), 1 - k)
    out = [0, 0, 0]
    for i, e in least.items():
        out[i // m] += e
    return tuple(out)


def _run(keyed: Tuple[Tuple[int, Tuple[Entry, ...]], ...], always: Tuple[Entry, ...],
         mono: Monomial) -> Dict[Monomial, int]:
    """The image of mono under a plan's entries, on integers: the groups
    whose variable mono contains, then the always group. Entries that
    cancel are dropped."""
    out: Dict[Monomial, int] = {}
    hit = [entries for i, entries in keyed if mono[i]]
    hit.append(always)
    for entries in hit:
        for offsets, change, f in entries:
            for i, k in offsets:
                f *= mono[i] + k
            if not f:
                continue
            exps = list(mono)
            for i, c in change:
                exps[i] += c
            key = tuple(exps)
            v = out.get(key)
            if v is None:
                out[key] = f
            else:
                v += f
                if v:
                    out[key] = v
                else:
                    del out[key]
    return out


def integer_images(op: LinearOperator, monos: Iterable[Monomial]) -> Iterator[Tuple[Dict[Monomial, int], int]]:
    """(v, D) for each monomial of monos, in order, with op(mono) = v / D
    entrywise: D is the denominator of op's plan at the tri-degree of
    mono, v has integer entries. The compiled form is fetched again only
    when the length of the monomials changes, and the plan only when
    their tri-degree does, so each run of one tri-degree (a block's basis
    is one run per tri-degree) looks its plan up once. Each monomial is
    checked: a length that is not 3m raises ValueError, and a word whose
    Euler denominator vanishes at its tri-degree raises
    SingularEulerDenominator if it hits the monomial."""
    n = d = None
    for mono in monos:
        if len(mono) != n:
            m = monomial_m(mono)  # raises ValueError unless len(mono) == 3m
            n = len(mono)
            comp = op.compiled.get(m)
            if comp is None:
                comp = op.compiled[m] = _Compiled(op.terms, m)
            d = None
        deg = (sum(mono[:m]), sum(mono[m:2 * m]), sum(mono[2 * m:]))
        if deg != d:
            d = deg
            den, keyed, always, singular = comp.plan(TriDegree(*deg), op.label)
        for j in singular:
            if all(mono[i] + k for i, k in comp.words[j][0]):
                raise SingularEulerDenominator(op.label, TriDegree(*deg))
        yield _run(keyed, always, mono), den


def site_map(perm, m: int) -> List[int]:
    """Where each flat position goes when the sites (x_a, y_a, z_a) are
    permuted: site a (0-based) moves to site perm[a] in each block."""
    return [i - i % m + perm[i % m] for i in range(3 * m)]


def site_symmetric(op: LinearOperator, m: int) -> bool:
    """True when op commutes with every permutation of the m sites: its
    compiled form at m is unchanged when the sites are permuted by (1 2)
    and by the m-cycle, which generate S_m. A word's scalar is compared as
    compiled, its constant and the multiset of its Euler scalars, so a
    symmetric operator may fail the test, but no other operator passes."""
    comp = op.compiled.get(m)
    if comp is None:
        comp = op.compiled[m] = _Compiled(op.terms, m)
    table = {word: (const, Counter(eulers)) for word, (_, const, eulers) in zip(comp.words, comp.scalars)}
    for perm in ([1, 0] + list(range(2, m)), list(range(1, m)) + [0]):
        to = site_map(perm, m)
        moved = {(tuple(sorted((to[i], k) for i, k in offsets)), tuple(sorted((to[i], c) for i, c in change))): v
                 for (offsets, change), v in table.items()}
        if moved != table:
            return False
    return True


def apply_op(op: LinearOperator, p: Poly) -> Poly:
    """Exact image of p. p's denominators are cleared once, the images of
    its monomials accumulate on integers over the running lcm of their
    plans' denominators, and each output entry becomes one rational."""
    common = lcm(1, *{c.denominator for c in p.values()})
    out: Dict[Monomial, int] = {}
    den = 1
    for (image, d), c in zip(integer_images(op, p), p.values()):
        if den % d:
            grown = lcm(den, d)
            f = grown // den
            for key in out:
                out[key] *= f
            den = grown
        add_scaled(out, image, c.numerator * (common // c.denominator) * (den // d))
    den *= common
    if den == 1:
        return {key: QQ(v) for key, v in out.items()}
    return {key: QQ(v, den) for key, v in out.items()}


def op_add(a: LinearOperator, b: LinearOperator, label: str = "") -> LinearOperator:
    return LinearOperator(label or f"({a.label}+{b.label})", a.terms + b.terms)


def op_scale(a: LinearOperator, c, label: str = "") -> LinearOperator:
    cc = QQ(c)
    terms = [OperatorTerm(EulerScalar(QQ(t.scalar.coeff) * cc, t.scalar.num, t.scalar.den), t.actions) for t in a.terms]
    return LinearOperator(label or f"{c}*{a.label}", terms)


def op_sub(a: LinearOperator, b: LinearOperator, label: str = "") -> LinearOperator:
    return op_add(a, op_scale(b, -1, label=b.label), label or f"({a.label}-{b.label})")


def op_scale_by_euler(a: LinearOperator, s: EulerScalar, label: str = "") -> LinearOperator:
    """Left multiplication by a blockwise scalar: on each term the scalar is
    evaluated on the term's output, hence stored shifted to input form."""
    terms = []
    for t in a.terms:
        dx, dy, dz = t.shift()
        terms.append(OperatorTerm(t.scalar.times(s.shifted(dx, dy, dz)), t.actions))
    return LinearOperator(label or f"s*{a.label}", terms)


def compose(a: LinearOperator, b: LinearOperator, label: str = "") -> LinearOperator:
    """compose(a, b) applied to p equals apply(a, apply(b, p))."""
    terms = []
    for tb in b.terms:
        dx, dy, dz = tb.shift()
        for ta in a.terms:
            terms.append(OperatorTerm(tb.scalar.times(ta.scalar.shifted(dx, dy, dz)), tb.actions + ta.actions))
    return LinearOperator(label or f"({a.label}*{b.label})", terms)


def commutator(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    return op_sub(compose(a, b), compose(b, a), label=f"[{a.label},{b.label}]")


def identity_op(label: str = "Id") -> LinearOperator:
    return LinearOperator(label, (OperatorTerm(CONST_ONE, ()),))


def euler_op(label: str, form: LinForm) -> LinearOperator:
    return LinearOperator(label, (OperatorTerm(EulerScalar(1, (form,)), ()),))


# ---------------------------------------------------------------------------
# building blocks for the catalog


def _pairing_terms(outer, inner, m: int, sign=1) -> List[OperatorTerm]:
    """sum_j outer_j inner_j as terms; each factor is ('mul'|'der', maker)."""
    out = []
    for j in range(1, m + 1):
        actions = []
        for kind, maker in (inner, outer):
            actions.append(mul_(maker(j)) if kind == "mul" else der_(maker(j)))
        out.append(OperatorTerm(EulerScalar(sign), tuple(actions)))
    return out


def inner_mul_der(u, w, m: int, sign=1) -> List[OperatorTerm]:
    """<u, d_w> = sum_j u_j d/d w_j (derivative acts first)."""
    return _pairing_terms(("mul", u), ("der", w), m, sign)


def inner_mul_mul(u, w, m: int, sign=1) -> List[OperatorTerm]:
    """<u, w> multiplication."""
    return _pairing_terms(("mul", u), ("mul", w), m, sign)


def inner_der_der(u, w, m: int, sign=1) -> List[OperatorTerm]:
    """<d_u, d_w>."""
    return _pairing_terms(("der", u), ("der", w), m, sign)


def _single(scalar: EulerScalar, *actions: ElementaryAction) -> OperatorTerm:
    return OperatorTerm(scalar, tuple(actions))


def dirac_down(m: int) -> LinearOperator:
    """D_s = <z, d_y> - <d_x, d_z>."""
    return LinearOperator("D_s", inner_mul_der(z_, y_, m) + inner_der_der(x_, z_, m, sign=-1))


def dirac_up(m: int) -> LinearOperator:
    """D_s_dag = <y, d_z> + <x, z>."""
    return LinearOperator("D_s_dag", inner_mul_der(y_, z_, m) + inner_mul_mul(x_, z_, m))


def lowering_L(m: int) -> LinearOperator:
    """L = <x, d_y> - (1/2) Delta_z."""
    terms = inner_mul_der(x_, y_, m)
    for j in range(1, m + 1):
        terms.append(_single(EulerScalar(QQ(-1, 2)), der_(z_(j)), der_(z_(j))))
    return LinearOperator("L", terms)


def raising_R(m: int) -> LinearOperator:
    """R = <y, d_x> + (1/2) |z|^2."""
    terms = inner_mul_der(y_, x_, m)
    for j in range(1, m + 1):
        terms.append(_single(EulerScalar(QQ(1, 2)), mul_(z_(j)), mul_(z_(j))))
    return LinearOperator("R", terms)


def _sp_generators(m: int) -> Dict[str, LinearOperator]:
    """The 2m^2 + m generators realized on P(R^{m x 3})."""
    gens: Dict[str, LinearOperator] = {}
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            terms = [
                _single(EulerScalar(1), der_(x_(k)), mul_(x_(j))),
                _single(EulerScalar(-1), der_(y_(j)), mul_(y_(k))),
                _single(EulerScalar(-1), der_(z_(j)), mul_(z_(k))),
            ]
            if j == k:
                terms.append(_single(EulerScalar(QQ(-1, 2))))
            gens[f"X_{j}_{k}"] = LinearOperator(f"X_{j}_{k}", terms)
    for j in range(1, m + 1):
        for k in range(j, m + 1):
            if j == k:
                terms = [
                    _single(EulerScalar(1), der_(y_(j)), mul_(x_(j))),
                    _single(EulerScalar(QQ(-1, 2)), der_(z_(j)), der_(z_(j))),
                ]
            else:
                terms = [
                    _single(EulerScalar(1), der_(y_(k)), mul_(x_(j))),
                    _single(EulerScalar(1), der_(y_(j)), mul_(x_(k))),
                    _single(EulerScalar(-1), der_(z_(j)), der_(z_(k))),
                ]
            gens[f"Y_{j}_{k}"] = LinearOperator(f"Y_{j}_{k}", terms)
    for j in range(1, m + 1):
        for k in range(j, m + 1):
            if j == k:
                terms = [
                    _single(EulerScalar(1), der_(x_(j)), mul_(y_(j))),
                    _single(EulerScalar(QQ(1, 2)), mul_(z_(j)), mul_(z_(j))),
                ]
            else:
                terms = [
                    _single(EulerScalar(1), der_(x_(k)), mul_(y_(j))),
                    _single(EulerScalar(1), der_(x_(j)), mul_(y_(k))),
                    _single(EulerScalar(1), mul_(z_(j)), mul_(z_(k))),
                ]
            gens[f"Z_{j}_{k}"] = LinearOperator(f"Z_{j}_{k}", terms)
    return gens


def sp_labels(m: int) -> List[str]:
    labels = [f"X_{j}_{k}" for j in range(1, m + 1) for k in range(1, m + 1)]
    labels += [f"Y_{j}_{k}" for j in range(1, m + 1) for k in range(j, m + 1)]
    labels += [f"Z_{j}_{k}" for j in range(1, m + 1) for k in range(j, m + 1)]
    return labels


def _rotation(m: int, a: int, b: int) -> LinearOperator:
    """L_ab = sum over the three blocks of u_a d_{u_b} - u_b d_{u_a}."""
    terms = []
    for maker in (x_, y_, z_):
        terms.append(_single(EulerScalar(1), der_(maker(b)), mul_(maker(a))))
        terms.append(_single(EulerScalar(-1), der_(maker(a)), mul_(maker(b))))
    return LinearOperator(f"L_{a}_{b}", terms)


def _transvector_S(m: int, u, udeg_slot: int) -> List[OperatorTerm]:
    """S_uz = <u, d_z> - (2E_u + m - 4)^{-1} |u|^2 <d_u, d_z>, with the
    denominator read on the output of the inner word (so stored input form
    is 2E_u + m - 2)."""
    terms = inner_mul_der(u, z_, m)
    den_form = [0, 0, 0, m - 2]
    den_form[udeg_slot] = 2
    scal = EulerScalar(-1, (), (tuple(den_form),))
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            terms.append(_single(scal, der_(u(k)), der_(z_(k)), mul_(u(j)), mul_(u(j))))
    return terms


def _transvector_C(m: int, u, udeg_slot: int) -> List[OperatorTerm]:
    """C_uz = <u,z> - (2E_u+m-4)^{-1}|u|^2<z,d_u> - (2E_z+m-4)^{-1}|z|^2<u,d_z>
    + ((2E_u+m-4)(2E_z+m-4))^{-1}|u|^2|z|^2<d_u,d_z>, denominators read on
    the output of their inner word (input forms have m-2)."""
    u_form = [0, 0, 0, m - 2]
    u_form[udeg_slot] = 2
    u_form = tuple(u_form)
    z_form = (0, 0, 2, m - 2)
    terms = inner_mul_mul(u, z_, m)
    s_u = EulerScalar(-1, (), (u_form,))
    s_z = EulerScalar(-1, (), (z_form,))
    s_uz = EulerScalar(1, (), (u_form, z_form))
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            terms.append(_single(s_u, der_(u(k)), mul_(z_(k)), mul_(u(j)), mul_(u(j))))
            terms.append(_single(s_z, der_(z_(k)), mul_(u(k)), mul_(z_(j)), mul_(z_(j))))
            for l in range(1, m + 1):
                terms.append(
                    _single(s_uz, der_(u(k)), der_(z_(k)), mul_(u(j)), mul_(u(j)), mul_(z_(l)), mul_(z_(l)))
                )
    return terms


def script_E_form(m: int) -> LinForm:
    """The Cartan element of the sl_d pair: E_y - E_x + E_z + m/2."""
    return (-1, 1, 1, QQ(m, 2))


def catalog(m: int) -> Dict[str, LinearOperator]:
    """All named operators at a given m (>= 6, the stable range)."""
    if m < 6:
        raise ValueError(f"m must be >= 6 (stable range), got {m}")
    cat: Dict[str, LinearOperator] = {}
    cat["Id"] = identity_op()
    cat["E"] = euler_op("E", (1, 1, 0, 0))
    cat["E_script"] = euler_op("E_script", script_E_form(m))
    cat["D_s"] = dirac_down(m)
    cat["D_s_dag"] = dirac_up(m)
    cat["L"] = lowering_L(m)
    cat["R"] = raising_R(m)

    # hidden sl(2) on the z-variables
    half_z2 = LinearOperator("half_z2", [_single(EulerScalar(QQ(1, 2)), mul_(z_(j)), mul_(z_(j))) for j in range(1, m + 1)])
    half_lap = LinearOperator("neg_half_Delta_z", [_single(EulerScalar(QQ(-1, 2)), der_(z_(j)), der_(z_(j))) for j in range(1, m + 1)])
    cat["sl_h_X"] = half_z2.relabel("sl_h_X")
    cat["sl_h_Y"] = half_lap.relabel("sl_h_Y")
    cat["sl_h_H"] = euler_op("sl_h_H", (0, 0, 1, QQ(m, 2)))

    # skew pair exchanging x and y
    cat["sl_s_X"] = LinearOperator("sl_s_X", inner_mul_der(y_, x_, m))
    cat["sl_s_Y"] = LinearOperator("sl_s_Y", inner_mul_der(x_, y_, m))
    cat["sl_s_H"] = euler_op("sl_s_H", (-1, 1, 0, 0))

    # the pair generated by the Dirac operators; the plain bracket
    # [D_s_dag, D_s] closes on E + m with weight 1, so one side is doubled
    cat["sl_c_X"] = op_scale(cat["D_s_dag"], 2, label="sl_c_X")
    cat["sl_c_Y"] = cat["D_s"].relabel("sl_c_Y")
    cat["sl_c_H"] = euler_op("sl_c_H", (2, 2, 0, 2 * m))

    # the pair used for the projector
    cat["sl_d_X"] = cat["R"].relabel("sl_d_X")
    cat["sl_d_Y"] = cat["L"].relabel("sl_d_Y")
    cat["sl_d_H"] = cat["E_script"].relabel("sl_d_H")

    cat.update(_sp_generators(m))

    # the one rotation a report reads (repn.casimir_identities moves it to
    # every pair of sites), and the so(m) Casimir -sum_{a<b} L_ab^2, sign
    # fixed so that eigenvalues on spherical harmonics come out as
    # sum_i lambda_i (lambda_i + m - 2i) >= 0
    cat["L_1_2"] = _rotation(m, 1, 2)
    cas_terms: List[OperatorTerm] = []
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            rot = _rotation(m, a, b)
            cas_terms.extend(op_scale(compose(rot, rot), -1).terms)
    cat["Casimir"] = LinearOperator("Casimir", cas_terms)

    cat["S_xz"] = LinearOperator("S_xz", _transvector_S(m, x_, 0))
    cat["S_yz"] = LinearOperator("S_yz", _transvector_S(m, y_, 1))
    cat["C_xz"] = LinearOperator("C_xz", _transvector_C(m, x_, 0))
    cat["C_yz"] = LinearOperator("C_yz", _transvector_C(m, y_, 1))

    rl = compose(cat["R"], cat["L"])
    proj_term = op_scale_by_euler(rl, EulerScalar(1, (), ((-1, 1, 1, QQ(m, 2) - 2),)))
    cat["Pi_L"] = op_add(identity_op(), proj_term, label="Pi_L").relabel("Pi_L")

    return cat


# ---------------------------------------------------------------------------
# Weyl-algebra normal form
#
# The normal form of an operator without Euler denominators is the sum of
# its words x^muls d^ders (all derivatives applied first), like words
# combined; it is empty exactly when the operator vanishes on every block.
# It is (D, {(derivatives, multiplications): integer}), with sorted flat
# variable indices as keys and each integer over D, D and the integers
# coprime. The one rewriting step, d_i x^b = x^b d_i + b_i x^(b - e_i),
# folds a term's actions onto its Euler numerator and gives the product
# and the bracket of two normal forms.

NormalForm = Tuple[int, Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int]]


def _reduced(den: int, table: Dict) -> NormalForm:
    g = gcd(den, *table.values())
    return (den, table) if g == 1 else (den // g, {key: v // g for key, v in table.items()})


def _leibniz(table: Dict, i: int) -> Dict:
    """The table of d_i applied after table's words, by the Leibniz step."""
    out: Dict = {}
    for (ders, muls), v in table.items():
        poly_add_term(out, (tuple(sorted(ders + (i,))), muls), v)
        n = muls.count(i)
        if n:
            j = muls.index(i)
            poly_add_term(out, (ders, muls[:j] + muls[j + 1:]), n * v)
    return out


def nf_sum(*parts: Tuple[int, NormalForm]) -> NormalForm:
    """sum of c * nf over the (integer c, nf) pairs."""
    den = lcm(1, *(nf[0] for _, nf in parts))
    out: Dict = {}
    for c, (d, table) in parts:
        add_scaled(out, table, c * (den // d))
    return _reduced(den, out)


def nf_product(a: NormalForm, b: NormalForm) -> NormalForm:
    """The normal form of a applied after b: the derivatives of each word
    of a are folded onto b's table, then its multiplications join."""
    out: Dict = {}
    for (ders, muls), v in a[1].items():
        table = b[1]
        for i in ders:
            table = _leibniz(table, i)
        for (d, x), w in table.items():
            poly_add_term(out, (d, tuple(sorted(x + muls))), v * w)
    return _reduced(a[0] * b[0], out)


def nf_bracket(a: NormalForm, b: NormalForm) -> NormalForm:
    return nf_sum((1, nf_product(a, b)), (-1, nf_product(b, a)))


def _integer_table(table: Dict) -> NormalForm:
    """A table with rational values as (D, integer table)."""
    den = lcm(1, *(QQ(v).denominator for v in table.values()))
    return den, {key: int(v * den) for key, v in table.items() if v}


def normal_form(op: LinearOperator, m: int) -> NormalForm:
    """op's normal form at m, built on first use and kept on op like its
    compiled form. A term's Euler numerator is expanded into its normal
    form, read on the term's input, and the term's actions are folded
    onto it in application order; Euler denominators raise ValueError."""
    nf = op.normal_forms.get(m)
    if nf is not None:
        return nf
    parts = []
    for term in op.terms:
        s = term.scalar
        if s.den:
            raise ValueError(f"{op.label}: Euler denominators have no polynomial normal form")
        part = _integer_table({((), ()): s.coeff})
        for a, b, c, d in s.num:
            # a Ex + b Ey + c Ez + d = sum_i (a x_i d_{x_i} + ...) + d
            form = {((i,), (i,)): f for slot, f in enumerate((a, b, c)) for i in range(slot * m, slot * m + m)}
            form[(), ()] = d
            part = nf_product(part, _integer_table(form))
        for act in term.actions:
            i = act.var.flat(m)
            word = ((i,), ()) if act.kind is ActionKind.DeriveVar else ((), (i,))
            part = nf_product((1, {word: 1}), part)
        parts.append((1, part))
    nf = op.normal_forms[m] = nf_sum(*parts)
    return nf
