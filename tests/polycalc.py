"""Polynomial calculus that only the tests use, as a reference that shares
no code with the compiled operator path: derivatives, variable multiples,
sums, scalings and tri-degree splits of polynomials, random polynomials,
and an operator rebuilt from a normal form."""

from typing import Dict

from sympdirac.operators import EulerScalar, LinearOperator, NormalForm, OperatorTerm, der_, mul_
from sympdirac.polys import Monomial, Poly, TriDegree, VariableId, add_scaled, monomial_m, poly_add_term, var_at
from sympdirac.rationals import QQ


def tri_degree_of(mono: Monomial) -> TriDegree:
    m = monomial_m(mono)
    return TriDegree(sum(mono[:m]), sum(mono[m : 2 * m]), sum(mono[2 * m :]))


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    add_scaled(out, q)
    return out


def poly_scale(p: Poly, coeff) -> Poly:
    c = QQ(coeff)
    if not c:
        return {}
    return {mono: v * c for mono, v in p.items()}


def differentiate(p: Poly, v: VariableId) -> Poly:
    """Partial derivative with respect to one variable."""
    out: Poly = {}
    for mono, c in p.items():
        i = v.flat(monomial_m(mono))
        e = mono[i]
        if e == 0:
            continue
        lowered = mono[:i] + (e - 1,) + mono[i + 1 :]
        poly_add_term(out, lowered, c * e)
    return out


def multiply_by(p: Poly, v: VariableId) -> Poly:
    """Multiplication by one variable."""
    out: Poly = {}
    for mono, c in p.items():
        i = v.flat(monomial_m(mono))
        raised = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
        out[raised] = c
    return out


def tri_degree_components(p: Poly) -> Dict[TriDegree, Poly]:
    """Split a polynomial into its tri-homogeneous components.

    Summing the components back gives the original polynomial exactly.
    """
    out: Dict[TriDegree, Poly] = {}
    for mono, c in p.items():
        out.setdefault(tri_degree_of(mono), {})[mono] = c
    return out


def random_poly(rng, m: int, max_degree: int, terms: int) -> Poly:
    """Random sparse polynomial for property tests."""
    out: Poly = {}
    for _ in range(terms):
        mono = [0] * (3 * m)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(3 * m)] += 1
        c = QQ(rng.randint(-9, 9))
        if rng.random() < 0.5:
            c = c / rng.randint(1, 9)
        poly_add_term(out, tuple(mono), c)
    return out


def normal_form_op(nf: NormalForm, m: int, label: str = "nf") -> LinearOperator:
    """Rebuild an operator from a normal form at m (for spot checks)."""
    den, table = nf
    terms = []
    for (ders, muls), v in sorted(table.items()):
        actions = tuple([der_(var_at(i, m)) for i in ders] + [mul_(var_at(i, m)) for i in muls])
        terms.append(OperatorTerm(EulerScalar(QQ(v, den)), actions))
    return LinearOperator(label, terms)
