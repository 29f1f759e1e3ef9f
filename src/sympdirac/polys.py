"""Sparse multivariate polynomials over Q in three blocks of m variables.

The ambient space is P(R^{m x 3}) with variables x_1..x_m, y_1..y_m,
z_1..z_m. A monomial is a flat tuple of 3m exponents laid out as
(x_1..x_m, y_1..y_m, z_1..z_m); a polynomial is a dict mapping monomials
to nonzero rationals. The tri-degree of a monomial is the triple of total
degrees in the x, y and z blocks separately; almost everything downstream
is graded by tri-degree.

Canonical monomial order: total degree ascending, then within a degree the
exponent tuples in descending lexicographic order with x_1 most significant
(so for m=1 in x alone: 1, x1, x1^2, ... and in degree 2 for two variables:
x1^2, x1*x2, x2^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import merge
from math import comb
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

from .rationals import QQ, qq_str

Monomial = Tuple[int, ...]
Poly = Dict[Monomial, QQ]


class VarBlock(Enum):
    X = "x"
    Y = "y"
    Z = "z"


_BLOCK_SLOT = {VarBlock.X: 0, VarBlock.Y: 1, VarBlock.Z: 2}


@dataclass(frozen=True, order=True)
class VariableId:
    block: VarBlock
    index: int  # 1-based

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"variable index must be >= 1, got {self.index}")

    def flat(self, m: int) -> int:
        """Position of this variable in a length-3m exponent tuple."""
        if self.index > m:
            raise ValueError(f"variable index {self.index} exceeds m={m}")
        return _BLOCK_SLOT[self.block] * m + self.index - 1

    def __str__(self) -> str:
        return f"{self.block.value}{self.index}"


def x_(i: int) -> VariableId:
    return VariableId(VarBlock.X, i)


def y_(i: int) -> VariableId:
    return VariableId(VarBlock.Y, i)


def z_(i: int) -> VariableId:
    return VariableId(VarBlock.Z, i)


def var_at(i: int, m: int) -> VariableId:
    """The variable at position i of a length-3m exponent tuple."""
    return VariableId((VarBlock.X, VarBlock.Y, VarBlock.Z)[i // m], i % m + 1)


class TriDegree(NamedTuple):
    kx: int
    ky: int
    kz: int

    @property
    def total(self) -> int:
        return self.kx + self.ky + self.kz

    def __str__(self) -> str:
        return f"({self.kx},{self.ky},{self.kz})"


def monomial_m(mono: Monomial) -> int:
    if len(mono) % 3 != 0:
        raise ValueError(f"monomial length {len(mono)} is not 3m")
    return len(mono) // 3


def monomial_sort_key(mono: Monomial):
    """Key realizing the canonical order (see module docstring)."""
    return (sum(mono), tuple(-e for e in mono))


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All ways to write total as an ordered sum of `parts` nonnegatives."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def monomial_basis(m: int, d: TriDegree) -> List[Monomial]:
    """All monomials of tri-degree d in canonical order.

    The count is the product of the three stars-and-bars binomials; tests
    check this against a brute-force enumeration.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if min(d) < 0:
        raise ValueError(f"negative tri-degree {d}")
    basis = [
        ex + ey + ez
        for ex in _compositions(d.kx, m)
        for ey in _compositions(d.ky, m)
        for ez in _compositions(d.kz, m)
    ]
    basis.sort(key=monomial_sort_key)
    return basis


def basis_size(m: int, d: TriDegree) -> int:
    return comb(d.kx + m - 1, m - 1) * comb(d.ky + m - 1, m - 1) * comb(d.kz + m - 1, m - 1)


def tri_degrees_of_total(degree: int) -> List[TriDegree]:
    """All tri-degrees with the given total degree, sorted."""
    return sorted(
        TriDegree(kx, ky, degree - kx - ky)
        for kx in range(degree + 1)
        for ky in range(degree + 1 - kx)
    )


class Block:
    """A finite-dimensional graded piece: the span of all monomials whose
    tri-degree belongs to a fixed finite set. Carries its ordered basis.

    m >= 6 is enforced here because every result realized downstream holds
    in the stable range only.
    """

    def __init__(self, m: int, tri_degrees: Iterable[TriDegree]):
        if m < 6:
            raise ValueError(f"m must be >= 6 (stable range), got {m}")
        self.m = m
        self.tri_degrees: Tuple[TriDegree, ...] = tuple(sorted(set(TriDegree(*d) for d in tri_degrees)))
        # each tri-degree's basis is sorted and lower totals come first, so
        # only tri-degrees of equal total are merged
        basis: List[Monomial] = []
        for total in sorted({d.total for d in self.tri_degrees}):
            basis.extend(merge(*(monomial_basis(m, d) for d in self.tri_degrees if d.total == total),
                               key=monomial_sort_key))
        self.basis: List[Monomial] = basis
        self.index: Dict[Monomial, int] = {mono: i for i, mono in enumerate(basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self) -> str:
        degs = ",".join(str(d) for d in self.tri_degrees)
        return f"Block(m={self.m}, tri_degrees=[{degs}], dim={self.dim})"


# ---------------------------------------------------------------------------
# polynomial arithmetic


def monomial_poly(mono: Monomial, coeff=1) -> Poly:
    c = QQ(coeff)
    return {mono: c} if c else {}


def poly_add_term(p: Poly, mono: Monomial, coeff) -> None:
    """In-place p += coeff * mono, keeping the no-zero-values invariant."""
    c = p.get(mono)
    if c is None:
        if coeff:
            p[mono] = coeff
    else:
        c = c + coeff
        if c:
            p[mono] = c
        else:
            del p[mono]


def add_scaled(dst: Dict, src: Dict, f=1) -> None:
    """In-place dst += f * src on sparse dicts (polynomials, or vectors
    keyed by coordinate), dropping the entries that cancel."""
    get = dst.get
    for key, v in src.items():
        w = get(key, 0) + f * v
        if w:
            dst[key] = w
        elif key in dst:
            del dst[key]


# ---------------------------------------------------------------------------
# rendering


_BLOCK_NAMES = ("x", "y", "z")


def render_monomial(mono: Monomial) -> str:
    m = monomial_m(mono)
    parts = []
    for i, e in enumerate(mono):
        if e == 0:
            continue
        name = f"{_BLOCK_NAMES[i // m]}{i % m + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def render_poly(p: Poly) -> str:
    """Canonical text form, terms in canonical monomial order.

    Examples: '0', '3/2*x1*z2^2', 'x1 - y2*z1'.
    """
    if not p:
        return "0"
    pieces: List[str] = []
    for mono in sorted(p, key=monomial_sort_key):
        c = p[mono]
        neg = c < 0
        mag = -c if neg else c
        body = render_monomial(mono)
        if body == "1":
            text = qq_str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{qq_str(mag)}*{body}"
        if not pieces:
            pieces.append(f"-{text}" if neg else text)
        else:
            pieces.append(f"- {text}" if neg else f"+ {text}")
    return " ".join(pieces)
