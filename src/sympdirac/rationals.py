"""Exact rational scalars.

Everything in this package computes over Q. gmpy2's mpq is used when
available (it is much faster than fractions.Fraction for the elimination
work done here); fractions.Fraction is a drop-in fallback. Both types
expose .numerator/.denominator and hash compatibly with each other and
with int, which the sparse containers rely on.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ


def qq_str(q) -> str:
    """Canonical text for a rational: '3', '-3', '3/2'."""
    q = QQ(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
