"""Exact rational scalars.

Everything in this package computes over Q, and QQ is
fractions.Fraction. The hot loops (operator application, elimination,
spans, ranks and the Casimir certificate) run on Python ints, so a
rational is formed only where a result is read as one: a polynomial
coefficient, a report value or a witness.
"""

from __future__ import annotations

from fractions import Fraction as QQ


def qq_str(q) -> str:
    """Canonical text for a rational: '3', '-3', '3/2'."""
    q = QQ(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
