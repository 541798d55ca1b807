"""Rational-coefficient polynomials: parsing, exact evaluation, denominator clearing.

Rationals are plain ``fractions.Fraction`` values, which already enforce the
canonical lowest-terms form (positive denominator, gcd 1) needed throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Union

RationalLike = Union[Fraction, int, str]

# A Fraction from a numerator and a positive denominator already known to be
# coprime, skipping the normalizing gcd (a private constructor that changed
# shape in Python 3.12).
if hasattr(Fraction, "_from_coprime_ints"):
    _coprime_fraction = Fraction._from_coprime_ints
else:
    def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
        return Fraction(numerator, denominator, _normalize=False)


class ParseError(ValueError):
    """Malformed polynomial text or coefficients violating the shape contract."""


def parse_rational(value: RationalLike) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParseError(f"bad rational token: {value!r}") from exc


@dataclass(frozen=True)
class PolyQ:
    """Dense polynomial over Q, coefficients ascending (a_0 .. a_d), degree >= 2.

    ``admissible`` records whether the linear coefficient vanishes; the
    Zsigmondy machinery requires that, evaluation does not.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 3:
            raise ParseError("degree must be at least 2")
        if self.coeffs[-1] == 0:
            raise ParseError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def admissible(self) -> bool:
        return self.coeffs[1] == 0

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1]

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0]

    @cached_property
    def _cleared(self) -> tuple[tuple[int, ...], int]:
        m = lcm(*(c.denominator for c in self.coeffs))
        return tuple(int(c * m) for c in self.coeffs), m

    def evaluate(self, x: Fraction) -> Fraction:
        """Exact Horner evaluation, homogenized over the integers.

        With x = p/q in lowest terms, acc = sum f1_i p^i q^(d-i) is congruent
        to f1_d p^d modulo q, so a prime dividing both acc and m*q^d divides
        m*|f1_d|.  Stripping gcds against that small number reaches lowest
        terms without a gcd of two huge integers.
        """
        f1, m = self._cleared
        p, q = x.numerator, x.denominator
        acc = f1[-1]
        qpow = 1
        for i in range(len(f1) - 2, -1, -1):
            qpow *= q
            acc = acc * p + f1[i] * qpow
        if acc == 0:
            return Fraction(0)
        den = m * qpow
        shared = m * abs(f1[-1])
        t = gcd(gcd(acc, shared), den)
        while t > 1:
            acc //= t
            den //= t
            t = gcd(gcd(acc, shared), den)
        return _coprime_fraction(acc, den)

    def __str__(self) -> str:
        parts = []
        for i in range(self.degree, -1, -1):
            a = self.coeffs[i]
            if a == 0:
                continue
            if i == 0:
                term = str(abs(a))
            else:
                mag = abs(a)
                coeff = "" if mag == 1 else f"{mag}*"
                term = f"{coeff}z" if i == 1 else f"{coeff}z^{i}"
            if not parts:
                parts.append(term if a > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if a > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"

    def trinomial_form(self) -> tuple[int, int | None, Fraction] | None:
        """Return (d, e, c) when this is z^d + z^e + c or z^d + c, else None.

        The middle exponent e (if present) must satisfy d > e >= 2 and carry
        coefficient 1; the polynomial must be monic with zero linear term.
        """
        d = self.degree
        if self.coeffs[-1] != 1 or self.coeffs[1] != 0:
            return None
        middle = [i for i in range(1, d) if self.coeffs[i] != 0]
        if not middle:
            return (d, None, self.coeffs[0])
        if len(middle) == 1:
            e = middle[0]
            if e >= 2 and self.coeffs[e] == 1:
                return (d, e, self.coeffs[0])
        return None


_TERM_RE = re.compile(
    r"""^(?P<sign>[+-]?)\s*
        (?:
            (?P<coeff>\d+(?:/\d+)?)\s*\*?\s*(?P<var1>z(?:\^(?P<exp1>\d+))?)?
          | (?P<var2>z(?:\^(?P<exp2>\d+))?)
        )$""",
    re.VERBOSE,
)


def _parse_symbolic(text: str) -> list[Fraction]:
    # split into signed terms, keeping signs attached
    stripped = text.replace(" ", "")
    if not stripped:
        raise ParseError("empty polynomial")
    pieces = re.findall(r"[+-]?[^+-]+", stripped)
    if "".join(pieces) != stripped:
        raise ParseError(f"cannot tokenize polynomial: {text!r}")
    terms: dict[int, Fraction] = {}
    for piece in pieces:
        m = _TERM_RE.match(piece)
        if not m:
            raise ParseError(f"bad term: {piece!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("var2") is not None:
            coeff = Fraction(sign)
            exp = int(m.group("exp2") or 1)
        else:
            coeff = sign * parse_rational(m.group("coeff"))
            if m.group("var1") is not None:
                exp = int(m.group("exp1") or 1)
            else:
                exp = 0
        terms[exp] = terms.get(exp, Fraction(0)) + coeff
    degree = max(terms)
    return [terms.get(i, Fraction(0)) for i in range(degree + 1)]


def parse_poly(spec: str) -> PolyQ:
    """Parse either an ascending coefficient list ("a0,a1,...,ad") or a
    symbolic sum of monomials in z ("z^3+5/2")."""
    text = spec.strip()
    if not text:
        raise ParseError("empty polynomial")
    if "z" not in text:
        coeffs = [parse_rational(tok.strip()) for tok in text.split(",")]
    else:
        coeffs = _parse_symbolic(text)
    if len(coeffs) >= 1 and coeffs[-1] == 0:
        raise ParseError("leading coefficient must be nonzero")
    return PolyQ(tuple(coeffs))


def clear_denominators(f: PolyQ) -> tuple[tuple[int, ...], int]:
    """Return (integer coefficient tuple, positive constant m) with f = f1/m.

    m is the lcm of the coefficient denominators; the content of f1 is kept.
    """
    return f._cleared


