"""Rational-coefficient polynomials: parsing, exact evaluation, denominator clearing.

Rationals are plain ``fractions.Fraction`` values, which already enforce the
canonical lowest-terms form (positive denominator, gcd 1) needed throughout.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple, Sequence, Union

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
    """``value`` as a Fraction.  Exponent notation is refused: ``Fraction``
    would build 10^exp before any budget applies (26 s for "1e16000000")."""
    if isinstance(value, str) and "e" in value.lower():
        raise ParseError(f"bad rational token: {value!r} (no exponent notation)")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParseError(f"bad rational token: {value!r}") from exc


# typing.NamedTuple forbids __new__ in its body: the checks sit on the subclass
class _PolyQFields(NamedTuple):
    terms: tuple[tuple[int, Fraction], ...]


class PolyQ(_PolyQFields):
    """Sparse polynomial over Q of degree >= 2: its nonzero terms as
    (exponent, coefficient) pairs, exponents strictly descending.

    Zero coefficients given to the constructor are dropped, so every reader
    pays for the number of terms, not the degree.  ``admissible`` records
    whether the linear coefficient vanishes; the Zsigmondy machinery requires
    that, evaluation does not.
    """

    def __new__(cls, terms: tuple[tuple[int, Fraction], ...]) -> PolyQ:
        if not terms or terms[0][1] == 0:
            raise ParseError("leading coefficient must be nonzero")
        if terms[0][0] < 2:
            raise ParseError("degree must be at least 2")
        terms = tuple((i, Fraction(a)) for i, a in terms if a)
        if terms[-1][0] < 0 or any(i <= j for (i, _), (j, _) in zip(terms, terms[1:])):
            raise ParseError("exponents must be nonnegative and strictly descending")
        return super().__new__(cls, terms)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[Fraction]) -> PolyQ:
        """The polynomial with ascending dense coefficients a_0 .. a_d."""
        return cls(tuple(zip(range(len(coeffs) - 1, -1, -1), reversed(coeffs))))

    @property
    def degree(self) -> int:
        return self.terms[0][0]

    @property
    def admissible(self) -> bool:
        return all(i != 1 for i, _ in self.terms)

    @property
    def constant(self) -> Fraction:
        i, a = self.terms[-1]
        return a if i == 0 else Fraction(0)

    @cached_property
    def cleared(self) -> tuple[tuple[tuple[int, int], ...], int]:
        """(integer terms, positive constant m) with f = f1/m: m is the lcm of
        the coefficient denominators, and the content of f1 is kept."""
        m = lcm(*(a.denominator for _, a in self.terms))
        return tuple((i, int(a * m)) for i, a in self.terms), m

    def evaluate(self, x: Fraction) -> Fraction:
        """Exact Horner evaluation over the gaps, homogenized over the integers.

        With x = p/q in lowest terms, each step is acc = acc*p^gap + f1_i*q^(d-i)
        and a lowest exponent k > 0 costs one final p^k, so acc = sum f1_i p^i
        q^(d-i).  That is congruent to f1_d p^d modulo q, so a prime dividing
        both acc and m*q^d divides m*|f1_d|.  Stripping gcds against that small
        number reaches lowest terms without a gcd of two huge integers.
        """
        f1, m = self.cleared
        prev, acc = f1[0]
        shared = m * abs(acc)
        p, q = x.numerator, x.denominator
        qpow = 1
        for i, a in f1[1:]:
            qpow *= q ** (prev - i)
            # top terms that cancel leave acc = 0: skip the power of p it would take
            acc = (acc * p ** (prev - i) if acc else 0) + a * qpow
            prev = i
        if acc == 0:
            return Fraction(0)
        if prev:
            acc *= p**prev
            qpow *= q**prev
        den = m * qpow
        t = gcd(gcd(acc, shared), den)
        while t > 1:
            acc //= t
            den //= t
            t = gcd(gcd(acc, shared), den)
        return _coprime_fraction(acc, den)

    def __str__(self) -> str:
        parts = []
        for i, a in self.terms:
            mag = abs(a)
            if i == 0:
                term = str(mag)
            else:
                coeff = "" if mag == 1 else f"{mag}*"
                term = f"{coeff}z" if i == 1 else f"{coeff}z^{i}"
            if not parts:
                parts.append(term if a > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if a > 0 else f"- {term}")
        return " ".join(parts)

    def trinomial_form(self) -> tuple[int, int | None, Fraction] | None:
        """Return (d, e, c) when this is z^d + z^e + c or z^d + c, else None.

        The middle exponent e (if present) must satisfy d > e >= 2 and carry
        coefficient 1; the polynomial must be monic with zero linear term.
        """
        (d, lead), *middle = (t for t in self.terms if t[0] > 0)
        if lead != 1:
            return None
        if not middle:
            return (d, None, self.constant)
        if len(middle) == 1 and middle[0][0] >= 2 and middle[0][1] == 1:
            return (d, middle[0][0], self.constant)
        return None


_TERM_RE = re.compile(
    r"""^(?P<sign>[+-]?)\s*
        (?:
            (?P<coeff>\d+(?:/\d+)?)\s*\*?\s*(?P<var1>z(?:\^(?P<exp1>\d+))?)?
          | (?P<var2>z(?:\^(?P<exp2>\d+))?)
        )$""",
    re.VERBOSE,
)


def _parse_symbolic(text: str) -> PolyQ:
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
    # a written top term that cancels leaves a zero leading coefficient
    return PolyQ(tuple(sorted(terms.items(), reverse=True)))


def parse_poly(spec: str) -> PolyQ:
    """Parse either an ascending coefficient list ("a0,a1,...,ad") or a
    symbolic sum of monomials in z ("z^3+5/2")."""
    text = spec.strip()
    if not text:
        raise ParseError("empty polynomial")
    if "z" in text:
        return _parse_symbolic(text)
    return PolyQ.from_coeffs([parse_rational(tok.strip()) for tok in text.split(",")])


