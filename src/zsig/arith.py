"""Integer arithmetic support: primality, p-adic valuation, exact size
comparison of sums of power products, budgeted factoring.

Numerators of orbit sequences routinely reach thousands of digits, so trial
division works through gcds with the products of sieve segments, each built
when trial division first reaches it, and the Pollard rho stage is charged
against a work budget that scales with operand size.  The budget is a hard
cap: a hunt stops before any batch whose gcd would land past it, so a factor
an unbudgeted hunt would find only beyond the budget is not found.
Everything here is deterministic for fixed (input, budget).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, compress
from math import gcd, isqrt, prod
from typing import Sequence

from .config import DEFAULT_RHO_BUDGET

# The first 13 primes as Miller-Rabin bases prove primality below this bound,
# psi_13 (Sorenson & Webster 2015).
DETERMINISTIC_MR_LIMIT = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_MR_BASES = _SMALL_PRIMES[:13]


def _mr_witness(a: int, d: int, s: int, n: int) -> bool:
    """True when a proves n composite."""
    a %= n
    if a <= 1:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _is_square(n: int) -> bool:
    r = isqrt(n)
    return r * r == n


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge parameter choice."""
    if _is_square(n):
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4
    # factor n+1 = d * 2^s
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Lucas sequences U_d, V_d via binary ladder
    U, V, k = 1, 1, (1 << (d.bit_length() - 1))
    Qk = Q % n
    inv2 = pow(2, -1, n)
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (U + V) * inv2 % n, (V + D * U) * inv2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(m: int) -> bool:
    """Primality test: deterministic below 3.3e24, Baillie-PSW beyond.

    Baillie-PSW is a base-2 Miller-Rabin test followed by the strong Lucas
    test; no composite is known to pass both.
    """
    if m < 1:
        raise ValueError("is_prime expects a positive integer")
    if m == 1:
        return False
    for p in _SMALL_PRIMES:
        if m % p == 0:
            return m == p
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if m < DETERMINISTIC_MR_LIMIT:
        return not any(_mr_witness(a, d, s, m) for a in _MR_BASES)
    return not _mr_witness(2, d, s, m) and _strong_lucas_prp(m)


def v_p(m: int, p: int) -> int:
    """Largest k with p^k dividing m; m must be nonzero and p >= 2."""
    if p < 2:
        raise ValueError("valuation needs a base p >= 2")
    if m == 0:
        raise ValueError("valuation of 0 is undefined")
    m = abs(m)
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k


def distinct_primes(n: int) -> list[int]:
    """Distinct primes dividing n >= 1, ascending, by trial division (meant
    for small n such as orbit indices)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    primes = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return primes


# Mantissa width of the size brackets in compare_sums.  Each rounding moves
# a bound by at most a relative 2^(1 - _MANTISSA_BITS), so the brackets of
# a^k are about k * 2^-92 wide: only near-ties reach the exact fallback.
_MANTISSA_BITS = 96
# Up to this many bits on both sides, the exact sums cost less than brackets.
_EXACT_BITS = 4096
Term = Sequence[tuple[Fraction | int, int]]  # prod(b^k) for rationals b >= 0


def _round(m: int, s: int, up: bool) -> tuple[int, int]:
    """m * 2^s cut to _MANTISSA_BITS bits, rounded down (or up when ``up``)."""
    extra = m.bit_length() - _MANTISSA_BITS
    if extra <= 0:
        return m, s
    return (-(-m >> extra) if up else m >> extra), s + extra


def _power_bracket(powers: Sequence[tuple[int, int]], up: bool) -> tuple[int, int]:
    """(m, s) with m * 2^s <= prod(a^k) (>= when ``up``) for integers a >= 0.

    Square-and-multiply on truncated mantissas: every operand is
    nonnegative, so rounding each product down (up) keeps a lower (upper)
    bound, and a^k is never built.
    """
    m, s = 1, 0
    for a, k in powers:
        am, as_ = _round(a, 0, up)
        pm, ps = 1, 0
        for bit in bin(k)[2:]:
            pm, ps = _round(pm * pm, 2 * ps, up)
            if bit == "1":
                pm, ps = _round(pm * am, ps + as_, up)
        m, s = _round(m * pm, s + ps, up)
    return m, s


def _term_bracket(term: Term, up: bool) -> tuple[int, int]:
    """(m, s) with m * 2^s <= prod(b^k) (>= when ``up``) for rationals b >= 0:
    the numerators' bracket over the denominators' bracket rounded the other
    way, the quotient rounded the same way and cut to _MANTISSA_BITS."""
    m, s = _power_bracket([(b.numerator, k) for b, k in term], up)
    dens = [(b.denominator, k) for b, k in term if b.denominator > 1]
    if not dens:
        return m, s
    dm, ds = _power_bracket(dens, not up)
    shift = _MANTISSA_BITS + dm.bit_length()
    return _round(-(-(m << shift) // dm) if up else (m << shift) // dm, s - ds - shift, up)


def _grid_sum(brackets: Sequence[tuple[int, int]], grid: int, up: bool) -> int:
    """The sum of the brackets in units of 2^grid, each rounded down (up when
    ``up``): compare_sums puts the grid _MANTISSA_BITS below the top term of
    either side, so a term far below it only drops low bits."""
    return sum(
        m << (s - grid) if s >= grid else -(-m >> (grid - s)) if up else m >> (grid - s)
        for m, s in brackets
    )


def _exact_sign(lhs: Sequence[Term], rhs: Sequence[Term]) -> int:
    """The sign of sum(lhs) - sum(rhs) from exact integer sums, cross-multiplied."""
    num, den = 0, 1  # sum(lhs) - sum(rhs) = num / den, den > 0
    for sign, side in ((1, lhs), (-1, rhs)):
        for term in side:
            n = d = 1
            for b, k in term:
                n, d = n * b.numerator**k, d * b.denominator**k
            num, den = num * d + sign * n * den, den * d
    return (num > 0) - (num < 0)


def compare_sums(lhs: Sequence[Term], rhs: Sequence[Term], *, exact: bool = True) -> int:
    """The sign of sum(lhs) - sum(rhs), for sides of terms: lists of (b, k) pairs
    standing for prod(b^k), rationals b >= 0 and integers k >= 0 (an empty term
    is 1, an empty side 0, and 0^0 = 1).  Past ``_EXACT_BITS``, each term is
    bracketed as given, and disjoint sums of the brackets on one grid decide, so
    a degree-sized power is never built.  Otherwise (small sides, a tie or a
    near-tie) an exact integer sum of the same terms decides: no Fraction, no
    float.  With ``exact=False`` a near-tie past ``_EXACT_BITS`` gives 0 instead,
    for a screen that would build those sums anyway if it cannot decide.
    """
    bits = 0
    for term in chain(lhs, rhs):
        for b, k in term:
            bits += (b.numerator.bit_length() + b.denominator.bit_length()) * k
    if bits > _EXACT_BITS:
        highs = [[_term_bracket(t, True) for t in side] for side in (lhs, rhs)]
        grid = max((m.bit_length() + s for m, s in chain(*highs) if m), default=0) - _MANTISSA_BITS
        lhs_hi, rhs_hi = (_grid_sum(side, grid, True) for side in highs)
        lhs_lo, rhs_lo = (_grid_sum([_term_bracket(t, False) for t in side], grid, False)
                          for side in (lhs, rhs))
        sign = (rhs_hi < lhs_lo) - (lhs_hi < rhs_lo)
        if sign or not exact:
            return sign
    return _exact_sign(lhs, rhs)


# Trial division strips every prime up to this bound.
TRIAL_BOUND = 1_000_000
# Width of a sieve segment.  TRIAL_BOUND is a multiple of it (and not prime),
# so the segments hold exactly the primes <= TRIAL_BOUND, and segment 0 holds
# every prime up to isqrt(TRIAL_BOUND).  A segment's product is about 72k
# bits; the gcds against all 20 together cost what one gcd against the
# 1.44M-bit primorial would.
_SEGMENT = 50_000


def _product(nums: tuple[int, ...]) -> int:
    # balanced product tree: all 20 segments in 0.07 s where math.prod takes
    # 0.19 s (CPython 3.11 on one Xeon core)
    while len(nums) > 1:
        nums = tuple(
            nums[i] * nums[i + 1] if i + 1 < len(nums) else nums[i]
            for i in range(0, len(nums), 2)
        )
    return nums[0] if nums else 1


@cache
def _segment_primes(i: int) -> tuple[int, ...]:
    """The primes in [i * _SEGMENT, (i + 1) * _SEGMENT), sieved with those of
    segment 0 the first time trial division reaches segment i."""
    lo, hi = i * _SEGMENT, (i + 1) * _SEGMENT
    sieve = bytearray([1]) * _SEGMENT
    if i == 0:
        sieve[:2] = b"\x00\x00"
    for p in _segment_primes(0) if i else range(2, isqrt(hi - 1) + 1):
        if p * p >= hi:
            break
        if i or sieve[p]:
            start = max(p * p, -(-lo // p) * p) - lo
            sieve[start::p] = bytes(len(range(start, _SEGMENT, p)))
    return tuple(compress(range(lo, hi), sieve))


@cache
def _block_product(i: int) -> int:
    """The product of segment i, built the first time trial division reaches it."""
    return _product(_segment_primes(i))


def trial_division(m: int) -> tuple[dict[int, int], int]:
    """Strip all prime factors <= TRIAL_BOUND from m; return ({p: e}, remaining)."""
    if m < 1:
        raise ValueError("trial_division expects a positive integer")
    found: dict[int, int] = {}
    if m == 1:
        return found, 1
    # one gcd per segment product finds the squarefree product of the
    # segment's prime divisors; scanning that small product is then cheap
    for i in range(TRIAL_BOUND // _SEGMENT):
        g = gcd(m, _block_product(i))
        if g == 1:
            continue
        for p in _segment_primes(i):
            if g % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                found[p] = e
                g //= p
                if g == 1:
                    break
        if m == 1:
            break
    return found, m


# Work units approximate 64-bit word multiplies; a floor of 256 per step
# reflects interpreter overhead so the default budget stays desk-scale.
_RHO_STEP_FLOOR = 256
_PRIME_CHECK_FLOOR_BITS = 2048


def _rho_cost(n: int) -> int:
    words = (n.bit_length() + 63) // 64
    return max(_RHO_STEP_FLOOR, words * words)


def _prime_check_cost(n: int) -> int:
    words = (n.bit_length() + 63) // 64
    return n.bit_length() * words * words


def _budgeted_is_prime(n: int, budget: int) -> tuple[bool | None, int]:
    """is_prime unless a single test would dwarf the remaining budget.

    Returns (verdict or None when skipped, work charged).  Small operands are
    always tested; huge ones are left unresolved rather than stalling.
    """
    cost = _prime_check_cost(n)
    if n.bit_length() > _PRIME_CHECK_FLOOR_BITS and cost > budget:
        return None, 0
    return is_prime(n), cost


def _brent_rho(n: int, budget: int, rng: random.Random) -> tuple[int | None, int]:
    """One Brent-cycle factor hunt; returns (factor or None, work spent).

    The budget is a hard cap.  Before each stretch of work that ends in a
    gcd (the r steps of a new cycle length with its first batch, each later
    batch, each step of the backtrack) the hunt stops if that gcd would land
    past the budget.  So with s the spend of an unbudgeted hunt, a budget
    b >= s returns what that hunt returns, and b < s returns (None, spent)
    with spent <= b.
    """
    cost = _rho_cost(n)
    spent = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m_batch = 128
        r, q, g = 1, 1, 1
        x = ys = y
        while g == 1:
            if spent + (r + 2 * min(m_batch, r)) * cost > budget:
                return None, spent
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            spent += r * cost
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m_batch, r - k)
                if spent + 2 * steps * cost > budget:
                    return None, spent
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                spent += 2 * steps * cost
                g = gcd(q, n)
                k += m_batch
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                if spent + 2 * cost > budget:
                    return None, spent
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
                spent += 2 * cost
        if g < n:
            return g, spent
        # unlucky cycle: retry with fresh parameters


@dataclass(frozen=True)
class FactorReport:
    """Partial factorization: input = prod(p^e) * cofactor.

    cofactor_status "composite_unfactored" also covers cofactors whose
    primality was never established because the work budget ran out first.
    The rho budget is a hard cap on the hunts of one ``factor`` call: each
    hunt stops before a gcd that would land past what is left.  So no hunt
    spends more than is left, a later cofactor may still get a short hunt,
    and a factor found only past the budget stays in the cofactor.
    """

    input: int
    factored: tuple[tuple[int, int], ...]
    cofactor: int
    cofactor_status: str  # "one" | "probable_prime" | "composite_unfactored"

    def reconstruct(self) -> int:
        acc = self.cofactor
        for p, e in self.factored:
            acc *= p**e
        return acc

    @property
    def complete(self) -> bool:
        return self.cofactor == 1


def factor(
    m: int,
    *,
    rho_budget: int = DEFAULT_RHO_BUDGET,
) -> FactorReport:
    """Trial division then budgeted Brent rho; never fails, may leave a cofactor."""
    if m < 1:
        raise ValueError("factor expects a positive integer")
    if m == 1:
        return FactorReport(1, (), 1, "one")
    found, rest = trial_division(m)
    budget = rho_budget
    pending = [rest] if rest > 1 else []
    probable: list[int] = []  # probable primes past DETERMINISTIC_MR_LIMIT
    unfactored: list[int] = []
    while pending:
        n = pending.pop()
        verdict, spent = _budgeted_is_prime(n, budget)
        budget -= spent
        if verdict:
            if n < DETERMINISTIC_MR_LIMIT:
                found[n] = found.get(n, 0) + 1
            else:
                probable.append(n)
            continue
        divisor = None
        if verdict is not None and budget > 0:
            divisor, spent = _brent_rho(n, budget, random.Random(n % (1 << 61)))
            budget -= spent
        if divisor is None:
            unfactored.append(n)
        else:
            pending += [divisor, n // divisor]
    cofactor = prod(probable) * prod(unfactored)
    if cofactor == 1:
        status = "one"
    elif len(probable) == 1 and not unfactored:
        status = "probable_prime"
    else:
        status = "composite_unfactored"
    factored = tuple(sorted(found.items()))
    return FactorReport(m, factored, cofactor, status)
