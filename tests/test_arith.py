import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from zsig import arith, factor, is_prime, v_p
from zsig.arith import (
    DETERMINISTIC_MR_LIMIT,
    TRIAL_BOUND,
    _brent_rho,
    _mr_witness,
    compare_sums,
    distinct_primes,
    sum_bracket,
    trial_division,
)


def _sieve(n):
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return flags


def test_is_prime_examples():
    assert is_prime(677)
    assert not is_prime(458330)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(45833)


def test_is_prime_rejects_nonpositive():
    with pytest.raises(ValueError):
        is_prime(0)


def test_is_prime_small_range_vs_sieve():
    flags = _sieve(200_000)
    for m in range(1, 200_001):
        assert is_prime(m) == bool(flags[m]), m


def test_is_prime_random_tier_vs_sympy():
    rng = random.Random(0)
    for _ in range(300):
        m = rng.randrange(2, 10**12)
        assert is_prime(m) == sympy.isprime(m), m


def test_is_prime_large():
    # 2^89 - 1 is a Mersenne prime; its neighbours are not
    m = 2**89 - 1
    assert is_prime(m)
    assert not is_prime(m - 2)
    assert not is_prime(m + 2)


def _odd_part(m):
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return d, s


@pytest.mark.parametrize("k", [13682706, 13683550, 13689270])
def test_is_prime_lucas_half_rejects_base2_pseudoprimes(k):
    # Chernick numbers (6k+1)(12k+1)(18k+1) just above the deterministic
    # range that are strong pseudoprimes to base 2: only the Lucas test of
    # Baillie-PSW can reject them
    primes = (6 * k + 1, 12 * k + 1, 18 * k + 1)
    assert all(sympy.isprime(p) for p in primes)
    m = primes[0] * primes[1] * primes[2]
    assert m > DETERMINISTIC_MR_LIMIT
    assert not _mr_witness(2, *_odd_part(m), m)
    assert not is_prime(m)


# psi_k, the smallest strong pseudoprime to all of the first k prime bases
# (psi_8 = psi_7, psi_11 = psi_10 = psi_9).  psi_13 is DETERMINISTIC_MR_LIMIT
# itself, decided by the Baillie-PSW branch.
_PSI = {
    1: 2047,
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    7: 341550071728321,
    9: 3825123056546413051,
    12: 318665857834031151167461,
    13: 3317044064679887385961981,
}


@pytest.mark.parametrize("k, m", sorted(_PSI.items()))
def test_is_prime_rejects_smallest_strong_pseudoprimes(k, m):
    # every base below the k-th prime is fooled, so dropping any of the 13
    # bases would let psi_12 through as a prime
    bases = list(sympy.primerange(2, sympy.prime(k) + 1))
    assert len(bases) == k
    assert not any(_mr_witness(a, *_odd_part(m), m) for a in bases)
    assert not is_prime(m)
    assert (m < DETERMINISTIC_MR_LIMIT) == (k < 13)


def test_is_prime_beyond_deterministic_range_vs_sympy():
    rng = random.Random(5)
    cases = [rng.randrange(DETERMINISTIC_MR_LIMIT, 2**512) | 1 for _ in range(200)]
    cases += [sympy.nextprime(rng.randrange(DETERMINISTIC_MR_LIMIT, 2**512)) for _ in range(20)]
    for _ in range(40):
        bits = rng.randrange(42, 256)
        p = sympy.nextprime(rng.randrange(2 ** (bits - 1), 2**bits))
        q = sympy.nextprime(rng.randrange(DETERMINISTIC_MR_LIMIT >> (bits - 1), 2 ** (512 - bits)))
        cases.append(p * q)
    for m in cases:
        assert m > DETERMINISTIC_MR_LIMIT
        assert is_prime(m) == sympy.isprime(m), m


@pytest.mark.exhaustive
def test_is_prime_exhaustive_to_ten_million():
    flags = _sieve(10_000_000)
    for m in range(1, 10_000_001):
        assert is_prime(m) == bool(flags[m]), m


def test_v_p_examples():
    assert v_p(26, 2) == 1
    assert v_p(26, 13) == 1
    assert v_p(8, 2) == 3
    assert v_p(-24, 2) == 3
    assert v_p(7, 2) == 0
    with pytest.raises(ValueError):
        v_p(0, 3)


@pytest.mark.parametrize("p", [-1, 0, 1])
def test_v_p_rejects_bases_below_two(p):
    # p = +-1 divides every m any number of times; p = 0 divides nothing
    with pytest.raises(ValueError):
        v_p(5, p)


@given(
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=10**9),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_v_p_additive(a, b, p):
    assert v_p(a * b, p) == v_p(a, p) + v_p(b, p)


@given(st.integers(min_value=1, max_value=10**5))
def test_distinct_primes_matches_sympy(n):
    assert distinct_primes(n) == sorted(sympy.primefactors(n))


def test_distinct_primes_rejects_nonpositive():
    for n in (0, -6):
        with pytest.raises(ValueError):
            distinct_primes(n)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


_bases = st.one_of(
    st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=2**200)
)
_power_lists = st.lists(st.tuples(_bases, st.integers(min_value=0, max_value=30)), max_size=4)


@given(_power_lists, _power_lists)
@example([], [])
@example([(0, 0)], [])  # 0^0 = 1
@example([(0, 3)], [])
@example([(0, 3), (7, 2)], [(0, 1)])
@example([(5, 0), (2, 10)], [(4, 5)])  # equal products from other bases
@example([(2**200 + 1, 30)], [(2**200, 30)])
def test_compare_powers_matches_exact_products(lhs, rhs):
    left = math.prod(a**k for a, k in lhs)
    right = math.prod(b**k for b, k in rhs)
    assert compare_sums([lhs], [rhs]) == _sign(left - right)
    assert compare_sums([rhs], [lhs]) == _sign(right - left)
    assert compare_sums([lhs], [lhs[::-1]]) == 0


def test_compare_powers_decides_huge_exponents_from_brackets():
    # 1584962 < 10^6 log2 3 < 1584963, and neither side is ever built
    assert compare_sums([[(3, 10**6)]], [[(2, 1584962)]]) == 1
    assert compare_sums([[(3, 10**6)]], [[(2, 1584963)]]) == -1
    assert compare_sums([[(2, 10**12)]], [[(2, 10**12 - 1), (3, 1)]]) == -1


_nonneg = st.fractions(min_value=0, max_value=50, max_denominator=50)


@given(
    st.fractions(max_denominator=10**6).filter(lambda x: x != 0),
    st.one_of(_nonneg, st.integers(min_value=0, max_value=3**20)),
    _nonneg,
    st.integers(min_value=0, max_value=40),
)
def test_compare_sums_matches_fraction_form_of_a_scaled_power(value, scale, base, expo):
    assert compare_sums([[(abs(value), 1)]], [[(scale, 1), (base, expo)]]) == _sign(
        abs(value) - Fraction(scale) * base**expo
    )


def _counting_exact(mp):
    """Count the comparisons that reach the exact sums."""
    calls, exact = [], arith._exact_sign
    mp.setattr(arith, "_exact_sign", lambda lhs, rhs: calls.append(1) or exact(lhs, rhs))
    return calls


@settings(max_examples=10, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9).filter(
        lambda b: b != 1
    ),
    st.one_of(
        st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
        st.integers(min_value=1, max_value=3**20),
    ),
    st.integers(min_value=99_990, max_value=100_010),
    st.sampled_from([-1, 0, 1]),
    st.booleans(),
)
@example(Fraction(3, 2), 1, 100_000, 0, False)
@example(Fraction(2, 3), Fraction(7, 5), 100_001, -1, True)
def test_compare_sums_falls_back_on_near_ties_of_single_terms(base, scale, expo, ulp, negative):
    # |value| and scale * base^expo are equal, or one unit apart in the larger
    # of a numerator and a denominator of ~300k bits: the brackets overlap
    # and only the exact products decide
    target = Fraction(scale) * base**expo
    n, d = target.numerator, target.denominator
    value = Fraction(n + ulp, d) if n > d else Fraction(n, d + ulp)
    value = -value if negative else value
    powers = [[(scale, 1), (base, expo)]]
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_exact(mp)
        assert compare_sums([[(abs(value), 1)]], powers) == _sign(abs(value) - target)
        assert calls
        calls.clear()
        # a factor of 2 apart, the brackets alone decide
        assert compare_sums([[(2 * target, 1)]], powers) == 1
        assert compare_sums([[(target / 2, 1)]], powers) == -1
        assert not calls


_term_bases = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.builds(
        Fraction, st.integers(min_value=0, max_value=2**200), st.integers(min_value=1, max_value=2**100)
    ),
)


@given(st.lists(st.tuples(_term_bases, st.integers(min_value=0, max_value=60)), max_size=3))
@example([])
@example([(Fraction(1, 3), 60)])
@example([(Fraction(0, 5), 0), (Fraction(7, 3), 1)])  # 0^0 = 1
@example([(Fraction(2**200 - 1, 2**100 - 1), 60), (Fraction(1, 2**100), 60), (3, 60)])
def test_term_bracket_holds_the_exact_product(term):
    exact = math.prod((Fraction(b) ** k for b, k in term), start=Fraction(1))
    (lo, lo_s), (hi, hi_s) = (arith._term_bracket(term, up) for up in (False, True))
    low, high = lo * Fraction(2) ** lo_s, hi * Fraction(2) ** hi_s
    assert low <= exact <= high
    # cut to the mantissa width, and still tight enough to decide
    assert max(lo, hi).bit_length() <= arith._MANTISSA_BITS
    assert high - low <= exact / 2**80


def test_compare_sums_decides_far_apart_rational_sides_from_brackets():
    # (3/2)^(10^6) is about 2^584963, far above 2^(10^5) + (1/7)^3; (2/3)^(10^6)
    # is about 2^(-584963), far above (1/2)^(10^6)
    big, small = [[(Fraction(3, 2), 10**6)]], [[(2, 10**5)], [(Fraction(1, 7), 3)]]
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_exact(mp)
        assert compare_sums(big, small) == 1
        assert compare_sums(small, big) == -1
        assert compare_sums([[(Fraction(2, 3), 10**6)]], [[(Fraction(1, 2), 10**6)]]) == 1
        assert compare_sums([[(Fraction(1, 2), 10**6)]], [[(Fraction(2, 3), 10**6)]]) == -1
        assert not calls


_sum_bases = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=2**200),
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**6),
    st.fractions(min_value=0, max_value=2**100, max_denominator=2**100),
)
_sides = st.lists(
    st.lists(st.tuples(_sum_bases, st.integers(min_value=0, max_value=60)), max_size=3),
    max_size=4,
)


def _fraction_sum(side) -> Fraction:
    return sum((math.prod((Fraction(b) ** k for b, k in term), start=Fraction(1))
                for term in side), Fraction(0))


@settings(deadline=None)
@given(_sides, _sides)
@example([], [])
@example([[]], [])  # an empty term is 1
@example([[(0, 0)]], [[]])  # 0^0 = 1
@example([[(0, 5)], [(Fraction(1, 3), 0)]], [[], []])
@example([[(2**200, 60)], [(1, 1)]], [[(2**200, 60)]])  # the 1 falls below the grid
@example([[(Fraction(2**200, 3), 60)], [(Fraction(1, 7), 3)]], [[(Fraction(2**200, 3), 60)]])
@example([[(Fraction(3, 2), 60), (Fraction(2, 3), 60)]], [[]])  # the bases cancel to a tie
@example([[(2**200, 30)], [(2**200, 30)]], [[(2, 6001)]])  # two terms add up to a tie
@example([[(Fraction(5, 4), 5000)], [(Fraction(4, 5), 5000)]], [[(Fraction(5, 4), 5000)], [], []])
@example([[(Fraction(3, 2), 3000)]], [[(Fraction(3, 2), 2999)], [(Fraction(3, 2), 2999)]])
# 64 terms below the grid of 2^6000 add up to two of its units, one more than rhs has
@example([[(2, 6000)]] + [[(2, 5900)]] * 64, [[(2, 6000)], [(2, 5905)]])
def test_compare_sums_matches_fraction_sums(lhs, rhs):
    left, right = _fraction_sum(lhs), _fraction_sum(rhs)
    assert compare_sums(lhs, rhs) == _sign(left - right)
    assert compare_sums(rhs, lhs) == _sign(right - left)
    assert compare_sums(lhs + rhs, rhs[::-1] + lhs[::-1]) == 0


@settings(deadline=None)
@given(_sides, _sides)
@example([[(Fraction(1, 3), 5000)]], [])  # a grid below 2^0
@example([[(2**200, 60)], [(1, 1)]], [[(2**200, 60)]])
def test_sum_bracket_holds_the_exact_difference(lhs, rhs):
    # compare_sums reads its sign from this bracket, and an unbuilt orbit
    # entry keeps it for every size question about its Horner sum
    lo, hi, e = sum_bracket(lhs, rhs)
    assert lo * Fraction(2) ** e <= _fraction_sum(lhs) - _fraction_sum(rhs) <= hi * Fraction(2) ** e


@settings(max_examples=10, deadline=None)
@given(
    st.fractions(min_value=Fraction(10, 9), max_value=9, max_denominator=9),
    st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
    st.integers(min_value=99_990, max_value=100_010),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
@example(Fraction(3, 2), Fraction(7, 5), 100_000, 1, 0)
@example(Fraction(9, 8), 1, 100_001, 2, 2)
def test_compare_sums_falls_back_on_near_ties(base, scale, expo, u, v):
    # sums of ~300k-bit terms that differ by u - v, at most 2: the brackets
    # overlap and only the exact sums decide
    terms = [[(scale, 1), (base, expo)], [(base, expo - 7)]]
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_exact(mp)
        assert compare_sums(terms + [[(u, 1)]], terms + [[(v, 1)]]) == _sign(u - v)
        assert calls
        calls.clear()
        # without the fallback the near-tie stays undecided
        assert compare_sums(terms + [[(u, 1)]], terms + [[(v, 1)]], exact=False) == 0
        # against twice the terms, the brackets alone decide
        assert compare_sums(terms + [[(u, 1)]], terms + terms) == -1
        assert compare_sums(terms + terms, [[(v, 1)]] + terms) == 1
        assert not calls


def test_factor_examples():
    rep = factor(765)
    assert rep.factored == ((3, 2), (5, 1), (17, 1))
    assert rep.cofactor == 1 and rep.cofactor_status == "one"
    rep = factor(677)
    assert rep.factored == ((677, 1),)
    rep = factor(1)
    assert rep.factored == () and rep.cofactor == 1 and rep.cofactor_status == "one"


def test_factor_reconstructs():
    rng = random.Random(1)
    for _ in range(60):
        m = rng.randrange(2, 10**14)
        rep = factor(m, rho_budget=10**6)
        assert rep.cofactor * math.prod(p**e for p, e in rep.factored) == m
        for p, e in rep.factored:
            assert e >= 1
            assert is_prime(p)


def test_factor_matches_sympy_when_complete():
    rng = random.Random(2)
    for _ in range(40):
        m = rng.randrange(2, 10**10)
        rep = factor(m, rho_budget=10**6)
        if rep.complete:
            assert dict(rep.factored) == sympy.factorint(m)


def test_factor_deterministic():
    # rho runs on the 120-bit cofactor; its seed depends on that number
    # alone, not on the global random state
    m = 1_000_000_007 * 998_244_353 * (2**61 - 1)
    random.seed(1)
    a = factor(m, rho_budget=10**6)
    random.seed(2)
    b = factor(m, rho_budget=10**6)
    assert a == b and a.cofactor * math.prod(p**e for p, e in a.factored) == m


def test_factor_budget_exhaustion_reports_cofactor():
    # product of two 15-digit primes is far beyond a tiny rho budget
    p, q = 1_000_000_000_000_037, 1_000_000_000_000_091
    rep = factor(p * q, rho_budget=1_000)
    assert rep.cofactor == p * q
    assert rep.cofactor_status == "composite_unfactored"
    assert rep.cofactor * math.prod(r**e for r, e in rep.factored) == p * q


def test_factor_loses_a_factor_found_only_past_the_budget():
    # unbudgeted, rho spends 1_178_880 units to find 1_000_003, after a
    # 50-unit prime check; a unit less and the hunt stops without it
    p, q = 1_000_003, 1_000_000_007
    for budget in (10**6, 1_178_929):
        rep = factor(p * q, rho_budget=budget)
        assert rep.cofactor == p * q
        assert rep.cofactor_status == "composite_unfactored"
    rep = factor(p * q, rho_budget=1_178_930)
    assert rep.complete and rep.factored == ((p, 1), (q, 1))


@pytest.mark.parametrize("budget", [3 * 10**5, 10**6])
def test_failing_brent_hunt_never_overruns(budget):
    # rho needs far more than either budget to split two 60-bit primes
    n = 1_000_000_000_000_037 * 1_000_000_000_000_091
    divisor, spent = _brent_rho(n, budget, random.Random(n % 2**61))
    assert divisor is None and spent <= budget


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2**7, max_value=2**26),
    st.integers(min_value=40, max_value=90),
    st.integers(min_value=1, max_value=2000),
)
# both cycles close in one batch, so these hunts take the g == n backtrack
@example(633_248, 40, 1000)
@example(50_377_940, 52, 999)
def test_brent_rho_budget_only_cuts_a_hunt_short(small, bits, permille):
    # a semiprime of about ``bits`` bits whose smaller factor rho finds fast
    p = sympy.nextprime(small)
    q = sympy.nextprime(2 ** (bits - 1) // p)
    n = p * q
    g, s = _brent_rho(n, 10**12, random.Random(n % 2**61))
    assert g in (p, q)
    for budget in (1, s - 1, s, max(1, s * permille // 1000)):
        divisor, spent = _brent_rho(n, budget, random.Random(n % 2**61))
        if budget >= s:
            assert (divisor, spent) == (g, s)
        else:
            assert divisor is None and spent <= budget


def test_trial_division_huge_input():
    m = (2**300 + 1) * 3**5 * 999983
    found, rest = trial_division(m)
    assert found[3] == 5
    assert found[999983] >= 1
    acc = rest
    for p, e in found.items():
        acc *= p**e
    assert acc == m


def test_trial_division_builds_only_the_blocks_it_reaches():
    # 3^45 is done after the first segment, so no later one is sieved or built
    arith._segment_primes.cache_clear()
    arith._block_product.cache_clear()
    assert trial_division(3**45) == ({3: 45}, 1)
    assert arith._segment_primes.cache_info().currsize == 1
    assert arith._block_product.cache_info().currsize == 1


def test_sieve_segments_hold_the_primes_up_to_the_bound_in_order():
    segments = [arith._segment_primes(i) for i in range(TRIAL_BOUND // arith._SEGMENT)]
    assert len(segments) == 20
    assert [p for segment in segments for p in segment] == list(sympy.primerange(2, 10**6 + 1))
    assert segments[0][-1] ** 2 > TRIAL_BOUND  # segment 0 sieves every other segment


def test_trial_division_across_prime_blocks():
    rng = random.Random(3)
    small = list(sympy.primerange(2, 10**6))
    for _ in range(10):
        chosen = {p: rng.randint(1, 3) for p in rng.sample(small, 6)}
        big = sympy.nextprime(2**80 + rng.randrange(2**40))
        m = big
        for p, e in chosen.items():
            m *= p**e
        assert trial_division(m) == (chosen, big)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=2**64 - 1),
    st.lists(st.integers(min_value=TRIAL_BOUND, max_value=2**80), max_size=2),
)
@example(1, [])
@example(999_983, [])
@example(999_983**2, [])
@example(1_000_003 * 1_000_033, [])
@example(1, [TRIAL_BOUND, 2**70])
def test_trial_division_matches_sympy(small, rough_starts):
    # m is a <= 64-bit part times primes above the bound, so both sizes of
    # input take the one block path; sympy factors the small part
    factors = sympy.factorint(small)
    m = small
    for start in rough_starts:
        p = sympy.nextprime(start)
        factors[p] = factors.get(p, 0) + 1
        m *= p
    rest = 1
    for p, e in factors.items():
        if p > TRIAL_BOUND:
            rest *= p**e
    assert trial_division(m) == ({p: e for p, e in factors.items() if p <= TRIAL_BOUND}, rest)
