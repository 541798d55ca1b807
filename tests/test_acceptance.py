"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any assertion failure marks that criterion red.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from zsig import (
    FiniteOrbitError,
    canonical_height_interval,
    check_zsigmondy_divisibility,
    family_C,
    global_height,
    ingram_lower_bound,
    lemma41_lower_bound,
    omega_inequality_audit,
    orbit,
    parse_poly,
    theorem1_bound,
    trinomial_D_lower,
    verify,
    zsigmondy_set,
)
from zsig.cli import main
from zsig.heights import hypothesis_abs_c_exceeds
from zsig.verifiers import binomial, trinomial
from tests.conftest import LEAN, oracle_elements

F = Fraction

BINOMIAL_CS = [F(1), F(-1), F(2), F(-2), F(3), F(5, 2), F(7, 2), F(-7, 3)]
TRINOMIAL_CS = [F(5, 2), F(-5, 2), F(3, 2), F(1, 2), F(-2, 3), F(-3, 2)]
TRINOMIAL_DES = [(3, 2), (4, 2), (4, 3), (5, 2)]

CORPUS = [binomial(d, c) for d in (2, 3, 4) for c in BINOMIAL_CS] + [
    trinomial(d, e, c) for (d, e) in TRINOMIAL_DES for c in TRINOMIAL_CS
]


def _passed(number: int, note: str) -> None:
    print(f"[criterion {number:2d}] PASS  {note}")


@pytest.fixture(scope="module")
def corpus(request):
    """Zsigmondy reports for the whole corpus at N=8; computed once.

    The elapsed wall time is stored so criterion 2 can charge it against its
    runtime budget.
    """
    start = time.monotonic()
    data = {}
    for f in CORPUS:
        try:
            entries = orbit(f, 8).entries
        except FiniteOrbitError:
            entries = None
        if entries is None or len(entries) < 8:
            data[str(f)] = (f, None, None)
            continue
        try:
            rep = zsigmondy_set(f, 8, LEAN)
        except FiniteOrbitError:
            data[str(f)] = (f, None, None)
            continue
        data[str(f)] = (f, entries, rep)
    elapsed = time.monotonic() - start
    return data, elapsed


def test_criterion_01_orbit_exactness():
    start = time.monotonic()
    orb = orbit(parse_poly("1,0,1"), 6)
    assert [e.A for e in orb.entries] == [1, 2, 5, 26, 677, 458330]
    assert all(e.B == 1 for e in orb.entries)
    orb2 = orbit(parse_poly("5/2,0,0,1"), 3)
    assert [(e.A, e.B) for e in orb2.entries] == [
        (5, 2), (145, 8), (3049905, 512),
    ]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passed(1, f"orbit values exact ({elapsed:.3f}s)")


def test_criterion_02_stripping_matches_factorization_oracle(corpus):
    data, fixture_elapsed = corpus
    start = time.monotonic()
    mismatches = []
    compared = 0
    finite = 0
    for name, (f, entries, rep) in data.items():
        if rep is None:
            finite += 1
            continue
        oracle = oracle_elements(entries)
        for v in rep.per_index:
            expected = oracle[v.n]
            if expected is None:
                continue
            compared += 1
            if (not v.has_primitive) != expected:
                mismatches.append((name, v.n))
    elapsed = fixture_elapsed + (time.monotonic() - start)
    assert mismatches == []
    assert compared >= 150
    assert elapsed < 120.0
    _passed(
        2,
        f"{compared} settled indices agree with the factorization oracle "
        f"({finite} finite orbits skipped, {elapsed:.1f}s)",
    )


def test_criterion_03_rigid_divisibility(corpus):
    data, _ = corpus
    start = time.monotonic()
    checked_polys = 0
    checked_primes = 0
    for name, (f, entries, rep) in data.items():
        if rep is None:
            continue
        checked_polys += 1
        assert rep.rigid_violations == [], name
        checked_primes += len(rep.k_table)
        for n in rep.elements:
            assert check_zsigmondy_divisibility(entries, n), (name, n)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _passed(
        3,
        f"no valuation-law violations over {checked_polys} polynomials / "
        f"{checked_primes} tabulated primes; divisibility holds at all elements "
        f"({elapsed:.1f}s)",
    )


def test_criterion_04_integer_constant_families(corpus):
    data, _ = corpus
    name = str(binomial(2, F(1)))
    _, _, rep = data[name]
    assert rep.elements == [1]
    checked = 0
    for d in (2, 3, 4):
        for c in (F(1), F(-1)):
            _, _, rep = data[str(binomial(d, c))]
            if rep is None:
                continue
            assert set(rep.elements) <= {1, 2}, (d, c)
            checked += 1
        for c in (F(2), F(-2), F(3)):
            _, _, rep = data[str(binomial(d, c))]
            if rep is None:
                continue
            assert rep.elements == [], (d, c)
            checked += 1
    _passed(4, f"z^2+1 gives exactly {{1}}; {checked} integer-constant cases conform")


def test_criterion_05_cor12_reproduction():
    c = F(7, 2)
    assert hypothesis_abs_c_exceeds(c, 3)
    hc = global_height(c)
    res = theorem1_bound(binomial(3, c), hc / 3, family_C(c))
    # independent evaluation of the same closed form
    expected = 2 / math.log(3) * math.log(3 * (math.log(2) + hc) / (2 * hc / 3)) + 2
    assert abs(res.n_max - expected) <= 1e-6
    assert 5.0 <= res.n_max < 6.0
    assert res.n_max_floor == 5
    verdict = verify("cor12", 3, c, None, LEAN, horizon=8)
    assert verdict.hypothesis_ok and verdict.consistent
    assert verdict.observed_elements == []
    _passed(5, f"n_max = {res.n_max:.6f} -> n <= 5, observed set empty")


def test_criterion_06_thm13_reproduction(tmp_path, capsys):
    points = [
        (d, e, c) for (d, e) in TRINOMIAL_DES for c in TRINOMIAL_CS if abs(c) > 2
    ]
    assert points
    for d, e, c in points:
        v = verify("thm13", d, c, e, LEAN, horizon=8)
        assert v.hypothesis_ok, (d, e, c)
        assert v.details["n_max"] < 7, (d, e, c)
        assert all(n <= 6 for n in v.observed_elements), (d, e, c)
        assert v.consistent, (d, e, c)
    # one deep check at the default horizon
    v = verify("thm13", 4, F(5, 2), 2, LEAN)
    assert v.details["horizon_used"] == 10 and v.consistent
    # the same grid through the CLI sweep must exit 0
    spec = {
        "family": "z^d+z^e+c",
        "d": [3, 4, 5],
        "e": [2, 3],
        "c": ["5/2", "-5/2"],
        "horizon": 8,
    }
    spec_path = tmp_path / "thm13.json"
    spec_path.write_text(json.dumps(spec))
    code = main(
        ["sweep", str(spec_path), "-o", str(tmp_path / "thm13.jsonl"),
         "--rho-budget", "200000"]
    )
    capsys.readouterr()
    assert code == 0
    _passed(6, f"{len(points)} corpus points bounded below 7 with elements in [1,6]")


def test_criterion_07_small_c_propositions():
    lean = LEAN
    results = {}

    prop51_points = [
        (d, e, c)
        for (d, e) in ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3))
        for c in (F(3, 2), F(5, 3), F(7, 4), F(9, 8), F(13, 7))
    ]
    checked = other_units = 0
    for d, e, c in prop51_points:
        v = verify("prop51", d, c, e, lean, horizon=8)
        assert v.hypothesis_ok and v.consistent, (d, e, c)
        checked += 1
    results["<= 7 for 1<c<2"] = checked

    prop52_points = [
        (d, e, c)
        for (d, e) in ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3))
        for c in (F(1, 2), F(2, 3), F(3, 4), F(1, 3), F(4, 5))
    ]
    unit_hits = 0
    for d, e, c in prop52_points:
        v = verify("prop52", d, c, e, lean, horizon=8)
        assert v.hypothesis_ok and v.consistent, (d, e, c)
        assert v.details["sandwich_verified"], (d, e, c)
        units = v.details["unit_exceptions"]
        if c.numerator == 1:
            assert units == [1], (d, e, c)
            unit_hits += 1
        else:
            assert units == [], (d, e, c)
    results["empty for 0<c<1"] = len(prop52_points)

    prop53_points = [
        (d, e, c)
        for (d, e) in ((3, 2), (5, 2), (5, 3), (5, 4))
        for c in (F(-1, 2), F(-2, 3), F(-3, 4), F(-1, 3), F(-4, 5))
    ]
    for d, e, c in prop53_points:
        v = verify("prop53", d, c, e, lean, horizon=8)
        assert v.hypothesis_ok and v.consistent, (d, e, c)
        units = v.details["unit_exceptions"]
        if abs(c.numerator) == 1:
            assert units == [1], (d, e, c)
            unit_hits += 1
        else:
            assert units == [], (d, e, c)
    results["empty for -1<c<0, odd degree"] = len(prop53_points)

    prop54_points = [
        (d, e, c)
        for (d, e) in ((3, 2), (5, 2), (5, 3), (4, 2))
        for c in (F(-3, 2), F(-4, 3), F(-5, 4), F(-7, 5), F(-8, 5))
    ]
    for d, e, c in prop54_points:
        v = verify("prop54", d, c, e, lean, horizon=8)
        assert v.hypothesis_ok and v.consistent, (d, e, c)
        assert v.details["upper_bound_verified"], (d, e, c)
        assert v.details["unit_exceptions"] == [], (d, e, c)
    results["empty for -2<c<-1"] = len(prop54_points)

    for label, count in results.items():
        assert count >= 20, label
    _passed(
        7,
        f"{sum(results.values())} proposition points consistent; "
        f"{unit_hits} unit-numerator exceptions, all at numerator-1 constants",
    )


def test_criterion_08_height_machinery():
    rng = random.Random(0)
    families = [
        binomial(3, F(7, 2)), binomial(4, F(5, 2)), binomial(2, F(3)),
        trinomial(3, 2, F(5, 2)), trinomial(4, 2, F(-5, 2)),
        trinomial(4, 3, F(3, 2)), trinomial(5, 2, F(-3, 2)),
    ]
    points = []
    while len(points) < 50:
        f = rng.choice(families)
        if rng.random() < 0.5:
            x = f.constant
        else:
            x = F(rng.randrange(1, 12), rng.randrange(1, 6)) * rng.choice([1, -1])
        points.append((f, x))

    for f, x in points:
        d = f.degree
        previous = None
        intervals = []
        for n in range(7):
            iv = canonical_height_interval(f, x, n)
            intervals.append(iv)
            if previous is not None:
                assert iv.lower >= previous.lower - 1e-9, (str(f), x, n)
                assert iv.upper <= previous.upper + 1e-9, (str(f), x, n)
            previous = iv
        iv_fx = canonical_height_interval(f, f.evaluate(x), 4)
        iv_x = intervals[4]
        assert abs(iv_fx.midpoint - d * iv_x.midpoint) <= iv_fx.width + d * iv_x.width
        form = f.trinomial_form()
        if form is not None and abs(form[2]) >= 1:
            lower = lemma41_lower_bound(f, x, 2, trinomial_D_lower(f)).lower
            assert lower <= intervals[6].upper + 1e-9, (str(f), x)
    # scale-invariant sanity anchor for the binomial route
    for f in (binomial(3, F(7, 2)), binomial(4, F(7, 2))):
        anchor = ingram_lower_bound(f).lower
        assert canonical_height_interval(f, f.constant, 6).upper >= anchor - 1e-9
    _passed(8, "nesting, functional equation, and lower-bound dominance on 50 points")


def test_criterion_09_omega_inequality_audit():
    for d in (3, 4, 5):
        equalities, violations = omega_inequality_audit(d, 10_000)
        assert violations == [], d
        if d == 3:
            assert equalities == [2]
        else:
            assert equalities == []
    _passed(9, "boundary equality only at d=3, n=2; no strict violations to 10^4")


def test_criterion_10_sweep_determinism(tmp_path, capsys):
    spec = {
        "family": "z^d+z^e+c",
        "d": [3, 4, 5],
        "e": [2, 3],
        "c": ["5/2", "-5/2", "3/2", "-3/2"],
        "horizon": 8,
    }
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(spec))
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["sweep", str(spec_path), "-o", str(out_a), "--rho-budget", "200000"]) == 0
    assert main(["sweep", str(spec_path), "-o", str(out_b), "--rho-budget", "200000"]) == 0
    capsys.readouterr()
    bytes_a, bytes_b = out_a.read_bytes(), out_b.read_bytes()
    assert bytes_a and bytes_a == bytes_b
    _passed(10, f"two sweep runs byte-identical ({len(bytes_a)} bytes)")
