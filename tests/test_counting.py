"""The integer count against the numpy sieve it replaced (oracles.mertens_sieve
and oracles.sieved_count_geq): the rays of index >= k, and the Mertens values
that weight them."""

import math

import pytest

from randfan import counting
from randfan.counting import MAX_H, count_geq

from oracles import mertens_sieve, sieved_count_geq


@pytest.fixture(scope="module")
def sieve():
    return mertens_sieve(MAX_H)


def test_count_geq_matches_the_sieve_at_every_k_up_to_height_300(sieve):
    # each height's terms found once, as conjecture_report finds them
    for h in range(1, 301):
        terms = counting._terms(h)
        for k in range(1, 2 * h + 3):
            assert counting._count(h, k, terms) == sieved_count_geq(h, k, sieve), (h, k)
        assert count_geq(h, 2 * h - 1) == counting._count(h, 2 * h - 1, terms)


def _heights():
    near = {n + d for n in [*(s * s for s in (2, 3, 10, 31, 100, 316, 999, 1000)),
                            *(c ** 3 for c in (2, 3, 10, 46, 100))] for d in (-1, 0, 1)}
    primes = {2, 3, 5, 7, 9973, 65537, 999983}
    return sorted({h for h in near | primes | {10**5, MAX_H} if 1 <= h <= MAX_H})


@pytest.mark.parametrize("h", _heights())
def test_count_geq_matches_the_sieve_at_squares_cubes_primes_and_the_cap(sieve, h):
    for k in (1, 2, 3, 7, 2 * h, 2 * h + 1):
        assert count_geq(h, k) == sieved_count_geq(h, k, sieve), k


@pytest.mark.parametrize("h", [1, 2, 7, 64, 300, 1000, 12345, 99991, MAX_H])
def test_mertens_values_match_the_sieve(sieve, h):
    m = counting._mertens(h)
    assert {h // v for v in range(1, math.isqrt(h) + 2)} | set(range(1, math.isqrt(h) + 1)) <= set(m)
    assert {x: m[x] for x in m} == {x: int(sieve[x]) for x in m}
