"""Exact counts in plain integers: the rays of index >= k, and the ratio table.

count_geq counts the rays of sup-norm <= h whose blowdown index is >= k
without building a ray; its docstring states the closed form, and _mertens
the recursion that weights it.  conjecture_report is the ratio table of the
ratios command.  The package's one rule for a valid height (_check_height,
up to MAX_H) and its one memory rule (_check_bytes) live here too, so the
ratio table, which needs nothing else, loads no numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .errors import ValidationError, check_int

#: Largest supported height bound.  Bulk kernels hold coordinates as int32
#: (MAX_H < 2**31) and form every product of two coordinates in int64: the
#: largest is a wedge determinant, bounded by 2*h**2, which for h <= MAX_H
#: stays far below 2**63.  Scalar paths use Python integers and are exact
#: regardless of magnitude.
MAX_H = 1_000_000

#: Refuse a build whose estimated bytes exceed this share of MemAvailable.
_MEMORY_SHARE = 0.5


def _check_height(h) -> int:
    return check_int(h, "height bound", 1, MAX_H)


def _mem_available() -> int | None:
    """MemAvailable in bytes from /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _check_bytes(need: int, which: str, purpose: str) -> None:
    """Refuse with ValidationError when need bytes exceed _MEMORY_SHARE of
    MemAvailable; which and purpose go before and after the size.  This is
    the package's one memory rule: each build sizes itself and calls it
    before allocating."""
    available = _mem_available()
    if available is not None and need > _MEMORY_SHARE * available:
        raise ValidationError(
            f"{which} about {need / 2**20:.0f} MiB {purpose}, "
            f"more than {_MEMORY_SHARE:.0%} of the {available / 2**20:.0f} MiB available"
        )


def _moebius(n: int) -> list[int]:
    """The Moebius function mu(0..n), mu(0) = 0: each prime p flips the sign
    of mu at its multiples and zeroes it at the multiples of p * p."""
    mu = [0, *[1] * n]
    composite = bytearray(n + 1)
    for p in range(2, n + 1):
        if not composite[p]:
            composite[p::p] = b"\1" * (n // p)
            mu[p::p] = [-x for x in mu[p::p]]
            mu[p * p :: p * p] = [0] * (n // (p * p))
    return mu


def _mertens(h: int) -> dict[int, int]:
    """The Mertens function M(x) = mu(1) + ... + mu(x) at every x <= y and
    at every x = h // v, with y = max(sqrt(h), h^(2/3)).

    Up to y it is the prefix sum of a sieve.  Above it: mu summed over the
    divisors of n is 1 at n = 1 and 0 past it, and the n = e * d <= x with
    d fixed are the e <= x // d, so M(x // 1) + ... + M(x // x) = 1, that is

        M(x) = 1 - sum over d = 2..x of M(x // d),

    summed in O(sqrt(x)) blocks of equal x // d.  x // d = h // (v * d) is
    again such a value, and smaller, so taking x in ascending order finds it
    known.  The sieve takes O(h^(2/3)) steps and ints, and so does the
    recursion over the h // y values above y (Deleglise and Rivat).
    """
    y = max(math.isqrt(h), round(h ** (2 / 3)))
    m = dict(enumerate(accumulate(_moebius(y))))
    for v in range(h // (y + 1), 0, -1):
        x = h // v
        total, d = 1, 2
        while d <= x:
            q = x // d
            top = x // q  # the last d with x // d == q
            total -= (top - d + 1) * m[q]
            d = top + 1
        m[x] = total
    return m


def _terms(h: int) -> list[tuple[int, int]]:
    """The terms (N, w) of P = sum of w * L(N, k) (see count_geq) with w
    nonzero, the same for every k: w = mu(e) at N = h // e for e <= sqrt(h),
    then for each smaller N one block, the sum of mu(e) over the e > sqrt(h)
    with h // e == N, read off _mertens."""
    m = _mertens(h)
    s = math.isqrt(h)
    terms = [(h // e, m[e] - m[e - 1]) for e in range(1, s + 1)]
    terms += [(n, m[h // n] - m[max(h // (n + 1), s)]) for n in range(1, h // (s + 1) + 1)]
    return [(n, w) for n, w in terms if w]


def _count(h: int, k: int, terms) -> int:
    # count_geq from the height's _terms
    p = 0
    for n, w in terms:
        two = 2 * n + 1
        d1, d2 = min(n, two // (k + 1)), min(n, two // k)
        p += w * (d1 * (d1 + 1) // 2 + (d2 - d1) * two - k * (d2 * (d2 + 1) - d1 * (d1 + 1)) // 2)
    axis, diagonal = 2 * h >= k, 2 * h - 1 >= k
    return 8 * (p - axis) + 4 * axis + 4 * diagonal


def count_geq(h: int, k: int) -> int:
    """Number of rays of sup-norm <= h whose blowdown index is >= k, counted
    exactly without enumerating a ray; count_geq(h, 1) is the number of rays.

    The walk gives the octant ray after consecutive Farey denominators
    (b, d) the index (h + b) // d, and these pairs are the coprime b, d <= h
    with b + d > h.  P counts the pairs of index >= k: one per interior
    octant ray, and the pair (h, 1) before 1/1, whose formula index 2h is
    that of (1, 0).  The pairs with common factor e are e times those of
    L(h // e, k), so

        count_geq(h, k) = 8 * (P - [2h >= k]) + 4 * [2h >= k] + 4 * [2h - 1 >= k],
        P = sum over e >= 1 of mu(e) * L(h // e, k),
        L(N, k) = #{1 <= b, d <= N : b + d > N, N + b >= k * d}
                = D1(D1 + 1)/2 + sum_{d = D1+1}^{D2} (2N + 1 - k * d),

    D1 = min(N, (2N + 1) // (k + 1)) and D2 = min(N, (2N + 1) // k): column
    d of L holds d pairs up to D1 and 2N + 1 - k * d from there to D2.  mu is
    the Moebius function, and P is summed in O(sqrt(h)) blocks of equal
    h // e (_terms), weighted by the Mertens function at h // v (_mertens),
    in Python ints.  The ratio to count_geq(h, 1) tends to 2/T_k because
    L(N, k)/N^2 tends to 2/(k(k + 1)), the area of {b + d > 1, b + 1 >= k * d}
    in the unit square, L(N, 1)/N^2 to 1/2, and the same weights mu(e) sum
    both.
    """
    h = _check_height(h)
    k = check_int(k, "index threshold", 1)
    return _count(h, k, _terms(h))


def triangular(k: int) -> int:
    """k-th triangular number k(k+1)/2."""
    k = check_int(k, "triangular number index", 1)
    return k * (k + 1) // 2


def conjectured_ratio(k: int) -> Fraction:
    """Conjectured limiting fraction of rays with blowdown index >= k: 2/T_k."""
    return Fraction(2, triangular(check_int(k, "limiting-ratio index", 2)))


RATIO_COLUMNS = ("h", "k", "count_geq", "n_h", "ratio", "conjectured")

#: Bytes one ratio row holds: about 360 B for the dict and its values
#: (tracemalloc), and 48 B for its six cells in the column lists that
#: render() transposes the rows into.
_RATIO_ROW_BYTES = 408


def conjecture_report(h_values, k_max: int) -> list[dict]:
    """Long-form ratio table: measured fraction of rays with blowdown index
    >= k next to the conjectured limit 2/T_k, for k = 2..k_max per height.

    The counts come from count_geq, with each height's terms found once, so
    no ray is enumerated: a height takes O(h^(2/3)) steps and ints
    (_mertens), then O(sqrt(h)) per k.  Rows that would exceed the share of
    MemAvailable that _check_bytes allows are refused with ValidationError
    before the first one is made.  Heights stay capped at MAX_H, the
    package's one rule for a valid height, which the count does not need.
    """
    k_max = check_int(k_max, "k_max", 2)
    heights = [_check_height(h) for h in h_values]
    n_rows = len(heights) * (k_max - 1)
    _check_bytes(_RATIO_ROW_BYTES * n_rows, f"{n_rows} ratio rows need", "to build the ratio table")
    rows = []
    for h in heights:
        terms = _terms(h)
        n = _count(h, 1, terms)
        for k in range(2, k_max + 1):
            count = _count(h, k, terms)
            rows.append({
                "h": h, "k": k, "count_geq": count, "n_h": n,
                "ratio": float(Fraction(count, n)),
                "conjectured": float(conjectured_ratio(k)),
            })
    return rows
