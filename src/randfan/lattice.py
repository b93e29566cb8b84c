"""Exact integer geometry of primitive lattice rays in the plane.

A ray is the half-line from the origin through a nonzero lattice point,
represented by its minimal (primitive) integer generator.  Everything that
decides anything here is exact integer arithmetic: primitivity, the sup-norm,
the wedge determinant, and the counter-clockwise angular order starting at
(1, 0).  Floating point appears nowhere in this module.

The rays are enumerated by a Farey walk over the first octant, run as
numpy lanes in lock step, and unfolded to the circle by symmetry.  Before a
universe is cached it is checked once, in blocks: every pair of cyclic
neighbours has wedge exactly 1 (the full fan is smooth), and the ray count
is count_geq(h, 1).  Two unit wedges wedge(tau, u) = wedge(u, omega) = 1
give tau + omega = k * u with k = wedge(tau, omega), so the blowdown module
reads each index off the wedge of a ray's two neighbours.  count_geq counts
the rays of index >= k without the walk, from the coprime pairs of
denominators that the walk steps through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NoReturn

import numpy as np

from .errors import InvariantError, ValidationError, check_int

#: Largest supported height bound.  Bulk kernels hold coordinates as int32
#: (MAX_H < 2**31) and form every product of two coordinates in int64: the
#: largest is a wedge determinant, bounded by 2*h**2, which for h <= MAX_H
#: stays far below 2**63.  Scalar paths use Python integers and are exact
#: regardless of magnitude.
MAX_H = 1_000_000


def is_primitive(x: int, y: int) -> bool:
    """True iff (x, y) is the minimal lattice point on its ray from the origin."""
    return (x != 0 or y != 0) and math.gcd(x, y) == 1


@dataclass(frozen=True, slots=True)
class RayVec:
    """Minimal integer generator of a ray; primitivity is checked on construction."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if not is_primitive(self.x, self.y):
            raise ValidationError(
                f"({self.x}, {self.y}) is not a primitive lattice vector"
            )

    def __iter__(self):
        yield self.x
        yield self.y


def sup_norm(v) -> int:
    """max(|x|, |y|); every height bound in this package is in this norm."""
    x, y = v
    return max(abs(x), abs(y))


def wedge(u, v) -> int:
    """Signed determinant of the 2x2 matrix with columns u and v."""
    ux, uy = u
    vx, vy = v
    return int(ux) * int(vy) - int(uy) * int(vx)


def _ray_ints(ray, bound=math.inf) -> tuple[int, int]:
    # a ray's (x, y) as Python ints in [-bound, bound], never truncated from floats
    x, y = ray
    return (check_int(x, "ray coordinate", -bound, bound),
            check_int(y, "ray coordinate", -bound, bound))


def _arc_class(x: int, y: int) -> int:
    # 0..7 counter-clockwise from the positive x-axis; even values are the
    # four axis directions, odd values the open quadrants between them.
    if y == 0:
        return 0 if x > 0 else 4
    if x == 0:
        return 2 if y > 0 else 6
    if y > 0:
        return 1 if x > 0 else 3
    return 5 if x < 0 else 7


def _compare_xy(ux: int, uy: int, vx: int, vy: int) -> int:
    ka = _arc_class(ux, uy)
    kb = _arc_class(vx, vy)
    if ka != kb:
        return -1 if ka < kb else 1
    # same half-quadrant: both axis vectors (equal) or same open quadrant,
    # where the angle spread is below a half turn and the wedge sign decides
    w = ux * vy - uy * vx
    if w > 0:
        return -1
    if w < 0:
        return 1
    return 0


def angular_compare(u, v) -> int:
    """Exact angular order: -1, 0 or 1 as u precedes, equals or follows v.

    The order runs counter-clockwise starting at the direction of (1, 0) and
    ends just short of a full turn.  Distinct primitive vectors never compare
    equal.  Decided by half-quadrant classes plus one wedge sign; no floats.
    """
    ux, uy = u
    vx, vy = v
    return _compare_xy(int(ux), int(uy), int(vx), int(vy))


#: Lanes of the octant walk; each lane walks one slice of the Farey sequence.
_LANES = 1024

#: Refuse a universe whose estimated build exceeds this share of MemAvailable.
_MEMORY_SHARE = 0.5


def _lane_rows(h: int, lanes: int) -> int:
    # Bound on the fractions of order h in [i/L, (i+1)/L): at most
    # ceil(q/L) of them have denominator q, summed over q = 1..h.
    m, r = divmod(h, lanes)
    return lanes * m * (m + 1) // 2 + r * (m + 1)


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


def _universe_bytes(heights, table: bool = False) -> int:
    """Bytes to hold the universes of all the given heights at once, plus
    the largest octant walk that builds one of them and the temporaries of
    one block of checks: 8 B (two int32) per ray of each universe (16 B
    with the int64 index column of a blowdown table), 8 B (x and y) per
    lane and step of the walk, and 32 B per row of a _BLOCK-row block (two
    wrapped int32 coordinate copies and two int64 wedge products in
    _block_wedges).  The octant a walk yields is smaller than both its
    buffer and its universe, so the sum bounds the peak of every build."""
    walk = max(8 * min(_LANES, h) * _lane_rows(h, min(_LANES, h)) for h in heights)
    per_ray = 16 if table else 8
    return walk + 32 * _BLOCK + sum(per_ray * count_geq(h, 1) for h in heights)


def _check_memory(heights, table: bool = False, sweep: int = 0) -> None:
    # refuse before anything is allocated; the universes of all the heights
    # are held at once, with table=True each one's blowdown indices, and
    # sweep is the bytes a sweep holds beside them
    need = _universe_bytes(heights, table) + sweep
    available = _mem_available()
    if available is not None and need > _MEMORY_SHARE * available:
        which = (f"height {heights[0]} needs" if len(heights) == 1
                 else f"heights {', '.join(map(str, heights))} need")
        purpose = ("to build the blowdown table" if table else
                   "to run the sweep" if sweep else "to enumerate the rays")
        raise ValidationError(
            f"{which} about {need / 2**20:.0f} MiB {purpose}, "
            f"more than {_MEMORY_SHARE:.0%} of the {available / 2**20:.0f} MiB available"
        )


def _farey_walk(h: int) -> np.ndarray:
    """The first octant, from (1, 0) to (1, 1) in ascending order, as an
    (m, 2) int32 array.

    The octant's rays (x, y) are the Farey fractions y/x of order h.  From
    neighbours a/b < c/d the next fraction is (k*c - a)/(k*d - b) with
    k = (h + b) // d.  L lanes walk in lock step; lane i starts at i/L,
    whose predecessor a/b has b = c^-1 (mod d), the largest such b <= h
    (lane 0 starts at 0/1 after -1/h, the ray (h, -1)), and stops at the
    next lane's start.  (1, 1) closes the arc.  The lane starts and the
    recurrence run in int64 (b*c reaches h*L); the rays written, whose
    coordinates stay below 2h, are stored as int32.
    """
    lanes = min(_LANES, h)
    i = np.arange(lanes + 1)
    g = np.gcd(i, lanes)
    num, den = i // g, lanes // g  # i/L in lowest terms, from 0/1 to 1/1
    c, d, stop_c, stop_d = num[:-1], den[:-1], num[1:], den[1:]
    # the predecessor a/b of c/d has b*c - a*d = 1 and h - d < b <= h
    b = np.array([pow(int(ci), -1, int(di)) if di > 1 else 0 for ci, di in zip(c, d)],
                 dtype=np.int64)
    b += (h - b) // d * d
    a = (b * c - 1) // d
    rows = _lane_rows(h, lanes)
    xs = np.empty((rows, lanes), dtype=np.int32)
    ys = np.empty((rows, lanes), dtype=np.int32)
    length = np.zeros(lanes, dtype=np.int64)
    live = np.ones(lanes, dtype=bool)
    for step in range(rows):
        # lanes past their stop keep walking the next lane's slice, unread
        xs[step] = d
        ys[step] = c
        k = (h + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        length += live
        live &= (c != stop_c) | (d != stop_d)
        if not live.any():
            break
    else:
        lane = int(np.argmax(live))
        raise InvariantError(
            f"height {h}: the octant walk overran its {rows} rows per lane; lane {lane} "
            f"is still live after step {step}, where it wrote the ray "
            f"({xs[step, lane]}, {ys[step, lane]})"
        )
    taken = np.arange(step + 1) < length[:, None]  # lane-major, like the arc
    m = int(length.sum()) + 1
    octant = np.empty((m, 2), dtype=np.int32)
    octant[:-1, 0] = xs[: step + 1].T[taken]
    octant[:-1, 1] = ys[: step + 1].T[taken]
    octant[-1] = 1
    return octant


def _mertens(n: int) -> np.ndarray:
    """The Mertens function M(0..n), prefix sums of the Moebius function, as
    an int64 array.  Each prime p <= sqrt(n) flips the sign of mu at its
    multiples, zeroes it at the multiples of p*p and is divided out of its
    multiples once; a squarefree number left above 1 has one more prime
    factor, above sqrt(n)."""
    mu = np.ones(n + 1, dtype=np.int8)
    rest = np.arange(n + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n) + 1):
        if rest[p] == p:  # no smaller prime divides p
            mu[::p] *= -1
            mu[:: p * p] = 0
            rest[::p] //= p
    mu[rest > 1] *= -1
    mu[0] = 0
    return np.cumsum(mu, dtype=np.int64)


def _count_geq(h: int, k: int, mertens: np.ndarray) -> int:
    # count_geq with the Mertens table M(0..m), m >= h, passed in.  P counts
    # the pairs of index >= k: one per interior octant ray, and the pair
    # (h, 1) before 1/1, whose formula index 2h is that of (1, 0).  The pairs
    # with common factor e are e times those of L(h // e, k), so P sums
    # mu(e) * L(h // e, k) in blocks of equal h // e.  Column d of L holds
    # d pairs up to D1 and 2N + 1 - k*d from there to D2.
    k = min(k, 2 * h + 1)  # no index exceeds 2h; keeps every sum in int64
    s = math.isqrt(h)
    e = np.arange(1, s + 1)  # e <= s one by one, then e > s in blocks h // e == v
    v = np.arange(1, h // (s + 1) + 1)
    n = np.concatenate((h // e, v))
    weight = np.concatenate((mertens[e] - mertens[e - 1],
                             mertens[h // v] - mertens[np.maximum(h // (v + 1), s)]))
    d1 = np.minimum(n, (2 * n + 1) // (k + 1))
    d2 = np.minimum(n, (2 * n + 1) // k)
    pairs = d1 * (d1 + 1) // 2 + (d2 - d1) * (2 * n + 1) - k * (d2 * (d2 + 1) - d1 * (d1 + 1)) // 2
    p = int((weight * pairs).sum())
    axis, diagonal = 2 * h >= k, 2 * h - 1 >= k
    return 8 * (p - axis) + 4 * axis + 4 * diagonal


def count_geq(h: int, k: int) -> int:
    """Number of rays of sup-norm <= h whose blowdown index is >= k, counted
    exactly without enumerating a ray; count_geq(h, 1) is the number of rays.

    The walk gives the octant ray after consecutive Farey denominators
    (b, d) the index (h + b) // d, and these pairs are the coprime ones
    with b, d <= h and b + d > h, so the count is a Moebius sum of a closed
    form (stated in the randfan.blowdown docstring): one sieve up to h and
    O(sqrt(h)) blocks of integer arithmetic, with no floating point.
    """
    h = _check_height(h)
    k = check_int(k, "index threshold", 1)
    return _count_geq(h, k, _mertens(h))


def _unfold_full_circle(octant: np.ndarray) -> np.ndarray:
    # Extend the sorted arc [0, pi/4] of m rays to the full circle of
    # 8(m - 1) by symmetry; each step reuses the previous arc in an
    # order-preserving way, so the result is exactly sorted without
    # comparing anything.  The negations write into out, so no temporary
    # the size of an arc is made.
    m = len(octant)
    q = m - 1
    out = np.empty((8 * q, 2), dtype=octant.dtype)
    out[:m] = octant
    out[m : 2 * q + 1] = octant[-2::-1, ::-1]  # reflect across y = x: (pi/4, pi/2]
    np.negative(out[1 : 2 * q, 1], out=out[2 * q + 1 : 4 * q, 0])  # quarter turn: (pi/2, pi)
    out[2 * q + 1 : 4 * q, 1] = out[1 : 2 * q, 0]
    np.negative(out[: 4 * q], out=out[4 * q :])  # antipodes: [pi, 2*pi)
    return out


class RayUniverse:
    """All primitive rays of sup-norm at most h, in canonical angular order.

    Backed by one read-only (n, 2) int32 coordinate array (8 B per ray);
    products of coordinates are formed in int64.  RayVec objects are
    materialized on demand and never cached, so bulk consumers can stay
    vectorized.  Instances are immutable and safe to share across threads.
    """

    __slots__ = ("h", "coords")

    def __init__(self, h: int, coords: np.ndarray):
        coords.flags.writeable = False
        self.h = h
        self.coords = coords

    @property
    def n_rays(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> RayVec:
        x, y = self.coords[i]
        return RayVec(int(x), int(y))

    def __iter__(self):
        for x, y in self.coords.tolist():
            yield RayVec(x, y)

    def __contains__(self, ray) -> bool:
        x, y = _ray_ints(ray)
        return is_primitive(x, y) and max(abs(x), abs(y)) <= self.h

    def __repr__(self) -> str:
        return f"RayUniverse(h={self.h}, n_rays={len(self)})"

    def index_of(self, ray) -> int:
        """Position of a ray in canonical order, by exact binary search."""
        x, y = _ray_ints(ray)
        if (x, y) not in self:
            raise ValidationError(
                f"({x}, {y}) is not a primitive vector of sup-norm <= {self.h}"
            )
        c = self.coords
        lo, hi = 0, len(c)
        while lo < hi:
            mid = (lo + hi) // 2
            s = _compare_xy(x, y, int(c[mid, 0]), int(c[mid, 1]))
            if s == 0:
                return mid
            if s < 0:
                hi = mid
            else:
                lo = mid + 1
        raise InvariantError(f"height {self.h}: the sorted universe is missing the ray ({x}, {y})")


def _check_height(h) -> int:
    return check_int(h, "height bound", 1, MAX_H)


def _block_wedges(c: np.ndarray, lo: int, hi: int, a: int, b: int) -> np.ndarray:
    """wedge(c[i + a], c[i + b]) for lo <= i < hi as int64, positions taken
    cyclically; slices of c, except in a block that wraps around an end."""
    n = len(c)
    u, v = (c[lo + s : hi + s] if 0 <= lo + s and hi + s <= n
            else np.take(c, np.arange(lo + s, hi + s), axis=0, mode="wrap")
            for s in (a, b))
    w = np.multiply(u[:, 0], v[:, 1], dtype=np.int64)
    w -= np.multiply(u[:, 1], v[:, 0], dtype=np.int64)
    return w


#: Rows per block of the vectorized checks; bounds their temporaries.
_BLOCK = 1 << 16


@lru_cache(maxsize=4, typed=True)  # typed: True or 5.0 must miss, not hit 1 or 5
def enumerate_rays(h: int) -> RayUniverse:
    """All primitive vectors of sup-norm <= h, sorted by angular_compare.

    The first octant comes out of a lock-step Farey walk already in
    ascending order and the rest of the circle is unfolded from it by
    symmetry, so the result is exactly sorted with no comparisons and no
    floating point.  Before it is cached, the universe is checked to be the
    smooth full fan: every pair of cyclic neighbours has wedge exactly 1,
    and there are count_geq(h, 1) rays; InvariantError otherwise, naming
    the first bad pair or the first missing ray.  Heights whose estimated
    build exceeds half of MemAvailable are refused with ValidationError
    before anything is allocated.
    """
    h = _check_height(h)
    _check_memory((h,))
    c = _unfold_full_circle(_farey_walk(h))
    n = len(c)
    for lo in range(0, n, _BLOCK):
        w = _block_wedges(c, lo, min(lo + _BLOCK, n), 0, 1)
        if not (w == 1).all():
            i = lo + int(np.argmax(w != 1))
            j = (i + 1) % n
            u, v = tuple(c[i].tolist()), tuple(c[j].tolist())
            raise InvariantError(
                f"height {h}: neighbouring rays {u} at position {i} and {v} at "
                f"position {j} have wedge {int(w[i - lo])}, not 1"
            )
    want = count_geq(h, 1)
    if n != want:
        _fail_count(h, c, want)
    return RayUniverse(h, c)


def _fail_count(h: int, c: np.ndarray, want: int) -> NoReturn:
    """Raise for a smooth walk of the wrong length, naming the first gap.

    Every wedge is 1, so the sum of two neighbours is a primitive ray
    between them; where that sum has sup-norm <= h, it is a ray the walk
    missed.
    """
    n = len(c)
    message = f"height {h}: the walk gave {n} rays, but {want} have sup-norm <= {h}"
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        pair_sum = c[lo:hi] + np.take(c, np.arange(lo + 1, hi + 1), axis=0, mode="wrap")
        inside = np.abs(pair_sum).max(axis=1) <= h
        if inside.any():
            i = lo + int(np.argmax(inside))
            j = (i + 1) % n
            u, v, s = (tuple(a.tolist()) for a in (c[i], c[j], pair_sum[i - lo]))
            raise InvariantError(
                f"{message}; the ray {s} between {u} at position {i} and {v} at position {j} is missing"
            )
    raise InvariantError(message)
