"""Exact integer geometry of primitive lattice rays in the plane.

A ray is the half-line from the origin through a nonzero lattice point,
represented by its minimal (primitive) integer generator.  Everything that
decides anything here is exact integer arithmetic: primitivity, the sup-norm,
the wedge determinant, and the counter-clockwise angular order starting at
(1, 0).  Floating point appears nowhere in this module.

enumerate_rays walks the first octant (_farey_walk), checks it once
(_octant argues why that check carries to the circle) and unfolds it by
symmetry.  Its count check is counting.count_geq, which counts the rays
of index >= k without the walk, and every build sizes itself with
_universe_bytes for counting._check_bytes before allocating.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NoReturn

from ._numpy import np
from .counting import _check_bytes, _check_height, count_geq
from .errors import InvariantError, ValidationError, check_int


def is_primitive(x: int, y: int) -> bool:
    """True iff (x, y) is the minimal lattice point on its ray from the origin."""
    return (x != 0 or y != 0) and math.gcd(x, y) == 1


def _ray_ints(ray) -> tuple[int, int]:
    # a ray's (x, y) as Python ints, never truncated from floats
    x, y = ray
    return check_int(x, "ray coordinate"), check_int(y, "ray coordinate")


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


def _lane_rows(h: int, lanes: int) -> int:
    # Bound on the fractions of order h in [i/L, (i+1)/L): at most
    # ceil(q/L) of them have denominator q, summed over q = 1..h.
    m, r = divmod(h, lanes)
    return lanes * m * (m + 1) // 2 + r * (m + 1)


def _universe_bytes(heights, octants=()) -> int:
    """Bytes to hold the universes of all the given heights and the first
    octants of the heights in octants at once, plus the largest octant walk
    that builds one of them and the temporaries of one block of checks: 8 B
    (two int32) per ray of each universe and per octant ray (count_geq(h, 1)
    // 8 + 1 of them), 8 B (x and y) per lane and step of the walk, and 32 B
    per row of a _BLOCK-row block (two wrapped int32 coordinate copies and
    two int64 wedge products in _block_wedges).  The walk's buffer and the
    octant it yields are held together, so the sum bounds the peak of every
    build; it is 0 when nothing is built."""
    built = [*heights, *octants]
    if not built:
        return 0
    walk = max(8 * min(_LANES, h) * _lane_rows(h, min(_LANES, h)) for h in built)
    return (walk + 32 * _BLOCK + sum(8 * count_geq(h, 1) for h in heights)
            + sum(count_geq(h, 1) + 8 for h in octants))


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
    octant = np.empty((int(length.sum()) + 1, 2), dtype=np.int32)
    lo = 0
    for lane, hi in enumerate(np.cumsum(length).tolist()):  # lane-major, like the arc
        octant[lo:hi, 0] = xs[: hi - lo, lane]
        octant[lo:hi, 1] = ys[: hi - lo, lane]
        lo = hi
    octant[-1] = 1
    return octant


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


def _circle_ray(octant: np.ndarray, p: int) -> tuple[int, int]:
    """The ray at position p, taken cyclically, of the circle that
    _unfold_full_circle makes of an octant from (1, 0) to (1, 1), as Python
    ints.  With q = len(octant) - 1, position p lies in sector p // q of
    eight: an even sector holds octant[t] at its t-th position, an odd one
    octant[q - t] reflected across y = x, and sector s is turned by s // 2
    quarter turns."""
    q = len(octant) - 1
    sector, t = divmod(p % (8 * q), q)
    x, y = octant[q - t if sector % 2 else t].tolist()
    if sector % 2:
        x, y = y, x
    for _ in range(sector // 2):
        x, y = -y, x
    return x, y


class RayUniverse:
    """All primitive rays of sup-norm at most h, in canonical angular order.

    Backed by one read-only (n, 2) int32 coordinate array (8 B per ray);
    products of coordinates are formed in int64.  Iteration yields each ray
    as a plain (x, y) tuple of ints.  Instances are immutable and safe to
    share across threads.
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

    def __iter__(self):
        return map(tuple, self.coords.tolist())

    def __contains__(self, ray) -> bool:
        x, y = _ray_ints(ray)
        return is_primitive(x, y) and max(abs(x), abs(y)) <= self.h

    def __repr__(self) -> str:
        return f"{type(self).__name__}(h={self.h}, n_rays={len(self)})"

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


RAY_COLUMNS = ("x", "y")


def ray_array(universe: RayUniverse) -> dict:
    """Ray export: the columns x and y, views of the universe's coordinates
    in canonical order."""
    c = universe.coords
    return {"x": c[:, 0], "y": c[:, 1]}


def _wedge(u: np.ndarray, v: np.ndarray, out=None, spare=None) -> np.ndarray:
    """wedge(u[i], v[i]) of two (m, 2) integer row arrays, formed in int64,
    so int32 coordinates up to MAX_H give exact wedges.  The result goes
    into out and the second product into spare, when the caller has int64
    buffers of length m free for them."""
    w = np.multiply(u[:, 0], v[:, 1], dtype=np.int64, out=out)
    w -= np.multiply(u[:, 1], v[:, 0], dtype=np.int64, out=spare)
    return w


def _block_wedges(c: np.ndarray, lo: int, hi: int, a: int, b: int) -> np.ndarray:
    """wedge(c[i + a], c[i + b]) for lo <= i < hi as int64, positions taken
    cyclically; slices of c, except in a block that wraps around an end."""
    n = len(c)
    return _wedge(*(c[lo + s : hi + s] if 0 <= lo + s and hi + s <= n
                    else np.take(c, np.arange(lo + s, hi + s), axis=0, mode="wrap")
                    for s in (a, b)))


#: Rows per block of the vectorized checks; bounds their temporaries.
_BLOCK = 1 << 16


def _check_wedges(h: int, octant: np.ndarray) -> None:
    """Raise for the first pair of octant neighbours whose wedge is not 1,
    in blocks of _BLOCK pairs; their positions are also the circle's."""
    q = len(octant) - 1
    for lo in range(0, q, _BLOCK):
        w = _block_wedges(octant, lo, min(lo + _BLOCK, q), 0, 1)
        if not (w == 1).all():
            i = lo + int(np.argmax(w != 1))
            u, v = (tuple(ray) for ray in octant[i : i + 2].tolist())
            raise InvariantError(
                f"height {h}: neighbouring rays {u} at position {i} and {v} at "
                f"position {i + 1} have wedge {int(w[i - lo])}, not 1"
            )


def _octant(h: int) -> np.ndarray:
    """The first octant of the universe of height h, as _farey_walk gives
    it, checked once for the whole circle that _unfold_full_circle makes
    of it.  It runs from (1, 0) to (1, 1), so every sector of that circle
    is the octant under a symmetry of the square (_circle_ray): a pair of
    neighbours within a sector is the image of an octant pair, and a pair
    across a sector start is the image of the octant's first or last pair,
    the turns keeping a wedge and the reflection negating it while it
    swaps the pair.  So the circle is smooth when every pair of octant
    neighbours has wedge exactly 1, and it holds count_geq(h, 1) rays when
    8 * (len - 1) does.  InvariantError otherwise, naming the height and
    the octant's ends, or the first bad pair's positions and rays, or the
    first missing ray.  Nothing caches the octant, and its callers check
    its bytes (_universe_bytes)."""
    octant = _farey_walk(h)
    q = len(octant) - 1
    ends = tuple(octant[0].tolist()), tuple(octant[-1].tolist())
    if ends != ((1, 0), (1, 1)):
        raise InvariantError(
            f"height {h}: the octant runs from {ends[0]} at position 0 to {ends[1]} at "
            f"position {q}, not from (1, 0) to (1, 1)"
        )
    _check_wedges(h, octant)
    if 8 * q != count_geq(h, 1):
        _fail_count(h, octant)
    return octant


@lru_cache(maxsize=4, typed=True)  # typed: True or 5.0 must miss, not hit 1 or 5
def enumerate_rays(h: int) -> RayUniverse:
    """All primitive vectors of sup-norm <= h, sorted by angular_compare.

    The circle is unfolded from the checked octant (_octant, which gives the
    symmetry argument), so it is exactly sorted with no comparison and no
    float, and it is the smooth full fan: every pair of cyclic neighbours
    has wedge exactly 1, and there are count_geq(h, 1) rays.  Heights whose
    estimated build exceeds half of MemAvailable are refused with
    ValidationError before anything is allocated.
    """
    h = _check_height(h)
    _check_bytes(_universe_bytes((h,)), f"height {h} needs", "to enumerate the rays")
    return RayUniverse(h, _unfold_full_circle(_octant(h)))


def _fail_count(h: int, octant: np.ndarray) -> NoReturn:
    """Raise for a smooth octant whose circle does not hold the
    count_geq(h, 1) rays of sup-norm <= h, naming the first gap between
    octant neighbours.

    Every wedge is 1, so the sum of two neighbours is a primitive ray
    between them; where that sum has sup-norm <= h, it is a ray the walk
    missed.
    """
    q = len(octant) - 1
    message = f"height {h}: the walk gave {8 * q} rays, but {count_geq(h, 1)} have sup-norm <= {h}"
    for lo in range(0, q, _BLOCK):
        hi = min(lo + _BLOCK, q)
        pair_sum = octant[lo:hi] + octant[lo + 1 : hi + 1]
        inside = np.abs(pair_sum).max(axis=1) <= h
        if inside.any():
            i = lo + int(np.argmax(inside))
            u, v, s = (tuple(a.tolist()) for a in (octant[i], octant[i + 1], pair_sum[i - lo]))
            raise InvariantError(
                f"{message}; the ray {s} between {u} at position {i} and {v} at position {i + 1} is missing"
            )
    raise InvariantError(message)
