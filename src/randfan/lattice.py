"""Exact integer geometry of primitive lattice rays in the plane.

A ray is the half-line from the origin through a nonzero lattice point,
represented by its minimal (primitive) integer generator.  Everything that
decides anything here is exact integer arithmetic: primitivity, the sup-norm,
the wedge determinant, and the counter-clockwise angular order starting at
(1, 0).  Floating point appears nowhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvariantError, ValidationError, check_int

#: Largest supported height bound.  Bulk kernels run on int64 arrays; the
#: largest intermediate is a wedge determinant, bounded by 2*h**2, which for
#: h <= MAX_H stays far below 2**63.  Scalar paths use Python integers and
#: are exact regardless of magnitude.
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


def _first_octant(h: int) -> np.ndarray:
    # Mediant walk over the ascending fractions y/x in [0, 1] with x <= h:
    # from neighbors a/b < c/d the next term is (k*c - a)/(k*d - b) with
    # k = (h + b) // d.  Emits the arc from (1, 0) to (1, 1) already sorted.
    xs = [1]
    ys = [0]
    a, b, c, d = 0, 1, 1, h
    while (c, d) != (1, 1):
        xs.append(d)
        ys.append(c)
        k = (h + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    xs.append(1)
    ys.append(1)
    out = np.empty((len(xs), 2), dtype=np.int64)
    out[:, 0] = xs
    out[:, 1] = ys
    return out


def _unfold_full_circle(octant: np.ndarray) -> np.ndarray:
    # Extend the sorted arc [0, pi/4] to the full circle by symmetry; each
    # step reuses the previous arc in an order-preserving way, so the result
    # is exactly sorted without comparing anything.
    mirror = octant[:-1][::-1, ::-1]  # reflect across y = x: (pi/4, pi/2]
    quadrant = np.concatenate([octant, mirror])
    rotated = np.empty_like(quadrant[1:])  # quarter turn: (pi/2, pi]
    rotated[:, 0] = -quadrant[1:, 1]
    rotated[:, 1] = quadrant[1:, 0]
    half = np.concatenate([quadrant, rotated])
    return np.concatenate([half[:-1], -half[:-1]])  # antipodes: (pi, 2*pi)


class RayUniverse:
    """All primitive rays of sup-norm at most h, in canonical angular order.

    Backed by one read-only (n, 2) int64 coordinate array; RayVec objects are
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

    @property
    def rays(self) -> tuple[RayVec, ...]:
        """Every ray as a RayVec, built on each call: O(n) Python objects,
        meant for small universes."""
        return tuple(self)

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
        raise InvariantError("sorted universe is missing a vector it must contain")


def _check_height(h) -> int:
    return check_int(h, "height bound", 1, MAX_H)


@lru_cache(maxsize=4, typed=True)  # typed: True or 5.0 must miss, not hit 1 or 5
def enumerate_rays(h: int) -> RayUniverse:
    """All primitive vectors of sup-norm <= h, sorted by angular_compare.

    The first octant comes out of a mediant walk already in ascending order
    and the rest of the circle is unfolded from it by symmetry, so the result
    is exactly sorted with no comparisons and no floating point.  Universes
    are cached (the enumeration dominates everything built on top of it).
    """
    h = _check_height(h)
    return RayUniverse(h, _unfold_full_circle(_first_octant(h)))
