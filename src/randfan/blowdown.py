"""Single-ray blowdowns of the full height-h fan.

Removing one ray rho from the complete fan on all rays of sup-norm <= h
merges its two flanking cones into one, and the merged cone's singularity
index is the blowdown index of rho.  Both flanking cones of the full fan are
smooth, so that index is the unique integer k >= 1 with

    k * u_rho = u_tau + u_omega

for the angular neighbors tau, omega of rho.  enumerate_rays has checked
that every pair of angular neighbours has wedge exactly 1, and two unit
wedges wedge(tau, u) = wedge(u, omega) = 1 give tau + omega = k * u with
k = wedge(tau, omega) (Fulton, Introduction to Toric Varieties, 2.5).  So
the table reads every index off its neighbours' wedge in one blocked pass,
and blowdown_index reads one the same way; the table then checks k >= 1 and
the band k * |u| <= 2h on every ray.  All of it is exact integer arithmetic.

Counting: the table's counts and ratios, and the ratio report, come from
lattice.count_geq, which counts without enumerating.  The octant ray after
consecutive Farey denominators (b, d) of order h has index (h + b) // d, and
those pairs are the coprime b, d <= h with b + d > h, so

    count_geq(h, k) = 8 * (P - [2h >= k]) + 4 * [2h >= k] + 4 * [2h - 1 >= k],
    P = sum over e >= 1 of mu(e) * L(h // e, k),
    L(N, k) = #{1 <= b, d <= N : b + d > N, N + b >= k * d}
            = D1(D1 + 1)/2 + sum_{d = D1+1}^{D2} (2N + 1 - k * d),

with D1 = min(N, (2N + 1) // (k + 1)) and D2 = min(N, (2N + 1) // k).  This
is why the fraction of rays with index >= k tends to 2/T_k = 4/(k(k + 1)):
L(N, k)/N^2 tends to 2/(k(k + 1)), the area of {b + d > 1, b + 1 >= k * d}
in the unit square, while L(N, 1)/N^2 tends to 1/2, and the same Moebius
weights sum both, so they cancel in the ratio.

Norm bands: k * sup_norm(rho) <= 2h holds exactly for every ray (the
neighbor sum has sup-norm at most 2h), while the lower bound
(2 - eps) / (k + 2) * h is asymptotic, with eps = epsilon_of(h) = 1/h the
largest normalized gap between angular neighbors at height h.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NoReturn

import numpy as np

from .errors import InvariantError, ValidationError, check_int
from .lattice import (
    _BLOCK, MAX_H, RayUniverse, RayVec, _block_wedges, _check_height, _check_memory, _ray_ints,
    count_geq, enumerate_rays, is_primitive,
)


def _fail(h: int, i: int, ray, tau, omega, what: str) -> NoReturn:
    ray, tau, omega = (tuple(np.asarray(v).tolist()) for v in (ray, tau, omega))
    raise InvariantError(f"height {h}: ray {ray} at position {i}, between {tau} and {omega}: {what}")


class BlowdownTable:
    """Blowdown index of every ray of the height-h complete fan.

    table[ray] -> k, ray in table, and len(table) is the number of rays.
    Bulk data is exposed as read-only arrays (coords, k_values) aligned
    with the canonical angular order, plus the gap bound epsilon = 1/h.
    """

    __slots__ = ("_universe", "_k")

    def __init__(self, universe: RayUniverse, k_values: np.ndarray):
        if len(k_values) != len(universe):
            raise InvariantError(
                f"height {universe.h}: {len(k_values)} indices for {len(universe)} rays"
            )
        # k >= 1 and the upper band hold exactly for every ray: enforce them, never measure them
        h, coords, n = universe.h, universe.coords, len(universe)
        for lo in range(0, n, _BLOCK):
            c = coords[lo : lo + _BLOCK]
            k = k_values[lo : lo + _BLOCK]
            norms = np.maximum(np.abs(c[:, 0]), np.abs(c[:, 1]))
            bad = (k < 1) | (k * norms > 2 * h)
            if bad.any():
                i = lo + int(np.argmax(bad))
                what = (f"index {k_values[i]} is below 1" if k_values[i] < 1 else
                        f"index {k_values[i]} times sup-norm {norms[i - lo]} exceeds 2h = {2 * h}")
                _fail(h, i, coords[i], coords[i - 1], coords[(i + 1) % n], what)
        k_values.flags.writeable = False  # only once accepted: a refused array stays the caller's
        self._universe = universe
        self._k = k_values

    @property
    def h(self) -> int:
        return self._universe.h

    @property
    def coords(self) -> np.ndarray:
        return self._universe.coords

    @property
    def k_values(self) -> np.ndarray:
        return self._k

    @property
    def epsilon(self) -> float:
        return epsilon_of(self.h)

    def __len__(self) -> int:
        return len(self._k)

    def __contains__(self, ray) -> bool:
        return ray in self._universe

    def __getitem__(self, ray) -> int:
        try:
            i = self._universe.index_of(ray)
        except ValidationError:
            raise KeyError(ray) from None
        return int(self._k[i])

    def __repr__(self) -> str:
        return f"BlowdownTable(h={self.h}, n_rays={len(self)})"

    def count_geq(self, k: int) -> int:
        """Number of rays with blowdown index >= k, by lattice.count_geq."""
        return count_geq(self.h, k)

    def ratio_geq(self, k: int) -> Fraction:
        """Exact fraction of rays with blowdown index >= k."""
        return Fraction(self.count_geq(k), len(self))


def neighbors(h: int, ray) -> tuple[RayVec, RayVec]:
    """Angular predecessor and successor of a ray within the height-h universe."""
    universe = enumerate_rays(h)
    i = universe.index_of(ray)
    n = len(universe)
    return universe[(i - 1) % n], universe[(i + 1) % n]


def blowdown_index(h: int, ray) -> int:
    """Blowdown index of one ray: k = wedge(tau, omega) of its neighbours."""
    universe = enumerate_rays(h)
    i = universe.index_of(ray)
    return int(_block_wedges(universe.coords, i, i + 1, -1, 1)[0])


@lru_cache(maxsize=2, typed=True)  # typed for the reason given at enumerate_rays
def blowdown_table(h: int) -> BlowdownTable:
    """Blowdown index of every ray at height h.

    enumerate_rays has checked that the full fan is smooth, so each ray's
    index is the wedge of its two neighbours, read in blocks of rows; the
    table checks k >= 1 and k * |u| <= 2h on every ray, and raises
    InvariantError naming the height, position, ray, neighbours and values.
    A height whose universe and index column together would exceed half of
    MemAvailable is refused with ValidationError before either is built.
    Results are cached.
    """
    _check_memory((_check_height(h),), table=True)
    universe = enumerate_rays(h)
    c = universe.coords
    k = np.empty(len(c), dtype=np.int64)
    for lo in range(0, len(c), _BLOCK):
        hi = min(lo + _BLOCK, len(c))
        k[lo:hi] = _block_wedges(c, lo, hi, -1, 1)
    return BlowdownTable(universe, k)


def epsilon_of(h: int) -> float:
    """Largest sup-norm gap between normalized angular neighbors at height h.

    Rays are scaled onto the unit sup-norm sphere.  Neighbors a/b, c/d in
    the first octant are consecutive Farey fractions of order h, so
    b * d >= h and their gap 1/(b * d) is at most 1/h, reached exactly
    between (1, 0) and (h, 1); symmetry carries this to the whole circle.
    The value is therefore exactly 1/h.
    """
    return 1.0 / _check_height(h)


def band_bounds(h: int, k: int) -> tuple[float, Fraction]:
    """Norm band (lower, upper) for rays of blowdown index k at height h.

    The upper bound 2h/k is exact (equivalently k * |u| <= 2h in integers);
    the lower bound (2 - eps)/(k + 2) * h is asymptotic and carries the gap
    bound eps = epsilon_of(h) = 1/h, so callers should allow integer
    rounding slack against it.
    """
    eps = epsilon_of(h)
    k = check_int(k, "blowdown index", 1)
    return (2.0 - eps) / (k + 2) * h, Fraction(2 * h, k)


def triangular(k: int) -> int:
    """k-th triangular number k(k+1)/2."""
    k = check_int(k, "triangular number index", 1)
    return k * (k + 1) // 2


def conjectured_ratio(k: int) -> Fraction:
    """Conjectured limiting fraction of rays with blowdown index >= k: 2/T_k."""
    return Fraction(2, triangular(check_int(k, "limiting-ratio index", 2)))


def smooth_partners(h: int, ray) -> list[RayVec]:
    """All height-h rays spanning a unimodular cone with the given ray.

    These are the universe vectors v with |wedge(ray, v)| = 1; they lie on
    the two lattice lines at distance 1 from the ray's span, which caps each
    side at 2h / sup_norm(ray) + 1 points.  The cap is enforced.
    """
    x, y = _ray_ints(ray, MAX_H)  # keeps the wedges below in int64
    if not is_primitive(x, y):
        raise ValidationError(f"({x}, {y}) is not a primitive lattice vector")
    universe = enumerate_rays(h)
    c = universe.coords
    w = np.multiply(x, c[:, 1], dtype=np.int64)
    w -= np.multiply(y, c[:, 0], dtype=np.int64)
    cap = 2 * h // max(abs(x), abs(y)) + 1
    for side in (1, -1):
        count = int(np.count_nonzero(w == side))
        if count > cap:
            raise InvariantError(f"height {universe.h}: ray ({x}, {y}) has {count} smooth partners "
                                 f"on side {side}, more than the line capacity {cap}")
    return [RayVec(int(a), int(b)) for a, b in c[np.abs(w) == 1]]
