"""Single-ray blowdowns of the full height-h fan.

Removing one ray rho from the complete fan on all rays of sup-norm <= h
merges its two flanking cones into one, and the merged cone's singularity
index is the blowdown index of rho.  Both flanking cones of the full fan are
smooth, so that index is the unique integer k >= 1 with

    k * u_rho = u_tau + u_omega

for the angular neighbors tau, omega of rho, and it also equals
|wedge(u_tau, u_omega)|.  The table takes each index from the Farey walk
that enumerates the rays (its step multiplier, kept by the RayUniverse that
enumerate_rays returns) and checks it against both forms on every ray;
blowdown_index takes one ray's index from its neighbours' wedge and checks
it the same way.  All of it is exact integer arithmetic, and nothing is
returned if the forms disagree.

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
    MAX_H, RayUniverse, RayVec, _check_height, _ray_ints, _unfold_indices, count_geq,
    enumerate_rays, is_primitive,
)


#: Rows per block of the vectorized checks; bounds their temporaries.
_BLOCK = 1 << 16


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
        k_values.flags.writeable = False
        # the upper band holds exactly for every ray: enforce it, never measure it
        h, coords, n = universe.h, universe.coords, len(universe)
        for lo in range(0, n, _BLOCK):
            c = coords[lo : lo + _BLOCK]
            k = k_values[lo : lo + _BLOCK]
            norms = np.maximum(np.abs(c[:, 0]), np.abs(c[:, 1]))
            bad = k * norms > 2 * h
            if bad.any():
                i = lo + int(np.argmax(bad))
                _fail(h, i, coords[i], coords[i - 1], coords[(i + 1) % n],
                      f"index {k_values[i]} times sup-norm {norms[i - lo]} exceeds 2h = {2 * h}")
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
    """Blowdown index of one ray: k = |wedge(tau, omega)| of its neighbours,
    checked as blowdown_table checks every row (k >= 1 and k * u = tau + omega).
    """
    universe = enumerate_rays(h)
    c = universe.coords
    i = universe.index_of(ray)
    tau, u, omega = c[[i - 1, i, (i + 1) % len(c)], None]
    k = np.abs(tau[:, 0] * omega[:, 1] - tau[:, 1] * omega[:, 0])
    _verify_rows(universe.h, i, u, tau, omega, k)
    return int(k[0])


@lru_cache(maxsize=2, typed=True)  # typed for the reason given at enumerate_rays
def blowdown_table(h: int) -> BlowdownTable:
    """Blowdown index of every ray at height h, verified on every ray.

    The octant walk that enumerates the rays also yields each ray's index
    (its step multiplier); the indices are unfolded to the whole circle by
    the symmetries that unfold the rays.  Nothing is solved here: for every
    ray, k >= 1, k * u == u_tau + u_omega and |wedge(tau, omega)| == k are
    checked, and the table checks k * |u| <= 2h.  Any failure raises
    InvariantError naming the height, position, ray, neighbours and values.
    Results are cached.
    """
    universe = enumerate_rays(h)
    c = universe.coords
    k = _unfold_indices(universe._octant_k)
    n = len(c)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        # neighbours by slicing; only the first and last block wrap around
        tau = c[lo - 1 : hi - 1] if lo else np.concatenate((c[-1:], c[: hi - 1]))
        omega = c[lo + 1 : hi + 1] if hi < n else np.concatenate((c[lo + 1 :], c[:1]))
        _verify_rows(universe.h, lo, c[lo:hi], tau, omega, k[lo:hi])
    return BlowdownTable(universe, k)


def _verify_rows(h: int, lo: int, u, tau, omega, k) -> None:
    # rays u at positions lo, lo + 1, ... of the height-h universe, with
    # their neighbours tau, omega and their indices k, all aligned
    s_x = tau[:, 0] + omega[:, 0]
    s_y = tau[:, 1] + omega[:, 1]
    w = tau[:, 0] * omega[:, 1] - tau[:, 1] * omega[:, 0]
    checks = (
        (k < 1, "index {k} is below 1"),
        ((k * u[:, 0] != s_x) | (k * u[:, 1] != s_y),
         "neighbour sum ({sx}, {sy}) is not {k} times the ray"),
        (np.abs(w) != k, "index {k} but the neighbours' wedge is {w}"),
    )
    bad = checks[0][0] | checks[1][0] | checks[2][0]
    if bad.any():
        i = int(np.argmax(bad))
        what = next(what for failed, what in checks if failed[i])
        _fail(h, lo + i, u[i], tau[i], omega[i], what.format(k=k[i], sx=s_x[i], sy=s_y[i], w=w[i]))


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
    w = x * c[:, 1] - y * c[:, 0]
    cap = 2 * h // max(abs(x), abs(y)) + 1
    for side in (1, -1):
        count = int(np.count_nonzero(w == side))
        if count > cap:
            raise InvariantError(f"height {universe.h}: ray ({x}, {y}) has {count} smooth partners "
                                 f"on side {side}, more than the line capacity {cap}")
    return [RayVec(int(a), int(b)) for a, b in c[np.abs(w) == 1]]
