"""Single-ray blowdowns of the full height-h fan.

Removing one ray rho from the complete fan on all rays of sup-norm <= h
merges its two flanking cones into one, and the merged cone's singularity
index is the blowdown index of rho.  Both flanking cones of the full fan are
smooth, so that index is the unique integer k >= 1 with

    k * u_rho = u_tau + u_omega

for the angular neighbors tau, omega of rho, and it also equals
|wedge(u_tau, u_omega)|.  The table takes each index from the Farey walk
that enumerates the rays (its step multiplier) and checks it against both
forms on every ray; blowdown_index solves one ray from its neighbours and
checks the same.  All of it is exact integer arithmetic, and nothing is
returned if the forms disagree.

Norm bands: k * sup_norm(rho) <= 2h holds exactly for every ray (the
neighbor sum has sup-norm at most 2h), while the lower bound
(2 - eps) / (k + 2) * h is asymptotic, with eps = 1/h the largest normalized
gap between angular neighbors at height h.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from typing import NoReturn

import numpy as np

from .errors import InvariantError, ValidationError, check_int
from .lattice import (
    MAX_H, RayUniverse, RayVec, _check_height, _ray_ints, _unfold_indices, _walk, enumerate_rays,
    is_primitive, wedge,
)


#: Rows per block of the vectorized checks; bounds their temporaries.
_BLOCK = 1 << 16


def _fail(h: int, i: int, ray, tau, omega, what: str) -> NoReturn:
    ray, tau, omega = (tuple(np.asarray(v).tolist()) for v in (ray, tau, omega))
    raise InvariantError(f"height {h}: ray {ray} at position {i}, between {tau} and {omega}: {what}")


class BlowdownTable(Mapping):
    """Blowdown index of every ray of the height-h complete fan.

    Mapping interface: table[ray] -> k, len(table) is the number of rays,
    iteration yields RayVec objects in canonical angular order.  Bulk data
    is exposed as read-only arrays (coords, k_values) aligned with that
    order, plus the gap bound epsilon = 1/h for the height.
    """

    __slots__ = ("_universe", "_k", "epsilon")

    def __init__(self, universe: RayUniverse, k_values: np.ndarray, epsilon: float):
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
        self.epsilon = epsilon

    @property
    def h(self) -> int:
        return self._universe.h

    @property
    def coords(self) -> np.ndarray:
        return self._universe.coords

    @property
    def k_values(self) -> np.ndarray:
        return self._k

    def __len__(self) -> int:
        return len(self._k)

    def __iter__(self):
        return iter(self._universe)

    def __getitem__(self, ray) -> int:
        try:
            i = self._universe.index_of(ray)
        except ValidationError:
            raise KeyError(ray) from None
        return int(self._k[i])

    def __repr__(self) -> str:
        return f"BlowdownTable(h={self.h}, n_rays={len(self)})"

    def count_geq(self, k: int) -> int:
        """Number of rays with blowdown index >= k."""
        k = check_int(k, "index threshold", 1)
        return int(np.count_nonzero(self._k >= k))

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
    """Blowdown index of one ray: the k with k * u = u_tau + u_omega.

    Cross-checked against |wedge(tau, omega)|; a mismatch raises rather than
    being silently ignored.
    """
    x, y = _ray_ints(ray)
    tau, omega = neighbors(h, (x, y))
    sx, sy = tau.x + omega.x, tau.y + omega.y
    k = sx // x if x != 0 else sy // y
    if k < 1 or (k * x, k * y) != (sx, sy):
        raise InvariantError(
            f"neighbor sum ({sx}, {sy}) is not a positive multiple of ({x}, {y})"
        )
    if k != abs(wedge(tau, omega)):
        raise InvariantError("neighbor-sum index disagrees with the neighbor wedge")
    return k


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
    k = _unfold_indices(_walk(universe.h)[1])
    n = len(c)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        # neighbours by slicing; only the first and last block wrap around
        tau = c[lo - 1 : hi - 1] if lo else np.concatenate((c[-1:], c[: hi - 1]))
        omega = c[lo + 1 : hi + 1] if hi < n else np.concatenate((c[lo + 1 :], c[:1]))
        _verify_rows(universe.h, lo, c[lo:hi], tau, omega, k[lo:hi])
    return BlowdownTable(universe, k, epsilon_of(h))


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


def ratio_geq(h: int, k: int) -> Fraction:
    """Exact fraction of height-h rays with blowdown index >= k."""
    return blowdown_table(h).ratio_geq(k)


def epsilon_of(h: int) -> float:
    """Largest sup-norm gap between normalized angular neighbors at height h.

    Rays are scaled onto the unit sup-norm sphere.  Neighbors a/b, c/d in
    the first octant are consecutive Farey fractions of order h, so
    b * d >= h and their gap 1/(b * d) is at most 1/h, reached exactly
    between (1, 0) and (h, 1); symmetry carries this to the whole circle.
    The value is therefore exactly 1/h.
    """
    return 1.0 / _check_height(h)


def band_bounds(h: int, k: int, eps: float) -> tuple[float, Fraction]:
    """Norm band (lower, upper) for rays of blowdown index k at height h.

    The upper bound 2h/k is exact (equivalently k * |u| <= 2h in integers);
    the lower bound (2 - eps)/(k + 2) * h is asymptotic and carries the gap
    bound eps (epsilon_of(h) = 1/h), so callers should allow integer
    rounding slack against it.
    """
    k = check_int(k, "blowdown index", 1)
    if not 0.0 <= eps < 2.0:
        raise ValidationError(f"eps must be in [0, 2), got {eps!r}")
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
        if int(np.count_nonzero(w == side)) > cap:
            raise InvariantError("smooth partners exceed the per-side line capacity")
    return [RayVec(int(a), int(b)) for a, b in c[np.abs(w) == 1]]
