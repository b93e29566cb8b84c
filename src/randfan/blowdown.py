"""Single-ray blowdowns of the full height-h fan.

Removing one ray rho from the complete fan on all rays of sup-norm <= h
merges its two flanking cones into one, and the merged cone's singularity
index is the blowdown index of rho.  blowdown_table reads every index off
the wedge of the ray's two neighbours, and its docstring gives the
identity behind that; the counts and ratios come from counting.count_geq,
whose docstring gives the closed form and its limit 2/T_k; band_bounds
gives the norm band of an index.

Reports: blowdown_array and space_array give the tables of the blowdown
and space commands as columns for randfan.emission to render (the ratios
command's table is counting.conjecture_report).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._numpy import np
from .counting import _check_bytes, _check_height, count_geq
from .errors import InvariantError, ValidationError, check_int
from .lattice import _BLOCK, RayUniverse, _block_wedges, _universe_bytes, enumerate_rays, ray_array


class BlowdownTable(RayUniverse):
    """Blowdown index of every ray of the height-h complete fan: the rays of
    its universe, sharing its coordinate array, plus one read-only int64
    index per ray (k_values) in the same canonical order.

    table[ray] -> k; all else (h, coords, len, in, iteration, n_rays,
    index_of) is the universe's.  epsilon is the gap bound 1/h.
    """

    __slots__ = ("_k",)

    def __init__(self, universe: RayUniverse, k_values: np.ndarray):
        if len(k_values) != len(universe):
            raise InvariantError(
                f"height {universe.h}: {len(k_values)} indices for {len(universe)} rays"
            )
        # k >= 1 and the upper band hold exactly for every ray: enforce them, never measure them
        h, coords, n = universe.h, universe.coords, len(universe)
        for lo in range(0, n, _BLOCK):
            k = k_values[lo : lo + _BLOCK]
            norms = _SupNorm(coords)[lo : lo + _BLOCK]
            bad = (k < 1) | (k * norms > 2 * h)
            if bad.any():
                i = lo + int(np.argmax(bad))
                what = (f"index {k_values[i]} is below 1" if k_values[i] < 1 else
                        f"index {k_values[i]} times sup-norm {norms[i - lo]} exceeds 2h = {2 * h}")
                ray, tau, omega = (tuple(coords[j].tolist()) for j in (i, i - 1, (i + 1) % n))
                raise InvariantError(f"height {h}: ray {ray} at position {i}, between {tau} and {omega}: {what}")
        k_values.flags.writeable = False  # only once accepted: a refused array stays the caller's
        super().__init__(h, coords)
        self._k = k_values

    @property
    def k_values(self) -> np.ndarray:
        return self._k

    @property
    def epsilon(self) -> float:
        return epsilon_of(self.h)

    def __getitem__(self, ray) -> int:
        try:
            return int(self._k[self.index_of(ray)])
        except ValidationError:
            raise KeyError(ray) from None

    def count_geq(self, k: int) -> int:
        """Number of rays with blowdown index >= k, by counting.count_geq."""
        return count_geq(self.h, k)

    def ratio_geq(self, k: int) -> Fraction:
        """Exact fraction of rays with blowdown index >= k."""
        return Fraction(self.count_geq(k), len(self))


@lru_cache(maxsize=2, typed=True)  # typed for the reason given at enumerate_rays
def blowdown_table(h: int) -> BlowdownTable:
    """Blowdown index of every ray at height h.

    Both flanking cones of a ray u are smooth, so its index is the integer
    k >= 1 with tau + omega = k * u for its neighbours tau, omega: the two
    unit wedges wedge(tau, u) = wedge(u, omega) = 1, which enumerate_rays
    has checked, give it with k = wedge(tau, omega) (Fulton, Introduction to
    Toric Varieties, 2.5).  So each index is read off the wedge of its ray's
    neighbours, in blocks of rows; the table checks k >= 1 and k * |u| <= 2h
    on every ray, and raises InvariantError naming the height, position,
    ray, neighbours and values.
    A height whose universe and index column together would exceed half of
    MemAvailable is refused with ValidationError before either is built.
    Results are cached.
    """
    h = _check_height(h)
    # the universe, and 8 B per ray for the int64 index column
    _check_bytes(_universe_bytes((h,)) + 8 * count_geq(h, 1), f"height {h} needs", "to build the blowdown table")
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

    The upper bound 2h/k is exact: k * |u| <= 2h in integers, as the
    neighbour sum k * u has sup-norm at most 2h.  The lower bound
    (2 - eps)/(k + 2) * h is asymptotic and carries the gap bound
    eps = epsilon_of(h) = 1/h, so callers should allow integer rounding
    slack against it.
    """
    eps = epsilon_of(h)
    k = check_int(k, "blowdown index", 1)
    return (2.0 - eps) / (k + 2) * h, Fraction(2 * h, k)


class _SupNorm:
    """The sup-norm column of an (n, 2) coordinate array, computed for each
    slice that is read, so the whole column is never held."""

    def __init__(self, coords: np.ndarray):
        self.coords = coords

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, rows: slice) -> np.ndarray:
        c = self.coords[rows]
        return np.maximum(np.abs(c[:, 0]), np.abs(c[:, 1]))


BLOWDOWN_COLUMNS = ("x", "y", "norm", "k")


def blowdown_array(table: BlowdownTable) -> dict:
    """Full blowdown-table export: the columns x, y, norm and k in canonical
    order; x, y and k are views of the table, and norm is computed per
    slice."""
    return {**ray_array(table), "norm": _SupNorm(table.coords), "k": table.k_values}


SPACE_COLUMNS = ("x", "y", "k")


def space_array(h: int) -> dict:
    """Blowdown index of every ray in the closed first quadrant, in angular
    order, as the columns x, y and k; the raw material for shell scatter
    plots.  The universe starts at (1, 0) and has the symmetry of the
    square, so the quadrant up to (0, 1) is its first quarter plus one ray,
    and the columns are views of the table."""
    table = blowdown_table(h)
    columns = {**ray_array(table), "k": table.k_values}
    return {name: column[: len(table) // 4 + 1] for name, column in columns.items()}


def space_report(h: int) -> list[dict]:
    """space_array() as one dict per ray."""
    cols = space_array(h)
    return [dict(zip(SPACE_COLUMNS, r)) for r in zip(*(cols[c].tolist() for c in SPACE_COLUMNS))]
