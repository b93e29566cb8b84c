"""Fans built from ray sets by filling every 2-cone between angular neighbors.

A finite set of rays determines a unique maximal fan: walk the rays in
counter-clockwise order and span a 2-cone over each cyclically adjacent pair
whose angular gap is strictly less than a half turn.  That gap condition is
the exact sign test wedge(u, v) > 0; a pair at exactly a half turn spans a
line, not a strongly convex cone.  Sets with fewer than two rays, and pairs
of antipodal rays, therefore produce fans with no 2-cones at all.

The singularity index of a 2-cone is |wedge| of its boundary rays; a fan is
smooth when every index is 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import _INTEGERS, ValidationError, check_int
from .lattice import MAX_H, RayUniverse


@dataclass(frozen=True, slots=True)
class Cone2:
    """A 2-cone, as the index pair (a, b) of its boundary rays in fan order."""

    a: int
    b: int


@dataclass(frozen=True)
class SingularitySpectrum:
    """Per-cone singularity indices of a fan plus their multiplicity counts."""

    indices: list[int]
    counts: dict[int, int]


def _arc_classes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # lattice._arc_class on arrays: 0..7 counter-clockwise from (1, 0), even
    # on the axes, odd in the open quadrants
    s = np.sign(x)
    return np.where(y > 0, 2 - s, np.where(y < 0, 6 + s, 2 - 2 * s))


def _refuse(coords: np.ndarray, bad: np.ndarray, what: str) -> None:
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"fan ray {tuple(coords[i].tolist())} at position {i} {what}")


class Fan:
    """An angularly sorted ray list plus the 2-cones spanned between neighbors.

    Build instances with complete_fan() or the sampling helpers.  The
    constructor takes an (n, 2) integer coordinate array, checks in O(n)
    that its rays are within [-MAX_H, MAX_H] (on the input's own dtype,
    before it is narrowed to int32), primitive and distinct in strictly
    canonical angular order (ValidationError otherwise), and freezes it.
    An int32 array, such as a universe's, is taken without a copy.  Wedges
    are computed in int64.
    """

    __slots__ = ("_coords", "_cone_starts", "_wedges")

    def __init__(self, coords: np.ndarray):
        coords = np.asarray(coords)
        if coords.size and coords.dtype.kind != "i":
            raise ValidationError(f"fan coordinates must be integers, got dtype {coords.dtype}")
        coords = coords.reshape(-1, 2)
        # on the input's dtype: narrowing first would wrap 2**32 + 1 to 1
        _refuse(coords, ((coords < -MAX_H) | (coords > MAX_H)).any(axis=1), f"is outside [-{MAX_H}, {MAX_H}]")
        coords = np.ascontiguousarray(coords, dtype=np.int32)
        coords.flags.writeable = False
        x, y = coords[:, 0], coords[:, 1]
        w = np.multiply(x, np.roll(y, -1), dtype=np.int64)  # wedge with the next ray
        w -= np.multiply(y, np.roll(x, -1), dtype=np.int64)
        step = np.append(np.diff(_arc_classes(x, y)), 1)  # class step to the next ray; the last has none
        _refuse(coords, np.gcd(x, y) != 1, "is not primitive")
        # canonical order never steps back a class and turns strictly
        # counter-clockwise within one
        _refuse(coords, (step < 0) | ((step == 0) & (w <= 0)), "does not strictly precede the next ray")
        keep = w > 0  # counter-clockwise gap strictly below a half turn
        starts = np.flatnonzero(keep)
        wedges = w[keep]
        starts.flags.writeable = False
        wedges.flags.writeable = False
        self._coords = coords
        self._cone_starts = starts
        self._wedges = wedges

    @property
    def coords(self) -> np.ndarray:
        """Read-only (n_rays, 2) int32 array, in canonical angular order; the
        universe's own array for complete_fan of a RayUniverse."""
        return self._coords

    @property
    def n_rays(self) -> int:
        return len(self._coords)

    @property
    def n_cones(self) -> int:
        return len(self._wedges)

    @property
    def cone_indices(self) -> np.ndarray:
        """Singularity index of each cone, aligned with .cones (read-only)."""
        return self._wedges

    @property
    def cones(self) -> tuple[Cone2, ...]:
        """Every cone as a Cone2, built on each call: O(n) Python objects,
        meant for small fans."""
        n = self.n_rays
        return tuple(Cone2(a, (a + 1) % n) for a in self._cone_starts.tolist())

    def __repr__(self) -> str:
        return f"Fan(n_rays={self.n_rays}, n_cones={self.n_cones})"

    def _has_cone_at(self, a: int) -> bool:
        i = int(np.searchsorted(self._cone_starts, a))
        return i < len(self._cone_starts) and int(self._cone_starts[i]) == a


def complete_fan(rays) -> Fan:
    """Complete a set of rays to the maximal fan with exactly those rays.

    Accepts a whole RayUniverse (already sorted; its int32 coordinate array
    is taken as-is, without a copy) or any iterable of rays, as RayVec or
    (x, y) pairs.  Duplicates collapse.  A coordinate that is not an integer
    (bool, float, str, ...) or lies outside [-MAX_H, MAX_H], the range in
    which coordinates fit in int32 and every wedge, formed in int64, is
    exact, is rejected before any conversion, and Fan rejects non-primitive
    vectors.  The rays are sorted by half-quadrant class, then by an exact
    integer slope key on int64: each open quadrant is turned onto x, y > 0
    and keyed (y << 41) // x.  With |coordinates| <= MAX_H < 2**20, the
    slopes of two distinct rays in one quadrant differ by at least
    1/(x1 * x2) > 2**-40, so their keys differ, and every key is below
    2**61.
    """
    if isinstance(rays, RayUniverse):
        return Fan(rays.coords)
    flat = [v for x, y in rays for v in (x, y)]
    if (not all(issubclass(t, _INTEGERS) and t is not bool for t in set(map(type, flat)))
            or flat and not (-MAX_H <= min(flat) and max(flat) <= MAX_H)):
        for v in flat:  # the first offending coordinate raises
            check_int(v, "ray coordinate", -MAX_H, MAX_H)
    c = np.unique(np.array(flat, dtype=np.int64).reshape(-1, 2), axis=0)
    x, y = c[:, 0], c[:, 1]
    arc = _arc_classes(x, y)
    quadrant = [arc == 1, arc == 3, arc == 5, arc == 7]
    turned_x = np.select(quadrant, [x, y, -x, -y], 1)  # the axes get key 0
    turned_y = np.select(quadrant, [y, -x, -y, x], 0)
    return Fan(c[np.lexsort(((turned_y << 41) // turned_x, arc))])


def cone_index(fan: Fan, cone: Cone2) -> int:
    """Singularity index |wedge| of one cone of the fan."""
    n = fan.n_rays
    if not (0 <= cone.a < n) or cone.b != (cone.a + 1) % n or not fan._has_cone_at(cone.a):
        raise ValidationError(f"{cone} is not a cone of this fan")
    c = fan.coords
    w = int(c[cone.a, 0]) * int(c[cone.b, 1]) - int(c[cone.a, 1]) * int(c[cone.b, 0])
    return abs(w)


def is_smooth(fan: Fan) -> bool:
    """True iff every cone has index 1; fans without 2-cones count as smooth."""
    return fan.n_cones == 0 or bool((fan.cone_indices == 1).all())


def spectrum(fan: Fan) -> SingularitySpectrum:
    """All cone indices in fan order, plus index -> multiplicity counts."""
    indices = fan.cone_indices.tolist()
    return SingularitySpectrum(indices=indices, counts=dict(Counter(indices)))


def delta_k(fan: Fan, k: int) -> Fraction | None:
    """Fraction of the fan's cones with singularity index >= k, exactly.

    None for a fan with no cones: that 0/0 case is kept distinct from 0 so
    degenerate draws are never folded into density statistics.
    """
    k = check_int(k, "index threshold", 1)
    m = fan.n_cones
    if m == 0:
        return None
    return Fraction(int(np.count_nonzero(fan.cone_indices >= k)), m)


def fan_to_record(fan: Fan, h: int | None = None, extra: dict | None = None) -> dict:
    """Serializable record {h?, ..., rays: [[x, y], ...]}; cones are not stored."""
    rec: dict = {}
    if h is not None:
        rec["h"] = int(h)
    if extra:
        rec.update(extra)
    rec["rays"] = fan.coords.tolist()
    return rec


def fan_from_record(record) -> Fan:
    """Rebuild a fan from a record; cones are always recomputed, never trusted."""
    if not isinstance(record, dict) or not isinstance(record.get("rays"), list):
        raise ValidationError("fan record must be a mapping with a 'rays' list")
    for r in record["rays"]:
        if not isinstance(r, (list, tuple)) or len(r) != 2:
            raise ValidationError(f"malformed ray entry {r!r}; expected [x, y]")
    return complete_fan(record["rays"])
