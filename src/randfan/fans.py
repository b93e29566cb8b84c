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

from fractions import Fraction

import numpy as np

from .errors import _INTEGERS, ValidationError, brief, check_int
from .lattice import MAX_H, RayUniverse, _check_bytes, _wedge

#: Bytes Fan holds per input ray at its peak: the int32 copy of an input of
#: another dtype (8 B), the int64 wedge it keeps (8 B) and the temporaries
#: of its checks.  Traced with tracemalloc at h = 100, 300 and 1000: 30 B
#: per ray for a universe's int32 array, 38 B for an int64 one.
_RAY_BYTES = 40


def _arc_classes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # lattice._arc_class on arrays: 0..7 counter-clockwise from (1, 0), even
    # on the axes, odd in the open quadrants
    s = np.sign(x)
    return np.where(y > 0, 2 - s, np.where(y < 0, 6 + s, 2 - 2 * s))


def _angular_key(c: np.ndarray) -> np.ndarray:
    # complete_fan's sort key of each row of an (n, 2) int64 array
    x, y = c[:, 0], c[:, 1]
    arc = _arc_classes(x, y)
    quadrant = [arc == 1, arc == 3, arc == 5, arc == 7]
    turned_x = np.select(quadrant, [x, y, -x, -y], 1)  # the axes get slope key 0
    turned_y = np.select(quadrant, [y, -x, -y, x], 0)
    return (arc << 60) + (turned_y << 40) // turned_x


def _refuse(coords: np.ndarray, bad: np.ndarray, what: str) -> None:
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"fan ray {tuple(coords[i].tolist())} at position {i} {what}")


class Fan:
    """An angularly sorted ray list plus the 2-cones spanned between neighbors.

    Build instances with complete_fan() or the sampling helpers.  The
    constructor takes an (n, 2) integer coordinate array (or an empty one),
    checks its _RAY_BYTES per ray with lattice._check_bytes, then checks in
    O(n) that its rays are within [-MAX_H, MAX_H] (on the input's own dtype,
    before it is narrowed to int32), primitive and distinct in strictly
    canonical angular order (ValidationError otherwise, as for another
    dtype or shape), and freezes it.  An int32 array, such as a universe's,
    is taken without a copy.  Wedges are computed in int64.
    """

    __slots__ = ("_coords", "_wedges")

    def __init__(self, coords: np.ndarray):
        coords = np.asarray(coords)
        if coords.size and coords.dtype.kind != "i":
            raise ValidationError(f"fan coordinates must be integers, got dtype {coords.dtype}")
        if coords.size and (coords.ndim != 2 or coords.shape[1] != 2):
            raise ValidationError(f"fan coordinates must be an (n, 2) array, got shape {coords.shape}")
        coords = coords.reshape(-1, 2)  # an empty input is the empty fan
        n = len(coords)
        _check_bytes(_RAY_BYTES * n, f"a fan of {n} rays needs", "to build")
        # on the input's dtype: narrowing first would wrap 2**32 + 1 to 1
        _refuse(coords, ((coords < -MAX_H) | (coords > MAX_H)).any(axis=1), f"is outside [-{MAX_H}, {MAX_H}]")
        coords = np.ascontiguousarray(coords, dtype=np.int32)
        coords.flags.writeable = False
        x, y = coords[:, 0], coords[:, 1]
        w = _wedge(coords, np.roll(coords, -1, axis=0))  # wedge with the next ray
        step = np.append(np.diff(_arc_classes(x, y)), 1)  # class step to the next ray; the last has none
        _refuse(coords, np.gcd(x, y) != 1, "is not primitive")
        # canonical order never steps back a class and turns strictly
        # counter-clockwise within one
        _refuse(coords, (step < 0) | ((step == 0) & (w <= 0)), "does not strictly precede the next ray")
        wedges = w[w > 0]  # counter-clockwise gap strictly below a half turn
        wedges.flags.writeable = False
        self._coords = coords
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
        """Singularity index of each cone, read-only, in fan order: the cone
        from ray i to ray i + 1 (cyclically) for each i whose wedge is > 0."""
        return self._wedges

    def __repr__(self) -> str:
        return f"Fan(n_rays={self.n_rays}, n_cones={self.n_cones})"


def complete_fan(rays) -> Fan:
    """Complete a set of rays to the maximal fan with exactly those rays.

    Accepts a whole RayUniverse (already sorted; its int32 coordinate array
    is taken as-is, without a copy) or any iterable of (x, y) pairs; the
    first entry of a list, tuple or array that is not one is named in the
    ValidationError.  Duplicates collapse.  A coordinate that is not an
    integer (bool, float, str, ...) or lies outside [-MAX_H, MAX_H], the
    range in which coordinates fit in int32 and every wedge, formed in
    int64, is exact, is rejected before any conversion, and Fan rejects
    non-primitive vectors.
    The rays are sorted by one stable argsort of an exact int64 key, and
    adjacent equal rows are dropped: each open quadrant is turned onto
    x, y > 0, and a ray of half-quadrant class arc is keyed
    (arc << 60) + (y << 40) // x.  With |coordinates| <= MAX_H < 2**20, the
    slopes of two distinct rays in one quadrant differ by at least
    1/MAX_H**2 > 2**-40, so their keys differ, and every key is below
    2**63.  Only multiples of one direction tie, and Fan refuses the
    non-primitive one.
    """
    if isinstance(rays, RayUniverse):
        return Fan(rays.coords)
    try:
        flat = [v for x, y in rays for v in (x, y)]
    except (TypeError, ValueError):  # an entry is not a pair, or rays is not iterable
        pairs = rays if isinstance(rays, (list, tuple, np.ndarray)) else ()  # an iterator is spent
        what = next((f"ray entry {brief(r)}" for r in pairs if not (
            isinstance(r, (list, tuple)) and len(r) == 2 or isinstance(r, np.ndarray) and r.shape == (2,))),
            f"rays {brief(rays)}")
        raise ValidationError(f"malformed {what}; expected [x, y]") from None
    if (not all(issubclass(t, _INTEGERS) and t is not bool for t in set(map(type, flat)))
            or flat and not (-MAX_H <= min(flat) and max(flat) <= MAX_H)):
        for v in flat:  # the first offending coordinate raises
            check_int(v, "ray coordinate", -MAX_H, MAX_H)
    # each list and array is let go once the next is made, so Fan checks
    # the rays with none of them held
    c = np.array(flat, dtype=np.int64).reshape(-1, 2)
    del flat
    c = c[np.argsort(_angular_key(c), kind="stable")]
    fresh = np.ones(len(c), dtype=bool)  # not equal to the row before
    fresh[1:] = (c[1:] != c[:-1]).any(axis=1)
    c = c[fresh]
    return Fan(c)


def is_smooth(fan: Fan) -> bool:
    """True iff every cone has index 1; fans without 2-cones count as smooth."""
    return fan.n_cones == 0 or bool((fan.cone_indices == 1).all())


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


def fan_from_record(record) -> Fan:
    """Rebuild a fan from a record; cones are always recomputed, never trusted."""
    if not isinstance(record, dict) or not isinstance(record.get("rays"), list):
        raise ValidationError("fan record must be a mapping with a 'rays' list")
    return complete_fan(record["rays"])
