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
from functools import cmp_to_key

import numpy as np

from .errors import ValidationError, check_int
from .lattice import MAX_H, RayUniverse, RayVec, _compare_xy, is_primitive


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


class Fan:
    """An angularly sorted ray list plus the 2-cones spanned between neighbors.

    Build instances with complete_fan() or the sampling helpers; the
    constructor takes ownership of an already deduplicated, primitive and
    exactly sorted (n, 2) int64 coordinate array and freezes it.
    """

    __slots__ = ("_coords", "_cone_starts", "_wedges")

    def __init__(self, coords: np.ndarray):
        coords = np.ascontiguousarray(coords, dtype=np.int64).reshape(-1, 2)
        coords.flags.writeable = False
        n = len(coords)
        if n == 0:
            starts = np.empty(0, dtype=np.int64)
            wedges = np.empty(0, dtype=np.int64)
        else:
            nxt = np.roll(coords, -1, axis=0)
            w = coords[:, 0] * nxt[:, 1] - coords[:, 1] * nxt[:, 0]
            keep = w > 0  # counter-clockwise gap strictly below a half turn
            starts = np.nonzero(keep)[0]
            wedges = w[keep]
        starts.flags.writeable = False
        wedges.flags.writeable = False
        self._coords = coords
        self._cone_starts = starts
        self._wedges = wedges

    @property
    def coords(self) -> np.ndarray:
        """Read-only (n_rays, 2) int64 array, in canonical angular order."""
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
    def rays(self) -> tuple[RayVec, ...]:
        """Every ray as a RayVec, built on each call: O(n) Python objects,
        meant for small fans."""
        return tuple(RayVec(x, y) for x, y in self._coords.tolist())

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

    Accepts a whole RayUniverse (already sorted; taken as-is) or any iterable
    of rays, as RayVec or (x, y) pairs.  Duplicates collapse; non-primitive
    vectors are rejected, and so are coordinates outside [-MAX_H, MAX_H],
    the range in which every wedge fits in int64.
    """
    if isinstance(rays, RayUniverse):
        return Fan(rays.coords)
    uniq = set()
    for x, y in rays:
        x = check_int(x, "ray coordinate", -MAX_H, MAX_H)
        y = check_int(y, "ray coordinate", -MAX_H, MAX_H)
        if not is_primitive(x, y):
            raise ValidationError(f"({x}, {y}) is not a primitive lattice vector")
        uniq.add((x, y))
    ordered = sorted(
        uniq, key=cmp_to_key(lambda u, v: _compare_xy(u[0], u[1], v[0], v[1]))
    )
    return Fan(np.array(ordered, dtype=np.int64).reshape(-1, 2))


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
    indices = [int(v) for v in fan.cone_indices]
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
    rec["rays"] = [[int(x), int(y)] for x, y in fan.coords]
    return rec


def fan_from_record(record) -> Fan:
    """Rebuild a fan from a record; cones are always recomputed, never trusted."""
    if not isinstance(record, dict) or not isinstance(record.get("rays"), list):
        raise ValidationError("fan record must be a mapping with a 'rays' list")
    for r in record["rays"]:
        if not isinstance(r, (list, tuple)) or len(r) != 2:
            raise ValidationError(f"malformed ray entry {r!r}; expected [x, y]")
    return complete_fan(record["rays"])
