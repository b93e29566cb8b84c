"""Brute-force reference implementations used only by the tests.

Deliberately dumb and structurally independent of the package: double loops,
gcd filters, float atan2 angles.  Float angle ties cannot bite because the
only coincident directions are identical vectors (deduplicated before
sorting) and the only half-turn gaps are exact antipodes, which the
completion oracle excludes with an explicit tolerance.
"""

import json
import math
from fractions import Fraction

import numpy as np

from randfan.errors import InvariantError, ValidationError

FORMATS = ("csv", "json")

TWO_PI = 2.0 * math.pi


def angle(v) -> float:
    """Angle in [0, 2*pi), measured counter-clockwise from (1, 0)."""
    a = math.atan2(v[1], v[0])
    return a if a >= 0.0 else a + TWO_PI


def brute_rays(h):
    """All primitive vectors of sup-norm <= h, by scan + gcd + atan2 sort."""
    pts = [
        (x, y)
        for x in range(-h, h + 1)
        for y in range(-h, h + 1)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1
    ]
    return sorted(pts, key=angle)


def naive_completion(vecs):
    """(sorted rays, cone vector pairs, cone indices) by float angles.

    A cyclically adjacent pair spans a cone iff its counter-clockwise gap is
    strictly between 0 and a half turn.
    """
    pts = sorted({(int(x), int(y)) for x, y in vecs}, key=angle)
    n = len(pts)
    cones, indices = [], []
    if n < 2:
        return pts, cones, indices
    for i in range(n):
        u = pts[i]
        v = pts[(i + 1) % n]
        gap = (angle(v) - angle(u)) % TWO_PI
        if 1e-12 < gap < math.pi - 1e-9:
            cones.append((u, v))
            indices.append(abs(u[0] * v[1] - u[1] * v[0]))
    return pts, cones, indices


def brute_blowdown(h, ray):
    """Index of the cone created by dropping one ray from the full fan."""
    ray = (int(ray[0]), int(ray[1]))
    pts = [p for p in brute_rays(h) if p != ray]
    _, _, indices = naive_completion(pts)
    merged = [i for i in indices if i != 1]
    if len(merged) > 1:
        raise AssertionError(f"removing {ray} broke more than one cone: {merged}")
    return merged[0] if merged else 1


def brute_epsilon(h) -> float:
    """Largest sup-norm gap between consecutive normalized rays."""
    pts = brute_rays(h)
    worst = 0.0
    for u, v in zip(pts, pts[1:] + pts[:1]):
        nu = max(abs(u[0]), abs(u[1]))
        nv = max(abs(v[0]), abs(v[1]))
        worst = max(worst, abs(u[0] / nu - v[0] / nv), abs(u[1] / nu - v[1] / nv))
    return worst


def totients(n):
    """phi(0..n) by sieve; phi(0) is set to 0."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    phi[0] = 0
    return phi


def farey_pair_count_geq(h, k):
    """Rays of sup-norm <= h with blowdown index >= k, by a double loop over
    consecutive Farey denominators: each coprime pair b, d <= h with
    b + d > h and d >= 2 gives one interior first-octant ray, of index
    (h + b) // d, seen 8 times on the circle; the 4 axis rays have index 2h
    and the 4 diagonal rays 2h - 1."""
    interior = sum(
        1
        for d in range(2, h + 1)
        for b in range(h + 1 - d, h + 1)
        if math.gcd(b, d) == 1 and (h + b) // d >= k
    )
    return 8 * interior + 4 * (2 * h >= k) + 4 * (2 * h - 1 >= k)


def format_cell(value) -> str:
    """Canonical CSV cell: floats at 6 significant digits, lowercase booleans,
    'null' for missing values, integers verbatim."""
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating, Fraction)):
        return format(float(value), ".6g")
    return str(value)


def _json_value(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating, Fraction)):
        return float(value)
    return value


def row_render(rows, format: str, *, columns) -> str:
    """Render rows to canonical text: CSV (header + LF lines) or a JSON list.

    The per-row renderer the package used before tables were emitted
    column-wise; the reference its render() must match byte for byte.
    """
    if format not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {format!r}")
    columns = list(columns)
    if format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(format_cell(row[c]) for c in columns))
        return "\n".join(lines) + "\n"
    docs = [{c: _json_value(row[c]) for c in columns} for row in rows]
    return json.dumps(docs, indent=2, ensure_ascii=False) + "\n"


def fan_trial(h, q, master_seed, trial_index, k_list):
    """The TrialRecord of one draw, classified through a built Fan.

    The body run_trial had before trials were classified from their dropped
    runs: sample_fan, then the Fan's cone indices and delta_k.
    """
    from randfan.experiments import TrialRecord
    from randfan.fans import delta_k
    from randfan.sampling import SampleConfig, sample_fan

    cfg = SampleConfig(h=h, p=1.0 - q, master_seed=master_seed, trial_index=trial_index)
    fan = sample_fan(cfg)
    m = fan.n_cones
    max_index = int(fan.cone_indices.max()) if m else 0
    deltas = {int(k): delta_k(fan, int(k)) for k in k_list}
    return TrialRecord(
        h=h, q=q, trial_index=trial_index, n_rays_drawn=fan.n_rays,
        n_cones=m, smooth=max_index <= 1, max_index=max_index, delta_k=deltas,
    )


def first_octant(h: int) -> np.ndarray:
    """The first octant, (1, 0) to (1, 1), by the one-lane Python mediant walk.

    The body the package's octant walk had before it ran in numpy lanes.
    """
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


def concat_unfold(octant: np.ndarray) -> np.ndarray:
    """The octant carried to the full circle by three concatenations; the
    unfold the package used before it filled one preallocated array."""
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


def division_blowdown(c: np.ndarray) -> np.ndarray:
    """Blowdown index of every ray of a sorted full circle c, solved from
    k * u = u_tau + u_omega by division and checked against the wedge.

    The solve blowdown_table did before it took the indices from the walk.
    """
    tau = np.roll(c, 1, axis=0)
    omega = np.roll(c, -1, axis=0)
    s = tau + omega
    # divide by whichever coordinate is nonzero (primitive vectors have one)
    safe_x = np.where(c[:, 0] != 0, c[:, 0], 1)
    safe_y = np.where(c[:, 1] != 0, c[:, 1], 1)
    k = np.where(c[:, 0] != 0, s[:, 0] // safe_x, s[:, 1] // safe_y)
    if not bool((k >= 1).all()) or not bool((k[:, None] * c == s).all()):
        raise InvariantError("a neighbor sum is not a positive multiple of its ray")
    cross = np.abs(tau[:, 0] * omega[:, 1] - tau[:, 1] * omega[:, 0])
    if not bool((cross == k).all()):
        raise InvariantError("neighbor-sum indices disagree with neighbor wedges")
    return k
