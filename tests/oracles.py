"""Brute-force reference implementations used only by the tests.

Deliberately dumb and structurally independent of the package: double loops,
gcd filters, float atan2 angles.  Float angle ties cannot bite because the
only coincident directions are identical vectors (deduplicated before
sorting) and the only half-turn gaps are exact antipodes, which the
completion oracle excludes with an explicit tolerance.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

import numpy as np

from randfan.errors import InvariantError, ValidationError

FORMATS = ("csv", "json")

TWO_PI = 2.0 * math.pi


def wedge(u, v) -> int:
    """Signed determinant of the 2x2 matrix with columns u and v, in Python ints."""
    return int(u[0]) * int(v[1]) - int(u[1]) * int(v[0])


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


def cone_rays(fan):
    """The boundary ray pairs of a Fan's cones in fan order: each cyclic
    neighbour pair of its coords with a positive wedge, in Python ints."""
    pts = [tuple(map(int, r)) for r in fan.coords]
    return [(u, v) for u, v in zip(pts, pts[1:] + pts[:1]) if wedge(u, v) > 0]


def comparison_order(rays):
    """The distinct rays in canonical order, sorted by exact pairwise
    angular_compare: the order complete_fan took before it sorted by
    integer keys."""
    from randfan.lattice import angular_compare

    return sorted({(int(x), int(y)) for x, y in rays}, key=cmp_to_key(angular_compare))


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


def mertens_sieve(n):
    """The Mertens function M(0..n), prefix sums of the Moebius function, as
    an int64 array.  Each prime p <= sqrt(n) flips the sign of mu at its
    multiples, zeroes it at the multiples of p*p and is divided out of its
    multiples once; a squarefree number left above 1 has one more prime
    factor, above sqrt(n)."""
    mu = np.ones(n + 1, dtype=np.int8)
    rest = np.arange(n + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n) + 1):
        if rest[p] == p:  # no smaller prime divides p
            mu[::p] *= -1
            mu[:: p * p] = 0
            rest[::p] //= p
    mu[rest > 1] *= -1
    mu[0] = 0
    return np.cumsum(mu, dtype=np.int64)


def sieved_count_geq(h, k, mertens):
    """count_geq(h, k) by its closed form, vectorised over the O(sqrt(h))
    blocks of equal h // e, with the weights read off the Mertens table
    M(0..m), m >= h, that mertens_sieve gives."""
    k = min(k, 2 * h + 1)  # no index exceeds 2h; keeps every sum in int64
    s = math.isqrt(h)
    e = np.arange(1, s + 1)  # e <= s one by one, then e > s in blocks h // e == v
    v = np.arange(1, h // (s + 1) + 1)
    n = np.concatenate((h // e, v))
    weight = np.concatenate((mertens[e] - mertens[e - 1],
                             mertens[h // v] - mertens[np.maximum(h // (v + 1), s)]))
    d1 = np.minimum(n, (2 * n + 1) // (k + 1))
    d2 = np.minimum(n, (2 * n + 1) // k)
    pairs = d1 * (d1 + 1) // 2 + (d2 - d1) * (2 * n + 1) - k * (d2 * (d2 + 1) - d1 * (d1 + 1)) // 2
    p = int((weight * pairs).sum())
    axis, diagonal = 2 * h >= k, 2 * h - 1 >= k
    return 8 * (p - axis) + 4 * axis + 4 * diagonal


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


def fan_to_record(fan, h=None, extra=None) -> dict:
    """Serializable record {h?, ..., rays: [[x, y], ...]}; cones are not stored.

    The record builder the package used before fan records were streamed.
    """
    rec: dict = {}
    if h is not None:
        rec["h"] = int(h)
    if extra:
        rec.update(extra)
    rec["rays"] = fan.coords.tolist()
    return rec


def spectrum_document(fan) -> dict:
    """The spectrum command's document, from one Python list of the indices."""
    indices = fan.cone_indices.tolist()
    counts = Counter(indices)
    return {
        "n_rays": fan.n_rays,
        "n_cones": fan.n_cones,
        "smooth": all(i == 1 for i in indices),
        "max_index": max(indices) if indices else 0,
        "counts": {str(k): counts[k] for k in sorted(counts)},
        "indices": indices,
    }


def dump_json(doc) -> bytes:
    """The bytes the fan record and spectrum commands wrote, from one
    json.dumps of the whole document."""
    return (json.dumps(doc, ensure_ascii=False) + "\n").encode("utf-8")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of a single seeded draw, before aggregation."""

    h: int
    q: float
    trial_index: int
    n_rays_drawn: int
    n_cones: int
    smooth: bool
    max_index: int  # 0 for a fan with no cones
    delta_k: dict

    def __post_init__(self):
        if self.smooth != (self.max_index <= 1):
            raise ValidationError("smooth flag contradicts max_index")


def fan_trial(h, q, master_seed, trial_index, k_list):
    """The TrialRecord of one draw, classified through a built Fan:
    sample_fan, then the Fan's cone indices and delta_k."""
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


def block_trial(h, q, master_seed, trial_index, k_list):
    """The TrialRecord of one draw from the sweep's own classifier: one
    trial of _draw_trials over one cell at drop probability q.  Not an
    oracle; the record that tests compare with fan_trial."""
    from randfan.experiments import _BLOCK_RAYS, _draw_trials
    from randfan.lattice import _octant, count_geq, enumerate_rays
    from randfan.sampling import _keep_threshold

    n = count_geq(h, 1)
    rays = enumerate_rays(h).coords if n <= _BLOCK_RAYS else _octant(h)
    block = (*np.empty((3, 1, 1), dtype=np.int64), np.empty((1, 1, len(k_list)), dtype=np.int64))
    _draw_trials([(n, rays, _keep_threshold(1.0 - q), 1)], master_seed, [trial_index], k_list, block, trial_index)
    kept, m, max_index, at_least = (a[0, 0].tolist() for a in block)
    return TrialRecord(
        h=h, q=q, trial_index=trial_index, n_rays_drawn=kept,
        n_cones=m, smooth=max_index <= 1, max_index=max_index,
        delta_k={k: Fraction(a, m) if m else None for k, a in zip(k_list, at_least)},
    )


def fan_counts(h, keep, k_list):
    """(kept rays, cones, largest cone index, [cones of index >= k per k])
    of the Fan on the kept rays of the height-h universe; what the trial
    classifier reports for one row, from a built Fan."""
    from randfan.fans import Fan
    from randfan.lattice import enumerate_rays

    fan = Fan(enumerate_rays(h).coords[np.asarray(keep, dtype=bool)])
    indices = fan.cone_indices.tolist()
    return fan.n_rays, len(indices), max(indices, default=0), [sum(i >= k for i in indices) for k in k_list]


def aggregate_records(h, q, records, k_list, c_density):
    """The SweepRow of one cell from its TrialRecords: Fraction means and
    Fraction-to-float comparisons, one record at a time.

    The aggregation sweeps used before they aggregated count arrays.
    """
    from randfan.experiments import SweepRow, wilson_interval

    def nearest_rank(sorted_vals, frac):
        return sorted_vals[max(0, math.ceil(frac * len(sorted_vals)) - 1)]

    t = len(records)
    n_smooth = sum(1 for r in records if r.smooth)
    ci_low, ci_high = wilson_interval(n_smooth, t)
    by_max = sorted(r.max_index for r in records)
    mean_delta = {}
    frac_above = {}
    for k in k_list:
        defined = [r.delta_k[k] for r in records if r.delta_k[k] is not None]
        # exact Fraction mean, floated once at the end
        mean_delta[k] = float(sum(defined) / len(defined)) if defined else None
        above = sum(1 for r in records if r.delta_k[k] is not None and r.delta_k[k] > c_density)
        frac_above[k] = above / t
    frac_smooth = n_smooth / t
    return SweepRow(
        h=h, q=q, trials=t,
        frac_smooth=frac_smooth, frac_singular=1.0 - frac_smooth,
        wilson_ci_low=ci_low, wilson_ci_high=ci_high,
        n_no_cones=sum(1 for r in records if r.n_cones == 0),
        max_index_p50=int(nearest_rank(by_max, 0.5)),
        max_index_p90=int(nearest_rank(by_max, 0.9)),
        mean_delta=mean_delta, frac_delta_above_c=frac_above,
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


def circle_error(h, octant):
    """The InvariantError message for the circle that concat_unfold makes of
    octant, as the package names a universe that is not the smooth full fan
    of height h, or None when it is: the first cyclic pair of neighbours
    whose wedge is not 1; else, when the circle does not hold the rays of
    brute_rays(h), the first pair whose sum has sup-norm <= h."""
    c = [tuple(map(int, ray)) for ray in concat_unfold(octant)]
    n = len(c)
    pairs = [(i, c[i], (i + 1) % n, c[(i + 1) % n]) for i in range(n)]
    for i, u, j, v in pairs:
        if wedge(u, v) != 1:
            return (f"height {h}: neighbouring rays {u} at position {i} and {v} at "
                    f"position {j} have wedge {wedge(u, v)}, not 1")
    want = len(brute_rays(h))
    if n == want:
        return None
    message = f"height {h}: the walk gave {n} rays, but {want} have sup-norm <= {h}"
    for i, u, j, v in pairs:
        s = (u[0] + v[0], u[1] + v[1])
        if max(abs(s[0]), abs(s[1])) <= h:
            return f"{message}; the ray {s} between {u} at position {i} and {v} at position {j} is missing"
    return message


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
