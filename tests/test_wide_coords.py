"""Coordinates are int32, and every product of two of them is formed in int64.

No universe that fits in memory has a coordinate as large as 46341, above
which a product of two int32 coordinates can leave int32.  So these tests
map the universe of height 3 by integer matrices of determinant 1 to
coordinates near MAX_H.  Such a map keeps every wedge and the cyclic order
of the rays, so each kernel must give on the mapped coordinates exactly what
it gives on the original ones, and what Python integers give.

A wedge that fits in int32 comes out right even from wrapped int32
products, since the wrap cancels in the difference; only wedges beyond
int32 show products that were not formed in int64.  The universe scaled by
LAMBDA (no longer primitive, which the wedge kernels do not need) and fans
of random rays near MAX_H have such wedges.
"""

import math

import numpy as np
import pytest

from randfan.blowdown import BlowdownTable, blowdown_table
from randfan.errors import InvariantError, ValidationError
from randfan.experiments import _classify
from randfan.fans import Fan, complete_fan
from randfan.counting import MAX_H
from randfan.lattice import RayUniverse, _arc_class, _block_wedges, enumerate_rays

from oracles import wedge

H = 3

#: The shear fixes (1, 0), so the mapped rays start where canonical order
#: does; it leaves y small, so its products stay inside int32.  All four
#: entries of the Fibonacci matrix are large, so both coordinates are, and
#: their products leave int32.
MAPS = {
    "shear": ((1, 300_000), (0, 1)),
    "fibonacci": ((196_418, 121_393), (121_393, 75_025)),
}

#: Scale of the universe whose wedges leave int32: coordinates up to 3 * LAMBDA.
LAMBDA = 333_333


def _mapped(name: str) -> np.ndarray:
    """enumerate_rays(H).coords mapped by MAPS[name], position by position."""
    a = np.array(MAPS[name], dtype=np.int64)
    assert round(np.linalg.det(a)) == 1
    m = enumerate_rays(H).coords.astype(np.int64) @ a.T
    assert np.abs(m).max() <= MAX_H
    return m.astype(np.int32)


def _canonical_start(c: np.ndarray) -> int:
    # the one position where the half-quadrant class steps back, cyclically
    classes = [_arc_class(x, y) for x, y in c.tolist()]
    return next(i for i in range(len(c)) if classes[i] < classes[i - 1])


def _python_wedges(c: np.ndarray, a: int, b: int) -> list[int]:
    n = len(c)
    return [wedge(c[(i + a) % n].tolist(), c[(i + b) % n].tolist()) for i in range(n)]


def test_fibonacci_coordinates_leave_int32_in_their_products():
    m = _mapped("fibonacci").astype(object)  # Python integers
    assert max(abs(x * y) for x, y in m.tolist()) > 2**31
    assert max(abs(x * y) for x, y in _mapped("shear").astype(object).tolist()) < 2**31


@pytest.mark.parametrize("name", MAPS)
@pytest.mark.parametrize("a,b", [(0, 1), (-1, 1), (0, 5), (3, -7)])
def test_block_wedges_are_exact_on_mapped_coordinates(name, a, b):
    c, m = enumerate_rays(H).coords, _mapped(name)
    n = len(c)
    for lo, hi in [(0, n), (0, 1), (n - 1, n), (5, 17)]:
        got = _block_wedges(m, lo, hi, a, b)
        assert got.dtype == np.int64
        assert got.tolist() == _block_wedges(c, lo, hi, a, b).tolist() == _python_wedges(m, a, b)[lo:hi]


@pytest.mark.parametrize("name", MAPS)
@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
def test_classifier_is_exact_on_mapped_coordinates(name, q):
    c, m = enumerate_rays(H).coords, _mapped(name)
    n = len(c)
    rng = np.random.default_rng(20261018)
    dropped = rng.random((64, n)) < q
    dropped[0] = np.arange(n) % 2 == 0  # a dropped run at every second ray
    dropped[1] = np.arange(n) != 3  # one kept ray
    dropped[2] = np.isin(np.arange(n), [0, n - 1])  # one run across the seam
    keep = np.ones(1 + len(dropped) * (n + 1), dtype=bool)
    keep[1:].reshape(len(dropped), n + 1)[:, :n] = ~dropped
    ks = [1, 2, 3, 5]
    got = _classify(m, keep, ks, {})
    want = _classify(c, keep, ks, {})
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _fan_cones_by_python_ints(c: np.ndarray) -> list[int]:
    if len(c) < 2:
        return []
    w = _python_wedges(c, 0, 1)
    return [x for x in w if x > 0]


@pytest.mark.parametrize("name", MAPS)
def test_fan_cone_indices_are_exact_on_mapped_coordinates(name):
    c, m = enumerate_rays(H).coords, _mapped(name)
    start = _canonical_start(m)
    assert start == 0 or name != "shear"
    rng = np.random.default_rng(7)
    subsets = [rng.random(len(c)) < p for p in (0.2, 0.5, 0.8) for _ in range(20)]
    for keep in [np.ones(len(c), dtype=bool), *subsets]:
        mapped = Fan(np.roll(m, -start, axis=0)[np.roll(keep, -start)])
        assert mapped.cone_indices.tolist() == _fan_cones_by_python_ints(mapped.coords)
        assert sorted(mapped.cone_indices.tolist()) == sorted(Fan(c[keep]).cone_indices.tolist())


@pytest.mark.parametrize("name", MAPS)
def test_band_check_is_exact_on_mapped_coordinates(name):
    # the k column read off the mapped neighbours is the height-3 table's;
    # the band k * |u| <= 2h holds from the least h that Python integers give
    m = _mapped(name)
    k = _block_wedges(m, 0, len(m), -1, 1)
    assert np.array_equal(k, blowdown_table(H).k_values)
    products = [int(ki) * max(abs(x), abs(y)) for ki, (x, y) in zip(k.tolist(), m.tolist())]
    least = math.ceil(max(products) / 2)
    assert least > MAX_H // 2
    BlowdownTable(RayUniverse(least, m.copy()), k.copy())
    first = next(i for i, p in enumerate(products) if p > 2 * (least - 1))
    with pytest.raises(InvariantError, match=rf"at position {first}, .* exceeds 2h = {2 * (least - 1)}$"):
        BlowdownTable(RayUniverse(least - 1, m.copy()), k.copy())


def test_block_wedges_are_exact_beyond_int32():
    c = enumerate_rays(H).coords
    scaled = (LAMBDA * c.astype(np.int64)).astype(np.int32)
    n = len(c)
    for a, b in [(0, 1), (-1, 1), (0, 9), (0, n // 2 - 1), (5, -10)]:
        want = _python_wedges(scaled, a, b)
        assert max(map(abs, want)) > 2**31
        assert _block_wedges(scaled, 0, n, a, b).tolist() == want
        assert want == [LAMBDA**2 * w for w in _python_wedges(c, a, b)]


def _classified_by_python_ints(c: np.ndarray, dropped: np.ndarray, ks) -> list[tuple]:
    # the classifier's model: kept neighbours span a unit cone, and the kept
    # rays around a dropped run a cone of index wedge(before, after) when it
    # is positive
    n, rows = len(c), []
    for row in dropped:
        kept = np.flatnonzero(~row).tolist()
        indices = [] if len(kept) < 2 else [
            1 if (a + 1) % n == b else wedge(c[a].tolist(), c[b].tolist())
            for a, b in zip(kept, kept[1:] + kept[:1])
        ]
        indices = [i for i in indices if i > 0]
        at_least = [sum(i >= k for i in indices) for k in ks]
        rows.append((len(kept), len(indices), max(indices, default=0), at_least))
    return rows


@pytest.mark.parametrize("q", [0.3, 0.7, 0.95])
def test_classifier_is_exact_beyond_int32(q):
    c = enumerate_rays(H).coords
    scaled = (LAMBDA * c.astype(np.int64)).astype(np.int32)
    n = len(c)
    rng = np.random.default_rng(11)
    dropped = rng.random((200, n)) < q
    keep = np.ones(1 + len(dropped) * (n + 1), dtype=bool)
    keep[1:].reshape(len(dropped), n + 1)[:, :n] = ~dropped
    ks = [1, 2, LAMBDA**2, 2**31, 2 * LAMBDA**2 + 1, 5 * LAMBDA**2]
    kept, n_cones, max_index, at_least = _classify(scaled, keep, ks, {})
    got = list(zip(kept.tolist(), n_cones.tolist(), max_index.tolist(), at_least.tolist()))
    assert got == [(a, b, m, list(k)) for a, b, m, k in _classified_by_python_ints(scaled, dropped, ks)]
    assert max_index.max() > 2**31


def test_fan_cone_indices_are_exact_beyond_int32():
    rng = np.random.default_rng(3)
    for size in [2, 3, 5, 40]:
        for _ in range(25):
            rays = {tuple(v) for v in rng.integers(-MAX_H, MAX_H + 1, (size, 2)).tolist()
                    if math.gcd(*v) == 1}
            fan = complete_fan(rays)
            assert fan.cone_indices.tolist() == _fan_cones_by_python_ints(fan.coords)
            if fan.n_cones:
                assert fan.cone_indices.max() > 2**31 or size == 40


@pytest.mark.parametrize("big", [2**32 + 1, 2**31, -(2**32) + 1, 2**63 - 1])
def test_fan_checks_the_range_before_narrowing(big):
    # narrowed to int32 first, 2**32 + 1 would pass as 1
    with pytest.raises(ValidationError, match=rf"fan ray \({big}, 0\) at position 0 is outside"):
        Fan(np.array([[big, 0], [0, 1]], dtype=np.int64))


def test_fan_of_a_universe_is_int32_and_shares_its_memory():
    u = enumerate_rays(50)
    fan = complete_fan(u)
    assert fan.coords.dtype == np.int32
    assert np.shares_memory(fan.coords, u.coords)
