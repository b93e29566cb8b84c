"""Fan completion, singularity spectra, and fan records."""

import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from randfan import fans, lattice
from randfan.cli import main
from randfan.errors import ValidationError
from randfan.experiments import render_document
from randfan.fans import (
    Fan,
    complete_fan,
    delta_k,
    fan_from_record,
    is_smooth,
)
from randfan.lattice import MAX_H, enumerate_rays

from oracles import comparison_order, cone_rays, fan_to_record, naive_completion, spectrum_document, wedge


def _assert_matches_oracle(rays):
    fan = complete_fan(rays)
    pts, cones, indices = naive_completion(rays)
    assert [tuple(map(int, r)) for r in fan.coords] == pts
    assert cone_rays(fan) == cones
    assert list(map(int, fan.cone_indices)) == indices


def test_empty_fan():
    fan = complete_fan([])
    assert fan.n_rays == 0
    assert fan.n_cones == 0
    assert fan.cone_indices.size == 0
    assert is_smooth(fan)
    assert delta_k(fan, 2) is None


def test_single_ray_has_no_cones():
    fan = complete_fan([(3, 1)])
    assert fan.n_rays == 1
    assert fan.n_cones == 0
    assert is_smooth(fan)


def test_antipodal_pair_has_no_cones():
    fan = complete_fan([(1, 2), (-1, -2)])
    assert fan.n_rays == 2
    assert fan.n_cones == 0


def test_generic_pair_has_one_cone():
    fan = complete_fan([(1, 0), (1, 2)])
    assert fan.n_cones == 1
    assert list(fan.cone_indices) == [2]


def test_duplicates_collapse():
    fan = complete_fan([(1, 0), [1, 0], (1, 0)])
    assert fan.n_rays == 1


def test_non_primitive_input_rejected():
    with pytest.raises(ValidationError):
        complete_fan([(2, 4)])
    with pytest.raises(ValidationError):
        complete_fan([(1, 1), (0, 0)])


def test_complete_fan_refuses_coordinates_that_are_not_integers_in_range():
    for bad in [True, np.bool_(True), 1.0, np.float64(1.0), "1", None, [1], MAX_H + 1,
                -MAX_H - 1, 2**70, np.uint64(2**64 - 1)]:
        for rays in ([(1, 0), (bad, 1)], [(0, 1), (1, bad)]):
            with pytest.raises(ValidationError, match="ray coordinate"):
                complete_fan(rays)


def test_complete_fan_names_the_first_entry_that_is_not_a_pair():
    for rays, entry in [([(1, 2, 3)], r"\(1, 2, 3\)"), ([1, 2], "1"), ([[1, 0], None], "None"),
                        ([[1, 0], np.array([0, 1, 2]), [1]], r"array\(\[0, 1, 2\]\)")]:
        with pytest.raises(ValidationError, match=rf"^malformed ray entry {entry}; expected \[x, y\]$"):
            complete_fan(rays)


def test_key_sort_matches_the_comparison_sort():
    # slopes of distinct rays with coordinates up to MAX_H differ by at least
    # 1/MAX_H**2, the finest gap the integer keys must resolve
    rnd = random.Random(20261018)
    mix = random.Random(20261019)  # its own stream, so rnd draws the same rays
    for _ in range(2000):
        bound = rnd.choice([1, 3, 50, MAX_H])
        rays = [(rnd.randint(-bound, bound), rnd.randint(-bound, bound)) for _ in range(rnd.randint(0, 30))]
        rays = [r for r in rays if math.gcd(*r) == 1]
        expected = [list(r) for r in comparison_order(rays)]
        assert complete_fan(rays).coords.tolist() == expected
        # duplicated and shuffled: equal rows meet after the sort and collapse
        rays = rays + mix.choices(rays, k=len(rays)) if rays else rays
        mix.shuffle(rays)
        assert complete_fan(rays).coords.tolist() == expected
    m = MAX_H
    octant = [(m, 1), (m, m - 1), (m - 1, m - 2), (m - 1, 1), (1, 1), (1, 0)]
    rays = [(sx * a, sy * b) for a, b in octant for sx in (1, -1) for sy in (1, -1)]
    rays += [(y, x) for x, y in rays]
    fan = complete_fan(rays[::-1])
    assert fan.coords.tolist() == [list(r) for r in comparison_order(rays)]
    assert fan.n_rays == len(set(rays)) == 40
    rays = rays * 3
    mix.shuffle(rays)
    assert np.array_equal(complete_fan(rays).coords, fan.coords)
    # the full fan at h = 40, shuffled, with every ray twice
    full = enumerate_rays(40).coords
    rays = full.tolist() * 2
    mix.shuffle(rays)
    assert np.array_equal(complete_fan(rays).coords, full)
    # only multiples of one direction tie, and the non-primitive one is refused
    with pytest.raises(ValidationError, match="not primitive"):
        complete_fan([(1, 1), (3, 3), (1, 1), (0, 1)])


def test_input_order_is_irrelevant():
    rays = [(0, 1), (1, -1), (-3, 2), (1, 0), (2, 1)]
    a = complete_fan(rays)
    b = complete_fan(rays[::-1])
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.cone_indices, b.cone_indices)


def test_completion_is_idempotent():
    fan = complete_fan([(5, 2), (-1, 3), (0, -1), (1, 1), (-2, -5)])
    again = complete_fan(fan.coords.tolist())
    assert np.array_equal(fan.coords, again.coords)
    assert np.array_equal(fan.cone_indices, again.cone_indices)


def test_all_subsets_of_unit_universe_match_oracle():
    base = [tuple(r) for r in enumerate_rays(1)]
    for mask in range(1 << len(base)):
        rays = [base[i] for i in range(len(base)) if mask >> i & 1]
        _assert_matches_oracle(rays)


def test_full_fans_are_smooth_with_expected_cone_counts():
    for h in range(1, 41):
        fan = complete_fan(enumerate_rays(h))
        assert fan.n_cones == fan.n_rays, h
        assert is_smooth(fan), h


def test_full_fan_height_three_has_32_unimodular_cones():
    fan = complete_fan(enumerate_rays(3))
    assert fan.n_rays == 32
    assert fan.n_cones == 32
    assert Counter(fan.cone_indices.tolist()) == {1: 32}


def test_removing_a_ray_concentrates_the_singularity():
    rays = set(enumerate_rays(5)) - {(1, 1)}
    fan = complete_fan(rays)
    assert fan.n_rays == 79
    assert Counter(fan.cone_indices.tolist()) == {1: 78, 9: 1}
    assert not is_smooth(fan)
    assert delta_k(fan, 9) == Fraction(1, 79)
    assert delta_k(fan, 10) == 0
    assert delta_k(fan, 1) == 1


def test_delta_k_validation():
    fan = complete_fan(enumerate_rays(1))
    with pytest.raises(ValidationError):
        delta_k(fan, 0)


def test_cone_index_for_every_cone():
    # each cone's index is |wedge| of its boundary rays, in fan order
    fan = complete_fan([(1, 0), (2, 3), (-1, 1), (-1, -4)])
    cones = cone_rays(fan)
    assert len(cones) == fan.n_cones == 4
    assert [abs(wedge(u, v)) for u, v in cones] == fan.cone_indices.tolist()


def test_spectrum_counts_are_multiplicities(tmp_path, capsys):
    # the spectrum command's counts, read from fan.cone_indices with
    # np.unique, are the multiplicities of its indices
    fan = complete_fan([(1, 0), (1, 2), (-1, 1), (0, -1)])
    record = tmp_path / "fan.json"
    record.write_text(json.dumps(fan_to_record(fan)))
    assert main(["spectrum", "--in", str(record)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["indices"] == fan.cone_indices.tolist() == [2, 3, 1, 1]
    assert doc["counts"] == {str(k): doc["indices"].count(k) for k in sorted(set(doc["indices"]))}
    assert doc["counts"] == spectrum_document(fan)["counts"]


def _record(fan, doc) -> dict:
    # the fan record as the complete and sample commands stream it
    c = fan.coords
    return json.loads(b"".join(render_document(doc, "rays", [c[:, 0], c[:, 1]])))


def test_fan_record_round_trip():
    fan = complete_fan([(1, 0), (3, 2), (0, 1), (-5, -2)])
    rec = _record(fan, {"h": 5})
    assert rec == fan_to_record(fan, h=5)
    assert rec["h"] == 5
    assert rec["rays"] == [[int(x), int(y)] for x, y in fan.coords]
    back = fan_from_record(rec)
    assert np.array_equal(back.coords, fan.coords)
    assert np.array_equal(back.cone_indices, fan.cone_indices)


def test_fan_record_extra_metadata_and_no_cone_field():
    fan = complete_fan([(1, 0)])
    rec = _record(fan, {"h": 2, "p": 0.5})
    assert rec == fan_to_record(fan, h=2, extra={"p": 0.5})
    assert rec["p"] == 0.5
    assert "cones" not in rec


def test_record_rays_are_recompleted_not_trusted():
    # scrambled and duplicated rays load to the same canonical fan
    rec = {"rays": [[0, 1], [1, 0], [1, 0], [-1, -1]]}
    fan = fan_from_record(rec)
    assert [tuple(map(int, r)) for r in fan.coords] == [(1, 0), (0, 1), (-1, -1)]


def test_malformed_records_are_rejected():
    for bad in [
        None,
        [],
        {},
        {"rays": 3},
        {"rays": [[1]]},
        {"rays": [[1, 2, 3]]},
        {"rays": [[2, 4]]},
    ]:
        with pytest.raises(ValidationError):
            fan_from_record(bad)


def test_fan_coords_are_frozen():
    fan = complete_fan([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        fan.coords[0, 0] = 7
    with pytest.raises(ValueError):
        fan.cone_indices[0] = 7


def test_wide_gap_leaves_two_cones_from_three_rays():
    fan = complete_fan({(1, 0), (0, 1), (-1, 1)})
    assert fan.coords.tolist() == [[1, 0], [0, 1], [-1, 1]]
    assert fan.n_cones == 2
    assert cone_rays(fan) == [((1, 0), (0, 1)), ((0, 1), (-1, 1))]


def test_unimodular_triangle_is_smooth():
    fan = complete_fan({(1, 0), (0, 1), (-1, -1)})
    assert fan.n_cones == 3
    assert fan.cone_indices.tolist() == [1, 1, 1]
    assert is_smooth(fan)


def test_lone_wide_cone_has_index_two():
    fan = complete_fan({(1, 0), (1, 2)})
    assert fan.n_cones == 1
    assert Counter(fan.cone_indices.tolist()) == {2: 1}
    assert not is_smooth(fan)
    assert delta_k(fan, 2) == Fraction(1, 1)


def test_cone_count_never_exceeds_ray_count():
    rnd = random.Random(99)
    universe = enumerate_rays(3)
    for _ in range(200):
        mask = rnd.getrandbits(len(universe))
        rays = [tuple(universe.coords[i]) for i in range(len(universe)) if mask >> i & 1]
        fan = complete_fan(rays)
        assert fan.n_cones <= fan.n_rays
        if fan.n_rays >= 2:
            assert fan.n_cones in (fan.n_rays - 1, fan.n_rays)


def test_full_fans_have_no_singular_share():
    for h in range(1, 13):
        fan = complete_fan(enumerate_rays(h))
        assert delta_k(fan, 2) == Fraction(0, 1)


@pytest.mark.parametrize("coords,message", [
    ([[1, 0], [-1, 0], [0, 1]], r"\(-1, 0\) at position 1 does not strictly precede"),
    ([[1, 0], [1, 0], [0, 1]], r"\(1, 0\) at position 0 does not strictly precede"),
    ([[2, 0], [0, 1]], r"\(2, 0\) at position 0 is not primitive"),
    ([[2**40, 1], [0, 1]], rf"\({2**40}, 1\) at position 0 is outside \[-{MAX_H}, {MAX_H}\]"),
    ([[1, 1], [1, 0]], r"\(1, 1\) at position 0 does not strictly precede"),
    ([[0, 0], [1, 0]], r"\(0, 0\) at position 0 is not primitive"),
    ([[1, 0, 0], [0, 1, 0]], r"must be an \(n, 2\) array, got shape \(2, 3\)"),
    ([1, 0, 1], r"must be an \(n, 2\) array, got shape \(3,\)"),
])
def test_fan_refuses_arrays_that_are_not_canonical(coords, message):
    with pytest.raises(ValidationError, match=message):
        Fan(np.array(coords))


def test_fan_refuses_non_integer_arrays():
    for coords in [np.array([[1.5, 0.0]]), np.array([[2**70, 1]], dtype=object)]:
        with pytest.raises(ValidationError, match="must be integers"):
            Fan(coords)


def test_fan_accepts_the_degenerate_canonical_arrays():
    for coords in [np.empty((0, 2), dtype=np.int64), [[0, -1]], [[1, 0], [-1, 0]], [[0, 1], [0, -1]]]:
        assert Fan(np.array(coords, dtype=np.int64)).n_cones == 0
    universe = enumerate_rays(7)
    assert np.array_equal(Fan(universe.coords).coords, universe.coords)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_fan_of_a_universe_stays_within_its_memory_estimate(dtype):
    # int32 is the universe's own array, taken without a copy; int64 is
    # what complete_fan hands over, narrowed to an int32 copy
    coords = enumerate_rays(300).coords.astype(dtype, copy=False)
    tracemalloc.start()
    try:
        Fan(coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= fans._RAY_BYTES * len(coords)


def test_fan_too_large_for_the_host_is_refused_before_its_checks(monkeypatch):
    # the memory check comes first: these rays would fail the range check
    coords = np.full((1000, 2), MAX_H + 1, dtype=np.int64)
    monkeypatch.setattr(lattice, "_mem_available", lambda: fans._RAY_BYTES * 1000)
    with pytest.raises(ValidationError, match="^a fan of 1000 rays needs about 0 MiB to build"):
        Fan(coords)
    monkeypatch.setattr(lattice, "_mem_available", lambda: 2 * fans._RAY_BYTES * 1000)
    with pytest.raises(ValidationError, match="is outside"):
        Fan(coords)
