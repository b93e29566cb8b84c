"""Column-wise table rendering against the per-row reference renderer.

render() encodes each column once and streams the table as blocks of
bytes; the oracle renders one dict per row.  Joined, the blocks must give
the oracle's bytes for every mix of column types and every block size, and
the table commands must print exactly what the oracle prints for their old
row dicts, on standard output and into a file alike.  render_document()
streams a document's integer rows the same way, and must give the bytes of
one json.dumps of the whole document.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randfan import blowdown, blowdown_table, emission
from randfan.cli import main
from randfan.emission import render as render_blocks
from randfan.emission import render_document

from oracles import brute_rays, row_render

#: Integer array columns by dtype; uint64 half the time above the int64 range.
INTS = {
    dtype: st.integers(int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
    for dtype in ("int64", "int32", "int8", "uint8")
}
INTS["uint64"] = st.integers(2**63, 2**64 - 1) | st.integers(0, 2**64 - 1)

#: Cells of the list-valued (object) columns, by kind.
CELLS = {
    "int": st.integers(-(10**30), 10**30),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "none": st.none(),
    "bool": st.booleans(),
    "numpy_bool": st.booleans().map(np.bool_),
    "fraction": st.fractions(),
    "list": st.lists(st.integers(-9, 9), max_size=2),
}
CELLS["mixed"] = st.one_of(*CELLS.values())

NAMES = st.text(alphabet="xyk_%\"\\é, 0", min_size=1, max_size=4)


def render(table, fmt, *, columns) -> str:
    """The text of render()'s blocks, joined."""
    return b"".join(render_blocks(table, fmt, columns=columns)).decode("utf-8", "surrogatepass")


def _head(columns: dict, n: int) -> dict:
    return {name: col[:n] for name, col in columns.items()}


@st.composite
def tables(draw):
    """(row dicts, the same table as a mapping of columns, column order)."""
    n = draw(st.integers(0, 6))
    names = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    columns = {}
    for name in names:
        kind = draw(st.sampled_from([*INTS, "float64", *CELLS]))
        if kind in INTS:
            columns[name] = np.array(draw(st.lists(INTS[kind], min_size=n, max_size=n)), dtype=kind)
        elif kind == "float64":
            columns[name] = np.array(draw(st.lists(CELLS["float"], min_size=n, max_size=n)), dtype=np.float64)
        else:
            columns[name] = draw(st.lists(CELLS[kind], min_size=n, max_size=n))
    rows = [{name: col[i] for name, col in columns.items()} for i in range(n)]
    order = draw(st.permutations(names))
    return rows, columns, order


@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from(["csv", "json"]))
def test_render_matches_row_oracle(table, fmt):
    rows, columns, order = table
    expected = row_render(rows, fmt, columns=order)
    assert render(rows, fmt, columns=order) == expected
    assert render(columns, fmt, columns=order) == expected


@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from(["csv", "json"]), st.integers(1, 3))
def test_render_in_small_blocks_matches_row_oracle(table, fmt, block_rows):
    # tables of 0..6 rows in blocks of 1..3: empty, one exact block, a short
    # last block and several blocks all come up
    rows, columns, order = table
    expected = row_render(rows, fmt, columns=order)
    saved, emission._RENDER_ROWS = emission._RENDER_ROWS, block_rows
    try:
        assert render(rows, fmt, columns=order) == expected
        assert render(columns, fmt, columns=order) == expected
        blocks = list(render_blocks(columns, fmt, columns=order))
        assert len(blocks) == 1 + -(-len(rows) // block_rows)  # the opening, then one per block
    finally:
        emission._RENDER_ROWS = saved


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_render_block_boundaries(monkeypatch, block_rows, fmt):
    monkeypatch.setattr(emission, "_RENDER_ROWS", block_rows)
    # the export's column views, with the sup norm computed per block
    t = blowdown_table(3)
    table = blowdown.blowdown_array(t)
    columns = ["x", "y", "norm", "k"]
    for n in [0, 1, block_rows, block_rows + 1, 2 * block_rows, len(t)]:
        rows = _rows(t.coords[:n], norm=np.abs(t.coords[:n]).max(axis=1), k=t.k_values[:n])
        head = table if n == len(t) else _head(table, n)
        assert render(head, fmt, columns=columns) == row_render(rows, fmt, columns=columns)


#: Integer cells at the digit-count and sign edges and at the magnitudes
#: where the digit loop's dtype widens (uint8 to uint16, uint32, uint64),
#: and str cells holding NUL, U+00FF (whose Latin-1 byte is the pad byte)
#: and a lone surrogate.
DTYPE_EDGES = [255, 256, 65_535, 65_536, 2**32 - 1, 2**32]
EDGE_INTS = sorted({
    -(2**63), 2**63 - 1, 0, -128, -(2**31), -(2**31) - 1, *DTYPE_EDGES,
    *(s * v for s in (1, -1) for v in (9, 10, 999, 1000)),
    *(s * 10**e for s in (1, -1) for e in range(19)),
})
EDGE_UINTS = [0, 9, 10, *DTYPE_EDGES, 10**19, 2**63 - 1, 2**63, 2**64 - 1]
EDGE_TEXTS = ["\x00", "ÿ", "a\x00ÿ", "", "\ud800"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_render_edge_cells(monkeypatch, block_rows, fmt):
    monkeypatch.setattr(emission, "_RENDER_ROWS", block_rows)
    n = len(EDGE_INTS)
    rows = [
        {"i": v, "u": EDGE_UINTS[j % len(EDGE_UINTS)], "s": EDGE_TEXTS[j % len(EDGE_TEXTS)]}
        for j, v in enumerate(EDGE_INTS)
    ]
    table = {
        "i": np.array([r["i"] for r in rows], dtype=np.int64),
        "u": np.array([r["u"] for r in rows], dtype=np.uint64),
        "s": np.array([r["s"] for r in rows], dtype=object),
    }
    for columns in (["i", "u", "s"], ["s", "i"], ["u"], []):
        for m in (0, 1, n):
            expected = row_render(rows[:m], fmt, columns=columns)
            assert render(rows[:m], fmt, columns=columns) == expected
            assert render(_head(table, m), fmt, columns=columns) == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_render_a_block_of_zero_and_the_largest_uint64(monkeypatch, block_rows, fmt):
    # one block whose digit loop runs in uint64 over a cell of 1 digit and
    # one of 20, in every order
    monkeypatch.setattr(emission, "_RENDER_ROWS", block_rows)
    for cells in ([0, 2**64 - 1], [2**64 - 1, 0], [0, 2**64 - 1, 0], [2**64 - 1, 0, 2**64 - 1]):
        rows = [{"u": v} for v in cells]
        expected = row_render(rows, fmt, columns=["u"])
        assert render({"u": np.array(cells, dtype=np.uint64)}, fmt, columns=["u"]) == expected


#: JSON document values: scalars, non-ASCII text, and nested containers.
DOC_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(NAMES, DOC_VALUES, max_size=4),
    st.integers(1, 3),
    st.integers(0, 7),
    st.sampled_from(list(INTS)),
    st.integers(1, 3),
    st.data(),
)
def test_render_document_matches_json_dumps(doc, n_cols, n, dtype, block_rows, data):
    # one column gives plain items, more give a list per row, in blocks of
    # 1..3 rows: no row, one exact block, a short last block, several blocks
    columns = [np.array(data.draw(st.lists(INTS[dtype], min_size=n, max_size=n)), dtype=dtype)
               for _ in range(n_cols)]
    key = data.draw(NAMES.filter(lambda k: k not in doc))
    rows = [list(r) for r in zip(*(c.tolist() for c in columns))] if n_cols > 1 else columns[0].tolist()
    expected = (json.dumps({**doc, key: rows}, ensure_ascii=False) + "\n").encode("utf-8", "surrogatepass")
    saved, emission._RENDER_ROWS = emission._RENDER_ROWS, block_rows
    try:
        assert b"".join(render_document(doc, key, columns)) == expected
    finally:
        emission._RENDER_ROWS = saved


def _rows(coords, **extra):
    return [
        {"x": int(x), "y": int(y), **{name: int(col[i]) for name, col in extra.items()}}
        for i, (x, y) in enumerate(coords)
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("h", [1, 5, 37])
def test_table_commands_match_row_oracle(h, fmt, capsys):
    t = blowdown_table(h)
    c, k = t.coords, t.k_values
    quadrant = (c[:, 0] >= 0) & (c[:, 1] >= 0)
    cases = [
        ("rays", [{"x": x, "y": y} for x, y in brute_rays(h)], ["x", "y"]),
        ("blowdown", _rows(c, norm=np.abs(c).max(axis=1), k=k), ["x", "y", "norm", "k"]),
        ("space", _rows(c[quadrant], k=k[quadrant]), ["x", "y", "k"]),
    ]
    for command, rows, columns in cases:
        assert main([command, "--h", str(h), "--format", fmt]) == 0
        assert capsys.readouterr().out == row_render(rows, fmt, columns=columns), command


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["rays", "blowdown", "space"])
def test_table_commands_write_to_a_file_what_they_print(command, fmt, tmp_path, capsysbinary, monkeypatch):
    monkeypatch.setattr(emission, "_RENDER_ROWS", 7)  # h = 6 has 96 rays: 14 blocks
    path = tmp_path / f"{command}.{fmt}"
    assert main([command, "--h", "6", "--format", fmt]) == 0
    printed = capsysbinary.readouterr().out
    assert main([command, "--h", "6", "--format", fmt, "--out", str(path)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert path.read_bytes() == printed
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
