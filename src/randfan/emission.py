"""Deterministic CSV/JSON emission: the one path every output leaves by.

render() and render_document() make an output's bytes a block at a time,
open_sink() writes them, and emit() does both; _read_json() is the one
reader of JSON input (specs and fan records).  README "File formats" tells
how the bytes are laid out.  This is the one module that imports json, and
it imports no randfan module but errors, so a command that writes a table
loads no sweep code; numpy is loaded only to lay out integer arrays, which
exist only once it is.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from collections.abc import Iterator, Mapping
from contextlib import contextmanager, suppress
from fractions import Fraction

from .errors import ValidationError, _numpy_types, brief

FORMATS = ("csv", "json")


def _read_json(path):
    """The JSON document in the file path; a parse error, or nesting deeper
    than the parser can follow, becomes a ValidationError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ValidationError(f"{path} is nested too deeply to read") from None


def _json_value(value):
    # numpy scalars and Fractions as the plain bool, int or float they stand for
    if value is None or type(value) in (int, float, str):  # most cells: no numpy type to look up
        return value
    bool_, integer, floating = _numpy_types("bool_", "integer", "floating")
    if isinstance(value, (bool, bool_)):
        return bool(value)
    if isinstance(value, (int, integer)):
        return int(value)
    if isinstance(value, (float, floating, Fraction)):
        return float(value)
    return value


def format_cell(value) -> str:
    """Canonical CSV cell: floats at 6 significant digits, lowercase booleans,
    'null' for missing values, integers verbatim."""
    value = _json_value(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _json_cell(value) -> str:
    # nested containers are indented as json.dumps(rows, indent=2) would
    # place them, two levels deep
    return json.dumps(_json_value(value), indent=2, ensure_ascii=False).replace("\n", "\n    ")


#: Rows rendered per block; bounds the temporaries alive at once.
_RENDER_ROWS = 1 << 14

#: Filler of every unused byte of an integer field.  0xFF never occurs in
#: UTF-8 text, so deleting it from a block leaves exactly the digits and
#: the literals between them.
_PAD = 0xFF


def _int_field(col):
    """The width of an integer array column's field and the writer of its
    digits into a view of that width (README "File formats"); the
    magnitudes come from the two's complement, so -2**63 comes out exact."""
    from ._numpy import np

    neg = col < 0
    sign, q = int(neg.any()), np.abs(col).view(f"u{col.itemsize}")
    top = int(q.max())
    width, q = sign + len(str(top)), q.astype(np.min_scalar_type(top), copy=False)

    def fill(view, q=q):
        if sign:
            view[:, 0] = _PAD - neg * np.uint8(_PAD - ord("-"))
        for j in range(width - 1, sign - 1, -1):
            rest = q // 10
            digit = q - rest * 10
            digit += ord("0")
            if j < width - 1:
                digit |= (q == 0) * q.dtype.type(_PAD)  # a leading '0' becomes the pad
            view[:, j] = digit
            q = rest
    return width, fill


def _int_rows(cols, leads, end: bytes) -> bytearray:
    """The rows of the integer arrays cols, leads[j] before each cell of
    column j and end after each row: one row template, its fields padded,
    repeated into a bytearray; each column's digits are written into its
    field's strided view, and the pad is deleted."""
    from ._numpy import np

    row, fields = bytearray(), []  # the row template; each field's start, width and writer
    for col, lead in zip(cols, leads):
        width, fill = _int_field(col)
        row += lead
        fields.append((len(row), width, fill))
        row += bytes([_PAD]) * width
    row += end
    data = row * len(cols[0])
    block = np.frombuffer(data, dtype=np.uint8).reshape(len(cols[0]), len(row))
    for start, width, fill in fields:
        fill(block[:, start : start + width])
    del block, fields  # the fields' arrays are not held while the pad is deleted
    return data.translate(None, bytes([_PAD]))


def _byte_blocks(head: str, n: int, cols, leads, end: str, last_end: str, encode) -> Iterator[bytes]:
    # head, then the n rows of cols a block of _RENDER_ROWS rows at a time:
    # leads[j] before each cell of column j, end after each row but the
    # last, then last_end.  A block of integer arrays is laid out by
    # _int_rows; any other block is encoded cell by cell and joined.
    yield head.encode("utf-8", "surrogatepass")
    ndarray, = _numpy_types("ndarray")
    fmt = "".join(lead.replace("%", "%%") + "%s" for lead in leads)  # a row, less its end
    byte_leads, byte_end = [s.encode("utf-8", "surrogatepass") for s in leads], end.encode("utf-8", "surrogatepass")
    for lo in range(0, n, _RENDER_ROWS):
        m = min(_RENDER_ROWS, n - lo)
        block = [col[lo : lo + m] for col in cols]
        tail = last_end if lo + m == n else end
        if block and all(isinstance(col, ndarray) and col.dtype.kind in "iu" for col in block):
            data = _int_rows(block, byte_leads, byte_end)
            data[len(data) - len(byte_end) :] = tail.encode("utf-8", "surrogatepass")
        else:
            cells = zip(*([encode(v) for v in col] for col in block)) if block else [()] * m
            data = (end.join(map(fmt.__mod__, cells)) + tail).encode("utf-8", "surrogatepass")
        yield data
        del data  # the writer frees the block it wrote before the next one is made


def render(table, format: str, *, columns) -> Iterator[bytes]:
    """Render a table to canonical UTF-8, one block of bytes at a time: CSV
    (header + LF lines) or a JSON list.

    table is a mapping from column name to column, all of one length, or a
    sequence of row mappings, which is transposed into columns.  A column
    is anything that slicing turns into an array or a list: an array view,
    a list, or a column computed per slice such as a sup norm.  The format
    and the columns are checked when render is called (a column the table
    lacks is a ValidationError); the blocks are made as they are read, with
    format_cell for CSV and plain JSON values for JSON, and the row's fixed
    literals (commas and newlines, or the JSON keys) between the cells.
    Joined, the blocks are exactly json.dumps(list_of_row_dicts, indent=2,
    ensure_ascii=False) for JSON.
    """
    if format not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {brief(format)}")
    columns = list(columns)
    try:
        if isinstance(table, Mapping):
            cols = [table[c] for c in columns]
            n = len(next(iter(table.values()), ()))
            if any(len(col) != n for col in table.values()):
                raise ValidationError(f"table columns differ in length: {[len(col) for col in table.values()]}")
        else:
            table = list(table)
            cols = [[row[c] for row in table] for c in columns]
            n = len(table)
    except KeyError as exc:
        raise ValidationError(f"table has no column {brief(exc.args[0])}") from None
    if format == "csv":
        leads = ["," if j else "" for j in range(len(columns))]
        return _byte_blocks(",".join(columns) + "\n", n, cols, leads, "\n", "\n", format_cell)
    keys = [json.dumps(c, ensure_ascii=False) for c in columns]
    leads = [f"{',' if j else '  {'}\n    {k}: " for j, k in enumerate(keys)]
    end = "\n  },\n" if keys else "  {},\n"
    return _byte_blocks("[\n" if n else "[]\n", n, cols, leads, end, end[:-2] + "\n]\n", _json_cell)


def render_document(doc: Mapping, key: str, columns) -> Iterator[bytes]:
    """The bytes of json.dumps({**doc, key: rows}, ensure_ascii=False) + "\n",
    one block at a time, where rows are the rows of the integer columns:
    [x, y] lists for two columns, plain items for one.  key is not in doc.
    doc is dumped with an empty list, and the rows go through render's
    byte blocks, with no Python object per row.
    """
    columns = list(columns)
    n = len(columns[0])
    head = json.dumps({**doc, key: []}, ensure_ascii=False)
    if not n:
        return _byte_blocks(head + "\n", 0, (), (), "", "", _json_cell)
    leads = ["[" if len(columns) > 1 else ""] + [", "] * (len(columns) - 1)
    end = "], " if len(columns) > 1 else ", "
    return _byte_blocks(head[:-2], n, columns, leads, end, end[:-2] + "]}\n", _json_cell)


def _check_path(path) -> str:
    """path as a str; an empty path, or one holding a NUL byte (which no
    file system takes), is refused with ValidationError."""
    path = os.fsdecode(path)
    if not path or "\0" in path:
        raise ValidationError(f"output path must be non-empty and free of NUL bytes, got {brief(path)}")
    return path


@contextmanager
def _naming(path):
    # an OSError raised in the with block, as one that names the output path
    try:
        yield
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


@contextmanager
def open_sink(path):
    """The writer of byte blocks into the file path, for a with block that
    opens the file before any block is made; see README "File formats".

    A path no file can have is a ValidationError.  A path that exists and,
    after its symlinks are followed, is not a regular file (a FIFO or a
    device) is opened and written in place.  Any other path gets a temp file
    in the directory it resolves to, with the mode of the file it replaces
    or, for a new file, 0666 less the umask, renamed onto the resolved path
    when the with block ends without an exception (so a symlink stays a
    symlink and its target gets the bytes atomically) and removed
    otherwise.  Opening, writing and renaming fail with an OSError that
    names the path.  Each block is freed once written, before the next one
    is made.
    """
    path = _check_path(path)
    fh = tmp = None

    def write(blocks):
        with _naming(path):
            for block in blocks:
                fh.write(block)
                del block

    try:
        with _naming(path):
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                mode = None  # a new file, or a dangling symlink's target
            if mode is None or stat.S_ISREG(mode):
                target = os.path.realpath(path)
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".emit-", suffix=".part")
                fh = os.fdopen(fd, "wb")
                if mode is None:  # what open() would create; mkstemp's is 0600
                    umask = os.umask(0)
                    os.umask(umask)
                    mode = 0o666 & ~umask
                os.fchmod(fd, stat.S_IMODE(mode))
            else:
                fh = open(path, "wb")
        yield write
        with _naming(path):
            fh.close()
            if tmp is not None:
                os.replace(tmp, target)
                tmp = None
    finally:
        if fh is not None:
            with suppress(OSError):
                fh.close()  # the with block raised, or the file could not be closed
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)


def emit(rows, format: str, path, *, columns) -> None:
    """Render rows and stream the blocks atomically into path.

    Equal inputs produce byte-identical files: fixed column order, canonical
    cell formatting, LF newlines, UTF-8, and a header-only file for an empty
    row list.  A bad format or column is refused before the temp file is
    made.
    """
    blocks = render(rows, format, columns=columns)
    with open_sink(path) as write:
        write(blocks)
