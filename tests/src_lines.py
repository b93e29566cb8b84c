"""Count the lines of src/randfan by kind: total, code, docstring, comment.

A docstring line is a line spanned by the docstring of the module, a class
or a function (found with ast); a comment line holds only a comment (found
with tokenize); a code line is any other line that is not blank.  Run it
from anywhere, with no arguments:

    python3 tests/src_lines.py

Its name does not start with test_, so pytest does not collect it.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "randfan"


def count(text: str) -> dict:
    """The total, code, docstring and comment line counts of one module."""
    lines = text.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    has_code, has_comment = set(), set()
    ignored = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            has_comment.add(tok.start[0])
        elif tok.type not in ignored:
            has_code.update(range(tok.start[0], tok.end[0] + 1))
    has_code -= docstring
    comment = has_comment - has_code - docstring
    return {"total": len(lines), "code": len(has_code), "docstring": len(docstring), "comment": len(comment)}


def main() -> None:
    kinds = ("total", "code", "docstring", "comment")
    print(f"{'module':<14}" + "".join(f"{k:>10}" for k in kinds))
    sums = dict.fromkeys(kinds, 0)
    for path in sorted(SRC.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        print(f"{path.stem:<14}" + "".join(f"{counts[k]:>10,}" for k in kinds))
        for k in kinds:
            sums[k] += counts[k]
    print(f"{'src/randfan':<14}" + "".join(f"{sums[k]:>10,}" for k in kinds))


if __name__ == "__main__":
    main()
