"""Count the lines of src/randfan by kind: total, code, docstring, comment.

A docstring line is a line spanned by the docstring of the module, a class
or a function (found with ast); a comment line holds only a comment (found
with tokenize); a code line is any other line that is not blank.  Run it
from anywhere:

    python3 tests/src_lines.py                 # the working tree
    python3 tests/src_lines.py --against REV   # REV (read with git show), the
                                               # working tree, and the net delta

Its name does not start with test_, so pytest does not collect it.
"""

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "randfan"
KINDS = ("total", "code", "docstring", "comment")


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


def tally(texts: dict) -> dict:
    """{module: counts} for {module: text}, plus the sum under "src/randfan"."""
    rows = {name: count(texts[name]) for name in sorted(texts)}
    rows["src/randfan"] = {k: sum(r[k] for r in rows.values()) for k in KINDS}
    return rows


def delta(before: dict, after: dict) -> dict:
    """The net change of each kind from the texts before to the texts after."""
    old, new = tally(before)["src/randfan"], tally(after)["src/randfan"]
    return {k: new[k] - old[k] for k in KINDS}


def _at(rev: str) -> dict:
    """{module: text} of src/randfan at a git revision."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout
    names = git("ls-tree", "--name-only", f"{rev}:src/randfan").split()
    return {Path(n).stem: git("show", f"{rev}:src/randfan/{n}") for n in names if n.endswith(".py")}


def _print(title: str, rows: dict) -> None:
    print(f"{title:<14}" + "".join(f"{k:>10}" for k in KINDS))
    for name, counts in rows.items():
        print(f"{name:<14}" + "".join(f"{counts[k]:>10,}" for k in KINDS))


def main() -> None:
    parser = argparse.ArgumentParser(description="Count the lines of src/randfan by kind.")
    parser.add_argument("--against", metavar="REV", help="also count src/randfan at this git revision")
    args = parser.parse_args()
    tree = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    if args.against:
        before = _at(args.against)
        _print(args.against, tally(before))
        print()
        _print("working tree", tally(tree))
        print()
        change = delta(before, tree)
        print(f"{'net delta':<14}" + "".join(f"{change[k]:>+10,}" for k in KINDS))
    else:
        _print("module", tally(tree))


if __name__ == "__main__":
    main()
