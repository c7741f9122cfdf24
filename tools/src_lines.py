"""Line counts of the modules of ``src/dpsqkd``: the ``wc -l`` total of each
file and its split into code, docstring, comment and blank lines.

A docstring line is one spanned by the docstring of the module, a class or
a function (its blank lines included); a comment line holds a comment and
no code; a blank line holds nothing else; every other line is code, the
lines of other multi-line strings included.  The four columns of a module
sum to its ``wc -l``.

Run it from the root of the repository, with the Python standard library
alone::

    python3 tools/src_lines.py [directory]
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

COLUMNS = ("lines", "code", "docstring", "comment", "blank")
SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dpsqkd"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def split(source: str) -> dict:
    """The counts of :data:`COLUMNS` for one module's text."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            doc = node.body[0]
            docstring.update(range(doc.lineno, doc.end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(COLUMNS, 0)
    counts["lines"] = source.count("\n")
    for k in range(1, counts["lines"] + 1):
        kind = ("docstring" if k in docstring else "code" if k in code
                else "comment" if k in comment else "blank")
        counts[kind] += 1
    return counts


def table(directory: pathlib.Path = SOURCE) -> list:
    """One ``(name, counts)`` row per module of `directory`, by name, then
    ``("total", counts)``."""
    rows = [(path.name, split(path.read_text()))
            for path in sorted(directory.glob("*.py"))]
    total = {c: sum(counts[c] for _, counts in rows) for c in COLUMNS}
    return rows + [("total", total)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    directory = pathlib.Path(argv[0]) if argv else SOURCE
    print(f"{'module':<16}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name, counts in table(directory):
        print(f"{name:<16}" + "".join(f"{counts[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
