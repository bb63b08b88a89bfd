"""Print the code lines of each module under src/ and their total.

A code line holds a token that is not a comment or part of a docstring;
blank lines do not count. Stdlib only:

    python tests/code_lines.py [SRC_DIR]
    python tests/code_lines.py SRC_A SRC_B

With two directories, each module's line shows its count under A, under
B and the difference B - A (a module missing from one side counts 0
there), and the last line the totals.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def counts(src: Path) -> dict:
    """{module path relative to src: code lines}, in path order."""
    return {path.relative_to(src): code_lines(path) for path in sorted(src.rglob("*.py"))}


def main(argv: list[str]) -> None:
    if len(argv) == 2:
        a, b = (counts(Path(arg)) for arg in argv)
        for rel in sorted(a.keys() | b.keys()):
            na, nb = a.get(rel, 0), b.get(rel, 0)
            print(f"{na:6d} {nb:6d} {nb - na:+6d}  {rel}")
        ta, tb = sum(a.values()), sum(b.values())
        print(f"{ta:6d} {tb:6d} {tb - ta:+6d}  total")
        return
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    n = counts(src)
    for rel, lines in n.items():
        print(f"{lines:6d}  {rel}")
    print(f"{sum(n.values()):6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
