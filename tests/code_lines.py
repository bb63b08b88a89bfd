"""Print the code lines of each module under src/ and their total.

A code line holds a token that is not a comment or part of a docstring;
blank lines do not count. Stdlib only:

    python tests/code_lines.py [SRC_DIR]
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


def main(argv: list[str]) -> None:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total = 0
    for path in sorted(src.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(src)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
