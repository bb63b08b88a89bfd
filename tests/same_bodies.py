"""Compare two artifact directories below each file's first (meta) line.

The meta line holds the config hash, which covers absolute paths, so two
runs of one config from different directories differ there and only
there. This prints the files that only one directory has and the files
whose bytes after the first line differ, and exits 1 if there are any
(2 on a wrong call). A differing JSON-lines body also names the record
kinds whose counts differ, B against A, as in
"bodies differ: build_report.jsonl: +1 window_coverage". Stdlib only:

    python tests/same_bodies.py DIR_A DIR_B
"""

import json
import sys
from collections import Counter
from pathlib import Path


def files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def body(path: Path) -> bytes:
    return path.read_bytes().partition(b"\n")[2]


def kinds(path: Path) -> Counter:
    """The count of each `record` value among the JSON lines of a body; a
    line that is not a JSON object counts as kind None."""
    counts = Counter()
    for line in body(path).splitlines():
        if line.strip():
            try:
                rec = json.loads(line)
            except ValueError:
                rec = None
            counts[rec.get("record") if isinstance(rec, dict) else None] += 1
    return counts


def differs(a: Path, b: Path, name: str) -> str:
    """The line for a file whose bodies differ, with the record kinds whose
    counts differ when it is a JSON-lines file."""
    line = f"bodies differ: {name}"
    if name.endswith(".jsonl"):
        ka, kb = kinds(a / name), kinds(b / name)
        moved = [f"{kb[k] - ka[k]:+d} {k}" for k in sorted(ka | kb, key=str) if ka[k] != kb[k]]
        if moved:
            line += ": " + ", ".join(moved)
    return line


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(map(Path.is_dir, map(Path, argv))):
        print("usage: python tests/same_bodies.py DIR_A DIR_B", file=sys.stderr)
        return 2
    a, b = map(Path, argv)
    names_a, names_b = files(a), files(b)
    problems = [f"only in {a}: {n}" for n in sorted(names_a - names_b)]
    problems += [f"only in {b}: {n}" for n in sorted(names_b - names_a)]
    common = sorted(names_a & names_b)
    problems += [differs(a, b, n) for n in common if body(a / n) != body(b / n)]
    for line in problems:
        print(line)
    print(f"{len(common)} files in both, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
