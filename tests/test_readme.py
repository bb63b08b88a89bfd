"""The README's "Library quick start" block runs as written.

The block reads ``events.tsv`` from its working directory, so the test
writes the README recipe's synth log there first and then runs the
block's source unchanged.
"""

import os
import re

from multicoord.reports import write_events_tsv
from multicoord.synth import SynthConfig, generate
from readme_recipe import SYNTH

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def quick_start_block() -> str:
    """The first python block under the "Library quick start" heading."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Library quick start\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    log, _ = generate(SynthConfig(**SYNTH))
    write_events_tsv(str(tmp_path / "events.tsv"), log)
    monkeypatch.chdir(tmp_path)
    scope = {"__name__": "__main__"}
    exec(compile(quick_start_block(), "README.md", "exec"), scope)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 1 and printed[0].startswith("{")
    # every community of both sides has a label, and the matching is a matching
    O, M = scope["O"], scope["M"]
    assert list(scope["labels_a"]) == list(O.a_ids) and list(scope["labels_b"]) == list(O.b_ids)
    assert M.pairs  # the two sides share communities
    a_side, b_side = zip(*M.pairs)
    assert len(set(a_side)) == len(a_side) and len(set(b_side)) == len(b_side)
    assert all(O.values[bi, ai] > 0 for ai, bi in M.pairs)
