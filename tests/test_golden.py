"""Golden artifacts: the README recipe must keep producing the same bytes.

The recipe is the README's `synth.json` / `run.json` pair, run through
synth, build, every detect mode, then compare + characterize for
`unfl-sum` vs `rtw` and `multi` vs `hst`. Each artifact is hashed without
its first line, because the meta line's config hash covers absolute paths
(input and output directories) and so differs between checkouts; the
version on that line is asserted separately.

`golden_manifest.json` holds the digests of `readme_recipe.run_recipe`'s
artifacts, from this module's `artifact_digests`. A change that moves an
artifact byte regenerates it, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import hashlib
import json
import os
import tempfile

import pytest

from multicoord import __version__
from readme_recipe import run_recipe

MANIFEST = os.path.join(os.path.dirname(__file__), "golden_manifest.json")


def artifact_digests(out: str) -> dict:
    """{file name: (first line, sha256 of the remaining bytes)}."""
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            first = fh.readline().decode("utf-8")
            digests[name] = (first, hashlib.sha256(fh.read()).hexdigest())
    return digests


def _meta_version(first_line: str) -> str:
    if first_line.startswith("# multicoord "):
        return first_line.split()[2]
    return json.loads(first_line)["version"]


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return artifact_digests(run_recipe(tmp_path_factory.mktemp("golden")))


@pytest.fixture(scope="module")
def expected():
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_artifact_set(digests, expected):
    assert sorted(digests) == sorted(expected)


def test_golden_artifact_bytes(digests, expected):
    moved = sorted(name for name, (_, sha) in digests.items()
                   if expected.get(name) != sha)
    assert moved == []


def test_golden_meta_version(digests):
    for name, (first, _) in digests.items():
        assert _meta_version(first) == __version__, name


def write_manifest(path: str = MANIFEST) -> None:
    """Run the recipe in a temporary directory and write the digests of its
    artifacts to ``path``."""
    with tempfile.TemporaryDirectory() as tmp:
        digests = artifact_digests(run_recipe(tmp))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({name: sha for name, (_, sha) in digests.items()}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write_manifest()
