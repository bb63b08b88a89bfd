"""Import budget: no stage loads scipy or OpenSSL, and the package itself
loads none of its modules.

Every CLI subcommand runs in its own process, so whatever the package
imports at module level is paid once per invocation. `build`, `detect`,
`compare` and `characterize` run on numpy alone, so scipy (0.23 s and
about 22 MB for `scipy.sparse`, about 0.9 s for `scipy.stats`) is only a
test dependency. The config hash uses CPython's builtin SHA-256, so no
stage imports `hashlib`, which loads OpenSSL's `_hashlib` (about 3.6 MB
per process). The checks run in a fresh interpreter because this one has
imported scipy and hashlib already.

Each name has one import path, its module's: ``import multicoord`` binds
only ``__version__``, so importing one module loads that module and what it
imports, not the whole package. Importing the CLI sets OpenBLAS to one
thread before numpy loads, unless the caller chose a thread count.
"""

import json
import os
import subprocess
import sys

import pytest

import multicoord
from multicoord.cli import main
from multicoord.ingest import ACTIONS
from readme_recipe import COMPARISONS, write_configs

SRC = os.path.dirname(os.path.dirname(os.path.abspath(multicoord.__file__)))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))  # for a fresh interpreter

CHILD = """
import json, os, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import multicoord.cli
seen = {"import": scipy_modules()}

from multicoord.pipeline import (DETECT_MODES, RunConfig, run_characterize,
                                 run_compare, run_detect)
cfg = RunConfig.from_file(sys.argv[1])
for mode in DETECT_MODES:
    run_detect(cfg, mode, layer="hst" if mode == "mono" else None)
for ref, other in json.loads(sys.argv[2]):
    run_compare(cfg, ref, other)
seen["detect+compare"] = scipy_modules()
for ref, other in json.loads(sys.argv[2]):
    run_characterize(cfg, ref, other)
seen["characterize"] = scipy_modules()
seen["bm_files"] = sorted(f for f in os.listdir(cfg.out) if f.startswith("bm_"))
seen["openssl"] = sorted({"hashlib", "_hashlib"} & set(sys.modules))
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def seen(tmp_path_factory):
    """scipy modules loaded in a fresh process after each stage."""
    synth_cfg, run_cfg = write_configs(tmp_path_factory.mktemp("imports"))
    assert main(["synth", "--config", synth_cfg]) == 0
    assert main(["build", "--config", run_cfg]) == 0
    done = subprocess.run(
        [sys.executable, "-c", CHILD, run_cfg, json.dumps(COMPARISONS)],
        env=ENV, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


BUILD_CHILD = """
import json, os, sys
from multicoord.pipeline import RunConfig, run_build
cfg = RunConfig.from_file(sys.argv[1])
run_build(cfg)
print(json.dumps({"scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy.")),
                  "openssl": sorted({"hashlib", "_hashlib"} & set(sys.modules)),
                  "edges": sorted(f for f in os.listdir(cfg.out) if f.startswith("edges_"))}))
"""


def test_build_skips_csgraph_and_linalg(tmp_path):
    # build loads no scipy module at all: the per-window cosine graphs are a
    # numpy pair product and the component counts a numpy labelling
    synth_cfg, run_cfg = write_configs(tmp_path)
    assert main(["synth", "--config", synth_cfg]) == 0
    done = subprocess.run([sys.executable, "-c", BUILD_CHILD, run_cfg],
                          env=ENV, capture_output=True, text=True, check=True)
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    # the build did run: one edge file per layer
    assert seen["edges"] == sorted(f"edges_{layer}.tsv" for layer in ACTIONS)
    assert seen["scipy"] == []
    assert seen["openssl"] == []


def test_cli_import_loads_no_scipy(seen):
    assert seen["import"] == []


def test_detect_and_compare_load_no_scipy(seen):
    assert seen["detect+compare"] == []


def test_characterize_skips_scipy_stats(seen):
    # the stage did run: one bm_*.jsonl per comparison
    assert seen["bm_files"] == sorted(f"bm_{ref}_vs_{other}.jsonl" for ref, other in COMPARISONS)
    assert seen["characterize"] == []
    assert not [m for m in seen["characterize"]
                if m.split(".")[:2] in (["scipy", "stats"], ["scipy", "optimize"])]


def test_no_stage_loads_openssl(seen):
    # the config hash stamped on every artifact is the builtin SHA-256
    assert seen["openssl"] == []


def test_the_package_loads_none_of_its_modules():
    # it re-exported 80 names from every module, so importing any one module
    # loaded all eleven
    done = subprocess.run(
        [sys.executable, "-c", "import sys, multicoord; print(multicoord.__version__, "
         "sorted(m for m in sys.modules if m.startswith('multicoord.')))"],
        env=ENV, capture_output=True, text=True, check=True)
    assert done.stdout == f"{multicoord.__version__} []\n"


def test_cli_runs_openblas_on_one_thread_unless_told_otherwise():
    # the Lanczos steps' small eigh calls wait on thread hand-offs when
    # OpenBLAS runs several threads; a caller's own setting still wins
    child = "import os, multicoord.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    env = {k: v for k, v in ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    for setting, expected in ((None, "1"), ("3", "3")):
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == expected + "\n"
