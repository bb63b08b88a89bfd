"""Every span target of the benchmark tracer is a name the package has.

`pipebench/spans.py` wraps module-level names such as `pipeline.louvain`
and `reports._n_components`. A target that is gone is only reported when
it backs a per-layer metric, so a rename elsewhere would drop its span
without a word; this test fails instead.
"""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "pipebench", "spans.py")


def _targets():
    spec = importlib.util.spec_from_file_location("pipebench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # stdlib imports only
    return spans.TARGETS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _targets()])
def test_span_target_resolves(module, attr):
    assert hasattr(importlib.import_module(f"multicoord.{module}"), attr)
