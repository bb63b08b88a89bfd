"""Property tests against brute-force pure-Python references."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from multicoord.netbuild import UserVector, layer_window_graph  # noqa: E402

# small id alphabets, so that random vectors share items and ids collide
# with each other's prefixes
vector_sets = st.dictionaries(
    keys=st.text(alphabet="ab#é", min_size=1, max_size=3),
    values=st.dictionaries(st.sampled_from([f"i{k}" for k in range(6)]),
                           st.floats(min_value=1e-3, max_value=1e3), min_size=1),
    max_size=8)


def _norm(entries):
    return math.sqrt(math.fsum(w * w for w in entries.values()))


@settings(max_examples=200, deadline=None)
@given(vector_sets)
def test_layer_window_graph_matches_brute_force(entries_by_user):
    vectors = [UserVector(u, "rtw", 0, e) for u, e in entries_by_user.items()]
    g = layer_window_graph(vectors)

    expected = {}
    for a in entries_by_user:
        for b in entries_by_user:
            shared = entries_by_user[a].keys() & entries_by_user[b].keys()
            if a < b and shared:
                dot = math.fsum(entries_by_user[a][i] * entries_by_user[b][i] for i in shared)
                cos = dot / (_norm(entries_by_user[a]) * _norm(entries_by_user[b]))
                expected[(a, b)] = (min(cos, 1.0), len(shared))

    assert list(g.edges) == sorted(expected)
    for key, (cos, n_shared) in expected.items():
        d = g.edges[key]
        assert d.weight == pytest.approx(cos, rel=1e-12)
        assert 0.0 < d.weight <= 1.0
        assert (d.co_actions, d.window_count) == (n_shared, 1)
    assert g.nodes == {u for key in expected for u in key}
