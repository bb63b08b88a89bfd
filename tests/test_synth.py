"""Synthetic benchmark generator: determinism, traceability, validation."""

import re

import pytest

from multicoord.community import Partition, communities
from multicoord.ingest import ACTIONS, parse_events
from multicoord.reports import write_events_tsv
from multicoord.synth import SynthConfig, generate

PLANTED = re.compile(r"^c(\d+)\.(rtw|rpl|men|hst|url)\.(\d+)$")
NOISE = re.compile(r"^n\.(rtw|rpl|men|hst|url)\.(\d+)$")


def small_cfg(**over):
    base = dict(n_users=30, community_sizes=(10, 8),
                strengths=({"rtw": 3.0, "hst": 2.0}, {"rpl": 3.0}),
                seed=7, noise_rate=0.2, span_hours=24.0)
    base.update(over)
    return SynthConfig(**base)


# ---------------------------------------------------------------------------
# validation


def test_config_validation():
    with pytest.raises(TypeError):
        SynthConfig(n_users=10, community_sizes=(5,), strengths=({"rtw": 1.0},))
    with pytest.raises(ValueError):
        small_cfg(community_sizes=(10,))              # sizes/strengths mismatch
    with pytest.raises(ValueError):
        small_cfg(n_users=10)                         # sizes exceed users
    with pytest.raises(ValueError):
        small_cfg(strengths=({"rtw": 1.0}, {"dms": 1.0}))
    with pytest.raises(ValueError):
        small_cfg(strengths=({"rtw": -1.0}, {"rpl": 1.0}))
    with pytest.raises(ValueError):
        small_cfg(noise_rate=-0.1)
    with pytest.raises(ValueError):
        small_cfg(community_pool_size=1)              # nulled by TF-IDF
    with pytest.raises(ValueError):
        small_cfg(noise_pool_size=0)
    with pytest.raises(ValueError):
        small_cfg(span_hours=2.0, width_hours=6.0)
    cfg = small_cfg()
    assert cfg.n_communities == 2


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_same_log():
    log1, truth1 = generate(small_cfg())
    log2, truth2 = generate(small_cfg())
    assert log1.events == log2.events
    assert truth1.assignment == truth2.assignment


def test_different_seed_different_log():
    log1, _ = generate(small_cfg())
    log2, _ = generate(small_cfg(seed=8))
    assert log1.events != log2.events


# ---------------------------------------------------------------------------
# structure


def test_ground_truth_shape():
    cfg = small_cfg()
    log, truth = generate(cfg)
    assert isinstance(truth, Partition) and truth.scope == "truth"
    comms = communities(truth.assignment)
    assert {len(comms[i]) for i in comms} == {10, 8}
    assert len(truth.assignment) == 18
    # the noise users are the users the truth lacks, and they act too
    assert len(set(log.users) - set(truth.assignment)) == cfg.n_users - 18 == 12
    assert cfg.active_layers[0] == frozenset({"rtw", "hst"})
    assert cfg.active_layers[1] == frozenset({"rpl"})
    assert comms[0] <= set(truth.assignment)


def test_items_are_traceable():
    cfg = small_cfg()
    log, truth = generate(cfg)
    assert len(log.events) > 0
    for e in log.events:
        m = PLANTED.match(e.item_id)
        if m:
            ci, layer, idx = int(m.group(1)), m.group(2), int(m.group(3))
            assert e.action == layer
            assert layer in cfg.active_layers[ci]
            assert truth.assignment[e.user_id] == ci
            assert idx < cfg.community_pool_size
        else:
            m = NOISE.match(e.item_id)
            assert m, f"untraceable item {e.item_id!r}"
            assert e.action == m.group(1)


def test_single_layer_community_stays_single_layer():
    # the rpl-only community emits nothing outside rpl when noise is off
    cfg = small_cfg(noise_rate=0.0)
    log, truth = generate(cfg)
    c1 = communities(truth.assignment)[1]
    actions_of_c1 = {e.action for e in log.events if e.user_id in c1}
    assert actions_of_c1 == {"rpl"}
    # and nobody outside c1 touches its pools
    for e in log.events:
        if e.item_id.startswith("c1."):
            assert e.user_id in c1


def test_noise_reaches_everyone():
    log, truth = generate(small_cfg(noise_rate=2.0, seed=11))
    noise_emitters = {e.user_id for e in log.events if NOISE.match(e.item_id)}
    # all 30 users produce noise at this rate with near certainty
    assert len(noise_emitters) == 30
    # noise users emit nothing but noise
    for e in log.events:
        if e.user_id not in truth.assignment:
            assert NOISE.match(e.item_id)


def test_zero_noise_means_no_noise_items():
    log, truth = generate(small_cfg(noise_rate=0.0))
    assert all(PLANTED.match(e.item_id) for e in log.events)
    emitters = {e.user_id for e in log.events}
    assert emitters <= set(truth.assignment)


def test_events_sorted_and_inside_span():
    cfg = small_cfg()
    log, _ = generate(cfg)
    span_s = cfg.span_hours * 3600.0
    ts = [e.timestamp for e in log.events]
    assert ts == sorted(ts)
    assert all(0.0 <= t < span_s for t in ts)
    assert log.time_span == (0.0, span_s)


def test_strength_monotonicity():
    def planted_count(strength):
        cfg = SynthConfig(n_users=20, community_sizes=(20,),
                          strengths=({"rtw": strength},), seed=5,
                          span_hours=24.0)
        log, _ = generate(cfg)
        return len(log.events)

    lo, hi = planted_count(0.5), planted_count(4.0)
    assert hi > lo * 3


def test_strength_zero_is_inactive():
    cfg = SynthConfig(n_users=12, community_sizes=(6, 6),
                      strengths=({"rtw": 3.0}, {"rtw": 3.0, "rpl": 0.0}),
                      seed=3, span_hours=24.0)
    log, _ = generate(cfg)
    assert cfg.active_layers[1] == frozenset({"rtw"})
    assert all(e.action == "rtw" for e in log.events)


# ---------------------------------------------------------------------------
# ingest round trip


def test_generated_log_survives_ingest(tmp_path):
    log, _ = generate(small_cfg())
    path = tmp_path / "events.tsv"
    write_events_tsv(str(path), log)
    back = parse_events(path, schema="tsv")
    assert back.rejects == ()
    assert [(e.user_id, e.action, e.item_id, e.timestamp) for e in back.events] \
        == [(e.user_id, e.action, e.item_id, e.timestamp) for e in log.events]


def test_per_layer_noise_pool_sizes():
    # every layer draws from its own pool of noise_pool_size items
    log, _ = generate(small_cfg(noise_pool_size=2, noise_rate=1.0, seed=13))
    for layer in ACTIONS:
        noise = {e.item_id for e in log.events
                 if e.action == layer and NOISE.match(e.item_id)}
        assert noise == {f"n.{layer}.0", f"n.{layer}.1"}, layer
