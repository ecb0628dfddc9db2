"""Unit tests for synthetic consensus generation."""

import functools
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.simnet.rng import substream
from repro.tor.consensus import Consensus, ConsensusParams, generate_consensus
from repro.tor.relay import Flag


def test_deterministic_generation():
    a = generate_consensus(42)
    b = generate_consensus(42)
    assert [r.fingerprint for r in a.relays] == [r.fingerprint for r in b.relays]
    assert [r.bandwidth_bps for r in a.relays] == [r.bandwidth_bps for r in b.relays]


def test_different_seed_different_network():
    a = generate_consensus(42)
    b = generate_consensus(43)
    assert [r.fingerprint for r in a.relays] != [r.fingerprint for r in b.relays]


def test_population_has_guards_and_exits():
    consensus = generate_consensus(7)
    assert len(consensus.guards()) > 20
    assert len(consensus.exits()) > 20


def test_geography_skews_to_europe_and_na():
    consensus = generate_consensus(11, ConsensusParams(n_relays=500))
    regions = [r.city.region for r in consensus.relays]
    eu = regions.count("EU") / len(regions)
    asia = regions.count("AS") / len(regions)
    assert eu > 0.45
    assert asia < 0.25


def test_bandwidth_weighted_sampling_prefers_fat_relays():
    consensus = generate_consensus(13)
    rng = substream(13, "sampling")
    picks = [consensus.sample(rng) for _ in range(2000)]
    mean_picked = sum(r.bandwidth_bps for r in picks) / len(picks)
    mean_all = sum(r.bandwidth_bps for r in consensus.relays) / len(consensus)
    assert mean_picked > mean_all  # heavier relays chosen more often


def test_sample_honours_flag_and_exclusion():
    consensus = generate_consensus(17)
    rng = substream(17, "sampling")
    exits = consensus.exits()
    excluded = {exits[0].fingerprint}
    for _ in range(100):
        pick = consensus.sample(rng, flag=Flag.EXIT, exclude=excluded)
        assert pick.has_flag(Flag.EXIT)
        assert pick.fingerprint not in excluded


def test_sample_raises_when_no_candidates():
    consensus = generate_consensus(19, ConsensusParams(n_relays=3))
    rng = substream(19, "sampling")
    everyone = {r.fingerprint for r in consensus.relays}
    with pytest.raises(ConfigError):
        consensus.sample(rng, exclude=everyone)


@functools.cache
def _small_consensus(n_relays: int) -> Consensus:
    return generate_consensus(n_relays, ConsensusParams(n_relays=n_relays))


def _filter_then_draw(consensus, rng, flag, exclude):
    """The exclusion path of Consensus.sample before its fingerprints
    were cached: filter the flag's relays, then a weighted pick that
    sums left to right and scans in the same order."""
    candidates = [r for r in consensus.relays
                  if flag is Flag.NONE or r.has_flag(flag)]
    candidates = [r for r in candidates if r.fingerprint not in exclude]
    if not candidates:
        raise ConfigError(f"no relay candidates for flag={flag}")
    total = 0.0
    for relay in candidates:
        total += relay.bandwidth_bps
    x = rng.random() * total
    acc = 0.0
    for relay in candidates:
        acc += relay.bandwidth_bps
        if x < acc:
            return relay
    return candidates[-1]


def _outcome(draw):
    try:
        return draw().fingerprint
    except ConfigError:
        return ConfigError


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sample_with_exclusions_matches_filter_then_draw(data):
    consensus = _small_consensus(data.draw(st.sampled_from([3, 5, 12, 60])))
    flag = data.draw(st.sampled_from([Flag.NONE, Flag.GUARD, Flag.EXIT]))
    fingerprints = [r.fingerprint for r in consensus.relays]
    exclude = set(data.draw(st.lists(st.sampled_from(fingerprints + ["x"]),
                                     min_size=1, unique=True)))
    if data.draw(st.booleans()):
        # Exclude every candidate of the flag but at most one, so some
        # draws have one candidate left and some have none.
        members = [r.fingerprint for r in consensus.relays
                   if flag is Flag.NONE or r.has_flag(flag)]
        exclude.update(members[data.draw(st.integers(0, 1)):])
    seed = data.draw(st.integers(0, 2**32))
    ours, oracle = random.Random(seed), random.Random(seed)
    outcome = _outcome(lambda: consensus.sample(ours, flag=flag,
                                                exclude=exclude))
    event("no candidates" if outcome is ConfigError else "a relay")
    assert outcome == _outcome(lambda: _filter_then_draw(
        consensus, oracle, flag, exclude))
    assert ours.getstate() == oracle.getstate()


def test_min_relay_count_enforced():
    with pytest.raises(ConfigError):
        generate_consensus(1, ConsensusParams(n_relays=2))


def test_resample_all_loads_changes_background():
    consensus = generate_consensus(23)
    before = [r.resource.background_load for r in consensus.relays]
    consensus.resample_all_loads(substream(23, "epoch2"))
    after = [r.resource.background_load for r in consensus.relays]
    assert before != after


def test_by_fingerprint_roundtrip():
    consensus = generate_consensus(29)
    relay = consensus.relays[5]
    assert consensus.by_fingerprint(relay.fingerprint) is relay
    with pytest.raises(ConfigError):
        consensus.by_fingerprint("not-a-fingerprint")


def test_consensus_requires_relays():
    with pytest.raises(ConfigError):
        Consensus([])
