"""Both system facades share one builder core (``repro.systems.base``):
clients, submission, deployment-wide settings and option checks must
behave the same whichever architecture is deployed."""

import pytest

from repro.rdf.graph import Graph
from repro.resilience import ResilienceConfig
from repro.systems import AdhocSystem, HybridSystem
from repro.workload_engine import AdmissionControl
from repro.workloads.paper import PAPER_QUERY, adhoc_scenario, hybrid_scenario


def _hybrid(**options):
    return HybridSystem.from_scenario(hybrid_scenario(), **options)


def _adhoc(**options):
    return AdhocSystem.from_scenario(adhoc_scenario(), **options)


def _add_late_peer(system):
    """Add an empty peer after the deployment was built."""
    if isinstance(system, HybridSystem):
        return system.add_peer("LATE", Graph(), "SP1")
    return system.add_peer("LATE", Graph(), neighbours=["P1"])


FACADES = [pytest.param(_hybrid, id="hybrid"), pytest.param(_adhoc, id="adhoc")]


@pytest.mark.parametrize("build", FACADES)
def test_add_client_joins_and_registers(build):
    system = build()
    first = system.add_client()
    named = system.add_client("alice")
    assert first.peer_id == "client1"
    assert system.clients == {"client1": first, "alice": named}
    assert system.network.node("alice") is named


@pytest.mark.parametrize("build", FACADES)
def test_submit_and_query_through_a_chosen_client(build):
    system = build()
    reference = build().query("P1", PAPER_QUERY)
    assert len(reference) > 0
    default = system.add_client()
    chosen = system.add_client()
    query_id = system.submit("P1", PAPER_QUERY, client=chosen)
    system.run()
    assert chosen.result(query_id).table == reference
    assert system.query("P1", PAPER_QUERY, client=chosen) == reference
    # nothing went through the first-registered (default) client
    assert default.results == {}
    assert len(chosen.results) == 2


@pytest.mark.parametrize("build", FACADES)
def test_settings_reach_peers_added_later(build):
    system = build()
    config = system.enable_resilience(ResilienceConfig.default())
    control = system.enable_admission(AdmissionControl.default())
    system.enable_fair_scheduling(quantum=0.5)
    late = _add_late_peer(system)
    client = system.add_client()
    assert late.channel_retry is config.channel_retry
    assert late.partial_results == config.partial_results
    assert late.replan_budget is not None
    assert late.admission is control
    assert late.scheduler is not None
    assert client.submit_retry is config.client_retry


@pytest.mark.parametrize("build", FACADES)
@pytest.mark.parametrize("batch_size", [0, -3])
def test_batch_size_below_one_rejected_at_construction(build, batch_size):
    with pytest.raises(ValueError, match="batch_size"):
        build(batch_size=batch_size)


@pytest.mark.parametrize("build", FACADES)
def test_unknown_option_rejected_at_construction(build):
    # knobs that were deleted, not renamed
    for option, value in (("vectorize", False), ("cost_based", True)):
        with pytest.raises(TypeError, match=option):
            build(**{option: value})
