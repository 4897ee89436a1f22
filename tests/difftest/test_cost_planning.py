"""Cost-planning differential wall: cost-model placement vs
coordinator placement vs oracle.

The cost-driven planning that SQPeer keeps is Figure 5's shipping
choice: with ``use_shipping=True`` the cost model reads the
deployment's :class:`~repro.core.cost.Statistics` (link costs,
cardinalities fed back in stats packets, join selectivity) and may
place every join and union at any contributing peer.  What it may
never change is the *answer*.  Every (dataset seed, execution mode)
pair deploys the same workload twice — once with cost-model placement
over statistics that make the coordinator's links expensive (so joins
are pushed to the data peers), once on the default path where
everything joins at the coordinator — evaluates the same seeded
queries through both, and requires the outcomes to be exactly equal:
result tables, error strings and coverage annotations alike.
Successful answers are additionally checked against the centralized
oracle over the merged bases.

The sweep spans hybrid and ad-hoc deployments, term-valued and
dictionary-encoded execution, and odd batch sizes (1 ships one binding
per DataPacket), totalling more than 200 seeded comparisons.
"""

import pytest

from repro.core.cost import Statistics

from .harness import (
    Workload,
    build_adhoc,
    build_hybrid,
    centralized_answer,
    make_workload,
    query_outcome,
)

SEEDS = list(range(9))
QUERIES_PER_DATASET = 4

#: (mode id, builder, shared system options) — cost-model placement
#: toggles on top; ``*-scalar`` rows ship one binding per DataPacket
MODES = [
    ("hybrid-encoded", build_hybrid, {"encode": True}),
    ("hybrid-scalar", build_hybrid, {"batch_size": 1}),
    ("hybrid-batch-7", build_hybrid, {"batch_size": 7}),
    ("adhoc-encoded", build_adhoc, {"encode": True}),
    ("adhoc-scalar", build_adhoc, {"batch_size": 1}),
    ("adhoc-encoded-batch-13", build_adhoc, {"encode": True, "batch_size": 13}),
]


def test_sweep_is_large_enough():
    """The acceptance floor: at least 200 seeded comparisons."""
    assert len(SEEDS) * len(MODES) * QUERIES_PER_DATASET >= 200


def _remote_favouring_statistics(workload: Workload, coordinator: str) -> Statistics:
    """Statistics under which shipping joins to the data peers is
    cheapest: the coordinator's links are costly, the data peers'
    links nearly free, and joins highly selective."""
    stats = Statistics(default_cardinality=1000, join_selectivity=0.0001)
    others = [p for p in workload.peer_ids if p != coordinator]
    for other in others:
        stats.set_link_cost(coordinator, other, 50.0)
    for i, a in enumerate(others):
        for b in others[i + 1:]:
            stats.set_link_cost(a, b, 0.01)
    return stats


def _check_against_oracle(workload: Workload, outcome, text: str) -> None:
    columns, rows, error, _ = outcome
    expected = centralized_answer(workload, text)
    if error is not None:
        assert "no relevant peers" in error, error
        assert len(expected) == 0, (
            f"cost path found no relevant peers but oracle has "
            f"{len(expected)} rows for {text!r}"
        )
        return
    expected_rows = sorted(
        " ".join(
            dict(zip(expected.columns, row))[c].n3() for c in columns
        )
        for row in expected.rows
    )
    assert rows == expected_rows, (
        f"{len(rows)} rows != oracle {len(expected_rows)} for {text!r}"
    )


@pytest.mark.parametrize("mode,builder,options", MODES, ids=[m[0] for m in MODES])
@pytest.mark.parametrize("seed", SEEDS)
def test_cost_based_matches_rule_based_and_oracle(seed, mode, builder, options):
    workload = make_workload(seed, queries=QUERIES_PER_DATASET)
    via = workload.peer_ids[seed % len(workload.peer_ids)]
    rule_system = builder(workload, **options)
    cost_system = builder(
        workload,
        use_shipping=True,
        statistics=_remote_favouring_statistics(workload, via),
        **options,
    )
    compared = 0
    for text in workload.queries:
        rule = query_outcome(rule_system, via, text)
        cost = query_outcome(cost_system, via, text)
        assert cost == rule, (
            f"cost-model placement diverged from coordinator placement "
            f"for {text!r} (seed {seed}, {mode}):\n  cost={cost}\n  rule={rule}"
        )
        _check_against_oracle(workload, cost, text)
        compared += 1
    assert compared == QUERIES_PER_DATASET
