"""Metamorphic properties of statistics-guided planning: statistics
only steer *plan choice*, never the answer.

The planner reads :class:`~repro.core.cost.Statistics` in the join/
union distribution guard (Figure 4), and the cardinalities channels
feed back in stats packets update it between queries.  Each relation
perturbs the statistics a deployment plans against — scaling every
cardinality, shuffling link costs, injecting adversarial load factors,
zeroing everything out, or forgetting every fed-back cardinality
(missing peers).  The chosen plans may differ arbitrarily; the
observable outcome (result table, error string, coverage annotation)
must be exactly the unperturbed deployment's, and degenerate
statistics must never crash planning.
"""

import pytest

from repro.core.cost import Statistics

from .harness import build_adhoc, build_hybrid, make_workload, query_outcome

SEEDS = [0, 1, 2, 5]
QUERIES_PER_DATASET = 4


class ScaledStatistics(Statistics):
    """Every cardinality inflated by a constant factor."""

    def __init__(self, factor: float):
        super().__init__()
        self._factor = factor

    def cardinality(self, peer_id, prop):
        return int(super().cardinality(peer_id, prop) * self._factor) + 1


class ShuffledLinkStatistics(Statistics):
    """Link costs replaced by a deterministic per-pair pseudo-shuffle."""

    def link_cost(self, a, b):
        if a == b:
            return 0.0
        return 0.1 + (hash((min(a, b), max(a, b))) % 97) / 10.0


class AdversarialLoadStatistics(Statistics):
    """Load factors that wildly favour some peers over others."""

    def load_factor(self, peer_id):
        return 1.0 + (hash(peer_id) % 13) * 100.0


class ZeroStatistics(Statistics):
    """Degenerate: every estimate collapses to zero."""

    def __init__(self):
        super().__init__(join_selectivity=0.0)

    def cardinality(self, peer_id, prop):
        return 0

    def link_cost(self, a, b):
        return 0.0


class AmnesiacStatistics(Statistics):
    """Degenerate: recording forgets everything — the planner sees no
    peer's fed-back cardinality (the missing-peers case)."""

    def set_cardinality(self, peer_id, prop, rows):
        return None


PERTURBATIONS = [
    ("scaled-up-1000x", lambda: ScaledStatistics(1000.0)),
    ("scaled-down", lambda: ScaledStatistics(0.001)),
    ("shuffled-links", ShuffledLinkStatistics),
    ("adversarial-load", AdversarialLoadStatistics),
    ("all-zero", ZeroStatistics),
    ("missing-peers", AmnesiacStatistics),
]


@pytest.mark.parametrize(
    "name,make_stats", PERTURBATIONS, ids=[p[0] for p in PERTURBATIONS]
)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "builder", [build_hybrid, build_adhoc], ids=["hybrid", "adhoc"]
)
def test_perturbed_statistics_never_change_the_answer(
    seed, name, make_stats, builder
):
    workload = make_workload(seed, queries=QUERIES_PER_DATASET)
    baseline = builder(workload, encode=True)
    perturbed = builder(workload, encode=True, statistics=make_stats())
    via = workload.peer_ids[seed % len(workload.peer_ids)]
    for text in workload.queries:
        expected = query_outcome(baseline, via, text)
        actual = query_outcome(perturbed, via, text)
        assert actual == expected, (
            f"perturbation {name} changed the outcome for {text!r} "
            f"(seed {seed}):\n  perturbed={actual}\n  baseline={expected}"
        )


def test_degenerate_statistics_do_not_crash_direct_planning():
    """Belt and braces: drive the optimiser directly with degenerate
    statistics over a real plan — zero estimates and unknown peers must
    yield a plan, not an exception."""
    from repro.core.cost import CostModel
    from repro.core.optimizer import optimize
    from repro.core.planning import build_plan
    from repro.rql.parser import parse_query

    workload = make_workload(3, queries=QUERIES_PER_DATASET)
    system = build_hybrid(workload)
    peer = system.peers[workload.peer_ids[0]]
    query = parse_query(workload.queries[0])
    annotated = peer._route_local(peer._extract_against_any_schema(query))
    plan = build_plan(annotated)
    for stats in (ZeroStatistics(), AmnesiacStatistics(), Statistics()):
        trace = optimize(plan, CostModel(stats))
        assert trace.result is not None
