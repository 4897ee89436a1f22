"""Statistics and the cost model for distributed plan optimisation.

Section 2.5 names three inputs to the optimisation choice: statistics
about the **communication cost** between peers (connection speed), the
**expected size of peers' query results**, and the **processing load**
of peers (free "slots").  :class:`Statistics` stores exactly those
three, and :class:`CostModel` combines them into per-plan estimates of
bytes shipped, messages sent and completion time.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..rdf.terms import URI
from .algebra import Hole, Join, PlanNode, Scan, Union

#: Estimated wire bytes per binding-table row (term renderings + overhead).
DEFAULT_ROW_BYTES = 64
#: Fraction of a join's cross product assumed to survive it.
DEFAULT_JOIN_SELECTIVITY = 0.01
#: Wire size of a subplan/control message.
CONTROL_MESSAGE_BYTES = 256


class Statistics:
    """Per-peer statistics the optimiser consumes.

    Args:
        default_cardinality: Fallback result size for (peer, property)
            pairs that were never recorded.
        default_link_cost: Fallback per-byte transfer cost.
        join_selectivity: Fraction of the cross product surviving a join.
    """

    def __init__(
        self,
        default_cardinality: int = 100,
        default_link_cost: float = 1.0,
        join_selectivity: float = DEFAULT_JOIN_SELECTIVITY,
        row_bytes: int = DEFAULT_ROW_BYTES,
    ):
        self.default_cardinality = default_cardinality
        self.default_link_cost = default_link_cost
        self.join_selectivity = join_selectivity
        self.row_bytes = row_bytes
        #: bumped on every recorded change; plan caches key on it so a
        #: cached plan is only reused while its cost inputs still hold
        self.version = 0
        self._cardinality: Dict[Tuple[str, URI], int] = {}
        self._link_cost: Dict[Tuple[str, str], float] = {}
        self._load: Dict[str, int] = {}
        self._slots: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def set_cardinality(self, peer_id: str, prop: URI, rows: int) -> None:
        """Record that ``peer_id`` returns ``rows`` bindings for ``prop``."""
        if self._cardinality.get((peer_id, prop)) != rows:
            self.version += 1
        self._cardinality[(peer_id, prop)] = rows

    def set_link_cost(self, a: str, b: str, cost: float) -> None:
        """Record the per-byte cost of the (symmetric) link ``a — b``."""
        if self._link_cost.get((a, b)) != cost:
            self.version += 1
        self._link_cost[(a, b)] = cost
        self._link_cost[(b, a)] = cost

    def set_load(self, peer_id: str, load: int, slots: int = 1) -> None:
        """Record a peer's current processing load and its slot count."""
        if (self._load.get(peer_id), self._slots.get(peer_id)) != (load, max(1, slots)):
            self.version += 1
        self._load[peer_id] = load
        self._slots[peer_id] = max(1, slots)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def cardinality(self, peer_id: str, prop: URI) -> int:
        return self._cardinality.get((peer_id, prop), self.default_cardinality)

    def link_cost(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        return self._link_cost.get((a, b), self.default_link_cost)

    def load_factor(self, peer_id: str) -> float:
        """Queueing penalty multiplier: 1 + load/slots."""
        load = self._load.get(peer_id, 0)
        slots = self._slots.get(peer_id, 1)
        return 1.0 + load / slots


class CostEstimate:
    """A plan cost breakdown."""

    __slots__ = ("bytes_shipped", "messages", "time")

    def __init__(self, bytes_shipped: float, messages: int, time: float):
        object.__setattr__(self, "bytes_shipped", bytes_shipped)
        object.__setattr__(self, "messages", messages)
        object.__setattr__(self, "time", time)

    def __setattr__(self, name, val):
        raise AttributeError("CostEstimate is immutable")

    @property
    def total(self) -> float:
        """The scalar the optimiser compares: time-weighted bytes plus
        a fixed charge per message."""
        return self.time + self.messages * 0.1

    def __repr__(self) -> str:
        return (
            f"CostEstimate(bytes={self.bytes_shipped:.0f}, "
            f"messages={self.messages}, time={self.time:.2f})"
        )


class CostModel:
    """Estimates plan cardinalities and execution costs.

    Args:
        stats: The statistics store.
    """

    def __init__(self, stats: Optional[Statistics] = None):
        self.stats = stats or Statistics()

    # ------------------------------------------------------------------
    # cardinality estimation
    # ------------------------------------------------------------------
    def scan_cardinality(self, scan: Scan) -> float:
        """Expected rows a scan returns from its peer.

        A composite scan is a local join of its patterns: product of
        the per-pattern cardinalities scaled by the join selectivity.
        """
        result = 1.0
        for index, pattern in enumerate(scan.patterns()):
            prop = pattern.schema_path.property
            rows = self.stats.cardinality(scan.peer_id, prop)
            if index == 0:
                result = rows
            else:
                result = result * rows * self.stats.join_selectivity
        return result

    def cardinality(self, plan: PlanNode) -> float:
        """Expected result rows of a plan node."""
        if isinstance(plan, Scan):
            return self.scan_cardinality(plan)
        if isinstance(plan, Hole):
            return 0.0
        if isinstance(plan, Union):
            return sum(self.cardinality(c) for c in plan.children())
        if isinstance(plan, Join):
            result = None
            for child in plan.children():
                rows = self.cardinality(child)
                if result is None:
                    result = rows
                else:
                    result = result * rows * self.stats.join_selectivity
            return result or 0.0
        raise TypeError(f"unknown plan node {type(plan).__name__}")

    # ------------------------------------------------------------------
    # plan cost (all intermediate results shipped to one coordinator)
    # ------------------------------------------------------------------
    def plan_cost(self, plan: PlanNode, coordinator: str) -> CostEstimate:
        """Cost of executing a plan with every scan result shipped to
        ``coordinator`` and every inner operator evaluated there
        (the data-shipping baseline; shipping decisions refine this in
        :mod:`repro.core.shipping`).
        """
        bytes_shipped = 0.0
        messages = 0
        time = 0.0
        for node in plan.walk():
            if not isinstance(node, Scan):
                continue
            rows = self.scan_cardinality(node)
            payload = rows * self.stats.row_bytes
            link = self.stats.link_cost(node.peer_id, coordinator)
            bytes_shipped += payload
            messages += 2  # subplan out + results back
            transfer = (payload + CONTROL_MESSAGE_BYTES) * link
            processing = rows * 0.001 * self.stats.load_factor(node.peer_id)
            time = max(time, transfer + processing)  # scans run in parallel
        join_rows = self.cardinality(plan)
        time += join_rows * 0.001 * self.stats.load_factor(coordinator)
        return CostEstimate(bytes_shipped, messages, time)

    def max_intermediate_rows(self, plan: PlanNode) -> float:
        """The largest operator input anywhere in the plan.

        This is the quantity the paper's Figure 4 discussion targets:
        "pushing joins below the unions produces smaller intermediate
        results" — after distribution, no join consumes a full union.
        """
        largest = 0.0
        for node in plan.walk():
            for child in node.children():
                largest = max(largest, self.cardinality(child))
        return largest
