"""The hybrid (super-peer) P2P architecture (paper Section 3.1).

Simple peers push their active-schemas to the super-peer responsible
for their SON when they join.  Query evaluation has two sequential
phases: **routing**, performed exclusively at super-peers (the
coordinator sends a :class:`~repro.peers.protocol.RouteRequest` and
receives the annotated query pattern), and **processing/execution**,
performed by the simple peers (plan generation, channel deployment,
result assembly) — exactly Figure 6's flow.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from ..errors import PeerError
from ..net.message import Message
from ..net.simulator import Network
from ..resilience import HeartbeatEmitter, ResilienceConfig
from ..peers.base import PeerBase
from ..peers.protocol import Advertise, RouteBusy, RouteReply, RouteRequest
from ..peers.simple import PendingQuery, SimplePeer
from ..peers.super import SuperPeer
from ..rdf.graph import Graph
from ..rdf.schema import Schema
from .base import SystemBase


class HybridPeer(SimplePeer):
    """A simple peer in the hybrid architecture.

    Args:
        home_super_peer: The super-peer this peer clusters under (the
            one responsible for its community schema's SON).
    """

    def __init__(self, peer_id: str, base: Optional[PeerBase] = None,
                 home_super_peer: str = "", home_super_peers=None, **kwargs):
        super().__init__(peer_id, base, **kwargs)
        if not home_super_peer:
            raise PeerError(f"hybrid peer {peer_id} needs a home super-peer")
        self.home_super_peer = home_super_peer
        #: schema URI -> super-peer, for peers in several SONs
        #: ("a simple-peer can be connected to multiple super-peers")
        self.home_super_peers = dict(home_super_peers or {})
        #: RouteBusy back-offs tolerated per routing round before the
        #: query gives up on its overloaded super-peer
        self.route_busy_budget = 5

    def _home_for(self, schema_uri: str) -> str:
        return self.home_super_peers.get(schema_uri, self.home_super_peer)

    def join(self, network: Network) -> None:
        """Register and push each base's active-schema to the
        super-peer responsible for that SON."""
        super().join(network)
        for advertisement in self.own_advertisements():
            self.send(
                self._home_for(advertisement.schema_uri),
                Advertise(advertisement, rejoin=self.rejoining),
            )

    def _advertisement_targets(self):
        targets = {self.home_super_peer, *self.home_super_peers.values()}
        return sorted(targets)

    def _obtain_routing(self, pending: PendingQuery) -> None:
        """Phase 1: ask the super-peer backbone for the annotation —
        the super-peer of the query's schema, when this peer knows it."""
        target = self._home_for(pending.pattern.schema.namespace.uri)
        pending.awaiting_routing = True
        pending.routing_attempts += 1
        # one span per routing round: the super-peer's route span (and
        # any backbone hops) stitch under it via the request's context
        pending.routing_span = self._tracer().start_span(
            "routing",
            peer=self.peer_id,
            parent=pending.span.context(),
            mode="super-peer",
            target=target,
        )
        self.send(
            target,
            RouteRequest(pending.query_id, pending.pattern, self.peer_id),
            trace=pending.routing_span.context(),
        )
        if self.routing_retry is not None:
            self._arm_routing_timeout(
                pending.query_id, target, pending.routing_attempts, 1
            )

    def _arm_routing_timeout(
        self, query_id: str, target: str, round_no: int, attempt: int
    ) -> None:
        """Deadline for one RouteRequest attempt: resend with backoff
        while the budget lasts, then give up on the routing phase (the
        super-peer is unreachable — degrade or error)."""
        network = self._require_network()
        retry = self.routing_retry

        def check() -> None:
            pending = self._pending.get(query_id)
            if pending is None or not pending.awaiting_routing:
                return
            if pending.routing_attempts != round_no:
                return  # a replan already started a newer routing round
            if retry.attempts_left(attempt + 1):
                network.metrics.record_retry()
                pending.routing_span.annotate(f"retry attempt={attempt + 1}")
                self.send(
                    target,
                    RouteRequest(query_id, pending.pattern, self.peer_id),
                    trace=pending.routing_span.context(),
                )
                self._arm_routing_timeout(query_id, target, round_no, attempt + 1)
            else:
                self.suspect_peer(target)
                pending.routing_span.finish("timeout")
                self._give_up(pending, f"routing via {target} timed out")

        network.call_later(retry.timeout(attempt), check)

    def handle_RouteBusy(self, message: Message) -> None:
        """The super-peer's routing service shed our request: back off
        and re-send, up to :attr:`route_busy_budget` times per routing
        round, then give up (degrade to a partial answer or error)."""
        busy: RouteBusy = message.payload
        pending = self._pending.get(busy.query_id)
        if pending is None or not pending.awaiting_routing:
            return  # answered or superseded in the meantime
        pending.routing_busy_retries += 1
        if pending.routing_busy_retries > self.route_busy_budget:
            pending.routing_span.finish("busy")
            self._give_up(pending, f"routing via {message.src} is overloaded")
            return
        network = self._require_network()
        network.metrics.record_retry()
        pending.routing_span.annotate(
            f"route busy: backing off {busy.retry_after:g}"
        )
        round_no = pending.routing_attempts
        target = message.src

        def resend() -> None:
            current = self._pending.get(busy.query_id)
            if current is None or not current.awaiting_routing:
                return
            if current.routing_attempts != round_no:
                return  # a replan already started a newer routing round
            self.send(
                target,
                RouteRequest(busy.query_id, current.pattern, self.peer_id),
                trace=current.routing_span.context(),
            )

        network.call_later(busy.retry_after, resend)

    def handle_RouteReply(self, message: Message) -> None:
        """Phase 2: generate the plan and execute it."""
        reply: RouteReply = message.payload
        pending = self._pending.get(reply.query_id)
        if pending is None:
            return  # stale reply for an already-answered query
        if not pending.awaiting_routing:
            return  # duplicate delivery of a reply already acted on
        pending.awaiting_routing = False
        pending.routing_span.set(peers=len(reply.annotated.all_peers()))
        pending.routing_span.finish()
        self._on_annotated(pending, reply.annotated)


class HybridSystem(SystemBase):
    """Builder/harness for a hybrid deployment (options: see
    :class:`~repro.systems.base.SystemBase`).

    Example:
        >>> system = HybridSystem(schema)                  # doctest: +SKIP
        >>> system.add_super_peer("SP1")                   # doctest: +SKIP
        >>> system.add_peer("P1", graph, "SP1")            # doctest: +SKIP
        >>> table = system.query("P1", "SELECT ...")       # doctest: +SKIP
    """

    peer_class = HybridPeer

    def __init__(self, *args, **options):
        super().__init__(*args, **options)
        self.super_peers: Dict[str, SuperPeer] = {}
        self.peers: Dict[str, HybridPeer] = {}
        self._backbone_directory: Dict[str, str] = {}
        self.heartbeat_emitters: Dict[str, HeartbeatEmitter] = {}

    def _routing_servers(self):
        return self.super_peers.values()

    # ------------------------------------------------------------------
    # resilience
    # ------------------------------------------------------------------
    def enable_resilience(
        self, config: Optional[ResilienceConfig] = None
    ) -> ResilienceConfig:
        """Turn the resilience layer on deployment-wide (see the base)
        plus routing retries and a heartbeat failure detector per
        super-peer (drive it with
        :func:`~repro.resilience.harness.heartbeat_round`)."""
        config = super().enable_resilience(config)
        for super_peer in self.super_peers.values():
            self._apply_resilience_super(super_peer)
        return config

    def _apply_resilience_peer(self, peer: "HybridPeer") -> None:
        super()._apply_resilience_peer(peer)
        config = self.resilience
        peer.routing_retry = config.routing_retry
        self.heartbeat_emitters[peer.peer_id] = HeartbeatEmitter(
            peer, peer._advertisement_targets(), interval=config.heartbeat_interval
        )

    def _apply_resilience_super(self, super_peer: SuperPeer) -> None:
        config = self.resilience
        super_peer.quarantine_enabled = config.quarantine_enabled
        super_peer.watch_cluster(config.suspicion_timeout, config.heartbeat_interval)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_super_peer(
        self, peer_id: str, schemas: Optional[Iterable[Schema]] = None
    ) -> SuperPeer:
        super_peer = SuperPeer(
            peer_id,
            schemas=list(schemas) if schemas is not None else [self.schema],
            backbone_directory=self._backbone_directory,
            cache_enabled=self.cache_enabled,
        )
        super_peer.join(self.network)
        self.super_peers[peer_id] = super_peer
        if self.resilience is not None:
            self._apply_resilience_super(super_peer)
        if self.admission is not None:
            super_peer.admission = self.admission
        return super_peer

    def add_peer(
        self,
        peer_id: str,
        graph: Graph,
        home_super_peer: str,
        schema: Optional[Schema] = None,
        secondary: Sequence = (),
        views: Sequence = (),
    ) -> HybridPeer:
        """Add a simple peer.

        Args:
            secondary: Extra SON memberships as ``(graph, schema,
                super_peer_id)`` triples — the peer advertises each base
                to the corresponding super-peer.
            views: RVL views populating the base (virtual scenario) —
                lets a deployment start from a mid-life base snapshot,
                e.g. the live-data oracle twins.
        """
        if home_super_peer not in self.super_peers:
            raise PeerError(f"unknown super-peer {home_super_peer}")
        base = PeerBase(graph, schema or self.schema, views=views)
        secondary_bases = []
        homes = {}
        for extra_graph, extra_schema, super_id in secondary:
            if super_id not in self.super_peers:
                raise PeerError(f"unknown super-peer {super_id}")
            secondary_bases.append(PeerBase(extra_graph, extra_schema))
            homes[extra_schema.namespace.uri] = super_id
        peer = HybridPeer(
            peer_id,
            base,
            home_super_peer=home_super_peer,
            home_super_peers=homes,
            secondary_bases=secondary_bases,
            statistics=self.statistics,
            **self.peer_options,
        )
        self._register_peer(peer)
        return peer

    @classmethod
    def from_scenario(cls, scenario, **kwargs) -> "HybridSystem":
        """Build Figure 6's deployment from a
        :class:`~repro.workloads.paper.HybridScenario`."""
        system = cls(scenario.schema, **kwargs)
        for super_id in scenario.super_peers:
            system.add_super_peer(super_id)
        for peer_id in scenario.simple_peers:
            system.add_peer(
                peer_id, scenario.bases[peer_id], scenario.home_super_peer[peer_id]
            )
        return system
