"""What both deployable architectures share (paper Section 3).

:class:`SystemBase` owns the simulated network, the deployment-wide
peer options, the clients, query submission and the settings that
later-added peers inherit: admission control, fair scheduling and
resilience.  Each architecture adds only its topology — super-peers
and their backbone (:class:`~repro.systems.hybrid.HybridSystem`) or
physical neighbourhoods and the schema DHT
(:class:`~repro.systems.adhoc.AdhocSystem`).
"""

from __future__ import annotations

import itertools
from inspect import signature
from typing import Dict, Iterable, Optional

from ..core.adaptivity import ReplanBudget
from ..core.cost import Statistics
from ..errors import PeerError
from ..net.simulator import Network
from ..peers.client import ClientPeer
from ..peers.simple import SimplePeer
from ..rdf.schema import Schema
from ..resilience import ResilienceConfig
from ..workload_engine import AdmissionControl, FairScheduler, WorkloadReport, WorkloadSpec
from ..workload_engine import serve as _serve_workload


class SystemBase:
    """Builder/harness core of a deployment.

    ``**peer_options`` must be constructor keywords of
    :class:`~repro.peers.simple.SimplePeer` or of the facade's
    :attr:`peer_class`; anything else fails here, not at the first
    :meth:`add_peer`.

    Args:
        schema: The community schema peers commit to by default.
        seed: Seed of the simulated network.
        default_latency: Virtual-time delay of a link.
        statistics: Statistics store the deployment's peers share;
            None gives each peer its own.
        cache_enabled: Routing/plan caches and request coalescing
            (``--no-cache`` turns them off deployment-wide).
        observability: Tracing and metrics on the network.
        batch_size: Bindings per shipped DataPacket (``--batch-size``).
        encode: Dictionary-encoded execution (``--encode``).
        transport: Optional real transport under the network.
        **peer_options: Forwarded to every peer's constructor.

    Raises:
        ValueError: When ``batch_size`` is below 1.
        TypeError: On an option no peer constructor accepts.
    """

    #: the peer role :meth:`add_peer` builds
    peer_class = SimplePeer

    def __init__(
        self,
        schema: Schema,
        seed: int = 0,
        default_latency: float = 1.0,
        statistics: Optional[Statistics] = None,
        cache_enabled: bool = True,
        observability: bool = True,
        batch_size: int = 256,
        encode: bool = False,
        transport=None,
        **peer_options,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        accepted = {
            *signature(SimplePeer).parameters,
            *signature(self.peer_class).parameters,
        }
        for name in peer_options:
            if name not in accepted:
                raise TypeError(
                    f"{type(self).__name__}() got an unexpected keyword argument {name!r}"
                )
        self.schema = schema
        self.network = Network(
            seed=seed,
            default_latency=default_latency,
            observability=observability,
            transport=transport,
        )
        self.statistics = statistics
        self.cache_enabled = cache_enabled
        # deployment-wide caching, shipping and storage modes
        self.peer_options = dict(
            peer_options,
            cache_enabled=cache_enabled,
            batch_size=batch_size,
            encode=encode,
        )
        self.peers: Dict[str, SimplePeer] = {}
        self.clients: Dict[str, ClientPeer] = {}
        self._client_counter = itertools.count(1)
        #: set by :meth:`enable_resilience`; later-added peers inherit it
        self.resilience: Optional[ResilienceConfig] = None
        #: set by :meth:`enable_admission` / :meth:`enable_fair_scheduling`;
        #: later-added peers inherit both
        self.admission: Optional[AdmissionControl] = None
        self.fair_quantum: Optional[float] = None

    def _routing_servers(self) -> Iterable:
        """Nodes serving routing to the peers (none by default)."""
        return ()

    # ------------------------------------------------------------------
    # concurrency (repro.workload_engine)
    # ------------------------------------------------------------------
    def enable_admission(
        self, control: Optional[AdmissionControl] = None
    ) -> AdmissionControl:
        """Bound what the deployment accepts: coordinators park overflow
        queries and shed beyond their queue with a retry-after hint,
        routing servers (when the architecture has any) pace their
        service, and per-query deadlines (when set) cancel stragglers."""
        control = control or AdmissionControl.default()
        self.admission = control
        for node in [*self.peers.values(), *self._routing_servers()]:
            node.admission = control
        return control

    def enable_fair_scheduling(self, quantum: float = 0.25) -> None:
        """Give every peer a fair per-query scheduler: local work units
        (subplan starts, scans, channel completions) interleave
        round-robin across in-flight queries, one per ``quantum`` of
        virtual time (a slice of peer CPU)."""
        self.fair_quantum = quantum
        for peer in self.peers.values():
            if peer.scheduler is None:
                peer.install_scheduler(FairScheduler(self.network, quantum))

    def serve(self, spec: WorkloadSpec, max_events: int = 2_000_000) -> WorkloadReport:
        """Drive a workload against this deployment: many queries in
        flight concurrently on the virtual clock, injected mid-run by
        the driver.  Returns the workload report (outcomes, throughput,
        latency percentiles)."""
        return _serve_workload(self, spec, max_events=max_events)

    # ------------------------------------------------------------------
    # resilience
    # ------------------------------------------------------------------
    def enable_resilience(
        self, config: Optional[ResilienceConfig] = None
    ) -> ResilienceConfig:
        """Turn the resilience layer on deployment-wide: channel
        retries, client resubmits, quarantine-filtered routing, partial
        results and replan budgets."""
        config = config or ResilienceConfig.default()
        self.resilience = config
        for peer in self.peers.values():
            self._apply_resilience_peer(peer)
        for client in self.clients.values():
            client.submit_retry = config.client_retry
        return config

    def _apply_resilience_peer(self, peer: SimplePeer) -> None:
        config = self.resilience
        peer.channel_retry = config.channel_retry
        peer.quarantine_enabled = config.quarantine_enabled
        peer.partial_results = config.partial_results
        peer.replan_budget = ReplanBudget(
            config.max_replans, config.replan_delay, config.replan_backoff
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _register_peer(self, peer: SimplePeer) -> None:
        """Join ``peer`` to the network with every deployment-wide
        setting enabled so far."""
        peer.join(self.network)
        self.peers[peer.peer_id] = peer
        if self.resilience is not None:
            self._apply_resilience_peer(peer)
        if self.admission is not None:
            peer.admission = self.admission
        if self.fair_quantum is not None:
            peer.install_scheduler(FairScheduler(self.network, self.fair_quantum))

    def add_client(self, peer_id: Optional[str] = None) -> ClientPeer:
        peer_id = peer_id or f"client{next(self._client_counter)}"
        client = ClientPeer(peer_id)
        client.join(self.network)
        self.clients[peer_id] = client
        if self.resilience is not None:
            client.submit_retry = self.resilience.client_retry
        return client

    def _client_for(self, client: Optional[ClientPeer]) -> ClientPeer:
        """``client``, else the first registered client, else a new one."""
        return client or (
            next(iter(self.clients.values())) if self.clients else self.add_client()
        )

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def run(self, max_events: int = 1_000_000) -> int:
        return self.network.run(max_events=max_events)

    def submit(self, via_peer: str, text: str, client: Optional[ClientPeer] = None,
               max_peers=None, limit=None, order_by=None, descending=False) -> str:
        """Submit a query through a peer; returns the query id.

        Call :meth:`run` afterwards to drive the event loop.  Accepts
        the same ``client`` and result-shaping keywords as
        :meth:`query`.
        """
        return self._client_for(client).submit(
            via_peer, text, max_peers=max_peers, limit=limit,
            order_by=order_by, descending=descending,
        )

    def query(self, via_peer: str, text: str, max_peers=None, limit=None,
              order_by=None, descending=False,
              client: Optional[ClientPeer] = None):
        """Submit, run to quiescence, and return the result table.

        Args:
            via_peer: The coordinating peer.
            text: RQL source text.
            max_peers: Per-pattern broadcast bound (Section 5).
            limit: Top-N bound on the answer.
            client: Submit through this client instead of the first
                registered one (same keyword :meth:`submit` honours).

        Raises:
            PeerError: When the query failed (carries the reason).
        """
        client = self._client_for(client)
        query_id = self.submit(
            via_peer, text, client, max_peers=max_peers, limit=limit,
            order_by=order_by, descending=descending,
        )
        self.run()
        result = client.result(query_id)
        if result is None:
            raise PeerError(f"query {query_id} produced no reply")
        if result.error is not None:
            raise PeerError(f"query {query_id} failed: {result.error}")
        return result.table
