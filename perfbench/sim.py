"""The in-sim workloads: ``chain-join`` and ``son-churn``.

Both run the default configuration a user gets from
:class:`~repro.systems.HybridSystem` (vectorized, not encoded,
rule-based planning, observability on) and drive it through its public
entry points: N-Triples files read with ``load_graph``,
``add_super_peer`` / ``add_peer``, ``run()``, a :class:`ClientPeer`
submitting one query at a time (closed loop, one client), and a
:class:`~repro.livedata.LiveDataDriver` injecting update revisions.

Answers are checked after the timed phase by replaying the recorded
operations untimed: against the centralized RQL evaluator over the
merged bases at each revision (``chain-join``, whose updates redefine
no view), and against a from-scratch twin deployment of the bases at
each revision (``son-churn``: view redefinitions make the merged-base
oracle wrong).
"""

from __future__ import annotations

import gc
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.livedata import LiveDataDriver, UpdateStream
from repro.rdf import store_io
from repro.rdf.graph import Graph
from repro.rql.evaluator import query as centralized_query
from repro.systems import HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.query_gen import chain_query
from repro.workloads.schema_gen import SyntheticSchema, generate_schema

from .common import HELD_OUT_SEED, Op, digest

NO_PEERS = "no relevant peers"


@dataclass
class SimInputs:
    """Everything one sim workload generates from its seed."""

    seed: int
    synthetic: SyntheticSchema
    super_ids: List[str]
    homes: Dict[str, str]  # peer id -> home super-peer, in add order
    files: Dict[str, Path]
    stream: UpdateStream
    #: op index -> ("query", via, text) | ("update", revision index)
    main: Callable[[int], Tuple]
    #: with updates drifting the deployment, the timed phase repeats
    #: episodes of this many operations, each on a fresh deployment, so a
    #: faster program runs more of the same episode instead of reaching
    #: later (different) states
    episode_ops: int
    setups: int
    #: check answers against the centralized evaluator over the merged
    #: bases (valid without view redefinitions); else against a twin
    oracle: bool


def _updates(synthetic: SyntheticSchema, bases: Dict[str, Graph], seed: int,
             revisions: int, **options) -> UpdateStream:
    """The update stream (rate 5 %).  Its end-state shadows, a full
    copy of the data kept for oracle construction, are dropped: every
    object the benchmark holds is scanned by the garbage collector the
    measured program runs."""
    stream = UpdateStream(synthetic.schema, bases, seed=seed,
                          revisions=revisions, rate=0.05, **options)
    stream.final_shadows = None
    return stream


def _write_bases(bases: Dict[str, Graph], workdir: Path) -> Dict[str, Path]:
    files = {}
    for peer_id, graph in bases.items():
        path = workdir / f"{peer_id}.nt"
        store_io.save_graph(graph, str(path))
        files[peer_id] = path
    return files


#: chain-join's rounds per episode (one update revision per round)
CHAIN_ROUNDS = 8
#: chain-join's query order is drawn from this seed on every run.  A
#: garbage collection lands on the operation where the allocations
#: before it put it, so an order drawn from ``--seed`` would move the
#: collections from query to query between seeds and, with them, the
#: percentiles (measured: ``query_p50_ms`` 22 ms on some seeds, 30 ms on
#: others)
ORDER_SEED = 1


def chain_join(seed: int, workdir: Path) -> SimInputs:
    """4 peers on 1 super-peer, every peer holding every segment of a
    3-property chain (horizontal), ~330-row answers, all drawn from
    ``seed``.  A round sends the 12 (coordinator, query) pairs in a
    shuffled order, the same on every seed; then it injects one update
    revision."""
    synthetic = generate_schema(
        chain_length=3, refinement_fraction=0.0, noise_properties=0, seed=seed
    )
    peers = [f"P{i}" for i in range(1, 5)]
    bases = generate_bases(
        synthetic, peers, Distribution.HORIZONTAL,
        statements_per_segment=100, shared_pool=40, seed=seed,
    ).bases
    texts = [chain_query(synthetic, 0, 3), chain_query(synthetic, 0, 2),
             chain_query(synthetic, 1, 2)]
    # balanced triple churn: every revision is the same kind and size,
    # no advertisement changes (the caches keep hitting), and the
    # merged-base evaluator stays a valid oracle
    stream = _updates(synthetic, bases, seed, CHAIN_ROUNDS,
                      view_probability=0.0, delete_fraction=0.5)
    pairs = [(via, text) for via in peers for text in texts]
    rng = random.Random(ORDER_SEED)
    plan: List[Tuple] = []
    for revision in range(CHAIN_ROUNDS):
        plan.extend(("query", via, text) for via, text in rng.sample(pairs, len(pairs)))
        plan.append(("update", revision))
    return SimInputs(seed, synthetic, ["SP"], {p: "SP" for p in peers},
                     _write_bases(bases, workdir), stream, plan.__getitem__,
                     episode_ops=len(plan),
                     setups=20, oracle=True)


#: son-churn's deployment (schema, coverage, bases), its update stream,
#: the random coordinator of each (round, query shape) and the query
#: order are drawn from this seed on every run but the held-out seed's,
#: which has a deployment of its own (see README.md for why)
DEPLOYMENT_SEED = 1
#: son-churn's rounds of queries per episode
EPISODE_ROUNDS = 3
#: son-churn injects an update revision after every this many queries
UPDATE_EVERY = 20


def son_churn(seed: int, workdir: Path) -> SimInputs:
    """48 peers on 3 super-peers over a refined 8-property chain with
    noise, 6 statements per segment.  A round queries every chain
    segment of length 1-4 once, each from a random coordinator, and
    every other one of them a second time, in a shuffled order; an
    update revision follows every :data:`UPDATE_EVERY` queries."""
    deployment = HELD_OUT_SEED if seed == HELD_OUT_SEED else DEPLOYMENT_SEED
    synthetic = generate_schema(
        chain_length=8, refinement_fraction=0.5, noise_properties=4,
        seed=deployment,
    )
    peers = [f"P{i}" for i in range(1, 49)]
    supers = ["SP1", "SP2", "SP3"]
    homes = {p: supers[i % len(supers)] for i, p in enumerate(peers)}
    bases = generate_bases(
        synthetic, peers, Distribution.MIXED,
        statements_per_segment=6, shared_pool=10, seed=deployment,
    ).bases
    chain = len(synthetic.chain_properties)
    shapes = [chain_query(synthetic, start, length)
              for length in range(1, 5) for start in range(chain - length + 1)]
    fixed, order = random.Random(deployment), random.Random(deployment)
    queries: List[Tuple] = []
    for _ in range(EPISODE_ROUNDS):
        pairs = [(fixed.choice(peers), text) for text in shapes]
        pairs += pairs[::2]  # repeats, which the caches can answer
        queries.extend(("query", via, text) for via, text in order.sample(pairs, len(pairs)))
    revisions = -(-len(queries) // UPDATE_EVERY)
    stream = _updates(synthetic, bases, deployment, revisions)
    plan: List[Tuple] = []
    for revision in range(revisions):
        plan.extend(queries[revision * UPDATE_EVERY:(revision + 1) * UPDATE_EVERY])
        plan.append(("update", revision))
    return SimInputs(deployment, synthetic, supers, homes,
                     _write_bases(bases, workdir), stream, plan.__getitem__,
                     episode_ops=len(plan),
                     setups=20, oracle=False)


WORKLOADS = {"chain-join": chain_join, "son-churn": son_churn}


# ----------------------------------------------------------------------
# setup and the timed operation loop
# ----------------------------------------------------------------------
def build(inputs: SimInputs, bases: Optional[Dict[str, Tuple[Graph, tuple]]] = None):
    """Deploy the workload: read each peer base from its N-Triples file
    (or take ``bases``, a twin snapshot), add the super-peers and peers,
    settle the advertisements."""
    system = HybridSystem(inputs.synthetic.schema, seed=inputs.seed)
    for super_id in inputs.super_ids:
        system.add_super_peer(super_id)
    for peer_id, home in inputs.homes.items():
        if bases is None:
            system.add_peer(peer_id, store_io.load_graph(str(inputs.files[peer_id])), home)
        else:
            graph, views = bases[peer_id]
            system.add_peer(peer_id, graph, home, views=views)
    system.run()
    return system


def timed_setups(inputs: SimInputs, count: int) -> Tuple[List[float], HybridSystem]:
    """Set up ``count`` times; returns the wall times and the last
    deployment."""
    walls, system = [], None
    for _ in range(count):
        system = None
        gc.collect()
        started = perf_counter()
        system = build(inputs)
        walls.append(perf_counter() - started)
    return walls, system


class Runner:
    """Runs operations against one deployment and records them."""

    def __init__(self, system: HybridSystem, stream: UpdateStream, tracer=None):
        self.system = system
        self.tracer = tracer
        self.client = system.add_client()
        self.driver = LiveDataDriver(system, stream)
        self.revision = 0
        self.ops: List[Op] = []

    def run(self, spec: Tuple) -> Op:
        if self.tracer is not None:
            self.tracer.bucket = spec[0]
        metrics = self.system.network.metrics
        messages, nbytes = metrics.messages_total, metrics.bytes_total
        kinds = Counter(metrics.messages_by_kind)
        invalidations = metrics.cache_invalidations
        batches = metrics.batches_sent
        if spec[0] == "update":
            op = self._update(spec[1])
            op.counts["cache_invalidations"] = metrics.cache_invalidations - invalidations
        else:
            op = self._query(spec[0], spec[1], spec[2])
        op.messages = metrics.messages_total - messages
        op.bytes = metrics.bytes_total - nbytes
        op.counts["batches"] = metrics.batches_sent - batches
        for kind, count in metrics.messages_by_kind.items():
            if count != kinds.get(kind, 0):
                op.counts[kind] = count - kinds.get(kind, 0)
        self.ops.append(op)
        return op

    def _query(self, kind: str, via: str, text: str) -> Op:
        started = perf_counter()
        query_id = self.client.submit(via, text)
        self.system.run()
        result = self.client.result(query_id)
        wall = perf_counter() - started
        op = Op(kind, self.revision, via, text, wall, ok=result is not None)
        if result is not None:
            op.error = result.error
            op.coverage = None if result.coverage is None else repr(result.coverage)
            op.digest = digest(result.table)
            op.rows = 0 if result.table is None else len(result.table)
        op.vt = self.system.network.metrics.query_latency.get(query_id, 0.0)
        return op

    def _update(self, index: int) -> Op:
        started = perf_counter()
        self.driver.inject(index)
        self.system.run()
        wall = perf_counter() - started
        self.revision = index + 1
        return Op("update", self.revision, wall=wall, ok=self.driver.acked(index + 1))


def run_phase(inputs: SimInputs, system: HybridSystem, tracer=None,
              seconds: Optional[float] = None, shape: Optional[List[int]] = None,
              probe=None):
    """The timed phase: episodes of ``inputs.episode_ops`` operations,
    each on a fresh deployment, until ``seconds`` of operation time have
    passed — or exactly the operations per episode listed in ``shape``
    (a replay).  ``probe``, a :class:`~perfbench.common.HostProbe`, is
    ticked between operations.  Returns the operations of each episode,
    the set-up times of the episodes after the first, and the last
    deployment.
    """
    episodes: List[List[Op]] = []
    walls: List[float] = []
    measured = 0.0
    while True:
        runner = Runner(system, inputs.stream, tracer)
        gc.collect()
        for i in range(shape[len(episodes)] if shape else inputs.episode_ops):
            measured += runner.run(inputs.main(i)).wall
            if probe is not None:
                probe.tick(measured)
        episodes.append(runner.ops)
        if (len(episodes) == len(shape)) if shape else measured >= seconds:
            return episodes, walls, system
        system = runner = None
        gc.collect()
        if tracer is not None:
            tracer.bucket = "setup"
        started = perf_counter()
        system = build(inputs)
        walls.append(perf_counter() - started)


# ----------------------------------------------------------------------
# the answer check
# ----------------------------------------------------------------------
def _snapshot(system: HybridSystem) -> Dict[str, Tuple[Graph, tuple]]:
    return {
        peer_id: (peer.base.graph.copy(), peer.base.views)
        for peer_id, peer in system.peers.items()
    }


def _merged(system: HybridSystem) -> Graph:
    merged = Graph()
    for peer in system.peers.values():
        for triple in peer.base.graph.triples():
            merged.add_triple(triple)
    return merged


class _Expected:
    """The expected answers of one episode's states: the replayed
    deployment advances through the update revisions; the centralized
    evaluator or a from-scratch twin of the replay answers."""

    def __init__(self, inputs: SimInputs):
        self.inputs = inputs
        self.replay = build(inputs)
        self.driver = LiveDataDriver(self.replay, inputs.stream)
        self.twin = self.merged = None

    def advance(self, revision: int) -> None:
        self.driver.inject(revision - 1)
        self.replay.run()
        self.twin = self.merged = None

    def answer(self, op: Op) -> Tuple[bool, Optional[str]]:
        """("no relevant peers" acceptable, digest of the answer)."""
        inputs = self.inputs
        if inputs.oracle:
            self.merged = self.merged or _merged(self.replay)
            table = centralized_query(op.text, self.merged, inputs.synthetic.schema)
            table = table.distinct()
            return len(table) == 0, digest(table)
        self.twin = self.twin or build(inputs, _snapshot(self.replay))
        client = self.twin.add_client()
        query_id = client.submit(op.via, op.text)
        self.twin.run()
        result = client.result(query_id)
        if result is None or (result.error and NO_PEERS not in result.error):
            raise RuntimeError(f"the twin failed on {op.text!r}: {result and result.error}")
        return (True, None) if result.error else (False, digest(result.table))


def check(inputs: SimInputs, episodes: List[List[Op]]) -> List[str]:
    """Replay each episode untimed and return one line per failed
    operation: an error, a wrong answer, a partial answer, a missing
    answer or an unacknowledged update.  Episodes repeat the same
    operations, so expected answers are shared between them."""
    expected: Dict[Tuple[int, str, str], Tuple[bool, Optional[str]]] = {}
    failures: List[str] = []
    index = -1
    for ops in episodes:
        oracle = None
        for op in ops:
            index += 1
            key = (op.revision, "" if inputs.oracle else op.via, op.text)
            if op.kind == "update":
                if not op.ok:
                    failures.append(f"op {index}: revision {op.revision} not acknowledged")
                if oracle is not None:
                    oracle.advance(op.revision)
                continue
            if key not in expected:
                if oracle is None:
                    oracle = _Expected(inputs)
                    for revision in range(1, op.revision + 1):
                        oracle.advance(revision)
                try:
                    expected[key] = oracle.answer(op)
                except RuntimeError as exc:
                    failures.append(f"op {index}: {exc}")
                    continue
            failure = _compare(op, *expected[key])
            if failure:
                failures.append(f"op {index}: {failure}")
    return failures


def _compare(op: Op, no_peers_ok: bool, want: Optional[str]) -> Optional[str]:
    if not op.ok:
        return f"no answer for {op.text!r} via {op.via}"
    if op.error is not None:
        if NO_PEERS not in op.error or not no_peers_ok:
            return f"error {op.error!r} for {op.text!r}"
        return None
    if op.coverage is not None:
        return f"partial answer {op.coverage} for {op.text!r}"
    if op.digest != want:
        return f"wrong answer ({op.rows} rows) for {op.text!r} via {op.via}"
    return None
