"""The ``live-tcp`` workload: real OS processes over localhost TCP.

A :class:`~repro.deploy.LiveCluster` of one super-peer and three peers
(one process each) serves the cluster's own ``build_workload`` queries,
one at a time through ``LiveCluster.query``, rotating over the
coordinators; then update revisions go in through a
:class:`~repro.livedata.LiveDataDriver`, each followed by a probe
query.  The in-sim twin (``build_sim_system``) replays the same
operations untimed: its answers are the check, and its simulated bytes
and virtual-time latencies are the workload's ``bytes_per_query`` and
``sim_latency_p50_vt``.
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.deploy import ClusterSpec, LiveCluster, build_sim_system, build_workload
from repro.deploy.launcher import QUERY_TIMEOUT
from repro.deploy.workload import ClusterWorkload
from repro.errors import NetworkError
from repro.livedata import LiveDataDriver, UpdateStream

from .common import Op, digest
from .sim import NO_PEERS

#: distinct query texts the cluster workload generates
QUERY_TEXTS = 24


@dataclass
class LiveInputs:
    """Everything the live workload generates from its seed."""

    seed: int
    spec: ClusterSpec
    workload: ClusterWorkload
    stream: UpdateStream
    main: Callable[[int], Tuple]
    tail: List[Tuple]
    round_ops: int
    setups: int
    workdir: Path


def live_tcp(seed: int, workdir: Path) -> LiveInputs:
    # build_workload picks the layout from the cluster seed modulo 3;
    # 3 * seed + 1 keeps every run on the horizontal layout, so seeds
    # vary the schema, data and queries but not the kind of plan
    spec = ClusterSpec(seed=3 * seed + 1, peers=3, super_peers=1, queries=QUERY_TEXTS)
    workload = build_workload(spec)
    peers = spec.peer_ids()
    texts = workload.queries
    revisions = 5
    stream = UpdateStream(
        workload.synthetic.schema, {p: workload.bases[p] for p in peers},
        seed=seed, revisions=revisions, rate=0.05,
    )

    def main(i: int):
        # a round sends every text from every coordinator
        return ("query", peers[i % len(peers)], texts[(i // len(peers)) % len(texts)])

    tail = []
    for r in range(revisions):
        tail.append(("update", r))
        tail.append(("probe", peers[r % len(peers)], texts[r % len(texts)]))
    return LiveInputs(seed, spec, workload, stream, main, tail,
                      round_ops=len(peers) * len(texts), setups=3,
                      workdir=workdir)


def _cpu_seconds(pid: int) -> float:
    """User plus system CPU of one process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class LiveRunner:
    """Runs operations against one live cluster and records them.

    With ``tracer`` set, each query goes through ``submit`` /
    ``await_result`` (what ``query`` does) with a result listener that
    stamps the answer's arrival, so the wait between arrival and the
    facade's return — the completion poll — is measured.
    """

    def __init__(self, cluster: LiveCluster, stream: UpdateStream, tracer=None):
        self.cluster = cluster
        self.tracer = tracer
        self.driver = LiveDataDriver(cluster, stream)
        self.revision = 0
        self.ops: List[Op] = []
        self.poll_wait = 0.0

    def run(self, spec: Tuple) -> Op:
        if self.tracer is not None:
            self.tracer.bucket = spec[0]
        op = self._update(spec[1]) if spec[0] == "update" else self._query(*spec)
        self.ops.append(op)
        return op

    def _query(self, kind: str, via: str, text: str) -> Op:
        arrived: List[float] = []
        started = perf_counter()
        try:
            if self.tracer is None:
                result = self.cluster.query(via, text)
            else:
                client, query_id = self.cluster.submit(via, text)
                client.result_listeners.append(lambda c, r: arrived.append(perf_counter()))
                result = self.cluster.await_result(client, query_id)
        except NetworkError:
            result = None
        wall = perf_counter() - started
        if arrived and kind == "query":
            self.poll_wait += started + wall - arrived[0]
        op = Op(kind, self.revision, via, text, wall, ok=result is not None)
        if result is not None:
            op.error = result.error
            op.coverage = None if result.coverage is None else repr(result.coverage)
            op.digest = digest(result.table)
            op.rows = 0 if result.table is None else len(result.table)
        return op

    def _update(self, index: int) -> Op:
        started = perf_counter()
        self.driver.inject(index)
        acked = self.cluster.transport.run_until(
            lambda: self.driver.acked(index + 1), QUERY_TIMEOUT
        )
        wall = perf_counter() - started
        self.revision = index + 1
        return Op("update", self.revision, wall=wall, ok=acked)


def run_phase(inputs: LiveInputs, runner: LiveRunner, seconds: Optional[float] = None,
              count: Optional[int] = None) -> int:
    """Operations of ``inputs.main`` until ``seconds`` of operation time
    and at least one whole round, or exactly ``count`` operations.
    Returns the number of operations."""
    gc.collect()
    measured, done = 0.0, 0
    while done != count:
        if count is None and measured >= seconds and done >= inputs.round_ops:
            break
        measured += runner.run(inputs.main(done)).wall
        done += 1
    return done


def start_cluster(inputs: LiveInputs, label: str) -> Tuple[LiveCluster, float]:
    """Start one cluster; returns it with its ``start()`` wall time.
    The caller shuts it down."""
    cluster = LiveCluster(inputs.spec, inputs.workdir / label)
    started = perf_counter()
    try:
        cluster.start()
    except BaseException:
        cluster.shutdown()
        raise
    return cluster, perf_counter() - started


def node_cpu(cluster: LiveCluster) -> Dict[int, float]:
    return {p.pid: _cpu_seconds(p.pid) for p in cluster.processes.values()}


def twin_ops(inputs: LiveInputs, ops: List[Op], tracer=None):
    """Replay ``ops`` on the in-sim twin; returns the twin's op records
    (answers, bytes, virtual-time latencies)."""
    from .sim import Runner

    system = build_sim_system(inputs.spec, inputs.workload)
    runner = Runner(system, inputs.stream, tracer)
    for op in ops:
        spec = ("update", op.revision - 1) if op.kind == "update" else (op.kind, op.via, op.text)
        runner.run(spec)
    return runner.ops, system


def check(live_ops: List[Op], twin: List[Op]) -> List[str]:
    """Every live answer must equal the twin's: error, coverage, rows."""
    failures = []
    for index, (op, expected) in enumerate(zip(live_ops, twin)):
        if not op.ok:
            what = "not acknowledged" if op.kind == "update" else "timed out"
            failures.append(f"op {index}: {op.kind} {what}")
            continue
        if op.kind == "update":
            continue
        if op.error is not None and NO_PEERS not in op.error:
            failures.append(f"op {index}: error {op.error!r} for {op.text!r}")
        elif op.coverage is not None:
            failures.append(f"op {index}: partial answer {op.coverage} for {op.text!r}")
        elif (op.error, op.digest) != (expected.error, expected.digest):
            failures.append(
                f"op {index}: live answer ({op.rows} rows, error {op.error!r}) differs "
                f"from the sim twin ({expected.rows} rows, error {expected.error!r}) "
                f"for {op.text!r} via {op.via}"
            )
    return failures


def timed_setups(inputs: LiveInputs) -> Tuple[List[float], Optional[LiveCluster]]:
    """Start ``inputs.setups`` clusters one after another, shutting
    each down but the last; returns the start times and the last
    cluster."""
    walls, cluster = [], None
    for k in range(inputs.setups):
        gc.collect()
        cluster, wall = start_cluster(inputs, f"setup{k}")
        walls.append(wall)
        if k + 1 < inputs.setups:
            cluster.shutdown()
    return walls, cluster
