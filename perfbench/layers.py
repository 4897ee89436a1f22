"""Per-layer tracing from outside the program.

The traced run wraps the public functions at each layer boundary —
module-level functions where their callers imported them by name,
methods on their class — and times each call on ``perf_counter``.  A
layer's *self* time is its call time minus the time of the wrapped
calls nested in it.  Only per-(bucket, layer) totals are kept, so the
garbage collector the run measures sees no per-call objects.

Two frames are dispatchers rather than layers: ``net.loop`` (the
simulator's event loop) and ``peers.handler`` (``Peer.receive``).
Their self time catches whatever no named layer covers, so
:meth:`LayerTracer.coverage` leaves them out.
"""

from __future__ import annotations

import gc
import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: frames whose self time is "not attributed to a named layer"
DISPATCHERS = ("net.loop", "peers.handler")

#: (module, attribute path, layer) — timed boundaries of the sim layers
TIMED = [
    ("repro.rdf.store_io", "load_graph", "rdf.load"),
    ("repro.execution.encoded", "EncodedBase.warm", "rdf.encode"),
    ("repro.rdf.dictionary", "TermDictionary.encode_many", "rdf.encode"),
    ("repro.rvl.active_schema", "ActiveSchema.from_base", "rvl.derive"),
    ("repro.rvl.active_schema", "ActiveSchema.from_view", "rvl.derive"),
    ("repro.peers.simple", "parse_query", "rql.parse"),
    ("repro.peers.simple", "extract_pattern", "rql.parse"),
    ("repro.core.routing_index", "RoutingIndex.route", "core.routing"),
    ("repro.peers.simple", "route_query", "core.routing"),
    ("repro.peers.simple", "build_plan", "core.planning"),
    ("repro.peers.simple", "optimize", "core.planning"),
    ("repro.peers.simple", "assign_sites", "core.planning"),
    ("repro.peers.base", "evaluate_scan", "execution.scan"),
    ("repro.execution.local", "evaluate_scan_encoded", "execution.scan"),
    ("repro.execution.engine", "union_all", "execution.kernel"),
    ("repro.execution.engine", "vunion_all", "execution.kernel"),
    ("repro.execution.engine", "vunion_all_distinct", "execution.kernel"),
    ("repro.execution.engine", "concat_tables", "execution.kernel"),
    ("repro.execution.operators", "apply_conditions", "execution.kernel"),
    ("repro.peers.simple", "finalize", "execution.kernel"),
    ("repro.peers.simple", "finalize_encoded", "execution.kernel"),
    ("repro.channels.manager", "concat_tables", "execution.kernel"),
    ("repro.channels.manager", "ChannelManager.open", "channels"),
    ("repro.channels.manager", "ChannelManager.on_data", "channels"),
    ("repro.channels.manager", "ChannelManager.on_dictionary", "channels"),
    ("repro.channels.manager", "ChannelManager.discard", "channels"),
    ("repro.net.simulator", "Network.run", "net.loop"),
    ("repro.peers.base", "Peer.receive", "peers.handler"),
    ("repro.livedata.maintenance", "LiveMaintainer.apply", "livedata.apply"),
    ("repro.obs.tracer", "Tracer.start_span", "obs.span"),
    ("repro.obs.span", "Span.finish", "obs.span"),
]

#: join kernels: timed as ``execution.kernel`` and counted rows in / out
JOINS = [
    ("repro.execution.engine", "join_all"),
    ("repro.execution.engine", "vjoin_all"),
    ("repro.execution.engine", "vjoin_all_distinct"),
    # peer-side joins of a composite scan's patterns
    ("repro.execution.local", "join_all"),
    ("repro.execution.local", "vjoin_all"),
]

#: (module, attribute path, counter) — counted, not timed (per-pattern
#: hot paths where a span would cost more than the call)
COUNTED = [
    ("repro.core.routing", "is_subsumed", "subsumption.checks"),
    ("repro.subsumption.checker", "is_subsumed", "subsumption.checks"),
    ("repro.subsumption.rewriter", "is_subsumed", "subsumption.checks"),
    ("repro.obs.tracer", "Tracer.start_span", "obs.spans"),
]

#: cache lookups: counted as ``<name>.lookups`` and ``<name>.hits``
CACHES = [
    ("repro.cache.routing_cache", "RoutingCache.get", "cache.routing"),
    ("repro.cache.plan_cache", "PlanCache.get", "cache.plan"),
]

#: the launcher-side wire codec of a live cluster, as bound in
#: ``repro.transport.live``; frames and their bytes are counted too
CODEC = [
    ("repro.transport.live", "encode_message"),
    ("repro.transport.live", "decode_message"),
    ("repro.transport.live", "encode_frame"),
    ("repro.transport.live", "decode_frame"),
]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class LayerTracer:
    """Wraps layer boundaries and accumulates spans, counts and GC time.

    ``bucket`` names the kind of operation running (``setup``,
    ``query``, ``update``); every span, count and GC pause is charged
    to the current bucket.
    """

    def __init__(self, live: bool = False):
        self.live = live
        self.bucket = "setup"
        #: (bucket, layer) -> [calls, total seconds, self seconds]
        self.stats: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        #: (bucket, counter) -> count
        self.counts: Counter = Counter()
        #: bucket -> seconds in garbage collection
        self.gc_seconds: Counter = Counter()
        self._stack: List[List[float]] = []  # [child seconds] per open call
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_started = 0.0

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self.live:
            for module_name, path in CODEC:
                self._patch(module_name, path, self._codec(path))
        else:
            for module_name, path, layer in TIMED:
                self._patch(module_name, path, lambda fn, layer=layer: self._timed(layer, fn))
            for module_name, path in JOINS:
                self._patch(module_name, path, self._join)
            for module_name, path, name in COUNTED:
                self._patch(module_name, path, lambda fn, name=name: self._counted(name, fn))
            for module_name, path, name in CACHES:
                self._patch(module_name, path, lambda fn, name=name: self._cache(name, fn))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, module_name: str, path: str, make: Callable) -> None:
        owner, name = _resolve(module_name, path)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_seconds[self.bucket] += perf_counter() - self._gc_started

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _timed(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                record = tracer.stats[(tracer.bucket, layer)]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]

        wrapper.__wrapped__ = fn
        return wrapper

    def _join(self, fn: Callable) -> Callable:
        timed = self._timed("execution.kernel", fn)

        def wrapper(tables, *args, **kwargs):
            result = timed(tables, *args, **kwargs)
            self.counts[(self.bucket, "execution.join_rows_in")] += sum(
                len(t) for t in tables
            )
            self.counts[(self.bucket, "execution.join_rows_out")] += len(result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.bucket, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _cache(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[(self.bucket, name + ".lookups")] += 1
            if result is not None:
                self.counts[(self.bucket, name + ".hits")] += 1
            return result

        return wrapper

    def _codec(self, path: str) -> Callable:
        def make(fn: Callable) -> Callable:
            timed = self._timed("transport.codec", fn)
            if path == "encode_frame":
                def wrapper(*args, **kwargs):
                    data = timed(*args, **kwargs)
                    self.counts[(self.bucket, "transport.frames")] += 1
                    self.counts[(self.bucket, "transport.wire_bytes")] += len(data)
                    return data
                return wrapper
            if path == "decode_frame":
                def wrapper(data, *args, **kwargs):
                    self.counts[(self.bucket, "transport.frames")] += 1
                    self.counts[(self.bucket, "transport.wire_bytes")] += len(data)
                    return timed(data, *args, **kwargs)
                return wrapper
            return timed
        return make

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def self_seconds(self, bucket: str, layer: str) -> float:
        return self.stats[(bucket, layer)][2] if (bucket, layer) in self.stats else 0.0

    def count(self, bucket: str, name: str) -> int:
        return self.counts.get((bucket, name), 0)

    def coverage(self, bucket: str, wall: float) -> float:
        """Share of ``wall`` (the bucket's operation time) spent in the
        self time of a named layer."""
        attributed = sum(
            record[2]
            for (b, layer), record in self.stats.items()
            if b == bucket and layer not in DISPATCHERS
        )
        return attributed / wall if wall > 0 else 0.0

    def table(self) -> List[Tuple[str, str, int, float, float]]:
        """(bucket, layer, calls, total s, self s), largest self first."""
        rows = [(b, layer, int(r[0]), r[1], r[2]) for (b, layer), r in self.stats.items()]
        return sorted(rows, key=lambda row: -row[4])

    def calls(self) -> Dict[str, int]:
        """Calls per layer and events per counter, over all buckets: the
        self-test's evidence that each wrapper is bound where the
        program calls it."""
        totals: Counter = Counter()
        for (_, layer), record in self.stats.items():
            totals[layer] += int(record[0])
        for (_, name), count in self.counts.items():
            totals[name] += count
        return dict(sorted(totals.items()))
