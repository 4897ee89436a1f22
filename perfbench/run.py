"""The SQPeer benchmark: one command, three workloads, every answer checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chain-join --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half of ``--seconds``, replays exactly the same
operations with every layer boundary wrapped (and, in-sim, untraced
once more), checks that tracing changed no answer, message count, byte
count or simulated latency, and prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("chain-join", "son-churn", "live-tcp")
#: personality(2) flag that disables address space randomisation
ADDR_NO_RANDOMIZE = 0x0040000

#: name -> unit, in print order
END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "q/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "update_p50_ms": "ms",
    "bytes_per_query": "B",
    "sim_latency_p50_vt": "vt",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rdf.load_ms": "ms/setup",
    "rdf.encode_ms": "ms/setup",
    "rvl.derive_ms": "ms/setup",
    "rql.parse_ms": "ms/query",
    "core.routing.route_ms": "ms/query",
    "subsumption.checks": "count/query",
    "cache.routing_hit_rate": "ratio",
    "cache.plan_hit_rate": "ratio",
    "cache.invalidations_per_update": "count/update",
    "core.planning.plan_ms": "ms/query",
    "core.planning.subplans_per_query_p50": "count/query",
    "core.planning.subplans_per_query_max": "count/query",
    "execution.scan_ms": "ms/query",
    "execution.kernel_ms": "ms/query",
    "execution.join_rows_in_per_out": "ratio",
    "channels.ms": "ms/query",
    "channels.batches_per_query": "count/query",
    "net.msgs_per_query": "count/query",
    "net.stats_msgs_per_query": "count/query",
    "net.dict_msgs_per_query": "count/query",
    "net.loop_self_ms": "ms/query",
    "peers.handler_self_ms": "ms/query",
    "livedata.apply_ms": "ms/update",
    "livedata.delta_msgs_per_update": "count/update",
    "obs.span_ms": "ms/query",
    "obs.spans_per_query": "count/query",
    "obs.spans_retained": "count",
    "runtime.gc_ms": "ms/query",
    "runtime.gc_share": "ratio",
    "transport.codec_ms": "ms/query",
    "transport.frames_per_query": "count/query",
    "transport.wire_bytes_per_query": "B/query",
    "deploy.poll_wait_ms": "ms/query",
    "deploy.node_cpu_ms_per_query": "ms/query",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the benchmark's default seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="operation time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
#: end-to-end metrics that are times (throughput is their inverse)
TIMED = ("setup_s", "query_p50_ms", "query_p95_ms", "update_p50_ms")


def end_to_end(setup_walls, repeats, sim_ops, rss, scale=1.0):
    """The end-to-end metrics of one untraced run.  ``repeats`` holds,
    for each distinct operation of the run, its repetitions (the same
    operation in the same state); ``sim_ops`` the operations in-sim,
    for the simulated bytes and latencies.  Times are divided by
    ``scale``, the host's slowness over the run (1: as measured).

    Each operation, and the set-up, counts at its best (lowest) wall
    time over its repetitions: on a shared host, interference only ever
    adds time, and it comes and goes over seconds, so the best
    repetition comes closest to the program's own cost.  Garbage
    collection is not filtered out this way: every repetition starts
    from the same collected heap and allocates the same, so collections
    land on the same operations each time."""
    from perfbench.common import median, percentile, tail_quantile

    best = [(group[0].kind, min(op.wall for op in group)) for group in repeats]
    latencies = [wall for kind, wall in best if kind == "query"]
    updates = [wall for kind, wall in best if kind == "update"]
    sim_queries = [op for op in sim_ops if op.kind == "query"]
    tail = tail_quantile(len(latencies))
    values = {
        "setup_s": min(setup_walls),
        "throughput_qps": len(latencies) / sum(latencies),
        "query_p50_ms": percentile(latencies, 0.5) * 1e3,
        "query_p95_ms": percentile(latencies, tail) * 1e3,
        "update_p50_ms": median(updates) * 1e3,
        "bytes_per_query": (
            sum(op.bytes for op in sim_queries) / len(sim_queries) if sim_queries else 0.0
        ),
        "sim_latency_p50_vt": median([op.vt for op in sim_queries]),
        "peak_rss_mb": rss,
    }
    raw = dict(values)
    for name in TIMED:
        values[name] /= scale
    values["throughput_qps"] *= scale
    counts = sorted({len(group) for group in repeats})
    reps = f"{counts[0]}" if len(counts) == 1 else f"{counts[0]}-{counts[-1]}"
    notes = {
        "setup_s": f"best of {len(setup_walls)} setups",
        "throughput_qps": f"{len(latencies)} distinct queries, "
                          f"slowest {max(latencies, default=0) * 1e3:.0f} ms",
        "query_p50_ms": f"{len(latencies)} distinct queries, best of {reps} each",
        "query_p95_ms": f"p{tail * 100:.1f} of {len(latencies)} distinct queries",
        "update_p50_ms": f"{len(updates)} distinct revisions",
    }
    if scale != 1.0:
        for name in TIMED + ("throughput_qps",):
            notes[name] = f"(measured {raw[name]:.4g}) " + notes[name]
    return values, notes


def query_wall(ops) -> float:
    return sum(op.wall for op in ops if op.kind == "query")


def per_layer(tracer, ops, spans_retained, overhead, setups=1):
    """The per-layer metrics of one traced run: ``tracer`` saw the sim
    layers over ``ops``, in ``setups`` traced set-ups; ``overhead`` is
    traced over untraced query time, minus one."""
    from perfbench.common import median, split

    queries = split(ops, "query")
    updates = split(ops, "update")
    nq, nu = max(1, len(queries)), max(1, len(updates))
    wall = query_wall(ops)

    def per_query_ms(layer):
        return tracer.self_seconds("query", layer) * 1e3 / nq

    def mean_count(ops, name, n):
        return sum(op.counts.get(name, 0) for op in ops) / n

    def ratio(part, whole):
        return part / whole if whole else 0.0

    subplans = [op.counts.get("SubPlanPacket", 0) for op in queries] or [0]
    return {
        "rdf.load_ms": tracer.self_seconds("setup", "rdf.load") * 1e3 / setups,
        "rdf.encode_ms": tracer.self_seconds("setup", "rdf.encode") * 1e3 / setups,
        "rvl.derive_ms": tracer.self_seconds("setup", "rvl.derive") * 1e3 / setups,
        "rql.parse_ms": per_query_ms("rql.parse"),
        "core.routing.route_ms": per_query_ms("core.routing"),
        "subsumption.checks": tracer.count("query", "subsumption.checks") / nq,
        "cache.routing_hit_rate": ratio(tracer.count("query", "cache.routing.hits"),
                                        tracer.count("query", "cache.routing.lookups")),
        "cache.plan_hit_rate": ratio(tracer.count("query", "cache.plan.hits"),
                                     tracer.count("query", "cache.plan.lookups")),
        "cache.invalidations_per_update": mean_count(updates, "cache_invalidations", nu),
        "core.planning.plan_ms": per_query_ms("core.planning"),
        "core.planning.subplans_per_query_p50": median(subplans),
        "core.planning.subplans_per_query_max": max(subplans),
        "execution.scan_ms": per_query_ms("execution.scan"),
        "execution.kernel_ms": per_query_ms("execution.kernel"),
        "execution.join_rows_in_per_out": ratio(
            tracer.count("query", "execution.join_rows_in"), sum(op.rows for op in queries)),
        "channels.ms": per_query_ms("channels"),
        "channels.batches_per_query": mean_count(queries, "batches", nq),
        "net.msgs_per_query": sum(op.messages for op in queries) / nq,
        "net.stats_msgs_per_query": mean_count(queries, "StatsPacket", nq),
        "net.dict_msgs_per_query": mean_count(queries, "DictionaryPacket", nq),
        "net.loop_self_ms": per_query_ms("net.loop"),
        "peers.handler_self_ms": per_query_ms("peers.handler"),
        "livedata.apply_ms": tracer.self_seconds("update", "livedata.apply") * 1e3 / nu,
        "livedata.delta_msgs_per_update": mean_count(updates, "AdvertiseDelta", nu),
        "obs.span_ms": per_query_ms("obs.span"),
        "obs.spans_per_query": tracer.count("query", "obs.spans") / nq,
        "obs.spans_retained": spans_retained,
        "runtime.gc_ms": tracer.gc_seconds["query"] * 1e3 / nq,
        "runtime.gc_share": ratio(tracer.gc_seconds["query"], wall),
        # bypassed in-sim; run_live fills them in
        "transport.codec_ms": 0.0,
        "transport.frames_per_query": 0.0,
        "transport.wire_bytes_per_query": 0.0,
        "deploy.poll_wait_ms": 0.0,
        "deploy.node_cpu_ms_per_query": 0.0,
        "trace.coverage": tracer.coverage("query", wall),
        "trace.overhead_pct": overhead * 100.0,
    }


# ----------------------------------------------------------------------
# the workloads' runs
# ----------------------------------------------------------------------
def run_sim(name, seed, seconds, trace, workdir):
    from perfbench import sim
    from perfbench.common import PROBE_REFERENCE_S, HostProbe, peak_rss_mb
    from perfbench.layers import LayerTracer

    inputs = sim.WORKLOADS[name](seed, workdir)
    if not trace:
        probe = HostProbe()
        # half the set-ups before the timed phase, one per episode, and
        # half after, so they span the run rather than its first seconds
        setup_walls, system = sim.timed_setups(inputs, inputs.setups // 2)
        episodes, walls, system = sim.run_phase(inputs, system, seconds=seconds, probe=probe)
        system = None
        rss = peak_rss_mb()
        setup_walls += walls + sim.timed_setups(inputs, inputs.setups // 2)[0]
        ops = [op for episode in episodes for op in episode]
        # every episode runs the same operations from the same state
        values, notes = end_to_end(setup_walls, list(zip(*episodes)), ops, rss, probe.scale)
        print(f"# host probe: best {probe.best * 1e3:.3f} ms against {PROBE_REFERENCE_S * 1e3:.3f} ms;"
              f" timings divided by {probe.scale:.4f}")
        return ops, sim.check(inputs, episodes), values, notes, None

    episodes, _, _ = sim.run_phase(inputs, sim.build(inputs), seconds=seconds / 2)
    shape = [len(episode) for episode in episodes]
    tracer = LayerTracer()
    gc.collect()
    tracer.install()
    try:
        tracer.bucket = "setup"
        traced_episodes, _, system = sim.run_phase(
            inputs, sim.build(inputs), tracer, shape=shape)
    finally:
        tracer.uninstall()
    # untraced again after the traced replay: the overhead is taken
    # against both untraced runs, so a machine slowing down (or speeding
    # up) over the run is not read as tracing cost
    again, _, _ = sim.run_phase(inputs, sim.build(inputs), shape=shape)
    plain = [op for episode in episodes for op in episode]
    traced = [op for episode in traced_episodes for op in episode]
    untraced = (query_wall(plain) + query_wall([op for e in again for op in e])) / 2
    failures = sim.check(inputs, episodes) + perturbation(plain, traced, compare_sim=True)
    values = per_layer(tracer, traced, len(system.network.tracer.collector),
                       query_wall(traced) / untraced - 1.0, setups=len(shape))
    return plain, failures, values, {}, {"sim": tracer}


def run_live(seed, seconds, trace, workdir):
    from perfbench import live
    from perfbench.common import peak_rss_mb
    from perfbench.layers import LayerTracer

    inputs = live.live_tcp(seed, workdir)
    if not trace:
        setup_walls, cluster = live.timed_setups(inputs)
        try:
            runner = live.LiveRunner(cluster, inputs.stream)
            count = live.run_phase(inputs, runner, seconds=seconds)
            for spec in inputs.tail:
                runner.run(spec)
        finally:
            cluster.shutdown()
        rss = peak_rss_mb(children=True)
        twin, _ = live.twin_ops(inputs, runner.ops)
        # the query phase repeats its round of distinct queries (the
        # last round may be cut short); the revisions after it run once
        # each
        repeats = [runner.ops[i:count:inputs.round_ops] for i in range(inputs.round_ops)]
        repeats += [[op] for op in runner.ops[count:]]
        values, notes = end_to_end(setup_walls, repeats, twin[:count], rss)
        notes["bytes_per_query"] = notes["sim_latency_p50_vt"] = "from the in-sim twin"
        notes["peak_rss_mb"] = "largest node process"
        return runner.ops, live.check(runner.ops, twin), values, notes, None

    cluster, _ = live.start_cluster(inputs, "plain")
    try:
        plain = live.LiveRunner(cluster, inputs.stream)
        count = live.run_phase(inputs, plain, seconds=seconds / 2)
        for spec in inputs.tail:
            plain.run(spec)
    finally:
        cluster.shutdown()
    live_tracer = LayerTracer(live=True)
    live_tracer.install()
    try:
        cluster, _ = live.start_cluster(inputs, "traced")
        try:
            traced = live.LiveRunner(cluster, inputs.stream, live_tracer)
            before = live.node_cpu(cluster)
            live.run_phase(inputs, traced, count=count)
            after = live.node_cpu(cluster)
            for spec in inputs.tail:
                traced.run(spec)
        finally:
            cluster.shutdown()
    finally:
        live_tracer.uninstall()
    tracer = LayerTracer()
    gc.collect()
    tracer.install()
    try:
        twin, system = live.twin_ops(inputs, plain.ops, tracer)
    finally:
        tracer.uninstall()
    failures = live.check(plain.ops, twin) + perturbation(plain.ops, traced.ops, compare_sim=False)
    # in-sim layers from the twin; the overhead is the live launcher's
    values = per_layer(tracer, twin, len(system.network.tracer.collector),
                       query_wall(traced.ops) / query_wall(plain.ops) - 1.0)
    node_cpu = sum(after[pid] - before[pid] for pid in before)
    values.update({
        "transport.codec_ms": live_tracer.self_seconds("query", "transport.codec") * 1e3 / count,
        "transport.frames_per_query": live_tracer.count("query", "transport.frames") / count,
        "transport.wire_bytes_per_query":
            live_tracer.count("query", "transport.wire_bytes") / count,
        "deploy.poll_wait_ms": traced.poll_wait * 1e3 / count,
        "deploy.node_cpu_ms_per_query": node_cpu * 1e3 / count,
    })
    return plain.ops, failures, values, {}, {"twin": tracer, "launcher": live_tracer}


def perturbation(plain, traced, compare_sim):
    """Tracing must change nothing the program computes: the same
    answers and, in-sim, the same messages, bytes and virtual times."""
    if len(plain) != len(traced):
        return [f"tracing changed the operation count: {len(plain)} vs {len(traced)}"]
    failures = []
    for index, (a, b) in enumerate(zip(plain, traced)):
        left = a.fingerprint() if compare_sim else (a.ok, a.error, a.coverage, a.digest)
        right = b.fingerprint() if compare_sim else (b.ok, b.error, b.coverage, b.digest)
        if left != right:
            failures.append(f"op {index}: tracing perturbed the run: {left} vs {right}")
    return failures


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def no_randomize() -> None:
    """Ask Linux to lay out the next exec'd image without address space
    randomisation (``setarch -R``); where that is refused, runs keep it."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing decides set and dict orders inside the program,
        # and object addresses decide identity hashes and cache layout:
        # pin the one and turn off address randomisation for the other,
        # so runs differ only by their inputs.
        no_randomize()
        env = dict(os.environ, PYTHONHASHSEED="0")
        argv = sys.argv[1:] if argv is None else list(argv)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())] + argv, env)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.common import DEFAULT_SEED, environment

    seed = DEFAULT_SEED if args.seed is None else args.seed
    run_id = f"{args.workload}-seed{seed}-trace{args.trace}"
    workdir = WORKDIR / run_id
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(ROOT, seed)
    print(f"# perfbench {run_id} seconds={args.seconds:g} " +
          " ".join(f"{k}={v}" for k, v in env.items()))
    started = perf_counter()
    try:
        if args.workload == "live-tcp":
            ops, failures, values, notes, tracers = run_live(
                seed, args.seconds, args.trace, workdir)
        else:
            ops, failures, values, notes, tracers = run_sim(
                args.workload, seed, args.seconds, args.trace, workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"{name:40s} {values[name]:14.4f} {unit:12s} {note}")
    failed_frac = len(failures) / max(1, len(ops))
    print(f"{'failed_frac':40s} {failed_frac:14.4f} {'ratio':12s} "
          f"{len(failures)} of {len(ops)} operations")
    for label, tracer in (tracers or {}).items():
        print(f"# {label} layers (bucket, layer, calls, total ms, self ms)")
        for bucket, layer, calls, total, own in tracer.table():
            print(f"#   {bucket:7s} {layer:20s} {calls:9d} {total * 1e3:11.1f} {own * 1e3:11.1f}")
    if tracers:
        # calls per layer and counter, for the self-test
        print("# calls " + json.dumps({label: tracer.calls() for label, tracer in tracers.items()}))
    for line in failures[:20]:
        print(f"# FAILED {line}")
    print(f"# wall {perf_counter() - started:.1f}s")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
