"""Experiment batch — batched execution (Section 2.5).

The seed shipped one ``DataPacket`` per binding.  The engine evaluates
operators over column-oriented :class:`~repro.execution.batch.BindingBatch`
chunks and ships :attr:`batch_size` bindings per packet, so a channel's
cost is paid per *batch*, not per *binding*.  This experiment sweeps
the batch size over a union-heavy synthetic workload (~500 answer
rows), from ``batch_size=1`` — the per-binding wire format — up, plus
the dictionary-encoded engine, and measures answer equality, wall-clock
time, simulator messages and shipped data packets.

Invariants asserted by the pytest entry points:

* identical answers at every batch size, dictionary-encoded or not;
* ``batch_size=256`` ships ≥ 10x fewer simulator messages and data
  packets than ``batch_size=1``.

``python -m benchmarks.bench_batch_size --quick`` runs a scaled-down
sweep for the CI bench-smoke job (same table, smaller bases).
"""

from __future__ import annotations

import sys
import time

from repro.systems import HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.query_gen import chain_query
from repro.workloads.schema_gen import generate_schema

from ._common import banner, format_table, write_report

SEED = 13
PEERS = [f"P{i}" for i in range(1, 5)]
SYNTH = generate_schema(
    chain_length=3, refinement_fraction=0.0, noise_properties=0, seed=SEED
)
QUERY = chain_query(SYNTH, 0, 3)

#: full-size vs --quick workload knobs (statements per chain segment)
FULL_STATEMENTS = 150
QUICK_STATEMENTS = 40


def _bases(statements: int):
    return generate_bases(
        SYNTH,
        PEERS,
        Distribution.HORIZONTAL,
        statements_per_segment=statements,
        shared_pool=40,
        seed=SEED,
    ).bases


def run_once(
    batch_size: int,
    statements: int = FULL_STATEMENTS,
    **options,
):
    """One end-to-end query; returns a measurement dict.

    Extra keyword ``options`` (``encode=``, ...) are
    forwarded to :class:`~repro.systems.HybridSystem` verbatim.
    """
    bases = _bases(statements)
    system = HybridSystem(
        SYNTH.schema, seed=SEED, batch_size=batch_size, **options
    )
    system.add_super_peer("SP")
    for peer_id in PEERS:
        system.add_peer(peer_id, bases[peer_id], "SP")
    system.run()  # settle advertisements before timing
    started = time.perf_counter()
    table = system.query("P1", QUERY)
    wall = time.perf_counter() - started
    metrics = system.network.metrics
    return {
        "rows": len(table),
        "table": table,
        "wall": wall,
        "messages": metrics.messages_total,
        "data_packets": metrics.messages_by_kind.get("DataPacket", 0),
        "batches": metrics.batches_sent,
        "mean_batch": metrics.bindings_per_batch.mean or 0.0,
        "discarded": metrics.discarded_bindings,
        "summary": metrics.summary(),
    }


#: (label, batch_size, extra options) sweep — "batch-1" is the
#: per-binding wire format every speedup is relative to; "encoded" is
#: the dictionary-encoded columnar engine
SWEEP = [
    ("batch-1", 1, {}),
    ("batch-8", 8, {}),
    ("batch-32", 32, {}),
    ("batch-256", 256, {}),
    ("encoded", 256, {"encode": True}),
]


def sweep(statements: int = FULL_STATEMENTS, repeats: int = 1):
    """Every engine of :data:`SWEEP`, keeping each one's fastest of
    ``repeats`` runs (message counts are deterministic, timings not)."""
    results = {}
    for label, batch_size, options in SWEEP:
        runs = [run_once(batch_size, statements, **options) for _ in range(repeats)]
        results[label] = min(runs, key=lambda r: r["wall"])
    return results


def _table_text(results) -> str:
    baseline = results["batch-1"]
    rows = []
    for label, _, _ in SWEEP:
        r = results[label]
        rows.append((
            label,
            r["rows"],
            f"{r['wall'] * 1000:.1f}",
            f"{baseline['wall'] / max(r['wall'], 1e-9):.1f}x",
            r["messages"],
            r["data_packets"],
            f"{r['mean_batch']:.1f}",
        ))
    return format_table(
        (
            "engine",
            "answer rows",
            "wall ms",
            "speedup",
            "messages",
            "data packets",
            "bindings/batch",
        ),
        rows,
    )


def report(statements: int = FULL_STATEMENTS) -> str:
    results = sweep(statements, repeats=3)
    text = banner(
        "batch",
        "Section 2.5: batched plan evaluation",
        "shipping bindings in batches over channels pays per-message cost "
        "per batch instead of per binding; the answer multiset is identical "
        "at every batch size",
    ) + _table_text(results)
    return write_report(
        "batch",
        text,
        params={
            "seed": SEED,
            "peers": len(PEERS),
            "statements_per_segment": statements,
            "batch_sizes": [bs for label, bs, _ in SWEEP if label.startswith("batch-")],
        },
        metrics=results["batch-256"]["summary"],
    )


# ----------------------------------------------------------------------
# pytest-benchmark entry points (assert the experiment's invariants)
# ----------------------------------------------------------------------
def bench_batched_beats_per_binding(benchmark):
    """The headline numbers: ≥10x fewer messages and data packets than
    per-binding shipping, with an identical answer table."""
    batched = benchmark(lambda: run_once(256))
    one = run_once(1)
    assert batched["table"] == one["table"]
    assert one["messages"] >= 10 * batched["messages"]
    assert one["data_packets"] >= 10 * batched["data_packets"]
    report()


def bench_all_batch_sizes_agree(benchmark):
    """Every engine in the sweep returns the same binding multiset."""
    results = benchmark(lambda: sweep(QUICK_STATEMENTS))
    reference = results["batch-1"]["table"]
    for label, _, _ in SWEEP:
        assert results[label]["table"] == reference, label


# ----------------------------------------------------------------------
# CI smoke mode: scaled-down sweep for the bench-smoke job
# ----------------------------------------------------------------------
def main(argv) -> int:
    statements = QUICK_STATEMENTS if "--quick" in argv else FULL_STATEMENTS
    print(report(statements))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
