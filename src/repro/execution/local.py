"""Local evaluation of plan leaves against a peer base.

A scan's patterns are evaluated with RDFS entailment and joined
locally; a composite scan ``(Q1∪Q2)@P`` therefore executes the pushed
join at the peer — the behaviour Transformation Rules 1/2 rely on.
Executing the *original* (unrewritten) pattern at a peer is sound:
class filters are enforced during evaluation, so a peer advertising a
broader class only contributes bindings that satisfy the query's
classes.  The per-pattern tables are joined through the columnar
build/probe hash-join.
"""

from __future__ import annotations

from ..core.algebra import Scan
from ..rdf.graph import Graph
from ..rdf.inference import InferredView
from ..rdf.schema import Schema
from ..rql.bindings import BindingTable
from ..rql.evaluator import evaluate_path_pattern
from .encoded import EncodedBase, evaluate_scan_encoded
# join_all: unused here; perfbench/layers.py wraps it by this path
from .operators import join_all, vjoin_all


def evaluate_scan(
    scan: Scan,
    base: Graph,
    schema: Schema,
    encoded: "EncodedBase" = None,
    decode: bool = True,
) -> BindingTable:
    """Evaluate a (possibly composite) scan against a local base.

    With an :class:`~repro.execution.encoded.EncodedBase` supplied the
    scan runs on its cached dictionary-encoded columns instead of
    re-matching triples (same entailment semantics, shared matcher);
    ``decode=False`` additionally keeps the result as an id table in
    that base's dictionary space.
    """
    if encoded is not None:
        return evaluate_scan_encoded(scan, encoded, decode=decode)
    view = InferredView(base, schema)
    tables = [evaluate_path_pattern(pattern, view) for pattern in scan.patterns()]
    return vjoin_all(tables)
