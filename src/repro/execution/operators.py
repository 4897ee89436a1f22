"""Relational operators over binding tables.

The kernels the execution engine composes: n-ary union and join,
condition filtering and final projection.  Each pivots its operands
into column-oriented :class:`~repro.execution.batch.BindingBatch`
values and runs build/probe hash-joins, column-wise concatenation,
masks and projections without building a single per-row dict:
``vjoin_all`` / ``vunion_all``, their de-duplicating ``*_distinct``
twins for the dictionary-encoded pipeline, ``apply_conditions``,
``finalize`` and ``finalize_encoded``.

``join_all`` / ``union_all`` fold :class:`BindingTable`'s own
binding-at-a-time operators.  No engine path runs them: they are the
reference the property tests hold the kernels to, next to the
centralized evaluator (``tests/difftest``).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

from ..errors import EvaluationError
from ..rdf.terms import Literal
from ..rql.ast import Condition
from ..rql.bindings import BindingTable
from ..rql.evaluator import _COMPARATORS
from .batch import BindingBatch


def union_all(tables: Sequence[BindingTable]) -> BindingTable:
    """Bag union of one or more tables (columns must match as sets)."""
    if not tables:
        raise EvaluationError("union of zero tables")
    result = tables[0]
    for table in tables[1:]:
        result = result.union(table)
    return result


def join_all(tables: Sequence[BindingTable]) -> BindingTable:
    """Natural join of one or more tables."""
    if not tables:
        raise EvaluationError("join of zero tables")
    result = tables[0]
    for table in tables[1:]:
        result = result.join(table)
    return result


def vunion_all(tables: Sequence[BindingTable]) -> BindingTable:
    """Vectorized bag union: one column-wise concatenation."""
    if not tables:
        raise EvaluationError("union of zero tables")
    if len(tables) == 1:
        return tables[0]
    return BindingBatch.concat(
        [BindingBatch.from_table(t) for t in tables]
    ).to_table()


def vjoin_all(tables: Sequence[BindingTable]) -> BindingTable:
    """Vectorized natural join: a cascade of build/probe hash-joins."""
    if not tables:
        raise EvaluationError("join of zero tables")
    if len(tables) == 1:
        return tables[0]
    result = BindingBatch.from_table(tables[0])
    for table in tables[1:]:
        result = result.hash_join(BindingBatch.from_table(table))
    return result.to_table()


def vunion_all_distinct(
    tables: Sequence[BindingTable], needed: Optional[set] = None
) -> BindingTable:
    """Vectorized union with duplicate elimination after the concat.

    The encoded pipeline's combine: the coordinator's final step is
    always a distinct projection, so dropping duplicates early changes
    no answer while keeping id-space intermediates from carrying the
    multiplicities a later join would multiply.  With ``needed`` set,
    columns nothing above the union references are pruned first (every
    operand covers the same column set, so pruning is uniform).
    """
    if not tables:
        raise EvaluationError("union of zero tables")
    batches = [BindingBatch.from_table(t) for t in tables]
    if needed is not None:
        keep = [c for c in batches[0].columns if c in needed]
        if len(keep) < len(batches[0].columns):
            batches = [b.project(keep) for b in batches]
    if len(batches) == 1:
        return batches[0].distinct().to_table()
    return BindingBatch.concat(batches).distinct().to_table()


def vjoin_all_distinct(
    tables: Sequence[BindingTable], needed: Optional[set] = None
) -> BindingTable:
    """Vectorized join cascade with per-step duplicate elimination and
    (optionally) dead-column pruning.

    Sound for the same reason as :func:`vunion_all_distinct`: the set
    of distinct rows of ``distinct(A) ⋈ distinct(B)`` equals that of
    ``A ⋈ B``, and only the distinct set survives finalisation.

    With ``needed`` set (the coordinator knows the query's projection
    and condition variables plus every variable the rest of the plan
    still references), columns outside ``needed`` and outside every
    yet-unjoined operand are projected away after each step *before*
    the distinct — chain-interior variables stop keeping rows distinct,
    which is what collapses the multiplicative intermediate blowup.
    """
    if not tables:
        raise EvaluationError("join of zero tables")
    remaining = [set(t.columns) for t in tables]
    result = BindingBatch.from_table(tables[0]).distinct()
    for index, table in enumerate(tables[1:], start=1):
        result = result.hash_join(BindingBatch.from_table(table).distinct())
        if needed is not None:
            later: set = set()
            for columns in remaining[index + 1 :]:
                later |= columns
            keep = [c for c in result.columns if c in needed or c in later]
            if len(keep) < len(result.columns):
                result = result.project(keep)
        result = result.distinct()
    if needed is not None and len(tables) == 1:
        keep = [c for c in result.columns if c in needed]
        if len(keep) < len(result.columns):
            result = result.project(keep).distinct()
    return result.to_table()


def _comparable(term):
    """A cell as WHERE conditions compare it: literals by Python value."""
    return term.to_python() if isinstance(term, Literal) else term


def _term_comparables(column: Sequence) -> List[object]:
    return [_comparable(term) for term in column]


def _condition_mask(
    batch: BindingBatch,
    condition: Condition,
    comparables: Callable[[Sequence], List[object]] = _term_comparables,
) -> List[bool]:
    """Evaluate one WHERE condition column-wise into a row mask.

    Semantics mirror the oracle's predicate exactly: literals compare by
    their Python value, incomparable types reject the row.
    ``comparables`` turns a column into comparable values (default: term
    cells; the encoded pipeline decodes id cells).
    """
    compare = _COMPARATORS.get(condition.operator)
    if compare is None:
        raise EvaluationError(f"unsupported operator {condition.operator!r}")
    left = comparables(batch.column(condition.variable))
    if condition.value_is_variable:
        right: Iterable = comparables(batch.column(str(condition.value)))
    else:
        right = [_comparable(condition.value)] * len(batch)
    mask = []
    for a, b in zip(left, right):
        try:
            mask.append(bool(compare(a, b)))
        except TypeError:
            mask.append(False)
    return mask


def _referenced_columns(condition: Condition) -> set:
    referenced = {condition.variable}
    if condition.value_is_variable:
        referenced.add(str(condition.value))
    return referenced


def _filter(
    batch: BindingBatch,
    conditions: Iterable[Condition],
    comparables: Callable[[Sequence], List[object]] = _term_comparables,
) -> BindingBatch:
    """Apply WHERE-clause filters; conditions referencing columns the
    batch lacks reject nothing (they were pushed elsewhere)."""
    columns = set(batch.columns)
    for condition in conditions:
        if _referenced_columns(condition).issubset(columns):
            batch = batch.compress(_condition_mask(batch, condition, comparables))
    return batch


def apply_conditions(
    table: BindingTable, conditions: Iterable[Condition]
) -> BindingTable:
    """Apply WHERE-clause filters column-wise (see :func:`_filter`)."""
    batch = BindingBatch.from_table(table)
    filtered = _filter(batch, conditions)
    return table if filtered is batch else filtered.to_table()


def _decoded_comparables(ids: Sequence[int], dictionary) -> List[object]:
    """Decode an id column into condition-comparable values, decoding
    each *distinct* id exactly once (columnar predicate-over-dictionary:
    the duplicate-heavy column shares the per-term work)."""
    cache: dict = {}
    out: List[object] = []
    for tid in ids:
        if tid in cache:
            out.append(cache[tid])
        else:
            value = _comparable(dictionary.decode(tid))
            cache[tid] = value
            out.append(value)
    return out


def finalize_encoded(
    table: BindingTable,
    dictionary,
    projections: Sequence[str],
    conditions: Iterable[Condition] = (),
) -> BindingTable:
    """Coordinator post-processing of an *id table*: filter (decoding
    per distinct id), project, de-duplicate on ints, and only then
    materialise the final — already small — table into terms."""
    batch = _filter(
        BindingBatch.from_table(table),
        conditions,
        lambda ids: _decoded_comparables(ids, dictionary),
    )
    available = [c for c in projections if c in batch.columns]
    batch = batch.project(available).distinct()
    decoded = {
        column: dictionary.decode_many(batch.data[column])
        for column in batch.columns
    }
    return BindingBatch(batch.columns, decoded, length=batch.length).to_table()


def finalize(
    table: BindingTable,
    projections: Sequence[str],
    conditions: Iterable[Condition] = (),
) -> BindingTable:
    """Coordinator post-processing: filter, project, de-duplicate."""
    batch = _filter(BindingBatch.from_table(table), conditions)
    available = [c for c in projections if c in batch.columns]
    return batch.project(available).distinct().to_table()
