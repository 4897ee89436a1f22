"""Dictionary-encoding properties: round-trips and kernel equivalence.

Three walls around the columnar core:

* a :class:`~repro.rdf.dictionary.TermDictionary` round-trips every
  term kind — URIs, blank nodes, variables, and literals of every
  datatype/language shape — through ``encode``/``decode``, including
  the wire codec's serialisation of the per-channel entries;
* the full table cycle (scalar table → :func:`encode_table` →
  :func:`split_encoded` chunks → :func:`decode_table` → concat) is
  lossless, row order included, for every batch size;
* the encoded kernels are observationally equal to the scalar ones:
  joining/filtering/concatenating id tables and decoding at the end
  yields exactly what the term-space operators produce.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.packets import DictionaryPacket
from repro.execution.batch import BindingBatch, concat_tables
from repro.execution.encoded import (
    EncodedTable,
    decode_cells,
    decode_table,
    encode_cells,
    encode_table,
    is_id_table,
    split_encoded,
)
from repro.execution.operators import finalize, finalize_encoded
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import BNode, Literal, URI, Variable
from repro.rql.ast import Condition
from repro.rql.bindings import BindingTable
from repro.rql.evaluator import _condition_predicate
from repro.transport.codec import decode_payload, encode_payload

safe_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=16
)
uris = st.from_regex(r"[a-z]{1,8}", fullmatch=True).map(
    lambda s: URI(f"http://example.org/{s}")
)
#: every Term kind the model has, literals in every shape
terms = st.one_of(
    uris,
    st.from_regex(r"[a-z0-9]{1,8}", fullmatch=True).map(BNode),
    st.from_regex(r"[A-Z][a-z0-9]{0,6}", fullmatch=True).map(Variable),
    safe_text.map(Literal),
    st.integers(-10**9, 10**9).map(Literal),
    st.booleans().map(Literal),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(Literal),
    st.tuples(safe_text, st.sampled_from(["en", "el", "fr"])).map(
        lambda pair: Literal(pair[0], language=pair[1])
    ),
)


@st.composite
def binding_tables(draw, min_width: int = 1, max_width: int = 4):
    width = draw(st.integers(min_width, max_width))
    columns = tuple(f"V{i}" for i in range(width))
    rows = draw(st.lists(st.tuples(*([terms] * width)), max_size=12))
    return BindingTable(columns, [tuple(r) for r in rows])


# ----------------------------------------------------------------------
# dictionary round-trips
# ----------------------------------------------------------------------
@given(st.lists(terms, max_size=30))
def test_dictionary_round_trips_every_term_kind(values):
    d = TermDictionary()
    ids = [d.encode(t) for t in values]
    assert [d.decode(i) for i in ids] == values
    # interning: a second pass assigns the same ids
    assert [d.encode(t) for t in values] == ids
    assert len(d) == len(set(values))


@given(st.lists(terms, min_size=1, max_size=20))
def test_dictionary_entries_cover_requested_ids(values):
    d = TermDictionary()
    ids = d.encode_many(values)
    entries = d.entries(ids)
    mapping = dict(entries)
    assert sorted(mapping) == sorted(set(ids))
    for tid, term in entries:
        assert d.decode(tid) == term


@given(st.lists(terms, max_size=12), st.integers(0, 10**6))
def test_dictionary_entries_survive_wire_codec(values, channel_seq):
    """The per-channel dictionary payload round-trips the transport
    codec exactly, for every term kind."""
    d = TermDictionary()
    ids = d.encode_many(values)
    packet = DictionaryPacket(f"P1#{channel_seq}", d.entries(ids))
    decoded = decode_payload(encode_payload(packet))
    assert decoded == packet
    assert dict(decoded.entries) == dict(packet.entries)


# ----------------------------------------------------------------------
# full table cycle
# ----------------------------------------------------------------------
@given(binding_tables(), st.integers(1, 9))
@settings(max_examples=60)
def test_encode_split_decode_cycle_is_lossless(table, batch_size):
    d = TermDictionary()
    encoded = encode_table(table, d)
    mapping = dict(d.entries(encoded.used_ids()))
    chunks = split_encoded(encoded, batch_size)
    assert sum(len(c) for c in chunks) == len(table.rows)
    decoded = concat_tables([decode_table(c, mapping) for c in chunks])
    assert decoded.columns == table.columns
    assert decoded.rows == table.rows  # row order included


@given(binding_tables())
def test_encoded_table_survives_wire_codec(table):
    d = TermDictionary()
    encoded = encode_table(table, d)
    decoded = decode_payload(encode_payload(encoded))
    assert isinstance(decoded, EncodedTable)
    assert decoded == encoded


@given(binding_tables())
def test_cell_codecs_invert(table):
    d = TermDictionary()
    ids = encode_cells(table, d)
    if table.rows:
        assert is_id_table(ids)
    assert decode_cells(ids, d).rows == table.rows
    assert not is_id_table(table) or not table.rows


# ----------------------------------------------------------------------
# encoded kernel ≡ scalar kernel
# ----------------------------------------------------------------------
def _shared_world(draw_tables):
    """Encode several tables through one dictionary (as one peer does)."""
    d = TermDictionary()
    return d, [encode_cells(t, d) for t in draw_tables]


@given(binding_tables(max_width=3), binding_tables(max_width=3))
@settings(max_examples=60)
def test_encoded_join_equals_scalar_join(left, right):
    d, (enc_left, enc_right) = _shared_world([left, right])
    scalar = BindingBatch.from_table(left).hash_join(
        BindingBatch.from_table(right)
    ).to_table()
    encoded = BindingBatch.from_table(enc_left).hash_join(
        BindingBatch.from_table(enc_right)
    ).to_table()
    assert decode_cells(encoded, d).rows == scalar.rows
    assert encoded.columns == scalar.columns


@given(st.lists(binding_tables(min_width=2, max_width=2), min_size=1, max_size=4))
@settings(max_examples=60)
def test_encoded_concat_equals_scalar_concat(tables):
    d, encoded_tables = _shared_world(tables)
    scalar = concat_tables(tables)
    encoded = concat_tables(encoded_tables)
    assert decode_cells(encoded, d).rows == scalar.rows


@given(
    binding_tables(min_width=2, max_width=3),
    st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "like"]),
    terms,
    st.booleans(),
)
@settings(max_examples=80)
def test_encoded_finalize_equals_scalar_finalize(table, operator, value, var_rhs):
    """Filter + project + distinct on ids, decoding per distinct id,
    matches the oracle's table operators row for row — as does the
    term-valued ``finalize``."""
    if var_rhs:
        condition = Condition("V0", operator, Variable("V1"), value_is_variable=True)
    else:
        condition = Condition("V0", operator, value)
    projections = list(table.columns[:2])
    d = TermDictionary()
    ids = encode_cells(table, d)
    reference = (
        table.select(_condition_predicate(condition)).project(projections).distinct()
    )
    encoded = finalize_encoded(ids, d, projections, [condition])
    terms_out = finalize(table, projections, [condition])
    for out in (encoded, terms_out):
        assert out.columns == reference.columns
        assert out.rows == reference.rows


def test_ordered_comparison_with_mixed_term_kinds_rejects_rows():
    """Regression (found by the property above): ordering a boolean
    literal against a URI used to raise AttributeError out of
    ``URI.__lt__`` instead of the TypeError the incomparable-types rule
    maps to False — on both the term-valued and the encoded path."""
    table = BindingTable(
        ("V0", "V1"),
        [
            (Literal(True), URI("http://example.org/x")),
            (URI("http://example.org/b"), Literal(False)),
        ],
    )
    condition = Condition("V0", ">", URI("http://example.org/a"))
    plain = finalize(table, ["V0", "V1"], [condition])
    d = TermDictionary()
    encoded = finalize_encoded(
        encode_cells(table, d), d, ["V0", "V1"], [condition]
    )
    # the boolean row is incomparable (rejected); the URI row compares
    assert plain.rows == [(URI("http://example.org/b"), Literal(False))]
    assert encoded.rows == plain.rows
