"""Two-level multisets: collections of records that are themselves multisets.

A ``Record`` is a multiset of (key, value) byte-string pairs with a canonical
serialized identity; a ``NestedMultiset`` is an outer multiset of records.
Encoding is depth-first: sample a record from the outer multiset without
replacement, then sample and encode its pairs until the record is depleted,
and repeat until the outer multiset is empty. Nothing about the input order
of records or of pairs inside a record survives into the output.

Decoding needs the shape (how many pairs each sampled record had, in the order
they were depleted); the container header carries it. ``decode_nested`` takes
those sizes in the order ``encode_nested`` returned them, which is the order
the header stores, and reads them from the end itself.

Both levels sample from a ``FreqList``, whose walks run in C, when the level
holds at most ``LIST_CUTOFF`` occurrences, and from a balanced ``FreqTree``
above it, where the list's O(total) moves per step would cost more than the
tree's walk; a hostile header that claims a huge record gets a tree. The two
tables return the same triples, so the cutoff does not change the output. The
outer level samples record keys, which compare as bytes, and maps each key
back to its record.

``ingest_json`` maps the supported JSON subset, an array of flat objects with
scalar values, onto this structure by casting every key and value to its
UTF-8 string form. Ingest encodes each distinct key once, so all pairs of one
key name share one ``bytes`` object, and builds each record from its sorted
pairs without ``Record``'s check, since it made every pair itself.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import chain, repeat, starmap
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter, itemgetter

# encode_op and decode_advance are unused here; perfbench patches them by name.
from .ans import decode_advance, encode_op  # noqa: F401
from .ans import state_new
from .errors import ContractError, FormatError, IngestError
from .mscodec import _LN2, decode_multiset, encode_sequence, sample_decode, sample_encode
from .multiset import FreqList, FreqTree, Multiset, build_balanced
from .symbols import ByteStringCodec
from .varint import encode_uvarint

_VARINT1 = tuple(bytes((n,)) for n in range(0x80))  # the one-byte varints

# The most occurrences a level samples from a FreqList; above it, a FreqTree.
# Per step, build included (thread CPU on a 2-vCPU VM), the list is faster on
# record keys up to about 2^14 and on (key, value) pairs up to about 2^12 to
# 2^13, with the tree faster above; 2^13 sits between.
# The tree also bounds the work of a header that claims a huge record, which
# the list's O(total) moves per step would make quadratic.
LIST_CUTOFF = 1 << 13


def _filled_table(m: Multiset):
    """The table to drain ``m`` from."""
    return FreqList(m) if m.total <= LIST_CUTOFF else build_balanced(m)


def _empty_table(size):
    """The table to decode ``size`` occurrences into; a size that is not an
    int gets a tree, and the sampling loop's check."""
    return FreqList() if type(size) is int and size <= LIST_CUTOFF else FreqTree()


def _check_pairs(pairs):
    for pair in pairs:
        if not (isinstance(pair, tuple) and len(pair) == 2
                and isinstance(pair[0], bytes) and isinstance(pair[1], bytes)):
            raise ContractError(f"record pairs must be (bytes, bytes), got {pair!r}")


class Record:
    """Inner multiset of (key, value) byte pairs with a canonical identity.

    Records order and compare by their canonical serialization (pairs sorted,
    fields length-prefixed, multiplicities included), so equal contents mean
    equal records no matter how they were assembled.
    """

    __slots__ = ("pairs", "key")

    def __init__(self, pairs):
        if isinstance(pairs, Multiset):
            ms = pairs
            _check_pairs(map(itemgetter(0), ms.pairs))
        else:
            s = list(pairs)
            _check_pairs(s)  # before sort() or Counter can raise TypeError
            s.sort()
            ms = Multiset._from_sorted(s)
        self._frame(ms)

    @classmethod
    def _trusted(cls, ms: Multiset) -> "Record":
        """The record of a multiset of pairs known to be (bytes, bytes), such
        as a pair codec decodes: no check."""
        rec = cls.__new__(cls)
        rec._frame(ms)
        return rec

    def _frame(self, ms: Multiset):
        parts = []
        for (k, v), cnt in ms.pairs:
            nk, nv = len(k), len(v)
            parts += (_VARINT1[cnt] if cnt < 0x80 else encode_uvarint(cnt),
                      _VARINT1[nk] if nk < 0x80 else encode_uvarint(nk), k,
                      _VARINT1[nv] if nv < 0x80 else encode_uvarint(nv), v)
        self.pairs = ms
        self.key = b"".join(parts)

    def __lt__(self, other):
        return self.key < other.key

    def __eq__(self, other):
        return isinstance(other, Record) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Record({list(self.pairs.pairs)!r})"


def _check_records(records):
    for rec in records:
        if not isinstance(rec, Record):
            raise ContractError(f"outer symbols must be Records, got {rec!r}")


class NestedMultiset:
    """Outer multiset whose symbols are Records."""

    __slots__ = ("records",)

    def __init__(self, records: Multiset):
        if not isinstance(records, Multiset):
            raise ContractError(f"records must be a Multiset, got {type(records).__name__}")
        _check_records(map(itemgetter(0), records.pairs))
        self.records = records

    @classmethod
    def from_records(cls, records) -> "NestedMultiset":
        try:
            records = list(records)
        except TypeError:
            raise ContractError(
                f"records must be an iterable of Records, got {type(records).__name__}") from None
        _check_records(records)  # before Counter can raise TypeError
        counts = Counter(records)
        # Records order by their keys; sorting by key compares bytes directly.
        pairs = tuple(sorted(counts.items(), key=lambda item: item[0].key))
        return cls(Multiset._canonical(pairs, counts.total()))

    @property
    def outer_size(self) -> int:
        return self.records.total

    @property
    def pair_count(self) -> int:
        return sum(cnt * rec.pairs.total for rec, cnt in self.records.pairs)

    def expand(self):
        """Every pair of every record, record by record, in canonical order."""
        items = chain.from_iterable(map(attrgetter("pairs.pairs"), self.records.expand()))
        return chain.from_iterable(starmap(repeat, items))

    def __eq__(self, other):
        return isinstance(other, NestedMultiset) and self.records == other.records

    def __hash__(self):
        return hash(self.records)

    def __repr__(self):
        return f"NestedMultiset({self.outer_size} records, {self.pair_count} pairs)"


class PairCodec:
    """Codec for (key, value) byte-string pairs: the value under a byte-string
    code, then the key under ``keys``, by default the same byte-string code.

    A ``QuantizedCategorical`` over the keys that occur suits collections
    that repeat a small vocabulary of keys."""

    __slots__ = ("strings", "keys")

    def __init__(self, max_len=255, keys=None):
        self.strings = ByteStringCodec(max_len)
        self.keys = self.strings if keys is None else keys

    def encode(self, state, pair):
        k, v = pair
        return self.keys.encode(self.strings.encode(state, v), k)

    def decode(self, state):
        state, k = self.keys.decode(state)
        state, v = self.strings.decode(state)
        return state, (k, v)

    def bits(self, pair) -> float:
        return self.keys.bits(pair[0]) + self.strings.bits(pair[1])


class _RecordCodec:
    """A record, named by its ``key``, coded as the sampled multiset of its
    pairs. The pair counts go to the header: encode appends them to
    ``sizes``, decode takes them in turn.

    The outer table holds keys, so it compares bytes, not ``Record``s;
    ``records`` maps each key to its record."""

    __slots__ = ("pair_codec", "sizes", "records")

    def __init__(self, pair_codec, sizes, records):
        self.pair_codec = pair_codec
        self.sizes = sizes
        self.records = records

    def encode(self, s, key):
        pairs = self.records[key].pairs
        self.sizes.append(pairs.total)
        return sample_encode(s, _filled_table(pairs), self.pair_codec)

    def decode(self, s):
        size = next(self.sizes)
        table = _empty_table(size)
        s = sample_decode(s, size, self.pair_codec, table)
        rec = Record._trusted(table.to_multiset())
        self.records[rec.key] = rec
        return s, rec.key


def encode_nested(nm: NestedMultiset, pair_codec) -> tuple[tuple, list[int]]:
    """Depth-first nested encode.

    Returns the final state and the inner sizes in the order the records were
    depleted; ``decode_nested`` takes them as they are.
    """
    sizes = []
    records = nm.records
    codec = _RecordCodec(pair_codec, sizes, {rec.key: rec for rec, _ in records.pairs})
    # keys order as their records do
    keys = Multiset._canonical(tuple((rec.key, cnt) for rec, cnt in records.pairs),
                               records.total)
    return sample_encode(state_new(), _filled_table(keys), codec), sizes


def decode_nested(s: tuple, inner_sizes, pair_codec) -> NestedMultiset:
    """Inverse of ``encode_nested``, with ``inner_sizes`` in the order
    ``encode_nested`` returned them; records decode last first."""
    codec = _RecordCodec(pair_codec, reversed(inner_sizes), {})
    count = len(inner_sizes)
    keys = decode_multiset(s, count, codec, _empty_table(count))
    # keys order as their records do
    records = tuple((codec.records[key], cnt) for key, cnt in keys.pairs)
    return NestedMultiset(Multiset._canonical(records, keys.total))


def sequence_state(nm: NestedMultiset, pair_codec) -> tuple:
    """Order-keeping baseline: encode every pair of every record, no sampling."""
    return encode_sequence(nm.expand(), pair_codec)


def nested_savings_bound(nm: NestedMultiset) -> float:
    """Upper bound on the bits recoverable by forgetting order at both levels:
    log2(outer!) plus log2(pairs!) summed over record instances."""
    bits = math.lgamma(nm.records.total + 1)
    for rec, cnt in nm.records.pairs:
        bits += cnt * math.lgamma(rec.pairs.total + 1)
    return bits / _LN2


# The text of each scalar type json.loads yields other than str; a miss is an
# object or array.
_SCALAR_TEXT = {int: repr, float: repr,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): lambda _: "null"}


def ingest_json_records(text) -> list[Record]:
    """Parse a JSON array of flat objects into Records, preserving input order.

    Keys and values are coerced to UTF-8 strings (integers in decimal,
    booleans as "true"/"false", null as "null"); duplicate keys inside one
    object are kept with their multiplicity. Each distinct key is encoded
    once, so all pairs of one key name share its ``bytes``.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError as e:
            raise IngestError("invalid UTF-8", position=f"byte {e.start}") from None
    try:
        # objects become tuples of pairs, which keep duplicate keys; arrays stay lists
        doc = json.loads(text, object_pairs_hook=tuple)
    except json.JSONDecodeError as e:
        raise IngestError(e.msg, position=f"line {e.lineno} column {e.colno}") from None
    except (ValueError, RecursionError) as e:  # too many digits, nested too deep
        raise IngestError(str(e), position="document") from None
    if not isinstance(doc, list):
        raise IngestError("top-level value must be an array", position="document root")
    records = []
    keys = {}  # each distinct key's bytes
    for idx, item in enumerate(doc):
        if not isinstance(item, tuple):
            raise IngestError("array items must be objects", position=f"record {idx}")
        pairs = []
        try:
            for k, v in item:
                if type(v) is not str:
                    to_text = _SCALAR_TEXT.get(type(v))
                    if to_text is None:
                        raise IngestError("nested objects/arrays are not supported",
                                          position=f"record {idx}, key {k!r}")
                    v = to_text(v)
                kb = keys.get(k)
                if kb is None:
                    kb = keys[k] = k.encode("utf-8")
                pairs.append((kb, v.encode("utf-8")))
        except UnicodeEncodeError as e:  # a lone surrogate escape such as "\ud800"
            raise IngestError(f"string is not valid UTF-8 ({e.reason})",
                              position=f"record {idx}, key {k!r}") from None
        pairs.sort()
        # every pair is (bytes, bytes), made just above: no check
        records.append(Record._trusted(Multiset._from_sorted(pairs)))
    return records


def ingest_json(text) -> NestedMultiset:
    """Canonical nested multiset of a JSON array of flat objects."""
    return NestedMultiset.from_records(ingest_json_records(text))


def canonical_json(nm: NestedMultiset) -> str:
    """Serialize back to JSON text in canonical order, all values as strings.

    Keys and values are quoted by ``encode_basestring_ascii``, which is what
    ``json.dumps`` returns for a string, without its per-call dispatch."""
    keys = {}  # each distinct key quoted once, with its colon
    recs = []
    try:
        for rec, cnt in nm.records.pairs:
            fields = []
            for (k, v), c in rec.pairs.pairs:
                key = keys.get(k)
                if key is None:
                    key = keys[k] = _json_str(k.decode("utf-8")) + ":"
                fields += [key + _json_str(v.decode("utf-8"))] * c
            recs += ["{" + ",".join(fields) + "}"] * cnt
    except UnicodeDecodeError:
        raise FormatError("nested payload is not valid UTF-8 JSON") from None
    return "[" + ",".join(recs) + "]"
