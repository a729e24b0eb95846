"""Nested multiset codec and JSON ingestion tests."""

import json
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import mszip.nested
from helpers import ingest_reference, sample_encode_reference
from mszip import (ContractError, FormatError, FreqTree, IngestError, Multiset,
                   NestedMultiset, PairCodec, QuantizedCategorical, Record,
                   build_balanced, canonical_json, decode_nested, encode_multiset,
                   encode_nested, info_content, ingest_json, ingest_json_records,
                   length_bits, nested_savings_bound, permutation_bits,
                   sequence_state, serialize, state_new)
from mszip.cli import pair_counts
from mszip.nested import LIST_CUTOFF
from mszip.varint import encode_uvarint

PC = PairCodec(63)


def keyed(nm, max_len=63):
    """A pair codec with keys under a categorical over the keys of ``nm``."""
    keys, _ = pair_counts(nm)
    alphabet = sorted(keys)
    return PairCodec(max_len, QuantizedCategorical.from_weights(
        alphabet, [keys[k] for k in alphabet]))


def rec(*pairs):
    return Record([(k.encode(), v.encode()) for k, v in pairs])


def roundtrip(nm, pc=PC):
    state, sizes = encode_nested(nm, pc)
    return decode_nested(state, sizes, pc)


class TestRecord:
    def test_identity_ignores_pair_order(self):
        a = rec(("a", "1"), ("b", "2"))
        b = rec(("b", "2"), ("a", "1"))
        assert a == b
        assert a.key == b.key
        assert hash(a) == hash(b)

    def test_multiplicity_distinguishes(self):
        assert rec(("a", "1")) != rec(("a", "1"), ("a", "1"))

    def test_ordering_is_total(self):
        rs = [rec(("b", "x")), rec(("a", "z")), rec(("a", "a"), ("q", "q"))]
        assert sorted(rs) == sorted(rs, key=lambda r: r.key)
        # Record defines only __lt__; Python reflects > onto it
        a, b = rs[1], rs[0]
        assert a.key < b.key
        assert b > a and not a > b and not a > a

    def test_pairs_must_be_byte_tuples(self):
        with pytest.raises(ContractError):
            Record([("a", "1")])

    @pytest.mark.parametrize("pairs", [
        [(b"a", 1)],
        [(b"a", b"1", b"x")],
        [b"a1"],
        [[b"a", b"1"]],
        [(b"a", 1), (b"a", 1)],  # repeated: the from_iterable path
        [(b"a", b"1"), (b"b", "2"), (b"a", b"1")],
        [[b"a", b"1"]] * 2,  # unhashable, so Counter would raise TypeError
        [(b"a", 1), (b"a", b"x")],  # sort would compare 1 with b"x"
        Multiset([((b"a", 1), 2)]),  # taken as it is, but checked
    ])
    def test_non_byte_pairs_raise_on_either_path(self, pairs):
        with pytest.raises(ContractError):
            Record(pairs)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.sampled_from([b"", b"a", b"ab", b"b"]),
                              st.binary(max_size=2)), max_size=12))
    def test_one_sort_equals_from_iterable(self, pairs):
        # small alphabets, so many draws repeat a pair
        want = Multiset.from_iterable(pairs)
        r = Record(pairs)
        assert (r.pairs.pairs, r.pairs.total) == (want.pairs, want.total)
        assert r.key == Record(want).key

    @pytest.mark.parametrize("n", [127, 128, 16383, 16384])
    def test_key_is_the_varint_framed_pairs(self, n):
        # count, key length and value length each at n, around the varint
        # byte boundaries; the short fields next to them take one byte
        pairs = [(b"k" * n, b"v")] * n + [(b"a", b"b" * n), (b"", b"")]
        want = b""
        for (k, v), cnt in sorted(Counter(pairs).items()):
            for part in (cnt, len(k), k, len(v), v):
                want += encode_uvarint(part) if isinstance(part, int) else part
        assert Record(pairs).key == want
        assert Record(Multiset.from_iterable(pairs)).key == want

    def test_outer_symbols_must_be_records(self):
        with pytest.raises(ContractError, match="outer symbols must be Records"):
            NestedMultiset(Multiset([(1, 1)]))
        with pytest.raises(ContractError, match="outer symbols must be Records, got 1"):
            NestedMultiset.from_records([rec(("a", "1")), 1])

    @pytest.mark.parametrize("build, fragment", [
        (lambda: NestedMultiset.from_records([[1]]), "outer symbols must be Records, got [1]"),
        (lambda: NestedMultiset.from_records(5),
         "records must be an iterable of Records, got int"),
        (lambda: NestedMultiset(5), "records must be a Multiset, got int"),
    ], ids=["unhashable-record", "not-iterable", "not-a-multiset"])
    def test_bad_input_names_the_fault(self, build, fragment):
        with pytest.raises(ContractError, match=re.escape(fragment)):
            build()

    def test_pair_bits(self):
        # two 4-bit length codes at max_len 15 and 8 bits per payload byte
        assert PairCodec(15).bits((b"k", b"vv")) == 32
        # a key of mass 1/4 costs 2 bits; the value 16 + 4
        keys = QuantizedCategorical([b"a", b"k"], [3, 1])
        assert PairCodec(15, keys).bits((b"k", b"vv")) == 22


class TestExpand:
    @seed(20261026)
    @settings(max_examples=200)
    @given(st.lists(st.lists(st.tuples(st.sampled_from([b"", b"a", b"id"]),
                                       st.binary(max_size=1)), max_size=4),
                    max_size=8))
    def test_pairs_record_by_record_in_canonical_order(self, records):
        # small alphabets, so records and pairs repeat
        nm = NestedMultiset.from_records([Record(pairs) for pairs in records])
        want = [pair for rec, n in nm.records.pairs for _ in range(n)
                for pair, c in rec.pairs.pairs for _ in range(c)]
        assert list(nm.expand()) == want
        assert len(want) == nm.pair_count


class TestPairCodec:
    def test_byte_keys_are_the_default(self):
        pc = PairCodec(15)
        assert pc.keys is pc.strings
        state = PairCodec(15, pc.strings).encode(state_new(), (b"k", b"v"))
        assert pc.encode(state_new(), (b"k", b"v")) == state

    def test_value_then_key(self):
        keys = QuantizedCategorical([b"a", b"k"], [3, 1])
        pc = PairCodec(15, keys)
        state = pc.encode(state_new(), (b"k", b"vv"))
        assert state == keys.encode(pc.strings.encode(state_new(), b"vv"), b"k")
        assert pc.decode(state) == (state_new(), (b"k", b"vv"))

    def test_key_outside_the_alphabet_raises(self):
        pc = PairCodec(15, QuantizedCategorical([b"a"], [1]))
        with pytest.raises(ContractError, match="not in the alphabet"):
            pc.encode(state_new(), (b"b", b"v"))

    def test_bits_agree_with_info_content(self):
        rng = random.Random(2026)
        pairs = [(rng.choice([b"", b"id", b"name", b"tag"]),
                  rng.randbytes(rng.randrange(9))) for _ in range(600)]
        m = Multiset.from_iterable(pairs + pairs[:50])
        pc = keyed(NestedMultiset.from_records([Record(m)]), max_len=15)
        want = math.fsum(cnt * (math.log2(pc.keys.precision / pc.keys.pmf[
            pc.keys.alphabet.index(k)]) + 8 * len(v) + 4) for (k, v), cnt in m.pairs)
        assert info_content(m, pc) == pytest.approx(want - permutation_bits(m))
        # the coder spends the information content, plus the head and rounding
        overhead = length_bits(encode_multiset(m, pc)) - info_content(m, pc)
        assert 0 <= overhead <= 64 + 32


def keyed_roundtrip(records, pc=None):
    nm = NestedMultiset.from_records(records)
    pc = keyed(nm) if pc is None else pc
    state, sizes = encode_nested(nm, pc)
    assert decode_nested(state, sizes, pc) == nm
    return state


class TestKeyedRoundTrip:
    def test_empty_key(self):
        keyed_roundtrip([rec(("", "1"), ("", ""), ("a", "")), rec(("", "x"))])

    def test_one_empty_record(self):
        # no keys occur, so the keys come from elsewhere
        pc = PairCodec(15, QuantizedCategorical([b"a"], [1]))
        assert keyed_roundtrip([Record([])], pc) == state_new()

    def test_duplicate_pairs(self):
        r = rec(("k", "v"), ("k", "v"), ("k", "w"))
        keyed_roundtrip([r, r, rec(("k", "v"))])

    def test_one_key_vocabulary(self):
        # the key has all the mass: it costs nothing
        records = [rec(("id", str(i % 7))) for i in range(20)]
        pc = keyed(NestedMultiset.from_records(records), max_len=7)
        assert pc.keys.pmf == [1 << 16] and pc.bits((b"id", b"1")) == 8 + 3
        keyed_roundtrip(records, pc)

    def test_random_collections(self):
        rng = random.Random(889)
        for _ in range(25):
            vocab = [f"k{j}".encode() for j in range(rng.randint(1, 8))]
            records = [Record([(rng.choice(vocab), f"v{rng.randrange(40)}".encode())
                               for _ in range(rng.randint(0, 6))])
                       for _ in range(rng.randint(1, 30))]
            keyed_roundtrip(records)

    @settings(max_examples=200)
    @given(st.lists(st.lists(st.tuples(st.sampled_from([b"", b"a", b"id", b"\xff"]),
                                       st.binary(max_size=5)), max_size=5),
                    max_size=8))
    def test_hypothesis(self, records):
        # a fixed vocabulary, so keys that never occur keep their mass
        pc = PairCodec(7, QuantizedCategorical([b"", b"a", b"id", b"\xff"],
                                               [1, 2, 3, 10]))
        keyed_roundtrip([Record(pairs) for pairs in records], pc)


class TestTrustedRecords:
    @pytest.fixture
    def checks(self, monkeypatch):
        """The calls of ``_check_pairs`` from here on."""
        calls = []
        check = mszip.nested._check_pairs

        def counted(pairs):
            calls.append(1)
            return check(pairs)

        monkeypatch.setattr(mszip.nested, "_check_pairs", counted)
        return calls

    def test_decode_checks_no_pairs(self, checks):
        r = rec(("k", "v"), ("id", "1"))
        nm = NestedMultiset.from_records([r, r, rec(("a", "1")), Record([])])
        checks.clear()
        for pc in (PC, keyed(nm)):
            state, sizes = encode_nested(nm, pc)
            assert decode_nested(state, sizes, pc) == nm
        assert checks == []
        Record(r.pairs)  # the public constructor still checks
        assert checks == [1]

    def test_ingest_checks_no_pairs(self, checks):
        records = ingest_json_records('[{"k":"v","id":1},{"id":1,"k":"v"},'
                                      '{"a":null,"a":null},{}]')
        assert checks == []
        assert records == [rec(("k", "v"), ("id", "1"))] * 2 + [
            rec(("a", "null"), ("a", "null")), rec()]

    def test_trusted_record_equals_checked(self):
        r = rec(("k", "v"), ("k", "v"), ("a", ""))
        t = Record._trusted(r.pairs)
        assert (t.key, t.pairs) == (r.key, r.pairs)


class TestNestedRoundTrip:
    def test_two_by_two(self):
        nm = NestedMultiset.from_records([
            rec(("a", "1"), ("b", "2")),
            rec(("c", "3"), ("d", "4")),
        ])
        assert roundtrip(nm) == nm

    def test_duplicate_records(self):
        r = rec(("k", "v"), ("k2", "v2"))
        nm = NestedMultiset.from_records([r, r, r])
        assert roundtrip(nm) == nm
        assert nm.outer_size == 3
        assert nm.pair_count == 6

    def test_single_record_equals_flat_encode_of_its_pairs(self):
        r = rec(("a", "1"), ("b", "2"), ("c", "3"))
        nm = NestedMultiset.from_records([r])
        state, sizes = encode_nested(nm, PC)
        assert sizes == [3]
        assert state == encode_multiset(r.pairs, PC)

    def test_empty(self):
        nm = NestedMultiset.from_records([])
        state, sizes = encode_nested(nm, PC)
        assert state == state_new()
        assert sizes == []
        assert decode_nested(state_new(), [], PC) == nm

    def test_decode_compares_keys_not_records(self, monkeypatch):
        r = rec(("k", "v"))
        nm = NestedMultiset.from_records(
            [r, r, rec(("a", "1"), ("b", "2")), rec(("a", "1")), rec(("z", ""))])
        state, sizes = encode_nested(nm, PC)

        def refuse(self, other):
            raise AssertionError("records compared in Python")

        monkeypatch.setattr(Record, "__lt__", refuse)  # > reflects onto it
        assert decode_nested(state, sizes, PC) == nm

    def test_encode_compares_keys_not_records(self, monkeypatch):
        r = rec(("k", "v"))
        nm = NestedMultiset.from_records(
            [r, r, rec(("a", "1"), ("b", "2")), rec(("a", "1")), rec(("z", ""))])

        def refuse(self, other):
            raise AssertionError("records compared in Python")

        monkeypatch.setattr(Record, "__lt__", refuse)
        monkeypatch.setattr(Record, "__eq__", refuse)
        state, sizes = encode_nested(nm, PC)
        monkeypatch.undo()
        assert decode_nested(state, sizes, PC) == nm

    def test_random_collections(self):
        rng = random.Random(888)
        for _ in range(25):
            records = []
            for _ in range(rng.randint(1, 30)):
                pairs = [(f"k{rng.randrange(6)}".encode(),
                          f"v{rng.randrange(40)}".encode())
                         for _ in range(rng.randint(1, 6))]
                records.append(Record(pairs))
            nm = NestedMultiset.from_records(records)
            assert roundtrip(nm) == nm


class _TreeRecords:
    """The nested encode on balanced trees only, each drained by the
    reference sampling loop."""

    def __init__(self, pair_codec):
        self.pair_codec, self.sizes = pair_codec, []

    def encode(self, s, record):
        self.sizes.append(record.pairs.total)
        return sample_encode_reference(s, build_balanced(record.pairs), self.pair_codec)

    def state(self, nm):
        return sample_encode_reference(state_new(), build_balanced(nm.records), self)


def tables_used(monkeypatch, nm, pc):
    """Round-trip ``nm`` and return the totals of the multisets the encode
    built trees for and those of the trees the decode filled."""
    built, made = [], []

    def counted_build(m):
        built.append(m.total)
        return build_balanced(m)

    def counted_tree():
        made.append(FreqTree())
        return made[-1]

    monkeypatch.setattr(mszip.nested, "build_balanced", counted_build)
    monkeypatch.setattr(mszip.nested, "FreqTree", counted_tree)
    state, sizes = encode_nested(nm, pc)
    assert decode_nested(state, sizes, pc) == nm
    return sorted(built), sorted(t.total for t in made)


class TestTablesAcrossTheCutoff:
    """A level of at most ``LIST_CUTOFF`` occurrences samples from a
    ``FreqList``, a larger one from a ``FreqTree``; the state is the one the
    trees alone give."""

    def test_large_record_and_outer_level(self, monkeypatch):
        big = Record([(b"n", b"%d" % j) for j in range(LIST_CUTOFF + 1)])
        small = [Record([(b"id", b"%d" % j), (b"a", b"x" * (j % 3))])
                 for j in range(LIST_CUTOFF)]
        nm = NestedMultiset.from_records([big] + small + small[:1])
        assert nm.outer_size == LIST_CUTOFF + 2
        ref = _TreeRecords(PC)
        want = ref.state(nm)
        state, sizes = encode_nested(nm, PC)
        assert serialize(state) == serialize(want) and sizes == ref.sizes
        assert tables_used(monkeypatch, nm, PC) == \
            ([LIST_CUTOFF + 1, LIST_CUTOFF + 2], [LIST_CUTOFF + 1, LIST_CUTOFF + 2])

    @pytest.mark.parametrize("cutoff", [0, 2, 3, 4, 6])
    def test_any_cutoff_gives_the_tree_state(self, monkeypatch, cutoff):
        monkeypatch.setattr(mszip.nested, "LIST_CUTOFF", cutoff)
        r = rec(("a", "1"), ("b", "2"), ("b", "2"), ("c", ""))
        records = [r, r, rec(("a", "1")), rec(), rec(("k", "v"), ("z", "9"), ("z", "9"))]
        nm = NestedMultiset.from_records(records)
        pc = keyed(nm)
        ref = _TreeRecords(pc)
        want = ref.state(nm)
        state, sizes = encode_nested(nm, pc)
        assert (state, sizes) == (want, ref.sizes)
        # the outer level, then each record instance
        above = [n for n in [len(records)] + [r.pairs.total for r in records]
                 if n > cutoff]
        assert tables_used(monkeypatch, nm, pc) == (sorted(above), sorted(above))


class TestSavingsBound:
    def test_two_unique_records_two_pairs(self):
        nm = NestedMultiset.from_records([
            rec(("a", "1"), ("b", "2")),
            rec(("c", "3"), ("d", "4")),
        ])
        assert nested_savings_bound(nm) == pytest.approx(3.0)

    def test_identical_single_pair_records(self):
        r = rec(("k", "v"))
        nm = NestedMultiset.from_records([r] * 5)
        assert nested_savings_bound(nm) == pytest.approx(math.log2(math.factorial(5)))

    def test_matches_permutation_bits_for_unique_outer(self):
        records = [rec((f"k{i}", "v")) for i in range(500)]
        nm = NestedMultiset.from_records(records)
        outer = Multiset([(i, 1) for i in range(500)])
        assert nested_savings_bound(nm) == pytest.approx(permutation_bits(outer))

    def test_measured_savings_below_bound(self):
        rng = random.Random(2)
        records = [rec(*((f"k{j}", f"{i}-{rng.randrange(99)}") for j in range(3)))
                   for i in range(40)]
        nm = NestedMultiset.from_records(records)
        state, _ = encode_nested(nm, PC)
        savings = length_bits(sequence_state(nm, PC)) - length_bits(state)
        assert savings <= nested_savings_bound(nm)


# Keys from a small vocabulary, so that one object can repeat a key, or any
# text; values of every scalar type, strings and keys non-ASCII too.
JSON_KEYS = (st.sampled_from(["id", "", "n\u00e9v", "\u043a\u043b\u044e\u0447"])
             | st.text(max_size=4))
JSON_SCALARS = st.one_of(st.text(max_size=6), st.integers(-2**70, 2**70),
                         st.floats(), st.booleans(), st.none())


@st.composite
def json_collections(draw):
    """JSON text of an array of flat objects, written out pair by pair so
    that an object can repeat a key, some objects repeated."""
    objects = draw(st.lists(st.lists(st.tuples(JSON_KEYS, JSON_SCALARS), max_size=6),
                            max_size=6))
    if objects:
        objects += draw(st.lists(st.sampled_from(objects), max_size=4))
    ascii_only = draw(st.booleans())
    dump = lambda x: json.dumps(x, ensure_ascii=ascii_only)
    return "[" + ",".join("{" + ",".join(dump(k) + ":" + dump(v) for k, v in obj) + "}"
                          for obj in objects) + "]"


class TestIngestJson:
    @seed(20261021)
    @settings(max_examples=300)
    @given(json_collections())
    def test_equals_the_per_pair_reference(self, text):
        records = ingest_json_records(text)
        want = ingest_reference(text)
        assert [(r.key, r.pairs) for r in records] == [(r.key, r.pairs) for r in want]
        # all pairs of one key name share one bytes object
        objects = {}
        for r in records:
            for (k, _), _ in r.pairs.pairs:
                assert objects.setdefault(k, k) is k

    def test_single_object(self):
        nm = ingest_json('[{"a":1}]')
        assert nm == NestedMultiset.from_records([rec(("a", "1"))])

    def test_duplicate_records_counted(self):
        nm = ingest_json('[{"a":1},{"a":1}]')
        assert nm.outer_size == 2
        assert nm.records.pairs[0][1] == 2

    def test_key_order_is_irrelevant(self):
        assert ingest_json('[{"b":2,"a":1}]') == ingest_json('[{"a":1,"b":2}]')

    def test_duplicate_keys_keep_multiplicity(self):
        nm = ingest_json('[{"a":1,"a":1}]')
        (record, cnt), = nm.records.pairs
        assert cnt == 1
        assert record.pairs.total == 2

    def test_scalar_stringification(self):
        nm = ingest_json('[{"i":-3,"f":1.5,"t":true,"g":false,"n":null,"s":"x"}]')
        (record, _), = nm.records.pairs
        got = {k.decode(): v.decode() for k, v in record.pairs.expand()}
        assert got == {"i": "-3", "f": "1.5", "t": "true", "g": "false",
                       "n": "null", "s": "x"}

    def test_error_positions(self):
        with pytest.raises(IngestError) as e:
            ingest_json('{"a":1}')
        assert e.value.position == "document root"
        with pytest.raises(IngestError) as e:
            ingest_json('[{"a":1},3]')
        assert e.value.position == "record 1"
        with pytest.raises(IngestError) as e:
            ingest_json('[{"a":{"b":1}}]')
        assert "record 0" in e.value.position
        with pytest.raises(IngestError) as e:
            ingest_json('[{"a":[1]}]')
        assert "key 'a'" in e.value.position
        with pytest.raises(IngestError) as e:
            ingest_json("[nope]")
        assert "line 1" in e.value.position
        with pytest.raises(IngestError) as e:
            ingest_json(b'[\xff]')
        assert "byte" in e.value.position

    @pytest.mark.parametrize("doc, message", [
        ('[{"a":{"b":1}}]', "record 0, key 'a'"),
        ('[{"a":[1]}]', "record 0, key 'a'"),
        ('[{"x":1,"k":[]}]', "record 0, key 'k'"),
        ('[{"a":1},{"b":{}}]', "record 1, key 'b'"),
    ])
    def test_nested_values_are_ingest_errors(self, doc, message):
        with pytest.raises(IngestError) as e:
            ingest_json_records(doc)
        assert str(e.value) == message + ": nested objects/arrays are not supported"

    @pytest.mark.parametrize("doc, position, fragment", [
        ('[{"a":"\\ud800"}]', "record 0, key 'a'", "UTF-8"),
        ('[{"a":1},{"\\udc00":"x"}]', "record 1, key '\\udc00'", "UTF-8"),
        ('[{"a":' + "9" * 5000 + '}]', "document", "digits"),
        ("[" * 100_000, "document", "recursion depth"),
    ], ids=["surrogate-value", "surrogate-key", "long-integer", "deep-nesting"])
    def test_parser_and_encoder_failures_are_ingest_errors(self, doc, position,
                                                           fragment):
        with pytest.raises(IngestError, match=fragment) as e:
            ingest_json_records(doc)
        assert e.value.position == position


class TestFullOrderInvariance:
    def test_shuffled_arrays_and_keys_encode_identically(self):
        rng = random.Random(12)
        records = [{f"k{j}": f"{i}.{j}" for j in range(4)} for i in range(30)]
        reference = None
        for _ in range(6):
            rng.shuffle(records)
            shuffled = []
            for obj in records:
                keys = list(obj)
                rng.shuffle(keys)
                shuffled.append({k: obj[k] for k in keys})
            nm = ingest_json(json.dumps(shuffled))
            state, sizes = encode_nested(nm, PairCodec(31))
            blob = (bytes(sizes), state)
            if reference is None:
                reference = blob
            assert blob == reference


class TestCanonicalJson:
    def test_roundtrips_through_ingest(self):
        nm = ingest_json('[{"b":2,"a":1},{"a":1,"b":2},{"z":null}]')
        text = canonical_json(nm)
        assert ingest_json(text) == nm
        # canonical text is already in canonical order: re-serializing is stable
        assert canonical_json(ingest_json(text)) == text

    def test_empty(self):
        assert canonical_json(NestedMultiset.from_records([])) == "[]"

    @pytest.mark.parametrize("text", [
        "", "plain", 'say "hi"', "back\\slash", "\x00\x01\x1f\x7f\t\n\r\b\f",
        "caf\u00e9 \u4e2d\u6587", "\U0001f600 \U00010348", "/</script>\u2028",
    ])
    def test_strings_quoted_as_json_dumps_does(self, text):
        nm = NestedMultiset.from_records([Record([(text.encode(), text.encode())])])
        want = json.dumps(text)
        assert canonical_json(nm) == f"[{{{want}:{want}}}]"

    def test_invalid_utf8_is_a_format_error(self):
        nm = NestedMultiset.from_records([Record([(b"k", b"\xff")])])
        with pytest.raises(FormatError, match="UTF-8"):
            canonical_json(nm)
