"""Container format tests: checksum vectors, round trips, corruption."""

import random
import re

import pytest

from helpers import crc32c_reference
from mszip import (ByteStringCodec, Container, ContractError, FormatError, Multiset,
                   MszipError, NestedMultiset, PairCodec, QuantizedCategorical, Record,
                   UniformCodec, codec_blob, codec_from_blob, crc32c,
                   decode_multiset, decode_nested, deserialize, encode_multiset,
                   encode_nested, pack, serialize, unpack)
from mszip.container import (CODEC_BYTES, CODEC_CATEGORICAL, KIND_FLAT, KIND_NESTED,
                             VERSION)
from mszip.varint import decode_uvarint, encode_uvarint

CHUNK = 1 << 15  # the bytes crc32c folds in one pass


class TestCrc32c:
    def test_known_vectors(self):
        # RFC 3720 / Castagnoli check value
        assert crc32c(b"123456789") == 0xE3069283
        assert crc32c(b"") == 0
        assert crc32c(bytes(32)) == 0x8A9136AA

    def test_detects_single_bit_flip(self):
        data = b"the quick brown fox"
        base = crc32c(data)
        flipped = bytes([data[0] ^ 1]) + data[1:]
        assert crc32c(flipped) != base

    def test_matches_the_byte_loop(self):
        rng = random.Random(32)
        # every length up to 70 bytes: the fold stops at 96 bits, 8 bytes of
        # message, and the bit loop takes the rest
        for n in range(71):
            data = rng.randbytes(n)
            for crc in (0, 1, 0xFFFFFFFF, rng.getrandbits(32)):
                assert crc32c(data, crc) == crc32c_reference(data, crc), (n, crc)
        data = rng.randbytes(4096)
        assert crc32c(data) == crc32c_reference(data)

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5, 1 << 20])
    def test_matches_the_byte_loop_around_chunk_seams(self, n):
        rng = random.Random(n)
        data = rng.randbytes(n)
        crcs = (0, 1, 0xFFFFFFFF, rng.getrandbits(32))
        for crc in crcs[:2] if n == 1 << 20 else crcs:  # the byte loop is slow
            want = crc32c_reference(data, crc)
            for buf in (data, bytearray(data), memoryview(data)):
                assert crc32c(buf, crc) == want, (type(buf).__name__, crc)

    def test_continuation_at_unaligned_splits(self):
        data = random.Random(33).randbytes(4096)
        whole = crc32c(data)
        for k in (1, 3, 7, 9, 13, 100, 4095):
            assert crc32c(data[k:], crc32c(data[:k])) == whole, k

    def test_continuation_across_chunk_seams(self):
        rng = random.Random(35)
        data = rng.randbytes(3 * CHUNK + 5)
        for crc in (0, rng.getrandbits(32)):
            whole = crc32c(data, crc)
            for k in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3,
                      len(data) - 1, len(data), *rng.sample(range(len(data)), 8)):
                assert crc32c(data[k:], crc32c(data[:k], crc)) == whole, (crc, k)

    def test_buffer_types_agree(self):
        data = random.Random(34).randbytes(1001)
        base = crc32c(data)
        assert crc32c(bytearray(data)) == base
        assert crc32c(memoryview(data)) == base
        assert crc32c(memoryview(data)[5:]) == crc32c(data[5:])


def flat_container(payloads=(b"one", b"two", b"two"), max_len=64):
    codec = ByteStringCodec(max_len)
    m = Multiset.from_iterable(payloads)
    state = encode_multiset(m, codec)
    cid, blob = codec_blob(codec)
    data = pack(Container(kind=KIND_FLAT, codec_id=cid, codec_blob=blob,
                          size=m.total, inner_sizes=(), state=serialize(state)))
    return m, codec, data


def nested_container(nm, max_len=15, keys=None):
    pc = PairCodec(max_len, keys)
    state, sizes = encode_nested(nm, pc)
    cid, blob = codec_blob(pc)
    return pack(Container(kind=KIND_NESTED, codec_id=cid, codec_blob=blob,
                          size=nm.outer_size, inner_sizes=tuple(sizes),
                          state=serialize(state)))


# Categorical codec parameters: precision 4, one symbol b"a" of mass 4.
CATEGORICAL_BLOB = b"\x04\x01\x01a\x04"
# Keyed nested codec parameters: values' max_len 15, then the keys' categorical.
KEYED_BLOB = b"\x0f" + CATEGORICAL_BLOB
# Keys of the nested containers below.
KEYS = QuantizedCategorical([b"a", b"b", b"id", b"k"], [3, 1, 8, 4])


class TestPackUnpack:
    def test_flat_roundtrip(self):
        m, _, data = flat_container()
        c = unpack(data)
        assert c.kind == KIND_FLAT
        assert c.codec_id == CODEC_BYTES
        assert c.size == m.total
        codec = codec_from_blob(c.kind, c.codec_id, c.codec_blob)
        assert isinstance(codec, ByteStringCodec)
        assert decode_multiset(deserialize(c.state), c.size, codec) == m

    def test_categorical_roundtrip(self):
        alphabet = [b"apple", b"pear", b"plum"]
        codec = QuantizedCategorical.from_weights(alphabet, [5, 2, 1], 1 << 10)
        m = Multiset([(b"apple", 4), (b"plum", 1)])
        state = encode_multiset(m, codec)
        cid, blob = codec_blob(codec)
        data = pack(Container(kind=KIND_FLAT, codec_id=cid, codec_blob=blob,
                              size=m.total, inner_sizes=(),
                              state=serialize(state)))
        c = unpack(data)
        assert c.codec_id == CODEC_CATEGORICAL
        back = codec_from_blob(c.kind, c.codec_id, c.codec_blob)
        assert back.alphabet == alphabet
        assert back.pmf == codec.pmf
        assert back.precision == codec.precision
        assert decode_multiset(deserialize(c.state), c.size, back) == m

    def test_nested_header_carries_sizes(self):
        cid, blob = codec_blob(PairCodec(15))
        data = pack(Container(kind=KIND_NESTED, codec_id=cid, codec_blob=blob,
                              size=3, inner_sizes=(2, 5, 1),
                              state=serialize(
                                  encode_multiset(Multiset(), ByteStringCodec(1)))))
        c = unpack(data)
        assert c.inner_sizes == (2, 5, 1)
        assert isinstance(codec_from_blob(c.kind, c.codec_id, c.codec_blob),
                          PairCodec)

    def test_inner_sizes_at_every_varint_width(self):
        # the sizes field is the sizes' varints back to back, before the crc
        sizes = (0, 127, 128, 16383, 16384, 1 << 35)
        cid, blob = codec_blob(PairCodec(15))
        state = serialize(encode_multiset(Multiset(), ByteStringCodec(1)))
        data = pack(Container(kind=KIND_NESTED, codec_id=cid, codec_blob=blob,
                              size=len(sizes), inner_sizes=sizes, state=state))
        field = b"".join(map(encode_uvarint, sizes))
        assert data[-len(state) - 4 - len(field) : -len(state) - 4] == field
        assert unpack(data).inner_sizes == sizes

    def test_nested_keyed_roundtrip(self):
        nm = NestedMultiset.from_records(
            [Record([(b"k", b"v"), (b"id", b"7")]), Record([(b"k", b"w")])] * 2)
        c = unpack(nested_container(nm, keys=KEYS))
        assert c.codec_id == CODEC_CATEGORICAL
        assert c.codec_blob == b"\x0f" + codec_blob(KEYS)[1]
        pc = codec_from_blob(c.kind, c.codec_id, c.codec_blob)
        assert pc.strings.max_len == 15
        assert (pc.keys.alphabet, pc.keys.pmf) == (KEYS.alphabet, KEYS.pmf)
        assert decode_nested(deserialize(c.state), c.inner_sizes, pc) == nm

    def test_byte_keys_keep_codec_1(self):
        assert codec_blob(PairCodec(15)) == (CODEC_BYTES, b"\x0f")
        pc = codec_from_blob(KIND_NESTED, CODEC_CATEGORICAL, KEYED_BLOB)
        assert (pc.strings.max_len, pc.keys.alphabet) == (15, [b"a"])

    def test_inner_sizes_must_match_count(self):
        cid, blob = codec_blob(PairCodec(15))
        with pytest.raises(FormatError):
            pack(Container(kind=KIND_NESTED, codec_id=cid, codec_blob=blob,
                           size=2, inner_sizes=(1,), state=b"\x00" * 8))

    @pytest.mark.parametrize("field, value, fragment", [
        ("codec_id", 300, "codec_id must be an integer in [0, 255], got 300"),
        ("codec_id", -1, "codec_id must be an integer in [0, 255], got -1"),
        ("codec_id", "a", "codec_id must be an integer in [0, 255], got 'a'"),
        ("size", 2.0, "size must be an integer, got float"),
        ("codec_blob", "\x0f", "codec_blob must be bytes, got str"),
        ("state", "\x00", "state must be bytes, got str"),
    ], ids=["codec-id-300", "codec-id-negative", "codec-id-str", "size-float",
            "blob-str", "state-str"])
    def test_pack_names_a_bad_field(self, field, value, fragment):
        cid, blob = codec_blob(ByteStringCodec(15))
        c = Container(kind=KIND_FLAT, codec_id=cid, codec_blob=blob, size=0,
                      inner_sizes=(), state=b"\x00" * 8)
        with pytest.raises(ContractError, match=re.escape(fragment)):
            pack(c._replace(**{field: value}))

    def test_flat_container_carries_no_inner_sizes(self):
        cid, blob = codec_blob(ByteStringCodec(15))
        with pytest.raises(FormatError, match="inner size list does not match"):
            pack(Container(kind=KIND_FLAT, codec_id=cid, codec_blob=blob,
                           size=2, inner_sizes=(5, 6), state=b"\x00" * 8))


class TestCorruption:
    def test_bad_magic(self):
        _, _, data = flat_container()
        with pytest.raises(FormatError, match="magic"):
            unpack(b"NOPE" + data[4:])

    def test_bad_version(self):
        _, _, data = flat_container()
        broken = data[:4] + bytes([99]) + data[5:]
        with pytest.raises(FormatError, match="version"):
            unpack(broken)

    @pytest.mark.parametrize("version", [0, 1, VERSION + 1])
    def test_version_error_names_both_versions(self, version):
        _, _, data = flat_container()
        with pytest.raises(FormatError, match=re.escape(
                f"container version {version} is not supported; "
                f"this reader reads version {VERSION}")):
            unpack(data[:4] + bytes([version]) + data[5:])

    def test_checksum_mismatch_on_any_flip(self):
        _, _, data = flat_container()
        for pos in range(5, len(data), 7):
            broken = data[:pos] + bytes([data[pos] ^ 0x40]) + data[pos + 1:]
            with pytest.raises(FormatError, match="checksum"):
                unpack(broken)

    def test_truncations(self):
        _, _, data = flat_container()
        for cut in (3, 5, 8, len(data) - 1):
            with pytest.raises(FormatError):
                unpack(data[:cut])

    def test_unknown_codec_id(self):
        with pytest.raises(FormatError, match="codec"):
            codec_from_blob(KIND_FLAT, 77, b"")

    @pytest.mark.parametrize("call, fragment", [
        (lambda: codec_blob(QuantizedCategorical([1, 2], [1, 1])),
         "only byte-string categorical alphabets"),
        (lambda: codec_blob(UniformCodec(4)), "cannot serialize codec UniformCodec"),
        (lambda: codec_from_blob(KIND_FLAT, CODEC_BYTES, b"\x07\x00"),
         "trailing bytes"),
        (lambda: codec_from_blob(KIND_FLAT, CODEC_CATEGORICAL,
                                 CATEGORICAL_BLOB + b"\x00"),
         "trailing bytes"),
        (lambda: codec_blob(PairCodec(15, UniformCodec(4))),
         "cannot serialize key codec UniformCodec"),
        (lambda: codec_from_blob(KIND_NESTED, CODEC_CATEGORICAL, b"\x80"),
         "truncated varint"),
        (lambda: codec_from_blob(KIND_NESTED, CODEC_CATEGORICAL, KEYED_BLOB + b"\x00"),
         "trailing bytes"),
        (lambda: codec_from_blob(KIND_NESTED, CODEC_CATEGORICAL,
                                 b"\x0f\x08\x01\x01a\x04"),
         "do not sum to the stated precision"),
        (lambda: codec_from_blob(KIND_FLAT, CODEC_CATEGORICAL, b"\x04\x01\x05ab"),
         "truncated codec alphabet"),
        (lambda: codec_from_blob(KIND_FLAT, CODEC_CATEGORICAL, b"\x08\x01\x01a\x04"),
         "do not sum to the stated precision"),
        (lambda: codec_from_blob(KIND_FLAT, CODEC_CATEGORICAL, b"\x04\x00"),
         "alphabet is empty"),
        (lambda: codec_from_blob(KIND_FLAT, CODEC_CATEGORICAL,
                                 b"\x04\x02\x01a\x01b\x00\x04"),
         "all masses must be >= 1"),
        (lambda: codec_from_blob(KIND_FLAT, CODEC_CATEGORICAL,
                                 b"\x04\x02\x01a\x01b\x01\x02"),
         "precision must be a power of two, got 3"),
        (lambda: codec_from_blob(KIND_FLAT, CODEC_CATEGORICAL,
                                 b"\x04\x02\x01a\x01a\x02\x02"),
         "alphabet must be strictly increasing"),
        (lambda: codec_from_blob(KIND_FLAT, CODEC_CATEGORICAL,
                                 encode_uvarint(1 << 40) + b"\x01\x01a"
                                 + encode_uvarint(1 << 40)),
         f"precision {1 << 40} exceeds"),
        (lambda: codec_from_blob(KIND_FLAT, CODEC_BYTES, encode_uvarint((1 << 32) - 1)),
         f"max_len {(1 << 32) - 1} exceeds"),
        (lambda: pack(Container(kind=7, codec_id=CODEC_BYTES, codec_blob=b"\x00",
                                size=0, inner_sizes=(), state=b"")),
         "unknown payload kind 7"),
        (lambda: unpack(b"MSZ1"), "truncated header"),
        (lambda: unpack(b"MSZ1" + bytes([VERSION]) + b"\x01\x05\x00\x00"),
         "truncated codec parameters"),
        (lambda: unpack(b"MSZ1" + bytes([VERSION]) + b"\x01\x00\x09"), "unknown payload kind 9"),
        (lambda: unpack(b"MSZ1" + bytes([VERSION]) + b"\x01\x00\x00\x00\xab\xcd"),
         "truncated checksum"),
        (lambda: decode_uvarint(b"\x80"), "truncated varint"),
        (lambda: decode_uvarint(b"\xff" * 10), "varint too long"),
    ], ids=["alphabet-not-bytes", "unknown-codec-class", "bytes-trailing",
            "categorical-trailing", "unknown-key-codec", "keyed-truncated-max-len",
            "keyed-trailing", "keyed-masses-off-precision", "truncated-alphabet",
            "masses-off-precision", "no-symbols", "zero-mass", "masses-sum-3",
            "duplicate-symbol", "precision-2^40", "max-len-2^32-1",
            "pack-unknown-kind", "truncated-header", "truncated-params",
            "unpack-unknown-kind", "truncated-checksum", "truncated-varint",
            "varint-too-long"])
    def test_format_errors_name_the_fault(self, call, fragment):
        with pytest.raises(FormatError, match=fragment):
            call()

    @pytest.mark.parametrize("data", [
        flat_container()[2],
        nested_container(NestedMultiset.from_records(
            [Record([(b"k", b"v"), (b"id", b"7")]), Record([(b"k", b"w")])])),
        nested_container(NestedMultiset.from_records(
            [Record([(b"k", b"v"), (b"id", b"7")]), Record([(b"k", b"w")])]),
            keys=KEYS),
    ], ids=["flat", "nested", "nested-keyed"])
    def test_every_proper_prefix_is_a_format_error(self, data):
        unpack(data)
        for cut in range(len(data)):
            with pytest.raises(FormatError):
                unpack(data[:cut])


class TestStrictDecode:
    """Every single-bit flip of the state, with the CRC recomputed, either
    raises an MszipError or decodes to a value that re-encodes to the very
    same container: a damaged state never decodes to a wrong multiset."""

    @staticmethod
    def flip_every_bit(data, decode, reencode):
        c = unpack(data)
        codec = codec_from_blob(c.kind, c.codec_id, c.codec_blob)
        errors = 0
        for bit in range(8 * len(c.state)):
            state = bytearray(c.state)
            state[bit // 8] ^= 1 << (bit % 8)
            forged = pack(c._replace(state=bytes(state)))
            try:
                back = decode(deserialize(bytes(state)), c, codec)
            except MszipError:
                errors += 1
                continue
            assert reencode(back) == forged, f"bit {bit}"
        assert errors > 0

    def test_flat(self):
        rng = random.Random(20261018)
        payloads = [rng.randbytes(rng.randrange(6)) for _ in range(10)]
        payloads += payloads[:3]
        _, _, data = flat_container(payloads, max_len=7)
        self.flip_every_bit(
            data, lambda s, c, codec: decode_multiset(s, c.size, codec),
            lambda m: flat_container(m.expand(), max_len=7)[2])

    def nested(self, keys):
        rng = random.Random(20261018)
        records = [Record([(rng.choice([b"a", b"b", b"id"]), rng.randbytes(2))
                           for _ in range(rng.randrange(4))]) for _ in range(6)]
        data = nested_container(NestedMultiset.from_records(records + records[:2]),
                                keys=keys)
        self.flip_every_bit(
            data, lambda s, c, codec: decode_nested(s, c.inner_sizes, codec),
            lambda nm: nested_container(nm, keys=keys))

    def test_nested(self):
        self.nested(None)

    def test_nested_keyed(self):
        self.nested(KEYS)


def _uvarint_loop(n):
    """The general LEB128 loop, without the single-byte shortcut."""
    out = bytearray()
    while True:
        b, n = n & 0x7F, n >> 7
        out.append(b | 0x80 if n else b)
        if not n:
            return bytes(out)


class TestVarint:
    @pytest.mark.parametrize("n", [0, 1, 127, 128, 16383, 16384, 2**63 - 1])
    def test_bytes_match_the_loop_and_decode_back(self, n):
        data = encode_uvarint(n)
        assert data == _uvarint_loop(n)
        assert type(data) is bytes
        assert decode_uvarint(data) == (n, len(data))

    def test_single_byte_values(self):
        assert encode_uvarint(0) == b"\x00"
        assert encode_uvarint(127) == b"\x7f"
        assert encode_uvarint(128) == b"\x80\x01"

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1)
        with pytest.raises(MszipError, match="unsigned"):
            encode_uvarint(-1)

    @pytest.mark.parametrize("kind,size,inner", [(KIND_FLAT, -1, ()),
                                                 (KIND_NESTED, 1, (-1,))],
                             ids=["size", "inner_size"])
    def test_pack_rejects_negative_sizes(self, kind, size, inner):
        cid, blob = codec_blob(PairCodec(15))
        with pytest.raises(MszipError, match="unsigned"):
            pack(Container(kind=kind, codec_id=cid, codec_blob=blob, size=size,
                           inner_sizes=inner, state=b"\x00" * 8))
