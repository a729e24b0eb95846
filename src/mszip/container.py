"""On-disk container: header, checksum, and the flattened coder state.

Layout (integers big-endian, varints LEB128):

    magic    4 bytes   b"MSZ1"
    version  1 byte    currently 1
    codec    1 byte    1 = byte strings, 2 = categorical over byte strings
    params   varint length, then the codec parameter blob
    kind     1 byte    0 = flat multiset, 1 = nested (records of pairs)
    count    varint    number of symbols (flat) or records (nested)
    sizes    nested only: count varints, inner sizes in encode order
    crc      4 bytes   CRC-32C of everything after the magic except this field
    state    rest      serialized ANS state

Codec parameter blobs:

    byte strings: varint max_len (the effective, power-of-two-minus-one value)
    categorical:  varint precision, varint n, then n length-prefixed symbols
                  and n varint masses

The checksum exists because ANS decoding cannot detect corruption on its own;
a mismatched or truncated container fails loudly before any decode starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from struct import iter_unpack

from .errors import ContractError, FormatError
from .nested import PairCodec
from .symbols import ByteStringCodec, QuantizedCategorical
from .varint import decode_uvarint, encode_uvarint

MAGIC = b"MSZ1"
VERSION = 1

CODEC_BYTES = 1
CODEC_CATEGORICAL = 2

KIND_FLAT = 0
KIND_NESTED = 1


def _make_crc_tables():
    """Slicing-by-8 tables: ``tables[k][b]`` is the CRC register after byte
    ``b`` and then ``k`` zero bytes, so ``tables[0]`` is the byte table."""
    poly = 0x82F63B78  # Castagnoli, reflected
    table = []
    for k in range(256):
        crc = k
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        table.append(crc)
    tables = [table]
    for _ in range(7):
        tables.append([(v >> 8) ^ table[v & 0xFF] for v in tables[-1]])
    return tables


_CRC_TABLES = _make_crc_tables()


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C (Castagnoli). Not zlib.crc32, which uses the IEEE polynomial.

    Slicing-by-8 (Kounavis & Berry 2005): each step folds eight bytes, the
    first four as a little-endian word into the register and the last four
    by table alone, then the tail goes byte by byte.
    """
    t0, t1, t2, t3, t4, t5, t6, t7 = _CRC_TABLES
    crc ^= 0xFFFFFFFF
    data = memoryview(data)
    n = len(data) & ~7
    for w, b4, b5, b6, b7 in iter_unpack("<I4B", data[:n]):
        w ^= crc
        crc = (t7[w & 0xFF] ^ t6[(w >> 8) & 0xFF] ^ t5[(w >> 16) & 0xFF]
               ^ t4[w >> 24] ^ t3[b4] ^ t2[b5] ^ t1[b6] ^ t0[b7])
    for b in data[n:]:
        crc = (crc >> 8) ^ t0[(crc ^ b) & 0xFF]
    return crc ^ 0xFFFFFFFF


@dataclass(frozen=True)
class Container:
    kind: int
    codec_id: int
    codec_blob: bytes
    size: int
    inner_sizes: tuple  # encode order; empty for flat containers
    state: bytes


def codec_blob(codec) -> tuple[int, bytes]:
    """Serialize a codec's identity and parameters for the header."""
    if isinstance(codec, PairCodec):
        codec = codec.strings
    if isinstance(codec, ByteStringCodec):
        return CODEC_BYTES, encode_uvarint(codec.max_len)
    if isinstance(codec, QuantizedCategorical):
        parts = [encode_uvarint(codec.precision), encode_uvarint(len(codec.alphabet))]
        for sym in codec.alphabet:
            if not isinstance(sym, bytes):
                raise FormatError("only byte-string categorical alphabets are storable")
            parts.append(encode_uvarint(len(sym)))
            parts.append(sym)
        for p in codec.pmf:
            parts.append(encode_uvarint(p))
        return CODEC_CATEGORICAL, b"".join(parts)
    raise FormatError(f"cannot serialize codec {type(codec).__name__}")


def codec_from_blob(kind: int, codec_id: int, blob: bytes):
    """Rebuild the symbol codec a container was written with. Parameters its
    constructor rejects are a damaged header: a ``FormatError``, same message."""
    try:
        if codec_id == CODEC_BYTES:
            max_len, pos = decode_uvarint(blob)
            if pos != len(blob):
                raise FormatError("trailing bytes in codec parameters")
            return PairCodec(max_len) if kind == KIND_NESTED else ByteStringCodec(max_len)
        if codec_id == CODEC_CATEGORICAL:
            if kind == KIND_NESTED:
                raise FormatError("nested containers require the byte-string codec")
            precision, pos = decode_uvarint(blob)
            n, pos = decode_uvarint(blob, pos)
            alphabet = []
            for _ in range(n):
                ln, pos = decode_uvarint(blob, pos)
                if pos + ln > len(blob):
                    raise FormatError("truncated codec alphabet")
                alphabet.append(blob[pos : pos + ln])
                pos += ln
            pmf = []
            for _ in range(n):
                mass, pos = decode_uvarint(blob, pos)
                pmf.append(mass)
            if pos != len(blob):
                raise FormatError("trailing bytes in codec parameters")
            codec = QuantizedCategorical(alphabet, pmf)
            if codec.precision != precision:
                raise FormatError("codec masses do not sum to the stated precision")
            return codec
    except ContractError as e:
        raise FormatError(str(e)) from None
    raise FormatError(f"unknown codec id {codec_id}")


def pack(c: Container) -> bytes:
    if c.kind not in (KIND_FLAT, KIND_NESTED):
        raise FormatError(f"unknown payload kind {c.kind}")
    if c.kind == KIND_NESTED and len(c.inner_sizes) != c.size:
        raise FormatError("inner size list does not match the record count")
    body = bytearray()
    body.append(VERSION)
    body.append(c.codec_id)
    body += encode_uvarint(len(c.codec_blob))
    body += c.codec_blob
    body.append(c.kind)
    body += encode_uvarint(c.size)
    if c.kind == KIND_NESTED:
        for s in c.inner_sizes:
            body += encode_uvarint(s)
    crc = crc32c(bytes(body) + c.state)
    return MAGIC + bytes(body) + crc.to_bytes(4, "big") + c.state


def unpack(data: bytes) -> Container:
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError("bad magic; not a container")
    pos = 4
    if pos >= len(data):
        raise FormatError("truncated header")
    version = data[pos]
    pos += 1
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if pos >= len(data):
        raise FormatError("truncated header")
    codec_id = data[pos]
    pos += 1
    blob_len, pos = decode_uvarint(data, pos)
    if pos + blob_len > len(data):
        raise FormatError("truncated codec parameters")
    blob = data[pos : pos + blob_len]
    pos += blob_len
    if pos >= len(data):
        raise FormatError("truncated header")
    kind = data[pos]
    pos += 1
    if kind not in (KIND_FLAT, KIND_NESTED):
        raise FormatError(f"unknown payload kind {kind}")
    size, pos = decode_uvarint(data, pos)
    inner_sizes = []
    if kind == KIND_NESTED:
        for _ in range(size):
            s, pos = decode_uvarint(data, pos)
            inner_sizes.append(s)
    if pos + 4 > len(data):
        raise FormatError("truncated checksum")
    stored = int.from_bytes(data[pos : pos + 4], "big")
    state = data[pos + 4 :]
    actual = crc32c(data[4:pos] + state)
    if stored != actual:
        raise FormatError(f"checksum mismatch: stored {stored:#010x}, computed {actual:#010x}")
    return Container(kind=kind, codec_id=codec_id, codec_blob=bytes(blob),
                     size=size, inner_sizes=tuple(inner_sizes), state=state)
