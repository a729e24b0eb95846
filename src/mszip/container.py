"""On-disk container: header, checksum, and the flattened coder state.

Layout (integers big-endian, varints LEB128):

    magic    4 bytes   b"MSZ1"
    version  1 byte    currently 2
    codec    1 byte    1 = byte strings, 2 = categorical over byte strings
                       (nested: 1 = byte keys, 2 = keys under a categorical)
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

A nested container's codec codes each (key, value) pair. Codec 1 codes keys
and values as byte strings, with the byte-strings blob. Codec 2 codes values
as byte strings and keys under a categorical over the keys; its blob is the
values' varint max_len followed by the categorical blob of the keys.

Version 2 codes each byte string of k bytes as the ops (decode order) of
its length, under a uniform code over [0, max_len], then of each 3-byte
chunk, ``(c, 1, 2**24)``, then of the last k % 3 bytes, ``(c, 1,
2**(8*(k % 3)))``, where ``c`` holds the bytes little-endian. Version 1 coded
the same strings as one op per byte; this reader refuses it.

The checksum exists because ANS decoding cannot detect corruption on its own;
a mismatched or truncated container fails loudly before any decode starts.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ContractError, FormatError
from .nested import PairCodec
from .symbols import ByteStringCodec, QuantizedCategorical
from .varint import decode_uvarint, encode_uvarint

MAGIC = b"MSZ1"
VERSION = 2

CODEC_BYTES = 1
CODEC_CATEGORICAL = 2

KIND_FLAT = 0
KIND_NESTED = 1


_CRC_POLY = 0x11EDC6F41  # Castagnoli, x^32 + ... + 1, unreflected
_CRC_CHUNK = 1 << 15  # bytes folded per big-int pass; caps the temporaries
# each byte with its bits reversed: reflected input as a plain polynomial
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _rev32(v: int) -> int:
    return int.from_bytes(v.to_bytes(4, "little").translate(_REV8), "big")


def _crc_fold_shifts():
    """For each ``j``, the exponents of x^(2^j) mod P, by repeated squaring,
    up to the widest chunk's fold."""
    shifts = []
    r = 2  # x
    for _ in range((8 * _CRC_CHUNK).bit_length()):
        shifts.append(tuple(b for b in range(32) if r >> b & 1))
        sq = 0
        for b in shifts[-1]:  # r·r, carry-less
            sq ^= r << b
        r = sq
        while r.bit_length() > 32:
            r ^= _CRC_POLY << (r.bit_length() - 33)
    return tuple(shifts)


_CRC_FOLD = _crc_fold_shifts()


def _crc32c_chunk(data, crc: int) -> int:
    """``crc32c`` of at most one chunk."""
    a = (int.from_bytes(bytes(data).translate(_REV8), "big") << 32
         ^ _rev32(crc ^ 0xFFFFFFFF) << 8 * len(data))
    bits = a.bit_length()
    while bits > 96:  # hi·x^k + lo becomes hi·(x^k mod P) + lo, k = 2^j
        j = (bits - 33).bit_length() - 1
        k = 1 << j
        hi = a >> k
        a &= (1 << k) - 1
        for b in _CRC_FOLD[j]:
            a ^= hi << b
        bits = a.bit_length()
    while bits > 32:
        a ^= _CRC_POLY << (bits - 33)
        bits = a.bit_length()
    return _rev32(a) ^ 0xFFFFFFFF


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C (Castagnoli). Not zlib.crc32, which uses the IEEE polynomial.

    The message is read as one polynomial over GF(2), its bytes bit-reversed
    so the reflected CRC becomes a plain remainder: ``rev32((M·x^32 +
    rev32(crc ^ 0xFFFFFFFF)·x^(8·len)) mod P) ^ 0xFFFFFFFF``. The remainder
    is taken by folding (Gopal et al., Intel 2009): the part above x^k is
    multiplied carry-less by x^k mod P, for the largest power of two k that
    still shortens the value, until 96 bits are left, then bit by bit. The
    big-int shifts and xors run in C; chunks of 32 KiB chain through ``crc``.
    """
    data = memoryview(data)
    for i in range(0, len(data), _CRC_CHUNK):
        crc = _crc32c_chunk(data[i : i + _CRC_CHUNK], crc)
    return crc


class Container(NamedTuple):
    kind: int
    codec_id: int
    codec_blob: bytes
    size: int
    inner_sizes: tuple  # encode order; empty for flat containers
    state: bytes


def _categorical_blob(codec: QuantizedCategorical) -> bytes:
    parts = [encode_uvarint(codec.precision), encode_uvarint(len(codec.alphabet))]
    for sym in codec.alphabet:
        if not isinstance(sym, bytes):
            raise FormatError("only byte-string categorical alphabets are storable")
        parts.append(encode_uvarint(len(sym)))
        parts.append(sym)
    for p in codec.pmf:
        parts.append(encode_uvarint(p))
    return b"".join(parts)


def codec_blob(codec) -> tuple[int, bytes]:
    """Serialize a codec's identity and parameters for the header."""
    if isinstance(codec, PairCodec):
        if isinstance(codec.keys, QuantizedCategorical):
            return CODEC_CATEGORICAL, (encode_uvarint(codec.strings.max_len)
                                       + _categorical_blob(codec.keys))
        if codec.keys is not codec.strings:
            raise FormatError(f"cannot serialize key codec {type(codec.keys).__name__}")
        codec = codec.strings
    if isinstance(codec, ByteStringCodec):
        return CODEC_BYTES, encode_uvarint(codec.max_len)
    if isinstance(codec, QuantizedCategorical):
        return CODEC_CATEGORICAL, _categorical_blob(codec)
    raise FormatError(f"cannot serialize codec {type(codec).__name__}")


def _take(data, pos: int, n: int, what: str):
    """The ``n`` bytes of ``data`` at ``pos`` and the position after them."""
    end = pos + n
    if end > len(data):
        raise FormatError(f"truncated {what}")
    return data[pos:end], end


def _end(blob, pos: int) -> None:
    if pos != len(blob):
        raise FormatError("trailing bytes in codec parameters")


def _categorical_from_blob(blob: bytes, pos: int) -> QuantizedCategorical:
    """The categorical whose parameters fill ``blob`` from ``pos`` to its end."""
    precision, pos = decode_uvarint(blob, pos)
    n, pos = decode_uvarint(blob, pos)
    alphabet = []
    for _ in range(n):
        ln, pos = decode_uvarint(blob, pos)
        sym, pos = _take(blob, pos, ln, "codec alphabet")
        alphabet.append(sym)
    pmf = []
    for _ in range(n):
        mass, pos = decode_uvarint(blob, pos)
        pmf.append(mass)
    _end(blob, pos)
    codec = QuantizedCategorical(alphabet, pmf)
    if codec.precision != precision:
        raise FormatError("codec masses do not sum to the stated precision")
    return codec


def codec_from_blob(kind: int, codec_id: int, blob: bytes):
    """Rebuild the symbol codec a container was written with. Parameters its
    constructor rejects are a damaged header: a ``FormatError``, same message."""
    try:
        if codec_id == CODEC_BYTES:
            max_len, pos = decode_uvarint(blob)
            _end(blob, pos)
            return PairCodec(max_len) if kind == KIND_NESTED else ByteStringCodec(max_len)
        if codec_id == CODEC_CATEGORICAL:
            if kind == KIND_NESTED:  # the values' max_len, then the keys
                max_len, pos = decode_uvarint(blob)
                return PairCodec(max_len, _categorical_from_blob(blob, pos))
            return _categorical_from_blob(blob, 0)
    except ContractError as e:
        raise FormatError(str(e)) from None
    raise FormatError(f"unknown codec id {codec_id}")


def pack(c: Container) -> bytes:
    if c.kind not in (KIND_FLAT, KIND_NESTED):
        raise FormatError(f"unknown payload kind {c.kind}")
    if not (isinstance(c.codec_id, int) and 0 <= c.codec_id <= 255):
        raise ContractError(f"codec_id must be an integer in [0, 255], got {c.codec_id!r}")
    if not isinstance(c.size, int):
        raise ContractError(f"size must be an integer, got {type(c.size).__name__}")
    for name, value in (("codec_blob", c.codec_blob), ("state", c.state)):
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise ContractError(f"{name} must be bytes, got {type(value).__name__}")
    if not isinstance(c.inner_sizes, (tuple, list)):
        raise ContractError("inner_sizes must be a tuple or list, "
                            f"got {type(c.inner_sizes).__name__}")
    bad = [type(n).__name__ for n in c.inner_sizes if not isinstance(n, int)]
    if bad:
        raise ContractError(f"inner_sizes must hold integers, got {bad[0]}")
    if len(c.inner_sizes) != (c.size if c.kind == KIND_NESTED else 0):
        raise FormatError("inner size list does not match the record count")
    # the sizes as one part: bytes.join holds an 80-byte buffer view per part
    body = b"".join((bytes((VERSION, c.codec_id)), encode_uvarint(len(c.codec_blob)),
                     c.codec_blob, bytes((c.kind,)), encode_uvarint(c.size),
                     bytes(b for n in c.inner_sizes for b in encode_uvarint(n))))
    crc = crc32c(c.state, crc32c(body))
    return MAGIC + body + crc.to_bytes(4, "big") + c.state


def unpack(data: bytes) -> Container:
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError("bad magic; not a container")
    (version,), pos = _take(data, 4, 1, "header")
    if version != VERSION:
        raise FormatError(f"container version {version} is not supported; "
                          f"this reader reads version {VERSION}")
    (codec_id,), pos = _take(data, pos, 1, "header")
    blob_len, pos = decode_uvarint(data, pos)
    blob, pos = _take(data, pos, blob_len, "codec parameters")
    (kind,), pos = _take(data, pos, 1, "header")
    if kind not in (KIND_FLAT, KIND_NESTED):
        raise FormatError(f"unknown payload kind {kind}")
    size, pos = decode_uvarint(data, pos)
    inner_sizes = []
    for _ in range(size if kind == KIND_NESTED else 0):
        s, pos = decode_uvarint(data, pos)
        inner_sizes.append(s)
    stored, pos = _take(data, pos, 4, "checksum")
    state = data[pos:]
    actual = crc32c(state, crc32c(data[4 : pos - 4]))
    stored = int.from_bytes(stored, "big")
    if stored != actual:
        raise FormatError(f"checksum mismatch: stored {stored:#010x}, computed {actual:#010x}")
    return Container(kind=kind, codec_id=codec_id, codec_blob=bytes(blob),
                     size=size, inner_sizes=tuple(inner_sizes), state=state)
