"""LEB128-style unsigned varints for headers and canonical keys."""

from .errors import ContractError, FormatError


def encode_uvarint(n: int) -> bytes:
    if n < 0:
        raise ContractError("varints are unsigned")
    if n < 0x80:
        return bytes((n,))
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def decode_uvarint(data: bytes, pos: int = 0) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise FormatError("truncated varint")
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise FormatError("varint too long")
