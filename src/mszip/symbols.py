"""Symbol codecs: quantized categorical, uniform integers, byte strings.

Every codec exposes ``encode(state, symbol) -> state`` and
``decode(state) -> (state, symbol)`` as exact inverses, plus ``bits(symbol)``,
the ideal code length of a symbol under the codec's model. Codecs do not
change after construction, apart from the decode table a categorical builds
once on its first decode, and never depend on anything but the state passed
in, so they compose freely with the sampling loops.

The coder head is canonical after every operation at any precision (see the
ans module notes). All shipped codecs use power-of-two precisions, under which
the peeked index is just the head's low bits.
"""

from __future__ import annotations

import heapq
import math
import struct
import sys
from array import array
from bisect import bisect_right
from itertools import repeat
from operator import index as _int

from .ans import L, CodeTriple, decode_advance, decode_peek, encode_op
from .errors import ContractError


def quantize_pmf(weights, precision) -> list[int]:
    """Round nonnegative weights to integer masses >= 1 summing to ``precision``.

    Floor-then-largest-remainder apportionment: ideal shares are floored (and
    raised to the minimum mass of 1), then the budget residue is settled one
    unit at a time, preferring the most under-served entry when adding and the
    most over-served entry above mass 1 when removing. Ties go to the lower
    index. Deterministic for a given input.
    """
    precision = _int(precision)
    weights = [float(w) for w in weights]
    n = len(weights)
    if n == 0:
        raise ContractError("need at least one weight")
    if any(w < 0 or not math.isfinite(w) for w in weights):
        raise ContractError("weights must be finite and nonnegative")
    total = math.fsum(weights)
    if total <= 0:
        raise ContractError("at least one weight must be positive")
    if n > precision:
        raise ContractError(f"{n} symbols need precision >= {n}, got {precision}")
    shares = [w / total * precision for w in weights]
    masses = [max(1, int(sh)) for sh in shares]
    residue = precision - sum(masses)
    if residue > 0:
        gaps = [m - sh for m, sh in zip(masses, shares)]
        # A stable sort of ascending indices leaves ties in index order.
        order = sorted(range(n), key=gaps.__getitem__)
        for k in order[:residue]:
            masses[k] += 1
    elif residue < 0:
        heap = [(shares[k] - masses[k], k) for k in range(n) if masses[k] > 1]
        heapq.heapify(heap)
        while residue:  # masses sum past precision >= n, so some mass is > 1
            _, k = heapq.heappop(heap)
            masses[k] -= 1
            residue += 1
            if masses[k] > 1:
                heapq.heappush(heap, (shares[k] - masses[k], k))
    return masses


def _check_pow2(precision):
    if precision < 1 or precision & (precision - 1):
        raise ContractError(f"precision must be a power of two, got {precision}")
    if precision > L:
        raise ContractError(f"precision {precision} exceeds {L}")


class QuantizedCategorical:
    """Finite alphabet with integer masses summing to a power-of-two precision.

    The constructor builds one table of code triples ``(cdf[k], pmf[k],
    precision)``, so encoding is a dictionary lookup of the symbol's position
    and one ``encode_op`` on that position's triple. Decoding peeks the index
    as the head's low bits, ``head & (precision - 1)``, which equals
    ``decode_peek`` because the precision is a power of two and the head is
    canonical. The index's top 16 bits then pick a bucket of a slot table,
    which holds the position whose interval contains the bucket's first
    index, plus a last entry for the final position: at most 2**16 + 1
    entries. Up to precision 2**16 each bucket is one index and the entry is
    the answer; above it, a binary search between the positions of this
    bucket and the next finishes the lookup. So up to precision 2**16 a
    decode takes the same steps whatever the alphabet. The table is built on
    the first decode, so codecs that only encode never pay for it.
    """

    __slots__ = ("alphabet", "pmf", "cdf", "precision", "_index", "_triples",
                 "_shift", "_slots")

    def __init__(self, alphabet, pmf):
        alphabet = list(alphabet)
        pmf = [_int(p) for p in pmf]
        if len(alphabet) != len(pmf):
            raise ContractError("alphabet and pmf lengths differ")
        if not alphabet:
            raise ContractError("alphabet is empty")
        if any(p < 1 for p in pmf):
            raise ContractError("all masses must be >= 1")
        precision = sum(pmf)
        _check_pow2(precision)
        cdf = []
        acc = 0
        for p in pmf:
            cdf.append(acc)
            acc += p
        index = {}
        prev = None
        for k, sym in enumerate(alphabet):
            if k and not prev < sym:
                raise ContractError("alphabet must be strictly increasing")
            prev = sym
            index[sym] = k
        self.alphabet = alphabet
        self.pmf = pmf
        self.cdf = cdf
        self.precision = precision
        self._index = index
        self._triples = list(zip(cdf, pmf, repeat(precision)))
        self._shift = max(0, precision.bit_length() - 17)  # bucket width, log2
        self._slots = None  # the slot table, built by the first decode

    @classmethod
    def from_weights(cls, alphabet, weights, precision=1 << 16):
        """Quantize real weights over a sorted alphabet at ``precision``."""
        _check_pow2(_int(precision))
        return cls(alphabet, quantize_pmf(weights, precision))

    def _position(self, sym) -> int:
        try:
            return self._index[sym]
        except (KeyError, TypeError):
            raise ContractError(f"symbol {sym!r} is not in the alphabet") from None

    def encode(self, state, sym):
        try:
            t = self._triples[self._index[sym]]
        except (KeyError, TypeError):
            raise ContractError(f"symbol {sym!r} is not in the alphabet") from None
        return encode_op(state, t)

    def _build_slots(self) -> array:
        # Bucket j starts at index j << shift, so symbol k's interval
        # [c, c + p) holds the first index of the buckets up to, not
        # including, ceil((c + p) / 2**shift), from where symbol k - 1 left off.
        shift = self._shift
        slots = array("I")
        for k, (c, p) in enumerate(zip(self.cdf, self.pmf)):
            slots.extend(repeat(k, -(-(c + p) >> shift) - len(slots)))
        slots.append(len(self.cdf) - 1)
        self._slots = slots
        return slots

    def decode(self, state):
        slots = self._slots
        if slots is None:
            slots = self._build_slots()
        i = state[0] & (self.precision - 1)
        j = i >> self._shift
        k = slots[j]
        # j == i when buckets are single indices (and at index 0): then k is
        # exact; otherwise search the intervals this bucket overlaps
        if j != i and k != slots[j + 1]:
            k = bisect_right(self.cdf, i, k, slots[j + 1] + 1) - 1
        return decode_advance(state, self._triples[k]), self.alphabet[k]

    def bits(self, sym) -> float:
        return math.log2(self.precision / self.pmf[self._position(sym)])


class UniformCodec:
    """Uniform distribution over the integers [0, size): mass 1, no tables."""

    __slots__ = ("size",)

    def __init__(self, size):
        size = _int(size)
        if not 1 <= size <= L:
            raise ContractError(f"size {size} outside [1, {L}]")
        self.size = size

    def encode(self, state, sym):
        sym = _int(sym)
        if not 0 <= sym < self.size:
            raise ContractError(f"symbol {sym} outside [0, {self.size})")
        return encode_op(state, CodeTriple(sym, 1, self.size))

    def decode(self, state):
        i = decode_peek(state, self.size)
        return decode_advance(state, CodeTriple(i, 1, self.size)), i

    def bits(self, sym) -> float:
        return math.log2(self.size)


# The code triple of each byte under the uniform byte model.
_BYTE_TRIPLES = tuple(CodeTriple(b, 1, 256) for b in range(256))
_WORDS_BE = struct.Struct(">I")
_BIG_ENDIAN = sys.byteorder == "big"
# 2**(8*m) and its mask, for the m-byte ops (m < 4)
_SPANS = (1, 1 << 8, 1 << 16, 1 << 24)
_MASKS = (0, 0xFF, 0xFFFF, 0xFFFFFF)


class ByteStringCodec:
    """Variable-length byte strings under a uniform byte model.

    Payload bytes are folded in reverse so they decode in natural order, then
    the length is folded with a uniform code over [0, max_len]. ``max_len`` is
    rounded up to ``2**k - 1``, which the container format stores, so the
    length code costs exactly k = log2(max_len + 1) bits per payload: the
    price of making concatenated payloads self-delimiting.

    The output is bit for bit that of one ``(b, 1, 256)`` op per byte, but up
    to three bytes share one ``encode_op``/``decode_advance`` call on the
    triple ``(c, 1, 2**(8*m))``, where ``c`` holds the m bytes little-endian
    (the byte decoded first is lowest). Such an op leaves the state that m
    byte ops leave when none of them spills or refills before the last: an
    encode needs a head of bit length below ``64 - 8*m``, or of at least 56
    so that both spill before the first byte; a decode needs one of at least
    ``24 + 8*m``. Each side takes the widest op its head allows: one aligning
    op brings the head to 56 bits or more, then 3-byte and 1-byte ops
    alternate, about one op per two bytes. The length is one more op.
    """

    __slots__ = ("max_len",)

    def __init__(self, max_len=255):
        max_len = _int(max_len)
        if max_len < 0:
            raise ContractError(f"max_len must be >= 0, got {max_len}")
        self.max_len = (1 << max_len.bit_length()) - 1
        if self.max_len >= L:
            raise ContractError(f"max_len {self.max_len} exceeds {L - 1}")

    def encode(self, state, payload: bytes):
        if len(payload) > self.max_len:
            raise ContractError(
                f"payload of {len(payload)} bytes exceeds max_len {self.max_len}")
        # bytes() keeps a sequence of ints from indexing the table out of range
        payload = bytes(payload)
        k = len(payload)
        m = (63 - state[0].bit_length()) >> 3  # 0 from 56 bits on
        if m > k:
            m = k
        if m:
            k -= m
            c = int.from_bytes(payload[k:k + m], "little")
            state = encode_op(state, (c, 1, _SPANS[m]))
        r = k & 3
        # Big-endian words of the reversed bytes are the little-endian words
        # of the payload, last first. Each is a 3-byte op, which spills, and
        # a 1-byte op, which cannot.
        for (w,) in _WORDS_BE.iter_unpack(payload[r:k][::-1]):
            state = encode_op(state, (w >> 8, 1, 1 << 24))
            state = encode_op(state, _BYTE_TRIPLES[w & 0xFF])
        if r:
            c = int.from_bytes(payload[:r], "little")
            state = encode_op(state, (c, 1, _SPANS[r]))
        return encode_op(state, (len(payload), 1, self.max_len + 1))

    def decode(self, state):
        k = state[0] & self.max_len  # the peeked index under precision max_len + 1
        state = decode_advance(state, (k, 1, self.max_len + 1))
        head = state[0]
        out = b""
        if head < 1 << 55:
            m = (head.bit_length() - 24) >> 3
            if m > k:
                m = k
            if m:
                k -= m
                c = head & _MASKS[m]
                state = decode_advance(state, (c, 1, _SPANS[m]))
                out = c.to_bytes(m, "little")
        if k >= 4:
            # The 3-byte op cannot refill, so one read of the head's low word
            # gives both ops of a group: its low 3 bytes, then its top byte.
            words = array("I")
            for _ in range(k >> 2):
                w = state[0] & 0xFFFFFFFF
                state = decode_advance(state, (w & 0xFFFFFF, 1, 1 << 24))
                state = decode_advance(state, _BYTE_TRIPLES[w >> 24])
                words.append(w)
            if _BIG_ENDIAN:
                words.byteswap()
            out += words.tobytes()
            k &= 3
        if k:
            c = state[0] & _MASKS[k]
            state = decode_advance(state, (c, 1, _SPANS[k]))
            out += c.to_bytes(k, "little")
        return state, out

    def bits(self, payload) -> float:
        return 8 * len(payload) + math.log2(self.max_len + 1)
