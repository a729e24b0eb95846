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
from array import array
from bisect import bisect_right
from itertools import accumulate, compress, count, islice, repeat
from operator import index as _int, lt, sub

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
    precision = _as_int(precision, "precision")
    try:
        weights = list(map(float, weights))
    except (TypeError, ValueError, OverflowError) as e:
        raise ContractError(f"weights must be real numbers: {e}") from None
    n = len(weights)
    if n == 0:
        raise ContractError("need at least one weight")
    if min(weights) < 0 or not all(map(math.isfinite, weights)):
        raise ContractError("weights must be finite and nonnegative")
    try:
        total = math.fsum(weights)
    except OverflowError:
        raise ContractError("weights sum past the largest float") from None
    if total <= 0:
        raise ContractError("at least one weight must be positive")
    if n > precision:
        raise ContractError(f"{n} symbols need precision >= {n}, got {precision}")
    shares = [w / total * precision for w in weights]
    masses = [int(sh) or 1 for sh in shares]  # max(1, floor): shares are >= 0
    residue = precision - sum(masses)
    if residue > 0:
        gaps = list(map(sub, masses, shares))
        # A stable sort of ascending indices leaves ties in index order.
        order = sorted(range(n), key=gaps.__getitem__)
        for k in order[:residue]:
            masses[k] += 1
    elif residue < 0:
        # (share - mass, k) for every mass above 1
        heap = list(compress(zip(map(sub, shares, masses), count()),
                             map(lt, repeat(1), masses)))
        heapq.heapify(heap)
        while residue:  # masses sum past precision >= n, so some mass is > 1
            _, k = heapq.heappop(heap)
            masses[k] -= 1
            residue += 1
            if masses[k] > 1:
                heapq.heappush(heap, (shares[k] - masses[k], k))
    return masses


def _as_int(value, what: str) -> int:
    try:
        return _int(value)
    except TypeError:
        raise ContractError(
            f"{what} must be an integer, got {type(value).__name__}") from None


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
        try:
            pmf = list(map(_int, pmf))
        except TypeError as e:
            raise ContractError(f"masses must be integers: {e}") from None
        if len(alphabet) != len(pmf):
            raise ContractError("alphabet and pmf lengths differ")
        if not alphabet:
            raise ContractError("alphabet is empty")
        if min(pmf) < 1:
            raise ContractError("all masses must be >= 1")
        precision = sum(pmf)
        _check_pow2(precision)
        try:  # islices, not slices: no copies at the peak of a large build
            increasing = all(map(lt, alphabet, islice(alphabet, 1, None)))
            index = dict(zip(alphabet, range(len(alphabet))))
        except TypeError as e:
            raise ContractError(
                f"alphabet symbols must be hashable and comparable: {e}") from None
        if not increasing:
            raise ContractError("alphabet must be strictly increasing")
        self.alphabet = alphabet
        self.pmf = pmf
        self.cdf = cdf = list(accumulate(islice(pmf, len(pmf) - 1), initial=0))
        self.precision = precision
        self._index = index
        self._triples = list(zip(cdf, pmf, repeat(precision)))
        self._shift = max(0, precision.bit_length() - 17)  # bucket width, log2
        self._slots = None  # the slot table, built by the first decode

    @classmethod
    def from_weights(cls, alphabet, weights, precision=1 << 16):
        """Quantize real weights over a sorted alphabet at ``precision``."""
        _check_pow2(_as_int(precision, "precision"))
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
        size = _as_int(size, "size")
        if not 1 <= size <= L:
            raise ContractError(f"size {size} outside [1, {L}]")
        self.size = size

    def encode(self, state, sym):
        sym = _as_int(sym, "symbol")
        if not 0 <= sym < self.size:
            raise ContractError(f"symbol {sym} outside [0, {self.size})")
        return encode_op(state, CodeTriple(sym, 1, self.size))

    def decode(self, state):
        i = decode_peek(state, self.size)
        return decode_advance(state, CodeTriple(i, 1, self.size)), i

    def bits(self, sym) -> float:
        return math.log2(self.size)


# 2**(8*r), the precision of an op on r payload bytes
_SPANS = (1, 1 << 8, 1 << 16, 1 << 24)
# From this many bytes in whole chunks on, encode reads the chunks with one
# struct call; below it, reading each chunk alone costs less. Timed per
# payload length on Python 3.11.7, 2 vCPUs: one chunk at a time wins up to
# 15 bytes, the two tie at 18, the struct call wins from 21 on.
_PACK_FROM = 21


def _as_bytes(payload) -> bytes:
    """A payload that is not ``bytes`` as ``bytes``: bytes-like data or a
    sequence of integers in [0, 256)."""
    if isinstance(payload, (str, int)):
        raise ContractError(f"payload must be bytes, not {type(payload).__name__}")
    try:
        return bytes(payload)
    except ValueError:
        raise ContractError("payload item outside a byte, [0, 256)") from None
    except TypeError:
        raise ContractError(
            f"{type(payload).__name__} payload is not a sequence of byte values") from None


class ByteStringCodec:
    """Variable-length byte strings under a uniform byte model.

    A payload of k bytes is cut into q = k // 3 chunks of three bytes and a
    tail of r = k % 3. Each is one uniform op whose symbol is its bytes read
    little-endian, so the byte decoded first is the lowest: the tail is
    encoded first, as ``(c, 1, 2**(8*r))``, then the chunks, last first, as
    ``(c, 1, 2**24)``, so they decode in natural order. Three bytes are the
    most one op can carry, as an op's precision is at most ``L = 2**31``.
    The length is folded last with a uniform code over [0, max_len].
    ``max_len`` is rounded up to ``2**k - 1``, which the container format
    stores, so the length code costs exactly k = log2(max_len + 1) bits per
    payload: the price of making concatenated payloads self-delimiting. Every
    op has a power-of-two precision, so a payload costs exactly 8 bits per
    byte, and the decoder peeks each chunk as ``head & 0xFFFFFF``.

    Encode reads the chunks of a long payload with extended slices and one
    ``struct`` call, and those of a short one one at a time, whichever costs
    less (``_PACK_FROM``); decode appends each chunk's three bytes.
    """

    __slots__ = ("max_len",)

    def __init__(self, max_len=255):
        max_len = _as_int(max_len, "max_len")
        if max_len < 0:
            raise ContractError(f"max_len must be >= 0, got {max_len}")
        self.max_len = (1 << max_len.bit_length()) - 1
        if self.max_len >= L:
            raise ContractError(f"max_len {self.max_len} exceeds {L - 1}")

    def encode(self, state, payload: bytes):
        if type(payload) is not bytes:
            payload = _as_bytes(payload)
        k = len(payload)
        if k > self.max_len:
            raise ContractError(f"payload of {k} bytes exceeds max_len {self.max_len}")
        q = k - k % 3  # the bytes in whole chunks
        if q < k:
            state = encode_op(
                state, (int.from_bytes(payload[q:], "little"), 1, _SPANS[k - q]))
        if q < _PACK_FROM:
            for i in range(q - 3, -1, -3):
                c = int.from_bytes(payload[i:i + 3], "little")
                state = encode_op(state, (c, 1, 1 << 24))
        else:
            # each chunk under a zero top byte, read as a little-endian word
            words = bytearray(q // 3 * 4)
            words[0::4] = payload[0:q:3]
            words[1::4] = payload[1:q:3]
            words[2::4] = payload[2:q:3]
            for c in reversed(struct.unpack(f"<{q // 3}I", words)):
                state = encode_op(state, (c, 1, 1 << 24))
        return encode_op(state, (k, 1, self.max_len + 1))

    def decode(self, state):
        k = state[0] & self.max_len  # the peeked index under precision max_len + 1
        state = decode_advance(state, (k, 1, self.max_len + 1))
        out = bytearray()
        for _ in range(k // 3):
            c = state[0] & 0xFFFFFF
            state = decode_advance(state, (c, 1, 1 << 24))
            out += c.to_bytes(3, "little")
        r = k % 3
        if r:
            c = state[0] & (_SPANS[r] - 1)
            state = decode_advance(state, (c, 1, _SPANS[r]))
            out += c.to_bytes(r, "little")
        return state, bytes(out)

    def bits(self, payload) -> float:
        """The payload's ideal code length; refuses what ``encode`` refuses."""
        k = len(payload if type(payload) is bytes else _as_bytes(payload))
        if k > self.max_len:
            raise ContractError(f"payload of {k} bytes exceeds max_len {self.max_len}")
        return 8 * k + math.log2(self.max_len + 1)
