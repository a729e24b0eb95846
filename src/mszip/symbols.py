"""Symbol codecs: quantized categorical, uniform integers, byte strings.

Every codec exposes ``encode(state, symbol) -> state`` and
``decode(state) -> (state, symbol)`` as exact inverses, plus ``bits(symbol)``,
the ideal code length of a symbol under the codec's model. Codecs are
immutable after construction and never depend on anything but the state
passed in, so they compose freely with the sampling loops.

All shipped codecs use power-of-two precisions, which keeps the coder head in
its canonical range after every operation (see the ans module notes).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from operator import index as _int

from .ans import L, CodeTriple, decode_advance, decode_peek, encode_op
from .errors import CapacityError, ContractError, NotFoundError


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
        raise CapacityError(f"{n} symbols need precision >= {n}, got {precision}")
    shares = [w / total * precision for w in weights]
    masses = [max(1, int(sh)) for sh in shares]
    residue = precision - sum(masses)
    if residue > 0:
        order = sorted(range(n), key=lambda k: (masses[k] - shares[k], k))
        for k in order[:residue]:
            masses[k] += 1
    elif residue < 0:
        heap = [(shares[k] - masses[k], k) for k in range(n) if masses[k] > 1]
        heapq.heapify(heap)
        while residue:
            if not heap:
                raise ContractError("cannot satisfy minimum masses")  # unreachable
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

    Encoding reads the (c, p) interval straight from the tables; decoding
    binary-searches the cumulative table for the interval containing the
    peeked index, so it costs O(log alphabet) regardless of masses.
    """

    __slots__ = ("alphabet", "pmf", "cdf", "precision", "_index")

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

    @classmethod
    def from_weights(cls, alphabet, weights, precision=1 << 16):
        """Quantize real weights over a sorted alphabet at ``precision``."""
        _check_pow2(_int(precision))
        return cls(alphabet, quantize_pmf(weights, precision))

    def triple(self, sym) -> CodeTriple:
        try:
            k = self._index[sym]
        except (KeyError, TypeError):
            raise NotFoundError(sym) from None
        return CodeTriple(self.cdf[k], self.pmf[k], self.precision)

    def encode(self, state, sym):
        return encode_op(state, self.triple(sym))

    def decode(self, state):
        i = decode_peek(state, self.precision)
        k = bisect_right(self.cdf, i) - 1
        t = CodeTriple(self.cdf[k], self.pmf[k], self.precision)
        return decode_advance(state, t), self.alphabet[k]

    def bits(self, sym) -> float:
        try:
            k = self._index[sym]
        except (KeyError, TypeError):
            raise NotFoundError(sym) from None
        return math.log2(self.precision / self.pmf[k])


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
            raise NotFoundError(sym)
        return encode_op(state, CodeTriple(sym, 1, self.size))

    def decode(self, state):
        i = decode_peek(state, self.size)
        return decode_advance(state, CodeTriple(i, 1, self.size)), i

    def bits(self, sym) -> float:
        return math.log2(self.size)


# The code triple of each byte under the uniform byte model.
_BYTE_TRIPLES = tuple(CodeTriple(b, 1, 256) for b in range(256))


class ByteStringCodec:
    """Variable-length byte strings under a uniform byte model.

    Payload bytes are folded in reverse so they decode in natural order, then
    the length is folded with a uniform code over [0, max_len]. ``max_len`` is
    rounded up to ``2**k - 1`` so both codes keep the coder head canonical;
    the length code then costs exactly k = log2(max_len + 1) bits per payload,
    which is the price of making concatenated payloads self-delimiting.

    Each byte is one ``encode_op``/``decode_advance`` call on its triple from
    ``_BYTE_TRIPLES``, with no codec frame in between.
    """

    __slots__ = ("max_len", "_len_code")

    def __init__(self, max_len=255):
        max_len = _int(max_len)
        if max_len < 0:
            raise ContractError(f"max_len must be >= 0, got {max_len}")
        self.max_len = (1 << max_len.bit_length()) - 1
        self._len_code = UniformCodec(self.max_len + 1)

    def encode(self, state, payload: bytes):
        if len(payload) > self.max_len:
            raise CapacityError(
                f"payload of {len(payload)} bytes exceeds max_len {self.max_len}")
        # bytes() keeps a sequence of ints from indexing the table out of range
        for b in reversed(bytes(payload)):
            state = encode_op(state, _BYTE_TRIPLES[b])
        return self._len_code.encode(state, len(payload))

    def decode(self, state):
        state, n = self._len_code.decode(state)
        out = bytearray()
        for _ in range(n):
            b = state[0] & 0xFF  # the peeked index under precision 256
            state = decode_advance(state, _BYTE_TRIPLES[b])
            out.append(b)
        return state, bytes(out)

    def bits(self, payload) -> float:
        return 8 * len(payload) + math.log2(self.max_len + 1)
