"""Shared test utilities: independent oracles and data builders."""

import math
import random
from dataclasses import dataclass
from operator import index as _int

from mszip import CodeTriple, ContractError, L, Multiset, UniformCodec
from mszip.ans import WORD_BITS, _checked


def linear_forward(pairs, sym):
    """Linear-scan oracle for forward_lookup over canonical (sym, count) pairs."""
    c = 0
    for s, cnt in pairs:
        if s == sym:
            return c, cnt
        if s > sym:
            break
        c += cnt
    raise KeyError(sym)


def linear_reverse(pairs, i):
    """Linear-scan oracle for reverse_lookup."""
    c = 0
    for s, cnt in pairs:
        if i < c + cnt:
            return s, c, cnt
        c += cnt
    raise IndexError(i)


def random_triple(rng: random.Random, max_n=1 << 15) -> CodeTriple:
    n = rng.randint(1, max_n)
    p = rng.randint(1, n)
    c = rng.randint(0, n - p)
    return CodeTriple(c, p, n)


def random_multiset(rng: random.Random, max_total=256, alphabet=1 << 16) -> Multiset:
    """Mixed repeat profiles: unique-heavy, skewed, all-same."""
    total = rng.randint(1, max_total)
    profile = rng.randrange(4)
    if profile == 0:  # mostly unique
        syms = [rng.randrange(alphabet) for _ in range(total)]
    elif profile == 1:  # few symbols, heavy repeats
        pool = [rng.randrange(alphabet) for _ in range(max(1, total // 8))]
        syms = [rng.choice(pool) for _ in range(total)]
    elif profile == 2:  # geometric-ish run lengths
        syms = []
        while len(syms) < total:
            s = rng.randrange(alphabet)
            run = min(total - len(syms), 1 + int(rng.expovariate(0.5)))
            syms.extend([s] * run)
    else:  # single symbol
        syms = [rng.randrange(alphabet)] * total
    return Multiset.from_iterable(syms)


def fractional_bits(s) -> float:
    """Smooth state length, 32 * words + log2(head); for rate measurements."""
    k = 0
    w = s.words
    while w:
        k += 1
        w = w[1]
    return WORD_BITS * k + math.log2(s.head)


@dataclass(frozen=True)
class ExactAnsState:
    """Reference coder on one unbounded natural number, no renormalization.

    Slow but exactly matches the coding equations; the test oracle for the
    streaming implementation.
    """

    value: int = L

    def encode_op(self, t) -> "ExactAnsState":
        c, p, n = _checked(t)
        v = self.value
        return ExactAnsState(n * (v // p) + c + v % p)

    def decode_peek(self, n) -> int:
        n = _int(n)
        if n < 1 or n > L:
            raise ContractError(f"precision {n} outside [1, {L}]")
        return self.value % n

    def decode_advance(self, t) -> "ExactAnsState":
        c, p, n = _checked(t)
        i = self.value % n
        if not c <= i < c + p:
            raise ContractError(f"peek index {i} outside [{c}, {c + p})")
        return ExactAnsState(p * (self.value // n) + i - c)

    def length_bits(self) -> int:
        return self.value.bit_length()


def byte_string_encode_chain(codec, state, payload):
    """``ByteStringCodec.encode`` as a chain of codec calls: one
    ``UniformCodec(256)`` encode per byte, last byte first, then the length
    under ``UniformCodec(max_len + 1)``. The oracle for the byte codec."""
    byte_code = UniformCodec(256)
    for b in reversed(payload):
        state = byte_code.encode(state, b)
    return UniformCodec(codec.max_len + 1).encode(state, len(payload))


def byte_string_decode_chain(codec, state):
    """Inverse of ``byte_string_encode_chain``."""
    state, n = UniformCodec(codec.max_len + 1).decode(state)
    byte_code = UniformCodec(256)
    out = bytearray()
    for _ in range(n):
        state, b = byte_code.decode(state)
        out.append(b)
    return state, bytes(out)
