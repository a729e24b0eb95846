"""Stack-based asymmetric numeral systems (ANS) coder.

The coder state is a pair ``(head, words)``: a 64-bit working integer plus a
stack of 32-bit overflow words. ``encode_op`` mixes a symbol interval into the
head, spilling its low word onto the stack when the head would overflow, and
``decode_advance`` is the exact inverse, refilling the head from the stack when
it would drop below ``L``. At operation boundaries the head stays inside
``[N*(L//N), B*L)``, which is exactly the canonical range ``[L, B*L)`` whenever
the precision ``N`` divides ``L`` (every power of two up to ``2**31`` does).

Unlike the usual power-of-two-only formulation, the precision ``N`` may be any
integer in ``[1, L]`` and may change per operation. That is what lets a single
state both encode symbols under a model and *sample* from a frequency table
whose total is not a power of two: decoding under a distribution that was not
the last one encoded draws a reproducible sample and consumes state bits,
and re-encoding the sample restores the state exactly.

The word stack sits conceptually on top of an infinite pool of zero words:
popping from an empty stack yields a zero word, and pushing a zero word onto an
empty stack is a no-op (the word rejoins the pool). The two rules are mutually
consistent, keep states canonical (the bottom stored word is never zero), and
make sampling from a fresh, minimal state invertible bit for bit. A fresh
state thus acts as a deterministic source of "random" zero bits whose cost
shows up only as a small one-time overhead in the final length.
"""

from __future__ import annotations

import sys
from array import array
from operator import index as _int
from typing import NamedTuple

from .errors import ContractError, FormatError

HEAD_BITS = 64
WORD_BITS = 32
B = 1 << WORD_BITS            # base of the word stack
L = 1 << (HEAD_BITS - WORD_BITS - 1)  # lower renormalization bound, 2**31
_WORD_MASK = B - 1


class CodeTriple(NamedTuple):
    """Quantized symbol interval: cumulative count c, mass p, precision n.

    Models the interval [c, c+p) out of [0, n); requires 1 <= p, 0 <= c,
    c + p <= n and n <= L.
    """

    c: int
    p: int
    n: int


class AnsState(NamedTuple):
    """Immutable coder state. ``words`` is a cons list: () or (word, rest).

    Equality walks the cons list iteratively; tuple recursion would overflow
    on deep stacks.
    """

    head: int
    words: tuple = ()

    def __eq__(self, other):
        if not isinstance(other, tuple) or len(other) != 2:
            return NotImplemented
        if self.head != other[0]:
            return False
        a, b = self.words, other[1]
        while a is not b:
            if not a or not b:
                return False
            if a[0] != b[0]:
                return False
            a, b = a[1], b[1]
        return True

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = tuple.__hash__

    def __repr__(self):
        k = 0
        w = self.words
        while w:
            k += 1
            w = w[1]
        return f"AnsState(head={self.head:#x}, words={k})"


def state_new() -> AnsState:
    """Minimal state: head at the bottom of the canonical range, no words."""
    return AnsState(L, ())


def _checked(t) -> tuple[int, int, int]:
    c, p, n = t
    c, p, n = _int(c), _int(p), _int(n)
    if n < 1 or n > L or p < 1 or c < 0 or c + p > n:
        raise ContractError(f"invalid code triple (c={c}, p={p}, n={n})")
    return c, p, n


# encode_op and decode_advance run once per coded symbol or byte, so they
# check plain-int triples inline and leave every other triple (numpy ints,
# bools, floats, bad ranges) to ``_checked``; they also build the result
# with ``tuple.__new__``, which skips the NamedTuple constructor's frame.
_new_state = tuple.__new__


def encode_op(s: AnsState, t) -> AnsState:
    """Fold the interval ``t`` into the state; adds ~log2(n/p) bits."""
    c, p, n = t
    if not (type(c) is type(p) is type(n) is int
            and 0 <= c and 0 < p and c + p <= n <= L):
        c, p, n = _checked(t)
    head, words = s
    limit = (L // n) * B * p
    while head >= limit:
        w = head & _WORD_MASK
        head >>= WORD_BITS
        if w or words:
            words = (w, words)
        # else: a zero word pushed onto the empty stack rejoins the pool
    return _new_state(AnsState, (n * (head // p) + c + head % p, words))


def decode_peek(s: AnsState, n) -> int:
    """Read the pending interval index in [0, n) without changing the state."""
    n = _int(n)
    if n < 1 or n > L:
        raise ContractError(f"precision {n} outside [1, {L}]")
    return s.head % n


def decode_advance(s: AnsState, t) -> AnsState:
    """Consume the interval ``t``; exact inverse of ``encode_op``.

    Requires decode_peek(s, t.n) to lie in [t.c, t.c + t.p).
    """
    c, p, n = t
    if not (type(c) is type(p) is type(n) is int
            and 0 <= c and 0 < p and c + p <= n <= L):
        c, p, n = _checked(t)
    head, words = s
    i = head % n
    if not c <= i < c + p:
        raise ContractError(f"peek index {i} outside [{c}, {c + p})")
    head = p * (head // n) + i - c
    while head < L:
        if words:
            w, words = words
            head = (head << WORD_BITS) | w
        elif head:
            head <<= WORD_BITS  # synthesized zero word from the pool
        else:
            raise ContractError("cannot refill an exhausted state")
    return _new_state(AnsState, (head, words))


def serialize(s: AnsState) -> bytes:
    """Flatten to bytes: words bottom to top (32-bit BE), then 64-bit BE head."""
    stack = array("I")
    w = s.words
    while w:
        stack.append(w[0])
        w = w[1]
    stack.reverse()
    if sys.byteorder == "little":
        stack.byteswap()
    return stack.tobytes() + s.head.to_bytes(8, "big")


def deserialize(data: bytes) -> AnsState:
    """Inverse of ``serialize``. Bottom zero words are canonicalized away."""
    if len(data) < 8 or len(data) % 4:
        raise FormatError(f"state must be 8 + 4k bytes, got {len(data)}")
    head = int.from_bytes(data[-8:], "big")
    stack = array("I")
    stack.frombytes(data[:-8])
    if sys.byteorder == "little":
        stack.byteswap()
    words: tuple = ()
    for w in stack:
        if w or words:
            words = (w, words)
    return AnsState(head, words)


def length_bits(s: AnsState) -> int:
    """Serialized size in bits: 64 for the head plus 32 per word."""
    k = 0
    w = s.words
    while w:
        k += 1
        w = w[1]
    return HEAD_BITS + WORD_BITS * k
