"""Stack-based asymmetric numeral systems (ANS) coder.

The coder state is a plain tuple ``(head, words)``: a 64-bit working integer
plus a stack of 32-bit overflow words, kept as a cons list ``()`` or
``(word, rest)``. ``encode_op`` mixes a symbol interval into the head,
spilling its low word onto the stack when the head would overflow, and
``decode_advance`` is the exact inverse, refilling the head from the stack when
it would drop below ``L``. At every operation boundary the head lies in the
canonical range ``[L, B*L)``. When the precision ``N`` does not divide ``L``,
encoding can land the head in ``[N*(L//N), L)``, so ``encode_op`` then pulls
one word back into it; ``decode_peek`` and ``decode_advance`` undo that by
first spilling one word from a head at or above ``N*(L//N)*B``. Since
``N*(L//N) > L/2`` for every ``N``, heads below ``B*L/2`` skip that check, and
power-of-two precisions never take either branch. A uniform op (``p == 1``:
every byte-codec op, every ``UniformCodec`` op, and every sampling step of a
symbol with count 1) skips the division by ``p``: encode is ``head * n + c``
and decode is ``head // n``.

States are immutable: an operation returns a new tuple that shares the
untouched part of the stack with its input. Tuple equality recurses once per
word, so ``==`` on two separately built states of more than about a thousand
words raises ``RecursionError``: compare deep states by ``serialize``, which
is injective on canonical states.

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

import math
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
_HALF = B * L // 2  # below this no decode head needs the spill


class CodeTriple(NamedTuple):
    """Quantized symbol interval: cumulative count c, mass p, precision n.

    Models the interval [c, c+p) out of [0, n); requires 1 <= p, 0 <= c,
    c + p <= n and n <= L.
    """

    c: int
    p: int
    n: int


def state_new() -> tuple:
    """Minimal state: head at the bottom of the canonical range, no words."""
    return (L, ())


def _checked(t) -> tuple[int, int, int]:
    c, p, n = t
    c, p, n = _int(c), _int(p), _int(n)
    if n < 1 or n > L or p < 1 or c < 0 or c + p > n:
        raise ContractError(f"invalid code triple (c={c}, p={p}, n={n})")
    return c, p, n


# encode_op and decode_advance run once per coded symbol or byte, so they
# check plain-int triples inline and leave every other triple (numpy ints,
# bools, floats, bad ranges) to ``_checked``; a plain tuple is also the
# cheapest new state to build.
def encode_op(s: tuple, t) -> tuple:
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
    if p == 1:
        head = head * n + c
    else:
        head = n * (head // p) + c + head % p
    if head < L:  # only after a spill, when n does not divide L
        if words:
            w, words = words
            head = (head << WORD_BITS) | w
        else:
            head <<= WORD_BITS  # zero word from the pool
    return head, words


def decode_peek(s: tuple, n) -> int:
    """Read the pending interval index in [0, n) without changing the state."""
    n = _int(n)
    if n < 1 or n > L:
        raise ContractError(f"precision {n} outside [1, {L}]")
    head = s[0]
    if head >= _HALF and head >= n * (L // n) * B:
        head >>= WORD_BITS
    return head % n


def decode_advance(s: tuple, t) -> tuple:
    """Consume the interval ``t``; exact inverse of ``encode_op``.

    Requires decode_peek(s, t.n) to lie in [t.c, t.c + t.p).
    """
    c, p, n = t
    if not (type(c) is type(p) is type(n) is int
            and 0 <= c and 0 < p and c + p <= n <= L):
        c, p, n = _checked(t)
    head, words = s
    if head >= _HALF and head >= n * (L // n) * B:  # undo encode's refill
        w = head & _WORD_MASK
        head >>= WORD_BITS
        if w or words:
            words = (w, words)
    i = head % n
    if not c <= i < c + p:
        raise ContractError(f"peek index {i} outside [{c}, {c + p})")
    if p == 1:  # i == c after the check above
        head //= n
    else:
        head = p * (head // n) + i - c
    while head < L:
        if words:
            w, words = words
            head = (head << WORD_BITS) | w
        elif head:
            head <<= WORD_BITS  # synthesized zero word from the pool
        else:
            raise ContractError("cannot refill an exhausted state")
    return head, words


def serialize(s: tuple) -> bytes:
    """Flatten to bytes: words bottom to top (32-bit BE), then 64-bit BE head."""
    stack = array("I")
    w = s[1]
    while w:
        stack.append(w[0])
        w = w[1]
    stack.reverse()
    if sys.byteorder == "little":
        stack.byteswap()
    return stack.tobytes() + s[0].to_bytes(8, "big")


def deserialize(data: bytes) -> tuple:
    """Inverse of ``serialize``. Bottom zero words are canonicalized away, and
    a head outside the canonical range ``[L, B*L)`` raises ``FormatError``."""
    if len(data) < 8 or len(data) % 4:
        raise FormatError(f"state must be 8 + 4k bytes, got {len(data)}")
    head = int.from_bytes(data[-8:], "big")
    if not L <= head < B * L:
        raise FormatError(f"state head {head:#x} outside [2**31, 2**63)")
    stack = array("I")
    stack.frombytes(data[:-8])
    if sys.byteorder == "little":
        stack.byteswap()
    words: tuple = ()
    rest = iter(stack)
    for w in rest:  # skip the bottom zero words up to the first other one
        if w:
            words = (w, words)
            break
    for w in rest:
        words = (w, words)
    return head, words


def length_bits(s: tuple) -> int:
    """Serialized size in bits: 64 for the head plus 32 per word."""
    k = 0
    w = s[1]
    while w:
        k += 1
        w = w[1]
    return HEAD_BITS + WORD_BITS * k


def fractional_bits(s: tuple) -> float:
    """The information the state holds, 32 bits per word plus log2 of the
    head: smooth where ``length_bits`` counts whole words."""
    return length_bits(s) - HEAD_BITS + math.log2(s[0])
