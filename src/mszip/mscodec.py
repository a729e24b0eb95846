"""Order-invariant multiset coding via invertible sampling.

Encoding repeatedly samples a symbol from the remaining multiset, by decoding
an index from the ANS state under the frequency distribution of what is left,
removes it, and encodes it under the symbol codec. Each sampling step consumes
from the state about the log of the number of ways the step could have gone,
so across the whole run the consumed bits add up to the log of the number of
distinct orderings and the final state lands at the multiset's information
content instead of the sequence's.

Decoding mirrors the loop in reverse: decode a symbol under the codec, insert
it into the growing frequency tree, and re-encode the sampling index it must
have come from. A clean decode finishes back at the minimal state.

The compressed output depends only on the canonical multiset: any input
ordering of the same symbols produces identical bits.

The loops read a table's ``total`` and call its two walks, nothing else, so a
``FreqList`` samples exactly as a ``FreqTree`` with the same occurrences.

Both loops do the ANS arithmetic of their sampling step inline: a sampling
step of ``sample_encode`` is ``decode_advance`` and one of ``sample_decode``
is ``encode_op``, on the triple ``(c, p, n)`` that the tree walk returns with
the tree total ``n``. Only the common case is inline. A head that holds a
word which encode pulled back is left to ``decode_advance``, and an op that
spills to ``encode_op``; the two functions stay the reference the loops must
match bit for bit. Each loop checks once, before its first step, that no
tree total will exceed ``L``; the walks give ``0 <= c < c + p <= n``.
"""

from __future__ import annotations

import math
from operator import index as _int
from typing import NamedTuple

from .ans import (_HALF, WORD_BITS, B, L, decode_advance, encode_op, length_bits,
                  state_new)
from .errors import ContractError, FormatError
from .multiset import FreqTree, Multiset, build_balanced

_LN2 = math.log(2)


def sample_encode(s: tuple, tree: FreqTree, codec) -> tuple:
    """Drain ``tree`` onto ``s``: sample an occurrence, then encode its symbol."""
    remove, encode = tree.lookup_and_remove, codec.encode
    n = tree.total  # counted down here, not read back from the tree
    if n > L:
        raise ContractError(f"tree total {n} exceeds {L}")
    head, words = s
    while n:
        if head >= _HALF and head >= n * (L // n) * B:
            # the head holds a word that encode pulled back
            sym, c, p = remove((head >> WORD_BITS) % n)
            s = decode_advance((head, words), (c, p, n))
        else:  # decode_advance(s, (c, p, n)), inline
            i = head % n
            sym, c, p = remove(i)
            if p == 1:
                head //= n
            else:
                head = p * (head // n) + i - c
            while head < L:
                if words:
                    w, words = words
                    head = (head << WORD_BITS) | w
                elif head:
                    head <<= WORD_BITS
                else:
                    raise ContractError("cannot refill an exhausted state")
            s = head, words
        head, words = encode(s, sym)
        n -= 1
    return head, words


def sample_decode(s: tuple, size, codec, tree: FreqTree) -> tuple:
    """Inverse of ``sample_encode``: decode ``size`` symbols into ``tree``."""
    try:
        size = _int(size)
    except TypeError:
        raise ContractError(f"size must be an integer, got {size!r}") from None
    if size < 0:
        raise ContractError(f"size must be >= 0, got {size}")
    insert, decode = tree.insert_and_lookup, codec.decode
    n = tree.total  # counted up here, not read back from the tree
    if n + size > L:
        raise ContractError(f"tree total {n + size} would exceed {L}")
    for _ in range(size):
        (head, words), sym = decode(s)
        c, p = insert(sym)
        n += 1
        # encode_op(s, (c, p, n)), inline unless it spills; the codec leaves
        # a canonical head, so an op that does not spill needs no refill
        if head < (L // n) * B * p:
            if p == 1:
                s = head * n + c, words
            else:
                s = n * (head // p) + c + head % p, words
        else:
            s = encode_op((head, words), (c, p, n))
    return s


def encode_multiset(m: Multiset, codec) -> tuple:
    """Encode ``m`` order-invariantly; every symbol must be codec-encodable."""
    return sample_encode(state_new(), build_balanced(m), codec)


def decode_multiset(s: tuple, size, codec, tree=None) -> Multiset:
    """Rebuild the multiset of ``size`` symbols from a state made by
    ``encode_multiset`` with the same codec, into ``tree``, an empty
    ``FreqTree`` or ``FreqList`` (a new ``FreqTree`` by default); a clean
    decode ends at the minimal state, and any residue raises ``FormatError``."""
    if tree is None:
        tree = FreqTree()
    if sample_decode(s, size, codec, tree) != state_new():
        raise FormatError("decode finished with a non-minimal residual state; "
                          "the state does not match the count or the codec")
    return tree.to_multiset()


def encode_sequence(symbols, codec) -> tuple:
    """Order-keeping baseline: encode ``symbols`` in order, no sampling."""
    s = state_new()
    for sym in symbols:
        s = codec.encode(s, sym)
    return s


def permutation_bits(m: Multiset) -> float:
    """log2 of the number of distinct orderings, |M|! / prod(count!)."""
    bits = math.lgamma(m.total + 1)
    for _, cnt in m.pairs:
        bits -= math.lgamma(cnt + 1)
    return bits / _LN2


def info_content(m: Multiset, codec) -> float:
    """Optimal code length for ``m`` in bits under the codec's symbol model.

    Computed in log space; the per-symbol term uses ``codec.bits`` so any
    codec with an ideal-length method works, not just categoricals.
    """
    sym_bits = math.fsum(cnt * codec.bits(sym) for sym, cnt in m.pairs)
    return sym_bits - permutation_bits(m)


class RateReport(NamedTuple):
    """Measured compression accounting for one multiset and codec."""

    compressed_bits: int
    info_content_bits: float
    sequence_bits: int
    savings_bits: int
    permutation_bits: float


def rate_report(m: Multiset, codec) -> RateReport:
    """Measure multiset coding against keeping the canonical order."""
    sequence_bits = length_bits(encode_sequence(m.expand(), codec))
    compressed_bits = length_bits(encode_multiset(m, codec))
    return RateReport(
        compressed_bits=compressed_bits,
        info_content_bits=info_content(m, codec),
        sequence_bits=sequence_bits,
        savings_bits=sequence_bits - compressed_bits,
        permutation_bits=permutation_bits(m),
    )
