"""Shared test utilities: independent oracles and data builders."""

import heapq
import json
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from operator import index as _int

from mszip import (CodeTriple, ContractError, L, Multiset, Record, UniformCodec,
                   decode_advance, decode_peek, encode_op)
from mszip.ans import _checked, fractional_bits  # noqa: F401
from mszip.multiset import _Node


def linear_forward(pairs, sym):
    """Linear-scan oracle for the symbol walk over canonical (sym, count)
    pairs: (c, p), the occurrences ordered before ``sym`` and its count."""
    c = 0
    for s, cnt in pairs:
        if s == sym:
            return c, cnt
        if s > sym:
            break
        c += cnt
    raise KeyError(sym)


def linear_reverse(pairs, i):
    """Linear-scan oracle for the index walk: (sym, c, p) for the interval
    [c, c + p) that holds ``i``."""
    c = 0
    for s, cnt in pairs:
        if i < c + cnt:
            return s, c, cnt
        c += cnt
    raise IndexError(i)


def tree_fields(t):
    """Every node's fields, keyed by node id, after checking that each node's
    ``lt`` is the sum of ``cnt`` over its left subtree and that ``t.total`` is
    the sum of every ``cnt``."""
    fields = {}

    def count(node):
        if node is None:
            return 0
        assert node.lt == count(node.left), node.sym
        fields[id(node)] = (node.sym, node.lt, node.cnt, id(node.left), id(node.right))
        return node.lt + node.cnt + count(node.right)

    assert t.total == count(t.root)
    return fields


def probe(t, i):
    """Read a ``FreqTree`` at index ``i`` with the coder's two walks: remove
    the occurrence at ``i``, then insert its symbol again. Checks that the pair
    leaves every node's fields as they were, and returns the removal's
    (sym, c, p) and the insert's (c, p), which ``linear_reverse`` and
    ``linear_forward`` give on the tree's pairs."""
    fields = tree_fields(t)
    found = t.lookup_and_remove(i)
    again = t.insert_and_lookup(found[0])
    assert tree_fields(t) == fields
    return found, again


def lookup_and_remove_reference(tree, i):
    """``FreqTree.lookup_and_remove`` counting one visit per level in
    ``seen`` and summing the counts it passes on the left in ``offset``. The
    oracle for the walk that adds the depth of the node it stops at and
    returns c = i - j."""
    i = _int(i)
    if not 0 <= i < tree.total:
        raise ContractError(f"index {i} outside [0, {tree.total})")
    tree.total -= 1
    node = tree.root
    offset = 0
    seen = 0
    while True:
        seen += 1
        lt = node.lt
        if i < lt:
            node.lt = lt - 1
            node = node.left
            continue
        i -= lt
        offset += lt
        cnt = node.cnt
        if i < cnt:
            node.cnt = cnt - 1
            tree.visits += seen
            return node.sym, offset, cnt
        i -= cnt
        offset += cnt
        node = node.right


def insert_and_lookup_reference(tree, sym):
    """``FreqTree.insert_and_lookup`` counting one visit per level in
    ``seen`` and keeping the ``parent`` to hang a new leaf from. The oracle
    for the walk that adds the depth of the node it stops at."""
    tree.total += 1
    parent = None
    node = tree.root
    offset = 0
    seen = 0
    while node is not None:
        seen += 1
        key = node.sym
        if sym < key:
            node.lt += 1
            parent, node = node, node.left
        elif sym > key:
            offset += node.lt + node.cnt
            parent, node = node, node.right
        else:
            cnt = node.cnt + 1
            node.cnt = cnt
            tree.visits += seen
            return offset + node.lt, cnt
    leaf = _Node(sym, 1, seen + 1)
    if parent is None:
        tree.root = leaf
    elif sym < parent.sym:
        parent.left = leaf
    else:
        parent.right = leaf
    tree.visits += seen + 1
    return offset, 1


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
    """``ByteStringCodec.encode`` as a chain of codec calls. With k bytes
    and r = k % 3: the last r bytes under ``UniformCodec(2**(8*r))``, then
    each 3-byte chunk, last chunk first, under ``UniformCodec(2**24)``, each
    read as a little-endian integer, then the length under
    ``UniformCodec(max_len + 1)``. The oracle for the byte codec."""
    k = len(payload)
    q = k - k % 3
    if q < k:
        tail = UniformCodec(1 << 8 * (k - q))
        state = tail.encode(state, int.from_bytes(payload[q:], "little"))
    chunk_code = UniformCodec(1 << 24)
    for i in reversed(range(0, q, 3)):
        state = chunk_code.encode(state, int.from_bytes(payload[i:i + 3], "little"))
    return UniformCodec(codec.max_len + 1).encode(state, k)


def byte_string_decode_chain(codec, state):
    """Inverse of ``byte_string_encode_chain``."""
    state, k = UniformCodec(codec.max_len + 1).decode(state)
    chunk_code = UniformCodec(1 << 24)
    out = bytearray()
    for _ in range(k // 3):
        state, c = chunk_code.decode(state)
        out += c.to_bytes(3, "little")
    if k % 3:
        state, c = UniformCodec(1 << 8 * (k % 3)).decode(state)
        out += c.to_bytes(k % 3, "little")
    return state, bytes(out)


def quantize_pmf_reference(weights, precision) -> list[int]:
    """``quantize_pmf`` as written before its passes moved to C-level
    builtins: one Python step per weight. The build must match it mass for
    mass, as the same float operations in the same order."""
    precision = _int(precision)
    weights = [float(w) for w in weights]
    n = len(weights)
    total = math.fsum(weights)
    shares = [w / total * precision for w in weights]
    masses = [max(1, int(sh)) for sh in shares]
    residue = precision - sum(masses)
    if residue > 0:
        gaps = [m - sh for m, sh in zip(masses, shares)]
        order = sorted(range(n), key=gaps.__getitem__)
        for k in order[:residue]:
            masses[k] += 1
    elif residue < 0:
        heap = [(shares[k] - masses[k], k) for k in range(n) if masses[k] > 1]
        heapq.heapify(heap)
        while residue:
            _, k = heapq.heappop(heap)
            masses[k] -= 1
            residue += 1
            if masses[k] > 1:
                heapq.heappush(heap, (shares[k] - masses[k], k))
    return masses


def categorical_triple(codec, sym) -> CodeTriple:
    """The code triple ``QuantizedCategorical.encode`` uses for ``sym``, read
    from the codec's own table."""
    return CodeTriple._make(codec._triples[codec._index[sym]])


def categorical_encode_reference(codec, state, sym):
    """``QuantizedCategorical.encode`` from the codec's public tables: the
    symbol's position by binary search of the alphabet, then one op on a
    ``CodeTriple``. The oracle for the codec's triple table."""
    k = bisect_left(codec.alphabet, sym)
    if k == len(codec.alphabet) or codec.alphabet[k] != sym:
        raise KeyError(sym)
    return encode_op(state, CodeTriple(codec.cdf[k], codec.pmf[k], codec.precision))


def categorical_decode_reference(codec, state):
    """Inverse of ``categorical_encode_reference``: the index from
    ``decode_peek``, its interval by binary search of the cumulative table."""
    i = decode_peek(state, codec.precision)
    k = bisect_right(codec.cdf, i) - 1
    t = CodeTriple(codec.cdf[k], codec.pmf[k], codec.precision)
    return decode_advance(state, t), codec.alphabet[k]


def sample_encode_reference(s, tree, codec):
    """The encode sampling loop with ``decode_peek``, a ``CodeTriple`` per op
    and the tree total read from the tree. The oracle for
    ``mscodec.sample_encode``."""
    while tree.total:
        n = tree.total
        sym, c, p = tree.lookup_and_remove(decode_peek(s, n))
        s = codec.encode(decode_advance(s, CodeTriple(c, p, n)), sym)
    return s


def sample_decode_reference(s, size, codec, tree):
    """The decode sampling loop with the tree total read from the tree and a
    ``CodeTriple`` per op. The oracle for ``mscodec.sample_decode``."""
    for _ in range(size):
        s, sym = codec.decode(s)
        c, p = tree.insert_and_lookup(sym)
        s = encode_op(s, CodeTriple(c, p, tree.total))
    return s


def tree_depth(tree) -> int:
    """Nodes on the longest root-to-leaf path of a ``FreqTree``, after
    checking that every node's ``depth`` is its own count of nodes from the
    root."""
    d = 0
    stack = [(tree.root, 1)] if tree.root is not None else []
    while stack:
        node, k = stack.pop()
        assert node.depth == k, node.sym
        d = max(d, k)
        stack.extend((kid, k + 1) for kid in (node.left, node.right) if kid is not None)
    return d


def subtree_total(node) -> int:
    """Occurrences in the subtree under ``node``: its left count and its own
    count, then the same down the right spine."""
    total = 0
    while node is not None:
        total += node.lt + node.cnt
        node = node.right
    return total


def _crc32c_table():
    poly = 0x82F63B78  # Castagnoli, reflected
    table = []
    for k in range(256):
        crc = k
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC32C_TABLE = _crc32c_table()


def crc32c_reference(data, crc=0):
    """CRC-32C one byte per step. The oracle for ``container.crc32c``."""
    crc ^= 0xFFFFFFFF
    for b in data:
        crc = (crc >> 8) ^ _CRC32C_TABLE[(crc ^ b) & 0xFF]
    return crc ^ 0xFFFFFFFF


_SCALAR_TEXTS = {str: str, int: repr, float: repr, type(None): lambda _: "null",
                 bool: lambda b: "true" if b else "false"}


def ingest_reference(text) -> list:
    """``ingest_json_records`` on valid input, one pair at a time: each key
    and each value encoded on its own, each record through ``Record``'s
    checks. The oracle for the ingest's shared keys and unchecked records."""
    return [Record([(k.encode("utf-8"), _SCALAR_TEXTS[type(v)](v).encode("utf-8"))
                    for k, v in obj])
            for obj in json.loads(text, object_pairs_hook=tuple)]


def pair_counts_reference(nm):
    """``cli.pair_counts`` one pair occurrence at a time."""
    keys, value_lengths = Counter(), Counter()
    for rec in nm.records.expand():
        for k, v in rec.pairs.expand():
            keys[k] += 1
            value_lengths[len(v)] += 1
    return keys, value_lengths
