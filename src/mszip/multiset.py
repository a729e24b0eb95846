"""Canonical multisets and the branch-total search tree that samples them.

A ``Multiset`` is the canonical frequency map: (symbol, count) pairs with
strictly increasing symbols and positive counts. Symbols only need a
consistent total order (ints, bytes, tuples of bytes, ...).

``FreqTree`` is a binary search tree over the distinct symbols where every
node stores the total number of occurrences in its subtree; a node's own
count is its total minus its children's totals. Reading the tree left to
right lays the occurrences out on the index line [0, total), each symbol
owning the contiguous interval [c, c + p). ``insert_and_lookup`` and
``lookup_and_remove`` add 1 and -1 to the branch totals on the way down, so
lookup and mutation cost one root-to-node pass; the read-only
``forward_lookup`` (symbol to (c, p)) and ``reverse_lookup`` (index to
(symbol, c, p)) are the same two walks with a zero step.

Trees count the nodes they touch (``visits``/``ops``) so complexity claims
can be checked empirically.
"""

from __future__ import annotations

from collections import Counter
from operator import index as _int

from .errors import ContractError, NotFoundError


class Multiset:
    """Immutable canonical multiset: sorted (symbol, count) pairs."""

    __slots__ = ("pairs", "total")

    def __init__(self, pairs=()):
        pairs = tuple((sym, _int(cnt)) for sym, cnt in pairs)
        prev = None
        for k, (sym, cnt) in enumerate(pairs):
            if cnt < 1:
                raise ContractError(f"count for {sym!r} must be >= 1, got {cnt}")
            if k and not prev < sym:
                raise ContractError("symbols must be strictly increasing")
            prev = sym
        self.pairs = pairs
        self.total = sum(cnt for _, cnt in pairs)

    @classmethod
    def from_iterable(cls, symbols) -> "Multiset":
        """Canonicalize any order of possibly repeating symbols."""
        return cls(sorted(Counter(symbols).items()))

    @property
    def unique(self) -> int:
        return len(self.pairs)

    def expand(self):
        """Yield every occurrence in canonical order."""
        for sym, cnt in self.pairs:
            for _ in range(cnt):
                yield sym

    def __eq__(self, other):
        return isinstance(other, Multiset) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"Multiset({list(self.pairs)!r})"


class _Node:
    __slots__ = ("sym", "total", "left", "right")

    def __init__(self, sym, total):
        self.sym = sym
        self.total = total
        self.left = None
        self.right = None


def _index_walk(step, doc):
    """The walk to the node whose interval holds index ``i``, adding ``step``
    to each branch total it passes. It reads a right total only when ``i``
    lies past the left subtree, and shifts ``i`` past each interval."""

    def walk(self, i):
        i = _int(i)
        root = self.root
        if not 0 <= i < (root.total if root is not None else 0):
            raise ContractError(f"index {i} outside [0, {self.total})")
        node = root
        offset = 0
        seen = 0
        while True:
            seen += 1
            tot = node.total
            node.total = tot + step
            left = node.left
            if left is not None:
                lt = left.total
                if i < lt:
                    node = left
                    continue
                i -= lt
                offset += lt
                tot -= lt
            right = node.right
            if right is not None:
                tot -= right.total  # now the node's own count
            if i < tot:
                self.visits += seen
                self.ops += 1
                return node.sym, offset, tot
            i -= tot
            offset += tot
            node = right

    walk.__doc__ = doc
    return walk


def _symbol_walk(step, doc):
    """The walk to the node of ``sym``, adding ``step`` to each branch total
    it passes. A miss attaches a new leaf, or raises if ``step`` is 0."""

    def walk(self, sym):
        parent = None
        node = self.root
        offset = 0
        seen = 0
        while node is not None:
            seen += 1
            tot = node.total
            node.total = tot + step
            key = node.sym
            if sym < key:
                parent, node = node, node.left
            elif sym > key:
                right = node.right
                offset += tot - right.total if right is not None else tot
                parent, node = node, right
            else:
                left, right = node.left, node.right
                lt = left.total if left is not None else 0
                rt = right.total if right is not None else 0
                self.visits += seen
                self.ops += 1
                return offset + lt, tot + step - lt - rt
        self.ops += 1
        if not step:
            self.visits += seen
            raise NotFoundError(sym)
        leaf = _Node(sym, 1)
        if parent is None:
            self.root = leaf
        elif sym < parent.sym:
            parent.left = leaf
        else:
            parent.right = leaf
        self.visits += seen + 1
        return offset, 1

    walk.__doc__ = doc
    return walk


class FreqTree:
    """Branch-total BST over the remaining occurrences of a multiset."""

    __slots__ = ("root", "visits", "ops")

    def __init__(self):
        self.root = None
        self.visits = 0  # nodes touched, cumulative across operations
        self.ops = 0

    @property
    def total(self) -> int:
        return self.root.total if self.root is not None else 0

    forward_lookup = _symbol_walk(0, """Return (c, p): occurrences ordered
        before ``sym``, and its count (0 once drained); ``NotFoundError`` if
        ``sym`` has no node.""")
    reverse_lookup = _index_walk(0, """Return (sym, c, p) for the unique
        interval containing ``i``.""")
    lookup_and_remove = _index_walk(-1, """Remove one occurrence of the
        symbol whose interval holds ``i``; return (sym, c, p) as of before.

        Nodes are never unlinked: a symbol whose count reaches zero keeps its
        node, which owns an empty interval that later walks pass over, so the
        tree keeps its shape.""")
    insert_and_lookup = _symbol_walk(1, """Add one occurrence of ``sym``;
        return (c, p) after the insert.""")

    def to_multiset(self) -> Multiset:
        """In-order traversal back to canonical form."""
        pairs = []
        stack = []
        node = self.root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            lt = node.left.total if node.left is not None else 0
            rt = node.right.total if node.right is not None else 0
            if node.total > lt + rt:  # drained nodes keep their place
                pairs.append((node.sym, node.total - lt - rt))
            node = node.right
        return Multiset(pairs)

    def depth(self) -> int:
        d = 0
        stack = [(self.root, 1)] if self.root is not None else []
        while stack:
            node, k = stack.pop()
            if k > d:
                d = k
            if node.left is not None:
                stack.append((node.left, k + 1))
            if node.right is not None:
                stack.append((node.right, k + 1))
        return d


def build_balanced(m: Multiset) -> FreqTree:
    """Build a FreqTree for ``m`` with depth exactly ceil(log2(unique + 1)).

    The split keeps the right subtree perfect, so the depth bound is met with
    equality at every size; removals never unlink a node, so the shape never
    changes.
    """
    pairs = m.pairs

    def build(lo, hi):
        n = hi - lo
        if n == 0:
            return None
        full = (1 << (n.bit_length() - 1)) - 1  # perfect right-subtree size
        mid = lo + (n - 1 - full)
        sym, cnt = pairs[mid]
        node = _Node(sym, cnt)
        node.left = build(lo, mid)
        node.right = build(mid + 1, hi)
        if node.left is not None:
            node.total += node.left.total
        if node.right is not None:
            node.total += node.right.total
        return node

    tree = FreqTree()
    tree.root = build(0, len(pairs))
    return tree
