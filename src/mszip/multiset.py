"""Canonical multisets and the order-statistic search tree that samples them.

A ``Multiset`` is the canonical frequency map: (symbol, count) pairs with
strictly increasing symbols and positive counts. Symbols only need a
consistent total order (ints, bytes, tuples of bytes, ...).

``FreqTree`` is a binary search tree over the distinct symbols where every
node stores its own count and the number of occurrences in its left subtree
(the cumulative-frequency idea of Fenwick 1994), and the tree keeps the total
count. Reading the tree left to right lays the occurrences out on the index
line [0, total), each symbol owning the contiguous interval [c, c + p). The
encoder's ``lookup_and_remove`` walks by index and the decoder's
``insert_and_lookup`` by symbol, each deciding a level from one count (the
left count, then the node's own) and taking 1 from, or adding 1 to, the left
counts it passes, the count it stops at and the total: lookup and mutation
cost one root-to-node pass. The index walk keeps only ``j``, what is left of
the index below the node it stands on, so the interval it stops at starts at
c = i - j. Trees count the nodes they touch (``visits``) so complexity claims
can be checked empirically: every node stores its depth (the root's is 1),
and a walk adds the depth of the node it stops at, once, instead of counting
levels as it goes.

``FreqList`` lays the same index line out as one sorted list of the
occurrences, so a symbol's copies sit side by side at [c, c + p) and
``bisect`` finds both ends. Its walks return what the tree's return, with
``bisect`` and the list's own insert and delete, which run in C; each moves
O(total) items, so it is the faster table only for small multisets, such as
the records of a JSON collection and the collection itself.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain, repeat, starmap
from operator import index as _int, lt

from .errors import ContractError


class Multiset:
    """Immutable canonical multiset: sorted (symbol, count) pairs."""

    __slots__ = ("pairs", "total")

    def __init__(self, pairs=()):
        try:
            pairs = tuple((sym, _int(cnt)) for sym, cnt in pairs)
        except (TypeError, ValueError) as e:
            raise ContractError(f"pairs must be (symbol, integer count): {e}") from None
        prev = None
        for k, (sym, cnt) in enumerate(pairs):
            if cnt < 1:
                raise ContractError(f"count for {sym!r} must be >= 1, got {cnt}")
            try:
                if k and not prev < sym:
                    raise ContractError("symbols must be strictly increasing")
            except TypeError:
                raise ContractError(f"symbols {prev!r} and {sym!r} do not compare") from None
            prev = sym
        self.pairs = pairs
        self.total = sum(cnt for _, cnt in pairs)

    @classmethod
    def from_iterable(cls, symbols) -> "Multiset":
        """Canonicalize any order of possibly repeating symbols."""
        # iter(): Counter would take a mapping's values as counts, so every
        # count here is a positive int and none needs checking
        try:
            counts = Counter(iter(symbols))
            pairs = tuple(sorted(counts.items()))
        except TypeError as e:
            raise ContractError(f"symbols must be hashable and comparable: {e}") from None
        # sorted() does not check that the order is total (sets are not)
        syms = [sym for sym, _ in pairs]
        if not all(map(lt, syms, syms[1:])):
            raise ContractError("symbols must be strictly increasing")
        return cls._canonical(pairs, counts.total())

    @classmethod
    def _from_sorted(cls, items: list) -> "Multiset":
        """The multiset of the sorted list ``items``. Without repeats the items
        are the canonical pairs, each with count 1: skipping ``from_iterable``'s
        Counter and sort takes about 7% off ``decode_nested`` on perfbench's
        records-json input (2-vCPU VM)."""
        if all(map(lt, items, items[1:])):
            return cls._canonical(tuple(zip(items, repeat(1))), len(items))
        return cls.from_iterable(items)

    @classmethod
    def _canonical(cls, pairs, total) -> "Multiset":
        """A multiset from pairs already canonical and their count total,
        without ``__init__``'s checks."""
        ms = object.__new__(cls)
        ms.pairs = pairs
        ms.total = total
        return ms

    @property
    def unique(self) -> int:
        return len(self.pairs)

    def expand(self):
        """Every occurrence, in canonical order."""
        return chain.from_iterable(starmap(repeat, self.pairs))

    def __eq__(self, other):
        return isinstance(other, Multiset) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"Multiset({list(self.pairs)!r})"


class _Node:
    """One distinct symbol of a ``FreqTree``. ``depth`` counts the nodes from
    the root (1) down to this one; nodes never move, so it never changes."""

    __slots__ = ("sym", "lt", "cnt", "depth", "left", "right")

    def __init__(self, sym, cnt, depth):
        self.sym = sym
        self.lt = 0  # occurrences in the left subtree
        self.cnt = cnt  # own occurrences, 0 once drained
        self.depth = depth
        self.left = None
        self.right = None


class FreqTree:
    """Order-statistic BST over the remaining occurrences of a multiset.

    Each node keeps its symbol's count, its left subtree's count and its
    depth; the tree keeps ``total``, the count of all occurrences, up to
    date, and ``visits``, the sum of the depths its walks stopped at."""

    __slots__ = ("root", "total", "visits")

    def __init__(self):
        self.root = None
        self.total = 0
        self.visits = 0  # nodes touched, cumulative across walks

    def lookup_and_remove(self, i):
        """Remove one occurrence of the symbol whose interval holds ``i``;
        return (sym, c, p) as of before.

        The walk keeps only ``j``, what is left of ``i`` below the node it
        stands on, so the interval starts at c = i - j. Nodes are never
        unlinked: a symbol whose count reaches zero keeps its node, which
        owns an empty interval that later walks pass over, so the tree keeps
        its shape."""
        try:
            i = _int(i)
        except TypeError:
            raise ContractError(f"index {i!r} is not an integer") from None
        if not 0 <= i < self.total:
            raise ContractError(f"index {i} outside [0, {self.total})")
        self.total -= 1
        node = self.root
        j = i
        while True:
            lt = node.lt
            if j < lt:
                node.lt = lt - 1
                node = node.left
                continue
            j -= lt
            cnt = node.cnt
            if j < cnt:
                node.cnt = cnt - 1
                self.visits += node.depth
                return node.sym, i - j, cnt
            j -= cnt
            node = node.right

    def insert_and_lookup(self, sym):
        """Add one occurrence of ``sym``; return (c, p) after the insert. A
        symbol with no node gets a new leaf, one level below the node the
        walk stopped at."""
        self.total += 1
        node = self.root
        if node is None:
            self.root = _Node(sym, 1, 1)
            self.visits += 1
            return 0, 1
        offset = 0
        while True:
            key = node.sym
            if sym < key:
                node.lt += 1
                kid = node.left
                if kid is None:
                    node.left = _Node(sym, 1, node.depth + 1)
                    break
            elif sym > key:
                offset += node.lt + node.cnt
                kid = node.right
                if kid is None:
                    node.right = _Node(sym, 1, node.depth + 1)
                    break
            else:
                cnt = node.cnt + 1
                node.cnt = cnt
                self.visits += node.depth
                return offset + node.lt, cnt
            node = kid
        self.visits += node.depth + 1  # the new leaf's depth
        return offset, 1

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
            if node.cnt:  # drained nodes keep their place
                pairs.append((node.sym, node.cnt))
            node = node.right
        return Multiset._canonical(tuple(pairs), self.total)


class FreqList:
    """The remaining occurrences of a multiset as one sorted list, with the
    walks, ``total`` and ``to_multiset`` of ``FreqTree`` and the same results.

    Built from ``m``, or empty; its symbols must compare in C (ints, bytes,
    tuples of bytes) for its walks to be fast. While no symbol repeats, as in
    a list built from a multiset whose counts are all 1 and not inserted
    into since, the occurrence at ``i`` owns the interval [i, i + 1), and
    ``distinct`` says so."""

    __slots__ = ("items", "total", "distinct")

    def __init__(self, m: Multiset | None = None):
        self.items = [] if m is None else list(m.expand())
        self.total = len(self.items)
        self.distinct = m is not None and self.total == len(m.pairs)

    def lookup_and_remove(self, i):
        """Remove the occurrence at ``i``; return (sym, c, p) as of before."""
        items = self.items
        try:  # a non-integer index fails here, before any change
            if not 0 <= i < self.total:
                raise ContractError(f"index {i} outside [0, {self.total})")
            if self.distinct:
                sym = items.pop(i)
                self.total -= 1
                return sym, i, 1
            sym = items[i]
        except TypeError:
            raise ContractError(f"index {i!r} is not an integer") from None
        c = bisect_left(items, sym, 0, i)
        p = bisect_right(items, sym, i + 1) - c
        del items[i]
        self.total -= 1
        return sym, c, p

    def insert_and_lookup(self, sym):
        """Add one occurrence of ``sym``; return (c, p) after the insert."""
        self.distinct = False
        items = self.items
        c = bisect_left(items, sym)
        items.insert(c, sym)
        self.total += 1
        return c, bisect_right(items, sym, c + 1) - c

    def to_multiset(self) -> Multiset:
        return Multiset._from_sorted(self.items)


def build_balanced(m: Multiset) -> FreqTree:
    """Build a FreqTree for ``m`` with depth exactly ceil(log2(unique + 1)).

    The split keeps the right subtree perfect, so the depth bound is met with
    equality at every size; removals never unlink a node, so the shape never
    changes.
    """
    pairs = m.pairs

    def build(lo, hi, depth):  # -> (subtree root, subtree total)
        n = hi - lo
        if n == 0:
            return None, 0
        full = (1 << (n.bit_length() - 1)) - 1  # perfect right-subtree size
        mid = lo + (n - 1 - full)
        sym, cnt = pairs[mid]
        node = _Node(sym, cnt, depth)
        node.left, node.lt = build(lo, mid, depth + 1)
        node.right, rt = build(mid + 1, hi, depth + 1)
        return node, node.lt + cnt + rt

    tree = FreqTree()
    tree.root, tree.total = build(0, len(pairs), 1)
    return tree
