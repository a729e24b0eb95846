"""Span recorders and per-layer replay, all from outside the program.

Recorders are installed by patching the names that callers look up: module
attributes in ``mszip.cli``, ``ans``, ``mscodec``, ``nested`` and ``symbols``,
and methods of ``FreqTree``, ``Multiset``, the codec classes and
``pathlib.Path``. ``Recorder.remove`` undoes every patch. One recorder covers
one op (a compress or a decompress).

* Span recorders wrap calls that happen a few times per op, or once per
  record: encode/decode loops, reports, pack/unpack, file I/O, tree builds.
  A span is ``(id, parent, name, start, end)``; spans stay in memory.
* Fine recorders wrap calls that happen once per byte or per symbol: ANS ops,
  tree ops and codec calls. A timer there would cost more than the call, so
  they only count and record the call sequence: the code triples, the tree
  indices and symbols, and the codec inputs. ``replay`` runs that sequence
  again on the unwrapped functions, which gives those layers a busy time.

A span is named ``<layer>.<what>``, where the layer is the ``src/mszip``
module that does the work.
"""

from __future__ import annotations

import pathlib
from array import array
from collections import defaultdict
from time import perf_counter

from mszip import ans, cli, container, mscodec, multiset, nested, symbols
from mszip.ans import CodeTriple
from mszip.multiset import FreqTree, Multiset

LAYERS = ("cli", "container", "nested", "mscodec", "multiset", "symbols", "ans")

_MISSING = object()

# (owner, attribute, span name) of every span recorder.
SPANNED = [
    (pathlib.Path, "read_bytes", "cli.read"),
    (pathlib.Path, "write_bytes", "cli.write"),
    (pathlib.Path, "write_text", "cli.write"),
    (pathlib.Path, "mkdir", "cli.mkdir"),
    (cli, "ByteStringCodec", "symbols.codec_build"),
    (cli, "PairCodec", "symbols.codec_build"),
    (cli, "codec_from_blob", "symbols.codec_build"),
    (cli, "codec_blob", "container.pack"),
    (cli, "pack", "container.pack"),
    (cli, "unpack", "container.unpack"),
    (cli, "serialize", "ans.serialize"),
    (cli, "deserialize", "ans.deserialize"),
    (ans, "serialize", "ans.serialize"),
    (ans, "deserialize", "ans.deserialize"),
    (cli, "encode_multiset", "mscodec.encode"),
    (mscodec, "encode_multiset", "mscodec.encode"),
    (cli, "decode_multiset", "mscodec.decode"),
    (mscodec, "decode_multiset", "mscodec.decode"),
    (cli, "rate_report", "mscodec.report"),
    (cli, "encode_nested", "nested.encode"),
    (cli, "decode_nested", "nested.decode"),
    (cli, "ingest_json_records", "nested.ingest"),
    (cli, "canonical_json", "nested.canonical_json"),
    (cli, "sequence_state", "nested.report"),
    (cli, "nested_savings_bound", "nested.report"),
    (mscodec, "build_balanced", "multiset.build"),
    (nested, "build_balanced", "multiset.build"),
    (Multiset, "from_iterable", "multiset.build"),
    (FreqTree, "to_multiset", "multiset.build"),
]

ANS_OWNERS = (mscodec, nested, symbols)
CODEC_CLASSES = (symbols.ByteStringCodec, symbols.QuantizedCategorical,
                 symbols.UniformCodec, nested.PairCodec)
TREE_METHODS = ("lookup_and_remove", "insert_and_lookup")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """Spans of one op and, when ``fine`` is set, its per-call records."""

    def __init__(self, fine: bool = False):
        self.fine = fine
        self.spans = []   # (id, parent, name, start, end), filled on close
        self._stack = []  # ids of the open spans
        self._names = []  # names of the open spans
        self._saved = []  # (owner, attribute, original) of every patch
        # Fine records.
        self.outer = []          # ANS ops outside codecs: (fn, state, triple, span)
        self.inner_kind = array("b")  # ANS ops inside codecs, flat over the op:
        self.inner_c = array("I")     # 0 encode_op / 1 decode_advance, and
        self.inner_p = array("I")     # the code triple
        self.inner_n = array("I")
        self.codec_calls = []    # top-level calls: (fn, codec, state, arg, span, first inner op)
        self.encode_calls = 0
        self.tree_calls = []     # (fn, tree, arg, span)
        self.tree_visits = 0
        self.tree_inits = {}     # id(tree) -> (tree, multiset it was built from)
        self.crc_bytes = 0
        self._depth = 0

    # -- spans -------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, names, clock = self.spans, self._stack, self._names, perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            names.append(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                names.pop()
                spans[sid] = (sid, parent, name, t0, t1)
        return wrapper

    def run(self, name, fn):
        """Run ``fn`` under a root span called ``name``; return its seconds."""
        self._span(name, fn)()
        _, _, _, t0, t1 = self.spans[0]
        return t1 - t0

    def _current(self) -> str:
        return self._names[-1] if self._names else ""

    # -- patches -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for owner, attr, name in SPANNED:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._span(name, raw.__func__)))
            elif attr == "build_balanced":
                self._set(owner, attr, self._span(name, self._remember_tree(raw)))
            else:
                self._set(owner, attr, self._span(name, raw))
        if not self.fine:
            return
        for owner in ANS_OWNERS:
            self._set(owner, "encode_op", self._ans(ans.encode_op, 0))
            self._set(owner, "decode_advance", self._ans(ans.decode_advance, 1))
        for cls in CODEC_CLASSES:
            self._set(cls, "encode", self._codec(cls.__dict__["encode"], True))
            self._set(cls, "decode", self._codec(cls.__dict__["decode"], False))
        for meth in TREE_METHODS:
            self._set(FreqTree, meth, self._tree(FreqTree.__dict__[meth]))
        self._set(container, "crc32c", self._crc(container.crc32c))

    def remove(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- fine recorders ----------------------------------------------------

    def _remember_tree(self, fn):
        def wrapper(m):
            tree = fn(m)
            if self.fine:
                self.tree_inits[id(tree)] = (tree, m)
            return tree
        return wrapper

    def _ans(self, fn, kind):
        outer, ik, ic, ip, inn = (self.outer, self.inner_kind, self.inner_c,
                                  self.inner_p, self.inner_n)

        def wrapper(s, t):
            if self._depth:
                c, p, n = t
                ik.append(kind)
                ic.append(c)
                ip.append(p)
                inn.append(n)
            else:
                outer.append((fn, s, t, self._current()))
            return fn(s, t)
        return wrapper

    def _codec(self, fn, is_encode):
        calls, inner = self.codec_calls, self.inner_kind

        def wrapper(codec, state, *arg):
            if not self._depth:
                calls.append((fn, codec, state, arg[0] if arg else _MISSING,
                              self._current(), len(inner)))
                self.encode_calls += is_encode
            self._depth += 1
            try:
                return fn(codec, state, *arg)
            finally:
                self._depth -= 1
        return wrapper

    def _tree(self, fn):
        calls = self.tree_calls

        def wrapper(tree, arg):
            before = tree.visits
            calls.append((fn, tree, arg, self._current()))
            try:
                return fn(tree, arg)
            finally:
                self.tree_visits += tree.visits - before
        return wrapper

    def _crc(self, fn):
        def wrapper(data, crc=0):
            self.crc_bytes += len(data)
            return fn(data, crc)
        return wrapper

    # -- counts ------------------------------------------------------------

    @property
    def ans_ops(self) -> int:
        return len(self.outer) + len(self.inner_kind)

    @property
    def tree_ops(self) -> int:
        return len(self.tree_calls)


def span_times(rec: Recorder) -> tuple[dict, dict]:
    """Inclusive seconds per span name, and self seconds per layer.

    A span counts towards its name's inclusive time only when no enclosing
    span belongs to the same layer (``rate_report`` encodes the multiset
    again; that encode is report time, not encode time). Self time is a
    span's duration minus its children's.
    """
    spans = rec.spans
    child = defaultdict(float)
    for _, parent, _, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    inclusive = defaultdict(float)
    self_s = defaultdict(float)
    for sid, parent, name, t0, t1 in spans:
        layer = layer_of(name)
        self_s[layer] += t1 - t0 - child[sid]
        p = parent
        while p > 0 and layer_of(spans[p][2]) != layer:
            p = spans[p][1]
        if p <= 0:  # the root span (id 0) does not count as enclosing
            inclusive[name] += t1 - t0
    return dict(inclusive), dict(self_s)


def _timed_groups(groups: dict, run) -> dict:
    out = {}
    for span, items in groups.items():
        t0 = perf_counter()
        run(items)
        out[span] = perf_counter() - t0
    return out


def _run_calls(items):
    for fn, a, b in items:
        fn(a, b)


def _run_codec(items):
    outs = []
    for fn, codec, s, arg in items:
        outs.append(fn(codec, s) if arg is _MISSING else fn(codec, s, arg))
    return outs


_BATCH_OPS = 1 << 16


def _replay_inner(rec: Recorder, calls) -> tuple[float, list]:
    """Replay the ANS ops made inside the given top-level codec calls."""
    fns = (ans.encode_op, ans.decode_advance)
    ik, ic, ip, inn = rec.inner_kind, rec.inner_c, rec.inner_p, rec.inner_n
    busy = 0.0
    finals = []
    batch, size = [], 0

    def flush():
        nonlocal busy
        t0 = perf_counter()
        for s, ops in batch:
            for fn, t in ops:
                s = fn(s, t)
            finals.append(s)
        busy += perf_counter() - t0
        batch.clear()

    for state, lo, hi in calls:
        batch.append((state, [(fns[ik[j]], CodeTriple(ic[j], ip[j], inn[j]))
                              for j in range(lo, hi)]))
        size += hi - lo
        if size >= _BATCH_OPS:
            flush()
            size = 0
    flush()
    return busy, finals


def replay(rec: Recorder) -> dict:
    """Busy seconds of the fine layers, keyed by (layer, enclosing span name).

    Run after ``rec.remove()``, so every call is the unwrapped function. The
    codec replay includes the ANS ops inside codecs; those are also reported
    alone under ``("ans.inner", span)`` so they can be moved to the ANS layer.
    Raises ``RuntimeError`` if a replayed sequence does not reproduce itself.
    """
    busy = {}
    # Trees: rebuild each one as it was before its first recorded call.
    fresh = {}
    trees = defaultdict(list)
    for fn, tree, arg, span in rec.tree_calls:
        key = id(tree)
        if key not in fresh:
            init = rec.tree_inits.get(key)
            fresh[key] = multiset.build_balanced(init[1]) if init else FreqTree()
        trees[span].append((fn, fresh[key], arg))
    for span, t in _timed_groups(trees, _run_calls).items():
        busy[("multiset", span)] = t
    # ANS ops outside codecs (the sampling steps) carry their input state.
    outer = defaultdict(list)
    for fn, s, t, span in rec.outer:
        outer[span].append((fn, s, t))
    for span, t in _timed_groups(outer, _run_calls).items():
        busy[("ans", span)] = t
    # Codec calls, then the ANS ops inside them on their own.
    bounds = [c[5] for c in rec.codec_calls] + [len(rec.inner_kind)]
    codec_groups = defaultdict(list)
    inner_groups = defaultdict(list)
    for k, (fn, codec, s, arg, span, lo) in enumerate(rec.codec_calls):
        codec_groups[span].append((fn, codec, s, arg))
        inner_groups[span].append((s, lo, bounds[k + 1]))
    for span, items in codec_groups.items():
        t0 = perf_counter()
        outs = _run_codec(items)
        busy[("symbols", span)] = perf_counter() - t0
        busy[("ans.inner", span)], finals = _replay_inner(rec, inner_groups[span])
        for o, f, (_, _, _, arg) in zip(outs, finals, items):
            if (o if arg is not _MISSING else o[0]) != f:
                raise RuntimeError("replayed ANS ops do not reproduce a codec call")
    return busy


def attribute(self_s: dict, busy: dict) -> dict:
    """Self seconds per layer: span self times ``self_s`` with the replayed
    ``busy`` time of the fine layers moved out of the span they ran under."""
    out = dict.fromkeys(LAYERS, 0.0)
    out.update(self_s)
    for (kind, span), t in busy.items():
        if kind == "ans.inner":
            out["symbols"] -= t
            out["ans"] += t
        else:
            out[layer_of(span)] -= t
            out[kind] += t
    return out
