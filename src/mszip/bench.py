"""Benchmark harness: synthetic multisets and JSON collections, CSV out.

Synthetic runs draw a skewed source from a Dirichlet prior with concentration
alpha_k = k over the alphabet, generate a multiset with an exact number of
unique symbols, and measure rate and time for a full encode + decode.
Timing covers tree build, sampling, and coding; data generation, codec
construction, and I/O are excluded, and the garbage collector is kept out. A
synthetic time is the median of five runs taken in five sweeps over every
(alphabet, repetition, size) multiset, so that drift in machine speed moves
them alike. Every run, synthetic or JSON, is timed on this thread's CPU clock
(``time.thread_time``), which time spent waiting while other processes run
does not inflate. Everything is seed-deterministic, so a repeated run
reproduces every column except the time ones.

The generators use the standard library's ``random.Random``, seeded per
(seed, alphabet, size, repetition) by a string, which ``random`` hashes with
SHA-512, so the data does not depend on ``PYTHONHASHSEED``. The
fixed-unique-count generator works support-first: it picks the support of
``unique`` distinct symbols by weighted sampling without replacement
(exponential races), puts one count on each, then distributes the remaining
draws i.i.d. from the source restricted and renormalized to the support.
"""

from __future__ import annotations

import csv
import gc
import heapq
import math
import random
import sys
import time
from collections import Counter
from contextlib import contextmanager
from statistics import median

from .ans import fractional_bits, length_bits, state_new
from .errors import ContractError
from .mscodec import encode_sequence, info_content, sample_decode, sample_encode
from .multiset import FreqTree, Multiset, build_balanced
from .nested import NestedMultiset, decode_nested, encode_nested, \
    ingest_json_records, nested_savings_bound, sequence_state
from .symbols import QuantizedCategorical

def gen_dirichlet_source(alphabet_size: int, seed) -> list[float]:
    """Skewed pmf over [0, alphabet_size) from Dirichlet(alpha_k = k).

    Drawn as independent Gamma(k) variates normalized to sum one, with
    ``random.Random(seed)`` as the documented generator.
    """
    if alphabet_size < 1:
        raise ContractError("alphabet must have at least one symbol")
    rng = random.Random(seed)
    # the floor guards against gamma underflow at alpha=1
    w = [max(rng.gammavariate(k, 1.0), 1e-300) for k in range(1, alphabet_size + 1)]
    total = math.fsum(w)
    return [x / total for x in w]


def gen_fixed_unique_multiset(pmf, unique: int, size: int, seed) -> Multiset:
    """Multiset of ``size`` symbols with exactly ``unique`` distinct ones."""
    n = len(pmf)
    if not 1 <= unique <= n:
        raise ContractError(f"unique count {unique} outside [1, {n}]")
    if size < unique:
        raise ContractError(f"multiset size {size} below unique count {unique}")
    rng = random.Random(seed)
    race = ((rng.expovariate(1.0) / w, k) for k, w in enumerate(pmf))
    support = [k for _, k in heapq.nsmallest(unique, race)]
    counts = Counter(support)
    counts.update(rng.choices(support, [pmf[k] for k in support], k=size - unique))
    return Multiset(sorted(counts.items()))


def _precision_for(alphabet_size: int) -> int:
    """Power-of-two precision with headroom over the alphabet, min mass >= 1."""
    return 1 << min(24, max(16, alphabet_size.bit_length() + 1))


def _subseed(*parts) -> str:
    return "/".join(map(str, parts))


@contextmanager
def _gc_paused():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _round_trip(m: Multiset, codec):
    """Encode and decode ``m`` once; return the state, the encoder and decoder
    trees, and the encode and decode seconds of this thread's CPU time."""
    dtree = FreqTree()
    with _gc_paused():
        t0 = time.thread_time()
        etree = build_balanced(m)
        state = sample_encode(state_new(), etree, codec)
        t1 = time.thread_time()
        sample_decode(state, m.total, codec, dtree)
        out = dtree.to_multiset()
        t2 = time.thread_time()
    if out != m:
        raise RuntimeError("round-trip mismatch in benchmark")
    return state, etree, dtree, t1 - t0, t2 - t1


def synthetic_sweeps(unique: int, sizes, alphabets, seed: int = 0,
                     reps: int = 1) -> tuple[list, list]:
    """The (alphabet, precision, codec, repetition, multiset) of each
    (alphabet, repetition, size) row, and five sweeps of round trips over
    them: each sweep holds, per row in row order, the ``_round_trip`` result
    (state, encoder tree, decoder tree, encode seconds, decode seconds)."""
    if reps < 1:
        raise ContractError("repetitions must be >= 1")
    if not sizes or not alphabets:
        raise ContractError("need at least one size and one alphabet")
    for a in alphabets:
        if unique > a:
            raise ContractError(
                f"cannot place {unique} unique symbols in an alphabet of {a}")
    for s in sizes:
        if unique > s:
            raise ContractError(
                f"cannot fit {unique} unique symbols in a multiset of {s}")
    groups = []
    for a in alphabets:
        pmf = gen_dirichlet_source(a, _subseed(seed, a))
        precision = _precision_for(a)
        codec = QuantizedCategorical.from_weights(range(a), pmf, precision)
        for rep in range(reps):
            for size in sizes:
                m = gen_fixed_unique_multiset(pmf, unique, size,
                                              _subseed(seed, a, size, rep))
                groups.append((a, precision, codec, rep, m))
    sweeps = [[_round_trip(m, codec) for _, _, codec, _, m in groups]
              for _ in range(5)]
    return groups, sweeps


def synthetic_rows(unique: int, sizes, alphabets, seed: int = 0,
                   reps: int = 1) -> list[dict]:
    """One row per (alphabet, repetition, size) multiset of ``unique`` symbols.

    ``compressed_bits`` and ``sequence_bits`` are serialized sizes, in whole
    words; ``savings_bits`` is the information content (``fractional_bits``)
    of the order-keeping state less that of the written one, as in
    ``json_rows``."""
    groups, sweeps = synthetic_sweeps(unique, sizes, alphabets, seed, reps)
    rows = []
    for (a, precision, codec, rep, m), runs in zip(groups, zip(*sweeps)):
        state, etree, dtree, _, _ = runs[-1]
        sequence_s = encode_sequence(m.expand(), codec)
        rows.append({
            "alphabet_size": a,
            "multiset_size": m.total,
            "unique_symbols": unique,
            "repetition": rep,
            "seed": seed,
            "precision": precision,
            "compressed_bits": length_bits(state),
            "info_bits": round(info_content(m, codec), 3),
            "sequence_bits": length_bits(sequence_s),
            "savings_bits": _savings(sequence_s, state),
            "encode_s": round(median(r[3] for r in runs), 6),
            "decode_s": round(median(r[4] for r in runs), 6),
            "encoder_visits": etree.visits,
            "decoder_visits": dtree.visits,
        })
    return rows


def _savings(sequence_state, state) -> float:
    """The information of ``sequence_state`` less that of ``state``, rounded
    down to a thousandth of a bit: not the difference of two whole-word
    sizes, whose rounding could push it past the savings bound."""
    return math.floor(1000 * (fractional_bits(sequence_state)
                              - fractional_bits(state))) / 1000


def default_prefixes(n: int) -> list[int]:
    """Doubling prefixes of a record collection, always ending at n."""
    ks = []
    k = 8
    while k < n:
        ks.append(k)
        k *= 2
    if n >= 1:
        ks.append(n)
    return ks


def json_rows(text, repetitions: int = 1, prefixes=None) -> list[dict]:
    """Measure nested compression on growing prefixes of a JSON collection,
    each coded with the pair codec that ``compress --nested`` would write
    for it.

    ``compressed_bits`` and ``sequence_bits`` are serialized sizes, in whole
    words; ``savings_bits`` is the information content (``fractional_bits``)
    of the order-keeping state less that of the written one, which the word
    rounding of the two sizes cannot push past ``bound_bits``."""
    from .cli import pair_codec, pair_counts  # here, so that click loads late
    if repetitions < 1:
        raise ContractError(f"repetitions must be >= 1, got {repetitions}")
    records = ingest_json_records(text)
    if not records:
        raise ContractError("no records to benchmark")
    if prefixes is None:
        prefixes = default_prefixes(len(records))
    if not prefixes:
        raise ContractError("need at least one prefix")
    for k in prefixes:
        if not 1 <= k <= len(records):
            raise ContractError(f"prefix {k} outside [1, {len(records)}]")
    rows = []
    for k in prefixes:
        nm = NestedMultiset.from_records(records[:k])
        pc = pair_codec(*pair_counts(nm))
        bound = round(nested_savings_bound(nm), 3)
        sequence_s = sequence_state(nm, pc)
        sequence = length_bits(sequence_s)
        for rep in range(repetitions):
            with _gc_paused():
                t0 = time.thread_time()
                state, sizes = encode_nested(nm, pc)
                encode_s = time.thread_time() - t0
                t0 = time.thread_time()
                back = decode_nested(state, sizes, pc)
                decode_s = time.thread_time() - t0
            if back != nm:
                raise RuntimeError("nested round-trip mismatch in benchmark")
            savings = _savings(sequence_s, state)
            rows.append({
                "records": nm.outer_size,
                "pairs": nm.pair_count,
                "repetition": rep,
                "compressed_bits": length_bits(state),
                "sequence_bits": sequence,
                "savings_bits": savings,
                "bound_bits": bound,
                "savings_ratio": round(savings / bound, 6) if bound else 0.0,
                "encode_s": round(encode_s, 6),
                "decode_s": round(decode_s, 6),
            })
    return rows


def write_csv(rows: list[dict], path=None):
    """Write rows to ``path``, or stdout when no path is given, under a header
    of the first row's keys."""
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if path:
            out.close()
