"""Acceptance suite: one test per criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s``. Every data set is
seed-frozen so reruns are deterministic; only wall-clock columns vary.
"""

import itertools
import math
import random
import time
from statistics import median

import numpy as np

from helpers import (categorical_triple, fractional_bits, linear_forward,
                     linear_reverse, probe, random_multiset)
from mszip import (B, ByteStringCodec, CodeTriple, Container, FreqTree, L,
                   Multiset, NestedMultiset, PairCodec, QuantizedCategorical,
                   Record, UniformCodec, build_balanced, codec_blob,
                   decode_advance, decode_multiset, decode_nested, decode_peek,
                   encode_multiset, encode_nested, info_content, length_bits,
                   nested_savings_bound, pack, sequence_state, serialize,
                   state_new)
from mszip.bench import gen_dirichlet_source, synthetic_sweeps
from mszip.container import KIND_FLAT
from test_ans import run_stack_discipline_trial

EPS = 2.2e-5  # per-operation redundancy bound


def _ok(num, msg):
    print(f"\n[criterion {num:2d}] PASS: {msg}")


def test_criterion_01_round_trip_exactness():
    start = time.perf_counter()
    # exhaustive: every multiset of size <= 6 over a 3-symbol alphabet
    codec3 = QuantizedCategorical.from_weights(["a", "b", "c"], [3, 2, 1], 1 << 16)
    count = 0
    for size in range(7):
        for combo in itertools.combinations_with_replacement("abc", size):
            m = Multiset.from_iterable(combo)
            state = encode_multiset(m, codec3)
            assert decode_multiset(state, m.total, codec3) == m
            count += 1
    assert count == 84

    # 500 seeded random multisets, mixed repeat profiles, alphabets to 2^16
    rng = random.Random(20260811)
    wide = UniformCodec(1 << 16)
    cat = QuantizedCategorical.from_weights(
        list(range(256)), [rng.random() + 0.01 for _ in range(256)], 1 << 16)
    for trial in range(500):
        m = random_multiset(rng, max_total=4096)
        codec = cat if trial % 5 == 0 and all(s < 256 for s, _ in m.pairs) else wide
        state = encode_multiset(m, codec)
        assert decode_multiset(state, m.total, codec) == m
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    _ok(1, f"84 exhaustive + 500 random round trips exact in {elapsed:.1f}s")


def test_criterion_02_order_invariance():
    rng = random.Random(20260812)
    mismatches = 0
    for _ in range(100):
        size = rng.randint(2, 300)
        payloads = [rng.randbytes(rng.randint(0, 24)) for _ in range(size)]
        codec = ByteStringCodec(max(len(p) for p in payloads))
        cid, blob = codec_blob(codec)

        def container_bytes(seq):
            m = Multiset.from_iterable(seq)
            state = encode_multiset(m, codec)
            return pack(Container(kind=KIND_FLAT, codec_id=cid, codec_blob=blob,
                                  size=m.total, inner_sizes=(),
                                  state=serialize(state)))

        reference = container_bytes(payloads)
        for _ in range(10):
            rng.shuffle(payloads)
            if container_bytes(payloads) != reference:
                mismatches += 1
    assert mismatches == 0
    _ok(2, "100 multisets x 10 shuffles: containers bit-identical")


def test_criterion_03_rate_optimality():
    cases = [(1 << 10, UniformCodec(1 << 16)),
             (1 << 12, UniformCodec(1 << 24)),
             (1 << 14, UniformCodec(1 << 24))]
    lines = []
    for size, codec in cases:
        rng = np.random.default_rng(20260813 + size)
        m = Multiset.from_iterable(
            int(x) for x in rng.integers(0, codec.size, size))
        compressed = length_bits(encode_multiset(m, codec))
        info = info_content(m, codec)
        overhead = compressed - info
        budget = 64 + 2 * size * EPS
        assert overhead <= budget, (size, overhead, budget)
        if info >= 1e4:
            assert overhead / info <= 0.002, (size, overhead / info)
        lines.append(f"|M|=2^{size.bit_length() - 1} overhead {overhead:.2f} <= {budget:.2f}")
    _ok(3, "; ".join(lines))


def test_criterion_04_savings_magnitude():
    start = time.perf_counter()
    rng = random.Random(20260814)
    symbols = [f"{k:06d}".encode() + rng.randbytes(6) for k in range(7054)]
    m = Multiset.from_iterable(symbols)
    assert m.unique == 7054
    codec = ByteStringCodec(15)

    seq = state_new()
    for sym in m.expand():
        seq = codec.encode(seq, sym)
    sequence_bits = length_bits(seq)
    compressed_bits = length_bits(encode_multiset(m, codec))
    savings = sequence_bits - compressed_bits
    back = decode_multiset(encode_multiset(m, codec), m.total, codec)
    assert back == m
    elapsed = time.perf_counter() - start
    assert 78_400 <= savings <= 81_600, savings
    assert elapsed < 30
    _ok(4, f"7054 unique symbols save {savings} bits "
           f"(log2 7054! = {math.lgamma(7055) / math.log(2):.0f}) in {elapsed:.1f}s")


def _sweep_times(groups, sweep):
    """One sweep's min encode+decode seconds over the repetitions of each
    (alphabet, size), in row order."""
    best = {}
    for (a, _, _, _, m), r in zip(groups, sweep):
        t = r[3] + r[4]
        key = (a, m.total)
        best[key] = min(best.get(key, t), t)
    return list(best.values())


# The time ratios are taken within each sweep, whose times lie close
# together, then their median over the five sweeps: a change in machine
# speed between sweeps moves a sweep's times alike and leaves its ratios.

def test_criterion_05_alphabet_independence():
    alphabets = (1 << 10, 1 << 14, 1 << 18)
    groups, sweeps = synthetic_sweeps(512, (1 << 13,), alphabets, seed=20260815,
                                      reps=3)
    ratios = []
    for sweep in sweeps:
        ts = _sweep_times(groups, sweep)
        ratios.append(max(ts) / min(ts))
    ratio = median(ratios)
    assert ratio < 1.5, ratios
    _ok(5, f"|A| 2^10..2^18 at |M|=2^13: time ratio {ratio:.2f} < 1.5")


def test_criterion_06_linear_scaling():
    sizes = tuple(1 << k for k in range(10, 15))
    groups, sweeps = synthetic_sweeps(512, sizes, (1 << 14,), seed=20260816,
                                      reps=5)
    per_sweep = []
    for sweep in sweeps:
        ts = _sweep_times(groups, sweep)
        per_sweep.append([b / a for a, b in zip(ts, ts[1:])])
    ratios = [median(r) for r in zip(*per_sweep)]
    assert all(1.6 <= r <= 2.6 for r in ratios), per_sweep
    _ok(6, "per-doubling time ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_07_bst_complexity():
    rng = random.Random(20260817)
    # encoder side: balanced-built tree, every operation within depth + 1
    for m_unique in (1 << 6, 1 << 10):
        bound = math.ceil(math.log2(m_unique + 1)) + 1
        m = Multiset([(k, rng.randint(1, 4)) for k in range(m_unique)])
        tree = build_balanced(m)
        while tree.total:
            before = tree.visits
            tree.lookup_and_remove(rng.randrange(tree.total))
            assert tree.visits - before <= bound

    # decoder side: random insertion orders stay within 3 log2(M+1) on average
    means = []
    for m_unique in (1 << 6, 1 << 10):
        cap = 3 * math.log2(m_unique + 1)
        syms = list(range(m_unique)) * 2
        for _ in range(5):
            rng.shuffle(syms)
            tree = FreqTree()
            for sym in syms:
                tree.insert_and_lookup(sym)
            mean = tree.visits / len(syms)
            assert mean <= cap, (m_unique, mean, cap)
            means.append(mean)
    _ok(7, f"encoder visits <= depth+1; decoder mean visits "
           f"{max(means):.2f} within 3*log2(M+1)")


def test_criterion_08_oracle_equivalence():
    rng = random.Random(20260818)
    for _ in range(10_000):
        run_stack_discipline_trial(rng)

    # tree probes against the linear-scan oracle, M <= 64
    for _ in range(300):
        pairs = sorted(
            (sym, rng.randint(1, 6))
            for sym in rng.sample(range(1000), rng.randint(1, 64)))
        m = Multiset(pairs)
        tree = build_balanced(m)
        for i in range(m.total):
            found, again = probe(tree, i)
            assert found == linear_reverse(m.pairs, i)
            assert again == linear_forward(m.pairs, found[0])
    _ok(8, "10^4 op sequences decode identically on streaming and exact "
           "coders; tree probes match linear scans")


def test_criterion_09_nested_bound():
    records = [
        Record([(f"k{j}".encode(), f"r{i:04d}v{j}".encode()) for j in range(5)])
        for i in range(1000)
    ]
    nm = NestedMultiset.from_records(records)
    assert nm.records.unique == 1000  # all records distinct
    pc = PairCodec(15)
    state, sizes = encode_nested(nm, pc)
    assert decode_nested(state, sizes, pc) == nm
    savings = length_bits(sequence_state(nm, pc)) - length_bits(state)
    bound = nested_savings_bound(nm)
    assert savings >= 0.95 * bound, (savings, bound)
    assert savings <= bound

    # shuffling the array and the keys inside each record changes nothing
    rng = random.Random(20260819)
    for _ in range(3):
        rng.shuffle(records)
        jumbled = []
        for r in records:
            pairs = list(r.pairs.expand())
            rng.shuffle(pairs)
            jumbled.append(Record(pairs))
        state2, sizes2 = encode_nested(NestedMultiset.from_records(jumbled), pc)
        # states compare by their bytes: == on tuples recurses once per word
        assert (serialize(state2), sizes2) == (serialize(state), sizes)
    _ok(9, f"nested savings {savings} of bound {bound:.0f} "
           f"({savings / bound:.1%}); shuffles bit-identical")


def _step_deltas(m, codec):
    """Per-step state length changes, net of synthesized zero words."""
    s = state_new()
    tree = build_balanced(m)
    deltas = []
    while tree.total:
        n = tree.total
        before = fractional_bits(s)
        i = decode_peek(s, n)
        sym, c, p = tree.lookup_and_remove(i)
        # replay the refill to count words drawn from the implicit pool
        h = p * (s[0] // n) + i - c
        w = s[1]
        synthesized = 0
        while h < L:
            if w:
                top, w = w
                h = (h << 32) | top
            else:
                h <<= 32
                synthesized += 1
        s = decode_advance(s, CodeTriple(c, p, n))
        # replay the spill to count zero words returned to the pool
        t = categorical_triple(codec, sym)
        h, w = s
        limit = (L // t.n) * B * t.p
        returned = 0
        while h >= limit:
            if not (h & 0xFFFFFFFF) and not w:
                returned += 1
            else:
                w = (h & 0xFFFFFFFF, w)
            h >>= 32
        s = codec.encode(s, sym)
        measured = fractional_bits(s) - before - 32 * synthesized + 32 * returned
        ideal = math.log2(t.n / t.p) - math.log2(n / p)
        assert abs(measured - ideal) < 1e-3
        deltas.append(measured)
    return deltas


def _spearman(xs, ys):
    def ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(len(v))
        return r

    return float(np.corrcoef(ranks(np.asarray(xs)), ranks(np.asarray(ys)))[0, 1])


def test_criterion_10_initial_bits_trend():
    pmf = gen_dirichlet_source(64, seed=20260820)
    codec = QuantizedCategorical.from_weights(list(range(64)), pmf, 1 << 16)
    size = 256
    sums = np.zeros(size)
    runs = 1000
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence([20260821, run]))
        m = Multiset.from_iterable(int(x) for x in rng.choice(64, size, p=pmf))
        sums += np.asarray(_step_deltas(m, codec))
    mean_deltas = sums / runs
    rho = _spearman(mean_deltas, np.arange(size))
    assert rho >= 0, rho
    _ok(10, f"mean per-step length change trends upward (Spearman {rho:.3f})")
