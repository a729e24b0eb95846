"""Coder-level tests: hand-checked formula values, inverses, oracle equality."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mszip
from helpers import ExactAnsState, fractional_bits, random_triple
from mszip import (B, CodeTriple, ContractError, FormatError, L, decode_advance,
                   decode_peek, deserialize, encode_op, length_bits, serialize,
                   state_new)


def triples():
    return st.integers(1, 1 << 15).flatmap(
        lambda n: st.tuples(st.integers(1, n), st.just(n)).flatmap(
            lambda pn: st.builds(CodeTriple, st.integers(0, pn[1] - pn[0]),
                                 st.just(pn[0]), st.just(pn[1]))))


class TestExactFormulas:
    """Frozen hand evaluations of the coding equations (exact mode)."""

    def test_encode_hand_value(self):
        # 4*(5 div 2) + 1 + 5 mod 2 = 10
        assert ExactAnsState(5).encode_op(CodeTriple(1, 2, 4)).value == 10

    def test_decode_inverts_hand_value(self):
        # 2*(10 div 4) + 10 mod 4 - 1 = 5
        s = ExactAnsState(10)
        assert s.decode_peek(4) == 2
        assert s.decode_advance(CodeTriple(1, 2, 4)).value == 5

    def test_probability_one_symbol_is_identity(self):
        for v in (1, 5, 2**20, 2**40 + 12345):
            for n in (1, 4, 256):
                assert ExactAnsState(v).encode_op(CodeTriple(0, n, n)).value == v

    def test_one_bit_per_half_probability(self):
        assert ExactAnsState(2**20).encode_op(CodeTriple(0, 1, 2)).value == 2**21

    def test_peek_examples(self):
        assert ExactAnsState(10).decode_peek(4) == 2
        assert ExactAnsState(10).decode_peek(1) == 0
        assert ExactAnsState(2**31).decode_peek(8) == 0

    @given(st.integers(0, 2**80), triples())
    def test_exact_inverse_pair(self, v, t):
        s = ExactAnsState(v)
        enc = s.encode_op(t)
        assert enc.decode_peek(t.n) in range(t.c, t.c + t.p)
        assert enc.decode_advance(t) == s


class TestStateBasics:
    def test_state_new(self):
        s = state_new()
        assert s == (L, ()) and L == 2**31
        assert type(s) is tuple and type(deserialize(serialize(s))) is tuple
        assert length_bits(s) == 64
        assert not hasattr(mszip, "AnsState") and not hasattr(mszip.ans, "AnsState")

    def test_fresh_state_low_bits_are_zero(self):
        assert decode_peek(state_new(), 8) == 0

    def test_peek_mod_one(self):
        s = encode_op(state_new(), CodeTriple(3, 1, 16))
        assert decode_peek(s, 1) == 0

    def test_serialized_minimal_state(self):
        data = serialize(state_new())
        assert data == (2**31).to_bytes(8, "big")
        assert len(data) == 8

    def test_two_words_serialize_to_16_bytes(self):
        s = (L + 7, (0xDEADBEEF, (0x12345678, ())))
        data = serialize(s)
        assert len(data) == 16
        # bottom word first, head last
        assert data[:4] == (0x12345678).to_bytes(4, "big")
        assert data[4:8] == (0xDEADBEEF).to_bytes(4, "big")
        assert deserialize(data) == s

    def test_deserialize_strips_bottom_zero_words(self):
        raw = (0).to_bytes(4, "big") + (9).to_bytes(4, "big") + (L + 1).to_bytes(8, "big")
        assert deserialize(raw) == (L + 1, (9, ()))

    def test_deep_state_roundtrip(self):
        # 12,000 words with zero words at the bottom, inside and at the top;
        # states this deep are compared by serialize (see the ans notes)
        rng = random.Random(3)
        words = [0, 0, 0, 0x100, *(rng.choice([0, rng.randrange(B)])
                                   for _ in range(11_995)), 0]
        stack = ()
        for w in words:
            stack = (w, stack)
        s = (L + 5, stack)
        data = serialize(s)
        assert len(data) == 8 + 4 * len(words)
        # words bottom to top, 32-bit big-endian, then the 64-bit head
        assert data == b"".join(w.to_bytes(4, "big") for w in words) + s[0].to_bytes(8, "big")
        back = deserialize(data)
        assert serialize(back) == data[12:]  # less the three bottom zero words
        assert length_bits(back) == 64 + 32 * (len(words) - 3)

    def test_fractional_bits_equals_the_word_walk(self):
        # 2,500 words, counted one by one against the count length_bits takes
        rng = random.Random(5)
        stack = ()
        for _ in range(2_500):
            stack = (rng.randrange(1, B), stack)
        k, w = 0, stack
        while w:
            k, w = k + 1, w[1]
        for head in (L, L + 12_345, B * L - 1):
            assert fractional_bits((head, stack)) == 32 * k + math.log2(head)

    @pytest.mark.parametrize("head", [0, L - 1, B * L, 2**64 - 1])
    def test_non_canonical_head_rejected(self, head):
        with pytest.raises(FormatError):
            deserialize((7).to_bytes(4, "big") + head.to_bytes(8, "big"))

    @pytest.mark.parametrize("size", [0, 4, 7, 9, 13])
    def test_bad_lengths_rejected(self, size):
        with pytest.raises(FormatError):
            deserialize(bytes(size))

    def test_length_monotone_under_informative_encodes(self):
        rng = random.Random(7)
        s = state_new()
        prev = length_bits(s)
        for _ in range(200):
            n = rng.randint(2, 1 << 12)
            p = rng.randint(1, n - 1)  # p < n adds information
            s = encode_op(s, CodeTriple(rng.randint(0, n - p), p, n))
            cur = length_bits(s)
            assert cur >= prev
            prev = cur


class TestTripleValidation:
    def test_zero_mass_rejected(self):
        with pytest.raises(ContractError):
            encode_op(state_new(), CodeTriple(0, 0, 4))

    def test_interval_overflow_rejected(self):
        with pytest.raises(ContractError):
            encode_op(state_new(), CodeTriple(3, 2, 4))

    def test_precision_above_limit_rejected(self):
        with pytest.raises(ContractError):
            encode_op(state_new(), CodeTriple(0, 1, L + 1))

    def test_peek_precision_bounds(self):
        with pytest.raises(ContractError):
            decode_peek(state_new(), 0)

    def test_advance_requires_matching_interval(self):
        # fresh head peeks 0 under any n, so [1, 2) cannot match
        with pytest.raises(ContractError):
            decode_advance(state_new(), CodeTriple(1, 1, 4))

    # encode_op/decode_advance check plain-int triples inline and hand every
    # other triple to _checked; both paths must agree.

    @pytest.mark.parametrize("t", [(0, 0, 4), (3, 2, 4), (0, 1, L + 1), (-1, 1, 4),
                                   (0, 1, 0), (0, -1, 4)])
    @pytest.mark.parametrize("op", [encode_op, decode_advance])
    def test_out_of_range_rejected_by_both_ops(self, op, t):
        s = encode_op(state_new(), CodeTriple(5, 3, 16))
        with pytest.raises(ContractError):
            op(s, CodeTriple(*t))

    @pytest.mark.parametrize("convert", [np.int64, np.uint32, np.int32, int])
    def test_numpy_int_triples_match_plain_ints(self, convert):
        s = state_new()
        for t in [(5, 3, 16), (0, 1, 1 << 20), (7, 1, 1 << 30), (2, 9, 12)]:
            want = encode_op(s, t)
            got = encode_op(s, tuple(map(convert, t)))
            assert got == want and type(got) is tuple
            assert type(got[0]) is int
            back = decode_advance(got, tuple(map(convert, t)))
            assert back == s and type(back[0]) is int
            s = want

    def test_bool_triples_match_plain_ints(self):
        s = encode_op(state_new(), (1, 1, 2))
        assert encode_op(s, (False, True, 2)) == encode_op(s, (0, 1, 2))
        assert encode_op(s, (False, True, True)) == encode_op(s, (0, 1, 1))
        assert decode_advance(s, (True, True, 2)) == decode_advance(s, (1, 1, 2))

    @pytest.mark.parametrize("t", [(0.0, 1, 4), (0, 1.0, 4), (0, 1, 4.0)])
    @pytest.mark.parametrize("op", [encode_op, decode_advance])
    def test_float_triples_raise_type_error(self, op, t):
        with pytest.raises(TypeError):
            op(state_new(), t)


class TestInversePair:
    @settings(max_examples=200)
    @given(st.lists(triples(), min_size=1, max_size=40))
    def test_decode_of_encode_restores_state_exactly(self, ts):
        s = state_new()
        trail = []
        for t in ts:
            trail.append(s)
            s = encode_op(s, t)
        for t, prev in zip(reversed(ts), reversed(trail)):
            i = decode_peek(s, t.n)
            assert t.c <= i < t.c + t.p
            s = decode_advance(s, t)
            assert s == prev

    @settings(max_examples=200)
    @given(st.lists(triples(), max_size=12), st.integers(1, L))
    def test_encode_of_decode_restores_state_exactly(self, ts, n):
        # load arbitrary content, then sample once and undo it
        s = state_new()
        for t in ts:
            s = encode_op(s, t)
        i = decode_peek(s, n)
        t = CodeTriple(i, 1, n)
        assert encode_op(decode_advance(s, t), t) == s

    @pytest.mark.parametrize("words", [(), (7, ())])
    @pytest.mark.parametrize("offset", [0, 1, 12345, -1])
    def test_sampling_inverse_above_the_encode_range(self, offset, words):
        # n does not divide L, so heads in [M*B, B*L) are canonical but no
        # encode under n leaves them there without a refill
        n = 306783379
        m = n * (L // n)
        head = (m * B if offset >= 0 else B * L) + offset
        s = (head, words)
        i = decode_peek(s, n)
        for t in (CodeTriple(i, 1, n), CodeTriple(max(0, i - 5), 11, n)):
            d = decode_advance(s, t)
            assert L <= d[0] < B * L
            assert encode_op(d, t) == s

    def test_fresh_state_sampling_is_bit_exact(self):
        # synthesized zero words must round-trip through the implicit pool
        s = state_new()
        for n in (2, 3, 10, 257, 1 << 20):
            i = decode_peek(s, n)
            t = CodeTriple(i, 1, n)
            assert encode_op(decode_advance(s, t), t) == s

    def test_exhausted_state_raises(self):
        with pytest.raises(ContractError):
            decode_advance((1, ()), CodeTriple(1, 1, 4))


UNIFORM_NS = (1, 2, 3, 255, 256, 1 << 24, L - 1, L)


def _spill_then_exact(s, t):
    """``encode_op`` with the head arithmetic of ``ExactAnsState`` inside the
    documented spill loop and pull-back; also says whether it pulled back."""
    _, p, n = t
    head, words = s
    while head >= (L // n) * B * p:
        head, w = divmod(head, B)
        if w or words:
            words = (w, words)
    head = ExactAnsState(head).encode_op(t).value
    pulled = head < L
    if pulled:
        w, words = words if words else (0, ())
        head = head * B + w
    return (head, words), pulled


def _exact_then_refill(s, t):
    """``decode_advance`` with the head arithmetic of ``ExactAnsState``."""
    n = t[2]
    head, words = s
    if head >= n * (L // n) * B:
        head, w = divmod(head, B)
        if w or words:
            words = (w, words)
    head = ExactAnsState(head).decode_advance(t).value
    while head < L:
        w, words = words if words else (0, ())
        head = head * B + w
    return head, words


class TestUniformOps:
    """Ops with p == 1 skip the division by p; they must still be the
    coding equations inside the same spill, refill and pull-back."""

    @pytest.mark.parametrize("words", [(), (7, (1 << 31, ()))])
    @pytest.mark.parametrize("n", UNIFORM_NS)
    def test_encode_then_decode_match_the_exact_coder(self, n, words):
        rng = random.Random(n)
        heads = [L, B * L - 1, (L // n) * B - 1, (L // n) * B,
                 n * (L // n) * B - 1, n * (L // n) * B]
        heads += [rng.randrange(L, B * L) for _ in range(200)]
        for head in heads:
            if not L <= head < B * L:
                continue
            s = (head, words)
            for c in {0, n - 1, rng.randrange(n)}:
                t = (c, 1, n)
                e = encode_op(s, t)
                assert e == _spill_then_exact(s, t)[0]
                assert L <= e[0] < B * L
                assert decode_peek(e, n) == c
                assert decode_advance(e, t) == s
                i = decode_peek(s, n)
                d = decode_advance(s, (i, 1, n))
                assert d == _exact_then_refill(s, (i, 1, n))
                assert encode_op(d, (i, 1, n)) == s

    @pytest.mark.parametrize("words", [(), (7, ())])
    @pytest.mark.parametrize("n", [n for n in UNIFORM_NS if L % n])
    def test_pull_back_when_n_does_not_divide_L(self, n, words):
        # one spill leaves head >> 32 == L // n, and any c < L % n then
        # lands the head below L, so encode pulls a word back
        rng = random.Random(n)
        for _ in range(50):
            s = ((L // n) * B + rng.randrange(B), words)
            t = (rng.randrange(L % n), 1, n)
            expected, pulled = _spill_then_exact(s, t)
            assert pulled
            e = encode_op(s, t)
            assert e == expected
            assert decode_advance(e, t) == s

    @pytest.mark.parametrize("n", [n for n in UNIFORM_NS if n > 1])
    def test_decode_with_another_index_raises(self, n):
        rng = random.Random(n)
        for _ in range(20):
            s = (rng.randrange(L, B * L), (5, ()))
            i = decode_peek(s, n)
            with pytest.raises(ContractError):
                decode_advance(s, ((i + rng.randrange(1, n)) % n, 1, n))


class TestHeadRange:
    @settings(max_examples=300)
    @given(st.lists(triples(), min_size=1, max_size=50))
    def test_head_bounds_along_random_walks(self, ts):
        rng = random.Random(42)
        s = state_new()
        for t in ts:
            if rng.random() < 0.7:
                s = encode_op(s, t)
                assert L <= s[0] < B * L
            else:
                i = decode_peek(s, t.n)
                s = decode_advance(s, CodeTriple(i, 1, t.n))
                assert L <= s[0] < B * L

    def test_dyadic_precisions_keep_canonical_range(self):
        rng = random.Random(11)
        s = state_new()
        for _ in range(2000):
            k = rng.randint(0, 16)
            n = 1 << k
            p = 1 << rng.randint(0, k)
            c = rng.randrange(0, n - p + 1)
            s = encode_op(s, CodeTriple(c, p, n))
            assert L <= s[0] < B * L


class TestRateBound:
    def test_growth_within_per_op_redundancy(self):
        # guaranteed bound needs n <= 2^15 so the renormalized head stays
        # >= 2^16 times the mass; 2.2e-5 bits/op then covers the loss
        rng = random.Random(123)
        s = state_new()
        ideal = 0.0
        k = 10_000
        start = fractional_bits(s)
        for _ in range(k):
            t = random_triple(rng, max_n=1 << 15)
            ideal += math.log2(t.n / t.p)
            s = encode_op(s, t)
        grown = fractional_bits(s) - start
        assert grown <= ideal + k * 2.2e-5
        # and it cannot beat the ideal by more than rounding noise
        assert grown >= ideal - k * 2.2e-5


class TestExactOracleEquivalence:
    def test_identical_decoded_symbols_on_stack_discipline(self):
        rng = random.Random(2026)
        for _ in range(500):  # the full 10^4 pass runs in the acceptance suite
            run_stack_discipline_trial(rng)

    def test_full_trace_equality_before_renormalization(self):
        # while no renormalization has happened the two coders are identical,
        # peek indices included
        rng = random.Random(5)
        for _ in range(200):
            s = state_new()
            e = ExactAnsState(L)
            ts = []
            for _ in range(rng.randint(1, 3)):  # <= 24 bits, below any spill
                n = rng.randint(1, 256)
                p = rng.randint(1, n)
                c = rng.randint(0, n - p)
                t = CodeTriple(c, p, n)
                ts.append(t)
                s = encode_op(s, t)
                e = e.encode_op(t)
                assert s[1] == ()
                assert s[0] == e.value
            for t in reversed(ts):
                assert decode_peek(s, t.n) == e.decode_peek(t.n)
                s = decode_advance(s, t)
                e = e.decode_advance(t)
                assert s[0] == e.value


def run_stack_discipline_trial(rng: random.Random):
    """One random LIFO op sequence run on both coders; decoded symbols must
    match each other and the encoded history."""
    s = state_new()
    e = ExactAnsState(L)
    pending = []
    decoded_s, decoded_e, expected = [], [], []
    for _ in range(rng.randint(2, 24)):
        if pending and rng.random() < 0.4:
            t = pending.pop()
            expected.append(t)
            i = decode_peek(s, t.n)
            decoded_s.append((i >= t.c and i < t.c + t.p, t))
            s = decode_advance(s, t)
            j = e.decode_peek(t.n)
            decoded_e.append((j >= t.c and j < t.c + t.p, t))
            e = e.decode_advance(t)
        else:
            t = random_triple(rng)
            pending.append(t)
            s = encode_op(s, t)
            e = e.encode_op(t)
    while pending:
        t = pending.pop()
        expected.append(t)
        i = decode_peek(s, t.n)
        decoded_s.append((i >= t.c and i < t.c + t.p, t))
        s = decode_advance(s, t)
        j = e.decode_peek(t.n)
        decoded_e.append((j >= t.c and j < t.c + t.p, t))
        e = e.decode_advance(t)
    assert decoded_s == decoded_e == [(True, t) for t in expected]
    assert s == state_new()
    assert e == ExactAnsState(L)
