"""Codec tests: quantization oracle, inverse pairs, measured bit costs."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import byte_string_decode_chain, byte_string_encode_chain, fractional_bits
from mszip import (ByteStringCodec, CapacityError, CodeTriple, ContractError,
                   NotFoundError, PairCodec, QuantizedCategorical, UniformCodec, ans,
                   quantize_pmf, state_new, symbols)


class TestQuantizePmf:
    def test_exact_divisions(self):
        assert quantize_pmf([1, 1, 1, 1], 8) == [2, 2, 2, 2]
        assert quantize_pmf([0.5, 0.25, 0.25], 4) == [2, 1, 1]

    def test_largest_remainder_with_min_floor(self):
        assert quantize_pmf([0.9, 0.05, 0.05], 8) == [6, 1, 1]

    def test_against_enumeration_oracle(self):
        # best L1 apportionment with masses >= 1 is unique here
        weights, precision = [0.9, 0.05, 0.05], 8
        shares = [w / sum(weights) * precision for w in weights]
        best = min(
            (c for c in itertools.product(range(1, precision + 1), repeat=3)
             if sum(c) == precision),
            key=lambda c: sum(abs(a - b) for a, b in zip(c, shares)))
        assert quantize_pmf(weights, precision) == list(best)

    def test_zero_weights_get_minimum_mass(self):
        masses = quantize_pmf([1.0, 0.0, 0.0], 16)
        assert masses == [14, 1, 1]

    @given(st.lists(st.floats(0, 1000), min_size=1, max_size=40),
           st.sampled_from([64, 256, 1 << 12, 1 << 16]))
    def test_sums_and_minimums(self, weights, precision):
        if not any(w > 0 for w in weights):
            weights[0] = 1.0
        masses = quantize_pmf(weights, precision)
        assert sum(masses) == precision
        assert all(m >= 1 for m in masses)
        assert masses == quantize_pmf(weights, precision)  # deterministic

    def test_errors(self):
        with pytest.raises(CapacityError):
            quantize_pmf([1.0] * 9, 8)
        with pytest.raises(ContractError):
            quantize_pmf([], 8)
        with pytest.raises(ContractError):
            quantize_pmf([0.0, 0.0], 8)
        with pytest.raises(ContractError):
            quantize_pmf([1.0, -0.5], 8)


class TestCategorical:
    def alphabet_codec(self, n=16, seed=0, precision=1 << 12):
        rng = random.Random(seed)
        return QuantizedCategorical.from_weights(
            list(range(n)), [rng.random() + 0.01 for _ in range(n)], precision)

    def test_non_power_of_two_precision_rejected(self):
        with pytest.raises(ContractError):
            QuantizedCategorical([0, 1], [3, 4])
        with pytest.raises(ContractError):
            QuantizedCategorical.from_weights([0, 1], [1, 1], 100)

    def test_unsorted_alphabet_rejected(self):
        with pytest.raises(ContractError):
            QuantizedCategorical([1, 0], [2, 2])

    def test_unknown_symbol(self):
        codec = self.alphabet_codec()
        with pytest.raises(NotFoundError):
            codec.encode(state_new(), 99)
        with pytest.raises(NotFoundError):
            codec.bits("nope")

    @settings(max_examples=100)
    @given(st.randoms(use_true_random=False))
    def test_inverse_pair(self, rng):
        codec = self.alphabet_codec(seed=rng.randrange(1000))
        syms = [rng.randrange(16) for _ in range(rng.randint(1, 60))]
        s = state_new()
        for x in syms:
            s = codec.encode(s, x)
        for x in reversed(syms):
            s, got = codec.decode(s)
            assert got == x
        assert s == state_new()

    def test_single_symbol_alphabet_is_free(self):
        codec = QuantizedCategorical(["only"], [1 << 8])
        s = state_new()
        for _ in range(50):
            s = codec.encode(s, "only")
        assert s == state_new()
        assert codec.bits("only") == 0

    def test_uniform_256_costs_8_bits_amortized(self):
        codec = QuantizedCategorical.from_weights(
            list(range(256)), [1.0] * 256, 1 << 16)
        rng = random.Random(99)
        s = state_new()
        start = fractional_bits(s)
        n = 10_000
        for _ in range(n):
            s = codec.encode(s, rng.randrange(256))
        per_symbol = (fractional_bits(s) - start) / n
        assert abs(per_symbol - 8.0) <= 0.01

    def test_bits(self):
        codec = QuantizedCategorical([0, 1], [1, 3])
        assert codec.bits(0) == 2.0
        assert codec.bits(1) == pytest.approx(math.log2(4 / 3))


class TestUniformCodec:
    def test_roundtrip_any_size(self):
        for size in (1, 2, 3, 10, 257, 1 << 16, 1 << 24):
            codec = UniformCodec(size)
            s = state_new()
            xs = [k % size for k in (0, size - 1, size // 2)]
            for x in xs:
                s = codec.encode(s, x)
            for x in reversed(xs):
                s, got = codec.decode(s)
                assert got == x
            assert s == state_new()

    def test_range_checks(self):
        with pytest.raises(ContractError):
            UniformCodec(0)
        with pytest.raises(NotFoundError):
            UniformCodec(4).encode(state_new(), 4)


class TestByteStringCodec:
    def test_max_len_rounds_to_power_of_two_minus_one(self):
        assert ByteStringCodec(255).max_len == 255
        assert ByteStringCodec(100).max_len == 127
        assert ByteStringCodec(256).max_len == 511
        assert ByteStringCodec(0).max_len == 0

    def test_roundtrip(self):
        codec = ByteStringCodec(255)
        s = state_new()
        payloads = [b"ab", b"", b"\x00\xff" * 30, bytes(range(256))[:200]]
        for p in payloads:
            s = codec.encode(s, p)
        for p in reversed(payloads):
            s, got = codec.decode(s)
            assert got == p
        assert s == state_new()

    def test_empty_payload_costs_only_the_length_code(self):
        codec = ByteStringCodec(255)
        s = state_new()
        grown = -fractional_bits(s)
        s = codec.encode(s, b"")
        grown += fractional_bits(s)
        assert grown == pytest.approx(math.log2(256), abs=1e-4)

    def test_hundred_bytes_cost(self):
        codec = ByteStringCodec(255)
        payload = bytes(random.Random(1).randrange(256) for _ in range(100))
        s = state_new()
        grown = -fractional_bits(s)
        s = codec.encode(s, payload)
        grown += fractional_bits(s)
        assert grown == pytest.approx(800 + 8, abs=0.01)
        assert codec.bits(payload) == 808

    def test_too_long_rejected(self):
        with pytest.raises(CapacityError):
            ByteStringCodec(3).encode(state_new(), b"early")

    @pytest.mark.parametrize("payload", [[256], [-1], [1, -3], "ab"])
    def test_items_outside_a_byte_rejected(self, payload):
        with pytest.raises((ValueError, KeyError, TypeError)):
            ByteStringCodec(3).encode(state_new(), payload)

    def test_int_sequence_codes_like_bytes(self):
        codec = ByteStringCodec(3)
        assert codec.encode(state_new(), [1, 2, 255]) == \
            codec.encode(state_new(), b"\x01\x02\xff")

    @given(st.lists(st.binary(max_size=64), max_size=12))
    def test_roundtrip_property(self, payloads):
        codec = ByteStringCodec(64)
        s = state_new()
        for p in payloads:
            s = codec.encode(s, p)
        out = []
        for _ in payloads:
            s, got = codec.decode(s)
            out.append(got)
        assert out == list(reversed(payloads))
        assert s == state_new()

    @settings(max_examples=200)
    @given(st.randoms(use_true_random=False),
           st.lists(st.binary(max_size=300), max_size=8))
    def test_encode_and_decode_match_uniform_codec_chain(self, rng, payloads):
        codec = ByteStringCodec(300)
        # Preloaded content makes the head spill and refill stack words.
        s = state_new()
        for _ in range(rng.randrange(40)):
            s = UniformCodec(1 << 31).encode(s, rng.randrange(1 << 31))
        for p in payloads:
            want = byte_string_encode_chain(codec, s, p)
            s = codec.encode(s, p)
            assert s == want
        for p in reversed(payloads):
            want = byte_string_decode_chain(codec, s)
            s, got = codec.decode(s)
            assert (s, got) == want
            assert got == p


def _recorder(fn, ops):
    def wrapper(s, t):
        ops.append((fn, tuple(t)))
        return fn(s, t)
    return wrapper


def _replay(s, ops):
    for fn, t in ops:
        s = fn(s, CodeTriple(*t))
    return s


class TestTracedOps:
    """Every state change inside a codec is a call to the names
    ``mszip.symbols.encode_op``/``decode_advance``. A tracer that patches those
    names sees every op; replaying the recorded ops from a call's input state
    must give the call's output state."""

    CASES = [
        (ByteStringCodec(2047), [b"", b"\x00", bytes(range(256)), b"\xff" * 1024,
                                 bytes(2047)]),
        (PairCodec(64), [(b"k", b"v"), (b"", b""), (b"id", bytes(range(64)))]),
        (UniformCodec(1000), [0, 999, 500, 1]),
        (QuantizedCategorical([3, 5, 9], [1, 6, 1]), [3, 5, 9, 5, 5]),
    ]

    @pytest.mark.parametrize("codec,values", CASES,
                             ids=[type(c).__name__ for c, _ in CASES])
    def test_recorded_ops_replay_every_call(self, monkeypatch, codec, values):
        ops = []
        monkeypatch.setattr(symbols, "encode_op", _recorder(ans.encode_op, ops))
        monkeypatch.setattr(symbols, "decode_advance",
                            _recorder(ans.decode_advance, ops))
        s = state_new()
        for v in values:
            ops.clear()
            out = codec.encode(s, v)
            assert ops and {fn for fn, _ in ops} == {ans.encode_op}
            assert _replay(s, ops) == out
            s = out
        for v in reversed(values):
            ops.clear()
            out, got = codec.decode(s)
            assert got == v
            assert ops and {fn for fn, _ in ops} == {ans.decode_advance}
            assert _replay(s, ops) == out
            s = out
        assert s == state_new()

    def test_byte_codec_ops_are_one_per_byte_then_the_length(self, monkeypatch):
        ops = []
        monkeypatch.setattr(symbols, "encode_op", _recorder(ans.encode_op, ops))
        monkeypatch.setattr(symbols, "decode_advance",
                            _recorder(ans.decode_advance, ops))
        codec = ByteStringCodec(100)
        payload = bytes([7, 0, 255, 7])
        s = codec.encode(state_new(), payload)
        want = [(b, 1, 256) for b in reversed(payload)] + [(4, 1, 128)]
        assert [t for _, t in ops] == want
        ops.clear()
        codec.decode(s)
        assert [t for _, t in ops] == want[::-1]
