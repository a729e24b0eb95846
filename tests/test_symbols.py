"""Codec tests: quantization oracle, inverse pairs, measured bit costs."""

import itertools
import math
import random
import re

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from helpers import (byte_string_decode_chain, byte_string_encode_chain,
                     categorical_decode_reference, categorical_encode_reference,
                     categorical_triple, fractional_bits, quantize_pmf_reference)
from mszip import (B, ByteStringCodec, CodeTriple, ContractError, Multiset,
                   PairCodec, QuantizedCategorical, UniformCodec, ans, decode_peek,
                   deserialize, info_content, quantize_pmf, serialize, state_new,
                   symbols)


class TestQuantizePmf:
    def test_exact_divisions(self):
        assert quantize_pmf([1, 1, 1, 1], 8) == [2, 2, 2, 2]
        assert quantize_pmf([0.5, 0.25, 0.25], 4) == [2, 1, 1]

    def test_largest_remainder_with_min_floor(self):
        assert quantize_pmf([0.9, 0.05, 0.05], 8) == [6, 1, 1]

    def test_ties_go_to_the_lower_index(self):
        assert quantize_pmf([1, 1, 1], 8) == [3, 3, 2]
        assert quantize_pmf([1, 1, 1, 1, 1], 8) == [2, 2, 2, 1, 1]

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
        with pytest.raises(ContractError, match="9 symbols need precision >= 9"):
            quantize_pmf([1.0] * 9, 8)
        with pytest.raises(ContractError):
            quantize_pmf([], 8)
        with pytest.raises(ContractError):
            quantize_pmf([0.0, 0.0], 8)
        with pytest.raises(ContractError):
            quantize_pmf([1.0, -0.5], 8)

    @pytest.mark.parametrize("call, fragment", [
        (lambda: quantize_pmf([1e308, 1e308], 16), "weights sum past the largest float"),
        (lambda: quantize_pmf(["x"], 8), "weights must be real numbers"),
        (lambda: quantize_pmf([1, None], 8), "weights must be real numbers"),
        (lambda: quantize_pmf([1, 1], 8.0), "precision must be an integer, got float"),
        (lambda: QuantizedCategorical(["a", "b"], [1.5, 0.5]), "masses must be integers"),
        (lambda: QuantizedCategorical.from_weights([0, 1], [1, 1], 8.0),
         "precision must be an integer, got float"),
    ], ids=["fsum-overflow", "str-weight", "none-weight", "float-precision",
            "float-masses", "from-weights-float-precision"])
    def test_bad_input_names_the_fault(self, call, fragment):
        with pytest.raises(ContractError, match=fragment):
            call()

    @seed(20261021)
    @settings(max_examples=300)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308),
                              st.sampled_from([0.5, 1.0, 3.0]), st.floats(0, 1e6)),
                    min_size=1, max_size=60),
           st.integers(6, 16))
    @example([1.0, 1.0, 1.0], 3)  # residue > 0, tied gaps
    @example([0.9, 0.05, 0.05], 3)  # residue < 0
    def test_masses_match_the_reference(self, weights, log_precision):
        precision = max(1 << log_precision, len(weights))
        if not any(weights):
            weights[0] = 1.0
        assert quantize_pmf(weights, precision) == quantize_pmf_reference(weights, precision)

    @pytest.mark.parametrize("alpha, sign", [(lambda k: k, 1), (lambda k: 0.05, -1)],
                             ids=["alpha-k", "alpha-0.05"])
    def test_dirichlet_build_matches_the_reference(self, alpha, sign):
        n, precision = 1 << 14, 1 << 16
        rng = random.Random(14)
        gammas = [rng.gammavariate(alpha(k), 1.0) for k in range(1, n + 1)]
        scale = math.fsum(gammas)
        weights = [g / scale for g in gammas]  # a Dirichlet(alpha) draw
        # the residue's sign picks the pass: raise masses, or lower them
        total = math.fsum(weights)
        floors = [max(1, int(w / total * precision)) for w in weights]
        assert (precision - sum(floors)) * sign > 0
        masses = quantize_pmf_reference(weights, precision)
        codec = QuantizedCategorical.from_weights(range(n), weights, precision)
        cdf = list(itertools.accumulate(masses[:-1], initial=0))
        assert codec.pmf == masses
        assert codec.cdf == cdf
        assert codec._triples == [(c, p, precision) for c, p in zip(cdf, masses)]


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

    @pytest.mark.parametrize("alphabet, fragment", [
        ([1, "a"], "'<' not supported"),
        ([[1], [2]], "unhashable type: 'list'"),
        ([bytearray(b"a"), bytearray(b"b")], "unhashable type: 'bytearray'"),
    ], ids=["incomparable", "list", "bytearray"])
    def test_bad_alphabet_names_the_fault(self, alphabet, fragment):
        with pytest.raises(ContractError, match=re.escape(
                f"alphabet symbols must be hashable and comparable: {fragment}")):
            QuantizedCategorical(alphabet, [1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError, match="lengths differ"):
            QuantizedCategorical([1, 2], [2])

    def test_unknown_symbol(self):
        codec = self.alphabet_codec()
        for sym in (99, "nope", [1], {}):  # the last two are unhashable
            fragment = f"symbol {sym!r} is not in the alphabet"
            with pytest.raises(ContractError, match=re.escape(fragment)):
                codec.encode(state_new(), sym)
            with pytest.raises(ContractError, match=re.escape(fragment)):
                codec.bits(sym)

    def test_table_codec_matches_reference_at_every_head_length(self):
        rng = random.Random(8)
        # Precisions 2**0 to 2**31; above 2**16 a slot-table bucket spans
        # several indices. The last codec's alphabet exceeds 2**16. Zero
        # weights get mass 1.
        codecs = [QuantizedCategorical(["only"], [1])] + [
            QuantizedCategorical.from_weights(
                sorted(rng.sample(range(1 << 20), size)),
                [rng.choice([0.0, rng.random()]) for _ in range(size)], precision)
            for size, precision in [(24, 1 << 16), (24, 1 << 31), (24, 1 << 17),
                                    (24, 1 << 20), (24, 1 << 24), (70_000, 1 << 20)]]
        for codec in codecs:
            for k, sym in enumerate(codec.alphabet):
                assert categorical_triple(codec, sym) == CodeTriple(
                    codec.cdf[k], codec.pmf[k], codec.precision)
        for length, words, codec in itertools.product(range(32, 64), range(3), codecs):
            for head in (1 << (length - 1), (1 << length) - 1,
                         rng.randrange(1 << (length - 1), 1 << length)):
                stack = ()
                for k in range(words):  # the bottom word is nonzero
                    stack = (rng.randrange(k == 0, B), stack)
                s = (head, stack)
                where = (codec.precision, head, words)
                assert s[0] & (codec.precision - 1) == decode_peek(s, codec.precision)
                assert codec.decode(s) == categorical_decode_reference(codec, s), where
                for sym in codec.alphabet[::len(codec.alphabet) // 24 or 1]:
                    assert codec.encode(s, sym) == \
                        categorical_encode_reference(codec, s, sym), (*where, sym)

    @pytest.mark.parametrize("precision", [1 << 17, 1 << 20, 1 << 24, 1 << 31])
    def test_slot_table_at_every_interval_edge(self, precision):
        # a bucket of 2**(k - 16) indices can hold many intervals, found by a
        # search between the slots of this bucket and the next
        rng = random.Random(precision)
        codec = QuantizedCategorical.from_weights(
            range(3000), [rng.choice([0.0, rng.random()]) for _ in range(3000)],
            precision)
        for c, p in zip(codec.cdf, codec.pmf):
            for i in (c, c + p - 1):
                s = ((1 << 62) | i, ())
                assert codec.decode(s) == categorical_decode_reference(codec, s), i
        assert len(codec._slots) == (1 << 16) + 1

    def test_slot_table_is_built_by_the_first_decode_only(self):
        codec = self.alphabet_codec()
        s = codec.encode(state_new(), 3)
        assert codec._slots is None
        codec.decode(s)
        table = codec._slots
        assert len(table) == codec.precision + 1
        codec.decode(s)
        assert codec._slots is table

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
        with pytest.raises(ContractError, match=re.escape("symbol 4 outside [0, 4)")):
            UniformCodec(4).encode(state_new(), 4)
        with pytest.raises(ContractError, match="size must be an integer, got float"):
            UniformCodec(4.0)
        for sym, kind in ((1.5, "float"), ("1", "str")):
            with pytest.raises(ContractError,
                               match=f"symbol must be an integer, got {kind}"):
                UniformCodec(4).encode(state_new(), sym)


class TestByteStringCodec:
    def test_max_len_rounds_to_power_of_two_minus_one(self):
        assert ByteStringCodec(255).max_len == 255
        assert ByteStringCodec(100).max_len == 127
        assert ByteStringCodec(256).max_len == 511
        assert ByteStringCodec(0).max_len == 0
        assert ByteStringCodec((1 << 31) - 1).max_len == (1 << 31) - 1
        with pytest.raises(ContractError):  # the length code needs n <= 2**31
            ByteStringCodec(1 << 31)
        with pytest.raises(ContractError, match="max_len must be >= 0"):
            ByteStringCodec(-1)
        with pytest.raises(ContractError, match="max_len must be an integer, got str"):
            ByteStringCodec("15")

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

    def test_state_does_not_bound_a_payload_length(self):
        # Zero words spilled onto an empty stack rejoin the pool, so a long
        # payload of zeros leaves the minimal-size state: any cap on the
        # decoded length must come from the caller, not from the state.
        codec = ByteStringCodec(100_000)
        data = serialize(codec.encode(state_new(), bytes(100_000)))
        assert len(data) == 8
        s, got = codec.decode(deserialize(data))
        assert got == bytes(100_000)
        assert s == state_new()

    def test_too_long_rejected(self):
        with pytest.raises(ContractError, match="payload of 5 bytes exceeds max_len 3"):
            ByteStringCodec(3).encode(state_new(), b"early")

    @pytest.mark.parametrize("payload, fragment", [
        ([256], "payload item outside a byte, [0, 256)"),
        ([-1], "payload item outside a byte, [0, 256)"),
        ([1, -3], "payload item outside a byte, [0, 256)"),
        ("ab", "payload must be bytes, not str"),
        (3, "payload must be bytes, not int"),
        ([1.5], "list payload is not a sequence of byte values"),
        (None, "NoneType payload is not a sequence of byte values"),
    ], ids=["payload0", "payload1", "payload2", "ab", "int", "float-item", "none"])
    def test_items_outside_a_byte_rejected(self, payload, fragment):
        with pytest.raises(ContractError, match=re.escape(fragment)):
            ByteStringCodec(3).encode(state_new(), payload)

    @pytest.mark.parametrize("payload, fragment", [
        (b"x" * 10, "payload of 10 bytes exceeds max_len 3"),
        ("abc", "payload must be bytes, not str"),
        ([256], "payload item outside a byte, [0, 256)"),
        (None, "NoneType payload is not a sequence of byte values"),
    ], ids=["too-long", "str", "item-256", "none"])
    def test_bits_refuses_what_encode_refuses(self, payload, fragment):
        codec = ByteStringCodec(3)
        for call in (codec.bits, lambda p: codec.encode(state_new(), p)):
            with pytest.raises(ContractError, match=re.escape(fragment)):
                call(payload)
        if isinstance(payload, bytes):  # so no size is reported for it either
            with pytest.raises(ContractError, match=re.escape(fragment)):
                info_content(Multiset([(payload, 1)]), codec)

    def test_bits_of_what_encode_takes(self):
        codec = ByteStringCodec(3)
        assert codec.bits(b"abc") == codec.bits(bytearray(b"abc")) == \
            codec.bits([97, 98, 99]) == 8 * 3 + 2

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

    def test_every_head_length_matches_uniform_codec_chain(self):
        # Walk every canonical head length, at both ends of its range and
        # inside it, under 0, 1 and 2 stack words, through every tail width
        # and chunk counts from none to hundreds.
        codec = ByteStringCodec(2047)
        rng = random.Random(7)
        heads = []
        for bits in range(32, 64):
            heads += [1 << (bits - 1), (1 << bits) - 1,
                      rng.randrange(1 << (bits - 1), 1 << bits)]
        stacks = [(), (rng.randrange(1, B), ()), (0, (rng.randrange(1, B), ()))]
        payloads = [rng.randbytes(k) for k in [*range(10), 100, 1024, 2047]]
        for head in heads:
            for words in stacks:
                s = (head, words)
                for p in payloads:
                    want = byte_string_encode_chain(codec, s, p)
                    assert codec.encode(s, p) == want, (head, words, len(p))
                    assert codec.decode(want) == (s, p), (head, words, len(p))
                    # The decode starts from this head: code only the length.
                    t = UniformCodec(codec.max_len + 1).encode(s, len(p))
                    assert codec.decode(t) == byte_string_decode_chain(codec, t), \
                        (head, words, len(p))

    def test_long_payload_matches_uniform_codec_chain(self):
        # 2**16 + 3 bytes: over 21,000 three-byte chunks and a deep state
        codec = ByteStringCodec(2**17 - 1)
        payload = random.Random(5).randbytes(2**16 + 3)
        s = UniformCodec(1 << 31).encode(state_new(), 12345)
        s = codec.encode(s, payload)
        assert serialize(s) == serialize(byte_string_encode_chain(
            codec, UniformCodec(1 << 31).encode(state_new(), 12345), payload))
        got_s, got = codec.decode(s)
        want_s, want = byte_string_decode_chain(codec, s)
        assert got == want == payload
        assert serialize(got_s) == serialize(want_s)


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

    def test_byte_codec_ops_carry_up_to_three_bytes_then_the_length(self, monkeypatch):
        ops = []
        monkeypatch.setattr(symbols, "encode_op", _recorder(ans.encode_op, ops))
        monkeypatch.setattr(symbols, "decode_advance",
                            _recorder(ans.decode_advance, ops))
        codec = ByteStringCodec(2047)
        rng = random.Random(0)
        loaded = state_new()
        for _ in range(5):
            loaded = ans.encode_op(loaded, (rng.randrange(1 << 31), 1, 1 << 31))
        for start, k in itertools.product([state_new(), loaded],
                                          [*range(10), 100, 1024, 2047]):
            payload = rng.randbytes(k)
            ops.clear()
            s = codec.encode(start, payload)
            encoded = [t for _, t in ops]
            ops.clear()
            assert codec.decode(s) == (start, payload)
            decoded = [t for _, t in ops]
            # The length op is the last encoded and the first decoded. Each
            # byte op holds its bytes little-endian, the first decoded lowest.
            for length_op, byte_ops in [(encoded[-1], encoded[:-1][::-1]),
                                        (decoded[0], decoded[1:])]:
                assert length_op == (k, 1, 2048)
                assert all(p == 1 and n in (1 << 8, 1 << 16, 1 << 24)
                           for _, p, n in byte_ops)
                assert len(byte_ops) <= k // 2 + 2
                assert b"".join(c.to_bytes(n.bit_length() // 8, "little")
                                for c, _, n in byte_ops) == payload

    def test_byte_codec_spends_one_op_per_chunk_and_tail(self, monkeypatch):
        # k // 3 chunk ops, one tail op for the k % 3 last bytes when there
        # are any, and one length op: the same count on both sides.
        ops = []
        monkeypatch.setattr(symbols, "encode_op", _recorder(ans.encode_op, ops))
        monkeypatch.setattr(symbols, "decode_advance",
                            _recorder(ans.decode_advance, ops))
        codec = ByteStringCodec(2047)
        rng = random.Random(3)
        for k in [*range(10), *range(21, 28), 100, 1024, 2046, 2047]:
            payload = rng.randbytes(k)
            ops.clear()
            s = codec.encode(state_new(), payload)
            encoded = [t for _, t in ops]
            ops.clear()
            assert codec.decode(s) == (state_new(), payload)
            decoded = [t for _, t in ops]
            assert len(encoded) == len(decoded) == k // 3 + (k % 3 > 0) + 1
            # decoded: the length, the chunks in order, then the tail
            tail = [1 << 8 * (k % 3)] if k % 3 else []
            assert [n for _, _, n in decoded] == [2048, *[1 << 24] * (k // 3), *tail]
            assert encoded == decoded[::-1]
