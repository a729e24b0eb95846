"""Multiset codec tests: round trips, order invariance, rate identities."""

import itertools
import math
import random

import pytest

from helpers import random_multiset, sample_decode_reference, sample_encode_reference
from mszip import (B, L, ByteStringCodec, CodeTriple, ContractError, FormatError,
                   FreqTree, Multiset, QuantizedCategorical, UniformCodec, ans,
                   build_balanced, decode_advance, decode_multiset, decode_peek,
                   deserialize, encode_multiset, encode_op, info_content,
                   length_bits, mscodec, permutation_bits, rate_report,
                   sample_decode, sample_encode, serialize, state_new)

ABC = QuantizedCategorical.from_weights(["a", "b", "c"], [1, 1, 1], 1 << 16)


def roundtrip(m, codec):
    state = encode_multiset(m, codec)
    return decode_multiset(state, m.total, codec)


class TestRoundTrip:
    def test_tiny_example(self):
        m = Multiset.from_iterable("aac")
        assert roundtrip(m, ABC) == m

    def test_empty_multiset(self):
        m = Multiset()
        assert encode_multiset(m, ABC) == state_new()
        assert decode_multiset(state_new(), 0, ABC) == m

    def test_single_symbol_is_plain_decode(self):
        m = Multiset([("b", 1)])
        state = encode_multiset(m, ABC)
        assert state == ABC.encode(state_new(), "b")

    def test_exhaustive_small_multisets(self):
        for size in range(7):
            for combo in itertools.combinations_with_replacement("abc", size):
                m = Multiset.from_iterable(combo)
                assert roundtrip(m, ABC) == m

    def test_sampling_at_a_precision_that_does_not_divide_2_31(self):
        # one sampling step (n = 21551) meets a head in [M*B, B*L), where
        # M = n * (2**31 // n); a coder that left that head to the decoder
        # raised FormatError here
        rng = random.Random(2)
        m = Multiset.from_iterable(rng.randrange(1 << 16) for _ in range(1 << 15))
        assert roundtrip(m, UniformCodec(1 << 16)) == m

    def test_random_multisets_mixed_profiles(self):
        rng = random.Random(404)
        codec = UniformCodec(1 << 16)
        for _ in range(60):
            m = random_multiset(rng, max_total=600)
            assert roundtrip(m, codec) == m


class TestOrderInvariance:
    def test_permuted_inputs_encode_identically(self):
        rng = random.Random(7)
        syms = [rng.randrange(50) for _ in range(120)]
        codec = UniformCodec(64)
        reference = serialize(encode_multiset(Multiset.from_iterable(syms), codec))
        for _ in range(10):
            rng.shuffle(syms)
            state = encode_multiset(Multiset.from_iterable(syms), codec)
            assert serialize(state) == reference


class TestSamplingInvertibility:
    def test_each_step_restores_state(self):
        rng = random.Random(31)
        m = random_multiset(rng, max_total=200, alphabet=256)
        codec = UniformCodec(256)
        s = state_new()
        tree = build_balanced(m)
        while tree.total:
            n = tree.total
            before = s
            i = decode_peek(s, n)
            sym, c, p = tree.lookup_and_remove(i)
            s = decode_advance(s, CodeTriple(c, p, n))
            assert encode_op(s, CodeTriple(c, p, n)) == before
            s = codec.encode(s, sym)

    def test_decode_into_a_non_empty_tree_matches_reference_loop(self):
        rng = random.Random(32)
        codec = UniformCodec(64)
        start = Multiset([(k, rng.randint(1, 5)) for k in range(0, 64, 3)])
        s = encode_multiset(random_multiset(rng, max_total=300, alphabet=64), codec)
        got_tree, want_tree = build_balanced(start), build_balanced(start)
        got = sample_decode(s, 500, codec, got_tree)
        assert got == sample_decode_reference(s, 500, codec, want_tree)
        assert got_tree.to_multiset() == want_tree.to_multiset()
        assert got_tree.total == start.total + 500


class TestInlinePeek:
    """``sample_encode`` reads each sampling index from the head itself; it
    matches the loop that calls ``decode_peek``, bit for bit."""

    def test_matches_reference_loop(self):
        rng = random.Random(33)
        codec = UniformCodec(1 << 16)
        s = state_new()
        for _ in range(40):
            m = random_multiset(rng, max_total=400)
            got = sample_encode(s, build_balanced(m), codec)
            assert serialize(got) == serialize(
                sample_encode_reference(s, build_balanced(m), codec))
            s = got  # the next multiset starts from a deeper state

    @pytest.mark.parametrize("n", [3, 5, 7, 100])
    def test_heads_at_or_above_the_spill_limit(self, n):
        # a head in [n * (L // n) * B, B * L) holds a word that encode pulled
        # back; the index is read from the head without it
        rng = random.Random(n)
        codec = UniformCodec(4)
        for _ in range(50):
            m = Multiset.from_iterable(rng.randrange(4) for _ in range(n))
            s = (rng.randrange(n * (L // n) * B, B * L), (rng.randrange(1, B), ()))
            assert serialize(sample_encode(s, build_balanced(m), codec)) == \
                serialize(sample_encode_reference(s, build_balanced(m), codec))


def _counted(monkeypatch, name):
    """Count the calls ``mscodec`` makes to the ANS function ``name``."""
    calls = []
    fn = getattr(ans, name)
    monkeypatch.setattr(mscodec, name, lambda s, t: calls.append(t) or fn(s, t))
    return calls


class TestInlineOps:
    """Each sampling step does the ANS arithmetic of ``decode_advance``
    (encode) or ``encode_op`` (decode) inline and calls the function only on
    its rare path; either way the loops match the reference loops bit for
    bit. Tree totals 3, 5, 7 and 100 do not divide ``L``."""

    @pytest.mark.parametrize("n", [3, 5, 7, 100])
    def test_encode_takes_both_paths(self, monkeypatch, n):
        calls = _counted(monkeypatch, "decode_advance")
        rng = random.Random(n)
        codec = UniformCodec(4)
        for k in range(60):
            m = Multiset.from_iterable(rng.randrange(4) for _ in range(n))
            # every other head holds a word that encode pulled back
            lo = n * (L // n) * B if k % 2 else L
            s = (rng.randrange(lo, B * L), (rng.randrange(1, B), ()))
            assert serialize(sample_encode(s, build_balanced(m), codec)) == \
                serialize(sample_encode_reference(s, build_balanced(m), codec))
        assert 30 <= len(calls) < 60 * n

    @pytest.mark.parametrize("n", [3, 5, 7, 100])
    def test_decode_takes_both_paths(self, monkeypatch, n):
        calls = _counted(monkeypatch, "encode_op")
        rng = random.Random(n)
        codec = UniformCodec(4)
        for _ in range(200):
            # the one decoded symbol takes the tree total to n
            start = Multiset.from_iterable(rng.randrange(4) for _ in range(n - 1))
            bits = rng.randrange(32, 64)  # heads of every length, so some spill
            s = (rng.randrange(1 << (bits - 1), 1 << bits), (rng.randrange(1, B), ()))
            got = sample_decode(s, 1, codec, build_balanced(start))
            want = sample_decode_reference(s, 1, codec, build_balanced(start))
            assert serialize(got) == serialize(want)
        assert 0 < len(calls) < 200

    def test_long_decode_spills_many_times(self, monkeypatch):
        calls = _counted(monkeypatch, "encode_op")
        rng = random.Random(34)
        codec = UniformCodec(1 << 16)
        start = Multiset([(k, 1) for k in range(0, 1 << 16, 64)])
        s = deserialize(rng.randbytes(4 * 3000) + (L + rng.randrange(L)).to_bytes(8, "big"))
        got = sample_decode(s, 5000, codec, build_balanced(start))
        want = sample_decode_reference(s, 5000, codec, build_balanced(start))
        assert serialize(got) == serialize(want)
        assert 1000 < len(calls) < 5000

    def test_tree_total_above_L_raises_before_the_first_step(self):
        codec = UniformCodec(4)
        tree = build_balanced(Multiset([(0, 2**31 + 1)]))
        with pytest.raises(ContractError, match=f"tree total {2**31 + 1} exceeds"):
            sample_encode(state_new(), tree, codec)
        assert (tree.total, tree.visits) == (2**31 + 1, 0)
        tree = build_balanced(Multiset([(0, L)]))
        with pytest.raises(ContractError, match=f"tree total {L + 1} would exceed"):
            sample_decode(state_new(), 1, codec, tree)
        assert (tree.total, tree.visits) == (L, 0)


class TestSizeCheck:
    @pytest.mark.parametrize("size", [-1, 1.5])
    def test_bad_size_raises_before_decoding(self, size):
        with pytest.raises(ContractError, match=str(size)):
            decode_multiset(state_new(), size, UniformCodec(4))
        tree = FreqTree()
        with pytest.raises(ContractError, match=str(size)):
            sample_decode(state_new(), size, UniformCodec(4), tree)
        assert (tree.root, tree.total, tree.visits) == (None, 0, 0)


class TestResidualCheck:
    def test_clean_decode_is_silent_and_minimal(self):
        m = Multiset.from_iterable("aabbbc")
        state = encode_multiset(m, ABC)
        assert decode_multiset(state, m.total, ABC) == m

    def test_mismatched_codec_raises(self):
        m = Multiset.from_iterable([5, 5, 9, 12])
        state = encode_multiset(m, UniformCodec(16))
        other = UniformCodec(32)
        with pytest.raises(FormatError, match="residual"):
            decode_multiset(state, m.total, other)

    def test_wrong_count_on_a_deep_state_is_a_format_error(self):
        # States are plain tuples, whose == recurses once per stack word; the
        # residual check must stop at the head or the empty stack instead.
        rng = random.Random(9)
        m = Multiset.from_iterable(
            [rng.randbytes(rng.randrange(400, 1024)) for _ in range(40)])
        codec = ByteStringCodec(1023)
        state = encode_multiset(m, codec)
        assert length_bits(state) >= 64 + 32 * 5000
        for s in (state, deserialize(serialize(state))):
            for size in (0, 1, m.total // 2, m.total - 1, m.total + 1):
                with pytest.raises(FormatError, match="residual"):
                    decode_multiset(s, size, codec)


class TestInformationContent:
    def test_three_symbol_example_against_enumeration(self):
        m = Multiset.from_iterable("aac")
        # enumerate all orderings under the quantized model
        pa = ABC.pmf[0] / ABC.precision
        pc = ABC.pmf[2] / ABC.precision
        exact = -math.log2(3 * pa * pa * pc)
        assert info_content(m, ABC) == pytest.approx(exact, abs=1e-9)
        assert info_content(m, ABC) == pytest.approx(math.log2(9), abs=2e-4)

    def test_half_probability_singleton(self):
        codec = QuantizedCategorical(["x", "y"], [1, 1])
        assert info_content(Multiset([("x", 1)]), codec) == pytest.approx(1.0)

    def test_all_unique_identity(self):
        codec = UniformCodec(1 << 12)
        m = Multiset([(k, 1) for k in range(100)])
        expect = 100 * 12 - permutation_bits(m)
        assert info_content(m, codec) == pytest.approx(expect)


class TestPermutationBits:
    def test_examples(self):
        assert permutation_bits(Multiset.from_iterable("aac")) == \
            pytest.approx(math.log2(3))
        assert permutation_bits(Multiset([("z", 9)])) == pytest.approx(0.0)
        assert permutation_bits(Multiset.from_iterable("abc")) == \
            pytest.approx(math.log2(6))

    def test_against_enumeration(self):
        syms = "aabbc"
        perms = {p for p in itertools.permutations(syms)}
        assert permutation_bits(Multiset.from_iterable(syms)) == \
            pytest.approx(math.log2(len(perms)))


class TestRateReport:
    def test_fields_are_consistent(self):
        rng = random.Random(77)
        m = Multiset.from_iterable([rng.randrange(64) for _ in range(300)])
        codec = UniformCodec(64)
        rep = rate_report(m, codec)
        assert rep.savings_bits == rep.sequence_bits - rep.compressed_bits
        assert rep.permutation_bits >= 0
        assert rep.compressed_bits == length_bits(encode_multiset(m, codec))
        # unique-ish multiset over a wide alphabet should save real bits
        assert rep.savings_bits > 0

    def test_compressed_close_to_info(self):
        rng = random.Random(78)
        m = Multiset.from_iterable([rng.randrange(1 << 14) for _ in range(1024)])
        rep = rate_report(m, UniformCodec(1 << 14))
        assert rep.compressed_bits - rep.info_content_bits <= 64 + 2 * 1024 * 2.2e-5
