"""End-to-end CLI tests through ``helpers.invoke``, which runs the command
line in this process."""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mszip
from helpers import invoke, pair_counts_reference
from mszip import (ByteStringCodec, Container, FormatError, Multiset, NestedMultiset,
                   PairCodec, QuantizedCategorical, Record, codec_blob,
                   encode_multiset, ingest_json, ingest_json_records,
                   nested_savings_bound, pack, serialize, state_new, unpack)
from mszip.cli import ideal_bits, main, pair_codec, pair_counts
from mszip.container import CODEC_BYTES, CODEC_CATEGORICAL, KIND_FLAT
from mszip.varint import encode_uvarint


def empty_container() -> bytes:
    codec = ByteStringCodec(0)
    cid, blob = codec_blob(codec)
    return pack(Container(
        kind=KIND_FLAT, codec_id=cid, codec_blob=blob, size=0,
        inner_sizes=(), state=serialize(encode_multiset(Multiset(), codec))))


def unknown_codec_container() -> bytes:
    """A flat container with codec id 77 and a valid checksum."""
    return pack(Container(kind=KIND_FLAT, codec_id=77, codec_blob=b"", size=0,
                          inner_sizes=(), state=serialize(state_new())))


def make_inputs(tmp_path, contents):
    paths = []
    for k, data in enumerate(contents):
        p = tmp_path / f"in{k}.dat"
        p.write_bytes(data)
        paths.append(p)
    return paths


class TestCompressDecompress:
    def test_flat_roundtrip(self, tmp_path):
        contents = [b"alpha", b"beta", b"beta"]
        paths = make_inputs(tmp_path, contents)
        box = tmp_path / "out.msz"
        res = invoke(["compress", *map(str, paths), "-o", str(box)])
        assert res.exit_code == 0, res.output
        assert "compressed_bits:" in res.output
        assert "savings_bits:" in res.output

        outdir = tmp_path / "restored"
        res = invoke(["decompress", str(box), "-o", str(outdir)])
        assert res.exit_code == 0, res.output
        restored = [p.read_bytes() for p in outdir.iterdir()]
        assert Multiset.from_iterable(restored) == Multiset.from_iterable(contents)

    def test_permuted_input_order_gives_identical_containers(self, tmp_path):
        contents = [b"one", b"two", b"three", b"three"]
        paths = make_inputs(tmp_path, contents)
        boxes = []
        for k, order in enumerate([paths, paths[::-1], paths[2:] + paths[:2]]):
            box = tmp_path / f"c{k}.msz"
            res = invoke(["compress", *map(str, order), "-o", str(box)])
            assert res.exit_code == 0, res.output
            boxes.append(box.read_bytes())
        assert boxes[0] == boxes[1] == boxes[2]

    def test_categorical_codec_roundtrip(self, tmp_path):
        contents = [b"x", b"y", b"x", b"x"]
        paths = make_inputs(tmp_path, contents)
        box = tmp_path / "cat.msz"
        res = invoke(["compress", *map(str, paths), "-o", str(box),
                      "--codec", "categorical", "--precision", "8"])
        assert res.exit_code == 0, res.output
        outdir = tmp_path / "restored"
        res = invoke(["decompress", str(box), "-o", str(outdir)])
        assert res.exit_code == 0, res.output
        restored = [p.read_bytes() for p in outdir.iterdir()]
        assert Multiset.from_iterable(restored) == Multiset.from_iterable(contents)

    @pytest.mark.parametrize("precision", ["-1", "32"])
    def test_precision_out_of_range_is_a_usage_error(self, tmp_path, precision):
        paths = make_inputs(tmp_path, [b"x", b"y"])
        res = invoke(["compress", *map(str, paths), "-o",
                      str(tmp_path / "c.msz"), "--codec",
                      "categorical", "--precision", precision])
        assert res.exit_code == 2
        assert "0<=x<=31" in res.output
        assert "Traceback" not in res.output
        assert not (tmp_path / "c.msz").exists()

    def test_empty_container_decompresses_to_empty_dir(self, tmp_path):
        box = tmp_path / "empty.msz"
        box.write_bytes(empty_container())
        outdir = tmp_path / "nothing"
        res = invoke(["decompress", str(box), "-o", str(outdir)])
        assert res.exit_code == 0, res.output
        assert list(outdir.iterdir()) == []

    def test_corrupted_container_fails_cleanly(self, tmp_path):
        paths = make_inputs(tmp_path, [b"data"])
        box = tmp_path / "c.msz"
        invoke(["compress", *map(str, paths), "-o", str(box)])
        data = bytearray(box.read_bytes())
        data[-1] ^= 0xFF
        box.write_bytes(bytes(data))
        outdir = tmp_path / "restored"
        res = invoke(["decompress", str(box), "-o", str(outdir)])
        assert res.exit_code != 0
        assert "checksum" in res.output
        assert not outdir.exists()


class TestNestedFlow:
    def test_json_roundtrip(self, tmp_path):
        doc = [{"user": f"u{i}", "id": str(i)} for i in range(12)]
        src = tmp_path / "records.json"
        src.write_text(json.dumps(doc))
        box = tmp_path / "n.msz"
        res = invoke(["compress", str(src), "-o", str(box), "--nested"])
        assert res.exit_code == 0, res.output
        assert "bound" in res.output

        outdir = tmp_path / "restored"
        res = invoke(["decompress", str(box), "-o", str(outdir)])
        assert res.exit_code == 0, res.output
        back = json.loads((outdir / "records.json").read_text())
        as_sets = lambda docs: sorted(sorted((k, str(v)) for k, v in d.items())
                                      for d in docs)
        assert as_sets(back) == as_sets(doc)

    @staticmethod
    def compress_nested(tmp_path, doc):
        src = tmp_path / "records.json"
        src.write_text(json.dumps(doc))
        box = tmp_path / "n.msz"
        res = invoke(["compress", str(src), "-o", str(box), "--nested"])
        assert res.exit_code == 0, res.output
        return src, box, res.output

    def test_one_codec_pass_per_pair(self, tmp_path, monkeypatch):
        def no_baseline(*_args):
            raise AssertionError("compress ran the ordered baseline")

        calls = []
        encode = PairCodec.encode

        def counted(self, state, pair):
            calls.append(pair)
            return encode(self, state, pair)

        monkeypatch.setattr("mszip.cli.sequence_state", no_baseline)
        monkeypatch.setattr(PairCodec, "encode", counted)
        doc = [{"user": f"u{i % 5}", "id": str(i % 3), "x": "y"} for i in range(12)]
        src, _, _ = self.compress_nested(tmp_path, doc)
        pair_count = NestedMultiset.from_records(
            ingest_json_records(src.read_bytes())).pair_count
        assert pair_count == 36
        assert len(calls) == pair_count

    def test_report_lines(self, tmp_path):
        doc = [{"user": f"u{i % 4}", "n": i % 3} for i in range(10)] + [{}]
        src, box, output = self.compress_nested(tmp_path, doc)
        lines = dict(line.split(": ", 1) for line in output.splitlines())
        nm = NestedMultiset.from_records(ingest_json_records(src.read_bytes()))
        assert list(lines) == ["records", "compressed_bits", "savings_bound_bits",
                               "container_bytes"]
        assert lines["records"] == f"{nm.outer_size} ({nm.pair_count} pairs)"
        assert int(lines["compressed_bits"]) == 8 * len(unpack(box.read_bytes()).state)
        assert float(lines["savings_bound_bits"]) == pytest.approx(
            nested_savings_bound(nm), abs=0.1)
        assert int(lines["container_bytes"]) == box.stat().st_size
        assert "sequence_bits:" not in output
        assert "savings_bits:" not in output

    def test_nested_requires_single_input(self, tmp_path):
        paths = make_inputs(tmp_path, [b"{}", b"{}"])
        res = invoke(["compress", *map(str, paths), "-o",
                      str(tmp_path / "x.msz"), "--nested"])
        assert res.exit_code != 0

    def test_nested_requires_the_bytes_codec(self, tmp_path):
        paths = make_inputs(tmp_path, [b"[{}]"])
        res = invoke(["compress", str(paths[0]), "-o",
                      str(tmp_path / "x.msz"), "--nested",
                      "--codec", "categorical"])
        assert res.exit_code == 2
        assert "--nested requires the bytes codec" in res.output
        assert not (tmp_path / "x.msz").exists()


class TestKeyCodecChoice:
    """Nested compress codes keys as bytes or under a categorical, whichever
    ideal size, params blob included, is smaller."""

    @pytest.mark.parametrize("doc, byte_bits, keyed_bits, chosen", [
        (lambda: GOLDEN_NESTED[0], 270, 417.5, ByteStringCodec),
        (lambda: GOLDEN_NESTED_HEX[0], 3032, 2680, QuantizedCategorical),
    ], ids=["golden-nested", "golden-nested-hex"])
    def test_smaller_ideal_size_wins(self, doc, byte_bits, keyed_bits, chosen):
        keys, value_lengths = pair_counts(ingest_json(doc()))
        codec = pair_codec(keys, value_lengths)
        assert isinstance(codec.keys, chosen)
        max_value = max(value_lengths)
        alphabet = sorted(keys)
        byte_keys = PairCodec(max(max_value, max(map(len, keys))))
        keyed = PairCodec(max_value, QuantizedCategorical.from_weights(
            alphabet, [keys[k] for k in alphabet]))
        assert ideal_bits(byte_keys, keys, value_lengths) == byte_bits
        assert ideal_bits(keyed, keys, value_lengths) == pytest.approx(keyed_bits,
                                                                       abs=0.05)
        # the sum runs per key and per value length; per pair it is the same
        nm = ingest_json(doc())
        for pc in (byte_keys, keyed):
            per_pair = 8 * len(codec_blob(pc)[1]) + sum(
                cnt * pc.bits(pair) for rec, cnt in nm.records.pairs
                for pair in rec.pairs.expand())
            assert ideal_bits(pc, keys, value_lengths) == pytest.approx(per_pair)

    @settings(max_examples=200)
    @given(st.lists(st.lists(st.tuples(st.sampled_from([b"", b"id", b"k\xff"]),
                                       st.sampled_from([b"", b"1", b"22", b"\xff"])),
                             max_size=6), max_size=6),
           st.lists(st.integers(0, 5), max_size=8))
    def test_pair_counts_equal_the_per_pair_reference(self, records, copies):
        # small vocabularies, so pairs repeat within records; ``copies``
        # repeats records
        records = [Record(pairs) for pairs in records]
        if records:
            records += [records[i % len(records)] for i in copies]
        nm = NestedMultiset.from_records(records)
        assert pair_counts(nm) == pair_counts_reference(nm)

    def test_a_tie_keeps_byte_keys(self, monkeypatch):
        monkeypatch.setattr("mszip.cli.ideal_bits", lambda *_args: 0.0)
        codec = pair_codec(*pair_counts(ingest_json(GOLDEN_NESTED_HEX[0])))
        assert codec.keys is codec.strings

    def test_more_keys_than_the_precision_keeps_byte_keys(self):
        # every key occurs 1,000 times, so a categorical would pay, but 2^16
        # masses of at least 1 cannot hold 2^16 + 1 keys
        keys = Counter({k.to_bytes(3, "big"): 1000 for k in range((1 << 16) + 1)})
        codec = pair_codec(keys, Counter({1: 1000 * len(keys)}))
        assert codec.keys is codec.strings and codec.strings.max_len == 3

    def test_no_pairs_keeps_byte_keys(self):
        codec = pair_codec(Counter(), Counter())
        assert codec.keys is codec.strings and codec.strings.max_len == 0

    def test_shuffled_records_and_keys_give_identical_containers(self, tmp_path):
        rng = random.Random(21)
        doc = [{"user": f"u{rng.randrange(9)}", "id": str(i), "ok": i % 3 == 0}
               for i in range(40)]
        doc += doc[:5]
        boxes = []
        for k in range(4):
            rng.shuffle(doc)
            shuffled = [dict(rng.sample(list(d.items()), len(d))) for d in doc]
            src = tmp_path / f"r{k}.json"
            src.write_text(json.dumps(shuffled))
            box = tmp_path / f"r{k}.msz"
            res = invoke(["compress", str(src), "-o", str(box), "--nested"])
            assert res.exit_code == 0, res.output
            boxes.append(box.read_bytes())
        assert len(set(boxes)) == 1
        assert unpack(boxes[0]).codec_id == CODEC_CATEGORICAL


class TestInfo:
    def test_reports_header(self, tmp_path):
        paths = make_inputs(tmp_path, [b"aa", b"bb"])
        box = tmp_path / "c.msz"
        invoke(["compress", *map(str, paths), "-o", str(box)])
        res = invoke(["info", str(box)])
        assert res.exit_code == 0
        assert "kind: flat" in res.output
        assert "codec: bytes" in res.output
        assert "count: 2" in res.output
        assert "checksum: ok" in res.output

        src = tmp_path / "r.json"
        src.write_text(json.dumps([{"a": "1", "b": "2"}, {"a": "3"}]))
        invoke(["compress", str(src), "-o", str(box), "--nested"])
        res = invoke(["info", str(box)])
        assert res.exit_code == 0
        assert "kind: nested" in res.output
        assert "count: 2" in res.output
        assert "pairs: 3" in res.output

    @pytest.mark.parametrize("doc, codec_id, keys", [
        (lambda: GOLDEN_NESTED[0], CODEC_BYTES, "bytes"),
        (lambda: GOLDEN_NESTED_HEX[0], CODEC_CATEGORICAL, "categorical (2)"),
    ], ids=["byte-keys", "keyed"])
    def test_nested_key_codec_and_header_bytes(self, tmp_path, monkeypatch,
                                               doc, codec_id, keys):
        src = tmp_path / "r.json"
        src.write_bytes(doc())
        box = tmp_path / "n.msz"
        invoke(["compress", str(src), "-o", str(box), "--nested"])
        data = box.read_bytes()
        c = unpack(data)
        assert c.codec_id == codec_id

        def refuse(*_args):
            raise AssertionError("info decoded the state")

        for name in ("deserialize", "decode_nested", "decode_multiset"):
            monkeypatch.setattr(f"mszip.cli.{name}", refuse)
        res = invoke(["info", str(box)])
        assert res.exit_code == 0, res.output
        lines = dict(line.split(": ", 1) for line in res.output.splitlines())
        assert lines["codec"] == "bytes"
        assert lines["keys"] == keys
        fields = [int(lines[f"{f}_bytes"]) for f in ("params", "sizes", "checksum")]
        assert fields == [len(encode_uvarint(len(c.codec_blob))) + len(c.codec_blob),
                          sum(len(encode_uvarint(n)) for n in c.inner_sizes), 4]
        # magic, version, codec id and kind take 7 bytes, the count a varint
        fixed = 7 + len(encode_uvarint(c.size))
        assert fixed + sum(fields) + int(lines["state_bits"]) // 8 == len(data)


class TestErrorBoundary:
    """Every ``MszipError`` or ``OSError`` reaches the user as one ``Error:``
    line."""

    @pytest.mark.parametrize("command, content, fragment", [
        (["info"], b"not a container", "bad magic"),
        (["decompress", "-o", "restored"], b"not a container", "bad magic"),
        (["compress", "--nested", "-o", "out.msz"], b"{}",
         "document root: top-level value must be an array"),
        (["compress", "--nested", "-o", "out.msz"], b'[{"a":"\\ud800"}]',
         "record 0, key 'a': string is not valid UTF-8"),
        (["compress", "-o", "missing/out.msz"], b"payload",
         "[Errno 2] No such file or directory"),
        (["compress", "-o", "adir"], b"payload", "[Errno 21] Is a directory"),
        (["decompress", "-o", "plain/sub"], empty_container(),
         "[Errno 20] Not a directory"),
        # info names the codec as decompress rebuilds it, so both refuse it
        (["info"], unknown_codec_container(), "unknown codec id 77"),
        (["decompress", "-o", "restored"], unknown_codec_container(),
         "unknown codec id 77"),
    ], ids=["info", "decompress", "nested-not-array", "nested-surrogate",
            "compress-missing-dir", "compress-onto-dir", "decompress-under-file",
            "info-unknown-codec", "decompress-unknown-codec"])
    def test_errors_exit_1_with_one_line(self, tmp_path, monkeypatch,
                                         command, content, fragment):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "input").write_bytes(content)
        (tmp_path / "adir").mkdir()
        (tmp_path / "plain").write_bytes(b"")
        res = invoke([*command, "input"])
        assert res.exit_code == 1
        assert f"Error: {fragment}" in res.output
        assert "Traceback" not in res.output
        # compress writes before it reports, so a failed write reports nothing
        assert "compressed_bits:" not in res.output
        assert len(res.output.splitlines()) == 1
        assert not (tmp_path / "restored").exists()
        assert not (tmp_path / "out.msz").exists()

    @pytest.mark.parametrize("command, fragment", [
        (["info", "missing"], "File 'missing' does not exist."),
        (["compress", "adir", "-o", "out.msz"], "File 'adir' is a directory."),
        (["decompress", "input", "-o", "input"], "Directory 'input' is a file."),
        # a UsageError that the command raises, reported by its own parser
        (["compress", "input", "input", "-o", "out.msz", "--nested"],
         "--nested takes exactly one JSON input file"),
    ], ids=["missing-input", "directory-input", "outdir-is-a-file", "nested-two-inputs"])
    def test_bad_paths_are_usage_errors(self, tmp_path, monkeypatch, command, fragment):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "input").write_bytes(empty_container())
        (tmp_path / "adir").mkdir()
        res = invoke(command)
        assert res.exit_code == 2
        assert f"usage: mszip {command[0]}" in res.output
        assert f"mszip {command[0]}: error: " in res.output and fragment in res.output
        assert "Traceback" not in res.output
        assert not (tmp_path / "out.msz").exists()

    def test_in_process_calls_raise(self, tmp_path, capsys):
        """``main.main(args, standalone_mode=False)`` raises an ``MszipError``
        or ``OSError``; a usage error and ``--help`` end as ``argparse`` ends
        them, in ``SystemExit`` with code 2 and 0."""
        box = tmp_path / "bad.msz"
        box.write_bytes(b"not a container")
        with pytest.raises(SystemExit) as exc:
            main.main(["compress", str(box), "-o", str(tmp_path / "c.msz"),
                       "--precision", "32"], standalone_mode=False)
        assert exc.value.code == 2
        assert "0<=x<=31" in capsys.readouterr().err
        with pytest.raises(FormatError, match="bad magic"):
            main.main(["info", str(box)], standalone_mode=False)
        with pytest.raises(SystemExit) as exc:
            main.main(["info", "--help"], standalone_mode=False)
        assert exc.value.code == 0
        assert "usage: mszip info" in capsys.readouterr().out


class TestBenchCommands:
    def test_bench_synthetic_csv(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        res = invoke(["bench-synthetic", "--unique", "8", "--sizes",
                      "64", "--alphabets", "32", "--reps", "1",
                      "--csv", str(csv_path)])
        assert res.exit_code == 0, res.output
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("alphabet_size,multiset_size")
        assert len(lines) == 2

    def test_bench_json_csv(self, tmp_path):
        src = tmp_path / "r.json"
        src.write_text(json.dumps([{"k": str(i)} for i in range(16)]))
        csv_path = tmp_path / "rows.csv"
        res = invoke(["bench-json", str(src), "--csv", str(csv_path)])
        assert res.exit_code == 0, res.output
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("records,pairs")
        assert len(lines) >= 2

    def test_infeasible_bench_config_errors(self):
        res = invoke(["bench-synthetic", "--unique", "64",
                      "--sizes", "32", "--alphabets", "128"])
        assert res.exit_code != 0

    @pytest.mark.parametrize("args, code, fragment", [
        (["bench-json", "r.json", "--reps", "0"], 1, "repetitions must be >= 1, got 0"),
        (["bench-json", "r.json", "--prefixes", "0"], 1, "prefix 0 outside [1, 20]"),
        (["bench-json", "r.json", "--prefixes", "-1"], 1, "prefix -1 outside [1, 20]"),
        (["bench-json", "r.json", "--prefixes", "4,50"], 1, "prefix 50 outside [1, 20]"),
        (["bench-json", "r.json", "--prefixes", ","], 2, "comma-separated list"),
        (["bench-synthetic", "--sizes", ""], 2, "comma-separated list"),
        (["bench-synthetic", "--alphabets", ""], 2, "comma-separated list"),
        (["bench-synthetic", "--sizes", "1,x"], 2, "comma-separated list"),
    ], ids=["json-reps-0", "prefix-0", "prefix-negative", "prefix-past-end",
            "prefixes-empty", "sizes-empty", "alphabets-empty", "sizes-not-integer"])
    def test_empty_or_wrong_sweeps_are_errors(self, tmp_path, monkeypatch,
                                              args, code, fragment):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.json").write_text(json.dumps([{"k": str(i)} for i in range(20)]))
        res = invoke(args)
        assert res.exit_code == code
        assert fragment in res.output
        assert "records," not in res.output and "alphabet_size," not in res.output


GOLDEN_FLAT = {
    "bytes": ([b"alpha", b"beta", b"beta", b"", b"\x00\xff" * 3], [],
              "7c4526c6783521c248081dafa543a69ed16372ed42155e1cb1aff1e25ec069c2"),
    "categorical": ([b"x", b"y", b"x", b"x", b"z"],
                    ["--codec", "categorical", "--precision", "8"],
                    "f73db67c3f291ec65b490bb8beff9f75dfde0800087bca8d77e3f2067bd5a4d3"),
    # Every byte value, a 1 KiB payload, an empty one and one of exactly
    # max_len (2047) bytes: pins the stack words the byte code spills.
    "spill": ([bytes(range(256)), bytes((37 * i + 11) % 256 for i in range(1024)),
               b"", bytes((i * i + 3 * i) % 251 for i in range(2047))], [],
              "d902a48644f152bde0968d616ca656386886c18192e09ab2be6d1e96e07c995b"),
}
GOLDEN_NESTED = (
    b'[{"a": 1, "b": "x"}, {"b": "x", "a": 1}, {"id": 7, "ok": true, "v": null}, '
    b'{"k": "v", "k": "v"}, {}]',
    "278ddbcc1c680f0ed49689b8e8bf756bad7d6c50cd0ffffee404837eb43b9503")
GOLDEN_NESTED_HEX = (
    json.dumps([{"sha": hashlib.sha256(str(i % 9).encode()).hexdigest()[:24],
                 "n": i % 4} for i in range(12)]).encode(),
    "2f0bd33e45ec394eb302d629fe7603587c3c29e07a7282311c3dd279327ae02b")


# GOLDEN_NESTED's container: byte keys, version 2. It is the one compress
# writes.
NESTED_BYTE_KEYS_HEX = (
    "4d535a31020101070105030202020062ce45a1555555552bab93a46d6de9b943234a6cc7"
    "56e8ec62584bc1415d8b593b16b18905b05b08c25e0b11")
# The same records in a version 1 container, whose byte strings used another
# op layout.
NESTED_BYTE_KEYS_V1_HEX = (
    "4d535a310101010701050302000202b4c0d433555555552bab93a46d6de9b9234a6c6c37"
    "56e8ec62584bc1cb5d8b59762d63c105b05b04c44c4b09")
NESTED_BYTE_KEYS_JSON = ('[{},{"a":"1","b":"x"},{"a":"1","b":"x"},'
                         '{"id":"7","ok":"true","v":"null"},{"k":"v","k":"v"}]')


class TestGoldenBytes:
    """Pinned container digests: any change to the bits written fails here."""

    def test_byte_key_container_decompresses(self, tmp_path):
        box = tmp_path / "keys.msz"
        box.write_bytes(bytes.fromhex(NESTED_BYTE_KEYS_HEX))
        assert hashlib.sha256(box.read_bytes()).hexdigest() == GOLDEN_NESTED[1]
        res = invoke(["decompress", str(box), "-o", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "out" / "records.json").read_text() == NESTED_BYTE_KEYS_JSON

    def test_version_1_container_is_refused(self, tmp_path):
        box = tmp_path / "old.msz"
        box.write_bytes(bytes.fromhex(NESTED_BYTE_KEYS_V1_HEX))
        res = invoke(["decompress", str(box), "-o", str(tmp_path / "out")])
        assert res.exit_code == 1
        assert ("container version 1 is not supported; this reader reads version 2"
                in res.output)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", sorted(GOLDEN_FLAT))
    def test_flat(self, tmp_path, name):
        contents, opts, digest = GOLDEN_FLAT[name]
        paths = make_inputs(tmp_path, contents)
        box = tmp_path / "out.msz"
        res = invoke(["compress", *map(str, paths), "-o", str(box), *opts])
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(box.read_bytes()).hexdigest() == digest

    @staticmethod
    def nested_digest(tmp_path, doc):
        src = tmp_path / "records.json"
        src.write_bytes(doc)
        box = tmp_path / "out.msz"
        res = invoke(["compress", str(src), "-o", str(box), "--nested"])
        assert res.exit_code == 0, res.output
        return hashlib.sha256(box.read_bytes()).hexdigest()

    def test_nested(self, tmp_path):
        doc, digest = GOLDEN_NESTED
        assert self.nested_digest(tmp_path, doc) == digest

    def test_nested_hex_values(self, tmp_path):
        doc, digest = GOLDEN_NESTED_HEX
        assert self.nested_digest(tmp_path, doc) == digest


class TestNumpyIsOptional:
    def test_cli_import_leaves_numpy_out(self):
        src = Path(mszip.__file__).resolve().parents[1]
        code = ("import sys, mszip.cli; print('mszip.bench' in sys.modules); "
                "import mszip.bench; print('numpy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": str(src)},
                             timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "False"]

    @pytest.mark.parametrize("args, header", [
        (["bench-synthetic", "--unique", "8", "--sizes", "64", "--alphabets", "32"],
         "alphabet_size,multiset_size,unique_symbols,repetition,seed,precision,"
         "compressed_bits,info_bits,sequence_bits,savings_bits,encode_s,decode_s,"
         "encoder_visits,decoder_visits"),
        (["bench-json", "r.json"],
         "records,pairs,repetition,compressed_bits,sequence_bits,savings_bits,"
         "bound_bits,savings_ratio,encode_s,decode_s"),
    ], ids=["bench-synthetic", "bench-json"])
    def test_bench_runs_without_numpy(self, tmp_path, monkeypatch, args, header):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.json").write_text(json.dumps([{"k": str(i)} for i in range(9)]))
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.delitem(sys.modules, "mszip.bench", raising=False)
        monkeypatch.delattr(mszip, "bench", raising=False)
        res = invoke(args)
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[0] == header
