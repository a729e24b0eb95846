"""End-to-end CLI tests through click's runner."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import mszip
from mszip import (ByteStringCodec, Container, Multiset, codec_blob,
                   encode_multiset, pack, serialize)
from mszip.cli import main
from mszip.container import KIND_FLAT


@pytest.fixture
def runner():
    return CliRunner()


def make_inputs(tmp_path, contents):
    paths = []
    for k, data in enumerate(contents):
        p = tmp_path / f"in{k}.dat"
        p.write_bytes(data)
        paths.append(p)
    return paths


class TestCompressDecompress:
    def test_flat_roundtrip(self, runner, tmp_path):
        contents = [b"alpha", b"beta", b"beta"]
        paths = make_inputs(tmp_path, contents)
        box = tmp_path / "out.msz"
        res = runner.invoke(main, ["compress", *map(str, paths), "-o", str(box)])
        assert res.exit_code == 0, res.output
        assert "compressed_bits:" in res.output
        assert "savings_bits:" in res.output

        outdir = tmp_path / "restored"
        res = runner.invoke(main, ["decompress", str(box), "-o", str(outdir)])
        assert res.exit_code == 0, res.output
        restored = [p.read_bytes() for p in outdir.iterdir()]
        assert Multiset.from_iterable(restored) == Multiset.from_iterable(contents)

    def test_permuted_input_order_gives_identical_containers(self, runner, tmp_path):
        contents = [b"one", b"two", b"three", b"three"]
        paths = make_inputs(tmp_path, contents)
        boxes = []
        for k, order in enumerate([paths, paths[::-1], paths[2:] + paths[:2]]):
            box = tmp_path / f"c{k}.msz"
            res = runner.invoke(main, ["compress", *map(str, order), "-o", str(box)])
            assert res.exit_code == 0, res.output
            boxes.append(box.read_bytes())
        assert boxes[0] == boxes[1] == boxes[2]

    def test_categorical_codec_roundtrip(self, runner, tmp_path):
        contents = [b"x", b"y", b"x", b"x"]
        paths = make_inputs(tmp_path, contents)
        box = tmp_path / "cat.msz"
        res = runner.invoke(main, ["compress", *map(str, paths), "-o", str(box),
                                   "--codec", "categorical", "--precision", "8"])
        assert res.exit_code == 0, res.output
        outdir = tmp_path / "restored"
        res = runner.invoke(main, ["decompress", str(box), "-o", str(outdir)])
        assert res.exit_code == 0, res.output
        restored = [p.read_bytes() for p in outdir.iterdir()]
        assert Multiset.from_iterable(restored) == Multiset.from_iterable(contents)

    def test_empty_container_decompresses_to_empty_dir(self, runner, tmp_path):
        codec = ByteStringCodec(0)
        cid, blob = codec_blob(codec)
        box = tmp_path / "empty.msz"
        box.write_bytes(pack(Container(
            kind=KIND_FLAT, codec_id=cid, codec_blob=blob, size=0,
            inner_sizes=(), state=serialize(encode_multiset(Multiset(), codec)))))
        outdir = tmp_path / "nothing"
        res = runner.invoke(main, ["decompress", str(box), "-o", str(outdir)])
        assert res.exit_code == 0, res.output
        assert list(outdir.iterdir()) == []

    def test_corrupted_container_fails_cleanly(self, runner, tmp_path):
        paths = make_inputs(tmp_path, [b"data"])
        box = tmp_path / "c.msz"
        runner.invoke(main, ["compress", *map(str, paths), "-o", str(box)])
        data = bytearray(box.read_bytes())
        data[-1] ^= 0xFF
        box.write_bytes(bytes(data))
        outdir = tmp_path / "restored"
        res = runner.invoke(main, ["decompress", str(box), "-o", str(outdir)])
        assert res.exit_code != 0
        assert "checksum" in res.output
        assert not outdir.exists()


class TestNestedFlow:
    def test_json_roundtrip(self, runner, tmp_path):
        doc = [{"user": f"u{i}", "id": str(i)} for i in range(12)]
        src = tmp_path / "records.json"
        src.write_text(json.dumps(doc))
        box = tmp_path / "n.msz"
        res = runner.invoke(main, ["compress", str(src), "-o", str(box), "--nested"])
        assert res.exit_code == 0, res.output
        assert "bound" in res.output

        outdir = tmp_path / "restored"
        res = runner.invoke(main, ["decompress", str(box), "-o", str(outdir)])
        assert res.exit_code == 0, res.output
        back = json.loads((outdir / "records.json").read_text())
        as_sets = lambda docs: sorted(sorted((k, str(v)) for k, v in d.items())
                                      for d in docs)
        assert as_sets(back) == as_sets(doc)

    def test_nested_requires_single_input(self, runner, tmp_path):
        paths = make_inputs(tmp_path, [b"{}", b"{}"])
        res = runner.invoke(main, ["compress", *map(str, paths), "-o",
                                   str(tmp_path / "x.msz"), "--nested"])
        assert res.exit_code != 0


class TestInfo:
    def test_reports_header(self, runner, tmp_path):
        paths = make_inputs(tmp_path, [b"aa", b"bb"])
        box = tmp_path / "c.msz"
        runner.invoke(main, ["compress", *map(str, paths), "-o", str(box)])
        res = runner.invoke(main, ["info", str(box)])
        assert res.exit_code == 0
        assert "kind: flat" in res.output
        assert "codec: bytes" in res.output
        assert "count: 2" in res.output
        assert "checksum: ok" in res.output


class TestBenchCommands:
    def test_bench_synthetic_csv(self, runner, tmp_path):
        csv_path = tmp_path / "rows.csv"
        res = runner.invoke(main, ["bench-synthetic", "--unique", "8", "--sizes",
                                   "64", "--alphabets", "32", "--reps", "1",
                                   "--csv", str(csv_path)])
        assert res.exit_code == 0, res.output
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("alphabet_size,multiset_size")
        assert len(lines) == 2

    def test_bench_json_csv(self, runner, tmp_path):
        src = tmp_path / "r.json"
        src.write_text(json.dumps([{"k": str(i)} for i in range(16)]))
        csv_path = tmp_path / "rows.csv"
        res = runner.invoke(main, ["bench-json", str(src), "--csv", str(csv_path)])
        assert res.exit_code == 0, res.output
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("records,pairs")
        assert len(lines) >= 2

    def test_infeasible_bench_config_errors(self, runner):
        res = runner.invoke(main, ["bench-synthetic", "--unique", "64",
                                   "--sizes", "32", "--alphabets", "128"])
        assert res.exit_code != 0


GOLDEN_FLAT = {
    "bytes": ([b"alpha", b"beta", b"beta", b"", b"\x00\xff" * 3], [],
              "daf602a8b617a45a02b7aa5340e1569321d30b7ae4db8d8a55441e9f90f0eb44"),
    "categorical": ([b"x", b"y", b"x", b"x", b"z"],
                    ["--codec", "categorical", "--precision", "8"],
                    "23b951cddf245e1d1ea34875749708984ffcd30f413aa09d9d5f79b5fe5eb998"),
    # Every byte value, a 1 KiB payload, an empty one and one of exactly
    # max_len (2047) bytes: pins the stack words the byte code spills.
    "spill": ([bytes(range(256)), bytes((37 * i + 11) % 256 for i in range(1024)),
               b"", bytes((i * i + 3 * i) % 251 for i in range(2047))], [],
              "944efb2330d2e714fe45e21f4287a3d11e33425d320d2ced6b87b4612f06d655"),
}
GOLDEN_NESTED = (
    b'[{"a": 1, "b": "x"}, {"b": "x", "a": 1}, {"id": 7, "ok": true, "v": null}, '
    b'{"k": "v", "k": "v"}, {}]',
    "0ef5a5e895e6d007f21cf88d5f76e3bfab00affd52b08b1d68882dd9efd944a5")
GOLDEN_NESTED_HEX = (
    json.dumps([{"sha": hashlib.sha256(str(i % 9).encode()).hexdigest()[:24],
                 "n": i % 4} for i in range(12)]).encode(),
    "4cb687386a4b70189640228c1031ddb854261e05ca10506fc8f90c60c4734242")


class TestGoldenBytes:
    """Pinned container digests: any change to the bits written fails here."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_FLAT))
    def test_flat(self, runner, tmp_path, name):
        contents, opts, digest = GOLDEN_FLAT[name]
        paths = make_inputs(tmp_path, contents)
        box = tmp_path / "out.msz"
        res = runner.invoke(main, ["compress", *map(str, paths), "-o", str(box), *opts])
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(box.read_bytes()).hexdigest() == digest

    @staticmethod
    def nested_digest(runner, tmp_path, doc):
        src = tmp_path / "records.json"
        src.write_bytes(doc)
        box = tmp_path / "out.msz"
        res = runner.invoke(main, ["compress", str(src), "-o", str(box), "--nested"])
        assert res.exit_code == 0, res.output
        return hashlib.sha256(box.read_bytes()).hexdigest()

    def test_nested(self, runner, tmp_path):
        doc, digest = GOLDEN_NESTED
        assert self.nested_digest(runner, tmp_path, doc) == digest

    def test_nested_hex_values(self, runner, tmp_path):
        doc, digest = GOLDEN_NESTED_HEX
        assert self.nested_digest(runner, tmp_path, doc) == digest


class TestNumpyIsOptional:
    def test_cli_import_leaves_numpy_out(self):
        src = Path(mszip.__file__).resolve().parents[1]
        code = "import sys, mszip.cli; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": str(src)},
                             timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("args", [["bench-synthetic"], ["bench-json", __file__]])
    def test_bench_without_numpy_names_the_extra(self, runner, monkeypatch, args):
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.delitem(sys.modules, "mszip.bench", raising=False)
        monkeypatch.delattr(mszip, "bench", raising=False)
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert "mszip[bench]" in res.output
