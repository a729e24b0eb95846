"""Seeded inputs, the timed operations and their correctness checks.

Every input is generated here from the seed with ``random.Random``; the
program under test only receives the generated files or objects. Sizes at
scale 1 (the same for every seed; only the contents change):

``files-bytes``
    3,000 payloads of 0-64 random bytes (each length equally often), 200
    payloads of 1 KiB, and duplicate copies of 300 small and 20 large ones:
    3,520 files, about 330 KB.
    One op is an in-process ``mszip compress <files> -o out.msz`` (bytes
    codec) or ``mszip decompress out.msz -o out/``.
``multiset-categorical``
    2**16 integer symbols with exactly 512 distinct values, drawn from a
    Dirichlet(alpha_k = k) source over an alphabet of 2**14. The codec is
    ``QuantizedCategorical.from_weights(range(2**14), source, 2**16)``, shared
    by both sides and not stored. One op is ``Multiset.from_iterable`` +
    ``encode_multiset`` + ``serialize``, or ``deserialize`` +
    ``decode_multiset``.
``records-json``
    4,000 flat JSON objects with 3-8 keys each from a 12-key vocabulary, plus
    400 duplicates: 4,400 records, about 24k pairs and 500 KB of JSON. Values
    are booleans, null, ints, one of 500 user ids, or 0-24 hex digits. One op
    is an in-process ``mszip compress r0.json -o out.msz --nested`` or
    ``mszip decompress out.msz -o out/``.

``scale`` multiplies every count (the self-test runs at tiny scales).

Each workload also holds a second copy of its input in another order (file
order; record and key order): odd compress ops use it, and every compress
output must be bit-identical to the first one.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from collections import Counter
from pathlib import Path

import mszip
from mszip import ans, container, mscodec, multiset, nested
from mszip.varint import encode_uvarint


def _scaled(n: int, scale: float, least: int = 1) -> int:
    return max(least, round(n * scale))


class Workload:
    """One workload: its generated input, its two ops and their checks."""

    name = ""
    entry_module = "mszip"
    cli = False

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.reference = None  # first compress output; later ones must match

    # Subclasses define: symbols, sizes (a dict for the report),
    # compress_fn(k), output(), decompress_fn(data), check_decompressed(),
    # cleanup(), info_bits(data) and state_bytes(data).

    def build_codec(self) -> float:
        """Seconds spent building a codec at set-up (none by default)."""
        return 0.0

    def sizes_bytes(self, data: bytes) -> int:
        """Bytes of the per-record sizes header in ``data``."""
        return 0


class _CliWorkload(Workload):
    entry_module = "mszip.cli"
    cli = True

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        from mszip import cli
        self._main = cli.main.main
        self.archive = workdir / "out.msz"
        self.outdir = workdir / "out"

    def _run(self, args):
        self._main(args, standalone_mode=False)

    def compress_fn(self, k: int):
        args = self._args[k % 2]
        return lambda: self._run(args)

    def output(self) -> bytes:
        return self.archive.read_bytes()

    def decompress_fn(self, data: bytes):
        self.archive.write_bytes(data)
        args = ["decompress", str(self.archive), "-o", str(self.outdir)]
        return lambda: self._run(args)

    def cleanup(self):
        shutil.rmtree(self.outdir, ignore_errors=True)

    def state_bytes(self, data: bytes) -> int:
        return len(container.unpack(data).state)


class FilesBytes(_CliWorkload):
    name = "files-bytes"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        rng = self.rng
        small = _scaled(3000, scale)
        large = _scaled(200, scale)
        # The lengths and the duplicated share are fixed; the seed picks the
        # bytes and which payloads repeat.
        lengths = [k % 65 for k in range(small)]
        rng.shuffle(lengths)
        payloads = [rng.randbytes(n) for n in lengths]
        payloads += [rng.randbytes(1024) for _ in range(large)]
        dups = rng.sample(range(small), _scaled(300, scale))
        dups += rng.sample(range(small, small + large), _scaled(20, scale))
        payloads += [payloads[k] for k in dups]
        indir = workdir / "in"
        indir.mkdir(parents=True)
        paths = []
        for k, payload in enumerate(payloads):
            path = indir / f"{k:05d}.bin"
            path.write_bytes(payload)
            paths.append(str(path))
        self.payloads = sorted(payloads)
        self.symbols = len(payloads)
        order = paths[:]
        rng.shuffle(order)
        shuffled = order[:]
        rng.shuffle(shuffled)
        self._args = [["compress", *p, "-o", str(self.archive)]
                      for p in (order, shuffled)]
        self.sizes = {"files": len(payloads), "small": small, "large": large,
                      "input_bytes": sum(map(len, payloads))}

    def check_decompressed(self) -> bool:
        got = sorted(p.read_bytes() for p in self.outdir.iterdir())
        return got == self.payloads

    def info_bits(self, data: bytes) -> float:
        c = container.unpack(data)
        codec = container.codec_from_blob(c.kind, c.codec_id, c.codec_blob)
        return mscodec.info_content(multiset.Multiset.from_iterable(self.payloads), codec)


def _scalar_text(value) -> str:
    """The text a JSON scalar is stored as (mirrors the documented ingest)."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return str(value)


def _record_key(obj) -> tuple:
    return tuple(sorted((k, _scalar_text(v)) for k, v in obj.items()))


class RecordsJson(_CliWorkload):
    name = "records-json"

    KEYS = ("id", "user", "owner", "active", "deleted", "verified",
            "score", "count", "parent", "tag", "token", "hash")

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        rng = self.rng
        users = [f"u{rng.getrandbits(32):08x}" for _ in range(500)]

        def hexstr():
            n = rng.randint(0, 24)
            return f"{rng.getrandbits(4 * n):0{n}x}" if n else ""

        makers = {
            "id": lambda: rng.randrange(10 ** 6),
            "user": lambda: rng.choice(users),
            "owner": lambda: rng.choice(users),
            "active": lambda: rng.random() < 0.5,
            "deleted": lambda: rng.random() < 0.1,
            "verified": lambda: None if rng.random() < 0.3 else rng.random() < 0.5,
            "score": lambda: rng.randint(-100, 100),
            "count": lambda: rng.randrange(1000),
            "parent": lambda: None if rng.random() < 0.5 else rng.randrange(10 ** 6),
            "tag": hexstr, "token": hexstr, "hash": hexstr,
        }
        records = []
        for _ in range(_scaled(4000, scale)):
            keys = rng.sample(self.KEYS, rng.randint(3, 8))
            records.append({k: makers[k]() for k in keys})
        records += [dict(rng.choice(records)) for _ in range(_scaled(400, scale))]
        rng.shuffle(records)
        shuffled = []
        for rec in records:
            items = list(rec.items())
            rng.shuffle(items)
            shuffled.append(dict(items))
        rng.shuffle(shuffled)
        self.expected = Counter(_record_key(r) for r in records)
        self.symbols = sum(len(r) for r in records)
        self.inputs = []
        for k, recs in enumerate((records, shuffled)):
            path = workdir / f"r{k}.json"
            path.write_text(json.dumps(recs))
            self.inputs.append(path)
        self._args = [["compress", str(p), "-o", str(self.archive), "--nested"]
                      for p in self.inputs]
        self.sizes = {"records": len(records), "pairs": self.symbols,
                      "json_bytes": self.inputs[0].stat().st_size}

    def check_decompressed(self) -> bool:
        got = json.loads((self.outdir / "records.json").read_text())
        return Counter(_record_key(r) for r in got) == self.expected

    def info_bits(self, data: bytes) -> float:
        c = container.unpack(data)
        pc = container.codec_from_blob(c.kind, c.codec_id, c.codec_blob)
        nm = nested.ingest_json(self.inputs[0].read_bytes())
        pair_bits = math.fsum(cnt * math.fsum(pc.bits(p) for p in rec.pairs.expand())
                              for rec, cnt in nm.records.pairs)
        return pair_bits - nested.nested_savings_bound(nm)

    def sizes_bytes(self, data: bytes) -> int:
        return sum(len(encode_uvarint(s)) for s in container.unpack(data).inner_sizes)


class MultisetCategorical(Workload):
    name = "multiset-categorical"

    ALPHABET = 1 << 14
    PRECISION = 1 << 16

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        rng = self.rng
        size = _scaled(1 << 16, scale, least=8)
        unique = min(size, _scaled(512, scale, least=8))
        weights = [max(rng.gammavariate(k, 1.0), 1e-300)
                   for k in range(1, self.ALPHABET + 1)]
        total = math.fsum(weights)
        self.source = [w / total for w in weights]
        # Weighted sampling without replacement by exponential races.
        race = [(rng.expovariate(1.0) / w, k) for k, w in enumerate(self.source)]
        support = sorted(k for _, k in sorted(race)[:unique])
        symbols = support + rng.choices(
            support, weights=[self.source[k] for k in support], k=size - unique)
        rng.shuffle(symbols)
        shuffled = symbols[:]
        rng.shuffle(shuffled)
        self._inputs = (symbols, shuffled)
        self.expected = sorted(Counter(symbols).items())
        self.symbols = size
        self.codec = None
        self.build_codec()
        self.sizes = {"symbols": size, "unique": unique, "alphabet": self.ALPHABET}
        self._out = None
        self._decoded = None

    def build_codec(self) -> float:
        from time import perf_counter
        t0 = perf_counter()
        self.codec = mszip.QuantizedCategorical.from_weights(
            range(self.ALPHABET), self.source, self.PRECISION)
        return perf_counter() - t0

    def compress_fn(self, k: int):
        symbols = self._inputs[k % 2]
        codec = self.codec

        def op():
            m = multiset.Multiset.from_iterable(symbols)
            self._out = ans.serialize(mscodec.encode_multiset(m, codec))
        return op

    def output(self) -> bytes:
        return self._out

    def decompress_fn(self, data: bytes):
        size = self.symbols
        codec = self.codec

        def op():
            self._decoded = mscodec.decode_multiset(ans.deserialize(data), size, codec)
        return op

    def check_decompressed(self) -> bool:
        return list(self._decoded.pairs) == self.expected

    def cleanup(self):
        self._decoded = None

    def info_bits(self, data: bytes) -> float:
        return mscodec.info_content(multiset.Multiset(self.expected), self.codec)

    def state_bytes(self, data: bytes) -> int:
        return len(data)


WORKLOADS = {w.name: w for w in (FilesBytes, MultisetCategorical, RecordsJson)}
