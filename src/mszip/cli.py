"""Command-line interface: compress, decompress, info, and benchmarks."""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import stat
import sys
from collections import Counter
from operator import itemgetter
from pathlib import Path

from .ans import deserialize, serialize
from .container import (KIND_FLAT, KIND_NESTED, Container, codec_blob, codec_from_blob,
                        pack, unpack)
from .errors import MszipError
from .mscodec import decode_multiset, encode_multiset, rate_report
from .multiset import Multiset
from .nested import NestedMultiset, PairCodec, canonical_json, decode_nested, \
    encode_nested, ingest_json_records, nested_savings_bound
# sequence_state is unused here; perfbench patches it by name.
from .nested import sequence_state  # noqa: F401
from .symbols import ByteStringCodec, QuantizedCategorical
from .varint import encode_uvarint


class UsageError(Exception):
    """A command line that a command refuses: ``main`` reports it through
    that command's parser, which exits with code 2."""


def _file(arg: str) -> Path:
    """An argument that names an existing file (one ``stat``)."""
    try:
        st = os.stat(arg)
    except OSError:
        raise argparse.ArgumentTypeError(f"File {arg!r} does not exist.") from None
    if stat.S_ISDIR(st.st_mode):
        raise argparse.ArgumentTypeError(f"File {arg!r} is a directory.")
    return Path(arg)


def _directory(arg: str) -> Path:
    """An argument that names a directory, or nothing yet."""
    if os.path.isfile(arg):
        raise argparse.ArgumentTypeError(f"Directory {arg!r} is a file.")
    return Path(arg)


def _precision(arg: str) -> int:
    if not (arg.isdecimal() and int(arg) <= 31):
        raise argparse.ArgumentTypeError(f"{arg!r} is not in the range 0<=x<=31.")
    return int(arg)


def _int_list(value: str) -> tuple:
    try:
        values = tuple(int(v) for v in value.split(",") if v)
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")
    return values


KEYS_PRECISION = 1 << 16


def pair_counts(nm: NestedMultiset) -> tuple[Counter, Counter]:
    """The pairs of ``nm`` counted by key and by value length."""
    pairs = list(nm.expand())  # read twice, by Counters that count in C
    return (Counter(map(itemgetter(0), pairs)),
            Counter(map(len, map(itemgetter(1), pairs))))


def ideal_bits(codec: PairCodec, keys: Counter, value_lengths: Counter) -> float:
    """``8 * len(params blob)`` plus the sum of ``codec.bits`` over the pairs,
    which ``keys`` counts by key and ``value_lengths`` by value length."""
    # a value's bits depend on its length alone
    return 8 * len(codec_blob(codec)[1]) + math.fsum(
        [c * codec.keys.bits(k) for k, c in keys.items()]
        + [c * codec.strings.bits(bytes(n)) for n, c in value_lengths.items()])


def pair_codec(keys: Counter, value_lengths: Counter) -> PairCodec:
    """The pair codec of a nested container: byte keys, or keys under a
    categorical over the keys that occur, whichever has the smaller
    ``ideal_bits``. A tie, or more than 2^16 distinct keys, keeps byte keys.
    """
    max_value = max(value_lengths, default=0)
    candidates = [PairCodec(max(max(map(len, keys), default=0), max_value))]
    if 0 < len(keys) <= KEYS_PRECISION:
        alphabet = sorted(keys)
        candidates.append(PairCodec(max_value, QuantizedCategorical.from_weights(
            alphabet, [keys[k] for k in alphabet], KEYS_PRECISION)))
    # min keeps the first of equals: byte keys
    return min(candidates, key=lambda c: ideal_bits(c, keys, value_lengths))


def compress(inputs, output, codec_name, precision, nested):
    """Compress input files (one symbol each), or one JSON file with --nested.

    Flat compress prints the measured rate against the ordered baseline.
    Nested compress encodes the records once and prints the ideal savings
    as a bound; `bench-json` measures the ordered baseline.
    """
    if nested:
        if len(inputs) != 1:
            raise UsageError("--nested takes exactly one JSON input file")
        if codec_name != "bytes":
            raise UsageError("--nested requires the bytes codec")
        records = ingest_json_records(inputs[0].read_bytes())
        nm = NestedMultiset.from_records(records)
        codec = pair_codec(*pair_counts(nm))
        state, sizes = encode_nested(nm, codec)
        state_bytes = serialize(state)
        kind, size = KIND_NESTED, nm.outer_size
        report = [f"records: {nm.outer_size} ({nm.pair_count} pairs)",
                  f"compressed_bits: {8 * len(state_bytes)}",
                  f"savings_bound_bits: {nested_savings_bound(nm):.1f}"]
    else:
        payloads = [p.read_bytes() for p in inputs]
        m = Multiset.from_iterable(payloads)
        if codec_name == "bytes":
            codec = ByteStringCodec(max((len(p) for p in payloads), default=0))
        else:
            alphabet = [sym for sym, _ in m.pairs]
            weights = [cnt for _, cnt in m.pairs]
            codec = QuantizedCategorical.from_weights(
                alphabet, weights, 1 << precision)
        state_bytes = serialize(encode_multiset(m, codec))
        kind, size, sizes = KIND_FLAT, m.total, ()
        rate = rate_report(m, codec)
        report = [f"symbols: {m.total} ({m.unique} unique)",
                  f"compressed_bits: {rate.compressed_bits}",
                  f"info_content_bits: {rate.info_content_bits:.1f}",
                  f"sequence_bits: {rate.sequence_bits}",
                  f"savings_bits: {rate.savings_bits}"]
    codec_id, blob = codec_blob(codec)
    data = pack(Container(kind=kind, codec_id=codec_id, codec_blob=blob,
                          size=size, inner_sizes=tuple(sizes),
                          state=state_bytes))
    output.write_bytes(data)  # before any figure, so a failed write prints none
    report.append(f"container_bytes: {len(data)}")
    print("\n".join(report))


def decompress(container, outdir):
    """Rebuild the multiset from a container.

    Flat containers become one file per symbol occurrence, named by content
    hash (order is meaningless by construction). Nested containers become
    records.json in canonical form.
    """
    c = unpack(container.read_bytes())
    codec = codec_from_blob(c.kind, c.codec_id, c.codec_blob)
    state = deserialize(c.state)
    if c.kind == KIND_NESTED:
        nm = decode_nested(state, c.inner_sizes, codec)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "records.json").write_text(canonical_json(nm))
        print(f"wrote records.json ({nm.outer_size} records)")
    else:
        m = decode_multiset(state, c.size, codec)
        outdir.mkdir(parents=True, exist_ok=True)
        for payload, cnt in m.pairs:
            digest = hashlib.sha256(payload).hexdigest()[:32]
            if cnt == 1:
                (outdir / f"{digest}.bin").write_bytes(payload)
            else:
                for k in range(cnt):
                    (outdir / f"{digest}.{k}.bin").write_bytes(payload)
        print(f"wrote {m.total} files ({m.unique} unique)")


def info(container):
    """Print a container's header, and its bytes by field, without decoding
    the state. A nested container's values are byte strings; ``keys`` names
    the key codec."""
    c = unpack(container.read_bytes())
    codec = codec_from_blob(c.kind, c.codec_id, c.codec_blob)
    params = len(encode_uvarint(len(c.codec_blob))) + len(c.codec_blob)
    if c.kind == KIND_NESTED:
        keys = codec.keys
        sizes = sum(len(encode_uvarint(n)) for n in c.inner_sizes)
        lines = ["kind: nested", "codec: bytes",
                 "keys: bytes" if isinstance(keys, ByteStringCodec)
                 else f"keys: categorical ({len(keys.alphabet)})",
                 f"count: {c.size}", f"pairs: {sum(c.inner_sizes)}",
                 f"params_bytes: {params}", f"sizes_bytes: {sizes}"]
    else:
        lines = ["kind: flat", "codec: bytes" if isinstance(codec, ByteStringCodec)
                 else "codec: categorical", f"count: {c.size}", f"params_bytes: {params}"]
    lines += ["checksum_bytes: 4", f"state_bits: {len(c.state) * 8}", "checksum: ok"]
    print("\n".join(lines))


def bench_synthetic(unique, sizes, alphabets, seed, reps, csv_path):
    """Rate and timing sweep over synthetic Dirichlet-skewed multisets."""
    from . import bench  # imported here so that ``import mszip.cli`` stays light
    rows = bench.synthetic_rows(unique, sizes, alphabets, seed, reps)
    bench.write_csv(rows, csv_path)
    if csv_path:
        print(f"wrote {len(rows)} rows to {csv_path}")


def bench_json(json_file, reps, prefixes, csv_path):
    """Nested-compression savings on growing prefixes of a JSON collection,
    each coded with the pair codec that `compress --nested` would pick."""
    from . import bench
    rows = bench.json_rows(json_file.read_bytes(), repetitions=reps,
                           prefixes=prefixes)
    bench.write_csv(rows, csv_path)
    if csv_path:
        print(f"wrote {len(rows)} rows to {csv_path}")


def _parser() -> argparse.ArgumentParser:
    """The ``mszip`` parser. Each command's defaults name its function
    (``run``) and its own parser (``parser``)."""
    parser = argparse.ArgumentParser(prog="mszip",
                                     description="Order-invariant multiset compression.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, name):
        doc = "\n".join(map(str.strip, run.__doc__.splitlines()))
        sub = commands.add_parser(name, help=doc.split(".")[0], description=doc,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
        sub.set_defaults(run=run, parser=sub)
        return sub.add_argument

    arg = command(compress, "compress")
    arg("inputs", nargs="+", type=_file)
    arg("-o", "--output", required=True, type=Path, help="Container file to write.")
    arg("--codec", dest="codec_name", choices=("bytes", "categorical"), default="bytes",
        help="[default: %(default)s]")
    arg("--precision", type=_precision, default=16,
        help="Categorical precision exponent k (masses sum to 2^k). "
             "[default: %(default)s; 0<=x<=31]")
    arg("--nested", action="store_true",
        help="Treat the single input as a JSON array of flat objects.")

    arg = command(decompress, "decompress")
    arg("container", type=_file)
    arg("-o", "--outdir", required=True, type=_directory,
        help="Directory for the reconstructed symbols.")

    command(info, "info")("container", type=_file)

    arg = command(bench_synthetic, "bench-synthetic")
    arg("--unique", type=int, default=512,
        help="Exact number of unique symbols per multiset. [default: %(default)s]")
    arg("--sizes", type=_int_list, default="8192",
        help="Comma-separated multiset sizes. [default: %(default)s]")
    arg("--alphabets", type=_int_list, default="1024",
        help="Comma-separated alphabet sizes. [default: %(default)s]")
    arg("--seed", type=int, default=0, help="[default: %(default)s]")
    arg("--reps", type=int, default=1, help="[default: %(default)s]")
    arg("--csv", dest="csv_path", type=Path, help="Write CSV here instead of stdout.")

    arg = command(bench_json, "bench-json")
    arg("json_file", type=_file)
    arg("--reps", type=int, default=1, help="[default: %(default)s]")
    arg("--prefixes", type=_int_list,
        help="Comma-separated prefix sizes (default: doubling).")
    arg("--csv", dest="csv_path", type=Path, help="Write CSV here instead of stdout.")
    return parser


def main(args=None, standalone_mode=True):
    """Run one ``mszip`` command line, ``sys.argv[1:]`` by default.

    A usage error prints the command's usage line and ``mszip <command>:
    error: <message>``, and exits with code 2; ``--help`` exits with code
    0. Standalone, an ``MszipError`` or ``OSError`` prints one ``Error:``
    line and exits with code 1; with ``standalone_mode=False`` it is raised.
    """
    ns = vars(_parser().parse_args(args))
    run, parser = ns.pop("run"), ns.pop("parser")
    try:
        run(**ns)
    except UsageError as e:
        parser.error(str(e))
    except (MszipError, OSError) as e:
        if not standalone_mode:
            raise
        print(f"Error: {e}", file=sys.stderr)
        sys.exit(1)


# The in-process call, ``main.main(args, standalone_mode=False)``, has the
# signature of click's ``Command.main``; perfbench's CLI workloads make it.
main.main = main

if __name__ == "__main__":
    main()
