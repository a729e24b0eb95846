"""Benchmark harness tests: generators, determinism, row schemas."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import mszip
from mszip import ContractError
from mszip.ans import WORD_BITS
from mszip.cli import main
from mszip.bench import (default_prefixes, gen_dirichlet_source,
                         gen_fixed_unique_multiset, json_rows, synthetic_rows)


class TestDirichletSource:
    def test_valid_pmf(self):
        pmf = gen_dirichlet_source(100, seed=3)
        assert len(pmf) == 100
        assert all(p > 0 for p in pmf)
        assert sum(pmf) == pytest.approx(1.0)

    def test_seed_determinism(self):
        a = gen_dirichlet_source(64, seed=9)
        b = gen_dirichlet_source(64, seed=9)
        assert a == b
        assert a != gen_dirichlet_source(64, seed=10)

    def test_empty_alphabet(self):
        with pytest.raises(ContractError, match="at least one symbol"):
            gen_dirichlet_source(0, 0)

    def test_skew_grows_with_index(self):
        # alpha_k = k concentrates mass on high symbols
        pmf = gen_dirichlet_source(1 << 12, seed=0)
        lo, hi = sum(pmf[: 1 << 11]), sum(pmf[1 << 11:])
        assert hi > 2 * lo


class TestFixedUniqueGenerator:
    def test_exact_unique_count_and_size(self):
        pmf = gen_dirichlet_source(256, seed=1)
        m = gen_fixed_unique_multiset(pmf, unique=40, size=500, seed=2)
        assert m.unique == 40
        assert m.total == 500

    def test_all_unique(self):
        pmf = gen_dirichlet_source(64, seed=1)
        m = gen_fixed_unique_multiset(pmf, unique=32, size=32, seed=5)
        assert m.unique == 32
        assert all(cnt == 1 for _, cnt in m.pairs)

    def test_single_symbol(self):
        pmf = gen_dirichlet_source(64, seed=1)
        m = gen_fixed_unique_multiset(pmf, unique=1, size=77, seed=5)
        assert m.unique == 1
        assert m.total == 77

    def test_seeded_reproducibility(self):
        pmf = gen_dirichlet_source(128, seed=4)
        a = gen_fixed_unique_multiset(pmf, 20, 100, seed=6)
        b = gen_fixed_unique_multiset(pmf, 20, 100, seed=6)
        assert a == b

    def test_infeasible_sizes(self):
        pmf = gen_dirichlet_source(16, seed=0)
        with pytest.raises(ContractError):
            gen_fixed_unique_multiset(pmf, unique=17, size=20, seed=0)
        with pytest.raises(ContractError):
            gen_fixed_unique_multiset(pmf, unique=8, size=7, seed=0)


class TestSyntheticRows:
    def test_schema_and_rate_sanity(self):
        rows = synthetic_rows(16, (128,), (64,), seed=0, reps=2)
        assert len(rows) == 2
        for row in rows:
            assert list(row) == [
                "alphabet_size", "multiset_size", "unique_symbols", "repetition",
                "seed", "precision", "compressed_bits", "info_bits",
                "sequence_bits", "savings_bits", "encode_s", "decode_s",
                "encoder_visits", "decoder_visits"]
            assert row["compressed_bits"] >= row["info_bits"]
            assert row["compressed_bits"] <= row["info_bits"] + 96
            # the savings in information are within a word of the difference
            # of the two sizes, which count whole words
            assert abs(row["savings_bits"] - row["sequence_bits"]
                       + row["compressed_bits"]) <= WORD_BITS

    def test_determinism_except_times(self):
        strip = lambda row: {k: v for k, v in row.items()
                             if k not in ("encode_s", "decode_s")}
        assert list(map(strip, synthetic_rows(8, (64,), (32,), seed=5))) == \
            list(map(strip, synthetic_rows(8, (64,), (32,), seed=5)))

    def test_same_rows_under_any_hash_seed(self):
        # A seed derived from hash() of a str would differ between these runs.
        code = ("from mszip.bench import synthetic_rows\n"
                "for row in synthetic_rows(8, (64, 96), (32, 48), seed=5, reps=2):\n"
                "    print(sorted((k, v) for k, v in row.items()\n"
                "                 if k not in ('encode_s', 'decode_s')))\n")
        src = str(Path(mszip.__file__).resolve().parents[1])
        outs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, timeout=60,
                               env={**os.environ, "PYTHONPATH": src,
                                    "PYTHONHASHSEED": h}) for h in ("1", "2")]
        assert all(o.returncode == 0 for o in outs), [o.stderr for o in outs]
        assert outs[0].stdout.count("\n") == 8
        assert outs[0].stdout == outs[1].stdout

    def test_infeasible_config(self):
        with pytest.raises(ContractError, match="alphabet of 64"):
            synthetic_rows(100, (128,), (64,))
        with pytest.raises(ContractError, match="multiset of 64"):
            synthetic_rows(100, (64,), (128,))
        with pytest.raises(ContractError, match="repetitions"):
            synthetic_rows(8, (64,), (32,), reps=0)
        for sizes, alphabets in [((), (32,)), ((64,), ())]:
            with pytest.raises(ContractError, match="one size and one alphabet"):
                synthetic_rows(8, sizes, alphabets)


class TestJsonRows:
    def test_rows_and_bound(self):
        text = json.dumps([{f"k{j}": f"{i}:{j}" for j in range(3)}
                           for i in range(20)])
        rows = json_rows(text, repetitions=1, prefixes=[4, 20])
        assert [r["records"] for r in rows] == [4, 20]
        for row in rows:
            assert list(row) == [
                "records", "pairs", "repetition", "compressed_bits",
                "sequence_bits", "savings_bits", "bound_bits", "savings_ratio",
                "encode_s", "decode_s"]
            assert row["savings_bits"] <= row["bound_bits"]
            assert row["savings_ratio"] <= 1.0
            # the savings in information are within a word of the difference
            # of the two sizes, which count whole words
            assert abs(row["savings_bits"] - row["sequence_bits"]
                       + row["compressed_bits"]) <= WORD_BITS

    def test_full_prefix_is_coded_as_compress_writes_it(self, tmp_path):
        rng = random.Random(2026)
        keys = ["id", "user", "active", "score"]
        doc = json.dumps([{k: str(rng.randrange(50)) for k in rng.sample(keys, 3)}
                          for _ in range(60)])
        (tmp_path / "r.json").write_text(doc)
        res = CliRunner().invoke(main, ["compress", str(tmp_path / "r.json"), "-o",
                                        str(tmp_path / "r.msz"), "--nested"])
        assert res.exit_code == 0, res.output
        line = next(x for x in res.output.splitlines()
                    if x.startswith("compressed_bits:"))
        row = json_rows(doc, prefixes=[60])[0]
        assert row["compressed_bits"] == int(line.split(":")[1])
        # the keys repeat, so compress codes them under a categorical
        assert "keys: categorical (4)" in CliRunner().invoke(
            main, ["info", str(tmp_path / "r.msz")]).output

    def test_import_leaves_click_out(self):
        src = Path(mszip.__file__).resolve().parents[1]
        code = "import sys, mszip.bench; print('click' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": str(src)},
                             timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False"]

    @pytest.mark.parametrize("text, prefixes, fragment", [
        ("[]", None, "no records to benchmark"),
        ('[{"k": "v"}]', [], "at least one prefix"),
    ], ids=["no-records", "no-prefixes"])
    def test_empty_sweep(self, text, prefixes, fragment):
        with pytest.raises(ContractError, match=fragment):
            json_rows(text, prefixes=prefixes)

    def test_default_prefixes(self):
        assert default_prefixes(100) == [8, 16, 32, 64, 100]
        assert default_prefixes(8) == [8]
        assert default_prefixes(3) == [3]
