"""Self-test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from mszip import container  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 0.02


def bench(workload, trace, seed=0, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", str(SCALE)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(out):
    assert out.returncode == 0, out.stderr
    report = next(line for line in out.stdout.splitlines() if line.startswith("report "))
    return json.loads(out.stdout.splitlines()[-1]), json.loads(report[len("report "):])


@pytest.fixture(scope="module")
def runs():
    names = [w["name"] for w in SPEC["workloads"]]
    return {(w, t): result(bench(w, t)) for w in names for t in (0, 1)}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(runs, trace, section):
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for w in SPEC["workloads"]:
        res, _ = runs[w["name"], trace]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert {n: m["unit"] for n, m in res["metrics"].items()} == units


def test_fail_ratio_is_zero(runs):
    for (_, _), (res, report) in runs.items():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 4
        assert report["fail_ratio"] == 0


def test_end_to_end_metrics_are_never_zero(runs):
    for w in SPEC["workloads"]:
        res, _ = runs[w["name"], 0]
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_self_times_beside_untraced_time(runs):
    for w in SPEC["workloads"]:
        _, report = runs[w["name"], 1]
        for direction in ("compress", "decompress"):
            b = report["breakdown"][direction]
            assert b["untraced_s"] > 0
            assert b["sum_self_s"] == pytest.approx(sum(b["layer_self_s"].values()))
            assert b["gap_s"] == pytest.approx(b["untraced_s"] - b["sum_self_s"])


def test_layer_counts(runs):
    def per_layer(w):
        return {n: m["value"] for n, m in runs[w, 1][0]["metrics"].items()}

    files = per_layer("files-bytes")
    assert files["symbols.encode_calls_per_symbol"] == 3.0
    assert files["ans.ops"] > 0 and files["multiset.tree_ops"] > 0
    assert files["cli.files_written"] > 0 and files["container.crc_bytes"] > 0
    records = per_layer("records-json")
    assert records["container.sizes_bytes"] == runs["records-json", 1][1]["sizes"]["records"]
    assert records["nested.encode_s"] > 0
    categorical = per_layer("multiset-categorical")
    assert categorical["symbols.encode_calls_per_symbol"] == 1.0
    for name, value in categorical.items():
        if name.split(".")[0] in ("cli", "container", "nested"):
            assert value == 0, name


@pytest.mark.parametrize("name", ["files-bytes", "records-json"])
def test_forged_container_counts_as_failure(tmp_path, name):
    """One byte flipped in the state, with the CRC recomputed, must fail."""
    wl = workloads.WORKLOADS[name](0, SCALE, tmp_path)
    tally = run.Tally()
    assert run.op_pair(wl, 0, tally) and tally.failed == 0
    c = container.unpack(wl.reference)
    state = bytearray(c.state)
    state[len(state) // 2] ^= 0x40
    forged = container.pack(container.Container(
        c.kind, c.codec_id, c.codec_blob, c.size, c.inner_sizes, bytes(state)))
    assert run.decompress_checked(wl, forged, tally) is None
    assert (tally.attempted, tally.failed) == (3, 1)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_depend_on_the_seed_alone(tmp_path, name):
    cls = workloads.WORKLOADS[name]
    dirs = [tmp_path / str(k) for k in range(3)]
    for d in dirs:
        d.mkdir()
    a, b, c = (cls(seed, SCALE, d) for d, seed in zip(dirs, (0, 0, 1)))
    tally = run.Tally()
    for wl in (a, b, c):
        assert run.op_pair(wl, 0, tally)
    assert a.reference == b.reference != c.reference
    assert a.sizes == b.sizes


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("files-bytes", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0 and out.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
