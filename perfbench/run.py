"""Benchmark for mszip: compress/decompress end to end, or split by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload files-bytes --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a separate
traced run and prints the per-layer metrics. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Timed regions hold one op each, with ``gc.collect()`` before it and the
collector disabled during it. Input generation, output clean-up and the
correctness checks stay outside them. The first op pair only warms up. Op
and set-up times are scaled to a reference machine speed measured by a
fixed loop run around each of them (see ``calibrate``); the raw wall-clock
medians are printed in the ``report`` line.
Every compress output must equal the first one bit for bit (odd ops compress
a reordered copy of the input) and every decompress output must equal the
input; an op that raises or fails either check counts in ``failed``.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPS = 7
REPLAYS = 3
CAL_REF_S = 0.0135  # calibrate() on the reference machine (2-vCPU VM, Python 3.11)


def _import_program():
    if not (SRC / "mszip" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'mszip'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import mszip
    if Path(mszip.__file__).resolve().parent != SRC / "mszip":
        print(f"perfbench: imported mszip from {mszip.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class Tally:
    """Attempted and failed ops; a failure is never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, why):
        self.failed += 1
        print(f"FAILED {what}: {why}", file=sys.stderr)


def _plain(_name, fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def timed(fn, runner=_plain, name="") -> float:
    """One op with the collector quiet; its stdout goes nowhere."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return runner(name, fn)
    finally:
        gc.enable()


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed right now."""
    t0 = perf_counter()
    d = {}
    for i in range(100_000):
        d[i & 1023] = (i, i * i)
    return perf_counter() - t0


def scale_factor(before: list, after: list) -> float:
    """Reference speed over the speed seen by calibrations around a region."""
    return CAL_REF_S / statistics.median(before + after)


class Scaled:
    """Op runner that times each op and scales it to the reference speed.

    The calibration loop runs twice right before and twice right after the
    op, so the scale follows the machine's speed during that op.
    """

    def __init__(self):
        self.raw = []
        self.scaled = []

    def __call__(self, name, fn):
        before = [calibrate(), calibrate()]
        t = _plain(name, fn)
        self.raw.append(t)
        self.scaled.append(t * scale_factor(before, [calibrate(), calibrate()]))
        return t


def op_pair(wl, k: int, tally: Tally, runners=(_plain, _plain)):
    """Compress input variant ``k``, decompress the result, check both.

    Returns (compress seconds, decompress seconds), or None if an op failed.
    """
    tally.attempted += 1
    try:
        tc = timed(wl.compress_fn(k), runners[0], "compress")
        data = wl.output()
    except Exception:
        tally.fail(f"compress #{k}", traceback.format_exc())
        return None
    if wl.reference is None:
        wl.reference = data
    elif data != wl.reference:
        tally.fail(f"compress #{k}", "output differs from the first compress")
        return None
    td = decompress_checked(wl, data, tally, runners[1], k)
    return None if td is None else (tc, td)


def decompress_checked(wl, data: bytes, tally: Tally, runner=_plain, k=0):
    """Decompress ``data`` and compare with the input; None on failure."""
    tally.attempted += 1
    try:
        td = timed(wl.decompress_fn(data), runner, "decompress")
        ok = wl.check_decompressed()
    except Exception:
        tally.fail(f"decompress #{k}", traceback.format_exc())
        return None
    finally:
        wl.cleanup()
    if not ok:
        tally.fail(f"decompress #{k}", "output does not match the input")
        return None
    return td


def measure_setup(wl, reps=SETUP_REPS):
    """Fresh-interpreter imports of the entry module (plus codec builds).

    Returns the median set-up seconds (scaled to the reference speed like the
    ops), the median raw import seconds, whether the import loaded numpy,
    and the median codec build seconds. The first import only warms the
    bytecode cache.
    """
    code = ("import sys, time\n"
            "t = time.perf_counter()\n"
            f"import {wl.entry_module}\n"
            "print(time.perf_counter() - t, int('numpy' in sys.modules))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    setups, imports, builds, numpy = [], [], [], 0
    for i in range(reps + 1):
        gc.collect()
        gc.disable()
        try:
            before = [calibrate(), calibrate()]
            out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                 capture_output=True, text=True, timeout=120, check=True)
            t_build = wl.build_codec()
            after = [calibrate(), calibrate()]
        finally:
            gc.enable()
        t_import, has_numpy = out.stdout.split()
        if i:
            imports.append(float(t_import))
            builds.append(t_build)
            setups.append((float(t_import) + t_build) * scale_factor(before, after))
            numpy = int(has_numpy)
    med = statistics.median
    return med(setups), med(imports), numpy, med(builds)


def spread_note(times) -> str:
    """Sample count and the highest percentile with ten samples beyond it."""
    n = len(times)
    p = int(100 * (1 - 10 / n)) if n >= 20 else 0
    if p <= 50:
        return f"n={n}"
    q = statistics.quantiles(times, n=100)[p - 1]
    return f"n={n} p{p}={q:.6f}"


def run_e2e(wl, seconds: float, tally: Tally, setup) -> tuple[dict, dict]:
    op_pair(wl, 0, tally)  # warm-up
    # This process holds the input and has run one compress and decompress;
    # its peak resident set is what a user's process would need.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    tc, td = Scaled(), Scaled()
    k = 1
    t_end = perf_counter() + seconds
    while perf_counter() < t_end:
        op_pair(wl, k, tally, (tc, td))
        k += 1
    if not tc.scaled or wl.reference is None:
        return {}, {}
    out = len(wl.reference)
    metrics = {
        "compress_s": statistics.median(tc.scaled),
        "decompress_s": statistics.median(td.scaled),
        "output_bytes": out,
        "rate_ratio": 8 * out / wl.info_bits(wl.reference),
        "peak_mem_mb": peak,
        "setup_s": setup[0],
    }
    notes = {"compress_s": spread_note(tc.scaled), "decompress_s": spread_note(td.scaled),
             "setup_s": f"n={SETUP_REPS}", "wall_import_s": setup[1],
             "wall_compress_s": statistics.median(tc.raw),
             "wall_decompress_s": statistics.median(td.raw)}
    return metrics, notes


def run_traced(wl, seconds: float, tally: Tally, setup) -> tuple[dict, dict]:
    import spans as sp

    def traced_pair(k, fine):
        recs = {}

        def runner(name, fn):
            rec = sp.Recorder(fine)
            recs[name] = rec
            rec.install()
            try:
                return rec.run(("cli." if wl.cli else "bench.") + name, fn)
            finally:
                rec.remove()

        return recs if op_pair(wl, k, tally, (runner, runner)) else None

    op_pair(wl, 0, tally)  # warm-up
    # Pass A: untraced pairs alternate with pairs under the span recorders,
    # so both see the same machine, for the run's length.
    untraced, passes = [], []
    k = 1
    t_end = perf_counter() + seconds
    while perf_counter() < t_end:
        r = op_pair(wl, k, tally)
        if r:
            untraced.append(r)
        recs = traced_pair(k + 1, False)
        if recs:
            passes.append(recs)
        k += 2
    # Pass B: one pair with the fine recorders too, then their replay.
    fine = traced_pair(k, True)
    if not untraced or not passes or not fine:
        return {}, {}
    e2e = {"compress": statistics.median(r[0] for r in untraced),
           "decompress": statistics.median(r[1] for r in untraced)}
    busy = {}
    for d, rec in fine.items():
        runs = []
        for _ in range(REPLAYS):
            gc.collect()
            gc.disable()
            try:
                runs.append(sp.replay(rec))
            finally:
                gc.enable()
        busy[d] = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
    _write_spans(wl, passes, fine)
    return layer_metrics(wl, setup, e2e, passes, fine, busy)


def layer_metrics(wl, setup, e2e, passes, fine, busy) -> tuple[dict, dict]:
    """Per-layer metrics of one op pair, and the self-time breakdown."""
    import spans as sp

    med = statistics.median
    incl, self_by_dir = {}, {}
    for d in ("compress", "decompress"):
        per_op = [sp.span_times(p[d]) for p in passes]
        names = set().union(*(i for i, _ in per_op))
        incl[d] = {n: med([i.get(n, 0.0) for i, _ in per_op]) for n in names}
        layers = set().union(*(s for _, s in per_op))
        self_by_dir[d] = sp.attribute(
            {la: med([s.get(la, 0.0) for _, s in per_op]) for la in layers}, busy[d])

    def inc(*names):
        return sum(incl[d].get(n, 0.0) for d in incl for n in names)

    def busy_sum(kind):
        return sum(t for b in busy.values() for (k, _), t in b.items() if k == kind)

    def self_sum(layer):
        return sum(s[layer] for s in self_by_dir.values())

    fc, fd = fine["compress"], fine["decompress"]
    out = len(wl.reference)
    state = wl.state_bytes(wl.reference)
    ans_ops = fc.ans_ops + fd.ans_ops
    tree_ops = fc.tree_ops + fd.tree_ops
    traced_wall = sum(rec.spans[0][4] - rec.spans[0][3] for rec in fine.values())
    metrics = {
        "ans.ops": ans_ops,
        "ans.ops_per_symbol": ans_ops / wl.symbols,
        "ans.busy_s": busy_sum("ans") + busy_sum("ans.inner"),
        "ans.serialize_s": inc("ans.serialize"),
        "ans.deserialize_s": inc("ans.deserialize"),
        "ans.state_bytes": state,
        "symbols.encode_calls_per_symbol": fc.encode_calls / wl.symbols,
        "symbols.self_s": busy_sum("symbols") - busy_sum("ans.inner"),
        "symbols.codec_build_s": inc("symbols.codec_build") if wl.cli else setup[3],
        "multiset.tree_ops": tree_ops,
        "multiset.visits_per_op": (fc.tree_visits + fd.tree_visits) / max(1, tree_ops),
        "multiset.tree_s": busy_sum("multiset"),
        "multiset.build_s": inc("multiset.build"),
        "mscodec.encode_s": inc("mscodec.encode"),
        "mscodec.decode_s": inc("mscodec.decode"),
        "mscodec.self_s": self_sum("mscodec"),
        "mscodec.report_s": inc("mscodec.report"),
        "nested.encode_s": inc("nested.encode"),
        "nested.decode_s": inc("nested.decode"),
        "nested.self_s": self_sum("nested"),
        "nested.ingest_s": inc("nested.ingest"),
        "nested.canonical_json_s": inc("nested.canonical_json"),
        "nested.report_s": inc("nested.report"),
        "container.pack_s": inc("container.pack"),
        "container.unpack_s": inc("container.unpack"),
        "container.crc_bytes": fc.crc_bytes + fd.crc_bytes,
        "container.header_bytes": out - state if wl.cli else 0,
        "container.sizes_bytes": wl.sizes_bytes(wl.reference),
        "cli.read_s": inc("cli.read"),
        "cli.write_s": inc("cli.write", "cli.mkdir"),
        "cli.files_written": sum(1 for rec in fine.values()
                                 for s in rec.spans if s[2] == "cli.write"),
        "cli.import_s": setup[1] if wl.cli else 0.0,
        "cli.imports_numpy": setup[2] if wl.cli else 0,
        "trace.overhead_ratio": traced_wall / (e2e["compress"] + e2e["decompress"]),
    }
    breakdown = {}
    for d, layers in self_by_dir.items():
        total = sum(layers.values())
        breakdown[d] = {"untraced_s": e2e[d], "layer_self_s": layers,
                        "sum_self_s": total, "gap_s": e2e[d] - total}
    return metrics, {"breakdown": breakdown, "pass_a_pairs": len(passes)}


def _write_spans(wl, passes, fine):
    rows = []
    op = 0
    for recs in [*passes, fine]:
        for d, rec in recs.items():
            rows.extend([op, *s] for s in rec.spans)
            op += 1
    path = WORK / f"spans-{wl.name}-seed{wl.seed}.json"
    path.write_text(json.dumps(rows, separators=(",", ":")))


def environment(workdir: Path, loadavg) -> dict:
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    fstype = "unknown"
    with contextlib.suppress(OSError):
        best = ""
        for line in Path("/proc/self/mounts").read_text().splitlines():
            fields = line.split()
            mount = fields[1]
            if str(workdir).startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                best, fstype = mount, fields[2]
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "git_commit": commit,
        "workdir": str(workdir.relative_to(ROOT)),
        "workdir_fs": fstype,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "mszip").glob("*.py"))),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every input count (the self-test uses tiny scales)")
    args = ap.parse_args(argv)
    loadavg = os.getloadavg()
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"tmp-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir)
        setup = measure_setup(wl)
        tally = Tally()
        run = run_traced if args.trace else run_e2e
        metrics, notes = run(wl, args.seconds, tally, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not metrics:
        print("perfbench: no op succeeded; no result", file=sys.stderr)
        return 1
    env = environment(workdir, loadavg)
    fail_ratio = tally.failed / tally.attempted
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    print(f"workload {wl.name} seed {wl.seed} sizes {json.dumps(wl.sizes)}")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:34s} {value:>16.6f} {units[name]:10s} {note}")
    print(f"  {'fail_ratio':34s} {fail_ratio:>16.6f} {'ratio':10s} "
          f"{tally.failed}/{tally.attempted} ops")
    print("report " + json.dumps({"env": env, "sizes": wl.sizes, "fail_ratio": fail_ratio,
                                  **{k: v for k, v in notes.items() if k not in metrics}}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
