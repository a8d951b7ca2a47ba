"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It generates the workload's inputs from
``--seed`` into ``.perfbench_tmp/`` (never timed, removed afterwards), then
runs the workload again and again, each time in a fresh
``perfbench/worker.py`` process at ``--workers 1``, while ``--seconds``
lasts (at least once).  Every iteration sets up afresh, so each gives a
``setup_s`` sample.  BLAS keeps its default thread count, which is
recorded.

Workloads (see BENCHMARK.json for why each was chosen):

* ``sim-ratio``: the paper's two synthetic studies, ``simulate`` (LMDH,
  L=20, d=10, K=5, 1000 rounds, exhaustive oracle) and then ``approx-ratio``
  (greedy vs exhaustive for each K=2..5), both at their defaults except for
  a tenth of the runs (2 simulation runs, 10 instances per K), so that one
  iteration takes about a second and a half.
* ``replay-ml1m``: the replay set-up on an ML-1M-shaped ``::`` file
  (6 040 users, 3 952 items, 1 000 209 lines) at the ``replay`` defaults
  (synthetic d=10 embeddings, lambda=50, alpha=1, K=10, 30 rounds), then
  the first twelve held-out users under LMDH, MMR, LogRank and
  epsilon-greedy.

End-to-end metrics (``--trace 0``), each the median over the iterations:

* ``wall_s``: package import to outputs written, output-check and
  calibration-sampling time excluded.
* ``setup_s``: package import to the first slate request (import, parse,
  split, embeddings, catalog, scorer).
* ``peak_rss_mb``: the worker's peak resident set.

Both start once the worker's own start-up is over (interpreter, numpy and
the benchmark's modules loaded, first calibration sample taken).  That
start-up is not the package's work, and its time moved by 40% between two
sets of runs of the same code while the calibration loop did not follow.

Both times are in reference seconds: each iteration's seconds are scaled by
how fast the host ran a fixed reference loop sampled through it (see
``calibration.py``), because the shared host's own speed drifts by up to 2x
for minutes at a time.  ``host.reference_loop_s`` among the per-layer
metrics gives the loop's time-weighted raw time, so raw seconds can be
recovered (raw = reference x loop / calibration.REFERENCE_S).

Failed episodes or instances are the ``failed`` count of the result line
(``failed / attempted`` is the failure fraction).  Any failure, or outputs
that differ between iterations of one seed, makes ``correct`` false and the
exit code 1.

``--trace 1`` alternates plain and traced iterations.  Its metrics are the
per-layer ones: spans around each module's public functions give
``.calls``, ``.total_s``, ``.ms_p50``, ``.ms_p99`` and ``.self_s``; counts
come from public attributes and return values; ``trace.overhead_s`` is the
traced wall time minus the plain one.  ``environments.run_episode.rounds_per_s``
(slate rounds per second of episode time, summed over runs, users and
policies) is taken from the plain iterations.  It is a per-layer metric
rather than an end-to-end one because on a shared 2-core machine its
run-to-run spread exceeded any allowed bound (see CHANGES.md).

The result line is the last line of standard output; the lines before it
give the environment, the inputs' line counts and digests, every iteration,
the output digest and each metric with its unit and sample count.  The same
record is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_ROOT = ROOT / ".perfbench_out"

WORKLOADS = ("sim-ratio", "replay-ml1m")
HARD_LIMIT_S = 150.0  # never start an iteration expected to end later
ITERATION_TIMEOUT_S = 120.0

# Catalog size L per workload and the package's table threshold, for
# catalog.table_mb (L*L*8 bytes when a full distance table is built).
CATALOG_ITEMS = {
    "sim-ratio": 20,
    "replay-ml1m": inputs.ML1M_ITEMS,
}
TABLE_THRESHOLD = 4096

# Per-layer metrics that are counts rather than span statistics.
COUNTS = {
    "lmdh.select_slate.items_scored": "items_scored",
    "lmdh.width_clamps": "width_clamps",
    "environments.reward_clamps": "reward_clamps",
    "environments.episodes_short": "episodes_short",
    "greedy.subsets_scored": "subsets_scored",
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def generate(workload: str, seed: int, directory: Path) -> list[inputs.InputFile]:
    """The workload's input files; simulated workloads need none."""
    if workload == "replay-ml1m":
        return [inputs.write_ml1m_like(directory, seed)]
    return []


def run_iteration(workload, seed, input_dir, work_dir, kind, index) -> dict:
    """One fresh worker process; returns its record plus derived timings.

    `kind` is "plain" or "traced" (layer spans on).
    """
    out, result = work_dir / f"out{index}", work_dir / f"result{index}.json"
    command = [sys.executable, str(WORKER), workload, "--seed", str(seed),
               "--inputs", str(input_dir), "--out", str(out), "--result", str(result)]
    if kind == "traced":
        command.append("--trace")
    env = dict(os.environ, TMPDIR=str(work_dir))
    spawn = monotonic()
    try:
        proc = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=ITERATION_TIMEOUT_S,
        )
        ok, message = proc.returncode == 0 and result.is_file(), proc.stderr
    except subprocess.TimeoutExpired:
        ok, message = False, f"timed out after {ITERATION_TIMEOUT_S} s"
    elapsed = monotonic() - spawn
    shutil.rmtree(out, ignore_errors=True)
    if not ok:
        return {"ok": False, "kind": kind, "iteration_s": elapsed,
                "error": message.strip().splitlines()[-5:]}
    record = json.loads(result.read_text())
    samples = record["calibration"]
    begin = samples[0][1]  # worker start-up over; the package is imported next
    setup_s, setup_loop_s = calibration.measure(samples, begin, record["first_slate"])
    program_s, loop_s = calibration.measure(samples, begin, record["done"])
    scale = calibration.REFERENCE_S / loop_s
    record.update(
        ok=True, kind=kind, iteration_s=elapsed, scale=scale, loop_s=loop_s,
        setup_s=setup_s * calibration.REFERENCE_S / setup_loop_s,
        wall_s=(program_s - record["check_s"]) * scale,
        rounds_per_s=(record["rounds"] / (record["episode_s"] * scale)
                      if record["episode_s"] else 0.0),
    )
    return record


def layer_metrics(record: dict, workload: str, files, names) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    A name ``<layer>.<stat>`` reads that statistic of the layer's spans; the
    counts and ratios are derived from the worker's counts and the inputs.
    """
    counts = record["counts"]
    derived = {name: counts.get(key, 0) for name, key in COUNTS.items()}
    lookups = counts.get("oracle_lookups", 0)
    derived["evaluation.oracle_hit_ratio"] = (
        1.0 - counts.get("oracle_misses", 0) / lookups if lookups else 0.0
    )
    parse_s = record["layers"].get("ingest.parse_ratings", {}).get("total_s", 0)
    ratings = [f for f in files if f.path.name.startswith("ratings")]
    derived["ingest.parse_ratings.lines_per_s"] = (
        ratings[0].lines / parse_s if ratings and parse_s else 0.0
    )
    derived["host.reference_loop_s"] = record["loop_s"]
    items = CATALOG_ITEMS[workload]
    derived["catalog.table_mb"] = (
        items * items * 8 / 1e6 if items <= TABLE_THRESHOLD else 0.0
    )
    flat = {}
    for name in names:
        layer, _, key = name.rpartition(".")
        flat[name] = derived.get(name, record["layers"].get(layer, {}).get(key, 0))
    return flat


def summarize(records, trace: bool, workload, files, spec) -> dict[str, dict]:
    """The result line's metrics, each a median with its sample count."""
    by_kind = {kind: [r for r in records if r["ok"] and r["kind"] == kind]
               for kind in ("plain", "traced")}
    plain = by_kind["plain"]
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        rows = [layer_metrics(r, workload, files, names) for r in by_kind["traced"]]
        samples = {name: [row[name] for row in rows] for name in names}
        # measured on the plain iterations: spans slow the rounds down
        samples["environments.run_episode.rounds_per_s"] = [
            r["rounds_per_s"] for r in plain
        ]
        samples["trace.overhead_s"] = [
            statistics.median(r["wall_s"] for r in by_kind["traced"])
            - statistics.median(r["wall_s"] for r in plain)
        ]
        wanted = spec["per_layer"]
    else:
        samples = {m["name"]: [r[m["name"]] for r in plain] for m in spec["end_to_end"]}
        wanted = spec["end_to_end"]
    return {
        m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"],
                    "samples": len(samples[m["name"]])}
        for m in wanted
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dispersion_bandit" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_dir = TMP_ROOT / f"{args.workload}-{os.getpid()}"
    input_dir = work_dir / "inputs"
    input_dir.mkdir(parents=True, exist_ok=True)
    try:
        files = generate(args.workload, args.seed, input_dir)
        records = measure(args, input_dir, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return report(args, files, records, spec)


def measure(args, input_dir: Path, work_dir: Path) -> list[dict]:
    """Full iterations while --seconds lasts.

    One iteration of each needed kind always runs; --trace 1 alternates
    plain and traced ones.
    """
    records: list[dict] = []
    start = monotonic()

    def run(kind: str) -> None:
        records.append(run_iteration(
            args.workload, args.seed, input_dir, work_dir, kind, len(records)
        ))

    def count(kind: str) -> int:
        return sum(r["kind"] == kind for r in records)

    while True:
        kind = "traced" if args.trace and count("traced") < count("plain") else "plain"
        if records:
            typical = statistics.median(r["iteration_s"] for r in records)
            elapsed = monotonic() - start
            covered = count("plain") and (count("traced") or not args.trace)
            if elapsed + typical > HARD_LIMIT_S or (
                covered and elapsed + typical > args.seconds
            ):
                break
        run(kind)
    return records


def describe_record(i: int, r: dict) -> str:
    if not r["ok"]:
        return f"iteration {i} {r['kind']}: FAILED {r['error']}"
    lines = [
        f"iteration {i} {r['kind']}: wall {r['wall_s']:.3f} s, setup "
        f"{r['setup_s']:.3f} s, {r['rounds_per_s']:.2f} rounds/s, rss "
        f"{r['peak_rss_mb']:.1f} MB, failed {r['failed_units']}/{r['units']}, "
        f"digest {r['digest'][:16]}"
    ]
    lines += [f"  problem: {problem}" for problem in r["problems"]]
    if r["missing_layers"]:
        lines.append(f"  not traced, not found: {', '.join(r['missing_layers'])}")
    return "\n".join(lines)


def report(args, files, records, spec) -> int:
    good = [r for r in records if r["ok"]]
    units = max((r["units"] for r in good), default=1)
    attempted = sum(r["units"] if r["ok"] else units for r in records)
    failed = sum(r["failed_units"] if r["ok"] else units for r in records)
    digests = sorted({r["digest"] for r in good})
    kinds = {r["kind"] for r in good}
    measured = "plain" in kinds and ("traced" in kinds or not args.trace)
    correct = failed == 0 and len(digests) == 1 and measured
    metrics = summarize(records, args.trace, args.workload, files, spec) if measured else {}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    environment = dict(good[0]["environment"], seed=args.seed) if good else None
    if environment:
        print("environment " + " ".join(f"{k}={v}" for k, v in environment.items()))
    for f in files:
        print(f"input {f.path.name} lines={f.lines} sha256={f.sha256}")
    for i, r in enumerate(records):
        print(describe_record(i, r))
    print(f"output digest {' '.join(digests) or 'none'} over {len(good)} iteration(s)")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']:<6} median of {m['samples']}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")

    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    OUT_ROOT.mkdir(exist_ok=True)
    saved = dict(line, workload=args.workload, seed=args.seed, trace=args.trace,
                 environment=environment, inputs=[f.record() for f in files],
                 output_digests=digests, samples={k: v["samples"] for k, v in metrics.items()},
                 iterations=[{k: v for k, v in r.items() if k != "layers"} for r in records])
    (OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(saved, indent=1)
    )
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
