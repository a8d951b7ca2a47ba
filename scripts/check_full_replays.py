#!/usr/bin/env python3
"""Full-size replays of every policy on a seeded ML-1M-shaped file, checked.

Writes the benchmark's seed-3 ML-1M-shaped ratings file (6 040 users,
3 952 items, 1 000 209 lines) with ``perfbench/inputs.py``, then runs the
``replay`` command at its defaults, every held-out user, under LMDH,
LogRank, MMR and epsilon-greedy at ``--workers`` 1 and 2, each run in a
fresh process.  It exits 1 unless

* the columnar reader (``ingest._read_columnar``) accepts the file, checked
  before any replay starts: the line reader gives the same tables, about
  five times slower, so a silent fall-back to it shows in no output,
* ``metrics.csv`` is byte-identical across the worker counts,
* every round counts every user (``n_users`` is constant),
* recall never decreases from one round to the next,
* MMR's final Diversity(30) is above LogRank's.

Each replay's wall time, process start-up included, and its peak resident
set are printed as it ends; ``--summary FILE`` also appends them to FILE as
rows of a Markdown table.  The peak is ``ru_maxrss`` of the replay's
process from ``os.wait4``, so at ``--workers`` 2 it is the largest of the
replay and its pool workers.  The input is written and checked in a child
process of its own: Linux carries a process's RSS into the children it
forks and across exec, so a replay started by a parent that had written
the file would read that parent's peak of about 425 MiB.

LMDH is the one policy that reads distance rows, in each forked worker, so
its byte-identity alone covers the metric's row memo at full size.  LMDH's
covers the selection memos in the world's catalog, and LogRank's and MMR's
the slate memos of its scorer, which each worker fills for its own users.

    python3 scripts/check_full_replays.py --out results/full-replays [--summary FILE]
"""

import argparse
import csv
import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUT_SEED = 3


def load_perfbench_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def replay(dataset: Path, policy: str, workers: int, out: Path):
    """Run one replay; its metrics.csv, wall seconds and peak RSS in MiB."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "dispersion_bandit.cli", "replay",
         "--dataset", str(dataset), "--format", "ml1m-colons", "--policy", policy,
         "--workers", str(workers), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    _, status, usage = os.wait4(child.pid, 0)
    elapsed = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, child.args)
    peak_mib = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    print(f"replay {policy} --workers {workers}: {elapsed:.1f} s, "
          f"peak {peak_mib:.1f} MiB", flush=True)
    return out / "metrics.csv", elapsed, peak_mib


def write_input(out: Path) -> int:
    """Write the input file and check that the columnar reader accepts it."""
    described = load_perfbench_inputs().write_ml1m_like(out, INPUT_SEED)
    print(f"input {described.path} lines={described.lines} sha256={described.sha256}")
    sys.path.insert(0, str(ROOT / "src"))
    from dispersion_bandit import ingest

    if ingest._read_columnar(described.path, "::") is None:
        print("FAIL the columnar reader rejects the input file", file=sys.stderr)
        return 1
    return 0


def problems_of(policy: str, path: Path) -> tuple[list[str], float]:
    """Property failures of one metrics.csv, and its final diversity."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len({row["n_users"] for row in rows}) != 1:
        problems.append(f"{policy}: n_users changes between rounds")
    recall = [float(row["value"]) for row in rows if row["metric"] == "recall"]
    if any(b < a for a, b in zip(recall, recall[1:])):
        problems.append(f"{policy}: recall decreases")
    diversity = [float(row["value"]) for row in rows if row["metric"] == "diversity"]
    return problems, diversity[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--summary", type=Path, help="append a Markdown table "
                        "of the replays' wall times and peak RSS to this file")
    parser.add_argument("--write-input", action="store_true", help="only write and "
                        "check the input file (run in a child process of the script)")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.write_input:
        return write_input(args.out)
    prepared = subprocess.run(
        [sys.executable, __file__, "--out", str(args.out), "--write-input"],
        stdout=subprocess.PIPE, text=True,
    )
    print(prepared.stdout, end="", flush=True)
    if prepared.returncode:
        return 1
    dataset = Path(prepared.stdout.split()[1])
    if args.summary:
        with open(args.summary, "a") as fh:
            fh.write("\n### Full-size replays\n\n"
                     "| policy | --workers | wall s | peak RSS MiB |\n|---|---|---|---|\n")

    problems, final_diversity = [], {}
    for policy in ("lmdh", "logrank", "mmr", "epsilon-greedy"):
        csvs = {}
        for workers in (1, 2):
            csvs[workers], seconds, peak_mib = replay(
                dataset, policy, workers, args.out / f"{policy}-w{workers}"
            )
            if args.summary:
                with open(args.summary, "a") as fh:
                    fh.write(f"| {policy} | {workers} | {seconds:.1f} | "
                             f"{peak_mib:.1f} |\n")
        if csvs[1].read_bytes() != csvs[2].read_bytes():
            problems.append(f"{policy}: metrics.csv differs between --workers 1 and 2")
        found, final_diversity[policy] = problems_of(policy, csvs[1])
        problems += found
    if not final_diversity["mmr"] > final_diversity["logrank"]:
        problems.append("MMR's final diversity is not above LogRank's")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
