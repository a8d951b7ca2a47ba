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

Each replay's wall time, process start-up included, is printed as it ends.

LMDH is the one policy that reads distance rows, in each forked worker, so
its byte-identity alone covers the metric's row memo at full size.  LMDH's
covers the selection memos in the world's catalog, and LogRank's and MMR's
the slate memos of its scorer, which each worker fills for its own users.

    python3 scripts/check_full_replays.py --out results/full-replays
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


def replay(dataset: Path, policy: str, workers: int, out: Path) -> Path:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "dispersion_bandit.cli", "replay",
         "--dataset", str(dataset), "--format", "ml1m-colons", "--policy", policy,
         "--workers", str(workers), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
    )
    elapsed = time.perf_counter() - start
    print(f"replay {policy} --workers {workers}: {elapsed:.1f} s", flush=True)
    return out / "metrics.csv"


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
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    described = load_perfbench_inputs().write_ml1m_like(args.out, INPUT_SEED)
    print(f"input {described.path} lines={described.lines} sha256={described.sha256}")
    sys.path.insert(0, str(ROOT / "src"))
    from dispersion_bandit import ingest

    if ingest._read_columnar(described.path, "::") is None:
        print("FAIL the columnar reader rejects the input file", file=sys.stderr)
        return 1

    problems, final_diversity = [], {}
    for policy in ("lmdh", "logrank", "mmr", "epsilon-greedy"):
        lone, pooled = [
            replay(described.path, policy, workers, args.out / f"{policy}-w{workers}")
            for workers in (1, 2)
        ]
        if lone.read_bytes() != pooled.read_bytes():
            problems.append(f"{policy}: metrics.csv differs between --workers 1 and 2")
        found, final_diversity[policy] = problems_of(policy, lone)
        problems += found
    if not final_diversity["mmr"] > final_diversity["logrank"]:
        problems.append("MMR's final diversity is not above LogRank's")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
