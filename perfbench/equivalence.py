"""One-time check: the benchmark measures the CLI's own work.

    python3 perfbench/equivalence.py [--seed N]

It runs one ``sim-ratio`` worker iteration and the ``simulate`` and
``approx-ratio`` commands with the worker's options (at their default
``--workers``), then compares
every CSV output byte for byte.  Exits 1 on any difference.
``replay-ml1m`` has no matching command (it replays a prefix of the
held-out users through the ``replay`` command's own functions), so it is
not compared.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

import run
import worker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    work_dir = run.TMP_ROOT / f"equivalence-{os.getpid()}"
    ours, theirs = work_dir / "worker", work_dir / "cli"
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    try:
        subprocess.run(
            [sys.executable, str(run.WORKER), "sim-ratio", "--seed", str(args.seed),
             "--inputs", str(work_dir), "--out", str(ours),
             "--result", str(work_dir / "sim-ratio.json")],
            check=True,
        )
        for command in ("simulate", "approx-ratio"):
            subprocess.run(
                [sys.executable, "-m", "dispersion_bandit.cli", command,
                 *worker.SIM_ARGS[command], "--seed", str(args.seed), "--out", str(theirs / command)],
                check=True, env=env, stdout=subprocess.DEVNULL,
            )
        names = sorted(p.relative_to(ours) for p in ours.rglob("*.csv"))
        same = bool(names) and all(
            (theirs / n).is_file() and (ours / n).read_bytes() == (theirs / n).read_bytes()
            for n in names
        )
        print(f"sim-ratio: {'identical' if same else 'DIFFERENT'} "
              f"{[n.as_posix() for n in names]} digest {worker.output_digest(ours)[:16]}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
