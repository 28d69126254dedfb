"""Record the expected output digests that ``run.py`` checks runs against.

Usage, from the root of a kforge checkout::

    python3 perfbench/record_digests.py --seeds 0-40

For each workload and seed it builds the inputs, makes one mock run (for
``http-latency`` the mock reference run of set-up) and stores the digest
of the published output tree in ``expected_digests.json``. Record only
from a commit whose outputs are known good: a later change that alters
the bytes fails the benchmark until the table is recorded again in a
change of its own.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

import run


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-30")
    args = parser.parse_args()

    root = Path.cwd()
    table = (json.loads(run.DIGESTS_PATH.read_text(encoding="utf-8"))
             if run.DIGESTS_PATH.is_file() else {})
    work = root / ".perfbench-work" / "record"
    for name, workload in run.WORKLOADS.items():
        for seed in args.seeds:
            shutil.rmtree(work, ignore_errors=True)
            env = run.set_up(workload, seed, root, work, perf_counter() + run.DEADLINE_S)
            try:
                if env.reference_failure is not None:
                    print(f"{name} seed {seed}: mock reference run failed", file=sys.stderr)
                    return 1
                if env.reference_digest is not None:
                    digest = env.reference_digest
                else:
                    result = run.measured_run(env, 0, False, None)
                    if not result.correct:
                        print(f"{name} seed {seed}: run failed its checks", file=sys.stderr)
                        return 1
                    digest = result.digest
            finally:
                env.close()
            table.setdefault(name, {})[str(seed)] = digest
            print(f"{name} {seed} {digest}", flush=True)
            run.DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
