"""Record the stdout digests that ``cli.output_changed`` compares against.

    python3 perfbench/record_digests.py FIRST_SEED LAST_SEED

Runs every workload command once for each seed in [FIRST_SEED, LAST_SEED)
and merges the SHA-256 of each checked output into reference_digests.json.
Run it on the commit whose outputs are the reference; later commits then
report how many outputs moved.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv: list[str]) -> int:
    first, last = (int(a) for a in argv)
    table = json.loads(run.REFERENCE_DIGESTS.read_text()) if run.REFERENCE_DIGESTS.exists() else {}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for seed in range(first, last):
            for commands in run.WORKLOADS.values():
                bench = run.Bench(commands, seed, workdir)
                bench.run_pass(traced=False)
                if bench.failures:
                    print("\n".join(bench.failures), file=sys.stderr)
                    return 1
                table.setdefault(str(seed), {}).update(bench.digests)
            print(f"seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ordered = {k: dict(sorted(table[k].items())) for k in sorted(table, key=int)}
    run.REFERENCE_DIGESTS.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
