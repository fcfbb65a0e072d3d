#!/usr/bin/env python3
"""Pin the digests of the workloads' mathematical outputs.

    python3 bench/pin.py FIRST LAST     # seeds FIRST..LAST of every workload

Sends each corpus once, requires every output to pass its checks, and
writes the digests to bench/digests.json: one per seed for the random
workloads, and one for ``paper``, whose requests do not depend on the seed.
A run on a pinned seed fails every request of a pass whose digest differs.
Pin again only when a change of outputs is intended, and say why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def main(first: int, last: int) -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.import_cli()
    table: dict[str, dict[str, str]] = {}
    for name in workloads.WORKLOADS:
        seeds = [first] if name == "paper" else range(first, last + 1)
        for seed in seeds:
            corpus = workloads.corpus(name, seed)
            tally = run.Tally()
            outputs = [run.perform(cli, r)[1:] for r in corpus]
            digest, _ = tally.verify_pass(corpus, outputs)
            if tally.failed:
                print("\n".join(tally.problems), file=sys.stderr)
                return 1
            table.setdefault(name, {})["any" if name == "paper" else str(seed)] = digest
            print(name, seed, digest[:16], flush=True)
    path = run.BENCH / "digests.json"
    path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
