"""Record reference.json: the outputs of round 0 of every workload at
seeds 0 .. SEEDS-1, which run.py then requires at those seeds.

    python3 perfbench/reference.py

Record it only from a commit whose outputs are the intended ones; a change
that is meant to keep every output must pass against the old file.
"""

import json
import sys

import run
from workloads import WORKLOADS

SEEDS = 16


def main():
    sys.path.insert(0, str(run.SRC))
    px = run.import_phidiv()
    workdir = run.OUT / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    for wl in WORKLOADS.values():
        seeds = {}
        for seed in range(SEEDS):
            rounds = wl.prepare(px, seed, str(workdir))
            ops = run.run_rounds(wl, px, rounds, str(workdir), lambda r, busy: False)
            errors = [op.error for op in ops if op.error is not None]
            if errors:
                raise SystemExit(f"{wl.name} seed {seed}: {errors}")
            seeds[str(seed)] = wl.reference([op.output for op in ops])
            print(wl.name, seed, file=sys.stderr)
        reference[wl.name] = {"seeds": seeds}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
