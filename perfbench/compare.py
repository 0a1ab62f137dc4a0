"""Paired parent/change comparison on one workload.

    python3 perfbench/compare.py --parent ../phidiv-parent --change . \
        --workload figure1 --pairs 10

Both directories must hold a checkout with this same perfbench/ directory
(copy it into the parent checkout first).  Pair i runs both sides with seed
FIRST_SEED + i, alternating which side goes first, one process at a time.
For every end-to-end metric it prints each side's median and quartiles, the
pairs the change won, and a verdict: a gain needs nine tenths of the pairs
and a median difference wider than the parent's own quartile spread; a
regression is a median worse than the parent's by more than the bound in
BENCHMARK.json; a spread wider than the bound leaves the metric unresolved.
It also prints both sides' median wall-clock op time, uncorrected for the
host's speed (README.md, "Reference milliseconds").
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIRST_SEED = 100
TIMEOUT_S = 900


def run_side(root, args, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {root} seed {seed} failed its output checks", file=sys.stderr)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    wall = next(line for line in proc.stdout.splitlines() if line.startswith("wall op_ms_p50"))
    values["wall_op_ms_p50"] = float(wall.split()[2].rstrip(","))
    return values


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    for root in (args.parent, args.change):
        for path in sorted(HERE.glob("*")):
            other = root / "perfbench" / path.name
            if path.is_file() and (not other.is_file() or other.read_bytes() != path.read_bytes()):
                raise SystemExit(f"{other} differs from {path}: use one benchmark on both sides")
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            root = args.parent if side == "parent" else args.change
            runs[side].append(run_side(root, args, FIRST_SEED + i))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    for metric in bench["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        delta = cq[1] - pq[1]
        worse = delta if lower else -delta
        if wins >= 0.9 * args.pairs and abs(delta) > pq[2] - pq[0]:
            verdict = "gain"
        elif worse > metric["bound"] * abs(pq[1]):
            verdict = "regression"
        elif (max(c) < min(p)) if lower else (min(c) > max(p)):
            verdict = "every change run better"
        elif max(pq[2] - pq[0], cq[2] - cq[0]) > metric["bound"] * abs(pq[1]):
            verdict = "unresolved"
        else:
            verdict = "no change"
        print(f"{args.workload:10s} {name:12s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
              f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
              f"  wins {wins}/{args.pairs}  {verdict}")
    p, c = ([r["wall_op_ms_p50"] for r in runs[side]] for side in ("parent", "change"))
    print(f"{args.workload:10s} wall-clock op ms p50, for reference: parent "
          f"{statistics.median(p):.6g}  change {statistics.median(c):.6g}")


if __name__ == "__main__":
    main()
