"""Run one phidiv benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figure1 --seed 1 --seconds 32 --trace 0

Run it from the root of a checkout; phidiv is imported from that
checkout's src/.  Workloads are described in workloads.py and README.md.

--trace 0 sets up the workload's SETUP_REPEATS times, then runs rounds of
operations until --seconds of operation time have passed, with reference
blocks (yardstick.py) after each, checks every output and reports the
end-to-end metrics, operation time in reference milliseconds.
--trace 1 runs the workload's fixed TRACE_ROUNDS rounds traced, untraced
and traced again, requires identical outputs from all three and identical
work counters from both traced passes, and reports the first traced pass's
per-layer metrics with the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A full record, with the environment and
every operation's time, goes to .bench_build/perfbench/; a traced run also
writes its spans there.
"""

import os

# one BLAS thread, set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import itertools
import json
import math
import platform
import resource
import statistics
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import CATALOGUE, Tracer
from workloads import WORKLOADS
from yardstick import BLOCK_REF_MS, Pacer, block

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
MODULES = ("cli", "distributions", "dual", "errors", "estimate", "families",
           "inference", "models", "simulate")
WARM_UP_S = 2.0
END_TO_END = (("setup_s", "s"), ("op_refms_p50", "ref_ms"), ("ok_frac", "frac"),
              ("peak_rss_mb", "MB"))


@dataclass
class Op:
    round: int
    index: int
    spec: dict
    seconds: float
    units: int
    output: object
    error: str | None
    block_s: float | None  # median reference block run right after the op


def import_phidiv():
    """Import phidiv afresh from this checkout's src/; return its modules."""
    for name in [n for n in sys.modules if n == "phidiv" or n.startswith("phidiv.")]:
        del sys.modules[name]
    pkg = importlib.import_module("phidiv")
    if Path(pkg.__file__).resolve().parent != SRC / "phidiv":
        raise ImportError(f"phidiv was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module("phidiv." + m) for m in MODULES})


def set_up(wl, seed, workdir, repeats):
    """Import phidiv and make the inputs `repeats` times; median seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        px = import_phidiv()
        rounds = wl.prepare(px, seed, workdir)
        times.append(time.perf_counter() - t0)
        gc.collect()  # free the previous import, so peak RSS does not grow
    return statistics.median(times), px, rounds


def _attempt(fn, *args):
    t0 = time.perf_counter()
    try:
        return fn(*args), None, time.perf_counter() - t0
    except Exception as exc:  # a failed op is counted and reported, not fatal
        return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0


def run_rounds(wl, px, rounds, workdir, keep_going, tracer=None, pacer=None):
    """Run whole rounds back to back while keep_going(rounds done, busy s),
    with every op traced when a tracer is given and reference blocks after
    every op when a pacer is given."""
    ops, busy, r = [], 0.0, 0
    with tracer or contextlib.nullcontext():
        while r == 0 or keep_going(r, busy):
            for i, spec in enumerate(rounds[r % len(rounds)]):
                call = (wl.call, px, spec, workdir)
                raw, error, seconds = _attempt(tracer.run_op, *call) if tracer \
                    else _attempt(*call)
                busy += seconds
                block_s = pacer.after_op(seconds) if pacer else None
                output = None
                if error is None:
                    output, error, _ = _attempt(wl.collect, px, spec, raw, workdir)
                ops.append(Op(r, i, spec, seconds, wl.UNITS, output, error, block_s))
            r += 1
    return ops


def evaluate(wl, px, ops, rounds_kept, seed, reference):
    """Check every output.

    Returns (problems, attempted, failed, reported) in units of work: an op
    that raised or failed a check fails all its units.
    """
    ref = reference[wl.name]
    golden_round = ref["seeds"].get(str(seed))
    problems, attempted, failed, reported = [], 0, 0, 0
    seen = {}
    for op in ops:
        attempted += op.units
        where = f"round {op.round} op {op.index}"
        if op.error is not None:
            problems.append(f"{where}: {op.error}")
            failed += op.units
            continue
        text = json.dumps(op.output, sort_keys=True)
        key = (op.round % rounds_kept, op.index)
        if key in seen:
            first_text, bad, rep = seen[key]
            if text != first_text:
                problems.append(f"{where}: output differs from the same inputs' first run")
                bad = op.units
        else:
            golden = golden_round[op.index] if golden_round and op.round == 0 else None
            found, bad, rep = wl.check(px, op.spec, op.output, golden, ref)
            problems.extend(f"{where}: {p}" for p in found)
            bad = op.units if found else min(bad, op.units)
            seen[key] = (text, bad, rep)
        failed += bad
        reported += min(rep, op.units - bad)
    return problems, attempted, failed, reported


def environment():
    env = {"cpu": platform.processor(), "nproc": os.cpu_count(),
           "python": platform.python_version(), "numpy": np.__version__,
           "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
        with open("/proc/self/status", encoding="utf-8") as fh:
            env["process_threads"] = next(int(line.split()[1]) for line in fh
                                          if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    env["src_lines"] = sum(len(p.read_text(encoding="utf-8").splitlines())
                           for p in sorted(SRC.rglob("*.py")))
    return env


def op_refms_p50(wl, ops):
    """Median op time per unit in reference ms, each op over the blocks
    run right after it.

    With wl.PER_INDEX_MEDIAN the median is taken per op index in the round
    and the medians are combined by geometric mean: there the ops of a
    round differ a few-fold in cost, so one median over all of them would
    fall in a gap between two kinds and jump between them.
    """
    groups = {}
    for op in ops:
        key = op.index if wl.PER_INDEX_MEDIAN else None
        groups.setdefault(key, []).append(op.seconds / op.units / op.block_s * BLOCK_REF_MS)
    return math.exp(statistics.fmean(math.log(statistics.median(v)) for v in groups.values()))


def measure(wl, args, workdir, reference):
    setup_s, px, rounds = set_up(wl, args.seed, workdir, wl.SETUP_REPEATS)
    # untimed ops first, for at least WARM_UP_S, so that first-call costs
    # (allocator growth, lazily loaded code) stay out of the steady state
    warm_until = time.perf_counter() + WARM_UP_S
    for spec in itertools.cycle(rounds[0]):
        _attempt(wl.call, px, spec, workdir)
        block(wl.BLOCK)
        if time.perf_counter() >= warm_until:
            break
    pacer = Pacer(wl.BLOCK)
    ops = run_rounds(wl, px, rounds, workdir, lambda r, busy: busy < args.seconds,
                     pacer=pacer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, attempted, failed, reported = evaluate(wl, px, ops, len(rounds), args.seed,
                                                     reference)
    op_s_p50 = statistics.median(op.seconds / op.units for op in ops)
    metrics = {
        "setup_s": setup_s,
        "op_refms_p50": op_refms_p50(wl, ops),
        "ok_frac": 1.0 - (failed + reported) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)
    record = {"op_seconds": [op.seconds for op in ops], "rounds": ops[-1].round + 1,
              "op_ms_p50": op_s_p50 * 1e3, "op_block_seconds": [op.block_s for op in ops],
              "block_seconds": pacer.seconds}
    print(f"wall op_ms_p50 {op_s_p50 * 1e3:.6g}, reference block ms p50 "
          f"{statistics.median(pacer.seconds) * 1e3:.6g} over {len(pacer.seconds)} blocks")
    return problems, attempted, failed, {k: (v, units[k]) for k, v in metrics.items()}, record


def trace(wl, args, workdir, reference):
    _, px, rounds = set_up(wl, args.seed, workdir, 1)
    fixed = lambda r, busy: r < wl.TRACE_ROUNDS  # noqa: E731
    # traced, untraced, traced: the overhead compares the untraced pass with
    # the mean of its neighbours, so warm-up and drift cancel
    tracer, tracer_b = Tracer(), Tracer()
    ops = run_rounds(wl, px, rounds, workdir, fixed, tracer)
    plain = run_rounds(wl, px, rounds, workdir, fixed)
    ops_b = run_rounds(wl, px, rounds, workdir, fixed, tracer_b)
    problems, attempted, failed, _ = evaluate(wl, px, plain, len(rounds), args.seed,
                                              reference)
    for k, traced_ops in enumerate((ops, ops_b)):
        for a, b in zip(plain, traced_ops):
            if json.dumps(a.output, sort_keys=True) != json.dumps(b.output, sort_keys=True) \
                    or a.error != b.error:
                problems.append(f"traced pass {k}: round {a.round} op {a.index} "
                                "differs from the untraced output")
    work_a, work_b = tracer.work(), tracer_b.work()
    for key in sorted(set(work_a) | set(work_b)):
        if work_a.get(key) != work_b.get(key):
            problems.append(f"counter {key} did not repeat: {work_a.get(key)} "
                            f"then {work_b.get(key)}")
    values = tracer.metrics()
    values["trace.untraced_s"] = sum(op.seconds for op in plain)
    values["trace.traced_s"] = sum(op.seconds for op in ops + ops_b) / 2
    values["trace.overhead_frac"] = values["trace.traced_s"] / values["trace.untraced_s"] - 1.0
    tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.npz")
    metrics = {name: (values[name], unit) for name, unit, _ in CATALOGUE}
    record = {"op_seconds": [op.seconds for op in plain],
              "traced_op_seconds": [[op.seconds for op in ops], [op.seconds for op in ops_b]]}
    return problems, attempted, failed, metrics, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, str(SRC))
    try:
        import_phidiv()
    except ImportError as exc:
        print(f"perfbench: cannot import phidiv from {SRC}: {exc}", file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    wl = WORKLOADS[args.workload]
    try:
        problems, attempted, failed, metrics, record = \
            (trace if args.trace else measure)(wl, args, str(workdir), reference)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    env = environment()
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "problems": problems,
                   **record, **result}, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
