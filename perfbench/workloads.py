"""The benchmark's three workloads: seeded inputs, timed calls, output checks.

Every workload is a closed loop with one caller: each operation starts when
the previous one has returned.  Its inputs are a list of rounds made from
the workload seed during set-up; a run repeats the rounds in order, so a
round seen twice must give identical outputs.

A workload object has UNITS, the units of work one op completes, BLOCK,
the kind of reference block (yardstick.py) that tracks the machine's speed
for it, SETUP_REPEATS, the set-ups whose median is setup_s (about a second
of them), PER_INDEX_MEDIAN, whether op_refms_p50 takes a median per op
index in the round and combines them (run.py), and
  prepare(px, seed, workdir) -> list of rounds, each a list of op specs
  call(px, spec, workdir)    -> raw result (the only timed part)
  collect(px, spec, raw, workdir) -> JSON-able output, compared exactly
  check(px, spec, out, golden, ref) -> (problems, failed units, reported units)
  reference(outputs)         -> golden outputs of one round, for reference.json
where px holds the phidiv modules, ref is the workload's entry in
reference.json and golden the reference output of the op (round 0 at a
reference seed) or None.  A problem is a failed output check.  Failed
units are self-contradictory answers; reported units are those the program
itself reports as failed inside a successful operation (Figure-1 replicates
whose fit failed and was counted as a rejection).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

FAMILIES = ("KLm", "KL", "chi2", "hellinger")
ALPHA = 0.05


def derive_seed(*keys):
    """A 32-bit seed that is a pure function of the given integers."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def contradiction(report):
    """A test report that contradicts itself, or None."""
    stat = report["statistic"]
    if isinstance(stat, float) and math.isnan(stat):
        if report["decision"] == "accept" and report["p_value"] == 0.0:
            return "NaN statistic reported as accept with p = 0"
        return None
    if stat < 0.0:
        return f"negative statistic {stat!r}"
    return None


def _report(rep):
    return {"statistic": rep.statistic, "p_value": rep.p_value,
            "decision": rep.decision, "flag": rep.flag}


class Figure1:
    """The Figure-1 Monte Carlo study with RUNS replicates per cell.

    Each op is one reproduce_figure1 call: 40 cells (n in {50, 100, 200,
    500} x epsilon in {0.1, ..., 1.0}) of RUNS KLm model tests each, plus
    the analytic power curve, with its own study seed.  A unit of work is
    one replicate.
    """

    name = "figure1"
    # four replicates per cell keep a call near 1.5 s, so that the reference
    # blocks after it see the host at the speed the call saw; the analytic
    # curve, a fixed cost per call, is then about a quarter of it
    RUNS = 4
    N_LIST = (50, 100, 200, 500)
    EPSILONS = tuple(np.round(np.linspace(0.1, 1.0, 10), 10))
    UNITS = len(N_LIST) * len(EPSILONS) * RUNS
    BLOCK = "small"
    SETUP_REPEATS = 25
    ROUNDS = 64
    TRACE_ROUNDS = 1
    PER_INDEX_MEDIAN = False
    HEADER = "n,epsilon,mc_power,mc_stderr,approx_power"

    def prepare(self, px, seed, workdir):
        return [[{"round": r, "seed": derive_seed(seed, r)}] for r in range(self.ROUNDS)]

    def call(self, px, spec, workdir):
        return px.simulate.reproduce_figure1(
            spec["seed"], out_path=os.path.join(workdir, "figure1.csv"),
            runs=self.RUNS, threads=1)

    def collect(self, px, spec, rows, workdir):
        with open(os.path.join(workdir, "figure1.csv"), encoding="utf-8") as fh:
            text = fh.read()
        return {"rows": [[r["n"], r["epsilon"], r["mc_power"], r["mc_stderr"],
                          r["approx_power"], r["failures"]] for r in rows],
                "csv": text}

    def check(self, px, spec, out, golden, ref):
        problems = []
        rows = out["rows"]
        cells = sorted((n, eps) for eps in self.EPSILONS for n in self.N_LIST)
        if [(r[0], r[1]) for r in rows] != cells:
            return ["rows do not cover the (n, epsilon) plan in order"], 0, 0
        lines = [self.HEADER] + [
            f"{r[0]}," + ",".join("" if v is None else format(v, ".17g") for v in r[1:5])
            for r in rows]
        if out["csv"] != "\n".join(lines) + "\n":
            problems.append("CSV does not match the returned rows")
        # the analytic curve does not depend on the seed: any reference will do
        approx = next(iter(ref["seeds"].values()))[0]["approx_power"]
        for r, want in zip(rows, approx):
            if r[4] is None or abs(r[4] - want) > 1e-9:
                problems.append(f"approx_power at n={r[0]} eps={r[1]}: {r[4]!r} != {want!r}")
        failed = 0
        # recompute two cells through the public per-replicate API
        plan = px.simulate.SimulationPlan(runs=self.RUNS, seed=spec["seed"])
        first = (spec["round"] % len(self.EPSILONS)) * len(self.N_LIST)
        for cell in (first, (first + 23) % len(cells)):
            eps, n = plan.cells()[cell]
            rejections, bad = self._recount(px, plan, cell)
            failed += bad
            row = rows[cells.index((n, eps))]
            if rejections != round(row[2] * self.RUNS):
                problems.append(f"cell n={n} eps={eps}: {rejections} rejections on "
                                f"recomputation, {row[2] * self.RUNS:g} in the study")
        if golden is not None:
            if [r[2] for r in rows] != golden["mc_power"]:
                problems.append("mc_power differs from the reference")
            if [r[5] for r in rows] != golden["failures"]:
                problems.append("failure counts differ from the reference")
        return problems, failed, sum(r[5] for r in rows)

    def _recount(self, px, plan, cell):
        fam = px.families.family(plan.family)
        model = px.models.get_model(plan.model)
        rejections = contradictions = 0
        for rep in range(plan.runs):
            sample = px.simulate.generate(plan, cell, rep)
            try:
                report, _ = px.inference.test_model(fam, model, sample, plan.alpha,
                                                    options=px.simulate.MC_OPTIONS)
            except px.errors.PhidivError:
                rejections += 1  # the study counts a failed fit as a rejection
                continue
            rejections += report.decision == "reject"
            contradictions += contradiction(_report(report)) is not None
        return rejections, contradictions

    def reference(self, outputs):
        return [{"mc_power": [r[2] for r in o["rows"]],
                 "approx_power": [r[4] for r in o["rows"]],
                 "failures": [r[5] for r in o["rows"]]} for o in outputs]


class LargeN:
    """In-process CLI model tests on seeded samples of N = 10^5 points.

    Each op is `phidiv test model --data <csv> --family F --out <json>` on
    one of ROUNDS CSV files written during set-up; a round runs the four
    families on one file.  The data are uniform on [-1, 1 + EPS], a mild
    misspecification of the mean-variance model that a sample this large
    detects.  A unit of work is one fit.
    """

    name = "large_n"
    N = 100_000
    EPS = 0.01
    UNITS = 1
    BLOCK = "large"
    SETUP_REPEATS = 5
    ROUNDS = 4
    TRACE_ROUNDS = 1
    PER_INDEX_MEDIAN = True

    def prepare(self, px, seed, workdir):
        rounds = []
        for r in range(self.ROUNDS):
            x = np.random.default_rng(derive_seed(seed, r)).uniform(
                -1.0, 1.0 + self.EPS, size=self.N)
            path = os.path.join(workdir, f"large_n-{r}.csv")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(format(v, ".17g") for v in x) + "\n")
            rounds.append([{"round": r, "csv": path, "family": f} for f in FAMILIES])
        return rounds

    def call(self, px, spec, workdir):
        fits = []

        # test model prints no estimate; keep the one the CLI computed
        def keep_fit(*args, **kwargs):
            report, est = px.inference.test_model(*args, **kwargs)
            fits.append(est)
            return report, est

        argv = ["test", "model", "--data", spec["csv"], "--family", spec["family"],
                "--out", os.path.join(workdir, "large_n.json")]
        sink = io.StringIO()
        previous, px.cli.test_model = px.cli.test_model, keep_fit
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = px.cli.main(argv)
        finally:
            px.cli.test_model = previous
        return code, fits

    def collect(self, px, spec, raw, workdir):
        code, fits = raw
        out = {"exit": code}
        path = os.path.join(workdir, "large_n.json")
        if code == 0:
            with open(path, encoding="utf-8") as fh:
                out["report"] = json.load(fh)["report"]
            out["theta_hat"] = [float(v) for v in fits[0].theta_hat]
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        return out

    def check(self, px, spec, out, golden, ref):
        if out["exit"] != 0:
            return [f"{spec['family']}: exit code {out['exit']}"], 0, 0
        rep = out["report"]
        if not math.isfinite(rep["statistic"]):
            return [f"{spec['family']}: statistic {rep['statistic']!r}"], 0, 0
        problems = []
        bad = contradiction(rep)
        if golden is not None:
            for key, got, want in (("statistic", [rep["statistic"]], [golden["statistic"]]),
                                   ("theta_hat", out["theta_hat"], golden["theta_hat"])):
                if any(abs(g - w) > 1e-6 * abs(w) for g, w in zip(got, want)):
                    problems.append(f"{spec['family']}: {key} {got} != reference {want}")
        return problems, int(bad is not None), 0

    def reference(self, outputs):
        return [{"statistic": o["report"]["statistic"], "theta_hat": o["theta_hat"]}
                for o in outputs]


class ThetaScan:
    """Confidence scans and tests of a fixed parameter on small samples.

    Each op takes one seeded sample (n in SIZES, null or alternative
    epsilon) and one family, runs confidence_region on an 81-point grid
    over [0.05, 0.95], then test_theta_simple and test_theta_composite at
    theta0 = 1/3, the variance of the null law.  A round holds all 16
    combinations, each with a fresh sample.  A unit of work is one scan.
    """

    name = "theta_scan"
    SIZES = (50, 200)
    EPSILONS = (0.0, 0.5)
    GRID = np.linspace(0.05, 0.95, 81)
    THETA0 = np.array([1.0 / 3.0])
    UNITS = 1
    BLOCK = "small"
    SETUP_REPEATS = 25
    ROUNDS = 16
    TRACE_ROUNDS = 2
    PER_INDEX_MEDIAN = False

    def prepare(self, px, seed, workdir):
        model = px.models.get_model("mean-variance")
        combos = [(n, eps, f) for n in self.SIZES for eps in self.EPSILONS
                  for f in FAMILIES]
        rounds = []
        for r in range(self.ROUNDS):
            ops = []
            for k, (n, eps, f) in enumerate(combos):
                x = np.random.default_rng(derive_seed(seed, r, k)).uniform(
                    -1.0, 1.0 + eps, size=n)
                ops.append({"round": r, "family": px.families.family(f), "model": model,
                            "sample": px.models.WeightedSample.from_points(x)})
            rounds.append(ops)
        return rounds

    def call(self, px, spec, workdir):
        fam, model, sample = spec["family"], spec["model"], spec["sample"]
        inf = px.inference
        region = inf.confidence_region(fam, model, sample, ALPHA, self.GRID)
        simple = inf.test_theta_simple(fam, model, sample, self.THETA0, ALPHA)
        composite = inf.test_theta_composite(fam, model, sample, self.THETA0, ALPHA)
        return region, simple, composite

    def collect(self, px, spec, raw, workdir):
        (points, empty), simple, composite = raw
        return {"accepted": np.flatnonzero(np.isin(self.GRID, points.ravel())).tolist(),
                "empty": bool(empty), "simple": _report(simple),
                "composite": _report(composite)}

    def check(self, px, spec, out, golden, ref):
        problems = []
        if out["empty"] != (not out["accepted"]):
            problems.append("empty flag disagrees with the accepted points")
        if golden is not None:
            if out["accepted"] != golden["accepted"]:
                problems.append(f"accepted {out['accepted']} != reference {golden['accepted']}")
            for test in ("simple", "composite"):
                if out[test]["decision"] != golden[test]:
                    problems.append(f"{test} decision {out[test]['decision']} != reference")
        bad = any(contradiction(out[test]) for test in ("simple", "composite"))
        return problems, int(bad), 0

    def reference(self, outputs):
        return [{"accepted": o["accepted"], "simple": o["simple"]["decision"],
                 "composite": o["composite"]["decision"]} for o in outputs]


WORKLOADS = {w.name: w for w in (Figure1(), LargeN(), ThetaScan())}
