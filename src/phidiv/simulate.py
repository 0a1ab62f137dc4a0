"""Seeded Monte Carlo harness: calibration, empirical power, power curves.

The samples of the cell (epsilon, n) are drawn from the uniform law on
[LO, HI + epsilon] = [-1, 1 + epsilon], the alternatives of the paper's
Figure 1; epsilon = 0 satisfies the mean-variance model.  Every replicate
draws its own random stream from the tuple (master seed, cell index,
replicate index) through numpy's SeedSequence, so results are a pure
function of the plan and independent of execution order or worker count.
The replicates of every cell of one sample size n are fitted together, in
lockstep batches (inference.test_models), each replicate bit for bit as
fitted alone, whatever batch it is in.  With threads > 1 each size's
stream of replicates is cut into up to `threads` near-equal pieces, the
pieces are farmed out to a process pool, and their counts are summed per
cell.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import PhidivError
from .estimate import EstimateOptions, _int_at_least, estimate_many
from .families import family as resolve_family
from .inference import power_approx, test_models
from .models import WeightedSample, get_model

DEFAULT_N_LIST = (50, 100, 200, 500)
DEFAULT_RUNS = 1000
DEFAULT_EPS_GRID = tuple(np.round(np.linspace(0.1, 1.0, 10), 10))
MC_OPTIONS = EstimateOptions(n_starts=1, outer_tol=1e-7, outer_max_iter=60,
                             inner_tol=1e-8)
LO, HI = -1.0, 1.0   # the alternative of epsilon is uniform on [LO, HI + epsilon]
ATOMS = 10_000       # midpoints discretizing it for the analytic power curve


@dataclass(frozen=True)
class SimulationPlan:
    model: str = "mean-variance"
    family: str = "KLm"
    n_list: tuple = DEFAULT_N_LIST
    runs: int = DEFAULT_RUNS
    alpha: float = 0.05
    epsilon_grid: tuple = DEFAULT_EPS_GRID
    seed: int = 0

    def __post_init__(self):
        if not _int_at_least(self.runs, 1):
            raise ValueError(f"runs must be an integer >= 1, not {self.runs!r}")
        if not _int_at_least(self.seed, 0):
            raise ValueError(f"seed must be an integer >= 0, not {self.seed!r}")
        moments = get_model(self.model).l
        if not self.n_list:
            raise ValueError("n_list is empty")
        if not all(_int_at_least(n, moments + 1) for n in self.n_list):
            raise ValueError(f"every sample size in n_list must be an integer above "
                             f"{moments}, the model's number of moment functions")
        if not self.epsilon_grid:
            raise ValueError("epsilon_grid is empty")
        if not all(math.isfinite(eps) and HI + eps > LO for eps in self.epsilon_grid):
            raise ValueError(f"every epsilon must be finite and above {LO - HI:g}, "
                             "so that the uniform interval is not degenerate")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    def cells(self):
        """(epsilon, n) pairs in deterministic order, epsilon-major."""
        return [(eps, n) for eps in self.epsilon_grid for n in self.n_list]


def generate(plan, cell, replicate):
    """Draw the sample for one (cell, replicate); counter-style substream."""
    eps, n = plan.cells()[cell]
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((plan.seed, cell, replicate))))
    return WeightedSample.from_points(rng.uniform(LO, HI + eps, size=n))


def _pieces(plan, threads):
    """Work items (n, start, stop): the stream of every sample size n (its
    cells' replicates, cell-major) cut into at most `threads` consecutive
    near-equal pieces.  Largest n first, as they cost most."""
    items = []
    for n in sorted(set(plan.n_list), reverse=True):
        total = plan.n_list.count(n) * len(plan.epsilon_grid) * plan.runs
        k = min(threads, total)
        cuts = [total * j // k for j in range(k + 1)]
        items.extend((n, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    return items


def _run_piece(plan, n, start, stop):
    """(cell index, failed, rejected) for each of the samples start:stop of
    sample size n's stream (see _pieces)."""
    stream = [(c, rep) for c, (_, m) in enumerate(plan.cells()) if m == n
              for rep in range(plan.runs)][start:stop]
    samples = (generate(plan, c, rep) for c, rep in stream)
    results = test_models(resolve_family(plan.family), get_model(plan.model),
                          samples, plan.alpha, options=MC_OPTIONS)
    out = []
    for (cell, _), result in zip(stream, results):
        # failed fits (e.g. unbounded duals at every start) count as
        # rejections, consistent with the boundary policy in inference
        failed = isinstance(result, PhidivError)
        out.append((cell, failed, failed or result[0].decision == "reject"))
    return out


def mc_power(plan, threads=1):
    """Empirical rejection rate for every (epsilon, n) cell of the plan."""
    threads = max(threads, 1)
    items = _pieces(plan, threads)
    workers = min(threads, len(items))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_piece, repeat(plan), *zip(*items)))
    else:
        parts = [_run_piece(plan, *item) for item in items]
    cells = plan.cells()
    failures, rejections = [0] * len(cells), [0] * len(cells)
    for part in parts:
        for cell, failed, rejected in part:
            failures[cell] += failed
            rejections[cell] += rejected
    rows = []
    for (eps, n), failed, rejected in zip(cells, failures, rejections):
        rate = rejected / plan.runs
        rows.append({
            "epsilon": eps,
            "n": n,
            "rejection_rate": rate,
            "mc_stderr": math.sqrt(rate * (1.0 - rate) / plan.runs),
            "failures": failed,
            "unreliable": failed > 0.05 * plan.runs,
        })
    return rows


def discretize_uniform(lo, hi, atoms):
    """Midpoint discretization of a uniform law as a weighted sample."""
    edges = np.linspace(lo, hi, atoms + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return WeightedSample(mids, np.full(atoms, 1.0 / atoms))


def approx_power_curve(plan):
    """Analytic power approximation for every cell of the plan.

    Discretizes the alternative at ATOMS midpoints, computes the population
    divergence and the criterion standard deviation at the pseudo-true
    parameter, then applies the normal power formula.  The laws of all
    epsilon are fitted by one estimate_many call.  At epsilon = 0 the
    divergence degenerates to zero and the cell reports the nominal level
    by convention.
    """
    model = get_model(plan.model)
    fam = resolve_family(plan.family)
    df = model.l - model.d
    laws = (discretize_uniform(LO, HI + eps, ATOMS) for eps in plan.epsilon_grid)
    rows = []
    for eps, est in zip(plan.epsilon_grid, estimate_many(fam, model, laws, MC_OPTIONS)):
        if isinstance(est, PhidivError):
            rows.extend({"epsilon": eps, "n": n, "approx_power": None} for n in plan.n_list)
            continue
        div = max(est.divergence_hat, 0.0)
        sigma = math.sqrt(max(est.sigma2_hat, 0.0))
        for n in plan.n_list:
            if div < 1e-8 or sigma < 1e-12:
                power = plan.alpha
            else:
                power = power_approx(n, plan.alpha, df, div, sigma)
            rows.append({"epsilon": eps, "n": n, "approx_power": power})
    return rows


def reproduce_figure1(seed, out_path=None, family="KLm",
                      n_list=DEFAULT_N_LIST, epsilon_grid=None,
                      runs=DEFAULT_RUNS, alpha=0.05, threads=1):
    """Monte Carlo power versus its analytic approximation on one CSV table.

    Columns: n, epsilon, mc_power, mc_stderr, approx_power; one row per
    (n, epsilon).  Reruns with the same seed are byte-identical regardless
    of the worker count.
    """
    if epsilon_grid is None:
        epsilon_grid = DEFAULT_EPS_GRID
    plan = SimulationPlan(family=family, n_list=tuple(n_list), runs=runs, alpha=alpha,
                          epsilon_grid=tuple(epsilon_grid), seed=seed)
    mc_rows = mc_power(plan, threads=threads)
    ap_rows = approx_power_curve(plan)
    approx = {(r["epsilon"], r["n"]): r["approx_power"] for r in ap_rows}
    rows = []
    for r in mc_rows:
        key = (r["epsilon"], r["n"])
        rows.append({
            "n": r["n"],
            "epsilon": r["epsilon"],
            "mc_power": r["rejection_rate"],
            "mc_stderr": r["mc_stderr"],
            "approx_power": approx.get(key),
            "failures": r["failures"],
        })
    rows.sort(key=lambda r: (r["n"], r["epsilon"]))
    if out_path is not None:
        write_power_csv(rows, out_path)
    return rows


def write_power_csv(rows, path):
    """Deterministic CSV dump: UTF-8, LF endings, round-trip float format."""
    cols = ["n", "epsilon", "mc_power", "mc_stderr", "approx_power"]
    lines = [",".join(cols)]
    for r in rows:
        cells = []
        for c in cols:
            v = r[c]
            if v is None:
                cells.append("")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(format(float(v), ".17g"))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
