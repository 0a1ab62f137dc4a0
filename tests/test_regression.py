"""Bit-for-bit regression against values recorded from an earlier version.

Performance work on the dual solver and the estimator must not move a
single bit of what the library returns: a change in the last bits can walk
a later solve into a different Newton path.  The reference file holds, as
float.hex strings, the outputs of a fixed Figure-1 plan (seed 7, 8 cells
spanning n = 50..500 and epsilon = 0.1..1.0, 6 replicates each) and of one
fit, simple test and confidence scan per divergence family, together with
the iteration counts.  The "large" record holds one fit and one model test
per family on n = 20 000 points, far above the stacked solver's size cap,
so that the lone-solve path is pinned as well.  At that size OpenBLAS splits
a dot product across its threads, and the split moves the last bits, so
that record is computed, and recorded, with one BLAS thread.

Re-record (python tests/test_regression.py) only in a change that means to
alter the library's outputs, and say so in its description.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from phidiv import (CHI2, HELLINGER, KL, KLM, PhidivError, WeightedSample,
                    confidence_region, estimate, generate, get_model,
                    variance_blocks)
from phidiv import test_model as model_test
from phidiv import test_theta_simple as simple_test
from phidiv.inference import test_models as model_tests
from phidiv.simulate import MC_OPTIONS, SimulationPlan

REFERENCE = Path(__file__).with_name("regression_values.json")
MV = get_model("mean-variance")
PLAN = SimulationPlan(n_list=(50, 500), epsilon_grid=(0.1, 0.4, 0.7, 1.0),
                      runs=6, seed=7)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def figure1_values():
    """One record per replicate of PLAN, in cell-major order."""
    out = []
    for cell in range(len(PLAN.cells())):
        for rep in range(PLAN.runs):
            sample = generate(PLAN, cell, rep)
            try:
                report, est = model_test(KLM, MV, sample, PLAN.alpha,
                                          options=MC_OPTIONS)
            except PhidivError as exc:
                out.append({"error": type(exc).__name__})
                continue
            out.append({
                "statistic": _hex(report.statistic),
                "p_value": _hex(report.p_value),
                "decision": report.decision,
                "sigma2_hat": _hex(est.sigma2_hat),
                "theta_hat": _hex(est.theta_hat),
                "t_hat": _hex(est.t_hat),
                "inner_iterations": est.inner.iterations,
                "outer_iterations": est.diagnostics["outer_iterations"],
            })
    return out


def lockstep_figure1_values():
    """figure1_values through the lockstep driver, inference.test_models, fed
    one sample size after another as simulate feeds it."""
    cells = PLAN.cells()
    order = [(cell, rep) for n in PLAN.n_list for cell in range(len(cells))
             if cells[cell][1] == n for rep in range(PLAN.runs)]
    results = model_tests(KLM, MV, (generate(PLAN, *key) for key in order),
                          PLAN.alpha, options=MC_OPTIONS)
    records = {}
    for key, result in zip(order, results):
        if isinstance(result, PhidivError):
            records[key] = {"error": type(result).__name__}
            continue
        report, est = result
        records[key] = {
            "statistic": _hex(report.statistic),
            "p_value": _hex(report.p_value),
            "decision": report.decision,
            "sigma2_hat": _hex(est.sigma2_hat),
            "theta_hat": _hex(est.theta_hat),
            "t_hat": _hex(est.t_hat),
            "inner_iterations": est.inner.iterations,
            "outer_iterations": est.diagnostics["outer_iterations"],
        }
    return [records[cell, rep] for cell in range(len(cells)) for rep in range(PLAN.runs)]


def fit_values():
    """Default-option fit, simple test at 1/3 and a 19-point scan per family."""
    x = np.random.default_rng(11).uniform(-1.0, 1.3, size=200)
    sample = WeightedSample.from_points(x)
    out = {}
    for fam in (KLM, KL, CHI2, HELLINGER):
        est = estimate(fam, MV, sample)
        simple = simple_test(fam, MV, sample, [1.0 / 3.0])
        pts, _ = confidence_region(fam, MV, sample, 0.05,
                                   np.linspace(0.05, 0.95, 19))
        out[fam.name] = {
            "theta_hat": _hex(est.theta_hat),
            "t_hat": _hex(est.t_hat),
            "divergence_hat": _hex(est.divergence_hat),
            "sigma2_hat": _hex(est.sigma2_hat),
            "V_hat": _hex(est.V_hat),
            "W_hat": _hex(est.W_hat),
            "inner_iterations": est.inner.iterations,
            "inner_backtracks": est.inner.diagnostics["backtracks"],
            "outer_iterations": est.diagnostics["outer_iterations"],
            "simple_statistic": _hex(simple.statistic),
            "simple_sigma2": None if simple.variance_sigma2 is None
            else _hex(simple.variance_sigma2),
            "scan_accepted": _hex(pts),
        }
    return out


LARGE_N = 20_000


def large_values():
    """Default-option fit and model test per family on LARGE_N points: every
    inner solve goes through the lone-problem path."""
    x = np.random.default_rng(19).uniform(-1.0, 1.3, size=LARGE_N)
    sample = WeightedSample.from_points(x)
    out = {}
    for fam in (KLM, KL, CHI2, HELLINGER):
        est = estimate(fam, MV, sample)
        report, _ = model_test(fam, MV, sample)
        out[fam.name] = {
            "theta_hat": _hex(est.theta_hat),
            "t_hat": _hex(est.t_hat),
            "divergence_hat": _hex(est.divergence_hat),
            "sigma2_hat": _hex(est.sigma2_hat),
            "inner_iterations": est.inner.iterations,
            "inner_backtracks": est.inner.diagnostics["backtracks"],
            "outer_iterations": est.diagnostics["outer_iterations"],
            "statistic": _hex(report.statistic),
        }
    return out


def _reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def test_figure1_plan_bit_identical():
    ref = _reference()["figure1"]
    got = figure1_values()
    assert len(got) == len(ref)
    for i, (g, r) in enumerate(zip(got, ref)):
        assert g == r, f"replicate {i}"


def test_figure1_plan_lockstep_bit_identical():
    ref = _reference()["figure1"]
    got = lockstep_figure1_values()
    assert len(got) == len(ref)
    for i, (g, r) in enumerate(zip(got, ref)):
        assert g == r, f"replicate {i}"


def test_family_fits_bit_identical():
    assert fit_values() == _reference()["fits"]


def _one_blas_thread_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src,
            **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")}}


def test_large_sample_fits_bit_identical():
    # a process of its own: the BLAS thread count is fixed when numpy loads
    out = subprocess.run([sys.executable, __file__, "--large"], env=_one_blas_thread_env(),
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == _reference()["large"]


def test_lazy_variance_blocks_equal_direct_call():
    sample = generate(PLAN, 3, 0)
    est = estimate(KLM, MV, sample, options=MC_OPTIONS)
    v, s_mat, m_mat, w_mat = variance_blocks(KLM, MV, sample, est.theta_hat, est.t_hat)
    for lazy, direct in ((est.V_hat, v), (est.S_hat, s_mat),
                         (est.M_hat, m_mat), (est.W_hat, w_mat)):
        assert lazy.tobytes() == direct.tobytes()


if __name__ == "__main__" and sys.argv[1:] == ["--large"]:
    print(json.dumps(large_values()))
elif __name__ == "__main__":  # run with OPENBLAS_NUM_THREADS=1, for the large record
    payload = {"figure1": figure1_values(), "fits": fit_values(),
               "large": large_values()}
    REFERENCE.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}", file=sys.stderr)
