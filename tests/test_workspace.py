"""The workspace of the lone inner solves (dual._Workspace).

A run of lone solves, one fit's or one solve_inner_many call's, writes its
n-sized intermediates into one set of arrays that it reuses at every theta.
These tests pin what that reuse must not change: every solution keeps
arrays of its own, fits and solve_inner_many calls in concurrent threads
are those run one after another, and after the first solve of a large fit
no array the size of the design is allocated again.
"""

import importlib
import sys
import threading
import tracemalloc

import numpy as np

from phidiv import HELLINGER, KL, KLM, WeightedSample, estimate, get_model, solve_inner
from phidiv.dual import solve_inner_many

MV = get_model("mean-variance")
ESTIMATE = importlib.import_module("phidiv.estimate")


def large_sample(seed, n=20_000):
    return WeightedSample.from_points(np.random.default_rng(seed).uniform(-1.0, 1.2, n))


def bits(fit):
    return (fit.theta_hat.tobytes(), fit.t_hat.tobytes(), float(fit.divergence_hat).hex(),
            float(fit.sigma2_hat).hex(), fit.inner.u.tobytes(), fit.inner.iterations,
            repr(fit.diagnostics))


def recording_solves(monkeypatch, on_solution):
    """Route the fit driver's inner solves through on_solution."""
    real = ESTIMATE._solve_many

    def recorded(*args):
        for sol in real(*args):
            on_solution(sol)
            yield sol

    monkeypatch.setattr(ESTIMATE, "_solve_many", recorded)


def test_solutions_of_one_fit_keep_arrays_of_their_own(monkeypatch):
    kept = []  # (solution, u, t and weights when it was delivered)
    recording_solves(monkeypatch, lambda sol: kept.append(
        (sol, sol.u.copy(), sol.t.copy(), None if sol.weights is None else sol.weights.copy())))
    fit = estimate(KLM, MV, large_sample(41))
    assert len(kept) > 10 and any(fit.inner is sol for sol, *_ in kept)
    arrays = [a for sol, *_ in kept for a in (sol.u, sol.t)]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    for sol, u, t, weights in kept:
        assert sol.u.tobytes() == u.tobytes() and sol.t.tobytes() == t.tobytes()
        if weights is not None:
            now = sol.weights
            assert now.tobytes() == weights.tobytes()
            assert not any(np.shares_memory(now, a) for a in arrays)


def test_fits_in_concurrent_threads_equal_fits_one_after_another():
    # more threads than cores, switching often: each fit's workspace is its
    # own, so no fit can see another's arrays
    jobs = [(fam, large_sample(42 + k)) for k, fam in enumerate((KLM, HELLINGER, KLM, KL))]
    alone = [bits(estimate(fam, MV, sample)) for fam, sample in jobs]
    together = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def run(k):
        start.wait()
        fam, sample = jobs[k]
        together[k] = bits(estimate(fam, MV, sample))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert together == alone


def test_solve_calls_in_concurrent_threads_equal_calls_one_after_another():
    # at n = 20 000 each problem is alone in its chunk, so every solve of a
    # call runs in the workspace that call owns, warm started as a scan is
    thetas = np.linspace(0.0, 0.25, 6)
    jobs = []
    for k, fam in enumerate((KLM, HELLINGER, KLM, KL)):
        sample = large_sample(45 + k)
        init = solve_inner(fam, MV, sample, [0.1]).t
        jobs.append((fam, [(sample, [theta], init) for theta in thetas]))

    def solved(fam, problems):
        return [(sol.t.tobytes(), sol.u.tobytes(), float(sol.objective).hex(), sol.status,
                 sol.iterations, repr(sol.diagnostics))
                for sol in solve_inner_many(fam, MV, problems)]

    alone = [solved(*job) for job in jobs]
    together = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def run(k):
        start.wait()
        together[k] = solved(*jobs[k])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert together == alone and all(len(sols) == len(thetas) for sols in alone)


def test_no_design_sized_block_after_the_first_solve(monkeypatch):
    # Every line run is traced: the traced memory's peak over a line, less
    # the memory at its start, bounds from below each block the line
    # allocates.  From the first solution on, none reaches the size of the
    # n x (l + 1) design: no fresh design, sign matrix, weighted design or
    # n x (l + 1) temporary, at any theta or any Newton request.
    n = 50_000
    limit = 8 * n * (MV.l + 1)
    solved, big = [], []
    recording_solves(monkeypatch, lambda sol: solved.append(True))
    state = {"at": 0, "where": None}

    def trace(frame, event, arg):
        current, peak = tracemalloc.get_traced_memory()
        if solved and peak - state["at"] >= limit:
            big.append((state["where"], peak - state["at"]))
        state["where"] = (frame.f_code.co_filename, frame.f_code.co_name, frame.f_lineno)
        tracemalloc.reset_peak()
        state["at"] = current
        return trace

    sample = large_sample(44, n)
    previous = sys.gettrace()
    tracemalloc.start()
    sys.settrace(trace)
    try:
        fit = estimate(KLM, MV, sample)
    finally:
        sys.settrace(previous)
        tracemalloc.stop()
    assert fit.inner.converged and len(solved) > 10
    assert big == []
