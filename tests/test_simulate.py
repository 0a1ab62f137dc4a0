from dataclasses import replace

import numpy as np
import pytest

from phidiv import dual, simulate
from phidiv.simulate import (SimulationPlan, approx_power_curve,
                             discretize_uniform, generate, mc_power,
                             reproduce_figure1, write_power_csv)

SMALL = SimulationPlan(n_list=(50,), runs=30, epsilon_grid=(0.3, 0.8), seed=7)


def test_plan_validation():
    with pytest.raises(ValueError):
        SimulationPlan(runs=0)
    for n_list in ((0,), (50, 0), (-5,), (2,), (50, 1)):
        with pytest.raises(ValueError, match="n_list"):
            SimulationPlan(n_list=n_list)
    with pytest.raises(ValueError, match="n_list"):  # one moment function
        SimulationPlan(model="mean", n_list=(1,))
    for change, match in [({"runs": 1.5}, "runs"), ({"runs": np.float64(2.0)}, "runs"),
                          ({"n_list": (50.5,)}, "n_list"), ({"n_list": ()}, "n_list"),
                          ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed")]:
        with pytest.raises(ValueError, match=match):
            SimulationPlan(**change)
    plan = SimulationPlan(n_list=(np.int64(50),), runs=np.int64(2), seed=np.uint32(7))
    assert (plan.runs, plan.seed) == (2, 7)
    assert SimulationPlan(model="mean", n_list=(2,)).n_list == (2,)
    assert SMALL.cells() == [(0.3, 50), (0.8, 50)]


@pytest.mark.parametrize("change, match", [
    ({"epsilon_grid": ()}, "epsilon_grid is empty"),
    ({"epsilon_grid": (0.5, float("nan"))}, "epsilon"),
    ({"epsilon_grid": (float("inf"),)}, "epsilon"),
    ({"epsilon_grid": (0.5, -2.0)}, "epsilon"),   # [-1, -1]: degenerate
    ({"epsilon_grid": (-2.5, 0.5)}, "epsilon"),   # [-1, -1.5]: empty
    ({"alpha": 1.5}, "alpha"), ({"alpha": 0.0}, "alpha"), ({"alpha": 1.0}, "alpha"),
    ({"alpha": -0.05}, "alpha"), ({"alpha": float("nan")}, "alpha"),
])
def test_plan_rejects_what_no_study_can_run(change, match):
    with pytest.raises(ValueError, match=match):
        replace(SMALL, **change)


def test_plan_accepts_an_interval_just_wider_than_a_point():
    plan = replace(SMALL, epsilon_grid=(np.nextafter(-2.0, 0.0),), runs=1)
    assert generate(plan, 0, 0).points.max() > -1.0


def test_generate_reproducible_and_in_range():
    a = generate(SMALL, 0, 3)
    b = generate(SMALL, 0, 3)
    assert np.array_equal(a.points, b.points)
    assert a.n == 50
    assert np.all(a.points >= -1.0) and np.all(a.points <= 1.3)
    c = generate(SMALL, 0, 4)
    assert not np.array_equal(a.points, c.points)
    d = generate(SMALL, 1, 3)
    assert not np.array_equal(a.points, d.points)


def test_generate_mean_matches_distribution():
    plan = SimulationPlan(n_list=(100_000,), epsilon_grid=(0.5,), runs=1, seed=3)
    s = generate(plan, 0, 0)
    assert s.points.mean() == pytest.approx(0.25, abs=0.01)


def test_mc_power_rows():
    rows = mc_power(SMALL)
    assert len(rows) == 2
    for r in rows:
        assert 0.0 <= r["rejection_rate"] <= 1.0
        assert r["mc_stderr"] >= 0.0
        assert r["failures"] >= 0
    assert rows[1]["rejection_rate"] >= rows[0]["rejection_rate"] - 0.25


def test_mc_power_thread_invariant():
    serial = mc_power(SMALL, threads=1)
    parallel = mc_power(SMALL, threads=2)
    assert serial == parallel


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_mc_power_farms_out_near_equal_pieces(monkeypatch):
    made = []
    monkeypatch.setattr(simulate, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(made, max_workers))
    # batches of 3 at n = 50 and 5 at n = 30, so that the cuts split batches
    monkeypatch.setattr(dual, "STACK_BYTES", 1 << 12)
    plan = replace(SMALL, n_list=(50, 30, 50), runs=3)
    serial = mc_power(plan)
    assert made == []
    assert simulate._pieces(plan, 3) == [(50, 0, 4), (50, 4, 8), (50, 8, 12),
                                         (30, 0, 2), (30, 2, 4), (30, 4, 6)]
    assert mc_power(plan, threads=3) == serial
    assert mc_power(plan, threads=64) == serial  # one piece per replicate
    assert made == [3, 18]


def test_discretize_uniform():
    p = discretize_uniform(-1.0, 1.0, 100)
    assert p.n == 100
    assert p.weights.sum() == pytest.approx(1.0)
    assert p.points.mean() == pytest.approx(0.0, abs=1e-12)
    assert (p.points.ravel() ** 2).mean() == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_approx_power_curve_values(monkeypatch):
    monkeypatch.setattr(simulate, "ATOMS", 2000)  # for speed
    plan = SimulationPlan(n_list=(100, 500), epsilon_grid=(0.0, 0.5), runs=1, seed=0)
    rows = approx_power_curve(plan)
    by = {(r["epsilon"], r["n"]): r["approx_power"] for r in rows}
    assert by[(0.0, 100)] == pytest.approx(0.05)  # null convention
    assert 0.0 < by[(0.5, 100)] < by[(0.5, 500)] <= 1.0


def test_reproduce_figure1_artifact(tmp_path):
    out = tmp_path / "fig1.csv"
    rows = reproduce_figure1(5, out_path=out, n_list=(50,),
                             epsilon_grid=(0.4, 0.9), runs=20)
    assert len(rows) == 2
    text = out.read_text()
    assert text.splitlines()[0] == "n,epsilon,mc_power,mc_stderr,approx_power"
    for r in rows:
        assert 0.0 <= r["mc_power"] <= 1.0
        assert 0.0 <= r["approx_power"] <= 1.0
    rows2 = reproduce_figure1(5, out_path=tmp_path / "fig1b.csv", n_list=(50,),
                              epsilon_grid=(0.4, 0.9), runs=20)
    assert (tmp_path / "fig1b.csv").read_bytes() == out.read_bytes()


def test_write_power_csv_format(tmp_path):
    p = tmp_path / "t.csv"
    write_power_csv([{"n": 50, "epsilon": 0.1, "mc_power": 1.0 / 3.0,
                      "mc_stderr": 0.01, "approx_power": None}], p)
    raw = p.read_bytes()
    assert b"\r" not in raw
    line = raw.decode().splitlines()[1]
    assert line.startswith("50,")
    assert "0.33333333333333331" in line
    assert line.endswith(",")
