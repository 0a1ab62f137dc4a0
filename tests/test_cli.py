import importlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import phidiv
from phidiv.cli import main

estimate_module = importlib.import_module("phidiv.estimate")


@pytest.fixture
def data_csv(tmp_path, rng):
    p = tmp_path / "data.csv"
    x = rng.uniform(-1.0, 1.1, size=150)
    p.write_text("\n".join(f"{v:.17g}" for v in x) + "\n")
    return p


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_estimate_happy_path(capsys, data_csv):
    code, payload = run(capsys, "estimate", "--data", str(data_csv),
                        "--model", "mean-variance", "--family", "chi2")
    assert code == 0
    assert "theta_hat" in payload["result"]
    assert payload["config"]["family"] == "chi2"
    assert payload["config"]["seed"] == 0


def test_missing_data_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate"])
    assert exc.value.code == 1


def test_unreadable_file_is_io_error(capsys, tmp_path):
    code, payload = run(capsys, "estimate", "--data", str(tmp_path / "no.csv"))
    assert code == 2
    assert payload["kind"] == "io"


def test_bad_cell_is_io_error_naming_position(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0\noops\n")
    code, payload = run(capsys, "estimate", "--data", str(p))
    assert code == 2
    assert "row 2, column 1" in payload["error"]


def test_nonfinite_cell_is_io_error_naming_position(capsys, tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("0.1\n0.2\nnan\n0.3\n" * 20)
    code, payload = run(capsys, "test", "model", "--data", str(p))
    assert code == 2
    assert payload["kind"] == "io"
    assert "row 3, column 1" in payload["error"]


def test_non_utf8_file_is_io_error_naming_offset(capsys, tmp_path):
    p = tmp_path / "latin.csv"
    p.write_bytes(b"1\n\xff2\n")
    code, payload = run(capsys, "estimate", "--data", str(p))
    assert code == 2
    assert payload == {"error": f"{p}: not UTF-8: byte 0xff at offset 2", "kind": "io"}


@pytest.mark.parametrize("buffering", [1, -1])  # write raises / flush raises
def test_closed_stdout_exits_quietly(capsys, data_csv, monkeypatch, buffering):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", buffering=buffering) as closed:
        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", closed)
            code = main(["estimate", "--data", str(data_csv), "--family", "chi2"])
    assert code == 2
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("theta", ["1/0", "nan", "inf", "1/x"])
def test_bad_theta_is_usage_error(capsys, data_csv, theta):
    with pytest.raises(SystemExit) as exc:
        main(["test", "theta", "--data", str(data_csv), "--theta", theta])
    assert exc.value.code == 1


def test_bad_config_file_is_typed_error(capsys, data_csv, tmp_path):
    cfg = tmp_path / "phidiv.cfg"
    cfg.write_text("alpha = abc\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "test", "model", "--data", str(data_csv)])
    assert exc.value.code == 1
    cfg.write_text("alpha\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "test", "model", "--data", str(data_csv)])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:  # unreadable
        main(["--config", str(tmp_path / "missing.cfg"), "test", "model",
              "--data", str(data_csv)])
    assert exc.value.code == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["power:inf", "power:nan", "power:-inf"])
@pytest.mark.parametrize("command", [
    ("estimate", "--data", "{data}"),
    ("simulate", "--figure1", "--runs", "2", "--n-list", "20", "--eps-grid", "0.3:0.6:2"),
])
def test_nonfinite_power_family_fails_like_an_unknown_one(capsys, data_csv, spec,
                                                          command):
    argv = [a.format(data=data_csv) for a in command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        want = run(capsys, *argv, "--family", "bogus")
        got = run(capsys, *argv, "--family", spec)
        err = capsys.readouterr().err
    assert (got[0], got[1]["kind"]) == (want[0], want[1]["kind"]) == (3, "numeric")
    assert "unknown divergence family" in got[1]["error"]
    assert err == ""


@pytest.mark.parametrize("sizes", ["0", "50,0", "-5", "a,b", "1.5", ""])
def test_bad_n_list_is_usage_error(capsys, sizes):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--figure1", "--runs", "2", "--n-list", sizes])
    assert exc.value.code == 1


def test_model_test_l_equals_d_is_numeric_error(capsys, data_csv):
    code, payload = run(capsys, "test", "model", "--data", str(data_csv),
                        "--model", "mean")
    assert code == 3
    assert payload["kind"] == "numeric"


@pytest.fixture
def big_csv(tmp_path):
    """30 points of magnitude up to 1e160: x^2 overflows to inf."""
    p = tmp_path / "big.csv"
    x = np.random.default_rng(5).uniform(-1.0, 1.01, 30) * 1e160
    p.write_text("\n".join(f"{v:.17g}" for v in x) + "\n")
    return p


def test_overflowing_moments_are_numeric_error(capsys, big_csv):
    code, payload = run(capsys, "test", "model", "--data", str(big_csv))
    assert code == 3
    assert payload["kind"] == "numeric"
    assert "the moment functions overflow" in payload["error"]


@pytest.mark.parametrize("argv, code", [
    (["test", "model"], 3), (["estimate"], 3), (["confidence", "--grid", "0.1:0.9:9"], 3),
    (["test", "theta", "--theta", "0.3"], 0)])
def test_overflowing_moments_print_no_numpy_warning(big_csv, argv, code):
    # a process of its own, so that stderr is what a user sees
    src = os.path.dirname(os.path.dirname(phidiv.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    proc = subprocess.run([sys.executable, "-m", "phidiv.cli", *argv, "--data", str(big_csv)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == code
    assert "RuntimeWarning" not in proc.stderr


def test_test_subcommands(capsys, data_csv):
    code, payload = run(capsys, "test", "model", "--data", str(data_csv))
    assert code == 0
    assert payload["report"]["df"] == 1
    code, payload = run(capsys, "test", "theta", "--data", str(data_csv),
                        "--theta", "1/3")
    assert code == 0
    assert payload["report"]["df"] == 2
    assert payload["config"]["theta"] == pytest.approx(1.0 / 3.0)
    code, payload = run(capsys, "test", "ratio", "--data", str(data_csv),
                        "--theta", "1/3")
    assert code == 0
    assert payload["report"]["df"] == 1


def test_theta_flag_required(capsys, data_csv):
    with pytest.raises(SystemExit) as exc:
        main(["test", "theta", "--data", str(data_csv)])
    assert exc.value.code == 1


def test_power_and_samplesize(capsys):
    code, payload = run(capsys, "samplesize", "--beta", "0.5", "--alpha",
                        "0.05", "--df", "1", "--div", "0.1", "--sigma", "1")
    assert code == 0
    assert payload["sample_size"] == 20
    code, payload = run(capsys, "power", "--n", "20", "--alpha", "0.05",
                        "--df", "1", "--div", "0.1", "--sigma", "1")
    assert code == 0
    assert 0.0 < payload["power"] < 1.0


def test_confidence_interval_json(capsys, data_csv):
    code, payload = run(capsys, "confidence", "--data", str(data_csv),
                        "--grid", "0.1:0.9:41", "--family", "KLm")
    assert code == 0
    assert not payload["empty"]
    lo, hi = payload["interval"]
    assert 0.1 <= lo < hi <= 0.9


def test_confidence_empty_grid(capsys, data_csv):
    # a grid of no point tries no theta, so it cannot answer "empty"
    for steps in ("0", "-3"):
        code, payload = run(capsys, "confidence", "--data", str(data_csv),
                            "--grid", f"0.1:0.9:{steps}", "--family", "KLm")
        assert code == 2
        assert payload == {"error": f"grid must be lo:hi:steps, got '0.1:0.9:{steps}'",
                           "kind": "io"}


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_simulate_empty_eps_grid_is_io_error(capsys, steps):
    code, payload = run(capsys, "simulate", "--figure1", "--runs", "2", "--n-list", "20",
                        "--eps-grid", f"0.1:0.9:{steps}")
    assert code == 2
    assert payload["kind"] == "io"


@pytest.mark.parametrize("starts", ["0", "-3", "1.5"])
def test_bad_starts_is_usage_error(capsys, data_csv, starts):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--data", str(data_csv), "--starts", starts])
    assert exc.value.code == 1


@pytest.mark.parametrize("runs", ["0", "-3", "1.5"])
def test_bad_runs_is_usage_error(capsys, runs):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--figure1", "--runs", runs, "--n-list", "20"])
    assert exc.value.code == 1


POWER = ["power", "--n", "20", "--alpha", "0.05", "--df", "1", "--div", "0.1", "--sigma", "1"]
SAMPLESIZE = ["samplesize", "--beta", "0.5", "--alpha", "0.05", "--df", "1", "--div", "0.1",
              "--sigma", "1"]
SIMULATE = ["simulate", "--figure1", "--runs", "2", "--n-list", "20", "--threads", "1"]


@pytest.mark.parametrize("value", ["0", "-2", "-3", "1.5"])
@pytest.mark.parametrize("argv, flag", [(POWER, "--n"), (POWER, "--df"),
                                        (SAMPLESIZE, "--df"), (SIMULATE, "--threads")])
def test_bad_integer_flag_is_usage_error(capsys, argv, flag, value):
    argv = list(argv)
    argv[argv.index(flag) + 1] = value
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1/0", "x"])
@pytest.mark.parametrize("argv, flag", [
    (POWER, "--alpha"), (POWER, "--div"), (POWER, "--sigma"),
    (SAMPLESIZE, "--beta"), (SAMPLESIZE, "--alpha"), (SAMPLESIZE, "--div"),
    (SAMPLESIZE, "--sigma"), (SIMULATE, "--alpha"),
    (["estimate", "--data", "unread.csv"], "--alpha"),
])
def test_bad_real_flag_is_usage_error(capsys, argv, flag, value):
    argv = list(argv) + ([] if flag in argv else [flag, "0.05"])
    argv[argv.index(flag) + 1] = value
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


@pytest.mark.parametrize("value", ["0", "1", "1.5", "-0.5"])
@pytest.mark.parametrize("argv, flag", [
    (POWER, "--alpha"), (SAMPLESIZE, "--beta"), (SAMPLESIZE, "--alpha"),
    (SIMULATE, "--alpha"), (["estimate", "--data", "unread.csv"], "--alpha"),
    (["test", "model", "--data", "unread.csv"], "--alpha"),
    (["test", "theta", "--theta", "0.3", "--data", "unread.csv"], "--alpha"),
    (["test", "ratio", "--theta", "0.3", "--data", "unread.csv"], "--alpha"),
    (["confidence", "--grid", "0:1:3", "--data", "unread.csv"], "--alpha"),
])
def test_probability_outside_the_unit_interval_is_usage_error(capsys, argv, flag, value):
    # refused by the parser, before any file is read or any fit runs
    argv = list(argv) + ([] if flag in argv else [flag, "0.05"])
    argv[argv.index(flag) + 1] = value
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"{flag}: invalid _probability value" in capsys.readouterr().err


@pytest.mark.parametrize("div, sigma", [("1e-200", "1"), ("1e-308", "1e308"),
                                        ("1e300", "1e-300")])
def test_extreme_finite_samplesize_is_numeric_error(capsys, div, sigma):
    # finite inputs whose sample size over- or underflows: a typed error
    # (ZeroDivisionError, OverflowError), not a traceback
    argv = list(SAMPLESIZE)
    argv[argv.index("--beta") + 1] = "0.8"
    argv[argv.index("--div") + 1], argv[argv.index("--sigma") + 1] = div, sigma
    code, payload = run(capsys, *argv)
    assert (code, payload["kind"]) == (3, "numeric")


def test_simulate_needs_figure1(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--runs", "2", "--n-list", "20"])
    assert exc.value.code == 1
    assert "requires --figure1" in capsys.readouterr().err
    cfg = tmp_path / "phidiv.cfg"
    cfg.write_text("figure1 = true\n")
    code, _ = run(capsys, "--config", str(cfg), "simulate", "--runs", "2",
                  "--n-list", "20", "--eps-grid", "0.5:0.5:1", "--out",
                  str(tmp_path / "fig.csv"))
    assert code == 0


def test_simulate_n_list_below_the_moments_is_numeric_error(capsys):
    # n = 2 cannot be fitted with 2 moment functions: every replicate would
    # fail and count as a rejection
    code, payload = run(capsys, "simulate", "--figure1", "--runs", "2", "--n-list", "20,2")
    assert code == 3
    assert payload["kind"] == "numeric" and "n_list" in payload["error"]


def test_out_file_written(capsys, data_csv, tmp_path):
    out = tmp_path / "res.json"
    code, _ = run(capsys, "estimate", "--data", str(data_csv), "--out", str(out))
    assert code == 0
    saved = json.loads(out.read_text())
    assert "result" in saved


def test_simulate_figure1(capsys, tmp_path):
    out = tmp_path / "fig.csv"
    code, _ = run(capsys, "simulate", "--figure1", "--seed", "3", "--runs",
                  "10", "--n-list", "50", "--eps-grid", "0.5:0.9:2",
                  "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,epsilon,mc_power,mc_stderr,approx_power"
    assert len(lines) == 3


def test_config_file_defaults(capsys, data_csv, tmp_path):
    cfg = tmp_path / "phidiv.cfg"
    # comment lines, and keys test model lacks (even unparsable), are ignored
    cfg.write_text("# a comment line\n   # an indented one\n\nfamily = chi2\n"
                   "alpha = 0.10  # comment\ngrid = 0.1:0.9:3\neps-grid = oops\n")
    code, payload = run(capsys, "--config", str(cfg), "test", "model",
                        "--data", str(data_csv))
    assert code == 0
    assert payload["config"]["family"] == "chi2"
    assert payload["config"]["alpha"] == 0.10
    assert "grid" not in payload["config"] and "eps_grid" not in payload["config"]
    # explicit flag beats the file
    code, payload = run(capsys, "--config", str(cfg), "test", "model",
                        "--data", str(data_csv), "--family", "KL")
    assert code == 0
    assert payload["config"]["family"] == "KL"
    # the --config=path spelling is applied too
    code, payload = run(capsys, f"--config={cfg}", "test", "model",
                        "--data", str(data_csv))
    assert code == 0
    assert payload["config"]["family"] == "chi2"


def test_config_file_booleans(capsys, data_csv, tmp_path):
    cfg = tmp_path / "phidiv.cfg"
    cfg.write_text("header = false\n")
    code, from_file = run(capsys, "--config", str(cfg), "estimate",
                          "--data", str(data_csv), "--family", "chi2")
    assert code == 0
    assert from_file["config"]["header"] is False
    # the first row of the headerless file is kept as data
    code, plain = run(capsys, "estimate", "--data", str(data_csv), "--family", "chi2")
    assert from_file["result"] == plain["result"]
    cfg.write_text("header = maybe\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "estimate", "--data", str(data_csv)])
    assert exc.value.code == 1


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_estimate_verbose_prints_the_inner_solution(capsys, data_csv):
    code, payload = run(capsys, "estimate", "--data", str(data_csv), "--verbose")
    assert code == 0
    fit = phidiv.estimate(phidiv.KLM, phidiv.get_model("mean-variance"),
                          phidiv.load_csv(str(data_csv)))
    assert payload["inner"] == json.loads(json.dumps(fit.inner.to_dict()))
    assert {"t", "objective", "status", "iterations", "grad_norm"} <= set(payload["inner"])
    assert payload["inner"]["t"] == payload["result"]["t_hat"]


def test_column_count_mismatch_is_io_error(capsys, tmp_path):
    p = tmp_path / "two.csv"
    p.write_text("".join(f"{0.1 * k},{0.2 * k}\n" for k in range(20)))
    code, payload = run(capsys, "estimate", "--data", str(p), "--model", "mean-variance")
    assert code == 2
    assert payload == {"error": f"{p}: 2 columns but model 'mean-variance' expects 1",
                       "kind": "io"}


def test_simulate_without_out_prints_json_rows(capsys):
    code, payload = run(capsys, "simulate", "--figure1", "--runs", "2", "--n-list", "20",
                        "--eps-grid", "0.5:0.5:1")
    assert code == 0
    rows = phidiv.reproduce_figure1(0, n_list=(20,), epsilon_grid=(0.5,), runs=2)
    assert payload["rows"] == json.loads(json.dumps(rows))
    assert payload["config"]["out"] is None


def test_ratio_test_at_a_separated_theta_rejects(capsys, data_csv):
    # x^2 - theta > 0 at every point: the inner solve is unbounded at once
    code, payload = run(capsys, "test", "ratio", "--data", str(data_csv), "--theta=-2")
    assert code == 0
    report = payload["report"]
    assert report["statistic"] == float("inf") and report["decision"] == "reject"
    assert report["flag"] == "inner solve unbounded; treated as rejection"


@pytest.mark.parametrize("flags, code", [([], 0), (["--n-list=20,2"], 3),
                                         (["--eps-grid=0.5:-2.5:2"], 3)])
def test_simulate_plan_error_fits_no_sample(capsys, monkeypatch, flags, code):
    # the plan is checked before the first fit: a sample size too small for
    # the model or a bad epsilon costs no Monte Carlo work (a bad alpha is
    # refused earlier, by the parser)
    fitted = []
    lockstep = estimate_module._lockstep

    def counted(fam, model, samples, options):
        fitted.extend(samples)
        return lockstep(fam, model, samples, options)

    monkeypatch.setattr(estimate_module, "_lockstep", counted)
    got, payload = run(capsys, "simulate", "--figure1", "--runs", "2", "--n-list", "20",
                       "--eps-grid=0.5:0.5:1", *flags, "--out", os.devnull)
    assert got == code
    if code:
        assert payload["kind"] == "numeric" and fitted == []
    else:
        assert len(fitted) == 3  # two replicates and the analytic curve's fit


@pytest.mark.parametrize("value", ["-1", "1.5", "x"])
@pytest.mark.parametrize("argv", [["estimate"], ["simulate", "--figure1", "--runs", "2",
                                                 "--n-list", "20", "--eps-grid=0.5:0.5:1"]])
def test_bad_seed_is_usage_error(capsys, monkeypatch, data_csv, argv, value):
    # a seed below 0 or not an integer is refused before any fit
    fitted = []
    lockstep = estimate_module._lockstep

    def counted(fam, model, samples, options):
        fitted.extend(samples)
        return lockstep(fam, model, samples, options)

    monkeypatch.setattr(estimate_module, "_lockstep", counted)
    if argv[0] == "estimate":
        argv = argv + ["--data", str(data_csv)]
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--seed={value}", "--out", os.devnull])
    assert exc.value.code == 1 and fitted == []
    assert "--seed" in capsys.readouterr().err
