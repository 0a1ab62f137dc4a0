"""Command-line front end.

Subcommands: estimate, test (model|theta|ratio), power, samplesize,
confidence, simulate.  Structured results are printed as JSON (and
optionally written to --out); simulation tables are CSV.  Exit codes:
0 success, 1 usage error, 2 I/O or parse error, 3 numerical failure.

A config file of ``key = value`` lines may supply defaults; explicit flags
win over the file, the file wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import DataError, PhidivError
from .estimate import EstimateOptions, estimate
from .families import family as resolve_family
from .inference import (confidence_region, power_approx, sample_size,
                        test_model, test_theta_composite, test_theta_simple)
from .models import get_model, load_csv
from .simulate import DEFAULT_N_LIST, DEFAULT_RUNS, reproduce_figure1

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_real(text):
    """Finite real number, allowing simple fractions such as 1/3; anything
    else raises ValueError, which argparse reports as a usage error."""
    s = str(text).strip()
    num, slash, den = s.partition("/")
    try:
        value = float(num) / float(den) if slash else float(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{s!r} is not a finite number")
    return value


def _probability(text):
    """_parse_real strictly inside (0, 1); anything else raises ValueError,
    which argparse reports as a usage error."""
    value = _parse_real(text)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{text!r} is not inside (0, 1)")
    return value


def _positive_int(text):
    """Integer >= 1; anything else raises ValueError, which argparse reports
    as a usage error."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is below 1")
    return value


def _seed(text):
    """Integer >= 0; anything else raises ValueError, which argparse reports
    as a usage error."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{text!r} is below 0")
    return value


def _parse_sizes(text):
    """Comma separated sample sizes, each an integer >= 1."""
    return tuple(_positive_int(v) for v in str(text).split(","))


def _parse_grid(spec):
    """lo:hi:steps with at least one step; anything else is a DataError."""
    try:
        lo, hi, steps = spec.split(":")
        return np.linspace(_parse_real(lo), _parse_real(hi), _positive_int(steps))
    except ValueError:
        raise DataError(f"grid must be lo:hi:steps, got {spec!r}")


def _emit(payload, out_path=None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")


def _config_echo(args):
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _load_inputs(args):
    model = get_model(args.model)
    fam = resolve_family(args.family)
    sample = load_csv(args.data, header=args.header)
    if sample.points.shape[1] != model.m:
        raise DataError(
            f"{args.data}: {sample.points.shape[1]} columns but model "
            f"{model.name!r} expects {model.m}")
    return fam, model, sample


def _options(args):
    return EstimateOptions(n_starts=args.starts, seed=args.seed)


def cmd_estimate(args):
    fam, model, sample = _load_inputs(args)
    result = estimate(fam, model, sample, options=_options(args))
    payload = {"config": _config_echo(args), "result": result.to_dict()}
    if args.verbose:
        payload["inner"] = result.inner.to_dict()
    _emit(payload, args.out)
    return 0


def cmd_test(args):
    fam, model, sample = _load_inputs(args)
    if args.kind == "model":
        report, _ = test_model(fam, model, sample, args.alpha,
                               options=_options(args))
    elif args.kind == "theta":
        report = test_theta_simple(fam, model, sample,
                                   np.atleast_1d(args.theta), args.alpha)
    else:  # ratio
        report = test_theta_composite(fam, model, sample,
                                      np.atleast_1d(args.theta), args.alpha,
                                      options=_options(args))
    _print_report(report)
    _emit({"config": _config_echo(args), "report": report.to_dict()}, args.out)
    return 0


def _print_report(report):
    rows = [("test", report.kind), ("statistic", f"{report.statistic:.6g}"),
            ("df", report.df), ("p-value", f"{report.p_value:.6g}"),
            ("critical value", f"{report.critical_value:.6g}"),
            ("decision", report.decision)]
    width = max(len(str(k)) for k, _ in rows)
    for k, v in rows:
        print(f"  {k:<{width}}  {v}", file=sys.stderr)


def cmd_power(args):
    value = power_approx(args.n, args.alpha, args.df, args.div, args.sigma)
    _emit({"config": _config_echo(args), "power": value}, args.out)
    return 0


def cmd_samplesize(args):
    value = sample_size(args.beta, args.alpha, args.df, args.div, args.sigma)
    _emit({"config": _config_echo(args), "sample_size": value}, args.out)
    return 0


def cmd_confidence(args):
    fam, model, sample = _load_inputs(args)
    grid = _parse_grid(args.grid)
    pts, empty = confidence_region(fam, model, sample, args.alpha, grid,
                                   options=_options(args))
    payload = {"config": _config_echo(args), "empty": bool(empty),
               "points": pts.tolist()}
    if not empty and model.d == 1:
        payload["interval"] = [float(pts.min()), float(pts.max())]
    _emit(payload, args.out)
    return 0


def cmd_simulate(args):
    eps = tuple(_parse_grid(args.eps_grid)) if args.eps_grid else None
    rows = reproduce_figure1(args.seed, out_path=args.out, family=args.family,
                             n_list=args.n_list, epsilon_grid=eps, runs=args.runs,
                             alpha=args.alpha, threads=args.threads)
    print(f"wrote {len(rows)} rows" + (f" to {args.out}" if args.out else ""),
          file=sys.stderr)
    if not args.out:
        _emit({"config": _config_echo(args), "rows": rows})
    return 0


def _add_common_data_flags(p):
    p.add_argument("--data", required=True, help="CSV file, one row per observation")
    p.add_argument("--model", default="mean-variance",
                   help="mean | mean-variance | registered name")
    p.add_argument("--family", default="KLm",
                   help="KLm | KL | chi2 | chi2m | hellinger | power:GAMMA")
    p.add_argument("--header", action="store_true", help="skip the first CSV row")
    p.add_argument("--alpha", type=_probability, default=0.05)
    p.add_argument("--starts", type=_positive_int, default=5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="write JSON result here")
    p.add_argument("--verbose", action="store_true")


def build_parser():
    parser = _Parser(prog="phidiv",
                     description="Minimum divergence estimation and testing "
                                 "for moment condition models")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", default=None,
                        help="key = value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="fit the model to data")
    _add_common_data_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("test", help="model / theta / ratio hypothesis tests")
    p.add_argument("kind", choices=["model", "theta", "ratio"])
    _add_common_data_flags(p)
    p.add_argument("--theta", type=_parse_real, default=None,
                   help="tested parameter value (theta/ratio kinds)")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("power", help="analytic power approximation")
    for name, typ in (("--n", _positive_int), ("--alpha", _probability),
                      ("--df", _positive_int), ("--div", _parse_real), ("--sigma", _parse_real)):
        p.add_argument(name, type=typ, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("samplesize", help="sample size for a target power")
    for name, typ in (("--beta", _probability), ("--alpha", _probability),
                      ("--df", _positive_int), ("--div", _parse_real), ("--sigma", _parse_real)):
        p.add_argument(name, type=typ, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_samplesize)

    p = sub.add_parser("confidence", help="grid confidence region")
    _add_common_data_flags(p)
    p.add_argument("--grid", required=True, help="lo:hi:steps")
    p.set_defaults(func=cmd_confidence)

    p = sub.add_parser("simulate", help="Monte Carlo power study")
    p.add_argument("--figure1", action="store_true",
                   help="power curve table: MC versus analytic approximation")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--family", default="KLm")
    p.add_argument("--runs", type=_positive_int, default=DEFAULT_RUNS)
    p.add_argument("--alpha", type=_probability, default=0.05)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--eps-grid", default=None, help="lo:hi:steps")
    p.add_argument("--n-list", type=_parse_sizes, default=DEFAULT_N_LIST,
                   help="comma separated sample sizes")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_simulate)
    return parser, sub.choices


_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}


def _apply_config_file(parser, subparser, args):
    """Make the config file's values the subcommand's defaults.

    Keys the subcommand lacks are ignored.  Other values stay strings, which
    argparse types on the next parse; store-true flags take true or false.
    """
    path = args.config
    defaults = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    print(f"phidiv: {path}: malformed line {line!r}", file=sys.stderr)
                    raise SystemExit(EXIT_IO)
                k, v = (s.strip() for s in line.split("=", 1))
                k = k.replace("-", "_")
                if k in ("command", "config", "func") or not hasattr(args, k):
                    continue
                if isinstance(getattr(args, k), bool):
                    if v.lower() not in _BOOLEANS:
                        parser.error(f"{path}: {k} takes true or false, not {v!r}")
                    v = _BOOLEANS[v.lower()]
                defaults[k] = v
    except OSError as exc:
        print(f"phidiv: cannot read config: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    subparser.set_defaults(**defaults)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        _apply_config_file(parser, subparsers[args.command], args)
        args = parser.parse_args(argv)
    if args.command == "test" and args.kind in ("theta", "ratio") \
            and args.theta is None:
        parser.error("test theta/ratio requires --theta")
    if args.command == "simulate" and not args.figure1:
        parser.error("simulate requires --figure1, the one simulation wired up")
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader of stdout has gone: send what is left to devnull, so that
        # the flush at exit does not fail again, and exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO
    return code


def _run(args):
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except (OSError, DataError) as exc:
        _emit({"error": str(exc), "kind": "io"})
        return EXIT_IO
    except (PhidivError, np.linalg.LinAlgError, ValueError, ArithmeticError) as exc:
        _emit({"error": str(exc), "kind": "numeric"})
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
