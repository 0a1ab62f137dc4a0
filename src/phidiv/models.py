"""Estimating-function models and weighted samples.

A model packages the moment function g(x, theta) in R^l, its Jacobian with
respect to theta, the problem dimensions and a compact box for the parameter.
Evaluation is vectorized over observations: points are always handled as an
(n, m) array, g returns (n, l) and the Jacobian (n, l, d).
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError, ParameterSpaceError


@dataclass(frozen=True)
class MomentModel:
    name: str
    m: int
    d: int
    l: int
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g_jac: Callable[[np.ndarray, np.ndarray], np.ndarray]
    theta_lo: np.ndarray = field(default=None)
    theta_hi: np.ndarray = field(default=None)
    jacobian: np.ndarray = field(default=None)  # J of an affine g(x, theta0) + J (theta - theta0)

    def __post_init__(self):
        if self.l < self.d:
            raise ValueError("need at least as many moment functions as parameters")
        jac = None if self.jacobian is None else np.array(self.jacobian, dtype=float)
        if jac is not None and (jac.shape != (self.l, self.d) or not np.isfinite(jac).all()):
            raise ValueError(f"jacobian must be a finite {self.l} x {self.d} matrix")
        object.__setattr__(self, "jacobian", jac)
        lo = np.full(self.d, -10.0) if self.theta_lo is None else np.broadcast_to(
            np.asarray(self.theta_lo, dtype=float), (self.d,)).copy()
        hi = np.full(self.d, 10.0) if self.theta_hi is None else np.broadcast_to(
            np.asarray(self.theta_hi, dtype=float), (self.d,)).copy()
        if np.any(lo >= hi):
            raise ValueError("parameter box must have lo < hi")
        object.__setattr__(self, "theta_lo", lo)
        object.__setattr__(self, "theta_hi", hi)

    def check_theta(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.d,):
            raise ParameterSpaceError(f"theta must have dimension {self.d}")
        # written so that a NaN coordinate fails too
        if not ((theta >= self.theta_lo).all() and (theta <= self.theta_hi).all()):
            raise ParameterSpaceError(f"theta={theta} outside the parameter box")
        return theta

    def g_values(self, points, theta):
        """Moment function at every point; (n, l)."""
        out = np.asarray(self.g(np.atleast_2d(points), np.atleast_1d(theta)), dtype=float)
        return out.reshape(-1, self.l)

    def jac_values(self, points, theta):
        """d g / d theta at every point; (n, l, d)."""
        out = np.asarray(self.g_jac(np.atleast_2d(points), np.atleast_1d(theta)), dtype=float)
        return out.reshape(-1, self.l, self.d)


@dataclass(frozen=True)
class WeightedSample:
    """Finite-support measure: n points in R^m with probability weights.

    Uniform 1/n weights represent the empirical measure of a data set; a
    non-uniform instance can hold a discretized reference distribution.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim <= 1:
            pts = pts.reshape(-1, 1)  # a flat vector is n scalar observations
        w = np.asarray(self.weights, dtype=float)
        if pts.shape[0] == 0:
            raise DataError("empty sample")
        if w.shape != (pts.shape[0],):
            raise DataError("weights must be one per observation")
        if not (np.isfinite(pts).all() and np.isfinite(w).all()):
            raise DataError("sample points and weights must be finite")
        if not (w > 0.0).all():
            raise DataError("weights must be positive")
        if abs(w.sum() - 1.0) > 1e-8:
            raise DataError("weights must sum to one")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self):
        return self.points.shape[0]

    @classmethod
    def from_points(cls, points):
        pts = np.asarray(points, dtype=float)
        n = pts.shape[0]
        if n == 0:
            raise DataError("empty sample")
        return cls(pts, np.full(n, 1.0 / n))


def builtin_model(name, m=1, theta_lo=None, theta_hi=None):
    """Built-in models: 'mean' (x - theta, exactly identified) and
    'mean-variance' ((x, x^2 - theta), over-identified with l=2, d=1)."""
    if name == "mean":
        def g(x, theta):
            return x - theta[None, :]

        def g_jac(x, theta):
            n = x.shape[0]
            return np.broadcast_to(-np.eye(m), (n, m, m))

        return MomentModel("mean", m, m, m, g, g_jac, theta_lo, theta_hi, -np.eye(m))
    if name == "mean-variance":
        def g(x, theta):
            x0 = x[:, 0]
            return np.column_stack([x0, x0 * x0 - theta[0]])

        def g_jac(x, theta):
            n = x.shape[0]
            jac = np.zeros((n, 2, 1))
            jac[:, 1, 0] = -1.0
            return jac

        return MomentModel("mean-variance", 1, 1, 2, g, g_jac, theta_lo, theta_hi, [[0], [-1]])
    raise ValueError(f"unknown builtin model: {name!r}")


_REGISTRY = {}


def register_model(name, model):
    """Register a user model for lookup by name (CLI / config files)."""
    _REGISTRY[name] = model


def get_model(name):
    if name in _REGISTRY:
        return _REGISTRY[name]
    return builtin_model(name)


def load_csv(path, header=False):
    """Read a sample from UTF-8 CSV: one row per observation, m numeric
    columns, the first CSV record ignored when header is true.

    Raises :class:`DataError` naming the offending row and column on any
    non-numeric or non-finite cell or ragged row, and the byte offset of
    text that is not UTF-8.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    # numpy parses the file in one pass, each value as float(cell) gives it;
    # but numpy also strips the ASCII separators 0x1c-0x1f around a cell, so a
    # file holding one goes to the row reader.  That reader also runs when
    # numpy fails or finds a non-finite cell or no rows: it names the
    # offending cell, and it takes the forms float() accepts and numpy does
    # not (1_0, non-ASCII digits, whitespace-only rows).
    pts = None
    if not any(sep in raw for sep in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
        try:
            with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="") as fh, \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # input contained no data
                if header:
                    next(csv.reader(fh), None)  # one CSV record; skiprows counts lines
                pts = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
            pass
    if pts is None or pts.size == 0 or not np.isfinite(pts).all():
        pts = _read_rows(path, raw, header)
    return WeightedSample.from_points(pts)


def _read_rows(path, raw, header):
    """Row-by-row reader behind load_csv: float() on every cell."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8: byte {raw[exc.start]:#04x} at "
                        f"offset {exc.start}") from None
    rows, file_rows = [], []  # the data rows, and each one's 1-based file row
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader, 1):
            if (header and i == 1) or not row or all(c.strip() == "" for c in row):
                continue
            vals = []
            for j, cell in enumerate(row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric value {cell!r} at row {i}, column {j + 1}")
            rows.append(vals)
            file_rows.append(i)
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(rows[0])
    for r, i in zip(rows, file_rows):
        if len(r) != width:
            raise DataError(f"{path}: row {i} has {len(r)} columns, expected {width}")
    pts = np.asarray(rows, dtype=float)
    finite = np.isfinite(pts)
    if not finite.all():
        k, j = np.argwhere(~finite)[0]
        raise DataError(f"{path}: non-finite value {float(pts[k, j])!r} at "
                        f"row {file_rows[k]}, column {j + 1}")
    return pts
