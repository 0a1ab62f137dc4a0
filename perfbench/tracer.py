"""Outside-in tracing of phidiv's public functions.

Each function in LAYERS is replaced, in every phidiv module that holds a
reference to it, by a wrapper that records one span per call: the layer
name, the span that caused it, the benchmark operation it belongs to, and
its start and end time.  Methods are replaced on their class.  Spans live in
flat in-memory arrays and are written out once, at the end.  Work counters
are read from the objects the functions return, so nothing inside phidiv
changes; uninstall() puts every original back.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

BYTES_PER_ELEMENT = 16  # one float64 read and one written per conjugate entry
ROOT = "bench.op"       # the span the benchmark opens around each operation


def _count_elements(counters, name, args):
    counters[name + ".elements"] += np.size(args[1])


def _read_dual_solution(counters, sol):
    counters["dual.newton_steps"] += sol.iterations
    counters["dual.backtracks"] += sol.diagnostics.get("backtracks", 0)
    counters["dual.ridge_events"] += bool(sol.diagnostics.get("ridge_used"))
    counters["dual.status." + sol.status] += 1


def _count_starts(counters, starts):
    counters["estimate.starts_attempted"] += len(starts)
    counters["estimate.starts_failed"] += sum("reason" in s for s in starts)


def _read_estimation_result(counters, result):
    counters["estimate.outer_iterations"] += result.diagnostics["outer_iterations"]
    _count_starts(counters, result.diagnostics["starts"])


def _read_estimation_error(counters, exc):
    # EstimationError carries the per-start outcomes of a fit that failed
    starts = getattr(exc, "diagnostics", None)
    if isinstance(starts, list):
        _count_starts(counters, starts)


def _read_mc_rows(counters, rows):
    counters["simulate.failures"] += sum(r["failures"] for r in rows)
    counters["simulate.unreliable_cells"] += sum(bool(r["unreliable"]) for r in rows)


# (module, function or Class.method, on_call, on_return, on_error)
LAYERS = (
    ("families", "DivergenceFamily.psi", _count_elements, None, None),
    ("families", "DivergenceFamily.psi_d1", _count_elements, None, None),
    ("families", "DivergenceFamily.psi_d2", _count_elements, None, None),
    ("families", "DivergenceFamily.strictly_feasible", _count_elements, None, None),
    ("models", "MomentModel.g_values", None, None, None),
    ("models", "MomentModel.jac_values", None, None, None),
    ("models", "MomentModel.check_theta", None, None, None),
    ("models", "load_csv", None, None, None),
    ("dual", "solve_inner", None, _read_dual_solution, None),
    ("dual", "chi2_closed_form", None, None, None),
    ("estimate", "estimate", None, _read_estimation_result, _read_estimation_error),
    ("estimate", "profile_objective", None, None, None),
    ("estimate", "variance_blocks", None, None, None),
    ("inference", "test_model", None, None, None),
    ("inference", "test_theta_simple", None, None, None),
    ("inference", "test_theta_composite", None, None, None),
    ("inference", "confidence_region", None, None, None),
    ("inference", "power_approx", None, None, None),
    ("distributions", "chi2_quantile", None, None, None),
    ("distributions", "chi2_cdf", None, None, None),
    ("distributions", "normal_cdf", None, None, None),
    ("simulate", "generate", None, None, None),
    ("simulate", "mc_power", None, _read_mc_rows, None),
    ("simulate", "approx_power_curve", None, None, None),
    ("simulate", "write_power_csv", None, None, None),
    ("cli", "main", None, None, None),
)

LAYER_NAMES = tuple(f"{mod}.{qual}" for mod, qual, *_ in LAYERS)
COUNTED = tuple(name for name, layer in zip(LAYER_NAMES, LAYERS) if layer[2])
STATUSES = ("converged", "converged-boundary", "unbounded", "max-iterations")

# (name, unit, better): every per-layer metric a traced run reports
CATALOGUE = (
    tuple((f"{name}.calls", "count", "lower") for name in LAYER_NAMES)
    + tuple((f"{name}.self_ms", "ms", "lower") for name in LAYER_NAMES)
    + tuple((f"{name}.elements", "count", "lower") for name in COUNTED)
    + (("families.bytes_computed", "B", "lower"),
       ("models.MomentModel.g_values.per_solve", "count", "lower"),
       ("dual.newton_steps", "count", "lower"),
       ("dual.backtracks", "count", "lower"),
       ("dual.ridge_events", "count", "lower"))
    + tuple((f"dual.status.{s}", "count", "higher" if s == "converged" else "lower")
            for s in STATUSES)
    + (("dual.newton_steps_per_solve", "count", "lower"),
       ("dual.useful_frac", "frac", "higher"),
       ("estimate.outer_iterations", "count", "lower"),
       ("estimate.starts_attempted", "count", "lower"),
       ("estimate.starts_failed", "count", "lower"),
       ("estimate.solves_per_fit", "count", "lower"),
       ("simulate.failures", "count", "lower"),
       ("simulate.unreliable_cells", "count", "lower"),
       ("trace.spans", "count", "lower"),
       ("trace.untraced_s", "s", "lower"),
       ("trace.traced_s", "s", "lower"),
       ("trace.overhead_frac", "frac", "lower"))
)


class Tracer:
    """Spans and counters of one traced pass over the benchmark operations."""

    def __init__(self):
        self.names = [ROOT, *LAYER_NAMES]
        self.parent = array("q")
        self.name = array("H")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.counters = Counter()
        self._patches = []
        self._root = self._wrap(ROOT, lambda fn, *args: fn(*args), None, None, None)

    # ----- installing -------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "phidiv" or n.startswith("phidiv.")]
        for (mod, qual, on_call, on_return, on_error), name in zip(LAYERS, LAYER_NAMES):
            home = sys.modules["phidiv." + mod]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, attr, self._wrap(name, cls.__dict__[attr],
                                                  on_call, on_return, on_error))
                continue
            original = getattr(home, qual)
            wrapped = self._wrap(name, original, on_call, on_return, on_error)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def _wrap(self, name, fn, on_call, on_return, on_error):
        name_id = self.names.index(name)
        counters, stack, end, clock = self.counters, self.stack, self.end, time.perf_counter
        add_parent, add_name, add_op = self.parent.append, self.name.append, self.op.append
        add_start, add_end = self.start.append, self.end.append

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(counters, name, args)
            sid = len(end)
            add_parent(stack[-1])
            add_name(name_id)
            add_op(self.current_op)
            add_end(0.0)
            stack.append(sid)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counters, exc)
                raise
            finally:
                end[sid] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, fn, *args):
        """Call fn(*args) as the next benchmark op, inside a root span."""
        self.current_op += 1
        return self._root(fn, *args)

    # ----- reading --------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.parent, dtype=np.int64).copy(),
                np.frombuffer(self.name, dtype=np.uint16).copy(),
                np.frombuffer(self.end, dtype=np.float64)
                - np.frombuffer(self.start, dtype=np.float64))

    def work(self):
        """Exact work counts: calls per layer plus the counters.

        These are a function of the inputs alone, so two passes over the
        same operations must give identical dictionaries.
        """
        _, name, _ = self._arrays()
        calls = np.bincount(name, minlength=len(self.names))
        out = {f"{n}.calls": int(c) for n, c in zip(self.names, calls)}
        out.update({k: int(v) for k, v in self.counters.items()})
        return out

    def metrics(self):
        """Per-layer metrics of CATALOGUE, except the trace.* timings."""
        parent, name, dur = self._arrays()
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_s = np.bincount(name, weights=dur - covered, minlength=len(self.names))
        work = self.work()
        c = Counter(work)
        out = dict(work)
        for n, s in zip(self.names, self_s):
            out[f"{n}.self_ms"] = float(s) * 1e3
        out["families.bytes_computed"] = BYTES_PER_ELEMENT * sum(
            c[f"{n}.elements"] for n in COUNTED)
        solves = c["dual.solve_inner.calls"]
        fits = c["estimate.estimate.calls"]
        out["models.MomentModel.g_values.per_solve"] = \
            c["models.MomentModel.g_values.calls"] / solves if solves else 0.0
        out["dual.newton_steps_per_solve"] = c["dual.newton_steps"] / solves if solves else 0.0
        out["dual.useful_frac"] = c["dual.status.converged"] / solves if solves else 0.0
        out["estimate.solves_per_fit"] = self._solves_in_fits(parent, name) / fits if fits else 0.0
        out["trace.spans"] = int(dur.size)
        for metric, _, _ in CATALOGUE:
            out.setdefault(metric, 0)
        return out

    def _solves_in_fits(self, parent, name):
        est = self.names.index("estimate.estimate")
        solve = self.names.index("dual.solve_inner")
        names = name.tolist()
        inside = [False] * len(names)
        count = 0
        # a span is always allocated after its parent, so one forward pass works
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                inside[i] = inside[p] or names[p] == est
            count += inside[i] and names[i] == solve
        return count

    def write(self, path):
        """Save every span: parent index, layer name, op id, start, end."""
        start = np.frombuffer(self.start, dtype=np.float64)
        t0 = start[0] if start.size else 0.0
        np.savez_compressed(
            path, names=np.array(self.names),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.uint16),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=start - t0, end=np.frombuffer(self.end, dtype=np.float64) - t0)
