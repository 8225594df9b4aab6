"""In-memory spans around the benchmark's calls into tritensor.

A span is (span id, parent id, item id, name, start ns, end ns, error,
info).  Names are "<layer>.<function>" for library calls, "item" for one
workload item and "probe.<what>" for the CLI start-up probes.  Nothing is
written until the run ends.  Traced or not, every call's duration is also
appended to ``laps``, which the run reads and clears per item; untraced,
that is all a call adds to the library's own time.  A variational solve
appends one lap per iteration (see ``Tracer.solve``).
"""

from __future__ import annotations

import gzip
import json
import time

import numpy as np

_now = time.perf_counter_ns


class LapClock:
    """A solver's ``history_out`` that keeps only when each entry came.

    The solvers append once per iteration; the copied values are dropped.
    """

    __slots__ = ("times",)

    def __init__(self) -> None:
        self.times: list[int] = []

    def append(self, _values) -> None:
        self.times.append(_now())


class Tracer:
    """Records spans while ``enabled``; the run toggles it per pass."""

    def __init__(self) -> None:
        self.enabled = False
        self.laps: list[int] = []  # ns per call since the last begin_item
        self.spans: list[tuple] = []
        self._next_id = 1
        self._item: int | None = None
        self._parent: int | None = None

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def begin_item(self, item: int) -> None:
        """Open an item: later spans get it as parent until end_item."""
        self.laps.clear()
        if self.enabled:
            self._item = item
            self._parent = self._new_id()

    def end_item(self, t0: int, t1: int, error: str | None) -> None:
        if self.enabled:
            self.spans.append((self._parent, None, self._item, "item", t0, t1, error, None))
            self._item = self._parent = None

    def record(self, name: str, t0: int, t1: int, error=None, info=None) -> None:
        if self.enabled:
            self.spans.append(
                (self._new_id(), self._parent, self._item, name, t0, t1, error, info)
            )

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn``, time it and, when tracing, record a span named ``name``."""
        t0 = _now()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            t1 = _now()
            self.laps.append(t1 - t0)
            self.record(name, t0, t1, type(exc).__name__)
            raise
        t1 = _now()
        self.laps.append(t1 - t0)
        self.record(name, t0, t1)
        return out

    def solve(self, name: str, fn, a, restarts: int):
        """Run a variational solver and split its time into iterations.

        The solver's public ``history_out`` argument gets a ``LapClock``,
        so each iteration is one lap, and so are the solver's work before
        its first iteration and after its last.  The solver still copies
        its per-restart values each iteration (12 floats here), which costs
        about 1% of a solve.  When tracing, the span records the iteration
        count.
        """
        lap_clock = LapClock()
        error = None
        t0 = _now()
        try:
            out = fn(a, restarts=restarts, history_out=lap_clock)
        except Exception as exc:
            error = exc
        t1 = _now()
        stamps = [t0, *lap_clock.times, t1]
        self.laps.extend(q - p for p, q in zip(stamps, stamps[1:]))
        info = {
            "iters": len(lap_clock.times),
            "restarts": restarts,
            "converged": 0 if error else out.starts_converged,
        }
        self.record(name, t0, t1, error and type(error).__name__, info)
        if error is not None:
            raise error
        return out

    def write(self, path) -> None:
        keys = ("id", "parent", "item", "name", "start_ns", "end_ns", "error", "info")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of traced rounds

_US_P50 = (
    "core.hyper3", "core.rotate", "core.random_rotation",
    "symmetry.classify", "symmetry.make_fixture",
    "spectral.l_eigen", "spectral.l_inverse", "spectral.rank_and_nullspace",
    "spectral.kernel", "varspec.invariants",
)
SOLVERS = ("max_singular_value", "max_c_eigenvalue", "max_z_eigenvalue")
_CLI_MS_P50 = {
    "cli.interp.ms_p50": "probe.interp",
    "cli.import.ms_p50": "probe.import",
    "cli.run.ms_p50": "cli.run",
    "cli.process.ms_p50": "cli.process",
}

# metrics that count work rather than time it; for a fixed seed they must
# repeat exactly, because they come from the same items in every run
COUNT_METRICS = (
    "core.calls_per_item", "spectral.singular_frac",
    *(f"varspec.{s}.{m}" for s in SOLVERS
      for m in ("iters_p50", "iters_p99", "converged_frac", "noconv_frac")),
)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, count_items: set, overhead_frac: float) -> dict:
    """Every per-layer metric as name -> (value, unit).

    Timings use all traced spans; count metrics use only the spans of
    ``count_items``, a fixed set of items for a given seed.  A layer the
    workload never calls reads 0.
    """
    dur: dict[str, list] = {}
    counted: dict[str, list] = {}
    item_ns = 0
    spectral_ns = 0
    for _sid, _parent, item, name, t0, t1, error, info in spans:
        if name == "item":
            item_ns += t1 - t0
            continue
        dur.setdefault(name, []).append(t1 - t0)
        if item is not None and name.startswith("spectral."):
            spectral_ns += t1 - t0
        if item in count_items:
            counted.setdefault(name, []).append((error, info))

    out = {}
    for name in _US_P50:
        out[f"{name}.us_p50"] = (_pct(dur.get(name, []), 50) / 1e3, "us")
    out["spectral.l_eigen.us_p99"] = (_pct(dur.get("spectral.l_eigen", []), 99) / 1e3, "us")
    core_calls = sum(len(v) for k, v in counted.items() if k.startswith("core."))
    out["core.calls_per_item"] = (_frac(core_calls, len(count_items)), "count")
    linv = counted.get("spectral.l_inverse", [])
    singular = sum(1 for error, _ in linv if error == "SingularTensor")
    out["spectral.singular_frac"] = (_frac(singular, len(linv)), "ratio")
    out["spectral.busy_frac"] = (_frac(spectral_ns, item_ns), "ratio")
    for solver in SOLVERS:
        name = f"varspec.{solver}"
        ns = dur.get(name, [])
        timed = [info["iters"] for _s, _p, _i, n, _t0, _t1, _e, info in spans if n == name]
        calls = counted.get(name, [])
        iters = [info["iters"] for _, info in calls]
        out[f"{name}.ms_p50"] = (_pct(ns, 50) / 1e6, "ms")
        out[f"{name}.ms_p99"] = (_pct(ns, 99) / 1e6, "ms")
        out[f"{name}.iters_p50"] = (_pct(iters, 50), "count")
        out[f"{name}.iters_p99"] = (_pct(iters, 99), "count")
        out[f"{name}.us_per_iter"] = (_frac(sum(ns) / 1e3, sum(timed)), "us")
        out[f"{name}.converged_frac"] = (
            _frac(sum(i["converged"] for _, i in calls), sum(i["restarts"] for _, i in calls)),
            "ratio",
        )
        out[f"{name}.noconv_frac"] = (
            _frac(sum(1 for e, _ in calls if e == "NoConvergence"), len(calls)), "ratio"
        )
    for metric, name in _CLI_MS_P50.items():
        out[metric] = (_pct(dur.get(name, []), 50) / 1e6, "ms")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out
