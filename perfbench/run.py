"""tritensor benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One process, one client, closed loop, no threads, with BLAS
pinned to one thread.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics.  The last line of standard output is the result
object; the line before it (prefixed ``perfbench-report``) records the
environment, sample counts, failures by input class, the outcome of the
workload's defect probe (inputs held out of the timed rounds because a
known defect shows through them), p99 latency where a run has at least
1000 items, and a fixed numpy-only calibration timing.
Reports and spans are also written to ``.perfbench_out/``.  See
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 8
# the library import runs in a fresh process, ~0.3 s of wall time per
# repeat, so only the first set-ups time it
IMPORT_REPEATS = 5
# a run stops at the first round boundary after this many seconds even if
# its minimum round count is not met, so it always exits well within 180 s
HARD_LIMIT_S = 120.0
P99_MIN_ITEMS = 1000


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("analyze", "audit", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class Tally:
    """A run's executions, aggregated as they happen so that memory stays flat.

    ``best`` keeps, per (traced, input), the fastest time of each part of
    the item: each library call in order, then the glue between them.
    ``shared_best`` keeps, per (traced, key), the fastest time of a part
    that several inputs repeat with the same work, such as one module's
    import in every CLI process; ``shared_keys`` lists each input's.
    """

    def __init__(self) -> None:
        self.best: dict = {}
        self.shared_best: dict = {}
        self.shared_keys: dict = {}
        self.wall_ns = array("q")  # untraced latencies, in run order
        self.attempted = 0
        self.failed = 0
        self.by_class: Counter = Counter()
        self.failures: dict = {}  # class -> Counter of reasons
        self.count_items: set = set()  # traced item ids behind the count metrics

    def add(self, traced: bool, pos: tuple, klass: str, latency_ns: int, parts: list,
            shared: dict, reason) -> None:
        key = (traced, pos)
        self.shared_keys.setdefault(key, tuple(shared))
        for part, ns in shared.items():
            k = (traced, part)
            self.shared_best[k] = min(self.shared_best.get(k, ns), ns)
        prev = self.best.get(key)
        if prev is None or len(prev) != len(parts):
            # the same input always makes the same calls; if not, keep the faster pass
            if prev is None or sum(parts) < sum(prev):
                self.best[key] = parts
        else:
            self.best[key] = [min(p, q) for p, q in zip(prev, parts)]
        if not traced:
            self.wall_ns.append(latency_ns)
        self.attempted += 1
        self.by_class[klass] += 1
        if reason is not None:
            self.failed += 1
            self.failures.setdefault(klass, Counter())[reason] += 1

    def estimate_ms(self, traced: bool) -> np.ndarray:
        """Per input, the sum of its parts' fastest times, in ms."""
        return np.array([
            sum(p) + sum(self.shared_best[(t, k)] for k in self.shared_keys[(t, pos)])
            for (t, pos), p in self.best.items() if t == traced
        ]) / 1e6


def calibration_ms() -> float:
    """Median ms per 1000 calls of a fixed 3x9 SVD: a host-noise diagnostic only."""
    m = np.arange(27.0).reshape(3, 9) / 7.0 + np.eye(3, 9)
    blocks = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(1000):
            np.linalg.svd(m, compute_uv=False)
        blocks.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(blocks)


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy releases
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tritensor").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _timed_pass(wl, tracer, items, first_id: int, traced: bool):
    """Run every item of one round once; returns outputs, latencies and laps.

    An item's laps are its library calls' durations, then the glue
    between them, so that they add up to its latency.
    """
    now = time.perf_counter_ns
    outs, lats, laps = [], [], []
    tracer.enabled = traced
    for n, item in enumerate(items):
        tracer.begin_item(first_id + n)
        t0 = now()
        err = None
        try:
            out = wl.run_item(item, tracer)
        except Exception as exc:  # an item that raises is a failed item
            out = exc
            err = type(exc).__name__
        t1 = now()
        tracer.end_item(t0, t1, err)
        outs.append(out)
        lats.append(t1 - t0)
        laps.append([*tracer.laps, t1 - t0 - sum(tracer.laps)])
    if traced:
        wl.after_round(items, tracer)
    tracer.enabled = False
    return outs, lats, laps


def run_rounds(wl, tracer, tally: Tally, seconds: float, trace: bool, set_up) -> int:
    """The measured loop: whole rounds until ``seconds`` have passed.

    With tracing, each round runs twice on the same inputs, untraced and
    then traced, so the two passes differ only by the tracing.  Between
    rounds it calls ``set_up`` SETUP_REPEATS - 1 times, spread evenly over
    the run and left out of its ``seconds``.  Returns the number of rounds.
    """
    min_rounds = wl.count_rounds if trace else 2
    item_id = 0
    t_start = time.perf_counter()
    paused = 0.0
    set_ups = 1
    r = 0
    while True:
        if set_ups < SETUP_REPEATS and time.perf_counter() - t_start - paused >= set_ups * seconds / SETUP_REPEATS:
            t0 = time.perf_counter()
            set_up(set_ups)
            set_ups += 1
            paused += time.perf_counter() - t0
        items = wl.round_items(r)
        for traced in ((False, True) if trace else (False,)):
            outs, lats, laps = _timed_pass(wl, tracer, items, item_id, traced)
            reasons = wl.check_round(items, outs)
            for n, (item, out, lat, lap, reason) in enumerate(zip(items, outs, lats, laps, reasons)):
                parts, shared = wl.parts(out, lap)
                tally.add(traced, (r % wl.pool_rounds, n), wl.item_class(item), lat, parts, shared, reason)
                if traced and r < wl.count_rounds:
                    tally.count_items.add(item_id)
                item_id += 1
        r += 1
        elapsed = time.perf_counter() - t_start - paused
        if elapsed >= seconds and (r >= min_rounds or time.perf_counter() - _START >= HARD_LIMIT_S):
            for i in range(set_ups, SETUP_REPEATS):
                set_up(i)
            return r


def library_import(env: dict, clock) -> None:
    """Time ``import tritensor`` (numpy already loaded) in a fresh process,
    one set-up step per module from ``-X importtime``."""
    import workloads  # importable once main() has set sys.path

    code = "import sys, numpy; print('perfbench-mark', file=sys.stderr); import tritensor"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    for key, ns in workloads.import_self_ns(proc.stderr.split("perfbench-mark", 1)[1]).items():
        clock.add(key, ns)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tritensor" / "__init__.py").is_file():
        print(f"perfbench: no tritensor sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import warnings

    import tritensor

    import spans as tracing
    import workloads
    if Path(tritensor.__file__).resolve().parent != (SRC / "tritensor").resolve():
        print(f"perfbench: imported tritensor from {tritensor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # extreme-magnitude inputs make the library overflow; keep the warnings
    # (and their printing cost) out of the timings
    warnings.simplefilter("ignore")
    np.seterr(all="ignore")

    OUT_DIR.mkdir(exist_ok=True)
    env = environment(args.seed)
    calib_start = calibration_ms()
    tracer = tracing.Tracer()
    wl = workloads.WORKLOADS[args.workload](ROOT, OUT_DIR)
    clock = workloads.SetupClock()
    child_env = workloads.child_env(ROOT)

    def set_up(i: int):
        if i < IMPORT_REPEATS:
            library_import(child_env, clock)
        wl.setup(args.seed, tracer, clock)

    # the first set-up is the one the run uses; the host's slow phases last
    # up to seconds, so the repeats that time it are spread over the run
    tracer.enabled = bool(args.trace)
    set_up(0)
    tracer.enabled = False
    wl.after_setup()

    tally = Tally()
    rounds = run_rounds(wl, tracer, tally, args.seconds, bool(args.trace), set_up)
    known = workloads.KNOWN_DEFECTS[args.workload]
    probe = wl.defect_probe()
    probe_failures: dict = {}
    for klass, reason in probe:
        if reason is not None:
            probe_failures.setdefault(klass, Counter())[reason] += 1
    probe_failed = sum(n for c in probe_failures.values() for n in c.values())
    probe_unexpected = sum(1 for k, r in probe if r is not None and r not in known.get(k, {}))
    setup_s = clock.total_s()
    import_s = sum(ns for key, ns in clock.best.items() if key[0] == "import") / 1e9
    calib_end = calibration_ms()

    est_ms = tally.estimate_ms(traced=False)
    wall_ms = np.frombuffer(tally.wall_ns, dtype=np.int64) / 1e6
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (est_ms.size / (est_ms.sum() / 1e3), "1/s"),
        "latency_p50_ms": (float(np.percentile(est_ms, 50)), "ms"),
        "latency_p90_ms": (float(np.percentile(est_ms, 90)), "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_repeats": SETUP_REPEATS,
        "import_repeats": IMPORT_REPEATS,
        "library_import_s": import_s,
        "setup_steps": len(clock.best),
        "rounds": rounds,
        "items_attempted": tally.attempted,
        "items_failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "attempted_by_class": dict(tally.by_class),
        "failures_by_class": {k: dict(v) for k, v in tally.failures.items()},
        "defect_probe": {
            "inputs": len(probe),
            "failed": probe_failed,
            "failed_frac": probe_failed / len(probe) if probe else 0.0,
            "failures_by_class": {k: dict(v) for k, v in probe_failures.items()},
            "failed_outside_known_defects": probe_unexpected,
            "known_defects": known,
        },
        "distinct_inputs": int(est_ms.size),
        "wall": {
            "samples": int(wall_ms.size),
            "items_per_s": wall_ms.size / (wall_ms.sum() / 1e3),
            "latency_p50_ms": float(np.percentile(wall_ms, 50)),
            "latency_p90_ms": float(np.percentile(wall_ms, 90)),
            "latency_p99_ms": float(np.percentile(wall_ms, 99)) if wall_ms.size >= P99_MIN_ITEMS else None,
        },
        "calibration_svd_ms_per_1000": [calib_start, calib_end],
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        overhead = tally.estimate_ms(traced=True).sum() / est_ms.sum() - 1.0
        metrics = tracing.layer_metrics(tracer.spans, tally.count_items, overhead)
        report["count_items"] = len(tally.count_items)
        report["per_layer"] = {k: v[0] for k, v in metrics.items()}
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl.gz")
    else:
        metrics = end_to_end
    print("perfbench-report " + json.dumps(report))
    # the untraced per-execution latencies, in run order, go to the file only
    report["latencies_ns"] = tally.wall_ns.tolist()
    report["estimated_latency_ms"] = est_ms.tolist()
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report), encoding="utf-8")
    print(json.dumps({
        "correct": tally.failed == 0 and probe_unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
