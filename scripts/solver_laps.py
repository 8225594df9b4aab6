"""Solver-layer laps and a golden hash, for a parent tree against this one.

Loads two source trees of the ``tritensor`` package into one process,
under the module names ``parent`` and ``change``: the tree of a git
revision (``--parent``) and the working tree's ``src/tritensor``.

Laps.  On the 32 (fixture, rotation) pairs that the ``audit`` benchmark
workload times (``make_fixture(klass, i)`` for both symmetric classes and
i < 8, each under ``random_rotation(r)`` for r < 2), every solver runs at
12 restarts, in 21 rounds, with the two trees interleaved and the one
that goes first alternating.  Each solve is split at its ``history_out``
appends (one per iteration):

- prologue: from the call to the first append, that is the gate, the
  set-up and the first iteration;
- per iteration: the mean of the laps between appends;
- epilogue: from the last append to the return, that is the merge.

Per pair and tree the fastest of each over the rounds is kept.  The
report sums the prologues, epilogues and whole solves over the pairs,
gives the median per-iteration lap and the total iteration count.

Golden hash.  One sha256 over every solve of acceptance criteria 4 and 6
(7060 solves): its ``as_dict()`` as sorted JSON, ``len(history_out)`` and
the bytes of every ``history_out`` row.  Equal hashes mean both trees
return the same results and take the same iterates.

Run from the repository root, with BLAS on one thread::

    python scripts/solver_laps.py --parent HEAD~1 --out BENCH_6.json
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import importlib.util
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # nothing written into either source tree
sys.path.insert(0, str(ROOT))
from perfbench.spans import LapClock  # noqa: E402  (a history_out of timestamps)

SOLVERS = ("max_singular_value", "max_c_eigenvalue", "max_z_eigenvalue")
RESTARTS = 12
ROUNDS = 21  # lap rounds per tree
_now = time.perf_counter_ns


def load_tree(pkg_dir: Path, name: str):
    """Import the package in ``pkg_dir`` as the top-level module ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def extract_revision(rev: str, into: Path) -> Path:
    """``src/tritensor`` of git revision ``rev``, unpacked under ``into``."""
    archive = subprocess.run(
        ["git", "archive", rev, "src/tritensor"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src" / "tritensor"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def audit_pairs(tt) -> list[np.ndarray]:
    return [
        np.asarray(tt.rotate(tt.make_fixture(klass, i), tt.random_rotation(r)))
        for klass in ("symmetric", "primarily_symmetric")
        for i in range(8)
        for r in range(2)
    ]


def laps_of(solve, a) -> tuple[int, int, float, int, int]:
    """(prologue ns, epilogue ns, mean inner lap ns, iterations, total ns)."""
    clock = LapClock()
    t0 = _now()
    solve(a, restarts=RESTARTS, history_out=clock)
    t1 = _now()
    stamps = clock.times
    inner = (stamps[-1] - stamps[0]) / (len(stamps) - 1) if len(stamps) > 1 else float("nan")
    return stamps[0] - t0, t1 - stamps[-1], inner, len(stamps), t1 - t0


def measure_laps(trees: dict, pairs) -> dict:
    names = list(trees)
    # best[name][solver][pair] = [prologue, epilogue, inner, iterations, total]
    best = {n: {s: [None] * len(pairs) for s in SOLVERS} for n in names}
    for rnd in range(ROUNDS):
        for s in SOLVERS:
            for p, a in enumerate(pairs):
                # the trees take turns solve by solve, so a slow phase of
                # the host falls on both
                for name in names if (rnd + p) % 2 == 0 else names[::-1]:
                    got = laps_of(getattr(trees[name], s), a)
                    old = best[name][s][p]
                    if old is None:
                        best[name][s][p] = list(got)
                    else:
                        if old[3] != got[3]:
                            raise RuntimeError(f"{name} {s} pair {p}: iterations vary")
                        best[name][s][p] = [min(u, v) for u, v in zip(old, got)]
    report = {}
    for s in SOLVERS:
        report[s] = {}
        for name in names:
            rows = best[name][s]
            report[s][name] = {
                "iterations": sum(r[3] for r in rows),
                "prologue_us_sum": round(sum(r[0] for r in rows) / 1e3, 1),
                "per_iteration_us_p50": round(statistics.median(r[2] for r in rows) / 1e3, 2),
                "epilogue_us_sum": round(sum(r[1] for r in rows) / 1e3, 1),
                "solve_ms_sum": round(sum(r[4] for r in rows) / 1e6, 3),
            }
        if len(names) == 2:
            before, after = (report[s][n] for n in names)
            report[s]["change_over_parent"] = {
                key: round(after[key] / before[key], 3)
                for key in before if key != "iterations"
            }
    return report


def golden_solves(tt):
    """(solver, tensor, restarts, seed) for every solve of criteria 4 and 6."""
    fixtures = [tt.make_fixture("symmetric", s) for s in range(10)]
    fixtures += [tt.make_fixture("primarily_symmetric", s) for s in range(10)]
    for a in fixtures:
        for r in range(-1, 100):
            rot = a if r < 0 else tt.rotate(a, tt.random_rotation(r))
            for s in SOLVERS:
                yield s, rot, 12, 0
    for seed in range(200):
        a = tt.make_fixture("symmetric", seed)
        for s in SOLVERS:
            yield s, a, 24, seed
    for seed in range(200):
        a = tt.make_fixture("right_symmetric", seed)
        for s in SOLVERS[:2]:
            yield s, a, 24, seed


def golden_hash(tt) -> dict:
    digest = hashlib.sha256()
    count = 0
    for s, a, restarts, seed in golden_solves(tt):
        history = []
        triple = getattr(tt, s)(a, restarts=restarts, seed=seed, history_out=history)
        digest.update(json.dumps(triple.as_dict(), sort_keys=True).encode())
        digest.update(str(len(history)).encode())
        for row in history:
            digest.update(np.ascontiguousarray(row).tobytes())
        count += 1
    return {"sha256": digest.hexdigest(), "solves": count}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent tree")
    parser.add_argument("--out", type=Path, help="write the report to this JSON file")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        trees = {
            "parent": load_tree(extract_revision(args.parent, Path(tmp)), "parent"),
            "change": load_tree(ROOT / "src" / "tritensor", "change"),
        }
    parent_rev = subprocess.run(
        ["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    pairs = audit_pairs(trees["parent"])
    for tree in trees.values():  # warm-up: imports, caches, lazy set-up
        laps_of(tree.max_z_eigenvalue, pairs[0])
    report = {
        "script": "scripts/solver_laps.py",
        "environment": environment(),
        "parent": parent_rev,
        "change": "working tree",
        "pairs": len(pairs),
        "restarts": RESTARTS,
        "rounds": ROUNDS,
        "solvers": measure_laps(trees, pairs),
    }
    report["golden"] = {name: golden_hash(tree) for name, tree in trees.items()}
    report["golden"]["equal"] = (
        report["golden"]["parent"]["sha256"] == report["golden"]["change"]["sha256"]
    )
    text = json.dumps(report, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
