"""Golden hashes, layer laps and solver laps of a parent tree against this one.

Loads ``src/tritensor`` of a git revision (``--parent``) and of the
working tree into one process, as the modules ``parent`` and ``change``,
and reports five parts:

- ``closed_form_golden``: one sha256 per tree over the fixtures of every
  class, the rotations, the ``classify`` verdicts and the
  ``eig_decompose_partial`` results, the numeric closed-form layers (or
  the errors they raise) on the fixtures and on Gaussian tensors at norms
  from 1e-40 to 1e160, and the CLI's ``fixture``, ``classify`` and
  ``decompose`` reports, fed through standard input;
- ``solver_golden``: the 2420 singular, 2420 C and 2220 Z solves of
  acceptance criteria 4 and 6 compared by value, since the enumerations
  find eta_1, mu_1 and nu_1 of these tensors without iterating: equal
  within 1e-12 * max(1, |value|), or listed under ``rose`` (a maximum
  the parent missed) or ``fell`` (a failure), with the count of each
  ``method``.  A solve's index runs over criterion 4's 20 fixtures x 101
  orientations (unrotated first), then criterion 6's 200 symmetric
  fixtures, then (singular and C only) its 200 right-side symmetric ones;
- ``layers``: per closed-form layer and tree, the median and the sum over
  64 inputs of the fastest of 41 calls, and one sha256 over the outputs;
  ``analyze_item`` sums the layers that one item of the ``analyze``
  benchmark workload calls;
- ``solvers``: at 12 and at 64 restarts, per solver and tree, on the 32
  (fixture, rotation) pairs that the ``audit`` benchmark workload times,
  the fastest of 21 rounds of each whole solve and of its prologue (from
  the call to the first ``history_out`` append: gate, set-up and first
  iteration), mean lap between appends and epilogue (from the last
  append: the merge), and the iteration count.  The lap parts cover the
  solves that iterate; an enumerated solve has only its whole time.  The
  memo of C and Z enumerations is cleared before each timed solve, and
  ``audit_item`` times eta_1, mu_1 and nu_1 in turn from a cleared memo,
  as one audit item solves them: on these symmetric pairs mu_1 and nu_1
  read the Z enumeration that eta_1 filled;
- ``fallback``: at 12 and 64 restarts of a parent that takes them, the
  C and Z solves of tensors whose enumeration cannot certify (the zero
  tensor, and ``3 v (x) v (x) v`` and, for C, ``2 x (x) y (x) y``, each
  plus 0, 1e-12, 1e-9 and 1e-6 of a unit-norm fixture), compared by
  value as above, with the fastest of 3 whole solves per tree;
- ``bounded``: the singular solves of tensors with no symmetric pair
  (criterion 8's 20 Gaussian tensors, the Levi-Civita tensor and 200
  Gaussian tensors from ``default_rng(11)``): per tensor the change's
  value, its gap (upper_bound - value) / value and the evaluations of its
  branch and bound, the value relative to the parent's at 12 and at 64
  restarts, and the fastest of 3 whole solves of the change and of the
  parent at each restart count.  It is equal when every Gaussian value is
  within 1e-12 relative of the parent's at 64 restarts.

A tree is called with only the keyword arguments its solvers accept: a
parent's ``restarts`` and ``seed``, a change's ``restarts`` (ignored).

The parent tree builds the lap inputs.  The trees take turns call by
call and the one that goes first alternates, so a slow phase of the host
falls on both; a case whose output (for a solve, its iteration count)
varies between rounds stops the run.  Equal hashes mean both trees return
the same bits.  The report is printed and written to ``--out``, and then
the exit code is 1 if any hash differs or any value fell, fallback
solves included.  Run from the repository root, with BLAS on one thread::

    python scripts/compare.py --parent HEAD~1 --out BENCH_12.json
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import itertools
import json
import inspect
import math
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
# the solver lap of eta_1, mu_1 and nu_1 in turn, as one audit item runs them
AUDIT_ITEM = "audit_item"
RESTARTS = 12
# the restart counts of the solver laps
LAP_RESTARTS = (12, 64)
# a C or Z value counts as equal within this, relative to max(1, |value|)
VALUE_TOL = 1e-12
LAYER_ROUNDS = 41
SOLVER_ROUNDS = 21
# whole solves of the fallback and bounded parts
FALLBACK_ROUNDS = 3
# noise levels of the fallback inputs, times a unit-norm fixture
FALLBACK_NOISE = (0.0, 1e-12, 1e-9, 1e-6)
SIDES = ("right", "left", "central")
# the reports run on every fixture the CLI prints, read from standard input
REPORTS = (
    ["classify", "-"],
    ["classify", "-", "--json"],
    *(["decompose", "-", "--side", side] for side in SIDES),
    *(["decompose", "-", "--side", side, "--json"] for side in SIDES),
)
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


def sha256_of(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(record if isinstance(record, bytes) else record.encode())
    return digest.hexdigest()


def record_of(out) -> bytes:
    """The bits of one library result: the bytes of every array in it, or
    the repr of the error raised."""
    if isinstance(out, Exception):
        return repr(out).encode()
    if isinstance(out, np.ndarray):
        return np.ascontiguousarray(out).tobytes()
    if isinstance(out, (tuple, list)):
        return b"|".join(record_of(part) for part in out)
    if hasattr(out, "__dataclass_fields__"):
        return record_of([getattr(out, name) for name in out.__dataclass_fields__])
    return repr(out).encode()


def _library_records(tt):
    rotations = [tt.random_rotation(r) for r in range(100)]
    fixtures = [tt.make_fixture(k, seed) for k in tt.FIXTURE_CLASSES for seed in range(200)]
    for a in fixtures:
        yield np.ascontiguousarray(a).tobytes()
        for tol in (1e-10, 1e-8):
            yield json.dumps(tt.classify(a, tol).as_dict(), sort_keys=True)
        for side in SIDES:
            try:
                yield json.dumps(tt.eig_decompose_partial(a, side).as_dict())
            except tt.TensorError as exc:
                yield repr(exc)
    for p in rotations:
        yield np.ascontiguousarray(p).tobytes()
    gaussian = np.random.default_rng(0).standard_normal((100, 3, 3, 3))
    scaled = [10.0**e * g for e in range(-40, 161, 20) for g in gaussian]
    layers = (
        tt.invariants, tt.kernel, tt.kernel_triple, tt.l_eigen, tt.l_inverse,
        tt.rank_and_nullspace, tt.rotate,
    )
    for n, a in enumerate([*fixtures, *gaussian, *scaled]):
        for layer in layers:
            try:
                out = layer(a, rotations[n % 100]) if layer is tt.rotate else layer(a)
            except tt.TensorError as exc:
                out = exc
            yield record_of(out)


def _run(cli, argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.run(argv)`` with ``stdin`` as input."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _cli_records(tt, cli):
    for klass in ("levi-civita", *(k.replace("_", "-") for k in tt.FIXTURE_CLASSES)):
        for seed in range(3):
            argv = ["fixture", klass, "--seed", str(seed)]
            _, tensor, _ = result = _run(cli, argv)
            yield json.dumps([argv, result])
            for report in REPORTS:
                yield json.dumps([report, _run(cli, report, tensor)])


def closed_form_golden(tt, cli) -> str:
    return sha256_of(itertools.chain(_library_records(tt), _cli_records(tt, cli)))


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


def solve(tt, solver: str, a, **kwargs):
    """``tt``'s solver on ``a`` with those of ``kwargs`` that it accepts."""
    fn = getattr(tt, solver)
    accepted = inspect.signature(fn).parameters
    return fn(a, **{key: value for key, value in kwargs.items() if key in accepted})


def by_value(trees: dict, solves: list) -> dict:
    """The solves of both trees compared by value."""
    rose, fell, methods = [], [], {}
    for n, (s, a, restarts, seed) in enumerate(solves):
        before = solve(trees["parent"], s, a, restarts=restarts, seed=seed)
        after = solve(trees["change"], s, a, restarts=restarts, seed=seed)
        methods[after.method] = methods.get(after.method, 0) + 1
        gap = after.value - before.value
        if abs(gap) > VALUE_TOL * max(1.0, abs(before.value)):
            case = {"solve": n, "restarts": restarts, "seed": seed, "method": after.method,
                    "parent": before.value, "change": after.value}
            (rose if gap > 0.0 else fell).append(case)
    return {"solves": len(solves), "methods": methods, "rose": rose, "fell": fell,
            "equal": not fell}


def solver_golden(trees: dict) -> dict:
    solves = list(golden_solves(trees["parent"]))
    out = {s: by_value(trees, [case for case in solves if case[0] == s]) for s in SOLVERS}
    out["equal"] = all(part["equal"] for part in out.values())
    return out


def layer_inputs(tt) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """The 64 (tensor, rotation, rotation seed) inputs, from one seeded stream."""
    rng = np.random.default_rng(8)
    raws = [rng.standard_normal((3, 3, 3)) for _ in range(28)]
    raws += [tt.make_fixture(k, 8) for k in tt.FIXTURE_CLASSES]
    raws.append(tt.levi_civita())
    for rank in range(3):
        left = np.linalg.qr(rng.standard_normal((3, 3)))[0][:, :rank]
        right = np.linalg.qr(rng.standard_normal((9, 9)))[0][:, :rank]
        raws.append((left @ right.T).reshape(3, 3, 3))
    for norm in np.geomspace(1e-12, 1e12, 18):
        g = rng.standard_normal((3, 3, 3))
        raws.append(g * (norm / np.linalg.norm(g)))
    return [
        (np.array(a, dtype=float), tt.random_rotation(1000 + n), 1000 + n)
        for n, a in enumerate(raws)
    ]


def audit_pairs(tt) -> list[np.ndarray]:
    return [
        np.asarray(tt.rotate(tt.make_fixture(klass, i), tt.random_rotation(r)))
        for klass in ("symmetric", "primarily_symmetric")
        for i in range(8)
        for r in range(2)
    ]


def _tensor(a, p, seed):
    return (a,)


# layer -> (library function, its arguments from (a, p, seed), and what
# runs untimed just before: "cold" clears the SVD memo, "warm" fills it
# with a's SVD by calling l_eigen)
LAYERS = {
    "hyper3": ("hyper3", _tensor, None),
    "classify": ("classify", _tensor, None),
    "kernel": ("kernel", _tensor, None),
    "kernel_triple": ("kernel_triple", _tensor, None),
    "l_eigen_cold": ("l_eigen", _tensor, "cold"),
    "l_eigen_warm": ("l_eigen", _tensor, "warm"),
    "l_inverse": ("l_inverse", _tensor, "warm"),
    "rank_and_nullspace": ("rank_and_nullspace", _tensor, "warm"),
    "invariants": ("invariants", _tensor, None),
    "rotate": ("rotate", lambda a, p, seed: (a, p), None),
    "random_rotation": ("random_rotation", lambda a, p, seed: (seed,), None),
}
ANALYZE_ITEM = (
    "hyper3", "classify", "kernel", "l_eigen_cold", "l_inverse",
    "rank_and_nullspace", "invariants", "rotate",
)


def run_layer(tt, layer: str, case) -> tuple[tuple[int], bytes]:
    """((ns,), record of the output or of the library error raised) of one timed call."""
    name, args_of, memo = LAYERS[layer]
    if memo == "cold":
        tt.spectral._svd_of_bytes.cache_clear()
    elif memo == "warm":
        tt.l_eigen(case[0])
    fn, args = getattr(tt, name), args_of(*case)
    t0 = _now()
    try:
        out = fn(*args)
    except tt.TensorError as exc:  # an error is an output too: timed and hashed
        out = exc
    return (_now() - t0,), record_of(out)


def clear_memos(tt) -> None:
    """Empty the memo of C and Z enumerations, which a parent older than
    it lacks."""
    memo = getattr(tt.varspec, "_pairs_of_bytes", None)
    if memo is not None:
        memo.cache_clear()


def run_solver(tt, solver: str, a, restarts: int = RESTARTS) -> tuple[tuple, int]:
    """((prologue ns, epilogue ns, mean inner lap ns, total ns), iterations)
    from a cleared memo; the parts are NaN for a solve without iterations
    and for ``AUDIT_ITEM``, which runs the three solvers in turn."""
    clear_memos(tt)
    clock = LapClock()
    t0 = _now()
    for name in SOLVERS if solver == AUDIT_ITEM else (solver,):
        solve(tt, name, a, restarts=restarts, history_out=clock)
    t1 = _now()
    stamps = clock.times
    if not stamps or solver == AUDIT_ITEM:
        return (math.nan, math.nan, math.nan, t1 - t0), len(stamps)
    inner = (stamps[-1] - stamps[0]) / (len(stamps) - 1) if len(stamps) > 1 else math.nan
    return (stamps[0] - t0, t1 - stamps[-1], inner, t1 - t0), len(stamps)


def fastest(trees: dict, groups, cases: list, rounds: int, run) -> tuple[dict, dict]:
    """Per tree, group and case: the fastest of ``rounds`` timings of
    ``run(tt, group, case) -> (times, output)``, entry by entry, and the
    output, which must be the same in every round."""
    names = list(trees)
    best = {n: {g: [None] * len(cases) for g in groups} for n in names}
    outputs = {n: {g: [None] * len(cases) for g in groups} for n in names}
    for rnd in range(rounds):
        for g in groups:
            for i, case in enumerate(cases):
                # the trees take turns call by call, so a slow phase of the
                # host falls on both
                for name in names if (rnd + i) % 2 == 0 else names[::-1]:
                    times, out = run(trees[name], g, case)
                    if rnd == 0:
                        best[name][g][i], outputs[name][g][i] = times, out
                    elif out != outputs[name][g][i]:
                        raise RuntimeError(f"{name} {g} case {i}: output varies between rounds")
                    else:
                        best[name][g][i] = tuple(map(min, best[name][g][i], times))
    return best, outputs


def compared(stats: dict) -> dict:
    """``stats[group][tree]`` with each group's change over parent added."""
    for by_tree in stats.values():
        before, after = by_tree["parent"], by_tree["change"]
        by_tree["change_over_parent"] = {
            key: round(after[key] / before[key], 3)
            for key in before if key != "iterations" and before[key] and after[key] is not None
        }
    return stats


def layer_laps(trees: dict, inputs: list, rounds: int = LAYER_ROUNDS) -> dict:
    best, outputs = fastest(trees, LAYERS, inputs, rounds, run_layer)
    ns = {n: {layer: [t for (t,) in rows] for layer, rows in best[n].items()} for n in trees}
    for n in trees:
        ns[n]["analyze_item"] = [sum(col) for col in zip(*(ns[n][k] for k in ANALYZE_ITEM))]
    laps = compared({
        layer: {
            n: {
                "us_p50": round(statistics.median(ns[n][layer]) / 1e3, 2),
                "us_sum": round(sum(ns[n][layer]) / 1e3, 1),
            }
            for n in trees
        }
        for layer in (*LAYERS, "analyze_item")
    })
    hashes = {n: {layer: sha256_of(rows) for layer, rows in outputs[n].items()} for n in trees}
    for layer in LAYERS:
        laps[layer]["sha256_equal"] = hashes["parent"][layer] == hashes["change"][layer]
    return {"inputs": len(inputs), "rounds": rounds, "laps": laps, "sha256": hashes}


def _laps_of(rows: list) -> dict:
    """One solver's laps over the pairs, from its fastest (prologue,
    epilogue, inner, total) per pair; the parts over the solves that iterated."""
    iterated = [r for r in rows if not math.isnan(r[0])]
    inner = [r[2] for r in iterated if not math.isnan(r[2])]
    part = lambda values, unit, digits: round(sum(values) / unit, digits) if iterated else None
    return {
        "solve_us_p50": round(statistics.median(r[3] for r in rows) / 1e3, 1),
        "solve_ms_sum": round(sum(r[3] for r in rows) / 1e6, 3),
        "prologue_us_sum": part([r[0] for r in iterated], 1e3, 1),
        "per_iteration_us_p50": round(statistics.median(inner) / 1e3, 2) if inner else None,
        "epilogue_us_sum": part([r[1] for r in iterated], 1e3, 1),
    }


def solver_laps(trees: dict, pairs: list, rounds: int = SOLVER_ROUNDS,
                restarts: int = RESTARTS) -> dict:
    groups = (*SOLVERS, AUDIT_ITEM)
    run = functools.partial(run_solver, restarts=restarts)
    best, iterations = fastest(trees, groups, pairs, rounds, run)
    laps = compared({
        s: {n: {"iterations": sum(iterations[n][s]), **_laps_of(best[n][s])} for n in trees}
        for s in groups
    })
    return {"pairs": len(pairs), "restarts": restarts, "rounds": rounds, "laps": laps}


def fallback_inputs(tt) -> dict:
    """Per solver, tensors its enumeration cannot certify: the zero tensor,
    then 3 v (x) v (x) v and (C only) 2 x (x) y (x) y, each plus noise."""
    x, y, v = (u / np.linalg.norm(u) for u in np.random.default_rng(14).standard_normal((3, 3)))
    noise = {k: np.asarray(tt.make_fixture(k, 1)) for k in ("symmetric", "right_symmetric")}
    noise = {k: n / np.linalg.norm(n) for k, n in noise.items()}
    z = [np.zeros((3, 3, 3))]
    z += [3.0 * tt.outer(v, v, v) + e * noise["symmetric"] for e in FALLBACK_NOISE]
    c = z + [2.0 * tt.outer(x, y, y) + e * noise["right_symmetric"] for e in FALLBACK_NOISE]
    return {"max_c_eigenvalue": c, "max_z_eigenvalue": z}


def fallback(trees: dict, rounds: int = FALLBACK_ROUNDS) -> dict:
    """The C and Z solves of ``fallback_inputs`` at each lap restart count:
    by value, and per tree each solve's fastest whole time."""
    out = {"rounds": rounds}
    for restarts in LAP_RESTARTS:
        for solver, tensors in fallback_inputs(trees["parent"]).items():
            run = functools.partial(run_solver, restarts=restarts)
            best, _ = fastest(trees, [solver], tensors, rounds, run)
            part = by_value(trees, [(solver, a, restarts, 0) for a in tensors])
            for n in trees:
                ms = [round(times[3] / 1e6, 3) for times in best[n][solver]]
                part[n] = {"solve_ms": ms, "solve_ms_sum": round(sum(ms), 3)}
            out[f"{solver}@{restarts}"] = part
    out["equal"] = all(part["equal"] for key, part in out.items() if "@" in key)
    return out


def bounded_inputs(tt) -> list[np.ndarray]:
    """Criterion 8's 20 Gaussian tensors, the Levi-Civita tensor, then 200
    Gaussian tensors from default_rng(11)."""
    rng = np.random.default_rng(11)
    return [
        *(np.random.default_rng(s).standard_normal((3, 3, 3)) for s in range(20)),
        np.asarray(tt.levi_civita()),
        *(rng.standard_normal((3, 3, 3)) for _ in range(200)),
    ]


def _whole_solve(tt, restarts: int, a) -> tuple[tuple[int], float]:
    """((ns,), value) of one ``max_singular_value`` solve."""
    t0 = _now()
    value = solve(tt, SOLVERS[0], a, restarts=restarts).value
    return (_now() - t0,), value


def bounded(trees: dict, rounds: int = FALLBACK_ROUNDS) -> dict:
    """The singular solves of ``bounded_inputs``: the change's bracket and
    evaluations, its value against the parent's at each lap restart count,
    and per tree the fastest whole solve."""
    tensors = bounded_inputs(trees["parent"])
    change = trees["change"]
    triples = [change.max_singular_value(a) for a in tensors]
    levi = np.asarray(change.levi_civita())
    out = {
        "tensors": len(tensors),
        "levi_civita": [i for i, a in enumerate(tensors) if np.array_equal(a, levi)],
        "method": sorted({t.method for t in triples}),
        "value": [t.value for t in triples],
        "gap": [(t.upper_bound - t.value) / t.value for t in triples],
        "evaluations": [change.varspec._bounded(change.core._scaled(a, "Hyper3")[0])[2]
                        for a in tensors],
    }
    ms = {}
    for restarts in LAP_RESTARTS:
        run = lambda tt, _, a: _whole_solve(tt, restarts, a)
        best, values = fastest(trees, [restarts], tensors, rounds, run)
        ms[f"parent@{restarts}"] = [t / 1e6 for (t,) in best["parent"][restarts]]
        ms.setdefault("change", [t / 1e6 for (t,) in best["change"][restarts]])
        out[f"relative_to_parent@{restarts}"] = [
            (after - before) / before
            for after, before in zip(values["change"][restarts], values["parent"][restarts])
        ]
    out["solve_ms"] = {n: [round(t, 3) for t in times] for n, times in ms.items()}
    gaussian = [i for i in range(len(tensors)) if i not in out["levi_civita"]]
    rel = [out[f"relative_to_parent@{LAP_RESTARTS[-1]}"][i] for i in gaussian]
    out["summary"] = {
        "gaussian_gap_max": max(out["gap"][i] for i in gaussian),
        "levi_civita_gap": [out["gap"][i] for i in out["levi_civita"]],
        "gaussian_evaluations_p50": statistics.median(out["evaluations"][i] for i in gaussian),
        "gaussian_evaluations_max": max(out["evaluations"][i] for i in gaussian),
        "levi_civita_evaluations": [out["evaluations"][i] for i in out["levi_civita"]],
        f"gaussian_relative_to_parent@{LAP_RESTARTS[-1]}_min": min(rel),
        f"gaussian_relative_to_parent@{LAP_RESTARTS[-1]}_max": max(rel),
        "solve_ms_p50": {n: round(statistics.median(times), 3) for n, times in ms.items()},
    }
    out["equal"] = all(abs(r) <= VALUE_TOL for r in rel)
    return out


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
        clis = {name: importlib.import_module(f"{name}.cli") for name in trees}
    parent_rev = subprocess.run(
        ["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    report = {
        "script": "scripts/compare.py",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "parent": parent_rev,
        "change": "working tree",
        "layers": layer_laps(trees, layer_inputs(trees["parent"])),
    }
    pairs = audit_pairs(trees["parent"])
    for tt in trees.values():  # warm-up: imports, caches, lazy set-up
        run_solver(tt, "max_z_eigenvalue", pairs[0])
    report["solvers"] = [solver_laps(trees, pairs, restarts=r) for r in LAP_RESTARTS]
    closed = {n: closed_form_golden(tt, clis[n]) for n, tt in trees.items()}
    golden = {
        "closed_form_golden": {**closed, "equal": closed["parent"] == closed["change"]},
        "solver_golden": solver_golden(trees),
        "fallback": fallback(trees),
        "bounded": bounded(trees),
    }
    report.update(golden)
    report["equal"] = all(part["equal"] for part in golden.values()) and all(
        report["layers"]["laps"][layer]["sha256_equal"] for layer in LAYERS
    )
    text = json.dumps(report, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0 if report["equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
