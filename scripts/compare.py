"""Golden hashes, layer laps and solver laps of a parent tree against this one.

Loads ``src/tritensor`` of a git revision (``--parent``) and of the
working tree into one process, as the modules ``parent`` and ``change``,
and reports eight parts:

- ``closed_form_golden``: one sha256 per tree over the fixtures of every
  class, the rotations, the ``classify`` verdicts and the
  ``eig_decompose_partial`` results, the numeric closed-form layers (or
  the errors they raise) on the fixtures and on Gaussian tensors at norms
  from 1e-40 to 1e160, the CLI's ``fixture``, ``classify`` and
  ``decompose`` reports, fed through standard input, and the exit code,
  standard output and standard error of the ``parser_cases``, which stop
  in the parser: help, usage and errors;
- ``solver_golden``: the 2420 singular, 2420 C and 2220 Z solves of
  acceptance criteria 4 and 6 compared by value, since the enumerations
  find eta_1, mu_1 and nu_1 of these tensors without iterating: equal
  within 1e-12 * max(1, |value|), or listed under ``rose`` (a maximum
  the parent missed) or ``fell`` (a failure), with the count of each
  ``method``, one sha256 per tree over every solve's triple, in the
  fields that both trees' triples have, or the repr of the library error
  raised, and per such field that differs the number of solves where
  it does (and for a float the largest difference).  A solve's index
  runs over
  criterion 4's 20 fixtures x 101 orientations (unrotated first), then
  criterion 6's 200 symmetric fixtures, then (singular and C only) its
  200 right-side symmetric ones;
- ``layers``: per closed-form layer and tree, the median and the sum over
  64 inputs of the fastest of 41 calls, and one sha256 over the outputs;
  ``analyze_item`` sums the layers that one item of the ``analyze``
  benchmark workload calls;
- ``solvers``: per solver and tree, on the 32 (fixture, rotation) pairs
  that the ``audit`` benchmark workload times, the fastest of 21 rounds
  of each whole solve.  The solvers' one memo, the route
  (``clear_memos``), is cleared before each timed solve, and
  ``audit_item`` times eta_1, mu_1 and nu_1 in turn from a cleared
  route, as one audit item solves them: on these symmetric pairs mu_1
  and nu_1 read the route that eta_1 filled, which holds all three
  maxima of its Z enumeration;
- ``fallback``: the C and Z solves of tensors whose enumeration cannot
  certify (the zero tensor, and ``3 v (x) v (x) v`` and, for C,
  ``2 x (x) y (x) y``, each plus 0, 1e-12, 1e-9 and 1e-6 of a unit-norm
  fixture), compared by value and hashed as above, with the fastest of 3
  whole solves per tree, and of 3 ``audit_item`` laps on each tensor
  (eta_1, mu_1 and nu_1 in turn from a cleared route, where a branch
  and bound may serve all three), whose records are hashed too;
- ``bounded``: the singular solves of tensors with no symmetric pair
  (criterion 8's 20 Gaussian tensors, the Levi-Civita tensor and 200
  Gaussian tensors from ``default_rng(11)``), compared by value and
  hashed as above: per tensor the change's value, its gap
  (upper_bound - value) / value and the evaluations of its branch and
  bound, the value relative to the parent's, and the fastest of 3 whole
  solves per tree;
- ``cli``: cold ``python -X importtime -m tritensor <sub> <file> --json``
  processes of each tree on one symmetric tensor file, for the six
  subcommands of the ``cli`` benchmark workload, and of ``l-inverse`` on
  a rank-one tensor file, which exits 3, 20 per case and tree with the
  tree that goes first alternating.  Each tree's package
  runs from a copy that holds no ``__pycache__``, and the children run
  with ``PYTHONDONTWRITEBYTECODE=1``, so each compiles the package from
  source, as the benchmark's children do, and nothing is written into
  either tree.  Per subcommand and tree: the ``tritensor`` modules the
  process imports with each one's fastest self time, their sum, and the
  fastest whole-process wall time; and whether the exit code, standard
  output, standard error (without the ``-X importtime`` lines) and
  ``l-inverse --out`` file are byte-identical between trees,
  and where they are not, the largest relative difference over the
  numeric leaves of the JSON that differs, with the path of its leaf;
- ``cli_run``: the same seven cases on the same files run in this
  process through each tree's ``cli.run``, the fastest of 41 runs per
  subcommand and tree, with the tree that goes first alternating; and
  whether the exit code, standard output, standard error and ``--out``
  file are byte-identical between trees, with the same largest relative
  difference where they are not.  The library's memos are not
  cleared, so after the first round ``singular`` and ``z-eigen`` read
  their maxima from the memo, and the lap times the CLI's own work:
  parsing, reading, the closed-form layers, formatting and writing.

The parent tree builds the lap inputs.  The trees take turns call by
call and the one that goes first alternates, so a slow phase of the host
falls on both; a case whose output (for a solve, its triples) varies
between rounds stops the run.  Equal hashes mean both trees return the
same bits.  The report is printed and written to ``--out``, and then the
exit code is 1 if the closed-form golden or a layer hash differs, any
value fell, fallback and bounded solves included, or a CLI output, in a
process or in this one, differs; the solve hashes are reported, not
gated.  Run from the repository root, with BLAS on one thread::

    python scripts/compare.py --parent HEAD~1 --out BENCH_26.json
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import platform
import shutil
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

SOLVERS = ("max_singular_value", "max_c_eigenvalue", "max_z_eigenvalue")
# the solver lap of eta_1, mu_1 and nu_1 in turn, as one audit item runs them
AUDIT_ITEM = "audit_item"
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
# name -> (subcommand, tensor file, flags...) of the cli parts: the
# subcommands of the cli benchmark workload on its symmetric tensor file,
# then l-inverse of a rank-one tensor, which exits 3; "--out" takes a path
CLI_SUBCOMMANDS = {
    "classify": ("classify", "t.json", "--json"),
    "l-eigen": ("l-eigen", "t.json", "--json"),
    "invariants": ("invariants", "t.json", "--json"),
    "singular": ("singular", "t.json", "--json"),
    "z-eigen": ("z-eigen", "t.json", "--json"),
    "l-inverse": ("l-inverse", "t.json", "--json", "--out"),
    "l-inverse rank-one": ("l-inverse", "rank-one.json", "--json"),
}
CLI_PROCESSES = 20
CLI_RUNS = 41
# argument lists whose first word names no subcommand; ``parser_cases``
# adds three per subcommand
PARSER_CASES = ([], ["-h"], ["--help"], ["bogus"], ["--json", "classify"])
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


def field_names(out) -> tuple[str, ...]:
    """The field names of a result record (a named tuple), in order; ()
    for anything else."""
    return getattr(out, "_fields", ())


def record_of(out, other=None) -> bytes:
    """The bits of one library result: the bytes of every array in it, or
    the repr of the error raised; where ``other``, the other tree's result,
    is a record too, a record is read in the fields both have only."""
    if isinstance(out, Exception):
        return repr(out).encode()
    if isinstance(out, np.ndarray):
        return np.ascontiguousarray(out).tobytes()
    names = field_names(out)
    if names:
        shared = field_names(other) or names
        return record_of([getattr(out, n) for n in names if n in shared])
    if isinstance(out, (tuple, list)):
        return b"|".join(record_of(part) for part in out)
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


def parser_cases(cli) -> list[list[str]]:
    """``PARSER_CASES``, then per subcommand its help, its missing
    arguments and an unknown option."""
    tails = (["-h"], [], ["t.json", "--bogus"])
    return [*PARSER_CASES, *([sub, *tail] for sub in cli.SUBCOMMANDS for tail in tails)]


def _cli_records(tt, cli):
    for klass in ("levi-civita", *(k.replace("_", "-") for k in tt.FIXTURE_CLASSES)):
        for seed in range(3):
            argv = ["fixture", klass, "--seed", str(seed)]
            _, tensor, _ = result = _run(cli, argv)
            yield json.dumps([argv, result])
            for report in REPORTS:
                yield json.dumps([report, _run(cli, report, tensor)])
    for argv in parser_cases(cli):
        yield json.dumps([argv, _run(cli, argv)])


def closed_form_golden(tt, cli) -> str:
    return sha256_of(itertools.chain(_library_records(tt), _cli_records(tt, cli)))


def golden_solves(tt):
    """(solver, tensor) for every solve of criteria 4 and 6."""
    fixtures = [tt.make_fixture("symmetric", s) for s in range(10)]
    fixtures += [tt.make_fixture("primarily_symmetric", s) for s in range(10)]
    for a in fixtures:
        for r in range(-1, 100):
            rot = a if r < 0 else tt.rotate(a, tt.random_rotation(r))
            for s in SOLVERS:
                yield s, rot
    for seed in range(200):
        a = tt.make_fixture("symmetric", seed)
        for s in SOLVERS:
            yield s, a
    for seed in range(200):
        a = tt.make_fixture("right_symmetric", seed)
        for s in SOLVERS[:2]:
            yield s, a


def solved(tt, solver: str, a):
    """``tt``'s solver on ``a``: its triple, or the library error it raises."""
    try:
        return getattr(tt, solver)(a)
    except (tt.TensorError, tt.NoConvergence, tt.Uncertified) as exc:
        return exc


def outcomes(trees: dict, solves: list) -> dict:
    """Per tree, the outcome of every (solver, tensor) solve."""
    return {n: [solved(tt, s, a) for s, a in solves] for n, tt in trees.items()}


def differing_fields(parent: list, change: list) -> dict:
    """Per field that both trees' triples of a solve have and whose bits
    differ in some solve: the number of such solves and, for a float
    field, the largest |change - parent|."""
    out = {}
    for before, after in zip(parent, change):
        shared = field_names(after)
        for name in field_names(before):
            if name not in shared:
                continue
            b, c = getattr(before, name), getattr(after, name)
            if record_of(b) == record_of(c):
                continue
            part = out.setdefault(name, {"solves": 0})
            part["solves"] += 1
            if isinstance(b, float):
                part["max_abs_difference"] = max(part.get("max_abs_difference", 0.0), abs(c - b))
    return out


def by_value(out: dict) -> dict:
    """The ``outcomes`` of both trees compared by value, one sha256 per
    tree over their records, each of a triple over the fields that both
    trees' triples of that solve have, and the ``differing_fields``."""
    rose, fell, methods = [], [], {}
    for n, (before, after) in enumerate(zip(out["parent"], out["change"])):
        method = getattr(after, "method", type(after).__name__)
        methods[method] = methods.get(method, 0) + 1
        # a triple's value, or the repr of the library error raised instead
        b, c = (repr(o) if isinstance(o, Exception) else o.value for o in (before, after))
        if b == c:
            continue
        if isinstance(b, float) and isinstance(c, float):
            if abs(c - b) <= VALUE_TOL * max(1.0, abs(b)):
                continue
            up = c > b
        else:
            up = isinstance(c, float)  # the change solves where the parent raised
        (rose if up else fell).append({"solve": n, "method": method, "parent": b, "change": c})
    parent, change = out["parent"], out["change"]
    hashes = {"parent": sha256_of(map(record_of, parent, change)),
              "change": sha256_of(map(record_of, change, parent))}
    return {"solves": len(out["change"]), "methods": methods, "rose": rose, "fell": fell,
            "equal": not fell, "sha256": hashes,
            "sha256_equal": hashes["parent"] == hashes["change"],
            "differing_fields": differing_fields(parent, change)}


def solver_golden(trees: dict) -> dict:
    solves = list(golden_solves(trees["parent"]))
    out = {s: by_value(outcomes(trees, [case for case in solves if case[0] == s]))
           for s in SOLVERS}
    out["equal"] = all(part["equal"] for part in out.values())
    out["sha256_equal"] = all(out[s]["sha256_equal"] for s in SOLVERS)
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
    """Empty the solvers' one memo, ``varspec._route``: the route of the
    last tensor solved, which holds its enumerations, its branch and
    bound and its maxima."""
    tt.varspec._route.cache_clear()


def run_solver(tt, solver: str, a) -> tuple[tuple[int], bytes]:
    """((ns,), record of the triples) of one whole solve from a cleared
    route; ``AUDIT_ITEM`` runs the three solvers in turn."""
    clear_memos(tt)
    names = SOLVERS if solver == AUDIT_ITEM else (solver,)
    t0 = _now()
    out = [solved(tt, name, a) for name in names]
    return (_now() - t0,), record_of(out)


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
            key: round(after[key] / before[key], 3) for key in before if before[key]
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
    """One solver's laps over the pairs, from its fastest (ns,) per pair."""
    ns = [t for (t,) in rows]
    return {
        "solve_us_p50": round(statistics.median(ns) / 1e3, 1),
        "solve_ms_sum": round(sum(ns) / 1e6, 3),
    }


def solver_laps(trees: dict, pairs: list, rounds: int = SOLVER_ROUNDS) -> dict:
    groups = (*SOLVERS, AUDIT_ITEM)
    best, _ = fastest(trees, groups, pairs, rounds, run_solver)
    laps = compared({s: {n: _laps_of(best[n][s]) for n in trees} for s in groups})
    return {"pairs": len(pairs), "rounds": rounds, "laps": laps}


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
    """The C and Z solves of ``fallback_inputs``: by value, and per tree
    the fastest whole time of each solve and of an audit item on the same
    tensor, whose triples (or errors) must have equal bits in both trees."""
    parts = {}
    for solver, tensors in fallback_inputs(trees["parent"]).items():
        best, out = fastest(trees, [solver, AUDIT_ITEM], tensors, rounds, run_solver)
        part = parts[solver] = by_value(outcomes(trees, [(solver, a) for a in tensors]))
        part["audit_item_sha256_equal"] = out["parent"][AUDIT_ITEM] == out["change"][AUDIT_ITEM]
        for n in trees:
            part[n] = {}
            for group, name in ((solver, "solve"), (AUDIT_ITEM, AUDIT_ITEM)):
                ms = [round(t / 1e6, 3) for (t,) in best[n][group]]
                part[n].update({f"{name}_ms": ms, f"{name}_ms_sum": round(sum(ms), 3)})
    return {"rounds": rounds, **parts, "equal": all(p["equal"] for p in parts.values()),
            "sha256_equal": all(p["sha256_equal"] and p["audit_item_sha256_equal"]
                                for p in parts.values())}


def bounded_inputs(tt) -> list[np.ndarray]:
    """Criterion 8's 20 Gaussian tensors, the Levi-Civita tensor, then 200
    Gaussian tensors from default_rng(11)."""
    rng = np.random.default_rng(11)
    return [
        *(np.random.default_rng(s).standard_normal((3, 3, 3)) for s in range(20)),
        np.asarray(tt.levi_civita()),
        *(rng.standard_normal((3, 3, 3)) for _ in range(200)),
    ]


def bounded(trees: dict, rounds: int = FALLBACK_ROUNDS) -> dict:
    """The singular solves of ``bounded_inputs``: by value, the change's
    bracket and evaluations, its value relative to the parent's, and per
    tree the fastest whole solve."""
    tensors = bounded_inputs(trees["parent"])
    change = trees["change"]
    solves = outcomes(trees, [(SOLVERS[0], a) for a in tensors])
    triples = solves["change"]
    levi = np.asarray(change.levi_civita())
    out = {
        "tensors": len(tensors),
        "levi_civita": [i for i, a in enumerate(tensors) if np.array_equal(a, levi)],
        "value": [t.value for t in triples],
        "gap": [(t.upper_bound - t.value) / t.value for t in triples],
        "evaluations": [change.varspec._bounded(change.core._scaled(a, "Hyper3")[0])[2]
                        for a in tensors],
        "relative_to_parent": [
            (after.value - before.value) / before.value
            for after, before in zip(triples, solves["parent"])
        ],
    }
    best, _ = fastest(trees, [SOLVERS[0]], tensors, rounds, run_solver)
    out["solve_ms"] = {n: [round(t / 1e6, 3) for (t,) in best[n][SOLVERS[0]]] for n in trees}
    gaussian = [i for i in range(len(tensors)) if i not in out["levi_civita"]]
    rel = [out["relative_to_parent"][i] for i in gaussian]
    out["summary"] = {
        "gaussian_gap_max": max(out["gap"][i] for i in gaussian),
        "levi_civita_gap": [out["gap"][i] for i in out["levi_civita"]],
        "gaussian_evaluations_p50": statistics.median(out["evaluations"][i] for i in gaussian),
        "gaussian_evaluations_max": max(out["evaluations"][i] for i in gaussian),
        "levi_civita_evaluations": [out["evaluations"][i] for i in out["levi_civita"]],
        "gaussian_relative_to_parent_min": min(rel),
        "gaussian_relative_to_parent_max": max(rel),
        "solve_ms_p50": {n: round(statistics.median(ms), 3) for n, ms in out["solve_ms"].items()},
    }
    out.update(by_value(solves))
    return out


def cli_tensor_file(tt, into: Path) -> Path:
    """A symmetric tensor of unit norm in a seeded orientation, written as
    the tensor file ``t.json`` in the new directory ``into``, beside the
    rank-one ``rank-one.json``; the path of ``t.json``."""
    a = np.asarray(tt.rotate(tt.make_fixture("symmetric", 4), tt.random_rotation(4)))
    v = np.array([0.6, 0.0, -0.8])
    into.mkdir()
    for name, b in (("t", a / np.linalg.norm(a)), ("rank-one", 2.0 * tt.outer(v, v, v))):
        doc = {"dim": 3, "order": 3, "entries": np.asarray(b).tolist(), "name": name}
        (into / f"{name}.json").write_text(json.dumps(doc))
    return into / "t.json"


def import_self_us(stderr: str) -> dict[str, int]:
    """Self time in us of each ``tritensor`` module in ``-X importtime`` output."""
    times = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "self [us]" not in line:
            self_us, _, module = line[len("import time:"):].split("|")
            if module.strip().partition(".")[0] == "tritensor":
                times[module.strip()] = int(self_us)
    return times


def _leaf_gap(before, after, path: str = "") -> tuple[float, str] | None:
    """The largest |a - b| / max(|a|, |b|) over the numeric leaves of two
    parsed JSON documents and the path of its leaf (the first such), or
    None unless they have one shape and their other leaves are equal."""
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (before, after)]
    if all(numbers):
        top = max(abs(before), abs(after))
        return (abs(after - before) / top if top else 0.0), path
    if any(numbers) or type(before) is not type(after):
        return None
    if isinstance(before, dict):
        if before.keys() != after.keys():
            return None
        leaves = [(f"{path}.{key}" if path else key, before[key], after[key]) for key in before]
    elif isinstance(before, list):
        if len(before) != len(after):
            return None
        leaves = [(f"{path}[{i}]", b, c) for i, (b, c) in enumerate(zip(before, after))]
    else:
        return (0.0, path) if before == after else None
    gaps = [_leaf_gap(b, c, where) for where, b, c in leaves]
    return None if None in gaps else max(gaps, key=lambda gap: gap[0], default=(0.0, path))


def json_gap(before: tuple, after: tuple) -> tuple[float, str] | None:
    """``_leaf_gap`` over the parts of two CLI outputs (the exit code, then
    texts or bytes) that differ, or None where such a part is not JSON of
    one shape with equal other leaves."""
    gaps = [(0.0, "")]
    for b, c in zip(before, after):
        if b != c:
            try:
                gaps.append(_leaf_gap(json.loads(b), json.loads(c)))
            except (TypeError, ValueError):  # an exit code, or text that is not JSON
                return None
    return None if None in gaps else max(gaps, key=lambda gap: gap[0])


def _differences(stats: dict, before: tuple, after: tuple) -> None:
    """Record in ``stats`` whether two CLI outputs are identical and, where
    they are not, their ``json_gap`` and its leaf (None, None if none)."""
    stats["identical"] = before == after
    if before != after:
        gap = json_gap(before, after) or (None, None)
        stats["max_relative_difference"], stats["max_relative_difference_at"] = gap


def _cli_call(case: str, tensor: Path, out_name: str, call) -> tuple[int, object, bytes]:
    """(ns, result, bytes of the ``--out`` file) of one ``call(argv)`` of the
    ``CLI_SUBCOMMANDS`` entry ``case``, whose tensor file lies beside
    ``tensor``, as does its ``--out`` file ``out_name``, read and deleted
    afterwards."""
    out = tensor.parent / out_name
    sub, file, *flags = CLI_SUBCOMMANDS[case]
    argv = [sub, str(tensor.parent / file), *flags]
    if argv[-1] == "--out":
        argv.append(str(out))
    t0 = _now()
    result = call(argv)
    ns = _now() - t0
    written = out.read_bytes() if out.exists() else b""
    out.unlink(missing_ok=True)
    return ns, result, written


def run_cli(src: Path, case: str, tensor: Path) -> tuple[tuple[int, ...], tuple]:
    """((wall ns, self us of each ``tritensor`` module), output) of one cold
    ``python -X importtime -m tritensor`` process of the package under
    ``src`` in the directory of ``tensor``, on the ``CLI_SUBCOMMANDS`` entry
    ``case``; the output is the exit code, the standard output, the
    standard error without the ``-X importtime`` lines, the bytes of the
    ``--out`` file and, last, the names of the modules, in import order."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    ns, proc, written = _cli_call(case, tensor, "out.json", lambda argv: subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tritensor", *argv],
        cwd=tensor.parent, env=env, capture_output=True))
    stderr = proc.stderr.decode()
    imports = import_self_us(stderr)
    said = "".join(line for line in stderr.splitlines(keepends=True)
                   if not line.startswith("import time:"))
    return (ns, *imports.values()), (
        proc.returncode, proc.stdout, said.encode(), written, tuple(imports)
    )


def run_in_process(cli, case: str, tensor: Path) -> tuple[tuple[int], tuple]:
    """((ns,), output) of one ``cli.run`` of the ``CLI_SUBCOMMANDS`` entry
    ``case`` beside ``tensor``; the output is the exit code, the standard
    output and error and the bytes of the ``--out`` file."""
    ns, result, written = _cli_call(case, tensor, "run-out.json", lambda argv: _run(cli, argv))
    return (ns,), (*result, written)


def cli_runs(clis: dict, tensor: Path, rounds: int = CLI_RUNS) -> dict:
    """Per ``CLI_SUBCOMMANDS`` entry and tree (its ``cli`` module under
    ``clis[tree]``): the fastest in-process ``run``, and whether both trees
    print and write the same bytes."""
    best, outputs = fastest(clis, CLI_SUBCOMMANDS, [tensor], rounds, run_in_process)
    stats = compared({
        case: {n: {"run_us": round(best[n][case][0][0] / 1e3, 1)} for n in clis}
        for case in CLI_SUBCOMMANDS
    })
    for case in CLI_SUBCOMMANDS:
        _differences(stats[case], outputs["parent"][case][0], outputs["change"][case][0])
    return {"rounds": rounds, "subcommands": stats,
            "equal": all(stats[sub]["identical"] for sub in stats)}


def cli_processes(sources: dict, tensor: Path, processes: int = CLI_PROCESSES) -> dict:
    """Per case of ``CLI_SUBCOMMANDS`` and tree (its package under
    ``sources[tree]``): the fastest self time of each ``tritensor`` module
    and the fastest wall time over ``processes`` cold processes, and
    whether both trees print and write the same bytes."""
    best, outputs = fastest(sources, CLI_SUBCOMMANDS, [tensor], processes, run_cli)
    modules = {n: {case: dict(zip(outputs[n][case][0][-1], best[n][case][0][1:]))
                   for case in CLI_SUBCOMMANDS} for n in sources}
    stats = compared({
        case: {n: {"tritensor_import_us": sum(modules[n][case].values()),
                   "process_ms": round(best[n][case][0][0] / 1e6, 2)} for n in sources}
        for case in CLI_SUBCOMMANDS
    })
    for case in CLI_SUBCOMMANDS:
        stats[case]["modules_us"] = {n: modules[n][case] for n in sources}
        # the outputs but the module names
        _differences(stats[case], outputs["parent"][case][0][:-1], outputs["change"][case][0][:-1])
    # each module's fastest self time over every process of the tree
    fastest_us = {n: {} for n in sources}
    for n in sources:
        for by_module in modules[n].values():
            for module, us in by_module.items():
                fastest_us[n][module] = min(fastest_us[n].get(module, us), us)
    return {"processes": processes, "subcommands": stats, "modules_us": fastest_us,
            "equal": all(stats[name]["identical"] for name in stats)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent tree")
    parser.add_argument("--out", type=Path, help="write the report to this JSON file")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        parent_pkg = extract_revision(args.parent, Path(tmp))
        trees = {
            "parent": load_tree(parent_pkg, "parent"),
            "change": load_tree(ROOT / "src" / "tritensor", "change"),
        }
        clis = {name: importlib.import_module(f"{name}.cli") for name in trees}
        tensor = cli_tensor_file(trees["parent"], Path(tmp) / "cli")
        cli_run = cli_runs(clis, tensor)
        # the working tree's __pycache__, if any, would spare its children
        # the compilation that the parent's pay
        change_src = Path(tmp) / "change"
        shutil.copytree(ROOT / "src" / "tritensor", change_src / "tritensor",
                        ignore=shutil.ignore_patterns("__pycache__"))
        cli = cli_processes({"parent": parent_pkg.parent, "change": change_src}, tensor)
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
    report["solvers"] = solver_laps(trees, pairs)
    closed = {n: closed_form_golden(tt, clis[n]) for n, tt in trees.items()}
    golden = {
        "closed_form_golden": {**closed, "equal": closed["parent"] == closed["change"]},
        "solver_golden": solver_golden(trees),
        "fallback": fallback(trees),
        "bounded": bounded(trees),
    }
    report.update(golden)
    report["cli"] = cli
    report["cli_run"] = cli_run
    report["equal"] = all(part["equal"] for part in (*golden.values(), cli, cli_run)) and all(
        report["layers"]["laps"][layer]["sha256_equal"] for layer in LAYERS
    )
    text = json.dumps(report, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0 if report["equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
