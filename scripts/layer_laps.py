"""Closed-form layer laps and output hashes, for a parent tree against this one.

Loads the ``tritensor`` tree of a git revision (``--parent``) and the
working tree's ``src/tritensor`` into one process, as
``scripts/solver_laps.py`` does, and times each closed-form layer call
by call on one fixed set of 64 inputs: 28 Gaussian tensors, one fixture
of every class, the Levi-Civita tensor, one tensor each of rank 0, 1
and 2, and 18 Gaussian tensors scaled to norms from 1e-12 to 1e12; each
input has its own seeded rotation.  The parent tree builds the inputs.  The layers are ``hyper3``,
``classify``, ``kernel``, ``kernel_triple``, ``l_eigen`` cold (its SVD
memo cleared first) and warm (the same tensor again), ``l_inverse`` and
``rank_and_nullspace`` (warm, as after ``l_eigen``), ``invariants``,
``rotate`` and ``random_rotation``.

Each call is timed alone, in rounds, with the two trees taking turns
call by call and the one that goes first alternating, so a slow phase of
the host falls on both.  Per layer, input and tree the fastest time over
the rounds is kept; the report gives, per layer and tree, the median
and the sum over the inputs of those fastest times.  ``analyze_item``
sums, per input, the layers that one item of the ``analyze`` benchmark
workload calls (hyper3, classify, kernel, l_eigen cold, l_inverse,
rank_and_nullspace, invariants and rotate) and reports their median.

Each layer's outputs over the inputs (or the repr of the error raised)
go into one sha256 per tree; equal hashes mean both trees return the same
bits.  Run from the repository root, with BLAS on one thread::

    python scripts/layer_laps.py --parent HEAD~1 --out BENCH_8.json
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from golden import record_of  # noqa: E402
from solver_laps import ROOT, environment, extract_revision, load_tree  # noqa: E402

ROUNDS = 41
_now = time.perf_counter_ns


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


def run_layer(tt, layer: str, a, p, seed) -> tuple[int, object]:
    """(ns, output or the library error raised) of one timed call."""
    name, args_of, memo = LAYERS[layer]
    if memo == "cold":
        tt.spectral._svd_of_bytes.cache_clear()
    elif memo == "warm":
        tt.l_eigen(a)
    fn, args = getattr(tt, name), args_of(a, p, seed)
    t0 = _now()
    try:
        out = fn(*args)
    except tt.TensorError as exc:  # an error is an output too: timed and hashed
        out = exc
    return _now() - t0, out


def measure(trees: dict, inputs: list) -> tuple[dict, dict]:
    """Fastest ns per (tree, layer, input), and one sha256 per (tree, layer)."""
    names = list(trees)
    best = {n: {layer: [None] * len(inputs) for layer in LAYERS} for n in names}
    digests = {n: {layer: hashlib.sha256() for layer in LAYERS} for n in names}
    for rnd in range(ROUNDS):
        for layer in LAYERS:
            for i, (a, p, seed) in enumerate(inputs):
                for name in names if (rnd + i) % 2 == 0 else names[::-1]:
                    ns, out = run_layer(trees[name], layer, a, p, seed)
                    old = best[name][layer][i]
                    best[name][layer][i] = ns if old is None else min(old, ns)
                    if rnd == 0:
                        digests[name][layer].update(record_of(out))
    hashes = {n: {layer: d.hexdigest() for layer, d in digests[n].items()} for n in names}
    return best, hashes


def report_of(best: dict, hashes: dict) -> dict:
    names = list(best)
    layers = {}
    for layer in (*LAYERS, "analyze_item"):
        layers[layer] = {}
        for name in names:
            if layer == "analyze_item":
                rows = [sum(col) for col in zip(*(best[name][k] for k in ANALYZE_ITEM))]
            else:
                rows = best[name][layer]
            layers[layer][name] = {
                "us_p50": round(statistics.median(rows) / 1e3, 2),
                "us_sum": round(sum(rows) / 1e3, 1),
            }
        if len(names) == 2:
            before, after = (layers[layer][n] for n in names)
            layers[layer]["change_over_parent"] = {
                key: round(after[key] / before[key], 3) for key in before
            }
            if layer != "analyze_item":
                layers[layer]["sha256_equal"] = hashes[names[0]][layer] == hashes[names[1]][layer]
    return layers


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
    inputs = layer_inputs(trees["parent"])
    best, hashes = measure(trees, inputs)
    report = {
        "script": "scripts/layer_laps.py",
        "environment": environment(),
        "parent": parent_rev,
        "change": "working tree",
        "inputs": len(inputs),
        "rounds": ROUNDS,
        "layers": report_of(best, hashes),
        "sha256": hashes,
    }
    text = json.dumps(report, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
