"""Closed-form golden hash, for a parent tree against this one.

Loads the ``tritensor`` tree of a git revision (``--parent``) and the
working tree's ``src/tritensor`` into one process, as
``scripts/solver_laps.py`` does, and takes one sha256 per tree over:

- ``make_fixture(klass, s)`` for every fixture class and s < 200;
- ``random_rotation(r)`` for r < 100;
- ``classify`` of every fixture at tolerances 1e-10 and 1e-8;
- ``eig_decompose_partial`` of every fixture on all three sides: its
  ``as_dict()``, or the repr of the error it raises;
- the numeric closed-form layers ``invariants``, ``kernel``,
  ``kernel_triple``, ``l_eigen``, ``l_inverse``, ``rank_and_nullspace``
  and ``rotate`` (under ``random_rotation(n % 100)`` for the n-th input)
  on every fixture, on 100 Gaussian tensors and on those tensors scaled
  by 1e-40, 1e-20, ..., 1e160: the bytes of every array they return, or
  the repr of the error they raise;
- ``cli.run`` of the ``fixture`` subcommand (seeds 0-2 of every class
  and the Levi-Civita tensor), and of ``classify`` and ``decompose``
  (all three sides, text and JSON) on each fixture it prints, fed
  through standard input: exit code, stdout and stderr.

Equal hashes mean both trees build the same fixtures and rotations bit
for bit and give the same verdicts, decompositions, closed-form results
and CLI reports.  It prints both hashes and exits 1 if they differ.  Run
from the repository root::

    python scripts/golden.py --parent HEAD~1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from solver_laps import ROOT, extract_revision, load_tree  # noqa: E402

SIDES = ("right", "left", "central")
# the reports run on every fixture the CLI prints, read from standard input
REPORTS = (
    ["classify", "-"],
    ["classify", "-", "--json"],
    *(["decompose", "-", "--side", side] for side in SIDES),
    *(["decompose", "-", "--side", side, "--json"] for side in SIDES),
)


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


def _closed_form_records(tt, a, rotation):
    layers = (
        tt.invariants, tt.kernel, tt.kernel_triple, tt.l_eigen, tt.l_inverse,
        tt.rank_and_nullspace, lambda a: tt.rotate(a, rotation),
    )
    for layer in layers:
        try:
            out = layer(a)
        except tt.TensorError as exc:
            out = exc
        yield record_of(out)


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
    for n, a in enumerate([*fixtures, *gaussian, *scaled]):
        yield from _closed_form_records(tt, a, rotations[n % 100])


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


def golden_hash(tt, cli) -> str:
    digest = hashlib.sha256()
    for record in (*_library_records(tt), *_cli_records(tt, cli)):
        digest.update(record if isinstance(record, bytes) else record.encode())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent tree")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        trees = {
            "parent": load_tree(extract_revision(args.parent, Path(tmp)), "parent"),
            "change": load_tree(ROOT / "src" / "tritensor", "change"),
        }
        clis = {name: importlib.import_module(f"{name}.cli") for name in trees}
    hashes = {name: golden_hash(tt, clis[name]) for name, tt in trees.items()}
    for name, digest in hashes.items():
        print(f"{name}: {digest}")
    equal = hashes["parent"] == hashes["change"]
    print("equal" if equal else "DIFFERENT")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
