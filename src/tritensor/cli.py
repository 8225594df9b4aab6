"""Command-line front end.

Tensors travel as JSON files: {"dim": 3, "order": 3, "entries": [[[...]]]}
with an optional "name".  Every report is deterministic byte for byte for
identical inputs, flags and seeds: all randomness is seeded and numbers
are printed with shortest round-trip formatting.

Exit codes: 0 success, 2 validation error, 3 singular tensor,
4 no convergence.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import core, spectral, varspec
from .errors import NoConvergence, SingularTensor, TensorError
from .symmetry import FIXTURE_CLASSES, classify, make_fixture

SUBCOMMANDS = (
    "classify",
    "kernel",
    "l-eigen",
    "l-inverse",
    "recover",
    "singular",
    "c-eigen",
    "z-eigen",
    "invariants",
    "decompose",
    "nullspace",
    "invariance-check",
    "fixture",
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SINGULAR = 3
EXIT_NO_CONVERGENCE = 4


class ValidationError(TensorError):
    """Malformed input file or argument."""


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin), "<stdin>"
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh), path
    except FileNotFoundError:
        raise ValidationError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    out = float(value)
    if not np.isfinite(out):
        raise ValidationError(f"{where}: entries must be finite")
    return out


def read_tensor(path: str) -> tuple[core.Hyper3, str]:
    """Read and validate a tensor file; returns (tensor, display name)."""
    doc, shown = _load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{shown}: expected a JSON object")
    for field, want in (("dim", 3), ("order", 3)):
        if doc.get(field) != want:
            raise ValidationError(f"{shown}: field '{field}' must be {want}")
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != 3:
        raise ValidationError(f"{shown}: field 'entries' must be a 3x3x3 array")
    values = np.zeros((3, 3, 3))
    for i, plane in enumerate(entries):
        if not isinstance(plane, list) or len(plane) != 3:
            raise ValidationError(f"{shown}: entries[{i}] must hold 3 rows")
        for j, row in enumerate(plane):
            if not isinstance(row, list) or len(row) != 3:
                raise ValidationError(f"{shown}: entries[{i}][{j}] must hold 3 numbers")
            for k, value in enumerate(row):
                values[i, j, k] = _require_number(value, f"{shown}: entries[{i}][{j}][{k}]")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ValidationError(f"{shown}: field 'name' must be a string")
    return core.hyper3(values), name or shown


def read_matrix(path: str) -> core.Mat3:
    """Read a 3x3 matrix file (bare nested array or {"entries": ...})."""
    doc, shown = _load_json(path)
    entries = doc.get("entries") if isinstance(doc, dict) else doc
    if not isinstance(entries, list) or len(entries) != 3:
        raise ValidationError(f"{shown}: expected a 3x3 array")
    values = np.zeros((3, 3))
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != 3:
            raise ValidationError(f"{shown}: row {i} must hold 3 numbers")
        for j, value in enumerate(row):
            values[i, j] = _require_number(value, f"{shown}: entries[{i}][{j}]")
    return core.mat3(values)


def tensor_file_dict(a: core.Hyper3, name: str | None = None) -> dict:
    doc = {"dim": 3, "order": 3, "entries": np.asarray(a).tolist()}
    if name:
        doc["name"] = name
    return doc


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_vec(v) -> str:
    return "[" + ", ".join(_fmt(c) for c in np.asarray(v)) + "]"


def _emit(args, json_doc: dict, text_lines: list[str]) -> None:
    if args.json:
        payload = json.dumps(json_doc, indent=2) + "\n"
    else:
        payload = "\n".join(text_lines) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _cmd_classify(args) -> int:
    a, name = read_tensor(args.tensor)
    report = classify(a, args.tol if args.tol is not None else 1e-10)
    doc = report.as_dict()
    lines = [f"classification of {name}"]
    width = max(len(k) for k in doc)
    for key, value in doc.items():
        shown = _fmt(value) if key == "tol" else ("true" if value else "false")
        lines.append(f"  {key:<{width}}  {shown}")
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_kernel(args) -> int:
    a, name = read_tensor(args.tensor)
    u = spectral.kernel(a)
    doc = {"kernel": u.tolist(), "trace": float(np.trace(u))}
    lines = [f"kernel tensor of {name}"] + [f"  {_fmt_vec(row)}" for row in u]
    lines.append(f"trace = {_fmt(np.trace(u))}")
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_l_eigen(args) -> int:
    a, name = read_tensor(args.tensor)
    sys_ = spectral.l_eigen(a)
    doc = sys_.as_dict()
    lines = [f"l-eigen decomposition of {name}"]
    for j in range(3):
        lines.append(f"sigma_{j + 1} = {_fmt(sys_.sigma[j])}")
    for j in range(3):
        lines.append(f"x_{j + 1} = {_fmt_vec(sys_.x[j])}")
    for j in range(3):
        lines.append(f"V_{j + 1} = " + " ".join(_fmt_vec(row) for row in sys_.V[j]))
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_l_inverse(args) -> int:
    a, name = read_tensor(args.tensor)
    inv = spectral.l_inverse(a, args.tol if args.tol is not None else 1e-10)
    doc = tensor_file_dict(inv, f"{name}-l-inverse")
    lines = [f"l-inverse of {name}"]
    for i in range(3):
        for row in inv[i]:
            lines.append("  " + _fmt_vec(row))
        lines.append("")
    _emit(args, doc, lines[:-1])
    return EXIT_OK


def _cmd_recover(args) -> int:
    a, name = read_tensor(args.tensor)
    v = read_matrix(args.matrix)
    inv = spectral.l_inverse(a, args.tol if args.tol is not None else 1e-10)
    x = spectral.recover(v, inv)
    doc = {"vector": x.tolist()}
    _emit(args, doc, [f"recovered from {name}: x = {_fmt_vec(x)}"])
    return EXIT_OK


def _solver_config(args) -> dict:
    return {
        "restarts": args.restarts,
        "tol": args.tol if args.tol is not None else 1e-12,
        "max_iters": args.max_iters,
        "seed": args.seed,
    }


def _cmd_variational(args, kind: str) -> int:
    a, name = read_tensor(args.tensor)
    cfg = _solver_config(args)
    fn = {
        "singular": varspec.max_singular_value,
        "c_eigen": varspec.max_c_eigenvalue,
        "z_eigen": varspec.max_z_eigenvalue,
    }[kind]
    triple = fn(a, restarts=cfg["restarts"], tol=cfg["tol"], max_iters=cfg["max_iters"], seed=cfg["seed"])
    doc = triple.as_dict()
    doc["config"] = cfg
    lines = [
        f"{triple.kind} of {name}",
        f"value = {_fmt(triple.value)}",
        f"x = {_fmt_vec(triple.x)}",
        f"y = {_fmt_vec(triple.y)}",
        f"z = {_fmt_vec(triple.z)}",
        f"residual = {_fmt(triple.residual)}",
        f"starts_converged = {triple.starts_converged}",
        f"config: restarts={cfg['restarts']} tol={_fmt(cfg['tol'])} "
        f"max_iters={cfg['max_iters']} seed={cfg['seed']}",
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_invariants(args) -> int:
    a, name = read_tensor(args.tensor)
    inv = varspec.invariants(a)
    doc = inv.as_dict()
    width = max(len(k) for k in doc)
    lines = [f"invariants of {name}"] + [
        f"  {key:<{width}}  {_fmt(value)}" for key, value in doc.items()
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    a, name = read_tensor(args.tensor)
    dec = spectral.eig_decompose_partial(
        a, side=args.side, tol=args.tol if args.tol is not None else 1e-8
    )
    residual = float(np.linalg.norm(dec.reconstruct() - a)) / max(
        1.0, float(np.linalg.norm(a))
    )
    doc = dec.as_dict()
    doc["residual"] = residual
    lines = [f"{args.side}-side eigenvector decomposition of {name}"]
    for j in range(3):
        lines.append(f"sigma_{j + 1} = {_fmt(dec.sigma[j])}  lambda = {_fmt_vec(dec.lam[j])}")
    for j in range(3):
        lines.append(f"x_{j + 1} = {_fmt_vec(dec.x[j])}")
    for j in range(3):
        for k in range(3):
            lines.append(f"y_{j + 1}{k + 1} = {_fmt_vec(dec.y[j, k])}")
    lines.append(f"reconstruction residual = {_fmt(residual)}")
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_nullspace(args) -> int:
    a, name = read_tensor(args.tensor)
    rank, basis = spectral.rank_and_nullspace(a, args.tol if args.tol is not None else 1e-10)
    doc = {"rank": rank, "null_dimension": len(basis), "basis": [b.tolist() for b in basis]}
    lines = [f"null space of {name}", f"rank = {rank}", f"null dimension = {len(basis)}"]
    for n, b in enumerate(basis):
        lines.append(f"N_{n + 1} = " + " ".join(_fmt_vec(row) for row in b))
    _emit(args, doc, lines)
    return EXIT_OK


def _invariant_quantities(a, report, restarts, seed) -> dict[str, float]:
    inv = varspec.invariants(a).as_dict()
    sys_ = spectral.l_eigen(a)
    for j in range(3):
        inv[f"sigma_{j + 1}"] = float(sys_.sigma[j])
    inv["eta_1"] = varspec.max_singular_value(a, restarts=restarts, seed=seed).value
    if report.right_symmetric:
        inv["mu_1"] = varspec.max_c_eigenvalue(a, restarts=restarts, seed=seed).value
    if report.symmetric:
        inv["nu_1"] = varspec.max_z_eigenvalue(a, restarts=restarts, seed=seed).value
    return inv


def _cmd_invariance_check(args) -> int:
    a, name = read_tensor(args.tensor)
    report = classify(a, 1e-8)
    base = _invariant_quantities(a, report, args.restarts, args.seed)
    drift = {key: 0.0 for key in base}
    for r in range(args.rotations):
        p = core.random_rotation(args.seed + r)
        rotated = core.rotate(a, p)
        values = _invariant_quantities(rotated, report, args.restarts, args.seed)
        for key, reference in base.items():
            rel = abs(values[key] - reference) / max(1.0, abs(reference))
            drift[key] = max(drift[key], rel)
    max_drift = max(drift.values())
    cfg = {"rotations": args.rotations, "seed": args.seed, "restarts": args.restarts}
    doc = {"config": cfg, "reference": base, "drift": drift, "max_drift": max_drift}
    width = max(len(k) for k in drift)
    lines = [
        f"invariance check of {name} over {args.rotations} rotations "
        f"(seed={args.seed}, restarts={args.restarts})"
    ]
    for key in drift:
        lines.append(f"  {key:<{width}}  value={_fmt(base[key])}  drift={_fmt(drift[key])}")
    lines.append(f"max relative drift = {_fmt(max_drift)}")
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_fixture(args) -> int:
    tag = args.klass.replace("-", "_")
    if tag == "levi_civita":
        tensor = core.levi_civita()
    else:
        tensor = make_fixture(tag, args.seed)
    doc = tensor_file_dict(tensor, args.klass)
    # fixtures are emitted as tensor files in both modes so they can be piped
    payload = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _int_at_least(low: int):
    """argparse type: an integer >= low (counts >= 1, seeds >= 0)."""

    def parse(text: str) -> int:
        value = int(text)  # a ValueError becomes argparse's "invalid int value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


_COUNT = _int_at_least(1)
_SEED = _int_at_least(0)


def _tolerance(text: str) -> float:
    """argparse type: a finite float > 0."""
    value = float(text)
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


_tolerance.__name__ = "float"


def _add_common(sub, tensor_arg=True, solver=False, tol=False):
    if tensor_arg:
        sub.add_argument("tensor", help="tensor file path, or - for standard input")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub.add_argument("--out", help="write the report to this path instead of stdout")
    if tol:
        sub.add_argument("--tol", type=_tolerance, default=None, help="tolerance override")
    if solver:
        sub.add_argument("--restarts", type=_COUNT, default=64)
        sub.add_argument("--seed", type=_SEED, default=0)
        sub.add_argument("--max-iters", dest="max_iters", type=_COUNT, default=10000)
        if not tol:
            sub.add_argument("--tol", type=_tolerance, default=None, help="tolerance override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritensor",
        description="Third-order tensor toolkit: symmetry classes, kernel, "
        "L-eigenvalues, L-inverse, variational eigenvalues and invariants.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("classify", help="symmetry classification"), tol=True)
    _add_common(subs.add_parser("kernel", help="kernel tensor A A^T"))
    _add_common(subs.add_parser("l-eigen", help="L-eigenvalue decomposition"))
    _add_common(subs.add_parser("l-inverse", help="L-inverse as a tensor file"), tol=True)
    rec = subs.add_parser("recover", help="recover x from V = x A via the L-inverse")
    _add_common(rec, tol=True)
    rec.add_argument("--matrix", required=True, help="3x3 matrix file for V")
    _add_common(subs.add_parser("singular", help="largest singular value"), solver=True)
    _add_common(subs.add_parser("c-eigen", help="largest C-eigenvalue"), solver=True)
    _add_common(subs.add_parser("z-eigen", help="largest Z-eigenvalue"), solver=True)
    _add_common(subs.add_parser("invariants", help="the seven kernel invariants"))
    dec = subs.add_parser("decompose", help="eigenvector decomposition")
    _add_common(dec, tol=True)
    dec.add_argument("--side", choices=("right", "left", "central"), default="right")
    _add_common(subs.add_parser("nullspace", help="rank and null-space basis"), tol=True)
    inv = subs.add_parser("invariance-check", help="max drift under random rotations")
    _add_common(inv)
    inv.add_argument("--rotations", type=_COUNT, default=20)
    inv.add_argument("--seed", type=_SEED, default=0)
    inv.add_argument("--restarts", type=_COUNT, default=64)
    fix = subs.add_parser("fixture", help="write a named fixture tensor file")
    fix.add_argument(
        "klass",
        metavar="class",
        help="levi-civita or one of: " + ", ".join(FIXTURE_CLASSES),
    )
    fix.add_argument("--seed", type=_SEED, default=0)
    fix.add_argument("--json", action="store_true", help="fixtures are always JSON")
    fix.add_argument("--out", help="write the tensor file to this path")
    return parser


_HANDLERS = {
    "classify": _cmd_classify,
    "kernel": _cmd_kernel,
    "l-eigen": _cmd_l_eigen,
    "l-inverse": _cmd_l_inverse,
    "recover": _cmd_recover,
    "singular": lambda args: _cmd_variational(args, "singular"),
    "c-eigen": lambda args: _cmd_variational(args, "c_eigen"),
    "z-eigen": lambda args: _cmd_variational(args, "z_eigen"),
    "invariants": _cmd_invariants,
    "decompose": _cmd_decompose,
    "nullspace": _cmd_nullspace,
    "invariance-check": _cmd_invariance_check,
    "fixture": _cmd_fixture,
}


def run(argv=None) -> int:
    """Parse argv, execute one subcommand and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    try:
        return _HANDLERS[args.command](args)
    except SingularTensor as exc:
        print(f"SingularTensor: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except NoConvergence as exc:
        print(f"NoConvergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except TensorError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
