"""Command-line front end.

Tensors travel as JSON files: {"dim": 3, "order": 3, "entries": [[[...]]]}
with an optional "name".  Every report is deterministic byte for byte for
identical inputs, flags and seeds: all randomness is seeded and numbers
are printed with shortest round-trip formatting.

Exit codes: 0 success, 2 validation error (including unreadable input and
unwritable output files), 3 singular tensor, 4 no convergence.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import core, spectral, varspec
from .errors import NoConvergence, SingularTensor, TensorError
from .symmetry import FIXTURE_CLASSES, classify, make_fixture

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
    except OSError as exc:  # a directory, no read permission, ...
        raise ValidationError(f"{path}: cannot read: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # not UTF-8, or an integer literal past int's digit limit
        raise ValidationError(f"{path}: unreadable: {exc}") from None


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float64 range
        out = np.inf
    if not np.isfinite(out):
        raise ValidationError(f"{where}: entries must be finite")
    return out


# What to say when a nested list at depth d does not hold 3 items; the
# index path of that list fills the braces.
_TENSOR_SHAPE = (
    "field 'entries' must be a 3x3x3 array",
    "entries[{}] must hold 3 rows",
    "entries[{}][{}] must hold 3 numbers",
)
_MATRIX_SHAPE = ("expected a 3x3 array", "row {} must hold 3 numbers")


def _read_entries(entries, shown: str, shape_errors: tuple[str, ...]) -> np.ndarray:
    """Finite numbers nested len(shape_errors) lists deep, 3 per list."""

    def walk(node, index: tuple[int, ...]):
        if len(index) == len(shape_errors):
            path = "".join(f"[{i}]" for i in index)
            return _require_number(node, f"{shown}: entries{path}")
        if not isinstance(node, list) or len(node) != 3:
            raise ValidationError(f"{shown}: " + shape_errors[len(index)].format(*index))
        return [walk(item, (*index, i)) for i, item in enumerate(node)]

    return np.array(walk(entries, ()))


def read_tensor(path: str) -> tuple[core.Hyper3, str]:
    """Read and validate a tensor file; returns (tensor, display name)."""
    doc, shown = _load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{shown}: expected a JSON object")
    for field, want in (("dim", 3), ("order", 3)):
        if doc.get(field) != want:
            raise ValidationError(f"{shown}: field '{field}' must be {want}")
    values = _read_entries(doc.get("entries"), shown, _TENSOR_SHAPE)
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ValidationError(f"{shown}: field 'name' must be a string")
    return core.hyper3(values), name or shown


def read_matrix(path: str) -> core.Mat3:
    """Read a 3x3 matrix file (bare nested array or {"entries": ...})."""
    doc, shown = _load_json(path)
    entries = doc.get("entries") if isinstance(doc, dict) else doc
    return core.mat3(_read_entries(entries, shown, _MATRIX_SHAPE))


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
    payload = (json.dumps(json_doc, indent=2) if args.json else "\n".join(text_lines)) + "\n"
    if not args.out:
        sys.stdout.write(payload)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ValidationError(f"{args.out}: cannot write: {exc.strerror}") from None


# Each report function takes the parsed arguments, the tensor and its
# display name and returns the (JSON document, text lines) pair.


def _aligned(title: str, rows: dict[str, str]) -> list[str]:
    width = max(len(k) for k in rows)
    return [title] + [f"  {key:<{width}}  {value}" for key, value in rows.items()]


def _classify(args, a, name):
    doc = classify(a, args.tol).as_dict()
    rows = {k: _fmt(v) if k == "tol" else ("true" if v else "false") for k, v in doc.items()}
    return doc, _aligned(f"classification of {name}", rows)


def _kernel(args, a, name):
    u = spectral.kernel(a)
    lines = [f"kernel tensor of {name}"] + [f"  {_fmt_vec(row)}" for row in u]
    lines.append(f"trace = {_fmt(np.trace(u))}")
    return {"kernel": u.tolist(), "trace": float(np.trace(u))}, lines


def _l_eigen(args, a, name):
    sys_ = spectral.l_eigen(a)
    lines = [f"l-eigen decomposition of {name}"]
    lines += [f"sigma_{j + 1} = {_fmt(sys_.sigma[j])}" for j in range(3)]
    lines += [f"x_{j + 1} = {_fmt_vec(sys_.x[j])}" for j in range(3)]
    lines += [f"V_{j + 1} = " + " ".join(_fmt_vec(row) for row in sys_.V[j]) for j in range(3)]
    return sys_.as_dict(), lines


def _l_inverse(args, a, name):
    inv = spectral.l_inverse(a, args.tol)
    lines = [f"l-inverse of {name}"]
    for i in range(3):
        lines += ["  " + _fmt_vec(row) for row in inv[i]] + [""]
    return tensor_file_dict(inv, f"{name}-l-inverse"), lines[:-1]


def _recover(args, a, name):
    x = spectral.recover(read_matrix(args.matrix), spectral.l_inverse(a, args.tol))
    return {"vector": x.tolist()}, [f"recovered from {name}: x = {_fmt_vec(x)}"]


def _variational(solve):
    """The report function of one multistart solver."""

    def report(args, a, name):
        cfg = {"restarts": args.restarts, "tol": args.tol, "max_iters": args.max_iters,
               "seed": args.seed}
        triple = solve(a, **cfg)
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
        return doc, lines

    return report


def _invariants(args, a, name):
    doc = varspec.invariants(a).as_dict()
    return doc, _aligned(f"invariants of {name}", {k: _fmt(v) for k, v in doc.items()})


def _decompose(args, a, name):
    dec = spectral.eig_decompose_partial(a, side=args.side, tol=args.tol)
    scale = max(1.0, float(np.linalg.norm(a)))
    residual = float(np.linalg.norm(dec.reconstruct() - a)) / scale
    doc = dec.as_dict()
    doc["residual"] = residual
    lines = [f"{args.side}-side eigenvector decomposition of {name}"]
    for j in range(3):
        lines.append(f"sigma_{j + 1} = {_fmt(dec.sigma[j])}  lambda = {_fmt_vec(dec.lam[j])}")
    lines += [f"x_{j + 1} = {_fmt_vec(dec.x[j])}" for j in range(3)]
    for j in range(3):
        lines += [f"y_{j + 1}{k + 1} = {_fmt_vec(dec.y[j, k])}" for k in range(3)]
    lines.append(f"reconstruction residual = {_fmt(residual)}")
    return doc, lines


def _nullspace(args, a, name):
    rank, basis = spectral.rank_and_nullspace(a, args.tol)
    doc = {"rank": rank, "null_dimension": len(basis), "basis": [b.tolist() for b in basis]}
    lines = [f"null space of {name}", f"rank = {rank}", f"null dimension = {len(basis)}"]
    lines += [f"N_{n + 1} = " + " ".join(_fmt_vec(row) for row in b) for n, b in enumerate(basis)]
    return doc, lines


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


def _invariance_check(args, a, name):
    report = classify(a, 1e-8)
    base = _invariant_quantities(a, report, args.restarts, args.seed)
    drift = {key: 0.0 for key in base}
    for r in range(args.rotations):
        rotated = core.rotate(a, core.random_rotation(args.seed + r))
        values = _invariant_quantities(rotated, report, args.restarts, args.seed)
        for key, reference in base.items():
            rel = abs(values[key] - reference) / max(1.0, abs(reference))
            drift[key] = max(drift[key], rel)
    max_drift = max(drift.values())
    cfg = {"rotations": args.rotations, "seed": args.seed, "restarts": args.restarts}
    doc = {"config": cfg, "reference": base, "drift": drift, "max_drift": max_drift}
    title = (
        f"invariance check of {name} over {args.rotations} rotations "
        f"(seed={args.seed}, restarts={args.restarts})"
    )
    rows = {key: f"value={_fmt(base[key])}  drift={_fmt(drift[key])}" for key in drift}
    return doc, _aligned(title, rows) + [f"max relative drift = {_fmt(max_drift)}"]


def _fixture(args, a, name):
    tag = args.klass.replace("-", "_")
    tensor = core.levi_civita() if tag == "levi_civita" else make_fixture(tag, args.seed)
    return tensor_file_dict(tensor, args.klass), []


def _checked(convert, accept, what: str):
    """argparse type: convert(text), refused unless accept(value)."""

    def parse(text: str):
        value = convert(text)  # a ValueError becomes argparse's "invalid int/float value"
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = convert.__name__
    return parse


_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_SEED = _checked(int, lambda v: v >= 0, "an integer >= 0")
_TOLERANCE = _checked(float, lambda v: np.isfinite(v) and v > 0.0, "finite and > 0")


def _arg(*flags, **kwargs):
    return flags, kwargs


def _tol(default: float):
    return _arg("--tol", type=_TOLERANCE, default=default, help=f"tolerance (default {default:g})")


_IO = (
    _arg("tensor", help="tensor file path, or - for standard input"),
    _arg("--json", action="store_true", help="emit JSON instead of text"),
    _arg("--out", help="write the report to this path instead of stdout"),
)
_SEED_ARG = _arg("--seed", type=_SEED, default=0)
_RESTARTS_SEED = (_arg("--restarts", type=_COUNT, default=64), _SEED_ARG)
_SOLVER = (*_IO, *_RESTARTS_SEED,
           _arg("--max-iters", dest="max_iters", type=_COUNT, default=10000), _tol(1e-12))

# name -> (help, report function, arguments).  run() builds the parser from
# this table, reads the tensor of every subcommand that takes one, calls
# the report function and writes its report through _emit.
_COMMANDS = {
    "classify": ("symmetry classification", _classify, (*_IO, _tol(1e-10))),
    "kernel": ("kernel tensor A A^T", _kernel, _IO),
    "l-eigen": ("L-eigenvalue decomposition", _l_eigen, _IO),
    "l-inverse": ("L-inverse as a tensor file", _l_inverse, (*_IO, _tol(1e-10))),
    "recover": ("recover x from V = x A via the L-inverse", _recover,
                (*_IO, _tol(1e-10), _arg("--matrix", required=True, help="3x3 matrix file for V"))),
    "singular": ("largest singular value", _variational(varspec.max_singular_value), _SOLVER),
    "c-eigen": ("largest C-eigenvalue", _variational(varspec.max_c_eigenvalue), _SOLVER),
    "z-eigen": ("largest Z-eigenvalue", _variational(varspec.max_z_eigenvalue), _SOLVER),
    "invariants": ("the seven kernel invariants", _invariants, _IO),
    "decompose": ("eigenvector decomposition", _decompose, (*_IO, _tol(1e-8),
                  _arg("--side", choices=("right", "left", "central"), default="right"))),
    "nullspace": ("rank and null-space basis", _nullspace, (*_IO, _tol(1e-10))),
    "invariance-check": ("max drift under random rotations", _invariance_check,
                         (*_IO, _arg("--rotations", type=_COUNT, default=20), *_RESTARTS_SEED)),
    "fixture": ("write a named fixture tensor file", _fixture, (
        _arg("klass", metavar="class", help="levi-civita or one of: " + ", ".join(FIXTURE_CLASSES)),
        _SEED_ARG,
        # fixtures are tensor files in both modes, so they can be piped
        _arg("--json", action="store_true", default=True, help="fixtures are always JSON"),
        _arg("--out", help="write the tensor file to this path"),
    )),
}
SUBCOMMANDS = tuple(_COMMANDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritensor",
        description="Third-order tensor toolkit: symmetry classes, kernel, "
        "L-eigenvalues, L-inverse, variational eigenvalues and invariants.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, arguments) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for flags, kwargs in arguments:
            sub.add_argument(*flags, **kwargs)
    return parser


def run(argv=None) -> int:
    """Parse argv, execute one subcommand and return the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    report = _COMMANDS[args.command][1]
    try:
        a, name = read_tensor(args.tensor) if hasattr(args, "tensor") else (None, None)
        _emit(args, *report(args, a, name))
    except (TensorError, NoConvergence) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, SingularTensor):
            return EXIT_SINGULAR
        return EXIT_NO_CONVERGENCE if isinstance(exc, NoConvergence) else EXIT_VALIDATION
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
