"""Command-line front end.

Tensors travel as JSON files: {"dim": 3, "order": 3, "entries": [[[...]]]}
with an optional "name".  Every report is deterministic byte for byte for
identical inputs, flags and seeds: all randomness is seeded and numbers
are printed with shortest round-trip formatting.

Exit codes: 0 success, 2 validation error (including unreadable input and
an unwritable output file or standard output), a report that would hold a
number outside the float64 range (nothing is written) or an eigenpair
enumeration that cannot certify its result, 3 singular tensor, 4 no convergence (a C- or
Z-eigenpair taken from the bounded eta_1 that does not polish, near a
continuum of maxima).
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import json
import math
import os
import sys
from typing import NoReturn

import numpy as np

from . import core, spectral
from .errors import NoConvergence, SingularTensor, TensorError, Uncertified, Unrepresentable
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


def _require_number(value, shown: str, index: tuple[int, ...]) -> float:
    """``value`` as a finite float; the error names it as entries[i][j]..
    at ``index`` of the file ``shown``, a label built only on rejection."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problem = f"expected a number, got {value!r}"
    else:
        try:
            out = float(value)
        except OverflowError:  # an integer beyond the float64 range
            out = math.inf
        if math.isfinite(out):
            return out
        problem = "entries must be finite"
    path = "".join(f"[{i}]" for i in index)
    raise ValidationError(f"{shown}: entries{path}: {problem}")


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
            return _require_number(node, shown, index)
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


# how a report shows a value of an as_dict() in text
_SHOWN = {float: _fmt, list: _fmt_vec, str: str}


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout and flush it.  A failed write or flush (a
    closed pipe, a full disk) raises ValidationError, as an unwritable
    ``--out`` path does, after pointing stdout's descriptor at os.devnull,
    so that no later flush fails again; so does text for a process
    started without a stdout (sys.stdout None)."""
    if sys.stdout is None:
        if text:
            raise ValidationError("<stdout>: cannot write: no standard output")
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        with contextlib.suppress(OSError):  # a stream without a descriptor
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise ValidationError(f"<stdout>: cannot write: {exc.strerror}") from None


def _emit(args, json_doc: dict, text_lines: list[str]) -> None:
    try:  # JSON has no inf or NaN, and the text report shows the same numbers
        doc = json.dumps(json_doc, indent=2 if args.json else None, allow_nan=False)
    except ValueError:
        raise Unrepresentable(f"the {args.command} report is outside the float64 range") from None
    payload = (doc if args.json else "\n".join(text_lines)) + "\n"
    if not args.out:
        _write_stdout(payload)
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


# The variational reports import varspec when they run, so that the
# closed-form subcommands never load it.


def _variational(solver: str):
    """The report function of the variational solver ``varspec.<solver>``."""

    def report(args, a, name):
        from . import varspec

        doc = getattr(varspec, solver)(a).as_dict()
        rows = [f"{k} = {_SHOWN[type(v)](v)}" for k, v in doc.items() if k != "kind"]
        return doc, [f"{doc['kind']} of {name}", *rows]

    return report


# a spectrum field's name in the row of one pair
_ROW_KEYS = {"values": "value", "vectors": "vector", "residuals": "residual"}


def _spectrum(solver: str, title: str):
    """The report function of the eigenpair enumeration ``varspec.<solver>``."""

    def report(args, a, name):
        from . import varspec

        doc = getattr(varspec, solver)(a).as_dict()
        lines = [f"{title} of {name}, real pairs: {len(doc['values'])}"]
        for n in range(len(doc["values"])):
            cells = [f"{_ROW_KEYS.get(k, k)} = {_SHOWN[type(v[n])](v[n])}" for k, v in doc.items()]
            lines.append(f"  {n + 1}: " + "  ".join(cells))
        return doc, lines

    return report


def _invariants(args, a, name):
    doc = spectral.invariants(a).as_dict()
    return doc, _aligned(f"invariants of {name}", {k: _fmt(v) for k, v in doc.items()})


def _decompose(args, a, name):
    dec = spectral.eig_decompose_partial(a, side=args.side, tol=args.tol)
    # ||R - A|| / max(1, ||A||) for the reconstruction R, on R and A scaled
    # by one power of two: exact, and the squares of their entries stay finite
    scaled, exp = core._scaled(a, "Hyper3")
    diff = np.linalg.norm(np.ldexp(dec.reconstruct(), -exp) - scaled)
    # 1 / 2^exp overflows to inf, without a warning in run, where ||A|| < 2^-1023
    residual = float(diff / max(np.ldexp(1.0, -exp), np.linalg.norm(scaled)))
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


def _invariant_quantities(a, report) -> dict[str, float]:
    from . import varspec

    inv = spectral.invariants(a).as_dict()
    sys_ = spectral.l_eigen(a)
    for j in range(3):
        inv[f"sigma_{j + 1}"] = float(sys_.sigma[j])
    inv["eta_1"] = varspec.max_singular_value(a).value
    if report.right_symmetric:
        inv["mu_1"] = varspec.max_c_eigenvalue(a).value
    if report.symmetric:
        inv["nu_1"] = varspec.max_z_eigenvalue(a).value
    return inv


# the degree in A of each trace; sigma_j, eta_1, mu_1 and nu_1 have degree 1
_DEGREES = {"trU": 2, "trU2": 4, "trU3": 6, "trUbar2": 4, "trUbar3": 6, "trUhat2": 4,
            "trUhat3": 6}


def _invariance_check(args, a, name):
    report = classify(a, 1e-8)
    base = _invariant_quantities(a, report)
    # each drift is relative to max(|reference|, ||A||^d) for a quantity of
    # degree d, so it does not change when A is scaled; at ||A|| = 1 that is
    # max(1, |reference|).  The norm is an np.float64, whose power overflows
    # to inf rather than raising
    norm = np.linalg.norm(a)
    scale = {key: max(abs(value), norm ** _DEGREES.get(key, 1)) for key, value in base.items()}
    drift = {key: 0.0 for key in base}
    for r in range(args.rotations):
        rotated = core.rotate(a, core.random_rotation(args.seed + r))
        values = _invariant_quantities(rotated, report)
        for key, reference in base.items():
            moved = abs(values[key] - reference)
            if moved:  # never for the zero tensor, whose scale is 0
                drift[key] = max(drift[key], float(moved / scale[key]))
    max_drift = max(drift.values())
    cfg = {"rotations": args.rotations, "seed": args.seed}
    doc = {"config": cfg, "reference": base, "drift": drift, "max_drift": max_drift}
    title = f"invariance check of {name} over {args.rotations} rotations (seed={args.seed})"
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
_TOLERANCE = _checked(float, lambda v: math.isfinite(v) and v > 0.0, "finite and > 0")


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

# name -> (help, report function, arguments).  run() builds the parser of
# its subcommand from this table, reads the tensor of every subcommand that
# takes one, calls the report function and writes its report through _emit.
_COMMANDS = {
    "classify": ("symmetry classification", _classify, (*_IO, _tol(1e-10))),
    "kernel": ("kernel tensor A A^T", _kernel, _IO),
    "l-eigen": ("L-eigenvalue decomposition", _l_eigen, _IO),
    "l-inverse": ("L-inverse as a tensor file", _l_inverse, (*_IO, _tol(1e-10))),
    "recover": ("recover x from V = x A via the L-inverse", _recover,
                (*_IO, _tol(1e-10), _arg("--matrix", required=True, help="3x3 matrix file for V"))),
    "singular": ("largest singular value", _variational("max_singular_value"), _IO),
    "c-eigen": ("largest C-eigenvalue", _variational("max_c_eigenvalue"), _IO),
    "z-eigen": ("largest Z-eigenvalue", _variational("max_z_eigenvalue"), _IO),
    "c-spectrum": ("every real C-eigenpair, certified",
                   _spectrum("c_spectrum", "C-eigenpairs"), _IO),
    "z-spectrum": ("every real Z-eigenpair, certified",
                   _spectrum("z_spectrum", "Z-eigenpairs"), _IO),
    "invariants": ("the seven kernel invariants", _invariants, _IO),
    "decompose": ("eigenvector decomposition", _decompose, (*_IO, _tol(1e-8),
                  _arg("--side", choices=("right", "left", "central"), default="right"))),
    "nullspace": ("rank and null-space basis", _nullspace, (*_IO, _tol(1e-10))),
    "invariance-check": ("max drift under random rotations", _invariance_check,
                         (*_IO, _arg("--rotations", type=_COUNT, default=20), _SEED_ARG)),
    "fixture": ("write a named fixture tensor file", _fixture, (
        _arg("klass", metavar="class", help="levi-civita or one of: " + ", ".join(FIXTURE_CLASSES)),
        _SEED_ARG,
        # fixtures are tensor files in both modes, so they can be piped
        _arg("--json", action="store_true", default=True, help="fixtures are always JSON"),
        _arg("--out", help="write the tensor file to this path"),
    )),
}
SUBCOMMANDS = tuple(_COMMANDS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.

    Built for one subcommand, the top-level usage still names all of them,
    so that it prints the same usage and errors as the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="tritensor",
        description="Third-order tensor toolkit: symmetry classes, kernel, "
        "L-eigenvalues, L-inverse, variational eigenvalues and invariants.",
    )
    # a metavar would also rename the full parser's "argument command:" errors
    every = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in _COMMANDS if command is None else (command,):
        help_text, _, arguments = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            sub.add_argument(*flags, **kwargs)
    return parser


def run(argv=None) -> int:
    """Parse argv, execute one subcommand and return the exit code.

    The top-level parser takes no option but -h, so a subcommand can only
    be argv[0]; where it is one, only its parser is built.
    """
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    report = _COMMANDS[args.command][1]
    try:
        a, name = read_tensor(args.tensor) if hasattr(args, "tensor") else (None, None)
        with np.errstate(all="ignore"):  # _emit refuses a report that overflowed
            _emit(args, *report(args, a, name))
    except (TensorError, NoConvergence, Uncertified) as exc:
        return _failed(exc)
    return EXIT_OK


def _failed(exc: Exception) -> int:
    """Print ``exc`` as one line on stderr and return its exit code."""
    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    if isinstance(exc, SingularTensor):
        return EXIT_SINGULAR
    return EXIT_NO_CONVERGENCE if isinstance(exc, NoConvergence) else EXIT_VALIDATION


def main() -> NoReturn:
    """The process entry of ``python -m tritensor`` and the ``tritensor``
    script: ``run`` on sys.argv, then the end of the process.

    Once ``run`` has returned, its report is out, so the process ends
    without the interpreter's teardown (clearing every module and the
    final garbage collections, ~15 ms of a ~120 ms process): the atexit
    callbacks run, once, stdout and stderr are flushed and ``os._exit``
    ends it with run's exit code, or with 2 where stdout cannot be
    flushed.  An exception out of ``run`` takes Python's usual way out.
    """
    code = run()
    atexit._run_exitfuncs()  # and unregisters them
    try:
        _write_stdout("")  # what argparse or an atexit callback printed
    except ValidationError as exc:
        code = _failed(exc)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
