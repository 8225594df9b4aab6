import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tritensor as tt
from tritensor.cli import SUBCOMMANDS, build_parser, run

from helpers import SRC, random_hyper3, run_python
from test_varspec import _near_circle


def write_tensor(path, entries, name=None, dim=3, order=3):
    doc = {"dim": dim, "order": order, "entries": np.asarray(entries).tolist()}
    if name:
        doc["name"] = name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def eps_file(tmp_path):
    return write_tensor(tmp_path / "eps.json", tt.levi_civita(), name="levi-civita")


# a fitting argv tail for every subcommand; {eps}, {sym}, {central} and
# {matrix} stand for input files written by the test
WIRED = {
    "classify": ["{eps}"],
    "kernel": ["{eps}"],
    "l-eigen": ["{eps}"],
    "l-inverse": ["{eps}"],
    "recover": ["{eps}", "--matrix", "{matrix}"],
    "singular": ["{sym}"],
    "c-eigen": ["{sym}"],
    "z-eigen": ["{sym}"],
    "c-spectrum": ["{sym}"],
    "z-spectrum": ["{sym}"],
    "invariants": ["{eps}"],
    "decompose": ["{central}", "--side", "central"],
    "nullspace": ["{eps}"],
    "invariance-check": ["{sym}", "--rotations", "2"],
    "fixture": ["symmetric", "--seed", "7"],
}


# the subcommands whose report runs a variational solver
SOLVING = ("singular", "c-eigen", "z-eigen", "c-spectrum", "z-spectrum", "invariance-check")


def wired_argv(command, tmp_path) -> list[str]:
    """``command`` and its WIRED tail, with the input files written under ``tmp_path``."""
    paths = {
        "{eps}": write_tensor(tmp_path / "eps.json", tt.levi_civita()),
        "{sym}": write_tensor(tmp_path / "sym.json", tt.make_fixture("symmetric", 7)),
        "{central}": write_tensor(tmp_path / "c.json", tt.make_fixture("centrally_symmetric", 7)),
        "{matrix}": str(tmp_path / "v.json"),
    }
    v = tt.contract_one(tt.levi_civita(), np.array([0.3, -1.2, 0.8]), 1)
    Path(paths["{matrix}"]).write_text(json.dumps(v.tolist()))
    return [command, *(paths.get(arg, arg) for arg in WIRED[command])]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_runs_in_both_modes(command, tmp_path, capsys):
    argv = wired_argv(command, tmp_path)
    assert run(argv) == 0
    assert capsys.readouterr().out
    assert run(argv + ["--json"]) == 0
    shown = capsys.readouterr().out
    json.loads(shown)
    out = tmp_path / "report.json"
    assert run(argv + ["--json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == shown


def test_fixture_levi_civita_pipes_into_l_eigen(tmp_path, capsys):
    out = tmp_path / "eps.json"
    assert run(["fixture", "levi-civita", "--out", str(out)]) == 0
    assert run(["l-eigen", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.count("1.4142135623730951") == 3


def test_fixture_round_trips_as_input(tmp_path, capsys):
    out = tmp_path / "fix.json"
    assert run(["fixture", "right_symmetric", "--seed", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 3 and doc["order"] == 3 and doc["name"] == "right_symmetric"
    assert run(["classify", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["right_symmetric"] is True


def test_fixture_hyphen_alias_and_unknown_class(capsys):
    assert run(["fixture", "totally-anti"]) == 0
    capsys.readouterr()
    assert run(["fixture", "no_such_class"]) == 2
    assert "UnsupportedClass" in capsys.readouterr().err


def test_classify_zero_tensor_all_true(tmp_path, capsys):
    path = write_tensor(tmp_path / "zero.json", np.zeros((3, 3, 3)))
    assert run(["classify", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for key, value in report.items():
        if key != "tol":
            assert value is True


def test_kernel_and_invariants_text(eps_file, capsys):
    assert run(["kernel", eps_file]) == 0
    out = capsys.readouterr().out
    assert "trace = 6.0" in out
    assert run(["invariants", eps_file, "--json"]) == 0
    inv = json.loads(capsys.readouterr().out)
    assert inv == {
        "trU": 6.0,
        "trU2": 12.0,
        "trU3": 24.0,
        "trUbar2": 12.0,
        "trUbar3": 24.0,
        "trUhat2": 12.0,
        "trUhat3": 24.0,
    }


def test_l_inverse_json_is_tensor_file(eps_file, tmp_path, capsys):
    assert run(["l-inverse", eps_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 3 and doc["order"] == 3
    assert np.allclose(doc["entries"], np.asarray(tt.levi_civita()) / 2.0)
    # output re-parses as input
    path = tmp_path / "inv.json"
    path.write_text(json.dumps(doc))
    assert run(["kernel", str(path)]) == 0


def test_singular_json_schema(eps_file, capsys):
    assert run(["singular", eps_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"kind", "value", "upper_bound", "x", "y", "z", "residual", "method"}
    assert doc["kind"] == "singular"
    assert doc["method"] == "bounded"
    assert abs(doc["value"] - 1.0) <= 1e-8
    assert doc["value"] <= doc["upper_bound"] <= 1.0 + 1e-3


def test_recover_round_trip(tmp_path, capsys):
    a = random_hyper3(3)
    tensor_path = write_tensor(tmp_path / "a.json", a)
    x = np.array([0.3, -1.2, 0.8])
    v = tt.contract_one(a, x, 1)
    matrix_path = tmp_path / "v.json"
    matrix_path.write_text(json.dumps({"entries": v.tolist()}))
    assert run(["recover", tensor_path, "--matrix", str(matrix_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.abs(np.array(doc["vector"]) - x).max() <= 1e-9


def test_nullspace_output(tmp_path, capsys):
    x = np.array([1.0, 0.0, 0.0])
    path = write_tensor(tmp_path / "r1.json", tt.outer(x, x, x))
    assert run(["nullspace", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 1
    assert doc["null_dimension"] == 8
    assert len(doc["basis"]) == 8


def test_decompose_sides(tmp_path, capsys):
    a = tt.make_fixture("centrally_symmetric", 7)
    path = write_tensor(tmp_path / "c.json", a)
    assert run(["decompose", str(path), "--side", "central", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["side"] == "central"
    assert doc["residual"] <= 1e-9
    assert run(["decompose", str(path), "--side", "right"]) == 2
    assert "NotPartiallySymmetric" in capsys.readouterr().err


def test_invariance_check(tmp_path, capsys):
    a = tt.make_fixture("symmetric", 1)
    path = write_tensor(tmp_path / "s.json", a)
    code = run(
        ["invariance-check", str(path), "--rotations", "5", "--seed", "7", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"] == {"rotations": 5, "seed": 7}
    assert set(doc["drift"]) >= {"trU", "trU2", "sigma_1", "eta_1", "mu_1", "nu_1"}
    assert doc["max_drift"] <= 1e-8
    # each drift is relative to the quantity's own scale, so the same tensor
    # scaled by 2^-40 drifts as much: no absolute drift hides under the norm
    small = write_tensor(tmp_path / "small.json", np.ldexp(a, -40))
    assert run(["invariance-check", str(small), "--rotations", "5", "--seed", "7", "--json"]) == 0
    scaled = json.loads(capsys.readouterr().out)
    assert scaled["drift"].keys() == doc["drift"].keys()
    for key, drift in doc["drift"].items():
        assert abs(scaled["drift"][key] - drift) <= 1e-12 * drift
    assert doc["max_drift"] > 0.0


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["classify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err
    missing_field = tmp_path / "missing.json"
    missing_field.write_text(json.dumps({"dim": 3, "order": 3, "entries": [[[1]]]}))
    assert run(["classify", str(missing_field)]) == 2
    assert "entries" in capsys.readouterr().err
    # singular tensor -> 3
    x = np.array([1.0, 0.0, 0.0])
    rank1 = write_tensor(tmp_path / "rank1.json", tt.outer(x, x, x))
    assert run(["l-inverse", rank1]) == 3
    assert "SingularTensor" in capsys.readouterr().err
    # asymmetric tensor for z-eigen -> validation error
    generic = write_tensor(tmp_path / "g.json", random_hyper3(0))
    assert run(["z-eigen", generic]) == 2
    assert "NotSymmetric" in capsys.readouterr().err
    assert run(["classify", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "case", ["unwritable_out", "directory", "not_utf8", "too_many_digits", "overflowing_entry"]
)
def test_bad_files_exit_2(case, eps_file, tmp_path, capsys):
    path = tmp_path / "bad.json"
    if case == "unwritable_out":
        path = tmp_path / "absent" / "report.json"
    elif case == "directory":
        path = tmp_path
    elif case == "not_utf8":
        path.write_bytes(b'{"dim": 3, "order": 3, "name": "caf\xe9"}')
    elif case == "too_many_digits":  # past the interpreter's int digit limit
        path.write_text('{"dim": 3, "order": 3, "entries": ' + "1" * 5000 + "}")
    else:  # an integer beyond the float64 range
        entries = np.zeros((3, 3, 3), dtype=int).tolist()
        entries[0][1][2] = 10**400
        path.write_text(json.dumps({"dim": 3, "order": 3, "entries": entries}))
    if case == "unwritable_out":
        argv = ["classify", eps_file, "--out", str(path)]
    else:
        argv = ["classify", str(path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"ValidationError: {path}" in err


@pytest.mark.parametrize(
    "literal", ["Infinity", "-Infinity", "NaN", "1e400", "9" * 400],
    ids=["Infinity", "-Infinity", "NaN", "1e400", "400-digits"],
)
def test_non_finite_entries_exit_2(literal, tmp_path, capsys):
    # Python's json reads Infinity and NaN; 1e400 reads as inf, and a
    # 400-digit integer overflows float
    entries = np.zeros((3, 3, 3)).tolist()
    entries[0][1][2] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "order": 3, "entries": entries}).replace('"@"', literal))
    assert run(["classify", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"ValidationError: {path}: entries[0][1][2]: entries must be finite\n"
    )


@pytest.mark.parametrize("kind", ["tensor", "matrix"])
def test_entry_errors_name_the_entry_as_before(kind, tmp_path, capsys):
    # the entries[i][j][k] label is built only when an entry is rejected;
    # the messages are those of the label built for every entry
    shape = (3, 3, 3) if kind == "tensor" else (3, 3)
    bad = {None: "expected a number, got None", "1": "expected a number, got '1'",
           True: "expected a number, got True", (1.0,): "expected a number, got [1.0]",
           10**400: "entries must be finite", "@": "entries must be finite"}
    eps = write_tensor(tmp_path / "eps.json", tt.levi_civita())
    for n, (value, problem) in enumerate(bad.items()):
        for index in ((0,) * len(shape), (2, 1, 0)[:len(shape)], (2,) * len(shape)):
            entries = np.zeros(shape).tolist()
            row = entries
            for i in index[:-1]:
                row = row[i]
            row[index[-1]] = list(value) if isinstance(value, tuple) else value
            path = tmp_path / f"bad{n}.json"
            text = json.dumps({"dim": 3, "order": 3, "entries": entries} if kind == "tensor"
                              else entries)
            path.write_text(text.replace('"@"', "NaN"))
            argv = (["classify", str(path)] if kind == "tensor"
                    else ["recover", eps, "--matrix", str(path)])
            assert run(argv) == 2
            label = "".join(f"[{i}]" for i in index)
            assert capsys.readouterr() == (
                "", f"ValidationError: {path}: entries{label}: {problem}\n"
            )


def test_unrepresentable_invariants_exit_2(tmp_path, capsys):
    huge = write_tensor(tmp_path / "huge.json", 1e60 * random_hyper3(1))
    assert run(["invariants", huge]) == 2
    assert "Unrepresentable" in capsys.readouterr().err


def test_reports_near_the_float64_limit_print_no_nan_or_infinity(tmp_path, capsys):
    # ||A||^2 overflows near 1e300: the decompose residual is taken on the
    # tensor scaled by a power of two, so it equals the unscaled one (and
    # 1 / 2^1070 overflows for the subnormal one); the kernel A A^T itself
    # is not representable
    a = np.asarray(tt.make_fixture("right_symmetric", 1))
    residuals = []
    for k in (0, 996, -1070):
        path = write_tensor(tmp_path / f"a{k}.json", np.ldexp(a, k))
        assert run(["decompose", path, "--json"]) == 0
        out = capsys.readouterr().out
        assert "NaN" not in out and "Infinity" not in out
        residuals.append(json.loads(out)["residual"])
    assert residuals[0] == residuals[1] <= 1e-14
    for mode in ([], ["--json"]):
        assert run(["kernel", str(tmp_path / "a996.json"), *mode]) == 2
        captured = capsys.readouterr()
        assert "Unrepresentable" in captured.err and not captured.out
    # a finite tensor whose largest entry is 1.4e308: sigma_1, eta_1 and the
    # top Z-eigenvalues overflow; a subnormal one: 1 / sigma of its L-inverse
    # overflows.  Each report is refused whole, in text and JSON, with no
    # warning (an error here) and no --out file
    big = write_tensor(tmp_path / "big.json", np.ldexp(tt.make_fixture("symmetric", 1), 1024))
    tiny = write_tensor(tmp_path / "tiny.json", np.ldexp(a, -1070))
    out = tmp_path / "report.txt"
    for sub, path in (("l-eigen", big), ("singular", big), ("z-spectrum", big),
                      ("l-inverse", tiny)):
        for mode in ([], ["--json"], ["--out", str(out)]):
            assert run([sub, path, *mode]) == 2
            captured = capsys.readouterr()
            assert "Unrepresentable" in captured.err and not captured.out
            assert not out.exists()


def test_no_convergence_exit_code(tmp_path, capsys):
    # no chart certifies near a circle of maxima, and the Z pair taken from
    # the bounded eta_1 there does not polish to 1e-12 ||A||
    path = write_tensor(tmp_path / "s.json", _near_circle(1e-9))
    assert run(["z-eigen", path]) == 4
    err = capsys.readouterr().err
    assert "NoConvergence" in err and "Traceback" not in err


def test_z_eigen_reports_its_method(tmp_path, capsys):
    path = write_tensor(tmp_path / "s.json", tt.make_fixture("symmetric", 0))
    assert run(["z-eigen", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "enumerated"
    assert doc["upper_bound"] == doc["value"]
    assert run(["z-eigen", path]) == 0
    assert "method = enumerated" in capsys.readouterr().out.splitlines()


def test_singular_reports_its_method(tmp_path, capsys):
    # a symmetric tensor takes eta_1 from the Z enumeration, a Gaussian one
    # from the branch and bound, whose upper bound is another line
    for entries, method in ((tt.make_fixture("symmetric", 0), "enumerated"),
                            (random_hyper3(0), "bounded")):
        path = write_tensor(tmp_path / f"{method}.json", entries)
        assert run(["singular", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == method
        assert run(["singular", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == [f"value = {doc['value']!r}", f"upper_bound = {doc['upper_bound']!r}"]
        assert f"method = {method}" in lines


@pytest.mark.parametrize("command, count", [("c-spectrum", 13), ("z-spectrum", 7)])
def test_spectrum_reports_every_pair(command, count, tmp_path, capsys):
    p = np.asarray(tt.random_rotation(30))
    lam = (0.5, 2.0, -1.0)
    cube = sum(lam[i] * tt.outer(p[:, i], p[:, i], p[:, i]) for i in range(3))
    path = write_tensor(tmp_path / "cube.json", cube, name="cube")
    assert run([command, path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    spectrum = (tt.c_spectrum if command == "c-spectrum" else tt.z_spectrum)(cube)
    assert doc == {key: v.tolist() for key, v in spectrum._asdict().items()}
    assert len(doc["values"]) == count
    assert run([command, path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(f"of cube, real pairs: {count}")
    assert len(lines) == 1 + count
    assert lines[1].startswith(f"  1: value = {float(spectrum.values[0])!r}  ")
    assert "  residual = " in lines[-1]


@pytest.mark.parametrize("command", ["c-spectrum", "z-spectrum"])
def test_uncertified_spectrum_exits_2(command, tmp_path, capsys):
    x = np.array([0.6, 0.0, 0.8])
    path = write_tensor(tmp_path / "r1.json", tt.outer(x, x, x))
    assert run([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("Uncertified: ") and "Traceback" not in err


def test_nan_rejected_with_field_path(tmp_path, capsys):
    entries = np.zeros((3, 3, 3)).tolist()
    entries[1][2][0] = None
    doc = {"dim": 3, "order": 3, "entries": entries}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert run(["classify", str(path)]) == 2
    assert "entries[1][2][0]" in capsys.readouterr().err


def test_byte_identical_reports(eps_file, capsys):
    assert run(["singular", eps_file, "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["singular", eps_file, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert run(["l-eigen", eps_file]) == 0
    third = capsys.readouterr().out
    assert run(["l-eigen", eps_file]) == 0
    assert third == capsys.readouterr().out


def test_only_the_solving_subcommands_load_varspec(tmp_path):
    # a process that runs every closed-form subcommand never imports
    # varspec; the star import then loads it through the package's lazy
    # __all__ and binds every public name
    closed = [command for command in SUBCOMMANDS if command not in SOLVING]
    assert closed == ["classify", "kernel", "l-eigen", "l-inverse", "recover", "invariants",
                      "decompose", "nullspace", "fixture"]
    argvs = [wired_argv(command, tmp_path) for command in closed]
    code = (
        "import contextlib, io, json, sys\n"
        "from tritensor.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [run(argv) for argv in {argvs!r}]\n"
        "loaded = 'tritensor.varspec' in sys.modules\n"
        "from tritensor import *\n"
        "import tritensor\n"
        "unbound = [n for n in tritensor.__all__ if globals().get(n) is not getattr(tritensor, n)]\n"
        "print(json.dumps([codes, loaded, len(tritensor.__all__), unbound]))\n"
    )
    assert json.loads(run_python("-c", code).stdout) == [[0] * len(closed), False, 65, []]
    # a solving subcommand's process logs the import, so that a profile
    # of it counts varspec as a module of its own
    sym = wired_argv("z-eigen", tmp_path)[1]
    proc = run_python("-X", "importtime", "-m", "tritensor", "z-eigen", sym, "--json")
    assert json.loads(proc.stdout)["method"] == "enumerated"
    assert any(line.split("|")[-1].strip() == "tritensor.varspec"
               for line in proc.stderr.splitlines() if line.startswith("import time:"))


def test_stdin_input(eps_file, monkeypatch, capsys, tmp_path):
    import io, sys

    payload = Path(eps_file).read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    assert run(["l-eigen", "-"]) == 0
    assert "1.4142135623730951" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["invariance-check", "{eps}", "--rotations", "0"],
        ["invariance-check", "{eps}", "--rotations", "1.5"],
        ["l-inverse", "{eps}", "--tol", "0"],
        ["recover", "{eps}", "--matrix", "v.json", "--tol", "-1"],
        ["decompose", "{eps}", "--tol", "nan"],
        ["nullspace", "{eps}", "--tol", "-inf"],
        ["classify", "{eps}", "--tol", "-1"],
        ["nullspace", "{eps}", "--tol", "inf"],
        ["fixture", "symmetric", "--seed", "-1"],
        ["invariance-check", "{eps}", "--seed", "-1"],
        ["invariance-check", "{eps}", "--rotations", "-2"],
        ["fixture", "symmetric", "--seed", "x"],
    ],
)
def test_out_of_range_arguments_exit_2(argv, eps_file, capsys):
    option = argv[-2]
    assert run([eps_file if arg == "{eps}" else arg for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: argument {option}:" in err


@pytest.mark.parametrize("flag", ["--restarts", "--max-iters", "--tol", "--seed"])
def test_solvers_take_no_search_settings(flag, eps_file, capsys):
    # the solvers have no setting that changes their answer; invariance-check
    # keeps --seed for its rotations but not --restarts
    for command in ("singular", "c-eigen", "z-eigen"):
        assert run([command, eps_file, flag, "1"]) == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert run(["invariance-check", eps_file, "--restarts", "1"]) == 2
    assert "unrecognized arguments: --restarts 1" in capsys.readouterr().err


# argument lists that stop in the parser: help, usage and errors
PARSER_CASES = [
    [], ["-h"], ["--help"], ["bogus"], ["--json", "classify"],
    *([command, *tail] for command in SUBCOMMANDS for tail in (["-h"], [], ["t.json", "--bogus"])),
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_run_prints_what_the_full_parser_prints(argv, capsys):
    # run builds the parser of argv[0] alone where that names a subcommand
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        full = exc.code, *capsys.readouterr()
    assert (run(argv), *capsys.readouterr()) == full


@pytest.fixture()
def subparsers_built(monkeypatch):
    """A list that grows by one name per subparser built."""
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    return built


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_run_builds_only_the_named_subcommand(command, subparsers_built, capsys):
    assert run([command, "-h"]) == 0
    assert subparsers_built == [command]
    subparsers_built.clear()
    assert run(["-h"]) == 0
    assert subparsers_built == list(SUBCOMMANDS)


def test_run_reads_sys_argv_by_default(eps_file, subparsers_built, monkeypatch, capsys):
    argv = ["classify", eps_file, "--json"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    subparsers_built.clear()
    monkeypatch.setattr("sys.argv", ["tritensor", *argv])
    assert run() == 0
    assert capsys.readouterr().out == expected
    assert subparsers_built == ["classify"]


# ---------------------------------------------------------------------------
# cold processes: main ends each one once its report is out


def child(args: list[str], prefix=(sys.executable,), **env) -> subprocess.CompletedProcess:
    """``python *args`` (started through ``prefix``) on this checkout's
    ``src``, buffered unless ``env`` says otherwise, with help wrapped at
    80 columns; any exit code."""
    base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, base.get("PYTHONPATH"))))
    return subprocess.run([*prefix, *args], env={**base, "COLUMNS": "80", **env},
                          capture_output=True, text=True, timeout=120)


# argv with {sym}, {rank_one}, {missing} and {out} for paths under tmp_path
CHILD_CASES = {
    "report": (["z-eigen", "{sym}", "--json"], 0),
    "out": (["l-inverse", "{sym}", "--json", "--out", "{out}"], 0),
    "validation": (["classify", "{missing}"], 2),
    "singular": (["l-inverse", "{rank_one}"], 3),
    "help": (["--help"], 0),
    "unknown": (["bogus", "{sym}"], 2),
}


@pytest.mark.parametrize("case", CHILD_CASES)
def test_a_process_prints_and_writes_what_run_does(case, tmp_path, monkeypatch, capsys):
    v = np.array([0.6, 0.0, -0.8])
    paths = {
        "{sym}": write_tensor(tmp_path / "sym.json", tt.make_fixture("symmetric", 7)),
        "{rank_one}": write_tensor(tmp_path / "r1.json", 2.0 * tt.outer(v, v, v)),
        "{missing}": str(tmp_path / "missing.json"),
        "{out}": str(tmp_path / "out.json"),
    }
    template, code = CHILD_CASES[case]
    argv = [paths.get(arg, arg) for arg in template]
    out = Path(paths["{out}"])

    def written() -> bytes | None:
        data = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return data

    proc = child(["-m", "tritensor", *argv])
    cold = (proc.returncode, proc.stdout, proc.stderr, written())
    monkeypatch.setenv("COLUMNS", "80")
    warm = (run(argv), *capsys.readouterr(), written())
    assert cold == warm
    assert cold[0] == code and (cold[3] is not None) == (case == "out")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_exits_2_with_one_line(unbuffered, eps_file):
    # the read end of the child's stdout pipe is closed before it writes:
    # unbuffered, its write fails; buffered, its flush does
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tritensor", "l-eigen", eps_file],
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": unbuffered},
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (
        2, "ValidationError: <stdout>: cannot write: Broken pipe\n"
    )


def test_a_process_without_stdout_exits_2_unless_it_writes_a_file(eps_file, tmp_path):
    # descriptor 1 closed before python starts leaves sys.stdout None
    out = tmp_path / "out.txt"
    closed = ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable]
    proc = child(["-m", "tritensor", "l-eigen", eps_file], prefix=closed)
    assert (proc.returncode, proc.stderr) == (
        2, "ValidationError: <stdout>: cannot write: no standard output\n"
    )
    proc = child(["-m", "tritensor", "l-eigen", eps_file, "--out", str(out)], prefix=closed)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_text().startswith("l-eigen decomposition of levi-civita\n")


def test_atexit_callbacks_run_once_after_the_report(eps_file):
    # a wrapper script's callback runs once, after the report, and what it
    # prints is flushed; an exception out of run takes Python's usual way
    # out, traceback and exit code 1, where the interpreter runs it once
    wrapper = (
        "import atexit, sys\n"
        "from tritensor import cli\n"
        "atexit.register(print, 'callback')\n"
        "if sys.argv[1] == 'raise':\n"
        "    cli.run = lambda: 1 / 0\n"
        "sys.argv = ['tritensor', 'l-eigen', sys.argv[2]]\n"
        "sys.exit(cli.main())\n"
    )
    report = child(["-m", "tritensor", "l-eigen", eps_file]).stdout
    proc = child(["-c", wrapper, "report", eps_file])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, report + "callback\n", "")
    proc = child(["-c", wrapper, "raise", eps_file])
    assert (proc.returncode, proc.stdout) == (1, "callback\n")
    assert proc.stderr.startswith("Traceback") and proc.stderr.endswith(
        "ZeroDivisionError: division by zero\n"
    )
