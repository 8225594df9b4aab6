import json
from pathlib import Path

import numpy as np
import pytest

import tritensor as tt
from tritensor.cli import SUBCOMMANDS, run

from helpers import random_hyper3


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
    "invariants": ["{eps}"],
    "decompose": ["{central}", "--side", "central"],
    "nullspace": ["{eps}"],
    "invariance-check": ["{sym}", "--rotations", "2", "--restarts", "8"],
    "fixture": ["symmetric", "--seed", "7"],
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_runs_in_both_modes(command, tmp_path, capsys):
    paths = {
        "{eps}": write_tensor(tmp_path / "eps.json", tt.levi_civita()),
        "{sym}": write_tensor(tmp_path / "sym.json", tt.make_fixture("symmetric", 7)),
        "{central}": write_tensor(tmp_path / "c.json", tt.make_fixture("centrally_symmetric", 7)),
        "{matrix}": str(tmp_path / "v.json"),
    }
    v = tt.contract_one(tt.levi_civita(), np.array([0.3, -1.2, 0.8]), 1)
    Path(paths["{matrix}"]).write_text(json.dumps(v.tolist()))
    argv = [command, *(paths.get(arg, arg) for arg in WIRED[command])]
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
    assert run(["singular", eps_file, "--json", "--restarts", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"kind", "value", "x", "y", "z", "residual", "starts_converged", "config"}
    assert doc["kind"] == "singular"
    assert abs(doc["value"] - 1.0) <= 1e-8


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
        ["invariance-check", str(path), "--rotations", "5", "--seed", "7",
         "--restarts", "12", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"] == {"rotations": 5, "seed": 7, "restarts": 12}
    assert set(doc["drift"]) >= {"trU", "trU2", "sigma_1", "eta_1", "mu_1", "nu_1"}
    assert doc["max_drift"] <= 1e-8


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


def test_unrepresentable_invariants_exit_2(tmp_path, capsys):
    huge = write_tensor(tmp_path / "huge.json", 1e60 * random_hyper3(1))
    assert run(["invariants", huge]) == 2
    assert "Unrepresentable" in capsys.readouterr().err


def test_no_convergence_exit_code(tmp_path, capsys):
    a = tt.make_fixture("symmetric", 0)
    path = write_tensor(tmp_path / "s.json", a)
    assert run(["z-eigen", path, "--max-iters", "1"]) == 4
    assert "NoConvergence" in capsys.readouterr().err


def test_nan_rejected_with_field_path(tmp_path, capsys):
    entries = np.zeros((3, 3, 3)).tolist()
    entries[1][2][0] = None
    doc = {"dim": 3, "order": 3, "entries": entries}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert run(["classify", str(path)]) == 2
    assert "entries[1][2][0]" in capsys.readouterr().err


def test_byte_identical_reports(eps_file, capsys):
    assert run(["singular", eps_file, "--json", "--restarts", "6", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert run(["singular", eps_file, "--json", "--restarts", "6", "--seed", "9"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert run(["l-eigen", eps_file]) == 0
    third = capsys.readouterr().out
    assert run(["l-eigen", eps_file]) == 0
    assert third == capsys.readouterr().out


def test_stdin_input(eps_file, monkeypatch, capsys, tmp_path):
    import io, sys

    payload = Path(eps_file).read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    assert run(["l-eigen", "-"]) == 0
    assert "1.4142135623730951" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["singular", "{eps}", "--restarts", "-1"],
        ["singular", "{eps}", "--restarts", "0"],
        ["singular", "{eps}", "--max-iters", "0"],
        ["singular", "{eps}", "--seed", "-1"],
        ["singular", "{eps}", "--tol", "-1"],
        ["z-eigen", "{eps}", "--tol", "nan"],
        ["classify", "{eps}", "--tol", "-1"],
        ["nullspace", "{eps}", "--tol", "inf"],
        ["fixture", "symmetric", "--seed", "-1"],
        ["invariance-check", "{eps}", "--seed", "-1"],
        ["invariance-check", "{eps}", "--rotations", "-2"],
        ["invariance-check", "{eps}", "--restarts", "0"],
    ],
)
def test_out_of_range_arguments_exit_2(argv, eps_file, capsys):
    option = argv[-2]
    assert run([eps_file if arg == "{eps}" else arg for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: argument {option}:" in err
