"""Smoke test of ``scripts/compare.py``: the working tree against itself.

It runs the script's per-case helpers on a few inputs, so a library
change that breaks a hook the script uses (``core._tensor`` and the
entry ``core._last`` of its one memo, which holds the SVD and the route,
``varspec._route`` and the route's ``runs`` field, ``varspec._bounded``,
``core._scaled``, the library errors, the CLI's ``run``, the modules a
CLI process imports) fails here rather than at the next measurement.
"""

import functools
import importlib
import importlib.util
import itertools
import json
import os
import sys
import types
import typing
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TWINS = {"parent": "_compare_twin_parent", "change": "_compare_twin_change"}


@pytest.fixture
def compare(monkeypatch):
    """The script loaded by path, with the environment, ``sys`` settings
    and modules it touches restored afterwards."""
    monkeypatch.setattr(os, "environ", os.environ.copy())
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("_compare_script", ROOT / "scripts" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before:
        if name.split(".")[0] in TWINS.values():
            del sys.modules[name]


def test_compare_reports_every_layer_and_solver_with_equal_hashes(compare, monkeypatch):
    src = ROOT / "src" / "tritensor"
    trees = {key: compare.load_tree(src, name) for key, name in TWINS.items()}

    inputs = compare.layer_inputs(trees["parent"])[:2]
    layers = compare.layer_laps(trees, inputs, rounds=1)
    assert set(layers["laps"]) == {*compare.LAYERS, "analyze_item"}
    assert all(layers["laps"][layer]["sha256_equal"] for layer in compare.LAYERS)
    assert layers["sha256"]["parent"] == layers["sha256"]["change"]

    pairs = compare.audit_pairs(trees["parent"])[:1]
    solvers = compare.solver_laps(trees, pairs, rounds=1)
    assert set(solvers) == {"pairs", "rounds", "laps"}
    assert set(solvers["laps"]) == {*compare.SOLVERS, compare.AUDIT_ITEM}
    for solver, laps in solvers["laps"].items():
        assert set(laps["change"]) == {"solve_us_p50", "solve_ms_sum"}
        assert laps["change"]["solve_ms_sum"] > 0.0
    # each timed solve starts from a cleared memo, which it fills once: the
    # audit item's mu_1 and nu_1 read the entry that its eta_1 filled
    change = trees["change"]
    scalings, scaled = [], change.core._scaled
    monkeypatch.setattr(change.core, "_scaled", lambda *args: scalings.append(1) or scaled(*args))
    for solver in ("max_c_eigenvalue", "max_c_eigenvalue", compare.AUDIT_ITEM):
        scalings.clear()
        compare.run_solver(change, solver, pairs[0])
        assert scalings == [1]
    # one Z enumeration for the symmetric pair, whose route mu_1 and nu_1 read
    assert list(change.varspec._route(pairs[0]).runs) == [("z_eigen", (0, 1, 2))]
    # the analyze chain, from a cleared memo, scales its tensor once
    scalings.clear()
    compare.run_layer(change, "analyze_chain", inputs[0])
    assert scalings == [1]
    # a tree without core._tensor: its one-entry lru_cache memos are cleared
    memo, table = (functools.lru_cache(maxsize=n)(lambda key: key) for n in (1, None))
    memo(b"a"), table(b"a")
    old = types.SimpleNamespace(core=types.SimpleNamespace(), spectral=types.SimpleNamespace(
        _svd=memo, np=np), varspec=types.SimpleNamespace(_table=table))
    compare.clear_memos(old)
    assert (memo.cache_info().currsize, table.cache_info().currsize) == (0, 1)

    solves = [(s, pairs[0]) for s in compare.SOLVERS]
    values = compare.by_value(compare.outcomes(trees, solves))
    assert (values["methods"], values["rose"], values["fell"], values["equal"]) == (
        {"enumerated": 3}, [], [], True
    )
    assert values["sha256_equal"] and values["differing_fields"] == {}
    # a library error is an outcome: hashed by its repr, and equal when both trees raise it
    zero = [("max_c_eigenvalue", pairs[0]), ("c_spectrum", 0.0 * pairs[0])]
    out = compare.outcomes(trees, zero)
    assert isinstance(out["change"][1], trees["change"].Uncertified)
    values = compare.by_value(out)
    assert (values["methods"]["Uncertified"], values["fell"], values["sha256_equal"]) == (
        1, [], True
    )
    out["change"][1] = out["change"][0]
    values = compare.by_value(out)
    assert values["rose"] == [{"solve": 1, "method": "enumerated",
                               "parent": repr(out["parent"][1]),
                               "change": out["change"][0].value}]
    assert not values["sha256_equal"]
    # the first Gaussian tensor and Levi-Civita, which no enumeration serves
    tensors = compare.bounded_inputs(trees["parent"])
    assert len(tensors) == 221
    monkeypatch.setattr(compare, "bounded_inputs", lambda tt: tensors[19:22])
    part = compare.bounded(trees, rounds=1)
    assert (part["tensors"], part["methods"], part["equal"]) == (3, {"bounded": 3}, True)
    assert part["relative_to_parent"] == [0.0] * 3
    assert part["sha256_equal"]
    assert part["gap"][0] <= 1e-8 and part["gap"][1] <= 1e-3
    assert max(part["evaluations"]) <= trees["change"].varspec._BUDGET
    assert set(part["solve_ms"]) == {"parent", "change"}
    # one fallback row: 3 v (x) v (x) v plus 1e-12 noise, which no enumeration certifies
    row = compare.fallback_inputs(trees["parent"])["max_z_eigenvalue"][2:3]
    monkeypatch.setattr(compare, "fallback_inputs", lambda tt: {"max_z_eigenvalue": row})
    fallback = compare.fallback(trees, rounds=1)
    part = fallback["max_z_eigenvalue"]
    assert (part["methods"], part["fell"], fallback["equal"]) == ({"bounded": 1}, [], True)
    assert part["sha256_equal"] and fallback["sha256_equal"]
    assert part["audit_item_sha256_equal"]
    assert part["change"]["solve_ms_sum"] > 0.0 and part["change"]["audit_item_ms_sum"] > 0.0

    clis = {key: importlib.import_module(f"{name}.cli") for key, name in TWINS.items()}
    # the first printed fixture and every report on it
    cli_records = 1 + len(compare.REPORTS)
    hashes = [
        compare.sha256_of(itertools.islice(compare._cli_records(tt, clis[key]), cli_records))
        for key, tt in trees.items()
    ]
    assert hashes[0] == hashes[1]


def test_compare_cli_part_times_cold_processes_of_both_trees(compare, monkeypatch, tmp_path):
    twin = compare.load_tree(ROOT / "src" / "tritensor", TWINS["parent"])
    tensor = compare.cli_tensor_file(twin, tmp_path / "cli")
    cases = ("z-eigen", "l-inverse", "l-inverse rank-one")
    monkeypatch.setattr(compare, "CLI_SUBCOMMANDS",
                        {case: compare.CLI_SUBCOMMANDS[case] for case in cases})
    sources = {"parent": ROOT / "src", "change": ROOT / "src"}
    part = compare.cli_processes(sources, tensor, processes=1)
    assert (part["processes"], set(part["subcommands"]), part["equal"]) == (1, set(cases), True)
    for case, stats in part["subcommands"].items():
        assert stats["identical"] and "max_relative_difference" not in stats
        modules = stats["modules_us"]["change"]
        assert ("tritensor.varspec" in modules) == (case == "z-eigen")
        assert {"tritensor", "tritensor.cli"} <= set(modules)
        assert stats["change"]["tritensor_import_us"] == sum(modules.values())
        assert stats["change"]["process_ms"] > 0.0
    assert "tritensor.varspec" in part["modules_us"]["parent"]
    assert not list(tensor.parent.glob("out.json"))  # each --out file is read and deleted
    # standard error is compared without the -X importtime lines: the one
    # line of the rank-one tensor's exit 3
    _, out = compare.run_cli(ROOT / "src", "l-inverse rank-one", tensor)
    assert (out[0], out[1], out[3]) == (3, b"", b"")
    assert out[2].startswith(b"SingularTensor: tensor is singular") and out[2].count(b"\n") == 1

    # a byte that differs between the trees clears "equal"; output that
    # varies between one tree's processes stops the run
    sources = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    monkeypatch.setattr(compare, "run_cli",
                        lambda src, sub, tensor: ((1,), (0, src.name.encode(), b"", ())))
    monkeypatch.setattr(compare, "CLI_SUBCOMMANDS",
                        {"l-inverse": compare.CLI_SUBCOMMANDS["l-inverse"]})
    part = compare.cli_processes(sources, tensor, processes=2)
    assert (part["subcommands"]["l-inverse"]["identical"], part["equal"]) == (False, False)
    stats = part["subcommands"]["l-inverse"]
    assert stats["max_relative_difference"] is stats["max_relative_difference_at"] is None
    # JSON that differs in a last-ulp number reports that difference
    doc = {"value": 1.0, "x": [0.25, -0.5], "method": "enumerated"}
    texts = {"parent": json.dumps(doc),
             "change": json.dumps({**doc, "x": [0.25, -0.5000000000000001]})}
    monkeypatch.setattr(compare, "run_cli",
                        lambda src, sub, tensor: ((1,), (0, texts[src.name].encode(), b"", ())))
    part = compare.cli_processes(sources, tensor, processes=2)
    stats = part["subcommands"]["l-inverse"]
    assert (stats["identical"], part["equal"]) == (False, False)
    assert stats["max_relative_difference"] == 2.0**-53 / 0.5000000000000001
    assert stats["max_relative_difference_at"] == "x[1]"
    outputs = iter([b"a", b"a", b"b"])
    monkeypatch.setattr(compare, "run_cli",
                        lambda src, sub, tensor: ((1,), (0, next(outputs), b"", ())))
    with pytest.raises(RuntimeError, match="varies between rounds"):
        compare.cli_processes(sources, tensor, processes=2)


def test_solve_hashes_read_the_fields_both_trees_have(compare):
    # a field that one tree's triples no longer have leaves the hashes equal
    class Old(typing.NamedTuple):
        value: float
        x: np.ndarray
        starts_converged: int
        method: str

    class New(typing.NamedTuple):
        value: float
        x: np.ndarray
        method: str

    x = np.array([0.6, 0.8, 0.0])
    out = {"parent": [Old(1.5, x, 1, "enumerated")], "change": [New(1.5, x, "enumerated")]}
    values = compare.by_value(out)
    assert values["sha256_equal"] and values["equal"] and values["differing_fields"] == {}
    assert compare.record_of(out["parent"][0]) != compare.record_of(out["change"][0])
    # a shared field that differs still shows, and is named
    out["change"] = [New(1.5, -x, "enumerated")]
    values = compare.by_value(out)
    assert not values["sha256_equal"]
    assert values["differing_fields"] == {"x": {"solves": 1}}
    out["change"] = [New(1.5 + 2.0**-52, x, "enumerated")]
    assert compare.by_value(out)["differing_fields"] == {
        "value": {"solves": 1, "max_abs_difference": 2.0**-52}}


def test_json_gap_reads_numeric_leaves_only(compare):
    doc = json.dumps({"a": [1, 2.0, {"b": -4.0}], "name": "t", "ok": True})
    same = (0, doc, "", b"")
    assert compare.json_gap(same, same) == (0.0, "")
    # integers and floats compare by value, the largest relative difference wins
    moved = doc.replace("-4.0", "-4.000000000000001").replace("2.0", "2")
    gap = (4.000000000000001 - 4.0) / 4.000000000000001
    assert compare.json_gap(same, (0, moved, "", b"")) == (gap, "a[2].b")
    assert compare.json_gap((0, "[0, 0.0]"), (0, "[0.0, 1e-300]")) == (1.0, "[1]")
    # the --out bytes are read as JSON too
    assert compare.json_gap((0, "", b"[3.0]"), (0, "", b"[3.0000000000000004]"))[0] > 0.0
    # another exit code, text that is not JSON, another string, key, length or type
    for code, text in ((2, doc), (0, "usage"), (0, doc.replace('"t"', '"u"')),
                       (0, doc.replace('"b"', '"c"')), (0, doc.replace("2.0, ", "")),
                       (0, doc.replace("true", "1"))):
        assert compare.json_gap(same, (code, text, "", b"")) is None


def test_compare_hashes_parser_output_and_times_in_process_runs(compare, monkeypatch, tmp_path):
    trees = {key: compare.load_tree(ROOT / "src" / "tritensor", name) for key, name in TWINS.items()}
    clis = {key: importlib.import_module(f"{name}.cli") for key, name in TWINS.items()}
    cases = compare.parser_cases(clis["change"])
    assert len(cases) == len(compare.PARSER_CASES) + 3 * len(clis["change"].SUBCOMMANDS)
    # with no report and no fixture class, the CLI records are the three
    # Levi-Civita fixtures and then the parser cases
    monkeypatch.setattr(compare, "REPORTS", ())
    bare = types.SimpleNamespace(FIXTURE_CLASSES=())
    records = {key: list(compare._cli_records(bare, cli)) for key, cli in clis.items()}
    assert records["parent"] == records["change"]
    assert [json.loads(r)[0] for r in records["change"][3:]] == cases
    for record in records["change"][3:]:
        argv, (code, out, err) = json.loads(record)
        helped = "-h" in argv or "--help" in argv
        assert code == (0 if helped else 2)
        assert (out if helped else err).startswith("usage: tritensor")
    assert json.loads(records["change"][-1])[1][2].endswith(
        "tritensor: error: unrecognized arguments: --bogus\n"
    )

    tensor = compare.cli_tensor_file(trees["parent"], tmp_path / "cli")
    part = compare.cli_runs(clis, tensor, rounds=1)
    assert (part["rounds"], part["equal"]) == (1, True)
    assert list(part["subcommands"]) == list(compare.CLI_SUBCOMMANDS)
    for stats in part["subcommands"].values():
        assert stats["identical"] and stats["change"]["run_us"] > 0.0
    # the --out file is part of the output, read and deleted after each run
    _, out = compare.run_in_process(clis["change"], "l-inverse", tensor)
    assert out[:3] == (0, "", "") and json.loads(out[3])["name"] == "t-l-inverse"
    _, out = compare.run_in_process(clis["change"], "l-inverse rank-one", tensor)
    assert (out[0], out[1], out[3]) == (3, "", b"") and out[2].startswith("SingularTensor: ")
    assert not list(tensor.parent.glob("run-out.json"))
    # a byte that differs between the trees clears "equal"; output that
    # varies between one tree's runs stops the run
    monkeypatch.setattr(compare, "run_in_process", lambda cli, sub, tensor: ((1,), cli.__name__))
    part = compare.cli_runs(clis, tensor, rounds=2)
    assert (part["subcommands"]["classify"]["identical"], part["equal"]) == (False, False)
    assert part["subcommands"]["classify"]["max_relative_difference"] is None
    outputs = itertools.count()
    monkeypatch.setattr(compare, "run_in_process", lambda cli, sub, tensor: ((1,), next(outputs)))
    with pytest.raises(RuntimeError, match="varies between rounds"):
        compare.cli_runs(clis, tensor, rounds=2)
