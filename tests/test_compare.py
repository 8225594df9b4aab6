"""Smoke test of ``scripts/compare.py``: the working tree against itself.

It runs the script's per-case helpers on a few inputs, so a library
change that breaks a hook the script uses (the SVD and enumeration
memos' ``cache_clear``, ``varspec._bounded``, ``core._scaled``, the
library errors, the CLI's ``run``) fails here rather than at the next
measurement.
"""

import importlib
import importlib.util
import itertools
import os
import sys
from pathlib import Path

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
    assert set(solvers["laps"]) == {*compare.SOLVERS, compare.AUDIT_ITEM}
    for solver, laps in solvers["laps"].items():
        assert set(laps["change"]) == {"solve_us_p50", "solve_ms_sum"}
        assert laps["change"]["solve_ms_sum"] > 0.0
    # each timed solve starts from a cleared memo, so none hits it
    enumerations = trees["change"].varspec._pairs_of_bytes
    compare.run_solver(trees["change"], "max_c_eigenvalue", pairs[0])
    compare.run_solver(trees["change"], "max_c_eigenvalue", pairs[0])
    assert enumerations.cache_info().hits == 0
    compare.run_solver(trees["change"], compare.AUDIT_ITEM, pairs[0])
    # mu_1 and nu_1 of a symmetric pair take eta_1's Z enumeration
    assert enumerations.cache_info().hits == 2

    solves = [(s, pairs[0]) for s in compare.SOLVERS]
    values = compare.by_value(compare.outcomes(trees, solves))
    assert (values["methods"], values["rose"], values["fell"], values["equal"]) == (
        {"enumerated": 3}, [], [], True
    )
    assert values["sha256_equal"]
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
    assert part["change"]["solve_ms_sum"] > 0.0

    clis = {key: importlib.import_module(f"{name}.cli") for key, name in TWINS.items()}
    # the first printed fixture and every report on it
    cli_records = 1 + len(compare.REPORTS)
    hashes = [
        compare.sha256_of(itertools.islice(compare._cli_records(tt, clis[key]), cli_records))
        for key, tt in trees.items()
    ]
    assert hashes[0] == hashes[1]
