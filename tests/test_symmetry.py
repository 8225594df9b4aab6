import numpy as np
import pytest

import tritensor as tt
from tritensor import symmetry
from tritensor.errors import UnsupportedClass
from tritensor.symmetry import FIXTURE_CLASSES

from helpers import random_hyper3, random_vec

# flags implied by construction for each fixture class
EXPECTED_FLAG = {
    "right_symmetric": "right_symmetric",
    "left_symmetric": "left_symmetric",
    "centrally_symmetric": "centrally_symmetric",
    "symmetric": "symmetric",
    "cyclically_symmetric": "cyclically_symmetric",
    "right_anti": "right_anti",
    "left_anti": "left_anti",
    "centrally_anti": "centrally_anti",
    "totally_anti": "totally_anti",
    "traceless": "traceless",
    "selectively_right": "selectively_right",
    "selectively_left": "selectively_left",
    "primarily_symmetric": "symmetric",
    "primarily_cyclically_symmetric": "cyclically_symmetric",
}


def test_classify_levi_civita():
    rep = tt.classify(tt.levi_civita())
    assert rep.totally_anti
    assert rep.right_anti and rep.left_anti and rep.centrally_anti
    assert rep.cyclically_symmetric
    assert not rep.partially_symmetric
    assert not rep.symmetric
    assert rep.traceless


def test_classify_rank_one_right_symmetric():
    x, y = random_vec(0), random_vec(1)
    rep = tt.classify(tt.outer(x, y, y))
    assert rep.right_symmetric
    assert rep.partially_symmetric
    assert not rep.left_symmetric


def test_classify_eigenframe_cubes_symmetric():
    a = tt.make_fixture("primarily_symmetric", 9)
    rep = tt.classify(a)
    assert rep.symmetric and rep.cyclically_symmetric and rep.partially_symmetric


def test_classify_zero_tensor_everything_true():
    rep = tt.classify(np.zeros((3, 3, 3)))
    for key, value in rep.as_dict().items():
        if key == "tol":
            continue
        assert value is True, key


def test_classify_generic_tensor_everything_false():
    rep = tt.classify(random_hyper3(123))
    for key, value in rep.as_dict().items():
        if key == "tol":
            continue
        assert value is False, key


@pytest.mark.parametrize("a", [np.zeros((3, 3, 3)), random_hyper3(123), tt.levi_civita()])
def test_report_as_dict_matches_dataclasses_asdict(a):
    # the same keys in the same order, with the same values, and a new dict each call
    rep = tt.classify(a, 1e-9)
    assert list(rep.as_dict().items()) == list(rep._asdict().items())
    assert rep.as_dict() is not rep.as_dict()


@pytest.mark.parametrize("klass", FIXTURE_CLASSES)
def test_fixture_classified_for_100_seeds(klass):
    flag = EXPECTED_FLAG[klass]
    for seed in range(100):
        a = tt.make_fixture(klass, seed)
        assert np.linalg.norm(a) > 0.0
        rep = tt.classify(a)
        assert getattr(rep, flag), f"{klass} seed {seed}"


def test_fixture_classes_keep_their_order():
    # benchmark and audit inputs draw one fixture per class in this order
    assert FIXTURE_CLASSES == tuple(EXPECTED_FLAG)


@pytest.mark.parametrize("klass", symmetry._PROJECTIONS)
def test_fixture_projections_are_idempotent(klass):
    # exact for the pair and selective averages, about 1e-16 for the rest
    project = symmetry._PROJECTIONS[klass]
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = rng.standard_normal((3, 3, 3))
        once = project(g)
        assert np.linalg.norm(project(once) - once) <= 1e-15 * np.linalg.norm(g)


@pytest.mark.parametrize("c", [1e-12, 2.0**-40, 1e160])
def test_classify_is_scale_free(c):
    # the bound is tol * ||a||: an absolute floor below norm 1 made every
    # flag true at norm 1e-12, and the norm overflowed near 1e160
    for klass in FIXTURE_CLASSES:
        a = np.asarray(tt.make_fixture(klass, 0))
        assert tt.classify(c * a) == tt.classify(a), klass
        selective = tt.selective_symmetry_via_levi_civita(a)
        assert tt.selective_symmetry_via_levi_civita(c * a) == selective, klass


def test_fixture_determinism_and_unknown_class():
    a = tt.make_fixture("symmetric", 42)
    b = tt.make_fixture("symmetric", 42)
    assert np.array_equal(a, b)
    with pytest.raises(UnsupportedClass):
        tt.make_fixture("weirdly_symmetric", 0)


def test_totally_anti_fixture_is_multiple_of_levi_civita():
    eps = np.asarray(tt.levi_civita())
    for seed in range(20):
        a = tt.make_fixture("totally_anti", seed)
        coeff = tt.inner(a, eps) / 6.0
        assert np.allclose(a, coeff * eps, atol=1e-14)
        assert abs(coeff) > 0.0


def test_implication_lattice():
    inputs = [tt.make_fixture(k, s) for k in FIXTURE_CLASSES for s in range(5)]
    inputs += [random_hyper3(s) for s in range(20)]
    inputs.append(np.zeros((3, 3, 3)))
    inputs.append(np.asarray(tt.levi_civita()))
    for a in inputs:
        rep = tt.classify(a)
        if rep.symmetric:
            assert rep.right_symmetric and rep.left_symmetric and rep.centrally_symmetric
        assert rep.partially_symmetric == (
            rep.right_symmetric or rep.left_symmetric or rep.centrally_symmetric
        )
        assert rep.symmetric == (rep.partially_symmetric and rep.cyclically_symmetric)
        if rep.totally_anti:
            assert rep.right_anti and rep.left_anti and rep.centrally_anti
        if rep.right_symmetric:
            assert rep.selectively_right
        if rep.left_symmetric:
            assert rep.selectively_left


def test_classify_flags_rotation_invariant_excluding_selective():
    skip = {"selectively_right", "selectively_left", "tol"}
    for klass in FIXTURE_CLASSES:
        a = tt.make_fixture(klass, 3)
        base = tt.classify(a, 1e-9).as_dict()
        for r in range(100):
            rotated = tt.rotate(a, tt.random_rotation(r))
            rep = tt.classify(rotated, 1e-9).as_dict()
            for key, value in base.items():
                if key in skip:
                    continue
                assert rep[key] == value, f"{klass} rotation {r} flag {key}"


def test_selective_agreement_on_mixed_inputs():
    cases = []
    for s in range(100):
        cases.append(random_hyper3(s))
        cases.append(tt.make_fixture("selectively_right", s))
        cases.append(tt.make_fixture("selectively_left", s))
        cases.append(tt.make_fixture("right_symmetric", s))
        cases.append(tt.make_fixture("symmetric", s))
    for a in cases:
        rep = tt.classify(a)
        right, left = tt.selective_symmetry_via_levi_civita(a)
        assert right == rep.selectively_right
        assert left == rep.selectively_left


def test_selective_examples():
    a = tt.make_fixture("right_symmetric", 8)
    right, _ = tt.selective_symmetry_via_levi_civita(a)
    assert right
    assert tt.selective_symmetry_via_levi_civita(tt.levi_civita()) == (False, False)
    assert tt.selective_symmetry_via_levi_civita(np.zeros((3, 3, 3))) == (True, True)


def test_full_epsilon_contraction_detects_full_right_symmetry():
    # the matrix norm of prod2(A, E) vanishes exactly for fully right-side
    # symmetric tensors; a selectively-right-only tensor keeps a zero
    # diagonal but a nonzero full product
    eps = tt.levi_civita()
    full = tt.make_fixture("right_symmetric", 2)
    assert np.linalg.norm(tt.prod2(full, eps)) <= 1e-12
    partial = tt.make_fixture("selectively_right", 2)
    assert not tt.classify(partial).right_symmetric
    assert np.abs(np.diagonal(tt.prod2(partial, eps))).max() <= 1e-12
    assert np.linalg.norm(tt.prod2(partial, eps)) > 1e-3


def test_selective_flags_are_not_rotation_invariant():
    # the all-distinct conditions depend on the basis; a rotation generically
    # destroys them unless the full symmetry holds
    a = tt.make_fixture("selectively_right", 4)
    rotated = tt.rotate(a, tt.random_rotation(0))
    assert tt.classify(a).selectively_right
    assert not tt.classify(rotated).selectively_right


def test_report_serializes_flat():
    doc = tt.classify(tt.levi_civita()).as_dict()
    assert set(doc) == {
        "right_symmetric",
        "left_symmetric",
        "centrally_symmetric",
        "partially_symmetric",
        "symmetric",
        "cyclically_symmetric",
        "right_anti",
        "left_anti",
        "centrally_anti",
        "totally_anti",
        "traceless",
        "selectively_right",
        "selectively_left",
        "tol",
    }
    assert doc["tol"] == 1e-10


def _two_gather_flags(a, tol):
    """classify's flags as taken before the deviations came from one
    gather: a scaled by 2^-exp with np.frexp, the bound tol * np.linalg.norm,
    one gather for |a - swap|, one for |a + swap|, the traces by einsum and
    the selective entries by fancy indexing."""
    a = np.asarray(a, dtype=float)
    a = np.ldexp(a, -np.frexp(np.abs(a).max())[1])
    bound = tol * float(np.linalg.norm(a))
    flat = a.reshape(27)
    dev = np.abs(flat - flat.take(symmetry._gather(tuple(symmetry._SWAPS))))
    anti = np.abs(flat + flat.take(symmetry._gather(symmetry._PAIR_SWAPS)))
    right, left, central, cyclic = (dev.max(axis=1) <= bound).tolist()
    right_anti, left_anti, central_anti = (anti.max(axis=1) <= bound).tolist()
    return {
        "right_symmetric": right,
        "left_symmetric": left,
        "centrally_symmetric": central,
        "partially_symmetric": right or left or central,
        "symmetric": right and left and central,
        "cyclically_symmetric": cyclic,
        "right_anti": right_anti,
        "left_anti": left_anti,
        "centrally_anti": central_anti,
        "totally_anti": right_anti and left_anti and central_anti,
        "traceless": float(np.abs(np.einsum("ijj->i", a)).max()) <= bound,
        "selectively_right": float(dev[0, symmetry._SELECTIVE["right"]].max()) <= bound,
        "selectively_left": float(dev[1, symmetry._SELECTIVE["left"]].max()) <= bound,
        "tol": tol,
    }


@pytest.mark.parametrize("tol", [1e-10, 1e-8])
def test_classify_equals_the_two_gather_flags_near_the_bound(tol):
    # entrywise perturbations of half and twice the bound put every flag
    # of a fixture on both sides of it, at scales across the float64 range
    rng = np.random.default_rng(9)
    flips = 0
    for klass in FIXTURE_CLASSES:
        for seed in range(12):
            a = np.asarray(tt.make_fixture(klass, seed))
            for size in (0.5, 2.0):
                e = rng.uniform(-1.0, 1.0, (3, 3, 3))
                perturbed = a + size * tol * float(np.linalg.norm(a)) * e
                for c in (1.0, 1e-300, 2.0**-60, 1e160):
                    want = _two_gather_flags(c * perturbed, tol)
                    assert tt.classify(c * perturbed, tol).as_dict() == want
                    flips += want != _two_gather_flags(c * a, tol)
    assert flips > 0
