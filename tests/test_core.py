import json

import numpy as np
import pytest

import tritensor as tt
from tritensor import core
from tritensor.errors import NotOrthogonal
from tritensor.symmetry import _swap_symmetric

from helpers import (
    loop_contract_full,
    loop_contract_mat,
    loop_contract_one,
    loop_contract_two,
    loop_inner,
    loop_prod2,
    loop_prod4,
    random_hyper3,
    random_vec,
)

E1, E2, E3 = np.eye(3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "check, shape",
    [
        (tt.classify, (3, 3, 3)),
        (tt.selective_symmetry_via_levi_civita, (3, 3, 3)),
        (tt.is_symmetric, (3, 3)),
        (tt.sym_eig3, (3, 3)),
        (tt.invariants, (3, 3, 3)),
        (tt.l_eigen, (3, 3, 3)),
        (tt.l_inverse, (3, 3, 3)),
        (tt.rank_and_nullspace, (3, 3, 3)),
        (tt.eig_decompose_partial, (3, 3, 3)),
    ],
)
def test_helpers_reject_non_finite_entries(check, shape, bad):
    # the scale-free helpers all pass through one power-of-two scaling,
    # which refuses a non-finite peak instead of returning all-False
    # flags, a misleading Unrepresentable or an SVD that fails to converge
    a = np.ones(shape)
    a.flat[1] = bad
    with pytest.raises(ValueError, match="finite"):
        check(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "layer",
    [tt.kernel, tt.kernel_triple, tt.is_orthogonal_tensor, lambda a: tt.rotate(a, np.eye(3))],
)
def test_unscaled_layers_reject_non_finite_entries(layer, bad):
    # these take no power-of-two scale, so they check the entries themselves
    a = np.ones((3, 3, 3))
    a.flat[1] = bad
    with pytest.raises(ValueError, match="finite"):
        layer(a)


def test_package_exports_each_public_name_once():
    # the package namespace is the union of its modules' __all__ lists
    from tritensor import errors, spectral, symmetry, varspec

    modules = (core, errors, spectral, symmetry, varspec)
    # 60, plus ZSpectrum, z_spectrum and Uncertified, plus CSpectrum and c_spectrum
    assert len(tt.__all__) == len(set(tt.__all__)) == 65
    assert set(tt.__all__) == {name for m in modules for name in m.__all__}
    for m in modules:
        for name in m.__all__:
            assert getattr(tt, name) is getattr(m, name)


def test_scale_gate_takes_the_norm_of_np_linalg_norm_bitwise():
    # the callers' bound tol * _frobenius(scaled) is tol * np.linalg.norm(scaled):
    # math.sqrt of the dot product is np.linalg.norm's own formula, in the
    # same memory order, for contiguous and strided inputs alike
    rng = np.random.default_rng(4)
    for n in range(2000):
        a = rng.standard_normal((3, 3, 3)) * 10.0 ** rng.uniform(-300.0, 300.0)
        tol = 10.0 ** rng.uniform(-12.0, -6.0)
        for arr, what in (
            (a, "Hyper3"), (a[0], "Mat3"), (np.asfortranarray(a), "Hyper3"),
            (a.transpose(2, 0, 1), "Hyper3"), (a[:, 1], "Mat3"), (a[1, :, 2], "Vec3"),
        ):
            scaled, exp = core._scaled(arr, what)
            _, want_exp = np.frexp(np.abs(arr).max())
            assert exp == want_exp
            assert scaled.tobytes() == np.ldexp(arr, -want_exp).tobytes()
            assert tol * core._frobenius(scaled) == tol * float(np.linalg.norm(scaled))


def test_constructed_values_are_read_only():
    a = tt.hyper3(np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        a[0, 0, 0] = 1.0
    assert not tt.levi_civita().flags.writeable


def test_levi_civita_entries():
    eps = tt.levi_civita()
    assert eps[0, 1, 2] == 1.0
    assert eps[2, 0, 1] == 1.0
    assert eps[1, 0, 2] == -1.0
    assert eps[0, 0, 1] == 0.0
    assert float(np.sum(eps)) == 0.0


def test_contract_one_levi_civita_example():
    m = tt.contract_one(tt.levi_civita(), E1, 1)
    expected = np.zeros((3, 3))
    expected[1, 2] = 1.0
    expected[2, 1] = -1.0
    assert np.array_equal(m, expected)


def test_contract_one_zero_tensor():
    zero = np.zeros((3, 3, 3))
    for slot in (1, 2, 3):
        assert np.array_equal(tt.contract_one(zero, random_vec(slot), slot), np.zeros((3, 3)))


def test_contract_one_slot3_picks_slice():
    a = random_hyper3(10)
    assert np.allclose(tt.contract_one(a, E2, 3), a[:, :, 1])


def test_contract_one_rejects_bad_slot():
    with pytest.raises(ValueError):
        tt.contract_one(random_hyper3(0), E1, 4)


def test_contract_mat_identity_on_levi_civita():
    assert np.array_equal(
        tt.contract_mat(tt.levi_civita(), np.eye(3), "right"), np.zeros(3)
    )


def test_contract_mat_rank_one():
    x, y, z = random_vec(1), random_vec(2), random_vec(3)
    y /= np.linalg.norm(y)
    z /= np.linalg.norm(z)
    a = tt.outer(x, y, z)
    assert np.allclose(tt.contract_mat(a, np.outer(y, z), "right"), x, atol=1e-14)


def test_contract_two_cross_product():
    assert np.allclose(tt.contract_two(tt.levi_civita(), E2, E3, (2, 3)), E1)


def test_contract_two_antisymmetry_kills_repeated_vector():
    y = random_vec(7)
    assert np.allclose(tt.contract_two(tt.levi_civita(), y, y, (2, 3)), np.zeros(3))


def test_contract_full_levi_civita_signs():
    eps = tt.levi_civita()
    assert tt.contract_full(eps, E1, E2, E3) == 1.0
    assert tt.contract_full(eps, E2, E1, E3) == -1.0


def test_inner_levi_civita():
    eps = tt.levi_civita()
    assert tt.inner(eps, eps) == 6.0
    assert tt.inner(eps, np.zeros((3, 3, 3))) == 0.0


def test_inner_positivity():
    for seed in range(20):
        a = random_hyper3(seed)
        assert tt.inner(a, a) > 0.0
    zero = np.zeros((3, 3, 3))
    assert tt.inner(zero, zero) == 0.0


def test_prod2_levi_civita_identity():
    eps = tt.levi_civita()
    assert np.allclose(tt.prod2(eps, tt.transpose(eps)), 2.0 * np.eye(3))


def test_products_with_zero_factor_vanish():
    zero = np.zeros((3, 3, 3))
    b = random_hyper3(6)
    assert np.array_equal(tt.prod2(zero, b), np.zeros((3, 3)))
    assert np.array_equal(tt.prod4(zero, b), np.zeros((3, 3, 3, 3)))


def test_prod4_orthogonal_middle_contraction():
    x, y, z = E1, E2, E3
    u, v = random_vec(4), random_vec(5)
    a = tt.outer(x, y, z)
    b = tt.outer(E1, u, v)  # middle contraction pairs z with e1, orthogonal
    assert np.allclose(tt.prod4(a, b), np.zeros((3, 3, 3, 3)))


@pytest.mark.parametrize("seed", range(40))
def test_contractions_match_loop_oracles(seed):
    a = random_hyper3(seed)
    b = random_hyper3(seed + 1000)
    u = random_vec(seed + 2000)
    v = random_vec(seed + 3000)
    x = random_vec(seed + 4000)
    tol = 1e-13

    for slot in (1, 2, 3):
        assert np.allclose(
            tt.contract_one(a, u, slot), loop_contract_one(a, u, slot), atol=tol, rtol=0
        )
    m = np.outer(u, v)
    for side in ("left", "right"):
        assert np.allclose(
            tt.contract_mat(a, m, side), loop_contract_mat(a, m, side), atol=tol, rtol=0
        )
    for slots in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
        assert np.allclose(
            tt.contract_two(a, u, v, slots),
            loop_contract_two(a, u, v, slots),
            atol=tol,
            rtol=0,
        )
    assert abs(tt.contract_full(a, x, u, v) - loop_contract_full(a, x, u, v)) <= tol * 10
    assert abs(tt.inner(a, b) - loop_inner(a, b)) <= tol * 10
    assert np.allclose(tt.prod2(a, b), loop_prod2(a, b), atol=tol, rtol=0)
    assert np.allclose(tt.prod4(a, b), loop_prod4(a, b), atol=tol, rtol=0)


def test_outer_variants_agree():
    x, y, z = random_vec(1), random_vec(2), random_vec(3)
    direct = tt.outer(x, y, z)
    assert np.allclose(tt.outer_mv(np.outer(x, y), z), direct)
    assert np.allclose(tt.outer_vm(x, np.outer(y, z)), direct)
    single = tt.outer(E1, E2, E3)
    assert single[0, 1, 2] == 1.0
    assert float(np.abs(single).sum()) == 1.0


def test_outer_mv_identity_example():
    a = tt.outer_mv(np.eye(3), E1)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert a[i, j, k] == (1.0 if (i == j and k == 0) else 0.0)


def test_transpose_is_order_three_bitwise():
    for seed in range(100):
        a = random_hyper3(seed)
        assert np.array_equal(tt.transpose(tt.transpose(tt.transpose(a))), a)


def test_transpose_fixes_levi_civita():
    eps = tt.levi_civita()
    assert np.array_equal(tt.transpose(eps), eps)


def test_transpose_of_rank_one():
    x, y, z = random_vec(11), random_vec(12), random_vec(13)
    assert np.allclose(tt.transpose(tt.outer(x, y, z)), tt.outer(y, z, x))


def test_transposition_identity():
    for seed in range(30):
        a = random_hyper3(seed)
        x, y, z = (random_vec(seed + d) for d in (100, 200, 300))
        lhs = tt.contract_full(a, x, y, z)
        rhs = tt.contract_full(tt.transpose(a), y, z, x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_kernel_form_is_positive_semidefinite():
    for seed in range(50):
        a = random_hyper3(seed)
        u = tt.prod2(a, tt.transpose(a))
        assert np.allclose(u, u.T, atol=1e-14)
        eigs = np.linalg.eigvalsh(u)
        assert eigs.min() >= -1e-12 * max(1.0, np.linalg.norm(u))


def test_rotate_identity():
    a = random_hyper3(3)
    assert np.allclose(tt.rotate(a, np.eye(3)), a)


def test_rotate_levi_civita_sign():
    eps = tt.levi_civita()
    p = tt.random_rotation(5)
    assert np.allclose(tt.rotate(eps, p), eps, atol=1e-12)
    # improper change of basis flips the sign
    flip = np.array(p)
    flip[:, 0] = -flip[:, 0]
    assert np.allclose(tt.rotate(eps, flip), -np.asarray(eps), atol=1e-12)


def test_rotate_rejects_non_orthogonal():
    with pytest.raises(NotOrthogonal):
        tt.rotate(random_hyper3(0), np.eye(3) * 2.0)
    with pytest.raises(NotOrthogonal):
        tt.rotate_mat(np.eye(3), np.ones((3, 3)))
    with pytest.raises(NotOrthogonal):
        tt.rotate_vec(E1, np.zeros((3, 3)))


def test_contraction_values_rotation_invariant():
    for seed in range(20):
        a = random_hyper3(seed)
        b = random_hyper3(seed + 50)
        x, y, z = (random_vec(seed + d) for d in (1, 2, 3))
        p = tt.random_rotation(seed)
        ar, br = tt.rotate(a, p), tt.rotate(b, p)
        xr, yr, zr = (tt.rotate_vec(w, p) for w in (x, y, z))
        tol = 1e-10
        assert abs(tt.inner(ar, br) - tt.inner(a, b)) <= tol * max(1, abs(tt.inner(a, b)))
        lhs = tt.contract_full(ar, xr, yr, zr)
        rhs = tt.contract_full(a, x, y, z)
        assert abs(lhs - rhs) <= tol * max(1.0, abs(rhs))
        assert np.allclose(
            tt.contract_two(ar, yr, zr, (2, 3)),
            tt.rotate_vec(tt.contract_two(a, y, z, (2, 3)), p),
            atol=tol,
        )
        assert np.allclose(
            tt.contract_one(ar, xr, 1),
            tt.rotate_mat(tt.contract_one(a, x, 1), p),
            atol=tol,
        )


def test_random_rotation_contract():
    for seed in (0, 1, 7, 123):
        p = tt.random_rotation(seed)
        assert np.linalg.norm(p @ p.T - np.eye(3)) <= 1e-12
        assert abs(np.linalg.det(p) - 1.0) <= 1e-12
        again = tt.random_rotation(seed)
        assert np.array_equal(p, again)


@pytest.mark.parametrize("c", [1e-12, 2.0**-40, 1.0, 1e160])
def test_is_symmetric_is_scale_free(c):
    # the bound is tol * ||u|| at every scale: no absolute floor below
    # norm 1, and no overflow of the norm near the top of the range
    asymmetric = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    symmetric = asymmetric + asymmetric.T
    assert not tt.is_symmetric(c * asymmetric)
    assert tt.is_symmetric(c * symmetric)
    assert tt.is_symmetric(c * np.eye(3))
    assert tt.is_symmetric(np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# the input contract

FIXTURE = np.asarray(tt.make_fixture("symmetric", 2))
SHAPES = {
    "Vec3": (3,), "Mat3": (3, 3), "Hyper3": (3, 3, 3), "Quad3": (3, 3, 3, 3), "Unfolding": (3, 9),
}
WRONG_SHAPES = [
    (), (2,), (9,), (27,), (2, 2), (4, 4), (9, 3), (1, 3, 3), (3, 3, 3, 1), *SHAPES.values(),
]
NON_FINITE = (ValueError, "finite")
NOT_ORTHOGONAL = (NotOrthogonal, "exceeds")


# Every public function that takes an array, called on one argument of the
# listed type (any other argument valid), and the error a NaN or infinite
# entry raises there: a non-finite P is not orthogonal, so is_orthogonal
# returns False and the rotations raise NotOrthogonal.
CONTRACT = {
    "vec3": (tt.vec3, "Vec3", NON_FINITE),
    "mat3": (tt.mat3, "Mat3", NON_FINITE),
    "hyper3": (tt.hyper3, "Hyper3", NON_FINITE),
    "quad3": (tt.quad3, "Quad3", NON_FINITE),
    "is_symmetric": (tt.is_symmetric, "Mat3", NON_FINITE),
    "is_orthogonal": (tt.is_orthogonal, "Mat3", False),
    "rotate.a": (lambda a: tt.rotate(a, np.eye(3)), "Hyper3", NON_FINITE),
    "rotate.p": (lambda p: tt.rotate(FIXTURE, p), "Mat3", NOT_ORTHOGONAL),
    "rotate_mat.u": (lambda u: tt.rotate_mat(u, np.eye(3)), "Mat3", NON_FINITE),
    "rotate_mat.p": (lambda p: tt.rotate_mat(np.eye(3), p), "Mat3", NOT_ORTHOGONAL),
    "rotate_vec.x": (lambda x: tt.rotate_vec(x, np.eye(3)), "Vec3", NON_FINITE),
    "rotate_vec.p": (lambda p: tt.rotate_vec(E1, p), "Mat3", NOT_ORTHOGONAL),
    "classify": (tt.classify, "Hyper3", NON_FINITE),
    "selective_symmetry_via_levi_civita": (
        tt.selective_symmetry_via_levi_civita, "Hyper3", NON_FINITE
    ),
    "swap_gate": (lambda a: _swap_symmetric(a, 1e-8, "right"), "Hyper3", NON_FINITE),
    "sym_eig3": (tt.sym_eig3, "Mat3", NON_FINITE),
    "kernel": (tt.kernel, "Hyper3", NON_FINITE),
    "kernel_triple": (tt.kernel_triple, "Hyper3", NON_FINITE),
    "invariants": (tt.invariants, "Hyper3", NON_FINITE),
    "unfold": (tt.unfold, "Hyper3", NON_FINITE),
    "fold": (tt.fold, "Unfolding", NON_FINITE),
    "l_eigen": (tt.l_eigen, "Hyper3", NON_FINITE),
    "rank_and_nullspace": (tt.rank_and_nullspace, "Hyper3", NON_FINITE),
    "l_inverse": (tt.l_inverse, "Hyper3", NON_FINITE),
    "recover.v": (lambda v: tt.recover(v, FIXTURE), "Mat3", NON_FINITE),
    "recover.a_inv": (lambda a_inv: tt.recover(np.eye(3), a_inv), "Hyper3", NON_FINITE),
    "is_orthogonal_tensor": (tt.is_orthogonal_tensor, "Hyper3", NON_FINITE),
    "eig_decompose_partial": (tt.eig_decompose_partial, "Hyper3", NON_FINITE),
    "max_singular_value": (tt.max_singular_value, "Hyper3", NON_FINITE),
    "max_c_eigenvalue": (tt.max_c_eigenvalue, "Hyper3", NON_FINITE),
    "max_z_eigenvalue": (tt.max_z_eigenvalue, "Hyper3", NON_FINITE),
    "z_spectrum": (tt.z_spectrum, "Hyper3", NON_FINITE),
}


@pytest.mark.parametrize("case", ["shape", np.nan, np.inf, -np.inf, "complex"])
@pytest.mark.parametrize("name", list(CONTRACT))
def test_input_contract(name, case):
    # a wrong shape or complex entries raise ValueError naming them, rather
    # than being read as another type or losing the imaginary part
    call, kind, non_finite = CONTRACT[name]
    valid = np.resize(FIXTURE, SHAPES[kind])
    if case == "shape":
        for shape in WRONG_SHAPES:
            if shape != SHAPES[kind]:
                for arr in (np.zeros(shape), np.resize(FIXTURE, shape)):
                    with pytest.raises(ValueError, match="shape"):
                        call(arr)
    elif case == "complex":
        with pytest.raises(ValueError, match="real"):
            call(valid * 1j)
    else:
        for n in (0, valid.size // 2, slice(None)):
            arr = valid.copy()
            arr.flat[n] = case
            if non_finite is False:
                assert call(arr) is False
            else:
                with pytest.raises(non_finite[0], match=non_finite[1]):
                    call(arr)


# Every public function that takes ``tol``, called with valid arrays.
TOL_CONTRACT = {
    "is_symmetric": lambda tol: tt.is_symmetric(np.eye(3), tol),
    "is_orthogonal": lambda tol: tt.is_orthogonal(np.eye(3), tol),
    "rotate": lambda tol: tt.rotate(FIXTURE, np.eye(3), tol),
    "rotate_mat": lambda tol: tt.rotate_mat(np.eye(3), np.eye(3), tol),
    "rotate_vec": lambda tol: tt.rotate_vec(E1, np.eye(3), tol),
    "classify": lambda tol: tt.classify(FIXTURE, tol),
    "selective_symmetry_via_levi_civita": lambda tol: tt.selective_symmetry_via_levi_civita(
        FIXTURE, tol
    ),
    "sym_eig3": lambda tol: tt.sym_eig3(np.eye(3), tol),
    "rank_and_nullspace": lambda tol: tt.rank_and_nullspace(FIXTURE, tol),
    "l_inverse": lambda tol: tt.l_inverse(FIXTURE, tol),
    "is_orthogonal_tensor": lambda tol: tt.is_orthogonal_tensor(FIXTURE, tol),
    "eig_decompose_partial": lambda tol: tt.eig_decompose_partial(FIXTURE, "right", tol),
}


def test_tol_contract_lists_every_public_tol():
    import inspect

    takes_tol = {
        name for name in tt.__all__
        if callable(getattr(tt, name)) and not isinstance(getattr(tt, name), type)
        and "tol" in inspect.signature(getattr(tt, name)).parameters
    }
    assert takes_tol == set(TOL_CONTRACT)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1.0, 1e-10 + 0j, True])
@pytest.mark.parametrize("name", list(TOL_CONTRACT))
def test_tol_contract(name, tol):
    # NaN made verdicts false, and -1 called
    # a symmetric tensor non-symmetric; now each refuses with ValueError
    with pytest.raises(ValueError, match="tol must be a finite real number > 0"):
        TOL_CONTRACT[name](tol)


@pytest.mark.parametrize("tol", [1e-10, 1, np.float32(1e-6), 2.0**-40])
def test_valid_tols_pass_unchanged(tol):
    assert core._tolerance(tol) is tol
    assert tt.classify(FIXTURE, tol).tol is tol


# ---------------------------------------------------------------------------
# the results as dicts


@pytest.mark.parametrize("solve", [
    tt.max_singular_value, tt.l_eigen, tt.invariants, tt.classify, tt.z_spectrum, tt.c_spectrum,
], ids=lambda solve: solve.__name__)
def test_as_dict_is_the_fields_in_order_with_arrays_as_lists(solve):
    result = solve(FIXTURE)
    assert type(result).as_dict is core._as_dict
    want = [(name, getattr(result, name)) for name in result._fields]
    want = [(k, v.tolist() if isinstance(v, np.ndarray) else v) for k, v in want]
    doc = result.as_dict()
    assert list(json.loads(json.dumps(doc)).items()) == want
    assert doc is not result.as_dict()
    # a class attribute that is no field (CriticalTriple's starts_converged) is left out
    assert "starts_converged" not in doc
