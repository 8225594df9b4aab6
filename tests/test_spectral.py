import sys
import threading

import numpy as np
import pytest

import tritensor as tt
from tritensor import core, spectral
from tritensor.errors import (
    NotPartiallySymmetric, NotSymmetric, SingularTensor, TensorError, Unrepresentable,
)
from tritensor.symmetry import _swap_symmetric

from helpers import clear_memo, count_scalings, mp_residuals, random_hyper3, random_vec, svd_sigma

SQRT2 = np.sqrt(2.0)


def unit(v):
    return v / np.linalg.norm(v)


def rank_r_tensor(r, seed, gaps=(3.0, 2.0, 1.0)):
    """Exact rank-r tensor with prescribed positive singular values."""
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    right = np.linalg.qr(rng.standard_normal((9, 9)))[0][:, :3]
    m = sum(gaps[j] * np.outer(left[:, j], right[:, j]) for j in range(r))
    return tt.fold(m if r else np.zeros((3, 9)))


# ---------------------------------------------------------------------------
# sym_eig3


def test_sym_eig3_identity_and_scalar():
    vals, vecs = tt.sym_eig3(np.eye(3))
    assert np.allclose(vals, [1.0, 1.0, 1.0])
    assert np.allclose(vecs @ vecs.T, np.eye(3), atol=1e-14)
    vals, _ = tt.sym_eig3(2.0 * np.eye(3))
    assert np.allclose(vals, [2.0, 2.0, 2.0])


def test_sym_eig3_diagonal():
    vals, vecs = tt.sym_eig3(np.diag([3.0, 1.0, -2.0]))
    assert np.allclose(vals, [3.0, 1.0, -2.0])
    assert np.allclose(np.abs(vecs), np.eye(3))


@pytest.mark.parametrize("seed", range(30))
def test_sym_eig3_matches_lapack(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 3))
    u = m + m.T
    vals, vecs = tt.sym_eig3(u)
    ref = np.sort(np.linalg.eigvalsh(u))[::-1]
    assert np.allclose(vals, ref, atol=1e-12 * max(1, np.linalg.norm(u)))
    scale = max(1.0, np.linalg.norm(u))
    for j in range(3):
        assert np.linalg.norm(u @ vecs[:, j] - vals[j] * vecs[:, j]) <= 1e-12 * scale
    recon = sum(vals[j] * np.outer(vecs[:, j], vecs[:, j]) for j in range(3))
    assert np.linalg.norm(recon - u) <= 1e-12 * scale
    assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-14)


def test_sym_eig3_sign_and_order_deterministic():
    u = np.diag([2.0, 2.0, 1.0])  # degenerate pair
    vals1, vecs1 = tt.sym_eig3(u)
    vals2, vecs2 = tt.sym_eig3(u.copy())
    assert np.array_equal(vals1, vals2)
    assert np.array_equal(vecs1, vecs2)
    for j in range(3):
        lead = np.argmax(np.abs(vecs1[:, j]))
        assert vecs1[lead, j] > 0.0


def test_sym_eig3_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        tt.sym_eig3(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


@pytest.mark.parametrize("c", [1e-12, 2.0**-40, 1e160])
def test_sym_eig3_is_scale_free(c):
    # the asymmetry bound is relative to ||U||, so a small matrix is not
    # waved through and a huge one does not overflow the norm
    with pytest.raises(NotSymmetric):
        tt.sym_eig3(c * np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    m = np.random.default_rng(0).standard_normal((3, 3))
    u = m + m.T
    vals, vecs = tt.sym_eig3(u)
    scaled_vals, scaled_vecs = tt.sym_eig3(c * u)
    assert np.all(np.abs(scaled_vals - c * vals) <= 1e-14 * c * np.abs(vals).max())
    assert np.abs(scaled_vecs - vecs).max() <= 1e-14


# ---------------------------------------------------------------------------
# kernel and unfolding


def test_kernel_levi_civita():
    assert np.allclose(tt.kernel(tt.levi_civita()), 2.0 * np.eye(3), atol=1e-15)


def test_kernel_rank_one_and_zero():
    x = unit(random_vec(1))
    y = unit(random_vec(2))
    z = unit(random_vec(3))
    assert np.allclose(tt.kernel(tt.outer(x, y, z)), np.outer(x, x), atol=1e-14)
    assert np.array_equal(tt.kernel(np.zeros((3, 3, 3))), np.zeros((3, 3)))


def test_kernel_triple_traces_and_psd():
    for seed in range(20):
        a = random_hyper3(seed)
        kt = tt.kernel_triple(a)
        dot = tt.inner(a, a)
        for u in (kt.u, kt.u_bar, kt.u_hat):
            assert np.allclose(u, u.T, atol=1e-13)
            assert abs(np.trace(u) - dot) <= 1e-10 * max(1.0, dot)
            assert np.linalg.eigvalsh(u).min() >= -1e-12 * max(1.0, np.linalg.norm(u))


def test_kernels_equal_prod2_of_transposed_copies_bitwise():
    # one gather and one batched einsum give the bits of the three
    # prod2 calls, for the tensor and for any memory layout of it
    rng = np.random.default_rng(3)
    for n in range(300):
        a = rng.standard_normal((3, 3, 3)) * 10.0 ** rng.uniform(-40.0, 40.0)
        at = tt.transpose(a)
        att = tt.transpose(at)
        want = (tt.prod2(a, at), tt.prod2(at, att), tt.prod2(att, a))
        for view in (a, np.ascontiguousarray(a.transpose(2, 0, 1)).transpose(1, 2, 0), np.asfortranarray(a)):
            kt = tt.kernel_triple(view)
            for got, ref in zip((kt.u, kt.u_bar, kt.u_hat), want):
                assert got.tobytes() == ref.tobytes()
            assert tt.kernel(view).tobytes() == want[0].tobytes()
            assert not kt.u.flags.writeable


def test_kernel_triple_outside_the_float64_range_raises():
    # the largest |entry| of the kernels, about ||A||^2, overflows at norm
    # 1e160 and falls below the normal range at 1e-170 (unchecked, the
    # kernels come out inf and exact zeros); the raise comes before any
    # ldexp, so with no RuntimeWarning (an error here)
    rng = np.random.default_rng(34)
    for _ in range(20):
        g = rng.standard_normal((3, 3, 3))
        for c in (1e160, 1e-170):
            with pytest.raises(Unrepresentable, match="kernel .* outside the float64 range"):
                tt.kernel_triple(c * g)
        # inside the range, the bits of the kernels taken on the tensor as it is
        for c in (1e-140, 1e-20, 1.0, 1e20, 1e140):
            a = c * g
            assert np.array(tt.kernel_triple(a)).tobytes() == spectral._kernels(a).tobytes()
    assert not np.array(tt.kernel_triple(np.zeros((3, 3, 3)))).any()


def test_unfold_fold_roundtrip_bitwise():
    for seed in range(1000):
        a = random_hyper3(seed)
        assert np.array_equal(tt.fold(tt.unfold(a)), a)


def test_unfold_rank_one_structure():
    x, y, z = random_vec(4), random_vec(5), random_vec(6)
    m = tt.unfold(tt.outer(x, y, z))
    assert np.allclose(m, np.outer(x, np.outer(y, z).reshape(9)))


def test_unfold_levi_civita_first_row():
    row = tt.unfold(tt.levi_civita())[0]
    assert np.array_equal(row, [0, 0, 0, 0, 0, 1, 0, -1, 0])


@pytest.mark.parametrize("shape", [(27,), (3, 9), (9, 3), (3, 3, 3, 1)])
@pytest.mark.parametrize("solve", [tt.l_eigen, tt.l_inverse, tt.rank_and_nullspace])
def test_spectral_rejects_arrays_that_are_not_3x3x3(solve, shape):
    a = np.asarray(tt.make_fixture("symmetric", 2)).reshape(shape)
    with pytest.raises(ValueError, match="shape"):
        solve(a)
    with pytest.raises(ValueError, match="shape"):
        solve(np.zeros(shape))


@pytest.mark.parametrize("shape", [(27,), (3, 9), (9, 3), (3, 3, 3, 1)])
@pytest.mark.parametrize(
    "layer",
    [
        tt.kernel, tt.kernel_triple, tt.is_orthogonal_tensor, tt.invariants, tt.classify,
        lambda a: _swap_symmetric(a, 1e-8, "right"), lambda a: tt.rotate(a, np.eye(3)),
        tt.unfold, tt.selective_symmetry_via_levi_civita,
    ],
)
def test_closed_form_layers_reject_arrays_that_are_not_3x3x3(layer, shape):
    # their flat gathers would otherwise read any 27 entries as a tensor
    a = np.asarray(tt.make_fixture("symmetric", 2)).reshape(shape)
    with pytest.raises(ValueError, match="shape"):
        layer(a)


# ---------------------------------------------------------------------------
# l_eigen


def test_l_eigen_levi_civita():
    sys_ = tt.l_eigen(tt.levi_civita())
    assert np.allclose(sys_.sigma, [SQRT2, SQRT2, SQRT2], atol=1e-14)
    assert np.allclose(sys_.x @ sys_.x.T, np.eye(3), atol=1e-12)
    gram = np.einsum("aij,bij->ab", sys_.V, sys_.V)
    assert np.allclose(gram, np.eye(3), atol=1e-12)
    recon = np.einsum("j,ja,jbc->abc", sys_.sigma, sys_.x, sys_.V)
    assert np.allclose(recon, tt.levi_civita(), atol=1e-12)


def test_l_eigen_rank_one():
    x = unit(random_vec(1))
    y = unit(random_vec(2))
    z = unit(random_vec(3))
    sys_ = tt.l_eigen(tt.outer(x, y, z))
    assert np.allclose(sys_.sigma, [1.0, 0.0, 0.0], atol=1e-12)
    assert min(np.linalg.norm(sys_.x[0] - x), np.linalg.norm(sys_.x[0] + x)) <= 1e-10
    v1 = sys_.V[0]
    yz = np.outer(y, z)
    assert min(np.abs(v1 - yz).max(), np.abs(v1 + yz).max()) <= 1e-10


@pytest.mark.parametrize("seed", range(100))
def test_l_eigen_invariants_random(seed):
    a = random_hyper3(seed)
    sys_ = tt.l_eigen(a)
    assert sys_.sigma[0] >= sys_.sigma[1] >= sys_.sigma[2] >= 0.0
    # independent LAPACK SVD oracle on the unfolding
    assert np.allclose(sys_.sigma, svd_sigma(a), atol=1e-10 * max(1, sys_.sigma[0]))
    assert np.allclose(sys_.x @ sys_.x.T, np.eye(3), atol=1e-10)
    gram = np.einsum("aij,bij->ab", sys_.V, sys_.V)
    assert np.allclose(gram, np.eye(3), atol=1e-10)
    scale = max(1.0, np.linalg.norm(a))
    for j in range(3):
        lhs = tt.contract_mat(a, sys_.V[j], "right")
        assert np.linalg.norm(lhs - sys_.sigma[j] * sys_.x[j]) <= 1e-10 * scale
        rhs = tt.contract_one(a, sys_.x[j], 1)  # A^T x as a matrix
        assert np.abs(rhs - sys_.sigma[j] * sys_.V[j]).max() <= 1e-10 * scale
    recon = np.einsum("j,ja,jbc->abc", sys_.sigma, sys_.x, sys_.V)
    assert np.abs(recon - a).max() <= 1e-10 * scale


def test_l_eigen_zero_tensor():
    sys_ = tt.l_eigen(np.zeros((3, 3, 3)))
    assert np.array_equal(sys_.sigma, np.zeros(3))
    gram = np.einsum("aij,bij->ab", sys_.V, sys_.V)
    assert np.allclose(gram, np.eye(3), atol=1e-14)


def test_l_eigen_sigma_rotation_invariant():
    a = random_hyper3(77)
    base = tt.l_eigen(a).sigma
    for r in range(100):
        rotated = tt.rotate(a, tt.random_rotation(r))
        drift = np.abs(tt.l_eigen(rotated).sigma - base).max()
        assert drift <= 1e-9 * max(1.0, base[0])


def test_variational_characterization_of_sigma1():
    a = random_hyper3(5)
    sys_ = tt.l_eigen(a)
    rng = np.random.default_rng(0)
    vs = rng.standard_normal((10_000, 9))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    norms = np.linalg.norm(tt.unfold(a) @ vs.T, axis=0)
    assert norms.max() <= sys_.sigma[0] + 1e-9
    attained = np.linalg.norm(tt.contract_mat(a, sys_.V[0], "right"))
    assert abs(attained - sys_.sigma[0]) <= 1e-9


def test_kernel_eigenvalues_are_sigma_squared():
    for seed in range(20):
        a = random_hyper3(seed)
        sigma = tt.l_eigen(a).sigma
        lam, _ = tt.sym_eig3(tt.kernel(a))
        assert np.allclose(lam, sigma**2, atol=1e-10 * max(1.0, lam[0]))


@pytest.mark.parametrize("seed", range(10))
def test_l_eigen_resolves_sigma_ratio_1e9(seed):
    a = rank_r_tensor(3, seed, gaps=(1.0, 1e-5, 1e-9))
    sigma = tt.l_eigen(a).sigma
    ref = svd_sigma(a)
    assert np.all(np.abs(sigma - ref) <= 1e-6 * ref)
    tt.l_inverse(a)  # sigma_3/sigma_1 = 1e-9 is above the 1e-10 threshold


@pytest.mark.parametrize("c", [1e-300, 1e150, 1e160])
def test_l_eigen_and_rank_homogeneous_at_extreme_norms(c):
    for seed in range(5):
        a = np.asarray(random_hyper3(seed))
        base = tt.l_eigen(a).sigma
        scaled = tt.l_eigen(c * a).sigma
        assert np.all(np.abs(scaled - c * base) <= 1e-12 * c * base)
        assert tt.rank_and_nullspace(c * a)[0] == tt.rank_and_nullspace(a)[0] == 3
    a = rank_r_tensor(2, 3)
    assert tt.rank_and_nullspace(c * a)[0] == 2


@pytest.mark.parametrize("klass, e", [("symmetric", 1024), ("right_symmetric", -1070)])
def test_l_eigen_and_l_inverse_outside_the_float64_range_raise(klass, e):
    # sigma_1 of these tensors is 1.46 x 2^1024, which overflows, and
    # 1.35 x 2^-1069, a subnormal; their largest L-inverse entries are
    # 1.27 x 2^-1024 and 1.05 x 2^1069.  The raise comes with no
    # RuntimeWarning (an error here), and the rank is still read
    a = np.asarray(tt.make_fixture(klass, 1))
    for solve in (tt.l_eigen, tt.l_inverse):
        with pytest.raises(Unrepresentable, match="outside the float64 range"):
            solve(np.ldexp(a, e))
    assert tt.rank_and_nullspace(np.ldexp(a, e))[0] == tt.rank_and_nullspace(a)[0] == 3
    # inside the range both are the same bits at every power of two; at
    # 2^1022 the largest L-inverse entry, 2.8e-308, is near enough to the
    # edge that l_inverse reads it exactly
    k = 1022 if e > 0 else -1000
    assert tt.l_eigen(np.ldexp(a, k)).sigma.tobytes() == np.ldexp(tt.l_eigen(a).sigma, k).tobytes()
    assert tt.l_inverse(np.ldexp(a, k)).tobytes() == np.ldexp(tt.l_inverse(a), -k).tobytes()


def test_eig_decompose_partial_raises_only_where_sigma_1_overflows():
    # sigma_1 = 1.46 x 2^1024 overflows on every side, refused before any
    # ldexp, so with no RuntimeWarning (an error here)
    big = np.ldexp(tt.make_fixture("symmetric", 1), 1024)
    for side in ("right", "left", "central"):
        with pytest.raises(Unrepresentable, match="largest L-eigenvalue .* float64 range"):
            tt.eig_decompose_partial(big, side)
    # a subnormal sigma is the documented limit: returned rounded, as it is
    a = np.asarray(tt.make_fixture("right_symmetric", 1))
    dec = tt.eig_decompose_partial(np.ldexp(a, -1070))
    assert 0.0 < dec.sigma[2] <= dec.sigma[0] < 2.0**-1022
    assert dec.sigma.tobytes() == np.ldexp(tt.eig_decompose_partial(a).sigma, -1070).tobytes()
    # up to the edge of the range the results are the unscaled ones' bits scaled
    k = 1023 - int(np.frexp(tt.eig_decompose_partial(a).sigma[0])[1])
    dec = tt.eig_decompose_partial(np.ldexp(a, k))
    assert dec.sigma.tobytes() == np.ldexp(tt.eig_decompose_partial(a).sigma, k).tobytes()


def test_l_eigen_sigma_non_increasing_near_degenerate():
    # rounding can order equal singular values either way
    eps = np.asarray(tt.levi_civita())
    for seed in range(50):
        noise = 1e-14 * np.random.default_rng(seed).standard_normal((3, 3, 3))
        for a in (eps + noise, tt.rotate(eps, tt.random_rotation(seed))):
            sigma = tt.l_eigen(a).sigma
            assert sigma[0] >= sigma[1] >= sigma[2] >= 0.0


# ---------------------------------------------------------------------------
# rank and null space


def test_rank_nullspace_levi_civita():
    rank, basis = tt.rank_and_nullspace(tt.levi_civita())
    assert rank == 3
    assert len(basis) == 6


def test_rank_nullspace_zero():
    rank, basis = tt.rank_and_nullspace(np.zeros((3, 3, 3)))
    assert rank == 0
    assert len(basis) == 9


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_rank_nullspace_constructed_ranks(r):
    for seed in range(5):
        a = rank_r_tensor(r, seed)
        rank, basis = tt.rank_and_nullspace(a)
        assert rank == r
        assert rank == np.linalg.matrix_rank(tt.unfold(a), tol=1e-8)
        assert len(basis) == 9 - r
        assert len(basis) >= 6
        scale = max(1.0, np.linalg.norm(a))
        flat = np.stack([b.reshape(9) for b in basis])
        assert np.allclose(flat @ flat.T, np.eye(9 - r), atol=1e-12)
        for b in basis:
            assert np.linalg.norm(tt.contract_mat(a, b, "right")) <= 1e-9 * scale


def test_rank_one_example():
    x, y, z = (unit(random_vec(s)) for s in (1, 2, 3))
    rank, basis = tt.rank_and_nullspace(tt.outer(x, y, z))
    assert rank == 1
    assert len(basis) == 8


# ---------------------------------------------------------------------------
# l_inverse and recovery


def test_l_inverse_levi_civita():
    inv = tt.l_inverse(tt.levi_civita())
    assert np.abs(inv - np.asarray(tt.levi_civita()) / 2.0).max() <= 1e-12


def test_l_inverse_scaled_orthogonal():
    # rows of the unfolding orthonormal, scaled: A A^T = alpha I
    a = 2.0 * rank_r_tensor(3, 11, gaps=(1.0, 1.0, 1.0))
    alpha = 4.0
    assert np.allclose(tt.kernel(a), alpha * np.eye(3), atol=1e-12)
    inv = tt.l_inverse(a)
    assert np.abs(inv - np.asarray(tt.transpose(a)) / alpha).max() <= 1e-10


@pytest.mark.parametrize("seed", range(50))
def test_l_inverse_defining_identities(seed):
    a = random_hyper3(seed)
    b = tt.l_inverse(a)
    assert np.abs(tt.prod2(a, b) - np.eye(3)).max() <= 1e-9
    quad = tt.prod4(b, a) - tt.prod4(tt.transpose(a), tt.transpose(tt.transpose(b)))
    assert np.abs(quad).max() <= 1e-9
    assert max(mp_residuals(a, b)) <= 1e-9


def test_l_inverse_mirror_recovery():
    # inversion swaps unfoldings, so the original comes back through the
    # double-transpose conjugation rather than a literal second application
    t2 = lambda x: tt.transpose(tt.transpose(x))
    for seed in range(20):
        a = random_hyper3(seed)
        b = tt.l_inverse(a)
        back = t2(tt.l_inverse(t2(b)))
        assert np.abs(back - a).max() <= 1e-8 * max(1.0, np.abs(a).max())


def test_l_inverse_raises_on_singular():
    a = rank_r_tensor(2, 0)
    with pytest.raises(SingularTensor) as err:
        tt.l_inverse(a)
    assert "sigma3/sigma1" in str(err.value)


def test_nonsingular_iff_l_inverse_succeeds():
    for seed in range(10):
        a = random_hyper3(seed)
        sigma = tt.l_eigen(a).sigma
        assert sigma[2] > 1e-10 * sigma[0]
        tt.l_inverse(a)  # must not raise
    for r in (0, 1, 2):
        with pytest.raises(SingularTensor):
            tt.l_inverse(rank_r_tensor(r, 1))


def test_recover_levi_civita_round_trip():
    eps = tt.levi_civita()
    half = tt.l_inverse(eps)
    for seed in range(100):
        z = random_vec(seed)
        u = tt.contract_one(eps, z, 3)  # U = E z
        back = tt.recover(u, half)
        assert np.abs(back - z).max() <= 1e-12 * max(1.0, np.abs(z).max())


def test_recover_zero_and_random_round_trip():
    a = random_hyper3(31)
    inv = tt.l_inverse(a)
    assert np.array_equal(tt.recover(np.zeros((3, 3)), inv), np.zeros(3))
    for seed in range(20):
        x = random_vec(seed)
        v = tt.contract_one(a, x, 1)  # V = x A
        assert np.abs(tt.recover(v, inv) - x).max() <= 1e-9


# ---------------------------------------------------------------------------
# orthogonal tensors


def test_orthogonal_tensor_checks():
    eps = np.asarray(tt.levi_civita())
    assert tt.is_orthogonal_tensor(eps / SQRT2)
    assert not tt.is_orthogonal_tensor(eps)
    a = rank_r_tensor(3, 4, gaps=(1.0, 1.0, 1.0))
    assert tt.is_orthogonal_tensor(a, tol=1e-10)
    assert np.allclose(tt.l_eigen(a).sigma, [1.0, 1.0, 1.0], atol=1e-10)


# ---------------------------------------------------------------------------
# eigenvector decompositions


def side_fixture(side, seed):
    return tt.make_fixture(f"{side}_symmetric" if side != "central" else "centrally_symmetric", seed)


@pytest.mark.parametrize("side", ["right", "left", "central"])
def test_decomposition_reconstructs_fixtures(side, n=30):
    for seed in range(n):
        a = side_fixture(side, seed)
        dec = tt.eig_decompose_partial(a, side)
        resid = np.linalg.norm(dec.reconstruct() - a) / max(1.0, np.linalg.norm(a))
        assert resid <= 1e-9
        assert np.allclose(dec.x @ dec.x.T, np.eye(3), atol=1e-10)
        for j in range(3):
            frame = dec.y[j]
            assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-10)


def test_decomposition_primarily_symmetric_all_sides():
    a = tt.make_fixture("primarily_symmetric", 17)
    for side in ("right", "left", "central"):
        dec = tt.eig_decompose_partial(a, side)
        resid = np.linalg.norm(dec.reconstruct() - a) / np.linalg.norm(a)
        assert resid <= 1e-9


def test_decomposition_rank_one_right():
    x = unit(random_vec(3))
    y = unit(random_vec(4))
    a = tt.outer(x, y, y)
    dec = tt.eig_decompose_partial(a, "right")
    assert abs(dec.sigma[0] - 1.0) <= 1e-12
    assert abs(abs(dec.lam[0]).max() - 1.0) <= 1e-10
    k = int(np.argmax(np.abs(dec.lam[0])))
    assert min(np.linalg.norm(dec.y[0, k] - y), np.linalg.norm(dec.y[0, k] + y)) <= 1e-8
    assert np.linalg.norm(dec.reconstruct() - a) <= 1e-10


def test_decomposition_rejects_wrong_symmetry():
    with pytest.raises(NotPartiallySymmetric):
        tt.eig_decompose_partial(tt.make_fixture("right_symmetric", 0), "left")
    with pytest.raises(NotPartiallySymmetric):
        tt.eig_decompose_partial(random_hyper3(0), "right")
    with pytest.raises(ValueError):
        tt.eig_decompose_partial(tt.make_fixture("symmetric", 0), "diagonal")


def test_symmetric_eigentensors_for_right_symmetric_inputs():
    for seed in range(20):
        a = tt.make_fixture("right_symmetric", seed)
        sys_ = tt.l_eigen(a)
        floor = 1e-12 * sys_.sigma[0]
        for j in range(3):
            if sys_.sigma[j] > floor:
                v = sys_.V[j]
                assert np.abs(v - v.T).max() <= 1e-8


# ---------------------------------------------------------------------------
# the memoized unfolding SVD


def spectral_outputs(a, before=lambda: None):
    """Bytes of every l_eigen, l_inverse and rank_and_nullspace output;
    ``before`` runs ahead of each of the three calls."""
    before()
    sys_ = tt.l_eigen(a)
    before()
    try:
        inverse = tt.l_inverse(a).tobytes()
    except SingularTensor as exc:
        inverse = str(exc)
    before()
    rank, basis = tt.rank_and_nullspace(a)
    return (sys_.sigma.tobytes(), sys_.x.tobytes(), sys_.V.tobytes(), inverse, rank,
            tuple(n.tobytes() for n in basis))


def memo_outputs(a, before=lambda: None):
    """``spectral_outputs``, then the bytes of every classify, invariants,
    solver and z_spectrum output or the repr of the library error raised;
    ``before`` runs ahead of each call."""
    out = [spectral_outputs(a, before)]
    for fn in (tt.classify, tt.invariants, tt.max_singular_value, tt.max_c_eigenvalue,
               tt.max_z_eigenvalue, tt.z_spectrum):
        before()
        try:
            result = fn(a)
        except (TensorError, tt.NoConvergence, tt.Uncertified) as exc:
            out.append(repr(exc))
            continue
        out.append([np.asarray(v).tobytes() for v in result])
    return out


def test_memo_results_do_not_depend_on_the_cache():
    # cold (from an empty memo), warm (from the tensor's own entry) and
    # after another tensor evicted it: the same bits
    other = random_hyper3(99)
    tensors = [tt.levi_civita(), random_hyper3(0), random_hyper3(1, 1e-12),
               rank_r_tensor(2, 0), rank_r_tensor(3, 5, gaps=(1.0, 1e-5, 1e-9)),
               tt.make_fixture("symmetric", 3), tt.make_fixture("right_symmetric", 3)]
    for a in tensors:
        cold = memo_outputs(a, clear_memo)
        warm_same = memo_outputs(a)
        warm_other = memo_outputs(a, lambda: tt.l_eigen(other))
        assert cold == warm_same == warm_other


def test_three_calls_on_one_tensor_run_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    scalings = count_scalings(monkeypatch)
    for a in (random_hyper3(3), random_hyper3(4)):
        clear_memo()
        calls.clear()
        scalings.clear()
        tt.l_eigen(a)
        tt.l_inverse(a)
        tt.rank_and_nullspace(a)
        assert (len(calls), scalings) == (1, ["Hyper3"])


def test_every_layer_of_one_tensor_scales_it_once_and_runs_one_svd(monkeypatch):
    # the record of core._tensor serves the closed-form layers, the solvers
    # and the spectrum of one tensor, called in turn
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    scalings = count_scalings(monkeypatch)
    for seed in range(3):
        a = np.asarray(tt.make_fixture("symmetric", seed))
        clear_memo()
        calls.clear()
        scalings.clear()
        tt.classify(a)
        tt.l_eigen(a)
        tt.l_inverse(a)
        tt.rank_and_nullspace(a)
        tt.invariants(a)
        triples = [tt.max_singular_value(a), tt.max_c_eigenvalue(a), tt.max_z_eigenvalue(a)]
        tt.z_spectrum(a)
        assert {t.method for t in triples} == {"enumerated"}
        assert (len(calls), scalings) == (1, ["Hyper3"])


def test_results_never_alias_the_cached_entry():
    a = random_hyper3(5)
    expected = spectral_outputs(a)
    sys_ = tt.l_eigen(a)
    results = [sys_.sigma, sys_.x, sys_.V, tt.l_inverse(a), *tt.rank_and_nullspace(a)[1]]
    kernels = tt.kernel_triple(a)  # views of one read-only array
    record = core._tensor(a)
    cached = spectral._unfolding_svd(a)
    assert record.memo["svd"] is cached
    for arr in (record.a, *cached[:3]):  # sigma, x and the right factor; then the exponent
        assert not arr.flags.writeable
    for res in (*results, *kernels):
        assert not any(np.shares_memory(res, arr) for arr in (record.a, *cached[:3]))
    for res in results:
        res.setflags(write=True)
        res[...] = 7.0
    assert spectral_outputs(a) == expected


def test_no_solver_result_aliases_the_record():
    a = np.asarray(tt.make_fixture("symmetric", 4))
    triples = [tt.max_singular_value(a), tt.max_c_eigenvalue(a), tt.max_z_eigenvalue(a)]
    results = [*(getattr(t, v) for t in triples for v in "xyz"), *tt.z_spectrum(a)]
    record = core._tensor(a)
    route = record.memo["route"]
    cached = [record.a, route.dev, *route.runs["z_eigen", (0, 1, 2)]]
    assert route.a is record.a and not any(arr.flags.writeable for arr in cached[2:])
    for res in results:
        assert not any(np.shares_memory(res, arr) for arr in cached)


def test_in_place_edit_of_the_input_is_seen():
    a = np.array(random_hyper3(6))
    before = spectral_outputs(a)
    a[0, 1, 2] += 1.0
    after = spectral_outputs(a)
    clear_memo()
    assert after == spectral_outputs(a.copy())
    assert after[0] != before[0]
    # a symmetric tensor made right-side symmetric only, between two calls
    s = np.array(tt.make_fixture("symmetric", 6))
    report, inv = tt.classify(s), tt.invariants(s)
    s[0, 1, 2] = s[0, 2, 1] = s[0, 1, 2] + 0.5
    assert report.symmetric and not tt.classify(s).symmetric and tt.classify(s).right_symmetric
    assert tt.invariants(s) != inv
    with pytest.raises(NotSymmetric):
        tt.max_z_eigenvalue(s)


def test_negative_zero_entries_give_the_same_sigma():
    for a in (tt.levi_civita(), np.zeros((3, 3, 3)), tt.outer([1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [1.0, 1.0, 0.0])):
        a = np.asarray(a)
        negative = np.where(a == 0.0, -0.0, a)
        assert np.signbit(negative).sum() > np.signbit(a).sum()
        assert tt.l_eigen(negative).sigma.tobytes() == tt.l_eigen(a).sigma.tobytes()


def test_two_threads_alternating_tensors_get_the_serial_results():
    tensors = (random_hyper3(7), tt.levi_civita())
    serial = [spectral_outputs(a) for a in tensors]
    got = [[], []]

    def work(t):
        for i in range(200):
            got[t].append(spectral_outputs(tensors[(i + t) % 2]))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for t in range(2):
        assert got[t] == [serial[(i + t) % 2] for i in range(200)]
