import numpy as np
import pytest

import tritensor as tt
from tritensor.errors import NotPartiallySymmetric, NotSymmetric, SingularTensor

from helpers import mp_residuals, random_hyper3, random_vec, svd_sigma

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


def test_fold_rejects_bad_shape():
    with pytest.raises(ValueError):
        tt.fold(np.zeros((9, 3)))


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
