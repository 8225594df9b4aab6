"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 2's literal double-application identity is mathematically
unattainable under the product's defining equations (see the strict-xfail
test and the l_inverse docstring); the equivalent bidirectional recovery
is asserted in its place alongside the literal form.
"""

import time

import numpy as np
import pytest

import tritensor as tt

from helpers import (
    loop_contract_full,
    loop_contract_mat,
    loop_contract_one,
    loop_contract_two,
    loop_inner,
    loop_prod2,
    loop_prod4,
    mp_residuals,
    oracle_eta1,
    oracle_mu1,
    oracle_nu1,
    random_hyper3,
    random_vec,
)
from test_varspec import eta_1_bracket

SQRT2 = np.sqrt(2.0)


def certified(triple) -> bool:
    """An enumerated triple, or a bounded one whose bracket closed to 1e-8."""
    if triple.method == "enumerated":
        return triple.upper_bound == triple.value
    return triple.method == "bounded" and triple.upper_bound - triple.value <= 1e-8 * triple.value


def _nonsingular(seed):
    a = random_hyper3(seed)
    sigma = tt.l_eigen(a).sigma
    assert sigma[2] > 1e-10 * sigma[0]
    return a


def test_criterion_1_levi_civita_golden_suite():
    start = time.monotonic()
    eps = tt.levi_civita()
    assert np.abs(tt.kernel(eps) - 2.0 * np.eye(3)).max() <= 1e-14

    sigma = tt.l_eigen(eps).sigma
    assert np.abs(sigma - SQRT2).max() <= 1e-12

    inv = tt.l_inverse(eps)
    assert np.abs(inv - np.asarray(eps) / 2.0).max() <= 1e-12

    assert tt.is_orthogonal_tensor(np.asarray(eps) / SQRT2)

    for seed in range(100):
        z = random_vec(seed)
        u = tt.contract_one(eps, z, 3)  # U = E z
        back = tt.recover(u, inv)  # z = (1/2) E U
        assert np.abs(back - z).max() <= 1e-12 * max(1.0, np.abs(z).max())

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: Levi-Civita golden suite ({elapsed:.2f}s)")


def test_criterion_2_moore_penrose_l_inverse_suite():
    start = time.monotonic()
    t2 = lambda x: tt.transpose(tt.transpose(x))
    for seed in range(1000):
        a = _nonsingular(seed)
        b = tt.l_inverse(a)
        assert max(mp_residuals(a, b)) < 1e-9
        assert np.abs(tt.prod2(a, b) - np.eye(3)).max() < 1e-9
        # bidirectional recovery: the original comes back through the
        # transpose-conjugated inverse (the literal double application
        # composes two different unfoldings; see the strict xfail below)
        back = t2(tt.l_inverse(t2(b)))
        assert np.abs(back - a).max() <= 1e-8 * max(1.0, np.abs(a).max())
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 2 PASS: Moore-Penrose / L-inverse suite, 1000 tensors ({elapsed:.2f}s)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "l_inverse(l_inverse(A)) == A cannot hold: the defining equations "
        "prod2(A, B) = I and B(+)A = A^T(+)(B^T)^T pin B uniquely as the "
        "first-two-index fold of pinv(unfold(A)), and re-applying the same "
        "map reads the last-two-index unfolding of B, which carries no "
        "Moore-Penrose relation to A.  The involution lives at the matrix "
        "level (pinv(pinv) = id) and is recovered tensor-side only through "
        "the double-transpose conjugation asserted in criterion 2."
    ),
)
def test_criterion_2_literal_double_inverse():
    for seed in range(10):
        a = _nonsingular(seed)
        back = tt.l_inverse(tt.l_inverse(a))
        assert np.abs(back - a).max() <= 1e-8 * max(1.0, np.abs(a).max())


def test_criterion_3_transpose_and_contraction_oracles():
    start = time.monotonic()
    for seed in range(1000):
        a = random_hyper3(seed)
        assert np.array_equal(tt.transpose(tt.transpose(tt.transpose(a))), a)

    for seed in range(1000):
        a = random_hyper3(seed)
        b = random_hyper3(seed + 10_000)
        u = random_vec(seed + 20_000)
        v = random_vec(seed + 30_000)
        x = random_vec(seed + 40_000)
        m = np.outer(u, v) + np.eye(3)
        tol = 1e-13

        for slot in (1, 2, 3):
            assert np.abs(
                tt.contract_one(a, u, slot) - loop_contract_one(a, u, slot)
            ).max() <= tol * 10
        for side in ("left", "right"):
            assert np.abs(
                tt.contract_mat(a, m, side) - loop_contract_mat(a, m, side)
            ).max() <= tol * 10
        for slots in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
            assert np.abs(
                tt.contract_two(a, u, v, slots) - loop_contract_two(a, u, v, slots)
            ).max() <= tol * 10
        full = tt.contract_full(a, x, u, v)
        assert abs(full - loop_contract_full(a, x, u, v)) <= tol * max(10.0, abs(full))
        dot = tt.inner(a, b)
        assert abs(dot - loop_inner(a, b)) <= tol * max(10.0, abs(dot))
        assert np.abs(tt.prod2(a, b) - loop_prod2(a, b)).max() <= tol * 10
        assert np.abs(tt.prod4(a, b) - loop_prod4(a, b)).max() <= tol * 10
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE 3 PASS: transpose bijection + loop oracles, 1000 inputs ({elapsed:.2f}s)")


def test_criterion_4_rotation_invariance_suite():
    start = time.monotonic()
    fixtures = [tt.make_fixture("symmetric", s) for s in range(10)]
    fixtures += [tt.make_fixture("primarily_symmetric", s) for s in range(10)]
    worst = 0.0
    for a in fixtures:
        inv0 = np.array(list(tt.invariants(a).as_dict().values()))
        sig0 = tt.l_eigen(a).sigma
        eta0 = tt.max_singular_value(a).value
        mu0 = tt.max_c_eigenvalue(a).value
        nu0 = tt.max_z_eigenvalue(a).value
        for r in range(100):
            p = tt.random_rotation(r)
            rot = tt.rotate(a, p)
            inv = np.array(list(tt.invariants(rot).as_dict().values()))
            drift = np.abs(inv - inv0) / np.maximum(1.0, np.abs(inv0))
            sig = tt.l_eigen(rot).sigma
            drift_sig = np.abs(sig - sig0) / max(1.0, sig0[0])
            eta_1 = tt.max_singular_value(rot)
            assert certified(eta_1)
            eta = eta_1.value
            mu = tt.max_c_eigenvalue(rot).value
            nu = tt.max_z_eigenvalue(rot).value
            drift_var = [
                abs(eta - eta0) / max(1.0, eta0),
                abs(mu - mu0) / max(1.0, mu0),
                abs(nu - nu0) / max(1.0, nu0),
            ]
            worst = max(worst, drift.max(), drift_sig.max(), *drift_var)
            assert drift.max() < 1e-8
            assert drift_sig.max() < 1e-8
            assert max(drift_var) < 1e-8
    elapsed = time.monotonic() - start
    print(
        "ACCEPTANCE 4 PASS: rotation invariance, 20 fixtures x 100 rotations, "
        f"max drift {worst:.2e} ({elapsed:.1f}s)"
    )


def _rank_r(r, seed):
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    right = np.linalg.qr(rng.standard_normal((9, 9)))[0][:, :3]
    gains = (2.5, 1.4, 0.7)
    m = sum(gains[j] * np.outer(left[:, j], right[:, j]) for j in range(r))
    return tt.fold(m if r else np.zeros((3, 9)))


def test_criterion_5_rank_nullity_sweep():
    for r in (0, 1, 2, 3):
        for seed in range(10):
            a = _rank_r(r, seed)
            rank, basis = tt.rank_and_nullspace(a)
            assert rank == r
            assert rank + len(basis) == 9
            assert len(basis) >= 6
            scale = max(1.0, float(np.linalg.norm(a)))
            for n in basis:
                assert np.linalg.norm(tt.contract_mat(a, n, "right")) <= 1e-9 * scale
    print("ACCEPTANCE 5 PASS: rank + null dimension = 9, null >= 6, basis annihilated")


def test_criterion_6_ordering_chain():
    start = time.monotonic()
    for seed in range(200):
        a = tt.make_fixture("symmetric", seed)
        eta_1 = tt.max_singular_value(a)
        assert certified(eta_1)
        eta = eta_1.value
        mu = tt.max_c_eigenvalue(a).value
        nu = tt.max_z_eigenvalue(a).value
        assert nu <= mu + 1e-9
        assert mu <= eta + 1e-9
        assert abs(nu - mu) <= 1e-9
    for seed in range(200):
        a = tt.make_fixture("right_symmetric", seed)
        eta_1 = tt.max_singular_value(a)
        assert certified(eta_1)
        eta = eta_1.value
        mu = tt.max_c_eigenvalue(a).value
        assert mu <= eta + 1e-9
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE 6 PASS: ordering chain nu <= mu <= eta on 400 fixtures ({elapsed:.1f}s)")


def test_criterion_7_eigenvector_decompositions():
    sides = {
        "right": "right_symmetric",
        "left": "left_symmetric",
        "central": "centrally_symmetric",
    }
    floor = 1e-12
    for side, klass in sides.items():
        for seed in range(100):
            a = tt.make_fixture(klass, seed)
            dec = tt.eig_decompose_partial(a, side)
            resid = np.linalg.norm(dec.reconstruct() - a) / np.linalg.norm(a)
            assert resid < 1e-9, f"{side} seed {seed}"
    # symmetric-eigentensor assertion for positive L-eigenvalues
    for seed in range(100):
        a = tt.make_fixture("right_symmetric", seed)
        sys_ = tt.l_eigen(a)
        for j in range(3):
            if sys_.sigma[j] > floor * sys_.sigma[0]:
                v = sys_.V[j]
                assert np.abs(v - v.T).max() < 1e-8
    print("ACCEPTANCE 7 PASS: eigenvector decompositions reconstruct, eigentensors symmetric")


def test_criterion_8_variational_cross_check():
    start = time.monotonic()
    assert abs(oracle_eta1(tt.levi_civita()) - 1.0) <= 1e-6
    assert abs(tt.max_singular_value(tt.levi_civita()).value - 1.0) <= 1e-6
    for seed in range(20):
        a = random_hyper3(seed)
        eta = tt.max_singular_value(a)
        assert certified(eta)
        assert abs(eta.value - oracle_eta1(a)) <= 1e-6
    for seed in range(20):
        a = tt.make_fixture("right_symmetric", seed)
        mu = tt.max_c_eigenvalue(a).value
        assert abs(mu - oracle_mu1(a)) <= 1e-6
    for seed in range(20):
        a = tt.make_fixture("symmetric", seed)
        nu = tt.max_z_eigenvalue(a).value
        assert abs(nu - oracle_nu1(a)) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        "ACCEPTANCE 8 PASS: eta/mu/nu agree with the sphere-grid oracle on 61 fixtures "
        f"({elapsed:.1f}s)"
    )


def test_criterion_9_selective_symmetry_equivalence():
    disagreements = 0
    total = 0
    cases = []
    for seed in range(200):
        cases.append(random_hyper3(seed))
        cases.append(tt.make_fixture("selectively_right", seed))
        cases.append(tt.make_fixture("selectively_left", seed))
        cases.append(tt.make_fixture("right_symmetric", seed))
        cases.append(tt.make_fixture("left_symmetric", seed))
    cases.append(np.zeros((3, 3, 3)))
    cases.append(np.asarray(tt.levi_civita()))
    for a in cases[:1000]:
        rep = tt.classify(a)
        right, left = tt.selective_symmetry_via_levi_civita(a)
        total += 1
        if right != rep.selectively_right or left != rep.selectively_left:
            disagreements += 1
    assert total == 1000
    assert disagreements == 0
    print("ACCEPTANCE 9 PASS: entrywise and Levi-Civita selective classifiers, 0/1000 disagree")


def test_criterion_10_symmetric_eta_equals_nu():
    # Banach (1938): on a symmetric tensor the largest singular value is
    # attained at x = y = z, so eta_1 = nu_1; criterion 6 asserts only
    # nu_1 <= mu_1 <= eta_1.  eta_1 is bracketed by the branch and bound,
    # since max_singular_value would lift it from the Z enumeration here
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        a = tt.make_fixture("symmetric", seed)
        lower, upper = eta_1_bracket(a)
        assert upper - lower <= 1e-8 * lower
        nu = tt.max_z_eigenvalue(a)
        assert nu.method == "enumerated"
        worst = max(worst, abs(lower - nu.value) / lower)
        slack = 1e-12 * np.linalg.norm(a)
        assert lower - slack <= nu.value <= upper + slack
    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE 10 PASS: eta_1 = nu_1 on 20 symmetric fixtures, worst {worst:.1e} "
        f"({elapsed:.1f}s)"
    )


def test_criterion_11_right_symmetric_eta_equals_mu():
    # x A is symmetric for a right-side symmetric A, so the largest y (x A) z
    # over unit y, z is the largest |y (x A) y| and eta_1 = mu_1; criterion 6
    # asserts only mu_1 <= eta_1.  eta_1 is bracketed by the branch and
    # bound, since max_singular_value would take it from the same C
    # enumeration as mu_1
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        a = tt.make_fixture("right_symmetric", seed)
        lower, upper = eta_1_bracket(a)
        mu = tt.max_c_eigenvalue(a)
        assert mu.method == "enumerated"
        worst = max(worst, abs(lower - mu.value) / lower)
        slack = 1e-12 * np.linalg.norm(a)
        assert lower - slack <= mu.value <= upper + slack
    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE 11 PASS: eta_1 = mu_1 on 20 right-side symmetric fixtures, worst "
        f"{worst:.1e} ({elapsed:.1f}s)"
    )
