"""Property tests on generated 3x3x3 tensors (hypothesis)."""

from itertools import permutations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tritensor as tt
from tritensor import spectral

from test_varspec import in_bracket

# entries are normal floats of moderate size or exact zeros, so scaling
# by 2^-60..2^60 stays inside the normal float64 range
entries = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))
tensors = arrays(np.float64, (3, 3, 3), elements=entries)
symmetric = tensors.map(lambda a: sum(a.transpose(p) for p in permutations(range(3))) / 6.0)
right_symmetric = tensors.map(lambda a: (a + a.transpose(0, 2, 1)) / 2.0)
# most drawn tensors are sparse or take a few distinct values, so their C
# critical points are not isolated; seeded Gaussian fixtures are generic
right_symmetric_or_generic = st.one_of(
    right_symmetric,
    st.integers(0, 2**16).map(lambda s: np.asarray(tt.make_fixture("right_symmetric", s))),
)

# each property runs 50 examples, to keep the module near a second
few = settings(max_examples=50)


def mp_relative_residual(a, b):
    """Largest Moore-Penrose residual of unfold(a) and b as 9x3, each
    divided by the size of the terms it compares."""
    m = np.asarray(a).reshape(3, 9)
    bm = np.asarray(b).reshape(9, 3)
    nm, nb = np.linalg.norm(m, 2), np.linalg.norm(bm, 2)
    mb, bmm = m @ bm, bm @ m
    return max(
        float(np.abs(mb @ m - m).max()) / nm,
        float(np.abs(bmm @ bm - bm).max()) / nb,
        float(np.abs(mb - mb.T).max()) / (nm * nb),
        float(np.abs(bmm - bmm.T).max()) / (nm * nb),
    )


@few
@given(tensors, st.integers(-60, 60), st.floats(1e-3, 1e3))
def test_sigma_is_homogeneous(a, k, c):
    sigma = tt.l_eigen(a).sigma
    # a power of two is exact, so sigma scales exactly
    assert np.array_equal(tt.l_eigen(np.ldexp(a, k)).sigma, np.ldexp(sigma, k))
    # any other factor rounds the entries, which moves sigma by ~1e-16 sigma_1
    assert np.all(np.abs(tt.l_eigen(c * a).sigma - c * sigma) <= 1e-12 * c * sigma[0])


@few
@given(tensors)
def test_transpose_has_order_three(a):
    assert np.array_equal(tt.transpose(tt.transpose(tt.transpose(a))), a)


@few
@given(tensors)
def test_l_inverse_satisfies_moore_penrose(a):
    sigma = tt.l_eigen(a).sigma
    # the residuals grow like 1e-16 sigma_1/sigma_3; 1e-9 holds up to 1e3
    assume(sigma[2] > 1e-3 * sigma[0])
    assert mp_relative_residual(a, tt.l_inverse(a)) <= 1e-9


@few
@given(tensors)
def test_memoized_l_eigen_equals_a_fresh_one(a):
    tt.l_eigen(a)
    warm = tt.l_eigen(a)
    spectral._svd_of_bytes.cache_clear()
    fresh = tt.l_eigen(a)
    for name in ("sigma", "x", "V"):
        assert getattr(warm, name).tobytes() == getattr(fresh, name).tobytes()


@few
@given(symmetric, st.integers(0, 2**16))
def test_enumerated_nu_1_is_in_the_bracket_and_ignores_rotations(a, r):
    try:
        spectrum = tt.z_spectrum(a)
    except tt.Uncertified:  # the zero tensor, rank-one ones and their like
        return
    nu, norm = spectrum.values[0], np.linalg.norm(a)
    # nu_1 = eta_1 on a symmetric tensor (Banach 1938)
    assert in_bracket(nu, a)
    rotated = tt.max_z_eigenvalue(tt.rotate(a, tt.random_rotation(r)))
    assert abs(rotated.value - nu) <= 1e-12 * norm


@few
@given(right_symmetric_or_generic, st.integers(0, 2**16))
def test_enumerated_mu_1_is_in_the_bracket_and_ignores_rotations(a, r):
    try:
        spectrum = tt.c_spectrum(a)
    except tt.Uncertified:  # the zero tensor, rank-one ones and their like
        return
    mu, norm = spectrum.values[0], np.linalg.norm(a)
    # x A is symmetric, so mu_1 = eta_1
    assert in_bracket(mu, a)
    rotated = tt.max_c_eigenvalue(tt.rotate(a, tt.random_rotation(r)))
    assert abs(rotated.value - mu) <= 1e-12 * norm


@few
@given(right_symmetric)
def test_uncertified_mu_1_is_eta_1(a):
    # x A is symmetric, so mu_1 = eta_1, and the fallback takes its pair
    # from the bounded eta_1, whose upper bound it shares
    try:
        tt.c_spectrum(a)
    except tt.Uncertified:
        pass
    else:
        return
    eta = tt.max_singular_value(a)
    try:
        mu = tt.max_c_eigenvalue(a)
    except tt.NoConvergence:  # the pair did not polish: near a continuum of maxima
        return
    assert mu.method == eta.method == "bounded"
    assert mu.upper_bound == eta.upper_bound
    assert abs(mu.value - eta.value) <= 1e-12 * np.linalg.norm(a)
    assert mu.residual <= 1e-12


# one symmetric pair of slots, at any of the three places, or a seeded
# Gaussian fixture of that class
partially_symmetric = st.one_of(
    *(tensors.map(lambda a, p=p: (a + a.transpose(p)) / 2.0)
      for p in ((0, 2, 1), (1, 0, 2), (2, 1, 0))),
    st.tuples(
        st.sampled_from(["right_symmetric", "left_symmetric", "centrally_symmetric"]),
        st.integers(0, 2**16),
    ).map(lambda case: np.asarray(tt.make_fixture(*case))),
)


@few
@given(partially_symmetric)
def test_enumerated_eta_1_is_in_the_bracket(a):
    eta = tt.max_singular_value(a)
    if eta.method != "enumerated":
        return
    assert in_bracket(eta.value, a)
    assert eta.residual <= 1e-12
