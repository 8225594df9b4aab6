import functools
import importlib.util
import itertools
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import tritensor as tt
from tritensor import core, varspec
from tritensor.errors import (
    NoConvergence, NotPartiallySymmetric, NotRightSymmetric, NotSymmetric, Uncertified,
    Unrepresentable,
)
from tritensor.symmetry import (
    FIXTURE_CLASSES, _PAIR_LAST, _PAIR_SWAPS, _swap_deviations, _swap_symmetric,
)

from helpers import oracle_eta1, oracle_mu1, oracle_nu1, random_hyper3, random_vec, run_python

ZERO = np.zeros((3, 3, 3))


def unit(v):
    return v / np.linalg.norm(v)


def eta_1_bracket(a):
    """(value, upper bound) of ``varspec._bounded`` for a nonzero tensor,
    run whether or not an enumeration would serve: the bracket of eta_1
    that the enumerations are checked against."""
    scaled, exp = core._scaled(a, "Hyper3")
    (f, _, _), upper, _ = varspec._bounded(scaled)
    return np.ldexp(f[0], exp), np.ldexp(upper, exp)


def in_bracket(value, a):
    """Whether ``value`` lies in eta_1's bracket, widened by 1e-12 ||A||."""
    lower, upper = eta_1_bracket(a)
    slack = 1e-12 * np.linalg.norm(a)
    return lower - slack <= value <= upper + slack


def _route_of(a):
    """The route memo's entry for ``a``."""
    return varspec._route(core._shaped(a, "Hyper3").tobytes())


def fallback(kind, a):
    """The fallback of ``max_c_eigenvalue`` or ``max_z_eigenvalue`` (through
    the bounded eta_1), run whether or not the enumeration would certify."""
    return varspec._bounded_maximum(kind, _route_of(a))


def _unscaled_residual(norm, exp):
    """The factor that takes a residual relative to ``norm`` = ||a|| to one
    relative to max(1, ||A||), for A = ldexp(a, exp), as the route holds it."""
    return 1.0 if exp > 0 else min(1.0, math.ldexp(norm, exp))


# ---------------------------------------------------------------------------
# singular values


def test_singular_zero_tensor():
    triple = tt.max_singular_value(ZERO)
    assert triple.value == triple.upper_bound == 0.0
    assert triple.residual == 0.0


def test_singular_rank_one():
    x, y, z = (unit(random_vec(s)) for s in (1, 2, 3))
    lam = 1.75
    triple = tt.max_singular_value(lam * tt.outer(x, y, z))
    assert abs(triple.value - lam) <= 1e-10
    assert min(np.abs(triple.x - x).max(), np.abs(triple.x + x).max()) <= 1e-8
    assert min(np.abs(triple.y - y).max(), np.abs(triple.y + y).max()) <= 1e-8
    assert min(np.abs(triple.z - z).max(), np.abs(triple.z + z).max()) <= 1e-8


def test_singular_levi_civita():
    # the maximum of the triple-sphere potential of the permutation tensor;
    # established empirically by the independent grid oracle, frozen at 1.0
    triple = tt.max_singular_value(tt.levi_civita())
    assert abs(triple.value - 1.0) <= 1e-8
    assert abs(oracle_eta1(tt.levi_civita()) - 1.0) <= 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_singular_matches_grid_oracle(seed):
    a = random_hyper3(seed)
    triple = tt.max_singular_value(a)
    assert abs(triple.value - oracle_eta1(a)) <= 1e-6
    assert triple.residual <= 1e-9
    # the reported value is exactly the potential at the reported vectors
    assert abs(triple.value - tt.contract_full(a, triple.x, triple.y, triple.z)) <= 1e-12


def test_singular_defining_equations():
    a = random_hyper3(42)
    t = tt.max_singular_value(a)
    scale = max(1.0, np.linalg.norm(a))
    r1 = np.linalg.norm(tt.contract_two(a, t.y, t.z, (2, 3)) - t.value * t.x)
    r2 = np.linalg.norm(tt.contract_two(a, t.x, t.z, (1, 3)) - t.value * t.y)
    r3 = np.linalg.norm(tt.contract_two(a, t.x, t.y, (1, 2)) - t.value * t.z)
    assert max(r1, r2, r3) <= 1e-9 * scale


def test_triples_store_unit_vectors():
    a = tt.make_fixture("symmetric", 14)
    for triple in (
        tt.max_singular_value(a),
        tt.max_c_eigenvalue(a),
        tt.max_z_eigenvalue(a),
    ):
        for v in (triple.x, triple.y, triple.z):
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert triple.value >= 0.0
        assert triple.residual <= 1e-9
        assert triple.starts_converged >= 1


def test_singular_sampling_lower_bound():
    a = random_hyper3(4)
    eta = tt.max_singular_value(a).value
    rng = np.random.default_rng(0)
    xs, ys, zs = (rng.standard_normal((100_000, 3)) for _ in range(3))
    for block in (xs, ys, zs):
        block /= np.linalg.norm(block, axis=1, keepdims=True)
    samples = np.einsum("ri,ijk,rj,rk->r", xs, a, ys, zs)
    assert samples.max() <= eta + 1e-9


# ---------------------------------------------------------------------------
# C-eigenvalues


def test_c_eigen_requires_right_symmetry():
    # the symmetry check is relative to ||A||, so a small scale does not pass it
    for c in (1.0, 1e-9):
        with pytest.raises(NotRightSymmetric):
            tt.max_c_eigenvalue(c * random_hyper3(0))


def test_c_eigen_rank_one():
    x, y = unit(random_vec(5)), unit(random_vec(6))
    triple = tt.max_c_eigenvalue(tt.outer(x, y, y))
    assert abs(triple.value - 1.0) <= 1e-10
    assert np.array_equal(triple.y, triple.z)


def test_c_eigen_zero():
    assert tt.max_c_eigenvalue(ZERO).value == 0.0


def test_c_eigen_eigenframe_cubes():
    # sum of lambda_i x_i^(3) over an orthonormal frame: mu_1 = max |lambda_i|
    p = tt.random_rotation(12)
    lam = np.array([2.5, 1.5, -3.0])
    a = sum(lam[i] * tt.outer(p[:, i], p[:, i], p[:, i]) for i in range(3))
    triple = tt.max_c_eigenvalue(a)
    assert abs(triple.value - 3.0) <= 1e-9
    assert abs(oracle_mu1(a) - 3.0) <= 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_c_eigen_matches_oracle_and_bounds(seed):
    a = tt.make_fixture("right_symmetric", seed)
    mu = tt.max_c_eigenvalue(a)
    assert abs(mu.value - oracle_mu1(a)) <= 1e-6
    eta = tt.max_singular_value(a)
    assert mu.value <= eta.value + 1e-9
    scale = max(1.0, np.linalg.norm(a))
    r1 = np.linalg.norm(tt.contract_two(a, mu.y, mu.y, (2, 3)) - mu.value * mu.x)
    r2 = np.linalg.norm(tt.contract_two(a, mu.x, mu.y, (1, 2)) - mu.value * mu.y)
    assert max(r1, r2) <= 1e-9 * scale
    assert abs(mu.value - tt.contract_full(a, mu.x, mu.y, mu.y)) <= 1e-12


# ---------------------------------------------------------------------------
# Z-eigenvalues


def test_z_eigen_requires_symmetry():
    for a in (tt.make_fixture("right_symmetric", 0), 1e-9 * random_hyper3(0)):
        with pytest.raises(NotSymmetric):
            tt.max_z_eigenvalue(a)


def test_z_eigen_single_cube():
    x = unit(random_vec(2))
    triple = tt.max_z_eigenvalue(2.25 * tt.outer(x, x, x))
    # a circle of eigenvectors at 0: the enumeration cannot certify
    assert triple.method == "bounded"
    assert abs(triple.value - 2.25) <= 1e-10
    assert np.array_equal(triple.x, triple.y)
    assert np.array_equal(triple.x, triple.z)


def test_z_eigen_zero():
    triple = tt.max_z_eigenvalue(ZERO)
    assert (triple.value, triple.upper_bound, triple.method) == (0.0, 0.0, "bounded")
    with pytest.raises(Uncertified):
        tt.z_spectrum(ZERO)


def test_z_eigen_eigenframe_cubes():
    p = tt.random_rotation(30)
    lam = np.array([0.5, 2.0, 1.0])
    a = sum(lam[i] * tt.outer(p[:, i], p[:, i], p[:, i]) for i in range(3))
    triple = tt.max_z_eigenvalue(a)
    assert abs(triple.value - 2.0) <= 1e-9
    assert abs(oracle_nu1(a) - 2.0) <= 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_z_eigen_chain_and_oracle(seed):
    a = tt.make_fixture("symmetric", seed)
    nu = tt.max_z_eigenvalue(a)
    mu = tt.max_c_eigenvalue(a)
    eta = tt.max_singular_value(a)
    assert nu.value <= mu.value + 1e-9
    assert mu.value <= eta.value + 1e-9
    assert abs(nu.value - mu.value) <= 1e-9
    assert abs(nu.value - oracle_nu1(a)) <= 1e-6
    scale = max(1.0, np.linalg.norm(a))
    res = np.linalg.norm(tt.contract_two(a, nu.x, nu.x, (2, 3)) - nu.value * nu.x)
    assert res <= 1e-9 * scale
    assert nu.value >= 0.0


# ---------------------------------------------------------------------------
# every Z-eigenpair by elimination


def _subset_pairs(lam):
    """The Z-eigenpairs of sum_i lam_i e_i^(3): x ~ sum over a subset S of
    e_i / lam_i, at 1 / sqrt(sum_S lam_i^-2), one per nonempty subset."""
    pairs = []
    for mask in itertools.product((0.0, 1.0), repeat=3):
        if any(mask):
            x = np.array(mask) / lam
            pairs.append((1.0 / np.linalg.norm(x), x / np.linalg.norm(x)))
    return sorted(pairs, key=lambda p: -p[0])


def test_z_spectrum_of_eigenframe_cubes_is_the_subset_formula():
    p = np.asarray(tt.random_rotation(30))
    lam = np.array([0.5, 2.0, -1.0])
    a = sum(lam[i] * tt.outer(p[:, i], p[:, i], p[:, i]) for i in range(3))
    spectrum = tt.z_spectrum(a)
    want = _subset_pairs(lam)
    assert len(spectrum.values) == 7
    for value, vector, (w_value, w_vector) in zip(spectrum.values, spectrum.vectors, want):
        assert abs(value - w_value) <= 1e-14
        # signed so that the cubic form is nonnegative
        w_vector = p @ w_vector
        w_vector = w_vector * np.sign(np.einsum("ijk,i,j,k->", a, w_vector, w_vector, w_vector))
        assert np.abs(vector - w_vector).max() <= 1e-13


@pytest.mark.parametrize("klass", ["symmetric", "primarily_symmetric"])
def test_z_spectrum_pairs_solve_the_defining_equations(klass):
    for seed in range(10):
        a = np.asarray(tt.make_fixture(klass, seed))
        spectrum = tt.z_spectrum(a)
        values, vectors = spectrum.values, spectrum.vectors
        assert len(values) in (1, 3, 5, 7)
        assert np.all(np.diff(values) <= 0.0) and values[-1] >= 0.0
        assert np.abs(np.linalg.norm(vectors, axis=1) - 1.0).max() <= 1e-15
        gx = np.einsum("ijk,nj,nk->ni", a, vectors, vectors)
        residual = np.linalg.norm(gx - values[:, None] * vectors, axis=1)
        assert residual.max() <= 1e-14 * max(1.0, np.linalg.norm(a))
        assert np.all(spectrum.residuals <= 1e-12)
        triple = tt.max_z_eigenvalue(a)
        assert triple.method == "enumerated"
        assert triple.value == values[0]
        assert triple.x.tobytes() == vectors[0].tobytes()


def test_z_spectrum_requires_symmetry():
    for a in (tt.make_fixture("right_symmetric", 0), 1e-9 * random_hyper3(0)):
        with pytest.raises(NotSymmetric):
            tt.z_spectrum(a)


def _slow_tensor():
    """The 15th draw of sum_i w_i v_i^(3) from default_rng(1), on which a
    seeded Z multistart once took 1351 iterations and, at another seed,
    ran out of its 10 000."""
    rng = np.random.default_rng(1)
    for _ in range(15):
        v, w = rng.standard_normal((3, 3)), rng.standard_normal(3)
    return sum(w[i] * tt.outer(v[i], v[i], v[i]) for i in range(3))


@pytest.mark.parametrize("scale", [1, 2])
def test_z_eigen_slow_tensor_in_one_enumerated_call(scale):
    # nu_1 is homogeneous of degree 1, and scaling by 2 is exact
    a = scale * _slow_tensor()
    history = []
    triple = tt.max_z_eigenvalue(a, history_out=history)
    assert (triple.method, history) == ("enumerated", [])
    assert triple.upper_bound == triple.value
    assert abs(triple.value - scale * 9.6715231127223) <= 1e-12 * triple.value
    assert len(tt.z_spectrum(a).values) == 7


def _rank_one(noise):
    v = unit(random_vec(3))
    n = np.asarray(tt.make_fixture("symmetric", 1))
    return 3.0 * tt.outer(v, v, v) + noise * n / np.linalg.norm(n)


@pytest.mark.parametrize("noise", [0.0, 1e-12, 1e-9, 1e-6])
def test_z_eigen_rank_one_plus_noise(noise):
    # nu_1 = 3 + noise * N(v, v, v) to first order, |N(v, v, v)| <= ||N|| = 1;
    # the fallback takes its pair from the bounded eta_1, whose bracket closes
    a = _rank_one(noise)
    triple = tt.max_z_eigenvalue(a)
    assert triple.upper_bound - triple.value <= 1e-8 * triple.value
    assert abs(triple.value - 3.0) <= 2.0 * noise + 1e-14
    eta = tt.max_singular_value(a).value
    assert abs(triple.value - eta) <= 1e-12 * np.linalg.norm(a)
    # the eigenvectors orthogonal to v are (nearly) a circle: the
    # resultant is (nearly) zero and its rounding fails the certificate,
    # where the uncertified roots gave 6.9e-6 for noise 0
    assert triple.method == "bounded"
    with pytest.raises(Uncertified):
        tt.z_spectrum(a)


def test_z_eigen_rank_two_has_a_multiple_root():
    # the eigenvector orthogonal to both terms has multiplicity 4, which
    # rounding splits into roots ~1e-4 apart; without the conditioning
    # bound the enumeration kept one real pair and lost that eigenvector
    u = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    a = tt.outer(*[np.eye(3)[0]] * 3) + 2.0 * tt.outer(u, u, u)
    with pytest.raises(Uncertified):
        tt.z_spectrum(a)
    triple = tt.max_z_eigenvalue(a)
    assert triple.method == "bounded"
    assert abs(triple.value - oracle_nu1(a)) <= 1e-6


def test_solvers_load_varspec_on_first_use_without_numpy_random_or_fft():
    # the CLI process pays for every import: the package loads varspec on
    # the first lookup of one of its names, so the closed-form layers run
    # without it, and the enumerations use neither numpy.random nor
    # numpy.fft (numpy 2.4 imports both lazily); the result records are
    # named tuples, so neither part loads dataclasses
    entries = np.asarray(tt.make_fixture("symmetric", 7)).tolist()
    right = np.asarray(tt.make_fixture("right_symmetric", 7)).tolist()
    code = (
        "import sys, tritensor\n"
        "loaded = ['tritensor.varspec' in sys.modules]\n"
        f"tritensor.classify({entries!r})\n"
        f"tritensor.l_eigen({entries!r})\n"
        "loaded += ['tritensor.varspec' in sys.modules, 'dataclasses' in sys.modules]\n"
        f"methods = [tritensor.max_z_eigenvalue({entries!r}).method,\n"
        f"           tritensor.max_c_eigenvalue({right!r}).method]\n"
        "loaded += ['tritensor.varspec' in sys.modules, 'max_z_eigenvalue' in vars(tritensor),\n"
        "           'dataclasses' in sys.modules]\n"
        "try:\n"
        "    tritensor.no_such_name\n"
        "except AttributeError:\n"
        "    loaded.append('AttributeError')\n"
        "print(*loaded, *methods, 'numpy.random' in sys.modules, 'numpy.fft' in sys.modules)\n"
    )
    out = run_python("-c", code).stdout
    assert out.split() == [
        "False", "False", "False", "True", "True", "False", "AttributeError",
        "enumerated", "enumerated", "False", "False",
    ]


# ---------------------------------------------------------------------------
# every C-eigenpair by elimination


def _c_subset_pairs(lam, p):
    """The C-eigenpairs of sum_i lam_i p_i^(3) over an orthonormal frame p:
    per nonempty subset S and signs e_i, y ~ sum_S e_i p_i / |lam_i| at
    mu_S = (sum_S lam_i^-2)^(-1/2), with x ~ sum_S p_i / lam_i; 13 lines."""
    pairs = []
    for mask in itertools.product((0.0, 1.0), repeat=3):
        inside = np.flatnonzero(mask)
        if not len(inside):
            continue
        w = np.array(mask) / lam
        # the first sign is +1: one pair per line +-y
        for rest in itertools.product((1.0, -1.0), repeat=len(inside) - 1):
            signs = np.zeros(3)
            signs[inside] = (1.0, *rest)
            pairs.append((1.0 / np.linalg.norm(w), unit(p @ w), unit(p @ (signs / np.abs(lam)))))
    return pairs


def test_c_spectrum_of_eigenframe_cubes_is_the_subset_formula():
    p = np.asarray(tt.random_rotation(30))
    lam = np.array([0.5, 2.0, -1.0])
    a = sum(lam[i] * tt.outer(p[:, i], p[:, i], p[:, i]) for i in range(3))
    spectrum = tt.c_spectrum(a)
    want = _c_subset_pairs(lam, p)
    assert len(want) == len(spectrum.values) == 13
    values = sorted((w[0] for w in want), reverse=True)
    np.testing.assert_allclose(spectrum.values, values, rtol=0, atol=1e-14)
    for mu, x, y in want:
        # y up to sign: the pair is (x, y) with y's first largest entry positive
        y = y * np.sign(y[np.argmax(np.abs(y))])
        n = np.argmin(np.abs(spectrum.y - y).max(axis=1))
        assert abs(spectrum.values[n] - mu) <= 1e-14
        assert np.abs(spectrum.y[n] - y).max() <= 1e-13
        assert np.abs(spectrum.x[n] - x).max() <= 1e-13


@pytest.mark.parametrize("klass", ["right_symmetric", "symmetric"])
def test_c_spectrum_pairs_solve_the_defining_equations(klass):
    for seed in range(10):
        a = np.asarray(tt.make_fixture(klass, seed))
        spectrum = tt.c_spectrum(a)
        values, x, y = spectrum.values, spectrum.x, spectrum.y
        # an odd count: max - saddles + min = 1 on the projective plane
        assert len(values) in (3, 5, 7, 9, 11, 13)
        assert np.all(np.diff(values) <= 0.0) and values[-1] > 0.0
        for v in (x, y):
            assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= 1e-15
        scale = max(1.0, np.linalg.norm(a))
        ayy = np.einsum("ijk,nj,nk->ni", a, y, y)
        xay = np.einsum("ijk,ni,nj->nk", a, x, y)
        assert np.linalg.norm(ayy - values[:, None] * x, axis=1).max() <= 1e-14 * scale
        assert np.linalg.norm(xay - values[:, None] * y, axis=1).max() <= 1e-14 * scale
        assert np.all(spectrum.residuals <= 1e-12)
        triple = tt.max_c_eigenvalue(a)
        assert (triple.method, triple.starts_converged) == ("enumerated", 1)
        if klass == "symmetric":
            # mu_1 of a symmetric tensor is the best Z pair v lifted to
            # (v, +-v), y signed as the C pair's is; the best C pair agrees
            # to rounding, mu_1 = nu_1 (Banach 1938)
            z = tt.z_spectrum(a)
            v, eps = z.vectors[0], np.finfo(float).eps
            assert triple.value == z.values[0]
            assert triple.x.tobytes() == v.tobytes()
            assert triple.y.tobytes() == triple.z.tobytes() == (np.sign(y[0] @ v) * v).tobytes()
            assert abs(triple.value - values[0]) <= 8 * eps * triple.value
            assert max(np.abs(triple.x - x[0]).max(), np.abs(triple.y - y[0]).max()) <= 8 * eps
        else:
            assert triple.value == values[0]
            assert triple.x.tobytes() == x[0].tobytes()
            assert triple.y.tobytes() == triple.z.tobytes() == y[0].tobytes()


def test_c_spectrum_requires_right_symmetry():
    for a in (tt.make_fixture("left_symmetric", 0), 1e-9 * random_hyper3(0)):
        with pytest.raises(NotRightSymmetric):
            tt.c_spectrum(a)


def _c_rank_one(noise):
    x, y = unit(random_vec(5)), unit(random_vec(6))
    n = np.asarray(tt.make_fixture("right_symmetric", 1))
    return tt.outer(x, y, y) + noise * n / np.linalg.norm(n)


@pytest.mark.parametrize("noise", [None, 0.0, 1e-12, 1e-9, 1e-6])
def test_c_spectrum_uncertified_on_zero_and_rank_one(noise):
    # q(y) = ||A y y||^2 of x (x) y (x) y vanishes on the circle orthogonal
    # to y, so the resultant is (nearly) zero and its rounding fails the
    # certificate; mu_1 = 1 + noise * N(x, y, y) to first order
    a = ZERO if noise is None else _c_rank_one(noise)
    with pytest.raises(Uncertified):
        tt.c_spectrum(a)
    triple = tt.max_c_eigenvalue(a)
    assert triple.method == "bounded"
    want = 0.0 if noise is None else 1.0
    assert abs(triple.value - want) <= 2.0 * (noise or 0.0) + 1e-14


def test_c_eigen_fallback_where_the_pairs_are_not_isolated():
    # A = e_1 (x) I: every unit y gives a pair with mu = 1 and x = e_1, x A
    # is the identity and the bordered Newton system is exactly singular,
    # so the fallback keeps its pair unpolished
    a = np.einsum("i,jk->ijk", np.eye(3)[0], np.eye(3))
    with pytest.raises(Uncertified):
        tt.c_spectrum(a)
    triple = tt.max_c_eigenvalue(a)
    assert (triple.value, triple.method) == (1.0, "bounded")
    assert triple.residual <= 1e-12


# ---------------------------------------------------------------------------
# eta_1 and mu_1 lifted from the Z or C enumeration


def _symmetrized(g):
    return sum(g.transpose(p) for p in itertools.permutations(range(3))) / 6.0


def _right_symmetrized(g):
    return 0.5 * (g + g.transpose(0, 2, 1))


def _near_circle(noise):
    """3 sym(e_1 (x) (e_2 (x) e_2 + e_3 (x) e_3)), whose maxima form a
    circle, plus ``noise`` times the third symmetrized Gaussian draw of
    default_rng(3)."""
    rng = np.random.default_rng(3)
    for _ in range(3):
        n = _symmetrized(rng.standard_normal((3, 3, 3)))
    circle = np.einsum("i,jk->ijk", np.eye(3)[0], np.diag([0.0, 1.0, 1.0]))
    return 3.0 * _symmetrized(circle) + noise * n


def test_eta_1_near_a_circle_of_maxima_is_enumerated():
    # the bound alone leaves a bracket of 6e-6 here, a continuum of
    # maxima being too flat for its 20 000 evaluations
    a = _near_circle(1e-5)
    triple = tt.max_singular_value(a)
    assert (triple.method, triple.starts_converged) == ("enumerated", 1)
    assert abs(triple.value - 1.1547151559891802) <= 1e-12 * triple.value
    assert abs(triple.value - tt.max_c_eigenvalue(a).value) <= 1e-12 * triple.value
    assert triple.residual <= 1e-12


def test_eta_1_nearer_a_circle_of_maxima():
    # no chart certifies, and the bound stops at its budget with a bracket
    # of about 2e-5 around eta_1, which the noise moves ~1e-9 off 2 / sqrt(3)
    a = _near_circle(1e-9)
    triple = tt.max_singular_value(a)
    eta = 2.0 / np.sqrt(3.0)
    assert triple.method == "bounded"
    assert eta <= triple.upper_bound <= triple.value * (1.0 + 1e-4)
    assert abs(triple.value - eta) <= 1e-8
    assert abs(triple.value - tt.contract_full(a, triple.x, triple.y, triple.z)) <= 1e-12
    # the C and Z pairs taken from it do not polish there: a documented limit
    for solve in (tt.max_c_eigenvalue, tt.max_z_eigenvalue):
        with pytest.raises(NoConvergence):
            solve(a)


@pytest.mark.parametrize("t, method", [(0.5, "enumerated"), (2.0, "bounded"), (1e3, "bounded")])
def test_eta_1_gate_is_the_polish_bound(t, method):
    # one entry off by t times 1e-12 ||A|| breaks the right, left and
    # central swaps at once; still symmetric within the gates' 1e-8 ||A||,
    # nu_1 and mu_1 keep their own enumerations where eta_1 is not lifted
    a = np.array(tt.make_fixture("symmetric", 4))
    a[0, 1, 2] += t * 1e-12 * np.linalg.norm(a)
    triple = tt.max_singular_value(a)
    assert triple.method == method
    assert triple.residual <= 1e-12
    assert in_bracket(triple.value, a)
    nu, mu = tt.max_z_eigenvalue(a), tt.max_c_eigenvalue(a)
    assert nu.method == mu.method == "enumerated"
    assert nu.value == tt.z_spectrum(a).values[0]
    assert (triple.value == nu.value) == (method == "enumerated")


def _enumerations(a):
    """The (kind, axis permutation) of each enumeration that the route of
    ``a`` holds, in the order run: read right after a solve of ``a``, the
    enumerations that it and the solves of ``a`` before it ran.  The
    route's branch and bound, kept beside them, is not one."""
    return [source for source in _route_of(a).runs if source != "bounded"]


def test_eta_1_route_at_the_polish_bound():
    # within 1e-12 ||A|| of symmetric: eta_1 and mu_1 by the Z route; only
    # right-side symmetric there (two entries off by 2e-12 ||A||): by the C
    # enumeration of the tensor itself, as where the right and left swaps
    # hold and the central one fails, which they allow up to about
    # 3e-12 ||A||: around the hexagon of index orders each right or left
    # swap moves 0.9e-12 ||A||, so the central swap sees 2.7e-12 ||A||
    a = np.array(tt.make_fixture("symmetric", 4))
    bound = 1e-12 * np.linalg.norm(a)
    near = a.copy()
    near[0, 1, 2] += 0.5 * bound
    right = a.copy()
    right[0, 1, 2] += 2.0 * bound
    right[0, 2, 1] += 2.0 * bound
    hexagon = a.copy()
    for idx, t in zip(((0, 2, 1), (2, 0, 1), (2, 1, 0), (1, 0, 2), (1, 2, 0)),
                      (0.9, 1.8, 2.7, 0.9, 1.8)):
        hexagon[idx] += t * bound
    report = tt.classify(hexagon, 1e-12)
    assert (report.right_symmetric, report.left_symmetric, report.centrally_symmetric) == (
        True, True, False
    )
    for b, kind in ((near, "z_eigen"), (right, "c_eigen"), (hexagon, "c_eigen")):
        for solve in (tt.max_singular_value, tt.max_c_eigenvalue):
            # from a cleared route, which would otherwise answer mu_1
            varspec._route.cache_clear()
            triple = solve(b)
            assert (_enumerations(b), triple.method) == ([(kind, (0, 1, 2))], "enumerated")
            assert triple.residual <= 1e-12
    assert tt.max_singular_value(near).value == tt.max_z_eigenvalue(near).value
    assert tt.max_c_eigenvalue(hexagon).value == tt.c_spectrum(hexagon).values[0]


@pytest.mark.parametrize("klass, pair", [
    ("right_symmetric", (1, 2)), ("left_symmetric", (0, 1)), ("centrally_symmetric", (0, 2)),
])
def test_lifted_eta_1_solves_the_singular_equations(klass, pair):
    for seed in range(5):
        a = np.asarray(tt.make_fixture(klass, seed))
        t = tt.max_singular_value(a)
        assert (t.method, t.starts_converged) == ("enumerated", 1)
        scale = np.linalg.norm(a)
        r1 = np.linalg.norm(tt.contract_two(a, t.y, t.z, (2, 3)) - t.value * t.x)
        r2 = np.linalg.norm(tt.contract_two(a, t.x, t.z, (1, 3)) - t.value * t.y)
        r3 = np.linalg.norm(tt.contract_two(a, t.x, t.y, (1, 2)) - t.value * t.z)
        assert max(r1, r2, r3) <= 1e-12 * scale
        assert t.residual <= 1e-12
        # the symmetric pair of slots holds one vector, up to its sign
        first, second = (np.abs((t.x, t.y, t.z)[i]) for i in pair)
        assert first.tobytes() == second.tobytes()
        assert in_bracket(t.value, a)


def test_eta_1_and_mu_1_share_one_read_only_enumeration():
    # a symmetric tensor: eta_1, mu_1 and nu_1 from its Z enumeration, which
    # its route reads once; a right-side symmetric one: eta_1 and mu_1 from
    # its C enumeration
    for klass, kind, solves in (
        ("symmetric", "z_eigen", (tt.max_singular_value, tt.max_c_eigenvalue, tt.max_z_eigenvalue)),
        ("right_symmetric", "c_eigen", (tt.max_singular_value, tt.max_c_eigenvalue)),
    ):
        a = np.asarray(tt.make_fixture(klass, 9))
        varspec._route.cache_clear()
        history = []
        triples = [solve(a, history_out=history) for solve in solves]
        assert (_enumerations(a), history) == ([(kind, (0, 1, 2))], [])
        assert all(t.method == "enumerated" for t in triples)
        assert max(abs(t.value - triples[0].value) for t in triples) <= 1e-12 * triples[0].value
        route = varspec._route(a.tobytes())
        pairs = route.runs[kind, (0, 1, 2)]
        arrays = [*pairs, route.a, *(getattr(t, v) for t in triples for v in "xyz")]
        assert not any(arr.flags.writeable for arr in arrays)


def _banach_inputs():
    """The 32 (fixture, rotation) pairs of criterion 4 that the audit
    benchmark times, and 50 symmetrized Gaussian tensors."""
    out = [tt.rotate(tt.make_fixture(klass, i), tt.random_rotation(r))
           for klass in ("symmetric", "primarily_symmetric") for i in range(8) for r in range(2)]
    rng = np.random.default_rng(17)
    return out + [_symmetrized(rng.standard_normal((3, 3, 3))) for _ in range(50)]


def test_symmetric_eta_1_mu_1_and_nu_1_are_one_z_pair():
    # Banach (1938): on a symmetric tensor the three maxima are one value,
    # attained at (v, v, v) for the best Z-eigenvector v
    for a in _banach_inputs():
        eta, mu, nu = (solve(a) for solve in
                       (tt.max_singular_value, tt.max_c_eigenvalue, tt.max_z_eigenvalue))
        assert eta.method == mu.method == nu.method == "enumerated"
        assert eta.value == mu.value == nu.value
        assert max(eta.residual, mu.residual, nu.residual) <= 1e-12
        v = tt.z_spectrum(a).vectors[0]
        for u in (eta.x, eta.y, eta.z):
            assert u.tobytes() in (v.tobytes(), (-v).tobytes())


def _counted(monkeypatch, *names):
    """The list that each call of the named ``varspec`` functions appends
    its name to."""
    calls = []
    for name in names:
        fn = getattr(varspec, name)
        monkeypatch.setattr(varspec, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    return calls


def test_mu_1_and_nu_1_after_eta_1_read_its_route(monkeypatch):
    # after eta_1 of a symmetric tensor, mu_1 and nu_1 are the triples of
    # its route: no enumeration, no product, and the same objects each time
    calls = _counted(monkeypatch, "_chart_pairs", "_jacobian_map")
    for a in _banach_inputs()[:32]:
        eta = tt.max_singular_value(a)
        calls.clear()
        mu, nu = tt.max_c_eigenvalue(a), tt.max_z_eigenvalue(a)
        assert calls == []
        assert (mu.method, nu.method) == ("enumerated", "enumerated")
        assert tt.max_singular_value(a) is eta
        assert tt.max_c_eigenvalue(a) is mu and tt.max_z_eigenvalue(a) is nu
        assert calls == []


def test_the_route_is_keyed_on_the_contents():
    a = np.array(tt.make_fixture("symmetric", 9))
    b = np.asarray(tt.make_fixture("symmetric", 10))
    before = tt.max_c_eigenvalue(a).as_dict()
    want = tt.max_c_eigenvalue(b).as_dict()
    # mutated in place between eta_1 and mu_1: mu_1 of the new contents
    tt.max_singular_value(a)
    a[...] = b
    assert tt.max_c_eigenvalue(a).as_dict() == want != before
    # a copy with equal bytes reads the same route
    nu = tt.max_z_eigenvalue(a)
    hits = varspec._route.cache_info().hits
    assert tt.max_z_eigenvalue(a.copy()) is nu
    assert tt.max_z_eigenvalue(np.asfortranarray(a)) is nu  # read in C order
    assert varspec._route.cache_info().hits == hits + 2
    scaled = varspec._route(a.tobytes()).a
    assert not scaled.flags.writeable
    assert scaled.tobytes() == core._scaled(a, "Hyper3")[0].tobytes()
    # the gate's errors, raised before the memo is read, and float32 read
    # as its float64 cast
    for solve in (tt.max_singular_value, tt.max_c_eigenvalue, tt.max_z_eigenvalue):
        with pytest.raises(ValueError, match=r"shape \(3, 3, 3\), got \(27,\)"):
            solve(a.reshape(27))
        bad = a.copy()
        bad[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            solve(bad)
        single = a.astype(np.float32)
        got = solve(single).as_dict()
        varspec._route.cache_clear()
        assert got == solve(single.astype(float)).as_dict()
    assert varspec._route.cache_info().currsize == 1


def _product_residuals(a, slots, k, state, f):
    """Per state and block, |g_b - f s_b| for the gradients g = J s / 2 of
    one product with the Jacobian map of the scaled ``a`` at the (r, k, 3)
    ``state``, against the given potentials ``f``: the reference that the
    slot-contraction lifts are checked against, with ``f`` the enumerated
    value."""
    n = 3 * k
    system = varspec._lagrange(varspec._jacobian_map(a, slots, k), state)[0]
    sf = state.reshape(len(state), n)
    g = 0.5 * np.matmul(system[:, :n, :n], sf[:, :, None])[:, :, 0]
    return varspec._norms((g - f[:, None] * sf).reshape(state.shape))


def test_mu_1_residual_from_the_slot_contractions_is_the_c_residual():
    # the larger residual of the first two slot contractions at (v, v, v)
    # against that of the C product at (v, +-v), as the lift had it
    for a in _banach_inputs()[:32]:
        mu = tt.max_c_eigenvalue(a)
        scaled, exp = core._scaled(a, "Hyper3")
        slots, k = varspec._KINDS["c_eigen"][:2]
        state = np.stack((mu.x, mu.y))[None]
        f = np.array([np.ldexp(mu.value, -exp)])
        resid = _product_residuals(scaled, slots, k, state, f).max()
        norm = core._frobenius(scaled)
        resid = resid / norm * _unscaled_residual(norm, exp)
        assert abs(mu.residual - resid) <= 4 * np.finfo(float).eps


def _product_lifts(a):
    """eta_1 and mu_1 of a symmetric tensor by kind, as the route took them
    from one singular Jacobian product at (v, v, v), its three slot
    residuals, and the singular and C sign rules on the blocks."""
    scaled, exp = core._scaled(a, "Hyper3")
    pairs = varspec._chart_pairs("z_eigen", scaled, 0)
    if pairs is None:
        return {}
    f, state, _ = (arr[:1] for arr in pairs)
    norm = core._frobenius(scaled)
    value, unscaled = np.ldexp(f[0], exp), _unscaled_residual(norm, exp)
    blocks = state[:, [0, 0, 0]]
    slot = _product_residuals(scaled, (0, 1, 2), 3, blocks, f)[0]
    lifts = {}
    for kind, r, k, signs in (("singular", slot.max(), 3, varspec._singular_signs),
                              ("c_eigen", slot[:2].max(), 2, varspec._c_signs)):
        r = r / norm
        if r <= 1e-12:
            lifted = blocks[0, :k] * signs(f, blocks[:, :k])[0, :, None]
            x, y, z = lifted[list(varspec._KINDS[kind][0])]
            lifts[kind] = varspec.CriticalTriple(kind, float(value), float(value), x, y, z,
                                                 float(r * unscaled), "enumerated")
    return lifts


def test_route_lifts_equal_the_product_lifts_bit_for_bit():
    # the three slot contractions and one lead sign against the singular
    # product and the two sign rules they replace: the same verdicts, values,
    # bounds, methods and vectors, and residuals within rounding
    rng = np.random.default_rng(27)
    inputs = [*_banach_inputs(), *(_symmetrized(rng.standard_normal((3, 3, 3)))
                                   for _ in range(200))]
    lifted = 0
    for a in inputs:
        # nu_1 runs the Z source, which serves all three kinds here
        varspec._route.cache_clear()
        tt.max_z_eigenvalue(a)
        maxima = _route_of(a).maxima
        want = _product_lifts(a)
        assert sorted(maxima.keys() - {"z_eigen"}) == sorted(want)
        for kind, old in want.items():
            new = maxima[kind]
            for field in ("kind", "value", "upper_bound", "method"):
                assert getattr(new, field) == getattr(old, field)
            for slot in "xyz":
                assert getattr(new, slot).tobytes() == getattr(old, slot).tobytes()
            assert abs(new.residual - old.residual) <= 4 * np.finfo(float).eps
            lifted += 1
    assert lifted == 2 * len(inputs)


def test_route_lead_sign_is_the_sign_rules():
    # the lift's lead sign s of v, from its list, as the sign rules take it:
    # ties go to the first largest magnitude and a -0.0 lead gives +1, and
    # (s v, s v, v) and (v, s v) are the blocks the sign rules make of v
    rows = np.array([
        [0.5, -0.5, 0.1], [-0.5, 0.5, 0.1], [0.1, 0.6, -0.6], [0.2, -0.6, 0.6],
        [-0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, 1e-300, -1e-300],
        [0.1, -0.9, 0.3], [-0.8, 0.6, 0.0], [0.0, 0.0, -1.0], [-0.0, -0.6, 0.8],
    ])
    rng = np.random.default_rng(27)
    rows = np.concatenate((rows, rng.standard_normal((200, 3)), rng.integers(-1, 2, (60, 3))))
    rows = rows * np.where(rng.random(rows.shape) < 0.1, -0.0, 1.0)  # some signed zeros
    f = np.ones(1)
    for v in rows:
        s = varspec._lead_sign(v.tolist())
        assert s == varspec._lead_signs(v[None])[0]
        blocks = v[None, None][:, [0, 0, 0]]
        singular = varspec._singular_signs(f, blocks)[0]
        c = varspec._c_signs(f, blocks[:, :2])[0]
        assert (singular.tolist(), c.tolist()) == ([s, s, 1.0], [1.0, s])
        assert np.array((s * v, s * v, v)).tobytes() == (blocks[0] * singular[:, None]).tobytes()
        assert np.array((v, s * v)).tobytes() == (blocks[0, :2] * c[:, None]).tobytes()


@pytest.mark.parametrize("order, held", [("pvv", ["z_eigen"]), ("vvp", ["c_eigen", "z_eigen"])])
def test_route_refuses_a_lift_whose_slot_residual_exceeds_the_polish_bound(order, held):
    # every swap holds within 1e-12 ||A|| and the Z enumeration certifies,
    # but an asymmetry spread over every entry, p (x) v (x) v or
    # v (x) v (x) p with p orthogonal to the best Z vector v, moves the
    # slot gradients A(v, ., v) and A(v, v, .), or A(v, v, .) alone, off
    # f v by about twice the largest swap deviation: the route refuses both
    # lifts, or the singular one alone
    a = np.asarray(tt.make_fixture("symmetric", 0))
    v = tt.max_z_eigenvalue(a).x
    p = unit(np.cross(v, [0.0, 1.0, 0.0]))
    e = np.einsum("i,j,k->ijk", *({"p": p, "v": v}[c] for c in order))
    b = a + 0.9e-12 * np.linalg.norm(a) / _swap_deviations(e, *_PAIR_SWAPS).max() * e
    varspec._route.cache_clear()
    nu = tt.max_z_eigenvalue(b)  # the Z source, which serves all three kinds here
    route = varspec._route(b.tobytes())
    maxima, norm = route.maxima, route.norm
    assert norm == core._frobenius(route.a)
    assert route.verdicts == [True, True, True] and route.dev.max() > 0.8e-12 * norm
    assert sorted(maxima) == held
    assert maxima["z_eigen"] is nu
    u = (nu.x @ route.a.reshape(3, 9)).reshape(3, 3)
    assert np.linalg.norm(nu.x @ u - np.ldexp(nu.value, -route.exp) * nu.x) > 1e-12 * norm
    eta, mu = tt.max_singular_value(b), tt.max_c_eigenvalue(b)
    assert tt.max_z_eigenvalue(b) is nu
    assert max(eta.residual, mu.residual) <= 1e-12
    # one C enumeration after the Z one, whichever of eta_1 and mu_1 it serves
    assert _enumerations(b) == [("z_eigen", (0, 1, 2)), ("c_eigen", (0, 1, 2))]
    if order == "pvv":
        # the right swap is exact: eta_1 and mu_1 by the C enumeration
        assert (eta.method, mu.method) == ("enumerated", "enumerated")
        c = tt.c_spectrum(b)
        assert mu.value == c.values[0] and eta.y.tobytes() == c.y[0].tobytes()
    else:
        # mu_1 is the Z source's; the C lift of eta_1 fails on the right swap
        assert mu is maxima["c_eigen"] and mu.value == nu.value
        assert eta.method == "bounded"
    assert abs(eta.value - nu.value) <= 1e-12 * nu.value


def test_cold_eta_1_of_a_symmetric_tensor_builds_one_jacobian_map(monkeypatch):
    # the Z polish's, and none for the lifts of the route
    calls = _counted(monkeypatch, "_jacobian_map")
    for a in _banach_inputs()[:32]:
        varspec._route.cache_clear()
        calls.clear()
        assert tt.max_singular_value(a).method == "enumerated"
        assert calls == ["_jacobian_map"]


def _without(monkeypatch, *kinds):
    """``varspec._chart_pairs`` with the enumerations of ``kinds``
    uncertified in every chart, and an empty route memo in place of the
    one that may hold a triple of an earlier solve, restored afterwards."""
    fresh = functools.lru_cache(maxsize=1)(varspec._route.__wrapped__)
    monkeypatch.setattr(varspec, "_route", fresh)
    enumerate_ = varspec._chart_pairs
    monkeypatch.setattr(varspec, "_chart_pairs",
                        lambda kind, a, chart: None if kind in kinds else enumerate_(kind, a, chart))


def test_uncertified_z_falls_back_to_the_c_route_then_the_bound(monkeypatch):
    _without(monkeypatch, "z_eigen")
    for seed in range(4):
        # eta_1 is lifted from the best pair of c_spectrum, with its value
        a = np.asarray(tt.make_fixture("symmetric", seed))
        c = tt.c_spectrum(a)
        eta = tt.max_singular_value(a)
        assert (eta.method, eta.value) == ("enumerated", c.values[0])
        assert eta.y.tobytes() == c.y[0].tobytes()
        assert eta.x.tobytes() in (c.x[0].tobytes(), (-c.x[0]).tobytes())
        assert eta.z.tobytes() in (c.y[0].tobytes(), (-c.y[0]).tobytes())
        mu = tt.max_c_eigenvalue(a)
        assert (mu.method, mu.value) == ("enumerated", c.values[0])
        assert mu.x.tobytes() == c.x[0].tobytes() and mu.y.tobytes() == c.y[0].tobytes()
    _without(monkeypatch, "z_eigen", "c_eigen")
    a = np.asarray(tt.make_fixture("symmetric", 4))
    eta = tt.max_singular_value(a)
    assert eta.method == "bounded"
    assert (eta.value, eta.upper_bound) == eta_1_bracket(a)
    assert eta.upper_bound - eta.value <= 1e-8 * eta.value
    assert tt.max_c_eigenvalue(a).as_dict() == fallback("c_eigen", a).as_dict()
    assert tt.max_z_eigenvalue(a).as_dict() == fallback("z_eigen", a).as_dict()


@pytest.mark.parametrize("side, klass", [
    ("right", "right_symmetric"), ("left", "left_symmetric"), ("central", "centrally_symmetric"),
])
def test_partially_symmetric_eta_1_is_mu_1_of_the_moved_tensor_to_the_bit(side, klass):
    # the best C pair (x, y) of the tensor with the symmetric pair moved
    # last, put back as (x, y, y) in the original slots with its value
    perm = _PAIR_LAST[side]
    for seed in range(6):
        a = np.asarray(tt.make_fixture(klass, seed))
        eta = tt.max_singular_value(a)
        c = tt.c_spectrum(a.transpose(perm))
        assert (eta.method, eta.value, eta.upper_bound) == ("enumerated", c.values[0], c.values[0])
        # slot perm[n] of a holds slot n of the moved tensor, up to its sign,
        # and the singular sign rule makes the lead entries of x and y positive
        triple = (eta.x, eta.y, eta.z)
        for n, v in enumerate((c.x[0], c.y[0], c.y[0])):
            assert triple[perm[n]].tobytes() in (v.tobytes(), (-v).tobytes())
        assert varspec._lead_signs(np.array(triple[:2])).tolist() == [1.0, 1.0]


def test_every_route_memoizes_every_kind(monkeypatch):
    calls = _counted(monkeypatch, "_chart_pairs", "_bounded")
    # a right-side symmetric tensor: eta_1 and then mu_1 run one C enumeration
    a = np.asarray(tt.make_fixture("right_symmetric", 2))
    varspec._route.cache_clear()
    eta, mu = tt.max_singular_value(a), tt.max_c_eigenvalue(a)
    assert (eta.method, mu.method, eta.value) == ("enumerated", "enumerated", mu.value)
    assert _enumerations(a) == [("c_eigen", (0, 1, 2))] and "_bounded" not in calls
    assert tt.max_singular_value(a) is eta and tt.max_c_eigenvalue(a) is mu
    # a Gaussian tensor: one branch and bound, whose triple a second eta_1 returns
    g = random_hyper3(3)
    calls.clear()
    eta = tt.max_singular_value(g)
    assert eta.method == "bounded" and tt.max_singular_value(g) is eta
    assert calls == ["_bounded"]
    # a gate error, raised on every call, stores nothing
    varspec._route.cache_clear()
    calls.clear()
    for _ in range(3):
        with pytest.raises(NotRightSymmetric):
            tt.max_c_eigenvalue(g)
    route = varspec._route(g.tobytes())
    assert (route.runs, route.maxima) == ({}, {}) and calls == []
    # z_spectrum and then the three maxima of a symmetric tensor: one Z enumeration
    s = np.asarray(tt.make_fixture("symmetric", 5))
    varspec._route.cache_clear()
    calls.clear()
    values = tt.z_spectrum(s).values
    nu = tt.max_z_eigenvalue(s)
    assert tt.max_singular_value(s).value == tt.max_c_eigenvalue(s).value == nu.value == values[0]
    assert _enumerations(s) == [("z_eigen", (0, 1, 2))] and calls == ["_chart_pairs"]
    # tensors that no enumeration certifies: one branch and bound serves
    # every kind, in any order, and after it nothing runs again
    x, y, v = (unit(random_vec(seed)) for seed in (4, 5, 6))
    for b, solves in ((3.0 * tt.outer(v, v, v), (tt.max_c_eigenvalue, tt.max_z_eigenvalue,
                                                  tt.max_singular_value)),
                      (2.0 * tt.outer(x, y, y), (tt.max_c_eigenvalue, tt.max_singular_value))):
        varspec._route.cache_clear()
        calls.clear()
        first = solves[0](b)
        assert first.method == "bounded" and calls.count("_bounded") == 1
        calls.clear()
        triples = [first, *(solve(b) for solve in solves[1:])]
        assert calls == [] and {t.method for t in triples} == {"bounded"}
        assert {t.upper_bound for t in triples} == {eta_1_bracket(b)[1]}
    # a fallback that does not polish stores the branch and bound alone
    c = _near_circle(1e-9)
    varspec._route.cache_clear()
    calls.clear()
    for _ in range(3):
        with pytest.raises(NoConvergence):
            tt.max_z_eigenvalue(c)
    assert calls.count("_bounded") == 1 and "z_eigen" not in _route_of(c).maxima


def test_eta_1_follows_an_input_mutated_in_place():
    a = np.array(tt.make_fixture("symmetric", 9))
    b = np.asarray(tt.make_fixture("left_symmetric", 9))
    before = tt.max_singular_value(a).as_dict()
    want = tt.max_singular_value(b).as_dict()
    tt.max_singular_value(a)
    a[...] = b
    assert tt.max_singular_value(a).as_dict() == want != before


@pytest.mark.parametrize("k", [-60, -1, 3, 500])
def test_enumerated_eta_1_scales_exactly_by_powers_of_two(k):
    # and the bounded eta_1 of a Gaussian tensor: both run on the tensor
    # scaled by a power of two and leave through the one exit of the maxima
    for a, method in ((np.asarray(tt.make_fixture("centrally_symmetric", 2)), "enumerated"),
                      (random_hyper3(1), "bounded")):
        t = tt.max_singular_value(a)
        s = tt.max_singular_value(np.ldexp(a, k))
        assert s.method == t.method == method
        assert (s.value, s.upper_bound) == (np.ldexp(t.value, k), np.ldexp(t.upper_bound, k))
        for v in "xyz":
            assert getattr(s, v).tobytes() == getattr(t, v).tobytes()


@pytest.mark.parametrize("e", [1024, -1070])
@pytest.mark.parametrize("solve", [
    tt.max_singular_value, tt.max_c_eigenvalue, tt.max_z_eigenvalue, tt.z_spectrum, tt.c_spectrum,
], ids=lambda solve: solve.__name__)
def test_a_maximum_or_spectrum_outside_the_float64_range_raises(solve, e):
    # the maxima and the largest eigenvalues of these tensors are about
    # 1.2 x 2^1024, which overflows, and 1.15 x 2^-1070, a subnormal with
    # one significant digit: neither is a normal float64.  The raise comes
    # with no RuntimeWarning (an error here), and a second call raises too,
    # as the route stores no triple
    a = np.ldexp(tt.make_fixture("symmetric", 1), e)
    for _ in range(2):
        with pytest.raises(Unrepresentable, match="outside the float64 range"):
            solve(a)


def test_bounded_eta_1_below_the_normal_range_raises():
    a = random_hyper3(1)
    assert tt.max_singular_value(a).method == "bounded"
    with pytest.raises(Unrepresentable, match="outside the float64 range"):
        tt.max_singular_value(np.ldexp(a, -1070))
    # the zero tensor's maxima are 0, which is representable at any scale
    assert {solve(ZERO).value for solve in (tt.max_singular_value, tt.max_c_eigenvalue,
                                            tt.max_z_eigenvalue)} == {0.0}


# ---------------------------------------------------------------------------
# the elimination both kinds share


def _field(kind, a, v):
    """The kind's field straight from A: A v v for Z, sum_i (A v v)_i A_i v for C."""
    avv = np.einsum("ijk,j,k->i", a, v, v)
    return avv if kind == "z_eigen" else np.einsum("i,ijk,k->j", avv, a, v)


def _sylvester_by_hand(p, q):
    """The Sylvester matrix of p (degree m) and q (degree n) in s, given
    s^0 first: rows s^(n-1) p .. p, then s^(m-1) q .. q, s^(m+n-1) first."""
    m, n = len(p) - 1, len(q) - 1
    out = np.zeros((m + n, m + n), complex)
    for row in range(n):
        out[row, row:row + m + 1] = p[::-1]
    for row in range(m):
        out[n + row, row:row + n + 1] = q[::-1]
    return out


@pytest.mark.parametrize("chart", range(3))
@pytest.mark.parametrize("kind", ["z_eigen", "c_eigen"])
def test_pq_and_sylvester_match_the_field_written_out(kind, chart):
    d = varspec._ELIMINATIONS[kind][0]
    r = varspec._CHARTS[chart]
    rng = np.random.default_rng(chart)
    for seed in range(5):
        a = random_hyper3(seed)
        pq = varspec._pq(kind, a, chart)
        p, q = pq[:d + 1], pq[d + 1:-1]
        assert pq.shape == (2 * d + 4, d + 2) and not pq[-1].any()
        # p = g'_2 - t g'_1 and q = g'_3 - s g'_1 with g' = R g(R^T (1, t, s))
        for t, s in rng.standard_normal((10, 2)):
            g = r @ _field(kind, a, r.T @ [1.0, t, s])
            sp, tp = s ** np.arange(d + 2), t ** np.arange(d + 2)
            for grid, want in ((p, g[1] - t * g[0]), (q, g[2] - s * g[0])):
                rows = sp[:len(grid)]
                scale = np.abs(rows) @ np.abs(grid) @ np.abs(tp)
                assert abs(rows @ grid @ tp - want) <= 1e-13 * scale
        # one (2d + 1)-square matrix per root of unity, 16 for Z and 32 for C
        mats = varspec._sylvester(pq)
        assert mats.shape == ({2: 16, 3: 32}[d], 2 * d + 1, 2 * d + 1)
        for j in (0, 3, len(mats) - 1):
            w = np.exp(2j * np.pi * j / len(mats)) ** np.arange(d + 2)
            want = _sylvester_by_hand(p @ w, q @ w)
            assert np.abs(mats[j] - want).max() <= 1e-15 * np.abs(pq).max()


@pytest.mark.parametrize(
    "kind, klass",
    [("z_eigen", "symmetric"), ("z_eigen", "primarily_symmetric"), ("c_eigen", "right_symmetric"),
     ("c_eigen", "symmetric"), ("c_eigen", "primarily_symmetric")],
)
def test_charts_agree_where_they_certify(kind, klass):
    # a chart may decline (chart 3 does for C on make_fixture("symmetric", 4)),
    # but the first one certifies every fixture, and so does at least one more
    for seed in range(10):
        a, _ = core._scaled(tt.make_fixture(klass, seed), "Hyper3")
        pairs = [varspec._chart_pairs(kind, a, chart) for chart in range(3)]
        certified = [values for values, _, _ in filter(None, pairs)]
        assert pairs[0] is not None and len(certified) >= 2
        for values in certified[1:]:
            assert len(values) == len(certified[0])
            assert np.abs(values - certified[0]).max() <= 1e-12 * max(1.0, core._frobenius(a))


def _coefficients(kind, a, chart=0):
    """The coefficients of the determinant in t of the ``kind`` elimination
    of ``a`` in ``chart``, t^0 first, as ``_chart_pairs`` computes them."""
    mats = varspec._sylvester(varspec._pq(kind, core._scaled(a, "Hyper3")[0], chart))
    return varspec._roots_of_unity(len(mats))[1] @ np.linalg.det(mats)


def test_companion_roots_are_np_roots_bit_for_bit():
    rng = np.random.default_rng(20)
    polys = []
    for kind, project in (("z_eigen", _symmetrized), ("c_eigen", _right_symmetrized)):
        d = varspec._ELIMINATIONS[kind][0]
        for _ in range(100):
            c = _coefficients(kind, project(rng.standard_normal((3, 3, 3))), rng.integers(3))
            polys.append(c[d * d + d::-1].real)
    seven = rng.standard_normal(8)
    for p in (*polys, seven):
        want = np.roots(p)
        got = varspec._roots(p)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    # a zero constant coefficient is an exact root at 0 of the full companion
    # matrix; np.roots strips it and appends the 0, so the order differs
    for zeros in (1, 2):
        p = np.array([*seven[:8 - zeros], *[0.0] * zeros])
        got, want = np.sort_complex(varspec._roots(p)), np.sort_complex(np.roots(p))
        assert (got == 0.0).sum() == zeros
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _chart_roots(kind, a, chart):
    """The real roots t of the ``kind`` elimination of the scaled ``a`` in
    ``chart`` with its grid pq, or None unless the root certificate holds."""
    d = varspec._ELIMINATIONS[kind][0]
    pq = varspec._pq(kind, a, chart)
    mats = varspec._sylvester(pq)
    c = varspec._roots_of_unity(len(mats))[1] @ np.linalg.det(mats)
    return pq, varspec._certified_roots(c, d * d + d + 1)


def _roots_of_p(pq, t):
    """Per real root t, the roots of p in s, and the index of the one at
    which |q| is smallest: the rule that the subresultant replaced."""
    d = len(pq[0]) - 2
    at_t = pq @ t ** np.arange(d + 2)[:, None]  # s^0 first
    companion = np.zeros((len(t), d, d))
    companion[:, 0] = (-at_t[d - 1::-1] / at_t[d]).T
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    s = np.linalg.eigvals(companion)
    q = sum(at_t[d + 1 + i][:, None] * s**i for i in range(d + 2))
    return s, np.abs(q).argmin(axis=1)


def _chordal(a, b):
    """The chordal distance of a and b on the projective line, where
    s -> infinity is the chart's edge x'_1 = 0."""
    return np.abs(a - b) / np.sqrt((1.0 + np.abs(a) ** 2) * (1.0 + np.abs(b) ** 2))


def test_subresultant_s_picks_the_root_of_p_where_q_is_smallest():
    # at the rounded t, p and q have no exact common root, and -R0 / R1
    # strays up to ~2e-3 of the chordal way to p's nearest other root
    # (~1e-5 for Z); Newton takes both starts to the same pairs
    rng = np.random.default_rng(24)
    roots = 0
    for kind, project in (("z_eigen", _symmetrized), ("c_eigen", _right_symmetrized)):
        for _ in range(200):
            a = core._scaled(project(rng.standard_normal((3, 3, 3))), "Hyper3")[0]
            for chart in range(3):
                pq, t = _chart_roots(kind, a, chart)
                if t is None or not len(t):
                    continue
                roots += len(t)
                v = varspec._chart_points(pq, chart, t)
                w = v @ varspec._CHARTS[chart].T
                got = w[:, 2] / w[:, 0]
                s, pick = _roots_of_p(pq, t)
                rows = np.arange(len(t))
                assert (np.abs(s - got[:, None]).argmin(axis=1) == pick).all()
                old = s[rows, pick]
                apart = _chordal(s, old[:, None])
                gap = np.where(np.arange(s.shape[1]) == pick[:, None], np.inf, apart).min(axis=1)
                assert (_chordal(got, old) <= 1e-2 * gap).all()
                if chart == 0:
                    u = np.stack((np.ones_like(t), t, old.real), axis=1) @ varspec._CHARTS[0]
                    want = varspec._polished(kind, a, u / np.linalg.norm(u, axis=1)[:, None])
                    pairs = varspec._polished(kind, a, v)
                    scale = max(1.0, np.abs(want[0]).max())
                    assert np.abs(pairs[0] - want[0]).max() <= 1e-14 * scale
                    assert np.abs(pairs[1] - want[1]).max() <= 1e-12
    assert roots > 7000


def test_a_zero_leading_minor_fails_its_chart_without_raising(monkeypatch):
    # p = s^2 and q = s^3 + c at every t: R1 = 0, so s = -R0 / R1 is
    # infinite (c = 1) or NaN (c = 0, p divides q); the chart gives None
    # before any polish, under the warnings-as-errors setting of the suite
    a = core._scaled(tt.make_fixture("symmetric", 5), "Hyper3")[0]
    assert varspec._chart_pairs("z_eigen", a, 0) is not None
    polished = []
    monkeypatch.setattr(varspec, "_polished", lambda *args: polished.append(args))
    for c in (1.0, 0.0):
        pq = np.zeros((8, 4))
        pq[2, 0] = pq[6, 0] = 1.0
        pq[3, 0] = c
        monkeypatch.setattr(varspec, "_pq", lambda kind, a, chart: pq)
        monkeypatch.setattr(varspec, "_certified_roots", lambda *args: np.array([0.5, -2.0]))
        d = varspec._ELIMINATIONS["z_eigen"][0]
        minors = np.linalg.det((pq @ 0.5 ** np.arange(d + 2))[varspec._sylvester_layout(d)[2]])
        assert minors[0] == 0.0 and minors[1] == c
        assert varspec._chart_pairs("z_eigen", a, 0) is None
    assert polished == []


def test_polish_returns_the_product_after_its_sign_rule(monkeypatch):
    # the potentials and residuals that ``_polished`` carries through its
    # sign rule are those of a fresh product at the signed states, bit for
    # bit: singular polishes inside the branch and bound, C and Z ones in
    # the fallback through it (from a column of ``eigh``'s output) and from
    # unit rows 1e-3 off the chart points and random unit rows
    polishes, polish = [], varspec._polished
    monkeypatch.setattr(varspec, "_polished", lambda kind, a, v, *args, **kw: polishes.append(
        (kind, a, polish(kind, a, v, *args, **kw))) or polishes[-1][2])
    rng = np.random.default_rng(27)
    for make, fallback_kind in ((_symmetrized, "z_eigen"), (_right_symmetrized, "c_eigen"),
                                (lambda g: g, "singular")):
        for _ in range(50):
            a = core._scaled(make(rng.standard_normal((3, 3, 3))), "Hyper3")[0]
            varspec._bounded_maximum(fallback_kind, _route_of(a))
            for kind in ("c_eigen", "z_eigen"):
                pairs = varspec._chart_pairs(kind, a, 0)
                rows = rng.standard_normal((4, 3))
                if pairs is not None:
                    rows = np.concatenate((rows, pairs[1][:, -1] + 1e-3 * rng.standard_normal(
                        (len(pairs[0]), 3))))
                varspec._polished(kind, a, rows / np.linalg.norm(rows, axis=1)[:, None],
                                  bound=None)
    seen = {kind: 0 for kind in varspec._KINDS}
    for kind, a, out in polishes:
        if out is None:
            continue
        f, state, resid = out
        slots, k = varspec._KINDS[kind][:2]
        _, fresh, _, fresh_resid = varspec._lagrange(varspec._jacobian_map(a, slots, k), state)
        assert f.tobytes() == fresh.tobytes()
        assert resid.tobytes() == (fresh_resid / core._frobenius(a)).tobytes()
        seen[kind] += len(f)
    assert min(seen.values()) >= 150


@pytest.mark.parametrize("kind", sorted(varspec._KINDS))
def test_polish_stops_at_the_rounding_floor(kind, monkeypatch):
    # a start at the floor takes no Newton step; one 1e-5 off reaches the
    # floor within the cap of _POLISH_STEPS steps
    solve, solves = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    rng = np.random.default_rng(25)
    for seed in range(5):
        # the rows the kind lifts: the best x of the bound for singular,
        # every y of the C and every v of the Z enumeration
        if kind == "singular":
            a = core._scaled(random_hyper3(seed), "Hyper3")[0]
            v = varspec._bounded(a)[0][1][:, 0]
        else:
            a = core._scaled(tt.make_fixture("symmetric", seed), "Hyper3")[0]
            v = varspec._enumerated(varspec._route(a.tobytes()), kind)[1][:, -1]
        f, state, resid = varspec._polished(kind, a, v)
        assert (resid <= varspec._FLOOR).all()  # relative to ||a||, as the floor
        start = state[:, 0 if kind == "singular" else -1]
        solves.clear()
        again = varspec._polished(kind, a, start)
        assert solves == [] and np.array_equal(again[1], state)
        off = start + 1e-5 * rng.standard_normal(start.shape)
        solves.clear()
        got = varspec._polished(kind, a, off / np.linalg.norm(off, axis=1)[:, None])
        assert 1 <= len(solves) <= varspec._POLISH_STEPS
        assert (got[2] <= varspec._FLOOR).all()
        assert np.abs(got[0] - f).max() <= 1e-14 * np.abs(f).max()


def test_first_chart_certification_counts_are_unchanged():
    # of the symmetrized and right-symmetrized Gaussian draws of
    # default_rng(2026), the first chart certifies every Z elimination and
    # all C ones but draws 285, 1093 and 1207, which the second certifies
    # (3000 of each: 3000 and 2997, as before the subresultant s)
    for kind, project, declined in (("z_eigen", _symmetrized, []),
                                    ("c_eigen", _right_symmetrized, [285, 1093, 1207])):
        rng = np.random.default_rng(2026)
        first = []
        for n in range(1250):
            a = core._scaled(project(rng.standard_normal((3, 3, 3))), "Hyper3")[0]
            if varspec._chart_pairs(kind, a, 0) is None:
                first.append(n)
                assert varspec._chart_pairs(kind, a, 1) is not None
        assert first == declined


def _old_lead_signs(rows):
    lead = rows[np.arange(len(rows)), np.abs(rows).argmax(axis=1)]
    return np.where(lead < 0.0, -1.0, 1.0)


def test_sign_rules_equal_the_per_block_formulas():
    # ties go to the first largest magnitude, and a -0.0 lead gives +1
    rows = np.array([
        [1.0, -1.0, 0.5], [-1.0, 1.0, 0.5], [0.5, -2.0, 2.0], [-0.0, 0.0, 0.0],
        [0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [0.25, -0.25, -0.25], [-3.0, 3.0, -3.0],
    ])
    rng = np.random.default_rng(21)
    rows = np.concatenate((rows, rng.standard_normal((40, 3)), rng.integers(-1, 2, (40, 3))))
    rows = rows * np.where(rng.random(rows.shape) < 0.1, -0.0, 1.0)  # some signed zeros
    for k in (2, 3):
        s = rows[rng.permutation(len(rows))[:k * 27]].reshape(27, k, 3)
        for kind in ("singular", "c_eigen"):
            if varspec._KINDS[kind][1] != k:
                continue
            sx, sy = _old_lead_signs(s[:, 0]), _old_lead_signs(s[:, 1])
            want = (np.stack((sx, sy, sx * sy), axis=1) if kind == "singular"
                    else np.stack((np.ones(len(s)), sy), axis=1))
            got = varspec._KINDS[kind][2](None, s)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


def _old_merging(values, vecs):
    v = values[:, None]
    close = np.abs(vecs - vecs[:, None]).max(axis=2) <= varspec._MERGE_VECTOR
    return close & (np.abs(values - v) <= varspec._MERGE_VALUE * np.maximum(1.0, np.abs(v)))


def test_merge_test_equals_the_full_mask():
    rng = np.random.default_rng(22)
    for n in range(1, 8):
        for _ in range(50):
            values = np.round(rng.standard_normal(n), rng.integers(1, 4))  # ties
            vecs = np.round(rng.standard_normal((n, 3)), rng.integers(0, 3))
            if n > 1 and rng.random() < 0.5:  # one pair, or two, within the tolerances
                i, j = rng.choice(n, 2, replace=False)
                values[j], vecs[j] = values[i] + 1e-9 * rng.random(), vecs[i] + 1e-7
            if rng.random() < 0.2:
                values[rng.integers(n)] = np.nan
            want = _old_merging(values, vecs).sum() > n
            assert varspec._merged(values, vecs) == want


def _old_triples(route, f, upper, method, served):
    value = np.ldexp(f, route.exp)
    upper = value if upper is None else np.ldexp(upper, route.exp)
    out = {}
    for kind, (blocks, residual) in served.items():
        vecs = [core._read_only(v) for v in blocks]
        x, y, z = (vecs[slot] for slot in varspec._KINDS[kind][0])
        out[kind] = varspec.CriticalTriple(kind, float(value), float(upper), x, y, z,
                                           float(residual * route.unscaled), method)
    return out


def test_enumerated_route_equals_the_old_helpers_bit_for_bit(monkeypatch):
    # np.roots, the per-block sign rules, the full merge mask and the
    # per-block copies and numpy unscaling of a maximum patched back in
    # give the same triples and spectra
    rng = np.random.default_rng(23)
    inputs = [*_banach_inputs()[:32], *(tt.make_fixture("right_symmetric", s) for s in range(8)),
              *(_right_symmetrized(rng.standard_normal((3, 3, 3))) for _ in range(8))]
    solves = (tt.max_singular_value, tt.max_c_eigenvalue, tt.max_z_eigenvalue, tt.c_spectrum,
              tt.z_spectrum)

    def records():
        out = []
        for a in inputs:
            varspec._route.cache_clear()
            for solve in solves:
                try:
                    result = solve(a)
                except (NotSymmetric, NotRightSymmetric) as exc:
                    result = exc
                out.append(repr(result) if isinstance(result, Exception)
                           else [np.asarray(v).tobytes() if isinstance(v, np.ndarray) else v
                                 for v in result._asdict().values()])
        return out

    new = records()
    kinds = dict(varspec._KINDS)
    kinds["singular"] = (*kinds["singular"][:2], lambda m, s: np.stack(
        (_old_lead_signs(s[:, 0]), _old_lead_signs(s[:, 1]),
         _old_lead_signs(s[:, 0]) * _old_lead_signs(s[:, 1])), axis=1), kinds["singular"][3])
    kinds["c_eigen"] = (*kinds["c_eigen"][:2], lambda m, s: np.stack(
        (np.ones(len(s)), _old_lead_signs(s[:, 1])), axis=1), kinds["c_eigen"][3])
    monkeypatch.setattr(varspec, "_KINDS", kinds)
    monkeypatch.setattr(varspec, "_roots", np.roots)
    monkeypatch.setattr(varspec, "_merged", lambda f, v: _old_merging(f, v).sum() > len(f))
    monkeypatch.setattr(varspec, "_triples", _old_triples)
    old = records()
    varspec._route.cache_clear()
    assert new == old
    # and on the 32 audit pairs eta_1, mu_1 and nu_1 are one value, to the bit
    for a in inputs[:32]:
        values = [solve(a).value for solve in solves[:3]]
        assert values[0] == values[1] == values[2]


# ---------------------------------------------------------------------------
# the bound and the fallbacks through it


@pytest.mark.parametrize("c", [2.0**-20, 1e-4, 1.0, 2.0**20, 1e160])
def test_c_and_z_maxima_scale_with_the_tensor(c):
    a = np.asarray(tt.make_fixture("symmetric", 3))
    for kind in ("c_eigen", "z_eigen"):
        value = fallback(kind, a)
        scaled = fallback(kind, c * a)
        assert abs(scaled.value - c * value.value) <= 1e-12 * c * value.value
        assert abs(scaled.upper_bound - c * value.upper_bound) <= 1e-12 * c * value.upper_bound
        if np.log2(c).is_integer():
            # power-of-two scaling is exact, so the search is the same
            k = int(np.log2(c))
            assert (scaled.value, scaled.upper_bound) == (
                np.ldexp(value.value, k), np.ldexp(value.upper_bound, k))
    # the enumerations run on the tensor scaled by a power of two as well
    for solve in (tt.max_c_eigenvalue, tt.max_z_eigenvalue):
        enumerated = solve(a)
        scaled = solve(c * a)
        assert enumerated.method == scaled.method == "enumerated"
        assert abs(scaled.value - c * enumerated.value) <= 1e-12 * c * enumerated.value
        if np.log2(c).is_integer():
            assert scaled.value == np.ldexp(enumerated.value, int(np.log2(c)))
            assert scaled.x.tobytes() == enumerated.x.tobytes()
            assert scaled.y.tobytes() == enumerated.y.tobytes()


def test_eta_1_bracket_holds_the_grid_oracle():
    # criterion 8's Gaussian tensors, none with a symmetric pair
    for seed in range(20):
        a = random_hyper3(seed)
        t = tt.max_singular_value(a)
        assert t.method == "bounded"
        assert oracle_eta1(a) <= t.upper_bound
        assert t.upper_bound - t.value <= 1e-8 * t.value
        assert t.residual <= 1e-12


def test_levi_civita_bracket_within_the_budget():
    # phi = ||x A||_2 is 1 on the whole sphere, so nothing prunes and the
    # search stops at its budget with a bracket, not a 1e-8 certificate
    a = np.asarray(tt.levi_civita())
    t = tt.max_singular_value(a)
    assert t.method == "bounded"
    assert abs(t.value - 1.0) <= 4 * np.finfo(float).eps
    assert 1.0 <= t.upper_bound <= 1.0 + 1e-3
    assert varspec._bounded(core._scaled(a, "Hyper3")[0])[2] <= varspec._BUDGET


def _lap_clock():
    """``perfbench.spans.LapClock``, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LapClock()


def test_solvers_take_the_benchmark_call():
    # perfbench's Tracer.solve passes restarts and history_out and reads
    # starts_converged; the solvers accept both and ignore them
    audit = tt.rotate(tt.make_fixture("primarily_symmetric", 3), tt.random_rotation(1))
    calls = [(solve, audit) for solve in
             (tt.max_singular_value, tt.max_c_eigenvalue, tt.max_z_eigenvalue)]
    calls.append((tt.max_singular_value, random_hyper3(5)))
    for solve, a in calls:
        clock = _lap_clock()
        out = solve(a, restarts=12, history_out=clock)
        assert isinstance(out, varspec.CriticalTriple)
        assert out.starts_converged == 1
        assert clock.times == []


def test_audit_pairs_iteration_totals():
    # the 32 (fixture, rotation) pairs of criterion 4 that the audit
    # benchmark times: every solve there is enumerated, so none iterates
    # and the benchmark's history_out stays empty
    methods, history = [], []
    for klass in ("symmetric", "primarily_symmetric"):
        for i in range(8):
            a = tt.make_fixture(klass, i)
            for r in range(2):
                rotated = tt.rotate(a, tt.random_rotation(r))
                for solve in (tt.max_singular_value, tt.max_c_eigenvalue, tt.max_z_eigenvalue):
                    methods.append((solve.__name__, solve(rotated, history_out=history).method))
    assert history == []
    solvers = ("max_singular_value", "max_c_eigenvalue", "max_z_eigenvalue")
    assert methods == [(name, "enumerated") for name in solvers] * 32


def _gate_inputs():
    """Every fixture class at 5 seeds, Levi-Civita and 20 Gaussian tensors,
    each at scales 1, 1e-12, 2^-40 and 1e160, plus a symmetric fixture
    perturbed at 0.5x and 2x the gate's bound 1e-8 * ||A||, and once so
    that only the central swap exceeds it."""
    tensors = [np.asarray(tt.make_fixture(k, s)) for k in FIXTURE_CLASSES for s in range(5)]
    tensors.append(np.asarray(tt.levi_civita()))
    tensors += [random_hyper3(s) for s in range(20)]
    out = [c * a for a in tensors for c in (1.0, 1e-12, 2.0**-40, 1e160)]
    a = np.asarray(tt.make_fixture("symmetric", 4))
    bound = 1e-8 * np.linalg.norm(a)
    for t in (0.5, 2.0):
        one = a.copy()
        one[0, 1, 2] += t * bound  # breaks all three swaps
        both = a.copy()
        both[0, 1, 2] += t * bound
        both[0, 2, 1] += t * bound  # keeps the right swap
        out += [one, both]
    # around the hexagon of index orders each right or left swap moves
    # 0.9 bound, so the central swap (opposite corners) sees 2.7 bound
    central = a.copy()
    for idx, t in zip(((0, 2, 1), (2, 0, 1), (2, 1, 0), (1, 0, 2), (1, 2, 0)),
                      (0.9, 1.8, 2.7, 0.9, 1.8)):
        central[idx] += t * bound
    return out + [central]


def _passes_gate(solve, a, error):
    try:
        solve(a)
    except error:
        return False
    except NoConvergence:
        pass
    return True


def _decompose_gate_refuses(a, side):
    try:
        tt.eig_decompose_partial(a, side, 1e-8)
    except NotPartiallySymmetric as exc:
        # the gate's refusal, not the later eigentensor asymmetry check
        return str(exc).startswith("tensor is not")
    return False


def test_solver_gates_agree_with_classify():
    verdicts = set()
    side_verdicts = set()
    for a in _gate_inputs():
        report = tt.classify(a, 1e-8)
        right = _swap_symmetric(a, 1e-8, "right")
        symmetric = _swap_symmetric(a, 1e-8, "right", "left", "central")
        assert (right, symmetric) == (report.right_symmetric, report.symmetric)
        assert _passes_gate(tt.max_c_eigenvalue, a, NotRightSymmetric) == right
        assert _passes_gate(tt.max_z_eigenvalue, a, NotSymmetric) == symmetric
        verdicts.add((right, symmetric))
        flags = (report.right_symmetric, report.left_symmetric, report.centrally_symmetric)
        for side, flag in zip(("right", "left", "central"), flags):
            assert _swap_symmetric(a, 1e-8, side) == flag
            assert _decompose_gate_refuses(a, side) == (not flag)
            side_verdicts.add((side, flag))
    # right only, both and neither all occur, and every side passes and fails
    assert verdicts == {(False, False), (True, False), (True, True)}
    assert len(side_verdicts) == 6


@pytest.mark.parametrize("shape", [(27,), (3, 9), (9, 3), (3, 3, 3, 1)])
@pytest.mark.parametrize(
    "solve", [tt.max_singular_value, tt.max_c_eigenvalue, tt.max_z_eigenvalue]
)
def test_solvers_reject_arrays_that_are_not_3x3x3(solve, shape):
    a = np.asarray(tt.make_fixture("symmetric", 2)).reshape(shape)
    with pytest.raises(ValueError, match="shape"):
        solve(a)
    with pytest.raises(ValueError, match="shape"):
        solve(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "solve", [tt.max_singular_value, tt.max_c_eigenvalue, tt.max_z_eigenvalue]
)
def test_solvers_reject_non_finite_entries(solve, bad):
    a = np.array(tt.make_fixture("symmetric", 2))
    a[0, 0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        solve(a)


def _in_two_threads(solve, calls=200):
    """Per thread t, [solve((i + t) % 2) for i < calls], the two threads
    switching as often as the interpreter lets them."""
    got = [[], []]

    def work(t):
        for i in range(calls):
            got[t].append(solve((i + t) % 2))

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
    return got


def test_two_threads_alternating_tensors_get_the_serial_enumerations():
    # the other thread's calls evict entries from the shared memo
    tensors = [tt.make_fixture("symmetric", 3), tt.make_fixture("left_symmetric", 3)]

    def solve(n):
        return tt.max_singular_value(tensors[n]).as_dict(), tt.c_spectrum(tensors[0]).values[0]

    serial = [solve(0), solve(1)]
    assert [eta["method"] for eta, _ in serial] == ["enumerated"] * 2
    got = _in_two_threads(solve, 100)
    for t in range(2):
        assert got[t] == [serial[(i + t) % 2] for i in range(100)]


def _jacobian_map_loop(a, slots, k):
    """The permutation loop that ``_jacobian_map`` replaces, kept as its
    reference: the transposes of A added into the slots they differentiate."""
    n = 3 * k
    jac = np.zeros((k, 3, k, 3, k, 3))
    for b, p, q in itertools.permutations(range(3)):
        if b < k:
            jac[b, :, slots[p], :, slots[q], :] += a.transpose(b, p, q)
    out = np.zeros((n + k, n + k, n))
    out[:n, :n] = jac.reshape(n, n, n)
    i = np.arange(n)
    out[i, n + i // 3, i] = -1.0
    out[n + i // 3, i, i] = 1.0
    return out.reshape(-1, n).T


@pytest.mark.parametrize("kind", sorted(varspec._KINDS))
def test_jacobian_map_equals_the_permutation_loop(kind):
    slots, k = varspec._KINDS[kind][:2]
    rng = np.random.default_rng(11)
    tensors = [random_hyper3(s) for s in range(20)] + [np.asarray(tt.levi_civita())]
    for a in tensors:
        a = a.copy()
        a[rng.random((3, 3, 3)) < 0.2] = -0.0  # signed zeros come out the same too
        want = _jacobian_map_loop(a, slots, k)
        got = varspec._jacobian_map(a, slots, k)
        assert got.tobytes() == want.tobytes()
        # the same memory layout, so ``s @ G`` rounds the same way
        assert got.strides == want.strides


# ---------------------------------------------------------------------------
# invariants


def test_invariants_levi_civita():
    inv = tt.invariants(tt.levi_civita())
    assert inv.trU == 6.0
    assert inv.trU2 == 12.0
    assert inv.trU3 == 24.0
    assert (inv.trUbar2, inv.trUbar3) == (12.0, 24.0)
    assert (inv.trUhat2, inv.trUhat3) == (12.0, 24.0)


def test_invariants_zero():
    inv = tt.invariants(ZERO)
    assert all(v == 0.0 for v in inv.as_dict().values())


def test_invariants_trace_identity_and_bound():
    for seed in range(20):
        a = random_hyper3(seed)
        inv = tt.invariants(a)
        dot = tt.inner(a, a)
        assert inv.trU >= 0.0
        assert abs(inv.trU - dot) <= 1e-10 * max(1.0, dot)
        assert inv.trU2 >= inv.trU**2 / 3.0 - 1e-9


def test_invariants_rotation_invariant():
    a = random_hyper3(64)
    base = np.array(list(tt.invariants(a).as_dict().values()))
    for r in range(25):
        rotated = tt.rotate(a, tt.random_rotation(r))
        values = np.array(list(tt.invariants(rotated).as_dict().values()))
        assert np.abs(values - base).max() <= 1e-9 * np.maximum(1.0, np.abs(base)).max()


def test_invariants_cyclic_collapse():
    for seed in range(10):
        a = tt.make_fixture("cyclically_symmetric", seed)
        inv = tt.invariants(a)
        scale = max(1.0, abs(inv.trU2))
        assert abs(inv.trU2 - inv.trUbar2) <= 1e-10 * scale
        assert abs(inv.trU2 - inv.trUhat2) <= 1e-10 * scale
        scale3 = max(1.0, abs(inv.trU3))
        assert abs(inv.trU3 - inv.trUbar3) <= 1e-10 * scale3
        assert abs(inv.trU3 - inv.trUhat3) <= 1e-10 * scale3


def test_critical_values_rotation_invariant():
    a = tt.make_fixture("symmetric", 2)
    eta = tt.max_singular_value(a).value
    mu = tt.max_c_eigenvalue(a).value
    nu = tt.max_z_eigenvalue(a).value
    for r in range(10):
        rotated = tt.rotate(a, tt.random_rotation(r))
        assert abs(tt.max_singular_value(rotated).value - eta) <= 1e-8
        assert abs(tt.max_c_eigenvalue(rotated).value - mu) <= 1e-8
        assert abs(tt.max_z_eigenvalue(rotated).value - nu) <= 1e-8


_DEGREE = {"trU": 2, "trU2": 4, "trU3": 6, "trUbar2": 4, "trUbar3": 6, "trUhat2": 4, "trUhat3": 6}


def test_invariants_scale_by_degree():
    a = random_hyper3(5)
    base = tt.invariants(a).as_dict()
    for c in (1e-40, 1e40):
        got = tt.invariants(c * a).as_dict()
        for key, value in base.items():
            want = c ** _DEGREE[key] * value
            assert abs(got[key] - want) <= 1e-12 * want
    for c in (1e-60, 1e60):
        with pytest.raises(Unrepresentable):
            tt.invariants(c * a)


def _stacked_kernel_traces(a):
    """The seven traces and the exponent as ``invariants`` took them before
    the kernels came from one gather: a scaled by 2^-exp with np.frexp,
    three ``prod2`` kernels of transposed copies, ``np.stack`` and
    ``np.trace``."""
    a = np.asarray(a, dtype=float)
    _, exp = np.frexp(np.abs(a).max())
    a = np.ldexp(a, -exp)
    at = tt.transpose(a)
    att = tt.transpose(at)
    u1 = np.stack((tt.prod2(a, at), tt.prod2(at, att), tt.prod2(att, a)))
    u2 = u1 @ u1
    tr2, tr3 = np.einsum("kii->k", u2), np.einsum("kij,kji->k", u2, u1)
    traces = (np.trace(u1[0]), tr2[0], tr3[0], tr2[1], tr3[1], tr2[2], tr3[2])
    return [float(t) for t in traces], int(exp)


def test_invariants_equal_the_stacked_kernel_traces_bitwise():
    rng = np.random.default_rng(11)
    for n in range(1200):
        a = rng.standard_normal((3, 3, 3)) * 10.0 ** rng.uniform(-40.0, 40.0)
        traces, exp = _stacked_kernel_traces(a)
        want = [math.ldexp(t, _DEGREE[key] * exp) for t, key in zip(traces, _DEGREE)]
        assert list(tt.invariants(a).as_dict().values()) == want


def test_invariants_do_not_depend_on_memory_layout():
    # a transposed view or a Fortran-ordered copy gives the bits of the
    # C-ordered copy of the same tensor
    for seed in range(200):
        a = random_hyper3(seed)
        for view in (a.transpose(2, 0, 1), np.asfortranarray(a), a[:, ::-1]):
            want = tt.invariants(np.ascontiguousarray(view)).as_dict()
            assert tt.invariants(view).as_dict() == want
