import importlib.util
import itertools
import math
import os
import subprocess
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
from tritensor.symmetry import FIXTURE_CLASSES, _swap_symmetric

from helpers import oracle_eta1, oracle_mu1, oracle_nu1, random_hyper3, random_vec

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


def fallback(kind, a):
    """The fallback of ``max_c_eigenvalue`` or ``max_z_eigenvalue`` (through
    the bounded eta_1), run whether or not the enumeration would certify."""
    return varspec._bounded_maximum(kind, *core._scaled(a, "Hyper3"))


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


def test_z_eigen_imports_neither_numpy_random_nor_numpy_fft():
    # the CLI process pays for every import: the enumerations use neither
    # module (numpy 2.4 imports both lazily)
    entries = np.asarray(tt.make_fixture("symmetric", 7)).tolist()
    right = np.asarray(tt.make_fixture("right_symmetric", 7)).tolist()
    code = (
        "import sys, tritensor\n"
        f"methods = [tritensor.max_z_eigenvalue({entries!r}).method,\n"
        f"           tritensor.max_c_eigenvalue({right!r}).method]\n"
        "print(*methods, 'numpy.random' in sys.modules, 'numpy.fft' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["enumerated", "enumerated", "False", "False"]


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


def test_eta_1_route_at_the_polish_bound(monkeypatch):
    # within 1e-12 ||A|| of symmetric: eta_1 and mu_1 by the Z route; only
    # right-side symmetric there (two entries off by 2e-12 ||A||): by the C
    # enumeration of the tensor itself, as where the right and left swaps
    # hold and the central one fails, which they allow up to about
    # 3e-12 ||A||: around the hexagon of index orders each right or left
    # swap moves 0.9e-12 ||A||, so the central swap sees 2.7e-12 ||A||
    enumerate_, calls = varspec._pairs_of_bytes, []
    monkeypatch.setattr(varspec, "_pairs_of_bytes",
                        lambda kind, key: calls.append((kind, key)) or enumerate_(kind, key))
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
        key = core._scaled(b, "Hyper3")[0].tobytes()
        for solve in (tt.max_singular_value, tt.max_c_eigenvalue):
            calls.clear()
            triple = solve(b)
            assert (calls, triple.method) == ([(kind, key)], "enumerated")
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
    # a symmetric tensor: eta_1, mu_1 and nu_1 from its Z enumeration; a
    # right-side symmetric one: eta_1 and mu_1 from its C enumeration
    for klass, kind, solves in (
        ("symmetric", "z_eigen", (tt.max_singular_value, tt.max_c_eigenvalue, tt.max_z_eigenvalue)),
        ("right_symmetric", "c_eigen", (tt.max_singular_value, tt.max_c_eigenvalue)),
    ):
        a = np.asarray(tt.make_fixture(klass, 9))
        varspec._pairs_of_bytes.cache_clear()
        history = []
        triples = [solve(a, history_out=history) for solve in solves]
        info = varspec._pairs_of_bytes.cache_info()
        assert (info.misses, info.hits, history) == (1, len(solves) - 1, [])
        assert all(t.method == "enumerated" for t in triples)
        assert max(abs(t.value - triples[0].value) for t in triples) <= 1e-12 * triples[0].value
        pairs = varspec._pairs_of_bytes(kind, core._scaled(a, "Hyper3")[0].tobytes())
        arrays = [*pairs, *(getattr(t, v) for t in triples for v in "xyz")]
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


def _without(monkeypatch, *kinds):
    """``varspec._pairs_of_bytes`` with the enumerations of ``kinds`` uncertified."""
    enumerate_ = varspec._pairs_of_bytes
    monkeypatch.setattr(varspec, "_pairs_of_bytes",
                        lambda kind, key: None if kind in kinds else enumerate_(kind, key))


# eta_1 of make_fixture("symmetric", s) by the C route, lifted from the
# best pair of its c_spectrum with the singular potential recomputed
_C_ROUTE_ETA = ("0x1.e3f274e873236p+0", "0x1.32d4af8379411p+0",
                "0x1.3ae10ec010fc5p+1", "0x1.08a6ecb7c2d49p+1")


def test_uncertified_z_falls_back_to_the_c_route_then_the_bound(monkeypatch):
    _without(monkeypatch, "z_eigen")
    for seed, want in enumerate(_C_ROUTE_ETA):
        a = np.asarray(tt.make_fixture("symmetric", seed))
        c = tt.c_spectrum(a)
        eta = tt.max_singular_value(a)
        assert (eta.method, eta.value) == ("enumerated", float.fromhex(want))
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
    a = np.asarray(tt.make_fixture("centrally_symmetric", 2))
    t = tt.max_singular_value(a)
    s = tt.max_singular_value(np.ldexp(a, k))
    assert s.method == t.method == "enumerated"
    assert s.value == np.ldexp(t.value, k)
    for v in "xyz":
        assert getattr(s, v).tobytes() == getattr(t, v).tobytes()


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
