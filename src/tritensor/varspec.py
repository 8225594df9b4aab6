"""Variational eigenvalues: singular values, C- and Z-eigenvalues.

Singular values, C-eigenvalues and Z-eigenvalues are stationary values of
the potential x A y z over one, two or three unit spheres.  C- and
Z-eigenpairs are enumerated, all of them by one certified elimination
that each kind feeds its own gradient field (see ``c_spectrum`` and
``z_spectrum``), on the tensor scaled by a power of two (exact, so
results scale with the tensor).  One memo, ``_route``, keeps the last
tensor solved, keyed on its float64 bytes, as a record of named fields:
the scaled tensor and its exponent, its norm, its swap verdicts, the
runs of its sources (the C and Z enumerations and the branch and bound,
each run at most once) and the maxima found.  Every maximum leaves it
through one exit, ``_triples``, and every spectrum through another,
``_spectrum``: each takes the result back to the tensor's scale and
raises Unrepresentable where a nonzero maximum, its upper bound or the
largest eigenvalue of a spectrum is not a normal float64.
eta_1, mu_1 and then nu_1 of one symmetric tensor pay for one scaling,
one Z enumeration and the three slot gradients at its best vector that
check both lifts; eta_1 and then mu_1 of a right-side symmetric one for
one C enumeration; the three of a tensor that no enumeration certifies
for one branch and bound, in any order; and repeated calls return the
same read-only triple.

On a symmetric tensor eta_1 = mu_1 = nu_1, all three attained at
(v, v, v) for the best Z-eigenvector v (Banach, Studia Math. 7, 1938),
so eta_1 and mu_1 lift the best pair of the Z enumeration to (v, v, v)
and (v, v), and take its value: the three are equal to the bit.  The
largest singular value eta_1 of a tensor symmetric in only one pair of
slots is mu_1 of the tensor with that pair moved last: that tensor is
right-side symmetric, x A is then symmetric, and the largest y (x A) z
is the largest |y (x A) y|.  Its best C-eigenpair (x, y), put back as
(x, y, y) in the original slots, is eta_1's triple, with mu_1 as its
value.  A lift gets the sign rule of its kind and must pass the kind's
residual test (see ``_lift``).  ``_maximum`` is the one route of all
three solvers to these sources.

Elsewhere, or where no enumeration certifies, eta_1 is bracketed by a
branch and bound over the sphere of x.  phi(x) = ||x A||_2 is a norm of a
linear map of x, hence convex, so on a spherical triangle with unit
vertices v_i it is at most max_i phi(v_i) / sqrt(min_{i != j} v_i . v_j):
every unit x in it is p / |p| for a p of the flat triangle, where
phi(p) <= max_i phi(v_i) and |p|^2 >= min v_i . v_j (Horst & Tuy, Global
Optimization).  From the four octahedron faces with x_3 >= 0 (phi is
even), each level splits every live triangle four ways at its normalized
edge midpoints and prunes those whose bound is within 1e-8 of the best
value, polished by Newton steps.  It stops when no triangle is live or
before 20 000 evaluations of phi, which bounds its time and memory, and
the bound left is ``upper_bound``.  Where the enumeration cannot
certify, ``max_c_eigenvalue`` and ``max_z_eigenvalue`` take their pair
from that eta_1, the route's one run, which the maxima equal on the
tensors they accept:
mu_1 = eta_1 for a right-side symmetric tensor and nu_1 = eta_1 for a
symmetric one.  The eigenvector of the largest |eigenvalue| of x A, for
the x of eta_1, is the y of the pair, polished as an enumerated point
is, and eta_1's upper bound is theirs too.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from . import core
from .errors import NoConvergence, NotRightSymmetric, NotSymmetric, Uncertified
from .spectral import _lead_signs
from .symmetry import _PAIR_LAST, _PAIR_SWAPS, _swap_deviations

__all__ = [
    "CriticalTriple", "CSpectrum", "ZSpectrum", "max_singular_value", "max_c_eigenvalue",
    "max_z_eigenvalue", "c_spectrum", "z_spectrum",
]

_STALL = 1e-30
_EPS = np.finfo(float).eps
# merge tolerances for duplicate critical points
_MERGE_VALUE = 1e-8
_MERGE_VECTOR = 1e-6


class CriticalTriple(NamedTuple):
    """One stationary point of a spherical potential, with a bound on the maximum.

    ``kind`` is "singular", "c_eigen" or "z_eigen"; for C-eigenpairs the
    stored z equals y, for Z-eigenpairs x = y = z.  ``residual`` is the
    largest defining-equation residual relative to max(1, ||A||).
    ``method`` is "enumerated" for a C- or Z-eigenpair taken from a
    certified ``c_spectrum`` or ``z_spectrum`` and for a triple lifted from
    one (the singular triple and C-eigenpair of a symmetric tensor from its
    ``z_spectrum``, the singular triple of a partially symmetric one from a
    ``c_spectrum``); there ``upper_bound`` equals ``value``.  It is
    "bounded" for the singular maximum of the branch and bound and for a C-
    or Z-eigenpair derived from it; there ``upper_bound`` is the bound the
    search left on eta_1, which also bounds mu_1 and nu_1, and ``value`` is
    attained at (x, y, z).  ``upper_bound`` scales with the tensor as
    ``value`` does.
    """

    kind: str
    value: float
    upper_bound: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    residual: float
    method: str

    as_dict = core._as_dict
    # no field, so in no output: only the benchmark's Tracer.solve reads it,
    # and it goes with the benchmark's next change
    starts_converged = 1


# The states of r points are an (r, k, 3) array of k unit vectors, the state
# blocks; a kind's ``slots`` says which of them stands in x, y and z of the
# potential x A y z.


def _norms(g: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...i,...i->...", g, g))


def _unit(g: np.ndarray, old: np.ndarray) -> np.ndarray:
    """``g`` normalized along its last axis; vectors too short to
    normalize keep ``old``."""
    n = _norms(g)[..., None]
    if n.min() > _STALL:  # False for a NaN, as (n > _STALL).all() is
        return g / n
    ok = n > _STALL
    return np.where(ok, g / np.where(ok, n, 1.0), old)


def _blocks(*rows: np.ndarray) -> np.ndarray:  # np.stack(rows, 1) at half the cost
    return np.concatenate(rows, axis=1).reshape(len(rows[0]), len(rows), 3)


def _pair(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows u (x) v flattened to 9 columns, to multiply the unfolding."""
    return (u[:, :, None] * v[:, None, :]).reshape(len(u), 9)


@functools.lru_cache(maxsize=None)
def _jacobian_weights(slots, k):
    """(i, W): G.flat[i] = a.ravel() @ W[:27] + W[27], and G = 0 elsewhere."""
    n = 3 * k
    out = np.zeros((n + k, n + k, n, 28))
    jac = out[:n, :n].reshape(k, 3, k, 3, k, 3, 28)
    units = np.eye(28)[:27].reshape(3, 3, 3, 28)
    for b, p, q in itertools.permutations(range(3)):
        if b < k:
            jac[b, :, slots[p], :, slots[q], :] += units.transpose(b, p, q, 3)
    i = np.arange(n)
    out[i, n + i // 3, i, 27] = -1.0
    out[n + i // 3, i, i, 27] = 1.0
    keep = out.reshape(-1, 28).any(axis=1)
    return np.flatnonzero(keep), core._read_only(out.reshape(-1, 28)[keep].T.copy())


def _jacobian_map(a, slots, k):
    """G with (s @ G).reshape(n + k, n + k) = [[J, -S], [S^T, 0]] for the
    flattened state s, n = 3k: J is the derivative of the gradients g_b
    of x A y z in the slots of the state blocks b < k, column b of S holds
    s_b.  Both are linear in s; J s = 2 g, the potential being linear in
    each slot.  Exact (no entry sums more than two of A), and a transposed
    view: the layout sets how ``s @ G`` rounds."""
    i, w = _jacobian_weights(slots, k)
    g = np.zeros(3 * k * (4 * k) ** 2)  # n (n + k)^2 entries
    g[i] = a.reshape(27) @ w[:27] + w[27]
    return g.reshape(-1, 3 * k).T


def _lagrange(jmap, s):
    """One product with the Jacobian map at the (r, k, 3) states ``s``:
    the bordered Lagrange matrices, the potentials f = s_0 . g_0, the
    residuals g - f s, flattened, for the gradients g = J s / 2, and the
    largest |g_b - f s_b| over the state blocks, absolute."""
    r, k, _ = s.shape
    n = 3 * k
    sf = s.reshape(r, n)
    system = (sf @ jmap).reshape(r, n + k, n + k)
    g = 0.5 * np.matmul(system[:, :n, :n], sf[:, :, None])[:, :, 0]
    f = np.einsum("ri,ri->r", sf[:, :3], g[:, :3])
    res = g - f[:, None] * sf
    return system, f, res, _norms(res.reshape(s.shape)).max(axis=1)


def _singular_signs(f, s):
    # x and y get their lead signs, z their product, which keeps the potential
    signs = np.empty((len(s), 3))
    signs[:, :2] = _lead_signs(s[:, :2].reshape(-1, 3)).reshape(-1, 2)
    np.multiply(signs[:, 0], signs[:, 1], out=signs[:, 2])
    return signs


def _c_signs(f, s):
    signs = np.ones((len(s), 2))
    signs[:, 1] = _lead_signs(s[:, 1])
    return signs


def _z_signs(f, s):
    # the odd degree lets x flip to make the cubic form nonnegative
    return np.where(f < 0.0, -1.0, 1.0)[:, None]


def _singular_lift(m, x):
    """(x, y, z) with (y, z) the top singular pair of x A, so x A y z = phi(x)."""
    u, _, vt = np.linalg.svd((x @ m).reshape(-1, 3, 3))
    return _blocks(x, u[:, :, 0], vt[:, 0])


def _c_lift(m, y):
    return _blocks(_unit(_pair(y, y) @ m.T, y), y)  # x = A y y / ||A y y||


# per kind: the state block in x, y and z, the number of blocks, the sign
# rule that makes states s with potentials f canonical and the lift of unit
# rows v (x for singular, y for C) to state blocks, m = a.reshape(3, 9)
_KINDS = {
    "singular": ((0, 1, 2), 3, _singular_signs, _singular_lift),
    "c_eigen": ((0, 1, 1), 2, _c_signs, _c_lift),
    "z_eigen": ((0, 0, 0), 1, _z_signs, lambda m, v: v[:, None]),
}


def _merged(values: np.ndarray, vecs: np.ndarray) -> bool:
    """Whether more pairs (i, j) merge than there are pairs, pair j merging
    with pair i where its value is within _MERGE_VALUE * max(1, |value i|)
    and its vector entries within _MERGE_VECTOR; the vectors are compared
    only where the values leave that possible."""
    v = values[:, None]
    near = np.abs(values - v) <= _MERGE_VALUE * np.maximum(1.0, np.abs(v))
    if near.sum() <= len(values):
        return False
    close = np.abs(vecs - vecs[:, None]).max(axis=2) <= _MERGE_VECTOR
    return (close & near).sum() > len(values)


def _triples(route, f, upper, method: str, served: dict) -> dict:
    """The one exit of every maximum: per kind of ``served``, which maps it
    to state blocks and their residual relative to ||a||, the kind's triple
    of the blocks at its slots.  The value f and the upper bound ``upper``
    (f where None) of the route's scaled tensor a go back to the scale of
    A = ldexp(a, exp), once for all the kinds, as one source pair serves up
    to three, and the residual to one relative to max(1, ||A||).  Raises
    Unrepresentable where the value or the bound is nonzero and not a
    normal float64."""
    value = core._rescaled(f, route.exp, "maximum")
    upper = value if upper is None else core._rescaled(upper, route.exp, "upper bound")
    out = {}
    for kind, (blocks, residual) in served.items():
        vecs = core._read_only(blocks)  # its rows are read-only views
        out[kind] = CriticalTriple(kind, value, upper, *(vecs[slot] for slot in _KINDS[kind][0]),
                                   float(residual * route.unscaled), method)
    return out


# ---------------------------------------------------------------------------
# eta_1 by branch and bound
#
# Triangles are (n, 3, 3) arrays of unit vertex rows with their (n, 3)
# values phi.  The bound of a triangle is inflated by _ROUNDING ||a||: the
# SVD's backward error (a few eps ||x A||), unit vertices off by an ulp and
# the seams of that width that the rounded midpoints leave between children.

_GAP = 1e-8
_BUDGET = 20_000
_ROUNDING = 16 * _EPS
# the octahedron vertices with x_3 >= 0, and its four faces there
_OCTAHEDRON = np.array([[1.0, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 1]])
_FACES = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
# the four children of a triangle in the rows (v0, v1, v2, m01, m12, m20)
_CHILDREN = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])


def _phi(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """phi = ||x A||_2 at the rows x."""
    return np.linalg.svd((x @ m).reshape(-1, 3, 3), compute_uv=False)[:, 0]


def _bounded(a: np.ndarray):
    """Branch and bound for eta_1 of the scaled nonzero tensor ``a``:
    ((value, (1, 3, 3) singular state, residual) of the best point, as
    ``_polished`` returns them, the upper bound, evaluations of phi).  The
    value is the bracket's lower end, attained at the state, whose x is
    the best x.  From level 3 on the best vertex is polished whenever it
    beats the value, and the state once more at the end; a polish keeps
    its final Newton iterate unless that lost more than the rounding
    margin, and otherwise takes the lift after _POLISH_STEPS sweeps."""
    m = a.reshape(3, 9)
    margin = _ROUNDING * core._frobenius(a)

    def polish(x, floor):
        got = _polished("singular", a, x[None], bound=None)
        if got is None or not got[0][0] >= floor - margin:
            # Newton fails where the top singular value of x A is multiple;
            # sweeps x <- A y z / ||A y z|| over the lift do not: each is an
            # exact maximization, so phi never decreases
            x = x[None]
            for _ in range(_POLISH_STEPS):
                s = _singular_lift(m, x)
                x = _unit(_pair(s[:, 1], s[:, 2]) @ m.T, x)
            got = _polished("singular", a, x, steps=0, bound=None)
        return got

    values = _phi(m, _OCTAHEDRON)
    tri, phi = _OCTAHEDRON[_FACES], values[_FACES]
    evaluations, pruned = len(values), 0.0
    top, x_top = values.max(), _OCTAHEDRON[values.argmax()]
    best = None
    for level in itertools.count():
        if level >= 3 and (best is None or top > best[0][0]):
            best = polish(x_top, top)
        lower = top if best is None else max(top, best[0][0])
        last, last_phi = tri, phi
        cos = np.einsum("nij,nij->ni", tri, tri[:, [1, 2, 0]]).min(axis=1)
        with np.errstate(divide="ignore"):  # cos = 0 on the octahedron's faces
            bound = phi.max(axis=1) / np.sqrt(cos) + margin
        live = bound > lower * (1.0 + _GAP)
        pruned = max(pruned, bound[~live].max(initial=0.0))
        tri, phi, bound = tri[live], phi[live], bound[live]
        if not len(tri) or evaluations + 3 * len(tri) > _BUDGET:
            break
        mids = _unit(tri + tri[:, [1, 2, 0]], tri)
        new = _phi(m, mids.reshape(-1, 3))
        evaluations += len(new)
        if new.max() > top:
            top, x_top = new.max(), mids.reshape(-1, 3)[new.argmax()]
        rows = np.concatenate((tri, mids), axis=1)
        vals = np.concatenate((phi, new.reshape(-1, 3)), axis=1)
        tri, phi = rows[:, _CHILDREN].reshape(-1, 3, 3), vals[:, _CHILDREN].reshape(-1, 3)
    x, f = (x_top, top) if best is None else (best[1][0, 0], best[0][0])
    if not len(tri):
        # local maxima within _GAP of each other all reach the last level:
        # the best vertex of each of its triangles, polished together
        got = _polished("singular", a, last[np.arange(len(last)), last_phi.argmax(axis=1)],
                        bound=None)
        if got is not None:
            converged = np.where(got[2] <= _POLISHED, got[0], -np.inf)
            k = converged.argmax()
            if converged[k] > f:
                x, f = got[1][k, 0], converged[k]
    return polish(x, f), max(pruned, bound.max(initial=0.0)), evaluations


# ---------------------------------------------------------------------------
# Eigenpairs by elimination
#
# Both kinds of eigenvector are the points v on S^2 where a vector field
# g(v), homogeneous of degree d, is parallel to v: g = A v v (d = 2) for
# Z-eigenpairs, and g = sum_i (A v v)_i A_i v (d = 3) for C-eigenpairs, the
# gradient / 4 of the quartic ||A y y||^2, whose critical points y = v give
# mu = ||A y y|| and x = A y y / mu.  For a generic tensor these points are
# isolated: d^2 + d + 1 lines of them, 7 for Z and 13 for C, complex ones
# included (Cartwright & Sturmfels, Linear Algebra Appl. 438, 2013).  In the
# coordinates v' = R v of a fixed chart rotation R, with g' = R g, the points
# v' = (1, t, s) where g' is parallel to v' are the common zeros of
# p = g'_2 - t g'_1 and q = g'_3 - s g'_1, of degrees d and d + 1 in s.
# Their (2d + 1)-square Sylvester determinant in s is then a polynomial in t
# of degree d^2 + d + 1 whose roots are the t of the eigenvectors (the
# E-characteristic route of Qi, J. Symb. Comput. 40, 2005).  Its entries
# bound its degree by (d + 1)^2 + d^2 (13 for Z, 25 for C), so its values at
# the 16th (32nd) roots of unity, the first power of two above that, give
# its coefficients through an inverse DFT.  Each real root t gives s through
# the first subresultant R1 s + R0 of p and q in s, whose coefficients are
# two (2d - 1)-square minors of the Sylvester matrix: where p and q share
# one simple root, it is a multiple of s minus that root, so s = -R0 / R1.
# A kind states only g' and how a unit v becomes its state blocks;
# everything else is shared.

# the chart rotations, fixed and generic; each serves where the ones
# before it put an eigenvector at v'_1 = 0 or two at (nearly) one t
_CHARTS = (
    np.array([
        [0.48814205186154747, -0.10277979675495673, 0.8666912083224384],
        [-0.7060632483583964, -0.6302285846112621, 0.32293439032793453],
        [0.5130224425129838, -0.7695766657831403, -0.38021011159636087],
    ]),
    np.array([
        [0.5991846472517772, 0.6440934861477868, -0.4755221757181826],
        [0.4670048837511749, -0.7636170492835762, -0.4458648232323291],
        [-0.6502954690372025, 0.0450841784380635, -0.7583424159337586],
    ]),
    # random_rotation(2036): of seeds 2000..2199, the one whose R and R R_k^T
    # for the charts k above have the largest smallest |entry|
    np.array([
        [0.9185490521171795, -0.3574215769388361, 0.16887112006849125],
        [-0.30791743826857926, -0.9148107850067345, -0.2613581428719562],
        [0.24790016148592323, 0.18807191170910623, -0.9503549157874311],
    ]),
)
# The certificate, with the coefficients c of the determinant in t and n
# its degree: the coefficients above n, zero in exact arithmetic, at most
# _NOISE ||c||; the degree-n one above _LEAD ||c||; the roots distinct,
# each one's first-order error bound, under coefficient errors as large
# as the largest of those above n (at least the rounding of ||c||), at most
# _CONDITION times its distance to the nearest other root; every real
# pair, after Newton steps that stop at the rounding floor _FLOOR ||A|| or
# after _POLISH_STEPS, within _POLISHED ||A|| of the defining equations,
# and no two of them merging.  On 3000 symmetrized Gaussian tensors
# (default_rng(2026)) the Z elimination in the first chart measured
# 3.2e-15, 1.8e-6, 2.6e-6 and 8.7e-16 at the worst; a root of
# multiplicity k, which rounding splits by ~1e-15^(1/k), measured 0.7 to 25
# against _CONDITION.  On 3000 right-symmetrized ones the C elimination
# certified 2997 in the first chart, at worst 4.3e-15, 2.1e-8, 1.3e-4 and
# 2.0e-14 (one tensor, whose subresultant s started 8.7e-2 off; the next
# worst 8.9e-16), and the other 3 in the second.
_NOISE = 1e-11
_LEAD = 1e-8
_CONDITION = 1e-3
_POLISHED = 1e-12
_POLISH_STEPS = 3
_FLOOR = 4 * _EPS


@functools.cache
def _roots_of_unity(points: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``points``-th roots of unity w^j and the inverse DFT matrix
    that takes a polynomial's values at them to its coefficients."""
    unity = np.exp(2j * np.pi / points * np.arange(points))
    inverse_dft = unity.conj()[None, :] ** np.arange(points)[:, None] / points
    for arr in (unity, inverse_dft):  # shared by every caller
        arr.setflags(write=False)
    return unity, inverse_dft


@functools.cache
def _pq_map(d: int) -> np.ndarray:
    """The constant map from the coefficients c (3, 3^d) of a field
    g'_m = c[m] . v'^(x)d of degree d in v' = (1, t, s), raveled, to the
    (2d + 4, d + 2) grid whose [i, j] holds the coefficient of s^i t^j of
    p = g'_2 - t g'_1 in rows 0 .. d, that of s^(i-d-1) t^j of
    q = g'_3 - s g'_1 in rows d + 1 .. 2d + 2, and zeros in the last row."""
    n = d + 1
    g = np.zeros((3, 3**d, 3, n, n))  # the coefficient of s^i t^j in g'_m
    for col, index in enumerate(itertools.product(range(3), repeat=d)):
        g[range(3), col, range(3), index.count(2), index.count(1)] = 1.0
    g = g.reshape(-1, 3, n, n)
    pq = np.zeros((len(g), 2 * n + 2, n + 1))
    p, q = pq[:, :n], pq[:, n:2 * n + 1]
    p[:, :, :n] = g[:, 1]
    p[:, :, 1:] -= g[:, 0]
    q[:, :n, :n] = g[:, 2]
    q[:, 1:, :n] -= g[:, 0]
    return core._read_only(pq.reshape(len(g), -1))


def _pq(kind: str, a: np.ndarray, chart: int) -> np.ndarray:
    """The ``_pq_map`` grid of p and q of ``kind`` in chart ``chart``."""
    d, field = _ELIMINATIONS[kind]
    r = _CHARTS[chart]
    return (field(r @ a @ r.T, r).reshape(-1) @ _pq_map(d)).reshape(2 * d + 4, d + 2)


@functools.cache
def _sylvester_layout(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The powers t^0 .. t^(d+1) at the roots of unity, the rows of the
    ``_pq_map`` grid that sit in the (2d + 1)-square Sylvester matrix of
    p and q in s (rows s^d p .. p, then s^(d-1) q .. q; columns
    s^(2d) .. s^0; the zero row elsewhere), and those of the two
    (2d - 1)-square minors whose determinants are the coefficients R1 and
    R0 of the first subresultant R1 s + R0 of p and q: without the rows
    s^d p and s^(d-1) q, the columns s^(2d-1) .. s^2 and then s^1 or s^0."""
    n = 2 * d + 1
    # the first power of two above the degree bound (d + 1)^2 + d^2
    unity = _roots_of_unity(1 << ((d + 1) ** 2 + d * d).bit_length())[0]
    cells = np.full((n, n), 2 * d + 3)
    for row in range(d + 1):
        cells[row, row:row + d + 1] = np.arange(d, -1, -1)
    for row in range(d):
        cells[d + 1 + row, row:row + d + 2] = np.arange(2 * d + 2, d, -1)
    kept = cells[np.r_[1:d + 1, d + 2:n], 1:]  # zero in column s^(2d)
    layout = (unity ** np.arange(d + 2)[:, None], cells,
              np.stack((kept[:, :-1], np.delete(kept, -2, axis=1))))
    for arr in layout:
        arr.setflags(write=False)
    return layout


def _sylvester(pq: np.ndarray) -> np.ndarray:
    """The Sylvester matrices of p and q in s at the roots of unity."""
    powers, cells, _ = _sylvester_layout(len(pq[0]) - 2)
    return (pq @ powers).T[:, cells]


def _chart_points(pq: np.ndarray, chart: int, t: np.ndarray) -> np.ndarray | None:
    """Per real root t, the unit v on the chart line through (1, t, s), s
    = -R0 / R1 the root of the first subresultant of p and q in s, which
    at a common root of p and q is a multiple of s minus that root; or
    None unless every s is finite."""
    d = len(pq[0]) - 2
    at_t = pq @ t ** np.arange(d + 2)[:, None]  # s^0 first
    r1, r0 = np.linalg.det(at_t.T[:, _sylvester_layout(d)[2]]).T
    s = -r0 / r1
    if not np.isfinite(s).all():
        return None
    v = np.concatenate((np.ones_like(t), t, s)).reshape(3, -1).T @ _CHARTS[chart]  # R^T v'
    return v / _norms(v)[:, None]


def _z_field(b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """R A v v: the tensor rotated in all three slots."""
    return r @ b.reshape(3, 9)


def _c_field(b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """R sum_i (A v v)_i A_i v = sum_i (v' b_i v') b_i v'."""
    return np.einsum("ijk,imn->mjkn", b, b)


# per kind: the degree d of g', and the coefficients of g' in v',
# c (3, 3^d) with g'_m = c[m] . v'^(x)d, from b_i = R A_i R^T and R
_ELIMINATIONS = {"z_eigen": (2, _z_field), "c_eigen": (3, _c_field)}


def _roots(p: np.ndarray) -> np.ndarray:
    """The roots of a real ``p`` (highest power first, ``p[0]`` nonzero):
    the eigenvalues of its companion matrix, ``np.roots(p)`` bit for bit
    where ``p[-1]`` is nonzero too (a zero there is a root at 0)."""
    companion = np.eye(len(p) - 1, k=-1)
    companion[0] = -p[1:] / p[0]
    return np.linalg.eigvals(companion)


def _certified_roots(c: np.ndarray, degree: int) -> np.ndarray | None:
    """The real roots of the polynomial of degree ``degree`` whose
    coefficients (t^0 first) the rounded ``c`` holds, or None unless the
    root part of the certificate holds.  A NaN or inf in ``c`` fails it:
    each check is written so that a comparison with NaN fails it."""
    size = math.sqrt(np.vdot(c, c).real)
    tail = np.abs(c[degree + 1:]).max()
    if not (tail <= _NOISE * size and abs(c[degree]) > _LEAD * size):
        return None
    t = _roots(c[degree::-1].real)
    powers = t[:, None] ** np.arange(degree + 1)
    slope = powers[:, :degree] @ (np.arange(1.0, degree + 1) * c[1:degree + 1].real)
    noise = max(tail, _EPS * size)
    bound = noise * np.abs(powers).sum(axis=1) / np.abs(slope)
    gaps = np.abs(t[:, None] - t)
    gaps.flat[::len(t) + 1] = np.inf
    if not (bound <= _CONDITION * gaps.min(axis=1)).all():
        return None
    # a root within its bound of the real axis is real: a complex one
    # would have its conjugate closer than the gaps allow
    return t.real[np.abs(t.imag) <= bound]


def _polished(kind: str, a: np.ndarray, v: np.ndarray, steps: int = _POLISH_STEPS,
              bound: float | None = _POLISHED):
    """The ``kind`` pairs of the scaled tensor ``a`` at the unit rows
    ``v``: the kind's lift of ``v`` to state blocks after at most
    ``steps`` Newton steps, with canonical signs, as (values, (n, k, 3)
    state blocks, residuals relative to ||a||), or None unless every
    residual is within ``bound`` (None: any, NaN included) or where a
    Newton system is exactly singular.  The steps stop once every
    residual is at the rounding floor _FLOOR ||a||."""
    slots, k, signs, lift = _KINDS[kind]
    n = 3 * k
    jmap = _jacobian_map(a, slots, k)
    norm = core._frobenius(a)
    with np.errstate(all="ignore"):
        try:
            # contiguous, as after a Newton step: the layout sets how the
            # products with the Jacobian map round
            state = np.ascontiguousarray(lift(a.reshape(3, 9), v))
            for i in range(steps + 1):
                system, f, res, resid = _lagrange(jmap, state)
                if i == steps or (resid <= _FLOOR * norm).all():
                    break
                # a Newton step on g_b = lambda_b s_b, |s_b| = 1 over the
                # state blocks b, from the multipliers lambda_b = f: J - f I
                system.reshape(len(f), -1)[:, : n * (n + k + 1) : n + k + 1] -= f[:, None]
                rhs = np.zeros((len(f), n + k, 1))
                np.negative(res, out=rhs[:, :n, 0])
                step = np.linalg.solve(system, rhs)[:, :n, 0].reshape(state.shape)
                state = _unit(state + step, state)
        except np.linalg.LinAlgError:  # an exactly singular system
            return None
        # every gradient is linear in each slot it contracts, so a sign flip
        # of a block passes exactly through the products: the potential takes
        # the product of the signs in its slots, the residual norms are kept
        sign = signs(f, state)
        state = state * sign[:, :, None]
        f = f * sign[:, slots].prod(axis=1)
        resid = resid / norm
    if bound is not None and not (resid <= bound).all():
        return None
    return f, state, resid


def _chart_pairs(kind: str, a: np.ndarray, chart: int):
    """Every real ``kind`` eigenpair of the scaled tensor ``a`` through
    chart ``chart`` as (values >= 0, the (n, k, 3) state blocks,
    residuals relative to ||a||), best first, or None unless the
    certificate holds."""
    d = _ELIMINATIONS[kind][0]
    with np.errstate(all="ignore"):
        pq = _pq(kind, a, chart)
        mats = _sylvester(pq)
        t = _certified_roots(_roots_of_unity(len(mats))[1] @ np.linalg.det(mats), d * d + d + 1)
        v = None if t is None or not len(t) else _chart_points(pq, chart, t)
    pairs = None if v is None else _polished(kind, a, v)
    if pairs is None:
        return None
    f, state, resid = pairs
    # the blocks order and merge as the slot vectors do, which repeat them
    vecs = state.reshape(len(f), -1)
    order = np.lexsort((*vecs.T[::-1], -f))
    if _merged(f[order], vecs[order]):  # two roots, one pair
        return None
    return f[order], state[order], resid[order]


_Route = collections.namedtuple("_Route", "a exp dev verdicts runs maxima norm unscaled")


@functools.lru_cache(maxsize=1)
def _route(key: bytes) -> _Route:
    """The route to the maxima of the tensor A whose float64 bytes are
    ``key``, read in C order whatever the input's memory layout: ``a``, A
    scaled by a power of two (read-only), and ``exp``, with
    A = ldexp(a, exp); ``dev``, its deviations under _PAIR_SWAPS, and
    ``verdicts``, theirs within _POLISHED ||a||; ``runs``, the runs of its
    sources so far (the enumerations by (kind, axis permutation), the
    branch and bound by "bounded"); ``maxima``, the triples found by kind;
    ``norm``, ||a||; and ``unscaled``, the factor that takes a residual
    relative to ||a|| to one relative to max(1, ||A||).  One entry, as
    eta_1, mu_1 and nu_1 of one tensor are solved in turn; every source
    runs once in it, and every maximum leaves it through ``_triples``."""
    a, exp = core._scaled(np.frombuffer(key).reshape(3, 3, 3), "Hyper3")
    a.setflags(write=False)
    dev = _swap_deviations(a, *_PAIR_SWAPS)
    norm = core._frobenius(a)
    unscaled = 1.0 if exp > 0 else min(1.0, math.ldexp(norm, exp))
    return _Route(a, exp, dev, (dev <= _POLISHED * norm).tolist(), {}, {}, norm, unscaled)


def _enumerated(route: _Route, kind: str, perm: tuple = (0, 1, 2)):
    """The ``_chart_pairs`` of the first chart that certifies, for the
    route's scaled tensor a.transpose(perm), read-only, or None; run once
    per route."""
    if (kind, perm) not in route.runs:
        a = np.ascontiguousarray(route.a.transpose(perm))
        for chart in range(len(_CHARTS)):
            pairs = _chart_pairs(kind, a, chart)
            if pairs is not None:
                break
        for arr in pairs or ():
            arr.setflags(write=False)
        route.runs.setdefault((kind, perm), pairs)
    return route.runs[kind, perm]


def _lead_sign(row: list) -> float:
    """``_lead_signs`` of one finite row, given as a list."""
    return -1.0 if max(row, key=abs) < 0.0 else 1.0


def _lift(route: _Route, source: str, perm: tuple, kinds: tuple) -> None:
    """Fill the route's empty maxima of ``kinds`` from the best pair
    (f, blocks) of the certified ``source`` enumeration of
    a.transpose(perm): the source's own kind as it is, the others lifted,
    as the maxima are equal on the tensors served (Banach, Studia Math. 7,
    1938).  The pair's vectors, put back in the slots of a as (p, q, r),
    give the slot gradients A(., q, r), A(p, ., r) and A(p, q, .) from
    w = a r and u = p a; their largest residual against f (p, q, r) is the
    singular one, the larger of the first two the C one (served where
    q = r), and a lift within _POLISHED ||a|| is kept.  With s and t the
    lead signs of p and q, the lifts are (s p, t q, s t r) and (p, t q) by
    the kinds' sign rules; sign flips are exact, so f, their value, and
    the residuals hold for them.  The triples leave through ``_triples``."""
    pairs = _enumerated(route, source, perm)
    if pairs is None:
        return
    f, blocks, resid = pairs[0][0], pairs[1][0], pairs[2][0]
    empty = {kind for kind in kinds if kind not in route.maxima}
    served = {}
    if empty - {source}:
        # the source block in each slot of a: slot n of a.transpose(perm)
        # is slot perm[n] of a
        i, j, k = (_KINDS[source][0][perm.index(n)] for n in range(3))
        p, q, r = blocks[i], blocks[j], blocks[k]
        w, u = route.a @ r, (p @ route.a.reshape(3, 9)).reshape(3, 3)
        pqr = blocks if len(blocks) == 1 else np.array((p, q, r))  # a Z pair holds one block
        slot = (_norms(np.array((w @ q, u @ r, q @ u)) - f * pqr) / route.norm).tolist()
        signs = [_lead_sign(b) for b in blocks.tolist()]
        s, t = signs[i], signs[j]
        tq = t * q  # which is s p where p is q; s t r is r or -r
        singular = (tq if i == j else s * p, tq, r if s == t else -r)
        served = {"singular": (singular, max(slot)), "c_eigen": ((p, tq), max(slot[:2]))}
    served[source] = blocks, resid  # the source's own kind as it is
    route.maxima.update(_triples(route, f, None, "enumerated", {
        kind: lift for kind, lift in served.items() if kind in empty and lift[1] <= _POLISHED}))


class ZSpectrum(NamedTuple):
    """Every real Z-eigenpair A x x = lambda x, |x| = 1, of a symmetric tensor.

    One pair per real eigenvector line, signed so that lambda = x A x x
    >= 0 ((-lambda, -x) is the same line): 1, 3, 5 or 7 pairs.  ``values``
    descend, ties broken lexicographically on the vectors; ``vectors[n]``
    is the unit eigenvector of ``values[n]`` and ``residuals[n]`` its
    largest |A x x - lambda x| relative to max(1, ||A||).
    """

    values: np.ndarray  # (n,)
    vectors: np.ndarray  # (n, 3)
    residuals: np.ndarray  # (n,)

    as_dict = core._as_dict


class CSpectrum(NamedTuple):
    """Every real C-eigenpair A y y = mu x, x A y = mu y, |x| = |y| = 1, of
    a right-side symmetric tensor.

    One pair per critical line +-y of ||A y y||^2 on the unit sphere, with
    mu = ||A y y|| > 0, x = A y y / mu and y signed so that its first
    largest-magnitude entry is positive ((x, -y) is the same pair): an odd
    number from 3 to 13.  ``values`` descend, ties broken
    lexicographically on (x, y); ``residuals[n]`` is the larger of
    |A y y - mu x| and |x A y - mu y| relative to max(1, ||A||).
    """

    values: np.ndarray  # (n,)
    x: np.ndarray  # (n, 3)
    y: np.ndarray  # (n, 3)
    residuals: np.ndarray  # (n,)

    as_dict = core._as_dict


# per kind: the rows of its swaps in the deviations under _PAIR_SWAPS, and
# the error if the tensor is not symmetric under them
_GATES = {
    "c_eigen": ([_PAIR_SWAPS.index("right")], NotRightSymmetric,
                "C-eigenvalues require a right-side symmetric tensor"),
    "z_eigen": (slice(None), NotSymmetric, "Z-eigenvalues require a symmetric tensor"),
}


def _require(kind: str, route: _Route) -> None:
    """Raise the ``kind`` gate's error unless the route's scaled tensor a,
    by its deviations under _PAIR_SWAPS, is symmetric within 1e-8 ||a||
    under the gate's swaps."""
    rows, error, message = _GATES[kind]
    if not (route.dev[rows] <= 1e-8 * route.norm).all():
        raise error(message)


def _bounded_maximum(kind: str, route: _Route) -> CriticalTriple:
    """The ``kind`` maximum of the route's tensor from its bounded eta_1,
    with its upper bound: one branch and bound per route, whichever kind
    runs it, kept beside the enumerations.  For mu_1 and nu_1, x A is
    symmetrized (it is symmetric to the gate's bound) for the x of eta_1,
    and the unit eigenvector of its largest |eigenvalue|, a y of the
    maximum since the maxima are equal, is polished as an enumerated point
    is; a failed polish stores nothing but the branch and bound."""
    if route.norm == 0.0:  # every unit vector attains 0: e_1 in every slot
        return _triples(route, 0.0, None, "bounded", {kind: (np.eye(3)[[0, 0, 0]], 0.0)})[kind]
    if "bounded" not in route.runs:
        route.runs.setdefault("bounded", _bounded(route.a))
    (f, state, resid), upper, _ = route.runs["bounded"]
    if kind != "singular":
        w = (state[0, 0] @ route.a.reshape(3, 9)).reshape(3, 3)
        lam, vecs = np.linalg.eigh(w + w.T)
        y = vecs[:, np.abs(lam).argmax()][None]
        # where the pair is not isolated (x A of e_1 (x) I is the identity) a
        # Newton step can fail or wander, and the exact lift stands unpolished
        pairs = _polished(kind, route.a, y) or _polished(kind, route.a, y, steps=0)
        if pairs is None:
            raise NoConvergence(f"the {kind} pair of eta_1 did not polish to a residual of "
                                f"{_POLISHED:g} ||A||")
        f, state, resid = pairs
    return _triples(route, f[0], upper, "bounded", {kind: (state[0], resid[0])})[kind]


def _sources(verdicts: list) -> dict:
    """Per source (kind, axis permutation), in the order tried, the kinds
    it serves on a tensor with these swap verdicts: the Z enumeration
    serves nu_1, and eta_1 and mu_1 too where every swap holds; the C
    enumeration serves mu_1; and the C enumeration of the tensor with the
    first pair that holds moved last serves eta_1."""
    plan = {("z_eigen", (0, 1, 2)): ["z_eigen"], ("c_eigen", (0, 1, 2)): ["c_eigen"]}
    if all(verdicts):
        plan["z_eigen", (0, 1, 2)] += ["singular", "c_eigen"]
    if any(verdicts):
        perm = _PAIR_LAST[_PAIR_SWAPS[verdicts.index(True)]]
        plan.setdefault(("c_eigen", perm), []).append("singular")
    return plan


def _maximum(kind: str, a) -> CriticalTriple:
    """The ``kind`` maximum of ``a`` by the route of the solvers'
    docstrings, kept in ``_route``: the ``_sources`` of the kind in turn,
    then the branch and bound.  A source fills every empty kind it
    serves, so each kind gets its first source's maximum whichever solver
    ran it.  The gate is read only where a swap verdict fails (symmetric
    within _POLISHED passes its 1e-8), and its error stores nothing."""
    route = _route(core._shaped(a, "Hyper3").tobytes())
    if kind in route.maxima:
        return route.maxima[kind]
    if kind in _GATES and not all(route.verdicts):
        _require(kind, route)
    for (source, perm), kinds in _sources(route.verdicts).items():
        if kind in kinds:
            _lift(route, source, perm, kinds)
            if kind in route.maxima:
                return route.maxima[kind]
    return route.maxima.setdefault(kind, _bounded_maximum(kind, route))


def _spectrum(kind: str, a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gated ``kind`` eigenpairs of ``a`` as (values, (n, k, 3) state
    blocks, residuals relative to max(1, ||A||)), from its route: the one
    exit of every spectrum, which takes the values back to the scale of A
    and raises Unrepresentable where the largest is nonzero and not a
    normal float64 (smaller ones may round)."""
    route = _route(core._shaped(a, "Hyper3").tobytes())
    _require(kind, route)
    pairs = _enumerated(route, kind)
    if pairs is None:
        raise Uncertified(
            f"the {kind[0].upper()}-eigenpair enumeration certified in none of its charts"
        )
    core._rescaled(pairs[0][0], route.exp, f"largest {kind[0].upper()}-eigenvalue")
    return np.ldexp(pairs[0], route.exp), pairs[1], pairs[2] * route.unscaled


# The solvers take no setting that changes their answer.  ``restarts`` and
# ``history_out`` are accepted and ignored, for callers written against the
# multistart the branch and bound replaced, as the benchmark passes them;
# they and the triple's class constant go with its next change.


def max_singular_value(a: core.Hyper3, *, restarts=None, history_out=None) -> CriticalTriple:
    """Largest singular value eta_1 = max x A y z over three unit spheres.

    The right, left and central swaps that hold within 1e-12 ||A|| pick
    the route.  All three: eta_1 = nu_1 (Banach 1938), and the triple is
    the best pair v of the certified ``z_spectrum`` as (v, v, v), with
    nu_1 as its value, so it equals ``max_z_eigenvalue`` to the bit.
    Otherwise, or if that fails, the first that holds: eta_1 is mu_1 of
    the tensor with that pair moved last, and the triple is the best pair
    of its certified ``c_spectrum``, (x, y, y) put back in the original
    slots, with that mu_1 as its value, to the bit.  Either lift gets the
    singular sign rule and must pass the same residual test of
    1e-12 ||A|| on A as an enumerated pair (``method`` "enumerated",
    ``upper_bound`` = ``value``).

    Otherwise (``method`` "bounded") the branch and bound of the module
    docstring brackets eta_1 in [``value``, ``upper_bound``] and returns
    its polished best point.  The bracket closes to 1e-8 ``value`` where
    the maximum is isolated; where the maxima form a continuum (the
    Levi-Civita tensor, 3 sym(e_1 (x) (e_2 (x) e_2 + e_3 (x) e_3)) and
    tensors near them) the budget leaves it wider, about 4e-4 and 2e-5.
    Either way the triple satisfies A y z = eta x, x A z = eta y,
    x y A = eta z to its ``residual``, and eta = contract_full(a, x, y, z).
    Raises Unrepresentable where ``value`` or ``upper_bound`` is nonzero
    and not a normal float64, as near the ends of the float64 range.
    """
    return _maximum("singular", a)


def max_c_eigenvalue(a: core.Hyper3, *, restarts=None, history_out=None) -> CriticalTriple:
    """Largest C-eigenvalue mu_1 = max x A y y of a right-side symmetric tensor.

    On a tensor symmetric within 1e-12 ||A|| under the right, left and
    central swaps, mu_1 = nu_1 (Banach 1938): the best pair v of the
    certified ``z_spectrum`` as (v, +-v), with the C sign rule and nu_1
    as its value, so it equals ``max_z_eigenvalue`` to the bit, once the
    residuals of the x and y slots at (v, v, v) pass 1e-12 ||A||.
    Otherwise, or if that fails, the best pair of ``c_spectrum`` whenever
    its enumeration certifies.  Both are ``method`` "enumerated".
    Otherwise (``method`` "bounded", as for rank-one tensors
    ``x (x) y (x) y``, the zero tensor and tensors near them) the pair
    comes from the bounded eta_1 of ``max_singular_value``: x A is
    symmetric, so mu_1 = eta_1, and y is
    the eigenvector of the largest |eigenvalue| of x A for the x of
    eta_1, lifted to x = A y y / ||A y y|| and polished as an enumerated
    pair is (or left unpolished where a Newton step fails), and
    ``upper_bound`` is eta_1's.  Either way the pair satisfies
    A y y = mu x and x A y = mu y; NoConvergence is raised if the
    residual of the fallback's pair exceeds 1e-12 ||A||, which happens
    near a continuum of maxima, where the bracket of eta_1 stays wide.
    Unrepresentable is raised as for ``max_singular_value``.
    """
    return _maximum("c_eigen", a)


def max_z_eigenvalue(a: core.Hyper3, *, restarts=None, history_out=None) -> CriticalTriple:
    """Largest Z-eigenvalue nu_1 = max x A x x of a symmetric tensor.

    The best pair of ``z_spectrum`` whenever its enumeration certifies
    (``method`` "enumerated").  Otherwise (``method`` "bounded"):
    nu_1 = eta_1 on a symmetric tensor (Banach 1938), and x is the
    eigenvector of the largest |eigenvalue| of x' A for the x' of the
    bounded eta_1 of ``max_singular_value``, as for ``max_c_eigenvalue``,
    with eta_1's ``upper_bound`` and the same NoConvergence.  Either way
    x satisfies A x x = nu x with nu = x A x x >= 0 (x is flipped when
    the cubic form is negative, which the odd degree permits).
    Unrepresentable is raised as for ``max_singular_value``.
    """
    return _maximum("z_eigen", a)


def z_spectrum(a: core.Hyper3) -> ZSpectrum:
    """Every real Z-eigenpair of a symmetric tensor, from one resultant.

    The elimination that ``c_spectrum`` shares, on the field
    g' = R A x x of degree d = 2: on the tensor scaled by a power of two
    (exact), in the fixed chart x = R^T (1, t, s), the 5x5 Sylvester
    determinant of the quadratic p = g'_2 - t g'_1 and the cubic
    q = g'_3 - s g'_1 in s at the 16th roots of unity, one batched
    ``np.linalg.det``, gives the degree-7 polynomial in t through a
    constant inverse DFT matrix; one ``np.linalg.eigvals`` of its
    companion matrix (the one ``np.roots`` builds, with the same bits)
    gives its roots; at every real t, s = -R0 / R1 from the first
    subresultant R1 s + R0 of p and q, two 3x3 minors of their Sylvester
    matrix in one batched ``np.linalg.det``; and batched Newton steps on
    the bordered 4x4 system polish all real candidates together until
    every residual is at the rounding floor 4 eps ||A||, 3 at most.

    The result is certified: coefficients 8..15 of the determinant at
    most 1e-11 ||c|| (zero in exact arithmetic, so they measure its
    rounding), the degree-7 coefficient above 1e-8 ||c|| (no eigenvector
    at x'_1 = 0), the 7 roots simple (each one's first-order error bound
    under that rounding at most 1e-3 of its distance to the nearest
    other root), every real pair polished to a residual of at most
    1e-12 ||A|| and no two of them merged.  Failing that, two more fixed
    charts are tried in turn.  Raises Uncertified when none certifies: the
    zero tensor, tensors with infinitely many eigenvectors such as
    ``c * outer(v, v, v)``, and tensors near those.  Raises NotSymmetric
    unless ``a`` is symmetric within 1e-8 * ||A||, ValueError unless it
    is a finite 3x3x3 array, and Unrepresentable where the largest value
    is nonzero and not a normal float64 (smaller values may round).
    """
    values, blocks, resid = _spectrum("z_eigen", a)
    return ZSpectrum(*map(core._read_only, (values, blocks[:, 0], resid)))


def c_spectrum(a: core.Hyper3) -> CSpectrum:
    """Every real C-eigenpair of a right-side symmetric tensor, from one resultant.

    The y of a C-eigenpair are the critical points of ||A y y||^2 on the
    unit sphere.  The elimination of ``z_spectrum``, on the field
    g' = R sum_i (A y y)_i A_i y of degree d = 3, a quarter of that
    form's gradient: in the chart y = R^T (1, t, s), the 7x7 Sylvester
    determinant of the cubic p = g'_2 - t g'_1 and the quartic
    q = g'_3 - s g'_1 in s at the 32nd roots of unity gives the
    degree-13 polynomial in t, whose companion matrix gives its roots as
    for ``z_spectrum``; the first subresultant of p and q, two 5x5 minors,
    gives s for every real t, x = A y y / ||A y y||, and batched Newton
    steps on the bordered 8x8 system in (x, y) polish all real candidates
    together, as for ``z_spectrum``.

    Certified as ``z_spectrum`` is, with coefficients 14..31 as the
    rounding and 13 simple roots.  Raises Uncertified when no chart
    certifies: the zero tensor, rank-one tensors ``x (x) y (x) y`` (a
    circle of critical points where A y y = 0) and tensors near those.  Raises
    NotRightSymmetric unless ``a`` is right-side symmetric within
    1e-8 * ||A||, ValueError unless it is a finite 3x3x3 array, and
    Unrepresentable as ``z_spectrum`` does.
    """
    values, blocks, resid = _spectrum("c_eigen", a)
    return CSpectrum(*map(core._read_only, (values, blocks[:, 0], blocks[:, 1], resid)))
