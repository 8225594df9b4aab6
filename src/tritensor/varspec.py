"""Variational eigenvalues: singular values, C- and Z-eigenvalues.

Singular values, C-eigenvalues and Z-eigenvalues are stationary values of
the potential x A y z over one, two or three unit spheres.  One seeded
multistart driver finds all three maxima on the tensor scaled by a power
of two (exact, so results scale with the tensor).  Each kind supplies a
monotone ascent step: alternating normalized updates for singular
values, an exact x-step plus a shifted power step in y for C-eigenvalues,
a shifted symmetric power iteration for Z-eigenvalues.  Once a restart's
step is below 1e-2 the driver also proposes a Newton step on its
bordered Lagrange system, kept where the objective ends at least as
high, so the tail converges quadratically.  Restarts are vectorized and
independent, and merged after a value-then-lexicographic sort, so the
triple does not depend on execution order.  Global optimality is not
certified, so ``starts_converged`` reports how many restarts agreed
with the returned point; raise ``restarts`` if it looks thin.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import NoConvergence, NotRightSymmetric, NotSymmetric
from .spectral import _lead_signs
from .symmetry import _PAIR_SWAPS, _swap_symmetric

__all__ = ["CriticalTriple", "max_singular_value", "max_c_eigenvalue", "max_z_eigenvalue"]

_STALL = 1e-30
# residual bound a restart must meet, relative to ||A||
_RESIDUAL_OK = 1e-9
# merge tolerances for duplicate critical points across restarts
_MERGE_VALUE = 1e-8
_MERGE_VECTOR = 1e-6
# shift of the C and Z power steps, relative to ||A||: below the
# convexifying bound of SS-HOPM, so the descent guard keeps them monotone
_SHIFT = 0.5
# a restart whose last step was shorter than this gets a Newton proposal
_NEWTON_BELOW = 1e-2


@dataclass(frozen=True)
class CriticalTriple:
    """One converged stationary point of a spherical potential.

    ``kind`` is "singular", "c_eigen" or "z_eigen"; for C-eigenpairs the
    stored z equals y, for Z-eigenpairs x = y = z.  ``residual`` is the
    largest defining-equation residual relative to max(1, ||A||), and
    ``starts_converged`` counts the restarts that converged to this same
    point (value within 1e-8, vectors within 1e-6 after sign
    canonicalization).
    """

    kind: str
    value: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    residual: float
    starts_converged: int

    def as_dict(self) -> dict:
        out = dict(vars(self))
        for key in "xyz":
            out[key] = out[key].tolist()
        return out


# The state of r restarts is an (r, k, 3) array of k unit vectors; a kind's
# ``slots`` says which of them stands in x, y and z of the potential x A y z.


def _norms(g: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...i,...i->...", g, g))


def _unit(g: np.ndarray, old: np.ndarray) -> np.ndarray:
    """``g`` normalized along its last axis; vectors too short to
    normalize keep ``old``."""
    n = _norms(g)[..., None]
    ok = n > _STALL
    if ok.all():
        return g / n
    return np.where(ok, g / np.where(ok, n, 1.0), old)


def _blocks(*rows: np.ndarray) -> np.ndarray:  # np.stack(rows, 1) at half the cost
    return np.concatenate(rows, axis=1).reshape(len(rows[0]), len(rows), 3)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ri,ri->r", u, v)


def _pair(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows u (x) v flattened to 9 columns, to multiply the unfolding."""
    return (u[:, :, None] * v[:, None, :]).reshape(len(u), 9)


def _potential(m, s, slots):
    return _dot(_pair(s[:, slots[1]], s[:, slots[2]]) @ m.T, s[:, slots[0]])


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


def _lagrange(jmap, s, f):
    """The bordered Lagrange matrices and the residuals g - f s, flattened."""
    r, k, _ = s.shape
    n = 3 * k
    sf = s.reshape(r, n)
    system = (sf @ jmap).reshape(r, n + k, n + k)
    return system, 0.5 * np.matmul(system[:, :n, :n], sf[:, :, None])[:, :, 0] - f[:, None] * sf


def _residual(jmap, s, f):
    """Largest |g_b - f s_b| over the state blocks, absolute."""
    return _norms(_lagrange(jmap, s, f)[1].reshape(s.shape)).max(axis=1)


def _newton(jmap, s, f):
    """One Newton step per row on g_b(s) = lambda_b s_b, |s_b| = 1 over
    the state blocks b, from the multipliers lambda_b = f; the new blocks
    come back normalized."""
    r, k, _ = s.shape
    n = 3 * k
    system, res = _lagrange(jmap, s, f)
    system.reshape(r, -1)[:, : n * (n + k + 1) : n + k + 1] -= f[:, None]  # J - f I
    rhs = np.zeros((r, n + k, 1))
    np.negative(res, out=rhs[:, :n, 0])
    step = np.linalg.solve(system, rhs)[:, :n, 0].reshape(r, k, 3)
    return _unit(s + step, s)


# Each kind has an ascent step (m, s, shift) -> (base, f(base), proposal,
# f(proposal)), base being s after any exact substep, and a sign rule that
# makes a converged state canonical.


def _singular_step(m, s, shift):
    x, y, z = s[:, 0], s[:, 1], s[:, 2]
    g = _pair(y, z) @ m.T
    xn = _unit(g, x)
    xa = (xn @ m).reshape(-1, 3, 3)
    yn = _unit(np.matmul(xa, z[:, :, None])[:, :, 0], y)
    zraw = np.matmul(yn[:, None, :], xa)[:, 0]
    zn = _unit(zraw, z)
    return s, _dot(g, x), _blocks(xn, yn, zn), _dot(zraw, zn)


def _c_step(m, s, shift):
    x, y = s[:, 0], s[:, 1]
    xn = _unit(_pair(y, y) @ m.T, x)
    w = (xn @ m).reshape(-1, 3, 3)
    wy = np.matmul(w, y[:, :, None])[:, :, 0]
    yp = _unit(wy + shift * y, y)
    f_prop = _dot(np.matmul(w, yp[:, :, None])[:, :, 0], yp)
    return _blocks(xn, y), _dot(wy, y), _blocks(xn, yp), f_prop


def _z_step(m, s, shift):
    x = s[:, 0]
    g = _pair(x, x) @ m.T
    f = _dot(g, x)
    # a negative cubic form raises the shift by |f|, which keeps a local
    # maximum with f near -shift from turning into a slow 2-cycle
    xp = _unit(g + (shift + np.maximum(-f, 0.0))[:, None] * x, x)
    return s, f, xp[:, None], _dot(_pair(xp, xp) @ m.T, xp)


def _singular_signs(m, s):
    sx, sy = _lead_signs(s[:, 0]), _lead_signs(s[:, 1])
    return np.stack((sx, sy, sx * sy), axis=1)


def _c_signs(m, s):
    return np.stack((np.ones(len(s)), _lead_signs(s[:, 1])), axis=1)


def _z_signs(m, s):
    # the odd degree lets x flip to make the cubic form nonnegative
    return np.where(_potential(m, s, (0, 0, 0)) < 0.0, -1.0, 1.0)[:, None]


# per kind: the state block in x, y and z, the blocks seeded with random
# unit rows (the others start at 0), the ascent step and the sign rule
_KINDS = {
    "singular": ((0, 1, 2), (True, True, True), _singular_step, _singular_signs),
    "c_eigen": ((0, 1, 1), (False, True), _c_step, _c_signs),
    "z_eigen": ((0, 0, 0), (True,), _z_step, _z_signs),
}


def _descend_guard(s_old, s_prop, f_old, f_prop, f_of, noise):
    """Blend proposals back toward the previous iterate until the
    objective stops decreasing (allowing ``noise``)."""
    bad = f_prop < f_old - noise
    if not bad.any():
        return s_prop, f_prop
    out = s_prop.copy()
    for t in 0.5 ** np.arange(1.0, 31.0):
        old = s_old[bad]
        out[bad] = _unit(old + t * (s_prop[bad] - old), old)
        f_new = f_of(out)
        bad = f_new < f_old - noise
        if not bad.any():
            return out, f_new
    out[bad] = s_old[bad]
    return out, f_of(out)


def _starts(seed, restarts: int, drawn: tuple) -> np.ndarray:
    """Seeded starts: random unit rows in the ``drawn`` blocks, drawn in one
    call, the same stream as one (restarts, 3) draw per block."""
    g = np.random.default_rng(seed).standard_normal((sum(drawn), restarts, 3))
    s = np.zeros((restarts, len(drawn), 3))
    s[:, list(drawn)] = (g / _norms(g)[..., None]).transpose(1, 0, 2)
    return s


def _multistart(kind, a, exp, restarts, tol, max_iters, seed, history_out) -> CriticalTriple:
    """The ``kind`` maximum of ldexp(a, exp), for ``a, exp = core._scaled(...)``."""
    for name, count in (("restarts", restarts), ("max_iters", max_iters)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count!r}")
    if not np.any(a):
        e1 = core._read_only([1.0, 0.0, 0.0])
        return CriticalTriple(kind, 0.0, e1, e1, e1, 0.0, restarts)
    slots, drawn, step, signs = _KINDS[kind]
    m = a.reshape(3, 9)
    norm = float(np.linalg.norm(m))
    shift = _SHIFT * norm
    jmap = _jacobian_map(a, slots, len(drawn))
    s = _starts(seed, restarts, drawn)
    f_of = functools.partial(_potential, m, slots=slots)
    delta = np.full(restarts, np.inf)
    converged = np.zeros(restarts, dtype=bool)
    for it in range(max_iters):
        base, f_base, prop, f_prop = step(m, s, shift)
        near = ((delta < _NEWTON_BELOW) & (delta >= tol)).nonzero()[0]
        if len(near):
            # a Newton proposal replaces the power step's only where the
            # objective ends at least as high, which a NaN never does
            with np.errstate(all="ignore"):
                try:
                    cand = _newton(jmap, base[near], f_base[near])
                except np.linalg.LinAlgError:  # an exactly singular system
                    cand = prop[near]
                f_cand = f_of(cand)
            take = f_cand >= f_prop[near]
            prop[near[take]] = cand[take]
            f_prop[near[take]] = f_cand[take]
        s_new, f = _descend_guard(base, prop, f_base, f_prop, f_of, 1e-13 * norm)
        delta = _norms(s_new - s).max(axis=1)
        s = s_new
        if history_out is not None:
            history_out.append(np.ldexp(f, exp))
        # only a check with every step below tol can stop the loop; the
        # periodic ones keep ``converged`` current should max_iters run out
        if (delta < tol).all() or it % 8 == 7 or it == max_iters - 1:
            resid = _residual(jmap, s, f) / norm
            converged = (delta < tol) & (resid < _RESIDUAL_OK)
            if converged.all():
                break
    if not converged.any():
        msg = f"no restart converged in {max_iters} iterations (restarts={restarts})"
        raise NoConvergence(msg)
    # canonical signs, exact values and residuals of the converged restarts
    s = s[converged]
    s = s * signs(m, s)[:, :, None]
    f = f_of(s)
    values = np.ldexp(f, exp)
    # residuals are reported relative to max(1, ||A||) = max(1, 2^exp * norm)
    ref = 1.0 if exp > 0 else min(1.0, math.ldexp(norm, exp))
    resids = _residual(jmap, s, f) / norm * ref
    vecs = s[:, slots].reshape(len(s), 9)
    # best value first, ties broken lexicographically on the vectors
    best = np.lexsort((*vecs.T[::-1], -values))[0]
    bval = values[best]
    close = np.abs(vecs - vecs[best]).max(axis=1) <= _MERGE_VECTOR
    agree = close & (np.abs(values - bval) <= _MERGE_VALUE * max(1.0, abs(bval)))
    x, y, z = (core._read_only(v) for v in vecs[best].reshape(3, 3))
    return CriticalTriple(kind, float(bval), x, y, z, float(resids[best]), int(agree.sum()))


def max_singular_value(
    a: core.Hyper3,
    restarts: int = 64,
    tol: float = 1e-12,
    max_iters: int = 10000,
    seed: int = 0,
    history_out: list | None = None,
) -> CriticalTriple:
    """Largest singular value eta_1 = max x A y z over three unit spheres.

    Alternating normalized updates x <- A y z, y <- x A z, z <- x y A from
    seeded random unit starts; each substep maximizes the potential
    exactly, so the objective is monotone, and a Newton step on the
    12x12 Lagrange system replaces the sweep where it climbs further.
    The converged triple satisfies A y z = eta x, x A z = eta y,
    x y A = eta z, and eta equals contract_full(a, x, y, z).
    """
    a, exp = core._scaled(a, "Hyper3")
    return _multistart("singular", a, exp, restarts, tol, max_iters, seed, history_out)


def max_c_eigenvalue(
    a: core.Hyper3,
    restarts: int = 64,
    tol: float = 1e-12,
    max_iters: int = 10000,
    seed: int = 0,
    history_out: list | None = None,
) -> CriticalTriple:
    """Largest C-eigenvalue mu_1 = max x A y y of a right-side symmetric tensor.

    The x-step is exact (x <- A y y normalized); the y-step is a
    normalized move toward x A y shifted by ||A|| / 2 times y (norm of
    the tensor scaled by a power of two), or a Newton step on the 8x8
    Lagrange system in (x, y) where that climbs further, with step
    halving as a safeguard so the objective never decreases.  The
    converged pair satisfies A y y = mu x and x A y = mu y.
    """
    a, exp = core._scaled(a, "Hyper3")
    if not _swap_symmetric(a, 1e-8, "right"):
        raise NotRightSymmetric("C-eigenvalues require a right-side symmetric tensor")
    return _multistart("c_eigen", a, exp, restarts, tol, max_iters, seed, history_out)


def max_z_eigenvalue(
    a: core.Hyper3,
    restarts: int = 64,
    tol: float = 1e-12,
    max_iters: int = 10000,
    seed: int = 0,
    history_out: list | None = None,
) -> CriticalTriple:
    """Largest Z-eigenvalue nu_1 = max x A x x of a symmetric tensor.

    Shifted symmetric power iteration x <- (A x x + alpha x) / ||.|| on
    the tensor scaled by a power of two, alpha being half its norm plus
    |x A x x| where that is negative, or a Newton step on the 4x4 system
    [[2 A x - nu I, -x], [x^T, 0]] where that climbs further, plus the
    same step-halving safeguard as the C-eigenvalue search.  A converged
    x satisfies A x x = nu x with nu = x A x x >= 0 (x is flipped when
    the cubic form is negative, which the odd degree permits).
    """
    a, exp = core._scaled(a, "Hyper3")
    if not _swap_symmetric(a, 1e-8, *_PAIR_SWAPS):
        raise NotSymmetric("Z-eigenvalues require a symmetric tensor")
    return _multistart("z_eigen", a, exp, restarts, tol, max_iters, seed, history_out)
