"""Variational eigenvalues and the seven polynomial invariants.

Singular values, C-eigenvalues and Z-eigenvalues are stationary values of
the potential x A y z over one, two or three unit spheres.  The maxima
are located by seeded multistart iterations: alternating normalized
updates for singular values, an exact x-step plus a shifted power step in
y for C-eigenvalues, and a shifted symmetric power iteration for
Z-eigenvalues.  Restarts are vectorized and independent; for a fixed seed
and restart count the reported triple is identical regardless of
execution order (candidates are merged after a value-then-lexicographic
sort).  Global optimality is not certified - the sphere problems are
nonconvex - so ``starts_converged`` reports how many restarts agreed with
the returned point; raise ``restarts`` if it looks thin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import NoConvergence, NotRightSymmetric, NotSymmetric
from .spectral import _frozen, _lead_signs, kernel_triple, unfold
from .symmetry import classify

__all__ = [
    "CriticalTriple",
    "InvariantSet",
    "max_singular_value",
    "max_c_eigenvalue",
    "max_z_eigenvalue",
    "invariants",
]

_STALL = 1e-30
# residual bound a restart must meet, relative to max(1, ||A||)
_RESIDUAL_OK = 1e-9
# merge tolerances for duplicate critical points across restarts
_MERGE_VALUE = 1e-8
_MERGE_VECTOR = 1e-6


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
        return {
            "kind": self.kind,
            "value": self.value,
            "x": self.x.tolist(),
            "y": self.y.tolist(),
            "z": self.z.tolist(),
            "residual": self.residual,
            "starts_converged": self.starts_converged,
        }


@dataclass(frozen=True)
class InvariantSet:
    """Traces of powers of the three kernel tensors; all rotation invariant."""

    trU: float
    trU2: float
    trU3: float
    trUbar2: float
    trUbar3: float
    trUhat2: float
    trUhat3: float

    def as_dict(self) -> dict:
        return {
            "trU": self.trU,
            "trU2": self.trU2,
            "trU3": self.trU3,
            "trUbar2": self.trUbar2,
            "trUbar3": self.trUbar3,
            "trUhat2": self.trUhat2,
            "trUhat3": self.trUhat3,
        }


def _unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(rows, axis=1)
    ok = norms > _STALL
    safe = np.where(ok, norms, 1.0)
    return rows / safe[:, None], ok


def _zero_triple(kind: str, restarts: int) -> CriticalTriple:
    e1 = _frozen([1.0, 0.0, 0.0])
    return CriticalTriple(kind, 0.0, e1, e1, e1, 0.0, restarts)


def _merge(kind, values, vectors, residuals) -> CriticalTriple:
    """Pick the best candidate and count restarts that agree with it."""
    order = sorted(
        range(len(values)),
        key=lambda r: (-values[r],) + tuple(float(c) for vec in vectors[r] for c in vec),
    )
    best = order[0]
    bval = values[best]
    bvecs = vectors[best]
    count = 0
    for r in order:
        if abs(values[r] - bval) <= _MERGE_VALUE * max(1.0, abs(bval)) and all(
            float(np.abs(v - bv).max()) <= _MERGE_VECTOR
            for v, bv in zip(vectors[r], bvecs)
        ):
            count += 1
    x, y, z = (np.asarray(v, dtype=float) for v in bvecs)
    return CriticalTriple(
        kind=kind,
        value=float(bval),
        x=_frozen(x),
        y=_frozen(y),
        z=_frozen(z),
        residual=float(residuals[best]),
        starts_converged=count,
    )


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
    exactly, so the objective is monotone.  The converged triple satisfies
    A y z = eta x, x A z = eta y, x y A = eta z, and eta equals
    contract_full(a, x, y, z).
    """
    a = np.asarray(a, dtype=float)
    norm_a = float(np.linalg.norm(a))
    if norm_a == 0.0:
        return _zero_triple("singular", restarts)
    scale = max(1.0, norm_a)
    m = unfold(a)
    rng = np.random.default_rng(seed)
    x, _ = _unit_rows(rng.standard_normal((restarts, 3)))
    y, _ = _unit_rows(rng.standard_normal((restarts, 3)))
    z, _ = _unit_rows(rng.standard_normal((restarts, 3)))
    converged = np.zeros(restarts, dtype=bool)
    fvals = np.zeros(restarts)
    resid = np.full(restarts, np.inf)
    for it in range(max_iters):
        xn, ok = _unit_rows((y[:, :, None] * z[:, None, :]).reshape(restarts, 9) @ m.T)
        xn = np.where(ok[:, None], xn, x)
        xa = (xn @ m).reshape(restarts, 3, 3)
        yn, ok = _unit_rows(np.matmul(xa, z[:, :, None])[:, :, 0])
        yn = np.where(ok[:, None], yn, y)
        zraw = np.matmul(xa.transpose(0, 2, 1), yn[:, :, None])[:, :, 0]
        zn, ok = _unit_rows(zraw)
        zn = np.where(ok[:, None], zn, z)
        delta = np.maximum(
            np.linalg.norm(xn - x, axis=1),
            np.maximum(np.linalg.norm(yn - y, axis=1), np.linalg.norm(zn - z, axis=1)),
        )
        x, y, z = xn, yn, zn
        fvals = np.einsum("ri,ri->r", zraw, z)
        if history_out is not None:
            history_out.append(fvals.copy())
        # the residual check is the expensive part; run it once updates are
        # small somewhere, or periodically to catch stragglers
        if (delta < tol).any() or it % 8 == 7:
            r1 = np.linalg.norm(
                (y[:, :, None] * z[:, None, :]).reshape(restarts, 9) @ m.T
                - fvals[:, None] * x,
                axis=1,
            )
            xa = (x @ m).reshape(restarts, 3, 3)
            r2 = np.linalg.norm(
                np.matmul(xa, z[:, :, None])[:, :, 0] - fvals[:, None] * y, axis=1
            )
            r3 = np.linalg.norm(
                np.matmul(xa.transpose(0, 2, 1), y[:, :, None])[:, :, 0]
                - fvals[:, None] * z,
                axis=1,
            )
            resid = np.maximum(r1, np.maximum(r2, r3)) / scale
            converged = (delta < tol) & (resid < _RESIDUAL_OK)
            if converged.all():
                break
    if not converged.any():
        raise NoConvergence(
            f"no restart converged in {max_iters} iterations (restarts={restarts})"
        )
    idx = np.flatnonzero(converged)
    x, y, z = x[idx], y[idx], z[idx]
    sy = _lead_signs(y)[:, None]
    y, z = y * sy, z * sy
    sx = _lead_signs(x)[:, None]
    x, z = x * sx, z * sx
    vals, vecs, resids = [], [], []
    for xr, yr, zr in zip(x, y, z):
        value = core.contract_full(a, xr, yr, zr)
        r1 = np.linalg.norm(core.contract_two(a, yr, zr, (2, 3)) - value * xr)
        r2 = np.linalg.norm(core.contract_two(a, xr, zr, (1, 3)) - value * yr)
        r3 = np.linalg.norm(core.contract_two(a, xr, yr, (1, 2)) - value * zr)
        vals.append(value)
        vecs.append((xr, yr, zr))
        resids.append(max(r1, r2, r3) / scale)
    return _merge("singular", vals, vecs, resids)


def _descend_guard(x_old, x_prop, f_old, f_of, scale):
    """Blend proposals back toward the previous iterate until the
    objective stops decreasing (allowing 1e-13 * scale of noise)."""
    f_new = f_of(x_prop)
    bad = f_new < f_old - 1e-13 * scale
    if not bad.any():
        return x_prop, f_new
    out = x_prop.copy()
    t = 1.0
    for _ in range(30):
        t *= 0.5
        blend, ok = _unit_rows(x_old[bad] + t * (x_prop[bad] - x_old[bad]))
        blend = np.where(ok[:, None], blend, x_old[bad])
        out[bad] = blend
        f_new = f_of(out)
        bad = f_new < f_old - 1e-13 * scale
        if not bad.any():
            return out, f_new
    out[bad] = x_old[bad]
    return out, f_of(out)


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
    normalized move toward x A y shifted by (1 + ||A||) y, with step
    halving as a safeguard so the objective never decreases.  The
    converged pair satisfies A y y = mu x and x A y = mu y.
    """
    a = np.asarray(a, dtype=float)
    if not classify(a, 1e-8).right_symmetric:
        raise NotRightSymmetric("C-eigenvalues require a right-side symmetric tensor")
    norm_a = float(np.linalg.norm(a))
    if norm_a == 0.0:
        return _zero_triple("c_eigen", restarts)
    scale = max(1.0, norm_a)
    shift = 1.0 + norm_a
    m = unfold(a)
    rng = np.random.default_rng(seed)
    y, _ = _unit_rows(rng.standard_normal((restarts, 3)))
    x = np.zeros((restarts, 3))
    fvals = np.full(restarts, -np.inf)
    converged = np.zeros(restarts, dtype=bool)
    resid = np.full(restarts, np.inf)
    for it in range(max_iters):
        xn, ok = _unit_rows((y[:, :, None] * y[:, None, :]).reshape(restarts, 9) @ m.T)
        xn = np.where(ok[:, None], xn, x)
        w = (xn @ m).reshape(restarts, 3, 3)

        def f_of(ycand, w=w):
            return np.einsum("rjk,rj,rk->r", w, ycand, ycand)

        f_after_x = f_of(y)
        yprop, ok = _unit_rows(np.matmul(w, y[:, :, None])[:, :, 0] + shift * y)
        yprop = np.where(ok[:, None], yprop, y)
        yn, fvals = _descend_guard(y, yprop, f_after_x, f_of, scale)
        delta = np.maximum(np.linalg.norm(xn - x, axis=1), np.linalg.norm(yn - y, axis=1))
        x, y = xn, yn
        if history_out is not None:
            history_out.append(fvals.copy())
        if (delta < tol).any() or it % 8 == 7:
            r1 = np.linalg.norm(
                (y[:, :, None] * y[:, None, :]).reshape(restarts, 9) @ m.T
                - fvals[:, None] * x,
                axis=1,
            )
            w = (x @ m).reshape(restarts, 3, 3)
            r2 = np.linalg.norm(
                np.matmul(w, y[:, :, None])[:, :, 0] - fvals[:, None] * y, axis=1
            )
            resid = np.maximum(r1, r2) / scale
            converged = (delta < tol) & (resid < _RESIDUAL_OK)
            if converged.all():
                break
    if not converged.any():
        raise NoConvergence(
            f"no restart converged in {max_iters} iterations (restarts={restarts})"
        )
    idx = np.flatnonzero(converged)
    x, y = x[idx], y[idx]
    y = y * _lead_signs(y)[:, None]
    vals, vecs, resids = [], [], []
    for xr, yr in zip(x, y):
        mu = core.contract_full(a, xr, yr, yr)
        r1 = np.linalg.norm(core.contract_two(a, yr, yr, (2, 3)) - mu * xr)
        r2 = np.linalg.norm(core.contract_two(a, xr, yr, (1, 2)) - mu * yr)
        vals.append(mu)
        vecs.append((xr, yr, yr.copy()))
        resids.append(max(r1, r2) / scale)
    return _merge("c_eigen", vals, vecs, resids)


def max_z_eigenvalue(
    a: core.Hyper3,
    restarts: int = 64,
    tol: float = 1e-12,
    max_iters: int = 10000,
    seed: int = 0,
    history_out: list | None = None,
) -> CriticalTriple:
    """Largest Z-eigenvalue nu_1 = max x A x x of a symmetric tensor.

    Shifted symmetric power iteration x <- (A x x + alpha x) / ||.|| with
    alpha = 1 + ||A||, plus the same step-halving safeguard as the
    C-eigenvalue search.  A converged x satisfies A x x = nu x with
    nu = x A x x >= 0 (x is flipped when the cubic form is negative,
    which the odd degree permits).
    """
    a = np.asarray(a, dtype=float)
    if not classify(a, 1e-8).symmetric:
        raise NotSymmetric("Z-eigenvalues require a symmetric tensor")
    norm_a = float(np.linalg.norm(a))
    if norm_a == 0.0:
        return _zero_triple("z_eigen", restarts)
    scale = max(1.0, norm_a)
    shift = 1.0 + norm_a
    rng = np.random.default_rng(seed)
    x, _ = _unit_rows(rng.standard_normal((restarts, 3)))
    converged = np.zeros(restarts, dtype=bool)
    resid = np.full(restarts, np.inf)

    def f_of(xc):
        return np.einsum("ijk,ri,rj,rk->r", a, xc, xc, xc)

    for it in range(max_iters):
        g = np.einsum("ijk,rj,rk->ri", a, x, x)
        f_cur = np.einsum("ri,ri->r", g, x)
        xprop, ok = _unit_rows(g + shift * x)
        xprop = np.where(ok[:, None], xprop, x)
        xn, fvals = _descend_guard(x, xprop, f_cur, f_of, scale)
        delta = np.linalg.norm(xn - x, axis=1)
        x = xn
        if history_out is not None:
            history_out.append(fvals.copy())
        if (delta < tol).any() or it % 8 == 7:
            g = np.einsum("ijk,rj,rk->ri", a, x, x)
            resid = np.linalg.norm(g - fvals[:, None] * x, axis=1) / scale
            converged = (delta < tol) & (resid < _RESIDUAL_OK)
            if converged.all():
                break
    if not converged.any():
        raise NoConvergence(
            f"no restart converged in {max_iters} iterations (restarts={restarts})"
        )
    idx = np.flatnonzero(converged)
    vals, vecs, resids = [], [], []
    for r in idx:
        xr = x[r].copy()
        nu = core.contract_full(a, xr, xr, xr)
        if nu < 0.0:
            xr = -xr
            nu = -nu
        res = np.linalg.norm(core.contract_two(a, xr, xr, (2, 3)) - nu * xr)
        vals.append(nu)
        vecs.append((xr, xr.copy(), xr.copy()))
        resids.append(res / scale)
    return _merge("z_eigen", vals, vecs, resids)


def invariants(a: core.Hyper3) -> InvariantSet:
    """The seven rotation invariants from the kernel triple.

    tr(U) = tr(U_bar) = tr(U_hat) = A . A, so the first trace is reported
    once; the squared and cubed traces of all three kernels complete the
    set.  Cyclically symmetric tensors have all three kernels equal.
    """
    kt = kernel_triple(a)
    u, ub, uh = kt.u, kt.u_bar, kt.u_hat
    return InvariantSet(
        trU=float(np.trace(u)),
        trU2=float(np.trace(u @ u)),
        trU3=float(np.trace(u @ u @ u)),
        trUbar2=float(np.trace(ub @ ub)),
        trUbar3=float(np.trace(ub @ ub @ ub)),
        trUhat2=float(np.trace(uh @ uh)),
        trUhat3=float(np.trace(uh @ uh @ uh)),
    )
