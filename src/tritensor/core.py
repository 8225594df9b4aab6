"""Dense algebra for third-order tensors in three dimensions.

Under a fixed orthonormal basis a third-order tensor is represented by a
3x3x3 hypermatrix ``a[i, j, k]`` stored in C order (i slowest, k fastest);
its first- and second-order companions are plain 3-vectors and 3x3
matrices.  Constructors validate shape and finiteness and hand back
read-only arrays; every operation is a pure function of its inputs, so
values can be shared across threads without locking.
"""

from __future__ import annotations

import numpy as np

from .errors import NotOrthogonal

__all__ = [
    "Vec3",
    "Mat3",
    "Hyper3",
    "Quad3",
    "vec3",
    "mat3",
    "hyper3",
    "quad3",
    "is_symmetric",
    "is_orthogonal",
    "contract_one",
    "contract_mat",
    "contract_two",
    "contract_full",
    "inner",
    "prod2",
    "prod4",
    "outer",
    "outer_mv",
    "outer_vm",
    "transpose",
    "rotate",
    "rotate_mat",
    "rotate_vec",
    "random_rotation",
    "levi_civita",
]

# Aliases for readability; all values are float64 ndarrays of fixed shape.
Vec3 = np.ndarray
Mat3 = np.ndarray
Hyper3 = np.ndarray
Quad3 = np.ndarray

_TINY = 1e-30


def _validated(values, shape, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} entries must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


def vec3(values) -> Vec3:
    """Build a 3-vector; rejects non-finite entries."""
    return _validated(values, (3,), "Vec3")


def mat3(values) -> Mat3:
    """Build a 3x3 matrix; rejects non-finite entries."""
    return _validated(values, (3, 3), "Mat3")


def hyper3(values) -> Hyper3:
    """Build a 3x3x3 hypermatrix; rejects non-finite entries."""
    return _validated(values, (3, 3, 3), "Hyper3")


def quad3(values) -> Quad3:
    """Build a 3x3x3x3 hypermatrix; rejects non-finite entries."""
    return _validated(values, (3, 3, 3, 3), "Quad3")


def is_symmetric(u: Mat3, tol: float = 1e-10) -> bool:
    """True if ``u`` equals its transpose within tol * max(1, ||u||)."""
    u = np.asarray(u, dtype=float)
    scale = max(1.0, float(np.linalg.norm(u)))
    return float(np.abs(u - u.T).max()) <= tol * scale


def is_orthogonal(p: Mat3, tol: float = 1e-10) -> bool:
    """True if ``p p^T`` is the identity within tol (Frobenius)."""
    p = np.asarray(p, dtype=float)
    return float(np.linalg.norm(p @ p.T - np.eye(3))) <= tol


def contract_one(a: Hyper3, v: Vec3, slot: int) -> Mat3:
    """Contract one index of ``a`` against ``v``.

    slot=1 gives v_i a_ijk, slot=2 gives a_ijk v_j, slot=3 gives a_ijk v_k.
    """
    if slot == 1:
        return np.einsum("i,ijk->jk", v, a)
    if slot == 2:
        return np.einsum("j,ijk->ik", v, a)
    if slot == 3:
        return np.einsum("k,ijk->ij", v, a)
    raise ValueError(f"slot must be 1, 2 or 3, got {slot!r}")


def contract_mat(a: Hyper3, v: Mat3, side: str) -> Vec3:
    """Contract a matrix against ``a``: right is a_ijk v_jk, left is v_ij a_ijk."""
    if side == "right":
        return np.einsum("ijk,jk->i", a, v)
    if side == "left":
        return np.einsum("ij,ijk->k", v, a)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


_TWO_SLOT_SUBSCRIPTS = {
    (1, 2): "ijk,i,j->k",
    (2, 1): "ijk,j,i->k",
    (1, 3): "ijk,i,k->j",
    (3, 1): "ijk,k,i->j",
    (2, 3): "ijk,j,k->i",
    (3, 2): "ijk,k,j->i",
}


def contract_two(a: Hyper3, u: Vec3, v: Vec3, slots: tuple[int, int]) -> Vec3:
    """Contract two indices of ``a``; ``u`` binds the first listed slot.

    The surviving index carries the result, e.g. slots=(2, 3) gives
    a_ijk u_j v_k and slots=(1, 2) gives u_i v_j a_ijk.
    """
    try:
        subscripts = _TWO_SLOT_SUBSCRIPTS[tuple(slots)]
    except (KeyError, TypeError):
        raise ValueError(
            f"slots must be an ordered pair of distinct indices in 1..3, got {slots!r}"
        ) from None
    return np.einsum(subscripts, a, u, v)


def contract_full(a: Hyper3, x: Vec3, y: Vec3, z: Vec3) -> float:
    """The scalar x_i a_ijk y_j z_k (basis independent)."""
    return float(np.einsum("i,ijk,j,k->", x, a, y, z))


def inner(a: Hyper3, b: Hyper3) -> float:
    """Entrywise inner product a_ijk b_ijk."""
    return float(np.einsum("ijk,ijk->", a, b))


def prod2(a: Hyper3, b: Hyper3) -> Mat3:
    """Second-order product u_il = a_ijk b_jkl."""
    return np.einsum("ijk,jkl->il", a, b)


def prod4(a: Hyper3, b: Hyper3) -> Quad3:
    """Fourth-order product t_ijkl = a_ijm b_mkl."""
    return np.einsum("ijm,mkl->ijkl", a, b)


def outer(x: Vec3, y: Vec3, z: Vec3) -> Hyper3:
    """Rank-one tensor a_ijk = x_i y_j z_k."""
    return np.einsum("i,j,k->ijk", x, y, z)


def outer_mv(u: Mat3, z: Vec3) -> Hyper3:
    """Tensor a_ijk = u_ij z_k."""
    return np.einsum("ij,k->ijk", u, z)


def outer_vm(x: Vec3, v: Mat3) -> Hyper3:
    """Tensor a_ijk = x_i v_jk."""
    return np.einsum("i,jk->ijk", x, v)


def transpose(a: Hyper3) -> Hyper3:
    """The unique tensor B with x A y z = y B z x for all vectors.

    Entrywise b[i, j, k] = a[k, i, j]; applying it three times is the
    identity, bitwise (the entries are only permuted).
    """
    return np.ascontiguousarray(np.transpose(a, (1, 2, 0)))


def _check_rotation(p: Mat3, tol: float) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if not is_orthogonal(p, tol):
        residual = float(np.linalg.norm(p @ p.T - np.eye(3)))
        raise NotOrthogonal(f"||P P^T - I|| = {residual:.3e} exceeds {tol:.1e}")
    return p


def rotate(a: Hyper3, p: Mat3, tol: float = 1e-10) -> Hyper3:
    """Orthonormal change of basis a'_ijk = p_iq p_jr p_ks a_qrs."""
    p = _check_rotation(p, tol)
    return np.einsum("iq,jr,ks,qrs->ijk", p, p, p, a)


def rotate_mat(u: Mat3, p: Mat3, tol: float = 1e-10) -> Mat3:
    """Change of basis for a second-order tensor: P U P^T."""
    p = _check_rotation(p, tol)
    return p @ np.asarray(u, dtype=float) @ p.T


def rotate_vec(x: Vec3, p: Mat3, tol: float = 1e-10) -> Vec3:
    """Change of basis for a first-order tensor: P x."""
    p = _check_rotation(p, tol)
    return p @ np.asarray(x, dtype=float)


def _pow2_scale(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """``arr`` scaled by a power of two (exact) to a largest magnitude in
    [0.5, 1), and the exponent e with arr = ldexp(scaled, e); a zero
    array comes back unchanged with e = 0."""
    _, exp = np.frexp(np.abs(arr).max())
    return np.ldexp(arr, -exp), int(exp)


def _det3(m: np.ndarray) -> float:
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _orthonormal_columns(sample: np.ndarray) -> np.ndarray | None:
    """Modified Gram-Schmidt on columns; None if the sample is too degenerate."""
    q = np.array(sample, dtype=float)
    for pass_ in range(2):  # second pass tightens orthogonality to ~1e-16
        for j in range(3):
            for i in range(j):
                q[:, j] -= (q[:, i] @ q[:, j]) * q[:, i]
            n = float(np.linalg.norm(q[:, j]))
            if n < 1e-8:
                return None
            q[:, j] /= n
    return q


def random_rotation(seed: int) -> Mat3:
    """Deterministic proper rotation (det = +1) from a seeded Gaussian sample."""
    rng = np.random.default_rng(seed)
    while True:
        q = _orthonormal_columns(rng.standard_normal((3, 3)))
        if q is not None:
            break
    if _det3(q) < 0.0:
        q[:, 2] = -q[:, 2]
    return mat3(q)


def _build_levi_civita() -> Hyper3:
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[1, 0, 2] = eps[2, 1, 0] = eps[0, 2, 1] = -1.0
    eps.setflags(write=False)
    return eps


_LEVI_CIVITA = _build_levi_civita()


def levi_civita() -> Hyper3:
    """The permutation hypermatrix: +1 on even index triples, -1 on odd."""
    return _LEVI_CIVITA
