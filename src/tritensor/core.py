"""Dense algebra for third-order tensors in three dimensions.

Under a fixed orthonormal basis a third-order tensor is represented by a
3x3x3 hypermatrix ``a[i, j, k]`` stored in C order (i slowest, k fastest);
its first- and second-order companions are plain 3-vectors and 3x3
matrices.  Constructors validate shape and finiteness and hand back
read-only arrays; every operation is a pure function of its inputs, so
values can be shared across threads without locking.

The symmetry verdicts, the invariants, the L-eigenvalues and the
variational maxima are taken on the tensor scaled by a power of two
(exact), so that they do not depend on its scale.  One memo, ``_tensor``,
keeps that scaling for the last tensor seen, keyed on its float64
contents: the scaled tensor, its exponent and norm, and a dict in which
the other layers keep what they derive from it (the unfolding's SVD, the
route of the variational maxima).  It has one entry, so a call on
another tensor evicts all of it at once.  The way back is one exit
gate: every array computed on a scaled tensor returns to scale through
``_rescaled_array`` (but for the reciprocals of ``l_inverse``'s in-range
shortcut) and every scalar through ``_rescaled``, which raise
Unrepresentable where the largest magnitude leaves the normal float64
range.
"""

from __future__ import annotations

import collections
import math
import numbers

import numpy as np

from .errors import NotOrthogonal, Unrepresentable

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

# The input contract: each type's shape, stated once; the gates take its name.
_SHAPES = {"Vec3": (3,), "Mat3": (3, 3), "Hyper3": (3, 3, 3), "Quad3": (3, 3, 3, 3)}
_SHAPES["Unfolding"] = (3, 9)  # the matrix of unfold and fold
_FLOAT64 = np.dtype(np.float64)  # tested by identity, the cheapest dtype test


def _shaped(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, not copied if it already is one;
    ValueError unless it has the shape of type ``what`` and real entries."""
    arr = np.asarray(values)
    if arr.shape != _SHAPES[what]:
        raise ValueError(f"{what} must have shape {_SHAPES[what]}, got {arr.shape}")
    if arr.dtype is not _FLOAT64:
        if arr.dtype.kind == "c":
            raise ValueError(f"{what} entries must be real, got dtype {arr.dtype}")
        arr = arr.astype(float)
    return arr


def _finite(values, what: str) -> np.ndarray:
    """``_shaped(values, what)``; ValueError on a NaN/Inf entry."""
    arr = _shaped(values, what)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite (no NaN/Inf)")
    return arr


def _scaled(values, what: str) -> tuple[np.ndarray, int]:
    """``_shaped(values, what)`` scaled by a power of two (exact) to a largest
    magnitude in [0.5, 1), and the exponent e with values = ldexp(scaled, e);
    a zero array comes back unchanged with e = 0.  A NaN or infinite entry
    makes that largest magnitude non-finite and raises ValueError."""
    arr = _shaped(values, what)
    peak = float(np.abs(arr).max())
    if not math.isfinite(peak):
        raise ValueError(f"{what} entries must be finite (no NaN/Inf)")
    exp = math.frexp(peak)[1]
    return np.ldexp(arr, -exp), exp


_Tensor = collections.namedtuple("_Tensor", "a exp norm memo")
_last = None  # the one entry of _tensor: (key, record)


def _tensor(values) -> _Tensor:
    """The record of the tensor A whose float64 bytes, read in C order
    whatever the input's memory layout, are those of ``_shaped(values,
    "Hyper3")``: ``a``, A scaled by a power of two as ``_scaled`` scales it
    (read-only), and ``exp``, with A = ldexp(a, exp); ``norm``, ||a||; and
    ``memo``, a dict in which the layers keep what they derive from ``a``
    (spectral the unfolding's SVD under "svd", varspec the route under
    "route"), each filled by setdefault.  Memoized one entry deep on those
    bytes: a call on other contents replaces the record, memo included.
    Raises ValueError as ``_scaled`` does."""
    global _last
    key = _shaped(values, "Hyper3").tobytes()
    last = _last  # one read: another thread may replace the entry
    if last is None or last[0] != key:
        a, exp = _scaled(np.frombuffer(key).reshape(3, 3, 3), "Hyper3")
        a.setflags(write=False)
        last = _last = key, _Tensor(a, exp, _frobenius(a), {})
    return last[1]


_TINY = 2.0**-1022  # the smallest normal float64


def _rescaled(value: float, exp: int, what: str, floor: float = _TINY) -> float:
    """ldexp(value, exp), the way back from ``_scaled``, as a float;
    Unrepresentable, naming the ``what``, where a nonzero result overflows
    or falls below ``floor`` (by default, leaves the normal float64 range)."""
    try:
        out = math.ldexp(value, exp)
    except OverflowError:
        out = math.inf
    if value != 0.0 and not floor <= abs(out) < math.inf:
        raise Unrepresentable(f"{what} {value:.3g} x 2^{exp} is outside the float64 range")
    return out


def _rescaled_array(values: np.ndarray, exp: int, what: str, floor: float = _TINY) -> np.ndarray:
    """ldexp(values, exp), the way back from ``_scaled`` of every array
    computed on a scaled tensor, as a new array; Unrepresentable, before
    any ``np.ldexp``, where ``_rescaled`` refuses its largest |entry|.
    Smaller entries may round."""
    # no numpy reduction: these arrays hold 27 entries at most
    _rescaled(max(map(abs, values.ravel().tolist())), exp, what, floor)
    return np.ldexp(values, exp)


def _tolerance(tol):
    """``tol`` itself, unchanged; ValueError unless it is a real number
    (not a bool), finite and > 0."""
    # the type test first: an ABC isinstance costs ~0.7 us, a call on the
    # closed-form layers ~15
    real = type(tol) is float or (isinstance(tol, numbers.Real) and not isinstance(tol, bool))
    if real and 0 < tol < math.inf:
        return tol
    raise ValueError(f"tol must be a finite real number > 0, got {tol!r}")


def _read_only(arr) -> np.ndarray:
    """A read-only float64 copy of ``arr``, in its memory order."""
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _as_dict(result) -> dict:
    """A new dict of the fields of the named tuple ``result``, in field
    order, each ndarray as nested lists; the ``as_dict`` of the result
    classes."""
    out = result._asdict()
    for key, value in out.items():
        if type(value) is np.ndarray:
            out[key] = value.tolist()
    return out


def vec3(values) -> Vec3:
    """Build a 3-vector; rejects non-finite entries."""
    return _read_only(_finite(values, "Vec3"))


def mat3(values) -> Mat3:
    """Build a 3x3 matrix; rejects non-finite entries."""
    return _read_only(_finite(values, "Mat3"))


def hyper3(values) -> Hyper3:
    """Build a 3x3x3 hypermatrix; rejects non-finite entries."""
    return _read_only(_finite(values, "Hyper3"))


def quad3(values) -> Quad3:
    """Build a 3x3x3x3 hypermatrix; rejects non-finite entries."""
    return _read_only(_finite(values, "Quad3"))


_EYE3 = _read_only(np.eye(3))


def is_symmetric(u: Mat3, tol: float = 1e-10) -> bool:
    """True if ``u`` equals its transpose within tol * ||u||, checked on
    ``u`` scaled by a power of two (exact), so the verdict is scale-free.
    Raises ValueError unless ``u`` is a finite 3x3 matrix."""
    tol = _tolerance(tol)
    u, _ = _scaled(u, "Mat3")
    return float(np.abs(u - u.T).max()) <= tol * _frobenius(u)


def _orthogonality(p: Mat3) -> tuple[np.ndarray, float]:
    """``p`` through the Mat3 shape gate, and ||P P^T - I|| (Frobenius)."""
    p = _shaped(p, "Mat3")
    return p, _frobenius(p @ p.T - _EYE3)


def is_orthogonal(p: Mat3, tol: float = 1e-10) -> bool:
    """True if ``p p^T`` is the identity within tol (Frobenius); ValueError unless 3x3."""
    return _orthogonality(p)[1] <= _tolerance(tol)


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
    tol = _tolerance(tol)
    p, residual = _orthogonality(p)
    if not residual <= tol:
        raise NotOrthogonal(f"||P P^T - I|| = {residual:.3e} exceeds {tol:.1e}")
    return p


def rotate(a: Hyper3, p: Mat3, tol: float = 1e-10) -> Hyper3:
    """Orthonormal change of basis a'_ijk = p_iq p_jr p_ks a_qrs.

    Raises ValueError unless ``a`` is a finite 3x3x3 array and ``p`` a
    3x3 one, and NotOrthogonal unless ``p`` is orthogonal within tol."""
    p = _check_rotation(p, tol)
    return np.einsum("iq,jr,ks,qrs->ijk", p, p, p, _finite(a, "Hyper3"))


def rotate_mat(u: Mat3, p: Mat3, tol: float = 1e-10) -> Mat3:
    """Change of basis for a second-order tensor: P U P^T, gated as :func:`rotate`."""
    p = _check_rotation(p, tol)
    return p @ _finite(u, "Mat3") @ p.T


def rotate_vec(x: Vec3, p: Mat3, tol: float = 1e-10) -> Vec3:
    """Change of basis for a first-order tensor: P x, gated as :func:`rotate`."""
    p = _check_rotation(p, tol)
    return p @ _finite(x, "Vec3")


def _frobenius(arr: np.ndarray) -> float:
    """``np.linalg.norm(arr)``, bit for bit: the same dot product over the
    entries in memory order, and a correctly rounded square root."""
    flat = arr.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _random_frame(rng: np.random.Generator) -> np.ndarray:
    """Modified Gram-Schmidt on the columns of the first Gaussian 3x3 draw
    of ``rng`` that is not too degenerate for it."""
    q = rng.standard_normal((3, 3))
    columns = (q[:, 0], q[:, 1], q[:, 2])  # views: each update lands in q
    for pass_ in range(2):  # second pass tightens orthogonality to ~1e-16
        for j, column in enumerate(columns):
            for earlier in columns[:j]:
                column -= earlier.dot(column) * earlier
            flat = column.ravel()  # np.linalg.norm's sqrt(x.dot(x)) on its contiguous copy
            n = math.sqrt(flat.dot(flat))
            if n < 1e-8:
                return _random_frame(rng)
            column /= n
    return q


def random_rotation(seed: int) -> Mat3:
    """Deterministic proper rotation (det = +1) from a seeded Gaussian sample."""
    q = _random_frame(np.random.default_rng(seed))
    (a, b, c), (d, e, f), (g, h, i) = q.tolist()
    # the determinant of an orthonormal q is +-1, so its sign is never in doubt
    if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) < 0.0:
        q[:, 2] = -q[:, 2]
    q.setflags(write=False)  # finite by construction, a fresh C-ordered array
    return q


# eps_ijk = (e_i x e_j)_k: +1 on even index triples, -1 on odd, 0 elsewhere
_LEVI_CIVITA = _read_only(np.cross(_EYE3[:, None], _EYE3))


def levi_civita() -> Hyper3:
    """The permutation hypermatrix: +1 on even index triples, -1 on odd."""
    return _LEVI_CIVITA
