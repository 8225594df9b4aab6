"""Kernel tensor, L-eigenvalues, L-inverse, eigenvector decompositions
and the seven kernel-trace invariants.

The L-eigenvalue pairs A V = sigma x, A^T x = sigma V are the singular
triples of the 3x9 unfolding; their sigma^2 are the eigenvalues of the
kernel ``U = A A^T``.  L-eigenvalues, rank, null space and L-inverse
come from one SVD of the unfolding, never from the squared kernel, so
sigma_3 stays accurate far beyond sigma_1/sigma_3 = 1e8 and at any
representable norm.  That SVD, like the invariants and ``kernel_triple``,
is taken on the tensor scaled by a power of two that the record of
``core._tensor`` holds, and is kept in that record's memo, so the layers
called in turn on one tensor share one scaling and one SVD.  The kernel
itself keeps the Gram route's limits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import core
from .errors import NotPartiallySymmetric, NotSymmetric, SingularTensor
from .symmetry import _PAIR_LAST, _gather, _swap_symmetric

__all__ = [
    "LEigenSystem",
    "KernelTriple",
    "EigDecomposition3",
    "InvariantSet",
    "sym_eig3",
    "kernel",
    "kernel_triple",
    "unfold",
    "fold",
    "l_eigen",
    "rank_and_nullspace",
    "l_inverse",
    "recover",
    "is_orthogonal_tensor",
    "eig_decompose_partial",
    "invariants",
]

# Relative cutoff below which an L-eigenvalue counts as zero, so its
# eigentensor need not inherit the tensor's partial symmetry.
_SIGMA_FLOOR = 1e-12


class LEigenSystem(NamedTuple):
    """Three L-eigenvalues with paired L-eigenvectors and L-eigentensors.

    ``sigma`` is descending and nonnegative, ``x[j]`` is the j-th unit
    L-eigenvector and ``V[j]`` the j-th unit L-eigentensor, satisfying
    A V_j = sigma_j x_j and A^T x_j = sigma_j V_j.  Each x_j has its
    largest-magnitude component positive and V_j carries the same sign.
    At (numerically) zero L-eigenvalues the eigentensors are right
    singular vectors of the unfolding, orthonormal to the rest; they
    satisfy A V_j = 0 (to rounding) but are otherwise arbitrary, though
    deterministic.
    """

    sigma: np.ndarray  # (3,)
    x: np.ndarray  # (3, 3), rows are eigenvectors
    V: np.ndarray  # (3, 3, 3), V[j] is a Mat3

    as_dict = core._as_dict


class KernelTriple(NamedTuple):
    """Kernel tensors of A, A^T and (A^T)^T (the three mode Grams)."""

    u: np.ndarray
    u_bar: np.ndarray
    u_hat: np.ndarray


class InvariantSet(NamedTuple):
    """Traces of powers of the three kernel tensors; all rotation invariant."""

    trU: float
    trU2: float
    trU3: float
    trUbar2: float
    trUbar3: float
    trUhat2: float
    trUhat3: float

    as_dict = core._as_dict


class EigDecomposition3(NamedTuple):
    """Eigenvector decomposition of a partially symmetric tensor.

    For side "right" the reconstruction is
    sum_jk sigma_j lambda_jk x_j (x) y_jk (x) y_jk, with the factors
    permuted cyclically for the "left" and "central" sides.
    """

    side: str
    sigma: np.ndarray  # (3,)
    lam: np.ndarray  # (3, 3), lam[j, k]
    x: np.ndarray  # (3, 3), rows
    y: np.ndarray  # (3, 3, 3), y[j, k] is a Vec3

    def reconstruct(self) -> core.Hyper3:
        if self.side == "right":
            return np.einsum("j,jk,ja,jkb,jkc->abc", self.sigma, self.lam, self.x, self.y, self.y)
        if self.side == "left":
            return np.einsum("j,jk,jka,jkb,jc->abc", self.sigma, self.lam, self.y, self.y, self.x)
        return np.einsum("j,jk,jka,jb,jkc->abc", self.sigma, self.lam, self.y, self.x, self.y)

    def as_dict(self) -> dict:  # lam is "lambda" in the output
        return {"lambda" if k == "lam" else k: v for k, v in core._as_dict(self).items()}


def _lead_signs(rows: np.ndarray) -> np.ndarray:
    """Per row of ``rows``, the sign (+-1.0) that makes its largest-magnitude
    component positive; the first such component decides a tie."""
    lead = rows[np.arange(len(rows)), np.abs(rows).argmax(axis=1)]
    return np.where(lead < 0.0, -1.0, 1.0)


def sym_eig3(u: core.Mat3, tol: float = 1e-8):
    """Eigendecomposition of a symmetric 3x3 matrix (LAPACK ``eigh``).

    Returns (eigenvalues descending, eigenvector matrix with matching
    columns).  Signs are fixed so each eigenvector's largest-magnitude
    component is positive, making the output deterministic.  Raises
    NotSymmetric when max |U - U^T| exceeds tol * ||U||; the check and
    ``eigh`` run on U scaled by a power of two (exact), so both are
    scale-free.  Raises Unrepresentable where the largest |eigenvalue|
    is nonzero and not a normal float64 (smaller ones may round), and
    ValueError unless ``u`` is a finite 3x3 matrix.
    """
    tol = core._tolerance(tol)
    u, exp = core._scaled(u, "Mat3")
    if float(np.abs(u - u.T).max()) > tol * core._frobenius(u):
        raise NotSymmetric(f"matrix asymmetry exceeds {tol:.1e} * ||U||")
    vals, vecs = np.linalg.eigh(0.5 * (u + u.T))
    vecs = vecs[:, ::-1]
    return core._rescaled_array(vals[::-1], exp, "largest eigenvalue"), vecs * _lead_signs(vecs.T)


# flat gathers of A, A^T, (A^T)^T and A again: kernel n is the product of
# row n as a 3x9 matrix and row n + 1 as a 9x3 one
_CYCLIC = _gather(("cyclic",))[0]
_CHAIN = np.stack((np.arange(27), _CYCLIC, _CYCLIC[_CYCLIC], np.arange(27)))


def _kernels(a: np.ndarray) -> np.ndarray:
    """The kernels of A, A^T and (A^T)^T stacked, for a 3x3x3 array ``a``:
    the products prod2(a, transpose(a)) and so on, summed in the same order."""
    chain = a.reshape(27).take(_CHAIN)
    return np.einsum("nij,njl->nil", chain[:3].reshape(3, 3, 9), chain[1:].reshape(3, 9, 3))


def kernel(a: core.Hyper3) -> core.Mat3:
    """Kernel tensor U = A A^T, symmetric positive semi-definite.

    Raises ValueError unless ``a`` is a finite 3x3x3 array."""
    flat = core._finite(a, "Hyper3").reshape(27)
    return np.einsum("ij,jl->il", flat.reshape(3, 9), flat.take(_CYCLIC).reshape(9, 3))


def kernel_triple(a: core.Hyper3) -> KernelTriple:
    """Kernels of A, A^T and (A^T)^T; all three share trace A . A.

    They are taken on the tensor scaled by a power of two and scaled back
    exactly by 2^(2 exp).  Raises Unrepresentable where the largest
    |entry| of the three is nonzero and not a normal float64 (smaller
    entries may round), and ValueError unless ``a`` is a finite 3x3x3
    array."""
    tensor = core._tensor(a)
    kernels = core._rescaled_array(_kernels(tensor.a), 2 * tensor.exp, "kernel")
    return KernelTriple(*core._read_only(kernels))


def invariants(a: core.Hyper3) -> InvariantSet:
    """The seven rotation invariants from the kernel triple.

    tr(U) = tr(U_bar) = tr(U_hat) = A . A, so the first trace is reported
    once; the squared and cubed traces of all three kernels complete the
    set.  Cyclically symmetric tensors have all three kernels equal.  The
    traces are taken on the tensor scaled by a power of two and scaled
    back exactly by their degree 2, 4 or 6; Unrepresentable is raised
    when a nonzero trace would under- or overflow float64.  Raises
    ValueError unless ``a`` is a finite 3x3x3 array.
    """
    tensor = core._tensor(a)
    u1 = _kernels(tensor.a)
    u2 = u1 @ u1
    tr3 = np.einsum("kij,kji->k", u2, u1).tolist()
    # diagonals summed in order, as np.trace and einsum("kii->k") sum them
    d1, d2 = u1[0].reshape(9).tolist(), u2.reshape(27).tolist()
    tr2 = [d2[i] + d2[i + 4] + d2[i + 8] for i in (0, 9, 18)]
    traces = (d1[0] + d1[4] + d1[8], tr2[0], tr3[0], tr2[1], tr3[1], tr2[2], tr3[2])
    degrees = (2, 4, 6, 4, 6, 4, 6)
    return InvariantSet(*(core._rescaled(t, d * tensor.exp, "invariant")
                          for t, d in zip(traces, degrees)))


def unfold(a: core.Hyper3) -> np.ndarray:
    """3x9 matrix with row i and columns (j,k) in order (1,1),(1,2),...,(3,3).
    Raises ValueError unless ``a`` is a finite 3x3x3 array."""
    return core._finite(a, "Hyper3").reshape(3, 9).copy()


def fold(m: np.ndarray) -> core.Hyper3:
    """Inverse of :func:`unfold`; exact (a pure reindexing).
    Raises ValueError unless ``m`` is a finite 3x9 array."""
    return core._finite(m, "Unfolding").reshape(3, 3, 3).copy()


def _unfolding_svd(a: core.Hyper3) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """sigma of the unfolding scaled by 2^-exp, sign-canonical x (rows),
    the 9x9 right factor of the unfolding's SVD, whose rows 0..2 are
    flipped with x so row j is V_j, and exp.  The tensor's own sigma is
    ldexp(sigma, exp), which can leave the float64 range, so each public
    exit takes it back to scale through ``core._rescaled_array``.

    The SVD is taken on the scaled tensor of ``core._tensor``, whose
    largest entry lies in [0.5, 1), so sigma_j = ||x_j^T M|| neither
    under- nor overflows; the clamp keeps sigma non-increasing where
    rounding reorders near-equal values.  It is kept in the tensor's
    memo, so consecutive calls on the same contents share one SVD.  Its
    arrays are read-only, and no public function returns one of them.
    """
    tensor = core._tensor(a)
    if "svd" not in tensor.memo:
        m = tensor.a.reshape(3, 9)
        u, _, vt = np.linalg.svd(m, full_matrices=True)
        signs = _lead_signs(u.T)
        x = u.T * signs[:, None]
        vt[:3] *= signs[:, None]
        y = x @ m
        # the row norms as np.linalg.norm(y, axis=1) takes them, bit for bit
        sigma = np.minimum.accumulate(np.sqrt((y * y).sum(axis=1)))
        for arr in (sigma, x, vt):
            arr.setflags(write=False)
        tensor.memo.setdefault("svd", (sigma, x, vt, tensor.exp))
    return tensor.memo["svd"]


def _l_system(a, floor: float = core._TINY) -> LEigenSystem:
    """The L-eigensystem of the :func:`_unfolding_svd` of ``a``, in new
    read-only arrays, with sigma at the tensor's scale (rounded where it
    leaves the normal float64 range).  Raises Unrepresentable, before any
    ``np.ldexp``, where a nonzero sigma_1 overflows or falls below
    ``floor``."""
    sigma, x, vt, exp = _unfolding_svd(a)
    sigma = core._rescaled_array(sigma, exp, "largest L-eigenvalue", floor)
    sigma.setflags(write=False)
    return LEigenSystem(sigma, core._read_only(x), core._read_only(vt[:3].reshape(3, 3, 3)))


def l_eigen(a: core.Hyper3) -> LEigenSystem:
    """L-eigenvalue decomposition A = sum_j sigma_j x_j (x) V_j.

    The triples are the singular triples of the 3x9 unfolding, so they
    satisfy A V_j = sigma_j x_j and A^T x_j = sigma_j V_j directly; the
    kernel A A^T is never formed.  Raises Unrepresentable where a nonzero
    sigma_1 is not a normal float64; a smaller sigma_j may round.
    """
    return _l_system(a)


def rank_and_nullspace(a: core.Hyper3, tol: float = 1e-10):
    """Rank of ``a`` and an orthonormal basis of its null space.

    The null space is the set of matrices V with A V = 0; its dimension is
    9 - rank, never below 6.  The rank counts the sigma_j above
    tol * sigma_1, taken on the tensor scaled by a power of two so that
    it does not depend on the scale, and the basis is the remaining
    right singular vectors of the unfolding, each sign-canonical.  Each
    basis element N satisfies ||contract_mat(a, N, "right")|| <= tol * ||a||.
    """
    tol = core._tolerance(tol)
    sigma, _, vt, _ = _unfolding_svd(a)
    rank = int(np.count_nonzero(sigma > tol * sigma[0]))
    null = vt[rank:] * _lead_signs(vt[rank:])[:, None]
    return rank, list(null.reshape(-1, 3, 3))


def l_inverse(a: core.Hyper3, tol: float = 1e-10) -> core.Hyper3:
    """L-inverse B = sum_j V_j (x) x_j / sigma_j of a nonsingular tensor.

    Satisfies prod2(a, B) = I together with the fourth-order product
    identity B (+) A = A^T (+) (B^T)^T; those two conditions pin B
    uniquely as the first-two-index fold of the Moore-Penrose inverse of
    unfold(a).  Raises SingularTensor when sigma_3 <= tol * sigma_1.

    Because the product contracts the left factor's last two indices
    against the right factor's first two, inversion swaps which unfolding
    carries the Moore-Penrose structure; applying this function twice is
    therefore not the identity.  The original tensor is recovered from
    B = l_inverse(a) by the transpose-conjugated mirror
    transpose(transpose(l_inverse(transpose(transpose(B))))).
    Raises Unrepresentable where the largest |B_ijk| is not a normal
    float64; smaller entries may round.
    """
    tol = core._tolerance(tol)
    sigma, x, vt, exp = _unfolding_svd(a)
    s1, s3 = float(sigma[0]), float(sigma[2])
    if s1 <= 0.0 or s3 <= tol * s1:
        ratio = s3 / s1 if s1 > 0.0 else 0.0
        raise SingularTensor(
            f"tensor is singular: sigma3/sigma1 = {ratio:.3e} <= {tol:.1e}"
        )
    v = vt[:3].reshape(3, 3, 3)
    # b unfolds to the pseudo-inverse of the scaled unfolding, so its largest
    # entry lies in [1 / (sqrt(27) sigma_3), 1 / sigma_3], within [2^(e-4), 2^e)
    # for 1 / sigma_3 in [2^(e-1), 2^e).  Where that bracket, scaled by
    # 2^-exp, lies in the normal range, the three reciprocals are scaled
    # before the sum: the bits of scaling its 27 entries after, unless a
    # term of the sum falls below the normal range, which may move an entry
    # by about an ulp of the largest
    if -1018 <= math.frexp(1.0 / s3)[1] - exp <= 1023:
        return np.einsum("n,nij,nk->ijk", np.ldexp(1.0 / sigma, -exp), v, x)
    b = np.einsum("n,nij,nk->ijk", 1.0 / sigma, v, x)
    return core._rescaled_array(b, -exp, "largest L-inverse entry")


def recover(v: core.Mat3, a_inv: core.Hyper3) -> core.Vec3:
    """Recover x from V = x A given the L-inverse of A (x = V A^-1).
    Raises ValueError unless ``v`` and ``a_inv`` are finite 3x3 and 3x3x3."""
    return core.contract_mat(core._finite(a_inv, "Hyper3"), core._finite(v, "Mat3"), "left")


def is_orthogonal_tensor(a: core.Hyper3, tol: float = 1e-10) -> bool:
    """True when the kernel A A^T is the identity within tol (Frobenius).

    Raises ValueError unless ``a`` is a finite 3x3x3 array."""
    return core._frobenius(kernel(a) - core._EYE3) <= core._tolerance(tol)


# side -> the class it requires
_SIDES = {"right": "right_symmetric", "left": "left_symmetric", "central": "centrally_symmetric"}


def eig_decompose_partial(
    a: core.Hyper3, side: str = "right", tol: float = 1e-8
) -> EigDecomposition3:
    """Eigenvector decomposition of a partially symmetric tensor.

    For the "right" side the eigentensors at positive L-eigenvalues are
    symmetric, so each splits into an orthonormal eigenframe y_jk with
    weights lambda_jk.  The "left" and "central" sides reuse the right
    procedure on (A^T)^T and A^T respectively and permute the factors.
    Eigentensor asymmetry above 1e-6 raises, since it signals that the
    claimed symmetry does not actually hold.  Raises Unrepresentable where
    sigma_1 overflows float64; a subnormal sigma is returned rounded, as
    it is.
    """
    if side not in _SIDES:
        raise ValueError(f"side must be one of {sorted(_SIDES)}, got {side!r}")
    klass = _SIDES[side]
    if not _swap_symmetric(a, core._tolerance(tol), side):
        raise NotPartiallySymmetric(f"tensor is not {klass} within {tol:.1e}")
    sys = _l_system(np.transpose(a, _PAIR_LAST[side]), floor=0.0)
    floor = _SIGMA_FLOOR * sys.sigma[0]
    for j, v in enumerate(sys.V):
        asym = float(np.abs(v - v.T).max())
        if sys.sigma[j] > floor and asym > 1e-6:
            raise NotPartiallySymmetric(
                f"eigentensor {j + 1} asymmetry {asym:.3e} exceeds 1e-6; "
                f"input is not {klass} enough"
            )
    lam, cols = zip(*(sym_eig3(0.5 * (v + v.T)) for v in sys.V))
    y = core._read_only([c.T for c in cols])  # y[j, k] is column k of frame j
    return EigDecomposition3(side=side, sigma=sys.sigma, lam=core._read_only(lam), x=sys.x,
                             y=y)
