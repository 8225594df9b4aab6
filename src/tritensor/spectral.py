"""Kernel tensor, L-eigenvalues, L-inverse and eigenvector decompositions.

The L-eigenvalue pairs A V = sigma x, A^T x = sigma V are the singular
triples of the 3x9 unfolding; their sigma^2 are the eigenvalues of the
kernel ``U = A A^T``.  L-eigenvalues, rank, null space and L-inverse
come from one SVD of the unfolding, never from the squared kernel, so
sigma_3 stays accurate far beyond sigma_1/sigma_3 = 1e8 and at any
representable norm.  The kernel itself keeps the Gram route's limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import NotPartiallySymmetric, NotSymmetric, SingularTensor
from .symmetry import classify

__all__ = [
    "LEigenSystem",
    "KernelTriple",
    "EigDecomposition3",
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
]

# Relative cutoff below which an L-eigenvalue counts as zero, so its
# eigentensor need not inherit the tensor's partial symmetry.
_SIGMA_FLOOR = 1e-12


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LEigenSystem:
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

    def as_dict(self) -> dict:
        return {
            "sigma": self.sigma.tolist(),
            "x": self.x.tolist(),
            "V": self.V.tolist(),
        }


@dataclass(frozen=True)
class KernelTriple:
    """Kernel tensors of A, A^T and (A^T)^T (the three mode Grams)."""

    u: np.ndarray
    u_bar: np.ndarray
    u_hat: np.ndarray


@dataclass(frozen=True)
class EigDecomposition3:
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

    def as_dict(self) -> dict:
        return {
            "side": self.side,
            "sigma": self.sigma.tolist(),
            "lambda": self.lam.tolist(),
            "x": self.x.tolist(),
            "y": self.y.tolist(),
        }


def _lead_signs(rows: np.ndarray) -> np.ndarray:
    """Per row of ``rows``, the sign (+-1.0) that makes its largest-magnitude
    component positive; the first such component decides a tie."""
    lead = rows[np.arange(len(rows)), np.abs(rows).argmax(axis=1)]
    return np.where(lead < 0.0, -1.0, 1.0)


def sym_eig3(u: core.Mat3, tol: float = 1e-8):
    """Eigendecomposition of a symmetric 3x3 matrix (LAPACK ``eigh``).

    Returns (eigenvalues descending, eigenvector matrix with matching
    columns).  Signs are fixed so each eigenvector's largest-magnitude
    component is positive, making the output deterministic.
    """
    u = np.asarray(u, dtype=float)
    scale = max(1.0, float(np.linalg.norm(u)))
    if float(np.abs(u - u.T).max()) > tol * scale:
        raise NotSymmetric(f"matrix asymmetry exceeds {tol:.1e} * max(1, ||U||)")
    vals, vecs = np.linalg.eigh(0.5 * (u + u.T))
    vecs = vecs[:, ::-1]
    return vals[::-1], vecs * _lead_signs(vecs.T)


def kernel(a: core.Hyper3) -> core.Mat3:
    """Kernel tensor U = A A^T, symmetric positive semi-definite."""
    return core.prod2(a, core.transpose(a))


def kernel_triple(a: core.Hyper3) -> KernelTriple:
    """Kernels of A, A^T and (A^T)^T; all three share trace A . A."""
    at = core.transpose(a)
    att = core.transpose(at)
    return KernelTriple(
        u=_frozen(core.prod2(a, at)),
        u_bar=_frozen(core.prod2(at, att)),
        u_hat=_frozen(core.prod2(att, a)),
    )


def unfold(a: core.Hyper3) -> np.ndarray:
    """3x9 matrix with row i and columns (j,k) in order (1,1),(1,2),...,(3,3)."""
    return np.asarray(a, dtype=float).reshape(3, 9).copy()


def fold(m: np.ndarray) -> core.Hyper3:
    """Inverse of :func:`unfold`; exact (a pure reindexing)."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 9):
        raise ValueError(f"expected a 3x9 matrix, got shape {m.shape}")
    return m.reshape(3, 3, 3).copy()


def _unfolding_svd(a: core.Hyper3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma, sign-canonical x (rows) and the 9x9 right factor of the
    unfolding's SVD, whose rows 0..2 are flipped with x so row j is V_j.

    The unfolding is scaled by a power of two (exact) to a largest entry
    in [0.5, 1) and sigma_j = ||x_j^T M|| is taken there, which neither
    under- nor overflows; the clamp keeps sigma non-increasing where
    rounding reorders near-equal values.
    """
    m, exp = core._pow2_scale(unfold(a))
    u, _, vt = np.linalg.svd(m, full_matrices=True)
    signs = _lead_signs(u.T)
    x = u.T * signs[:, None]
    vt[:3] *= signs[:, None]
    sigma = np.minimum.accumulate(np.linalg.norm(x @ m, axis=1))
    return np.ldexp(sigma, exp), x, vt


def l_eigen(a: core.Hyper3) -> LEigenSystem:
    """L-eigenvalue decomposition A = sum_j sigma_j x_j (x) V_j.

    The triples are the singular triples of the 3x9 unfolding, so they
    satisfy A V_j = sigma_j x_j and A^T x_j = sigma_j V_j directly; the
    kernel A A^T is never formed.
    """
    sigma, x, vt = _unfolding_svd(a)
    return LEigenSystem(sigma=_frozen(sigma), x=_frozen(x), V=_frozen(vt[:3].reshape(3, 3, 3)))


def rank_and_nullspace(a: core.Hyper3, tol: float = 1e-10):
    """Rank of ``a`` and an orthonormal basis of its null space.

    The null space is the set of matrices V with A V = 0; its dimension is
    9 - rank, never below 6.  The rank counts the sigma_j above
    tol * sigma_1, and the basis is the remaining right singular vectors
    of the unfolding, each sign-canonical.  Each basis element N
    satisfies ||contract_mat(a, N, "right")|| <= tol * ||a||.
    """
    sigma, _, vt = _unfolding_svd(a)
    rank = int(np.sum(sigma > tol * sigma[0]))
    null = vt[rank:] * _lead_signs(vt[rank:])[:, None]
    return rank, [n.reshape(3, 3) for n in null]


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
    """
    sys = l_eigen(a)
    s1, s3 = float(sys.sigma[0]), float(sys.sigma[2])
    if s1 <= 0.0 or s3 <= tol * s1:
        ratio = s3 / s1 if s1 > 0.0 else 0.0
        raise SingularTensor(
            f"tensor is singular: sigma3/sigma1 = {ratio:.3e} <= {tol:.1e}"
        )
    return np.einsum("n,nij,nk->ijk", 1.0 / sys.sigma, sys.V, sys.x)


def recover(v: core.Mat3, a_inv: core.Hyper3) -> core.Vec3:
    """Recover x from V = x A given the L-inverse of A (x = V A^-1)."""
    return core.contract_mat(a_inv, v, "left")


def is_orthogonal_tensor(a: core.Hyper3, tol: float = 1e-10) -> bool:
    """True when the kernel A A^T is the identity within tol."""
    return float(np.linalg.norm(kernel(a) - np.eye(3))) <= tol


_SIDE_FLAGS = {
    "right": "right_symmetric",
    "left": "left_symmetric",
    "central": "centrally_symmetric",
}


def eig_decompose_partial(
    a: core.Hyper3, side: str = "right", tol: float = 1e-8
) -> EigDecomposition3:
    """Eigenvector decomposition of a partially symmetric tensor.

    For the "right" side the eigentensors at positive L-eigenvalues are
    symmetric, so each splits into an orthonormal eigenframe y_jk with
    weights lambda_jk.  The "left" and "central" sides reuse the right
    procedure on (A^T)^T and A^T respectively and permute the factors.
    Eigentensor asymmetry above 1e-6 raises, since it signals that the
    claimed symmetry does not actually hold.
    """
    if side not in _SIDE_FLAGS:
        raise ValueError(f"side must be one of {sorted(_SIDE_FLAGS)}, got {side!r}")
    report = classify(a, tol)
    if not getattr(report, _SIDE_FLAGS[side]):
        raise NotPartiallySymmetric(f"tensor is not {_SIDE_FLAGS[side]} within {tol:.1e}")
    if side == "right":
        work = np.asarray(a, dtype=float)
    elif side == "left":
        work = core.transpose(core.transpose(a))
    else:
        work = core.transpose(a)
    sys = l_eigen(work)
    floor = _SIGMA_FLOOR * sys.sigma[0]
    lam = np.zeros((3, 3))
    yvecs = np.zeros((3, 3, 3))
    for j in range(3):
        v = sys.V[j]
        if sys.sigma[j] > floor:
            asym = float(np.abs(v - v.T).max())
            if asym > 1e-6:
                raise NotPartiallySymmetric(
                    f"eigentensor {j + 1} asymmetry {asym:.3e} exceeds 1e-6; "
                    f"input is not {_SIDE_FLAGS[side]} enough"
                )
        vals, cols = sym_eig3(0.5 * (v + v.T))
        lam[j] = vals
        yvecs[j] = cols.T
    return EigDecomposition3(
        side=side,
        sigma=sys.sigma,
        lam=_frozen(lam),
        x=sys.x,
        y=_frozen(yvecs),
    )
