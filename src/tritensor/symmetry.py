"""Symmetry classification of 3x3x3 hypermatrices and class fixtures.

Each symmetry flag is an entrywise condition checked within tol * ||a||
(Frobenius norm) on the tensor scaled by a power of two, so the verdicts
do not depend on the tensor's scale anywhere in the float64 range.
``make_fixture`` builds a deterministic nonzero member of any primitive
class for testing.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from itertools import permutations

import numpy as np

from . import core
from .errors import UnsupportedClass

__all__ = [
    "SymmetryReport",
    "FIXTURE_CLASSES",
    "classify",
    "selective_symmetry_via_levi_civita",
    "make_fixture",
]


@dataclass(frozen=True)
class SymmetryReport:
    """Boolean classification of one tensor against every symmetry class."""

    right_symmetric: bool
    left_symmetric: bool
    centrally_symmetric: bool
    partially_symmetric: bool
    symmetric: bool
    cyclically_symmetric: bool
    right_anti: bool
    left_anti: bool
    centrally_anti: bool
    totally_anti: bool
    traceless: bool
    selectively_right: bool
    selectively_left: bool
    tol: float

    def as_dict(self) -> dict:
        return asdict(self)


# Index triples (0-based) whose swap defines the selective conditions:
# all three positions distinct, one representative per unordered pair.
_SELECTIVE_RIGHT_TRIPLES = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
_SELECTIVE_LEFT_TRIPLES = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def _selective_right_dev(a: np.ndarray) -> float:
    return max(abs(float(a[i, j, k] - a[i, k, j])) for i, j, k in _SELECTIVE_RIGHT_TRIPLES)


def _selective_left_dev(a: np.ndarray) -> float:
    return max(abs(float(a[i, j, k] - a[j, i, k])) for i, j, k in _SELECTIVE_LEFT_TRIPLES)


def _scaled_with_bound(a: core.Hyper3, tol: float) -> tuple[np.ndarray, float]:
    """``a`` scaled by a power of two (exact) to a largest entry in [0.5, 1),
    where its norm can neither under- nor overflow, and tol * ||a|| there."""
    a, _ = core._pow2_scale(np.asarray(a, dtype=float))
    return a, tol * float(np.linalg.norm(a))


def classify(a: core.Hyper3, tol: float = 1e-10) -> SymmetryReport:
    """Classify ``a`` against every symmetry class.

    Primitive flags are entrywise comparisons within tol * ||a||.
    Derived flags: partially_symmetric is the disjunction of the three
    one-pair symmetries, symmetric their conjunction, totally_anti the
    conjunction of the three anti flags.  The selective flags restrict the
    right/left conditions to index triples with all positions distinct, so
    unlike the other flags they are not preserved by a change of basis.
    """
    a, bound = _scaled_with_bound(a, tol)
    # the right, left and central swaps, then the cyclic transpose
    swaps = np.stack(
        (a.transpose(0, 2, 1), a.transpose(1, 0, 2), a.transpose(2, 1, 0), core.transpose(a))
    )
    right, left, central, cyclic = (np.abs(a - swaps).max(axis=(1, 2, 3)) <= bound).tolist()
    right_anti, left_anti, central_anti = (
        np.abs(a + swaps[:3]).max(axis=(1, 2, 3)) <= bound
    ).tolist()
    traceless = float(np.abs(np.einsum("ijj->i", a)).max()) <= bound
    sel_right = _selective_right_dev(a) <= bound
    sel_left = _selective_left_dev(a) <= bound

    return SymmetryReport(
        right_symmetric=right,
        left_symmetric=left,
        centrally_symmetric=central,
        partially_symmetric=right or left or central,
        symmetric=right and left and central,
        cyclically_symmetric=cyclic,
        right_anti=right_anti,
        left_anti=left_anti,
        centrally_anti=central_anti,
        totally_anti=right_anti and left_anti and central_anti,
        traceless=traceless,
        selectively_right=sel_right,
        selectively_left=sel_left,
        tol=tol,
    )


def selective_symmetry_via_levi_civita(
    a: core.Hyper3, tol: float = 1e-10
) -> tuple[bool, bool]:
    """Selective symmetry flags computed through the permutation tensor.

    The diagonal of the second-order product with the Levi-Civita tensor
    collects exactly the entry differences over all-distinct index
    triples, so ``diag(A E) = 0`` reproduces the selectively-right
    condition (and ``diag(E A) = 0`` the selectively-left one) entry for
    entry.  The full products vanish only under the unrestricted
    right/left symmetries; see the package notes on this distinction.
    """
    a, bound = _scaled_with_bound(a, tol)
    eps = core.levi_civita()
    right = float(np.abs(np.diagonal(core.prod2(a, eps))).max()) <= bound
    left = float(np.abs(np.diagonal(core.prod2(eps, a))).max()) <= bound
    return right, left


def _symmetrize_all(a: np.ndarray) -> np.ndarray:
    return sum(np.transpose(a, p) for p in permutations(range(3))) / 6.0


def _cyclic_average(a: np.ndarray) -> np.ndarray:
    return (a + core.transpose(a) + core.transpose(core.transpose(a))) / 3.0


def _average_selective(a: np.ndarray, triples, swapped) -> np.ndarray:
    out = a.copy()
    for (i, j, k) in triples:
        si, sj, sk = swapped(i, j, k)
        m = 0.5 * (out[i, j, k] + out[si, sj, sk])
        out[i, j, k] = m
        out[si, sj, sk] = m
    return out


def _traceless_symmetric(a: np.ndarray) -> np.ndarray:
    s = _symmetrize_all(a)
    t = np.einsum("ijj->i", s)
    eye = np.eye(3)
    corr = (
        np.einsum("i,jk->ijk", t, eye)
        + np.einsum("j,ik->ijk", t, eye)
        + np.einsum("k,ij->ijk", t, eye)
    )
    return s - corr / 5.0


FIXTURE_CLASSES = (
    "right_symmetric",
    "left_symmetric",
    "centrally_symmetric",
    "symmetric",
    "cyclically_symmetric",
    "right_anti",
    "left_anti",
    "centrally_anti",
    "totally_anti",
    "traceless",
    "selectively_right",
    "selectively_left",
    "primarily_symmetric",
    "primarily_cyclically_symmetric",
)


def _padded(values: np.ndarray, floor: float) -> np.ndarray:
    """Push coefficients away from zero so fixtures stay well scaled."""
    signs = np.where(values < 0.0, -1.0, 1.0)
    return values + signs * floor


def make_fixture(klass: str, seed: int) -> core.Hyper3:
    """Deterministic nonzero tensor that classifies as ``klass``.

    Supported tags are the primitive classes of :class:`SymmetryReport`
    plus ``primarily_symmetric`` (an eigenframe combination of cubes
    lambda_i x_i (x) x_i (x) x_i) and ``primarily_cyclically_symmetric``
    (a cyclic orbit of one rank-one term over an orthonormal frame).
    """
    if klass not in FIXTURE_CLASSES:
        raise UnsupportedClass(f"unknown symmetry class {klass!r}")
    rng = np.random.default_rng(seed)

    if klass == "primarily_symmetric":
        frame = core._orthonormal_columns(rng.standard_normal((3, 3)))
        while frame is None:
            frame = core._orthonormal_columns(rng.standard_normal((3, 3)))
        lam = _padded(rng.standard_normal(3), 0.5)
        out = sum(
            lam[i] * core.outer(frame[:, i], frame[:, i], frame[:, i]) for i in range(3)
        )
        return core.hyper3(out)

    if klass == "primarily_cyclically_symmetric":
        frame = core._orthonormal_columns(rng.standard_normal((3, 3)))
        while frame is None:
            frame = core._orthonormal_columns(rng.standard_normal((3, 3)))
        lam = float(_padded(rng.standard_normal(1), 0.5)[0])
        q1, q2, q3 = frame[:, 0], frame[:, 1], frame[:, 2]
        out = lam * (core.outer(q1, q2, q3) + core.outer(q2, q3, q1) + core.outer(q3, q1, q2))
        return core.hyper3(out)

    while True:
        g = rng.standard_normal((3, 3, 3))
        if klass == "right_symmetric":
            out = 0.5 * (g + g.transpose(0, 2, 1))
        elif klass == "left_symmetric":
            out = 0.5 * (g + g.transpose(1, 0, 2))
        elif klass == "centrally_symmetric":
            out = 0.5 * (g + g.transpose(2, 1, 0))
        elif klass == "symmetric":
            out = _symmetrize_all(g)
        elif klass == "cyclically_symmetric":
            out = _cyclic_average(g)
        elif klass == "right_anti":
            out = 0.5 * (g - g.transpose(0, 2, 1))
        elif klass == "left_anti":
            out = 0.5 * (g - g.transpose(1, 0, 2))
        elif klass == "centrally_anti":
            out = 0.5 * (g - g.transpose(2, 1, 0))
        elif klass == "totally_anti":
            # full signed antisymmetrization collapses to a multiple of the
            # Levi-Civita tensor
            coeff = core.inner(g, core.levi_civita()) / 6.0
            if abs(coeff) < 1e-3:
                coeff = 1.0
            out = coeff * np.array(core.levi_civita())
        elif klass == "traceless":
            out = _traceless_symmetric(g)
        elif klass == "selectively_right":
            out = _average_selective(
                g, _SELECTIVE_RIGHT_TRIPLES, lambda i, j, k: (i, k, j)
            )
        else:  # selectively_left
            out = _average_selective(
                g, _SELECTIVE_LEFT_TRIPLES, lambda i, j, k: (j, i, k)
            )
        if float(np.linalg.norm(out)) > 1e-6:
            return core.hyper3(out)
