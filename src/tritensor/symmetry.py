"""Symmetry classification of 3x3x3 hypermatrices and class fixtures.

``_SWAPS`` states the index swaps that define the classes once; the
flags, the selective index sets and the pair averages derive from it.
Each symmetry flag is an entrywise condition checked within tol * ||a||
(Frobenius norm) on the tensor scaled by a power of two (the record of
``core._tensor``), so the verdicts do not depend on the tensor's scale
anywhere in the float64 range.
``make_fixture`` builds a deterministic nonzero member of any class in
``_PROJECTIONS`` or ``_FRAMED`` for testing.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import permutations
from typing import NamedTuple

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


class SymmetryReport(NamedTuple):
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

    as_dict = core._as_dict


# The index swaps that define the classes, as axis permutations: ``a`` is
# symmetric (antisymmetric) under a swap when a = a.transpose(p) (= -...).
_SWAPS = {"right": (0, 2, 1), "left": (1, 0, 2), "central": (2, 1, 0), "cyclic": (1, 2, 0)}
_PAIR_SWAPS = ("right", "left", "central")
# per pair swap: the axis permutation p that moves its pair of slots last,
# so that a.transpose(p) is right-side symmetric when a is symmetric under it
_PAIR_LAST = {"right": (0, 1, 2), "left": (2, 0, 1), "central": (1, 2, 0)}


@cache
def _gather(names: tuple[str, ...]) -> np.ndarray:
    """One row per named swap: flat a.transpose(_SWAPS[name]) = flat a[row]."""
    return np.stack([np.arange(27).reshape(3, 3, 3).transpose(_SWAPS[n]).ravel() for n in names])


# The selective conditions compare only entries whose three indices are
# distinct, each swapped pair once, at its smaller flat index.
_DISTINCT = [9 * i + 3 * j + k for i, j, k in permutations(range(3))]
_SELECTIVE = {
    name: [n for n in _DISTINCT if n < _gather((name,))[0, n]] for name in ("right", "left")
}
# classify's deviations, one row each, as |a - a.flat[row]| with a.flat
# extended by -a: |a - swap| for every swap, |a + swap| = |a - (-swap)| for
# the pair swaps, then |a - swap| at the selective entries of the right
# and left swaps (|a - a| = 0 elsewhere)
_SIGNS = np.array([[1.0], [-1.0]])
_FLAG_ROWS = np.concatenate((
    _gather(tuple(_SWAPS)),
    27 + _gather(_PAIR_SWAPS),
    [[_gather((n,))[0, i] if i in _SELECTIVE[n] else i for i in range(27)] for n in _SELECTIVE],
))


def _swap_deviations(a: np.ndarray, *names: str) -> np.ndarray:
    """max |a - a.transpose(swap)| per named swap, for the scaled tensor ``a``:
    classify(a, tol) finds ``a`` symmetric under a swap when its deviation
    is within tol * ||a||."""
    flat = a.reshape(27)
    return np.abs(flat - flat.take(_gather(names))).max(axis=1)


def _swap_symmetric(a: core.Hyper3, tol: float, *names: str) -> bool:
    """classify(a, tol)'s verdict that ``a`` is symmetric under every named swap."""
    tensor = core._tensor(a)
    return bool((_swap_deviations(tensor.a, *names) <= tol * tensor.norm).all())


def classify(a: core.Hyper3, tol: float = 1e-10) -> SymmetryReport:
    """Classify ``a`` against every symmetry class.

    Primitive flags are entrywise comparisons within tol * ||a||.
    Derived flags: partially_symmetric is the disjunction of the three
    one-pair symmetries, symmetric their conjunction, totally_anti the
    conjunction of the three anti flags.  The selective flags restrict the
    right/left conditions to index triples with all positions distinct, so
    unlike the other flags they are not preserved by a change of basis.
    Raises ValueError unless ``a`` is a finite 3x3x3 array.
    """
    tol = core._tolerance(tol)
    tensor = core._tensor(a)
    flat, bound = tensor.a.reshape(27), tol * tensor.norm
    dev = np.abs(flat - (_SIGNS * flat).take(_FLAG_ROWS))
    flags = (dev.max(axis=1) <= bound).tolist()
    right, left, central, cyclic, right_anti, left_anti, central_anti, sel_right, sel_left = flags
    r = flat.tolist()  # the traces a_ijj, summed as einsum("ijj->i") sums them
    traceless = max(abs(r[i] + r[i + 4] + r[i + 8]) for i in (0, 9, 18)) <= bound

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
    Raises ValueError unless ``a`` is a finite 3x3x3 array.
    """
    tol = core._tolerance(tol)
    tensor = core._tensor(a)
    bound = tol * tensor.norm
    eps = core.levi_civita()
    right = float(np.abs(np.diagonal(core.prod2(tensor.a, eps))).max()) <= bound
    left = float(np.abs(np.diagonal(core.prod2(eps, tensor.a))).max()) <= bound
    return right, left


def _symmetrize_all(a: np.ndarray) -> np.ndarray:
    return sum(np.transpose(a, p) for p in permutations(range(3))) / 6.0


def _cyclic_average(a: np.ndarray) -> np.ndarray:
    return (a + core.transpose(a) + core.transpose(core.transpose(a))) / 3.0


def _pair_average(a: np.ndarray, name: str, op) -> np.ndarray:
    """0.5 (a + swap) for op np.add, 0.5 (a - swap) for np.subtract."""
    return 0.5 * op(a, a.transpose(_SWAPS[name]))


def _selective_average(a: np.ndarray, name: str) -> np.ndarray:
    """``a`` with each selective entry and its ``name``-swapped partner averaged."""
    flat, swap = a.flatten(), _gather((name,))[0]
    for n in _SELECTIVE[name]:
        flat[n] = flat[swap[n]] = 0.5 * (flat[n] + flat[swap[n]])
    return flat.reshape(3, 3, 3)


def _levi_civita_part(a: np.ndarray) -> np.ndarray:
    # full signed antisymmetrization collapses to a multiple of the
    # Levi-Civita tensor; a multiple below 1e-3 is replaced by 1
    coeff = core.inner(a, core.levi_civita()) / 6.0
    if abs(coeff) < 1e-3:
        coeff = 1.0
    return coeff * np.array(core.levi_civita())


def _traceless_symmetric(a: np.ndarray) -> np.ndarray:
    s = _symmetrize_all(a)
    # t_i d_jk + t_j d_ik + t_k d_ij, t_i = s_ijj: the first term and its
    # left and central swaps
    first = np.einsum("i,jk->ijk", np.einsum("ijj->i", s), np.eye(3))
    corr = first + first.transpose(_SWAPS["left"]) + first.transpose(_SWAPS["central"])
    return s - corr / 5.0


# class -> its projection of a Gaussian draw, in the order fixtures are listed
_PROJECTIONS = {
    "right_symmetric": partial(_pair_average, name="right", op=np.add),
    "left_symmetric": partial(_pair_average, name="left", op=np.add),
    "centrally_symmetric": partial(_pair_average, name="central", op=np.add),
    "symmetric": _symmetrize_all,
    "cyclically_symmetric": _cyclic_average,
    "right_anti": partial(_pair_average, name="right", op=np.subtract),
    "left_anti": partial(_pair_average, name="left", op=np.subtract),
    "centrally_anti": partial(_pair_average, name="central", op=np.subtract),
    "totally_anti": _levi_civita_part,
    "traceless": _traceless_symmetric,
    "selectively_right": partial(_selective_average, name="right"),
    "selectively_left": partial(_selective_average, name="left"),
}


def _padded(values: np.ndarray, floor: float) -> np.ndarray:
    """Push coefficients away from zero so fixtures stay well scaled."""
    return values + np.where(values < 0.0, -floor, floor)


def _eigenframe_cubes(frame: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    lam = _padded(rng.standard_normal(3), 0.5)
    return sum(lam[i] * core.outer(frame[:, i], frame[:, i], frame[:, i]) for i in range(3))


def _cyclic_orbit(frame: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    q1, q2, q3 = frame.T
    lam = float(_padded(rng.standard_normal(1), 0.5)[0])
    return lam * (core.outer(q1, q2, q3) + core.outer(q2, q3, q1) + core.outer(q3, q1, q2))


# classes built from a random orthonormal frame and further draws
_FRAMED = {
    "primarily_symmetric": _eigenframe_cubes,
    "primarily_cyclically_symmetric": _cyclic_orbit,
}
FIXTURE_CLASSES = (*_PROJECTIONS, *_FRAMED)


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
    if klass in _FRAMED:
        return core.hyper3(_FRAMED[klass](core._random_frame(rng), rng))
    while True:
        out = _PROJECTIONS[klass](rng.standard_normal((3, 3, 3)))
        if float(np.linalg.norm(out)) > 1e-6:
            return core.hyper3(out)
