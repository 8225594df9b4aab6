"""Reference values computed with numpy alone, and the output checks.

Nothing here imports tritensor.  Every reference is computed on the
tensor divided by its largest entry and scaled back, so references stay
exact where the library's own arithmetic over- or underflows.

Tolerances come from the library's documentation:
- SIG_TOL: the README says the kernel route leaves ratios
  sigma_1/sigma_3 beyond ~1e8 unresolved, so L-eigenvalues are checked
  to 1e-8 * sigma_1;
- RANK_TOL: the default ``tol`` of ``rank_and_nullspace`` and
  ``l_inverse`` (1e-10 * sigma_1), which decides rank and singularity;
- MP_TOL: the Moore-Penrose residual bound of acceptance criterion 2
  (1e-9), taken relative to the size of each residual's terms;
- INV_TOL: relative accuracy of the seven trace invariants, the same
  1e-10 (they are sums of positive terms, so they carry full relative
  precision whenever they are representable);
- DRIFT_TOL: the rotation-drift bound of acceptance criterion 4 (1e-8);
- ATTAINED_TOL: the solvers' residual bound ``_RESIDUAL_OK`` (1e-9,
  relative to max(1, ||A||)), for a solver's value against the potential
  at its own vectors.
"""

from __future__ import annotations

import math

import numpy as np

SIG_TOL = 1e-8
RANK_TOL = 1e-10
MP_TOL = 1e-9
INV_TOL = 1e-10
DRIFT_TOL = 1e-8
ATTAINED_TOL = 1e-9

# log10 of the normal float64 range; an invariant outside it is not
# representable and the library should raise instead of returning inf or 0
_LOG10_MAX = math.log10(np.finfo(float).max)
_LOG10_TINY = math.log10(np.finfo(float).tiny)

INVARIANT_KEYS = ("trU", "trU2", "trU3", "trUbar2", "trUbar3", "trUhat2", "trUhat3")


def _unfoldings(a: np.ndarray):
    """3x9 unfoldings of a, of b[i,j,k] = a[k,i,j] and of b's transpose."""
    return (
        a.reshape(3, 9),
        np.transpose(a, (1, 2, 0)).reshape(3, 9),
        np.transpose(a, (2, 0, 1)).reshape(3, 9),
    )


def _log10_trace(scale: float, sv: np.ndarray, power: int):
    """log10 of sum(sigma^(2p)) for sigma = scale * sv; None if it is zero."""
    total = float(np.sum(sv ** (2 * power)))
    if total == 0.0:
        return None
    return 2 * power * math.log10(scale) + math.log10(total)


def analyze_reference(a: np.ndarray, rot: np.ndarray) -> dict:
    """Everything the analyze checks compare against, for one tensor."""
    s = float(np.abs(a).max())
    if s == 0.0:
        return {
            "scale": 0.0, "sigma": np.zeros(3), "rank": 0, "singular": True,
            "invariants": {k: (0.0, True) for k in INVARIANT_KEYS},
            "rotated": np.zeros((3, 3, 3)),
        }
    an = a / s
    m1, m2, m3 = _unfoldings(an)
    sv1 = np.linalg.svd(m1, compute_uv=False)
    sv2 = np.linalg.svd(m2, compute_uv=False)
    sv3 = np.linalg.svd(m3, compute_uv=False)
    inv = {}
    for key, sv, p in (
        ("trU", sv1, 1), ("trU2", sv1, 2), ("trU3", sv1, 3),
        ("trUbar2", sv2, 2), ("trUbar3", sv2, 3),
        ("trUhat2", sv3, 2), ("trUhat3", sv3, 3),
    ):
        lg = _log10_trace(s, sv, p)
        if lg is None:
            inv[key] = (0.0, True)
        else:
            ok = _LOG10_TINY < lg < _LOG10_MAX
            inv[key] = (10.0**lg if ok else None, ok)
    return {
        "scale": s,
        "sigma": s * sv1,
        "rank": int(np.sum(sv1 > RANK_TOL * sv1[0])),
        "singular": bool(sv1[2] <= RANK_TOL * sv1[0]),
        "invariants": inv,
        "rotated": s * np.einsum("iq,jr,ks,qrs->ijk", rot, rot, rot, an),
    }


def check_analyze(a: np.ndarray, out: dict, ref: dict) -> str | None:
    """First failing check of one analyze item, or None when all pass.

    ``out["invariants"]`` holds the exception instead of a dict when
    ``invariants`` raised; that is the required outcome exactly when an
    invariant is not representable.
    """
    s = ref["scale"]
    sigma = np.asarray(out["sigma"], dtype=float)
    if not np.all(np.isfinite(sigma)) or (
        np.abs(sigma - ref["sigma"]).max() > SIG_TOL * ref["sigma"][0]
    ):
        return "sigma"
    if out["rank"] != ref["rank"] or out["null_dim"] != 9 - ref["rank"]:
        return "rank"
    if out["singular"] != ref["singular"]:
        return "singular_decision"
    if not ref["singular"] and mp_residual(out["inverse"], s, a) > MP_TOL:
        return "moore_penrose"
    representable = all(ok for _, ok in ref["invariants"].values())
    if isinstance(out["invariants"], Exception):
        if representable:
            return "invariants_raised"
    elif not representable:
        return "invariant_unrepresentable"
    else:
        for key in INVARIANT_KEYS:
            want = ref["invariants"][key][0]
            got = out["invariants"][key]
            if not math.isfinite(got) or abs(got - want) > INV_TOL * abs(want):
                return "invariants"
    rot = np.asarray(out["rotated"], dtype=float)
    if np.abs(rot - ref["rotated"]).max() > 27e-12 * s:
        return "rotate"
    return None


def mp_residual(b: np.ndarray, s: float, a: np.ndarray) -> float:
    """Largest relative Moore-Penrose residual of unfold(a) and b as 9x3.

    a and b are rescaled by s and 1/s first, so the residuals do not
    depend on the tensor's magnitude; each is divided by the size of the
    terms it compares.
    """
    m = np.asarray(a, dtype=float).reshape(3, 9) / s
    bm = np.asarray(b, dtype=float).reshape(9, 3) * s
    if not np.all(np.isfinite(bm)):
        return math.inf
    nm, nb = np.linalg.norm(m, 2), np.linalg.norm(bm, 2)
    mb, bmm = m @ bm, bm @ m
    return max(
        float(np.abs(mb @ m - m).max()) / nm,
        float(np.abs(bmm @ bm - bm).max()) / nb,
        float(np.abs(mb - mb.T).max()) / (nm * nb),
        float(np.abs(bmm - bmm.T).max()) / (nm * nb),
    )


def drift(value: float, reference: float) -> float:
    """Relative drift as the invariance check and criterion 4 define it."""
    return abs(value - reference) / max(1.0, abs(reference))


def attained(a: np.ndarray, triple) -> bool:
    """Whether a solver's value is the potential x A y z at its own unit
    vectors and at most sigma_1 of the unfolding.

    Such a value is a genuine lower bound on the maximum, so when two of
    them differ, the lower one is a missed maximum, not a wrong number.
    """
    a = np.asarray(a, dtype=float)
    tol = ATTAINED_TOL * max(1.0, float(np.linalg.norm(a)))
    vecs = [np.asarray(v, dtype=float) for v in (triple.x, triple.y, triple.z)]
    if any(abs(np.linalg.norm(v) - 1.0) > ATTAINED_TOL for v in vecs):
        return False
    potential = float(np.einsum("ijk,i,j,k->", a, *vecs))
    sigma1 = float(np.linalg.svd(a.reshape(3, 9), compute_uv=False)[0])
    return abs(potential - triple.value) <= tol and triple.value <= sigma1 + tol
