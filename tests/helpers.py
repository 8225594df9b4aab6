"""Shared test oracles, deliberately independent of the library's own paths.

Contractions are re-derived with naive Python index loops, spectra with
numpy's LAPACK-backed SVD/eigh, and the variational maxima with a
derivative-free Fibonacci-sphere grid plus cap zooming.  None of these
share code with the implementations they check.  ``run_python`` starts
a fresh interpreter on this checkout's ``src``, for checks of what a
process imports.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a child that imports tritensor from ``SRC``;
    raises unless it exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True)


def random_hyper3(seed: int, scale: float = 1.0) -> np.ndarray:
    return scale * np.random.default_rng(seed).standard_normal((3, 3, 3))


def random_vec(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(3)


def random_mat(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((3, 3))


# ---------------------------------------------------------------------------
# naive index-loop contraction oracles

def loop_contract_one(a, v, slot):
    out = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if slot == 1:
                    out[j, k] += v[i] * a[i, j, k]
                elif slot == 2:
                    out[i, k] += a[i, j, k] * v[j]
                else:
                    out[i, j] += a[i, j, k] * v[k]
    return out


def loop_contract_mat(a, m, side):
    out = np.zeros(3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if side == "right":
                    out[i] += a[i, j, k] * m[j, k]
                else:
                    out[k] += m[i, j] * a[i, j, k]
    return out


def loop_contract_two(a, u, v, slots):
    out = np.zeros(3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                term = a[i, j, k]
                pos = {1: i, 2: j, 3: k}
                out_index = ({1, 2, 3} - set(slots)).pop()
                out[pos[out_index]] += term * u[pos[slots[0]]] * v[pos[slots[1]]]
    return out


def loop_contract_full(a, x, y, z):
    total = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                total += x[i] * a[i, j, k] * y[j] * z[k]
    return total


def loop_inner(a, b):
    total = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                total += a[i, j, k] * b[i, j, k]
    return total


def loop_prod2(a, b):
    out = np.zeros((3, 3))
    for i in range(3):
        for l in range(3):
            for j in range(3):
                for k in range(3):
                    out[i, l] += a[i, j, k] * b[j, k, l]
    return out


def loop_prod4(a, b):
    out = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    for m in range(3):
                        out[i, j, k, l] += a[i, j, m] * b[m, k, l]
    return out


# ---------------------------------------------------------------------------
# spectral oracles via LAPACK

def svd_sigma(a) -> np.ndarray:
    """Singular values of the 3x9 unfolding, descending."""
    return np.linalg.svd(np.asarray(a, dtype=float).reshape(3, 9), compute_uv=False)


def mp_residuals(a, b) -> tuple[float, float, float, float]:
    """Moore-Penrose residuals of the unfolded pair (3x9 of a, 9x3 of b)."""
    au = np.asarray(a, dtype=float).reshape(3, 9)
    bu = np.asarray(b, dtype=float).reshape(9, 3)
    return (
        float(np.abs(bu @ au @ bu - bu).max()),
        float(np.abs(au @ bu @ au - au).max()),
        float(np.abs(au @ bu - (au @ bu).T).max()),
        float(np.abs(bu @ au - (bu @ au).T).max()),
    )


# ---------------------------------------------------------------------------
# derivative-free sphere maximization (grid + cap zooming)

def fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n, dtype=float) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + 5.0**0.5) * i
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1
    )


def _tangent_basis(p: np.ndarray):
    helper = np.array([1.0, 0.0, 0.0]) if abs(p[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = np.cross(p, helper)
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(p, t1)


_DISC = None


def _disc_grid(m: int = 21) -> np.ndarray:
    global _DISC
    if _DISC is None:
        u = np.linspace(-1.0, 1.0, m)
        du, dv = np.meshgrid(u, u)
        _DISC = np.stack([du.ravel(), dv.ravel()], axis=1)
    return _DISC


def sphere_max(f, n0: int = 8192, rounds: int = 9, shrink: float = 0.35, top: int = 5):
    """Maximize f over the unit sphere; f takes an (n, 3) batch of points.

    A Fibonacci grid locates candidate caps, then each cap is resampled on
    shrinking tangent discs.  Pure sampling: no gradients, no iterations
    shared with the code under test.
    """
    points = fibonacci_sphere(n0)
    values = f(points)
    order = np.argsort(-values)
    caps = []
    for idx in order[:200]:
        p = points[idx]
        if all(float(p @ c) < 0.95 for c in caps):
            caps.append(p)
        if len(caps) >= top:
            break
    disc = _disc_grid()
    spacing = 2.0 * np.sqrt(np.pi / n0)
    best_value, best_point = -np.inf, None
    for cap in caps:
        p, radius = cap, 2.0 * spacing
        for _ in range(rounds):
            t1, t2 = _tangent_basis(p)
            trial = p[None, :] + radius * (disc[:, :1] * t1[None, :] + disc[:, 1:] * t2[None, :])
            trial /= np.linalg.norm(trial, axis=1, keepdims=True)
            vals = f(trial)
            p = trial[int(np.argmax(vals))]
            radius *= shrink
        val = float(f(p[None, :])[0])
        if val > best_value:
            best_value, best_point = val, p
    return best_value, best_point


def oracle_eta1(a) -> float:
    """max x A y z over three unit spheres, reduced to one sphere via SVD."""
    a = np.asarray(a, dtype=float)

    def f(zs):
        slices = np.einsum("ijk,rk->rij", a, zs)
        return np.linalg.svd(slices, compute_uv=False)[:, 0]

    return sphere_max(f)[0]


def oracle_mu1(a) -> float:
    """max x A y y, reduced to max_y ||A y y||."""
    a = np.asarray(a, dtype=float)

    def f(ys):
        return np.linalg.norm(np.einsum("ijk,rj,rk->ri", a, ys, ys), axis=1)

    return sphere_max(f)[0]


def oracle_nu1(a) -> float:
    """max x A x x over the unit sphere."""
    a = np.asarray(a, dtype=float)

    def f(xs):
        return np.einsum("ijk,ri,rj,rk->r", a, xs, xs, xs)

    return sphere_max(f)[0]
