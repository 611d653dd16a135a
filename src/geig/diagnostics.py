"""Measurement helpers: wavelet-block condition numbers, multigrid
contraction factors, and localization-decay fits.

Everything here is deterministic for a fixed input (fixed starting vectors
and seeds), so diagnostic values can be recomputed bit-identically from a
serialized decomposition.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg

from .multigrid import MgParams, energy_norm, mg
from .sparse import make_direct_solver


def condition_number(B):
    """Extremal-eigenvalue ratio of an SPD operator, from two ARPACK runs:
    the largest eigenvalue directly, the smallest by shift-invert at zero.
    Both start from the same seeded vector, so the result is reproducible.
    """
    B_sp = B.to_scipy()
    v0 = np.random.default_rng(0).standard_normal(B.nrows)
    lam_max = scipy.sparse.linalg.eigsh(B_sp, k=1, which="LA", v0=v0,
                                        return_eigenvectors=False)[0]
    lam_min = scipy.sparse.linalg.eigsh(B_sp, k=1, sigma=0.0, which="LM",
                                        v0=v0, return_eigenvectors=False)[0]
    return float(lam_max / lam_min)


def wavelet_condition_numbers(dec):
    """cond(B^(k)) for every detail level of a decomposition."""
    return {k: condition_number(dec.B[k]) for k in range(2, dec.q + 1)}


def measure_contraction(dec, params=None, level=None, cycles=8, seed=0):
    """Mean per-cycle energy-error contraction of the multigrid iteration.

    Runs ``cycles`` iterations on a seeded random right-hand side from a
    zero start and reports the geometric mean of the per-cycle energy-error
    ratios against the direct solution.
    """
    if params is None:
        params = MgParams()
    if level is None:
        level = dec.q
    A = dec.A[level]
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(A.nrows)
    zstar = make_direct_solver(A)(g)
    z = np.zeros(A.nrows)
    e0 = energy_norm(A, zstar - z)
    for _ in range(cycles):
        z = mg(level, z, g, dec, params)
    e = energy_norm(A, zstar - z)
    if e0 == 0.0:
        return 0.0
    return float((e / e0) ** (1.0 / cycles))


def decay_fit(profile, min_radius=1):
    """Least-squares slope and R^2 of log tail-energy against ball radius.

    Radii below ``min_radius`` are excluded (the zero-radius entry is the
    total energy, not a tail), as are zero tails outside the numerical
    support; needs at least three surviving points.
    """
    pts = [(n, t) for n, t in profile if t > 0.0 and n >= min_radius]
    if len(pts) < 3:
        raise ValueError("not enough positive tail energies for a fit")
    x = np.array([p[0] for p in pts], dtype=np.float64)
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = np.sum((y - fitted) ** 2)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2)
