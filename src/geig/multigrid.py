"""Multigrid over the adapted decomposition: V- and W-cycles with Richardson
or Gauss-Seidel smoothing, and a symmetric single-cycle preconditioner.

Two residual-restriction variants are available: "initial_residual"
restricts the residual taken at the *initial* iterate of the cycle (the
default), "presmoothed" restricts the residual after presmoothing (the
conventional choice).  The preconditioner always uses the presmoothed form
with adjoint pre/post smoothing so that its induced operator is symmetric
positive definite.

With Gauss-Seidel smoothing a cycle reads triangle products of A = L + D + U
instead of full products (see ``geig._kernels``):

- a zero initial iterate, as on every coarse level and in every
  preconditioner call, needs no product: its first sweep reads U z = 0;
- a nonzero one costs U z for the first presmoothing sweep, plus L z when
  the residual at that iterate is restricted;
- each further presmoothing sweep reads U z of the last one's iterate;
- the residual after presmoothing is g - D z - L z - U z, with L z handed
  on by the last sweep, so it costs one product, U z;
- each postsmoothing sweep reads one product of the corrected iterate, U z
  forward or L z reversed.

A triangle product or a triangular solve reads about half of a level
matrix.  A symmetric cycle with two sweeps each way from a zero start thus
reads each smoothed level matrix about four times: four triangle products
and four solves.  MC's cycle, from a nonzero start with two forward sweeps
before and after the coarse correction and the residual taken at the
initial iterate, reads it about four and a half times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import InvalidArgumentError, NonConvergenceError
from .sparse import spmv


@dataclass(frozen=True)
class MgParams:
    """Cycle shape and smoothing choices.

    m1, m2 >= 0 pre/post smoothing sweeps; p = 1 (V-cycle) or 2 (W-cycle);
    smoother is "richardson" or "gauss_seidel"; finite lambda_bound_factor >= 1
    scales the Gershgorin bound used as the Richardson step reciprocal;
    variant picks where the restricted residual is evaluated;
    symmetric_smoothing reverses the postsmoothing sweep order.
    """

    m1: int = 2
    m2: int = 2
    p: int = 1
    smoother: str = "gauss_seidel"
    lambda_bound_factor: float = 1.0
    variant: str = "initial_residual"
    symmetric_smoothing: bool = False

    def __post_init__(self):
        if self.m1 < 0 or self.m2 < 0:
            raise InvalidArgumentError("smoothing counts must be nonnegative")
        if self.p not in (1, 2):
            raise InvalidArgumentError("p must be 1 (V-cycle) or 2 (W-cycle)")
        if self.smoother not in ("richardson", "gauss_seidel"):
            raise InvalidArgumentError(f"unknown smoother {self.smoother!r}")
        if self.variant not in ("initial_residual", "presmoothed"):
            raise InvalidArgumentError(f"unknown variant {self.variant!r}")
        if not 1.0 <= self.lambda_bound_factor < np.inf:
            raise InvalidArgumentError("lambda_bound_factor must be finite and >= 1")


def estimate_lambda_bound(A, factor=1.0):
    """Gershgorin upper bound max_i sum_j |A_ij| on the spectral radius."""
    row_sums = np.zeros(A.nrows)
    np.add.at(row_sums,
              np.repeat(np.arange(A.nrows), np.diff(A.row_offsets)),
              np.abs(A.values))
    return float(row_sums.max()) * factor


def _richardson(A, z, g, lam):
    z += (g - spmv(A, z)) / lam


def _gauss_seidel_presmooth(A, z, g, sweeps, at_initial):
    """Forward Gauss-Seidel sweeps on z in place; returns the residual to
    restrict, at the initial iterate or at the presmoothed one."""
    lower, upper = A.strict_triangles()
    d = A.diagonal()
    nonzero = z.any()
    uz = upper @ z if nonzero else 0.0
    if at_initial or not sweeps:
        residual = g - d * z - uz - (lower @ z if nonzero else 0.0)
    for _ in range(sweeps):
        lz = _kernels.gauss_seidel_sweep(A, z, g, False, uz)
        uz = None
    if at_initial or not sweeps:
        return residual
    return g - d * z - lz - upper @ z


def mg(k, z0, g, dec, params):
    """One level-k multigrid iteration for A^(k) z = g.

    Level 1 is solved directly.  Above that: m1 smoothing sweeps, residual
    restriction, p recursive coarse iterations from a zero initial guess,
    prolongated correction, then m2 smoothing sweeps.
    """
    if not 1 <= k <= dec.q:
        raise InvalidArgumentError(f"level {k} out of range 1..{dec.q}")
    g = np.ascontiguousarray(g, dtype=np.float64)
    A = dec.A[k]
    if g.shape != (A.nrows,):
        raise InvalidArgumentError(
            f"rhs has shape {g.shape}, level {k} has {A.nrows} unknowns")
    if k == 1:
        return dec.coarse_solver()(g)
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.shape != (A.nrows,):
        raise InvalidArgumentError("initial guess and rhs sizes differ")
    z = z0.copy()
    at_initial = params.variant == "initial_residual"
    if params.smoother == "richardson":
        lam = dec.lambda_bound(k, params.lambda_bound_factor)
        for _ in range(params.m1):
            _richardson(A, z, g, lam)
        residual = g - spmv(A, z0 if at_initial else z)
    else:
        residual = _gauss_seidel_presmooth(A, z, g, params.m1, at_initial)
    R = dec.R[k]
    g_coarse = spmv(R, residual)
    qv = np.zeros(R.nrows)
    for _ in range(params.p):
        qv = mg(k - 1, qv, g_coarse, dec, params)
    z += R.rmatvec(qv)
    for _ in range(params.m2):
        if params.smoother == "richardson":
            _richardson(A, z, g, lam)
        else:
            _kernels.gauss_seidel_sweep(A, z, g, params.symmetric_smoothing)
    return z


def mg_solve(k, g, dec, params, tol=1e-10, max_cycles=100):
    """Repeat level-k cycles until ||g - A z|| <= tol ||g||.

    Returns (solution, cycles used).  Raises NonConvergenceError carrying
    the relative-residual history when max_cycles is exhausted.
    """
    g = np.asarray(g, dtype=np.float64)
    A = dec.A[k]
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        return np.zeros(A.nrows), 0
    z = np.zeros(A.nrows)
    history = []
    for cycle in range(1, max_cycles + 1):
        z = mg(k, z, g, dec, params)
        rel = np.linalg.norm(g - spmv(A, z)) / gnorm
        history.append(rel)
        if rel <= tol:
            return z, cycle
    raise NonConvergenceError(
        f"multigrid stalled at residual {history[-1]:.3e} after "
        f"{max_cycles} cycles (tol {tol})", history=history)


def precondition(r, dec, params=None):
    """One symmetric V-cycle on the fine level from a zero initial guess.

    Forces the conventional residual restriction and adjoint pre/post
    smoothing (equal sweep counts, reversed Gauss-Seidel order on the way
    up) so the induced operator is symmetric positive definite.
    """
    if params is None:
        params = MgParams()
    m = max(1, params.m1, params.m2)
    sym = replace(params, m1=m, m2=m, p=1, variant="presmoothed",
                  symmetric_smoothing=True)
    r = np.asarray(r, dtype=np.float64)
    return mg(dec.q, np.zeros(len(r)), r, dec, sym)


def energy_norm(A, v):
    return float(np.sqrt(max(v @ spmv(A, v), 0.0)))
