"""Block preconditioned eigensolvers: PINVIT, LOBPCG, and the hybrid scheme
that warms LOBPCG up with the multilevel correction output.

The LOBPCG iteration keeps three blocks (current vectors, preconditioned
residuals, previous directions), orthonormalizes them in the mass inner
product, and extracts the lowest Ritz pairs of the projected pencil each
step.  Preconditioners are SPD actions; the adapted-wavelet V-cycle is the
interesting one, with identity and diagonal scaling as baselines.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .correction import (
    ConvergenceRecord,
    EigenSet,
    McParams,
    multilevel_correction,
    rayleigh_ritz,
)
from .errors import (
    DegenerateBasisError,
    InvalidArgumentError,
    NonConvergenceError,
)
from .multigrid import MgParams, precondition
from .sparse import spmv

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LobpcgParams:
    tol: float = 1e-8
    maxit: int = 500

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise InvalidArgumentError("tol must be finite and positive")
        if self.maxit < 1:
            raise InvalidArgumentError("maxit must be >= 1")


class Preconditioner:
    """SPD action r -> B^{-1} r; subclasses implement ``apply``."""

    def apply(self, r):
        raise NotImplementedError

    def apply_block(self, R):
        return np.column_stack([self.apply(R[:, j]) for j in range(R.shape[1])])


class IdentityPreconditioner(Preconditioner):
    def apply(self, r):
        return np.asarray(r, dtype=np.float64).copy()


class JacobiPreconditioner(Preconditioner):
    """Symmetric diagonal scaling by the stiffness diagonal."""

    def __init__(self, K):
        d = K.diagonal()
        if np.any(d <= 0):
            raise InvalidArgumentError("stiffness diagonal must be positive")
        self._inv_diag = 1.0 / d

    def apply(self, r):
        return self._inv_diag * r


class GambletPreconditioner(Preconditioner):
    """One symmetric V-cycle of the adapted-wavelet multigrid."""

    def __init__(self, dec, mg_params=None):
        self._dec = dec
        self._params = mg_params if mg_params is not None else MgParams()

    def apply(self, r):
        return precondition(r, self._dec, self._params)


@dataclass
class LobpcgState:
    """Iteration snapshot: current block (mass-orthonormal), previous-direction
    block, Ritz values, residual norms."""

    X: np.ndarray
    P: Optional[np.ndarray]
    ritz: np.ndarray
    residual_norms: np.ndarray
    iteration: int = 0


def rayleigh_quotient(x, K, M):
    """Generalized quotient x^T K x / x^T M x."""
    x = np.asarray(x, dtype=np.float64)
    if np.linalg.norm(x) == 0.0:
        raise InvalidArgumentError("quotient undefined for the zero vector")
    return float((x @ spmv(K, x)) / (x @ spmv(M, x)))


def pinvit_step(x, K, M, B):
    """One preconditioned inverse iteration step.

    w = B^{-1}(K x - mu(x) M x); the next iterate is x - w, renormalized in
    the mass norm.  A vanishing update triggers a logged random restart.
    """
    x = np.asarray(x, dtype=np.float64)
    mu = rayleigh_quotient(x, K, M)
    w = B.apply(spmv(K, x) - mu * spmv(M, x))
    x_next = x - w
    nrm2 = x_next @ spmv(M, x_next)
    if nrm2 <= 0.0 or not np.isfinite(nrm2):
        logger.warning("pinvit breakdown: restarting from a random vector")
        x_next = np.random.default_rng(0).standard_normal(len(x))
        nrm2 = x_next @ spmv(M, x_next)
    return x_next / np.sqrt(nrm2)


def lobpcg(K, M, B, X0, nev, params=None, level=0, on_state=None):
    """Locally optimal block preconditioned iteration for the lowest ``nev``
    pairs of K x = lambda M x.

    Per iteration: residuals of the current Ritz block, preconditioned by
    ``B``, join the previous directions in a mass-orthonormalized trial
    basis; the lowest Ritz pairs of the projected pencil become the next
    block.  Stops when every pair satisfies
    ||K x - lambda M x|| <= tol ||K x||.

    Returns (EigenSet, ConvergenceRecord); raises NonConvergenceError with
    both attached when ``maxit`` is exhausted.
    """
    if params is None:
        params = LobpcgParams()
    X0 = np.atleast_2d(np.asarray(X0, dtype=np.float64))
    if X0.shape[0] < X0.shape[1]:
        X0 = X0.T
    if X0.shape[1] < nev:
        raise InvalidArgumentError(
            f"initial block has {X0.shape[1]} columns, need at least {nev}")
    K_sp, M_sp = K.to_scipy(), M.to_scipy()
    ritz, X, _ = rayleigh_ritz(K_sp, M_sp, X0)
    if len(ritz) < nev:
        raise InvalidArgumentError("initial block is numerically dependent")
    ritz, X = ritz[:nev], X[:, :nev]
    record = ConvergenceRecord()
    P = None
    prev_ritz = None
    converged = False
    for iteration in range(params.maxit + 1):
        KX = K_sp @ X
        MX = M_sp @ X
        R = KX - MX * ritz[None, :]
        res = np.array([np.linalg.norm(R[:, j]) / np.linalg.norm(KX[:, j])
                        for j in range(nev)])
        rel = np.abs(ritz - prev_ritz) / np.abs(ritz) if prev_ritz is not None \
            else np.full(nev, np.nan)
        for j in range(nev):
            record.add(iteration, level, j, ritz[j], rel[j], res[j])
        if on_state is not None:
            on_state(LobpcgState(X=X, P=P, ritz=ritz.copy(),
                                 residual_norms=res, iteration=iteration))
        if np.all(res <= params.tol):
            converged = True
            break
        if iteration == params.maxit:
            break
        Wb = B.apply_block(R)
        blocks = [X, Wb] if P is None else [X, Wb, P]
        lams, V, _ = rayleigh_ritz(K_sp, M_sp, np.column_stack(blocks))
        if len(lams) < nev:
            raise DegenerateBasisError("trial basis lost rank")
        X_new = V[:, :nev]
        C = X.T @ (M_sp @ X_new)
        flip = np.diag(C) < 0
        X_new[:, flip] *= -1.0
        C[:, flip] *= -1.0
        # P: the part of X_new M-orthogonal to span(X)
        P = X_new - X @ C
        prev_ritz = ritz
        ritz = lams[:nev].copy()
        X = X_new
    eigset = EigenSet.from_vectors(K, M, ritz, X)
    if not converged:
        raise NonConvergenceError(
            f"lobpcg reached maxit={params.maxit} with worst residual "
            f"{res.max():.3e}", history=record, result=eigset)
    return eigset, record


def hybrid_solve(dec, M, nev, mc_params=None, lobpcg_params=None):
    """Multilevel correction to a loose tolerance, then LOBPCG with the
    adapted-wavelet preconditioner from that starting block.

    History rows carry a phase tag ("mc" or "lobpcg") and share one sweep
    counter.
    """
    if mc_params is None:
        mc_params = McParams(tol=1e-7)
    if lobpcg_params is None:
        lobpcg_params = LobpcgParams()
    K = dec.A[dec.q]
    try:
        es_mc, rec_mc = multilevel_correction(dec, M, nev, mc_params)
    except NonConvergenceError as exc:
        raise NonConvergenceError(str(exc), history=exc.history.tagged("mc"),
                                  result=exc.result) from exc
    combined = rec_mc.tagged("mc")
    offset = combined.last_sweep() + 1
    B = GambletPreconditioner(dec, mc_params.mg)
    try:
        es, rec_lob = lobpcg(K, M, B, es_mc.vectors, nev,
                             params=lobpcg_params, level=dec.q)
    except NonConvergenceError as exc:
        combined.extend(exc.history.tagged("lobpcg", offset))
        raise NonConvergenceError(str(exc), history=combined,
                                  result=exc.result) from exc
    combined.extend(rec_lob.tagged("lobpcg", offset))
    return es, combined
