"""Multilevel eigenpair correction over the adapted decomposition.

The scheme solves the generalized eigenproblem once on the coarsest level,
then walks the hierarchy upward: at each level every eigenpair gets one (or
more) correction sweeps, each consisting of a multigrid-approximated linear
solve followed by a small Rayleigh-Ritz step on the coarsest space augmented
with the corrected vectors.  At the finest level the sweeps repeat until the
eigenvalues stop moving.

Every level-k space sits inside the fine space, so every Rayleigh-Ritz step,
the coarsest solve included, runs on the fine pencil (K, M) with the basis
prolonged to fine coefficients.  No level mass matrix is built, and the
truncated coarse stiffness matrices of a localized decomposition serve the
multigrid solves only, so every recorded Ritz value bounds its fine
eigenvalue from above.

The coarsest space is projected once per run: its M-orthonormal Ritz block
Q, with Q^T K Q = diag(theta), and the products K Q and M Q are kept.  Each
sweep M-orthogonalizes only its nev new columns against Q, so its dense work
grows with nev times the coarse dimension, not with its square.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateBasisError,
    InvalidArgumentError,
    NonConvergenceError,
)
from .multigrid import MgParams, mg
from .sparse import dense_sym_geig, make_direct_solver, spmv

_CLUSTER_RTOL = 1e-8
_BASIS_DROP_TOL = 1e-12


@dataclass(frozen=True)
class McParams:
    """Knobs of the multilevel scheme: ``varpi`` correction sweeps per level,
    multigrid parameters for the inner solves, extra fine-level sweep budget,
    and the relative eigenvalue-change stopping tolerance."""

    varpi: int = 1
    mg: MgParams = dataclass_field(default_factory=MgParams)
    fine_level_extra: int = 300
    tol: float = 1e-12
    exact_inner: bool = False

    def __post_init__(self):
        if self.varpi < 1:
            raise InvalidArgumentError("varpi must be >= 1")
        if not 0 < self.tol < np.inf:
            raise InvalidArgumentError("tol must be finite and positive")


@dataclass
class EigenSet:
    """Approximate eigenpairs, energy-normalized (v^T K v = 1), ascending.

    ``m_norms`` holds sqrt(v^T M v) per pair so the mass-normalized copies
    are available without another pass over the matrices.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    m_norms: np.ndarray

    @property
    def nev(self):
        return len(self.lambdas)

    def m_normalized(self):
        return self.vectors / self.m_norms

    @classmethod
    def from_vectors(cls, K, M, lambdas, vectors):
        lambdas = np.asarray(lambdas, dtype=np.float64)
        V = np.array(vectors, dtype=np.float64)
        if V.ndim == 1:
            V = V[:, None]
        K_sp = K.to_scipy()
        M_sp = M.to_scipy()
        KV = K_sp @ V
        energies = np.einsum("ij,ij->j", V, KV)
        if np.any(energies <= 0):
            raise InvalidArgumentError("vectors must have positive energy")
        scale = 1.0 / np.sqrt(energies)
        V = V * scale
        KV = KV * scale
        MV = M_sp @ V
        res = (np.linalg.norm(KV - MV * lambdas, axis=0)
               / np.linalg.norm(KV, axis=0))
        m_norms = np.sqrt(np.einsum("ij,ij->j", V, MV))
        return cls(lambdas=lambdas, vectors=V, residuals=res, m_norms=m_norms)


@dataclass
class ConvergenceRecord:
    """Flat per-sweep, per-pair history.

    Rows are (sweep, level, pair, lambda, rel_change, residual) plus an
    optional phase tag used by hybrid runs.
    """

    rows: list = dataclass_field(default_factory=list)
    has_phase: bool = False

    def add(self, sweep, level, pair, lam, rel_change, residual, phase=None):
        if phase is not None:
            self.has_phase = True
        self.rows.append((int(sweep), int(level), int(pair), float(lam),
                          float(rel_change), float(residual), phase))

    def tagged(self, phase, offset=0):
        """A copy with every row tagged ``phase`` and its sweep shifted by
        ``offset``."""
        out = ConvergenceRecord()
        for sweep, level, pair, lam, rel, res, _ in self.rows:
            out.add(sweep + offset, level, pair, lam, rel, res, phase=phase)
        return out

    def extend(self, other):
        self.rows.extend(other.rows)
        self.has_phase = self.has_phase or other.has_phase

    def last_sweep(self):
        return self.rows[-1][0] if self.rows else 0

    def sweep_values(self, sweep):
        return {r[2]: r[3] for r in self.rows if r[0] == sweep}

    def to_csv(self, path_or_buf):
        header = "sweep,level,pair,lambda,rel_change,residual"
        if self.has_phase:
            header += ",phase"
        lines = [header]
        for sweep, level, pair, lam, rel, res, phase in self.rows:
            line = f"{sweep},{level},{pair},{lam!r},{rel!r},{res!r}"
            if self.has_phase:
                line += f",{phase if phase is not None else ''}"
            lines.append(line)
        text = "\n".join(lines) + "\n"
        if isinstance(path_or_buf, io.IOBase):
            path_or_buf.write(text)
        else:
            with open(path_or_buf, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text


def m_orthonormalize(V, M_sp):
    """M-orthonormal basis of span(V) by SVQB (Stathopoulos and Wu, SISC
    2002) applied twice.

    Each pass eigendecomposes the column-scaled Gram matrix D V^T M V D
    (D = diag(V^T M V)^{-1/2}) and keeps the directions whose eigenvalue is
    at least ``_BASIS_DROP_TOL`` times the largest, so numerically dependent
    columns are dropped.  The returned columns mix the input columns.

    Returns (Z, T): the basis Z and the transform T with Z = V T, up to
    roundoff.
    """
    Z = np.asarray(V, dtype=np.float64)
    T = None
    for _ in range(2):
        G = Z.T @ (M_sp @ Z)
        d = np.sqrt(np.abs(np.diag(G)))
        d[d == 0.0] = 1.0
        theta, U = scipy.linalg.eigh(G / np.outer(d, d))
        if theta[-1] <= 0.0:
            raise DegenerateBasisError("all trial directions collapsed")
        keep = theta > _BASIS_DROP_TOL * theta[-1]
        S = U[:, keep] / d[:, None] / np.sqrt(theta[keep])
        Z = Z @ S
        T = S if T is None else T @ S
    return Z, T


@dataclass(frozen=True)
class RitzBlock:
    """A fixed M-orthonormal Ritz block Q = P Y0 of the pencil (K, M), with
    Q^T K Q = diag(theta), and the products K Q and M Q; ``coeffs`` is Y0,
    the coefficients of Q in the columns of P."""

    Q: np.ndarray
    coeffs: np.ndarray
    theta: np.ndarray
    KQ: np.ndarray
    MQ: np.ndarray


def _lead_positive(C):
    lead = C[np.argmax(np.abs(C), axis=0), np.arange(C.shape[1])]
    return C * np.sign(lead)


def rayleigh_ritz(A_sp, M_sp, V, fixed=None):
    """Rayleigh-Ritz for the pencil (A, M) on span(V), or on
    span(fixed.Q) + span(V) when a :class:`RitzBlock` ``fixed`` is given.

    Without ``fixed``: every Ritz value in ascending order, the matching
    M-orthonormal Ritz vectors X, and their coefficients C in the columns of
    V (X = V C up to roundoff), which carry the Ritz vectors to any other
    coordinates of the same basis.

    With ``fixed`` (Q = P Y0): only the columns of V are worked on.  They
    are M-orthogonalized against Q twice (CGS2, through the kept M Q); a
    column whose M-norm falls to ``_BASIS_DROP_TOL`` of its norm before
    projection lies in span(Q) and is dropped, and the rest are SVQB'd.  The
    projected matrix is [[diag(theta), Q^T A Z], [Z^T A Q, Z^T A Z]], and
    only its lowest V.shape[1] pairs are extracted and formed, with C the
    coefficients in the columns of [P, V].  Raises DegenerateBasisError when
    the basis has fewer columns than pairs asked for.

    Each eigenvector of the projected pencil has its largest-magnitude
    component made positive, so the output is deterministic.
    """
    if fixed is None:
        Z, T = m_orthonormalize(V, M_sp)
        lams, C = scipy.linalg.eigh(Z.T @ (A_sp @ Z))
        C = _lead_positive(C)
        return lams, Z @ C, T @ C
    nev = V.shape[1]
    norms = np.sqrt(np.einsum("ij,ij->j", V, M_sp @ V))
    G = fixed.MQ.T @ V
    W = V - fixed.Q @ G
    G2 = fixed.MQ.T @ W
    W -= fixed.Q @ G2
    G += G2
    kept = (np.sqrt(np.abs(np.einsum("ij,ij->j", W, M_sp @ W)))
            > _BASIS_DROP_TOL * norms)
    if kept.any():
        Z, T = m_orthonormalize(W[:, kept], M_sp)
    else:
        Z, T = W[:, :0], np.zeros((0, 0))
    m = len(fixed.theta)
    if m + Z.shape[1] < nev:
        raise DegenerateBasisError("trial basis lost rank")
    QKZ = fixed.KQ.T @ Z
    H = np.block([[np.diag(fixed.theta), QKZ], [QKZ.T, Z.T @ (A_sp @ Z)]])
    lams, C = scipy.linalg.eigh(H, subset_by_index=[0, nev - 1])
    C = _lead_positive(C)
    b = np.zeros((nev, nev))
    b[kept] = T @ C[m:]
    a = fixed.coeffs @ (C[:m] - G @ b)
    return lams, fixed.Q @ C[:m] + Z @ C[m:], np.vstack([a, b])


def _match_clusters(lams, X, Y_old, M_sp):
    """Order of the Ritz pairs that keeps ascending values but, inside each
    near-degenerate cluster, gives every incoming vector the new vector it
    overlaps most."""
    nev = len(lams)
    order = list(range(nev))
    i = 0
    while i < nev:
        j = i + 1
        while j < nev and abs(lams[j] - lams[j - 1]) < _CLUSTER_RTOL * abs(lams[j]):
            j += 1
        if j - i > 1:
            ov = np.abs(Y_old[:, i:j].T @ (M_sp @ X[:, i:j]))
            cluster = list(range(i, j))
            taken = []
            for old_local in range(j - i):
                best = max((c for c in cluster if c not in taken),
                           key=lambda c: ov[old_local, c - i])
                taken.append(best)
            order[i:j] = taken
        i = j
    return order


def _solve_level(k, rhs, guess, dec, params):
    if params.exact_inner:
        key = ("exact_solver", k)
        if key not in dec._cache:
            dec._cache[key] = make_direct_solver(dec.A[k])
        return dec._cache[key](rhs)
    return mg(k, guess, rhs, dec, params.mg)


def correct_block(k, lams, Y, Yf, dec, M, params, block):
    """One joint correction sweep for a block of pairs at level k.

    The block comes in two coordinates: ``Y`` in level-k coefficients, the
    multigrid guess, and ``Yf = dec.prolong(k, Y)`` in fine ones.  Each pair
    gets a multigrid-approximated solve of A_k v = lambda M_k y, whose
    right-hand side is the fine product M Yf restricted to level k.  One
    Rayleigh-Ritz with the fine pencil (K, M) on the coarsest space plus all
    prolonged solutions then re-extracts the lowest pairs, and its
    coefficients give them in both coordinates.  The coarsest space enters
    as ``block``, its Ritz block from :func:`_coarse_start`, so only the nev
    prolonged solutions are orthogonalized here.  Raises
    DegenerateBasisError when fewer than nev basis directions survive.

    Returns (lambdas, X, Xf, residuals): X in level-k coefficients, Xf =
    prolong(k, X), energy-normalized, with the sign of Yf, and the level-k
    relative residuals ||P (K Xf - lambda M Xf)|| / ||P K Xf||, P the
    restriction to level k.
    """
    K_sp = dec.A[dec.q].to_scipy()
    M_sp = M.to_scipy()
    nev = len(lams)
    rhs = dec.restrict(k, M_sp @ Yf) * lams
    v_hat = np.empty_like(Y)
    for j in range(nev):
        v_hat[:, j] = _solve_level(k, rhs[:, j], Y[:, j], dec, params)
    ritz, Xf, C = rayleigh_ritz(K_sp, M_sp, dec.prolong(k, v_hat),
                                fixed=block)
    order = _match_clusters(ritz, Xf, Yf, M_sp)
    new_lams, Xf, C = ritz[order], Xf[:, order], C[:, order]
    KXf = K_sp @ Xf
    MXf = M_sp @ Xf
    scale = 1.0 / np.sqrt(np.einsum("ij,ij->j", Xf, KXf))
    scale[np.einsum("ij,ij->j", Yf, MXf) < 0] *= -1.0
    Xf, KXf, MXf, C = Xf * scale, KXf * scale, MXf * scale, C * scale
    X = Xf if k == dec.q else \
        np.column_stack([dec.coarse_basis(k), v_hat]) @ C
    res = (np.linalg.norm(dec.restrict(k, KXf - MXf * new_lams), axis=0)
           / np.linalg.norm(dec.restrict(k, KXf), axis=0))
    return new_lams, X, Xf, res


def _coarse_start(dec, M, nev):
    """The fine pencil on the coarsest space, by one dense solve of
    (P^T K P, P^T M P) with P = ``dec.coarse_basis(q)``.

    Returns (lambdas, Y, Yf, block): the nev lowest pairs, vectors
    energy-normalized, in level-1 and in fine coefficients, and the
    :class:`RitzBlock` of all the pairs, which every sweep reuses."""
    n1 = dec.level_dim(1)
    if not 1 <= nev <= n1:
        raise InvalidArgumentError(
            f"nev={nev} exceeds the coarsest space dimension {n1}")
    P = dec.coarse_basis(dec.q)
    KP = dec.A[dec.q].to_scipy() @ P
    MP = M.to_scipy() @ P
    res = dense_sym_geig(P.T @ KP, P.T @ MP)
    Y0 = res.vectors
    block = RitzBlock(Q=P @ Y0, coeffs=Y0, theta=res.lambdas,
                      KQ=KP @ Y0, MQ=MP @ Y0)
    Y = res.vectors_energy[:, :nev].copy()
    return res.lambdas[:nev].copy(), Y, P @ Y, block


def coarse_eigensolve(dec, M, nev):
    """All-pairs dense solve of the coarsest-level restriction, prolonged to
    fine coefficients."""
    lams, _, Yf, _ = _coarse_start(dec, M, nev)
    return EigenSet.from_vectors(dec.A[dec.q], M, lams, Yf)


def multilevel_correction(dec, M, nev, params=None):
    """Full bottom-up scheme: coarsest eigensolve, per-level correction
    sweeps, then fine-level sweeps until the largest relative eigenvalue
    change drops below ``params.tol``.

    Returns (EigenSet, ConvergenceRecord).  On fine-level non-convergence
    raises NonConvergenceError carrying both.
    """
    if params is None:
        params = McParams()
    lams, Y, Yf, block = _coarse_start(dec, M, nev)
    record = ConvergenceRecord()
    sweep = 0
    for j in range(nev):
        record.add(sweep, 1, j, lams[j], np.nan, np.nan)

    def run_sweep(k):
        nonlocal lams, Y, Yf, sweep
        old = lams.copy()
        lams, Y, Yf, res_k = correct_block(k, lams, Y, Yf, dec, M,
                                          params, block)
        sweep += 1
        rel = np.abs(lams - old) / np.abs(lams)
        for j in range(nev):
            record.add(sweep, k, j, lams[j], rel[j], res_k[j])
        return rel.max()

    max_rel = np.inf
    for k in range(2, dec.q + 1):
        Y = dec.prolong(k - 1, Y, to=k)
        for _ in range(params.varpi):
            max_rel = run_sweep(k)
    extra = 0
    while max_rel > params.tol and extra < params.fine_level_extra:
        max_rel = run_sweep(dec.q)
        extra += 1
    eigset = EigenSet.from_vectors(dec.A[dec.q], M, lams, Yf)
    if max_rel > params.tol:
        raise NonConvergenceError(
            f"fine-level sweeps stalled at relative change {max_rel:.3e} "
            f"after {extra} extra sweeps", history=record, result=eigset)
    return eigset, record


def rayleigh_quotient_expansion_check(K, M, pair, w):
    """Discrepancy of the quotient expansion identity at (lambda, v) for a
    trial vector w: both sides of

        <w,w>/[w,w] - lambda = <w-v,w-v>/[w,w] - lambda [w-v,w-v]/[w,w]

    evaluated with the stiffness and mass forms; zero (to roundoff) when
    (lambda, v) is an exact eigenpair.
    """
    lam, v = pair
    w = np.asarray(w, dtype=np.float64)
    if np.linalg.norm(w) == 0.0:
        raise InvalidArgumentError("trial vector must be nonzero")
    Kw = spmv(K, w)
    Mw = spmv(M, w)
    ww_k = w @ Kw
    ww_m = w @ Mw
    d = w - np.asarray(v, dtype=np.float64)
    lhs = ww_k / ww_m - lam
    rhs = (d @ spmv(K, d)) / ww_m - lam * (d @ spmv(M, d)) / ww_m
    return abs(lhs - rhs)
