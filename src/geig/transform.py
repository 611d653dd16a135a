"""Hierarchical operator-adapted decomposition of an SPD matrix.

Walks the label hierarchy from the fine level down: at each level it forms
the wavelet-block stiffness B = W A W^T, builds the adapted interpolation
R = pi (I - A W^T B^{-1} W), and coarsens A through the Galerkin triple
product.  The B-inverse applications are LAPACK Cholesky solves: exact
mode factors all of B once; localized mode factors B restricted to a
lattice ball around each coarse cell (the exact energy minimizer on that
subdomain) and thresholds the resulting interpolation entries.  Localized
mode also truncates each coarse level A_{k-1}: it drops the off-diagonal
entries that are negligible against the diagonal, which the exponential
decay of the gamblet level matrices allows, and checks by a sparse
factorization that the truncated level is still SPD.  So every level stays
sparse; the fine level is the input matrix, never truncated.  A filled-in B
goes through the dense Cholesky, a sparse one through the banded Cholesky.

A dense oracle (inverse of the aggregated resolvent) is provided for
testing the recursion at small sizes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import InvalidArgumentError, NotPositiveDefiniteError
from .hierarchy import Hierarchy, build_hierarchy
from .sparse import (
    SparseOperator,
    dump_coordinate,
    galerkin_triple,
    load_coordinate,
    make_direct_solver,
)

# A wavelet block filled in beyond this fraction (and no larger than
# _DENSE_BLOCK_ROWS) is sliced from a dense copy and factored densely; a
# sparser one is kept as its band only.
_DENSE_BLOCK_FILL = 0.15
_DENSE_BLOCK_ROWS = 6000
# Localized mode drops the off-diagonal entries a_ij of each coarse level
# with |a_ij| <= _LEVEL_DROP_TOL * sqrt(a_ii a_jj).
_LEVEL_DROP_TOL = 1e-4
# Right-hand sides per solve with the factored block in exact mode; keeps
# the dense work arrays at (block rows) x _EXACT_BLOCK_COLUMNS.
_EXACT_BLOCK_COLUMNS = 256
_DEFAULT_RADIUS = 3
_DEFAULT_DROPTOL = 1e-9


@dataclass
class GambletDecomposition:
    """Per-level stiffness blocks and interpolations of one transform run.

    ``A[k]`` is the level-k stiffness for k = 1..q (level q is the input
    matrix), ``B[k]`` the wavelet-block stiffness and ``R[k]`` the
    interpolation from level k-1 onto level k, both for k = 2..q.  The
    level-k basis is the chain product of the interpolations, so
    :meth:`prolong` derives it whenever it is needed.
    """

    q: int
    A: dict
    B: dict
    R: dict
    hierarchy: Hierarchy
    mode: str
    radius: Optional[int]
    droptol: Optional[float]
    variant: str = "adapted"
    _cache: dict = field(default_factory=dict, repr=False)

    def level_dim(self, k):
        return self.A[k].nrows

    def prolong(self, k, Y, to=None):
        """Carry level-k coefficients to level ``to`` (default: the fine
        level q) through the chain product of the interpolations."""
        out = np.asarray(Y, dtype=np.float64)
        for j in range(k + 1, (self.q if to is None else to) + 1):
            out = self.R[j].to_scipy().T @ out
        return out

    def restrict(self, k, X):
        """Carry fine (level-q) coefficients of a dual vector, such as K v or
        M v, to level k: the adjoint of :meth:`prolong`."""
        out = np.asarray(X, dtype=np.float64)
        for j in range(self.q, k, -1):
            out = self.R[j].to_scipy() @ out
        return out

    def coarse_basis(self, k):
        """Dense matrix of the coarsest-level basis expressed at level k."""
        key = ("coarse_basis", k)
        if key not in self._cache:
            self._cache[key] = self.prolong(1, np.eye(self.level_dim(1)), to=k)
        return self._cache[key]

    def coarse_solver(self):
        if "coarse_solver" not in self._cache:
            self._cache["coarse_solver"] = make_direct_solver(self.A[1])
        return self._cache["coarse_solver"]

    def lambda_bound(self, k, factor=1.0):
        key = ("lambda", k)
        if key not in self._cache:
            from .multigrid import estimate_lambda_bound

            self._cache[key] = estimate_lambda_bound(self.A[k])
        return self._cache[key] * factor


def _upper_band(B):
    """LAPACK upper band storage of a symmetric sparse matrix: row
    ``u + i - j`` of column j holds B[i, j] for i <= j, with u the
    bandwidth."""
    coo = B.tocoo()
    upper = coo.row <= coo.col
    rows, cols = coo.row[upper], coo.col[upper]
    u = int((cols - rows).max(initial=0))
    ab = np.zeros((u + 1, B.shape[0]))
    ab[u + rows - cols, cols] = coo.data[upper]
    return ab


def _ball_band(band, ball):
    """Upper band storage of B[ball, ball], gathered from B's own band.

    ``ball`` is sorted, so local entry (p, q), p <= q, is B[ball[p], ball[q]]
    and lies in B's band when ball[q] - ball[p] <= u.
    """
    u = band.shape[0] - 1
    n = len(ball)
    local_u = int((np.arange(n) - np.searchsorted(ball, ball - u)).max())
    p = np.arange(n) - np.arange(local_u, -1, -1)[:, None]
    gap = ball - ball[np.maximum(p, 0)]
    out = band.take((u - np.minimum(gap, u)) * band.shape[1] + ball)
    out[(p < 0) | (gap > u)] = 0.0
    return out


def _cholesky(B, k, banded):
    """Factor an SPD wavelet block once; returns a callable rhs -> B^{-1} rhs.

    ``B`` is a dense array for LAPACK's Cholesky (``cho_factor``), or, with
    ``banded``, upper band storage for its banded Cholesky.  Wavelets are
    numbered by parent cell, row-major, so a sparse wavelet block's band
    spans about one row of parent cells.

    Raises
    ------
    NotPositiveDefiniteError
        When the factorization meets a nonpositive pivot.
    """
    try:
        if banded:
            factor = scipy.linalg.cholesky_banded(B, check_finite=False)
            return lambda rhs: scipy.linalg.cho_solve_banded(
                (factor, False), rhs, check_finite=False)
        factor = scipy.linalg.cho_factor(B, check_finite=False)
        return lambda rhs: scipy.linalg.cho_solve(factor, rhs,
                                                  check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"wavelet block at level {k} is not positive definite; "
            "the input operator must be SPD") from exc


def _ball_indices(parent, side, coords_y, coords_x, rad):
    py, px = divmod(parent, side)
    return np.flatnonzero((np.abs(coords_y - py) <= rad)
                          & (np.abs(coords_x - px) <= rad))


def check_options(mode="exact", radius=_DEFAULT_RADIUS, droptol=_DEFAULT_DROPTOL,
                  variant="adapted"):
    """Raise InvalidArgumentError unless :func:`transform` takes these."""
    if mode not in ("exact", "localized"):
        raise InvalidArgumentError(f"unknown transform mode {mode!r}")
    if variant not in ("adapted", "geometric"):
        raise InvalidArgumentError(f"unknown transform variant {variant!r}")
    if mode == "localized" and radius < 1:
        raise InvalidArgumentError("localization radius must be >= 1")
    if mode == "localized" and not 0 < droptol < np.inf:
        raise InvalidArgumentError("droptol must be finite and positive")


def transform(A_fine, hier, mode="exact", radius=_DEFAULT_RADIUS,
              droptol=_DEFAULT_DROPTOL, variant="adapted"):
    """Run the level-by-level decomposition of an SPD matrix.

    Parameters
    ----------
    A_fine : SparseOperator
        Fine-level SPD matrix, dimension matching the hierarchy's node count.
    hier : Hierarchy
    mode : "exact" or "localized"
        Exact mode keeps every interpolation entry and solves with the
        whole wavelet block; its levels are the exact Galerkin hierarchy.
        Localized mode restricts each block solve to a lattice ball (radius
        grows linearly with dyadic depth) and drops interpolation entries
        at or below ``droptol``.  It then truncates each coarse level A_k,
        k < q, to its diagonal and the off-diagonal entries with
        |a_ij| > ``_LEVEL_DROP_TOL`` sqrt(a_ii a_jj), checks that the result
        is SPD, and builds the next level from it.  The fine level A_q is
        ``A_fine`` itself in both modes.  Both solve directly, by Cholesky.
    variant : "adapted" or "geometric"
        "geometric" skips the operator-adapted correction term and uses the
        plain nesting matrices as interpolations (the baseline the adapted
        construction is compared against).

    Raises
    ------
    NotPositiveDefiniteError
        When a wavelet block (or a ball block of it), or a truncated coarse
        level, is not SPD; the message names the level.
    """
    check_options(mode, radius, droptol, variant)
    if A_fine.nrows != A_fine.ncols or A_fine.nrows != hier.n_fine:
        raise InvalidArgumentError(
            f"operator is {A_fine.shape}, hierarchy expects "
            f"{hier.n_fine} fine unknowns")

    q = hier.q
    A_levels = {q: A_fine}
    B_levels = {}
    R_levels = {}

    for k in range(q, 1, -1):
        A_k = A_levels[k]
        W = hier.Ws[k]
        pi = hier.pis[k - 2]
        B_k = galerkin_triple(W, A_k)
        B_levels[k] = B_k
        if variant == "geometric":
            R_k = SparseOperator(pi.nrows, pi.ncols, pi.row_offsets.copy(),
                                 pi.col_indices.copy(), pi.values.copy())
        else:
            R_k = _adapted_interpolation(A_k, B_k, W, pi, hier, k, mode,
                                         radius, droptol)
        R_levels[k] = R_k
        A_levels[k - 1] = galerkin_triple(R_k, A_k)
        if mode == "localized":
            A_levels[k - 1] = _truncate_level(A_levels[k - 1], k - 1)

    return GambletDecomposition(
        q=q, A=A_levels, B=B_levels, R=R_levels, hierarchy=hier, mode=mode,
        radius=radius if mode == "localized" else None,
        droptol=droptol if mode == "localized" else None,
        variant=variant)


def _adapted_interpolation(A_k, B_k, W, pi, hier, k, mode, radius, droptol):
    """R = pi (I - A W^T B^{-1} W) by Cholesky solves with the wavelet block.

    Row i is pi_i - (W^T y_i)^T with B y_i = W A pi_i^T; all right-hand
    sides come from one sparse product.  Exact mode factors the whole block
    once and solves the right-hand sides in column blocks.  Localized mode
    solves each row exactly on the wavelets whose parent cell lies within a
    lattice ball of the row's cell, then drops entries at or below
    ``droptol``.
    """
    n_coarse, n_k = pi.shape
    W_sp = W.to_scipy()
    pi_sp = pi.to_scipy()
    rhs = (W_sp @ (A_k.to_scipy() @ pi_sp.T)).tocsc()
    filled = (B_k.fill_fraction() > _DENSE_BLOCK_FILL
              and B_k.nrows <= _DENSE_BLOCK_ROWS)
    B = B_k.to_dense() if filled else _upper_band(B_k.to_scipy())

    if mode == "exact":
        solve = _cholesky(B, k, banded=not filled)
        blocks = []
        for lo in range(0, n_coarse, _EXACT_BLOCK_COLUMNS):
            cols = slice(lo, min(lo + _EXACT_BLOCK_COLUMNS, n_coarse))
            Y = solve(rhs[:, cols].toarray())
            blocks.append(scipy.sparse.csr_matrix(
                pi_sp[cols].toarray() - (W_sp.T @ Y).T))
        return SparseOperator.from_scipy(scipy.sparse.vstack(blocks))

    depth_child = hier.level_depth(k)
    rho_child = 2 * radius * depth_child
    rad_par = max(1, int(np.ceil(rho_child / 2.0)))
    side = 2 ** hier.level_depth(k - 1)
    wp_y, wp_x = np.divmod(hier.wavelet_parent[k], side)
    balls = []
    sols = []
    w = np.zeros(B_k.nrows)
    for i in range(n_coarse):
        ball = _ball_indices(i, side, wp_y, wp_x, rad_par)
        B_ball = B[np.ix_(ball, ball)] if filled else _ball_band(B, ball)
        lo, hi = rhs.indptr[i], rhs.indptr[i + 1]
        w[rhs.indices[lo:hi]] = rhs.data[lo:hi]
        balls.append(ball)
        sols.append(_cholesky(B_ball, k, banded=not filled)(w[ball]))
        w[rhs.indices[lo:hi]] = 0.0
    offsets = np.concatenate(([0], np.cumsum([len(b) for b in balls])))
    Y = scipy.sparse.csc_matrix(
        (np.concatenate(sols), np.concatenate(balls), offsets),
        shape=(B_k.nrows, n_coarse))
    R = (pi_sp - (W_sp.T @ Y).T).tocsr()
    R.data[np.abs(R.data) <= droptol] = 0.0
    R.eliminate_zeros()
    return SparseOperator.from_scipy(R)


def _truncate_level(A, k):
    """Coarse level ``A`` without its off-diagonal entries a_ij with
    |a_ij| <= _LEVEL_DROP_TOL * sqrt(a_ii a_jj), checked to be SPD.

    The rule is symmetric in i and j, so the result stays symmetric.  The
    check is one sparse LU with diagonal pivots in a symmetric fill-reducing
    order, that is an LDL^T factorization: the truncated matrix is SPD
    exactly when every pivot is positive.

    SPD levels do not ensure a contracting V-cycle.  With the threshold at
    1e-3 instead of 1e-4, every level of the grid-64, contrast-400
    checkerboard benchmark field passes the check, yet the measured V-cycle
    contraction is 3.57: the cycle diverges as an iteration.  A run reports
    its measured contraction as ``mg_contraction`` in ``summary.json``.

    Raises
    ------
    NotPositiveDefiniteError
        When a pivot is not positive; the message names level ``k``.
    """
    scale = np.sqrt(np.abs(A.diagonal()))
    coo = A.to_scipy().tocoo()
    keep = (coo.row == coo.col) | (
        np.abs(coo.data) > _LEVEL_DROP_TOL * scale[coo.row] * scale[coo.col])
    T = SparseOperator.from_coo(coo.row[keep], coo.col[keep], coo.data[keep],
                                A.shape)
    message = f"truncated stiffness at level {k} is not positive definite"
    try:
        lu = scipy.sparse.linalg.splu(
            T.to_scipy().tocsc(), permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        # SuperLU stops at an exactly zero pivot
        raise NotPositiveDefiniteError(message) from exc
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(lu.U.diagonal() > 0.0)):
        raise NotPositiveDefiniteError(message)
    return T


def oracle_level_matrices(A_fine, Pi_k):
    """Dense reference for one level: the aggregated resolvent
    Theta = Pi A^{-1} Pi^T and its inverse, both symmetrized.

    Only meant for tests at small sizes; computes a dense inverse.
    """
    Ad = A_fine.to_dense() if isinstance(A_fine, SparseOperator) \
        else np.asarray(A_fine, dtype=np.float64)
    Pid = Pi_k.to_dense() if isinstance(Pi_k, SparseOperator) \
        else np.asarray(Pi_k, dtype=np.float64)
    try:
        X = np.linalg.solve(Ad, Pid.T)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("fine operator is singular") from exc
    theta = Pid @ X
    try:
        a_k = np.linalg.inv(theta)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("aggregated resolvent is singular") from exc
    return 0.5 * (theta + theta.T), 0.5 * (a_k + a_k.T)


def wavelet_vectors(dec, k):
    """Fine-basis coefficient matrices (psi_k, chi_k) of the level-k bases.

    psi rows span the level-k trial space; chi rows (k >= 2) span its
    detail complement.  Both are dense, so this is meant for small problems.
    """
    if not 1 <= k <= dec.q:
        raise InvalidArgumentError(f"level {k} out of range")
    psi = dec.prolong(k, np.eye(dec.level_dim(k))).T
    chi = dec.hierarchy.Ws[k].to_scipy() @ psi if k >= 2 else None
    return psi, chi


def decay_profile(dec, k, i, n_max=None):
    """Energy of one level-k basis vector outside balls of growing radius.

    Returns a list of (n, tail_energy) pairs where the ball radius is n
    times the level-k cell side, centered at the vector's cell center, and
    tail_energy is the square root of the energy quadratic form of the
    vector restricted outside the ball.  n = 0 reports the total energy.
    """
    hier = dec.hierarchy
    if not 1 <= k <= dec.q:
        raise InvalidArgumentError(f"level {k} out of range")
    if not 0 <= i < dec.level_dim(k):
        raise InvalidArgumentError(f"vector index {i} out of range at level {k}")
    unit = np.zeros(dec.level_dim(k))
    unit[i] = 1.0
    vec = dec.prolong(k, unit)
    centers = hier.level_centers(k)
    center = centers[i]
    coords = hier.grid.interior_coords()
    dist = np.linalg.norm(coords - center, axis=1)
    h_k = hier.level_cell_side(k)
    if n_max is None:
        n_max = int(np.ceil(dist.max() / h_k))
    A_sp = dec.A[dec.q].to_scipy()
    out = []
    for n in range(n_max + 1):
        tail = vec * (dist >= n * h_k)
        out.append((n, float(np.sqrt(max(tail @ (A_sp @ tail), 0.0)))))
    return out


# -- serialization -----------------------------------------------------------

def save_decomposition(dec, dirpath):
    """Write the decomposition as coordinate-format matrix files plus a
    manifest describing levels, sizes, and build options."""
    os.makedirs(dirpath, exist_ok=True)
    manifest = {
        "levels": dec.q,
        "mode": dec.mode,
        "radius": dec.radius,
        "droptol": dec.droptol,
        "variant": dec.variant,
        "grid_n": dec.hierarchy.grid.n_cells,
        "sizes": {str(k): dec.A[k].nrows for k in range(1, dec.q + 1)},
    }
    for k in range(1, dec.q + 1):
        dump_coordinate(dec.A[k], os.path.join(dirpath, f"A_{k}.txt"))
    for k in range(2, dec.q + 1):
        dump_coordinate(dec.B[k], os.path.join(dirpath, f"B_{k}.txt"))
        dump_coordinate(dec.R[k], os.path.join(dirpath, f"R_{k}.txt"))
    with open(os.path.join(dirpath, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_decomposition(dirpath):
    """Rebuild a decomposition from :func:`save_decomposition` output."""
    from .fem import Grid

    with open(os.path.join(dirpath, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    q = manifest["levels"]
    sizes = {int(k): v for k, v in manifest["sizes"].items()}
    hier = build_hierarchy(q, Grid(manifest["grid_n"]))
    A = {}
    B = {}
    R = {}
    for k in range(1, q + 1):
        A[k] = load_coordinate(os.path.join(dirpath, f"A_{k}.txt"),
                               shape=(sizes[k], sizes[k]))
    for k in range(2, q + 1):
        B[k] = load_coordinate(os.path.join(dirpath, f"B_{k}.txt"),
                               shape=(hier.Ws[k].nrows, hier.Ws[k].nrows))
        R[k] = load_coordinate(os.path.join(dirpath, f"R_{k}.txt"),
                               shape=(sizes[k - 1], sizes[k]))
    return GambletDecomposition(
        q=q, A=A, B=B, R=R, hierarchy=hier, mode=manifest["mode"],
        radius=manifest["radius"], droptol=manifest["droptol"],
        variant=manifest.get("variant", "adapted"))
