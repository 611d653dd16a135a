"""Hierarchical operator-adapted decomposition of an SPD matrix.

Walks the label hierarchy from the fine level down: at each level it forms
the wavelet-block stiffness B = W A W^T, builds the adapted interpolation
R = pi (I - A W^T B^{-1} W), and coarsens A through the Galerkin triple
product.  The B-inverse applications are conjugate-gradient solves; in
localized mode they are restricted to a lattice ball around each coarse
cell and the resulting interpolation entries are thresholded, which keeps
every level sparse.

A dense oracle (inverse of the aggregated resolvent) is provided for
testing the recursion at small sizes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    InvalidArgumentError,
    NotPositiveDefiniteError,
    UnsupportedOperationError,
)
from .hierarchy import Hierarchy, build_hierarchy
from .sparse import (
    SparseOperator,
    cg,
    dump_coordinate,
    galerkin_triple,
    load_coordinate,
    make_direct_solver,
)

_EXACT_CG_TOL = 1e-12
_LOCALIZED_CG_TOL = 1e-6
_DEFAULT_RADIUS = 3
_DEFAULT_DROPTOL = 1e-9


@dataclass
class GambletDecomposition:
    """Per-level stiffness blocks and interpolations of one transform run.

    ``A[k]`` is the level-k stiffness for k = 1..q (level q is the input
    matrix), ``B[k]`` the wavelet-block stiffness and ``R[k]`` the
    interpolation from level k-1 onto level k, both for k = 2..q.
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
    Psi: Optional[dict] = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def tracked(self):
        return self.Psi is not None

    def level_dim(self, k):
        return self.A[k].nrows

    def prolong(self, k, Y):
        """Carry level-k coefficients to fine (level-q) coefficients."""
        out = np.asarray(Y, dtype=np.float64)
        for j in range(k + 1, self.q + 1):
            out = self.R[j].to_scipy().T @ out
        return out

    def coarse_basis(self, k):
        """Dense matrix of the coarsest-level basis expressed at level k."""
        key = ("coarse_basis", k)
        if key not in self._cache:
            P = np.eye(self.level_dim(1))
            for j in range(2, k + 1):
                P = self.R[j].to_scipy().T @ P
            self._cache[key] = P
        return self._cache[key]

    def coarse_solver(self):
        if "coarse_solver" not in self._cache:
            self._cache["coarse_solver"] = make_direct_solver(self.A[1])
        return self._cache["coarse_solver"]

    def mass_levels(self, M):
        """Galerkin restrictions of a fine mass matrix to every level.

        Cached per matrix object: each entry holds its M as the level-q
        restriction and is found by identity (an ``id`` can be handed out
        again once its object is freed).
        """
        cached = self._cache.setdefault("mass", [])
        for levels in cached:
            if levels[self.q] is M:
                return levels
        levels = {self.q: M}
        for k in range(self.q, 1, -1):
            levels[k - 1] = galerkin_triple(self.R[k], levels[k])
        cached.append(levels)
        return levels

    def lambda_bound(self, k, factor=1.0):
        key = ("lambda", k)
        if key not in self._cache:
            from .multigrid import estimate_lambda_bound

            self._cache[key] = estimate_lambda_bound(self.A[k])
        return self._cache[key] * factor


def _solve_block_cg(matvec, rhs, tol, label):
    try:
        return cg(matvec, rhs, tol=tol, maxiter=max(200, 4 * len(rhs)))
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(
            f"wavelet block at {label} is not positive definite; "
            "the input operator must be SPD") from exc


def _level_matvec(B):
    """Pick a dense BLAS matvec when the block has filled in."""
    if B.fill_fraction() > 0.25 and B.nrows <= 4096:
        Bd = B.to_dense()
        return lambda v: Bd @ v
    B_sp = B.to_scipy()
    return lambda v: B_sp @ v


def _ball_indices(parent, side, coords_y, coords_x, rad):
    py, px = divmod(parent, side)
    return np.flatnonzero((np.abs(coords_y - py) <= rad)
                          & (np.abs(coords_x - px) <= rad))


def transform(A_fine, hier, mode="exact", radius=_DEFAULT_RADIUS,
              droptol=_DEFAULT_DROPTOL, track_vectors=False,
              variant="adapted"):
    """Run the level-by-level decomposition of an SPD matrix.

    Parameters
    ----------
    A_fine : SparseOperator
        Fine-level SPD matrix, dimension matching the hierarchy's node count.
    hier : Hierarchy
    mode : "exact" or "localized"
        Exact mode keeps every interpolation entry and solves wavelet blocks
        to 1e-12; localized mode restricts each block solve to a lattice
        ball (radius grows linearly with dyadic depth) and drops entries
        below ``droptol``.
    track_vectors : bool
        Keep per-level basis coefficient matrices for diagnostics.  Dense
        storage, intended for small problems.
    variant : "adapted" or "geometric"
        "geometric" skips the operator-adapted correction term and uses the
        plain nesting matrices as interpolations (the baseline the adapted
        construction is compared against).
    """
    if mode not in ("exact", "localized"):
        raise InvalidArgumentError(f"unknown transform mode {mode!r}")
    if variant not in ("adapted", "geometric"):
        raise InvalidArgumentError(f"unknown transform variant {variant!r}")
    if mode == "localized" and radius < 1:
        raise InvalidArgumentError("localization radius must be >= 1")
    if A_fine.nrows != A_fine.ncols or A_fine.nrows != hier.n_fine:
        raise InvalidArgumentError(
            f"operator is {A_fine.shape}, hierarchy expects "
            f"{hier.n_fine} fine unknowns")

    q = hier.q
    A_levels = {q: A_fine}
    B_levels = {}
    R_levels = {}
    Psi = None
    if track_vectors:
        Psi = {q: SparseOperator.identity(A_fine.nrows)}

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
        if track_vectors:
            psi_k = Psi[k]
            if isinstance(psi_k, SparseOperator):
                Psi[k - 1] = (R_k.to_scipy() @ psi_k.to_scipy()).toarray()
            else:
                Psi[k - 1] = np.asarray(R_k.to_scipy() @ psi_k)

    return GambletDecomposition(
        q=q, A=A_levels, B=B_levels, R=R_levels, hierarchy=hier, mode=mode,
        radius=radius if mode == "localized" else None,
        droptol=droptol if mode == "localized" else None,
        variant=variant, Psi=Psi)


def _adapted_interpolation(A_k, B_k, W, pi, hier, k, mode, radius, droptol):
    """R = pi (I - A W^T B^{-1} W), row by row.

    Each coarse row needs one CG solve with the wavelet block; localized
    mode restricts that solve to wavelets whose parent cell lies within a
    lattice ball of the row's cell.
    """
    n_coarse, n_k = pi.shape
    A_sp = A_k.to_scipy()
    W_sp = W.to_scipy()
    Wt_sp = W_sp.T.tocsr()
    cg_tol = _EXACT_CG_TOL if mode == "exact" else _LOCALIZED_CG_TOL

    localized = mode == "localized"
    B_dense = None
    if localized:
        depth_child = hier.level_depth(k)
        rho_child = 2 * radius * depth_child
        rad_par = max(1, int(np.ceil(rho_child / 2.0)))
        side = 2 ** hier.level_depth(k - 1)
        wav_parent = hier.wavelet_parent[k]
        wp_y, wp_x = np.divmod(wav_parent, side)
        B_sp = B_k.to_scipy()
        # slicing a filled-in sparse block per ball is slower than slicing
        # a dense copy once the block has lost most of its sparsity
        if B_k.fill_fraction() > 0.15 and B_k.nrows <= 6000:
            B_dense = B_k.to_dense()
    else:
        matvec = _level_matvec(B_k)

    rows_out = []
    cols_out = []
    vals_out = []
    for i in range(n_coarse):
        cols_i, vals_i = pi.row(i)
        u = A_sp[cols_i].T.dot(vals_i)
        w = W_sp @ u
        if localized:
            ball = _ball_indices(i, side, wp_y, wp_x, rad_par)
            if B_dense is not None:
                B_sub = B_dense[np.ix_(ball, ball)]
            else:
                B_sub = B_sp[ball][:, ball]
            y_sub = _solve_block_cg(lambda v, B_sub=B_sub: B_sub @ v,
                                    w[ball], cg_tol, f"level {k}")
            y = np.zeros(B_k.nrows)
            y[ball] = y_sub
        else:
            y = _solve_block_cg(matvec, w, cg_tol, f"level {k}")
        row = -(Wt_sp @ y)
        row[cols_i] += vals_i
        if localized:
            keep = np.abs(row) > droptol
        else:
            keep = row != 0.0
        idx = np.flatnonzero(keep)
        rows_out.append(np.full(idx.shape, i, dtype=np.int64))
        cols_out.append(idx.astype(np.int64))
        vals_out.append(row[idx])
    return SparseOperator.from_coo(np.concatenate(rows_out),
                                   np.concatenate(cols_out),
                                   np.concatenate(vals_out),
                                   shape=(n_coarse, n_k))


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
    """Fine-basis coefficient matrices (Psi_k, Chi_k) of the level-k bases.

    Psi rows span the level-k trial space; Chi rows (k >= 2) span its
    detail complement.  Requires the decomposition to have been built with
    ``track_vectors=True``.
    """
    if not dec.tracked:
        raise UnsupportedOperationError(
            "decomposition was built without vector tracking")
    if not 1 <= k <= dec.q:
        raise InvalidArgumentError(f"level {k} out of range")
    psi = dec.Psi[k]
    psi_arr = psi.to_dense() if isinstance(psi, SparseOperator) else psi
    chi = None
    if k >= 2:
        W_sp = dec.hierarchy.Ws[k].to_scipy()
        chi = np.asarray(W_sp @ psi_arr)
    return psi_arr, chi


def decay_profile(dec, k, i, n_max=None):
    """Energy of one level-k basis vector outside balls of growing radius.

    Returns a list of (n, tail_energy) pairs where the ball radius is n
    times the level-k cell side, centered at the vector's cell center, and
    tail_energy is the square root of the energy quadratic form of the
    vector restricted outside the ball.  n = 0 reports the total energy.
    """
    if not dec.tracked:
        raise UnsupportedOperationError(
            "decomposition was built without vector tracking")
    hier = dec.hierarchy
    if not 1 <= k <= dec.q:
        raise InvalidArgumentError(f"level {k} out of range")
    if not 0 <= i < dec.level_dim(k):
        raise InvalidArgumentError(f"vector index {i} out of range at level {k}")
    psi, _ = wavelet_vectors(dec, k)
    vec = np.asarray(psi[i]).ravel()
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
        "tracked": dec.tracked,
    }
    for k in range(1, dec.q + 1):
        dump_coordinate(dec.A[k], os.path.join(dirpath, f"A_{k}.txt"))
    for k in range(2, dec.q + 1):
        dump_coordinate(dec.B[k], os.path.join(dirpath, f"B_{k}.txt"))
        dump_coordinate(dec.R[k], os.path.join(dirpath, f"R_{k}.txt"))
    if dec.tracked:
        for k in range(1, dec.q + 1):
            psi = dec.Psi[k]
            op = psi if isinstance(psi, SparseOperator) \
                else SparseOperator.from_dense(psi)
            dump_coordinate(op, os.path.join(dirpath, f"Psi_{k}.txt"))
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
                               shape=(sizes[k], sizes[k]), symmetric=True)
    for k in range(2, q + 1):
        B[k] = load_coordinate(os.path.join(dirpath, f"B_{k}.txt"),
                               shape=(hier.Ws[k].nrows, hier.Ws[k].nrows),
                               symmetric=True)
        R[k] = load_coordinate(os.path.join(dirpath, f"R_{k}.txt"),
                               shape=(sizes[k - 1], sizes[k]))
    Psi = None
    if manifest.get("tracked"):
        Psi = {}
        for k in range(1, q + 1):
            op = load_coordinate(os.path.join(dirpath, f"Psi_{k}.txt"),
                                 shape=(sizes[k], sizes[q]))
            Psi[k] = op if k == q else op.to_dense()
    return GambletDecomposition(
        q=q, A=A, B=B, R=R, hierarchy=hier, mode=manifest["mode"],
        radius=manifest["radius"], droptol=manifest["droptol"],
        variant=manifest.get("variant", "adapted"), Psi=Psi)
