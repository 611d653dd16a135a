"""Bilinear finite elements on a uniform grid over [-1, 1]^2.

Assembles the stiffness-plus-potential and mass matrices of
-div(a grad u) + V u with homogeneous Dirichlet conditions, for cellwise
constant coefficient fields, and generates the random fields used in the
experiments (high-contrast checkerboards and disorder potentials).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidArgumentError, LoadError
from .sparse import SparseOperator

# Element matrices for a bilinear quadrilateral on an h x h square, local
# node order SW, SE, NE, NW.  The stiffness block is h-independent in 2-D;
# both are exact (no quadrature error).
_ELEM_STIFFNESS = np.array([
    [4.0, -1.0, -2.0, -1.0],
    [-1.0, 4.0, -1.0, -2.0],
    [-2.0, -1.0, 4.0, -1.0],
    [-1.0, -2.0, -1.0, 4.0],
]) / 6.0

_ELEM_MASS = np.array([
    [4.0, 2.0, 1.0, 2.0],
    [2.0, 4.0, 2.0, 1.0],
    [1.0, 2.0, 4.0, 2.0],
    [2.0, 1.0, 2.0, 4.0],
]) / 36.0


@dataclass(frozen=True)
class Grid:
    """Uniform n x n cell grid on [-1, 1]^2; nodes on the lattice, interior
    nodes are the eigenproblem unknowns."""

    n_cells: int

    def __post_init__(self):
        if self.n_cells < 2:
            raise InvalidArgumentError("grid needs at least 2 cells per side")

    @property
    def h(self):
        return 2.0 / self.n_cells

    @property
    def n_interior(self):
        return self.n_cells - 1

    @property
    def n_unknowns(self):
        return self.n_interior ** 2

    def interior_coords(self):
        """(N, 2) physical coordinates of the interior nodes, flat order."""
        ticks = -1.0 + self.h * np.arange(1, self.n_cells)
        xx, yy = np.meshgrid(ticks, ticks)
        return np.column_stack([xx.ravel(), yy.ravel()])


@dataclass
class CoefficientField:
    """Cellwise-constant conductivity a (> 0) and optional potential V (>= 0).

    Arrays are indexed [iy, ix] with the y index ascending, matching the
    row-major text format.
    """

    a: np.ndarray
    potential: Optional[np.ndarray] = None

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        if self.a.ndim != 2:
            raise InvalidArgumentError("coefficient array must be 2-D")
        if not np.all(np.isfinite(self.a)) or np.any(self.a <= 0):
            raise InvalidArgumentError("conductivity values must be finite and positive")
        if self.potential is not None:
            self.potential = np.asarray(self.potential, dtype=np.float64)
            if self.potential.shape != self.a.shape:
                raise InvalidArgumentError("potential shape must match conductivity")
            if not np.all(np.isfinite(self.potential)) or np.any(self.potential < 0):
                raise InvalidArgumentError("potential values must be finite and nonnegative")

    @classmethod
    def constant(cls, grid, value=1.0):
        n = grid.n_cells
        return cls(np.full((n, n), float(value)))

    def contrast(self):
        return float(self.a.max() / self.a.min())


class ProblemMatrices(NamedTuple):
    K: SparseOperator
    M: SparseOperator


def assemble(grid, field):
    """Assemble interior-node stiffness (+ potential) and mass matrices.

    K_ij = sum_cells a_cell * gradphi_i . grad phi_j + V_cell * phi_i phi_j,
    M_ij = sum_cells phi_i phi_j, with boundary rows and columns eliminated.
    Both matrices carry the 9-point stencil sparsity of bilinear elements.
    """
    n = grid.n_cells
    if field.a.shape != (n, n):
        raise InvalidArgumentError(
            f"field has shape {field.a.shape}, grid expects {(n, n)}")
    h = grid.h
    pot = field.potential

    # local corner offsets in (dx, dy), order SW, SE, NE, NW
    corner_dx = np.array([0, 1, 1, 0])
    corner_dy = np.array([0, 0, 1, 1])

    cx, cy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    cx = cx.ravel()
    cy = cy.ravel()
    a_vals = field.a[cy, cx]
    v_vals = pot[cy, cx] if pot is not None else None

    # global node coordinates per cell corner; boundary nodes map to -1
    node_ids = np.empty((n * n, 4), dtype=np.int64)
    for loc in range(4):
        gx = cx + corner_dx[loc]
        gy = cy + corner_dy[loc]
        interior = (gx >= 1) & (gx <= n - 1) & (gy >= 1) & (gy <= n - 1)
        ids = (gy - 1) * (n - 1) + (gx - 1)
        node_ids[:, loc] = np.where(interior, ids, -1)

    mass_block = _ELEM_MASS * h * h
    rows, cols, k_data, m_data = [], [], [], []
    for i_loc in range(4):
        for j_loc in range(4):
            ii = node_ids[:, i_loc]
            jj = node_ids[:, j_loc]
            keep = (ii >= 0) & (jj >= 0)
            if not np.any(keep):
                continue
            rows.append(ii[keep])
            cols.append(jj[keep])
            ke = a_vals[keep] * _ELEM_STIFFNESS[i_loc, j_loc]
            if v_vals is not None:
                ke = ke + v_vals[keep] * mass_block[i_loc, j_loc]
            k_data.append(ke)
            m_data.append(np.full(keep.sum(), mass_block[i_loc, j_loc]))

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    nunk = grid.n_unknowns
    K = SparseOperator.from_coo(rows, cols, np.concatenate(k_data),
                                shape=(nunk, nunk))
    M = SparseOperator.from_coo(rows, cols, np.concatenate(m_data),
                                shape=(nunk, nunk))
    return ProblemMatrices(K, M)


def _block_layout(eps, grid):
    """Blocks per side and cells per block for scale eps (fraction of the
    domain side).  Errors unless eps tiles the cell structure exactly."""
    if not 0.0 < eps <= 1.0:
        raise InvalidArgumentError(f"eps={eps} must lie in (0, 1]")
    blocks = 1.0 / eps
    if abs(blocks - round(blocks)) > 1e-9:
        raise InvalidArgumentError(f"eps={eps} must divide the domain side evenly")
    blocks = int(round(blocks))
    if grid.n_cells % blocks != 0:
        raise InvalidArgumentError(
            f"eps={eps} gives {blocks} blocks per side, which does not tile "
            f"a {grid.n_cells}-cell grid")
    return blocks, grid.n_cells // blocks


def nearest_dyadic_eps(eps):
    """Snap a scale to the nearest power of two 1/2^k."""
    k = int(round(np.log2(1.0 / eps)))
    return 1.0 / (2 ** max(k, 0))


def gen_checkerboard(seed, eps, lo, hi, grid):
    """I.i.d. per-block conductivity taking lo or hi with probability 1/2.

    The block scale eps is a fraction of the domain side; the same seed
    always reproduces the same field bit for bit.
    """
    if lo <= 0 or hi <= 0:
        raise InvalidArgumentError("checkerboard values must be positive")
    blocks, cells_per_block = _block_layout(eps, grid)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, 2, size=(blocks, blocks))
    block_vals = np.where(picks == 1, float(hi), float(lo))
    a = np.kron(block_vals, np.ones((cells_per_block, cells_per_block)))
    return CoefficientField(a)


def gen_anderson(seed, eps, alpha, beta, grid):
    """Disorder potential taking alpha or beta per eps-block, with a == 1."""
    if alpha < 0 or beta < 0:
        raise InvalidArgumentError("potential values must be nonnegative")
    blocks, cells_per_block = _block_layout(eps, grid)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, 2, size=(blocks, blocks))
    block_vals = np.where(picks == 1, float(beta), float(alpha))
    pot = np.kron(block_vals, np.ones((cells_per_block, cells_per_block)))
    ones = np.ones((grid.n_cells, grid.n_cells))
    return CoefficientField(ones, potential=pot)


def load_coefficient_file(path, component="conductivity"):
    """Read a whitespace-separated text field: line 1 is "nx ny", then
    nx*ny values row-major with the y index ascending.

    Values must be finite; conductivity files must be strictly positive and
    potential files nonnegative.  Errors name the offending line.
    """
    if component not in ("conductivity", "potential"):
        raise InvalidArgumentError(f"unknown component {component!r}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    header_ln = None
    nx = ny = None
    values = []
    value_lines = []
    for ln, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if header_ln is None:
            if len(parts) != 2:
                raise LoadError(f"{path}:{ln}: header must be 'nx ny'")
            try:
                nx, ny = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise LoadError(f"{path}:{ln}: header must be two integers") from exc
            header_ln = ln
            continue
        for tok in parts:
            try:
                values.append(float(tok))
            except ValueError as exc:
                raise LoadError(f"{path}:{ln}: not a number: {tok!r}") from exc
            value_lines.append(ln)
    if header_ln is None:
        raise LoadError(f"{path}: empty file")
    if len(values) != nx * ny:
        raise LoadError(
            f"{path}: expected {nx * ny} values for a {nx}x{ny} field, got {len(values)}")
    arr = np.array(values).reshape(ny, nx)
    for idx, val in enumerate(values):
        if not np.isfinite(val) or val < 0.0 or (val == 0.0 and component == "conductivity"):
            raise LoadError(
                f"{path}:{value_lines[idx]}: value {val!r} not allowed "
                f"for {component}")
    if component == "potential":
        return CoefficientField(np.ones_like(arr), potential=arr)
    return CoefficientField(arr)


def save_coefficient_file(field, path, component="conductivity"):
    arr = field.a if component == "conductivity" else field.potential
    ny, nx = arr.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{nx} {ny}\n")
        for row in arr:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
