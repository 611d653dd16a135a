"""Dyadic label hierarchy: nested cell partitions, Haar nesting matrices,
and cellular orthonormal complement matrices.

Levels 1..q-1 of a hierarchy are uniform partitions of the domain into
2^d x 2^d squares (one dyadic depth per level, consecutive depths); level q
is the fine FEM node set itself, reached through a node-aggregation matrix
whose rows are the normalized indicator vectors of the deepest cells.  The
depths are anchored at the fine end, so the deepest cell level always sits
just above the nodes and the coarsest level dimension grows as q shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .sparse import SparseOperator

# Fixed orthonormal kernel basis for a parent with four equal-weight
# children; rows are orthogonal to (1,1,1,1)/2 and to each other.
_QUAD_KERNEL = np.array([
    [0.5, 0.5, -0.5, -0.5],
    [0.5, -0.5, 0.5, -0.5],
    [0.5, -0.5, -0.5, 0.5],
])


def kernel_complement_rows(c):
    """Deterministic (c-1) x c orthonormal basis of the kernel of the
    all-equal row vector; the four-child case uses a fixed Haar-like block,
    other counts use Helmert rows."""
    if c < 1:
        raise InvalidArgumentError("parent must own at least one child")
    if c == 1:
        return np.zeros((0, 1))
    if c == 4:
        return _QUAD_KERNEL.copy()
    rows = np.zeros((c - 1, c))
    for j in range(1, c):
        scale = 1.0 / np.sqrt(j * (j + 1.0))
        rows[j - 1, :j] = scale
        rows[j - 1, j] = -j * scale
    return rows


@dataclass(frozen=True)
class LevelLabels:
    """Cells of one dyadic partition level, indexed row-major (y outer)."""

    depth: int

    @property
    def cells_per_side(self):
        return 2 ** self.depth

    @property
    def n_cells(self):
        return 4 ** self.depth

    def cell_centers(self):
        side = 2.0 / self.cells_per_side
        ticks = -1.0 + side * (np.arange(self.cells_per_side) + 0.5)
        xx, yy = np.meshgrid(ticks, ticks)
        return np.column_stack([xx.ravel(), yy.ravel()])


def haar_nesting(depth):
    """Nesting matrix between cell depth ``depth`` and ``depth + 1``.

    Shape 4^depth x 4^(depth+1); each parent row holds its four children
    with weight 1/2 (equal dyadic volumes), so rows are orthonormal.
    """
    s = 2 ** depth
    parents = np.arange(4 ** depth)
    py, px = np.divmod(parents, s)
    child_side = 2 * s
    rows = np.repeat(parents, 4)
    offs = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])
    cols = np.concatenate([
        ((2 * py + dy) * child_side + (2 * px + dx))[:, None]
        for dx, dy in offs], axis=1).ravel()
    vals = np.full(rows.shape, 0.5)
    return SparseOperator.from_coo(rows, cols, vals,
                                   shape=(4 ** depth, 4 ** (depth + 1)))


def node_aggregation(depth, grid):
    """Aggregation matrix from depth-``depth`` cells onto interior FEM nodes.

    A node belongs to the cell containing its lower-left incident grid cell;
    each row carries equal weights normalized to unit Euclidean norm, so the
    rows are orthonormal.  Every cell must own at least one node, which
    holds whenever cells span at least two grid cells per side.
    """
    n = grid.n_cells
    cells_side = 2 ** depth
    m = n // cells_side
    if m * cells_side != n:
        raise InvalidArgumentError(
            f"depth {depth} does not tile a {n}-cell grid")
    ni = grid.n_interior
    nodes = np.arange(grid.n_unknowns)
    iy, ix = np.divmod(nodes, ni)
    owner = ((iy) // m) * cells_side + (ix // m)  # grid cell (ix, iy) zero-based
    counts = np.bincount(owner, minlength=cells_side ** 2)
    if np.any(counts == 0):
        raise InvalidArgumentError(
            f"depth {depth} leaves cells without interior nodes on a "
            f"{n}-cell grid; coarsen by one level")
    order = np.argsort(owner, kind="stable")
    cols = nodes[order]
    vals = (1.0 / np.sqrt(counts.astype(np.float64)))[owner[order]]
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return SparseOperator(cells_side ** 2, grid.n_unknowns,
                          offsets, cols, vals)


def build_W(pi):
    """Orthonormal complement of a cellular nesting matrix.

    For every parent row of ``pi`` (equal weights over its children) the
    complement holds a deterministic orthonormal kernel basis of that row,
    giving W pi^T = 0 and W W^T = I.  Returns the complement and the parent
    index of each complement row.
    """
    blocks_rows = []
    blocks_cols = []
    blocks_vals = []
    parents = []
    out_row = 0
    for i in range(pi.nrows):
        cols, vals = pi.row(i)
        c = len(cols)
        if c == 0:
            raise InvalidArgumentError(f"parent {i} owns no children")
        if np.max(vals) - np.min(vals) > 1e-14 * np.max(np.abs(vals)):
            raise InvalidArgumentError(
                f"parent {i} has unequal child weights; cellular complement "
                "is only defined for equal-weight blocks")
        kern = kernel_complement_rows(c)
        for r in range(c - 1):
            blocks_rows.append(np.full(c, out_row))
            blocks_cols.append(cols)
            blocks_vals.append(kern[r])
            parents.append(i)
            out_row += 1
    if out_row == 0:
        raise InvalidArgumentError("nesting matrix admits no complement rows")
    W = SparseOperator.from_coo(np.concatenate(blocks_rows),
                                np.concatenate(blocks_cols),
                                np.concatenate(blocks_vals),
                                shape=(out_row, pi.ncols))
    return W, np.asarray(parents, dtype=np.int64)


def aggregate(pis, k):
    """Composite measurement matrix from level k onto the finest index set:
    the chain product pi(k,k+1) ... pi(q-1,q).  k = q gives the identity."""
    q = len(pis) + 1
    if not 1 <= k <= q:
        raise InvalidArgumentError(f"level {k} out of range 1..{q}")
    if k == q:
        return SparseOperator.identity(pis[-1].ncols if pis else 0)
    mat = pis[k - 1].to_scipy()
    for j in range(k, q - 1):
        mat = mat @ pis[j].to_scipy()
    return SparseOperator.from_scipy(mat)


@dataclass
class Hierarchy:
    """Label sets and transfer matrices for a q-level decomposition.

    ``pis[k-1]`` is the nesting matrix from level k onto level k+1 for
    k = 1..q-1 (the last one aggregates cells onto fine nodes); ``Ws[k]``
    is the complement matrix at level k for k = 2..q.
    """

    grid: object
    q: int
    labels: list
    pis: list
    Ws: dict
    wavelet_parent: dict = field(default_factory=dict)

    @property
    def n_fine(self):
        return self.grid.n_unknowns

    def level_dim(self, k):
        return level_dim(k, self.q, self.grid.n_cells)

    def level_depth(self, k):
        """Dyadic depth of the cell lattice behind level k; the node level
        reports one deeper than the deepest cell level."""
        if k == self.q:
            return (self.labels[-1].depth + 1) if self.labels else 0
        return self.labels[k - 1].depth

    def level_cell_side(self, k):
        return 2.0 / (2 ** self.level_depth(k))

    def level_centers(self, k):
        if k == self.q:
            return self.grid.interior_coords()
        return self.labels[k - 1].cell_centers()

    def aggregate(self, k):
        if self.q == 1:
            return SparseOperator.identity(self.n_fine)
        return aggregate(self.pis, k)


def cell_depths(q, n_cells):
    """Dyadic depths of cell levels 1..q-1 of a q-level hierarchy on a grid
    with ``n_cells`` cells per side, coarsest first.

    The deepest cell level spans two or more grid cells per side, and
    coarser levels halve from there.  Raises InvalidArgumentError unless
    q >= 1 and 2^q divides ``n_cells``.
    """
    if q < 1:
        raise InvalidArgumentError("need at least one level")
    if n_cells % (2 ** q) != 0:
        raise InvalidArgumentError(
            f"grid_n={n_cells} not divisible by 2^levels={2 ** q}")
    v = 0
    nn = n_cells
    while nn % 2 == 0:
        nn //= 2
        v += 1
    dmax = v - 1 if nn == 1 else v
    return list(range(dmax - q + 2, dmax + 1))


def level_dim(k, q, n_cells):
    """Dimension of level k of a q-level hierarchy on a grid with
    ``n_cells`` cells per side, without building the hierarchy: the
    interior node count (n_cells - 1)^2 at level q, the cell count of the
    level's depth below it."""
    if k == q:
        return (n_cells - 1) ** 2
    return 4 ** cell_depths(q, n_cells)[k - 1]


def build_hierarchy(q, grid):
    """Build the q-level hierarchy for a grid whose cell count is divisible
    by 2^q.

    Cell depths are those of :func:`cell_depths`; level q is the fine node
    set.
    """
    depths = cell_depths(q, grid.n_cells)
    if q == 1:
        return Hierarchy(grid=grid, q=1, labels=[], pis=[], Ws={})
    labels = [LevelLabels(d) for d in depths]
    pis = [haar_nesting(labels[i].depth) for i in range(q - 2)]
    pis.append(node_aggregation(labels[-1].depth, grid))
    Ws = {}
    parents = {}
    for k in range(2, q + 1):
        W, par = build_W(pis[k - 2])
        Ws[k] = W
        parents[k] = par
    return Hierarchy(grid=grid, q=q, labels=labels, pis=pis, Ws=Ws,
                     wavelet_parent=parents)
