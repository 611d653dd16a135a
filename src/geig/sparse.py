"""Sparse symmetric storage plus the dense solvers the hierarchy rests on.

Everything downstream (transform, multigrid, eigensolvers) moves matrices
through this module: CSR matrix-vector products, Galerkin triple products
R A R^T, small dense symmetric generalized eigensolves and a direct solver
for coarsest-level systems.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import InvalidArgumentError, LoadError, NotPositiveDefiniteError

_SYM_RTOL = 1e-12

# Operands denser than this are multiplied through dense BLAS inside
# galerkin_triple; exact-mode level matrices fill in completely and
# sparse-sparse products on them are far slower than GEMM.
_DENSE_FILL_THRESHOLD = 0.2
_DENSE_SIZE_LIMIT = 5000


def _index_dtype(nrows, ncols, nnz):
    """The index dtype SciPy's CSR picks: int32 when every index fits."""
    if max(nrows, ncols, nnz) <= np.iinfo(np.int32).max:
        return np.int32
    return np.int64


class SparseOperator:
    """Immutable CSR matrix with sorted column indices.

    Parameters
    ----------
    nrows, ncols : int
        Matrix shape.
    row_offsets : integer array, length nrows + 1, nondecreasing.
    col_indices : integer array, strictly increasing within each row.
    values : array of float64.

    Both index arrays are stored in the dtype SciPy's CSR uses for them
    (int32 when nnz and the shape fit, int64 otherwise), so the CSR matrix
    of :meth:`to_scipy` shares them instead of holding a second copy.
    """

    __slots__ = ("nrows", "ncols", "row_offsets", "col_indices", "values",
                 "_csr", "_triangles", "_diag", "_lower_lu")

    def __init__(self, nrows, ncols, row_offsets, col_indices, values,
                 _validate=True):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        index_dtype = _index_dtype(self.nrows, self.ncols, len(self.values))
        self.row_offsets = np.ascontiguousarray(row_offsets, dtype=index_dtype)
        self.col_indices = np.ascontiguousarray(col_indices, dtype=index_dtype)
        self._csr = None
        self._triangles = None
        self._diag = None
        self._lower_lu = None
        if _validate:
            self._validate_structure()

    def _validate_structure(self):
        ro = self.row_offsets
        if ro.shape != (self.nrows + 1,):
            raise InvalidArgumentError(
                f"row_offsets has length {ro.shape[0]}, expected nrows+1={self.nrows + 1}")
        if ro[0] != 0 or ro[-1] != len(self.col_indices):
            raise InvalidArgumentError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(ro) < 0):
            raise InvalidArgumentError("row_offsets must be nondecreasing")
        if len(self.col_indices) != len(self.values):
            raise InvalidArgumentError("col_indices and values length mismatch")
        if len(self.col_indices) and (
                self.col_indices.min() < 0 or self.col_indices.max() >= self.ncols):
            raise InvalidArgumentError("column index out of range")
        # strictly increasing columns inside each row
        if len(self.col_indices) > 1:
            interior = np.diff(self.col_indices) <= 0
            row_starts = np.zeros(len(self.col_indices), dtype=bool)
            starts = ro[1:-1]
            row_starts[starts[starts < len(self.col_indices)]] = True
            if np.any(interior & ~row_starts[1:]):
                raise InvalidArgumentError("col_indices must be strictly increasing per row")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_scipy(cls, mat):
        csr = scipy.sparse.csr_matrix(mat)
        csr.sort_indices()
        csr.sum_duplicates()
        return cls(csr.shape[0], csr.shape[1], csr.indptr.copy(),
                   csr.indices.copy(), csr.data.astype(np.float64),
                   _validate=False)

    @classmethod
    def from_dense(cls, arr, keep_zeros=False):
        arr = np.asarray(arr, dtype=np.float64)
        if keep_zeros:
            nrows, ncols = arr.shape
            ro = np.arange(nrows + 1, dtype=np.int64) * ncols
            ci = np.tile(np.arange(ncols, dtype=np.int64), nrows)
            return cls(nrows, ncols, ro, ci, arr.ravel().copy(), _validate=False)
        return cls.from_scipy(scipy.sparse.csr_matrix(arr))

    @classmethod
    def from_coo(cls, rows, cols, vals, shape):
        coo = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=shape)
        return cls.from_scipy(coo)

    @classmethod
    def identity(cls, n):
        ro = np.arange(n + 1, dtype=np.int64)
        ci = np.arange(n, dtype=np.int64)
        return cls(n, n, ro, ci, np.ones(n), _validate=False)

    @classmethod
    def from_diagonal(cls, d):
        d = np.asarray(d, dtype=np.float64)
        n = len(d)
        ro = np.arange(n + 1, dtype=np.int64)
        ci = np.arange(n, dtype=np.int64)
        return cls(n, n, ro, ci, d.copy(), _validate=False)

    # -- views -------------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def nnz(self):
        return len(self.values)

    def to_scipy(self):
        if self._csr is None:
            self._csr = scipy.sparse.csr_matrix(
                (self.values, self.col_indices, self.row_offsets),
                shape=(self.nrows, self.ncols))
        return self._csr

    def to_dense(self):
        return self.to_scipy().toarray()

    def strict_triangles(self):
        """(L, U): the strictly lower and upper triangles of a symmetric
        matrix, as SciPy matrices.

        U is a CSR copy, made once; L is its transposed view, which uses
        the symmetry L = U^T and shares U's arrays.
        """
        if self._triangles is None:
            upper = scipy.sparse.triu(self.to_scipy(), k=1, format="csr")
            self._triangles = (upper.T, upper)
        return self._triangles

    def diagonal(self):
        if self._diag is None:
            self._diag = self.to_scipy().diagonal().astype(np.float64)
        return self._diag

    def lower_triangle_lu(self):
        """SuperLU factor of the lower triangle D + L, in natural order.

        The Gauss-Seidel sweep solves with it.  SuperLU is asked for no
        column ordering and always takes the diagonal pivot, so both its
        permutations are the identity and its solves visit the rows in
        Gauss-Seidel order.

        Raises
        ------
        InvalidArgumentError
            If a diagonal entry is zero, or if SuperLU reordered the rows
            or columns anyway.
        """
        if self._lower_lu is None:
            zero_rows = np.flatnonzero(self.diagonal() == 0.0)
            if len(zero_rows):
                raise InvalidArgumentError(
                    f"Gauss-Seidel needs a nonzero diagonal; row {zero_rows[0]} "
                    "has a zero diagonal entry")
            lu = scipy.sparse.linalg.splu(
                scipy.sparse.tril(self.to_scipy(), format="csc"),
                permc_spec="NATURAL", diag_pivot_thresh=0.0)
            natural = np.arange(self.nrows)
            if not (np.array_equal(lu.perm_r, natural)
                    and np.array_equal(lu.perm_c, natural)):
                raise InvalidArgumentError(
                    "the factor of the lower triangle is not in natural order, "
                    "so its solves would not be Gauss-Seidel sweeps")
            self._lower_lu = lu
        return self._lower_lu

    def row(self, i):
        lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
        return self.col_indices[lo:hi], self.values[lo:hi]

    def fill_fraction(self):
        denom = max(1, self.nrows * self.ncols)
        return self.nnz / denom

    def __repr__(self):
        return f"SparseOperator({self.nrows}x{self.ncols}, nnz={self.nnz})"

    def matvec(self, x):
        return spmv(self, x)

    def rmatvec(self, x):
        """y = A^T x, through SciPy's transposed view of the CSR.

        Raises
        ------
        InvalidArgumentError
            If len(x) != A.nrows.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.nrows,):
            raise InvalidArgumentError(
                f"rmatvec: x has shape {x.shape}, operator has {self.nrows} rows")
        return self.to_scipy().T @ x


def spmv(A, x):
    """Sparse matrix-vector product y = A x, through SciPy's CSR product.

    Raises
    ------
    InvalidArgumentError
        If len(x) != A.ncols.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.ncols,):
        raise InvalidArgumentError(
            f"spmv: x has shape {x.shape}, operator has {A.ncols} columns")
    return A.to_scipy() @ x


def check_symmetric(A, rtol=_SYM_RTOL):
    """True when max |A - A^T| <= rtol * max |A|."""
    if A.nrows != A.ncols:
        return False
    d = A.to_scipy() - A.to_scipy().T
    if d.nnz == 0:
        return True
    scale = np.abs(A.values).max() if A.nnz else 0.0
    return np.abs(d.data).max() <= rtol * max(scale, 1e-300)


def galerkin_triple(R, A):
    """Galerkin triple product R A R^T with the exact product pattern.

    No entries are dropped.  For symmetric A the result is symmetrized
    exactly (half-sum with its transpose, which only rearranges roundoff).
    """
    if R.ncols != A.nrows or A.nrows != A.ncols:
        raise InvalidArgumentError(
            f"galerkin_triple: R is {R.shape}, A is {A.shape}")
    dense_ok = R.nrows <= _DENSE_SIZE_LIMIT and A.nrows <= _DENSE_SIZE_LIMIT
    R_sp = R.to_scipy()
    if dense_ok and R.fill_fraction() > _DENSE_FILL_THRESHOLD:
        Rd = R.to_dense()
        P = Rd @ (A.to_scipy() @ Rd.T)
    elif dense_ok and A.fill_fraction() > _DENSE_FILL_THRESHOLD:
        # R (R A)^T is R A^T R^T, whose half-sum is that of R A R^T; R
        # stays sparse
        P = R_sp @ (R_sp @ A.to_dense()).T
    else:
        prod = (R_sp @ A.to_scipy()) @ R_sp.T
        prod = 0.5 * (prod + prod.T)
        return SparseOperator.from_scipy(prod.tocsr())
    P = 0.5 * (P + P.T)
    return SparseOperator.from_dense(P, keep_zeros=True)


class DenseEigResult:
    """All eigenpairs of K x = lambda M x, ascending.

    ``vectors`` are M-orthonormal columns; ``vectors_energy`` rescale each
    column to x^T K x = 1 (left untouched when that quadratic form is not
    positive).
    """

    __slots__ = ("lambdas", "vectors", "vectors_energy")

    def __init__(self, lambdas, vectors, vectors_energy):
        self.lambdas = lambdas
        self.vectors = vectors
        self.vectors_energy = vectors_energy

    def __iter__(self):
        return iter(zip(self.lambdas, self.vectors.T))

    def __len__(self):
        return len(self.lambdas)


def dense_sym_geig(K, M=None):
    """Solve the dense symmetric generalized problem K x = lambda M x with
    LAPACK (``scipy.linalg.eigh``).  ``M=None`` means identity.

    Raises
    ------
    NotPositiveDefiniteError
        When M is not SPD.
    """
    Kd = np.asarray(K, dtype=np.float64)
    try:
        lams, x = scipy.linalg.eigh(Kd, M)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("mass matrix is not SPD") from exc
    energies = np.einsum("ij,ij->j", x, Kd @ x)
    xe = x.copy()
    pos = energies > 0
    xe[:, pos] = x[:, pos] / np.sqrt(energies[pos])
    return DenseEigResult(lams, x, xe)


def make_direct_solver(A):
    """Factorize SPD A once; returns a callable b -> x with one refinement step.

    Dense Cholesky up to 1200 unknowns, SuperLU above.

    Raises
    ------
    NotPositiveDefiniteError
        When the dense Cholesky factorization fails.
    """
    if A.nrows > 1200:
        lu = scipy.sparse.linalg.splu(A.to_scipy().tocsc())
        csr = A.to_scipy()

        def solve_sparse(b):
            x = lu.solve(b)
            if not np.all(np.isfinite(x)):
                raise NotPositiveDefiniteError("sparse factorization failed")
            return x + lu.solve(b - csr @ x)

        return solve_sparse
    Ad = A.to_dense()
    try:
        L = np.linalg.cholesky(Ad)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not SPD") from exc

    def solve_dense(b):
        y = scipy.linalg.solve_triangular(L, b, lower=True)
        x = scipy.linalg.solve_triangular(L.T, y, lower=False)
        r = b - Ad @ x
        y = scipy.linalg.solve_triangular(L, r, lower=True)
        return x + scipy.linalg.solve_triangular(L.T, y, lower=False)

    return solve_dense


# -- coordinate text format ------------------------------------------------

def dump_coordinate(A, path):
    """Write one "i j value" line per stored entry, 0-based, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        ro, ci, vals = A.row_offsets, A.col_indices, A.values
        for i in range(A.nrows):
            for k in range(ro[i], ro[i + 1]):
                fh.write(f"{i} {ci[k]} {vals[k]:.17g}\n")


def load_coordinate(path, shape):
    """Read a :func:`dump_coordinate` file as a ``shape`` matrix.  A line
    that is not "i j value", has an index outside ``shape`` or a value that
    is not finite raises LoadError naming ``path:line``."""
    rows, cols, vals = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                i, j, v = parts
                i, j, v = int(i), int(j), float(v)
            except ValueError:
                raise LoadError(f"{path}:{ln}: expected 'i j value'") from None
            if not (0 <= i < shape[0] and 0 <= j < shape[1]):
                raise LoadError(
                    f"{path}:{ln}: index ({i}, {j}) outside the "
                    f"{shape[0]}x{shape[1]} matrix")
            if not math.isfinite(v):
                raise LoadError(f"{path}:{ln}: value {v!r} is not finite")
            rows.append(i)
            cols.append(j)
            vals.append(v)
    return SparseOperator.from_coo(rows, cols, vals, shape)
