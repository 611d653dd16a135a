"""The Gauss-Seidel smoother, as one sparse triangular solve per sweep.

With A = L + D + U (strictly lower, diagonal, strictly upper) and the
operator's cached unit lower triangle T = I + L D^-1, so that D + L = T D:

    forward:  x += D^-1 T^-1 (b - A x)
    reverse:  x += T^-T D^-1 (b - A x)

The reverse form uses the symmetry of A: D + U = D (I + D^-1 U) and
D^-1 U = (L D^-1)^T, hence (D + U)^-1 = T^-T D^-1.  Each gives, up to
rounding, the iterate of the row-by-row sweep in its order.
"""

from scipy.sparse.linalg import spsolve_triangular


def gauss_seidel_sweep(A, x, b, reverse=False):
    """One in-place Gauss-Seidel sweep for symmetric A x = b.

    Rows are visited in ascending order (descending when ``reverse``); the
    diagonal of A must be nonzero.
    """
    d = A.diagonal()
    T = A.unit_lower_triangle()
    r = b - A.to_scipy() @ x
    if reverse:
        x += spsolve_triangular(T.T, r / d, lower=False, unit_diagonal=True)
    else:
        x += spsolve_triangular(T, r, lower=True, unit_diagonal=True) / d
