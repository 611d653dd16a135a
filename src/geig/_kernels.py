"""The Gauss-Seidel smoother, as one sparse triangular solve per sweep.

With A = L + D + U (strictly lower, diagonal, strictly upper) and the
operator's cached SuperLU factor of its lower triangle D + L:

    forward:  x += (D + L)^-1 (b - A x)
    reverse:  x += (D + L)^-T (b - A x)

The reverse form uses the symmetry of A: (D + L)^T = D + U.  Each gives, up
to rounding, the iterate of the row-by-row sweep in its order.
"""


def gauss_seidel_sweep(A, x, b, reverse=False):
    """One in-place Gauss-Seidel sweep for symmetric A x = b.

    Rows are visited in ascending order (descending when ``reverse``); the
    diagonal of A must be nonzero.
    """
    r = b - A.to_scipy() @ x
    x += A.lower_triangle_lu().solve(r, trans="T" if reverse else "N")
