"""The Gauss-Seidel smoother in splitting form, one triangular solve per sweep.

With A = L + D + U (strictly lower, diagonal, strictly upper) and the
operator's cached SuperLU factor of its lower triangle D + L:

    forward:  solve (D + L) x' = b - U x,  then  L x' = (b - U x) - D x'
    reverse:  solve (D + U) x' = b - L x,  then  U x' = (b - L x) - D x'

The reverse solve uses the symmetry of A: (D + L)^T = D + U.  Each gives,
up to rounding, the iterate of the row-by-row sweep in its order.  A sweep
reads one triangle product, U x forward or L x reverse, and hands on the
other one for its new iterate at the cost of a vector operation: that is
the product the sweep in the opposite direction reads.  The triangles are
the operator's cached strict upper triangle U in CSR and its transposed
view L = U^T.
"""


def gauss_seidel_sweep(A, x, b, reverse=False, product=None):
    """One in-place Gauss-Seidel sweep for symmetric A x = b.

    Rows are visited in ascending order (descending when ``reverse``); the
    diagonal of A must be nonzero.  ``product`` is the triangle product of
    the incoming x that the sweep reads, U x forward or L x reverse, or 0.0
    when x is zero; it is computed when not given.  Returns the other
    triangle's product with the new x: L x forward, U x reverse.
    """
    lu = A.lower_triangle_lu()
    if product is None:
        lower, upper = A.strict_triangles()
        product = (lower if reverse else upper) @ x
    rhs = b - product
    x[:] = lu.solve(rhs, trans="T" if reverse else "N")
    return rhs - A.diagonal() * x
