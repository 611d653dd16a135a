"""Independent oracles shared by the test suite.

Everything here is deliberately brute-force (dense algebra, closed forms,
enumeration) and never calls the code paths it is used to check.
"""

import numpy as np


def random_spd(n, rng, scale=1.0):
    """Well-conditioned random SPD matrix."""
    q = rng.standard_normal((n, n))
    return scale * (q @ q.T + n * np.eye(n))


def dense_matvec(dense, x):
    """Row-by-row dense product, the brute-force spmv reference."""
    return np.array([row @ x for row in dense])


def reference_gauss_seidel_sweep(dense, x, b, reverse=False):
    """One in-place Gauss-Seidel sweep for dense A x = b, row by row."""
    n = len(b)
    for i in (range(n - 1, -1, -1) if reverse else range(n)):
        x[i] += (b[i] - dense[i] @ x) / dense[i, i]


def reference_v_cycle(A, R, k, z0, g, m1, m2, p, variant, symmetric):
    """One level-k multigrid cycle from dense matrices, textbook form.

    ``A[j]`` is the dense level-j matrix and ``R[j]`` the dense
    interpolation from level j-1 onto level j.  Level 1 is solved with
    ``np.linalg.solve``.  The smoother is ``reference_gauss_seidel_sweep``:
    m1 forward sweeps, the residual at the initial iterate
    ("initial_residual") or after them ("presmoothed") restricted by R,
    p recursive cycles from zero, the correction prolongated by R^T, then
    m2 sweeps, reversed when ``symmetric``.
    """
    if k == 1:
        return np.linalg.solve(A[1], g)
    z = np.array(z0, dtype=np.float64)
    for _ in range(m1):
        reference_gauss_seidel_sweep(A[k], z, g)
    base = z0 if variant == "initial_residual" else z
    g_coarse = R[k] @ (g - A[k] @ base)
    q = np.zeros(len(g_coarse))
    for _ in range(p):
        q = reference_v_cycle(A, R, k - 1, q, g_coarse, m1, m2, p, variant,
                              symmetric)
    z = z + R[k].T @ q
    for _ in range(m2):
        reference_gauss_seidel_sweep(A[k], z, g, reverse=symmetric)
    return z


def tensor_product_eigenvalues(n_cells, count):
    """Closed-form discrete generalized eigenvalues for the unit-coefficient
    bilinear FEM Laplacian on [-1, 1]^2 with n_cells per side.

    Built from the 1-D tridiagonal stiffness/mass pencils: the 2-D values are
    all pairwise sums of the 1-D generalized eigenvalues.
    """
    h = 2.0 / n_cells
    theta = np.arange(1, n_cells) * np.pi / n_cells
    mu = (6.0 / h**2) * (1.0 - np.cos(theta)) / (2.0 + np.cos(theta))
    lam2d = np.sort(np.add.outer(mu, mu).ravel())
    return lam2d[:count]


def dense_generalized_eig(K, M):
    """All eigenpairs of K x = lambda M x via LAPACK, ascending."""
    import scipy.linalg

    lams, vecs = scipy.linalg.eigh(np.asarray(K), np.asarray(M))
    return lams, vecs


def tridiag_laplacian_spectrum(n):
    """Eigenvalues of tridiag(-1, 2, -1) of size n."""
    return 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))


def reference_localized_interpolation(A, W, pi, parents, rad):
    """Localized interpolation rows by dense solves on lattice balls.

    ``A``, ``W`` and ``pi`` are dense; ``parents[j]`` is the coarse cell,
    numbered row-major on a square lattice, that wavelet j belongs to.  Row
    i is pi_i - y^T W[ball] with B[ball, ball] y = (W A pi_i^T)[ball], B =
    W A W^T and ball the wavelets whose parent lies within ``rad`` cells of
    cell i in both lattice directions.  Nothing is dropped.
    """
    n_coarse = pi.shape[0]
    side = int(round(np.sqrt(n_coarse)))
    assert side * side == n_coarse
    B = W @ A @ W.T
    R = pi.copy()
    for i in range(n_coarse):
        iy, ix = divmod(i, side)
        ball = [j for j, par in enumerate(parents)
                if max(abs(par // side - iy), abs(par % side - ix)) <= rad]
        rhs = (W @ (A @ pi[i]))[ball]
        y = np.linalg.solve(B[np.ix_(ball, ball)], rhs)
        R[i] -= y @ W[ball]
    return R
