"""The Gauss-Seidel sweep against the row-by-row reference sweep."""

import numpy as np
import pytest
import scipy.sparse.linalg

from geig._kernels import gauss_seidel_sweep
from geig.errors import InvalidArgumentError
from geig.sparse import SparseOperator

from _oracles import random_spd, reference_gauss_seidel_sweep
from test_sparse import contrast_stiffness


def make_dense(n, seed):
    rng = np.random.default_rng(seed)
    dense = random_spd(n, rng)
    dense[np.abs(dense) < np.quantile(np.abs(dense), 0.5)] = 0.0
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return 0.5 * (dense + dense.T)


def make_csr(n, seed):
    dense = make_dense(n, seed)
    return SparseOperator.from_dense(dense), dense


def random_sparse():
    return make_csr(30, 2)


def dense_with_zeros():
    """Every entry stored, zeros included, as galerkin_triple returns
    filled-in levels."""
    dense = make_dense(30, 2)
    return SparseOperator.from_dense(dense, keep_zeros=True), dense


def contrast_1e6():
    dense = contrast_stiffness()
    return SparseOperator.from_dense(dense), dense


def sweep_cases():
    """(input, direction) pairs; the random sparse input keeps the bare
    direction as its id."""
    for make in (random_sparse, dense_with_zeros, contrast_1e6):
        for reverse, direction in ((False, "forward"), (True, "reverse")):
            prefix = "" if make is random_sparse else make.__name__ + "-"
            yield pytest.param(make, reverse, id=prefix + direction)


class TestGaussSeidelSweep:
    @pytest.mark.parametrize("make, reverse", sweep_cases())
    def test_matches_reference_sweep(self, make, reverse):
        A, dense = make()
        n = A.nrows
        rng = np.random.default_rng(3)
        b = rng.standard_normal(n)
        x = rng.standard_normal(n)
        x_ref = x.copy()
        for _ in range(3):
            gauss_seidel_sweep(A, x, b, reverse)
            reference_gauss_seidel_sweep(dense, x_ref, b, reverse)
        np.testing.assert_allclose(x, x_ref, rtol=1e-13, atol=1e-14)
        # A sweep returns the triangle product the opposite sweep reads:
        # chain three sweeps of alternating direction through it.
        product, direction = None, reverse
        for _ in range(3):
            product = gauss_seidel_sweep(A, x, b, direction, product)
            reference_gauss_seidel_sweep(dense, x_ref, b, direction)
            triangle = np.triu(dense, 1) if direction else np.tril(dense, -1)
            err = np.abs(product - triangle @ x)
            assert np.all(err <= 1e-13 * (np.abs(dense) @ np.abs(x)))
            direction = not direction
        np.testing.assert_allclose(x, x_ref, rtol=1e-13, atol=1e-14)

    def test_reduces_residual(self):
        A, dense = make_csr(30, 4)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(30)
        x = np.zeros(30)
        r0 = np.linalg.norm(b)
        for _ in range(10):
            gauss_seidel_sweep(A, x, b)
        assert np.linalg.norm(b - dense @ x) < 0.1 * r0

    def test_zero_diagonal_rejected(self):
        A = SparseOperator.from_dense(
            [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]])
        x = np.zeros(3)
        with pytest.raises(InvalidArgumentError, match="row 1 "):
            gauss_seidel_sweep(A, x, np.ones(3))
        np.testing.assert_array_equal(x, 0.0)

    def test_reordered_factor_rejected(self, monkeypatch):
        # With threshold pivoting SuperLU takes the larger subdiagonal entry
        # of column 0 as its pivot, and its solves stop being Gauss-Seidel.
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(
            scipy.sparse.linalg, "splu",
            lambda A, **kw: splu(A, **{**kw, "diag_pivot_thresh": 1.0}))
        A = SparseOperator.from_dense([[1.0, 3.0], [3.0, 10.0]])
        with pytest.raises(InvalidArgumentError, match="natural order"):
            gauss_seidel_sweep(A, np.zeros(2), np.ones(2))
