"""The Gauss-Seidel sweep against the row-by-row reference sweep."""

import numpy as np
import pytest

from geig._kernels import gauss_seidel_sweep
from geig.sparse import SparseOperator

from _oracles import random_spd, reference_gauss_seidel_sweep


def make_csr(n, seed):
    rng = np.random.default_rng(seed)
    dense = random_spd(n, rng)
    dense[np.abs(dense) < np.quantile(np.abs(dense), 0.5)] = 0.0
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    dense = 0.5 * (dense + dense.T)
    return SparseOperator.from_dense(dense, symmetric=True), dense


class TestGaussSeidelSweep:
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_matches_reference_sweep(self, reverse):
        A, dense = make_csr(30, 2)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(30)
        x = rng.standard_normal(30)
        x_ref = x.copy()
        for _ in range(3):
            gauss_seidel_sweep(A, x, b, reverse)
            reference_gauss_seidel_sweep(dense, x_ref, b, reverse)
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
