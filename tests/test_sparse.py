import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geig.errors import InvalidArgumentError, NotPositiveDefiniteError
from geig.fem import Grid, assemble, gen_checkerboard
from geig.sparse import (
    _DENSE_FILL_THRESHOLD,
    SparseOperator,
    check_symmetric,
    dense_sym_geig,
    dump_coordinate,
    galerkin_triple,
    load_coordinate,
    make_direct_solver,
    spmv,
)

from _oracles import dense_matvec, random_spd


class TestSparseOperator:
    def test_structure_validation(self):
        with pytest.raises(InvalidArgumentError):
            SparseOperator(2, 2, [0, 1], [0], [1.0])  # offsets too short
        with pytest.raises(InvalidArgumentError):
            SparseOperator(2, 2, [0, 2, 2], [1, 0], [1.0, 1.0])  # unsorted row
        with pytest.raises(InvalidArgumentError):
            SparseOperator(1, 1, [0, 1], [3], [1.0])  # column out of range

    def test_roundtrip_dense(self):
        rng = np.random.default_rng(0)
        d = rng.standard_normal((5, 7))
        d[np.abs(d) < 0.7] = 0.0
        op = SparseOperator.from_dense(d)
        np.testing.assert_array_equal(op.to_dense(), d)

    def test_indices_shared_with_scipy(self):
        op = SparseOperator.from_dense(random_spd(6, np.random.default_rng(2)))
        csr = op.to_scipy()
        assert np.shares_memory(op.col_indices, csr.indices)
        assert np.shares_memory(op.row_offsets, csr.indptr)

    def test_rmatvec_is_transposed_product(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal((5, 7))
        d[np.abs(d) < 0.7] = 0.0
        op = SparseOperator.from_dense(d)
        x = rng.standard_normal(5)
        np.testing.assert_allclose(op.rmatvec(x), d.T @ x, rtol=1e-14,
                                   atol=1e-14)
        with pytest.raises(InvalidArgumentError):
            op.rmatvec(np.ones(7))

    def test_strict_triangles_share_one_copy(self):
        a = random_spd(6, np.random.default_rng(4))
        a = 0.5 * (a + a.T)
        lower, upper = SparseOperator.from_dense(a) \
            .strict_triangles()
        np.testing.assert_array_equal(upper.toarray(), np.triu(a, 1))
        np.testing.assert_array_equal(lower.toarray(), np.tril(a, -1))
        assert np.shares_memory(lower.data, upper.data)

    def test_symmetric_flag_check(self):
        a = random_spd(6, np.random.default_rng(1))
        op = SparseOperator.from_dense(a)
        assert check_symmetric(op)
        b = a.copy()
        b[0, 1] += 1.0
        assert not check_symmetric(SparseOperator.from_dense(b))


def contrast_stiffness():
    """Grid-32 stiffness of a 1/8-block checkerboard with contrast 1e6."""
    grid = Grid(32)
    K, _ = assemble(grid, gen_checkerboard(0, 0.125, 1.0, 1e6, grid))
    return K.to_dense()


class TestSpmv:
    def test_identity(self):
        A = SparseOperator.identity(3)
        np.testing.assert_array_equal(spmv(A, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_diagonal(self):
        A = SparseOperator.from_diagonal([2.0, 3.0])
        np.testing.assert_array_equal(spmv(A, [1.0, 1.0]), [2.0, 3.0])

    @pytest.mark.parametrize("make_dense", [
        pytest.param(lambda: random_spd(10, np.random.default_rng(7)),
                     id="random_spd"),
        pytest.param(lambda: np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 0.0]]),
                     id="empty_row"),
        pytest.param(contrast_stiffness, id="contrast_1e6"),
    ])
    def test_matches_dense_rowwise(self, make_dense):
        dense = make_dense()
        A = SparseOperator.from_dense(dense)
        x = np.random.default_rng(8).standard_normal(dense.shape[1])
        expected = dense_matvec(dense, x)
        got = spmv(A, x)
        # per-row rounding bound, relative to (|A| |x|)_i
        bound = 1e-14 * (np.abs(dense) @ np.abs(x))
        assert np.all(np.abs(got - expected) <= bound)

    def test_dimension_mismatch(self):
        A = SparseOperator.identity(3)
        with pytest.raises(InvalidArgumentError):
            spmv(A, np.ones(4))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
    def test_linearity(self, n, seed):
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((n, n))
        dense[np.abs(dense) < 0.4] = 0.0
        A = SparseOperator.from_dense(dense)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        a, b = rng.standard_normal(2)
        lhs = spmv(A, a * x + b * y)
        rhs = a * spmv(A, x) + b * spmv(A, y)
        scale = max(np.linalg.norm(lhs), 1.0)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * scale


class TestGalerkinTriple:
    def test_identity_restriction(self):
        rng = np.random.default_rng(3)
        A = SparseOperator.from_dense(random_spd(6, rng))
        out = galerkin_triple(SparseOperator.identity(6), A)
        np.testing.assert_allclose(out.to_dense(), A.to_dense(), rtol=0, atol=1e-15)

    def test_single_row_sums_diagonal(self):
        R = SparseOperator.from_dense(np.array([[1.0, 1.0]]))
        A = SparseOperator.from_diagonal([2.0, 3.0])
        out = galerkin_triple(R, A)
        assert out.shape == (1, 1)
        assert out.to_dense()[0, 0] == pytest.approx(5.0, abs=0)

    def test_matches_dense_triple_product(self):
        rng = np.random.default_rng(11)
        Rd = rng.standard_normal((4, 8))
        Rd[np.abs(Rd) < 0.8] = 0.0
        Ad = random_spd(8, rng)
        out = galerkin_triple(SparseOperator.from_dense(Rd),
                              SparseOperator.from_dense(Ad))
        expected = Rd @ Ad @ Rd.T
        err = np.linalg.norm(out.to_dense() - expected) / np.linalg.norm(expected)
        assert err <= 1e-12

    def test_output_symmetric_to_machine_precision(self):
        rng = np.random.default_rng(12)
        Rd = rng.standard_normal((5, 9))
        A = SparseOperator.from_dense(random_spd(9, rng))
        out = galerkin_triple(SparseOperator.from_dense(Rd), A)
        d = out.to_dense()
        np.testing.assert_array_equal(d, d.T)

    @pytest.mark.parametrize("r_filled,a_filled", [
        (False, True), (True, False), (False, False)],
        ids=["filled_A", "filled_R", "both_sparse"])
    def test_each_branch_matches_dense(self, r_filled, a_filled):
        rng = np.random.default_rng(17)
        m, n = 12, 40
        if r_filled:
            Rd = rng.standard_normal((m, n))
        else:
            Rd = np.zeros((m, n))
            for i in range(m):
                Rd[i, rng.choice(n, size=2, replace=False)] = rng.standard_normal(2)
        if a_filled:
            Ad = random_spd(n, rng)
        else:
            Ad = (np.diag(np.full(n, 4.0)) - np.diag(np.ones(n - 1), 1)
                  - np.diag(np.ones(n - 1), -1))
        R = SparseOperator.from_dense(Rd)
        A = SparseOperator.from_dense(Ad)
        assert (R.fill_fraction() > _DENSE_FILL_THRESHOLD) == r_filled
        assert (A.fill_fraction() > _DENSE_FILL_THRESHOLD) == a_filled
        out = galerkin_triple(R, A).to_dense()
        expected = Rd @ Ad @ Rd.T
        err = np.linalg.norm(out - expected) / np.linalg.norm(expected)
        assert err <= 1e-13
        np.testing.assert_array_equal(out, out.T)

    def test_dimension_mismatch(self):
        R = SparseOperator.from_dense(np.ones((2, 3)))
        A = SparseOperator.identity(4)
        with pytest.raises(InvalidArgumentError):
            galerkin_triple(R, A)


class TestDenseSymGeig:
    def test_diagonal_case(self):
        res = dense_sym_geig(np.diag([2.0, 6.0]), np.eye(2))
        np.testing.assert_allclose(res.lambdas, [2.0, 6.0], atol=1e-13)
        np.testing.assert_allclose(np.abs(res.vectors), np.eye(2), atol=1e-12)

    def test_scalar_ratio(self):
        res = dense_sym_geig(np.array([[4.0]]), np.array([[2.0]]))
        assert res.lambdas[0] == pytest.approx(2.0, rel=1e-14)

    def test_residual_oracle_random_pair(self):
        rng = np.random.default_rng(5)
        K = random_spd(6, rng)
        M = random_spd(6, rng)
        res = dense_sym_geig(K, M)
        knorm = np.linalg.norm(K, 2)
        for lam, x in res:
            assert np.linalg.norm(K @ x - lam * (M @ x)) <= 1e-10 * knorm

    def test_m_orthonormal_and_energy_normalized(self):
        rng = np.random.default_rng(6)
        K, M = random_spd(5, rng), random_spd(5, rng)
        res = dense_sym_geig(K, M)
        gram = res.vectors.T @ M @ res.vectors
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-11)
        for j in range(5):
            xe = res.vectors_energy[:, j]
            assert xe @ K @ xe == pytest.approx(1.0, abs=1e-11)

    def test_not_spd_mass(self):
        with pytest.raises(NotPositiveDefiniteError):
            dense_sym_geig(np.eye(2), np.diag([1.0, -1.0]))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    @example(23256)
    def test_congruence_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        K, M = random_spd(n, rng), random_spd(n, rng)
        P = rng.standard_normal((n, n)) + n * np.eye(n)
        res1 = dense_sym_geig(K, M)
        res2 = dense_sym_geig(0.5 * (P.T @ K @ P + (P.T @ K @ P).T),
                              0.5 * (P.T @ M @ P + (P.T @ M @ P).T))
        # Forming P^T K P and P^T M P in floating point perturbs the pencil
        # by about eps relative in P's coordinates, which moves its
        # eigenvalues by up to about eps * cond(P)^2 relative: no solver can
        # do better on the rounded pair.  Seed 23256 has cond(P) = 3.4e3 and
        # moves them by 5e-10 relative.  The factor 100 covers the dimension,
        # the conditioning of K and M and each solve's own backward error
        # (over seeds 0..2999 the ratio stayed below 9).
        rtol = 100 * np.finfo(float).eps * np.linalg.cond(P) ** 2
        np.testing.assert_allclose(res1.lambdas, res2.lambdas, rtol=rtol)


class TestDirectSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(make_direct_solver(SparseOperator.identity(3))(b), b)

    def test_diagonal(self):
        A = SparseOperator.from_diagonal([2.0, 4.0])
        np.testing.assert_allclose(make_direct_solver(A)(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_residual_random_spd(self):
        rng = np.random.default_rng(9)
        dense = random_spd(20, rng)
        A = SparseOperator.from_dense(dense)
        b = rng.standard_normal(20)
        x = make_direct_solver(A)(b)
        assert np.linalg.norm(dense @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_not_spd(self):
        A = SparseOperator.from_diagonal([1.0, -1.0])
        with pytest.raises(NotPositiveDefiniteError):
            make_direct_solver(A)(np.ones(2))


class TestCoordinateFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        d = rng.standard_normal((4, 6))
        d[np.abs(d) < 0.6] = 0.0
        op = SparseOperator.from_dense(d)
        path = tmp_path / "m.txt"
        dump_coordinate(op, path)
        back = load_coordinate(path, shape=(4, 6))
        np.testing.assert_array_equal(back.to_dense(), d)
