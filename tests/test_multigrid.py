import numpy as np
import pytest

from geig.errors import InvalidArgumentError, NonConvergenceError
from geig.fem import CoefficientField, Grid, assemble, gen_checkerboard
from geig.hierarchy import build_hierarchy
from geig.multigrid import (
    MgParams,
    energy_norm,
    estimate_lambda_bound,
    mg,
    mg_solve,
    precondition,
)
from geig.sparse import SparseOperator, make_direct_solver, spmv
from geig.transform import transform

from _oracles import reference_v_cycle, tridiag_laplacian_spectrum


def build(n, q, field=None, mode="exact"):
    grid = Grid(n)
    if field is None:
        field = CoefficientField.constant(grid)
    K, M = assemble(grid, field)
    hier = build_hierarchy(q, grid)
    return K, transform(K, hier, mode=mode)


class TestLambdaBound:
    def test_diagonal(self):
        A = SparseOperator.from_diagonal([1.0, 2.0, 3.0])
        assert estimate_lambda_bound(A) == 3.0

    def test_tridiagonal_closed_form(self):
        n = 5
        T = (np.diag(2.0 * np.ones(n)) + np.diag(-np.ones(n - 1), 1)
             + np.diag(-np.ones(n - 1), -1))
        A = SparseOperator.from_dense(T)
        bound = estimate_lambda_bound(A)
        assert bound == 4.0
        assert bound >= tridiag_laplacian_spectrum(n)[-1]

    def test_bounds_rayleigh_quotients(self):
        rng = np.random.default_rng(31)
        d = rng.standard_normal((15, 15))
        A = SparseOperator.from_dense(0.5 * (d + d.T))
        bound = estimate_lambda_bound(A)
        for _ in range(20):
            x = rng.standard_normal(15)
            assert bound >= np.linalg.norm(spmv(A, x)) / np.linalg.norm(x)

    @pytest.mark.parametrize("factor", [np.nan, np.inf, 0.5])
    def test_factor_must_be_finite_and_at_least_one(self, factor):
        with pytest.raises(InvalidArgumentError):
            MgParams(lambda_bound_factor=factor)


class TestMg:
    def test_level_one_is_direct(self):
        K, dec = build(8, 2)
        rng = np.random.default_rng(0)
        g = rng.standard_normal(dec.level_dim(1))
        z = mg(1, np.zeros_like(g), g, dec, MgParams())
        A1 = dec.A[1]
        assert np.linalg.norm(spmv(A1, z) - g) <= 1e-12 * np.linalg.norm(g)

    def test_zero_fixed_point(self):
        K, dec = build(8, 2)
        z = mg(dec.q, np.zeros(K.nrows), np.zeros(K.nrows), dec, MgParams())
        np.testing.assert_array_equal(z, np.zeros(K.nrows))

    def test_one_cycle_contracts(self):
        # frozen regression: on the constant 32x32 problem one V-cycle with
        # two Gauss-Seidel sweeps each way contracts the energy error by
        # at least theta = 0.60 (measured ~0.28-0.46)
        K, dec = build(32, 5)
        rng = np.random.default_rng(1)
        g = rng.standard_normal(K.nrows)
        zstar = make_direct_solver(K)(g)
        z0 = rng.standard_normal(K.nrows)
        z1 = mg(dec.q, z0, g, dec, MgParams())
        e0 = energy_norm(K, zstar - z0)
        e1 = energy_norm(K, zstar - z1)
        assert e1 <= 0.60 * e0

    def test_two_level_identity_without_smoothing(self):
        # m1 = m2 = 0 with exact coarse solve is the bare two-level update
        K, dec = build(8, 2)
        rng = np.random.default_rng(2)
        g = rng.standard_normal(K.nrows)
        z0 = rng.standard_normal(K.nrows)
        params = MgParams(m1=0, m2=0, p=1)
        got = mg(2, z0, g, dec, params)
        R = dec.R[2]
        resid = g - spmv(K, z0)
        qc = make_direct_solver(dec.A[1])(spmv(R, resid))
        expected = z0 + R.rmatvec(qc)
        scale = max(np.linalg.norm(expected), 1.0)
        assert np.linalg.norm(got - expected) <= 1e-13 * scale

    def test_both_residual_variants_converge(self):
        K, dec = build(16, 3)
        rng = np.random.default_rng(3)
        g = rng.standard_normal(K.nrows)
        za, _ = mg_solve(dec.q, g, dec, MgParams(variant="initial_residual"),
                         tol=1e-11)
        zb, _ = mg_solve(dec.q, g, dec, MgParams(variant="presmoothed"),
                         tol=1e-11)
        ref = make_direct_solver(K)(g)
        for z in (za, zb):
            assert np.linalg.norm(z - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_level_out_of_range(self):
        K, dec = build(8, 2)
        with pytest.raises(InvalidArgumentError):
            mg(5, np.zeros(3), np.zeros(3), dec, MgParams())

    def test_dimension_mismatch(self):
        K, dec = build(8, 2)
        with pytest.raises(InvalidArgumentError):
            mg(2, np.zeros(3), np.zeros(K.nrows), dec, MgParams())


def checker16(mode):
    """Grid 16, q 3, radius-1 transform in ``mode`` of a contrast-400
    checkerboard.  Returns the decomposition and its dense level matrices
    and interpolations."""
    grid = Grid(16)
    field = gen_checkerboard(seed=2, eps=1.0 / 8, lo=0.05, hi=20.0, grid=grid)
    K, _ = assemble(grid, field)
    dec = transform(K, build_hierarchy(3, grid), mode=mode, radius=1)
    A = {k: dec.A[k].to_dense() for k in range(1, dec.q + 1)}
    R = {k: dec.R[k].to_dense() for k in range(2, dec.q + 1)}
    return dec, A, R


class WholeCycleOracles:
    """mg and precondition against the dense row-by-row reference cycle,
    on the decomposition of the subclass's ``levels`` fixture."""

    @pytest.mark.parametrize("zero_start", [False, True], ids=["z0", "zero"])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("symmetric", [False, True],
                             ids=["plain", "symmetric"])
    @pytest.mark.parametrize("variant", ["initial_residual", "presmoothed"])
    def test_mg_matches_reference(self, levels, variant, symmetric, p,
                                  zero_start):
        dec, A, R = levels
        n = dec.level_dim(dec.q)
        rng = np.random.default_rng(11)
        g = rng.standard_normal(n)
        z0 = np.zeros(n) if zero_start else rng.standard_normal(n)
        params = MgParams(p=p, variant=variant, symmetric_smoothing=symmetric)
        got = mg(dec.q, z0, g, dec, params)
        ref = reference_v_cycle(A, R, dec.q, z0, g, params.m1, params.m2, p,
                                variant, symmetric)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("variant", ["initial_residual", "presmoothed"])
    def test_no_presmoothing_matches_reference(self, levels, variant):
        dec, A, R = levels
        n = dec.level_dim(dec.q)
        rng = np.random.default_rng(13)
        g, z0 = rng.standard_normal(n), rng.standard_normal(n)
        got = mg(dec.q, z0, g, dec, MgParams(m1=0, m2=1, variant=variant))
        ref = reference_v_cycle(A, R, dec.q, z0, g, 0, 1, 1, variant, False)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_precondition_matches_reference(self, levels):
        dec, A, R = levels
        n = dec.level_dim(dec.q)
        r = np.random.default_rng(12).standard_normal(n)
        got = precondition(r, dec)
        ref = reference_v_cycle(A, R, dec.q, np.zeros(n), r, 2, 2, 1,
                                "presmoothed", True)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestWholeCycle(WholeCycleOracles):
    """Exact mode: level 2 is filled in, level 3 (the stiffness matrix) is
    sparse."""

    @pytest.fixture(scope="class")
    def levels(self):
        return checker16("exact")

    def test_levels_filled_and_sparse(self, levels):
        dec, _, _ = levels
        assert dec.A[2].fill_fraction() == 1.0
        assert dec.A[3].fill_fraction() < 0.1


class TestWholeCycleLocalized(WholeCycleOracles):
    """Localized mode: level 2 is truncated, so every level is sparse."""

    @pytest.fixture(scope="class")
    def levels(self):
        return checker16("localized")

    def test_levels_truncated_and_sparse(self, levels):
        dec, _, _ = levels
        # untruncated, this level is filled in (fill fraction 1.0)
        assert dec.A[2].fill_fraction() < 0.5
        assert dec.A[3].fill_fraction() < 0.1


class TestMgSolve:
    def test_cycle_count_frozen(self):
        # measured once on this problem: 28 cycles with the initial-residual
        # form, 6 with the presmoothed form; frozen with small headroom
        K, dec = build(32, 5)
        rng = np.random.default_rng(5)
        g = rng.standard_normal(K.nrows)
        z, cycles = mg_solve(dec.q, g, dec, MgParams(), tol=1e-10,
                             max_cycles=32)
        assert cycles <= 32
        assert np.linalg.norm(g - spmv(K, z)) <= 1e-10 * np.linalg.norm(g)
        _, cycles_pre = mg_solve(dec.q, g, dec,
                                 MgParams(variant="presmoothed"), tol=1e-10,
                                 max_cycles=10)
        assert cycles_pre <= 8

    def test_matches_direct_solve(self):
        K, dec = build(32, 5)
        rng = np.random.default_rng(6)
        g = rng.standard_normal(K.nrows)
        z, _ = mg_solve(dec.q, g, dec, MgParams(), tol=1e-12, max_cycles=40)
        ref = make_direct_solver(K)(g)
        assert np.linalg.norm(z - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_w_cycle_needs_no_more_cycles(self):
        K, dec = build(32, 5)
        rng = np.random.default_rng(7)
        g = rng.standard_normal(K.nrows)
        _, v_cycles = mg_solve(dec.q, g, dec, MgParams(p=1), tol=1e-10)
        _, w_cycles = mg_solve(dec.q, g, dec, MgParams(p=2), tol=1e-10)
        assert w_cycles <= v_cycles

    def test_nonconvergence_carries_history(self):
        K, dec = build(16, 3)
        rng = np.random.default_rng(8)
        g = rng.standard_normal(K.nrows)
        with pytest.raises(NonConvergenceError) as err:
            mg_solve(dec.q, g, dec, MgParams(), tol=1e-14, max_cycles=1)
        assert len(err.value.history) == 1


class TestPrecondition:
    def test_zero_maps_to_zero(self):
        K, dec = build(16, 3)
        out = precondition(np.zeros(K.nrows), dec)
        np.testing.assert_array_equal(out, np.zeros(K.nrows))

    @pytest.mark.parametrize("smoother", ["richardson", "gauss_seidel"])
    def test_adjoint_identity(self, smoother):
        K, dec = build(16, 3)
        params = MgParams(smoother=smoother)
        rng = np.random.default_rng(9)
        r1 = rng.standard_normal(K.nrows)
        r2 = rng.standard_normal(K.nrows)
        lhs = precondition(r1, dec, params) @ r2
        rhs = r1 @ precondition(r2, dec, params)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))

    def test_positive(self):
        K, dec = build(16, 3, field=gen_checkerboard(
            seed=3, eps=1.0 / 8, lo=0.1, hi=10.0, grid=Grid(16)))
        rng = np.random.default_rng(10)
        for _ in range(20):
            r = rng.standard_normal(K.nrows)
            assert precondition(r, dec) @ r > 0


class TestRobustness:
    def test_contrast_spread_small_grid(self):
        # lighter twin of the acceptance criterion: geometric-mean
        # contraction over 6 cycles on 32x32 across two contrasts
        grid = Grid(32)
        thetas = []
        for field in (CoefficientField.constant(grid),
                      gen_checkerboard(7, 1.0 / 16, 0.1, 10.0, grid)):
            K, M = assemble(grid, field)
            dec = transform(K, build_hierarchy(5, grid), mode="localized",
                            radius=1)
            rng = np.random.default_rng(0)
            g = rng.standard_normal(K.nrows)
            zstar = make_direct_solver(K)(g)
            z = np.zeros(K.nrows)
            e0 = energy_norm(K, zstar - z)
            for _ in range(6):
                z = mg(dec.q, z, g, dec, MgParams())
            theta = (energy_norm(K, zstar - z) / e0) ** (1.0 / 6)
            assert theta < 1.0
            thetas.append(theta)
        assert max(thetas) - min(thetas) <= 0.2
