import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from geig.correction import McParams, multilevel_correction
from geig.errors import InvalidArgumentError, NonConvergenceError
from geig.fem import CoefficientField, Grid, assemble, gen_anderson, gen_checkerboard
from geig.hierarchy import build_hierarchy
from geig.lobpcg import (
    GambletPreconditioner,
    IdentityPreconditioner,
    JacobiPreconditioner,
    LobpcgParams,
    hybrid_solve,
    lobpcg,
    pinvit_step,
    rayleigh_quotient,
)
from geig.sparse import SparseOperator
from geig.transform import transform

from _oracles import random_spd, tensor_product_eigenvalues


def fem_problem(n, q, field=None, mode="exact"):
    grid = Grid(n)
    if field is None:
        field = CoefficientField.constant(grid)
    K, M = assemble(grid, field)
    dec = transform(K, build_hierarchy(q, grid), mode=mode)
    return K, M, dec


class TestRayleighQuotient:
    def test_eigenvector(self):
        K = SparseOperator.from_diagonal([2.0, 6.0])
        M = SparseOperator.identity(2)
        assert rayleigh_quotient(np.array([1.0, 0.0]), K, M) == 2.0

    def test_hand_average(self):
        K = SparseOperator.from_diagonal([2.0, 6.0])
        M = SparseOperator.identity(2)
        assert rayleigh_quotient(np.array([1.0, 1.0]), K, M) == pytest.approx(4.0)

    def test_bounded_by_spectrum(self):
        rng = np.random.default_rng(0)
        Kd, Md = random_spd(8, rng), random_spd(8, rng)
        lams = scipy.linalg.eigh(Kd, Md, eigvals_only=True)
        K = SparseOperator.from_dense(Kd)
        M = SparseOperator.from_dense(Md)
        for _ in range(50):
            x = rng.standard_normal(8)
            mu = rayleigh_quotient(x, K, M)
            assert lams[0] - 1e-12 <= mu <= lams[-1] + 1e-12

    def test_zero_vector(self):
        K = SparseOperator.identity(2)
        with pytest.raises(InvalidArgumentError):
            rayleigh_quotient(np.zeros(2), K, K)


class TestPinvit:
    def test_exact_eigenvector_is_fixed(self):
        K = SparseOperator.from_diagonal([2.0, 6.0])
        M = SparseOperator.identity(2)
        x = np.array([1.0, 0.0])
        np.testing.assert_allclose(
            pinvit_step(x, K, M, IdentityPreconditioner()), x, atol=1e-15)

    def test_hand_evaluation(self):
        K = SparseOperator.from_diagonal([1.0, 10.0])
        M = SparseOperator.identity(2)
        x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        mu = 5.5
        w = np.array([1.0 - mu, 10.0 - mu]) / np.sqrt(2.0)
        expected = (x - w) / np.linalg.norm(x - w)
        got = pinvit_step(x, K, M, IdentityPreconditioner())
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_converges_to_smallest(self):
        K = SparseOperator.from_diagonal([1.0, 2.0, 3.0])
        M = SparseOperator.identity(3)
        x = np.ones(3) / np.sqrt(3.0)
        B = IdentityPreconditioner()
        for _ in range(30):
            x = pinvit_step(x, K, M, B)
        assert rayleigh_quotient(x, K, M) == pytest.approx(1.0, abs=1e-8)


class TestPreconditioners:
    @pytest.mark.parametrize("kind", ["identity", "jacobi", "gamblet"])
    def test_adjoint_and_positive(self, kind):
        K, M, dec = fem_problem(16, 3)
        if kind == "identity":
            B = IdentityPreconditioner()
        elif kind == "jacobi":
            B = JacobiPreconditioner(K)
        else:
            B = GambletPreconditioner(dec)
        rng = np.random.default_rng(1)
        r1, r2 = rng.standard_normal((2, K.nrows))
        lhs = B.apply(r1) @ r2
        rhs = r1 @ B.apply(r2)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
        for _ in range(5):
            r = rng.standard_normal(K.nrows)
            assert B.apply(r) @ r > 0


class TestLobpcg:
    def test_identity_pencil_converges_immediately(self):
        n = 6
        K = SparseOperator.identity(n)
        M = SparseOperator.identity(n)
        rng = np.random.default_rng(2)
        es, rec = lobpcg(K, M, IdentityPreconditioner(),
                         rng.standard_normal((n, 2)), 2)
        assert rec.last_sweep() == 0
        np.testing.assert_allclose(es.lambdas, [1.0, 1.0], atol=1e-12)

    def test_diagonal_oracle(self):
        K = SparseOperator.from_diagonal(np.arange(1.0, 11.0))
        M = SparseOperator.identity(10)
        rng = np.random.default_rng(3)
        es, rec = lobpcg(K, M, IdentityPreconditioner(),
                         rng.standard_normal((10, 3)), 3,
                         LobpcgParams(tol=1e-12, maxit=60))
        np.testing.assert_allclose(es.lambdas, [1.0, 2.0, 3.0], rtol=1e-10)
        assert rec.last_sweep() <= 60

    def test_trace_nonincreasing(self):
        K, M, dec = fem_problem(16, 3)
        rng = np.random.default_rng(4)
        X0 = rng.standard_normal((K.nrows, 4))
        es, rec = lobpcg(K, M, GambletPreconditioner(dec), X0, 4,
                         LobpcgParams(tol=1e-9, maxit=100))
        sweeps = sorted({r[0] for r in rec.rows})
        traces = [sum(rec.sweep_values(s).values()) for s in sweeps]
        for a, b in zip(traces, traces[1:]):
            assert b <= a + 1e-12 * abs(a)

    def test_block_stays_m_orthonormal(self):
        K, M, dec = fem_problem(16, 3)
        rng = np.random.default_rng(5)
        X0 = rng.standard_normal((K.nrows, 3))
        seen = []

        def check(state):
            g = state.X.T @ (M.to_scipy() @ state.X)
            seen.append(np.max(np.abs(g - np.eye(state.X.shape[1]))))

        lobpcg(K, M, GambletPreconditioner(dec), X0, 3,
               LobpcgParams(tol=1e-9, maxit=100), on_state=check)
        assert seen and max(seen) <= 1e-10

    def test_matches_dense_oracle_on_fem(self):
        K, M, dec = fem_problem(16, 3)
        rng = np.random.default_rng(6)
        es, _ = lobpcg(K, M, GambletPreconditioner(dec),
                       rng.standard_normal((K.nrows, 3)), 3,
                       LobpcgParams(tol=1e-10, maxit=200))
        expected = scipy.linalg.eigh(K.to_dense(), M.to_dense(),
                                     eigvals_only=True)[:3]
        np.testing.assert_allclose(es.lambdas, expected, rtol=1e-8)

    def test_gamblet_beats_identity_iterations(self):
        grid = Grid(32)
        field = gen_checkerboard(seed=7, eps=1.0 / 16, lo=1.0 / 20, hi=20.0,
                                 grid=grid)
        K, M = assemble(grid, field)
        dec = transform(K, build_hierarchy(5, grid), mode="localized",
                        radius=1)
        rng = np.random.default_rng(7)
        X0 = rng.standard_normal((K.nrows, 4))
        _, rec_g = lobpcg(K, M, GambletPreconditioner(dec), X0, 4,
                          LobpcgParams(tol=1e-8, maxit=400))
        it_g = rec_g.last_sweep()
        try:
            _, rec_i = lobpcg(K, M, IdentityPreconditioner(), X0, 4,
                              LobpcgParams(tol=1e-8, maxit=2 * it_g + 1))
            it_i = rec_i.last_sweep()
        except NonConvergenceError as err:
            it_i = err.history.last_sweep()
        assert it_g <= 0.5 * it_i

    def test_anderson_beta_1e6_matches_shift_invert(self):
        """Anderson potential hopping between 1 and 1e6 per 1/16-block:
        localized low modes with close eigenvalues.  Gamblet-LOBPCG to 1e-8
        matches an eigsh shift-invert reference (observed 9e-15)."""
        grid = Grid(32)
        field = gen_anderson(seed=3, eps=1.0 / 16, alpha=1.0, beta=1e6,
                             grid=grid)
        K, M = assemble(grid, field)
        dec = transform(K, build_hierarchy(4, grid), mode="localized",
                        radius=1)
        X0 = np.random.default_rng(0).standard_normal((K.nrows, 4))
        es, _ = lobpcg(K, M, GambletPreconditioner(dec), X0, 4,
                       LobpcgParams(tol=1e-8, maxit=200))
        ref = scipy.sparse.linalg.eigsh(
            K.to_scipy().tocsc(), k=4, M=M.to_scipy().tocsc(), sigma=0.0,
            which="LM", v0=np.ones(K.nrows))[0]
        np.testing.assert_allclose(es.lambdas, np.sort(ref), rtol=1e-10)

    def test_maxit_raises_with_history(self):
        K, M, dec = fem_problem(16, 3)
        rng = np.random.default_rng(8)
        with pytest.raises(NonConvergenceError) as err:
            lobpcg(K, M, IdentityPreconditioner(),
                   rng.standard_normal((K.nrows, 2)), 2,
                   LobpcgParams(tol=1e-12, maxit=2))
        assert err.value.history is not None
        assert err.value.result is not None

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(InvalidArgumentError):
            LobpcgParams(tol=tol)


class TestHybrid:
    def test_anderson_hybrid_agrees_with_pure_correction(self):
        # disorder-potential problem, scaled down from the reference size;
        # the potential hops between 1 and 2000 >= 1/eps^2 per eps-block.
        # nev stops below the near-degenerate 4th/5th cluster, where the
        # correction scheme alone can lock onto the wrong member.
        grid = Grid(64)
        field = gen_anderson(seed=3, eps=1.0 / 32, alpha=1.0, beta=2e3,
                             grid=grid)
        K, M = assemble(grid, field)
        dec = transform(K, build_hierarchy(4, grid), mode="localized",
                        radius=1)
        es_mc, _ = multilevel_correction(dec, M, 3, McParams(tol=1e-11))
        es_h, _ = hybrid_solve(dec, M, 3, mc_params=McParams(tol=1e-6),
                               lobpcg_params=LobpcgParams(tol=1e-10,
                                                          maxit=300))
        assert np.max(es_h.residuals) <= 1e-10
        np.testing.assert_allclose(es_h.lambdas, es_mc.lambdas, rtol=1e-8)

    def test_converged_start_stops_fast(self):
        K, M, dec = fem_problem(16, 3)
        es, rec = hybrid_solve(dec, M, 2,
                               mc_params=McParams(tol=1e-13),
                               lobpcg_params=LobpcgParams(tol=1e-8))
        lob_sweeps = sorted({r[0] for r in rec.rows if r[6] == "lobpcg"})
        assert len(lob_sweeps) <= 2

    def test_matches_closed_form_constant(self):
        K, M, dec = fem_problem(32, 4)
        es, rec = hybrid_solve(dec, M, 3,
                               mc_params=McParams(tol=1e-6),
                               lobpcg_params=LobpcgParams(tol=1e-11,
                                                          maxit=200))
        expected = tensor_product_eigenvalues(32, 3)
        np.testing.assert_allclose(es.lambdas, expected, rtol=1e-10)

    def test_history_has_both_phases(self):
        K, M, dec = fem_problem(16, 3)
        _, rec = hybrid_solve(dec, M, 2, mc_params=McParams(tol=1e-6))
        phases = {r[6] for r in rec.rows}
        assert phases == {"mc", "lobpcg"}
        text = rec.to_csv(__import__("io").StringIO())
        assert text.splitlines()[0].endswith(",phase")
