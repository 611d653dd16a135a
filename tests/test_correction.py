import io

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from geig.correction import (
    _CLUSTER_RTOL,
    _coarse_start,
    _solve_level,
    EigenSet,
    McParams,
    coarse_eigensolve,
    correct_block,
    m_orthonormalize,
    multilevel_correction,
    rayleigh_quotient_expansion_check,
    rayleigh_ritz,
    RitzBlock,
)
from geig.errors import (
    DegenerateBasisError,
    InvalidArgumentError,
    NonConvergenceError,
)
from geig.fem import CoefficientField, Grid, assemble, gen_checkerboard
from geig.hierarchy import build_hierarchy
from geig.multigrid import energy_norm, mg
from geig.sparse import SparseOperator, dense_sym_geig
from geig.transform import oracle_level_matrices, transform, wavelet_vectors

from _oracles import random_spd, tridiag_laplacian_spectrum


def setup_problem(n, q, field=None, mode="exact"):
    grid = Grid(n)
    if field is None:
        field = CoefficientField.constant(grid)
    K, M = assemble(grid, field)
    hier = build_hierarchy(q, grid)
    dec = transform(K, hier, mode=mode)
    return K, M, dec


def fine_spectrum(K, M, count):
    lams = scipy.linalg.eigh(K.to_dense(), M.to_dense(), eigvals_only=True)
    return lams[:count]


def record_coarse_pencils(monkeypatch):
    """List that collects the (A_1, M_1) of every coarse start."""
    pencils = []

    def recording_dense_sym_geig(A_1, M_1):
        pencils.append((np.array(A_1), np.array(M_1)))
        return dense_sym_geig(A_1, M_1)

    monkeypatch.setattr("geig.correction.dense_sym_geig",
                        recording_dense_sym_geig)
    return pencils


class TestCoarseEigensolve:
    def test_single_level_equals_full_problem(self):
        K, M, dec = setup_problem(4, 1)
        es = coarse_eigensolve(dec, M, 3)
        expected = fine_spectrum(K, M, 3)
        np.testing.assert_allclose(es.lambdas, expected, rtol=1e-10)

    def test_coarse_value_bounds_fine_from_above(self):
        K, M, dec = setup_problem(16, 3)
        es = coarse_eigensolve(dec, M, 1)
        lam_fine = fine_spectrum(K, M, 1)[0]
        assert es.lambdas[0] >= lam_fine

    def test_coarse_matrices_match_projected_oracle(self, monkeypatch):
        pencils = record_coarse_pencils(monkeypatch)
        for mode in ("exact", "localized"):
            K, M, dec = setup_problem(16, 3, mode=mode)
            _, a_oracle = oracle_level_matrices(K, dec.hierarchy.aggregate(1))
            pencils.clear()
            coarse_eigensolve(dec, M, 1)
            [(a_1, m_1)] = pencils
            P = dec.prolong(1, np.eye(dec.level_dim(1)))
            np.testing.assert_allclose(a_1, P.T @ K.to_dense() @ P,
                                       rtol=1e-10, atol=1e-12)
            psi1, _ = wavelet_vectors(dec, 1)
            m_oracle = psi1 @ M.to_dense() @ psi1.T
            np.testing.assert_allclose(m_1, m_oracle, rtol=1e-10, atol=1e-14)
            if mode == "exact":
                np.testing.assert_allclose(dec.A[1].to_dense(), a_oracle,
                                           rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(a_1, a_oracle,
                                           rtol=1e-10, atol=1e-12)
            else:
                # the truncated level-1 stiffness is not the coarse pencil's
                assert np.abs(dec.A[1].to_dense() - a_1).max() > 1e-8

    def test_each_mass_matrix_gets_its_own_coarse_start(self, monkeypatch):
        _, M, dec = setup_problem(8, 2)
        pencils = record_coarse_pencils(monkeypatch)
        scales = (1.0, 2.0, 3.0, 4.0)
        for scale in scales:
            scaled = SparseOperator.from_scipy(scale * M.to_scipy())
            coarse_eigensolve(dec, scaled, 1)
        base = pencils[0][1]
        for scale, (_, m_1) in zip(scales, pencils):
            np.testing.assert_allclose(m_1, scale * base,
                                       rtol=1e-13, atol=1e-15)

    def test_nev_too_large(self):
        _, M, dec = setup_problem(16, 3)
        with pytest.raises(InvalidArgumentError):
            coarse_eigensolve(dec, M, dec.level_dim(1) + 1)

    def test_energy_normalization(self):
        K, M, dec = setup_problem(16, 3)
        es = coarse_eigensolve(dec, M, 4)
        for j in range(4):
            v = es.vectors[:, j]
            assert abs(v @ K.to_scipy() @ v - 1.0) <= 1e-10


class TestOneCorrection:
    """Single sweeps of correct_block."""

    def test_fixed_point_on_exact_pair(self):
        K, M, dec = setup_problem(16, 3)
        k = 2
        P = dec.prolong(k, np.eye(dec.level_dim(k)))
        res = dense_sym_geig(dec.A[k].to_dense(), P.T @ M.to_dense() @ P)
        lam, y = res.lambdas[0], res.vectors_energy[:, 0]
        params = McParams(exact_inner=True)
        *_, block = _coarse_start(dec, M, 1)
        lam_out, y_out, yf_out, _ = correct_block(
            k, res.lambdas[:1], y[:, None], P @ y[:, None], dec, M, params,
            block)
        assert abs(lam_out[0] - lam) <= 1e-10 * lam
        assert np.linalg.norm(y_out[:, 0] - y) <= 1e-8
        assert np.linalg.norm(yf_out[:, 0] - P @ y) <= 1e-8

    def test_matches_dense_subspace_oracle(self):
        """At every level and in both modes, from the coarse start: the Ritz
        values of the fine pencil on P [coarse basis, multigrid solutions],
        P the dense prolongation, and level-k vectors that prolong to the
        fine ones."""
        for mode in ("exact", "localized"):
            K, M, dec = setup_problem(16, 3, mode=mode)
            Kd, Md = K.to_dense(), M.to_dense()
            nev = 2
            lams, Y_1, Yf, block = _coarse_start(dec, M, nev)
            params = McParams()
            for k in range(2, dec.q + 1):
                P = dec.prolong(k, np.eye(dec.level_dim(k)))
                Y = dec.coarse_basis(k) @ Y_1
                lam_out, X, Xf, res = correct_block(k, lams, Y, Yf, dec, M,
                                                    params, block)
                v_hat = np.column_stack([
                    mg(k, Y[:, j], lams[j] * (P.T @ (Md @ Yf[:, j])), dec,
                       params.mg) for j in range(nev)])
                Z = P @ np.column_stack([dec.coarse_basis(k), v_hat])
                G_a = Z.T @ Kd @ Z
                G_m = Z.T @ Md @ Z
                ritz = scipy.linalg.eigh(0.5 * (G_a + G_a.T),
                                         0.5 * (G_m + G_m.T),
                                         eigvals_only=True)[:nev]
                assert np.all(np.abs(lam_out - ritz) <= 1e-11 * ritz), (mode, k)
                assert np.abs(P @ X - Xf).max() <= 1e-11 * np.abs(Xf).max(), \
                    (mode, k)
                KXf = Kd @ Xf
                res_ref = (np.linalg.norm(P.T @ (KXf - Md @ Xf * lam_out), axis=0)
                           / np.linalg.norm(P.T @ KXf, axis=0))
                np.testing.assert_allclose(res, res_ref, rtol=1e-10)

    def test_reordered_pairs_keep_both_coordinates(self, monkeypatch):
        """A cluster reordering moves a pair's level-k and fine vectors
        together (forced here: coarse-level Ritz values of these problems
        are never close enough to be matched)."""
        K, M, dec = setup_problem(16, 3, mode="localized")
        lams, Y_1, Yf, block = _coarse_start(dec, M, 3)
        monkeypatch.setattr("geig.correction._match_clusters",
                            lambda lams, old_lams, X, Y_old, M_sp: [2, 0, 1])
        k = 2
        lam_out, X, Xf, _ = correct_block(k, lams, dec.coarse_basis(k) @ Y_1,
                                          Yf, dec, M, McParams(), block)
        assert lam_out[1] < lam_out[2] < lam_out[0]
        assert np.abs(dec.prolong(k, X) - Xf).max() <= 1e-11 * np.abs(Xf).max()

    def test_error_contraction(self):
        K, M, dec = setup_problem(16, 3)
        k = dec.q
        res = dense_sym_geig(K.to_dense(), M.to_dense())
        lam_star, v_star = res.lambdas[0], res.vectors_energy[:, 0]
        es = coarse_eigensolve(dec, M, 1)
        *_, block = _coarse_start(dec, M, 1)
        y = es.vectors[:, 0]
        if y @ M.to_scipy() @ v_star < 0:
            v_star = -v_star
        err_in = energy_norm(K, y - v_star)
        _, Y_out, _, _ = correct_block(k, es.lambdas, es.vectors, es.vectors,
                                       dec, M, McParams(), block)
        y_out = Y_out[:, 0]
        if y_out @ M.to_scipy() @ v_star < 0:
            y_out = -y_out
        err_out = energy_norm(K, y_out - v_star)
        gamma = err_out / err_in
        assert gamma < 0.6  # measured ~0.1-0.4 on this problem; frozen bound


def record_orthonormalize_widths(monkeypatch):
    """List that collects the column count of every m_orthonormalize call
    made from geig.correction."""
    widths = []

    def recording_m_orthonormalize(V, M_sp):
        widths.append(V.shape[1])
        return m_orthonormalize(V, M_sp)

    monkeypatch.setattr("geig.correction.m_orthonormalize",
                        recording_m_orthonormalize)
    return widths


class TestCoarseRitzBlock:
    """The coarsest space enters every sweep as one Ritz block, projected
    once per run; each sweep orthogonalizes only its new columns."""

    def test_one_coarse_solve_and_nev_column_grams(self, monkeypatch):
        _, M, dec = setup_problem(16, 3, mode="localized")
        pencils = record_coarse_pencils(monkeypatch)
        widths = record_orthonormalize_widths(monkeypatch)
        nev = 3
        _, rec = multilevel_correction(dec, M, nev, McParams(tol=1e-10))
        assert len(pencils) == 1
        assert rec.last_sweep() >= dec.q
        assert widths == [nev] * rec.last_sweep()

    def test_block_is_m_orthonormal_at_contrast_1e6(self):
        grid = Grid(32)
        field = gen_checkerboard(seed=0, eps=1.0 / 16, lo=1e-3, hi=1e3,
                                 grid=grid)
        K, M = assemble(grid, field)
        dec = transform(K, build_hierarchy(4, grid), mode="localized",
                        radius=1)
        *_, block = _coarse_start(dec, M, 4)
        m = dec.level_dim(1)
        assert block.Q.shape == (K.nrows, m)
        gram = block.Q.T @ (M.to_scipy() @ block.Q)
        assert np.abs(gram - np.eye(m)).max() <= 1e-12
        np.testing.assert_allclose(block.Q,
                                   dec.coarse_basis(dec.q) @ block.coeffs,
                                   rtol=0, atol=1e-13 * np.abs(block.Q).max())

    @staticmethod
    def sweep_with_trial_column(monkeypatch, nev, replace):
        """One level-2 sweep from the coarse start in which the second
        multigrid solution v is replaced by replace(v, c), c a level-2
        vector in the coarsest space.  Returns the decomposition, the
        solutions used, the widths of the SVQB calls and the sweep's
        output."""
        K, M, dec = setup_problem(16, 3, mode="localized")
        lams, Y_1, Yf, block = _coarse_start(dec, M, nev)
        k = 2
        c = dec.coarse_basis(k) @ np.linspace(1.0, 2.0, dec.level_dim(1))
        solutions = []

        def solve(k, rhs, guess, dec, params):
            v = _solve_level(k, rhs, guess, dec, params)
            if len(solutions) == 1:
                v = replace(v, c)
            solutions.append(v)
            return v

        monkeypatch.setattr("geig.correction._solve_level", solve)
        widths = record_orthonormalize_widths(monkeypatch)
        out = correct_block(k, lams, dec.coarse_basis(k) @ Y_1, Yf, dec, M,
                            McParams(), block)
        return K, M, dec, solutions, widths, out

    def test_dependent_trial_column_is_dropped(self, monkeypatch):
        """A multigrid solution that prolongs into the coarsest space adds
        no direction: it is dropped before SVQB, and the Ritz values are
        those of the fine pencil on span(P [coarse basis, v_hat])."""
        nev = 3
        K, M, dec, solutions, widths, out = self.sweep_with_trial_column(
            monkeypatch, nev, lambda v, c: c)
        lam_out, X, Xf, _ = out
        Kd, Md = K.to_dense(), M.to_dense()
        assert widths == [nev - 1]
        k = 2
        P = dec.prolong(k, np.eye(dec.level_dim(k)))
        U = scipy.linalg.orth(
            P @ np.column_stack([dec.coarse_basis(k)] + solutions))
        assert U.shape[1] == dec.level_dim(1) + nev - 1
        ritz = scipy.linalg.eigh(U.T @ Kd @ U, U.T @ Md @ U,
                                 eigvals_only=True)[:nev]
        # lambda_2 = lambda_3 here, and the pair whose solution was replaced
        # keeps its unimproved vector, so the two pairs come out unsorted
        assert np.all(np.abs(np.sort(lam_out) - ritz) <= 1e-11 * ritz)
        # energy-normalized Ritz vectors: Xf^T M Xf = diag(1 / lambda)
        gram = (Xf.T @ Md @ Xf) * np.sqrt(np.outer(lam_out, lam_out))
        assert np.abs(gram - np.eye(nev)).max() <= 1e-10
        assert np.abs(P @ X - Xf).max() <= 1e-11 * np.abs(Xf).max()

    def test_nearly_dependent_trial_column_stays_m_orthogonal(self,
                                                              monkeypatch):
        """A solution 1e-6 away from the coarsest space is kept, and the
        second projection pass keeps the Ritz vectors M-orthogonal (one
        pass leaves about 3e-9 here)."""
        nev = 3
        _, M, _, _, widths, out = self.sweep_with_trial_column(
            monkeypatch, nev, lambda v, c: c + 1e-6 * v)
        lam_out, _, Xf, _ = out
        assert widths == [nev]
        gram = (Xf.T @ (M.to_scipy() @ Xf)) * np.sqrt(np.outer(lam_out,
                                                              lam_out))
        assert np.abs(gram - np.eye(nev)).max() <= 1e-12

    def test_too_few_basis_columns_raise(self, monkeypatch):
        """A block of one Ritz pair and trial columns inside its span leave
        one basis direction for two pairs."""
        _, M, dec = setup_problem(16, 3)
        lams, Y_1, Yf, block = _coarse_start(dec, M, 2)
        short = RitzBlock(Q=block.Q[:, :1], coeffs=block.coeffs[:, :1],
                          theta=block.theta[:1], KQ=block.KQ[:, :1],
                          MQ=block.MQ[:, :1])
        k = 2
        monkeypatch.setattr(
            "geig.correction._solve_level",
            lambda k, rhs, guess, dec, params:
                dec.coarse_basis(k) @ short.coeffs[:, 0])
        with pytest.raises(DegenerateBasisError):
            correct_block(k, lams, dec.coarse_basis(k) @ Y_1, Yf, dec, M,
                          McParams(), short)


class TestMultilevelCorrection:
    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(InvalidArgumentError):
            McParams(tol=tol)

    def test_small_problem_exact_inner(self):
        K, M, dec = setup_problem(8, 2)
        params = McParams(exact_inner=True, tol=1e-13, fine_level_extra=200)
        es, rec = multilevel_correction(dec, M, 1, params)
        lam_fine = fine_spectrum(K, M, 1)[0]
        assert abs(es.lambdas[0] - lam_fine) <= 1e-10 * lam_fine

    def test_block_matches_dense_oracle(self):
        K, M, dec = setup_problem(16, 3)
        params = McParams(tol=1e-13, fine_level_extra=250)
        es, rec = multilevel_correction(dec, M, 3, params)
        expected = fine_spectrum(K, M, 3)
        np.testing.assert_allclose(es.lambdas, expected, rtol=1e-9)

    def test_high_contrast_block(self):
        grid = Grid(16)
        field = gen_checkerboard(seed=7, eps=1.0 / 16, lo=1.0 / 20, hi=20.0,
                                 grid=grid)
        K, M = assemble(grid, field)
        dec = transform(K, build_hierarchy(3, grid))
        es, _ = multilevel_correction(dec, M, 2, McParams(tol=1e-12))
        expected = fine_spectrum(K, M, 2)
        np.testing.assert_allclose(es.lambdas, expected, rtol=1e-8)

    def test_contrast_1e6_whole_solve(self):
        """Localized transform and MC on a contrast-1e6 checkerboard: every
        ball block factors, and the eigenvalues match a shift-invert
        reference."""
        grid = Grid(32)
        field = gen_checkerboard(seed=0, eps=1.0 / 16, lo=1e-3, hi=1e3,
                                 grid=grid)
        K, M = assemble(grid, field)
        dec = transform(K, build_hierarchy(4, grid), mode="localized",
                        radius=1)
        es, _ = multilevel_correction(dec, M, 4, McParams(tol=1e-10))
        ref = scipy.sparse.linalg.eigsh(
            K.to_scipy().tocsc(), k=4, M=M.to_scipy().tocsc(), sigma=0.0,
            which="LM", v0=np.ones(K.nrows))[0]
        np.testing.assert_allclose(es.lambdas, np.sort(ref), rtol=1e-8)

    def test_ritz_values_bound_fine_spectrum(self):
        K, M, dec = setup_problem(16, 3)
        es, rec = multilevel_correction(dec, M, 2, McParams(tol=1e-12))
        expected = fine_spectrum(K, M, 2)
        for sweep, level, pair, lam, _, _, _ in rec.rows:
            assert lam >= expected[pair] - 1e-9 * expected[pair]

    def test_degenerate_pair_keeps_its_vectors(self, monkeypatch):
        """Constant coefficients on the square: lambda_2 = lambda_3 exactly.
        Every incoming vector overlaps most with the outgoing vector of its
        own pair in every sweep, also in the first sweeps, before the two
        values agree to ``_CLUSTER_RTOL``."""
        sweeps = []

        def recording_correct_block(k, lams, Y, Yf, dec, M, params, block):
            out = correct_block(k, lams, Y, Yf, dec, M, params, block)
            sweeps.append((Yf, out[0], out[2], M.to_scipy()))
            return out

        monkeypatch.setattr("geig.correction.correct_block",
                            recording_correct_block)
        K, M, exact = setup_problem(16, 3)
        localized = transform(K, exact.hierarchy, mode="localized", radius=1)
        expected = fine_spectrum(K, M, 4)
        assert expected[2] - expected[1] <= 1e-12 * expected[1]
        for dec in (exact, localized):
            sweeps.clear()
            es, rec = multilevel_correction(dec, M, 4, McParams(tol=1e-12))
            for _, _, pair, lam, _, _, _ in rec.rows:
                assert lam >= expected[pair] * (1.0 - 1e-12)
            np.testing.assert_allclose(es.lambdas, expected, rtol=1e-10)
            clustered = 0
            for sweep, (Yf, lams, Xf, M_sp) in enumerate(sweeps, 1):
                overlap = np.abs(Yf.T @ (M_sp @ Xf))
                np.testing.assert_array_equal(
                    np.argmax(overlap, axis=1), np.arange(4),
                    err_msg=f"{dec.mode}, sweep {sweep}")
                clustered += abs(lams[2] - lams[1]) < _CLUSTER_RTOL * lams[2]
            assert clustered >= 3, dec.mode

    def test_nev_equal_to_coarse_dimension(self):
        K, M, dec = setup_problem(8, 2)
        nev = dec.level_dim(1)
        es, rec = multilevel_correction(dec, M, nev, McParams(tol=1e-10))
        expected = fine_spectrum(K, M, nev)
        assert es.nev == nev
        for _, _, pair, lam, _, _, _ in rec.rows:
            assert lam >= expected[pair] * (1.0 - 1e-12)
        np.testing.assert_allclose(es.lambdas, expected, rtol=1e-9)

    def test_energy_normalized_output(self):
        K, M, dec = setup_problem(16, 3)
        es, _ = multilevel_correction(dec, M, 2, McParams(tol=1e-12))
        for j in range(es.nev):
            v = es.vectors[:, j]
            assert abs(v @ K.to_scipy() @ v - 1.0) <= 1e-10

    def test_level_transfer_consistency(self):
        _, M, dec = setup_problem(16, 3)
        rng = np.random.default_rng(4)
        for k in range(2, dec.q + 1):
            y = rng.standard_normal(dec.level_dim(k - 1))
            back = dec.hierarchy.pis[k - 2].to_scipy() @ (
                dec.R[k].to_scipy().T @ y)
            assert np.linalg.norm(back - y) <= 1e-12 * np.linalg.norm(y)

    def test_history_schema(self):
        _, M, dec = setup_problem(8, 2)
        es, rec = multilevel_correction(dec, M, 2, McParams(tol=1e-11))
        buf = io.StringIO()
        text = rec.to_csv(buf)
        header = text.splitlines()[0]
        assert header == "sweep,level,pair,lambda,rel_change,residual"
        assert len(text.splitlines()) == len(rec.rows) + 1


@settings(max_examples=10, deadline=None)
@given(n=st.sampled_from([8, 16]), eps=st.sampled_from([1.0 / 4, 1.0 / 8]),
       seed=st.integers(0, 3), log_contrast=st.floats(0.0, 4.0))
def test_property_mc_ritz_upper_bounds_and_m_orthonormal(n, eps, seed,
                                                         log_contrast):
    """On random small checkerboards every Ritz value MC records bounds its
    dense generalized eigenvalue from above, and the final vectors are
    M-orthonormal.  A run that stalls is judged on the result it carries.

    Each sweep's values come from one Rayleigh-Ritz, so the bound holds for
    them in ascending order; the pair labels can swap inside a near-degenerate
    cluster (``_match_clusters``), as they do near contrast 1 where
    lambda_2 and lambda_3 nearly coincide."""
    grid = Grid(n)
    hi = 10.0 ** (0.5 * log_contrast)
    K, M = assemble(grid, gen_checkerboard(seed, eps, 1.0 / hi, hi, grid))
    dec = transform(K, build_hierarchy({8: 2, 16: 3}[n], grid),
                    mode="localized", radius=1)
    try:
        es, rec = multilevel_correction(
            dec, M, 3, McParams(tol=1e-10, fine_level_extra=60))
    except NonConvergenceError as exc:
        es, rec = exc.result, exc.history
    expected = fine_spectrum(K, M, 3)
    for sweep in range(rec.last_sweep() + 1):
        ritz = np.sort(list(rec.sweep_values(sweep).values()))
        assert len(ritz) == 3
        assert np.all(ritz >= expected * (1.0 - 1e-10))
    V = es.m_normalized()
    gram = V.T @ (M.to_scipy() @ V)
    assert np.abs(gram - np.eye(3)).max() <= 1e-10


class TestRayleighExpansion:
    def test_worked_two_by_two(self):
        K = SparseOperator.from_diagonal([2.0, 3.0])
        M = SparseOperator.identity(2)
        w = np.array([1.0, 1.0])
        disc = rayleigh_quotient_expansion_check(K, M, (2.0, np.array([1.0, 0.0])), w)
        assert disc <= 1e-15
        # both sides equal 0.5 on this instance
        lhs = (w @ K.to_scipy() @ w) / (w @ w) - 2.0
        assert lhs == pytest.approx(0.5)

    def test_trial_equal_eigenvector(self):
        K = SparseOperator.from_diagonal([2.0, 3.0])
        M = SparseOperator.identity(2)
        v = np.array([1.0, 0.0])
        assert rayleigh_quotient_expansion_check(K, M, (2.0, v), v) <= 1e-15

    def test_random_instances(self):
        rng = np.random.default_rng(17)
        Kd = random_spd(12, rng)
        Md = random_spd(12, rng)
        lams, vecs = scipy.linalg.eigh(Kd, Md)
        K = SparseOperator.from_dense(Kd)
        M = SparseOperator.from_dense(Md)
        i = 3
        v = vecs[:, i] / np.sqrt(vecs[:, i] @ Kd @ vecs[:, i])
        for _ in range(20):
            w = rng.standard_normal(12)
            disc = rayleigh_quotient_expansion_check(K, M, (lams[i], v), w)
            assert disc <= 1e-12 * abs(lams[i])

    def test_zero_trial_rejected(self):
        K = SparseOperator.identity(2)
        with pytest.raises(InvalidArgumentError):
            rayleigh_quotient_expansion_check(K, K, (1.0, np.ones(2)),
                                              np.zeros(2))


class TestHelpers:
    def test_m_orthonormalize_drops_dependent(self):
        rng = np.random.default_rng(2)
        M = SparseOperator.identity(6).to_scipy()
        V = rng.standard_normal((6, 3))
        V = np.column_stack([V, V[:, 0] + V[:, 1]])
        Z, T = m_orthonormalize(V, M)
        assert Z.shape[1] == 3
        np.testing.assert_allclose(Z.T @ Z, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(V @ T, Z, atol=1e-12)

    def test_rayleigh_ritz_against_closed_form_tridiagonal(self):
        n = 9
        T = np.diag(2.0 * np.ones(n)) + np.diag(-np.ones(n - 1), 1) + np.diag(-np.ones(n - 1), -1)
        lams, vecs, _ = rayleigh_ritz(T, np.eye(n), np.eye(n))
        np.testing.assert_allclose(lams, tridiag_laplacian_spectrum(n), rtol=1e-13)
        np.testing.assert_allclose(vecs @ np.diag(lams) @ vecs.T, T, atol=1e-12)
        lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
        assert np.all(lead > 0)
        # the coefficients carry the Ritz vectors to another basis's columns
        V = np.random.default_rng(5).standard_normal((n, n))
        lams_v, vecs_v, C = rayleigh_ritz(T, np.eye(n), V)
        np.testing.assert_allclose(lams_v, lams, rtol=1e-13)
        np.testing.assert_allclose(V @ C, vecs_v, atol=1e-12)

    def test_eigenset_from_vectors(self):
        K = SparseOperator.from_diagonal([2.0, 6.0])
        M = SparseOperator.identity(2)
        es = EigenSet.from_vectors(K, M, [2.0], np.array([[2.0], [0.0]]))
        assert es.vectors[0, 0] == pytest.approx(1.0 / np.sqrt(2.0))
        assert es.residuals[0] <= 1e-15
        mn = es.m_normalized()
        assert mn[0, 0] == pytest.approx(1.0)
