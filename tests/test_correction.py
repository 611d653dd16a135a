import io

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from geig.correction import (
    _CLUSTER_RTOL,
    EigenSet,
    McParams,
    coarse_eigensolve,
    correct_block,
    m_orthonormalize,
    multilevel_correction,
    rayleigh_quotient_expansion_check,
    rayleigh_ritz,
)
from geig.errors import InvalidArgumentError, NonConvergenceError
from geig.fem import CoefficientField, Grid, assemble, gen_checkerboard
from geig.hierarchy import build_hierarchy
from geig.multigrid import energy_norm, mg
from geig.sparse import SparseOperator, dense_sym_geig
from geig.transform import oracle_level_matrices, transform, wavelet_vectors

from _oracles import random_spd, tridiag_laplacian_spectrum


def setup_problem(n, q, field=None, mode="exact", track=False):
    grid = Grid(n)
    if field is None:
        field = CoefficientField.constant(grid)
    K, M = assemble(grid, field)
    hier = build_hierarchy(q, grid)
    dec = transform(K, hier, mode=mode, track_vectors=track)
    return K, M, dec


def fine_spectrum(K, M, count):
    lams = scipy.linalg.eigh(K.to_dense(), M.to_dense(), eigvals_only=True)
    return lams[:count]


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

    def test_coarse_matrices_match_projected_oracle(self):
        K, M, dec = setup_problem(16, 3, track=True)
        hier = dec.hierarchy
        _, a_oracle = oracle_level_matrices(K, hier.aggregate(1))
        np.testing.assert_allclose(dec.A[1].to_dense(), a_oracle,
                                   rtol=1e-10, atol=1e-12)
        psi1, _ = wavelet_vectors(dec, 1)
        m_oracle = psi1 @ M.to_dense() @ psi1.T
        mass = dec.mass_levels(M)
        np.testing.assert_allclose(mass[1].to_dense(), m_oracle,
                                   rtol=1e-10, atol=1e-14)

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


class TestMassLevels:
    def test_each_mass_matrix_gets_its_own_restrictions(self):
        _, M, dec = setup_problem(8, 2)
        base = dec.mass_levels(M)[1].to_dense()
        for scale in (2.0, 3.0, 4.0):
            scaled = SparseOperator.from_scipy(scale * M.to_scipy(), symmetric=True)
            levels = dec.mass_levels(scaled)
            assert levels[dec.q] is scaled
            assert dec.mass_levels(scaled) is levels
            np.testing.assert_allclose(levels[1].to_dense(), scale * base,
                                       rtol=1e-13, atol=1e-15)


class TestOneCorrection:
    """A single-pair sweep of correct_block on the lowest pair."""

    def test_fixed_point_on_exact_pair(self):
        K, M, dec = setup_problem(16, 3)
        mass = dec.mass_levels(M)
        k = 2
        res = dense_sym_geig(dec.A[k].to_dense(), mass[k].to_dense())
        lam, y = res.lambdas[0], res.vectors_energy[:, 0]
        params = McParams(exact_inner=True)
        lam_out, y_out, _ = correct_block(k, res.lambdas[:1], y[:, None],
                                          dec, mass, params)
        assert abs(lam_out[0] - lam) <= 1e-10 * lam
        assert np.linalg.norm(y_out[:, 0] - y) <= 1e-8

    def test_matches_dense_subspace_oracle(self):
        K, M, dec = setup_problem(16, 3)
        mass = dec.mass_levels(M)
        es = coarse_eigensolve(dec, M, 1)
        k = dec.q
        y = es.vectors[:, 0]
        lam = es.lambdas[0]
        params = McParams()
        lam_out, _, _ = correct_block(k, es.lambdas, es.vectors, dec, mass,
                                      params)
        v_hat = mg(k, y, lam * (M.to_scipy() @ y), dec, params.mg)
        Z = np.column_stack([dec.coarse_basis(k), v_hat])
        G_a = Z.T @ K.to_dense() @ Z
        G_m = Z.T @ M.to_dense() @ Z
        ritz = scipy.linalg.eigh(0.5 * (G_a + G_a.T), 0.5 * (G_m + G_m.T),
                                 eigvals_only=True)
        assert abs(lam_out[0] - ritz[0]) <= 1e-11 * abs(ritz[0])

    def test_error_contraction(self):
        K, M, dec = setup_problem(16, 3)
        mass = dec.mass_levels(M)
        k = dec.q
        res = dense_sym_geig(K.to_dense(), M.to_dense())
        lam_star, v_star = res.lambdas[0], res.vectors_energy[:, 0]
        es = coarse_eigensolve(dec, M, 1)
        y = es.vectors[:, 0]
        if y @ M.to_scipy() @ v_star < 0:
            v_star = -v_star
        err_in = energy_norm(K, y - v_star)
        _, Y_out, _ = correct_block(k, es.lambdas, es.vectors, dec, mass,
                                    McParams())
        y_out = Y_out[:, 0]
        if y_out @ M.to_scipy() @ v_star < 0:
            y_out = -y_out
        err_out = energy_norm(K, y_out - v_star)
        gamma = err_out / err_in
        assert gamma < 0.6  # measured ~0.1-0.4 on this problem; frozen bound


class TestMultilevelCorrection:
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
        # Constant coefficients on the square: lambda_2 = lambda_3 exactly.
        K, M, dec = setup_problem(16, 3)
        sweeps = []

        def recording_correct_block(k, lams, Y, dec, mass, params):
            out = correct_block(k, lams, Y, dec, mass, params)
            sweeps.append((Y, out[0], out[1], mass[k].to_scipy()))
            return out

        monkeypatch.setattr("geig.correction.correct_block",
                            recording_correct_block)
        es, rec = multilevel_correction(dec, M, 4, McParams(tol=1e-12))
        expected = fine_spectrum(K, M, 4)
        assert expected[2] - expected[1] <= 1e-12 * expected[1]
        for _, _, pair, lam, _, _, _ in rec.rows:
            assert lam >= expected[pair] * (1.0 - 1e-12)
        np.testing.assert_allclose(es.lambdas, expected, rtol=1e-10)
        clustered = 0
        for Y, lams, X, M_sp in sweeps:
            if abs(lams[2] - lams[1]) >= _CLUSTER_RTOL * lams[2]:
                continue
            clustered += 1
            overlap = np.abs(Y.T @ (M_sp @ X))
            np.testing.assert_array_equal(np.argmax(overlap, axis=1), np.arange(4))
        assert clustered >= 3

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
        K = SparseOperator.from_dense(Kd, symmetric=True)
        M = SparseOperator.from_dense(Md, symmetric=True)
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
        Z = m_orthonormalize(V, M)
        assert Z.shape[1] == 3
        np.testing.assert_allclose(Z.T @ Z, np.eye(3), atol=1e-12)

    def test_rayleigh_ritz_against_closed_form_tridiagonal(self):
        n = 9
        T = np.diag(2.0 * np.ones(n)) + np.diag(-np.ones(n - 1), 1) + np.diag(-np.ones(n - 1), -1)
        lams, vecs = rayleigh_ritz(T, np.eye(n), np.eye(n))
        np.testing.assert_allclose(lams, tridiag_laplacian_spectrum(n), rtol=1e-13)
        np.testing.assert_allclose(vecs @ np.diag(lams) @ vecs.T, T, atol=1e-12)
        lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
        assert np.all(lead > 0)

    def test_eigenset_from_vectors(self):
        K = SparseOperator.from_diagonal([2.0, 6.0])
        M = SparseOperator.identity(2)
        es = EigenSet.from_vectors(K, M, [2.0], np.array([[2.0], [0.0]]))
        assert es.vectors[0, 0] == pytest.approx(1.0 / np.sqrt(2.0))
        assert es.residuals[0] <= 1e-15
        mn = es.m_normalized()
        assert mn[0, 0] == pytest.approx(1.0)
