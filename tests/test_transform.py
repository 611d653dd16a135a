import json
import sys

import numpy as np
import pytest

from geig.correction import McParams, multilevel_correction
from geig.errors import InvalidArgumentError, NotPositiveDefiniteError
from geig.fem import CoefficientField, Grid, assemble, gen_checkerboard
from geig.hierarchy import build_hierarchy
from geig.lobpcg import GambletPreconditioner, LobpcgParams, lobpcg
from geig.sparse import SparseOperator, dump_coordinate, galerkin_triple
from geig.transform import (
    _DENSE_BLOCK_FILL,
    _LEVEL_DROP_TOL,
    _truncate_level,
    decay_profile,
    load_decomposition,
    oracle_level_matrices,
    save_decomposition,
    transform,
    wavelet_vectors,
)

from _oracles import random_spd, reference_localized_interpolation


def make_problem(n, q, field=None, **kw):
    grid = Grid(n)
    if field is None:
        field = CoefficientField.constant(grid)
    K, M = assemble(grid, field)
    hier = build_hierarchy(q, grid)
    return K, M, hier


def rel_fro(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestOracle:
    def test_identity_aggregation(self):
        rng = np.random.default_rng(0)
        d = rng.standard_normal((6, 6))
        A = SparseOperator.from_dense(d @ d.T + 6 * np.eye(6))
        theta, a_k = oracle_level_matrices(A, SparseOperator.identity(6))
        np.testing.assert_allclose(theta, np.linalg.inv(A.to_dense()),
                                   atol=1e-12)
        np.testing.assert_allclose(a_k, A.to_dense(), atol=1e-10)

    def test_coordinate_selection(self):
        A = SparseOperator.from_diagonal([1.0, 2.0, 3.0, 4.0])
        Pi = SparseOperator.from_dense(np.array([[1.0, 0.0, 0.0, 0.0]]))
        theta, a_k = oracle_level_matrices(A, Pi)
        assert theta[0, 0] == pytest.approx(1.0)
        assert a_k[0, 0] == pytest.approx(1.0)


class TestTransformExact:
    def test_single_level_is_input(self):
        K, _, hier = make_problem(4, 1)
        dec = transform(K, hier)
        assert dec.q == 1
        np.testing.assert_array_equal(dec.A[1].to_dense(), K.to_dense())

    @pytest.mark.parametrize("n,q", [(8, 2), (8, 3), (16, 2), (16, 3)])
    def test_levels_match_dense_oracle_constant(self, n, q):
        K, _, hier = make_problem(n, q)
        dec = transform(K, hier, mode="exact")
        for k in range(1, q + 1):
            _, a_oracle = oracle_level_matrices(K, hier.aggregate(k))
            err = rel_fro(dec.A[k].to_dense(), a_oracle)
            assert err <= 1e-9, f"level {k}: {err}"

    def test_levels_match_dense_oracle_checkerboard(self):
        grid = Grid(16)
        field = gen_checkerboard(seed=7, eps=1.0 / 16, lo=1.0 / 20, hi=20.0,
                                 grid=grid)
        K, _ = assemble(grid, field)
        hier = build_hierarchy(3, grid)
        dec = transform(K, hier, mode="exact")
        for k in range(1, 4):
            _, a_oracle = oracle_level_matrices(K, hier.aggregate(k))
            assert rel_fro(dec.A[k].to_dense(), a_oracle) <= 1e-9

    def test_blocks_spd(self):
        K, _, hier = make_problem(16, 3)
        dec = transform(K, hier, mode="exact")
        for k in range(2, 4):
            np.linalg.cholesky(dec.B[k].to_dense())

    def test_coarsening_is_the_triple_product(self):
        K, _, hier = make_problem(16, 3)
        dec = transform(K, hier, mode="exact")
        for k in range(2, 4):
            again = galerkin_triple(dec.R[k], dec.A[k])
            assert rel_fro(again.to_dense(), dec.A[k - 1].to_dense()) <= 1e-13

    def test_interpolation_identity(self):
        # R pi^T = I: the adapted interpolation reproduces coarse measurements
        K, _, hier = make_problem(16, 3)
        dec = transform(K, hier, mode="exact")
        for k in range(2, 4):
            prod = dec.R[k].to_scipy() @ hier.pis[k - 2].to_scipy().T
            np.testing.assert_allclose(prod.toarray(),
                                       np.eye(dec.level_dim(k - 1)), atol=1e-10)


class TestWaveletVectors:
    def test_fine_level_identity(self):
        K, _, hier = make_problem(8, 2)
        dec = transform(K, hier)
        psi, chi = wavelet_vectors(dec, 2)
        np.testing.assert_array_equal(psi, np.eye(K.nrows))
        assert chi.shape == (hier.Ws[2].nrows, K.nrows)

    def test_biorthogonality(self):
        K, _, hier = make_problem(16, 3)
        dec = transform(K, hier, mode="exact")
        for k in (1, 2):
            psi, _ = wavelet_vectors(dec, k)
            phi = hier.aggregate(k).to_dense()
            gram = phi @ psi.T
            assert np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-8

    def test_scale_energy_orthogonality(self):
        K, _, hier = make_problem(16, 3)
        dec = transform(K, hier, mode="exact")
        Ks = K.to_scipy()
        chis = {}
        psi1, _ = wavelet_vectors(dec, 1)
        chis[1] = psi1
        for k in (2, 3):
            _, chis[k] = wavelet_vectors(dec, k)
        scale = np.linalg.norm(Ks.toarray())
        for k in (1, 2, 3):
            for m in (1, 2, 3):
                if k >= m:
                    continue
                cross = chis[k] @ (Ks @ chis[m].T)
                assert np.max(np.abs(cross)) <= 1e-8 * scale

    def test_block_diagonal_solve_matches_direct(self):
        # solving through the per-scale blocks reproduces the direct solve
        K, _, hier = make_problem(16, 3)
        dec = transform(K, hier, mode="exact")
        rng = np.random.default_rng(3)
        g = rng.standard_normal(K.nrows)
        psi1, _ = wavelet_vectors(dec, 1)
        u = psi1.T @ np.linalg.solve(dec.A[1].to_dense(), psi1 @ g)
        for k in (2, 3):
            _, chi = wavelet_vectors(dec, k)
            u = u + chi.T @ np.linalg.solve(dec.B[k].to_dense(), chi @ g)
        exact = np.linalg.solve(K.to_dense(), g)
        err = np.sqrt((u - exact) @ K.to_scipy() @ (u - exact))
        ref = np.sqrt(exact @ K.to_scipy() @ exact)
        assert err <= 1e-9 * ref


class TestDecayProfile:
    def test_total_energy_at_zero_radius(self):
        K, _, hier = make_problem(16, 3)
        dec = transform(K, hier, mode="exact")
        psi, _ = wavelet_vectors(dec, 2)
        prof = decay_profile(dec, 2, 5)
        v = psi[5]
        total = np.sqrt(v @ K.to_scipy() @ v)
        assert prof[0][1] == pytest.approx(total, rel=1e-12)

    def test_tails_decrease_from_center_cell(self):
        K, _, hier = make_problem(16, 3)
        dec = transform(K, hier, mode="exact")
        centers = hier.level_centers(2)
        i = int(np.argmin(np.linalg.norm(centers, axis=1)))
        prof = decay_profile(dec, 2, i)
        tails = [t for _, t in prof]
        nonzero = [t for t in tails if t > 0]
        assert all(a > b for a, b in zip(nonzero, nonzero[1:]))

    def test_index_out_of_range(self):
        K, _, hier = make_problem(8, 2)
        dec = transform(K, hier)
        with pytest.raises(InvalidArgumentError):
            decay_profile(dec, 1, 999)


class TestLocalized:
    def test_close_to_exact_on_small_problem(self):
        K, _, hier = make_problem(16, 3)
        exact = transform(K, hier, mode="exact")
        loc = transform(K, hier, mode="localized", radius=3)
        for k in (1, 2):
            err = rel_fro(loc.A[k].to_dense(), exact.A[k].to_dense())
            assert err <= 1e-3, f"level {k}: {err}"

    def test_sparser_than_exact(self):
        grid = Grid(32)
        field = gen_checkerboard(seed=3, eps=1.0 / 16, lo=0.1, hi=10.0, grid=grid)
        K, _ = assemble(grid, field)
        hier = build_hierarchy(4, grid)
        exact = transform(K, hier, mode="exact")
        loc = transform(K, hier, mode="localized", radius=2, droptol=1e-7)
        assert loc.R[4].nnz < exact.R[4].nnz

    def test_rows_are_exact_ball_solves(self):
        grid = Grid(16)
        field = gen_checkerboard(seed=5, eps=1.0 / 8, lo=0.05, hi=20.0,
                                 grid=grid)
        K, _ = assemble(grid, field)
        hier = build_hierarchy(3, grid)
        radius = 1
        dec = transform(K, hier, mode="localized", radius=radius)
        for k in (2, 3):
            # the ball radius in parent cells is radius x the level's depth
            ref = reference_localized_interpolation(
                dec.A[k].to_dense(), hier.Ws[k].to_dense(),
                hier.pis[k - 2].to_dense(), hier.wavelet_parent[k],
                radius * hier.level_depth(k))
            R = dec.R[k].to_scipy()
            kept = np.zeros(R.shape, dtype=bool)
            kept[R.nonzero()] = True
            scale = np.abs(ref).max()
            err = np.abs(R.toarray() - ref)
            assert err[kept].max() <= 1e-12 * scale, f"level {k}"
            # only entries at or below droptol are left out
            assert err[~kept].max(initial=0.0) <= dec.droptol, f"level {k}"

    def test_bad_radius(self):
        K, _, hier = make_problem(8, 2)
        with pytest.raises(InvalidArgumentError):
            transform(K, hier, mode="localized", radius=0)

    @pytest.mark.parametrize("droptol", [np.nan, np.inf, 0.0])
    def test_bad_droptol(self, droptol):
        K, _, hier = make_problem(8, 2)
        with pytest.raises(InvalidArgumentError):
            transform(K, hier, mode="localized", droptol=droptol)


def checker_problem(n, q, seed):
    """Contrast-400 checkerboard of 1/8 blocks: stiffness, mass, hierarchy."""
    grid = Grid(n)
    field = gen_checkerboard(seed=seed, eps=1.0 / 8, lo=0.05, hi=20.0,
                             grid=grid)
    K, M = assemble(grid, field)
    return K, M, build_hierarchy(q, grid)


class TestLevelTruncation:
    def test_drops_exactly_the_negligible_entries(self):
        K, _, hier = checker_problem(32, 4, seed=2)
        dec = transform(K, hier, mode="localized", radius=1)
        assert dec.A[dec.q] is K
        for k in range(2, dec.q + 1):
            full = galerkin_triple(dec.R[k], dec.A[k]).to_dense()
            kept = dec.A[k - 1].to_dense()
            d = np.diag(full)
            np.testing.assert_array_equal(np.diag(kept), d)
            stored = np.zeros(full.shape, dtype=bool)
            stored[dec.A[k - 1].to_scipy().nonzero()] = True
            np.fill_diagonal(stored, False)
            big = np.abs(full) > _LEVEL_DROP_TOL * np.sqrt(np.outer(d, d))
            np.fill_diagonal(big, False)
            np.testing.assert_array_equal(stored, big)
            np.testing.assert_array_equal(kept[stored], full[stored])
            dropped = (full != 0.0) & ~stored
            np.fill_diagonal(dropped, False)
            assert dropped.any(), f"level {k - 1}"

    def test_exact_mode_keeps_the_galerkin_levels(self):
        K, _, hier = checker_problem(16, 3, seed=2)
        dec = transform(K, hier, mode="exact")
        assert dec.A[dec.q] is K
        for k in range(2, dec.q + 1):
            full = galerkin_triple(dec.R[k], dec.A[k])
            assert dec.A[k - 1].nnz == full.nnz
            np.testing.assert_array_equal(dec.A[k - 1].to_dense(),
                                          full.to_dense())

    @pytest.mark.parametrize("mode", ["exact", "localized"])
    def test_restrict_is_the_adjoint_of_prolong(self, mode):
        K, _, hier = checker_problem(16, 3, seed=2)
        dec = transform(K, hier, mode=mode, radius=1)
        for k in range(1, dec.q + 1):
            P = dec.prolong(k, np.eye(dec.level_dim(k)))
            Pt = dec.restrict(k, np.eye(K.nrows))
            assert np.abs(Pt - P.T).max() <= 1e-12 * np.abs(P).max()
            ref = P.T @ K.to_dense() @ P
            got = dec.restrict(k, K.to_scipy() @ P)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            if mode == "exact" or k == dec.q:
                # the Galerkin levels are the fine matrix restricted
                assert np.abs(dec.A[k].to_dense() - ref).max() \
                    <= 1e-12 * np.abs(ref).max()

    def test_prolong_chains_through_intermediate_levels(self):
        K, _, hier = checker_problem(16, 3, seed=2)
        dec = transform(K, hier, mode="localized", radius=1)
        Y = np.random.default_rng(1).standard_normal((dec.level_dim(1), 3))
        Y2 = dec.prolong(1, Y, to=2)
        np.testing.assert_array_equal(Y2, dec.R[2].to_scipy().T @ Y)
        np.testing.assert_array_equal(dec.prolong(2, Y2), dec.prolong(1, Y))
        np.testing.assert_array_equal(dec.coarse_basis(2),
                                      dec.prolong(1, np.eye(len(Y)), to=2))

    def test_indefinite_truncation_refused_naming_the_level(self):
        # rows 2 and 3 couple through row 1 alone once their small entry
        # s is dropped: the kept matrix has the eigenvalue 1 - sqrt(2) g
        # = -s / 10 along (sqrt 2, 1, 1); s adds about s / 2 to it
        s = _LEVEL_DROP_TOL
        g = (1.0 + s / 10) / np.sqrt(2.0)
        full = np.array([[1.0, -g, -g], [-g, 1.0, s], [-g, s, 1.0]])
        kept = full.copy()
        kept[1, 2] = kept[2, 1] = 0.0
        assert np.linalg.eigvalsh(full)[0] > 0 > np.linalg.eigvalsh(kept)[0]
        A = SparseOperator.from_dense(full)
        with pytest.raises(NotPositiveDefiniteError, match="level 2"):
            _truncate_level(A, 2)

    def test_eigenvalues_match_untruncated_levels(self, monkeypatch):
        K, M, hier = checker_problem(32, 4, seed=5)
        X0 = np.random.default_rng(3).standard_normal((K.nrows, 4))

        def solve():
            dec = transform(K, hier, mode="localized", radius=1)
            es_mc, _ = multilevel_correction(dec, M, 4, McParams(tol=1e-12))
            es_lo, _ = lobpcg(K, M, GambletPreconditioner(dec), X0, 4,
                              LobpcgParams(tol=1e-8, maxit=200))
            return dec, es_mc.lambdas, es_lo.lambdas

        dec_t, mc_t, lo_t = solve()
        monkeypatch.setattr(sys.modules[transform.__module__],
                            "_LEVEL_DROP_TOL", 0.0)
        dec_f, mc_f, lo_f = solve()
        assert dec_t.A[hier.q - 1].nnz < dec_f.A[hier.q - 1].nnz
        np.testing.assert_allclose(mc_t, mc_f, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(lo_t, lo_f, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(mc_t, lo_t, rtol=1e-10, atol=0.0)


def shifted_to_indefinite(A0, hier):
    """A0 - c I with c the largest diagonal entry of the fine wavelet block
    W A0 W^T, so that block has a nonpositive diagonal entry while A0 - c I
    keeps eigenvalues of both signs."""
    B0 = galerkin_triple(hier.Ws[hier.q], A0)
    c = B0.diagonal().max()
    dense = A0.to_dense() - c * np.eye(A0.nrows)
    lams = np.linalg.eigvalsh(dense)
    assert lams[0] < 0 < lams[-1]
    return SparseOperator.from_dense(dense), B0


class TestIndefiniteInput:
    @pytest.mark.parametrize("mode", ["exact", "localized"])
    @pytest.mark.parametrize("branch", ["banded", "dense"])
    def test_refused_naming_the_level(self, mode, branch):
        K, _, hier = make_problem(16, 3)
        A0 = K
        if branch == "dense":
            # a dense SPD term fills the wavelet block in
            rng = np.random.default_rng(4)
            A0 = SparseOperator.from_dense(
                K.to_dense() + 1e-3 * random_spd(K.nrows, rng) / K.nrows)
        A, B0 = shifted_to_indefinite(A0, hier)
        assert (B0.fill_fraction() > _DENSE_BLOCK_FILL) == (branch == "dense")
        with pytest.raises(NotPositiveDefiniteError, match="level 3"):
            transform(A, hier, mode=mode, radius=1)


class TestGeometricVariant:
    def test_interpolations_are_nesting_matrices(self):
        K, _, hier = make_problem(16, 3)
        dec = transform(K, hier, variant="geometric")
        for k in (2, 3):
            np.testing.assert_array_equal(dec.R[k].to_dense(),
                                          hier.pis[k - 2].to_dense())


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        K, _, hier = make_problem(16, 3)
        dec = transform(K, hier, mode="exact")
        save_decomposition(dec, tmp_path / "dec")
        back = load_decomposition(tmp_path / "dec")
        assert back.q == dec.q
        for k in range(1, 4):
            np.testing.assert_array_equal(back.A[k].to_dense(),
                                          dec.A[k].to_dense())
        for k in range(2, 4):
            np.testing.assert_array_equal(back.R[k].to_dense(),
                                          dec.R[k].to_dense())
        psi_b, _ = wavelet_vectors(back, 1)
        psi_o, _ = wavelet_vectors(dec, 1)
        np.testing.assert_array_equal(psi_b, psi_o)

    def test_loads_a_decomposition_saved_with_basis_files(self, tmp_path):
        """A directory whose manifest is marked "tracked" and that holds the
        dense per-level bases Psi_k.txt still loads; the bases are derived
        from the interpolations, so the extra files are ignored."""
        K, _, hier = make_problem(16, 3)
        dec = transform(K, hier, mode="exact")
        out = tmp_path / "dec"
        save_decomposition(dec, out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["tracked"] = True
        (out / "manifest.json").write_text(json.dumps(manifest))
        for k in range(1, dec.q + 1):
            psi, _ = wavelet_vectors(dec, k)
            dump_coordinate(SparseOperator.from_dense(psi),
                            out / f"Psi_{k}.txt")
        back = load_decomposition(out)
        fresh = transform(K, hier, mode="exact")
        for k in range(1, dec.q + 1):
            for got, want in zip(wavelet_vectors(back, k),
                                 wavelet_vectors(fresh, k)):
                if want is None:
                    assert got is None
                else:
                    np.testing.assert_array_equal(got, want)
