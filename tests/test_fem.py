import numpy as np
import pytest
import scipy.linalg

from geig.errors import InvalidArgumentError, LoadError
from geig.fem import (
    CoefficientField,
    Grid,
    assemble,
    gen_anderson,
    gen_checkerboard,
    load_coefficient_file,
    nearest_dyadic_eps,
    save_coefficient_file,
)

from _oracles import tensor_product_eigenvalues


def smallest_eig(K, M):
    lams = scipy.linalg.eigh(K.to_dense(), M.to_dense(), eigvals_only=True)
    return lams[0]


class TestAssemble:
    def test_single_interior_node_hand_assembly(self):
        # four unit elements around the center node: K = 4 * 4/6, M = 4 * 4/36
        grid = Grid(2)
        K, M = assemble(grid, CoefficientField.constant(grid))
        assert K.shape == (1, 1)
        assert K.to_dense()[0, 0] == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert M.to_dense()[0, 0] == pytest.approx(4.0 / 9.0, rel=1e-15)
        assert (K.to_dense()[0, 0] / M.to_dense()[0, 0]) == pytest.approx(6.0, rel=1e-14)

    def test_linearity_in_conductivity(self):
        grid = Grid(8)
        K1, _ = assemble(grid, CoefficientField.constant(grid, 1.0))
        Kc, _ = assemble(grid, CoefficientField.constant(grid, 3.5))
        np.testing.assert_allclose(Kc.values, 3.5 * K1.values, rtol=1e-15)

    def test_smallest_eigenvalue_matches_tensor_closed_form(self):
        grid = Grid(16)
        K, M = assemble(grid, CoefficientField.constant(grid))
        lam = smallest_eig(K, M)
        expected = tensor_product_eigenvalues(16, 1)[0]
        assert abs(lam - expected) <= 1e-12 * expected

    def test_nine_point_stencil(self):
        grid = Grid(8)
        K, _ = assemble(grid, CoefficientField.constant(grid))
        per_row = np.diff(K.row_offsets)
        assert per_row.max() == 9

    def test_mass_times_ones_positive(self):
        grid = Grid(16)
        _, M = assemble(grid, CoefficientField.constant(grid))
        out = M.matvec(np.ones(grid.n_unknowns))
        assert np.all(out > 0)

    def test_shape_mismatch(self):
        grid = Grid(8)
        with pytest.raises(InvalidArgumentError):
            assemble(grid, CoefficientField(np.ones((4, 4))))

    def test_nonpositive_conductivity_rejected(self):
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidArgumentError):
                CoefficientField(np.full((4, 4), bad))

    def test_order_of_convergence_h2(self):
        # Dirichlet Laplacian on [-1,1]^2 has lambda_1 = pi^2/2; the FEM error
        # should shrink by about 4 per refinement.
        exact = np.pi**2 / 2.0
        errs = []
        for n in (8, 16, 32):
            grid = Grid(n)
            K, M = assemble(grid, CoefficientField.constant(grid))
            errs.append(abs(smallest_eig(K, M) - exact))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 3.6 <= r1 <= 4.4
        assert 3.6 <= r2 <= 4.4


class TestCheckerboard:
    def test_degenerate_range_is_constant(self):
        grid = Grid(16)
        f = gen_checkerboard(seed=1, eps=0.25, lo=1.0, hi=1.0, grid=grid)
        np.testing.assert_array_equal(f.a, np.ones((16, 16)))

    def test_determinism(self):
        grid = Grid(32)
        f1 = gen_checkerboard(seed=42, eps=1.0 / 16, lo=0.05, hi=20.0, grid=grid)
        f2 = gen_checkerboard(seed=42, eps=1.0 / 16, lo=0.05, hi=20.0, grid=grid)
        np.testing.assert_array_equal(f1.a, f2.a)

    def test_hi_fraction_concentrates(self):
        # 64 blocks per side = 4096 i.i.d. fair picks
        grid = Grid(128)
        f = gen_checkerboard(seed=7, eps=1.0 / 64, lo=1.0 / 20, hi=20.0, grid=grid)
        blocks = f.a[::2, ::2]
        assert blocks.shape == (64, 64)
        frac = np.mean(blocks == 20.0)
        assert 0.45 <= frac <= 0.55
        # frozen for seed 7: 2043 of 4096 blocks take the high value
        assert int(np.sum(blocks == 20.0)) == 2043

    def test_incompatible_eps(self):
        grid = Grid(24)
        with pytest.raises(InvalidArgumentError):
            gen_checkerboard(seed=0, eps=1.0 / 64, lo=1.0, hi=2.0, grid=grid)


class TestAnderson:
    def test_equal_levels_constant_potential(self):
        grid = Grid(16)
        f = gen_anderson(seed=3, eps=1.0 / 8, alpha=2.0, beta=2.0, grid=grid)
        np.testing.assert_array_equal(f.potential, np.full((16, 16), 2.0))
        np.testing.assert_array_equal(f.a, np.ones((16, 16)))

    def test_determinism(self):
        grid = Grid(32)
        f1 = gen_anderson(seed=5, eps=1.0 / 32, alpha=1.0, beta=1e4, grid=grid)
        f2 = gen_anderson(seed=5, eps=1.0 / 32, alpha=1.0, beta=1e4, grid=grid)
        np.testing.assert_array_equal(f1.potential, f2.potential)

    def test_spd_and_monotone_vs_constant_alpha(self):
        grid = Grid(32)
        f = gen_anderson(seed=11, eps=1.0 / 16, alpha=1.0, beta=1e4, grid=grid)
        K, M = assemble(grid, f)
        base = CoefficientField(np.ones((32, 32)), potential=np.ones((32, 32)))
        K0, M0 = assemble(grid, base)
        lam = smallest_eig(K, M)
        lam0 = smallest_eig(K0, M0)
        assert lam >= lam0
        np.linalg.cholesky(K.to_dense())  # SPD check

    def test_nearest_dyadic_eps(self):
        assert nearest_dyadic_eps(0.01) == 1.0 / 128
        assert nearest_dyadic_eps(1.0 / 64) == 1.0 / 64


class TestCoefficientFiles:
    def test_constant_file(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("2 2\n1 1\n1 1\n")
        f = load_coefficient_file(p)
        np.testing.assert_array_equal(f.a, np.ones((2, 2)))

    def test_roundtrip(self, tmp_path):
        grid = Grid(8)
        f = gen_checkerboard(seed=9, eps=0.25, lo=0.5, hi=2.0, grid=grid)
        p = tmp_path / "rt.txt"
        save_coefficient_file(f, p)
        back = load_coefficient_file(p)
        np.testing.assert_array_equal(back.a, f.a)

    def test_zero_entry_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        for bad in ("0", "nan", "inf"):
            p.write_text(f"2 2\n1 1\n{bad} 1\n")
            with pytest.raises(LoadError) as err:
                load_coefficient_file(p)
            assert ":3:" in str(err.value)

    def test_wrong_count(self, tmp_path):
        p = tmp_path / "short.txt"
        p.write_text("2 2\n1 1 1\n")
        with pytest.raises(LoadError):
            load_coefficient_file(p)

    def test_potential_file_allows_zero_but_not_negative(self, tmp_path):
        p = tmp_path / "pot.txt"
        p.write_text("2 2\n0 1\n2 3\n")
        f = load_coefficient_file(p, component="potential")
        np.testing.assert_array_equal(f.potential, [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(f.a, np.ones((2, 2)))
        bad = tmp_path / "neg.txt"
        bad.write_text("2 2\n0 1\n-1 3\n")
        with pytest.raises(LoadError) as err:
            load_coefficient_file(bad, component="potential")
        assert ":3:" in str(err.value)
