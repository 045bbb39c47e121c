"""Element matrices, filtering, SIMP, assembly and the dK contraction."""
import numpy as np
import pytest
import scipy.sparse as sp

from mptop.fem import (
    DesignField,
    Filter,
    Grid,
    assemble,
    contract_dk_raw,
    element_matrix,
    simp,
    simp_derivative,
)


def classic_plane_stress_ke(E=1.0, nu=0.3):
    """Closed-form bilinear-quad plane-stress matrix (textbook coefficients)."""
    k = np.array([
        0.5 - nu / 6, 0.125 + nu / 8, -0.25 - nu / 12, -0.125 + 3 * nu / 8,
        -0.25 + nu / 12, -0.125 - nu / 8, nu / 6, 0.125 - 3 * nu / 8,
    ])
    KE = E / (1 - nu ** 2) * np.array([
        [k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7]],
        [k[1], k[0], k[7], k[6], k[5], k[4], k[3], k[2]],
        [k[2], k[7], k[0], k[5], k[6], k[3], k[4], k[1]],
        [k[3], k[6], k[5], k[0], k[7], k[2], k[1], k[4]],
        [k[4], k[5], k[6], k[7], k[0], k[1], k[2], k[3]],
        [k[5], k[4], k[3], k[2], k[1], k[0], k[7], k[6]],
        [k[6], k[3], k[4], k[1], k[2], k[7], k[0], k[5]],
        [k[7], k[2], k[1], k[4], k[3], k[6], k[5], k[0]],
    ])
    return KE


class TestElementMatrix:
    def test_conduction_row_sums_zero(self):
        ke = element_matrix("conduction")
        np.testing.assert_allclose(ke.sum(axis=1), 0.0, atol=1e-14)

    def test_conduction_diagonal_two_thirds(self):
        # exact value from integrating the bilinear gradients over the unit square
        ke = element_matrix("conduction")
        np.testing.assert_allclose(np.diag(ke), 2.0 / 3.0, rtol=1e-14)

    def test_conduction_quadrature_oracle(self):
        # 2x2 Gauss is exact for these integrands; 4x4 must agree to roundoff
        np.testing.assert_allclose(element_matrix("conduction", order=2),
                                   element_matrix("conduction", order=4),
                                   atol=1e-13)

    def test_elasticity_rigid_modes(self):
        ke = element_matrix("plane-stress")
        tx = np.tile([1.0, 0.0], 4)
        ty = np.tile([0.0, 1.0], 4)
        # rotation about the element center, CCW corner order from lower-left
        xy = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float) - 0.5
        rot = np.column_stack([-xy[:, 1], xy[:, 0]]).ravel()
        for mode in (tx, ty, rot):
            np.testing.assert_allclose(ke @ mode, 0.0, atol=1e-13)

    def test_elasticity_matches_closed_form_spectrum(self):
        # node ordering differs from the textbook layout; eigenvalues do not
        ours = np.sort(np.linalg.eigvalsh(element_matrix("plane-stress")))
        ref = np.sort(np.linalg.eigvalsh(classic_plane_stress_ke()))
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_symmetric_psd(self):
        for kind in ("conduction", "plane-stress"):
            ke = element_matrix(kind)
            np.testing.assert_allclose(ke, ke.T, atol=1e-14)
            assert np.linalg.eigvalsh(ke).min() > -1e-12


class TestFilter:
    def test_rows_sum_to_one(self):
        flt = Filter(Grid(7, 5), radius=2.0)
        np.testing.assert_allclose(np.asarray(flt.w.sum(axis=1)).ravel(), 1.0,
                                   rtol=1e-13)

    def test_uniform_field_fixed_point(self):
        flt = Filter(Grid(6, 4), radius=2.0)
        np.testing.assert_allclose(flt.apply(np.full(24, 0.37)), 0.37, rtol=1e-13)

    def test_small_radius_is_identity(self):
        grid = Grid(5, 5)
        x = np.random.default_rng(0).uniform(0.1, 1.0, grid.n_elems)
        for r in (0.0, 0.5, 1.0):
            np.testing.assert_allclose(Filter(grid, r).apply(x), x, atol=1e-14)

    def test_blurs_a_spike(self):
        grid = Grid(5, 5)
        x = np.zeros(grid.n_elems)
        x[12] = 1.0
        xf = Filter(grid, 2.0).apply(x)
        assert xf[12] < 1.0
        assert xf.sum() > 0.0
        assert np.count_nonzero(xf) > 1


class TestSimp:
    def test_bounds(self):
        assert simp(1.0) == 1.0
        assert simp(0.0) == 1e-9

    def test_midpoint(self):
        np.testing.assert_allclose(simp(0.5, 3.0, 1e-9),
                                   0.125 * (1 - 1e-9) + 1e-9, rtol=1e-15)

    def test_monotone(self):
        xs = np.linspace(0.0, 1.0, 50)
        assert np.all(np.diff(simp(xs)) > 0)

    def test_derivative_fd(self):
        eps = 1e-7
        for xf in (0.2, 0.5, 0.9):
            fd = (simp(xf + eps) - simp(xf - eps)) / (2 * eps)
            np.testing.assert_allclose(simp_derivative(xf), fd, rtol=1e-6)


def make_design(grid, x, radius=0.0, penal=3.0, emin=1e-9):
    return DesignField(grid, x, Filter(grid, radius), penal, emin)


class TestDesignField:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_naming_first_element(self, bad):
        grid = Grid(3, 2)
        x = np.full(grid.n_elems, 0.5)
        x[[2, 4]] = bad
        with pytest.raises(ValueError, match=r"x\[2\] = .* is not finite"):
            make_design(grid, x)


class TestAssemble:
    def test_single_element_full_material(self):
        grid = Grid(1, 1)
        K = assemble(grid, make_design(grid, np.ones(1)))
        ke = element_matrix("conduction")
        full = np.zeros((4, 4))
        full[np.ix_(grid.edof[0], grid.edof[0])] = ke
        np.testing.assert_allclose(K.toarray(), full, atol=1e-14)

    def test_void_scaling(self):
        grid = Grid(3, 2)
        K1 = assemble(grid, make_design(grid, np.ones(6))).toarray()
        K0 = assemble(grid, make_design(grid, np.zeros(6))).toarray()
        np.testing.assert_allclose(K0, 1e-9 * K1, rtol=1e-9)

    def test_two_element_hand_assembly(self):
        grid = Grid(2, 1)
        x = np.array([0.7, 0.4])
        design = make_design(grid, x)
        K = assemble(grid, design).toarray()
        # independent scatter loop
        ref = np.zeros((6, 6))
        ke = element_matrix("conduction")
        for e in range(2):
            idx = grid.edof[e]
            ref[np.ix_(idx, idx)] += design.scales[e] * ke
        np.testing.assert_allclose(K, ref, atol=1e-14)
        # shared-edge nodes carry contributions from both elements
        shared = set(grid.edof[0]) & set(grid.edof[1])
        assert len(shared) == 2
        for nid in shared:
            np.testing.assert_allclose(ref[nid, nid], (design.scales.sum()) * 2 / 3)

    def test_elastic_assembly_dimension_and_symmetry(self):
        grid = Grid(3, 3, physics="plane-stress")
        K = assemble(grid, make_design(grid, np.full(9, 0.5)))
        assert K.n == 2 * 16
        np.testing.assert_allclose(K.toarray(), K.toarray().T, atol=1e-14)

    def test_linearity_in_element_scale(self):
        grid = Grid(2, 2)
        d1 = make_design(grid, np.array([1.0, 0.0, 0.0, 0.0]), emin=0.0)
        d2 = make_design(grid, np.array([0.5, 0.0, 0.0, 0.0]), emin=0.0)
        K1 = assemble(grid, d1).toarray()
        K2 = assemble(grid, d2).toarray()
        np.testing.assert_allclose(K2, 0.125 * K1, atol=1e-14)


def coo_assembly(grid, design):
    """Reference K: every element's scaled ke scattered as COO triplets and
    summed into CSR."""
    k = grid.edof.shape[1]
    rows = np.repeat(grid.edof, k, axis=1).ravel()
    cols = np.tile(grid.edof, (1, k)).ravel()
    vals = np.einsum("e,ij->eij", design.scales, grid.ke).ravel()
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(grid.n_dofs, grid.n_dofs)).tocsr()


class TestFixedPatternAssembly:
    @pytest.mark.parametrize("physics", ["conduction", "plane-stress"])
    def test_matches_coo_reference(self, physics):
        grid = Grid(9, 7, physics=physics)
        x = np.random.default_rng(13).uniform(0.05, 1.0, grid.n_elems)
        design = make_design(grid, x, radius=1.5)
        K = assemble(grid, design).mat
        ref = coo_assembly(grid, design)
        assert (K != K.T).nnz == 0                  # exactly symmetric
        assert abs(K - ref).max() <= 1e-15 * abs(ref).max()
        if physics == "conduction":
            assert (K != ref).nnz == 0              # bit for bit

    def test_pattern_is_built_once_per_grid(self):
        grid = Grid(5, 4, physics="plane-stress")
        K1 = assemble(grid, make_design(grid, np.full(20, 0.3)))
        K2 = assemble(grid, make_design(grid, np.full(20, 0.8)))
        assert K1.pattern is K2.pattern
        assert K1.pattern.indices.dtype == np.int32
        assert K1.bandwidth == int((grid.edof.max(axis=1)
                                    - grid.edof.min(axis=1)).max())


class TestDkContract:
    def test_one_field_as_both_sides(self):
        # a self-adjoint contraction gathers its one field once; the sums
        # agree to roundoff (BLAS may sum aligned copies in another order)
        grid = Grid(5, 4, physics="plane-stress")
        rng = np.random.default_rng(9)
        design = make_design(grid, rng.uniform(0.3, 0.9, grid.n_elems))
        U = rng.normal(size=(grid.n_dofs, 70))      # two column chunks
        for field in (U, U[:, 0]):
            np.testing.assert_allclose(
                contract_dk_raw(grid, design, field, field),
                contract_dk_raw(grid, design, field, field.copy()),
                rtol=1e-14, atol=0.0)

    def test_chunk_shrinks_with_the_columns(self, monkeypatch):
        # at 32 columns a chunk is RAW_CHUNK / 4 elements: one call's
        # transient stays under four of its gathers (it was three gathers of
        # a RAW_CHUNK chunk), and each element's sum is the one a
        # RAW_CHUNK-element chunk gives, bit for bit
        import tracemalloc

        import mptop.fem
        grid = Grid(64, 64)
        rng = np.random.default_rng(10)
        design = make_design(grid, rng.uniform(0.3, 0.9, grid.n_elems))
        L, R = rng.normal(size=(2, grid.n_dofs, 32))
        gather = 8 * (mptop.fem.RAW_CHUNK // 4) * grid.edof.size // \
            grid.n_elems * 32
        for right in (R, L):        # two operands, then self-adjoint
            tracemalloc.start()
            try:
                got = contract_dk_raw(grid, design, L, right)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * gather
            with monkeypatch.context() as m:
                m.setattr(mptop.fem, "RAW_CHUNK", 4 * mptop.fem.RAW_CHUNK)
                ref = contract_dk_raw(grid, design, L, right)
            assert got.tobytes() == ref.tobytes()

    def test_zero_left(self):
        grid = Grid(2, 2)
        design = make_design(grid, np.full(4, 0.6))
        out = design.flt.chain(contract_dk_raw(
            grid, design, np.zeros(grid.n_dofs), np.ones(grid.n_dofs)))
        np.testing.assert_array_equal(out, 0.0)

    def test_single_element_fd(self):
        grid = Grid(1, 1)
        rng = np.random.default_rng(5)
        u = rng.normal(size=4)
        x = np.array([0.6])
        design = make_design(grid, x)
        grad = design.flt.chain(contract_dk_raw(grid, design, u, u))

        def energy(xv):
            d = make_design(grid, xv)
            return u @ (assemble(grid, d).mat @ u)

        eps = 1e-6
        fd = (energy(x + eps) - energy(x - eps)) / (2 * eps)
        np.testing.assert_allclose(grad[0], fd, rtol=1e-6)

    def test_multicolumn_fd_with_filter(self):
        grid = Grid(4, 4)
        rng = np.random.default_rng(6)
        L = rng.normal(size=(grid.n_dofs, 3))
        R = rng.normal(size=(grid.n_dofs, 3))
        x = rng.uniform(0.3, 0.9, grid.n_elems)
        flt = Filter(grid, 2.0)
        design = DesignField(grid, x, flt)
        grad = design.flt.chain(contract_dk_raw(grid, design, L, R))

        def energy(xv):
            d = DesignField(grid, xv, flt)
            K = assemble(grid, d).mat
            return sum(L[:, c] @ (K @ R[:, c]) for c in range(3))

        eps = 1e-6
        for k in (0, 5, 11):
            dx = np.zeros_like(x)
            dx[k] = eps
            fd = (energy(x + dx) - energy(x - dx)) / (2 * eps)
            np.testing.assert_allclose(grad[k], fd, rtol=1e-5)

    def test_filter_chain_identity_at_zero_radius(self):
        grid = Grid(3, 3)
        rng = np.random.default_rng(7)
        u = rng.normal(size=grid.n_dofs)
        design = make_design(grid, rng.uniform(0.2, 1.0, 9), radius=0.0)
        raw = contract_dk_raw(grid, design, u, u)
        np.testing.assert_allclose(design.flt.chain(raw), raw, atol=1e-15)

    def test_elastic_fd_both_kinds(self):
        grid = Grid(4, 4, physics="plane-stress")
        rng = np.random.default_rng(8)
        u = rng.normal(size=grid.n_dofs)
        x = rng.uniform(0.3, 0.9, grid.n_elems)
        flt = Filter(grid, 2.0)
        design = DesignField(grid, x, flt)
        grad = design.flt.chain(contract_dk_raw(grid, design, u, u))

        def energy(xv):
            return u @ (assemble(grid, DesignField(grid, xv, flt)).mat @ u)

        eps = 1e-6
        for k in (2, 7, 15):
            dx = np.zeros_like(x)
            dx[k] = eps
            fd = (energy(x + dx) - energy(x - dx)) / (2 * eps)
            np.testing.assert_allclose(grad[k], fd, rtol=1e-5)
