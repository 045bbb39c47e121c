"""Reduced-model construction against dense Schur-complement oracles."""
import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (collect_elementary, plan_and_secondary,
                     random_conduction_problem)
from mptop.analysis import solve_condensed
from mptop.condensation import EmptyPrimarySetError, condense, recover_secondary
from mptop.fem import DesignField, Filter, Grid, assemble
from mptop.partitions import AnalysisSet, build_plan, gather_secondary
from mptop.sparse import (
    CostLedger,
    Factorization,
    IndexSet,
    SingularMatrixError,
    SymmetricSparse,
    extract,
)

CHAIN3 = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])


def chain_plan(n=3, cases=1):
    """Primary {0, 2}, secondary-free {1}: two sets with swapped ends."""
    s1 = AnalysisSet(n, IndexSet([0], n), IndexSet([0, 2], n),
                     prescribed_values=np.zeros((1, cases)))
    s2 = AnalysisSet(n, IndexSet([2], n), IndexSet([0, 2], n),
                     prescribed_values=np.zeros((1, cases)))
    return build_plan([s1, s2], n)


class TestCondense:
    def test_identity_no_coupling(self):
        K = SymmetricSparse(np.eye(3))
        model = condense(K, chain_plan())
        np.testing.assert_allclose(model.reduced_matrix, np.eye(2), atol=1e-14)
        np.testing.assert_array_equal(model.reduced_loads, 0.0)
        assert model.load_states is None

    def test_chain_hand_elimination(self):
        # eliminating the middle DOF of the 3-chain by hand:
        # coupling solutions [-1/2, -1/2], Schur block [[1.5, -.5], [-.5, 1.5]]
        K = SymmetricSparse(CHAIN3)
        model = condense(K, chain_plan())
        np.testing.assert_allclose(model.static_modes, [[-0.5, -0.5]], rtol=1e-14)
        np.testing.assert_allclose(model.reduced_matrix,
                                   [[1.5, -0.5], [-0.5, 1.5]], rtol=1e-14)

    def test_chain_secondary_load(self):
        # unit load on the eliminated DOF spreads half to each neighbour
        K = SymmetricSparse(CHAIN3)
        plan = chain_plan()
        sec_loads = np.full((1, 2), 1.0)
        model = condense(K, plan, sec_loads=sec_loads)
        np.testing.assert_allclose(model.load_states, [[-0.5, -0.5]], rtol=1e-14)
        np.testing.assert_allclose(model.reduced_loads,
                                   [[0.5, 0.5], [0.5, 0.5]], rtol=1e-14)

    def test_empty_primary_refused(self):
        n = 3
        s = AnalysisSet(n, IndexSet([0], n), IndexSet([], n))
        plan = build_plan([s], n)
        with pytest.raises(EmptyPrimarySetError):
            condense(SymmetricSparse(CHAIN3), plan)

    def test_singular_coupling_block(self):
        K = SymmetricSparse(np.array(
            [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(SingularMatrixError):
            condense(K, chain_plan())

    def test_dense_schur_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            K, sets, grid, _ = random_conduction_problem(rng, max_grid=6)
            plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
            if plan.m == 0 or plan.f_sec == 0:
                continue
            model = condense(K, plan, sec_loads, sec_values)
            Kd = K.toarray()
            mm = np.ix_(plan.primary.ids, plan.primary.ids)
            mf = np.ix_(plan.primary.ids, plan.sec_free.ids)
            ff = np.ix_(plan.sec_free.ids, plan.sec_free.ids)
            fp = np.ix_(plan.sec_free.ids, plan.sec_prescribed.ids)
            mp = np.ix_(plan.primary.ids, plan.sec_prescribed.ids)
            kff_inv = np.linalg.inv(Kd[ff])
            schur = Kd[mm] - Kd[mf] @ kff_inv @ Kd[mf].T
            np.testing.assert_allclose(model.reduced_matrix, schur,
                                       rtol=1e-9, atol=1e-11)
            vf = kff_inv @ (Kd[fp] @ sec_values - sec_loads.toarray())
            ft = Kd[mf] @ vf - Kd[mp] @ sec_values
            np.testing.assert_allclose(model.reduced_loads, ft,
                                       rtol=1e-9, atol=1e-11)

    def test_symmetry_and_eigenvalue_floor(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            K, sets, grid, _ = random_conduction_problem(rng, max_grid=8)
            plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
            if plan.m == 0:
                continue
            model = condense(K, plan, sec_loads, sec_values)
            np.testing.assert_array_equal(model.reduced_matrix,
                                          model.reduced_matrix.T)
            assert np.linalg.eigvalsh(model.reduced_matrix).min() >= -1e-10

    def test_single_factorization_regardless_of_shape(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            K, sets, grid, _ = random_conduction_problem(rng, max_grid=6)
            plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
            if plan.m == 0 or plan.f_sec == 0:
                continue
            ledger = CostLedger()
            condense(K, plan, sec_loads, sec_values, ledger=ledger)
            assert ledger.count(op="factorize", matrix="sparse") == 1
            assert ledger.count(op="solve", matrix="sparse") == 1

    def test_reduced_load_vanishes_without_sources(self):
        rng = np.random.default_rng(14)
        K, sets, grid, _ = random_conduction_problem(
            rng, max_grid=6, with_secondary_sources=False)
        plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
        if plan.m == 0:
            pytest.skip("degenerate draw")
        # loads may touch secondary DOFs even in this mode; zero them out
        model = condense(K, plan, None, None)
        np.testing.assert_array_equal(model.reduced_loads, 0.0)
        assert model.load_states is None

    def test_no_secondary_free_dofs(self):
        # both DOFs primary: reduction degenerates to the plain block
        n = 2
        s1 = AnalysisSet(n, IndexSet([0], n), IndexSet([0, 1], n))
        s2 = AnalysisSet(n, IndexSet([1], n), IndexSet([0, 1], n))
        with pytest.warns(UserWarning):
            plan = build_plan([s1, s2], n)
        K = SymmetricSparse([[2.0, -1.0], [-1.0, 2.0]])
        model = condense(K, plan)
        np.testing.assert_allclose(model.reduced_matrix, K.toarray())

        # DOF 2 prescribed to 0.5 in both sets: secondary prescribed, still
        # with no secondary-free DOF to eliminate
        n = 3
        s1 = AnalysisSet(n, IndexSet([0, 2], n), IndexSet([0, 1], n),
                         prescribed_values=[[0.2], [0.5]])
        s2 = AnalysisSet(n, IndexSet([1, 2], n), IndexSet([0, 1], n),
                         prescribed_values=[[-0.3], [0.5]])
        with pytest.warns(UserWarning):
            plan = build_plan([s1, s2], n)
        assert (plan.m, plan.f_sec, plan.p_sec) == (2, 0, 1)
        sec_loads, sec_values = gather_secondary(plan, [s1, s2])
        K = SymmetricSparse(CHAIN3)
        ledger = CostLedger()
        model = condense(K, plan, sec_loads, sec_values, ledger=ledger)
        assert ledger.events == []
        k_mp = CHAIN3[np.ix_([0, 1], [2])]
        np.testing.assert_array_equal(model.reduced_loads, -(k_mp @ sec_values))
        cond = solve_condensed(model, [s1, s2])
        elem = collect_elementary(K, [s1, s2])
        for i in range(2):
            np.testing.assert_allclose(cond.sets[i].u_full,
                                       elem.sets[i].u_full[plan.primary.ids],
                                       rtol=0.0, atol=1e-12)

    def test_every_dof_of_interest_factorizes_an_empty_block(self):
        # every DOF of a 3 x 2 conduction grid is primary: the secondary-free
        # block is 0 x 0, and its factorization runs the sparse path unchanged
        grid = Grid(3, 2)
        n = grid.n_dofs
        K = assemble(grid, DesignField(grid, np.full(grid.n_elems, 0.7),
                                       Filter(grid, 1.5)))
        loads = np.zeros((n, 2))
        loads[[5, 11], [0, 1]] = [1.0, -0.5]
        sets = [AnalysisSet(n, IndexSet([dof], n), IndexSet(np.arange(n), n),
                            prescribed_values=[[0.3, -0.2]],
                            loads=sp.csc_matrix(loads))
                for dof in (0, 3)]
        with pytest.warns(UserWarning, match="no reduction"):
            plan = build_plan(sets, n)
        assert (plan.m, plan.f_sec, plan.p_sec) == (n, 0, 0)
        ledger = CostLedger()
        sec_loads, sec_values = gather_secondary(plan, sets)
        model = condense(K, plan, sec_loads, sec_values, ledger=ledger)
        np.testing.assert_array_equal(model.reduced_matrix,
                                      extract(K, plan.primary,
                                              plan.primary).toarray())
        assert isinstance(model.kff_fact, Factorization)
        assert model.kff_fact.n == 0
        assert ledger.events == []
        cond = solve_condensed(model, sets)
        elem = collect_elementary(K, sets)
        for i in range(2):
            np.testing.assert_allclose(cond.sets[i].u_full,
                                       elem.sets[i].u_full[plan.primary.ids],
                                       rtol=1e-12, atol=1e-14)


class TestRecoverSecondary:
    def test_midpoint_average(self):
        K = SymmetricSparse(CHAIN3)
        plan = chain_plan()
        model = condense(K, plan)
        u_primary = np.array([[0.0, 0.0], [1.0, 0.0]])
        u_sec, reactions = recover_secondary(model, u_primary)
        np.testing.assert_allclose(u_sec, [[0.5, 0.0]], rtol=1e-14)
        assert reactions.shape == (0, 2)

    def test_zero_state(self):
        K = SymmetricSparse(CHAIN3)
        model = condense(K, chain_plan())
        u_sec, reactions = recover_secondary(model, np.zeros((2, 2)))
        np.testing.assert_array_equal(u_sec, 0.0)

    def test_block_row_residual_random(self):
        # any primary state: the recovered secondary state satisfies the
        # eliminated equilibrium rows; a consistent reduced solve satisfies all
        rng = np.random.default_rng(15)
        for _ in range(6):
            K, sets, grid, _ = random_conduction_problem(rng, max_grid=5)
            plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
            if plan.m == 0 or plan.f_sec == 0:
                continue
            model = condense(K, plan, sec_loads, sec_values)
            l_tot = plan.total_cases
            scale = max(abs(K.mat).max(), 1.0)

            u_primary = rng.normal(size=(plan.m, l_tot))
            u_sec, _ = recover_secondary(model, u_primary)
            Kd = K.toarray()
            rows_f = plan.sec_free.ids
            resid_f = (Kd[np.ix_(rows_f, plan.primary.ids)] @ u_primary
                       + Kd[np.ix_(rows_f, rows_f)] @ u_sec
                       + Kd[np.ix_(rows_f, plan.sec_prescribed.ids)] @ sec_values
                       - sec_loads.toarray())
            assert np.abs(resid_f).max() <= 1e-9 * scale

            # full residual when the primary state solves the reduced system
            f_primary = rng.normal(size=(plan.m, l_tot))
            u_primary = np.linalg.solve(model.reduced_matrix,
                                        f_primary + model.reduced_loads)
            u_sec, reactions = recover_secondary(model, u_primary)
            full = np.zeros((plan.n, l_tot))
            full[plan.primary.ids] = u_primary
            full[rows_f] = u_sec
            full[plan.sec_prescribed.ids] = sec_values
            resid = Kd @ full
            resid[plan.primary.ids] -= f_primary
            resid[rows_f] -= sec_loads.toarray()
            resid[plan.sec_prescribed.ids] -= reactions
            assert np.abs(resid).max() <= 1e-8 * max(scale, np.abs(full).max())

    def test_no_new_factorization(self):
        K = SymmetricSparse(CHAIN3)
        ledger = CostLedger()
        model = condense(K, chain_plan(), ledger=ledger)
        before = ledger.count(op="factorize")
        recover_secondary(model, np.ones((2, 2)), ledger=ledger)
        assert ledger.count(op="factorize") == before

    def test_shape_check(self):
        model = condense(SymmetricSparse(CHAIN3), chain_plan())
        with pytest.raises(ValueError):
            recover_secondary(model, np.ones((3, 2)))
