"""Pipeline equivalence and cost accounting of the two response frontends."""
import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (collect_elementary, plan_and_secondary,
                     random_conduction_problem)
from mptop.analysis import solve_condensed
from mptop.condensation import condense
from mptop.partitions import AnalysisSet, build_plan
from mptop.sparse import CostLedger, IndexSet, SymmetricSparse

CHAIN3 = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])


class TestElementary:
    def test_chain_pin_and_load(self):
        # fix DOF 0, unit load at DOF 2: free solve gives [1/3, 2/3]... by
        # hand: [[2,-1],[-1,2]] u = [0,1] -> u = [1/3, 2/3]; reaction -1/3
        n = 3
        loads = np.zeros((n, 1))
        loads[2] = 1.0
        aset = AnalysisSet(n, IndexSet([0], n), IndexSet([2], n),
                           loads=sp.csc_matrix(loads))
        K = SymmetricSparse(CHAIN3)
        sol = collect_elementary(K, [aset], want_reactions=True)
        np.testing.assert_allclose(sol.sets[0].u_free,
                                   [[1.0 / 3.0], [2.0 / 3.0]], rtol=1e-14)
        np.testing.assert_allclose(sol.sets[0].reactions, [[-1.0 / 3.0]],
                                   rtol=1e-13)

    def test_stored_zeros_and_duplicate_loads(self):
        # the sparse loads are scattered onto the free rows: a stored zero at
        # the last (prescribed) DOF and a load split over two entries solve
        # as the dense loads do, and the caller's matrix is left as given
        n = 3
        loads = sp.csc_matrix((np.array([0.25, 0.75, 0.0]),
                               np.array([1, 1, 2]), np.array([0, 3])),
                              shape=(n, 1))
        aset = AnalysisSet(n, IndexSet([2], n), IndexSet([1], n),
                           loads=loads)
        assert loads.nnz == 3
        K = SymmetricSparse(CHAIN3)
        sol = collect_elementary(K, [aset])
        np.testing.assert_allclose(sol.sets[0].u_full,
                                   [[1.0 / 3.0], [2.0 / 3.0], [0.0]],
                                   rtol=1e-14)

    def test_zero_inputs_zero_outputs(self):
        n = 3
        aset = AnalysisSet(n, IndexSet([0], n), IndexSet([], n),
                           prescribed_values=np.zeros((1, 2)))
        K = SymmetricSparse(CHAIN3)
        sol = collect_elementary(K, [aset], want_reactions=True)
        np.testing.assert_array_equal(sol.sets[0].u_full, 0.0)
        np.testing.assert_array_equal(sol.sets[0].reactions, 0.0)

    def test_prescribed_lift_residual(self):
        # nonzero prescribed value, no loads: the full equilibrium rows at
        # free DOFs must close to machine precision
        rng = np.random.default_rng(21)
        K, sets, grid, _ = random_conduction_problem(rng, max_grid=6)
        sol = collect_elementary(K, sets, want_reactions=True)
        for aset, states in zip(sets, sol.sets):
            resid = K.mat @ states.u_full - aset.loads.toarray()
            resid[aset.prescribed.ids, :] -= states.reactions
            assert np.abs(resid).max() <= 1e-9 * max(1.0, abs(K.mat).max())

    def test_one_factorization_per_set(self):
        rng = np.random.default_rng(22)
        K, sets, grid, _ = random_conduction_problem(rng, max_grid=6)
        ledger = CostLedger()
        collect_elementary(K, sets, ledger=ledger)
        assert ledger.count(op="factorize", matrix="sparse") == len(sets)


class TestCondensedPipeline:
    def test_swapped_partitions_match_direct_solves(self):
        # two reduced analyses on one reduced matrix with opposite ends driven
        n = 3
        s1 = AnalysisSet(n, IndexSet([0], n), IndexSet([0, 2], n),
                         prescribed_values=np.array([[1.0]]))
        s2 = AnalysisSet(n, IndexSet([2], n), IndexSet([0, 2], n),
                         prescribed_values=np.array([[2.0]]))
        sets = [s1, s2]
        K = SymmetricSparse(CHAIN3)
        plan = build_plan(sets, n)
        model = condense(K, plan)
        sol = solve_condensed(model, sets, want_reactions=True)
        ref = collect_elementary(K, sets, want_reactions=True)
        for i in range(2):
            np.testing.assert_allclose(sol.sets[i].u_full,
                                       ref.sets[i].u_full[plan.primary.ids],
                                       rtol=1e-12)

    def test_equivalence_randomized(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 12:
            K, sets, grid, _ = random_conduction_problem(rng, max_grid=12)
            plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
            if plan.m == 0:
                continue
            checked += 1
            model = condense(K, plan, sec_loads, sec_values)
            cond = solve_condensed(model, sets)
            elem = collect_elementary(K, sets)
            for i in range(len(sets)):
                a = cond.sets[i].u_full
                b = elem.sets[i].u_full[plan.primary.ids]
                scale = max(np.abs(b).max(), 1e-30)
                assert np.abs(a - b).max() <= 1e-9 * scale

    def test_cost_split(self):
        rng = np.random.default_rng(25)
        K, sets, grid, _ = random_conduction_problem(rng, max_grid=8)
        plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
        if plan.m == 0:
            pytest.skip("degenerate draw")
        ledger = CostLedger()
        model = condense(K, plan, sec_loads, sec_values, ledger=ledger)
        solve_condensed(model, sets, ledger=ledger)
        assert ledger.count(op="factorize", matrix="sparse") == 1
        assert ledger.count(op="factorize", matrix="dense") == len(sets)

    def test_vanishing_reduced_load_plain_solve(self):
        # no secondary sources: condensed solve is a plain partitioned solve
        rng = np.random.default_rng(26)
        K, sets, grid, _ = random_conduction_problem(
            rng, max_grid=6, with_secondary_sources=False)
        plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
        if plan.m == 0:
            pytest.skip("degenerate draw")
        model = condense(K, plan, sec_loads, sec_values)
        np.testing.assert_array_equal(model.reduced_loads, 0.0)
        cond = solve_condensed(model, sets)
        elem = collect_elementary(K, sets)
        for i in range(len(sets)):
            np.testing.assert_allclose(cond.sets[i].u_full,
                                       elem.sets[i].u_full[plan.primary.ids],
                                       atol=1e-11)

    def test_prescribed_echo(self):
        n = 3
        s1 = AnalysisSet(n, IndexSet([0], n), IndexSet([0, 2], n),
                         prescribed_values=np.array([[3.5]]))
        s2 = AnalysisSet(n, IndexSet([2], n), IndexSet([0, 2], n))
        plan = build_plan([s1, s2], n)
        model = condense(SymmetricSparse(CHAIN3), plan)
        sol = solve_condensed(model, [s1, s2])
        pos0 = plan.presc_primary_pos[0]
        assert sol.sets[0].u_full[pos0, 0] == 3.5


class TestReactionConsistency:
    def test_global_equilibrium_after_recovery(self):
        from mptop.condensation import recover_secondary

        rng = np.random.default_rng(27)
        checked = 0
        while checked < 6:
            K, sets, grid, _ = random_conduction_problem(rng, max_grid=8)
            plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
            if plan.m == 0 or plan.f_sec == 0:
                continue
            checked += 1
            model = condense(K, plan, sec_loads, sec_values)
            sol = solve_condensed(model, sets, want_reactions=True)
            u_primary = np.hstack([sol.sets[i].u_full for i in range(len(sets))])
            u_sec, sec_reactions = recover_secondary(model, u_primary)
            full = np.zeros((plan.n, plan.total_cases))
            full[plan.primary.ids] = u_primary
            full[plan.sec_free.ids] = u_sec
            full[plan.sec_prescribed.ids] = sec_values
            resid = K.mat @ full
            resid[plan.sec_free.ids] -= sec_loads.toarray()
            resid[plan.sec_prescribed.ids] -= sec_reactions
            for i, aset in enumerate(sets):
                cols = plan.case_slices[i]
                block = resid[:, cols]
                block[plan.free_primary[i].ids] -= aset.loads[
                    plan.free_primary[i].ids, :].toarray()
                # remaining nonzeros are the primary prescribed reactions
                ppos = plan.presc_primary[i].ids
                expected = np.zeros((len(ppos), aset.cases))
                kt = model.reduced_matrix
                fpos = plan.free_primary_pos[i]
                ppos_m = plan.presc_primary_pos[i]
                ft = model.reduced_loads[:, cols]
                expected = (kt[np.ix_(ppos_m, fpos)] @ sol.sets[i].u_free
                            + kt[np.ix_(ppos_m, ppos_m)] @ sol.sets[i].u_presc
                            - ft[ppos_m])
                block[ppos] -= expected
                scale = max(1.0, abs(K.mat).max(), np.abs(full).max())
                assert np.abs(block).max() <= 1e-9 * scale
