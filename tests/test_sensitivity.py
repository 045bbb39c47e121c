"""Gradient engine: operators, pipeline cross-checks, dependency cases, FD."""
import numpy as np
import pytest
import scipy.sparse as sp

import mptop.sensitivity
from helpers import jbar8, plan_and_secondary, random_conduction_problem
from mptop import build_problem1, build_problem2, evaluate
from mptop.analysis import SetStates, solve_condensed, solve_elementary
from mptop.condensation import condense, recover_secondary
from mptop.fem import DesignField, Filter, Grid, assemble
from mptop.partitions import AnalysisSet, build_plan, gather_secondary
from mptop.sensitivity import (
    UnresolvedGradientError,
    fd_verify,
    load_field,
    sens_case,
    sens_condensed_state,
    sens_elementary,
)
from mptop.sparse import CostLedger, IndexSet, SymmetricSparse

CHAIN3 = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])


def chain_model(sec_loads=None, sec_values=None, cases=1):
    n = 3
    s1 = AnalysisSet(n, IndexSet([0], n), IndexSet([0, 2], n),
                     prescribed_values=np.zeros((1, cases)))
    s2 = AnalysisSet(n, IndexSet([2], n), IndexSet([0, 2], n),
                     prescribed_values=np.zeros((1, cases)))
    plan = build_plan([s1, s2], n)
    K = SymmetricSparse(CHAIN3)
    return condense(K, plan, sec_loads, sec_values), [s1, s2]


class TestOperators:
    def test_expansion_reconstructs_full_state(self):
        # no secondary sources: expanding the primary state reproduces the
        # full elementary state everywhere outside the prescribed group
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 5:
            K, sets, grid, _ = random_conduction_problem(
                rng, max_grid=8, with_secondary_sources=False)
            plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
            if plan.m == 0:
                continue
            checked += 1
            model = condense(K, plan, None, None)
            cond = solve_condensed(model, sets)
            elem = list(solve_elementary(K, sets))
            E = mptop.sensitivity._primary_basis(model)
            for i in range(len(sets)):
                full = E @ cond[i][0].u_full
                ref = elem[i][0].u_full
                keep = np.concatenate([plan.primary.ids, plan.sec_free.ids])
                scale = max(np.abs(ref).max(), 1.0)
                assert np.abs(full[keep] - ref[keep]).max() <= 1e-10 * scale

    def test_basis_is_the_scatter_definition(self):
        # E, gathered from [-S; I; 0], equals zeros plus two row scatters bit
        # for bit; the secondary-prescribed rows are zero
        rng = np.random.default_rng(39)
        checked = 0
        while checked < 5:
            K, sets, grid, _ = random_conduction_problem(rng, max_grid=8)
            plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
            if plan.m == 0 or plan.p_sec == 0:
                continue
            checked += 1
            model = condense(K, plan, sec_loads, sec_values)
            ref = np.zeros((plan.n, plan.m))
            ref[plan.primary.ids, :] = np.eye(plan.m)
            ref[plan.sec_free.ids, :] = -model.static_modes
            E = mptop.sensitivity._primary_basis(model)
            assert E.shape == ref.shape and E.tobytes() == ref.tobytes()
            assert not E[plan.sec_prescribed.ids].any()

    def test_chain_expansion_rows(self):
        model, _ = chain_model()
        A = mptop.sensitivity._primary_basis(model)
        np.testing.assert_allclose(A, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
                                   rtol=1e-14)

    def test_load_field_none_without_sources(self):
        model, _ = chain_model()
        assert load_field(model) is None

    def test_load_field_with_secondary_load(self):
        model, _ = chain_model(sec_loads=np.array([[1.0, 0.0]]))
        b = load_field(model)
        np.testing.assert_allclose(b, [[0.0, 0.0], [-0.5, 0.0], [0.0, 0.0]],
                                   rtol=1e-14)


class TestReducedMatrixSensitivity:
    def test_operator_fd_on_chain(self):
        # perturbing the eliminated DOF's diagonal spreads 1/4 to every
        # reduced entry; perturbing a kept diagonal moves only its own entry
        model, _ = chain_model()
        A = mptop.sensitivity._primary_basis(model)
        eps = 1e-7
        for (i, j), expected in {(1, 1): 0.25 * np.ones((2, 2)),
                                 (0, 0): np.array([[1.0, 0.0], [0.0, 0.0]])}.items():
            Kp = CHAIN3.copy()
            Kp[i, j] += eps
            if i != j:
                Kp[j, i] += eps
            plan = model.plan
            mp = condense(SymmetricSparse(Kp), plan)
            fd = (mp.reduced_matrix - model.reduced_matrix) / eps
            np.testing.assert_allclose(fd, expected, atol=1e-6)
            pred = np.einsum("i,j->ij", A[i], A[j])
            np.testing.assert_allclose(pred, expected, atol=1e-12)

    def test_zero_partial(self):
        grid = Grid(3, 3)
        rng = np.random.default_rng(32)
        design = DesignField(grid, rng.uniform(0.3, 0.9, 9), Filter(grid, 2.0))
        model, _ = _grid_model(grid, design)
        out = sens_case("reduced-matrix", grid, design, model,
                        np.zeros((model.m, model.m))).dg_dx
        np.testing.assert_array_equal(out, 0.0)
        with pytest.raises(ValueError, match="m x m"):
            sens_case("reduced-matrix", grid, design, model,
                      np.zeros((model.m, model.m + 1)))

    def test_design_fd(self):
        rng = np.random.default_rng(33)
        grid = Grid(3, 3)
        flt = Filter(grid, 2.0)
        x = rng.uniform(0.3, 0.9, grid.n_elems)
        design = DesignField(grid, x, flt)
        model, sets = _grid_model(grid, design)
        W = rng.normal(size=(model.m, model.m))
        grad = sens_case("reduced-matrix", grid, design, model, W).dg_dx

        def g(xv):
            d = DesignField(grid, xv, flt)
            m, _ = _grid_model(grid, d)
            return float(np.sum(W * m.reduced_matrix))

        assert fd_verify(g, x, grad) <= 1e-6

    def test_zero_extra_solves(self):
        grid = Grid(3, 3)
        rng = np.random.default_rng(34)
        design = DesignField(grid, rng.uniform(0.3, 0.9, 9), Filter(grid, 2.0))
        model, _ = _grid_model(grid, design)
        model.kff_fact = None  # any solve against the retained factor would raise
        sens_case("reduced-matrix", grid, design, model,
                  rng.normal(size=(model.m, model.m)))


def _grid_model(grid, design, sec_loads=None, sec_values=None):
    """3x3 conduction model with two BC patterns, primaries {10, 12, 5, 7}."""
    n = grid.n_dofs
    s1 = AnalysisSet(n, IndexSet([0, 5], n), IndexSet([10, 12], n),
                     prescribed_values=np.array([[0.3], [0.7]]))
    s2 = AnalysisSet(n, IndexSet([0, 7], n), IndexSet([10], n),
                     prescribed_values=np.array([[0.3], [-0.4]]))
    sets = [s1, s2]
    plan = build_plan(sets, n)
    K = assemble(grid, design)
    if sec_loads is None and sec_values is None:
        sec_loads, sec_values = gather_secondary(plan, sets)
    return condense(K, plan, sec_loads, sec_values), sets


class TestReducedLoadSensitivity:
    def test_vanishes_without_sources(self):
        # one element, opposite corners grounded in turn, no load: the two
        # other corners are secondary free and carry no source
        grid = Grid(1, 1)
        n = grid.n_dofs
        sets = [AnalysisSet(n, IndexSet([i], n), IndexSet([0, 2], n))
                for i in (0, 2)]
        plan = build_plan(sets, n)
        model = condense(assemble(grid, _design_1x1()), plan)
        assert plan.f_sec == 2 and model.load_states is None
        bundle = sens_case("reduced-load", grid, _design_1x1(), model,
                           np.ones((plan.m, plan.total_cases)), set_index=None)
        np.testing.assert_array_equal(bundle.dg_dx, 0.0)

    def test_secondary_load_map_is_minus_coupling_column(self):
        # FD of the reduced loads w.r.t. a secondary load entry reproduces the
        # negated coupling column
        base = np.array([[1.0, 1.0]])
        model, _ = chain_model(sec_loads=base)
        eps = 1e-7
        up = chain_model(sec_loads=base + [[eps, 0.0]])[0]
        dn = chain_model(sec_loads=base - [[eps, 0.0]])[0]
        fd = (up.reduced_loads[:, 0] - dn.reduced_loads[:, 0]) / (2 * eps)
        np.testing.assert_allclose(fd, -model.static_modes[0, :], atol=1e-8)
        np.testing.assert_allclose(fd, [0.5, 0.5], atol=1e-8)

    def test_full_fd_all_inputs(self):
        rng = np.random.default_rng(35)
        grid = Grid(3, 3)
        flt = Filter(grid, 2.0)
        x = rng.uniform(0.3, 0.9, grid.n_elems)
        design = DesignField(grid, x, flt)
        model, sets = _grid_model(grid, design)
        plan = model.plan
        sec_loads = sp.csc_matrix(
            rng.normal(size=(plan.f_sec, plan.total_cases))
            * (rng.random((plan.f_sec, plan.total_cases)) < 0.3))
        sec_values = model.sec_values + 0.0
        K = assemble(grid, design)
        model = condense(K, plan, sec_loads, sec_values)
        W = rng.normal(size=(plan.m, plan.total_cases))
        bundle = sens_case("reduced-load", grid, design, model, W,
                           set_index=None)

        def g(xv=None, dloads=None, dvals=None):
            d = design if xv is None else DesignField(grid, xv, flt)
            Kv = assemble(grid, d)
            sl = sec_loads.toarray() + (dloads if dloads is not None else 0.0)
            sv = sec_values + (dvals if dvals is not None else 0.0)
            m = condense(Kv, plan, sp.csc_matrix(sl), sv)
            return float(np.sum(W * m.reduced_loads))

        # design route
        assert fd_verify(lambda xv: g(xv=xv), x, bundle.dg_dx) <= 1e-5
        # secondary loads route
        eps = 1e-6
        for r, c in [(0, 0), (3, 1), (5, 0)]:
            d = np.zeros((plan.f_sec, plan.total_cases))
            d[r, c] = eps
            fd = (g(dloads=d) - g(dloads=-d)) / (2 * eps)
            np.testing.assert_allclose(bundle.dg_dsec_loads[r, c], fd,
                                       rtol=1e-7, atol=1e-10)
        # secondary prescribed-value route
        for r, c in [(0, 0), (0, 1)]:
            d = np.zeros((plan.p_sec, plan.total_cases))
            d[r, c] = eps
            fd = (g(dvals=d) - g(dvals=-d)) / (2 * eps)
            np.testing.assert_allclose(bundle.dg_dsec_values[r, c], fd,
                                       rtol=1e-6, atol=1e-10)


def _design_1x1():
    grid = Grid(1, 1)
    return DesignField(grid, np.array([1.0]), Filter(grid, 0.0))


class TestStateSensitivities:
    def _rand_state_response(self, rng, sets, plan, rows=2):
        """Linear responses on the free primary states, one per row."""
        weights = [rng.normal(size=(rows, len(plan.free_primary[i]), s.cases))
                   for i, s in enumerate(sets)]
        return weights

    @staticmethod
    def _elementary_stacks(sets, plan, weights):
        """The same responses' right-hand sides on each set's free DOFs."""
        stacks = []
        for i, (aset, w) in enumerate(zip(sets, weights)):
            rhs = np.zeros((len(w), len(aset.free), aset.cases))
            rhs[:, plan.free_primary[i].positions_in(aset.free), :] = w
            stacks.append(rhs)
        return stacks

    def test_both_pipelines_return_the_same_pairs(self):
        # one result contract: a list of (SetStates, solved stack) pairs in
        # set order, the condensed states on the primary DOFs and its stacks
        # on the free primary ones, where both pipelines agree
        rng = np.random.default_rng(44)
        checked = 0
        while checked < 8:
            K, sets, grid, _ = random_conduction_problem(rng, max_grid=10)
            plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
            if plan.m == 0:
                continue
            model = condense(K, plan, sec_loads, sec_values)
            if load_field(model) is None:
                continue
            checked += 1
            weights = self._rand_state_response(rng, sets, plan,
                                                int(rng.integers(1, 4)))
            cond = solve_condensed(model, sets, weights)
            elem = list(solve_elementary(
                K, sets, self._elementary_stacks(sets, plan, weights)))
            assert isinstance(cond, list) and len(cond) == len(elem) == len(sets)
            for i, ((cs, cl), (es, el)) in enumerate(zip(cond, elem)):
                for states, stack in ((cs, cl), (es, el)):
                    assert isinstance(states, SetStates)
                    assert isinstance(stack, np.ndarray)
                for got, ref in (
                        (cs.u_full, es.u_full[plan.primary.ids]),
                        (cl, el[:, plan.free_primary[i].positions_in(
                            sets[i].free)])):
                    assert got.shape == ref.shape
                    assert np.abs(got - ref).max(initial=0.0) <= \
                        1e-9 * max(np.abs(ref).max(initial=0.0), 1e-30)

    def test_cross_pipeline_gradient_equality(self):
        # draws with secondary sources present (the reduced-load term F of the
        # condensed contraction), with total cases both above and below m
        rng = np.random.default_rng(36)
        checked = 0
        bases = set()   # True: total cases > m, with secondary sources
        while checked < 6 or len(bases) < 2:
            assert checked < 200, f"bases drawn: {bases}"
            K, sets, grid, design = random_conduction_problem(rng, max_grid=8)
            plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
            if plan.m == 0 or any(len(f) == 0 for f in plan.free_primary):
                continue
            checked += 1
            model = condense(K, plan, sec_loads, sec_values)
            if load_field(model) is not None:
                bases.add(plan.total_cases > plan.m)
            weights = self._rand_state_response(rng, sets, plan)
            cond = solve_condensed(model, sets, weights)
            elem = solve_elementary(K, sets,
                                    self._elementary_stacks(sets, plan,
                                                            weights))

            g_cond = sens_condensed_state(grid, design, model, cond)
            g_elem = sens_elementary(grid, design, elem)
            assert g_cond.shape == g_elem.shape == (2, grid.n_elems)
            for gc, ge in zip(g_cond, g_elem):
                scale = max(np.abs(ge).max(), 1e-30)
                assert np.abs(gc - ge).max() <= 1e-9 * scale

    def test_fd_both_pipelines_4x4(self):
        rng = np.random.default_rng(37)
        grid = Grid(4, 4)
        flt = Filter(grid, 2.0)
        x = rng.uniform(0.3, 0.9, grid.n_elems)
        design = DesignField(grid, x, flt)
        n = grid.n_dofs
        # a single grounded node and no load would leave each state uniform
        # and the gradient identically zero: each set carries one heat load
        s1 = AnalysisSet(n, IndexSet([0], n), IndexSet([12, 18], n),
                         prescribed_values=np.array([[0.2]]),
                         loads=sp.csc_matrix(([1.0], ([20], [0])), (n, 1)))
        s2 = AnalysisSet(n, IndexSet([24], n), IndexSet([12], n),
                         prescribed_values=np.array([[-0.1]]),
                         loads=sp.csc_matrix(([-1.0], ([6], [0])), (n, 1)))
        sets = [s1, s2]
        plan = build_plan(sets, n)
        sec_loads, sec_values = gather_secondary(plan, sets)
        weights = [rng.normal(size=(1, len(plan.free_primary[i]), 1))
                   for i in range(2)]

        def response_from_primary(primary_states):
            total = 0.0
            for i, w in enumerate(weights):
                total += float(np.sum(
                    w[0] * primary_states[i][plan.free_primary_pos[i], :]))
            return total

        def g_cond(xv):
            d = DesignField(grid, xv, flt)
            m = condense(assemble(grid, d), plan, sec_loads, sec_values)
            sol = solve_condensed(m, sets)
            return response_from_primary([state.u_full for state, _ in sol])

        def g_elem(xv):
            d = DesignField(grid, xv, flt)
            sol = solve_elementary(assemble(grid, d), sets)
            return response_from_primary(
                [state.u_full[plan.primary.ids, :] for state, _ in sol])

        model = condense(assemble(grid, design), plan, sec_loads, sec_values)
        cond = solve_condensed(model, sets, weights)
        grad_c = sens_condensed_state(grid, design, model, cond)[0]
        elem = solve_elementary(assemble(grid, design), sets,
                                self._elementary_stacks(sets, plan, weights))
        grad_e = sens_elementary(grid, design, elem)[0]

        assert fd_verify(g_cond, x, grad_c) <= 1e-5
        assert fd_verify(g_elem, x, grad_e) <= 1e-5

    @pytest.mark.parametrize("pipeline", ["condensed", "elementary"])
    def test_stacks_of_no_rows(self, pipeline):
        # no responses: each (0, free, cases) stack solves to itself with
        # no ledger event, and the gradient has no rows
        rng = np.random.default_rng(45)
        while True:
            K, sets, grid, design = random_conduction_problem(rng, max_grid=6)
            plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
            if plan.m:
                break
        ledger = CostLedger()
        if pipeline == "condensed":
            model = condense(K, plan, sec_loads, sec_values)
            empty = [np.zeros((0, len(f), s.cases))
                     for f, s in zip(plan.free_primary, sets)]
            solved = solve_condensed(model, sets, empty, ledger=ledger)
            grad = sens_condensed_state(grid, design, model, solved)
        else:
            empty = [np.zeros((0, len(s.free), s.cases)) for s in sets]
            solved = list(solve_elementary(K, sets, empty, ledger=ledger))
            grad = sens_elementary(grid, design, solved)
        assert [stack.shape for _, stack in solved] == [e.shape for e in empty]
        assert ledger.count(op="solve", phase="adjoint") == 0
        assert ledger.count(op="solve") == len(sets)
        assert grad.shape == (0, grid.n_elems)

    def test_zero_partial_zero_gradient(self):
        # an all-zero adjoint stack gives exactly zero and records no solve
        # beyond each set's state solve
        rng = np.random.default_rng(38)
        K, sets, grid, design = random_conduction_problem(rng, max_grid=5)
        ledger = CostLedger()
        zero = [np.zeros((2, len(s.free), s.cases)) for s in sets]
        g = sens_elementary(grid, design,
                            solve_elementary(K, sets, zero, ledger=ledger))
        assert g.shape == (2, grid.n_elems)
        np.testing.assert_array_equal(g, 0.0)
        assert ledger.count(op="solve") == len(sets)
        assert ledger.count(op="solve", phase="adjoint") == 0

    def test_stack_of_wrong_shape_names_its_set(self):
        # a (1, 1, 1) stack used to broadcast into a gradient on both routes
        p = build_problem2(6, 6, 2, np.array([[0.5, 2.0], [1.0, -1.0]]))
        design = p.design(p.x0)
        K = assemble(p.grid, design)
        model = condense(K, p.plan, p.sec_loads, p.sec_values)
        cond = [state for state, _ in solve_condensed(model, p.sets)]
        elem = [state for state, _ in solve_elementary(K, p.sets)]
        tiny = np.ones((1, 1, 1))
        ok_c = np.zeros((1, len(p.plan.free_primary[0]), 1))
        ok_e = np.zeros((1, len(p.sets[0].free), 1))

        def solve_c(st):
            return solve_condensed(model, p.sets, st)

        def sens_c(st):
            return sens_condensed_state(p.grid, design, model, zip(cond, st))

        def solve_e(st):
            return list(solve_elementary(K, p.sets, st))

        def sens_e(st):
            return sens_elementary(p.grid, design, zip(elem, st))

        for ok, solve, sens in ((ok_c, solve_c, sens_c),
                                (ok_e, solve_e, sens_e)):
            for stacks, i in (([tiny] * 2, 0), ([ok, tiny], 1),
                              ([ok, ok[[0, 0]]], 1)):
                for call in (solve, sens):
                    with pytest.raises(ValueError, match=f"set {i} "):
                        call(stacks)
        # the gradients read (states, stack) pairs, which cannot differ in
        # count; every call that takes a list of stacks checks it
        for ok, call in ((ok_c, solve_c), (ok_e, solve_e)):
            with pytest.raises(ValueError, match="1 adjoint stacks for 2"):
                call([ok])

    def test_no_large_solves_in_condensed_adjoint(self):
        rng = np.random.default_rng(39)
        checked = 0
        while checked < 3:
            K, sets, grid, design = random_conduction_problem(rng, max_grid=6)
            plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
            if plan.m == 0 or any(len(f) == 0 for f in plan.free_primary):
                continue
            checked += 1
            ledger = CostLedger()
            model = condense(K, plan, sec_loads, sec_values, ledger=ledger)
            weights = self._rand_state_response(rng, sets, plan)
            cond = solve_condensed(model, sets, weights, ledger=ledger)
            sens_condensed_state(grid, design, model, cond)
            assert ledger.count(op="solve", matrix="sparse", phase="adjoint") == 0
            # each set's two responses are one small dense solve
            assert ledger.count(op="solve", matrix="dense",
                                phase="adjoint") == len(sets)
            assert ledger.count(op="factorize", matrix="sparse") == 1

    def test_elementary_self_adjoint_default(self):
        # None stands for each state on its free DOFs, also where the set
        # prescribes non-zero values, which the left field then leaves out
        rng = np.random.default_rng(42)
        K, sets, grid, design = random_conduction_problem(rng, max_grid=6)
        assert all(s.prescribed_values.any() for s in sets)
        np.testing.assert_array_equal(
            sens_elementary(grid, design, solve_elementary(K, sets)),
            sens_elementary(grid, design, [(s, s.u_free[None]) for s, _
                                           in solve_elementary(K, sets)]))

    def test_self_adjoint_gradient_with_secondary_sources(self):
        # 12 x 10 conduction grid, four corner ports: each set grounds one
        # and loads the next, with a 0.01 source on every other DOF, so the
        # full state has a secondary-source part the condensed route must
        # carry; the response is sum f^T u over all DOFs
        grid = Grid(12, 10)
        n = grid.n_dofs
        ports = grid.node(np.array([0, 0, 10, 10]), np.array([0, 12, 0, 12]))
        interest = IndexSet(ports, n)
        sets = []
        for i, port in enumerate(ports):
            f = np.full((n, 1), 0.01)
            f[port], f[ports[(i + 1) % 4]] = 0.0, 1.0
            sets.append(AnalysisSet(n, IndexSet([port], n), interest,
                                    loads=f))
        plan = build_plan(sets, n)
        flt = Filter(grid, 1.5)
        x = np.random.default_rng(0).uniform(0.3, 1.0, grid.n_elems)
        design = DesignField(grid, x, flt)
        K = assemble(grid, design)
        model = condense(K, plan, *gather_secondary(plan, sets))
        assert load_field(model) is not None
        g_cond = sens_condensed_state(grid, design, model,
                                      solve_condensed(model, sets))[0]
        g_elem = sens_elementary(grid, design, solve_elementary(K, sets))[0]
        assert np.abs(g_cond - g_elem).max() <= 1e-9 * np.abs(g_elem).max()

        elems = np.array([0, 37, 64, 119])

        def compliance(xs):
            xv = x.copy()
            xv[elems] = xs
            K = assemble(grid, DesignField(grid, xv, flt))
            return sum(float(aset.loads.toarray().ravel() @ st.u_full[:, 0])
                       for aset, (st, _) in zip(sets,
                                                solve_elementary(K, sets)))
        assert fd_verify(compliance, x[elems], g_cond[elems]) < 1e-5

    def test_self_adjoint_shortcut_matches_solve(self):
        # feeding lam directly must equal solving for it
        rng = np.random.default_rng(40)
        K, sets, grid, design = random_conduction_problem(
            rng, max_grid=6, with_secondary_sources=False)
        plan, *_ = plan_and_secondary(sets, grid.n_dofs)
        if plan.m == 0 or any(len(f) == 0 for f in plan.free_primary):
            pytest.skip("degenerate draw")
        model = condense(K, plan, None, None)
        weights = self._rand_state_response(rng, sets, plan)
        cond = solve_condensed(model, sets, weights)
        g1 = sens_condensed_state(grid, design, model, cond)
        lams = [np.stack([model.set_factors[i].solve(wr) for wr in w])
                for i, w in enumerate(weights)]
        g2 = sens_condensed_state(grid, design, model,
                                  [(s, lam) for (s, _), lam in zip(cond, lams)])
        np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-15)


class CaseRig:
    """3x3 conduction problem with all five input categories active."""

    def __init__(self, seed=41):
        rng = np.random.default_rng(seed)
        self.grid = Grid(3, 3)
        self.flt = Filter(self.grid, 2.0)
        n = self.grid.n_dofs
        self.x = rng.uniform(0.3, 0.9, self.grid.n_elems)
        loads1 = rng.normal(size=(n, 2)) * (rng.random((n, 2)) < 0.4)
        loads2 = rng.normal(size=(n, 1)) * (rng.random((n, 1)) < 0.4)
        loads1[[0, 5], :] = 0.0
        loads2[[0, 7], :] = 0.0
        s1 = AnalysisSet(n, IndexSet([0, 5], n), IndexSet([10, 12], n),
                         prescribed_values=np.array([[0.3, 0.3], [0.7, -0.2]]),
                         loads=sp.csc_matrix(loads1))
        s2 = AnalysisSet(n, IndexSet([0, 7], n), IndexSet([10], n),
                         prescribed_values=np.array([[0.3], [-0.4]]),
                         loads=sp.csc_matrix(loads2))
        self.sets = [s1, s2]
        self.plan = build_plan(self.sets, n)
        self.sec_loads, self.sec_values = gather_secondary(self.plan, self.sets)
        self.sec_loads = self.sec_loads.toarray()
        self.rng = rng

    def pipeline(self, x=None, d_sec_loads=None, d_sec_values=None,
                 d_free_loads=None, d_presc_values=None, set_index=0,
                 ledger=None):
        design = DesignField(self.grid, self.x if x is None else x, self.flt)
        K = assemble(self.grid, design)
        sl = self.sec_loads + (d_sec_loads if d_sec_loads is not None else 0.0)
        sv = self.sec_values + (d_sec_values if d_sec_values is not None else 0.0)
        model = condense(K, self.plan, sp.csc_matrix(sl), sv, ledger=ledger)
        sets = self.sets
        if d_free_loads is not None or d_presc_values is not None:
            sets = [self._perturb_set(i, d_free_loads, d_presc_values,
                                      set_index) for i in range(2)]
        sol = solve_condensed(model, sets, ledger=ledger)
        return design, model, sol, sets

    def _perturb_set(self, i, d_free_loads, d_presc_values, set_index):
        s = self.sets[i]
        loads = s.loads.toarray()
        pvals = s.prescribed_values.copy()
        if i == set_index:
            if d_free_loads is not None:
                loads[self.plan.free_primary[i].ids, :] += d_free_loads
            if d_presc_values is not None:
                rows = self.plan.presc_primary[i].positions_in(s.prescribed)
                pvals[rows, :] += d_presc_values
        return AnalysisSet(s.n, s.prescribed, s.interest, pvals,
                           sp.csc_matrix(loads))

    def quantity(self, case, set_index, **kw):
        design, model, sol, sets = self.pipeline(set_index=set_index, **kw)
        cols = self.plan.case_slices[set_index]
        if case == "reduced-matrix":
            return model.reduced_matrix
        if case == "reduced-load":
            return model.reduced_loads[:, cols]
        state = sol[set_index][0]
        if case == "primary-state":
            return state.u_free
        if case == "primary-reaction":
            # K~_pf u_f + K~_pp u_p - f~_p on the set's prescribed primary rows
            kt, fpos, ppos = model.reduced_matrix, state.free, state.prescribed
            return (kt[np.ix_(ppos, fpos)] @ state.u_free
                    + kt[np.ix_(ppos, ppos)] @ state.u_presc
                    - model.reduced_loads[ppos, cols])
        u_primary = np.hstack([s.u_full for s, _ in sol])
        u_sec, reactions = recover_secondary(model, u_primary)
        if case == "secondary-state":
            return u_sec[:, cols]
        return reactions[:, cols]


CASE_SHAPES = {
    "reduced-matrix": lambda rig, i: (rig.plan.m, rig.plan.m),
    "reduced-load": lambda rig, i: (rig.plan.m, rig.sets[i].cases),
    "primary-state": lambda rig, i: (len(rig.plan.free_primary[i]),
                                     rig.sets[i].cases),
    "primary-reaction": lambda rig, i: (len(rig.plan.presc_primary[i]),
                                        rig.sets[i].cases),
    "secondary-state": lambda rig, i: (rig.plan.f_sec, rig.sets[i].cases),
    "secondary-reaction": lambda rig, i: (rig.plan.p_sec, rig.sets[i].cases),
}


@pytest.mark.parametrize("case", list(CASE_SHAPES))
@pytest.mark.parametrize("set_index", [0, 1])
def test_dependency_case_fd(case, set_index):
    rig = CaseRig()
    W = rig.rng.normal(size=CASE_SHAPES[case](rig, set_index))
    design, model, sol, sets = rig.pipeline(set_index=set_index)
    bundle = sens_case(case, rig.grid, design, model, W, sol=sol,
                       set_index=set_index)

    def scalar(**kw):
        return float(np.sum(W * rig.quantity(case, set_index, **kw)))

    # design variables
    err = fd_verify(lambda xv: scalar(x=xv), rig.x, bundle.dg_dx)
    assert err <= 1e-5, f"{case}: design route FD error {err:.2e}"

    eps = 1e-6
    plan = rig.plan

    def check(entry_grad, shape, builder, label, count=3):
        rng = np.random.default_rng(hash((case, label, set_index)) % 2 ** 31)
        flat = [(r, c) for r in range(shape[0]) for c in range(shape[1])]
        rng.shuffle(flat)
        for r, c in flat[:count]:
            d = np.zeros(shape)
            d[r, c] = eps
            fd = (scalar(**builder(d)) - scalar(**builder(-d))) / (2 * eps)
            got = 0.0 if entry_grad is None else entry_grad[r, c]
            assert abs(fd - got) <= 1e-5 * max(abs(fd), abs(got), 1e-6), (
                f"{case}: {label}[{r},{c}] analytic {got:.3e} vs FD {fd:.3e}")

    gcols = plan.case_slices[set_index]

    def pad_cols(d):
        full = np.zeros((d.shape[0], plan.total_cases))
        full[:, gcols] = d
        return full

    if plan.f_sec:
        check(bundle.dg_dsec_loads, (plan.f_sec, sets[set_index].cases),
              lambda d: {"d_sec_loads": pad_cols(d)}, "secondary loads")
    if plan.p_sec:
        check(bundle.dg_dsec_values, (plan.p_sec, sets[set_index].cases),
              lambda d: {"d_sec_values": pad_cols(d)}, "secondary values")
    if case in ("primary-state", "primary-reaction", "secondary-state",
                "secondary-reaction"):
        fhat = len(plan.free_primary[set_index])
        phat = len(plan.presc_primary[set_index])
        check(bundle.dg_dfree_loads, (fhat, sets[set_index].cases),
              lambda d: {"d_free_loads": d}, "free primary loads")
        check(bundle.dg_dpresc_values, (phat, sets[set_index].cases),
              lambda d: {"d_presc_values": d}, "prescribed primary values")


def test_case_solve_counts():
    rig = CaseRig()
    ledger = CostLedger()
    design, model, sol, sets = rig.pipeline(ledger=ledger)
    base_sparse = ledger.count(op="solve", matrix="sparse")
    base_dense = ledger.count(op="solve", matrix="dense")
    base_factorize = ledger.count(op="factorize")

    W = rig.rng.normal(size=CASE_SHAPES["primary-state"](rig, 0))
    sens_case("primary-state", rig.grid, design, model, W, sol=sol,
              set_index=0, ledger=ledger)
    assert ledger.count(op="solve", matrix="sparse") == base_sparse
    assert ledger.count(op="solve", matrix="dense") == base_dense + 1

    W = rig.rng.normal(size=CASE_SHAPES["secondary-state"](rig, 0))
    sens_case("secondary-state", rig.grid, design, model, W, sol=sol,
              set_index=0, ledger=ledger)
    assert ledger.count(op="solve", matrix="sparse", phase="adjoint") == 1
    assert ledger.count(op="solve", matrix="dense") == base_dense + 2
    assert ledger.count(op="factorize") == base_factorize


def test_condensed_gradients_use_only_the_reduced_contraction(monkeypatch):
    # the six dependency cases and the state route of evaluate all contract
    # through the reduced kernel, secondary loads and values included; the
    # elementary kernel runs only inside it, as its per-row order
    reduced = mptop.sensitivity._contract_reduced
    raw = mptop.sensitivity.contract_dk_raw
    calls, inside = [], []

    def spy_reduced(*args):
        calls.append(args)
        inside.append(True)
        try:
            return reduced(*args)
        finally:
            inside.pop()

    def guarded_raw(*args):
        if not inside:
            raise AssertionError("condensed gradient called contract_dk_raw "
                                 "outside the reduced contraction")
        return raw(*args)

    monkeypatch.setattr(mptop.sensitivity, "_contract_reduced", spy_reduced)
    monkeypatch.setattr(mptop.sensitivity, "contract_dk_raw", guarded_raw)
    rig = CaseRig()
    design, model, sol, sets = rig.pipeline()
    assert model.load_states is not None and np.any(model.sec_values)
    for case, shape in CASE_SHAPES.items():
        for i in range(len(sets)):
            W = rig.rng.normal(size=shape(rig, i))
            del calls[:]
            sens_case(case, rig.grid, design, model, W, sol=sol, set_index=i)
            assert len(calls) == 1, case
    weights = [rig.rng.normal(size=(2, len(rig.plan.free_primary[i]), s.cases))
               for i, s in enumerate(sets)]
    del calls[:]
    sens_condensed_state(rig.grid, design, model,
                         solve_condensed(model, sets, weights))
    assert len(calls) == 1


def _einsum_contraction(grid, design, L, R, W):
    """Reference: every element's L_e^T k_e R_e, read by one einsum."""
    M = L[grid.edof].transpose(0, 2, 1) @ grid.ke @ R[grid.edof]
    return design.dscales * np.einsum("rij,eij->re", W, M)


class TestReducedContraction:
    """The reduced kernel's two orders against the einsum reference. Each
    row of W alone runs the per-row order (G = R W[r]^T through
    contract_dk_raw); W under 64 zero rows runs the per-element GEMM."""

    @staticmethod
    def _spy_raw(monkeypatch):
        raw = mptop.sensitivity.contract_dk_raw
        calls = []

        def spy(*args):
            calls.append(args)
            return raw(*args)

        monkeypatch.setattr(mptop.sensitivity, "contract_dk_raw", spy)
        return calls

    def _check_both_orders(self, monkeypatch, grid, design, L, R, W):
        calls = self._spy_raw(monkeypatch)
        kernel = mptop.sensitivity._contract_reduced
        ref = _einsum_contraction(grid, design, L, R, W)
        scale = np.abs(ref).max(axis=1)
        assert scale.all()
        per_row = np.stack([kernel(grid, design, L, R, W[r:r + 1])[0]
                            for r in range(len(W))])
        assert len(calls) == len(W)
        del calls[:]
        pad = np.zeros((64,) + W.shape[1:])
        gemm = kernel(grid, design, L, R, np.concatenate([W, pad]))[:len(W)]
        assert not calls
        for got in (per_row, gemm):
            assert (np.abs(got - ref).max(axis=1) <= 1e-13 * scale).all()

    @pytest.mark.parametrize("physics, rows, a, b", [
        ("conduction", 1, 32, 32),      # p1: one compliance row
        ("plane-stress", 4, 4, 4),      # p2: 2 inputs
        ("plane-stress", 64, 16, 16),   # MIMO: 8 inputs
    ])
    def test_orders_match_the_einsum(self, monkeypatch, physics, rows, a, b):
        rng = np.random.default_rng(rows + a)
        grid = Grid(14, 12, physics)
        design = DesignField(grid, rng.uniform(0.3, 0.9, grid.n_elems),
                             Filter(grid, 1.5))
        L = rng.normal(size=(grid.n_dofs, a))
        R = L if a == b else rng.normal(size=(grid.n_dofs, b))
        W = rng.normal(size=(rows, a, b))
        self._check_both_orders(monkeypatch, grid, design, L, R, W)

    def test_dependency_case_bases_match_the_einsum(self, monkeypatch):
        # sens_case's bases carry X columns (L is not R), and the state
        # route's right basis B columns that the left lacks (a != b)
        reduced = mptop.sensitivity._contract_reduced
        captured = []

        def capture(*args):
            captured.append(args)
            return reduced(*args)

        monkeypatch.setattr(mptop.sensitivity, "_contract_reduced", capture)
        rig = CaseRig()
        design, model, sol, sets = rig.pipeline()
        for case in ("primary-state", "secondary-state", "secondary-reaction"):
            W = rig.rng.normal(size=CASE_SHAPES[case](rig, 0))
            sens_case(case, rig.grid, design, model, W, sol=sol, set_index=0)
        weights = [rig.rng.normal(size=(2, len(rig.plan.free_primary[i]),
                                        s.cases)) for i, s in enumerate(sets)]
        sens_condensed_state(rig.grid, design, model,
                             solve_condensed(model, sets, weights))
        monkeypatch.undo()
        assert all(L is not R for _, _, L, R, _ in captured)
        assert any(W.shape[1] != W.shape[2] for *_, W in captured)
        for grid, design, L, R, W in captured:
            self._check_both_orders(monkeypatch, grid, design, L, R, W)

    def test_order_follows_the_shapes(self, monkeypatch):
        # p1's one compliance row against 32-wide bases takes the per-row
        # order; an 8-input mechanism's 64 rows against 16-wide bases, the GEMM
        calls = self._spy_raw(monkeypatch)
        p = build_problem1(40, 40, m=32, vbar=0.3, seed=1)
        evaluate(p, p.x0, pipeline="condensed")
        assert len(calls) == 1 and calls[0][2].shape == (p.grid.n_dofs, 32)
        del calls[:]
        p = build_problem2(20, 20, 8, jbar8())
        evaluate(p, p.x0, pipeline="condensed")
        assert not calls


class TestFdVerify:
    def test_linear_is_exact(self):
        c = np.array([1.0, -2.0, 3.0])

        def g(x):
            return float(c @ x)

        assert fd_verify(g, np.zeros(3), c, eps=0.1) <= 1e-10

    def test_skips_components_below_roundoff_of_the_largest(self):
        # a step of 1e-6 on the second variable moves g by 1e-17, under one
        # ulp of g: central differences read 0 for its 1e-11 component
        c = np.array([1.0, 1e-11])

        def g(x):
            return float(c @ x)

        assert fd_verify(g, np.ones(2), c) <= 1e-9

    def test_slender_mechanism_far_field(self):
        # far from the ports of a 4 x 40 mechanism the components fall to
        # ~1e-11 (component 33 of g[0] is 5.9e-11), where FD reads 0
        p = build_problem2(4, 40, 2, [[0.5, 2.0], [1.0, -1.0]])
        x = np.random.default_rng(8).uniform(0.3, 0.9, p.grid.n_elems)
        grad = evaluate(p, x).d_constraints[0]
        assert np.abs(grad).min() < 1e-10 * np.abs(grad).max()
        err = fd_verify(
            lambda xv: evaluate(p, xv, want_grads=False).constraints[0],
            x, grad)
        assert err <= 1e-5

    def test_small_rows_of_a_unit_response(self):
        # rows 1 and 2 of a 4 x 40 mechanism read |f| ~ 1 with max|g| ~ 2e-5,
        # and their differences resolve components only to ulp(1)/eps ~ 2e-10
        p = build_problem2(4, 40, 2, [[0.5, 2.0], [1.0, -1.0]])
        x = np.random.default_rng(8).uniform(0.3, 0.9, p.grid.n_elems)
        ev = evaluate(p, x)

        def row(r):
            return lambda xv: evaluate(p, xv, want_grads=False).constraints[r]
        for r in (1, 2):
            assert abs(ev.constraints[r] - 1.0) < 1e-3
            assert np.abs(ev.d_constraints[r]).max() < 1e-4
            assert fd_verify(row(r), x, ev.d_constraints[r]) <= 1e-4
        wrong = ev.d_constraints[1].copy()
        wrong[np.argmax(np.abs(wrong))] *= 1.0 + 1e-3
        assert fd_verify(row(1), x, wrong) > 5e-4

    @pytest.mark.parametrize("scale", [0.0, 1e-12])
    def test_unresolved_row_raises(self, scale):
        # a response near 1 moves by 1e-18 for a step of 1e-6: no component
        # is resolved, and the check must not read 0
        c = scale * np.array([1.0, -2.0])

        def g(x):
            return 1.0 + float(c @ x)

        with pytest.raises(UnresolvedGradientError):
            fd_verify(g, np.zeros(2), c)

    def test_detects_wrong_gradient(self):
        c = np.array([1.0, -2.0])

        def g(x):
            return float(c @ x)

        assert fd_verify(g, np.zeros(2), 1.05 * c) > 1e-2
