"""Gradient engine: operators, pipeline cross-checks, dependency cases, FD."""
import numpy as np
import pytest
import scipy.sparse as sp

from helpers import plan_and_secondary, random_conduction_problem
from mptop.analysis import solve_condensed, solve_elementary
from mptop.condensation import condense, recover_secondary
from mptop.fem import DesignField, Filter, Grid, assemble
from mptop.partitions import AnalysisSet, build_plan, gather_secondary
from mptop.sensitivity import (
    expand_primary,
    fd_verify,
    load_field,
    sens_case,
    sens_condensed_state,
    sens_elementary,
    sens_reduced_load,
    sens_reduced_matrix,
    state_mismatch,
)
from mptop.sparse import CostLedger, IndexSet, SymmetricSparse

CHAIN3 = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])


def chain_model(sec_loads=None, sec_values=None, cases=1):
    n = 3
    s1 = AnalysisSet(n, IndexSet([0], n), IndexSet([0, 2], n), cases=cases)
    s2 = AnalysisSet(n, IndexSet([2], n), IndexSet([0, 2], n), cases=cases)
    plan = build_plan([s1, s2], n)
    K = SymmetricSparse.from_dense(CHAIN3)
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
            elem = solve_elementary(K, sets)
            for i in range(len(sets)):
                full = expand_primary(model, cond.sets[i].u_full)
                ref = elem.sets[i].u_full
                keep = np.concatenate([plan.primary.ids, plan.sec_free.ids])
                scale = max(np.abs(ref).max(), 1.0)
                assert np.abs(full[keep] - ref[keep]).max() <= 1e-10 * scale

    def test_chain_expansion_rows(self):
        model, _ = chain_model()
        A = expand_primary(model, np.eye(2))
        np.testing.assert_allclose(A, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
                                   rtol=1e-14)

    def test_load_field_none_without_sources(self):
        model, _ = chain_model()
        assert load_field(model) is None
        np.testing.assert_allclose(
            state_mismatch(model, 0, np.array([[1.0], [2.0]])),
            -expand_primary(model, np.array([[1.0], [2.0]])))

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
        A = expand_primary(model, np.eye(2))
        eps = 1e-7
        for (i, j), expected in {(1, 1): 0.25 * np.ones((2, 2)),
                                 (0, 0): np.array([[1.0, 0.0], [0.0, 0.0]])}.items():
            Kp = CHAIN3.copy()
            Kp[i, j] += eps
            if i != j:
                Kp[j, i] += eps
            plan = model.plan
            mp = condense(SymmetricSparse.from_dense(Kp), plan)
            fd = (mp.reduced_matrix - model.reduced_matrix) / eps
            np.testing.assert_allclose(fd, expected, atol=1e-6)
            pred = np.einsum("i,j->ij", A[i], A[j])
            np.testing.assert_allclose(pred, expected, atol=1e-12)

    def test_zero_partial(self):
        grid = Grid(3, 3)
        rng = np.random.default_rng(32)
        design = DesignField(grid, rng.uniform(0.3, 0.9, 9), Filter(grid, 2.0))
        model, _ = _grid_model(grid, design)
        out = sens_reduced_matrix(grid, design, model, np.zeros((model.m, model.m)))
        np.testing.assert_array_equal(out, 0.0)

    def test_design_fd(self):
        rng = np.random.default_rng(33)
        grid = Grid(3, 3)
        flt = Filter(grid, 2.0)
        x = rng.uniform(0.3, 0.9, grid.n_elems)
        design = DesignField(grid, x, flt)
        model, sets = _grid_model(grid, design)
        W = rng.normal(size=(model.m, model.m))
        grad = sens_reduced_matrix(grid, design, model, W)

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
        before = model.kff_fact.solve_calls
        sens_reduced_matrix(grid, design, model, rng.normal(size=(model.m, model.m)))
        assert model.kff_fact.solve_calls == before


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
        model, _ = chain_model()
        grid = None  # unused when the load field is empty

        class _G:
            n_elems = 0
        bundle = sens_reduced_load(Grid(1, 1), _design_1x1(), chain_model()[0],
                                   np.ones((2, 2)))
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
        bundle = sens_reduced_load(grid, design, model, W)

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
    def _rand_state_response(self, rng, sets, plan):
        """Linear response on the free primary states, both pipelines."""
        weights = [rng.normal(size=(len(plan.free_primary[i]), s.cases))
                   for i, s in enumerate(sets)]
        return weights

    def test_cross_pipeline_gradient_equality(self):
        # draws on both sides of the condensed route's basis choice (stacked
        # adjoint columns > m or <= m), each with secondary sources present
        rng = np.random.default_rng(36)
        checked = 0
        bases = set()   # True: stacked columns > m, with secondary sources
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
            cond = solve_condensed(model, sets)
            elem = solve_elementary(K, sets)
            weights = self._rand_state_response(rng, sets, plan)

            cond_adj = [("rhs", w) for w in weights]
            g_cond = sens_condensed_state(grid, design, model, cond, sets,
                                          cond_adj)
            elem_adj = []
            for i, (aset, w) in enumerate(zip(sets, weights)):
                rhs = np.zeros((len(aset.free), aset.cases))
                pos = plan.free_primary[i].positions_in(aset.free)
                rhs[pos, :] = w
                elem_adj.append(("rhs", rhs))
            g_elem = sens_elementary(grid, design, elem, sets, elem_adj)
            scale = max(np.abs(g_elem).max(), 1e-30)
            assert np.abs(g_cond - g_elem).max() <= 1e-9 * scale

    def test_fd_both_pipelines_4x4(self):
        rng = np.random.default_rng(37)
        grid = Grid(4, 4)
        flt = Filter(grid, 2.0)
        x = rng.uniform(0.3, 0.9, grid.n_elems)
        design = DesignField(grid, x, flt)
        n = grid.n_dofs
        s1 = AnalysisSet(n, IndexSet([0], n), IndexSet([12, 18], n),
                         prescribed_values=np.array([[0.2]]))
        s2 = AnalysisSet(n, IndexSet([24], n), IndexSet([12], n),
                         prescribed_values=np.array([[-0.1]]))
        sets = [s1, s2]
        plan = build_plan(sets, n)
        sec_loads, sec_values = gather_secondary(plan, sets)
        weights = [rng.normal(size=(len(plan.free_primary[i]), 1))
                   for i in range(2)]

        def response_from_primary(primary_states):
            total = 0.0
            for i, w in enumerate(weights):
                total += float(np.sum(
                    w * primary_states[i][plan.free_primary_pos[i], :]))
            return total

        def g_cond(xv):
            d = DesignField(grid, xv, flt)
            m = condense(assemble(grid, d), plan, sec_loads, sec_values)
            sol = solve_condensed(m, sets)
            return response_from_primary([sol.sets[i].u_full for i in range(2)])

        def g_elem(xv):
            d = DesignField(grid, xv, flt)
            sol = solve_elementary(assemble(grid, d), sets)
            return response_from_primary(
                [sol.sets[i].u_full[plan.primary.ids, :] for i in range(2)])

        model = condense(assemble(grid, design), plan, sec_loads, sec_values)
        cond = solve_condensed(model, sets)
        grad_c = sens_condensed_state(grid, design, model, cond, sets,
                                      [("rhs", w) for w in weights])
        elem = solve_elementary(assemble(grid, design), sets)
        elem_adj = []
        for i, (aset, w) in enumerate(zip(sets, weights)):
            rhs = np.zeros((len(aset.free), aset.cases))
            rhs[plan.free_primary[i].positions_in(aset.free), :] = w
            elem_adj.append(("rhs", rhs))
        grad_e = sens_elementary(grid, design, elem, sets, elem_adj)

        assert fd_verify(g_cond, x, grad_c) <= 1e-5
        assert fd_verify(g_elem, x, grad_e) <= 1e-5

    def test_zero_partial_zero_gradient(self):
        rng = np.random.default_rng(38)
        K, sets, grid, design = random_conduction_problem(rng, max_grid=5)
        elem = solve_elementary(K, sets)
        g = sens_elementary(grid, design, elem, sets, [None] * len(sets))
        np.testing.assert_array_equal(g, 0.0)

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
            cond = solve_condensed(model, sets, ledger=ledger)
            weights = self._rand_state_response(rng, sets, plan)
            sens_condensed_state(grid, design, model, cond, sets,
                                 [("rhs", w) for w in weights], ledger=ledger)
            assert ledger.count(op="solve", matrix="sparse", phase="adjoint") == 0
            assert ledger.count(op="factorize", matrix="sparse") == 1

    def test_self_adjoint_shortcut_matches_solve(self):
        # feeding lam directly must equal solving for it
        rng = np.random.default_rng(40)
        K, sets, grid, design = random_conduction_problem(
            rng, max_grid=6, with_secondary_sources=False)
        plan, *_ = plan_and_secondary(sets, grid.n_dofs)
        if plan.m == 0 or any(len(f) == 0 for f in plan.free_primary):
            pytest.skip("degenerate draw")
        model = condense(K, plan, None, None)
        cond = solve_condensed(model, sets)
        weights = [rng.normal(size=(len(plan.free_primary[i]), s.cases))
                   for i, s in enumerate(sets)]
        g1 = sens_condensed_state(grid, design, model, cond, sets,
                                  [("rhs", w) for w in weights])
        lams = [cond.factorizations[i].solve(w) for i, w in enumerate(weights)]
        g2 = sens_condensed_state(grid, design, model, cond, sets,
                                  [("lam", l) for l in lams])
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
        sol = solve_condensed(model, sets, want_reactions=True, ledger=ledger)
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
        if case == "primary-state":
            return sol.sets[set_index].u_free
        if case == "primary-reaction":
            return sol.sets[set_index].reactions
        u_primary = np.hstack([sol.sets[i].u_full for i in range(len(sets))])
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
    assert ledger.count(op="factorize") == ledger.count(op="factorize")


def test_reduced_matrix_case_same_as_direct_call():
    rig = CaseRig()
    design, model, sol, _ = rig.pipeline()
    W = rig.rng.normal(size=(model.m, model.m))
    a = sens_case("reduced-matrix", rig.grid, design, model, W, sol=sol).dg_dx
    b = sens_reduced_matrix(rig.grid, design, model, W)
    np.testing.assert_array_equal(a, b)


class TestFdVerify:
    def test_linear_is_exact(self):
        c = np.array([1.0, -2.0, 3.0])

        def g(x):
            return float(c @ x)

        assert fd_verify(g, np.zeros(3), c, eps=0.1) <= 1e-10

    def test_detects_wrong_gradient(self):
        c = np.array([1.0, -2.0])

        def g(x):
            return float(c @ x)

        assert fd_verify(g, np.zeros(2), 1.05 * c) > 1e-2
