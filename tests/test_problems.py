"""Benchmark problem builders, response values and gradients."""
import gc
import threading
import tracemalloc
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

import mptop.analysis
from helpers import collect_elementary, jbar8
from mptop.analysis import solve_elementary
from mptop.fem import DesignField, Filter, Grid, assemble
from mptop.partitions import AnalysisSet
from mptop.problems import build_problem1, build_problem2, evaluate
from mptop.sensitivity import fd_verify
from mptop.sparse import (BandStorageError, CostLedger, IndexSet,
                          SingularMatrixError, SymmetricSparse, principal)

JBAR = np.array([[0.5, 2.0], [1.0, -1.0]])


class InlineExecutor(ThreadPoolExecutor):
    """An executor that runs each job on the calling thread at submit."""

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


class TestBuildProblem1:
    def test_determinism(self):
        p1 = build_problem1(6, 6, m=5, vbar=0.3, seed=7)
        p2 = build_problem1(6, 6, m=5, vbar=0.3, seed=7)
        np.testing.assert_array_equal(p1.params["ports"], p2.params["ports"])
        np.testing.assert_array_equal(p1.params["magnitudes"],
                                      p2.params["magnitudes"])
        p3 = build_problem1(6, 6, m=5, vbar=0.3, seed=8)
        assert not np.array_equal(p1.params["ports"], p3.params["ports"])

    def test_structure(self):
        p = build_problem1(5, 4, m=4, vbar=0.25, seed=1)
        assert len(p.sets) == 4
        assert all(s.cases == 3 for s in p.sets)
        assert p.plan.m == 4
        assert p.plan.p_sec == 0
        assert sorted(p.params["ports"].tolist()) == p.plan.primary.ids.tolist()
        # each set grounds exactly one port at value zero and heats the
        # others, one load case each
        ports, mags = p.params["ports"], p.params["magnitudes"]
        for i, s in enumerate(p.sets):
            assert s.prescribed.ids.tolist() == [ports[i]]
            np.testing.assert_array_equal(s.prescribed_values, 0.0)
            others = [j for j in range(4) if j != i]
            expected = np.zeros((p.grid.n_dofs, 3))
            expected[ports[others], range(3)] = mags[others]
            np.testing.assert_array_equal(s.loads.toarray(), expected)

    def test_bad_port_counts(self):
        with pytest.raises(ValueError):
            build_problem1(3, 3, m=1)
        with pytest.raises(ValueError):
            build_problem1(2, 2, m=10)

    @pytest.mark.parametrize("vbar", [0.0, -0.2, 1.5])
    def test_bad_vbar(self, vbar):
        with pytest.raises(ValueError, match="vbar"):
            build_problem1(3, 3, m=2, vbar=vbar)

    def test_volume_constraint_tight_at_uniform_start(self):
        p = build_problem1(6, 6, m=3, vbar=0.4, seed=0)
        ev = evaluate(p, p.x0, pipeline="condensed", want_grads=False)
        assert abs(ev.constraints[0]) <= 1e-12

    def test_objective_pipeline_agreement(self):
        p = build_problem1(8, 7, m=5, vbar=0.3, seed=3)
        rng = np.random.default_rng(0)
        x = rng.uniform(0.2, 0.9, p.grid.n_elems)
        a = evaluate(p, x, pipeline="condensed", want_grads=False)
        b = evaluate(p, x, pipeline="elementary", want_grads=False)
        assert abs(a.objective - b.objective) <= 1e-9 * abs(b.objective)
        np.testing.assert_allclose(a.constraints, b.constraints, rtol=1e-12)

    def test_gradients_match_fd_and_each_other(self):
        p = build_problem1(4, 4, m=4, vbar=0.3, seed=2)
        rng = np.random.default_rng(1)
        x = rng.uniform(0.3, 0.9, p.grid.n_elems)
        ev_c = evaluate(p, x, pipeline="condensed")
        ev_e = evaluate(p, x, pipeline="elementary")
        scale = np.abs(ev_e.d_objective).max()
        assert np.abs(ev_c.d_objective - ev_e.d_objective).max() <= 1e-9 * scale

        for pipe, ev in (("condensed", ev_c), ("elementary", ev_e)):
            err = fd_verify(
                lambda xv: evaluate(p, xv, pipeline=pipe,
                                    want_grads=False).objective,
                x, ev.d_objective)
            assert err <= 1e-5, f"{pipe} objective FD error {err:.2e}"
        err = fd_verify(
            lambda xv: evaluate(p, xv, want_grads=False).constraints[0],
            x, ev_c.d_constraints[0])
        assert err <= 1e-6

    def test_elementary_gradient_takes_the_state_as_its_adjoint(self):
        # the self-adjoint route contracts each state with itself, set by set
        # as the stream yields them: the bits of the collected states
        # contracted in set order, and what the two-field route gives, to
        # roundoff (at 3 columns the self route forms the element Gram)
        from mptop.fem import contract_dk_raw

        p = build_problem1(6, 5, m=4, vbar=0.3, seed=5)
        x = np.random.default_rng(2).uniform(0.3, 0.9, p.grid.n_elems)
        ev = evaluate(p, x, pipeline="elementary")
        design = p.design(x)
        sol = collect_elementary(assemble(p.grid, design), p.sets)
        raw = np.zeros(p.grid.n_elems)
        raw_pair = np.zeros(p.grid.n_elems)
        for aset, state in zip(p.sets, sol.sets):
            raw -= contract_dk_raw(p.grid, design, state.u_full, state.u_full)
            lam = np.zeros((p.grid.n_dofs, aset.cases))
            lam[aset.free.ids, :] = state.u_free
            raw_pair -= contract_dk_raw(p.grid, design, lam, state.u_full)
        ref, ref_pair = (design.flt.chain(r[:, None])[:, 0]
                         for r in (raw, raw_pair))
        assert ev.d_objective.tobytes() == ref.tobytes()
        assert np.abs(ev.d_objective - ref_pair).max() <= \
            1e-14 * np.abs(ref_pair).max()

    def test_condensed_gradient_repeats_bit_for_bit(self):
        # at the benchmark's p1-ports size the contraction forms R W^T on
        # numpy's threaded BLAS; two evaluations in one process agree in
        # every bit, as the history hashes need
        p = build_problem1(99, 99, m=32, vbar=0.3, seed=1)
        a, b = (evaluate(p, p.x0, pipeline="condensed") for _ in range(2))
        assert a.d_objective.tobytes() == b.d_objective.tobytes()
        assert a.objective == b.objective

    def test_reference_configuration_builds(self):
        # the full-size benchmark layout: 100x100 elements, 100 ports,
        # material bound 0.2
        p = build_problem1(100, 100, m=100, vbar=0.2, seed=0)
        assert p.grid.n_elems == 10 ** 4
        assert p.plan.m == 100 and len(p.sets) == 100
        assert all(s.cases == 99 for s in p.sets)
        assert p.flt.radius == 2.0
        np.testing.assert_array_equal(p.x0, 0.2)

    def test_self_adjoint_cost_profile(self):
        p = build_problem1(6, 6, m=4, vbar=0.3, seed=4)
        ledger = CostLedger()
        evaluate(p, p.x0, pipeline="condensed", ledger=ledger)
        assert ledger.count(op="factorize", matrix="sparse") == 1
        assert ledger.count(op="solve", matrix="sparse", phase="adjoint") == 0
        assert ledger.count(op="solve", matrix="dense", phase="adjoint") == 0

        ledger = CostLedger()
        evaluate(p, p.x0, pipeline="elementary", ledger=ledger)
        assert ledger.count(op="factorize", matrix="sparse") == len(p.sets)
        assert ledger.count(op="solve", matrix="sparse", phase="adjoint") == 0


class TestBuildProblem2:
    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            build_problem2(6, 6, 2, [[0.5, 0.0], [1.0, -1.0]])

    def test_reference_configuration_builds(self):
        p = build_problem2(100, 100, 2, JBAR)
        assert p.plan.m == 4 and len(p.sets) == 2
        assert p.flt.radius == 2.0
        np.testing.assert_array_equal(p.x0, 1.0)

    def test_structure(self):
        p = build_problem2(6, 6, 2, JBAR)
        assert len(p.sets) == 2
        assert p.plan.m == 4
        assert p.n_constraints == 4
        # inputs change freedom between the sets; outputs always free
        for j, s in enumerate(p.sets):
            assert p.params["in_dofs"][j] in s.prescribed
            other = p.params["in_dofs"][1 - j]
            assert other not in s.prescribed
            for od in p.params["out_dofs"]:
                assert od not in s.prescribed
        # clamped edge DOFs are secondary prescribed
        assert p.plan.p_sec == 4 * (6 + 1) - 4

    def test_unit_input_echoed(self):
        p = build_problem2(6, 6, 2, JBAR)
        ev = evaluate(p, p.x0, want_grads=False)
        for j, s in enumerate(p.sets):
            u = ev.states.sets[j].u_full
            pos = np.searchsorted(p.plan.primary.ids, p.params["in_dofs"][j])
            assert u[pos, 0] == 1.0

    def test_transmission_sign_semantics(self):
        # target +u* demands output <= -u*; target -u* demands output >= +u*
        p = build_problem2(6, 6, 2, JBAR)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.3, 0.9, p.grid.n_elems)
        ev = evaluate(p, x, want_grads=False)
        jmat = (ev.constraints.reshape(2, 2) - 1.0) * JBAR
        sat = jmat / JBAR + 1.0 <= 0.0
        for i in range(2):
            for j in range(2):
                if JBAR[i, j] > 0:
                    assert sat[i, j] == (jmat[i, j] <= -JBAR[i, j])
                else:
                    assert sat[i, j] == (jmat[i, j] >= -JBAR[i, j])

    def test_jacobian_pipeline_agreement(self):
        p = build_problem2(7, 6, 2, JBAR)
        rng = np.random.default_rng(6)
        x = rng.uniform(0.2, 1.0, p.grid.n_elems)
        a = evaluate(p, x, pipeline="condensed", want_grads=False)
        b = evaluate(p, x, pipeline="elementary", want_grads=False)
        np.testing.assert_allclose(a.constraints, b.constraints, rtol=1e-9,
                                   atol=1e-12)

    def test_gradients_match_fd_and_each_other(self):
        p = build_problem2(6, 6, 2, JBAR)
        rng = np.random.default_rng(7)
        x = rng.uniform(0.3, 0.9, p.grid.n_elems)
        ev_c = evaluate(p, x, pipeline="condensed")
        ev_e = evaluate(p, x, pipeline="elementary")
        scale = np.abs(ev_e.d_constraints).max()
        assert np.abs(ev_c.d_constraints - ev_e.d_constraints).max() \
            <= 1e-9 * scale

        for k in (0, 3):
            for pipe, ev in (("condensed", ev_c), ("elementary", ev_e)):
                err = fd_verify(
                    lambda xv: evaluate(p, xv, pipeline=pipe,
                                        want_grads=False).constraints[k],
                    x, ev.d_constraints[k])
                assert err <= 1e-5, f"{pipe} g[{k}] FD error {err:.2e}"
        err = fd_verify(
            lambda xv: evaluate(p, xv, want_grads=False).objective,
            x, ev_c.d_objective)
        assert err <= 1e-6

    @pytest.mark.parametrize("pipeline", ["condensed", "elementary"])
    def test_constraint_gradients_scale_with_target(self, pipeline):
        # the adjoint right-hand sides are 1/jbar: scaling the target by s
        # scales every constraint gradient by 1/s, however small it gets
        p = build_problem2(6, 6, 2, JBAR)
        x = np.random.default_rng(9).uniform(0.3, 0.9, p.grid.n_elems)
        ref = evaluate(p, x, pipeline=pipeline).d_constraints
        for s in (1e13, 1e15, 1e20):
            ps = build_problem2(6, 6, 2, JBAR * s)
            got = s * evaluate(ps, x, pipeline=pipeline).d_constraints
            np.testing.assert_allclose(got, ref, rtol=1e-9,
                                       atol=1e-12 * np.abs(ref).max())

    def test_slender_grid_reordered_pipelines_agree(self):
        # a 4 x 40 grid numbers its nodes row by row (column by column it
        # would band at 85), and both pipelines factorize in that order
        p = build_problem2(4, 40, 2, JBAR)
        rng = np.random.default_rng(8)
        x = rng.uniform(0.3, 0.9, p.grid.n_elems)
        ev_c = evaluate(p, x, pipeline="condensed")
        ev_e = evaluate(p, x, pipeline="elementary")
        assert assemble(p.grid, p.design(x)).bandwidth < 40
        np.testing.assert_allclose(ev_c.constraints, ev_e.constraints,
                                   rtol=1e-9, atol=1e-12)
        assert abs(ev_c.objective - ev_e.objective) \
            <= 1e-9 * abs(ev_e.objective)
        scale = np.abs(ev_e.d_constraints).max()
        assert np.abs(ev_c.d_constraints - ev_e.d_constraints).max() \
            <= 1e-9 * scale
        # far from the ports the components fall to ~1e-11, below what
        # central differences resolve (~1e-10 absolute roundoff); the FD
        # check reads the components within 1e-3 of the largest
        for k in (0, 3):
            for pipe, ev in (("condensed", ev_c), ("elementary", ev_e)):
                err = fd_verify(
                    lambda xv: evaluate(p, xv, pipeline=pipe,
                                        want_grads=False).constraints[k],
                    x, ev.d_constraints[k])
                assert err <= 1e-5, f"{pipe} g[{k}] FD error {err:.2e}"

    def test_adjoint_load_count(self):
        # one adjoint right-hand side per constraint that reads the set, and
        # each set's right-hand sides solved together
        p = build_problem2(6, 6, 2, JBAR)
        ledger = CostLedger()
        evaluate(p, p.x0, pipeline="condensed", ledger=ledger)
        assert ledger.count(op="factorize", matrix="sparse") == 1
        assert ledger.count(op="solve", matrix="sparse", phase="adjoint") == 0
        assert ledger.count(op="solve", matrix="dense", phase="adjoint") == 2
        assert ledger.rhs_total(op="solve", matrix="dense",
                                phase="adjoint") == 4

        ledger = CostLedger()
        evaluate(p, p.x0, pipeline="elementary", ledger=ledger)
        assert ledger.count(op="factorize", matrix="sparse") == 2
        assert ledger.count(op="solve", matrix="sparse", phase="adjoint") == 2
        assert ledger.rhs_total(op="solve", matrix="sparse",
                                phase="adjoint") == 4

    def test_three_inputs_gradients_and_adjoint_count(self):
        # h = 9 constraints over m = 6 primaries, all in one gradient call
        jbar = np.array([[0.5, 2.0, -1.0], [1.0, -1.0, 0.8], [-0.6, 1.5, 0.7]])
        p = build_problem2(8, 8, 3, jbar)
        assert p.plan.m == 6 and p.n_constraints == 9
        rng = np.random.default_rng(9)
        x = rng.uniform(0.3, 0.9, p.grid.n_elems)
        ledger_c, ledger_e = CostLedger(), CostLedger()
        ev_c = evaluate(p, x, pipeline="condensed", ledger=ledger_c)
        ev_e = evaluate(p, x, pipeline="elementary", ledger=ledger_e)
        assert ev_c.d_constraints.shape == (9, p.grid.n_elems)
        # row-major like a row-by-row fill: the optimizer's roundoff (and the
        # history hashes) follow the layout
        assert ev_c.d_constraints.flags.c_contiguous
        assert ev_e.d_constraints.flags.c_contiguous
        for k in range(9):
            scale = np.abs(ev_e.d_constraints[k]).max()
            assert np.abs(ev_c.d_constraints[k] - ev_e.d_constraints[k]).max() \
                <= 1e-9 * scale, f"g[{k}]"
        assert ledger_c.count(op="solve", matrix="sparse", phase="adjoint") == 0
        assert ledger_e.count(op="solve", matrix="sparse", phase="adjoint") == 3
        assert ledger_e.rhs_total(op="solve", matrix="sparse",
                                  phase="adjoint") == 9
        # components far from the ports sit below what central differences
        # resolve; fd_verify reads those within 1e-3 of the largest
        for k in (1, 5):
            for pipe, ev in (("condensed", ev_c), ("elementary", ev_e)):
                err = fd_verify(
                    lambda xv: evaluate(p, xv, pipeline=pipe,
                                        want_grads=False).constraints[k],
                    x, ev.d_constraints[k])
                assert err <= 1e-5, f"{pipe} g[{k}] FD error {err:.2e}"

    def test_eight_inputs_gradients(self):
        # h = 64 constraints over m = 16 primaries: the condensed kernel reads
        # its 16 x 16 element blocks with one GEMM per chunk. FD checks a
        # random combination of all 64 rows at eps = 1e-4: its roundoff
        # exceeds ulp(f) / eps, and at eps = 1e-6 alone reads 5e-5
        p = build_problem2(20, 20, 8, jbar8())
        assert p.plan.m == 16 and p.n_constraints == 64
        rng = np.random.default_rng(10)
        x = rng.uniform(0.3, 0.9, p.grid.n_elems)
        ev_c = evaluate(p, x, pipeline="condensed")
        ev_e = evaluate(p, x, pipeline="elementary")
        for k in range(64):
            scale = np.abs(ev_e.d_constraints[k]).max()
            assert np.abs(ev_c.d_constraints[k] - ev_e.d_constraints[k]).max() \
                <= 1e-9 * scale, f"g[{k}]"
        assert np.abs(ev_c.d_objective - ev_e.d_objective).max() \
            <= 1e-9 * np.abs(ev_e.d_objective).max()
        w = rng.normal(size=64)
        for pipe, ev in (("condensed", ev_c), ("elementary", ev_e)):
            err = fd_verify(
                lambda xv: w @ evaluate(p, xv, pipeline=pipe,
                                        want_grads=False).constraints,
                x, w @ ev.d_constraints, eps=1e-4)
            assert err <= 1e-5, f"{pipe} FD error {err:.2e}"


class TestElementaryStreaming:
    """The elementary pipeline runs factorize -> state solve -> adjoint solve
    -> release per pattern, as the paper's cost model charges it, with up to
    two patterns in flight: a helper thread factorizes set i + 1 while the
    calling thread solves set i against its factor (when that solve runs at
    level 3), and results and ledger events are collected in set order."""

    # problem 1's 13 right-hand sides per set at k = 32 take the block solve,
    # so each set but the first is factorized on the helper; problem 2's sets
    # solve 1 and 2 columns, and factorize on the calling thread
    @pytest.mark.parametrize("build, helper", [
        (lambda: build_problem1(30, 30, m=14, seed=4), True),
        (lambda: build_problem2(6, 6, 2, JBAR), False),
    ], ids=["problem1", "problem2"])
    def test_at_most_two_factorizations_alive(self, monkeypatch, build,
                                              helper):
        # when set j factorizes, the only other handle alive is set j - 1's
        # while the caller solves it; the earlier ones were released in order
        p = build()
        honest = mptop.analysis.factorize
        handles, alive = [], []

        def recording(K, **kwargs):
            alive.append([j for j, ref in enumerate(handles)
                          if ref() is not None])
            fact = honest(K, **kwargs)
            handles.append(weakref.ref(fact))
            return fact

        monkeypatch.setattr(mptop.analysis, "factorize", recording)
        ev = evaluate(p, p.x0, pipeline="elementary")
        gc.collect()
        assert len(handles) == len(p.sets)
        assert alive == [[]] + [[j - 1] if helper else []
                                for j in range(1, len(p.sets))]
        assert all(ref() is None for ref in handles)
        assert ev.d_constraints is not None     # the evaluation is still alive

    @pytest.mark.parametrize("build", [
        lambda: build_problem1(30, 30, m=14, seed=4),
        lambda: build_problem2(8, 8, 2, JBAR),
    ], ids=["problem1", "problem2"])
    def test_helper_matches_inline_solves(self, monkeypatch, build):
        # the helper thread changes where the factorizations run, not their
        # bits (problem 2's few-column sets factorize on the calling thread
        # anyway)
        class Inline:
            """An executor that runs each job on the calling thread."""

            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                done = Future()
                done.set_result(fn(*args))
                return done

        p = build()
        x = np.random.default_rng(3).uniform(0.3, 0.9, p.grid.n_elems)
        helper = evaluate(p, x, pipeline="elementary")
        monkeypatch.setattr(mptop.analysis, "ThreadPoolExecutor", Inline)
        inline = evaluate(p, x, pipeline="elementary")
        for name in ("objective", "constraints", "d_objective",
                     "d_constraints"):
            assert np.asarray(getattr(helper, name)).tobytes() == \
                np.asarray(getattr(inline, name)).tobytes(), name

    def test_singular_set_mid_stream_stops_the_helper(self, monkeypatch):
        # set 2 of 14 is negative definite: its factorization fails on the
        # helper while the calling thread solves set 1, and evaluate raises
        # once the helper is joined
        p = build_problem1(30, 30, m=14, seed=4)
        honest_principal = mptop.analysis.principal
        honest = mptop.analysis.factorize
        blocks, threads = [], []

        def negated_third(K, idx):
            blocks.append(idx)
            if len(blocks) == 3:
                K = SymmetricSparse.trusted(K.pattern, -K.mat.data)
            return honest_principal(K, idx)

        def recording(K, **kwargs):
            threads.append(threading.current_thread().name)
            return honest(K, **kwargs)

        monkeypatch.setattr(mptop.analysis, "principal", negated_third)
        monkeypatch.setattr(mptop.analysis, "factorize", recording)
        with pytest.raises(SingularMatrixError):
            evaluate(p, p.x0, pipeline="elementary")
        assert len(blocks) == len(p.sets)
        assert len(threads) == 3
        assert threads[2].startswith("mptop-elementary")
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("mptop-elementary")]

    def test_consumer_that_stops_early_stops_the_helper(self, monkeypatch):
        # the gradient raises on set 2 of 14 while the helper factorizes
        # set 3: evaluate closes the stream, which joins the helper, even
        # while the traceback keeps the consumer's frame alive
        import mptop.sensitivity

        p = build_problem1(30, 30, m=14, seed=4)
        honest = mptop.sensitivity.contract_dk_raw
        calls = []

        def failing_third(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise FloatingPointError("stop")
            return honest(*args, **kwargs)

        monkeypatch.setattr(mptop.sensitivity, "contract_dk_raw",
                            failing_third)
        with pytest.raises(FloatingPointError) as info:
            evaluate(p, p.x0, pipeline="elementary")
        assert info.traceback and len(calls) == 3
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("mptop-elementary")]

    def test_prefetched_factorizations_take_the_callers_phase(self,
                                                              monkeypatch):
        # each helper job is held until the caller is inside its previous
        # set's adjoint phase, and the caller is held there until the job is
        # done: the factorizations still record the phase of their submit
        p = build_problem1(30, 30, m=14, seed=4)
        K = assemble(p.grid, p.design(p.x0))
        rng = np.random.default_rng(2)
        stacks = [rng.normal(size=(1, len(s.free), s.cases)) for s in p.sets]
        entered, done = threading.Semaphore(0), threading.Semaphore(0)
        held = []
        executor = mptop.analysis.ThreadPoolExecutor
        honest_phase = mptop.analysis.adjoint_phase

        class Held(executor):
            def submit(self, fn, *args):
                def job():
                    assert entered.acquire(timeout=60)
                    try:
                        return fn(*args)
                    finally:
                        done.release()
                held.append(None)
                return super().submit(job)

        @contextmanager
        def phase(ledger):
            with honest_phase(ledger):
                if held:
                    held.pop()
                    entered.release()
                    assert done.acquire(timeout=60)
                yield

        monkeypatch.setattr(mptop.analysis, "ThreadPoolExecutor", Held)
        monkeypatch.setattr(mptop.analysis, "adjoint_phase", phase)
        ledger = CostLedger()
        solved = list(mptop.analysis.solve_elementary(K, p.sets, stacks,
                                                      ledger=ledger))
        assert len(solved) == len(p.sets) and not held
        phases = [(e.op, e.phase) for e in ledger.events]
        assert phases.count(("solve", "adjoint")) == len(p.sets)
        assert [ph for op, ph in phases if op == "factorize"] == \
            ["response"] * len(p.sets)

    @staticmethod
    def _varied_sets():
        """A conduction K and two sets whose free blocks differ in n and in
        bandwidth: a corner prescribed, and every third DOF. Each set has 16
        cases, so its solve runs at level 3 and the next set factorizes on
        the helper."""
        grid = Grid(40, 40)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.3, 1.0, grid.n_elems)
        K = assemble(grid, DesignField(grid, x, Filter(grid, 1.5)))
        sets = [AnalysisSet(K.n, IndexSet(ids, K.n), IndexSet([], K.n),
                            rng.normal(size=(len(ids), 16)))
                for ids in (np.arange(4), np.arange(0, K.n, 3))]
        return K, sets

    @pytest.mark.parametrize("order", [(0, 1, 0), (1, 0, 1)],
                             ids=["wide-narrow-wide", "narrow-wide-narrow"])
    @pytest.mark.parametrize("executor", [ThreadPoolExecutor, InlineExecutor],
                             ids=["helper", "inline"])
    def test_stream_bands_match_fresh_factorizations(self, monkeypatch,
                                                     order, executor):
        # the stream refills its two buffers set after set, at whatever size
        # each set takes; every set's states and adjoints are those of a
        # factorization in a band of its own, bit for bit
        K, varied = self._varied_sets()
        wide, narrow = (principal(K, s.free) for s in varied)
        assert wide.n > narrow.n and wide.bandwidth > narrow.bandwidth
        sets = [varied[j] for j in order]
        rng = np.random.default_rng(6)
        stacks = [rng.normal(size=(1, len(s.free), s.cases)) for s in sets]
        honest = mptop.analysis.factorize
        buffers = []

        def in_buffer(K, **kwargs):
            buffers.append(kwargs["storage"])
            return honest(K, **kwargs)

        def fresh(K, ledger=None, storage=None):
            return honest(K, ledger=ledger)

        monkeypatch.setattr(mptop.analysis, "ThreadPoolExecutor", executor)
        solved = {}
        for name, factorize in (("stream", in_buffer), ("fresh", fresh)):
            monkeypatch.setattr(mptop.analysis, "factorize", factorize)
            solved[name] = list(solve_elementary(K, sets, stacks))
        assert len(buffers) == 3 and len({id(b) for b in buffers}) == 2
        for (states, stack), (ref, ref_stack) in zip(*solved.values()):
            assert states.u_full.tobytes() == ref.u_full.tobytes()
            assert stack.tobytes() == ref_stack.tobytes()

    @pytest.mark.parametrize("build, count", [
        (lambda: build_problem1(30, 30, m=14, seed=4), 2),
        (lambda: build_problem2(6, 6, 2, JBAR), 1),
    ], ids=["problem1", "problem2"])
    def test_band_buffers_per_stream(self, monkeypatch, build, count):
        # every set factorizes into one of the stream's buffers: two when
        # sets factorize on the helper, one when all factorize on the
        # calling thread (problem 2's few-column sets)
        p = build()
        honest = mptop.analysis.factorize
        buffers = []

        def recording(K, **kwargs):
            buffers.append(kwargs["storage"])
            return honest(K, **kwargs)

        monkeypatch.setattr(mptop.analysis, "factorize", recording)
        evaluate(p, p.x0, pipeline="elementary")
        assert len(buffers) == len(p.sets)
        assert len({id(b) for b in buffers}) == count

    def test_band_buffer_failure_is_named(self, monkeypatch):
        # the stream's second buffer cannot be allocated: evaluate raises a
        # BandStorageError that names the largest band, and no helper is
        # left running
        p = build_problem1(30, 30, m=14, seed=4)
        K = assemble(p.grid, p.design(p.x0))
        big = max((K.pattern.band(s.free) for s in p.sets),
                  key=lambda b: b.size)
        size = big.size
        honest, made = np.empty, []

        def failing_second(shape, *args, **kwargs):
            if shape == size:
                made.append(shape)
                if len(made) == 2:
                    raise MemoryError
            return honest(shape, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "empty", failing_second)
            with pytest.raises(BandStorageError) as err:
                evaluate(p, p.x0, pipeline="elementary")
        assert len(made) == 2
        assert isinstance(err.value, MemoryError)
        msg = str(err.value)
        assert f"n={big.n}" in msg
        assert f"bandwidth {big.bandwidth}" in msg
        assert f"{size * 8} bytes" in msg
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("mptop-elementary")]

    # the condensed pipeline's per-set events are its dense ones, after the
    # one sparse factorization and solve of the condensation
    @pytest.mark.parametrize("pipeline, matrix", [
        ("elementary", "sparse"), ("condensed", "dense")])
    @pytest.mark.parametrize("build, b", [
        (lambda: build_problem1(6, 6, m=4, seed=4), 0),
        (lambda: build_problem2(6, 6, 2, JBAR), 2),
    ], ids=["problem1", "problem2"])
    def test_events_grouped_per_set(self, build, b, pipeline, matrix):
        # each set's events are contiguous: its factorization, its response
        # solve, then its adjoint solve (b right-hand sides), before the
        # next set factorizes
        p = build()
        ledger = CostLedger()
        evaluate(p, p.x0, pipeline=pipeline, ledger=ledger)
        others = [e.op for e in ledger.events if e.matrix != matrix]
        assert others == ["factorize", "solve"] * (pipeline == "condensed")
        groups = []
        for e in ledger.events:
            if e.matrix != matrix:
                continue
            if e.op == "factorize":
                groups.append([])
            else:
                groups[-1].append(e)
        assert len(groups) == len(p.sets)
        for aset, solves in zip(p.sets, groups):
            assert [(e.phase, e.nrhs) for e in solves] == \
                [("response", aset.cases)] + [("adjoint", b)] * (b > 0)

    def test_each_state_held_once(self):
        # an elementary evaluation keeps, per set, one float array of the
        # (m, cases) primary rows the responses read, and no adjoint stack
        # (problem 2 solves them); the free and prescribed primary rows are
        # read from it on demand
        for p in (build_problem1(8, 8, m=4), build_problem2(6, 6, 2, JBAR)):
            plan = p.plan
            ev = evaluate(p, p.x0, pipeline="elementary")
            full = collect_elementary(assemble(p.grid, p.design(p.x0)),
                                      p.sets)
            assert ev.states.adjoints is None
            assert ev.states.factorizations == []
            for i, (aset, state) in enumerate(zip(p.sets, ev.states.sets)):
                held = [v.shape for v in vars(state).values()
                        if isinstance(v, np.ndarray) and v.dtype == float]
                assert held == [(plan.m, aset.cases)]
                u = full.sets[i].u_full
                np.testing.assert_array_equal(state.u_full,
                                              u[plan.primary.ids])
                np.testing.assert_array_equal(
                    state.u_free, u[plan.free_primary[i].ids])
                np.testing.assert_array_equal(
                    state.u_presc, aset.prescribed_values[
                        plan.presc_primary[i].positions_in(aset.prescribed)])

    @staticmethod
    def _traced_peaks(p, runs):
        """``tracemalloc`` peak of one elementary evaluate per (hold,
        want_grads) of ``runs``, with the previous evaluation alive while it
        runs when ``hold``, as ``optimize`` holds it. The pattern's block
        maps and band layouts are built by a first evaluate and kept, so the
        traced ones allocate numerical work only."""
        evaluate(p, p.x0, pipeline="elementary")
        gc.collect()
        peaks = []
        tracemalloc.start()
        try:
            for hold, want_grads in runs:
                previous = (evaluate(p, p.x0, pipeline="elementary")
                            if hold else None)
                tracemalloc.reset_peak()
                evaluate(p, p.x0, pipeline="elementary",
                         want_grads=want_grads)
                peaks.append(tracemalloc.get_traced_memory()[1])
                del previous
        finally:
            tracemalloc.stop()
        return peaks

    @staticmethod
    def _two_sets_bound(p):
        """Two sets' states, every set's kept primary rows, two bands and
        one set's contraction."""
        grid = p.grid
        K = assemble(grid, p.design(p.x0))
        # a set's states: its solved free block and its full-length field
        states = max(8 * (len(s.free) + grid.n_dofs) * s.cases
                     for s in p.sets)
        kept = sum(8 * p.plan.m * s.cases for s in p.sets)
        band = max(8 * (principal(K, s.free).bandwidth + 1) * len(s.free)
                   for s in p.sets)
        # the gradient of one set: its full-length adjoint and the three
        # (elements, element DOFs, cases) gathers of contract_dk_raw
        cases = max(s.cases for s in p.sets)
        contraction = 8 * cases * (grid.n_dofs + 3 * grid.edof.size)
        return 2 * states + kept + 2 * band + contraction

    def test_peak_memory_holds_two_bands(self):
        # each set is contracted as it is solved and then dropped, so at
        # most two sets' full-length states are alive, also while the
        # previous evaluation is held: it keeps primary rows only
        p = build_problem1(40, 40, m=16)
        bound = self._two_sets_bound(p)
        for peak in self._traced_peaks(p, [(False, True), (True, True)]):
            assert peak < bound

    def test_gradient_free_evaluate_streams(self):
        # without gradients the stream is drained as it is solved, under
        # the same bound
        p = build_problem1(40, 40, m=16)
        peak, = self._traced_peaks(p, [(False, False)])
        assert peak < self._two_sets_bound(p)
