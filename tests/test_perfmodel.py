"""Cost model, gain formulas and the reference-curve regression."""
import numpy as np
import pytest

from data_gain_reference import DIRECT_N1E4, ITERATIVE_N1E4
from mptop.perfmodel import (
    FlopModel,
    beta_dense,
    beta_sparse,
    gain_general,
    gain_problem1,
    gain_problem2,
    gain_table,
    measure_runtime_gain,
)
from mptop.problems import build_problem1

DIRECT = FlopModel("direct")
ITER = FlopModel("iterative")


class TestBetas:
    def test_direct_factorization_only(self):
        assert beta_sparse(DIRECT, 1e4, 0) == 1e8

    def test_iterative_no_rhs_is_free(self):
        assert beta_sparse(ITER, 12345, 0) == 0.0

    def test_direct_plug_in(self):
        assert beta_sparse(DIRECT, 100, 1) == 10000 + 2000

    def test_dense_values(self):
        assert beta_dense(1, 0) == pytest.approx(1.0 / 3.0)
        assert beta_dense(100, 99) == pytest.approx(1e6 / 3 + 2 * 99 * 1e4)
        assert beta_dense(50, 0) == pytest.approx(50 ** 3 / 3)

    def test_monotonicity(self):
        for model in (DIRECT, ITER):
            v = [beta_sparse(model, n, 3) for n in (10, 100, 1000)]
            assert v[0] <= v[1] <= v[2]
        assert beta_dense(10, 1) < beta_dense(10, 5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_sparse(DIRECT, 0, 1)
        with pytest.raises(ValueError):
            beta_dense(10, -1)
        with pytest.raises(ValueError):
            FlopModel("magic")


class TestGainGeneral:
    def test_not_worthwhile_when_m_near_n(self):
        assert gain_general(DIRECT, 1000, 900, [(1, 0)]) < 1.0

    def test_pattern_count_scales_numerator_only(self):
        one = gain_general(DIRECT, 10 ** 5, 20, [(3, 1)])
        two = gain_general(DIRECT, 10 ** 5, 20, [(3, 1)] * 2)
        num1 = beta_sparse(DIRECT, 10 ** 5, 4)
        den1 = beta_sparse(DIRECT, 10 ** 5 - 20, 20) + beta_dense(20, 4)
        assert one == pytest.approx(num1 / den1)
        den2 = beta_sparse(DIRECT, 10 ** 5 - 20, 20) + 2 * beta_dense(20, 4)
        assert two == pytest.approx(2 * num1 / den2)

    def test_specializes_to_problem1(self):
        n, m = 10 ** 4, 16
        via_general = gain_general(DIRECT, n, m, [(m - 1, 0)] * m)
        assert via_general == pytest.approx(gain_problem1(DIRECT, n, m))

    def test_specializes_to_problem2(self):
        n, m = 10 ** 4, 8
        via_general = gain_general(ITER, n, m, [(1, m - 1)] * (m // 2))
        assert via_general == pytest.approx(gain_problem2(ITER, n, m))

    def test_domain(self):
        with pytest.raises(ValueError):
            gain_general(DIRECT, 100, 100, [(1, 0)])


class TestGainProblem1:
    def test_direct_single_port_spot_value(self):
        assert gain_problem1(DIRECT, 1e4, 1) == pytest.approx(
            0.980139768625012, rel=5e-3)

    def test_iterative_spot_value(self):
        assert gain_problem1(ITER, 1e4, 91.0298177991522) == pytest.approx(
            90.8854507418553, rel=1e-2)

    def test_iterative_single_port_is_zero(self):
        assert gain_problem1(ITER, 1e4, 1) == 0.0

    def test_reference_curve_iterative(self):
        for m, ref in ITERATIVE_N1E4:
            got = gain_problem1(ITER, 1e4, m)
            if ref == 0.0:
                assert got == 0.0
                continue
            tol = 0.01 if m <= 100 else 0.10
            assert abs(got - ref) <= tol * ref, (m, got, ref)

    def test_reference_curve_direct(self):
        for m, ref in DIRECT_N1E4:
            got = gain_problem1(DIRECT, 1e4, m)
            tol = 0.005 if m <= 2 else 0.10
            assert abs(got - ref) <= tol * ref, (m, got, ref)

    def test_interior_maximum(self):
        # for a fixed size there is a best primary count strictly inside
        ms = np.unique(np.logspace(0, 3, 60).round().astype(int))
        ms = ms[(ms >= 2) & (ms < 10 ** 4)]
        vals = [gain_problem1(DIRECT, 1e4, int(m)) for m in ms]
        k = int(np.argmax(vals))
        assert 0 < k < len(vals) - 1
        # unimodal: rises before the peak, falls after
        assert all(np.diff(vals[: k + 1]) > 0)
        assert all(np.diff(vals[k:]) < 0)


class TestGainProblem2:
    def test_gain_tracks_input_count(self):
        assert gain_problem2(DIRECT, 10 ** 6, 8) == pytest.approx(4.0, rel=0.05)

    def test_single_input_near_unity(self):
        assert gain_problem2(DIRECT, 10 ** 8, 2) == pytest.approx(1.0, rel=1e-3)

    def test_half_m_scaling(self):
        # while the dense terms stay negligible the gain grows like m/2
        g8 = gain_problem2(DIRECT, 10 ** 8, 8)
        g16 = gain_problem2(DIRECT, 10 ** 8, 16)
        assert g16 / g8 == pytest.approx(2.0, rel=0.05)

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            gain_problem2(DIRECT, 100, 7)


class TestRuntimeGain:
    def test_small_problem_sanity(self):
        p = build_problem1(12, 12, m=6, vbar=0.4, seed=0)
        out = measure_runtime_gain(p, repeats=2)
        assert out.seconds_elementary > 0
        assert out.seconds_condensed > 0
        assert out.xi_measured > 0
        assert out.xi_predicted == pytest.approx(
            gain_problem1(DIRECT, p.plan.n, p.plan.m))

    def test_mechanism_problem_prediction(self):
        from mptop.problems import build_problem2

        p = build_problem2(10, 10, 2, [[0.5, 2.0], [1.0, -1.0]])
        out = measure_runtime_gain(p, repeats=2)
        assert out.xi_predicted == pytest.approx(
            gain_problem2(DIRECT, p.plan.n, p.plan.m))
        assert out.xi_measured > 0

    def test_self_comparison_is_near_unity(self):
        # the same workload timed twice lands within timer noise of ratio 1
        from mptop.analysis import solve_elementary
        from mptop.fem import assemble
        from mptop.sparse import CostLedger

        p = build_problem1(16, 16, m=5, vbar=0.4, seed=1)
        K = assemble(p.grid, p.design(p.x0))
        times = []
        for _ in range(5):
            ledger = CostLedger()
            solve_elementary(K, p.sets, ledger=ledger)
            times.append(ledger.seconds_total())
        times = sorted(times)
        assert times[len(times) // 2] > 0
        assert times[-2] / times[1] < 5.0


class TestGainTable:
    def test_rows(self):
        rows = gain_table(DIRECT, [1000], [10, 100, 2000])
        assert len(rows) == 2  # m >= n dropped
        assert rows[0][:3] == (1000.0, 10.0, "direct")
        assert rows[0][3] == pytest.approx(gain_problem1(DIRECT, 1000, 10))
        rows = gain_table(DIRECT, [1000], [0.4, 3.2], kind="problem2")
        assert [r[1] for r in rows] == [2.0, 4.0]  # rounded to even, >= 2
        assert rows[1][3] == pytest.approx(gain_problem2(DIRECT, 1000, 4))
