"""DOF-split construction and the secondary gathers."""
import numpy as np
import pytest
import scipy.sparse as sp

from mptop.partitions import (
    AnalysisSet,
    build_plan,
    gather_secondary,
)
from mptop.sparse import IndexSet


def make_set(n, prescribed, interest, values=None, loads=None, cases=1):
    p = IndexSet(prescribed, n)
    if loads is not None:
        loads = sp.csc_matrix(np.asarray(loads, dtype=float))
        if values is None:
            values = np.zeros((len(p), loads.shape[1]))
    elif values is None:
        values = np.zeros((len(p), cases))
    return AnalysisSet(n, p, IndexSet(interest, n), values, loads)


def brute_force_groups(sets, n):
    """Per-DOF classification straight from the definitions."""
    sec_p, sec_f, primary = [], [], []
    for d in range(n):
        presc = [d in s.prescribed for s in sets]
        inter = any(d in s.interest for s in sets)
        vals = []
        for s in sets:
            if d in s.prescribed:
                pos = int(np.searchsorted(s.prescribed.ids, d))
                vals.extend(s.prescribed_values[pos, :].tolist())
        consistent = len(vals) == 0 or all(v == vals[0] for v in vals)
        if all(presc) and not inter and consistent:
            sec_p.append(d)
        elif not any(presc) and not inter:
            sec_f.append(d)
        else:
            primary.append(d)
    return sec_p, sec_f, primary


class TestBuildPlan:
    def test_three_dof_two_sets(self):
        # prescribe-0/watch-2 and prescribe-2/watch-0: middle DOF is the only
        # secondary, and each set splits the primaries the opposite way
        n = 3
        s1 = make_set(n, [0], [2])
        s2 = make_set(n, [2], [0])
        plan = build_plan([s1, s2], n)
        assert plan.sec_prescribed.ids.tolist() == []
        assert plan.sec_free.ids.tolist() == [1]
        assert plan.primary.ids.tolist() == [0, 2]
        assert plan.free_primary[0].ids.tolist() == [2]
        assert plan.presc_primary[0].ids.tolist() == [0]
        assert plan.free_primary[1].ids.tolist() == [0]
        assert plan.presc_primary[1].ids.tolist() == [2]

    def test_primary_count_and_cases(self):
        n = 6
        s1 = make_set(n, [0, 1], [4])
        s2 = make_set(n, [0, 2], [4], cases=2)
        plan = build_plan([s1, s2], n)
        assert plan.m == 3  # {1, 2 change freedom} + {4 interest}
        assert plan.total_cases == 3

    def test_empty_interest_gives_empty_primary(self):
        n = 4
        s = make_set(n, [0], [])
        plan = build_plan([s], n)
        assert plan.m == 0
        assert plan.sec_free.ids.tolist() == [1, 2, 3]

    def test_interest_only_primary_when_partitions_identical_not_allowed(self):
        # identical prescribed sets must be merged into one analysis set
        n = 4
        with pytest.raises(ValueError):
            build_plan([make_set(n, [0], [1]), make_set(n, [0], [2])], n)

    def test_single_set_interest_is_primary(self):
        n = 5
        plan = build_plan([make_set(n, [0], [2, 3])], n)
        assert plan.primary.ids.tolist() == [2, 3]
        assert plan.sec_prescribed.ids.tolist() == [0]
        assert plan.sec_free.ids.tolist() == [1, 4]

    def test_no_reduction_warning(self):
        n = 2
        s1 = make_set(n, [0], [1])
        s2 = make_set(n, [1], [0])
        with pytest.warns(UserWarning):
            plan = build_plan([s1, s2], n)
        assert plan.no_reduction
        assert plan.m == 2

    def test_magnitude_conflict_promotes(self):
        # DOF 0 prescribed everywhere but with different values: primary
        # (no free-everywhere DOF remains, hence the no-reduction warning)
        n = 4
        s1 = make_set(n, [0, 1], [3], values=np.array([[1.0], [0.0]]))
        s2 = make_set(n, [0, 2], [3], values=np.array([[2.0], [0.0]]))
        with pytest.warns(UserWarning):
            plan = build_plan([s1, s2], n)
        assert 0 in plan.primary
        assert plan.sec_prescribed.ids.tolist() == []

    def test_magnitude_consistent_stays_secondary(self):
        n = 4
        s1 = make_set(n, [0, 1], [3], values=np.array([[1.5], [0.0]]))
        s2 = make_set(n, [0, 2], [3], values=np.array([[1.5], [0.0]]))
        with pytest.warns(UserWarning):
            plan = build_plan([s1, s2], n)
        assert plan.sec_prescribed.ids.tolist() == [0]

    def test_randomized_brute_force(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(5, 200))
            a = int(rng.integers(1, 6))
            sets, seen = [], set()
            for _ in range(a):
                while True:
                    p = np.sort(rng.choice(n, rng.integers(1, max(2, n // 4)),
                                           replace=False))
                    key = tuple(p.tolist())
                    if key not in seen:
                        seen.add(key)
                        break
                interest = rng.choice(n, rng.integers(0, 5), replace=False)
                vals = np.round(rng.normal(size=(len(p), 1)), 1)
                sets.append(make_set(n, p, interest, values=vals))
            import warnings as _w
            with _w.catch_warnings():
                _w.simplefilter("ignore")
                plan = build_plan(sets, n)
            sec_p, sec_f, primary = brute_force_groups(sets, n)
            assert plan.sec_prescribed.ids.tolist() == sec_p
            assert plan.sec_free.ids.tolist() == sec_f
            assert plan.primary.ids.tolist() == primary


class TestGatherSecondary:
    def test_loads_and_values(self):
        n = 5
        loads1 = np.zeros((n, 2))
        loads1[3, 0] = 2.0
        loads1[1, 1] = -1.0
        s1 = make_set(n, [0], [4], values=np.array([[0.5, 0.5]]), loads=loads1)
        loads2 = np.zeros((n, 1))
        loads2[3, 0] = 7.0
        s2 = make_set(n, [0, 2], [4],
                      values=np.array([[0.5], [1.0]]), loads=loads2)
        plan = build_plan([s1, s2], n)
        assert plan.sec_prescribed.ids.tolist() == [0]
        assert plan.primary.ids.tolist() == [2, 4]
        assert plan.sec_free.ids.tolist() == [1, 3]
        sec_loads, sec_values = gather_secondary(plan, [s1, s2])
        np.testing.assert_array_equal(
            sec_loads.toarray(), [[0.0, -1.0, 0.0], [2.0, 0.0, 7.0]])
        np.testing.assert_array_equal(sec_values, [[0.5, 0.5, 0.5]])


class TestAnalysisSet:
    def test_rejects_load_on_prescribed(self):
        n = 3
        loads = np.zeros((n, 1))
        loads[0, 0] = 1.0
        with pytest.raises(ValueError):
            make_set(n, [0], [], loads=loads)

    def test_free_is_complement(self):
        s = make_set(6, [1, 4], [0])
        assert s.free.ids.tolist() == [0, 2, 3, 5]

    def test_loads_at_is_kept_read_only(self):
        n = 5
        loads = np.zeros((n, 2))
        loads[3, 0] = 2.0
        loads[4, 1] = -1.0
        s = make_set(n, [0], [], loads=loads)
        rows = IndexSet([1, 3, 4], n)
        block = s.loads_at(rows)
        np.testing.assert_array_equal(block, loads[[1, 3, 4]])
        assert s.loads_at(IndexSet([4, 3, 1], n)) is block
        assert not block.flags.writeable
