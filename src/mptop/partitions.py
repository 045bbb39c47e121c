"""Boundary-condition bookkeeping: analysis sets and the three-way DOF split.

Each analysis set is one pattern of prescribed/free DOFs shared by its load
cases. Across all sets the DOFs split into three disjoint groups:

* secondary prescribed — prescribed in every set with a consistent magnitude
  and never of interest;
* secondary free — free in every set and never of interest;
* primary — everything else: all DOFs of interest plus every DOF whose
  free/prescribed status (or prescribed magnitude) varies between sets.

Only primary DOFs survive condensation, so this split determines the size of
the reduced model.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sparse import IndexSet


class AnalysisSet:
    """One boundary-condition pattern with its load cases.

    Parameters
    ----------
    n : total DOF count.
    prescribed : IndexSet of prescribed DOFs.
    interest : IndexSet of DOFs whose state the responses read.
    prescribed_values : (|prescribed|, cases) prescribed magnitudes.
    loads : applied loads, full height (n, cases), dense or sparse; rows at
        prescribed DOFs must be zero (reactions are outputs, not inputs).
    """

    def __init__(self, n, prescribed: IndexSet, interest: IndexSet,
                 prescribed_values=None, loads=None):
        self.n = int(n)
        self.prescribed = prescribed
        self.interest = interest
        self.free = prescribed.complement()
        if prescribed_values is not None:
            pv = np.atleast_2d(np.asarray(prescribed_values, dtype=float))
            if pv.shape[0] != len(prescribed):
                raise ValueError("prescribed_values rows must match prescribed set")
            self.cases = pv.shape[1]
        elif loads is not None:
            self.cases = loads.shape[1]
            pv = np.zeros((len(prescribed), self.cases))
        else:
            self.cases = 1
            pv = np.zeros((len(prescribed), 1))
        if self.cases < 1:
            raise ValueError("an analysis set needs at least one load case")
        self.prescribed_values = pv
        if loads is None:
            loads = sp.csc_matrix((n, self.cases))
        loads = sp.csc_matrix(loads, dtype=float, copy=True)
        loads.sum_duplicates()
        loads.eliminate_zeros()     # one stored entry per non-zero load
        if loads.shape != (n, self.cases):
            raise ValueError(f"loads must be {n} x {self.cases}")
        if len(prescribed) and loads.nnz:
            if abs(loads[prescribed.ids, :]).max() > 0.0:
                raise ValueError("loads at prescribed DOFs must be zero")
        self.loads = loads
        self._load_blocks = {}

    def loads_at(self, rows: IndexSet) -> np.ndarray:
        """Dense applied loads on ``rows``, (|rows|, cases): built on the
        first call for a row set, then kept and returned read-only."""
        block = self._load_blocks.get(rows)
        if block is None:
            block = self._load_blocks[rows] = self.loads[rows.ids, :].toarray()
            block.flags.writeable = False
        return block


@dataclass
class PartitionPlan:
    """Derived global split and the per-set reduced partitions."""

    n: int
    sec_prescribed: IndexSet          # prescribed-everywhere secondary DOFs
    sec_free: IndexSet                # free-everywhere secondary DOFs
    primary: IndexSet                 # retained DOFs, order fixes reduced numbering
    free_primary: list                # per set: primary & free (IndexSet)
    presc_primary: list               # per set: primary & prescribed (IndexSet)
    free_primary_pos: list            # positions of the above within `primary`
    presc_primary_pos: list
    cases_per_set: list
    case_slices: list                 # global load-case columns per set
    no_reduction: bool = False

    @property
    def m(self):
        return len(self.primary)

    @property
    def f_sec(self):
        return len(self.sec_free)

    @property
    def p_sec(self):
        return len(self.sec_prescribed)

    @property
    def total_cases(self):
        return sum(self.cases_per_set)


def build_plan(sets: list, n: int) -> PartitionPlan:
    """Split the DOFs per the set definitions.

    Prescribed-everywhere DOFs whose magnitudes differ between load cases or
    sets are promoted to the primary group, so the condensation sees a single
    consistent secondary prescribed-value table.
    """
    if not sets:
        raise ValueError("need at least one analysis set")
    for s in sets:
        if s.n != n:
            raise ValueError("analysis set sized for a different model")
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i].prescribed == sets[j].prescribed:
                raise ValueError(
                    f"analysis sets {i} and {j} share one prescribed set; "
                    "merge their load cases into a single set")

    presc_all = sets[0].prescribed
    presc_any = sets[0].prescribed
    interest_any = sets[0].interest
    for s in sets[1:]:
        presc_all = presc_all.intersect(s.prescribed)
        presc_any = presc_any.union(s.prescribed)
        interest_any = interest_any.union(s.interest)

    # candidate secondary prescribed DOFs, then drop magnitude conflicts
    cand = presc_all.minus(interest_any)
    vals = np.hstack([s.prescribed_values[cand.positions_in(s.prescribed)]
                      for s in sets])
    sec_prescribed = IndexSet(
        cand.ids[np.all(vals == vals[:, :1], axis=1)], n)

    all_dofs = IndexSet(np.arange(n), n)
    sec_free = all_dofs.minus(presc_any).minus(interest_any)
    primary = all_dofs.minus(sec_prescribed.union(sec_free))

    no_reduction = len(sec_free) == 0
    if no_reduction:
        warnings.warn("no reduction: every DOF is primary or prescribed",
                      stacklevel=2)

    free_primary, presc_primary, fpos, ppos = [], [], [], []
    cases, slices, start = [], [], 0
    for s in sets:
        fhat = primary.intersect(s.free)
        phat = primary.intersect(s.prescribed)
        free_primary.append(fhat)
        presc_primary.append(phat)
        fpos.append(fhat.positions_in(primary))
        ppos.append(phat.positions_in(primary))
        cases.append(s.cases)
        slices.append(slice(start, start + s.cases))
        start += s.cases

    return PartitionPlan(n, sec_prescribed, sec_free, primary,
                         free_primary, presc_primary, fpos, ppos,
                         cases, slices, no_reduction)


def gather_secondary(plan: PartitionPlan, sets: list):
    """Secondary loads (sparse, f_sec x cases) and prescribed values (dense)."""
    load_blocks = [s.loads[plan.sec_free.ids, :] for s in sets]
    sec_loads = sp.hstack(load_blocks, format="csc") if load_blocks else None
    sec_values = np.zeros((plan.p_sec, plan.total_cases))
    if plan.p_sec:
        for s, sl in zip(sets, plan.case_slices):
            pos = plan.sec_prescribed.positions_in(s.prescribed)
            sec_values[:, sl] = s.prescribed_values[pos, :]
    return sec_loads, sec_values
