"""The hybrid Phase-I approach (Section 4.3).

Pipeline:

1. classify every CC pair (disjoint / contained / intersecting);
2. build the containment Hasse forest and split the diagrams: those free of
   intersecting CCs go to Algorithm 2 (``S1``, exact), the rest to
   Algorithm 1 (``S2``, ILP with *modified marginals* limited to the bins
   the ``S2`` CCs can touch);
3. complete partial and untouched rows against ``combo_unused`` — choosing,
   per row, a combination that adds no new CC contribution when one
   exists; rows with no usable combination become *invalid tuples* for
   Phase II's ``solveInvalidTuples``.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.hasse import HasseForest
from repro.constraints.intervalize import Binning, build_binning
from repro.constraints.relationships import RelationshipTable
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase1.hasse_completion import (
    HasseCompletionStats,
    complete_with_hasse,
)
from repro.phase1.ilp_completion import IlpCompletionStats, complete_with_ilp
from repro.relational.relation import Relation

__all__ = ["Phase1Stats", "Phase1Result", "run_phase1"]


@dataclass
class Phase1Stats:
    """Stage timings and routing counts for one Phase-I run.

    The four timing buckets mirror the paper's Figure 13 breakdown:
    pairwise comparison, recursion (Algorithm 2), ILP solver (Algorithm 1)
    and — in Phase II — coloring.
    """

    pairwise_seconds: float = 0.0
    recursion_seconds: float = 0.0
    ilp_seconds: float = 0.0
    completion_seconds: float = 0.0
    num_ccs: int = 0
    num_duplicates: int = 0
    num_s1: int = 0
    num_s2: int = 0
    invalid_rows: int = 0
    ilp: Optional[IlpCompletionStats] = None
    hasse: Optional[HasseCompletionStats] = None

    @property
    def total_seconds(self) -> float:
        return (
            self.pairwise_seconds
            + self.recursion_seconds
            + self.ilp_seconds
            + self.completion_seconds
        )


@dataclass
class Phase1Result:
    """The completed (possibly partially) view assignment."""

    assignment: ViewAssignment
    catalog: ComboCatalog
    binning: Binning
    stats: Phase1Stats
    s1_indices: List[int] = field(default_factory=list)
    s2_indices: List[int] = field(default_factory=list)


def _dedupe(
    ccs: Sequence[CardinalityConstraint],
) -> Tuple[List[CardinalityConstraint], int]:
    """Drop CCs with identical predicate *and* target (trivial duplicates)."""
    seen: Set[Tuple[object, int]] = set()
    unique: List[CardinalityConstraint] = []
    duplicates = 0
    for cc in ccs:
        key = (cc.disjuncts, cc.target)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        unique.append(cc)
    return unique, duplicates


def run_phase1(
    r1: Relation,
    r2: Relation,
    ccs: Sequence[CardinalityConstraint],
    *,
    r1_attrs: Optional[Sequence[str]] = None,
    marginals: str = "relevant",
    soft_ccs: bool = True,
    backend: str = "scipy",
    force_ilp: bool = False,
    time_limit: Optional[float] = None,
    mip_gap: Optional[float] = None,
) -> Phase1Result:
    """Run the hybrid Phase I and return the view assignment.

    ``force_ilp=True`` routes *every* CC to Algorithm 1 (used by ablations
    and by the baselines together with ``marginals="all"``/``"none"``).
    """
    if r1_attrs is None:
        r1_attrs = list(r1.schema.nonkey_names)
    catalog = ComboCatalog.from_relation(r2)
    assignment = ViewAssignment(n=len(r1), r2_attrs=catalog.attrs)
    stats = Phase1Stats(num_ccs=len(ccs))

    unique_ccs, stats.num_duplicates = _dedupe(ccs)
    binning = build_binning(r1, r1_attrs, unique_ccs)

    # ------------------------------------------------------------------
    # 1. Pairwise classification and the S1/S2 split.
    # ------------------------------------------------------------------
    started = time.perf_counter()
    r1_attr_set = set(r1_attrs)
    r2_attr_set = set(catalog.attrs)
    table = RelationshipTable.build(unique_ccs, r1_attr_set, r2_attr_set)
    # Disjunctive CCs always take the ILP path — Algorithm 2's selection
    # and assignment steps are defined for conjunctive conditions only.
    conjunctive_indices = [
        i for i, cc in enumerate(unique_ccs) if cc.is_conjunctive
    ]
    disjunctive_indices = [
        i for i, cc in enumerate(unique_ccs) if not cc.is_conjunctive
    ]
    forest = HasseForest.build(table, conjunctive_indices)
    s1_indices: List[int] = []
    s2_indices: List[int] = list(disjunctive_indices)
    s1_diagrams = []
    for diagram in forest.diagrams:
        if force_ilp or any(
            node in table.intersecting_indices for node in diagram.nodes
        ):
            s2_indices.extend(diagram.nodes)
        else:
            s1_indices.extend(diagram.nodes)
            s1_diagrams.append(diagram)
    stats.pairwise_seconds = time.perf_counter() - started
    stats.num_s1 = len(s1_indices)
    stats.num_s2 = len(s2_indices)

    # ------------------------------------------------------------------
    # 2a. Algorithm 2 on the intersection-free diagrams.
    # ------------------------------------------------------------------
    if s1_diagrams:
        s1_forest = HasseForest(diagrams=s1_diagrams, table=table)
        stats.hasse = complete_with_hasse(
            r1, r1_attrs, catalog, unique_ccs, s1_forest, assignment
        )
        stats.recursion_seconds = stats.hasse.recursion_seconds

    # ------------------------------------------------------------------
    # 2b. Algorithm 1 on the rest.
    # ------------------------------------------------------------------
    if s2_indices:
        started = time.perf_counter()
        s2_ccs = [unique_ccs[i] for i in sorted(s2_indices)]
        stats.ilp = complete_with_ilp(
            r1,
            r1_attrs,
            catalog,
            s2_ccs,
            assignment,
            marginals=marginals,
            soft_ccs=soft_ccs,
            backend=backend,
            time_limit=time_limit,
            mip_gap=mip_gap,
        )
        stats.ilp_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # 3. Complete partial and untouched rows (combo_unused).
    # ------------------------------------------------------------------
    started = time.perf_counter()
    _complete_leftovers(
        r1, r1_attrs, catalog, unique_ccs, binning, assignment
    )
    stats.completion_seconds = time.perf_counter() - started
    stats.invalid_rows = len(assignment.invalid)

    return Phase1Result(
        assignment=assignment,
        catalog=catalog,
        binning=binning,
        stats=stats,
        s1_indices=sorted(s1_indices),
        s2_indices=sorted(s2_indices),
    )


def _complete_leftovers(
    r1: Relation,
    r1_attrs: Sequence[str],
    catalog: ComboCatalog,
    ccs: Sequence[CardinalityConstraint],
    binning: Binning,
    assignment: ViewAssignment,
) -> None:
    """Finish partial rows and place untouched rows on unused combos.

    Rows are grouped into decision classes keyed by (CC-match pattern,
    partial-assignment signature).  The pattern records, per CC and
    disjunct, whether the row's bin satisfies that disjunct's R1
    condition; it is all the decision reads from the bin, so every row of
    a class gets the same candidate combos.  On a CC-free edge the pattern
    is empty and a whole edge's untouched rows form one class, however
    finely its R1 attributes (unique FK columns included) split the bins.

    Each row then takes the candidate with the lowest load ratio
    ``(load + 1) / max(1, key capacity)``, ties to the lowest combo
    index.  Per class the candidates sit in a heap of
    ``(ratio, combo_index)``: load only grows, so a stale top entry is
    re-pushed with its current ratio until the top is current — the same
    choice, tie order included, as a ``min`` over the ascending candidate
    list.
    """
    combos = catalog.combos
    if not combos:
        assignment.mark_invalid_rows(
            np.flatnonzero(~assignment.complete_mask())
        )
        return

    num_combos = len(combos)
    r1_attr_set = set(r1_attrs)
    r2_attr_set = set(catalog.attrs)

    # Per CC, per disjunct: (r1_part, r2_part, combo-match vector).
    cc_splits: List[List[Tuple]] = []
    for cc in ccs:
        split = []
        for r1_part, r2_part in cc.split_disjuncts(r1_attr_set, r2_attr_set):
            combo_match = np.asarray(
                [
                    r2_part.matches_row(catalog.as_dict(combo))
                    for combo in combos
                ],
                dtype=bool,
            )
            split.append((r1_part, r2_part, combo_match))
        cc_splits.append(split)

    bin_cc_cache: Dict[tuple, Tuple[bytes, List[np.ndarray]]] = {}

    def bin_cc_match(key: tuple) -> Tuple[bytes, List[np.ndarray]]:
        """Per CC: boolean array over its disjuncts — does the bin match
        that disjunct's R1 condition? — and those arrays' bytes, the
        bin's CC-match pattern (every CC has a fixed disjunct count, so
        the bytes identify the arrays)."""
        cached = bin_cc_cache.get(key)
        if cached is None:
            match = [
                np.asarray(
                    [
                        binning.bin_matches(key, r1_part)
                        for r1_part, _, __ in split
                    ],
                    dtype=bool,
                )
                for split in cc_splits
            ]
            cached = (b"".join(m.tobytes() for m in match), match)
            bin_cc_cache[key] = cached
        return cached

    pending = np.flatnonzero(~assignment.complete_mask())
    if pending.size == 0:
        return
    keys = binning.bin_keys(r1, pending)
    # Per-row partial-assignment signatures straight off the code matrix:
    # equal code vectors ⇔ equal partial assignments, so the signature
    # bytes replace the old `tuple(sorted(partial.items()))` cache key
    # without materialising a dict per row.
    signatures = assignment.code_rows(pending)
    num_set = (signatures >= 0).sum(axis=1)

    # Load balancing: spreading the free rows across equally-safe combos in
    # proportion to how many R2 keys carry each combo keeps Phase II from
    # having to mint fresh keys for overloaded combos.
    capacity = [
        max(1, len(catalog.keys_by_combo.get(combo, ()))) for combo in combos
    ]
    load = [0] * num_combos

    def ratio(c: int) -> float:
        return (load[c] + 1) / capacity[c]

    heaps: Dict[Tuple[bytes, bytes], List[Tuple[float, int]]] = {}
    chosen_rows: Dict[int, List[int]] = {}

    for pos, (row, key) in enumerate(zip(pending.tolist(), keys)):
        pattern, match = bin_cc_match(key)
        class_key = (pattern, signatures[pos].tobytes())
        heap = heaps.get(class_key)
        if heap is None:
            candidates, _clean = _choose_combo(
                assignment.values(row) or {},
                catalog,
                cc_splits,
                match,
                num_combos,
                untouched=num_set[pos] == 0,
            )
            # When `_clean` is False the best available combos still add a
            # CC contribution; the row stays valid (it has concrete B
            # values) but contributes CC error, exactly like the paper's
            # non-exact cases.
            heap = [(ratio(c), c) for c in candidates]
            heapq.heapify(heap)
            heaps[class_key] = heap
        if not heap:
            assignment.mark_invalid(row)
            continue
        while heap[0][0] != ratio(heap[0][1]):
            heapq.heapreplace(heap, (ratio(heap[0][1]), heap[0][1]))
        combo_index = heap[0][1]
        load[combo_index] += 1
        heapq.heapreplace(heap, (ratio(combo_index), combo_index))
        chosen_rows.setdefault(combo_index, []).append(row)

    # Commit the decisions combo-by-combo in bulk vector writes.
    for combo_index, rows in chosen_rows.items():
        assignment.assign_rows(rows, catalog.as_dict(combos[combo_index]))


def _choose_combo(
    partial: Dict[str, object],
    catalog: ComboCatalog,
    cc_splits: List[List[Tuple]],
    bin_match: List[np.ndarray],
    num_combos: int,
    untouched: bool,
) -> Tuple[List[int], bool]:
    """Find the least-damaging combos for one (CC pattern, partial) class.

    Returns ``(tied_best_combo_indices, clean)``; ``clean`` means those
    choices add no new CC contribution.  Untouched rows with no clean
    choice return ``([], False)`` — they become invalid tuples.
    """
    candidates = [
        c
        for c, combo in enumerate(catalog.combos)
        if all(catalog.as_dict(combo).get(a) == v for a, v in partial.items())
    ]
    if not candidates:
        return [], False

    partial_keys = set(partial)
    damage = np.zeros(num_combos, dtype=np.int64)
    for split, disjunct_bin_match in zip(cc_splits, bin_match):
        if not disjunct_bin_match.any():
            continue  # no disjunct matches this bin on the R1 side
        # Already guaranteed: some bin-matching disjunct's R2 condition is
        # fully pinned (and satisfied) by the partial assignment alone.
        # Unavoidable: some bin-matching disjunct has no R2 condition at
        # all — the combo choice cannot change the contribution.
        guaranteed = False
        satisfied = np.zeros(num_combos, dtype=bool)
        for matches_bin, (r1_part, r2_part, combo_match) in zip(
            disjunct_bin_match, split
        ):
            if not matches_bin:
                continue
            if r2_part.is_trivial or (
                r2_part.attributes <= partial_keys
                and r2_part.matches_row(partial)
            ):
                guaranteed = True
                break
            satisfied |= combo_match
        if not guaranteed:
            damage += satisfied

    candidate_damage = damage[candidates]
    best_damage = int(candidate_damage.min())
    if untouched and best_damage > 0:
        return [], False
    tied = [
        c for c, d in zip(candidates, candidate_damage) if d == best_damage
    ]
    return tied, best_damage == 0

