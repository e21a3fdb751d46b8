"""Reference Phase-II strategy drivers (Algorithms 3 and 4, per strategy).

One self-contained Algorithm-4 driver per built-in strategy — the plain
``coloring`` list coloring and the ``capacity``, ``soft_capacity`` and
``quota_coloring`` extensions — each with its own largest-first loop,
fresh-key retry and R1̂/R2̂ materialisation, written out in full.  The
production strategies share one driver and one largest-first pass; they
must match these exactly: same ``r1_hat``, ``r2_hat``, ``coloring``,
``overflow`` and count fields of ``Phase2Stats``.

Only pieces that are not under test are imported: key minting, the
combo partitioning, the conflict-graph builder, ``solveInvalidTuples``,
the process-pool partition coloring and the quota option parser.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.core.config import SolverConfig
from repro.errors import ColoringError, ReproError
from repro.extensions.quota_coloring import _validated_quotas, resolve_quota
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase2.edges import build_conflict_graph
from repro.phase2.fk_assignment import (
    FreshKeyFactory,
    MintPool,
    Phase2Result,
    Phase2Stats,
    partition_by_combo,
)
from repro.phase2.hypergraph import ConflictHypergraph
from repro.phase2.invalid import solve_invalid_tuples
from repro.relational.executor import KernelExecutor, executor_from_config
from repro.relational.ordering import sort_key, tuple_sort_key
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec

__all__ = [
    "coloring_lf",
    "capacity_coloring",
    "soft_capacity_coloring",
    "run_phase2",
    "coloring_phase2",
    "capacity_phase2",
    "soft_capacity_phase2",
    "quota_coloring_phase2",
    "STRATEGIES",
]


# ----------------------------------------------------------------------
# Largest-first passes.
# ----------------------------------------------------------------------
def _forbidden(graph: ConflictHypergraph, coloring, v) -> set:
    forbidden = set()
    for edge in graph.incident_edges(v):
        others = [u for u in edge if u != v]
        colors = {coloring.get(u) for u in others}
        if len(colors) == 1:
            (only,) = colors
            if only is not None:
                forbidden.add(only)
    return forbidden


def _lf_order(graph: ConflictHypergraph, coloring) -> List[int]:
    return sorted(
        (v for v in graph.vertices if v not in coloring),
        key=lambda v: (-graph.degree(v), v),
    )


def coloring_lf(
    graph: ConflictHypergraph,
    coloring: Dict[int, object],
    candidates: Sequence[object],
    candidate_lists: Optional[Dict[int, Sequence[object]]] = None,
) -> Tuple[Dict[int, object], List[int]]:
    """Algorithm 3: first permitted candidate, else skip."""
    skipped: List[int] = []
    for v in _lf_order(graph, coloring):
        forbidden = _forbidden(graph, coloring, v)
        pool = candidates
        if candidate_lists is not None and v in candidate_lists:
            pool = candidate_lists[v]
        chosen = next((c for c in pool if c not in forbidden), None)
        if chosen is None:
            skipped.append(v)
        else:
            coloring[v] = chosen
    return coloring, skipped


def capacity_coloring(
    graph: ConflictHypergraph,
    candidates: Sequence[object],
    max_per_key: int,
    coloring: Optional[Dict[int, object]] = None,
    usage: Optional[Dict[object, int]] = None,
) -> Tuple[Dict[int, object], List[int]]:
    """Algorithm 3 plus: a color at ``max_per_key`` uses is forbidden."""
    if max_per_key < 1:
        raise ReproError("max_per_key must be at least 1")
    coloring = coloring if coloring is not None else {}
    usage = usage if usage is not None else {}
    for color in coloring.values():
        usage.setdefault(color, 0)
    skipped: List[int] = []
    for v in _lf_order(graph, coloring):
        forbidden = _forbidden(graph, coloring, v)
        chosen = next(
            (
                c
                for c in candidates
                if c not in forbidden and usage.get(c, 0) < max_per_key
            ),
            None,
        )
        if chosen is None:
            skipped.append(v)
        else:
            coloring[v] = chosen
            usage[chosen] = usage.get(chosen, 0) + 1
    return coloring, skipped


def soft_capacity_coloring(
    graph: ConflictHypergraph,
    candidates: Sequence[object],
    max_per_key: int,
    penalty: float,
    new_tuple_cost: float,
    coloring: Optional[Dict[int, object]] = None,
    usage: Optional[Dict[object, int]] = None,
) -> Tuple[Dict[int, object], List[int]]:
    """Algorithm 3 with the cheapest-overflow choice."""
    if max_per_key < 1:
        raise ReproError("max_per_key must be at least 1")
    coloring = coloring if coloring is not None else {}
    usage = usage if usage is not None else {}
    for color in coloring.values():
        usage.setdefault(color, 0)
    skipped: List[int] = []
    for v in _lf_order(graph, coloring):
        forbidden = _forbidden(graph, coloring, v)
        best = None
        best_cost = math.inf
        for c in candidates:
            if c in forbidden:
                continue
            over = usage.get(c, 0) + 1 - max_per_key
            cost = 0.0 if over <= 0 else penalty * over
            if cost < best_cost:
                best_cost = cost
                best = c
                if cost == 0.0:
                    break
        if best is None or math.isinf(best_cost) or best_cost > new_tuple_cost:
            skipped.append(v)
        else:
            coloring[v] = best
            usage[best] = usage.get(best, 0) + 1
    return coloring, skipped


# ----------------------------------------------------------------------
# Shared pieces of the drivers.
# ----------------------------------------------------------------------
def _new_key_recorder(r2, catalog, keys_by_combo, new_rows, stats):
    key_column = r2.schema.key

    def record_new_key(key: object, combo: tuple) -> None:
        values = catalog.as_dict(combo)
        new_rows.append(
            tuple(
                key if name == key_column else values[name]
                for name in r2.schema.names
            )
        )
        keys_by_combo.setdefault(combo, []).append(key)
        stats.num_new_r2_tuples += 1

    return record_new_key


def assign_invalid_fresh(
    r1, ccs, assignment, catalog, pool, coloring, record_new_key, usage=None
) -> int:
    """Every invalid row gets a fresh key on a safe combo."""
    invalid_rows = sorted(assignment.invalid)
    for row in invalid_rows:
        combo = catalog.combos[0] if catalog.combos else None
        if combo is None:
            raise ColoringError("R2 has no value combinations at all")
        safe = catalog.unused_for_row(r1.row(row), list(ccs))
        if safe:
            combo = safe[0]
        key = pool.mint()
        record_new_key(key, combo)
        coloring[row] = key
        if usage is not None:
            usage[key] = usage.get(key, 0) + 1
        assignment.assign(row, catalog.as_dict(combo))
        assignment.invalid.discard(row)
    return len(invalid_rows)


def _color_partition(graph, candidates, pool, stats):
    coloring: Dict[int, object] = {}
    coloring, skipped = coloring_lf(graph, coloring, candidates)
    stats.num_skipped += len(skipped)
    used_fresh: List[object] = []
    guard = 0
    while skipped:
        guard += 1
        if guard > graph.num_vertices + 1:
            raise ColoringError("fresh-color loop failed to make progress")
        fresh = pool.take(len(skipped))
        coloring, skipped = coloring_lf(graph, coloring, fresh)
        used = set(coloring.values()) & set(fresh)
        used_fresh.extend(k for k in fresh if k in used)
        pool.release([k for k in fresh if k not in used])
    return coloring, used_fresh


def _color_skipped_with_fresh(
    num_rows, coloring, skipped, pool, combo, record_new_key, color_pass
):
    guard = 0
    while skipped:
        guard += 1
        if guard > num_rows + 1:
            raise ColoringError("fresh-color loop failed to make progress")
        fresh = pool.take(len(skipped))
        coloring, skipped = color_pass(fresh, coloring)
        used = set(coloring.values())
        for key in fresh:
            if key in used:
                record_new_key(key, combo)
        pool.release([k for k in fresh if k not in used])
    return coloring


def _materialise(r1, r2, fk_column, assignment, coloring, new_rows, stats):
    if len(coloring) < assignment.n:
        raise ColoringError("rows ended up uncolored")
    fk_values = [coloring[row] for row in range(assignment.n)]
    key_dtype = r2.schema.dtype(r2.schema.key)
    r1_hat = r1.with_column(ColumnSpec(fk_column, key_dtype), fk_values)
    r2_hat = r2.append_rows(new_rows)
    return Phase2Result(
        r1_hat=r1_hat, r2_hat=r2_hat, coloring=coloring, stats=stats
    )


# ----------------------------------------------------------------------
# The plain Algorithm-4 driver.
# ----------------------------------------------------------------------
def run_phase2(
    r1: Relation,
    r2: Relation,
    dcs: Sequence[DenialConstraint],
    assignment: ViewAssignment,
    catalog: ComboCatalog,
    fk_column: str,
    ccs: Sequence[CardinalityConstraint] = (),
    partitioned: bool = True,
    parallel_workers: int = 0,
    executor: Optional[KernelExecutor] = None,
) -> Phase2Result:
    stats = Phase2Stats()
    pool = MintPool(FreshKeyFactory(list(r2.column(r2.schema.key))))
    new_r2_rows: List[tuple] = []
    coloring: Dict[int, object] = {}
    keys_by_combo = {c: list(k) for c, k in catalog.keys_by_combo.items()}
    partitions = partition_by_combo(assignment, r1, executor=executor)
    record_new_key = _new_key_recorder(
        r2, catalog, keys_by_combo, new_r2_rows, stats
    )

    if partitioned and parallel_workers > 0:
        from repro.phase2.parallel import color_partitions_parallel

        coloring, skipped_by_combo, num_edges = color_partitions_parallel(
            r1, dcs, partitions, keys_by_combo, max_workers=parallel_workers
        )
        stats.num_edges = num_edges
        stats.num_partitions = len(partitions)
        for combo, skipped_rows in sorted(
            skipped_by_combo.items(), key=lambda kv: tuple_sort_key(kv[0])
        ):
            stats.num_skipped += len(skipped_rows)
            graph = build_conflict_graph(r1, dcs, partitions[combo])
            remaining = list(skipped_rows)
            guard = 0
            while remaining:
                guard += 1
                if guard > len(partitions[combo]) + 1:
                    raise ColoringError(
                        "fresh-color loop failed to make progress"
                    )
                fresh = pool.take(len(remaining))
                coloring, remaining = coloring_lf(graph, coloring, fresh)
                used = set(coloring.values()) & set(fresh)
                for key in fresh:
                    if key in used:
                        record_new_key(key, combo)
                pool.release([k for k in fresh if k not in used])
    elif partitioned:
        for combo in sorted(partitions.keys(), key=tuple_sort_key):
            rows = partitions[combo]
            candidates = sorted(keys_by_combo.get(combo, []), key=sort_key)
            if not candidates:
                raise ColoringError(f"no candidate keys for combo {combo!r}")
            if not dcs:
                coloring.update(dict.fromkeys(rows, candidates[0]))
                stats.num_partitions += 1
                continue
            graph = build_conflict_graph(r1, dcs, rows)
            stats.num_edges += graph.num_edges
            stats.num_partitions += 1
            part_coloring, used_fresh = _color_partition(
                graph, candidates, pool, stats
            )
            for key in used_fresh:
                record_new_key(key, combo)
            coloring.update(part_coloring)
    else:
        combo_of_row = {
            row: combo for combo, rows in partitions.items() for row in rows
        }
        all_rows = sorted(combo_of_row)
        graph = build_conflict_graph(r1, dcs, all_rows)
        stats.num_edges += graph.num_edges
        stats.num_partitions = 1
        candidate_lists = {
            row: sorted(keys_by_combo.get(combo_of_row[row], []), key=sort_key)
            for row in all_rows
        }
        coloring, skipped = coloring_lf(graph, coloring, [], candidate_lists)
        stats.num_skipped += len(skipped)
        guard = 0
        while skipped:
            guard += 1
            if guard > len(all_rows) + 1:
                raise ColoringError("fresh-color loop failed to make progress")
            fresh = pool.take(len(skipped))
            fresh_by_row = dict(zip(skipped, fresh))
            fresh_lists = {row: [key] for row, key in fresh_by_row.items()}
            coloring, skipped = coloring_lf(graph, coloring, [], fresh_lists)
            unused = []
            for row, key in fresh_by_row.items():
                if coloring.get(row) == key:
                    record_new_key(key, combo_of_row[row])
                else:
                    unused.append(key)
            pool.release(unused)

    if assignment.invalid:
        stats.num_invalid_handled = solve_invalid_tuples(
            r1=r1,
            dcs=dcs,
            ccs=ccs,
            assignment=assignment,
            catalog=catalog,
            coloring=coloring,
            keys_by_combo=keys_by_combo,
            factory=pool,
            record_new_key=record_new_key,
        )
    return _materialise(
        r1, r2, fk_column, assignment, coloring, new_r2_rows, stats
    )


# ----------------------------------------------------------------------
# The four strategies, with the registry's calling convention.
# ----------------------------------------------------------------------
def coloring_phase2(
    r1, r2, dcs, assignment, catalog, fk_column,
    *, ccs=(), config=None, options=None,
) -> Phase2Result:
    if options:
        raise ReproError("the coloring strategy takes no options")
    config = config or SolverConfig()
    return run_phase2(
        r1, r2, dcs, assignment, catalog, fk_column,
        ccs=ccs,
        partitioned=config.partitioned_coloring,
        parallel_workers=config.parallel_workers,
        executor=executor_from_config(config),
    )


def _capped_driver(
    r1, r2, dcs, assignment, catalog, fk_column, ccs, config, color_pass
):
    """The capacity/soft-capacity driver; ``color_pass(graph, candidates,
    coloring, usage)`` is the strategy's largest-first pass."""
    stats = Phase2Stats()
    pool = MintPool(FreshKeyFactory(list(r2.column(r2.schema.key))))
    keys_by_combo = {c: list(k) for c, k in catalog.keys_by_combo.items()}
    new_rows: List[tuple] = []
    coloring: Dict[int, object] = {}
    usage: Dict[object, int] = {}
    record_new_key = _new_key_recorder(
        r2, catalog, keys_by_combo, new_rows, stats
    )
    partitions = partition_by_combo(
        assignment, r1, executor=executor_from_config(config)
    )
    for combo in sorted(partitions.keys(), key=tuple_sort_key):
        rows = partitions[combo]
        graph = build_conflict_graph(r1, dcs, rows)
        stats.num_partitions += 1
        stats.num_edges += graph.num_edges
        candidates = sorted(keys_by_combo.get(combo, []), key=sort_key)
        part_coloring, skipped = color_pass(graph, candidates, {}, usage)
        stats.num_skipped += len(skipped)
        part_coloring = _color_skipped_with_fresh(
            len(rows), part_coloring, skipped, pool, combo, record_new_key,
            lambda fresh, col, graph=graph: color_pass(
                graph, fresh, col, usage
            ),
        )
        coloring.update(part_coloring)
    stats.num_invalid_handled = assign_invalid_fresh(
        r1, ccs, assignment, catalog, pool, coloring, record_new_key,
        usage=usage,
    )
    result = _materialise(
        r1, r2, fk_column, assignment, coloring, new_rows, stats
    )
    return result, usage


def capacity_phase2(
    r1, r2, dcs, assignment, catalog, fk_column,
    *, ccs=(), config=None, options=None,
) -> Phase2Result:
    max_per_key = dict(options or {})["max_per_key"]
    result, _ = _capped_driver(
        r1, r2, dcs, assignment, catalog, fk_column, ccs, config,
        lambda graph, cands, col, usage: capacity_coloring(
            graph, cands, max_per_key, col, usage
        ),
    )
    return result


def soft_capacity_phase2(
    r1, r2, dcs, assignment, catalog, fk_column,
    *, ccs=(), config=None, options=None,
) -> Phase2Result:
    options = dict(options or {})
    max_per_key = options["max_per_key"]
    penalty = float(options.get("penalty", 1.0))
    new_tuple_cost = float(options.get("new_tuple_cost", math.inf))
    result, usage = _capped_driver(
        r1, r2, dcs, assignment, catalog, fk_column, ccs, config,
        lambda graph, cands, col, usage: soft_capacity_coloring(
            graph, cands, max_per_key, penalty, new_tuple_cost, col, usage
        ),
    )
    result.overflow = {
        key: count - max_per_key
        for key, count in usage.items()
        if count > max_per_key
    }
    result.stats.total_overflow = sum(result.overflow.values())
    return result


def quota_coloring_phase2(
    r1, r2, dcs, assignment, catalog, fk_column,
    *, ccs=(), config=None, options=None,
) -> Phase2Result:
    quotas, default_quota = _validated_quotas(dict(options or {}))
    unlimited = not quotas and default_quota is None

    stats = Phase2Stats()
    pool = MintPool(FreshKeyFactory(list(r2.column(r2.schema.key))))
    keys_by_combo = {c: list(k) for c, k in catalog.keys_by_combo.items()}
    new_rows: List[tuple] = []
    coloring: Dict[int, object] = {}
    record_new_key = _new_key_recorder(
        r2, catalog, keys_by_combo, new_rows, stats
    )
    partitions = partition_by_combo(
        assignment, r1, executor=executor_from_config(config)
    )
    for combo in sorted(partitions.keys(), key=tuple_sort_key):
        rows = partitions[combo]
        graph = build_conflict_graph(r1, dcs, rows)
        stats.num_edges += graph.num_edges
        stats.num_partitions += 1
        candidates = sorted(keys_by_combo.get(combo, []), key=sort_key)
        if not candidates:
            raise ColoringError(f"no candidate keys for combo {combo!r}")
        quota = resolve_quota(catalog.as_dict(combo), quotas, default_quota)
        if quota is None:
            part_coloring, used_fresh = _color_partition(
                graph, candidates, pool, stats
            )
            for key in used_fresh:
                record_new_key(key, combo)
        else:
            usage: Dict[object, int] = {}
            part_coloring, skipped = capacity_coloring(
                graph, candidates, quota, {}, usage
            )
            stats.num_skipped += len(skipped)
            part_coloring = _color_skipped_with_fresh(
                len(rows), part_coloring, skipped, pool, combo,
                record_new_key,
                lambda fresh, col, graph=graph, quota=quota, usage=usage: (
                    capacity_coloring(graph, fresh, quota, col, usage)
                ),
            )
        coloring.update(part_coloring)

    if unlimited:
        if assignment.invalid:
            stats.num_invalid_handled = solve_invalid_tuples(
                r1=r1,
                dcs=dcs,
                ccs=ccs,
                assignment=assignment,
                catalog=catalog,
                coloring=coloring,
                keys_by_combo=keys_by_combo,
                factory=pool,
                record_new_key=record_new_key,
            )
    else:
        stats.num_invalid_handled = assign_invalid_fresh(
            r1, ccs, assignment, catalog, pool, coloring, record_new_key
        )
    return _materialise(r1, r2, fk_column, assignment, coloring, new_rows, stats)


#: Strategy name -> reference driver.
STRATEGIES = {
    "coloring": coloring_phase2,
    "capacity": capacity_phase2,
    "soft_capacity": soft_capacity_phase2,
    "quota_coloring": quota_coloring_phase2,
}
