"""Snowflake-schema extension (Section 5.2, "Extending the solution…").

The paper generalises C-Extension to snowflake schemas by walking the FK
graph breadth-first from the fact table, treating the join of everything
completed so far as ``R1`` and the next dimension as ``R2`` (Example 5.6).

Our implementation follows that traversal with one precision: the relation
whose FK column is imputed at each step is the *owner* of the FK (the fact
table for fact→dim edges, a dimension for dim→dim edges), extended — for
constraint evaluation — with every attribute reachable through its
already-completed FKs.  For fact-table edges this is exactly the paper's
accumulated join (one view row per fact row); for dimension edges it keeps
the FK functionally dependent on the dimension key, which a row-level join
completion could violate.  DESIGN.md discusses the substitution.

:meth:`SnowflakeSynthesizer.solve` is the one traversal loop: both
:func:`repro.spec.synthesize` and the service layer's cache-aware
:func:`repro.service.engine.run_spec` run it.  It is *transactional*: it
works on a copy of the input :class:`Database` and returns it in
:attr:`SnowflakeResult.database` — a mid-traversal solver failure leaves
the caller's database exactly as it was.  It is (optionally) *parallel*:
edges in one BFS layer whose read/write relation sets are disjoint
(``Database.conflict_free_batches``) are solved concurrently on a process
pool, with results committed in BFS order so the completed database is
byte-identical to the sequential traversal's.  And it is *resumable*: an
:class:`EdgeResultSource` can hand it previously solved edges to splice
instead of solving, and receives every edge it does solve — committed,
then stored, then announced to ``on_event`` — whether the edge was
solved in-process or on the pool.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.core.config import SolverConfig
from repro.core.parallel_snowflake import (
    edge_payload,
    solve_batch,
    solve_edge,
)
from repro.core.synthesizer import CExtensionResult
from repro.errors import SchemaError, SynthesisCancelled
from repro.relational.database import Database, ForeignKey
from repro.relational.executor import executor_from_config
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec
from repro.solver import preload_backend

__all__ = [
    "EdgeConstraints",
    "EdgeResultSource",
    "SnowflakeResult",
    "SnowflakeSynthesizer",
    "SplicedEdge",
]


@dataclass
class EdgeConstraints:
    """The CC/DC sets (and Phase-II strategy) attached to one FK edge.

    ``capacity`` caps how many child rows may share one parent key; when
    set, the edge is solved with the registered ``"capacity"`` Phase-II
    strategy.  ``strategy`` names any registered strategy explicitly and
    overrides the capacity-implied default; ``options`` carries extra
    strategy knobs.  ``solver_overrides`` shadows individual
    :class:`SolverConfig` fields (backend, time_limit, mip_gap, …) for
    this edge only.  ``serialize`` opts the edge out of batch scheduling:
    it is always solved alone, in-process, even when it would be
    conflict-free with its layer mates.
    """

    ccs: Sequence[CardinalityConstraint] = ()
    dcs: Sequence[DenialConstraint] = ()
    capacity: Optional[int] = None
    strategy: Optional[str] = None
    options: Mapping[str, object] = field(default_factory=dict)
    solver_overrides: Mapping[str, object] = field(default_factory=dict)
    serialize: bool = False

    def resolved_strategy(self) -> Tuple[str, Dict[str, object]]:
        """The ``(strategy, options)`` pair this edge solves with."""
        options: Dict[str, object] = dict(self.options)
        if self.capacity is not None:
            options.setdefault("max_per_key", self.capacity)
        name = self.strategy
        if name is None:
            name = "capacity" if self.capacity is not None else "coloring"
        return name, options

    def effective_config(self, base: SolverConfig) -> SolverConfig:
        """``base`` with this edge's solver overrides applied."""
        if not self.solver_overrides:
            return base
        overrides: Dict[str, Any] = dict(self.solver_overrides)
        return replace(base, **overrides)


#: The arguments of one edge's solve: extended view, parent relation, FK
#: column, constraint set and config (:func:`solve_edge`'s signature).
EdgeInputs = Tuple[Relation, Relation, str, EdgeConstraints, SolverConfig]


class SplicedEdge(NamedTuple):
    """A previously solved edge, as the parts :meth:`commit_edge` takes.

    ``wall_s``/``solve_s`` are the original solve's timings, reported on
    the splice's ``edge_cached`` event.
    """

    fk_spec: ColumnSpec
    fk_values: np.ndarray
    parent: Relation
    wall_s: float
    solve_s: float


class EdgeResultSource(Protocol):
    """Where :meth:`SnowflakeSynthesizer.solve` finds and stores edges."""

    def get(self, fk: ForeignKey) -> Optional[SplicedEdge]:
        """The stored result for ``fk``, or ``None`` to solve it."""

    def put(self, fk: ForeignKey, step: CExtensionResult) -> None:
        """Store ``fk``'s result, just committed by the traversal."""


@dataclass
class SnowflakeResult:
    """The completed database plus the per-edge solver results.

    ``steps`` holds the edges the traversal solved; ``edges`` lists every
    edge it committed, solved or spliced, in BFS order.
    """

    database: Database
    steps: List[Tuple[ForeignKey, CExtensionResult]] = field(
        default_factory=list
    )
    edges: List[ForeignKey] = field(default_factory=list)


class SnowflakeSynthesizer:
    """Complete every FK column of a snowflake database."""

    def __init__(self, config: Optional[SolverConfig] = None) -> None:
        self.config = config or SolverConfig()
        self.executor = executor_from_config(self.config)

    def _extended_view(
        self,
        database: Database,
        name: str,
        completed: Set[Tuple[str, str]],
    ) -> Relation:
        """``name``'s relation joined with every completed FK target.

        Attributes of transitively completed dimensions are pulled in
        too, enabling CCs that span multiple joins (the paper's step-2
        example over ``Students ⋈ Majors ⋈ Courses``).  The traversal is
        depth-first (matching the order the old recursive formulation
        produced) but joins every reachable relation exactly once: on a
        diamond FK graph — two completed paths into one dimension — the
        shared dimension's attributes appear once instead of colliding,
        and ladders of diamonds stay linear instead of exploding
        exponentially with the number of re-walked paths.
        """
        view = database.relation(name)
        joined = {name}
        stack = [
            fk
            for fk in reversed(database.outgoing(name))
            if (fk.child, fk.column) in completed
        ]
        while stack:
            fk = stack.pop()
            if fk.parent in joined:
                # Second completed path into an already-joined dimension:
                # its attributes are in the view once already, so the
                # duplicate path keeps only its (imputed) FK column.
                continue
            view = self.executor.fk_join(
                view, database.relation(fk.parent), fk.column
            )
            joined.add(fk.parent)
            stack.extend(
                out
                for out in reversed(database.outgoing(fk.parent))
                if (out.child, out.column) in completed
            )
        return view

    @staticmethod
    def commit_edge(
        database: Database,
        fk: ForeignKey,
        fk_spec: ColumnSpec,
        fk_values: np.ndarray,
        r2_hat: Relation,
    ) -> None:
        """Commit an edge result given as its raw parts.

        This is the splice point for :class:`SplicedEdge`: a stored edge
        carries exactly ``(fk column spec, fk value array, completed
        parent relation)``, and committing those parts is byte-identical
        to committing the full solver result they came from.  The FK
        column overlays the child without copying its other columns, on
        either storage backend.
        """
        child = database.relation(fk.child)
        updated_child = child
        if fk.column in child.schema:
            updated_child = child.drop_column(fk.column)
        updated_child = updated_child.with_column(fk_spec, fk_values)
        database.replace_relation(fk.child, updated_child)
        current_parent = database.relation(fk.parent)
        if (
            r2_hat.is_chunked
            and current_parent.is_chunked
            and r2_hat.store.directories == current_parent.store.directories
        ):
            # An unchanged disk-backed parent round-trips through a pool
            # worker as a fresh handle on the *same* store directories —
            # a handle that does not own the backing TemporaryDirectory.
            # Keep the database's own relation object instead, so the
            # store outlives the input database that created it.  (A
            # parent whose own FK was imputed earlier is a composite of
            # its spilled columns and that FK overlay.)
            r2_hat = current_parent
        database.replace_relation(fk.parent, r2_hat)

    def solve(
        self,
        database: Database,
        fact_table: str,
        constraints: Mapping[Tuple[str, str], EdgeConstraints],
        *,
        workers: Optional[int] = None,
        allow_unreachable: bool = False,
        results: Optional[EdgeResultSource] = None,
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
        should_cancel: Optional[Callable[[], bool]] = None,
    ) -> SnowflakeResult:
        """Impute every declared FK, BFS outward from ``fact_table``.

        ``constraints`` maps ``(child, column)`` to that edge's CC/DC
        sets; missing entries mean "no constraints" for the edge.  The
        input ``database`` is never modified: the traversal runs on a
        copy, returned in :attr:`SnowflakeResult.database`, so a failing
        edge leaves the caller's state untouched.

        ``workers`` (default: ``config.workers``) sizes the process pool
        used to solve conflict-free edges of one BFS layer concurrently;
        ``0``/``1`` keeps the traversal fully in-process.  Parallel runs
        are byte-identical to sequential ones.  Declared FK edges the BFS
        cannot reach would silently never be solved, so they raise
        :class:`SchemaError` unless ``allow_unreachable=True`` opts into
        an intentionally partial run.

        ``results`` is an optional :class:`EdgeResultSource`: an edge it
        returns is spliced instead of solved, and every solved edge is
        handed to its ``put`` right after being committed — before its
        ``edge_solved`` event, so a persistent source is a checkpoint
        store.  ``should_cancel`` is polled between edges; when it
        returns true the traversal raises :class:`SynthesisCancelled`.

        ``on_event`` receives ``{"type": "edge_started", ...}`` before
        each edge's solve, ``{"type": "edge_solved", ..., "wall_s",
        "solve_s"}`` as each result is committed (streamed mid-batch on
        parallel runs, via :func:`solve_batch`'s ``on_result`` hook) and
        ``{"type": "edge_cached", ...}`` for each splice.  Every event
        carries ``total_edges`` and the ``cache_hits``/``cache_misses``
        counts so far.  Exceptions from the callback propagate and abort
        the traversal — the transactional copy keeps the caller's
        database intact.
        """
        layers = database.bfs_edge_layers(fact_table)
        reachable = {
            (fk.child, fk.column) for layer in layers for fk in layer
        }
        declared = {
            (fk.child, fk.column) for fk in database.foreign_keys
        }
        # Constraints on a *declared* edge are always legitimate — on an
        # unreachable one they simply go unused in a partial run.
        unknown = set(constraints) - declared
        if unknown:
            raise SchemaError(
                f"constraints reference unknown FK edges {sorted(unknown)}"
            )
        unreached = sorted(declared - reachable)
        if unreached and not allow_unreachable:
            raise SchemaError(
                f"FK edges {unreached} are unreachable from fact table "
                f"{fact_table!r} and would never be imputed; fix the FK "
                "graph (or pass allow_unreachable=True for an "
                "intentionally partial run)"
            )

        if workers is None:
            workers = self.config.workers
        serialized = {
            key for key, ec in constraints.items() if ec.serialize
        }

        total_edges = sum(len(layer) for layer in layers)
        hits = 0
        misses = 0

        def emit(kind: str, fk: ForeignKey, **extra: object) -> None:
            if on_event is None:
                return
            event: Dict[str, object] = {
                "type": kind,
                "edge": f"{fk.child}.{fk.column} -> {fk.parent}",
                "child": fk.child,
                "column": fk.column,
                "parent": fk.parent,
                "total_edges": total_edges,
                "cache_hits": hits,
                "cache_misses": misses,
            }
            event.update(extra)
            on_event(event)

        def check_cancel() -> None:
            if should_cancel is not None and should_cancel():
                raise SynthesisCancelled(
                    f"synthesis cancelled after {hits + misses}/"
                    f"{total_edges} edges"
                )

        work = database.copy()
        result = SnowflakeResult(database=work)
        completed: Set[Tuple[str, str]] = set()

        def edge_constraints(fk: ForeignKey) -> EdgeConstraints:
            return constraints.get((fk.child, fk.column), EdgeConstraints())

        def edge_inputs(fk: ForeignKey) -> EdgeInputs:
            return (
                self._extended_view(work, fk.child, completed),
                work.relation(fk.parent),
                fk.column,
                edge_constraints(fk),
                self.config,
            )

        def commit_solved(fk: ForeignKey, step: CExtensionResult) -> None:
            # Commit, then checkpoint, then announce: whatever sees the
            # event may rely on the edge being stored.
            nonlocal misses
            self.commit_edge(
                work,
                fk,
                step.r1_hat.schema.spec(fk.column),
                step.r1_hat.column(fk.column),
                step.r2_hat,
            )
            completed.add((fk.child, fk.column))
            if results is not None:
                results.put(fk, step)
            misses += 1
            result.steps.append((fk, step))
            emit(
                "edge_solved",
                fk,
                index=hits + misses,
                wall_s=step.report.wall_seconds,
                solve_s=step.report.total_seconds,
                new_parent_tuples=step.phase2.stats.num_new_r2_tuples,
                executor=step.report.executor,
            )

        def commit_nth(
            batch: List[ForeignKey], index: int, step: CExtensionResult
        ) -> None:
            commit_solved(batch[index], step)

        pool: Optional[ProcessPoolExecutor] = None
        try:
            for layer in layers:
                for batch in work.conflict_free_batches(
                    layer, completed, serialize=serialized
                ):
                    # Splicing before the batch mates solve is safe:
                    # batch members never read each other's relations.
                    pending: List[ForeignKey] = []
                    for fk in batch:
                        check_cancel()
                        spliced = None if results is None else results.get(fk)
                        if spliced is None:
                            pending.append(fk)
                            continue
                        self.commit_edge(
                            work,
                            fk,
                            spliced.fk_spec,
                            spliced.fk_values,
                            spliced.parent,
                        )
                        completed.add((fk.child, fk.column))
                        hits += 1
                        emit(
                            "edge_cached",
                            fk,
                            index=hits + misses,
                            wall_s=spliced.wall_s,
                            solve_s=spliced.solve_s,
                        )
                    if len(pending) < 2 or workers < 2:
                        # In-process: solve edge by edge, committing each
                        # before building the next extended view (edges
                        # in one batch never read each other's writes, so
                        # this matches the snapshot semantics below).
                        for fk in pending:
                            check_cancel()
                            emit("edge_started", fk)
                            commit_solved(fk, solve_edge(*edge_inputs(fk)))
                        continue
                    # Fan out: every edge solves against the batch-start
                    # snapshot; results commit in BFS order as they land.
                    # Workers forked from here on inherit the parent's
                    # modules: load the ILP backend of every edge with CCs
                    # once now, not in each worker's first solve.  Under
                    # spawn/forkserver the workers gain nothing from it.
                    for backend in sorted(
                        {
                            ec.effective_config(self.config).backend
                            for ec in map(edge_constraints, pending)
                            if ec.ccs
                        }
                    ):
                        preload_backend(backend)
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=workers)
                    payloads = []
                    for fk in pending:
                        emit("edge_started", fk)
                        payloads.append(edge_payload(*edge_inputs(fk)))
                    solve_batch(
                        payloads, pool, on_result=partial(commit_nth, pending)
                    )
        finally:
            if pool is not None:
                pool.shutdown()
        result.edges = [fk for layer in layers for fk in layer]
        return result
