"""The cache-aware synthesis engine behind the job server.

:func:`run_spec` executes a :class:`SynthesisSpec` exactly like
:func:`repro.spec.synthesize` — it runs the same traversal,
:meth:`SnowflakeSynthesizer.solve`, so output is byte-identical — but
hands that traversal an :class:`~repro.service.cache.EdgeCache` as its
edge-result source:

1. every edge is fingerprinted statically
   (:func:`repro.spec.fingerprint.edge_fingerprints`);
2. a hit is spliced straight into the working database
   (:meth:`SnowflakeSynthesizer.commit_edge`) and its cached report is
   replayed;
3. a miss solves normally and the traversal checkpoints the result into
   the cache before announcing it — which is what makes a killed run
   resumable: the re-run hits every edge the first run completed.

Editing a spec therefore re-solves exactly the dirty read-closure: an
edge's fingerprint changes iff its config or any upstream input did.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

# Unused here; kept bound because perfbench/probes.py patches these names.
from repro.core.parallel_snowflake import solve_batch as solve_batch
from repro.core.parallel_snowflake import solve_edge as solve_edge
from repro.core.snowflake import (
    EdgeConstraints,
    SnowflakeSynthesizer,
    SplicedEdge,
)
from repro.core.synthesizer import CExtensionResult
from repro.errors import SynthesisCancelled
from repro.relational.database import ForeignKey
from repro.service.cache import EdgeCache
from repro.spec.api import (
    EdgeReport,
    SynthesisResult,
    edge_constraint_map,
    edge_report,
    spill_guard,
    synthesis_result,
)
from repro.spec.fingerprint import edge_fingerprints
from repro.spec.model import SynthesisSpec

__all__ = ["SynthesisCancelled", "run_spec"]


class _CachedEdges:
    """An :class:`EdgeCache` seen as the traversal's edge-result source,
    keyed by the spec's edge fingerprints."""

    def __init__(
        self,
        cache: EdgeCache,
        fingerprints: Mapping[Tuple[str, str], str],
        constraints: Mapping[Tuple[str, str], EdgeConstraints],
    ) -> None:
        self.cache = cache
        self.fingerprints = fingerprints
        self.constraints = constraints
        #: The replayed report of every edge served from the cache.
        self.hits: Dict[Tuple[str, str], EdgeReport] = {}

    def get(self, fk: ForeignKey) -> Optional[SplicedEdge]:
        key = (fk.child, fk.column)
        entry = self.cache.get(self.fingerprints[key])
        if entry is None:
            return None
        report = EdgeReport.from_payload(entry.report, cache_hit=True)
        self.hits[key] = report
        return SplicedEdge(
            entry.fk_spec,
            entry.fk_values,
            entry.parent,
            wall_s=report.wall_seconds,
            solve_s=report.total_seconds,
        )

    def put(self, fk: ForeignKey, step: CExtensionResult) -> None:
        key = (fk.child, fk.column)
        report = edge_report(
            fk, step, self.constraints.get(key, EdgeConstraints())
        )
        self.cache.put(
            self.fingerprints[key],
            step.r1_hat.schema.spec(fk.column),
            step.r1_hat.column(fk.column),
            step.r2_hat,
            report.as_payload(),
        )


def run_spec(
    spec: SynthesisSpec,
    *,
    cache: Optional[EdgeCache] = None,
    on_event: Optional[Callable[[Dict[str, object]], None]] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
) -> SynthesisResult:
    """Synthesize ``spec``, splicing cached edges and caching new ones.

    Byte-identical to :func:`repro.spec.synthesize` whatever mix of hits
    and misses the cache serves.  ``on_event`` receives the traversal's
    progress stream — ``edge_started`` / ``edge_solved`` for misses plus
    ``edge_cached`` for splices, each carrying ``cache_hits`` /
    ``cache_misses`` counters so far.  The returned result's
    :attr:`~repro.spec.api.SynthesisResult.steps` holds solver internals
    for *solved* edges only; cached edges appear in ``edges`` with
    ``cache_hit=True`` and their original timings.  ``should_cancel`` is
    polled between edges and raises :class:`SynthesisCancelled`.

    Aborts (failures *and* cancellations) clean up any spill
    directories this run created under the spec's ``storage_dir``; the
    cache's per-edge checkpoints are unaffected.
    """
    spec.validate()
    with spill_guard(spec):
        database = spec.to_database()
        constraints = edge_constraint_map(spec)
        results: Optional[_CachedEdges] = None
        if cache is not None:
            results = _CachedEdges(
                cache, edge_fingerprints(spec, database), constraints
            )
        flake = SnowflakeSynthesizer(spec.options).solve(
            database,
            spec.fact(),
            constraints,
            results=results,
            on_event=on_event,
            should_cancel=should_cancel,
        )
    return synthesis_result(
        spec, flake, constraints, {} if results is None else results.hits
    )
