"""Which program functions the traced run wraps, and the per-layer metrics.

Layers are named after the program's modules.  Every wrap names the
module (or class) binding its caller actually looks up at call time, so
the wrapper sees every call on the ``synthesize()`` and service paths.

Each per-layer metric records the end-to-end metric it should move and
on which workloads (``moves``); ``run.py`` prints that next to the value.
Unless a metric says otherwise it is a per-op figure: summed over the
traced timed ops, in every process, and divided by their number.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from tracer import Span, Tracer, self_times

#: Layer names, in pipeline order; a span's layer is the longest of
#: these that prefixes its name.
LAYERS = (
    "spec",
    "relational",
    "core.snowflake",
    "core.parallel_snowflake",
    "core.synthesizer",
    "phase1",
    "solver",
    "phase2",
    "core.metrics",
    "service",
)

_SOLVE_PATH = (
    "spec",
    "relational",
    "core.snowflake",
    "core.synthesizer",
    "phase1",
    "solver",
    "phase2",
    "core.metrics",
)

#: The layers each workload runs; the traced run must see a span in each.
#: resynth's one re-solved edge has a single CC, which Algorithm 2 serves
#: without the ILP, so it never reaches the solver.
WORKLOAD_LAYERS = {
    "census": _SOLVE_PATH,
    "wide_star": _SOLVE_PATH + ("core.parallel_snowflake",),
    "resynth": tuple(layer for layer in _SOLVE_PATH if layer != "solver")
    + ("service",),
}


def layer_of(name: str) -> Optional[str]:
    matches = [layer for layer in LAYERS if name.startswith(layer + ".")]
    return max(matches, key=len, default=None)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def install(tracer: Tracer) -> None:
    """Wrap every traced function; :meth:`Tracer.uninstall` undoes it."""
    import repro.core.metrics as metrics
    import repro.core.parallel_snowflake as parallel_snowflake
    import repro.core.snowflake as snowflake
    import repro.core.synthesizer as synthesizer
    import repro.phase1.hybrid as hybrid
    import repro.phase1.ilp_completion as ilp_completion
    import repro.phase2.fk_assignment as fk_assignment
    import repro.relational.join as join
    import repro.service.engine as engine
    import repro.service.jobs as jobs
    import repro.spec.io as spec_io
    from repro.constraints.hasse import HasseForest
    from repro.constraints.relationships import RelationshipTable
    from repro.relational.database import Database
    from repro.relational.relation import Relation
    from repro.service.cache import EdgeCache
    from repro.spec.model import SynthesisSpec

    wrap = tracer.wrap

    # spec
    def spec_bytes(args, kwargs, result, attrs):
        attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))

    wrap(spec_io, "load_spec", "spec.load_spec", after=spec_bytes)
    wrap(jobs, "load_spec", "spec.load_spec", after=spec_bytes)
    wrap(SynthesisSpec, "to_dict", "spec.to_dict")
    wrap(SynthesisSpec, "to_database", "spec.to_database")
    wrap(engine, "edge_fingerprints", "spec.edge_fingerprints")

    # relational
    def join_rows(args, kwargs, result, attrs):
        attrs["rows"] = len(result)

    def csv_bytes(args, kwargs, result, attrs):
        attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))

    wrap(join, "fk_join", "relational.fk_join", after=join_rows)
    wrap(Database, "copy", "relational.database_copy")
    wrap(Relation, "content_hash", "relational.content_hash")
    wrap(jobs, "write_csv", "relational.write_csv", after=csv_bytes)

    # core.snowflake and core.parallel_snowflake
    wrap(snowflake, "solve_edge", "core.snowflake.solve_edge")
    wrap(engine, "solve_edge", "core.snowflake.solve_edge")
    wrap(
        snowflake.SnowflakeSynthesizer,
        "commit_edge",
        "core.snowflake.commit_edge",
    )

    def count_batches(original):
        def batches(*args, **kwargs):
            for batch in original(*args, **kwargs):
                tracer.event("core.snowflake.batch", edges=len(batch))
                yield batch

        return batches

    tracer.patch(Database, "conflict_free_batches", count_batches)

    def pool_size(args, kwargs):
        payloads = _arg(args, kwargs, 0, "payloads")
        executor = args[1] if len(args) > 1 else kwargs.get("executor")
        if executor is None or len(payloads) < 2:
            return {"pooled": 0, "workers": 0}
        return {"pooled": len(payloads), "workers": executor._max_workers}

    for owner in (snowflake, engine):
        wrap(
            owner,
            "solve_batch",
            "core.parallel_snowflake.solve_batch",
            before=pool_size,
        )
    wrap(
        parallel_snowflake,
        "solve_edge_payload",
        "core.parallel_snowflake.solve_edge_payload",
    )

    # core.synthesizer
    wrap(
        synthesizer.CExtensionSolver,
        "solve",
        "core.synthesizer.solve",
        edge_of=lambda args, kwargs: kwargs.get("fk_column"),
    )

    # phase1
    def phase1_counts(args, kwargs, result, attrs):
        attrs["s1"] = result.stats.num_s1
        attrs["s2"] = result.stats.num_s2
        attrs["invalid_rows"] = result.stats.invalid_rows

    wrap(synthesizer, "run_phase1", "phase1.run_phase1", after=phase1_counts)
    wrap(RelationshipTable, "build", "phase1.pairwise")
    wrap(HasseForest, "build", "phase1.pairwise")
    wrap(hybrid, "complete_with_hasse", "phase1.complete_with_hasse")
    wrap(hybrid, "complete_with_ilp", "phase1.complete_with_ilp")

    # solver
    def model_size(args, kwargs):
        model = _arg(args, kwargs, 0, "model")
        return {
            "variables": model.num_variables,
            "constraints": model.num_constraints,
        }

    def solver_status(args, kwargs, result, attrs):
        attrs["nonoptimal"] = int(result.status.value != "optimal")

    wrap(
        ilp_completion,
        "solve_model",
        "solver.solve_model",
        before=model_size,
        after=solver_status,
    )

    # phase2
    def phase2_counts(args, kwargs, result, attrs):
        attrs["skipped"] = result.stats.num_skipped

    tracer.patch(
        synthesizer,
        "phase2_strategy",
        lambda original: lambda name: tracer.wrapper(
            original(name), "phase2.strategy", after=phase2_counts
        ),
    )
    wrap(fk_assignment, "partition_by_combo", "phase2.partition_by_combo")

    def graph_size(args, kwargs, result, attrs):
        attrs["vertices"] = result.num_vertices
        attrs["edges"] = result.num_edges

    def uncolored(args, kwargs):
        graph, coloring = args[0], args[1]
        return {"attempted": sum(v not in coloring for v in graph.vertices)}

    def colored(args, kwargs, result, attrs):
        attrs["hits"] = attrs["attempted"] - len(result[1])

    wrap(
        fk_assignment,
        "build_conflict_graph",
        "phase2.build_conflict_graph",
        after=graph_size,
    )
    wrap(
        fk_assignment,
        "coloring_lf",
        "phase2.coloring_lf",
        before=uncolored,
        after=colored,
    )
    wrap(
        fk_assignment, "solve_invalid_tuples", "phase2.solve_invalid_tuples"
    )

    # core.metrics
    wrap(synthesizer, "evaluate", "core.metrics.evaluate")
    wrap(metrics, "dc_error", "core.metrics.dc_error")
    wrap(metrics, "cc_errors", "core.metrics.cc_errors")

    # service
    def cache_hit(args, kwargs, result, attrs):
        attrs["hit"] = int(result is not None)

    def entry_bytes(args, kwargs, result, attrs):
        cache, fingerprint = args[0], _arg(args, kwargs, 1, "fingerprint")
        if cache.directory is not None:
            attrs["bytes"] = _tree_bytes(cache.directory / fingerprint)

    wrap(jobs.JobManager, "submit_text", "service.submit_text")
    wrap(jobs, "run_spec", "service.run_spec")
    wrap(EdgeCache, "get", "service.cache.get", after=cache_hit)
    wrap(EdgeCache, "put", "service.cache.put", after=entry_bytes)


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: The end-to-end metric this one should move, and on which workloads.
    moves: str


_CW = "census wide_star"
_PER_LAYER = [
    ("spec.load_spec.busy_s", "s", "lower", "setup_s, all"),
    ("spec.to_dict.busy_s", "s", "lower", "synth_s, resynth"),
    ("spec.text_bytes", "bytes", "lower", "synth_s, resynth"),
    ("spec.to_database.busy_s", "s", "lower", "synth_s, resynth"),
    ("spec.edge_fingerprints.busy_s", "s", "lower", "synth_s, resynth"),
    ("relational.fk_join.calls", "count", "lower", "synth_s, wide_star"),
    ("relational.fk_join.rows", "rows", "lower", "synth_s, wide_star"),
    ("relational.fk_join.busy_s", "s", "lower", "synth_s, wide_star"),
    ("relational.database_copy.busy_s", "s", "lower", "synth_s, wide_star"),
    ("relational.content_hash.busy_s", "s", "lower", "synth_s, resynth"),
    ("relational.write_csv.busy_s", "s", "lower", "synth_s, resynth"),
    ("relational.write_csv.bytes", "bytes", "lower", "synth_s, resynth"),
    ("core.snowflake.edges", "count", "lower", "synth_s, wide_star"),
    ("core.snowflake.batches", "count", "lower", "synth_s, wide_star"),
    ("core.snowflake.serial_s", "s", "lower", "synth_s, wide_star"),
    (
        "core.snowflake.commit_edge.busy_s",
        "s",
        "lower",
        "synth_s, wide_star resynth",
    ),
    (
        "core.parallel_snowflake.pooled_edges",
        "count",
        "higher",
        "synth_s, wide_star",
    ),
    (
        "core.parallel_snowflake.pool_wait_s",
        "s",
        "lower",
        "synth_s, wide_star",
    ),
    (
        "core.parallel_snowflake.worker_busy_s",
        "s",
        "lower",
        "synth_s, wide_star",
    ),
    (
        "core.parallel_snowflake.pool_utilization",
        "ratio",
        "higher",
        "synth_s, wide_star",
    ),
    ("core.synthesizer.solve.calls", "count", "lower", f"synth_s, {_CW}"),
    ("core.synthesizer.solve.busy_s", "s", "lower", f"synth_s, {_CW}"),
    ("core.synthesizer.solve.self_s", "s", "lower", f"synth_s, {_CW}"),
    ("phase1.run_phase1.busy_s", "s", "lower", "synth_s, wide_star"),
    ("phase1.run_phase1.self_s", "s", "lower", "synth_s, wide_star"),
    ("phase1.run_phase1.fact_self_s", "s", "lower", "synth_s, wide_star"),
    ("phase1.pairwise.busy_s", "s", "lower", "synth_s, census"),
    ("phase1.complete_with_hasse.busy_s", "s", "lower", "synth_s, census"),
    ("phase1.complete_with_ilp.busy_s", "s", "lower", "synth_s, census"),
    ("phase1.ccs_hasse", "count", "higher", "max_cc_error, census"),
    ("phase1.ccs_ilp", "count", "lower", "max_cc_error, census"),
    ("phase1.invalid_rows", "rows", "lower", "max_cc_error, census"),
    ("solver.solve_model.calls", "count", "lower", "synth_s, census"),
    ("solver.solve_model.busy_s", "s", "lower", "synth_s, census"),
    ("solver.variables", "count", "lower", "synth_s, census"),
    ("solver.constraints", "count", "lower", "synth_s, census"),
    (
        "solver.first_call_s",
        "s",
        "lower",
        "first_op_s, census; synth_s, wide_star",
    ),
    (
        "solver.nonoptimal",
        "count",
        "lower",
        "max_cc_error and op_fail_ratio, all",
    ),
    ("phase2.strategy.busy_s", "s", "lower", f"synth_s, {_CW}"),
    ("phase2.partition_by_combo.busy_s", "s", "lower", f"synth_s, {_CW}"),
    ("phase2.build_conflict_graph.calls", "count", "lower", f"synth_s, {_CW}"),
    ("phase2.build_conflict_graph.busy_s", "s", "lower", f"synth_s, {_CW}"),
    ("phase2.graph.vertices", "count", "lower", f"synth_s, {_CW}"),
    ("phase2.graph.edges", "count", "lower", f"synth_s, {_CW}"),
    ("phase2.coloring_lf.calls", "count", "lower", f"synth_s, {_CW}"),
    ("phase2.coloring_lf.busy_s", "s", "lower", f"synth_s, {_CW}"),
    ("phase2.solve_invalid_tuples.busy_s", "s", "lower", f"synth_s, {_CW}"),
    ("phase2.coloring.skipped", "count", "lower", "fresh_parent_rows, census"),
    (
        "phase2.coloring.candidate_hit_ratio",
        "ratio",
        "higher",
        "fresh_parent_rows, census",
    ),
    ("core.metrics.evaluate.busy_s", "s", "lower", f"synth_s, {_CW}"),
    ("core.metrics.dc_error.busy_s", "s", "lower", f"synth_s, {_CW}"),
    ("core.metrics.cc_errors.busy_s", "s", "lower", f"synth_s, {_CW}"),
    ("service.job.queue_s", "s", "lower", "synth_s, resynth"),
    ("service.run_spec.busy_s", "s", "lower", "synth_s, resynth"),
    ("service.run_spec.self_s", "s", "lower", "synth_s, resynth"),
    ("service.cache.hits", "count", "higher", "synth_s, resynth"),
    ("service.cache.misses", "count", "lower", "synth_s, resynth"),
    ("service.cache.hit_ratio", "ratio", "higher", "synth_s, resynth"),
    ("service.cache.get.busy_s", "s", "lower", "synth_s, resynth"),
    ("service.cache.put.busy_s", "s", "lower", "synth_s, resynth"),
    ("service.cache.put.bytes", "bytes", "lower", "synth_s, resynth"),
    ("process.import_s", "s", "lower", "setup_s, all"),
]
#: Share of op wall time spent in each layer's own code (self time in
#: the benchmark process, all threads); ``unattributed`` is the rest.
_SHARES = [
    (f"share.{layer}", "ratio", "lower", "synth_s, all") for layer in LAYERS
] + [("share.unattributed", "ratio", "lower", "trace coverage, all")]
_TRACE = [
    ("trace.synth_s", "s", "lower", "tracing overhead, all"),
    ("trace.untraced_synth_s", "s", "lower", "tracing overhead, all"),
    ("trace.overhead_ratio", "ratio", "lower", "tracing overhead, all"),
]

PER_LAYER: Tuple[Metric, ...] = tuple(
    Metric(*row) for row in _PER_LAYER + _SHARES + _TRACE
)


class _Ops:
    """Span sums over the traced timed ops, per op."""

    def __init__(self, spans: Sequence[Span], ops: Sequence[int]) -> None:
        self.n = max(1, len(ops))
        wanted = set(ops)
        self.selfs = self_times(spans)
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        for span in spans:
            if span.op in wanted:
                self.by_name[span.name].append(span)

    def of(self, name: str, where=None) -> List[Span]:
        spans = self.by_name.get(name, [])
        return [s for s in spans if where(s)] if where else spans

    def busy(self, name: str, where=None) -> float:
        return sum(s.duration for s in self.of(name, where)) / self.n

    def self_s(self, name: str, where=None) -> float:
        spans = self.of(name, where)
        return sum(self.selfs[s.span_id] for s in spans) / self.n

    def calls(self, name: str) -> float:
        return len(self.of(name)) / self.n

    def attr(self, name: str, key: str, where=None) -> float:
        spans = self.of(name, where)
        return sum(float(s.attrs.get(key, 0)) for s in spans) / self.n


def _first_call_s(spans: Iterable[Span]) -> float:
    """Mean over processes of each one's first ``solve_model`` call."""
    first: Dict[int, Span] = {}
    for span in spans:
        if span.name != "solver.solve_model":
            continue
        if span.pid not in first or span.start < first[span.pid].start:
            first[span.pid] = span
    if not first:
        return 0.0
    return sum(s.duration for s in first.values()) / len(first)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    spans: List[Span],
    ops: Sequence[int],
    op_walls: Sequence[float],
    main_pid: int,
    fact_columns: Sequence[str],
    import_s: float,
    untraced_walls: Sequence[float],
) -> Dict[str, float]:
    """Every per-layer metric from one traced run's spans.

    ``ops`` are the traced timed ops and ``op_walls`` their wall times;
    spans outside any op (``op is None``) are the run's set-up.
    """
    o = _Ops(spans, ops)

    def in_main(span):
        return span.pid == main_pid

    def in_worker(span):
        return span.pid != main_pid

    def pooled(span):
        return bool(span.attrs.get("pooled"))

    def on_fact_edge(span):
        return span.edge in fact_columns

    out: Dict[str, float] = {}
    setup_loads = [
        s for s in spans if s.name == "spec.load_spec" and s.op is None
    ]
    out["spec.load_spec.busy_s"] = sum(s.duration for s in setup_loads)
    loads = [s for s in spans if s.name == "spec.load_spec"]
    out["spec.text_bytes"] = _ratio(
        sum(float(s.attrs["bytes"]) for s in loads), len(loads)
    )
    for name in ("to_dict", "to_database", "edge_fingerprints"):
        out[f"spec.{name}.busy_s"] = o.busy(f"spec.{name}")

    out["relational.fk_join.calls"] = o.calls("relational.fk_join")
    out["relational.fk_join.rows"] = o.attr("relational.fk_join", "rows")
    out["relational.fk_join.busy_s"] = o.busy("relational.fk_join")
    for name in ("database_copy", "content_hash", "write_csv"):
        out[f"relational.{name}.busy_s"] = o.busy(f"relational.{name}")
    out["relational.write_csv.bytes"] = o.attr(
        "relational.write_csv", "bytes"
    )

    out["core.snowflake.edges"] = o.calls("core.snowflake.commit_edge")
    out["core.snowflake.batches"] = o.calls("core.snowflake.batch")
    out["core.snowflake.serial_s"] = o.busy(
        "core.snowflake.solve_edge", in_main
    )
    out["core.snowflake.commit_edge.busy_s"] = o.busy(
        "core.snowflake.commit_edge"
    )
    batch = "core.parallel_snowflake.solve_batch"
    out["core.parallel_snowflake.pooled_edges"] = o.attr(batch, "pooled")
    out["core.parallel_snowflake.pool_wait_s"] = o.busy(batch, pooled)
    worker_busy = o.busy(
        "core.parallel_snowflake.solve_edge_payload", in_worker
    )
    out["core.parallel_snowflake.worker_busy_s"] = worker_busy
    capacity = sum(
        s.duration * s.attrs["workers"] for s in o.of(batch, pooled)
    )
    out["core.parallel_snowflake.pool_utilization"] = _ratio(
        worker_busy * o.n, capacity
    )

    out["core.synthesizer.solve.calls"] = o.calls("core.synthesizer.solve")
    out["core.synthesizer.solve.busy_s"] = o.busy("core.synthesizer.solve")
    out["core.synthesizer.solve.self_s"] = o.self_s("core.synthesizer.solve")

    out["phase1.run_phase1.busy_s"] = o.busy("phase1.run_phase1")
    out["phase1.run_phase1.self_s"] = o.self_s("phase1.run_phase1")
    out["phase1.run_phase1.fact_self_s"] = o.self_s(
        "phase1.run_phase1", on_fact_edge
    )
    for name in ("pairwise", "complete_with_hasse", "complete_with_ilp"):
        out[f"phase1.{name}.busy_s"] = o.busy(f"phase1.{name}")
    out["phase1.ccs_hasse"] = o.attr("phase1.run_phase1", "s1")
    out["phase1.ccs_ilp"] = o.attr("phase1.run_phase1", "s2")
    out["phase1.invalid_rows"] = o.attr("phase1.run_phase1", "invalid_rows")

    out["solver.solve_model.calls"] = o.calls("solver.solve_model")
    out["solver.solve_model.busy_s"] = o.busy("solver.solve_model")
    out["solver.variables"] = o.attr("solver.solve_model", "variables")
    out["solver.constraints"] = o.attr("solver.solve_model", "constraints")
    out["solver.first_call_s"] = _first_call_s(spans)
    out["solver.nonoptimal"] = o.attr("solver.solve_model", "nonoptimal")

    for name in (
        "strategy",
        "partition_by_combo",
        "build_conflict_graph",
        "coloring_lf",
        "solve_invalid_tuples",
    ):
        out[f"phase2.{name}.busy_s"] = o.busy(f"phase2.{name}")
    graph = "phase2.build_conflict_graph"
    out["phase2.build_conflict_graph.calls"] = o.calls(graph)
    out["phase2.graph.vertices"] = o.attr(graph, "vertices")
    out["phase2.graph.edges"] = o.attr(graph, "edges")
    out["phase2.coloring_lf.calls"] = o.calls("phase2.coloring_lf")
    out["phase2.coloring.skipped"] = o.attr("phase2.strategy", "skipped")
    out["phase2.coloring.candidate_hit_ratio"] = _ratio(
        o.attr("phase2.coloring_lf", "hits"),
        o.attr("phase2.coloring_lf", "attempted"),
    )

    for name in ("evaluate", "dc_error", "cc_errors"):
        out[f"core.metrics.{name}.busy_s"] = o.busy(f"core.metrics.{name}")

    out["service.job.queue_s"] = o.attr("bench.op", "queue_s")
    out["service.run_spec.busy_s"] = o.busy("service.run_spec")
    out["service.run_spec.self_s"] = o.self_s("service.run_spec")
    hits = o.attr("service.cache.get", "hit")
    gets = o.calls("service.cache.get")
    out["service.cache.hits"] = hits
    out["service.cache.misses"] = gets - hits
    out["service.cache.hit_ratio"] = _ratio(hits, gets)
    out["service.cache.get.busy_s"] = o.busy("service.cache.get")
    out["service.cache.put.busy_s"] = o.busy("service.cache.put")
    out["service.cache.put.bytes"] = o.attr("service.cache.put", "bytes")
    out["process.import_s"] = import_s

    wall = sum(op_walls)
    by_layer: Dict[str, float] = defaultdict(float)
    for name, named in o.by_name.items():
        layer = layer_of(name)
        if layer is not None:
            by_layer[layer] += sum(
                o.selfs[s.span_id] for s in named if in_main(s)
            )
    for layer in LAYERS:
        out[f"share.{layer}"] = _ratio(by_layer[layer], wall)
    out["share.unattributed"] = 1.0 - _ratio(sum(by_layer.values()), wall)

    traced = median(op_walls)
    untraced = median(untraced_walls)
    out["trace.synth_s"] = traced
    out["trace.untraced_synth_s"] = untraced
    out["trace.overhead_ratio"] = traced / untraced
    return out


def layer_table(spans: List[Span], ops: Sequence[int], main_pid: int):
    """The flat per-span table: calls, busy and self time per op, and
    whether the spans came from the benchmark process, pool workers or
    both."""
    o = _Ops(spans, ops)
    rows = []
    for name in sorted(o.by_name):
        pids = {span.pid for span in o.by_name[name]}
        if pids == {main_pid}:
            where = "main"
        elif main_pid in pids:
            where = "main+workers"
        else:
            where = "workers"
        layer = layer_of(name) or name.split(".")[0]
        rows.append(
            (layer, name, o.calls(name), o.busy(name), o.self_s(name), where)
        )
    return rows
