"""The repository's benchmark of record.

Run from the root of a checkout::

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 \\
        --trace 0

Workloads (closed loop, one client, one op at a time):

* ``census`` — ``repro.spec.synthesize`` on the paper's two-table
  C-Extension (Phase I, Phase II and the evaluator, no pool);
* ``wide_star`` — ``synthesize`` on an 11-relation snowflake with
  ``workers=2`` (traversal, extended-view joins, the process pool);
* ``resynth`` — the wide_star spec served by an in-process
  ``repro.service.jobs.JobManager`` with its cache on disk; each op
  submits a leaf-edge CC edit not seen before in the run (8 cache hits,
  1 miss).

The program only ever receives the generated spec file.  With
``--trace 0`` the run reports the end-to-end metrics, measured from the
outside.  On a shared host the same op takes up to twice as long while
other tenants are busy, so every op and every set-up is followed by a
pass of a fixed reference kernel (``reference.py``): ``synth_ref_s`` and
``setup_s`` divide each op's and set-up's wall time by the mean of the
passes just before and after it, and multiply by a pass's nominal
time.  With ``--trace 1`` it wraps each layer's public functions (see
``probes.py``), reports the per-layer metrics and writes a Chrome
trace-event file and a flat per-layer table under ``.perfbench_out/``.

Every run checks its outputs outside the timed region: exactly 0 DC
error on every edge, the same output digest for repeats of the same op,
8 hits and 1 miss per resynth job, and the last resynth op identical to
a cold ``synthesize()`` of its spec.  A failed check counts its op as
failed and makes the command exit with status 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import probes
import workloads
from reference import Reference
from tracer import Tracer, chrome_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("census", "wide_star", "resynth")
#: Fresh interpreters started per run to time set-up; the first of them
#: also times the first op.  A resynth set-up includes the cold job that
#: fills the cache, so it gets fewer.
SETUP_REPEATS = {"census": 9, "wide_star": 9, "resynth": 3}
CHILD_TIMEOUT_S = 90
#: Every resynth op re-solves the edited leaf edge and splices the rest.
RESYNTH_HITS_MISSES = (8, 1)
#: Rounds of file work in each reference pass: resynth's jobs spend
#: about a quarter of their time in the kernel writing results and cache
#: entries, and six rounds give the pass about that share too.
FILE_ROUNDS = {"census": 0, "wide_star": 0, "resynth": 6}

#: The end-to-end metrics, as printed: name -> unit.  ``synth_s``,
#: ``first_op_s`` and ``setup_wall_s`` are wall times as measured;
#: ``synth_ref_s`` and ``setup_s`` divide them by the reference passes
#: next to them and multiply by a pass's nominal time.  Only the
#: scaled ones are in ``BENCHMARK.json``: on a shared host the raw ones
#: also measure how busy the other tenants were.
END_TO_END = {
    "synth_s": "s",
    "synth_ref_s": "s",
    "first_op_s": "s",
    "setup_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "max_cc_error": "ratio",
    "mean_cc_error": "ratio",
    "fresh_parent_rows": "rows",
    "op_fail_ratio": "ratio",
}


def load_benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Output digests and checks (never inside the timed region).


def database_digest(database) -> str:
    """SHA-256 over every relation: name, schema and column values."""
    import numpy as np

    digest = hashlib.sha256()
    for name in database.relation_names:
        relation = database.relation(name)
        digest.update(f"<{name}|{relation.schema.key}>".encode())
        for spec in relation.schema:
            column = relation.column(spec.name)
            digest.update(f"|{spec.name}:{spec.dtype.value}|".encode())
            if column.dtype == object:
                text = "\x1f".join(map(repr, column.tolist()))
                digest.update(text.encode())
            else:
                values = np.ascontiguousarray(column).astype("<i8")
                digest.update(values.tobytes())
    return digest.hexdigest()


def csv_digest(result_dir: Path, names) -> str:
    """SHA-256 over a job's result CSVs, in relation order."""
    digest = hashlib.sha256()
    for name in names:
        digest.update(f"<{name}>".encode())
        digest.update((result_dir / f"{name}.csv").read_bytes())
    return digest.hexdigest()


def load_job_database(result_dir: Path, like):
    """A job's result CSVs as a Database shaped like ``like``."""
    from repro.relational.csvio import read_csv
    from repro.relational.database import Database

    database = Database()
    for name in like.relation_names:
        schema = like.relation(name).schema
        database.add_relation(
            name, read_csv(result_dir / f"{name}.csv", schema)
        )
    for fk in like.foreign_keys:
        database.add_foreign_key(fk.child, fk.column, fk.parent)
    return database


def edge_errors(spec, database) -> Tuple[List[float], List[float]]:
    """``(DC error per edge, CC errors over all edges)`` of ``database``,
    from the benchmark's own ``repro.core.metrics.evaluate`` call."""
    from repro.core.metrics import evaluate

    dc, cc = [], []
    for edge in spec.edges:
        report = evaluate(
            database.relation(edge.child),
            database.relation(edge.parent),
            edge.column,
            edge.ccs,
            edge.dcs,
        )
        dc.append(report.dc_error)
        cc.extend(report.per_cc)
    return dc, cc


def fresh_parent_rows(spec, database) -> int:
    """Parent tuples Phase II minted, over all relations."""
    inputs = spec.to_database()
    return sum(
        len(database.relation(name)) - len(inputs.relation(name))
        for name in inputs.relation_names
    )


# ---------------------------------------------------------------------------
# One workload's set-up and op.


class Session:
    """A workload set up in this process, ready to run ops."""

    def __init__(self, workload: str, spec_path: Path, work: Path) -> None:
        from repro.spec import io as spec_io

        self.workload = workload
        self.spec = spec_io.load_spec(spec_path)
        self.manager = None
        self.next_edit = 1
        self.kept_job: Optional[Path] = None
        if workload == "resynth":
            from repro.service.jobs import JobManager

            self.manager = JobManager(
                work / "jobs", cache_dir=work / "cache"
            )
            # The cold job that populates the cache.
            self.keep_only(self.submit(self.spec, expect=None))

    def submit(self, spec, expect: Optional[Tuple[int, int]]) -> dict:
        """Submit a job and wait for it; returns its final status."""
        job_id = self.manager.submit(spec)
        status = self.manager.wait(job_id, timeout=CHILD_TIMEOUT_S)
        if status["state"] != "done":
            raise RuntimeError(
                f"job {job_id} {status['state']}: {status.get('error')}"
            )
        got = (status["cache_hits"], status["cache_misses"])
        if expect is not None and got != expect:
            raise RuntimeError(
                f"job {job_id} reported (hits, misses) {got}, "
                f"expected {expect}"
            )
        return status

    def prepare(self):
        """The next op's input, built outside the timed region."""
        if self.workload != "resynth":
            return self.spec
        self.next_edit += 1
        return workloads.with_leaf_edit(self.spec, self.next_edit - 1)

    def run(self, op_input):
        """One op: a ``synthesize()`` call, or one job submitted and
        waited for."""
        if self.workload != "resynth":
            import repro.spec

            return repro.spec.synthesize(op_input)
        return self.submit(op_input, expect=RESYNTH_HITS_MISSES)

    def result_dir(self, status: dict) -> Path:
        return self.manager.jobs_dir / str(status["id"]) / "result"

    def digest(self, output) -> str:
        if self.workload != "resynth":
            return database_digest(output.database)
        names = [relation.name for relation in self.spec.relations]
        return csv_digest(self.result_dir(output), names)

    def keep_only(self, status: dict) -> None:
        """Delete the job directory of the op before ``status``'s.

        Only the last op's result is checked after the loop; deleting
        the others at once, outside the timed region, keeps one run's
        files from being written back to disk and slowing later runs.
        """
        if self.kept_job is not None:
            shutil.rmtree(self.kept_job)
        self.kept_job = self.manager.jobs_dir / str(status["id"])

    def close(self) -> None:
        if self.manager is not None:
            self.manager.close()


def new_reference(workload: str, work: Path) -> Reference:
    return Reference(FILE_ROUNDS[workload], work / "reference")


def child_main(args) -> int:
    """A fresh interpreter: set up and say so; with ``--first-op``, time
    the first op and take the peak resident set."""
    session = Session(args.workload, Path(args.spec), Path(args.work))
    print("READY", flush=True)
    sample = {}
    if args.first_op:
        op_input = session.prepare()
        started = time.perf_counter()
        output = session.run(op_input)
        sample["first_op_s"] = time.perf_counter() - started
        sample["peak_rss_mb"] = peak_rss_mb()
        sample["digest"] = session.digest(output)
    print(json.dumps(sample), flush=True)
    session.close()
    return 0


def fresh_setups(
    workload: str, spec_path: Path, work: Path, reference: Reference
) -> List[dict]:
    """Set up in :data:`SETUP_REPEATS` fresh interpreters, one after
    another, with a reference pass before and after each; the first
    also runs the first op.  ``setup_wall_s`` runs from process start to
    the child's READY line, as the parent sees it; ``setup_s`` is that
    over the mean of the passes around it, times a pass's nominal
    time."""
    samples = []
    pass_before = reference.time_pass()
    for index in range(SETUP_REPEATS[workload]):
        child_work = work / f"child{index}"
        child_work.mkdir(parents=True)
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--child",
            "--workload",
            workload,
            "--spec",
            str(spec_path),
            "--work",
            str(child_work),
        ] + (["--first-op"] if index == 0 else [])
        started = time.perf_counter()
        # Unbuffered, so that readline() takes only the READY line and
        # communicate() gets the rest even if it came in the same read.
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT
        ) as proc:
            try:
                ready = proc.stdout.readline().decode()
                setup_s = time.perf_counter() - started
                rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
                rest = rest.decode()
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RuntimeError(f"set-up child {index} timed out")
        if ready.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(
                f"set-up child {index} failed (exit {proc.returncode})"
            )
        pass_after = reference.time_pass()
        sample = json.loads(rest.strip().splitlines()[-1])
        sample["setup_wall_s"] = setup_s
        sample["setup_s"] = (
            2 * setup_s / (pass_before + pass_after) * reference.nominal_s
        )
        pass_before = pass_after
        samples.append(sample)
    return samples


# ---------------------------------------------------------------------------
# The closed loop.


@dataclass
class Ops:
    """What a stretch of ops produced."""

    walls: List[float] = field(default_factory=list)
    #: Each op's wall time over the mean of the reference passes just
    #: before and after it, times the pass's nominal time.
    scaled: List[float] = field(default_factory=list)
    digests: Dict[int, str] = field(default_factory=dict)
    last_input: object = None
    last_output: object = None


class Run:
    """Counts ops and failures; every failed check names its op."""

    def __init__(self) -> None:
        self.next_op = 0
        self.attempted = 0
        self.failed_ops: set = set()
        self.problems: List[str] = []

    def fail(self, op, message: str) -> None:
        self.failed_ops.add(op)
        self.problems.append(f"op {op}: {message}")
        print(f"CHECK FAILED op {op}: {message}", file=sys.stderr)

    def loop(
        self,
        session: Session,
        seconds: float,
        reference: Reference,
        tracer: Optional[Tracer] = None,
    ) -> Ops:
        """Run ops back to back until ``seconds`` have passed (at least
        one), each followed by a reference pass; with a tracer, each op
        is a ``bench.op`` span."""
        ops = Ops()
        deadline = time.perf_counter() + seconds
        pass_before = reference.time_pass()
        while True:
            op = self.next_op
            self.next_op += 1
            self.attempted += 1
            op_input = session.prepare()
            span = None
            if tracer is not None:
                tracer.op = op
                span = tracer.open("bench.op")
            started = time.perf_counter()
            try:
                output = session.run(op_input)
            except Exception as exc:  # noqa: BLE001 - a failed op is data
                output = None
                self.fail(op, f"{type(exc).__name__}: {exc}")
            wall = time.perf_counter() - started
            if span is not None:
                if output is not None and session.workload == "resynth":
                    queue_s = output["started_at"] - output["submitted_at"]
                    span.attrs["queue_s"] = queue_s
                tracer.close(span)
                tracer.op = None
            if output is not None:
                ops.digests[op] = session.digest(output)
                ops.last_input, ops.last_output = op_input, output
                if session.manager is not None:
                    session.keep_only(output)
            pass_after = reference.time_pass()
            if output is not None:
                ops.walls.append(wall)
                ops.scaled.append(
                    2 * wall / (pass_before + pass_after) * reference.nominal_s
                )
            pass_before = pass_after
            if time.perf_counter() >= deadline:
                return ops


def check_outputs(workload, session, run, digests, children, last):
    """Digest repeats and the resynth cache and cold-run checks.

    Returns the output database whose DC and CC errors the run reports.
    """
    expected = digests.get(0)
    if workload != "resynth":
        for op, digest in digests.items():
            if digest != expected:
                run.fail(op, "output digest differs from op 0's")
    for index, child in enumerate(children):
        if "digest" in child and child["digest"] != expected:
            message = "first op in a fresh process gave another digest"
            run.fail(f"child{index}", message)
    last_op = max(digests, default=run.next_op - 1)
    if last.last_output is None:
        run.fail(last_op, "no op completed")
        return None
    if workload != "resynth":
        return last.last_output.database

    import repro.spec

    cold = repro.spec.synthesize(last.last_input).database
    database = load_job_database(session.result_dir(last.last_output), cold)
    if not database.identical_to(cold):
        run.fail(last_op, "last op is not identical to a cold synthesize()")
    try:
        repeat = session.submit(
            last.last_input, expect=(sum(RESYNTH_HITS_MISSES), 0)
        )
    except RuntimeError as exc:
        run.fail(last_op, f"repeat job: {exc}")
    else:
        if session.digest(repeat) != digests[last_op]:
            run.fail(last_op, "a repeat of the last op gave another digest")
    return database


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child.

    This process's own peak is read from ``VmHWM``: its ``ru_maxrss``
    also counts the parent's resident set at the time it was spawned.
    """
    with open("/proc/self/status") as status:
        own = next(
            int(line.split()[1])
            for line in status
            if line.startswith("VmHWM:")
        )
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def bench(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
) -> dict:
    """One benchmark run: the report, the checks and, when traced, the
    per-layer metrics."""
    started = time.perf_counter()
    import repro.service.jobs  # noqa: F401
    import repro.spec.io

    import_s = time.perf_counter() - started

    run = Run()
    work = OUT / f"{workload}-seed{seed}-{id(run):x}"
    work.mkdir(parents=True)
    try:
        spec = workloads.generate(workload, seed, smoke)
        spec_path = repro.spec.io.save_spec(spec, work / "spec.toml")
        reference = new_reference(workload, work)
        children = []
        if not trace:
            children = fresh_setups(workload, spec_path, work, reference)

        tracer = Tracer(work / "spans") if trace else None
        if trace:
            probes.install(tracer)
        session = Session(workload, spec_path, work / "main")
        # Op 0 warms up: lazy imports and first-call costs land here,
        # not in the timed ops (a fresh process times them as first_op_s).
        warm = run.loop(session, 0.0, reference, tracer)
        untraced = Ops()
        if trace:
            tracer.uninstall()
            untraced = run.loop(session, seconds / 2, reference)
            traced_from = run.next_op
            probes.install(tracer)
            timed = run.loop(session, seconds / 2, reference, tracer)
            tracer.uninstall()
            leftovers = tracer.leftover_wrappers()
            if leftovers:
                run.fail(run.next_op - 1, f"wrappers left: {leftovers}")
        else:
            timed = run.loop(session, seconds, reference)
        digests = {**warm.digests, **untraced.digests, **timed.digests}

        database = check_outputs(
            workload, session, run, digests, children, timed
        )
        session.close()
        dc, cc = edge_errors(session.spec, database) if database else ([], [])
        if any(error != 0.0 for error in dc):
            run.fail(max(digests), f"DC error {max(dc)} on an edge")

        measured = untraced if trace else timed
        if not measured.walls:
            raise RuntimeError("every timed op failed")
        report = {
            "ops": len(measured.walls),
            "digest": digests.get(0, ""),
            "synth_s": statistics.median(measured.walls),
            "synth_ref_s": statistics.median(measured.scaled),
            "first_op_s": _median(children, "first_op_s"),
            "setup_wall_s": _median(children, "setup_wall_s"),
            "setup_s": _median(children, "setup_s"),
            "peak_rss_mb": _median(children, "peak_rss_mb"),
            "max_cc_error": max(cc, default=0.0),
            "mean_cc_error": statistics.fmean(cc) if cc else 0.0,
            "fresh_parent_rows": (
                fresh_parent_rows(session.spec, database) if database else 0
            ),
            "op_fail_ratio": len(run.failed_ops) / run.attempted,
        }
        layers = None
        if trace:
            spans = tracer.spans()
            traced_ops = sorted(op for op in digests if op >= traced_from)
            layers = probes.layer_metrics(
                spans,
                traced_ops,
                timed.walls,
                tracer.main_pid,
                workloads.fact_edge_columns(session.spec),
                import_s,
                untraced.walls,
            )
            write_trace(
                f"{workload}-seed{seed}",
                spans,
                traced_ops,
                tracer.main_pid,
                layers,
            )
        return {"run": run, "report": report, "layers": layers}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _median(samples: List[dict], key: str) -> Optional[float]:
    values = [sample[key] for sample in samples if key in sample]
    return statistics.median(values) if values else None


def write_trace(stem: str, spans, ops, main_pid, layers) -> None:
    """The Chrome trace-event file and the flat per-layer table."""
    out = OUT / "trace"
    out.mkdir(parents=True, exist_ok=True)
    origin = min((span.start for span in spans), default=0.0)
    trace = chrome_trace(spans, origin, main_pid)
    (out / f"{stem}.trace.json").write_text(json.dumps(trace))
    lines = ["layer\tspan\tcalls_per_op\tbusy_s_per_op\tself_s_per_op\twhere"]
    for row in probes.layer_table(spans, ops, main_pid):
        layer, name, calls, busy, self_s, where = row
        lines.append(
            f"{layer}\t{name}\t{calls:.3f}\t{busy:.6f}\t{self_s:.6f}\t{where}"
        )
    lines += ["", "metric\tvalue\tunit\tmoves"]
    for metric in probes.PER_LAYER:
        value = layers[metric.name]
        lines.append(
            f"{metric.name}\t{value:.6g}\t{metric.unit}\t{metric.moves}"
        )
    (out / f"{stem}.layers.tsv").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Command line.


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs (self-tests)"
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spec", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument(
        "--first-op", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def print_report(args, outcome) -> dict:
    """Print the human-readable report; return the JSON metrics."""
    report, layers = outcome["report"], outcome["layers"]
    print(
        f"workload {args.workload} seed {args.seed}: {report['ops']} "
        f"timed ops after 1 warm-up op; output digest {report['digest']}"
    )
    fresh = f"median of {SETUP_REPEATS[args.workload]} fresh processes"
    notes = {
        "synth_s": f"wall, median of {report['ops']} ops",
        "synth_ref_s": f"reference-scaled, median of {report['ops']} ops",
        "first_op_s": "wall, one fresh process",
        "peak_rss_mb": "set-up and first op in that fresh process",
        "setup_wall_s": f"wall, {fresh}",
        "setup_s": f"reference-scaled, {fresh}",
    }
    for name, unit in END_TO_END.items():
        if report[name] is not None:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:<18} {report[name]:.6g} {unit}{note}")

    declared = load_benchmark_json()
    if not args.trace:
        return {
            m["name"]: {"value": report[m["name"]], "unit": m["unit"]}
            for m in declared["end_to_end"]
        }
    moves = {metric.name: metric.moves for metric in probes.PER_LAYER}
    print("per-layer metrics, per traced op (metric, value, unit, moves):")
    for metric in declared["per_layer"]:
        name = metric["name"]
        print(
            f"  {name:<42} {layers[name]:<12.6g} {metric['unit']:<6} "
            f"{moves[name]}"
        )
    return {
        m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
        for m in declared["per_layer"]
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program sources under {SRC}; run the benchmark "
            "from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        return child_main(args)

    outcome = bench(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    metrics = print_report(args, outcome)
    run = outcome["run"]
    correct = not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failed_ops),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
