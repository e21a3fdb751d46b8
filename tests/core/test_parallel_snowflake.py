"""Parallel snowflake traversal: equivalence, batching, worker protocol.

The scheduler's contract is that ``workers=N`` output is *byte-identical*
to the sequential traversal — same relations, same schemas, same column
arrays — for any snowflake shape and any per-edge strategy mix.  The
hypothesis test below drives that across random schemas; the batching
tests pin the conflict rules the guarantee rests on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SolverConfig
from repro.core.parallel_snowflake import (
    edge_payload,
    solve_edge,
    solve_edge_payload,
)
from repro.core.snowflake import EdgeConstraints, SnowflakeSynthesizer
from repro.relational.database import Database
from repro.relational.relation import Relation


def assert_databases_equal(a: Database, b: Database) -> None:
    """Assert ``Database.identical_to``, pinpointing the first mismatch."""
    if a.identical_to(b):
        return
    assert a.relation_names == b.relation_names
    assert a.foreign_keys == b.foreign_keys
    for name in a.relation_names:
        ra, rb = a.relation(name), b.relation(name)
        assert ra.schema == rb.schema, f"{name}: schemas differ"
        for column in ra.schema.names:
            assert np.array_equal(ra.column(column), rb.column(column)), (
                f"{name}.{column}: values differ"
            )
    raise AssertionError("identical_to is stricter than the detailed scan")


# ----------------------------------------------------------------------
# Random snowflake workloads
# ----------------------------------------------------------------------

ARMS = st.lists(
    st.tuples(
        st.integers(min_value=4, max_value=9),    # dimension rows
        st.integers(min_value=2, max_value=4),    # sub-dimension keys
        st.booleans(),                            # arm has a sub-dimension
        st.sampled_from(["coloring", "capacity", "cc", "dc"]),
    ),
    min_size=1,
    max_size=3,
)


def _build_workload(arms, seed):
    """A fact table with one FK per arm; each arm optionally one hop more."""
    rng = np.random.default_rng(seed)
    db = Database()
    db.add_relation(
        "F",
        Relation.from_columns(
            {
                "fid": list(range(8)),
                "W": rng.integers(1, 4, 8).tolist(),
            },
            key="fid",
        ),
    )
    constraints = {}
    for i, (dim_rows, sub_keys, has_sub, flavor) in enumerate(arms):
        dim, sub = f"D{i}", f"S{i}"
        db.add_relation(
            dim,
            Relation.from_columns(
                {
                    f"d{i}": list(range(dim_rows)),
                    f"X{i}": rng.integers(0, 3, dim_rows).tolist(),
                },
                key=f"d{i}",
            ),
        )
        db.add_foreign_key("F", f"fk_d{i}", dim)
        if not has_sub:
            continue
        db.add_relation(
            sub,
            Relation.from_columns(
                {
                    f"s{i}": list(range(sub_keys)),
                    f"C{i}": [f"c{j % 2}" for j in range(sub_keys)],
                },
                key=f"s{i}",
            ),
        )
        db.add_foreign_key(dim, f"fk_s{i}", sub)
        edge = (dim, f"fk_s{i}")
        if flavor == "capacity":
            constraints[edge] = EdgeConstraints(
                capacity=max(2, dim_rows // sub_keys + 1)
            )
        elif flavor == "cc":
            from repro.constraints.parser import parse_cc

            constraints[edge] = EdgeConstraints(
                ccs=[parse_cc(f"|X{i} == 1 & C{i} == 'c0'| = 2")]
            )
        elif flavor == "dc":
            from repro.constraints.parser import parse_dc

            constraints[edge] = EdgeConstraints(
                dcs=[parse_dc(f"not(t1.X{i} == 0 & t2.X{i} == 2)")]
            )
    return db, constraints


class TestParallelEquivalence:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(arms=ARMS, seed=st.integers(min_value=0, max_value=2**16))
    def test_workers_output_byte_identical(self, arms, seed):
        """workers=2 equals workers=1 on random snowflake workloads."""
        db, constraints = _build_workload(arms, seed)
        synth = SnowflakeSynthesizer()
        sequential = synth.solve(db, "F", constraints)
        parallel = synth.solve(db, "F", constraints, workers=2)
        assert_databases_equal(sequential.database, parallel.database)
        assert [fk for fk, _ in sequential.steps] == [
            fk for fk, _ in parallel.steps
        ]
        # Transactionality: neither run touched the input.
        assert "fk_d0" not in db.relation("F").schema

    def test_serialize_escape_hatch_matches_parallel_output(self):
        arms = [(6, 3, True, "dc"), (7, 2, True, "capacity")]
        db, constraints = _build_workload(arms, seed=5)
        for edge in list(constraints):
            constraints[edge] = EdgeConstraints(
                ccs=constraints[edge].ccs,
                dcs=constraints[edge].dcs,
                capacity=constraints[edge].capacity,
                serialize=True,
            )
        synth = SnowflakeSynthesizer()
        sequential = synth.solve(db, "F", constraints)
        parallel = synth.solve(db, "F", constraints, workers=2)
        assert_databases_equal(sequential.database, parallel.database)

    def test_config_workers_knob_is_the_default(self):
        arms = [(5, 2, True, "coloring"), (6, 3, True, "cc")]
        db, constraints = _build_workload(arms, seed=9)
        sequential = SnowflakeSynthesizer().solve(db, "F", constraints)
        configured = SnowflakeSynthesizer(SolverConfig(workers=2)).solve(
            db, "F", constraints
        )
        assert_databases_equal(sequential.database, configured.database)


class TestWorkerProtocol:
    def test_payload_round_trip_matches_in_process_solve(self):
        """The worker's rebuilt-relation solve equals the direct solve."""
        from repro.constraints.parser import parse_dc

        rng = np.random.default_rng(2)
        extended = Relation.from_columns(
            {
                "did": list(range(12)),
                "X": rng.integers(0, 3, 12).tolist(),
            },
            key="did",
        )
        parent = Relation.from_columns(
            {"sid": [0, 1, 2], "C": ["a", "b", "a"]}, key="sid"
        )
        constraints = EdgeConstraints(
            dcs=[parse_dc("not(t1.X == 0 & t2.X == 2)")]
        )
        config = SolverConfig()
        direct = solve_edge(extended, parent, "fk", constraints, config)
        shipped = solve_edge_payload(
            edge_payload(extended, parent, "fk", constraints, config)
        )
        assert np.array_equal(
            direct.r1_hat.column("fk"), shipped.r1_hat.column("fk")
        )
        assert direct.r2_hat.schema == shipped.r2_hat.schema
        for column in direct.r2_hat.schema.names:
            assert np.array_equal(
                direct.r2_hat.column(column), shipped.r2_hat.column(column)
            )

    def test_payload_ships_columns_not_relations(self):
        relation = Relation.from_columns({"k": [1, 2], "A": [3, 4]}, key="k")
        payload = edge_payload(
            relation, relation, "fk", EdgeConstraints(), SolverConfig()
        )
        schema, columns = payload[0], payload[1]
        assert schema == relation.schema
        assert set(columns) == {"k", "A"}
        assert all(isinstance(arr, np.ndarray) for arr in columns.values())


class TestConflictFreeBatching:
    def _db(self, relations, fks):
        db = Database()
        for name in relations:
            db.add_relation(
                name,
                Relation.from_columns({f"{name}_k": [1, 2]}, key=f"{name}_k"),
            )
        for child, column, parent in fks:
            db.add_foreign_key(child, column, parent)
        return db

    def test_never_coschedules_edges_sharing_a_relation(self):
        """Edges sharing a child or parent always land in different
        batches, whatever the layer composition."""
        db = self._db(
            ["F", "A", "B", "C"],
            [
                ("F", "a", "A"),   # shares child F with the next two
                ("F", "b", "B"),
                ("F", "c", "C"),
                ("A", "x", "C"),   # shares parent C with F.c
                ("B", "y", "C"),   # shares parent C with both
            ],
        )
        for layer in db.bfs_edge_layers("F"):
            for batch in db.conflict_free_batches(layer, set()):
                relations = [
                    rel for fk in batch for rel in (fk.child, fk.parent)
                ]
                assert len(relations) == len(set(relations)), (
                    f"batch {batch} co-schedules a shared relation"
                )

    def test_disjoint_edges_share_a_batch(self):
        db = self._db(
            ["F", "A", "B", "X", "Y"],
            [
                ("F", "a", "A"),
                ("F", "b", "B"),
                ("A", "x", "X"),
                ("B", "y", "Y"),
            ],
        )
        layers = db.bfs_edge_layers("F")
        fact_batches = db.conflict_free_batches(layers[0], set())
        assert [len(b) for b in fact_batches] == [1, 1]  # shared child F
        completed = {("F", "a"), ("F", "b")}
        arm_batches = db.conflict_free_batches(layers[1], completed)
        assert [len(b) for b in arm_batches] == [2]      # fully disjoint

    def test_read_closure_conflict_serializes(self):
        """An edge whose extended view *reads* a relation another edge
        writes must not share its batch — even though their child/parent
        pairs are disjoint."""
        db = self._db(
            ["F", "R", "C2", "P", "Q"],
            [
                ("F", "r", "R"),
                ("F", "c", "C2"),
                ("C2", "w", "R"),   # C2's view reaches R once completed
                ("R", "u", "P"),    # writes R (adds the imputed column)
                ("C2", "v", "Q"),
            ],
        )
        completed = {("F", "r"), ("F", "c"), ("C2", "w")}
        layer = [
            fk
            for fk in db.foreign_keys
            if (fk.child, fk.column) in {("R", "u"), ("C2", "v")}
        ]
        batches = db.conflict_free_batches(layer, completed)
        assert [len(b) for b in batches] == [1, 1]
        # Without the completed hop into R the same two edges are
        # independent and co-schedule.
        batches = db.conflict_free_batches(
            layer, {("F", "r"), ("F", "c")}
        )
        assert [len(b) for b in batches] == [2]

    def test_serialize_forces_solo_batches(self):
        db = self._db(
            ["F", "A", "B", "X", "Y"],
            [
                ("F", "a", "A"),
                ("F", "b", "B"),
                ("A", "x", "X"),
                ("B", "y", "Y"),
            ],
        )
        layer = db.bfs_edge_layers("F")[1]
        completed = {("F", "a"), ("F", "b")}
        batches = db.conflict_free_batches(
            layer, completed, serialize={("A", "x")}
        )
        assert [len(b) for b in batches] == [1, 1]

    def test_batches_are_contiguous_in_bfs_order(self):
        db = self._db(
            ["F", "A", "B", "C"],
            [("F", "a", "A"), ("F", "b", "B"), ("F", "c", "C")],
        )
        layer = db.bfs_edge_layers("F")[0]
        batches = db.conflict_free_batches(layer, set())
        flattened = [fk for batch in batches for fk in batch]
        assert flattened == layer


class TestExampleSpecs:
    @pytest.mark.parametrize("workers", [4])
    def test_example_specs_byte_identical_under_workers(self, workers):
        """Acceptance: workers=4 equals sequential on every example spec."""
        from pathlib import Path

        from repro.spec import load_spec, synthesize

        specs = sorted(
            (Path(__file__).parents[2] / "examples" / "specs").glob("*.toml")
        )
        assert specs
        for path in specs:
            spec = load_spec(path)
            sequential = synthesize(spec.with_options(workers=0))
            parallel = synthesize(spec.with_options(workers=workers))
            assert_databases_equal(sequential.database, parallel.database)


class TestPooledMmapParent:
    def test_pooled_edge_into_a_parent_with_an_imputed_fk(self):
        """An mmap parent whose own FK was imputed in an earlier batch is
        a composite store; pooling an edge into it must keep the owning
        relation, not the worker's handle on the same directories."""
        from repro.spec import SpecBuilder, synthesize

        rng = np.random.default_rng(0)
        builder = SpecBuilder("overlaid-parent")
        builder.relation(
            "F",
            columns={
                "fid": list(range(10)),
                "W": rng.integers(0, 3, 10).tolist(),
            },
            key="fid",
        )
        for name, rows in [("A", 6), ("B", 6), ("E", 6), ("C", 3), ("G", 3)]:
            builder.relation(
                name,
                columns={
                    "k": list(range(rows)),
                    f"{name}x": rng.integers(0, 3, rows).tolist(),
                },
                key="k",
            )
        # Layer 1 batches as [B -> C], then [A -> B, E -> G] on the pool:
        # by then B carries its imputed fk_c overlay.
        for child, column, parent in [
            ("F", "fk_b", "B"),
            ("F", "fk_a", "A"),
            ("F", "fk_e", "E"),
            ("B", "fk_c", "C"),
            ("A", "fk_ab", "B"),
            ("E", "fk_g", "G"),
        ]:
            builder.edge(child, column, parent)
        spec = builder.fact_table("F").build()

        sequential = synthesize(spec)
        pooled = synthesize(
            spec.with_options(workers=2, storage="mmap", chunk_rows=4)
        )
        assert_databases_equal(sequential.database, pooled.database)
