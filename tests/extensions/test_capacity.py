"""Capacity-constrained FK assignment."""

import pytest

from repro.constraints import parse_cc, parse_dc
from repro.core.metrics import dc_error
from repro.core.synthesizer import CExtensionSolver
from repro.datagen.census import CensusConfig, generate_census
from repro.datagen.constraints_census import cc_family, good_dcs
from repro.errors import ReproError
from repro.extensions.capacity import (
    capacity_coloring,
    fk_usage_histogram,
    solve_with_capacity,
)
from repro.phase2.hypergraph import ConflictHypergraph
from repro.relational.relation import Relation


class TestCapacityColoring:
    def test_cap_forces_spread(self):
        graph = ConflictHypergraph.over(range(4))
        coloring, skipped = capacity_coloring(graph, ["a", "b"], 2)
        assert not skipped
        usage = {}
        for c in coloring.values():
            usage[c] = usage.get(c, 0) + 1
        assert all(v <= 2 for v in usage.values())

    def test_cap_one_is_a_matching(self):
        graph = ConflictHypergraph.over(range(3))
        coloring, skipped = capacity_coloring(graph, ["a", "b", "c"], 1)
        assert not skipped
        assert len(set(coloring.values())) == 3

    def test_skips_when_capacity_exhausted(self):
        graph = ConflictHypergraph.over(range(3))
        coloring, skipped = capacity_coloring(graph, ["a"], 2)
        assert len(skipped) == 1

    def test_dc_forbidding_still_applies(self):
        graph = ConflictHypergraph()
        graph.add_edge([0, 1])
        coloring, skipped = capacity_coloring(graph, ["a", "b"], 5)
        assert coloring[0] != coloring[1]

    def test_invalid_cap_rejected(self):
        with pytest.raises(ReproError):
            capacity_coloring(ConflictHypergraph(), ["a"], 0)

    def test_shared_usage_across_calls(self):
        usage = {}
        g1 = ConflictHypergraph.over([0, 1])
        capacity_coloring(g1, ["a"], 2, {}, usage)
        g2 = ConflictHypergraph.over([2])
        coloring, skipped = capacity_coloring(g2, ["a"], 2, {}, usage)
        assert skipped == [2]  # "a" already full from the first call


class TestSolveWithCapacity:
    @pytest.fixture
    def instance(self):
        r1 = Relation.from_columns(
            {
                "pid": list(range(10)),
                "Age": [30 + i for i in range(10)],
                "Rel": ["Child"] * 10,
            },
            key="pid",
        )
        r2 = Relation.from_columns(
            {"hid": [1, 2], "Area": ["X", "Y"]}, key="hid"
        )
        return r1, r2

    def test_capacity_respected(self, instance):
        r1, r2 = instance
        result = solve_with_capacity(
            r1, r2, fk_column="hid", max_per_key=3
        )
        usage = result.usage()
        assert all(v <= 3 for v in usage.values())
        assert sum(usage.values()) == len(r1)

    def test_fresh_tuples_absorb_overflow(self, instance):
        r1, r2 = instance
        result = solve_with_capacity(
            r1, r2, fk_column="hid", max_per_key=2
        )
        # 10 rows, cap 2 → at least 5 keys; R2 had 2.
        assert len(result.r2_hat) >= 5
        assert result.num_new_r2_tuples >= 3

    def test_dcs_and_capacity_together(self, instance):
        r1, r2 = instance
        dcs = [parse_dc("not(t1.Age < 33 & t2.Age < 33)")]
        result = solve_with_capacity(
            r1, r2, fk_column="hid", max_per_key=4, dcs=dcs
        )
        assert dc_error(result.r1_hat, "hid", dcs) == 0.0
        assert all(v <= 4 for v in result.usage().values())

    def test_ccs_still_pursued(self, instance):
        r1, r2 = instance
        ccs = [parse_cc("|Age in [30, 34] & Area == 'X'| = 5")]
        result = solve_with_capacity(
            r1, r2, fk_column="hid", max_per_key=3, ccs=ccs
        )
        assert result.errors.per_cc == [0.0]

    def test_histogram_helper(self, instance):
        r1, r2 = instance
        result = solve_with_capacity(r1, r2, fk_column="hid", max_per_key=3)
        histogram = fk_usage_histogram(result.r1_hat, "hid")
        assert sum(histogram.values()) == len(r1)

    @pytest.mark.parametrize("cap", [True, False, 2.0, None])
    def test_non_integer_cap_rejected(self, instance, cap):
        """``True`` used to pass ``isinstance(cap, int)`` as a cap of 1."""
        r1, r2 = instance
        with pytest.raises(ReproError, match="integer 'max_per_key'"):
            solve_with_capacity(r1, r2, fk_column="hid", max_per_key=cap)


class TestPhase2Timing:
    """Every strategy bills graph building to ``edge_seconds``."""

    @pytest.fixture(scope="class")
    def census(self):
        data = generate_census(
            CensusConfig(n_households=40, n_areas=4, seed=5)
        )
        return data, cc_family(data, "good", 10), good_dcs()

    def _stats(self, census, strategy, options=None):
        data, ccs, dcs = census
        return CExtensionSolver().solve(
            data.persons_masked, data.housing, fk_column="hid",
            ccs=ccs, dcs=dcs, strategy=strategy, strategy_options=options,
        ).phase2.stats

    @pytest.mark.parametrize("strategy", ["capacity", "soft_capacity"])
    def test_edge_seconds_split_like_coloring(self, census, strategy):
        plain = self._stats(census, "coloring")
        capped = self._stats(census, strategy, {"max_per_key": 2})
        assert plain.num_edges > 0
        assert capped.edge_seconds > 0
        assert capped.num_edges == plain.num_edges
        assert capped.num_partitions == plain.num_partitions
