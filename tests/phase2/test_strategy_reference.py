"""The built-in Phase-II strategies vs their reference drivers.

``tests/reference/phase2_strategies.py`` writes Algorithm 4 out once per
strategy, each with its own largest-first loop.  The registered
strategies must give the same ``r1_hat``, ``r2_hat``, ``coloring``
(insertion order included), ``overflow`` and ``Phase2Stats`` counts on
seeded census instances: with and without DCs, and under a CC family
that leaves invalid rows for the invalid-tuple handling.
"""

import copy
import functools
import math

import pytest

from repro.constraints.parser import parse_cc
from repro.core.config import SolverConfig
from repro.core.stages import phase2_strategy
from repro.datagen.census import CensusConfig, generate_census
from repro.datagen.constraints_census import cc_family, good_dcs
from repro.phase1.hybrid import run_phase1
from tests.reference.phase2_strategies import STRATEGIES

_COUNTS = (
    "num_partitions",
    "num_edges",
    "num_skipped",
    "num_new_r2_tuples",
    "num_invalid_handled",
    "total_overflow",
)

_RENTED_ONE = {"match": {"Tenure": "Rented"}, "quota": 1}

#: (strategy, options, SolverConfig fields) — the grid every instance runs.
CASES = [
    ("coloring", {}, {}),
    ("coloring", {}, {"partitioned_coloring": False}),
    *[("capacity", {"max_per_key": cap}, {}) for cap in (1, 2, 3)],
    *[
        (
            "soft_capacity",
            {"max_per_key": 2, "penalty": penalty, "new_tuple_cost": cost},
            {},
        )
        for penalty in (1.0, math.inf)
        for cost in (0.0, math.inf)
    ],
    ("soft_capacity", {"max_per_key": 1}, {}),
    ("quota_coloring", {}, {}),
    ("quota_coloring", {"quotas": [_RENTED_ONE], "default_quota": 3}, {}),
    ("quota_coloring", {"quotas": [_RENTED_ONE]}, {}),
    ("quota_coloring", {"default_quota": 2}, {}),
]

#: (seed, CC family, with DCs)
INSTANCES = [
    (seed, family, with_dcs)
    for seed in (0, 2)
    for family in ("good", "invalid")
    for with_dcs in (True, False)
]


def _ccs(data, family):
    if family == "good":
        return cc_family(data, "good", 12)
    # The census "bad" family plus a per-area cap on Owner rows that
    # every combo is subject to: most Owner rows end up invalid.
    areas = sorted(set(data.housing.column("Area")))
    return cc_family(data, "bad", 10) + [
        parse_cc(f"|Rel == 'Owner' & Area == '{area}'| = 2") for area in areas
    ]


@functools.lru_cache(maxsize=None)
def _phase1(seed, family):
    """Census relations, CCs and Phase I (read-only: runs copy the
    assignment, which Phase II mutates)."""
    data = generate_census(
        CensusConfig(n_households=40, n_areas=4, seed=seed)
    )
    ccs = _ccs(data, family)
    r1, r2 = data.persons_masked, data.housing
    return r1, r2, ccs, run_phase1(r1, r2, ccs)


def _instance(seed, family, with_dcs):
    r1, r2, ccs, phase1 = _phase1(seed, family)
    return r1, r2, ccs, good_dcs() if with_dcs else [], phase1


def _run(fn, instance, options, config):
    r1, r2, ccs, dcs, phase1 = instance
    return fn(
        r1,
        r2,
        dcs,
        copy.deepcopy(phase1.assignment),
        phase1.catalog,
        "hid",
        ccs=ccs,
        config=config,
        options=copy.deepcopy(options),
    )


def _assert_same(new, ref):
    assert new.r1_hat.schema == ref.r1_hat.schema
    assert new.r1_hat.to_rows() == ref.r1_hat.to_rows()
    assert new.r2_hat.schema == ref.r2_hat.schema
    assert new.r2_hat.to_rows() == ref.r2_hat.to_rows()
    assert list(new.coloring.items()) == list(ref.coloring.items())
    assert list(new.overflow.items()) == list(ref.overflow.items())
    for name in _COUNTS:
        assert getattr(new.stats, name) == getattr(ref.stats, name), name


@pytest.mark.parametrize("instance", INSTANCES, ids=str)
@pytest.mark.parametrize(
    "strategy,options,config", CASES, ids=lambda case: str(case)
)
def test_strategy_matches_reference(instance, strategy, options, config):
    inst = _instance(*instance)
    config = SolverConfig(**config)
    new = _run(phase2_strategy(strategy), inst, options, config)
    ref = _run(STRATEGIES[strategy], inst, options, config)
    _assert_same(new, ref)


def test_invalid_family_leaves_invalid_rows():
    """The grid reaches the invalid-tuple paths and the fresh-key retry."""
    _, _, _, _, phase1 = _instance(0, "invalid", True)
    assert phase1.assignment.invalid
    inst = _instance(0, "good", True)
    result = _run(
        phase2_strategy("capacity"), inst, {"max_per_key": 1}, SolverConfig()
    )
    assert result.stats.num_skipped > 0


@pytest.mark.parametrize("family", ["good", "invalid"])
def test_parallel_coloring_matches_reference(family):
    inst = _instance(0, family, True)
    config = SolverConfig(parallel_workers=2)
    new = _run(phase2_strategy("coloring"), inst, {}, config)
    ref = _run(STRATEGIES["coloring"], inst, {}, config)
    _assert_same(new, ref)
