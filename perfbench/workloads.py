"""Seeded input generators for the benchmark's three workloads.

Every generator is a pure function of ``seed``: the same seed gives the
same spec, byte for byte.  The program under test only ever receives
the generated spec file (TOML); these functions run in the benchmark
process before any timing starts.

* ``census`` — the paper's two-table C-Extension ``persons → housing``
  on Table-2 census data (row 10: scale 40, bad CC family, all 20 DCs),
  shrunk with a mini divisor and a truncated CC family.
* ``wide_star`` — an 11-relation snowflake: a fact table ``F`` with four
  skewed dimensions, each with a CC- and DC-constrained hop to a 40-row
  sub-dimension, and one extra 10-row leaf hop on the smallest arm.
* ``resynth`` — the ``wide_star`` schema; each op edits one CC on the
  leaf edge (``S3.fk_l → L``) so the service re-solves exactly that edge.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np

#: Census sizing.  Table-2 row 10 at scale 40 with households divided by
#: ``CENSUS_DIVISOR`` (the repo's mini ladder uses 100) and the bad CC
#: family truncated to ``CENSUS_CCS`` constraints.  Chosen so one
#: ``synthesize()`` takes about 0.3 s wall on a shared 2-core x86 box,
#: short enough for about 35 ops in a run, while Phase II plus
#: evaluation still take most of it (about 36% + 23%; Phase I 28%,
#: solver 11%), as at divisor 100.
CENSUS_DATASET = 10
CENSUS_DIVISOR = 800
CENSUS_CCS = 30

#: wide_star sizing: fact rows and the four (skewed) dimension sizes.
#: Phase-I leftover completion on the four CC-free fact edges (serial,
#: they share F) and the pooled arm layer (set by its slowest arm) each
#: take about half of a 2.8 s op (wall) on a shared 2-core x86 box.
STAR_FACT_ROWS = 1_250
STAR_DIM_ROWS = (600, 450, 300, 300)
STAR_SUB_ROWS = 40
STAR_LEAF_ROWS = 10
STAR_WORKERS = 2

#: Smoke sizes used by the benchmark's self-tests.
SMOKE_CENSUS_DIVISOR = 2_000
SMOKE_CENSUS_CCS = 20
SMOKE_FACT_ROWS = 300
SMOKE_DIM_ROWS = (80, 60, 40, 40)

#: The leaf edge whose CC set each resynth op edits.
LEAF_CHILD = "S3"
LEAF_COLUMN = "fk_l"


def census_spec(seed: int, smoke: bool = False):
    """The census C-Extension workload as a :class:`SynthesisSpec`."""
    from repro.datagen.workloads import census_spec as table2_spec

    return table2_spec(
        CENSUS_DATASET,
        num_ccs=SMOKE_CENSUS_CCS if smoke else CENSUS_CCS,
        mini_divisor=SMOKE_CENSUS_DIVISOR if smoke else CENSUS_DIVISOR,
        seed=seed,
        name="census",
    )


def _arm_ccs(arm: int, n_dim: int) -> List[str]:
    """Eight overlapping range CCs over ``D{arm} ⋈ S{arm}`` (ILP leg)."""
    scale = max(1, n_dim // 100)
    return [
        f"|X{arm} >= {7 * k % 35} & X{arm} <= {7 * k % 35 + 8} "
        f"& G{arm} == 'g{k % 5}'| = {(5 + k) * scale}"
        for k in range(8)
    ]


def _arm_dcs(arm: int) -> List[str]:
    return [
        f"not(t1.Y{arm} == {a} & t2.Y{arm} == {b})"
        for a, b in ((0, 1), (2, 3), (4, 5))
    ]


def leaf_edit_cc(index: int) -> str:
    """The ``index``-th leaf-edge CC edit; distinct for every index.

    Index 0 is the base spec's CC.  Edits walk the ``(lo, hi)`` ranges
    of ``Z`` (the sub-dimension row number, 0..39) and ask for half the
    range's rows under ``H == 'h2'``, which is always feasible.
    """
    pairs = STAR_SUB_ROWS * (STAR_SUB_ROWS + 1) // 2
    cycle, slot = divmod(index, pairs)
    lo = 0
    while slot >= STAR_SUB_ROWS - lo:
        slot -= STAR_SUB_ROWS - lo
        lo += 1
    hi = lo + slot
    target = (hi - lo + 1) // 2 + cycle
    return f"|Z3 >= {lo} & Z3 <= {hi} & H == 'h2'| = {target}"


def wide_star_spec(seed: int, smoke: bool = False):
    """The 11-relation wide_star snowflake as a :class:`SynthesisSpec`."""
    from repro.spec.builder import SpecBuilder

    rng = np.random.default_rng(seed)
    fact_rows = SMOKE_FACT_ROWS if smoke else STAR_FACT_ROWS
    dim_rows: Sequence[int] = SMOKE_DIM_ROWS if smoke else STAR_DIM_ROWS
    builder = SpecBuilder("wide_star")
    builder.relation(
        "F",
        columns={
            "fid": list(range(fact_rows)),
            "W": rng.integers(1, 4, fact_rows).tolist(),
            "V": rng.integers(0, 10, fact_rows).tolist(),
        },
        key="fid",
    )
    for arm, n_dim in enumerate(dim_rows):
        builder.relation(
            f"D{arm}",
            columns={
                f"d{arm}": list(range(n_dim)),
                f"X{arm}": rng.integers(0, 40, n_dim).tolist(),
                f"Y{arm}": rng.integers(0, 6, n_dim).tolist(),
            },
            key=f"d{arm}",
        )
        builder.relation(
            f"S{arm}",
            columns={
                f"s{arm}": list(range(STAR_SUB_ROWS)),
                f"G{arm}": [
                    f"g{int(v)}" for v in rng.integers(0, 5, STAR_SUB_ROWS)
                ],
                f"Z{arm}": list(range(STAR_SUB_ROWS)),
            },
            key=f"s{arm}",
        )
    builder.relation(
        "L",
        columns={
            "lid": list(range(STAR_LEAF_ROWS)),
            "H": [f"h{i % 3}" for i in range(STAR_LEAF_ROWS)],
        },
        key="lid",
    )
    for arm in range(len(dim_rows)):
        builder.edge("F", f"fk_d{arm}", f"D{arm}")
    for arm, n_dim in enumerate(dim_rows):
        builder.edge(
            f"D{arm}",
            f"fk_s{arm}",
            f"S{arm}",
            ccs=_arm_ccs(arm, n_dim),
            dcs=_arm_dcs(arm),
        )
    builder.edge(
        LEAF_CHILD,
        LEAF_COLUMN,
        "L",
        # One CC only: Algorithm 2 serves it, so the parent process never
        # calls the ILP (and never imports scipy.optimize).
        ccs=[leaf_edit_cc(0)],
        dcs=["not(t1.G3 == 'g2' & t2.G3 == 'g3')"],
    )
    return builder.fact_table("F").options(workers=STAR_WORKERS).build()


def with_leaf_edit(spec, index: int):
    """``spec`` with the leaf edge's CC replaced by edit ``index``."""
    from repro.constraints.parser import parse_cc

    edges = []
    for edge in spec.edges:
        if (edge.child, edge.column) == (LEAF_CHILD, LEAF_COLUMN):
            edge = replace(edge, ccs=[parse_cc(leaf_edit_cc(index))])
        edges.append(edge)
    return replace(spec, edges=edges)


def generate(workload: str, seed: int, smoke: bool = False):
    """The spec a workload runs (``resynth`` shares ``wide_star``'s)."""
    if workload == "census":
        return census_spec(seed, smoke)
    if workload in ("wide_star", "resynth"):
        return wide_star_spec(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")


def fact_edge_columns(spec) -> Tuple[str, ...]:
    """FK columns owned by the fact table (the CC-free star edges)."""
    fact = spec.fact()
    return tuple(edge.column for edge in spec.edges if edge.child == fact)
