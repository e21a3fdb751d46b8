"""Soft-capacity FK assignment: capacities as penalised soft constraints.

The hard ``"capacity"`` strategy (:mod:`repro.extensions.capacity`) forbids
a key outright once its usage reaches ``max_per_key`` and mints a fresh R2
tuple for every saturated vertex.  Real workloads often prefer the
opposite trade: keep the parent table small and *tolerate* a little
overflow, as long as the total overflow is minimised.

The ``"soft_capacity"`` strategy implements that trade as a penalised
objective inside Algorithm 3's greedy choice.  For a vertex ``v`` each
DC-permitted candidate key ``c`` costs::

    cost(c) = 0                                  if usage(c) < max_per_key
    cost(c) = penalty * (usage(c) + 1 - max_per_key)   otherwise

and ``v`` takes the cheapest candidate (candidate order breaks ties, so a
zero-cost choice is exactly the hard strategy's choice).  A vertex is
skipped — falling through to Algorithm 4's fresh keys — only when every
candidate is DC-forbidden, when the best cost is infinite
(``penalty = inf`` recovers the hard strategy, output-identically), or
when it exceeds ``new_tuple_cost`` (the price of minting a fresh parent
tuple; ``inf`` by default, i.e. never mint just to dodge an overflow).

The per-key overflow that was accepted is reported in
:attr:`Phase2Result.overflow` and summed in
:attr:`Phase2Stats.total_overflow`.

The penalised choice is a coloring rule (:func:`penalised_choice`, a
``choose`` hook for :func:`repro.phase2.coloring.coloring_lf`) handed to
:func:`repro.phase2.fk_assignment.run_phase2`, the one Algorithm-4
driver.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.core.config import SolverConfig
from repro.core.stages import register_phase2_strategy
from repro.errors import ReproError
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase2.coloring import Choose, coloring_lf
from repro.phase2.fk_assignment import ColoringRule, Phase2Result, run_phase2
from repro.phase2.hypergraph import ConflictHypergraph
from repro.relational.executor import executor_from_config
from repro.relational.relation import Relation

__all__ = [
    "penalised_choice",
    "soft_capacity_coloring",
    "soft_capacity_phase2",
]


def penalised_choice(
    max_per_key: int,
    penalty: float,
    new_tuple_cost: float,
    usage: Dict[object, int],
) -> Choose:
    """The soft-capacity rule for
    :func:`~repro.phase2.coloring.coloring_lf`: the cheapest permitted
    candidate under the overflow penalty, or ``None`` (skip) when that
    cost exceeds ``new_tuple_cost``.  The pick is counted in ``usage``."""
    if max_per_key < 1:
        raise ReproError("max_per_key must be at least 1")

    def choose(pool, forbidden):
        best = None
        best_cost = math.inf
        for c in pool:
            if c in forbidden:
                continue
            over = usage.get(c, 0) + 1 - max_per_key
            cost = 0.0 if over <= 0 else penalty * over
            if cost < best_cost:
                best_cost = cost
                best = c
                if cost == 0.0:
                    break  # first under-cap candidate == the hard choice
        # A chosen ``best`` has a finite cost: an infinite one never
        # beats the initial ``best_cost``.
        if best is None or best_cost > new_tuple_cost:
            return None
        usage[best] = usage.get(best, 0) + 1
        return best

    return choose


def soft_capacity_coloring(
    graph: ConflictHypergraph,
    candidates: Sequence[object],
    max_per_key: int,
    penalty: float,
    new_tuple_cost: float,
    coloring: Optional[Dict[int, object]] = None,
    usage: Optional[Dict[object, int]] = None,
) -> Tuple[Dict[int, object], List[int]]:
    """Largest-first list coloring with penalised (soft) usage caps.

    Follows Algorithm 3's visit order and DC forbidding exactly; the only
    change is the candidate choice, which minimises the overflow penalty
    instead of hard-forbidding saturated colors.  With
    ``penalty = math.inf`` every saturated color costs infinity and the
    pass reproduces :func:`repro.extensions.capacity.capacity_coloring`
    choice-for-choice.
    """
    choose = penalised_choice(
        max_per_key, penalty, new_tuple_cost,
        usage if usage is not None else {},
    )
    return coloring_lf(
        graph, coloring if coloring is not None else {}, candidates,
        choose=choose,
    )


@register_phase2_strategy("soft_capacity")
def soft_capacity_phase2(
    r1: Relation,
    r2: Relation,
    dcs: Sequence[DenialConstraint],
    assignment: ViewAssignment,
    catalog: ComboCatalog,
    fk_column: str,
    *,
    ccs: Sequence[CardinalityConstraint] = (),
    config: Optional[SolverConfig] = None,
    options: Optional[Mapping[str, object]] = None,
) -> Phase2Result:
    """The ``"soft_capacity"`` Phase-II strategy.

    Options:

    * ``max_per_key`` (required int) — the per-key capacity;
    * ``penalty`` (float, default ``1.0``) — objective cost per unit of
      overflow; ``inf`` makes the cap hard (output-identical to the
      ``"capacity"`` strategy);
    * ``new_tuple_cost`` (float, default ``inf``) — cost of minting a
      fresh parent tuple instead of overflowing; a vertex whose cheapest
      overflow would exceed it is skipped to Algorithm 4's fresh keys.

    All DCs hold exactly; capacities may overflow, and the realised
    per-key overflow is reported in the result.
    """
    options = dict(options or {})
    max_per_key = options.pop("max_per_key", None)
    penalty = options.pop("penalty", 1.0)
    new_tuple_cost = options.pop("new_tuple_cost", math.inf)
    if options:
        raise ReproError(
            f"unknown soft_capacity strategy options {sorted(options)}"
        )
    if not isinstance(max_per_key, int) or isinstance(max_per_key, bool):
        raise ReproError(
            "the soft_capacity strategy requires an integer "
            "'max_per_key' option"
        )
    penalty = float(penalty)
    new_tuple_cost = float(new_tuple_cost)
    if penalty <= 0:
        raise ReproError("soft_capacity 'penalty' must be positive")
    if new_tuple_cost < 0:
        raise ReproError("soft_capacity 'new_tuple_cost' must be >= 0")

    usage: Dict[object, int] = {}
    choose = penalised_choice(max_per_key, penalty, new_tuple_cost, usage)
    result = run_phase2(
        r1, r2, dcs, assignment, catalog, fk_column, ccs=ccs,
        executor=executor_from_config(config),
        rule=ColoringRule(
            lambda combo: choose, fresh_invalid=True, usage=usage
        ),
    )
    result.overflow = {
        key: count - max_per_key
        for key, count in usage.items()
        if count > max_per_key
    }
    result.stats.total_overflow = sum(result.overflow.values())
    return result
