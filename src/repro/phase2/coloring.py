"""Algorithm 3 — largest-first list coloring of the conflict hypergraph.

Uncolored vertices are visited in non-increasing degree order.  A color is
*forbidden* for ``v`` when some incident edge has every other member
already colored with that same color (for binary edges: the neighbour's
color).  The vertex takes the smallest permitted candidate; if every
candidate is forbidden the vertex is *skipped* and returned to the caller
(Algorithm 4 then mints fresh colors, i.e. fresh R2 keys).

This is the only largest-first pass: the capacity-family strategies keep
its visit order and forbidding and swap in their own candidate choice
through the ``choose`` hook.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.phase2.hypergraph import ConflictHypergraph

__all__ = ["Choose", "coloring_lf"]

#: ``choose(pool, forbidden) -> color or None``: one vertex's pick from
#: its candidate pool given the DC-forbidden colors; ``None`` skips the
#: vertex.  A returned color is assigned, so a rule that tracks usage
#: counts it inside ``choose``.
Choose = Callable[[Sequence[object], Set[object]], Optional[object]]


def coloring_lf(
    graph: ConflictHypergraph,
    coloring: Dict[int, object],
    candidates: Sequence[object],
    candidate_lists: Optional[Dict[int, Sequence[object]]] = None,
    choose: Optional[Choose] = None,
) -> Tuple[Dict[int, object], List[int]]:
    """Run one largest-first pass; returns ``(coloring, skipped)``.

    ``coloring`` may already hold colors (the second pass of Algorithm 4
    builds on the first); it is updated in place and also returned.
    ``candidate_lists`` optionally overrides the shared candidate list per
    vertex (used by the unpartitioned ablation, where lists differ per
    tuple).  ``choose`` replaces the default first-permitted-candidate
    pick (see :data:`Choose`).
    """
    order = sorted(
        (v for v in graph.vertices if v not in coloring),
        key=lambda v: (-graph.degree(v), v),
    )
    skipped: List[int] = []
    for v in order:
        forbidden = set()
        for edge in graph.incident_edges(v):
            others = [u for u in edge if u != v]
            colors = {coloring.get(u) for u in others}
            if len(colors) == 1:
                (only,) = colors
                if only is not None:
                    forbidden.add(only)
        pool = candidates
        if candidate_lists is not None and v in candidate_lists:
            pool = candidate_lists[v]
        if choose is None:
            chosen = next((c for c in pool if c not in forbidden), None)
        else:
            chosen = choose(pool, forbidden)
        if chosen is None:
            skipped.append(v)
        else:
            coloring[v] = chosen
    return coloring, skipped
