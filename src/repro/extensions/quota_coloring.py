"""Quota coloring: per-combo caps on children absorbed per parent key.

The hard ``"capacity"`` strategy caps every key globally.  Quota coloring
refines that: the cap is declared *per B-combo* — e.g. "a household whose
``Tenure`` is ``'Rented'`` hosts at most 2 persons, any other household
is unlimited".  Each combo partition (the Section 5.2 partitioning,
computed by the columnar ``group_by_combo`` kernel) is colored with its
own per-key quota; partitions without a quota run the paper's plain
Algorithm 3/4, so a quota-free edge is output-identical to the
``"coloring"`` strategy.  Both are coloring rules handed to
:func:`repro.phase2.fk_assignment.run_phase2`, the one Algorithm-4
driver.

Options:

* ``quotas`` — a list of ``{match: {attr: value, ...}, quota: int}``
  entries; a combo uses the first entry whose ``match`` values all equal
  the combo's values (an empty ``match`` matches every combo);
* ``default_quota`` — the quota for combos no entry matches
  (``None``/omitted = unlimited).

In TOML::

    [[edges]]
    child = "persons"
    column = "hid"
    parent = "housing"
    strategy = "quota_coloring"

    [edges.options]
    default_quota = 6

    [[edges.options.quotas]]
    quota = 2
    [edges.options.quotas.match]
    Tenure = "Rented"
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.core.config import SolverConfig
from repro.core.stages import register_phase2_strategy
from repro.errors import ReproError
from repro.extensions.capacity import capped_choice
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase2.coloring import Choose
from repro.phase2.fk_assignment import ColoringRule, Phase2Result, run_phase2
from repro.relational.executor import executor_from_config
from repro.relational.relation import Relation

__all__ = ["resolve_quota", "quota_coloring_phase2"]


def _validated_quotas(
    options: Mapping[str, object],
) -> Tuple[List[Tuple[Dict[str, object], int]], Optional[int]]:
    """Parse and validate the ``quotas``/``default_quota`` options."""
    entries = options.get("quotas", [])
    if not isinstance(entries, (list, tuple)):
        raise ReproError(
            "quota_coloring 'quotas' must be a list of "
            "{match, quota} entries"
        )
    quotas: List[Tuple[Dict[str, object], int]] = []
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise ReproError(
                f"quota entry {entry!r} is not a {{match, quota}} table"
            )
        unknown = set(entry) - {"match", "quota"}
        if unknown:
            raise ReproError(
                f"unknown quota entry fields {sorted(unknown)} "
                "(known: ['match', 'quota'])"
            )
        quota = entry.get("quota")
        if not isinstance(quota, int) or isinstance(quota, bool) or quota < 1:
            raise ReproError(
                f"quota entry {entry!r} needs an integer quota >= 1"
            )
        match = entry.get("match", {})
        if not isinstance(match, Mapping):
            raise ReproError(
                f"quota entry match {match!r} must map attributes to values"
            )
        quotas.append((dict(match), quota))
    default = options.get("default_quota")
    if default is not None and (
        not isinstance(default, int)
        or isinstance(default, bool)
        or default < 1
    ):
        raise ReproError("quota_coloring 'default_quota' must be >= 1")
    return quotas, default


def resolve_quota(
    combo_values: Mapping[str, object],
    quotas: Sequence[Tuple[Mapping[str, object], int]],
    default_quota: Optional[int],
) -> Optional[int]:
    """The quota for one combo: first matching entry, else the default."""
    for match, quota in quotas:
        if all(combo_values.get(a) == v for a, v in match.items()):
            return quota
    return default_quota


@register_phase2_strategy("quota_coloring")
def quota_coloring_phase2(
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
    """The ``"quota_coloring"`` Phase-II strategy.

    Each quota'd partition is colored with :func:`capped_choice` at its
    quota, every other one with plain Algorithm 3.  Partitions are always
    colored sequentially per combo (quotas are per-combo state, so the
    ``partitioned_coloring``/``parallel_workers`` ablation knobs do not
    apply).  With no quotas configured at all the output is identical to
    the ``"coloring"`` strategy, invalid-tuple handling included; with
    quotas, invalid tuples take the conservative fresh-key escape hatch
    (one key per row, which can never breach a quota).
    """
    options = dict(options or {})
    quotas, default_quota = _validated_quotas(options)
    unknown = set(options) - {"quotas", "default_quota"}
    if unknown:
        raise ReproError(
            f"unknown quota_coloring strategy options {sorted(unknown)}"
        )
    # A typo'd match attribute would silently match nothing and disable
    # the quota — fail loudly against R2's actual combo attributes.
    known_attrs = set(catalog.attrs)
    for match, _ in quotas:
        bad = set(match) - known_attrs
        if bad:
            raise ReproError(
                f"quota match references unknown R2 attributes "
                f"{sorted(bad)} (known: {sorted(known_attrs)})"
            )

    def choose_for(combo: tuple) -> Optional[Choose]:
        quota = resolve_quota(catalog.as_dict(combo), quotas, default_quota)
        # Quotas are per-combo state: each partition counts its own usage.
        return None if quota is None else capped_choice(quota, {})

    unlimited = not quotas and default_quota is None
    return run_phase2(
        r1, r2, dcs, assignment, catalog, fk_column, ccs=ccs,
        executor=executor_from_config(config),
        rule=ColoringRule(choose_for, fresh_invalid=not unlimited),
    )
