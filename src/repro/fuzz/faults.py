"""Deterministic solver-fault and result-corruption injection.

Two context managers wrap the per-edge solve
(:func:`repro.core.parallel_snowflake.solve_edge`) for the span of a
``with`` block:

* :func:`failing_solver` — the Nth in-process edge solve raises
  :class:`InjectedFault`.  The oracle uses it to prove (a) that
  ``synthesize()`` is transactional — the failure propagates and no
  partially-synthesized database escapes — and (b) that a cache-backed
  :func:`repro.service.engine.run_spec` resumes from its per-edge
  checkpoints to byte-identical output;
* :func:`chaos_edge` — the Nth solve *succeeds* but its FK assignment
  is deterministically corrupted (the column is rolled by one).  This
  manufactures a real divergence for the oracle → minimizer → replay
  pipeline to catch, shrink and reproduce — the fuzzer testing itself.

Both patch every module that calls ``solve_edge`` by its global name
(:mod:`repro.core.parallel_snowflake`, :mod:`repro.core.snowflake`).
``synthesize()`` and the service engine run the same traversal,
:meth:`~repro.core.snowflake.SnowflakeSynthesizer.solve`, so one patch
covers both.  They are **in-process only**: a patch never reaches pool
workers, so injected runs must use ``workers = 0``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Dict, Iterator

import numpy as np

from repro.core import parallel_snowflake, snowflake
from repro.errors import SolverError
from repro.relational.relation import Relation

__all__ = ["InjectedFault", "failing_solver", "chaos_edge"]

#: Every module that calls ``solve_edge`` through its global namespace.
_PATCH_SITES = (parallel_snowflake, snowflake)


class InjectedFault(SolverError):
    """The deterministic failure :func:`failing_solver` raises."""


@contextmanager
def _patched(wrapper: Callable) -> Iterator[None]:
    originals = [site.solve_edge for site in _PATCH_SITES]
    for site in _PATCH_SITES:
        site.solve_edge = wrapper
    try:
        yield
    finally:
        for site, original in zip(_PATCH_SITES, originals):
            site.solve_edge = original


@contextmanager
def failing_solver(fail_on: int) -> Iterator[Dict[str, int]]:
    """Raise :class:`InjectedFault` on the ``fail_on``-th edge solve.

    Counts in-process solves from 0 in traversal order; yields the live
    counter dict (``{"calls": n}``) so callers can assert how far the
    run got before the injected failure.
    """
    counter = {"calls": 0}
    original = parallel_snowflake.solve_edge

    def wrapper(extended, parent, fk_column, constraints, config):
        index = counter["calls"]
        counter["calls"] += 1
        if index == fail_on:
            raise InjectedFault(
                f"injected solver fault on edge #{fail_on} "
                f"(fk column {fk_column!r})"
            )
        return original(extended, parent, fk_column, constraints, config)

    with _patched(wrapper):
        yield counter


def corrupt_step(step, fk_column: str):
    """``step`` with its FK assignment rolled by one position.

    A no-op when the child has fewer than two rows or every row was
    assigned the same parent — callers that *need* a divergence should
    pick their edge (or seed) accordingly.
    """
    columns = {
        name: step.r1_hat.column(name)
        for name in step.r1_hat.schema.names
    }
    columns[fk_column] = np.roll(columns[fk_column], 1)
    return replace(step, r1_hat=Relation(step.r1_hat.schema, columns))


@contextmanager
def chaos_edge(corrupt_on: int) -> Iterator[Dict[str, int]]:
    """Deterministically corrupt the ``corrupt_on``-th edge's output.

    The solve itself succeeds; its FK column is rolled by one before the
    result is committed, so the run completes but its database diverges
    from an uncorrupted run — the induced bug the fuzz pipeline's
    end-to-end test must catch, minimize and reproduce.
    """
    counter = {"calls": 0}
    original = parallel_snowflake.solve_edge

    def wrapper(extended, parent, fk_column, constraints, config):
        index = counter["calls"]
        counter["calls"] += 1
        step = original(extended, parent, fk_column, constraints, config)
        if index == corrupt_on:
            step = corrupt_step(step, fk_column)
        return step

    with _patched(wrapper):
        yield counter
