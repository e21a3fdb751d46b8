"""Synthesis as a service: jobs, caching, and incremental re-synthesis.

The package layers a long-running front end over the one-shot
:func:`repro.spec.synthesize` pipeline:

* :mod:`repro.service.cache` — the dependency-keyed edge-result cache
  (and, persisted, the crash-safe per-edge checkpoint store);
* :mod:`repro.service.engine` — :func:`run_spec`, which runs the one
  snowflake traversal with the edge cache as its result source: hits
  are spliced and misses checkpointed, byte-identical to a cold
  :func:`~repro.spec.synthesize`;
* :mod:`repro.service.jobs` — :class:`JobManager`, async job
  submission on a bounded worker budget with durable job directories;
* :mod:`repro.service.http` / :mod:`repro.service.client` — the
  stdlib HTTP server (``repro-synth serve``) and its Python client.
"""

from repro.service.cache import CachedEdge, EdgeCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.engine import SynthesisCancelled, run_spec
from repro.service.http import ServiceServer
from repro.service.jobs import JOB_STATES, JobManager, JobNotFound

__all__ = [
    "CachedEdge",
    "EdgeCache",
    "JOB_STATES",
    "JobManager",
    "JobNotFound",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "SynthesisCancelled",
    "run_spec",
]
