"""Declarative synthesis workloads: one spec, one ``synthesize()``.

``repro.spec`` is the front door over every pipeline in the library —
two-table C-Extension, snowflake traversal and capacity-capped edges —
described by a single :class:`SynthesisSpec` that loads from a TOML/JSON
file (:func:`load_spec`), builds fluently (:class:`SpecBuilder`), and
executes with :func:`synthesize`.
"""

from repro.spec.api import (
    EdgeReport,
    SynthesisResult,
    synthesize,
)
from repro.spec.builder import SpecBuilder
from repro.spec.discover import discover_spec
from repro.spec.fingerprint import (
    RESULT_OPTION_FIELDS,
    edge_fingerprints,
    result_options,
)
from repro.spec.io import load_spec, save_spec, toml_dumps
from repro.spec.model import EdgeSpec, RelationSpec, SynthesisSpec

__all__ = [
    "EdgeReport",
    "EdgeSpec",
    "RESULT_OPTION_FIELDS",
    "RelationSpec",
    "SpecBuilder",
    "SynthesisResult",
    "SynthesisSpec",
    "discover_spec",
    "edge_fingerprints",
    "load_spec",
    "result_options",
    "save_spec",
    "synthesize",
    "toml_dumps",
]
