"""Spec normalization: canonical fingerprints of the work a query does.

Work sharing needs to recognize that two in-flight queries would do the
same work.  The recognizer is a *fingerprint*: a canonical string built
from a :class:`~repro.core.specs.QuerySpec`'s query name, scale factor
and full pipeline structure, hashed with a content hash.

* :func:`spec_fingerprint` is what the backends fold by and what the
  epoch backends' fragment result cache keys on.  Engine-mode specs
  are derived deterministically from the plans
  (:func:`~repro.engine.execution.engine_query_spec`), so equal spec
  fingerprints imply equal plans on the same database.
* :func:`spec_fragment_fingerprint` keys only the leading (scan)
  pipeline; the cluster's sharing-affinity placement uses it.

Scheduling metadata (tags, priorities, deadlines, SLA decoration) is
deliberately **excluded**: it changes *when* a query runs, never *what*
it computes, so it must not break fold compatibility.

Determinism: everything is encoded to explicit strings and digested
with :mod:`hashlib` — never Python's ``hash()``, whose output varies
with ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib

from repro.core.specs import QuerySpec


def _digest(text: str) -> str:
    """Stable short content hash of a canonical string."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def _spec_pipeline_key(pipeline) -> str:
    return (
        f"{pipeline.name};{pipeline.tuples};{pipeline.tuples_per_second!r};"
        f"{pipeline.parallel_efficiency!r};{pipeline.supports_adaptive};"
        f"{pipeline.fixed_morsel_tuples};{pipeline.finalize_seconds!r}"
    )


def spec_fingerprint(spec: QuerySpec) -> str:
    """Canonical key of the work a :class:`QuerySpec` describes.

    Covers the query name, scale factor, compile cost and the full
    pipeline structure; excludes tags, priorities and deadlines, which
    affect scheduling but not the computed result.
    """
    return _digest(
        f"spec({spec.name}@{spec.scale_factor!r};{spec.compile_seconds!r})|"
        + "|".join(_spec_pipeline_key(p) for p in spec.pipelines)
    )


def spec_fragment_fingerprint(spec: QuerySpec) -> str:
    """Canonical key of a spec's leading (scan) pipeline only.

    Unlike :func:`spec_fingerprint` this deliberately drops the query
    name: two different queries whose leading scans match (same table,
    same cardinality, same rate) share a fragment, which is what the
    cluster's sharing-affinity placement keys on.
    """
    return _digest(
        f"fragment(@{spec.scale_factor!r})|"
        + _spec_pipeline_key(spec.pipelines[0])
    )
