"""Content-addressed cache keys for compiled circuits.

A cache key names *everything that determines the compiled artifact*: the
synthesis strategy and its ``(d, k)`` scenario, the compilation stage
(macro synthesis vs. G-gate lowering), the canonical spec of the pass
pipeline that would run, and a code-version salt that is bumped whenever
the compilers change behaviour without changing their inputs.  Keys are
the SHA-256 of a canonical JSON rendering, so they are

* **stable across processes** — no reliance on ``hash()`` (which is
  randomised per process), dict ordering, or object identity;
* **sensitive to the pipeline** — two pipelines whose
  :meth:`~repro.passes.base.PassPipeline.spec` differ produce different
  keys, as does a different ``max_sweeps`` on ``ExpandMacros``;
* **sensitive to the salt** — bumping :data:`CODE_VERSION` (or passing a
  custom ``salt=``) invalidates every previously cached artifact at once.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from repro.exceptions import ReproError

#: Bump whenever synthesis or lowering output changes for identical inputs
#: (a new peephole rule, a changed template, a serialization format change).
#: Every key embeds this, so stale artifacts are never deserialized.
CODE_VERSION = "repro-exec-2"

#: Version of the key layout itself (field names / ordering below).
_KEY_LAYOUT = 2


def pipeline_spec(pipeline) -> object:
    """The canonical JSON-able spec of a pipeline (or pass), or ``None``.

    Accepts a :class:`~repro.passes.base.PassPipeline`, a single
    :class:`~repro.passes.base.Pass`, an already-JSON-able spec, or ``None``
    (meaning "the default lowering pipeline of this code version", which the
    salt covers).
    """
    if pipeline is None:
        return None
    spec = getattr(pipeline, "spec", None)
    if callable(spec):
        return spec()
    if isinstance(pipeline, (dict, list, tuple, str, int, float, bool)):
        return pipeline
    raise ReproError(f"cannot derive a pipeline spec from {pipeline!r}")


def cache_key(
    strategy: str,
    dim: int,
    k: int,
    *,
    stage: str = "lowered",
    pipeline=None,
    salt: Optional[str] = None,
) -> str:
    """The content address of one compiled artifact (SHA-256 hex digest).

    ``stage`` is ``"synth"`` for the macro-level synthesis output and
    ``"lowered"`` for the G-gate form; ``pipeline`` is hashed through
    :func:`pipeline_spec`.
    """
    payload = {
        "layout": _KEY_LAYOUT,
        "salt": salt if salt is not None else CODE_VERSION,
        "strategy": str(strategy),
        "d": int(dim),
        "k": int(k),
        "stage": str(stage),
        "pipeline": pipeline_spec(pipeline),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()
