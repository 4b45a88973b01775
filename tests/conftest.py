"""Shared pytest fixtures and helpers for the repro test suite.

The samplers here are thin wrappers over the library's own seeded code
paths — :func:`repro.verify.sample_basis_states` for basis-state
sampling and the ``assert_*`` verifiers for semantic checks — so the test
suite and the fuzzing subsystem (:mod:`repro.fuzz`) exercise one
implementation rather than each carrying a private sampler.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import VerificationError
from repro.verify import (
    VerificationBudget,
    assert_implements_permutation,
    sample_basis_states,
)
from repro.utils.indexing import iterate_basis

#: Seed of ``exhaustive_states``'s deterministic fallback sample (the
#: verifier-based helpers below use the verifiers' own default seeds).
SAMPLE_SEED = 99


@pytest.fixture
def rng():
    """A deterministic random generator for tests."""
    return random.Random(20230323)


def exhaustive_states(dim: int, num_wires: int, limit: int = 250_000):
    """All basis states if the space is small enough, else a seeded sample.

    The sampled branch goes through the same
    :func:`repro.verify.sample_basis_states` code path the verifiers
    and the fuzz generators use.
    """
    total = dim**num_wires
    if total <= limit:
        yield from iterate_basis(dim, num_wires)
        return
    yield from sample_basis_states(dim, num_wires, 2000, SAMPLE_SEED)


def circuit_matches_function(circuit, spec, limit: int = 250_000) -> bool:
    """Return True if the circuit maps every (sampled) basis state per ``spec``.

    Delegates to :func:`repro.verify.assert_implements_permutation`
    (exhaustive below ``limit`` basis states, seeded-sample fallback above).
    """
    try:
        assert_implements_permutation(
            circuit, spec, budget=VerificationBudget(max_basis_states=limit)
        )
    except VerificationError:
        return False
    return True


@pytest.fixture
def tampered_cache_dir(tmp_path):
    """A compile-cache directory whose ``mct`` d=3 k=3 entry lost one row.

    The entry is built, then its archive is re-saved with
    :func:`repro.exec.serialize.save_table` minus its middle row, so it
    still loads and only a check of the served table can tell.  Returns
    ``(cache_dir, key)``.
    """
    import numpy as np

    from repro.exec import CompileCache, compile_lowered
    from repro.exec.serialize import save_table

    cache = CompileCache(tmp_path)
    key = compile_lowered("mct", 3, 3, cache=cache).key
    table = cache.get(key).table
    keep = np.ones(len(table), dtype=bool)
    keep[len(table) // 2] = False
    (archive,) = tmp_path.rglob(f"{key}.npz")
    save_table(archive, table.select(keep))
    return tmp_path, key
