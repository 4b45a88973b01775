"""The ``pk``, ``increment`` and ``reversible`` verifiers map whole digit
matrices.

Each strategy checks its circuits against an :class:`~repro.verify.checks.
ArraySpec` over the ``(N, n)`` digit matrix (``pk_h`` on the last data
wire, the ripple increment, a lookup into the reversible function's table)
instead of a per-state Python function wrapped row by row.  These tests
hold each array spec to its per-state reference on the whole basis and the
verification reports to the ones the per-state specs give.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications.arithmetic import increment_reference, increment_rows
from repro.applications.reversible import random_reversible_function
from repro.core.pk import pk_h, pk_h_rows, pk_map
from repro.synth import registry
from repro.synth.strategies import increment_spec, pk_spec, reversible_spec
from repro.utils.indexing import digit_matrix, digits_to_index, index_to_digits
from repro.verify import TieredVerifier, VerificationBudget
from repro.verify.checks import ArraySpec, function_spec


def per_state_spec(name: str, dim: int, k: int):
    """The per-state reference each strategy verified against before."""
    if name == "pk":
        return function_spec(lambda digits: pk_map(dim, digits), range(k))
    if name == "increment":
        return function_spec(lambda digits: increment_reference(dim, k, digits), range(k))
    table = random_reversible_function(dim, k, seed=0)
    return function_spec(
        lambda digits: index_to_digits(table[digits_to_index(digits, dim)], dim, k), range(k)
    )


ARRAY_SPECS = {"pk": pk_spec, "increment": increment_spec, "reversible": reversible_spec}

CASES = [
    pytest.param(name, dim, k, id=f"{name}-{dim}-{k}")
    for name in ("pk", "increment", "reversible")
    for dim in (3, 4, 5)
    for k in (1, 2, 3, 4)
    if registry.get(name).supports(dim, k) and dim ** (k + 1) <= 5**4
]


def test_pk_exists_for_odd_d_only():
    pk = registry.get("pk")
    assert pk.supports(3, 2) and pk.supports(5, 2) and not pk.supports(4, 2)
    assert {case.values[0] for case in CASES} == {"pk", "increment", "reversible"}


@pytest.mark.parametrize("name,dim,k", CASES)
def test_array_spec_equals_the_per_state_reference_on_the_whole_basis(name, dim, k):
    wires = registry.get(name).layout(dim, k)[0]
    basis = digit_matrix(dim, wires)
    spec = ARRAY_SPECS[name](dim, k)
    assert isinstance(spec, ArraySpec)
    expected = ArraySpec.rowwise(per_state_spec(name, dim, k)).apply(basis)
    assert np.array_equal(spec.apply(basis), expected)


@pytest.mark.parametrize("dim", (3, 5))
@pytest.mark.parametrize("k", (1, 2, 3, 5))
def test_pk_h_rows_is_pk_h_per_row(dim, k):
    values = digit_matrix(dim, k)
    assert pk_h_rows(dim, values).tolist() == [pk_h(dim, row) for row in values.tolist()]


@pytest.mark.parametrize("dim", (2, 3, 4, 5))
@pytest.mark.parametrize("amount", (1, 2, -1))
def test_increment_rows_is_the_reference_per_row(dim, amount):
    states = digit_matrix(dim, 3)
    expected = [list(increment_reference(dim, 3, row, amount)) for row in states.tolist()]
    assert increment_rows(dim, states, amount).tolist() == expected


@pytest.mark.parametrize("name,dim,k", CASES)
@pytest.mark.parametrize("level", ("smoke", "standard"))
def test_reports_match_the_per_state_specs(name, dim, k, level):
    strategy = registry.get(name)
    circuit = strategy.synthesize(dim, k).circuit
    budget = VerificationBudget.preset(level)
    report = strategy.verify(circuit, dim, k, budget=budget)
    reference = TieredVerifier(budget).verify_permutation(
        circuit,
        per_state_spec(name, dim, k),
        clean_wires=strategy.verified_clean_wires(circuit, dim, k),
    )
    assert report.ok and report.to_json() == reference.to_json()


@pytest.mark.parametrize("name,dim,k", [("pk", 3, 3), ("increment", 4, 2), ("reversible", 3, 2)])
def test_failure_reports_match_the_per_state_specs(name, dim, k):
    """A circuit missing its middle op fails with the same message either way."""
    strategy = registry.get(name)
    circuit = strategy.synthesize(dim, k).circuit
    table = circuit.to_table()
    keep = np.ones(len(table), dtype=bool)
    keep[len(table) // 2] = False
    broken = table.select(keep).to_circuit(name="broken")
    report = TieredVerifier("standard").verify_permutation(
        broken, ARRAY_SPECS[name](dim, k),
        clean_wires=strategy.verified_clean_wires(broken, dim, k),
    )
    reference = TieredVerifier("standard").verify_permutation(
        broken, per_state_spec(name, dim, k),
        clean_wires=strategy.verified_clean_wires(broken, dim, k),
    )
    assert report.status == "failed" and report.to_json() == reference.to_json()
