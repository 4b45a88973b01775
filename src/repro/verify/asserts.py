"""Assertion helpers: check a circuit against a semantic spec, or raise.

Every synthesis routine in the library is checked against a *semantic
specification* rather than against a reference circuit:

* :func:`assert_implements_permutation` — the circuit realises a given
  classical map (k-Toffoli, P_k, reversible functions, two-controlled
  gadgets);
* :func:`assert_mct_spec` — the multi-controlled ``Xij`` of Section III;
* :func:`assert_permutation_equals_function` — a function on some wires and
  the identity on the rest;
* :func:`assert_wires_preserved` — designated wires (controls, borrowed
  ancillas) come back unchanged for every basis input, which is part of the
  paper's correctness statements;
* :func:`assert_unitary_equiv` — the circuit's unitary equals a matrix
  (optionally up to a global phase);
* :func:`assert_unitary_columns_equiv` — the same against a column oracle,
  for bases too large to build a matrix;
* :func:`assert_unitary_equiv_with_clean_ancillas` — a data-wire unitary on
  the clean-ancilla subspace (Theorem IV.1).

Each helper builds its spec and makes one
:class:`~repro.verify.verifier.TieredVerifier` call under ``budget`` — a
:class:`~repro.verify.budget.VerificationBudget`, a preset name
(``"smoke"``/``"standard"``/``"audit"``) or ``None``, which means
``standard``.  It returns the :class:`~repro.verify.report.
VerificationReport` (tier decided, states checked, replay recipe) once a
tier has verified the check, and raises
:class:`~repro.exceptions.VerificationError` otherwise: when a tier finds a
divergence, and also when the budget rules out every deciding tier, since
an assertion must not pass a check that nothing decided.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import VerificationError
from repro.qudit.circuit import QuditCircuit
from repro.sim.backend import BackendLike
from repro.verify.checks import BasisState, Spec, function_spec, mct_spec
from repro.verify.report import STATUS_SKIPPED, VerificationReport
from repro.verify.verifier import BudgetLike, TieredVerifier


def _verified(report: VerificationReport) -> VerificationReport:
    """``report`` if a tier verified the check; raise on failed or undecided."""
    report.raise_if_failed()
    if not report.ok:
        reasons = "; ".join(
            f"{record.name}: {record.detail}"
            for record in report.records
            if record.status == STATUS_SKIPPED
        )
        raise VerificationError(f"{report.summary()}: {reasons}")
    return report


def assert_implements_permutation(
    circuit: QuditCircuit,
    spec: Spec,
    *,
    clean_wires: Sequence[int] = (),
    budget: BudgetLike = None,
) -> VerificationReport:
    """Check that ``circuit`` maps every basis state exactly as ``spec`` does.

    ``clean_wires`` lists wires that the circuit assumes start in ``|0⟩``
    (clean or burnable ancillas); basis states with other values on those
    wires are outside the circuit's contract and are skipped.
    """
    return _verified(
        TieredVerifier(budget).verify_permutation(circuit, spec, clean_wires=clean_wires)
    )


def assert_wires_preserved(
    circuit: QuditCircuit, wires: Sequence[int], *, budget: BudgetLike = None
) -> VerificationReport:
    """Check that the circuit restores ``wires`` for every basis input.

    This is the borrowed-ancilla / control-preservation invariant.
    """
    return _verified(TieredVerifier(budget).verify_wires_preserved(circuit, wires))


def assert_mct_spec(
    circuit: QuditCircuit,
    controls: Sequence[int],
    target: int,
    *,
    control_values: Optional[Sequence[int]] = None,
    swap: Tuple[int, int] = (0, 1),
    clean_wires: Sequence[int] = (),
    budget: BudgetLike = None,
) -> VerificationReport:
    """Check that ``circuit`` is the multi-controlled ``Xij`` on the given
    wires and acts as the identity on every other wire.

    ``clean_wires`` restricts the check to inputs where those wires are
    ``|0⟩`` (the contract of clean ancillas)."""
    spec = mct_spec(controls, target, circuit.dim, control_values=control_values, swap=swap)
    return _verified(
        TieredVerifier(budget).verify_permutation(circuit, spec, clean_wires=clean_wires)
    )


def assert_permutation_equals_function(
    circuit: QuditCircuit,
    function: Callable[[BasisState], Sequence[int]],
    wires: Sequence[int],
    *,
    clean_wires: Sequence[int] = (),
    budget: BudgetLike = None,
) -> VerificationReport:
    """Check that the circuit implements ``function`` on a subset of wires and
    the identity elsewhere.

    ``function`` receives and returns digit tuples of length ``len(wires)``
    (see :func:`~repro.verify.checks.function_spec`).
    """
    spec = function_spec(function, wires)
    return _verified(
        TieredVerifier(budget).verify_permutation(circuit, spec, clean_wires=clean_wires)
    )


def assert_unitary_equiv(
    circuit: QuditCircuit,
    expected: np.ndarray,
    *,
    atol: float = 1e-8,
    up_to_global_phase: bool = False,
    backend: BackendLike = None,
    budget: BudgetLike = None,
) -> VerificationReport:
    """Check that the circuit's unitary equals ``expected``.

    A dense compare up to ``max_dense_dim`` basis states, sampled columns of
    ``expected`` above it.  ``backend`` selects the simulation engine used
    to evolve the circuit (``None`` is ``"dense"``).
    """
    return _verified(
        TieredVerifier(budget).verify_unitary(
            circuit,
            expected=np.asarray(expected),
            up_to_global_phase=up_to_global_phase,
            atol=atol,
            backend=backend,
        )
    )


def assert_unitary_columns_equiv(
    circuit: QuditCircuit,
    expected_column: Callable[[int], np.ndarray],
    *,
    required_columns: Sequence[int] = (),
    atol: float = 1e-8,
    up_to_global_phase: bool = False,
    backend: BackendLike = None,
    budget: BudgetLike = None,
) -> VerificationReport:
    """Sampled-column unitary check for bases too large to build a matrix.

    See :func:`repro.verify.checks.unitary_columns` for the cost model and
    sampling strategy (columns are drawn one digit per wire, so the check
    scales past ``int64`` register sizes up to the memory wall of one
    statevector batch).  ``required_columns`` are always checked.
    """
    return _verified(
        TieredVerifier(budget).verify_unitary(
            circuit,
            expected_column=expected_column,
            required_columns=required_columns,
            up_to_global_phase=up_to_global_phase,
            atol=atol,
            backend=backend,
        )
    )


def assert_unitary_equiv_with_clean_ancillas(
    circuit: QuditCircuit,
    expected: np.ndarray,
    data_wires: Sequence[int],
    clean_wires: Sequence[int],
    *,
    atol: float = 1e-8,
    backend: BackendLike = None,
    budget: BudgetLike = None,
) -> VerificationReport:
    """Check a circuit that uses clean ancillas against a data-wire unitary.

    The circuit is only required to implement ``expected`` on the subspace
    where every clean ancilla starts in ``|0⟩`` and to return the ancillas to
    ``|0⟩`` (i.e. not leak amplitude outside that subspace).  ``expected``
    acts on the data wires only.  The check needs the full matrix, so above
    ``max_dense_dim`` basis states it is undecided and raises.
    """
    return _verified(
        TieredVerifier(budget).verify_unitary_clean_ancillas(
            circuit,
            np.asarray(expected),
            data_wires,
            clean_wires,
            atol=atol,
            backend=backend,
        )
    )
