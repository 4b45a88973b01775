"""Baseline: ancilla-free multi-controlled gates with exponentially many gates.

Before Di & Wei [20], the known ancilla-free syntheses of multi-controlled
qudit gates (e.g. Moraga [25]) used a number of two-qudit gates that grows
exponentially in the number of controls ``k``.  This module provides an
executable representative of that family so the comparison benchmarks are
grounded in a real circuit rather than only in a cost formula:

    ``|0^k⟩-U  =  [|0^{k-1}⟩-W]† · [|0⟩x_k-V] · [|0^{k-1}⟩-W] · [|0⟩x_k-V]†``

where ``U = W†VWV†`` is a *group commutator* factorisation of the payload.
If the inner multi-controlled block does not fire the two ``V`` gates cancel;
if the single control does not fire the two ``W`` blocks cancel; only when
*all* controls are ``|0⟩`` does the commutator ``U`` act on the target.  The
recursion doubles the gate count per control, giving ``Θ(2^k)`` two-qudit
gates and no ancilla.

The payload must lie in ``SU(d)`` (a commutator always has determinant one);
:func:`commutator_factors` computes ``V`` and ``W`` constructively from the
eigen-decomposition.  The k-Toffoli payload ``X01`` has determinant −1, so
the benchmark uses the det-normalised payload ``e^{iπ/d}·X01`` — the standard
trick, and irrelevant for gate counting.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.exceptions import DimensionError, GateError, SynthesisError
from repro.qudit.ancilla import SynthesisResult
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import Value
from repro.qudit.gates import SingleQuditUnitary, XPerm
from repro.qudit.operations import BaseOp, Operation


def commutator_factors(unitary: np.ndarray, atol: float = 1e-6) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(V, W)`` with ``V† W V W† = U`` (matrix product) for ``U`` in SU(d).

    Construction: diagonalise ``U = Q D Q†`` with ``Q`` unitary,
    ``D = diag(e^{iθ_j})`` and ``Σθ_j ≡ 0 (mod 2π)``.  With ``S`` the
    cyclic-shift permutation and ``R = diag(e^{iφ_j})`` chosen so that
    ``φ_{j+1} − φ_j = θ_j`` (consistent cyclically because the phases sum to
    zero), ``S† R S R† = D``.  Returning ``V = Q S Q†`` and ``W = Q R Q†``
    therefore satisfies the *circuit* identity ``V† @ W @ V @ W† = U``:
    applying ``W†`` first, then ``V``, then ``W``, then ``V†`` realises ``U``
    on the fired subspace.

    ``Q`` is the QR orthonormalisation of ``np.linalg.eig``'s eigenvectors.
    The eigenspaces of a normal matrix are mutually orthogonal, so the
    Gram–Schmidt order of QR only mixes vectors within one (degenerate)
    eigenspace, and each column of ``Q`` stays an eigenvector; ``θ_j`` is read
    back from ``Q† U Q``.  The final ``allclose`` check guards the result.
    """
    matrix = np.asarray(unitary, dtype=complex)
    d = matrix.shape[0]
    det = np.linalg.det(matrix)
    if abs(det - 1.0) > 1e-6:
        raise GateError("commutator factorisation requires a determinant-one unitary")
    q, _ = np.linalg.qr(np.linalg.eig(matrix)[1])
    thetas = np.angle(np.diag(q.conj().T @ matrix @ q))
    # Cumulative phases: φ_{j+1} − φ_j = θ_j  ⇒  φ_j = Σ_{m<j} θ_m, which is
    # cyclically consistent because the θ's sum to 0 (mod 2π) on SU(d).
    phis = np.concatenate([[0.0], np.cumsum(thetas)[:-1]])
    shift = np.roll(np.eye(d), 1, axis=0)  # S|j⟩ = |j+1 mod d⟩
    rotation = np.diag(np.exp(1j * phis))
    v = q @ shift @ q.conj().T
    w = q @ rotation @ q.conj().T
    candidate = v.conj().T @ w @ v @ w.conj().T
    if not np.allclose(candidate, matrix, atol=atol):
        raise GateError("commutator factorisation failed numerically")
    return v, w


def _check_su(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    det = np.linalg.det(matrix)
    if abs(abs(det) - 1.0) > 1e-8:
        raise GateError("payload must be unitary")
    if abs(det - 1.0) > 1e-8:
        # Normalise the determinant with a global phase (standard trick).
        matrix = matrix * det ** (-1.0 / matrix.shape[0])
    return matrix


def mcu_exponential_ops(
    dim: int, controls: List[int], target: int, payload: np.ndarray
) -> List[BaseOp]:
    """Recursive commutator construction (ancilla-free, Θ(2^k) gates)."""
    matrix = _check_su(payload)
    k = len(controls)
    if k == 0:
        return [Operation(SingleQuditUnitary(matrix, label="U"), target)]
    if k == 1:
        return [
            Operation(SingleQuditUnitary(matrix, label="U"), target, [(controls[0], Value(0))])
        ]
    v, w = commutator_factors(matrix)
    v_gate = SingleQuditUnitary(v, label="V", check=False)
    inner = mcu_exponential_ops(dim, controls[:-1], target, w)
    inner_inverse = [op.inverse() for op in reversed(inner)]
    last = controls[-1]
    return (
        inner_inverse
        + [Operation(v_gate, target, [(last, Value(0))])]
        + inner
        + [Operation(v_gate.inverse(), target, [(last, Value(0))])]
    )


def toffoli_payload_su(dim: int) -> np.ndarray:
    """The det-normalised k-Toffoli payload ``e^{iπ/d}·X01``."""
    return _check_su(XPerm.transposition(dim, 0, 1).matrix())


def synthesize_mcu_exponential(dim: int, num_controls: int, payload=None) -> SynthesisResult:
    """Ancilla-free exponential baseline on a fresh register.

    Wires ``0 .. k-1`` are controls, wire ``k`` is the target; no ancilla.
    ``payload`` defaults to the det-normalised Toffoli payload.

    .. note::
       Registered in :mod:`repro.synth` as ``"mcu-exponential"`` with a
       closed-form Θ(2^k) estimator; for very small ``k`` the ``auto``
       dispatcher correctly prefers it over the linear constructions.
    """
    if dim < 2:
        raise DimensionError("dimension must be at least 2")
    if num_controls < 0:
        raise SynthesisError("the number of controls must be non-negative")
    matrix = toffoli_payload_su(dim) if payload is None else payload
    controls = list(range(num_controls))
    target = num_controls
    circuit = QuditCircuit(num_controls + 1, dim, name=f"MCU_exponential(k={num_controls}, d={dim})")
    circuit.extend(mcu_exponential_ops(dim, controls, target, matrix))
    return SynthesisResult(
        circuit=circuit,
        controls=tuple(controls),
        target=target,
        ancillas={},
        notes="baseline [25]-style: ancilla-free commutator recursion, Θ(2^k) gates",
    )
