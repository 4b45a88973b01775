"""Simulators for qudit circuits.

The simulation engines live in :mod:`repro.sim.backend` and are selected by
name (``"dense"`` or ``"sparse"``; :func:`available_backends` lists them) or
passed as configured instances — ``DenseBackend(memory_budget="8M")`` tiles
the dense kernels under a byte budget — wherever a ``backend=`` parameter
appears: :class:`Statevector`, :func:`circuit_unitary` and the unitary
checks of :mod:`repro.verify`, which checks circuits on these simulators
(this package imports nothing from it).
"""

from repro.sim.backend import (
    DenseBackend,
    SimulationBackend,
    available_backends,
    get_backend,
    parse_memory_budget,
    register_backend,
    unregister_backend,
)
from repro.sim.sparse import (
    MATERIALIZE_LIMIT,
    SparseBackend,
    SparseState,
)
from repro.sim.permutation import (
    apply_to_basis,
    function_table,
    permutation_index_table,
    permutation_parity,
    permutation_table,
    states_differing_on,
)
from repro.sim.batch import BatchedStatevector
from repro.sim.statevector import Statevector
from repro.sim.unitary import (
    circuit_unitary,
    controlled_unitary_matrix,
    multi_controlled_unitary_matrix,
)

__all__ = [
    "DenseBackend",
    "SimulationBackend",
    "SparseBackend",
    "SparseState",
    "MATERIALIZE_LIMIT",
    "available_backends",
    "get_backend",
    "parse_memory_budget",
    "register_backend",
    "unregister_backend",
    "apply_to_basis",
    "function_table",
    "permutation_index_table",
    "permutation_parity",
    "permutation_table",
    "states_differing_on",
    "BatchedStatevector",
    "Statevector",
    "circuit_unitary",
    "controlled_unitary_matrix",
    "multi_controlled_unitary_matrix",
]
