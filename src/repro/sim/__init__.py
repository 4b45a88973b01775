"""Simulators for qudit circuits.

The simulation engines live in :mod:`repro.sim.backend` and are selected by
name (``"dense"``, ``"sparse"``, ``"streaming"``; :func:`available_backends`
lists them) wherever a ``backend=`` parameter appears —
:class:`Statevector`, :func:`circuit_unitary` and the unitary checks of
:mod:`repro.verify`, which checks circuits on these simulators (this package
imports nothing from it).
"""

from repro.sim.backend import (
    DenseBackend,
    SimulationBackend,
    available_backends,
    default_backend,
    get_backend,
    register_backend,
    set_default_backend,
    unregister_backend,
)
from repro.sim.streaming import (
    DEFAULT_MEMORY_BUDGET,
    StreamingBackend,
    parse_memory_budget,
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
from repro.sim.batch import BatchedStatevector, apply_to_basis_indices
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
    "StreamingBackend",
    "DEFAULT_MEMORY_BUDGET",
    "MATERIALIZE_LIMIT",
    "available_backends",
    "default_backend",
    "get_backend",
    "parse_memory_budget",
    "register_backend",
    "set_default_backend",
    "unregister_backend",
    "apply_to_basis",
    "function_table",
    "permutation_index_table",
    "permutation_parity",
    "permutation_table",
    "states_differing_on",
    "BatchedStatevector",
    "apply_to_basis_indices",
    "Statevector",
    "circuit_unitary",
    "controlled_unitary_matrix",
    "multi_controlled_unitary_matrix",
]
