"""Conversions between computational-basis labels and flat indices.

A basis state of ``n`` qudits of dimension ``d`` is written as a tuple of
digits ``(x_0, ..., x_{n-1})`` with wire 0 as the most significant digit, so
that the flat index of ``|x_0 ... x_{n-1}⟩`` is the base-``d`` number
``x_0 x_1 ... x_{n-1}``.  This matches the usual tensor-product ordering
``wire0 ⊗ wire1 ⊗ ...`` used by the dense simulators.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.exceptions import DimensionError, WireError

#: Largest flat basis index an ``int64`` holds.  The batched index paths
#: (:meth:`~repro.ir.table.GateTable.apply_to_indices`, the sparse engine,
#: the sampled verification tiers) carry basis states as ``int64`` flat
#: indices, so they serve registers of at most this many states.
INT64_MAX = int(np.iinfo(np.int64).max)


def basis_fits_int64(dim: int, num_wires: int) -> bool:
    """Whether the register's size ``d^n`` fits an ``int64`` (at most
    ``2^63 - 1``, so every flat index does too), decided exactly."""
    # d >= 2, so 64 or more wires never fit; this also keeps d**n small.
    return num_wires < 64 and int(dim) ** int(num_wires) <= INT64_MAX


def require_int64_basis(dim: int, num_wires: int, context: str) -> int:
    """Return ``d^n``, or raise :class:`~repro.exceptions.WireError` when
    the register's flat indices would overflow ``int64``.

    Past ``2^63 - 1`` the stride arithmetic of the batched index paths
    silently wraps (and an index that large cannot even be stored), so they
    refuse the register instead of returning wrong images.
    """
    if not basis_fits_int64(dim, num_wires):
        raise WireError(
            f"{context}: basis of {dim}^{num_wires} states exceeds the int64 "
            f"flat-index range (2^63 - 1); this register is too large for the "
            f"batched index paths"
        )
    return int(dim) ** int(num_wires)


def digits_to_index(digits: Sequence[int], dim: int) -> int:
    """Convert a digit tuple (wire 0 most significant) to a flat index."""
    if dim < 2:
        raise DimensionError(f"dimension must be at least 2, got {dim}")
    index = 0
    for digit in digits:
        if not 0 <= digit < dim:
            raise WireError(f"digit {digit} out of range for dimension {dim}")
        index = index * dim + digit
    return index


def index_to_digits(index: int, dim: int, num_wires: int) -> Tuple[int, ...]:
    """Convert a flat index back to a digit tuple of length ``num_wires``."""
    if dim < 2:
        raise DimensionError(f"dimension must be at least 2, got {dim}")
    if not 0 <= index < dim**num_wires:
        raise WireError(f"index {index} out of range for {num_wires} wires of dimension {dim}")
    digits = [0] * num_wires
    for position in range(num_wires - 1, -1, -1):
        digits[position] = index % dim
        index //= dim
    return tuple(digits)


def iterate_basis(dim: int, num_wires: int) -> Iterator[Tuple[int, ...]]:
    """Iterate over every computational-basis digit tuple in index order."""
    for index in range(dim**num_wires):
        yield index_to_digits(index, dim, num_wires)


def indices_to_digits(indices, dim: int, num_wires: int) -> np.ndarray:
    """Vectorized :func:`index_to_digits`: digits of many flat indices at once.

    Returns an integer array of shape ``indices.shape + (num_wires,)`` whose
    last axis holds the digit tuple (wire 0 most significant).
    """
    if dim < 2:
        raise DimensionError(f"dimension must be at least 2, got {dim}")
    indices = np.asarray(indices, dtype=np.int64)
    strides = dim ** np.arange(num_wires - 1, -1, -1, dtype=np.int64)
    return (indices[..., None] // strides) % dim


def digit_matrix(dim: int, num_wires: int) -> np.ndarray:
    """The ``(dim**num_wires, num_wires)`` array of every basis digit tuple,
    in flat-index order."""
    return indices_to_digits(np.arange(dim**num_wires), dim, num_wires)
