"""The synthesis-strategy interface of the registry.

A :class:`Synthesizer` packages one construction (a theorem of the paper, a
prior-work baseline, or an application-level builder) as a first-class
object with

* **capability metadata** (:class:`Capabilities`): which ``d`` parities it
  supports, what kind and how many ancillas it uses, and its asymptotic
  cost — the data the ``auto`` dispatcher and the CLI ``list`` command
  surface;
* a ``synthesize(d, k, **kwargs)`` entry point returning the usual
  :class:`~repro.qudit.ancilla.SynthesisResult`;
* an analytic ``estimate(d, k)`` returning exact
  :class:`~repro.resources.estimator.Resources` *without building the
  circuit* (strategies with payload-dependent costs return documented
  models flagged ``exact=False`` instead);
* an analytic ``layout(d, k)`` (wire count + ancilla histogram) and an
  optional ``verify(circuit, d, k)`` semantic check of any circuit built
  for ``(d, k)`` — the macro circuit (the CLI's ``synthesize --verify``)
  or the lowered table a compile cache serves (workload ``"verify"``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import DimensionError, SynthesisError, VerificationError
from repro.qudit.ancilla import SynthesisResult
from repro.resources.estimator import (
    AffineSpec,
    BatchEstimate,
    Resources,
    affine_estimate,
    affine_estimate_batch,
    batch_from_scalar,
)

#: The two parity classes the paper distinguishes.
ODD = "odd"
EVEN = "even"
BOTH_PARITIES: FrozenSet[str] = frozenset({ODD, EVEN})


@dataclass(frozen=True)
class Capabilities:
    """Static capability metadata of one synthesis strategy."""

    #: Workload family: "toffoli", "pk", "mcu", "arithmetic", "reversible",
    #: "unitary".  The ``auto`` dispatcher only ranks strategies of the
    #: requested family against each other.
    family: str
    #: Supported dimension parities ({"odd"}, {"even"} or both).
    parities: FrozenSet[str] = BOTH_PARITIES
    #: Smallest supported qudit dimension.
    min_dim: int = 3
    #: Smallest supported size parameter ``k``.
    min_k: int = 0
    #: Dominant ancilla kind ("none", "borrowed", "clean").
    ancilla_kind: str = "none"
    #: Asymptotic gate count, human-readable (e.g. "O(k·d^3) G-gates").
    gates: str = ""
    #: Asymptotic ancilla count (e.g. "1 borrowed (k ≥ 2)").
    ancillas: str = ""
    #: Payload the cost family refers to (e.g. "X01", "SU(d)").
    payload: str = "X01"
    #: True when ``estimate`` returns exact gate-for-gate counts.
    analytic: bool = True
    #: False for strategies subsumed by a dispatcher (mct-odd/mct-even are
    #: covered by "mct"), so ``auto`` does not rank duplicates.
    dispatchable: bool = True

    def supports_dim(self, dim: int) -> bool:
        if dim < self.min_dim:
            return False
        parity = ODD if dim % 2 else EVEN
        return parity in self.parities


@dataclass(frozen=True)
class AncillaBudget:
    """Per-kind caps on ancilla wires for the ``auto`` dispatcher.

    ``None`` means unconstrained.  ``AncillaBudget(clean=0)`` forbids clean
    ancillas; ``AncillaBudget(total=0)`` demands ancilla-free synthesis.
    """

    clean: Optional[int] = None
    borrowed: Optional[int] = None
    total: Optional[int] = None

    def permits(self, histogram: Mapping[str, int]) -> bool:
        if self.clean is not None and histogram.get("clean", 0) > self.clean:
            return False
        if self.borrowed is not None and histogram.get("borrowed", 0) > self.borrowed:
            return False
        if self.total is not None and sum(histogram.values()) > self.total:
            return False
        return True


class Synthesizer(abc.ABC):
    """Base class for registered synthesis strategies."""

    #: Registry key (kebab-case).
    name: str = "strategy"
    #: One-line description shown by ``python -m repro list``.
    description: str = ""
    #: Static capability metadata.
    capabilities: Capabilities

    def supports(self, dim: int, k: int) -> bool:
        """True when ``synthesize(dim, k)`` is defined."""
        return self.capabilities.supports_dim(dim) and k >= self.capabilities.min_k

    def _require(self, dim: int, k: int) -> None:
        if dim < self.capabilities.min_dim:
            raise DimensionError(
                f"strategy {self.name!r} requires d >= {self.capabilities.min_dim}, got {dim}"
            )
        if not self.capabilities.supports_dim(dim):
            raise DimensionError(
                f"strategy {self.name!r} supports {sorted(self.capabilities.parities)} "
                f"dimensions, got d={dim}"
            )
        if k < self.capabilities.min_k:
            raise SynthesisError(
                f"strategy {self.name!r} requires k >= {self.capabilities.min_k}, got {k}"
            )
        if not self.supports(dim, k):  # a subclass's narrower rule
            raise SynthesisError(f"strategy {self.name!r} does not support d={dim}, k={k}")

    @abc.abstractmethod
    def synthesize(self, dim: int, k: int, **kwargs) -> SynthesisResult:
        """Build the circuit on a fresh register."""

    @abc.abstractmethod
    def layout(self, dim: int, k: int) -> Tuple[int, Dict[str, int]]:
        """Analytic register layout: ``(num_wires, ancilla_histogram)``."""

    def estimator_spec(self, dim: int) -> Optional[AffineSpec]:
        """Affine cost-family shape, or ``None`` when not calibrated."""
        return None

    def estimate(self, dim: int, k: int) -> Resources:
        """Exact resource counts at ``(d, k)`` without building the circuit.

        The default implementation uses the calibrated affine recurrence
        (:func:`repro.resources.estimator.affine_estimate`); strategies with
        payload-dependent or super-linear costs override this.
        """
        self._require(dim, k)
        return affine_estimate(self, dim, k)

    def supports_batch(self, dim: int, ks: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`supports`: boolean mask over a ``k`` array."""
        ks = np.asarray(ks, dtype=np.int64)
        if not self.capabilities.supports_dim(dim):
            return np.zeros(ks.shape, dtype=bool)
        return ks >= self.capabilities.min_k

    def estimate_batch(self, dim: int, ks) -> BatchEstimate:
        """Exact resource counts over a whole ``k`` array.

        Affine strategies answer via one calibration per residue class plus
        numpy array arithmetic (:func:`~repro.resources.estimator.
        affine_estimate_batch`); everything else falls back to a loop over
        :meth:`estimate` with the same columnar result contract.
        """
        if self.estimator_spec(dim) is not None:
            return affine_estimate_batch(self, dim, ks)
        return batch_from_scalar(self, dim, ks)

    def layout_batch(self, dim: int, ks: np.ndarray) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Vectorized :meth:`layout`: ``(wires array, {kind: count array})``.

        The default loops over :meth:`layout`; strategies with closed-form
        layouts override this with pure array arithmetic.
        """
        ks = np.asarray(ks, dtype=np.int64)
        wires = np.zeros(ks.shape, dtype=np.int64)
        ancillas: Dict[str, np.ndarray] = {}
        for index, k in enumerate(ks.tolist()):
            w, hist = self.layout(dim, int(k))
            wires[index] = w
            for kind, count in hist.items():
                column = ancillas.get(kind)
                if column is None:
                    column = ancillas[kind] = np.zeros(ks.shape, dtype=np.int64)
                column[index] = count
        return wires, ancillas

    def verify(self, circuit, dim: int, k: int, *, budget=None):
        """Semantic check of ``circuit`` against this strategy's ``(d, k)`` spec.

        ``circuit`` is any circuit built for ``(dim, k)``: the macro circuit
        of :meth:`synthesize`, or its lowered form as a compile cache serves
        it.  The spec follows from ``(dim, k)`` alone, with wire roles from
        :meth:`layout` (see :meth:`verified_clean_wires`).  ``budget`` is a
        :class:`repro.verify.VerificationBudget`, a preset name like
        ``"smoke"``, or ``None`` for the ``standard`` preset; it bounds how
        much the check may spend.  Returns the
        :class:`repro.verify.VerificationReport` of the one
        :class:`repro.verify.TieredVerifier` run — note a report may come
        back *undecided* when the budget rules out every deciding tier,
        which is a skip, not a pass.  Raises
        :class:`~repro.exceptions.VerificationError` on failure and
        :class:`NotImplementedError` when the strategy has no canonical
        specification (payload-dependent strategies).
        """
        raise NotImplementedError(f"strategy {self.name!r} has no canonical verifier")

    def verified_clean_wires(self, circuit, dim: int, k: int) -> Tuple[int, ...]:
        """Check ``circuit`` sits on :meth:`layout`'s register; its clean wires.

        Every strategy lays out the same wire roles: controls (or data
        wires) on ``0..k-1``, the Toffoli-family target on wire ``k``, and
        its ancillas on the trailing wires.  The clean ones are returned
        (the spec pins them to ``|0⟩``).  A circuit of another dimension or
        wire count fails with :class:`~repro.exceptions.VerificationError`.
        """
        wires, ancillas = self.layout(dim, k)
        if circuit.dim != dim or circuit.num_wires != wires:
            raise VerificationError(
                f"strategy {self.name!r} lays out d={dim}, k={k} on {wires} wires; "
                f"circuit {circuit.name!r} has {circuit.num_wires} wires of "
                f"dimension {circuit.dim}"
            )
        return tuple(range(wires - ancillas.get("clean", 0), wires))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
