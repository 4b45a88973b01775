"""Concrete registered strategies wrapping every construction in the repo.

Importing this module populates the registry (:mod:`repro.synth.registry`)
with the paper's own constructions (Theorems III.2/III.6, ``P_k``,
Fig. 1(b)), the prior-work baselines, and the application-level builders.
The legacy ``synthesize_*`` module functions remain the implementation;
the strategies add capability metadata, analytic estimates and canonical
verification on top, and the unified dispatchers (``synthesize_mct``)
delegate back through the registry.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SynthesisError
from repro.qudit.ancilla import AncillaKind, SynthesisResult
from repro.qudit.circuit import QuditCircuit
from repro.qudit.gates import Gate, XPerm
from repro.resources.estimator import (
    INT64_MAX,
    METRIC_FIELDS,
    AffineSpec,
    BatchEstimate,
    Resources,
    measure,
    sum_estimates,
)
from repro.synth.registry import register
from repro.synth.strategy import BOTH_PARITIES, Capabilities, EVEN, ODD, Synthesizer

from repro.core.toffoli import mct_ops
from repro.core.toffoli_even import synthesize_mct_even
from repro.core.toffoli_odd import synthesize_mct_odd
from repro.core.pk import pk_h_rows, synthesize_pk
from repro.core.multi_controlled_unitary import synthesize_mcu
from repro.core.single_controlled import controlled_transposition_g_ops
from repro.baselines.ancilla_free_exponential import synthesize_mcu_exponential
from repro.baselines.clean_ancilla_ladder import (
    clean_ancilla_count,
    synthesize_mct_clean_ladder,
)
from repro.applications.arithmetic import increment_rows, synthesize_increment
from repro.applications.reversible import (
    random_reversible_function,
    synthesize_reversible_function,
)
from repro.applications.unitary_synthesis import random_unitary, synthesize_unitary
from repro.sim.unitary import multi_controlled_unitary_matrix
from repro.utils.indexing import indices_to_digits
from repro.verify import TieredVerifier
from repro.verify.checks import ArraySpec, array_function_spec, mct_spec


def _verify_mct(strategy: Synthesizer, circuit, dim: int, k: int, budget):
    """The ``|0^k⟩-X01`` spec: controls on wires ``0..k-1``, target on ``k``."""
    clean = strategy.verified_clean_wires(circuit, dim, k)
    report = TieredVerifier(budget).verify_permutation(
        circuit, mct_spec(range(k), k, dim), clean_wires=clean
    )
    return report.raise_if_failed()


def _verify_function(circuit, spec: ArraySpec, budget, clean_wires=()):
    """Check ``circuit`` against a data-wire ``spec`` (an :class:`ArraySpec`)."""
    report = TieredVerifier(budget).verify_permutation(
        circuit, spec, clean_wires=clean_wires
    )
    return report.raise_if_failed()


def pk_spec(dim: int, k: int) -> ArraySpec:
    """``P_k`` on the data wires ``0..k-1``: ``h`` rewrites wire ``k-1``."""

    def apply(data: np.ndarray) -> np.ndarray:
        data[:, -1] = pk_h_rows(dim, data)
        return data

    return array_function_spec(apply, range(k))


def increment_spec(dim: int, k: int) -> ArraySpec:
    """``+1 mod d^k`` on the data wires ``0..k-1`` (wire 0 most significant)."""
    return array_function_spec(lambda data: increment_rows(dim, data), range(k))


def reversible_spec(dim: int, k: int) -> ArraySpec:
    """The canonical seed-0 bijection on the data wires, as a table lookup."""
    table = np.asarray(random_reversible_function(dim, k, seed=0), dtype=np.int64)
    strides = dim ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return array_function_spec(
        lambda data: indices_to_digits(table[data @ strides], dim, k), range(k)
    )


# ----------------------------------------------------------------------
# The paper's k-Toffoli (Theorems III.2 / III.6)
# ----------------------------------------------------------------------
class MctStrategy(Synthesizer):
    """Unified ``|0^k⟩-Xij``: odd-d ancilla-free / even-d one borrowed."""

    name = "mct"
    description = "paper k-Toffoli: Thm III.6 (odd d, ancilla-free) / Thm III.2 (even d, 1 borrowed)"
    capabilities = Capabilities(
        family="toffoli",
        parities=BOTH_PARITIES,
        ancilla_kind="borrowed",
        gates="O(k·d^3) G-gates",
        ancillas="0 (odd d) / 1 borrowed (even d, k ≥ 2)",
    )

    def estimator_spec(self, dim: int) -> AffineSpec:
        # The Fig. 4 / Fig. 9 halving makes the cost parity-dependent in k;
        # both residue classes are exactly affine from k = 11 on.
        return AffineSpec(period=2, stable_from=11)

    def synthesize(
        self,
        dim: int,
        k: int,
        *,
        control_values: Optional[Sequence[int]] = None,
        swap: Tuple[int, int] = (0, 1),
        **kwargs,
    ) -> SynthesisResult:
        if control_values is None and swap == (0, 1):
            if dim % 2 == 1:
                return synthesize_mct_odd(dim, k)
            return synthesize_mct_even(dim, k)
        controls = list(range(k))
        target = k
        needs_borrow = dim % 2 == 0 and k >= 2
        borrow = k + 1 if needs_borrow else None
        num_wires = k + (2 if needs_borrow else 1)
        circuit = QuditCircuit(num_wires, dim, name=f"MCT(k={k}, d={dim})")
        circuit.extend(
            mct_ops(
                dim,
                controls,
                target,
                borrow=borrow,
                control_values=control_values,
                swap=swap,
            )
        )
        ancillas = {borrow: AncillaKind.BORROWED} if needs_borrow else {}
        return SynthesisResult(
            circuit=circuit,
            controls=tuple(controls),
            target=target,
            ancillas=ancillas,
            notes="Theorems III.2 / III.6 with control-value conjugation",
        )

    def layout(self, dim: int, k: int) -> Tuple[int, Dict[str, int]]:
        if dim % 2 == 0 and k >= 2:
            return k + 2, {"borrowed": 1}
        return k + 1, {}

    def layout_batch(self, dim: int, ks: np.ndarray) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        ks = np.asarray(ks, dtype=np.int64)
        if dim % 2:
            return ks + 1, {}
        borrowed = (ks >= 2).astype(np.int64)
        return ks + 1 + borrowed, {"borrowed": borrowed}

    def verify(self, circuit, dim: int, k: int, *, budget=None):
        return _verify_mct(self, circuit, dim, k, budget)


class MctOddStrategy(MctStrategy):
    """Theorem III.6 directly (odd d only, ancilla-free)."""

    name = "mct-odd"
    description = "Thm III.6 k-Toffoli, odd d, ancilla-free (Fig. 10 / P_k detectors)"
    capabilities = Capabilities(
        family="toffoli",
        parities=frozenset({ODD}),
        gates="O(k·d^3) G-gates",
        ancillas="0",
        dispatchable=False,
    )

    def synthesize(self, dim: int, k: int, **kwargs) -> SynthesisResult:
        self._require(dim, k)
        return synthesize_mct_odd(dim, k, **kwargs)

    def layout(self, dim: int, k: int) -> Tuple[int, Dict[str, int]]:
        return k + 1, {}

    def layout_batch(self, dim: int, ks: np.ndarray) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        return np.asarray(ks, dtype=np.int64) + 1, {}


class MctEvenStrategy(MctStrategy):
    """Theorem III.2 directly (even d only, one borrowed ancilla)."""

    name = "mct-even"
    description = "Thm III.2 k-Toffoli, even d, one borrowed ancilla (Figs. 3-4)"
    capabilities = Capabilities(
        family="toffoli",
        parities=frozenset({EVEN}),
        min_dim=4,
        ancilla_kind="borrowed",
        gates="O(k·d^3) G-gates",
        ancillas="1 borrowed (k ≥ 2)",
        dispatchable=False,
    )

    def synthesize(self, dim: int, k: int, **kwargs) -> SynthesisResult:
        self._require(dim, k)
        return synthesize_mct_even(dim, k, **kwargs)


# ----------------------------------------------------------------------
# P_k (Lemma III.5, Figs. 8-9)
# ----------------------------------------------------------------------
class PkStrategy(Synthesizer):
    """The ``P_k`` workhorse gate of the odd-d construction."""

    name = "pk"
    description = "P_k last-nonzero-parity gate (Lemma III.5, Figs. 8-9), one borrowed ancilla"
    capabilities = Capabilities(
        family="pk",
        parities=frozenset({ODD}),
        min_k=1,
        ancilla_kind="borrowed",
        gates="O(k·d) G-gates",
        ancillas="1 borrowed (k ≥ 3)",
        payload="P_k",
    )

    def estimator_spec(self, dim: int) -> AffineSpec:
        return AffineSpec(period=2, stable_from=11)

    def synthesize(self, dim: int, k: int, *, one_ancilla: bool = True, **kwargs) -> SynthesisResult:
        self._require(dim, k)
        return synthesize_pk(dim, k, one_ancilla=one_ancilla)

    def layout(self, dim: int, k: int) -> Tuple[int, Dict[str, int]]:
        if k <= 2:
            return k, {}
        return k + 1, {"borrowed": 1}

    def layout_batch(self, dim: int, ks: np.ndarray) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        ks = np.asarray(ks, dtype=np.int64)
        borrowed = (ks > 2).astype(np.int64)
        return ks + borrowed, {"borrowed": borrowed}

    def verify(self, circuit, dim: int, k: int, *, budget=None):
        self.verified_clean_wires(circuit, dim, k)
        return _verify_function(circuit, pk_spec(dim, k), budget)


# ----------------------------------------------------------------------
# Multi-controlled single-qudit gate |0^k⟩-U (Fig. 1(b))
# ----------------------------------------------------------------------
class McuStrategy(Synthesizer):
    """``|0^k⟩-U`` with one clean ancilla; cost family for the X01 payload."""

    name = "mcu"
    description = "Fig. 1(b) |0^k⟩-U: k-Toffoli onto a clean ancilla, |1⟩-U, un-compute"
    capabilities = Capabilities(
        family="mcu",
        parities=BOTH_PARITIES,
        ancilla_kind="clean",
        gates="O(k·d^3) two-qudit gates",
        ancillas="1 clean (k ≥ 2)",
        payload="any single-qudit U (estimates: X01)",
    )

    def estimator_spec(self, dim: int) -> AffineSpec:
        return AffineSpec(period=2, stable_from=11)

    def synthesize(
        self,
        dim: int,
        k: int,
        *,
        gate: Optional[Gate] = None,
        control_values: Optional[Sequence[int]] = None,
        **kwargs,
    ) -> SynthesisResult:
        self._require(dim, k)
        payload = gate if gate is not None else XPerm.transposition(dim, 0, 1)
        return synthesize_mcu(dim, k, payload, control_values=control_values)

    def layout(self, dim: int, k: int) -> Tuple[int, Dict[str, int]]:
        if k >= 2:
            return k + 2, {"clean": 1}
        return k + 1, {}

    def layout_batch(self, dim: int, ks: np.ndarray) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        ks = np.asarray(ks, dtype=np.int64)
        clean = (ks >= 2).astype(np.int64)
        return ks + 1 + clean, {"clean": clean}

    def verify(self, circuit, dim: int, k: int, *, budget=None):
        # Canonical payload is X01, so the spec is exactly the k-Toffoli's
        # (on the clean-ancilla subspace).
        return _verify_mct(self, circuit, dim, k, budget)


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
class CleanLadderStrategy(Synthesizer):
    """Standard counting-ladder baseline [5, 23] with clean ancillas."""

    name = "mct-clean-ladder"
    description = "baseline [5,23] k-Toffoli: counting ladder, ⌈(k−2)/(d−2)⌉ clean ancillas"
    capabilities = Capabilities(
        family="toffoli",
        parities=BOTH_PARITIES,
        ancilla_kind="clean",
        gates="O(k) two-qudit gates",
        ancillas="⌈(k−2)/(d−2)⌉ clean",
    )

    def estimator_spec(self, dim: int) -> AffineSpec:
        # One counting step per control; a fresh ancilla every d − 2
        # controls makes the residue period d − 2 (1 for qutrits).
        return AffineSpec(period=max(1, dim - 2), stable_from=4)

    def supports(self, dim: int, k: int) -> bool:
        # At even d the k = 2 ladder leaves no idle wire for the borrowed
        # ancilla of its two-controlled gadget, so it cannot be lowered.
        return super().supports(dim, k) and not (dim % 2 == 0 and k == 2)

    def supports_batch(self, dim: int, ks: np.ndarray) -> np.ndarray:
        ks = np.asarray(ks, dtype=np.int64)
        mask = super().supports_batch(dim, ks)
        return mask & (ks != 2) if dim % 2 == 0 else mask

    def synthesize(self, dim: int, k: int, *, swap: Tuple[int, int] = (0, 1), **kwargs) -> SynthesisResult:
        self._require(dim, k)
        return synthesize_mct_clean_ladder(dim, k, swap=swap)

    def layout(self, dim: int, k: int) -> Tuple[int, Dict[str, int]]:
        ancillas = clean_ancilla_count(dim, k)
        histogram = {"clean": ancillas} if ancillas else {}
        return k + 1 + ancillas, histogram

    def layout_batch(self, dim: int, ks: np.ndarray) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        ks = np.asarray(ks, dtype=np.int64)
        # ⌈(k − 2)/(d − 2)⌉ clean ancillas for k > 2, none below.
        clean = np.where(ks > 2, -(-(ks - 2) // max(1, dim - 2)), 0)
        return ks + 1 + clean, {"clean": clean}

    def verify(self, circuit, dim: int, k: int, *, budget=None):
        return _verify_mct(self, circuit, dim, k, budget)


class McuExponentialStrategy(Synthesizer):
    """Ancilla-free commutator-recursion baseline [25]: Θ(2^k) gates.

    The macro circuit carries dense ``SU(d)`` payloads, so it is never
    lowered; the closed-form counts below reproduce ``count_gates`` on the
    macro level exactly (validated against materialised circuits the first
    time a dimension is estimated).
    """

    name = "mcu-exponential"
    description = "baseline [25]-style ancilla-free commutator recursion, Θ(2^k) two-qudit gates"
    capabilities = Capabilities(
        family="toffoli",
        parities=BOTH_PARITIES,
        gates="Θ(2^k) two-qudit gates",
        ancillas="0",
        payload="det-normalised X01 (e^{iπ/d}·X01)",
    )

    _validated_dims: set = set()

    def synthesize(self, dim: int, k: int, **kwargs) -> SynthesisResult:
        self._require(dim, k)
        return synthesize_mcu_exponential(dim, k)

    def layout(self, dim: int, k: int) -> Tuple[int, Dict[str, int]]:
        return k + 1, {}

    def estimate(self, dim: int, k: int) -> Resources:
        self._require(dim, k)
        if dim not in self._validated_dims:
            for small in range(0, 5):
                if self._closed_form(small) != measure(self, dim, small).metrics():
                    raise SynthesisError(
                        f"mcu-exponential closed form diverges from the "
                        f"materialised circuit at d={dim}, k={small}"
                    )
            self._validated_dims.add(dim)
        fields = dict(zip(METRIC_FIELDS, self._closed_form(k)))
        wires, ancillas = self.layout(dim, k)
        return Resources(
            strategy=self.name,
            dim=dim,
            k=k,
            num_wires=wires,
            ancillas=ancillas,
            exact=True,
            **fields,
        )

    @staticmethod
    def _closed_form(k: int) -> Tuple[int, ...]:
        # ops(k) = 2·ops(k−1) + 2, ops(0) = ops(1) = 1  ⇒  3·2^{k−1} − 2.
        # Arbitrary-precision Python ints on purpose: a numpy-integer k
        # (e.g. iterating a SweepSpec grid) would silently wrap past k = 62.
        k = int(k)
        ops = 1 if k == 0 else 3 * (1 << (k - 1)) - 2
        two_qudit = 0 if k == 0 else ops
        single = 1 if k == 0 else 0
        # Every op touches the target wire, so depth equals the op count;
        # dense payloads are not G-gates, so the G metrics are zero.
        return (ops, two_qudit, 0, ops, single, 0)

    def layout_batch(self, dim: int, ks: np.ndarray) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        return np.asarray(ks, dtype=np.int64) + 1, {}

    def estimate_batch(self, dim: int, ks) -> BatchEstimate:
        """Closed-form Θ(2^k) batch: saturates at int64 beyond k ≈ 62.

        The default affine path cannot represent an exponential family, and
        the scalar fallback would overflow numpy; instead the recurrence's
        closed form is evaluated with Python integers and clipped, flagging
        saturated rows ``offscale`` so rankings still order them last.
        """
        self.estimate(dim, 0)  # triggers the one-time closed-form validation
        from repro.resources.estimator import _check_batch_ks, _empty_batch

        ks = _check_batch_ks(self, dim, ks)
        batch = _empty_batch(self, dim, ks)
        batch.num_wires = ks + 1
        if not ks.size:
            return batch
        # ops fits int64 up to k = 62: 3·2^61 − 2 < 2^63 − 1 < 3·2^62 − 2.
        safe = ks <= 62
        batch.offscale = ~safe
        clipped = np.where(safe, ks, 62)
        ops = np.where(clipped == 0, 1, 3 * (1 << np.maximum(clipped - 1, 0)) - 2)
        ops = np.where(safe, ops, INT64_MAX)
        batch.metrics["macro_ops"] = ops.copy()
        batch.metrics["depth"] = ops.copy()
        batch.metrics["two_qudit_gates"] = np.where(ks == 0, 0, ops)
        batch.metrics["single_qudit_gates"] = (ks == 0).astype(np.int64)
        return batch

    def verify(self, circuit, dim: int, k: int, *, budget=None):
        from repro.baselines.ancilla_free_exponential import toffoli_payload_su

        payload = np.asarray(toffoli_payload_su(dim))
        # Column oracle: the expected matrix is the identity except for the
        # payload block at the all-zero control values (the circuit is
        # ancilla-free, so the block is columns 0..d-1), so each expected
        # column is written down directly — no basis² matrix.  The payload
        # block is always pinned into the sample, and the matrix is built
        # only if the budget selects the dense tier.
        self.verified_clean_wires(circuit, dim, k)
        size = dim**circuit.num_wires

        def expected_column(col: int) -> np.ndarray:
            vector = np.zeros(size, dtype=complex)
            if col < dim:
                vector[:dim] = payload[:, col]
            else:
                vector[col] = 1.0
            return vector

        report = TieredVerifier(budget).verify_unitary(
            circuit,
            expected_factory=lambda: np.asarray(
                multi_controlled_unitary_matrix(dim, k, payload)
            ),
            expected_column=expected_column,
            required_columns=range(dim),
            up_to_global_phase=True,
        )
        return report.raise_if_failed()


# ----------------------------------------------------------------------
# Applications
# ----------------------------------------------------------------------
class IncrementStrategy(Synthesizer):
    """Ripple ``+1 mod d^n`` built from multi-controlled ``X+1`` gates."""

    name = "increment"
    description = "ripple increment: one |{d−1}^j⟩-X+1 block per register digit (k = n digits)"
    capabilities = Capabilities(
        family="arithmetic",
        parities=BOTH_PARITIES,
        min_k=1,
        ancilla_kind="clean",
        gates="O(n^2·d^3) G-gates",
        ancillas="1 clean (n ≥ 3)",
        payload="X+1",
        analytic=False,
    )

    #: Registers up to this size are estimated exactly by materialising.
    _EXACT_LIMIT = 8

    def synthesize(self, dim: int, k: int, **kwargs) -> SynthesisResult:
        self._require(dim, k)
        return synthesize_increment(dim, k)

    def layout(self, dim: int, k: int) -> Tuple[int, Dict[str, int]]:
        if k >= 3:
            return k + 1, {"clean": 1}
        return k, {}

    def estimate(self, dim: int, k: int) -> Resources:
        """Exact for small registers; a stacked-MCU model beyond.

        The increment is one multi-controlled block per digit, but adjacent
        blocks share conjugation layers that the peephole passes cancel, so
        the composed counts are an upper-bound *model* (``exact=False``) —
        the cross-block savings are payload-position dependent.
        """
        self._require(dim, k)
        if k <= self._EXACT_LIMIT:
            return measure(self, dim, k)
        mcu = _MCU_SINGLETON
        fields = dict(zip(METRIC_FIELDS, sum_estimates(mcu, dim, k)))
        wires, ancillas = self.layout(dim, k)
        return Resources(
            strategy=self.name,
            dim=dim,
            k=k,
            num_wires=wires,
            ancillas=ancillas,
            exact=False,
            **fields,
        )

    def verify(self, circuit, dim: int, k: int, *, budget=None):
        return _verify_function(
            circuit,
            increment_spec(dim, k),
            budget,
            clean_wires=self.verified_clean_wires(circuit, dim, k),
        )


class ReversibleStrategy(Synthesizer):
    """Theorem IV.2: arbitrary d-ary reversible functions (k = n variables)."""

    name = "reversible"
    description = "Thm IV.2 reversible function as 2-cycles (k = n variables); canonical: seed-0 random bijection"
    capabilities = Capabilities(
        family="reversible",
        parities=BOTH_PARITIES,
        min_k=1,
        ancilla_kind="borrowed",
        gates="O(n·d^n) G-gates",
        ancillas="0 (odd d) / 1 borrowed (even d, n ≥ 3)",
        payload="any bijection on [d]^n",
        analytic=False,
    )

    def synthesize(self, dim: int, k: int, *, function=None, **kwargs) -> SynthesisResult:
        self._require(dim, k)
        if function is None:
            function = random_reversible_function(dim, k, seed=0)
        return synthesize_reversible_function(dim, k, function)

    def layout(self, dim: int, k: int) -> Tuple[int, Dict[str, int]]:
        if dim % 2 == 0 and k >= 3:
            return k + 1, {"borrowed": 1}
        return k, {}

    def estimate(self, dim: int, k: int) -> Resources:
        """Worst-case model (``exact=False``): ``d^n − 1`` 2-cycles, each a
        relabelled value-controlled k-Toffoli (the O(n·d^n) bound)."""
        self._require(dim, k)
        cycles = dim**k - 1
        mct = _MCT_SINGLETON.estimate(dim, max(k - 1, 0))
        relabel = 2 * max(k - 1, 0)  # controlled transpositions per cycle, worst case
        per_op = _controlled_transposition_cost(dim)
        conj = 2 * max(k - 1, 0)  # value-conjugation Xij singles per cycle
        values = {
            "macro_ops": cycles * (mct.macro_ops + relabel + conj),
            "two_qudit_gates": cycles * (mct.two_qudit_gates + relabel * per_op[1]),
            "g_gates": cycles * (mct.g_gates + relabel * per_op[0] + conj),
            "depth": cycles * (mct.depth + relabel * per_op[0] + conj),
            "single_qudit_gates": cycles
            * (mct.single_qudit_gates + relabel * (per_op[0] - per_op[1]) + conj),
            "controlled_x01": cycles * (mct.controlled_x01 + relabel * per_op[1]),
        }
        wires, ancillas = self.layout(dim, k)
        return Resources(
            strategy=self.name,
            dim=dim,
            k=k,
            num_wires=wires,
            ancillas=ancillas,
            exact=False,
            **values,
        )

    def verify(self, circuit, dim: int, k: int, *, budget=None):
        self.verified_clean_wires(circuit, dim, k)
        return _verify_function(circuit, reversible_spec(dim, k), budget)


class UnitaryStrategy(Synthesizer):
    """Theorem IV.1: arbitrary n-qudit unitaries with one clean ancilla."""

    name = "unitary"
    description = "Thm IV.1 exact unitary synthesis (k = n qudits); canonical: seed-0 Haar unitary"
    capabilities = Capabilities(
        family="unitary",
        parities=BOTH_PARITIES,
        min_k=1,
        ancilla_kind="clean",
        gates="O(d^{2n}) two-qudit gates",
        ancillas="1 clean (n ≥ 3)",
        payload="any U(d^n) matrix",
        analytic=False,
    )

    def synthesize(self, dim: int, k: int, *, unitary=None, **kwargs) -> SynthesisResult:
        self._require(dim, k)
        if unitary is None:
            unitary = random_unitary(dim**k, seed=0)
        return synthesize_unitary(unitary, dim, k)

    def layout(self, dim: int, k: int) -> Tuple[int, Dict[str, int]]:
        if k >= 3:
            return k + 1, {"clean": 1}
        return k, {}

    def estimate(self, dim: int, k: int) -> Resources:
        """Macro-level worst-case model (``exact=False``): one relabelled
        ``|0^{n−1}⟩-U`` block per two-level factor; dense payloads keep the
        circuit at the macro level, so the G-gate metrics are zero."""
        self._require(dim, k)
        size = dim**k
        factors = size * (size - 1) // 2
        mct = _MCT_SINGLETON.estimate(dim, max(k - 1, 0))
        relabel = 2 * max(k - 1, 0)
        per_factor_macros = 2 * mct.macro_ops + 1 + relabel
        values = {
            "macro_ops": factors * per_factor_macros,
            "two_qudit_gates": factors,  # the |1⟩-U fire gates
            "g_gates": 0,
            "depth": factors * per_factor_macros,
            "single_qudit_gates": 0,
            "controlled_x01": 0,
        }
        wires, ancillas = self.layout(dim, k)
        return Resources(
            strategy=self.name,
            dim=dim,
            k=k,
            num_wires=wires,
            ancillas=ancillas,
            exact=False,
            **values,
        )

    def verify(self, circuit, dim: int, k: int, *, budget=None):
        clean = self.verified_clean_wires(circuit, dim, k)
        expected = random_unitary(dim**k, seed=0)
        verifier = TieredVerifier(budget)
        if clean:
            report = verifier.verify_unitary_clean_ancillas(
                circuit, expected, list(range(k)), clean, atol=1e-7
            )
        else:
            report = verifier.verify_unitary(circuit, expected, atol=1e-7)
        return report.raise_if_failed()


def _controlled_transposition_cost(dim: int) -> Tuple[int, int]:
    """(G-gates, controlled G-gates) of one lowered ``|v⟩-Xij`` relabel op."""
    ops = controlled_transposition_g_ops(dim, 0, 1, 1, 0, 2)
    controlled = sum(1 for op in ops if getattr(op, "num_controls", 0) == 1)
    return len(ops), controlled


# ----------------------------------------------------------------------
# Registration (import side effect of repro.synth)
# ----------------------------------------------------------------------
_MCT_SINGLETON = MctStrategy()
_MCU_SINGLETON = McuStrategy()

register(_MCT_SINGLETON)
register(MctOddStrategy())
register(MctEvenStrategy())
register(CleanLadderStrategy())
register(McuExponentialStrategy())
register(PkStrategy())
register(_MCU_SINGLETON)
register(IncrementStrategy())
register(ReversibleStrategy())
register(UnitaryStrategy())
