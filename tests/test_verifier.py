"""Tests for the tiered verification subsystem (:mod:`repro.verify`).

Covers the tier-escalation order and budget gating of
:class:`~repro.verify.TieredVerifier`, the :class:`~repro.verify.
VerificationReport` replay round-trip, and — as failing-before /
passing-after regressions — the three verification soundness fixes that
shipped with the subsystem:

1. global-phase alignment must reject non-unit scalings
   (``actual = 0.5 * expected`` used to pass ``up_to_global_phase=True``);
2. ``mct_spec`` / ``mc_shift_spec`` must reject out-of-range control
   values and swap digits (the spec silently degenerated to the identity,
   so any circuit passed vacuously);
3. the batched int64 index paths must refuse registers with ``d^n > 2^63``
   instead of silently wrapping their stride arithmetic.
"""

import json

import numpy as np
import pytest

from repro.exceptions import VerificationError, WorkloadError
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import Value
from repro.qudit.gates import SingleQuditUnitary, XPerm
from repro.utils.indexing import digit_matrix
from repro.verify import (
    PRESET_NAMES,
    TIER_DENSE,
    TIER_INDEX,
    TIER_STRUCTURAL,
    UNBOUNDED,
    TieredVerifier,
    VerificationBudget,
    VerificationReport,
    assert_implements_permutation,
    assert_mct_spec,
    assert_unitary_columns_equiv,
    assert_unitary_equiv,
    checks,
    mc_shift_spec,
    mct_spec,
    resolve_budget,
)


def cx01_circuit(dim=3, num_wires=2, name="cx01"):
    """X01 on the last wire, controlled on wire 0 being |0>."""
    circuit = QuditCircuit(num_wires, dim, name=name)
    circuit.add_gate(XPerm.transposition(dim, 0, 1), num_wires - 1, [(0, Value(0))])
    return circuit


def cx01_spec(dim, num_wires):
    return mct_spec([0], num_wires - 1, dim)


# ----------------------------------------------------------------------
# Regression 1 — global-phase alignment rejects non-unit scalings
# ----------------------------------------------------------------------
class TestGlobalPhaseScaling:
    def fourier_circuit(self, dim=3):
        circuit = QuditCircuit(1, dim, name="fourier")
        matrix = np.fft.fft(np.eye(dim)) / np.sqrt(dim)
        circuit.add_gate(SingleQuditUnitary(matrix), 0)
        return circuit, matrix

    def test_scaled_copy_rejected_dense(self):
        circuit, matrix = self.fourier_circuit()
        with pytest.raises(VerificationError, match="not a unit phase"):
            assert_unitary_equiv(circuit, 0.5 * matrix, up_to_global_phase=True)

    def test_scaled_copy_rejected_sampled_columns(self):
        circuit, matrix = self.fourier_circuit()
        scaled = 2.0 * matrix
        with pytest.raises(VerificationError, match="not a unit phase"):
            assert_unitary_columns_equiv(
                circuit,
                lambda col: scaled[:, col],
                required_columns=(0,),
                up_to_global_phase=True,
            )

    def test_true_global_phase_still_accepted(self):
        circuit, matrix = self.fourier_circuit()
        rotated = np.exp(0.7j) * matrix
        assert assert_unitary_equiv(circuit, rotated, up_to_global_phase=True).ok
        assert assert_unitary_columns_equiv(
            circuit,
            lambda col: rotated[:, col],
            required_columns=(0, 1, 2),
            up_to_global_phase=True,
        ).ok


# ----------------------------------------------------------------------
# Regression 2 — spec builders reject out-of-range digits
# ----------------------------------------------------------------------
class TestSpecDigitValidation:
    def test_mct_control_value_out_of_range(self):
        with pytest.raises(VerificationError, match="out of range for dimension d=3"):
            mct_spec([0], 1, 3, control_values=[3])

    def test_mct_swap_digit_out_of_range(self):
        with pytest.raises(VerificationError, match="swap digits"):
            mct_spec([0], 1, 3, swap=(0, 3))

    def test_mct_swap_digits_must_differ(self):
        with pytest.raises(VerificationError, match="must be distinct"):
            mct_spec([0], 1, 3, swap=(1, 1))

    def test_mc_shift_control_value_out_of_range(self):
        with pytest.raises(VerificationError, match="out of range for dimension d=3"):
            mc_shift_spec([0], 1, 3, control_values=[5])

    def test_mc_shift_control_values_length(self):
        with pytest.raises(VerificationError, match="length must match"):
            mc_shift_spec([0, 1], 2, 3, control_values=[0])

    def test_vacuous_pass_now_bites(self):
        # Before the fix, control_values=[d] made the spec the identity, so
        # the *identity circuit* sailed through assert_mct_spec unchecked.
        identity = QuditCircuit(2, 3, name="noop")
        with pytest.raises(VerificationError, match="out of range"):
            assert_mct_spec(identity, [0], 1, control_values=[3])


# ----------------------------------------------------------------------
# The exhaustive tier compares encoded images, and decodes only to report
# ----------------------------------------------------------------------
class TestExhaustiveTierMessages:
    """The whole-basis tier encodes the spec's images to flat indices and
    compares them with the gather; it decodes the gather only to name the
    failing row.  Verdicts and messages are the digit-by-digit compare's."""

    @staticmethod
    def spec_with(state, image):
        spec = cx01_spec(3, 3)

        def patched(digits):
            return list(image) if tuple(digits) == state else list(spec(digits))

        return patched

    def test_an_injected_failure_names_its_row(self):
        spec = self.spec_with((2, 1, 0), (2, 1, 1))
        with pytest.raises(VerificationError) as failure:
            assert_implements_permutation(cx01_circuit(num_wires=3), spec)
        assert str(failure.value) == (
            "circuit 'cx01' maps (2, 1, 0) to (2, 1, 0), expected (2, 1, 1)"
        )

    @pytest.mark.parametrize(
        "state,image,actual",
        [
            # (1, 0, 3) encodes to 9 + 0 + 3 = 12, the true image (1, 1, 0).
            ((1, 1, 0), (1, 0, 3), (1, 1, 0)),
            # (0, 2, -3) encodes to 6 - 3 = 3, the true image (0, 1, 0).
            ((0, 1, 1), (0, 2, -3), (0, 1, 0)),
        ],
    )
    def test_an_out_of_range_digit_fails_though_its_encoding_matches(
        self, state, image, actual
    ):
        circuit = cx01_circuit(num_wires=3)
        with pytest.raises(VerificationError) as failure:
            checks.spec_exhaustive(circuit, self.spec_with(state, image))
        assert str(failure.value) == (
            f"circuit 'cx01' maps {state} to {actual}, expected {image}"
        )

    def test_an_array_spec_with_float_images_is_compared_digit_by_digit(self):
        spec = checks.ArraySpec(lambda states: cx01_spec(3, 3).apply(states) + 0.25)
        with pytest.raises(VerificationError) as failure:
            checks.spec_exhaustive(cx01_circuit(num_wires=3), spec)
        assert str(failure.value) == (
            "circuit 'cx01' maps (0, 0, 0) to (0, 0, 1), expected (0.25, 0.25, 1.25)"
        )

    def test_a_moved_watched_wire_names_its_row(self):
        circuit = cx01_circuit(num_wires=3)
        assert checks.wires_preserved_exhaustive(circuit, [0, 1]) == 27
        assert checks.wires_preserved_exhaustive(circuit, []) == 27
        for wires, named in (([1, 2], [2]), ([-1], [-1])):
            with pytest.raises(VerificationError) as failure:
                checks.wires_preserved_exhaustive(circuit, wires)
            assert str(failure.value) == (
                f"circuit 'cx01' modified wires {named} on input (0, 0, 0): (0, 0, 1)"
            )


class TestSampledColumnMessages:
    """The sampled-column tier compares all its columns as one block and
    walks them one by one only to name the first failing column; verdicts
    and messages are the per-column compare's."""

    DIAG = np.diag(np.exp(1j * np.array([0.0, 0.4, 1.1])))

    def circuit(self):
        circuit = QuditCircuit(2, 3, name="cphase")
        circuit.add_gate(SingleQuditUnitary(self.DIAG, label="D"), 1, [(0, Value(0))])
        return circuit

    def unitary(self):
        matrix = np.eye(9, dtype=complex)
        matrix[:3, :3] = self.DIAG
        return matrix

    def check(self, expected_column, up_to_global_phase=False):
        return checks.unitary_columns(
            self.circuit(), expected_column, samples=6, required_columns=(0, 1, 2),
            seed=3, up_to_global_phase=up_to_global_phase,
        )

    def test_matching_columns_pass_with_and_without_a_global_phase(self):
        recipe = (
            "unitary_columns(circuit, expected_column, samples=6, "
            "required_columns=(0, 1, 2), seed=3)"
        )
        assert self.check(lambda j: self.unitary()[:, j]) == (5, recipe)
        shifted = np.exp(0.3j) * self.unitary()
        assert self.check(lambda j: shifted[:, j], up_to_global_phase=True) == (5, recipe)

    @pytest.mark.parametrize(
        "name,phase,message",
        [
            ("identity", False, "circuit 'cphase' column 1 deviates from the expected unitary "
             "column by 3.973e-01 (sampled-column check, seed=3, 5 columns)"),
            ("ramp", True, "circuit 'cphase' phase on column 1 disagrees with column 0 — "
             "not a global phase (sampled-column check, seed=3)"),
            ("shifted", True, "cannot align global phase on column 0: mismatched support"),
            ("half", True, "cannot align global phase on column 0: alignment factor has "
             "modulus 0.5, not a unit phase (is the circuit a scaled copy of the expected "
             "unitary?)"),
        ],
    )
    def test_the_first_failing_column_is_named(self, name, phase, message):
        matrix = {
            "identity": np.eye(9),
            "ramp": np.diag(np.exp(1j * np.arange(9) * 0.2)),
            "shifted": np.roll(np.eye(9), 1, axis=0),
            "half": 0.5 * self.unitary(),
        }[name]
        with pytest.raises(VerificationError) as failure:
            self.check(lambda j: matrix[:, j], up_to_global_phase=phase)
        assert str(failure.value) == message

    def test_a_bad_column_shape_comes_after_an_earlier_failing_column(self):
        unitary = self.unitary()
        with pytest.raises(VerificationError) as failure:
            self.check(lambda j: np.zeros(4) if j == 7 else unitary[:, j])
        assert str(failure.value) == "expected_column(7) returned shape (4,), want (9,)"
        with pytest.raises(VerificationError) as failure:
            self.check(lambda j: np.zeros(4) if j == 7 else np.eye(9)[:, j])
        assert "column 1 deviates" in str(failure.value)


# ----------------------------------------------------------------------
# Regression 3 — int64 overflow guard on huge registers
# ----------------------------------------------------------------------
class TestInt64Guard:
    def huge_circuit(self):
        # 5^28 > 2^63 - 1 > 5^27: the smallest power-of-5 register whose
        # flat indices overflow int64.
        circuit = QuditCircuit(28, 5, name="huge")
        circuit.add_gate(XPerm.transposition(5, 0, 1), 27, [(0, Value(0))])
        return circuit

    def test_boundary(self):
        assert checks.basis_size(5, 27) <= checks.INT64_MAX
        assert checks.basis_size(5, 28) > checks.INT64_MAX
        assert checks.require_int64_basis(5, 27, "t") == 5**27
        with pytest.raises(VerificationError, match="int64"):
            checks.require_int64_basis(5, 28, "t")

    def test_sampled_wires_kernel_refuses_overflow(self):
        circuit = self.huge_circuit()
        with pytest.raises(VerificationError, match="int64"):
            checks.wires_preserved_sampled(circuit, [0], 4, 7)

    def test_sampler_itself_scales_past_int64(self):
        # The state sampler draws one digit per wire, so it works fine on
        # registers whose flat indices do not fit int64.
        states = checks.sample_basis_states(5, 40, 6, 7)
        assert len(states) == 6
        assert all(len(s) == 40 and all(0 <= x < 5 for x in s) for s in states)

    def test_permutation_check_surfaces_guard(self):
        circuit = self.huge_circuit()
        with pytest.raises(VerificationError, match="int64"):
            assert_implements_permutation(
                circuit, lambda s: s, budget=VerificationBudget(samples=4)
            )

    def test_sampled_columns_surface_guard(self):
        circuit = self.huge_circuit()
        with pytest.raises(VerificationError, match="int64"):
            assert_unitary_columns_equiv(
                circuit,
                lambda col: None,
                budget=VerificationBudget(sampled_columns=1, max_column_basis=UNBOUNDED),
            )


# ----------------------------------------------------------------------
# Tier escalation and budget gating
# ----------------------------------------------------------------------
class TestTierEscalation:
    def test_small_basis_decides_dense(self):
        circuit = cx01_circuit()
        report = TieredVerifier("standard").verify_permutation(circuit, cx01_spec(3, 2))
        assert report.ok and report.decided_by == "dense"
        assert report.states_checked == 9
        assert [(r.tier, r.status) for r in report.records] == [
            (TIER_STRUCTURAL, "passed"),
            (TIER_INDEX, "skipped"),
            (TIER_DENSE, "decided"),
        ]

    def test_smoke_budget_decides_by_index_propagation(self):
        circuit = cx01_circuit()
        report = TieredVerifier("smoke").verify_permutation(circuit, cx01_spec(3, 2))
        assert report.ok and report.decided_by == "index-propagation"
        assert report.states_checked == 128
        assert report.replay == "sample_basis_states(3, 2, 128, 7)"
        statuses = {r.tier: r.status for r in report.records}
        assert statuses[TIER_DENSE] == "skipped"
        # records stay in escalation order
        assert [r.tier for r in report.records] == sorted(r.tier for r in report.records)

    def test_budget_seed_overrides_default(self):
        circuit = cx01_circuit()
        budget = VerificationBudget.preset("smoke").replace(seed=99)
        report = TieredVerifier(budget).verify_permutation(circuit, cx01_spec(3, 2))
        assert report.ok and report.replay == "sample_basis_states(3, 2, 128, 99)"

    def test_structural_tier_catches_invalid_predicate(self):
        circuit = QuditCircuit(2, 3, name="badctl")
        circuit.add_gate(XPerm.transposition(3, 0, 1), 1, [(0, Value(3))])
        report = TieredVerifier("smoke").verify_permutation(circuit, lambda s: s)
        assert report.status == "failed"
        assert report.decided_by == "structural"
        assert "can never fire" in report.error
        with pytest.raises(VerificationError, match="can never fire"):
            report.raise_if_failed()

    def test_failure_records_deciding_tier_and_replay(self):
        circuit = cx01_circuit()  # NOT the identity

        report = TieredVerifier("smoke").verify_permutation(circuit, lambda s: tuple(s))
        assert report.status == "failed" and not report.ok
        assert report.decided_by == "index-propagation"
        assert "rerun with sample_basis_states(3, 2, 128, 7)" in report.error

    def test_unitary_undecided_when_budget_rules_out_tiers(self):
        circuit, matrix = TestGlobalPhaseScaling().fourier_circuit()
        budget = VerificationBudget(allow_dense=False, sampled_columns=0)
        report = TieredVerifier(budget).verify_unitary(circuit, matrix)
        assert report.undecided and not report.ok
        reasons = {r.tier: r.detail for r in report.records if r.status == "skipped"}
        assert "budget draws no sampled columns" in reasons[3]
        assert "dense tier disabled" in reasons[TIER_DENSE]

    def test_zero_samples_is_undecided_not_a_pass(self):
        # samples=0 must not let the index tier "decide" on zero states.
        circuit = cx01_circuit()
        budget = VerificationBudget(max_basis_states=0, samples=0)
        report = TieredVerifier(budget).verify_permutation(circuit, cx01_spec(3, 2))
        assert report.undecided and not report.ok
        assert report.states_checked == 0
        skipped = {r.tier: r.detail for r in report.records if r.status == "skipped"}
        assert skipped[TIER_INDEX] == "budget draws no samples"
        wires = TieredVerifier(budget).verify_wires_preserved(circuit, [0])
        assert wires.undecided and not wires.ok

    def test_unitary_needs_some_oracle(self):
        circuit = cx01_circuit()
        with pytest.raises(VerificationError, match="needs an expected matrix"):
            TieredVerifier("standard").verify_unitary(circuit)

    def test_budget_replace_rejects_unknown_fields(self):
        with pytest.raises(VerificationError, match="unknown budget field"):
            VerificationBudget().replace(max_dense=5)

    def test_unknown_preset_rejected(self):
        with pytest.raises(VerificationError, match="unknown verification preset"):
            VerificationBudget.preset("bogus")

    def test_resolve_budget_coercions(self):
        assert resolve_budget(None) == VerificationBudget.preset("standard")
        assert resolve_budget("smoke") == VerificationBudget.preset("smoke")
        custom = VerificationBudget(samples=3)
        assert resolve_budget(custom) is custom
        assert PRESET_NAMES == ("audit", "smoke", "standard")


# ----------------------------------------------------------------------
# Report replay round-trip
# ----------------------------------------------------------------------
class TestReportRoundTrip:
    def test_json_round_trip_preserves_replay(self):
        circuit = cx01_circuit()
        report = TieredVerifier("smoke").verify_permutation(circuit, cx01_spec(3, 2))
        payload = json.loads(json.dumps(report.to_json()))
        clone = VerificationReport.from_json(payload)
        assert clone == report
        assert clone.replay == report.replay
        assert [r.to_json() for r in clone.records] == [
            r.to_json() for r in report.records
        ]

    def test_replay_recipe_regenerates_the_sampled_states(self):
        circuit = cx01_circuit()
        report = TieredVerifier("smoke").verify_permutation(circuit, cx01_spec(3, 2))
        states = eval(  # the recipe is a copy-pasteable expression by design
            report.replay, {"sample_basis_states": checks.sample_basis_states}
        )
        assert len(states) == 128
        assert states == checks.sample_basis_states(3, 2, 128, 7)

    def test_summary_lines(self):
        circuit = cx01_circuit()
        ok = TieredVerifier("smoke").verify_permutation(circuit, cx01_spec(3, 2))
        assert "verified by index-propagation tier" in ok.summary()
        bad = TieredVerifier("smoke").verify_permutation(circuit, lambda s: tuple(s))
        assert bad.summary().startswith("permutation: FAILED")


# ----------------------------------------------------------------------
# Entry points route through the verifier
# ----------------------------------------------------------------------
class TestEntryPointRouting:
    def test_assert_helpers_return_reports(self):
        circuit = cx01_circuit()
        report = assert_mct_spec(circuit, [0], 1)
        assert isinstance(report, VerificationReport) and report.ok
        assert report.decided_by == "dense"
        smoke = assert_mct_spec(circuit, [0], 1, budget="smoke")
        assert smoke.decided_by == "index-propagation"

    def test_strategy_verify_accepts_budget(self):
        from repro.synth import registry

        strategy = registry.get("mct")
        result = strategy.synthesize(3, 4)
        report = strategy.verify(result.circuit, 3, 4, budget="smoke")
        assert report.ok and report.decided_by == "index-propagation"
        full = strategy.verify(result.circuit, 3, 4)
        assert full.ok and full.decided_by == "dense"

    def test_workload_verify_field(self):
        from repro.exec.workload import WorkloadSpec, run_workload

        spec = WorkloadSpec.from_dict(
            {
                "requests": [
                    {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 3,
                     "verify": "smoke"}
                ]
            }
        )
        row = run_workload(spec).rows[0]
        assert row["ok"] and row["verify"] == "smoke"
        assert row["verify_result"]["status"] == "verified"
        assert row["verify_result"]["tier"] == "index-propagation"

    def test_workload_rejects_bad_verify(self):
        from repro.exec.workload import WorkloadSpec

        with pytest.raises(WorkloadError, match="does not apply to estimate"):
            WorkloadSpec.from_dict(
                {"requests": [{"kind": "estimate", "strategy": "mct", "d": 3,
                               "k": 2, "verify": "smoke"}]}
            )
        with pytest.raises(WorkloadError, match="unknown verify level"):
            WorkloadSpec.from_dict(
                {"requests": [{"kind": "synthesize", "strategy": "mct", "d": 3,
                               "k": 2, "verify": "huge"}]}
            )


# ----------------------------------------------------------------------
# Acceptance: the smoke budget decides nearly everything below dense
# ----------------------------------------------------------------------
class TestSmokeBudgetSweep:
    def test_smoke_decides_at_least_90_percent_below_dense(self):
        from repro.fuzz.generators import supported_instances
        from repro.fuzz.oracles import check_synthesis_semantics

        instances = supported_instances()[::13]  # deterministic subsample
        assert len(instances) >= 20
        tier_hits = {}
        budget = VerificationBudget.preset("smoke")
        for instance in instances:
            error = check_synthesis_semantics(
                instance, budget=budget, tier_hits=tier_hits
            )
            assert error is None, error
        assert tier_hits.get("dense", 0) == 0
        decided = sum(n for name, n in tier_hits.items() if name != "undecided")
        total = sum(tier_hits.values())
        assert total > 0 and decided / total >= 0.9


# ----------------------------------------------------------------------
# ArraySpec: one pass over the digit matrix agrees with the per-state spec
# ----------------------------------------------------------------------
def _fires(state, controls, values):
    return all(state[c] == v for c, v in zip(controls, values))


def mct_reference(controls, target, values, swap):
    """The multi-controlled ``X_ij`` written out on one digit tuple."""
    i, j = swap

    def spec(state):
        output = list(state)
        if _fires(state, controls, values) and output[target] in (i, j):
            output[target] = j if output[target] == i else i
        return tuple(output)

    return spec


class TestArraySpec:
    #: Controls on both sides of the target, not contiguous.
    CONTROLS, TARGET = (0, 2, 3), 1

    @pytest.mark.parametrize(
        "values,swap",
        [((0, 0, 0), (0, 1)), ((2, 0, 1), (0, 1)), ((1, 1, 2), (2, 1)), ((0, 2, 2), (0, 2))],
    )
    def test_mct_spec_agrees_per_state_and_over_the_whole_basis(self, values, swap):
        spec = mct_spec(self.CONTROLS, self.TARGET, 3, control_values=values, swap=swap)
        basis = digit_matrix(3, 5)
        images = spec.apply(basis)
        assert np.array_equal(basis, digit_matrix(3, 5))  # the input is not written
        states = [tuple(row) for row in basis.tolist()]
        expected = [mct_reference(self.CONTROLS, self.TARGET, values, swap)(s) for s in states]
        assert [tuple(row) for row in images.tolist()] == expected
        assert [spec(s) for s in states] == expected

    @pytest.mark.parametrize("values,shift", [((0, 0, 0), 1), ((2, 0, 1), 2)])
    def test_mc_shift_spec_agrees_per_state_and_over_the_whole_basis(self, values, shift):
        spec = mc_shift_spec(self.CONTROLS, self.TARGET, 3, shift, control_values=values)
        basis = digit_matrix(3, 5)
        states = [tuple(row) for row in basis.tolist()]

        def reference(state):
            output = list(state)
            if _fires(state, self.CONTROLS, values):
                output[self.TARGET] = (output[self.TARGET] + shift) % 3
            return tuple(output)

        expected = [reference(s) for s in states]
        assert [tuple(row) for row in spec.apply(basis).tolist()] == expected
        assert [spec(s) for s in states] == expected

    def test_rowwise_wraps_a_per_state_callable(self):
        values, swap = (2, 0, 1), (0, 1)
        spec = mct_spec(self.CONTROLS, self.TARGET, 3, control_values=values, swap=swap)
        wrapped = checks.ArraySpec.rowwise(
            mct_reference(self.CONTROLS, self.TARGET, values, swap)
        )
        basis = digit_matrix(3, 5)
        assert np.array_equal(wrapped.apply(basis), spec.apply(basis))
        assert checks.ArraySpec.rowwise(spec) is spec

    def test_rowwise_rejects_an_image_of_the_wrong_arity(self):
        wrapped = checks.ArraySpec.rowwise(lambda state: state[:2])
        with pytest.raises(VerificationError, match="2 digits for 3 wires"):
            wrapped.apply(digit_matrix(3, 3))

    def test_sampled_tier_reads_the_gather_or_propagates_alike(self, monkeypatch):
        from repro.sim import permutation

        circuit = cx01_circuit(num_wires=4)
        outcomes = []
        for limit in (permutation.GATHER_MAX_STATES, 0):  # gather, then propagate
            monkeypatch.setattr(permutation, "GATHER_MAX_STATES", limit)
            assert checks.spec_sampled(circuit, cx01_spec(3, 4), 64, 5) == (
                64,
                "sample_basis_states(3, 4, 64, 5)",
            )
            with pytest.raises(VerificationError) as failure:
                checks.spec_sampled(circuit, lambda state: tuple(state), 64, 5)
            outcomes.append(str(failure.value))
        assert outcomes[0] == outcomes[1] and "failing row" in outcomes[0]
