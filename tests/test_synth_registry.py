"""Synthesis registry: capability metadata, auto dispatch, CLI."""

from __future__ import annotations

import json

import pytest

from repro.core.toffoli import synthesize_mct
from repro.exceptions import ReproError, SynthesisError, VerificationError
from repro.exec import compile_lowered
from repro.sim.permutation import permutation_index_table
from repro.synth import AncillaBudget, auto_select, available, registry
from repro.synth.strategy import Synthesizer
from repro.__main__ import main as cli_main

EXPECTED_NAMES = {
    "mct",
    "mct-odd",
    "mct-even",
    "mct-clean-ladder",
    "mcu-exponential",
    "pk",
    "mcu",
    "increment",
    "reversible",
    "unitary",
}


class TestRegistry:
    def test_expected_strategies_registered(self):
        assert EXPECTED_NAMES <= set(registry.names())

    def test_get_unknown_raises_with_known_names(self):
        with pytest.raises(SynthesisError, match="mct"):
            registry.get("definitely-not-registered")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SynthesisError):
            registry.register(registry.get("mct"))

    def test_capabilities_metadata_is_complete(self):
        for strategy in registry.all_strategies():
            caps = strategy.capabilities
            assert strategy.name
            assert strategy.description
            assert caps.family
            assert caps.parities
            assert caps.gates
            assert caps.ancilla_kind in {"none", "borrowed", "clean"}

    def test_parity_filtering(self):
        names = {s.name for s in available(4, 5)}
        assert "mct-odd" not in names
        assert "pk" not in names
        assert "mct-even" in names
        names_odd = {s.name for s in available(3, 5)}
        assert "mct-even" not in names_odd
        assert "pk" in names_odd

    def test_budget_filtering(self):
        names = {s.name for s in available(3, 5, budget=AncillaBudget(clean=0))}
        assert "mct-clean-ladder" not in names
        assert "mct" in names
        ancilla_free = {s.name for s in available(4, 5, budget=AncillaBudget(total=0))}
        assert "mct-even" not in ancilla_free  # needs one borrowed wire
        assert "mcu-exponential" in ancilla_free

    def test_registry_synthesize_matches_legacy_wrapper(self):
        via_registry = registry.synthesize("mct", 3, 3)
        via_legacy = synthesize_mct(3, 3)
        assert via_registry.circuit.num_ops() == via_legacy.circuit.num_ops()
        assert (
            permutation_index_table(via_registry.circuit).tolist()
            == permutation_index_table(via_legacy.circuit).tolist()
        )

    def test_legacy_wrapper_docstring_points_to_registry(self):
        assert "repro.synth" in synthesize_mct.__doc__

    def test_layout_matches_synthesis(self):
        for name in ("mct", "mct-clean-ladder", "pk", "mcu", "increment"):
            strategy = registry.get(name)
            for dim in (3, 4):
                if not strategy.capabilities.supports_dim(dim):
                    continue
                k = max(4, strategy.capabilities.min_k)
                result = strategy.synthesize(dim, k)
                wires, histogram = strategy.layout(dim, k)
                assert wires == result.circuit.num_wires
                measured = {}
                for kind in result.ancillas.values():
                    measured[kind.value] = measured.get(kind.value, 0) + 1
                assert histogram == measured

    def test_every_supported_clean_ladder_point_lowers(self):
        """The even-d k=2 ladder has no idle wire for its gadget's borrowed
        ancilla: ``supports`` said True and lowering raised."""
        ladder = registry.get("mct-clean-ladder")
        for dim in (3, 4, 5, 6):
            ks = list(range(0, 6))
            claimed = [k for k in ks if ladder.supports(dim, k)]
            assert ladder.supports_batch(dim, ks).tolist() == [k in claimed for k in ks]
            for k in claimed:
                compile_lowered("mct-clean-ladder", dim, k)  # raises if it cannot lower
            assert (2 in claimed) == (dim % 2 == 1)

    def test_every_entry_point_refuses_what_supports_refuses(self):
        """``synthesize`` and ``estimate`` re-derived support from the
        capabilities and missed the even-d k=2 ladder: ``synthesize`` built a
        1-op circuit and ``estimate`` failed inside the lowering."""
        for strategy in registry.all_strategies():
            for dim in (2, 3, 4, 5):
                for k in (0, 1, 2, 3):
                    if strategy.supports(dim, k):
                        strategy._require(dim, k)
                    else:
                        with pytest.raises(ReproError):
                            strategy._require(dim, k)
        ladder = registry.get("mct-clean-ladder")
        for call in (ladder.synthesize, ladder.estimate):
            with pytest.raises(SynthesisError, match="does not support d=4, k=2"):
                call(4, 2)

    def test_batch_estimate_checks_every_k_not_only_the_ends(self):
        """Support is no longer contiguous in k (the even-d ladder lacks
        k=2), so a batch whose two ends are supported can still hold an
        unsupported point; it used to reach the lowering and fail there."""
        from repro.exceptions import EstimationError

        ladder = registry.get("mct-clean-ladder")
        with pytest.raises(EstimationError, match="first unsupported k=2"):
            ladder.estimate_batch(4, [1, 2, 3])
        assert ladder.estimate_batch(4, [1, 3]).metrics["g_gates"].tolist() == [
            ladder.estimate(4, 1).g_gates, ladder.estimate(4, 3).g_gates
        ]

    def test_verify_accepts_canonical_syntheses(self):
        for name in ("mct", "mct-clean-ladder", "pk", "mcu", "increment"):
            strategy = registry.get(name)
            k = max(3, strategy.capabilities.min_k)
            result = strategy.synthesize(3, k)
            strategy.verify(result.circuit, 3, k)  # raises on failure


class TestAutoDispatch:
    def test_small_k_prefers_exponential_baseline(self):
        choice = auto_select(3, 3, budget=AncillaBudget(clean=0))
        assert choice.strategy.name == "mcu-exponential"

    def test_large_k_without_clean_budget_prefers_paper(self):
        choice = auto_select(3, 30, budget=AncillaBudget(clean=0))
        assert choice.strategy.name == "mct"

    def test_unlimited_budget_prefers_clean_ladder(self):
        choice = auto_select(3, 30)
        assert choice.strategy.name == "mct-clean-ladder"

    def test_even_d_ancilla_free_falls_back_to_exponential(self):
        choice = auto_select(4, 6, budget=AncillaBudget(total=0))
        assert choice.strategy.name == "mcu-exponential"

    def test_no_applicable_strategy_raises(self):
        with pytest.raises(SynthesisError, match="no registered"):
            auto_select(3, 5, family="no-such-family")

    def test_considered_records_all_candidates(self):
        choice = auto_select(3, 10)
        names = {name for name, _, _ in choice.considered}
        assert {"mct", "mct-clean-ladder", "mcu-exponential"} <= names
        # Non-dispatchable duplicates are not ranked.
        assert "mct-odd" not in names

    def test_registry_synthesize_auto(self):
        result = registry.synthesize("auto", 3, 4, budget=AncillaBudget(clean=0, total=0))
        assert result.circuit.dim == 3

    def test_registry_synthesize_refuses_a_named_strategy_over_the_budget(self):
        """The budget used to be dropped for a named strategy, which then
        built its two clean ancillas."""
        with pytest.raises(SynthesisError, match=r"uses ancillas \{'clean': 2\}"):
            registry.synthesize("mct-clean-ladder", 3, 4, budget=AncillaBudget(clean=0))


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mct-clean-ladder" in out
        assert "Registered synthesis strategies" in out
        assert "Simulation backends:" in out
        assert "sparse" in out and "streaming" not in out

    def test_list_json(self, capsys):
        assert cli_main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {row["name"] for row in payload["strategies"]} >= {"mct", "pk"}
        assert payload["backends"]["dense"] == "available"
        # Every entry is either registered or carries a one-line reason.
        for status in payload["backends"].values():
            assert status == "available" or status

    def test_estimate_single_strategy(self, capsys):
        assert cli_main(["estimate", "3", "40", "--strategy", "mct-clean-ladder"]) == 0
        out = capsys.readouterr().out
        assert "mct-clean-ladder" in out

    def test_estimate_auto_json(self, capsys):
        assert cli_main(["estimate", "3", "6", "--max-clean", "0", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        chosen = [row for row in rows if row.get("auto") == "<<<"]
        assert len(chosen) == 1
        assert chosen[0]["strategy"] == "mcu-exponential"

    def test_estimate_handles_huge_counts(self, capsys):
        assert cli_main(["estimate", "3", "200", "--strategy", "mcu-exponential", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert "e+" in rows[0]["two_qudit_gates"]  # sci-notation string

    def test_synthesize_with_verify_and_lower(self, capsys):
        assert cli_main(["synthesize", "mct", "3", "3", "--verify", "--lower"]) == 0
        out = capsys.readouterr().out
        assert "verify: OK" in out

    def test_synthesize_auto(self, capsys):
        assert cli_main(["synthesize", "auto", "3", "3", "--max-clean", "0"]) == 0
        assert "auto dispatch picked" in capsys.readouterr().out

    def test_error_exit_code(self, capsys):
        assert cli_main(["estimate", "4", "5", "--strategy", "pk"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_budget_rejected_for_named_strategy(self, capsys):
        # An explicit --strategy that violates the ancilla budget must fail
        # loudly, not silently ignore the constraint.
        code = cli_main(
            ["estimate", "3", "20", "--strategy", "mct-clean-ladder", "--max-clean", "0"]
        )
        assert code == 1
        assert "budget" in capsys.readouterr().err
        code = cli_main(
            ["synthesize", "mct-clean-ladder", "3", "9", "--max-clean", "0"]
        )
        assert code == 1
        assert "budget" in capsys.readouterr().err


# ----------------------------------------------------------------------
# verify(circuit, d, k): wire roles from the layout alone
# ----------------------------------------------------------------------
def _role_cases():
    """Small (strategy, d, k) at both parities: k = 1 has no ancilla and
    k = 3 has every strategy's ancilla (borrowed or clean)."""
    for strategy in registry.all_strategies():
        if type(strategy).verify is Synthesizer.verify:
            continue
        for d, k in ((3, 1), (3, 3), (4, 1), (4, 3)):
            if (strategy.name, d, k) == ("unitary", 4, 3):
                k = 2  # a 64x64 target unitary takes seconds at k = 3
            if strategy.supports(d, k):
                yield strategy.name, d, k


@pytest.mark.parametrize("name,d,k", list(_role_cases()))
def test_layout_roles_match_synthesis_and_both_circuits_verify(name, d, k):
    strategy = registry.get(name)
    result = strategy.synthesize(d, k)
    wires, _ = strategy.layout(d, k)
    roles = sorted(set(result.controls) | ({result.target} - {None}))
    ancillas = sorted(result.ancillas)
    assert roles + ancillas == list(range(wires))  # ancillas trail
    if strategy.capabilities.family in ("toffoli", "mcu"):
        assert result.controls == tuple(range(k)) and result.target == k
    else:
        assert roles == list(range(k))
    assert strategy.verified_clean_wires(result.circuit, d, k) == tuple(result.clean_wires())
    served = compile_lowered(name, d, k).circuit
    for circuit in (result.circuit, served):
        assert strategy.verify(circuit, d, k).ok


def test_verify_rejects_a_circuit_on_another_register():
    strategy = registry.get("mct")
    circuit = strategy.synthesize(3, 4).circuit
    with pytest.raises(VerificationError, match="lays out d=3, k=3 on 4 wires"):
        strategy.verify(circuit, 3, 3)
