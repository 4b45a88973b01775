"""Tests for the prior-work baselines and cost models."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.ancilla_free_exponential import (
    commutator_factors,
    synthesize_mcu_exponential,
    toffoli_payload_su,
)
from repro.baselines.clean_ancilla_ladder import (
    clean_ancilla_count,
    synthesize_mct_clean_ladder,
)
from repro.baselines.cost_models import (
    MODEL_REGISTRY,
    di_wei_model,
    moraga_exponential_model,
    reversible_function_models,
    standard_clean_ancilla_model,
    this_paper_model,
    yeh_vdw_model,
)
from repro.core.gate_counts import count_gates
from repro.core.toffoli import synthesize_mct
from repro.exceptions import GateError
from repro.qudit.ancilla import AncillaKind
from repro.verify import assert_mct_spec, assert_unitary_equiv, assert_wires_preserved
from repro.sim.unitary import multi_controlled_unitary_matrix

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestCleanAncillaLadder:
    @pytest.mark.parametrize("dim,k", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (4, 4), (5, 5), (4, 6)])
    def test_matches_spec(self, dim, k):
        result = synthesize_mct_clean_ladder(dim, k)
        assert_mct_spec(
            result.circuit, result.controls, result.target, clean_wires=result.clean_wires()
        )

    @pytest.mark.parametrize(
        "dim,k,expected",
        [(3, 2, 0), (3, 3, 1), (3, 5, 3), (3, 8, 6), (4, 6, 2), (5, 7, 2), (7, 12, 2)],
    )
    def test_ancilla_formula(self, dim, k, expected):
        assert clean_ancilla_count(dim, k) == expected
        assert synthesize_mct_clean_ladder(dim, k).ancilla_count(AncillaKind.CLEAN) == expected

    @pytest.mark.parametrize("dim,k", [(3, 4), (4, 5)])
    def test_clean_ancillas_return_to_zero(self, dim, k):
        result = synthesize_mct_clean_ladder(dim, k)
        assert_wires_preserved(result.circuit, result.clean_wires())

    def test_linear_gate_count(self):
        counts = [
            synthesize_mct_clean_ladder(3, k).circuit.num_ops() for k in range(3, 9)
        ]
        increments = [b - a for a, b in zip(counts, counts[1:])]
        assert max(increments) <= 6  # O(1) new gates per control

    def test_more_ancillas_than_ours(self):
        """The headline comparison: the baseline needs ⌈(k−2)/(d−2)⌉ clean
        ancillas where the paper needs at most one borrowed ancilla."""
        for dim in (3, 4, 5):
            ours = synthesize_mct(dim, 8).ancilla_count()
            baseline = clean_ancilla_count(dim, 8)
            assert ours <= 1 <= baseline


class TestExponentialBaseline:
    def test_commutator_factors_identity(self):
        v, w = commutator_factors(np.eye(3))
        assert np.allclose(v.conj().T @ w @ v @ w.conj().T, np.eye(3), atol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_commutator_factors_random_su(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(matrix)
        unitary = q * (np.diag(r) / np.abs(np.diag(r)))
        unitary = unitary * np.linalg.det(unitary) ** (-1 / 4)
        v, w = commutator_factors(unitary)
        assert np.allclose(v.conj().T @ w @ v @ w.conj().T, unitary, atol=1e-7)

    @pytest.mark.parametrize("dim", range(3, 8))
    def test_commutator_factors_cover_degenerate_spectra(self, dim):
        """The identity, the det-normalised X01 payload (a (d-1)-fold repeated
        phase), repeated phases, phases split by 1e-9 and random SU(d)."""
        rng = np.random.default_rng(dim)

        def random_su():
            q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            unitary = q * (np.diag(r) / np.abs(np.diag(r)))
            return unitary * np.linalg.det(unitary) ** (-1 / dim)

        def with_phases(thetas):
            thetas = np.asarray(thetas) - np.mean(thetas)  # determinant one
            basis = random_su()
            return basis @ np.diag(np.exp(1j * thetas)) @ basis.conj().T

        phases = rng.uniform(-np.pi, np.pi, size=dim)
        repeated = np.where(np.arange(dim) < dim // 2 + 1, phases[0], phases)
        split = phases.copy()
        split[1] = split[0] + 1e-9
        cases = [np.eye(dim), toffoli_payload_su(dim), with_phases(repeated),
                 np.diag(np.exp(1j * (repeated - repeated.mean()))), with_phases(split)]
        cases += [random_su() for _ in range(4)]
        for unitary in cases:
            v, w = commutator_factors(unitary)
            assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-9)
            assert np.allclose(w.conj().T @ w, np.eye(dim), atol=1e-9)
            assert np.allclose(v.conj().T @ w @ v @ w.conj().T, unitary, atol=1e-9)

    def test_mcu_exponential_needs_no_scipy(self):
        """The factorisation used to import ``scipy.linalg`` for one Schur
        decomposition: about 0.2 s and 22 MiB on the first synthesis."""
        code = (
            "import sys\n"
            "from repro.synth import registry\n"
            "result = registry.synthesize('mcu-exponential', 3, 3)\n"
            "registry.get('mcu-exponential').verify(result.circuit, 3, 3)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_rejects_non_special_unitary(self):
        with pytest.raises(GateError):
            commutator_factors(np.diag([1, 1, -1]))

    @pytest.mark.parametrize("dim,k", [(3, 1), (3, 2), (3, 3), (4, 2), (5, 2)])
    def test_circuit_matches_controlled_payload(self, dim, k):
        result = synthesize_mcu_exponential(dim, k)
        expected = multi_controlled_unitary_matrix(dim, k, toffoli_payload_su(dim))
        assert_unitary_equiv(result.circuit, expected, atol=1e-6)
        assert result.ancilla_count() == 0

    def test_gate_count_doubles_with_k(self):
        sizes = [synthesize_mcu_exponential(3, k).circuit.num_ops() for k in (1, 2, 3, 4, 5)]
        for smaller, larger in zip(sizes, sizes[1:]):
            assert larger >= 2 * smaller
        # The recursion T(k) = 2·T(k−1) + 2 keeps the size at or above 2^k.
        assert all(size >= 2**k for size, k in zip(sizes[2:], (3, 4, 5)))
        # Our synthesis, by contrast, adds a bounded number of ops per control.
        ours = [count_gates(synthesize_mct(3, k), lower=False).macro_ops for k in (3, 4, 5)]
        ours_increments = [b - a for a, b in zip(ours, ours[1:])]
        assert max(ours_increments) <= 60


class TestCostModels:
    def test_registry_contains_all_methods(self):
        assert len(MODEL_REGISTRY) == 5

    def test_standard_model_matches_formula(self):
        estimate = standard_clean_ancilla_model(3, 10)
        assert estimate.ancillas == clean_ancilla_count(3, 10)

    def test_orderings_at_large_k(self):
        k, dim = 30, 3
        linear = this_paper_model(dim, k).two_qudit_gates
        cubic = di_wei_model(dim, k).two_qudit_gates
        super_cubic = yeh_vdw_model(dim, k).two_qudit_gates
        exponential = moraga_exponential_model(dim, k).two_qudit_gates
        assert linear < cubic < super_cubic < exponential

    def test_rows_render(self):
        row = yeh_vdw_model(3, 5).as_row()
        assert row["model"] == "analytic"

    def test_reversible_models(self):
        models = reversible_function_models(3, 4)
        assert models["this paper O(n d^n)"] == 4 * 81
        assert models["Yeh & vdW O(d^n n^3.585)"] > models["this paper O(n d^n)"]
