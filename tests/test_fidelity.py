"""Subspace average fidelity, leakage, and the Monte-Carlo oracle."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import unitary_group

from qsnn import core, errors, fidelity, neurons


def _basis(dim: int, count: int) -> list[np.ndarray]:
    return [np.eye(dim)[:, i].astype(complex) for i in range(count)]


def _random_unitary(dim: int, seed: int) -> np.ndarray:
    return unitary_group.rvs(dim, random_state=seed)


def _subspace_preserving_unitary(dim: int, d: int, seed: int) -> np.ndarray:
    """Block-diagonal unitary: random on the first d states, random outside."""
    u = np.zeros((dim, dim), dtype=complex)
    u[:d, :d] = unitary_group.rvs(d, random_state=seed)
    u[d:, d:] = unitary_group.rvs(dim - d, random_state=seed + 1)
    return u


class TestAverageFidelity:
    def test_identical_unitaries(self):
        u = core.DenseOperator(_subspace_preserving_unitary(8, 6, 1))
        report = fidelity.average_fidelity(u, u, _basis(8, 6))
        assert report.f_avg == pytest.approx(1.0, abs=1e-12)
        assert report.leakage == pytest.approx(0.0, abs=1e-12)
        assert report.subspace_dim == 6
        assert all(p == pytest.approx(1.0, abs=1e-12) for p in report.per_state)

    def test_global_phase_invariance(self):
        basis = _basis(8, 6)
        ideal = core.DenseOperator(_subspace_preserving_unitary(8, 6, 2))
        actual = core.DenseOperator(np.exp(0.7j) * ideal.matrix)
        report = fidelity.average_fidelity(actual, ideal, basis)
        assert report.f_avg == pytest.approx(1.0, abs=1e-12)
        assert report.leakage == pytest.approx(0.0, abs=1e-12)

    def test_known_single_state_rotation(self):
        # Ideal identity, actual phases one subspace state by angle theta:
        # M = diag(e^{i theta}, 1, ..., 1), so
        # f = (d + |e^{i theta} + (d-1)|^2) / (d(d+1)).
        dim, d, theta = 8, 6, 0.4
        basis = _basis(dim, d)
        actual = np.eye(dim, dtype=complex)
        actual[0, 0] = np.exp(1j * theta)
        report = fidelity.average_fidelity(
            core.DenseOperator(actual),
            core.DenseOperator(np.eye(dim, dtype=complex)),
            basis,
        )
        expected = (d + abs(np.exp(1j * theta) + (d - 1)) ** 2) / (d * (d + 1))
        assert report.f_avg == pytest.approx(expected, abs=1e-12)
        assert report.leakage == pytest.approx(0.0, abs=1e-12)

    def test_full_leakage_out_of_subspace(self):
        # A swap of a subspace state with an outside state leaks 1/d.
        dim, d = 8, 6
        basis = _basis(dim, d)
        actual = np.eye(dim, dtype=complex)
        actual[[0, 7]] = actual[[7, 0]]
        report = fidelity.average_fidelity(
            core.DenseOperator(actual),
            core.DenseOperator(np.eye(dim, dtype=complex)),
            basis,
        )
        assert report.leakage == pytest.approx(1.0 / d, abs=1e-12)

    def test_non_orthonormal_subspace_rejected(self):
        basis = _basis(8, 6)
        basis[1] = (basis[0] + basis[1]) / np.sqrt(2)
        u = core.DenseOperator.identity(8)
        with pytest.raises(errors.NonOrthonormalSubspaceError):
            fidelity.average_fidelity(u, u, basis)

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatchError):
            fidelity.average_fidelity(
                core.DenseOperator.identity(8),
                core.DenseOperator.identity(4),
                _basis(8, 6),
            )

    def test_report_bounds_validated(self):
        with pytest.raises(errors.InvalidParamsError):
            fidelity.FidelityReport(1.5, 0.0, (1.0,) * 6, 6)


class TestMonteCarloOracle:
    def test_identical_unitaries_every_sample(self):
        u = core.DenseOperator(_random_unitary(8, 3))
        mean, stderr = fidelity.mc_average_fidelity(
            u, u, _basis(8, 6), n_samples=500, seed=0
        )
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_per_seed(self):
        ideal = core.DenseOperator(_random_unitary(8, 4))
        actual = core.DenseOperator(_random_unitary(8, 5))
        basis = _basis(8, 6)
        a = fidelity.mc_average_fidelity(actual, ideal, basis, 400, seed=7)
        b = fidelity.mc_average_fidelity(actual, ideal, basis, 400, seed=7)
        c = fidelity.mc_average_fidelity(actual, ideal, basis, 400, seed=8)
        assert a == b
        assert a != c

    def test_matches_closed_form_on_perturbed_unitaries(self):
        # 20 cases of U_ideal . exp(i eps H) with random Hermitian H: the MC
        # estimate must fall within 3 standard errors of the closed form.
        rng = np.random.default_rng(99)
        basis = _basis(8, 6)
        for case in range(20):
            ideal = core.DenseOperator(_random_unitary(8, 100 + case))
            herm = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            herm = (herm + herm.conj().T) / 2
            eps = 0.05 + 0.1 * rng.random()
            actual = core.DenseOperator(ideal.matrix @ expm(1j * eps * herm))
            closed = fidelity.average_fidelity(actual, ideal, basis).f_avg
            mean, stderr = fidelity.mc_average_fidelity(
                actual, ideal, basis, n_samples=4000, seed=case
            )
            assert abs(mean - closed) <= 3 * max(stderr, 1e-12)

    def test_samples_beyond_host_memory_are_refused(self, monkeypatch):
        # A call peaks at about 32d + 21 bytes per sample, so the guard counts 64
        # per coefficient: draws that need more than the host has are refused
        # before anything is drawn.
        u = core.DenseOperator.identity(8)
        for n_samples in (core.HOST_MEMORY, 10**400):
            with pytest.raises(errors.InvalidParamsError, match="memory"):
                fidelity.mc_average_fidelity(u, u, _basis(8, 2), n_samples=n_samples)
        monkeypatch.setattr(fidelity, "HOST_MEMORY", 64 * 2 * 100)
        with pytest.raises(errors.InvalidParamsError, match="memory"):
            fidelity.mc_average_fidelity(u, u, _basis(8, 2), n_samples=101)
        assert fidelity.mc_average_fidelity(u, u, _basis(8, 2), n_samples=100)[0] == (
            pytest.approx(1.0, abs=1e-12))

    def test_exc_neuron_high_precision_cross_check(self, exc_spec, exc_8_17):
        actual = neurons.neuron_unitary(exc_spec, tol=1e-10)
        ideal = neurons.ideal_unitary("excitation", exc_8_17)
        subspace = neurons.protocol_subspace("excitation", exc_8_17)
        closed = fidelity.average_fidelity(actual, ideal, subspace).f_avg
        mean, stderr = fidelity.mc_average_fidelity(
            actual, ideal, subspace, n_samples=100_000, seed=1
        )
        assert abs(mean - closed) <= 3 * max(stderr, 1e-12)
        assert abs(mean - closed) <= 1e-3
