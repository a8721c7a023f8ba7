"""Neuron Hamiltonians, protocols, spectra, trajectories, and truth tables."""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsnn import core, errors, fidelity, neurons, parameters

from conftest import bell_with_output

DOWN = np.array([1.0, 0.0], dtype=complex)
UP = np.array([0.0, 1.0], dtype=complex)
PLUS = (DOWN + UP) / math.sqrt(2)
MINUS = (DOWN - UP) / math.sqrt(2)


def _bell(label: str, out: np.ndarray) -> np.ndarray:
    return np.kron(core.BELL_VECTORS[label], out)


def _wrap(angle: float) -> float:
    return (angle + math.pi) % (2 * math.pi) - math.pi


def _f_avg(kind: str, params) -> fidelity.FidelityReport:
    spec = neurons.make_spec(kind, params, (0, 1), 2)
    return fidelity.average_fidelity(
        neurons.neuron_unitary(spec, tol=1e-10),
        neurons.ideal_unitary(kind, params),
        neurons.protocol_subspace(kind, params),
    )


class TestIdealUnitary:
    @pytest.mark.parametrize(
        "kind,params",
        [
            ("excitation", parameters.solve_exc(8, 17)),
            ("phase", parameters.solve_phase(3, 82)),
            ("phase", parameters.solve_phase(2, 40)),
            ("final_upup", parameters.make_final_params("detect_upup", 5, 4, 0)),
            (
                "final_downdown",
                parameters.make_final_params("detect_downdown", 5, 4, 0),
            ),
        ],
    )
    def test_unitarity(self, kind, params):
        u = neurons.ideal_unitary(kind, params).matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) < 1e-12

    @pytest.mark.parametrize("kind,params", [
        ("excitation", parameters.solve_exc(8, 17)),
        ("phase", parameters.solve_phase(3, 82)),
        ("phase", parameters.solve_phase(4, 164)),
    ])
    def test_fixed_ideals_built_once(self, kind, params):
        # The outer-product sum, as built for every call before the ideals
        # of these kinds were shared.
        u = np.zeros((8, 8), dtype=complex)
        if kind == "excitation":
            stay, back = 1j, -1j
            kept, flipped = ("Psi+", "Psi-"), ("Phi+", "Phi-")
        else:
            sign = (-1) ** int(round(params.m))
            stay, back = -1j * sign, 1j * sign
            kept, flipped = ("Psi+", "Phi+"), ("Psi-", "Phi-")
        for b in kept:
            u += np.outer(_bell(b, DOWN), _bell(b, DOWN))
            u += stay * np.outer(_bell(b, UP), _bell(b, UP))
        for b in flipped:
            u += np.outer(_bell(b, UP), _bell(b, DOWN))
            u += back * np.outer(_bell(b, DOWN), _bell(b, UP))
        shared = neurons.ideal_unitary(kind, params).matrix
        assert np.array_equal(shared, u)
        assert shared is neurons.ideal_unitary(kind, params).matrix
        with pytest.raises(ValueError):
            shared[0, 0] = 0.0

    @pytest.mark.parametrize("kind", ["final_upup", "final_downdown"])
    def test_final_ideal_built_once(self, kind):
        params = parameters.make_final_params(neurons.FINAL_VARIANTS[kind], 29, 15, 0)
        shared = neurons.ideal_unitary(kind, params).matrix
        assert neurons.ideal_unitary(kind, params).matrix is shared
        assert not shared.flags.writeable
        other = parameters.make_final_params(neurons.FINAL_VARIANTS[kind], 17, 9, 0)
        assert neurons.ideal_unitary(kind, other).matrix is not shared

    def test_exc_flip_and_phase_additions(self, exc_8_17):
        u = neurons.ideal_unitary("excitation", exc_8_17).matrix
        # Even-excitation inputs flip the output; odd ones leave it alone.
        assert np.vdot(_bell("Phi+", UP), u @ _bell("Phi+", DOWN)) == (
            pytest.approx(1.0)
        )
        assert np.vdot(_bell("Psi-", DOWN), u @ _bell("Psi-", DOWN)) == (
            pytest.approx(1.0)
        )
        # Flip-back from an excited output carries the -i addition; the
        # non-flipping states acquire the conjugate +i.
        assert np.vdot(_bell("Phi+", DOWN), u @ _bell("Phi+", UP)) == (
            pytest.approx(-1j)
        )
        assert np.vdot(_bell("Psi+", UP), u @ _bell("Psi+", UP)) == (
            pytest.approx(1j)
        )

    @pytest.mark.parametrize("m,n", [(3, 82), (2, 40)])
    def test_phase_flip_and_additions(self, m, n):
        u = neurons.ideal_unitary("phase", parameters.solve_phase(m, n)).matrix
        sign = (-1) ** m
        # Negative-sign Bell inputs flip the output; positive-sign do not.
        for label in ("Phi-", "Psi-"):
            assert np.vdot(_bell(label, UP), u @ _bell(label, DOWN)) == (
                pytest.approx(1.0)
            )
            assert np.vdot(_bell(label, DOWN), u @ _bell(label, UP)) == (
                pytest.approx(1j * sign)
            )
        for label in ("Phi+", "Psi+"):
            assert np.vdot(_bell(label, DOWN), u @ _bell(label, DOWN)) == (
                pytest.approx(1.0)
            )
            assert np.vdot(_bell(label, UP), u @ _bell(label, UP)) == (
                pytest.approx(-1j * sign)
            )


class TestTruthTables:
    def test_exc_per_state_fidelities(self, exc_spec, exc_8_17):
        report = _f_avg("excitation", exc_8_17)
        assert all(p >= 0.999 for p in report.per_state)

    def test_phase_per_state_fidelities(self, phase_3_82):
        report = _f_avg("phase", phase_3_82)
        assert all(p >= 0.985 for p in report.per_state)

    def test_apply_neuron_exc_flips_phi_plus(self, exc_spec):
        out = neurons.apply_neuron(bell_with_output("Phi+", 0), exc_spec)
        assert abs(out.overlap(bell_with_output("Phi+", 1))) >= 0.999

    def test_apply_neuron_phase_flips_psi_minus(self, phase_spec):
        out = neurons.apply_neuron(bell_with_output("Psi-", 0), phase_spec)
        assert abs(out.overlap(bell_with_output("Psi-", 1))) >= 0.985

    def test_apply_neuron_superposition(self, exc_spec):
        # (Phi+ + Psi-)/sqrt(2) with output down: the Phi+ part flips the
        # output, the Psi- part does not, so the image is the matching
        # superposition of single-input images.
        amps = (
            bell_with_output("Phi+", 0).amplitudes
            + bell_with_output("Psi-", 0).amplitudes
        ) / math.sqrt(2)
        out = neurons.apply_neuron(core.StateVector(3, amps), exc_spec)
        target = (
            bell_with_output("Phi+", 1).amplitudes
            + bell_with_output("Psi-", 0).amplitudes
        ) / math.sqrt(2)
        assert abs(np.vdot(target, out.amplitudes)) >= 0.999

    def test_linearity(self, exc_spec, rng):
        u = neurons.neuron_unitary(exc_spec)
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        combo = a + 0.5j * b
        direct = u.matrix @ combo
        split = u.matrix @ a + 0.5j * (u.matrix @ b)
        assert np.max(np.abs(direct - split)) < 1e-9

    def test_input_preservation_exc(self, exc_spec):
        for label in core.BELL_LABELS:
            out = neurons.apply_neuron(bell_with_output(label, 0), exc_spec)
            rho = _reduced_pair(out)
            bell = core.BELL_VECTORS[label]
            assert np.real(bell.conj() @ rho @ bell) >= 0.998

    def test_input_preservation_phase(self, phase_spec):
        for label in core.BELL_LABELS:
            out = neurons.apply_neuron(bell_with_output(label, 0), phase_spec)
            rho = _reduced_pair(out)
            bell = core.BELL_VECTORS[label]
            assert np.real(bell.conj() @ rho @ bell) >= 0.98


def _reduced_pair(state: core.StateVector) -> np.ndarray:
    psi = state.amplitudes.reshape(4, 2)
    return psi @ psi.conj().T


class TestAverageFidelityBenchmarks:
    def test_exc_8_17(self, exc_8_17):
        report = _f_avg("excitation", exc_8_17)
        assert report.f_avg == pytest.approx(0.9998, abs=5e-4)
        assert report.leakage <= 5e-4

    def test_phase_3_82(self, phase_3_82):
        assert _f_avg("phase", phase_3_82).f_avg == pytest.approx(
            0.9907, abs=3e-3
        )

    def test_phase_5_80(self):
        params = parameters.solve_phase(5, 80)
        assert _f_avg("phase", params).f_avg == pytest.approx(0.9638, abs=5e-3)

    def test_detuning_monotonicity(self):
        # Larger detuning ratios may only improve fidelity (up to a small
        # numerically allowed decrease).
        values = [
            _f_avg("excitation", parameters.solve_exc(k, l)).f_avg
            for k, l in ((3, 5), (8, 17), (20, 29))
        ]
        assert values[1] >= values[0] - 0.001
        assert values[2] >= values[1] - 0.001


class TestSpectrum:
    def test_exc_8_17_exact(self, exc_spec):
        report = neurons.spectrum_report(exc_spec)
        assert report.max_deviation < 1e-10
        assert sorted(report.predicted) == pytest.approx(
            [-24.5, -24.5, -0.5, -0.5, 9.5, 9.5, 15.5, 15.5]
        )

    @pytest.mark.parametrize("k,l", [(3, 5), (8, 17), (20, 29)])
    def test_exc_closed_form_all_params(self, k, l):
        spec = neurons.make_spec("excitation", parameters.solve_exc(k, l), (0, 1), 2)
        assert neurons.spectrum_report(spec).max_deviation < 1e-10

    @pytest.mark.parametrize("m,n", [(3, 82), (5, 80), (2, 40)])
    def test_phase_exact_block(self, m, n):
        # The positive-sign Bell block of the drive-free Hamiltonian has
        # exact eigenvalues J ± delta, each doubly degenerate.
        params = parameters.solve_phase(m, n)
        ham = neurons.build_phase_hamiltonian(params)
        static = core.TimeDependentHamiltonian(3, ham.static_terms, ())
        basis = np.array(
            [
                _bell("Phi+", DOWN), _bell("Phi+", UP),
                _bell("Psi+", DOWN), _bell("Psi+", UP),
            ]
        ).T
        block = basis.conj().T @ static.matrix(0.0) @ basis
        eigs = np.sort(np.linalg.eigvalsh(block))
        j, d = params.coupling_j, params.delta
        expected = np.sort([j - d, j - d, j + d, j + d])
        assert np.max(np.abs(eigs - expected)) < 1e-10

    def test_phase_report_bounded(self, phase_spec):
        assert neurons.spectrum_report(phase_spec).max_deviation < 1e-10

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    @pytest.mark.parametrize("m,n", [(2, 20), (3, 82), (5, 80)])
    def test_phase_exact_away_from_unit_gamma(self, m, n, gamma):
        # Off gamma = 1 the Phi+/Psi+ and Phi-/Psi- pairs split by 2J(gamma -+ 1)
        # before the X2X3 coupling mixes them; the closed form stays exact.
        params = dataclasses.replace(parameters.solve_phase(m, n), gamma=gamma)
        report = neurons.spectrum_report(neurons.make_spec("phase", params, (0, 1), 2))
        assert report.max_deviation < 1e-10

    @pytest.mark.parametrize("kind, variant", [("final_upup", "detect_upup"),
                                               ("final_downdown", "detect_downdown")])
    def test_local_field_final_layer_exact(self, kind, variant):
        # The (Omega/2) Z3 field splits each doublet by +-Omega/2.
        params = parameters.make_final_params(
            variant, 29, 15, 0, drive_mode="local_field", omega=50.0)
        report = neurons.spectrum_report(neurons.make_spec(kind, params, (0, 1), 2))
        assert report.max_deviation < 1e-10

    @pytest.mark.parametrize("amplitude", [1e-200, 2.5, 1e200])
    @pytest.mark.parametrize("kind, solve, point", [
        ("excitation", parameters.solve_exc, (8, 17)),
        ("phase", parameters.solve_phase, (3, 82)),
    ])
    def test_drive_units_do_not_depend_on_amplitude(self, kind, solve, point,
                                                     amplitude):
        reports = [
            neurons.spectrum_report(
                neurons.make_spec(kind, solve(*point, a), (0, 1), 2))
            for a in (1.0, amplitude)
        ]
        assert abs(reports[1].max_deviation - reports[0].max_deviation) <= 1e-12
        assert reports[1].max_deviation < 1e-10


class TestBarePhaseBookkeeping:
    """Bare-evolution propagator phases against the closed-form predictions."""

    def test_exc_8_17(self, exc_8_17):
        ham = neurons.build_exc_hamiltonian(exc_8_17)
        u = core.propagator(ham, math.pi, tol=1e-11).matrix
        beta, j, g = exc_8_17.beta, exc_8_17.coupling_j, exc_8_17.gamma
        root = math.sqrt(j * j + beta * beta)
        xi_phases = [g * j / 2 * math.pi + s * root * math.pi for s in (+1, -1)]
        dd = np.kron(np.kron(DOWN, DOWN), DOWN)
        uu = np.kron(np.kron(UP, UP), DOWN)
        cases = [
            (np.kron(np.kron(DOWN, DOWN), UP), dd,
             [-math.pi / 2 + (beta - g * j / 2) * math.pi]),
            (np.kron(np.kron(UP, UP), UP), uu,
             [-math.pi / 2 - (beta + g * j / 2) * math.pi]),
            (_bell("Psi+", DOWN), _bell("Psi+", DOWN), xi_phases),
            (_bell("Psi-", DOWN), _bell("Psi-", DOWN), xi_phases),
            (_bell("Psi+", UP), _bell("Psi+", UP), xi_phases),
            (_bell("Psi-", UP), _bell("Psi-", UP), xi_phases),
        ]
        for target, source, predictions in cases:
            coeff = np.vdot(target, u @ source)
            assert abs(coeff) >= 0.999
            dev = min(
                abs(_wrap(np.angle(coeff) - p)) for p in predictions
            )
            assert dev < 0.02

    def test_phase_3_82(self, phase_3_82):
        ham = neurons.build_phase_hamiltonian(phase_3_82)
        tau = math.pi / 2
        u = core.propagator(ham, tau, tol=1e-11).matrix
        j, d, b = phase_3_82.coupling_j, phase_3_82.delta, 1.0
        # Exact negative-sign block energies and the second-order light
        # shift of the positive-sign states under the static output field.
        root = math.sqrt(4 * j * j + d * d)
        shift = b * b / (2 * d)
        mix_p = lambda out: (_bell("Phi+", out) + _bell("Psi+", out)) / math.sqrt(2)
        mix_m = lambda out: (_bell("Phi+", out) - _bell("Psi+", out)) / math.sqrt(2)
        cases = [
            # Negative-sign inputs: resonant output flip |+> -> |->.
            (_bell("Phi-", -MINUS), _bell("Phi-", PLUS),
             -math.pi / 2 - (-j + root) * tau),
            (_bell("Psi-", -MINUS), _bell("Psi-", PLUS),
             -math.pi / 2 - (-j - root) * tau),
            # Positive-sign inputs: detuned, phase accumulation only.
            (mix_p(PLUS), mix_p(PLUS), -(j + d + shift) * tau),
            (mix_m(PLUS), mix_m(PLUS), -(j - d - shift) * tau),
            (mix_p(MINUS), mix_p(MINUS), -(j - d - shift) * tau),
            (mix_m(MINUS), mix_m(MINUS), -(j + d + shift) * tau),
        ]
        for target, source, prediction in cases:
            coeff = np.vdot(target, u @ source)
            assert abs(coeff) >= 0.999
            assert abs(_wrap(np.angle(coeff) - prediction)) < 0.02


# The benchmark's excitation points, as in bench/workloads.py.
EXC_POINTS = (
    (3, 5), (6, 10), (5, 13), (9, 15), (8, 17), (12, 20), (7, 25), (15, 25),
    (10, 26), (20, 29), (18, 30), (16, 34), (21, 35), (12, 37), (15, 39),
    (24, 40), (9, 41),
)


class TestTrajectories:
    def test_initial_conditions(self, exc_spec):
        traj = neurons.record_trajectory(exc_spec, ("Phi-",), samples=100)[0]
        assert traj.times[0] == 0.0
        assert traj.output_z[0] == pytest.approx(-1.0, abs=1e-9)
        assert traj.input_fidelity[0] == pytest.approx(1.0, abs=1e-9)

    def test_exc_phi_minus_flips(self, exc_spec):
        traj = neurons.record_trajectory(exc_spec, ("Phi-",), samples=200)[0]
        assert traj.output_z[-1] >= 0.99
        assert traj.input_fidelity[-1] >= 0.999

    def test_exc_psi_plus_holds(self, exc_spec):
        traj = neurons.record_trajectory(exc_spec, ("Psi+",), samples=200)[0]
        assert traj.output_z[-1] <= -0.99

    def test_matches_per_sample_loop(self, exc_spec):
        # Reference: one expectation/overlap call per sampled state.
        traj = neurons.record_trajectory(exc_spec, ("Phi+",), samples=64)[0]
        psi0 = bell_with_output("Phi+", 0)
        flipped = bell_with_output("Phi+", 1)
        block = core.evolve_sampled(
            [psi0], neurons.build_hamiltonian(exc_spec, 3), traj.times
        )[0]
        for i, amplitudes in enumerate(block):
            state = core.StateVector(3, amplitudes)
            assert traj.output_x[i] == pytest.approx(
                core.expectation(state, "X", 2), abs=1e-12)
            assert traj.output_z[i] == pytest.approx(
                core.expectation(state, "Z", 2), abs=1e-12)
            assert traj.input_fidelity[i] == pytest.approx(
                abs(psi0.overlap(state)) ** 2 + abs(flipped.overlap(state)) ** 2,
                abs=1e-12)

    def test_sample_count_and_monotone_times(self, phase_spec):
        traj = neurons.record_trajectory(phase_spec, ("Phi-",), samples=150)[0]
        assert len(traj.times) == 150
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.output_x) == len(traj.output_z) == 150

    def test_trajectories_own_their_arrays(self, exc_spec):
        first, second = neurons.record_trajectory(exc_spec, ("Phi+", "Psi-"),
                                                  samples=10)
        first.times[:] = 0.0
        assert second.times[-1] == math.pi

    @pytest.mark.parametrize("kind, params", [
        ("excitation", parameters.solve_exc(6, 10)),
        ("excitation", parameters.solve_exc(8, 17)),
        ("phase", parameters.solve_phase(3, 82)),
    ])
    def test_propagator_is_the_bare_unitary(self, kind, params):
        # Every Trajectory of one call carries the stack's last row, the bare
        # U(tau) that neuron_unitary would propagate, bit for bit, read-only.
        spec = neurons.make_spec(kind, params, (0, 1), 2)
        trajectories = neurons.record_trajectory(spec)
        bare = core.propagator(neurons.build_hamiltonian(spec), params.UNIT_TAU)
        assert all(t.propagator is trajectories[0].propagator for t in trajectories)
        assert np.array_equal(trajectories[0].propagator, bare.matrix)
        assert not trajectories[0].propagator.flags.writeable
        assert np.array_equal(
            neurons.neuron_unitary(spec, bare=trajectories[0].propagator).matrix,
            neurons.neuron_unitary(spec).matrix)

    @pytest.mark.parametrize("bad", [
        {"samples": 1}, {"samples": 2.5}, {"samples": "x"}, {"samples": True},
        {"input_labels": "Phi+"}, {"input_labels": ()},
        {"input_labels": ("Phi+", "Chi+")}, {"input_labels": 5},
        {"samples": 10**400},
    ])
    def test_invalid_arguments(self, exc_spec, bad):
        with pytest.raises(errors.InvalidParamsError):
            neurons.record_trajectory(exc_spec, **bad)

    def test_excitation_invariants_at_every_benchmark_point(self):
        # At each of the benchmark's 17 EXC_POINTS (bench/workloads.py) the 2×2-block
        # stack keeps Phi+ and Phi- bit-identical, as H never couples the |00> and |11>
        # input components, ends at the single-time U(tau), and so gives the report
        # the fidelity that it reads without the stack.
        for k, l in EXC_POINTS:
            params = parameters.solve_exc(k, l)
            trajectories = neurons.record_trajectory(
                neurons.make_spec("excitation", params, (0, 1), 2))
            columns = [np.column_stack((t.output_x, t.output_z, t.input_fidelity)).tobytes()
                       for t in trajectories]
            assert columns[0] == columns[1] and len(set(columns)) == 3, (k, l)
            bare = trajectories[0].propagator
            u = core.propagator(neurons.build_exc_hamiltonian(params), params.UNIT_TAU).matrix
            assert np.array_equal(bare, u), (k, l)
            assert (neurons.fidelity_report("excitation", params, bare)
                    == neurons.fidelity_report("excitation", params)), (k, l)

    def test_samples_beyond_host_memory_are_refused(self, exc_spec, monkeypatch):
        # A call peaks at up to about 2,600 bytes per sample (a local-field
        # final layer), so the guard counts 4,096: a call whose samples need
        # more than the host has is refused before anything is allocated.
        monkeypatch.setattr(core, "HOST_MEMORY", 4096 * 100)
        with pytest.raises(errors.InvalidParamsError, match="memory"):
            neurons.record_trajectory(exc_spec, ("Phi-",), samples=101)
        traj = neurons.record_trajectory(exc_spec, ("Phi-",), samples=100)[0]
        assert len(traj.times) == 100


class TestFinalLayers:
    @pytest.mark.parametrize("variant", ["detect_upup", "detect_downdown"])
    def test_hot_and_cold_inputs(self, variant):
        kind = "final_upup" if variant == "detect_upup" else "final_downdown"
        params = parameters.make_final_params(variant, 5, 4, 0)
        spec = neurons.make_spec(kind, params, (0, 1), 2)
        hot = (1, 1) if variant == "detect_upup" else (0, 0)
        cold = (0, 0) if variant == "detect_upup" else (1, 1)
        hot_in = core.StateVector.from_bits((*hot, 0))
        out = neurons.apply_neuron(hot_in, spec)
        assert abs(out.overlap(core.StateVector.from_bits((*hot, 1)))) >= 0.99
        cold_in = core.StateVector.from_bits((*cold, 0))
        out = neurons.apply_neuron(cold_in, spec)
        assert abs(out.overlap(cold_in)) >= 0.99

    def test_rotating_vs_local_field(self):
        # The circularly polarized drive and the static-local-field
        # construction with Omega = 50A agree on all computational inputs.
        rot = parameters.make_final_params("detect_upup", 29, 15, 0)
        loc = parameters.make_final_params(
            "detect_upup", 29, 15, 0, drive_mode="local_field", omega=50.0
        )
        spec_rot = neurons.make_spec("final_upup", rot, (0, 1), 2)
        spec_loc = neurons.make_spec("final_upup", loc, (0, 1), 2)
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
            state = core.StateVector.from_bits((*bits, 0))
            a = neurons.apply_neuron(state, spec_rot)
            b = neurons.apply_neuron(state, spec_loc)
            assert abs(a.overlap(b)) >= 0.99


class TestSpecValidation:
    def test_unknown_kind(self, exc_8_17):
        with pytest.raises(errors.InvalidParamsError):
            neurons.make_spec("通", exc_8_17, (0, 1), 2)

    def test_duplicate_wiring(self, exc_8_17):
        with pytest.raises(errors.InvalidParamsError):
            neurons.make_spec("excitation", exc_8_17, (0, 1), 1)

    @pytest.mark.parametrize("entry", [
        neurons.ideal_unitary,
        neurons.protocol_subspace,
        neurons.default_corrections,
        lambda kind, params: neurons.make_spec(kind, params, (0, 1), 2),
    ], ids=["ideal_unitary", "protocol_subspace", "default_corrections",
            "make_spec"])
    @pytest.mark.parametrize("kind", ["x", "phase", "final_upup", None,
                                      ["excitation"]])
    def test_kind_and_params_type_checked(self, entry, kind, exc_8_17):
        # Unknown kinds, and excitation parameters given to another kind.
        with pytest.raises(errors.InvalidParamsError):
            entry(kind, exc_8_17)

    @pytest.mark.parametrize("entry", [
        neurons.ideal_unitary,
        neurons.protocol_subspace,
        neurons.default_corrections,
        lambda kind, params: neurons.make_spec(kind, params, (0, 1), 2),
    ], ids=["ideal_unitary", "protocol_subspace", "default_corrections",
            "make_spec"])
    @pytest.mark.parametrize("kind, variant", [("final_upup", "detect_downdown"),
                                               ("final_downdown", "detect_upup")])
    def test_final_layer_variant_checked(self, entry, kind, variant):
        params = parameters.make_final_params(variant, 29, 15, 0)
        with pytest.raises(errors.InvalidParamsError):
            entry(kind, params)

    @pytest.mark.parametrize("corrections", [
        (("bogus",), ("evolution",)),
        (("evolution",), ("phase",)),
        (("evolution",), ("z_rotation", 0.1, 0.2)),
        (("evolution",), ("hadamard", 1.0)),
        (("evolution",), ("phase", "x")),
        (("evolution",), ("phase", math.inf)),
        (("evolution",), ("phase", True)),
        (("evolution",), "not_x"),
        (("phase", math.pi / 2),),
        (("evolution",), ("evolution",), ("phase", math.pi / 2)),
        [("evolution",)],
    ])
    def test_invalid_corrections_rejected(self, exc_8_17, corrections):
        with pytest.raises(errors.InvalidParamsError):
            neurons.make_spec("excitation", exc_8_17, (0, 1), 2, corrections)

    @pytest.mark.parametrize("kind, inputs, output, corrections", [
        ("phase", (0, 1), 3, None),       # its first Hadamard's target
        ("excitation", (0, 3), 2, None),  # a Hamiltonian qubit
        ("excitation", (0, 1), 5, ()),    # bare evolution, no gates
    ])
    def test_apply_neuron_rejects_qubits_outside_register(
            self, exc_8_17, phase_3_82, kind, inputs, output, corrections):
        params = exc_8_17 if kind == "excitation" else phase_3_82
        spec = neurons.make_spec(kind, params, inputs, output, corrections)
        with pytest.raises(errors.OutOfBoundsError):
            neurons.apply_neuron(core.StateVector.all_down(3), spec)

    @pytest.mark.parametrize("call", [
        lambda spec: neurons.record_trajectory(spec),
        lambda spec: neurons.neuron_unitary(spec),
        lambda spec: neurons.neuron_unitary(spec=spec, tol=1e-9),
        lambda spec: neurons.neuron_unitary(spec, bare=np.eye(8)),
        lambda spec: neurons.spectrum_report(spec),
        lambda spec: neurons.build_hamiltonian(spec),
        lambda spec: neurons.apply_neuron(5, spec),
        lambda spec: neurons.apply_neuron(core.StateVector.all_down(3), spec=spec),
        lambda spec: parameters.detuning_report(spec),
    ], ids=["record_trajectory", "neuron_unitary", "neuron_unitary-keyword",
            "neuron_unitary-bare", "spectrum_report", "build_hamiltonian",
            "apply_neuron", "apply_neuron-keyword", "detuning_report"])
    @pytest.mark.parametrize("spec", [5, None, "excitation", (0, 1, 2)])
    def test_wrong_typed_spec_rejected(self, call, spec):
        with pytest.raises(errors.InvalidParamsError, match="expected a NeuronSpec"):
            call(spec)

    @pytest.mark.parametrize("state", ["x", None, np.zeros(8), core.DenseOperator.identity(8)],
                             ids=["str", "none", "array", "operator"])
    def test_apply_neuron_rejects_what_is_no_state(self, exc_spec, state):
        with pytest.raises(errors.InvalidParamsError, match="expected a StateVector"):
            neurons.apply_neuron(state, exc_spec)

    @pytest.mark.parametrize("bare", ["x", [[1.0, 2.0]], np.ones((8, 8)),
                                      2 * np.eye(8)])
    def test_malformed_bare_unitary_rejected(self, exc_8_17, bare):
        spec = neurons.make_spec("excitation", exc_8_17, (0, 1), 2)
        with pytest.raises(errors.QsnnError):
            neurons.neuron_unitary(spec, bare=bare)

    @pytest.mark.parametrize("size", [1, 2, 4, 16])
    def test_bare_unitary_of_another_size_rejected(self, exc_8_17, size):
        # A square, unitary bare U that is not 8x8 is refused before the
        # correction gates' 8x8 product is taken.
        spec = neurons.make_spec("excitation", exc_8_17, (0, 1), 2)
        with pytest.raises(errors.DimensionMismatchError, match="8x8"):
            neurons.neuron_unitary(spec, bare=np.eye(size))

    def test_empty_corrections_mean_bare_evolution(self, exc_8_17):
        bare = neurons.make_spec("excitation", exc_8_17, (0, 1), 2, ())
        marked = neurons.make_spec("excitation", exc_8_17, (0, 1), 2,
                                   (("evolution",),))
        assert np.array_equal(neurons.neuron_unitary(bare).matrix,
                              neurons.neuron_unitary(marked).matrix)

    @pytest.mark.parametrize("wiring", [((0, 1), 2.0), ((0, True), 2),
                                        ((0, 1, 3), 2), (math.nan, 2), (None, 2)])
    def test_integer_wiring_required(self, exc_8_17, wiring):
        with pytest.raises(errors.InvalidParamsError):
            neurons.make_spec("excitation", exc_8_17, *wiring)
        with pytest.raises(errors.InvalidParamsError):
            neurons.NeuronSpec("phase", parameters.solve_phase(3, 82), *wiring)

    @pytest.mark.parametrize("params,field,value", [
        (parameters.solve_exc(8, 17), "j_sign", -1.0),
        (parameters.solve_exc(8, 17), "k", "8"),
        (parameters.solve_exc(8, 17), "gamma", 10**400),
        (parameters.solve_exc(8, 17), "relaxed", 1),
        (parameters.solve_phase(3, 82), "m", True),
        (parameters.solve_phase(3, 82), "drive_amplitude", -1.0),
        (parameters.make_final_params("detect_upup", 29, 15, 0), "l", 29.0),
        (parameters.make_final_params("detect_upup", 29, 15, 0), "parity_k",
         True),
        (parameters.make_final_params("detect_upup", 29, 15, 0), "omega",
         "50"),
        # Values of the right type that the classes reject.
        (parameters.solve_exc(8, 17), "j_sign", 2),
        (parameters.solve_exc(8, 17), "k", 8.5),
        (parameters.solve_exc(8, 17), "k", 20.0),
        (parameters.solve_phase(3, 82), "n", 2.0),
        (parameters.solve_phase(3, 82), "m", 3.5),
        (parameters.solve_phase(3, 82), "m", 1.0),
        (parameters.make_final_params("detect_upup", 29, 15, 0), "variant",
         "detect_updown"),
        (parameters.make_final_params("detect_upup", 29, 15, 0), "drive_mode",
         "static"),
        (parameters.make_final_params("detect_upup", 29, 15, 0), "drive_mode",
         "local_field"),
        (parameters.make_final_params(
            "detect_upup", 29, 15, 0, drive_mode="local_field", omega=50.0),
         "omega", 5.0),
        (parameters.make_final_params("detect_upup", 29, 15, 0), "omega", 50.0),
    ], ids=["exc-j_sign", "exc-k", "exc-gamma", "exc-relaxed", "phase-m",
            "phase-drive_amplitude", "final-l",
            "final-parity_k", "final-omega", "exc-j_sign_2", "exc-k_not_integer",
            "exc-k_above_l", "phase-n_below_m", "phase-m_not_integer", "phase-4m_below_floor",
            "final-variant", "final-drive_mode", "final-local_field_without_omega",
            "final-omega_below_floor", "final-omega_with_rotating_drive"])
    def test_params_reject_wrong_types(self, params, field, value):
        with pytest.raises(errors.InvalidParamsError):
            dataclasses.replace(params, **{field: value})

    @pytest.mark.parametrize("kind,variant", [
        ("final_upup", "detect_downdown"), ("final_downdown", "detect_upup"),
    ])
    def test_final_kind_must_match_variant(self, kind, variant):
        params = parameters.make_final_params(variant, 29, 15, 0)
        with pytest.raises(errors.InvalidParamsError):
            neurons.make_spec(kind, params, (0, 1), 2)
        with pytest.raises(errors.InvalidParamsError):
            neurons.fidelity_report(kind, params)

    def test_final_params_need_beta_and_j(self):
        # The class solves beta and J itself; neither is an argument.
        with pytest.raises(TypeError):
            neurons.FinalLayerParams("detect_upup", 29, 15, 0, beta=21.0)
        params = neurons.FinalLayerParams("detect_upup", 29, 15, 0)
        assert (params.beta, params.coupling_j) == (21.0, -20.0)
        with pytest.raises(ValueError):
            dataclasses.replace(params, beta=2.0, coupling_j=3.0)
        moved = dataclasses.replace(params, l=35, s=18)
        assert (moved.beta, moved.coupling_j) == parameters.solve_final_beta(
            1.0, 35, 18, 0)

    def test_default_corrections_present(self, exc_8_17, phase_3_82):
        exc_seq = neurons.default_corrections("excitation", exc_8_17)
        assert any(g[0] == "evolution" for g in exc_seq)
        phase_seq = neurons.default_corrections("phase", phase_3_82)
        names = [g[0] for g in phase_seq]
        assert names.count("hadamard") == 2


@pytest.mark.parametrize("kind,params", [
    ("excitation", parameters.solve_exc(8, 17)),
    ("phase", parameters.solve_phase(3, 82)),
    ("final_upup", parameters.make_final_params("detect_upup", 29, 15, 0)),
    ("final_downdown",
     parameters.make_final_params("detect_downdown", 29, 15, 0)),
])
def test_fidelity_report_matches_acceptance_helper(kind, params):
    from test_acceptance import _neuron_report

    assert neurons.fidelity_report(kind, params) == _neuron_report(kind, params)


def test_fidelity_reports_do_not_depend_on_call_order():
    # The protocol vectors and Pauli strings are shared between calls; a
    # table keyed too coarsely would hand one neuron another's matrices.
    points = [
        ("excitation", parameters.solve_exc(8, 17)),
        ("phase", parameters.solve_phase(3, 82)),
        ("phase", parameters.solve_phase(4, 164)),
        ("final_upup", parameters.make_final_params("detect_upup", 29, 15, 0)),
        ("final_downdown",
         parameters.make_final_params("detect_downdown", 29, 15, 0)),
    ]
    forward = [neurons.fidelity_report(*point).f_avg for point in points]
    backward = [neurons.fidelity_report(*point).f_avg for point in points[::-1]]
    assert forward == backward[::-1]
    # The phase neuron's flip-back carries i(-1)^m, so even and odd m differ.
    for m, n in ((3, 82), (4, 164), (3, 82)):
        u = neurons.ideal_unitary("phase", parameters.solve_phase(m, n)).matrix
        for label in ("Phi-", "Psi-"):
            assert np.vdot(_bell(label, DOWN), u @ _bell(label, UP)) == (
                pytest.approx(1j * (-1) ** m, abs=1e-14)
            )


def _final(kind: str, mode: str):
    return lambda a: parameters.make_final_params(
        neurons.FINAL_VARIANTS[kind], 29, 15, 0, drive_amplitude=a,
        drive_mode=mode, omega=50 * a if mode == "local_field" else None)


# Each neuron as a function of its drive amplitude A; the local field is
# Omega = 50A.
AMPLITUDE_CASES = {
    "excitation_8_17": ("excitation", lambda a: parameters.solve_exc(8, 17, a)),
    "excitation_9_41": ("excitation", lambda a: parameters.solve_exc(9, 41, a)),
    "phase_3_82": ("phase", lambda a: parameters.solve_phase(3, 82, a)),
    **{f"{kind}_{mode}": (kind, _final(kind, mode))
       for kind in neurons.FINAL_VARIANTS for mode in ("rotating", "local_field")},
}


@functools.lru_cache(maxsize=None)
def _unit_amplitude_run(case: str):
    kind, make = AMPLITUDE_CASES[case]
    spec = neurons.make_spec(kind, make(1.0), (0, 1), 2)
    return neurons.neuron_unitary(spec).matrix, neurons.record_trajectory(
        spec, ("Phi-",), samples=40)[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(case=st.sampled_from(sorted(AMPLITUDE_CASES)),
       exponent=st.floats(-300.0, 300.0))
@settings(max_examples=40, deadline=None)
def test_neurons_do_not_depend_on_drive_amplitude(case, exponent):
    # The simulation runs in units of the drive, so A only rescales the
    # reported energies and tau, from 1e-300 to 1e300.
    kind, make = AMPLITUDE_CASES[case]
    params = make(10.0**exponent)
    spec = neurons.make_spec(kind, params, (0, 1), 2)
    u, traj = _unit_amplitude_run(case)
    assert np.max(np.abs(neurons.neuron_unitary(spec).matrix - u)) <= 1e-12
    scaled = neurons.record_trajectory(spec, ("Phi-",), samples=40)[0]
    assert scaled.times[0] == 0.0
    assert scaled.times[-1] == (math.pi / 2 if kind == "phase" else math.pi)
    for name in ("times", "output_x", "output_z", "input_fidelity"):
        assert np.max(np.abs(getattr(scaled, name) - getattr(traj, name))) <= 1e-12


def test_exc_coupling_does_not_cancel_at_l_near_k():
    # J = sqrt((l − k)(l + k)) keeps its digits where l² − k² cancels: one float
    # above k = 1e8 (where sqrt(l² − k²) read √2) and across the ±2% tune box of
    # (40, 41), whose l ≈ k edge sqrt(l² − k²) missed by up to 11%.  At
    # Pythagorean points J is the other leg, as before.
    import mpmath  # a test dependency, for this reference only

    p = neurons.ExcNeuronParams(k=1e8, l=math.nextafter(1e8, 2e8), relaxed=True)
    assert p.in_drive_units[0] == 1.7263349150062196
    rng = np.random.default_rng(7)
    ks, ls = 40 * rng.uniform(0.98, 1.02, 2000), 41 * rng.uniform(0.98, 1.02, 2000)
    with mpmath.workdps(50):
        for k, l in zip(ks[ls > ks], ls[ls > ks]):
            j = neurons.ExcNeuronParams(k=k, l=l, relaxed=True).in_drive_units[0]
            exact = mpmath.sqrt((mpmath.mpf(l) - k) * (mpmath.mpf(l) + k))
            assert abs(j - exact) <= 4e-16 * exact, (k, l)
    for a, b, c in parameters.pythagorean_triples(41):
        assert neurons.ExcNeuronParams(k=float(a), l=float(c)).in_drive_units[0] == b
        assert neurons.ExcNeuronParams(k=float(b), l=float(c)).in_drive_units[0] == a


@pytest.mark.parametrize("call", [
    lambda: parameters.pythagorean_triples(-10**5000),
    lambda: neurons.ExcNeuronParams(k=10**5000, l=17),
    lambda: fidelity.mc_average_fidelity(
        core.DenseOperator.identity(8), core.DenseOperator.identity(8), list(np.eye(8)[:2]),
        n_samples=-10**5000),
    lambda: neurons.record_trajectory(
        neurons.make_spec("excitation", parameters.solve_exc(8, 17), (0, 1), 2),
        samples=-10**5000),
], ids=["pythagorean_triples", "exc_params", "mc_average_fidelity", "record_trajectory"])
def test_an_int_too_long_to_print_is_named_by_its_type(call):
    # repr refuses an int of over 4,300 digits with a plain ValueError; the
    # check's own message must not leak it.
    with pytest.raises(errors.InvalidParamsError, match="int too long to print"):
        call()
