"""State-vector algebra, propagation engine, gates, and measurement."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qsnn import core, errors, fidelity, neurons, parameters

from conftest import bell_with_output, random_state

TAU_EXC = math.pi


def _h_exc(k=8, l=17):
    return neurons.build_exc_hamiltonian(parameters.solve_exc(k, l))


def _h_final(variant, drive_mode):
    omega = 50.0 if drive_mode == "local_field" else None
    params = parameters.make_final_params(
        variant, 29, 15, 0, drive_mode=drive_mode, omega=omega
    )
    return neurons.build_final_hamiltonian(params)


def _max_diff(a, b) -> float:
    return float(np.max(np.abs(a - b)))


@pytest.fixture
def integrated_spans(monkeypatch):
    """End times of every adaptive-integrator run while the test runs."""
    spans = []
    integrate = core._integrate

    def spy(static, drives, t_eval, tol):
        spans.append(float(t_eval[-1]))
        return integrate(static, drives, t_eval, tol)

    monkeypatch.setattr(core, "_integrate", spy)
    return spans


class TestStateVector:
    def test_normalization_enforced(self):
        with pytest.raises(errors.NormDriftError):
            core.StateVector(1, [1.0, 1.0])

    def test_nan_amplitudes_rejected(self):
        with pytest.raises(errors.NormDriftError):
            core.StateVector(1, [math.nan, 0.0])

    def test_length_must_match_register(self):
        with pytest.raises(errors.DimensionMismatchError):
            core.StateVector(2, [1.0, 0.0])

    def test_msb_bit_convention(self):
        # Qubit 0 is the most significant bit: |10> puts qubit 0 in |1>.
        state = core.StateVector.from_bits((1, 0))
        assert state.amplitudes[0b10] == pytest.approx(1.0)
        assert core.expectation(state, "Z", 0) == pytest.approx(+1.0)
        assert core.expectation(state, "Z", 1) == pytest.approx(-1.0)

    def test_down_is_zero_is_ground(self):
        state = core.StateVector.all_down(1)
        assert state.amplitudes[0] == pytest.approx(1.0)
        assert core.expectation(state, "Z", 0) == pytest.approx(-1.0)

    @pytest.mark.parametrize("call", [
        lambda: core.StateVector(10**400, [1]),
        lambda: core.StateVector(10**7, [1]),
        lambda: core.StateVector(0, [1]),
        lambda: core.StateVector("x", [1]),
        lambda: core.StateVector(1, "ab"),
        lambda: core.StateVector(1, [10**400, 0]),
        lambda: core.StateVector(True, [1, 0]),
        lambda: core.StateVector(2.0, [1, 0, 0, 0]),
        lambda: core.StateVector.from_bits("x"),
        lambda: core.StateVector.from_bits([2]),
        lambda: core.StateVector.from_bits([]),
        lambda: core.StateVector.from_bits(5),
        lambda: core.StateVector.all_down(100),
        lambda: core.StateVector.all_down(10**400),
        lambda: core.DenseOperator("x"),
    ], ids=["googol_qubits", "ten_million_qubits", "no_qubits", "str_qubits",
            "str_amplitudes", "huge_amplitude", "bool_qubits", "float_qubits",
            "str_bits", "bit_2", "no_bits", "scalar_bits", "all_down_100",
            "all_down_googol", "str_operator"])
    def test_only_an_integer_register_an_array_holds(self, call):
        # Each fails at once: no 2**n is formed for a register no array holds.
        with pytest.raises(errors.InvalidParamsError):
            call()

    def test_register_beyond_host_memory_is_refused(self, monkeypatch):
        # 16 PiB of amplitudes: refused before np.zeros, which overcommit
        # lets succeed, so that normalising would touch every page.
        with pytest.raises(errors.InvalidParamsError, match="50 qubits"):
            core.StateVector.all_down(50)
        monkeypatch.setattr(core, "HOST_MEMORY", 2**20)
        with pytest.raises(errors.InvalidParamsError, match="17 qubits"):
            core.StateVector.all_down(17)
        assert core.StateVector.all_down(16).num_qubits == 16


class TestHamiltonianConstruction:
    def test_hermitian_at_sampled_times(self):
        hams = [
            _h_exc(),
            neurons.build_phase_hamiltonian(parameters.solve_phase(3, 82)),
            neurons.build_final_hamiltonian(
                parameters.make_final_params("detect_upup", 5, 4, 0)
            ),
            neurons.build_final_hamiltonian(
                parameters.make_final_params(
                    "detect_upup", 5, 4, 0, drive_mode="local_field", omega=50.0
                )
            ),
        ]
        times = np.linspace(0.0, TAU_EXC, 100)
        for ham in hams:
            for t in times:
                m = ham.matrix(t)
                assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_static_term_duplicate_qubit_rejected(self):
        with pytest.raises(errors.DuplicateTargetError):
            core.StaticTerm(1.0, ((0, "X"), (0, "Z")))

    def test_drive_form_validated(self):
        with pytest.raises(errors.InvalidParamsError):
            core.DriveTerm(1.0, 2.0, 0, "square_wave")

    @pytest.mark.parametrize("call", [
        lambda: core.StaticTerm("a", ((0, "Z"),)),
        lambda: core.StaticTerm(1.0, (([0], "Z"),)),
        lambda: core.DriveTerm("a", 1.0, 0, "cosine_x"),
        lambda: core.TimeDependentHamiltonian(2.5),
        lambda: core.split_targets(np.ones(8, dtype=complex), 1),
    ], ids=["coefficient", "factor_qubit", "drive_amplitude", "num_qubits",
            "bare_int_targets"])
    def test_malformed_input_is_invalid_params(self, call):
        # A non-number or non-integer is a validation error, not a TypeError.
        with pytest.raises(errors.InvalidParamsError):
            call()


class TestEvolve:
    def test_zero_duration_is_identity(self, rng):
        state = random_state(3, rng)
        out = core.evolve(state, _h_exc(), 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_all_down_flips_output(self):
        out = core.evolve(core.StateVector.all_down(3), _h_exc(), TAU_EXC)
        p_up = core.measure(out, 2).p_up
        assert p_up >= 0.999

    def test_psi_minus_input_preserved_up_to_phase(self):
        state = bell_with_output("Psi-", 0)
        out = core.evolve(state, _h_exc(), TAU_EXC)
        assert abs(out.overlap(state)) >= 0.999

    def test_matches_piecewise_constant_oracle(self, rng):
        ham = _h_exc()
        duration = TAU_EXC / 3.0
        for _ in range(3):
            state = random_state(3, rng)
            fast = core.evolve(state, ham, duration, tol=1e-11)
            oracle = core.piecewise_constant_evolve(
                state, ham, duration, step=math.pi / 1e5
            )
            assert (
                np.linalg.norm(fast.amplitudes - oracle.amplitudes) < 1e-7
            )

    def test_norm_preserved(self, rng):
        for _ in range(5):
            state = random_state(3, rng)
            out = core.evolve(state, _h_exc(), TAU_EXC, tol=1e-10)
            assert abs(out.norm() - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatchError):
            core.evolve(core.StateVector.all_down(2), _h_exc(), 1.0)

    def test_piecewise_oracle_converges_with_step(self, rng):
        # Halving the piecewise-constant step should shrink the error by at
        # least the method's nominal first order.
        ham = _h_exc()
        state = random_state(3, rng)
        ref = core.piecewise_constant_evolve(state, ham, 1.0, step=1e-5)
        errs = []
        for step in (2e-2, 1e-2, 5e-3):
            approx = core.piecewise_constant_evolve(state, ham, 1.0, step=step)
            errs.append(np.linalg.norm(approx.amplitudes - ref.amplitudes))
        assert errs[0] / errs[1] >= 2.0
        assert errs[1] / errs[2] >= 2.0


class TestPropagator:
    def test_zero_duration_identity(self):
        u = core.propagator(_h_exc(), 0.0)
        assert np.allclose(u.matrix, np.eye(8), atol=1e-12)

    def test_unitarity(self):
        u = core.propagator(_h_exc(), TAU_EXC)
        u.assert_unitary()

    def test_columns_match_direct_evolution(self, rng):
        ham = _h_exc(3, 5)
        u = core.propagator(ham, TAU_EXC, tol=1e-11)
        for _ in range(20):
            state = random_state(3, rng)
            direct = core.evolve(state, ham, TAU_EXC, tol=1e-11)
            assert (
                np.linalg.norm(u.matrix @ state.amplitudes - direct.amplitudes)
                < 1e-6
            )

    def test_bare_evolution_flips_parity_even_inputs(self):
        # Without correction gates the bare propagator already flips the
        # output exactly when the input register holds an even number of
        # excitations, up to per-state phases.
        u = core.propagator(_h_exc(), TAU_EXC, tol=1e-11)
        for label in ("Phi+", "Phi-"):
            moved = u.matrix @ bell_with_output(label, 0).amplitudes
            target = bell_with_output(label, 1).amplitudes
            assert abs(np.vdot(target, moved)) >= 0.999
        for label in ("Psi+", "Psi-"):
            moved = u.matrix @ bell_with_output(label, 0).amplitudes
            target = bell_with_output(label, 0).amplitudes
            assert abs(np.vdot(target, moved)) >= 0.999


def _piecewise_loop(ham, duration, step):
    """The oracle as a per-step loop: one expm per midpoint, in time order."""
    support, static, drives = ham._local_pieces()
    steps = max(1, int(math.ceil(duration / step)))
    dt = duration / steps
    u = np.eye(len(static), dtype=complex)
    for i in range(steps):
        u = expm(-1j * dt * core._h_at(static, drives, (i + 0.5) * dt)) @ u
    return core.embed_matrix(u, support, ham.num_qubits)


class TestPiecewiseOracle:
    """The stacked-chunk oracle multiplies the per-step loop's exponentials."""

    @pytest.mark.parametrize("ham", [
        _h_exc(),
        core.TimeDependentHamiltonian(
            2, (core.StaticTerm(0.3, ((0, "Z"), (1, "Z"))),),
            (core.DriveTerm(0.8, 8.0, 1, "rotating_plus"),),
        ),
    ], ids=["cosine_x", "rotating_plus"])
    def test_equals_the_per_step_loop(self, ham):
        # 4,500 steps: one full chunk and part of a second.
        steps = core._PIECEWISE_CHUNK + 404
        oracle = core.piecewise_constant_propagator(ham, 0.9, 0.9 / steps).matrix
        assert np.array_equal(oracle, _piecewise_loop(ham, 0.9, 0.9 / steps))

    def test_static_hamiltonian(self):
        ham = core.TimeDependentHamiltonian(2, (core.StaticTerm(0.7, ((0, "X"),)),))
        oracle = core.piecewise_constant_propagator(ham, 0.5, 0.1).matrix
        assert np.array_equal(oracle, _piecewise_loop(ham, 0.5, 0.1))


class TestFastPaths:
    """Each exact method against the adaptive integrator at tol = 1e-11."""

    # At (21, 35) tau mod T falls within roundoff of T and counts as a turn.
    @pytest.mark.parametrize("k, l", [(3, 5), (8, 17), (9, 41), (21, 35)])
    def test_floquet_excitation(self, k, l, integrated_spans):
        ham = _h_exc(k, l)
        fast = core.propagator(ham, TAU_EXC, tol=1e-11).matrix
        # tau is k drive periods, and the Floquet path takes Magnus steps.
        assert integrated_spans == []
        ode = core.propagator(ham, TAU_EXC, tol=1e-11, method="ode").matrix
        assert _max_diff(fast, ode) <= 1e-9

    @pytest.mark.parametrize("variant", ["detect_upup", "detect_downdown"])
    @pytest.mark.parametrize("drive_mode", ["rotating", "local_field"])
    def test_final_layers(self, variant, drive_mode, integrated_spans):
        ham = _h_final(variant, drive_mode)
        fast = core.propagator(ham, TAU_EXC, tol=1e-11).matrix
        # Exact rotating frame or Magnus steps: neither integrates.
        assert integrated_spans == []
        ode = core.propagator(ham, TAU_EXC, tol=1e-11, method="ode").matrix
        assert _max_diff(fast, ode) <= 1e-9

    @pytest.mark.parametrize("form, x_scale", [("cosine_x", 1.0),
                                               ("rotating_plus", 0.5)])
    @pytest.mark.parametrize("frequency", [0.0, -0.0])
    def test_zero_frequency_drive_is_static(self, form, x_scale, frequency,
                                            integrated_spans):
        terms = (core.StaticTerm(0.7, ((0, "Z"), (1, "X"))),
                 core.StaticTerm(-0.4, ((1, "Y"),)))
        ham = core.TimeDependentHamiltonian(
            2, terms, (core.DriveTerm(1.3, frequency, 1, form),))
        u = core.propagator(ham, 2.5).matrix
        assert integrated_spans == []
        h = (0.7 * np.kron(core.PAULI_Z, core.PAULI_X)
             + np.kron(np.eye(2), -0.4 * core.PAULI_Y + 1.3 * x_scale * core.PAULI_X))
        assert _max_diff(u, expm(-2.5j * h)) <= 1e-12

    def test_zero_frequency_local_field(self, integrated_spans):
        # With beta = -21 A the local field drives at Omega - 2 beta / A = 0.
        params = parameters.make_final_params(
            "detect_downdown", 29, 15, 0, drive_mode="local_field", omega=-42.0)
        ham = neurons.build_final_hamiltonian(params)
        assert [drv.angular_frequency for drv in ham.drive_terms] == [0.0]
        fast = core.propagator(ham, params.UNIT_TAU).matrix
        assert integrated_spans == []
        ode = core.propagator(ham, params.UNIT_TAU, tol=1e-13, method="ode").matrix
        assert _max_diff(fast, ode) <= 1e-9

    def test_partial_period(self, rng):
        # tau/3 is 8/3 drive periods at (8,17): two whole periods and a rest.
        ham = _h_exc(8, 17)
        fast = core.propagator(ham, TAU_EXC / 3, tol=1e-11).matrix
        ode = core.propagator(ham, TAU_EXC / 3, tol=1e-11, method="ode").matrix
        assert _max_diff(fast, ode) <= 1e-9
        state = random_state(3, rng)
        evolved = core.evolve(state, ham, TAU_EXC / 3, tol=1e-11)
        assert _max_diff(evolved.amplitudes, ode @ state.amplitudes) <= 1e-9

    @pytest.mark.parametrize("ham, tau", [
        (_h_exc(6, 10), TAU_EXC),
        (_h_final("detect_downdown", "rotating"), TAU_EXC),
        (neurons.build_phase_hamiltonian(parameters.solve_phase(3, 82)),
         math.pi / 2),
    ])
    def test_sampled_thousand_times(self, ham, tau):
        times = np.linspace(0.0, tau, 1000)
        _, ode = core._local_propagators(ham, times, 1e-11, "ode")
        state = bell_with_output("Phi+", 0)
        amplitudes = core.evolve_sampled([state], ham, times, tol=1e-11)[0]
        assert _max_diff(amplitudes, ode @ state.amplitudes) <= 1e-9

    @pytest.mark.parametrize("ham", [
        _h_exc(6, 10),
        _h_final("detect_downdown", "rotating"),
        neurons.build_phase_hamiltonian(parameters.solve_phase(3, 82)),
    ], ids=["floquet", "rotating", "static"])
    def test_sampled_block_matches_one_state_calls(self, ham):
        # One propagator stack applied to a block of states reads the same
        # bits as one call per state.
        times = np.linspace(0.0, TAU_EXC, 300)
        states = [bell_with_output(label, 0) for label in core.BELL_LABELS]
        block = core.evolve_sampled(states, ham, times)
        assert block.shape == (4, 300, 8) and block.flags.c_contiguous
        for state, amplitudes in zip(states, block):
            alone = core.evolve_sampled([state], ham, times)[0]
            assert np.array_equal(amplitudes, alone)

    @pytest.mark.parametrize("ham", [
        _h_exc(6, 10),
        _h_final("detect_downdown", "rotating"),
        neurons.build_phase_hamiltonian(parameters.solve_phase(3, 82)),
        core.TimeDependentHamiltonian(
            3, (core.StaticTerm(2.0, ((0, "X"), (1, "Y"))),), ()),
    ], ids=["floquet", "rotating", "static", "embedded"])
    def test_sampled_final_is_the_propagator(self, ham):
        # The stack's last row, handed back on H's support, is propagator's
        # U(t_max) bit for bit, and read-only.
        times, final = np.linspace(0.0, TAU_EXC, 300), []
        states = [core.StateVector.all_down(3)]
        block = core.evolve_sampled(states, ham, times, final=final)
        (u,) = final
        full = core.embed_matrix(u, ham.support(), 3)
        assert np.array_equal(full, core.propagator(ham, TAU_EXC).matrix)
        assert np.array_equal(block, core.evolve_sampled(states, ham, times))
        with pytest.raises(ValueError):
            u[0, 0] = 0.0

    def test_sampled_final_unitarity_checked(self, monkeypatch):
        local_propagators = core._local_propagators

        def drifting(*args):  # the dense form of the excitation neuron's block stack
            support, local = local_propagators(*args)
            local = np.array(local)
            local[-1] *= 1.001
            return support, local

        monkeypatch.setattr(core, "_local_propagators", drifting)
        with pytest.raises(errors.NormDriftError, match="unitarity"):
            core.evolve_sampled([bell_with_output("Phi+", 0)], _h_exc(),
                                [0.5, 1.0], final=[])

    def test_sampled_norm_drift_raises(self, monkeypatch):
        local_propagators = core._local_propagators

        def drifting(*args):
            support, local = local_propagators(*args)
            return support, 1.001 * np.asarray(local)

        monkeypatch.setattr(core, "_local_propagators", drifting)
        with pytest.raises(errors.NormDriftError):
            core.evolve_sampled([bell_with_output("Phi+", 0)], _h_exc(),
                                [0.5, 1.0])

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("ham, num_qubits, pairs", [
        (_h_exc(6, 10), 3, True),
        (neurons.build_phase_hamiltonian(parameters.solve_phase(3, 82)), 3, False),
        (_h_final("detect_upup", "local_field"), 3, False),
        (neurons.build_exc_hamiltonian(parameters.solve_exc(6, 10), 5, (4, 1, 2)), 5, True),
        (neurons.build_phase_hamiltonian(parameters.solve_phase(3, 82), 5, (3, 0, 2)), 5,
         False),
    ], ids=["exc_pairs", "phase_dense", "final_local_field", "exc_on_5", "phase_on_5"])
    def test_sampled_rows_match_one_block(self, ham, num_qubits, pairs, count, rng,
                                          monkeypatch):
        # Each state's row, filled from the stack and normalized in place, reads
        # the values of the whole block of states propagated at once, transposed
        # into a contiguous copy and normalized, for the trajectories' Bell
        # inputs and for any input on a register wider than H's support; on the
        # 2×2 blocks, bit for bit.  A dense stack applied to one state on its own
        # register is a matrix-vector product, which can give a zero the other
        # sign.  The inputs are left as they were; final gets the checked,
        # read-only last row.
        times = np.linspace(0.0, TAU_EXC, 250)
        if num_qubits == 3:
            states = [bell_with_output(label, bit)
                      for label, bit in zip(core.BELL_LABELS, (0, 1, 1, 0))][:count]
        else:
            states = [random_state(num_qubits, rng) for _ in range(count)]
        inputs = [state.amplitudes.copy() for state in states]
        support, local = core._local_propagators(ham, times, 1e-9, "auto", num_qubits)
        assert isinstance(local, core._PairStack) == pairs
        block = core.apply_local(local, support, np.stack([s.amplitudes for s in states], 1))
        expected = core._normalized(np.ascontiguousarray(block.transpose(2, 0, 1)))
        checked, check_isometry = [], core.check_isometry
        monkeypatch.setattr(core, "check_isometry",
                            lambda u: checked.append(u) or check_isometry(u))
        final = []
        evolved = core.evolve_sampled(states, ham, times, final=final)
        assert evolved.shape == (count, 250, 2**num_qubits) and evolved.flags.c_contiguous
        assert np.array_equal(evolved, expected)
        assert evolved.tobytes() == expected.tobytes() or not pairs
        assert all(s.amplitudes.tobytes() == a.tobytes() for s, a in zip(states, inputs))
        (u,) = final
        assert checked == [u] and not u.flags.writeable
        assert u.tobytes() == np.asarray(local[-1]).tobytes()

    @pytest.mark.parametrize("ham", [
        _h_exc(6, 10),
        neurons.build_phase_hamiltonian(parameters.solve_phase(3, 82)),
        _h_final("detect_upup", "local_field"),
    ], ids=["exc_pairs", "phase_dense", "final_local_field"])
    def test_sampled_row_does_not_depend_on_the_other_states(self, ham, rng):
        # On H's own register, one state is a matrix-vector product, which rounds
        # differently from the matrix product of a block of random states (by up
        # to 3.4e-16): each row reads the bits of its state's own call.
        times = np.linspace(0.0, TAU_EXC, 250)
        states = [random_state(3, rng) for _ in range(4)]
        evolved = core.evolve_sampled(states, ham, times)
        for state, row in zip(states, evolved):
            assert row.tobytes() == core.evolve_sampled([state], ham, times)[0].tobytes()
        support, local = core._local_propagators(ham, times, 1e-9, "auto", 3)
        block = core.apply_local(local, support, np.stack([s.amplitudes for s in states], 1))
        expected = core._normalized(np.ascontiguousarray(block.transpose(2, 0, 1)))
        assert _max_diff(evolved, expected) <= 1e-15

    def test_rotating_drive_with_transverse_static_term(self, integrated_spans):
        # X on the drive's target does not commute with its number operator,
        # so there is no exact rotating frame.
        ham = core.TimeDependentHamiltonian(
            2,
            static_terms=(
                core.StaticTerm(0.7, ((0, "Z"), (1, "Z"))),
                core.StaticTerm(0.4, ((1, "X"),)),
            ),
            drive_terms=(core.DriveTerm(1.0, 8.0, 1, "rotating_plus"),),
        )
        self._check_fallback(ham, integrated_spans)

    def test_two_drive_terms(self, integrated_spans):
        ham = core.TimeDependentHamiltonian(
            2,
            static_terms=(core.StaticTerm(0.7, ((0, "Z"), (1, "Z"))),),
            drive_terms=(
                core.DriveTerm(1.0, 8.0, 0, "cosine_x"),
                core.DriveTerm(0.8, 8.0, 1, "rotating_minus"),
            ),
        )
        self._check_fallback(ham, integrated_spans)

    @staticmethod
    def _check_fallback(ham, integrated_spans):
        # The drives' period pi/4 is shorter than the duration, so a Floquet
        # or other fast path would integrate over less than [0, 1].
        auto = core.propagator(ham, 1.0, tol=1e-11).matrix
        assert integrated_spans == [1.0]
        ode = core.propagator(ham, 1.0, tol=1e-11, method="ode").matrix
        assert np.array_equal(auto, ode)
        oracle = core.piecewise_constant_propagator(ham, 1.0, step=1e-4).matrix
        assert _max_diff(auto, oracle) < 1e-6

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_auto_matches_ode(self, data):
        # Two qubits, the drive on qubit 1.  Half the draws keep the static
        # part diagonal on qubit 1, so rotating drives reach their exact
        # frame; the others fall back to the integrator.
        form = data.draw(st.sampled_from(core.DRIVE_FORMS))
        target_axes = "IZ" if data.draw(st.booleans()) else "IXYZ"
        factors = st.tuples(
            st.sampled_from("IXYZ"), st.sampled_from(target_axes)
        ).filter(lambda axes: axes != ("I", "I"))
        terms = data.draw(st.lists(
            st.tuples(st.floats(-2.0, 2.0), factors), min_size=1, max_size=4
        ))
        static = tuple(
            core.StaticTerm(
                c, tuple((q, a) for q, a in enumerate(axes) if a != "I")
            )
            for c, axes in terms
        )
        sign = data.draw(st.sampled_from([-1.0, 1.0]))
        drive = core.DriveTerm(
            data.draw(st.floats(0.2, 2.0)),
            sign * data.draw(st.floats(0.5, 8.0)),
            1,
            form,
        )
        ham = core.TimeDependentHamiltonian(2, static, (drive,))
        duration = data.draw(st.floats(0.1, 2.5))
        auto = core.propagator(ham, duration, tol=1e-11).matrix
        ode = core.propagator(ham, duration, tol=1e-11, method="ode").matrix
        assert _max_diff(auto, ode) <= 1e-9


MAGNUS_CASES = {
    "exc-3-5": lambda: _h_exc(3, 5),
    "exc-9-41": lambda: _h_exc(9, 41),
    "exc-24-40": lambda: _h_exc(24, 40),
    "local_field-29-15": lambda: _h_final("detect_upup", "local_field"),
}


@functools.lru_cache(maxsize=None)
def _tight_ode(case: str) -> np.ndarray:
    ham = MAGNUS_CASES[case]()
    return core.propagator(ham, TAU_EXC, tol=1e-13, method="ode").matrix


class TestMagnus:
    """The Floquet period's order-6 Magnus steps against DOP853 at 1e-13."""

    @pytest.mark.parametrize("tol", [1e-7, 1e-9, 1e-11])
    @pytest.mark.parametrize("case", sorted(MAGNUS_CASES))
    def test_meets_tol(self, case, tol):
        u = core.propagator(MAGNUS_CASES[case](), TAU_EXC, tol=tol).matrix
        core.check_isometry(u)
        assert _max_diff(u, _tight_ode(case)) <= max(tol, 1e-11)

    @pytest.mark.parametrize("case", sorted(MAGNUS_CASES))
    def test_default_tol_leaves_a_tenth(self, case):
        # The step rule aims at tol / 10, so reports at the default tol
        # move by no more than 1e-10 from the exact U.
        u = core.propagator(MAGNUS_CASES[case](), TAU_EXC).matrix
        assert _max_diff(u, _tight_ode(case)) <= 1e-10

    @pytest.mark.parametrize("k, l, n, short", [(6, 10, 43, 166), (8, 17, 48, 498)])
    def test_sampled_stack_steps_once_per_phase(self, k, l, n, short, monkeypatch):
        # 1,000 times over tau hold 726 distinct floats t mod T at (6,10),
        # but only 333 phases beyond roundoff; at (8,17) all 999 differ.  H is
        # real, so half a period is a chain of n equal steps, the only running
        # product, and a phase p above T/2 is folded to T - p.  Each folded
        # phase lands on one below T/2, so (6,10) keeps 167 phases and (8,17)
        # 500; each off a chain node (all but 0, and at (8,17) also 333T/999)
        # takes one shorter step from the node below it.  The excitation
        # neuron's 2×2 blocks take the chain's and the short steps in one
        # call, exponentiated in closed form 16 * _MAGNUS_CHUNK at a time.
        calls, chunks = [], []
        exponentials, closed_form = core._magnus_exponentials, core._expm_pairs

        def spy(static, drive, left, width, basis):
            calls.append((left, width))
            return exponentials(static, drive, left, width, basis)

        def chunked(a):
            chunks.append(len(a))
            return closed_form(a)

        monkeypatch.setattr(core, "_magnus_exponentials", spy)
        monkeypatch.setattr(core, "_expm_pairs", chunked)
        ham, times = _h_exc(k, l), np.linspace(0.0, TAU_EXC, 1000)
        _, fast = core._local_propagators(ham, times, 1e-9)
        ((left, width),) = calls
        nodes, steps, left, width = left[:n], width[:n], left[n:], width[n:]
        period = TAU_EXC / k  # tau is k drive periods
        assert len(steps) == n
        assert nodes[0] == 0.0 and np.allclose(nodes[1:], np.cumsum(steps)[:-1])
        assert steps.sum() == pytest.approx(period / 2, rel=1e-14)
        assert np.isin(left, nodes).all()
        assert width.min() > 0.0 and width.max() < steps.min()
        assert len(width) == short
        assert sum(chunks) == n + short and max(chunks) <= 16 * core._MAGNUS_CHUNK
        _, ode = core._local_propagators(ham, times, 1e-11, "ode")
        assert _max_diff(fast, ode) <= 1e-9

    @pytest.mark.parametrize("k, l", [(8, 17), (20, 29), (21, 35)])
    def test_whole_periods_take_only_the_chain(self, k, l, monkeypatch):
        # tau is k drive periods, so U(tau) = U(T)^k takes no shorter step,
        # also at (21, 35), where tau mod T falls within roundoff of T; the
        # 14 basis matrices of the 2×2 blocks are built once.
        calls, bases = [], []
        exponentials, basis = core._magnus_exponentials, core._pair_magnus_basis
        monkeypatch.setattr(core, "_magnus_exponentials",
                            lambda *args: calls.append(args) or exponentials(*args))
        monkeypatch.setattr(core, "_pair_magnus_basis",
                            lambda *args: bases.append(args) or basis(*args))
        u = core.propagator(_h_exc(k, l), TAU_EXC).matrix
        assert len(calls) == len(bases) == 1
        left, width = calls[0][2:4]  # the half-period chain, no shorter step
        assert np.allclose(left[1:], left[:-1] + width[:-1], rtol=0.0, atol=1e-15)
        assert width.sum() == pytest.approx(TAU_EXC / k / 2, rel=1e-14)
        # The same chain gives U(T), and U(tau) is U(T)^k from its squares.
        _, local = core._local_propagators(_h_exc(k, l), [TAU_EXC / k, TAU_EXC], 1e-9)
        whole = local[0]
        assert np.array_equal(local[1], u)
        assert _max_diff(u, np.linalg.matrix_power(whole, k)) <= 1e-13

    @staticmethod
    def _edges(period):
        """Strictly increasing times within a few ulps of T/2, T and 3T/2."""
        times = []
        for edge in (period / 2, period, 1.5 * period):
            below = np.nextafter(np.nextafter(edge, 0.0), 0.0)
            above = np.nextafter(np.nextafter(edge, np.inf), np.inf)
            times += [below, np.nextafter(below, np.inf), edge,
                      np.nextafter(edge, np.inf), above]
        return np.array(times)

    @pytest.mark.parametrize("case", ["exc-3-5", "local_field-29-15"])
    @pytest.mark.parametrize("span", [
        "inside-second-half", "one-time-in-second-half", "several-periods",
        "near-half-and-whole-periods"])
    def test_folded_phases_match_ode(self, case, span):
        # For a real H a phase p in (T/2, T) is U(p) = conj(U(T - p)) U(T),
        # from the half-period chain; the fold must hold wherever a sample
        # falls, roundoff from T/2 or T included.
        ham = MAGNUS_CASES[case]()
        (drive,) = [d for d in ham.drive_terms if d.form == "cosine_x"]
        period = 2.0 * math.pi / abs(drive.angular_frequency)
        times = {
            "inside-second-half": np.linspace(0.0, 0.8 * period, 57),
            "one-time-in-second-half": np.array([0.7 * period]),
            "several-periods": np.linspace(0.0, 3.4 * period, 301),
            "near-half-and-whole-periods": self._edges(period),
        }[span]
        _, fast = core._local_propagators(ham, times, 1e-9)
        _, ode = core._local_propagators(ham, times, 1e-11, "ode")
        assert _max_diff(fast, ode) <= 1e-9

    @pytest.mark.parametrize("axes, span", [(("Y", "Y"), 0.5), (("Y", "I"), 1.0)])
    def test_chain_spans_half_a_period_only_for_a_real_h(self, axes, span, monkeypatch):
        # Y Y is real, so the chain spans T/2; a static term with one Y makes
        # H complex, H(t)^T != H(t), and the chain spans the whole period.
        calls = []
        exponentials = core._magnus_exponentials
        monkeypatch.setattr(core, "_magnus_exponentials",
                            lambda *args: calls.append(args[3]) or exponentials(*args))
        factors = tuple((q, a) for q, a in enumerate(axes) if a != "I")
        ham = core.TimeDependentHamiltonian(2, (
            core.StaticTerm(0.8, factors),
            core.StaticTerm(0.6, ((0, "X"), (1, "X"))),
            core.StaticTerm(0.3, ((1, "Z"),)),
        ), (core.DriveTerm(1.1, 3.0, 1, "cosine_x"),))
        period = 2.0 * math.pi / 3.0
        times = np.linspace(0.0, 1.7 * period, 40)
        _, fast = core._local_propagators(ham, times, 1e-9)
        assert calls[0].sum() == pytest.approx(span * period, rel=1e-14)
        _, ode = core._local_propagators(ham, times, 1e-11, "ode")
        assert _max_diff(fast, ode) <= 1e-9

    @pytest.mark.parametrize("axes", ["Z", "X", "ZX"])
    def test_one_qubit_is_one_pair(self, axes):
        # A real H on one qubit is a single 2×2 block in computational coordinates.
        terms = tuple(core.StaticTerm(0.7 - 0.3 * i, ((0, a),)) for i, a in enumerate(axes))
        ham = core.TimeDependentHamiltonian(1, terms, (core.DriveTerm(1.3, 4.0, 0, "cosine_x"),))
        times = np.linspace(0.0, 2.9, 40)
        _, fast = core._local_propagators(ham, times, 1e-10)
        assert isinstance(fast, core._PairStack) and np.array_equal(fast.basis, np.eye(2))
        _, ode = core._local_propagators(ham, times, 1e-12, "ode")
        assert _max_diff(fast, ode) <= 1e-9

    def test_complex_sector_basis_takes_the_dense_path(self, monkeypatch):
        # Y₀Y₁ and X₀ are real, but the Pauli strings that commute with both have
        # a complex joint eigenbasis: _pair_basis finds no real Q and returns
        # None, and the Floquet chain runs on the 4×4 H.
        returned, pair_basis = [], core._pair_basis
        monkeypatch.setattr(core, "_pair_basis",
                            lambda *args: returned.append(pair_basis(*args)) or returned[-1])
        ham = core.TimeDependentHamiltonian(2, (core.StaticTerm(0.7, ((0, "Y"), (1, "Y"))),),
                                            (core.DriveTerm(1.3, 4.0, 0, "cosine_x"),))
        times = np.linspace(0.0, 2.9, 40)
        _, fast = core._local_propagators(ham, times, 1e-9)
        assert returned == [None] and core._sector_basis(("YY", "XI")).dtype == complex
        assert isinstance(fast, np.ndarray) and fast.shape == (40, 4, 4)
        _, ode = core._local_propagators(ham, times, 1e-11, "ode")
        assert _max_diff(fast, ode) <= 1e-9

    def test_magnus_path_takes_no_eigendecomposition(self, eigh_inputs):
        # The sector basis that splits the excitation neuron's 4-state
        # component is one real eigh per term structure, cached; no U takes one.
        core._pair_basis.cache_clear()
        core._sector_basis.cache_clear()
        for k, l in [(6, 10), (8, 17)]:
            ham = _h_exc(k, l)
            core.propagator(ham, TAU_EXC)
            core._local_propagators(ham, np.linspace(0.0, TAU_EXC, 100), 1e-9)
        assert eigh_inputs == [np.float64]


_GL_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * (math.sqrt(15.0) / 10.0)


def _commutator_omega(static, drive, left, width):
    """The Magnus-6 exponent from the node matrices A_i = -i h H(t_i) and
    nested matrix commutators (Blanes, Casas & Ros, BIT 40, 434 (2000))."""
    amplitude, frequency, wave, string = drive
    a1, a2, a3 = (
        (-1j * width)[:, None, None]
        * (static + (amplitude * wave(frequency * (left + c * width)))[:, None, None]
           * string)
        for c in _GL_NODES
    )
    b1, b2, b3 = a2, math.sqrt(15.0) / 3.0 * (a3 - a1), 10.0 / 3.0 * (a3 - 2.0 * a2 + a1)

    def comm(x, y):
        return x @ y - y @ x

    c1 = comm(b1, b2)
    c2 = comm(b1, 2.0 * b3 + c1) / -60.0
    return b1 + b3 / 12.0 + comm(c1 - 20.0 * b1 - b3, b2 + c2) / 240.0


def _random_hermitian(rng, shape):
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (g + np.conj(np.swapaxes(g, -1, -2))) / 2.0


class TestMagnusExponent:
    """The affine exponent and the matmul exponential against their oracles."""

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("wave", [np.cos, np.sin])
    def test_affine_exponent_matches_the_commutator_form(self, dim, wave, rng,
                                                         monkeypatch):
        monkeypatch.setattr(core, "_expm_taylor", lambda omega: omega)
        for _ in range(5):
            static = _random_hermitian(rng, (dim, dim))
            drive = (rng.uniform(-3.0, 3.0), rng.uniform(-20.0, 20.0), wave,
                     _random_hermitian(rng, (dim, dim)))
            left = rng.uniform(0.0, 5.0, 300)
            width = rng.uniform(0.0, 0.3, 300)
            basis = core._magnus_basis(static, drive[3])
            omega = np.concatenate([part for _, part in core._magnus_exponentials(
                static, drive, left, width, basis)])
            assert _max_diff(omega, _commutator_omega(static, drive, left, width)) <= 1e-13

    @pytest.mark.parametrize("norm", np.geomspace(1e-3, 3.0, 9))
    def test_taylor_exponential_matches_eigh(self, norm):
        # Above a 1-norm of 1/4 the exponential squares, up to 4 times at 3.
        for seed in range(50):
            h = _random_hermitian(np.random.default_rng(seed), (40, 8, 8))
            h *= norm / np.abs(h).sum(-2).max(-1)[:, None, None]
            energies, vectors = np.linalg.eigh(h)
            exact = vectors * np.exp(-1j * energies)[:, None, :] @ np.conj(
                np.swapaxes(vectors, 1, 2))
            u = core._expm_taylor(-1j * h)
            assert _max_diff(u, exact) <= 1e-13
            assert _max_diff(np.conj(np.swapaxes(u, 1, 2)) @ u, np.eye(8)) <= 1e-14


class TestStaticPath:
    """A drive-free H takes one eigendecomposition, for one time or many."""

    @staticmethod
    def _check_against_expm(ham, times):
        h = ham.matrix(0.0)
        support, local = core._local_propagators(ham, times, 1e-9)
        assert support == tuple(range(ham.num_qubits))
        for t, u in zip(np.atleast_1d(times), local):
            expected = expm(-1j * t * h)
            scale = max(1.0, t * np.linalg.norm(h, 2))
            assert _max_diff(u, expected) <= 1e-14 * scale
            assert _max_diff(u.conj().T @ u, np.eye(len(u))) <= 1e-14

    @pytest.mark.parametrize("m, n", [(3, 82), (4, 164), (25, 300), (30, 600)])
    def test_phase_neuron_matches_expm(self, m, n, integrated_spans):
        params = parameters.solve_phase(m, n)
        ham = neurons.build_phase_hamiltonian(params)
        self._check_against_expm(ham, params.UNIT_TAU)
        self._check_against_expm(ham, params.UNIT_TAU * np.arange(1, 5) / 4)
        u = core.propagator(ham, params.UNIT_TAU).matrix
        _, local = core._local_propagators(ham, params.UNIT_TAU, 1e-9)
        assert np.array_equal(u, local[0])
        assert integrated_spans == []

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_pauli_hamiltonians_match_expm(self, data):
        num_qubits = data.draw(st.integers(1, 4))
        axes = st.text("IXYZ", min_size=num_qubits, max_size=num_qubits)
        terms = data.draw(st.lists(
            st.tuples(st.floats(-5.0, 5.0), axes), min_size=1, max_size=6
        ))
        # The zero term puts every qubit in the support, so the local
        # propagators are the full ones.
        ham = core.TimeDependentHamiltonian(num_qubits, tuple(
            core.StaticTerm(c, tuple((q, a) for q, a in enumerate(axes) if a != "I"))
            for c, axes in terms + [(0.0, "Z" * num_qubits)]
        ))
        times = sorted(data.draw(st.sets(st.floats(0.0, 10.0), min_size=1,
                                         max_size=4)))
        self._check_against_expm(ham, times)


@pytest.fixture
def eigh_inputs(monkeypatch):
    """The dtype of every matrix np.linalg.eigh decomposes while the test runs."""
    dtypes = []
    eigh = np.linalg.eigh

    def spy(h, *args, **kwargs):
        dtypes.append(h.dtype)
        return eigh(h, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return dtypes


class TestRealKernel:
    """A static H with no imaginary entry takes the real symmetric eigh, and the
    output-gate matrices the phase tune reads are built once per gate tuple."""

    def test_phase_model_and_propagator_decompose_a_real_matrix(self, eigh_inputs):
        # The phase model's sector basis comes from one real eigh per process;
        # its calls decompose nothing, and the report's propagator one real H.
        params = parameters.solve_phase(3, 82)
        core._sector_basis.cache_clear()
        for _ in range(2):
            model = neurons.FidelityModel("phase", params)
            model((3.0, 82.0))
            model((3.05, 81.5))
        core.propagator(neurons.build_phase_hamiltonian(params), params.UNIT_TAU)
        assert eigh_inputs == [np.float64, np.float64]

    def test_rotating_final_layer_decomposes_a_real_matrix(self, eigh_inputs):
        ham = _h_final("detect_upup", "rotating")
        u = core.propagator(ham, math.pi).matrix
        assert eigh_inputs == [np.float64]
        _, reference = core._local_propagators(ham, math.pi, 1e-12, method="ode")
        assert _max_diff(u, reference[0]) <= 1e-9

    def test_a_y_factor_keeps_the_complex_eigh(self, eigh_inputs):
        ham = core.TimeDependentHamiltonian(2, (
            core.StaticTerm(1.3, ((0, "X"), (1, "X"))),
            core.StaticTerm(0.7, ((0, "Y"),)),
            core.StaticTerm(-0.4, ((1, "Z"),)),
        ))
        TestStaticPath._check_against_expm(ham, [0.3, 1.0, 7.5])
        assert eigh_inputs == [np.complex128]

    def test_output_gates_are_built_once_per_gate_tuple(self):
        gates = (("hadamard",), ("phase", 0.25))
        first = neurons._output_gates(gates)
        assert neurons._output_gates(tuple(gates)) is first
        assert not first.flags.writeable
        assert neurons._output_gates(gates[:1]) is not first


def _term_strings(ham: core.TimeDependentHamiltonian) -> list[str]:
    """The Pauli string of each static term and of each drive piece."""
    def string(factors):
        axes = dict(factors)
        return "".join(axes.get(q, "I") for q in range(ham.num_qubits))
    return [string(t.factors) for t in ham.static_terms] + [
        string(((d.target_qubit, axis),))
        for d in ham.drive_terms for _, _, axis in core._AFFINE[d.form]]


def _neuron_hamiltonians():
    for gamma in (0.5, 1.0, 2.0):
        params = replace(parameters.solve_phase(3, 82), gamma=gamma)
        yield neurons.build_phase_hamiltonian(params), {"XXI", "ZZZ", "YYZ"}, 4
    yield _h_exc(), {"ZZI", "XXX", "YYX"}, 4
    for mode in ("rotating", "local_field"):
        yield _h_final("detect_upup", mode), {"ZZI"}, 2


def _symmetries(terms) -> list[str]:
    """The strings other than the identity, in product order, whose matrices commute
    with every term's and with those of the strings taken before them."""
    matrix = lambda s: core._pauli_string(tuple(s))  # noqa: E731
    chosen = []
    for s in ["".join(s) for s in itertools.product("IXYZ", repeat=len(terms[0]))][1:]:
        if all(np.array_equal(matrix(s) @ matrix(t), matrix(t) @ matrix(s))
               for t in (*terms, *chosen)):
            chosen.append(s)
    return chosen


def _assert_sectors(w: np.ndarray, strings, matrices, sectors: int) -> None:
    """W is unitary and diagonalises every string; its columns fall into `sectors`
    runs of equal eigenvalue signs, and no matrix couples two different runs."""
    assert _max_diff(w.conj().T @ w, np.eye(len(w))) <= 1e-12
    signs = []
    for s in strings:
        d = w.conj().T @ core._pauli_string(tuple(s)) @ w
        assert _max_diff(d, np.diag(d.diagonal())) <= 1e-12
        signs.append(np.rint(d.diagonal().real))
    labels = list(zip(*signs)) or [()] * len(w)
    assert len(list(itertools.groupby(labels))) == len(set(labels)) == sectors
    apart = np.array([[a != b for b in labels] for a in labels])
    for matrix in matrices:
        assert np.abs((w.conj().T @ matrix @ w)[apart]).max(initial=0.0) <= 1e-12


class TestSectorBasis:
    """Each neuron H commutes with a fixed group of Pauli strings, found by
    counting, and is block-diagonal in their common eigenbasis W."""

    @pytest.mark.parametrize("ham, symmetries, sectors", list(_neuron_hamiltonians()), ids=[
        "phase-0.5", "phase-1", "phase-2", "excitation", "final-rotating", "final-local_field"])
    def test_finds_the_neuron_symmetries(self, ham, symmetries, sectors):
        terms = tuple(_term_strings(ham))
        assert set(_symmetries(terms)) == symmetries
        w = core._sector_basis(terms)
        assert w.dtype == np.float64 and not w.flags.writeable
        matrices = [core._pauli_string(tuple(t)) for t in terms]
        _assert_sectors(w, symmetries, matrices + [ham.matrix(t) for t in (0.0, 0.37, 1.3)],
                        sectors)
        assert core._sector_basis(terms) is w  # cached on the strings

    @pytest.mark.parametrize("terms, sectors", [
        (("XI", "ZI"), 2),  # IX, IY, IZ commute with both, not with each other: IX
        (("XI", "ZI", "IX", "IZ"), 1),  # only the identity: one sector
        (("ZII", "IZI", "IIZ"), 8),
        (("YII",), 8),  # W is complex
    ])
    def test_commutation_by_counting(self, terms, sectors):
        # W diagonalises the strings whose matrices commute with the terms' and
        # with those before them, as counting decides it.
        w = core._sector_basis(terms)
        assert w.dtype == (complex if "YII" in terms else np.float64)
        _assert_sectors(w, _symmetries(terms), [core._pauli_string(tuple(t)) for t in terms],
                        sectors)


_BAD_PIECEWISE = [
    {"duration": math.nan}, {"duration": math.inf}, {"duration": -math.inf},
    {"duration": "x"}, {"duration": -1.0},
    {"step": math.nan}, {"step": math.inf}, {"step": "x"},
]


class TestValidation:
    """Inputs are checked once, at the engine, for every wrapper."""

    def test_evolve(self):
        state = core.StateVector.all_down(3)
        for bad in ({"duration": -1.0}, {"duration": math.nan},
                    {"tol": 0.0}, {"tol": -1e-9}, {"method": "rk4"}):
            with pytest.raises(ValueError):
                core.evolve(state, _h_exc(), **{"duration": 1.0, **bad})

    def test_evolve_sampled(self):
        state = core.StateVector.all_down(3)
        for times in ([], [-0.5, 1.0], [0.0, 1.0, 1.0], [1.0, 0.5],
                      [0.0, math.inf]):
            with pytest.raises(ValueError):
                core.evolve_sampled([state], _h_exc(), times)
        for tol in (0.0, -1.0):
            with pytest.raises(ValueError):
                core.evolve_sampled([state], _h_exc(), [0.0, 1.0], tol=tol)
        with pytest.raises(errors.DimensionMismatchError):
            core.evolve_sampled([core.StateVector.all_down(2)], _h_exc(), [1.0])

    def test_evolve_sampled_states(self):
        with pytest.raises(errors.DimensionMismatchError):
            core.evolve_sampled([], _h_exc(), [1.0])
        mixed = [core.StateVector.all_down(3), core.StateVector.all_down(2)]
        with pytest.raises(errors.DimensionMismatchError):
            core.evolve_sampled(mixed, _h_exc(), [1.0])

    def test_propagator(self):
        for bad in ({"duration": -1.0}, {"duration": math.inf},
                    {"tol": 0.0}, {"method": "rk4"}):
            with pytest.raises(ValueError):
                core.propagator(_h_exc(), **{"duration": 1.0, **bad})

    @pytest.mark.parametrize("bad", _BAD_PIECEWISE, ids=str)
    def test_piecewise_constant_propagator(self, bad):
        with pytest.raises(errors.InvalidParamsError):
            core.piecewise_constant_propagator(
                _h_exc(), **{"duration": 1.0, "step": 0.1, **bad})

    @pytest.mark.parametrize("bad", _BAD_PIECEWISE, ids=str)
    def test_piecewise_constant_evolve(self, bad):
        state = core.StateVector.all_down(3)
        with pytest.raises(errors.InvalidParamsError):
            core.piecewise_constant_evolve(
                state, _h_exc(), **{"duration": 1.0, "step": 0.1, **bad})

    @pytest.mark.parametrize("call", [
        lambda: core.propagator(_h_exc(), 1.0, tol="x"),
        lambda: core.propagator(_h_exc(), 1.0, tol=math.inf),
        lambda: core.evolve(core.StateVector.all_down(3), _h_exc(), "x"),
        lambda: core.evolve_sampled([core.StateVector.all_down(3)], _h_exc(),
                                    [0.5, "x"]),
        lambda: core.evolve(core.StateVector.all_down(3), _h_exc(), 10**400),
    ], ids=["tol_str", "tol_inf", "duration_str", "times_str", "duration_huge"])
    def test_local_propagators(self, call):
        with pytest.raises(errors.InvalidParamsError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: core.propagator(_h_exc(), 1.0, tol=0),
        lambda: core.evolve(core.StateVector.all_down(3), _h_exc(), -1.0),
        lambda: core.bell_state("x"),
        lambda: core.StaticTerm(1.0, ((0, "W"),)),
        lambda: core.StateVector.all_down(2).overlap(core.StateVector.all_down(3)),
        lambda: core.DenseOperator(np.ones((2, 3))),
        lambda: core.piecewise_constant_evolve(
            core.StateVector.all_down(2), _h_exc(), 1.0, 0.1),
        lambda: core.expectation(core.StateVector.all_down(1), "W", 0),
        lambda: fidelity.average_fidelity(
            core.DenseOperator.identity(8), core.DenseOperator.identity(8),
            [np.eye(4)[0]]),
        lambda: fidelity.mc_average_fidelity(
            core.DenseOperator.identity(8), core.DenseOperator.identity(4),
            [np.eye(8)[0]]),
        # Containers that once leaked a TypeError or ValueError from inside the call.
        lambda: core.StaticTerm(1.0, None),
        lambda: core.StaticTerm(1.0, ((0,),)),
        lambda: core.StaticTerm(1.0, ((0, []),)),
        lambda: core.TimeDependentHamiltonian(2, None),
        lambda: core.TimeDependentHamiltonian(2, (None,)),
        lambda: core.apply_gate(core.StateVector.all_down(1), ("not_x",), []),
        lambda: core.expectation(core.StateVector.all_down(1), [], 0),
        lambda: fidelity.average_fidelity(
            core.DenseOperator.identity(2), core.DenseOperator.identity(2), None),
        lambda: fidelity.average_fidelity(
            core.DenseOperator.identity(2), core.DenseOperator.identity(2), [[1, 0], [1]]),
        lambda: fidelity.mc_average_fidelity(
            core.DenseOperator.identity(2), core.DenseOperator.identity(2),
            list(np.eye(2)), seed="x"),
        lambda: core.DenseOperator.identity("x"),
        lambda: core.DenseOperator.identity(10**400),
        lambda: neurons.build_hamiltonian(
            neurons.make_spec("excitation", parameters.solve_exc(8, 17), (0, 1), 2), 3, "x"),
    ], ids=["tol", "duration", "bell_label", "axis", "overlap_registers",
            "operator_not_square", "piecewise_register", "expectation_axis",
            "subspace_length", "mc_dimensions", "factors_none", "factor_short",
            "factor_axis_list", "static_terms_none", "static_term_none",
            "gate_target_list", "expectation_axis_list", "subspace_none",
            "subspace_ragged", "mc_seed_str", "identity_str", "identity_huge",
            "build_targets_str"])
    def test_malformed_arguments_raise_qsnn_errors(self, call):
        with pytest.raises(errors.QsnnError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: parameters.solve_exc("a", 5),
        lambda: parameters.solve_exc(3, "b"),
        lambda: parameters.solve_exc(3, 5, gamma_mode="general", s="x"),
        lambda: parameters.solve_exc(5, 3),
        lambda: parameters.solve_exc(3, 5, gamma_mode="general"),
        lambda: parameters.solve_exc(3, 5, gamma_mode="general", s=4, sign=2),
        lambda: parameters.solve_exc(3, 5, gamma_mode="bogus"),
        lambda: parameters.solve_phase("a", 5),
        lambda: parameters.solve_final_beta(1, "a", 15, 0),
        lambda: parameters.solve_final_beta(1, 29, 15, "x"),
        lambda: parameters.solve_final_beta(1, 29, "s", 0),
        lambda: fidelity.mc_average_fidelity(
            core.DenseOperator.identity(2), core.DenseOperator.identity(2),
            [np.eye(2)[0]], n_samples="x"),
        lambda: fidelity.mc_average_fidelity(
            core.DenseOperator.identity(2), core.DenseOperator.identity(2),
            [np.eye(2)[0]], n_samples=1),
        lambda: core.piecewise_constant_propagator(_h_exc(), 1e300, 1e-10),
    ], ids=["exc_k_str", "exc_l_str", "exc_s_str", "exc_l_below_k", "exc_no_s",
            "exc_sign", "exc_gamma_mode", "phase_m_str", "final_l_str",
            "final_parity_str", "final_s_str", "mc_samples_str", "mc_one_sample",
            "piecewise_step_count"])
    def test_malformed_arguments_raise_invalid_params(self, call):
        with pytest.raises(errors.InvalidParamsError):
            call()

    @pytest.mark.parametrize("call", [
        lambda h: fidelity.average_fidelity(5, 5, []),
        lambda h: fidelity.mc_average_fidelity(5, 5, []),
        lambda h: core.evolve(5, h, 1.0),
        lambda h: core.evolve(core.StateVector.all_down(3), 5, 1.0),
        lambda h: core.propagator(5, 1.0),
        lambda h: core.evolve_sampled([5], h, [0.0, 1.0]),
        lambda h: core.StateVector.all_down(1).tensor(5),
        lambda h: core.StateVector.all_down(1).overlap(5),
        lambda h: core.measure(5, 0),
        lambda h: core.apply_gate(5, ("hadamard",), 0),
        lambda h: core.expectation(5, "X", 0),
        lambda h: core.piecewise_constant_evolve(5, h, 1.0, 0.1),
        lambda h: core.piecewise_constant_propagator(5, 1.0, 0.1),
        lambda h: core.embed_matrix(np.eye(2), (0,), "x"),
    ], ids=["average_fidelity", "mc_average_fidelity", "evolve_state",
            "evolve_hamiltonian", "propagator", "evolve_sampled", "tensor",
            "overlap", "measure", "apply_gate", "expectation",
            "piecewise_constant_evolve", "piecewise_constant_propagator",
            "embed_matrix"])
    def test_wrong_typed_object_raises_invalid_params(self, call):
        # An int where a state, operator, Hamiltonian or register size belongs.
        with pytest.raises(errors.InvalidParamsError):
            call(_h_exc())

    @pytest.mark.parametrize("label", [[], None, 1, ("Phi+",)], ids=str)
    def test_bell_state_rejects_a_label_that_is_no_str(self, label):
        with pytest.raises(errors.InvalidParamsError):
            core.bell_state(label)


class TestTensorEmbed:
    """embed_matrix and apply_local place an operator on its target qubits."""

    def test_identity_embeds_to_identity(self):
        out = core.embed_matrix(np.eye(8, dtype=complex), (1, 3, 0), 5)
        assert np.allclose(out, np.eye(32), atol=1e-14)

    def test_permuted_targets(self):
        # X (x) I (x) I placed at targets (2, 0, 1) acts as X on qubit 2.
        op = np.kron(core.PAULI_X, np.eye(4))
        out = core.embed_matrix(op, (2, 0, 1), 3)
        expected = core.embed_matrix(core.PAULI_X, (2,), 3)
        assert np.allclose(out, expected, atol=1e-14)

    def test_duplicate_target_rejected(self):
        with pytest.raises(errors.DuplicateTargetError):
            core.embed_matrix(np.eye(8, dtype=complex), (0, 0, 1), 3)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(errors.OutOfBoundsError):
            core.embed_matrix(np.eye(8, dtype=complex), (0, 1, 3), 3)

    def test_matches_kronecker_oracle_on_product_states(self, rng):
        for _ in range(50):
            num_qubits = int(rng.integers(3, 6))
            targets = tuple(rng.permutation(num_qubits)[:3])
            mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            embedded = core.embed_matrix(mat, targets, num_qubits)
            singles = [random_state(1, rng).amplitudes for _ in range(num_qubits)]
            product = singles[0]
            for s in singles[1:]:
                product = np.kron(product, s)
            # Oracle: apply the 8-dim operator on the target triple factored
            # out by explicit index bookkeeping via einsum reshaping.
            tensor = product.reshape((2,) * num_qubits)
            moved = np.moveaxis(tensor, targets, (0, 1, 2))
            moved = (mat @ moved.reshape(8, -1)).reshape(
                (2, 2, 2) + (2,) * (num_qubits - 3)
            )
            expected = np.moveaxis(moved, (0, 1, 2), targets).reshape(-1)
            assert np.allclose(embedded @ product, expected, atol=1e-10)
            applied = core.apply_local(mat, targets, product)
            assert np.allclose(applied, expected, atol=1e-10)

    def test_pauli_strings_match_kron_up_to_five_qubits(self):
        paulis = {"I": np.eye(2), **core.PAULI}
        for num_qubits in (3, 4, 5):
            for string in ("XYZ", "ZZX", "YIX"):
                op8 = np.eye(1)
                for ch in string:
                    op8 = np.kron(op8, paulis[ch])
                targets = tuple(range(3))
                embedded = core.embed_matrix(op8, targets, num_qubits)
                full = op8
                for _ in range(num_qubits - 3):
                    full = np.kron(full, np.eye(2))
                assert np.allclose(embedded, full, atol=1e-14)


def _kron_oracle(op, targets, num_qubits):
    """op on targets as a full matrix: kron with the identity, axes moved."""
    k = len(targets)
    full = np.kron(op, np.eye(2 ** (num_qubits - k))).reshape((2,) * 2 * num_qubits)
    order = [*targets, *(q for q in range(num_qubits) if q not in targets)]
    rows = np.moveaxis(full, range(num_qubits), order)
    both = np.moveaxis(rows, range(num_qubits, 2 * num_qubits),
                       [num_qubits + q for q in order])
    return both.reshape(2**num_qubits, 2**num_qubits)


class TestApplyLocal:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_kron_oracle(self, data):
        num_qubits = data.draw(st.integers(3, 6))
        targets = tuple(data.draw(st.permutations(range(num_qubits)))[
            :data.draw(st.integers(1, num_qubits))])
        stack = data.draw(st.sampled_from([None, 1, 3]))
        columns = data.draw(st.sampled_from([None, 1, 4]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        dim, k = 2**num_qubits, 2 ** len(targets)
        ops = rng.standard_normal((stack or 1, k, k)) + 1j * rng.standard_normal(
            (stack or 1, k, k))
        states = rng.standard_normal((dim, columns or 1)) + 0j
        op = ops if stack else ops[0]
        state_arg = states if columns else states[:, 0]
        out = core.apply_local(op, targets, state_arg)
        expected = np.array([_kron_oracle(o, targets, num_qubits) @ states
                             for o in ops])
        if not columns:
            expected = expected[:, :, 0]
        if not stack:
            expected = expected[0]
        assert out.shape == expected.shape
        assert np.allclose(out, expected, atol=1e-10)

    def test_split_and_merge_are_inverse(self, rng):
        states = rng.standard_normal((32, 3))
        block = core.split_targets(states, (4, 0))
        assert block.shape == (4, 24)
        assert np.array_equal(core.merge_targets(block, (4, 0), (32, 3)), states)

    def test_rejects_bad_shapes(self):
        with pytest.raises(errors.DimensionMismatchError):
            core.apply_local(np.eye(4), (0,), np.ones(8))
        with pytest.raises(errors.DimensionMismatchError):
            core.apply_local(np.eye(2), (0,), np.ones(6))


_ORACLE_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, 1j], [-1j, 0]]),
    "Z": np.diag([-1, 1]),
}


def _drive_oracle(form, a, w, t):
    """The 2x2 drive operator at t, written out from the drive's definition."""
    flip_up = np.array([[0, 0], [1, 0]])  # |up><down|
    if form == "cosine_x":
        return a * math.cos(w * t) * _ORACLE_PAULI["X"]
    if form == "static_z":
        return a * _ORACLE_PAULI["Z"]
    phase = np.exp((-1j if form == "rotating_plus" else 1j) * w * t)
    return 0.5 * a * (phase * flip_up + np.conj(phase) * flip_up.T)


def _register_kron(ops: dict, num_qubits: int) -> np.ndarray:
    """Kronecker product over the register: ops[q] on qubit q, else I."""
    full = np.eye(1)
    for q in range(num_qubits):
        full = np.kron(full, ops.get(q, _ORACLE_PAULI["I"]))
    return full


class TestAssemblyTables:
    @pytest.mark.parametrize("form", core.DRIVE_FORMS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matrix_matches_kron_sum(self, form, data):
        num_qubits = data.draw(st.integers(1, 5))
        qubits = st.permutations(range(num_qubits))
        terms, expected = [], 0
        for _ in range(data.draw(st.integers(0, 4))):
            size = data.draw(st.integers(1, min(3, num_qubits)))
            factors = tuple(
                (q, data.draw(st.sampled_from("XYZ")))
                for q in data.draw(qubits)[:size]
            )
            c = data.draw(st.floats(-2.0, 2.0))
            terms.append(core.StaticTerm(c, factors))
            expected = expected + c * _register_kron(
                {q: _ORACLE_PAULI[axis] for q, axis in factors}, num_qubits)
        drives = []
        for _ in range(data.draw(st.integers(1, 2))):
            a, w = data.draw(st.floats(0.1, 2.0)), data.draw(st.floats(-8.0, 8.0))
            drives.append(core.DriveTerm(
                a, w, data.draw(st.integers(0, num_qubits - 1)), form))
        t = data.draw(st.floats(0.0, 5.0))
        for drv in drives:
            expected = expected + _register_kron(
                {drv.target_qubit: _drive_oracle(form, drv.amplitude,
                                                 drv.angular_frequency, t)},
                num_qubits)
        ham = core.TimeDependentHamiltonian(num_qubits, tuple(terms),
                                            tuple(drives))
        for _ in range(2):  # the second call reads the tables the first filled
            assert _max_diff(ham.matrix(t), expected) <= 1e-14

    def test_tables_are_read_only(self, phase_3_82):
        final = parameters.make_final_params("detect_upup", 29, 15, 0)
        _, _, drives = _h_final("detect_upup", "rotating")._local_pieces()
        cached = [
            core._pauli_string(("X", "I", "Z")),
            drives[0][3],  # the drive's cached Pauli string
            neurons.protocol_subspace("phase", phase_3_82)[0],
            neurons.protocol_subspace("final_upup", final)[-1],
        ]
        for array in cached:
            with pytest.raises(ValueError):
                array[0] = 1.0
        assert core._pauli_string(("X", "I", "Z"))[0, 2] == 0.0


class TestGates:
    def test_hadamard_twice_is_identity(self, rng):
        state = random_state(2, rng)
        out = core.apply_gate(
            core.apply_gate(state, ("hadamard",), 1), ("hadamard",), 1
        )
        assert abs(out.overlap(state)) == pytest.approx(1.0, abs=1e-10)

    def test_phase_gate_adds_relative_i(self):
        state = core.StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
        out = core.apply_gate(state, ("phase", math.pi / 2), 0)
        ratio = (out.amplitudes[1] / out.amplitudes[0]) / (
            state.amplitudes[1] / state.amplitudes[0]
        )
        assert ratio == pytest.approx(1j, abs=1e-12)

    def test_out_of_bounds_target(self):
        with pytest.raises(errors.OutOfBoundsError):
            core.apply_gate(core.StateVector.all_down(2), ("hadamard",), 2)

    @pytest.mark.parametrize("gate", [
        ("phase",), ("hadamard", 1.0), ("phase", "x"), ("bogus",),
        ("evolution",), "not_x", ("z_rotation", math.nan), (),
    ], ids=str)
    def test_malformed_gate_rejected(self, gate):
        with pytest.raises(errors.InvalidParamsError):
            core.apply_gate(core.StateVector.all_down(1), gate, 0)

    @given(theta=st.floats(-10.0, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_z_rotation_composition(self, theta):
        state = core.StateVector(1, np.array([0.6, 0.8]))
        once = core.apply_gate(state, ("z_rotation", theta), 0)
        half = core.apply_gate(
            core.apply_gate(state, ("z_rotation", theta / 2), 0),
            ("z_rotation", theta / 2),
            0,
        )
        assert np.allclose(once.amplitudes, half.amplitudes, atol=1e-10)


class TestExpectation:
    def test_down_z(self):
        assert core.expectation(core.StateVector.all_down(1), "Z", 0) == (
            pytest.approx(-1.0)
        )

    def test_plus_x(self):
        plus = core.StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
        assert core.expectation(plus, "X", 0) == pytest.approx(1.0)

    def test_exc_neuron_output_z_after_phi_plus(self):
        out = core.evolve(bell_with_output("Phi+", 0), _h_exc(), TAU_EXC)
        assert core.expectation(out, "Z", 2) >= 0.998

    def test_bounds(self, rng):
        for _ in range(10):
            state = random_state(2, rng)
            for axis in "XYZ":
                val = core.expectation(state, axis, 0)
                assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


class TestMeasure:
    def test_deterministic_down(self):
        result = core.measure(core.StateVector.all_down(1), 0)
        assert result.p_down == pytest.approx(1.0, abs=1e-12)
        assert result.p_up == pytest.approx(0.0, abs=1e-12)

    def test_balanced_superposition(self):
        plus = core.StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
        result = core.measure(plus, 0)
        assert result.p_down == pytest.approx(0.5, abs=1e-12)
        assert result.p_up == pytest.approx(0.5, abs=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(20):
            state = random_state(3, rng)
            result = core.measure(state, 1)
            assert result.p_down + result.p_up == pytest.approx(1.0, abs=1e-12)

    def test_out_of_bounds(self):
        with pytest.raises(errors.OutOfBoundsError):
            core.measure(core.StateVector.all_down(2), 2)

    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_matches_explicit_projectors(self, num_qubits):
        rng = np.random.default_rng(100 + num_qubits)
        for qubit in range(num_qubits):
            state = random_state(num_qubits, rng)
            result = core.measure(state, qubit)
            for bit, p in enumerate(result):
                projector = np.kron(
                    np.kron(np.eye(2**qubit), np.diag(np.eye(2)[bit])),
                    np.eye(2 ** (num_qubits - qubit - 1)))
                projected = projector @ state.amplitudes
                assert abs(p - np.vdot(projected, projected).real) <= 1e-14
        with pytest.raises(errors.OutOfBoundsError):
            core.measure(state, num_qubits)
        with pytest.raises(errors.OutOfBoundsError):
            core.measure(state, -1)

    @pytest.mark.parametrize("qubit", range(4))
    def test_outcome_below_degeneracy_threshold_has_no_post_state(self, qubit):
        # Outcome up on `qubit` carries probability 1e-16 < 1e-14; the result
        # holds the two probabilities only, whatever their size.
        amps = np.zeros(16, dtype=complex)
        amps[0] = math.sqrt(1 - 1e-16)
        amps[1 << (3 - qubit)] = 1e-8
        result = core.measure(core.StateVector(4, amps), qubit)
        assert result._fields == ("p_down", "p_up")
        assert result.p_up == pytest.approx(1e-16, rel=1e-6)
        assert result.p_down == pytest.approx(1.0, abs=1e-15)

    def test_builds_no_state(self, monkeypatch, rng):
        state = random_state(5, rng)

        def no_state(*args):
            raise AssertionError("measure built a StateVector")

        monkeypatch.setattr(core, "_normalized", no_state)
        for qubit in range(5):
            assert sum(core.measure(state, qubit)) == pytest.approx(1.0, abs=1e-12)


class TestQubitIndex:
    """Every entry point that takes a qubit index takes an integer only."""

    BAD = [True, False, 1.0, "1", None, np.bool_(True), np.float64(0.0)]

    def _entry_points(self, qubit):
        state = core.StateVector.all_down(3)
        return {
            "measure": lambda: core.measure(state, qubit),
            "expectation": lambda: core.expectation(state, "Z", qubit),
            "apply_gate": lambda: core.apply_gate(state, ("hadamard",), qubit),
            "split_targets": lambda: core.split_targets(state.amplitudes, (qubit,)),
            "drive": lambda: core.TimeDependentHamiltonian(
                3, drive_terms=(core.DriveTerm(1.0, 2.0, qubit, "cosine_x"),)),
            "static": lambda: core.TimeDependentHamiltonian(
                3, static_terms=(core.StaticTerm(1.0, ((qubit, "Z"),)),)),
        }

    @pytest.mark.parametrize("entry", ["measure", "expectation", "apply_gate",
                                       "split_targets", "drive", "static"])
    @pytest.mark.parametrize("qubit", BAD, ids=repr)
    def test_rejects_a_non_integer(self, entry, qubit):
        with pytest.raises(errors.InvalidParamsError):
            self._entry_points(qubit)[entry]()

    @pytest.mark.parametrize("entry", ["measure", "expectation", "apply_gate",
                                       "split_targets", "drive", "static"])
    @pytest.mark.parametrize("qubit", [np.int64(1), np.int32(1), np.uint8(1)],
                             ids=repr)
    def test_accepts_a_numpy_integer(self, entry, qubit):
        expected = self._entry_points(1)[entry]()
        result = self._entry_points(qubit)[entry]()
        if isinstance(expected, core.StateVector):
            expected, result = expected.amplitudes, result.amplitudes
        if isinstance(expected, core.TimeDependentHamiltonian):
            expected, result = expected.matrix(0.3), result.matrix(0.3)
        assert np.array_equal(result, expected)
