"""Network composition, execution, back-action, kernel, and serialization."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qsnn import core, errors, network, neurons, parameters
from qsnn.cli import main


@pytest.fixture(scope="module")
def reduced():
    return network.template("reduced")


@pytest.fixture(scope="module")
def full():
    return network.template("full")


def _pure(label: str) -> network.BellAmplitudes:
    return network.BellAmplitudes.pure(label)


def _random_amplitudes(rng) -> network.BellAmplitudes:
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return network.BellAmplitudes.from_sequence(v)


class TestBellAmplitudes:
    def test_norm_enforced(self):
        with pytest.raises(errors.NormDriftError):
            network.BellAmplitudes(1.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("slot", range(4))
    def test_nan_amplitude_rejected(self, slot):
        amps = [0.0] * 4
        amps[(slot + 1) % 4] = 1.0
        amps[slot] = float("nan")
        with pytest.raises(errors.NormDriftError):
            network.BellAmplitudes(*amps)
        amps[slot] = complex("nan")
        with pytest.raises(errors.NormDriftError):
            network.BellAmplitudes.from_sequence(amps)

    @pytest.mark.parametrize("build", [
        lambda: network.BellAmplitudes("a", 0, 0, 0),
        lambda: network.BellAmplitudes.from_sequence(5),
        lambda: network.BellAmplitudes.from_sequence(["x", 0, 0, 0]),
        lambda: network.BellAmplitudes.from_sequence(["1", 0, 0, 0]),
        lambda: network.BellAmplitudes(True, 0, 0, 0),
    ], ids=["str", "scalar_sequence", "str_in_sequence", "numeric_str",
            "bool"])
    def test_non_numeric_amplitude_rejected(self, build):
        with pytest.raises(errors.InvalidParamsError):
            build()

    @pytest.mark.parametrize("build", [
        lambda: network.BellAmplitudes(10**400),
        lambda: network.BellAmplitudes.from_sequence([10**400, 0, 0, 0]),
        lambda: network.BellAmplitudes(complex(1e308, 1e308)),
        lambda: network.run(network.template("reduced"), np.array(["a"] * 16)),
    ], ids=["huge_int", "huge_int_in_sequence", "overflowing_abs", "str_vector"])
    def test_input_past_the_float_range_or_not_numeric_rejected(self, build):
        with pytest.raises((errors.InvalidParamsError, errors.NormDriftError)):
            build()

    def test_numbers_of_every_kind_accepted(self):
        for amps in ([1, 0, 0, 0], (np.int64(1), 0.0, 0j, np.float32(0)),
                     np.array([0.6, 0.8j, 0.0, 0.0], dtype=np.complex128)):
            built = network.BellAmplitudes.from_sequence(amps)
            assert built.as_tuple() == tuple(amps)

    def test_pure_and_pair_state(self):
        amps = _pure("Psi-")
        assert amps.as_tuple() == (0.0, 0.0, 0.0, 1.0)
        pair = np.asarray(amps.pair_state()).reshape(-1)
        assert abs(np.vdot(core.BELL_VECTORS["Psi-"], pair)) == (
            pytest.approx(1.0)
        )

    def test_pair_and_input_states_match_kron_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = _random_amplitudes(rng), _random_amplitudes(rng)
            ref_a, ref_b = (
                sum(amp * core.BELL_VECTORS[label]
                    for amp, label in zip(x.as_tuple(), core.BELL_LABELS))
                for x in (a, b))
            assert np.max(np.abs(a.pair_state() - ref_a)) <= 1e-15
            inputs = network._input_amplitudes((a, b))
            assert np.max(np.abs(inputs - np.kron(ref_a, ref_b))) <= 1e-15


class TestTemplates:
    def test_full_topology(self, full):
        assert full.num_qubits == 11
        assert len(full.schedule) == 7
        assert network.validate(full) == []

    def test_reduced_topology(self, reduced):
        assert reduced.num_qubits == 7
        assert len(reduced.schedule) == 5
        assert network.validate(reduced) == []

    def test_reduced_shared_targets_get_pre_phase(self, reduced):
        # The second probe of a shared middle-layer target carries an extra
        # phase gate so the two contributions interfere coherently.
        by_output = {}
        for entry in reduced.schedule[:-1]:
            by_output.setdefault(entry.output_qubit, []).append(entry)
        for output, entries in by_output.items():
            assert len(entries) == 2
            first, second = entries
            assert len(second.corrections) == len(first.corrections) + 1
            assert second.corrections[0][0] == "phase"

    @pytest.mark.parametrize("kind, params", [
        ("excitation", parameters.solve_exc(8, 17)),
        ("phase", parameters.solve_phase(3, 82)),
        ("phase", parameters.solve_phase(4, 164)),
        ("phase", parameters.solve_phase(25, 300)),
    ])
    def test_pre_phase_cancels_flip_back(self, kind, params):
        # A second probe may find its target excited: each flipped input's
        # flip-back amplitude <b,down|U|b,up>, times the pre-phase e^{i phi},
        # must be +1 for the matched inputs to interfere coherently.
        gate = network._second_probe_corrections(kind, params)[0]
        assert gate[0] == "phase"
        u = neurons.ideal_unitary(kind, params).matrix
        down, up = np.eye(2)
        flipped = ("Phi+", "Phi-") if kind == "excitation" else ("Psi-", "Phi-")
        for label in flipped:
            bell = core.BELL_VECTORS[label]
            flip_back = np.kron(bell, down).conj() @ u @ np.kron(bell, up)
            assert abs(flip_back * np.exp(1j * gate[1]) - 1) <= 1e-13


class TestValidation:
    def test_out_of_bounds_qubit(self, exc_8_17):
        spec = neurons.make_spec("excitation", exc_8_17, (0, 1), 2)
        bad = network.NetworkSpec.__new__(network.NetworkSpec)
        with pytest.raises(errors.NetworkValidationError):
            network.NetworkSpec(2, (spec,), (0, 1), 2)

    def test_causality_violation(self, exc_8_17):
        # The second neuron reads qubit 3 before anything writes it — fine;
        # a neuron reading its own later-written output is not the issue
        # here.  Reading the final output qubit before the entry that
        # writes it must be rejected.
        first = neurons.make_spec("excitation", exc_8_17, (0, 3), 2)
        second = neurons.make_spec("excitation", exc_8_17, (0, 1), 3)
        with pytest.raises(errors.NetworkValidationError) as err:
            network.NetworkSpec(4, (first, second), (0, 1), 3)
        assert "before" in str(err.value)

    def test_final_entry_must_write_output(self, exc_8_17):
        spec = neurons.make_spec("excitation", exc_8_17, (0, 1), 2)
        with pytest.raises(errors.NetworkValidationError):
            network.NetworkSpec(4, (spec,), (0, 1), 3)

    def test_unknown_run_mode(self, reduced):
        # Schema-1 documents named one of two executors; nothing else loads.
        data = json.loads(network.to_json(reduced))
        data.update(schema_version=1, run_mode="lindblad")
        with pytest.raises(errors.NetworkValidationError):
            network.from_json(json.dumps(data))

    def test_register_size_capped(self, reduced):
        # Rejected by validate() alone, before any register is allocated.
        # validate() takes only a NetworkSpec, so its size is edited in place.
        wide = copy.copy(reduced)
        for n in (network.MAX_QUBITS + 1, 64, 7.0, True):
            object.__setattr__(wide, "num_qubits", n)
            assert len(network.validate(wide)) == 1
            with pytest.raises(errors.NetworkValidationError):
                network.NetworkSpec(n, reduced.schedule, reduced.input_qubits,
                                    reduced.output_qubit)
        object.__setattr__(wide, "num_qubits", network.MAX_QUBITS)
        assert network.validate(wide) == []

    @pytest.mark.parametrize("call, error", [
        (lambda r: network.BellAmplitudes.pure("Phi"), errors.InvalidParamsError),
        (lambda r: network.BellAmplitudes.from_sequence([1, 0, 0]),
         errors.DimensionMismatchError),
        (lambda r: network.template("half"), errors.InvalidParamsError),
        (lambda r: network.template("full", final_params=parameters.make_final_params(
            "detect_downdown", 29, 15, 0)), errors.InvalidParamsError),
        (lambda r: network.back_action(network.run(r, (_pure("Phi+"),) * 2), r,
                                       "sideways"), errors.InvalidParamsError),
        (lambda r: network.NetworkSpec(5, (
            neurons.make_spec("excitation", r.schedule[2].params, (0, 1), 7),
            neurons.make_spec("excitation", r.schedule[2].params, (2, 3), 4),
        ), (0, 1, 2, 3), 4), errors.NetworkValidationError),
        (lambda r: network.NetworkSpec(5, (), (0, 1, 2, 3), 4),
         errors.NetworkValidationError),
    ], ids=["bell_label", "three_amplitudes", "template_kind", "template_variant",
            "outcome", "entry_outside_register", "empty_schedule"])
    def test_rejected_calls(self, reduced, call, error):
        with pytest.raises(error):
            call(reduced)

    @pytest.mark.parametrize("call", [
        lambda r, a: network.run(5, (a, a)),
        lambda r, a: network.initial_state(5, (a, a)),
        lambda r, a: network.output_excitation_probability(5, (a, a)),
        lambda r, a: network.back_action(5, r, "up"),
        lambda r, a: network.back_action(network.run(r, (a, a)), 5, "up"),
        lambda r, a: network.bell_kernel(5, a),
        lambda r, a: network.bell_kernel(a, 5),
        lambda r, a: network.simulated_bell_kernel(5, a, a),
        lambda r, a: network.to_json(5),
        lambda r, a: network.validate(5),
        lambda r, a: network.template("full", final_params=5),
        lambda r, a: network.NetworkSpec(11, [5], (0, 1, 2, 3), 10),
        lambda r, a: network.NetworkSpec(11, 5, (0, 1, 2, 3), 10),
    ], ids=["run", "initial_state", "output_excitation_probability",
            "back_action_state", "back_action_spec", "bell_kernel_a",
            "bell_kernel_b", "simulated_bell_kernel", "to_json", "validate",
            "template_final_params", "schedule_entry", "schedule"])
    def test_wrong_typed_object_rejected(self, reduced, call):
        # A wrong-typed object raises a QsnnError, never AttributeError or
        # TypeError from deeper inside.
        with pytest.raises(errors.QsnnError):
            call(reduced, _pure("Phi+"))

    @pytest.mark.parametrize("kind", ["full", "reduced"])
    @pytest.mark.parametrize("override", [
        {"exc_params": 0}, {"exc_params": []}, {"phase_params": ""},
        {"final_params": 0},
    ], ids=["exc_zero", "exc_empty_list", "phase_empty_str", "final_zero"])
    def test_falsy_template_params_rejected(self, kind, override):
        # Only None selects a default; any other non-params value is invalid.
        with pytest.raises(errors.InvalidParamsError):
            network.template(kind, **override)

    def test_integer_indices_required(self, reduced):
        for inputs, output in (((0, 1, 2, 3), 6.0), ((False, True, 2, 3), 6)):
            with pytest.raises(errors.NetworkValidationError):
                network.NetworkSpec(7, reduced.schedule, inputs, output)
        # Not a sequence at all: refused before it is converted to a tuple.
        for inputs in (None, math.nan, 5):
            with pytest.raises(errors.InvalidParamsError):
                network.NetworkSpec(7, reduced.schedule, inputs, 6)


class TestTruthTable:
    def test_reduced_diagonal_and_off_diagonal(self, reduced):
        for a, b in itertools.product(core.BELL_LABELS, repeat=2):
            p = network.output_excitation_probability(
                reduced, (_pure(a), _pure(b))
            )
            if a == b:
                assert p >= 0.97, (a, b, p)
            else:
                assert p <= 0.03, (a, b, p)

    def test_full_matches_reduced_thresholds(self, full):
        for a, b in itertools.product(core.BELL_LABELS, repeat=2):
            p = network.output_excitation_probability(full, (_pure(a), _pure(b)))
            if a == b:
                assert p >= 0.95, (a, b, p)
            else:
                assert p <= 0.05, (a, b, p)


def _apply_neuron_loop(spec, inputs) -> core.StateVector:
    """The schedule evolved through each neuron's dynamics on the register."""
    state = network.initial_state(spec, inputs)
    for entry in spec.schedule:
        state = neurons.apply_neuron(state, entry)
    return state


class TestRunModes:
    """network.run against the apply_neuron oracle over the schedule."""

    def test_reduced_mode_equivalence(self, reduced):
        for a, b in itertools.product(core.BELL_LABELS, repeat=2):
            fast = network.run(reduced, (_pure(a), _pure(b)))
            slow = _apply_neuron_loop(reduced, (_pure(a), _pure(b)))
            assert abs(fast.overlap(slow)) >= 0.999

    def test_full_mode_equivalence_spot_checks(self, full):
        for a, b in (("Phi+", "Phi+"), ("Phi-", "Psi+"), ("Psi-", "Psi-")):
            fast = network.run(full, (_pure(a), _pure(b)))
            slow = _apply_neuron_loop(full, (_pure(a), _pure(b)))
            assert abs(fast.overlap(slow)) >= 0.995

    def test_norm_preserved(self, reduced):
        final = network.run(reduced, (_pure("Phi+"), _pure("Psi-")))
        assert abs(final.norm() - 1.0) < 1e-9


def _haar_inputs(count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((count, 16)) + 1j * rng.standard_normal(
        (count, 16))
    return list(vectors / np.linalg.norm(vectors, axis=1, keepdims=True))


class TestIsometry:
    """network.run as one cached isometry V from the 16-dim input space."""

    @pytest.mark.parametrize("kind", ["reduced", "full"])
    def test_matches_apply_neuron_oracle(self, kind):
        spec = network.template(kind)
        pure = [(_pure(a), _pure(b))
                for a, b in itertools.product(core.BELL_LABELS, repeat=2)]
        for inputs in pure + _haar_inputs(20, seed=7):
            fast = network.run(spec, inputs).amplitudes
            slow = _apply_neuron_loop(spec, inputs).amplitudes
            assert np.max(np.abs(fast - slow)) <= 1e-11

    @pytest.mark.parametrize("kind", ["reduced", "full"])
    def test_cached_isometry_is_read_only_and_orthonormal(self, kind):
        spec = network.template(kind)
        network.run(spec, (_pure("Phi+"), _pure("Phi+")))
        v = network._isometry(spec)
        assert v.shape == (2**spec.num_qubits, 16)
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0, 0] = 1.0
        # V is as orthonormal as its neurons' unitaries allow: building it
        # adds no drift beyond theirs (1.7e-12 for each excitation neuron,
        # from its Floquet integration at tol 1e-9).
        def drift(m):
            return np.max(np.abs(m.conj().T @ m - np.eye(len(m.T))))
        budget = sum(drift(neurons.neuron_unitary(entry).matrix)
                     for entry in spec.schedule)
        assert drift(v) <= budget + 1e-14
        assert drift(v) <= 1e-11

    def test_drifting_isometry_rejected_when_built(self, reduced, monkeypatch):
        monkeypatch.setattr(neurons, "neuron_unitary",
                            lambda *args, **kwargs: core.DenseOperator(1.001 * np.eye(8)))
        network._isometry.cache_clear()  # so that V is built, not looked up
        with pytest.raises(errors.NormDriftError):
            network._isometry(reduced)

    @pytest.mark.parametrize("kind", ["reduced", "full"])
    def test_cold_build_propagates_each_distinct_neuron_once(self, kind, monkeypatch):
        # The reduced template probes each shared target twice with the same
        # neuron: its 5 entries hold 3 distinct (kind, params), as the full
        # template's 7 do, and each is propagated once per cold build.
        spec = network.template(kind)
        calls = []
        propagator = core.propagator
        monkeypatch.setattr(core, "propagator",
                            lambda *args, **kwargs: calls.append(1) or propagator(*args, **kwargs))
        network._isometry.cache_clear()
        network._isometry(spec)
        assert len(calls) == 3

    def test_input_boundary(self, reduced):
        x = _haar_inputs(1, seed=3)[0]
        with pytest.raises(errors.NormDriftError):
            network.run(reduced, 1.1 * x)
        x[5] = np.nan
        with pytest.raises(errors.NormDriftError):
            network.run(reduced, x)
        with pytest.raises(errors.DimensionMismatchError):
            network.run(reduced, np.full(15, 0.25, dtype=complex))
        with pytest.raises(errors.DimensionMismatchError):
            network.run(reduced, core.StateVector.all_down(3))
        a = _pure("Phi+")
        for bad in ((a, a, a), (a,), 5, None):
            with pytest.raises(errors.InvalidParamsError):
                network.run(reduced, bad)
            with pytest.raises(errors.InvalidParamsError):
                network.initial_state(reduced, bad)
            with pytest.raises(errors.InvalidParamsError):
                network.output_excitation_probability(reduced, bad)
        assert np.array_equal(network.run(reduced, [a, a]).amplitudes,
                              network.run(reduced, (a, a)).amplitudes)
        # A 4-qubit StateVector input is the pair's product state.
        pair = (_pure("Psi+"), _pure("Phi-"))
        state = core.StateVector(4, np.kron(*(p.pair_state() for p in pair)))
        # StateVector rescales by 1/norm, which may move the last bit.
        assert np.max(np.abs(network.run(reduced, state).amplitudes
                             - network.run(reduced, pair).amplitudes)) <= 1e-15

    def test_spec_from_lists_is_hashable_and_equal(self, reduced):
        # run() caches V by spec, so a spec holds tuples whatever it is given.
        listed = network.NetworkSpec(
            reduced.num_qubits,
            [dataclasses.replace(entry, input_qubits=list(entry.input_qubits))
             for entry in reduced.schedule],
            list(reduced.input_qubits), reduced.output_qubit)
        assert listed == reduced and hash(listed) == hash(reduced)
        pair = (_pure("Psi+"), _pure("Psi+"))
        assert np.array_equal(network.run(listed, pair).amplitudes,
                              network.run(reduced, pair).amplitudes)

    def test_padded_register_matches_template(self, full):
        # The full schedule in a MAX_QUBITS register with five idle qubits:
        # the largest V a spec can ask for.
        padded = network.NetworkSpec(network.MAX_QUBITS, full.schedule,
                                     full.input_qubits, full.output_qubit)
        for a, b in itertools.product(core.BELL_LABELS, repeat=2):
            pair = (_pure(a), _pure(b))
            assert network.output_excitation_probability(padded, pair) == (
                pytest.approx(network.output_excitation_probability(full, pair),
                              abs=1e-12))
        half = network.BellAmplitudes(0.0, 1 / math.sqrt(2), 1 / math.sqrt(2),
                                      0.0)
        small = network.run(full, (half, half))
        large = network.run(padded, (half, half))
        for outcome in ("up", "down"):
            expected = network.back_action(small, full, outcome)
            report = network.back_action(large, padded, outcome)
            assert report.probability == pytest.approx(expected.probability,
                                                       abs=1e-12)
            for name, overlap in expected.branch_overlaps.items():
                assert report.branch_overlaps[name] == pytest.approx(
                    overlap, abs=1e-12)


class TestKernel:
    def test_closed_form_on_random_pairs(self, rng):
        for _ in range(100):
            a = _random_amplitudes(rng)
            b = _random_amplitudes(rng)
            expected = sum(
                abs(x) ** 2 * abs(y) ** 2
                for x, y in zip(a.as_tuple(), b.as_tuple())
            )
            assert network.bell_kernel(a, b) == expected
            assert network.bell_kernel(a, b) == network.bell_kernel(b, a)

    def test_uniform_superposition_quarter(self):
        amps = network.BellAmplitudes.from_sequence([0.5] * 4)
        assert network.bell_kernel(amps, amps) == pytest.approx(0.25)

    def test_simulated_matches_closed_form(self, reduced, rng):
        cases = [
            (_pure("Phi+"), _pure("Phi+")),
            (
                network.BellAmplitudes.from_sequence([0.5] * 4),
                network.BellAmplitudes.from_sequence([0.5] * 4),
            ),
            (_random_amplitudes(rng), _random_amplitudes(rng)),
        ]
        for a, b in cases:
            simulated = network.simulated_bell_kernel(reduced, a, b)
            assert simulated == pytest.approx(
                network.bell_kernel(a, b), abs=0.03
            )


@pytest.fixture(scope="module")
def coherent_final():
    spec = network.template("reduced")
    # Each register carries (|Phi-> + |Psi+>)/sqrt(2): the two Bell
    # states that differ in both detected properties.
    half = network.BellAmplitudes(0.0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0.0)
    return spec, network.run(spec, (half, half))


class TestBackAction:
    def test_balanced_outcome_probability(self, coherent_final):
        spec, final = coherent_final
        report = network.back_action(final, spec, "up")
        assert report.probability == pytest.approx(0.5, abs=0.03)

    def test_up_branch_projects_onto_identical_pairs(self, coherent_final):
        spec, final = coherent_final
        report = network.back_action(final, spec, "up")
        assert report.branch_overlaps["matched"] >= 0.97

    def test_down_branch_projects_onto_mismatched_pairs(self, coherent_final):
        spec, final = coherent_final
        report = network.back_action(final, spec, "down")
        assert report.branch_overlaps["mismatched"] >= 0.97

    def test_probability_weighted_reconstruction(self, coherent_final):
        spec, final = coherent_final
        up = network.back_action(final, spec, "up")
        down = network.back_action(final, spec, "down")
        combined = (
            up.probability * up.input_density
            + down.probability * down.input_density
        )
        block = core.split_targets(final.amplitudes, spec.input_qubits)
        direct = block @ block.conj().T
        assert np.max(np.abs(combined - direct)) < 1e-9

    def test_degenerate_outcome_rejected(self, reduced):
        # A state with the output qubit exactly |down> has no up-branch.
        amps = np.zeros(2**reduced.num_qubits, dtype=complex)
        amps[0] = 1.0
        state = core.StateVector(reduced.num_qubits, amps)
        with pytest.raises(errors.DegenerateOutcomeError):
            network.back_action(state, reduced, "up")

    def test_register_must_match_spec(self, reduced):
        # Qubits 0-3 and 6 exist in 8 qubits too, so only the size tells.
        state = core.StateVector.from_bits([0] * 8)
        with pytest.raises(errors.DimensionMismatchError):
            network.back_action(state, reduced, "down")

    def test_makes_no_second_measurement(self, coherent_final, monkeypatch):
        spec, final = coherent_final
        expected = [network.back_action(final, spec, outcome)
                    for outcome in ("up", "down")]

        def refuse(*args, **kwargs):
            raise AssertionError("back_action measured the state again")

        monkeypatch.setattr(core, "measure", refuse)
        for report in expected:
            again = network.back_action(final, spec, report.outcome)
            assert again.probability == report.probability
            assert np.array_equal(again.input_density, report.input_density)

    def test_matches_split_targets_formula(self, reduced, full):
        # The formula back_action used before it read a cached index:
        # split_targets on every call, then the branch overlaps one by one.
        padded = network.NetworkSpec(network.MAX_QUBITS, full.schedule,
                                     full.input_qubits, full.output_qubit)
        half = network.BellAmplitudes(0.0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0.0)
        rng = np.random.default_rng(29)
        for spec in (reduced, full, padded):
            noise = rng.standard_normal(2**spec.num_qubits) * np.exp(
                2j * np.pi * rng.random(2**spec.num_qubits))
            states = (network.run(spec, (half, half)),
                      network.run(spec, (_random_amplitudes(rng), _random_amplitudes(rng))),
                      core.StateVector(spec.num_qubits, noise / np.linalg.norm(noise)))
            for state in states:
                block = core.split_targets(state.amplitudes,
                                           (spec.output_qubit, *spec.input_qubits))
                for outcome in ("up", "down"):
                    rows = block.reshape(2, 16, -1)[int(outcome == "up")]
                    probability = float(np.vdot(rows, rows).real)
                    rho = rows @ rows.conj().T / probability
                    report = network.back_action(state, spec, outcome)
                    assert report.probability == probability
                    assert np.array_equal(report.input_density, rho)
                    for name, branch in (("matched", network.MATCHED_BRANCH),
                                         ("mismatched", network.MISMATCHED_BRANCH)):
                        weight = float(np.real(branch.conj() @ rho @ branch))
                        assert abs(report.branch_overlaps[name]
                                   - math.sqrt(max(weight, 0.0))) <= 1e-14

    def test_split_index_is_read_only_and_shared_per_layout(self, full):
        layout = (full.num_qubits, (full.output_qubit, *full.input_qubits))
        index = network._split_index(*layout)
        assert not index.flags.writeable
        assert index.shape == (2, 16, 2 ** (full.num_qubits - 5))
        other = network.template("full", exc_params=parameters.solve_exc(9, 41))
        assert other != full
        hits = network._split_index.cache_info().hits
        state = network.run(full, (_pure("Phi+"), _pure("Phi-")))
        network.back_action(state, other, "down")
        assert network._split_index.cache_info().hits == hits + 1
        assert network._split_index(*layout) is index

    @pytest.mark.parametrize("kind", ["reduced", "full"])
    def test_matches_projector_oracle(self, kind):
        spec = network.template(kind)
        rng = np.random.default_rng(11)
        pairs = [(_pure(a), _pure(b))
                 for a, b in itertools.product(core.BELL_LABELS, repeat=2)]
        pairs += [(_random_amplitudes(rng), _random_amplitudes(rng))
                  for _ in range(20)]
        checked = 0
        for pair in pairs:
            final = network.run(spec, pair)
            for outcome in ("up", "down"):
                p, rho = _projected_input_density(final, spec, outcome)
                if p <= 1e-12:
                    continue
                report = network.back_action(final, spec, outcome)
                assert abs(report.probability - p) <= 1e-14
                assert np.max(np.abs(report.input_density - rho)) <= 1e-14
                density = report.input_density
                assert np.max(np.abs(density - density.conj().T)) <= 1e-14
                assert abs(np.trace(density) - 1.0) <= 1e-14
                for name, branch in (("matched", network.MATCHED_BRANCH),
                                     ("mismatched", network.MISMATCHED_BRANCH)):
                    weight = np.real(branch.conj() @ rho @ branch)
                    assert report.branch_overlaps[name] ** 2 == pytest.approx(
                        weight, abs=1e-14)
                checked += 1
        assert checked >= len(pairs)


def _projected_input_density(final, spec, outcome):
    """Oracle: apply P_o ⊗ I, normalise, trace out all but the inputs."""
    n = spec.num_qubits
    projector = np.diag([0.0, 1.0] if outcome == "up" else [1.0, 0.0])
    letters = "abcdefghijklmnop"
    ket = letters[:n]
    q = spec.output_qubit
    tensor = np.einsum(f"z{ket[q]},{ket}->{ket.replace(ket[q], 'z')}",
                       projector, final.amplitudes.reshape((2,) * n))
    p = float(np.vdot(tensor, tensor).real)
    if p <= 1e-12:
        return p, None
    psi = tensor / math.sqrt(p)
    bra = "".join(c.upper() if i in spec.input_qubits else c
                  for i, c in enumerate(ket))
    kept = "".join(ket[i] for i in spec.input_qubits)
    rho = np.einsum(f"{ket},{bra}->{kept}{kept.upper()}", psi, psi.conj())
    return p, rho.reshape(16, 16)


class TestSerialization:
    def test_round_trip(self, reduced, full):
        for spec in (reduced, full):
            text = network.to_json(spec)
            again = network.from_json(text)
            assert again == spec
            assert network.to_json(again) == text

    def test_pickle_round_trip_carries_no_cached_hash(self, full):
        # str hashes differ between processes, so a cached hash must not travel.
        hash(full)
        data = pickle.dumps(full)
        assert b"_hash" not in data
        again = pickle.loads(data)
        assert "_hash" not in vars(again)
        assert again == full and hash(again) == hash(full)
        network._isometry(full)
        hits = network._isometry.cache_info().hits
        network.run(again, (_pure("Phi+"), _pure("Psi-")))
        assert network._isometry.cache_info().hits == hits + 1

    @pytest.mark.parametrize("text", [5, None, b"{}", ["{}"]], ids=str)
    def test_a_document_that_is_no_str_is_rejected(self, text):
        with pytest.raises(errors.NetworkValidationError):
            network.from_json(text)

    def test_an_int_too_long_to_parse_is_rejected(self, reduced):
        # json.loads raises a plain ValueError for an int of over 4,300 digits.
        data = json.loads(network.to_json(reduced))
        data["num_qubits"] = 0
        text = json.dumps(data).replace('"num_qubits": 0', '"num_qubits": 1' + "0" * 5000)
        with pytest.raises(errors.NetworkValidationError):
            network.from_json(text)

    def test_schema_version_embedded(self, reduced):
        data = json.loads(network.to_json(reduced))
        assert data["schema_version"] == network.SCHEMA_VERSION

    def test_unknown_top_level_field_rejected(self, reduced):
        data = json.loads(network.to_json(reduced))
        data["extra"] = 1
        with pytest.raises(errors.NetworkValidationError):
            network.from_json(json.dumps(data))

    def test_unknown_entry_field_rejected(self, reduced):
        data = json.loads(network.to_json(reduced))
        data["schedule"][0]["surprise"] = True
        with pytest.raises(errors.NetworkValidationError):
            network.from_json(json.dumps(data))

    def test_wrong_schema_version_rejected(self, reduced):
        data = json.loads(network.to_json(reduced))
        data["schema_version"] = 999
        with pytest.raises(errors.NetworkValidationError):
            network.from_json(json.dumps(data))

    @pytest.mark.parametrize("edit", [{"s": 18}, {"l": 35, "s": 18},
                                      {"beta": 2.0}, {"coupling_j": 3.0}])
    def test_stale_final_layer_names_its_entry(self, full, edit):
        doc = json.loads(network.to_json(full))
        doc["schedule"][6]["params"].update(edit)
        with pytest.raises(errors.NetworkValidationError,
                           match="schedule entry 6: (beta|coupling_j) .* is not "
                                 "the solved"):
            network.from_json(json.dumps(doc))

    def test_round_trip_keeps_every_param_field(self):
        final = dataclasses.replace(
            parameters.make_final_params(
                "detect_downdown", 29, 15, 0, drive_mode="local_field",
                omega=50.0,
            ),
            drive_amplitude=2.0,
        )
        spec = network.template("reduced", final_params=final)
        assert network.from_json(network.to_json(spec)) == spec

    def test_round_trip_of_signed_and_tuned_params(self):
        exc = dataclasses.replace(parameters.solve_exc(8, 17, j_sign=-1),
                                  k=8.01, relaxed=True)
        phase = dataclasses.replace(parameters.solve_phase(4, 164), m=4.02,
                                    relaxed=True)
        spec = network.template("full", exc_params=exc, phase_params=phase)
        assert network.from_json(network.to_json(spec)) == spec

    @pytest.mark.parametrize("executor", ["embedded_unitary", "full_dynamics"])
    def test_schema_1_document_loads(self, reduced, executor):
        v2 = _with_floors(json.loads(network.to_json(reduced)))
        v1 = copy.deepcopy(v2)
        v1.update(schema_version=1, run_mode=executor)
        # Schema-1 writers left out the final layer's omega_floor.
        del v1["schedule"][-1]["params"]["omega_floor"]
        assert network.from_json(json.dumps(v1)) == reduced
        assert network.from_json(json.dumps(v2)) == reduced

    @pytest.mark.parametrize("version", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["full", "reduced"])
    def test_floors_at_their_constants_load(self, kind, version):
        # Documents written before the floors became neurons constants
        # carry them, at these values, in every schema.
        spec = network.template(kind)
        doc = _with_floors(json.loads(network.to_json(spec)))
        doc["schema_version"] = version
        if version == 1:
            doc["run_mode"] = "embedded_unitary"
        assert network.from_json(json.dumps(doc)) == spec

    @pytest.mark.parametrize("key, value", [
        ("floor_4m", 4.0), ("ratio_floor", 10.0), ("omega_floor", 30.0),
        ("floor_4m", "8.0"), ("omega_floor", None), ("ratio_floor", math.nan),
    ])
    def test_floors_off_their_constants_are_refused(self, reduced, key, value):
        doc = _with_floors(json.loads(network.to_json(reduced)))
        i = next(i for i, e in enumerate(doc["schedule"]) if key in e["params"])
        doc["schedule"][i]["params"][key] = value
        with pytest.raises(errors.NetworkValidationError,
                           match=f"schedule entry {i}: {key} must be"):
            network.from_json(json.dumps(doc))

    def test_to_json_writes_no_floor(self, full, reduced):
        for spec in (full, reduced):
            for entry in json.loads(network.to_json(spec))["schedule"]:
                assert not entry["params"].keys() & {"floor_4m", "ratio_floor",
                                                     "omega_floor"}

    @pytest.mark.parametrize("version", [1, 2])
    def test_detuning_floor_ignored_before_schema_3(self, reduced, version):
        # Schemas 1 and 2 wrote detuning_floor in every excitation entry;
        # nothing read it, and it is gone from ExcNeuronParams.
        doc = json.loads(network.to_json(reduced))
        doc["schema_version"] = version
        if version == 1:
            doc["run_mode"] = "embedded_unitary"
        for entry in doc["schedule"]:
            if entry["kind"] == "excitation":
                entry["params"]["detuning_floor"] = 10.0
        assert network.from_json(json.dumps(doc)) == reduced


def _with_floors(doc: dict) -> dict:
    """doc as earlier writers wrote it: floor_4m and ratio_floor in each
    phase entry, omega_floor in each final layer."""
    for entry in doc["schedule"]:
        if entry["kind"] == "phase":
            entry["params"].update(floor_4m=neurons.PHASE_FLOOR_4M,
                                   ratio_floor=neurons.PHASE_RATIO_FLOOR)
        elif entry["kind"] in neurons.FINAL_VARIANTS:
            entry["params"]["omega_floor"] = neurons.OMEGA_FLOOR
    return doc


def _reduced_doc() -> dict:
    return json.loads(network.to_json(network.template("reduced")))


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _as_v1(doc, corrections):
    doc.update(schema_version=1, run_mode="embedded_unitary")
    doc["schedule"][2]["corrections"] = corrections


MALFORMED = {
    "not_json": "{not json",
    "missing_kind": lambda d: d["schedule"][0].pop("kind"),
    "entry_not_object": lambda d: _set(d, ("schedule", 0), 3),
    "schedule_not_list": lambda d: _set(d, ("schedule",), 5),
    "string_param": lambda d: _set(d, ("schedule", 0, "params", "m"), "4"),
    "missing_param": lambda d: d["schedule"][0]["params"].pop("m"),
    "float_output_qubit": lambda d: _set(d, ("output_qubit",), 6.0),
    "bool_input_qubits": lambda d: _set(d, ("input_qubits",),
                                        [False, True, 2, 3]),
    "float_entry_output": lambda d: _set(d, ("schedule", 0, "output"), 4.0),
    "register_64": lambda d: _set(d, ("num_qubits",), 64),
    "unknown_gate": lambda d: _set(d, ("schedule", 2, "corrections"),
                                   [["bogus"], ["evolution"]]),
    "phase_without_angle": lambda d: _set(d, ("schedule", 2, "corrections"),
                                          [["evolution"], ["phase"]]),
    "v1_no_evolution_marker": lambda d: _as_v1(d, [["phase", 1.5707963]]),
    "v1_two_evolution_markers": lambda d: _as_v1(
        d, [["evolution"], ["evolution"], ["phase", 1.5707963]]),
    "v1_unknown_run_mode": lambda d: d.update(schema_version=1,
                                              run_mode="lindblad"),
    "v2_with_run_mode": lambda d: d.update(run_mode="embedded_unitary"),
    "huge_angle": lambda d: _set(d, ("schedule", 2, "corrections"),
                                 [["evolution"], ["phase", 10**400]]),
    "huge_gamma": lambda d: _set(d, ("schedule", 0, "params", "gamma"),
                                 10**400),
    "huge_drive_amplitude": lambda d: _set(
        d, ("schedule", 2, "params", "drive_amplitude"), 10**400),
    "missing_beta": lambda d: d["schedule"][4]["params"].pop("beta"),
    "float_final_l": lambda d: _set(d, ("schedule", 4, "params", "l"), 29.0),
    "final_kind_variant_mismatch": lambda d: _set(d, ("schedule", 4, "kind"),
                                                  "final_upup"),
    "v3_detuning_floor": lambda d: _set(
        d, ("schedule", 2, "params", "detuning_floor"), 10.0),
    "unknown_kind": lambda d: _set(d, ("schedule", 0, "kind"), "bogus"),
    "root_not_object": "[]",
    # A final layer's beta and coupling_j are the ones its (l, s) solve.
    "stale_final_s": lambda d: _set(d, ("schedule", 4, "params", "s"), 18),
    "stale_final_l_and_s": lambda d: d["schedule"][4]["params"].update(
        l=35, s=18),
    "edited_beta": lambda d: _set(d, ("schedule", 4, "params", "beta"), 2.0),
    "edited_coupling_j": lambda d: _set(
        d, ("schedule", 4, "params", "coupling_j"), 3.0),
    "str_beta": lambda d: _set(d, ("schedule", 4, "params", "beta"), "-21.0"),
    "omega_with_rotating_drive": lambda d: _set(
        d, ("schedule", 4, "params", "omega"), 50.0),
    # (l, s) = (5, 0) solves to β = 0 and (5, 5) to J = 0: no detuned detector.
    "final_beta_zero": lambda d: d["schedule"][4]["params"].update(
        l=5, s=0, beta=-0.0, coupling_j=-5.0),
    "final_coupling_zero": lambda d: d["schedule"][4]["params"].update(
        l=5, s=5, beta=-5.0, coupling_j=0.0),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_rejected(case, tmp_path):
    doc = _reduced_doc()
    if isinstance(MALFORMED[case], str):
        text = MALFORMED[case]
    else:
        MALFORMED[case](doc)
        text = json.dumps(doc)
    with pytest.raises(errors.NetworkValidationError):
        network.from_json(text)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(text)
    for command in ("validate", "run"):
        result = CliRunner().invoke(
            main, ["network", command, "--spec", str(spec_file)]
        )
        assert result.exit_code == 2, (command, result.output)
        assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("case, ratio", [("final_beta_zero", "opposite_pair"),
                                         ("final_coupling_zero", "one_excitation_minus")])
def test_undetuned_final_layer_rejected_for_its_ratio(case, ratio):
    doc = _reduced_doc()
    MALFORMED[case](doc)
    with pytest.raises(errors.NetworkValidationError, match=f"ratio {ratio} = 0.0 not positive"):
        network.from_json(json.dumps(doc))


_BASE_DOC = _reduced_doc()


def _paths(node, prefix=()):
    """Every path (dict keys and list indices) into a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_ALL_PATHS = list(_paths(_BASE_DOC))
_KEY_PATHS = [p for p in _ALL_PATHS if isinstance(p[-1], str)]
_INDEX_PATHS = [p for p in _ALL_PATHS if p[-1] == "output_qubit"
                or p[-1] == "output" or "input_qubits" in p or "inputs" in p]
_VALUES = [None, "4", [1], {}, True, 1.5, 7, -3, 10**400]
_GATE_LISTS = [
    [], [["evolution"]], [["evolution"], ["evolution"]], [["phase", 0.5]],
    [["evolution"], ["phase"]], [["bogus"], ["evolution"]],
    [["hadamard"], ["evolution"], ["hadamard"]], [["evolution"], ["not_x"]],
    [["evolution"], ["z_rotation", 1.0, 2.0]], "evolution", [[]],
]
_MUTATION = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(_KEY_PATHS)),
    st.tuples(st.just("retype"), st.sampled_from(_ALL_PATHS),
              st.sampled_from(_VALUES)),
    st.tuples(st.just("index"), st.sampled_from(_INDEX_PATHS),
              st.integers(-2, 12)),
    st.tuples(st.just("gates"), st.integers(0, 4), st.sampled_from(_GATE_LISTS)),
    st.tuples(st.just("swap"), st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.just("num_qubits"),
              st.sampled_from([-1, 0, 2, 3, 6, 8, 16, 17, 64, 7.0, True])),
)


def _mutate(doc, mutation):
    """Apply one mutation; one that no longer finds its target is skipped."""
    kind, *args = mutation
    try:
        if kind == "drop":
            parent = doc
            for key in args[0][:-1]:
                parent = parent[key]
            del parent[args[0][-1]]
        elif kind in ("retype", "index"):
            _set(doc, args[0], args[1])
        elif kind == "gates":
            doc["schedule"][args[0]]["corrections"] = copy.deepcopy(args[1])
        elif kind == "swap":
            a, b = doc["schedule"][args[0]], doc["schedule"][args[1]]
            a["corrections"], b["corrections"] = b["corrections"], a["corrections"]
        else:
            doc["num_qubits"] = args[0]
    except (KeyError, IndexError, TypeError):
        pass


@settings(max_examples=50, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_documents_run_or_are_rejected(mutations):
    doc = copy.deepcopy(_BASE_DOC)
    for mutation in mutations:
        _mutate(doc, mutation)
    text = json.dumps(doc)
    try:
        spec = network.from_json(text)
    except errors.QsnnError:
        spec = None
    if spec is not None:
        try:
            final = network.run(spec, (_pure("Phi+"), _pure("Psi-")))
        except errors.QsnnError:
            pass
        else:
            assert abs(final.norm() - 1.0) < 1e-9
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("spec.json").write_text(text)
        result = runner.invoke(main, ["network", "validate", "--spec",
                                      "spec.json"])
    assert result.exit_code == (0 if spec is not None else 2), result.output
