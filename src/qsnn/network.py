"""Bell-state comparison networks: wiring, execution, back-action, kernel.

Two templates are provided.  The full network uses one fresh target per
detection (11 qubits, 7 neurons); the reduced network lets the two
detectors of each property share a middle-layer target (7 qubits,
5 neurons), so a matched property flips that target an even number of
times and leaves it in |↓⟩.

Reduced-template phase coherence: when a shared target is probed twice,
the second neuron acts on a possibly-excited target, where its flip-back
and completion amplitudes carry ±i factors (flip-back/completion = −1
for both neuron types).  The neuron's own post-phase gate, applied to the
shared target right before each second detection as well, cancels the
flip-back factor and makes all four matched-input amplitudes equal to +1,
so superposition inputs that differ in both properties (e.g. Ψ⁺ vs Φ⁻)
interfere exactly as the ideal comparator demands.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import core, neurons, parameters
from .core import BELL_LABELS, BELL_VECTORS, StateVector
from .errors import (
    DegenerateOutcomeError,
    DimensionMismatchError,
    InvalidParamsError,
    NetworkValidationError,
    NormDriftError,
)
from .neurons import (
    ExcNeuronParams,
    FinalLayerParams,
    NeuronSpec,
    PhaseNeuronParams,
)

SCHEMA_VERSION = 3
# Largest register a spec may declare; the full template needs 11 qubits.
MAX_QUBITS = 16

# Default parameter points for the templates.  Excitation neurons use the
# reference demonstration point.  Phase neurons use (m=4, n=164): the
# worst per-state amplitude grows with m (≈cos(π/8m)), and the reduced
# template squares it by probing each shared target twice, so the
# demonstration point (3, 82) cannot reach the network truth-table
# thresholds.  The final layers use (l=29, s=15): β=21A, J=−20A, smallest
# detuning 16A; the smaller (l=5, s=4) solution leaves a one-excitation
# transition only 0.6A off resonance.
DEFAULT_EXC = dict(k=8, l=17)
DEFAULT_PHASE = dict(m=4, n=164)
DEFAULT_FINAL = dict(l=29, s=15, parity_k=0)

# Row i is the Bell vector BELL_LABELS[i] in the index basis.
_BELL_BASIS = core.read_only(np.array([BELL_VECTORS[b] for b in BELL_LABELS]))


@dataclass(frozen=True)
class BellAmplitudes:
    """Amplitudes of a 2-qubit state in the Bell basis (Φ+, Φ−, Ψ+, Ψ−)."""

    a_phi_plus: complex = 0.0
    a_phi_minus: complex = 0.0
    a_psi_plus: complex = 0.0
    a_psi_minus: complex = 0.0

    def __post_init__(self):
        if not all(isinstance(a, (int, float, complex, np.number))
                   and type(a) is not bool for a in self.as_tuple()):
            raise InvalidParamsError(f"non-numeric amplitudes {self.as_tuple()}")
        norm = sum(abs(a) ** 2 for a in self.as_tuple())
        if not abs(norm - 1.0) <= core.NORM_TOL:  # also true for a NaN norm
            raise NormDriftError(
                f"Bell amplitudes have squared norm {norm}, expected 1"
            )

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.a_phi_plus, self.a_phi_minus,
                self.a_psi_plus, self.a_psi_minus)

    @classmethod
    def pure(cls, label: str) -> "BellAmplitudes":
        if label not in BELL_LABELS:
            raise InvalidParamsError(f"unknown Bell label {label!r}")
        amps = [0.0] * 4
        amps[BELL_LABELS.index(label)] = 1.0
        return cls(*amps)

    @classmethod
    def from_sequence(cls, amps: Sequence[complex]) -> "BellAmplitudes":
        if not isinstance(amps, (Sequence, np.ndarray)):
            raise InvalidParamsError(f"Bell amplitudes {amps!r} are no sequence")
        if len(amps) != 4:
            raise DimensionMismatchError("need exactly 4 Bell amplitudes")
        return cls(*amps)

    def pair_state(self) -> np.ndarray:
        """The 4-dim 2-qubit state vector these amplitudes describe."""
        return np.array(self.as_tuple(), dtype=complex) @ _BELL_BASIS


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered neuron schedule over a fixed qubit register."""

    num_qubits: int
    schedule: tuple[NeuronSpec, ...]
    input_qubits: tuple[int, int, int, int]
    output_qubit: int

    def __post_init__(self):
        core.check_type(Sequence, self.schedule, self.input_qubits)
        # Tuples, so that a spec is hashable: run() caches by spec.
        object.__setattr__(self, "schedule", tuple(self.schedule))
        core.check_type(NeuronSpec, *self.schedule)
        object.__setattr__(self, "input_qubits", tuple(self.input_qubits))
        violations = validate(self)
        if violations:
            raise NetworkValidationError(violations)


def validate(spec) -> list[str]:
    """Structural checks; returns a list of violations (empty = ok).

    The register size and index types (int, not bool or float) are checked
    first, so a spec that fails them is reported before anything reads or
    allocates its register.
    """
    core.check_type(NetworkSpec, spec)
    n = spec.num_qubits
    if type(n) is not int or not 3 <= n <= MAX_QUBITS:
        return [f"num_qubits must be an integer from 3 to {MAX_QUBITS}, "
                f"got {n!r}"]
    network_qubits = (*spec.input_qubits, spec.output_qubit)
    if any(type(q) is not int for q in network_qubits):
        return [f"network qubit indices must be integers, got "
                f"{network_qubits!r}"]
    errors: list[str] = []
    if len(set(spec.input_qubits)) != 4:
        errors.append("network needs 4 distinct input qubits")
    for q in network_qubits:
        if not 0 <= q < n:
            errors.append(f"network qubit index {q} outside register of {n}")
    written: set[int] = set()
    writers = [entry.output_qubit for entry in spec.schedule]
    for i, entry in enumerate(spec.schedule):
        for q in entry.targets:
            if not 0 <= q < n:
                errors.append(f"schedule entry {i} targets qubit {q} "
                              f"outside register of {n}")
        for q in entry.input_qubits:
            fresh = q not in spec.input_qubits and q not in written
            if fresh and q in writers[i + 1:]:
                errors.append(
                    f"schedule entry {i} reads qubit {q} before the entry "
                    f"that writes it"
                )
        written.add(entry.output_qubit)
    if spec.schedule and spec.schedule[-1].output_qubit != spec.output_qubit:
        errors.append("network output qubit is not written by the final "
                      "schedule entry")
    if not spec.schedule:
        errors.append("schedule is empty")
    return errors


def _second_probe_corrections(kind: str, params) -> tuple:
    """The neuron's corrections, led by a copy of its post-phase gate.

    Excitation flip-back is −i and phase-neuron flip-back is i(−1)^m; the
    post-phase gate e^{iφ} inverts it in each case (see module docstring).
    """
    gates = neurons.default_corrections(kind, params)
    return (gates[-1],) + gates


def template(
    kind: str,
    exc_params: ExcNeuronParams | None = None,
    phase_params: PhaseNeuronParams | None = None,
    final_params: FinalLayerParams | None = None,
) -> NetworkSpec:
    """Build the full (11-qubit) or reduced (7-qubit) comparison network.

    The final-layer variant is fixed by the template: the full network
    detects |↑↑⟩ on its third layer, the reduced network detects |↓↓⟩ on
    its shared middle layer; a supplied final_params must match.
    """
    if kind not in ("full", "reduced"):
        raise InvalidParamsError(f"unknown template kind {kind!r}")
    variant = "detect_upup" if kind == "full" else "detect_downdown"
    exc = parameters.solve_exc(**DEFAULT_EXC) if exc_params is None else exc_params
    phase = parameters.solve_phase(**DEFAULT_PHASE) if phase_params is None else phase_params
    final = (parameters.make_final_params(variant, **DEFAULT_FINAL)
             if final_params is None else final_params)
    if kind == "full":
        schedule = (
            neurons.make_spec("phase", phase, (0, 1), 4),
            neurons.make_spec("excitation", exc, (0, 1), 5),
            neurons.make_spec("phase", phase, (2, 3), 6),
            neurons.make_spec("excitation", exc, (2, 3), 7),
            neurons.make_spec("excitation", exc, (4, 6), 8),
            neurons.make_spec("excitation", exc, (5, 7), 9),
            neurons.make_spec("final_upup", final, (8, 9), 10),
        )
        return NetworkSpec(11, schedule, (0, 1, 2, 3), 10)
    schedule = (
        neurons.make_spec("phase", phase, (0, 1), 4),
        neurons.make_spec(
            "phase", phase, (2, 3), 4,
            corrections=_second_probe_corrections("phase", phase),
        ),
        neurons.make_spec("excitation", exc, (0, 1), 5),
        neurons.make_spec(
            "excitation", exc, (2, 3), 5,
            corrections=_second_probe_corrections("excitation", exc),
        ),
        neurons.make_spec("final_downdown", final, (4, 5), 6),
    )
    return NetworkSpec(7, schedule, (0, 1, 2, 3), 6)


def _input_amplitudes(inputs) -> np.ndarray:
    """Normalize the accepted input forms to a 16-dim 4-qubit vector."""
    if isinstance(inputs, StateVector):
        if inputs.num_qubits != 4:
            raise DimensionMismatchError("network input state must be 4 qubits")
        return inputs.amplitudes
    if isinstance(inputs, np.ndarray):
        if inputs.shape != (16,):
            raise DimensionMismatchError("network input vector must have length 16")
        return inputs.astype(complex)
    if not (isinstance(inputs, (tuple, list)) and len(inputs) == 2
            and all(isinstance(pair, BellAmplitudes) for pair in inputs)):
        raise InvalidParamsError(
            "inputs must be a pair of BellAmplitudes, a 4-qubit StateVector, "
            "or a 16-dim vector"
        )
    pair_a, pair_b = inputs
    return np.outer(pair_a.pair_state(), pair_b.pair_state()).reshape(16)


def initial_state(spec: NetworkSpec, inputs) -> StateVector:
    """Full-register initial state: inputs in place, everything else |↓⟩."""
    core.check_type(NetworkSpec, spec)
    # With the inputs leading, column 0 holds every other qubit in |↓⟩.
    block = np.zeros((16, 2 ** (spec.num_qubits - 4)), dtype=complex)
    block[:, 0] = _input_amplitudes(inputs)
    full = core.merge_targets(block, spec.input_qubits, (2**spec.num_qubits,))
    return StateVector(spec.num_qubits, full)


# Each V holds 2^n x 16 complex amplitudes: 512 KB for the full template,
# 16 MB at MAX_QUBITS, so four entries stay within 64 MB.
@lru_cache(maxsize=4)
def _isometry(spec: NetworkSpec) -> np.ndarray:
    """V: the schedule applied to the 16 input basis states, as columns."""
    columns = np.stack([initial_state(spec, basis).amplitudes
                        for basis in np.eye(16)], axis=1)
    bare = {}  # U of each distinct neuron; a spec with no corrections is bare evolution
    for entry in spec.schedule:
        key = (entry.kind, entry.params)
        if key not in bare:
            bare[key] = neurons.neuron_unitary(dataclasses.replace(entry, corrections=())).matrix
        u8 = neurons.neuron_unitary(entry, bare=bare[key]).matrix
        columns = core.apply_local(u8, entry.targets, columns)
    core.check_isometry(columns)
    return core.read_only(columns)


def run(spec: NetworkSpec, inputs) -> StateVector:
    """Execute the schedule by sequential neuron activation.

    All but the four input qubits start in |↓⟩, so the schedule is one
    isometry V (2^n x 16) from the input space into the register, and the
    final state is V times the input amplitudes.  V is built once per
    spec from each distinct neuron's U, corrected per entry, checked for
    V†V = I (NormDriftError otherwise) and cached read-only, the last
    four only: 512 KB each for the full template, 16 MB at MAX_QUBITS.
    """
    core.check_type(NetworkSpec, spec)
    return StateVector(spec.num_qubits,
                       _isometry(spec) @ _input_amplitudes(inputs))


def _pair_product(label_a: str, label_b: str) -> np.ndarray:
    return np.kron(BELL_VECTORS[label_a], BELL_VECTORS[label_b])


# The two branches of the matched/mismatched decomposition for the
# superposition input ((Ψ⁺ + Φ⁻)/√2) ⊗ ((Ψ⁺ + Φ⁻)/√2): measuring the
# output |↑⟩ projects the inputs onto identical Bell pairs, |↓⟩ onto the
# swapped combination.
MATCHED_BRANCH = (
    _pair_product("Phi-", "Phi-") + _pair_product("Psi+", "Psi+")
) / math.sqrt(2.0)
MISMATCHED_BRANCH = (
    _pair_product("Psi+", "Phi-") + _pair_product("Phi-", "Psi+")
) / math.sqrt(2.0)


@dataclass(frozen=True)
class BackActionReport:
    """Post-measurement description of the input registers."""

    outcome: str
    probability: float
    input_density: np.ndarray = field(repr=False)
    branch_overlaps: dict[str, float]


def back_action(
    final_state: StateVector, spec: NetworkSpec, outcome: str
) -> BackActionReport:
    """Project the output qubit and describe the surviving input state.

    Split with the output qubit, then the inputs, leading, the state is a
    block (B_down, B_up) of 16 x rest matrices: outcome o has p_o = ‖B_o‖²
    and ρ_in = B_o·B_o†/p_o.  branch_overlaps holds √⟨branch|ρ_in|branch⟩.
    """
    core.check_type(StateVector, final_state)
    core.check_type(NetworkSpec, spec)
    if outcome not in ("up", "down"):
        raise InvalidParamsError("outcome must be 'up' or 'down'")
    if final_state.num_qubits != spec.num_qubits:
        raise DimensionMismatchError(
            f"state of {final_state.num_qubits} qubits, spec of {spec.num_qubits}")
    block = core.split_targets(final_state.amplitudes,
                               (spec.output_qubit, *spec.input_qubits))
    rows = block.reshape(2, 16, -1)[int(outcome == "up")]
    probability = float(np.vdot(rows, rows).real)
    if probability < core.DEGENERATE_PROB:
        raise DegenerateOutcomeError(
            f"outcome {outcome!r} is degenerate: p = {probability:.3e}")
    rho = rows @ rows.conj().T / probability
    overlaps = {
        name: math.sqrt(max(float(np.real(branch.conj() @ rho @ branch)), 0.0))
        for name, branch in (("matched", MATCHED_BRANCH),
                             ("mismatched", MISMATCHED_BRANCH))
    }
    return BackActionReport(outcome, probability, rho, overlaps)


def bell_kernel(a: BellAmplitudes, b: BellAmplitudes) -> float:
    """Closed-form output-excitation probability Σ_i |a_i|²|b_i|²."""
    core.check_type(BellAmplitudes, a, b)
    return float(
        sum(abs(x) ** 2 * abs(y) ** 2 for x, y in zip(a.as_tuple(), b.as_tuple()))
    )


def simulated_bell_kernel(
    spec: NetworkSpec, a: BellAmplitudes, b: BellAmplitudes
) -> float:
    """The kernel as actually measured: run the network, read p_up."""
    return output_excitation_probability(spec, (a, b))


def output_excitation_probability(spec: NetworkSpec, inputs) -> float:
    final = run(spec, inputs)
    return core.measure(final, spec.output_qubit).p_up


# ---------------------------------------------------------------------------
# Serialization

_FIELDS = {"schema_version", "num_qubits", "input_qubits", "output_qubit",
           "schedule"}
# Schema 1 also named the executor; both of its values now mean the one
# executor, so the field is read and ignored.
_V1_EXECUTORS = ("embedded_unitary", "full_dynamics")
_ENTRY_FIELDS = {"kind", "inputs", "output", "corrections", "params"}
# Per parameter class: its fields, and those without default.
_PARAM_FIELDS = {
    cls: {f.name for f in dataclasses.fields(cls)}
    for cls in (ExcNeuronParams, PhaseNeuronParams, FinalLayerParams)
}
_PARAM_REQUIRED = {
    cls: {f.name for f in dataclasses.fields(cls)
          if f.default is dataclasses.MISSING}
    for cls in _PARAM_FIELDS
}
# Former fields, now neurons constants: a document may hold each at its value.
_FIXED = {PhaseNeuronParams: {"floor_4m": neurons.PHASE_FLOOR_4M,
                              "ratio_floor": neurons.PHASE_RATIO_FLOOR},
          FinalLayerParams: {"omega_floor": neurons.OMEGA_FLOOR}}
# The values FinalLayerParams solves (beta, coupling_j), which documents carry.
_SOLVED = tuple(f.name for f in dataclasses.fields(FinalLayerParams) if not f.init)


def _check_fields(data, allowed, required, what: str) -> None:
    if not isinstance(data, dict):
        raise InvalidParamsError(f"{what} must be an object")
    keys = data.keys()
    if not keys <= allowed or not keys >= required:
        raise InvalidParamsError(f"{what}: unknown fields "
                                 f"{sorted(keys - allowed)}, missing fields "
                                 f"{sorted(required - keys)}")


def _final_params(params: dict) -> FinalLayerParams:
    """A document's final layer: its beta and coupling_j must be the values
    FinalLayerParams solves, within 1e-9·|l|·A."""
    solved = FinalLayerParams(**{k: v for k, v in params.items() if k not in _SOLVED})
    tol = 1e-9 * abs(solved.l) * solved.drive_amplitude
    for name in _SOLVED:
        value, expected = params[name], getattr(solved, name)
        if not (core.is_finite_real(value) and abs(value - expected) <= tol):
            raise InvalidParamsError(f"{name} {value!r} is not the solved {expected!r}")
    return solved


def _entry_from_dict(entry, version: int) -> NeuronSpec:
    _check_fields(entry, _ENTRY_FIELDS, _ENTRY_FIELDS - {"corrections"}, "entry")
    kind = entry["kind"]
    inputs = entry["inputs"]
    gates = entry.get("corrections", [])
    if not isinstance(kind, str) or kind not in neurons.PARAMS_TYPES:
        raise InvalidParamsError(f"unknown neuron kind {kind!r}")
    if not isinstance(inputs, list) or not isinstance(gates, list) or not all(
        isinstance(gate, list) for gate in gates
    ):
        raise InvalidParamsError("inputs and corrections must be lists")
    cls = neurons.PARAMS_TYPES[kind]
    params = entry["params"]
    if isinstance(params, dict):  # this document's own, so popped in place
        if version < 3 and cls is ExcNeuronParams:
            params.pop("detuning_floor", None)  # schemas 1 and 2 wrote it; nothing read it
        for key, value in _FIXED.get(cls, {}).items():
            if (got := params.pop(key, value)) != value:
                raise InvalidParamsError(f"{key} must be {value}, got {got!r}")
    _check_fields(params, _PARAM_FIELDS[cls], _PARAM_REQUIRED[cls], "params")
    return neurons.make_spec(
        kind, _final_params(params) if cls is FinalLayerParams else cls(**params),
        inputs, entry["output"],
        tuple(map(tuple, gates)) if "corrections" in entry else None,
    )


def to_json(spec: NetworkSpec) -> str:
    core.check_type(NetworkSpec, spec)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "num_qubits": spec.num_qubits,
        "input_qubits": list(spec.input_qubits),
        "output_qubit": spec.output_qubit,
        "schedule": [
            {
                "kind": entry.kind,
                "inputs": list(entry.input_qubits),
                "output": entry.output_qubit,
                "corrections": [list(gate) for gate in entry.corrections],
                "params": dataclasses.asdict(entry.params),
            }
            for entry in spec.schedule
        ],
    }
    return json.dumps(doc, indent=2)


def from_json(text: str) -> NetworkSpec:
    """Read a NetworkSpec document of schema 3, 2 or 1.

    Every malformed document raises NetworkValidationError.
    """
    try:
        if not isinstance(text, str):
            raise InvalidParamsError(f"document must be a str, got {type(text).__name__}")
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise InvalidParamsError("document root must be an object")
        version = doc.get("schema_version")
        if type(version) is not int or version not in (1, 2, SCHEMA_VERSION):
            raise InvalidParamsError(f"unsupported schema_version {version!r}")
        fields = _FIELDS | {"run_mode"} if version == 1 else _FIELDS
        _check_fields(doc, fields, fields, "document")
        if version == 1 and doc["run_mode"] not in _V1_EXECUTORS:
            raise InvalidParamsError(f"unknown run_mode {doc['run_mode']!r}")
        if not isinstance(doc["schedule"], list) or not isinstance(
            doc["input_qubits"], list
        ):
            raise InvalidParamsError("schedule and input_qubits must be lists")
        schedule = []
        for i, entry in enumerate(doc["schedule"]):
            try:
                schedule.append(_entry_from_dict(entry, version))
            except InvalidParamsError as exc:
                raise InvalidParamsError(f"schedule entry {i}: {exc}") from None
    except ValueError as exc:  # also json's, such as an int of over 4,300 digits
        raise NetworkValidationError([str(exc)]) from None
    return NetworkSpec(doc["num_qubits"], schedule, doc["input_qubits"],
                       doc["output_qubit"])
