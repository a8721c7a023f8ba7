"""The three spiking-neuron models: Hamiltonians, protocols, and targets.

Each neuron is a driven 3-qubit spin system (two inputs, one output).  The
excitation-parity neuron flips its output if and only if the input Bell
state has even excitation parity (a Phi state); the phase neuron flips it
for negative relative phase (a "minus" state); the final-layer neurons
flip it only for one designated computational input pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from . import core, fidelity
from .core import (
    BELL_LABELS,
    DenseOperator,
    DriveTerm,
    StateVector,
    StaticTerm,
    TimeDependentHamiltonian,
    bell_state,
)
from .errors import (
    HierarchyViolationError,
    InvalidParamsError,
    NonPythagoreanError,
    OutOfBoundsError,
)

PYTHAGOREAN_TOL = 1e-9
DEFAULT_PHASE_FLOOR_4M = 8.0
DEFAULT_PHASE_RATIO_FLOOR = 5.0
DEFAULT_PHASE_RATIO_HEADROOM = 10.0
DEFAULT_OMEGA_FLOOR = 20.0
DEFAULT_TRAJECTORY_SAMPLES = 1000

NEURON_KINDS = ("excitation", "phase", "final_upup", "final_downdown")

# In a correction sequence of gates on the output qubit (core.GATES), the
# "evolution" marker separates pre- from post-evolution gates.
EVOLUTION = ("evolution",)
FINAL_VARIANTS = {"final_upup": "detect_upup", "final_downdown": "detect_downdown"}


def _is_integer(x: float, tol: float = PYTHAGOREAN_TOL) -> bool:
    return abs(x - round(x)) <= tol


def in_arithmetic_range(fn):
    """Report an overflow in fn's arithmetic on parameter values as invalid."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ArithmeticError as exc:
            raise InvalidParamsError(
                f"parameter values out of arithmetic range: {exc}"
            ) from None

    return checked


# The values a parameter field accepts, by its annotation.
_ACCEPTS = {
    "float": (core.is_finite_real, "a finite real number"),
    "int": (lambda x: type(x) is int, "an int"),
    "bool": (lambda x: type(x) is bool, "a bool"),
    "str": (lambda x: type(x) is str, "a str"),
    "float | None": (lambda x: x is None or core.is_finite_real(x),
                     "a finite real number or None"),
}


def _check_fields(params) -> None:
    """Checks every neuron's parameters share: field types, drive, tau."""
    for f in params.__dataclass_fields__.values():
        accepts, what = _ACCEPTS[f.type]
        value = getattr(params, f.name)
        if not accepts(value):
            raise InvalidParamsError(
                f"{type(params).__name__}.{f.name} must be {what}, "
                f"got {value!r}"
            )
    if params.drive_amplitude <= 0:
        raise InvalidParamsError("drive amplitude must be positive")
    if not math.isfinite(params.tau):
        raise InvalidParamsError("drive amplitude too small: tau is infinite")


class _Driven:
    """Each neuron runs in units of its drive amplitude A (B for the phase
    neuron): H/A for UNIT_TAU in units of 1/A, π (π/2 for the phase neuron).
    A only scales the reported energies and the duration tau = UNIT_TAU/A."""

    UNIT_TAU = math.pi

    @property
    def tau(self) -> float:
        return self.UNIT_TAU / self.drive_amplitude


@dataclass(frozen=True)
class ExcNeuronParams(_Driven):
    """Excitation-parity neuron parameters (beta = kA, J = ±sqrt(l²−k²)A)."""

    k: float
    l: float
    gamma: float = 1.0
    drive_amplitude: float = 1.0
    j_sign: int = 1
    relaxed: bool = False

    @in_arithmetic_range
    def __post_init__(self):
        _check_fields(self)
        if not self.l > self.k > 0:
            raise InvalidParamsError(f"need l > k > 0, got k={self.k}, l={self.l}")
        if self.j_sign not in (1, -1):
            raise InvalidParamsError("j_sign must be +1 or -1")
        root = math.sqrt(self.l**2 - self.k**2)
        if not self.relaxed:
            if not (_is_integer(self.k) and _is_integer(self.l)):
                raise InvalidParamsError(
                    "constraint mode requires integer k and l; set relaxed=True "
                    "for tuned values"
                )
            if self.gamma == 1.0 and not _is_integer(root):
                raise NonPythagoreanError(
                    f"gamma=1 requires sqrt(l²−k²) integral; (k={self.k}, "
                    f"l={self.l}) gives {root:.6f}"
                )

    @property
    def in_drive_units(self) -> tuple[float, float]:
        """(J, β) in units of the drive amplitude: (±sqrt(l²−k²), k)."""
        return self.j_sign * math.sqrt(self.l**2 - self.k**2), float(self.k)

    @property
    def beta(self) -> float:
        return self.k * self.drive_amplitude

    @property
    def coupling_j(self) -> float:
        return self.in_drive_units[0] * self.drive_amplitude

    def detuning_ratios(self) -> dict[str, float]:
        """Detuning-to-drive ratios for the three suppressed transitions."""
        j, b = self.in_drive_units
        root = math.sqrt(j**2 + b**2)
        return {
            "delta_0": abs(2 * b),
            "delta_minus": abs(2 * b - 2 * root),
            "delta_plus": abs(2 * b + 2 * root),
        }


@dataclass(frozen=True)
class PhaseNeuronParams(_Driven):
    """Phase-detection neuron parameters (J = 2nB, delta = 2mB)."""

    UNIT_TAU = math.pi / 2

    m: float
    n: float
    drive_amplitude: float = 1.0
    gamma: float = 1.0
    relaxed: bool = False
    floor_4m: float = DEFAULT_PHASE_FLOOR_4M
    ratio_floor: float = DEFAULT_PHASE_RATIO_FLOOR

    def __post_init__(self):
        _check_fields(self)
        if not self.n > self.m > 0:
            raise InvalidParamsError(f"need n > m > 0, got m={self.m}, n={self.n}")
        if not self.relaxed and not (_is_integer(self.m) and _is_integer(self.n)):
            raise InvalidParamsError(
                "constraint mode requires integer m and n; set relaxed=True "
                "for tuned values"
            )
        if 4 * self.m < self.floor_4m:
            raise HierarchyViolationError(
                f"hierarchy 1 << 4m violated: 4m = {4 * self.m} < {self.floor_4m}"
            )
        if 2 * self.n < self.ratio_floor * 4 * self.m:
            raise HierarchyViolationError(
                f"hierarchy 4m << 2n violated: 2n/4m = "
                f"{2 * self.n / (4 * self.m):.3f} < {self.ratio_floor}"
            )

    @property
    def in_drive_units(self) -> tuple[float, float]:
        """(J, δ) in units of the drive amplitude B: (2n, 2m)."""
        return 2.0 * self.n, 2.0 * self.m

    @property
    def coupling_j(self) -> float:
        return 2.0 * self.n * self.drive_amplitude

    @property
    def delta(self) -> float:
        return 2.0 * self.m * self.drive_amplitude

    @property
    def hierarchy_warning(self) -> bool:
        """True when 2n/4m is below the recommended headroom (default 10)."""
        return 2 * self.n < DEFAULT_PHASE_RATIO_HEADROOM * 4 * self.m


@dataclass(frozen=True)
class FinalLayerParams(_Driven):
    """Final-layer neuron: flips the output only for one designated pair."""

    variant: str  # "detect_upup" | "detect_downdown"
    l: int
    s: int
    parity_k: int
    gamma: float = 1.0
    drive_amplitude: float = 1.0
    drive_mode: str = "rotating"  # or "local_field"
    omega: float | None = None
    omega_floor: float = DEFAULT_OMEGA_FLOOR
    # beta and coupling_j come from parameters.solve_final_beta
    beta: float = field(kw_only=True)
    coupling_j: float = field(kw_only=True)

    @in_arithmetic_range
    def __post_init__(self):
        _check_fields(self)
        if self.variant not in FINAL_VARIANTS.values():
            raise InvalidParamsError(f"unknown final-layer variant {self.variant!r}")
        if self.drive_mode not in ("rotating", "local_field"):
            raise InvalidParamsError(f"unknown drive mode {self.drive_mode!r}")
        disc = self.l**2 * (1 + self.gamma**2) - (2 * self.s - self.l) ** 2
        if disc < 0:
            raise InvalidParamsError(
                f"discriminant l²(1+γ²) − (2s−l)² = {disc} is negative"
            )
        if abs(self.beta / self.drive_amplitude) > abs(self.l) + 1e-9:
            raise InvalidParamsError("|beta| exceeds |l·A|")
        if self.drive_mode == "local_field":
            if self.omega is None:
                raise InvalidParamsError("local_field mode requires omega")
            if abs(self.omega) / self.drive_amplitude < self.omega_floor:
                raise InvalidParamsError(
                    f"|Omega|/A = {abs(self.omega) / self.drive_amplitude:.2f} "
                    f"below floor {self.omega_floor}"
                )

    @property
    def in_drive_units(self) -> tuple[float, float]:
        """(J, β) in units of the drive amplitude."""
        a = self.drive_amplitude
        return self.coupling_j / a, self.beta / a


PARAMS_TYPES = {
    "excitation": ExcNeuronParams,
    "phase": PhaseNeuronParams,
    "final_upup": FinalLayerParams,
    "final_downdown": FinalLayerParams,
}


@dataclass(frozen=True)
class NeuronSpec:
    """A neuron kind, its parameters, wiring, and correction gates."""

    kind: str
    params: object
    input_qubits: tuple[int, int]
    output_qubit: int
    corrections: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "input_qubits", tuple(self.input_qubits))
        if self.kind not in NEURON_KINDS:
            raise InvalidParamsError(f"unknown neuron kind {self.kind!r}")
        indices = (*self.input_qubits, self.output_qubit)
        if tuple(map(type, indices)) != (int, int, int):
            raise InvalidParamsError(
                f"neuron needs two input and one output integer qubit "
                f"index, got {indices!r}"
            )
        if len(set(indices)) != 3:
            raise InvalidParamsError(f"neuron indices must be distinct: {indices}")
        expected = PARAMS_TYPES[self.kind]
        if not isinstance(self.params, expected):
            raise InvalidParamsError(
                f"{self.kind} neuron requires {expected.__name__}"
            )
        variant = FINAL_VARIANTS.get(self.kind)
        if variant is not None and self.params.variant != variant:
            raise InvalidParamsError(
                f"{self.kind} neuron requires variant {variant!r}, "
                f"got {self.params.variant!r}"
            )
        _check_corrections(self.corrections)

    @property
    def targets(self) -> tuple[int, int, int]:
        return (*self.input_qubits, self.output_qubit)

    @property
    def gates(self) -> tuple[tuple, tuple]:
        """The correction gates before and after the evolution marker."""
        if not self.corrections:
            return (), ()
        i = self.corrections.index(EVOLUTION)
        return self.corrections[:i], self.corrections[i + 1:]


def _check_corrections(corrections) -> None:
    """Gates that core.check_gate accepts, and one evolution marker.

    An empty sequence means bare evolution.
    """
    if not isinstance(corrections, tuple):
        raise InvalidParamsError("corrections must be a tuple of gates")
    for gate in corrections:
        name = gate[0] if type(gate) is tuple and gate else None
        if not (type(name) is str and gate == EVOLUTION):
            core.check_gate(gate)
    if corrections and corrections.count(EVOLUTION) != 1:
        raise InvalidParamsError(
            "correction sequence must contain exactly one 'evolution' marker"
        )


def default_corrections(kind: str, params) -> tuple:
    """Analytic correction-gate sequence on the output qubit.

    The gates cancel the deterministic inter-subspace phases the bare
    evolution leaves behind, so the corrected neuron matches its ideal
    truth table up to a global phase.  The phase neuron additionally needs
    the Hadamard basis changes around the evolution; in a correction tuple
    the marker "evolution" separates pre- and post-evolution gates.
    """
    if kind == "phase":
        m = int(round(params.m))
        return (
            ("hadamard",),
            EVOLUTION,
            ("hadamard",),
            ("phase", -math.pi / 2 + m * math.pi),
        )
    # Excitation and final layers: the same pi/2 z-phase structure.
    return (EVOLUTION, ("phase", math.pi / 2),)


def make_spec(
    kind: str,
    params,
    input_qubits: tuple[int, int],
    output_qubit: int,
    corrections: tuple | None = None,
) -> NeuronSpec:
    if corrections is None:
        corrections = default_corrections(kind, params)
    return NeuronSpec(kind, params, input_qubits, output_qubit, corrections)


def _build(params, num_qubits, targets, heisenberg, coupling, drive, field=0.0):
    """H/A on (input 1, input 2, output), energies in units of the drive
    amplitude A and t in units of 1/A: heisenberg·(XX + YY + γZZ) on the
    inputs, the input-2/output coupling (axis, coefficient), a field·Z₃ if
    nonzero and the output drive (angular frequency, form) of unit amplitude."""
    q1, q2, q3 = targets
    (axis, c), (frequency, form) = coupling, drive
    static = (
        StaticTerm(heisenberg, ((q1, "X"), (q2, "X"))),
        StaticTerm(heisenberg, ((q1, "Y"), (q2, "Y"))),
        StaticTerm(params.gamma * heisenberg, ((q1, "Z"), (q2, "Z"))),
        StaticTerm(c, ((q2, axis), (q3, axis))),
    ) + ((StaticTerm(field, ((q3, "Z"),)),) if field else ())
    drives = (DriveTerm(1.0, frequency, q3, form),)
    return TimeDependentHamiltonian(num_qubits, static, drives)


def build_exc_hamiltonian(
    params: ExcNeuronParams, num_qubits: int = 3, targets: Sequence[int] = (0, 1, 2)
) -> TimeDependentHamiltonian:
    """H/A = (J/2)(XX + YY + γZZ) on inputs + β Z₂Z₃ + cos(2βt) X₃."""
    j, b = params.in_drive_units
    return _build(params, num_qubits, targets, j / 2, ("Z", b), (2 * b, "cosine_x"))


def build_phase_hamiltonian(
    params: PhaseNeuronParams, num_qubits: int = 3, targets: Sequence[int] = (0, 1, 2)
) -> TimeDependentHamiltonian:
    """H/B = J(XX + YY + γZZ) on inputs + δ X₂X₃ + Z₃ (all static).

    The Heisenberg coefficient is J, not J/2: this is the convention that
    reproduces the reference average fidelities (99.07% at (3,82), 96.38%
    at (5,80)); the halved coefficient provably cannot, under any
    output-qubit correction.
    """
    j, d = params.in_drive_units
    return _build(params, num_qubits, targets, j, ("X", d), (0.0, "static_z"))


def build_final_hamiltonian(
    params: FinalLayerParams, num_qubits: int = 3, targets: Sequence[int] = (0, 1, 2)
) -> TimeDependentHamiltonian:
    """H/A = static Heisenberg + βZ₂Z₃ plus the variant's selective drive.

    The rotating drive turns at 2β; the local field adds (Ω/2)Z₃ and drives
    cos((Ω ± 2β)t) X₃, + for the up-up detector.
    """
    j, b = params.in_drive_units
    upup = params.variant == "detect_upup"
    if params.drive_mode == "rotating":
        drive = (2 * b, "rotating_plus" if upup else "rotating_minus")
        return _build(params, num_qubits, targets, j / 2, ("Z", b), drive)
    omega = params.omega / params.drive_amplitude
    drive = (omega + (1.0 if upup else -1.0) * 2 * b, "cosine_x")
    return _build(params, num_qubits, targets, j / 2, ("Z", b), drive, omega / 2)


_BUILDERS = {
    "excitation": build_exc_hamiltonian, "phase": build_phase_hamiltonian,
    "final_upup": build_final_hamiltonian, "final_downdown": build_final_hamiltonian,
}


def build_hamiltonian(
    spec: NeuronSpec, num_qubits: int = 3, targets: Sequence[int] | None = None
) -> TimeDependentHamiltonian:
    if targets is None:
        targets = spec.targets
    return _BUILDERS[spec.kind](spec.params, num_qubits, targets)


def apply_neuron(
    state: StateVector, spec: NeuronSpec, tol: float = 1e-9
) -> StateVector:
    """Run one full neuron protocol on a register: gates, evolution, gates.

    This evolves the state through the neuron's Hamiltonian on its own
    qubits; it is the reference the tests hold network.run against.
    """
    for q in spec.targets:
        if not 0 <= q < state.num_qubits:
            raise OutOfBoundsError(f"neuron qubit {q} outside register")
    pre, post = spec.gates
    for gate in pre:
        state = core.apply_gate(state, gate, spec.output_qubit)
    hamiltonian = build_hamiltonian(spec, state.num_qubits)
    state = core.evolve(state, hamiltonian, spec.params.UNIT_TAU, tol)
    for gate in post:
        state = core.apply_gate(state, gate, spec.output_qubit)
    return state


def _output_gates(gates) -> np.ndarray:
    """A gate sequence on the output qubit (qubit 2) as an 8-dim matrix."""
    m = np.eye(2, dtype=complex)
    for gate in gates:
        m = core.gate_matrix(gate) @ m
    return core.embed_matrix(m, (2,), 3)


def neuron_unitary(spec: NeuronSpec, tol: float = 1e-9) -> DenseOperator:
    """The corrected neuron's 8-dim unitary on (input1, input2, output)."""
    hamiltonian = build_hamiltonian(spec, 3, (0, 1, 2))
    u = core.propagator(hamiltonian, spec.params.UNIT_TAU, tol).matrix
    pre, post = spec.gates
    op = DenseOperator(_output_gates(post) @ u @ _output_gates(pre))
    op.assert_unitary()
    return op


# The protocol vectors, built once: a Bell pair or a computational pair
# (bits) on the inputs, the output down (0) or up (1).
_BELL_OUT = {
    (label, out): core.read_only(np.kron(core.BELL_VECTORS[label], unit))
    for label in BELL_LABELS for out, unit in enumerate(np.eye(2, dtype=complex))
}
_COMP_OUT = {
    ((i >> 2, i >> 1 & 1), i & 1): row
    for i, row in enumerate(core.read_only(np.eye(8, dtype=complex)))
}


# kind -> (protocol vectors, inputs whose output it keeps, inputs it flips)
_PROTOCOLS = {
    "excitation": (_BELL_OUT, ("Psi+", "Psi-"), ("Phi+", "Phi-")),
    "phase": (_BELL_OUT, ("Psi+", "Phi+"), ("Psi-", "Phi-")),
    "final_upup": (_COMP_OUT, ((0, 0), (0, 1), (1, 0)), ((1, 1),)),
    "final_downdown": (_COMP_OUT, ((0, 1), (1, 0), (1, 1)), ((0, 0),)),
}


def protocol_subspace(kind: str, params) -> list[np.ndarray]:
    """The 6 protocol states used to define and score each neuron: every
    input with the output down, kept ones first, then flipped ones up."""
    vectors, kept, flipped = _PROTOCOLS[kind]
    return [vectors[b, 0] for b in kept + flipped] + [vectors[b, 1] for b in flipped]


def ideal_unitary(kind: str, params) -> DenseOperator:
    """The exact target unitary on the 6-state protocol subspace.

    Entries outside the protocol subspace complete the operator unitarily
    with phases consistent with the corrected dynamics (test-invisible:
    fidelity is only evaluated on the subspace).  Only the final layer's
    ideal, which depends on βτ, is built per call; the others are shared.
    """
    if kind not in _PROTOCOLS:
        raise InvalidParamsError(f"unknown neuron kind {kind!r}")
    if kind in ("excitation", "phase"):
        sign = -1 if kind == "excitation" else (-1) ** int(round(params.m))
        return DenseOperator(_fixed_ideal(kind, sign))
    rate = 2j if kind == "final_upup" else -2j
    flip_back = -1j * np.exp(rate * params.in_drive_units[1] * params.UNIT_TAU)
    return DenseOperator(_ideal_matrix(kind, 1, flip_back))


@functools.lru_cache(maxsize=4)
def _fixed_ideal(kind: str, sign: int) -> np.ndarray:
    """The excitation (sign -1) or phase ((-1)^round(m)) ideal, read-only."""
    return core.read_only(_ideal_matrix(kind, -1j * sign, 1j * sign))


def _ideal_matrix(kind: str, stay: complex, flip_back: complex) -> np.ndarray:
    """Kept inputs gain `stay` with the output up, flipped ones `flip_back`."""
    vectors, kept, flipped = _PROTOCOLS[kind]
    u = np.zeros((8, 8), dtype=complex)
    for b in kept:
        u += np.outer(vectors[b, 0], vectors[b, 0])
        u += stay * np.outer(vectors[b, 1], vectors[b, 1])
    for b in flipped:
        u += np.outer(vectors[b, 1], vectors[b, 0])
        u += flip_back * np.outer(vectors[b, 0], vectors[b, 1])
    core.check_isometry(u, 1e-12)
    return u


def fidelity_report(kind: str, params) -> fidelity.FidelityReport:
    """Fidelity of the default-corrected neuron on its protocol subspace."""
    spec = make_spec(kind, params, (0, 1), 2)
    return fidelity.average_fidelity(
        neuron_unitary(spec),
        ideal_unitary(kind, params),
        protocol_subspace(kind, params),
    )


class FidelityModel:
    """fidelity_report's f_avg, up to rounding, for many parameter sets.

    For an excitation or phase neuron, L = B†·U_ideal†·Post and R = Pre·B
    are built once per round(m), on which the phase neuron's ideal and
    post-phase gate depend, from the checked ideal, protocol basis B and
    output gates.  A call builds H, takes the bare propagator U as the
    engine does, checks it and returns (‖LUR‖² + |tr LUR|²)/(d(d+1)).
    """

    def __init__(self, kind: str):
        if kind not in ("excitation", "phase"):
            raise InvalidParamsError(f"no fidelity model for kind {kind!r}")
        self.kind, self.build, self.projections = kind, _BUILDERS[kind], {}

    def __call__(self, params) -> float:
        hamiltonian = self.build(params)
        if self.kind == "phase":  # static: the engine's one matrix exponential
            u = expm(-1j * params.UNIT_TAU * hamiltonian._local_pieces()[1])
        else:
            u = core.propagator(hamiltonian, params.UNIT_TAU).matrix
        return self.score(params, u)

    def score(self, params, u: np.ndarray) -> float:
        """f_avg of the bare propagator u of `params`, once u is unitary."""
        core.check_isometry(u)
        key = round(params.m) if self.kind == "phase" else None
        if key not in self.projections:
            pre, post = make_spec(self.kind, params, (0, 1), 2).gates
            basis = fidelity._subspace_matrix(protocol_subspace(self.kind, params), 8)
            ideal = ideal_unitary(self.kind, params).matrix.conj().T
            self.projections[key] = (basis.conj().T @ ideal @ _output_gates(post),
                                     _output_gates(pre) @ basis)
        left, right = self.projections[key]
        m = left @ u @ right
        return (np.vdot(m, m).real + abs(np.trace(m)) ** 2) / (len(m) * (len(m) + 1))


@dataclass(frozen=True)
class Trajectory:
    """Sampled bare-evolution observables for one Bell input, at times from
    0 to the neuron's UNIT_TAU in units of 1/A, whatever the amplitude A."""

    times: np.ndarray
    output_x: np.ndarray
    output_z: np.ndarray
    input_fidelity: np.ndarray


def record_trajectory(
    spec: NeuronSpec,
    input_label: str,
    samples: int = DEFAULT_TRAJECTORY_SAMPLES,
    tol: float = 1e-9,
) -> Trajectory:
    """Bare (correction-free) evolution from |input⟩|↓⟩ on 3 qubits.

    input_fidelity is the overlap with the initial state after tracing out
    the output flip: ⟨Ψ(t)| (|Ψ₀⟩⟨Ψ₀| + X₃|Ψ₀⟩⟨Ψ₀|X₃) |Ψ(t)⟩.
    """
    if samples < 2:
        raise InvalidParamsError("samples must be at least 2")
    if input_label not in BELL_LABELS:
        raise InvalidParamsError(f"unknown Bell label {input_label!r}")
    hamiltonian = build_hamiltonian(spec, 3, (0, 1, 2))
    psi0 = bell_state(input_label).tensor(StateVector.all_down(1))
    flipped = core.apply_gate(psi0, ("not_x",), 2)
    times = np.linspace(0.0, spec.params.UNIT_TAU, samples)
    states = core.evolve_sampled(psi0, hamiltonian, times, tol)
    amps = np.array([state.amplitudes for state in states])
    # The output is qubit 2, the least significant index bit.
    down, up = amps[:, 0::2], amps[:, 1::2]
    out_x = 2.0 * np.sum(down.conj() * up, axis=1).real
    out_z = np.sum(np.abs(up) ** 2 - np.abs(down) ** 2, axis=1)
    in_f = (
        np.abs(amps @ psi0.amplitudes.conj()) ** 2
        + np.abs(amps @ flipped.amplitudes.conj()) ** 2
    )
    return Trajectory(times, out_x, out_z, np.clip(in_f, 0.0, None))


@dataclass(frozen=True)
class SpectrumReport:
    """Numerical vs closed-form static eigenvalues for one neuron."""

    numerical: np.ndarray
    predicted: np.ndarray
    max_deviation: float
    exact: bool
    bound: float


def spectrum_report(spec: NeuronSpec, safety: float = 1.2) -> SpectrumReport:
    """Compare drive-free eigenvalues against the closed-form predictions.

    Excitation and final-layer neurons: exact closed form
    {±sqrt(J²+β²) − γJ/2, ±β + γJ/2}, each doubly degenerate.  Phase
    neuron: exact positive-phase block {J±δ} plus the perturbative
    negative-phase block {J, −3J} with deviation bounded by δ²/(4J)·safety
    (values quoted for the J-coefficient Heisenberg convention this
    package uses).  All values are in units of the drive, as H/A is.
    """
    hamiltonian = build_hamiltonian(spec, 3, (0, 1, 2))
    static_only = TimeDependentHamiltonian(3, hamiltonian.static_terms, ())
    numerical = np.sort(np.linalg.eigvalsh(static_only.matrix(0.0)))
    p = spec.params
    j, b = p.in_drive_units  # b is δ for the phase neuron
    if spec.kind == "phase":
        exact, bound = False, b**2 / (4 * j) * safety
        predicted = np.repeat([j - b, j + b, -3 * j, j], 2)
    else:
        exact, bound, half = True, 1e-10, p.gamma * j / 2
        root, field = math.sqrt(j**2 + b**2), 0.0
        if spec.kind != "excitation" and p.drive_mode == "local_field":
            # the Ω/2 σ₃^z term splits each doublet by ±Ω/2
            field = p.omega / p.drive_amplitude / 2
        levels = np.array([root - half, -root - half, b + half, -b + half])
        predicted = np.concatenate([levels - field, levels + field])
    predicted = np.sort(predicted)
    deviation = float(np.max(np.abs(numerical - predicted)))
    return SpectrumReport(numerical, predicted, deviation, exact, bound)
