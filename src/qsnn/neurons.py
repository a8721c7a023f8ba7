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
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

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
    DimensionMismatchError,
    HierarchyViolationError,
    InvalidParamsError,
    NonPythagoreanError,
    NormDriftError,
    NoRealSolutionError,
)

PYTHAGOREAN_TOL = 1e-9
PHASE_FLOOR_4M = 8.0
PHASE_RATIO_FLOOR = 5.0
PHASE_RATIO_HEADROOM = 10.0
OMEGA_FLOOR = 20.0
DEFAULT_TRAJECTORY_SAMPLES = 1000

# In a correction sequence of gates on the output qubit (core.GATES), the
# "evolution" marker separates pre- from post-evolution gates.
EVOLUTION = ("evolution",)
_PHASE_STRINGS = ("XXI", "YYI", "ZZI", "IXX", "IIZ")
FINAL_VARIANTS = {"final_upup": "detect_upup", "final_downdown": "detect_downdown"}


def _is_integer(x: float) -> bool:
    return abs(x - round(x)) <= PYTHAGOREAN_TOL


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


def check_ratios(ratios: dict[str, float]) -> None:
    """Refuse a neuron whose drive is not detuned from a transition it must suppress."""
    for label, value in ratios.items():
        if not (math.isfinite(value) and value > 0):
            raise InvalidParamsError(f"ratio {label} = {value} not positive")


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
        if not f.init:  # a value the class solves
            continue
        accepts, what = _ACCEPTS[f.type]
        value = getattr(params, f.name)
        if not accepts(value):
            raise InvalidParamsError(
                f"{type(params).__name__}.{f.name} must be {what}, "
                f"got {core._shown(value)}"
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
        root = abs(self.in_drive_units[0])
        if not math.isfinite(root):
            raise InvalidParamsError(f"(l − k)(l + k) overflows at k={self.k}, l={self.l}")
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
        """(J, β) in units of the drive amplitude: (±sqrt((l−k)(l+k)), k), no cancellation."""
        return self.j_sign * math.sqrt((self.l - self.k) * (self.l + self.k)), float(self.k)

    @property
    def beta(self) -> float:
        return self.k * self.drive_amplitude

    @property
    def coupling_j(self) -> float:
        return self.in_drive_units[0] * self.drive_amplitude


@dataclass(frozen=True)
class PhaseNeuronParams(_Driven):
    """Phase-detection neuron parameters (J = 2nB, delta = 2mB)."""

    UNIT_TAU = math.pi / 2

    m: float
    n: float
    drive_amplitude: float = 1.0
    gamma: float = 1.0
    relaxed: bool = False

    def __post_init__(self):
        _check_fields(self)
        if not self.n > self.m > 0:
            raise InvalidParamsError(f"need n > m > 0, got m={self.m}, n={self.n}")
        if not self.relaxed and not (_is_integer(self.m) and _is_integer(self.n)):
            raise InvalidParamsError(
                "constraint mode requires integer m and n; set relaxed=True "
                "for tuned values"
            )
        if 4 * self.m < PHASE_FLOOR_4M:
            raise HierarchyViolationError(
                f"hierarchy 1 << 4m violated: 4m = {4 * self.m} < {PHASE_FLOOR_4M}"
            )
        if 2 * self.n < PHASE_RATIO_FLOOR * 4 * self.m:
            raise HierarchyViolationError(
                f"hierarchy 4m << 2n violated: 2n/4m = "
                f"{2 * self.n / (4 * self.m):.3f} < {PHASE_RATIO_FLOOR}"
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
        """True when 2n/4m is below the recommended headroom of 10."""
        return 2 * self.n < PHASE_RATIO_HEADROOM * 4 * self.m


def _phase_matching(gamma: float, l: int, s: int, parity_k: int) -> tuple[float, float]:
    """(β, J)/A of the final layer, the solution of γJ = q − β with β² + J² = l²
    and q = 2s − l: with D = (l−q)(l+q) + (lγ)² and ε = (−1)^k, β = (q + εγ√D)/(1+γ²)
    and J = (γq − ε√D)/(1+γ²).  Nothing divides by γ: J is 0 where the exact J is,
    and at γ = 0 it is −ε√D, the limit of the γ ≠ 0 solution.  In units of A."""
    q = 2 * s - l
    disc = (l - q) * (l + q) + (l * gamma) ** 2  # l and q are ints: the product is exact
    if disc < 0:
        raise NoRealSolutionError(f"discriminant (l−q)(l+q) + (lγ)² = {disc} is negative")
    root = (-1) ** parity_k * math.sqrt(disc)
    return (q + gamma * root) / (1 + gamma**2), (gamma * q - root) / (1 + gamma**2)


@dataclass(frozen=True)
class FinalLayerParams(_Driven):
    """Final-layer neuron: flips the output only for one designated pair.

    β and J are solved from (l, s, parity_k, γ): γJ = (2s−l)A − β aligns the
    phases of the |↑↑⟩ detector; the |↓↓⟩ detector swaps the two extreme
    states, γJ = (2s−l)A + β, so its β is negated.  Only the local field
    takes an ω.
    """

    variant: str  # "detect_upup" | "detect_downdown"
    l: int
    s: int
    parity_k: int
    gamma: float = 1.0
    drive_amplitude: float = 1.0
    drive_mode: str = "rotating"  # or "local_field"
    omega: float | None = None
    beta: float = field(init=False)
    coupling_j: float = field(init=False)

    @in_arithmetic_range
    def __post_init__(self):
        _check_fields(self)
        if self.variant not in FINAL_VARIANTS.values():
            raise InvalidParamsError(f"unknown final-layer variant {self.variant!r}")
        if self.drive_mode not in ("rotating", "local_field"):
            raise InvalidParamsError(f"unknown drive mode {self.drive_mode!r}")
        if self.drive_mode == "local_field":
            if self.omega is None:
                raise InvalidParamsError("local_field mode requires omega")
            ratio = abs(self.omega) / self.drive_amplitude
            if ratio < OMEGA_FLOOR:
                raise InvalidParamsError(f"|Omega|/A = {ratio:.2f} below floor {OMEGA_FLOOR}")
        elif self.omega is not None:
            raise InvalidParamsError("the rotating drive takes no omega")
        a = self.drive_amplitude
        for name, value in zip(("coupling_j", "beta"), self.in_drive_units):
            if not math.isfinite(value * a):
                raise InvalidParamsError(f"{name} out of arithmetic range at A = {a}")
            object.__setattr__(self, name, value * a)
        check_ratios(self.detuning_ratios)  # as params detuning does: β = 0 or J = 0 fails

    @property
    def in_drive_units(self) -> tuple[float, float]:
        """(J, β) in units of the drive amplitude, solved without A (β negated for |↓↓⟩)."""
        beta, j = _phase_matching(self.gamma, self.l, self.s, self.parity_k)
        return j, -beta if self.variant == "detect_downdown" else beta

    @property
    def detuning_ratios(self) -> dict[str, float]:
        """Detunings from the drive at ±2β (+ for up-up detection) of the other inputs'
        transitions, at ∓2β and ±2r with r = sqrt(J² + β²), and of a local field's
        counter-rotating term, in units of the drive.  The smaller one-excitation
        detuning 2(r − |β|) is 2J²/(r + |β|): zero only when J is."""
        j, b = self.in_drive_units
        root = math.sqrt(j**2 + b**2)
        near, far = (2 * j**2 / (root + abs(b)) if j else 0.0), 2 * (root + abs(b))
        same = (b >= 0) == (self.variant == "detect_upup")  # ±β >= 0
        ratios = {
            "opposite_pair": 4 * abs(b),
            "one_excitation_minus": near if same else far,
            "one_excitation_plus": far if same else near,
        }
        if self.drive_mode == "local_field":
            ratios["counter_term"] = 2 * abs(self.omega / self.drive_amplitude)
        return ratios


PARAMS_TYPES = {
    "excitation": ExcNeuronParams,
    "phase": PhaseNeuronParams,
    "final_upup": FinalLayerParams,
    "final_downdown": FinalLayerParams,
}


def _check_kind(kind: str, params) -> None:
    """Reject an unknown neuron kind, or params not of that kind's type and,
    for a final layer, variant."""
    if not isinstance(kind, str) or kind not in PARAMS_TYPES:
        raise InvalidParamsError(f"unknown neuron kind {kind!r}")
    expected = PARAMS_TYPES[kind]
    if not isinstance(params, expected):
        raise InvalidParamsError(f"{kind} neuron requires {expected.__name__}")
    variant = FINAL_VARIANTS.get(kind)
    if variant is not None and params.variant != variant:
        raise InvalidParamsError(
            f"{kind} neuron requires variant {variant!r}, got {params.variant!r}")


@dataclass(frozen=True)
class NeuronSpec:
    """A neuron kind, its parameters, wiring, and correction gates."""

    kind: str
    params: object
    input_qubits: tuple[int, int]
    output_qubit: int
    corrections: tuple = ()

    def __post_init__(self):
        core.check_type(Sequence, self.input_qubits)
        object.__setattr__(self, "input_qubits", tuple(self.input_qubits))
        _check_kind(self.kind, self.params)
        indices = (*self.input_qubits, self.output_qubit)
        if tuple(map(type, indices)) != (int, int, int):
            raise InvalidParamsError(
                f"neuron needs two input and one output integer qubit "
                f"index, got {indices!r}"
            )
        if len(set(indices)) != 3:
            raise InvalidParamsError(f"neuron indices must be distinct: {indices}")
        # Gates that core.check_gate accepts and one evolution marker, or
        # none at all for bare evolution.
        if not isinstance(self.corrections, tuple):
            raise InvalidParamsError("corrections must be a tuple of gates")
        for gate in self.corrections:
            name = gate[0] if type(gate) is tuple and gate else None
            if not (type(name) is str and gate == EVOLUTION):
                core.check_gate(gate)
        if self.corrections and self.corrections.count(EVOLUTION) != 1:
            raise InvalidParamsError(
                "correction sequence must contain exactly one 'evolution' marker")

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


def default_corrections(kind: str, params) -> tuple:
    """Analytic correction-gate sequence on the output qubit.

    The gates cancel the deterministic inter-subspace phases the bare
    evolution leaves behind, so the corrected neuron matches its ideal
    truth table up to a global phase.  The phase neuron additionally needs
    the Hadamard basis changes around the evolution; in a correction tuple
    the marker "evolution" separates pre- and post-evolution gates.
    """
    _check_kind(kind, params)
    pre, post = _default_gates(int(round(params.m)) if kind == "phase" else None)
    return pre + (EVOLUTION,) + post


def _default_gates(m: int | None) -> tuple[tuple, tuple]:
    """The phase neuron's (pre, post) gates at round(m) = m; for m None, the other kinds'."""
    if m is not None:
        return (("hadamard",),), (("hadamard",), ("phase", -math.pi / 2 + m * math.pi))
    # Excitation and final layers: the same pi/2 z-phase structure.
    return (), (("phase", math.pi / 2),)


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
    core.check_type(NeuronSpec, spec)
    if targets is None:
        targets = spec.targets
    elif type(targets) not in (tuple, list) or len(targets) != 3:
        raise InvalidParamsError(f"targets must be three qubits, got {core._shown(targets)}")
    return _BUILDERS[spec.kind](spec.params, num_qubits, targets)


def apply_neuron(state: StateVector, spec: NeuronSpec) -> StateVector:
    """Run one full neuron protocol on a register: gates, evolution, gates.

    This evolves the state through the neuron's Hamiltonian on its own
    qubits; it is the reference the tests hold network.run against.
    """
    core.check_type(NeuronSpec, spec)
    core.check_type(StateVector, state)
    pre, post = spec.gates
    for gate in pre:
        state = core.apply_gate(state, gate, spec.output_qubit)
    hamiltonian = build_hamiltonian(spec, state.num_qubits)
    state = core.evolve(state, hamiltonian, spec.params.UNIT_TAU)
    for gate in post:
        state = core.apply_gate(state, gate, spec.output_qubit)
    return state


@functools.lru_cache(maxsize=128)
def _output_gates(gates: tuple) -> np.ndarray:
    """A gate sequence on the output qubit (qubit 2) as an 8-dim matrix, read-only."""
    m = np.eye(2, dtype=complex)
    for gate in gates:
        m = core.gate_matrix(gate) @ m
    return core.read_only(core.embed_matrix(m, (2,), 3))


def neuron_unitary(spec: NeuronSpec, tol: float = 1e-9, bare=None) -> DenseOperator:
    """The corrected 8-dim unitary on (input1, input2, output); bare: U(UNIT_TAU) if known."""
    core.check_type(NeuronSpec, spec)
    u = (core.propagator(build_hamiltonian(spec, 3, (0, 1, 2)), spec.params.UNIT_TAU, tol)
         if bare is None else DenseOperator(bare)).matrix
    if u.shape != (8, 8):
        raise DimensionMismatchError(f"bare U must be 8x8, got {u.shape[0]}x{u.shape[1]}")
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
_PROTOCOL_STATES = {
    kind: [vectors[b, 0] for b in kept + flipped] + [vectors[b, 1] for b in flipped]
    for kind, (vectors, kept, flipped) in _PROTOCOLS.items()
}


def protocol_subspace(kind: str, params) -> list[np.ndarray]:
    """The 6 protocol states used to define and score each neuron: every
    input with the output down, kept ones first, then flipped ones up."""
    _check_kind(kind, params)
    return list(_PROTOCOL_STATES[kind])


def ideal_unitary(kind: str, params) -> DenseOperator:
    """The exact target unitary on the 6-state protocol subspace.

    Entries outside the protocol subspace complete the operator unitarily
    with phases consistent with the corrected dynamics (test-invisible:
    fidelity is only evaluated on the subspace).  Each distinct ideal is
    built once and shared read-only: the excitation and phase ideals by
    kind and the sign (-1)^round(m), the final layer's by its βτ phase.
    """
    _check_kind(kind, params)
    if kind in ("excitation", "phase"):
        sign = -1 if kind == "excitation" else (-1) ** int(round(params.m))
        stay, flip_back = -1j * sign, 1j * sign
    else:
        rate = 2j if kind == "final_upup" else -2j
        stay, flip_back = 1, -1j * np.exp(rate * params.in_drive_units[1] * params.UNIT_TAU)
    return DenseOperator(_ideal_matrix(kind, stay, flip_back))


@functools.lru_cache(maxsize=128)
def _ideal_matrix(kind: str, stay: complex, flip_back: complex) -> np.ndarray:
    """Kept inputs gain `stay` with the output up, flipped ones `flip_back`; read-only."""
    vectors, kept, flipped = _PROTOCOLS[kind]
    u = np.zeros((8, 8), dtype=complex)
    for b in kept:
        u += np.outer(vectors[b, 0], vectors[b, 0])
        u += stay * np.outer(vectors[b, 1], vectors[b, 1])
    for b in flipped:
        u += np.outer(vectors[b, 1], vectors[b, 0])
        u += flip_back * np.outer(vectors[b, 0], vectors[b, 1])
    core.check_isometry(u, 1e-12)
    return core.read_only(u)


def fidelity_report(kind: str, params, bare=None) -> fidelity.FidelityReport:
    """Fidelity of the default-corrected neuron on its protocol subspace; see neuron_unitary."""
    spec = make_spec(kind, params, (0, 1), 2)
    return fidelity.average_fidelity(
        neuron_unitary(spec, bare=bare),
        ideal_unitary(kind, params),
        protocol_subspace(kind, params),
    )


@functools.lru_cache(maxsize=1)
def _phase_blocks() -> np.ndarray:
    """The W(E_b⊗σ)Wᵀ of the phase H's four 2×2 blocks b, σ = I, X, Z, in the W of
    core._sector_basis, which no parameter moves: (12, 8, 8), read-only."""
    w = core._sector_basis(_PHASE_STRINGS).astype(complex)  # the complex kernels the report uses
    core.check_isometry(w, 1e-12)
    sigmas = np.array([np.eye(2), core.PAULI_X, core.PAULI_Z])
    return core.read_only(w @ np.kron(np.eye(4)[:, None] * np.eye(4), sigmas) @ w.T)


@functools.lru_cache(maxsize=128)
def _projections(kind: str, m: int | None) -> tuple:
    """FidelityModel's read-only L, R and, for the phase neuron, G: its gates and
    ideal follow m = round(m) alone; m is None for the excitation neuron."""
    pre, post = map(_output_gates, _default_gates(m))
    sign = -1 if m is None else (-1) ** m
    basis = fidelity._subspace_matrix(_PROTOCOL_STATES[kind], 8)
    ideal = _ideal_matrix(kind, -1j * sign, 1j * sign).conj().T
    left, right, form, d = basis.conj().T @ ideal @ post, pre @ basis, None, len(basis.T)
    if m is not None:  # G = (Gram(A) + t̄·tᵀ)/(d(d+1)) = B̄·Bᵀ/(d(d+1)), B = (vec A, tr A)
        a = (left @ _phase_blocks() @ right).reshape(12, -1)
        a = np.column_stack([a, a[:, ::d + 1].sum(axis=1)])
        form = core.read_only(a.conj() @ a.T / (d * (d + 1)))
    return core.read_only(left), core.read_only(right), form


class FidelityModel:
    """fidelity_report's f_avg, up to rounding, at points x = (m, n) or (k, l)
    near a start; params_at(x) is the start at x, relaxed, class-checked.

    L = B†·U_ideal†·Post and R = Pre·B follow the kind and round(m): _projections.
    An excitation call returns fidelity._f_avg(L·U·R), U from core.propagator.  A
    phase call forms U = Σ c_{b,σ}·W(E_b⊗σ)Wᵀ from H/B's four 2×2 blocks (_phase_blocks),
    whose coefficients follow γ, on floats, checks each block unitary and returns
    Re(c†Gc), G being _f_avg's form on the A_{b,σ} = L·W(E_b⊗σ)Wᵀ·R.
    """

    def __init__(self, kind: str, start):
        if kind not in ("excitation", "phase"):
            raise InvalidParamsError(f"no fidelity model for kind {kind!r}")
        _check_kind(kind, start)
        self.kind, self.start = kind, start
        self.fields = ("m", "n") if kind == "phase" else ("k", "l")
        if kind == "phase":
            xx, yy, zz, x23, z3 = (core._pauli_string(tuple(s)) for s in _PHASE_STRINGS)
            # The blocks' coefficients h_σ = tr(σ·block)/2 in the terms of n, m and 1.
            self.blocks = _phase_blocks()
            terms = np.array([2 * (xx + yy + start.gamma * zz), 2 * x23, z3]).reshape(3, 64)
            h = self.blocks.reshape(12, 64) @ terms.T / 2
            if not np.abs(h.T @ self.blocks.reshape(12, 64) - terms).max() <= 1e-12:
                raise NormDriftError("the phase H is not block-diagonal in its sector basis")
            self.sectors = h.real.reshape(4, 9).tolist()

    def params_at(self, x):
        """The start's parameters at x, relaxed, checked by their class."""
        return replace(self.start, relaxed=True, **dict(zip(self.fields, map(float, x))))

    def __call__(self, x) -> float:
        if self.kind == "excitation":
            params, key = self.params_at(x), None
            u = core.propagator(build_exc_hamiltonian(params), params.UNIT_TAU).matrix
        else:
            (m, n), tau, c = map(float, x), self.start.UNIT_TAU, []
            try:  # math.cos and math.sin of an infinite angle raise ValueError
                for b, (a0, b0, k0, ax, bx, kx, az, bz, kz) in enumerate(self.sectors):
                    h0, hx, hz = a0 * n + b0 * m + k0, ax * n + bx * m + kx, az * n + bz * m + kz
                    r = math.hypot(hx, hz)
                    cos, sin = math.cos(r * tau), (math.sin(r * tau) / r if r else tau)
                    if not (err := abs(cos * cos + sin * sin * r * r - 1.0)) <= core.UNITARITY_TOL:
                        raise NormDriftError(f"U's sector {b} drifts from unitarity by {err:.3g}")
                    phase = complex(math.cos(h0 * tau), -math.sin(h0 * tau))
                    c += (phase * cos, phase * -1j * sin * hx, phase * -1j * sin * hz)
            except ValueError as exc:
                raise NormDriftError(f"U is not finite at x = {x!r}") from exc
            c, key = np.array(c), round(m)
        left, right, form = _projections(self.kind, key)
        if form is None:
            return fidelity._f_avg(left @ u @ right)
        return float(np.vdot(c, form @ c).real)


@dataclass(frozen=True)
class Trajectory:
    """Sampled bare-evolution observables for one Bell input, at times from 0
    to UNIT_TAU in units of 1/A, whatever A, and the bare U(UNIT_TAU) reached."""

    times: np.ndarray
    output_x: np.ndarray
    output_z: np.ndarray
    input_fidelity: np.ndarray
    propagator: np.ndarray


def record_trajectory(
    spec: NeuronSpec,
    input_labels: Sequence[str] = BELL_LABELS,
    samples: int = DEFAULT_TRAJECTORY_SAMPLES,
) -> list[Trajectory]:
    """Bare evolution from |input⟩|↓⟩ on 3 qubits: one Trajectory per input label,
    all from one core.evolve_sampled stack, which ends at their shared propagator.

    input_fidelity is the overlap with the initial state after tracing out
    the output flip: ⟨Ψ(t)| (|Ψ₀⟩⟨Ψ₀| + X₃|Ψ₀⟩⟨Ψ₀|X₃) |Ψ(t)⟩.
    """
    if type(samples) is not int or samples < 2:
        raise InvalidParamsError(f"samples must be an int >= 2, got {core._shown(samples)}")
    if 4096 * samples > core.HOST_MEMORY:  # a call peaks at up to ~2.6 KB per sample
        raise InvalidParamsError("samples need more memory than this host has")
    labels = input_labels if type(input_labels) in (tuple, list) else ()
    if not labels or not all(map(BELL_LABELS.__contains__, labels)):
        raise InvalidParamsError(
            f"input_labels must list Bell labels, got {input_labels!r}")
    hamiltonian = build_hamiltonian(spec, 3, (0, 1, 2))
    starts = [bell_state(label).tensor(StateVector.all_down(1)) for label in labels]
    times, final, trajectories = np.linspace(0.0, spec.params.UNIT_TAU, samples), [], []
    for psi0, amps in zip(starts, core.evolve_sampled(starts, hamiltonian, times, final=final)):
        flipped = core.apply_gate(psi0, ("not_x",), 2)
        # The output is qubit 2, the least significant index bit.
        down, up = amps[:, 0::2], amps[:, 1::2]
        out_x = 2.0 * np.sum(down.conj() * up, axis=1).real
        out_z = np.sum(np.abs(up) ** 2 - np.abs(down) ** 2, axis=1)
        in_f = np.clip(
            np.abs(amps @ psi0.amplitudes.conj()) ** 2
            + np.abs(amps @ flipped.amplitudes.conj()) ** 2, 0.0, None
        )
        # Its own copy, so that editing one Trajectory leaves the others.
        trajectories.append(Trajectory(times.copy(), out_x, out_z, in_f, final[0]))
    return trajectories


@dataclass(frozen=True)
class SpectrumReport:
    """Numerical vs exact closed-form static eigenvalues for one neuron."""

    numerical: np.ndarray
    predicted: np.ndarray
    max_deviation: float


def spectrum_report(spec: NeuronSpec) -> SpectrumReport:
    """Compare drive-free eigenvalues against their exact closed forms.

    Excitation and final-layer neurons: {±sqrt(J²+β²) − γJ/2, ±β + γJ/2}.
    Phase neuron: δX₂X₃ couples Φ+ (energy γJ) only with Ψ+ ((2−γ)J) and
    Φ− (γJ) only with Ψ− (−(2+γ)J), giving J ± sqrt(J²(γ−1)² + δ²) and
    −J ± sqrt(J²(γ+1)² + δ²).  Every level is doubly degenerate.  All values
    are in units of the drive, as H/A is.
    """
    hamiltonian = build_hamiltonian(spec, 3, (0, 1, 2))
    static_only = TimeDependentHamiltonian(3, hamiltonian.static_terms, ())
    numerical = np.sort(np.linalg.eigvalsh(static_only.matrix(0.0)))
    p = spec.params
    j, b = p.in_drive_units  # b is δ for the phase neuron
    if spec.kind == "phase":
        low, high = math.hypot(j * (p.gamma - 1), b), math.hypot(j * (p.gamma + 1), b)
        predicted = np.repeat([j - low, j + low, -j - high, -j + high], 2)
    else:
        half, root, field = p.gamma * j / 2, math.sqrt(j**2 + b**2), 0.0
        if spec.kind != "excitation" and p.drive_mode == "local_field":
            # the Ω/2 σ₃^z term splits each doublet by ±Ω/2
            field = p.omega / p.drive_amplitude / 2
        levels = np.array([root - half, -root - half, b + half, -b + half])
        predicted = np.concatenate([levels - field, levels + field])
    predicted = np.sort(predicted)
    deviation = float(np.max(np.abs(numerical - predicted)))
    return SpectrumReport(numerical, predicted, deviation)
