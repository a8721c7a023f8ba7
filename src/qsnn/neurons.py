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
    NoRealSolutionError,
    SignInconsistencyError,
)

PYTHAGOREAN_TOL = 1e-9
DEFAULT_PHASE_FLOOR_4M = 8.0
DEFAULT_PHASE_RATIO_FLOOR = 5.0
DEFAULT_PHASE_RATIO_HEADROOM = 10.0
DEFAULT_OMEGA_FLOOR = 20.0
DEFAULT_TRAJECTORY_SAMPLES = 1000

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
        if not f.init:  # a value the class solves
            continue
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


def _phase_matching(gamma: float, l: int, s: int, parity_k: int) -> tuple[float, float]:
    """(β, J)/A of the final layer: β = ((2s−l) + (−1)^k·γ·sqrt(l²(1+γ²) −
    (2s−l)²))/(1+γ²), and the J = ±sqrt(l² − β²) that satisfies the
    un-squared identity γJ = (2s−l) − β.  In units of A, the tolerances do
    not depend on A."""
    q = 2 * s - l
    disc = l**2 * (1 + gamma**2) - q**2
    if disc < 0:
        raise NoRealSolutionError(
            f"discriminant l²(1+γ²) − (2s−l)² = {disc} is negative"
        )
    beta = 1 / (1 + gamma**2) * (q + (-1) ** parity_k * gamma * math.sqrt(disc))
    if abs(beta) > abs(l) + 1e-12:
        raise SignInconsistencyError(f"|beta|/A = {abs(beta)} exceeds |l| = {l}")
    j_mag = math.sqrt(max(l**2 - beta**2, 0.0))
    rhs = q - beta
    # Near the discriminant's zero, sqrt amplifies roundoff in j_mag by
    # ~sqrt(eps); select the J sign with a sqrt-aware tolerance, then return
    # the value that satisfies the un-squared identity to machine precision.
    best = min((j_mag, -j_mag), key=lambda j: abs(gamma * j - rhs))
    if abs(gamma * best - rhs) > 1e-6 * max(abs(l), 1.0):
        raise SignInconsistencyError(
            f"no J sign satisfies the un-squared phase identity: "
            f"γ|J| = {gamma * j_mag:.6g}, target {rhs:.6g}"
        )
    j = rhs / gamma if abs(gamma) > 1e-12 else best
    return beta, j


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
    omega_floor: float = DEFAULT_OMEGA_FLOOR
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
            if abs(self.omega) / self.drive_amplitude < self.omega_floor:
                raise InvalidParamsError(
                    f"|Omega|/A = {abs(self.omega) / self.drive_amplitude:.2f} "
                    f"below floor {self.omega_floor}"
                )
        elif self.omega is not None:
            raise InvalidParamsError("the rotating drive takes no omega")
        beta, j = _phase_matching(self.gamma, self.l, self.s, self.parity_k)
        if self.variant == "detect_downdown":
            beta = -beta
        object.__setattr__(self, "beta", beta * self.drive_amplitude)
        object.__setattr__(self, "coupling_j", j * self.drive_amplitude)

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
    core.check_type(NeuronSpec, spec)
    if targets is None:
        targets = spec.targets
    return _BUILDERS[spec.kind](spec.params, num_qubits, targets)


def apply_neuron(state: StateVector, spec: NeuronSpec) -> StateVector:
    """Run one full neuron protocol on a register: gates, evolution, gates.

    This evolves the state through the neuron's Hamiltonian on its own
    qubits; it is the reference the tests hold network.run against.
    """
    core.check_type(NeuronSpec, spec)
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


def protocol_subspace(kind: str, params) -> list[np.ndarray]:
    """The 6 protocol states used to define and score each neuron: every
    input with the output down, kept ones first, then flipped ones up."""
    _check_kind(kind, params)
    vectors, kept, flipped = _PROTOCOLS[kind]
    return [vectors[b, 0] for b in kept + flipped] + [vectors[b, 1] for b in flipped]


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


class FidelityModel:
    """fidelity_report's f_avg, up to rounding, at points x = (m, n) or (k, l)
    near a start; params_at(x) is the start at x, relaxed, class-checked.

    L = B†·U_ideal†·Post and R = Pre·B come from params_at(x) once per
    round(m), on which the phase ideal and post-phase gate depend; a call
    returns fidelity._f_avg(LUR).  The phase H/B = 2n·(XX + YY + γZZ) + 2m·X₂X₃
    + Z₃ is an affine sum of three float64 matrices built once, so core.static_propagator
    takes the real symmetric eigh; the excitation neuron builds params and H per call
    for core.propagator.  U is checked unitary once per call.
    """

    def __init__(self, kind: str, start):
        if kind not in ("excitation", "phase"):
            raise InvalidParamsError(f"no fidelity model for kind {kind!r}")
        _check_kind(kind, start)
        self.kind, self.start, self.projections = kind, start, {}
        self.fields = ("m", "n") if kind == "phase" else ("k", "l")
        if kind == "phase":
            string = lambda *pairs: core._term_string(pairs, (0, 1, 2)).real.copy()  # noqa: E731
            self.terms = (string((0, "X"), (1, "X")) + string((0, "Y"), (1, "Y"))
                          + start.gamma * string((0, "Z"), (1, "Z")),
                          string((1, "X"), (2, "X")), string((2, "Z"),))

    def params_at(self, x):
        """The start's parameters at x, relaxed, checked by their class."""
        return replace(self.start, relaxed=True, **dict(zip(self.fields, map(float, x))))

    def __call__(self, x) -> float:
        if self.kind == "phase":
            (m, n), (heisenberg, coupling, z3) = map(float, x), self.terms
            h = (2.0 * n) * heisenberg + (2.0 * m) * coupling + z3
            u, key = core.static_propagator(h, self.start.UNIT_TAU), round(m)
        else:
            params = self.params_at(x)
            u = core.propagator(build_exc_hamiltonian(params), params.UNIT_TAU).matrix
            key = None
        if key not in self.projections:
            params = self.params_at(x)
            pre, post = make_spec(self.kind, params, (0, 1), 2).gates
            basis = fidelity._subspace_matrix(protocol_subspace(self.kind, params), 8)
            ideal = ideal_unitary(self.kind, params).matrix.conj().T
            self.projections[key] = (basis.conj().T @ ideal @ _output_gates(post),
                                     _output_gates(pre) @ basis)
        left, right = self.projections[key]
        return fidelity._f_avg(left @ u @ right)


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
        raise InvalidParamsError(f"samples must be an int >= 2, got {samples!r}")
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
